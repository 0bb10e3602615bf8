//! Every workload at tiny size, traced and untraced: each metric that
//! `BENCHMARK.json` registers is emitted with a unit, and no operation
//! fails.

use std::path::PathBuf;

use seedb_e2ebench::{run, Options, Report, Scale, Workload};

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
fn registered(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc[section]
        .as_array()
        .expect("metric section is a list")
        .iter()
        .map(|m| {
            let name = m["name"].as_str().expect("metric name").to_string();
            let unit = m["unit"].as_str().expect("metric unit").to_string();
            (name, unit)
        })
        .collect()
}

/// Run `workload` at tiny size with its store under `smoke/<dir>`, a
/// directory of the calling test's own (tests run concurrently).
fn tiny(workload: Workload, trace: bool, dir: &str) -> Report {
    let opts = Options {
        workload,
        seed: 7,
        seconds: 1.0,
        trace,
        scale: Scale::Tiny,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join("smoke")
            .join(dir),
    };
    run(&opts).unwrap_or_else(|e| panic!("{} run failed: {e}", workload.name()))
}

fn assert_emits(report: &Report, section: &str, workload: Workload) {
    let expected = registered(section);
    assert_eq!(
        report.metrics.len(),
        expected.len(),
        "{}: {section} metric count",
        workload.name()
    );
    for (name, unit) in expected {
        let m = report
            .metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{}: {name} not emitted", workload.name()));
        assert_eq!(m.unit, unit, "{}: unit of {name}", workload.name());
        assert!(
            m.value.is_finite(),
            "{}: {name} = {}",
            workload.name(),
            m.value
        );
    }
}

#[test]
fn every_workload_emits_every_metric_without_failures() {
    for workload in Workload::ALL {
        let report = tiny(workload, false, "every-metric");
        assert_emits(&report, "end_to_end", workload);
        assert!(report.attempted > 0, "{}", workload.name());
        assert_eq!(report.failed, 0, "{}", workload.name());
        assert!(report.correct, "{}", workload.name());

        let traced = tiny(workload, true, "every-metric");
        assert_emits(&traced, "per_layer", workload);
        assert_eq!(
            traced.metric("ops_failed_frac"),
            Some(0.0),
            "{}",
            workload.name()
        );
        assert!(traced.correct, "{}", workload.name());
    }
}

#[test]
fn result_line_is_json_with_the_contract_keys() {
    let line = tiny(Workload::Ingest, false, "result-line").to_json();
    let doc = serde_json::from_str(&line).expect("result line parses");
    for key in ["correct", "attempted", "failed", "metrics"] {
        assert!(doc.get(key).is_some(), "missing {key}");
    }
}
