//! Plan-lowering equivalence properties: on randomly generated synthetic
//! tables, every shared-scan rewrite the optimizer emits through the
//! logical plan layer must produce **byte-identical** `ViewResult`s to
//! naive one-query-per-view execution.
//!
//! Byte-identical is achievable (and asserted, via `f64::to_bits`) for
//! the three paper rewrites — combined target/comparison, combined
//! aggregates, and combined group-bys via grouping sets — because each
//! lowers onto a shared scan that visits rows in exactly the same order
//! as the naive queries. The multi-group-by roll-up mode re-associates
//! floating-point additions, so it is held to a 1e-9 tolerance instead.

use proptest::prelude::*;
use seedb::core::optimizer::plan;
use seedb::core::{
    enumerate_views, AnalystQuery, FunctionSet, GroupByCombining, MetadataCollector, Metric,
    OptimizerConfig, Processor, ViewResult,
};
use seedb::data::{Plant, SyntheticSpec};
use seedb::memdb::{
    run_batch, run_partitioned, AggFunc, AggSpec, Database, Expr, LogicalPlan, PlanOutput, Table,
    Value,
};

/// Execute `views` under `cfg` through the full plan → lower → execute →
/// extract pipeline and score them.
fn run_views(db: &Database, analyst: &AnalystQuery, cfg: &OptimizerConfig) -> Vec<ViewResult> {
    let table = db.table(&analyst.table).unwrap();
    let views = enumerate_views(table.schema(), &FunctionSet::standard());
    let metadata = MetadataCollector::new().collect(&table, false).unwrap();
    let exec_plan = plan(&views, analyst, &metadata, cfg);
    let plans: Vec<LogicalPlan> = exec_plan.queries.iter().map(|q| q.plan.clone()).collect();
    let batch = run_batch(db, &plans, cfg.parallelism.max(1));
    let mut processor = Processor::new(views, Metric::EarthMovers);
    for (pq, out) in exec_plan.queries.iter().zip(batch.outputs) {
        processor.consume(pq, &out.expect("plan executes")).unwrap();
    }
    processor.finish()
}

/// Bitwise comparison of two scored views: utility, the full comparison
/// distribution, and the aligned target/comparison pair (exactly what
/// the deviation metric consumes) must match to the bit.
///
/// The *raw* target distribution is intentionally compared through the
/// aligned pair rather than by label set: a group with zero qualifying
/// target rows is absent from a naive standalone target query's output
/// but present with zero mass in a combined query's (its per-aggregate
/// predicate keeps the group alive via the comparison aggregate). Both
/// encode the same distribution, and their aligned probability vectors
/// are required to be bit-equal.
fn bitwise_eq(a: &ViewResult, b: &ViewResult) -> Result<(), String> {
    let ctx = |what: &str| format!("{}: {what} differs", a.spec);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if a.spec != b.spec {
        return Err("view specs differ".to_string());
    }
    if a.utility.to_bits() != b.utility.to_bits() {
        return Err(format!(
            "{}: utility {} vs {}",
            a.spec, a.utility, b.utility
        ));
    }
    // The comparison side runs over the whole table in both modes and
    // must be identical down to label support and raw values.
    if a.comparison.labels != b.comparison.labels {
        return Err(ctx("comparison labels"));
    }
    if bits(&a.comparison.probs) != bits(&b.comparison.probs) {
        return Err(ctx("comparison probabilities"));
    }
    if bits(&a.comparison.raw) != bits(&b.comparison.raw) {
        return Err(ctx("comparison raw values"));
    }
    // The aligned pair is the scored object; it must be bit-identical.
    if a.aligned.labels != b.aligned.labels {
        return Err(ctx("aligned labels"));
    }
    if bits(&a.aligned.p) != bits(&b.aligned.p) {
        return Err(ctx("aligned target probabilities"));
    }
    if bits(&a.aligned.q) != bits(&b.aligned.q) {
        return Err(ctx("aligned comparison probabilities"));
    }
    Ok(())
}

fn build_db(
    rows: usize,
    dims: usize,
    card: usize,
    measures: usize,
    seed: u64,
) -> (Database, AnalystQuery) {
    let spec = SyntheticSpec::knobs(rows, dims, card, 1.0, measures, seed).with_plant(Plant {
        subset_dim: 0,
        subset_value: 0,
        deviating_dims: vec![1],
        deviating_measures: vec![],
    });
    let analyst = AnalystQuery::new("synthetic", spec.subset_filter());
    let db = Database::new();
    db.register(spec.generate());
    (db, analyst)
}

/// Bitwise comparison of two plan outputs: every result set, row, and
/// value must match, with floats compared through `to_bits`.
fn outputs_bitwise_eq(a: &PlanOutput, b: &PlanOutput) -> Result<(), String> {
    if a.num_result_sets() != b.num_result_sets() {
        return Err("result-set count differs".to_string());
    }
    for s in 0..a.num_result_sets() {
        let (ra, rb) = (a.result_set(s).unwrap(), b.result_set(s).unwrap());
        if ra.columns != rb.columns {
            return Err(format!("set {s}: columns differ"));
        }
        if ra.rows.len() != rb.rows.len() {
            return Err(format!("set {s}: row count differs"));
        }
        for (i, (x, y)) in ra.rows.iter().zip(&rb.rows).enumerate() {
            for (va, vb) in x.iter().zip(y) {
                let eq = match (va, vb) {
                    (Value::Float(f), Value::Float(g)) => f.to_bits() == g.to_bits(),
                    _ => va == vb,
                };
                if !eq {
                    return Err(format!("set {s} row {i}: {va:?} vs {vb:?}"));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `run_partitioned` — one plan split across row partitions with
    /// mergeable partial aggregate states — is **byte-identical** to
    /// single-threaded `execute` for aggregate and grouping-sets plans,
    /// for every worker count and partition shape. (Float sums are
    /// exact and order-independent in the kernel, so re-associating
    /// them across partitions cannot perturb a single bit.)
    #[test]
    fn partitioned_execution_matches_single_threaded_bitwise(
        seed in 0u64..10_000,
        dims in 2usize..5,
        card in 2usize..10,
        measures in 1usize..3,
        workers in 2usize..9,
    ) {
        let (db, analyst) = build_db(500, dims, card, measures, seed);
        let table = db.table(&analyst.table).unwrap();
        let filter = analyst.filter.clone().expect("planted filter");

        // A combined target/comparison aggregate (per-aggregate
        // predicates), a multi-set grouping-sets plan with a scan
        // filter, and a row-sliced plan.
        let aggregate = LogicalPlan::scan(&analyst.table).aggregate(
            vec!["d1".into()],
            vec![
                AggSpec::new(AggFunc::Sum, "m0")
                    .with_filter(filter.clone())
                    .with_alias("target"),
                AggSpec::new(AggFunc::Sum, "m0").with_alias("comparison"),
                AggSpec::new(AggFunc::Avg, "m0"),
                AggSpec::count_star(),
            ],
        );
        let grouping_sets = LogicalPlan::scan(&analyst.table)
            .filter(Expr::col("d0").eq("v0"))
            .grouping_sets(
                (0..dims).map(|d| vec![format!("d{d}")]).chain([vec![]]).collect(),
                vec![
                    AggSpec::new(AggFunc::Sum, "m0"),
                    AggSpec::new(AggFunc::Min, "m0"),
                    AggSpec::new(AggFunc::Max, "m0"),
                ],
            );
        let sliced = aggregate.clone().sliced(71, 433);

        for (name, plan) in [
            ("aggregate", &aggregate),
            ("grouping-sets", &grouping_sets),
            ("sliced", &sliced),
        ] {
            let single = plan.lower().unwrap().execute(&table).unwrap();
            let partitioned =
                run_partitioned(&table, &plan.lower().unwrap(), workers, None, &seedb::obs::Span::none())
                    .and_then(|state| state.finalize(&table))
                    .unwrap();
            if let Err(msg) = outputs_bitwise_eq(&single, &partitioned) {
                return Err(TestCaseError::fail(format!(
                    "[{name}, {workers} workers] {msg}"
                )));
            }
        }
    }

    /// Combined target/comparison, combined aggregates, and grouping-set
    /// combining (under tight and loose memory budgets, sequential and
    /// parallel) are all byte-identical to the basic framework.
    #[test]
    fn shared_scan_plans_match_naive_execution_bitwise(
        seed in 0u64..10_000,
        dims in 2usize..5,
        card in 2usize..10,
        measures in 1usize..3,
        budget in prop_oneof![Just(6u64), Just(1_000_000u64)],
    ) {
        let (db, analyst) = build_db(400, dims, card, measures, seed);
        let baseline = run_views(&db, &analyst, &OptimizerConfig::basic());

        let mut combined_tc = OptimizerConfig::basic();
        combined_tc.combine_target_comparison = true;

        let mut combined_aggs = OptimizerConfig::basic();
        combined_aggs.combine_aggregates = true;

        let mut grouping_sets = OptimizerConfig::basic();
        grouping_sets.combine_target_comparison = true;
        grouping_sets.combine_aggregates = true;
        grouping_sets.group_by_combining = GroupByCombining::GroupingSets;
        grouping_sets.memory_budget_groups = budget;

        let mut grouping_sets_parallel = grouping_sets.clone();
        grouping_sets_parallel.parallelism = 3;

        for (name, cfg) in [
            ("combine target/comparison", &combined_tc),
            ("combine aggregates", &combined_aggs),
            ("combine group-bys (grouping sets)", &grouping_sets),
            ("combine group-bys, parallel", &grouping_sets_parallel),
        ] {
            let optimized = run_views(&db, &analyst, cfg);
            prop_assert_eq!(optimized.len(), baseline.len());
            for (a, b) in baseline.iter().zip(&optimized) {
                if let Err(msg) = bitwise_eq(a, b) {
                    return Err(TestCaseError::fail(format!("[{name}] {msg}")));
                }
            }
            // The rewrites must actually share scans: never more DBMS
            // queries than the basic framework's two per view.
            let table = db.table(&analyst.table).unwrap();
            let views = enumerate_views(table.schema(), &FunctionSet::standard());
            let md = MetadataCollector::new().collect(&table, false).unwrap();
            let n_opt = plan(&views, &analyst, &md, cfg).num_queries();
            let n_base = plan(&views, &analyst, &md, &OptimizerConfig::basic()).num_queries();
            prop_assert!(n_opt < n_base, "[{}] {} queries vs {} baseline", name, n_opt, n_base);
        }
    }

    /// Live ingest equivalence: a table built in one shot and the same
    /// rows arriving through K random-sized appends
    /// (`Database::append_rows`) produce **byte-identical** query
    /// results for every plan shape — segmented storage, shared
    /// dictionaries, and append lineage must be invisible to the
    /// executor. On top, a partial-aggregate state computed at any
    /// intermediate version and brought forward by a delta-merge
    /// (the serving layer's incremental refresh) must finalize to
    /// exactly the cold answer at the final version.
    #[test]
    fn appended_tables_match_one_shot_builds_bitwise(
        seed in 0u64..10_000,
        dims in 2usize..5,
        card in 2usize..10,
        measures in 1usize..3,
        appends in 1usize..6,
    ) {
        let rows = 400;
        let (oneshot_db, analyst) = build_db(rows, dims, card, measures, seed);
        let oneshot = oneshot_db.table(&analyst.table).unwrap();
        let filter = analyst.filter.clone().expect("planted filter");

        // Rebuild the identical logical table through K appends with
        // pseudo-random chunk boundaries derived from the seed.
        let mut bounds: Vec<usize> = (0..appends)
            .map(|i| {
                let mix = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(i as u64 * 1442695040888963407);
                (mix % rows as u64) as usize
            })
            .collect();
        bounds.push(0);
        bounds.push(rows);
        bounds.sort_unstable();
        bounds.dedup();

        let ingest_db = Database::new();
        let mut base = Table::new(&analyst.table, oneshot.schema().clone());
        for i in 0..bounds[1] {
            base.push_row(oneshot.row(i)).unwrap();
        }
        ingest_db.register(base);
        let mut versions = vec![ingest_db.table(&analyst.table).unwrap()];
        for w in bounds[1..].windows(2) {
            let chunk: Vec<Vec<Value>> = (w[0]..w[1]).map(|i| oneshot.row(i)).collect();
            versions.push(ingest_db.append_rows(&analyst.table, chunk).unwrap());
        }
        let live = ingest_db.table(&analyst.table).unwrap();
        prop_assert_eq!(live.num_rows(), rows);
        prop_assert_eq!(live.num_segments(), bounds.len() - 1);

        let aggregate = LogicalPlan::scan(&analyst.table).aggregate(
            vec!["d1".into()],
            vec![
                AggSpec::new(AggFunc::Sum, "m0")
                    .with_filter(filter.clone())
                    .with_alias("target"),
                AggSpec::new(AggFunc::Sum, "m0").with_alias("comparison"),
                AggSpec::new(AggFunc::Avg, "m0"),
                AggSpec::count_star(),
            ],
        );
        let grouping_sets = LogicalPlan::scan(&analyst.table)
            .filter(Expr::col("d0").eq("v0"))
            .grouping_sets(
                (0..dims).map(|d| vec![format!("d{d}")]).chain([vec![]]).collect(),
                vec![
                    AggSpec::new(AggFunc::Sum, "m0"),
                    AggSpec::new(AggFunc::Min, "m0"),
                    AggSpec::new(AggFunc::Max, "m0"),
                    AggSpec::count_star(),
                ],
            );
        let sliced = aggregate.clone().sliced(71, 433);

        for (name, plan) in [
            ("aggregate", &aggregate),
            ("grouping-sets", &grouping_sets),
            ("sliced", &sliced),
        ] {
            let phys = plan.lower().unwrap();
            let cold_oneshot = phys.execute(&oneshot).unwrap();
            let cold_live = phys.execute(&live).unwrap();
            if let Err(msg) = outputs_bitwise_eq(&cold_oneshot, &cold_live) {
                return Err(TestCaseError::fail(format!(
                    "[{name}] one-shot vs appended: {msg}"
                )));
            }

            // Incremental refresh from every intermediate version: the
            // state cached at version v plus one delta scan merges to
            // the bit-exact cold answer at the final version — even
            // when the delta spans several appends (lineage lookup).
            for snapshot in &versions {
                let (lo, hi) = live
                    .append_delta_since(snapshot.version())
                    .expect("pure-append lineage");
                prop_assert_eq!(lo, snapshot.num_rows());
                let mut cached = phys
                    .execute_partial(snapshot, (0, snapshot.num_rows()))
                    .unwrap();
                let delta = phys.execute_partial(&live, (lo, hi)).unwrap();
                cached.merge(delta, &live).unwrap();
                let refreshed = cached.finalize(&live).unwrap();
                if let Err(msg) = outputs_bitwise_eq(&cold_live, &refreshed) {
                    return Err(TestCaseError::fail(format!(
                        "[{name}] refresh from v{} ({} of {} rows old): {msg}",
                        snapshot.version(),
                        snapshot.num_rows(),
                        rows
                    )));
                }
            }
        }
    }

    /// Durability round trip: `open(save(db))` is **bit-identical** for
    /// every plan shape — aggregate with per-aggregate predicates,
    /// multi-set grouping sets, row slices — on tables built through
    /// random append histories (so the store must reproduce segment
    /// chunking, shared dictionaries, versions, and lineage exactly).
    /// A partial-aggregate state cached at an intermediate version
    /// must also refresh onto the *reopened* table to the bit-exact
    /// cold answer: the incremental-maintenance contract survives the
    /// restart.
    #[test]
    fn save_open_roundtrip_is_bit_identical_for_every_plan_shape(
        seed in 0u64..10_000,
        dims in 2usize..5,
        card in 2usize..10,
        measures in 1usize..3,
        appends in 0usize..4,
    ) {
        let rows = 300;
        let (db, analyst) = build_db(rows, dims, card, measures, seed);
        let snapshot = db.table(&analyst.table).unwrap();
        for k in 0..appends {
            let chunk_rows = 10 + (seed as usize + k) % 30;
            let t = seedb::data::SyntheticSpec::knobs(
                chunk_rows, dims, card, 1.0, measures, seed ^ (k as u64 + 1),
            )
            .generate();
            let chunk: Vec<Vec<Value>> = (0..chunk_rows).map(|i| t.row(i)).collect();
            db.append_rows(&analyst.table, chunk).unwrap();
        }
        let live = db.table(&analyst.table).unwrap();

        let dir = std::env::temp_dir().join(format!(
            "seedb-roundtrip-prop-{}-{seed}-{dims}-{card}-{measures}-{appends}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        db.save(&dir).unwrap();
        let reopened = Database::open(&dir).unwrap();
        let loaded = reopened.table(&analyst.table).unwrap();

        // Structure reproduces exactly: rows, version stamps, lineage,
        // segment boundaries, dictionary codes.
        prop_assert_eq!(loaded.num_rows(), live.num_rows());
        prop_assert_eq!(loaded.version(), live.version());
        prop_assert_eq!(loaded.lineage(), live.lineage());
        prop_assert_eq!(loaded.num_segments(), live.num_segments());
        prop_assert_eq!(reopened.version(), db.version());
        for d in 0..dims {
            let (a, b) = (
                live.column(&format!("d{d}")).unwrap(),
                loaded.column(&format!("d{d}")).unwrap(),
            );
            for i in 0..a.len() {
                prop_assert_eq!(a.code_at(i), b.code_at(i), "dict code at row {}", i);
            }
        }

        let filter = analyst.filter.clone().expect("planted filter");
        let aggregate = LogicalPlan::scan(&analyst.table).aggregate(
            vec!["d1".into()],
            vec![
                AggSpec::new(AggFunc::Sum, "m0")
                    .with_filter(filter.clone())
                    .with_alias("target"),
                AggSpec::new(AggFunc::Sum, "m0").with_alias("comparison"),
                AggSpec::new(AggFunc::Avg, "m0"),
                AggSpec::count_star(),
            ],
        );
        let grouping_sets = LogicalPlan::scan(&analyst.table)
            .filter(Expr::col("d0").eq("v0"))
            .grouping_sets(
                (0..dims).map(|d| vec![format!("d{d}")]).chain([vec![]]).collect(),
                vec![
                    AggSpec::new(AggFunc::Sum, "m0"),
                    AggSpec::new(AggFunc::Min, "m0"),
                    AggSpec::new(AggFunc::Max, "m0"),
                ],
            );
        let sliced = aggregate.clone().sliced(37, 211);

        for (name, plan) in [
            ("aggregate", &aggregate),
            ("grouping-sets", &grouping_sets),
            ("sliced", &sliced),
        ] {
            let phys = plan.lower().unwrap();
            let before = phys.execute(&live).unwrap();
            let after = phys.execute(&loaded).unwrap();
            if let Err(msg) = outputs_bitwise_eq(&before, &after) {
                return Err(TestCaseError::fail(format!(
                    "[{name}] reopened vs live: {msg}"
                )));
            }

            // Incremental refresh across the restart: a state cached at
            // the pre-append snapshot merges with a delta scanned from
            // the REOPENED table to the bit-exact cold answer.
            if let Some((lo, hi)) = loaded.append_delta_since(snapshot.version()) {
                prop_assert_eq!(lo, snapshot.num_rows());
                let mut cached = phys
                    .execute_partial(&snapshot, (0, snapshot.num_rows()))
                    .unwrap();
                let delta = phys.execute_partial(&loaded, (lo, hi)).unwrap();
                cached.merge(delta, &loaded).unwrap();
                let refreshed = cached.finalize(&loaded).unwrap();
                if let Err(msg) = outputs_bitwise_eq(&after, &refreshed) {
                    return Err(TestCaseError::fail(format!(
                        "[{name}] refresh across restart: {msg}"
                    )));
                }
            } else {
                return Err(TestCaseError::fail(
                    "lineage lost across restart".to_string(),
                ));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The multi-group-by roll-up mode re-associates float additions, so
    /// it is equivalent to 1e-9 rather than bit-exact.
    #[test]
    fn multigroupby_rollup_matches_within_tolerance(
        seed in 0u64..10_000,
        dims in 2usize..4,
        card in 2usize..6,
    ) {
        let (db, analyst) = build_db(300, dims, card, 1, seed);
        let baseline = run_views(&db, &analyst, &OptimizerConfig::basic());

        let mut cfg = OptimizerConfig::basic();
        cfg.combine_target_comparison = true;
        cfg.combine_aggregates = true;
        cfg.group_by_combining = GroupByCombining::MultiGroupBy;
        cfg.memory_budget_groups = 1_000_000;
        let rolled = run_views(&db, &analyst, &cfg);

        prop_assert_eq!(rolled.len(), baseline.len());
        for (a, b) in baseline.iter().zip(&rolled) {
            prop_assert_eq!(&a.spec, &b.spec);
            prop_assert!(
                (a.utility - b.utility).abs() < 1e-9,
                "{}: {} vs {}",
                a.spec,
                a.utility,
                b.utility
            );
        }
    }
}
