//! Integration tests: every rule fires on its checked-in
//! known-violation fixture (`tests/fixtures/`), and the real workspace
//! sources are clean. Fixtures are parsed under synthetic in-scope
//! paths because rule scoping keys off the workspace-relative path;
//! the workspace scanner itself skips `fixtures/` directories.

use std::collections::BTreeSet;

use seedb_lint::config::LockOrderConfig;
use seedb_lint::lexer::TokKind;
use seedb_lint::{scan_workspace, Engine, Finding, SourceFile};

const STORE_PATH: &str = "crates/memdb/src/store/fixture.rs";
const SERVICE_PATH: &str = "crates/core/src/service.rs";
const PLAN_PATH: &str = "crates/memdb/src/plan.rs";

fn run_fixture(rel: &str, src: &str) -> Vec<Finding> {
    Engine::default().run(&[SourceFile::parse(rel, src)])
}

#[test]
fn panic_free_io_fires_on_fixture() {
    let findings = run_fixture(STORE_PATH, include_str!("fixtures/panic_free_io.rs"));
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(
        rules.iter().filter(|r| **r == "panic-free-io").count(),
        4,
        "index, expect, unwrap, panic! — got {findings:?}"
    );
    // The `mod tests` block's unwrap/index must not be flagged.
    assert!(findings.iter().all(|f| f.line < 15), "{findings:?}");
}

#[test]
fn lock_order_fires_on_fixture() {
    let findings = run_fixture(SERVICE_PATH, include_str!("fixtures/lock_order.rs"));
    let inversions: Vec<&Finding> = findings.iter().filter(|f| f.rule == "lock-order").collect();
    assert_eq!(inversions.len(), 2, "{findings:?}");
    assert!(
        inversions[0].message.contains("inversion"),
        "{:?}",
        inversions[0]
    );
    assert!(
        inversions[1].message.contains("execute_plans"),
        "{:?}",
        inversions[1]
    );
}

#[test]
fn wallclock_fires_on_fixture() {
    let findings = run_fixture(PLAN_PATH, include_str!("fixtures/wallclock.rs"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "no-wallclock-in-plan");
    assert!(findings[0].message.contains("Instant"));
}

#[test]
fn fsync_before_rename_fires_on_fixture() {
    let findings = run_fixture(STORE_PATH, include_str!("fixtures/fsync_rename.rs"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "fsync-before-rename");
    // Only the unsynced publish is flagged, not `publish_synced`.
    assert_eq!(findings[0].line, 6, "{findings:?}");
}

#[test]
fn metrics_naming_fires_on_fixture() {
    // Scoped workspace-wide, so any path works — use one no other rule
    // watches to keep the assertion exact.
    let findings = run_fixture(
        "crates/obs/src/registry.rs",
        include_str!("fixtures/metrics_naming.rs"),
    );
    let named: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "metrics-naming")
        .collect();
    assert_eq!(named.len(), 3, "{findings:?}");
    assert!(named[0].message.contains("Service.Cache.Hits"));
    assert!(named[1].message.contains("bytes-pending"));
    assert!(named[2].message.contains("recommend latency"));
}

#[test]
fn allow_syntax_fires_on_fixture() {
    let findings = run_fixture(STORE_PATH, include_str!("fixtures/allow_syntax.rs"));
    // The reasonless allow suppresses nothing: its unwrap still fires,
    // plus two allow-syntax findings (reasonless + unknown rule). The
    // well-formed allow silences the final unwrap.
    assert_eq!(
        findings.iter().filter(|f| f.rule == "allow-syntax").count(),
        2,
        "{findings:?}"
    );
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.rule == "panic-free-io")
            .count(),
        1,
        "reasonless allow must not suppress, well-formed must — {findings:?}"
    );
}

#[test]
fn out_of_scope_paths_are_ignored() {
    let findings = run_fixture(
        "crates/viz/src/lib.rs",
        include_str!("fixtures/panic_free_io.rs"),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

fn workspace_files() -> Vec<SourceFile> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    scan_workspace(&root).expect("workspace scan succeeds")
}

#[test]
fn declared_lock_functions_are_defined() {
    // A guard naming a function that no longer exists checks nothing:
    // every `acquire_fns` / `forbid_while_held` name must be a `fn`.
    let files = workspace_files();
    let defined: BTreeSet<&str> = files
        .iter()
        .flat_map(|f| f.tokens.windows(2))
        .filter(|w| w[0].is_ident("fn") && w[1].kind == TokKind::Ident)
        .map(|w| w[1].text.as_str())
        .collect();
    let cfg = LockOrderConfig::default_declared();
    let missing: Vec<&String> = cfg
        .acquire_fns
        .keys()
        .chain(cfg.forbid_while_held.values().flatten())
        .filter(|name| !defined.contains(name.as_str()))
        .collect();
    assert!(
        missing.is_empty(),
        "lock-order.toml names functions no scanned file defines: {missing:?}"
    );
}

#[test]
fn workspace_sources_are_clean() {
    let files = workspace_files();
    assert!(files.len() > 50, "scan found only {} files", files.len());
    let findings = Engine::default().run(&files);
    assert!(
        findings.is_empty(),
        "workspace must be lint-clean: {findings:#?}"
    );
}
