//! **Extension**: phased execution with confidence-interval pruning,
//! optionally partition-parallel.
//!
//! The demo paper's challenge (d) reads: "Since analysis must happen in
//! real-time, we must trade-off accuracy of visualizations or estimation
//! of 'interestingness' for reduced latency." Beyond sampling (§3.3),
//! the companion vision paper and the authors' follow-up work realize
//! this as *phase-wise execution*: partition the table into `P` slices,
//! update every surviving view's running utility estimate after each
//! slice, and discard views whose utility confidence interval falls
//! entirely below the current top-k's — so hopeless views stop consuming
//! work early, while surviving views end with *exact* utilities over the
//! full table.
//!
//! The confidence interval is Hoeffding-style: after seeing `n` target
//! rows, the deviation of an empirical distribution (and hence of any of
//! our Lipschitz-in-TV metrics) is bounded with probability `1 − δ` by
//! `ε(n) = sqrt((K + ln(2/δ)) / (2n))` where `K` is the number of
//! groups the view can take **over the full table** (its dimension's
//! distinct count from column statistics — using only the groups seen
//! so far would under-widen early-phase intervals and prune views whose
//! groups arrive late). This is a practical bound, not a per-metric
//! minimax result — see DESIGN.md.
//!
//! # Parallelism × early termination
//!
//! Each phase executes one shared grouping-sets plan over its row
//! slice. With [`PhasedConfig::workers`] > 1 the slice itself is split
//! into contiguous partitions executed on `std::thread::scope` workers
//! via [`memdb::run_partitioned`], and the per-partition
//! [`memdb::PartialAggState`]s merge in deterministic partition order.
//! The per-view accumulators below then fold the *unfinalized*
//! [`memdb::AggState`]s straight out of the partial state — the same
//! merge machinery the partitioned executor uses — so worker count
//! never changes a single bit of the outcome: utilities, pruning
//! decisions, and phase counts are identical for any `workers`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use memdb::{
    run_partitioned, AggFunc, AggSpec, AggState, ColumnStats, DbError, DbResult, LogicalPlan, Table,
};
use seedb_obs::Span;

use crate::distance::Metric;
use crate::distribution::{AlignedPair, Distribution};
use crate::processor::ViewResult;
use crate::querygen::AnalystQuery;
use crate::view::ViewSpec;

/// Configuration for phased execution.
#[derive(Debug, Clone)]
pub struct PhasedConfig {
    /// Number of table slices to process (≥ 1).
    pub phases: usize,
    /// Views to return. `0` disables pruning entirely (nothing can be
    /// in a top-0, so no view is ever hopeless).
    pub k: usize,
    /// Confidence parameter δ: pruning is wrong for a view with
    /// probability at most δ (per view, per phase, under the bound's
    /// assumptions).
    pub delta: f64,
    /// Never prune before this many phases have completed.
    pub min_phases: usize,
    /// Distance metric.
    pub metric: Metric,
    /// Row-partition workers per phase slice (≥ 1). Results are
    /// byte-identical for every value; see the module docs.
    pub workers: usize,
}

impl Default for PhasedConfig {
    fn default() -> Self {
        PhasedConfig {
            phases: 10,
            k: 5,
            delta: 0.05,
            min_phases: 2,
            metric: Metric::EarthMovers,
            workers: 1,
        }
    }
}

/// A view eliminated before the final phase.
#[derive(Debug, Clone)]
pub struct EarlyPrune {
    /// The view.
    pub spec: ViewSpec,
    /// Phase (1-based) after which it was discarded.
    pub at_phase: usize,
    /// Its utility estimate at that point.
    pub estimate: f64,
}

/// Outcome of a phased run.
#[derive(Debug)]
pub struct PhasedOutcome {
    /// Top-k views by (exact, full-table) utility among survivors.
    pub views: Vec<ViewResult>,
    /// All surviving views, scored exactly.
    pub survivors: Vec<ViewResult>,
    /// Views discarded early, with the phase and estimate.
    pub pruned: Vec<EarlyPrune>,
    /// Surviving view count after each phase (index 0 = after phase 1),
    /// recorded *after* that phase's pruning step — entry `p` already
    /// excludes views discarded at `at_phase == p + 1`.
    pub survivors_per_phase: Vec<usize>,
    /// Σ over phases of (views still evaluated that phase) — the work
    /// measure that early termination reduces. Without pruning this is
    /// `phases × num_views`.
    pub view_phases: u64,
    /// Shared-scan plans executed (one per non-empty phase).
    pub plans_executed: usize,
    /// Wall time.
    pub elapsed: Duration,
}

impl PhasedOutcome {
    /// Fraction of view-phase work saved vs. no pruning.
    pub fn work_saved(&self, num_views: usize, phases: usize) -> f64 {
        let full = (num_views * phases) as f64;
        if full == 0.0 {
            0.0
        } else {
            1.0 - self.view_phases as f64 / full
        }
    }
}

/// Per-(view, side) accumulator: one mergeable [`AggState`] per group
/// label, folded phase-by-phase from the partial aggregate states the
/// partitioned executor produces. This *is* the executor's merge
/// machinery — `AggState::merge` is associative and exact, so the
/// fold order (phases, partitions, workers) never shows in the result.
#[derive(Debug, Default, Clone)]
struct SideAcc {
    groups: HashMap<String, AggState>,
}

impl SideAcc {
    fn absorb(&mut self, label: &str, state: &AggState) {
        match self.groups.get_mut(label) {
            Some(acc) => acc.merge(state),
            None => {
                let mut acc = AggState::EMPTY;
                acc.merge(state);
                self.groups.insert(label.to_string(), acc);
            }
        }
    }

    fn distribution(&self, func: AggFunc) -> Distribution {
        let pairs = self
            .groups
            .iter()
            .map(|(label, state)| (label.clone(), state.finalize(func).as_f64()))
            .collect();
        Distribution::from_pairs(pairs)
    }

    fn total_count(&self) -> f64 {
        self.groups.values().map(|s| s.count() as f64).sum()
    }
}

/// Hoeffding-style half-width of the utility confidence interval after
/// observing `n` rows on the weaker (target) side of a `k_groups`-group
/// view.
pub fn confidence_halfwidth(n: f64, k_groups: usize, delta: f64) -> f64 {
    if n <= 0.0 {
        return f64::INFINITY;
    }
    ((k_groups as f64 + (2.0 / delta).ln()) / (2.0 * n)).sqrt()
}

/// Run phased execution for `views` over the analyst's table.
///
/// Semantics: the table is split into `config.phases` contiguous slices;
/// every view still alive is updated from each slice via one shared
/// grouping-sets plan per slice (a row-sliced [`LogicalPlan`] lowered
/// onto the same shared-scan operator the optimizer's rewrites use,
/// executed across [`PhasedConfig::workers`] row partitions). After
/// each slice (past `min_phases`), views whose utility upper bound
/// falls below the k-th best lower bound are discarded. Survivors end
/// with exact full-table utilities — identical to what
/// [`crate::engine::SeeDb::recommend`] computes.
///
/// # Errors
/// Unknown columns or type errors from the underlying scans.
pub fn run_phased(
    table: &Arc<Table>,
    analyst: &AnalystQuery,
    views: &[ViewSpec],
    config: &PhasedConfig,
) -> DbResult<PhasedOutcome> {
    // Full-table group count per dimension, for the confidence bound's
    // `K`. Using the groups *seen so far* instead would shrink the
    // early-phase interval and over-eagerly prune views whose groups
    // (and deviation) only appear in later slices. The counts are only
    // consulted by the pruning block, so when pruning can never fire
    // (`k == 0`, or no phase satisfies `min_phases <= p < phases`) the
    // stats pass is skipped entirely. Callers that already hold column
    // statistics (the engine's Phase-1 metadata) should use
    // [`run_phased_with_group_counts`] instead of paying this rescan.
    let pruning_possible = config.k > 0 && config.min_phases < config.phases.max(1);
    let mut dim_group_counts: HashMap<String, usize> = HashMap::new();
    if pruning_possible {
        for v in views {
            if !dim_group_counts.contains_key(&v.dimension) {
                let stats = ColumnStats::collect(&v.dimension, table.column(&v.dimension)?);
                dim_group_counts.insert(v.dimension.clone(), stats.group_count());
            }
        }
    }
    run_phased_with_group_counts(table, analyst, views, config, &dim_group_counts)
}

/// [`run_phased`] with precomputed full-table group counts per
/// dimension (`distinct + 1` if the column has nulls) — the engine
/// passes counts derived from its Phase-1 [`crate::metadata::Metadata`]
/// so the table is not rescanned. Dimensions missing from the map fall
/// back to the groups seen so far (never narrower than observed).
///
/// # Errors
/// Unknown columns or type errors from the underlying scans.
pub fn run_phased_with_group_counts(
    table: &Arc<Table>,
    analyst: &AnalystQuery,
    views: &[ViewSpec],
    config: &PhasedConfig,
    dim_group_counts: &HashMap<String, usize>,
) -> DbResult<PhasedOutcome> {
    let start = Instant::now();
    let phases = config.phases.max(1);
    let workers = config.workers.max(1);
    let n_rows = table.num_rows();
    if analyst.table != table.name() {
        return Err(DbError::Internal(format!(
            "analyst query targets {} but table is {}",
            analyst.table,
            table.name()
        )));
    }

    // Alive set + accumulators.
    let mut alive: Vec<bool> = vec![true; views.len()];
    let mut target_acc: Vec<SideAcc> = vec![SideAcc::default(); views.len()];
    let mut comp_acc: Vec<SideAcc> = vec![SideAcc::default(); views.len()];
    let mut pruned: Vec<EarlyPrune> = Vec::new();
    let mut survivors_per_phase = Vec::with_capacity(phases);
    let mut view_phases: u64 = 0;
    let mut plans_executed = 0usize;

    for phase in 0..phases {
        let lo = n_rows * phase / phases;
        let hi = n_rows * (phase + 1) / phases;
        if lo == hi {
            survivors_per_phase.push(alive.iter().filter(|a| **a).count());
            continue;
        }

        // Group alive views by dimension; plan one shared scan.
        let mut dims: Vec<&str> = Vec::new();
        for (i, v) in views.iter().enumerate() {
            if alive[i] && !dims.contains(&v.dimension.as_str()) {
                dims.push(&v.dimension);
            }
        }
        if dims.is_empty() {
            break;
        }
        let sets: Vec<Vec<String>> = dims.iter().map(|d| vec![d.to_string()]).collect();

        // Component aggregates: one per (measure, side) needed by an
        // alive view — a single mergeable AggState carries sum, count,
        // min, and max simultaneously, so no per-function fan-out is
        // needed. Deduplicated; the target side carries the analyst
        // filter as a per-aggregate predicate.
        #[derive(PartialEq, Eq, Hash, Clone)]
        struct CompKey {
            measure: Option<String>,
            target: bool,
        }
        let mut comp_index: HashMap<CompKey, usize> = HashMap::new(); // -> agg idx
        let mut aggs: Vec<AggSpec> = Vec::new();
        for (i, v) in views.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            for target in [true, false] {
                let key = CompKey {
                    measure: v.measure.clone(),
                    target,
                };
                if comp_index.contains_key(&key) {
                    continue;
                }
                let predicate = if target { analyst.filter.clone() } else { None };
                let prefix = if target { "t" } else { "c" };
                let mut spec = match &v.measure {
                    Some(m) => {
                        AggSpec::new(AggFunc::Sum, m).with_alias(&format!("ph_{prefix}_{m}"))
                    }
                    None => AggSpec::count_star().with_alias(&format!("ph_{prefix}_count_star")),
                };
                if let Some(f) = &predicate {
                    spec = spec.with_filter(f.clone());
                }
                comp_index.insert(key, aggs.len());
                aggs.push(spec);
            }
        }

        // One row-sliced shared-scan plan per phase, through the same
        // lowering path the engine's optimizer output takes, executed
        // across row partitions and merged — unfinalized — in
        // deterministic partition order.
        let plan = LogicalPlan::scan(table.name())
            .grouping_sets(sets, aggs)
            .sliced(lo, hi);
        let partial = run_partitioned(table, &plan.lower()?, workers, None, &Span::none())?;
        plans_executed += 1;

        // Per-set group labels, materialized once.
        let set_labels: Vec<Vec<String>> = (0..partial.num_sets())
            .map(|s| {
                (0..partial.num_groups(s))
                    .map(|g| partial.group_label(s, g, table)[0].render())
                    .collect()
            })
            .collect();

        // Fold the phase's partial aggregate states into the per-view
        // accumulators via the executor's own merge machinery.
        for (i, v) in views.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            view_phases += 1;
            let set_idx = dims
                .iter()
                .position(|d| *d == v.dimension)
                .expect("alive view's dimension is planned");
            for (target, acc) in [(true, &mut target_acc[i]), (false, &mut comp_acc[i])] {
                let agg_idx = comp_index[&CompKey {
                    measure: v.measure.clone(),
                    target,
                }];
                for (g, label) in set_labels[set_idx].iter().enumerate() {
                    acc.absorb(label, &partial.group_states(set_idx, g)[agg_idx]);
                }
            }
        }

        // Confidence-interval pruning. `k == 0` keeps everything: no
        // view can be hopeless relative to an empty top-k (and the k-th
        // lower bound would not exist).
        if config.k > 0 && phase + 1 >= config.min_phases && phase + 1 < phases {
            // (view, estimate, lower, upper)
            let mut bounds: Vec<(usize, f64, f64, f64)> = Vec::new();
            for (i, v) in views.iter().enumerate() {
                if !alive[i] {
                    continue;
                }
                let t = target_acc[i].distribution(v.func);
                let c = comp_acc[i].distribution(v.func);
                let aligned = AlignedPair::align(&t, &c);
                let estimate = config.metric.distance(&aligned);
                let n_t = target_acc[i].total_count();
                let k_groups = dim_group_counts
                    .get(&v.dimension)
                    .copied()
                    .unwrap_or(0)
                    .max(aligned.len())
                    .max(1);
                let eps = confidence_halfwidth(n_t, k_groups, config.delta);
                bounds.push((i, estimate, estimate - eps, estimate + eps));
            }
            if bounds.len() > config.k {
                let mut lowers: Vec<f64> = bounds.iter().map(|(_, _, l, _)| *l).collect();
                lowers.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
                let kth_lower = lowers[config.k - 1];
                for (i, estimate, _, upper) in bounds {
                    if upper < kth_lower {
                        alive[i] = false;
                        pruned.push(EarlyPrune {
                            spec: views[i].clone(),
                            at_phase: phase + 1,
                            estimate,
                        });
                    }
                }
            }
        }

        // Recorded after pruning so entry `p` reflects the survivor set
        // the *next* phase will actually evaluate.
        survivors_per_phase.push(alive.iter().filter(|a| **a).count());
    }

    // Finalize survivors with exact full-table utilities.
    let mut survivors: Vec<ViewResult> = Vec::new();
    for (i, v) in views.iter().enumerate() {
        if !alive[i] {
            continue;
        }
        let target = target_acc[i].distribution(v.func);
        let comparison = comp_acc[i].distribution(v.func);
        let aligned = AlignedPair::align(&target, &comparison);
        let utility = config.metric.distance(&aligned);
        survivors.push(ViewResult {
            spec: v.clone(),
            utility,
            target,
            comparison,
            aligned,
        });
    }
    let views_out = crate::processor::top_k(survivors.clone(), config.k);

    Ok(PhasedOutcome {
        views: views_out,
        survivors,
        pruned,
        survivors_per_phase,
        view_phases,
        plans_executed,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SeeDbConfig;
    use crate::engine::SeeDb;
    use crate::pruning::PruningConfig;
    use crate::view::{enumerate_views, FunctionSet};
    use memdb::{ColumnDef, DataType, Database, Expr, Schema, Value};

    /// Table with one strongly deviating dimension (d1) and several
    /// boring ones.
    fn demo(rows: usize) -> (Arc<Database>, AnalystQuery) {
        let mut cols = vec![ColumnDef::dimension("d0", DataType::Str)];
        for i in 1..6 {
            cols.push(ColumnDef::dimension(&format!("d{i}"), DataType::Str));
        }
        cols.push(ColumnDef::measure("m", DataType::Float64));
        let schema = Schema::new(cols).unwrap();
        let mut t = memdb::Table::new("t", schema);
        for r in 0..rows {
            let subset = r % 5 == 0;
            let mut row: Vec<Value> = vec![Value::from(if subset { "in" } else { "out" })];
            // d1 deviates inside the subset (concentrated on v0);
            // d2..d5 are independent of the subset.
            row.push(Value::from(if subset && r % 10 != 5 {
                "v0".to_string()
            } else {
                format!("v{}", r % 3)
            }));
            for i in 2..6 {
                row.push(Value::from(format!("v{}", (r / i) % 4)));
            }
            row.push(Value::Float((r % 11) as f64));
            t.push_row(row).unwrap();
        }
        let db = Arc::new(Database::new());
        db.register(t);
        (db, AnalystQuery::new("t", Some(Expr::col("d0").eq("in"))))
    }

    fn candidate_views(db: &Database) -> Vec<ViewSpec> {
        let t = db.table("t").unwrap();
        enumerate_views(t.schema(), &FunctionSet::standard())
            .into_iter()
            .filter(|v| v.dimension != "d0")
            .collect()
    }

    fn cfg(phases: usize, k: usize, min_phases: usize) -> PhasedConfig {
        PhasedConfig {
            phases,
            k,
            delta: 0.05,
            min_phases,
            metric: Metric::EarthMovers,
            workers: 1,
        }
    }

    #[test]
    fn phased_matches_exact_when_pruning_disabled() {
        let (db, analyst) = demo(5_000);
        let views = candidate_views(&db);
        let table = db.table("t").unwrap();

        let cfg = cfg(7, views.len(), 7); // pruning can never fire
        let phased = run_phased(&table, &analyst, &views, &cfg).unwrap();
        assert!(phased.pruned.is_empty());
        assert_eq!(phased.plans_executed, 7);

        let mut exact_cfg = SeeDbConfig::recommended().with_k(views.len());
        exact_cfg.pruning = PruningConfig::disabled();
        exact_cfg.exclude_filter_attributes = true;
        let exact = SeeDb::new(db, exact_cfg).recommend(&analyst).unwrap();

        let exact_by_label: HashMap<String, f64> = exact
            .all
            .iter()
            .map(|v| (v.spec.label(), v.utility))
            .collect();
        assert_eq!(phased.survivors.len(), views.len());
        for s in &phased.survivors {
            let e = exact_by_label
                .get(&s.spec.label())
                .unwrap_or_else(|| panic!("missing {}", s.spec));
            assert!(
                (s.utility - e).abs() < 1e-9,
                "{}: phased {} vs exact {}",
                s.spec,
                s.utility,
                e
            );
        }
    }

    #[test]
    fn phased_prunes_boring_views_and_keeps_the_winner() {
        let (db, analyst) = demo(40_000);
        let views = candidate_views(&db);
        let table = db.table("t").unwrap();
        let cfg = cfg(10, 2, 2);
        let out = run_phased(&table, &analyst, &views, &cfg).unwrap();
        assert!(
            !out.pruned.is_empty(),
            "boring views should be pruned early"
        );
        // The deviating dimension survives to the end and tops the list.
        assert_eq!(out.views[0].spec.dimension, "d1");
        // Work saved vs full evaluation.
        let saved = out.work_saved(views.len(), cfg.phases);
        assert!(saved > 0.2, "saved only {saved:.2}");
        // Survivor count is non-increasing.
        assert!(out.survivors_per_phase.windows(2).all(|w| w[0] >= w[1]));
    }

    /// Regression (survivor accounting): `survivors_per_phase[p]` must
    /// already exclude views pruned at `at_phase == p + 1` — the count
    /// is recorded *after* that phase's pruning step.
    #[test]
    fn survivors_per_phase_reflects_that_phases_pruning() {
        let (db, analyst) = demo(40_000);
        let views = candidate_views(&db);
        let table = db.table("t").unwrap();
        let out = run_phased(&table, &analyst, &views, &cfg(10, 2, 2)).unwrap();
        assert!(!out.pruned.is_empty());
        let first_prune_phase = out.pruned.iter().map(|p| p.at_phase).min().unwrap();
        let pruned_then = out
            .pruned
            .iter()
            .filter(|p| p.at_phase == first_prune_phase)
            .count();
        // Pin the first post-prune entry: it must drop by exactly the
        // number of views discarded at that phase (pre-fix code pushed
        // the count before pruning, so the entry still said `len()`).
        assert_eq!(
            out.survivors_per_phase[first_prune_phase - 1],
            views.len() - pruned_then,
            "survivors_per_phase = {:?}, pruned at {:?}",
            out.survivors_per_phase,
            out.pruned
                .iter()
                .map(|p| (p.spec.label(), p.at_phase))
                .collect::<Vec<_>>()
        );
        // And every entry agrees with the cumulative prune log.
        for (p, &count) in out.survivors_per_phase.iter().enumerate() {
            let pruned_by_then = out.pruned.iter().filter(|e| e.at_phase <= p + 1).count();
            assert_eq!(count, views.len() - pruned_by_then, "phase {}", p + 1);
        }
    }

    /// Regression (k = 0): used to panic with an index underflow at
    /// `lowers[config.k - 1]`; now it means "prune nothing".
    #[test]
    fn k_zero_prunes_nothing_and_does_not_panic() {
        let (db, analyst) = demo(3_000);
        let views = candidate_views(&db);
        let table = db.table("t").unwrap();
        let out = run_phased(&table, &analyst, &views, &cfg(6, 0, 1)).unwrap();
        assert!(out.pruned.is_empty());
        assert_eq!(out.survivors.len(), views.len());
        assert!(out.views.is_empty(), "top-0 is empty");
    }

    /// Regression (confidence width): the bound's `K` is the dimension's
    /// full-table group count, not the groups seen so far. A view whose
    /// groups (and deviation) only appear in late slices must keep a
    /// wide enough interval to survive the early phases.
    #[test]
    fn late_arriving_groups_are_not_over_eagerly_pruned() {
        // 4 000 rows, every other row in the subset. `d_mild` deviates
        // mildly throughout (estimate ≈ 0.1). `d_late` is constant
        // ("g0") for the first 80% of rows — estimate 0, 1 group seen —
        // but its full-table distinct count is 9, and in the last 20%
        // its subset rows spread over h1..h8 while non-subset rows stay
        // g0: a genuinely deviating view whose signal arrives late.
        let rows = 4_000;
        let schema = Schema::new(vec![
            ColumnDef::dimension("d0", DataType::Str),
            ColumnDef::dimension("d_mild", DataType::Str),
            ColumnDef::dimension("d_late", DataType::Str),
        ])
        .unwrap();
        let mut t = memdb::Table::new("t", schema);
        for r in 0..rows {
            let subset = r % 2 == 0;
            // Mild skew: subset is 60/40 over {A, B}, complement 40/60.
            let mild = if (r / 2) % 10 < if subset { 6 } else { 4 } {
                "A"
            } else {
                "B"
            };
            let late = if r >= rows * 8 / 10 && subset {
                format!("h{}", 1 + (r / 2) % 8)
            } else {
                "g0".to_string()
            };
            t.push_row(vec![
                Value::from(if subset { "in" } else { "out" }),
                Value::from(mild),
                Value::from(late),
            ])
            .unwrap();
        }
        let db = Arc::new(Database::new());
        db.register(t);
        let table = db.table("t").unwrap();
        let analyst = AnalystQuery::new("t", Some(Expr::col("d0").eq("in")));
        let views = vec![ViewSpec::count("d_mild"), ViewSpec::count("d_late")];

        let out = run_phased(&table, &analyst, &views, &cfg(10, 1, 2)).unwrap();
        assert!(
            !out.pruned.iter().any(|p| p.spec.dimension == "d_late"),
            "d_late pruned at phase {:?} although its groups arrive late",
            out.pruned.iter().map(|p| p.at_phase).collect::<Vec<_>>()
        );
        // Its late deviation makes it the genuine winner.
        assert_eq!(out.views[0].spec.dimension, "d_late");
    }

    /// Worker count is invisible in the outcome: utilities (to the
    /// bit), pruning decisions, and phase counts all match.
    #[test]
    fn parallel_phased_is_bit_identical_to_sequential() {
        let (db, analyst) = demo(30_000);
        let views = candidate_views(&db);
        let table = db.table("t").unwrap();
        let mut sequential_cfg = cfg(8, 2, 2);
        let mut parallel_cfg = sequential_cfg.clone();
        sequential_cfg.workers = 1;
        parallel_cfg.workers = 4;
        let seq = run_phased(&table, &analyst, &views, &sequential_cfg).unwrap();
        let par = run_phased(&table, &analyst, &views, &parallel_cfg).unwrap();

        assert_eq!(seq.survivors_per_phase, par.survivors_per_phase);
        assert_eq!(seq.view_phases, par.view_phases);
        assert_eq!(seq.plans_executed, par.plans_executed);
        assert_eq!(seq.pruned.len(), par.pruned.len());
        for (a, b) in seq.pruned.iter().zip(&par.pruned) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.at_phase, b.at_phase);
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        }
        assert_eq!(seq.survivors.len(), par.survivors.len());
        for (a, b) in seq.survivors.iter().zip(&par.survivors) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.utility.to_bits(), b.utility.to_bits());
        }
        let labels = |o: &PhasedOutcome| {
            o.views
                .iter()
                .map(|v| v.spec.label())
                .collect::<Vec<String>>()
        };
        assert_eq!(labels(&seq), labels(&par));
    }

    #[test]
    fn phased_top_k_matches_exact_top_k() {
        let (db, analyst) = demo(30_000);
        let views = candidate_views(&db);
        let table = db.table("t").unwrap();
        let phased = run_phased(&table, &analyst, &views, &cfg(8, 3, 2)).unwrap();

        let mut exact_cfg = SeeDbConfig::recommended().with_k(3);
        exact_cfg.pruning = PruningConfig::disabled();
        let exact = SeeDb::new(db, exact_cfg).recommend(&analyst).unwrap();

        let p: Vec<String> = phased.views.iter().map(|v| v.spec.label()).collect();
        let e: Vec<String> = exact.views.iter().map(|v| v.spec.label()).collect();
        assert_eq!(p, e, "phased top-k must match exact top-k");
        for (a, b) in phased.views.iter().zip(&exact.views) {
            assert!((a.utility - b.utility).abs() < 1e-9);
        }
    }

    #[test]
    fn confidence_halfwidth_shrinks_with_n() {
        let e1 = confidence_halfwidth(100.0, 10, 0.05);
        let e2 = confidence_halfwidth(10_000.0, 10, 0.05);
        assert!(e1 > e2);
        assert!((e1 / e2 - 10.0).abs() < 1e-9, "sqrt(n) scaling");
        assert_eq!(confidence_halfwidth(0.0, 10, 0.05), f64::INFINITY);
        // Wider for more groups: the full-table count matters.
        assert!(confidence_halfwidth(100.0, 50, 0.05) > confidence_halfwidth(100.0, 2, 0.05));
    }

    #[test]
    fn single_phase_degenerates_to_exact() {
        let (db, analyst) = demo(2_000);
        let views = candidate_views(&db);
        let table = db.table("t").unwrap();
        let out = run_phased(&table, &analyst, &views, &cfg(1, 3, 1)).unwrap();
        assert!(out.pruned.is_empty());
        assert_eq!(out.survivors.len(), views.len());
    }

    #[test]
    fn empty_table_yields_empty_distributions() {
        let schema = Schema::new(vec![
            ColumnDef::dimension("d0", DataType::Str),
            ColumnDef::dimension("d1", DataType::Str),
            ColumnDef::measure("m", DataType::Float64),
        ])
        .unwrap();
        let t = memdb::Table::new("t", schema);
        let db = Arc::new(Database::new());
        db.register(t);
        let table = db.table("t").unwrap();
        let analyst = AnalystQuery::new("t", Some(Expr::col("d0").eq("in")));
        let views = vec![
            ViewSpec::count("d1"),
            ViewSpec::new("d1", "m", AggFunc::Sum),
        ];
        let out = run_phased(&table, &analyst, &views, &cfg(5, 1, 2)).unwrap();
        assert!(out.pruned.is_empty());
        assert_eq!(out.survivors.len(), 2);
        assert!(out.survivors.iter().all(|s| s.utility == 0.0));
        assert_eq!(out.plans_executed, 0, "no rows, no plans");
        assert_eq!(out.survivors_per_phase, vec![2; 5]);
    }

    #[test]
    fn more_phases_than_rows_skips_empty_slices() {
        let (db, analyst) = demo(7);
        let views = candidate_views(&db);
        let table = db.table("t").unwrap();
        let out = run_phased(&table, &analyst, &views, &cfg(50, 3, 2)).unwrap();
        // Only 7 of the 50 slices are non-empty.
        assert_eq!(out.plans_executed, 7);
        assert_eq!(out.survivors_per_phase.len(), 50);
        assert_eq!(out.survivors.len(), views.len());
    }

    /// When every view but the top-k is prunable, the alive set shrinks
    /// to k and the run still finalizes survivors exactly.
    #[test]
    fn aggressive_pruning_down_to_k_still_finalizes() {
        let (db, analyst) = demo(40_000);
        let views = candidate_views(&db);
        let table = db.table("t").unwrap();
        let out = run_phased(&table, &analyst, &views, &cfg(20, 1, 2)).unwrap();
        assert!(!out.survivors.is_empty());
        assert_eq!(out.survivors.len() + out.pruned.len(), views.len());
        assert_eq!(out.views[0].spec.dimension, "d1");
        // Survivors carry exact full-table utilities.
        let mut exact_cfg = SeeDbConfig::recommended().with_k(views.len());
        exact_cfg.pruning = PruningConfig::disabled();
        let exact = SeeDb::new(db, exact_cfg).recommend(&analyst).unwrap();
        let exact_by_label: HashMap<String, f64> = exact
            .all
            .iter()
            .map(|v| (v.spec.label(), v.utility))
            .collect();
        for s in &out.survivors {
            assert!((s.utility - exact_by_label[&s.spec.label()]).abs() < 1e-9);
        }
    }

    #[test]
    fn mismatched_table_rejected() {
        let (db, _) = demo(100);
        let views = candidate_views(&db);
        let table = db.table("t").unwrap();
        let bad = AnalystQuery::new("other", None);
        assert!(run_phased(&table, &bad, &views, &PhasedConfig::default()).is_err());
    }
}
