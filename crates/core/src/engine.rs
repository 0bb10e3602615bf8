//! The SeeDB engine: the full backend pipeline of Fig. 4.
//!
//! ```text
//! analyst query Q
//!   └─ Metadata Collector  (stats, correlations, access patterns)
//!       └─ Query Generator (enumerate views, prune unpromising ones)
//!           └─ Optimizer   (combine view queries, sample, parallelize)
//!               └─ DBMS    (memdb executes the planned queries)
//!                   └─ View Processor (normalize, score, top-k)
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use memdb::{
    run_batch, CostSnapshot, Database, DbError, DbResult, LogicalPlan, PlanOutput, Table, Value,
};
use seedb_obs::{Registry, Span};

use crate::config::{ExecutionStrategy, SeeDbConfig};
use crate::metadata::{AccessTracker, MetadataCollector};
use crate::optimizer::plan;
use crate::phased::{run_phased_with_group_counts, EarlyPrune, PhasedConfig};
use crate::processor::{top_k, Processor, ViewResult};
use crate::pruning::{prune, PrunedView};
use crate::querygen::AnalystQuery;
use crate::view::enumerate_views;

/// Wall-clock time spent in each backend phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Metadata collection (stats + correlations).
    pub metadata: Duration,
    /// View enumeration + pruning.
    pub pruning: Duration,
    /// Optimizer planning (including bin packing).
    pub planning: Duration,
    /// Query execution on the DBMS.
    pub execution: Duration,
    /// View processing (normalization, scoring, top-k).
    pub processing: Duration,
}

impl PhaseTimings {
    /// End-to-end backend time.
    pub fn total(&self) -> Duration {
        self.metadata + self.pruning + self.planning + self.execution + self.processing
    }
}

/// A SeeDB recommendation for one analyst query.
#[derive(Debug)]
pub struct Recommendation {
    /// The top-k views, highest utility first.
    pub views: Vec<ViewResult>,
    /// The configured number of *lowest*-utility views (demo contrast);
    /// empty unless `low_utility_views > 0`.
    pub low_utility: Vec<ViewResult>,
    /// Every scored view, in candidate order (for experiments).
    pub all: Vec<ViewResult>,
    /// Views pruned without execution, with reasons.
    pub pruned: Vec<PrunedView>,
    /// Views discarded mid-execution by a phased strategy's
    /// confidence-interval pruning (empty for the batch strategies).
    pub early_pruned: Vec<EarlyPrune>,
    /// Correlation clusters detected during pruning.
    pub clusters: Vec<Vec<String>>,
    /// Candidate views before pruning.
    pub num_candidates: usize,
    /// DBMS queries actually executed.
    pub num_queries: usize,
    /// Per-query execution errors (query index in plan, error). Views
    /// touched by a failed query score against an empty side.
    pub errors: Vec<(usize, DbError)>,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// DBMS cost counters consumed by this recommendation.
    pub cost: CostSnapshot,
}

/// The SeeDB system: wraps a [`Database`] and answers
/// "given this query, which visualizations are interesting?".
#[derive(Debug)]
pub struct SeeDb {
    db: Arc<Database>,
    collector: MetadataCollector,
    config: SeeDbConfig,
}

impl SeeDb {
    /// Wrap `db` with the given configuration.
    pub fn new(db: Arc<Database>, config: SeeDbConfig) -> Self {
        SeeDb {
            db,
            collector: MetadataCollector::new(),
            config,
        }
    }

    /// This engine, counting its metadata outcomes in `registry`
    /// (`service.metadata.*`).
    pub(crate) fn with_metadata_counters(mut self, registry: &Registry) -> Self {
        self.collector = MetadataCollector::counted(registry);
        self
    }

    /// Wrap `db` with [`SeeDbConfig::recommended`].
    pub fn with_defaults(db: Arc<Database>) -> Self {
        SeeDb::new(db, SeeDbConfig::recommended())
    }

    /// The wrapped database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Current configuration.
    pub fn config(&self) -> &SeeDbConfig {
        &self.config
    }

    /// Mutable configuration (adjust knobs between queries).
    pub fn config_mut(&mut self) -> &mut SeeDbConfig {
        &mut self.config
    }

    /// The workload access tracker feeding access-frequency pruning.
    pub fn tracker(&self) -> &AccessTracker {
        self.collector.tracker()
    }

    /// Append rows to a registered table (live ingest): publishes a new
    /// table version that shares all existing segments with the old one
    /// ([`Database::append_rows`]). Recommendations already in flight
    /// keep their snapshot; the next [`SeeDb::recommend`] sees the
    /// appended rows. (The serving layer's [`crate::Service`] wraps
    /// this with incremental cache maintenance.)
    ///
    /// # Errors
    /// Same as [`Database::append_rows`].
    pub fn append_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> DbResult<Arc<Table>> {
        self.db.append_rows(table, rows)
    }

    /// Recommend views for an analyst query given as SQL
    /// (`SELECT * FROM t WHERE ...`).
    ///
    /// # Errors
    /// Parse errors and unknown-table errors; per-view query failures are
    /// reported in [`Recommendation::errors`] instead.
    pub fn recommend_sql(&self, sql: &str) -> DbResult<Recommendation> {
        let analyst = AnalystQuery::from_sql(sql)?;
        self.recommend(&analyst)
    }

    /// Recommend views for an analyst query.
    ///
    /// # Errors
    /// `UnknownTable` if the query's table is not registered.
    /// Individual view-query failures are captured in
    /// [`Recommendation::errors`].
    pub fn recommend(&self, analyst: &AnalystQuery) -> DbResult<Recommendation> {
        self.recommend_via(analyst, &Span::none(), |plans, _span| {
            run_batch(&self.db, plans, self.config.execution.workers()).outputs
        })
    }

    /// [`SeeDb::recommend`] with a pluggable plan executor — the hook the
    /// serving layer ([`crate::service::Service`]) uses to route the
    /// batch strategies' planned queries through its shared
    /// partial-aggregate cache. `execute` receives the planned
    /// [`LogicalPlan`]s and must return one outcome per plan, in input
    /// order, byte-identical to what [`memdb::run_batch`] would produce.
    /// The phased strategies execute against the table directly and
    /// never call `execute`. Each pipeline phase records a child of
    /// `span` (pass [`Span::none`] when not tracing); `execute` receives
    /// the `execute` phase's span to hang scan spans under.
    pub(crate) fn recommend_via<F>(
        &self,
        analyst: &AnalystQuery,
        span: &Span,
        execute: F,
    ) -> DbResult<Recommendation>
    where
        F: FnOnce(&[LogicalPlan], &Span) -> Vec<DbResult<PlanOutput>>,
    {
        let table = self.db.table(&analyst.table)?;
        let cost_before = self.db.cost();
        let mut timings = PhaseTimings::default();

        // Record this analyst query in the workload log (it arrives
        // before metadata collection so it is visible to pruning of
        // *later* queries; the paper's access patterns accumulate over
        // the analysis session).
        self.collector
            .tracker()
            .record(&analyst.table, analyst.referenced_columns());

        // Phase 1: metadata.
        let t0 = Instant::now();
        let metadata_span = span.child("metadata");
        let need_corr = self.config.compute_correlations && self.config.pruning.correlation;
        let (metadata, outcome) = self.collector.collect_outcome(&table, need_corr);
        metadata_span.attr("outcome", outcome.name());
        metadata_span.attr("delta_rows", outcome.delta_rows());
        drop(metadata_span);
        timings.metadata = t0.elapsed();

        // Phase 2: enumerate + prune.
        let t0 = Instant::now();
        let prune_span = span.child("prune");
        let candidates = enumerate_views(table.schema(), &self.config.functions);
        let num_candidates = candidates.len();
        // Dimensions the analyst filtered on convey nothing beyond the
        // query itself; drop their views first when configured.
        let (candidates, filter_pruned) = if self.config.exclude_filter_attributes {
            let filter_cols = analyst.referenced_columns();
            let (dropped, kept): (Vec<_>, Vec<_>) = candidates
                .into_iter()
                .partition(|v| filter_cols.contains(&v.dimension));
            (
                kept,
                dropped
                    .into_iter()
                    .map(|spec| PrunedView {
                        spec,
                        reason: crate::pruning::PruneReason::FilterAttribute,
                    })
                    .collect(),
            )
        } else {
            (candidates, Vec::new())
        };
        let mut outcome = prune(candidates, &metadata, &self.config.pruning);
        outcome.pruned.extend(filter_pruned);
        prune_span.attr("candidates", num_candidates);
        prune_span.attr("kept", outcome.kept.len());
        drop(prune_span);
        timings.pruning = t0.elapsed();

        // Phases 3–5 depend on the execution strategy: the batch
        // strategies plan shared-scan queries and stream their outputs
        // through the view processor; the phased strategies hand the
        // surviving views to the phase-sliced executor, which prunes
        // hopeless views mid-flight via confidence intervals.
        let phased_params = match self.config.execution {
            ExecutionStrategy::Phased {
                phases,
                delta,
                min_phases,
            } => Some((phases, delta, min_phases, 1)),
            ExecutionStrategy::PhasedParallel {
                phases,
                delta,
                min_phases,
                workers,
            } => Some((phases, delta, min_phases, workers)),
            ExecutionStrategy::Sequential | ExecutionStrategy::Parallel { .. } => None,
        };
        if let Some((phases, delta, min_phases, workers)) = phased_params {
            let phased_cfg = PhasedConfig {
                phases,
                k: self.config.k,
                delta,
                min_phases,
                metric: self.config.metric,
                workers,
            };
            // The confidence bound's per-dimension group counts come
            // from the Phase-1 metadata — no table rescan.
            let mut dim_groups = std::collections::HashMap::new();
            for v in &outcome.kept {
                if !dim_groups.contains_key(&v.dimension) {
                    if let Ok(stats) = metadata.stats.column(&v.dimension) {
                        dim_groups.insert(v.dimension.clone(), stats.group_count());
                    }
                }
            }
            let t0 = Instant::now();
            let phased_span = span.child("phased_execute");
            let phased = run_phased_with_group_counts(
                &table,
                analyst,
                &outcome.kept,
                &phased_cfg,
                &dim_groups,
            )?;
            phased_span.attr("plans", phased.plans_executed);
            drop(phased_span);
            timings.execution = t0.elapsed();
            let t0 = Instant::now();
            let low_utility = low_utility_views(&phased.survivors, self.config.low_utility_views);
            timings.processing = t0.elapsed();
            return Ok(Recommendation {
                views: phased.views,
                low_utility,
                all: phased.survivors,
                pruned: outcome.pruned,
                early_pruned: phased.pruned,
                clusters: outcome.clusters,
                num_candidates,
                num_queries: phased.plans_executed,
                errors: Vec::new(),
                timings,
                cost: self.db.cost().since(&cost_before),
            });
        }

        // Phase 3: plan.
        let t0 = Instant::now();
        let optimize_span = span.child("optimize");
        let exec_plan = plan(&outcome.kept, analyst, &metadata, &self.config.optimizer);
        optimize_span.attr("queries", exec_plan.num_queries());
        drop(optimize_span);
        timings.planning = t0.elapsed();

        // Phase 4: execute.
        let t0 = Instant::now();
        let execute_span = span.child("execute");
        execute_span.attr("plans", exec_plan.num_queries());
        let plans: Vec<LogicalPlan> = exec_plan.queries.iter().map(|q| q.plan.clone()).collect();
        let outputs = execute(&plans, &execute_span);
        drop(execute_span);
        timings.execution = t0.elapsed();

        // Phase 5: process (streaming over completed queries).
        let t0 = Instant::now();
        let process_span = span.child("process");
        let mut processor = Processor::new(outcome.kept.clone(), self.config.metric);
        let mut errors = Vec::new();
        for (i, (pq, out)) in exec_plan.queries.iter().zip(outputs).enumerate() {
            match out {
                Ok(output) => processor.consume(pq, &output)?,
                Err(e) => errors.push((i, e)),
            }
        }
        let all = processor.finish();
        let views = top_k(all.clone(), self.config.k);
        let low_utility = low_utility_views(&all, self.config.low_utility_views);
        process_span.attr("views", all.len());
        drop(process_span);
        timings.processing = t0.elapsed();

        Ok(Recommendation {
            views,
            low_utility,
            all,
            pruned: outcome.pruned,
            early_pruned: Vec::new(),
            clusters: outcome.clusters,
            num_candidates,
            num_queries: exec_plan.num_queries(),
            errors,
            timings,
            cost: self.db.cost().since(&cost_before),
        })
    }
}

/// The `n` lowest-utility views (demo contrast), ascending.
fn low_utility_views(all: &[ViewResult], n: usize) -> Vec<ViewResult> {
    if n == 0 {
        return Vec::new();
    }
    let mut asc = all.to_vec();
    asc.sort_by(|a, b| {
        a.utility
            .partial_cmp(&b.utility)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.spec.label().cmp(&b.spec.label()))
    });
    asc.truncate(n);
    asc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::Metric;
    use crate::view::FunctionSet;
    use memdb::{ColumnDef, DataType, Expr, Schema, Table, Value};

    /// Sales-like table with a planted deviation: product "Laserwave"
    /// sells overwhelmingly in the east, everything else in the west.
    fn demo_db() -> Arc<Database> {
        let schema = Schema::new(vec![
            ColumnDef::dimension("region", DataType::Str),
            ColumnDef::dimension("category", DataType::Str),
            ColumnDef::dimension("product", DataType::Str),
            ColumnDef::measure("amount", DataType::Float64),
            ColumnDef::measure("quantity", DataType::Float64),
        ])
        .unwrap();
        let mut t = Table::new("sales", schema);
        for i in 0..600 {
            let laser = i % 6 == 0;
            let product = if laser { "Laserwave" } else { "Other" };
            // Laserwave rows are all eastern; others are 25% east.
            let region = if laser || i % 4 == 0 { "east" } else { "west" };
            // `(i + i/6) % 3` cycles over categories even on the
            // Laserwave rows (multiples of 6), keeping category balanced
            // within and outside the subset.
            let category = ["appliance", "gadget", "tool"][(i + i / 6) % 3];
            t.push_row(vec![
                region.into(),
                category.into(),
                product.into(),
                Value::Float(10.0 + (i % 5) as f64),
                Value::Float(1.0 + (i % 3) as f64),
            ])
            .unwrap();
        }
        let db = Database::new();
        db.register(t);
        Arc::new(db)
    }

    fn laserwave() -> AnalystQuery {
        AnalystQuery::new("sales", Some(Expr::col("product").eq("Laserwave")))
    }

    #[test]
    fn end_to_end_recommendation() {
        let seedb = SeeDb::with_defaults(demo_db());
        let rec = seedb.recommend(&laserwave()).unwrap();
        assert!(rec.errors.is_empty());
        assert!(!rec.views.is_empty());
        assert!(rec.num_candidates > 0);
        assert!(rec.num_queries > 0);
        // The most deviating dimensions are `product` (the filter
        // attribute itself: target is 100% Laserwave) and the planted
        // `region` skew; `category` is balanced and must not win.
        assert_ne!(rec.views[0].spec.dimension, "category");
        assert!(rec
            .views
            .iter()
            .any(|v| v.spec.dimension == "region" && v.utility > 0.1));
        // Utilities sorted descending.
        for w in rec.views.windows(2) {
            assert!(w[0].utility >= w[1].utility);
        }
        assert!(rec.cost.queries > 0);
    }

    #[test]
    fn recommend_sql_parse_errors_carry_token_position() {
        let seedb = SeeDb::with_defaults(demo_db());
        let err = seedb
            .recommend_sql("SELECT * FROM sales WHEREE product = 'Laserwave'")
            .unwrap_err();
        assert!(matches!(err, DbError::Parse(_)));
        let msg = err.to_string();
        // The misspelled WHERE starts at byte 21; the error must point
        // there instead of dropping the lexer position.
        assert!(msg.contains("at position 21"), "{msg}");
    }

    #[test]
    fn recommend_from_sql() {
        let seedb = SeeDb::with_defaults(demo_db());
        let rec = seedb
            .recommend_sql("SELECT * FROM sales WHERE product = 'Laserwave'")
            .unwrap();
        assert_ne!(rec.views[0].spec.dimension, "category");
        assert!(rec.views[0].utility > 0.1);
    }

    #[test]
    fn basic_and_optimized_agree_on_ranking() {
        let db = demo_db();
        let basic = SeeDb::new(db.clone(), SeeDbConfig::basic())
            .recommend(&laserwave())
            .unwrap();
        let mut cfg = SeeDbConfig::recommended();
        cfg.pruning = crate::pruning::PruningConfig::disabled(); // same view set
        let optimized = SeeDb::new(db, cfg).recommend(&laserwave()).unwrap();
        assert_eq!(basic.all.len(), optimized.all.len());
        for (a, b) in basic.all.iter().zip(&optimized.all) {
            assert_eq!(a.spec, b.spec);
            assert!((a.utility - b.utility).abs() < 1e-9, "{}", a.spec);
        }
        // But the optimized plan issues far fewer queries.
        assert!(optimized.num_queries < basic.num_queries);
    }

    #[test]
    fn optimizations_reduce_scan_cost() {
        let db = demo_db();
        let basic = SeeDb::new(db.clone(), SeeDbConfig::basic())
            .recommend(&laserwave())
            .unwrap();
        let mut cfg = SeeDbConfig::recommended();
        cfg.execution = cfg.execution.with_workers(1);
        let optimized = SeeDb::new(db, cfg).recommend(&laserwave()).unwrap();
        assert!(
            optimized.cost.rows_scanned < basic.cost.rows_scanned / 2,
            "optimized {} vs basic {}",
            optimized.cost.rows_scanned,
            basic.cost.rows_scanned
        );
    }

    #[test]
    fn low_utility_views_for_demo_contrast() {
        let db = demo_db();
        let mut cfg = SeeDbConfig::recommended();
        cfg.low_utility_views = 2;
        let rec = SeeDb::new(db, cfg).recommend(&laserwave()).unwrap();
        assert_eq!(rec.low_utility.len(), 2);
        let worst = rec.low_utility[0].utility;
        let best = rec.views[0].utility;
        assert!(worst <= best);
    }

    #[test]
    fn phased_strategy_matches_batch_top_k() {
        let db = demo_db();
        let mut batch_cfg = SeeDbConfig::recommended().with_k(3);
        batch_cfg.pruning = crate::pruning::PruningConfig::disabled();
        let batch = SeeDb::new(db.clone(), batch_cfg.clone())
            .recommend(&laserwave())
            .unwrap();

        for strategy in [
            ExecutionStrategy::phased(),
            ExecutionStrategy::phased_parallel(4),
        ] {
            let cfg = batch_cfg.clone().with_execution(strategy.clone());
            let rec = SeeDb::new(db.clone(), cfg).recommend(&laserwave()).unwrap();
            assert!(rec.errors.is_empty());
            let b: Vec<String> = batch.views.iter().map(|v| v.spec.label()).collect();
            let p: Vec<String> = rec.views.iter().map(|v| v.spec.label()).collect();
            assert_eq!(b, p, "{strategy}: phased top-k must match batch top-k");
            for (x, y) in batch.views.iter().zip(&rec.views) {
                assert!((x.utility - y.utility).abs() < 1e-9, "{strategy}");
            }
            // Phased execution runs one shared-scan plan per phase.
            assert!(rec.num_queries <= 10, "one plan per phase");
        }
    }

    #[test]
    fn phased_strategy_reports_early_pruned_views() {
        let db = demo_db();
        let mut cfg = SeeDbConfig::recommended().with_k(1);
        cfg.pruning = crate::pruning::PruningConfig::disabled();
        cfg.execution = ExecutionStrategy::Phased {
            phases: 10,
            delta: 0.05,
            min_phases: 2,
        };
        let rec = SeeDb::new(db, cfg).recommend(&laserwave()).unwrap();
        // survivors + early-pruned partition the executed candidates.
        assert_eq!(
            rec.all.len() + rec.early_pruned.len(),
            rec.num_candidates - rec.pruned.len()
        );
        // The batch strategies never early-prune.
        let rec2 = SeeDb::with_defaults(demo_db())
            .recommend(&laserwave())
            .unwrap();
        assert!(rec2.early_pruned.is_empty());
    }

    #[test]
    fn unknown_table_errors_cleanly() {
        let seedb = SeeDb::with_defaults(demo_db());
        let r = seedb.recommend(&AnalystQuery::new("missing", None));
        assert!(matches!(r, Err(DbError::UnknownTable(_))));
    }

    #[test]
    fn no_filter_query_yields_near_zero_utilities() {
        let seedb = SeeDb::with_defaults(demo_db());
        let rec = seedb.recommend(&AnalystQuery::new("sales", None)).unwrap();
        for v in &rec.all {
            assert!(v.utility < 1e-9, "{}: {}", v.spec, v.utility);
        }
    }

    #[test]
    fn workload_accumulates_in_tracker() {
        let seedb = SeeDb::with_defaults(demo_db());
        seedb.recommend(&laserwave()).unwrap();
        seedb.recommend(&laserwave()).unwrap();
        assert_eq!(seedb.tracker().total_queries("sales"), 2);
        assert_eq!(seedb.tracker().count("sales", "product"), 2);
    }

    #[test]
    fn metric_changes_scores() {
        let db = demo_db();
        let mut cfg = SeeDbConfig::recommended();
        cfg.metric = Metric::EarthMovers;
        let emd = SeeDb::new(db.clone(), cfg.clone())
            .recommend(&laserwave())
            .unwrap();
        cfg.metric = Metric::KlDivergence;
        let kl = SeeDb::new(db, cfg).recommend(&laserwave()).unwrap();
        let e = emd.views[0].utility;
        let k = kl.views[0].utility;
        assert!(e > 0.0 && k > 0.0);
        assert!((e - k).abs() > 1e-12, "different metrics, different scales");
    }

    #[test]
    fn k_truncates_results() {
        let db = demo_db();
        let mut cfg = SeeDbConfig::recommended().with_k(2);
        cfg.functions = FunctionSet::full();
        let rec = SeeDb::new(db, cfg).recommend(&laserwave()).unwrap();
        assert_eq!(rec.views.len(), 2);
        assert!(rec.all.len() > 2);
    }

    #[test]
    fn timings_are_populated() {
        let seedb = SeeDb::with_defaults(demo_db());
        let rec = seedb.recommend(&laserwave()).unwrap();
        assert!(rec.timings.total() > Duration::ZERO);
        assert!(rec.timings.execution > Duration::ZERO);
    }
}
