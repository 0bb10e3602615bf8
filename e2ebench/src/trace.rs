//! The traced run's span recorder and layer replay.
//!
//! Spans are recorded by a `Tracer` the benchmark owns, around direct
//! calls into each layer's public function; nothing inside the program
//! is instrumented. Each request gets a root span `request` (one trace)
//! with a child `service.recommend` around the real service call and a
//! child `replay` that re-runs the pipeline layer by layer on the same
//! table version and analyst query:
//!
//! ```text
//! request
//! ├── service.recommend      Session::recommend
//! └── replay
//!     ├── metadata.collect   MetadataCollector::collect
//!     ├── metadata.stats     TableStats::collect
//!     ├── metadata.corr      cramers_v over every dimension pair
//!     ├── pruning.prune      enumerate_views + prune
//!     ├── optimizer.plan     optimizer::plan
//!     ├── exec.run_batch     memdb::run_batch
//!     ├── processor.process  Processor + top_k
//!     └── phased.run         run_phased_with_group_counts (when enabled)
//! ```
//!
//! No workload serves with phased execution (its two workers per phase
//! made request latency too noisy to gate on a shared 2-vCPU host), so
//! `phased.run` prices the phased layer on the same kept views with
//! [`ExecutionStrategy::phased_parallel`]`(2)`, beside the strategy the
//! service really uses.
//!
//! The replay executes against a private `Database` holding the same
//! table snapshot, so its scans never touch the service's cache or its
//! `exec.*` counters. It runs every layer cold: `exec.run_batch` is what
//! the request's plans cost on a cache miss, while the scans the service
//! really did are read from its `exec.*` counter deltas.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use memdb::{cramers_v, run_batch, Database, DbResult, Table, TableStats};
use seedb_core::{
    enumerate_views, prune, run_phased_with_group_counts, top_k, AnalystQuery, ExecutionStrategy,
    MetadataCollector, PhasedConfig, Processor, SeeDbConfig, ViewResult,
};
use seedb_obs::{MonotonicClock, Span, TraceData, Tracer};

/// Row-partition workers of the replayed phased layer.
const PHASED_WORKERS: usize = 2;

/// Attribute that marks an append during which a checkpoint ran; such
/// spans aggregate under their name with [`CHECKPOINT_SUFFIX`] appended.
pub const CHECKPOINT_ATTR: &str = "checkpoint";
/// Suffix of the layer that gathers spans marked [`CHECKPOINT_ATTR`].
pub const CHECKPOINT_SUFFIX: &str = "_ckpt";

/// The benchmark's own span recorder, enabled, keeping every trace of a
/// run until it is aggregated.
pub fn tracer() -> Tracer {
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), usize::MAX);
    tracer.set_enabled(true);
    tracer
}

/// Per-name totals over the recorded traces.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Spans recorded.
    pub count: u64,
    /// Σ duration, ns.
    pub total_ns: u64,
    /// Σ self time (duration minus child spans), ns.
    pub self_ns: u64,
}

impl Layer {
    /// Mean duration per span, ms (0 when none was recorded).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }

    /// Mean self time per span, ms.
    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Aggregate spans by name. A span's children run one after another on
/// its thread, so its self time is its duration minus their sum.
pub fn layers(traces: &[TraceData]) -> BTreeMap<String, Layer> {
    let mut out: BTreeMap<String, Layer> = BTreeMap::new();
    for trace in traces {
        let mut child_ns = vec![0u64; trace.spans.len()];
        for s in &trace.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        for (s, children) in trace.spans.iter().zip(child_ns) {
            let name = if s.attr(CHECKPOINT_ATTR).is_some() {
                format!("{}{CHECKPOINT_SUFFIX}", s.name)
            } else {
                s.name.clone()
            };
            let layer = out.entry(name).or_default();
            layer.count += 1;
            layer.total_ns += s.duration_ns();
            layer.self_ns += s.duration_ns().saturating_sub(children);
        }
    }
    out
}

/// Layer-level counts the replay gathers next to its spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Requests replayed.
    pub requests: u64,
    /// Candidate views enumerated.
    pub candidates: u64,
    /// Views that survived pruning.
    pub kept: u64,
    /// DBMS queries the optimizer planned.
    pub planned_queries: u64,
    /// Views discarded mid-run by phased pruning.
    pub early_pruned: u64,
    /// Views that survived phased execution.
    pub phased_survivors: u64,
    /// Replays whose top-k was compared with the service's.
    pub compared: u64,
    /// Compared replays whose top-k differed from the service's.
    pub mismatches: u64,
    /// Replays that returned an error.
    pub errors: u64,
}

/// Re-runs the recommendation pipeline layer by layer.
pub struct Replay {
    config: SeeDbConfig,
    /// Parameters of the phased layer's replay, when it runs.
    phased: Option<PhasedConfig>,
    collector: MetadataCollector,
    /// Private database holding the latest replayed table version.
    db: Mutex<Option<(u64, Arc<Database>)>>,
    counts: Mutex<ReplayCounts>,
}

/// A top-k list as `(label, utility bits)`: equal lists are byte-identical.
pub fn fingerprint(views: &[ViewResult]) -> Vec<(String, u64)> {
    views
        .iter()
        .map(|v| (v.spec.label(), v.utility.to_bits()))
        .collect()
}

impl Replay {
    /// A replay of the pipeline under `config` (the service's own, which
    /// must use a batch strategy), plus the phased layer when `phased`.
    pub fn new(config: SeeDbConfig, phased: bool) -> Replay {
        let phased = match ExecutionStrategy::phased_parallel(PHASED_WORKERS) {
            ExecutionStrategy::PhasedParallel {
                phases,
                delta,
                min_phases,
                workers,
            } if phased => Some(PhasedConfig {
                phases,
                k: config.k,
                delta,
                min_phases,
                metric: config.metric,
                workers,
            }),
            _ => None,
        };
        Replay {
            config,
            phased,
            collector: MetadataCollector::new(),
            db: Mutex::new(None),
            counts: Mutex::new(ReplayCounts::default()),
        }
    }

    /// Counts so far.
    pub fn counts(&self) -> ReplayCounts {
        *self.counts.lock().expect("replay counts lock poisoned")
    }

    fn database_for(&self, table: &Arc<Table>) -> Arc<Database> {
        let mut slot = self.db.lock().expect("replay db lock poisoned");
        match &*slot {
            Some((v, db)) if *v == table.version() => db.clone(),
            _ => {
                let db = Arc::new(Database::new());
                db.register((**table).clone());
                *slot = Some((table.version(), db.clone()));
                db
            }
        }
    }

    /// Replay `analyst` on `table` under `parent`, and compare the
    /// replayed top-k with the service's when `expected` is given (only
    /// when `table` is known to be the version the service answered from).
    pub fn run(
        &self,
        analyst: &AnalystQuery,
        table: &Arc<Table>,
        expected: Option<&[(String, u64)]>,
        parent: &Span,
    ) {
        let span = parent.child("replay");
        let result = self.pipeline(analyst, table, &span);
        drop(span);
        let mut counts = self.counts.lock().expect("replay counts lock poisoned");
        counts.requests += 1;
        match result {
            Ok(step) => {
                counts.candidates += step.candidates;
                counts.kept += step.kept;
                counts.planned_queries += step.planned_queries;
                counts.early_pruned += step.early_pruned;
                counts.phased_survivors += step.phased_survivors;
                if let Some(expected) = expected {
                    counts.compared += 1;
                    if step.top_k != expected {
                        counts.mismatches += 1;
                    }
                }
            }
            Err(_) => counts.errors += 1,
        }
    }

    fn pipeline(&self, analyst: &AnalystQuery, table: &Arc<Table>, span: &Span) -> DbResult<Step> {
        let cfg = &self.config;
        let need_corr = cfg.compute_correlations && cfg.pruning.correlation;
        let metadata = {
            let _s = span.child("metadata.collect");
            self.collector.collect(table, need_corr)?
        };
        {
            let _s = span.child("metadata.stats");
            std::hint::black_box(TableStats::collect(table));
        }
        if need_corr {
            let _s = span.child("metadata.corr");
            let dims = table.schema().dimensions();
            for i in 0..dims.len() {
                for j in (i + 1)..dims.len() {
                    let v = cramers_v(table.column(dims[i])?, table.column(dims[j])?)?;
                    std::hint::black_box(v);
                }
            }
        }

        let (kept, candidates) = {
            let _s = span.child("pruning.prune");
            let candidates = enumerate_views(table.schema(), &cfg.functions);
            let n = candidates.len() as u64;
            // Dimensions the analyst filtered on are dropped first, as
            // the engine does under `exclude_filter_attributes`.
            let candidates = if cfg.exclude_filter_attributes {
                let cols = analyst.referenced_columns();
                candidates
                    .into_iter()
                    .filter(|v| !cols.contains(&v.dimension))
                    .collect()
            } else {
                candidates
            };
            (prune(candidates, &metadata, &cfg.pruning).kept, n)
        };

        let mut step = Step {
            candidates,
            kept: kept.len() as u64,
            ..Step::default()
        };
        if let Some(phased_cfg) = &self.phased {
            let mut groups = HashMap::new();
            for v in &kept {
                if let Ok(stats) = metadata.stats.column(&v.dimension) {
                    groups.insert(v.dimension.clone(), stats.group_count());
                }
            }
            let _s = span.child("phased.run");
            let out = run_phased_with_group_counts(table, analyst, &kept, phased_cfg, &groups)?;
            step.early_pruned = out.pruned.len() as u64;
            step.phased_survivors = out.survivors.len() as u64;
        }

        let exec_plan = {
            let _s = span.child("optimizer.plan");
            seedb_core::optimizer::plan(&kept, analyst, &metadata, &cfg.optimizer)
        };
        step.planned_queries = exec_plan.num_queries() as u64;
        let db = self.database_for(table);
        let outputs = {
            let _s = span.child("exec.run_batch");
            let plans: Vec<_> = exec_plan.queries.iter().map(|q| q.plan.clone()).collect();
            run_batch(&db, &plans, cfg.execution.workers()).outputs
        };
        let _s = span.child("processor.process");
        let mut processor = Processor::new(kept, cfg.metric);
        for (pq, out) in exec_plan.queries.iter().zip(outputs) {
            processor.consume(pq, &out?)?;
        }
        step.top_k = fingerprint(&top_k(processor.finish(), cfg.k));
        Ok(step)
    }
}

/// What one replayed request produced.
#[derive(Debug, Default)]
struct Step {
    candidates: u64,
    kept: u64,
    planned_queries: u64,
    early_pruned: u64,
    phased_survivors: u64,
    top_k: Vec<(String, u64)>,
}
