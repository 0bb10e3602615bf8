//! The serving layer: a long-lived, thread-safe recommendation service.
//!
//! [`SeeDb::recommend`] is a single-shot call — every request recomputes
//! every view from scratch, and concurrent analysts exploring the same
//! table redo identical scans. [`Service`] turns the engine into
//! something that can sit behind traffic:
//!
//! * **Concurrent sessions.** A `Service` is cheaply cloneable and
//!   `&self`-threadsafe; [`Service::session`] hands out [`Session`]
//!   handles so many analysts can issue [`Session::recommend`] calls
//!   over one shared [`memdb::Database`] simultaneously.
//! * **Shared partial-aggregate cache.** Every planned shared-scan query
//!   is keyed by a canonical fingerprint of its output-determining parts
//!   — table, predicate, grouping set(s), measures, aggregates
//!   ([`memdb::PhysicalPlan::fingerprint`]) — and its *unfinalized*
//!   [`PartialAggState`] is cached under `(fingerprint, table version)`.
//!   Overlapping view sets across requests hit the cache instead of the
//!   scan: a warm repeat of an analyst query performs **zero** table
//!   scans. Entries are LRU-evicted beyond
//!   [`ServiceConfig::cache_capacity`] and invalidated by the
//!   [`memdb::Table::version`] stamp — re-registering a table bumps the
//!   version, so stale states are never served.
//! * **Cross-request scan batching.** Cache misses that arrive within
//!   [`ServiceConfig::batch_window`] of each other on the same table are
//!   merged — grouping sets unioned, aggregates deduplicated by
//!   (function, column, predicate) — into one shared-scan
//!   [`memdb::LogicalPlan`], bin-packed under
//!   [`ServiceConfig::max_batch_sets`] via the optimizer's packing
//!   ([`crate::packing`]). N concurrent analysts on one table cost ~1
//!   scan, not N; each plan's state is recovered bit-for-bit from the
//!   combined scan by [`PartialAggState::project_for`].
//! * **Incremental maintenance under live ingest.** When
//!   [`Service::append_rows`] (or [`memdb::Database::append_rows`])
//!   publishes version `v+1` of a table, cached states stamped at an
//!   append ancestor `v` are not thrown away: the plan is executed over
//!   only the delta rows `[rows_at_v, rows_now)` and
//!   [`merge`](PartialAggState::merge)d into the cached state —
//!   byte-identical to a cold recomputation at `v+1` because aggregate
//!   states are associative and merged in partition (row) order. The
//!   [`crate::live::RefreshConfig`] policy picks lazy (on probe) or
//!   eager (on append) refresh and falls back to a full recompute for
//!   oversized deltas or non-append lineage (replaced tables).
//!
//! The correctness bar matches partitioned execution: a cached,
//! batched, or incrementally refreshed recommendation is
//! **byte-identical** to a cold sequential one (`tests/service.rs`
//! holds it there under concurrency and concurrent appends).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use memdb::{
    run_partitioned, AggSpec, CacheOutcome, Database, DbError, DbResult, ExecMetrics, ExecStats,
    Expr, LogicalPlan, MutexExt, PartialAggState, PhysicalPlan, PlanOutput, Query, Table, Value,
};
use seedb_obs::{
    Counter, FlightRecorder, HealthStatus, Histogram, MetricsSnapshot, Obs, Registry, Rule,
    RuleKind, Sampler, SamplerConfig, Span, TraceData, Watchdog, Window,
};

use crate::config::{SeeDbConfig, ServiceConfig};
use crate::engine::{Recommendation, SeeDb};
use crate::explain::{cache_only_stats, ExplainOp, ExplainReport};
use crate::live::{RefreshDecision, RefreshMode};
use crate::metadata::AccessTracker;
use crate::querygen::AnalystQuery;

/// Trace spans attached to one flight-recorder dump.
const DUMP_TRACES: usize = 16;

/// Point-in-time cache/batch counters of a [`Service`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Plans served from the cache without a scan (exact-fingerprint
    /// hits plus `projection_hits`).
    pub hits: u64,
    /// Subset of `hits` served by projecting a *covering* cached state
    /// — an entry with the same scan source whose grouping sets and
    /// aggregate states include everything the plan needs (e.g. plans
    /// differing only in output aliases, or a sub-shape of a cached
    /// merged superplan).
    pub projection_hits: u64,
    /// Plans that had to scan (includes invalidated entries).
    pub misses: u64,
    /// States inserted into the cache.
    pub inserts: u64,
    /// States evicted by the LRU policy.
    pub evictions: u64,
    /// Stale states dropped because the table version moved.
    pub invalidations: u64,
    /// Shared scans executed on behalf of batched misses.
    pub batch_scans: u64,
    /// Distinct plans served by those shared scans.
    pub batched_plans: u64,
    /// Sampled plans that bypassed the cache entirely.
    pub bypasses: u64,
    /// Cached states incrementally refreshed after appends (delta scan
    /// + merge instead of a full recompute).
    pub refreshes: u64,
    /// Delta rows scanned by those refreshes — the *entire* scan work
    /// the refreshed plans paid (a full recompute would have rescanned
    /// the whole table per plan).
    pub refresh_rows: u64,
    /// Outdated entries that could not be refreshed incrementally
    /// (non-append lineage, oversized delta, refresh disabled, or a
    /// refresh failure) and fell back to invalidate + recompute.
    pub refresh_fallbacks: u64,
}

impl CacheStats {
    /// Fraction of cacheable plan executions served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The service's counters, registered under `service.cache.*` in the
/// database's metrics registry — [`CacheStats`] is a thin view over the
/// registry cells (one number, one cell: the legacy snapshot and
/// `Service::metrics` can never diverge).
#[derive(Debug)]
struct StatCounters {
    hits: Counter,
    projection_hits: Counter,
    misses: Counter,
    inserts: Counter,
    evictions: Counter,
    invalidations: Counter,
    batch_scans: Counter,
    batched_plans: Counter,
    bypasses: Counter,
    refreshes: Counter,
    refresh_rows: Counter,
    refresh_fallbacks: Counter,
}

impl StatCounters {
    fn registered(registry: &Registry) -> StatCounters {
        StatCounters {
            hits: registry.register_counter("service.cache.hits"),
            projection_hits: registry.register_counter("service.cache.projection_hits"),
            misses: registry.register_counter("service.cache.misses"),
            inserts: registry.register_counter("service.cache.inserts"),
            evictions: registry.register_counter("service.cache.evictions"),
            invalidations: registry.register_counter("service.cache.invalidations"),
            batch_scans: registry.register_counter("service.cache.batch_scans"),
            batched_plans: registry.register_counter("service.cache.batched_plans"),
            bypasses: registry.register_counter("service.cache.bypasses"),
            refreshes: registry.register_counter("service.cache.refreshes"),
            refresh_rows: registry.register_counter("service.cache.refresh_rows"),
            refresh_fallbacks: registry.register_counter("service.cache.refresh_fallbacks"),
        }
    }

    fn add(counter: &Counter, n: u64) {
        counter.add(n);
    }

    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            projection_hits: self.projection_hits.get(),
            misses: self.misses.get(),
            inserts: self.inserts.get(),
            evictions: self.evictions.get(),
            invalidations: self.invalidations.get(),
            batch_scans: self.batch_scans.get(),
            batched_plans: self.batched_plans.get(),
            bypasses: self.bypasses.get(),
            refreshes: self.refreshes.get(),
            refresh_rows: self.refresh_rows.get(),
            refresh_fallbacks: self.refresh_fallbacks.get(),
        }
    }
}

/// One cached execution: the *unfinalized* mergeable state — served to
/// sub-shape plans via [`PartialAggState::project_for`]
/// (`LruCache::lookup_covering`) — plus its finalized output, memoized
/// once at insert so an exact hit costs one result copy instead of a
/// state deep-clone and re-sort.
#[derive(Debug, Clone)]
struct CachedState {
    partial: Arc<PartialAggState>,
    output: Arc<PlanOutput>,
}

/// Outcome of a cache probe.
enum Lookup {
    /// Fresh state for the current table version.
    Hit(CachedState),
    /// An entry exists but was computed at a different table version.
    /// It is left in place: the caller either refreshes it
    /// incrementally (append lineage) or removes it and recomputes.
    Outdated {
        /// The outdated cached state.
        state: CachedState,
        /// The [`Table::version`] it was computed against.
        version: u64,
    },
    /// No entry.
    Miss,
}

/// Fingerprint-keyed LRU cache of unfinalized partial-aggregate states.
#[derive(Debug, Default)]
struct LruCache {
    capacity: usize,
    /// Monotonic access clock; larger = more recently used.
    tick: u64,
    entries: HashMap<String, CacheEntry>,
}

#[derive(Debug)]
struct CacheEntry {
    state: CachedState,
    /// Scan-source identity ([`source_key`]) — projection may only
    /// serve plans with the identical scan domain.
    source: String,
    /// The plan that produced this state — what incremental refresh
    /// executes over the delta rows after an append.
    phys: PhysicalPlan,
    /// [`Table::version`] the state was computed against.
    version: u64,
    last_used: u64,
}

impl LruCache {
    fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    fn lookup(&mut self, key: &str, version: u64) -> Lookup {
        match self.entries.get_mut(key) {
            None => Lookup::Miss,
            Some(e) if e.version != version => Lookup::Outdated {
                state: e.state.clone(),
                version: e.version,
            },
            Some(e) => {
                self.tick += 1;
                e.last_used = self.tick;
                Lookup::Hit(e.state.clone())
            }
        }
    }

    /// Drop `key` only if it is still stamped at `version` (so a racing
    /// refresh that already re-stamped the entry is not discarded).
    fn remove_if_version(&mut self, key: &str, version: u64) {
        if self.entries.get(key).is_some_and(|e| e.version == version) {
            self.entries.remove(key);
        }
    }

    /// Every entry for `table` stamped at a version other than
    /// `current_version` — the eager-refresh work list after an append.
    fn stale_entries_for(
        &self,
        table: &str,
        current_version: u64,
    ) -> Vec<(String, u64, PhysicalPlan, CachedState)> {
        self.entries
            .iter()
            .filter(|(_, e)| e.phys.table() == table && e.version != current_version)
            .map(|(k, e)| (k.clone(), e.version, e.phys.clone(), e.state.clone()))
            .collect()
    }

    /// Serve a cache miss from a *covering* entry: same scan source and
    /// table version, with every grouping set and aggregate state `phys`
    /// needs ([`PartialAggState::project_for`]). Covers plans whose
    /// fingerprints differ only in output shape (aliases) and sub-shapes
    /// of cached merged superplans. Any covering entry serves — all
    /// projections are bit-identical to a standalone execution by the
    /// plan-layer contract.
    fn lookup_covering(
        &mut self,
        source: &str,
        version: u64,
        phys: &PhysicalPlan,
    ) -> Option<PartialAggState> {
        let (key, projected) = self.entries.iter().find_map(|(k, e)| {
            if e.version != version || e.source != source {
                return None;
            }
            e.state
                .partial
                .project_for(phys)
                .ok()
                .map(|p| (k.clone(), p))
        })?;
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_used = self.tick;
        }
        Some(projected)
    }

    /// Insert, evicting least-recently-used entries beyond capacity.
    /// Returns the number of evictions.
    fn insert(
        &mut self,
        key: String,
        source: String,
        version: u64,
        phys: PhysicalPlan,
        state: CachedState,
    ) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        // The cache keeps the newest version per fingerprint: a request
        // pinned to an older snapshot (racing an append) must not stomp
        // state another path already brought forward. Versions are
        // globally monotonic, so a larger stamp is always newer.
        if self
            .entries
            .get(&key)
            .is_some_and(|existing| existing.version > version)
        {
            return 0;
        }
        self.tick += 1;
        self.entries.insert(
            key,
            CacheEntry {
                state,
                source,
                phys,
                version,
                last_used: self.tick,
            },
        );
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.entries.remove(&victim);
            evicted += 1;
        }
        evicted
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.entries.clear();
    }

    /// The plans behind every cached state — what [`Service::persist`]
    /// spills so a restarted service can warm itself back up.
    fn plans(&self) -> Vec<PhysicalPlan> {
        self.entries.values().map(|e| e.phys.clone()).collect()
    }
}

/// One cache-missing plan registered with a batch.
#[derive(Debug, Clone)]
struct BatchPlan {
    fingerprint: String,
    phys: PhysicalPlan,
}

/// A per-table batch: the first miss opens it (leader), concurrent
/// misses join while it is open, the leader closes it after the batch
/// window, executes the merged scans, and publishes per-fingerprint
/// results.
#[derive(Debug, Default)]
struct Batch {
    state: Mutex<BatchState>,
    cv: Condvar,
}

#[derive(Debug)]
struct BatchState {
    /// Still accepting joiners.
    open: bool,
    plans: Vec<BatchPlan>,
    results: HashMap<String, DbResult<Arc<PlanOutput>>>,
    done: bool,
}

impl Default for BatchState {
    fn default() -> Self {
        BatchState {
            open: true,
            plans: Vec::new(),
            results: HashMap::new(),
            done: false,
        }
    }
}

/// Lock a batch's state, recovering from poisoning: the state is plain
/// flags and maps whose invariants hold at every await point, and a
/// joiner must be able to observe `done` even after a panic elsewhere.
fn lock_state(batch: &Batch) -> MutexGuard<'_, BatchState> {
    batch.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Unwinding safety for batch joiners: if the leader panics while
/// executing (e.g. a partition worker dies), this guard still closes
/// the batch and publishes `done` from its `Drop`, so joiners fail with
/// a clean error instead of waiting on the condvar forever.
struct LeaderGuard<'a> {
    batch: &'a Batch,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut st = lock_state(self.batch);
            st.open = false;
            st.done = true;
            self.batch.cv.notify_all();
        }
    }
}

#[derive(Debug, Default)]
struct Batcher {
    /// (table name, table version) -> currently open batch. The version
    /// is part of the key so a request holding a *newer* registration
    /// of a table never joins a batch whose leader is scanning the old
    /// one — batch-mates always merge, scan, and finalize against the
    /// same registration.
    pending: Mutex<HashMap<(String, u64), Arc<Batch>>>,
}

impl Batcher {
    /// Register `misses` for `table` with the open batch (joining it)
    /// or a new one (becoming its leader). Blocks until results for all
    /// registered fingerprints are published.
    fn submit(
        &self,
        inner: &ServiceInner,
        table: &Arc<Table>,
        misses: &[BatchPlan],
        span: &Span,
    ) -> HashMap<String, DbResult<Arc<PlanOutput>>> {
        let register = |state: &mut BatchState| {
            for m in misses {
                if !state.plans.iter().any(|p| p.fingerprint == m.fingerprint) {
                    state.plans.push(m.clone());
                }
            }
        };
        let key = (table.name().to_string(), table.version());
        let (batch, leader) = {
            let mut pending = self.pending.lock_recovered();
            let joined = pending.get(&key).and_then(|b| {
                // Joining and closing both hold the batch's state lock,
                // so a join observed open is guaranteed execution.
                let mut st = lock_state(b);
                if st.open {
                    register(&mut st);
                    Some(b.clone())
                } else {
                    None
                }
            });
            match joined {
                Some(b) => (b, false),
                None => {
                    let b = Arc::new(Batch::default());
                    register(&mut lock_state(&b));
                    pending.insert(key.clone(), b.clone());
                    (b, true)
                }
            }
        };

        if leader {
            if !inner.config.batch_window.is_zero() {
                std::thread::sleep(inner.config.batch_window);
            }
            // Stop routing new joiners here, then close the batch.
            {
                let mut pending = self.pending.lock_recovered();
                if let Some(b) = pending.get(&key) {
                    if Arc::ptr_eq(b, &batch) {
                        pending.remove(&key);
                    }
                }
            }
            // From here to publication, an unwind must still release
            // the joiners (they would otherwise wait forever).
            let mut guard = LeaderGuard {
                batch: &batch,
                armed: true,
            };
            let plans = {
                let mut st = lock_state(&batch);
                st.open = false;
                st.plans.clone()
            };
            // Only the leader's request records the batch scan in its
            // trace; joiners just wait and therefore show nothing —
            // which is exactly what they cost.
            let results = inner.execute_batch(table, &plans, span);
            {
                let mut st = lock_state(&batch);
                st.results = results;
                st.done = true;
            }
            guard.armed = false;
            batch.cv.notify_all();
        }

        let st = lock_state(&batch);
        let st = batch
            .cv
            .wait_while(st, |s| !s.done)
            .unwrap_or_else(PoisonError::into_inner);
        misses
            .iter()
            .map(|m| {
                (
                    m.fingerprint.clone(),
                    st.results.get(&m.fingerprint).cloned().unwrap_or_else(|| {
                        Err(DbError::Internal(
                            "batch leader failed before publishing results".to_string(),
                        ))
                    }),
                )
            })
            .collect()
    }
}

/// The serving layer's telemetry pipeline: registry sampler, watchdog,
/// and (optionally) the flight recorder breaches dump into. Built from
/// [`crate::config::TelemetryConfig`]; absent entirely when disabled.
#[derive(Debug)]
struct Telemetry {
    sampler: Sampler,
    watchdog: Watchdog,
    recorder: Option<FlightRecorder>,
    /// [`ServiceConfig::fingerprint`], stamped into every dump.
    fingerprint: String,
    /// `telemetry.windows`: sampler windows closed.
    windows: Counter,
    /// `telemetry.breaches`: watchdog breaches observed.
    breaches: Counter,
    /// `telemetry.dumps`: flight-recorder dumps written.
    dumps: Counter,
}

impl Telemetry {
    /// Build the pipeline from `config` (`None` when disabled): the
    /// sampler runs on the service's injected clock, and the watchdog
    /// rule catalog watches the latency histogram, cache hit rate, WAL
    /// backlog, and refresh fallbacks.
    fn from_config(config: &ServiceConfig, obs: &Obs) -> Option<Telemetry> {
        let t = &config.telemetry;
        if !t.enabled {
            return None;
        }
        let sampler = obs.sampler(SamplerConfig {
            interval_ns: t.interval_ns,
            capacity: t.window_capacity,
        });
        let watchdog = Watchdog::new(vec![
            Rule::new(
                "latency-p99",
                RuleKind::P99Above {
                    histogram: "service.recommend_ns".into(),
                    bound_ns: t.p99_bound_ns,
                },
            ),
            Rule::new(
                "cache-hit-rate",
                RuleKind::HitRateBelow {
                    hits: "service.cache.hits".into(),
                    misses: "service.cache.misses".into(),
                    floor: t.hit_rate_floor,
                    min_events: t.hit_rate_min_events,
                },
            ),
            Rule::new(
                "wal-backlog-growth",
                RuleKind::MonotonicGrowth {
                    gauge: "store.wal.bytes_pending".into(),
                    windows: t.wal_growth_windows,
                },
            ),
            Rule::new(
                "refresh-fallback-spike",
                RuleKind::CounterSpike {
                    counter: "service.cache.refresh_fallbacks".into(),
                    max_per_window: t.refresh_fallback_max,
                },
            ),
        ]);
        let registry = obs.registry();
        Some(Telemetry {
            sampler,
            watchdog,
            recorder: t.dump_dir.as_ref().map(FlightRecorder::new),
            fingerprint: config.fingerprint(),
            windows: registry.register_counter("telemetry.windows"),
            breaches: registry.register_counter("telemetry.breaches"),
            dumps: registry.register_counter("telemetry.dumps"),
        })
    }
}

#[derive(Debug)]
struct ServiceInner {
    engine: SeeDb,
    config: ServiceConfig,
    cache: Mutex<LruCache>,
    batcher: Batcher,
    stats: StatCounters,
    next_session: AtomicU64,
    /// The database's observability bundle, adopted at construction so
    /// `service.*`, `exec.*`, and `store.*` metrics share one registry
    /// and all spans share one tracer and clock.
    obs: Obs,
    /// `service.recommend_ns`: end-to-end recommend latency, measured
    /// on the bundle's injected clock (virtual under the soak harness).
    recommend_ns: Histogram,
    /// Partitioned-execution handles passed into every shared scan.
    exec_metrics: ExecMetrics,
    /// Telemetry pipeline (sampler + watchdog + flight recorder), or
    /// `None` when disabled by configuration.
    telemetry: Option<Telemetry>,
    /// EXPLAIN ANALYZE: operator recording is active (flipped around
    /// one request by [`Service::recommend_explained`]).
    explain_on: AtomicBool,
    /// Operators recorded by the explained request in execution order.
    explain_ops: Mutex<Vec<ExplainOp>>,
    /// The most recent rendered explain report, attached to dumps.
    last_explain: Mutex<Option<String>>,
}

/// A long-lived, thread-safe recommendation service over one shared
/// database. See the [module docs](self) for the architecture; clone
/// handles freely (`Arc` inside) and call [`Service::recommend`] from as
/// many threads as you like.
#[derive(Debug, Clone)]
pub struct Service {
    inner: Arc<ServiceInner>,
}

impl Service {
    /// Wrap `db` with the given serving configuration. The service
    /// adopts the database's [`Obs`] bundle ([`Database::obs`]), so its
    /// `service.*` counters land in the same registry as the `exec.*`
    /// and `store.*` ones and [`Service::metrics`] reports all three
    /// layers at once.
    pub fn new(db: Arc<Database>, config: ServiceConfig) -> Self {
        let obs = db.obs().clone();
        let cache = Mutex::new(LruCache::new(config.cache_capacity));
        let stats = StatCounters::registered(obs.registry());
        let recommend_ns = obs.registry().register_histogram("service.recommend_ns");
        let exec_metrics = ExecMetrics::new(&obs);
        let telemetry = Telemetry::from_config(&config, &obs);
        Service {
            inner: Arc::new(ServiceInner {
                engine: SeeDb::new(db, config.seedb.clone()).with_metadata_counters(obs.registry()),
                config,
                cache,
                batcher: Batcher::default(),
                stats,
                next_session: AtomicU64::new(1),
                obs,
                recommend_ns,
                exec_metrics,
                telemetry,
                explain_on: AtomicBool::new(false),
                explain_ops: Mutex::new(Vec::new()),
                last_explain: Mutex::new(None),
            }),
        }
    }

    /// Wrap `db` with [`ServiceConfig::recommended`].
    pub fn with_defaults(db: Arc<Database>) -> Self {
        Service::new(db, ServiceConfig::recommended())
    }

    /// The wrapped database.
    pub fn database(&self) -> &Arc<Database> {
        self.inner.engine.database()
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// The pipeline configuration shared by every session.
    pub fn seedb_config(&self) -> &SeeDbConfig {
        &self.inner.config.seedb
    }

    /// The workload access tracker shared by every session.
    pub fn tracker(&self) -> &AccessTracker {
        self.inner.engine.tracker()
    }

    /// Open a new analyst session. Sessions are cheap handles sharing
    /// this service's engine, cache, and batcher.
    pub fn session(&self) -> Session {
        Session {
            service: self.clone(),
            id: self.inner.next_session.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Recommend views for an analyst query, serving repeated work from
    /// the shared cache and batching concurrent cache misses.
    ///
    /// Byte-identical to [`SeeDb::recommend`] under the same
    /// configuration, for every cache/batch state. The phased execution
    /// strategies bypass the cache (they scan the table in slices and
    /// prune mid-flight); the batch strategies are the serving path.
    ///
    /// # Errors
    /// Same as [`SeeDb::recommend`].
    pub fn recommend(&self, analyst: &AnalystQuery) -> DbResult<Recommendation> {
        self.recommend_for_session(analyst, None)
    }

    /// [`Service::recommend`] optionally tagged with a session id: the
    /// request's root trace span carries `session=<id>`, which is what
    /// [`Session::last_trace`] filters the trace ring by.
    fn recommend_for_session(
        &self,
        analyst: &AnalystQuery,
        session: Option<u64>,
    ) -> DbResult<Recommendation> {
        let inner = &self.inner;
        let root = inner.obs.tracer().root_span("recommend");
        root.attr("table", &analyst.table);
        if let Some(id) = session {
            root.attr("session", id);
        }
        let start_ns = inner.obs.now_ns();
        let result = inner.engine.recommend_via(analyst, &root, |plans, span| {
            inner.execute_plans(plans, span)
        });
        inner
            .recommend_ns
            .record(inner.obs.now_ns().saturating_sub(start_ns));
        // Opportunistic telemetry: the serve path doubles as the
        // sampler's scheduler, so no background thread exists and the
        // whole pipeline stays deterministic under an injected clock.
        inner.telemetry_tick();
        result
    }

    /// [`Service::recommend`] with EXPLAIN ANALYZE: run the request with
    /// operator recording on and return the per-operator stats report
    /// alongside the recommendation. On a quiescent service the
    /// report's scan totals equal the `exec.*` registry counter deltas
    /// exactly ([`ExplainReport::reconciles`]); the rendered report is
    /// also attached to subsequent flight-recorder dumps.
    ///
    /// # Errors
    /// Same as [`Service::recommend`].
    pub fn recommend_explained(
        &self,
        analyst: &AnalystQuery,
    ) -> DbResult<(Recommendation, ExplainReport)> {
        let inner = &self.inner;
        let before = inner.engine.database().cost();
        inner.explain_ops.lock_recovered().clear();
        inner.explain_on.store(true, Ordering::SeqCst);
        let result = self.recommend_for_session(analyst, None);
        inner.explain_on.store(false, Ordering::SeqCst);
        let ops = std::mem::take(&mut *inner.explain_ops.lock_recovered());
        let cost_delta = inner.engine.database().cost().since(&before);
        let recommendation = result?;
        let report = ExplainReport { ops, cost_delta };
        *inner.last_explain.lock_recovered() = Some(report.render());
        Ok((recommendation, report))
    }

    /// Current watchdog verdict: healthy until any rule has tripped,
    /// plus the retained breach log. Trivially healthy (zero windows)
    /// when telemetry is disabled.
    pub fn health(&self) -> HealthStatus {
        match &self.inner.telemetry {
            Some(t) => t.watchdog.status(),
            None => HealthStatus {
                healthy: true,
                windows_evaluated: 0,
                breaches: Vec::new(),
            },
        }
    }

    /// Force-close a sampler window *now*, run the watchdog over it
    /// (breaches dump like any other), and return it. `None` when
    /// telemetry is disabled. The demo CLI's `:watch` drives this.
    pub fn sample_window(&self) -> Option<Window> {
        let t = self.inner.telemetry.as_ref()?;
        let window = t.sampler.sample_now();
        self.inner.telemetry_observe(&window);
        Some(window)
    }

    /// The sampler's windows, oldest first (empty when telemetry is
    /// disabled or nothing was sampled yet).
    pub fn telemetry_windows(&self) -> Vec<Window> {
        self.inner
            .telemetry
            .as_ref()
            .map(|t| t.sampler.windows())
            .unwrap_or_default()
    }

    /// The configured sampling interval, or `None` when telemetry is
    /// disabled.
    pub fn telemetry_interval(&self) -> Option<std::time::Duration> {
        self.inner
            .telemetry
            .as_ref()
            .map(|t| std::time::Duration::from_nanos(t.sampler.interval_ns()))
    }

    /// One [`Rule::describe`] line per configured watchdog rule (empty
    /// when telemetry is disabled) — the `:health` rule catalog.
    pub fn watchdog_rules(&self) -> Vec<String> {
        self.inner
            .telemetry
            .as_ref()
            .map(|t| t.watchdog.rules().iter().map(Rule::describe).collect())
            .unwrap_or_default()
    }

    /// Recommend views for an analyst query given as SQL.
    ///
    /// # Errors
    /// Parse errors (with token positions) plus everything
    /// [`Service::recommend`] can return.
    pub fn recommend_sql(&self, sql: &str) -> DbResult<Recommendation> {
        let analyst = AnalystQuery::from_sql(sql)?;
        self.recommend(&analyst)
    }

    /// Append rows to a registered table (live ingest) and maintain the
    /// cache per the configured [`crate::live::RefreshConfig`]:
    ///
    /// * **eager** mode immediately refreshes every cached state of the
    ///   table by scanning only the appended delta rows, so the next
    ///   probe is an exact hit;
    /// * **lazy** mode (the default) leaves refreshing to the next
    ///   probe of each entry;
    /// * **off** lets outdated entries invalidate and recompute.
    ///
    /// Concurrent queries are safe throughout: requests already holding
    /// the old version's snapshot keep scanning it untouched (appends
    /// never mutate shared segments), and every cache entry is
    /// version-stamped.
    ///
    /// # Errors
    /// Same as [`memdb::Database::append_rows`]; on error nothing is
    /// published and the cache is untouched.
    pub fn append_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> DbResult<Arc<Table>> {
        let table = self.inner.engine.database().append_rows(table, rows)?;
        if self.inner.config.refresh.mode == RefreshMode::Eager {
            self.inner.refresh_table_entries(&table);
        }
        Ok(table)
    }

    /// Open a durable database directory ([`memdb::Database::open`])
    /// and serve from it, **warm-started**: if a previous
    /// [`Service::persist`] spilled its cached plan set, every spilled
    /// plan is re-executed once at open (against the recovered tables)
    /// so the first post-restart round is served from the cache like
    /// the process had never died. Warm-up is best-effort — a missing
    /// or corrupted spill reads as an empty set (a cold start), and
    /// plans whose tables vanished or fail to execute are skipped
    /// silently.
    ///
    /// # Errors
    /// Same as [`memdb::Database::open`] (`Io` for a missing/unreadable
    /// directory, `Corrupt` for failed checksums or invariants).
    pub fn open(dir: impl AsRef<std::path::Path>, config: ServiceConfig) -> DbResult<Service> {
        Service::open_with(dir, config, memdb::DurabilityConfig::recommended())
    }

    /// [`Service::open`] with explicit durability knobs.
    ///
    /// # Errors
    /// Same as [`Service::open`].
    pub fn open_with(
        dir: impl AsRef<std::path::Path>,
        config: ServiceConfig,
        durability: memdb::DurabilityConfig,
    ) -> DbResult<Service> {
        Service::open_with_obs(dir, config, durability, Obs::default())
    }

    /// [`Service::open_with`] rooted on an injected observability
    /// bundle (see [`Database::open_with_obs`]) — the soak harness
    /// passes its virtual-clock bundle here so recovery and serving
    /// telemetry is deterministic per seed.
    ///
    /// # Errors
    /// Same as [`Service::open`].
    pub fn open_with_obs(
        dir: impl AsRef<std::path::Path>,
        config: ServiceConfig,
        durability: memdb::DurabilityConfig,
        obs: Obs,
    ) -> DbResult<Service> {
        let dir = dir.as_ref();
        let db = Arc::new(Database::open_with_obs(dir, durability, obs)?);
        let service = Service::new(db, config);
        // The spill holds cache hints, not authoritative data: an
        // unreadable/corrupted file degrades to a cold start, it never
        // fails the open.
        let warm =
            memdb::store::read_plans(&dir.join(memdb::store::WARM_PLANS_FILE)).unwrap_or_default();
        for phys in warm {
            let Ok(table) = service.inner.engine.database().table(phys.table()) else {
                continue;
            };
            let _ = service.inner.execute_single(&table, &phys, &Span::none());
        }
        Ok(service)
    }

    /// Persist this service's database into `dir`
    /// ([`memdb::Database::save`] — the catalog stays durable there
    /// afterwards) and spill the cached plan set alongside it, so
    /// [`Service::open`] can warm-start: the spill holds plan
    /// *fingerprint material* (the plans themselves), not result data —
    /// a reopened service recomputes against the recovered tables and
    /// serves byte-identical results from then on.
    ///
    /// # Errors
    /// `Io` on filesystem failures.
    pub fn persist(&self, dir: impl AsRef<std::path::Path>) -> DbResult<()> {
        let dir = dir.as_ref();
        let db = self.inner.engine.database();
        // Already durable in this directory → an incremental checkpoint
        // (seal the WAL tail, keep unchanged tables' chunk files)
        // instead of rewriting every table from scratch.
        let same_dir = db.durability_summary().is_some_and(|s| {
            match (std::fs::canonicalize(&s.dir), std::fs::canonicalize(dir)) {
                (Ok(a), Ok(b)) => a == b,
                _ => false,
            }
        });
        if same_dir {
            db.checkpoint()?;
        } else {
            db.save(dir)?;
        }
        let plans = self.inner.cache.lock_recovered().plans();
        memdb::store::write_plans(&dir.join(memdb::store::WARM_PLANS_FILE), &plans)
    }

    /// Snapshot the cache/batch counters.
    ///
    /// A thin view over the metrics registry's `service.cache.*`
    /// counters — by construction identical to the matching entries of
    /// [`Service::metrics`].
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.stats.snapshot()
    }

    /// Snapshot every metric of every layer (serve → execute → store)
    /// from the shared registry. [`MetricsSnapshot::to_json`] renders
    /// it as deterministic sorted JSON.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.obs.registry().snapshot()
    }

    /// The observability bundle this service shares with its database.
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Enable or disable per-request trace recording. Disabled (the
    /// default), span creation is a no-op returning [`Span::none`] —
    /// the recommend path pays one atomic load.
    pub fn set_trace_enabled(&self, enabled: bool) {
        self.inner.obs.tracer().set_enabled(enabled);
    }

    /// Is per-request trace recording enabled?
    pub fn trace_enabled(&self) -> bool {
        self.inner.obs.tracer().is_enabled()
    }

    /// The most recently completed request trace, if tracing is enabled
    /// and any request finished since.
    pub fn last_trace(&self) -> Option<TraceData> {
        self.inner.obs.tracer().last()
    }

    /// Number of states currently cached.
    pub fn cache_len(&self) -> usize {
        self.inner.cache.lock_recovered().len()
    }

    /// Drop every cached state (counters are kept).
    pub fn clear_cache(&self) {
        self.inner.cache.lock_recovered().clear();
    }
}

/// One analyst's handle on a [`Service`]. Sessions exist so the demo
/// and tests can tell concurrent request streams apart; all heavy state
/// (cache, batcher, workload tracker) is shared through the service.
#[derive(Debug, Clone)]
pub struct Session {
    service: Service,
    id: u64,
}

impl Session {
    /// This session's id (unique within its service).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The service this session belongs to.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Recommend views for an analyst query (see [`Service::recommend`]).
    ///
    /// # Errors
    /// Same as [`Service::recommend`].
    pub fn recommend(&self, analyst: &AnalystQuery) -> DbResult<Recommendation> {
        self.service.recommend_for_session(analyst, Some(self.id))
    }

    /// Recommend views for a SQL analyst query.
    ///
    /// # Errors
    /// Same as [`Service::recommend_sql`].
    pub fn recommend_sql(&self, sql: &str) -> DbResult<Recommendation> {
        let analyst = AnalystQuery::from_sql(sql)?;
        self.recommend(&analyst)
    }

    /// The most recent completed trace of a request made *through this
    /// session* (tracing must be enabled on the service; other
    /// sessions' requests are skipped).
    pub fn last_trace(&self) -> Option<TraceData> {
        self.service
            .inner
            .obs
            .tracer()
            .last_with_root_attr("session", &self.id.to_string())
    }

    /// Append rows to a registered table through this session's
    /// service (see [`Service::append_rows`]). Safe to call while other
    /// sessions are mid-recommendation: they keep their snapshots.
    ///
    /// # Errors
    /// Same as [`Service::append_rows`].
    pub fn append_rows(&self, table: &str, rows: Vec<Vec<Value>>) -> DbResult<Arc<Table>> {
        self.service.append_rows(table, rows)
    }
}

/// The scan-source identity of a physical plan: plans may merge into one
/// shared scan iff these match (same scan domain, same row order).
fn source_key(phys: &PhysicalPlan) -> String {
    // The table name is included for clarity even though version stamps
    // are already globally unique per registration (the cache's version
    // check alone rules cross-table reuse out).
    format!(
        "{}|{:?}|{}",
        phys.table(),
        phys.row_range,
        phys.query
            .filter
            .as_ref()
            .map(Expr::to_sql)
            .unwrap_or_default()
    )
}

impl ServiceInner {
    fn workers(&self) -> usize {
        self.config.seedb.execution.workers()
    }

    /// One sampler step on the serve path: if the interval elapsed (per
    /// the injected clock), close a window and run the watchdog on it.
    /// One atomic load when not due; nothing when telemetry is off.
    fn telemetry_tick(&self) {
        let Some(t) = &self.telemetry else { return };
        if let Some(window) = t.sampler.maybe_tick() {
            self.telemetry_observe(&window);
        }
    }

    /// Watchdog a freshly closed window; every breach lands in the
    /// breach log and — when a dump directory is configured — produces
    /// a flight-recorder dump: the breach, all retained windows, the
    /// recent traces, the config fingerprint, and the last explain
    /// report. Dump writes are best-effort (a full disk must not fail
    /// the serve path); successes count into `telemetry.dumps`.
    fn telemetry_observe(&self, window: &Window) {
        let Some(t) = &self.telemetry else { return };
        t.windows.inc();
        let breaches = t.watchdog.evaluate(window);
        if breaches.is_empty() {
            return;
        }
        t.breaches.add(breaches.len() as u64);
        if let Some(recorder) = &t.recorder {
            let windows = t.sampler.windows();
            let traces = self.obs.tracer().recent(DUMP_TRACES);
            let explain = self.last_explain.lock_recovered().clone();
            for breach in &breaches {
                if recorder
                    .record(
                        breach,
                        &windows,
                        &traces,
                        &t.fingerprint,
                        explain.as_deref(),
                    )
                    .is_ok()
                {
                    t.dumps.inc();
                }
            }
        }
    }

    /// Record one EXPLAIN ANALYZE operator (no-op unless a
    /// [`Service::recommend_explained`] request is in flight).
    fn record_op(&self, label: impl Into<String>, stats: ExecStats) {
        if !self.explain_on.load(Ordering::Relaxed) {
            return;
        }
        self.explain_ops.lock_recovered().push(ExplainOp {
            label: label.into(),
            stats,
        });
    }

    /// The cache/batch-aware executor handed to the engine: one outcome
    /// per plan, in input order, byte-identical to a cold
    /// [`memdb::run_batch`].
    fn execute_plans(&self, plans: &[LogicalPlan], span: &Span) -> Vec<DbResult<PlanOutput>> {
        let mut out: Vec<Option<DbResult<PlanOutput>>> = Vec::with_capacity(plans.len());
        out.resize_with(plans.len(), || None);
        // Slot indices come straight from `enumerate` over `plans`, so
        // they are always in range; routing them through `get_mut`
        // keeps this module free of panicking index expressions.
        fn fill(out: &mut [Option<DbResult<PlanOutput>>], i: usize, r: DbResult<PlanOutput>) {
            if let Some(slot) = out.get_mut(i) {
                *slot = Some(r);
            }
        }

        struct Miss {
            index: usize,
            plan: BatchPlan,
        }
        // All plans of one request target one table, but group by
        // (name, version) anyway so the executor stays correct for
        // arbitrary plan sets — and so plans that straddle a concurrent
        // re-registration never share one table snapshot.
        let mut misses: HashMap<(String, u64), (Arc<Table>, Vec<Miss>)> = HashMap::new();
        // One snapshot per table name for the WHOLE request: every plan
        // of this request executes against the same table version even
        // if an append/replacement publishes mid-loop — a request is
        // never a torn mix of two versions.
        let mut snapshots: HashMap<String, Arc<Table>> = HashMap::new();

        let probe = span.child("cache_probe");
        for (i, plan) in plans.iter().enumerate() {
            let phys = match plan.lower() {
                Ok(p) => p,
                Err(e) => {
                    fill(&mut out, i, Err(e));
                    continue;
                }
            };
            // Sampled plans are not cacheable (per-partition samples do
            // not compose, and a cached sample would hide resampling).
            if phys.is_sampled() {
                StatCounters::add(&self.stats.bypasses, 1);
                let result = self.engine.database().run_physical(&phys);
                if let Ok(o) = &result {
                    self.record_op("bypass_scan", o.stats);
                }
                fill(&mut out, i, result);
                continue;
            }
            let table = match snapshots.get(phys.table()) {
                Some(t) => t.clone(),
                None => match self.engine.database().table(phys.table()) {
                    Ok(t) => {
                        snapshots.insert(phys.table().to_string(), t.clone());
                        t
                    }
                    Err(e) => {
                        fill(&mut out, i, Err(e));
                        continue;
                    }
                },
            };
            let fingerprint = phys.fingerprint();
            let lookup = self
                .cache
                .lock_recovered()
                .lookup(&fingerprint, table.version());
            match lookup {
                Lookup::Hit(state) => {
                    StatCounters::add(&self.stats.hits, 1);
                    self.record_op("cache_hit", cache_only_stats(CacheOutcome::Hit));
                    let mut output = (*state.output).clone();
                    output.set_cache(CacheOutcome::Hit);
                    fill(&mut out, i, Ok(output));
                }
                miss_or_outdated => {
                    if let Lookup::Outdated { state, version } = miss_or_outdated {
                        // Live ingest: an entry stamped at an append
                        // ancestor is refreshed by scanning only the
                        // delta rows and merging — byte-identical to a
                        // cold run at the current version.
                        if let RefreshDecision::Incremental { delta } =
                            self.config.refresh.decide(&table, version)
                        {
                            if let Some(output) = self.refresh_into_cache(
                                &fingerprint,
                                &phys,
                                &table,
                                &state,
                                delta,
                                &probe,
                            ) {
                                let mut output = (*output).clone();
                                output.set_cache(CacheOutcome::Refreshed);
                                fill(&mut out, i, Ok(output));
                                continue;
                            }
                        }
                        // Fallback: drop the outdated entry and
                        // recompute below — but only when the entry is
                        // genuinely *older* than our snapshot. An entry
                        // stamped at a NEWER version (a concurrent
                        // append already eagerly refreshed it past the
                        // table this request is pinned to) is fresh for
                        // everyone else; leave it alone and just
                        // recompute at our own snapshot.
                        if version < table.version() {
                            self.cache
                                .lock_recovered()
                                .remove_if_version(&fingerprint, version);
                            StatCounters::add(&self.stats.invalidations, 1);
                            StatCounters::add(&self.stats.refresh_fallbacks, 1);
                        }
                    }
                    // Second chance before scanning: a covering cached
                    // state (same source, superset shape) serves this
                    // plan by projection — still zero scans. Cache the
                    // projected state under this plan's own fingerprint
                    // so the next probe is an exact hit.
                    let projected = self.cache.lock_recovered().lookup_covering(
                        &source_key(&phys),
                        table.version(),
                        &phys,
                    );
                    if let Some(projected) = projected {
                        StatCounters::add(&self.stats.hits, 1);
                        StatCounters::add(&self.stats.projection_hits, 1);
                        self.record_op("projection_hit", cache_only_stats(CacheOutcome::Hit));
                        let result = self
                            .finalize_and_cache(
                                &fingerprint,
                                source_key(&phys),
                                &table,
                                &phys,
                                Arc::new(projected),
                            )
                            .map(|output| {
                                let mut output = (*output).clone();
                                output.set_cache(CacheOutcome::Hit);
                                output
                            });
                        fill(&mut out, i, result);
                        continue;
                    }
                    StatCounters::add(&self.stats.misses, 1);
                    misses
                        .entry((phys.table().to_string(), table.version()))
                        .or_insert_with(|| (table, Vec::new()))
                        .1
                        .push(Miss {
                            index: i,
                            plan: BatchPlan { fingerprint, phys },
                        });
                }
            }
        }
        probe.attr("plans", plans.len());
        drop(probe);

        for (_, (table, table_misses)) in misses {
            let registered: Vec<BatchPlan> = {
                let mut seen: Vec<&str> = Vec::new();
                table_misses
                    .iter()
                    .filter(|m| {
                        if seen.contains(&m.plan.fingerprint.as_str()) {
                            false
                        } else {
                            seen.push(&m.plan.fingerprint);
                            true
                        }
                    })
                    .map(|m| m.plan.clone())
                    .collect()
            };
            let results = self.batcher.submit(self, &table, &registered, span);
            for m in table_misses {
                let result = results
                    .get(&m.plan.fingerprint)
                    .cloned()
                    .unwrap_or_else(|| {
                        Err(DbError::Internal(
                            "batch result missing for submitted plan".to_string(),
                        ))
                    });
                fill(
                    &mut out,
                    m.index,
                    result.map(|output| {
                        let mut output = (*output).clone();
                        output.set_cache(CacheOutcome::Miss);
                        output
                    }),
                );
            }
        }

        out.into_iter()
            .map(|o| {
                o.unwrap_or_else(|| {
                    Err(DbError::Internal(
                        "plan slot left unfilled by executor".to_string(),
                    ))
                })
            })
            .collect()
    }

    /// Leader-side execution of one closed batch: merge compatible plans
    /// into shared scans, execute each scan once (row-partitioned across
    /// the configured workers), project per-plan states out, and cache
    /// them.
    fn execute_batch(
        &self,
        table: &Arc<Table>,
        plans: &[BatchPlan],
        span: &Span,
    ) -> HashMap<String, DbResult<Arc<PlanOutput>>> {
        let mut results = HashMap::new();

        // Group plans by scan-source identity; only same-source plans
        // share a scan domain and may merge.
        let mut groups: Vec<(String, Vec<&BatchPlan>)> = Vec::new();
        for plan in plans {
            let key = source_key(&plan.phys);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(plan),
                None => groups.push((key, vec![plan])),
            }
        }

        for (_, members) in groups {
            // Bin-pack members under the working-set cap, weighting each
            // plan by its grouping-set count (its share of resident
            // group state in the combined scan).
            let weights: Vec<u64> = members
                .iter()
                .map(|m| m.phys.query.sets.len().max(1) as u64)
                .collect();
            let bins = crate::packing::pack(&weights, self.config.max_batch_sets.max(1) as u64);
            for bin in bins {
                let batch: Vec<&BatchPlan> = bin
                    .iter()
                    .filter_map(|&i| members.get(i).copied())
                    .collect();
                self.execute_merged(table, &batch, &mut results, span);
            }
        }

        results
    }

    /// Execute one merged shared scan for `batch` and project every
    /// member's state out of it. Falls back to per-member execution if
    /// the merged scan (or a projection) fails, so a poisoned batch-mate
    /// cannot fail an innocent plan.
    fn execute_merged(
        &self,
        table: &Arc<Table>,
        batch: &[&BatchPlan],
        results: &mut HashMap<String, DbResult<Arc<PlanOutput>>>,
        span: &Span,
    ) {
        if let [plan] = batch {
            results.insert(
                plan.fingerprint.clone(),
                self.execute_single(table, &plan.phys, span),
            );
            return;
        }

        // Union the grouping sets and deduplicate the aggregates by
        // [`AggSpec::state_key`] — the same identity
        // `PartialAggState::project_for` matches by, so every member's
        // aggregates are guaranteed recoverable from the merged state
        // (aliases only label output columns; projection restores each
        // member's own).
        let Some(first) = batch.first() else {
            return;
        };
        let mut sets: Vec<Vec<String>> = Vec::new();
        let mut aggs: Vec<AggSpec> = Vec::new();
        for member in batch {
            for s in &member.phys.query.sets {
                if !sets.contains(s) {
                    sets.push(s.clone());
                }
            }
            for a in &member.phys.query.aggregates {
                if !aggs.iter().any(|b| b.state_key() == a.state_key()) {
                    aggs.push(a.clone());
                }
            }
        }
        // Same scan source as every member: table, filter, row range.
        let merged = PhysicalPlan {
            query: Query {
                sets,
                aggregates: aggs,
                ..first.phys.query.clone()
            },
            row_range: first.phys.row_range,
        };

        let scan_span = span.child("batch_scan");
        scan_span.attr("plans", batch.len());
        let combined = run_partitioned(
            table,
            &merged,
            self.workers(),
            Some(&self.exec_metrics),
            &scan_span,
        );
        drop(scan_span);
        let combined = match combined {
            Ok(c) => c,
            Err(_) => {
                // A merged-scan failure (e.g. one member aggregates a
                // bad column) must not take down its batch-mates.
                for member in batch {
                    results.insert(
                        member.fingerprint.clone(),
                        self.execute_single(table, &member.phys, span),
                    );
                }
                return;
            }
        };
        self.engine.database().record_stats(&combined.scan_stats());
        self.record_op(
            format!("batch_scan({} plans)", batch.len()),
            ExecStats {
                cache: CacheOutcome::Miss,
                ..combined.scan_stats()
            },
        );
        StatCounters::add(&self.stats.batch_scans, 1);
        StatCounters::add(&self.stats.batched_plans, batch.len() as u64);

        for member in batch {
            let entry = match combined.project_for(&member.phys) {
                Ok(projected) => self.finalize_and_cache(
                    &member.fingerprint,
                    source_key(&member.phys),
                    table,
                    &member.phys,
                    Arc::new(projected),
                ),
                // Projection cannot fail for states built from the
                // member union, but never serve a wrong answer if it
                // does — recompute standalone.
                Err(_) => self.execute_single(table, &member.phys, span),
            };
            results.insert(member.fingerprint.clone(), entry);
        }
    }

    /// Execute one plan standalone (row-partitioned), record its cost,
    /// and cache its state.
    fn execute_single(
        &self,
        table: &Arc<Table>,
        phys: &PhysicalPlan,
        span: &Span,
    ) -> DbResult<Arc<PlanOutput>> {
        let scan_span = span.child("scan");
        let partial = run_partitioned(
            table,
            phys,
            self.workers(),
            Some(&self.exec_metrics),
            &scan_span,
        )?;
        drop(scan_span);
        self.engine.database().record_stats(&partial.scan_stats());
        self.record_op(
            "scan",
            ExecStats {
                cache: CacheOutcome::Miss,
                ..partial.scan_stats()
            },
        );
        self.finalize_and_cache(
            &phys.fingerprint(),
            source_key(phys),
            table,
            phys,
            Arc::new(partial),
        )
    }

    /// Incrementally refresh one cached state to `table`'s current
    /// version: execute `phys` over only the `delta` rows, merge into
    /// the cached state (partition order: cached prefix first, delta
    /// second — exactly a sequential scan's row order), re-stamp the
    /// entry, and return the refreshed output. Only the delta scan is
    /// charged to the DBMS cost counters; no full-table scan happens on
    /// this path. Returns `None` if the delta execution or merge failed
    /// — the caller falls back to a full recompute, never serving a
    /// wrong answer.
    fn refresh_into_cache(
        &self,
        fingerprint: &str,
        phys: &PhysicalPlan,
        table: &Arc<Table>,
        state: &CachedState,
        delta: (usize, usize),
        span: &Span,
    ) -> Option<Arc<PlanOutput>> {
        let refresh_span = span.child("refresh");
        refresh_span.attr("delta_rows", delta.1.saturating_sub(delta.0));
        if delta.0 == delta.1 {
            // A version bump without new rows (empty append): the state
            // is already exact — re-stamp it without any scan.
            StatCounters::add(&self.stats.refreshes, 1);
            self.record_op("refresh_restamp", cache_only_stats(CacheOutcome::Refreshed));
            if self.config.cache_capacity > 0 {
                let evicted = self.cache.lock_recovered().insert(
                    fingerprint.to_string(),
                    source_key(phys),
                    table.version(),
                    phys.clone(),
                    state.clone(),
                );
                StatCounters::add(&self.stats.inserts, 1);
                StatCounters::add(&self.stats.evictions, evicted);
            }
            return Some(state.output.clone());
        }
        let merged = (|| -> DbResult<PartialAggState> {
            let delta_state = phys.execute_partial(table, delta)?;
            let delta_stats = delta_state.scan_stats();
            let mut merged = (*state.partial).clone();
            merged.merge(delta_state, table)?;
            self.engine.database().record_stats(&delta_stats);
            self.record_op(
                "refresh",
                ExecStats {
                    cache: CacheOutcome::Refreshed,
                    ..delta_stats
                },
            );
            Ok(merged)
        })();
        match merged {
            Ok(merged) => {
                StatCounters::add(&self.stats.refreshes, 1);
                StatCounters::add(&self.stats.refresh_rows, (delta.1 - delta.0) as u64);
                self.finalize_and_cache(
                    fingerprint,
                    source_key(phys),
                    table,
                    phys,
                    Arc::new(merged),
                )
                .ok()
            }
            Err(_) => None,
        }
    }

    /// Eager maintenance after [`Service::append_rows`]: bring every
    /// cached entry of `table` up to the new version immediately, so
    /// the next probe is an exact hit. Entries that cannot be refreshed
    /// (policy fallback or a refresh failure) are dropped and will
    /// recompute on their next probe. Scans run outside the cache lock;
    /// re-stamping is version-guarded, so a racing lazy refresh or a
    /// newer append can never be overwritten with a *wrong* state —
    /// at worst an older (still version-stamped, still correct) one
    /// that the next probe refreshes again.
    fn refresh_table_entries(&self, table: &Arc<Table>) {
        let affected = self
            .cache
            .lock_recovered()
            .stale_entries_for(table.name(), table.version());
        for (key, old_version, phys, state) in affected {
            let refreshed = match self.config.refresh.decide(table, old_version) {
                RefreshDecision::Incremental { delta } => self
                    .refresh_into_cache(&key, &phys, table, &state, delta, &Span::none())
                    .is_some(),
                RefreshDecision::Recompute(_) => false,
            };
            if !refreshed {
                self.cache
                    .lock_recovered()
                    .remove_if_version(&key, old_version);
                StatCounters::add(&self.stats.invalidations, 1);
                StatCounters::add(&self.stats.refresh_fallbacks, 1);
            }
        }
    }

    /// Finalize one executed state — the output every requester of this
    /// plan is handed — and cache `(unfinalized state, output memo,
    /// plan)` under `(fingerprint, table version)`, so exact hits serve
    /// a result copy, covering projections reuse the state, and appends
    /// can refresh it incrementally.
    fn finalize_and_cache(
        &self,
        fingerprint: &str,
        source: String,
        table: &Table,
        phys: &PhysicalPlan,
        partial: Arc<PartialAggState>,
    ) -> DbResult<Arc<PlanOutput>> {
        let output = Arc::new((*partial).clone().finalize(table)?);
        if self.config.cache_capacity > 0 {
            let evicted = self.cache.lock_recovered().insert(
                fingerprint.to_string(),
                source,
                table.version(),
                phys.clone(),
                CachedState {
                    partial,
                    output: output.clone(),
                },
            );
            StatCounters::add(&self.stats.inserts, 1);
            StatCounters::add(&self.stats.evictions, evicted);
        }
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memdb::{AggFunc, ColumnDef, DataType, Schema, Value};

    fn state_for(db: &Database, group_by: &str) -> (CachedState, PhysicalPlan) {
        let table = db.table("t").unwrap();
        let phys = LogicalPlan::scan("t")
            .aggregate(vec![group_by.into()], vec![AggSpec::new(AggFunc::Sum, "m")])
            .lower()
            .unwrap();
        let partial = phys.execute_partial(&table, (0, table.num_rows())).unwrap();
        let output = partial.clone().finalize(&table).unwrap();
        (
            CachedState {
                partial: Arc::new(partial),
                output: Arc::new(output),
            },
            phys,
        )
    }

    fn tiny_db() -> Database {
        let schema = Schema::new(vec![
            ColumnDef::dimension("d", DataType::Str),
            ColumnDef::dimension("e", DataType::Str),
            ColumnDef::measure("m", DataType::Float64),
        ])
        .unwrap();
        let mut t = memdb::Table::new("t", schema);
        for i in 0..10 {
            t.push_row(vec![
                Value::from(format!("d{}", i % 3)),
                Value::from(format!("e{}", i % 2)),
                Value::Float(i as f64),
            ])
            .unwrap();
        }
        let db = Database::new();
        db.register(t);
        db
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let db = tiny_db();
        let (s, phys) = state_for(&db, "d");
        let mut cache = LruCache::new(2);
        let ins = |c: &mut LruCache, key: &str, s: CachedState| {
            c.insert(key.into(), "src".into(), 1, phys.clone(), s)
        };
        assert_eq!(ins(&mut cache, "a", s.clone()), 0);
        assert_eq!(ins(&mut cache, "b", s.clone()), 0);
        // Touch "a" so "b" is the LRU victim.
        assert!(matches!(cache.lookup("a", 1), Lookup::Hit(_)));
        assert_eq!(ins(&mut cache, "c", s.clone()), 1);
        assert!(matches!(cache.lookup("b", 1), Lookup::Miss));
        assert!(matches!(cache.lookup("a", 1), Lookup::Hit(_)));
        assert!(matches!(cache.lookup("c", 1), Lookup::Hit(_)));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_capacity_zero_caches_nothing() {
        let db = tiny_db();
        let (s, phys) = state_for(&db, "d");
        let mut cache = LruCache::new(0);
        assert_eq!(cache.insert("a".into(), "src".into(), 1, phys, s), 0);
        assert!(matches!(cache.lookup("a", 1), Lookup::Miss));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn outdated_versions_are_reported_not_served() {
        let db = tiny_db();
        let (s, phys) = state_for(&db, "d");
        let mut cache = LruCache::new(4);
        cache.insert("a".into(), "src".into(), 1, phys, s);
        // A version mismatch is reported with the stamped version (the
        // caller refreshes or removes); the entry stays until then.
        assert!(matches!(
            cache.lookup("a", 2),
            Lookup::Outdated { version: 1, .. }
        ));
        assert_eq!(cache.len(), 1);
        // Version-guarded removal: a wrong expected version is a no-op,
        // the right one drops the entry.
        cache.remove_if_version("a", 2);
        assert_eq!(cache.len(), 1);
        cache.remove_if_version("a", 1);
        assert!(matches!(cache.lookup("a", 2), Lookup::Miss));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn stale_entries_for_lists_only_other_versions_of_the_table() {
        let db = tiny_db();
        let (s, phys) = state_for(&db, "d");
        let mut cache = LruCache::new(8);
        cache.insert("old".into(), "src".into(), 1, phys.clone(), s.clone());
        cache.insert("cur".into(), "src".into(), 2, phys.clone(), s.clone());
        let stale = cache.stale_entries_for("t", 2);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].0, "old");
        assert_eq!(stale[0].1, 1);
        assert!(cache.stale_entries_for("other", 2).is_empty());
    }

    /// If the leader unwinds mid-execution, its guard must still close
    /// and publish the batch so joiners error out instead of blocking
    /// on the condvar forever.
    #[test]
    fn leader_guard_releases_joiners_on_unwind() {
        let batch = Batch::default();
        assert!(lock_state(&batch).open);
        {
            let _guard = LeaderGuard {
                batch: &batch,
                armed: true,
            };
            // Dropped while armed — exactly what an unwind does.
        }
        let st = lock_state(&batch);
        assert!(st.done, "joiners must be released");
        assert!(!st.open, "no new joiners after the failure");
        // With no published results, joiners map their fingerprints to
        // the leader-failed error (see `Batcher::submit`).
        assert!(st.results.is_empty());
    }

    #[test]
    fn source_keys_separate_incompatible_scans() {
        let plain = LogicalPlan::scan("t")
            .aggregate(vec!["d".into()], vec![AggSpec::new(AggFunc::Sum, "m")])
            .lower()
            .unwrap();
        let filtered = LogicalPlan::scan("t")
            .filter(Expr::col("e").eq("e0"))
            .aggregate(vec!["d".into()], vec![AggSpec::new(AggFunc::Sum, "m")])
            .lower()
            .unwrap();
        let sliced = LogicalPlan::scan("t")
            .aggregate(vec!["d".into()], vec![AggSpec::new(AggFunc::Sum, "m")])
            .sliced(0, 5)
            .lower()
            .unwrap();
        assert_ne!(source_key(&plain), source_key(&filtered));
        assert_ne!(source_key(&plain), source_key(&sliced));
        // Same source, different shape: mergeable.
        let other_group = LogicalPlan::scan("t")
            .aggregate(vec!["e".into()], vec![AggSpec::count_star()])
            .lower()
            .unwrap();
        assert_eq!(source_key(&plain), source_key(&other_group));
    }

    fn recommend_once(service: &Service) {
        let analyst = crate::querygen::AnalystQuery::new("t", Some(Expr::col("e").eq("e0")));
        service.recommend(&analyst).unwrap();
    }

    /// The legacy [`CacheStats`] snapshot and the registry's
    /// `service.cache.*` counters are the same cells — equal by
    /// construction, for any workload.
    #[test]
    fn metrics_mirror_cache_stats() {
        let service = Service::with_defaults(Arc::new(tiny_db()));
        recommend_once(&service);
        recommend_once(&service);
        let stats = service.cache_stats();
        let metrics = service.metrics();
        let counter = |name: &str| {
            *metrics
                .counters
                .get(name)
                .unwrap_or_else(|| panic!("counter {name} not registered"))
        };
        assert!(stats.hits > 0, "second recommend must hit the cache");
        assert_eq!(counter("service.cache.hits"), stats.hits);
        assert_eq!(counter("service.cache.misses"), stats.misses);
        assert_eq!(counter("service.cache.inserts"), stats.inserts);
        assert_eq!(counter("service.cache.evictions"), stats.evictions);
        // The execution layer reports into the same snapshot.
        assert!(counter("exec.queries") > 0);
        assert!(counter("exec.rows_scanned") > 0);
        // And the per-request latency histogram saw both requests.
        let h = metrics
            .histograms
            .get("service.recommend_ns")
            .expect("latency histogram registered");
        assert_eq!(h.count, 2);
    }

    /// With tracing enabled, a cold recommend records a span tree
    /// rooted at `recommend` with per-partition `execute_partial`
    /// leaves under the engine's `execute` phase.
    #[test]
    fn trace_records_span_tree_for_cold_recommend() {
        let service = Service::with_defaults(Arc::new(tiny_db()));
        assert!(!service.trace_enabled());
        recommend_once(&service);
        assert!(
            service.last_trace().is_none(),
            "disabled tracer records nothing"
        );

        service.set_trace_enabled(true);
        let session = service.session();
        // A filter the warm-up never used, so this request is cold and
        // actually scans (a warm request has no execute_partial work).
        let analyst = crate::querygen::AnalystQuery::new("t", Some(Expr::col("e").eq("e1")));
        session.recommend(&analyst).unwrap();
        let trace = session.last_trace().expect("trace recorded");
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names[0], "recommend");
        for phase in ["prune", "optimize", "execute", "process", "execute_partial"] {
            assert!(names.contains(&phase), "missing span {phase} in {names:?}");
        }
        // Parent links form a tree under the root.
        for (i, span) in trace.spans.iter().enumerate() {
            match span.parent {
                None => assert_eq!(i, 0),
                Some(p) => assert!(p < i),
            }
            assert!(span.end_ns >= span.start_ns);
        }
        // The root carries the session tag last_trace filtered by.
        assert!(trace.spans[0]
            .attrs
            .iter()
            .any(|(k, v)| k == "session" && *v == session.id().to_string()));

        // Another session's request is not *this* session's last trace.
        let other = service.session();
        other.recommend(&analyst).unwrap();
        let still = session.last_trace().expect("older trace still in ring");
        assert!(still.spans[0]
            .attrs
            .iter()
            .any(|(k, v)| k == "session" && *v == session.id().to_string()));
    }
}
