//! End-to-end SeeDB benchmark.
//!
//! One command per workload generates its inputs from a seed, drives the
//! public [`Service`]/[`Session`] API from a single process, checks the
//! answers, and prints every metric by name with its unit:
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload explore --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports per-layer metrics (see [`trace`]).
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! stamps the host and build.
//!
//! Every workload serves one synthetic table from a durable directory
//! under `.bench_build/` with `ServiceConfig::recommended()`, minus
//! access-frequency pruning (its answer would otherwise depend on how
//! concurrent clients interleave).

pub mod data;
pub mod host;
pub mod load;
pub mod trace;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memdb::{Database, DurabilityConfig, Table};
use seedb_core::{SeeDb, Service, ServiceConfig};
use seedb_obs::{MetricsSnapshot, TraceData};
use serde_json::{json, Value};

use crate::data::{digest_rows, hot_pool, rng_for, Shape, Stream, TABLE};
use crate::host::{peak_rss_mb, Stamp};
use crate::load::{analyst, writer, AnalystOut, Sample, Tracing, Window, WriterOut, WriterPlan};
use crate::trace::{fingerprint, layers, tracer, Replay, ReplayCounts, CHECKPOINT_SUFFIX};

/// The workloads, each chosen to stress a different layer. Two, so that
/// each run can measure long enough to average out a shared host's
/// drifting speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two analysts never repeat a predicate over a wide table: every
    /// plan misses, so scans, the optimizer and the batcher dominate.
    /// Its traced run also prices the phased layer on each request.
    Explore,
    /// An open-loop durable writer beside one analyst on a hot set:
    /// WAL, fsync, checkpoints, incremental refresh and recovery.
    Ingest,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Explore, Workload::Ingest];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::Ingest => "ingest",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: `Full` for measurement, `Tiny` for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// A few thousand rows, for a fast functional check.
    Tiny,
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Scratch directory for the durable store (removed afterwards).
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A run's result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted: requests, appends and reopens.
    pub attempted: u64,
    /// Operations that failed or were answered wrongly.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics = Value::Object(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        json!({"value": m.value, "unit": m.unit}),
                    )
                })
                .collect(),
        );
        to_line(&json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }))
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The stamp line printed before the result.
pub fn stamp_json(stamp: &Stamp, opts: &Options) -> String {
    to_line(&json!({"stamp": {
        "workload": opts.workload.name(),
        "seed": opts.seed,
        "seconds": opts.seconds,
        "trace": u8::from(opts.trace),
        "nproc": stamp.nproc,
        "cpu": stamp.cpu,
        "rustc": stamp.rustc,
        "profile": stamp.profile,
        "git_rev": stamp.git_rev,
    }}))
}

fn to_line(v: &Value) -> String {
    serde_json::to_string(v).expect("a JSON value always serializes")
}

/// How each workload is shaped.
struct Plan {
    shape: Shape,
    analysts: usize,
    /// Hot-pool size; 0 for the distinct-predicate stream.
    hot: usize,
    /// The traced run also replays the phased layer.
    replay_phased: bool,
    /// `(appends per second, rows per append)` of the open-loop writer.
    writer: Option<(f64, usize)>,
}

impl Plan {
    fn of(workload: Workload, scale: Scale) -> Plan {
        let rows = |full: usize| match scale {
            Scale::Full => full,
            Scale::Tiny => 3_000,
        };
        match workload {
            // Wide enough that a request's shared scan costs more than its
            // metadata; small enough that the 512-entry cache fills and
            // evicts within one window (each state holds ~1.3 MB).
            Workload::Explore => Plan {
                shape: Shape {
                    rows: rows(10_000),
                    dims: 16,
                    card: 12,
                    measures: 2,
                },
                analysts: 2,
                hot: 0,
                replay_phased: true,
                writer: None,
            },
            Workload::Ingest => Plan {
                shape: Shape {
                    rows: rows(100_000),
                    dims: 8,
                    card: 10,
                    measures: 2,
                },
                analysts: 1,
                // Two keys, so each is asked again well within the
                // table's 64-version append lineage (1.6 s of appends)
                // even on a slow host. A rarely asked key falls out of it
                // and is recomputed in full; with such requests near 5%
                // of all, the p95 would flip between the two costs from
                // run to run.
                hot: 2,
                replay_phased: false,
                // Several checkpoints of the 1 MiB WAL per window while
                // the table grows by about half.
                writer: Some((40.0, 24)),
            },
        }
    }

    fn config(&self) -> ServiceConfig {
        let mut config = ServiceConfig::recommended();
        config.seedb.pruning.access_frequency = false;
        config
    }

    fn stream(&self, seed: u64) -> Stream {
        if self.hot > 0 {
            Stream::hot(hot_pool(seed, &self.shape, self.hot))
        } else {
            Stream::Distinct { shape: self.shape }
        }
    }
}

/// Times the benchmark sets up per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// At most this many reopens per run; `reopen_ms` is their median.
const REOPENS: usize = 64;
/// No further reopen starts once the reopens have taken this long (a
/// warm start that re-executes hundreds of spilled plans takes seconds).
/// Host speed drifts over seconds, so a shorter budget samples it once
/// and the median moved with it from run to run.
const REOPEN_BUDGET: Duration = Duration::from_secs(10);
/// `Database::open` timings per traced run; `store.open_ms` is their median.
const STORE_OPENS: usize = 3;
/// Requests re-answered by a cold, cache-free `SeeDb` per run.
const SPOT_CHECKS: usize = 8;
/// Distinct-predicate requests served during set-up.
const WARMUP_REQUESTS: u64 = 2;
/// Seed offset of the rows the writer appends.
const APPEND_POOL_SEED: u64 = 1 << 32;
/// RNG stream of the set-up warm-up requests (analysts use `0..analysts`).
const WARMUP_STREAM: u64 = 1 << 33;

/// A set-up service and what it was built from.
struct Env {
    dir: PathBuf,
    service: Service,
    pool: Option<Table>,
    initial_rows: usize,
}

fn setup(plan: &Plan, opts: &Options, stream: &Stream, dir: &Path) -> Result<Env, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    let table = plan.shape.spec(opts.seed).generate();
    let initial_rows = table.num_rows();
    let pool = plan.writer.map(|(rate, batch)| {
        let appends = (rate * opts.seconds).ceil() as usize + 1;
        plan.shape.append_pool(
            opts.seed ^ APPEND_POOL_SEED,
            (appends * batch).min(plan.shape.rows),
        )
    });
    let db = Arc::new(Database::new());
    db.register(table);
    db.save_with(dir, DurabilityConfig::recommended())
        .map_err(|e| format!("persist: {e}"))?;
    let service = Service::new(db, plan.config());
    let warmup: Vec<_> = match stream {
        Stream::Hot { pool, .. } => pool.clone(),
        _ => {
            let mut rng = rng_for(opts.seed, WARMUP_STREAM);
            (0..WARMUP_REQUESTS)
                .map(|_| stream.next(&mut rng))
                .collect()
        }
    };
    for q in &warmup {
        let rec = service
            .recommend(q)
            .map_err(|e| format!("warm-up {}: {e}", q.to_sql()))?;
        if !rec.errors.is_empty() {
            return Err(format!("warm-up {}: {:?}", q.to_sql(), rec.errors));
        }
    }
    Ok(Env {
        dir: dir.to_path_buf(),
        service,
        pool,
        initial_rows,
    })
}

/// Bytes of the store's checkpointed files (everything but the WAL).
fn store_bytes(dir: &Path) -> u64 {
    fn walk(p: &Path) -> u64 {
        let Ok(entries) = std::fs::read_dir(p) else {
            return 0;
        };
        entries
            .flatten()
            .map(|e| match e.file_type() {
                Ok(t) if t.is_dir() => walk(&e.path()),
                Ok(_) if e.file_name() == "wal.log" => 0,
                Ok(_) => e.metadata().map_or(0, |m| m.len()),
                Err(_) => 0,
            })
            .sum()
    }
    walk(dir)
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // Nearest rank: the smallest sample with at least q of all samples
    // at or below it.
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Re-answer `samples` with a cold, cache-free `SeeDb` over the same
/// table version; count those whose top-k is not byte-identical.
fn spot_check(samples: &[Sample], service: &Service) -> u64 {
    let stride = samples.len().div_ceil(SPOT_CHECKS).max(1);
    let mut mismatches = 0;
    for s in samples.iter().step_by(stride) {
        let db = Arc::new(Database::new());
        db.register((*s.table).clone());
        let cold = SeeDb::new(db, service.seedb_config().clone()).recommend(&s.analyst);
        match cold {
            Ok(rec) if rec.errors.is_empty() && fingerprint(&rec.views) == s.top_k => {}
            _ => mismatches += 1,
        }
    }
    mismatches
}

/// Copy the store directory `from` to `to`, as a crash would leave it.
fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// Count acknowledged batches missing or altered in the reopened table.
fn lost_batches(table: &Table, expected_rows: usize, acked: &[(usize, usize, u64)]) -> u64 {
    if table.num_rows() != expected_rows {
        // Every batch past the surviving row count is unreadable.
        let n = table.num_rows();
        return acked
            .iter()
            .filter(|(lo, len, _)| lo + len > n)
            .count()
            .max(1) as u64;
    }
    acked
        .iter()
        .filter(|(lo, len, sum)| digest_rows(table, *lo, lo + len) != *sum)
        .count() as u64
}

/// Run one workload and report its metrics.
///
/// # Errors
/// A message when set-up, persistence or a reopen fails outright.
pub fn run(opts: &Options) -> Result<Report, String> {
    let plan = Plan::of(opts.workload, opts.scale);
    let stream = plan.stream(opts.seed);
    let work = opts.work_dir.join(format!(
        "{}-{}-{}",
        opts.workload.name(),
        opts.seed,
        std::process::id()
    ));
    let result = run_in(&plan, &stream, opts, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

/// Everything one run observed, before it becomes metrics.
struct Observed {
    analysts: Vec<AnalystOut>,
    written: WriterOut,
    window_s: f64,
    setup_s: Vec<f64>,
    reopen_ms: Vec<f64>,
    store_open_ms: Vec<f64>,
    /// `Database::open` of the crash copy, which replays the WAL.
    recover_ms: f64,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    /// Growth of the checkpointed files over the window.
    ckpt_bytes: u64,
    traces: Vec<TraceData>,
    counts: ReplayCounts,
    attempted: u64,
    failed: u64,
}

impl Observed {
    fn requests(&self) -> f64 {
        self.analysts.iter().map(|a| a.attempted).sum::<u64>() as f64
    }

    /// Untraced request latencies, sorted.
    fn latency_ms(&self) -> Vec<f64> {
        sorted(
            self.analysts
                .iter()
                .flat_map(|a| a.latency_ms.iter().copied())
                .collect(),
        )
    }

    fn delta(&self, counter: &str) -> f64 {
        let get = |s: &MetricsSnapshot| s.counters.get(counter).copied().unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before)) as f64
    }
}

fn run_in(plan: &Plan, stream: &Stream, opts: &Options, work: &Path) -> Result<Report, String> {
    let o = observe(plan, stream, opts, work)?;
    let metrics = if opts.trace {
        per_layer(&o)
    } else {
        end_to_end(&o)
    };
    Ok(Report {
        correct: o.failed == 0,
        attempted: o.attempted,
        failed: o.failed,
        metrics,
    })
}

fn observe(plan: &Plan, stream: &Stream, opts: &Options, work: &Path) -> Result<Observed, String> {
    // Set-up: generate, register, persist and warm up, several times.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut env = None;
    for i in 0..SETUPS {
        if let Some(Env { dir, .. }) = env.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let t0 = Instant::now();
        env = Some(setup(plan, opts, stream, &work.join(format!("setup-{i}")))?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Env {
        dir,
        service,
        pool,
        initial_rows,
    } = env.ok_or("no set-up ran")?;
    let config = service.config().clone();

    // The measured window; a traced run traces its second half.
    let tracer = tracer();
    let replay = Replay::new(config.seedb.clone(), plan.replay_phased);
    let tracing = opts.trace.then_some(Tracing {
        tracer: &tracer,
        replay: &replay,
    });
    let before = service.metrics();
    let bytes_before = store_bytes(&dir);
    let start = Instant::now();
    let seconds = Duration::from_secs_f64(opts.seconds);
    let window = Window {
        start,
        traced_from: opts.trace.then(|| start + seconds / 2),
        deadline: start + seconds,
    };
    let (mut analysts, written) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.analysts as u64)
            .map(|who| {
                let session = service.session();
                let rng = rng_for(opts.seed, who);
                s.spawn(move || analyst(&session, stream, rng, window, tracing))
            })
            .collect();
        // The writer runs on this thread, so a run never has more
        // client threads than analysts + 1.
        let written = pool.as_ref().zip(plan.writer).map(|(pool, (rate, batch))| {
            let wplan = WriterPlan {
                pool,
                batch_rows: batch,
                rate_per_s: rate,
                initial_rows,
            };
            writer(
                &service.session(),
                &wplan,
                window,
                opts.trace.then_some(&tracer),
            )
        });
        let outs: Vec<AnalystOut> = handles
            .into_iter()
            .map(|h| h.join().expect("analyst thread panicked"))
            .collect();
        (outs, written.unwrap_or_default())
    });
    let window_s = start.elapsed().as_secs_f64();
    let after = service.metrics();
    let ckpt_bytes = store_bytes(&dir).saturating_sub(bytes_before);

    // Recovery: the directory as the window left it holds every
    // acknowledged append in a checkpoint or in the fsynced WAL. A copy
    // of it is opened as after a crash, through WAL replay, and every
    // acknowledged batch must be readable there.
    let expected_rows = initial_rows + written.acked.iter().map(|b| b.1).sum::<usize>();
    let crash = work.join("crash");
    copy_dir(&dir, &crash).map_err(|e| format!("copy the store: {e}"))?;
    let t0 = Instant::now();
    let recovered = Database::open_with(&crash, DurabilityConfig::recommended());
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let lost = match recovered.and_then(|db| db.table(TABLE)) {
        Ok(t) => lost_batches(&t, expected_rows, &written.acked),
        Err(_) => 1,
    };
    let _ = std::fs::remove_dir_all(&crash);

    let mut attempted: u64 =
        analysts.iter().map(|a| a.attempted).sum::<u64>() + written.attempted + 1;
    let mut failed: u64 = analysts.iter().map(|a| a.failed).sum::<u64>() + written.failed + lost;
    let samples: Vec<Sample> = analysts
        .iter_mut()
        .flat_map(|a| std::mem::take(&mut a.samples))
        .collect();
    failed += spot_check(&samples, &service);
    let counts = replay.counts();
    failed += counts.mismatches + counts.errors;

    // Shut down cleanly, then restart from the directory; the first
    // reopen also checks that every acknowledged batch survived the
    // shutdown checkpoint.
    service
        .persist(&dir)
        .map_err(|e| format!("persist at shutdown: {e}"))?;
    drop(service);
    let mut reopen_ms = Vec::with_capacity(REOPENS);
    let reopens = Instant::now();
    for i in 0..REOPENS {
        if i > 0 && reopens.elapsed() >= REOPEN_BUDGET {
            break;
        }
        attempted += 1;
        let t0 = Instant::now();
        let reopened = Service::open_with(&dir, config.clone(), DurabilityConfig::recommended());
        reopen_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match reopened {
            Ok(s) if i == 0 => match s.database().table(TABLE) {
                Ok(t) => failed += lost_batches(&t, expected_rows, &written.acked),
                Err(_) => failed += 1,
            },
            Ok(_) => {}
            Err(_) => failed += 1,
        }
    }
    let mut store_open_ms = Vec::new();
    if opts.trace {
        for _ in 0..STORE_OPENS {
            let t0 = Instant::now();
            let opened = Database::open_with(&dir, DurabilityConfig::recommended());
            store_open_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            drop(opened);
        }
    }
    Ok(Observed {
        analysts,
        written,
        window_s,
        setup_s,
        reopen_ms,
        store_open_ms,
        recover_ms,
        before,
        after,
        ckpt_bytes,
        traces: tracer.recent(usize::MAX),
        counts,
        attempted,
        failed,
    })
}

fn end_to_end(o: &Observed) -> Vec<Metric> {
    let latency = o.latency_ms();
    vec![
        metric("recommend_p50_ms", quantile(&latency, 0.5), "ms"),
        metric("recommend_p95_ms", quantile(&latency, 0.95), "ms"),
        metric("recommend_per_s", o.requests() / o.window_s, "1/s"),
        metric("reopen_ms", median(&o.reopen_ms), "ms"),
        metric("setup_s", median(&o.setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
    ]
}

fn per_layer(o: &Observed) -> Vec<Metric> {
    let by = layers(&o.traces);
    let layer = |n: &str| by.get(n).copied().unwrap_or_default();
    let c = &o.counts;
    let replayed = c.requests as f64;
    // Mean time per replayed request in one layer's span.
    let per_replay = |n: &str| ratio(layer(n).total_ns as f64 / 1e6, replayed);
    let requests = o.requests();
    let w = &o.written;
    let acked = w.acked.len() as f64;
    let rows_acked = w.acked.iter().map(|b| b.1).sum::<usize>() as f64;
    let appends = sorted(w.latency_ms.clone());
    let hits = o.delta("service.cache.hits");
    let fallbacks = o.delta("service.cache.refresh_fallbacks");
    let store_open = median(&o.store_open_ms);
    let untraced_p50 = quantile(&o.latency_ms(), 0.5);
    let traced_p50 = median(
        &o.analysts
            .iter()
            .flat_map(|a| a.traced_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    vec![
        metric("metadata.collect_ms", per_replay("metadata.collect"), "ms"),
        metric("metadata.stats_ms", per_replay("metadata.stats"), "ms"),
        metric("metadata.corr_ms", per_replay("metadata.corr"), "ms"),
        metric(
            "metadata.share",
            ratio(
                per_replay("metadata.collect"),
                layer("service.recommend").mean_ms(),
            ),
            "ratio",
        ),
        metric("pruning.prune_ms", per_replay("pruning.prune"), "ms"),
        metric(
            "pruning.kept_frac",
            ratio(c.kept as f64, c.candidates as f64),
            "ratio",
        ),
        metric("optimizer.plan_ms", per_replay("optimizer.plan"), "ms"),
        metric(
            "optimizer.queries_per_request",
            ratio(c.planned_queries as f64, replayed),
            "queries",
        ),
        metric("exec.run_batch_ms", per_replay("exec.run_batch"), "ms"),
        metric(
            "exec.rows_scanned_per_request",
            ratio(o.delta("exec.rows_scanned"), requests),
            "rows",
        ),
        metric(
            "exec.table_scans_per_request",
            ratio(o.delta("exec.table_scans"), requests),
            "scans",
        ),
        metric(
            "processor.process_ms",
            per_replay("processor.process"),
            "ms",
        ),
        metric(
            "service.cache_hit_rate",
            ratio(hits, hits + o.delta("service.cache.misses")),
            "ratio",
        ),
        metric(
            "service.evictions_per_request",
            ratio(o.delta("service.cache.evictions"), requests),
            "entries",
        ),
        metric(
            "service.batched_plans_per_scan",
            ratio(
                o.delta("service.cache.batched_plans"),
                o.delta("service.cache.batch_scans"),
            ),
            "plans",
        ),
        metric(
            "service.refresh_rows_per_append",
            ratio(o.delta("service.cache.refresh_rows"), acked),
            "rows",
        ),
        metric(
            "service.refresh_fallback_frac",
            ratio(fallbacks, fallbacks + o.delta("service.cache.refreshes")),
            "ratio",
        ),
        metric("append_p50_ms", quantile(&appends, 0.5), "ms"),
        metric("append_p99_ms", quantile(&appends, 0.99), "ms"),
        metric("store.append_ms", layer("store.append").mean_ms(), "ms"),
        metric(
            "store.append_ckpt_ms",
            layer(&format!("store.append{CHECKPOINT_SUFFIX}")).mean_ms(),
            "ms",
        ),
        metric(
            "store.fsyncs_per_append",
            ratio(o.delta("store.wal.fsyncs"), o.delta("store.wal.appends")),
            "fsyncs",
        ),
        metric(
            "store.wal_bytes_per_row",
            ratio(o.delta("store.wal.bytes"), rows_acked),
            "B",
        ),
        metric(
            "store.ckpt_bytes_per_user_byte",
            ratio(o.ckpt_bytes as f64, w.user_bytes as f64),
            "ratio",
        ),
        metric("store.open_ms", store_open, "ms"),
        metric("store.recover_ms", o.recover_ms, "ms"),
        metric(
            "service.warm_start_ms",
            median(&o.reopen_ms) - store_open,
            "ms",
        ),
        metric("phased.run_ms", per_replay("phased.run"), "ms"),
        metric(
            "phased.early_pruned_frac",
            ratio(
                c.early_pruned as f64,
                (c.early_pruned + c.phased_survivors) as f64,
            ),
            "ratio",
        ),
        metric(
            "service.recommend_ms",
            layer("service.recommend").mean_ms(),
            "ms",
        ),
        metric("bench.replay_self_ms", layer("replay").mean_self_ms(), "ms"),
        metric(
            "bench.generator_late_ms",
            ratio(w.late_ms.iter().sum(), w.late_ms.len() as f64),
            "ms",
        ),
        metric(
            "bench.trace_overhead_frac",
            ratio(traced_p50 - untraced_p50, untraced_p50),
            "ratio",
        ),
        metric(
            "ops_failed_frac",
            ratio(o.failed as f64, o.attempted as f64),
            "ratio",
        ),
    ]
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}
