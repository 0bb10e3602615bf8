//! Load generators: closed-loop analysts and the open-loop writer.

use std::sync::Arc;
use std::time::{Duration, Instant};

use memdb::Table;
use rand::rngs::StdRng;
use seedb_core::{AnalystQuery, Session};
use seedb_obs::{Span, Tracer};

use crate::data::{digest, user_bytes, Stream, TABLE};
use crate::trace::{fingerprint, Replay, CHECKPOINT_ATTR};

/// A served request kept for the cold spot-check: the query, the exact
/// table version it was answered from, and the service's top-k.
pub struct Sample {
    /// The analyst query.
    pub analyst: AnalystQuery,
    /// The table snapshot the service answered from.
    pub table: Arc<Table>,
    /// The service's top-k as `(label, utility bits)`.
    pub top_k: Vec<(String, u64)>,
}

/// When a load generator runs, and whether its second half is traced.
#[derive(Clone, Copy)]
pub struct Window {
    /// Start of the measured window.
    pub start: Instant,
    /// From here on requests are traced (`None`: never).
    pub traced_from: Option<Instant>,
    /// End of the measured window.
    pub deadline: Instant,
}

impl Window {
    fn traced(&self, at: Instant) -> bool {
        self.traced_from.is_some_and(|t| at >= t)
    }
}

/// What one closed-loop analyst observed.
#[derive(Default)]
pub struct AnalystOut {
    /// Request latencies outside the traced half, ms.
    pub latency_ms: Vec<f64>,
    /// `service.recommend` span durations in the traced half, ms.
    pub traced_ms: Vec<f64>,
    /// Requests issued.
    pub attempted: u64,
    /// Requests that returned `Err` or a non-empty `errors` list.
    pub failed: u64,
    /// Requests kept for the cold spot-check.
    pub samples: Vec<Sample>,
}

/// Tracing hooks of the traced half.
#[derive(Clone, Copy)]
pub struct Tracing<'a> {
    /// Where spans go.
    pub tracer: &'a Tracer,
    /// The layer-by-layer replay.
    pub replay: &'a Replay,
}

/// One analyst: issue the next request as soon as the previous one
/// returns, until the window closes. Requests at exponentially spaced
/// indexes (0, 2, 4, 8, … or the next exact one after each) are kept
/// for the cold spot-check.
pub fn analyst(
    session: &Session,
    stream: &Stream,
    mut rng: StdRng,
    window: Window,
    tracing: Option<Tracing<'_>>,
) -> AnalystOut {
    let db = session.service().database().clone();
    let mut out = AnalystOut::default();
    let mut next_sample = 0;
    loop {
        let now = Instant::now();
        if now >= window.deadline {
            break;
        }
        let analyst = stream.next(&mut rng);
        let Ok(table) = db.table(TABLE) else {
            out.attempted += 1;
            out.failed += 1;
            continue;
        };
        let traced = tracing.filter(|_| window.traced(now));
        let root = traced.map(|t| t.tracer.root_span("request"));
        let call = root.as_ref().map(|r| r.child("service.recommend"));
        let t0 = Instant::now();
        let result = session.recommend(&analyst);
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        drop(call);
        if traced.is_some() {
            out.traced_ms.push(elapsed_ms);
        } else {
            out.latency_ms.push(elapsed_ms);
        }
        let index = out.attempted;
        out.attempted += 1;
        let rec = match result {
            Ok(rec) if rec.errors.is_empty() => rec,
            _ => {
                out.failed += 1;
                continue;
            }
        };
        // The service resolves the table first thing, so `table` is its
        // input unless an append landed in between. Versions only grow:
        // when the version is unchanged after the call, it surely is.
        let exact = db
            .table(TABLE)
            .is_ok_and(|t| t.version() == table.version());
        let top_k = fingerprint(&rec.views);
        if let (Some(t), Some(root)) = (traced, root.as_ref()) {
            t.replay
                .run(&analyst, &table, exact.then_some(&top_k[..]), root);
        }
        if exact && index >= next_sample {
            next_sample = 2 * index.max(1);
            out.samples.push(Sample {
                analyst,
                table,
                top_k,
            });
        }
    }
    out
}

/// The open-loop writer's schedule and inputs.
pub struct WriterPlan<'a> {
    /// Rows cycled through, batch after batch.
    pub pool: &'a Table,
    /// Rows per append.
    pub batch_rows: usize,
    /// Appends per second.
    pub rate_per_s: f64,
    /// Rows in the table when the window opens.
    pub initial_rows: usize,
}

/// What the writer observed.
#[derive(Default)]
pub struct WriterOut {
    /// Append latencies outside the traced half, timed from when each
    /// append was due, ms.
    pub latency_ms: Vec<f64>,
    /// How late each append outside the traced half was sent, ms.
    pub late_ms: Vec<f64>,
    /// Acknowledged batches: `(first row, rows, digest)`.
    pub acked: Vec<(usize, usize, u64)>,
    /// Appends issued.
    pub attempted: u64,
    /// Appends that returned `Err`.
    pub failed: u64,
    /// User bytes acknowledged.
    pub user_bytes: u64,
}

/// The writer: one fixed-size append every `1 / rate` seconds, due on a
/// fixed schedule whatever the previous append cost. In the traced half
/// each append is a root span `append` whose child `store.append` wraps
/// `Session::append_rows` — under the lazy refresh policy the benchmark
/// keeps from `ServiceConfig::recommended()`, only the store's append —
/// and carries the attribute `checkpoint` when `store.checkpoints`
/// advanced during the call. Latencies are kept from the untraced half
/// only, where no replay competes with the writer.
pub fn writer(
    session: &Session,
    plan: &WriterPlan<'_>,
    window: Window,
    tracer: Option<&Tracer>,
) -> WriterOut {
    let checkpoints = session
        .service()
        .database()
        .obs()
        .registry()
        .register_counter("store.checkpoints");
    let period = Duration::from_secs_f64(1.0 / plan.rate_per_s);
    let mut out = WriterOut::default();
    let mut next_row = plan.initial_rows;
    for i in 0u32.. {
        let due = window.start + period * i;
        if due >= window.deadline {
            break;
        }
        let rows: Vec<_> = (0..plan.batch_rows)
            .map(|j| {
                plan.pool
                    .row((i as usize * plan.batch_rows + j) % plan.pool.num_rows())
            })
            .collect();
        let (sum, bytes) = (digest(&rows), user_bytes(&rows));
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        out.attempted += 1;
        let traced = tracer.filter(|_| window.traced(sent));
        let root = traced.map_or_else(Span::none, |t| t.root_span("append"));
        let span = root.child("store.append");
        let before = checkpoints.get();
        let result = session.append_rows(TABLE, rows);
        if checkpoints.get() != before {
            span.attr(CHECKPOINT_ATTR, true);
        }
        drop(span);
        drop(root);
        if traced.is_none() {
            out.late_ms.push((sent - due).as_secs_f64() * 1e3);
            out.latency_ms
                .push((Instant::now() - due).as_secs_f64() * 1e3);
        }
        match result {
            Ok(_) => {
                out.acked.push((next_row, plan.batch_rows, sum));
                next_row += plan.batch_rows;
                out.user_bytes += bytes;
            }
            Err(_) => out.failed += 1,
        }
    }
    out
}
