//! Experiment S2f — parallel query execution (§3.3): "as the number of
//! queries executed in parallel increases, the total latency decreases at
//! the cost of increased per query execution time."
//!
//! Two axes of parallelism:
//!
//! * `total_latency` — inter-plan: total recommendation latency vs
//!   worker count, holding the plan fixed (basic un-combined plan =
//!   many independent queries, the regime where batch parallelism
//!   matters most). The per-query-time side of the trade-off is
//!   reported by the `experiments` binary.
//! * `phased` — intra-plan: phase-sliced execution with
//!   confidence-interval pruning over a 1M-row table, sequential vs
//!   partitioned across row workers with mergeable partial aggregates
//!   (`memdb::run_partitioned`). Outcomes are byte-identical for every
//!   worker count; only the wall-clock should move.

use std::collections::HashMap;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seedb_bench::workload;
use seedb_core::{
    enumerate_views, run_phased_with_group_counts, FunctionSet, Metric, PhasedConfig, SeeDb,
    SeeDbConfig,
};

fn bench_parallelism(c: &mut Criterion) {
    let w = workload(60_000, 6, 10, 2, 3);
    let mut group = c.benchmark_group("parallelism/total_latency");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        let mut config = SeeDbConfig::basic().with_k(5);
        config.execution = config.execution.with_workers(workers);
        let seedb = SeeDb::new(w.db.clone(), config);
        group.bench_with_input(BenchmarkId::from_parameter(workers), &seedb, |b, s| {
            b.iter(|| s.recommend(&w.analyst).expect("recommendation runs"))
        });
    }
    group.finish();
}

/// BENCH_parallelism's phased axis: phased-parallel must beat
/// sequential phased wall-clock on a ≥ 1M-row table with ≥ 4 workers.
fn bench_phased_partitioned(c: &mut Criterion) {
    let w = workload(1_000_000, 6, 10, 2, 5);
    let table = w.db.table("synthetic").unwrap();
    let views: Vec<_> = enumerate_views(table.schema(), &FunctionSet::standard())
        .into_iter()
        .filter(|v| v.dimension != "d0")
        .collect();
    // Precompute the confidence bound's per-dimension group counts the
    // way the engine does from its Phase-1 metadata, so the bench
    // measures the phase-sliced executor, not a stats pass.
    let mut counts: HashMap<String, usize> = HashMap::new();
    for v in &views {
        if !counts.contains_key(&v.dimension) {
            let s = memdb::ColumnStats::collect(&v.dimension, table.column(&v.dimension).unwrap());
            counts.insert(v.dimension.clone(), s.group_count());
        }
    }
    let mut group = c.benchmark_group("parallelism/phased");
    group.sample_size(10);
    for workers in [1usize, 4, 8] {
        let cfg = PhasedConfig {
            phases: 10,
            k: 5,
            delta: 0.05,
            min_phases: 2,
            metric: Metric::EarthMovers,
            workers,
        };
        group.bench_with_input(BenchmarkId::from_parameter(workers), &cfg, |b, cfg| {
            b.iter(|| {
                run_phased_with_group_counts(&table, &w.analyst, &views, cfg, &counts)
                    .expect("phased run")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallelism, bench_phased_partitioned);
criterion_main!(benches);
