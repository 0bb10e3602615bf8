//! Serving-layer tests: the shared partial-aggregate cache and the
//! cross-request scan batcher must be invisible in the results — every
//! cached, batched, or concurrent recommendation is byte-identical to a
//! cold sequential one — while the cost counters prove the sharing
//! actually happened.

use std::sync::Arc;
use std::time::Duration;

use seedb::core::{
    AnalystQuery, Recommendation, RefreshConfig, RefreshMode, SeeDb, SeeDbConfig, Service,
    ServiceConfig,
};
use seedb::memdb::{ColumnDef, DataType, Database, Expr, SampleSpec, Schema, Table, Value};

/// A fact table with planted structure: d0 selects subsets, d1 skews
/// per subset (deviation signal), d2/d3 are balanced noise.
fn fact_table(rows: usize) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::dimension("d0", DataType::Str),
        ColumnDef::dimension("d1", DataType::Str),
        ColumnDef::dimension("d2", DataType::Str),
        ColumnDef::dimension("d3", DataType::Str),
        ColumnDef::measure("m0", DataType::Float64),
        ColumnDef::measure("m1", DataType::Float64),
    ])
    .unwrap();
    let mut t = Table::new("facts", schema);
    for i in 0..rows {
        let sub = i % 4;
        // d1 skews strongly inside subset 0, mildly inside subset 1.
        let d1 = match sub {
            0 => i % 10 / 3,  // mostly 0..2
            1 => (i / 2) % 5, // spread
            _ => i % 5,       // uniform
        };
        t.push_row(vec![
            Value::from(format!("s{sub}")),
            Value::from(format!("g{d1}")),
            Value::from(format!("x{}", i % 3)),
            Value::from(format!("y{}", (i / 7) % 4)),
            Value::Float((i % 13) as f64 + if sub == 0 { 20.0 } else { 0.0 }),
            Value::Float((i % 5) as f64),
        ])
        .unwrap();
    }
    t
}

fn db_with_facts(rows: usize) -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.register(fact_table(rows));
    db
}

/// Pipeline config whose results do not depend on workload history
/// (access-frequency pruning consults the shared tracker, which would
/// make concurrent outcomes order-dependent).
fn deterministic_config() -> SeeDbConfig {
    let mut cfg = SeeDbConfig::recommended().with_k(5);
    cfg.pruning.access_frequency = false;
    cfg
}

fn service_config(window_ms: u64) -> ServiceConfig {
    ServiceConfig::recommended()
        .with_seedb(deterministic_config())
        .with_batch_window(Duration::from_millis(window_ms))
}

/// Non-panicking byte-identity check (the race test matches a result
/// against several version candidates).
fn recs_identical(a: &Recommendation, b: &Recommendation) -> bool {
    a.num_candidates == b.num_candidates
        && a.num_queries == b.num_queries
        && a.errors.is_empty()
        && b.errors.is_empty()
        && a.all.len() == b.all.len()
        && a.all.iter().zip(&b.all).all(|(x, y)| {
            x.spec == y.spec
                && x.utility.to_bits() == y.utility.to_bits()
                && x.target == y.target
                && x.comparison == y.comparison
        })
        && a.views.iter().map(|v| v.spec.label()).collect::<Vec<_>>()
            == b.views.iter().map(|v| v.spec.label()).collect::<Vec<_>>()
}

/// Byte-identity: every scored view matches by label, utility bits, and
/// both full distributions.
fn assert_recs_identical(a: &Recommendation, b: &Recommendation) {
    assert_eq!(a.num_candidates, b.num_candidates);
    assert_eq!(a.num_queries, b.num_queries);
    assert!(a.errors.is_empty() && b.errors.is_empty());
    assert_eq!(a.all.len(), b.all.len());
    for (x, y) in a.all.iter().zip(&b.all) {
        assert_eq!(x.spec, y.spec);
        assert_eq!(
            x.utility.to_bits(),
            y.utility.to_bits(),
            "{}: {} vs {}",
            x.spec,
            x.utility,
            y.utility
        );
        assert_eq!(x.target, y.target, "{}", x.spec);
        assert_eq!(x.comparison, y.comparison, "{}", x.spec);
    }
    let top_a: Vec<String> = a.views.iter().map(|v| v.spec.label()).collect();
    let top_b: Vec<String> = b.views.iter().map(|v| v.spec.label()).collect();
    assert_eq!(top_a, top_b);
}

/// Rows `[from, to)` of the deterministic fact table — what an ingest
/// source would deliver as a delta batch.
fn fact_delta(from: usize, to: usize) -> Vec<Vec<Value>> {
    let full = fact_table(to);
    (from..to).map(|i| full.row(i)).collect()
}

#[test]
fn warm_cache_recommend_performs_zero_table_scans() {
    let db = db_with_facts(1200);
    let service = Service::new(db.clone(), service_config(0));
    let query = AnalystQuery::new("facts", Some(Expr::col("d0").eq("s0")));

    let cold = service.recommend(&query).unwrap();
    let cold_stats = service.cache_stats();
    assert!(cold_stats.misses > 0, "cold run must scan");
    assert_eq!(cold_stats.hits, 0);

    let before = db.cost();
    let warm = service.recommend(&query).unwrap();
    let delta = db.cost().since(&before);

    // The acceptance bar: a repeated analyst query costs zero scans.
    assert_eq!(delta.table_scans, 0, "warm run must not scan");
    assert_eq!(delta.rows_scanned, 0);
    assert_eq!(delta.queries, 0);
    let warm_stats = service.cache_stats();
    assert!(warm_stats.hits >= cold_stats.misses);
    assert_eq!(warm_stats.misses, cold_stats.misses, "no new misses");
    assert_recs_identical(&cold, &warm);
}

#[test]
fn service_results_match_plain_engine() {
    let db = db_with_facts(800);
    let service = Service::new(db.clone(), service_config(0));
    let engine = SeeDb::new(db, deterministic_config());
    for filter in ["s0", "s1", "s2"] {
        let query = AnalystQuery::new("facts", Some(Expr::col("d0").eq(filter)));
        let cold = engine.recommend(&query).unwrap();
        // Both the cold (miss/batch) and warm (hit) service paths must
        // be byte-identical to the plain engine.
        assert_recs_identical(&cold, &service.recommend(&query).unwrap());
        assert_recs_identical(&cold, &service.recommend(&query).unwrap());
    }
}

/// The concurrency property at the heart of the serving layer: K
/// sessions hammering overlapping analyst queries concurrently — hitting
/// the cache, joining each other's batches, racing evictions — always
/// produce exactly the cold sequential answer.
#[test]
fn concurrent_overlapping_queries_are_byte_identical_to_cold_sequential() {
    let rows = 900;
    let db = db_with_facts(rows);
    let queries: Vec<AnalystQuery> = vec![
        AnalystQuery::new("facts", Some(Expr::col("d0").eq("s0"))),
        AnalystQuery::new("facts", Some(Expr::col("d0").eq("s1"))),
        AnalystQuery::new("facts", Some(Expr::col("d1").eq("g0"))),
        AnalystQuery::new("facts", None),
    ];

    // Cold sequential ground truth: a fresh single-shot engine per
    // query over an identical database.
    let cold: Vec<Recommendation> = queries
        .iter()
        .map(|q| {
            SeeDb::new(db_with_facts(rows), deterministic_config())
                .recommend(q)
                .unwrap()
        })
        .collect();

    let service = Service::new(db, service_config(3));
    let threads = 4;
    let reps = 3;
    std::thread::scope(|s| {
        for k in 0..threads {
            let session = service.session();
            let queries = &queries;
            let cold = &cold;
            s.spawn(move || {
                for rep in 0..reps {
                    // Stagger starting points so threads overlap on
                    // different queries at the same time.
                    for j in 0..queries.len() {
                        let i = (k + rep + j) % queries.len();
                        let rec = session.recommend(&queries[i]).unwrap();
                        assert_recs_identical(&cold[i], &rec);
                    }
                }
            });
        }
    });

    let stats = service.cache_stats();
    let total = (threads * reps * queries.len()) as u64;
    assert_eq!(
        stats.hits + stats.misses,
        total * stats_plans_per_query(&service)
    );
    assert!(stats.hits > 0, "repeated queries must hit: {stats:?}");
}

/// With the recommended optimizer every analyst query plans exactly one
/// shared-scan query, which keeps the accounting in the concurrency test
/// exact. Guard that assumption.
fn stats_plans_per_query(service: &Service) -> u64 {
    let rec = service
        .recommend(&AnalystQuery::new("facts", Some(Expr::col("d0").eq("s3"))))
        .unwrap();
    assert_eq!(rec.num_queries, 1, "recommended optimizer packs one plan");
    1
}

#[test]
fn concurrent_identical_requests_coalesce_into_shared_scans() {
    let db = db_with_facts(1500);
    let service = Service::new(db.clone(), service_config(200));
    let query = AnalystQuery::new("facts", Some(Expr::col("d0").eq("s0")));

    let before = db.cost();
    let threads = 4;
    std::thread::scope(|s| {
        for _ in 0..threads {
            let session = service.session();
            let query = &query;
            s.spawn(move || session.recommend(query).unwrap());
        }
    });
    let delta = db.cost().since(&before);

    // Four analysts, one (occasionally two — scheduling) shared scan:
    // strictly better than one scan per analyst. Identical concurrent
    // requests coalesce by fingerprint (one plan in the batch) or hit
    // the cache the first one warmed; either way the scan is shared.
    assert!(
        delta.table_scans < threads as u64,
        "expected coalesced scans, got {delta:?}"
    );
    let stats = service.cache_stats();
    assert_eq!(
        stats.hits + stats.misses,
        threads as u64,
        "one plan per request: {stats:?}"
    );
}

/// Distinct analyst queries have distinct fingerprints but — combined
/// target/comparison queries carry the analyst predicate per aggregate,
/// not in the scan — the *same* scan source. Concurrent misses therefore
/// merge into one grouping-sets superplan: N analysts, 1 scan.
#[test]
fn distinct_concurrent_queries_merge_into_one_shared_scan() {
    let rows = 1500;
    let db = db_with_facts(rows);
    let service = Service::new(db.clone(), service_config(500));
    let queries = [
        AnalystQuery::new("facts", Some(Expr::col("d0").eq("s0"))),
        AnalystQuery::new("facts", Some(Expr::col("d0").eq("s1"))),
        AnalystQuery::new("facts", Some(Expr::col("d2").eq("x1"))),
    ];
    let cold: Vec<Recommendation> = queries
        .iter()
        .map(|q| {
            SeeDb::new(db_with_facts(rows), deterministic_config())
                .recommend(q)
                .unwrap()
        })
        .collect();

    let before = db.cost();
    std::thread::scope(|s| {
        for (q, cold_rec) in queries.iter().zip(&cold) {
            let session = service.session();
            s.spawn(move || assert_recs_identical(cold_rec, &session.recommend(q).unwrap()));
        }
    });
    let delta = db.cost().since(&before);

    let stats = service.cache_stats();
    assert!(
        stats.batch_scans >= 1,
        "distinct plans must merge into a shared scan: {stats:?}"
    );
    assert!(stats.batched_plans >= 2, "{stats:?}");
    assert!(
        delta.table_scans < queries.len() as u64,
        "merged scans must beat one scan per analyst: {delta:?}"
    );
}

/// Live ingest, lazy refresh: after an append, the warm probe brings
/// the cached state forward by scanning **only the delta rows** — no
/// full-table scan — and the answer is byte-identical to a cold engine
/// over a table holding the same rows.
#[test]
fn lazy_incremental_refresh_scans_only_the_delta_and_matches_cold() {
    let rows = 2000;
    let appended = 20;
    let db = db_with_facts(rows);
    let service = Service::new(db.clone(), service_config(0));
    let query = AnalystQuery::new("facts", Some(Expr::col("d0").eq("s0")));

    // Warm the cache, then append a small delta.
    service.recommend(&query).unwrap();
    service
        .append_rows("facts", fact_delta(rows, rows + appended))
        .unwrap();

    let before = db.cost();
    let refreshed = service.recommend(&query).unwrap();
    let delta_cost = db.cost().since(&before);
    let stats = service.cache_stats();

    // The acceptance bar: zero full-table scans on the warm path. The
    // only scan work is the delta itself (one partial scan per
    // refreshed plan; the recommended optimizer plans exactly one).
    assert!(stats.refreshes >= 1, "{stats:?}");
    assert_eq!(stats.refresh_rows, appended as u64, "{stats:?}");
    assert_eq!(stats.refresh_fallbacks, 0, "{stats:?}");
    assert_eq!(
        delta_cost.rows_scanned, appended as u64,
        "refresh must scan the delta rows only: {delta_cost:?}"
    );
    assert!(
        delta_cost.rows_scanned < rows as u64,
        "no full-table rescan"
    );

    // Byte-identical to a cold engine over the same logical rows.
    let cold_db = Arc::new(Database::new());
    cold_db.register(fact_table(rows + appended));
    let cold = SeeDb::new(cold_db, deterministic_config())
        .recommend(&query)
        .unwrap();
    assert_recs_identical(&cold, &refreshed);

    // And now the entry is re-stamped at the new version: the next
    // probe is an exact hit with zero scans of any kind.
    let before = db.cost();
    let warm = service.recommend(&query).unwrap();
    assert_eq!(db.cost().since(&before).table_scans, 0);
    assert_recs_identical(&cold, &warm);
}

/// Eager refresh maintains the cache at append time: the next probe is
/// an exact hit (zero scans), still byte-identical to cold.
#[test]
fn eager_refresh_makes_post_append_probes_exact_hits() {
    let rows = 1500;
    let appended = 15;
    let db = db_with_facts(rows);
    let config =
        service_config(0).with_refresh(RefreshConfig::recommended().with_mode(RefreshMode::Eager));
    let service = Service::new(db.clone(), config);
    let query = AnalystQuery::new("facts", Some(Expr::col("d0").eq("s0")));

    service.recommend(&query).unwrap();
    service
        .append_rows("facts", fact_delta(rows, rows + appended))
        .unwrap();
    let stats = service.cache_stats();
    assert!(
        stats.refreshes >= 1,
        "append must refresh eagerly: {stats:?}"
    );
    assert_eq!(stats.refresh_rows, appended as u64, "{stats:?}");

    let before = db.cost();
    let rec = service.recommend(&query).unwrap();
    let delta_cost = db.cost().since(&before);
    assert_eq!(
        delta_cost.table_scans, 0,
        "eager-refreshed probe is a pure hit"
    );
    assert_eq!(delta_cost.rows_scanned, 0);

    let cold_db = Arc::new(Database::new());
    cold_db.register(fact_table(rows + appended));
    let cold = SeeDb::new(cold_db, deterministic_config())
        .recommend(&query)
        .unwrap();
    assert_recs_identical(&cold, &rec);
}

/// Refresh is policy-bounded: with refresh off, or a delta above the
/// threshold, outdated entries fall back to invalidate + recompute —
/// and the recomputed answer still matches cold.
#[test]
fn refresh_policy_fallbacks_recompute_instead() {
    let rows = 400;
    for config in [
        service_config(0).with_refresh(RefreshConfig::recommended().with_mode(RefreshMode::Off)),
        service_config(0).with_refresh(RefreshConfig::recommended().with_max_delta_fraction(0.001)),
    ] {
        let db = db_with_facts(rows);
        let service = Service::new(db, config);
        let query = AnalystQuery::new("facts", Some(Expr::col("d0").eq("s0")));
        service.recommend(&query).unwrap();
        service
            .append_rows("facts", fact_delta(rows, rows + 40))
            .unwrap();
        let rec = service.recommend(&query).unwrap();
        let stats = service.cache_stats();
        assert_eq!(stats.refreshes, 0, "{stats:?}");
        assert!(stats.refresh_fallbacks >= 1, "{stats:?}");
        assert!(stats.invalidations >= 1, "{stats:?}");

        let cold_db = Arc::new(Database::new());
        cold_db.register(fact_table(rows + 40));
        let cold = SeeDb::new(cold_db, deterministic_config())
            .recommend(&query)
            .unwrap();
        assert_recs_identical(&cold, &rec);
    }
}

/// The concurrent append+query path: one appender publishes versions
/// while K readers hammer recommendations through the shared cache.
/// Every reader must observe a *consistent snapshot* — its result
/// byte-identical to a cold run at one of the published versions,
/// never a torn mix of two versions.
#[test]
fn concurrent_appender_and_readers_see_consistent_snapshots() {
    let base = 600;
    let chunk = 150;
    let appends = 4;
    let query = AnalystQuery::new("facts", Some(Expr::col("d0").eq("s0")));

    // Stats-based pruning consults a metadata snapshot that may
    // legitimately be one version older than the execution snapshot
    // (each is consistent; the recommendation pipeline takes them
    // sequentially). Disable pruning so a reader's result is fully
    // determined by the execution snapshot and must equal exactly one
    // published version.
    let mut race_cfg = deterministic_config();
    race_cfg.pruning = seedb::core::PruningConfig::disabled();

    // Cold ground truth at every version the appender will publish.
    let candidates: Vec<Recommendation> = (0..=appends)
        .map(|k| {
            let db = Arc::new(Database::new());
            db.register(fact_table(base + k * chunk));
            SeeDb::new(db, race_cfg.clone()).recommend(&query).unwrap()
        })
        .collect();

    let db = db_with_facts(base);
    let service = Service::new(
        db,
        ServiceConfig::recommended()
            .with_seedb(race_cfg)
            .with_batch_window(Duration::from_millis(1)),
    );
    let readers = 3;
    std::thread::scope(|s| {
        for _ in 0..readers {
            let session = service.session();
            let query = &query;
            let candidates = &candidates;
            s.spawn(move || {
                for _ in 0..6 {
                    let rec = session.recommend(query).unwrap();
                    let matched = candidates.iter().any(|c| recs_identical(c, &rec));
                    assert!(
                        matched,
                        "reader observed a torn snapshot: result matches no published version"
                    );
                }
            });
        }
        let appender = service.session();
        s.spawn(move || {
            for k in 0..appends {
                let from = base + k * chunk;
                appender
                    .append_rows("facts", fact_delta(from, from + chunk))
                    .unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
        });
    });

    // Settled state: one more read matches the final version exactly.
    let rec = service.recommend(&query).unwrap();
    assert_recs_identical(&candidates[appends], &rec);
}

#[test]
fn version_bump_invalidation_never_serves_stale_results() {
    let db = db_with_facts(600);
    let service = Service::new(db.clone(), service_config(0));
    let query = AnalystQuery::new("facts", Some(Expr::col("d0").eq("s0")));

    let v1 = service.recommend(&query).unwrap();
    assert!(service.cache_stats().inserts > 0);

    // Mutate the table: replace it with a longer, differently-shaped
    // version under the same name.
    db.register(fact_table(901));
    let v2 = service.recommend(&query).unwrap();
    let stats = service.cache_stats();
    assert!(stats.invalidations >= 1, "{stats:?}");

    // The new answer matches a cold engine on the new data ...
    let cold_db = Arc::new(Database::new());
    cold_db.register(fact_table(901));
    let cold = SeeDb::new(cold_db, deterministic_config())
        .recommend(&query)
        .unwrap();
    assert_recs_identical(&cold, &v2);

    // ... and genuinely differs from the stale answer, so serving the
    // old cache entry would have been observable.
    let changed = v1
        .all
        .iter()
        .zip(&v2.all)
        .any(|(a, b)| a.utility.to_bits() != b.utility.to_bits());
    assert!(changed, "table mutation must change some utility");

    // Warm again on the new version: zero scans.
    let before = db.cost();
    service.recommend(&query).unwrap();
    assert_eq!(db.cost().since(&before).table_scans, 0);
}

/// Regression: batches are keyed by (table, version), not table name.
/// A request that observes a *newer* registration mid-window must open
/// its own batch instead of adopting a state the leader computed
/// against the old table — finalizing a v1 state against a shorter v2
/// table would index out of bounds (or silently mislabel groups).
#[test]
fn batch_never_mixes_table_versions() {
    let db = db_with_facts(1000);
    let service = Service::new(db.clone(), service_config(250));
    let query = AnalystQuery::new("facts", Some(Expr::col("d0").eq("s0")));

    let follower_rec = std::thread::scope(|s| {
        let leader = {
            let session = service.session();
            let query = &query;
            s.spawn(move || session.recommend(query).unwrap())
        };
        // Let the leader open its 250 ms batch window, then replace the
        // table with a *shorter* one and issue a second request that
        // sees the new registration.
        std::thread::sleep(Duration::from_millis(60));
        db.register(fact_table(400));
        let follower = {
            let session = service.session();
            let query = &query;
            s.spawn(move || session.recommend(query).unwrap())
        };
        leader.join().expect("leader must not panic");
        follower
            .join()
            .expect("follower must not adopt a stale-version batch")
    });

    // The follower's answer is exactly a cold run over the new table.
    let cold_db = Arc::new(Database::new());
    cold_db.register(fact_table(400));
    let cold = SeeDb::new(cold_db, deterministic_config())
        .recommend(&query)
        .unwrap();
    assert_recs_identical(&cold, &follower_rec);
}

#[test]
fn lru_eviction_bounds_the_cache_and_preserves_results() {
    let db = db_with_facts(700);
    let config = service_config(0).with_cache_capacity(2);
    let service = Service::new(db, config);
    let queries: Vec<AnalystQuery> = (0..4)
        .map(|i| AnalystQuery::new("facts", Some(Expr::col("d0").eq(format!("s{i}").as_str()))))
        .collect();
    let cold: Vec<Recommendation> = queries
        .iter()
        .map(|q| service.recommend(q).unwrap())
        .collect();
    assert!(service.cache_len() <= 2);
    let stats = service.cache_stats();
    assert!(stats.evictions >= 2, "{stats:?}");
    // Evicted entries recompute correctly (and re-evict others).
    for (q, cold_rec) in queries.iter().zip(&cold) {
        assert_recs_identical(cold_rec, &service.recommend(q).unwrap());
        assert!(service.cache_len() <= 2);
    }
}

/// The cached *unfinalized* states are themselves reusable: a plan
/// whose grouping sets and aggregates are covered by a same-source
/// cached entry is served by projection — zero scans — even though its
/// fingerprint never appeared before. With filter-attribute exclusion
/// off, any analyst query's plan covers the no-filter query: its
/// comparison aggregates are exactly the unfiltered states the
/// no-filter query needs, over the same grouping sets.
#[test]
fn covered_plans_are_served_by_projection_without_scans() {
    let rows = 800;
    let db = db_with_facts(rows);
    let mut cfg = service_config(0);
    cfg.seedb.exclude_filter_attributes = false;
    let service = Service::new(db.clone(), cfg);

    service
        .recommend(&AnalystQuery::new("facts", Some(Expr::col("d0").eq("s0"))))
        .unwrap();

    let nofilter = AnalystQuery::new("facts", None);
    let before = db.cost();
    let rec = service.recommend(&nofilter).unwrap();
    assert_eq!(
        db.cost().since(&before).table_scans,
        0,
        "covered plan must be served by projection, not a scan"
    );
    let stats = service.cache_stats();
    assert!(stats.projection_hits >= 1, "{stats:?}");

    // Still byte-identical to a cold engine run.
    let cold_db = Arc::new(Database::new());
    cold_db.register(fact_table(rows));
    let mut cold_cfg = deterministic_config();
    cold_cfg.exclude_filter_attributes = false;
    let cold = SeeDb::new(cold_db, cold_cfg).recommend(&nofilter).unwrap();
    assert_recs_identical(&cold, &rec);
}

#[test]
fn sampled_plans_bypass_the_cache() {
    let db = db_with_facts(400);
    let mut cfg = service_config(0);
    cfg.seedb.optimizer.sample = Some(SampleSpec::Bernoulli {
        fraction: 0.5,
        seed: 9,
    });
    let service = Service::new(db, cfg);
    let query = AnalystQuery::new("facts", Some(Expr::col("d0").eq("s0")));
    service.recommend(&query).unwrap();
    service.recommend(&query).unwrap();
    let stats = service.cache_stats();
    assert!(stats.bypasses > 0, "{stats:?}");
    assert_eq!(stats.hits, 0, "sampled plans must not be cached: {stats:?}");
    assert_eq!(stats.inserts, 0);
}

#[test]
fn sessions_are_distinct_handles_over_shared_state() {
    let db = db_with_facts(500);
    let service = Service::new(db, service_config(0));
    let s1 = service.session();
    let s2 = service.session();
    assert_ne!(s1.id(), s2.id());
    let query = AnalystQuery::new("facts", Some(Expr::col("d0").eq("s0")));
    let a = s1.recommend(&query).unwrap();
    // The second session's identical query is served from the cache the
    // first session warmed.
    let hits_before = service.cache_stats().hits;
    let b = s2.recommend(&query).unwrap();
    assert!(service.cache_stats().hits > hits_before);
    assert_recs_identical(&a, &b);
}

/// `service.metadata.{hits,refreshes,full_folds,refresh_rows}`, in that
/// order.
fn metadata_outcomes(service: &Service) -> [u64; 4] {
    let counters = service.metrics().counters;
    ["hits", "refreshes", "full_folds", "refresh_rows"]
        .map(|k| counters[&format!("service.metadata.{k}")])
}

/// The `metadata` span's `outcome` and `delta_rows` of the last trace.
fn metadata_span(service: &Service) -> (String, String) {
    let trace = service.last_trace().expect("tracing is on");
    let span = trace
        .spans
        .iter()
        .find(|s| s.name == "metadata")
        .expect("a metadata span");
    let attr = |k: &str| span.attr(k).unwrap_or_default().to_string();
    (attr("outcome"), attr("delta_rows"))
}

#[test]
fn metadata_is_folded_once_then_refreshed_over_appends_then_reused() {
    let db = db_with_facts(800);
    let service = Service::new(db.clone(), service_config(0));
    service.set_trace_enabled(true);
    let query = AnalystQuery::new("facts", Some(Expr::col("d0").eq("s1")));
    assert_eq!(metadata_outcomes(&service), [0, 0, 0, 0]);

    service.recommend(&query).unwrap();
    assert_eq!(metadata_outcomes(&service), [0, 0, 1, 0]);
    assert_eq!(metadata_span(&service), ("full_fold".into(), "0".into()));

    let n = 37;
    service
        .append_rows("facts", fact_delta(800, 800 + n))
        .unwrap();
    let refreshed = service.recommend(&query).unwrap();
    assert_eq!(metadata_outcomes(&service), [0, 1, 1, n as u64]);
    assert_eq!(metadata_span(&service), ("refresh".into(), n.to_string()));

    let hit = service.recommend(&query).unwrap();
    assert_eq!(metadata_outcomes(&service), [1, 1, 1, n as u64]);
    assert_eq!(metadata_span(&service), ("hit".into(), "0".into()));

    // Both equal a cold engine on the appended table.
    let cold_db = Arc::new(Database::new());
    cold_db.register(fact_table(800 + n));
    let cold = SeeDb::new(cold_db, deterministic_config())
        .recommend(&query)
        .unwrap();
    assert_recs_identical(&cold, &refreshed);
    assert_recs_identical(&cold, &hit);
}

#[test]
fn metadata_refresh_continues_across_compactions() {
    let base = 300;
    let db = db_with_facts(base);
    let service = Service::new(db.clone(), service_config(0));
    let query = AnalystQuery::new("facts", Some(Expr::col("d0").eq("s0")));
    service.recommend(&query).unwrap();
    let appends = 2 * Table::SEGMENT_COMPACT_THRESHOLD;
    let mut rows = base;
    for k in 0..appends {
        let n = 1 + k % 3;
        service
            .append_rows("facts", fact_delta(rows, rows + n))
            .unwrap();
        rows += n;
        service.recommend(&query).unwrap();
    }
    assert!(db.table("facts").unwrap().num_segments() < appends);
    // One fold from empty; every later request refreshed over its
    // append, including those right after a compaction.
    let [hits, refreshes, full_folds, refresh_rows] = metadata_outcomes(&service);
    assert_eq!((hits, full_folds), (0, 1));
    assert_eq!(refreshes, appends as u64);
    assert_eq!(refresh_rows, (rows - base) as u64);

    let cold_db = Arc::new(Database::new());
    cold_db.register(fact_table(rows));
    let cold = SeeDb::new(cold_db, deterministic_config())
        .recommend(&query)
        .unwrap();
    assert_recs_identical(&cold, &service.recommend(&query).unwrap());
}

/// Four sessions recommend while a writer appends. A request whose
/// table version did not move while it ran used that version for both
/// its metadata and its scans, so its answer must equal a cold engine's
/// on that snapshot — with pruning on, so the statistics matter.
#[test]
fn concurrent_sessions_under_appends_match_cold_on_their_snapshot() {
    let base = 600;
    let db = db_with_facts(base);
    let service = Service::new(db.clone(), service_config(1));
    let results: Vec<(Arc<Table>, AnalystQuery, Recommendation)> = std::thread::scope(|s| {
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let session = service.session();
                let db = &db;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..8 {
                        let filter = format!("s{}", (r + i) % 4);
                        let query = AnalystQuery::new("facts", Some(Expr::col("d0").eq(filter)));
                        let before = db.table("facts").unwrap();
                        let rec = session.recommend(&query).unwrap();
                        if db.table("facts").unwrap().version() == before.version() {
                            out.push((before, query, rec));
                        }
                        // Pace the reads across the writer's appends.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    out
                })
            })
            .collect();
        let writer = service.session();
        s.spawn(move || {
            let mut rows = base;
            for k in 0..12 {
                let n = 5 + 3 * k;
                writer
                    .append_rows("facts", fact_delta(rows, rows + n))
                    .unwrap();
                rows += n;
                std::thread::sleep(Duration::from_millis(3));
            }
        });
        readers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    assert!(results.len() >= 8, "only {} stable requests", results.len());
    for (snapshot, query, rec) in &results {
        let cold_db = Arc::new(Database::new());
        cold_db.register((**snapshot).clone());
        let cold = SeeDb::new(cold_db, deterministic_config())
            .recommend(query)
            .unwrap();
        assert_recs_identical(&cold, rec);
    }
    let [hits, refreshes, full_folds, _] = metadata_outcomes(&service);
    assert!(hits + refreshes + full_folds >= 32);
}
