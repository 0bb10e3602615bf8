//! The metadata fold: a long-lived `MetadataCollector`, which reuses,
//! refreshes or rebuilds its per-table statistics fold, must return
//! exactly what a fresh collector computes cold on the same snapshot —
//! every count equal and every float equal through `to_bits` — over
//! random append histories and under concurrent appends.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use seedb::core::{Metadata, MetadataCollector};
use seedb::memdb::{ColumnDef, DataType, Database, Schema, Table, Value};

const TABLE: &str = "h";

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::dimension("s", DataType::Str),
        ColumnDef::dimension("t", DataType::Str),
        ColumnDef::dimension("i", DataType::Int64),
        ColumnDef::dimension("b", DataType::Bool),
        ColumnDef::measure("m", DataType::Float64),
        ColumnDef::measure("n", DataType::Int64),
    ])
    .unwrap()
}

/// One random row. `vocab` bounds the string values, so a growing
/// vocabulary brings new dictionary entries into later deltas; about
/// one value in eight is null.
fn row(rng: &mut StdRng, vocab: usize) -> Vec<Value> {
    let values = vec![
        Value::from(format!("s{}", rng.gen_range(0..vocab))),
        Value::from(format!("t{}", rng.gen_range(0..3))),
        Value::Int(rng.gen_range(-2..6)),
        Value::Bool(rng.gen_range(0..3) == 0),
        Value::Float(rng.gen_range(0..400) as f64 / 8.0),
        Value::Int(rng.gen_range(0..50)),
    ];
    values
        .into_iter()
        .map(|v| {
            if rng.gen_range(0..8) == 0 {
                Value::Null
            } else {
                v
            }
        })
        .collect()
}

fn rows(rng: &mut StdRng, n: usize, vocab: usize) -> Vec<Vec<Value>> {
    (0..n).map(|_| row(rng, vocab)).collect()
}

fn fresh_table(rng: &mut StdRng, n: usize, vocab: usize) -> Table {
    let mut t = Table::new(TABLE, schema());
    for r in rows(rng, n, vocab) {
        t.push_row(r).unwrap();
    }
    t
}

/// Every number `md` carries, floats as bits.
fn bits(md: &Metadata) -> Vec<String> {
    let mut out = vec![format!("{} {}", md.table, md.stats.row_count)];
    for c in &md.stats.columns {
        out.push(format!(
            "{} {} {} {} {:?} {:?} {} {} {}",
            c.name,
            c.row_count,
            c.null_count,
            c.distinct,
            c.mean.map(f64::to_bits),
            c.value_variance.map(f64::to_bits),
            c.frequency_variance.to_bits(),
            c.entropy.to_bits(),
            c.group_count()
        ));
    }
    for (a, b, v) in &md.dim_correlations {
        out.push(format!("{a} {b} {}", v.to_bits()));
    }
    out
}

/// `collector` on `table` equals a cold collect, byte for byte.
fn check(collector: &MetadataCollector, table: &Table, correlations: bool) {
    let warm = collector.collect(table, correlations).unwrap();
    let cold = MetadataCollector::new()
        .collect(table, correlations)
        .unwrap();
    assert_eq!(
        bits(&warm),
        bits(&cold),
        "version {} rows {}",
        table.version(),
        table.num_rows()
    );
}

/// Drive one seeded history of appends (some empty, some bringing new
/// strings), re-registrations (fresh tables, or edited copies that keep
/// the dictionaries) and requests against the current or an older
/// snapshot, checking every request against a cold collect.
/// Returns how many compactions the history crossed.
fn run_history(seed: u64, steps: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let db = Database::new();
    let mut vocab = 3;
    let n = rng.gen_range(0..40);
    db.register(fresh_table(&mut rng, n, vocab));
    let collector = MetadataCollector::new();
    let mut snapshots = vec![db.table(TABLE).unwrap()];
    let mut compactions = 0;
    for _ in 0..steps {
        match rng.gen_range(0..100) {
            0..=59 => {
                if rng.gen_range(0..6) == 0 {
                    vocab += 1;
                }
                let k = rng.gen_range(0..6);
                let before = db.table(TABLE).unwrap().num_segments();
                let t = db.append_rows(TABLE, rows(&mut rng, k, vocab)).unwrap();
                if t.num_segments() < before {
                    compactions += 1;
                }
            }
            60 => {
                let n = rng.gen_range(0..60);
                db.register(fresh_table(&mut rng, n, vocab));
            }
            61 => {
                // A replacement that keeps the dictionaries and the row
                // count but edits one old row: only the lineage tells it
                // apart from an append.
                let t = db.table(TABLE).unwrap();
                let mut edited = Table::new(TABLE, schema());
                for r in 0..t.num_rows() {
                    let mut values = t.row(r);
                    if r == 0 {
                        values[2] = Value::Int(100);
                    }
                    edited.push_row(values).unwrap();
                }
                let extra = rng.gen_range(0..4);
                for r in rows(&mut rng, extra, 1) {
                    edited.push_row(r).unwrap();
                }
                db.register(edited);
            }
            62..=89 => {
                let t = db.table(TABLE).unwrap();
                check(&collector, &t, rng.gen_range(0..5) != 0);
            }
            _ => {
                let old = &snapshots[rng.gen_range(0..snapshots.len())];
                check(&collector, old, true);
            }
        }
        snapshots.push(db.table(TABLE).unwrap());
    }
    check(&collector, &db.table(TABLE).unwrap(), true);
    compactions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_metadata_equals_cold(seed in any::<u64>()) {
        run_history(seed, 160);
    }
}

#[test]
fn refreshes_across_compactions_equal_cold() {
    // Enough consecutive non-empty appends to cross the 64-segment
    // compaction more than once.
    let mut rng = StdRng::seed_from_u64(5);
    let db = Database::new();
    db.register(fresh_table(&mut rng, 30, 4));
    let collector = MetadataCollector::new();
    let mut compactions = 0;
    for step in 0..150 {
        let before = db.table(TABLE).unwrap().num_segments();
        let vocab = 4 + step / 20;
        let t = db
            .append_rows(TABLE, rows(&mut rng, 1 + step % 3, vocab))
            .unwrap();
        if t.num_segments() < before {
            compactions += 1;
        }
        check(&collector, &t, true);
    }
    assert!(compactions >= 2, "only {compactions} compaction(s)");
    // The random histories cross compactions too, now and then.
    let crossed: usize = (0..8).map(|s| run_history(s, 400)).sum();
    assert!(crossed > 0);
}

#[test]
fn concurrent_collects_under_appends_equal_cold() {
    let mut rng = StdRng::seed_from_u64(11);
    let db = Arc::new(Database::new());
    db.register(fresh_table(&mut rng, 200, 4));
    let collector = MetadataCollector::new();
    let batches: Vec<Vec<Vec<Value>>> = (0..40)
        .map(|k| rows(&mut rng, 1 + k % 7, 4 + k / 10))
        .collect();
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (db, collector) = (&db, &collector);
            s.spawn(move || {
                for _ in 0..25 {
                    check(collector, &db.table(TABLE).unwrap(), true);
                }
            });
        }
        let db = &db;
        s.spawn(move || {
            for batch in batches {
                db.append_rows(TABLE, batch).unwrap();
                std::thread::yield_now();
            }
        });
    });
    check(&collector, &db.table(TABLE).unwrap(), true);
}
