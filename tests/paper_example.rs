//! Integration test: the paper's §1/§2 worked example, numbers included.
//!
//! Table 1 gives Laserwave sales per store and §2 gives the exact
//! normalization (180.55/538.18, ...). Figures 1–3 define the two
//! scenarios: comparison opposite (interesting) vs comparison similar
//! (boring). This test pins all of it end to end through the public API.

use std::sync::Arc;

use seedb::core::{AnalystQuery, FunctionSet, Metric, SeeDb, SeeDbConfig};
use seedb::memdb::{ColumnDef, DataType, Database, Expr, Schema, Table, Value};

const LASERWAVE: [(&str, f64); 4] = [
    ("Cambridge, MA", 180.55),
    ("Seattle, WA", 145.50),
    ("New York, NY", 122.00),
    ("San Francisco, CA", 90.13),
];

fn sales_table(name: &str, background: &[(&str, f64)]) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::dimension("store", DataType::Str),
        ColumnDef::dimension("product", DataType::Str),
        ColumnDef::measure("amount", DataType::Float64),
    ])
    .unwrap();
    let mut t = Table::new(name, schema);
    for (store, total) in LASERWAVE {
        t.push_row(vec![store.into(), "Laserwave".into(), Value::Float(total)])
            .unwrap();
    }
    for &(store, total) in background {
        t.push_row(vec![store.into(), "Other".into(), Value::Float(total)])
            .unwrap();
    }
    t
}

#[test]
fn table_1_numbers_reproduce() {
    let db = Database::new();
    db.register(sales_table("sales", &[]));
    let out = db
        .run_sql("SELECT store, SUM(amount) FROM sales WHERE product = 'Laserwave' GROUP BY store")
        .unwrap();
    let result = out.result_set(0).unwrap();
    assert_eq!(result.num_rows(), 4);
    // Sorted by store label.
    let get = |store: &str| {
        result
            .rows
            .iter()
            .find(|r| r[0] == Value::from(store))
            .map(|r| r[1].as_f64().unwrap())
            .unwrap()
    };
    assert!((get("Cambridge, MA") - 180.55).abs() < 1e-9);
    assert!((get("Seattle, WA") - 145.50).abs() < 1e-9);
    assert!((get("New York, NY") - 122.00).abs() < 1e-9);
    assert!((get("San Francisco, CA") - 90.13).abs() < 1e-9);
}

#[test]
fn section_2_normalization_matches() {
    // "the probability distribution of Vi(DQ) is: (Jan: 180.55/538.18, ...)"
    // — same arithmetic, our store labels.
    let d = seedb::core::Distribution::from_pairs(
        LASERWAVE
            .iter()
            .map(|(s, v)| (s.to_string(), Some(*v)))
            .collect(),
    );
    let total = 538.18;
    assert!((d.prob("Cambridge, MA") - 180.55 / total).abs() < 1e-9);
    assert!((d.prob("Seattle, WA") - 145.50 / total).abs() < 1e-9);
    assert!((d.prob("New York, NY") - 122.00 / total).abs() < 1e-9);
    assert!((d.prob("San Francisco, CA") - 90.13 / total).abs() < 1e-9);
    assert!((d.probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
}

#[test]
fn scenario_a_interesting_scenario_b_not() {
    // Scenario A (Fig. 2): overall sales dominated by Seattle/SF — the
    // opposite of Laserwave's Cambridge-heavy distribution.
    let scenario_a = [
        ("Cambridge, MA", 1_819.45),
        ("New York, NY", 19_878.0),
        ("San Francisco, CA", 36_909.87),
        ("Seattle, WA", 38_854.5),
    ];
    // Scenario B (Fig. 3): overall sales proportional to Laserwave's.
    let scenario_b = [
        ("Cambridge, MA", 18_055.0),
        ("Seattle, WA", 14_550.0),
        ("New York, NY", 12_200.0),
        ("San Francisco, CA", 9_013.0),
    ];
    let db = Arc::new(Database::new());
    db.register(sales_table("sales_a", &scenario_a));
    db.register(sales_table("sales_b", &scenario_b));

    let utility = |table: &str| {
        let seedb = SeeDb::new(
            db.clone(),
            SeeDbConfig::recommended()
                .with_k(1)
                .with_functions(FunctionSet::sum_only()),
        );
        let rec = seedb
            .recommend(&AnalystQuery::new(
                table,
                Some(Expr::col("product").eq("Laserwave")),
            ))
            .unwrap();
        assert_eq!(rec.views[0].spec.label(), "SUM(amount) BY store");
        rec.views[0].utility
    };

    let a = utility("sales_a");
    let b = utility("sales_b");
    assert!(a > 0.3, "scenario A should deviate strongly, got {a}");
    // Scenario B backgrounds are exactly 100x the Laserwave values plus
    // the Laserwave rows themselves: distributions nearly identical.
    assert!(b < 0.01, "scenario B should be boring, got {b}");
    assert!(a > 30.0 * b);
}

#[test]
fn every_metric_agrees_on_the_scenarios() {
    let scenario_a = [
        ("Cambridge, MA", 1_819.45),
        ("New York, NY", 19_878.0),
        ("San Francisco, CA", 36_909.87),
        ("Seattle, WA", 38_854.5),
    ];
    let scenario_b = [
        ("Cambridge, MA", 18_055.0),
        ("Seattle, WA", 14_550.0),
        ("New York, NY", 12_200.0),
        ("San Francisco, CA", 9_013.0),
    ];
    let db = Arc::new(Database::new());
    db.register(sales_table("sales_a", &scenario_a));
    db.register(sales_table("sales_b", &scenario_b));
    for metric in Metric::all() {
        let u = |table: &str| {
            SeeDb::new(
                db.clone(),
                SeeDbConfig::recommended()
                    .with_k(1)
                    .with_metric(metric)
                    .with_functions(FunctionSet::sum_only()),
            )
            .recommend(&AnalystQuery::new(
                table,
                Some(Expr::col("product").eq("Laserwave")),
            ))
            .unwrap()
            .views[0]
                .utility
        };
        assert!(
            u("sales_a") > u("sales_b"),
            "{metric}: scenario A must beat scenario B"
        );
    }
}
