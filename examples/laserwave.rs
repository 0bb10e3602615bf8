//! The paper's running example, end to end: Table 1 and Figures 1–3.
//!
//! Section 1 of the paper walks through an analyst studying the
//! "Laserwave Oven": she issues
//! `Q = SELECT * FROM Sales WHERE Product = 'Laserwave'`, builds the
//! view `SELECT store, SUM(amount) ... GROUP BY store` (Table 1 /
//! Figure 1), and compares it against total sales by store over the whole
//! dataset. Two scenarios: in **Scenario A** (Figure 2) overall sales
//! show the *opposite* trend — the view is interesting; in **Scenario B**
//! (Figure 3) overall sales follow the *same* trend — it is not.
//!
//! This example constructs both scenarios, prints Table 1 and the three
//! charts, and shows that SeeDB's utility score separates them.
//!
//! ```sh
//! cargo run --release --example laserwave
//! ```

use std::sync::Arc;

use seedb::core::{AnalystQuery, Metric, SeeDb, SeeDbConfig};
use seedb::memdb::{
    AggFunc, AggSpec, ColumnDef, DataType, Database, Expr, LogicalPlan, Schema, Semantic, Table,
    Value,
};
use seedb::viz::{Frontend, VisualizationSpec};

const STORES: [&str; 4] = [
    "Cambridge, MA",
    "New York, NY",
    "San Francisco, CA",
    "Seattle, WA",
];

/// Laserwave sales per store — Table 1's exact numbers.
const LASERWAVE: [(&str, f64); 4] = [
    ("Cambridge, MA", 180.55),
    ("Seattle, WA", 145.50),
    ("New York, NY", 122.00),
    ("San Francisco, CA", 90.13),
];

fn sales_schema() -> Schema {
    Schema::new(vec![
        ColumnDef::dimension("store", DataType::Str).with_semantic(Semantic::Geography),
        ColumnDef::dimension("product", DataType::Str),
        ColumnDef::measure("amount", DataType::Float64),
    ])
    .unwrap()
}

/// Build a Sales table: the Table-1 Laserwave rows plus an "all other
/// products" background whose store distribution is `background`.
fn build_sales(name: &str, background: &[(&str, f64)]) -> Table {
    let mut t = Table::new(name, sales_schema());
    for (store, total) in LASERWAVE {
        // Split each store's Laserwave total into a few receipts.
        for part in [0.5, 0.3, 0.2] {
            t.push_row(vec![
                store.into(),
                "Laserwave".into(),
                Value::Float(total * part),
            ])
            .unwrap();
        }
    }
    for &(store, total) in background {
        for part in [0.4, 0.35, 0.25] {
            t.push_row(vec![
                store.into(),
                "Other".into(),
                Value::Float(total * part),
            ])
            .unwrap();
        }
    }
    t
}

fn show_view(db: &Database, table: &str, filter: Option<Expr>, caption: &str) {
    let mut plan = LogicalPlan::scan(table);
    if let Some(f) = filter {
        plan = plan.filter(f);
    }
    let plan = plan.aggregate(
        vec!["store".into()],
        vec![AggSpec::new(AggFunc::Sum, "amount").with_alias("Total Sales ($)")],
    );
    let out = db.execute_plan(&plan).expect("view query runs");
    let result = out.result_set(0).expect("one grouping set");
    println!("{caption}\n{}", result.to_text());
}

fn main() {
    // Scenario A (Figure 2): overall sales skew *west* — the opposite of
    // the Laserwave trend. Scenario B (Figure 3): overall sales follow
    // the *same* east-heavy trend as Laserwave.
    let scenario_a_background: Vec<(&str, f64)> = vec![
        ("Cambridge, MA", 1_819.45), // + Laserwave 180.55 ≈ 2 000
        ("New York, NY", 19_878.0),
        ("San Francisco, CA", 36_909.87),
        ("Seattle, WA", 38_854.5),
    ];
    let scenario_b_background: Vec<(&str, f64)> = vec![
        ("Cambridge, MA", 39_819.45),
        ("New York, NY", 26_878.0),
        ("San Francisco, CA", 19_909.87),
        ("Seattle, WA", 31_854.5),
    ];

    let db = Arc::new(Database::new());
    db.register(build_sales("sales_a", &scenario_a_background));
    db.register(build_sales("sales_b", &scenario_b_background));

    let laser = Expr::col("product").eq("Laserwave");

    // --- Table 1 + Figure 1: the target view ------------------------
    show_view(
        &db,
        "sales_a",
        Some(laser.clone()),
        "Table 1: Total Sales by Store for Laserwave",
    );

    // --- Figures 2 and 3: the two comparison views ------------------
    show_view(
        &db,
        "sales_a",
        None,
        "Scenario A (Fig. 2): Total Sales by Store — opposite trend",
    );
    show_view(
        &db,
        "sales_b",
        None,
        "Scenario B (Fig. 3): Total Sales by Store — same trend",
    );

    // --- SeeDB's verdict --------------------------------------------
    println!("SeeDB utility of the view SUM(amount) BY store:\n");
    let mut utilities = Vec::new();
    for (table, label) in [("sales_a", "Scenario A"), ("sales_b", "Scenario B")] {
        let seedb = SeeDb::new(
            db.clone(),
            SeeDbConfig::recommended()
                .with_k(1)
                .with_functions(seedb::core::FunctionSet::sum_only()),
        );
        let rec = seedb
            .recommend(&AnalystQuery::new(table, Some(laser.clone())))
            .expect("recommendation runs");
        let view = &rec.views[0];
        assert_eq!(view.spec.label(), "SUM(amount) BY store");
        println!(
            "  {label}: utility = {:.4} ({})",
            view.utility,
            Metric::EarthMovers.name()
        );
        utilities.push(view.utility);

        // Render the paired bar chart for this scenario.
        let table_ref = db.table(table).unwrap();
        let spec = VisualizationSpec::from_view(
            view,
            table_ref.schema(),
            Metric::EarthMovers,
            table,
            Some("product = 'Laserwave'"),
        );
        println!("{}", seedb::viz::ascii::render(&spec));
    }

    assert!(
        utilities[0] > 5.0 * utilities[1].max(1e-6),
        "Scenario A must score much higher than Scenario B"
    );
    println!(
        "=> Scenario A deviates ({}x higher utility): SeeDB recommends the view.\n   \
         Scenario B matches the overall trend: SeeDB ranks it uninteresting.",
        (utilities[0] / utilities[1].max(1e-9)).round()
    );

    // The full pipeline on scenario A also *discovers* the store view on
    // its own (it is the only dimension left after excluding the filter
    // attribute).
    let frontend = Frontend::new(SeeDb::with_defaults(db.clone()));
    let out = frontend
        .issue_sql("SELECT * FROM sales_a WHERE product = 'Laserwave'")
        .unwrap();
    assert_eq!(out.visualizations[0].x_label, "store");
    for store in STORES {
        assert!(out.visualizations[0].series[0]
            .points
            .iter()
            .any(|p| p.label == store));
    }
    println!("\nFull-pipeline check passed: SeeDB surfaces the store view unprompted.");
}
