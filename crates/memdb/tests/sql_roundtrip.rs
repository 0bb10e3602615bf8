//! Property tests for the SQL layer: expressions rendered with
//! `Expr::to_sql` must parse back to something that selects exactly the
//! same rows, and generated queries must round-trip through `Query::to_sql`
//! where the surface syntax supports them.

use memdb::{parse_query, ColumnDef, DataType, Expr, Schema, Table, Value};
use proptest::prelude::*;

/// Random predicate AST over columns d (string, values "a"/"b"/"c"),
/// n (int), and m (float).
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        proptest::sample::select(vec!["a", "b", "c", "zz"]).prop_map(|v| Expr::col("d").eq(v)),
        (-5i64..5).prop_map(|v| Expr::col("n").gt(v)),
        (-5i64..5).prop_map(|v| Expr::col("n").le(v)),
        (-10.0f64..10.0).prop_map(|v| Expr::col("m").lt(v)),
        Just(Expr::col("d").is_null()),
        proptest::collection::vec(proptest::sample::select(vec!["a", "b", "c"]), 1..3)
            .prop_map(|vs| Expr::col("d").in_list(vs.into_iter().map(Value::from).collect())),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|e| e.not()),
        ]
    })
}

fn table() -> Table {
    let schema = Schema::new(vec![
        ColumnDef::dimension("d", DataType::Str),
        ColumnDef::dimension("n", DataType::Int64),
        ColumnDef::measure("m", DataType::Float64),
    ])
    .unwrap();
    let mut t = Table::new("t", schema);
    let ds = ["a", "b", "c"];
    for i in 0..60i64 {
        let d = if i % 7 == 0 {
            Value::Null
        } else {
            Value::from(ds[(i % 3) as usize])
        };
        t.push_row(vec![
            d,
            Value::Int(i % 8 - 4),
            Value::Float((i % 13) as f64 - 6.0),
        ])
        .unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// to_sql -> parse -> evaluate selects the same rows as the original
    /// expression tree.
    #[test]
    fn expr_roundtrips_through_sql(expr in expr_strategy()) {
        let t = table();
        let direct = memdb::expr::selection_for(&t, Some(&expr)).unwrap();

        let sql = format!("SELECT COUNT(*) FROM t WHERE {}", expr.to_sql());
        let parsed = parse_query(&sql)
            .unwrap_or_else(|e| panic!("failed to parse {sql:?}: {e}"));
        let reparsed_filter = parsed.filter.expect("filter survives");
        let roundtrip = memdb::expr::selection_for(&t, Some(&reparsed_filter)).unwrap();

        prop_assert_eq!(direct, roundtrip, "sql was: {}", sql);
    }

    /// Parsing is total on rendered expressions (never panics, never
    /// errors) and idempotent: render(parse(render(e))) == render(parse(e)).
    #[test]
    fn render_parse_is_idempotent(expr in expr_strategy()) {
        let sql1 = expr.to_sql();
        let q1 = parse_query(&format!("SELECT COUNT(*) FROM t WHERE {sql1}")).unwrap();
        let sql2 = q1.filter.as_ref().unwrap().to_sql();
        let q2 = parse_query(&format!("SELECT COUNT(*) FROM t WHERE {sql2}")).unwrap();
        prop_assert_eq!(sql2, q2.filter.unwrap().to_sql());
    }
}

#[test]
fn executed_sql_matches_programmatic_query() {
    let t = table();
    let db = memdb::Database::new();
    db.register(t);
    let from_sql = db
        .run_sql("SELECT d, SUM(m) AS s, COUNT(*) AS c FROM t WHERE n >= 0 GROUP BY d")
        .unwrap();
    let plan = memdb::LogicalPlan::scan("t")
        .filter(Expr::col("n").ge(0))
        .aggregate(
            vec!["d".into()],
            vec![
                memdb::AggSpec::new(memdb::AggFunc::Sum, "m").with_alias("s"),
                memdb::AggSpec::count_star().with_alias("c"),
            ],
        );
    let programmatic = db.execute_plan(&plan).unwrap();
    assert_eq!(from_sql.results, programmatic.results);
}
