//! Reference-model property tests: the optimized aggregation kernels
//! (dictionary fast path, shared scans, per-aggregate predicates,
//! grouping sets) must agree exactly with a naive row-at-a-time
//! reference executor on randomly generated tables and queries.

use std::collections::BTreeMap;

use memdb::exec::{AggFunc, AggSpec, Query};
use memdb::{ColumnDef, DataType, Expr, PhysicalPlan, PlanOutput, Schema, Table, Value};
use proptest::prelude::*;

/// A randomly generated table: 2 string dims (one low-cardinality to hit
/// the dict fast path), 1 int dim, 1 float measure with nulls.
#[derive(Debug, Clone)]
struct TestData {
    rows: Vec<(Option<&'static str>, &'static str, i64, Option<f64>)>,
}

fn data_strategy() -> impl Strategy<Value = TestData> {
    let row = (
        proptest::option::weighted(0.9, proptest::sample::select(vec!["a", "b", "c"])),
        proptest::sample::select(vec!["x", "y", "z", "w", "u"]),
        0i64..4,
        proptest::option::weighted(0.85, -50.0f64..50.0),
    );
    proptest::collection::vec(row, 0..200).prop_map(|rows| TestData { rows })
}

fn build_table(data: &TestData) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::dimension("d1", DataType::Str),
        ColumnDef::dimension("d2", DataType::Str),
        ColumnDef::dimension("d3", DataType::Int64),
        ColumnDef::measure("m", DataType::Float64),
    ])
    .unwrap();
    let mut t = Table::new("t", schema);
    for (d1, d2, d3, m) in &data.rows {
        t.push_row(vec![
            d1.map(Value::from).unwrap_or(Value::Null),
            Value::from(*d2),
            Value::Int(*d3),
            m.map(Value::Float).unwrap_or(Value::Null),
        ])
        .unwrap();
    }
    t
}

/// Naive reference: group rows by the rendered key tuple, aggregate with
/// straightforward loops.
fn reference_aggregate(
    data: &TestData,
    group_cols: &[usize], // 0=d1, 1=d2, 2=d3
    func: AggFunc,
    filter_d2: Option<&str>,  // per-aggregate predicate: d2 == value
    where_d3_lt: Option<i64>, // scan filter: d3 < value
) -> BTreeMap<Vec<String>, Option<f64>> {
    let mut groups: BTreeMap<Vec<String>, Vec<f64>> = BTreeMap::new();
    let mut counts: BTreeMap<Vec<String>, u64> = BTreeMap::new();
    for (d1, d2, d3, m) in &data.rows {
        if let Some(limit) = where_d3_lt {
            if *d3 >= limit {
                continue;
            }
        }
        let key: Vec<String> = group_cols
            .iter()
            .map(|c| match c {
                0 => d1.map(|s| s.to_string()).unwrap_or_else(|| "NULL".into()),
                1 => d2.to_string(),
                2 => d3.to_string(),
                _ => unreachable!(),
            })
            .collect();
        counts.entry(key.clone()).or_insert(0);
        groups.entry(key.clone()).or_default();
        let passes = filter_d2.map(|v| *d2 == v).unwrap_or(true);
        if !passes {
            continue;
        }
        match func {
            AggFunc::Count => {
                *counts.get_mut(&key).unwrap() += 1;
            }
            _ => {
                if let Some(v) = m {
                    groups.get_mut(&key).unwrap().push(*v);
                }
            }
        }
    }
    let mut out = BTreeMap::new();
    for (key, vals) in groups {
        let count = counts[&key];
        let v = match func {
            AggFunc::Count => Some(count as f64),
            AggFunc::Sum => (!vals.is_empty()).then(|| vals.iter().sum()),
            AggFunc::Avg => {
                (!vals.is_empty()).then(|| vals.iter().sum::<f64>() / vals.len() as f64)
            }
            AggFunc::Min => vals.iter().copied().reduce(f64::min),
            AggFunc::Max => vals.iter().copied().reduce(f64::max),
        };
        out.insert(key, v);
    }
    out
}

fn result_to_map(
    result: &memdb::ResultSet,
    num_group_cols: usize,
) -> BTreeMap<Vec<String>, Option<f64>> {
    result
        .rows
        .iter()
        .map(|r| {
            let key: Vec<String> = r[..num_group_cols].iter().map(Value::render).collect();
            let v = match &r[num_group_cols] {
                Value::Null => None,
                Value::Int(i) => Some(*i as f64),
                other => other.as_f64(),
            };
            (key, v)
        })
        .collect()
}

fn approx_eq(
    a: &BTreeMap<Vec<String>, Option<f64>>,
    b: &BTreeMap<Vec<String>, Option<f64>>,
) -> Result<(), String> {
    if a.keys().collect::<Vec<_>>() != b.keys().collect::<Vec<_>>() {
        return Err(format!(
            "group keys differ:\n  engine: {:?}\n  reference: {:?}",
            a.keys().collect::<Vec<_>>(),
            b.keys().collect::<Vec<_>>()
        ));
    }
    for (k, va) in a {
        let vb = &b[k];
        match (va, vb) {
            (None, None) => {}
            (Some(x), Some(y)) if (x - y).abs() < 1e-9 => {}
            _ => return Err(format!("group {k:?}: engine {va:?} vs reference {vb:?}")),
        }
    }
    Ok(())
}

/// Execute `q` through the engine's one physical-plan entry point.
fn execute(t: &Table, q: &Query) -> PlanOutput {
    PhysicalPlan {
        query: q.clone(),
        row_range: None,
    }
    .execute(t)
    .unwrap()
}

const FUNCS: [AggFunc; 5] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single group-by on the dict fast path (one string column) agrees
    /// with the reference for every aggregate function.
    #[test]
    fn single_dim_groupby_matches_reference(data in data_strategy(), func_idx in 0usize..5) {
        let func = FUNCS[func_idx];
        let t = build_table(&data);
        let spec = match func {
            AggFunc::Count => AggSpec::count_star(),
            f => AggSpec::new(f, "m"),
        };
        let q = Query::aggregate("t", vec!["d2"], vec![spec]);
        let out = execute(&t, &q);
        let engine = result_to_map(&out.results[0], 1);
        let reference = reference_aggregate(&data, &[1], func, None, None);
        approx_eq(&engine, &reference).map_err(TestCaseError::fail)?;
    }

    /// Multi-column group-by (generic hashed path) agrees with the
    /// reference, including NULL groups.
    #[test]
    fn multi_dim_groupby_matches_reference(data in data_strategy(), func_idx in 0usize..5) {
        let func = FUNCS[func_idx];
        let t = build_table(&data);
        let spec = match func {
            AggFunc::Count => AggSpec::count_star(),
            f => AggSpec::new(f, "m"),
        };
        let q = Query::aggregate("t", vec!["d1", "d3"], vec![spec]);
        let out = execute(&t, &q);
        let engine = result_to_map(&out.results[0], 2);
        let reference = reference_aggregate(&data, &[0, 2], func, None, None);
        approx_eq(&engine, &reference).map_err(TestCaseError::fail)?;
    }

    /// Per-aggregate predicates (the combined target/comparison rewrite)
    /// agree with running the reference twice.
    #[test]
    fn filtered_aggregates_match_reference(data in data_strategy()) {
        let t = build_table(&data);
        let q = Query::aggregate(
            "t",
            vec!["d2"],
            vec![
                AggSpec::new(AggFunc::Sum, "m")
                    .with_filter(Expr::col("d2").eq("x"))
                    .with_alias("target"),
                AggSpec::new(AggFunc::Sum, "m").with_alias("comparison"),
            ],
        );
        let out = execute(&t, &q);
        // Column 1 = target, column 2 = comparison.
        let target: BTreeMap<Vec<String>, Option<f64>> = out.results[0]
            .rows
            .iter()
            .map(|r| (vec![r[0].render()], r[1].as_f64()))
            .collect();
        let comparison: BTreeMap<Vec<String>, Option<f64>> = out.results[0]
            .rows
            .iter()
            .map(|r| (vec![r[0].render()], r[2].as_f64()))
            .collect();
        let ref_target = reference_aggregate(&data, &[1], AggFunc::Sum, Some("x"), None);
        let ref_comparison = reference_aggregate(&data, &[1], AggFunc::Sum, None, None);
        approx_eq(&target, &ref_target).map_err(TestCaseError::fail)?;
        approx_eq(&comparison, &ref_comparison).map_err(TestCaseError::fail)?;
    }

    /// A WHERE filter agrees with pre-filtering the reference rows.
    #[test]
    fn where_filter_matches_reference(data in data_strategy(), limit in 0i64..5) {
        let t = build_table(&data);
        let q = Query::aggregate("t", vec!["d2"], vec![AggSpec::new(AggFunc::Avg, "m")])
            .with_filter(Expr::col("d3").lt(limit));
        let out = execute(&t, &q);
        let engine = result_to_map(&out.results[0], 1);
        let reference = reference_aggregate(&data, &[1], AggFunc::Avg, None, Some(limit));
        approx_eq(&engine, &reference).map_err(TestCaseError::fail)?;
    }

    /// Grouping sets produce exactly what independent queries produce.
    #[test]
    fn grouping_sets_match_independent_queries(data in data_strategy()) {
        let t = build_table(&data);
        let aggs = vec![AggSpec::new(AggFunc::Sum, "m"), AggSpec::count_star()];
        let sets = Query {
            table: "t".into(),
            filter: None,
            sets: vec![vec!["d1".into()], vec!["d2".into()], vec!["d3".into()]],
            aggregates: aggs.clone(),
            sample: None,
        };
        let combined = execute(&t, &sets);
        for (i, dim) in ["d1", "d2", "d3"].iter().enumerate() {
            let q = Query::aggregate("t", vec![dim], aggs.clone());
            let single = execute(&t, &q);
            prop_assert_eq!(
                &combined.results[i].rows,
                &single.results[0].rows,
                "grouping set {} differs from standalone query",
                dim
            );
        }
        // And the shared scan really is one scan.
        prop_assert_eq!(combined.stats.table_scans, 1);
    }
}
