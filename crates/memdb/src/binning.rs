//! Numeric binning: deriving a categorical dimension from a numeric
//! column.
//!
//! The paper's workflow (§1) builds views with "operations such as
//! binning, grouping, and aggregation". A raw numeric column (price,
//! age, amount) has too many distinct values to group on directly; this
//! module derives a bucketed dimension column (e.g. `price_bin`) that
//! SeeDB can then treat as an ordinary grouping attribute.

use crate::column::Column;
use crate::error::{DbError, DbResult};
use crate::schema::{ColumnDef, Role, Schema, Semantic};
use crate::table::Table;
use crate::value::{DataType, Value};

/// How bucket boundaries are chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BinStrategy {
    /// `bins` equal-width intervals spanning `[min, max]`.
    EqualWidth {
        /// Number of buckets.
        bins: usize,
    },
    /// `bins` buckets with (approximately) equal row counts
    /// (quantile binning) — robust to skew.
    EqualDepth {
        /// Number of buckets.
        bins: usize,
    },
}

/// A derived binning of one numeric column: boundaries plus labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Binning {
    /// Source column name.
    pub column: String,
    /// Interior bucket boundaries, ascending; bucket `i` covers
    /// `[edges[i-1], edges[i])` with the first bucket open below and the
    /// last closed above.
    pub edges: Vec<f64>,
    /// One label per bucket, e.g. `"[10.0, 20.0)"`.
    pub labels: Vec<String>,
}

impl Binning {
    /// Compute a binning for `column` (named `name`) under `strategy`.
    ///
    /// # Errors
    /// `TypeMismatch` for non-numeric columns, `InvalidQuery` for zero
    /// bins or a column with no non-null values.
    pub fn compute(name: &str, column: &Column, strategy: BinStrategy) -> DbResult<Binning> {
        if !column.data_type().is_numeric() {
            return Err(DbError::TypeMismatch {
                expected: "numeric".to_string(),
                found: column.data_type().name().to_string(),
                context: format!("binning {name}"),
            });
        }
        let bins = match strategy {
            BinStrategy::EqualWidth { bins } | BinStrategy::EqualDepth { bins } => bins,
        };
        if bins == 0 {
            return Err(DbError::InvalidQuery(
                "binning needs at least 1 bin".to_string(),
            ));
        }
        let mut values: Vec<f64> = (0..column.len())
            .filter_map(|i| column.f64_at(i))
            .filter(|v| v.is_finite())
            .collect();
        if values.is_empty() {
            return Err(DbError::InvalidQuery(format!(
                "column {name} has no finite values to bin"
            )));
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        let (lo, hi) = (values[0], values[values.len() - 1]);

        let mut edges: Vec<f64> = match strategy {
            BinStrategy::EqualWidth { bins } => {
                if lo == hi {
                    Vec::new() // single bucket
                } else {
                    (1..bins)
                        .map(|i| lo + (hi - lo) * i as f64 / bins as f64)
                        .collect()
                }
            }
            BinStrategy::EqualDepth { bins } => {
                let n = values.len();
                (1..bins)
                    .map(|i| values[(n * i / bins).min(n - 1)])
                    .collect()
            }
        };
        edges.dedup_by(|a, b| a == b);

        // Build labels from the full edge list (lo ... edges ... hi).
        let fmt = |v: f64| {
            if v.abs() >= 1000.0 {
                format!("{v:.0}")
            } else {
                format!("{v:.2}")
            }
        };
        let mut bounds = Vec::with_capacity(edges.len() + 2);
        bounds.push(lo);
        bounds.extend(edges.iter().copied());
        bounds.push(hi);
        let labels: Vec<String> = (0..bounds.len() - 1)
            .map(|i| {
                let close = if i == bounds.len() - 2 { "]" } else { ")" };
                // Zero-padded bucket index keeps lexicographic label order
                // equal to numeric bucket order (EMD relies on this).
                format!(
                    "b{:02} [{}, {}{close}",
                    i,
                    fmt(bounds[i]),
                    fmt(bounds[i + 1])
                )
            })
            .collect();

        Ok(Binning {
            column: name.to_string(),
            edges,
            labels,
        })
    }

    /// Number of buckets.
    pub fn num_bins(&self) -> usize {
        self.labels.len()
    }

    /// Bucket index for a value.
    pub fn bucket_of(&self, v: f64) -> usize {
        match self
            .edges
            .binary_search_by(|e| e.partial_cmp(&v).expect("finite edges"))
        {
            // A value equal to edge i belongs to bucket i+1 (half-open).
            Ok(i) => (i + 1).min(self.labels.len() - 1),
            Err(i) => i.min(self.labels.len() - 1),
        }
    }

    /// Label for a value.
    pub fn label_of(&self, v: f64) -> &str {
        &self.labels[self.bucket_of(v)]
    }
}

/// Derive a new table that appends a binned dimension column named
/// `{column}_bin` (ordinal semantics) computed from `column`.
///
/// The source column keeps its role; the new table can be registered
/// under a new name and queried by SeeDB like any other.
///
/// # Errors
/// Unknown column or binning failures as in [`Binning::compute`].
pub fn with_binned_column(
    table: &Table,
    column: &str,
    strategy: BinStrategy,
) -> DbResult<(Table, Binning)> {
    let src = table.column(column)?;
    let binning = Binning::compute(column, src, strategy)?;

    let mut cols: Vec<ColumnDef> = table.schema().columns().to_vec();
    let bin_name = format!("{column}_bin");
    if table.schema().index_of(&bin_name).is_ok() {
        return Err(DbError::Schema(format!("column {bin_name} already exists")));
    }
    cols.push(ColumnDef {
        name: bin_name,
        dtype: DataType::Str,
        role: Role::Dimension,
        semantic: Semantic::Ordinal,
    });
    let schema = Schema::new(cols)?;
    let mut out = Table::with_capacity(table.name(), schema, table.num_rows());
    for i in 0..table.num_rows() {
        let mut row = table.row(i);
        let bin_value = match src.f64_at(i) {
            Some(v) if v.is_finite() => Value::from(binning.label_of(v)),
            _ => Value::Null,
        };
        row.push(bin_value);
        out.push_row(row)?;
    }
    Ok((out, binning))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn numeric_table(values: &[f64]) -> Table {
        let schema = Schema::new(vec![ColumnDef::measure("price", DataType::Float64)]).unwrap();
        let mut t = Table::new("t", schema);
        for &v in values {
            t.push_row(vec![Value::Float(v)]).unwrap();
        }
        t
    }

    #[test]
    fn equal_width_bins() {
        let t = numeric_table(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0]);
        let b = Binning::compute(
            "price",
            t.column("price").unwrap(),
            BinStrategy::EqualWidth { bins: 5 },
        )
        .unwrap();
        assert_eq!(b.num_bins(), 5);
        assert_eq!(b.edges, vec![2.0, 4.0, 6.0, 8.0]);
        assert_eq!(b.bucket_of(0.0), 0);
        assert_eq!(b.bucket_of(1.9), 0);
        assert_eq!(b.bucket_of(2.0), 1); // half-open: edge goes up
        assert_eq!(b.bucket_of(10.0), 4);
        assert_eq!(b.bucket_of(999.0), 4); // clamped
    }

    #[test]
    fn equal_depth_bins_balance_counts() {
        // Heavily skewed data: equal-width would put almost everything in
        // bucket 0; equal-depth balances.
        let mut vals: Vec<f64> = (0..90).map(|i| i as f64 / 100.0).collect();
        vals.extend([
            100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0,
        ]);
        let t = numeric_table(&vals);
        let b = Binning::compute(
            "price",
            t.column("price").unwrap(),
            BinStrategy::EqualDepth { bins: 4 },
        )
        .unwrap();
        let mut counts = vec![0usize; b.num_bins()];
        for &v in &vals {
            counts[b.bucket_of(v)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(max <= 2 * min.max(1), "unbalanced buckets: {counts:?}");
    }

    #[test]
    fn constant_column_single_bucket() {
        let t = numeric_table(&[5.0; 20]);
        let b = Binning::compute(
            "price",
            t.column("price").unwrap(),
            BinStrategy::EqualWidth { bins: 4 },
        )
        .unwrap();
        assert_eq!(b.num_bins(), 1);
        assert_eq!(b.bucket_of(5.0), 0);
    }

    #[test]
    fn labels_sort_in_bucket_order() {
        let t = numeric_table(&(0..100).map(|i| i as f64).collect::<Vec<_>>());
        let b = Binning::compute(
            "price",
            t.column("price").unwrap(),
            BinStrategy::EqualWidth { bins: 12 },
        )
        .unwrap();
        let mut sorted = b.labels.clone();
        sorted.sort();
        assert_eq!(sorted, b.labels, "lexicographic == numeric bucket order");
    }

    #[test]
    fn non_numeric_rejected() {
        let schema = Schema::new(vec![ColumnDef::dimension("d", DataType::Str)]).unwrap();
        let mut t = Table::new("t", schema);
        t.push_row(vec!["x".into()]).unwrap();
        assert!(Binning::compute(
            "d",
            t.column("d").unwrap(),
            BinStrategy::EqualWidth { bins: 3 }
        )
        .is_err());
    }

    #[test]
    fn zero_bins_and_empty_column_rejected() {
        let t = numeric_table(&[1.0]);
        assert!(Binning::compute(
            "price",
            t.column("price").unwrap(),
            BinStrategy::EqualWidth { bins: 0 }
        )
        .is_err());
        let empty = numeric_table(&[]);
        assert!(Binning::compute(
            "price",
            empty.column("price").unwrap(),
            BinStrategy::EqualWidth { bins: 3 }
        )
        .is_err());
    }

    #[test]
    fn with_binned_column_appends_dimension() {
        let t = numeric_table(&(0..50).map(|i| i as f64).collect::<Vec<_>>());
        let (binned, binning) =
            with_binned_column(&t, "price", BinStrategy::EqualWidth { bins: 5 }).unwrap();
        assert_eq!(binned.num_rows(), 50);
        let def = binned.schema().column("price_bin").unwrap();
        assert_eq!(def.role, Role::Dimension);
        assert_eq!(def.semantic, Semantic::Ordinal);
        // Row 0 (price 0.0) is in the first bucket.
        let v = binned.column("price_bin").unwrap().get(0);
        assert_eq!(v.as_str(), Some(binning.labels[0].as_str()));
        // Binned column groups correctly through the executor.
        let plan = crate::plan::LogicalPlan::scan("t").aggregate(
            vec!["price_bin".into()],
            vec![crate::exec::AggSpec::count_star()],
        );
        let out = plan.lower().unwrap().execute(&binned).unwrap();
        let result = out.result_set(0).unwrap();
        assert_eq!(result.num_rows(), 5);
        assert!(result.rows.iter().all(|r| r[1] == Value::Int(10)));
    }

    #[test]
    fn null_values_stay_null_in_bin_column() {
        let schema = Schema::new(vec![ColumnDef::measure("m", DataType::Float64)]).unwrap();
        let mut t = Table::new("t", schema);
        t.push_row(vec![Value::Float(1.0)]).unwrap();
        t.push_row(vec![Value::Null]).unwrap();
        t.push_row(vec![Value::Float(2.0)]).unwrap();
        let (binned, _) = with_binned_column(&t, "m", BinStrategy::EqualWidth { bins: 2 }).unwrap();
        assert_eq!(binned.column("m_bin").unwrap().get(1), Value::Null);
    }

    #[test]
    fn duplicate_bin_column_rejected() {
        let t = numeric_table(&[1.0, 2.0]);
        let (binned, _) =
            with_binned_column(&t, "price", BinStrategy::EqualWidth { bins: 2 }).unwrap();
        assert!(with_binned_column(&binned, "price", BinStrategy::EqualWidth { bins: 2 }).is_err());
    }

    #[test]
    fn equal_depth_on_duplicated_values_dedups_edges() {
        let t = numeric_table(&[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
        let b = Binning::compute(
            "price",
            t.column("price").unwrap(),
            BinStrategy::EqualDepth { bins: 4 },
        )
        .unwrap();
        // Only one distinct interior edge survives dedup.
        assert!(b.num_bins() <= 3);
        assert!(b.bucket_of(1.0) < b.bucket_of(2.0));
    }
}
