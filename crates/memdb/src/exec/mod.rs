//! Query representation and execution.
//!
//! A [`Query`] is one shared scan over one table that evaluates one or
//! more grouping sets in a single pass: a plain `SELECT ... FROM t
//! [WHERE ...] [GROUP BY ...]` is its one-set case, and several sets are
//! SeeDB's "combine multiple group-bys" rewrite. Execution (through
//! [`crate::plan::PhysicalPlan`]) yields one [`ResultSet`] per set plus
//! [`ExecStats`] for cost accounting.

pub mod aggregate;
pub mod exactsum;

use std::time::{Duration, Instant};

pub use aggregate::{agg_output_type, AggFunc, AggRequest, AggState, Grouped};
pub use exactsum::ExactSum;

use crate::error::{DbError, DbResult};
use crate::expr::Expr;
use crate::sample::{sample_rows, SampleSpec};
use crate::table::Table;
use crate::value::Value;

/// One aggregate in a query's SELECT list.
#[derive(Debug, Clone)]
pub struct AggSpec {
    /// Aggregate function.
    pub func: AggFunc,
    /// Input column name; `None` only for `COUNT(*)`.
    pub column: Option<String>,
    /// Optional per-aggregate predicate (rows failing it do not feed this
    /// aggregate). This is how a combined target/comparison query is
    /// expressed: the target aggregate carries the analyst's filter, the
    /// comparison aggregate carries none.
    pub filter: Option<Expr>,
    /// Output column name; defaults to `FUNC(col)` (with a `_target`
    /// suffix convention applied by SeeDB's query generator, not here).
    pub alias: Option<String>,
}

impl AggSpec {
    /// `func(column)` with no per-aggregate filter.
    pub fn new(func: AggFunc, column: &str) -> Self {
        AggSpec {
            func,
            column: Some(column.to_string()),
            filter: None,
            alias: None,
        }
    }

    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        AggSpec {
            func: AggFunc::Count,
            column: None,
            filter: None,
            alias: None,
        }
    }

    /// Attach a per-aggregate filter (builder style).
    pub fn with_filter(mut self, filter: Expr) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Attach an output alias (builder style).
    pub fn with_alias(mut self, alias: &str) -> Self {
        self.alias = Some(alias.to_string());
        self
    }

    /// The output column name.
    pub fn output_name(&self) -> String {
        if let Some(a) = &self.alias {
            return a.clone();
        }
        match &self.column {
            Some(c) => format!("{}({})", self.func.sql(), c),
            None => format!("{}(*)", self.func.sql()),
        }
    }

    /// Identity of the *accumulated state* this aggregate produces:
    /// (function, input column, per-aggregate predicate). Two specs with
    /// equal state keys accumulate bit-identical [`AggState`]s over the
    /// same scan — the alias only labels the output column. This is the
    /// key the serving layer dedupes merged-scan aggregates by and that
    /// [`crate::PartialAggState::project_for`] matches against; both
    /// must agree, so it lives here.
    pub fn state_key(&self) -> (AggFunc, Option<&str>, Option<String>) {
        (
            self.func,
            self.column.as_deref(),
            self.filter.as_ref().map(Expr::to_sql),
        )
    }
}

/// A shared-scan aggregate query over one table: every grouping set is
/// computed with every aggregate in one pass.
#[derive(Debug, Clone)]
pub struct Query {
    /// Target table name.
    pub table: String,
    /// Scan-level filter (`WHERE`): rows failing it contribute to nothing.
    pub filter: Option<Expr>,
    /// The grouping sets; each produces its own [`ResultSet`]. An empty
    /// set is one global group.
    pub sets: Vec<Vec<String>>,
    /// Aggregates to compute (for every set).
    pub aggregates: Vec<AggSpec>,
    /// Optional sampling of the scan domain.
    pub sample: Option<SampleSpec>,
}

impl Query {
    /// `SELECT <aggs> FROM table GROUP BY <group_by>` — the one-set case.
    pub fn aggregate(table: &str, group_by: Vec<&str>, aggregates: Vec<AggSpec>) -> Self {
        Query {
            table: table.to_string(),
            filter: None,
            sets: vec![group_by.into_iter().map(str::to_string).collect()],
            aggregates,
            sample: None,
        }
    }

    /// Attach a WHERE filter (builder style).
    pub fn with_filter(mut self, filter: Expr) -> Self {
        self.filter = Some(filter);
        self
    }

    /// Attach sampling (builder style).
    pub fn with_sample(mut self, sample: SampleSpec) -> Self {
        self.sample = Some(sample);
        self
    }

    /// Render as SQL text (for logs and the demo frontend). Several
    /// sets render as `GROUP BY GROUPING SETS (...)`.
    pub fn to_sql(&self) -> String {
        let mut select: Vec<String> = match self.sets.as_slice() {
            [set] => set.clone(),
            sets => {
                let mut cols: Vec<String> = Vec::new();
                for c in sets.iter().flatten() {
                    if !cols.contains(c) {
                        cols.push(c.clone());
                    }
                }
                cols
            }
        };
        for a in &self.aggregates {
            let base = match &a.column {
                Some(c) => format!("{}({})", a.func.sql(), c),
                None => format!("{}(*)", a.func.sql()),
            };
            let expr = match &a.filter {
                Some(f) => format!("{base} FILTER (WHERE {})", f.to_sql()),
                None => base,
            };
            match &a.alias {
                Some(al) => select.push(format!("{expr} AS {al}")),
                None => select.push(expr),
            }
        }
        let mut sql = format!("SELECT {} FROM {}", select.join(", "), self.table);
        if let Some(f) = &self.filter {
            sql.push_str(&format!(" WHERE {}", f.to_sql()));
        }
        match self.sets.as_slice() {
            [set] if set.is_empty() => {}
            [set] => sql.push_str(&format!(" GROUP BY {}", set.join(", "))),
            sets => {
                let sets: Vec<String> =
                    sets.iter().map(|s| format!("({})", s.join(", "))).collect();
                sql.push_str(&format!(" GROUP BY GROUPING SETS ({})", sets.join(", ")));
            }
        }
        sql
    }
}

/// Tabular query output.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names: grouping attributes then aggregates.
    pub columns: Vec<String>,
    /// Row-major values.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Index of an output column.
    ///
    /// # Errors
    /// `UnknownColumn` if absent.
    pub fn column_index(&self, name: &str) -> DbResult<usize> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| DbError::UnknownColumn(name.to_string()))
    }

    /// Render as an aligned text table (for examples and the demo).
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::render).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
        }
        out
    }
}

/// How the serving layer's cache treated the execution (stamped by the
/// cache above the engine; plain engine executions stay [`Uncached`]).
///
/// [`Uncached`]: CacheOutcome::Uncached
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No cache probe — direct engine execution.
    #[default]
    Uncached,
    /// Served from a cached state without touching the table.
    Hit,
    /// A cached state was brought current by scanning only delta rows.
    Refreshed,
    /// Probe missed: computed by a fresh scan (and cached).
    Miss,
}

impl std::fmt::Display for CacheOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheOutcome::Uncached => "uncached",
            CacheOutcome::Hit => "hit",
            CacheOutcome::Refreshed => "refreshed",
            CacheOutcome::Miss => "miss",
        })
    }
}

/// Per-execution cost figures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows in the scan domain (full table, or sample size).
    pub rows_scanned: u64,
    /// Rows surviving the scan-level filter (≤ `rows_scanned`).
    pub rows_matched: u64,
    /// Table scans performed (1 per execution — shared scans are the point).
    pub table_scans: u64,
    /// Total groups emitted across all grouping sets.
    pub groups_emitted: u64,
    /// Partition tasks that contributed (1 for a single-threaded scan;
    /// the worker count after a partitioned merge).
    pub partitions: u64,
    /// Time spent merging partial states, per the injected clock (0 for
    /// single-partition executions).
    pub merge_ns: u64,
    /// Cache probe outcome for the request this execution served.
    pub cache: CacheOutcome,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl ExecStats {
    /// Accumulate another execution's stats into this one. Numeric
    /// fields sum; the cache outcome is adopted from `other` only if
    /// this side hasn't recorded one (merged partitions of one request
    /// share a single probe).
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.rows_matched += other.rows_matched;
        self.table_scans += other.table_scans;
        self.groups_emitted += other.groups_emitted;
        self.partitions += other.partitions;
        self.merge_ns += other.merge_ns;
        if self.cache == CacheOutcome::Uncached {
            self.cache = other.cache;
        }
        self.elapsed += other.elapsed;
    }
}

pub(crate) fn resolve_aggs(table: &Table, aggs: &[AggSpec]) -> DbResult<Vec<AggRequest>> {
    aggs.iter()
        .map(|a| {
            let column = match &a.column {
                Some(c) => Some(table.schema().index_of(c)?),
                None => None,
            };
            let predicate = match &a.filter {
                Some(f) => Some(f.bind(table.schema())?),
                None => None,
            };
            Ok(AggRequest {
                func: a.func,
                column,
                predicate,
            })
        })
        .collect()
}

fn scan_domain(
    table: &Table,
    filter: Option<&Expr>,
    sample: Option<&SampleSpec>,
    row_range: Option<(usize, usize)>,
) -> DbResult<(Vec<u32>, u64)> {
    // The scan domain is (optionally) sliced to a row range, then
    // sampled, then filtered; the cost charged is the number of rows the
    // engine had to look at, which is the domain size before filtering
    // (the filter is evaluated inside the same scan).
    let (lo, hi) = match row_range {
        None => (0, table.num_rows()),
        Some((lo, hi)) => (lo.min(table.num_rows()), hi.min(table.num_rows())),
    };
    let base: Vec<u32> = match sample {
        None => (lo as u32..hi as u32).collect(),
        Some(s) => sample_rows(hi.saturating_sub(lo), s)
            .into_iter()
            .map(|r| r + lo as u32)
            .collect(),
    };
    let scanned = base.len() as u64;
    let rows = match filter {
        None => base,
        Some(f) => {
            let bound = f.bind(table.schema())?;
            base.into_iter()
                .filter(|&r| bound.eval_bool(table, r as usize) == Some(true))
                .collect()
        }
    };
    Ok((rows, scanned))
}

pub(crate) fn grouped_to_result(group_by: &[String], aggs: &[AggSpec], g: Grouped) -> ResultSet {
    let mut columns: Vec<String> = group_by.to_vec();
    columns.extend(aggs.iter().map(AggSpec::output_name));
    let rows = g
        .keys
        .into_iter()
        .zip(g.values)
        .map(|(mut k, v)| {
            k.extend(v);
            k
        })
        .collect();
    ResultSet { columns, rows }
}

/// Unfinalized output of a scan: mergeable per-set accumulators plus
/// the scan's cost figures.
pub(crate) struct RawPartial {
    pub(crate) accs: Vec<aggregate::SetAcc>,
    pub(crate) stats: ExecStats,
}

/// Scan `q` over an optional row slice of `table` — sampled if `q`
/// samples — without finalizing. Every execution path goes through
/// this one scan (see [`crate::plan::PhysicalPlan`]).
///
/// # Errors
/// Unknown columns, type errors, or invalid query shapes.
pub(crate) fn scan(
    table: &Table,
    q: &Query,
    row_range: Option<(usize, usize)>,
) -> DbResult<RawPartial> {
    let start = Instant::now();
    let sets: Vec<Vec<usize>> = q
        .sets
        .iter()
        .map(|set| {
            set.iter()
                .map(|c| table.schema().index_of(c))
                .collect::<DbResult<Vec<usize>>>()
        })
        .collect::<DbResult<_>>()?;
    let aggs = resolve_aggs(table, &q.aggregates)?;
    if aggs.is_empty() {
        return Err(DbError::InvalidQuery(
            "queries must compute at least one aggregate".to_string(),
        ));
    }
    let (rows, scanned) = scan_domain(table, q.filter.as_ref(), q.sample.as_ref(), row_range)?;
    let matched = rows.len() as u64;
    let accs = aggregate::grouping_sets_scan_partial(table, &rows, &sets, &aggs)?;
    Ok(RawPartial {
        accs,
        stats: ExecStats {
            rows_scanned: scanned,
            rows_matched: matched,
            table_scans: 1,
            partitions: 1,
            elapsed: start.elapsed(),
            ..ExecStats::default()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PhysicalPlan, PlanOutput};
    use crate::schema::{ColumnDef, Schema};
    use crate::value::DataType;

    fn execute(table: &Table, q: &Query) -> DbResult<PlanOutput> {
        PhysicalPlan {
            query: q.clone(),
            row_range: None,
        }
        .execute(table)
    }

    fn sales() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::dimension("store", DataType::Str),
            ColumnDef::dimension("product", DataType::Str),
            ColumnDef::measure("amount", DataType::Float64),
        ])
        .unwrap();
        let mut t = Table::new("sales", schema);
        for (s, p, a) in [
            ("MA", "Laserwave", 10.0),
            ("MA", "Saberwave", 20.0),
            ("WA", "Laserwave", 30.0),
            ("NY", "Saberwave", 50.0),
        ] {
            t.push_row(vec![s.into(), p.into(), a.into()]).unwrap();
        }
        t
    }

    #[test]
    fn basic_group_by_query() {
        let t = sales();
        let q = Query::aggregate(
            "sales",
            vec!["store"],
            vec![AggSpec::new(AggFunc::Sum, "amount")],
        );
        let out = execute(&t, &q).unwrap();
        assert_eq!(out.results[0].columns, vec!["store", "SUM(amount)"]);
        assert_eq!(out.results[0].num_rows(), 3);
        assert_eq!(out.stats.rows_scanned, 4);
        assert_eq!(out.stats.table_scans, 1);
        assert_eq!(out.stats.groups_emitted, 3);
    }

    #[test]
    fn where_filter_restricts_groups() {
        let t = sales();
        let q = Query::aggregate(
            "sales",
            vec!["store"],
            vec![AggSpec::new(AggFunc::Sum, "amount")],
        )
        .with_filter(Expr::col("product").eq("Laserwave"));
        let out = execute(&t, &q).unwrap();
        assert_eq!(out.results[0].num_rows(), 2); // MA, WA only
                                                  // Cost: the filter is evaluated inside the scan, so all 4 rows
                                                  // are charged.
        assert_eq!(out.stats.rows_scanned, 4);
    }

    #[test]
    fn aliases_and_filtered_aggregates() {
        let t = sales();
        let q = Query::aggregate(
            "sales",
            vec!["store"],
            vec![
                AggSpec::new(AggFunc::Sum, "amount")
                    .with_filter(Expr::col("product").eq("Laserwave"))
                    .with_alias("target"),
                AggSpec::new(AggFunc::Sum, "amount").with_alias("comparison"),
            ],
        );
        let out = execute(&t, &q).unwrap();
        assert_eq!(
            out.results[0].columns,
            vec!["store", "target", "comparison"]
        );
        let ma = &out.results[0].rows[0];
        assert_eq!(ma[1], Value::Float(10.0));
        assert_eq!(ma[2], Value::Float(30.0));
    }

    #[test]
    fn sets_query_shares_one_scan() {
        let t = sales();
        let q = Query {
            sets: vec![vec!["store".into()], vec!["product".into()]],
            ..Query::aggregate("sales", vec![], vec![AggSpec::new(AggFunc::Sum, "amount")])
        };
        let out = execute(&t, &q).unwrap();
        assert_eq!(out.results.len(), 2);
        assert_eq!(out.stats.table_scans, 1);
        assert_eq!(out.stats.rows_scanned, 4);
        assert_eq!(out.stats.groups_emitted, 3 + 2);
        assert_eq!(
            q.to_sql(),
            "SELECT store, product, SUM(amount) FROM sales GROUP BY GROUPING SETS ((store), (product))"
        );
    }

    #[test]
    fn sql_rendering_roundtrip_shape() {
        let q = Query::aggregate(
            "sales",
            vec!["store"],
            vec![AggSpec::new(AggFunc::Sum, "amount")],
        )
        .with_filter(Expr::col("product").eq("Laserwave"));
        assert_eq!(
            q.to_sql(),
            "SELECT store, SUM(amount) FROM sales WHERE product = 'Laserwave' GROUP BY store"
        );
    }

    #[test]
    fn no_aggregates_rejected() {
        let t = sales();
        let q = Query::aggregate("sales", vec!["store"], vec![]);
        assert!(execute(&t, &q).is_err());
    }

    #[test]
    fn result_set_text_rendering() {
        let t = sales();
        let q = Query::aggregate(
            "sales",
            vec!["store"],
            vec![AggSpec::new(AggFunc::Sum, "amount")],
        );
        let out = execute(&t, &q).unwrap();
        let text = out.results[0].to_text();
        assert!(text.contains("store"));
        assert!(text.contains("MA"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ExecStats {
            rows_scanned: 10,
            rows_matched: 8,
            table_scans: 1,
            groups_emitted: 3,
            partitions: 1,
            merge_ns: 100,
            cache: CacheOutcome::Uncached,
            elapsed: Duration::from_millis(5),
        };
        let b = ExecStats {
            rows_scanned: 20,
            rows_matched: 15,
            table_scans: 2,
            groups_emitted: 4,
            partitions: 1,
            merge_ns: 50,
            cache: CacheOutcome::Miss,
            elapsed: Duration::from_millis(7),
        };
        a.merge(&b);
        assert_eq!(a.rows_scanned, 30);
        assert_eq!(a.rows_matched, 23);
        assert_eq!(a.table_scans, 3);
        assert_eq!(a.groups_emitted, 7);
        assert_eq!(a.partitions, 2);
        assert_eq!(a.merge_ns, 150);
        assert_eq!(a.cache, CacheOutcome::Miss);
        assert_eq!(a.elapsed, Duration::from_millis(12));
    }

    #[test]
    fn stats_merge_keeps_existing_cache_outcome() {
        let mut a = ExecStats {
            cache: CacheOutcome::Hit,
            ..ExecStats::default()
        };
        let b = ExecStats {
            cache: CacheOutcome::Miss,
            ..ExecStats::default()
        };
        a.merge(&b);
        assert_eq!(a.cache, CacheOutcome::Hit);
    }

    #[test]
    fn execute_reports_rows_matched_under_filter() {
        let t = sales();
        let q = Query::aggregate(
            "sales",
            vec!["store"],
            vec![AggSpec::new(AggFunc::Sum, "amount")],
        )
        .with_filter(Expr::col("product").eq("Laserwave"));
        let out = execute(&t, &q).unwrap();
        assert_eq!(out.stats.rows_scanned, 4);
        assert_eq!(out.stats.rows_matched, 2);
        assert_eq!(out.stats.partitions, 1);
        assert_eq!(out.stats.cache, CacheOutcome::Uncached);
    }
}
