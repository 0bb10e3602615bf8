//! The Metadata Collector (paper Fig. 4).
//!
//! "First, the Metadata Collector module queries metadata tables ... for
//! information such as table sizes, column types, data distribution, and
//! table access patterns." That information feeds view-space pruning:
//! per-column statistics drive variance pruning, the pairwise association
//! matrix drives correlated-attribute clustering, and the access tracker
//! drives access-frequency pruning.

use std::collections::HashMap;

use memdb::{cramers_v, DbResult, RwLockExt, Table, TableStats};
use std::sync::RwLock;

/// Tracks which columns analyst queries touch, per table — the paper's
/// "table access patterns" metadata. SeeDB records every analyst query
/// it serves; pruning then drops rarely-accessed attributes.
#[derive(Debug, Default)]
pub struct AccessTracker {
    /// table -> column -> access count.
    counts: RwLock<HashMap<String, HashMap<String, u64>>>,
    /// table -> total queries recorded.
    queries: RwLock<HashMap<String, u64>>,
}

impl AccessTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        AccessTracker::default()
    }

    /// Record one query against `table` touching `columns`
    /// (duplicates within one query count once).
    pub fn record<I, S>(&self, table: &str, columns: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut unique: Vec<String> = columns
            .into_iter()
            .map(|c| c.as_ref().to_string())
            .collect();
        unique.sort();
        unique.dedup();
        let mut counts = self.counts.write_recovered();
        let per_table = counts.entry(table.to_string()).or_default();
        for c in unique {
            *per_table.entry(c).or_insert(0) += 1;
        }
        *self
            .queries
            .write_recovered()
            .entry(table.to_string())
            .or_insert(0) += 1;
    }

    /// Access count for one column.
    pub fn count(&self, table: &str, column: &str) -> u64 {
        self.counts
            .read_recovered()
            .get(table)
            .and_then(|m| m.get(column))
            .copied()
            .unwrap_or(0)
    }

    /// Total queries recorded against `table`.
    pub fn total_queries(&self, table: &str) -> u64 {
        self.queries
            .read_recovered()
            .get(table)
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot of all column counts for `table`.
    pub fn snapshot(&self, table: &str) -> HashMap<String, u64> {
        self.counts
            .read_recovered()
            .get(table)
            .cloned()
            .unwrap_or_default()
    }
}

/// Everything the Query Generator needs to know about a table.
#[derive(Debug, Clone)]
pub struct Metadata {
    /// Table name.
    pub table: String,
    /// Row count and per-column statistics.
    pub stats: TableStats,
    /// Pairwise Cramér's V between dimension attributes,
    /// `(dim_i, dim_j, v)` with `i < j` in schema order. Empty when
    /// correlation collection was skipped.
    pub dim_correlations: Vec<(String, String, f64)>,
    /// Column access counts from the workload log (empty when no
    /// workload has been recorded).
    pub access_counts: HashMap<String, u64>,
    /// Number of workload queries behind `access_counts`.
    pub workload_queries: u64,
}

impl Metadata {
    /// Association between two dimensions (symmetric lookup), 0 if the
    /// pair was not computed.
    pub fn correlation(&self, a: &str, b: &str) -> f64 {
        self.dim_correlations
            .iter()
            .find(|(x, y, _)| (x == a && y == b) || (x == b && y == a))
            .map(|(_, _, v)| *v)
            .unwrap_or(0.0)
    }
}

/// Collects [`Metadata`] for tables, consulting a shared [`AccessTracker`].
#[derive(Debug, Default)]
pub struct MetadataCollector {
    tracker: AccessTracker,
}

impl MetadataCollector {
    /// A collector with a fresh access tracker.
    pub fn new() -> Self {
        MetadataCollector::default()
    }

    /// The shared access tracker (record analyst queries here).
    pub fn tracker(&self) -> &AccessTracker {
        &self.tracker
    }

    /// Collect full metadata (statistics + dimension correlations +
    /// access patterns) for `table`.
    ///
    /// Correlation collection is `O(|A|² · n)`; pass
    /// `compute_correlations = false` to skip it for very wide tables
    /// (correlation pruning then becomes a no-op).
    ///
    /// # Errors
    /// Propagates column-lookup failures (schema races are impossible for
    /// immutable tables, so in practice this is infallible).
    pub fn collect(&self, table: &Table, compute_correlations: bool) -> DbResult<Metadata> {
        let stats = TableStats::collect(table);
        let dims = table.schema().dimensions();
        let mut dim_correlations = Vec::new();
        if compute_correlations {
            for (i, a) in dims.iter().enumerate() {
                for b in dims.iter().skip(i + 1) {
                    let v = cramers_v(table.column(a)?, table.column(b)?)?;
                    dim_correlations.push((a.to_string(), b.to_string(), v));
                }
            }
        }
        Ok(Metadata {
            table: table.name().to_string(),
            stats,
            dim_correlations,
            access_counts: self.tracker.snapshot(table.name()),
            workload_queries: self.tracker.total_queries(table.name()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memdb::{ColumnDef, DataType, Schema, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::dimension("state", DataType::Str),
            ColumnDef::dimension("state_name", DataType::Str),
            ColumnDef::dimension("category", DataType::Str),
            ColumnDef::measure("amount", DataType::Float64),
        ])
        .unwrap();
        let mut t = Table::new("orders", schema);
        let states = [
            ("MA", "Massachusetts"),
            ("WA", "Washington"),
            ("NY", "New York"),
        ];
        for i in 0..90 {
            let (s, sn) = states[i % 3];
            let cat = ["tech", "office", "furniture"][(i / 2) % 3];
            t.push_row(vec![
                s.into(),
                sn.into(),
                cat.into(),
                Value::Float(i as f64),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn collects_stats_and_correlations() {
        let t = table();
        let mc = MetadataCollector::new();
        let md = mc.collect(&t, true).unwrap();
        assert_eq!(md.stats.row_count, 90);
        // 3 dims -> 3 pairs.
        assert_eq!(md.dim_correlations.len(), 3);
        // state and state_name are perfectly associated.
        assert!((md.correlation("state", "state_name") - 1.0).abs() < 1e-9);
        assert!((md.correlation("state_name", "state") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skipping_correlations() {
        let t = table();
        let mc = MetadataCollector::new();
        let md = mc.collect(&t, false).unwrap();
        assert!(md.dim_correlations.is_empty());
        assert_eq!(md.correlation("state", "state_name"), 0.0);
    }

    #[test]
    fn access_tracking_counts_unique_columns_per_query() {
        let tr = AccessTracker::new();
        tr.record("orders", ["state", "amount", "state"]);
        tr.record("orders", ["state"]);
        tr.record("other", ["x"]);
        assert_eq!(tr.count("orders", "state"), 2);
        assert_eq!(tr.count("orders", "amount"), 1);
        assert_eq!(tr.count("orders", "category"), 0);
        assert_eq!(tr.total_queries("orders"), 2);
        assert_eq!(tr.total_queries("other"), 1);
        assert_eq!(tr.total_queries("none"), 0);
    }

    #[test]
    fn collector_exposes_workload() {
        let t = table();
        let mc = MetadataCollector::new();
        mc.tracker().record("orders", ["state", "amount"]);
        let md = mc.collect(&t, false).unwrap();
        assert_eq!(md.workload_queries, 1);
        assert_eq!(md.access_counts.get("state"), Some(&1));
    }

    #[test]
    fn tracker_thread_safety() {
        let tr = std::sync::Arc::new(AccessTracker::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let tr = tr.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        tr.record("t", ["a", "b"]);
                    }
                });
            }
        });
        assert_eq!(tr.count("t", "a"), 400);
        assert_eq!(tr.total_queries("t"), 400);
    }
}
