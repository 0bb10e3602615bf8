//! The Metadata Collector (paper Fig. 4).
//!
//! "First, the Metadata Collector module queries metadata tables ... for
//! information such as table sizes, column types, data distribution, and
//! table access patterns." That information feeds view-space pruning:
//! per-column statistics drive variance pruning, the pairwise association
//! matrix drives correlated-attribute clustering, and the access tracker
//! drives access-frequency pruning.
//!
//! The statistics and the association matrix are not recomputed per
//! request. The collector keeps one [`TableFold`] per table name,
//! stamped with the table version it was folded to, plus its finalized
//! result. A request then takes one of three paths:
//!
//! * **hit** — the request's table is at the stamped version: the
//!   finalized result is reused as is;
//! * **refresh** — the table is a pure-append descendant of the stamped
//!   version ([`Table::append_delta_since`]) whose folded prefix is
//!   unchanged: only the appended rows are folded, then the state is
//!   finalized again;
//! * **full fold** — anything else (first sight of the table, a
//!   re-registration, a lineage that aged out, a snapshot older than the
//!   entry, or a string dictionary that no longer extends the folded one
//!   after a compaction): the table is folded from empty.
//!
//! All three finalize the same kind of fold, so they agree bit for bit
//! with a cold [`TableStats::collect`] / [`memdb::cramers_v`]. Access
//! counts are cheap and stay live: they are read on every request.

use std::collections::HashMap;
use std::sync::{Mutex, RwLock};

use memdb::{DbResult, MutexExt, RwLockExt, Table, TableFold, TableStats};
use seedb_obs::{Counter, Registry};

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

/// How a request's statistics were obtained (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetadataOutcome {
    /// The cached result was at the request's version.
    Hit,
    /// The cached fold was resumed over this many appended rows.
    Refresh { delta_rows: usize },
    /// The table was folded from empty.
    FullFold,
}

impl MetadataOutcome {
    /// Trace attribute value.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MetadataOutcome::Hit => "hit",
            MetadataOutcome::Refresh { .. } => "refresh",
            MetadataOutcome::FullFold => "full_fold",
        }
    }

    /// Rows folded by a refresh (0 otherwise).
    pub(crate) fn delta_rows(self) -> usize {
        match self {
            MetadataOutcome::Refresh { delta_rows } => delta_rows,
            _ => 0,
        }
    }
}

/// `service.metadata.*` counters.
#[derive(Debug)]
struct OutcomeCounters {
    hits: Counter,
    refreshes: Counter,
    full_folds: Counter,
    refresh_rows: Counter,
}

/// One table's fold, stamped with the version it was folded to, and its
/// finalized result.
#[derive(Debug)]
struct FoldEntry {
    version: u64,
    fold: TableFold,
    stats: TableStats,
    correlations: Vec<(String, String, f64)>,
}

/// Collects [`Metadata`] for tables, consulting a shared [`AccessTracker`]
/// and keeping each table's statistics as a fold it refreshes over
/// appended rows (see the module docs).
#[derive(Debug, Default)]
pub struct MetadataCollector {
    tracker: AccessTracker,
    /// Table name → its fold. Held for a hit or a refresh (work bounded
    /// by the appended rows); a full fold runs without it.
    metadata_folds: Mutex<HashMap<String, FoldEntry>>,
    counters: Option<OutcomeCounters>,
}

impl MetadataCollector {
    /// A collector with a fresh access tracker.
    pub fn new() -> Self {
        MetadataCollector::default()
    }

    /// A collector that counts its outcomes in `registry` as
    /// `service.metadata.{hits,refreshes,full_folds,refresh_rows}`.
    pub(crate) fn counted(registry: &Registry) -> Self {
        MetadataCollector {
            counters: Some(OutcomeCounters {
                hits: registry.register_counter("service.metadata.hits"),
                refreshes: registry.register_counter("service.metadata.refreshes"),
                full_folds: registry.register_counter("service.metadata.full_folds"),
                refresh_rows: registry.register_counter("service.metadata.refresh_rows"),
            }),
            ..MetadataCollector::default()
        }
    }

    /// The shared access tracker (record analyst queries here).
    pub fn tracker(&self) -> &AccessTracker {
        &self.tracker
    }

    /// Collect full metadata (statistics + dimension correlations +
    /// access patterns) for `table`.
    ///
    /// Correlation collection costs `O(|A|² · n)` on a full fold and
    /// `O(|A|² · delta)` on a refresh; pass `compute_correlations =
    /// false` to skip it for very wide tables (correlation pruning then
    /// becomes a no-op).
    ///
    /// # Errors
    /// None today: every path finalizes an in-memory fold.
    pub fn collect(&self, table: &Table, compute_correlations: bool) -> DbResult<Metadata> {
        Ok(self.collect_outcome(table, compute_correlations).0)
    }

    /// [`MetadataCollector::collect`], also reporting which path the
    /// statistics took.
    pub(crate) fn collect_outcome(
        &self,
        table: &Table,
        compute_correlations: bool,
    ) -> (Metadata, MetadataOutcome) {
        let (stats, mut dim_correlations, outcome) = self.folded(table, compute_correlations);
        if !compute_correlations {
            dim_correlations.clear();
        }
        if let Some(c) = &self.counters {
            match outcome {
                MetadataOutcome::Hit => c.hits.inc(),
                MetadataOutcome::Refresh { delta_rows } => {
                    c.refreshes.inc();
                    c.refresh_rows.add(delta_rows as u64);
                }
                MetadataOutcome::FullFold => c.full_folds.inc(),
            }
        }
        let metadata = Metadata {
            table: table.name().to_string(),
            stats,
            dim_correlations,
            access_counts: self.tracker.snapshot(table.name()),
            workload_queries: self.tracker.total_queries(table.name()),
        };
        (metadata, outcome)
    }

    /// The finalized statistics and correlations of `table`, by hit,
    /// refresh or full fold.
    fn folded(
        &self,
        table: &Table,
        correlations: bool,
    ) -> (TableStats, Vec<(String, String, f64)>, MetadataOutcome) {
        // Version 0 is every unregistered table's: nothing to key on.
        let version = table.version();
        if version != 0 {
            let mut folds = self.metadata_folds.lock_recovered();
            if let Some(e) = folds.get_mut(table.name()) {
                let usable = e.fold.has_correlations() || !correlations;
                if usable && e.version == version && e.fold.rows() == table.num_rows() {
                    return (
                        e.stats.clone(),
                        e.correlations.clone(),
                        MetadataOutcome::Hit,
                    );
                }
                let before = e.fold.rows();
                if usable
                    && table.append_delta_since(e.version) == Some((before, table.num_rows()))
                    && e.fold.fold_appended(table)
                {
                    (e.stats, e.correlations) = e.fold.finalize(table);
                    e.version = version;
                    let delta_rows = table.num_rows() - before;
                    let outcome = MetadataOutcome::Refresh { delta_rows };
                    return (e.stats.clone(), e.correlations.clone(), outcome);
                }
            }
        }
        let mut fold = TableFold::new(table, correlations);
        fold.fold_appended(table);
        let (stats, dim_correlations) = fold.finalize(table);
        if version != 0 {
            let mut folds = self.metadata_folds.lock_recovered();
            // Keep an entry that is newer, or as new and at least as
            // complete: a request on an older snapshot must not set the
            // entry back.
            let keep = folds.get(table.name()).is_some_and(|e| {
                e.version > version
                    || (e.version == version && (e.fold.has_correlations() || !correlations))
            });
            if !keep {
                folds.insert(
                    table.name().to_string(),
                    FoldEntry {
                        version,
                        fold,
                        stats: stats.clone(),
                        correlations: dim_correlations.clone(),
                    },
                );
            }
        }
        (stats, dim_correlations, MetadataOutcome::FullFold)
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
