//! The database catalog: named tables plus cost accounting.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use std::sync::RwLock;

use std::path::Path;

use seedb_obs::Obs;

use crate::cost::{CostCounters, CostSnapshot};
use crate::error::{DbError, DbResult};
use crate::metrics::StoreMetrics;
use crate::plan::{LogicalPlan, PhysicalPlan, PlanOutput};
use crate::store::{self, DurabilityConfig, DurabilityState, DurabilitySummary, WalRecord};
use crate::sync::{MutexExt, RwLockExt};
use crate::table::Table;
use crate::value::Value;

/// An in-memory database: a set of named tables.
///
/// Cloning handles is cheap (`Arc` inside); queries can run concurrently
/// from many threads. Tables are immutable once registered: mutate a
/// name either by re-registering (a *replacement* — caches invalidate)
/// or by [`Database::append_rows`] (live ingest — version `v+1` shares
/// every sealed segment with `v` and adds one delta segment, so
/// existing snapshots and in-flight scans are undisturbed and caches
/// can refresh incrementally).
#[derive(Debug)]
pub struct Database {
    tables: RwLock<HashMap<String, Arc<Table>>>,
    counters: CostCounters,
    /// The observability bundle every layer serving from this database
    /// shares: `counters` above is registered against its registry
    /// (under `exec.*`), the store registers its `store.*` handles, and
    /// the serving layer adopts it for `service.*` metrics and traces.
    obs: Obs,
    /// Monotonic catalog version, bumped on every register/drop. Each
    /// registration stamps the table with the post-bump value
    /// ([`Table::version`]), so caches can detect replaced tables.
    version: AtomicU64,
    /// Serializes catalog *mutations* (`register`, `drop_table`,
    /// `append_rows`) with each other. Appends hold it across their
    /// (potentially large) delta build WITHOUT touching the `tables`
    /// write lock until the final publish, so readers keep resolving
    /// tables throughout an ingest batch — and since every mutation
    /// path takes this lock first, the snapshot an append builds on
    /// cannot be replaced before its publish.
    mutate_lock: std::sync::Mutex<()>,
    /// Durable-store attachment ([`Database::save`]/[`Database::open`]):
    /// when present, appends and drops are WAL-logged before they are
    /// published (registrations checkpoint directly) and the WAL is
    /// checkpointed into sealed segment files past the configured
    /// threshold. `None` = pure in-memory catalog.
    durability: std::sync::Mutex<Option<DurabilityState>>,
}

impl Default for Database {
    fn default() -> Self {
        Database::with_obs(Obs::default())
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// An empty database rooted on an injected observability bundle.
    /// The cost counters are registered against `obs`'s registry (so
    /// [`Database::cost`] and a metrics snapshot read the same cells),
    /// and all store timing flows through `obs`'s clock — the soak
    /// harness passes an [`seedb_obs::ManualClock`]-backed bundle here
    /// for byte-identical telemetry per seed.
    pub fn with_obs(obs: Obs) -> Self {
        Database {
            tables: RwLock::new(HashMap::new()),
            counters: CostCounters::registered(obs.registry()),
            version: AtomicU64::new(0),
            mutate_lock: std::sync::Mutex::new(()),
            durability: std::sync::Mutex::new(None),
            obs,
        }
    }

    /// The observability bundle this database roots.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Register (or replace) a table under its own name. The table is
    /// sealed and stamped with a fresh catalog version
    /// ([`Table::version`]).
    ///
    /// Registering an *existing* name is a **replacement**, not an
    /// append: the new table's lineage is reset to a single checkpoint
    /// ([`Table::append_delta_since`] returns `None` for every earlier
    /// version), so result caches built against the old registration
    /// can only invalidate — a stale incremental refresh onto the
    /// replacement is impossible by construction. Use
    /// [`Database::append_rows`] for ingest that preserves lineage.
    /// On a durable catalog the registration is checkpointed directly —
    /// its contents are sealed into segment files and a new manifest is
    /// published (WAL-logging a whole table would be an unbounded
    /// memory and log-size spike; appends stay WAL-logged). If the
    /// checkpoint fails the in-memory registration still happens, but
    /// the store is *wedged*: subsequent appends error loudly instead
    /// of diverging from disk silently; a later successful checkpoint
    /// or re-[`Database::save`] recovers.
    pub fn register(&self, mut table: Table) -> Arc<Table> {
        let _mutations_serialized = self.mutate_lock.lock_recovered();
        table.stamp_registered(self.version.fetch_add(1, Ordering::Relaxed) + 1);
        let arc = Arc::new(table);
        // Probe durability with a statement-scoped guard: the mutation
        // lock serializes attach (save_with) with every mutation, so
        // the durable state cannot appear or vanish between this probe
        // and the checkpoint below — and the declared lock order
        // (tables before durability) stays intact because the table
        // snapshot is taken with no durability guard held.
        let durable = self.durability.lock_recovered().is_some();
        if durable {
            // Durable-before-visible, like append_rows: checkpoint the
            // post-registration snapshot *before* any reader can
            // resolve the new table, so results are never served from
            // a registration a crash mid-checkpoint would erase. The
            // checkpoint also seals any WAL backlog; a crash before
            // its manifest publishes recovers the pre-registration
            // catalog from the old manifest + intact WAL.
            let mut tables = self.tables_sorted();
            match tables.binary_search_by(|t| t.name().cmp(arc.name())) {
                Ok(i) => {
                    if let Some(slot) = tables.get_mut(i) {
                        *slot = arc.clone();
                    }
                }
                Err(i) => tables.insert(i, arc.clone()),
            }
            let mut durability = self.durability.lock_recovered();
            if let Some(state) = durability.as_mut() {
                if let Err(e) = state.checkpoint(self.version(), &tables) {
                    state.wedge(&e);
                }
            }
        }
        self.tables
            .write_recovered()
            .insert(arc.name().to_string(), arc.clone());
        arc
    }

    /// Append `rows` to the registered table `name`, publishing version
    /// `v+1`: a new [`Table`] value that shares every sealed segment
    /// with `v` (a handful of refcount bumps) and holds the appended
    /// rows in exactly one new sealed segment. Existing snapshots —
    /// including scans already in flight — keep reading `v` untouched;
    /// per-table lineage records that `v → v+1` is a pure append, which
    /// is what lets cached partial aggregates refresh by scanning only
    /// `[old_rows, new_rows)`. Returns the new version's handle.
    ///
    /// Catalog mutations (appends, registrations, drops) serialize with
    /// each other on a dedicated mutation lock, but the delta build
    /// runs *outside* the catalog's reader/writer lock — concurrent
    /// queries keep resolving tables while a large batch is ingested;
    /// the write lock is only taken for the final publish.
    ///
    /// To bound read amplification of long append histories, a table
    /// whose segment count reaches an internal threshold is compacted
    /// into a single segment as part of the append (row order, row ids,
    /// and dictionary codes are all preserved, so snapshots and cached
    /// partial-aggregate states remain valid).
    ///
    /// # Errors
    /// `UnknownTable` if `name` is not registered; `Schema`/
    /// `TypeMismatch` if any row does not fit the schema — in which
    /// case **nothing is published**: the catalog still serves the old
    /// version, atomically.
    pub fn append_rows(&self, name: &str, rows: Vec<Vec<Value>>) -> DbResult<Arc<Table>> {
        // Every catalog mutation serializes on this lock, so the
        // snapshot read below cannot be replaced before the publish —
        // no conflict handling needed — while readers keep resolving
        // tables for the whole build (the `tables` write lock is only
        // held for the final insert).
        let _mutations_serialized = self.mutate_lock.lock_recovered();
        let old = self.table(name)?;
        let mut next = (*old).clone();
        // On a durable catalog the batch is WAL-logged below, *before*
        // the publish. Encode the record now, while the rows can still
        // be borrowed (push_row consumes them; cloning a large batch
        // just to own it for the log would double the ingest copy
        // work). The mutation lock serializes every version bump, so
        // the version this append will publish is exactly current + 1.
        let wal_payload = {
            let durability = self.durability.lock_recovered();
            match durability.as_ref() {
                None => None,
                Some(state) => {
                    // Fail fast on a wedged store — log_payload below
                    // would refuse the batch anyway, after the whole
                    // delta build.
                    state.check_not_wedged()?;
                    let version = self.version.load(Ordering::Relaxed) + 1;
                    Some((version, WalRecord::encode_append(version, name, &rows)))
                }
            }
        };
        // The old version is sealed (registration/append seals), so the
        // pushes below open exactly one fresh delta segment per column.
        for row in rows {
            next.push_row(row)?;
        }
        if next.num_segments() >= Table::SEGMENT_COMPACT_THRESHOLD {
            next = next.compacted()?;
        }
        next.stamp_appended(self.version.fetch_add(1, Ordering::Relaxed) + 1);
        let arc = Arc::new(next);
        if let Some((version, payload)) = wal_payload {
            debug_assert_eq!(version, arc.version(), "pre-encoded WAL version");
            // Durability point: the acknowledged batch reaches the WAL
            // (fsynced per config) before any reader can see v+1. A
            // failed log write publishes nothing.
            let mut durability = self.durability.lock_recovered();
            if let Some(state) = durability.as_mut() {
                state.log_payload(&payload)?;
            }
        }
        self.tables
            .write_recovered()
            .insert(name.to_string(), arc.clone());
        self.maybe_checkpoint();
        Ok(arc)
    }

    /// Current catalog version: increases whenever any table is
    /// registered, replaced, or dropped. A cheap "did anything change?"
    /// check for result caches; per-table staleness is detected via
    /// [`Table::version`].
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Look up a table.
    ///
    /// # Errors
    /// `UnknownTable` if absent.
    pub fn table(&self, name: &str) -> DbResult<Arc<Table>> {
        self.tables
            .read_recovered()
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::UnknownTable(name.to_string()))
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read_recovered().keys().cloned().collect();
        names.sort();
        names
    }

    /// Remove a table.
    ///
    /// # Errors
    /// `UnknownTable` if no table of that name is registered — dropping
    /// a missing table is reported, never silently ignored. The catalog
    /// version is only bumped when a table was actually removed.
    pub fn drop_table(&self, name: &str) -> DbResult<()> {
        let _mutations_serialized = self.mutate_lock.lock_recovered();
        if !self.tables.read_recovered().contains_key(name) {
            return Err(DbError::UnknownTable(name.to_string()));
        }
        let version = self.version.fetch_add(1, Ordering::Relaxed) + 1;
        {
            // WAL-log the drop before applying it; a failed log leaves
            // the table in place (the version counter gap is harmless).
            let mut durability = self.durability.lock_recovered();
            if let Some(state) = durability.as_mut() {
                state.log(&WalRecord::Drop {
                    version,
                    table: name.to_string(),
                })?;
            }
        }
        self.tables.write_recovered().remove(name);
        self.maybe_checkpoint();
        Ok(())
    }

    /// Persist this catalog into `dir` with the recommended
    /// [`DurabilityConfig`] and keep it durable: every subsequent
    /// `append_rows`/`drop_table` is WAL-logged before it is published
    /// (registrations checkpoint directly), and the WAL checkpoints
    /// into sealed segment files past the configured threshold. See
    /// [`crate::store`] for the directory layout and invariants.
    ///
    /// # Errors
    /// `Io` on filesystem failures; nothing is attached on error.
    pub fn save(&self, dir: impl AsRef<Path>) -> DbResult<()> {
        self.save_with(dir, DurabilityConfig::recommended())
    }

    /// [`Database::save`] with explicit durability knobs.
    ///
    /// # Errors
    /// `Io` on filesystem failures; nothing is attached on error.
    pub fn save_with(&self, dir: impl AsRef<Path>, config: DurabilityConfig) -> DbResult<()> {
        // Hold the mutation lock so the snapshot written is one
        // consistent catalog version (readers are unaffected).
        let _mutations_serialized = self.mutate_lock.lock_recovered();
        let tables = self.tables_sorted();
        let metrics = StoreMetrics::new(&self.obs);
        let state = store::create(dir.as_ref(), config, self.version(), &tables, metrics)?;
        *self.durability.lock_recovered() = Some(state);
        Ok(())
    }

    /// Open the database directory `dir` with the recommended
    /// [`DurabilityConfig`]: load the manifest's segment files, replay
    /// the WAL tail past it, and return a catalog that continues to be
    /// durable in that directory. Row ids, dictionary codes, table
    /// versions, and append lineage are reproduced exactly, so query
    /// results — and cached-partial-aggregate refresh contracts — are
    /// bit-for-bit those of the never-restarted catalog.
    ///
    /// # Errors
    /// `Io` when `dir` is not a database directory (no manifest) or
    /// reads fail; `Corrupt` when checksums or structural invariants
    /// fail (never a panic, never a silently wrong answer).
    pub fn open(dir: impl AsRef<Path>) -> DbResult<Database> {
        Database::open_with(dir, DurabilityConfig::recommended())
    }

    /// [`Database::open`] with explicit durability knobs.
    ///
    /// # Errors
    /// Same as [`Database::open`].
    pub fn open_with(dir: impl AsRef<Path>, config: DurabilityConfig) -> DbResult<Database> {
        Database::open_with_obs(dir, config, Obs::default())
    }

    /// [`Database::open_with`] rooted on an injected observability
    /// bundle (see [`Database::with_obs`]). Recovery telemetry —
    /// replayed WAL records, torn-tail repairs — lands in `obs`'s
    /// registry.
    ///
    /// # Errors
    /// Same as [`Database::open`].
    pub fn open_with_obs(
        dir: impl AsRef<Path>,
        config: DurabilityConfig,
        obs: Obs,
    ) -> DbResult<Database> {
        let metrics = StoreMetrics::new(&obs);
        let (state, tables, catalog_version) = store::load(dir.as_ref(), config, metrics)?;
        let db = Database::with_obs(obs);
        {
            let mut map = db.tables.write_recovered();
            for table in tables {
                map.insert(table.name().to_string(), table);
            }
        }
        db.version.store(catalog_version, Ordering::Relaxed);
        *db.durability.lock_recovered() = Some(state);
        Ok(db)
    }

    /// Force a checkpoint now: seal the WAL's contents into segment
    /// files, publish a new manifest, and truncate the WAL. A no-op
    /// (returning `Ok`) on a non-durable catalog.
    ///
    /// # Errors
    /// `Io`/`Corrupt` from the store; the WAL still holds everything on
    /// failure, so no acknowledged mutation is ever lost.
    pub fn checkpoint(&self) -> DbResult<()> {
        let _mutations_serialized = self.mutate_lock.lock_recovered();
        let tables = self.tables_sorted();
        let mut durability = self.durability.lock_recovered();
        match durability.as_mut() {
            Some(state) => state.checkpoint(self.version(), &tables),
            None => Ok(()),
        }
    }

    /// Is this catalog attached to a durable directory?
    pub fn is_durable(&self) -> bool {
        self.durability.lock_recovered().is_some()
    }

    /// Snapshot of the durable state (directory, per-table segment
    /// files, WAL backlog), or `None` for a pure in-memory catalog.
    pub fn durability_summary(&self) -> Option<DurabilitySummary> {
        self.durability
            .lock_recovered()
            .as_ref()
            .map(DurabilityState::summary)
    }

    /// Crash-injection test hook (see [`store::wal::inject_torn_tail`]):
    /// append a torn frame to this durable catalog's WAL, simulating a
    /// crash midway through an unacknowledged record's write. The soak
    /// harness calls this immediately before dropping every handle and
    /// re-[`Database::open`]ing the directory; recovery must truncate
    /// the torn tail and lose nothing acknowledged.
    ///
    /// Do not mutate the catalog between injection and reopen — a real
    /// WAL record appended behind the junk turns the torn tail into
    /// mid-log corruption, which `open` refuses (by design).
    ///
    /// # Errors
    /// `Io` when the catalog is not durable or the injection write
    /// fails.
    pub fn inject_torn_wal_tail(&self) -> DbResult<u64> {
        let dir = match self.durability.lock_recovered().as_ref() {
            Some(state) => state.summary().dir,
            None => {
                return Err(DbError::Io(
                    "inject_torn_wal_tail: catalog is not durable (no WAL to tear)".to_string(),
                ))
            }
        };
        store::wal::inject_torn_tail(&dir)
    }

    /// All tables, sorted by name (the checkpoint snapshot order).
    fn tables_sorted(&self) -> Vec<Arc<Table>> {
        let mut tables: Vec<Arc<Table>> = self.tables.read_recovered().values().cloned().collect();
        tables.sort_by(|a, b| a.name().cmp(b.name()));
        tables
    }

    /// Checkpoint if the WAL crossed its threshold, remembering (not
    /// propagating) failures — the WAL keeps everything durable until a
    /// later checkpoint succeeds. Called at the end of every mutation
    /// while the mutation lock is held.
    fn maybe_checkpoint(&self) {
        // Probe with a statement-scoped durability guard, then snapshot
        // the tables with no lock held: every caller holds the mutation
        // lock, so neither the catalog nor the durable state can change
        // between the probe and the checkpoint — and taking `tables`
        // only after the durability guard is released preserves the
        // declared lock order (tables before durability).
        let should = match self.durability.lock_recovered().as_mut() {
            Some(state) => state.should_checkpoint(),
            None => false,
        };
        if should {
            let tables = self.tables_sorted();
            let mut durability = self.durability.lock_recovered();
            if let Some(state) = durability.as_mut() {
                state.maybe_checkpoint(self.version(), &tables);
            }
        }
    }

    /// Lower and execute a [`LogicalPlan`], recording its cost.
    ///
    /// # Errors
    /// Malformed plans (`InvalidQuery`), unknown table/columns, type
    /// errors.
    pub fn execute_plan(&self, plan: &LogicalPlan) -> DbResult<PlanOutput> {
        self.run_physical(&plan.lower()?)
    }

    /// Execute an already-lowered [`PhysicalPlan`], recording its cost.
    ///
    /// # Errors
    /// Unknown table/columns, type errors.
    pub fn run_physical(&self, plan: &PhysicalPlan) -> DbResult<PlanOutput> {
        let table = self.table(plan.table())?;
        let out = plan.execute(&table)?;
        self.counters.record(&out.stats);
        Ok(out)
    }

    /// Parse and execute a SQL string, recording its cost.
    ///
    /// # Errors
    /// Parse errors plus everything [`Database::run_physical`] can
    /// return.
    pub fn run_sql(&self, sql: &str) -> DbResult<PlanOutput> {
        self.run_physical(&PhysicalPlan {
            query: crate::sql::parse_query(sql)?,
            row_range: None,
        })
    }

    /// Record externally executed work as one query (partitioned
    /// execution and serving-layer batch scans merge stats themselves
    /// before reporting them once).
    pub fn record_stats(&self, stats: &crate::exec::ExecStats) {
        self.counters.record(stats);
    }

    /// Snapshot the accumulated cost counters.
    pub fn cost(&self) -> CostSnapshot {
        self.counters.snapshot()
    }

    /// Reset the cost counters.
    pub fn reset_cost(&self) {
        self.counters.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{AggFunc, AggSpec, Query};
    use crate::schema::{ColumnDef, Schema};
    use crate::value::DataType;

    fn run(db: &Database, q: &Query) -> DbResult<PlanOutput> {
        db.run_physical(&PhysicalPlan {
            query: q.clone(),
            row_range: None,
        })
    }

    fn db_with_sales() -> Database {
        let schema = Schema::new(vec![
            ColumnDef::dimension("store", DataType::Str),
            ColumnDef::measure("amount", DataType::Float64),
        ])
        .unwrap();
        let mut t = Table::new("sales", schema);
        for (s, a) in [("MA", 10.0), ("WA", 20.0), ("MA", 5.0)] {
            t.push_row(vec![s.into(), a.into()]).unwrap();
        }
        let db = Database::new();
        db.register(t);
        db
    }

    #[test]
    fn register_and_query() {
        let db = db_with_sales();
        let q = Query::aggregate(
            "sales",
            vec!["store"],
            vec![AggSpec::new(AggFunc::Sum, "amount")],
        );
        let out = run(&db, &q).unwrap();
        assert_eq!(out.results[0].num_rows(), 2);
        assert_eq!(db.cost().queries, 1);
        assert_eq!(db.cost().rows_scanned, 3);
    }

    #[test]
    fn unknown_table_error() {
        let db = Database::new();
        let q = Query::aggregate("nope", vec![], vec![AggSpec::count_star()]);
        assert!(matches!(run(&db, &q), Err(DbError::UnknownTable(_))));
    }

    #[test]
    fn table_names_sorted_and_drop() {
        let db = db_with_sales();
        let schema = Schema::new(vec![ColumnDef::measure("x", DataType::Int64)]).unwrap();
        db.register(Table::new("aaa", schema));
        assert_eq!(db.table_names(), vec!["aaa", "sales"]);
        assert!(db.drop_table("aaa").is_ok());
        assert!(matches!(
            db.drop_table("aaa"),
            Err(DbError::UnknownTable(_))
        ));
        assert_eq!(db.table_names(), vec!["sales"]);
    }

    #[test]
    fn cost_reset() {
        let db = db_with_sales();
        let q = Query::aggregate("sales", vec!["store"], vec![AggSpec::count_star()]);
        run(&db, &q).unwrap();
        db.reset_cost();
        assert_eq!(db.cost(), CostSnapshot::default());
    }

    #[test]
    fn reregistering_replaces_table() {
        let db = db_with_sales();
        let schema = Schema::new(vec![
            ColumnDef::dimension("store", DataType::Str),
            ColumnDef::measure("amount", DataType::Float64),
        ])
        .unwrap();
        let t = Table::new("sales", schema); // empty replacement
        db.register(t);
        assert_eq!(db.table("sales").unwrap().num_rows(), 0);
    }

    #[test]
    fn versions_bump_on_register_and_drop() {
        let db = db_with_sales();
        let v1 = db.table("sales").unwrap().version();
        assert!(v1 > 0, "registered tables carry a version");
        assert_eq!(db.version(), v1);

        // Replacing under the same name assigns a strictly newer version.
        let schema = Schema::new(vec![
            ColumnDef::dimension("store", DataType::Str),
            ColumnDef::measure("amount", DataType::Float64),
        ])
        .unwrap();
        db.register(Table::new("sales", schema.clone()));
        let v2 = db.table("sales").unwrap().version();
        assert!(v2 > v1);
        assert_eq!(db.version(), v2);

        // Drops bump the catalog version too; missing drops do not
        // (and are a typed error, not a silent no-op).
        assert!(db.drop_table("sales").is_ok());
        assert!(db.version() > v2);
        let after = db.version();
        assert!(matches!(
            db.drop_table("sales"),
            Err(DbError::UnknownTable(_))
        ));
        assert_eq!(db.version(), after);

        // Unregistered tables are version 0.
        assert_eq!(Table::new("loose", schema).version(), 0);
    }

    #[test]
    fn append_rows_publishes_a_new_version_sharing_segments() {
        let db = db_with_sales();
        let v1 = db.table("sales").unwrap();
        let v2 = db
            .append_rows("sales", vec![vec!["NY".into(), 7.5.into()]])
            .unwrap();
        // The old snapshot is untouched; the new one extends it.
        assert_eq!(v1.num_rows(), 3);
        assert_eq!(v2.num_rows(), 4);
        assert_eq!(v2.row(3), vec![Value::from("NY"), Value::Float(7.5)]);
        assert!(v2.version() > v1.version());
        assert_eq!(v2.num_segments(), v1.num_segments() + 1);
        // Lineage: v1 → v2 is a pure append of exactly one row.
        assert_eq!(v2.append_delta_since(v1.version()), Some((3, 4)));
        // The catalog serves the new version.
        assert_eq!(db.table("sales").unwrap().num_rows(), 4);

        // Query results cover the appended row.
        let q = Query::aggregate("sales", vec![], vec![AggSpec::count_star()]);
        assert_eq!(
            run(&db, &q).unwrap().results[0].rows[0][0],
            crate::value::Value::Int(4)
        );
    }

    #[test]
    fn append_rows_failure_publishes_nothing() {
        let db = db_with_sales();
        let before = db.table("sales").unwrap();
        let v_before = db.version();
        // Second row is malformed: nothing of the batch may land.
        let r = db.append_rows(
            "sales",
            vec![
                vec!["OK".into(), 1.0.into()],
                vec!["bad".into(), "not a number".into()],
            ],
        );
        assert!(r.is_err());
        assert_eq!(db.version(), v_before, "failed append bumps nothing");
        let now = db.table("sales").unwrap();
        assert_eq!(now.num_rows(), 3);
        assert!(Arc::ptr_eq(&before, &now), "old version still served");

        assert!(matches!(
            db.append_rows("missing", vec![]),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn long_append_histories_compact_without_breaking_refresh() {
        let db = db_with_sales(); // 3 rows, 1 segment
        let one_row = |i: usize| vec![vec![format!("S{}", i % 7).into(), (i as f64).into()]];
        for i in 0..50 {
            db.append_rows("sales", one_row(i)).unwrap();
        }
        // A cached partial-aggregate state from before the compaction.
        let snapshot = db.table("sales").unwrap();
        assert_eq!(snapshot.num_segments(), 51);
        let phys = LogicalPlan::scan("sales")
            .aggregate(
                vec!["store".into()],
                vec![crate::exec::AggSpec::new(
                    crate::exec::AggFunc::Sum,
                    "amount",
                )],
            )
            .lower()
            .unwrap();
        let cached = phys
            .execute_partial(&snapshot, (0, snapshot.num_rows()))
            .unwrap();

        // 24 more single-row appends cross SEGMENT_COMPACT_THRESHOLD:
        // the segment count must collapse instead of growing forever.
        for i in 50..74 {
            db.append_rows("sales", one_row(i)).unwrap();
        }
        let live = db.table("sales").unwrap();
        assert_eq!(live.num_rows(), 3 + 74);
        assert!(
            live.num_segments() < 25,
            "compaction must bound the segment count, got {}",
            live.num_segments()
        );
        assert!(live.num_segments() > 1, "appends after compaction");

        // Incremental refresh across the compaction boundary: row ids
        // and dictionary codes are preserved, so the pre-compaction
        // cached state merges with the delta to the bit-exact cold
        // answer at the compacted version.
        let (lo, hi) = live
            .append_delta_since(snapshot.version())
            .expect("within the bounded lineage");
        assert_eq!((lo, hi), (53, 77));
        let mut refreshed = cached;
        refreshed
            .merge(phys.execute_partial(&live, (lo, hi)).unwrap(), &live)
            .unwrap();
        let refreshed = refreshed.finalize(&live).unwrap();
        let cold = phys.execute(&live).unwrap();
        assert_eq!(
            cold.result_set(0).unwrap(),
            refreshed.result_set(0).unwrap()
        );
    }

    #[test]
    fn register_of_existing_name_replaces_and_breaks_lineage() {
        let db = db_with_sales();
        let v1 = db.table("sales").unwrap();
        // Re-registering the same name is a replacement: the new
        // table's lineage starts fresh, so no version of the old
        // registration is append-refreshable against it.
        let schema = Schema::new(vec![
            ColumnDef::dimension("store", DataType::Str),
            ColumnDef::measure("amount", DataType::Float64),
        ])
        .unwrap();
        db.register(Table::new("sales", schema));
        let v2 = db.table("sales").unwrap();
        assert!(v2.version() > v1.version());
        assert_eq!(v2.append_delta_since(v1.version()), None);
        assert_eq!(v2.lineage().len(), 1);
    }

    /// Regression for the lock-order fixes in `register` and
    /// `maybe_checkpoint`: both used to snapshot the table map *while
    /// holding* the durability mutex (a tables-after-durability
    /// inversion against the declared order in
    /// `crates/lint/lock-order.toml`). Hammer every durable mutation
    /// path concurrently; an ordering regression shows up as a
    /// deadlock (test hang) or a lint finding.
    #[test]
    fn durable_concurrent_mutations_do_not_deadlock() {
        let dir =
            std::env::temp_dir().join(format!("memdb-catalog-lockorder-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = std::sync::Arc::new(db_with_sales());
        db.save(&dir).unwrap();
        std::thread::scope(|s| {
            let appender = db.clone();
            s.spawn(move || {
                for i in 0..20 {
                    appender
                        .append_rows(
                            "sales",
                            vec![vec![format!("T{i}").into(), (i as f64).into()]],
                        )
                        .unwrap();
                }
            });
            let registrar = db.clone();
            s.spawn(move || {
                for i in 0..10 {
                    let schema =
                        Schema::new(vec![ColumnDef::measure("x", DataType::Int64)]).unwrap();
                    registrar.register(Table::new(&format!("aux{i}"), schema));
                }
            });
            let checkpointer = db.clone();
            s.spawn(move || {
                for _ in 0..10 {
                    checkpointer.checkpoint().unwrap();
                }
            });
            let reader = db.clone();
            s.spawn(move || {
                let q = Query::aggregate(
                    "sales",
                    vec!["store"],
                    vec![AggSpec::new(AggFunc::Sum, "amount")],
                );
                for _ in 0..50 {
                    let _ = run(&reader, &q);
                }
            });
        });
        assert_eq!(db.table("sales").unwrap().num_rows(), 23);
        assert_eq!(db.table_names().len(), 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_queries() {
        let db = std::sync::Arc::new(db_with_sales());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let db = db.clone();
                s.spawn(move || {
                    let q = Query::aggregate(
                        "sales",
                        vec!["store"],
                        vec![AggSpec::new(AggFunc::Sum, "amount")],
                    );
                    for _ in 0..50 {
                        run(&db, &q).unwrap();
                    }
                });
            }
        });
        assert_eq!(db.cost().queries, 200);
    }
}
