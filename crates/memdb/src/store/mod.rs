//! # Durable storage: an on-disk database directory
//!
//! This module persists a [`crate::Database`] as an immutable-segment
//! store with crash recovery, mirroring the in-memory design: sealed
//! [`crate::ColumnSegment`]s are written once and never rewritten, a
//! manifest atomically publishes catalog versions, and a write-ahead
//! log makes `append_rows` durable *before* the new version is
//! published in memory.
//!
//! ```text
//! <dir>/
//! ├── MANIFEST            root: catalog version, per-table chunk lists,
//! │                       lineage, schemas (atomic tmp+rename publish)
//! ├── wal.log             appends/drops since the manifest (registra-
//! │                       tions checkpoint directly instead)
//! ├── warm.plans          optional: cached plan fingerprints spilled by
//! │                       the serving layer for warm restarts
//! └── segments/
//!     ├── seg-00000001.seg   immutable chunk: typed column values +
//!     ├── seg-00000002.seg   validity + dictionary delta, every
//!     └── ...                section length-prefixed + CRC32-checksummed
//! ```
//!
//! **Invariants.**
//!
//! * Segment files are immutable once referenced by a manifest; a
//!   checkpoint only *adds* files (append deltas) or switches a table
//!   to a fresh file set (replacement), then GCs unreferenced files.
//! * The WAL is the durability point: an acknowledged `append_rows`
//!   has been written (and, by default, fsynced) before the new table
//!   version is visible to any reader.
//! * Recovery = read `MANIFEST`, load its chunks, replay the WAL tail
//!   with record versions above the manifest's catalog version. Row
//!   ids, dictionary codes, versions, and lineage reproduce exactly,
//!   so cached-state refresh contracts survive a restart bit-for-bit.
//! * A torn WAL tail (crash mid-write) is truncated: only the never-
//!   acknowledged record is lost. A torn `MANIFEST.tmp` is ignored.
//!   Any checksum failure inside referenced data surfaces as
//!   [`DbError::Corrupt`] — never a panic, never a wrong answer.

pub mod format;
pub mod manifest;
pub mod segment_file;
pub mod wal;

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::column::{Column, StrDict};
use crate::error::{DbError, DbResult};
use crate::metrics::StoreMetrics;
use crate::plan::PhysicalPlan;
use crate::segment::ColumnSegment;
use crate::table::Table;
use crate::value::DataType;

use format::{corrupt, io_err, sync_dir, Dec, Enc};
use manifest::{ChunkRef, Manifest, TableEntry};
use segment_file::{read_chunk, write_chunk};
pub use wal::WalRecord;

/// Subdirectory holding segment files.
const SEGMENTS_DIR: &str = "segments";
/// File name of the serving layer's warm-plan spill.
pub const WARM_PLANS_FILE: &str = "warm.plans";

/// Durability knobs of a database directory, set when the catalog is
/// saved or opened ([`crate::Database::save_with`],
/// [`crate::Database::open_with`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilityConfig {
    /// Checkpoint (seal WAL contents into segment files + a new
    /// manifest) once the WAL reaches this many bytes. Smaller values
    /// bound replay time; larger values amortize manifest writes.
    pub wal_checkpoint_bytes: u64,
    /// Fsync every WAL append before acknowledging it. `true` is the
    /// durability guarantee; `false` trades the last few batches on an
    /// OS crash for append throughput (process crashes lose nothing
    /// either way).
    pub sync_writes: bool,
}

impl DurabilityConfig {
    /// Defaults: 1 MiB checkpoint threshold, fsynced appends.
    pub fn recommended() -> Self {
        DurabilityConfig {
            wal_checkpoint_bytes: 1 << 20,
            sync_writes: true,
        }
    }

    /// Builder: set the WAL checkpoint threshold.
    pub fn with_wal_checkpoint_bytes(mut self, bytes: u64) -> Self {
        self.wal_checkpoint_bytes = bytes;
        self
    }

    /// Builder: toggle per-append fsync.
    pub fn with_sync_writes(mut self, sync: bool) -> Self {
        self.sync_writes = sync;
        self
    }
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig::recommended()
    }
}

/// Point-in-time description of a catalog's durable state (what the
/// demo CLI prints after `:save` / `:open` / `:append`).
#[derive(Debug, Clone)]
pub struct DurabilitySummary {
    /// The database directory.
    pub dir: PathBuf,
    /// Per-table `(name, version, rows, segment files)` as of the last
    /// manifest.
    pub tables: Vec<(String, u64, u64, usize)>,
    /// Total segment files referenced by the manifest.
    pub segment_files: usize,
    /// WAL bytes pending the next checkpoint.
    pub wal_bytes: u64,
    /// WAL records pending the next checkpoint.
    pub wal_records: u64,
    /// Set when the directory can no longer safely accept appends — a
    /// registration failed to checkpoint, a WAL truncation failed
    /// mid-checkpoint, or a failed WAL append left an unrepaired tail.
    /// (A drop whose log write fails is simply not applied — it errors
    /// without wedging.) A successful checkpoint or re-save heals any
    /// of these; the unrepaired-tail variant also self-heals on the
    /// next append, which retries the tail repair first.
    pub wedged: Option<String>,
    /// The most recent checkpoint failure, if any (checkpoints retry on
    /// the next threshold crossing; the WAL keeps everything durable in
    /// the meantime).
    pub last_checkpoint_error: Option<String>,
}

/// Live durability state attached to a [`crate::Database`]. All access
/// is serialized by the catalog's mutation lock plus the state's own
/// mutex slot.
#[derive(Debug)]
pub struct DurabilityState {
    dir: PathBuf,
    config: DurabilityConfig,
    wal: wal::Wal,
    /// Mirror of the last published manifest.
    manifest: Manifest,
    wedged: Option<String>,
    last_checkpoint_error: Option<String>,
    /// Registry-backed `store.*` handles (fsync latency is measured on
    /// the bundle's injected clock, never the wall clock).
    metrics: StoreMetrics,
}

impl DurabilityState {
    /// Append one record to the WAL (the durability point of the
    /// mutation it describes).
    ///
    /// # Errors
    /// `Io` when the log cannot be written, or when the store is wedged
    /// by an earlier failure (see [`DurabilitySummary::wedged`]).
    pub(crate) fn log(&mut self, record: &WalRecord) -> DbResult<()> {
        self.log_payload(&record.encode())
    }

    /// [`DurabilityState::log`] of an already-encoded record payload
    /// ([`WalRecord::encode_append`] — lets the ingest path log a batch
    /// it only borrows).
    pub(crate) fn log_payload(&mut self, payload: &[u8]) -> DbResult<()> {
        self.check_not_wedged()?;
        // A broken tail present now means a previous append's write
        // failed mid-frame; a successful append below repairs it first
        // (truncate back to the last valid frame), which is worth
        // counting — it is the recovery path taken without a restart.
        let repairing = self.wal.broken_reason().is_some();
        let bytes_before = self.wal.bytes();
        let start_ns = self.metrics.clock.now_ns();
        let result = self.wal.append_payload(payload, self.config.sync_writes);
        if result.is_ok() {
            self.metrics.wal_appends.inc();
            self.metrics
                .wal_bytes
                .add(self.wal.bytes().saturating_sub(bytes_before));
            if self.config.sync_writes {
                self.metrics.wal_fsyncs.inc();
                self.metrics
                    .wal_fsync_ns
                    .record(self.metrics.clock.now_ns().saturating_sub(start_ns));
            }
            if repairing {
                self.metrics.torn_tail_repairs.inc();
            }
        }
        self.metrics.wal_bytes_pending.set(self.wal.bytes());
        result
    }

    /// Error if the store is wedged (see [`DurabilitySummary::wedged`])
    /// — lets the ingest path refuse a doomed batch before building it.
    pub(crate) fn check_not_wedged(&self) -> DbResult<()> {
        match &self.wedged {
            Some(w) => Err(DbError::Io(format!(
                "durable store {} is wedged ({w}); checkpoint or re-save to recover",
                self.dir.display()
            ))),
            None => Ok(()),
        }
    }

    /// Record that a catalog mutation already applied in memory could
    /// not be made durable: the directory no longer tracks the
    /// in-memory catalog, so further appends are refused loudly instead
    /// of diverging silently.
    pub(crate) fn wedge(&mut self, err: &DbError) {
        self.wedged.get_or_insert_with(|| err.to_string());
    }

    /// Has the WAL grown past the checkpoint threshold?
    pub(crate) fn should_checkpoint(&self) -> bool {
        self.wal.bytes() >= self.config.wal_checkpoint_bytes
    }

    /// Checkpoint: seal everything the WAL holds into segment files,
    /// publish a new manifest, truncate the WAL, and GC unreferenced
    /// segment files. `tables` is the full catalog snapshot (sorted by
    /// name) and `catalog_version` the counter value it reflects.
    pub(crate) fn checkpoint(
        &mut self,
        catalog_version: u64,
        tables: &[Arc<Table>],
    ) -> DbResult<()> {
        let seg_dir = self.dir.join(SEGMENTS_DIR);
        let wal_bytes_sealed = self.wal.bytes();
        let mut next_id = self.manifest.next_file_id;
        let mut entries = Vec::with_capacity(tables.len());
        for table in tables {
            entries.push(self.table_entry(table, &seg_dir, &mut next_id)?);
        }
        let new = Manifest {
            catalog_version,
            next_file_id: next_id,
            wal_epoch: self.manifest.wal_epoch,
            tables: entries,
        };
        // Make the chunk files' directory entries durable *before* the
        // manifest references them — otherwise a power loss could
        // leave a published manifest pointing at files whose dirents
        // never reached disk.
        sync_dir(&seg_dir);
        new.write(&self.dir)?;
        self.metrics.manifest_publishes.inc();
        // From here the new manifest is authoritative — mirror it
        // *immediately*, before anything below can fail: a stale mirror
        // would hand the next checkpoint file ids the published
        // manifest already references, clobbering live segment files.
        // The full catalog snapshot is now on disk, so a wedge (an
        // earlier failed registration checkpoint, WAL truncation, or
        // unrepaired append tail) is healed too — see
        // [`DurabilitySummary::wedged`] for the full list.
        // Then drop segment files nothing references any more
        // (replaced tables, crashed earlier checkpoints) and reset the
        // WAL the manifest subsumes.
        self.manifest = new;
        self.wedged = None;
        gc_segments(&seg_dir, &self.manifest);
        if let Err(e) = self.wal.truncate() {
            // Nothing durable is lost (every WAL record is at or below
            // the manifest's catalog version now, so replay skips them
            // all), but the log file's state is unknown — refuse
            // appends until a retried checkpoint recreates it.
            self.wedge(&e);
            return Err(e);
        }
        // Every checkpoint caller (threshold, explicit, registration)
        // supersedes any earlier recorded failure on success.
        self.last_checkpoint_error = None;
        self.metrics.checkpoints.inc();
        self.metrics.checkpoint_bytes.add(wal_bytes_sealed);
        self.metrics.wal_bytes_pending.set(self.wal.bytes());
        Ok(())
    }

    /// Checkpoint if the threshold is reached, remembering (not
    /// propagating) failures: the WAL still holds everything durably,
    /// so a failed checkpoint only defers sealing.
    pub(crate) fn maybe_checkpoint(&mut self, catalog_version: u64, tables: &[Arc<Table>]) {
        if !self.should_checkpoint() {
            return;
        }
        if let Err(e) = self.checkpoint(catalog_version, tables) {
            self.last_checkpoint_error = Some(e.to_string());
        }
    }

    /// The manifest entry for `table` in the checkpoint being built:
    /// unchanged tables keep their chunk list, pure appends gain one
    /// delta chunk, everything else is rewritten from its in-memory
    /// segments.
    fn table_entry(
        &self,
        table: &Table,
        seg_dir: &Path,
        next_id: &mut u64,
    ) -> DbResult<TableEntry> {
        let old = self.manifest.table(table.name());
        if let Some(e) = old {
            if e.version == table.version() {
                return Ok(e.clone());
            }
            let same_schema = e.schema == table.schema().columns();
            let append = table
                .append_delta_since(e.version)
                .filter(|&(lo, _)| lo as u64 == e.rows);
            if let (true, Some((lo, hi))) = (same_schema, append) {
                let mut chunks = e.chunks.clone();
                if hi > lo {
                    let dict_starts = e.final_dict_ends();
                    let (bytes, dict_ends) = write_chunk(table, lo, hi, &dict_starts)?;
                    let file = alloc_segment_file(seg_dir, next_id, &bytes)?;
                    chunks.push(ChunkRef {
                        file,
                        start_row: lo as u64,
                        rows: (hi - lo) as u64,
                        dict_ends,
                    });
                }
                return Ok(TableEntry {
                    name: table.name().to_string(),
                    version: table.version(),
                    rows: table.num_rows() as u64,
                    lineage: lineage_to_disk(table.lineage()),
                    schema: table.schema().columns().to_vec(),
                    chunks,
                });
            }
        }
        full_table_entry(table, seg_dir, next_id)
    }

    /// Snapshot for the CLI / diagnostics.
    pub(crate) fn summary(&self) -> DurabilitySummary {
        DurabilitySummary {
            dir: self.dir.clone(),
            tables: self
                .manifest
                .tables
                .iter()
                .map(|t| (t.name.clone(), t.version, t.rows, t.chunks.len()))
                .collect(),
            segment_files: self.manifest.tables.iter().map(|t| t.chunks.len()).sum(),
            wal_bytes: self.wal.bytes(),
            wal_records: self.wal.records(),
            wedged: self
                .wedged
                .clone()
                .or_else(|| self.wal.broken_reason().map(str::to_string)),
            last_checkpoint_error: self.last_checkpoint_error.clone(),
        }
    }
}

fn lineage_to_disk(lineage: &[(u64, usize)]) -> Vec<(u64, u64)> {
    lineage.iter().map(|&(v, r)| (v, r as u64)).collect()
}

/// Write one segment file under the next allocated id, fsynced. The
/// file only becomes meaningful once a manifest references it — a crash
/// in between leaves garbage that the next checkpoint GCs.
fn alloc_segment_file(seg_dir: &Path, next_id: &mut u64, bytes: &[u8]) -> DbResult<String> {
    *next_id += 1;
    let name = format!("seg-{:08}.seg", *next_id);
    let path = seg_dir.join(&name);
    let mut f = std::fs::File::create(&path).map_err(|e| io_err(&path, e))?;
    f.write_all(bytes).map_err(|e| io_err(&path, e))?;
    f.sync_all().map_err(|e| io_err(&path, e))?;
    Ok(name)
}

/// A fresh full set of chunk files for `table`, one per in-memory
/// sealed segment (so `open(save(db))` reproduces segment boundaries).
fn full_table_entry(table: &Table, seg_dir: &Path, next_id: &mut u64) -> DbResult<TableEntry> {
    let ncols = table.schema().len();
    // Segment boundaries from the first column (identical across
    // columns); a column-less or empty table gets a single covering
    // chunk when it has rows, none otherwise.
    let boundaries: Vec<(usize, usize)> = if ncols > 0 && table.num_rows() > 0 {
        table
            .column_at(0)
            .segments()
            .map(|(start, seg)| (start, start + seg.len()))
            .collect()
    } else if table.num_rows() > 0 {
        vec![(0, table.num_rows())]
    } else {
        Vec::new()
    };
    let mut chunks = Vec::with_capacity(boundaries.len());
    let mut dict_starts = vec![0u64; ncols];
    for (lo, hi) in boundaries {
        let (bytes, dict_ends) = write_chunk(table, lo, hi, &dict_starts)?;
        let file = alloc_segment_file(seg_dir, next_id, &bytes)?;
        chunks.push(ChunkRef {
            file,
            start_row: lo as u64,
            rows: (hi - lo) as u64,
            dict_ends: dict_ends.clone(),
        });
        dict_starts = dict_ends;
    }
    Ok(TableEntry {
        name: table.name().to_string(),
        version: table.version(),
        rows: table.num_rows() as u64,
        lineage: lineage_to_disk(table.lineage()),
        schema: table.schema().columns().to_vec(),
        chunks,
    })
}

/// Delete `seg-*.seg` files the manifest no longer references.
fn gc_segments(seg_dir: &Path, manifest: &Manifest) {
    let referenced: std::collections::HashSet<&str> = manifest
        .tables
        .iter()
        .flat_map(|t| t.chunks.iter().map(|c| c.file.as_str()))
        .collect();
    let Ok(entries) = std::fs::read_dir(seg_dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("seg-") && name.ends_with(".seg") && !referenced.contains(name) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Largest id among `seg-<id>.seg` files present in `seg_dir` (0 when
/// none). A re-save seeds its file-id counter past this even when the
/// old manifest is unreadable, so files a previous incarnation still
/// references are never overwritten.
fn max_segment_file_id(seg_dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(seg_dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            let name = name.to_str()?;
            name.strip_prefix("seg-")?
                .strip_suffix(".seg")?
                .parse()
                .ok()
        })
        .max()
        .unwrap_or(0)
}

/// Create (or overwrite) a database directory from a full catalog
/// snapshot: write every table's chunks under fresh file ids, publish
/// the manifest, then reset the WAL. Returns the attached state.
///
/// Safe against crashes *and* against re-saving into a live directory:
/// fresh chunk files never reuse an id the current on-disk manifest may
/// reference, the old manifest and WAL stay untouched until the new
/// manifest's atomic publish (a crash before it leaves the previous
/// state fully intact, acknowledged WAL tail included), and the new
/// manifest carries a strictly newer `wal_epoch` — so a crash *after*
/// the publish but before the WAL reset cannot replay the previous
/// incarnation's records onto the new catalog.
pub(crate) fn create(
    dir: &Path,
    config: DurabilityConfig,
    catalog_version: u64,
    tables: &[Arc<Table>],
    metrics: StoreMetrics,
) -> DbResult<DurabilityState> {
    let seg_dir = dir.join(SEGMENTS_DIR);
    std::fs::create_dir_all(&seg_dir).map_err(|e| io_err(&seg_dir, e))?;
    let wal_path = dir.join(wal::Wal::FILE_NAME);
    let old = Manifest::read(dir).ok();
    let epoch = old
        .as_ref()
        .map(|m| m.wal_epoch)
        .into_iter()
        .chain(wal::peek_epoch(&wal_path))
        .max()
        .map_or(1, |e| e + 1);
    let mut next_id = old
        .as_ref()
        .map_or(0, |m| m.next_file_id)
        .max(max_segment_file_id(&seg_dir));

    let mut entries = Vec::with_capacity(tables.len());
    for table in tables {
        entries.push(full_table_entry(table, &seg_dir, &mut next_id)?);
    }
    let manifest = Manifest {
        catalog_version,
        next_file_id: next_id,
        wal_epoch: epoch,
        tables: entries,
    };
    // Chunk dirents must be durable before the manifest references
    // them (see the same step in checkpoint).
    sync_dir(&seg_dir);
    manifest.write(dir)?;
    metrics.manifest_publishes.inc();
    // The new manifest is now authoritative: previous chunks can go,
    // and the previous incarnation's WAL is unreadable under the new
    // epoch whether or not the reset below completes.
    gc_segments(&seg_dir, &manifest);
    let wal = wal::Wal::reset(&wal_path, epoch)?;
    metrics.wal_bytes_pending.set(wal.bytes());
    Ok(DurabilityState {
        dir: dir.to_path_buf(),
        config,
        wal,
        manifest,
        wedged: None,
        last_checkpoint_error: None,
        metrics,
    })
}

/// Load a database directory: manifest chunks, then the WAL tail.
/// Returns the attached state, the recovered tables, and the recovered
/// catalog version counter.
pub(crate) fn load(
    dir: &Path,
    config: DurabilityConfig,
    metrics: StoreMetrics,
) -> DbResult<(DurabilityState, Vec<Arc<Table>>, u64)> {
    let manifest = Manifest::read(dir)?;
    let mut tables: HashMap<String, Arc<Table>> = HashMap::new();
    for entry in &manifest.tables {
        tables.insert(entry.name.clone(), Arc::new(load_table(dir, entry)?));
    }

    // Replay the WAL tail: records above the manifest's catalog version
    // re-apply exactly the mutations the crash interrupted sealing.
    // Records at or below it were already folded into the manifest (a
    // crash between manifest publish and WAL truncation) and are
    // skipped idempotently; a log whose epoch does not match the
    // manifest belongs to a replaced incarnation and is reset instead.
    let wal_path = dir.join(wal::Wal::FILE_NAME);
    let replayed = wal::replay(&wal_path, manifest.wal_epoch)?;
    if replayed.torn_bytes > 0 {
        // Recovery truncated a torn tail (crash mid-write of a record
        // that was never acknowledged).
        metrics.torn_tail_repairs.inc();
    }
    let mut catalog_version = manifest.catalog_version;
    for record in &replayed.records {
        if record.version() <= manifest.catalog_version {
            continue;
        }
        apply_record(&mut tables, record)?;
        metrics.recovery_replayed.inc();
        catalog_version = catalog_version.max(record.version());
    }
    let wal = if replayed.stale {
        wal::Wal::reset(&wal_path, manifest.wal_epoch)?
    } else {
        wal::Wal::resume(
            &wal_path,
            manifest.wal_epoch,
            replayed.valid_bytes,
            replayed.records.len() as u64,
        )?
    };
    metrics.wal_bytes_pending.set(wal.bytes());

    let mut tables: Vec<Arc<Table>> = tables.into_values().collect();
    tables.sort_by(|a, b| a.name().cmp(b.name()));
    let state = DurabilityState {
        dir: dir.to_path_buf(),
        config,
        wal,
        manifest,
        wedged: None,
        last_checkpoint_error: None,
        metrics,
    };
    Ok((state, tables, catalog_version))
}

/// Re-apply one WAL record to the recovering catalog. Rows pass through
/// the exact same `push_row` path the original mutation used, so row
/// ids, dictionary codes, segment sealing, and compaction points
/// reproduce deterministically.
fn apply_record(tables: &mut HashMap<String, Arc<Table>>, record: &WalRecord) -> DbResult<()> {
    match record {
        WalRecord::Register {
            version,
            table,
            schema,
            rows,
        } => {
            let schema = wal::schema_from_defs(schema.clone())?;
            let mut t = Table::with_capacity(table, schema, rows.len());
            for row in rows {
                t.push_row(row.clone())
                    .map_err(|e| corrupt(format!("WAL register of {table}: bad row: {e}")))?;
            }
            t.stamp_registered(*version);
            tables.insert(table.clone(), Arc::new(t));
        }
        WalRecord::Append {
            version,
            table,
            rows,
        } => {
            let old = tables.get(table).ok_or_else(|| {
                corrupt(format!(
                    "WAL appends to {table}, which the manifest does not know"
                ))
            })?;
            let mut next = (**old).clone();
            for row in rows {
                next.push_row(row.clone())
                    .map_err(|e| corrupt(format!("WAL append to {table}: bad row: {e}")))?;
            }
            if next.num_segments() >= Table::SEGMENT_COMPACT_THRESHOLD {
                next = next
                    .compacted()
                    .map_err(|e| corrupt(format!("WAL append to {table}: compaction: {e}")))?;
            }
            next.stamp_appended(*version);
            tables.insert(table.clone(), Arc::new(next));
        }
        WalRecord::Drop { table, .. } => {
            if tables.remove(table).is_none() {
                return Err(corrupt(format!(
                    "WAL drops {table}, which the manifest does not know"
                )));
            }
        }
    }
    Ok(())
}

/// Load one table from its manifest entry's chunk files.
fn load_table(dir: &Path, entry: &TableEntry) -> DbResult<Table> {
    let schema = entry.schema()?;
    let ncols = schema.len();
    let mut seg_lists: Vec<Vec<Arc<ColumnSegment>>> = vec![Vec::new(); ncols];
    let mut dicts: Vec<Option<StrDict>> = schema
        .columns()
        .iter()
        .map(|c| (c.dtype == DataType::Str).then(StrDict::default))
        .collect();

    for chunk_ref in &entry.chunks {
        let path = dir.join(SEGMENTS_DIR).join(&chunk_ref.file);
        let what = format!("segment {}", path.display());
        let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
        let chunk = read_chunk(&bytes, &what)?;
        if chunk.table != entry.name
            || chunk.start_row != chunk_ref.start_row
            || chunk.rows != chunk_ref.rows
        {
            return Err(corrupt(format!(
                "{what}: header ({}, rows {}..{}) does not match manifest ({}, rows {}..{})",
                chunk.table,
                chunk.start_row,
                chunk.start_row + chunk.rows,
                entry.name,
                chunk_ref.start_row,
                chunk_ref.start_row + chunk_ref.rows,
            )));
        }
        if chunk.columns.len() != ncols {
            return Err(corrupt(format!(
                "{what}: {} columns, schema has {ncols}",
                chunk.columns.len()
            )));
        }
        for (c, cc) in chunk.columns.into_iter().enumerate() {
            let seg = ColumnSegment::from_parts(cc.data, cc.validity);
            let expected = schema.column_at(c).dtype;
            if seg.data_type() != expected {
                return Err(corrupt(format!(
                    "{what}: column {c} is {}, schema says {expected}",
                    seg.data_type()
                )));
            }
            if let Some(dict) = dicts.get_mut(c).and_then(Option::as_mut) {
                if cc.dict_start != dict.len() as u64 {
                    return Err(corrupt(format!(
                        "{what}: column {c} dictionary starts at {} but {} entries are loaded",
                        cc.dict_start,
                        dict.len()
                    )));
                }
                for s in cc.dict_entries {
                    if dict.push_entry(s).is_none() {
                        return Err(corrupt(format!(
                            "{what}: column {c} re-interns a dictionary entry"
                        )));
                    }
                }
            }
            match seg_lists.get_mut(c) {
                Some(list) => list.push(Arc::new(seg)),
                None => {
                    return Err(corrupt(format!(
                        "{what}: column {c} out of range for {ncols}-column schema"
                    )))
                }
            }
        }
    }

    let columns: Vec<Column> = schema
        .columns()
        .iter()
        .zip(seg_lists)
        .zip(dicts)
        .map(|((def, segs), dict)| Column::from_parts(def.dtype, segs, dict.map(Arc::new)))
        .collect();
    for (def, col) in schema.columns().iter().zip(&columns) {
        if col.len() as u64 != entry.rows {
            return Err(corrupt(format!(
                "table {}: column {} holds {} rows, manifest says {}",
                entry.name,
                def.name,
                col.len(),
                entry.rows
            )));
        }
    }
    let lineage = entry
        .lineage
        .iter()
        .map(|&(v, r)| (v, r as usize))
        .collect();
    Ok(Table::from_parts(
        entry.name.clone(),
        schema,
        columns,
        entry.rows as usize,
        entry.version,
        lineage,
    ))
}

/// Spill a set of physical plans (the serving layer's cached plans) to
/// `path` as one checksummed section, atomically. Plans are sorted by
/// fingerprint so the file is deterministic.
pub fn write_plans(path: &Path, plans: &[PhysicalPlan]) -> DbResult<()> {
    let mut sorted: Vec<&PhysicalPlan> = plans.iter().collect();
    sorted.sort_by_key(|p| p.fingerprint());
    sorted.dedup_by_key(|p| p.fingerprint());
    let mut e = Enc::new();
    e.u64(sorted.len() as u64);
    for plan in sorted {
        encode_plan(&mut e, plan);
    }
    format::write_section_file(path, &e.into_bytes())
}

/// Read a warm-plan spill back. A missing file is an empty set (warm
/// starts are best-effort).
pub fn read_plans(path: &Path) -> DbResult<Vec<PhysicalPlan>> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    let what = format!("warm plans {}", path.display());
    let payload = format::read_section_file(path, &what)?;
    let mut d = Dec::new(&payload, &what);
    let n = d.count(1)?;
    let mut plans = Vec::with_capacity(n);
    for _ in 0..n {
        plans.push(decode_plan(&mut d, &what)?);
    }
    if !d.is_done() {
        return Err(corrupt(format!("{what}: trailing bytes")));
    }
    Ok(plans)
}

fn encode_plan(e: &mut Enc, plan: &PhysicalPlan) {
    let q = &plan.query;
    // Tag 0 stores one grouping set as a flat column list, tag 1 a list
    // of sets; both decode to the same plan type.
    let one_set = q.sets.len() == 1;
    e.u8(if one_set { 0 } else { 1 });
    e.str(&q.table);
    e.opt_expr(&q.filter);
    e.opt_sample(&q.sample);
    e.u64(q.aggregates.len() as u64);
    for a in &q.aggregates {
        e.agg_spec(a);
    }
    match plan.row_range {
        None => e.u8(0),
        Some((lo, hi)) => {
            e.u8(1);
            e.u64(lo as u64);
            e.u64(hi as u64);
        }
    }
    if !one_set {
        e.u64(q.sets.len() as u64);
    }
    for set in &q.sets {
        e.u64(set.len() as u64);
        for g in set {
            e.str(g);
        }
    }
}

fn decode_plan(d: &mut Dec, what: &str) -> DbResult<PhysicalPlan> {
    let tag = d.u8()?;
    let table = d.str()?;
    let filter = d.opt_expr()?;
    let sample = d.opt_sample()?;
    let naggs = d.count(1)?;
    let mut aggregates = Vec::with_capacity(naggs);
    for _ in 0..naggs {
        aggregates.push(d.agg_spec()?);
    }
    let row_range = match d.u8()? {
        0 => None,
        1 => Some((d.u64()? as usize, d.u64()? as usize)),
        t => return Err(corrupt(format!("{what}: bad row-range tag {t}"))),
    };
    let nsets = match tag {
        0 => 1,
        1 => d.count(1)?,
        t => return Err(corrupt(format!("{what}: bad plan tag {t}"))),
    };
    let mut sets = Vec::with_capacity(nsets);
    for _ in 0..nsets {
        let n = d.count(1)?;
        let mut set = Vec::with_capacity(n);
        for _ in 0..n {
            set.push(d.str()?);
        }
        sets.push(set);
    }
    Ok(PhysicalPlan {
        query: crate::exec::Query {
            table,
            filter,
            sets,
            aggregates,
            sample,
        },
        row_range,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::exec::{AggFunc, AggSpec};
    use crate::expr::Expr;
    use crate::plan::LogicalPlan;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::Value;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("memdb-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn warm_plans_roundtrip_and_missing_file_is_empty() {
        let dir = tmp("plans");
        let path = dir.join(WARM_PLANS_FILE);
        assert!(read_plans(&path).unwrap().is_empty());

        let a = LogicalPlan::scan("t")
            .filter(Expr::col("d").eq("x"))
            .aggregate(
                vec!["d".into()],
                vec![
                    AggSpec::new(AggFunc::Sum, "m")
                        .with_filter(Expr::col("d").ne("y"))
                        .with_alias("target"),
                    AggSpec::count_star(),
                ],
            )
            .lower()
            .unwrap();
        let b = LogicalPlan::scan("t")
            .grouping_sets(
                vec![vec!["d".into()], vec![], vec!["d".into(), "e".into()]],
                vec![AggSpec::new(AggFunc::Avg, "m")],
            )
            .sliced(3, 9)
            .lower()
            .unwrap();
        write_plans(&path, &[a.clone(), b.clone(), a.clone()]).unwrap();
        let got = read_plans(&path).unwrap();
        assert_eq!(got.len(), 2, "duplicates collapse");
        let fps: Vec<String> = got.iter().map(|p| p.fingerprint()).collect();
        assert!(fps.contains(&a.fingerprint()));
        assert!(fps.contains(&b.fingerprint()));

        // Corruption is typed.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_plans(&path), Err(DbError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Pins the cache-key and warm-plan file formats: plans spilled by
    /// earlier builds must keep warm-loading under the same keys.
    #[test]
    fn golden_fingerprints_and_warm_plan_bytes() {
        let one = LogicalPlan::scan("t")
            .filter(Expr::col("d").eq("x"))
            .aggregate(
                vec!["d".into()],
                vec![
                    AggSpec::new(AggFunc::Sum, "m")
                        .with_filter(Expr::col("d").ne("y"))
                        .with_alias("target"),
                    AggSpec::count_star(),
                ],
            )
            .sampled(Some(crate::sample::SampleSpec::Bernoulli {
                fraction: 0.25,
                seed: 9,
            }))
            .lower()
            .unwrap();
        let three = LogicalPlan::scan("t")
            .grouping_sets(
                vec![vec!["d".into()], vec![], vec!["d".into(), "e".into()]],
                vec![
                    AggSpec::new(AggFunc::Avg, "m"),
                    AggSpec::new(AggFunc::Max, "m").with_alias("hi"),
                ],
            )
            .sliced(3, 9)
            .lower()
            .unwrap();
        let fp_one = concat!(
            "shape:3:agg\n",
            "table:1:t\n",
            "range:4:none\n",
            "sample:37:Bernoulli { fraction: 0.25, seed: 9 }\n",
            "filter:7:d = 'x'\n",
            "nsets:1:1\n",
            "ncols:1:1\n",
            "col:1:d\n",
            "naggs:1:2\n",
            "func:3:SUM\n",
            "acol:1:m\n",
            "alias:6:target\n",
            "afilter:8:d <> 'y'\n",
            "func:5:COUNT\n",
            "acol:1:*\n",
            "alias:0:\n",
            "afilter:0:\n",
        );
        let fp_three = concat!(
            "shape:4:sets\n",
            "table:1:t\n",
            "range:3:3,9\n",
            "sample:4:none\n",
            "filter:0:\n",
            "nsets:1:3\n",
            "ncols:1:1\n",
            "col:1:d\n",
            "ncols:1:0\n",
            "ncols:1:2\n",
            "col:1:d\n",
            "col:1:e\n",
            "naggs:1:2\n",
            "func:3:AVG\n",
            "acol:1:m\n",
            "alias:0:\n",
            "afilter:0:\n",
            "func:3:MAX\n",
            "acol:1:m\n",
            "alias:2:hi\n",
            "afilter:0:\n",
        );
        assert_eq!(one.fingerprint(), fp_one);
        assert_eq!(three.fingerprint(), fp_three);

        // One set is written as tag 0 (flat column list), several as
        // tag 1 (list of sets), sorted by fingerprint.
        let golden = concat!(
            "0f010000000000007ec3220f0200000000000000000100000000000000740102",
            "0000010000000000000064010301000000000000007801000000000000d03f09",
            "000000000000000200000000000000010101000000000000006d010201000100",
            "0000000000006401030100000000000000790106000000000000007461726765",
            "7400000000000100000000000000010000000000000064010100000000000000",
            "7400000200000000000000020101000000000000006d00000401010000000000",
            "00006d0001020000000000000068690103000000000000000900000000000000",
            "0300000000000000010000000000000001000000000000006400000000000000",
            "000200000000000000010000000000000064010000000000000065",
        );
        let golden: Vec<u8> = (0..golden.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&golden[i..i + 2], 16).unwrap())
            .collect();
        let dir = tmp("golden-plans");
        let path = dir.join(WARM_PLANS_FILE);
        write_plans(&path, &[three.clone(), one.clone()]).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), golden);

        // Both tags decode back to the same plans.
        std::fs::write(&path, &golden).unwrap();
        let fps: Vec<String> = read_plans(&path)
            .unwrap()
            .iter()
            .map(PhysicalPlan::fingerprint)
            .collect();
        assert_eq!(fps, vec![fp_one.to_string(), fp_three.to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn seeded_db() -> Database {
        let schema = Schema::new(vec![
            ColumnDef::dimension("d", crate::value::DataType::Str),
            ColumnDef::measure("m", crate::value::DataType::Float64),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        for i in 0..20 {
            t.push_row(vec![
                Value::from(format!("g{}", i % 3)),
                Value::Float(i as f64 * 1.25),
            ])
            .unwrap();
        }
        let db = Database::new();
        db.register(t);
        db
    }

    fn rows_of(t: &Table) -> Vec<Vec<Value>> {
        (0..t.num_rows()).map(|i| t.row(i)).collect()
    }

    #[test]
    fn save_open_roundtrip_preserves_everything() {
        let dir = tmp("roundtrip");
        let db = seeded_db();
        db.append_rows("t", vec![vec!["g9".into(), 99.5.into()]])
            .unwrap();
        db.save(&dir).unwrap();
        assert!(db.is_durable());
        let original = db.table("t").unwrap();

        let reopened = Database::open(&dir).unwrap();
        let loaded = reopened.table("t").unwrap();
        assert_eq!(rows_of(&original), rows_of(&loaded));
        assert_eq!(original.version(), loaded.version());
        assert_eq!(original.lineage(), loaded.lineage());
        assert_eq!(original.num_segments(), loaded.num_segments());
        assert_eq!(reopened.version(), db.version());
        // Dictionary codes reproduce bit-for-bit.
        let (a, b) = (original.column("d").unwrap(), loaded.column("d").unwrap());
        for i in 0..a.len() {
            assert_eq!(a.code_at(i), b.code_at(i));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_tail_replays_after_simulated_crash() {
        let dir = tmp("crash");
        let db = seeded_db();
        db.save(&dir).unwrap();
        // Appends land in the WAL; no checkpoint happens below the
        // threshold — the manifest still describes the pre-append state.
        db.append_rows("t", vec![vec!["h0".into(), 1.0.into()]])
            .unwrap();
        db.append_rows("t", vec![vec!["h1".into(), 2.0.into()]])
            .unwrap();
        let live = db.table("t").unwrap();
        let summary = db.durability_summary().unwrap();
        assert_eq!(summary.wal_records, 2);
        assert!(summary.wal_bytes > 0);
        drop(db); // simulated crash: nothing flushed beyond the WAL

        let recovered = Database::open(&dir).unwrap();
        let t = recovered.table("t").unwrap();
        assert_eq!(rows_of(&live), rows_of(&t), "no acknowledged batch lost");
        assert_eq!(t.version(), live.version());
        assert_eq!(t.lineage(), live.lineage());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_seals_wal_into_segments_and_gcs() {
        let dir = tmp("checkpoint");
        let db = seeded_db();
        // Tiny threshold: every append checkpoints immediately.
        db.save_with(
            &dir,
            DurabilityConfig::recommended().with_wal_checkpoint_bytes(1),
        )
        .unwrap();
        db.append_rows("t", vec![vec!["h0".into(), 1.0.into()]])
            .unwrap();
        let summary = db.durability_summary().unwrap();
        assert_eq!(summary.wal_records, 0, "checkpoint truncated the WAL");
        assert_eq!(summary.tables[0].3, 2, "base chunk + delta chunk");
        let live = db.table("t").unwrap();

        // Replacement rewrites the table's chunks; GC drops the old
        // files. (register checkpoints directly — no WAL record.)
        let schema =
            Schema::new(vec![ColumnDef::measure("x", crate::value::DataType::Int64)]).unwrap();
        let mut t2 = Table::new("t", schema);
        t2.push_row(vec![Value::Int(7)]).unwrap();
        db.register(t2);
        let summary = db.durability_summary().unwrap();
        assert_eq!(summary.tables[0].3, 1, "replacement has one fresh chunk");
        let seg_dir = dir.join(SEGMENTS_DIR);
        let on_disk = std::fs::read_dir(&seg_dir).unwrap().count();
        assert_eq!(on_disk, 1, "old chunks GC'd");
        drop(live);

        let reopened = Database::open(&dir).unwrap();
        assert_eq!(reopened.table("t").unwrap().row(0), vec![Value::Int(7)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_table_survives_restart() {
        let dir = tmp("drop");
        let db = seeded_db();
        db.save(&dir).unwrap();
        db.drop_table("t").unwrap();
        drop(db);
        let reopened = Database::open(&dir).unwrap();
        assert!(matches!(reopened.table("t"), Err(DbError::UnknownTable(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A registration on a durable catalog never materializes into a
    /// WAL record (its contents are unbounded) — it checkpoints
    /// directly, sealing any pending WAL backlog along the way.
    #[test]
    fn register_checkpoints_directly_instead_of_wal_logging() {
        let dir = tmp("reg-ckpt");
        let db = seeded_db();
        db.save(&dir).unwrap(); // default (large) checkpoint threshold
        db.append_rows("t", vec![vec!["h0".into(), 1.0.into()]])
            .unwrap();
        assert_eq!(db.durability_summary().unwrap().wal_records, 1);

        let schema =
            Schema::new(vec![ColumnDef::measure("x", crate::value::DataType::Int64)]).unwrap();
        let mut t2 = Table::new("u", schema);
        t2.push_row(vec![Value::Int(7)]).unwrap();
        db.register(t2);
        let summary = db.durability_summary().unwrap();
        assert_eq!(summary.wal_records, 0, "backlog sealed, nothing logged");
        assert_eq!(summary.tables.len(), 2);
        assert!(summary.wedged.is_none());
        let live = db.table("t").unwrap();
        drop(db);

        let reopened = Database::open(&dir).unwrap();
        assert_eq!(reopened.table("u").unwrap().row(0), vec![Value::Int(7)]);
        let t = reopened.table("t").unwrap();
        assert_eq!(rows_of(&live), rows_of(&t));
        assert_eq!(t.version(), live.version());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A WAL truncation failure mid-checkpoint must not leave the
    /// in-memory manifest mirror stale (a stale mirror would hand the
    /// next checkpoint file ids the published manifest references,
    /// clobbering live segment files): the mirror updates at manifest
    /// publish, the store wedges, and a retried checkpoint heals it.
    #[test]
    fn failed_wal_truncate_wedges_with_a_fresh_manifest_mirror() {
        let dir = tmp("trunc-fail");
        let db = seeded_db();
        db.save(&dir).unwrap();
        db.append_rows("t", vec![vec!["h0".into(), 1.0.into()]])
            .unwrap();
        let live = db.table("t").unwrap();

        // Sabotage the truncation: make the WAL path un-creatable.
        let wal_path = dir.join(wal::Wal::FILE_NAME);
        std::fs::remove_file(&wal_path).unwrap();
        std::fs::create_dir(&wal_path).unwrap();
        assert!(db.checkpoint().is_err());
        let summary = db.durability_summary().unwrap();
        assert!(summary.wedged.is_some(), "truncate failure wedges");
        // The summary reads the mirror — it must reflect the
        // *published* manifest (sealed append included), not the
        // pre-checkpoint state.
        assert_eq!(summary.tables[0].2, 21, "mirror tracks the publish");
        let published = Manifest::read(&dir).unwrap();
        assert_eq!(summary.tables[0].3, published.tables[0].chunks.len());
        // Appends are refused while wedged — nothing can diverge.
        assert!(db
            .append_rows("t", vec![vec!["h1".into(), 2.0.into()]])
            .is_err());

        // Heal: restore a writable WAL path, retry the checkpoint.
        std::fs::remove_dir(&wal_path).unwrap();
        db.checkpoint().unwrap();
        assert!(db.durability_summary().unwrap().wedged.is_none());
        db.append_rows("t", vec![vec!["h2".into(), 3.0.into()]])
            .unwrap();
        let after = db.table("t").unwrap();
        assert_eq!(after.num_rows(), live.num_rows() + 1);
        // Sealing that append allocates *fresh* file ids past the
        // published manifest — a stale mirror would have reused them
        // and clobbered the files the manifest references.
        db.checkpoint().unwrap();
        let final_manifest = Manifest::read(&dir).unwrap();
        assert!(final_manifest.next_file_id > published.next_file_id);
        drop(db);
        let reopened = Database::open(&dir).unwrap();
        assert_eq!(rows_of(&reopened.table("t").unwrap()), rows_of(&after));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_segment_file_is_a_typed_open_error() {
        let dir = tmp("segcorrupt");
        let db = seeded_db();
        db.save(&dir).unwrap();
        drop(db);
        let seg = std::fs::read_dir(dir.join(SEGMENTS_DIR))
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();
        assert!(matches!(Database::open(&dir), Err(DbError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Re-saving into a live database directory must never clobber
    /// state the directory's current manifest references: fresh file
    /// ids, old manifest + WAL intact until the new publish, and a
    /// strictly newer WAL epoch.
    #[test]
    fn resave_into_live_directory_is_non_destructive_until_publish() {
        let dir = tmp("resave");
        let db1 = seeded_db();
        db1.save(&dir).unwrap();
        db1.append_rows("t", vec![vec!["x1".into(), 1.0.into()]])
            .unwrap(); // acked, WAL-only
        let wal_path = dir.join(wal::Wal::FILE_NAME);
        let old_wal = std::fs::read(&wal_path).unwrap();
        let old_epoch = wal::peek_epoch(&wal_path).unwrap();

        // A different catalog replaces the directory (its version
        // counter overlaps db1's — exactly the cross-incarnation
        // collision hazard).
        let db2 = seeded_db();
        db2.append_rows("t", vec![vec!["y1".into(), 9.0.into()]])
            .unwrap();
        db2.save(&dir).unwrap();
        let expected = db2.table("t").unwrap();
        assert!(wal::peek_epoch(&wal_path).unwrap() > old_epoch);

        // Simulate the crash window between the new manifest's publish
        // and the WAL reset: put the previous incarnation's WAL back.
        std::fs::write(&wal_path, &old_wal).unwrap();
        let recovered = Database::open(&dir).unwrap();
        let t = recovered.table("t").unwrap();
        assert_eq!(t.num_rows(), expected.num_rows(), "stale WAL ignored");
        assert_eq!(t.version(), expected.version());
        for i in 0..t.num_rows() {
            assert_eq!(t.row(i), expected.row(i));
        }
        // And the directory is fully serviceable again (fresh epoch).
        recovered
            .append_rows("t", vec![vec!["z1".into(), 2.0.into()]])
            .unwrap();
        let after = recovered.table("t").unwrap();
        drop(recovered);
        let again = Database::open(&dir).unwrap();
        assert_eq!(again.table("t").unwrap().num_rows(), after.num_rows());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A re-save writes its chunk files under *fresh* ids — never
    /// reusing a name the directory's current manifest references —
    /// so a crash before the new manifest publishes leaves the old
    /// state (files, manifest, acknowledged WAL tail) fully intact.
    /// Old files disappear only via post-publish GC.
    #[test]
    fn resave_allocates_fresh_file_ids_never_reusing_referenced_ones() {
        let dir = tmp("resave-ids");
        let db1 = seeded_db();
        db1.save(&dir).unwrap();
        let old = Manifest::read(&dir).unwrap();
        let old_files: Vec<String> = old
            .tables
            .iter()
            .flat_map(|t| t.chunks.iter().map(|c| c.file.clone()))
            .collect();
        assert!(!old_files.is_empty());

        let db2 = seeded_db();
        db2.save(&dir).unwrap();
        let new = Manifest::read(&dir).unwrap();
        assert!(new.next_file_id > old.next_file_id);
        for t in &new.tables {
            for c in &t.chunks {
                assert!(
                    !old_files.contains(&c.file),
                    "{} was still referenced by the previous manifest",
                    c.file
                );
            }
        }
        // Post-publish GC removed the now-unreferenced old files.
        for f in &old_files {
            assert!(!dir.join(SEGMENTS_DIR).join(f).exists());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_directory_is_io_not_corrupt() {
        let dir = std::env::temp_dir().join(format!("memdb-store-nodir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(matches!(Database::open(&dir), Err(DbError::Io(_))));
    }
}
