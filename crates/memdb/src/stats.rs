//! Table and column statistics, kept as a resumable fold.
//!
//! These are the "metadata tables" SeeDB's Metadata Collector queries
//! (paper §3.1): table sizes, column types, data distributions, and the
//! inputs to variance-based and correlation-based view pruning.
//!
//! Every statistic here is the finalized form of a [`TableFold`]: one
//! sequential fold over rows in logical order. Per column it holds the
//! null count, value counts (by dictionary code for strings) and the
//! Welford `(count, mean, m2)` moments; per dimension pair it holds the
//! contingency counts behind Cramér's V. The fold is resumable: folding
//! rows `[0, n)` and later `[n, m)` leaves exactly the state that
//! folding `[0, m)` at once leaves, so the statistics of an append-only
//! table are refreshed by folding the appended rows alone.
//! [`TableStats::collect`], [`ColumnStats::collect`] and [`cramers_v`]
//! are "fold from empty, then finalize", so a cold collect and a
//! refreshed one take the same code path and agree bit for bit.
//!
//! Finalizing is deterministic and cheap. String and boolean frequency
//! summaries sum in dictionary-code order; numeric ones sum a
//! count → multiplicity histogram in ascending count order, which the
//! fold keeps up to date, so they cost O(distinct counts) rather than
//! O(distinct values).

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

use crate::column::{Column, StrDict};
use crate::error::{DbError, DbResult};
use crate::schema::{ColumnDef, Role, Schema};
use crate::segment::{ColumnSegment, SegmentData};
use crate::table::Table;
use crate::value::DataType;

/// Dense code of a null row in a block's code buffer.
const NULL_CODE: u32 = u32::MAX;

/// Rows folded per block. Bounds the per-dimension code buffers that
/// feed the pair counts, whatever the table size.
const BLOCK_ROWS: usize = 4096;

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name.
    pub name: String,
    /// Rows in the table.
    pub row_count: usize,
    /// Null rows.
    pub null_count: usize,
    /// Distinct non-null values (the group count if used as a grouping
    /// attribute).
    pub distinct: usize,
    /// Mean of numeric values (numeric columns only).
    pub mean: Option<f64>,
    /// Population variance of numeric values (numeric columns only).
    pub value_variance: Option<f64>,
    /// Variance of the *relative frequency distribution* over distinct
    /// values. This is the paper's "variance" signal for dimension
    /// attributes: an attribute taking a single value has frequency
    /// distribution {1.0} with variance 0 relative to uniform spread.
    /// Defined as the population variance of per-value frequencies
    /// (each distinct value's share of non-null rows).
    pub frequency_variance: f64,
    /// Shannon entropy (nats) of the frequency distribution — a second
    /// skew signal exposed for pruning policies.
    pub entropy: f64,
}

impl ColumnStats {
    /// Number of groups this column produces as a grouping attribute:
    /// distinct non-null values, plus the NULL group when any row is
    /// null. (Used as `K` in phased execution's confidence bound.)
    pub fn group_count(&self) -> usize {
        self.distinct + usize::from(self.null_count > 0)
    }

    /// Collect statistics for `column` (named `name`).
    pub fn collect(name: &str, column: &Column) -> ColumnStats {
        let mut fold = ColumnFold::new(column.data_type(), false);
        fold_rows(
            &[column],
            std::slice::from_mut(&mut fold),
            &[],
            &mut [],
            0,
            column.len(),
        );
        fold.finalize(name)
    }
}

/// Welford running moments over non-null numeric values.
#[derive(Debug, Clone, Copy, Default)]
struct Moments {
    count: usize,
    mean: f64,
    m2: f64,
}

impl Moments {
    #[inline]
    fn push(&mut self, v: f64) {
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
    }
}

/// Hash builder for the 64-bit value keys of numeric columns: a
/// splitmix64 finalizer over the key XOR a per-map random seed. One
/// `u64` hashes several times faster than through SipHash, and the
/// random seed keeps crafted keys from colliding on purpose, as
/// `RandomState` does. Nothing depends on iteration order.
#[derive(Debug, Clone)]
struct KeyMix(u64);

impl Default for KeyMix {
    fn default() -> Self {
        KeyMix(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for KeyMix {
    type Hasher = KeyMixHasher;
    fn build_hasher(&self) -> KeyMixHasher {
        KeyMixHasher(self.0)
    }
}

struct KeyMixHasher(u64);

impl Hasher for KeyMixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut z = self.0 ^ x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Value counts of a numeric column, keyed by the value's bits.
#[derive(Debug, Clone, Default)]
struct NumCounts {
    counts: HashMap<u64, usize, KeyMix>,
    /// Dense codes in first-occurrence order, as contingency tables
    /// index them; kept only for a column whose pairs are folded.
    codes: Option<HashMap<u64, u32, KeyMix>>,
    /// Count → number of distinct values with exactly that count.
    hist: BTreeMap<usize, usize>,
}

impl NumCounts {
    /// Count one occurrence of `bits` and return its dense code
    /// ([`NULL_CODE`] when codes are not kept). With `track`, the
    /// histogram follows along; otherwise it is rebuilt once after the
    /// fold (see [`NumCounts::rebuild_hist`]).
    #[inline]
    fn observe(&mut self, bits: u64, track: bool) -> u32 {
        let count = self.counts.entry(bits).or_insert(0);
        let old = *count;
        *count += 1;
        let code = match &mut self.codes {
            Some(codes) => {
                let next = codes.len() as u32;
                *codes.entry(bits).or_insert(next)
            }
            None => NULL_CODE,
        };
        if track {
            if old > 0 {
                if let Some(m) = self.hist.get_mut(&old) {
                    *m -= 1;
                    if *m == 0 {
                        self.hist.remove(&old);
                    }
                }
            }
            *self.hist.entry(old + 1).or_insert(0) += 1;
        }
        code
    }

    fn rebuild_hist(&mut self) {
        // Most counts are small: tally those densely, the rest in the map.
        let mut small = [0usize; 64];
        self.hist.clear();
        for &count in self.counts.values() {
            match small.get_mut(count) {
                Some(m) => *m += 1,
                None => *self.hist.entry(count).or_insert(0) += 1,
            }
        }
        for (count, &m) in small.iter().enumerate() {
            if m > 0 {
                self.hist.insert(count, m);
            }
        }
    }
}

/// The per-type part of a column's fold.
#[derive(Debug, Clone)]
enum Values {
    /// String columns: rows per dictionary code, and the dictionary the
    /// codes index.
    Str {
        counts: Vec<usize>,
        dict: Option<Arc<StrDict>>,
    },
    /// Boolean columns: `[true, false]` rows, and the value seen first
    /// (dense code 0 in contingency tables).
    Bool {
        counts: [usize; 2],
        first: Option<bool>,
    },
    /// Int64 and Float64 columns.
    Num(NumCounts),
}

/// Resumable statistics fold of one column.
#[derive(Debug, Clone)]
struct ColumnFold {
    rows: usize,
    nulls: usize,
    moments: Moments,
    values: Values,
}

impl ColumnFold {
    /// An empty fold; `coded` keeps what the column's dense codes need
    /// (only numeric columns need more than their counts).
    fn new(dtype: DataType, coded: bool) -> ColumnFold {
        let values = match dtype {
            DataType::Str => Values::Str {
                counts: Vec::new(),
                dict: None,
            },
            DataType::Bool => Values::Bool {
                counts: [0; 2],
                first: None,
            },
            DataType::Int64 | DataType::Float64 => Values::Num(NumCounts {
                codes: coded.then(HashMap::default),
                ..NumCounts::default()
            }),
        };
        ColumnFold {
            rows: 0,
            nulls: 0,
            moments: Moments::default(),
            values,
        }
    }

    /// True if `column`'s dictionary codes mean what the folded ones
    /// meant (always true for non-string columns).
    fn extended_by(&self, column: &Column) -> bool {
        match (&self.values, column.shared_dict()) {
            (
                Values::Str {
                    dict: Some(old), ..
                },
                Some(new),
            ) => Arc::ptr_eq(old, new) || new.extends(old),
            _ => true,
        }
    }

    /// Adopt `column`'s dictionary before folding its rows.
    fn adopt(&mut self, column: &Column) {
        if let Values::Str { counts, dict } = &mut self.values {
            *dict = column.shared_dict().cloned();
            let len = dict.as_deref().map_or(0, StrDict::len);
            if counts.len() < len {
                counts.resize(len, 0);
            }
        }
    }

    /// Dense codes handed out so far: the dictionary size for strings,
    /// the distinct non-null values otherwise.
    fn code_space(&self) -> usize {
        match &self.values {
            Values::Str { dict, .. } => dict.as_deref().map_or(0, StrDict::len),
            Values::Bool { counts, .. } => counts.iter().filter(|&&c| c > 0).count(),
            Values::Num(n) => n.counts.len(),
        }
    }

    /// Fold local rows `[a, b)` of `seg`, pushing each row's dense code
    /// (or [`NULL_CODE`]) onto `codes` when given.
    fn fold_segment(
        &mut self,
        seg: &ColumnSegment,
        a: usize,
        b: usize,
        mut codes: Option<&mut Vec<u32>>,
        track: bool,
    ) {
        let mut emit = |c: u32| {
            if let Some(out) = codes.as_mut() {
                out.push(c);
            }
        };
        self.rows += b - a;
        let nulls = &mut self.nulls;
        let moments = &mut self.moments;
        match (&mut self.values, seg.data()) {
            (Values::Str { counts, .. }, SegmentData::Str(data)) => {
                for (i, &c) in data.iter().enumerate().take(b).skip(a) {
                    if seg.is_valid(i) {
                        counts[c as usize] += 1;
                        emit(c);
                    } else {
                        *nulls += 1;
                        emit(NULL_CODE);
                    }
                }
            }
            (Values::Bool { counts, first }, SegmentData::Bool(data)) => {
                for (i, &v) in data.iter().enumerate().take(b).skip(a) {
                    if seg.is_valid(i) {
                        counts[usize::from(!v)] += 1;
                        emit(u32::from(v != *first.get_or_insert(v)));
                    } else {
                        *nulls += 1;
                        emit(NULL_CODE);
                    }
                }
            }
            (Values::Num(num), SegmentData::Int64(data)) => {
                for (i, &v) in data.iter().enumerate().take(b).skip(a) {
                    if seg.is_valid(i) {
                        moments.push(v as f64);
                        emit(num.observe(v as u64, track));
                    } else {
                        *nulls += 1;
                        emit(NULL_CODE);
                    }
                }
            }
            (Values::Num(num), SegmentData::Float64(data)) => {
                for (i, &v) in data.iter().enumerate().take(b).skip(a) {
                    if seg.is_valid(i) {
                        moments.push(v);
                        emit(num.observe(v.to_bits(), track));
                    } else {
                        *nulls += 1;
                        emit(NULL_CODE);
                    }
                }
            }
            // A fold is only ever built from, and resumed on, columns of
            // its own type (`TableFold::fold_appended` checks the schema).
            _ => {}
        }
    }

    fn finalize(&self, name: &str) -> ColumnStats {
        let valid = self.rows - self.nulls;
        let (distinct, frequency_variance, entropy) = match &self.values {
            Values::Str { counts, .. } => frequency_summary(counts, valid),
            Values::Bool { counts, .. } => frequency_summary(counts, valid),
            Values::Num(num) => histogram_summary(num, valid),
        };
        let numeric = matches!(self.values, Values::Num(_)) && self.moments.count > 0;
        ColumnStats {
            name: name.to_string(),
            row_count: self.rows,
            null_count: self.nulls,
            distinct,
            mean: numeric.then_some(self.moments.mean),
            value_variance: numeric.then(|| self.moments.m2 / self.moments.count as f64),
            frequency_variance,
            entropy,
        }
    }
}

/// `(distinct, frequency variance, entropy)` over per-value counts,
/// summed in the order given (zero counts are not values).
fn frequency_summary(counts: &[usize], valid: usize) -> (usize, f64, f64) {
    let freqs: Vec<usize> = counts.iter().copied().filter(|&c| c > 0).collect();
    let distinct = freqs.len();
    if valid == 0 || distinct == 0 {
        return (distinct, 0.0, 0.0);
    }
    let total = valid as f64;
    let probs: Vec<f64> = freqs.iter().map(|&c| c as f64 / total).collect();
    let mean_p = 1.0 / distinct as f64;
    let var = probs.iter().map(|p| (p - mean_p).powi(2)).sum::<f64>() / distinct as f64;
    let ent = -probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * p.ln())
        .sum::<f64>();
    (distinct, var, ent)
}

/// [`frequency_summary`] of a numeric column from its count histogram,
/// in ascending count order.
fn histogram_summary(num: &NumCounts, valid: usize) -> (usize, f64, f64) {
    let distinct = num.counts.len();
    if valid == 0 || distinct == 0 {
        return (distinct, 0.0, 0.0);
    }
    let total = valid as f64;
    let mean_p = 1.0 / distinct as f64;
    let var = num
        .hist
        .iter()
        .map(|(&c, &m)| m as f64 * (c as f64 / total - mean_p).powi(2))
        .sum::<f64>()
        / distinct as f64;
    let ent = -num
        .hist
        .iter()
        .map(|(&c, &m)| {
            let p = c as f64 / total;
            m as f64 * (p * p.ln())
        })
        .sum::<f64>();
    (distinct, var, ent)
}

/// Contingency counts of one column pair, by dense codes: `cells` is
/// row-major with `stride` columns, of which the first `kb` are in use.
#[derive(Debug, Clone, Default)]
struct PairFold {
    ka: usize,
    kb: usize,
    stride: usize,
    cells: Vec<u64>,
}

impl PairFold {
    /// Make room for codes below `ka` × `kb`. The stride grows
    /// geometrically, so a dimension whose values keep arriving does
    /// not re-lay the table out on every block.
    fn grow(&mut self, ka: usize, kb: usize) {
        if kb > self.stride {
            let stride = kb.max(2 * self.stride);
            let mut cells = vec![0u64; self.ka * stride];
            for i in 0..self.ka {
                cells[i * stride..i * stride + self.kb]
                    .copy_from_slice(&self.cells[i * self.stride..i * self.stride + self.kb]);
            }
            self.cells = cells;
            self.stride = stride;
        }
        self.kb = self.kb.max(kb);
        if ka > self.ka {
            self.ka = ka;
            self.cells.resize(ka * self.stride, 0);
        }
    }

    fn fold(&mut self, ca: &[u32], cb: &[u32]) {
        for (&x, &y) in ca.iter().zip(cb) {
            if x != NULL_CODE && y != NULL_CODE {
                self.cells[x as usize * self.stride + y as usize] += 1;
            }
        }
    }

    /// Cramér's V given the two columns' code spaces.
    fn cramers_v(&self, ka: usize, kb: usize) -> f64 {
        if ka < 2 || kb < 2 {
            // A constant column is vacuously "determined"; treat as fully
            // correlated so pruning collapses it with anything (a constant
            // grouping attribute is useless regardless).
            return 1.0;
        }
        let mut row_tot = vec![0u64; self.ka];
        let mut col_tot = vec![0u64; self.kb];
        for (i, row) in row_tot.iter_mut().enumerate() {
            let cells = &self.cells[i * self.stride..i * self.stride + self.kb];
            for (tot, &c) in col_tot.iter_mut().zip(cells) {
                *row += c;
                *tot += c;
            }
        }
        let n: u64 = row_tot.iter().sum();
        if n == 0 {
            return 0.0;
        }
        // Codes the pair never saw have zero totals and add no terms, so
        // summing over the cells in use matches a `ka × kb` table.
        let nf = n as f64;
        let mut chi2 = 0.0f64;
        for (i, &rt) in row_tot.iter().enumerate() {
            if rt == 0 {
                continue;
            }
            for (j, &ct) in col_tot.iter().enumerate() {
                if ct == 0 {
                    continue;
                }
                let expected = rt as f64 * ct as f64 / nf;
                let observed = self.cells[i * self.stride + j] as f64;
                chi2 += (observed - expected).powi(2) / expected;
            }
        }
        let min_dim = (ka.min(kb) - 1) as f64;
        if min_dim == 0.0 {
            return 1.0;
        }
        (chi2 / (nf * min_dim)).sqrt().min(1.0)
    }
}

/// Fold rows `[lo, hi)` of `columns` into `folds` (one per column) and
/// the pairs of the columns at positions `dims` into `pairs`: one per
/// `(i, j)` with `i < j`, in that order.
fn fold_rows(
    columns: &[&Column],
    folds: &mut [ColumnFold],
    dims: &[usize],
    pairs: &mut [PairFold],
    lo: usize,
    hi: usize,
) {
    // A fold resumed on a non-empty state keeps its count histograms up
    // to date row by row; one starting from empty rebuilds them once.
    let track: Vec<bool> = folds.iter().map(|f| f.rows > 0).collect();
    for (fold, column) in folds.iter_mut().zip(columns) {
        fold.adopt(column);
    }
    let mut codes: Vec<Vec<u32>> = vec![Vec::with_capacity(BLOCK_ROWS); dims.len()];
    let mut start = lo;
    while start < hi {
        let end = (start + BLOCK_ROWS).min(hi);
        for (c, (column, fold)) in columns.iter().zip(folds.iter_mut()).enumerate() {
            let mut out = dims.iter().position(|&d| d == c).map(|k| &mut codes[k]);
            for (seg_start, seg) in column.segments() {
                let seg_end = seg_start + seg.len();
                if seg_end <= start || seg_start >= end {
                    continue;
                }
                let (a, b) = (start.max(seg_start), end.min(seg_end));
                let out = out.as_deref_mut();
                fold.fold_segment(seg, a - seg_start, b - seg_start, out, track[c]);
            }
        }
        let mut pair = pairs.iter_mut();
        for (i, &da) in dims.iter().enumerate() {
            for (j, &db) in dims.iter().enumerate().skip(i + 1) {
                if let Some(p) = pair.next() {
                    p.grow(folds[da].code_space(), folds[db].code_space());
                    p.fold(&codes[i], &codes[j]);
                }
            }
        }
        for c in &mut codes {
            c.clear();
        }
        start = end;
    }
    for (fold, track) in folds.iter_mut().zip(track) {
        if let (false, Values::Num(num)) = (track, &mut fold.values) {
            num.rebuild_hist();
        }
    }
}

/// Cramér's V association between two columns of the same table, in
/// `[0, 1]`: 0 = independent, 1 = perfectly determined.
///
/// This drives SeeDB's correlated-attribute pruning: two dimension
/// attributes with V near 1 (e.g. airport name vs airport code) produce
/// near-identical views, so only one representative needs evaluating.
///
/// # Errors
/// `Internal` if the columns have different lengths.
pub fn cramers_v(a: &Column, b: &Column) -> DbResult<f64> {
    if a.len() != b.len() {
        return Err(DbError::Internal(format!(
            "cramers_v over columns of different lengths ({} vs {})",
            a.len(),
            b.len()
        )));
    }
    let mut folds = [
        ColumnFold::new(a.data_type(), true),
        ColumnFold::new(b.data_type(), true),
    ];
    let mut pair = PairFold::default();
    fold_rows(
        &[a, b],
        &mut folds,
        &[0, 1],
        std::slice::from_mut(&mut pair),
        0,
        a.len(),
    );
    Ok(pair.cramers_v(folds[0].code_space(), folds[1].code_space()))
}

/// Resumable Phase-1 statistics of one table: every column's fold plus,
/// when correlations are kept, the contingency counts of every
/// dimension pair.
///
/// Build it with [`TableFold::new`], feed it rows with
/// [`TableFold::fold_appended`], and read it with
/// [`TableFold::finalize`]. The caller vouches that the rows already
/// folded are the first [`TableFold::rows`] rows of every table it
/// later passes in (for instance through
/// [`Table::append_delta_since`]); the fold itself checks the schema and
/// that each string dictionary still extends the one it folded against.
#[derive(Debug, Clone)]
pub struct TableFold {
    schema: Schema,
    rows: usize,
    columns: Vec<ColumnFold>,
    /// Schema positions of the dimensions whose pairs are folded
    /// (`None` when correlations are not kept).
    dims: Option<Vec<usize>>,
    pairs: Vec<PairFold>,
}

impl TableFold {
    /// An empty fold shaped for `table`'s schema, keeping the dimension
    /// pair counts when `correlations` is set.
    pub fn new(table: &Table, correlations: bool) -> TableFold {
        let schema = table.schema().clone();
        let coded = |def: &ColumnDef| correlations && def.role == Role::Dimension;
        let columns = schema
            .columns()
            .iter()
            .map(|def| ColumnFold::new(def.dtype, coded(def)))
            .collect();
        let dims = correlations.then(|| {
            schema
                .columns()
                .iter()
                .enumerate()
                .filter(|(_, def)| coded(def))
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        });
        let n = dims.as_ref().map_or(0, Vec::len);
        TableFold {
            schema,
            rows: 0,
            columns,
            dims,
            pairs: vec![PairFold::default(); n * n.saturating_sub(1) / 2],
        }
    }

    /// Rows folded so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True if the dimension pair counts are kept.
    pub fn has_correlations(&self) -> bool {
        self.dims.is_some()
    }

    /// Fold `table`'s rows from [`TableFold::rows`] on: the rows
    /// appended since the last fold. Returns `false`, folding nothing,
    /// when `table` cannot continue this fold: another schema, fewer
    /// rows, or a string dictionary that no longer extends the one
    /// folded against (so old codes would change meaning).
    pub fn fold_appended(&mut self, table: &Table) -> bool {
        let columns: Vec<&Column> = (0..self.columns.len())
            .map(|i| table.column_at(i))
            .collect();
        let continues = *table.schema() == self.schema
            && table.num_rows() >= self.rows
            && self
                .columns
                .iter()
                .zip(&columns)
                .all(|(fold, column)| fold.extended_by(column));
        if !continues {
            return false;
        }
        fold_rows(
            &columns,
            &mut self.columns,
            self.dims.as_deref().unwrap_or(&[]),
            &mut self.pairs,
            self.rows,
            table.num_rows(),
        );
        self.rows = table.num_rows();
        true
    }

    /// The statistics of the rows folded so far, and the Cramér's V of
    /// every dimension pair `(dim_i, dim_j, v)` with `i < j` in schema
    /// order (empty when correlations are not kept). `table` names the
    /// result and must be the table last folded.
    pub fn finalize(&self, table: &Table) -> (TableStats, Vec<(String, String, f64)>) {
        let defs = self.schema.columns();
        let columns = self
            .columns
            .iter()
            .zip(defs)
            .map(|(fold, def)| fold.finalize(&def.name))
            .collect();
        let mut correlations = Vec::with_capacity(self.pairs.len());
        let dims = self.dims.as_deref().unwrap_or(&[]);
        let mut pair = self.pairs.iter();
        for (i, &a) in dims.iter().enumerate() {
            for &b in &dims[i + 1..] {
                if let Some(p) = pair.next() {
                    let (ka, kb) = (self.columns[a].code_space(), self.columns[b].code_space());
                    correlations.push((
                        defs[a].name.clone(),
                        defs[b].name.clone(),
                        p.cramers_v(ka, kb),
                    ));
                }
            }
        }
        let stats = TableStats {
            table: table.name().to_string(),
            row_count: self.rows,
            columns,
        };
        (stats, correlations)
    }
}

/// Statistics for a whole table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Table name.
    pub table: String,
    /// Row count.
    pub row_count: usize,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Collect statistics for every column of `table`.
    pub fn collect(table: &Table) -> TableStats {
        let mut fold = TableFold::new(table, false);
        fold.fold_appended(table);
        fold.finalize(table).0
    }

    /// Stats for one column by name.
    ///
    /// # Errors
    /// `UnknownColumn` if absent.
    pub fn column(&self, name: &str) -> DbResult<&ColumnStats> {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| DbError::UnknownColumn(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::{DataType, Value};

    fn table_with(col: &str, dtype: DataType, values: Vec<Value>) -> Table {
        let schema = Schema::new(vec![ColumnDef::dimension(col, dtype)]).unwrap();
        let mut t = Table::new("t", schema);
        for v in values {
            t.push_row(vec![v]).unwrap();
        }
        t
    }

    #[test]
    fn numeric_moments() {
        let t = table_with(
            "m",
            DataType::Float64,
            vec![1.0.into(), 2.0.into(), 3.0.into(), 4.0.into()],
        );
        let s = ColumnStats::collect("m", t.column("m").unwrap());
        assert_eq!(s.mean, Some(2.5));
        assert!((s.value_variance.unwrap() - 1.25).abs() < 1e-12);
        assert_eq!(s.distinct, 4);
    }

    #[test]
    fn constant_column_has_zero_entropy_and_max_freq_variance_zero() {
        let t = table_with("d", DataType::Str, vec!["a".into(), "a".into(), "a".into()]);
        let s = ColumnStats::collect("d", t.column("d").unwrap());
        assert_eq!(s.distinct, 1);
        assert_eq!(s.entropy, 0.0);
        // Single value: freq dist {1.0}, variance vs uniform(1) = 0.
        assert_eq!(s.frequency_variance, 0.0);
    }

    #[test]
    fn uniform_column_has_zero_frequency_variance() {
        let t = table_with(
            "d",
            DataType::Str,
            vec![
                "a".into(),
                "b".into(),
                "c".into(),
                "a".into(),
                "b".into(),
                "c".into(),
            ],
        );
        let s = ColumnStats::collect("d", t.column("d").unwrap());
        assert!(s.frequency_variance.abs() < 1e-12);
        assert!((s.entropy - 3.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn skewed_column_has_positive_frequency_variance() {
        let mut vals: Vec<Value> = vec!["hot".into(); 98];
        vals.push("cold".into());
        vals.push("warm".into());
        let t = table_with("d", DataType::Str, vals);
        let s = ColumnStats::collect("d", t.column("d").unwrap());
        assert!(s.frequency_variance > 0.1);
        assert!(s.entropy < 0.2);
    }

    #[test]
    fn nulls_excluded_from_stats() {
        let t = table_with(
            "m",
            DataType::Int64,
            vec![Value::Int(2), Value::Null, Value::Int(4)],
        );
        let s = ColumnStats::collect("m", t.column("m").unwrap());
        assert_eq!(s.null_count, 1);
        assert_eq!(s.mean, Some(3.0));
        assert_eq!(s.distinct, 2);
    }

    #[test]
    fn cramers_v_perfect_association() {
        // b is a renaming of a.
        let schema = Schema::new(vec![
            ColumnDef::dimension("a", DataType::Str),
            ColumnDef::dimension("b", DataType::Str),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        for (x, y) in [
            ("BOS", "Boston"),
            ("SEA", "Seattle"),
            ("BOS", "Boston"),
            ("SFO", "San Francisco"),
            ("SEA", "Seattle"),
        ] {
            t.push_row(vec![x.into(), y.into()]).unwrap();
        }
        let v = cramers_v(t.column("a").unwrap(), t.column("b").unwrap()).unwrap();
        assert!((v - 1.0).abs() < 1e-9, "got {v}");
    }

    #[test]
    fn cramers_v_independence() {
        // a and b independent by construction (all 4 combos equally often).
        let schema = Schema::new(vec![
            ColumnDef::dimension("a", DataType::Str),
            ColumnDef::dimension("b", DataType::Str),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        for x in ["p", "q"] {
            for y in ["u", "v"] {
                for _ in 0..10 {
                    t.push_row(vec![x.into(), y.into()]).unwrap();
                }
            }
        }
        let v = cramers_v(t.column("a").unwrap(), t.column("b").unwrap()).unwrap();
        assert!(v < 1e-9, "got {v}");
    }

    #[test]
    fn cramers_v_mismatched_lengths_error() {
        let t1 = table_with("a", DataType::Str, vec!["x".into()]);
        let t2 = table_with("b", DataType::Str, vec!["x".into(), "y".into()]);
        assert!(cramers_v(t1.column("a").unwrap(), t2.column("b").unwrap()).is_err());
    }

    #[test]
    fn cramers_v_constant_column_is_one() {
        let t1 = table_with("a", DataType::Str, vec!["k".into(), "k".into()]);
        let t2 = table_with("b", DataType::Str, vec!["x".into(), "y".into()]);
        let v = cramers_v(t1.column("a").unwrap(), t2.column("b").unwrap()).unwrap();
        assert_eq!(v, 1.0);
    }

    #[test]
    fn cramers_v_int_columns() {
        let schema = Schema::new(vec![
            ColumnDef::dimension("a", DataType::Int64),
            ColumnDef::dimension("b", DataType::Int64),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        for i in 0..40 {
            let a = i % 4;
            t.push_row(vec![Value::Int(a), Value::Int(a * 10)]).unwrap();
        }
        let v = cramers_v(t.column("a").unwrap(), t.column("b").unwrap()).unwrap();
        assert!((v - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_stats_covers_all_columns() {
        let schema = Schema::new(vec![
            ColumnDef::dimension("d", DataType::Str),
            ColumnDef::measure("m", DataType::Float64),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        t.push_row(vec!["a".into(), 1.0.into()]).unwrap();
        let stats = TableStats::collect(&t);
        assert_eq!(stats.row_count, 1);
        assert_eq!(stats.columns.len(), 2);
        assert!(stats.column("m").unwrap().mean.is_some());
        assert!(stats.column("zzz").is_err());
    }
    /// Every number of `stats` and `corr`, floats as bits.
    fn bits(stats: &TableStats, corr: &[(String, String, f64)]) -> Vec<String> {
        let mut out: Vec<String> = stats
            .columns
            .iter()
            .map(|c| {
                format!(
                    "{} {} {} {} {:?} {:?} {} {}",
                    c.name,
                    c.row_count,
                    c.null_count,
                    c.distinct,
                    c.mean.map(f64::to_bits),
                    c.value_variance.map(f64::to_bits),
                    c.frequency_variance.to_bits(),
                    c.entropy.to_bits()
                )
            })
            .collect();
        out.extend(
            corr.iter()
                .map(|(a, b, v)| format!("{a} {b} {}", v.to_bits())),
        );
        out
    }

    fn mixed_table(rows: usize, seed: u64) -> Table {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let schema = Schema::new(vec![
            ColumnDef::dimension("s", DataType::Str),
            ColumnDef::dimension("i", DataType::Int64),
            ColumnDef::dimension("b", DataType::Bool),
            ColumnDef::measure("m", DataType::Float64),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        for _ in 0..rows {
            let null = rng.gen_range(0..8) == 0;
            t.push_row(vec![
                format!("v{}", rng.gen_range(0..6)).into(),
                if null {
                    Value::Null
                } else {
                    Value::Int(rng.gen_range(0..40))
                },
                Value::Bool(rng.gen_range(0..3) == 0),
                Value::Float(rng.gen_range(0..500) as f64 / 4.0),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn numeric_frequency_statistics_are_deterministic() {
        // Value counts live in hash maps with per-map random seeds; the
        // summaries must not depend on their iteration order.
        let t = mixed_table(2_000, 3);
        let first = bits(&TableStats::collect(&t), &[]);
        for _ in 0..10 {
            assert_eq!(bits(&TableStats::collect(&t), &[]), first);
        }
    }

    #[test]
    fn histogram_summary_matches_the_per_value_formula() {
        let t = table_with(
            "m",
            DataType::Int64,
            [1, 1, 1, 2, 2, 3, 4, 4, 4, 4].map(Value::Int).to_vec(),
        );
        let s = ColumnStats::collect("m", t.column("m").unwrap());
        let probs = [0.3, 0.2, 0.1, 0.4];
        let var = probs.iter().map(|p| (p - 0.25f64).powi(2)).sum::<f64>() / 4.0;
        let ent = -probs.iter().map(|p| p * p.ln()).sum::<f64>();
        assert_eq!(s.distinct, 4);
        assert!((s.frequency_variance - var).abs() < 1e-15);
        assert!((s.entropy - ent).abs() < 1e-15);
    }

    #[test]
    fn fold_in_pieces_matches_fold_at_once() {
        let full = mixed_table(3_000, 9);
        let mut cold = TableFold::new(&full, true);
        assert!(cold.fold_appended(&full));
        let (stats, corr) = cold.finalize(&full);
        let want = bits(&stats, &corr);
        assert_eq!(corr.len(), 3);
        assert_eq!(
            bits(&TableStats::collect(&full), &[]),
            want[..4].to_vec(),
            "TableStats::collect is the same fold"
        );
        for cuts in [
            vec![0, 1, 2_999],
            vec![100, 2_100, 2_500],
            vec![500, 501, 1_777],
        ] {
            let mut fold = TableFold::new(&full, true);
            for &cut in &cuts {
                // Prefix tables share their rows and dictionary order.
                let prefix = prefix_of(&full, cut);
                assert!(fold.fold_appended(&prefix));
                assert_eq!(fold.rows(), cut);
            }
            assert!(fold.fold_appended(&full));
            let (s, c) = fold.finalize(&full);
            assert_eq!(bits(&s, &c), want, "cuts {cuts:?}");
        }
    }

    fn prefix_of(t: &Table, rows: usize) -> Table {
        let mut p = Table::new(t.name(), t.schema().clone());
        for i in 0..rows {
            p.push_row(t.row(i)).unwrap();
        }
        p
    }

    #[test]
    fn fold_refuses_tables_it_cannot_continue() {
        let t = table_with("d", DataType::Str, vec!["a".into(), "b".into()]);
        let mut fold = TableFold::new(&t, true);
        assert!(fold.fold_appended(&t));
        // Same strings, other codes: "b" interned first.
        let swapped = table_with("d", DataType::Str, vec!["b".into(), "a".into(), "c".into()]);
        assert!(!fold.fold_appended(&swapped));
        // Another schema.
        let other = table_with("d", DataType::Int64, vec![Value::Int(1); 3]);
        assert!(!fold.fold_appended(&other));
        // Fewer rows than folded.
        let shorter = table_with("d", DataType::Str, vec!["a".into()]);
        assert!(!fold.fold_appended(&shorter));
        assert_eq!(fold.rows(), 2, "a refused fold folds nothing");
        // An extended dictionary continues the fold.
        let longer = table_with("d", DataType::Str, vec!["a".into(), "b".into(), "c".into()]);
        assert!(fold.fold_appended(&longer));
        assert_eq!(
            bits(&fold.finalize(&longer).0, &[]),
            bits(&TableStats::collect(&longer), &[])
        );
    }
}
