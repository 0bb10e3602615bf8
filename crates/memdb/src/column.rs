//! Typed, dictionary-encoded, *segmented* columnar storage.
//!
//! Each [`Column`] is an ordered list of immutable [`ColumnSegment`]s
//! behind `Arc`s plus an optional validity mask per segment (absent =
//! no nulls). Strings
//! are dictionary-encoded: segments store `u32` codes into a per-column
//! dictionary shared by all segments, which makes group-by keys and
//! correlation statistics cheap. The dictionary is extended
//! copy-on-write when rows are appended, so codes in shared (older)
//! segments stay valid in every snapshot that references them.
//!
//! Mutation model: [`Column::push`] writes into an *open* tail segment;
//! sealing (crate-internal, done by tables) freezes it so the next push
//! starts a new segment. Tables seal their columns when registered with
//! a database and around every append, which is what lets table
//! versions share segments.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::{DbError, DbResult};
use crate::segment::{ColumnSegment, SegmentData};
use crate::value::{DataType, Value};

pub use crate::segment::Validity;

/// Dictionary for string columns: bidirectional mapping between strings
/// and dense `u32` codes.
#[derive(Debug, Clone, Default)]
pub struct StrDict {
    values: Vec<String>,
    index: HashMap<String, u32>,
}

impl StrDict {
    /// Intern `s`, returning its code.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&c) = self.index.get(s) {
            return c;
        }
        let code = self.values.len() as u32;
        self.values.push(s.to_string());
        self.index.insert(s.to_string(), code);
        code
    }

    /// Look up a code without interning.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// The string for `code`.
    pub fn value(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Append one entry with the next sequential code (the durable
    /// store's dictionary-rebuild path). Returns `None` if the entry is
    /// already interned — codes would misalign, so the caller treats
    /// that as corruption.
    pub(crate) fn push_entry(&mut self, s: String) -> Option<u32> {
        if self.index.contains_key(&s) {
            return None;
        }
        let code = self.values.len() as u32;
        self.values.push(s.clone());
        self.index.insert(s, code);
        Some(code)
    }

    /// True if no strings are interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// True if `earlier`'s codes mean the same strings here: this
    /// dictionary is `earlier` with zero or more entries appended.
    pub(crate) fn extends(&self, earlier: &StrDict) -> bool {
        self.values.get(..earlier.values.len()) == Some(&earlier.values[..])
    }
}

/// A single logical column: typed, segmented storage.
///
/// Cloning is cheap (segments are shared behind `Arc`); a clone that is
/// subsequently pushed to copies only its open tail segment and, for
/// string columns, extends its dictionary copy-on-write — the original
/// column (and any snapshot sharing its segments) is never disturbed.
#[derive(Debug, Clone)]
pub struct Column {
    dtype: DataType,
    /// Sealed + open segments, in row order.
    segments: Vec<Arc<ColumnSegment>>,
    /// `starts[i]` = first logical row id of `segments[i]`.
    starts: Vec<usize>,
    /// Total rows across all segments.
    len: usize,
    /// Whether the last segment still accepts pushes.
    open: bool,
    /// Shared dictionary (string columns only).
    dict: Option<Arc<StrDict>>,
}

impl Column {
    /// An empty column of the given type.
    pub fn new(dtype: DataType) -> Self {
        Column {
            dtype,
            segments: Vec::new(),
            starts: Vec::new(),
            len: 0,
            open: false,
            dict: match dtype {
                DataType::Str => Some(Arc::new(StrDict::default())),
                _ => None,
            },
        }
    }

    /// An empty column with pre-reserved capacity in its first segment.
    pub fn with_capacity(dtype: DataType, cap: usize) -> Self {
        let mut c = Column::new(dtype);
        c.segments
            .push(Arc::new(ColumnSegment::with_capacity(dtype, cap)));
        c.starts.push(0);
        c.open = true;
        c
    }

    /// Rebuild a sealed column from stored segments (the durable
    /// store's reconstruction path). `starts` are derived from segment
    /// lengths; the column is sealed (the next push opens a fresh
    /// segment), exactly like a registered table's column.
    pub(crate) fn from_parts(
        dtype: DataType,
        segments: Vec<Arc<ColumnSegment>>,
        dict: Option<Arc<StrDict>>,
    ) -> Column {
        let mut starts = Vec::with_capacity(segments.len());
        let mut len = 0usize;
        for seg in &segments {
            starts.push(len);
            len += seg.len();
        }
        Column {
            dtype,
            segments,
            starts,
            len,
            open: false,
            dict,
        }
    }

    /// This column's data type.
    pub fn data_type(&self) -> DataType {
        self.dtype
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of segments (sealed plus the open tail, if any).
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// The segments in row order, each with its starting logical row id.
    /// This is the scan surface for segment-at-a-time loops (statistics,
    /// delta scans): `start + local index` recovers the logical row id.
    pub fn segments(&self) -> impl Iterator<Item = (usize, &ColumnSegment)> {
        self.starts
            .iter()
            .copied()
            .zip(self.segments.iter().map(Arc::as_ref))
    }

    /// Seal the open tail segment (if any): the next push starts a new
    /// segment. Idempotent. Called by tables when they are registered
    /// and around appends, so segment boundaries align with published
    /// table versions.
    pub(crate) fn seal(&mut self) {
        self.open = false;
    }

    /// Locate logical row `i`: the segment holding it plus the local
    /// index within that segment.
    #[inline]
    fn locate(&self, i: usize) -> (&ColumnSegment, usize) {
        if self.segments.len() == 1 {
            // Overwhelmingly common case: a table built in one shot.
            return (&self.segments[0], i);
        }
        let s = self.starts.partition_point(|&st| st <= i) - 1;
        (&self.segments[s], i - self.starts[s])
    }

    /// Number of null rows.
    pub fn null_count(&self) -> usize {
        self.segments.iter().map(|s| s.null_count()).sum()
    }

    /// Is row `i` non-null? Rows beyond the column are valid (mirroring
    /// the validity mask's semantics for unrecorded rows).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        if i >= self.len {
            return true;
        }
        let (seg, local) = self.locate(i);
        seg.is_valid(local)
    }

    /// Append a value, checking its type against the column's.
    ///
    /// # Errors
    /// `TypeMismatch` if the value's type differs from the column type
    /// (ints are accepted into float columns and widened).
    pub fn push(&mut self, v: Value) -> DbResult<()> {
        let mismatch = |found: &Value, expected: DataType| DbError::TypeMismatch {
            expected: expected.name().to_string(),
            found: found
                .data_type()
                .map(|t| t.name().to_string())
                .unwrap_or_else(|| "null".to_string()),
            context: "column push".to_string(),
        };
        // Type-check (and intern) before touching the tail segment so a
        // rejected push leaves the column untouched.
        enum Typed {
            Null,
            Int(i64),
            Float(f64),
            Code(u32),
            Bool(bool),
        }
        let typed = match (self.dtype, v) {
            (_, Value::Null) => Typed::Null,
            (DataType::Int64, Value::Int(i)) => Typed::Int(i),
            (DataType::Float64, Value::Float(f)) => Typed::Float(f),
            (DataType::Float64, Value::Int(i)) => Typed::Float(i as f64),
            (DataType::Str, Value::Str(s)) => {
                let dict = self.dict.as_mut().expect("string columns carry a dict");
                Typed::Code(Arc::make_mut(dict).intern(&s))
            }
            (DataType::Bool, Value::Bool(b)) => Typed::Bool(b),
            (expected, other) => return Err(mismatch(&other, expected)),
        };
        if !self.open {
            self.segments.push(Arc::new(ColumnSegment::new(self.dtype)));
            self.starts.push(self.len);
            self.open = true;
        }
        let seg = Arc::make_mut(self.segments.last_mut().expect("open tail exists"));
        match typed {
            Typed::Null => seg.push_null(),
            Typed::Int(i) => seg.push_int(i),
            Typed::Float(f) => seg.push_float(f),
            Typed::Code(c) => seg.push_code(c),
            Typed::Bool(b) => seg.push_bool(b),
        }
        self.len += 1;
        Ok(())
    }

    /// Materialize row `i` as a [`Value`].
    pub fn get(&self, i: usize) -> Value {
        let (seg, local) = self.locate(i);
        seg.value_at(local, self.dict.as_deref())
    }

    /// Numeric view of row `i`: `None` when null or non-numeric.
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        let (seg, local) = self.locate(i);
        seg.f64_at(local)
    }

    /// Dictionary code of row `i` for string columns (`None` when null
    /// or non-string).
    #[inline]
    pub fn code_at(&self, i: usize) -> Option<u32> {
        let (seg, local) = self.locate(i);
        seg.code_at(local)
    }

    /// A 64-bit grouping key for row `i` (`None` when null): dictionary
    /// code for strings, raw bits for ints/floats/bools. Stable across
    /// appends — shared segments and the append-only dictionary keep
    /// old rows' bits unchanged in every descendant version.
    #[inline]
    pub fn key_bits(&self, i: usize) -> Option<u64> {
        let (seg, local) = self.locate(i);
        seg.key_bits(local)
    }

    /// Dictionary accessor for string columns.
    pub fn str_dict(&self) -> Option<&StrDict> {
        self.dict.as_deref()
    }

    /// The shared dictionary handle (string columns only), for state
    /// that must later tell whether a descendant version's dictionary
    /// still extends this one.
    pub(crate) fn shared_dict(&self) -> Option<&Arc<StrDict>> {
        self.dict.as_ref()
    }

    /// Number of distinct non-null values.
    ///
    /// For string columns without nulls this is the dictionary size
    /// (exact: every interned string is stored by some segment of this
    /// column's lineage). Other cases scan the segments.
    pub fn distinct_count(&self) -> usize {
        match self.dtype {
            DataType::Str => {
                let dict_len = self.dict.as_ref().map_or(0, |d| d.len());
                if self.null_count() == 0 {
                    return dict_len;
                }
                let mut seen = vec![false; dict_len];
                let mut n = 0;
                for (_, seg) in self.segments() {
                    if let SegmentData::Str(codes) = seg.data() {
                        for (i, &c) in codes.iter().enumerate() {
                            if seg.is_valid(i) && !seen[c as usize] {
                                seen[c as usize] = true;
                                n += 1;
                            }
                        }
                    }
                }
                n
            }
            DataType::Int64 => {
                let mut set: std::collections::HashSet<i64> = std::collections::HashSet::new();
                for (_, seg) in self.segments() {
                    if let SegmentData::Int64(data) = seg.data() {
                        for (i, &v) in data.iter().enumerate() {
                            if seg.is_valid(i) {
                                set.insert(v);
                            }
                        }
                    }
                }
                set.len()
            }
            DataType::Float64 => {
                let mut set: std::collections::HashSet<u64> = std::collections::HashSet::new();
                for (_, seg) in self.segments() {
                    if let SegmentData::Float64(data) = seg.data() {
                        for (i, &v) in data.iter().enumerate() {
                            if seg.is_valid(i) {
                                set.insert(v.to_bits());
                            }
                        }
                    }
                }
                set.len()
            }
            DataType::Bool => {
                let mut t = false;
                let mut f = false;
                for (_, seg) in self.segments() {
                    if let SegmentData::Bool(data) = seg.data() {
                        for (i, &v) in data.iter().enumerate() {
                            if seg.is_valid(i) {
                                if v {
                                    t = true;
                                } else {
                                    f = true;
                                }
                            }
                        }
                    }
                }
                t as usize + f as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip_with_nulls() {
        let mut c = Column::new(DataType::Int64);
        c.push(Value::Int(5)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(7)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(5));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int(7));
        assert_eq!(c.null_count(), 1);
    }

    #[test]
    fn float_accepts_int_widening() {
        let mut c = Column::new(DataType::Float64);
        c.push(Value::Int(2)).unwrap();
        assert_eq!(c.get(0), Value::Float(2.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::new(DataType::Int64);
        assert!(c.push(Value::from("x")).is_err());
        let mut c = Column::new(DataType::Str);
        assert!(c.push(Value::Int(1)).is_err());
    }

    #[test]
    fn string_dictionary_shared_codes() {
        let mut c = Column::new(DataType::Str);
        for s in ["MA", "WA", "MA", "NY", "MA"] {
            c.push(Value::from(s)).unwrap();
        }
        let codes: Vec<u32> = (0..c.len()).map(|i| c.code_at(i).unwrap()).collect();
        assert_eq!(codes, vec![0, 1, 0, 2, 0]);
        assert_eq!(c.str_dict().unwrap().len(), 3);
        assert_eq!(c.get(3), Value::from("NY"));
    }

    #[test]
    fn distinct_counts() {
        let mut c = Column::new(DataType::Str);
        for s in ["a", "b", "a"] {
            c.push(Value::from(s)).unwrap();
        }
        assert_eq!(c.distinct_count(), 2);

        let mut c = Column::new(DataType::Int64);
        for v in [1, 2, 2, 3] {
            c.push(Value::Int(v)).unwrap();
        }
        c.push(Value::Null).unwrap();
        assert_eq!(c.distinct_count(), 3);

        let mut c = Column::new(DataType::Bool);
        c.push(Value::Bool(true)).unwrap();
        c.push(Value::Bool(true)).unwrap();
        assert_eq!(c.distinct_count(), 1);
    }

    #[test]
    fn validity_lazy_allocation() {
        let mut c = Column::new(DataType::Int64);
        c.push(Value::Int(1)).unwrap();
        c.push(Value::Int(2)).unwrap();
        assert_eq!(c.null_count(), 0);
        c.push(Value::Null).unwrap();
        assert_eq!(c.null_count(), 1);
        assert!(c.is_valid(0));
        assert!(!c.is_valid(2));
    }

    #[test]
    fn f64_at_views() {
        let mut c = Column::new(DataType::Int64);
        c.push(Value::Int(4)).unwrap();
        c.push(Value::Null).unwrap();
        assert_eq!(c.f64_at(0), Some(4.0));
        assert_eq!(c.f64_at(1), None);
        let mut s = Column::new(DataType::Str);
        s.push(Value::from("x")).unwrap();
        assert_eq!(s.f64_at(0), None);
    }

    #[test]
    fn seal_splits_segments_and_access_spans_them() {
        let mut c = Column::new(DataType::Str);
        for s in ["a", "b"] {
            c.push(Value::from(s)).unwrap();
        }
        c.seal();
        for s in ["b", "c"] {
            c.push(Value::from(s)).unwrap();
        }
        assert_eq!(c.num_segments(), 2);
        assert_eq!(c.len(), 4);
        // Codes stay consistent across segments (shared dictionary).
        assert_eq!(c.code_at(1), c.code_at(2));
        assert_eq!(c.get(3), Value::from("c"));
        assert_eq!(c.distinct_count(), 3);
        let starts: Vec<usize> = c.segments().map(|(s, _)| s).collect();
        assert_eq!(starts, vec![0, 2]);
    }

    #[test]
    fn clone_then_push_never_disturbs_the_original() {
        let mut a = Column::new(DataType::Str);
        for s in ["x", "y"] {
            a.push(Value::from(s)).unwrap();
        }
        a.seal();
        let mut b = a.clone();
        b.push(Value::from("z")).unwrap();
        // The original is untouched: same length, same dict.
        assert_eq!(a.len(), 2);
        assert_eq!(a.str_dict().unwrap().len(), 2);
        // The clone extended its own copy-on-write dictionary, keeping
        // shared codes stable.
        assert_eq!(b.len(), 3);
        assert_eq!(b.str_dict().unwrap().len(), 3);
        assert_eq!(a.code_at(0), b.code_at(0));
        assert_eq!(b.get(2), Value::from("z"));
    }

    #[test]
    fn key_bits_stable_across_segments() {
        let mut c = Column::new(DataType::Float64);
        c.push(Value::Float(1.5)).unwrap();
        c.seal();
        c.push(Value::Float(1.5)).unwrap();
        c.push(Value::Null).unwrap();
        assert_eq!(c.key_bits(0), c.key_bits(1));
        assert_eq!(c.key_bits(2), None);
    }
}
