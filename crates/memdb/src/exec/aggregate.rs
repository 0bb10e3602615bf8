//! Group-by aggregation kernels.
//!
//! The kernels are built around one idea that SeeDB's optimizer exploits:
//! a single scan can serve many logical queries at once. Each
//! [`AggRequest`] may carry its own row predicate (this is how a *target*
//! view — aggregate over the filtered subset — and a *comparison* view —
//! aggregate over everything — share one scan), and the scan kernel
//! maintains one hash table per grouping set so view queries with
//! different group-by attributes also share the scan.

use std::collections::HashMap;

use crate::column::StrDict;
use crate::error::{DbError, DbResult};
use crate::exec::exactsum::ExactSum;
use crate::expr::BoundExpr;
use crate::table::Table;
use crate::value::{DataType, Value};

/// Aggregate functions supported by the engine (SeeDB's `F`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Row count (`COUNT(*)` when the column is absent, else non-null count).
    Count,
    /// Sum of a numeric column.
    Sum,
    /// Mean of a numeric column.
    Avg,
    /// Minimum of a numeric column.
    Min,
    /// Maximum of a numeric column.
    Max,
}

impl AggFunc {
    /// SQL spelling.
    pub fn sql(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// All aggregate functions, in a stable order.
    pub fn all() -> [AggFunc; 5] {
        [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ]
    }
}

/// One aggregate to compute during a scan.
#[derive(Debug, Clone)]
pub struct AggRequest {
    /// The function.
    pub func: AggFunc,
    /// Input column index; `None` only for `COUNT(*)`.
    pub column: Option<usize>,
    /// Optional per-aggregate row predicate. Rows failing it contribute
    /// nothing to this aggregate (but still contribute to others). This is
    /// the mechanism behind SeeDB's combined target/comparison queries.
    pub predicate: Option<BoundExpr>,
}

/// Mergeable running state for one (group, aggregate) pair.
///
/// This is the unit of SeeDB's partitioned parallel execution: each
/// worker accumulates one `AggState` per (group, aggregate) over its row
/// range, and [`AggState::merge`] combines partitions. Because the sum
/// component is an [`ExactSum`] (order-independent exact summation) and
/// count/min/max are associative, merging per-partition states in any
/// partition shape finalizes to exactly the same [`Value`]s as one
/// sequential scan — the bit-for-bit guarantee behind
/// [`crate::parallel::run_partitioned`].
#[derive(Debug, Clone, Copy)]
pub struct AggState {
    count: u64,
    sum: ExactSum,
    min: f64,
    max: f64,
}

impl Default for AggState {
    fn default() -> Self {
        AggState::EMPTY
    }
}

impl AggState {
    /// The state before any row has contributed.
    pub const EMPTY: AggState = AggState {
        count: 0,
        sum: ExactSum::ZERO,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
    };

    /// Fold one value in.
    #[inline]
    pub fn update(&mut self, v: f64) {
        self.count += 1;
        self.sum.add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Fold one `COUNT(*)`-style contribution in (no value).
    #[inline]
    pub fn count_only(&mut self) {
        self.count += 1;
    }

    /// Combine another partition's state into this one. Uses the same
    /// strict comparisons as [`AggState::update`] so ties (notably
    /// `0.0` vs `-0.0`, which compare equal but differ in bits) keep
    /// the earlier operand — exactly the first-seen value a sequential
    /// scan keeps when partitions merge in ascending row order.
    pub fn merge(&mut self, other: &AggState) {
        self.count += other.count;
        self.sum.merge(&other.sum);
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Rows that contributed (non-null inputs passing the predicate).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The finalized value under `func` (`Null` for empty non-count
    /// states, per SQL semantics).
    pub fn finalize(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum.value())
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum.value() / self.count as f64)
                }
            }
            AggFunc::Min => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.min)
                }
            }
            AggFunc::Max => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.max)
                }
            }
        }
    }
}

/// Output of an aggregation scan for one grouping set: group labels plus
/// one finalized value per aggregate, sorted by group label.
#[derive(Debug, Clone, PartialEq)]
pub struct Grouped {
    /// One label tuple per group (the grouping-attribute values).
    pub keys: Vec<Vec<Value>>,
    /// `values[g][a]` = aggregate `a` for group `g`.
    pub values: Vec<Vec<Value>>,
}

impl Grouped {
    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.keys.len()
    }
}

/// Hashable group key: one part per grouping column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyPart {
    Null,
    U(u64),
}

#[inline]
fn key_part(table: &Table, col: usize, row: usize) -> KeyPart {
    // Dictionary code / raw bits — stable across appends (segments are
    // shared and the dictionary is append-only), so keys computed
    // against version v compare correctly against keys from any
    // append-descendant version v'.
    match table.column_at(col).key_bits(row) {
        None => KeyPart::Null,
        Some(bits) => KeyPart::U(bits),
    }
}

/// Per-grouping-set accumulator used inside a scan. Also the per-set
/// payload of a partial (unfinalized) execution: two `SetAcc`s built
/// over disjoint row ranges of the same table merge via
/// [`SetAcc::merge`].
#[derive(Debug, Clone)]
pub(crate) struct SetAcc {
    cols: Vec<usize>,
    /// Group key -> dense group index.
    index: HashMap<Vec<KeyPart>, u32>,
    /// Fast path: single dictionary-encoded string column; group index is
    /// `code + 1` (slot 0 is the null group), no hashing at all.
    fast_dict: Option<usize>,
    fast_slots: Vec<u32>, // code+1 -> group idx + 1 (0 = unseen)
    /// Representative row per group (for label materialization).
    rep_rows: Vec<u32>,
    /// `states[g * num_aggs + a]`.
    states: Vec<AggState>,
    num_aggs: usize,
}

impl SetAcc {
    fn new(table: &Table, cols: Vec<usize>, num_aggs: usize) -> Self {
        let fast_dict = if cols.len() == 1 {
            table.column_at(cols[0]).str_dict().map(StrDict::len)
        } else {
            None
        };
        let fast_slots = match fast_dict {
            Some(n) => vec![0u32; n + 1],
            None => Vec::new(),
        };
        SetAcc {
            cols,
            index: HashMap::new(),
            fast_dict: fast_dict.map(|_| 0),
            fast_slots,
            rep_rows: Vec::new(),
            states: Vec::new(),
            num_aggs,
        }
    }

    #[inline]
    fn group_index(&mut self, table: &Table, row: usize) -> usize {
        if self.fast_dict.is_some() {
            let col = self.cols[0];
            // Slot 0 is the null group; code `c` maps to slot `c + 1`.
            let slot = match table.column_at(col).code_at(row) {
                None => 0,
                Some(code) => code as usize + 1,
            };
            if slot >= self.fast_slots.len() {
                // Merging state built against an append-descendant
                // version whose dictionary grew past this accumulator's
                // sizing: grow the slot table on demand.
                self.fast_slots.resize(slot + 1, 0);
            }
            let entry = self.fast_slots[slot];
            if entry != 0 {
                return (entry - 1) as usize;
            }
            let g = self.rep_rows.len();
            self.fast_slots[slot] = g as u32 + 1;
            self.rep_rows.push(row as u32);
            self.states
                .extend(std::iter::repeat_n(AggState::EMPTY, self.num_aggs));
            return g;
        }
        let key: Vec<KeyPart> = self.cols.iter().map(|&c| key_part(table, c, row)).collect();
        if let Some(&g) = self.index.get(&key) {
            return g as usize;
        }
        let g = self.rep_rows.len();
        self.index.insert(key, g as u32);
        self.rep_rows.push(row as u32);
        self.states
            .extend(std::iter::repeat_n(AggState::EMPTY, self.num_aggs));
        g
    }

    /// Number of groups discovered so far.
    pub(crate) fn num_groups(&self) -> usize {
        self.rep_rows.len()
    }

    /// Grouping-attribute values of group `g` (materialized from its
    /// representative row).
    pub(crate) fn group_label(&self, g: usize, table: &Table) -> Vec<Value> {
        self.cols
            .iter()
            .map(|&c| table.column_at(c).get(self.rep_rows[g] as usize))
            .collect()
    }

    /// Per-aggregate states of group `g`, in aggregate order.
    pub(crate) fn group_states(&self, g: usize) -> &[AggState] {
        &self.states[g * self.num_aggs..(g + 1) * self.num_aggs]
    }

    /// Fold `other` (built over a different row range of the same
    /// `table`) into this accumulator. Groups are matched by key; keys
    /// are reconstructed from each group's representative row, so no
    /// extra per-group storage is needed. Iterating `other`'s groups in
    /// dense (first-seen) order keeps the merged group-creation order
    /// identical to a sequential scan when partitions are merged in
    /// ascending row order.
    fn merge(&mut self, other: &SetAcc, table: &Table) {
        debug_assert_eq!(self.cols, other.cols);
        debug_assert_eq!(self.num_aggs, other.num_aggs);
        for g in 0..other.rep_rows.len() {
            let row = other.rep_rows[g] as usize;
            let sg = self.group_index(table, row);
            let (dst, src) = (sg * self.num_aggs, g * self.num_aggs);
            for a in 0..self.num_aggs {
                self.states[dst + a].merge(&other.states[src + a]);
            }
            // Keep the earliest representative row (what a sequential
            // scan would have seen first).
            if row < self.rep_rows[sg] as usize {
                self.rep_rows[sg] = row as u32;
            }
        }
    }

    /// A copy of this accumulator keeping only the aggregates at
    /// `agg_indices` (in the given order). Group structure — keys,
    /// discovery order, representative rows — is aggregate-independent,
    /// so the projection is exactly the accumulator a scan computing
    /// only those aggregates over the same row domain would have built.
    pub(crate) fn project_aggs(&self, agg_indices: &[usize]) -> SetAcc {
        let mut states = Vec::with_capacity(self.rep_rows.len() * agg_indices.len());
        for g in 0..self.rep_rows.len() {
            let base = g * self.num_aggs;
            for &a in agg_indices {
                states.push(self.states[base + a]);
            }
        }
        SetAcc {
            cols: self.cols.clone(),
            index: self.index.clone(),
            fast_dict: self.fast_dict,
            fast_slots: self.fast_slots.clone(),
            rep_rows: self.rep_rows.clone(),
            states,
            num_aggs: agg_indices.len(),
        }
    }

    fn into_grouped(self, table: &Table, aggs: &[AggRequest]) -> Grouped {
        let mut order: Vec<usize> = (0..self.rep_rows.len()).collect();
        // Deterministic output: sort groups by label tuple.
        let labels: Vec<Vec<Value>> = self
            .rep_rows
            .iter()
            .map(|&r| {
                self.cols
                    .iter()
                    .map(|&c| table.column_at(c).get(r as usize))
                    .collect()
            })
            .collect();
        order.sort_by(|&a, &b| cmp_label_tuple(&labels[a], &labels[b]));
        let mut keys = Vec::with_capacity(order.len());
        let mut values = Vec::with_capacity(order.len());
        for &g in &order {
            keys.push(labels[g].clone());
            let base = g * self.num_aggs;
            values.push(
                aggs.iter()
                    .enumerate()
                    .map(|(a, req)| self.states[base + a].finalize(req.func))
                    .collect(),
            );
        }
        Grouped { keys, values }
    }
}

/// Total order over label tuples: NULL first, then by SQL comparison,
/// falling back to rendered text for cross-type labels.
pub(crate) fn cmp_label_tuple(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    for (x, y) in a.iter().zip(b.iter()) {
        let ord = match (x.is_null(), y.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => x.sql_cmp(y).unwrap_or_else(|| x.render().cmp(&y.render())),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

fn check_agg_types(table: &Table, aggs: &[AggRequest]) -> DbResult<()> {
    for req in aggs {
        match (req.func, req.column) {
            (AggFunc::Count, _) => {}
            (f, None) => {
                return Err(DbError::InvalidQuery(format!(
                    "{} requires a column argument",
                    f.sql()
                )))
            }
            (f, Some(c)) => {
                let dt = table.schema().column_at(c).dtype;
                if !dt.is_numeric() {
                    return Err(DbError::TypeMismatch {
                        expected: "numeric".to_string(),
                        found: dt.name().to_string(),
                        context: format!("{}({})", f.sql(), table.schema().column_at(c).name),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Scan `rows` of `table` once, accumulating every grouping set in
/// `sets` with every aggregate in `aggs`: one mergeable [`SetAcc`] per
/// grouping set, in input order. `rows` is the scan domain (e.g. all
/// rows, or a sample); per-aggregate predicates further restrict which
/// rows feed each aggregate. Partitioned execution runs this per row
/// range, merges the accumulators, and finalizes once.
///
/// # Errors
/// Type errors for non-numeric aggregate inputs, `InvalidQuery` for empty
/// `sets`/`aggs` or missing aggregate columns.
pub(crate) fn grouping_sets_scan_partial(
    table: &Table,
    rows: &[u32],
    sets: &[Vec<usize>],
    aggs: &[AggRequest],
) -> DbResult<Vec<SetAcc>> {
    if sets.is_empty() {
        return Err(DbError::InvalidQuery("no grouping sets".to_string()));
    }
    if aggs.is_empty() {
        return Err(DbError::InvalidQuery("no aggregates".to_string()));
    }
    check_agg_types(table, aggs)?;

    let mut accs: Vec<SetAcc> = sets
        .iter()
        .map(|cols| SetAcc::new(table, cols.clone(), aggs.len()))
        .collect();

    // Pre-evaluate per-aggregate predicates row-by-row inside the scan.
    for &r in rows {
        let row = r as usize;
        // Evaluate each aggregate's input once per row, shared across sets.
        // inputs[a] = Some(contribution) if the row feeds aggregate a.
        let mut inputs: Vec<Option<Option<f64>>> = Vec::with_capacity(aggs.len());
        for req in aggs {
            let passes = match &req.predicate {
                None => true,
                Some(p) => p.eval_bool(table, row) == Some(true),
            };
            if !passes {
                inputs.push(None);
                continue;
            }
            match req.column {
                None => inputs.push(Some(None)), // COUNT(*)
                Some(c) => {
                    let col = table.column_at(c);
                    match col.f64_at(row) {
                        Some(v) => inputs.push(Some(Some(v))),
                        // NULL input: does not feed the aggregate at all
                        // (SQL semantics: COUNT(col) skips nulls too).
                        None => inputs.push(None),
                    }
                }
            }
        }
        for acc in &mut accs {
            let g = acc.group_index(table, row);
            let base = g * aggs.len();
            for (a, input) in inputs.iter().enumerate() {
                match input {
                    None => {}
                    Some(None) => acc.states[base + a].count_only(),
                    Some(Some(v)) => acc.states[base + a].update(*v),
                }
            }
        }
    }

    Ok(accs)
}

/// Finalize per-set accumulators into sorted [`Grouped`] outputs.
pub(crate) fn finalize_accs(accs: Vec<SetAcc>, table: &Table, aggs: &[AggRequest]) -> Vec<Grouped> {
    accs.into_iter()
        .map(|acc| acc.into_grouped(table, aggs))
        .collect()
}

/// Merge per-set accumulators from two partitions (pairwise, in set
/// order). Both must come from the same table, sets, and aggregates.
pub(crate) fn merge_accs(into: &mut [SetAcc], from: &[SetAcc], table: &Table) {
    debug_assert_eq!(into.len(), from.len());
    for (a, b) in into.iter_mut().zip(from) {
        a.merge(b, table);
    }
}

/// Data type of an aggregate's output.
pub fn agg_output_type(func: AggFunc) -> DataType {
    match func {
        AggFunc::Count => DataType::Int64,
        _ => DataType::Float64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::schema::{ColumnDef, Schema};
    use crate::value::DataType;

    fn sales() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::dimension("store", DataType::Str),
            ColumnDef::dimension("product", DataType::Str),
            ColumnDef::measure("amount", DataType::Float64),
            ColumnDef::measure("qty", DataType::Int64),
        ])
        .unwrap();
        let mut t = Table::new("sales", schema);
        let rows = [
            ("MA", "Laserwave", 10.0, 1),
            ("MA", "Saberwave", 20.0, 2),
            ("WA", "Laserwave", 30.0, 3),
            ("WA", "Laserwave", 40.0, 4),
            ("NY", "Saberwave", 50.0, 5),
        ];
        for (s, p, a, q) in rows {
            t.push_row(vec![s.into(), p.into(), a.into(), Value::Int(q)])
                .unwrap();
        }
        t
    }

    fn all_rows(t: &Table) -> Vec<u32> {
        (0..t.num_rows() as u32).collect()
    }

    fn scan_sets(
        t: &Table,
        rows: &[u32],
        sets: &[Vec<usize>],
        aggs: &[AggRequest],
    ) -> DbResult<Vec<Grouped>> {
        let accs = grouping_sets_scan_partial(t, rows, sets, aggs)?;
        Ok(finalize_accs(accs, t, aggs))
    }

    fn scan_one(t: &Table, rows: &[u32], cols: &[usize], aggs: &[AggRequest]) -> DbResult<Grouped> {
        let mut out = scan_sets(t, rows, &[cols.to_vec()], aggs)?;
        Ok(out.remove(0))
    }

    #[test]
    fn sum_by_store() {
        let t = sales();
        let aggs = [AggRequest {
            func: AggFunc::Sum,
            column: Some(2),
            predicate: None,
        }];
        let g = scan_one(&t, &all_rows(&t), &[0], &aggs).unwrap();
        assert_eq!(
            g.keys,
            vec![
                vec![Value::from("MA")],
                vec![Value::from("NY")],
                vec![Value::from("WA")],
            ]
        );
        assert_eq!(
            g.values,
            vec![
                vec![Value::Float(30.0)],
                vec![Value::Float(50.0)],
                vec![Value::Float(70.0)],
            ]
        );
    }

    #[test]
    fn count_star_and_count_col() {
        let t = sales();
        let aggs = [
            AggRequest {
                func: AggFunc::Count,
                column: None,
                predicate: None,
            },
            AggRequest {
                func: AggFunc::Count,
                column: Some(2),
                predicate: None,
            },
        ];
        let g = scan_one(&t, &all_rows(&t), &[1], &aggs).unwrap();
        // Laserwave: 3 rows, Saberwave: 2 rows.
        assert_eq!(g.values[0], vec![Value::Int(3), Value::Int(3)]);
        assert_eq!(g.values[1], vec![Value::Int(2), Value::Int(2)]);
    }

    #[test]
    fn avg_min_max() {
        let t = sales();
        let aggs: Vec<AggRequest> = [AggFunc::Avg, AggFunc::Min, AggFunc::Max]
            .iter()
            .map(|&f| AggRequest {
                func: f,
                column: Some(2),
                predicate: None,
            })
            .collect();
        let g = scan_one(&t, &all_rows(&t), &[1], &aggs).unwrap();
        // Laserwave amounts: 10, 30, 40.
        assert_eq!(
            g.values[0],
            vec![
                Value::Float(80.0 / 3.0),
                Value::Float(10.0),
                Value::Float(40.0)
            ]
        );
    }

    #[test]
    fn predicate_splits_target_and_comparison() {
        let t = sales();
        let filter = Expr::col("product")
            .eq("Laserwave")
            .bind(t.schema())
            .unwrap();
        let aggs = [
            // target: SUM(amount) over Laserwave rows only
            AggRequest {
                func: AggFunc::Sum,
                column: Some(2),
                predicate: Some(filter),
            },
            // comparison: SUM(amount) over all rows
            AggRequest {
                func: AggFunc::Sum,
                column: Some(2),
                predicate: None,
            },
        ];
        let g = scan_one(&t, &all_rows(&t), &[0], &aggs).unwrap();
        // MA: target 10 (one Laserwave row), comparison 30.
        assert_eq!(g.values[0], vec![Value::Float(10.0), Value::Float(30.0)]);
        // NY: no Laserwave rows -> NULL target, comparison 50.
        assert_eq!(g.values[1], vec![Value::Null, Value::Float(50.0)]);
        // WA: target 70, comparison 70.
        assert_eq!(g.values[2], vec![Value::Float(70.0), Value::Float(70.0)]);
    }

    #[test]
    fn multiple_grouping_sets_one_scan() {
        let t = sales();
        let aggs = [AggRequest {
            func: AggFunc::Sum,
            column: Some(2),
            predicate: None,
        }];
        let out = scan_sets(&t, &all_rows(&t), &[vec![0], vec![1]], &aggs).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].num_groups(), 3); // stores
        assert_eq!(out[1].num_groups(), 2); // products
        assert_eq!(out[1].values[0], vec![Value::Float(80.0)]); // Laserwave
    }

    #[test]
    fn multi_column_grouping() {
        let t = sales();
        let aggs = [AggRequest {
            func: AggFunc::Count,
            column: None,
            predicate: None,
        }];
        let g = scan_one(&t, &all_rows(&t), &[0, 1], &aggs).unwrap();
        assert_eq!(g.num_groups(), 4); // (MA,L), (MA,S), (NY,S), (WA,L)
        assert_eq!(g.keys[0], vec![Value::from("MA"), Value::from("Laserwave")]);
    }

    #[test]
    fn restricted_row_domain() {
        let t = sales();
        let aggs = [AggRequest {
            func: AggFunc::Sum,
            column: Some(2),
            predicate: None,
        }];
        // Only rows 0 and 4.
        let g = scan_one(&t, &[0, 4], &[0], &aggs).unwrap();
        assert_eq!(g.num_groups(), 2);
        assert_eq!(g.keys[0], vec![Value::from("MA")]);
        assert_eq!(g.values[0], vec![Value::Float(10.0)]);
    }

    #[test]
    fn nulls_form_their_own_group_and_sort_first() {
        let schema = Schema::new(vec![
            ColumnDef::dimension("d", DataType::Str),
            ColumnDef::measure("m", DataType::Float64),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        t.push_row(vec![Value::Null, 1.0.into()]).unwrap();
        t.push_row(vec!["a".into(), 2.0.into()]).unwrap();
        t.push_row(vec![Value::Null, 3.0.into()]).unwrap();
        let aggs = [AggRequest {
            func: AggFunc::Sum,
            column: Some(1),
            predicate: None,
        }];
        let g = scan_one(&t, &all_rows(&t), &[0], &aggs).unwrap();
        assert_eq!(g.num_groups(), 2);
        assert_eq!(g.keys[0], vec![Value::Null]);
        assert_eq!(g.values[0], vec![Value::Float(4.0)]);
    }

    #[test]
    fn null_measures_skipped_by_aggregates() {
        let schema = Schema::new(vec![
            ColumnDef::dimension("d", DataType::Str),
            ColumnDef::measure("m", DataType::Float64),
        ])
        .unwrap();
        let mut t = Table::new("t", schema);
        t.push_row(vec!["a".into(), 2.0.into()]).unwrap();
        t.push_row(vec!["a".into(), Value::Null]).unwrap();
        let aggs = [
            AggRequest {
                func: AggFunc::Count,
                column: Some(1),
                predicate: None,
            },
            AggRequest {
                func: AggFunc::Count,
                column: None,
                predicate: None,
            },
            AggRequest {
                func: AggFunc::Avg,
                column: Some(1),
                predicate: None,
            },
        ];
        let g = scan_one(&t, &all_rows(&t), &[0], &aggs).unwrap();
        assert_eq!(
            g.values[0],
            vec![Value::Int(1), Value::Int(2), Value::Float(2.0)]
        );
    }

    #[test]
    fn sum_over_string_rejected() {
        let t = sales();
        let aggs = [AggRequest {
            func: AggFunc::Sum,
            column: Some(0),
            predicate: None,
        }];
        assert!(scan_one(&t, &all_rows(&t), &[1], &aggs).is_err());
    }

    #[test]
    fn empty_sets_rejected() {
        let t = sales();
        let aggs = [AggRequest {
            func: AggFunc::Count,
            column: None,
            predicate: None,
        }];
        assert!(scan_sets(&t, &all_rows(&t), &[], &aggs).is_err());
        assert!(scan_sets(&t, &all_rows(&t), &[vec![0]], &[]).is_err());
    }

    #[test]
    fn empty_group_by_is_global_aggregate() {
        let t = sales();
        let aggs = [AggRequest {
            func: AggFunc::Sum,
            column: Some(2),
            predicate: None,
        }];
        let g = scan_one(&t, &all_rows(&t), &[], &aggs).unwrap();
        assert_eq!(g.num_groups(), 1);
        assert_eq!(g.keys[0], Vec::<Value>::new());
        assert_eq!(g.values[0], vec![Value::Float(150.0)]);
    }

    #[test]
    fn group_by_int_column() {
        let t = sales();
        let aggs = [AggRequest {
            func: AggFunc::Count,
            column: None,
            predicate: None,
        }];
        let g = scan_one(&t, &all_rows(&t), &[3], &aggs).unwrap();
        assert_eq!(g.num_groups(), 5);
        assert_eq!(g.keys[0], vec![Value::Int(1)]);
    }
}
