//! The Optimizer (paper Fig. 4 / §3.3, "View Query Optimizations").
//!
//! "The Optimizer module determines the best way to combine view queries
//! intelligently so that the total execution time is minimized." The
//! rewrites, each independently toggleable for ablation:
//!
//! * **Combine target and comparison view query** — one scan computes both
//!   sides; the target aggregate carries the analyst's predicate as a
//!   per-aggregate filter. "This simple optimization halves the time
//!   required to compute the results for a single view."
//! * **Combine multiple aggregates** — view queries sharing a group-by
//!   attribute merge into one query. "Speed up linear in the number of
//!   aggregate attributes."
//! * **Combine multiple group-bys** — queries with different group-by
//!   attributes merge, either via native GROUPING SETS
//!   ([`GroupByCombining::GroupingSets`]) or via a single multi-attribute
//!   group-by whose result the backend rolls up
//!   ([`GroupByCombining::MultiGroupBy`]). Which attributes may share a
//!   query is a bin-packing problem over estimated group cardinalities
//!   under a working-memory budget ([`crate::packing`]).
//! * **Sampling** — run every view query against a sample
//!   ([`memdb::SampleSpec`]).
//! * **Parallel query execution** — issue the planned queries over a
//!   worker pool.

use std::collections::HashMap;

use memdb::{AggFunc, AggSpec, LogicalPlan, SampleSpec};

use crate::metadata::Metadata;
use crate::querygen::{direct_alias, view_agg, AnalystQuery, Side};
use crate::view::ViewSpec;

/// How (and whether) to combine queries with different group-by
/// attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupByCombining {
    /// One query (or target/comparison pair) per grouping attribute.
    Off,
    /// Merge attributes into shared-scan GROUPING SETS queries
    /// ("if the SQL GROUPING SETS functionality is available in the
    /// underlying DBMS, SEEDB can leverage that"). Memory cost of a
    /// combined query ≈ *sum* of the attributes' group cardinalities.
    GroupingSets,
    /// Merge attributes into a single multi-attribute group-by
    /// (`GROUP BY a1, a2, ...`) and post-process (roll up) at the
    /// backend. Memory cost ≈ *product* of cardinalities, so the packing
    /// is over log-weights.
    MultiGroupBy,
}

/// Optimizer configuration. [`OptimizerConfig::basic`] reproduces the
/// paper's Basic Framework; [`OptimizerConfig::all_optimizations`] turns
/// everything on.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Combine target and comparison into one query.
    pub combine_target_comparison: bool,
    /// Combine aggregates sharing a group-by attribute into one query.
    /// Implied by any group-by combining.
    pub combine_aggregates: bool,
    /// Group-by combining strategy.
    pub group_by_combining: GroupByCombining,
    /// Working-memory budget: maximum estimated groups resident per
    /// combined query (bin capacity for the packing problem).
    pub memory_budget_groups: u64,
    /// Optional sampling applied to every planned query.
    pub sample: Option<SampleSpec>,
    /// Suggested worker threads for callers executing the resulting
    /// [`ExecutionPlan`] directly via [`memdb::run_batch`]
    /// (1 = sequential). **Not consulted by the engine**: the worker
    /// count of [`crate::engine::SeeDb::recommend`] comes from
    /// [`crate::config::SeeDbConfig::execution`].
    pub parallelism: usize,
}

impl OptimizerConfig {
    /// The paper's Basic Framework: every view query runs independently,
    /// target and comparison separately, sequentially, unsampled.
    pub fn basic() -> Self {
        OptimizerConfig {
            combine_target_comparison: false,
            combine_aggregates: false,
            group_by_combining: GroupByCombining::Off,
            memory_budget_groups: u64::MAX,
            sample: None,
            parallelism: 1,
        }
    }

    /// All sharing optimizations on (no sampling — that trades accuracy
    /// and is opt-in), grouping-sets combining, parallel execution.
    pub fn all_optimizations() -> Self {
        OptimizerConfig {
            combine_target_comparison: true,
            combine_aggregates: true,
            group_by_combining: GroupByCombining::GroupingSets,
            memory_budget_groups: 100_000,
            sample: None,
            parallelism: num_workers(),
        }
    }

    /// Whether aggregate combining is effectively on (group-by combining
    /// implies it: a shared scan computes all its aggregates anyway).
    pub fn aggregates_combined(&self) -> bool {
        self.combine_aggregates || self.group_by_combining != GroupByCombining::Off
    }
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig::all_optimizations()
    }
}

/// A sensible default worker count.
pub fn num_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

/// How a view's aggregate value is recovered from a planned query's
/// result.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueSource {
    /// Read this output column directly (result grouped exactly by the
    /// view's dimension).
    Column(String),
    /// The result is grouped by several attributes; marginalize rows over
    /// the view's dimension using these component columns.
    Rollup(RollupCols),
}

/// Component columns for backend roll-up. `AVG` marginalizes via
/// `SUM`/`COUNT`; other functions need only their own component.
#[derive(Debug, Clone, PartialEq)]
pub struct RollupCols {
    /// The view's aggregate function.
    pub func: AggFunc,
    /// Column holding per-fine-group `SUM(m)` (for `SUM`/`AVG`).
    pub sum: Option<String>,
    /// Column holding per-fine-group `COUNT` (for `COUNT`/`AVG`).
    pub count: Option<String>,
    /// Column holding per-fine-group `MIN(m)` (for `MIN`).
    pub min: Option<String>,
    /// Column holding per-fine-group `MAX(m)` (for `MAX`).
    pub max: Option<String>,
}

/// Instructions for recovering one side of one view from a planned
/// query's output.
#[derive(Debug, Clone, PartialEq)]
pub struct Extract {
    /// Index into the candidate view list.
    pub view_index: usize,
    /// Which result set of the query output: the grouping-set index
    /// (0 for single-grouping queries).
    pub result_index: usize,
    /// Target or comparison side.
    pub side: Side,
    /// Output column holding the view's dimension labels.
    pub dim_col: String,
    /// How to obtain the aggregate values.
    pub source: ValueSource,
}

/// One query the DBMS will run — a typed logical plan plus instructions
/// for recovering view distributions from its output.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The logical plan (lowered and executed by the DBMS layer).
    pub plan: LogicalPlan,
    /// How view distributions are recovered from its output.
    pub extracts: Vec<Extract>,
}

/// The optimizer's output: a set of queries covering every candidate
/// view's target and comparison distribution.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Queries to execute (order is free; they are independent).
    pub queries: Vec<PlannedQuery>,
    /// Number of candidate views covered.
    pub num_views: usize,
    /// Suggested worker threads for direct [`memdb::run_batch`] callers
    /// (the engine takes its worker count from
    /// [`crate::config::SeeDbConfig::execution`] instead).
    pub parallelism: usize,
}

impl ExecutionPlan {
    /// Number of DBMS queries in the plan.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }
}

/// Build the execution plan for `views` under `config`.
///
/// Every view yields exactly one target and one comparison extract across
/// the plan. Cardinality estimates come from `metadata`; a dimension
/// missing from the stats is assumed to have cardinality 100.
pub fn plan(
    views: &[ViewSpec],
    analyst: &AnalystQuery,
    metadata: &Metadata,
    config: &OptimizerConfig,
) -> ExecutionPlan {
    // Group views by dimension, preserving first-seen dimension order.
    let mut dims: Vec<String> = Vec::new();
    let mut by_dim: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, v) in views.iter().enumerate() {
        if !by_dim.contains_key(&v.dimension) {
            dims.push(v.dimension.clone());
        }
        by_dim.entry(v.dimension.clone()).or_default().push(i);
    }

    let cardinality = |d: &str| -> u64 {
        metadata
            .stats
            .column(d)
            .map(|s| s.distinct.max(1) as u64)
            .unwrap_or(100)
    };

    // Partition dimensions into query bins.
    let bins: Vec<Vec<String>> = match config.group_by_combining {
        GroupByCombining::Off => dims.iter().map(|d| vec![d.clone()]).collect(),
        GroupByCombining::GroupingSets => {
            let weights: Vec<u64> = dims.iter().map(|d| cardinality(d)).collect();
            crate::packing::pack(&weights, config.memory_budget_groups)
                .into_iter()
                .map(|bin| bin.into_iter().map(|i| dims[i].clone()).collect())
                .collect()
        }
        GroupByCombining::MultiGroupBy => {
            // Product ≤ budget ⇔ sum of logs ≤ log(budget). Scale logs to
            // integer milli-bits for the packer.
            const SCALE: f64 = 1000.0;
            let weights: Vec<u64> = dims
                .iter()
                .map(|d| ((cardinality(d) as f64).log2().max(0.0) * SCALE).ceil() as u64)
                .collect();
            let capacity = if config.memory_budget_groups == u64::MAX {
                u64::MAX
            } else {
                ((config.memory_budget_groups.max(1) as f64).log2() * SCALE).floor() as u64
            };
            crate::packing::pack(&weights, capacity)
                .into_iter()
                .map(|bin| bin.into_iter().map(|i| dims[i].clone()).collect())
                .collect()
        }
    };

    let mut queries: Vec<PlannedQuery> = Vec::new();
    for bin in bins {
        // Views in this bin.
        let view_indices: Vec<usize> = bin.iter().flat_map(|d| by_dim[d].iter().copied()).collect();

        // Aggregate-sharing units: all views at once, or one per view.
        let units: Vec<Vec<usize>> = if config.aggregates_combined() {
            vec![view_indices]
        } else {
            view_indices.into_iter().map(|i| vec![i]).collect()
        };

        for unit in units {
            if config.combine_target_comparison {
                queries.push(build_query(
                    &bin,
                    &unit,
                    views,
                    analyst,
                    &[Side::Target, Side::Comparison],
                    config,
                ));
            } else {
                queries.push(build_query(
                    &bin,
                    &unit,
                    views,
                    analyst,
                    &[Side::Target],
                    config,
                ));
                queries.push(build_query(
                    &bin,
                    &unit,
                    views,
                    analyst,
                    &[Side::Comparison],
                    config,
                ));
            }
        }
    }

    ExecutionPlan {
        queries,
        num_views: views.len(),
        parallelism: config.parallelism.max(1),
    }
}

/// Roll-up components a function needs.
fn components_of(func: AggFunc) -> &'static [AggFunc] {
    match func {
        AggFunc::Sum => &[AggFunc::Sum],
        AggFunc::Count => &[AggFunc::Count],
        AggFunc::Avg => &[AggFunc::Sum, AggFunc::Count],
        AggFunc::Min => &[AggFunc::Min],
        AggFunc::Max => &[AggFunc::Max],
    }
}

fn component_alias(side: Side, comp: AggFunc, measure: Option<&str>) -> String {
    match measure {
        Some(m) => format!("{}_r{}_{}", side.prefix(), comp.sql().to_lowercase(), m),
        None => format!("{}_rcount_star", side.prefix()),
    }
}

/// Build one planned query for `unit` (view indices) over the dimensions
/// in `bin`, computing the given `sides`.
fn build_query(
    bin: &[String],
    unit: &[usize],
    views: &[ViewSpec],
    analyst: &AnalystQuery,
    sides: &[Side],
    config: &OptimizerConfig,
) -> PlannedQuery {
    let multi = config.group_by_combining == GroupByCombining::MultiGroupBy && bin.len() > 1;
    // Standalone target queries put the analyst filter in WHERE; combined
    // (both-sides) queries carry it per-aggregate instead.
    let combined = sides.len() == 2;

    let mut aggs: Vec<AggSpec> = Vec::new();
    let mut have: HashMap<String, ()> = HashMap::new();
    let mut extracts: Vec<Extract> = Vec::new();

    for &vi in unit {
        let view = &views[vi];
        let result_index = if matches!(config.group_by_combining, GroupByCombining::GroupingSets) {
            bin.iter()
                .position(|d| *d == view.dimension)
                .expect("view's dimension is in its bin")
        } else {
            0
        };
        for &side in sides {
            let source = if multi {
                let mut cols = RollupCols {
                    func: view.func,
                    sum: None,
                    count: None,
                    min: None,
                    max: None,
                };
                for &comp in components_of(view.func) {
                    let alias = component_alias(side, comp, view.measure.as_deref());
                    if have.insert(alias.clone(), ()).is_none() {
                        let mut spec = match (&view.measure, comp) {
                            (Some(m), _) => AggSpec::new(comp, m),
                            (None, _) => AggSpec::count_star(),
                        };
                        spec = spec.with_alias(&alias);
                        if combined && side == Side::Target {
                            if let Some(f) = &analyst.filter {
                                spec = spec.with_filter(f.clone());
                            }
                        }
                        aggs.push(spec);
                    }
                    match comp {
                        AggFunc::Sum => cols.sum = Some(alias),
                        AggFunc::Count => cols.count = Some(alias),
                        AggFunc::Min => cols.min = Some(alias),
                        AggFunc::Max => cols.max = Some(alias),
                        AggFunc::Avg => unreachable!("avg is not a component"),
                    }
                }
                ValueSource::Rollup(cols)
            } else {
                let alias = direct_alias(side, view);
                if have.insert(alias.clone(), ()).is_none() {
                    aggs.push(view_agg(view, side, analyst, combined));
                }
                ValueSource::Column(alias)
            };
            extracts.push(Extract {
                view_index: vi,
                result_index,
                side,
                dim_col: view.dimension.clone(),
                source,
            });
        }
    }

    // Scan-level filter for standalone target queries.
    let filter = if !combined && sides == [Side::Target] {
        analyst.filter.clone()
    } else {
        None
    };

    let mut source = LogicalPlan::scan(&analyst.table);
    if let Some(f) = filter {
        source = source.filter(f);
    }
    let plan = match config.group_by_combining {
        // Single-set grouping sets lower to the plain single-grouping
        // operator in the plan layer, so the general shape is emitted
        // unconditionally here.
        GroupByCombining::GroupingSets => {
            source.grouping_sets(bin.iter().map(|d| vec![d.clone()]).collect(), aggs)
        }
        GroupByCombining::MultiGroupBy | GroupByCombining::Off => {
            source.aggregate(bin.to_vec(), aggs)
        }
    }
    .sampled(config.sample);

    PlannedQuery { plan, extracts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::MetadataCollector;
    use crate::view::{enumerate_views, FunctionSet};
    use memdb::{ColumnDef, DataType, Expr, Schema, Table, Value};

    fn table(dims: usize, cards: &[usize]) -> Table {
        let mut cols = Vec::new();
        for i in 0..dims {
            cols.push(ColumnDef::dimension(&format!("d{i}"), DataType::Str));
        }
        cols.push(ColumnDef::measure("m0", DataType::Float64));
        cols.push(ColumnDef::measure("m1", DataType::Float64));
        let mut t = Table::new("t", Schema::new(cols).unwrap());
        for r in 0..300 {
            let mut row: Vec<Value> = (0..dims)
                .map(|i| Value::from(format!("v{}", r % cards[i])))
                .collect();
            row.push(Value::Float(r as f64));
            row.push(Value::Float((r % 10) as f64));
            t.push_row(row).unwrap();
        }
        t
    }

    fn setup(dims: usize, cards: &[usize]) -> (Table, Metadata, AnalystQuery, Vec<ViewSpec>) {
        let t = table(dims, cards);
        let md = MetadataCollector::new().collect(&t, false).unwrap();
        let analyst = AnalystQuery::new("t", Some(Expr::col("d0").eq("v0")));
        let views = enumerate_views(t.schema(), &FunctionSet::sum_only());
        (t, md, analyst, views)
    }

    fn count_extract_sides(plan: &ExecutionPlan) -> (usize, usize) {
        let mut t = 0;
        let mut c = 0;
        for q in &plan.queries {
            for e in &q.extracts {
                match e.side {
                    Side::Target => t += 1,
                    Side::Comparison => c += 1,
                }
            }
        }
        (t, c)
    }

    #[test]
    fn basic_plan_is_two_queries_per_view() {
        let (_t, md, analyst, views) = setup(3, &[5, 7, 9]);
        let plan = plan(&views, &analyst, &md, &OptimizerConfig::basic());
        // 3 dims × 2 measures = 6 views × 2 sides = 12 queries.
        assert_eq!(plan.num_queries(), 12);
        let (t, c) = count_extract_sides(&plan);
        assert_eq!((t, c), (6, 6));
    }

    #[test]
    fn combine_target_comparison_halves_queries() {
        let (_t, md, analyst, views) = setup(3, &[5, 7, 9]);
        let mut cfg = OptimizerConfig::basic();
        cfg.combine_target_comparison = true;
        let p = plan(&views, &analyst, &md, &cfg);
        assert_eq!(p.num_queries(), 6);
        // Every query covers both sides of one view.
        for q in &p.queries {
            assert_eq!(q.extracts.len(), 2);
        }
    }

    #[test]
    fn combine_aggregates_merges_same_dimension() {
        let (_t, md, analyst, views) = setup(3, &[5, 7, 9]);
        let mut cfg = OptimizerConfig::basic();
        cfg.combine_aggregates = true;
        let p = plan(&views, &analyst, &md, &cfg);
        // 3 dims × 2 sides = 6 queries (2 measures share each).
        assert_eq!(p.num_queries(), 6);
    }

    #[test]
    fn grouping_sets_respects_memory_budget() {
        let (_t, md, analyst, views) = setup(3, &[5, 7, 9]);
        let mut cfg = OptimizerConfig::basic();
        cfg.combine_target_comparison = true;
        cfg.group_by_combining = GroupByCombining::GroupingSets;
        cfg.memory_budget_groups = 12; // 5+7 fit, 9 alone
        let p = plan(&views, &analyst, &md, &cfg);
        assert_eq!(p.num_queries(), 2);
        // With a huge budget all 3 dims share one query.
        cfg.memory_budget_groups = u64::MAX;
        let p = plan(&views, &analyst, &md, &cfg);
        assert_eq!(p.num_queries(), 1);
        assert_eq!(p.queries[0].plan.lower().unwrap().query.sets.len(), 3);
    }

    #[test]
    fn multigroupby_produces_rollup_extracts() {
        let (_t, md, analyst, views) = setup(3, &[5, 7, 9]);
        let mut cfg = OptimizerConfig::basic();
        cfg.combine_target_comparison = true;
        cfg.group_by_combining = GroupByCombining::MultiGroupBy;
        cfg.memory_budget_groups = 1_000_000; // 5*7*9 = 315 fits
        let p = plan(&views, &analyst, &md, &cfg);
        assert_eq!(p.num_queries(), 1);
        let sets = p.queries[0].plan.lower().unwrap().query.sets;
        assert_eq!(sets.len(), 1, "expected single-grouping plan");
        assert_eq!(sets[0].len(), 3);
        assert!(p.queries[0]
            .extracts
            .iter()
            .all(|e| matches!(e.source, ValueSource::Rollup(_))));
    }

    #[test]
    fn multigroupby_budget_splits_by_product() {
        let (_t, md, analyst, views) = setup(3, &[5, 7, 9]);
        let mut cfg = OptimizerConfig::basic();
        cfg.combine_target_comparison = true;
        cfg.group_by_combining = GroupByCombining::MultiGroupBy;
        cfg.memory_budget_groups = 40; // 5*7=35 <= 40, 9 alone
        let p = plan(&views, &analyst, &md, &cfg);
        assert_eq!(p.num_queries(), 2);
    }

    #[test]
    fn every_view_has_both_sides_exactly_once() {
        let (_t, md, analyst, views) = setup(4, &[3, 4, 5, 6]);
        for cfg in [
            OptimizerConfig::basic(),
            {
                let mut c = OptimizerConfig::basic();
                c.combine_target_comparison = true;
                c
            },
            OptimizerConfig::all_optimizations(),
            {
                let mut c = OptimizerConfig::all_optimizations();
                c.group_by_combining = GroupByCombining::MultiGroupBy;
                c.memory_budget_groups = 50;
                c
            },
        ] {
            let p = plan(&views, &analyst, &md, &cfg);
            let mut seen: HashMap<(usize, Side), usize> = HashMap::new();
            for q in &p.queries {
                for e in &q.extracts {
                    *seen.entry((e.view_index, e.side)).or_insert(0) += 1;
                }
            }
            for vi in 0..views.len() {
                assert_eq!(seen.get(&(vi, Side::Target)), Some(&1), "{cfg:?}");
                assert_eq!(seen.get(&(vi, Side::Comparison)), Some(&1));
            }
        }
    }

    #[test]
    fn avg_views_need_sum_and_count_components() {
        let (t, md, analyst, _) = setup(2, &[3, 4]);
        let views = enumerate_views(t.schema(), &FunctionSet::custom(vec![AggFunc::Avg], false));
        let mut cfg = OptimizerConfig::basic();
        cfg.combine_target_comparison = true;
        cfg.group_by_combining = GroupByCombining::MultiGroupBy;
        let p = plan(&views, &analyst, &md, &cfg);
        let q = p.queries[0].plan.lower().unwrap().query;
        assert_eq!(q.sets.len(), 1);
        let aliases: Vec<&str> = q
            .aggregates
            .iter()
            .filter_map(|a| a.alias.as_deref())
            .collect();
        assert!(aliases.contains(&"t_rsum_m0"));
        assert!(aliases.contains(&"t_rcount_m0"));
        assert!(aliases.contains(&"c_rsum_m0"));
    }

    #[test]
    fn sampling_attaches_to_every_query() {
        let (_t, md, analyst, views) = setup(2, &[3, 4]);
        let mut cfg = OptimizerConfig::basic();
        cfg.sample = Some(SampleSpec::Bernoulli {
            fraction: 0.1,
            seed: 7,
        });
        let p = plan(&views, &analyst, &md, &cfg);
        for q in &p.queries {
            assert!(q.plan.lower().unwrap().is_sampled());
        }
    }

    #[test]
    fn standalone_target_queries_use_where_clause() {
        let (_t, md, analyst, views) = setup(1, &[3]);
        let p = plan(&views, &analyst, &md, &OptimizerConfig::basic());
        let target_queries: Vec<memdb::Query> = p
            .queries
            .iter()
            .filter(|pq| pq.extracts[0].side == Side::Target)
            .map(|pq| pq.plan.lower().unwrap().query)
            .collect();
        assert!(!target_queries.is_empty());
        for q in target_queries {
            assert_eq!(q.sets.len(), 1);
            assert!(q.filter.is_some(), "standalone target carries WHERE");
            assert!(q.aggregates.iter().all(|a| a.filter.is_none()));
        }
    }

    #[test]
    fn combined_queries_use_per_aggregate_filters() {
        let (_t, md, analyst, views) = setup(1, &[3]);
        let mut cfg = OptimizerConfig::basic();
        cfg.combine_target_comparison = true;
        let p = plan(&views, &analyst, &md, &cfg);
        for pq in &p.queries {
            let q = pq.plan.lower().unwrap().query;
            assert_eq!(q.sets.len(), 1);
            assert!(q.filter.is_none());
            let t_agg = q
                .aggregates
                .iter()
                .find(|a| a.alias.as_deref().is_some_and(|al| al.starts_with("t_")))
                .unwrap();
            assert!(t_agg.filter.is_some());
        }
    }
}
