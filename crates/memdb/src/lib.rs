//! # memdb — the relational substrate SeeDB wraps
//!
//! An in-memory, columnar, analytical database engine built from scratch
//! for the SeeDB reproduction. SeeDB (VLDB 2014) is "a layer on top of a
//! traditional relational database system"; this crate is that system.
//! It provides exactly the capabilities SeeDB's backend relies on:
//!
//! * typed, dictionary-encoded, *segmented* columnar tables with
//!   snowflake-style dimension/measure roles ([`schema`],
//!   [`column`](mod@column), [`segment`], [`table`]) — appends publish
//!   a new table version sharing all sealed segments with the old one
//!   ([`Database::append_rows`]), so snapshots are free and caches can
//!   refresh from just the delta rows;
//! * filtered scans with SQL three-valued logic ([`expr`]);
//! * group-by aggregation with **per-aggregate predicates** and
//!   **grouping sets sharing one scan** ([`exec`]) — the two primitives
//!   behind SeeDB's combined target/comparison and combined group-by
//!   rewrites;
//! * Bernoulli and reservoir sampling ([`sample`]);
//! * a typed logical/physical plan layer the optimizer targets, lowering
//!   onto those shared-scan primitives ([`plan`]);
//! * parallel execution of plans, across plans and across row
//!   partitions of one plan ([`parallel`]);
//! * table/column statistics and association measures ([`stats`]);
//! * deterministic cost accounting ([`cost`]);
//! * a SQL subset parser for the analyst-facing text box ([`sql`]);
//! * a durable on-disk store — checksummed segment files, an atomic
//!   manifest, an ingest WAL, and crash recovery ([`store`],
//!   [`Database::save`]/[`Database::open`]).
//!
//! ## Example
//!
//! ```
//! use memdb::{Database, Table, Schema, ColumnDef, DataType, LogicalPlan, AggSpec, AggFunc, Expr};
//!
//! let schema = Schema::new(vec![
//!     ColumnDef::dimension("store", DataType::Str),
//!     ColumnDef::dimension("product", DataType::Str),
//!     ColumnDef::measure("amount", DataType::Float64),
//! ]).unwrap();
//! let mut sales = Table::new("sales", schema);
//! sales.push_row(vec!["Cambridge, MA".into(), "Laserwave".into(), 180.55.into()]).unwrap();
//! sales.push_row(vec!["Seattle, WA".into(), "Laserwave".into(), 145.50.into()]).unwrap();
//!
//! let db = Database::new();
//! db.register(sales);
//!
//! let plan = LogicalPlan::scan("sales")
//!     .filter(Expr::col("product").eq("Laserwave"))
//!     .aggregate(vec!["store".into()], vec![AggSpec::new(AggFunc::Sum, "amount")]);
//! let out = db.execute_plan(&plan).unwrap();
//! assert_eq!(out.result_set(0).unwrap().num_rows(), 2);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod binning;
pub mod catalog;
pub mod column;
pub mod cost;
pub mod error;
pub mod exec;
pub mod expr;
pub mod metrics;
pub mod parallel;
pub mod plan;
pub mod sample;
pub mod schema;
pub mod segment;
pub mod sql;
pub mod stats;
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod store;
pub mod sync;
pub mod table;
pub mod value;

pub use binning::{with_binned_column, BinStrategy, Binning};
pub use catalog::Database;
pub use column::{Column, StrDict};
pub use cost::{CostCounters, CostSnapshot};
pub use error::{DbError, DbResult};
pub use exec::{AggFunc, AggSpec, AggState, CacheOutcome, ExactSum, ExecStats, Query, ResultSet};
pub use expr::{CmpOp, Expr};
pub use metrics::{ExecMetrics, StoreMetrics};
pub use parallel::{run_batch, run_partitioned, BatchOutput};
pub use plan::{LogicalPlan, PartialAggState, PhysicalPlan, PlanOutput};
pub use sample::{sample_rows, SampleSpec};
pub use schema::{ColumnDef, Role, Schema, Semantic};
pub use segment::{ColumnSegment, SegmentData, Validity};
pub use sql::{parse_query, parse_selection, Selection};
pub use stats::{cramers_v, ColumnStats, TableFold, TableStats};
pub use store::{DurabilityConfig, DurabilitySummary};
pub use sync::{MutexExt, RwLockExt};
pub use table::Table;
pub use value::{DataType, Value};
