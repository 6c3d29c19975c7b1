//! # ecfd-plan
//!
//! Detection-plan compilation: the verify → lower → plan → execute pipeline
//! that turns a compiled [`ConstraintSet`](ecfd_core::ConstraintSet) into an
//! explicit, inspectable detection plan executed against pluggable storage
//! drivers.
//!
//! The three existing detector backends each hand-interpret the constraint
//! set their own way — the SQL rewriter, the native columnar scan and the
//! incremental maintainer all re-derive *how* to scan, group and flag for
//! every registered eCFD. This crate factors that decision out into data:
//!
//! 1. **Lower** ([`lower`]): every split single-pattern constraint becomes
//!    one [`HirNode`] — a logical scan / group / flag tree over
//!    dictionary-coded columns, with the constraint's attribute lists
//!    resolved to column positions once.
//! 2. **Plan** ([`Hir::optimize`]): the HIR is optimized into a [`Plan`]
//!    (the MIR). The headline rewrite is *shared scans*: constraints whose
//!    `X` attribute lists are identical fuse into one grouped [`ScanNode`]
//!    feeding multiple [`FlagNode`] operators, so the rows are grouped on
//!    `X` once per scan instead of once per constraint.
//!    [`Hir::sequential`] produces the unfused baseline plan (one scan per
//!    constraint) the benchmarks compare against.
//! 3. **Execute** ([`Driver`]): a plan runs against any driver advertising a
//!    [`Capability`] — [`ColumnarDriver`] runs the plan's scans through the
//!    detection layer's group-then-match engine (`ecfd_detect::engine`, the
//!    same engine as the semantic detector), which matches patterns once per
//!    `X` group rather than once per row; [`SqlDriver`] pushes the whole
//!    plan down through the `BATCHDETECT` SQL path ([`Capability::PushdownSql`]).
//!
//! [`PlanBackend`] packages a plan plus a driver behind the ordinary
//! [`DetectorBackend`](ecfd_detect::DetectorBackend) trait, so sessions and
//! the serving layer route to it like any other backend
//! (`BackendKind::Plan`), and every pass is recorded as
//! `detect.pass.ns{backend="plan"}` in the process-wide metrics registry.
//! [`Plan::render`] produces the deterministic text form the serving
//! layer's `EXPLAIN PLAN` verb exposes.
//!
//! ## Example
//!
//! ```
//! use ecfd_core::ConstraintSet;
//! use ecfd_detect::DetectorBackend;
//! use ecfd_plan::{Plan, PlanBackend};
//! use ecfd_relation::{Catalog, DataType, Relation, Schema, Tuple};
//!
//! let schema = Schema::builder("cust")
//!     .attr("CT", DataType::Str)
//!     .attr("AC", DataType::Str)
//!     .build();
//! let set = ConstraintSet::parse(
//!     &schema,
//!     "cust: [CT] -> [AC] | [], { {Albany} || {518} ; {Troy} || {518} }",
//! ).unwrap();
//!
//! // Both pattern tuples share X = [CT]: the optimized plan is one scan.
//! let plan = Plan::compile(&set).unwrap();
//! assert_eq!(plan.num_scans(), 1);
//! assert_eq!(plan.num_flags(), 2);
//!
//! let mut catalog = Catalog::new();
//! catalog.create(Relation::with_tuples(schema, [
//!     Tuple::from_iter(["Albany", "718"]), // wrong area code
//!     Tuple::from_iter(["NYC", "212"]),
//! ]).unwrap()).unwrap();
//! let mut backend = PlanBackend::from_set(&set).unwrap();
//! let (report, _) = backend.detect(&mut catalog).unwrap();
//! assert_eq!(report.num_sv(), 1);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod backend;
mod columnar;
mod driver;
mod hir;
mod mir;
mod sql;

pub use backend::PlanBackend;
pub use columnar::ColumnarDriver;
pub use driver::{Capability, Driver, ExecOutcome};
pub use hir::{lower, Hir, HirNode};
pub use mir::{FlagNode, Plan, ScanNode};
pub use sql::SqlDriver;

/// Result alias for plan operations — plan compilation and execution report
/// through the detection layer's error type, since every driver ultimately
/// answers the same detect/apply contract.
pub type Result<T> = ecfd_detect::Result<T>;

/// Re-export of the detection layer's error type for callers matching on
/// failures of plan compilation or execution.
pub use ecfd_detect::DetectError;
