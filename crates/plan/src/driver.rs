//! The pluggable storage-driver trait a compiled [`Plan`](crate::Plan)
//! executes against.
//!
//! A driver owns *how* the plan's operators touch storage; the plan owns
//! *what* to compute. Each driver advertises a [`Capability`] describing the
//! execution strategy it implements, so callers (and `EXPLAIN PLAN` readers)
//! can see which physical path a plan will take.

use ecfd_detect::{DetectionReport, EvidenceReport, Parallelism};
use ecfd_relation::Catalog;

/// The execution strategy a [`Driver`] implements for plan operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Capability {
    /// Operators run natively over the dictionary-coded columnar core
    /// through the group-then-match engine ([`crate::ColumnarDriver`]).
    ColumnarScan,
    /// The whole plan is pushed down through the SQL rewriting path and
    /// executed by the relational engine ([`crate::SqlDriver`]).
    PushdownSql,
}

impl Capability {
    /// Stable lowercase label, used in plan renderings and metrics.
    pub fn as_str(&self) -> &'static str {
        match self {
            Capability::ColumnarScan => "columnar-scan",
            Capability::PushdownSql => "pushdown-sql",
        }
    }
}

/// What one plan execution produced: the standard detection reports plus
/// the driver-side effort counters the observability layer records.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The violation report, identical in content to what the semantic
    /// detector would produce for the same set and data.
    pub report: DetectionReport,
    /// Per-violation evidence, normalized.
    pub evidence: EvidenceReport,
    /// Number of group ids the execution assigned, summed over its scans'
    /// `X` lists, for `detect.groups.merged`.
    pub groups: u64,
    /// Number of row visits the execution performed, for
    /// `detect.rows.scanned`.
    pub rows_scanned: u64,
}

/// A storage driver: executes a compiled plan's operators against a
/// catalog, leaving the table's `SV`/`MV` flag columns populated.
///
/// Contract: [`Driver::execute`] must produce reports byte-identical to the
/// semantic reference detector for the same constraint set and data — the
/// plan layer changes *how* detection runs, never *what* it reports. The
/// differential suite (`tests/plan_differential.rs`) holds every driver to
/// this.
pub trait Driver: Send + Sync {
    /// The execution strategy this driver implements.
    fn capability(&self) -> Capability;

    /// Short stable name for diagnostics and metrics labels.
    fn name(&self) -> &'static str;

    /// Sets the worker budget for subsequent executions. Drivers whose
    /// strategy is inherently single-threaded (e.g. SQL pushdown) ignore
    /// this.
    fn set_parallelism(&mut self, _parallelism: Parallelism) {}

    /// Executes the plan against the catalog: flags every violating tuple
    /// in the target table's `SV`/`MV` columns and returns the reports plus
    /// effort counters.
    fn execute(&mut self, catalog: &mut Catalog) -> crate::Result<ExecOutcome>;
}
