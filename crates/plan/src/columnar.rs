//! The columnar driver: runs a [`Plan`] over the dictionary-coded columnar
//! core through the detection layer's group-then-match engine
//! ([`ecfd_detect::engine`]).
//!
//! Each of the plan's [`ScanNode`]s becomes one engine scan: the rows are
//! grouped once on the scan's `X` list, and every member flag operator is
//! matched once per group rather than once per row. A *fused* plan
//! therefore groups once per distinct `X`, the unfused baseline once per
//! constraint. The observable outputs are identical by contract — reports
//! and normalized evidence match the semantic detector byte-for-byte at any
//! worker count — only the work to produce them changes.

use crate::driver::{Capability, Driver, ExecOutcome};
use crate::mir::{Plan, ScanNode};
use crate::Result;
use ecfd_core::coded::{intern_singles, CodedSingle};
use ecfd_detect::engine::{Pass, Scan};
use ecfd_detect::semantic::{ensure_flag_columns, write_flags};
use ecfd_detect::Parallelism;
use ecfd_relation::{Catalog, ColumnarView, Dictionary};
use std::sync::Arc;

/// Executes plan operators natively over [`ColumnarView`]s
/// ([`Capability::ColumnarScan`]).
///
/// The driver owns its issuing [`Dictionary`]: pattern constants are
/// interned once at construction (so cell matching is pure code comparison),
/// and each execution encodes the current table contents through the same
/// grow-only dictionary — exactly the semantic detector's codec discipline.
#[derive(Debug)]
pub struct ColumnarDriver {
    plan: Arc<Plan>,
    /// The plan's scan operators as engine scans.
    scans: Vec<Scan>,
    /// Coded pattern cells, parallel to the set's split constraints.
    cells: Vec<CodedSingle>,
    /// `(constraint, pattern)` provenance per split constraint.
    provenance: Vec<(usize, usize)>,
    dict: Dictionary,
    table: String,
    parallelism: Parallelism,
}

impl ColumnarDriver {
    /// Builds the driver for a compiled plan, interning the plan's pattern
    /// constants into a fresh dictionary.
    pub fn new(plan: Arc<Plan>) -> Self {
        let singles: Vec<_> = plan
            .set()
            .singles()
            .iter()
            .map(|s| s.ecfd.clone())
            .collect();
        let mut dict = Dictionary::new();
        let cells = intern_singles(&singles, &mut dict);
        let scan = |s: &ScanNode| Scan {
            x: s.x.clone(),
            members: s.members.iter().map(|f| f.member.clone()).collect(),
        };
        let scans = plan.scans().iter().map(scan).collect();
        let provenance = plan.set().provenance();
        let table = plan.set().schema().name().to_string();
        ColumnarDriver {
            plan,
            scans,
            cells,
            provenance,
            dict,
            table,
            parallelism: Parallelism::default(),
        }
    }

    /// The plan this driver executes.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }
}

impl Driver for ColumnarDriver {
    fn capability(&self) -> Capability {
        Capability::ColumnarScan
    }

    fn name(&self) -> &'static str {
        "columnar"
    }

    fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    fn execute(&mut self, catalog: &mut Catalog) -> Result<ExecOutcome> {
        ensure_flag_columns(catalog, &self.table)?;
        let outcome = {
            let relation = catalog.get(&self.table)?;
            let view = ColumnarView::build(relation, &mut self.dict);
            let pass = Pass::run(&view, &self.scans, &self.cells, self.parallelism);
            ExecOutcome {
                report: pass.report(),
                evidence: pass.evidence(&self.provenance, &self.dict),
                groups: pass.num_groups() as u64,
                rows_scanned: view.num_rows() as u64,
            }
        };
        write_flags(catalog, &self.table, &outcome.report)?;
        Ok(outcome)
    }
}
