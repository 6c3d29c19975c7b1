//! Detection reports: which rows carry the SV / MV flags.

use ecfd_core::ViolationSet;
use ecfd_relation::{Catalog, Relation, RowId, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

use crate::Result;

/// The outcome of running a detector over a relation: the rows flagged as
/// single-tuple violations (`SV = 1`) and multi-tuple violations (`MV = 1`).
///
/// This mirrors the paper's representation of `vio(D)` via the two added
/// Boolean attributes; every detector in this crate produces the same shape so
/// that the SQL-based, incremental and semantic detectors can be compared
/// field by field.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectionReport {
    /// Rows with `SV = 1`.
    pub sv_rows: BTreeSet<RowId>,
    /// Rows with `MV = 1`.
    pub mv_rows: BTreeSet<RowId>,
    /// Total number of rows inspected.
    pub total_rows: usize,
}

impl DetectionReport {
    /// Number of single-tuple violations (the paper's `DSV`).
    pub fn num_sv(&self) -> usize {
        self.sv_rows.len()
    }

    /// Number of multi-tuple violations (the paper's `DMV`).
    pub fn num_mv(&self) -> usize {
        self.mv_rows.len()
    }

    /// The violation set `vio(D)`: rows flagged either way.
    pub fn violating_rows(&self) -> BTreeSet<RowId> {
        self.sv_rows.union(&self.mv_rows).copied().collect()
    }

    /// Number of distinct violating rows.
    pub fn num_violations(&self) -> usize {
        self.sv_rows.union(&self.mv_rows).count()
    }

    /// True when no row violates any constraint.
    pub fn is_clean(&self) -> bool {
        self.sv_rows.is_empty() && self.mv_rows.is_empty()
    }

    /// Builds a report by reading the `SV` / `MV` flag columns of a relation
    /// that a detector has annotated.
    pub fn from_flags(relation: &Relation) -> Result<Self> {
        let sv = relation.schema().require_attr("SV")?;
        let mv = relation.schema().require_attr("MV")?;
        let mut report = DetectionReport {
            total_rows: relation.len(),
            ..Default::default()
        };
        for (row_id, tuple) in relation.iter() {
            if flag_is_set(&tuple[sv]) {
                report.sv_rows.insert(row_id);
            }
            if flag_is_set(&tuple[mv]) {
                report.mv_rows.insert(row_id);
            }
        }
        Ok(report)
    }

    /// Builds a report by reading the flags of a table in a catalog.
    pub fn from_catalog(catalog: &Catalog, table: &str) -> Result<Self> {
        Self::from_flags(catalog.get(table)?)
    }

    /// Converts a semantic [`ViolationSet`] (which carries per-constraint
    /// provenance) into the flag-level report shape.
    pub fn from_violation_set(set: &ViolationSet, total_rows: usize) -> Self {
        DetectionReport {
            sv_rows: set.sv_rows().clone(),
            mv_rows: set.mv_rows().clone(),
            total_rows,
        }
    }
}

fn flag_is_set(value: &Value) -> bool {
    match value {
        Value::Bool(b) => *b,
        Value::Int(i) => *i != 0,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_relation::{DataType, Schema, Tuple};

    #[test]
    fn from_flags_reads_int_and_bool_flags() {
        let schema = Schema::builder("cust")
            .attr("CT", DataType::Str)
            .attr("SV", DataType::Int)
            .attr("MV", DataType::Int)
            .build();
        let rel = Relation::with_tuples(
            schema,
            [
                Tuple::new(vec![Value::str("a"), Value::int(1), Value::int(0)]),
                Tuple::new(vec![Value::str("b"), Value::int(0), Value::int(1)]),
                Tuple::new(vec![Value::str("c"), Value::int(0), Value::int(0)]),
                Tuple::new(vec![Value::str("d"), Value::int(1), Value::int(1)]),
            ],
        )
        .unwrap();
        let report = DetectionReport::from_flags(&rel).unwrap();
        assert_eq!(report.num_sv(), 2);
        assert_eq!(report.num_mv(), 2);
        assert_eq!(report.num_violations(), 3);
        assert_eq!(report.total_rows, 4);
        assert!(!report.is_clean());
    }

    #[test]
    fn missing_flag_columns_error() {
        let schema = Schema::builder("cust").attr("CT", DataType::Str).build();
        let rel = Relation::new(schema);
        assert!(DetectionReport::from_flags(&rel).is_err());
    }

    #[test]
    fn empty_report_is_clean() {
        let report = DetectionReport::default();
        assert!(report.is_clean());
        assert_eq!(report.num_violations(), 0);
    }
}
