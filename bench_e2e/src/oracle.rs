//! The in-process oracle: the table the server should hold, replayed from
//! the same CSV with the ACKed deltas applied in ACK order, and detected
//! from scratch by a single unsharded `Session` registered with the same
//! rules text.

use crate::spans::Spans;
use ecfd_detect::DetectionReport;
use ecfd_relation::Relation;
use ecfd_serve::protocol::{Request, Response, TupleOp};
use ecfd_session::Session;

/// The expected table contents and the rules to check them against.
#[derive(Clone)]
pub struct Oracle {
    relation: Relation,
    rules: String,
}

impl Oracle {
    /// Loads `csv` as table `cust`, recording a `relation.csv_load` span.
    pub fn build(csv: &str, rules: &str, spans: &mut Spans) -> Result<Oracle, String> {
        let relation = spans
            .time("relation.csv_load", || {
                ecfd_relation::csv::from_csv_infer("cust", csv)
            })
            .map_err(|e| format!("oracle CSV: {e}"))?;
        Ok(Oracle {
            relation,
            rules: rules.to_string(),
        })
    }

    /// Applies one delta to the table exactly as the server parses it.
    /// Insertions take the next sequential row ids, as in the server's
    /// session; deletions remove every matching row.
    pub fn apply(&mut self, ops: &[TupleOp]) -> Result<(), String> {
        let delta = Request::ops_to_delta(ops, self.relation.schema())?;
        for tuple in &delta.deletions {
            self.relation.delete_matching(tuple);
        }
        for tuple in delta.insertions {
            self.relation
                .insert(tuple)
                .map_err(|e| format!("oracle insert: {e}"))?;
        }
        Ok(())
    }

    /// A from-scratch detection over the current table by a fresh session,
    /// recording a `session.register` span.
    pub fn report(&self, spans: &mut Spans) -> Result<DetectionReport, String> {
        let mut session = self.session(spans)?;
        session.detect().map_err(|e| format!("oracle detect: {e}"))
    }

    /// A fresh session holding the current table with the rules registered.
    pub fn session(&self, spans: &mut Spans) -> Result<Session, String> {
        let mut session = Session::new();
        session
            .load(self.relation.clone())
            .map_err(|e| format!("oracle load: {e}"))?;
        spans
            .time("session.register", || session.register_text(&self.rules))
            .map_err(|e| format!("oracle rules: {e}"))?;
        Ok(session)
    }
}

/// The `REPORT` line the server must send for `report`, minus its
/// `REPORT EPOCH <e>` head (epochs are the server's own).
pub fn report_tail(report: &DetectionReport) -> String {
    let line = Response::Report {
        epoch: 0,
        total: report.total_rows,
        sv: report.sv_rows.iter().map(|r| r.as_u64()).collect(),
        mv: report.mv_rows.iter().map(|r| r.as_u64()).collect(),
    }
    .render();
    line["REPORT EPOCH 0".len()..].to_string()
}

/// Splits a `REPORT EPOCH <e> …` line into its epoch and the rest.
pub fn split_report(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix("REPORT EPOCH ")?;
    let end = rest.find(' ').unwrap_or(rest.len());
    Some((rest[..end].parse().ok()?, &rest[end..]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lines_split_into_epoch_and_tail() {
        assert_eq!(
            split_report("REPORT EPOCH 12 TOTAL 3 SV 1 MV -"),
            Some((12, " TOTAL 3 SV 1 MV -"))
        );
        assert_eq!(split_report("ERR x"), None);
    }
}
