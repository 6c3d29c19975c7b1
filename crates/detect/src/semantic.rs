//! The native ("semantic") detector: a direct implementation of the eCFD
//! satisfaction semantics over the dictionary-encoded columnar core.
//!
//! This detector is not part of the paper — its detection technique is
//! SQL-only — but it serves three purposes in the reproduction:
//!
//! * it is the *oracle* for differential testing of the SQL path (both must
//!   flag exactly the same rows);
//! * it is the "native" baseline of the `bench_sql_vs_native` ablation; and
//! * it is the system's fast path: rows are encoded once into a
//!   [`ColumnarView`], pattern constants are pre-resolved to [`Code`]s at
//!   construction (registration) time, and every pass runs the
//!   group-then-match [`engine`](crate::engine): rows are grouped once per
//!   fused `X` attribute list, and LHS matches, single-tuple and
//!   multi-tuple violations are decided per group rather than per
//!   `(row, pattern)`. Each entry point builds only the outputs it returns
//!   — flags, evidence, or the group map.
//!
//! It also exposes the group bookkeeping (`(CID, X-projection) → distinct Y
//! projections + member rows`) that the incremental detector maintains.
//!
//! [`Code`]: ecfd_relation::Code

use crate::engine::{Pass, Scan};
use crate::evidence::{ConstraintRef, EvidenceReport, MvEvidence, SvEvidence};
use crate::parallel::Parallelism;
use crate::report::DetectionReport;
use crate::Result;
use ecfd_core::coded::{intern_singles, CodedSingle};
use ecfd_core::matching::BoundECfd;
use ecfd_core::normalize::split_patterns;
use ecfd_core::ECfd;
use ecfd_relation::{
    AttrId, Catalog, CodeMap, CodeVec, ColumnarView, Dictionary, FrozenView, Relation, RowId,
    Schema, Tuple, Value,
};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A key identifying one enforcement group: the single-pattern constraint id
/// (index into the split constraint list) plus the tuple's coded `X`
/// projection (codes issued by the detector's dictionary).
pub type GroupKey = (usize, CodeVec);

/// The group map every detector produces and the incremental detector
/// maintains (the paper's `Aux(D)` analogue), keyed by coded projections.
pub type GroupMap = CodeMap<GroupKey, GroupState>;

/// Per-group state: how many group members carry each distinct coded `Y`
/// projection, plus the member rows themselves (one membership list shared
/// with the count bookkeeping, so no per-tuple key clone is needed).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupState {
    /// Count of member tuples per distinct coded `Y` projection.
    pub y_counts: CodeMap<CodeVec, usize>,
    /// Every member row of the group, in scan / insertion order.
    pub rows: Vec<RowId>,
}

impl GroupState {
    /// Number of member tuples.
    pub fn size(&self) -> usize {
        self.y_counts.values().sum()
    }

    /// The group violates the embedded FD iff it contains members with at
    /// least two distinct `Y` projections.
    pub fn violates(&self) -> bool {
        self.y_counts.len() > 1
    }
}

/// The native detector.
#[derive(Debug, Clone)]
pub struct SemanticDetector {
    ecfds: Vec<ECfd>,
    singles: Vec<ECfd>,
    /// For every split single-pattern constraint, the `(constraint, pattern)`
    /// indices it came from — used to attribute evidence back to the user's
    /// original constraints.
    provenance: Vec<(usize, usize)>,
    /// Coded pattern cells, parallel to the split single-pattern constraints.
    /// Interned once at construction against the dictionary's *initial*
    /// state; immutable afterwards, so they are shared outside the
    /// dictionary lock and stay valid against every later dictionary state
    /// (grow-only interning) — including the dictionary clone inside any
    /// [`FrozenView`] descended from this detector's dictionary.
    cells: Arc<Vec<CodedSingle>>,
    /// The issuing dictionary for pattern constants and data values alike,
    /// shared by every clone of the detector and by the incremental detector
    /// built on top of it. It only grows, so interning data never
    /// invalidates the pattern codes; read-only detection over a
    /// [`FrozenView`] never takes its lock.
    dict: Arc<RwLock<Dictionary>>,
    parallelism: Parallelism,
}

impl SemanticDetector {
    /// Creates a detector for `ecfds` on `schema`.
    pub fn new(schema: &Schema, ecfds: &[ECfd]) -> Result<Self> {
        for e in ecfds {
            e.validate_against(schema)?;
        }
        let split = split_patterns(ecfds);
        let provenance = split
            .iter()
            .map(|s| (s.source_constraint, s.source_pattern))
            .collect();
        let singles: Vec<ECfd> = split.into_iter().map(|s| s.ecfd).collect();
        Ok(Self::assemble(ecfds.to_vec(), singles, provenance))
    }

    /// Creates a detector from an already-compiled [`ConstraintSet`]: the
    /// set's validation and split are reused verbatim, so no per-detector
    /// re-validation or re-splitting happens — and the pattern constants are
    /// interned to codes here, once, at registration time.
    ///
    /// [`ConstraintSet`]: ecfd_core::ConstraintSet
    pub fn from_set(set: &ecfd_core::ConstraintSet) -> Self {
        Self::assemble(
            set.ecfds().to_vec(),
            set.singles().iter().map(|s| s.ecfd.clone()).collect(),
            set.provenance(),
        )
    }

    fn assemble(ecfds: Vec<ECfd>, singles: Vec<ECfd>, provenance: Vec<(usize, usize)>) -> Self {
        let mut dict = Dictionary::new();
        let cells = intern_singles(&singles, &mut dict);
        SemanticDetector {
            ecfds,
            singles,
            provenance,
            cells: Arc::new(cells),
            dict: Arc::new(RwLock::new(dict)),
            parallelism: Parallelism::default(),
        }
    }

    /// Sets the worker fan-out of subsequent detection passes.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Sets the worker fan-out of subsequent detection passes.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    /// The configured worker fan-out.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The original constraints.
    pub fn ecfds(&self) -> &[ECfd] {
        &self.ecfds
    }

    /// The split single-pattern constraints (aligned with incremental group
    /// constraint indices).
    pub fn singles(&self) -> &[ECfd] {
        &self.singles
    }

    /// `(constraint, pattern)` provenance of every split constraint, parallel
    /// to [`SemanticDetector::singles`].
    pub fn provenance(&self) -> &[(usize, usize)] {
        &self.provenance
    }

    /// Read access to the shared dictionary. Crate-internal: the
    /// incremental detector maintains its view and group state through it. A
    /// poisoned lock is recovered: the dictionary only grows, so a panicked
    /// writer leaves it consistent.
    pub(crate) fn dict_read(&self) -> RwLockReadGuard<'_, Dictionary> {
        self.dict.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write access to the shared dictionary; see
    /// [`SemanticDetector::dict_read`].
    pub(crate) fn dict_write(&self) -> RwLockWriteGuard<'_, Dictionary> {
        self.dict.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The coded pattern cells, parallel to [`SemanticDetector::singles`].
    /// Immutable after construction and held outside the dictionary lock.
    pub(crate) fn cells(&self) -> &[CodedSingle] {
        &self.cells
    }

    /// Encodes the same projection of many tuples into coded keys through
    /// the detector's dictionary (interning unseen values), under a single
    /// lock, in input order. This is how the repair layer keys its conflict
    /// classes by the same codes the detectors group on.
    pub fn encode_keys<'t>(
        &self,
        tuples: impl IntoIterator<Item = &'t Tuple>,
        attrs: &[AttrId],
    ) -> Vec<CodeVec> {
        let mut dict = self.dict_write();
        tuples
            .into_iter()
            .map(|tuple| {
                CodeVec::from_iter_exact(attrs.iter().map(|a| dict.encode(tuple.value(*a))))
            })
            .collect()
    }

    /// Decodes a coded group key back to the values it was issued for.
    pub fn decode_key(&self, key: &CodeVec) -> Vec<Value> {
        self.dict_read().decode_all(key.as_slice())
    }

    /// Detects violations in a relation, returning the report without
    /// modifying the relation. Builds only the flags (no evidence, no group
    /// state).
    pub fn detect(&self, relation: &Relation) -> Result<DetectionReport> {
        let (report, ()) = self.detect_relation(relation, |_, _| ())?;
        Ok(report)
    }

    /// Detects violations and also returns the group state, which is the seed
    /// state of the incremental detector.
    pub fn detect_with_groups(&self, relation: &Relation) -> Result<(DetectionReport, GroupMap)> {
        self.detect_relation(relation, |pass, _| pass.group_map())
    }

    /// Detects violations and explains them: alongside the flag-level report,
    /// returns [`EvidenceReport`] records naming, for every flagged row, the
    /// violated constraint and pattern tuple — and for multi-tuple violations
    /// the offending group key.
    pub fn detect_with_evidence(
        &self,
        relation: &Relation,
    ) -> Result<(DetectionReport, EvidenceReport)> {
        self.detect_relation(relation, |pass, dict| pass.evidence(&self.provenance, dict))
    }

    /// Flags, evidence and group state from one engine pass over the
    /// relation (see [`crate::engine`]). The output is identical at every
    /// worker count.
    pub fn detect_full(
        &self,
        relation: &Relation,
    ) -> Result<(DetectionReport, EvidenceReport, GroupMap)> {
        let (report, (evidence, groups)) = self.detect_relation(relation, |pass, dict| {
            (pass.evidence(&self.provenance, dict), pass.group_map())
        })?;
        Ok((report, evidence, groups))
    }

    /// Runs a full, read-only detection pass over a [`FrozenView`] — the
    /// serving layer's reader path. The frozen dictionary must descend from
    /// this detector's dictionary (e.g. produced by [`SemanticDetector::freeze`]
    /// or `IncrementalDetector::freeze`), so the pattern cells coded at
    /// construction time match its codes. Nothing is locked and nothing is
    /// interned: any number of threads can run this concurrently against the
    /// same handle, and the output is deterministic at every worker count —
    /// byte-identical to a from-scratch [`SemanticDetector::detect_with_evidence`]
    /// over the relation the view was frozen from.
    pub fn detect_frozen(
        &self,
        frozen: &FrozenView,
        schema: &Schema,
    ) -> Result<(DetectionReport, EvidenceReport)> {
        self.run(frozen.view(), schema, |pass| {
            pass.evidence(&self.provenance, frozen.dict())
        })
    }

    /// [`SemanticDetector::detect_frozen`] without the evidence: the flags
    /// come straight from the engine's per-group decisions, so no member
    /// list or evidence record is built.
    pub fn detect_frozen_report(
        &self,
        frozen: &FrozenView,
        schema: &Schema,
    ) -> Result<DetectionReport> {
        let (report, ()) = self.run(frozen.view(), schema, |_| ())?;
        Ok(report)
    }

    /// Encodes the first `base_arity` attributes of `relation` through the
    /// detector's dictionary and freezes the result together with a
    /// dictionary clone: one consistent point-in-time unit that
    /// [`SemanticDetector::detect_frozen`] can re-scan without
    /// synchronisation. This is the snapshot-extraction primitive of the
    /// serving layer.
    pub fn freeze(&self, relation: &Relation, base_arity: usize) -> FrozenView {
        let mut dict = self.dict_write();
        let view = ColumnarView::build_prefix(relation, base_arity, &mut dict);
        FrozenView::new(view, dict.clone())
    }

    /// Encodes `relation` through the shared dictionary and runs one engine
    /// pass over it; `out` builds the demanded outputs under the same lock.
    fn detect_relation<T>(
        &self,
        relation: &Relation,
        out: impl FnOnce(&Pass<'_>, &Dictionary) -> T,
    ) -> Result<(DetectionReport, T)> {
        let mut dict = self.dict_write();
        let view = ColumnarView::build(relation, &mut dict);
        self.run(&view, relation.schema(), |pass| out(pass, &dict))
    }

    /// One engine pass over an encoded view: the report always, plus
    /// whatever `out` builds from the pass. Recorded as
    /// `detect.pass.ns{backend="semantic"}`.
    pub(crate) fn run<T>(
        &self,
        view: &ColumnarView,
        schema: &Schema,
        out: impl FnOnce(&Pass<'_>) -> T,
    ) -> Result<(DetectionReport, T)> {
        let started = std::time::Instant::now();
        let scans = Scan::fuse(&self.bind(schema)?);
        let pass = Pass::run(view, &scans, &self.cells, self.parallelism);
        let report = pass.report();
        let extra = out(&pass);
        crate::obs::record_pass(
            "semantic",
            view.num_rows() as u64,
            pass.num_groups() as u64,
            report.num_violations() as u64,
            started.elapsed(),
        );
        Ok((report, extra))
    }

    /// Detects violations and writes the `SV` / `MV` flag columns of the named
    /// table in place (adding the columns if the table does not have them).
    /// This is the "native BATCHDETECT" baseline used by the ablation
    /// benchmarks.
    pub fn detect_and_flag(&self, catalog: &mut Catalog, table: &str) -> Result<DetectionReport> {
        ensure_flag_columns(catalog, table)?;
        let report = {
            let relation = catalog.get(table)?;
            self.detect(relation)?
        };
        write_flags(catalog, table, &report)?;
        Ok(report)
    }

    /// Resolves the split constraints against a (possibly extended) schema.
    pub fn bind<'a>(&'a self, schema: &Schema) -> Result<Vec<BoundECfd<'a>>> {
        self.singles
            .iter()
            .map(|e| BoundECfd::bind(e, schema).map_err(Into::into))
            .collect()
    }

    // ── cross-partition detection ─────────────────────────────────────────

    /// For every split constraint, whether its `X` contains `shard_attr` —
    /// the *partition-aligned* constraints of a serving layer that routes
    /// rows by that attribute's value. An aligned constraint's enforcement
    /// groups are complete within one partition (equal group keys imply an
    /// equal shard-attribute value, hence the same partition), so its
    /// multi-tuple violations resolve locally; the rest need the merge in
    /// [`SemanticDetector::merge_partials`]. Constraints with an empty `X`
    /// are never aligned.
    pub fn aligned_mask(&self, schema: &Schema, shard_attr: AttrId) -> Result<Vec<bool>> {
        let bounds = self.bind(schema)?;
        Ok(bounds
            .iter()
            .map(|b| b.lhs_ids().contains(&shard_attr))
            .collect())
    }

    /// Runs the scan over one partition of a row-partitioned relation and
    /// returns a mergeable partial result instead of a finished report:
    /// single-tuple violations and the evidence of `aligned` constraints are
    /// final (both are decided within the partition), while the group states
    /// of cross-partition constraints are exported *decoded* — each
    /// partition interns values in its own order, so dictionary codes are
    /// not comparable across partitions, but the decoded values are.
    ///
    /// `aligned` is indexed by split-constraint id (see
    /// [`SemanticDetector::aligned_mask`]).
    pub fn detect_partition(
        &self,
        frozen: &FrozenView,
        schema: &Schema,
        aligned: &[bool],
    ) -> Result<ShardPartial> {
        let (_, (sv, groups)) = self.run(frozen.view(), schema, |pass| {
            (pass.sv_evidence(&self.provenance), pass.group_map())
        })?;
        let dict = frozen.dict();
        let mut local_mv = Vec::new();
        let mut open = Vec::new();
        for ((ci, key), state) in groups {
            if aligned.get(ci).copied().unwrap_or(false) {
                if state.violates() {
                    let (constraint, pattern) = self.provenance[ci];
                    local_mv.push(MvEvidence {
                        source: ConstraintRef::new(constraint, pattern),
                        group_key: dict.decode_all(key.as_slice()),
                        rows: state.rows.iter().copied().collect(),
                    });
                }
            } else {
                open.push(OpenGroup {
                    ci,
                    key: dict.decode_all(key.as_slice()),
                    y_counts: state
                        .y_counts
                        .iter()
                        .map(|(y, n)| (dict.decode_all(y.as_slice()), *n))
                        .collect(),
                    rows: state.rows,
                });
            }
        }
        Ok(ShardPartial {
            total_rows: frozen.num_rows(),
            sv,
            local_mv,
            open,
        })
    }

    /// Combines the partials of every partition into the global report and
    /// evidence — the serving-layer analogue of the scan's phase-2 shard
    /// merge. Open groups are merged by `(constraint, decoded key)`: partial
    /// `Y`-multiplicity maps are summed and a merged group violates iff it
    /// ends up with at least two distinct `Y` projections, exactly the
    /// single-pass criterion. The result is byte-identical to a from-scratch
    /// detection over the union of the partitions' rows (row ids are
    /// partition-global and the report/evidence shapes are order-normalized
    /// sets).
    pub fn merge_partials(&self, partials: Vec<ShardPartial>) -> (DetectionReport, EvidenceReport) {
        let total_rows = partials.iter().map(|p| p.total_rows).sum();
        let mut report = DetectionReport {
            total_rows,
            ..Default::default()
        };
        let mut evidence = EvidenceReport {
            total_rows,
            ..Default::default()
        };
        let mut merged: std::collections::BTreeMap<(usize, Vec<Value>), MergedGroup> =
            std::collections::BTreeMap::new();
        for partial in partials {
            for sv in partial.sv {
                report.sv_rows.insert(sv.row);
                evidence.sv.push(sv);
            }
            for mv in partial.local_mv {
                report.mv_rows.extend(mv.rows.iter().copied());
                evidence.mv_groups.push(mv);
            }
            for group in partial.open {
                let slot = merged.entry((group.ci, group.key)).or_default();
                for (y, n) in group.y_counts {
                    *slot.y_counts.entry(y).or_insert(0) += n;
                }
                slot.rows.extend(group.rows);
            }
        }
        for ((ci, key), state) in merged {
            if state.y_counts.len() > 1 {
                report.mv_rows.extend(state.rows.iter().copied());
                let (constraint, pattern) = self.provenance[ci];
                evidence.mv_groups.push(MvEvidence {
                    source: ConstraintRef::new(constraint, pattern),
                    group_key: key,
                    rows: state.rows.into_iter().collect(),
                });
            }
        }
        evidence.normalize();
        (report, evidence)
    }
}

/// One cross-partition enforcement group as exported by
/// [`SemanticDetector::detect_partition`]: the decoded group key, the decoded
/// `Y`-projection multiplicities, and the member rows. Decoded (value-level)
/// on purpose — each partition's dictionary interns in its own order, so
/// codes do not line up across partitions but values do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenGroup {
    /// Split-constraint id (index into [`SemanticDetector::singles`]).
    pub ci: usize,
    /// The group's decoded `X` projection.
    pub key: Vec<Value>,
    /// Count of member tuples per distinct decoded `Y` projection.
    pub y_counts: Vec<(Vec<Value>, usize)>,
    /// Every member row, in partition scan order.
    pub rows: Vec<RowId>,
}

/// The mergeable result of scanning one partition of a row-partitioned
/// relation: finished single-tuple evidence, finished multi-tuple evidence
/// for partition-aligned constraints, and open (cross-partition) group
/// states awaiting [`SemanticDetector::merge_partials`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPartial {
    /// Rows scanned in this partition.
    pub total_rows: usize,
    /// Single-tuple violation evidence (always partition-local).
    pub sv: Vec<SvEvidence>,
    /// Finished evidence of partition-aligned constraints' violating groups.
    pub local_mv: Vec<MvEvidence>,
    /// Group states of cross-partition constraints, decoded for merging.
    pub open: Vec<OpenGroup>,
}

/// Accumulator for one merged cross-partition group.
#[derive(Debug, Default)]
struct MergedGroup {
    y_counts: std::collections::BTreeMap<Vec<Value>, usize>,
    rows: Vec<RowId>,
}

/// Adds integer `SV` / `MV` columns (initialised to 0) to `table` if absent,
/// and resets them to 0 if present.
pub fn ensure_flag_columns(catalog: &mut Catalog, table: &str) -> Result<()> {
    let needs_extend = {
        let relation = catalog.get(table)?;
        relation.schema().attr_id("SV").is_none()
    };
    if needs_extend {
        let relation = catalog.get(table)?;
        let extended = relation.extend_schema(
            vec![
                ecfd_relation::Attribute::new("SV", ecfd_relation::DataType::Int),
                ecfd_relation::Attribute::new("MV", ecfd_relation::DataType::Int),
            ],
            Value::Int(0),
        )?;
        catalog.create_or_replace(extended);
    } else {
        let relation = catalog.get_mut(table)?;
        let sv = relation.schema().require_attr("SV")?;
        let mv = relation.schema().require_attr("MV")?;
        for row_id in relation.row_ids() {
            relation.update_value(row_id, sv, Value::Int(0))?;
            relation.update_value(row_id, mv, Value::Int(0))?;
        }
    }
    Ok(())
}

/// Writes the report's flags into the `SV` / `MV` columns of `table`.
pub fn write_flags(catalog: &mut Catalog, table: &str, report: &DetectionReport) -> Result<()> {
    let relation = catalog.get_mut(table)?;
    let sv = relation.schema().require_attr("SV")?;
    let mv = relation.schema().require_attr("MV")?;
    for row_id in report.sv_rows.iter() {
        relation.update_value(*row_id, sv, Value::Int(1))?;
    }
    for row_id in report.mv_rows.iter() {
        relation.update_value(*row_id, mv, Value::Int(1))?;
    }
    Ok(())
}

/// Fig. 1's instance `D0` plus the two constraints of Fig. 2 — shared by the
/// tests of several modules in this crate.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;
    use ecfd_core::ECfdBuilder;
    use ecfd_relation::{DataType, Tuple};

    pub fn cust_schema() -> Schema {
        Schema::builder("cust")
            .attr("AC", DataType::Str)
            .attr("PN", DataType::Str)
            .attr("NM", DataType::Str)
            .attr("STR", DataType::Str)
            .attr("CT", DataType::Str)
            .attr("ZIP", DataType::Str)
            .build()
    }

    pub fn d0() -> Relation {
        Relation::with_tuples(
            cust_schema(),
            [
                Tuple::from_iter(["718", "1111111", "Mike", "Tree Ave.", "Albany", "12238"]),
                Tuple::from_iter(["518", "2222222", "Joe", "Elm Str.", "Colonie", "12205"]),
                Tuple::from_iter(["518", "2222222", "Jim", "Oak Ave.", "Troy", "12181"]),
                Tuple::from_iter(["100", "1111111", "Rick", "8th Ave.", "NYC", "10001"]),
                Tuple::from_iter(["212", "3333333", "Ben", "5th Ave.", "NYC", "10016"]),
                Tuple::from_iter(["646", "4444444", "Ian", "High St.", "NYC", "10011"]),
            ],
        )
        .unwrap()
    }

    pub fn phi1() -> ECfd {
        ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p.not_in("CT", ["NYC", "LI"]))
            .pattern(|p| {
                p.in_set("CT", ["Albany", "Troy", "Colonie"])
                    .constant("AC", "518")
            })
            .build()
            .unwrap()
    }

    pub fn phi2() -> ECfd {
        ECfdBuilder::new("cust")
            .lhs(["CT"])
            .pattern_rhs(["AC"])
            .pattern(|p| {
                p.constant("CT", "NYC")
                    .in_set("AC", ["212", "718", "646", "347", "917"])
            })
            .build()
            .unwrap()
    }

    /// An FD-style constraint that D0 violates with two tuples once we add a
    /// second Albany row with a different area code.
    pub fn fd_ct_ac() -> ECfd {
        ECfdBuilder::new("cust")
            .lhs(["CT"])
            .fd_rhs(["AC"])
            .pattern(|p| p)
            .build()
            .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::*;
    use super::*;
    use ecfd_relation::Tuple;

    #[test]
    fn d0_has_the_two_violations_of_example_2_2() {
        let detector = SemanticDetector::new(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let db = d0();
        let report = detector.detect(&db).unwrap();
        let rows = db.row_ids();
        assert_eq!(report.sv_rows, [rows[0], rows[3]].into_iter().collect());
        assert!(report.mv_rows.is_empty());
        assert_eq!(report.num_violations(), 2);
    }

    #[test]
    fn multi_tuple_violations_flag_the_whole_group() {
        let mut db = d0();
        // A second Albany row with a different area code violates the FD part
        // of φ1's first pattern tuple together with t1.
        db.insert(Tuple::from_iter([
            "519", "7", "Zoe", "Pine St.", "Albany", "12239",
        ]))
        .unwrap();
        let detector = SemanticDetector::new(&cust_schema(), &[phi1()]).unwrap();
        let (report, groups) = detector.detect_with_groups(&db).unwrap();
        let rows = db.row_ids();
        assert!(report.mv_rows.contains(&rows[0]));
        assert!(report.mv_rows.contains(&rows[6]));
        assert_eq!(report.mv_rows.len(), 2);
        // The Albany group of the first single-pattern constraint violates.
        let albany_groups: Vec<&GroupState> = groups
            .iter()
            .filter(|((_, key), _)| detector.decode_key(key) == vec![Value::str("Albany")])
            .map(|(_, state)| state)
            .collect();
        assert!(albany_groups.iter().any(|g| g.violates()));
        // Membership is tracked alongside the counts.
        for g in &albany_groups {
            assert_eq!(g.rows.len(), g.size());
        }
    }

    #[test]
    fn detect_and_flag_writes_sv_mv_columns() {
        let mut catalog = Catalog::new();
        catalog.create(d0()).unwrap();
        let detector = SemanticDetector::new(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let report = detector.detect_and_flag(&mut catalog, "cust").unwrap();
        assert_eq!(report.num_sv(), 2);
        let read_back = DetectionReport::from_catalog(&catalog, "cust").unwrap();
        assert_eq!(read_back, report);
        // Re-running resets the flags and produces the same answer.
        let report2 = detector.detect_and_flag(&mut catalog, "cust").unwrap();
        assert_eq!(report2.sv_rows, report.sv_rows);
    }

    #[test]
    fn group_state_size_and_violation() {
        let mut dict = Dictionary::new();
        let y518: CodeVec = [dict.encode(&Value::str("518"))].into_iter().collect();
        let y718: CodeVec = [dict.encode(&Value::str("718"))].into_iter().collect();
        let mut state = GroupState::default();
        *state.y_counts.entry(y518).or_insert(0) += 2;
        assert_eq!(state.size(), 2);
        assert!(!state.violates());
        *state.y_counts.entry(y718).or_insert(0) += 1;
        assert_eq!(state.size(), 3);
        assert!(state.violates());
    }

    #[test]
    fn agreement_with_the_core_reference_semantics() {
        // The detector must agree with ecfd_core::satisfaction on every flag.
        let mut db = d0();
        db.insert(Tuple::from_iter([
            "519", "7", "Zoe", "Pine St.", "Albany", "12239",
        ]))
        .unwrap();
        let constraints = [phi1(), phi2(), fd_ct_ac()];
        let detector = SemanticDetector::new(&cust_schema(), &constraints).unwrap();
        let report = detector.detect(&db).unwrap();
        let reference = ecfd_core::satisfaction::check_all(&db, &constraints).unwrap();
        let expected = DetectionReport::from_violation_set(reference.violations(), db.len());
        assert_eq!(report.sv_rows, expected.sv_rows);
        assert_eq!(report.mv_rows, expected.mv_rows);
    }

    #[test]
    fn parallel_detection_matches_sequential_detection() {
        // Enough rows to clear the sequential-scan cutoff at Fixed(4).
        let mut db = d0();
        for i in 0..4000 {
            let city = ["Albany", "Troy", "NYC", "Colonie", "Utica"][i % 5];
            let ac = ["518", "718", "212", "519"][i % 4];
            db.insert(Tuple::from_iter([ac, "0", "Gen", "Any St.", city, "00000"]))
                .unwrap();
        }
        let constraints = [phi1(), phi2(), fd_ct_ac()];
        let sequential = SemanticDetector::new(&cust_schema(), &constraints)
            .unwrap()
            .with_parallelism(Parallelism::Fixed(1));
        let parallel = SemanticDetector::new(&cust_schema(), &constraints)
            .unwrap()
            .with_parallelism(Parallelism::Fixed(4));
        let (seq_report, seq_evidence, seq_groups) = sequential.detect_full(&db).unwrap();
        let (par_report, par_evidence, par_groups) = parallel.detect_full(&db).unwrap();
        assert_eq!(seq_report, par_report);
        assert_eq!(seq_evidence, par_evidence);
        // Group maps agree key-for-key once decoded through each dictionary.
        assert_eq!(seq_groups.len(), par_groups.len());
        let canon = |det: &SemanticDetector, groups: &GroupMap| {
            let mut out: Vec<(usize, Vec<Value>, usize, Vec<RowId>)> = groups
                .iter()
                .map(|((ci, key), state)| {
                    (*ci, det.decode_key(key), state.size(), state.rows.clone())
                })
                .collect();
            out.sort();
            out
        };
        assert_eq!(
            canon(&sequential, &seq_groups),
            canon(&parallel, &par_groups)
        );
    }

    #[test]
    fn evidence_names_the_violated_constraints_of_example_2_2() {
        use crate::evidence::ConstraintRef;
        let detector = SemanticDetector::new(&cust_schema(), &[phi1(), phi2()]).unwrap();
        let db = d0();
        let (report, evidence) = detector.detect_with_evidence(&db).unwrap();
        assert_eq!(evidence.detection_report(), report);
        let rows = db.row_ids();
        // t1 (Albany, 718) violates the second pattern tuple of φ1;
        // t4 (NYC, 100) violates the single pattern tuple of φ2.
        assert_eq!(
            evidence.sv_pairs(),
            [
                (rows[0], ConstraintRef::new(0, 1)),
                (rows[3], ConstraintRef::new(1, 0)),
            ]
            .into_iter()
            .collect()
        );
        assert!(evidence.mv_groups.is_empty());
    }

    #[test]
    fn mv_evidence_reports_the_offending_group_key() {
        let mut db = d0();
        db.insert(Tuple::from_iter([
            "519", "7", "Zoe", "Pine St.", "Albany", "12239",
        ]))
        .unwrap();
        let detector = SemanticDetector::new(&cust_schema(), &[phi1()]).unwrap();
        let (_, evidence) = detector.detect_with_evidence(&db).unwrap();
        // Albany matches both pattern tuples of φ1 → one violating group per
        // pattern tuple, same key, same two member rows.
        assert_eq!(evidence.num_groups(), 2);
        for group in &evidence.mv_groups {
            assert_eq!(group.group_key, vec![Value::str("Albany")]);
            assert_eq!(group.rows.len(), 2);
            assert_eq!(group.source.constraint, 0);
        }
    }

    #[test]
    fn frozen_detection_matches_live_detection_and_survives_later_writes() {
        let mut db = d0();
        db.insert(Tuple::from_iter([
            "519", "7", "Zoe", "Pine St.", "Albany", "12239",
        ]))
        .unwrap();
        let detector = SemanticDetector::new(&cust_schema(), &[phi1(), phi2(), fd_ct_ac()])
            .unwrap()
            .with_parallelism(Parallelism::Fixed(1));
        let (live_report, live_evidence) = detector.detect_with_evidence(&db).unwrap();

        let frozen = detector.freeze(&db, cust_schema().arity());
        // Mutate the relation *and* the shared dictionary after the freeze.
        db.insert(Tuple::from_iter([
            "999",
            "8",
            "New",
            "Post-freeze",
            "Utica",
            "13501",
        ]))
        .unwrap();
        detector.detect(&db).unwrap();

        let (frozen_report, frozen_evidence) =
            detector.detect_frozen(&frozen, &cust_schema()).unwrap();
        assert_eq!(frozen_report, live_report, "frozen scan is isolated");
        assert_eq!(frozen_evidence, live_evidence);

        // Concurrent frozen scans on clones agree at other worker counts.
        let parallel = detector.clone().with_parallelism(Parallelism::Fixed(4));
        let handle = frozen.clone();
        let out = std::thread::spawn(move || parallel.detect_frozen(&handle, &cust_schema()))
            .join()
            .unwrap()
            .unwrap();
        assert_eq!(out.0, live_report);
        assert_eq!(out.1, live_evidence);
    }

    #[test]
    fn partition_merge_matches_single_pass_detection() {
        use ecfd_relation::shard_of_value;
        let mut db = d0();
        db.insert(Tuple::from_iter([
            "519", "7", "Zoe", "Pine St.", "Albany", "12239",
        ]))
        .unwrap();
        for i in 0..40 {
            let city = ["Albany", "Troy", "NYC", "Colonie"][i % 4];
            let ac = ["518", "718", "212"][i % 3];
            db.insert(Tuple::from_iter([ac, "0", "Gen", "Any St.", city, "00000"]))
                .unwrap();
        }
        let constraints = [phi1(), phi2(), fd_ct_ac()];
        let schema = cust_schema();
        let oracle = SemanticDetector::new(&schema, &constraints).unwrap();
        let (want_report, want_evidence) = oracle.detect_with_evidence(&db).unwrap();

        // Route by AC: φ1 / fd_ct_ac group on CT, so their groups straddle
        // partitions (cross-shard); route by CT and they stay aligned. Both
        // routes must reproduce the single-pass result exactly.
        for shard_key in ["AC", "CT"] {
            let attr = schema.require_attr(shard_key).unwrap();
            for shards in [1usize, 2, 4] {
                let mut parts: Vec<Vec<(RowId, Tuple)>> = vec![Vec::new(); shards];
                for (id, t) in db.iter() {
                    parts[shard_of_value(t.value(attr), shards)].push((id, t.clone()));
                }
                let mut partials = Vec::new();
                let mut mask = None;
                for rows in parts {
                    let rel = Relation::with_rows(schema.clone(), rows).unwrap();
                    let det = SemanticDetector::new(&schema, &constraints).unwrap();
                    let aligned = det.aligned_mask(&schema, attr).unwrap();
                    let frozen = det.freeze(&rel, schema.arity());
                    partials.push(det.detect_partition(&frozen, &schema, &aligned).unwrap());
                    mask = Some(aligned);
                }
                let mask = mask.unwrap();
                // CT-routing aligns the CT-grouping constraints; AC-routing
                // leaves them open.
                assert_eq!(mask.iter().any(|&a| a), shard_key == "CT");
                let (report, evidence) = oracle.merge_partials(partials);
                assert_eq!(report, want_report, "key={shard_key} shards={shards}");
                assert_eq!(evidence, want_evidence, "key={shard_key} shards={shards}");
            }
        }
    }

    #[test]
    fn clean_data_produces_a_clean_report() {
        let db = Relation::with_tuples(
            cust_schema(),
            [
                Tuple::from_iter(["518", "1", "A", "S", "Albany", "12238"]),
                Tuple::from_iter(["212", "2", "B", "S", "NYC", "10001"]),
            ],
        )
        .unwrap();
        let detector = SemanticDetector::new(&cust_schema(), &[phi1(), phi2()]).unwrap();
        assert!(detector.detect(&db).unwrap().is_clean());
    }
}
