//! Differential safety net of the dictionary-encoded columnar refactor.
//!
//! The coded detection core must be observationally identical to the
//! pre-refactor value-based semantics:
//!
//! * the coded semantic detector flags exactly the rows the value-based
//!   reference semantics (`ecfd_core::satisfaction::check_all`) flags;
//! * 1 worker and N workers produce byte-identical `DetectionReport`s and
//!   (normalized) `EvidenceReport`s — the hash-partitioned sharded scan may
//!   not change a single byte of output;
//! * the property holds on the datagen workloads too, including after mixed
//!   insert/delete deltas applied through the session's backends, where all
//!   four backends (coded semantic, coded incremental, value-based SQL
//!   readback, plan executor) must agree record-for-record.

use ecfd::datagen::constraints::workload_constraints;
use ecfd::datagen::{generate, generate_delta, CustConfig, UpdateConfig};
use ecfd::prelude::*;
use proptest::prelude::*;

const CITIES: [&str; 5] = ["Albany", "Troy", "NYC", "LI", "Utica"];
const CODES: [&str; 4] = ["518", "212", "315", "716"];

fn schema() -> Schema {
    Schema::builder("cust")
        .attr("CT", DataType::Str)
        .attr("AC", DataType::Str)
        .attr("ZIP", DataType::Str)
        .build()
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (0..CITIES.len(), 0..CODES.len(), 0..3usize)
        .prop_map(|(c, a, z)| Tuple::from_iter([CITIES[c], CODES[a], &format!("zip{z}")]))
}

fn arb_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(arb_tuple(), 0..30)
        .prop_map(|tuples| Relation::with_tuples(schema(), tuples).expect("tuples fit the schema"))
}

fn arb_pattern_value(values: &'static [&'static str]) -> impl Strategy<Value = PatternValue> {
    prop_oneof![
        Just(PatternValue::Wildcard),
        proptest::collection::btree_set(0..values.len(), 1..=2)
            .prop_map(move |idx| PatternValue::in_set(idx.into_iter().map(|i| values[i]))),
        proptest::collection::btree_set(0..values.len(), 1..=2)
            .prop_map(move |idx| PatternValue::not_in_set(idx.into_iter().map(|i| values[i]))),
    ]
}

fn arb_ecfd() -> impl Strategy<Value = ECfd> {
    (
        arb_pattern_value(&CITIES),
        arb_pattern_value(&CODES),
        proptest::option::of(arb_pattern_value(&CODES)),
    )
        .prop_map(|(lhs, rhs, second)| {
            let mut tableau = vec![PatternTuple::new(vec![lhs.clone()], vec![rhs])];
            if let Some(extra) = second {
                tableau.push(PatternTuple::new(vec![lhs], vec![extra]));
            }
            ECfd::new(
                "cust",
                vec!["CT".into()],
                vec!["AC".into()],
                vec![],
                tableau,
            )
            .expect("generated constraints are well-formed")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Coded detection equals the value-based reference semantics, and the
    /// sharded parallel scan changes nothing: identical reports, evidence
    /// and decoded group state at 1 and 4 workers.
    #[test]
    fn coded_detection_matches_value_semantics_at_any_parallelism(
        data in arb_relation(),
        constraints in proptest::collection::vec(arb_ecfd(), 1..4),
    ) {
        let reference = check_all(&data, &constraints).unwrap();
        let expected = DetectionReport::from_violation_set(reference.violations(), data.len());

        let sequential = SemanticDetector::new(&schema(), &constraints).unwrap()
            .with_parallelism(Parallelism::Fixed(1));
        let sharded = SemanticDetector::new(&schema(), &constraints).unwrap()
            .with_parallelism(Parallelism::Fixed(4));

        let (seq_report, seq_evidence) = sequential.detect_with_evidence(&data).unwrap();
        let (par_report, par_evidence) = sharded.detect_with_evidence(&data).unwrap();

        prop_assert_eq!(&seq_report.sv_rows, &expected.sv_rows);
        prop_assert_eq!(&seq_report.mv_rows, &expected.mv_rows);
        prop_assert_eq!(&seq_report, &par_report);
        prop_assert_eq!(&seq_evidence, &par_evidence);
        prop_assert_eq!(seq_evidence.detection_report(), seq_report);
    }
}

/// One session per backend per parallelism: every combination must produce
/// identical reports and evidence on the datagen workloads, initially and
/// after a mixed insert/delete delta.
#[test]
fn backends_agree_on_datagen_workloads_at_one_and_n_threads() {
    for (size, noise, seed) in [(200usize, 5.0f64, 3u64), (300, 8.0, 9)] {
        let (data, _) = generate(&CustConfig {
            size,
            noise_percent: noise,
            seed,
            ..CustConfig::default()
        });
        let constraints = workload_constraints();
        let delta = generate_delta(
            &data,
            &UpdateConfig {
                insertions: 35,
                deletions: 20,
                noise_percent: 10.0,
                seed: seed + 50,
                ..UpdateConfig::default()
            },
        );
        assert!(!delta.insertions.is_empty() && !delta.deletions.is_empty());

        let mut outputs = Vec::new();
        for kind in BackendKind::ALL {
            for threads in [1usize, 4] {
                let policy = ecfd::session::RoutingPolicy::fixed(kind)
                    .with_parallelism(Parallelism::Fixed(threads));
                let mut session = Session::new().with_policy(policy);
                session.load(data.clone()).unwrap();
                session.register(&constraints).unwrap();

                let report = session.detect().unwrap();
                let evidence = session.explain().unwrap();
                let after = session.apply(&delta).unwrap();
                let after_evidence = session.explain().unwrap();
                outputs.push((
                    format!("{kind}@{threads}"),
                    report,
                    evidence.normalized(),
                    after,
                    after_evidence.normalized(),
                ));
            }
        }
        assert!(
            !outputs[0].1.is_clean(),
            "noisy workloads must produce violations"
        );
        for pair in outputs.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert_eq!(
                a.1, b.1,
                "initial reports: {} vs {} (size {size})",
                a.0, b.0
            );
            assert_eq!(a.2, b.2, "initial evidence: {} vs {}", a.0, b.0);
            assert_eq!(a.3, b.3, "post-delta reports: {} vs {}", a.0, b.0);
            assert_eq!(a.4, b.4, "post-delta evidence: {} vs {}", a.0, b.0);
        }
    }
}

/// A sequence of deltas through the incremental maintainer at N workers must
/// track a from-scratch coded pass *and* the value-based reference at every
/// step.
#[test]
fn incremental_maintenance_tracks_reference_semantics_under_deltas() {
    let (data, _) = generate(&CustConfig {
        size: 250,
        noise_percent: 6.0,
        seed: 17,
        ..CustConfig::default()
    });
    let constraints = workload_constraints();
    let mut session = Session::new().with_policy(
        ecfd::session::RoutingPolicy::fixed(BackendKind::Incremental)
            .with_parallelism(Parallelism::Fixed(4)),
    );
    session.load(data.clone()).unwrap();
    session.register(&constraints).unwrap();
    session.detect().unwrap();

    let mut mirror = data;
    for step in 0..3u64 {
        let delta = generate_delta(
            &mirror,
            &UpdateConfig {
                insertions: 20,
                deletions: 12,
                noise_percent: 8.0,
                seed: 100 + step,
                ..UpdateConfig::default()
            },
        );
        let incremental = session.apply(&delta).unwrap();
        delta.apply(&mut mirror).unwrap();

        let reference = check_all(&mirror, &constraints).unwrap();
        let expected = DetectionReport::from_violation_set(reference.violations(), mirror.len());
        // Row ids diverge between session table and mirror after deletions,
        // so compare the flagged tuples, not the ids.
        let project = |rel: &Relation, rows: &std::collections::BTreeSet<RowId>| {
            let mut out: Vec<Vec<Value>> = rows
                .iter()
                .map(|r| rel.get(*r).unwrap().values()[..3].to_vec())
                .collect();
            out.sort();
            out
        };
        // The stored table keeps the session's row ids (plus flag columns);
        // `project` only reads the base prefix.
        let session_data = session.catalog().get("cust").unwrap();
        assert_eq!(
            project(session_data, &incremental.sv_rows),
            project(&mirror, &expected.sv_rows),
            "SV diverges from the reference at step {step}"
        );
        assert_eq!(
            project(session_data, &incremental.mv_rows),
            project(&mirror, &expected.mv_rows),
            "MV diverges from the reference at step {step}"
        );
    }
}

// ── Wider constraint shapes through the group-then-match engine ───────────
//
// The engine groups rows once per fused `X` list and decides matches,
// single-tuple and multi-tuple violations per group. These properties cover
// the shapes where that can go wrong: multi-attribute and empty `X`,
// `Yp`-only constraints, several constraints fused on one `X` with
// different `Y`, and wildcard / `NotIn` LHS cells.

const ZIPS: [&str; 3] = ["zip0", "zip1", "zip2"];

/// `(X, Y, Yp)` constraint shapes over the `cust(CT, AC, ZIP)` schema.
type Shape = (
    &'static [&'static str],
    &'static [&'static str],
    &'static [&'static str],
);

const SHAPES: [Shape; 8] = [
    (&["CT"], &["AC"], &[]),
    // Fuses with the shape above (same X), different Y.
    (&["CT"], &["ZIP"], &[]),
    (&["CT"], &[], &["AC"]),
    (&["CT", "ZIP"], &["AC"], &[]),
    (&["CT", "ZIP"], &[], &["AC"]),
    (&[], &["AC"], &[]),
    (&[], &[], &["CT"]),
    (&["AC"], &["CT"], &["ZIP"]),
];

fn domain(attr: &str) -> &'static [&'static str] {
    match attr {
        "CT" => &CITIES,
        "AC" => &CODES,
        _ => &ZIPS,
    }
}

/// A pattern cell before its attribute is known: kind (wildcard, set,
/// complement set) plus value indices into the attribute's domain.
type RawCell = (usize, std::collections::BTreeSet<usize>);

fn arb_raw_cell() -> impl Strategy<Value = RawCell> {
    (0..3usize, proptest::collection::btree_set(0..5usize, 1..=2))
}

fn resolve(attr: &str, (kind, picks): &RawCell) -> PatternValue {
    let values = domain(attr);
    let picked = picks.iter().map(|i| values[i % values.len()]);
    match kind {
        0 => PatternValue::Wildcard,
        1 => PatternValue::in_set(picked),
        _ => PatternValue::not_in_set(picked),
    }
}

fn names(attrs: &[&str]) -> Vec<String> {
    attrs.iter().map(|a| a.to_string()).collect()
}

fn arb_shaped_ecfd() -> impl Strategy<Value = ECfd> {
    (
        0..SHAPES.len(),
        proptest::collection::vec(proptest::collection::vec(arb_raw_cell(), 4), 1..=2),
    )
        .prop_map(|(shape, patterns)| {
            let (x, y, yp) = SHAPES[shape];
            let tableau = patterns
                .iter()
                .map(|raw| {
                    let mut raw = raw.iter();
                    let mut next = |attr: &&str| resolve(attr, raw.next().expect("4 cells"));
                    let lhs = x.iter().map(&mut next).collect();
                    let rhs = y.iter().chain(yp).map(&mut next).collect();
                    PatternTuple::new(lhs, rhs)
                })
                .collect();
            ECfd::new("cust", names(x), names(y), names(yp), tableau)
                .expect("shaped constraints are well-formed")
        })
}

/// `data` repeated `times` times: the same groups, with enough rows for the
/// grouping pass to fan out at 4 workers. Callers pick a `times` that 4 does
/// not divide, so worker chunks start mid-repetition and see the groups in a
/// different first-seen order than the whole view does.
fn amplify(data: &Relation, times: usize) -> Relation {
    let tuples: Vec<Tuple> = data.iter().map(|(_, t)| t.clone()).collect();
    Relation::with_tuples(schema(), (0..times).flat_map(|_| tuples.iter().cloned()))
        .expect("tuples fit the schema")
}

/// The group map decoded through the detector's dictionary, sorted.
#[allow(clippy::type_complexity)]
fn decoded_groups(
    detector: &SemanticDetector,
    data: &Relation,
) -> Vec<(usize, Vec<Value>, Vec<(Vec<Value>, usize)>, Vec<RowId>)> {
    let (_, groups) = detector.detect_with_groups(data).unwrap();
    let mut out: Vec<_> = groups
        .iter()
        .map(|((ci, key), state)| {
            let mut y_counts: Vec<(Vec<Value>, usize)> = state
                .y_counts
                .iter()
                .map(|(y, n)| (detector.decode_key(y), *n))
                .collect();
            y_counts.sort();
            (*ci, detector.decode_key(key), y_counts, state.rows.clone())
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Report-only detection, the evidence's collapsed report and the
    /// value-based reference agree on every shape, down to which pattern
    /// tuple each row violates; evidence and decoded group maps are
    /// identical at 1 and 4 workers.
    #[test]
    fn engine_matches_reference_semantics_on_wider_shapes(
        data in arb_relation(),
        constraints in proptest::collection::vec(arb_shaped_ecfd(), 1..5),
    ) {
        let reference = check_all(&data, &constraints).unwrap();
        let expected = DetectionReport::from_violation_set(reference.violations(), data.len());
        let one = SemanticDetector::new(&schema(), &constraints).unwrap()
            .with_parallelism(Parallelism::Fixed(1));
        let four = SemanticDetector::new(&schema(), &constraints).unwrap()
            .with_parallelism(Parallelism::Fixed(4));

        let report = one.detect(&data).unwrap();
        let (evidence_report, evidence) = one.detect_with_evidence(&data).unwrap();
        prop_assert_eq!(&report.sv_rows, &expected.sv_rows);
        prop_assert_eq!(&report.mv_rows, &expected.mv_rows);
        prop_assert_eq!(&evidence_report, &report);
        prop_assert_eq!(&evidence.detection_report(), &report);
        let pairs = |kind: ViolationKind| -> std::collections::BTreeSet<(RowId, ConstraintRef)> {
            reference
                .violations()
                .violations()
                .iter()
                .filter(|v| v.kind == kind)
                .map(|v| (v.row, ConstraintRef::new(v.constraint, v.pattern)))
                .collect()
        };
        prop_assert_eq!(evidence.sv_pairs(), pairs(ViolationKind::SingleTuple));
        prop_assert_eq!(evidence.mv_pairs(), pairs(ViolationKind::MultiTuple));
        let frozen = one.freeze(&data, schema().arity());
        prop_assert_eq!(&one.detect_frozen_report(&frozen, &schema()).unwrap(), &report);

        let big = amplify(&data, 301);
        let (report_1, evidence_1) = one.detect_with_evidence(&big).unwrap();
        let (report_4, evidence_4) = four.detect_with_evidence(&big).unwrap();
        prop_assert_eq!(&report_1, &report_4);
        prop_assert_eq!(&evidence_1, &evidence_4);
        prop_assert_eq!(&evidence_1.detection_report(), &report_1);
        prop_assert_eq!(&four.detect(&big).unwrap(), &report_4);
        prop_assert_eq!(decoded_groups(&one, &big), decoded_groups(&four, &big));
    }

    /// After incremental deltas with inserts and deletes, a snapshot's
    /// report-only re-detection equals its evidence re-detection and the
    /// published report and evidence.
    #[test]
    fn snapshot_report_only_path_matches_evidence_path_after_deltas(
        data in arb_relation(),
        constraints in proptest::collection::vec(arb_shaped_ecfd(), 1..5),
        inserts in proptest::collection::vec(arb_tuple(), 1..8),
        victims in proptest::collection::vec(0..30usize, 1..4),
    ) {
        let mut session = Session::new().with_policy(
            ecfd::session::RoutingPolicy::fixed(BackendKind::Incremental)
                .with_parallelism(Parallelism::Fixed(4)),
        );
        session.load(data.clone()).unwrap();
        session.register(&constraints).unwrap();
        session.detect().unwrap();
        let tuples: Vec<Tuple> = data.iter().map(|(_, t)| t.clone()).collect();
        for step in 0..2 {
            let mut delta = Delta::new();
            delta.insertions = inserts.clone();
            if !tuples.is_empty() {
                delta.deletions = victims
                    .iter()
                    .map(|i| tuples[(i + step) % tuples.len()].clone())
                    .collect();
            }
            session.apply(&delta).unwrap();
            let snap = session.snapshot().unwrap();
            let (fresh, fresh_evidence) = snap.detect_fresh_with_evidence().unwrap();
            prop_assert_eq!(&snap.detect_fresh().unwrap(), &fresh);
            prop_assert_eq!(snap.report(), &fresh);
            prop_assert_eq!(&snap.evidence().normalized(), &fresh_evidence);
        }
    }
}
