//! The per-layer metrics of a traced run.
//!
//! Nothing inside the program changes for them; every layer is read from
//! outside through two sources:
//!
//! * the server's own `STATS`, read where each phase's timed window begins
//!   and after its last slice: counters and histogram counts/sums are
//!   diffed, and per-op ratios divide by the server's own request counts;
//!   quantiles are the server's cumulative ones, which describe the phase
//!   because every phase runs on a freshly spawned server;
//! * benchmark-side spans around calls into each layer's public functions,
//!   replaying the run's seeded inputs in-process (see [`replay`]).

use crate::inputs::{constraints_for, Inputs, DELETES_PER_DELTA, INSERTS_PER_DELTA};
use crate::phase::{Phase, Tally};
use crate::spans::Spans;
use crate::stats::{growth, median, Exposition};
use crate::workload::{Workload, SHARD_KEY};
use crate::{Metric, Pass};
use ecfd_core::ConstraintSet;
use ecfd_detect::{DetectorBackend, SemanticDetector};
use ecfd_plan::PlanBackend;
use ecfd_relation::Catalog;
use ecfd_serve::protocol::{Request, Response};
use ecfd_serve::{ShardedConfig, ShardedHub};
use ecfd_session::Session;

/// Repetitions of each in-process span.
const REPS: usize = 3;

/// ACKed deltas replayed through a `Session` under `session.apply` and
/// `session.snapshot` spans.
const SESSION_DELTAS: usize = 20;

/// The `|Tp|` sweep of the detection scan, with each size's span name.
const TP_SWEEP: [(usize, &str); 4] = [
    (10, "detect.scan.tp10"),
    (40, "detect.scan.tp40"),
    (160, "detect.scan.tp160"),
    (640, "detect.scan.tp640"),
];

/// Counts the replay reads off the compiled artefacts.
#[derive(Debug, Default)]
pub struct Replay {
    /// Single-pattern constraints after compilation.
    pub singles: usize,
    /// Scans in the fused plan.
    pub scans: usize,
}

/// Replays the run's inputs in-process under spans: CSV load, compile,
/// encode and scan, the fused plan, `Response` render/parse of the pass's
/// final report, the session's apply + publish over the first ACKed deltas,
/// the `|Tp|` sweep (detection-bound workload only) and the per-shard
/// partition scans plus merge (sharded workload only; its merged report
/// must equal the oracle's).
pub fn replay(
    workload: &Workload,
    inputs: &Inputs,
    pass: &Pass,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<Replay, String> {
    let relation = repeat(spans, "relation.csv_load", || {
        ecfd_relation::csv::from_csv_infer("cust", &inputs.csv)
    })
    .map_err(|e| e.to_string())?;
    let schema = relation.schema().clone();
    let set = repeat(spans, "core.compile", || {
        ConstraintSet::compile(&schema, &inputs.constraints)
    })
    .map_err(|e| e.to_string())?;

    let detector = SemanticDetector::from_set(&set);
    let frozen = repeat(spans, "detect.encode", || {
        detector.freeze(&relation, schema.arity())
    });
    repeat(spans, "detect.scan", || {
        detector.detect_frozen(&frozen, &schema)
    })
    .map_err(|e| e.to_string())?;

    let mut plan = PlanBackend::from_set(&set).map_err(|e| e.to_string())?;
    let mut catalog = Catalog::new();
    catalog
        .create(relation.clone())
        .map_err(|e| e.to_string())?;
    repeat(spans, "plan.pass.fused", || plan.detect(&mut catalog)).map_err(|e| e.to_string())?;

    let mixed = pass.mixed.last().ok_or("a pass has at least one round")?;
    if let Some(line) = mixed.final_report.as_deref() {
        let parsed =
            Response::parse(line).map_err(|e| format!("final report does not parse: {e}"))?;
        if repeat(spans, "protocol.render.detect", || parsed.render()) != line {
            tally.fail("final report does not re-render byte-identically".to_string());
        }
    }

    let mut session = Session::new();
    session.load(relation.clone()).map_err(|e| e.to_string())?;
    session
        .register_text(&inputs.rules)
        .map_err(|e| e.to_string())?;
    session.snapshot().map_err(|e| e.to_string())?;
    for &index in mixed.acked.iter().take(SESSION_DELTAS) {
        let delta = Request::ops_to_delta(&inputs.deltas[index].ops, &schema)?;
        spans
            .time("session.apply", || session.apply(&delta))
            .map_err(|e| e.to_string())?;
        spans
            .time("session.snapshot", || session.snapshot())
            .map_err(|e| e.to_string())?;
    }
    drop(session);

    if workload.shards.is_none() {
        for (tp, span) in TP_SWEEP {
            let set =
                ConstraintSet::compile(&schema, &constraints_for(tp)).map_err(|e| e.to_string())?;
            let detector = SemanticDetector::from_set(&set);
            let frozen = detector.freeze(&relation, schema.arity());
            repeat(spans, span, || detector.detect_frozen(&frozen, &schema))
                .map_err(|e| e.to_string())?;
        }
    }

    if let Some(shards) = workload.shards {
        replay_sharded(shards, pass, spans, tally)?;
    }

    Ok(Replay {
        singles: set.singles().len(),
        scans: plan.plan().num_scans(),
    })
}

/// Runs `f` [`REPS`] times under the span `name`; returns the last result.
fn repeat<T>(spans: &mut Spans, name: &'static str, mut f: impl FnMut() -> T) -> T {
    let mut out = spans.time(name, &mut f);
    for _ in 1..REPS {
        out = spans.time(name, &mut f);
    }
    out
}

/// Partitions the oracle's final table across `shards` in-process, then
/// times each shard's partition scan and the cross-shard merge.
fn replay_sharded(
    shards: usize,
    pass: &Pass,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Result<(), String> {
    let template = pass.oracle.session(&mut Spans::default())?;
    let (_writers, hub) = ShardedHub::bootstrap(template, &ShardedConfig::new(shards, SHARD_KEY))
        .map_err(|e| e.to_string())?;
    let snapshots: Vec<_> = hub.shard_hubs().iter().map(|h| h.snapshot()).collect();
    let aligned = snapshots[0]
        .aligned_mask(SHARD_KEY)
        .map_err(|e| e.to_string())?;
    for _ in 0..REPS {
        let mut partials = Vec::with_capacity(shards);
        for snapshot in &snapshots {
            partials.push(
                spans
                    .time("snapshot.detect_partition", || {
                        snapshot.detect_partition(&aligned)
                    })
                    .map_err(|e| e.to_string())?,
            );
        }
        let (report, _) = spans.time("snapshot.merge_partials", || {
            snapshots[0].merge_partials(partials)
        });
        tally.attempt();
        if report != pass.expected {
            tally.fail("in-process merged report differs from the oracle".to_string());
        }
    }
    hub.shutdown();
    Ok(())
}

/// Everything the per-layer metrics are computed from.
pub struct Sources<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// The fresh phase of the traced pass.
    pub fresh: &'a Phase,
    /// The mixed phase of the traced pass.
    pub mixed: &'a Phase,
    /// Benchmark-side spans of the traced pass.
    pub spans: &'a Spans,
    /// Counts read in the replay.
    pub replay: &'a Replay,
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them (the
/// tracing-overhead rows are appended by the caller).
pub fn per_layer(src: &Sources<'_>) -> Vec<Metric> {
    let Sources {
        workload,
        fresh,
        mixed,
        spans,
        replay,
    } = *src;
    let detection_bound = workload.fresh_share >= 0.5;
    let primary = if detection_bound { fresh } else { mixed };
    let (fb, fa) = (&fresh.before, &fresh.after);
    let (mb, ma) = (&mixed.before, &mixed.after);
    let (pb, pa) = (&primary.before, &primary.after);
    // Operation counts inside the STATS window, as the server counted them.
    let requests = |b, a, verb| growth(b, a, "serve.requests", &[("verb", verb)]);
    let deltas = requests(mb, ma, "APPLY");
    let rows = deltas * (INSERTS_PER_DELTA + DELETES_PER_DELTA) as f64;
    let primary_ops = requests(pb, pa, if detection_bound { "DETECT" } else { "APPLY" });
    let primary_client_ops = if detection_bound {
        fresh.detect_ms.len()
    } else {
        mixed.apply_sync_ms.len()
    } as f64;
    let sharded = workload.shards.is_some();
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str, source: &str| {
        out.push(Metric::new(name, value, unit, source));
    };
    let detect = [("verb", "DETECT")];
    let hist_mean_ms = |b: &Exposition, a: &Exposition, name: &str, labels: &[(&str, &str)]| {
        ratio(
            growth(b, a, &format!("{name}.sum"), labels),
            growth(b, a, &format!("{name}.count"), labels),
        ) / 1e6
    };

    // serve
    push(
        "serve.dispatch.detect.p50_ms",
        pa.quantile_ms("serve.request.ns", &detect, "0.50"),
        "ms",
        "STATS serve.request.ns{verb=DETECT} p50, primary phase",
    );
    for (verb, q, name) in [
        ("APPLY", "0.50", "serve.dispatch.apply.p50_ms"),
        ("SYNC", "0.50", "serve.dispatch.sync.p50_ms"),
        ("SYNC", "0.95", "serve.dispatch.sync.p95_ms"),
    ] {
        push(
            name,
            ma.quantile_ms("serve.request.ns", &[("verb", verb)], q),
            "ms",
            "STATS serve.request.ns, mixed phase",
        );
    }
    push(
        "serve.wire.detect.p50_ms",
        mean(&primary.detect_ms) - hist_mean_ms(pb, pa, "serve.request.ns", &detect),
        "ms",
        "client DETECT mean minus STATS dispatch mean (STATS quantiles are 25%-wide buckets)",
    );
    push(
        "serve.wire.detect.bytes",
        mean(&primary.detect_bytes),
        "bytes",
        "client-measured reply size, primary phase",
    );
    // serve::protocol
    push(
        "protocol.render.detect.p50_ms",
        median(spans.get("protocol.render.detect")),
        "ms",
        "span around Response::render of the run's final report",
    );
    push(
        "protocol.parse.detect.p50_ms",
        median(&primary.parse_ms),
        "ms",
        "client span around Response::parse of every primary-phase DETECT reply",
    );
    // ingest
    push(
        "ingest.backpressure_wait.p95_ms",
        ma.quantile_ms("ingest.backpressure.wait.ns", &[], "0.95"),
        "ms",
        "STATS ingest.backpressure.wait.ns p95, mixed phase",
    );
    push(
        "ingest.rejected",
        growth(mb, ma, "ingest.rejected", &[]),
        "count",
        "STATS counter diff, mixed phase (a guard: expected 0)",
    );
    // wal
    let wal_note = if workload.wal {
        "STATS wal.*, mixed phase"
    } else {
        "no WAL on this workload: reads 0"
    };
    push(
        "wal.fsync.p50_ms",
        ma.quantile_ms("wal.fsync.ns", &[], "0.50"),
        "ms",
        wal_note,
    );
    push(
        "wal.fsync.p95_ms",
        ma.quantile_ms("wal.fsync.ns", &[], "0.95"),
        "ms",
        wal_note,
    );
    push(
        "wal.fsyncs_per_delta",
        ratio(growth(mb, ma, "wal.fsync.count", &[]), deltas),
        "count",
        wal_note,
    );
    push(
        "wal.bytes_per_row",
        ratio(growth(mb, ma, "wal.bytes", &[]), rows),
        "bytes",
        wal_note,
    );
    // writer
    for (hist, stem) in [
        ("writer.apply.ns", "writer.apply"),
        ("writer.publish.ns", "writer.publish"),
    ] {
        for (q, tag) in [("0.50", "p50_ms"), ("0.95", "p95_ms")] {
            push(
                &format!("{stem}.{tag}"),
                ma.quantile_ms(hist, &[], q),
                "ms",
                "STATS, mixed phase (sharded: the slowest shard)",
            );
        }
    }
    for shard in ["0", "1"] {
        for (hist, stem) in [
            ("writer.apply.ns", "writer.apply"),
            ("writer.publish.ns", "writer.publish"),
        ] {
            for (q, tag) in [("0.50", "p50_ms"), ("0.95", "p95_ms")] {
                let value = if sharded {
                    ma.quantile_ms(hist, &[("shard", shard)], q)
                } else {
                    0.0
                };
                push(
                    &format!("{stem}.{tag}.shard{shard}"),
                    value,
                    "ms",
                    if sharded {
                        "STATS per shard, mixed phase"
                    } else {
                        "unsharded workload: reads 0"
                    },
                );
            }
        }
    }
    push(
        "writer.batch_size.mean",
        ratio(
            growth(mb, ma, "writer.batch.size.sum", &[]),
            growth(mb, ma, "writer.batch.size.count", &[]),
        ),
        "count",
        "STATS histogram sum/count diff, mixed phase",
    );
    push(
        "writer.apply_failed",
        growth(mb, ma, "writer.apply.failed", &[]),
        "count",
        "STATS counter diff, mixed phase (a guard: expected 0)",
    );
    // session
    push(
        "session.apply.p50_ms",
        median(spans.get("session.apply")),
        "ms",
        "span around Session::apply, replaying the ACKed deltas",
    );
    push(
        "session.snapshot.p50_ms",
        median(spans.get("session.snapshot")),
        "ms",
        "span around Session::snapshot after each replayed delta (publish cost)",
    );
    push(
        "session.register_ms",
        median(spans.get("session.register")),
        "ms",
        "span around Session::register_text",
    );
    push(
        "session.routed_incremental.share",
        ratio(
            growth(
                mb,
                ma,
                "session.apply.routed",
                &[("backend", "incremental")],
            ),
            growth(mb, ma, "session.apply.routed", &[]),
        ),
        "ratio",
        "STATS session.apply.routed diff, mixed phase",
    );
    // detect
    push(
        "detect.pass.semantic.p50_ms",
        fa.quantile_ms("detect.pass.ns", &[("backend", "semantic")], "0.50"),
        "ms",
        "STATS detect.pass.ns{backend=semantic} p50, fresh phase",
    );
    for (q, name) in [
        ("0.50", "detect.pass.incremental.p50_ms"),
        ("0.95", "detect.pass.incremental.p95_ms"),
    ] {
        push(
            name,
            ma.quantile_ms("detect.pass.ns", &[("backend", "incremental")], q),
            "ms",
            "STATS detect.pass.ns{backend=incremental}, mixed phase",
        );
    }
    push(
        "detect.rows_scanned.per_op",
        ratio(growth(pb, pa, "detect.rows.scanned", &[]), primary_ops),
        "count",
        "STATS counter diff per primary-phase operation",
    );
    push(
        "detect.groups_merged.per_op",
        ratio(growth(pb, pa, "detect.groups.merged", &[]), primary_ops),
        "count",
        "STATS counter diff per primary-phase operation",
    );
    push(
        "detect.violations.per_pass",
        ratio(
            growth(fb, fa, "detect.violations", &[]),
            growth(fb, fa, "detect.pass.ns.count", &[]),
        ),
        "count",
        "STATS detect.violations per full pass, fresh phase (a sentinel)",
    );
    push(
        "detect.encode.p50_ms",
        median(spans.get("detect.encode")),
        "ms",
        "span around SemanticDetector::freeze",
    );
    push(
        "detect.scan.p50_ms",
        median(spans.get("detect.scan")),
        "ms",
        "span around SemanticDetector::detect_frozen",
    );
    for (_, span) in TP_SWEEP {
        let samples = spans.get(span);
        push(
            &format!("{span}.p50_ms"),
            median(samples),
            "ms",
            if samples.is_empty() {
                "swept on fresh_tp160_20k only: reads 0"
            } else {
                "span around detect_frozen, scaled |Tp| over this run's table"
            },
        );
    }
    // sharded merge
    let shard_note = if sharded {
        "span on the final shard snapshots"
    } else {
        "unsharded workload: reads 0"
    };
    push(
        "snapshot.detect_partition.p50_ms",
        median(spans.get("snapshot.detect_partition")),
        "ms",
        shard_note,
    );
    push(
        "snapshot.merge_partials.p50_ms",
        median(spans.get("snapshot.merge_partials")),
        "ms",
        shard_note,
    );
    let apply_sums: Vec<f64> = (0..workload.shards.unwrap_or(0))
        .map(|s| growth(mb, ma, "writer.apply.ns.sum", &[("shard", &s.to_string())]))
        .collect();
    push(
        "sharded.apply_skew",
        ratio(
            apply_sums.iter().copied().fold(0.0, f64::max),
            mean(&apply_sums),
        ),
        "ratio",
        if sharded {
            "slowest shard's writer.apply time over the shard mean, mixed phase"
        } else {
            "unsharded workload: reads 0"
        },
    );
    // plan
    push(
        "plan.pass.fused.p50_ms",
        median(spans.get("plan.pass.fused")),
        "ms",
        "span around PlanBackend::detect",
    );
    push(
        "plan.scans",
        replay.scans as f64,
        "count",
        "Plan::num_scans of the fused plan",
    );
    // core, relation
    push(
        "core.compile_ms",
        median(spans.get("core.compile")),
        "ms",
        "span around ConstraintSet::compile",
    );
    push(
        "core.singles",
        replay.singles as f64,
        "count",
        "ConstraintSet::singles after compile",
    );
    push(
        "relation.csv_load_ms",
        median(spans.get("relation.csv_load")),
        "ms",
        "span around csv::from_csv_infer",
    );
    // process
    push(
        "server.cpu_ms_per_op",
        ratio(primary.server_cpu_s * 1e3, primary_client_ops),
        "ms",
        "/proc/<pid>/stat utime+stime per primary-phase operation",
    );
    push(
        "client.cpu_share",
        ratio(
            fresh.client_cpu_s + mixed.client_cpu_s,
            fresh.secs + mixed.secs,
        ),
        "ratio",
        "benchmark CPU seconds per wall second of the timed phases (1 = one core)",
    );
    out
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}
