//! `bench_e2e`: the repository's end-to-end benchmark.
//!
//! Spawns the release `serve` binary on seeded inputs (CSV, rules text and
//! protocol lines), drives it over TCP from this one process with at most
//! two connections, checks every answer against an in-process oracle, and
//! prints every metric by name with its unit and spread. The last stdout
//! line is one JSON object: the end-to-end metrics, or with `--trace 1` the
//! per-layer ones. See `bench_e2e/README.md` for the workloads and the
//! per-layer → end-to-end map.
//!
//! ```text
//! bash bench_e2e/run.sh --workload fresh_tp160_20k --seed 1 --seconds 30 --trace 0
//! ```

mod inputs;
mod layers;
mod oracle;
mod phase;
mod server;
mod spans;
mod stats;
mod workload;

use ecfd_detect::DetectionReport;
use inputs::{Inputs, DELETES_PER_DELTA, INSERTS_PER_DELTA};
use oracle::{report_tail, split_report, Oracle};
use phase::{FreshLoop, MixedLoop, Phase, Tally, RAMP};
use server::ServerProcess;
use spans::Spans;
use stats::{median, Summary};
use std::path::{Path, PathBuf};
use std::time::Duration;
use workload::{Workload, WORKLOADS};

/// Rounds of an untraced pass. Each round spawns one server for the fresh
/// phase and one for the mixed phase, so a pass pools samples from several
/// server processes; `setup_s` is the median over all spawns. A traced run
/// makes one untraced and one traced round, so it costs about as much as an
/// untraced run.
const ROUNDS: usize = 2;

/// Slices per round. Both servers of a round stay up while the round
/// alternates short fresh and mixed slices between them, so every metric
/// samples the shared host over the whole run instead of one block of it.
const SLICES: usize = 3;

/// The end-to-end metrics the JSON result carries. The p95 metrics are
/// printed in the report when enough samples support them, but a run that
/// is short enough to repeat many times rarely has the 200 samples a p95
/// needs, so they are not part of the result.
const GATED: &[&str] = &[
    "setup_s",
    "detect_fresh_p50_ms",
    "apply_sync_p50_ms",
    "applied_rows_per_s",
    "detect_p50_ms",
    "reads_per_s",
    "rss_peak_mb",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_bin: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 30,
            trace: false,
            serve_bin: PathBuf::from("target/release/serve"),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = parse_num(&value()?)?,
                "--seconds" => args.seconds = parse_num(&value()?)?.max(1),
                "--trace" => args.trace = parse_num(&value()?)? != 0,
                "--serve-bin" => args.serve_bin = PathBuf::from(value()?),
                "--help" | "-h" => {
                    println!(
                        "usage: bench_e2e --workload NAME [--seed N] [--seconds N] [--trace 0|1] \
                         [--serve-bin PATH]\nworkloads: {}",
                        WORKLOADS.join(", ")
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }
}

fn parse_num(text: &str) -> Result<u64, String> {
    text.trim()
        .parse()
        .map_err(|_| format!("`{text}` is not a number"))
}

/// One named result row.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    source: String,
    spread: Option<Summary>,
}

impl Metric {
    fn new(name: &str, value: f64, unit: &'static str, source: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            source: source.to_string(),
            spread: None,
        }
    }

    fn with_spread(mut self, samples: &[f64]) -> Metric {
        self.spread = Summary::of(samples);
        self
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("bench_e2e: {msg}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(msg) => {
            eprintln!("bench_e2e: {msg}");
            std::process::exit(1);
        }
    }
}

/// The per-run directory for input files and WAL directories, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let path = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself only if other runs still use it.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// What stays fixed across the passes of one run.
struct Run<'a> {
    workload: &'a Workload,
    inputs: &'a Inputs,
    serve_bin: &'a Path,
    work: &'a Path,
    input_flags: Vec<String>,
    /// Fresh-phase length of one pass, split evenly across its rounds.
    fresh_secs: f64,
    /// Mixed-phase length of one pass, split evenly across its rounds.
    mixed_secs: f64,
}

/// One pass: `rounds` × (fresh phase, mixed phase), each on its own server.
pub struct Pass {
    setups: Vec<f64>,
    fresh: Vec<Phase>,
    mixed: Vec<Phase>,
    spans: Spans,
    /// The oracle after every ACKed delta of the last mixed phase.
    oracle: Oracle,
    /// The oracle's report over that final table.
    expected: DetectionReport,
    tally: Tally,
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = Workload::named(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}` (expected one of {})",
            args.workload,
            WORKLOADS.join(", ")
        )
    })?;
    if !args.serve_bin.is_file() {
        return Err(format!("no serve binary at {}", args.serve_bin.display()));
    }
    let total = args.seconds as f64;
    let fresh_secs = total * workload.fresh_share;
    let mixed_secs = total - fresh_secs;
    // Far more deltas than a closed loop can ACK in the mixed phase (one per
    // millisecond), so the writer never runs dry.
    let pool = (mixed_secs * 1000.0).ceil() as usize;
    let inputs = Inputs::generate(&workload, args.seed, pool);

    let work = WorkDir::create()?;
    let csv = work.0.join("cust.csv");
    let rules = work.0.join("rules.ecfd");
    std::fs::write(&csv, &inputs.csv).map_err(|e| format!("writing CSV: {e}"))?;
    std::fs::write(&rules, &inputs.rules).map_err(|e| format!("writing rules: {e}"))?;
    let ctx = Run {
        workload: &workload,
        inputs: &inputs,
        serve_bin: &args.serve_bin,
        work: &work.0,
        input_flags: vec![
            "--csv".into(),
            csv.display().to_string(),
            "--table".into(),
            "cust".into(),
            "--constraints".into(),
            rules.display().to_string(),
        ],
        fresh_secs,
        mixed_secs,
    };

    let rounds = if args.trace { 1 } else { ROUNDS };
    let mut untraced = run_pass(&ctx, 0, rounds, false)?;
    let e2e = end_to_end(&untraced);
    let mut tally = std::mem::take(&mut untraced.tally);
    let mut layer_rows = Vec::new();
    if args.trace {
        let mut traced = run_pass(&ctx, 1, 1, true)?;
        tally.absorb(std::mem::take(&mut traced.tally));
        let mut spans = std::mem::take(&mut traced.spans);
        let replay = layers::replay(&workload, &inputs, &traced, &mut spans, &mut tally)?;
        layer_rows = layers::per_layer(&layers::Sources {
            workload: &workload,
            fresh: &traced.fresh[0],
            mixed: &traced.mixed[0],
            spans: &spans,
            replay: &replay,
        });
        for (plain, with_trace) in e2e.iter().zip(end_to_end(&traced)) {
            if GATED.contains(&plain.name.as_str()) {
                layer_rows.push(Metric::new(
                    &format!("overhead.{}", plain.name),
                    with_trace.value - plain.value,
                    plain.unit,
                    "traced minus untraced pass of this run",
                ));
            }
        }
    }

    print_report(args, &workload, &untraced, &e2e, &layer_rows, &tally);
    let rows: Vec<&Metric> = if args.trace {
        layer_rows.iter().collect()
    } else {
        e2e.iter()
            .filter(|m| GATED.contains(&m.name.as_str()))
            .collect()
    };
    let correct = tally.failed == 0;
    println!("{}", result_json(correct, &tally, &rows));
    Ok(correct)
}

/// Runs `rounds` rounds of both phases, each phase on a freshly spawned
/// server and the two alternating in [`SLICES`] slices; `pass` keeps the
/// WAL directories of the passes apart.
fn run_pass(ctx: &Run<'_>, pass: usize, rounds: usize, traced: bool) -> Result<Pass, String> {
    let mut spans = Spans::default();
    let base = Oracle::build(&ctx.inputs.csv, &ctx.inputs.rules, &mut spans)?;
    let initial = report_tail(&base.report(&mut spans)?);
    let deltas: Vec<(&str, usize)> = ctx
        .inputs
        .deltas
        .iter()
        .map(|d| (d.line.as_str(), d.ops.len()))
        .collect();
    let fresh_for = Duration::from_secs_f64(ctx.fresh_secs / rounds as f64);
    let mixed_for = Duration::from_secs_f64(ctx.mixed_secs / rounds as f64);

    let mut setups = Vec::with_capacity(2 * rounds);
    let mut tally = Tally::default();
    let mut fresh = Vec::with_capacity(rounds);
    let mut mixed = Vec::with_capacity(rounds);
    let mut last = None;
    for round in 0..rounds {
        let fresh_server = spawn(ctx, &format!("{pass}-{round}-fresh"))?;
        setups.push(fresh_server.setup.as_secs_f64());
        let mixed_server = spawn(ctx, &format!("{pass}-{round}-mixed"))?;
        setups.push(mixed_server.setup.as_secs_f64());
        let mut fresh_loop = FreshLoop::start(&fresh_server, &initial, traced)?;
        let mut mixed_loop = MixedLoop::start(&mixed_server, &deltas, traced)?;
        for slice in 0..SLICES {
            fresh_loop.slice(fresh_for / SLICES as u32)?;
            let ramp = if slice == 0 { RAMP } else { Duration::ZERO };
            mixed_loop.slice(ramp, mixed_for / SLICES as u32);
        }
        let mut phase = fresh_loop.finish()?;
        drop(fresh_server);
        tally.absorb(std::mem::take(&mut phase.tally));
        fresh.push(phase);

        let mut phase = mixed_loop.finish()?;
        drop(mixed_server);
        // The final published report must equal the oracle that applied
        // every ACKed delta in ACK order.
        let mut oracle = base.clone();
        for &index in &phase.acked {
            oracle.apply(&ctx.inputs.deltas[index].ops)?;
        }
        let expected = oracle.report(&mut spans)?;
        tally.absorb(std::mem::take(&mut phase.tally));
        match phase.final_report.as_deref().and_then(split_report) {
            Some((_, tail)) if tail == report_tail(&expected) => {}
            Some(_) => tally.fail("final DETECT report differs from the oracle".to_string()),
            None => {} // already counted by the phase
        }
        mixed.push(phase);
        last = Some((oracle, expected));
    }
    let (oracle, expected) = last.ok_or("a pass needs at least one round")?;
    Ok(Pass {
        setups,
        fresh,
        mixed,
        spans,
        oracle,
        expected,
        tally,
    })
}

/// Spawns `serve` on the run's inputs; `tag` names its WAL directory.
fn spawn(ctx: &Run<'_>, tag: &str) -> Result<ServerProcess, String> {
    let mut flags = ctx.input_flags.clone();
    flags.extend(
        ctx.workload
            .serve_flags(&ctx.work.join(format!("wal-{tag}"))),
    );
    ServerProcess::spawn(ctx.serve_bin, &flags)
}

/// Completions per one-second window, scaled by `per_event`: the spread of
/// a throughput metric.
fn window_rates(done: &[f64], secs: f64, per_event: f64) -> Vec<f64> {
    let windows = secs.floor() as usize;
    let mut counts = vec![0.0; windows];
    for &t in done {
        if let Some(c) = counts.get_mut(t as usize) {
            *c += per_event;
        }
    }
    counts
}

/// Every end-to-end metric of a pass, p95s included when supported.
/// Latencies pool the samples of every round; rates divide pooled counts by
/// pooled busy time.
fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let pooled = |phases: &[Phase], f: fn(&Phase) -> &Vec<f64>| -> Vec<f64> {
        phases.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let mut out = vec![Metric::new(
        "setup_s",
        median(&pass.setups),
        "s",
        "spawn of serve to first PONG, median over the pass's spawns",
    )
    .with_spread(&pass.setups)];
    for (stem, samples, source) in [
        (
            "detect_fresh",
            pooled(&pass.fresh, |p| &p.detect_ms),
            "client DETECT FRESH latency, fresh phase",
        ),
        (
            "apply_sync",
            pooled(&pass.mixed, |p| &p.apply_sync_ms),
            "client APPLY + SYNC latency, mixed phase",
        ),
        (
            "detect",
            pooled(&pass.mixed, |p| &p.detect_ms),
            "client cached DETECT latency, mixed phase",
        ),
    ] {
        let summary = Summary::of(&samples);
        out.push(
            Metric::new(
                &format!("{stem}_p50_ms"),
                summary.map_or(0.0, |s| s.median),
                "ms",
                source,
            )
            .with_spread(&samples),
        );
        let p95 = match summary.filter(Summary::p95_is_supported) {
            Some(s) => Metric::new(&format!("{stem}_p95_ms"), s.p95, "ms", source),
            None => Metric::new(
                &format!("{stem}_p95_ms"),
                f64::NAN,
                "ms",
                "not reported: fewer than 200 samples, so fewer than ten lie beyond the p95",
            ),
        }
        .with_spread(&samples);
        out.push(p95);
    }
    let per_delta = (INSERTS_PER_DELTA + DELETES_PER_DELTA) as f64;
    let sum = |f: fn(&Phase) -> f64| pass.mixed.iter().map(f).sum::<f64>();
    let windows = |f: fn(&Phase) -> &Vec<f64>, per_event: f64| -> Vec<f64> {
        pass.mixed
            .iter()
            .flat_map(|p| window_rates(f(p), p.secs, per_event))
            .collect()
    };
    out.push(
        Metric::new(
            "applied_rows_per_s",
            sum(|p| p.applied_ops as f64) / sum(|p| p.write_secs),
            "1/s",
            "delta ops made visible (SYNCED) per second, mixed phase",
        )
        .with_spread(&windows(|p| &p.apply_done, per_delta)),
    );
    out.push(
        Metric::new(
            "reads_per_s",
            sum(|p| p.detect_ms.len() as f64) / sum(|p| p.read_secs),
            "1/s",
            "DETECT replies per second while writes run, mixed phase",
        )
        .with_spread(&windows(|p| &p.detect_done, 1.0)),
    );
    // A round's peak is the larger of its two servers' VmHWM.
    let rss: Vec<f64> = pass
        .fresh
        .iter()
        .zip(&pass.mixed)
        .map(|(f, m)| f.rss_mb.max(m.rss_mb))
        .collect();
    out.push(
        Metric::new(
            "rss_peak_mb",
            median(&rss),
            "MiB",
            "server VmHWM, larger of a round's two servers, median over rounds",
        )
        .with_spread(&rss),
    );
    out
}

fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}")).unwrap_or_else(|| {
            read(".git/packed-refs")
                .and_then(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next().map(str::to_string))
                })
                .unwrap_or_else(|| "unknown".to_string())
        }),
        None => head,
    }
}

fn print_report(
    args: &Args,
    workload: &Workload,
    pass: &Pass,
    e2e: &[Metric],
    layers: &[Metric],
    tally: &Tally,
) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# bench_e2e workload={} seed={} seconds={} trace={}",
        workload.name, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "# provenance available_parallelism={cores} git_rev={} rows={} tp={} shards={} \
         wal={} fresh_phase_s={:.2} mixed_phase_s={:.2} connections=2 \
         delta={INSERTS_PER_DELTA}+/{DELETES_PER_DELTA}-",
        git_rev(),
        workload.rows,
        workload.tp,
        workload.shards.unwrap_or(1),
        if workload.wal { "fsync-per-ack" } else { "off" },
        pass.fresh.iter().map(|p| p.secs).sum::<f64>(),
        pass.mixed.iter().map(|p| p.secs).sum::<f64>(),
    );
    let warmups: Vec<String> = pass
        .mixed
        .iter()
        .map(|p| format!("{:.1}", p.warmup_apply_sync_ms))
        .collect();
    println!(
        "# rounds={} untimed warm-up APPLY + SYNC ms per round: {} (the server builds its \
         incremental state on the first delta)",
        pass.mixed.len(),
        warmups.join(", ")
    );
    println!("# end-to-end (untraced pass)");
    for m in e2e {
        print_metric(m);
    }
    if !layers.is_empty() {
        println!("# per-layer (traced pass)");
        for m in layers {
            print_metric(m);
        }
    }
    println!(
        "# checks attempted={} failed={}",
        tally.attempted, tally.failed
    );
    for message in &tally.messages {
        println!("# failure: {message}");
    }
}

fn print_metric(m: &Metric) {
    let value = if m.value.is_nan() {
        "-".to_string()
    } else {
        format!("{:.4}", m.value)
    };
    let spread = match &m.spread {
        Some(s) => {
            let tail = s
                .tail
                .map_or(String::new(), |(pct, v)| format!(" tail=p{pct}:{v:.4}"));
            format!(
                " n={} median={:.4} p95={:.4} min={:.4} max={:.4}{tail}",
                s.n, s.median, s.p95, s.min, s.max
            )
        }
        None => String::new(),
    };
    println!(
        "{:<36} {:>14} {:<6}{spread}  [{}]",
        m.name, value, m.unit, m.source
    );
}

fn result_json(correct: bool, tally: &Tally, rows: &[&Metric]) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    )
}
