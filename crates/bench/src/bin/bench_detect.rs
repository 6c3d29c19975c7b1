//! `bench_detect`: the recorded detection benchmark.
//!
//! Runs the scaled-tableau detection workload (the `|Tp|` knob of the
//! paper's Fig. 5(c) / the `session_reuse` criterion group) through the
//! dictionary-encoded semantic detector *and* the plan-executing backend
//! (shared-scan fused vs unfused) at one or more worker counts, and writes
//! a machine-readable `BENCH_detect.json` so the perf trajectory of the hot
//! path — including the shared-scan fusion win — is recorded run over run
//! (CI uploads it as an artifact). All three configurations run the same
//! group-then-match engine (`ecfd_detect::engine`); they differ in how the
//! constraints are fused into scans. Each configuration reports the number
//! of timed passes and their median / min / max, and the output records
//! `available_parallelism` and the git rev it was measured at.
//!
//! ```text
//! cargo run --release -p ecfd_bench --bin bench_detect -- \
//!     --rows 2000 --patterns 160 --threads 1,2,4 --passes 3 --out BENCH_detect.json
//! ```

use ecfd_bench::PreparedWorkload;
use ecfd_core::ConstraintSet;
use ecfd_detect::{DetectorBackend, Parallelism, SemanticDetector};
use ecfd_plan::PlanBackend;
use ecfd_relation::Catalog;
use std::fmt;
use std::time::Instant;

struct Args {
    rows: usize,
    patterns: usize,
    threads: Vec<usize>,
    passes: usize,
    out: String,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            rows: 2000,
            patterns: 160,
            threads: vec![1, 2, 4],
            passes: 3,
            out: "BENCH_detect.json".to_string(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
            match flag.as_str() {
                "--rows" => args.rows = parse_num(&value("--rows")?)?,
                "--patterns" => args.patterns = parse_num(&value("--patterns")?)?,
                "--passes" => args.passes = parse_num(&value("--passes")?)?.max(1),
                "--threads" => {
                    args.threads = value("--threads")?
                        .split(',')
                        .map(parse_num)
                        .collect::<Result<_, _>>()?;
                    if args.threads.is_empty() {
                        return Err("--threads needs at least one count".into());
                    }
                }
                "--out" => args.out = value("--out")?,
                "--help" | "-h" => {
                    println!(
                        "usage: bench_detect [--rows N] [--patterns N] \
                         [--threads A,B,...] [--passes N] [--out PATH]"
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }
}

fn parse_num(text: &str) -> Result<usize, String> {
    text.trim()
        .parse::<usize>()
        .map_err(|_| format!("`{text}` is not a number"))
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("bench_detect: {msg}");
            std::process::exit(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rev = git_rev();
    println!(
        "# available_parallelism={cores} git_rev={rev} rows={} patterns={} passes={}",
        args.rows, args.patterns, args.passes
    );

    // The scaled workload: `rows` generated cust tuples at 5% noise, the
    // 10-constraint workload with the first tableau scaled to `patterns`
    // pattern tuples, compiled once (registration time) as a session would.
    let workload = PreparedWorkload::with_tableau_size(args.rows, 5.0, 42, Some(args.patterns));
    let set = ConstraintSet::compile(&workload.schema, &workload.constraints)
        .expect("workload constraints compile");

    let mut results = Vec::new();
    for &threads in &args.threads {
        // The semantic baseline.
        let detector =
            SemanticDetector::from_set(&set).with_parallelism(Parallelism::Fixed(threads));
        // Warm-up pass: interns the data into the detector's dictionary and
        // faults in the view allocation path.
        let report = detector
            .detect(&workload.data)
            .expect("detection over the generated workload succeeds");
        let stats = Stats::time(args.passes, || {
            let again = detector.detect(&workload.data).expect("detection succeeds");
            assert_eq!(again, report, "detection must be deterministic");
        });
        println!(
            "backend=semantic      threads={threads:<3} {stats} sv={} mv={}",
            report.num_sv(),
            report.num_mv(),
        );
        results.push(("semantic", threads, stats));

        // The plan backend, fused (one engine scan per distinct X) vs
        // unfused (one engine scan per constraint) — the same workload, so
        // the gap is the fusion win.
        for (label, mut backend) in [
            (
                "plan-fused",
                PlanBackend::from_set(&set).expect("plan compiles"),
            ),
            (
                "plan-unfused",
                PlanBackend::from_set_unfused(&set).expect("plan compiles"),
            ),
        ] {
            backend.set_parallelism(Parallelism::Fixed(threads));
            let mut catalog = Catalog::new();
            catalog
                .create(workload.data.clone())
                .expect("workload table registers");
            let (plan_report, _) = backend
                .detect(&mut catalog)
                .expect("plan detection succeeds");
            assert_eq!(plan_report, report, "plan backend must agree byte-for-byte");
            let stats = Stats::time(args.passes, || {
                let (again, _) = backend
                    .detect(&mut catalog)
                    .expect("plan detection succeeds");
                assert_eq!(again, report, "detection must be deterministic");
            });
            println!(
                "backend={label:<13} threads={threads:<3} {stats} scans={}",
                backend.plan().num_scans(),
            );
            results.push((label, threads, stats));
        }
    }

    let json = render_json(&args, cores, &rev, &results);
    std::fs::write(&args.out, &json).expect("write benchmark output");
    println!("wrote {}", args.out);
}

/// Per-pass wall-clock nanoseconds of one configuration.
struct Stats {
    n: usize,
    median: u64,
    min: u64,
    max: u64,
}

impl Stats {
    /// Times `passes` calls of `pass`.
    fn time(passes: usize, mut pass: impl FnMut()) -> Stats {
        let mut ns: Vec<u64> = (0..passes)
            .map(|_| {
                let start = Instant::now();
                pass();
                start.elapsed().as_nanos() as u64
            })
            .collect();
        ns.sort_unstable();
        Stats {
            n: ns.len(),
            median: ns[ns.len() / 2],
            min: ns[0],
            max: ns[ns.len() - 1],
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |ns: u64| ns as f64 / 1e6;
        write!(
            f,
            "n={} median={:.2}ms min={:.2}ms max={:.2}ms",
            self.n,
            ms(self.median),
            ms(self.min),
            ms(self.max)
        )
    }
}

/// The checked-out commit (`-dirty` when the work tree has changes), or
/// `unknown` outside a git work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}

/// Renders the result table as JSON by hand — the vendored serde shim has no
/// serializer, and the schema here is flat and fixed.
fn render_json(args: &Args, cores: usize, rev: &str, results: &[(&str, usize, Stats)]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"benchmark\": \"detect\",\n");
    out.push_str("  \"workload\": \"cust_scaled_tableau\",\n");
    out.push_str(&format!("  \"available_parallelism\": {cores},\n"));
    out.push_str(&format!("  \"git_rev\": \"{rev}\",\n"));
    out.push_str(&format!("  \"rows\": {},\n", args.rows));
    out.push_str(&format!("  \"patterns\": {},\n", args.patterns));
    out.push_str(&format!("  \"passes\": {},\n", args.passes));
    out.push_str("  \"results\": [\n");
    for (i, (backend, threads, stats)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{ \"backend\": \"{backend}\", \"threads\": {threads}, \"n\": {}, \
             \"median_ns\": {}, \"min_ns\": {}, \"max_ns\": {} }}{comma}\n",
            stats.n, stats.median, stats.min, stats.max
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
