//! The two workloads and what each one isolates.
//!
//! Every workload runs two timed phases, each on its own freshly spawned
//! server so the server's cumulative `STATS` histograms describe one phase:
//!
//! * **fresh** — one connection loops `DETECT FRESH`; the ingest queue,
//!   writer and WAL are idle, so the scan is nearly the whole operation;
//! * **mixed** — connection A loops `APPLY` (8 inserts + 4 deletes) then
//!   `SYNC`; connection B loops cached `DETECT`. Both are closed loops.
//!
//! The workloads differ in the server's configuration and in how the run
//! length is split between the phases (`fresh_share`).

/// One workload's server configuration and phase split.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The name passed to `--workload`.
    pub name: &'static str,
    /// Rows in the generated `cust` table.
    pub rows: usize,
    /// Pattern tuples of the first constraint's scaled tableau.
    pub tp: usize,
    /// `Some(n)`: `serve --shards n --shard-key CT`.
    pub shards: Option<usize>,
    /// Whether the server runs with `--wal-dir` (fsync per ACK).
    pub wal: bool,
    /// Share of `--seconds` spent in the fresh phase; the rest is mixed.
    pub fresh_share: f64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["fresh_tp160_20k", "sharded_mixed_20k"];

impl Workload {
    /// Looks a workload up by its `--workload` name.
    pub fn named(name: &str) -> Option<Workload> {
        let workload = match name {
            // Detection-bound: a detection-layer change shows here and
            // nowhere else. The mixed phase covers the unsharded durable
            // write path: each ACK pays an fsync, apply and publish cost
            // O(table).
            "fresh_tp160_20k" => Workload {
                name: "fresh_tp160_20k",
                rows: 20_000,
                tp: 160,
                shards: None,
                wal: true,
                fresh_share: 0.7,
            },
            // Router, per-shard writers and the cross-shard merge, which is
            // recomputed on the first read after every new epoch. No WAL, so
            // a WAL change moves nothing here. |Tp| = 40 keeps a merged read
            // near 0.3 s (0.8 s at 160), so a run collects ~3x the samples.
            "sharded_mixed_20k" => Workload {
                name: "sharded_mixed_20k",
                rows: 20_000,
                tp: 40,
                shards: Some(2),
                wal: false,
                fresh_share: 0.3,
            },
            _ => return None,
        };
        Some(workload)
    }

    /// The same workload over a smaller table (unit tests only).
    #[cfg(test)]
    pub fn scaled_to(mut self, rows: usize) -> Workload {
        self.rows = rows;
        self
    }

    /// The `serve` flags of this workload, minus `--addr` and the input
    /// files; `wal_dir` is used only when the workload is durable.
    pub fn serve_flags(&self, wal_dir: &std::path::Path) -> Vec<String> {
        let mut flags = Vec::new();
        if let Some(n) = self.shards {
            flags.extend(["--shards".to_string(), n.to_string()]);
            flags.extend(["--shard-key".to_string(), SHARD_KEY.to_string()]);
        }
        if self.wal {
            flags.extend(["--wal-dir".to_string(), wal_dir.display().to_string()]);
        }
        flags
    }
}

/// The shard-key attribute of the sharded workload.
pub const SHARD_KEY: &str = "CT";
