//! Detection-pass metrics, reported into the process-wide [`ecfd_obs`]
//! registry.
//!
//! Every full or incremental detection pass calls [`record_pass`] once when
//! it finishes — a handful of atomic operations per *pass* (not per row), so
//! the instrumentation cost is unmeasurable next to the scan itself (the
//! `obs_overhead` benchmark guards this).

use std::time::Duration;

/// Records one finished detection pass.
///
/// * `detect.pass.ns{backend=…}` — wall-clock duration histogram, labelled
///   `semantic`, `sql`, or `incremental`;
/// * `detect.rows.scanned` — rows the pass examined (for incremental passes:
///   delta tuples processed plus rows reflagged);
/// * `detect.groups.merged` — full passes: group ids the engine assigned,
///   summed over the fused `X` lists (whatever the pattern count);
///   incremental passes: groups whose violation status changed;
/// * `detect.violations` — flagged violations the pass reported (full passes
///   only; incremental passes maintain flags in place and pass 0).
pub(crate) fn record_pass(
    backend: &'static str,
    rows: u64,
    groups: u64,
    violations: u64,
    elapsed: Duration,
) {
    let registry = ecfd_obs::registry();
    registry
        .histogram_with("detect.pass.ns", &[("backend", backend)])
        .record_duration(elapsed);
    registry.counter("detect.rows.scanned").add(rows);
    registry.counter("detect.groups.merged").add(groups);
    registry.counter("detect.violations").add(violations);
}
