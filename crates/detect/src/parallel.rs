//! Detection parallelism: how many `std::thread::scope` workers a detection
//! pass fans out across.
//!
//! The group-then-match engine ([`crate::engine`]) chunks only its
//! row-proportional grouping pass: every worker numbers the `X` projections
//! of one contiguous row chunk (`split_ranges`), and the chunks merge in
//! order, so group ids come out in the same first-seen order as a
//! sequential pass. Everything downstream is per group and sequential, so
//! the same data produces byte-identical
//! [`DetectionReport`](crate::DetectionReport)s, (normalized)
//! [`EvidenceReport`](crate::EvidenceReport)s and group maps at 1 and N
//! workers — a property the differential test suite asserts.

/// How many worker threads detection fans out across.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Use every available core ([`std::thread::available_parallelism`]).
    #[default]
    Auto,
    /// Use exactly this many workers (clamped to at least 1). `Fixed(1)`
    /// forces the sequential path.
    Fixed(usize),
}

impl Parallelism {
    /// The resolved worker count.
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Parallelism::Fixed(n) => n.max(1),
        }
    }
}

/// Minimum number of per-worker `(row, X-list)` groupings below which
/// spinning up a thread costs more than it saves.
const MIN_WORK_PER_WORKER: usize = 4096;

/// Clamps the requested worker count to what the grouping work (`rows`
/// times the number of fused `X` lists) justifies: small relations run
/// sequentially regardless of the configured parallelism.
pub(crate) fn effective_threads(parallelism: Parallelism, rows: usize, x_lists: usize) -> usize {
    let requested = parallelism.threads();
    if requested <= 1 {
        return 1;
    }
    let work = rows.saturating_mul(x_lists.max(1));
    requested
        .min((work / MIN_WORK_PER_WORKER).max(1))
        .min(rows.max(1))
}

/// Splits `0..n` into `parts` contiguous, near-equal ranges (the row chunks
/// of the grouping workers).
pub(crate) fn split_ranges(n: usize, parts: usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1);
    let base = n / parts;
    let extra = n % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut lo = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        ranges.push((lo, lo + len));
        lo += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_parallelism_clamps_to_one() {
        assert_eq!(Parallelism::Fixed(0).threads(), 1);
        assert_eq!(Parallelism::Fixed(3).threads(), 3);
        assert!(Parallelism::Auto.threads() >= 1);
        assert_eq!(Parallelism::default(), Parallelism::Auto);
    }

    #[test]
    fn small_scans_stay_sequential() {
        assert_eq!(effective_threads(Parallelism::Fixed(8), 10, 4), 1);
        assert_eq!(effective_threads(Parallelism::Fixed(1), 1_000_000, 100), 1);
        let t = effective_threads(Parallelism::Fixed(4), 100_000, 100);
        assert_eq!(t, 4);
        // Work justifies only two workers.
        assert_eq!(effective_threads(Parallelism::Fixed(8), 1_000, 10), 2);
    }

    #[test]
    fn ranges_cover_exactly_once() {
        for (n, parts) in [(0usize, 3usize), (7, 3), (9, 3), (2, 5), (100, 1)] {
            let ranges = split_ranges(n, parts);
            assert_eq!(ranges.len(), parts);
            let mut expect = 0;
            for (lo, hi) in &ranges {
                assert_eq!(*lo, expect);
                assert!(hi >= lo);
                expect = *hi;
            }
            assert_eq!(expect, n);
        }
    }
}
