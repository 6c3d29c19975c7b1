//! Benchmark-side spans: wall-clock durations of calls into a layer's
//! public functions, keyed by the per-layer metric they feed.

use std::collections::BTreeMap;
use std::time::Instant;

/// Span durations in milliseconds, by name.
#[derive(Debug, Default)]
pub struct Spans {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    /// Runs `f` and records its duration under `name`. The result passes
    /// through `black_box`, so the measured work cannot be optimised away.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = std::hint::black_box(f());
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.samples.entry(name).or_default().push(ms);
        out
    }

    /// The samples recorded under `name` (empty when none).
    pub fn get(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }
}
