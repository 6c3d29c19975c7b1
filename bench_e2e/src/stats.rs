//! Sample summaries and the server's `STATS` exposition.

use std::collections::BTreeMap;

/// The spread of one metric's samples, as printed in the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// The highest whole percentile with at least ten samples beyond it,
    /// and its value; `None` below 20 samples.
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Summary {
            n: sorted.len(),
            median: median_sorted(&sorted),
            p95: rank(&sorted, 0.95),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            tail: (50..100).rev().find_map(|pct| {
                let idx = rank_index(sorted.len(), f64::from(pct) / 100.0);
                (sorted.len() - 1 - idx >= 10).then(|| (pct, sorted[idx]))
            }),
        })
    }

    /// Whether at least ten samples lie beyond the 95th percentile, the
    /// least the report needs before it prints a p95 as a metric.
    pub fn p95_is_supported(&self) -> bool {
        self.tail.is_some_and(|(pct, _)| pct >= 95)
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of sorted samples.
fn rank(sorted: &[f64], q: f64) -> f64 {
    sorted[rank_index(sorted.len(), q)]
}

/// Index of the nearest-rank `q` quantile among `n` sorted samples.
fn rank_index(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Median of unsorted samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// A parsed `STATS` exposition: `name{labels} value` lines keyed by the
/// text before the value.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    values: BTreeMap<String, f64>,
}

impl Exposition {
    /// Parses the decoded exposition text.
    pub fn parse(text: &str) -> Exposition {
        let values = text
            .lines()
            .filter_map(|line| {
                let (key, value) = line.rsplit_once(' ')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect();
        Exposition { values }
    }

    /// Every series of metric `name` whose labels include all of `labels`,
    /// as `(labels, value)`. Label values are matched exactly.
    fn series<'a>(
        &'a self,
        name: &'a str,
        labels: &'a [(&'a str, &'a str)],
    ) -> impl Iterator<Item = (&'a str, f64)> + 'a {
        self.values.iter().filter_map(move |(key, &value)| {
            let (metric, rest) = match key.split_once('{') {
                Some((metric, rest)) => (metric, rest.trim_end_matches('}')),
                None => (key.as_str(), ""),
            };
            if metric != name {
                return None;
            }
            let all = labels
                .iter()
                .all(|(k, v)| rest.split(',').any(|l| l == format!("{k}=\"{v}\"")));
            all.then_some((rest, value))
        })
    }

    /// Sum of every matching series (0 when none).
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.series(name, labels).map(|(_, v)| v).sum()
    }

    /// Largest matching series (0 when none) — for quantiles, whose series
    /// cannot be added.
    pub fn max(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.series(name, labels)
            .map(|(_, v)| v)
            .fold(0.0, f64::max)
    }

    /// A histogram quantile (`q` is `"0.50"`, `"0.95"` or `"0.99"`) in
    /// milliseconds, from a `.ns` histogram; the largest across series that
    /// match `labels`. The server reports bucket upper bounds, so the value
    /// carries the histogram's 25% bucket resolution.
    pub fn quantile_ms(&self, name: &str, labels: &[(&str, &str)], q: &str) -> f64 {
        let mut with_q = labels.to_vec();
        with_q.push(("q", q));
        self.max(name, &with_q) / 1e6
    }
}

/// A counter or histogram field's growth between two readings.
pub fn growth(before: &Exposition, after: &Exposition, name: &str, labels: &[(&str, &str)]) -> f64 {
    after.sum(name, labels) - before.sum(name, labels)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_and_exposition() {
        let s = Summary::of(&[3.0, 1.0, 2.0, 4.0]).unwrap();
        assert_eq!(
            (s.n, s.median, s.p95, s.min, s.max, s.tail),
            (4, 2.5, 4.0, 1.0, 4.0, None)
        );
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&many).unwrap();
        assert_eq!(s.tail, Some((95, 190.0)));
        assert!(s.p95_is_supported());
        let s = Summary::of(&many[..40]).unwrap();
        assert_eq!(s.tail, Some((75, 30.0)));
        assert!(!s.p95_is_supported());
        let text = "serve.request.ns.count{verb=\"DETECT\"} 5\n\
                    serve.request.ns{q=\"0.50\",verb=\"DETECT\"} 2000000\n\
                    writer.apply.ns{q=\"0.50\",shard=\"0\"} 1000000\n\
                    writer.apply.ns{q=\"0.50\",shard=\"1\"} 3000000\n\
                    ingest.rejected 0\n";
        let e = Exposition::parse(text);
        assert_eq!(e.sum("serve.request.ns.count", &[("verb", "DETECT")]), 5.0);
        assert_eq!(
            e.quantile_ms("serve.request.ns", &[("verb", "DETECT")], "0.50"),
            2.0
        );
        assert_eq!(e.quantile_ms("writer.apply.ns", &[], "0.50"), 3.0);
        assert_eq!(
            e.quantile_ms("writer.apply.ns", &[("shard", "0")], "0.50"),
            1.0
        );
        assert_eq!(e.sum("ingest.rejected", &[]), 0.0);
    }
}
