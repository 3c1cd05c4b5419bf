//! Metric values and the one-line JSON result the benchmark prints.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result of one run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Whether every answer passed its check.
    pub correct: bool,
    /// Queries attempted.
    pub attempted: u64,
    /// Queries that returned an error or failed the answer check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The metric named `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result as one JSON object on one line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        )
        .expect("writing to a String cannot fail");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// A finite number as JSON (non-finite values have no JSON form and are
/// reported as `null`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The `p`-quantile (`0 < p <= 1`) of `sorted` by the nearest-rank rule.
pub fn quantile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Queries per window of [`LatencySummary`]: a window's p99 has ten
/// samples beyond it.
pub const WINDOW: usize = 1_000;

/// Latency statistics of a closed loop.
///
/// The p50 is over all queries. The p99 and the mean are medians over
/// consecutive windows of [`WINDOW`] queries of each window's p99 and mean,
/// so that a stall of a few milliseconds, which the calibration cannot see,
/// moves one window and not the run. Loops shorter than one window use all
/// their queries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    /// Median latency, ns.
    pub p50_ns: f64,
    /// Median of the windows' 99th percentiles, ns.
    pub p99_ns: f64,
    /// Median of the windows' mean latencies, ns.
    pub mean_ns: f64,
}

impl LatencySummary {
    /// Summarizes per-query latencies given in loop order.
    pub fn of(latencies_ns: &[u64]) -> LatencySummary {
        let mut sorted = latencies_ns.to_vec();
        sorted.sort_unstable();
        let windows: Vec<&[u64]> = if latencies_ns.len() < WINDOW {
            vec![latencies_ns]
        } else {
            latencies_ns.chunks_exact(WINDOW).collect()
        };
        let (p99s, means): (Vec<f64>, Vec<f64>) = windows
            .iter()
            .map(|w| {
                let mut w = w.to_vec();
                w.sort_unstable();
                let mean = ratio(w.iter().sum::<u64>() as f64, w.len() as f64);
                (quantile(&w, 0.99) as f64, mean)
            })
            .unzip();
        LatencySummary {
            p50_ns: quantile(&sorted, 0.5) as f64,
            p99_ns: median(&p99s),
            mean_ns: median(&means),
        }
    }
}

/// The median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `numerator / denominator`, or `0` when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Resets the peak resident set size to the current one, so that
/// [`peak_rss_mb`] measures from here on (best effort: a kernel without
/// `clear_refs` keeps the process-lifetime peak).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_uses_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn window_statistics_ignore_one_stalled_window() {
        let mut v = vec![100u64; 3 * WINDOW];
        for x in &mut v[..50] {
            *x = 100_000;
        }
        let s = LatencySummary::of(&v);
        assert_eq!((s.p50_ns, s.p99_ns, s.mean_ns), (100.0, 100.0, 100.0));
    }

    #[test]
    fn json_has_the_four_keys() {
        let outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.5, "s")],
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
