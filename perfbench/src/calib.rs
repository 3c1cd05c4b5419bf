//! CPU-speed calibration for wall-clock timings on a shared machine.
//!
//! On a machine whose cores are shared with other tenants, the same code can
//! run up to twice as slow for seconds at a time. The timed loops therefore
//! run a small fixed kernel (hashing, an ordered tree, allocation and
//! sorting, like the query path) every [`EVERY`] queries, outside the timed
//! regions. The kernel is plain standard-library code, so a change to the
//! system under test never changes it. A timing taken at time `t` is
//! rescaled by `NOMINAL_KERNEL_NS / k(t)`, where `k(t)` is the median
//! duration of the kernel runs nearest to `t`: the result is the wall-clock
//! time the work would have taken on a core that runs the kernel in
//! [`NOMINAL_KERNEL_NS`].

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Queries between two kernel runs.
pub const EVERY: usize = 16;
/// Kernel duration the rescaled timings are expressed at.
pub const NOMINAL_KERNEL_NS: f64 = 100_000.0;
/// Kernel runs on each side of a timing whose median sets its scale.
const HALF_WINDOW: usize = 4;

/// The fixed calibration work, sized to spill out of the first-level cache
/// like the query path does: 1,024 hash-map updates, 256 ordered-tree
/// inserts and a descending sort of 1,024 `(f64, u64)` pairs.
fn kernel() -> u64 {
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(1024);
    let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
    let mut scores: Vec<(f64, u64)> = Vec::with_capacity(1024);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..1024u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % 750).or_insert(0) += i;
        if i % 4 == 0 {
            tree.insert(x % 2048, i);
        }
        scores.push(((x >> 11) as f64 / (1u64 << 53) as f64, i));
    }
    scores.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
    map.values().sum::<u64>() + tree.len() as u64 + scores[10].1
}

/// Kernel durations sampled over a run, keyed by when they were taken.
pub struct Calibration {
    epoch: Instant,
    /// `(ns since epoch, kernel ns)` in time order.
    samples: Vec<(u64, u64)>,
}

impl Calibration {
    /// An empty calibration whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Calibration {
        Calibration {
            epoch,
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once and records how long it took.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(kernel());
        let ns = t.elapsed().as_nanos() as u64;
        self.samples.push(((t - self.epoch).as_nanos() as u64, ns));
    }

    /// The median kernel duration over the run.
    pub fn median_kernel_ns(&self) -> f64 {
        let mut v: Vec<u64> = self.samples.iter().map(|s| s.1).collect();
        v.sort_unstable();
        v.get(v.len() / 2).map_or(NOMINAL_KERNEL_NS, |&k| k as f64)
    }

    /// The factor that rescales a timing taken at `at` (ns since the epoch)
    /// to the nominal speed.
    pub fn scale_at(&self, at: u64) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let i = self.samples.partition_point(|s| s.0 <= at);
        let lo = i.saturating_sub(HALF_WINDOW);
        let hi = (i + HALF_WINDOW).min(self.samples.len());
        let mut near: Vec<u64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        near.sort_unstable();
        NOMINAL_KERNEL_NS / near[near.len() / 2].max(1) as f64
    }

    /// Rescales a duration of `ns` that started at `at`.
    pub fn rescale(&self, at: u64, ns: u64) -> u64 {
        (ns as f64 * self.scale_at(at)).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_nearest_kernel_runs() {
        let mut cal = Calibration::new(Instant::now());
        cal.samples = (0..20)
            .map(|i| (i * 100, if i < 10 { 100_000 } else { 200_000 }))
            .collect();
        assert_eq!(cal.scale_at(150), 1.0);
        assert_eq!(cal.scale_at(1_850), 0.5);
        assert_eq!(cal.rescale(1_850, 300), 150);
    }
}
