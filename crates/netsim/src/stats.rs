//! Online statistics, histograms and percentile estimation.
//!
//! The campaign layer aggregates tens of thousands of latency samples per
//! run; Welford's algorithm keeps mean/variance numerically stable without
//! storing samples, while [`Reservoir`] keeps a bounded subset for
//! percentile queries.

use serde::{Deserialize, Serialize};

/// Numerically stable streaming mean/variance (Welford).
///
/// The state is the count, the running mean and the sum of squared
/// deviations M2: 24 bytes, and all that the count, mean and σ a field
/// reports are computed from. It keeps no extremes; a caller that needs
/// one folds it beside the accumulator.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self { n: 0, mean: 0.0, m2: 0.0 }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Merges another accumulator (parallel reduction; Chan et al.).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample (Bessel-corrected) variance.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample standard deviation.
    pub fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// The raw accumulator state `(n, mean, m2)` — the exact internal
    /// representation, for bit-preserving persistence. A state
    /// round-tripped through [`Self::from_raw_parts`] continues the
    /// accumulation with an identical floating-point operation sequence,
    /// so checkpoint/resume of a sample stream is bitwise transparent.
    pub fn raw_parts(&self) -> (u64, f64, f64) {
        (self.n, self.mean, self.m2)
    }

    /// Rebuilds an accumulator from [`Self::raw_parts`] output verbatim.
    pub fn from_raw_parts(n: u64, mean: f64, m2: f64) -> Self {
        Self { n, mean, m2 }
    }
}

/// Fixed-capacity uniform reservoir sample (Vitter's algorithm R) with a
/// deterministic internal stream derived from the insertion index.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Reservoir {
    cap: usize,
    seen: u64,
    seed: u64,
    samples: Vec<f64>,
}

impl Reservoir {
    /// Reservoir keeping at most `cap` samples.
    pub fn new(cap: usize, seed: u64) -> Self {
        assert!(cap > 0, "reservoir capacity must be positive");
        Self { cap, seen: 0, seed, samples: Vec::with_capacity(cap) }
    }

    /// Offers a sample.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(x);
        } else {
            let h = crate::rng::splitmix64(self.seed ^ self.seen.wrapping_mul(0x9E37_79B9));
            let j = h % self.seen;
            if (j as usize) < self.cap {
                self.samples[j as usize] = x;
            }
        }
    }

    /// Percentile `p` in `[0,100]` via linear interpolation over the kept
    /// samples. Returns `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut xs = self.samples.clone();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in reservoir"));
        let p = p.clamp(0.0, 100.0) / 100.0;
        let idx = p * (xs.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        if lo == hi {
            Some(xs[lo])
        } else {
            let frac = idx - lo as f64;
            Some(xs[lo] * (1.0 - frac) + xs[hi] * frac)
        }
    }

    /// How many samples were offered in total.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Kept samples (unsorted).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Fixed-bucket histogram over `[lo, hi)` with overflow/underflow bins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Histogram with `bins` equal-width buckets on `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0, "invalid histogram spec");
        Self { lo, hi, counts: vec![0; bins], underflow: 0, overflow: 0 }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.counts.len();
            let bin = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.counts[bin.min(n - 1)] += 1;
        }
    }

    /// Total samples including out-of-range.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Fraction of samples strictly below `x` (bucket-resolution estimate).
    pub fn fraction_below(&self, x: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        if x <= self.lo {
            return self.underflow as f64 / total as f64;
        }
        let mut cum = self.underflow;
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        for (i, c) in self.counts.iter().enumerate() {
            let upper = self.lo + (i as f64 + 1.0) * width;
            if upper <= x {
                cum += c;
            } else {
                // Partial bucket: assume uniform within the bucket.
                let lower = upper - width;
                if x > lower {
                    cum += (*c as f64 * (x - lower) / width) as u64;
                }
                break;
            }
        }
        cum as f64 / total as f64
    }

    /// Bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for x in xs {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 10.0 + 50.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..400] {
            a.push(x);
        }
        for &x in &xs[400..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut a = Welford::new();
        a.push(1.0);
        let b = Welford::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 1.0);
    }

    #[test]
    fn reservoir_exact_under_capacity() {
        let mut r = Reservoir::new(100, 1);
        for i in 0..50 {
            r.push(i as f64);
        }
        assert_eq!(r.percentile(0.0), Some(0.0));
        assert_eq!(r.percentile(100.0), Some(49.0));
        let median = r.percentile(50.0).unwrap();
        assert!((median - 24.5).abs() < 1e-9);
    }

    #[test]
    fn reservoir_percentiles_approximate_uniform() {
        let mut r = Reservoir::new(2000, 7);
        for i in 0..100_000 {
            r.push((i % 1000) as f64);
        }
        let p50 = r.percentile(50.0).unwrap();
        assert!((p50 - 500.0).abs() < 50.0, "p50 {p50}");
        assert_eq!(r.seen(), 100_000);
    }

    #[test]
    fn reservoir_empty_is_none() {
        let r = Reservoir::new(10, 0);
        assert_eq!(r.percentile(50.0), None);
    }

    #[test]
    fn histogram_fractions() {
        let mut h = Histogram::new(0.0, 10.0, 100);
        for i in 0..1000 {
            h.push(i as f64 % 10.0);
        }
        assert_eq!(h.total(), 1000);
        let f = h.fraction_below(5.0);
        assert!((f - 0.5).abs() < 0.02, "got {f}");
    }

    #[test]
    fn histogram_out_of_range() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.push(-5.0);
        h.push(5.0);
        h.push(0.5);
        assert_eq!(h.total(), 3);
        assert!((h.fraction_below(0.0) - 1.0 / 3.0).abs() < 1e-9);
    }
}
