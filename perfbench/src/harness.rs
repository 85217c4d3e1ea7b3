//! The benchmark's own bookkeeping: percentiles under the ten-beyond rule,
//! failure accounting, the seeded request-mix generator, and the metric
//! record printed at the end of a run. Nothing here touches the simulator.

use std::collections::BTreeMap;
use std::time::Duration;

/// The smallest number of samples that must lie beyond a percentile before
/// it is reported.
pub const MIN_BEYOND: usize = 10;

/// Milliseconds of a duration, with every digit kept.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Percentile `p` of `samples`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (the median is always reported).
pub fn reported_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || (p > 0.5 && beyond(samples.len(), p) < MIN_BEYOND) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile(&sorted, p))
}

/// Median of a non-empty sample: the mean of the middle two for an even
/// count, which steadies the median of the few operations a long one
/// completes.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// What a request was supposed to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Report bytes with this FNV-1a fingerprint.
    Report(u64),
    /// A coded ERROR with this code.
    Error(&'static str),
}

/// What a request did produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Got {
    /// Report bytes with this fingerprint.
    Report(u64),
    /// A coded ERROR.
    Error(String),
    /// The connection dropped, or the call failed outside the protocol.
    Dropped,
}

/// Attempts, failures and error classification of one run. A failure is an
/// unexpected error, a wrong error code, a drop, or report bytes that differ
/// from the reference; an expected coded ERROR is a success.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Coded ERRORs that were expected (and had the expected code).
    pub errors_expected: u64,
    /// Coded ERRORs that were not expected, or carried the wrong code.
    pub errors_unexpected: u64,
}

impl Tally {
    /// Classifies one outcome; true when it counts as a success.
    pub fn record(&mut self, expect: Expect, got: &Got) -> bool {
        self.attempted += 1;
        let ok = match (expect, got) {
            (Expect::Report(want), Got::Report(have)) => want == *have,
            (Expect::Error(want), Got::Error(code)) => {
                let ok = want == code;
                if ok {
                    self.errors_expected += 1;
                } else {
                    self.errors_unexpected += 1;
                }
                ok
            }
            (Expect::Report(_), Got::Error(_)) => {
                self.errors_unexpected += 1;
                false
            }
            (Expect::Error(_), Got::Report(_)) | (_, Got::Dropped) => false,
        };
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Counts one check that has no coded outcome (a fingerprint comparison).
    pub fn record_check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors_expected += other.errors_expected;
        self.errors_unexpected += other.errors_unexpected;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A running FNV-1a 64 state. Writing bytes piece by piece gives what
/// `store::fnv1a64` gives over their concatenation, without holding them.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's own input generator, so workload inputs
/// depend only on the seed argument.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One request kind of the `serve_mix` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// A `run` of hot spec `spec` with campaign-seed slot `seed_slot`.
    Hit {
        /// Index into the hot specs.
        spec: u8,
        /// Index into the run's campaign-seed pool.
        seed_slot: u8,
    },
    /// A `validate` of hot spec `spec`.
    Validate {
        /// Index into the hot specs.
        spec: u8,
    },
    /// A cold Klagenfurt `run` with a fresh scenario seed (the generator
    /// cycles the cold pool in order, so every cold request misses).
    Cold,
    /// `checkpoint` on a `run`: the daemon must answer `conflict`.
    Conflict,
    /// A payload that is not JSON: the daemon must answer `invalid_json`.
    InvalidJson,
}

/// Hits, validations and cold runs per mix block; each block also holds one
/// `conflict` and one `invalid_json` request. Every block is one shuffled
/// copy of this composition, so the shares are exact for any seed and any
/// whole number of blocks. The shares are chosen, not taken from recorded
/// traffic (see `perfbench/README.md`): two cold runs per block put cold
/// compiles and hits at comparable shares of request time, so a change to
/// either path moves the end-to-end metrics.
pub const BLOCK_HITS: usize = 42;
/// See [`BLOCK_HITS`].
pub const BLOCK_VALIDATES: usize = 4;
/// See [`BLOCK_HITS`].
pub const BLOCK_COLDS: usize = 2;
/// Requests per mix block.
pub const BLOCK_LEN: usize = BLOCK_HITS + BLOCK_VALIDATES + BLOCK_COLDS + 2;

/// Number of hot specs a mix draws from.
pub const HOT_SPECS: u8 = 3;

/// Campaign seeds in a run's pool (each hot spec × seed is one reference).
pub const SEED_SLOTS: u8 = 4;

/// The seeded request sequence of `serve_mix`: `blocks` shuffled blocks.
pub fn mix_sequence(seed: u64, blocks: usize) -> Vec<MixKind> {
    let mut rng = SplitMix::new(seed ^ 0x6D69_785F_7365_7131);
    let mut out = Vec::with_capacity(blocks * BLOCK_LEN);
    for _ in 0..blocks {
        let mut block = Vec::with_capacity(BLOCK_LEN);
        for _ in 0..BLOCK_HITS {
            let spec = rng.below(u64::from(HOT_SPECS)) as u8;
            let seed_slot = rng.below(u64::from(SEED_SLOTS)) as u8;
            block.push(MixKind::Hit { spec, seed_slot });
        }
        for _ in 0..BLOCK_VALIDATES {
            block.push(MixKind::Validate { spec: rng.below(u64::from(HOT_SPECS)) as u8 });
        }
        block.extend([MixKind::Cold; BLOCK_COLDS]);
        block.extend([MixKind::Conflict, MixKind::InvalidJson]);
        // Fisher–Yates with the same generator.
        for i in (1..block.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            block.swap(i, j);
        }
        out.extend(block);
    }
    out
}

/// The measured values of one run by metric name (units come from
/// `BENCHMARK.json`).
pub type Metrics = BTreeMap<&'static str, f64>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_running_hash_is_fnv1a64_of_the_concatenation() {
        let parts: [&[u8]; 4] =
            [b"", b"cell", &7u64.to_le_bytes(), &1.5f64.to_bits().to_le_bytes()];
        let mut h = Fnv::default();
        for p in parts {
            h.write(p);
        }
        assert_eq!(h.finish(), sixg_measure::store::fnv1a64(&parts.concat()));
        assert_eq!(Fnv::default().finish(), sixg_measure::store::fnv1a64(b""));
    }

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let samples: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(reported_percentile(&samples, 0.9), None, "9 beyond p90 is too few");
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(reported_percentile(&samples, 0.9), Some(90.0));
        assert_eq!(reported_percentile(&samples, 0.99), None);
        // The median is always reported, whatever the sample count.
        assert_eq!(reported_percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(reported_percentile(&[], 0.5), None);
    }

    #[test]
    fn expected_coded_errors_succeed_and_wrong_codes_or_drops_fail() {
        let mut t = Tally::default();
        assert!(t.record(Expect::Error("conflict"), &Got::Error("conflict".into())));
        assert!(t.record(Expect::Report(7), &Got::Report(7)));
        assert!(!t.record(Expect::Error("conflict"), &Got::Error("schema".into())));
        assert!(!t.record(Expect::Report(7), &Got::Report(8)), "wrong bytes fail");
        assert!(!t.record(Expect::Report(7), &Got::Error("io".into())));
        assert!(!t.record(Expect::Error("invalid_json"), &Got::Dropped));
        assert!(!t.record(Expect::Error("conflict"), &Got::Report(1)));
        assert_eq!(t, Tally { attempted: 7, failed: 5, errors_expected: 1, errors_unexpected: 2 });
        assert!((t.fail_ratio() - 5.0 / 7.0).abs() < 1e-12);
        assert_eq!(Tally::default().fail_ratio(), 0.0);
    }

    #[test]
    fn the_mix_is_a_pure_function_of_the_seed_with_exact_shares() {
        let a = mix_sequence(11, 40);
        assert_eq!(a, mix_sequence(11, 40), "same seed, same sequence");
        assert_ne!(a, mix_sequence(12, 40), "another seed, another sequence");
        let block = BLOCK_LEN;
        assert_eq!(a.len(), 40 * block);
        for seed in [0, 11, 12] {
            let seq = mix_sequence(seed, 40);
            let count = |f: fn(&MixKind) -> bool| seq.iter().filter(|k| f(k)).count();
            assert_eq!(count(|k| matches!(k, MixKind::Hit { .. })), 40 * 42);
            assert_eq!(count(|k| matches!(k, MixKind::Validate { .. })), 40 * 4);
            assert_eq!(count(|k| *k == MixKind::Cold), 40 * 2);
            assert_eq!(count(|k| *k == MixKind::Conflict), 40);
            assert_eq!(count(|k| *k == MixKind::InvalidJson), 40);
            // Every block carries the whole composition.
            for chunk in seq.chunks(block) {
                assert_eq!(chunk.iter().filter(|k| **k == MixKind::Cold).count(), 2);
            }
        }
        for k in &a {
            if let MixKind::Hit { spec, seed_slot } = k {
                assert!(*spec < HOT_SPECS && *seed_slot < SEED_SLOTS);
            }
        }
    }
}
