//! Radio access network latency models.
//!
//! The campaign's mobile node reaches the Internet over a 5G NR air
//! interface; the wired baseline uses campus ethernet/FTTH. The paper's
//! analysis separates *access* latency from *core/transit* latency, so the
//! simulator does too: path sampling (see [`crate::latency`]) covers the
//! wired part and an [`AccessModel`] adds the air interface.
//!
//! The 5G model ([`FiveGAccess`]) decomposes a user-plane round trip into
//! slot alignment, scheduling-request/grant latency (grows with cell
//! *load*), fixed transmission + processing, HARQ retransmissions and RRC
//! state-transition spikes (both grow with cell *interference*), plus a
//! multiplicative fading jitter. Both the mean and the variance of the
//! resulting RTT are available **analytically**, which is what lets the
//! Klagenfurt scenario be calibrated to the paper's per-cell mean/σ maps
//! by simple inversion (see [`FiveGAccess::fit`]).
//!
//! Sub-modules:
//! * [`phy`] — the 5G mmWave PHY-layer latency mixture calibrated to the
//!   measurements of Fezeu et al. (4.4 % of packets under 1 ms, 22.36 %
//!   under 3 ms) that the paper cites in Section IV-C.

pub mod phy;

use crate::dist::{LogNormal, Sample};
use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Anything that can produce an access-network round-trip sample.
pub trait AccessModel {
    /// One RTT contribution sample, milliseconds.
    fn sample_rtt_ms(&self, rng: &mut SimRng) -> f64;
    /// Analytic mean RTT contribution, milliseconds.
    fn mean_rtt_ms(&self) -> f64;
    /// Analytic RTT variance, ms².
    fn var_rtt_ms2(&self) -> f64;
}

/// Wired access (campus ethernet / FTTH): sub-millisecond, light-tailed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WiredAccess {
    /// Mean RTT contribution, ms.
    pub mean_ms: f64,
    /// Coefficient of variation.
    pub cv: f64,
}

impl Default for WiredAccess {
    fn default() -> Self {
        Self { mean_ms: 0.6, cv: 0.25 }
    }
}

impl AccessModel for WiredAccess {
    fn sample_rtt_ms(&self, rng: &mut SimRng) -> f64 {
        LogNormal::from_mean_cv(self.mean_ms, self.cv).sample(rng)
    }
    fn mean_rtt_ms(&self) -> f64 {
        self.mean_ms
    }
    fn var_rtt_ms2(&self) -> f64 {
        (self.mean_ms * self.cv).powi(2)
    }
}

/// 6G air-interface target: the paper quotes 100 µs-class latency (She et
/// al.), i.e. an RTT contribution of a few hundred microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SixGAccess {
    /// Mean RTT contribution, ms (default 0.25 ms ⇒ 125 µs one-way).
    pub mean_ms: f64,
    /// Coefficient of variation.
    pub cv: f64,
}

impl Default for SixGAccess {
    fn default() -> Self {
        Self { mean_ms: 0.25, cv: 0.3 }
    }
}

impl AccessModel for SixGAccess {
    fn sample_rtt_ms(&self, rng: &mut SimRng) -> f64 {
        LogNormal::from_mean_cv(self.mean_ms, self.cv).sample(rng)
    }
    fn mean_rtt_ms(&self) -> f64 {
        self.mean_ms
    }
    fn var_rtt_ms2(&self) -> f64 {
        (self.mean_ms * self.cv).powi(2)
    }
}

/// Cell radio environment: both axes normalised to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CellEnv {
    /// Uplink scheduling contention (PRB occupancy). Drives grant latency.
    pub load: f64,
    /// Interference / coverage degradation. Drives HARQ retransmissions,
    /// RRC reconnection spikes and fading jitter.
    pub interference: f64,
}

impl CellEnv {
    /// Creates an environment; both axes are clamped to `[0, 1]`.
    pub fn new(load: f64, interference: f64) -> Self {
        Self { load: load.clamp(0.0, 1.0), interference: interference.clamp(0.0, 1.0) }
    }
}

// --- 5G NR model constants (milliseconds unless noted) -------------------

/// Slot-alignment delay bound (two half-slot alignments per RTT).
const ALIGN_MAX: f64 = 1.0;
/// Grant latency at zero load.
const SCHED_BASE: f64 = 1.6;
/// Extra grant latency at full load (includes gNB scheduler queueing under
/// congestion).
const SCHED_GAIN: f64 = 44.0;
/// Fixed UL+DL transmission + RAN processing.
const TXPROC: f64 = 2.2;
/// HARQ retransmission probability at zero / gain with interference.
const HARQ_P0: f64 = 0.02;
const HARQ_PG: f64 = 0.60;
/// Per-retransmission cost bounds (uniform).
const HARQ_LO: f64 = 8.0;
const HARQ_HI: f64 = 12.0;
/// RRC / beam-failure spike probability gain with interference.
const RRC_QG: f64 = 0.35;
/// Spike cost bounds (uniform) — idle→connected transition.
const RRC_LO: f64 = 30.0;
const RRC_HI: f64 = 100.0;
/// Fading jitter coefficient of variation: floor / interference gain.
const JIT_CV0: f64 = 0.03;
const JIT_CVG: f64 = 0.60;

/// 5G NR access model parameterised by the cell environment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FiveGAccess {
    /// The cell environment driving all stochastic components.
    pub env: CellEnv,
}

impl FiveGAccess {
    /// Model for a given environment.
    pub fn new(env: CellEnv) -> Self {
        Self { env }
    }

    /// An unloaded, interference-free cell — the best case the standard
    /// permits for this deployment class (≈4.5 ms RTT contribution, so an
    /// edge-UPF deployment lands in the 5–6.2 ms end-to-end band the
    /// UPF-integration literature reports).
    pub fn ideal() -> Self {
        Self::new(CellEnv::new(0.0, 0.0))
    }

    fn harq_p(&self) -> f64 {
        HARQ_P0 + HARQ_PG * self.env.interference
    }

    fn rrc_q(&self) -> f64 {
        RRC_QG * self.env.interference
    }

    fn jitter_cv(&self) -> f64 {
        JIT_CV0 + JIT_CVG * self.env.interference
    }

    /// Mean of the jitter-scaled structural part (everything except RRC
    /// spikes), ms.
    fn core_mean(&self) -> f64 {
        let p = self.harq_p();
        let harq_mean = p / (1.0 - p) * (HARQ_LO + HARQ_HI) / 2.0;
        ALIGN_MAX / 2.0 + SCHED_BASE + SCHED_GAIN * self.env.load + TXPROC + harq_mean
    }

    /// Variance of the structural part before jitter scaling, ms².
    fn core_var(&self) -> f64 {
        let p = self.harq_p();
        let retx_mean = (HARQ_LO + HARQ_HI) / 2.0;
        let retx_var = (HARQ_HI - HARQ_LO).powi(2) / 12.0;
        let n_mean = p / (1.0 - p);
        let n_var = p / (1.0 - p).powi(2);
        let harq_var = n_mean * retx_var + n_var * retx_mean * retx_mean;
        ALIGN_MAX * ALIGN_MAX / 12.0 + harq_var
    }
}

impl AccessModel for FiveGAccess {
    fn sample_rtt_ms(&self, rng: &mut SimRng) -> f64 {
        let align = rng.uniform(0.0, ALIGN_MAX);
        let sched = SCHED_BASE + SCHED_GAIN * self.env.load;
        let mut harq = 0.0;
        let p = self.harq_p();
        while rng.chance(p) {
            harq += rng.uniform(HARQ_LO, HARQ_HI);
        }
        let core = align + sched + TXPROC + harq;
        let jitter = LogNormal::from_mean_cv(1.0, self.jitter_cv()).sample(rng);
        let rrc = if rng.chance(self.rrc_q()) { rng.uniform(RRC_LO, RRC_HI) } else { 0.0 };
        core * jitter + rrc
    }

    fn mean_rtt_ms(&self) -> f64 {
        self.core_mean() + self.rrc_q() * (RRC_LO + RRC_HI) / 2.0
    }

    fn var_rtt_ms2(&self) -> f64 {
        let m = self.core_mean();
        let v = self.core_var();
        let cv2 = self.jitter_cv().powi(2);
        // Var(X·J) with E[J]=1, independent: (v+m²)(1+cv²) − m².
        let jittered = (v + m * m) * (1.0 + cv2) - m * m;
        let q = self.rrc_q();
        let rrc_mean = (RRC_LO + RRC_HI) / 2.0;
        let rrc_var = (RRC_HI - RRC_LO).powi(2) / 12.0;
        let rrc = q * (rrc_var + rrc_mean * rrc_mean) - (q * rrc_mean).powi(2);
        jittered + rrc
    }
}

impl FiveGAccess {
    /// Smallest/largest achievable mean RTT contribution, ms.
    pub fn mean_range() -> (f64, f64) {
        (
            FiveGAccess::new(CellEnv::new(0.0, 0.0)).mean_rtt_ms(),
            FiveGAccess::new(CellEnv::new(1.0, 1.0)).mean_rtt_ms(),
        )
    }

    /// Calibrates a cell environment so the model's analytic mean and
    /// standard deviation match the targets as closely as the parameter
    /// box `[0,1]²` allows.
    ///
    /// Strategy: σ is monotonically increasing in `interference` (HARQ,
    /// RRC and jitter variance all grow with it), while for any fixed
    /// interference the mean is linear in `load`. So we bisect on
    /// interference, solving `load` exactly for the mean at each step.
    ///
    /// ```
    /// use sixg_netsim::radio::{AccessModel, FiveGAccess};
    ///
    /// // A cell whose access RTT should average 30 ms with σ = 8 ms.
    /// let cell = FiveGAccess::fit(30.0, 8.0);
    /// assert!((cell.mean_rtt_ms() - 30.0).abs() < 1.0);
    /// assert!((cell.var_rtt_ms2().sqrt() - 8.0).abs() < 1.5);
    /// ```
    pub fn fit(target_mean_ms: f64, target_std_ms: f64) -> Self {
        assert!(target_mean_ms > 0.0 && target_std_ms >= 0.0, "invalid targets");
        let load_for_mean = |intf: f64| -> f64 {
            let probe = FiveGAccess::new(CellEnv { load: 0.0, interference: intf });
            // mean = core_mean(load=0) + SCHED_GAIN·load + rrc
            let base = probe.mean_rtt_ms();
            ((target_mean_ms - base) / SCHED_GAIN).clamp(0.0, 1.0)
        };
        let std_at = |intf: f64| -> f64 {
            FiveGAccess::new(CellEnv { load: load_for_mean(intf), interference: intf })
                .var_rtt_ms2()
                .sqrt()
        };
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        if std_at(lo) >= target_std_ms {
            let load = load_for_mean(lo);
            return FiveGAccess::new(CellEnv { load, interference: lo });
        }
        if std_at(hi) <= target_std_ms {
            let load = load_for_mean(hi);
            return FiveGAccess::new(CellEnv { load, interference: hi });
        }
        for _ in 0..60 {
            let mid = (lo + hi) / 2.0;
            if std_at(mid) < target_std_ms {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let intf = (lo + hi) / 2.0;
        FiveGAccess::new(CellEnv { load: load_for_mean(intf), interference: intf })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Welford;

    fn empirical(model: &impl AccessModel, n: usize, seed: u64) -> Welford {
        let mut rng = SimRng::from_seed(seed);
        let mut w = Welford::new();
        for _ in 0..n {
            w.push(model.sample_rtt_ms(&mut rng));
        }
        w
    }

    #[test]
    fn analytic_mean_matches_empirical_across_env() {
        for (l, i) in [(0.0, 0.0), (0.3, 0.2), (0.8, 0.6), (1.0, 1.0)] {
            let m = FiveGAccess::new(CellEnv::new(l, i));
            let w = empirical(&m, 200_000, 17);
            let rel = (w.mean() - m.mean_rtt_ms()).abs() / m.mean_rtt_ms();
            assert!(rel < 0.02, "env ({l},{i}): emp {} vs analytic {}", w.mean(), m.mean_rtt_ms());
        }
    }

    #[test]
    fn analytic_variance_matches_empirical() {
        for (l, i) in [(0.2, 0.1), (0.5, 0.5), (0.9, 0.9)] {
            let m = FiveGAccess::new(CellEnv::new(l, i));
            let w = empirical(&m, 400_000, 23);
            let rel = (w.variance() - m.var_rtt_ms2()).abs() / m.var_rtt_ms2();
            assert!(
                rel < 0.06,
                "env ({l},{i}): emp var {} vs analytic {}",
                w.variance(),
                m.var_rtt_ms2()
            );
        }
    }

    #[test]
    fn ideal_cell_leaves_room_for_upf_band() {
        // Barrachina/Goshi report 5–6.2 ms end-to-end with edge UPFs; the
        // breakout path adds ~1.4 ms, so best-case access must be ≈4.5 ms.
        let m = FiveGAccess::ideal().mean_rtt_ms();
        assert!((4.0..5.0).contains(&m), "got {m}");
    }

    #[test]
    fn mean_range_covers_campaign_needs() {
        let (lo, hi) = FiveGAccess::mean_range();
        assert!(lo < 6.0, "lo {lo}");
        assert!(hi > 68.0, "hi {hi}");
    }

    #[test]
    fn load_raises_mean_interference_raises_std() {
        let base = FiveGAccess::new(CellEnv::new(0.2, 0.2));
        let loaded = FiveGAccess::new(CellEnv::new(0.8, 0.2));
        let noisy = FiveGAccess::new(CellEnv::new(0.2, 0.8));
        assert!(loaded.mean_rtt_ms() > base.mean_rtt_ms() + 10.0);
        assert!(noisy.var_rtt_ms2() > 4.0 * base.var_rtt_ms2());
    }

    #[test]
    fn fit_recovers_targets() {
        for (mean, std) in [(21.0, 2.0), (35.0, 12.0), (55.0, 30.0), (68.0, 45.0)] {
            let m = FiveGAccess::fit(mean, std);
            assert!(
                (m.mean_rtt_ms() - mean).abs() < 0.8,
                "mean: want {mean} got {}",
                m.mean_rtt_ms()
            );
            assert!(
                (m.var_rtt_ms2().sqrt() - std).abs() < 1.5,
                "std: want {std} got {}",
                m.var_rtt_ms2().sqrt()
            );
        }
    }

    #[test]
    fn fit_clamps_out_of_range_targets() {
        // Unreachably low σ: clamps to interference 0, still hits mean.
        let m = FiveGAccess::fit(25.0, 0.1);
        assert_eq!(m.env.interference, 0.0);
        assert!((m.mean_rtt_ms() - 25.0).abs() < 0.5);
        // Unreachably high mean: clamps load to 1.
        let m = FiveGAccess::fit(500.0, 10.0);
        assert_eq!(m.env.load, 1.0);
    }

    #[test]
    fn wired_and_sixg_are_sub_ms() {
        let wired = WiredAccess::default();
        let sixg = SixGAccess::default();
        assert!(wired.mean_rtt_ms() < 1.0);
        assert!(sixg.mean_rtt_ms() < 0.5);
        let w = empirical(&sixg, 50_000, 31);
        assert!((w.mean() - sixg.mean_rtt_ms()).abs() < 0.01);
        // The same draws: every sample is positive.
        let mut rng = SimRng::from_seed(31);
        assert!((0..50_000).all(|_| sixg.sample_rtt_ms(&mut rng) > 0.0));
    }

    #[test]
    fn samples_deterministic_per_seed() {
        let m = FiveGAccess::new(CellEnv::new(0.5, 0.5));
        let mut a = SimRng::from_seed(77);
        let mut b = SimRng::from_seed(77);
        for _ in 0..100 {
            assert_eq!(m.sample_rtt_ms(&mut a), m.sample_rtt_ms(&mut b));
        }
    }

    #[test]
    fn env_clamps() {
        let e = CellEnv::new(2.0, -1.0);
        assert_eq!(e.load, 1.0);
        assert_eq!(e.interference, 0.0);
    }
}
