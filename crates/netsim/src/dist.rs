//! Probability distributions for delay modelling.
//!
//! Implemented in-crate (rather than pulling `rand_distr`) because the
//! simulator needs a small, auditable set with exact, documented
//! parameterisations — these distributions *are* part of the model.
//!
//! All samplers draw from [`SimRng`] so campaigns stay deterministic.

use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

/// A sampleable distribution over non-negative reals (delays, sizes).
pub trait Sample {
    /// Draws one value.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// Analytic mean where available (used by tests and queueing checks).
    fn mean(&self) -> f64;
}

/// Distributions with a closed-form inverse CDF.
///
/// `quantile(p)` returns the value `x` with `P(X ≤ x) = p`. Used by the
/// latency budget analysis (tail percentiles without sampling) and pinned
/// down by property tests: a quantile function must be monotone in `p` and
/// agree with its sampler's inverse-transform formula.
pub trait Quantile {
    /// The inverse CDF at `p ∈ [0, 1)`. Panics outside that range.
    fn quantile(&self, p: f64) -> f64;

    /// Batched inverse CDF: evaluates `quantile` over a whole column of
    /// uniforms at once, writing into `out` (`out[i] = quantile(u[i])`).
    ///
    /// This is the columnar hot path for large-grid campaigns: the caller
    /// advances the RNG once per *block* to fill `u`, then this tight loop
    /// turns the block into samples. The default implementation applies the
    /// exact same scalar `quantile` expression element-wise; an override
    /// (`Normal`'s) may reorder the work across lanes but never within one.
    /// Either way results are bitwise-identical to calling `quantile` in a
    /// loop, and panic where it panics — pinned by tests for every
    /// closed-form distribution.
    fn inverse_cdf_block(&self, u: &[f64], out: &mut [f64]) {
        assert_eq!(u.len(), out.len(), "inverse_cdf_block: length mismatch");
        for (o, p) in out.iter_mut().zip(u) {
            *o = self.quantile(*p);
        }
    }
}

fn check_p(p: f64) {
    assert!((0.0..1.0).contains(&p), "quantile: p must be in [0, 1), got {p}");
}

/// Degenerate distribution: always `value`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Constant(pub f64);

impl Sample for Constant {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.0
    }
    fn mean(&self) -> f64 {
        self.0
    }
}

impl Quantile for Constant {
    fn quantile(&self, p: f64) -> f64 {
        check_p(p);
        self.0
    }
}

/// Uniform on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Uniform {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution; panics if `hi < lo`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(hi >= lo, "uniform: hi < lo");
        Self { lo, hi }
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.uniform(self.lo, self.hi)
    }
    fn mean(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }
}

impl Quantile for Uniform {
    fn quantile(&self, p: f64) -> f64 {
        check_p(p);
        self.lo + (self.hi - self.lo) * p
    }
}

/// Exponential with rate `lambda` (mean `1/lambda`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Exponential {
    /// Rate parameter λ > 0.
    pub lambda: f64,
}

impl Exponential {
    /// From the rate λ.
    pub fn with_rate(lambda: f64) -> Self {
        assert!(lambda > 0.0, "exponential: lambda must be positive");
        Self { lambda }
    }
    /// From the mean `m = 1/λ`.
    pub fn with_mean(m: f64) -> Self {
        Self::with_rate(1.0 / m)
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse CDF; 1-u avoids ln(0).
        self.quantile(rng.unit())
    }
    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

impl Quantile for Exponential {
    fn quantile(&self, p: f64) -> f64 {
        check_p(p);
        -(1.0 - p).ln() / self.lambda
    }
}

/// Normal(mu, sigma) via Box–Muller (one value per draw; simple and exact).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normal {
    /// Mean.
    pub mu: f64,
    /// Standard deviation, σ ≥ 0.
    pub sigma: f64,
}

impl Normal {
    /// Creates a normal distribution; panics when σ < 0.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "normal: sigma must be non-negative");
        Self { mu, sigma }
    }

    /// Standard normal draw.
    pub fn standard_draw(rng: &mut SimRng) -> f64 {
        let u1 = (1.0 - rng.unit()).max(f64::MIN_POSITIVE);
        let u2 = rng.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Inverse CDF of the *standard* normal (Acklam's rational
    /// approximation, |relative error| < 1.15e-9 over (0, 1)).
    pub fn standard_quantile(p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "standard_quantile: p must be in (0, 1), got {p}");
        const C: [f64; 6] = [
            -7.784894002430293e-03,
            -3.223964580411365e-01,
            -2.400758277161838e+00,
            -2.549732539343734e+00,
            4.374664141464968e+00,
            2.938163982698783e+00,
        ];
        const D: [f64; 4] = [
            7.784695709041462e-03,
            3.224671290700398e-01,
            2.445134137142996e+00,
            3.754408661907416e+00,
        ];
        if p < P_LOW {
            // Lower tail.
            let q = (-2.0 * p.ln()).sqrt();
            (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
                / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
        } else if p <= 1.0 - P_LOW {
            central_quantile(p)
        } else {
            // Upper tail (by symmetry).
            let q = (-2.0 * (1.0 - p).ln()).sqrt();
            -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
                / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
        }
    }
}

impl Sample for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.mu + self.sigma * Self::standard_draw(rng)
    }
    fn mean(&self) -> f64 {
        self.mu
    }
}

impl Quantile for Normal {
    fn quantile(&self, p: f64) -> f64 {
        check_p(p);
        if p == 0.0 {
            return f64::NEG_INFINITY;
        }
        self.mu + self.sigma * Self::standard_quantile(p)
    }

    /// Two passes with the bits of the scalar loop. The first evaluates the
    /// central region's rational function for every lane without a branch,
    /// so the loop vectorises; the second recomputes through
    /// [`Quantile::quantile`] only the lanes outside `[P_LOW, 1 − P_LOW]`,
    /// which keeps the `[0, 1)` check and `quantile(0) = −∞`. A central
    /// lane runs the same IEEE operations in the same order as the scalar
    /// path, and rustc never contracts them into fused multiply-adds.
    fn inverse_cdf_block(&self, u: &[f64], out: &mut [f64]) {
        assert_eq!(u.len(), out.len(), "inverse_cdf_block: length mismatch");
        for (o, &p) in out.iter_mut().zip(u) {
            *o = self.mu + self.sigma * central_quantile(p);
        }
        for (o, &p) in out.iter_mut().zip(u) {
            if !(P_LOW..=1.0 - P_LOW).contains(&p) {
                *o = self.quantile(p);
            }
        }
    }
}

/// Acklam's central-region numerator coefficients.
const A: [f64; 6] = [
    -3.969683028665376e+01,
    2.209460984245205e+02,
    -2.759285104469687e+02,
    1.38357751867269e+02,
    -3.066479806614716e+01,
    2.506628277459239e+00,
];

/// Acklam's central-region denominator coefficients.
const B: [f64; 5] = [
    -5.447609879822406e+01,
    1.615858368580409e+02,
    -1.556989798598866e+02,
    6.680131188771972e+01,
    -1.328068155288572e+01,
];

/// The standard normal quantile's central region is `[P_LOW, 1 − P_LOW]`.
const P_LOW: f64 = 0.02425;

/// The central-region expression of [`Normal::standard_quantile`], the
/// one both it and the block kernel evaluate.
fn central_quantile(p: f64) -> f64 {
    let q = p - 0.5;
    let r = q * q;
    (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
        / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
}

/// LogNormal: `exp(Normal(mu, sigma))`.
///
/// The canonical heavy-ish-tailed model for Internet RTT components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    /// Location of the underlying normal.
    pub mu: f64,
    /// Scale of the underlying normal, σ ≥ 0.
    pub sigma: f64,
}

impl LogNormal {
    /// From underlying-normal parameters.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "lognormal: sigma must be non-negative");
        Self { mu, sigma }
    }

    /// Parameterised by the *distribution's* mean and coefficient of
    /// variation (cv = σ/μ of the lognormal itself) — the natural way to
    /// specify delay components ("mean 8 ms, cv 0.5").
    pub fn from_mean_cv(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0 && cv >= 0.0, "lognormal: invalid mean/cv");
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Self { mu, sigma: sigma2.sqrt() }
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * Normal::standard_draw(rng)).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

impl Quantile for LogNormal {
    fn quantile(&self, p: f64) -> f64 {
        check_p(p);
        if p == 0.0 {
            return 0.0;
        }
        (self.mu + self.sigma * Normal::standard_quantile(p)).exp()
    }
}

/// Pareto(x_min, alpha) — heavy-tailed spikes (congestion bursts).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pareto {
    /// Minimum value (scale), > 0.
    pub x_min: f64,
    /// Tail index α > 0 (mean finite iff α > 1).
    pub alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    pub fn new(x_min: f64, alpha: f64) -> Self {
        assert!(x_min > 0.0 && alpha > 0.0, "pareto: invalid parameters");
        Self { x_min, alpha }
    }
}

impl Sample for Pareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.quantile(rng.unit())
    }
    fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.x_min / (self.alpha - 1.0)
        }
    }
}

impl Quantile for Pareto {
    fn quantile(&self, p: f64) -> f64 {
        check_p(p);
        self.x_min / (1.0 - p).powf(1.0 / self.alpha)
    }
}

/// Weibull(scale, shape) — wireless fading / retransmission clusters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Weibull {
    /// Scale λ > 0.
    pub scale: f64,
    /// Shape k > 0.
    pub shape: f64,
}

impl Weibull {
    /// Creates a Weibull distribution.
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(scale > 0.0 && shape > 0.0, "weibull: invalid parameters");
        Self { scale, shape }
    }
}

impl Sample for Weibull {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.quantile(rng.unit())
    }
    fn mean(&self) -> f64 {
        self.scale * gamma(1.0 + 1.0 / self.shape)
    }
}

impl Quantile for Weibull {
    fn quantile(&self, p: f64) -> f64 {
        check_p(p);
        self.scale * (-(1.0 - p).ln()).powf(1.0 / self.shape)
    }
}

/// A weighted mixture of delay distributions.
///
/// Used for the mmWave PHY latency model, which Fezeu et al. report as a
/// multi-modal distribution (a fast-path mass under 1 ms, a mid mass under
/// 3 ms, and a bulk).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mixture {
    components: Vec<(f64, Component)>,
    total_weight: f64,
}

/// A component usable inside [`Mixture`] (closed enum so it serialises).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Component {
    /// Constant value.
    Constant(Constant),
    /// Uniform range.
    Uniform(Uniform),
    /// Exponential.
    Exponential(Exponential),
    /// Normal.
    Normal(Normal),
    /// LogNormal.
    LogNormal(LogNormal),
    /// Pareto.
    Pareto(Pareto),
    /// Weibull.
    Weibull(Weibull),
}

impl Sample for Component {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            Component::Constant(d) => d.sample(rng),
            Component::Uniform(d) => d.sample(rng),
            Component::Exponential(d) => d.sample(rng),
            Component::Normal(d) => d.sample(rng),
            Component::LogNormal(d) => d.sample(rng),
            Component::Pareto(d) => d.sample(rng),
            Component::Weibull(d) => d.sample(rng),
        }
    }
    fn mean(&self) -> f64 {
        match self {
            Component::Constant(d) => d.mean(),
            Component::Uniform(d) => d.mean(),
            Component::Exponential(d) => d.mean(),
            Component::Normal(d) => d.mean(),
            Component::LogNormal(d) => d.mean(),
            Component::Pareto(d) => d.mean(),
            Component::Weibull(d) => d.mean(),
        }
    }
}

impl Mixture {
    /// Builds a mixture from `(weight, component)` pairs.
    pub fn new(components: Vec<(f64, Component)>) -> Self {
        assert!(!components.is_empty(), "mixture needs at least one component");
        assert!(components.iter().all(|(w, _)| *w > 0.0), "weights must be positive");
        let total_weight = components.iter().map(|(w, _)| w).sum();
        Self { components, total_weight }
    }

    /// The component weights, normalised.
    pub fn weights(&self) -> Vec<f64> {
        self.components.iter().map(|(w, _)| w / self.total_weight).collect()
    }
}

impl Sample for Mixture {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let mut pick = rng.unit() * self.total_weight;
        for (w, c) in &self.components {
            if pick < *w {
                return c.sample(rng);
            }
            pick -= w;
        }
        self.components.last().unwrap().1.sample(rng)
    }

    fn mean(&self) -> f64 {
        self.components.iter().map(|(w, c)| w * c.mean()).sum::<f64>() / self.total_weight
    }
}

/// A declarative, serialisable description of a delay distribution.
///
/// This is the form distributions take in scenario spec files
/// (`specs/*.json`): a tagged object like `{"kind": "lognormal",
/// "mean_ms": 0.4, "cv": 0.5}` that [`DistSpec::build`]s into a sampleable
/// [`Component`]. Unlike the raw distribution structs, every variant is
/// parameterised the way an operator would write it down (means and
/// coefficients of variation rather than `mu`/`sigma`), and
/// [`DistSpec::validate`] rejects parameterisations that could produce
/// negative delays or undefined means *before* a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistSpec {
    /// Always `ms`.
    Constant {
        /// The fixed delay, ms.
        ms: f64,
    },
    /// Uniform on `[lo_ms, hi_ms)`.
    Uniform {
        /// Inclusive lower bound, ms.
        lo_ms: f64,
        /// Exclusive upper bound, ms.
        hi_ms: f64,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean delay, ms.
        mean_ms: f64,
    },
    /// Normal — only meaningful for delays when the mass below zero is
    /// negligible; `validate` enforces `mean_ms ≥ 4·std_ms`.
    Normal {
        /// Mean delay, ms.
        mean_ms: f64,
        /// Standard deviation, ms.
        std_ms: f64,
    },
    /// LogNormal by mean and coefficient of variation.
    LogNormal {
        /// Mean delay, ms.
        mean_ms: f64,
        /// Coefficient of variation (σ/μ of the lognormal itself).
        cv: f64,
    },
    /// Pareto by minimum value and tail index.
    Pareto {
        /// Minimum delay (scale), ms.
        x_min_ms: f64,
        /// Tail index α; `validate` requires α > 1 so the mean is finite.
        alpha: f64,
    },
    /// Weibull by scale and shape.
    Weibull {
        /// Scale λ, ms.
        scale_ms: f64,
        /// Shape k.
        shape: f64,
    },
}

impl DistSpec {
    /// The spec's `kind` tag.
    pub fn kind(&self) -> &'static str {
        match self {
            DistSpec::Constant { .. } => "constant",
            DistSpec::Uniform { .. } => "uniform",
            DistSpec::Exponential { .. } => "exponential",
            DistSpec::Normal { .. } => "normal",
            DistSpec::LogNormal { .. } => "lognormal",
            DistSpec::Pareto { .. } => "pareto",
            DistSpec::Weibull { .. } => "weibull",
        }
    }

    /// Checks the parameterisation describes a valid non-negative delay
    /// distribution with a finite mean.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            DistSpec::Constant { ms } => {
                if ms < 0.0 {
                    return Err(format!("constant delay must be non-negative, got {ms} ms"));
                }
            }
            DistSpec::Uniform { lo_ms, hi_ms } => {
                if lo_ms < 0.0 {
                    return Err(format!("uniform lower bound must be non-negative, got {lo_ms}"));
                }
                if hi_ms < lo_ms {
                    return Err(format!("uniform bounds inverted: lo {lo_ms} > hi {hi_ms}"));
                }
            }
            DistSpec::Exponential { mean_ms } => {
                if mean_ms <= 0.0 {
                    return Err(format!("exponential mean must be positive, got {mean_ms}"));
                }
            }
            DistSpec::Normal { mean_ms, std_ms } => {
                if std_ms < 0.0 {
                    return Err(format!("normal std must be non-negative, got {std_ms}"));
                }
                if mean_ms < 4.0 * std_ms {
                    return Err(format!(
                        "normal delay needs mean ≥ 4·std to keep negative mass negligible \
                         (got mean {mean_ms}, std {std_ms}); use lognormal for wider spreads"
                    ));
                }
            }
            DistSpec::LogNormal { mean_ms, cv } => {
                if mean_ms <= 0.0 || cv < 0.0 {
                    return Err(format!(
                        "lognormal needs mean > 0 and cv ≥ 0, got mean {mean_ms}, cv {cv}"
                    ));
                }
            }
            DistSpec::Pareto { x_min_ms, alpha } => {
                if x_min_ms <= 0.0 {
                    return Err(format!("pareto x_min must be positive, got {x_min_ms}"));
                }
                if alpha <= 1.0 {
                    return Err(format!(
                        "pareto tail index must exceed 1 for a finite mean delay, got {alpha}"
                    ));
                }
            }
            DistSpec::Weibull { scale_ms, shape } => {
                if scale_ms <= 0.0 || shape <= 0.0 {
                    return Err(format!(
                        "weibull needs positive scale and shape, got scale {scale_ms}, \
                         shape {shape}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Compiles into a sampleable [`Component`]. Panics on invalid
    /// parameters — call [`Self::validate`] first for a recoverable error.
    pub fn build(&self) -> Component {
        match *self {
            DistSpec::Constant { ms } => Component::Constant(Constant(ms)),
            DistSpec::Uniform { lo_ms, hi_ms } => Component::Uniform(Uniform::new(lo_ms, hi_ms)),
            DistSpec::Exponential { mean_ms } => {
                Component::Exponential(Exponential::with_mean(mean_ms))
            }
            DistSpec::Normal { mean_ms, std_ms } => Component::Normal(Normal::new(mean_ms, std_ms)),
            DistSpec::LogNormal { mean_ms, cv } => {
                Component::LogNormal(LogNormal::from_mean_cv(mean_ms, cv))
            }
            DistSpec::Pareto { x_min_ms, alpha } => Component::Pareto(Pareto::new(x_min_ms, alpha)),
            DistSpec::Weibull { scale_ms, shape } => {
                Component::Weibull(Weibull::new(scale_ms, shape))
            }
        }
    }

    /// Analytic mean delay of the described distribution, ms.
    ///
    /// For `Constant` this is the exact value; the analytic path sampler
    /// consumes this expectation as the link's fixed extra latency (the
    /// same convention as the `expected_link_ms` routing metric), while
    /// event-driven workloads can [`Self::build`] the full distribution.
    pub fn mean_ms(&self) -> f64 {
        match *self {
            DistSpec::Constant { ms } => ms,
            DistSpec::LogNormal { mean_ms, .. } => mean_ms,
            DistSpec::Exponential { mean_ms } => mean_ms,
            DistSpec::Normal { mean_ms, .. } => mean_ms,
            _ => self.build().mean(),
        }
    }

    /// Decodes from a JSON-shaped [`serde::Value`] (`{"kind": ..., ...}`).
    pub fn from_value(v: &serde::Value) -> Result<Self, String> {
        let kind = v
            .get("kind")
            .and_then(serde::Value::as_str)
            .ok_or_else(|| "distribution needs a string `kind` field".to_string())?;
        let num = |field: &str| -> Result<f64, String> {
            v.get(field)
                .and_then(serde::Value::as_f64)
                .ok_or_else(|| format!("{kind} distribution needs a numeric `{field}` field"))
        };
        let spec = match kind {
            "constant" => DistSpec::Constant { ms: num("ms")? },
            "uniform" => DistSpec::Uniform { lo_ms: num("lo_ms")?, hi_ms: num("hi_ms")? },
            "exponential" => DistSpec::Exponential { mean_ms: num("mean_ms")? },
            "normal" => DistSpec::Normal { mean_ms: num("mean_ms")?, std_ms: num("std_ms")? },
            "lognormal" => DistSpec::LogNormal { mean_ms: num("mean_ms")?, cv: num("cv")? },
            "pareto" => DistSpec::Pareto { x_min_ms: num("x_min_ms")?, alpha: num("alpha")? },
            "weibull" => DistSpec::Weibull { scale_ms: num("scale_ms")?, shape: num("shape")? },
            other => {
                return Err(format!(
                    "unknown distribution kind {other:?} (expected constant, uniform, \
                     exponential, normal, lognormal, pareto, or weibull)"
                ))
            }
        };
        Ok(spec)
    }
}

impl serde::Serialize for DistSpec {
    fn to_value(&self) -> serde::Value {
        let pair = |k: &str, x: f64| (k.to_string(), serde::Value::F64(x));
        let kind = ("kind".to_string(), serde::Value::String(self.kind().to_string()));
        let fields = match *self {
            DistSpec::Constant { ms } => vec![kind, pair("ms", ms)],
            DistSpec::Uniform { lo_ms, hi_ms } => {
                vec![kind, pair("lo_ms", lo_ms), pair("hi_ms", hi_ms)]
            }
            DistSpec::Exponential { mean_ms } => vec![kind, pair("mean_ms", mean_ms)],
            DistSpec::Normal { mean_ms, std_ms } => {
                vec![kind, pair("mean_ms", mean_ms), pair("std_ms", std_ms)]
            }
            DistSpec::LogNormal { mean_ms, cv } => {
                vec![kind, pair("mean_ms", mean_ms), pair("cv", cv)]
            }
            DistSpec::Pareto { x_min_ms, alpha } => {
                vec![kind, pair("x_min_ms", x_min_ms), pair("alpha", alpha)]
            }
            DistSpec::Weibull { scale_ms, shape } => {
                vec![kind, pair("scale_ms", scale_ms), pair("shape", shape)]
            }
        };
        serde::Value::Object(fields)
    }
}

/// Lanczos approximation of the gamma function (g = 7, n = 9), |error| <
/// 1e-13 over the domain used here (arguments in `(0, 20]`).
pub fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_81,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical_mean(d: &impl Sample, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::from_seed(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn gamma_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma(5.0) - 24.0).abs() < 1e-8);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(4.0);
        let m = empirical_mean(&d, 100_000, 1);
        assert!((m - 4.0).abs() < 0.08, "got {m}");
    }

    #[test]
    fn normal_mean_and_spread() {
        let d = Normal::new(10.0, 2.0);
        let mut rng = SimRng::from_seed(2);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd {}", var.sqrt());
    }

    #[test]
    fn lognormal_from_mean_cv() {
        let d = LogNormal::from_mean_cv(8.0, 0.5);
        assert!((d.mean() - 8.0).abs() < 1e-9);
        let m = empirical_mean(&d, 200_000, 3);
        assert!((m - 8.0).abs() < 0.15, "got {m}");
    }

    #[test]
    fn lognormal_is_positive() {
        let d = LogNormal::from_mean_cv(1.0, 2.0);
        let mut rng = SimRng::from_seed(4);
        assert!((0..10_000).all(|_| d.sample(&mut rng) > 0.0));
    }

    #[test]
    fn pareto_mean() {
        let d = Pareto::new(1.0, 3.0);
        assert!((d.mean() - 1.5).abs() < 1e-12);
        let m = empirical_mean(&d, 200_000, 5);
        assert!((m - 1.5).abs() < 0.05, "got {m}");
        assert!(Pareto::new(1.0, 0.9).mean().is_infinite());
    }

    #[test]
    fn weibull_mean() {
        let d = Weibull::new(2.0, 1.5);
        let analytic = d.mean();
        let m = empirical_mean(&d, 200_000, 6);
        assert!((m - analytic).abs() < 0.05, "got {m} want {analytic}");
    }

    #[test]
    fn weibull_shape_one_is_exponential() {
        let w = Weibull::new(3.0, 1.0);
        assert!((w.mean() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn inverse_cdf_block_is_bitwise_identical_to_scalar_quantile() {
        // The columnar pipeline's determinism rests on this: a block
        // evaluation must produce the exact bits of the scalar loop for
        // every closed-form distribution, across the full open interval
        // including deep tails.
        let mut rng = SimRng::from_seed(0xC01u64);
        let mut u: Vec<f64> = (0..4096).map(|_| rng.unit()).collect();
        u.extend_from_slice(&[0.0, 1e-300, 0.5, 0.02424, 0.02426, 0.97576, 1.0 - 1e-12]);
        // On and one ulp either side of both boundaries of the Normal
        // kernel's central region, where its two passes meet.
        let p_high = 1.0 - P_LOW;
        u.extend_from_slice(&[P_LOW.next_down(), P_LOW, P_LOW.next_up()]);
        u.extend_from_slice(&[p_high.next_down(), p_high, p_high.next_up(), 1.0f64.next_down()]);
        let quantiles: [&dyn Quantile; 7] = [
            &Constant(4.2),
            &Uniform::new(1.0, 9.0),
            &Exponential::with_mean(4.0),
            &Normal::new(10.0, 2.0),
            &LogNormal::from_mean_cv(8.0, 0.5),
            &Pareto::new(1.0, 3.0),
            &Weibull::new(2.0, 1.5),
        ];
        for d in quantiles {
            let mut block = vec![0.0; u.len()];
            d.inverse_cdf_block(&u, &mut block);
            for (i, p) in u.iter().enumerate() {
                let scalar = d.quantile(*p);
                assert_eq!(
                    scalar.to_bits(),
                    block[i].to_bits(),
                    "p={p}: scalar {scalar} vs block {}",
                    block[i]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "quantile: p must be in")]
    fn normal_inverse_cdf_block_rejects_p_of_one() {
        let mut out = [0.0; 3];
        Normal::new(10.0, 2.0).inverse_cdf_block(&[0.5, 1.0, 0.25], &mut out);
    }

    #[test]
    #[should_panic(expected = "quantile: p must be in")]
    fn normal_inverse_cdf_block_rejects_nan() {
        let mut out = [0.0; 3];
        Normal::new(10.0, 2.0).inverse_cdf_block(&[0.5, f64::NAN, 0.25], &mut out);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn inverse_cdf_block_rejects_mismatched_lengths() {
        let mut out = [0.0; 2];
        Constant(1.0).inverse_cdf_block(&[0.5; 3], &mut out);
    }

    #[test]
    fn mixture_mean_is_weighted() {
        let m = Mixture::new(vec![
            (0.25, Component::Constant(Constant(1.0))),
            (0.75, Component::Constant(Constant(5.0))),
        ]);
        assert!((m.mean() - 4.0).abs() < 1e-12);
        let e = empirical_mean(&m, 100_000, 7);
        assert!((e - 4.0).abs() < 0.03, "got {e}");
    }

    #[test]
    fn mixture_component_fractions() {
        // 30% should land below 2, the rest at 10.
        let m = Mixture::new(vec![
            (0.3, Component::Uniform(Uniform::new(0.0, 2.0))),
            (0.7, Component::Constant(Constant(10.0))),
        ]);
        let mut rng = SimRng::from_seed(8);
        let n = 100_000;
        let low = (0..n).filter(|_| m.sample(&mut rng) < 2.0).count();
        let frac = low as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn standard_quantile_known_values() {
        assert_eq!(Normal::standard_quantile(0.5), 0.0);
        assert!((Normal::standard_quantile(0.975) - 1.959_963_984_540_054).abs() < 1e-8);
        assert!((Normal::standard_quantile(0.025) + 1.959_963_984_540_054).abs() < 1e-8);
        // Tail branches (beyond Acklam's central region).
        assert!((Normal::standard_quantile(0.001) + 3.090_232_306_167_813).abs() < 1e-7);
        assert!((Normal::standard_quantile(0.999) - 3.090_232_306_167_813).abs() < 1e-7);
    }

    #[test]
    fn quantiles_match_closed_forms() {
        let e = Exponential::with_mean(4.0);
        assert!((e.quantile(0.5) - 4.0 * std::f64::consts::LN_2).abs() < 1e-12);
        let u = Uniform::new(10.0, 20.0);
        assert_eq!(u.quantile(0.25), 12.5);
        let p = Pareto::new(2.0, 3.0);
        assert_eq!(p.quantile(0.0), 2.0);
        let w = Weibull::new(3.0, 1.0); // shape 1 == exponential(mean 3)
        assert!((w.quantile(0.5) - 3.0 * std::f64::consts::LN_2).abs() < 1e-12);
        let ln = LogNormal::new(1.0, 0.5);
        assert!((ln.quantile(0.5) - 1.0f64.exp()).abs() < 1e-9);
    }

    #[test]
    fn quantile_inverts_empirical_cdf() {
        // For inverse-transform samplers the p-quantile must sit at the
        // p-th fraction of a large sample.
        let d = Exponential::with_mean(2.0);
        let mut rng = SimRng::from_seed(11);
        let n = 100_000;
        for p in [0.1, 0.5, 0.9] {
            let q = d.quantile(p);
            let below = (0..n).filter(|_| d.sample(&mut rng) <= q).count();
            let frac = below as f64 / n as f64;
            assert!((frac - p).abs() < 0.01, "p={p} frac={frac}");
        }
    }

    #[test]
    #[should_panic(expected = "quantile: p must be in")]
    fn quantile_rejects_p_of_one() {
        let _ = Exponential::with_mean(1.0).quantile(1.0);
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = LogNormal::from_mean_cv(5.0, 1.0);
        let a: Vec<f64> = {
            let mut rng = SimRng::from_seed(9);
            (0..10).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = SimRng::from_seed(9);
            (0..10).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "weights must be positive")]
    fn mixture_rejects_zero_weights() {
        let _ = Mixture::new(vec![(0.0, Component::Constant(Constant(1.0)))]);
    }

    const ALL_SPECS: [DistSpec; 7] = [
        DistSpec::Constant { ms: 0.4 },
        DistSpec::Uniform { lo_ms: 1.0, hi_ms: 3.0 },
        DistSpec::Exponential { mean_ms: 2.0 },
        DistSpec::Normal { mean_ms: 8.0, std_ms: 1.0 },
        DistSpec::LogNormal { mean_ms: 0.4, cv: 0.5 },
        DistSpec::Pareto { x_min_ms: 1.0, alpha: 3.0 },
        DistSpec::Weibull { scale_ms: 2.0, shape: 1.5 },
    ];

    #[test]
    fn dist_spec_builds_and_means_agree() {
        for spec in ALL_SPECS {
            spec.validate().expect("all specs valid");
            let built = spec.build();
            assert!(
                (spec.mean_ms() - built.mean()).abs() < 1e-12,
                "{}: spec mean {} vs component mean {}",
                spec.kind(),
                spec.mean_ms(),
                built.mean()
            );
        }
        assert_eq!(DistSpec::Constant { ms: 0.4 }.mean_ms(), 0.4);
        assert!((DistSpec::LogNormal { mean_ms: 0.4, cv: 0.5 }.mean_ms() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn dist_spec_value_round_trip() {
        use serde::Serialize;
        for spec in ALL_SPECS {
            let v = spec.to_value();
            let back = DistSpec::from_value(&v).expect("round trip");
            assert_eq!(back, spec, "{}", spec.kind());
        }
    }

    #[test]
    fn dist_spec_rejects_invalid_parameterisations() {
        let cases: [(DistSpec, &str); 6] = [
            (DistSpec::Constant { ms: -1.0 }, "non-negative"),
            (DistSpec::Uniform { lo_ms: 3.0, hi_ms: 1.0 }, "inverted"),
            (DistSpec::Exponential { mean_ms: 0.0 }, "positive"),
            (DistSpec::Normal { mean_ms: 1.0, std_ms: 1.0 }, "negative mass"),
            (DistSpec::Pareto { x_min_ms: 1.0, alpha: 0.9 }, "finite mean"),
            (DistSpec::Weibull { scale_ms: -2.0, shape: 1.0 }, "positive"),
        ];
        for (spec, needle) in cases {
            let err = spec.validate().expect_err("must be rejected");
            assert!(err.contains(needle), "{}: {err}", spec.kind());
        }
    }

    #[test]
    fn dist_spec_from_value_errors_are_actionable() {
        use serde::Value;
        let v = Value::Object(vec![("kind".into(), Value::String("gauss".into()))]);
        let err = DistSpec::from_value(&v).unwrap_err();
        assert!(err.contains("unknown distribution kind"), "{err}");
        let v = Value::Object(vec![("kind".into(), Value::String("constant".into()))]);
        let err = DistSpec::from_value(&v).unwrap_err();
        assert!(err.contains("`ms`"), "{err}");
        let err = DistSpec::from_value(&Value::Null).unwrap_err();
        assert!(err.contains("`kind`"), "{err}");
    }
}
