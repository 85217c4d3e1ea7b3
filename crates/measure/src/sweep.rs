//! Declarative parameter sweeps: one spec file → a campaign matrix.
//!
//! The paper's headline numbers come from *sweeps* — cadence, density and
//! topology variations around the measured baseline — yet a single
//! [`ScenarioSpec`] describes exactly one campaign. A [`SweepSpec`] lifts
//! that to a family: it names a **base** scenario spec plus a list of typed
//! **axes**, and the cross product of the axes' values compiles — through
//! the ordinary [`Scenario::from_spec`] pipeline — into an
//! order-deterministic list of campaign variants:
//!
//! * [`AxisDef::Override`] — a JSON-path parameter override applied to the
//!   base spec's value tree (`$.campaign.sample_interval_s`,
//!   `$.links[3].extra.mean_ms`, `$.ue.bandwidth_bps`, …). The path must
//!   resolve in the base spec; a path that doesn't is a validation error
//!   anchored at the axis.
//! * [`AxisDef::Backend`] — execution-backend selection: `analytic`,
//!   `event`, or `both` (which expands, in order, to analytic then event).
//! * [`AxisDef::Seeds`] — a contiguous campaign-seed range
//!   (`start .. start + count`).
//! * [`AxisDef::DensityScale`] — multiplies the base spec's density peak
//!   (`$.density.peak`), scaling the population raster
//!   ([`Scenario::density`]). No campaign reads that raster: the
//!   traversal's dwell times and every sample depend only on the grid and
//!   the target field. So density variants sample bit-identical fields,
//!   while each factor still compiles (and calibrates) a scenario of its
//!   own.
//!
//! **Variant ordering contract.** Variants enumerate the axis cross
//! product like an odometer with the *last* axis fastest: axis 0 varies
//! slowest, the final axis increments on every consecutive variant. The
//! order — and therefore every variant index, label and random stream — is
//! a pure function of the sweep spec, which is what makes sweep reports
//! reproducible bit for bit.
//!
//! **Execution.** In memory ([`Sweep::run`], `exec::execute` and the
//! daemon's sweep requests), the runs fall into **draw groups**: the runs
//! on one compiled scenario with one backend, campaign seed and pass
//! count, plus one cadence for a faulted run. A sample's stream key is
//! (scenario seed, campaign seed, pass, cell, sample index) and never the
//! cadence, and the cadence sets only how many samples a dwell takes, so
//! a group's runs draw the same numbers and differ in how many each
//! takes. Each group runs once through the plain-run skeleton
//! ([`crate::parallel`]), in the order of its first run. Its lanes are its
//! distinct cadences, ascending: the lead samples each (pass, cell) item
//! at the finest, an analytic lane folds a prefix of the lead's samples,
//! and an event lane flies the lead's recorded probe journeys again at its
//! own cadence. A fault window routes each probe at its launch time, so a
//! faulted run's draws depend on the cadence, and its group holds one
//! cadence. A lane of several runs folds one field and clones it. Every
//! cell of every run still takes its samples pass by pass, so each run's
//! field is bitwise what a plain run of it folds, at every pool size.
//! Each run's report is emitted once that run and every earlier run are
//! done, in run order. Memory is bounded by `variants × cells`
//! accumulators plus the lanes' per-worker sample buffers, never by the
//! total sample count or a work list. That is why in-memory execution is
//! capped at [`MAX_VARIANTS`].
//!
//! Checkpointed sweeps ([`crate::store`]) run any size. A shard flattens
//! the runs it owns into one `(run, pass, cell)` work list, run-major, and
//! drives it through one fold (`RunPlan::fold`): rounds of at most
//! `STREAM_CHUNK` (1 024) items sample on the pool and fold back in
//! work-list order, and each run is spilled to disk the moment it
//! completes. Its cursor is one item of that list, so a kill anywhere
//! resumes bit for bit. Each run folds its own work list there, so the
//! in-memory and checkpointed reports come from two independent
//! implementations, and the store identity gates compare them byte for
//! byte.
//!
//! Scenario compilation is deduplicated: variants that differ only in
//! campaign parameters (seed, passes, cadence) or backend share one
//! compiled — and calibrated — [`Scenario`].

use crate::aggregate::CellField;
use crate::campaign::{CampaignConfig, Shard};
use crate::event_backend::{crossval_tolerance_ms, CROSSVAL_GRAND_MEAN_TOL};
use crate::exec::{compile_key, ScenarioCache};
use crate::parallel::{Indexed, Runner};
use crate::report::CellSummary;
use crate::scenario::Scenario;
use crate::spec::{parse_backend, Ctx, ErrorCode, ExecBackend, ScenarioSpec, SpecError};
use rayon::prelude::*;
use serde::{Serialize, Value};
use std::ops::{ControlFlow, Range};
use std::sync::Arc;

/// Default latency requirement the sweep's exceedance figures are judged
/// against, ms — the paper's AR-gaming bound (the "270 %" reference).
pub const DEFAULT_REQUIREMENT_MS: f64 = 20.0;

/// Cap on the size of a sweep matrix run in memory, where every run's
/// accumulators stay alive until the report is built. Checked before
/// planning by [`Sweep::run`] and by in-memory and validate requests; the
/// error names `--checkpoint`, whose on-disk store has no cap.
pub const MAX_VARIANTS: usize = 4096;

/// Work items sampled per round of the checkpointed sweep fold before
/// folding — its memory bound: at most this many sample buffers are alive
/// at once, however long the work list is. Large enough that the pool
/// stays saturated between the (cheap) fold barriers.
const STREAM_CHUNK: usize = 1024;

/// Backend selection of a [`AxisDef::Backend`] axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendSelect {
    /// Only the closed-form analytic backend.
    Analytic,
    /// Only the packet-level event backend.
    Event,
    /// Both, in the order analytic then event (the cross-validation pair).
    Both,
}

impl BackendSelect {
    /// The backends this selection expands to, in variant order.
    pub fn backends(self) -> &'static [ExecBackend] {
        match self {
            BackendSelect::Analytic => &[ExecBackend::Analytic],
            BackendSelect::Event => &[ExecBackend::Event],
            BackendSelect::Both => &[ExecBackend::Analytic, ExecBackend::Event],
        }
    }

    /// The spec-level tag.
    pub fn as_str(self) -> &'static str {
        match self {
            BackendSelect::Analytic => "analytic",
            BackendSelect::Event => "event",
            BackendSelect::Both => "both",
        }
    }
}

/// One typed sweep axis (see the module docs for semantics).
#[derive(Debug, Clone, PartialEq)]
pub enum AxisDef {
    /// JSON-path parameter override into the base spec's value tree.
    Override {
        /// The path, rooted at `$` (`$.campaign.sample_interval_s`).
        path: String,
        /// The values the parameter sweeps over, in variant order.
        values: Vec<Value>,
    },
    /// Execution-backend selection.
    Backend {
        /// Which backend(s) to run.
        select: BackendSelect,
    },
    /// Contiguous campaign-seed range `start .. start + count`.
    Seeds {
        /// First campaign seed.
        start: u64,
        /// Number of seeds.
        count: u32,
    },
    /// Multiplies the base spec's `$.density.peak` by each factor.
    DensityScale {
        /// Scale factors, in variant order.
        factors: Vec<f64>,
    },
}

impl AxisDef {
    /// Number of values this axis contributes to the cross product.
    pub fn len(&self) -> usize {
        match self {
            AxisDef::Override { values, .. } => values.len(),
            AxisDef::Backend { select } => select.backends().len(),
            AxisDef::Seeds { count, .. } => *count as usize,
            AxisDef::DensityScale { factors } => factors.len(),
        }
    }

    /// True when the axis has no values (rejected by validation).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The spec element this axis targets — two axes with the same target
    /// would fight over one parameter, so duplicates are rejected.
    pub fn target(&self) -> &str {
        match self {
            AxisDef::Override { path, .. } => path,
            AxisDef::Backend { .. } => "$.backend",
            AxisDef::Seeds { .. } => "$.campaign.seed",
            AxisDef::DensityScale { .. } => "$.density.peak",
        }
    }

    /// Human-readable `target=value` label of one choice on this axis.
    fn choice_label(&self, choice: usize) -> String {
        match self {
            AxisDef::Override { path, values } => {
                format!("{path}={}", value_label(&values[choice]))
            }
            AxisDef::Backend { select } => {
                format!("$.backend={}", select.backends()[choice])
            }
            AxisDef::Seeds { start, .. } => format!("$.campaign.seed={}", start + choice as u64),
            AxisDef::DensityScale { factors } => format!("$.density.peak×{}", factors[choice]),
        }
    }
}

fn value_label(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|_| "<value>".into())
}

impl Serialize for AxisDef {
    fn to_value(&self) -> Value {
        match self {
            AxisDef::Override { path, values } => Value::Object(vec![
                ("kind".into(), Value::String("override".into())),
                ("path".into(), Value::String(path.clone())),
                ("values".into(), Value::Array(values.clone())),
            ]),
            AxisDef::Backend { select } => Value::Object(vec![
                ("kind".into(), Value::String("backend".into())),
                ("select".into(), Value::String(select.as_str().into())),
            ]),
            AxisDef::Seeds { start, count } => Value::Object(vec![
                ("kind".into(), Value::String("seeds".into())),
                ("start".into(), Value::U64(*start)),
                ("count".into(), Value::U64(*count as u64)),
            ]),
            AxisDef::DensityScale { factors } => Value::Object(vec![
                ("kind".into(), Value::String("density_scale".into())),
                ("factors".into(), Value::Array(factors.iter().map(|&f| Value::F64(f)).collect())),
            ]),
        }
    }
}

/// The declarative sweep description: a base scenario spec plus the axes
/// whose cross product becomes the campaign matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Sweep name (`"klagenfurt_cadence"`).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Base scenario spec file, relative to the sweep file's directory
    /// (resolved by [`Sweep::from_file`]; callers of [`Sweep::new`] supply
    /// the base JSON themselves and may leave this as a label).
    pub base: String,
    /// Latency requirement the exceedance figures are judged against, ms.
    pub requirement_ms: f64,
    /// The sweep axes, slowest-varying first.
    pub axes: Vec<AxisDef>,
}

impl Serialize for SweepSpec {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".into(), Value::String(self.name.clone())),
            ("description".into(), Value::String(self.description.clone())),
            ("base".into(), Value::String(self.base.clone())),
            ("requirement_ms".into(), Value::F64(self.requirement_ms)),
            ("axes".into(), Value::Array(self.axes.iter().map(Serialize::to_value).collect())),
        ])
    }
}

fn decode_axis(c: &Ctx) -> Result<AxisDef, SpecError> {
    match c.field("kind")?.str()? {
        "override" => Ok(AxisDef::Override {
            path: c.field("path")?.string()?,
            values: c.field("values")?.array()?.into_iter().map(|x| x.v.clone()).collect(),
        }),
        "backend" => {
            let sel = c.field("select")?;
            Ok(AxisDef::Backend {
                select: match sel.str()? {
                    "analytic" => BackendSelect::Analytic,
                    "event" => BackendSelect::Event,
                    "both" => BackendSelect::Both,
                    other => {
                        return Err(sel.err(format!(
                            "unknown backend selection {other:?} (expected analytic, event or both)"
                        )))
                    }
                },
            })
        }
        "seeds" => {
            Ok(AxisDef::Seeds { start: c.field("start")?.u64()?, count: c.field("count")?.u32()? })
        }
        "density_scale" => Ok(AxisDef::DensityScale {
            factors: c
                .field("factors")?
                .array()?
                .into_iter()
                .map(|x| x.f64())
                .collect::<Result<_, _>>()?,
        }),
        other => Err(c.field("kind")?.err(format!(
            "unknown axis kind {other:?} (expected override, backend, seeds or density_scale)"
        ))),
    }
}

impl SweepSpec {
    /// Decodes a sweep spec from a parsed JSON value tree.
    pub fn from_value(v: &Value) -> Result<Self, SpecError> {
        let c = Ctx::root(v);
        if c.v.as_object().is_none() {
            return Err(c.type_err("object"));
        }
        Ok(Self {
            name: c.field("name")?.string()?,
            description: c.opt("description").map_or(Ok(String::new()), |x| x.string())?,
            base: c.field("base")?.string()?,
            requirement_ms: c
                .opt("requirement_ms")
                .map_or(Ok(DEFAULT_REQUIREMENT_MS), |x| x.f64())?,
            axes: c.field("axes")?.array()?.iter().map(decode_axis).collect::<Result<_, _>>()?,
        })
    }

    /// Parses a sweep spec from JSON text.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let v = serde_json::from_str(text).map_err(|e| {
            SpecError::coded(ErrorCode::InvalidJson, "$", format!("invalid JSON: {e}"))
        })?;
        Self::from_value(&v)
    }

    /// Serialises to pretty JSON (round-trips exactly).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("sweep spec serialises")
    }

    /// Number of variants the cross product compiles to (1 for no axes —
    /// the degenerate sweep is exactly the base campaign).
    pub fn variant_count(&self) -> usize {
        self.axes.iter().map(AxisDef::len).product()
    }

    /// Checks every sweep-level invariant; returns all violations (empty =
    /// valid). Resolution of override paths against the *base* spec happens
    /// in [`Sweep::new`], which has the base value tree in hand.
    ///
    /// The matrix size is not a validity rule: an over-cap sweep is valid,
    /// and only in-memory execution refuses it ([`MAX_VARIANTS`]).
    pub fn validate(&self) -> Vec<SpecError> {
        let mut errors = Vec::new();
        let mut err = |path: &str, message: String| errors.push(SpecError::new(path, message));

        if self.name.is_empty() {
            err("$.name", "sweep name must not be empty".into());
        }
        if self.base.is_empty() {
            err("$.base", "sweep needs a base scenario spec".into());
        }
        if !(self.requirement_ms.is_finite() && self.requirement_ms > 0.0) {
            err(
                "$.requirement_ms",
                format!("requirement must be positive, got {}", self.requirement_ms),
            );
        }

        let mut targets: Vec<(usize, &str)> = Vec::new();
        for (i, axis) in self.axes.iter().enumerate() {
            let path = format!("$.axes[{i}]");
            if axis.is_empty() {
                err(&path, "axis has no values — a sweep axis needs at least one".into());
            }
            match axis {
                AxisDef::Override { path: p, .. } => {
                    if let Err(m) = parse_json_path(p) {
                        err(&format!("{path}.path"), m);
                    }
                }
                AxisDef::DensityScale { factors } => {
                    for (j, &f) in factors.iter().enumerate() {
                        if !(f.is_finite() && f > 0.0) {
                            err(
                                &format!("{path}.factors[{j}]"),
                                format!("scale factor must be positive, got {f}"),
                            );
                        }
                    }
                }
                AxisDef::Backend { .. } | AxisDef::Seeds { .. } => {}
            }
            let target = axis.target();
            if let Some((j, _)) = targets.iter().find(|(_, t)| *t == target) {
                err(
                    &path,
                    format!("duplicate axis target `{target}` (already swept by $.axes[{j}])"),
                );
            }
            targets.push((i, target));
        }
        errors
    }
}

// ---------------------------------------------------------------------------
// JSON-path override machinery.
// ---------------------------------------------------------------------------

/// One segment of a `$.a.b[3].c` override path.
#[derive(Debug, Clone, PartialEq)]
enum Seg {
    Field(String),
    Index(usize),
}

/// Parses an override path (`$`, then `.member` and `[index]` segments).
fn parse_json_path(path: &str) -> Result<Vec<Seg>, String> {
    let rest = path
        .strip_prefix('$')
        .ok_or_else(|| format!("override path must start with `$`, got {path:?}"))?;
    let mut segs = Vec::new();
    let mut chars = rest.char_indices().peekable();
    while let Some((i, ch)) = chars.next() {
        match ch {
            '.' => {
                let start = i + 1;
                let mut end = rest.len();
                for (j, c) in rest[start..].char_indices() {
                    if c == '.' || c == '[' {
                        end = start + j;
                        break;
                    }
                }
                if start == end {
                    return Err(format!("empty member name in override path {path:?}"));
                }
                segs.push(Seg::Field(rest[start..end].to_string()));
                while chars.peek().is_some_and(|&(j, _)| j < end) {
                    chars.next();
                }
            }
            '[' => {
                let start = i + 1;
                let end = rest[start..]
                    .find(']')
                    .map(|j| start + j)
                    .ok_or_else(|| format!("unclosed `[` in override path {path:?}"))?;
                let idx: usize = rest[start..end]
                    .parse()
                    .map_err(|_| format!("bad array index {:?} in {path:?}", &rest[start..end]))?;
                segs.push(Seg::Index(idx));
                while chars.peek().is_some_and(|&(j, _)| j <= end) {
                    chars.next();
                }
            }
            other => return Err(format!("unexpected {other:?} in override path {path:?}")),
        }
    }
    if segs.is_empty() {
        return Err(format!("override path {path:?} selects the whole spec — name a parameter"));
    }
    Ok(segs)
}

/// Resolves a parsed path to the value it names, mutably. Fails — naming
/// the first unresolvable prefix — when the base spec has no such element;
/// overrides *replace* existing parameters, they never invent new ones.
fn resolve_mut<'v>(root: &'v mut Value, segs: &[Seg]) -> Result<&'v mut Value, String> {
    let mut cur = root;
    let mut at = String::from("$");
    for seg in segs {
        cur = match seg {
            Seg::Field(name) => match cur {
                Value::Object(pairs) => match pairs.iter_mut().find(|(k, _)| k == name) {
                    Some((_, v)) => v,
                    None => return Err(format!("base spec has no member `{name}` at {at}")),
                },
                other => {
                    return Err(format!(
                        "{at} is {} in the base spec, not an object",
                        other.type_name()
                    ))
                }
            },
            Seg::Index(i) => match cur {
                Value::Array(xs) => {
                    let len = xs.len();
                    match xs.get_mut(*i) {
                        Some(v) => v,
                        None => {
                            return Err(format!("index {i} out of bounds at {at} (length {len})"))
                        }
                    }
                }
                other => {
                    return Err(format!(
                        "{at} is {} in the base spec, not an array",
                        other.type_name()
                    ))
                }
            },
        };
        match seg {
            Seg::Field(name) => {
                at.push('.');
                at.push_str(name);
            }
            Seg::Index(i) => at.push_str(&format!("[{i}]")),
        }
    }
    Ok(cur)
}

// ---------------------------------------------------------------------------
// Compiled sweeps.
// ---------------------------------------------------------------------------

/// One compiled variant of the matrix: the spec with its axis choices
/// applied, ready to run.
#[derive(Debug, Clone)]
pub struct SweepVariant {
    /// Human-readable label (`"$.campaign.sample_interval_s=1 · …"`).
    pub label: String,
    /// Per-axis `target=value` labels, in axis order.
    pub settings: Vec<String>,
    /// Per-axis choice indices, in axis order (the odometer digits).
    pub choices: Vec<usize>,
    /// The variant's full scenario spec.
    pub spec: ScenarioSpec,
    /// Execution backend of this variant.
    pub backend: ExecBackend,
    /// Campaign configuration (the variant spec's seed policy).
    pub config: CampaignConfig,
}

/// A validated sweep: the sweep spec plus its parsed base scenario.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// The sweep description.
    pub spec: SweepSpec,
    /// The parsed base scenario spec.
    pub base: ScenarioSpec,
    /// The base spec's raw value tree (override axes mutate clones of it).
    base_value: Value,
}

impl Sweep {
    /// Builds a sweep from a sweep spec and the base scenario's JSON text.
    ///
    /// Validates the sweep spec, the base spec, *and* every override path
    /// against the base — an axis whose path does not resolve is reported
    /// here, anchored at `$.axes[i].path`. A sweep of any size loads; only
    /// in-memory execution is capped ([`MAX_VARIANTS`]).
    pub fn new(spec: SweepSpec, base_json: &str) -> Result<Self, SpecError> {
        if let Some(e) = spec.validate().into_iter().next() {
            return Err(e);
        }
        let base_value = serde_json::from_str(base_json).map_err(|e| {
            SpecError::coded(ErrorCode::InvalidJson, "$", format!("base spec is invalid JSON: {e}"))
        })?;
        let base = ScenarioSpec::from_value(&base_value)?;
        if let Some(e) = base.validate().into_iter().next() {
            return Err(SpecError::new(
                e.path,
                format!("base spec `{}`: {}", spec.base, e.message),
            ));
        }
        let mut probe = base_value.clone();
        for (i, axis) in spec.axes.iter().enumerate() {
            if let AxisDef::Override { path, .. } = axis {
                let segs = parse_json_path(path).expect("validated above");
                if let Err(m) = resolve_mut(&mut probe, &segs) {
                    return Err(SpecError::new(
                        format!("$.axes[{i}].path"),
                        format!("override path {path} does not resolve: {m}"),
                    ));
                }
            }
        }
        Ok(Self { spec, base, base_value })
    }

    /// The base spec's raw value tree — the exact form override axes
    /// mutate and wire requests carry as `$.base` (sending a
    /// re-canonicalised tree instead could perturb override resolution,
    /// so distributed executions ship this one).
    pub fn base_value(&self) -> &Value {
        &self.base_value
    }

    /// Builds a sweep from sweep-file JSON text, resolving its `base`
    /// reference relative to `dir` — the single-read path for callers
    /// that already have the sweep text in hand (the CLI reads the file
    /// once to classify IO errors, then hands the text here).
    pub fn from_json_in_dir(
        text: &str,
        dir: impl AsRef<std::path::Path>,
    ) -> Result<Self, SpecError> {
        let spec = SweepSpec::from_json(text)?;
        let base_path = dir.as_ref().join(&spec.base);
        let base_json = std::fs::read_to_string(&base_path).map_err(|e| {
            SpecError::coded(
                ErrorCode::Io,
                "$.base",
                format!("cannot read base spec {}: {e}", base_path.display()),
            )
        })?;
        Self::new(spec, &base_json)
    }

    /// Loads a sweep file, resolving its `base` relative to the sweep
    /// file's own directory.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            SpecError::coded(
                ErrorCode::Io,
                "$",
                format!("cannot read sweep file {}: {e}", path.display()),
            )
        })?;
        Self::from_json_in_dir(&text, path.parent().unwrap_or(std::path::Path::new(".")))
    }

    /// The one check of the in-memory cap, run before planning by each
    /// in-memory entry: [`Self::run`], and in-memory and validate requests
    /// (`exec::build_sweep`). Anchored at `$.axes`, and names the
    /// `--checkpoint` escape hatch.
    pub(crate) fn check_in_memory_cap(&self) -> Result<(), SpecError> {
        let n = self.spec.variant_count();
        if n <= MAX_VARIANTS {
            return Ok(());
        }
        Err(SpecError::new(
            "$.axes",
            format!(
                "cross product of {n} variants exceeds the {MAX_VARIANTS}-variant in-memory cap — \
                 the sweep itself is valid; run it with `sixg-cli sweep --checkpoint DIR` \
                 (which lifts the cap by spilling to disk) or split it"
            ),
        ))
    }

    /// Compiles variant `v` of the cross product (odometer order, last axis
    /// fastest — see the module docs). A pure function of the sweep spec and
    /// the index, so callers can stream the matrix without materialising it.
    pub fn variant_at(&self, v: usize) -> Result<SweepVariant, SpecError> {
        let axes = &self.spec.axes;
        let counts: Vec<usize> = axes.iter().map(AxisDef::len).collect();

        // Odometer decomposition: last axis fastest.
        let mut choices = vec![0usize; axes.len()];
        let mut rem = v;
        for ai in (0..axes.len()).rev() {
            choices[ai] = rem % counts[ai];
            rem /= counts[ai];
        }

        // Generic JSON-path overrides mutate the base value tree …
        let mut tree = self.base_value.clone();
        for (axis, &choice) in axes.iter().zip(&choices) {
            if let AxisDef::Override { path, values } = axis {
                let segs = parse_json_path(path).expect("validated path");
                let slot = resolve_mut(&mut tree, &segs).expect("resolved in Sweep::new");
                *slot = values[choice].clone();
            }
        }
        let mut spec = ScenarioSpec::from_value(&tree)?;

        // … typed axes mutate the decoded spec directly.
        for (axis, &choice) in axes.iter().zip(&choices) {
            match axis {
                AxisDef::Override { .. } => {}
                AxisDef::Backend { select } => {
                    spec.backend = select.backends()[choice].as_str().into();
                }
                AxisDef::Seeds { start, .. } => {
                    spec.campaign.seed = start + choice as u64;
                }
                AxisDef::DensityScale { factors } => {
                    spec.density.peak *= factors[choice];
                }
            }
        }

        let settings: Vec<String> =
            axes.iter().zip(&choices).map(|(axis, &choice)| axis.choice_label(choice)).collect();
        let label = if settings.is_empty() { "base".to_string() } else { settings.join(" · ") };

        if let Some(e) = spec.validate().into_iter().next() {
            return Err(SpecError::new(e.path, format!("variant `{label}`: {}", e.message)));
        }
        let backend = parse_backend(&spec.backend).expect("validated backend");
        let config = CampaignConfig {
            seed: spec.campaign.seed,
            sample_interval_s: spec.campaign.sample_interval_s,
            passes: spec.campaign.passes,
        };
        Ok(SweepVariant { label, settings, choices, spec, backend, config })
    }

    /// Compiles the axis cross product into the ordered variant list (see
    /// the module docs for the ordering contract).
    pub fn variants(&self) -> Result<Vec<SweepVariant>, SpecError> {
        (0..self.spec.variant_count()).map(|v| self.variant_at(v)).collect()
    }

    /// Builds the execution plan: deduplicated compiled scenarios plus one
    /// [`RunMeta`] per run — run 0 is the base spec exactly as `sixg-cli
    /// run` would execute it, runs `1..=N` the variants in odometer order.
    /// This is the shared front half of in-memory, checkpointed and merge
    /// execution; variants stream through the interner one at a time, so
    /// peak memory is O(unique scenarios + labels), not O(variants × spec).
    pub(crate) fn plan(&self) -> Result<RunPlan, SpecError> {
        self.plan_with_cache(None)
    }

    /// [`Self::plan`] with an optional shared [`ScenarioCache`]: compiled
    /// scenarios whose canonical key is already cached are reused instead
    /// of recompiled — the `sixg-serve` hot path. Compilation is a pure
    /// function of the canonical spec, so a cached plan's scenarios — and
    /// every downstream bit — are identical to a cold plan's.
    pub(crate) fn plan_with_cache(
        &self,
        mut cache: Option<&mut ScenarioCache>,
    ) -> Result<RunPlan, SpecError> {
        // Scenario compilation, deduplicated on everything except campaign
        // parameters and backend (which `compile` does not consume): a
        // cadence × backend × seed sweep calibrates its site exactly once.
        let mut canon: Vec<ScenarioSpec> = Vec::new();
        let mut scenarios: Vec<Arc<Scenario>> = Vec::new();
        fn intern(
            spec: &ScenarioSpec,
            canon: &mut Vec<ScenarioSpec>,
            scenarios: &mut Vec<Arc<Scenario>>,
            cache: &mut Option<&mut ScenarioCache>,
        ) -> Result<usize, SpecError> {
            let key = compile_key(spec);
            if let Some(i) = canon.iter().position(|k| *k == key) {
                return Ok(i);
            }
            canon.push(key);
            scenarios.push(match cache.as_deref_mut() {
                Some(c) => c.get_or_compile(spec)?,
                None => Arc::new(Scenario::from_spec(spec)?),
            });
            Ok(scenarios.len() - 1)
        }

        let base_backend = parse_backend(&self.base.backend).expect("validated base");
        let base_config = CampaignConfig {
            seed: self.base.campaign.seed,
            sample_interval_s: self.base.campaign.sample_interval_s,
            passes: self.base.campaign.passes,
        };
        let total = self.spec.variant_count();
        let mut runs = Vec::with_capacity(total + 1);
        runs.push(RunMeta {
            scen: intern(&self.base, &mut canon, &mut scenarios, &mut cache)?,
            backend: base_backend,
            config: base_config,
            label: "base".into(),
            settings: Vec::new(),
            choices: Vec::new(),
        });
        for v in 0..total {
            let var = self.variant_at(v)?;
            runs.push(RunMeta {
                scen: intern(&var.spec, &mut canon, &mut scenarios, &mut cache)?,
                backend: var.backend,
                config: var.config,
                label: var.label,
                settings: var.settings,
                choices: var.choices,
            });
        }
        let backend_axis = self.spec.axes.iter().position(|a| matches!(a, AxisDef::Backend { .. }));
        Ok(RunPlan { scenarios, runs, backend_axis })
    }

    /// Runs the whole matrix — base campaign plus every variant — on the
    /// thread pool, one draw group at a time (see the module docs), and
    /// folds the results into a streaming [`SweepReport`].
    /// A matrix over [`MAX_VARIANTS`] is refused before planning; run it
    /// checkpointed ([`crate::store::run_checkpointed`]) instead.
    pub fn run(&self) -> Result<SweepRun, SpecError> {
        self.check_in_memory_cap()?;
        Ok(self.plan()?.run_in_memory(self, &mut |_, _| {}))
    }
}

/// One run of the compiled matrix (run 0 is the base campaign).
#[derive(Debug, Clone)]
pub(crate) struct RunMeta {
    /// Index into [`RunPlan::scenarios`].
    pub(crate) scen: usize,
    /// Execution backend.
    pub(crate) backend: ExecBackend,
    /// Campaign configuration.
    pub(crate) config: CampaignConfig,
    /// Variant label (`"base"` for run 0).
    pub(crate) label: String,
    /// Per-axis `target=value` settings (empty for run 0).
    pub(crate) settings: Vec<String>,
    /// Per-axis odometer digits (empty for run 0).
    pub(crate) choices: Vec<usize>,
}

/// The compiled execution plan of a sweep: scenarios, runs and the backend
/// axis, from which every execution mode (in-memory, checkpointed, merge)
/// derives each run's field and the *same* report construction.
pub(crate) struct RunPlan {
    /// Deduplicated compiled scenarios (shared with the [`ScenarioCache`]
    /// when the plan was built through one).
    pub(crate) scenarios: Vec<Arc<Scenario>>,
    /// All runs, run 0 first.
    pub(crate) runs: Vec<RunMeta>,
    /// Index of the backend axis in the sweep spec, if any.
    pub(crate) backend_axis: Option<usize>,
}

/// The indexed runners of runs `first..first + runners.len()` of a plan:
/// the work lists a checkpointed shard folds. A shard builds them for the
/// runs it owns only.
pub(crate) struct OwnedRuns<'a> {
    first: usize,
    runners: Vec<Indexed<'a>>,
}

impl OwnedRuns<'_> {
    fn runner(&self, run: u32) -> &Indexed<'_> {
        &self.runners[run as usize - self.first]
    }

    /// The owned runs' work items as `(run, index into the run's work
    /// list)`, run-major. This ordering *is* the accumulation-order
    /// contract: any execution mode that folds these items in list order
    /// reproduces identical bits.
    pub(crate) fn items(&self) -> Vec<(u32, u32)> {
        let mut items = Vec::new();
        for (ri, runner) in (self.first..).zip(&self.runners) {
            items.extend((0..runner.len() as u32).map(|i| (ri as u32, i)));
        }
        items
    }

    /// Work item `(run, i)`'s `(pass, cell, dwell)` shard.
    pub(crate) fn shard(&self, (run, i): (u32, u32)) -> Shard {
        self.runner(run).shard(i as usize)
    }
}

/// A draw group's lanes: its distinct cadences in ascending order, each
/// with the runs at that cadence in run order. The first lane is the lead.
type Lanes = Vec<(f64, Vec<usize>)>;

impl RunPlan {
    /// The runners and work lists of `runs`, for the checkpointed fold —
    /// the same dispatch as [`crate::exec::run_field`], so an event run
    /// over a spec with a fault schedule gets the live control plane, and
    /// fault axes (e.g. sweeping `$.faults[0].recover_at_s`) measure real
    /// convergence transients instead of silently ignoring the schedule.
    pub(crate) fn indexed(&self, runs: Range<usize>) -> OwnedRuns<'_> {
        let runners = self.runs[runs.clone()]
            .iter()
            .map(|r| Runner::new(&self.scenarios[r.scen], r.config, r.backend).indexed())
            .collect();
        OwnedRuns { first: runs.start, runners }
    }

    /// The checkpointed sweep fold. Samples `items[range]`, a range of the
    /// owned runs' run-major work list, on the pool in rounds of at most
    /// [`STREAM_CHUNK`] items (each item owns its random stream, so
    /// sampling order is free), then folds each round back in list order
    /// into the in-progress run's field `cur`. Every cell therefore sees
    /// the accumulation sequence of one sequential pass over the list, at
    /// every pool size and however the list is cut into ranges. A run is
    /// handed to `sink` the moment it completes: when the next item of the
    /// list belongs to another run, or the list ends. `cur` carries a run
    /// that is still in progress across calls. A sink that breaks stops the
    /// fold at once and its value is returned.
    pub(crate) fn fold<B>(
        &self,
        owned: &OwnedRuns<'_>,
        items: &[(u32, u32)],
        range: Range<usize>,
        cur: &mut Option<(u32, CellField)>,
        mut sink: impl FnMut(u32, CellField) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let mut round: Vec<((u32, u32), Vec<f64>)> = Vec::new();
        for start in range.clone().step_by(STREAM_CHUNK) {
            let chunk = &items[start..range.end.min(start + STREAM_CHUNK)];
            round.resize_with(chunk.len(), Default::default);
            for (slot, &item) in round.iter_mut().zip(chunk) {
                slot.0 = item;
            }
            round.par_iter_mut().for_each(|((ri, i), buf)| {
                owned.runner(*ri).collect(*i as usize, buf);
            });
            for (at, (item, buf)) in (start..).zip(&round) {
                let (ri, i) = *item;
                let (run, field) = cur
                    .get_or_insert_with(|| (ri, CellField::new(self.grid_of(ri as usize).clone())));
                assert_eq!(*run, ri, "a completed run was not handed to the sink");
                let cell = owned.shard((ri, i)).cell;
                for &v in buf {
                    field.push(cell, v);
                }
                if items.get(at + 1).map(|&(next, _)| next) != Some(ri) {
                    let (run, field) = cur.take().expect("the run just folded");
                    sink(run, field)?;
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// The plan's draw groups, in the order of their first run. A group is
    /// the runs on one compiled scenario with one backend, campaign seed
    /// and pass count, plus the cadence for a faulted run
    /// ([`Runner::is_faulted`]), whose draws depend on it. No draw of any
    /// other run reads the cadence, so a group's runs draw the same numbers
    /// and differ only in how many each takes.
    fn draw_groups(&self) -> Vec<Lanes> {
        let mut keys = Vec::new();
        let mut groups: Vec<Lanes> = Vec::new();
        for (run, r) in self.runs.iter().enumerate() {
            let cadence = r.config.sample_interval_s;
            let faulted = Runner::is_faulted(&self.scenarios[r.scen], r.backend);
            let key = (
                r.scen,
                r.backend,
                r.config.seed,
                r.config.passes,
                faulted.then_some(cadence.to_bits()),
            );
            let g = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                groups.push(Vec::new());
                groups.len() - 1
            });
            match groups[g].iter_mut().find(|(c, _)| c.to_bits() == cadence.to_bits()) {
                Some((_, runs)) => runs.push(run),
                None => groups[g].push((cadence, vec![run])),
            }
        }
        for lanes in &mut groups {
            lanes.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        groups
    }

    /// Runs every run in memory and folds the results into the executed
    /// sweep. Each draw group runs once through the plain-run skeleton
    /// ([`Runner::fields`]): the lead samples every item at the group's
    /// finest cadence, and each lane folds its share. A lane of several
    /// runs — twins in everything sampling reads — folds one field and
    /// clones it. Each run's report is built once that run and every
    /// earlier run are done — in run order, while later groups are still
    /// executing — and `emit` is called with `(run index, report)` for run
    /// 0 (the base) and every variant. The executed sweep keeps those very
    /// reports, so streamed bits are final-report bits.
    pub(crate) fn run_in_memory(
        &self,
        sweep: &Sweep,
        emit: &mut impl FnMut(usize, &VariantReport),
    ) -> SweepRun {
        let req_ms = sweep.spec.requirement_ms;
        let mut fields: Vec<Option<CellField>> = self.runs.iter().map(|_| None).collect();
        let mut reports = Vec::with_capacity(self.runs.len());
        for lanes in self.draw_groups() {
            let lead = &self.runs[lanes[0].1[0]];
            let runner = Runner::new(&self.scenarios[lead.scen], lead.config, lead.backend);
            let coarser: Vec<f64> = lanes[1..].iter().map(|&(cadence, _)| cadence).collect();
            for (field, (_, runs)) in runner.fields(&coarser).into_iter().zip(&lanes) {
                let (&last, twins) = runs.split_last().expect("a lane holds a run");
                for &run in twins {
                    fields[run] = Some(field.clone());
                }
                fields[last] = Some(field);
            }
            while let Some(Some(field)) = fields.get(reports.len()) {
                let run = reports.len();
                emit(run, self.push_report(&mut reports, field, req_ms));
            }
        }
        let fields = fields.into_iter().map(|f| f.expect("every run is in a group")).collect();
        self.sweep_run(sweep, fields, reports)
    }

    /// The grid run `run` accumulates over.
    pub(crate) fn grid_of(&self, run: usize) -> &sixg_geo::GridSpec {
        &self.scenarios[self.runs[run].scen].grid
    }

    /// Appends run `reports.len()`'s report over its folded `field`, with
    /// deltas against the base run's report, `reports[0]` (none for the
    /// base itself), and returns it. The one place a sweep's reports are
    /// built: in memory as each run completes, and from the store's fields
    /// after a checkpointed run or a merge, always in run order —
    /// identical fields in, identical report bits out.
    fn push_report<'r>(
        &self,
        reports: &'r mut Vec<VariantReport>,
        field: &CellField,
        requirement_ms: f64,
    ) -> &'r VariantReport {
        let base = reports.first().map(|b| (b.grand_mean_ms, b.exceedance_pct));
        let meta = &self.runs[reports.len()];
        reports.push(VariantReport::from_field(meta, field, requirement_ms, base));
        reports.last().expect("the report just built")
    }

    /// Folds completed per-run fields into the executed-sweep record:
    /// checkpointed completion and store merging build each run's report
    /// here ([`Self::push_report`]).
    pub(crate) fn build_sweep_run(&self, sweep: &Sweep, fields: Vec<CellField>) -> SweepRun {
        let mut reports = Vec::with_capacity(fields.len());
        for field in &fields {
            self.push_report(&mut reports, field, sweep.spec.requirement_ms);
        }
        self.sweep_run(sweep, fields, reports)
    }

    /// The executed-sweep record of every run's field and report, base
    /// first.
    fn sweep_run(
        &self,
        sweep: &Sweep,
        fields: Vec<CellField>,
        reports: Vec<VariantReport>,
    ) -> SweepRun {
        assert_eq!(fields.len(), self.runs.len(), "one field per run");
        assert_eq!(reports.len(), self.runs.len(), "one report per run");
        let mut fields = fields.into_iter();
        let base_field = fields.next().expect("base run present");
        let mut reports = reports.into_iter();
        let base = reports.next().expect("base report present");
        SweepRun {
            report: SweepReport {
                sweep: sweep.spec.name.clone(),
                base_spec: sweep.base.name.clone(),
                requirement_ms: sweep.spec.requirement_ms,
                variant_count: self.runs.len() - 1,
                base,
                variants: reports.collect(),
            },
            base_field,
            variant_fields: fields.collect(),
            variant_backends: self.runs[1..].iter().map(|m| m.backend).collect(),
            variant_choices: self.runs[1..].iter().map(|m| m.choices.clone()).collect(),
            variant_labels: self.runs[1..].iter().map(|m| m.label.clone()).collect(),
            backend_axis: self.backend_axis,
        }
    }
}

/// Aggregates of one executed campaign of the matrix.
#[derive(Debug, Clone, Serialize)]
pub struct VariantReport {
    /// Variant label (`"base"` for the base run).
    pub label: String,
    /// Per-axis `target=value` settings.
    pub settings: Vec<String>,
    /// Execution backend tag.
    pub backend: String,
    /// Campaign seed.
    pub seed: u64,
    /// Grid traversals.
    pub passes: u32,
    /// Sampling cadence, seconds.
    pub sample_interval_s: f64,
    /// Total samples collected.
    pub total_samples: u64,
    /// Grand mean over reported cells, ms.
    pub grand_mean_ms: f64,
    /// Reported mean extrema, ms.
    pub mean_min_ms: f64,
    /// Reported mean maximum, ms.
    pub mean_max_ms: f64,
    /// Reported σ extrema, ms.
    pub std_min_ms: f64,
    /// Reported σ maximum, ms.
    pub std_max_ms: f64,
    /// Grand-mean exceedance over the sweep's requirement, percent.
    pub exceedance_pct: f64,
    /// Grand-mean delta against the base run, ms (0 for the base itself).
    pub delta_grand_mean_ms: f64,
    /// Exceedance delta against the base run, percentage points.
    pub delta_exceedance_pct: f64,
    /// Per-cell statistics of reported cells.
    pub cells: Vec<CellSummary>,
}

impl VariantReport {
    /// Run `meta`'s report over its folded `field`, with deltas against
    /// the base run's `(grand mean, exceedance)` (`None` for the base).
    pub(crate) fn from_field(
        meta: &RunMeta,
        field: &CellField,
        requirement_ms: f64,
        base: Option<(f64, f64)>,
    ) -> Self {
        let summary = field.summary();
        let grand_mean_ms = summary.grand_mean_ms;
        let exceedance_pct = (grand_mean_ms - requirement_ms) / requirement_ms * 100.0;
        let (mean_min_ms, mean_max_ms) =
            summary.mean_extrema.map_or((0.0, 0.0), |(a, b)| (a.mean_ms, b.mean_ms));
        let (std_min_ms, std_max_ms) =
            summary.std_extrema.map_or((0.0, 0.0), |(a, b)| (a.std_ms, b.std_ms));
        let (base_gm, base_ex) = base.unwrap_or((grand_mean_ms, exceedance_pct));
        Self {
            label: meta.label.clone(),
            settings: meta.settings.clone(),
            backend: meta.backend.to_string(),
            seed: meta.config.seed,
            passes: meta.config.passes,
            sample_interval_s: meta.config.sample_interval_s,
            total_samples: summary.total_samples,
            grand_mean_ms,
            mean_min_ms,
            mean_max_ms,
            std_min_ms,
            std_max_ms,
            exceedance_pct,
            delta_grand_mean_ms: grand_mean_ms - base_gm,
            delta_exceedance_pct: exceedance_pct - base_ex,
            cells: field
                .reported()
                .into_iter()
                .map(|s| CellSummary {
                    cell: s.cell.label(),
                    count: s.count,
                    mean_ms: s.mean_ms,
                    std_ms: s.std_ms,
                })
                .collect(),
        }
    }
}

/// The streaming sweep record: per-variant aggregates plus cross-variant
/// deltas against the base spec. Contains no wall times, so the serialised
/// form is bitwise identical across pool sizes.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Sweep name.
    pub sweep: String,
    /// Base scenario name.
    pub base_spec: String,
    /// Requirement the exceedance figures use, ms.
    pub requirement_ms: f64,
    /// Number of variants in the matrix (excluding the base run).
    pub variant_count: usize,
    /// The base run (the unmodified base spec).
    pub base: VariantReport,
    /// The variants, in odometer order.
    pub variants: Vec<VariantReport>,
}

impl SweepReport {
    /// Serialises to pretty JSON (deterministic: no timestamps, no wall
    /// times — bitwise identical across runs and pool sizes).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("sweep report serialises")
    }
}

/// An executed sweep: the report plus the per-run fields (Welford
/// accumulators, not samples) for downstream analysis.
#[derive(Debug)]
pub struct SweepRun {
    /// The streaming report.
    pub report: SweepReport,
    /// The base run's field.
    pub base_field: CellField,
    /// Per-variant fields, in odometer order.
    pub variant_fields: Vec<CellField>,
    variant_backends: Vec<ExecBackend>,
    variant_choices: Vec<Vec<usize>>,
    variant_labels: Vec<String>,
    backend_axis: Option<usize>,
}

impl SweepRun {
    /// Cross-validates every analytic/event variant pair that differs
    /// *only* in the backend axis, with the workspace tolerance
    /// ([`crossval_tolerance_ms`] per cell, [`CROSSVAL_GRAND_MEAN_TOL`]
    /// on grand means). Returns one human-readable line per violation;
    /// empty means every swept parameter point cross-validates. Sweeps
    /// without a backend axis have no pairs and trivially pass.
    pub fn crossval_violations(&self) -> Vec<String> {
        let Some(bi) = self.backend_axis else { return Vec::new() };
        let paired = |a: &[usize], b: &[usize]| {
            a.iter().zip(b).enumerate().all(|(i, (x, y))| i == bi || x == y)
        };
        let mut out = Vec::new();
        for (i, &ba) in self.variant_backends.iter().enumerate() {
            if ba != ExecBackend::Analytic {
                continue;
            }
            for (j, &bb) in self.variant_backends.iter().enumerate() {
                if bb != ExecBackend::Event
                    || !paired(&self.variant_choices[i], &self.variant_choices[j])
                {
                    continue;
                }
                let (fa, fe) = (&self.variant_fields[i], &self.variant_fields[j]);
                let pair = format!("`{}` vs `{}`", self.variant_labels[i], self.variant_labels[j]);
                for cell in fa.grid().cells() {
                    let (a, e) = (fa.stats(cell), fe.stats(cell));
                    if a.is_masked() && e.is_masked() {
                        continue;
                    }
                    if a.count != e.count {
                        out.push(format!(
                            "{pair}: cell {cell} sample counts differ ({} vs {})",
                            a.count, e.count
                        ));
                        continue;
                    }
                    let tol = crossval_tolerance_ms(&a, &e);
                    let delta = (a.mean_ms - e.mean_ms).abs();
                    if delta > tol {
                        out.push(format!(
                            "{pair}: cell {cell} |Δmean| {delta:.4} ms exceeds tolerance \
                             {tol:.4} ms (analytic {:.4}, event {:.4})",
                            a.mean_ms, e.mean_ms
                        ));
                    }
                }
                let (ga, ge) = (fa.grand_mean_ms(), fe.grand_mean_ms());
                if ga > 0.0 && (ga - ge).abs() / ga > CROSSVAL_GRAND_MEAN_TOL {
                    out.push(format!(
                        "{pair}: grand means {ga:.4} vs {ge:.4} ms differ by more than {:.1} %",
                        CROSSVAL_GRAND_MEAN_TOL * 100.0
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_field;
    use crate::klagenfurt::{klagenfurt_flap_spec, klagenfurt_spec};
    use crate::parallel::with_thread_count;

    /// A Klagenfurt base trimmed to `passes` traversals, as JSON.
    fn base_json(passes: u32) -> String {
        let mut spec = klagenfurt_spec().clone();
        spec.campaign.passes = passes;
        spec.to_json()
    }

    fn sweep_spec(axes: Vec<AxisDef>) -> SweepSpec {
        SweepSpec {
            name: "test-sweep".into(),
            description: String::new(),
            base: "inline".into(),
            requirement_ms: DEFAULT_REQUIREMENT_MS,
            axes,
        }
    }

    #[test]
    fn sweep_spec_json_round_trips() {
        let spec = sweep_spec(vec![
            AxisDef::Override {
                path: "$.campaign.sample_interval_s".into(),
                values: vec![Value::F64(1.0), Value::F64(4.0)],
            },
            AxisDef::Backend { select: BackendSelect::Both },
            AxisDef::Seeds { start: 1, count: 3 },
            AxisDef::DensityScale { factors: vec![1.0, 1.5] },
        ]);
        let json = spec.to_json();
        let back = SweepSpec::from_json(&json).expect("round trip parses");
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), json);
        assert_eq!(back.variant_count(), 2 * 2 * 3 * 2);
    }

    #[test]
    fn duplicate_axis_targets_are_rejected() {
        // A seeds axis and an override of $.campaign.seed fight over the
        // same parameter.
        let spec = sweep_spec(vec![
            AxisDef::Seeds { start: 1, count: 2 },
            AxisDef::Override { path: "$.campaign.seed".into(), values: vec![Value::U64(9)] },
        ]);
        let errors = spec.validate();
        let e = errors.iter().find(|e| e.path == "$.axes[1]").expect("duplicate reported");
        assert!(e.message.contains("duplicate axis target"), "{e}");
        assert!(e.message.contains("$.campaign.seed"), "{e}");
        // Two backend axes collide the same way.
        let spec = sweep_spec(vec![
            AxisDef::Backend { select: BackendSelect::Both },
            AxisDef::Backend { select: BackendSelect::Analytic },
        ]);
        assert!(spec.validate().iter().any(|e| e.message.contains("duplicate axis target")));
    }

    #[test]
    fn unresolvable_override_path_is_a_validation_error() {
        let spec = sweep_spec(vec![AxisDef::Override {
            path: "$.campaign.cadence_s".into(),
            values: vec![Value::F64(1.0)],
        }]);
        let err = Sweep::new(spec, &base_json(1)).unwrap_err();
        assert_eq!(err.path, "$.axes[0].path");
        assert!(err.message.contains("$.campaign.cadence_s"), "{err}");
        assert!(err.message.contains("no member `cadence_s`"), "{err}");
        // Out-of-bounds array index, same contract.
        let spec = sweep_spec(vec![AxisDef::Override {
            path: "$.links[99].utilisation".into(),
            values: vec![Value::F64(0.5)],
        }]);
        let err = Sweep::new(spec, &base_json(1)).unwrap_err();
        assert_eq!(err.path, "$.axes[0].path");
        assert!(err.message.contains("out of bounds"), "{err}");
    }

    #[test]
    fn malformed_override_paths_are_rejected() {
        for bad in ["campaign.seed", "$", "$.", "$.links[x]", "$.links[0"] {
            let spec = sweep_spec(vec![AxisDef::Override {
                path: bad.into(),
                values: vec![Value::U64(1)],
            }]);
            let errors = spec.validate();
            assert!(
                errors.iter().any(|e| e.path == "$.axes[0].path"),
                "path {bad:?} must be rejected: {errors:?}"
            );
        }
    }

    #[test]
    fn empty_axis_and_oversized_product_are_rejected() {
        let spec = sweep_spec(vec![AxisDef::Override {
            path: "$.campaign.seed".into(),
            values: Vec::new(),
        }]);
        assert!(spec.validate().iter().any(|e| e.message.contains("no values")));
        // The matrix size is a limit of in-memory execution, not a validity
        // rule: the sweep loads, and the one cap check refuses it.
        let spec = sweep_spec(vec![
            AxisDef::Seeds { start: 0, count: 100 },
            AxisDef::Override {
                path: "$.campaign.passes".into(),
                values: (0..100u64).map(Value::U64).collect(),
            },
        ]);
        assert!(spec.validate().is_empty());
        let sweep = Sweep::new(spec, &base_json(1)).expect("an over-cap sweep loads");
        let e = sweep.check_in_memory_cap().expect_err("over the in-memory cap");
        assert_eq!(e.path, "$.axes");
        assert!(e.message.contains("cap"), "{e}");
    }

    /// The degenerate sweep — no axes — is exactly one variant, and both
    /// the base run and that variant are bitwise identical to a plain
    /// single-campaign run of the base spec.
    #[test]
    fn empty_axes_degenerate_sweep_equals_plain_run_bitwise() {
        // One base per backend path: analytic, the plain packet world, and
        // the packet world over the transit-flap fault timeline.
        let mut event = klagenfurt_spec().clone();
        event.backend = "event".into();
        for mut base in [klagenfurt_spec().clone(), event, klagenfurt_flap_spec().clone()] {
            base.campaign.passes = 1;
            let sweep = Sweep::new(sweep_spec(Vec::new()), &base.to_json()).expect("valid sweep");
            let run = sweep.run().expect("runs");
            assert_eq!(run.report.variant_count, 1);
            assert_eq!(run.report.variants[0].label, "base");

            let scenario = Scenario::from_spec(&sweep.base).expect("compiles");
            let config = CampaignConfig {
                seed: sweep.base.campaign.seed,
                sample_interval_s: sweep.base.campaign.sample_interval_s,
                passes: sweep.base.campaign.passes,
            };
            let backend = parse_backend(&sweep.base.backend).expect("valid backend");
            let plain = run_field(&scenario, config, backend);
            for cell in scenario.grid.cells() {
                let want = plain.stats(cell);
                for field in [&run.base_field, &run.variant_fields[0]] {
                    let got = field.stats(cell);
                    let at = format!("{} {backend}: cell {cell}", sweep.base.name);
                    assert_eq!(want.count, got.count, "{at} count");
                    assert_eq!(want.mean_ms.to_bits(), got.mean_ms.to_bits(), "{at} mean");
                    assert_eq!(want.std_ms.to_bits(), got.std_ms.to_bits(), "{at} std");
                }
            }
            assert_eq!(run.report.variants[0].delta_grand_mean_ms, 0.0);
        }
    }

    /// The ordering contract: axes enumerate like an odometer with the
    /// last axis fastest.
    #[test]
    fn variant_order_is_last_axis_fastest() {
        let sweep = Sweep::new(
            sweep_spec(vec![
                AxisDef::Override {
                    path: "$.campaign.sample_interval_s".into(),
                    values: vec![Value::F64(1.0), Value::F64(2.0)],
                },
                AxisDef::Seeds { start: 7, count: 2 },
            ]),
            &base_json(1),
        )
        .expect("valid sweep");
        let variants = sweep.variants().expect("compiles");
        let labels: Vec<&str> = variants.iter().map(|v| v.label.as_str()).collect();
        assert_eq!(
            labels,
            vec![
                "$.campaign.sample_interval_s=1.0 · $.campaign.seed=7",
                "$.campaign.sample_interval_s=1.0 · $.campaign.seed=8",
                "$.campaign.sample_interval_s=2.0 · $.campaign.seed=7",
                "$.campaign.sample_interval_s=2.0 · $.campaign.seed=8",
            ]
        );
        assert_eq!(variants[0].choices, vec![0, 0]);
        assert_eq!(variants[1].choices, vec![0, 1]);
        assert_eq!(variants[3].config.seed, 8);
        assert_eq!(variants[3].config.sample_interval_s, 2.0);
    }

    /// The whole matrix is bitwise deterministic across pool sizes: the
    /// serialised report (which contains no wall times) must be textually
    /// identical at 1 and 4 threads.
    #[test]
    fn sweep_report_is_bitwise_identical_across_pool_sizes() {
        let make = || {
            Sweep::new(
                sweep_spec(vec![
                    AxisDef::Override {
                        path: "$.campaign.sample_interval_s".into(),
                        values: vec![Value::F64(2.0), Value::F64(4.0)],
                    },
                    AxisDef::Seeds { start: 1, count: 2 },
                ]),
                &base_json(1),
            )
            .expect("valid sweep")
        };
        let a = with_thread_count(1, || make().run().expect("runs").report.to_json());
        let b = with_thread_count(4, || make().run().expect("runs").report.to_json());
        assert_eq!(a, b, "sweep report must not depend on the pool size");
    }

    /// The density axis changes no sample: each factor compiles its own
    /// scenario, but the traversal and the samples never read the density
    /// raster, so every variant's field is the base field, bit for bit. A
    /// change that makes density matter must change this test on purpose.
    #[test]
    fn density_scale_variants_sample_bit_identical_fields() {
        let sweep = Sweep::new(
            sweep_spec(vec![AxisDef::DensityScale { factors: vec![0.5, 1.0, 2.0] }]),
            &base_json(2),
        )
        .expect("valid sweep");
        let run = sweep.run().expect("runs");
        let base = run.base_field.accumulator_bits();
        assert!(run.base_field.total_samples() > 0);
        assert_eq!(run.variant_fields.len(), 3);
        for (variant, field) in run.report.variants.iter().zip(&run.variant_fields) {
            assert!(field.accumulator_bits() == base, "{}: the field moved", variant.label);
        }
    }

    /// A cadence × backend sweep cross-validates at every swept cadence,
    /// and the typed axes actually land in the variant specs.
    #[test]
    fn backend_axis_pairs_crossvalidate_and_axes_apply() {
        let sweep = Sweep::new(
            sweep_spec(vec![
                AxisDef::Backend { select: BackendSelect::Both },
                AxisDef::DensityScale { factors: vec![1.0, 1.25] },
            ]),
            &base_json(2),
        )
        .expect("valid sweep");
        let variants = sweep.variants().expect("compiles");
        assert_eq!(variants.len(), 4);
        assert_eq!(variants[0].backend, ExecBackend::Analytic);
        assert_eq!(variants[2].backend, ExecBackend::Event);
        let base_peak = sweep.base.density.peak;
        assert_eq!(variants[1].spec.density.peak, base_peak * 1.25);

        let run = sweep.run().expect("runs");
        let violations = run.crossval_violations();
        assert!(violations.is_empty(), "{violations:?}");
        // Scenario dedup: a backend axis shares the compiled scenario, so
        // paired variants have identical sample counts.
        assert_eq!(run.report.variants[0].total_samples, run.report.variants[2].total_samples);
    }
}
