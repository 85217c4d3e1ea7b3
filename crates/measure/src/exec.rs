//! The unified execution facade: one typed request, one entry point.
//!
//! Every caller — CLI subcommands, repro binaries, the `sixg-serve`
//! daemon — states what it wants as a request instead of picking a runner
//! by function name, and nothing a runner would not honor is silently
//! dropped:
//!
//! * [`ExecRequest`] — a typed, JSON-codable request envelope carrying the
//!   action (`validate` / `run` / `sweep`), the spec documents, run-level
//!   overrides, and the checkpoint/shard family. [`ExecRequest::validate`]
//!   *rejects* (never ignores) field combinations no runner honors —
//!   `checkpoint` on a single run, `shard` without `checkpoint`, an
//!   analytic backend override on a fault-bearing spec — each with a
//!   machine-readable [`ErrorCode`].
//! * [`execute`] — `ExecRequest → ExecReport`: a run, an in-memory sweep
//!   or a checkpointed sweep, decided by validated request fields.
//! * [`run_field`] — the compiled-scenario entry point; tests, perfbench
//!   and repro bins call this. It and every run of a sweep choose their
//!   backend in one place (`parallel::Runner`): the analytic sampler, the
//!   packet world, or the packet world over a fault timeline.
//! * [`run_field_sequential`] — the determinism oracle: the same runner
//!   as [`run_field`], over its materialised work list in order on the
//!   calling thread ([`run_field`] builds no work list).
//!   Tests that compare pool sizes against it and `repro_scaling` call
//!   this.
//! * [`Executor`] + [`ScenarioCache`] — a long-lived execution context
//!   holding compiled [`Scenario`]s hot, keyed by canonical spec content
//!   hash ([`scenario_content_hash`]); the `sixg-serve` daemon wraps one
//!   `Executor` and multiplexes connections onto it.
//!
//! **Determinism.** Scenario compilation is a pure function of the
//! canonical spec, and every runner accumulates each cell's samples in
//! work-list order, so a cache hit, a cold compile, a different pool
//! size, or a concurrent request on the same `Executor` all produce
//! byte-identical reports — the contract the wire protocol extends to
//! remote clients.
//!
//! **Error anchoring.** Envelope-level complaints (missing/forbidden
//! request fields, override conflicts) anchor at the envelope member
//! (`$.checkpoint`, `$.backend`); document-level complaints anchor inside
//! the spec or sweep document exactly as [`ScenarioSpec::validate`] and
//! sweep validation emit them, so existing path-pinned tooling keeps
//! working whether a document is validated standalone or via a request.

use crate::aggregate::CellField;
use crate::campaign::CampaignConfig;
use crate::hvt::{self, HvtConfig, HvtReport};
use crate::parallel::Runner;
use crate::report::CellSummary;
use crate::scenario::{KeyScheme, Scenario};
use crate::spec::{
    parse_backend, CampaignDef, Ctx, ErrorCode, ExecBackend, ScenarioSpec, SpecError,
};
use crate::store::{
    fnv1a64, run_checkpointed_observed, CheckpointConfig, CheckpointError, CheckpointOutcome,
    StoreEvent,
};
use crate::sweep::{Sweep, SweepRun, SweepSpec, VariantReport, DEFAULT_REQUIREMENT_MS};
use serde::{Serialize, Value};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Runs a compiled scenario's campaign with the chosen backend on the
/// thread pool. A fault schedule in the spec puts an event run on the
/// live BGP control plane wherever the timeline touches a shard; the
/// analytic backend samples closed-form path delays. Bitwise-deterministic
/// at every pool size.
pub fn run_field(scenario: &Scenario, config: CampaignConfig, backend: ExecBackend) -> CellField {
    Runner::new(scenario, config, backend).field()
}

/// [`run_field`]'s determinism oracle: the same runner, with the same
/// backend choice, run over its materialised work list in order on the
/// calling thread. Every pool size reproduces its field bit for bit.
pub fn run_field_sequential(
    scenario: &Scenario,
    config: CampaignConfig,
    backend: ExecBackend,
) -> CellField {
    Runner::new(scenario, config, backend).indexed().field_sequential(scenario)
}

// ---------------------------------------------------------------------------
// The request envelope.
// ---------------------------------------------------------------------------

/// What an [`ExecRequest`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecAction {
    /// Parse + validate the payload documents; run nothing.
    Validate,
    /// Execute one scenario campaign.
    Run,
    /// Execute a sweep's whole campaign matrix.
    Sweep,
}

impl ExecAction {
    /// The stable wire tag (`"validate"` / `"run"` / `"sweep"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ExecAction::Validate => "validate",
            ExecAction::Run => "run",
            ExecAction::Sweep => "sweep",
        }
    }

    /// Parses a wire tag back into an action.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "validate" => ExecAction::Validate,
            "run" => ExecAction::Run,
            "sweep" => ExecAction::Sweep,
            _ => return None,
        })
    }
}

/// Shard selection of a checkpointed sweep: run only shard `index` of
/// `count` disjoint run ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSel {
    /// This shard's index (`< count`).
    pub index: u32,
    /// Total shards (`>= 1`).
    pub count: u32,
}

/// The one typed request every execution mode goes through.
///
/// Construct with [`ExecRequest::run`] / [`ExecRequest::sweep`] /
/// [`ExecRequest::validate_spec`] / [`ExecRequest::validate_sweep`] and
/// set the optional fields directly, or decode one from wire JSON with
/// [`ExecRequest::from_json`]. [`ExecRequest::validate`] checks the whole
/// field matrix before anything runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecRequest {
    /// What to do.
    pub action: ExecAction,
    /// The scenario spec (`run`, or `validate` of a single scenario).
    pub spec: Option<ScenarioSpec>,
    /// The sweep spec (`sweep`, or `validate` of a sweep).
    pub sweep: Option<SweepSpec>,
    /// The sweep's base scenario spec, inline as a raw value tree (the
    /// wire has no filesystem; clients resolve the sweep's `base` file
    /// reference before sending).
    pub base: Option<Value>,
    /// Run-level backend override (`"analytic"` / `"event"`).
    pub backend: Option<String>,
    /// Run-level scenario-seed override (calibration + streams).
    pub seed: Option<u64>,
    /// Run-level campaign-seed override.
    pub campaign_seed: Option<u64>,
    /// Run-level passes override.
    pub passes: Option<u32>,
    /// Run-level sampling-cadence override, seconds.
    pub sample_interval_s: Option<f64>,
    /// Latency requirement the run report's exceedance is judged against,
    /// ms (default [`DEFAULT_REQUIREMENT_MS`]; sweeps carry their own).
    pub requirement_ms: Option<f64>,
    /// Checkpoint store directory: spill completed variants to a resumable
    /// on-disk store (sweeps only; lifts the in-memory variant cap).
    pub checkpoint: Option<String>,
    /// With `checkpoint`: run only this shard of the run range.
    pub shard: Option<ShardSel>,
    /// With `checkpoint`: work items folded between cursor commits.
    pub interval: Option<usize>,
    /// With `checkpoint`: stop once this many items are folded (the
    /// kill/resume testing hook).
    pub stop_after_items: Option<u64>,
    /// With `checkpoint`: stream every store mutation back to the client
    /// as `STORE` frames (the dispatch protocol). When set, `checkpoint`
    /// is a store *name* the worker resolves under its own scratch root —
    /// a safe file-name component, not a path.
    pub stream_store: bool,
    /// With `stream_store`: a `STORE` frame carrying seed state (the dead
    /// previous owner's manifest, cursor and run blobs) follows this
    /// request; the worker plants it in a fresh store and resumes from it.
    pub seed_store: bool,
}

impl ExecRequest {
    fn empty(action: ExecAction) -> Self {
        Self {
            action,
            spec: None,
            sweep: None,
            base: None,
            backend: None,
            seed: None,
            campaign_seed: None,
            passes: None,
            sample_interval_s: None,
            requirement_ms: None,
            checkpoint: None,
            shard: None,
            interval: None,
            stop_after_items: None,
            stream_store: false,
            seed_store: false,
        }
    }

    /// A run request for one scenario spec.
    pub fn run(spec: ScenarioSpec) -> Self {
        Self { spec: Some(spec), ..Self::empty(ExecAction::Run) }
    }

    /// A sweep request: the sweep spec plus its base scenario's value tree.
    pub fn sweep(sweep: SweepSpec, base: Value) -> Self {
        Self { sweep: Some(sweep), base: Some(base), ..Self::empty(ExecAction::Sweep) }
    }

    /// A validate request for one scenario spec.
    pub fn validate_spec(spec: ScenarioSpec) -> Self {
        Self { spec: Some(spec), ..Self::empty(ExecAction::Validate) }
    }

    /// A validate request for a sweep.
    pub fn validate_sweep(sweep: SweepSpec, base: Value) -> Self {
        Self { sweep: Some(sweep), base: Some(base), ..Self::empty(ExecAction::Validate) }
    }

    /// Decodes a request from a parsed JSON value tree. Spec/sweep decode
    /// errors are re-anchored under the envelope member that carried the
    /// document (`$.spec…`, `$.sweep…`).
    pub fn from_value(v: &Value) -> Result<Self, SpecError> {
        let c = Ctx::root(v);
        if c.v.as_object().is_none() {
            return Err(c.type_err("object"));
        }
        let action_c = c.field("action")?;
        let tag = action_c.str()?;
        let action = ExecAction::parse(tag).ok_or_else(|| {
            action_c
                .err(format!("unknown action {tag:?} (expected validate, run or sweep)"))
                .with_code(ErrorCode::Schema)
        })?;
        let spec = match c.opt("spec") {
            Some(x) => Some(ScenarioSpec::from_value(x.v).map_err(|e| reanchor("$.spec", e))?),
            None => None,
        };
        let sweep = match c.opt("sweep") {
            Some(x) => Some(SweepSpec::from_value(x.v).map_err(|e| reanchor("$.sweep", e))?),
            None => None,
        };
        let shard = match c.opt("shard") {
            Some(x) => {
                Some(ShardSel { index: x.field("index")?.u32()?, count: x.field("count")?.u32()? })
            }
            None => None,
        };
        Ok(Self {
            action,
            spec,
            sweep,
            base: c.opt("base").map(|x| x.v.clone()),
            backend: c.opt("backend").map(|x| x.string()).transpose()?,
            seed: c.opt("seed").map(|x| x.u64()).transpose()?,
            campaign_seed: c.opt("campaign_seed").map(|x| x.u64()).transpose()?,
            passes: c.opt("passes").map(|x| x.u32()).transpose()?,
            sample_interval_s: c.opt("sample_interval_s").map(|x| x.f64()).transpose()?,
            requirement_ms: c.opt("requirement_ms").map(|x| x.f64()).transpose()?,
            checkpoint: c.opt("checkpoint").map(|x| x.string()).transpose()?,
            shard,
            interval: c.opt("interval").map(|x| x.u64()).transpose()?.map(|n| n as usize),
            stop_after_items: c.opt("stop_after_items").map(|x| x.u64()).transpose()?,
            stream_store: c.opt("stream_store").map(|x| x.bool()).transpose()?.unwrap_or(false),
            seed_store: c.opt("seed_store").map(|x| x.bool()).transpose()?.unwrap_or(false),
        })
    }

    /// Parses a request from JSON text.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let v = serde_json::from_str(text).map_err(|e| {
            SpecError::coded(ErrorCode::InvalidJson, "$", format!("invalid JSON: {e}"))
        })?;
        Self::from_value(&v)
    }

    /// Serialises to compact JSON. Field order is fixed and absent
    /// optionals are omitted, so identical requests encode to identical
    /// bytes.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("request serialises")
    }

    /// Checks the whole request field matrix; the first violation is
    /// returned, anchored at the envelope member. Field combinations no
    /// runner honors are *rejected*, never silently dropped — the
    /// [`ErrorCode::Conflict`] class.
    pub fn validate(&self) -> Result<(), SpecError> {
        let conflict =
            |path: &str, msg: String| Err(SpecError::coded(ErrorCode::Conflict, path, msg));
        let missing =
            |path: &str, msg: &str| Err(SpecError::coded(ErrorCode::Schema, path, msg.to_string()));
        let action = self.action.as_str();

        // The checkpoint family: checkpointing is sweep execution's resume
        // machinery; the dependent knobs are meaningless without it.
        if self.checkpoint.is_some() && self.action != ExecAction::Sweep {
            return conflict(
                "$.checkpoint",
                format!(
                    "checkpointing applies to sweep execution (a {action} request has no \
                     resume cursor); remove $.checkpoint or use action \"sweep\""
                ),
            );
        }
        if self.checkpoint.is_none() {
            for (path, present) in [
                ("$.shard", self.shard.is_some()),
                ("$.interval", self.interval.is_some()),
                ("$.stop_after_items", self.stop_after_items.is_some()),
            ] {
                if present {
                    return conflict(
                        path,
                        format!("{path} requires $.checkpoint (the on-disk sweep store)"),
                    );
                }
            }
        }
        if self.stream_store {
            match &self.checkpoint {
                None => {
                    return conflict(
                        "$.stream_store",
                        "$.stream_store streams the checkpoint store over the wire, so it \
                         requires $.checkpoint"
                            .into(),
                    )
                }
                Some(name) if !crate::wire::is_safe_store_name(name) => {
                    return Err(SpecError::new(
                        "$.checkpoint",
                        format!(
                            "with $.stream_store, $.checkpoint is a store name the worker \
                             resolves under its own scratch root, not a path — {name:?} must \
                             be at most 128 characters of [A-Za-z0-9._-] starting with an \
                             alphanumeric"
                        ),
                    ));
                }
                Some(_) => {}
            }
        }
        if self.seed_store && !self.stream_store {
            return conflict(
                "$.seed_store",
                "$.seed_store seeds a streamed store, so it requires $.stream_store".into(),
            );
        }
        if let Some(s) = self.shard {
            if s.count < 1 || s.index >= s.count {
                return Err(SpecError::new(
                    "$.shard",
                    format!(
                        "shard {}/{} is not a valid shard (need index < count)",
                        s.index, s.count
                    ),
                ));
            }
        }
        if self.interval == Some(0) {
            return Err(SpecError::new("$.interval", "checkpoint interval must be at least 1"));
        }
        if let Some(b) = &self.backend {
            parse_backend(b).map_err(|m| SpecError::new("$.backend", m))?;
        }
        if let Some(r) = self.requirement_ms {
            if !(r.is_finite() && r > 0.0) {
                return Err(SpecError::new(
                    "$.requirement_ms",
                    format!("requirement must be positive, got {r}"),
                ));
            }
        }

        match self.action {
            ExecAction::Run => {
                if self.spec.is_none() {
                    return missing("$.spec", "a run request needs a scenario spec");
                }
                if self.sweep.is_some() {
                    return conflict(
                        "$.sweep",
                        "a run request executes one scenario; use action \"sweep\" to run a \
                         sweep document"
                            .into(),
                    );
                }
                if self.base.is_some() {
                    return conflict(
                        "$.base",
                        "a base spec accompanies a sweep document, not a single run".into(),
                    );
                }
                // The silent-drop hazard the spec-level check cannot see:
                // the override flips a fault-bearing event spec back to
                // analytic, which would skip the fault schedule entirely.
                if self.backend.as_deref() == Some("analytic") {
                    if let Some(spec) = &self.spec {
                        if !spec.faults.is_empty() {
                            return conflict(
                                "$.backend",
                                "the spec schedules faults, which replay on the event \
                                 calendar; an analytic override would silently skip them — \
                                 drop the override or clear $.spec.faults"
                                    .into(),
                            );
                        }
                    }
                }
            }
            ExecAction::Sweep => {
                if self.sweep.is_none() {
                    return missing("$.sweep", "a sweep request needs a sweep spec");
                }
                if self.base.is_none() {
                    return missing(
                        "$.base",
                        "a sweep request needs the base scenario spec inline (the wire has \
                         no filesystem to resolve the sweep's base reference)",
                    );
                }
                if self.spec.is_some() {
                    return conflict(
                        "$.spec",
                        "a sweep request takes its scenarios from $.sweep and $.base; use \
                         action \"run\" to execute one scenario spec"
                            .into(),
                    );
                }
                for (path, present) in [
                    ("$.backend", self.backend.is_some()),
                    ("$.seed", self.seed.is_some()),
                    ("$.campaign_seed", self.campaign_seed.is_some()),
                    ("$.passes", self.passes.is_some()),
                    ("$.sample_interval_s", self.sample_interval_s.is_some()),
                    ("$.requirement_ms", self.requirement_ms.is_some()),
                ] {
                    if present {
                        return conflict(
                            path,
                            format!(
                                "{path} is a run-level override no sweep runner honors — \
                                 sweep the parameter with an axis (or set it in the base \
                                 spec) instead"
                            ),
                        );
                    }
                }
            }
            ExecAction::Validate => {
                match (&self.spec, &self.sweep) {
                    (None, None) => {
                        return missing(
                            "$.spec",
                            "a validate request needs a scenario spec or a sweep spec",
                        )
                    }
                    (Some(_), Some(_)) => {
                        return conflict(
                            "$.sweep",
                            "validate one document per request: send either $.spec or \
                             $.sweep, not both"
                                .into(),
                        )
                    }
                    (Some(_), None) if self.base.is_some() => {
                        return conflict(
                            "$.base",
                            "a base spec accompanies a sweep document, not a scenario spec".into(),
                        )
                    }
                    (None, Some(_)) if self.base.is_none() => {
                        return missing(
                            "$.base",
                            "validating a sweep needs the base scenario spec inline",
                        )
                    }
                    _ => {}
                }
                for (path, present) in [
                    ("$.backend", self.backend.is_some()),
                    ("$.seed", self.seed.is_some()),
                    ("$.campaign_seed", self.campaign_seed.is_some()),
                    ("$.passes", self.passes.is_some()),
                    ("$.sample_interval_s", self.sample_interval_s.is_some()),
                    ("$.requirement_ms", self.requirement_ms.is_some()),
                ] {
                    if present {
                        return conflict(
                            path,
                            format!(
                                "{path} is an execution override; a validate request runs \
                                     nothing, so it honors none"
                            ),
                        );
                    }
                }
            }
        }
        Ok(())
    }
}

impl Serialize for ShardSel {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("index".into(), Value::U64(u64::from(self.index))),
            ("count".into(), Value::U64(u64::from(self.count))),
        ])
    }
}

impl Serialize for ExecRequest {
    fn to_value(&self) -> Value {
        let mut pairs: Vec<(String, Value)> =
            vec![("action".into(), Value::String(self.action.as_str().into()))];
        let mut put = |name: &str, v: Option<Value>| {
            if let Some(v) = v {
                pairs.push((name.into(), v));
            }
        };
        put("spec", self.spec.as_ref().map(Serialize::to_value));
        put("sweep", self.sweep.as_ref().map(Serialize::to_value));
        put("base", self.base.clone());
        put("backend", self.backend.clone().map(Value::String));
        put("seed", self.seed.map(Value::U64));
        put("campaign_seed", self.campaign_seed.map(Value::U64));
        put("passes", self.passes.map(|n| Value::U64(u64::from(n))));
        put("sample_interval_s", self.sample_interval_s.map(Value::F64));
        put("requirement_ms", self.requirement_ms.map(Value::F64));
        put("checkpoint", self.checkpoint.clone().map(Value::String));
        put("shard", self.shard.as_ref().map(Serialize::to_value));
        put("interval", self.interval.map(|n| Value::U64(n as u64)));
        put("stop_after_items", self.stop_after_items.map(Value::U64));
        // Flags serialise only when set, so every pre-dispatch request
        // byte string is unchanged.
        put("stream_store", self.stream_store.then_some(Value::Bool(true)));
        put("seed_store", self.seed_store.then_some(Value::Bool(true)));
        Value::Object(pairs)
    }
}

/// Re-anchors a document-decode error under the envelope member that
/// carried the document: `$.grid.cols` in a spec sent as `$.spec` becomes
/// `$.spec.grid.cols`.
fn reanchor(prefix: &str, mut e: SpecError) -> SpecError {
    let rest = e.path.strip_prefix('$').unwrap_or(&e.path);
    e.path = format!("{prefix}{rest}");
    e
}

// ---------------------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------------------

/// Aggregates of one executed single-scenario campaign — the `run`
/// counterpart of a sweep's [`VariantReport`]. Contains no wall times, so
/// the serialised form is bitwise identical across runs and pool sizes.
///
/// **Cell enumeration is key-scheme dependent.** Legacy-scheme grids
/// (≤ [`crate::spec::PACKABLE_GRID_DIM`] per side) list every reported
/// cell in [`RunReport::cells`], exactly as before the widening. A
/// wide-scheme mega-grid would enumerate up to millions of cells, so its
/// report leaves `cells` empty and carries the two-level
/// [`crate::hvt`] super-cell hierarchy in [`RunReport::super_cells`]
/// instead — navigable tiles with quantized per-super-cell statistics.
/// The field is omitted (not `null`) from legacy reports, so every
/// pre-widening report byte is unchanged.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name.
    pub scenario: String,
    /// Execution backend tag.
    pub backend: String,
    /// Scenario seed (calibration + streams).
    pub scenario_seed: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Grid traversals.
    pub passes: u32,
    /// Sampling cadence, seconds.
    pub sample_interval_s: f64,
    /// Requirement the exceedance figure uses, ms.
    pub requirement_ms: f64,
    /// Total samples collected.
    pub total_samples: u64,
    /// Grand mean over reported cells, ms.
    pub grand_mean_ms: f64,
    /// Reported mean minimum, ms.
    pub mean_min_ms: f64,
    /// Reported mean maximum, ms.
    pub mean_max_ms: f64,
    /// Reported σ minimum, ms.
    pub std_min_ms: f64,
    /// Reported σ maximum, ms.
    pub std_max_ms: f64,
    /// Grand-mean exceedance over the requirement, percent.
    pub exceedance_pct: f64,
    /// Per-cell statistics of reported cells (legacy-scheme grids; empty
    /// for wide-scheme mega-grids).
    pub cells: Vec<CellSummary>,
    /// The hierarchical super-cell summary (wide-scheme grids only).
    pub super_cells: Option<HvtReport>,
}

impl Serialize for RunReport {
    // Hand-written (not derived) so `super_cells` is *omitted* when absent:
    // a derived `Option` would serialise `null` and change every legacy
    // report's bytes.
    fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("scenario".to_string(), self.scenario.to_value()),
            ("backend".to_string(), self.backend.to_value()),
            ("scenario_seed".to_string(), self.scenario_seed.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("passes".to_string(), self.passes.to_value()),
            ("sample_interval_s".to_string(), self.sample_interval_s.to_value()),
            ("requirement_ms".to_string(), self.requirement_ms.to_value()),
            ("total_samples".to_string(), self.total_samples.to_value()),
            ("grand_mean_ms".to_string(), self.grand_mean_ms.to_value()),
            ("mean_min_ms".to_string(), self.mean_min_ms.to_value()),
            ("mean_max_ms".to_string(), self.mean_max_ms.to_value()),
            ("std_min_ms".to_string(), self.std_min_ms.to_value()),
            ("std_max_ms".to_string(), self.std_max_ms.to_value()),
            ("exceedance_pct".to_string(), self.exceedance_pct.to_value()),
            ("cells".to_string(), self.cells.to_value()),
        ];
        if let Some(h) = &self.super_cells {
            pairs.push(("super_cells".to_string(), h.to_value()));
        }
        Value::Object(pairs)
    }
}

impl RunReport {
    fn from_field(
        spec: &ScenarioSpec,
        backend: ExecBackend,
        config: CampaignConfig,
        field: &CellField,
        requirement_ms: f64,
    ) -> Self {
        let summary = field.summary();
        let grand_mean_ms = summary.grand_mean_ms;
        let (mean_min_ms, mean_max_ms) =
            summary.mean_extrema.as_ref().map_or((0.0, 0.0), |(a, b)| (a.mean_ms, b.mean_ms));
        let (std_min_ms, std_max_ms) =
            summary.std_extrema.as_ref().map_or((0.0, 0.0), |(a, b)| (a.std_ms, b.std_ms));
        let wide = KeyScheme::for_grid(field.grid()) == KeyScheme::Wide;
        let cells = if wide {
            Vec::new()
        } else {
            field
                .reported()
                .into_iter()
                .map(|s| CellSummary {
                    cell: s.cell.label(),
                    count: s.count,
                    mean_ms: s.mean_ms,
                    std_ms: s.std_ms,
                })
                .collect()
        };
        let super_cells = wide.then(|| {
            hvt::build_from_summary(
                field,
                &HvtConfig::for_grid(field.grid(), requirement_ms),
                &summary,
            )
        });
        Self {
            scenario: spec.name.clone(),
            backend: backend.to_string(),
            scenario_seed: spec.seed,
            seed: config.seed,
            passes: config.passes,
            sample_interval_s: config.sample_interval_s,
            requirement_ms,
            total_samples: summary.total_samples,
            grand_mean_ms,
            mean_min_ms,
            mean_max_ms,
            std_min_ms,
            std_max_ms,
            exceedance_pct: (grand_mean_ms - requirement_ms) / requirement_ms * 100.0,
            cells,
            super_cells,
        }
    }

    /// Serialises to pretty JSON (deterministic, like the report itself).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("run report serialises")
    }
}

/// A run's full output: the compiled scenario (shared with the cache),
/// the per-cell field, and the report — callers that render heatmaps or
/// gap analyses use the field; wire clients see only the report.
pub struct RunOutput {
    /// The compiled scenario the campaign ran on.
    pub scenario: Arc<Scenario>,
    /// The campaign's per-cell field.
    pub field: CellField,
    /// The deterministic report.
    pub report: RunReport,
}

impl std::fmt::Debug for RunOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOutput")
            .field("scenario", &self.scenario.name)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

/// What [`execute`] produced — one variant per [`ExecAction`] outcome.
#[derive(Debug)]
pub enum ExecReport {
    /// The payload validated cleanly (nothing ran).
    Valid {
        /// `"scenario"` or `"sweep"`.
        kind: &'static str,
        /// The validated document's name.
        name: String,
        /// Variant count, for sweeps.
        variants: Option<usize>,
    },
    /// A completed single-scenario run.
    Run(Box<RunOutput>),
    /// A completed sweep (in-memory, or checkpointed to completion).
    Sweep(Box<SweepRun>),
    /// A checkpointed shard finished its disjoint run range; merge the
    /// shard stores for the report.
    ShardComplete {
        /// This shard.
        shard_index: u32,
        /// Total shards.
        shard_count: u32,
        /// Items this shard folded in total.
        done_items: u64,
    },
    /// A checkpointed run stopped at its `stop_after_items` cursor.
    Interrupted {
        /// Items folded so far (the committed cursor position).
        done_items: u64,
        /// The shard's work-list length.
        total_items: u64,
    },
}

impl ExecReport {
    /// The report's canonical JSON rendering — what the wire protocol
    /// ships and `sixg-cli --json` writes, so the same request produces
    /// byte-identical payloads over every surface. Sweep reports render
    /// exactly as [`crate::sweep::SweepReport::to_json`].
    pub fn to_json(&self) -> String {
        match self {
            ExecReport::Valid { kind, name, variants } => {
                let mut pairs = vec![
                    ("valid".into(), Value::Bool(true)),
                    ("kind".into(), Value::String((*kind).into())),
                    ("name".into(), Value::String(name.clone())),
                ];
                if let Some(n) = variants {
                    pairs.push(("variants".into(), Value::U64(*n as u64)));
                }
                serde_json::to_string_pretty(&Value::Object(pairs)).expect("report serialises")
            }
            ExecReport::Run(out) => out.report.to_json(),
            ExecReport::Sweep(run) => run.report.to_json(),
            ExecReport::ShardComplete { shard_index, shard_count, done_items } => {
                serde_json::to_string_pretty(&Value::Object(vec![
                    ("shard_complete".into(), Value::Bool(true)),
                    ("shard_index".into(), Value::U64(u64::from(*shard_index))),
                    ("shard_count".into(), Value::U64(u64::from(*shard_count))),
                    ("done_items".into(), Value::U64(*done_items)),
                ]))
                .expect("report serialises")
            }
            ExecReport::Interrupted { done_items, total_items } => {
                serde_json::to_string_pretty(&Value::Object(vec![
                    ("interrupted".into(), Value::Bool(true)),
                    ("done_items".into(), Value::U64(*done_items)),
                    ("total_items".into(), Value::U64(*total_items)),
                ]))
                .expect("report serialises")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The compiled-scenario cache.
// ---------------------------------------------------------------------------

/// The canonical key of a spec's compiled scenario: the spec with its
/// campaign cleared and its backend set to `analytic`, which leaves
/// everything [`Scenario::from_spec`] reads and nothing else. The
/// [`ScenarioCache`], [`scenario_content_hash`] and sweep planning's
/// compile dedup all key on it.
pub(crate) fn compile_key(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut key = spec.clone();
    key.campaign = CampaignDef::default();
    key.backend = "analytic".into();
    key
}

/// Content hash of a spec's canonical form — campaign cleared, backend
/// `analytic` (the compile key), because [`Scenario::from_spec`] reads
/// neither. Two specs that differ only in seed policy or backend share one
/// hash, one cache entry, and one calibration.
pub fn scenario_content_hash(spec: &ScenarioSpec) -> u64 {
    fnv1a64(compile_key(spec).to_json().as_bytes())
}

/// Default number of compiled scenarios an [`Executor`] keeps hot.
pub const DEFAULT_CACHE_CAPACITY: usize = 8;

struct CacheEntry {
    hash: u64,
    key: ScenarioSpec,
    scenario: Arc<Scenario>,
    last_used: u64,
}

/// An LRU cache of compiled [`Scenario`]s keyed by canonical spec content
/// hash (with full-key equality behind the hash, so a hash collision can
/// never serve the wrong scenario). Compilation is a pure function of the
/// canonical spec, so hits and cold compiles are interchangeable bit for
/// bit — the cache affects latency, never results.
pub struct ScenarioCache {
    entries: Vec<CacheEntry>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ScenarioCache {
    /// An empty cache bounded to `capacity` compiled scenarios.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "cache capacity must be at least 1");
        Self { entries: Vec::new(), capacity, tick: 0, hits: 0, misses: 0 }
    }

    /// Returns the cached compiled scenario for `spec`'s canonical key, or
    /// compiles, caches (evicting the least-recently-used entry at
    /// capacity) and returns it.
    pub fn get_or_compile(&mut self, spec: &ScenarioSpec) -> Result<Arc<Scenario>, SpecError> {
        let key = compile_key(spec);
        let hash = fnv1a64(key.to_json().as_bytes());
        self.tick += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.hash == hash && e.key == key) {
            e.last_used = self.tick;
            self.hits += 1;
            return Ok(Arc::clone(&e.scenario));
        }
        let scenario = Arc::new(Scenario::from_spec(spec)?);
        self.misses += 1;
        if self.entries.len() == self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("capacity >= 1, so a full cache is non-empty");
            self.entries.swap_remove(lru);
        }
        self.entries.push(CacheEntry {
            hash,
            key,
            scenario: Arc::clone(&scenario),
            last_used: self.tick,
        });
        Ok(scenario)
    }

    /// Cached scenarios currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that compiled cold.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

// ---------------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------------

/// Executes a request with a one-shot scenario cache — the stateless
/// entry point. Long-lived callers (the `sixg-serve` daemon) hold an
/// [`Executor`] instead so compiled scenarios stay hot across requests.
pub fn execute(req: &ExecRequest) -> Result<ExecReport, SpecError> {
    Executor::new().execute(req)
}

/// A long-lived execution context: the facade plus a shared
/// [`ScenarioCache`]. `&self` methods take the cache mutex only around
/// compilation, so concurrent callers (one per daemon connection)
/// serialise their cold compiles — each on the order of 80 ms for a
/// calibrated site, most of it calibration, during which every other
/// caller's cache lookup waits — and run their campaigns on the shared
/// rayon pool concurrently. That is safe *and* deterministic, because
/// every campaign folds into fields of its own, each cell's samples pass
/// by pass, whichever thread draws them: no two requests share mutable
/// state outside the cache.
pub struct Executor {
    cache: Mutex<ScenarioCache>,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// An executor with the default cache capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// An executor whose cache is bounded to `capacity` scenarios.
    pub fn with_capacity(capacity: usize) -> Self {
        Self { cache: Mutex::new(ScenarioCache::new(capacity)) }
    }

    /// The shared cache, recovered if a thread panicked while holding
    /// its lock. That is safe because [`ScenarioCache::get_or_compile`]
    /// changes entries only after a compile succeeds, so a panic inside a
    /// compile leaves the cache as it was.
    fn cache(&self) -> MutexGuard<'_, ScenarioCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `(hits, misses, len)` of the shared cache — the daemon's stats
    /// surface.
    pub fn cache_stats(&self) -> (u64, u64, usize) {
        let c = self.cache();
        (c.hits(), c.misses(), c.len())
    }

    /// Validates and executes a request.
    pub fn execute(&self, req: &ExecRequest) -> Result<ExecReport, SpecError> {
        self.execute_streaming(req, |_, _| {})
    }

    /// [`Self::execute`], streaming per-variant sweep results: `emit` is
    /// called with `(run index, report)` for run 0 (the base) and every
    /// variant once its draw group is done and every earlier run has been
    /// emitted — in run order, while later draw groups are still
    /// executing. The emitted reports are the final [`SweepRun`]'s own,
    /// built once, so a streaming consumer and a whole-report consumer
    /// can never disagree. Runs and validates emit nothing.
    pub fn execute_streaming(
        &self,
        req: &ExecRequest,
        mut emit: impl FnMut(usize, &VariantReport),
    ) -> Result<ExecReport, SpecError> {
        req.validate()?;
        match req.action {
            ExecAction::Validate => self.do_validate(req),
            ExecAction::Run => self.do_run(req),
            ExecAction::Sweep => self.do_sweep(req, &mut emit),
        }
    }

    fn do_validate(&self, req: &ExecRequest) -> Result<ExecReport, SpecError> {
        if let Some(spec) = &req.spec {
            if let Some(e) = spec.validate().into_iter().next() {
                return Err(e);
            }
            return Ok(ExecReport::Valid {
                kind: "scenario",
                name: spec.name.clone(),
                variants: None,
            });
        }
        let sweep = build_sweep(req)?;
        Ok(ExecReport::Valid {
            kind: "sweep",
            name: sweep.spec.name.clone(),
            variants: Some(sweep.spec.variant_count()),
        })
    }

    fn do_run(&self, req: &ExecRequest) -> Result<ExecReport, SpecError> {
        let mut spec = req.spec.clone().expect("validated: run has a spec");
        if let Some(b) = &req.backend {
            spec.backend = b.clone();
        }
        if let Some(s) = req.seed {
            spec.seed = s;
        }
        if let Some(s) = req.campaign_seed {
            spec.campaign.seed = s;
        }
        if let Some(p) = req.passes {
            spec.campaign.passes = p;
        }
        if let Some(i) = req.sample_interval_s {
            spec.campaign.sample_interval_s = i;
        }
        if let Some(e) = spec.validate().into_iter().next() {
            return Err(e);
        }
        let scenario = self.cache().get_or_compile(&spec)?;
        let backend = parse_backend(&spec.backend).expect("validated backend");
        let config = CampaignConfig {
            seed: spec.campaign.seed,
            sample_interval_s: spec.campaign.sample_interval_s,
            passes: spec.campaign.passes,
        };
        let field = run_field(&scenario, config, backend);
        let requirement_ms = req.requirement_ms.unwrap_or(DEFAULT_REQUIREMENT_MS);
        let report = RunReport::from_field(&spec, backend, config, &field, requirement_ms);
        Ok(ExecReport::Run(Box::new(RunOutput { scenario, field, report })))
    }

    fn do_sweep(
        &self,
        req: &ExecRequest,
        emit: &mut impl FnMut(usize, &VariantReport),
    ) -> Result<ExecReport, SpecError> {
        // Store streaming is a wire-protocol feature: only the serve
        // worker path (`dispatch::run_streamed_shard`) has a frame stream
        // to write to. Rejecting here keeps the no-silent-drop contract —
        // an in-process caller asking for it is confused, not ignorable.
        if req.stream_store {
            return Err(SpecError::coded(
                ErrorCode::Conflict,
                "$.stream_store",
                "store streaming is honored by a sixg-serve worker, not in-process \
                 execution — drop $.stream_store or send the request to a worker"
                    .to_string(),
            ));
        }

        let sweep = build_sweep(req)?;

        if let Some(dir) = &req.checkpoint {
            // Checkpointed execution spills to disk between pool rounds;
            // its resume cursor, not the emit stream, is the incremental
            // surface.
            return run_checkpointed_request(req, &sweep, Path::new(dir), &mut |_| true);
        }

        let plan = sweep.plan_with_cache(Some(&mut self.cache()))?;
        Ok(ExecReport::Sweep(Box::new(plan.run_in_memory(&sweep, emit))))
    }
}

/// Builds the sweep from the request's inline documents. A request
/// without `checkpoint` — an in-memory sweep, or a validate request — is
/// held to the in-memory variant cap here, before anything is planned;
/// checkpointed requests spill to disk and have no cap. Errors anchor
/// inside the sweep document (or the base spec, named in the message) —
/// see the module docs on error anchoring.
pub(crate) fn build_sweep(req: &ExecRequest) -> Result<Sweep, SpecError> {
    let sweep = req.sweep.clone().expect("validated: sweep present");
    let base = req.base.as_ref().expect("validated: base present");
    let base_json = serde_json::to_string(base).expect("value serialises");
    let sweep = Sweep::new(sweep, &base_json)?;
    if req.checkpoint.is_none() {
        sweep.check_in_memory_cap()?;
    }
    Ok(sweep)
}

/// Runs a checkpointed sweep request against the store at `dir` — the one
/// request → [`CheckpointConfig`] mapping, shared by in-process execution
/// and the dispatch worker ([`crate::dispatch::run_streamed_shard`]), with
/// `observe` watching every store mutation. Store-level failures become
/// [`ErrorCode::Io`] errors anchored at the request's `$.checkpoint`
/// member (the store error text already names the offending file).
pub(crate) fn run_checkpointed_request(
    req: &ExecRequest,
    sweep: &Sweep,
    dir: &Path,
    observe: &mut dyn FnMut(StoreEvent<'_>) -> bool,
) -> Result<ExecReport, SpecError> {
    let mut cfg = CheckpointConfig::new(dir);
    if let Some(s) = req.shard {
        cfg.shard_index = s.index;
        cfg.shard_count = s.count;
    }
    if let Some(k) = req.interval {
        cfg.interval = k;
    }
    cfg.stop_after_items = req.stop_after_items;
    match run_checkpointed_observed(sweep, &cfg, observe) {
        Ok(outcome) => Ok(outcome.into()),
        Err(CheckpointError::Spec(e)) => Err(e),
        Err(CheckpointError::Store(e)) => {
            Err(SpecError::coded(ErrorCode::Io, "$.checkpoint", e.to_string()))
        }
    }
}

impl From<CheckpointOutcome> for ExecReport {
    fn from(outcome: CheckpointOutcome) -> Self {
        match outcome {
            CheckpointOutcome::Complete(run) => ExecReport::Sweep(run),
            CheckpointOutcome::ShardComplete { shard_index, shard_count, done_items } => {
                ExecReport::ShardComplete { shard_index, shard_count, done_items }
            }
            CheckpointOutcome::Interrupted { done_items, total_items } => {
                ExecReport::Interrupted { done_items, total_items }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::klagenfurt::{klagenfurt_flap_spec, klagenfurt_spec};
    use crate::megacity::megacity_spec;
    use crate::parallel::with_thread_count;
    use crate::skopje::skopje_spec;

    fn flat_spec() -> ScenarioSpec {
        let mut spec = klagenfurt_spec().clone();
        spec.campaign.passes = 1;
        spec
    }

    fn flap_spec() -> ScenarioSpec {
        let mut spec = klagenfurt_flap_spec().clone();
        spec.campaign.passes = 1;
        spec
    }

    fn field_bits(field: &CellField) -> Vec<(u64, u64, u64)> {
        field
            .reported()
            .into_iter()
            .map(|s| (s.count, s.mean_ms.to_bits(), s.std_ms.to_bits()))
            .collect()
    }

    /// A minimal wide-scheme spec: one side past [`PACKABLE_GRID_DIM`]
    /// flips the key scheme while keeping the campaign small enough for a
    /// debug-build test.
    fn wide_spec() -> ScenarioSpec {
        let mut spec = skopje_spec().clone();
        spec.name = "wide-test".into();
        spec.grid.cols = 257;
        spec.grid.rows = 12;
        spec.campaign.passes = 1;
        spec
    }

    #[test]
    fn wide_grid_run_reports_super_cells_and_is_pool_invariant() {
        let req = ExecRequest::run(wide_spec());
        let exec = Executor::new();
        let a = with_thread_count(1, || exec.execute(&req).expect("runs").to_json());
        let b = with_thread_count(4, || exec.execute(&req).expect("runs").to_json());
        assert_eq!(a, b, "wide-scheme reports must be pool-size invariant");

        match exec.execute(&req).expect("runs") {
            ExecReport::Run(out) => {
                let r = &out.report;
                assert!(r.cells.is_empty(), "mega-grids must not enumerate cells");
                let h = r.super_cells.as_ref().expect("wide grids summarise hierarchically");
                assert_eq!(h.reported_cells + h.masked_cells, 257 * 12);
                assert!(h.reported_cells > 0, "the campaign must report cells");
                assert!(h.tiles.len() > 1, "level 1 must partition the grid");
                let bucketed: u64 =
                    h.tiles.iter().flat_map(|t| &t.super_cells).map(|s| s.samples).sum();
                assert!(bucketed > 0 && bucketed <= r.total_samples);
                assert!(r.to_json().contains("\"super_cells\""));
            }
            other => panic!("expected a run report, got {other:?}"),
        }
    }

    /// A wide grid past three chunks of every per-cell pass outside the
    /// sampling kernel: 180 000 cells (three cell chunks), 300 rows of 600
    /// (three row chunks), two passes of 180 000 items (six item chunks,
    /// so a cell's two items sit in different chunks) and eight tile rows
    /// of 38 × 600 cells (three tile-row chunks). A coarse cadence keeps
    /// the debug build quick and leaves some cells masked. The report must
    /// be the same bytes at every pool size, and the field the sequential
    /// oracle's, accumulator for accumulator.
    #[test]
    fn multi_chunk_wide_grid_is_pool_invariant_and_matches_the_oracle() {
        let mut spec = wide_spec();
        spec.grid.cols = 600;
        spec.grid.rows = 300;
        spec.campaign.passes = 2;
        spec.campaign.sample_interval_s = 24.0;
        let req = ExecRequest::run(spec.clone());
        let runs: Vec<(usize, String, CellField)> = [1usize, 2, 3, 8]
            .into_iter()
            .map(|threads| match with_thread_count(threads, || execute(&req)).expect("runs") {
                ExecReport::Run(out) => (threads, out.report.to_json(), out.field),
                other => panic!("expected a run report, got {other:?}"),
            })
            .collect();
        let scenario = Scenario::from_spec(&spec).expect("compiles");
        let config = CampaignConfig {
            seed: spec.campaign.seed,
            sample_interval_s: spec.campaign.sample_interval_s,
            passes: spec.campaign.passes,
        };
        let oracle =
            run_field_sequential(&scenario, config, ExecBackend::Analytic).accumulator_bits();
        for (threads, json, field) in &runs {
            assert!(json == &runs[0].1, "{threads} threads: the report bytes moved");
            assert!(
                field.accumulator_bits() == oracle,
                "{threads} threads: not the oracle's field"
            );
        }
        match execute(&req).expect("runs") {
            ExecReport::Run(out) => {
                let h = out.report.super_cells.as_ref().expect("wide grids summarise");
                assert_eq!((h.tile_cells, h.tile_cols, h.tile_rows), (38, 16, 8));
                assert!(h.reported_cells > 0 && h.masked_cells > 0, "{h:?}");
            }
            other => panic!("expected a run report, got {other:?}"),
        }
    }

    #[test]
    fn legacy_reports_omit_the_super_cell_member() {
        match execute(&ExecRequest::run(flat_spec())).expect("runs") {
            ExecReport::Run(out) => {
                assert!(out.report.super_cells.is_none());
                assert!(
                    !out.report.to_json().contains("super_cells"),
                    "legacy report bytes must not grow a null member"
                );
            }
            other => panic!("expected a run report, got {other:?}"),
        }
    }

    // -- request validation matrix ------------------------------------------

    #[test]
    fn checkpoint_on_a_run_request_is_a_conflict() {
        let mut req = ExecRequest::run(flat_spec());
        req.checkpoint = Some("store".into());
        let e = req.validate().expect_err("must reject");
        assert_eq!(e.code, ErrorCode::Conflict);
        assert_eq!(e.path, "$.checkpoint");
    }

    #[test]
    fn shard_without_checkpoint_is_a_conflict() {
        let sweep = SweepSpec::from_json(
            r#"{"name": "s", "base": "b", "axes": [{"kind": "seeds", "start": 1, "count": 2}]}"#,
        )
        .expect("parses");
        let base = serde_json::from_str(&flat_spec().to_json()).expect("parses");
        let mut req = ExecRequest::sweep(sweep, base);
        req.shard = Some(ShardSel { index: 0, count: 2 });
        let e = req.validate().expect_err("must reject");
        assert_eq!(e.code, ErrorCode::Conflict);
        assert_eq!(e.path, "$.shard");

        req.checkpoint = Some("store".into());
        req.validate().expect("checkpoint makes the shard legal");
    }

    #[test]
    fn analytic_override_on_a_faulted_spec_is_a_conflict() {
        let mut req = ExecRequest::run(flap_spec());
        req.backend = Some("analytic".into());
        let e = req.validate().expect_err("must reject");
        assert_eq!(e.code, ErrorCode::Conflict);
        assert_eq!(e.path, "$.backend");

        // The event override on the same spec is the supported path.
        req.backend = Some("event".into());
        req.validate().expect("event override is legal");
    }

    #[test]
    fn run_overrides_on_a_sweep_request_are_conflicts() {
        let sweep = SweepSpec::from_json(
            r#"{"name": "s", "base": "b", "axes": [{"kind": "seeds", "start": 1, "count": 2}]}"#,
        )
        .expect("parses");
        let base: Value = serde_json::from_str(&flat_spec().to_json()).expect("parses");
        type SetField = fn(&mut ExecRequest);
        let overrides: [(SetField, &str); 6] = [
            (|r| r.backend = Some("event".into()), "$.backend"),
            (|r| r.seed = Some(7), "$.seed"),
            (|r| r.campaign_seed = Some(7), "$.campaign_seed"),
            (|r| r.passes = Some(2), "$.passes"),
            (|r| r.sample_interval_s = Some(1.0), "$.sample_interval_s"),
            (|r| r.requirement_ms = Some(10.0), "$.requirement_ms"),
        ];
        for (set, path) in overrides {
            let mut req = ExecRequest::sweep(sweep.clone(), base.clone());
            set(&mut req);
            let e = req.validate().expect_err("must reject");
            assert_eq!(e.code, ErrorCode::Conflict, "{path}");
            assert_eq!(e.path, path);
        }
    }

    #[test]
    fn missing_documents_are_schema_errors() {
        let e = ExecRequest::empty(ExecAction::Run).validate().expect_err("no spec");
        assert_eq!((e.code, e.path.as_str()), (ErrorCode::Schema, "$.spec"));
        let e = ExecRequest::empty(ExecAction::Sweep).validate().expect_err("no sweep");
        assert_eq!((e.code, e.path.as_str()), (ErrorCode::Schema, "$.sweep"));
        let e = ExecRequest::empty(ExecAction::Validate).validate().expect_err("no document");
        assert_eq!((e.code, e.path.as_str()), (ErrorCode::Schema, "$.spec"));
    }

    #[test]
    fn request_json_round_trips_and_is_stable() {
        let mut req = ExecRequest::run(flat_spec());
        req.backend = Some("event".into());
        req.passes = Some(2);
        let text = req.to_json();
        let back = ExecRequest::from_json(&text).expect("round-trips");
        assert_eq!(back, req);
        assert_eq!(back.to_json(), text, "encoding must be stable");

        let e = ExecRequest::from_json("{\"action\": ").expect_err("invalid JSON");
        assert_eq!(e.code, ErrorCode::InvalidJson);
        let e = ExecRequest::from_json("{}").expect_err("missing action");
        assert_eq!(e.code, ErrorCode::Schema);
    }

    #[test]
    fn document_decode_errors_reanchor_under_the_envelope() {
        let e = ExecRequest::from_json(r#"{"action": "run", "spec": {"name": 3}}"#)
            .expect_err("bad spec");
        assert!(e.path.starts_with("$.spec."), "{}", e.path);
        assert_eq!(e.code, ErrorCode::Schema);
    }

    // -- scenario cache ------------------------------------------------------

    #[test]
    fn committed_specs_key_the_cache_without_collisions() {
        let specs = [
            klagenfurt_spec().clone(),
            klagenfurt_flap_spec().clone(),
            skopje_spec().clone(),
            megacity_spec().clone(),
        ];
        let hashes: Vec<u64> = specs.iter().map(scenario_content_hash).collect();
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                assert_ne!(
                    hashes[i], hashes[j],
                    "{} and {} must not collide",
                    specs[i].name, specs[j].name
                );
            }
        }

        let mut cache = ScenarioCache::new(8);
        for spec in &specs {
            cache.get_or_compile(spec).expect("compiles");
        }
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (4, 0, 4));
        for spec in &specs {
            cache.get_or_compile(spec).expect("cached");
        }
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (4, 4, 4));
    }

    #[test]
    fn campaign_and_backend_do_not_split_cache_entries() {
        let mut cache = ScenarioCache::new(2);
        let a = cache.get_or_compile(&flat_spec()).expect("compiles");
        let mut other = flat_spec();
        other.campaign.seed = 99;
        other.campaign.passes = 30;
        other.backend = "event".into();
        let b = cache.get_or_compile(&other).expect("cached");
        assert!(Arc::ptr_eq(&a, &b), "seed policy and backend are not compiled state");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn cache_hit_and_cold_compile_return_identical_bytes() {
        let hot = Executor::new();
        let req = ExecRequest::run(flat_spec());
        let cold_json = hot.execute(&req).expect("cold run").to_json();
        let hit_json = hot.execute(&req).expect("hot run").to_json();
        let (hits, misses, len) = hot.cache_stats();
        assert_eq!((hits, misses, len), (1, 1, 1), "second run must hit the cache");
        assert_eq!(cold_json, hit_json);

        let fresh_json = execute(&req).expect("fresh executor").to_json();
        assert_eq!(cold_json, fresh_json);
    }

    /// A thread that panics while holding the cache lock poisons it; the
    /// executor recovers the guard and keeps serving the same bytes, from
    /// the entries cached before the panic.
    #[test]
    fn poisoned_cache_lock_still_serves_identical_bytes() {
        let req = ExecRequest::run(skopje_spec().clone());
        let executor = Executor::new();
        let before = executor.execute(&req).expect("cold run").to_json();
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _guard = executor.cache.lock().expect("unpoisoned before the panic");
                panic!("poisoning the cache lock");
            });
            assert!(poisoner.join().is_err(), "the poisoning thread must panic");
        });
        assert!(executor.cache.is_poisoned());

        let after = executor.execute(&req).expect("run on a poisoned lock").to_json();
        assert_eq!(executor.cache_stats(), (1, 1, 1), "the cached entry must survive");
        assert_eq!(after, before);
        assert_eq!(after, Executor::new().execute(&req).expect("fresh executor").to_json());
    }

    #[test]
    fn cache_evicts_least_recently_used_at_capacity() {
        let mut cache = ScenarioCache::new(2);
        let kla = klagenfurt_spec().clone();
        let flap = klagenfurt_flap_spec().clone();
        let sko = skopje_spec().clone();
        cache.get_or_compile(&kla).expect("kla");
        cache.get_or_compile(&flap).expect("flap");
        cache.get_or_compile(&kla).expect("kla again"); // flap is now LRU
        cache.get_or_compile(&sko).expect("sko evicts flap");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 3);
        cache.get_or_compile(&kla).expect("kla stays");
        assert_eq!(cache.hits(), 2, "klagenfurt must have survived the eviction");
        cache.get_or_compile(&flap).expect("flap recompiles");
        assert_eq!(cache.misses(), 4, "the flap spec must have been evicted");
    }

    // -- facade execution ----------------------------------------------------

    fn tiny_sweep_request() -> ExecRequest {
        let sweep = SweepSpec::from_json(
            r#"{"name": "exec-tiny", "base": "base.json",
                "axes": [{"kind": "override", "path": "$.campaign.sample_interval_s",
                           "values": [2.0, 4.0]}]}"#,
        )
        .expect("parses");
        let base: Value = serde_json::from_str(&flat_spec().to_json()).expect("parses");
        ExecRequest::sweep(sweep, base)
    }

    #[test]
    fn facade_run_matches_run_field_bitwise() {
        let spec = flat_spec();
        let scenario = Scenario::from_spec(&spec).expect("compiles");
        let config = CampaignConfig {
            seed: spec.campaign.seed,
            sample_interval_s: spec.campaign.sample_interval_s,
            passes: spec.campaign.passes,
        };
        let direct = run_field(&scenario, config, ExecBackend::Analytic);
        match execute(&ExecRequest::run(spec)).expect("runs") {
            ExecReport::Run(out) => {
                assert_eq!(field_bits(&direct), field_bits(&out.field));
                assert_eq!(out.report.backend, "analytic");
                assert_eq!(out.report.total_samples, direct.total_samples());
            }
            other => panic!("expected a run report, got {other:?}"),
        }
    }

    #[test]
    fn facade_sweep_matches_sweep_run_bitwise_and_streams_identical_reports() {
        let req = tiny_sweep_request();
        let sweep = build_sweep(&req).expect("builds");
        let direct = sweep.run().expect("runs").report.to_json();

        let exec = Executor::new();
        let mut streamed: Vec<(usize, String)> = Vec::new();
        let report = exec
            .execute_streaming(&req, |r, v| {
                streamed.push((r, serde_json::to_string(v).expect("serialises")));
            })
            .expect("runs");
        let ExecReport::Sweep(run) = &report else { panic!("expected a sweep report") };
        assert_eq!(report.to_json(), direct, "facade and Sweep::run must agree bitwise");

        assert_eq!(
            streamed.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "base plus both variants, in run order"
        );
        let final_reports: Vec<String> = std::iter::once(&run.report.base)
            .chain(&run.report.variants)
            .map(|v| serde_json::to_string(v).expect("serialises"))
            .collect();
        for ((_, streamed_json), final_json) in streamed.iter().zip(&final_reports) {
            assert_eq!(streamed_json, final_json, "streamed bits must equal final bits");
        }
    }

    #[test]
    fn facade_sweep_is_deterministic_across_pool_sizes_and_cache_state() {
        let req = tiny_sweep_request();
        let exec = Executor::new();
        let a = with_thread_count(1, || exec.execute(&req).expect("runs").to_json());
        let b = with_thread_count(4, || exec.execute(&req).expect("runs").to_json());
        let (hits, _, _) = exec.cache_stats();
        assert!(hits > 0, "the second sweep must reuse the cached scenario");
        assert_eq!(a, b);
    }

    #[test]
    fn facade_validate_reports_document_shape() {
        match execute(&ExecRequest::validate_spec(flat_spec())).expect("valid") {
            ExecReport::Valid { kind, name, variants } => {
                assert_eq!((kind, name.as_str(), variants), ("scenario", "klagenfurt", None));
            }
            other => panic!("expected a valid report, got {other:?}"),
        }
        let req = tiny_sweep_request();
        let req = ExecRequest { action: ExecAction::Validate, ..req };
        match execute(&req).expect("valid") {
            ExecReport::Valid { kind, variants, .. } => {
                assert_eq!((kind, variants), ("sweep", Some(2)));
            }
            other => panic!("expected a valid report, got {other:?}"),
        }
        // An over-cap sweep is refused by a validate request, as by an
        // in-memory sweep request: neither has a checkpoint store.
        let mut over_cap = req.clone();
        let seeds = crate::sweep::MAX_VARIANTS as u32 + 1;
        over_cap.sweep.as_mut().expect("sweep").axes =
            vec![crate::sweep::AxisDef::Seeds { start: 0, count: seeds }];
        for action in [ExecAction::Validate, ExecAction::Sweep] {
            let e = execute(&ExecRequest { action, ..over_cap.clone() }).expect_err("over cap");
            assert_eq!(e.path, "$.axes", "{action:?}");
            assert!(e.message.contains("--checkpoint"), "{e}");
        }
    }

    #[test]
    fn facade_run_overrides_apply_before_validation() {
        let mut req = ExecRequest::run(flat_spec());
        req.passes = Some(0);
        let e = execute(&req).expect_err("0 passes is invalid");
        assert!(e.path.contains("passes"), "{}", e.path);
    }
}
