//! The offline workloads: `continental_run` and `event_sweep`. Each is a
//! closed loop with one caller.
//!
//! An untraced operation goes through the facade exactly as `sixg-cli`
//! does: spec file bytes → [`ExecRequest`] → [`Executor::execute`] on a
//! fresh executor → report bytes. A traced operation drives the same inputs
//! stage by stage through each layer's public calls, timing each call, and
//! must reproduce the untraced report bytes bit for bit.

use crate::harness::{Fnv, SplitMix};
use crate::trace::Tracer;
use rayon::prelude::*;
use serde::Value;
use sixg_core::requirements::ApplicationClass;
use sixg_measure::aggregate::CellField;
use sixg_measure::campaign::{CampaignConfig, MobileCampaign, Shard};
use sixg_measure::event_backend::EventCampaign;
use sixg_measure::exec::{scenario_content_hash, ExecReport, ExecRequest, Executor, RunReport};
use sixg_measure::faults::{FaultCampaign, FaultShard};
use sixg_measure::hvt::{self, HvtConfig};
use sixg_measure::report::CellSummary;
use sixg_measure::scenario::{KeyScheme, Scenario};
use sixg_measure::spec::{parse_backend, ExecBackend, ScenarioSpec};
use sixg_measure::store::fnv1a64;
use sixg_measure::sweep::{AxisDef, Sweep, SweepReport, SweepSpec, VariantReport};
use sixg_netsim::radio::FiveGAccess;
use sixg_netsim::routing::PathComputer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Work items sampled per round before folding: the round size of the
/// library's streaming runner, so the traced path batches like it.
const ROUND: usize = 1024;

/// The seed whose outputs are pinned by the committed reference file.
pub const DEFAULT_SEED: u64 = 0;

type Res<T> = Result<T, String>;

fn read(path: &Path) -> Res<String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// The requirement `sixg-cli run` derives from a spec's reference class.
pub fn requirement_for(spec: &ScenarioSpec) -> Res<f64> {
    let name = &spec.workloads.reference_class;
    ApplicationClass::ALL
        .into_iter()
        .find(|c| format!("{c:?}") == *name)
        .map(|c| c.profile().max_rtl_ms)
        .ok_or_else(|| format!("unknown reference class {name:?}"))
}

/// The fingerprints of one operation's outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// FNV-1a of each report's bytes, in operation order.
    pub reports: Vec<u64>,
    /// FNV-1a over every run's per-cell (count, mean, σ) bits.
    pub fields: u64,
}

/// What an operation produced besides its fingerprints.
#[derive(Debug, Clone)]
pub struct OpOut {
    /// Output fingerprints.
    pub output: Output,
    /// Samples folded.
    pub samples: u64,
    /// Report bytes produced.
    pub report_bytes: usize,
}

/// Folds every cell's (count, mean bits, σ bits), row-major, into a running
/// FNV-1a, one cell at a time.
fn field_digest(fields: &[&CellField]) -> u64 {
    let mut h = Fnv::default();
    for f in fields {
        for cell in f.grid().cells() {
            let s = f.stats(cell);
            h.write(&s.count.to_le_bytes());
            h.write(&s.mean_ms.to_bits().to_le_bytes());
            h.write(&s.std_ms.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// A run workload's input: a spec file plus seed overrides.
#[derive(Debug, Clone)]
pub struct RunInput {
    /// The spec file.
    pub path: PathBuf,
    /// Scenario-seed override (`None` at the default seed).
    pub seed: Option<u64>,
    /// Campaign-seed override (`None` at the default seed).
    pub campaign_seed: Option<u64>,
}

impl RunInput {
    /// The input of workload seed `seed` over `path`.
    pub fn new(path: PathBuf, seed: u64) -> Self {
        if seed == DEFAULT_SEED {
            return Self { path, seed: None, campaign_seed: None };
        }
        let mut rng = SplitMix::new(seed);
        Self { path, seed: Some(rng.next_u64()), campaign_seed: Some(rng.next_u64() >> 1) }
    }

    fn request(&self, spec: ScenarioSpec) -> Res<ExecRequest> {
        let requirement = requirement_for(&spec)?;
        let mut req = ExecRequest::run(spec);
        req.requirement_ms = Some(requirement);
        req.seed = self.seed;
        req.campaign_seed = self.campaign_seed;
        Ok(req)
    }
}

/// One sweep of the `event_sweep` workload.
#[derive(Debug, Clone)]
pub struct SweepInput {
    /// The sweep file.
    pub path: PathBuf,
    /// Keep only the seeds axis and one-value axes (the E23 slice).
    pub seeds_only: bool,
    /// Seeds-axis start override (`None` at the default seed).
    pub seeds_start: Option<u64>,
}

impl SweepInput {
    /// The E20 cadence sweep and the E23 seed slice for workload seed `seed`.
    pub fn event_sweep(root: &Path, seed: u64) -> Vec<Self> {
        let start =
            (seed != DEFAULT_SEED).then(|| 1 + SplitMix::new(seed).next_u64() % 1_000_000_000);
        let dir = root.join("specs/sweeps");
        vec![
            Self {
                path: dir.join("klagenfurt_cadence.json"),
                seeds_only: false,
                seeds_start: start,
            },
            Self { path: dir.join("mega_klagenfurt.json"), seeds_only: true, seeds_start: start },
        ]
    }

    fn read(&self) -> Res<(String, String)> {
        let text = read(&self.path)?;
        // The base reference is a path relative to the sweep file.
        let base = SweepSpec::from_json(&text).map_err(|e| e.to_string())?.base;
        let dir = self.path.parent().unwrap_or(Path::new("."));
        Ok((text, read(&dir.join(base))?))
    }

    fn parse(&self, text: &str, base: &str) -> Res<(SweepSpec, Value)> {
        let mut spec = SweepSpec::from_json(text).map_err(|e| e.to_string())?;
        if self.seeds_only {
            // One-value axes (E23's fixed pass count) multiply nothing and
            // keep every variant as E23 runs it; the rest go.
            spec.axes.retain(|a| matches!(a, AxisDef::Seeds { .. }) || a.len() == 1);
        }
        if let Some(s) = self.seeds_start {
            for axis in &mut spec.axes {
                if let AxisDef::Seeds { start, .. } = axis {
                    *start = s;
                }
            }
        }
        let base = serde_json::from_str(base).map_err(|e| format!("base spec: {e}"))?;
        Ok((spec, base))
    }
}

// ---------------------------------------------------------------------------
// Untraced operations.
// ---------------------------------------------------------------------------

/// One run-workload (`continental_run`) operation, timed from reading
/// the spec file to holding the report bytes; the outputs are fingerprinted
/// after the clock stops.
pub fn run_op(input: &RunInput) -> Res<(Duration, OpOut)> {
    let t0 = Instant::now();
    let text = read(&input.path)?;
    let spec = ScenarioSpec::from_json(&text).map_err(|e| e.to_string())?;
    let req = input.request(spec)?;
    let report = Executor::new().execute(&req).map_err(|e| e.to_string())?;
    let bytes = report.to_json();
    let wall = t0.elapsed();
    let ExecReport::Run(out) = &report else { return Err("expected a run report".into()) };
    let output =
        Output { reports: vec![fnv1a64(bytes.as_bytes())], fields: field_digest(&[&out.field]) };
    Ok((wall, OpOut { output, samples: out.report.total_samples, report_bytes: bytes.len() }))
}

/// One `event_sweep` operation: every sweep of `inputs`, in order, timed
/// like [`run_op`].
pub fn sweep_op(inputs: &[SweepInput]) -> Res<(Duration, OpOut)> {
    let t0 = Instant::now();
    let mut done = Vec::new();
    for input in inputs {
        let (text, base) = input.read()?;
        let (spec, base) = input.parse(&text, &base)?;
        let report =
            Executor::new().execute(&ExecRequest::sweep(spec, base)).map_err(|e| e.to_string())?;
        let bytes = report.to_json();
        done.push((report, bytes));
    }
    let wall = t0.elapsed();
    let mut out =
        OpOut { output: Output { reports: Vec::new(), fields: 0 }, samples: 0, report_bytes: 0 };
    let mut digests = Vec::new();
    for (report, bytes) in &done {
        let ExecReport::Sweep(run) = report else { return Err("expected a sweep report".into()) };
        let mut fields = vec![&run.base_field];
        fields.extend(&run.variant_fields);
        digests.push(field_digest(&fields));
        out.samples += run.report.base.total_samples
            + run.report.variants.iter().map(|v| v.total_samples).sum::<u64>();
        out.report_bytes += bytes.len();
        out.output.reports.push(fnv1a64(bytes.as_bytes()));
    }
    out.output.fields = fnv1a64(&digests.iter().flat_map(|d| d.to_le_bytes()).collect::<Vec<_>>());
    Ok((wall, out))
}

// ---------------------------------------------------------------------------
// The traced path.
// ---------------------------------------------------------------------------

/// Layer counts of one traced operation.
#[derive(Debug, Default, Clone)]
pub struct Counts {
    /// Named counts (`"campaign.samples"`, …).
    pub by_name: BTreeMap<&'static str, f64>,
}

impl Counts {
    fn add(&mut self, name: &'static str, n: f64) {
        *self.by_name.entry(name).or_insert(0.0) += n;
    }

    /// The count under `name`, 0 when the layer did not run.
    pub fn get(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }
}

/// A campaign runner of either backend.
enum Runner<'a> {
    Analytic(MobileCampaign<'a>),
    Event(EventCampaign<'a>),
    Faulted(FaultCampaign<'a>),
}

/// A runner's work list: shards, with start offsets for fault campaigns.
enum Work {
    Plain(Vec<Shard>),
    Fault(Vec<FaultShard>),
}

impl Work {
    fn len(&self) -> usize {
        match self {
            Work::Plain(v) => v.len(),
            Work::Fault(v) => v.len(),
        }
    }

    fn shard(&self, i: usize) -> Shard {
        match self {
            Work::Plain(v) => v[i],
            Work::Fault(v) => v[i].shard,
        }
    }
}

impl<'a> Runner<'a> {
    /// The runner the facade dispatches to: a fault schedule puts an event
    /// run on the live control plane.
    fn new(scenario: &'a Scenario, config: CampaignConfig, backend: ExecBackend) -> Self {
        match backend {
            ExecBackend::Analytic => Runner::Analytic(MobileCampaign::new(scenario, config)),
            ExecBackend::Event if scenario.spec.faults.is_empty() => {
                Runner::Event(EventCampaign::new(scenario, config))
            }
            ExecBackend::Event => Runner::Faulted(FaultCampaign::new(scenario, config)),
        }
    }

    fn work(&self) -> Work {
        match self {
            Runner::Analytic(c) => Work::Plain(c.shards()),
            Runner::Event(c) => Work::Plain(c.shards()),
            Runner::Faulted(c) => Work::Fault(c.shards()),
        }
    }

    /// The span (and count prefix) of this runner's sampling layer.
    fn layer(&self) -> (&'static str, &'static str) {
        match self {
            Runner::Analytic(_) => ("campaign.sample", "campaign.samples"),
            Runner::Event(_) => ("event_backend.sample", "event_backend.samples"),
            Runner::Faulted(_) => ("faults.sample", "faults.samples"),
        }
    }

    fn collect(&self, work: &Work, i: usize, buf: &mut Vec<f64>) {
        match (self, work) {
            (Runner::Analytic(c), Work::Plain(v)) => c.collect_shard_into(v[i], buf),
            (Runner::Event(c), Work::Plain(v)) => c.collect_shard_into(v[i], buf),
            (Runner::Faulted(c), Work::Fault(v)) => c.collect_shard_into(v[i], buf),
            _ => unreachable!("a work list comes from its own runner"),
        }
    }
}

/// Samples every run's work list on the pool in rounds and folds each
/// round in run-major work-list order — the library runner's accumulation
/// order, so the fields are bit-identical to an untraced run's. Each
/// round's sampling is split at backend changes so every span times one
/// layer.
fn sample_and_fold(t: &mut Tracer, runners: &[Runner], fields: &mut [CellField], n: &mut Counts) {
    let works: Vec<Work> = t.span("campaign.plan", || runners.iter().map(Runner::work).collect());
    n.add("campaign.shards", works.iter().map(|w| w.len() as f64).sum());
    // (run, index in its work list, sample buffer)
    let mut slots: Vec<(usize, usize, Vec<f64>)> = Vec::new();
    let mut cursor = (0usize, 0usize);
    loop {
        let mut len = 0;
        while len < ROUND && cursor.0 < works.len() {
            if cursor.1 == works[cursor.0].len() {
                cursor = (cursor.0 + 1, 0);
                continue;
            }
            if slots.len() == len {
                slots.push((0, 0, Vec::new()));
            }
            (slots[len].0, slots[len].1) = cursor;
            cursor.1 += 1;
            len += 1;
        }
        if len == 0 {
            break;
        }
        let round = &mut slots[..len];
        let mut start = 0;
        while start < len {
            let layer = runners[round[start].0].layer();
            let end = (start..len).find(|&i| runners[round[i].0].layer() != layer).unwrap_or(len);
            t.span(layer.0, || {
                round[start..end].par_iter_mut().for_each(|(r, i, buf)| {
                    runners[*r].collect(&works[*r], *i, buf);
                });
            });
            n.add(layer.1, round[start..end].iter().map(|s| s.2.len() as f64).sum());
            start = end;
        }
        t.span("aggregate.fold", || {
            for (r, i, buf) in round.iter() {
                let cell = works[*r].shard(*i).cell;
                let field = &mut fields[*r];
                for &v in buf {
                    field.push(cell, v);
                }
            }
        });
    }
}

/// What the routing and calibration probes recomputed, for comparison
/// with the compiled scenario once the spans are closed.
struct ProbeOut {
    routes: Vec<((sixg_geo::CellId, usize), sixg_netsim::routing::RoutedPath)>,
    calibration: Vec<(sixg_geo::CellId, f64, f64)>,
}

/// Compiles `spec` inside a `scenario.compile` span, re-running its
/// routing and calibration through their public calls as probes (legacy
/// key scheme only; wide grids compile neither).
fn compile(t: &mut Tracer, spec: &ScenarioSpec, n: &mut Counts) -> Res<Scenario> {
    let (scenario, probes) = t.span_with("scenario.compile", |t| -> Res<_> {
        let s = Scenario::from_spec(spec).map_err(|e| e.to_string())?;
        if s.key_scheme != KeyScheme::Legacy {
            return Ok((s, None));
        }
        let routes = t.probe("scenario.routes", || -> Res<_> {
            let pc = PathComputer::new(&s.topo, &s.as_graph);
            let targets = s.measurement_targets();
            let mut out = Vec::with_capacity(s.ue.len() * targets.len());
            for (&cell, &ue) in &s.ue {
                for (ti, &target) in targets.iter().enumerate() {
                    let path = pc.route(ue, target).ok_or(format!("no route from {cell}"))?;
                    out.push(((cell, ti), path));
                }
            }
            Ok(out)
        })?;
        let samples = s.spec.calibration.samples as usize;
        let calibration = t.probe("scenario.calibrate", || {
            s.included
                .iter()
                .map(|&cell| {
                    let (mean, var) = s.wire_rtt_stats(cell, samples);
                    (cell, mean, var)
                })
                .collect::<Vec<_>>()
        });
        Ok((s, Some(ProbeOut { routes, calibration })))
    })?;
    if let Some(p) = probes {
        check_probes(&scenario, &p)?;
        n.add("scenario.routes", p.routes.len() as f64);
        let per_cell = scenario.spec.calibration.samples as f64;
        n.add("scenario.calibrate_samples", p.calibration.len() as f64 * per_cell);
    }
    Ok(scenario)
}

/// The probes must have redone exactly the compile's work: the same routes,
/// and wire statistics that fit the same access models.
fn check_probes(s: &Scenario, p: &ProbeOut) -> Res<()> {
    if p.routes.len() != s.routes.len()
        || p.routes.iter().any(|(k, path)| s.routes.get(k) != Some(path))
    {
        return Err(format!("{}: the routing probe found other routes", s.name));
    }
    for &(cell, wire_mean, wire_var) in &p.calibration {
        let mean = (s.targets.mean_of(cell) - wire_mean).max(1.0);
        let std = s.targets.std_of(cell);
        let var = (std * std - wire_var).max(0.01);
        if s.access.get(&cell) != Some(&FiveGAccess::fit(mean, var.sqrt())) {
            return Err(format!("{}: the calibration probe fits {cell} differently", s.name));
        }
    }
    Ok(())
}

fn summaries(field: &CellField) -> Vec<CellSummary> {
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
}

fn extrema(field: &CellField) -> (f64, f64, f64, f64) {
    let (mean_min, mean_max) =
        field.mean_extrema().map_or((0.0, 0.0), |(a, b)| (a.mean_ms, b.mean_ms));
    let (std_min, std_max) = field.std_extrema().map_or((0.0, 0.0), |(a, b)| (a.std_ms, b.std_ms));
    (mean_min, mean_max, std_min, std_max)
}

/// A traced operation's output fingerprints and per-layer counts.
pub struct Traced {
    /// Output fingerprints (compared with the untraced operation's).
    pub output: Output,
    /// Layer counts.
    pub counts: Counts,
}

/// One traced run-workload (`continental_run`) operation.
pub fn traced_run_op(t: &mut Tracer, input: &RunInput) -> Res<Traced> {
    let mut n = Counts::default();
    let (report, fields) = t.span_with("op", |t| -> Res<_> {
        let text = t.span("io.read", || read(&input.path))?;
        let spec =
            t.span("spec.parse", || ScenarioSpec::from_json(&text)).map_err(|e| e.to_string())?;
        let req = input.request(spec)?;
        let requirement = req.requirement_ms.expect("set by request()");
        // The facade validates the envelope, applies the overrides, and
        // validates the resulting spec.
        let spec = t.span("spec.validate", || -> Res<ScenarioSpec> {
            req.validate().map_err(|e| e.to_string())?;
            let spec = with_overrides(&req);
            match spec.validate().into_iter().next() {
                Some(e) => Err(e.to_string()),
                None => Ok(spec),
            }
        })?;
        t.span("exec.cache_key", || scenario_content_hash(&spec));
        let scenario = compile(t, &spec, &mut n)?;
        let backend = parse_backend(&spec.backend)?;
        let config = config_of(&spec);
        let runners = [Runner::new(&scenario, config, backend)];
        let mut fields = [CellField::new(scenario.grid.clone())];
        sample_and_fold(t, &runners, &mut fields, &mut n);
        let field = &fields[0];
        let wide = KeyScheme::for_grid(field.grid()) == KeyScheme::Wide;
        let super_cells = wide.then(|| {
            t.span("hvt.build", || {
                hvt::build(field, &HvtConfig::for_grid(field.grid(), requirement))
            })
        });
        if let Some(h) = &super_cells {
            n.add("hvt.super_cells", h.tiles.iter().map(|t| t.super_cells.len() as f64).sum());
        }
        let report = t.span("exec.report", || {
            let grand_mean_ms = field.grand_mean_ms();
            let (mean_min_ms, mean_max_ms, std_min_ms, std_max_ms) = extrema(field);
            RunReport {
                scenario: spec.name.clone(),
                backend: backend.to_string(),
                scenario_seed: spec.seed,
                seed: config.seed,
                passes: config.passes,
                sample_interval_s: config.sample_interval_s,
                requirement_ms: requirement,
                total_samples: field.total_samples(),
                grand_mean_ms,
                mean_min_ms,
                mean_max_ms,
                std_min_ms,
                std_max_ms,
                exceedance_pct: (grand_mean_ms - requirement) / requirement * 100.0,
                cells: if wide { Vec::new() } else { summaries(field) },
                super_cells,
            }
        });
        let bytes = t.span("exec.serialise", || report.to_json());
        n.add("exec.report_bytes", bytes.len() as f64);
        Ok((bytes, fields))
    })?;
    let output =
        Output { reports: vec![fnv1a64(report.as_bytes())], fields: field_digest(&[&fields[0]]) };
    Ok(Traced { output, counts: n })
}

/// One run of a traced sweep: its spec, backend, configuration and labels.
struct PlannedRun {
    spec: ScenarioSpec,
    backend: ExecBackend,
    config: CampaignConfig,
    label: String,
    settings: Vec<String>,
    scenario: usize,
}

/// One traced `event_sweep` operation.
pub fn traced_sweep_op(t: &mut Tracer, inputs: &[SweepInput]) -> Res<Traced> {
    let mut n = Counts::default();
    let mut done = Vec::new();
    t.span_with("op", |t| -> Res<()> {
        for input in inputs {
            let (text, base) = t.span("io.read", || input.read())?;
            let (spec, base) = t.span("spec.parse", || input.parse(&text, &base))?;
            let req = ExecRequest::sweep(spec, base);
            t.span("spec.validate", || req.validate()).map_err(|e| e.to_string())?;
            // Expansion and planning: the matrix, then compile dedup on the
            // canonical spec (campaign and backend cleared).
            let (sweep, mut runs, canon) = t.span("sweep.expand", || -> Res<_> {
                let base_json = serde_json::to_string(req.base.as_ref().expect("sweep base"))
                    .map_err(|e| e.to_string())?;
                let sweep = Sweep::new(req.sweep.clone().expect("sweep spec"), &base_json)
                    .map_err(|e| e.to_string())?;
                let base = &sweep.base;
                let mut runs = vec![PlannedRun {
                    spec: base.clone(),
                    backend: parse_backend(&base.backend)?,
                    config: config_of(base),
                    label: "base".into(),
                    settings: Vec::new(),
                    scenario: 0,
                }];
                for v in sweep.variants().map_err(|e| e.to_string())? {
                    runs.push(PlannedRun {
                        spec: v.spec,
                        backend: v.backend,
                        config: v.config,
                        label: v.label,
                        settings: v.settings,
                        scenario: 0,
                    });
                }
                // (canonical key, first run with it)
                let mut canon: Vec<(ScenarioSpec, usize)> = Vec::new();
                for (i, run) in runs.iter_mut().enumerate() {
                    let mut key = run.spec.clone();
                    key.campaign = Default::default();
                    key.backend = "analytic".into();
                    run.scenario = canon.iter().position(|(k, _)| *k == key).unwrap_or_else(|| {
                        canon.push((key, i));
                        canon.len() - 1
                    });
                }
                Ok((sweep, runs, canon))
            })?;
            let mut scenarios = Vec::with_capacity(canon.len());
            for &(_, first) in &canon {
                scenarios.push(compile(t, &runs[first].spec, &mut n)?);
            }
            n.add("sweep.runs", runs.len() as f64);
            n.add("sweep.compiles", canon.len() as f64);
            let runners: Vec<Runner> = runs
                .iter()
                .map(|r| Runner::new(&scenarios[r.scenario], r.config, r.backend))
                .collect();
            let mut fields: Vec<CellField> =
                runs.iter().map(|r| CellField::new(scenarios[r.scenario].grid.clone())).collect();
            sample_and_fold(t, &runners, &mut fields, &mut n);
            let requirement = sweep.spec.requirement_ms;
            let report = t.span("exec.report", || {
                let mut base_ref = None;
                let mut variants: Vec<VariantReport> = runs
                    .iter_mut()
                    .zip(&fields)
                    .map(|(run, field)| {
                        let v = variant_report(run, field, requirement, base_ref);
                        base_ref.get_or_insert((v.grand_mean_ms, v.exceedance_pct));
                        v
                    })
                    .collect();
                let base = variants.remove(0);
                SweepReport {
                    sweep: sweep.spec.name.clone(),
                    base_spec: sweep.base.name.clone(),
                    requirement_ms: requirement,
                    variant_count: variants.len(),
                    base,
                    variants,
                }
            });
            let bytes = t.span("exec.serialise", || report.to_json());
            n.add("exec.report_bytes", bytes.len() as f64);
            done.push((bytes, fields));
        }
        Ok(())
    })?;
    let reports = done.iter().map(|(bytes, _)| fnv1a64(bytes.as_bytes())).collect();
    let digests: Vec<u8> = done
        .iter()
        .flat_map(|(_, fields)| field_digest(&fields.iter().collect::<Vec<_>>()).to_le_bytes())
        .collect();
    Ok(Traced { output: Output { reports, fields: fnv1a64(&digests) }, counts: n })
}

/// A variant's report, field for field as the sweep runner builds it.
fn variant_report(
    run: &mut PlannedRun,
    field: &CellField,
    requirement_ms: f64,
    base: Option<(f64, f64)>,
) -> VariantReport {
    let grand_mean_ms = field.grand_mean_ms();
    let exceedance_pct = (grand_mean_ms - requirement_ms) / requirement_ms * 100.0;
    let (mean_min_ms, mean_max_ms, std_min_ms, std_max_ms) = extrema(field);
    let (base_gm, base_ex) = base.unwrap_or((grand_mean_ms, exceedance_pct));
    VariantReport {
        label: std::mem::take(&mut run.label),
        settings: std::mem::take(&mut run.settings),
        backend: run.backend.to_string(),
        seed: run.config.seed,
        passes: run.config.passes,
        sample_interval_s: run.config.sample_interval_s,
        total_samples: field.total_samples(),
        grand_mean_ms,
        mean_min_ms,
        mean_max_ms,
        std_min_ms,
        std_max_ms,
        exceedance_pct,
        delta_grand_mean_ms: grand_mean_ms - base_gm,
        delta_exceedance_pct: exceedance_pct - base_ex,
        cells: summaries(field),
    }
}

/// `scenario_content_hash`-distinct specs ÷ runs of the sweeps in `inputs`.
pub fn compile_ratio(inputs: &[SweepInput]) -> Res<(f64, f64)> {
    let (mut runs, mut distinct) = (0usize, 0usize);
    for input in inputs {
        let (text, base) = input.read()?;
        let (spec, base) = input.parse(&text, &base)?;
        let base_json = serde_json::to_string(&base).map_err(|e| e.to_string())?;
        let sweep = Sweep::new(spec, &base_json).map_err(|e| e.to_string())?;
        let mut hashes = vec![scenario_content_hash(&sweep.base)];
        for v in sweep.variants().map_err(|e| e.to_string())? {
            hashes.push(scenario_content_hash(&v.spec));
        }
        runs += hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        distinct += hashes.len();
    }
    Ok((distinct as f64, runs as f64))
}

/// Compiles the spec of `input` once, for the pool-size comparison.
pub fn compile_for_speedup(input: &RunInput) -> Res<(Scenario, CampaignConfig, ExecBackend)> {
    let spec = ScenarioSpec::from_json(&read(&input.path)?).map_err(|e| e.to_string())?;
    let spec = with_overrides(&input.request(spec)?);
    let scenario = Scenario::from_spec(&spec).map_err(|e| e.to_string())?;
    Ok((scenario, config_of(&spec), parse_backend(&spec.backend)?))
}

/// A run request's spec with its seed overrides applied, as the facade
/// applies them.
fn with_overrides(req: &ExecRequest) -> ScenarioSpec {
    let mut spec = req.spec.clone().expect("a run request has a spec");
    if let Some(s) = req.seed {
        spec.seed = s;
    }
    if let Some(s) = req.campaign_seed {
        spec.campaign.seed = s;
    }
    spec
}

/// The campaign configuration of a spec's seed policy.
fn config_of(spec: &ScenarioSpec) -> CampaignConfig {
    CampaignConfig {
        seed: spec.campaign.seed,
        sample_interval_s: spec.campaign.sample_interval_s,
        passes: spec.campaign.passes,
    }
}
