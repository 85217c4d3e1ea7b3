//! `sixg-perfbench`: the repository benchmark.
//!
//! ```text
//! sixg-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (it reads `specs/`). Workloads:
//! `continental_run`, `event_sweep`, `serve_mix`. With `--trace 0` the run
//! measures the end-to-end metrics untraced; with `--trace 1` it measures
//! the per-layer metrics from a traced run, which also reports the median
//! latency of its untraced operations. The last line of standard output is
//! the JSON result; `--out DIR` also writes the full record (and the spans
//! of a traced run) there. The
//! `serve_mix` run re-runs this binary with `--setup-only` to time each
//! set-up in a process of its own. See `perfbench/README.md` for every
//! metric's definition.

mod harness;
mod offline;
mod serve_mix;
mod trace;

use harness::{median, ms, reported_percentile, Expect, Got, Metrics, Tally};
use offline::{OpOut, Output, RunInput, SweepInput, DEFAULT_SEED};
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicUsize;
use std::time::{Duration, Instant};
use trace::{breakdown, OpBreakdown, Tracer};

/// The workloads and metrics `BENCHMARK.json` names: what a run may be
/// asked for and what it prints.
struct Catalogue {
    workloads: Vec<String>,
    /// `(name, unit)` of every end-to-end metric, printed by untraced runs.
    end_to_end: Vec<(String, String)>,
    /// `(name, unit)` of every per-layer metric, printed by traced runs.
    per_layer: Vec<(String, String)>,
}

impl Catalogue {
    fn load(root: &Path) -> Res<Self> {
        let path = root.join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str, field: &str| -> Res<Vec<(String, String)>> {
            let entries = v.get(key).and_then(Value::as_array).ok_or(format!("no {key} list"))?;
            entries
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Value::as_str).map(str::to_string);
                    match (s("name"), s(field)) {
                        (Some(n), Some(u)) => Ok((n, u)),
                        _ => Err(format!("an entry of {key} lacks name or {field}")),
                    }
                })
                .collect()
        };
        Ok(Self {
            workloads: list("workloads", "why")?.into_iter().map(|(n, _)| n).collect(),
            end_to_end: list("end_to_end", "unit")?,
            per_layer: list("per_layer", "unit")?,
        })
    }
}

/// Layers whose per-operation self time is a per-layer metric (compile is
/// reported whole, see [`layer_metrics`]).
const LAYER_TIMES: [(&str, &str); 17] = [
    ("io.read_ms", "io.read"),
    ("spec.parse_ms", "spec.parse"),
    ("spec.validate_ms", "spec.validate"),
    ("exec.cache_key_ms", "exec.cache_key"),
    ("scenario.routes_ms", "scenario.routes"),
    ("scenario.calibrate_ms", "scenario.calibrate"),
    ("campaign.plan_ms", "campaign.plan"),
    ("campaign.sample_ms", "campaign.sample"),
    ("event_backend.sample_ms", "event_backend.sample"),
    ("faults.sample_ms", "faults.sample"),
    ("aggregate.fold_ms", "aggregate.fold"),
    ("hvt.build_ms", "hvt.build"),
    ("exec.report_ms", "exec.report"),
    ("exec.serialise_ms", "exec.serialise"),
    ("sweep.expand_ms", "sweep.expand"),
    ("wire.write_ms", "wire.write"),
    ("wire.read_ms", "wire.read"),
];

/// Operations each timed loop completes at least, however short the run.
const MIN_OPS: usize = 3;

/// Set-ups per untraced `serve_mix` run, each in a child process of its
/// own; the median is reported.
const SETUP_REPS: usize = 5;

/// Set-ups per untraced offline run; the median is reported.
const OFFLINE_SETUP_REPS: usize = 3;

/// Repetitions of each pool size in the speed-up measurement.
const SPEEDUP_REPS: usize = 3;

/// The median-latency metrics. Each belongs to one kind of workload
/// (`run_ms_p50` to run workloads, `sweep_ms_p50` to `event_sweep`,
/// `req_ms_p50` to `serve_mix`); all three carry the same measured median,
/// so every run prints every metric it names. They are per-layer metrics of
/// the traced run, taken over its untraced operations: a median flips
/// between the host's speed phases, which a run cannot average out (see
/// `perfbench/README.md`).
const LATENCY_P50: [&str; 3] = ["run_ms_p50", "sweep_ms_p50", "req_ms_p50"];

type Res<T> = Result<T, String>;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    record_reference: bool,
    /// Only time one `serve_mix` set-up and print it (the child process of
    /// [`child_setups`]).
    setup_only: bool,
}

fn parse_args() -> Res<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| argv.iter().position(|a| a == name).and_then(|i| argv.get(i + 1));
    let need = |name: &str| flag(name).ok_or(format!("missing {name}"));
    let workload = need("--workload")?.clone();
    let seconds: f64 = need("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: need("--seed")?.parse().map_err(|_| "--seed takes an unsigned integer")?,
        seconds,
        trace: match need("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        out: flag("--out").map(PathBuf::from),
        record_reference: argv.iter().any(|a| a == "--record-reference"),
        setup_only: argv.iter().any(|a| a == "--setup-only"),
    })
}

/// Everything a run reports.
struct RunResult {
    metrics: Metrics,
    /// Checked operations; any failure makes the run incorrect.
    tally: Tally,
    /// Sample counts and other context, printed beside the metrics.
    detail: Vec<(String, Value)>,
    spans: Option<Vec<trace::Span>>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sixg-perfbench: {e}");
            eprintln!(
                "usage: sixg-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]"
            );
            std::process::exit(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("sixg-perfbench: refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
    let root = std::env::current_dir().expect("a current directory");
    if !root.join("specs/klagenfurt.json").is_file() {
        eprintln!("sixg-perfbench: run from the repository root (specs/ not found)");
        std::process::exit(2);
    }
    let catalogue = match Catalogue::load(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sixg-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !catalogue.workloads.contains(&args.workload) {
        eprintln!(
            "sixg-perfbench: unknown workload {:?} (one of {})",
            args.workload,
            catalogue.workloads.join(", ")
        );
        std::process::exit(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if args.setup_only {
        let probe = rayon::with_thread_count(nproc, || setup_probe(&args, &root, nproc));
        match probe {
            Ok(line) => {
                println!("{line}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("sixg-perfbench: set-up: {e}");
                std::process::exit(1);
            }
        }
    }
    let (pool, result) = rayon::with_thread_count(nproc, || {
        (rayon::current_num_threads(), run(&args, &root, &catalogue, nproc))
    });
    let mut result = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sixg-perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    result.metrics.insert("peak_rss_mb", peak_rss_mib());
    if args.trace {
        result.metrics.insert("fail_ratio", result.tally.fail_ratio());
    }
    let names = if args.trace { &catalogue.per_layer } else { &catalogue.end_to_end };
    let mut metrics: Vec<(String, Value)> = Vec::new();
    for (name, unit) in names {
        // A layer that does not run on the workload reports 0; an
        // end-to-end metric is measured on every workload.
        let value = match result.metrics.get(name.as_str()) {
            Some(v) if v.is_finite() => *v,
            _ if args.trace => 0.0,
            _ => {
                eprintln!("sixg-perfbench: {}: no value for {name}", args.workload);
                std::process::exit(1);
            }
        };
        metrics.push((
            name.clone(),
            obj(vec![("value", Value::F64(value)), ("unit", text_value(unit))]),
        ));
    }
    let env = obj(vec![
        ("workload", text_value(&args.workload)),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::F64(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("nproc", Value::U64(nproc as u64)),
        ("rayon_pool", Value::U64(pool as u64)),
        ("commit", env_or("PERFBENCH_COMMIT", "unknown")),
        ("profile", text_value("release")),
    ]);
    let detail = Value::Object(result.detail);
    let line = obj(vec![
        ("correct", Value::Bool(result.tally.failed == 0)),
        ("attempted", Value::U64(result.tally.attempted)),
        ("failed", Value::U64(result.tally.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    let text = |v: &Value| serde_json::to_string(v).expect("values serialise");
    println!("env {}", text(&env));
    println!("detail {}", text(&detail));
    if let Some(dir) = &args.out {
        let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
        let record = obj(vec![("env", env), ("detail", detail), ("result", line.clone())]);
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(dir.join(format!("{stem}.json")), text(&record)))
            .and_then(|_| match &result.spans {
                Some(spans) => std::fs::write(
                    dir.join(format!("{stem}.spans.jsonl")),
                    trace::to_json_lines(spans),
                ),
                None => Ok(()),
            });
        if let Err(e) = written {
            eprintln!("sixg-perfbench: cannot write the record to {}: {e}", dir.display());
        }
    }
    println!("{}", text(&line));
    std::process::exit(if result.tally.failed == 0 { 0 } else { 1 });
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn text_value(s: &str) -> Value {
    Value::String(s.to_string())
}

fn env_or(name: &str, default: &str) -> Value {
    Value::String(std::env::var(name).unwrap_or_else(|_| default.to_string()))
}

/// Resets this process's peak resident set to its current resident set, so
/// that `peak_rss_mb` covers only what follows. False when the kernel
/// refuses (the peak then covers set-up as well).
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn run(args: &Args, root: &Path, catalogue: &Catalogue, nproc: usize) -> Res<RunResult> {
    let site = match args.workload.as_str() {
        "serve_mix" => return serve(args, root, catalogue, nproc),
        "event_sweep" => {
            let inputs = SweepInput::event_sweep(root, args.seed);
            return offline_workload(args, root, catalogue, nproc, &Offline::Sweep(inputs));
        }
        "continental_run" => "continental",
        other => return Err(format!("no such workload in this benchmark: {other}")),
    };
    let input = RunInput::new(root.join(format!("specs/{site}.json")), args.seed);
    offline_workload(args, root, catalogue, nproc, &Offline::Run(input))
}

// ---------------------------------------------------------------------------
// Reference fingerprints of the default seed.
// ---------------------------------------------------------------------------

const REFERENCE_FILE: &str = "perfbench/reference.json";

fn hex(x: u64) -> Value {
    Value::String(format!("{x:016x}"))
}

/// The committed reference of `workload`, if the file has one.
fn committed(root: &Path, workload: &str) -> Res<Option<Value>> {
    let path = root.join(REFERENCE_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let all = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(all.get(workload).cloned())
}

/// Writes `value` as the reference of `workload`, keeping the others.
fn record_reference(root: &Path, workloads: &[String], workload: &str, value: Value) -> Res<()> {
    let path = root.join(REFERENCE_FILE);
    let mut pairs = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| serde_json::from_str(&t).ok())
        .and_then(|v: Value| v.as_object().map(<[_]>::to_vec))
        .unwrap_or_default();
    pairs.retain(|(k, _)| k != workload && k != "seed");
    pairs.insert(0, ("seed".into(), Value::U64(DEFAULT_SEED)));
    pairs.push((workload.to_string(), value));
    pairs.sort_by_key(|(k, _)| workloads.iter().position(|w| w == k));
    let text = serde_json::to_string_pretty(&Value::Object(pairs)).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// At the default seed, the in-process reference must equal the committed
/// fingerprints (re-recorded first with `--record-reference`); other seeds
/// rely on the in-process reference alone.
fn check_committed(
    args: &Args,
    root: &Path,
    catalogue: &Catalogue,
    reference: Value,
    tally: &mut Tally,
    detail: &mut Vec<(String, Value)>,
) -> Res<()> {
    if args.seed != DEFAULT_SEED {
        detail.push(("reference".into(), text_value("in-process")));
        return Ok(());
    }
    if args.record_reference {
        record_reference(root, &catalogue.workloads, &args.workload, reference.clone())?;
    }
    let pinned = committed(root, &args.workload)?
        .ok_or(format!("{REFERENCE_FILE} has no {} entry", args.workload))?;
    tally.record_check(pinned == reference);
    detail.push(("reference".into(), text_value("committed")));
    Ok(())
}

fn output_value(o: &Output) -> Value {
    obj(vec![
        ("reports", Value::Array(o.reports.iter().map(|&r| hex(r)).collect())),
        ("fields", hex(o.fields)),
    ])
}

// ---------------------------------------------------------------------------
// Offline workloads.
// ---------------------------------------------------------------------------

enum Offline {
    Run(RunInput),
    Sweep(Vec<SweepInput>),
}

impl Offline {
    fn op(&self) -> Res<(Duration, OpOut)> {
        match self {
            Offline::Run(i) => offline::run_op(i),
            Offline::Sweep(i) => offline::sweep_op(i),
        }
    }

    /// One checked, untraced operation: its wall time and folded samples.
    fn timed(&self, want: Expect, tally: &mut Tally) -> (Duration, u64) {
        let t = Instant::now();
        match self.op() {
            Ok((wall, out)) => {
                let ok = tally.record(want, &Got::Report(key(&out.output)));
                (wall, if ok { out.samples } else { 0 })
            }
            Err(e) => {
                tally.record(want, &Got::Error(e));
                (t.elapsed(), 0)
            }
        }
    }

    fn traced(&self, t: &mut Tracer) -> Res<offline::Traced> {
        match self {
            Offline::Run(i) => offline::traced_run_op(t, i),
            Offline::Sweep(i) => offline::traced_sweep_op(t, i),
        }
    }
}

/// Fingerprint of a whole output, for the tally.
fn key(o: &Output) -> u64 {
    let bytes: Vec<u8> =
        o.reports.iter().chain([&o.fields]).flat_map(|x| x.to_le_bytes()).collect();
    sixg_measure::store::fnv1a64(&bytes)
}

fn offline_workload(
    args: &Args,
    root: &Path,
    catalogue: &Catalogue,
    nproc: usize,
    w: &Offline,
) -> Res<RunResult> {
    // Set-up: read the inputs and compute the reference output in-process,
    // outside the timed loop. An untraced run repeats it and reports the
    // median; every repetition must reproduce the first.
    let t0 = Instant::now();
    let (_, reference) = w.op()?;
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    let mut tally = Tally::default();
    let mut detail: Vec<(String, Value)> = Vec::new();
    check_committed(
        args,
        root,
        catalogue,
        output_value(&reference.output),
        &mut tally,
        &mut detail,
    )?;
    let want = Expect::Report(key(&reference.output));
    let reps = if args.trace { 1 } else { OFFLINE_SETUP_REPS };
    while setups.len() < reps {
        let t = Instant::now();
        let (_, again) = w.op()?;
        setups.push(t.elapsed().as_secs_f64());
        tally.record(want, &Got::Report(key(&again.output)));
    }

    let mut metrics = Metrics::default();
    metrics.insert("setup_s", median(&setups));
    detail.push(("setups".into(), Value::U64(setups.len() as u64)));
    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        detail.push(("peak_rss_reset".into(), Value::Bool(reset_peak_rss())));
        let (mut walls, mut samples, mut total) = (Vec::new(), 0u64, Duration::ZERO);
        while walls.len() < MIN_OPS || total < budget {
            let (wall, folded) = w.timed(want, &mut tally);
            total += wall;
            samples += folded;
            walls.push(ms(wall));
        }
        metrics.insert("req_per_s", walls.len() as f64 / total.as_secs_f64());
        metrics.insert("samples_per_s", samples as f64 / total.as_secs_f64());
        detail.push(("operations".into(), Value::U64(walls.len() as u64)));
        detail.push(("op_ms_p50".into(), Value::F64(median(&walls))));
        detail.push(("timed_s".into(), Value::F64(total.as_secs_f64())));
        detail.push(("samples_per_op".into(), Value::U64(reference.samples)));
        detail.push(("report_bytes".into(), Value::U64(reference.report_bytes as u64)));
        return Ok(RunResult { metrics, tally, detail, spans: None });
    }

    // Traced run: alternate untraced and traced operations.
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let (mut untraced, mut counts) = (Vec::new(), Vec::new());
    let mut op = 0u64;
    while counts.len() < MIN_OPS || epoch.elapsed() < budget {
        untraced.push(ms(w.timed(want, &mut tally).0));
        tracer.set_op(op);
        op += 1;
        let traced = w.traced(&mut tracer)?;
        if traced.output != reference.output {
            return Err("the traced path did not reproduce the untraced outputs bit for bit".into());
        }
        tally.record(want, &Got::Report(key(&traced.output)));
        counts.push(traced.counts);
    }
    let ops = breakdown(tracer.spans(), "op");
    layer_metrics(&mut metrics, &ops, &untraced);
    for name in LATENCY_P50 {
        metrics.insert(name, median(&untraced));
    }
    let count = |name: &str| median(&counts.iter().map(|c| c.get(name)).collect::<Vec<_>>());
    for name in [
        "scenario.routes",
        "scenario.calibrate_samples",
        "campaign.samples",
        "campaign.shards",
        "event_backend.samples",
        "faults.samples",
        "hvt.super_cells",
        "exec.report_bytes",
        "sweep.runs",
        "sweep.compiles",
    ] {
        metrics.insert(name, count(name));
    }
    match w {
        Offline::Sweep(inputs) => {
            let (distinct, runs) = offline::compile_ratio(inputs)?;
            metrics.insert("sweep.compile_ratio", distinct / runs);
        }
        Offline::Run(input) => speedup(&mut metrics, input, nproc)?,
    }
    // A fresh executor per operation: one cold compile each.
    metrics.insert("exec.cache.misses", count("sweep.compiles").max(1.0));
    detail.push(("traced_operations".into(), Value::U64(counts.len() as u64)));
    detail.push(("untraced_operations".into(), Value::U64(untraced.len() as u64)));
    Ok(RunResult { metrics, tally, detail, spans: Some(tracer.spans().to_vec()) })
}

/// Per-operation medians of every layer's self time, plus coverage and
/// overhead against the untraced operation times.
fn layer_metrics(metrics: &mut Metrics, ops: &[OpBreakdown], untraced: &[f64]) {
    let per_op = |f: &dyn Fn(&OpBreakdown) -> f64| median(&ops.iter().map(f).collect::<Vec<_>>());
    for (metric, layer) in LAYER_TIMES {
        metrics.insert(metric, per_op(&|o| o.layer(layer)));
    }
    // Compile is reported whole (the `Scenario::from_spec` call): its self
    // time plus the routing and calibration its probes attribute.
    let compile = ["scenario.compile", "scenario.routes", "scenario.calibrate"];
    metrics.insert("scenario.compile_ms", per_op(&|o| compile.iter().map(|l| o.layer(l)).sum()));
    let coverage: Vec<f64> = ops.iter().map(OpBreakdown::coverage).collect();
    metrics.insert("trace.coverage", median(&coverage));
    let traced = median(&ops.iter().map(|o| o.wall_ms).collect::<Vec<_>>());
    metrics.insert("trace.overhead", traced / median(untraced));
}

/// Sample + fold wall at pool 1 ÷ at pool `nproc`, through the library's
/// runner, on the workload's compiled scenario.
fn speedup(metrics: &mut Metrics, input: &RunInput, nproc: usize) -> Res<()> {
    let (scenario, config, backend) = offline::compile_for_speedup(input)?;
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for _ in 0..SPEEDUP_REPS {
        for (threads, walls) in [(1, &mut one), (nproc, &mut many)] {
            let t = Instant::now();
            let field = rayon::with_thread_count(threads, || {
                sixg_measure::exec::run_field(&scenario, config, backend)
            });
            walls.push(ms(t.elapsed()));
            std::hint::black_box(field);
        }
    }
    let (one, many) = (median(&one), median(&many));
    metrics.insert("parallel.pool1_ms", one);
    metrics.insert("parallel.pool_n_ms", many);
    metrics.insert("parallel.speedup", one / many);
    Ok(())
}

// ---------------------------------------------------------------------------
// serve_mix.
// ---------------------------------------------------------------------------

fn serve(args: &Args, root: &Path, catalogue: &Catalogue, nproc: usize) -> Res<RunResult> {
    let mix = serve_mix::Mix::build(root, args.seed)?;
    let mut tally = Tally::default();
    let mut detail: Vec<(String, Value)> = Vec::new();
    let refs = Value::Object(
        mix.payloads
            .iter()
            .map(|p| {
                let v = match p.expect {
                    Expect::Report(fp) => hex(fp),
                    Expect::Error(code) => text_value(code),
                };
                (p.label.clone(), v)
            })
            .collect(),
    );
    check_committed(args, root, catalogue, refs, &mut tally, &mut detail)?;

    // The measured daemon's own set-up. An untraced run times set-up in
    // child processes instead, so no other daemon's cache stays resident
    // beside this one.
    let (daemon, own_answers, own_setup) = serve_mix::set_up(&mix, nproc)?;
    let children = if args.trace { Vec::new() } else { child_setups(args)? };
    let mut setups: Vec<f64> = children.iter().map(|c| c.0).collect();
    if setups.is_empty() {
        setups.push(own_setup.as_secs_f64());
    }
    for answers in children.iter().map(|c| &c.1).chain([&own_answers]) {
        for (i, p) in mix.warmups().enumerate() {
            tally.record(p.expect, answers.get(i).unwrap_or(&Got::Dropped));
        }
    }
    let mut metrics = Metrics::default();
    metrics.insert("setup_s", median(&setups));
    detail.push(("setups".into(), Value::U64(setups.len() as u64)));
    let next = AtomicUsize::new(0);

    if !args.trace {
        detail.push(("peak_rss_reset".into(), Value::Bool(reset_peak_rss())));
        let (phase, _) =
            serve_mix::run_phase(&mix, &daemon.addr, nproc, args.seconds, &next, None)?;
        tally.merge(&phase.tally);
        let wall = phase.wall.as_secs_f64();
        metrics.insert("req_per_s", phase.latencies.len() as f64 / wall);
        metrics.insert("samples_per_s", phase.samples as f64 / wall);
        detail.push(("requests".into(), Value::U64(phase.latencies.len() as u64)));
        detail.push(("req_ms_p50".into(), Value::F64(median(&phase.latencies))));
        detail.push(("clients".into(), Value::U64(nproc as u64)));
        if let Some(p90) = reported_percentile(&phase.latencies, 0.9) {
            detail.push(("req_ms_p90".into(), Value::F64(p90)));
        }
        let (hits, misses, evictions) = daemon.cache();
        detail.push(("cache_hits".into(), Value::U64(hits)));
        detail.push(("cache_misses".into(), Value::U64(misses)));
        detail.push(("cache_evictions".into(), Value::U64(evictions)));
        detail.push(("request_time_share".into(), time_shares(&phase)));
        return Ok(RunResult { metrics, tally, detail, spans: None });
    }

    // Traced run: an untraced half for the overhead base and req_ms_p90,
    // then a traced half; cache counters cover both.
    let before = daemon.cache();
    let half = args.seconds / 2.0;
    let (plain, _) = serve_mix::run_phase(&mix, &daemon.addr, nproc, half, &next, None)?;
    let epoch = Instant::now();
    let first = next.load(std::sync::atomic::Ordering::SeqCst);
    let (traced, tracers) =
        serve_mix::run_phase(&mix, &daemon.addr, nproc, half, &next, Some(epoch))?;
    let after = daemon.cache();
    let mut tracer = Tracer::new(epoch);
    for t in tracers {
        tracer.absorb(t);
    }
    serve_mix::replay_decode(
        &mix,
        first..next.load(std::sync::atomic::Ordering::SeqCst),
        &mut tracer,
    );
    let ops = breakdown(tracer.spans(), "op");
    layer_metrics(&mut metrics, &ops, &plain.latencies);
    for (metric, probe) in [("spec.parse_ms", "spec.parse"), ("spec.validate_ms", "spec.validate")]
    {
        metrics.insert(metric, median(&trace::per_op_totals(tracer.spans(), probe)));
    }
    let waits: Vec<f64> = ops.iter().map(|o| o.layer("serve.wait")).collect();
    metrics.insert("serve.wait_ms_p50", median(&waits));
    metrics.insert("serve.wait_ms_p90", reported_percentile(&waits, 0.9).unwrap_or(0.0));
    metrics.insert("req_ms_p90", reported_percentile(&plain.latencies, 0.9).unwrap_or(0.0));
    for name in LATENCY_P50 {
        metrics.insert(name, median(&plain.latencies));
    }
    let n = traced.latencies.len() as f64;
    metrics.insert("wire.frames", traced.frames as f64 / n);
    metrics.insert("wire.bytes_out", traced.bytes_out as f64 / n);
    metrics.insert("wire.bytes_in", traced.bytes_in as f64 / n);
    let (hits, misses, evictions) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    metrics.insert("exec.cache.hits", hits as f64);
    metrics.insert("exec.cache.misses", misses as f64);
    metrics.insert("exec.cache.evictions", evictions as f64);
    metrics.insert("exec.cache.hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    tally.merge(&plain.tally);
    tally.merge(&traced.tally);
    metrics.insert("serve.errors_expected", tally.errors_expected as f64);
    metrics.insert("serve.errors_unexpected", tally.errors_unexpected as f64);
    metrics.insert("serve.reconnects", (plain.reconnects + traced.reconnects) as f64);

    // The daemon compiles cold specs privately; re-run two of them here.
    let mut compiles = Vec::new();
    for spec in mix.cold_specs()?.iter().take(2) {
        let t = Instant::now();
        let s = sixg_measure::scenario::Scenario::from_spec(spec).map_err(|e| e.to_string())?;
        compiles.push(ms(t.elapsed()));
        std::hint::black_box(s);
    }
    metrics.insert("scenario.compile_ms", median(&compiles));
    detail.push(("untraced_requests".into(), Value::U64(plain.latencies.len() as u64)));
    detail.push(("traced_requests".into(), Value::U64(traced.latencies.len() as u64)));
    Ok(RunResult { metrics, tally, detail, spans: Some(tracer.spans().to_vec()) })
}

/// Per request class: requests, summed latency and its share of all
/// request time (what the chosen mix shares amount to in daemon time).
fn time_shares(phase: &serve_mix::Phase) -> Value {
    let total: f64 = phase.by_class.values().map(|&(_, ms)| ms).sum();
    Value::Object(
        phase
            .by_class
            .iter()
            .map(|(&class, &(n, ms))| {
                let share = if total > 0.0 { ms / total } else { 0.0 };
                let v = obj(vec![
                    ("requests", Value::U64(n)),
                    ("ms", Value::F64(ms)),
                    ("share", Value::F64(share)),
                ]);
                (class.to_string(), v)
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// serve_mix set-up in child processes.
// ---------------------------------------------------------------------------

/// Encodes a warm-up answer for the parent: `report:<hex>`, `error:<code>`
/// or `dropped`.
fn encode_got(got: &Got) -> Value {
    text_value(&match got {
        Got::Report(fp) => format!("report:{fp:016x}"),
        Got::Error(code) => format!("error:{code}"),
        Got::Dropped => "dropped".into(),
    })
}

fn decode_got(text: &str) -> Got {
    if let Some(code) = text.strip_prefix("error:") {
        return Got::Error(code.to_string());
    }
    text.strip_prefix("report:")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .map_or(Got::Dropped, Got::Report)
}

/// The child side: one timed `serve_mix` set-up (bind a daemon, warm it
/// up) and its answers, as one JSON line. The process exits afterwards,
/// daemon and all.
fn setup_probe(args: &Args, root: &Path, nproc: usize) -> Res<String> {
    let mix = serve_mix::Mix::new(root, args.seed)?;
    let (_daemon, answers, took) = serve_mix::set_up(&mix, nproc)?;
    let line = obj(vec![
        ("setup_s", Value::F64(took.as_secs_f64())),
        ("answers", Value::Array(answers.iter().map(encode_got).collect())),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

/// The parent side: [`SETUP_REPS`] set-ups, one child process each, run one
/// after another and each waited for. Returns each set-up time with its
/// warm-up answers.
fn child_setups(args: &Args) -> Res<Vec<(f64, Vec<Got>)>> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let seed = args.seed.to_string();
    let mut out = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed])
            .args(["--seconds", "1", "--trace", "0", "--setup-only"])
            .stdin(std::process::Stdio::null())
            .output()
            .map_err(|e| format!("set-up child: {e}"))?;
        if !child.status.success() {
            let err = String::from_utf8_lossy(&child.stderr);
            return Err(format!("set-up child exited with {}: {}", child.status, err.trim()));
        }
        let stdout = String::from_utf8_lossy(&child.stdout);
        let line = stdout.lines().last().unwrap_or("");
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("set-up child printed {line:?}: {e}"))?;
        let setup_s = v.get("setup_s").and_then(Value::as_f64).ok_or("set-up child: no setup_s")?;
        let answers = v
            .get("answers")
            .and_then(Value::as_array)
            .ok_or("set-up child: no answers")?
            .iter()
            .map(|a| decode_got(a.as_str().unwrap_or("")))
            .collect();
        out.push((setup_s, answers));
    }
    Ok(out)
}
