//! `sixg-cli` — run, sweep, validate and list declarative scenario specs.
//!
//! Any `ScenarioSpec` JSON file on disk becomes a runnable, parallel,
//! deterministic measurement campaign, and any `SweepSpec` file becomes a
//! whole campaign matrix:
//!
//! ```text
//! sixg-cli run specs/klagenfurt.json          # campaign + heatmaps + gap
//! sixg-cli run specs/megacity.json --passes 2 # override the seed policy
//! sixg-cli sweep specs/sweeps/klagenfurt_cadence.json   # the E20 matrix
//! sixg-cli dispatch specs/sweeps/klagenfurt_cadence.json \
//!          --workers 127.0.0.1:7864,127.0.0.1:7865      # farm to a fleet
//! sixg-cli validate specs/*.json              # all violations, JSON paths
//! sixg-cli list [specs/]                      # inventory of spec files
//! ```
//!
//! `run` executes the spec's default campaign (its seed policy) on the
//! rayon thread pool and reports the Figure-2/3-style heatmaps (on a
//! wide-key grid, the report's super-cell tiles and table instead), the
//! grand mean, and the requirement gap against the spec's reference
//! workload class — for `specs/klagenfurt.json` the printed grand mean and
//! exceedance are the `repro_all` numbers, to the digit. `sweep` compiles
//! the sweep's axis cross product into an ordered variant list, runs the
//! whole matrix (each draw group once, so runs that differ only in cadence
//! share their draws), and prints the per-variant deltas against the base
//! spec.
//!
//! **Exit codes.** `0` success; `1` the input was reachable but wrong
//! (spec/sweep parse or validation failures, unknown workload classes,
//! output-write failures); `2` usage errors — unknown subcommand, missing
//! operand, unreadable file, malformed flag — with the usage text on
//! stderr. Scripts can therefore tell "your spec is invalid" from "you
//! called me wrong".

use sixg_core::requirements::{ApplicationClass, RequirementProfile};
use sixg_measure::dispatch::{dispatch_sweep, DispatchConfig, DispatchError};
use sixg_measure::exec::{execute, ExecReport, ExecRequest, RunReport, ShardSel};
use sixg_measure::parallel::with_thread_count;
use sixg_measure::report::{render_grid, render_super_cells, render_tiles, FieldStat};
use sixg_measure::spec::{parse_backend, ScenarioSpec};
use sixg_measure::store::{merge_stores, CheckpointError};
use sixg_measure::sweep::{Sweep, SweepRun, SweepSpec};
use std::process::ExitCode;

const USAGE: &str = "\
sixg-cli — declarative scenario runner

USAGE:
    sixg-cli run <spec.json> [--passes N] [--campaign-seed S] [--seed S]
                             [--backend analytic|event] [--threads T] [--json PATH]
    sixg-cli sweep <sweep.json> [--threads T] [--json PATH]
                                [--checkpoint DIR [--shard I/N] [--interval K]
                                 [--kill-after K]]
    sixg-cli merge <sweep.json> --store DIR [--store DIR]... [--json PATH]
    sixg-cli dispatch <sweep.json> --workers A:P,B:P,... [--shards-per-worker S]
                                   [--interval K] [--json PATH]
    sixg-cli validate <spec.json>...
    sixg-cli list [dir]

SUBCOMMANDS:
    run       compile the spec and run its campaign on the thread pool
    sweep     run a SweepSpec's whole campaign matrix (axis cross product)
    merge     fold complete, disjoint shard checkpoint stores into the full
              SweepReport (bitwise identical to an unsharded run)
    dispatch  farm the sweep's run range to a fleet of sixg-serve workers as
              checkpointed shards; the merged report is bitwise identical to
              a single-machine `sixg-cli sweep`, even across worker deaths
    validate  parse + validate specs; print every violation with its JSON path
    list      inventory the spec files in a directory (default: specs/)

RUN OPTIONS:
    --passes N         override the spec's campaign passes
    --campaign-seed S  override the spec's campaign seed
    --seed S           override the scenario seed (calibration + streams)
    --backend B        execution backend: analytic (closed-form sampling,
                       default) or event (packet-level discrete-event
                       simulation with per-hop FIFO queues)
    --threads T        pin the rayon pool size (default: RAYON_NUM_THREADS)
    --json PATH        also write the campaign summary as JSON

SWEEP OPTIONS:
    --threads T        pin the rayon pool size
    --json PATH        also write the SweepReport as JSON (deterministic:
                       bitwise identical across pool sizes)
    --checkpoint DIR   spill completed variants to a resumable on-disk store
                       in DIR; lifts the in-memory variant cap, and a killed
                       run resumes bitwise-identically from the store
    --shard I/N        with --checkpoint: run only shard I of N (disjoint
                       run ranges; fold the shard stores with `merge`)
    --interval K       with --checkpoint: work items folded between
                       checkpoint commits (default 1024)
    --kill-after K     with --checkpoint: abort the process once K items
                       are folded and the cursor is committed (testing hook
                       for the kill/resume contract)

MERGE OPTIONS:
    --store DIR        a shard checkpoint store to merge (repeat per shard)
    --json PATH        also write the merged SweepReport as JSON

DISPATCH OPTIONS:
    --workers LIST     comma-separated sixg-serve addresses (host:port); the
                       run range splits into more shards than workers so a
                       dead worker's shards resume on live ones
    --shards-per-worker S
                       work-stealing granularity (default 3)
    --interval K       work items folded between streamed cursor commits on
                       each worker (default 256) — the upper bound on
                       re-folded work after a mid-shard death
    --json PATH        also write the merged SweepReport as JSON (bitwise
                       identical to `sixg-cli sweep --json`)

EXIT CODES:
    0  success
    1  validation failure (invalid spec/sweep, unknown class, write error)
    2  usage error (unknown subcommand or flag, flag without a value,
       missing operand, unreadable file)
";

/// The CLI's two failure classes, mapped to distinct exit codes so scripts
/// can tell "you called me wrong" (usage → 2, with the usage text) from
/// "your input is invalid" (failure → 1).
enum CliError {
    /// Unknown subcommand, missing operand, unreadable file, bad flag.
    Usage(String),
    /// Parse/validation/run failures on reachable input.
    Fail(String),
}

impl CliError {
    fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    fn fail(msg: impl Into<String>) -> Self {
        CliError::Fail(msg.into())
    }
}

fn class_by_name(name: &str) -> Result<ApplicationClass, CliError> {
    ApplicationClass::ALL.into_iter().find(|c| format!("{c:?}") == name).ok_or_else(|| {
        let known: Vec<String> = ApplicationClass::ALL.iter().map(|c| format!("{c:?}")).collect();
        CliError::fail(format!(
            "unknown workload class {name:?} (expected one of {})",
            known.join(", ")
        ))
    })
}

/// A subcommand's arguments, checked against the flags its USAGE section
/// lists. Every flag must be listed and carry a value that does not start
/// with `--`, and only `--store` may repeat. Anything else is a usage
/// error, so a mistyped or value-less flag never runs on defaults.
struct Args<'a> {
    operands: Vec<&'a str>,
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    fn parse(args: &'a [String], allowed: &[&str]) -> Result<Self, CliError> {
        let mut parsed = Args { operands: Vec::new(), flags: Vec::new() };
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                parsed.operands.push(arg);
                continue;
            }
            if !allowed.contains(&arg) {
                return Err(CliError::usage(format!("unknown flag {arg:?}")));
            }
            let value = it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| CliError::usage(format!("{arg} needs a value")))?;
            if arg != "--store" && parsed.value(arg).is_some() {
                return Err(CliError::usage(format!("{arg} given more than once")));
            }
            parsed.flags.push((arg, value));
        }
        Ok(parsed)
    }

    /// The subcommand's one operand.
    fn operand(&self, what: &str) -> Result<&'a str, CliError> {
        match self.operands[..] {
            [one] => Ok(one),
            [] => Err(CliError::usage(format!("missing operand: {what}"))),
            [_, extra, ..] => Err(CliError::usage(format!("unexpected operand {extra:?}"))),
        }
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.flags.iter().find(|(f, _)| *f == flag).map(|&(_, v)| v)
    }

    /// Every value of `flag`, in order (for the repeatable `--store`).
    fn values(&self, flag: &str) -> Vec<&'a str> {
        self.flags.iter().filter(|(f, _)| *f == flag).map(|&(_, v)| v).collect()
    }

    fn parse_value<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError> {
        match self.value(flag) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::usage(format!("invalid value {v:?} for {flag}"))),
        }
    }
}

/// Reads a file, classifying "not there / not readable" as a usage error
/// (exit 2) — distinct from "there but invalid" (exit 1).
fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path)
        .map_err(|e| CliError::usage(format!("cannot read file {path}: {e}")))
}

fn load_spec(path: &str) -> Result<ScenarioSpec, CliError> {
    let text = read_file(path)?;
    ScenarioSpec::from_json(&text).map_err(|e| CliError::fail(format!("{path}: {e}")))
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let args = Args::parse(
        args,
        &["--passes", "--campaign-seed", "--seed", "--backend", "--threads", "--json"],
    )?;
    let path = args.operand("run needs a spec file")?;
    let mut spec = load_spec(path)?;

    let errors = spec.validate();
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("{path}: {e}");
        }
        return Err(CliError::fail(format!("{path}: {} validation error(s)", errors.len())));
    }

    if let Some(seed) = args.parse_value::<u64>("--seed")? {
        spec.seed = seed;
    }
    if let Some(passes) = args.parse_value::<u32>("--passes")? {
        spec.campaign.passes = passes;
    }
    if let Some(seed) = args.parse_value::<u64>("--campaign-seed")? {
        spec.campaign.seed = seed;
    }
    // A malformed --backend value is a usage error (exit 2, like any bad
    // flag); the spec's own backend tag was already checked by validate()
    // above, so this parse cannot fail for spec-borne values.
    if let Some(flag) = args.value("--backend") {
        parse_backend(flag).map_err(CliError::Usage)?;
        spec.backend = flag.to_string();
    }
    let threads = args.parse_value::<usize>("--threads")?;

    // The spec's reference class must resolve before the campaign runs.
    let reference = class_by_name(&spec.workloads.reference_class)?;
    let mix: Vec<(ApplicationClass, f64)> = spec
        .workloads
        .mix
        .iter()
        .map(|w| class_by_name(&w.class).map(|c| (c, w.share)))
        .collect::<Result<_, _>>()?;

    println!("=== scenario: {} ===", spec.name);
    if !spec.description.is_empty() {
        println!("{}", spec.description);
    }

    // One facade request — the CLI is a thin client of the same `execute`
    // entry point `sixg-serve` exposes over the wire, so the run (and the
    // `--json` payload below) is byte-for-byte what a daemon client gets.
    let hops = spec.hops.len();
    let mut request = ExecRequest::run(spec);
    request.requirement_ms = Some(reference.profile().max_rtl_ms);
    let report = match threads {
        Some(t) => with_thread_count(t, || execute(&request)),
        None => execute(&request),
    }
    .map_err(|e| CliError::fail(format!("{path}: {e}")))?;
    let ExecReport::Run(out) = report else { unreachable!("a run request yields a run report") };
    let summary = &out.report;

    println!(
        "\ngrid {}×{} ({} cells, {} traversed) · {} hops · {} peers · seed {:#x}",
        out.scenario.grid.cols,
        out.scenario.grid.rows,
        out.scenario.grid.len(),
        out.scenario.included.len(),
        hops,
        out.scenario.peers.len(),
        out.scenario.seed,
    );
    println!(
        "campaign: {} passes, seed {}, {:.1} s cadence, {} backend",
        summary.passes, summary.seed, summary.sample_interval_s, summary.backend
    );

    // A wide grid's report carries its super-cell hierarchy: its tiles
    // and super-cells stand in for two heatmaps of up to 10⁶ cells.
    if let Some(h) = &summary.super_cells {
        println!(
            "\n--- mean RTL per tile (ms, {}×{} tiles of {c}×{c} cells, 0.0 = none reported) ---",
            h.tile_cols,
            h.tile_rows,
            c = h.tile_cells
        );
        print!("{}", render_tiles(h));
        println!(
            "--- super-cells ({} mean bands over {:.4} .. {:.4} ms; RTL in ms) ---",
            h.mean_bands, h.band_lo_ms, h.band_hi_ms
        );
        print!("{}", render_super_cells(h));
    } else {
        println!("\n--- mean RTL heatmap (ms, 0.0 = not traversed) ---");
        print!("{}", render_grid(&out.field, FieldStat::Mean));
        println!("--- σ heatmap (ms) ---");
        print!("{}", render_grid(&out.field, FieldStat::StdDev));
    }

    println!("--- campaign summary ---");
    println!("samples:      {}", summary.total_samples);
    println!("grand mean:   {:.4} ms", summary.grand_mean_ms);
    println!("mean range:   {:.4} .. {:.4} ms", summary.mean_min_ms, summary.mean_max_ms);
    println!("sigma range:  {:.4} .. {:.4} ms", summary.std_min_ms, summary.std_max_ms);

    let (compliant, reported) = compliant_cells(summary);
    // The lowest reported mean, as `GapReport::analyse` takes it: +∞ when
    // no cell is reported.
    let best_ms = if reported == 0 { f64::INFINITY } else { summary.mean_min_ms };
    let required = summary.requirement_ms;
    println!("\n--- requirement gap vs {reference:?} ({required} ms) ---");
    println!("exceedance:      {:.4} %", summary.exceedance_pct);
    println!("best cell:       {:.4} %", (best_ms - required) / required * 100.0);
    println!("compliant cells: {compliant}/{reported}");

    println!("\n--- workload mix ---");
    println!("{:<22} {:>7} {:>10} {:>12}", "class", "share", "req (ms)", "exceedance");
    for (class, share) in &mix {
        let profile: RequirementProfile = class.profile();
        let exceedance = (summary.grand_mean_ms - profile.max_rtl_ms) / profile.max_rtl_ms * 100.0;
        println!(
            "{:<22} {:>6.0}% {:>10.1} {:>11.1}%",
            format!("{class:?}"),
            share * 100.0,
            profile.max_rtl_ms,
            exceedance
        );
    }

    if let Some(path_out) = args.value("--json") {
        // The facade's canonical rendering: identical bytes whether the
        // request ran here, via `execute()` in-process, or over the wire.
        std::fs::write(path_out, summary.to_json())
            .map_err(|e| CliError::fail(format!("cannot write {path_out}: {e}")))?;
        println!("\nwrote {path_out}");
    }
    Ok(())
}

/// The report's compliant and reported cell counts: the cells whose mean
/// RTL meets the requirement, read from the reported cells of a legacy
/// grid or from the super-cells that do not exceed it on a wide grid.
fn compliant_cells(report: &RunReport) -> (u64, u64) {
    match &report.super_cells {
        Some(h) => {
            let compliant = h.tiles.iter().flat_map(|t| &t.super_cells).filter(|c| !c.exceeds);
            (compliant.map(|c| c.cells).sum(), h.reported_cells)
        }
        None => {
            let compliant = report.cells.iter().filter(|c| c.mean_ms <= report.requirement_ms);
            (compliant.count() as u64, report.cells.len() as u64)
        }
    }
}

/// Parses `--shard I/N` (shard index / shard count).
fn parse_shard(value: &str) -> Result<(u32, u32), CliError> {
    let parsed = value.split_once('/').and_then(|(i, n)| {
        let i: u32 = i.parse().ok()?;
        let n: u32 = n.parse().ok()?;
        (n >= 1 && i < n).then_some((i, n))
    });
    parsed.ok_or_else(|| {
        CliError::usage(format!("invalid value {value:?} for --shard (expected I/N with I < N)"))
    })
}

/// Maps a checkpoint failure onto the CLI's exit-code contract: both a
/// broken sweep and a broken store are reachable-but-invalid input (1).
fn checkpoint_err(path: &str, e: CheckpointError) -> CliError {
    match e {
        CheckpointError::Spec(e) => CliError::fail(format!("{path}: {e}")),
        // StoreError displays as "<store path>: <message>" already.
        CheckpointError::Store(e) => CliError::fail(e.to_string()),
    }
}

fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    let args = Args::parse(
        args,
        &["--threads", "--json", "--checkpoint", "--shard", "--interval", "--kill-after"],
    )?;
    let path = args.operand("sweep needs a sweep file")?;
    // One read: an unreadable sweep file is a usage error (exit 2), while
    // everything past it — sweep parse, base resolution relative to the
    // sweep file's directory, validation — is a content failure (exit 1).
    let text = read_file(path)?;
    let dir = std::path::Path::new(path).parent().unwrap_or(std::path::Path::new("."));
    let threads = args.parse_value::<usize>("--threads")?;
    let checkpoint = args.value("--checkpoint");
    let shard = args.value("--shard").map(parse_shard).transpose()?;
    let interval = args.parse_value::<usize>("--interval")?;
    let kill_after = args.parse_value::<u64>("--kill-after")?;
    if checkpoint.is_none() {
        for (flag, present) in [
            ("--shard", shard.is_some()),
            ("--interval", interval.is_some()),
            ("--kill-after", kill_after.is_some()),
        ] {
            if present {
                return Err(CliError::usage(format!("{flag} requires --checkpoint")));
            }
        }
    }
    if interval == Some(0) {
        return Err(CliError::usage("invalid value \"0\" for --interval (must be at least 1)"));
    }

    // The CLI resolves the sweep's filesystem references (the wire has no
    // filesystem), then hands one facade request to the same `execute`
    // entry point `sixg-serve` serves remotely. An unreadable base spec is
    // reachable-but-broken content (exit 1), like every other document
    // failure past the initial sweep-file read.
    let sweep_spec =
        SweepSpec::from_json(&text).map_err(|e| CliError::fail(format!("{path}: {e}")))?;
    let base_path = dir.join(&sweep_spec.base);
    let base_text = std::fs::read_to_string(&base_path).map_err(|e| {
        CliError::fail(format!(
            "{path}: $.base: cannot read base spec {}: {e}",
            base_path.display()
        ))
    })?;
    let base_value = serde_json::from_str(&base_text)
        .map_err(|e| CliError::fail(format!("{path}: $: base spec is invalid JSON: {e}")))?;

    println!("=== sweep: {} ===", sweep_spec.name);
    if !sweep_spec.description.is_empty() {
        println!("{}", sweep_spec.description);
    }
    println!(
        "base {} · {} axes · {} variants · requirement {} ms",
        sweep_spec.base,
        sweep_spec.axes.len(),
        sweep_spec.variant_count(),
        sweep_spec.requirement_ms
    );
    let (shard_index, shard_count) = shard.unwrap_or((0, 1));
    if let Some(store_dir) = checkpoint {
        println!("checkpoint store: {store_dir} (shard {shard_index}/{shard_count})");
    }

    let mut request = ExecRequest::sweep(sweep_spec, base_value);
    request.checkpoint = checkpoint.map(str::to_string);
    request.shard = shard.map(|(index, count)| ShardSel { index, count });
    request.interval = interval;
    request.stop_after_items = kill_after;

    let report = match threads {
        Some(t) => with_thread_count(t, || execute(&request)),
        None => execute(&request),
    }
    .map_err(|e| CliError::fail(format!("{path}: {e}")))?;
    match report {
        ExecReport::Sweep(run) => report_sweep_run(path, &run, args.value("--json")),
        ExecReport::ShardComplete { shard_index, shard_count, done_items } => {
            let store_dir = checkpoint.expect("sharding requires --checkpoint");
            println!(
                "shard {shard_index}/{shard_count} complete: {done_items} items spilled to \
                 {store_dir} — fold the shards with `sixg-cli merge`"
            );
            Ok(())
        }
        ExecReport::Interrupted { done_items, total_items } => {
            // The testing hook behaves like a real kill: the cursor is
            // committed, then the process dies without an exit status a
            // script could mistake for success.
            let store_dir = checkpoint.expect("--kill-after requires --checkpoint");
            eprintln!(
                "sixg-cli: killed at checkpoint cursor {done_items}/{total_items} \
                 (--kill-after) — rerun with --checkpoint {store_dir} to resume"
            );
            std::process::abort();
        }
        ExecReport::Valid { .. } | ExecReport::Run(_) => {
            unreachable!("a sweep request yields a sweep outcome")
        }
    }
}

fn cmd_merge(args: &[String]) -> Result<(), CliError> {
    let args = Args::parse(args, &["--store", "--json"])?;
    let path = args.operand("merge needs a sweep file")?;
    let text = read_file(path)?;
    let dir = std::path::Path::new(path).parent().unwrap_or(std::path::Path::new("."));
    let stores = args.values("--store");
    if stores.is_empty() {
        return Err(CliError::usage("merge needs at least one --store DIR"));
    }
    let sweep =
        Sweep::from_json_in_dir(&text, dir).map_err(|e| CliError::fail(format!("{path}: {e}")))?;

    println!("=== merge: {} ===", sweep.spec.name);
    println!(
        "base {} · {} variants · {} shard store(s)",
        sweep.base.name,
        sweep.spec.variant_count(),
        stores.len()
    );
    let run = merge_stores(&sweep, &stores).map_err(|e| checkpoint_err(path, e))?;
    report_sweep_run(path, &run, args.value("--json"))
}

fn cmd_dispatch(args: &[String]) -> Result<(), CliError> {
    let args = Args::parse(args, &["--workers", "--shards-per-worker", "--interval", "--json"])?;
    let path = args.operand("dispatch needs a sweep file")?;
    let text = read_file(path)?;
    let dir = std::path::Path::new(path).parent().unwrap_or(std::path::Path::new("."));
    let workers: Vec<String> = args
        .value("--workers")
        .ok_or_else(|| CliError::usage("dispatch needs --workers A:P,B:P,..."))?
        .split(',')
        .map(str::trim)
        .filter(|w| !w.is_empty())
        .map(str::to_string)
        .collect();
    if workers.is_empty() {
        return Err(CliError::usage("--workers needs at least one host:port address"));
    }
    let sweep =
        Sweep::from_json_in_dir(&text, dir).map_err(|e| CliError::fail(format!("{path}: {e}")))?;

    let mut cfg = DispatchConfig::new(workers);
    if let Some(s) = args.parse_value::<u32>("--shards-per-worker")? {
        if s == 0 {
            return Err(CliError::usage(
                "invalid value \"0\" for --shards-per-worker (must be at least 1)",
            ));
        }
        cfg.shards_per_worker = s;
    }
    if let Some(k) = args.parse_value::<usize>("--interval")? {
        if k == 0 {
            return Err(CliError::usage("invalid value \"0\" for --interval (must be at least 1)"));
        }
        cfg.interval = k;
    }

    println!("=== dispatch: {} ===", sweep.spec.name);
    println!(
        "base {} · {} variants · {} worker(s) · {} shard(s) target",
        sweep.base.name,
        sweep.spec.variant_count(),
        cfg.workers.len(),
        cfg.workers.len() as u32 * cfg.shards_per_worker,
    );

    let dispatched = dispatch_sweep(&sweep, &cfg).map_err(|e| match e {
        // An invalid sweep is the input's fault; a dead fleet or a
        // protocol-fatal worker is still a reachable-but-failed run —
        // both land on exit 1, with the fleet log on stderr.
        DispatchError::Spec(err) => CliError::fail(format!("{path}: {err}")),
        other => CliError::fail(other.to_string()),
    })?;
    let stats = &dispatched.stats;
    println!(
        "fleet: {} shard(s) over {} worker(s) — {} assignment(s), {} reassignment(s) \
         ({} resumed mid-shard), {} reconnect(s)",
        stats.shard_count,
        stats.workers,
        stats.assignments,
        stats.reassignments,
        stats.resumed_shards,
        stats.reconnects,
    );
    for dead in &stats.dead_workers {
        eprintln!("sixg-cli: worker {dead} died; its shards were reassigned");
    }
    report_sweep_run(path, &dispatched.run, args.value("--json"))
}

/// Prints the per-variant table, cross-validation verdict and optional
/// `--json` report for an executed sweep — shared by `sweep` (in-memory
/// and checkpointed), `merge` and `dispatch`, so all of them surface
/// identical output for identical accumulator state.
fn report_sweep_run(path: &str, run: &SweepRun, json: Option<&str>) -> Result<(), CliError> {
    let report = &run.report;

    println!(
        "\n{:<58} {:>8} {:>9} {:>10} {:>9} {:>10}",
        "variant", "backend", "samples", "mean (ms)", "Δ (ms)", "exceed (%)"
    );
    let row = |v: &sixg_measure::sweep::VariantReport| {
        println!(
            "{:<58} {:>8} {:>9} {:>10.4} {:>+9.4} {:>10.2}",
            v.label,
            v.backend,
            v.total_samples,
            v.grand_mean_ms,
            v.delta_grand_mean_ms,
            v.exceedance_pct
        );
    };
    row(&report.base);
    for v in &report.variants {
        row(v);
    }

    let violations = run.crossval_violations();
    if violations.is_empty() {
        println!("\ncross-validation: every analytic/event pair agrees within tolerance");
    } else {
        for v in &violations {
            eprintln!("cross-validation violation: {v}");
        }
    }

    if let Some(out) = json {
        std::fs::write(out, report.to_json())
            .map_err(|e| CliError::fail(format!("cannot write {out}: {e}")))?;
        println!("wrote {out}");
    }

    // A failed cross-validation is a failed sweep: the matrix ran, the
    // backends disagree — exit 1 so pipelines gating on this command
    // cannot stay green on a real divergence (the report is still
    // printed and written above for diagnosis).
    if !violations.is_empty() {
        return Err(CliError::fail(format!(
            "{path}: {} cross-validation violation(s) — backends disagree",
            violations.len()
        )));
    }
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), CliError> {
    let paths = Args::parse(args, &[])?.operands;
    if paths.is_empty() {
        return Err(CliError::usage("validate needs at least one spec file"));
    }
    // The whole batch is always validated: an unreadable entry must not
    // mask validation results for the files after it. Unreadable files
    // dominate the final classification (usage, exit 2) over invalid
    // ones (exit 1).
    let mut bad = 0usize;
    let mut unreadable = 0usize;
    for path in &paths {
        match load_spec(path) {
            Err(CliError::Usage(e)) => {
                unreadable += 1;
                eprintln!("INVALID {e}");
            }
            Err(CliError::Fail(e)) => {
                bad += 1;
                eprintln!("INVALID {e}");
            }
            Ok(spec) => {
                let errors = spec.validate();
                if errors.is_empty() {
                    println!(
                        "ok      {path}: {} ({}×{} grid, {} hops, {} links)",
                        spec.name,
                        spec.grid.cols,
                        spec.grid.rows,
                        spec.hops.len(),
                        spec.links.len()
                    );
                } else {
                    bad += 1;
                    for e in &errors {
                        eprintln!("INVALID {path}: {e}");
                    }
                }
            }
        }
    }
    if unreadable > 0 {
        return Err(CliError::usage(format!(
            "{unreadable} of {} spec file(s) unreadable ({bad} invalid)",
            paths.len()
        )));
    }
    if bad > 0 {
        return Err(CliError::fail(format!("{bad} of {} spec file(s) invalid", paths.len())));
    }
    Ok(())
}

fn cmd_list(args: &[String]) -> Result<(), CliError> {
    let dir = match Args::parse(args, &[])?.operands[..] {
        [] => "specs",
        [dir] => dir,
        [_, extra, ..] => return Err(CliError::usage(format!("unexpected operand {extra:?}"))),
    };
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| CliError::usage(format!("cannot read directory {dir}: {e}")))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        return Err(CliError::fail(format!("no spec files (*.json) in {dir}")));
    }
    println!(
        "{:<28} {:>7} {:>7} {:>6} {:>6}  description",
        "file", "grid", "cells", "hops", "peers"
    );
    for path in entries {
        let shown = path.display();
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| ScenarioSpec::from_json(&t).map_err(|e| e.to_string()))
        {
            Ok(spec) => {
                let mut description = spec.description.clone();
                if description.len() > 60 {
                    description.truncate(57);
                    description.push_str("...");
                }
                println!(
                    "{:<28} {:>7} {:>7} {:>6} {:>6}  {description}",
                    shown.to_string(),
                    format!("{}×{}", spec.grid.cols, spec.grid.rows),
                    spec.grid.cols as usize * spec.grid.rows as usize,
                    spec.hops.len(),
                    spec.peers.cells.len(),
                );
            }
            Err(e) => println!("{:<28} UNPARSEABLE: {e}", shown.to_string()),
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("dispatch") => cmd_dispatch(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        None => Err(CliError::usage("missing subcommand")),
        Some(other) => Err(CliError::usage(format!("unknown subcommand {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Fail(e)) => {
            eprintln!("sixg-cli: {e}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(e)) => {
            eprintln!("sixg-cli: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
