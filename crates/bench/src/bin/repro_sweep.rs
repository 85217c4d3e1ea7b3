//! E20 — the committed cadence sweep: a campaign matrix from one file.
//!
//! Runs `specs/sweeps/klagenfurt_cadence.json` — sampling cadence
//! {1 s, 2 s, 4 s} × execution backend {analytic, event} × campaign seeds
//! {1, 2, 3}, eighteen variants around the measured Klagenfurt baseline —
//! on the thread pool, each draw group once (runs that differ only in
//! cadence share their draws), prints the per-variant
//! deltas against the base spec, and **gates** on backend agreement: at
//! every swept cadence and seed, the analytic/event pair must agree within
//! the workspace cross-validation tolerance (`6·SE + 0.75 ms` per cell,
//! 1.5 % on grand means — the `repro_crossval` constants). Any violation
//! exits non-zero so CI can gate on it.
//!
//! ```text
//! cargo run --release --bin repro_sweep -- [--threads N] [--json PATH] [SWEEP_FILE]
//! ```
//!
//! `--json PATH` writes the `SweepReport` (the `BENCH_sweep.json` artifact
//! CI uploads). The report carries no wall times, so it is **bitwise
//! identical across pool sizes** — CI runs it at `--threads 1` and `4` and
//! `cmp`s the two files; wall-clock timings go to stdout only.

use sixg_bench::{compare, header};
use sixg_measure::parallel::with_thread_count;
use sixg_measure::sweep::Sweep;
use std::time::Instant;

/// The committed sweep file, resolved from the crate root so the binary
/// works from any working directory.
const SWEEP_FILE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/sweeps/klagenfurt_cadence.json");

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // This binary exists to pin pool sizes for the bitwise determinism
    // gate — a silently dropped --threads would run the wrong experiment.
    let threads: Option<usize> = flag_value(&args, "--threads").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("repro_sweep: invalid value {v:?} for --threads");
            std::process::exit(2);
        })
    });
    let json = flag_value(&args, "--json").map(str::to_string);
    let path = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && !matches!(
                    args.get(i.wrapping_sub(1)).map(String::as_str),
                    Some("--threads" | "--json")
                )
        })
        .map(|(_, a)| a.as_str())
        .next()
        .unwrap_or(SWEEP_FILE);

    header("E20 — declarative parameter sweep (cadence × backend × seeds)");
    let sweep = Sweep::from_file(path).unwrap_or_else(|e| {
        eprintln!("repro_sweep: cannot load {path}: {e}");
        std::process::exit(2);
    });
    compare("sweep", "klagenfurt_cadence", &sweep.spec.name);
    compare("variants", "18", sweep.spec.variant_count());

    let t0 = Instant::now();
    let run = match threads {
        Some(t) => with_thread_count(t, || sweep.run()),
        None => sweep.run(),
    }
    .unwrap_or_else(|e| {
        eprintln!("repro_sweep: sweep failed to run: {e}");
        std::process::exit(2);
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let report = &run.report;

    println!(
        "\n{:<70} {:>8} {:>9} {:>10} {:>9}",
        "variant", "backend", "samples", "mean (ms)", "Δ (ms)"
    );
    let row = |v: &sixg_measure::sweep::VariantReport| {
        println!(
            "{:<70} {:>8} {:>9} {:>10.4} {:>+9.4}",
            v.label, v.backend, v.total_samples, v.grand_mean_ms, v.delta_grand_mean_ms
        );
    };
    row(&report.base);
    for v in &report.variants {
        row(v);
    }

    let total_samples: u64 =
        std::iter::once(&report.base).chain(&report.variants).map(|v| v.total_samples).sum();
    println!(
        "\nmatrix: {} campaigns, {} samples, {:.3} s wall",
        report.variants.len() + 1,
        total_samples,
        wall_s
    );
    compare("base grand mean (ms)", "74.13", format!("{:.4}", report.base.grand_mean_ms));

    let violations = run.crossval_violations();
    println!("cross-validation violations: {}", violations.len());
    for v in &violations {
        eprintln!("violation: {v}");
    }

    if let Some(out) = &json {
        std::fs::write(out, report.to_json()).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!("wrote {out}");
    }

    if !violations.is_empty() {
        eprintln!(
            "repro_sweep: {} cross-validation violation(s) — backends disagree at a swept cadence",
            violations.len()
        );
        std::process::exit(1);
    }
}
