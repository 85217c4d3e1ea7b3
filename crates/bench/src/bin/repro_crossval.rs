//! E19 — backend cross-validation: analytic vs packet-level event backend.
//!
//! Runs the dense Klagenfurt campaign through both execution backends —
//! the closed-form analytic sampler and the packet-level discrete-event
//! simulator — over the identical (pass, cell) shard list, and asserts
//! their per-cell mean RTLs agree within the documented tolerance:
//!
//! ```text
//! |mean_analytic − mean_event| ≤ 6·SE + SLACK_MS          per cell
//! |gm_analytic − gm_event| / gm_analytic ≤ GRAND_MEAN_TOL grand mean
//! ```
//!
//! where `SE = sqrt(σ_a²/n_a + σ_e²/n_e)` is the standard error of the
//! difference of two independent sample means (the backends draw from
//! disjoint random streams), `6·SE` bounds statistical noise far beyond
//! any plausible fluctuation, and `SLACK_MS` absorbs the backends'
//! second-order modelling differences (the event backend samples the full
//! per-link extra-delay distributions and serialises probes through FIFO
//! queues; the analytic path collapses extras to their means). A violation
//! means one backend's model drifted — the binary exits non-zero so CI can
//! gate on it.
//!
//! ```text
//! cargo run --release --bin repro_crossval -- [--passes N] [--seed S] [--json PATH]
//! ```
//!
//! `--json PATH` writes the machine-readable record (the
//! `BENCH_crossval.json` artifact CI uploads: per-backend wall time, the
//! median of [`TIMING_RUNS`] alternating runs, with the pool size, plus
//! the worst per-cell deviation, seeding the perf trajectory).

use sixg_bench::{compare, header, shared_scenario};
use sixg_measure::aggregate::CellField;
use sixg_measure::campaign::CampaignConfig;
use sixg_measure::event_backend::{
    crossval_tolerance_ms, CROSSVAL_GRAND_MEAN_TOL, CROSSVAL_SLACK_MS,
};
use sixg_measure::exec::run_field;
use sixg_measure::scenario::Scenario;
use sixg_measure::ExecBackend;
use std::time::Instant;

/// Absolute slack on top of the statistical bound, ms (the shared
/// workspace definition — see DESIGN.md "Execution backends").
const SLACK_MS: f64 = CROSSVAL_SLACK_MS;
/// Relative tolerance on the grand-mean agreement.
const GRAND_MEAN_TOL: f64 = CROSSVAL_GRAND_MEAN_TOL;
/// Timed runs per backend. The backends alternate and each records its
/// median, so one run in a slow phase of the host cannot set the ratio.
const TIMING_RUNS: usize = 3;

/// Runs one backend and returns its field and wall time, seconds.
fn timed_run(s: &Scenario, config: CampaignConfig, backend: ExecBackend) -> (CellField, f64) {
    let t = Instant::now();
    let field = run_field(s, config, backend);
    (field, t.elapsed().as_secs_f64())
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn parse_flag(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn json_path(args: &[String]) -> Option<String> {
    args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1)).cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let passes = parse_flag(&args, "--passes", 30) as u32;
    let seed = parse_flag(&args, "--seed", 2);
    let config = CampaignConfig { seed, passes, ..Default::default() };

    let s = shared_scenario();
    header("E19 — backend cross-validation (analytic vs event)");
    compare("campaign passes", "n/a", passes);

    let (mut analytic_runs, mut event_runs) = (Vec::new(), Vec::new());
    let mut fields = None;
    for _ in 0..TIMING_RUNS {
        let (analytic, analytic_s) = timed_run(s, config, ExecBackend::Analytic);
        let (event, event_s) = timed_run(s, config, ExecBackend::Event);
        analytic_runs.push(analytic_s);
        event_runs.push(event_s);
        fields = Some((analytic, event));
    }
    let (analytic, event) = fields.expect("TIMING_RUNS is positive");
    let (analytic_s, event_s) = (median(analytic_runs), median(event_runs));
    let threads = rayon::current_num_threads();

    println!("\nmedian of {TIMING_RUNS} runs each, pool of {threads}:");
    println!("analytic backend: {analytic_s:>8.3} s   ({} samples)", analytic.total_samples());
    println!("event backend:    {event_s:>8.3} s   ({} samples)", event.total_samples());

    let mut violations = 0usize;
    let mut worst_delta_ms = 0.0f64;
    let mut worst_margin = 0.0f64; // delta / tolerance, worst case
    let mut worst_cell = String::new();
    let mut cells: Vec<serde_json::Value> = Vec::new();
    for cell in s.grid.cells() {
        let (a, e) = (analytic.stats(cell), event.stats(cell));
        if a.is_masked() && e.is_masked() {
            continue;
        }
        if a.count != e.count {
            println!("cell {cell}: SAMPLE COUNT MISMATCH {} vs {}", a.count, e.count);
            violations += 1;
            continue;
        }
        let tol = crossval_tolerance_ms(&a, &e);
        let delta = (a.mean_ms - e.mean_ms).abs();
        let margin = delta / tol;
        if margin > worst_margin {
            worst_margin = margin;
            worst_delta_ms = delta;
            worst_cell = cell.label();
        }
        if delta > tol {
            println!(
                "cell {cell}: DEVIATION {delta:.4} ms exceeds tolerance {tol:.4} ms \
                 (analytic {:.4}, event {:.4})",
                a.mean_ms, e.mean_ms
            );
            violations += 1;
        }
        cells.push(serde_json::json!({
            "cell": cell.label(),
            "samples": a.count,
            "analytic_mean_ms": a.mean_ms,
            "event_mean_ms": e.mean_ms,
            "delta_ms": delta,
            "tolerance_ms": tol,
        }));
    }

    let (ga, ge) = (analytic.grand_mean_ms(), event.grand_mean_ms());
    let grand_rel = (ga - ge).abs() / ga;
    if grand_rel > GRAND_MEAN_TOL {
        println!(
            "grand mean: DEVIATION {:.3}% exceeds {:.1}% (analytic {ga:.4}, event {ge:.4})",
            grand_rel * 100.0,
            GRAND_MEAN_TOL * 100.0
        );
        violations += 1;
    }

    compare("grand mean, analytic (ms)", "74.13", format!("{ga:.4}"));
    compare("grand mean, event (ms)", "74.13±1.5%", format!("{ge:.4}"));
    println!(
        "\nworst cell {worst_cell}: |Δmean| {worst_delta_ms:.4} ms at {:.0}% of its tolerance",
        worst_margin * 100.0
    );
    println!(
        "per-cell tolerance: 6·SE + {SLACK_MS} ms; grand-mean tolerance: {:.1}%",
        GRAND_MEAN_TOL * 100.0
    );
    println!("violations: {violations}");

    if let Some(path) = json_path(&args) {
        let doc = serde_json::json!({
            "bench": "repro_crossval",
            "passes": passes,
            "seed": seed,
            "total_samples": analytic.total_samples(),
            "threads": threads,
            "analytic_seconds": analytic_s,
            "event_seconds": event_s,
            "event_over_analytic": event_s / analytic_s,
            "grand_mean_analytic_ms": ga,
            "grand_mean_event_ms": ge,
            "grand_mean_rel_delta": grand_rel,
            "worst_cell": worst_cell,
            "worst_delta_ms": worst_delta_ms,
            "worst_margin_of_tolerance": worst_margin,
            "tolerance_per_cell": "6*SE + 0.75 ms",
            "tolerance_grand_mean_rel": GRAND_MEAN_TOL,
            "violations": violations,
            "cells": cells,
        });
        let text = serde_json::to_string_pretty(&doc).expect("crossval record serialises");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }

    if violations > 0 {
        eprintln!("repro_crossval: {violations} cross-validation violation(s) — backends disagree");
        std::process::exit(1);
    }
}
