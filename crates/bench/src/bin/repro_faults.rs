//! E22 — control-plane convergence gates for fault-bearing campaigns.
//!
//! Locks down the live control plane ([`sixg_netsim::routing::dynamic`])
//! and the fault-aware campaign runner (`sixg_measure::faults`) with
//! three gates over the committed Klagenfurt transit-flap scenario
//! (`specs/klagenfurt_flap.json`):
//!
//! 1. **Static equivalence** — with no faults, the message-level BGP
//!    speakers must converge to exactly the static Gao–Rexford fixed
//!    point: for every (cell, target) route of each committed spec, the
//!    converged RIB's best path (AS sequence *and* preference class,
//!    stitched down to the router level) equals the cached static route.
//! 2. **Recovery** — after the flap recovers, every cell whose dwell
//!    windows never overlap an outage (plus reconvergence slack) must
//!    agree with an unfaulted run of the same spec within the backend
//!    cross-validation tolerance `6·SE + 0.75 ms` per cell.
//! 3. **Determinism** — the faulted campaign is bitwise identical at
//!    pool sizes 1, 2 and 4.
//!
//! A violation in any gate exits non-zero so CI can gate on it.
//!
//! ```text
//! cargo run --release --bin repro_faults -- [--flap-spec PATH] [--passes N] [--json PATH]
//! ```
//!
//! `--json PATH` writes the machine-readable record (the
//! `BENCH_faults.json` artifact CI uploads). The record carries no wall
//! times or pool sizes — every field is bitwise-deterministic, so CI
//! reruns the binary at a different pool size and `cmp`s the two files.

use sixg_measure::campaign::CampaignConfig;
use sixg_measure::event_backend::crossval_tolerance_ms;
use sixg_measure::exec::run_field;
use sixg_measure::faults::FaultCampaign;
use sixg_measure::klagenfurt::{klagenfurt_flap_spec, klagenfurt_spec};
use sixg_measure::megacity::megacity_spec;
use sixg_measure::parallel::with_thread_count;
use sixg_measure::scenario::Scenario;
use sixg_measure::skopje::skopje_spec;
use sixg_measure::spec::{parse_backend, ExecBackend, ScenarioSpec};
use sixg_netsim::routing::dynamic::ControlPlane;
use sixg_netsim::routing::PathComputer;
use std::time::Instant;

/// Reconvergence slack added after each recovery before a dwell window
/// counts as untouched, seconds. BGP reconvergence takes milliseconds;
/// whole seconds bury any transient.
const RECOVERY_MARGIN_S: f64 = 5.0;

fn parse_flag(args: &[String], flag: &str) -> Option<u64> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("repro_faults: {flag} needs an unsigned integer, got {v:?}");
            std::process::exit(2);
        })
    })
}

fn string_flag(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

/// Gate 1 for one spec: count the (cell, target) routes where the
/// converged dynamic control plane disagrees with the cached static
/// fixed point. Returns `(routes_checked, mismatches)`.
fn static_equivalence(s: &Scenario) -> (usize, usize) {
    let cp = ControlPlane::converged_from_topology(&s.topo, &s.as_graph);
    let pc = PathComputer::new(&s.topo, &s.as_graph);
    let targets = s.measurement_targets();
    let mut mismatches = 0usize;
    for (&(cell, ti), cached) in &s.routes {
        let ue = s.ue[&cell];
        let target = targets[ti];
        let dynamic = cp
            .best_route(s.topo.node(ue).asn, s.topo.node(target).asn)
            .and_then(|as_path| pc.route_along(ue, target, &as_path));
        if dynamic.as_ref() != Some(cached) {
            if mismatches == 0 {
                eprintln!(
                    "{}: cell {cell} target {ti}: dynamic route {:?} != static {:?}",
                    s.name, dynamic, cached
                );
            }
            mismatches += 1;
        }
    }
    (s.routes.len(), mismatches)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    // The flap scenario under test: the committed spec, or an override
    // (CI and the exit-code tests feed doctored variants through this).
    let flap_spec = match string_flag(&args, "--flap-spec") {
        None => klagenfurt_flap_spec().clone(),
        Some(path) => {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("repro_faults: cannot read {path}: {e}");
                std::process::exit(2);
            });
            let spec = ScenarioSpec::from_json(&text).unwrap_or_else(|e| {
                eprintln!("repro_faults: {path}: {e}");
                std::process::exit(2);
            });
            let errors = spec.validate();
            if !errors.is_empty() {
                for e in &errors {
                    eprintln!("repro_faults: {path}: {e}");
                }
                std::process::exit(2);
            }
            spec
        }
    };
    let passes = parse_flag(&args, "--passes").map_or(flap_spec.campaign.passes, |p| p as u32);
    let config = CampaignConfig {
        seed: flap_spec.campaign.seed,
        sample_interval_s: flap_spec.campaign.sample_interval_s,
        passes,
    };

    println!("\n=== E22 — control-plane convergence gates (fault campaigns) ===");
    let mut violations = 0usize;

    // Gate 1 — static equivalence on every committed spec plus the flap
    // spec's own (fault-free) topology.
    let committed =
        [klagenfurt_spec().clone(), skopje_spec().clone(), megacity_spec().clone(), flap_spec];
    let mut routes_checked = 0usize;
    let mut equivalence = Vec::new();
    for spec in &committed {
        let s = Scenario::from_spec(spec).unwrap_or_else(|e| {
            eprintln!("repro_faults: spec {}: {e}", spec.name);
            std::process::exit(2);
        });
        let (routes, mismatches) = static_equivalence(&s);
        println!(
            "gate 1  {:<18} {routes:>4} routes, {mismatches} dynamic/static mismatch(es)",
            s.name
        );
        routes_checked += routes;
        violations += mismatches;
        equivalence.push(serde_json::json!({
            "spec": s.name,
            "routes": routes,
            "mismatches": mismatches,
        }));
    }
    let [.., ref flap_spec] = committed;
    let flap = Scenario::from_spec(flap_spec).expect("validated above");

    // Gate 3 first (its 1-thread run doubles as gate 2's faulted field) —
    // the faulted campaign must be bitwise identical at pool sizes 1/2/4.
    let t0 = Instant::now();
    let backend = parse_backend(&flap_spec.backend).expect("validated backend tag");
    let faulted = with_thread_count(1, || run_field(&flap, config, backend));
    let faulted_s = t0.elapsed().as_secs_f64();
    for threads in [2usize, 4] {
        let again = with_thread_count(threads, || run_field(&flap, config, backend));
        for cell in flap.grid.cells() {
            let (a, b) = (faulted.stats(cell), again.stats(cell));
            if a.count != b.count
                || a.mean_ms.to_bits() != b.mean_ms.to_bits()
                || a.std_ms.to_bits() != b.std_ms.to_bits()
            {
                eprintln!("gate 3: cell {cell} differs between 1 and {threads} threads");
                violations += 1;
            }
        }
    }
    println!("gate 3  bitwise determinism at pool sizes 1/2/4 checked ({faulted_s:>6.2} s/run)");

    // Gate 2 — strip the faults, rerun, and compare the untouched cells.
    let mut clean_spec = flap_spec.clone();
    clean_spec.faults = Vec::new();
    clean_spec.backend = "event".into();
    let clean = Scenario::from_spec(&clean_spec).expect("stripping faults keeps the spec valid");
    let unfaulted = run_field(&clean, config, ExecBackend::Event);

    let fc = FaultCampaign::new(&flap, config);
    let outages = fc.outages();
    let untouched = fc.untouched_cells(RECOVERY_MARGIN_S);
    if untouched.is_empty() {
        // An eternal outage (or one spanning every dwell window) leaves
        // nothing to certify recovery against — the gate cannot pass
        // vacuously.
        eprintln!("gate 2: no untouched cell — the fault schedule never lets the campaign recover");
        violations += 1;
    }
    let mut worst_margin = 0.0f64;
    let mut worst_cell = String::new();
    let mut recovery = Vec::new();
    for &cell in &untouched {
        let (f, u) = (faulted.stats(cell), unfaulted.stats(cell));
        if f.is_masked() && u.is_masked() {
            continue;
        }
        let tol = crossval_tolerance_ms(&f, &u);
        let delta = (f.mean_ms - u.mean_ms).abs();
        if f.count != u.count || delta > tol {
            eprintln!(
                "gate 2: untouched cell {cell} drifted: faulted {:.4} ms / {} samples \
                 vs unfaulted {:.4} ms / {} samples (tolerance {tol:.4} ms)",
                f.mean_ms, f.count, u.mean_ms, u.count
            );
            violations += 1;
        }
        let margin = delta / tol;
        if margin >= worst_margin {
            worst_margin = margin;
            worst_cell = cell.label();
        }
        recovery.push(serde_json::json!({
            "cell": cell.label(),
            "samples": f.count,
            "faulted_mean_ms": f.mean_ms,
            "unfaulted_mean_ms": u.mean_ms,
            "delta_ms": delta,
            "tolerance_ms": tol,
        }));
    }
    println!(
        "gate 2  {} untouched cell(s) vs unfaulted run; worst {worst_cell} at {:.1}% of tolerance",
        untouched.len(),
        worst_margin * 100.0
    );

    println!("\nflap campaign:  {passes} pass(es), grand mean {:.4} ms", faulted.grand_mean_ms());
    println!("unfaulted run:  grand mean {:.4} ms", unfaulted.grand_mean_ms());
    println!(
        "outage windows: {outages:?} s; {} sample(s) blackholed",
        unfaulted.total_samples() - faulted.total_samples()
    );
    println!("violations: {violations}");

    if let Some(path) = string_flag(&args, "--json") {
        let doc = serde_json::json!({
            "bench": "repro_faults",
            "spec": flap_spec.name,
            "passes": passes,
            "campaign_seed": config.seed,
            "routes_checked": routes_checked,
            "static_equivalence": equivalence,
            "outages_s": outages,
            "recovery_margin_s": RECOVERY_MARGIN_S,
            "untouched_cells": untouched.iter().map(|c| c.label()).collect::<Vec<_>>(),
            "recovery": recovery,
            "worst_cell": worst_cell,
            "worst_margin_of_tolerance": worst_margin,
            "grand_mean_faulted_ms": faulted.grand_mean_ms(),
            "grand_mean_unfaulted_ms": unfaulted.grand_mean_ms(),
            "total_samples_faulted": faulted.total_samples(),
            "total_samples_unfaulted": unfaulted.total_samples(),
            "violations": violations,
        });
        let text = serde_json::to_string_pretty(&doc).expect("faults record serialises");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }

    if violations > 0 {
        eprintln!("repro_faults: {violations} convergence gate violation(s)");
        std::process::exit(1);
    }
}
