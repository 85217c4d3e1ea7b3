//! E18 — parallel scaling: sequential vs thread-pool campaign execution.
//!
//! Runs the same Klagenfurt campaign through the sequential runner and
//! through the facade's analytic runner at several pool sizes, reports wall time and
//! speedup, and **verifies bitwise equality** of every parallel result
//! against the sequential baseline. A mismatch is a determinism-contract
//! violation and exits non-zero, so CI can use this binary as a smoke
//! gate. Speedup itself is hardware-dependent (a single-core container
//! measures only scheduling overhead) and is reported, not asserted.
//!
//! ```text
//! cargo run --release --bin repro_scaling -- [--passes N] [--seed S] [--json PATH]
//! ```
//!
//! `--json PATH` additionally writes the machine-readable timing record
//! (the `BENCH_parallel.json` artifact CI uploads, seeding the perf
//! trajectory).

use sixg_bench::{compare, header, shared_scenario};
use sixg_measure::aggregate::CellField;
use sixg_measure::campaign::CampaignConfig;
use sixg_measure::exec::{run_field, run_field_sequential};
use sixg_measure::parallel::with_thread_count;
use sixg_measure::ExecBackend;
use std::time::Instant;

fn parse_flag(args: &[String], flag: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Bitwise comparison over every cell; returns the first differing cell.
fn first_difference(
    s: &sixg_measure::KlagenfurtScenario,
    a: &CellField,
    b: &CellField,
) -> Option<String> {
    for cell in s.grid.cells() {
        let (x, y) = (a.stats(cell), b.stats(cell));
        if x.count != y.count
            || x.mean_ms.to_bits() != y.mean_ms.to_bits()
            || x.std_ms.to_bits() != y.std_ms.to_bits()
        {
            return Some(format!(
                "cell {cell}: seq (n={}, mean={:.17}, std={:.17}) vs par (n={}, mean={:.17}, std={:.17})",
                x.count, x.mean_ms, x.std_ms, y.count, y.mean_ms, y.std_ms
            ));
        }
    }
    None
}

fn json_path(args: &[String]) -> Option<String> {
    args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1)).cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let passes = parse_flag(&args, "--passes", 8) as u32;
    let seed = parse_flag(&args, "--seed", 1);
    let config = CampaignConfig { seed, passes, ..Default::default() };

    let s = shared_scenario();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    header("E18 — parallel scaling (sequential vs thread pool)");
    compare("hardware threads available", "n/a", cores);
    compare("campaign passes", "n/a", passes);

    // Warm up caches (scenario routes, allocator) outside the timed region.
    let _ = run_field_sequential(s, CampaignConfig { passes: 1, ..config }, ExecBackend::Analytic);

    let t0 = Instant::now();
    let sequential = run_field_sequential(s, config, ExecBackend::Analytic);
    let seq_s = t0.elapsed().as_secs_f64();
    println!("\nsequential: {:>8.3} s   ({} samples)", seq_s, sequential.total_samples());

    let mut all_equal = true;
    let mut best_speedup = 0.0f64;
    let mut runs: Vec<serde_json::Value> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let t = Instant::now();
        let parallel = with_thread_count(threads, || run_field(s, config, ExecBackend::Analytic));
        let par_s = t.elapsed().as_secs_f64();
        let speedup = seq_s / par_s;
        best_speedup = best_speedup.max(speedup);
        let difference = first_difference(s, &sequential, &parallel);
        let bitwise_equal = difference.is_none();
        let verdict = match difference {
            None => "bitwise equal".to_string(),
            Some(diff) => {
                all_equal = false;
                format!("MISMATCH — {diff}")
            }
        };
        println!("{threads:>2} threads: {par_s:>8.3} s   speedup {speedup:>5.2}x   {verdict}");
        runs.push(serde_json::json!({
            "threads": threads,
            "seconds": par_s,
            "speedup": speedup,
            "bitwise_equal": bitwise_equal,
        }));
    }

    println!("\nbest speedup: {best_speedup:.2}x over sequential on {cores} hardware thread(s)");
    println!("parallel output identical to sequential: {all_equal}");

    if let Some(path) = json_path(&args) {
        let doc = serde_json::json!({
            "bench": "repro_scaling",
            "passes": passes,
            "seed": seed,
            "hardware_threads": cores,
            "total_samples": sequential.total_samples(),
            "sequential_seconds": seq_s,
            "best_speedup": best_speedup,
            "all_bitwise_equal": all_equal,
            "runs": runs,
        });
        let text = serde_json::to_string_pretty(&doc).expect("timing record serialises");
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path}");
    }

    if !all_equal {
        eprintln!(
            "repro_scaling: parallel output differs from sequential — determinism contract broken"
        );
        std::process::exit(1);
    }
}
