//! E23 — the checkpointed mega-sweep study, and the kill/resume/merge gate.
//!
//! Runs the three committed E23 mega-sweeps — `mega_klagenfurt` (cadence ×
//! density × fault recovery × 10 seeds over the faulted Klagenfurt base,
//! every variant on the live BGP control plane), `mega_skopje` and
//! `mega_megacity` (cadence × density × both backends × 10 seeds) — as
//! **checkpointed** runs spilling to an on-disk store per sweep, then
//! gates on three properties:
//!
//! 1. **Resume identity.** The store layer is exercised end to end: every
//!    run executes through `run_checkpointed` (spill + read-back), and an
//!    invocation with `--kill-after K` aborts at the committed cursor so a
//!    rerun with the same `--store` must resume into a report bitwise
//!    identical to a never-killed run (CI `cmp`s the JSON artifacts).
//! 2. **Merge identity.** One sweep is additionally executed as two
//!    disjoint shard stores and folded back with `merge_stores`; the
//!    merged report must equal the unsharded one byte for byte.
//! 3. **Cross-validation.** Every analytic/event variant pair of the
//!    backend-swept legs must agree within the workspace tolerances.
//!
//! Any violation exits 1. `--json PATH` writes the combined
//! `BENCH_megasweep.json` artifact — the three `SweepReport`s under one
//! document, no wall times, **bitwise identical across pool sizes and
//! kill positions**.
//!
//! ```text
//! cargo run --release --bin repro_megasweep -- \
//!     [--threads N] [--store DIR] [--kill-after K] [--json PATH]
//! ```

use sixg_bench::{compare, header};
use sixg_measure::parallel::with_thread_count;
use sixg_measure::store::{run_checkpointed, CheckpointConfig, CheckpointOutcome};
use sixg_measure::sweep::{Sweep, SweepRun};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SWEEPS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/sweeps");
const SWEEPS: [&str; 3] = ["mega_klagenfurt", "mega_skopje", "mega_megacity"];
/// The sweep that additionally runs as two shards and re-merges.
const SHARDED: &str = "mega_skopje";

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn load(name: &str) -> Sweep {
    let path = format!("{SWEEPS_DIR}/{name}.json");
    Sweep::from_file(&path).unwrap_or_else(|e| {
        eprintln!("repro_megasweep: cannot load {path}: {e}");
        std::process::exit(2);
    })
}

/// Runs one sweep checkpointed under `dir`, resuming whatever the store
/// already holds. `kill_after` aborts the process at the committed cursor
/// once that many items of *this shard's remaining work* are folded.
fn run_leg(
    sweep: &Sweep,
    dir: PathBuf,
    shard: Option<(u32, u32)>,
    kill_after: Option<u64>,
    threads: Option<usize>,
) -> Option<SweepRun> {
    let mut cfg = CheckpointConfig::new(dir);
    if let Some((i, n)) = shard {
        cfg.shard_index = i;
        cfg.shard_count = n;
    }
    cfg.stop_after_items = kill_after;
    let outcome = match threads {
        Some(t) => with_thread_count(t, || run_checkpointed(sweep, &cfg)),
        None => run_checkpointed(sweep, &cfg),
    }
    .unwrap_or_else(|e| {
        eprintln!("repro_megasweep: {e}");
        std::process::exit(1);
    });
    match outcome {
        CheckpointOutcome::Complete(run) => Some(*run),
        CheckpointOutcome::ShardComplete { .. } => None,
        CheckpointOutcome::Interrupted { done_items, total_items } => {
            // Behave like a real kill: cursor committed, then die without
            // a clean exit status — CI reruns with the same --store and
            // must land on identical bits.
            eprintln!(
                "repro_megasweep: killed at checkpoint cursor {done_items}/{total_items} \
                 (--kill-after) — rerun with the same --store to resume"
            );
            std::process::abort();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads: Option<usize> = flag_value(&args, "--threads").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("repro_megasweep: invalid value {v:?} for --threads");
            std::process::exit(2);
        })
    });
    let kill_after: Option<u64> = flag_value(&args, "--kill-after").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("repro_megasweep: invalid value {v:?} for --kill-after");
            std::process::exit(2);
        })
    });
    let json = flag_value(&args, "--json").map(str::to_string);
    let store_root: PathBuf = match flag_value(&args, "--store") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("sixg-megasweep-{}", std::process::id())),
    };

    header("E23 — checkpointed mega-sweeps (kill/resume/merge gate)");
    println!("store root: {}", store_root.display());

    // `--kill-after` applies to the first leg that still has work, so a
    // killed invocation dies mid-study and the rerun proves resume across
    // sweep boundaries as well as within one.
    let mut kill = kill_after;
    let mut reports = Vec::new();
    let mut total_variants = 0usize;
    let mut violations_total = 0usize;
    for name in SWEEPS {
        let sweep = load(name);
        total_variants += sweep.spec.variant_count();
        let t0 = Instant::now();
        let run = run_leg(&sweep, store_root.join(name), None, kill.take(), threads)
            .expect("unsharded run always yields a report");
        println!(
            "{name}: {} variants, {} samples, {:.3} s wall",
            run.report.variants.len(),
            std::iter::once(&run.report.base)
                .chain(&run.report.variants)
                .map(|v| v.total_samples)
                .sum::<u64>(),
            t0.elapsed().as_secs_f64()
        );
        let violations = run.crossval_violations();
        for v in &violations {
            eprintln!("violation ({name}): {v}");
        }
        violations_total += violations.len();
        reports.push((name, run));
    }
    compare("total variants", "420", total_variants);

    // Merge gate: re-run one sweep as two disjoint shard stores and fold
    // them back; the merged report must bit-reproduce the unsharded one.
    let sweep = load(SHARDED);
    let shard_dirs =
        [store_root.join(format!("{SHARDED}_s0")), store_root.join(format!("{SHARDED}_s1"))];
    for (i, dir) in shard_dirs.iter().enumerate() {
        let done = run_leg(&sweep, dir.clone(), Some((i as u32, 2)), None, threads);
        assert!(done.is_none(), "a 2-shard leg must end ShardComplete");
    }
    let merged = sixg_measure::store::merge_stores(&sweep, &shard_dirs).unwrap_or_else(|e| {
        eprintln!("repro_megasweep: merge failed: {e}");
        std::process::exit(1);
    });
    let unsharded = &reports.iter().find(|(n, _)| *n == SHARDED).expect("sharded leg ran").1;
    let merge_bitwise = merged.report.to_json() == unsharded.report.to_json();
    compare("2-shard merge bitwise", "true", merge_bitwise);

    if let Some(out) = &json {
        // The combined artifact: three SweepReports under one document.
        // No wall times anywhere, so the file is bitwise stable across
        // pool sizes and kill/resume positions.
        let doc = serde_json::Value::Object(vec![
            ("experiment".into(), serde_json::Value::String("E23".into())),
            (
                "sweeps".into(),
                serde_json::Value::Array(
                    reports
                        .iter()
                        .map(|(_, run)| {
                            serde_json::from_str(&run.report.to_json())
                                .expect("SweepReport round-trips")
                        })
                        .collect(),
                ),
            ),
        ]);
        let text = serde_json::to_string_pretty(&doc).expect("artifact serialises");
        std::fs::write(out, text).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!("wrote {out}");
    }

    if violations_total > 0 {
        eprintln!(
            "repro_megasweep: {violations_total} cross-validation violation(s) — backends disagree"
        );
        std::process::exit(1);
    }
    if !merge_bitwise {
        eprintln!("repro_megasweep: merged shard report differs from the unsharded run");
        std::process::exit(1);
    }
    // Leave the store on disk only when the caller chose where it lives.
    if flag_value(&args, "--store").is_none() {
        let _ = std::fs::remove_dir_all(Path::new(&store_root));
    }
}
