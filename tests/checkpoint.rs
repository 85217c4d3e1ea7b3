//! Tier-1 contract of checkpointed sweep execution: the kill/resume/merge
//! torture suite.
//!
//! The store's promise is *bitwise transparency* — a sweep that is killed
//! at any checkpoint boundary, at any checkpoint interval, on any thread
//! pool, resumes into a report byte-identical to a run that never died;
//! and disjoint shard stores fold back into that same report. Every test
//! here compares serialized `SweepReport`s (`to_json()`, which carries no
//! wall times) for *equality of every byte*.

use sixg_measure::klagenfurt::klagenfurt_spec;
use sixg_measure::parallel::with_thread_count;
use sixg_measure::store::{
    merge_stores, run_checkpointed, CheckpointConfig, CheckpointError, CheckpointOutcome,
};
use sixg_measure::sweep::{AxisDef, Sweep, SweepSpec, DEFAULT_REQUIREMENT_MS, MAX_VARIANTS};
use sixg_netsim::rng::splitmix64;
use std::path::{Path, PathBuf};

const COMMITTED_SWEEP: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/specs/sweeps/klagenfurt_cadence.json");

/// A Klagenfurt base trimmed to `passes` traversals, as JSON.
fn base_json(passes: u32) -> String {
    let mut spec = klagenfurt_spec().clone();
    spec.campaign.passes = passes;
    spec.to_json()
}

fn sweep_spec(name: &str, axes: Vec<AxisDef>) -> SweepSpec {
    SweepSpec {
        name: name.into(),
        description: String::new(),
        base: "inline".into(),
        requirement_ms: DEFAULT_REQUIREMENT_MS,
        axes,
    }
}

/// The torture sweep: small enough for a fuzz loop (1 pass, 2 cadences ×
/// 2 seeds = 4 variants + base), large enough that checkpoint boundaries
/// land inside runs, between runs, and across the whole work list.
fn torture_sweep() -> Sweep {
    let spec = sweep_spec(
        "torture",
        vec![
            AxisDef::Override {
                path: "$.campaign.sample_interval_s".into(),
                values: vec![serde::Value::F64(2.0), serde::Value::F64(4.0)],
            },
            AxisDef::Seeds { start: 11, count: 2 },
        ],
    );
    Sweep::new(spec, &base_json(1)).expect("torture sweep is valid")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sixg-ckpt-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `sweep` checkpointed to completion in one go and returns the
/// report JSON.
fn run_to_completion(sweep: &Sweep, dir: &Path, interval: usize, pool: usize) -> String {
    let mut cfg = CheckpointConfig::new(dir.to_path_buf());
    cfg.interval = interval;
    let outcome =
        with_thread_count(pool, || run_checkpointed(sweep, &cfg)).expect("checkpointed run");
    match outcome {
        CheckpointOutcome::Complete(run) => run.report.to_json(),
        other => panic!("expected Complete, got {other:?}"),
    }
}

/// The kill/resume property, fuzzed: 16 deterministic (kill position,
/// interval, pool size) triples — intervals {7, 64, 256}, pools {1, 2, 4},
/// kill anywhere in the work list including mid-shard-range — and each
/// resumed report must equal the uninterrupted one byte for byte. Four
/// fixed cases add interval 33 with kills at 33, 66, 99 and 132: every run
/// is 33 items, so each round ends on an interior run boundary, where the
/// next item belongs to another run and the finished run spills at the
/// round's end.
#[test]
fn fuzzed_kill_resume_is_bitwise_identical() {
    let sweep = torture_sweep();
    let clean = sweep.run().expect("clean run").report.to_json();
    // Pool-size independence of the clean checkpointed run itself.
    for pool in [1usize, 2, 4] {
        let dir = scratch(&format!("clean-p{pool}"));
        assert_eq!(
            run_to_completion(&sweep, &dir, 64, pool),
            clean,
            "uninterrupted checkpointed run must match Sweep::run at pool {pool}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    let intervals = [7usize, 64, 256];
    let pools = [1usize, 2, 4];
    // 165 items in the torture sweep's work list (5 runs × 33 traversed
    // cells × 1 pass); fuzzed kills land in [1, 164].
    let fuzzed = (0u64..16).map(|case| {
        let h = splitmix64(0xC0FFEE ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (intervals[(h % 3) as usize], pools[((h >> 8) % 3) as usize], 1 + (h >> 16) % 164)
    });
    let boundaries = (1u64..=4).map(|k| (33usize, pools[k as usize % 3], 33 * k));
    for (case, (interval, pool, kill_at)) in fuzzed.chain(boundaries).enumerate() {
        let dir = scratch(&format!("fuzz-{case}"));

        // First invocation: killed at a cursor position.
        let mut cfg = CheckpointConfig::new(dir.clone());
        cfg.interval = interval;
        cfg.stop_after_items = Some(kill_at);
        let outcome =
            with_thread_count(pool, || run_checkpointed(&sweep, &cfg)).expect("killed run");
        match outcome {
            CheckpointOutcome::Interrupted { done_items, total_items } => {
                assert_eq!(done_items, kill_at, "cursor must sit exactly at the kill point");
                assert_eq!(total_items, 165);
            }
            other => panic!("case {case}: expected Interrupted, got {other:?}"),
        }

        // Second invocation, same store: must resume into identical bits.
        cfg.stop_after_items = None;
        let outcome =
            with_thread_count(pool, || run_checkpointed(&sweep, &cfg)).expect("resumed run");
        let resumed = match outcome {
            CheckpointOutcome::Complete(run) => run.report.to_json(),
            other => panic!("case {case}: expected Complete, got {other:?}"),
        };
        assert_eq!(
            resumed, clean,
            "case {case}: kill at {kill_at}, interval {interval}, pool {pool} must be transparent"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Two kills at different cursors before the final resume — the store must
/// survive repeated interruption, not just one.
#[test]
fn double_kill_then_resume_is_bitwise_identical() {
    let sweep = torture_sweep();
    let clean = sweep.run().expect("clean run").report.to_json();
    let dir = scratch("double-kill");
    let mut cfg = CheckpointConfig::new(dir.clone());
    cfg.interval = 13;
    for kill_at in [20u64, 71] {
        cfg.stop_after_items = Some(kill_at);
        match run_checkpointed(&sweep, &cfg).expect("killed run") {
            CheckpointOutcome::Interrupted { done_items, .. } => assert_eq!(done_items, kill_at),
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }
    cfg.stop_after_items = None;
    match run_checkpointed(&sweep, &cfg).expect("resumed run") {
        CheckpointOutcome::Complete(run) => assert_eq!(run.report.to_json(), clean),
        other => panic!("expected Complete, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-invoking a completed store re-reads the spilled blobs instead of
/// recomputing, and still produces the identical report.
#[test]
fn resume_after_complete_is_idempotent() {
    let sweep = torture_sweep();
    let dir = scratch("idempotent");
    let first = run_to_completion(&sweep, &dir, 64, 2);
    let again = run_to_completion(&sweep, &dir, 64, 2);
    assert_eq!(first, again);
    assert_eq!(first, sweep.run().expect("clean run").report.to_json());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Three disjoint shard stores — sizes differing by one, run mid-kill on
/// one shard for good measure — merge into the unsharded report bitwise.
#[test]
fn three_shard_merge_bit_reproduces_unsharded() {
    let sweep = torture_sweep();
    let clean = sweep.run().expect("clean run").report.to_json();
    let dirs: Vec<PathBuf> = (0..3).map(|i| scratch(&format!("shard-{i}"))).collect();
    for (i, dir) in dirs.iter().enumerate() {
        let mut cfg = CheckpointConfig::new(dir.clone());
        cfg.shard_index = i as u32;
        cfg.shard_count = 3;
        cfg.interval = 17;
        if i == 1 {
            // Kill shard 1 mid-way first; its resume must be transparent
            // through the merge as well.
            cfg.stop_after_items = Some(5);
            match run_checkpointed(&sweep, &cfg).expect("killed shard") {
                CheckpointOutcome::Interrupted { .. } => {}
                other => panic!("expected Interrupted, got {other:?}"),
            }
            cfg.stop_after_items = None;
        }
        match run_checkpointed(&sweep, &cfg).expect("shard run") {
            CheckpointOutcome::ShardComplete { shard_index, shard_count, .. } => {
                assert_eq!((shard_index, shard_count), (i as u32, 3));
            }
            other => panic!("expected ShardComplete, got {other:?}"),
        }
    }
    let merged = merge_stores(&sweep, &dirs).expect("merge");
    assert_eq!(merged.report.to_json(), clean);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Merge refuses incomplete shard sets (naming the missing run), shards of
/// a different sweep, and incomplete shards.
#[test]
fn merge_rejects_gaps_foreign_stores_and_incomplete_shards() {
    let sweep = torture_sweep();
    let dirs: Vec<PathBuf> = (0..2).map(|i| scratch(&format!("gap-{i}"))).collect();
    for (i, dir) in dirs.iter().enumerate() {
        let mut cfg = CheckpointConfig::new(dir.clone());
        cfg.shard_index = i as u32;
        cfg.shard_count = 2;
        run_checkpointed(&sweep, &cfg).expect("shard run");
    }

    // Gap: only shard 1 of 2 offered.
    let err = merge_stores(&sweep, &dirs[1..]).expect_err("gap must be rejected");
    let msg = err.to_string();
    assert!(msg.contains("no shard store covers run 0"), "{msg}");

    // Foreign store: same shard geometry, different sweep content.
    let other_spec = sweep_spec(
        "torture",
        vec![
            AxisDef::Override {
                path: "$.campaign.sample_interval_s".into(),
                values: vec![serde::Value::F64(1.0), serde::Value::F64(4.0)],
            },
            AxisDef::Seeds { start: 11, count: 2 },
        ],
    );
    let other = Sweep::new(other_spec, &base_json(1)).expect("other sweep is valid");
    let err = merge_stores(&other, &dirs).expect_err("foreign store must be rejected");
    let msg = err.to_string();
    assert!(msg.contains("spec hash mismatch"), "{msg}");
    assert!(msg.contains("manifest.json"), "error must be path-anchored: {msg}");

    // Incomplete shard: killed mid-way, never resumed.
    let part = scratch("gap-part");
    let mut cfg = CheckpointConfig::new(part.clone());
    cfg.shard_index = 0;
    cfg.shard_count = 2;
    cfg.stop_after_items = Some(3);
    run_checkpointed(&sweep, &cfg).expect("killed shard");
    let err = merge_stores(&sweep, &[part.clone(), dirs[1].clone()])
        .expect_err("incomplete shard must be rejected");
    let msg = err.to_string();
    assert!(msg.contains("incomplete"), "{msg}");

    for dir in dirs.iter().chain([&part]) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Overlapping run ranges (2-shard and 3-shard stores of the same sweep
/// mixed) are rejected with both owners named.
#[test]
fn merge_rejects_overlapping_shard_ranges() {
    let sweep = torture_sweep();
    let a = scratch("overlap-a");
    let b = scratch("overlap-b");
    for (dir, count) in [(&a, 2u32), (&b, 3u32)] {
        let mut cfg = CheckpointConfig::new((*dir).clone());
        cfg.shard_index = 0;
        cfg.shard_count = count;
        run_checkpointed(&sweep, &cfg).expect("shard run");
    }
    let err = merge_stores(&sweep, &[a.clone(), b.clone()]).expect_err("overlap");
    let msg = err.to_string();
    assert!(msg.contains("overlap"), "{msg}");
    for dir in [&a, &b] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A store written for one sweep refuses to resume another (the manifest
/// check), and a doctored cursor is caught by the work-list cross-check.
#[test]
fn resume_rejects_a_store_of_a_different_sweep() {
    let sweep = torture_sweep();
    let dir = scratch("foreign-resume");
    let mut cfg = CheckpointConfig::new(dir.clone());
    cfg.stop_after_items = Some(10);
    run_checkpointed(&sweep, &cfg).expect("killed run");

    let other_spec = sweep_spec("torture", vec![AxisDef::Seeds { start: 99, count: 4 }]);
    let other = Sweep::new(other_spec, &base_json(1)).expect("other sweep is valid");
    let err = match run_checkpointed(&other, &CheckpointConfig::new(dir.clone())) {
        Err(CheckpointError::Store(e)) => e,
        other => panic!("expected a store error, got {other:?}"),
    };
    assert!(err.message.contains("spec hash mismatch"), "{err}");
    assert!(err.path.contains("manifest.json"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cap is a limit of in-memory execution only: an over-cap sweep
/// loads, `Sweep::run` refuses it with an error that names the escape
/// hatch, and checkpointed execution accepts it.
#[test]
fn cap_limits_only_in_memory_execution() {
    let spec =
        sweep_spec("mega", vec![AxisDef::Seeds { start: 0, count: (MAX_VARIANTS + 1) as u32 }]);
    assert_eq!(spec.variant_count(), MAX_VARIANTS + 1);

    let sweep = Sweep::new(spec, &base_json(1)).expect("an over-cap sweep loads");
    assert_eq!(sweep.spec.variant_count(), MAX_VARIANTS + 1);

    let err = sweep.run().expect_err("over the in-memory cap");
    let msg = err.to_string();
    assert!(msg.contains("cap"), "{msg}");
    assert!(msg.contains("--checkpoint"), "the error must name the escape hatch: {msg}");

    let dir = scratch("over-cap");
    let mut cfg = CheckpointConfig::new(dir.clone());
    cfg.stop_after_items = Some(1);
    match run_checkpointed(&sweep, &cfg).expect("checkpointed execution has no cap") {
        CheckpointOutcome::Interrupted { done_items, .. } => assert_eq!(done_items, 1),
        other => panic!("expected Interrupted, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Loading without a cap must not swallow real validation errors: an
    // invalid sweep stays invalid.
    let bad = sweep_spec("bad", vec![AxisDef::Seeds { start: 0, count: 0 }]);
    assert!(Sweep::new(bad, &base_json(1)).is_err());
}

/// Satellite of the merge-algebra property: checkpointed, 2-shard-merged
/// and streaming execution of the *committed* cadence sweep's matrix
/// (base trimmed to 2 passes for test runtime) all agree bitwise.
#[test]
fn committed_cadence_matrix_checkpoint_and_merge_match_streaming() {
    let text = std::fs::read_to_string(COMMITTED_SWEEP).expect("committed sweep file");
    let spec = SweepSpec::from_json(&text).expect("committed sweep parses");
    let sweep = Sweep::new(spec, &base_json(2)).expect("trimmed committed sweep");
    assert_eq!(sweep.spec.variant_count(), 18);

    let streaming = sweep.run().expect("streaming run").report.to_json();

    let dir = scratch("committed-ckpt");
    assert_eq!(run_to_completion(&sweep, &dir, 256, 4), streaming);
    let _ = std::fs::remove_dir_all(&dir);

    let dirs: Vec<PathBuf> = (0..2).map(|i| scratch(&format!("committed-s{i}"))).collect();
    for (i, dir) in dirs.iter().enumerate() {
        let mut cfg = CheckpointConfig::new(dir.clone());
        cfg.shard_index = i as u32;
        cfg.shard_count = 2;
        run_checkpointed(&sweep, &cfg).expect("shard run");
    }
    let merged = merge_stores(&sweep, &dirs).expect("merge");
    assert_eq!(merged.report.to_json(), streaming);
    for dir in &dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}
