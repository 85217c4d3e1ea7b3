//! Torture tests for `measure::dispatch` — the fault-tolerant coordinator.
//!
//! Every test runs an in-process `sixg-serve` fleet (real listeners on
//! ephemeral ports, real wire frames) and holds the distribution contract
//! to the same standard as the checkpoint kill/resume suite: whatever the
//! fleet goes through — clean runs at every pool size, a worker killed at
//! fuzzed points mid-shard, the whole fleet dying — the merged report is
//! either byte-identical to the offline in-process execution or the
//! dispatch fails loudly. Worker deaths are deterministic: the armed
//! [`FaultPlan`] cuts every connection right after the worker writes its
//! K-th `STORE` frame, so each K drills a different resume point with no
//! process-kill timing race.
//!
//! [`FaultPlan`]: sixg_bench::serve::FaultPlan

use sixg_bench::serve::{read_frame, Server};
use sixg_measure::dispatch::{dispatch_sweep, DispatchConfig, DispatchError};
use sixg_measure::exec::{execute, ExecReport, ExecRequest};
use sixg_measure::klagenfurt::klagenfurt_spec;
use sixg_measure::spec::ScenarioSpec;
use sixg_measure::sweep::{Sweep, SweepSpec};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One-pass Klagenfurt: the fast fixture every sweep below builds on.
fn flat_spec() -> ScenarioSpec {
    let mut spec = klagenfurt_spec().clone();
    spec.campaign.passes = 1;
    spec
}

/// A three-run cadence sweep (base + 2 variants) over the flat spec.
fn tiny_sweep() -> Sweep {
    let spec = SweepSpec::from_json(
        r#"{"name": "dispatch-tiny", "base": "base.json",
            "axes": [{"kind": "override", "path": "$.campaign.sample_interval_s",
                       "values": [2.0, 4.0]}]}"#,
    )
    .expect("sweep spec parses");
    Sweep::new(spec, &flat_spec().to_json()).expect("sweep compiles")
}

/// The offline anchor: the exact bytes a single-machine sweep serialises.
fn offline_bytes(sweep: &Sweep) -> String {
    let request = ExecRequest::sweep(sweep.spec.clone(), sweep.base_value().clone());
    match execute(&request).expect("offline execution") {
        ExecReport::Sweep(run) => run.report.to_json(),
        _ => unreachable!("a sweep request yields a sweep report"),
    }
}

/// Spawns `n` in-process workers, arming `kill.0`'s fault plan to cut all
/// connections after that worker's `kill.1`-th STORE frame. Returns the
/// fleet addresses.
fn spawn_fleet(n: usize, threads: Option<usize>, kill: Option<(usize, u64)>) -> Vec<String> {
    (0..n)
        .map(|w| {
            let server = Server::bind("127.0.0.1:0", 4, threads).expect("bind worker");
            let addr = server.local_addr().expect("bound").to_string();
            if let Some((victim, after)) = kill {
                if victim == w {
                    server.set_fault_plan(after);
                }
            }
            std::thread::spawn(move || server.run());
            addr
        })
        .collect()
}

/// A config with a short interval: many STORE frames per shard, so every
/// kill point lands mid-shard.
fn config(workers: Vec<String>) -> DispatchConfig {
    let mut cfg = DispatchConfig::new(workers);
    cfg.interval = 4;
    cfg
}

/// Clean fleet: the merged report matches the offline bytes at every
/// worker pool size, and the stats record a fault-free run.
#[test]
fn clean_fleet_matches_offline_at_pool_sizes_1_2_4() {
    let sweep = tiny_sweep();
    let offline = offline_bytes(&sweep);
    for threads in [1usize, 2, 4] {
        let cfg = config(spawn_fleet(2, Some(threads), None));
        let dispatched = dispatch_sweep(&sweep, &cfg).expect("clean dispatch");
        assert_eq!(
            dispatched.run.report.to_json(),
            offline,
            "fleet report diverged at pool size {threads}"
        );
        assert_eq!(dispatched.stats.reassignments, 0, "clean fleet reassigned at {threads}");
        assert!(dispatched.stats.dead_workers.is_empty(), "clean fleet lost a worker");
    }
}

/// The torture matrix: one worker of three dies after its K-th STORE
/// frame, for fuzzed kill points across the shard lifecycle — right after
/// the first manifest, mid-cursor-stream, deep into a shard. Every drill
/// must reassign the dead worker's shards and still reproduce the offline
/// bytes; later kill points (a cursor already streamed) must resume
/// mid-shard rather than restart.
#[test]
fn killed_worker_is_reassigned_and_the_report_stays_bitwise_identical() {
    let sweep = tiny_sweep();
    let offline = offline_bytes(&sweep);
    for kill_after in [1u64, 2, 3, 5, 8] {
        let workers = spawn_fleet(3, Some(2), Some((0, kill_after)));
        let victim = workers[0].clone();
        let cfg = config(workers);
        let dispatched = dispatch_sweep(&sweep, &cfg)
            .unwrap_or_else(|e| panic!("dispatch with kill point {kill_after} failed: {e}"));
        let stats = &dispatched.stats;
        assert_eq!(
            dispatched.run.report.to_json(),
            offline,
            "fleet report diverged at kill point {kill_after}"
        );
        // Whether the victim is formally *declared* dead is timing-bound:
        // on a tiny workload the live workers can steal its requeued
        // shards before its thread burns through five failed attempts.
        // Only the victim may ever be declared, and the shards must move
        // either way.
        assert!(
            stats.dead_workers.iter().all(|d| *d == victim),
            "kill point {kill_after}: a healthy worker was declared dead ({stats:?})"
        );
        assert!(
            stats.reassignments >= 1,
            "kill point {kill_after}: the dead worker's shard was never reassigned"
        );
        if kill_after >= 3 {
            // By the third STORE frame the shard has streamed its manifest
            // and at least one committed cursor (interval 4 is far below
            // the per-run item count), so the reassignment must resume
            // from that cursor instead of restarting the shard.
            assert!(
                stats.resumed_shards >= 1,
                "kill point {kill_after}: reassignment restarted instead of resuming \
                 (stats: {stats:?})"
            );
        }
    }
}

/// Pool-size sweep under fault: the same mid-shard kill drill holds at
/// worker pool sizes 1, 2 and 4 — determinism survives the combination of
/// reassignment and parallel fold.
#[test]
fn kill_drill_is_bitwise_identical_at_pool_sizes_1_2_4() {
    let sweep = tiny_sweep();
    let offline = offline_bytes(&sweep);
    for threads in [1usize, 2, 4] {
        let workers = spawn_fleet(3, Some(threads), Some((1, 4)));
        let victim = workers[1].clone();
        let cfg = config(workers);
        let dispatched = dispatch_sweep(&sweep, &cfg)
            .unwrap_or_else(|e| panic!("kill drill at pool size {threads} failed: {e}"));
        assert_eq!(
            dispatched.run.report.to_json(),
            offline,
            "fleet report diverged at pool size {threads} under fault"
        );
        assert!(
            dispatched.stats.dead_workers.iter().all(|d| *d == victim),
            "pool size {threads}: a healthy worker was declared dead ({:?})",
            dispatched.stats
        );
        assert!(dispatched.stats.reassignments >= 1, "pool size {threads}: no reassignment");
    }
}

/// When every worker dies with shards outstanding the dispatch must fail
/// with `AllWorkersDead` — not hang, not return a partial report.
#[test]
fn a_fully_dead_fleet_fails_loudly() {
    let sweep = tiny_sweep();
    let cfg = config(spawn_fleet(1, Some(1), Some((0, 1))));
    match dispatch_sweep(&sweep, &cfg) {
        Err(DispatchError::AllWorkersDead(_)) => {}
        Err(other) => panic!("expected AllWorkersDead, got: {other}"),
        Ok(run) => panic!("a dead fleet produced a report: {:?}", run.stats),
    }
}

/// An unreachable fleet (nothing ever listened) is also a loud failure.
#[test]
fn an_unreachable_fleet_fails_loudly() {
    let sweep = tiny_sweep();
    // Bind-then-drop: the port was ours a moment ago, so nothing else is
    // listening there now.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("bound").to_string()
    };
    let cfg = config(vec![addr]);
    match dispatch_sweep(&sweep, &cfg) {
        Err(DispatchError::AllWorkersDead(_)) => {}
        Err(other) => panic!("expected AllWorkersDead, got: {other}"),
        Ok(run) => panic!("an unreachable fleet produced a report: {:?}", run.stats),
    }
}

/// A worker that speaks protocol garbage is declared dead at once, never
/// retried. The fake worker reads the REQUEST frame, answers with bytes
/// that are not a frame, and holds the socket open until the coordinator
/// closes it. A retry would reconnect after the first 50 ms backoff, so a
/// single connection pins the fail-fast rule.
#[test]
fn a_garbage_speaking_worker_is_declared_dead_without_a_retry() {
    let sweep = tiny_sweep();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake worker");
    let addr = listener.local_addr().expect("bound").to_string();
    let connections = Arc::new(AtomicUsize::new(0));
    let accepted = Arc::clone(&connections);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            accepted.fetch_add(1, Ordering::SeqCst);
            std::thread::spawn(move || {
                let _ = read_frame(&mut stream);
                let _ = stream.write_all(b"HTTP/1.1 400 Bad Request\r\n\r\n");
                let mut sink = [0u8; 256];
                while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
            });
        }
    });
    match dispatch_sweep(&sweep, &config(vec![addr])) {
        Err(DispatchError::AllWorkersDead(msg)) => {
            assert!(msg.contains("bad frame magic"), "the death must name the bad frame: {msg}");
        }
        Err(other) => panic!("expected AllWorkersDead, got: {other}"),
        Ok(run) => panic!("a garbage-speaking worker produced a report: {:?}", run.stats),
    }
    assert_eq!(
        connections.load(Ordering::SeqCst),
        1,
        "a worker speaking garbage must not be retried"
    );
}
