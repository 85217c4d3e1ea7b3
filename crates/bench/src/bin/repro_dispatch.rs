//! E26 — the distributed-dispatch gate: fault-tolerant fleet determinism.
//!
//! Spawns a three-worker `sixg-serve` fleet in-process, dispatches the
//! committed cadence sweep across it with `measure::dispatch`, and
//! **gates** on the distribution contract: the merged `SweepReport` must
//! be byte-identical to the offline in-process [`execute`] of the same
//! sweep — including a run where one worker is killed mid-shard (its
//! fault plan cuts the connection right after a `STORE` frame), so the
//! shard resumes on a live worker from the last streamed checkpoint
//! cursor. Any divergence, or a kill drill that never reassigns, exits
//! non-zero so CI can gate on it.
//!
//! ```text
//! repro_dispatch [--kill-worker N] [--kill-after-frames K]
//!                [--workers A:P,B:P,...] [--shards-per-worker S]
//!                [--interval K] [--json PATH] [--payload-out PATH]
//!                [SWEEP_FILE]
//! ```
//!
//! * `--kill-worker` — arm worker N (0-based) of the in-process fleet to
//!   die after its `--kill-after-frames`-th STORE frame (default 3);
//! * `--workers` — use an external fleet instead of self-hosting (the
//!   kill drill then requires the fleet itself to be faulted, e.g. via
//!   `sixg-serve --fail-after-store-frames`);
//! * `--json` — write the `BENCH_dispatch.json` record (stats + verdict);
//! * `--payload-out` — write the verified merged report, for `cmp`
//!   against the offline `sixg-cli sweep --json` artifact.

use sixg_bench::serve::Server;
use sixg_bench::{compare, header};
use sixg_measure::dispatch::{dispatch_sweep, DispatchConfig};
use sixg_measure::exec::{execute, ExecReport, ExecRequest};
use sixg_measure::sweep::Sweep;
use std::path::Path;
use std::time::Instant;

/// The committed sweep file, resolved from the crate root so the binary
/// works from any working directory.
const SWEEP_FILE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/sweeps/klagenfurt_cadence.json");

/// Workers self-hosted when `--workers` is absent.
const FLEET_SIZE: usize = 3;

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    flag_value(args, flag).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("repro_dispatch: invalid value {v:?} for {flag}");
            std::process::exit(2);
        })
    })
}

fn die(msg: String) -> ! {
    eprintln!("repro_dispatch: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kill_worker: Option<usize> = flag_value(&args, "--kill-worker").map(|v| {
        v.parse().unwrap_or_else(|_| die(format!("invalid value {v:?} for --kill-worker")))
    });
    let kill_after: u64 = parsed(&args, "--kill-after-frames", 3);
    let shards_per_worker: u32 = parsed(&args, "--shards-per-worker", 3);
    let interval: usize = parsed(&args, "--interval", 64);
    let json = flag_value(&args, "--json").map(str::to_string);
    let payload_out = flag_value(&args, "--payload-out").map(str::to_string);
    let external = flag_value(&args, "--workers").map(str::to_string);
    let sweep_file = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && !matches!(
                    args.get(i.wrapping_sub(1)).map(String::as_str),
                    Some(
                        "--kill-worker"
                            | "--kill-after-frames"
                            | "--workers"
                            | "--shards-per-worker"
                            | "--interval"
                            | "--json"
                            | "--payload-out"
                    )
                )
        })
        .map(|(_, a)| a.as_str())
        .next()
        .unwrap_or(SWEEP_FILE);
    if shards_per_worker == 0 || interval == 0 {
        die("--shards-per-worker and --interval must be at least 1".to_string());
    }

    header("E26 — distributed dispatch determinism across a worker fleet");
    let text = std::fs::read_to_string(sweep_file)
        .unwrap_or_else(|e| die(format!("cannot read {sweep_file}: {e}")));
    let dir = Path::new(sweep_file).parent().unwrap_or_else(|| Path::new("."));
    let sweep = Sweep::from_json_in_dir(&text, dir)
        .unwrap_or_else(|e| die(format!("{sweep_file}: invalid sweep: {e}")));
    let variant_count = sweep.spec.variant_count();

    // The offline anchor: the same sweep through the in-process facade —
    // exactly the bytes `sixg-cli sweep --json` writes. The merged fleet
    // report must reproduce them no matter what the fleet went through.
    let request = ExecRequest::sweep(sweep.spec.clone(), sweep.base_value().clone());
    let offline = match execute(&request) {
        Ok(ExecReport::Sweep(run)) => run.report.to_json(),
        Ok(_) => unreachable!("a sweep request yields a sweep report"),
        Err(e) => die(format!("offline execution failed: {e}")),
    };

    // Self-host a fleet unless pointed at one. The kill drill arms one
    // worker's fault plan: it drops every connection right after writing
    // its K-th STORE frame — deterministically mid-shard, no process-kill
    // timing race.
    let workers: Vec<String> = match &external {
        Some(list) => {
            if kill_worker.is_some() {
                die("--kill-worker only drills the self-hosted fleet; fault an external \
                     fleet with `sixg-serve --fail-after-store-frames`"
                    .to_string());
            }
            list.split(',').map(|w| w.trim().to_string()).filter(|w| !w.is_empty()).collect()
        }
        None => (0..FLEET_SIZE)
            .map(|w| {
                let server = Server::bind("127.0.0.1:0", 8, None)
                    .unwrap_or_else(|e| die(format!("cannot bind worker {w}: {e}")));
                let addr = server.local_addr().expect("bound").to_string();
                if kill_worker == Some(w) {
                    server.set_fault_plan(kill_after);
                }
                std::thread::spawn(move || server.run());
                addr
            })
            .collect(),
    };
    if workers.is_empty() {
        die("--workers needs at least one host:port address".to_string());
    }

    compare("fleet", external.as_deref().unwrap_or("(in-process × 3)"), workers.join(", "));
    compare("sweep variants", "18", variant_count);
    match kill_worker {
        Some(w) => compare(
            "kill drill",
            format!("worker {w} dies after STORE frame {kill_after}"),
            "armed",
        ),
        None => compare("kill drill", "none (clean fleet)", "disarmed"),
    }

    let mut cfg = DispatchConfig::new(workers);
    cfg.shards_per_worker = shards_per_worker;
    cfg.interval = interval;

    let t0 = Instant::now();
    let dispatched = dispatch_sweep(&sweep, &cfg).unwrap_or_else(|e| {
        eprintln!("repro_dispatch: dispatch failed: {e}");
        std::process::exit(1);
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = &dispatched.stats;
    let merged = dispatched.run.report.to_json();

    println!(
        "\ndispatched {} shard(s) over {} worker(s) in {wall_s:.3} s wall — \
         {} assignment(s), {} reassignment(s) ({} resumed mid-shard), {} reconnect(s)",
        stats.shard_count,
        stats.workers,
        stats.assignments,
        stats.reassignments,
        stats.resumed_shards,
        stats.reconnects,
    );
    for dead in &stats.dead_workers {
        println!("worker {dead} declared dead; its shards were reassigned");
    }

    let identical = merged == offline;
    compare("payload bytes", offline.len(), merged.len());
    compare("byte-identical to offline sweep", "yes", if identical { "yes" } else { "NO" });

    // Under the kill drill the gate also demands the fault actually bit:
    // a drill that never reassigns proves nothing about fault tolerance.
    let drill_ok =
        kill_worker.is_none() || (stats.reassignments >= 1 && stats.dead_workers.len() == 1);
    if kill_worker.is_some() {
        compare(
            "fault drill took effect",
            "dead worker + reassignment",
            if drill_ok { "yes" } else { "NO" },
        );
    }

    if let Some(out) = &payload_out {
        std::fs::write(out, &merged).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!("wrote {out} (the merged fleet report)");
    }
    if let Some(out) = &json {
        // Stats + timing record for the BENCH_* trajectory. Wall clock and
        // fleet scheduling vary run to run, so unlike the payload this
        // artifact is not byte-stable.
        let record = format!(
            "{{\n  \"experiment\": \"dispatch\",\n  \"sweep\": {:?},\n  \
             \"workers\": {},\n  \"shard_count\": {},\n  \
             \"kill_worker\": {},\n  \"assignments\": {},\n  \
             \"reassignments\": {},\n  \"resumed_shards\": {},\n  \
             \"reconnects\": {},\n  \"dead_workers\": {},\n  \
             \"payload_bytes\": {},\n  \"byte_identical\": {identical},\n  \
             \"wall_s\": {wall_s:.6}\n}}\n",
            Path::new(sweep_file).file_name().and_then(|n| n.to_str()).unwrap_or(sweep_file),
            stats.workers,
            stats.shard_count,
            kill_worker.map_or("null".to_string(), |w| w.to_string()),
            stats.assignments,
            stats.reassignments,
            stats.resumed_shards,
            stats.reconnects,
            stats.dead_workers.len(),
            offline.len(),
        );
        std::fs::write(out, record).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!("wrote {out}");
    }

    if !identical {
        eprintln!(
            "repro_dispatch: the merged fleet report diverged from the offline sweep — \
             the distribution contract is broken"
        );
        std::process::exit(1);
    }
    if !drill_ok {
        eprintln!(
            "repro_dispatch: the kill drill left no dead worker or never reassigned a \
             shard — the fault path was not exercised"
        );
        std::process::exit(1);
    }
}
