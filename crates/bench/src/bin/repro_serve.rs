//! E24 — the `sixg-serve` load-test gate: determinism under concurrency.
//!
//! Sends the committed cadence sweep to a `sixg-serve` daemon from several
//! concurrent clients and **gates** on the wire contract: every `REPORT`
//! payload, from every client, on every repeat (cold cache and warm), must
//! be byte-identical to the offline in-process [`execute`] of the same
//! request. Any divergence — from concurrent load, scenario-cache state,
//! or frame handling — exits non-zero so CI can gate on it.
//!
//! ```text
//! repro_serve [--addr HOST:PORT] [--clients N] [--requests M]
//!             [--json PATH] [--payload-out PATH] [SWEEP_FILE]
//! ```
//!
//! * `--addr` — an already-running daemon; without it the binary
//!   self-hosts an in-process server on an ephemeral port;
//! * `--clients` — concurrent connections (default 4);
//! * `--requests` — requests per client (default 2, so every client sees
//!   both a cold/contended cache and a warm one);
//! * `--json` — write `BENCH_serve.json` (client count, payload size,
//!   wall-clock latency percentiles — timing, so **not** byte-stable);
//! * `--payload-out` — write the verified wire payload, for `cmp` against
//!   the offline `sixg-cli sweep --json` artifact.

use sixg_bench::serve::Server;
use sixg_bench::serve_client::ServeClient;
use sixg_bench::{compare, header};
use sixg_measure::exec::{execute, ExecReport, ExecRequest};
use sixg_measure::sweep::SweepSpec;
use std::path::Path;
use std::time::Instant;

/// The committed sweep file, resolved from the crate root so the binary
/// works from any working directory.
const SWEEP_FILE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/sweeps/klagenfurt_cadence.json");

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    flag_value(args, flag).map_or(default, |v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("repro_serve: invalid value {v:?} for {flag}");
            std::process::exit(2);
        })
    })
}

/// Builds the sweep request exactly the way `sixg-cli sweep` does: parse
/// the sweep file, read its base spec relative to the sweep's directory.
fn load_request(path: &str) -> ExecRequest {
    let die = |msg: String| -> ! {
        eprintln!("repro_serve: {msg}");
        std::process::exit(2);
    };
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("cannot read {path}: {e}")));
    let sweep = SweepSpec::from_json(&text)
        .unwrap_or_else(|e| die(format!("{path}: invalid sweep spec: {e}")));
    let dir = Path::new(path).parent().unwrap_or_else(|| Path::new("."));
    let base_path = dir.join(&sweep.base);
    let base_text = std::fs::read_to_string(&base_path)
        .unwrap_or_else(|e| die(format!("cannot read base spec {}: {e}", base_path.display())));
    let base = serde_json::from_str(&base_text)
        .unwrap_or_else(|e| die(format!("{}: invalid JSON: {e}", base_path.display())));
    ExecRequest::sweep(sweep, base)
}

/// One client thread's yield: verified payloads and per-request latencies.
type ClientYield = (Vec<Vec<u8>>, Vec<f64>);

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted_ms[idx]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let clients: usize = parsed(&args, "--clients", 4);
    let requests: usize = parsed(&args, "--requests", 2);
    let json = flag_value(&args, "--json").map(str::to_string);
    let payload_out = flag_value(&args, "--payload-out").map(str::to_string);
    let addr_flag = flag_value(&args, "--addr").map(str::to_string);
    let sweep_file = args
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            !a.starts_with("--")
                && !matches!(
                    args.get(i.wrapping_sub(1)).map(String::as_str),
                    Some("--addr" | "--clients" | "--requests" | "--json" | "--payload-out")
                )
        })
        .map(|(_, a)| a.as_str())
        .next()
        .unwrap_or(SWEEP_FILE);
    if clients == 0 || requests == 0 {
        eprintln!("repro_serve: --clients and --requests must be at least 1");
        std::process::exit(2);
    }

    header("E24 — sixg-serve wire determinism under concurrent load");
    let request = load_request(sweep_file);
    let request_json = request.to_json();
    let variant_count =
        request.sweep.as_ref().map(SweepSpec::variant_count).expect("sweep request");

    // The offline anchor: the same request through the in-process facade.
    // Every wire payload must reproduce these bytes exactly.
    let offline = match execute(&request) {
        Ok(report @ ExecReport::Sweep(_)) => report.to_json(),
        Ok(_) => unreachable!("a sweep request yields a sweep report"),
        Err(e) => {
            eprintln!("repro_serve: offline execution failed: {e}");
            std::process::exit(2);
        }
    };

    // Self-host unless pointed at a running daemon.
    let addr = match &addr_flag {
        Some(a) => a.clone(),
        None => {
            let server = Server::bind("127.0.0.1:0", 8, None).unwrap_or_else(|e| {
                eprintln!("repro_serve: cannot bind the in-process server: {e}");
                std::process::exit(2);
            });
            let addr = server.local_addr().expect("bound").to_string();
            std::thread::spawn(move || server.run());
            addr
        }
    };
    compare("daemon", addr_flag.as_deref().unwrap_or("(in-process)"), &addr);
    compare("clients × requests", format!("{clients} × {requests}"), clients * requests);
    compare("sweep variants", "18", variant_count);

    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let request_json = request_json.clone();
            std::thread::spawn(move || -> Result<ClientYield, String> {
                // One connection per client, no retries: a dropped
                // connection or a malformed frame fails the gate.
                let mut client = ServeClient::connect(&addr)
                    .map_err(|e| format!("client {c}: cannot connect to {addr}: {e}"))?;
                let mut payloads = Vec::new();
                let mut latencies_ms = Vec::new();
                for r in 0..requests {
                    let t = Instant::now();
                    let response = client
                        .request(&request_json)
                        .map_err(|e| format!("client {c} request {r}: {e}"))?;
                    latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    let payload = response
                        .outcome
                        .map_err(|e| format!("client {c} request {r}: server error: {e}"))?;
                    // Base + every variant streams before the terminal report.
                    let streamed = response.variants.len();
                    if streamed != variant_count + 1 {
                        return Err(format!(
                            "client {c} request {r}: {streamed} VARIANT frames, \
                             expected {}",
                            variant_count + 1
                        ));
                    }
                    payloads.push(payload);
                }
                Ok((payloads, latencies_ms))
            })
        })
        .collect();

    let mut mismatches = 0usize;
    let mut latencies_ms: Vec<f64> = Vec::new();
    for worker in workers {
        match worker.join().expect("client thread") {
            Ok((payloads, lats)) => {
                latencies_ms.extend(lats);
                for payload in payloads {
                    if payload != offline.as_bytes() {
                        mismatches += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("repro_serve: {e}");
                std::process::exit(1);
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();

    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let (p50, p90, p99, max) = (
        percentile(&latencies_ms, 50.0),
        percentile(&latencies_ms, 90.0),
        percentile(&latencies_ms, 99.0),
        latencies_ms[latencies_ms.len() - 1],
    );
    println!(
        "\n{} requests over {} clients in {wall_s:.3} s wall — latency p50 {p50:.1} ms, \
         p90 {p90:.1} ms, p99 {p99:.1} ms, max {max:.1} ms",
        clients * requests,
        clients
    );
    compare("payload bytes", offline.len(), offline.len());
    compare("byte-identical payloads", clients * requests, clients * requests - mismatches);

    if let Some(out) = &payload_out {
        std::fs::write(out, &offline).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!("wrote {out} (the verified wire payload)");
    }
    if let Some(out) = &json {
        // Timing record for the BENCH_* trajectory. Latencies are wall
        // clock, so unlike the payload this artifact is not byte-stable.
        let record = format!(
            "{{\n  \"experiment\": \"serve_load\",\n  \"sweep\": {:?},\n  \
             \"clients\": {clients},\n  \"requests_per_client\": {requests},\n  \
             \"variant_count\": {variant_count},\n  \"payload_bytes\": {},\n  \
             \"byte_identical\": {},\n  \"wall_s\": {wall_s:.6},\n  \
             \"latency_ms\": {{ \"p50\": {p50:.3}, \"p90\": {p90:.3}, \
             \"p99\": {p99:.3}, \"max\": {max:.3} }}\n}}\n",
            Path::new(sweep_file).file_name().and_then(|n| n.to_str()).unwrap_or(sweep_file),
            offline.len(),
            mismatches == 0,
        );
        std::fs::write(out, record).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
        println!("wrote {out}");
    }

    if mismatches > 0 {
        eprintln!(
            "repro_serve: {mismatches} wire payload(s) diverged from the offline \
             execution — the determinism contract is broken"
        );
        std::process::exit(1);
    }
}
