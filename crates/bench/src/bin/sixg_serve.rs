//! `sixg-serve` — the long-lived campaign daemon.
//!
//! Binds a TCP listener, keeps one shared [`sixg_measure::Executor`]
//! (execution facade + compiled-scenario cache) hot, and answers
//! length-framed [`sixg_measure::ExecRequest`] documents from any number
//! of concurrent clients — validate, run, and sweep, with per-variant
//! streaming for sweeps. See `crates/bench/src/serve.rs` for the frame
//! layout and `DESIGN.md` for the protocol contract.
//!
//! ```text
//! sixg-serve [--addr HOST:PORT] [--cache N] [--threads T]
//!            [--scratch DIR] [--fail-after-store-frames K]
//! ```
//!
//! * `--addr` — bind address (default `127.0.0.1:7864`; port `0` picks an
//!   ephemeral port, printed in the banner for discovery);
//! * `--cache` — compiled-scenario cache capacity (default 8);
//! * `--threads` — pin the rayon pool size each connection uses (results
//!   are bitwise identical at every setting; this only shapes load);
//! * `--scratch` — root directory for dispatched shard checkpoint stores
//!   (default: a process-unique directory under the system temp dir);
//! * `--fail-after-store-frames` — fault-injection drill for the dispatch
//!   gate: the worker dies (drops every connection, accepts no more)
//!   immediately after writing its K-th `STORE` frame, deterministically
//!   mid-shard. Clamped to at least 1; never use outside testing.
//!
//! The daemon prints exactly one banner line to stdout once it is
//! accepting — `sixg-serve: listening on ADDR (cache capacity N)` —
//! then runs until killed.

use sixg_bench::serve::Server;
use sixg_measure::exec::DEFAULT_CACHE_CAPACITY;

const DEFAULT_ADDR: &str = "127.0.0.1:7864";

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn usage() -> ! {
    eprintln!(
        "usage: sixg-serve [--addr HOST:PORT] [--cache N] [--threads T] \
         [--scratch DIR] [--fail-after-store-frames K]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" | "--cache" | "--threads" | "--scratch" | "--fail-after-store-frames" => {
                if args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
                    eprintln!("sixg-serve: {} needs a value", args[i]);
                    usage();
                }
                i += 2
            }
            other => {
                eprintln!("sixg-serve: unknown argument {other:?}");
                usage();
            }
        }
    }
    let addr = flag_value(&args, "--addr").unwrap_or(DEFAULT_ADDR);
    let cache: usize = flag_value(&args, "--cache").map_or(DEFAULT_CACHE_CAPACITY, |v| {
        v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
            eprintln!("sixg-serve: invalid value {v:?} for --cache (need an integer >= 1)");
            std::process::exit(2);
        })
    });
    let threads: Option<usize> = flag_value(&args, "--threads").map(|v| {
        v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
            eprintln!("sixg-serve: invalid value {v:?} for --threads (need an integer >= 1)");
            std::process::exit(2);
        })
    });

    let fail_after: Option<u64> = flag_value(&args, "--fail-after-store-frames").map(|v| {
        v.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
            eprintln!(
                "sixg-serve: invalid value {v:?} for --fail-after-store-frames \
                 (need an integer >= 1)"
            );
            std::process::exit(2);
        })
    });

    let mut server = Server::bind(addr, cache, threads).unwrap_or_else(|e| {
        eprintln!("sixg-serve: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    if let Some(dir) = flag_value(&args, "--scratch") {
        server.set_scratch(dir);
    }
    if let Some(k) = fail_after {
        server.set_fault_plan(k);
    }
    let bound = server.local_addr().expect("bound listener has an address");
    // The discovery contract: exactly this line, first on stdout, so
    // harnesses binding port 0 can read the real address back.
    println!("sixg-serve: listening on {bound} (cache capacity {cache})");

    if let Err(e) = server.run() {
        eprintln!("sixg-serve: listener failed: {e}");
        std::process::exit(1);
    }
}
