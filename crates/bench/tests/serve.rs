//! Spawn-the-binary integration tests for the `sixg-serve` daemon.
//!
//! Every test starts the real compiled binary on an ephemeral port
//! (discovered from the banner line), drives it through the blocking
//! [`ServeClient`], and holds the wire to the facade contract: the bytes a
//! `REPORT` frame carries are exactly the bytes the in-process
//! [`execute`] serialises for the same request — across concurrent
//! clients, repeated (cache-hit) requests, and every action kind.

use sixg_bench::serve_client::ServeClient;
use sixg_measure::exec::{execute, ExecRequest};
use sixg_measure::klagenfurt::klagenfurt_spec;
use sixg_measure::megacity::megacity_spec;
use sixg_measure::spec::ScenarioSpec;
use sixg_measure::sweep::SweepSpec;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// The daemon under test; killed on drop so no test leaks a listener.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn() -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sixg-serve"))
            .args(["--addr", "127.0.0.1:0", "--cache", "4"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn sixg-serve");
        // The discovery contract: the first stdout line names the bound
        // address — "sixg-serve: listening on HOST:PORT (cache capacity N)".
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut banner = String::new();
        BufReader::new(stdout).read_line(&mut banner).expect("read the banner line");
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
            .to_string();
        Self { child, addr }
    }

    fn client(&self) -> ServeClient {
        ServeClient::connect(&self.addr).expect("connect to the daemon")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One-pass Klagenfurt: the fast fixture every request below builds on.
fn flat_spec() -> ScenarioSpec {
    let mut spec = klagenfurt_spec().clone();
    spec.campaign.passes = 1;
    spec
}

/// A two-variant cadence sweep over the flat spec (base + 2 campaigns).
fn tiny_sweep_request() -> ExecRequest {
    let sweep = SweepSpec::from_json(
        r#"{"name": "serve-tiny", "base": "base.json",
            "axes": [{"kind": "override", "path": "$.campaign.sample_interval_s",
                       "values": [2.0, 4.0]}]}"#,
    )
    .expect("sweep spec parses");
    let base = serde_json::from_str(&flat_spec().to_json()).expect("base parses");
    ExecRequest::sweep(sweep, base)
}

/// The acceptance gate: the same sweep from four concurrent clients, each
/// payload byte-identical to the offline in-process execution.
#[test]
fn four_concurrent_clients_match_the_offline_bytes() {
    let request = tiny_sweep_request();
    let offline = execute(&request).expect("offline execution").to_json();
    let daemon = Daemon::spawn();

    let workers: Vec<_> = (0..4)
        .map(|_| {
            let addr = daemon.addr.clone();
            let json = request.to_json();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&addr).expect("connect");
                let response = client.request(&json).expect("exchange completes");
                // Base + both variants stream before the terminal report.
                assert_eq!(response.variants.len(), 3);
                response.report_text().to_string()
            })
        })
        .collect();
    for worker in workers {
        let payload = worker.join().expect("client thread");
        assert_eq!(payload, offline, "wire payload diverged from the offline bytes");
    }
}

/// Cache-hit identity: the second request on the same connection is served
/// from the warm compiled-scenario cache and must not change a byte.
#[test]
fn repeated_requests_reuse_the_cache_without_changing_bytes() {
    let request = ExecRequest::run(flat_spec());
    let offline = execute(&request).expect("offline execution").to_json();
    let daemon = Daemon::spawn();
    let mut client = daemon.client();

    let cold = client.request(&request.to_json()).expect("cold request");
    let warm = client.request(&request.to_json()).expect("warm request");
    assert!(cold.variants.is_empty(), "run requests stream no variants");
    assert_eq!(cold.report_text(), offline);
    assert_eq!(warm.report_text(), offline);
}

/// The validate action answers over the wire with the facade's bytes.
#[test]
fn validate_action_answers_over_the_wire() {
    let request = ExecRequest::validate_spec(flat_spec());
    let offline = execute(&request).expect("offline validation").to_json();
    let daemon = Daemon::spawn();
    let mut client = daemon.client();

    let response = client.request(&request.to_json()).expect("exchange completes");
    let text = response.report_text();
    assert_eq!(text, offline);
    assert!(text.contains("\"valid\": true"), "unexpected validate payload: {text}");
    assert!(text.contains("\"name\": \"klagenfurt\""), "unexpected validate payload: {text}");
}

/// Error frames carry the machine-readable `{code, path, message}` triple,
/// and a failed request leaves the connection usable for the next one.
#[test]
fn error_frames_carry_codes_and_keep_the_connection_alive() {
    let daemon = Daemon::spawn();
    let mut client = daemon.client();

    // Unparseable payload: an invalid_json error anchored at the root.
    let garbage = client.request("this is not json").expect("exchange completes");
    let err = garbage.outcome.expect_err("garbage must be rejected");
    assert_eq!(err.code, "invalid_json");
    assert_eq!(err.path, "$");

    // A field combination no runner honors: conflict at the field.
    let mut conflicted = ExecRequest::run(flat_spec());
    conflicted.checkpoint = Some("nowhere".into());
    let rejected = client.request(&conflicted.to_json()).expect("exchange completes");
    let err = rejected.outcome.expect_err("the conflict must be rejected");
    assert_eq!(err.code, "conflict");
    assert_eq!(err.path, "$.checkpoint");

    // The same connection still serves a well-formed request.
    let request = ExecRequest::validate_spec(flat_spec());
    let offline = execute(&request).expect("offline validation").to_json();
    let response = client.request(&request.to_json()).expect("exchange completes");
    assert_eq!(response.report_text(), offline);
}

/// A spec that validates but cannot route fails its compile with a coded
/// ERROR frame. The daemon keeps serving: the next request for a cached
/// spec still gets its REPORT.
#[test]
fn unroutable_spec_is_an_error_frame_and_the_daemon_keeps_serving() {
    let hot = ExecRequest::run(flat_spec());
    let offline = execute(&hot).expect("offline execution").to_json();
    let daemon = Daemon::spawn();
    let mut client = daemon.client();
    assert_eq!(client.request(&hot.to_json()).expect("cold request").report_text(), offline);

    let mut unroutable = megacity_spec().clone();
    unroutable.as_relations.clear();
    let rejected =
        client.request(&ExecRequest::run(unroutable).to_json()).expect("exchange completes");
    let err = rejected.outcome.expect_err("an unroutable spec must be rejected");
    assert_eq!(err.code, "validation");
    assert_eq!(err.path, "$.as_relations");

    let response = client.request(&hot.to_json()).expect("exchange completes");
    assert_eq!(response.report_text(), offline);
}
