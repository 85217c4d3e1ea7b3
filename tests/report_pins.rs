//! Tier-1 byte pins of `execute` reports: the FNV-1a hash of each report's
//! JSON, so a plain `cargo test` catches a moved byte without the release
//! artifact manifest. One trimmed run per committed site and backend, the
//! faulted Klagenfurt flap, the committed cadence sweep in memory, and a
//! cadence × seed sweep over the flap, whose faulted runs share no draws
//! across cadences. Every input runs one pass, which keeps a debug build
//! fast. The pins hold on x86_64-linux-gnu (host libm), as the manifest's
//! sums do.

use serde::{Serialize, Value};
use sixg_measure::exec::{execute, ExecRequest};
use sixg_measure::klagenfurt::{klagenfurt_flap_spec, klagenfurt_spec};
use sixg_measure::megacity::megacity_spec;
use sixg_measure::skopje::skopje_spec;
use sixg_measure::spec::ScenarioSpec;
use sixg_measure::store::fnv1a64;
use sixg_measure::sweep::{AxisDef, SweepSpec, DEFAULT_REQUIREMENT_MS};

const CADENCE_SWEEP: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/specs/sweeps/klagenfurt_cadence.json");

/// `spec` trimmed to one pass.
fn one_pass(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut spec = spec.clone();
    spec.campaign.passes = 1;
    spec
}

/// The hash of `req`'s report JSON.
fn report_hash(req: &ExecRequest) -> u64 {
    fnv1a64(execute(req).expect("runs").to_json().as_bytes())
}

/// Compares every `(input, pin)` pair and lists all mismatches at once.
fn assert_pins(got: &[(String, u64)], pins: &[u64]) {
    assert_eq!(got.len(), pins.len(), "one pin per input");
    let moved: Vec<String> = got
        .iter()
        .zip(pins)
        .filter(|((_, hash), pin)| hash != *pin)
        .map(|((input, hash), pin)| format!("{input}: {hash:#018x}, pinned {pin:#018x}"))
        .collect();
    assert!(moved.is_empty(), "report bytes moved:\n{}", moved.join("\n"));
}

#[test]
fn site_run_reports_are_pinned() {
    let mut got = Vec::new();
    for spec in [klagenfurt_spec(), skopje_spec(), megacity_spec()] {
        for backend in ["analytic", "event"] {
            let mut req = ExecRequest::run(one_pass(spec));
            req.backend = Some(backend.into());
            got.push((format!("{} {backend}", spec.name), report_hash(&req)));
        }
    }
    assert_pins(
        &got,
        &[
            0xbc34_ba82_52fd_17a2,
            0x7ae2_cda9_7df3_9177,
            0x0bf8_0389_c6a4_f099,
            0x6db0_cfff_d61b_9d81,
            0x7354_37b2_5da5_1057,
            0xa96a_3325_0080_766a,
        ],
    );
}

#[test]
fn flap_run_report_is_pinned() {
    let got = report_hash(&ExecRequest::run(one_pass(klagenfurt_flap_spec())));
    assert_pins(&[("klagenfurt_flap".into(), got)], &[0xc983_cb27_caaa_098c]);
}

/// The committed E20 matrix in memory: 3 cadences × both backends × 3
/// seeds over a one-pass base, where analytic and event lanes share draws.
#[test]
fn cadence_sweep_report_is_pinned() {
    let text = std::fs::read_to_string(CADENCE_SWEEP).expect("committed sweep reads");
    let sweep = SweepSpec::from_json(&text).expect("committed sweep parses");
    let req = ExecRequest::sweep(sweep, one_pass(klagenfurt_spec()).to_value());
    assert_pins(&[("klagenfurt_cadence".into(), report_hash(&req))], &[0x8897_5ff6_5fc3_ab76]);
}

/// Two cadences × two seeds over the faulted flap: a fault window routes
/// at launch time, so each cadence draws its own numbers.
#[test]
fn flap_cadence_sweep_report_is_pinned() {
    let sweep = SweepSpec {
        name: "flap_cadence".into(),
        description: String::new(),
        base: "inline".into(),
        requirement_ms: DEFAULT_REQUIREMENT_MS,
        axes: vec![
            AxisDef::Override {
                path: "$.campaign.sample_interval_s".into(),
                values: vec![Value::F64(2.0), Value::F64(4.0)],
            },
            AxisDef::Seeds { start: 1, count: 2 },
        ],
    };
    let req = ExecRequest::sweep(sweep, one_pass(klagenfurt_flap_spec()).to_value());
    assert_pins(&[("flap_cadence".into(), report_hash(&req))], &[0x056c_65b3_5edd_3a7d]);
}
