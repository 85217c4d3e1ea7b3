//! Tier-1 contract of shared draws in memory: an in-memory sweep runs each
//! draw group (one compiled scenario, backend, campaign seed and pass
//! count) once, at its finest cadence, and hands every coarser cadence its
//! share. Each run's field must still be exactly what its own sequential
//! oracle folds, at every pool size, and the report must be the one the
//! checkpointed path, which folds every run's own work list, writes.

use serde::{Serialize, Value};
use sixg_measure::aggregate::CellField;
use sixg_measure::campaign::CampaignConfig;
use sixg_measure::exec::{run_field_sequential, ExecReport, ExecRequest, Executor};
use sixg_measure::klagenfurt::{klagenfurt_flap_spec, klagenfurt_spec};
use sixg_measure::parallel::with_thread_count;
use sixg_measure::scenario::{KeyScheme, Scenario};
use sixg_measure::skopje::skopje_spec;
use sixg_measure::spec::{parse_backend, ScenarioSpec};
use sixg_measure::store::{run_checkpointed, CheckpointConfig, CheckpointOutcome};
use sixg_measure::sweep::{AxisDef, BackendSelect, Sweep, SweepRun, SweepSpec};
use std::path::PathBuf;

fn sweep_spec(name: &str, axes: Vec<AxisDef>) -> SweepSpec {
    SweepSpec {
        name: name.into(),
        description: String::new(),
        base: "inline".into(),
        requirement_ms: 20.0,
        axes,
    }
}

fn cadences(values: &[f64]) -> AxisDef {
    AxisDef::Override {
        path: "$.campaign.sample_interval_s".into(),
        values: values.iter().map(|&v| Value::F64(v)).collect(),
    }
}

/// `spec` with `passes` traversals.
fn with_passes(spec: &ScenarioSpec, passes: u32) -> ScenarioSpec {
    let mut spec = spec.clone();
    spec.campaign.passes = passes;
    spec
}

/// A field's every accumulator state, bit for bit, row-major.
type Bits = Vec<(u64, u64, u64, u64, u64)>;

fn bits(field: &CellField) -> Bits {
    field
        .accumulators()
        .iter()
        .map(|w| {
            let (n, mean, m2, min, max) = w.raw_parts();
            (n, mean.to_bits(), m2.to_bits(), min.to_bits(), max.to_bits())
        })
        .collect()
}

/// Each run's sequential oracle, base first: its own config and backend
/// over `scenario`, which every run of these sweeps shares (their axes
/// touch only campaign parameters and the backend).
fn oracles(sweep: &Sweep, scenario: &Scenario) -> Vec<Bits> {
    let base = &sweep.base;
    let base_config = CampaignConfig {
        seed: base.campaign.seed,
        sample_interval_s: base.campaign.sample_interval_s,
        passes: base.campaign.passes,
    };
    let base_backend = parse_backend(&base.backend).expect("valid backend");
    let variants = sweep.variants().expect("variants compile");
    std::iter::once((base_config, base_backend))
        .chain(variants.iter().map(|v| (v.config, v.backend)))
        .map(|(config, backend)| bits(&run_field_sequential(scenario, config, backend)))
        .collect()
}

/// The checkpointed report of `sweep`, in a fresh store.
fn checkpointed_report(sweep: &Sweep, name: &str) -> String {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sixg-sweep-lanes-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = run_checkpointed(sweep, &CheckpointConfig::new(&dir)).expect("checkpointed");
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        CheckpointOutcome::Complete(run) => run.report.to_json(),
        other => panic!("expected a complete sweep, got {other:?}"),
    }
}

/// Runs `sweep` in memory at pools 1, 2, 3 and 4: every run's field must
/// equal its oracle, and every report the checkpointed one.
fn assert_lanes_match(sweep: &Sweep, scenario: &Scenario, name: &str) {
    let want = oracles(sweep, scenario);
    let report = checkpointed_report(sweep, name);
    for threads in [1usize, 2, 3, 4] {
        let run: SweepRun = with_thread_count(threads, || sweep.run().expect("runs"));
        let fields = std::iter::once(&run.base_field).chain(&run.variant_fields);
        let labels = std::iter::once(&run.report.base).chain(&run.report.variants);
        for ((field, want), variant) in fields.zip(&want).zip(labels) {
            assert!(
                bits(field) == *want,
                "{name}, {threads} threads: `{}` differs from its oracle",
                variant.label
            );
        }
        assert_eq!(run.report.to_json(), report, "{name}, {threads} threads: report");
    }
}

/// Klagenfurt at 0.7, 1, 2, 3.3 and 60 s cadences, on both backends, with
/// two seeds and two passes. Neighbouring cadences take equal counts in
/// short dwells, 60 s hits the one-sample clamp, and the base is a twin of
/// the `2 s · analytic · seed 2` variant.
#[test]
fn klagenfurt_cadence_lanes_equal_their_oracles_at_every_pool_size() {
    let base = with_passes(klagenfurt_spec(), 2);
    let sweep = Sweep::new(
        sweep_spec(
            "lanes-klagenfurt",
            vec![
                cadences(&[0.7, 1.0, 2.0, 3.3, 60.0]),
                AxisDef::Backend { select: BackendSelect::Both },
                AxisDef::Seeds { start: 1, count: 2 },
            ],
        ),
        &base.to_json(),
    )
    .expect("valid sweep");
    let scenario = Scenario::from_spec(&base).expect("compiles");
    assert_lanes_match(&sweep, &scenario, "klagenfurt");
}

/// A wide-scheme grid (Skopje at 257 × 12): each lane takes a prefix of
/// the lead's uniforms column.
#[test]
fn wide_grid_cadence_lanes_equal_their_oracles_at_every_pool_size() {
    let mut base = with_passes(skopje_spec(), 2);
    base.grid.cols = 257;
    base.grid.rows = 12;
    let sweep = Sweep::new(
        sweep_spec(
            "lanes-wide",
            vec![cadences(&[0.7, 2.0, 60.0]), AxisDef::Seeds { start: 1, count: 2 }],
        ),
        &base.to_json(),
    )
    .expect("valid sweep");
    let scenario = Scenario::from_spec(&base).expect("compiles");
    assert_eq!(scenario.key_scheme, KeyScheme::Wide);
    assert_lanes_match(&sweep, &scenario, "wide");
}

/// The faulted flap at 1, 2 and 4 s cadences: a fault window routes each
/// probe at its launch time, so each cadence draws alone, and every run
/// must still equal its oracle.
#[test]
fn faulted_cadence_runs_equal_their_oracles_at_every_pool_size() {
    let base = with_passes(klagenfurt_flap_spec(), 1);
    let sweep = Sweep::new(
        sweep_spec(
            "lanes-flap",
            vec![cadences(&[1.0, 2.0, 4.0]), AxisDef::Seeds { start: 1, count: 2 }],
        ),
        &base.to_json(),
    )
    .expect("valid sweep");
    let scenario = Scenario::from_spec(&base).expect("compiles");
    assert_lanes_match(&sweep, &scenario, "flap");
}

/// Streamed reports arrive in run order even where draw groups finish out
/// of it. With the cadence axis slowest and the seed fastest, seed 2's
/// group (the base, runs 2 and 4) runs before seed 1's (runs 1 and 3); a
/// run is emitted only once every earlier run is done, and with the bits
/// of the final report.
#[test]
fn streamed_reports_arrive_in_run_order_with_the_final_bits() {
    let sweep = sweep_spec(
        "lanes-stream",
        vec![cadences(&[1.0, 2.0]), AxisDef::Seeds { start: 1, count: 2 }],
    );
    let req = ExecRequest::sweep(sweep, with_passes(klagenfurt_spec(), 1).to_value());
    let mut streamed = Vec::new();
    let report = Executor::new()
        .execute_streaming(&req, |run, v| streamed.push((run, v.to_value())))
        .expect("runs");
    let ExecReport::Sweep(run) = &report else { panic!("expected a sweep report") };
    assert_eq!(streamed.iter().map(|(r, _)| *r).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
    let finals = std::iter::once(&run.report.base).chain(&run.report.variants);
    for ((r, got), want) in streamed.iter().zip(finals) {
        assert!(*got == want.to_value(), "run {r}: streamed bits differ from the final report");
    }
}
