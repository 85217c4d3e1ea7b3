//! Tier-1 contract of the declarative sweep subsystem: the committed sweep
//! file compiles to the documented matrix, the degenerate sweep is bitwise
//! a plain run, override-path and duplicate-target mistakes are rejected
//! with anchored errors, and the whole matrix is pool-size independent.

use serde::Value;
use sixg_measure::campaign::CampaignConfig;
use sixg_measure::exec::run_field;
use sixg_measure::klagenfurt::klagenfurt_spec;
use sixg_measure::parallel::with_thread_count;
use sixg_measure::scenario::Scenario;
use sixg_measure::spec::ExecBackend;
use sixg_measure::sweep::{AxisDef, BackendSelect, Sweep, SweepSpec, DEFAULT_REQUIREMENT_MS};

const COMMITTED_SWEEP: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/specs/sweeps/klagenfurt_cadence.json");

/// A Klagenfurt base trimmed to `passes` traversals, as JSON.
fn base_json(passes: u32) -> String {
    let mut spec = klagenfurt_spec().clone();
    spec.campaign.passes = passes;
    spec.to_json()
}

fn sweep_spec(axes: Vec<AxisDef>) -> SweepSpec {
    SweepSpec {
        name: "tier1-sweep".into(),
        description: String::new(),
        base: "inline".into(),
        requirement_ms: DEFAULT_REQUIREMENT_MS,
        axes,
    }
}

/// The committed E20 sweep loads, resolves its base relative to its own
/// directory, and compiles to the documented 18-variant matrix in odometer
/// order (cadence slowest, seed fastest).
#[test]
fn committed_cadence_sweep_compiles_to_the_documented_matrix() {
    let sweep = Sweep::from_file(COMMITTED_SWEEP).expect("committed sweep loads");
    assert_eq!(sweep.spec.name, "klagenfurt_cadence");
    assert_eq!(sweep.base.name, "klagenfurt");
    assert_eq!(sweep.spec.variant_count(), 18);

    let variants = sweep.variants().expect("compiles");
    assert_eq!(variants.len(), 18);
    // Odometer order: seeds fastest, then backend, then cadence.
    assert_eq!(
        variants[0].label,
        "$.campaign.sample_interval_s=1.0 · $.backend=analytic · $.campaign.seed=1"
    );
    assert_eq!(variants[1].config.seed, 2);
    assert_eq!(variants[3].backend, ExecBackend::Event);
    assert_eq!(variants[6].config.sample_interval_s, 2.0);
    assert_eq!(
        variants[17].label,
        "$.campaign.sample_interval_s=4.0 · $.backend=event · $.campaign.seed=3"
    );
    // Every variant keeps the base's pass count — only the axes vary.
    for v in &variants {
        assert_eq!(v.config.passes, sweep.base.campaign.passes, "{}", v.label);
    }
}

/// Empty axes are the degenerate one-variant sweep, and both its base run
/// and its single variant are bitwise identical to a plain single-campaign
/// run of the base spec.
#[test]
fn degenerate_sweep_equals_plain_run_bitwise() {
    let sweep = Sweep::new(sweep_spec(Vec::new()), &base_json(1)).expect("valid sweep");
    let run = sweep.run().expect("runs");
    assert_eq!(run.report.variant_count, 1);

    let scenario = Scenario::from_spec(&sweep.base).expect("compiles");
    let config = CampaignConfig {
        seed: sweep.base.campaign.seed,
        sample_interval_s: sweep.base.campaign.sample_interval_s,
        passes: sweep.base.campaign.passes,
    };
    let plain = run_field(&scenario, config, ExecBackend::Analytic);
    for cell in scenario.grid.cells() {
        let want = plain.stats(cell);
        for (name, field) in [("base", &run.base_field), ("variant", &run.variant_fields[0])] {
            let got = field.stats(cell);
            assert_eq!(want.count, got.count, "{name} cell {cell} count");
            assert_eq!(want.mean_ms.to_bits(), got.mean_ms.to_bits(), "{name} cell {cell} mean");
            assert_eq!(want.std_ms.to_bits(), got.std_ms.to_bits(), "{name} cell {cell} std");
        }
    }
}

/// An override path that does not resolve in the base spec is rejected at
/// sweep construction, anchored at the axis that names it.
#[test]
fn unresolvable_override_path_is_anchored_to_its_axis() {
    let spec = sweep_spec(vec![
        AxisDef::Seeds { start: 1, count: 2 },
        AxisDef::Override { path: "$.campaign.cadence_s".into(), values: vec![Value::F64(1.0)] },
    ]);
    let err = Sweep::new(spec, &base_json(1)).unwrap_err();
    assert_eq!(err.path, "$.axes[1].path");
    assert!(err.message.contains("$.campaign.cadence_s"), "{err}");
}

/// Two axes sweeping the same spec element are rejected.
#[test]
fn duplicate_axis_targets_are_rejected() {
    let spec = sweep_spec(vec![
        AxisDef::Backend { select: BackendSelect::Both },
        AxisDef::Override { path: "$.backend".into(), values: vec![Value::String("event".into())] },
    ]);
    let errors = spec.validate();
    let e = errors.iter().find(|e| e.path == "$.axes[1]").expect("duplicate reported");
    assert!(e.message.contains("duplicate axis target"), "{e}");
}

/// The matrix is deterministic across pool sizes: the serialised report
/// (no wall times) is textually identical at 1 and 4 threads.
#[test]
fn sweep_matrix_is_pool_size_independent() {
    let make = || {
        Sweep::new(
            sweep_spec(vec![
                AxisDef::Override {
                    path: "$.ue.utilisation".into(),
                    values: vec![Value::F64(0.10), Value::F64(0.25)],
                },
                AxisDef::Seeds { start: 3, count: 2 },
            ]),
            &base_json(1),
        )
        .expect("valid sweep")
    };
    let a = with_thread_count(1, || make().run().expect("runs").report.to_json());
    let b = with_thread_count(4, || make().run().expect("runs").report.to_json());
    assert_eq!(a, b, "sweep report must not depend on the pool size");
}
