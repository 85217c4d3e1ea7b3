//! Integration suite for the declarative scenario subsystem.
//!
//! Three contracts, end to end over the *committed files* in `specs/`:
//!
//! 1. **Canonical files, round-trip stability** — every `specs/*.json`,
//!    read from the directory, is exactly its spec's `to_json()` text under
//!    a file stem equal to the spec's name; serialise → deserialise → build
//!    is bitwise-stable: a spec that went through JSON text compiles into
//!    a scenario with identical calibration and density bits.
//! 2. **Scenario parity** — the Klagenfurt scenario compiled from the spec
//!    *file on disk* reproduces the golden repro numbers bit for bit, on
//!    the sequential runner and on the thread pool at 1 and 4 workers
//!    (the CI thread matrix re-runs the whole suite under
//!    `RAYON_NUM_THREADS={1,4}` as well).
//! 3. **Malformed specs fail usefully** — overlapping cells, negative
//!    delays, unknown hop references and friends are rejected with errors
//!    that name the JSON path and say what to fix.

use sixg::measure::campaign::CampaignConfig;
use sixg::measure::exec::{run_field, run_field_sequential};
use sixg::measure::parallel::with_thread_count;
use sixg::measure::scenario::{KeyScheme, Scenario};
use sixg::measure::spec::{ExecBackend, ScenarioSpec};

fn spec_path(name: &str) -> String {
    format!("{}/specs/{name}.json", env!("CARGO_MANIFEST_DIR"))
}

fn load(name: &str) -> ScenarioSpec {
    let text = std::fs::read_to_string(spec_path(name)).expect("committed spec file readable");
    ScenarioSpec::from_json(&text).expect("committed spec file parses")
}

/// Every committed spec file `specs/*.json` as `(file stem, text)`, sorted
/// by stem: a new site joins the suite by being committed.
fn committed_spec_files() -> Vec<(String, String)> {
    let dir = format!("{}/specs", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("specs/ readable")
        .map(|entry| entry.expect("specs/ entry readable").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no committed spec files found");
    paths
        .into_iter()
        .map(|path| {
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("UTF-8 file stem");
            let text = std::fs::read_to_string(&path).expect("committed spec file readable");
            (stem.to_string(), text)
        })
        .collect()
}

/// Golden bits copied from `tests/golden_repro.rs` — the dense Klagenfurt
/// campaign numbers every repro binary pins.
const GOLDEN_GRAND_MEAN_BITS: u64 = 0x4052885dff661ae7;
const GOLDEN_TOTAL_SAMPLES: u64 = 59261;
const GOLDEN_MEAN_MIN_BITS: u64 = 0x404e6e7a95f93457;
const GOLDEN_MEAN_MAX_BITS: u64 = 0x405b6c0fe3a24180;

#[test]
fn committed_specs_parse_validate_and_compile() {
    for (name, text) in committed_spec_files() {
        let spec = ScenarioSpec::from_json(&text).expect("committed spec file parses");
        assert_eq!(spec.name, name);
        let errors = spec.validate();
        assert!(errors.is_empty(), "{name}: {errors:?}");
        let scenario = Scenario::from_spec(&spec).expect("compiles");
        assert!(!scenario.included.is_empty(), "{name} traverses cells");
        match scenario.key_scheme {
            // Packable grids materialise one calibrated access model per
            // traversed cell.
            KeyScheme::Legacy => {
                assert_eq!(scenario.access.len(), scenario.included.len(), "{name} calibrated");
            }
            // Mega-grids skip per-cell materialisation by design; samples
            // come from the columnar target-field path instead.
            KeyScheme::Wide => {
                assert!(scenario.access.is_empty(), "{name}: wide scheme has no per-cell models");
                assert!(scenario.ue.is_empty(), "{name}: wide scheme has no per-cell UEs");
            }
        }
    }
}

#[test]
fn klagenfurt_spec_file_reproduces_golden_numbers_across_pool_sizes() {
    // The spec's own seed policy IS the dense golden configuration:
    // scenario seed 0x6B6C_7531, campaign seed 2, 30 passes.
    let spec = load("klagenfurt");
    assert_eq!(spec.seed, 0x6B6C_7531);
    let scenario = Scenario::from_spec(&spec).expect("compiles");
    let config = CampaignConfig {
        seed: spec.campaign.seed,
        sample_interval_s: spec.campaign.sample_interval_s,
        passes: spec.campaign.passes,
    };

    let check = (|field: sixg::measure::CellField| {
        assert_eq!(field.grand_mean_ms().to_bits(), GOLDEN_GRAND_MEAN_BITS);
        assert_eq!(field.total_samples(), GOLDEN_TOTAL_SAMPLES);
        let (min, max) = field.mean_extrema().expect("non-empty");
        assert_eq!(min.mean_ms.to_bits(), GOLDEN_MEAN_MIN_BITS);
        assert_eq!(max.mean_ms.to_bits(), GOLDEN_MEAN_MAX_BITS);
    }) as fn(sixg::measure::CellField);

    // Sequential, then the thread pool pinned to 1 and 4 workers.
    check(run_field_sequential(&scenario, config, ExecBackend::Analytic));
    check(with_thread_count(1, || run_field(&scenario, config, ExecBackend::Analytic)));
    check(with_thread_count(4, || run_field(&scenario, config, ExecBackend::Analytic)));
}

#[test]
fn serialize_deserialize_build_is_bitwise_stable() {
    for (name, text) in committed_spec_files() {
        let spec = ScenarioSpec::from_json(&text).expect("committed spec file parses");
        // The file is the only copy of the site, so it must be canonical:
        // exactly what the spec serialises to, under its own name.
        assert!(text == spec.to_json() + "\n", "{name}: file is not canonical to_json() text");
        assert_eq!(spec.name, name, "{name}: file stem differs from the spec name");
        let round_tripped =
            ScenarioSpec::from_json(&spec.to_json()).expect("re-serialised spec parses");
        assert_eq!(round_tripped, spec, "{name}: value-level round trip");

        let a = Scenario::from_spec(&spec).expect("compiles");
        let b = Scenario::from_spec(&round_tripped).expect("compiles");
        assert_eq!(a.included, b.included, "{name}: traversal set");
        let (density_a, density_b) = (a.density(), b.density());
        for cell in a.grid.cells() {
            assert_eq!(
                density_a.density(cell).to_bits(),
                density_b.density(cell).to_bits(),
                "{name}: density bits at {cell}"
            );
        }
        // A wide-key grid has no per-cell access models to compare.
        if a.key_scheme == KeyScheme::Wide {
            continue;
        }
        for &cell in &a.included {
            assert_eq!(
                a.access[&cell].env.load.to_bits(),
                b.access[&cell].env.load.to_bits(),
                "{name}: calibrated load bits at {cell}"
            );
            assert_eq!(
                a.access[&cell].env.interference.to_bits(),
                b.access[&cell].env.interference.to_bits(),
                "{name}: calibrated interference bits at {cell}"
            );
        }
    }
}

/// Patches one committed spec with a JSON-text substitution and returns the
/// resulting validation/parse failure.
fn break_spec(name: &str, from: &str, to: &str) -> Vec<String> {
    let text = std::fs::read_to_string(spec_path(name)).expect("readable");
    assert!(text.contains(from), "fixture drift: {from:?} not in specs/{name}.json");
    let broken = text.replace(from, to);
    match ScenarioSpec::from_json(&broken) {
        Err(e) => vec![e.to_string()],
        Ok(spec) => spec.validate().iter().map(|e| e.to_string()).collect(),
    }
}

#[test]
fn unknown_hop_reference_is_rejected_with_path_and_name() {
    let errors = break_spec("klagenfurt", "\"a\": \"op-cgnat-klu\"", "\"a\": \"op-cgnat-typo\"");
    assert!(
        errors.iter().any(|e| e.contains("$.links[0].a") && e.contains("op-cgnat-typo")),
        "{errors:?}"
    );
}

#[test]
fn negative_delay_is_rejected() {
    let errors = break_spec(
        "klagenfurt",
        "\"kind\": \"constant\",\n        \"ms\": 2.0",
        "\"kind\": \"constant\",\n        \"ms\": -2.0",
    );
    assert!(errors.iter().any(|e| e.contains("extra") && e.contains("non-negative")), "{errors:?}");
}

#[test]
fn overlapping_skip_entries_are_rejected() {
    let errors = break_spec(
        "skopje",
        "\"skipped_cells\": [\n    \"A1\",",
        "\"skipped_cells\": [\n    \"A1\",\n    \"A1\",",
    );
    assert!(
        errors.iter().any(|e| e.contains("skipped_cells") && e.contains("overlapping")),
        "{errors:?}"
    );
}

#[test]
fn unknown_backend_is_rejected_with_path() {
    let errors = break_spec("klagenfurt", "\"backend\": \"analytic\"", "\"backend\": \"quantum\"");
    assert!(errors.iter().any(|e| e.contains("$.backend") && e.contains("quantum")), "{errors:?}");
    // And the error names the accepted values, so it is actionable.
    assert!(errors.iter().any(|e| e.contains("analytic or event")), "{errors:?}");
}

#[test]
fn zero_sample_interval_is_rejected_with_path() {
    let errors =
        break_spec("klagenfurt", "\"sample_interval_s\": 2.0", "\"sample_interval_s\": 0.0");
    assert!(
        errors.iter().any(|e| e.contains("$.campaign.sample_interval_s") && e.contains("positive")),
        "{errors:?}"
    );
}

#[test]
fn event_backend_spec_compiles_and_runs_deterministically() {
    // Flip the committed Klagenfurt spec to the event backend: it must
    // validate, compile, and produce identical fields at pool sizes 1/4.
    let text = std::fs::read_to_string(spec_path("klagenfurt")).expect("readable");
    let flipped = text.replace("\"backend\": \"analytic\"", "\"backend\": \"event\"");
    assert_ne!(text, flipped, "fixture drift: backend field missing from committed spec");
    let spec = ScenarioSpec::from_json(&flipped).expect("parses");
    assert!(spec.validate().is_empty());
    assert_eq!(spec.backend, "event");

    let scenario = Scenario::from_spec(&spec).expect("compiles");
    let config = CampaignConfig { passes: 2, ..Default::default() };
    let backend = sixg::measure::spec::parse_backend(&spec.backend).expect("parses");
    let a = with_thread_count(1, || run_field(&scenario, config, backend));
    let b = with_thread_count(4, || run_field(&scenario, config, backend));
    for cell in scenario.grid.cells() {
        assert_eq!(a.stats(cell).mean_ms.to_bits(), b.stats(cell).mean_ms.to_bits(), "{cell}");
        assert_eq!(a.stats(cell).count, b.stats(cell).count, "{cell}");
    }
}

#[test]
fn type_errors_carry_json_paths() {
    let errors = break_spec("megacity", "\"cols\": 10", "\"cols\": \"ten\"");
    assert!(
        errors.iter().any(|e| e.contains("$.grid.cols") && e.contains("integer")),
        "{errors:?}"
    );
}

#[test]
fn out_of_range_utilisation_is_rejected() {
    let errors = break_spec("skopje", "\"utilisation\": 0.65", "\"utilisation\": 1.65");
    assert!(errors.iter().any(|e| e.contains("utilisation") && e.contains("[0, 1)")), "{errors:?}");
}

#[test]
fn truncated_json_reports_position() {
    let text = std::fs::read_to_string(spec_path("klagenfurt")).expect("readable");
    let err = ScenarioSpec::from_json(&text[..text.len() / 2]).expect_err("must fail");
    assert!(err.message.contains("invalid JSON"), "{err}");
    assert!(err.message.contains("line"), "{err}");
}
