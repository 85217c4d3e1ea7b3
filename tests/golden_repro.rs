//! Golden-value regression suite.
//!
//! Pins the key numbers behind the `repro_*` binaries — the gap exceedance,
//! the Table I hop count, the Klagenfurt campaign grand mean, the
//! multi-seed sweep extrema, the packet world's event runs and a
//! wide-key-scheme run with its report bytes — against committed expected
//! values **to the bit**. Any change to the RNG streams, distribution
//! parameterisations, routing metric, or accumulation order shows up here
//! as a bit-exact diff, not a tolerance-sized drift.
//!
//! The values are pinned for the CI target (x86_64-linux-gnu): IEEE-754
//! arithmetic is deterministic everywhere, but `ln`/`exp`/`powf` round
//! through the platform libm, so other platforms may differ in final bits.
//!
//! To regenerate after an *intentional* model change:
//!
//! ```text
//! cargo test --test golden_repro -- --ignored --nocapture
//! ```
//!
//! and paste the printed table over `EXPECTED`.

use sixg::core::gap::GapReport;
use sixg::core::requirements::campaign_reference_requirement;
use sixg::measure::aggregate::FieldSummary;
use sixg::measure::campaign::{CampaignConfig, MobileCampaign, Shard};
use sixg::measure::event_backend::EventCampaign;
use sixg::measure::exec::{execute, run_field, ExecReport, ExecRequest, RunReport};
use sixg::measure::klagenfurt::{klagenfurt_flap_spec, klagenfurt_spec, KlagenfurtScenario};
use sixg::measure::parallel::with_thread_count;
use sixg::measure::scenario::Scenario;
use sixg::measure::skopje::skopje_spec;
use sixg::measure::store::fnv1a64;
use sixg::measure::ExecBackend;
use std::sync::OnceLock;

/// The shared reproduction seed (same as `sixg_bench::REPRO_SEED`).
const SEED: u64 = 0x6B6C_7531;

/// The dense campaign seed every figure binary uses.
const DENSE_SEED: u64 = 2;

/// Seeds of the pinned sweep.
const SWEEP_SEEDS: [u64; 3] = [1, 2, 3];

fn scenario() -> &'static KlagenfurtScenario {
    static S: OnceLock<KlagenfurtScenario> = OnceLock::new();
    S.get_or_init(|| KlagenfurtScenario::paper(SEED))
}

/// The wide key scheme end to end: Skopje widened to 600 × 300 cells and
/// run for two passes through `execute`, so the columnar sampling kernel,
/// the range workers' fold and the super-cell report all decide its bits.
fn wide_report() -> &'static RunReport {
    static R: OnceLock<RunReport> = OnceLock::new();
    R.get_or_init(|| {
        let mut spec = skopje_spec().clone();
        spec.name = "wide-golden".into();
        spec.grid.cols = 600;
        spec.grid.rows = 300;
        spec.campaign.passes = 2;
        match execute(&ExecRequest::run(spec)).expect("the widened spec runs") {
            ExecReport::Run(out) => out.report,
            other => panic!("expected a run report, got {other:?}"),
        }
    })
}

/// Computes every golden quantity, in a fixed order, from the same logic
/// the `repro_*` binaries run.
fn compute_goldens() -> Vec<(&'static str, f64)> {
    let s = scenario();

    // Figures 2-3 / repro_requirements: the dense campaign and its gap.
    let field = run_field(s, CampaignConfig::dense(DENSE_SEED), ExecBackend::Analytic);
    let (mean_min, mean_max) = field.mean_extrema().expect("non-empty");
    let (std_min, std_max) = field.std_extrema().expect("non-empty");
    let gap = GapReport::analyse(&field, &campaign_reference_requirement());

    // Table I: the pinned traceroute.
    let trace = MobileCampaign::new(s, CampaignConfig::default()).table1_traceroute(0);

    // The multi-seed sweep (repro_fig2/3 stability check).
    let sweep: Vec<(u64, FieldSummary)> = SWEEP_SEEDS
        .iter()
        .map(|&seed| {
            let config = CampaignConfig { seed, ..Default::default() };
            (seed, run_field(s, config, ExecBackend::Analytic).summary())
        })
        .collect();
    let mean_range = |f: &FieldSummary| {
        let (min, max) = f.mean_extrema.as_ref().expect("non-empty campaign");
        (min.mean_ms, max.mean_ms)
    };
    let sweep_min = sweep.iter().map(|(_, f)| mean_range(f).0).fold(f64::INFINITY, f64::min);
    let sweep_max = sweep.iter().map(|(_, f)| mean_range(f).1).fold(f64::NEG_INFINITY, f64::max);

    let mut out = vec![
        ("dense_grand_mean_ms", field.grand_mean_ms()),
        ("dense_total_samples", field.total_samples() as f64),
        ("dense_mean_min_ms", mean_min.mean_ms),
        ("dense_mean_max_ms", mean_max.mean_ms),
        ("dense_std_min_ms", std_min.std_ms),
        ("dense_std_max_ms", std_max.std_ms),
        ("gap_exceedance_pct", gap.exceedance_pct),
        ("gap_best_cell_exceedance_pct", gap.best_cell_exceedance_pct),
        ("gap_compliant_cells", gap.compliant_cells as f64),
        ("table1_hop_count", trace.hop_count() as f64),
        ("table1_total_rtt_ms", trace.total_rtt_ms()),
        ("sweep_mean_range_min_ms", sweep_min),
        ("sweep_mean_range_max_ms", sweep_max),
    ];
    for (seed, f) in &sweep {
        let name: &'static str = match seed {
            1 => "sweep_seed1_grand_mean_ms",
            2 => "sweep_seed2_grand_mean_ms",
            3 => "sweep_seed3_grand_mean_ms",
            _ => unreachable!("unpinned sweep seed"),
        };
        out.push((name, f.grand_mean_ms));
    }

    // E22 / repro_faults: the transit-flap fault campaign over the live
    // control plane (one pass keeps the suite fast; the in-outage detour
    // shift makes these bits sensitive to every layer from the BGP
    // message order down to the per-probe draws).
    let flap = Scenario::from_spec(klagenfurt_flap_spec()).expect("flap spec compiles");
    let flap_field = run_field(
        &flap,
        CampaignConfig { seed: DENSE_SEED, passes: 1, sample_interval_s: 2.0 },
        ExecBackend::Event,
    );
    let flap_gap = GapReport::analyse(&flap_field, &campaign_reference_requirement());
    out.push(("flap_grand_mean_ms", flap_field.grand_mean_ms()));
    out.push(("flap_total_samples", flap_field.total_samples() as f64));
    out.push(("flap_exceedance_pct", flap_gap.exceedance_pct));

    // The plain packet world: a 2-pass Klagenfurt event run.
    let event = run_field(
        s,
        CampaignConfig { seed: DENSE_SEED, passes: 2, sample_interval_s: 2.0 },
        ExecBackend::Event,
    )
    .summary();
    out.push(("event_grand_mean_ms", event.grand_mean_ms));
    out.push(("event_total_samples", event.total_samples as f64));

    // A 13x-oversubscribed narrowband shard, where the FIFO order of
    // probe launches and leg arrivals decides the bits.
    let mut narrow = klagenfurt_spec().clone();
    narrow.ue.bandwidth_bps = 80_000.0;
    let narrow = Scenario::from_spec(&narrow).expect("narrowband spec compiles");
    let saturated = CampaignConfig { seed: 1, passes: 1, sample_interval_s: 0.001 };
    let shard = Shard { pass: 0, cell: narrow.reference_cell, dwell_s: 0.1 };
    let mut probes = Vec::new();
    EventCampaign::new(&narrow, saturated).collect_shard_into(shard, &mut probes);
    out.push(("saturated_shard_mean_ms", probes.iter().sum::<f64>() / probes.len() as f64));

    // The wide key scheme (`wide_report`).
    let wide = wide_report();
    out.push(("wide_total_samples", wide.total_samples as f64));
    out.push(("wide_grand_mean_ms", wide.grand_mean_ms));
    out.push(("wide_mean_min_ms", wide.mean_min_ms));
    out.push(("wide_mean_max_ms", wide.mean_max_ms));
    out.push(("wide_std_min_ms", wide.std_min_ms));
    out.push(("wide_std_max_ms", wide.std_max_ms));
    out
}

/// The committed expectations: `(name, value bits, human-readable value)`.
/// The third column is redundant (it is `f64::from_bits` of the second) and
/// exists so diffs of this table stay reviewable.
const EXPECTED: &[(&str, u64, f64)] = &[
    // GOLDEN-TABLE-START
    ("dense_grand_mean_ms", 0x4052885dff661ae7, 74.1307371613617),
    ("dense_total_samples", 0x40ecefa000000000, 59261.0),
    ("dense_mean_min_ms", 0x404e6e7a95f93457, 60.86311602276026),
    ("dense_mean_max_ms", 0x405b6c0fe3a24180, 109.68846979947375),
    ("dense_std_min_ms", 0x3ffd870a77234639, 1.8454689649410183),
    ("dense_std_max_ms", 0x4047e1fe362e60f4, 47.76557042374216),
    ("gap_exceedance_pct", 0x4070ea757f3fa1a1, 270.6536858068085),
    ("gap_best_cell_exceedance_pct", 0x40698a193b77816c, 204.31558011380127),
    ("gap_compliant_cells", 0x0000000000000000, 0.0),
    ("table1_hop_count", 0x4024000000000000, 10.0),
    ("table1_total_rtt_ms", 0x404f5fb8ead0763d, 62.74783072642138),
    ("sweep_mean_range_min_ms", 0x404e45f4716d0729, 60.546522310482324),
    ("sweep_mean_range_max_ms", 0x405bab548c51a63f, 110.677035407768),
    ("sweep_seed1_grand_mean_ms", 0x40529927eebae418, 74.39306228877138),
    ("sweep_seed2_grand_mean_ms", 0x4052cd9dc5085bff, 75.2127544957766),
    ("sweep_seed3_grand_mean_ms", 0x40529ba4257cf03c, 74.4318937034704),
    ("flap_grand_mean_ms", 0x40503151bc888d22, 64.77061379752243),
    ("flap_total_samples", 0x40a0560000000000, 2091.0),
    ("flap_exceedance_pct", 0x406bfb4c575560d5, 223.85306898761215),
    ("event_grand_mean_ms", 0x40529803e542fd56, 74.37523776571228),
    ("event_total_samples", 0x40afc20000000000, 4065.0),
    ("saturated_shard_mean_ms", 0x408d34c4631ba5ee, 934.5958921585095),
    ("wide_total_samples", 0x41749b5cd0000000, 21607885.0),
    ("wide_grand_mean_ms", 0x40533ff2230a3541, 76.99915386196973),
    ("wide_mean_min_ms", 0x4050732421da1ed1, 65.79908033657854),
    ("wide_mean_max_ms", 0x4057d0f594aa1106, 95.26498905761773),
    ("wide_std_min_ms", 0x3ff862bcf48f6e55, 1.5241059830795127),
    ("wide_std_max_ms", 0x403aef67cd44bf12, 26.935177640231878),
    // GOLDEN-TABLE-END
];

#[test]
fn golden_values_match_to_the_bit() {
    let computed = compute_goldens();
    assert_eq!(computed.len(), EXPECTED.len(), "golden table out of sync");
    for ((name, value), (exp_name, exp_bits, exp_value)) in computed.iter().zip(EXPECTED) {
        assert_eq!(name, exp_name, "golden table order changed");
        assert_eq!(
            value.to_bits(),
            *exp_bits,
            "{name}: computed {value:.17} != expected {exp_value:.17} \
             (bits {:#018x} vs {exp_bits:#018x})",
            value.to_bits(),
        );
    }
}

#[test]
fn golden_values_survive_parallel_execution() {
    // The same dense field, produced by the thread-pool runner at an
    // oversubscribed pool size, must hit the identical golden bits.
    let s = scenario();
    let field = with_thread_count(8, || {
        run_field(s, CampaignConfig::dense(DENSE_SEED), ExecBackend::Analytic)
    });
    let expect = |name: &str| EXPECTED.iter().find(|(n, ..)| *n == name).expect("golden name").1;
    assert_eq!(field.grand_mean_ms().to_bits(), expect("dense_grand_mean_ms"));
    assert_eq!((field.total_samples() as f64).to_bits(), expect("dense_total_samples"));
    let (mean_min, mean_max) = field.mean_extrema().expect("non-empty");
    assert_eq!(mean_min.mean_ms.to_bits(), expect("dense_mean_min_ms"));
    assert_eq!(mean_max.mean_ms.to_bits(), expect("dense_mean_max_ms"));
}

/// The wide run's report bytes, super-cell aggregates included, pinned
/// by their FNV-1a 64 hash: the rows above pin only its field summary.
#[test]
fn wide_grid_report_bytes_are_pinned() {
    let json = wide_report().to_json();
    assert_eq!(
        fnv1a64(json.as_bytes()),
        0xb185_18a3_7c24_6150,
        "the {}-byte wide-grid report moved",
        json.len()
    );
}

/// Prints the golden table in source form; run with `--ignored --nocapture`
/// after an intentional model change and paste over `EXPECTED`.
#[test]
#[ignore = "generator: prints the golden table for pasting into EXPECTED"]
fn regenerate_golden_table() {
    println!("    // GOLDEN-TABLE-START");
    for (name, value) in compute_goldens() {
        println!("    (\"{name}\", {:#018x}, {value:?}),", value.to_bits());
    }
    println!("    // GOLDEN-TABLE-END");
}
