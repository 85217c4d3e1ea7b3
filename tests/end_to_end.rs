//! Cross-crate integration: the full paper pipeline from scenario build
//! through campaign, gap analysis, and all three Section-V strategies.

use sixg::core::detour::DetourAnalysis;
use sixg::core::gap::GapReport;
use sixg::core::orchestrator;
use sixg::core::requirements::campaign_reference_requirement;
use sixg::measure::campaign::{CampaignConfig, MobileCampaign};
use sixg::measure::exec::run_field;
use sixg::measure::klagenfurt::KlagenfurtScenario;
use sixg::measure::wired::{mobile_wired_factor, WiredCampaign};
use sixg::measure::ExecBackend;
use std::sync::OnceLock;

const SEED: u64 = 0x6B6C_7531;

fn scenario() -> &'static KlagenfurtScenario {
    static S: OnceLock<KlagenfurtScenario> = OnceLock::new();
    S.get_or_init(|| KlagenfurtScenario::paper(SEED))
}

fn dense_field() -> &'static sixg::measure::aggregate::CellField {
    static F: OnceLock<sixg::measure::aggregate::CellField> = OnceLock::new();
    F.get_or_init(|| run_field(scenario(), CampaignConfig::dense(2), ExecBackend::Analytic))
}

#[test]
fn campaign_to_gap_pipeline() {
    let gap = GapReport::analyse(dense_field(), &campaign_reference_requirement());
    assert!((gap.exceedance_pct - 270.0).abs() < 15.0, "exceedance {}", gap.exceedance_pct);
    assert_eq!(gap.compliant_cells, 0);
    assert_eq!(gap.reported_cells, 33);
}

#[test]
fn traceroute_to_detour_pipeline() {
    let campaign = MobileCampaign::new(scenario(), CampaignConfig::default());
    let trace = campaign.table1_traceroute(0);
    let detour = DetourAnalysis::from_trace(&trace);
    assert_eq!(detour.hop_count, 10);
    assert!((detour.outbound_km - 2544.0).abs() < 60.0, "outbound {}", detour.outbound_km);
    assert!(detour.direct_km < 5.0);
}

#[test]
fn wired_to_factor_pipeline() {
    let wired = WiredCampaign::new(scenario(), 2).run();
    let factor = mobile_wired_factor(dense_field().grand_mean_ms(), &wired);
    assert!((6.0..=8.5).contains(&factor), "factor {factor}");
}

#[test]
fn all_strategies_improve_the_measured_scenario() {
    let reports = orchestrator::evaluate_all(SEED);
    assert_eq!(reports.len(), 3);
    for r in &reports {
        assert!(
            r.improved < r.baseline,
            "{} did not improve: {} -> {}",
            r.strategy,
            r.baseline,
            r.improved
        );
    }
    // The paper's ordering: peering and UPF cut >85%, CPF >50%.
    assert!(reports[0].reduction_pct > 85.0);
    assert!(reports[1].reduction_pct > 85.0);
    assert!(reports[2].reduction_pct > 50.0);
}

#[test]
fn campaign_field_masks_exactly_the_nine_skipped_cells() {
    let field = dense_field();
    let masked: Vec<String> =
        field.all_stats().iter().filter(|s| s.is_masked()).map(|s| s.cell.label()).collect();
    assert_eq!(masked.len(), 9);
    for label in ["A1", "F1", "F2", "A6", "F6", "A7", "B7", "E7", "F7"] {
        assert!(masked.contains(&label.to_string()), "{label} should be masked");
    }
}

#[test]
fn scenario_is_reproducible_across_builds() {
    let a = KlagenfurtScenario::paper(SEED);
    let b = KlagenfurtScenario::paper(SEED);
    assert_eq!(a.topo.node_count(), b.topo.node_count());
    for cell in &a.included {
        let ea = a.access_for(*cell).env;
        let eb = b.access_for(*cell).env;
        assert_eq!(ea.load.to_bits(), eb.load.to_bits(), "cell {cell}");
        assert_eq!(ea.interference.to_bits(), eb.interference.to_bits(), "cell {cell}");
    }
}
