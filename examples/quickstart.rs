//! Quickstart: build the measured Klagenfurt scenario, run a small
//! campaign, and print the paper's headline numbers.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sixg::core::gap::GapReport;
use sixg::core::requirements::campaign_reference_requirement;
use sixg::measure::campaign::{CampaignConfig, MobileCampaign};
use sixg::measure::exec::run_field;
use sixg::measure::klagenfurt::KlagenfurtScenario;
use sixg::measure::report::{render_grid, FieldStat};
use sixg::measure::spec::ExecBackend;

fn main() {
    // 1. Build the scenario: topology, AS policies, grid, calibration.
    let scenario = KlagenfurtScenario::paper(42);
    println!(
        "scenario: {} nodes, {} links, {} ASes, {} traversed cells",
        scenario.topo.node_count(),
        scenario.topo.link_count(),
        scenario.topo.asns().len(),
        scenario.included.len()
    );

    // 2. Run one measurement pass (the paper's Figures 2-3 pipeline).
    let field = run_field(&scenario, CampaignConfig::default(), ExecBackend::Analytic);
    println!("\nmean RTL per cell (ms):\n{}", render_grid(&field, FieldStat::Mean));

    // 3. Gap analysis against the AR use case's 20 ms budget.
    let gap = GapReport::analyse(&field, &campaign_reference_requirement());
    println!(
        "grand mean {:.1} ms -> exceeds the {} ms requirement by {:.0} % \
         ({} of {} cells compliant)",
        gap.measured_mean_ms,
        gap.requirement_ms,
        gap.exceedance_pct,
        gap.compliant_cells,
        gap.reported_cells
    );

    // 4. The ten-hop local request of Table I.
    let trace = MobileCampaign::new(&scenario, CampaignConfig::default()).table1_traceroute(0);
    println!("\nTable I traceroute ({} hops, {:.1} ms):", trace.hop_count(), trace.total_rtt_ms());
    print!("{trace}");
}
