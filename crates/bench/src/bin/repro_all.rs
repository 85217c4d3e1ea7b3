//! Runs the complete reproduction suite and prints the paper-vs-measured
//! summary table that EXPERIMENTS.md records, writing a machine-readable
//! copy to `experiments.json` in the working directory.

use sixg_bench::{header, shared_scenario, REPRO_SEED};
use sixg_core::detour::DetourAnalysis;
use sixg_core::gap::GapReport;
use sixg_core::orchestrator;
use sixg_core::requirements::campaign_reference_requirement;
use sixg_measure::campaign::{CampaignConfig, MobileCampaign};
use sixg_measure::exec::run_field;
use sixg_measure::spec::ExecBackend;
use sixg_measure::wired::{mobile_wired_factor, WiredCampaign};
use sixg_netsim::radio::phy::MmWavePhy;
use sixg_netsim::stats::Welford;

struct Row {
    experiment: String,
    artifact: String,
    paper: String,
    measured: String,
    holds: bool,
}

fn row(experiment: &str, artifact: &str, paper: &str, measured: String, holds: bool) -> Row {
    Row {
        experiment: experiment.to_string(),
        artifact: artifact.to_string(),
        paper: paper.to_string(),
        measured,
        holds,
    }
}

fn main() {
    let s = shared_scenario();
    let mut rows: Vec<Row> = Vec::new();

    header("Running dense mobile campaign (Figures 2-3)");
    let field = run_field(s, CampaignConfig::dense(2), ExecBackend::Analytic);
    let (min, max) = field.mean_extrema().expect("non-empty");
    let (smin, smax) = field.std_extrema().expect("non-empty");
    rows.push(row(
        "E2",
        "Fig. 2 min mean",
        "61 ms @ C1",
        format!("{:.1} ms @ {}", min.mean_ms, min.cell),
        (min.mean_ms - 61.0).abs() < 2.0 && min.cell.label() == "C1",
    ));
    rows.push(row(
        "E2",
        "Fig. 2 max mean",
        "110 ms @ C3",
        format!("{:.1} ms @ {}", max.mean_ms, max.cell),
        (max.mean_ms - 110.0).abs() < 3.0 && max.cell.label() == "C3",
    ));
    rows.push(row(
        "E3",
        "Fig. 3 min sigma",
        "1.8 ms @ B3",
        format!("{:.1} ms @ {}", smin.std_ms, smin.cell),
        (smin.std_ms - 1.8).abs() < 0.6 && smin.cell.label() == "B3",
    ));
    rows.push(row(
        "E3",
        "Fig. 3 max sigma",
        "46.4 ms @ E5",
        format!("{:.1} ms @ {}", smax.std_ms, smax.cell),
        (smax.std_ms - 46.4).abs() < 4.0 && smax.cell.label() == "E5",
    ));

    header("Table I traceroute + Figure 4 detour");
    let campaign = MobileCampaign::new(s, CampaignConfig::default());
    let trace = campaign.table1_traceroute(0);
    let mut rtl = Welford::new();
    for rep in 0..500 {
        rtl.push(campaign.table1_traceroute(rep).total_rtt_ms());
    }
    let detour = DetourAnalysis::from_trace(&trace);
    rows.push(row(
        "E4",
        "Table I hop count",
        "10",
        format!("{}", trace.hop_count()),
        trace.hop_count() == 10,
    ));
    rows.push(row(
        "E4",
        "Table I RTL",
        "65 ms",
        format!("{:.1} ms", rtl.mean()),
        (rtl.mean() - 65.0).abs() < 2.0,
    ));
    rows.push(row(
        "E5",
        "Fig. 4 detour",
        "2544 km",
        format!("{:.0} km", detour.outbound_km),
        (detour.outbound_km - 2544.0).abs() < 60.0,
    ));

    header("Requirements gap (Section III vs IV)");
    let gap = GapReport::analyse(&field, &campaign_reference_requirement());
    rows.push(row(
        "E6",
        "exceedance vs 20 ms",
        "~270 %",
        format!("{:.0} %", gap.exceedance_pct),
        (gap.exceedance_pct - 270.0).abs() < 15.0,
    ));

    header("Wired baseline");
    let wired = WiredCampaign::new(s, 2).run();
    let factor = mobile_wired_factor(field.grand_mean_ms(), &wired);
    rows.push(row(
        "E7",
        "mobile/wired factor",
        "~7x",
        format!("{factor:.1}x"),
        (6.0..=8.5).contains(&factor),
    ));
    rows.push(row(
        "E7",
        "wired cloud RTT",
        "7-12 ms",
        format!("{:.1} ms", wired.cloud_mean_ms),
        (7.0..=12.0).contains(&wired.cloud_mean_ms),
    ));

    header("mmWave PHY (Fezeu)");
    let phy = MmWavePhy::calibrated();
    let f1 = phy.empirical_fraction_below(1.0, 400_000, 1);
    let f3 = phy.empirical_fraction_below(3.0, 400_000, 2);
    rows.push(row(
        "E8",
        "PHY < 1 ms",
        "4.40 %",
        format!("{:.2} %", f1 * 100.0),
        (f1 - 0.044).abs() < 0.005,
    ));
    rows.push(row(
        "E8",
        "PHY < 3 ms",
        "22.36 %",
        format!("{:.2} %", f3 * 100.0),
        (f3 - 0.2236).abs() < 0.01,
    ));

    header("Section V strategies");
    let strategies = orchestrator::evaluate_all(REPRO_SEED);
    print!("{}", orchestrator::render_reports(&strategies));
    let upf = &strategies[1];
    rows.push(row(
        "E10",
        "edge-UPF RTT",
        "5-6.2 ms",
        format!("{:.1} ms", upf.improved),
        (5.0..=6.2).contains(&upf.improved),
    ));
    rows.push(row(
        "E10",
        "UPF reduction",
        "up to 90 %",
        format!("{:.0} %", upf.reduction_pct),
        (85.0..=95.0).contains(&upf.reduction_pct),
    ));

    header("Summary: paper vs measured");
    println!("{:<5} {:<22} {:<14} {:<16} holds", "exp", "artifact", "paper", "measured");
    let mut all_hold = true;
    for r in &rows {
        all_hold &= r.holds;
        println!(
            "{:<5} {:<22} {:<14} {:<16} {}",
            r.experiment,
            r.artifact,
            r.paper,
            r.measured,
            if r.holds { "yes" } else { "NO" }
        );
    }
    println!("\nall checks hold: {all_hold}");

    let values: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "experiment": r.experiment,
                "artifact": r.artifact,
                "paper": r.paper,
                "measured": r.measured,
                "holds": r.holds,
            })
        })
        .collect();
    let json = serde_json::to_string_pretty(&values).expect("rows serialise");
    std::fs::write("experiments.json", json).expect("write experiments.json");
    println!("wrote experiments.json");
}
