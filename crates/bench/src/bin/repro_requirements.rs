//! E6 — Section III requirements table and the ≈270 % gap claim.
//!
//! Prints the per-application requirement envelopes and analyses the
//! dense campaign against the AR use case's 20 ms round-trip budget.

use sixg_bench::{compare, header, ms, pct, shared_scenario};
use sixg_core::gap::GapReport;
use sixg_core::requirements::{campaign_reference_requirement, ApplicationClass};
use sixg_measure::campaign::CampaignConfig;
use sixg_measure::exec::run_field;
use sixg_measure::spec::ExecBackend;

fn main() {
    header("Section III — application requirement envelopes");
    println!(
        "{:<24} {:>10} {:>14} {:>12} {:>14}  note",
        "class", "RTL (ms)", "tput (Mbit/s)", "GB/day", "dev/km²"
    );
    for class in ApplicationClass::ALL {
        let p = class.profile();
        println!(
            "{:<24} {:>10.1} {:>14.0} {:>12.0} {:>14.0}  {}",
            format!("{class:?}"),
            p.max_rtl_ms,
            p.min_throughput_bps / 1e6,
            p.data_per_day_gb,
            p.device_density_per_km2,
            p.note
        );
    }

    header("Gap analysis vs the measured campaign (AR budget: 20 ms)");
    let s = shared_scenario();
    let field = run_field(s, CampaignConfig::dense(2), ExecBackend::Analytic);
    let report = GapReport::analyse(&field, &campaign_reference_requirement());

    compare("measured grand mean", "~74 ms", ms(report.measured_mean_ms));
    compare("requirement exceedance", "~270 %", pct(report.exceedance_pct));
    compare("best-cell exceedance (61 ms)", "~205 %", pct(report.best_cell_exceedance_pct));
    compare(
        "compliant cells",
        "0 / 33",
        format!("{} / {}", report.compliant_cells, report.reported_cells),
    );
}
