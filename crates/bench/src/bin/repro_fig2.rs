//! E2 — Figure 2: "Urban Mean Round-trip Time Latency".
//!
//! Runs the dense mobile campaign and prints the per-cell mean-RTL grid,
//! checking the paper's anchors: 61 ms at C1 (minimum), 110 ms at C3
//! (maximum), 0.0 markers on non-traversed border cells, and the grand
//! mean behind the 270 % claim.

use sixg_bench::{compare, header, ms, shared_scenario};
use sixg_measure::campaign::CampaignConfig;
use sixg_measure::exec::run_field;
use sixg_measure::report::{render_grid, CampaignSummary, FieldStat};
use sixg_measure::spec::ExecBackend;

fn main() {
    let s = shared_scenario();
    let field = run_field(s, CampaignConfig::dense(2), ExecBackend::Analytic);

    header("Figure 2 — urban mean round-trip latency (ms)");
    println!("{}", render_grid(&field, FieldStat::Mean));

    let (min, max) = field.mean_extrema().expect("non-empty");
    compare("minimum cell mean", "61 ms @ C1", format!("{} @ {}", ms(min.mean_ms), min.cell));
    compare("maximum cell mean", "110 ms @ C3", format!("{} @ {}", ms(max.mean_ms), max.cell));
    compare("grand mean over 33 cells", "~74 ms", ms(field.grand_mean_ms()));
    compare(
        "masked cells (<10 samples)",
        9,
        field.all_stats().iter().filter(|c| c.is_masked()).count(),
    );

    let summary = CampaignSummary::from_field(&field);
    println!("\nJSON summary:\n{}", summary.to_json());
}
