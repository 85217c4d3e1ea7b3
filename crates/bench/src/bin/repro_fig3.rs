//! E3 — Figure 3: "Standard Deviation Latency".
//!
//! Same campaign as Figure 2, reporting the per-cell standard deviation
//! with its paper anchors: 1.8 ms at B3 (minimum), 46.4 ms at E5
//! (maximum).

use sixg_bench::{compare, header, ms, shared_scenario};
use sixg_measure::campaign::CampaignConfig;
use sixg_measure::exec::run_field;
use sixg_measure::report::{render_grid, FieldStat};
use sixg_measure::spec::ExecBackend;

fn main() {
    let s = shared_scenario();
    let field = run_field(s, CampaignConfig::dense(2), ExecBackend::Analytic);

    header("Figure 3 — per-cell RTL standard deviation (ms)");
    println!("{}", render_grid(&field, FieldStat::StdDev));

    let (min, max) = field.std_extrema().expect("non-empty");
    compare("minimum cell σ", "1.8 ms @ B3", format!("{} @ {}", ms(min.std_ms), min.cell));
    compare("maximum cell σ", "46.4 ms @ E5", format!("{} @ {}", ms(max.std_ms), max.cell));
    println!(
        "\nThe paper: 'large variance highlights significant inter-cell and\n\
         intra-cell latency differences, considerably higher than static nodes.'"
    );
}
