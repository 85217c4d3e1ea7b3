//! E1 — Figure 1: "Mobile evaluation scenario using grid segmentation".
//!
//! Regenerates the campaign's spatial setup: the 6×7 grid of 1 km cells
//! over Klagenfurt, the synthetic population-density field with its
//! sparse border cells, the boustrophedon traversal of the 33 measured
//! cells, and the resulting per-cell sample counts.

use sixg_bench::{compare, header, shared_scenario};
use sixg_geo::CellId;
use sixg_measure::campaign::{CampaignConfig, MobileCampaign};
use sixg_measure::exec::run_field;
use sixg_measure::report::{render_grid, FieldStat};
use sixg_measure::spec::ExecBackend;

fn main() {
    let s = shared_scenario();

    header("Figure 1 — grid segmentation scenario");
    compare("grid dimensions", "6 x 7 (A-F x 1-7)", format!("{} x {}", s.grid.cols, s.grid.rows));
    compare("cell side length", "1 km", format!("{} km", s.grid.cell_km));
    compare("cells traversed", 33, s.included.len());
    compare("peer nodes per mobile node", 8, s.peers.len());

    header("Population density (synthetic Statistik Austria substitute)");
    println!("cells below 1000 inhabitants/km² are skipped by the campaign:");
    let density = s.density();
    for r in 0..s.grid.rows {
        print!("  ");
        for c in 0..s.grid.cols {
            let cell = CellId::new(c, r);
            let d = density.density(cell);
            let mark = if density.is_sparse(cell) { '.' } else { '#' };
            print!("{mark}{d:>5.0} ");
        }
        println!();
    }

    header("Traversal (boustrophedon over included cells)");
    let campaign = MobileCampaign::new(s, CampaignConfig::default());
    let t = campaign.traversal(0);
    let labels: Vec<String> = t.visits.iter().map(|v| v.cell.label()).collect();
    println!("order: {}", labels.join(" "));
    println!("total traversal time: {:.0} s", t.duration_s());

    header("Per-cell sample counts (one pass)");
    let field = run_field(s, campaign.config(), ExecBackend::Analytic);
    println!("{}", render_grid(&field, FieldStat::Count));
    println!("masked (0-count) cells are the paper's 0.0 markers.");
}
