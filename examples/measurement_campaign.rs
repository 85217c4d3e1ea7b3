//! Running a custom measurement campaign: sweep seeds in parallel with
//! rayon, export CSV/JSON, and verify parallel determinism.
//!
//! ```text
//! cargo run --release --example measurement_campaign
//! ```

use sixg::measure::campaign::CampaignConfig;
use sixg::measure::exec::{run_field, run_field_sequential};
use sixg::measure::klagenfurt::KlagenfurtScenario;
use sixg::measure::report::{to_csv, CampaignSummary};
use sixg::measure::spec::ExecBackend;

fn main() {
    let scenario = KlagenfurtScenario::paper(42);

    // Parallel == sequential, bit for bit.
    let config = CampaignConfig { passes: 2, ..Default::default() };
    let seq = run_field_sequential(&scenario, config, ExecBackend::Analytic);
    let par = run_field(&scenario, config, ExecBackend::Analytic);
    let identical = scenario
        .grid
        .cells()
        .all(|c| seq.stats(c).mean_ms.to_bits() == par.stats(c).mean_ms.to_bits());
    println!("rayon result bitwise identical to sequential: {identical}");

    // Multi-seed sweep (each seed is one synthetic campaign day).
    let seeds: Vec<u64> = (1..=8).collect();
    println!("\nseed sweep (grand mean / min / max of cell means):");
    for seed in seeds {
        let config = CampaignConfig { seed, ..Default::default() };
        let summary = run_field(&scenario, config, ExecBackend::Analytic).summary();
        let (min, max) = summary.mean_extrema.expect("non-empty campaign");
        println!(
            "  seed {seed:>2}: {:>6.1} ms   [{:>5.1} .. {:>6.1}]",
            summary.grand_mean_ms, min.mean_ms, max.mean_ms
        );
    }

    // Exports.
    let field = run_field(&scenario, CampaignConfig::dense(1), ExecBackend::Analytic);
    let csv = to_csv(&field);
    let json = CampaignSummary::from_field(&field).to_json();
    println!("\nCSV rows: {}, JSON bytes: {}", csv.lines().count(), json.len());
    println!("first CSV lines:\n{}", csv.lines().take(4).collect::<Vec<_>>().join("\n"));
}
