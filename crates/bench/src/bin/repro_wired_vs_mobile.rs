//! E7 — Section IV-C: "the mean RTL for mobile nodes surpasses that of
//! wired nodes by a factor of seven", plus the introduction's 7–12 ms
//! Exoscale wired reference.

use sixg_bench::{compare, header, ms, shared_scenario};
use sixg_measure::campaign::CampaignConfig;
use sixg_measure::exec::run_field;
use sixg_measure::spec::ExecBackend;
use sixg_measure::wired::{mobile_wired_factor, WiredCampaign};

fn main() {
    let s = shared_scenario();

    header("Wired baseline campaign (fixed peers + anchor + Vienna cloud)");
    let wired = WiredCampaign::new(s, 2).run();
    compare("wired mean RTT", "1-11 ms band [3]", ms(wired.mean_ms));
    compare("wired → Exoscale-like cloud", "7-12 ms [3]", ms(wired.cloud_mean_ms));
    compare("wired → anchor", "(local ISP via Vienna)", ms(wired.anchor_mean_ms));
    println!("samples: {}", wired.count);

    header("Mobile campaign (Figure 2)");
    let field = run_field(s, CampaignConfig::dense(2), ExecBackend::Analytic);
    compare("mobile grand mean", "~74 ms", ms(field.grand_mean_ms()));

    header("Mobile vs wired");
    let factor = mobile_wired_factor(field.grand_mean_ms(), &wired);
    compare("mobile / wired factor", "~7x", format!("{factor:.1}x"));
}
