//! The wired/static baseline campaign.
//!
//! Section IV-C: "the mean round-trip time latency for mobile nodes
//! surpasses that of wired nodes by a factor of seven", and the
//! introduction cites 7–12 ms from Klagenfurt to the Exoscale cloud.
//! This campaign measures both: the fixed peers ping each other, the
//! university anchor, and the Vienna cloud over their wired access.

use crate::scenario::Scenario;
use serde::{Deserialize, Serialize};
use sixg_netsim::latency::DelaySampler;
use sixg_netsim::radio::{AccessModel, WiredAccess};
use sixg_netsim::rng::{SimRng, StreamKey};
use sixg_netsim::routing::PathComputer;
use sixg_netsim::stats::Welford;
use sixg_netsim::topology::NodeId;

/// Result of the wired campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WiredStats {
    /// Overall mean RTT, ms.
    pub mean_ms: f64,
    /// Overall sample standard deviation, ms.
    pub std_ms: f64,
    /// Mean RTT to the cloud only (the Exoscale 7–12 ms reference).
    pub cloud_mean_ms: f64,
    /// Mean RTT to the anchor only.
    pub anchor_mean_ms: f64,
    /// Samples collected.
    pub count: u64,
}

/// Wired baseline campaign runner. Requires a scenario with fixed peers
/// and a cloud reference (the Klagenfurt spec provides both).
pub struct WiredCampaign<'a> {
    scenario: &'a Scenario,
    /// Samples per (source, target) pair.
    pub samples_per_pair: usize,
    /// Campaign seed.
    pub seed: u64,
}

impl<'a> WiredCampaign<'a> {
    /// Creates the campaign with a default density of 200 samples/pair.
    pub fn new(scenario: &'a Scenario, seed: u64) -> Self {
        Self { scenario, samples_per_pair: 200, seed }
    }

    /// Runs the campaign. Panics when the scenario spec declares no cloud
    /// reference node.
    pub fn run(&self) -> WiredStats {
        let s = self.scenario;
        let s_cloud = s.cloud.expect("wired baseline needs a cloud reference in the spec");
        let pc = PathComputer::new(&s.topo, &s.as_graph);
        let sampler = DelaySampler::new(&s.topo);
        let access = WiredAccess::default();

        let mut all = Welford::new();
        let mut cloud = Welford::new();
        let mut anchor = Welford::new();

        let mut targets: Vec<NodeId> = vec![s.anchor, s_cloud];
        targets.extend(s.peers.iter().copied());

        for (si, &src) in s.peers.iter().enumerate() {
            for (ti, &dst) in targets.iter().enumerate() {
                if src == dst {
                    continue;
                }
                let Some(path) = pc.route(src, dst) else { continue };
                let key = StreamKey::root(s.seed)
                    .with_label("wired")
                    .with(self.seed)
                    .with(si as u64)
                    .with(ti as u64);
                let mut rng = SimRng::for_stream(key);
                for _ in 0..self.samples_per_pair {
                    let rtt =
                        sampler.rtt_ms(&path.hops, 64, &mut rng) + access.sample_rtt_ms(&mut rng);
                    all.push(rtt);
                    if dst == s_cloud {
                        cloud.push(rtt);
                    } else if dst == s.anchor {
                        anchor.push(rtt);
                    }
                }
            }
        }

        WiredStats {
            mean_ms: all.mean(),
            std_ms: all.sample_std_dev(),
            cloud_mean_ms: cloud.mean(),
            anchor_mean_ms: anchor.mean(),
            count: all.count(),
        }
    }
}

/// The mobile-vs-wired factor of Section IV-C.
pub fn mobile_wired_factor(mobile_grand_mean_ms: f64, wired: &WiredStats) -> f64 {
    mobile_grand_mean_ms / wired.mean_ms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::exec::run_field;
    use crate::klagenfurt::KlagenfurtScenario;
    use crate::spec::ExecBackend;

    fn scenario() -> KlagenfurtScenario {
        KlagenfurtScenario::paper(0x6B6C_7531)
    }

    #[test]
    fn wired_mean_is_an_order_of_magnitude_below_mobile() {
        let s = scenario();
        let wired = WiredCampaign::new(&s, 3).run();
        assert!(wired.mean_ms < 15.0, "wired mean {}", wired.mean_ms);
        assert!(wired.mean_ms > 4.0, "wired mean {}", wired.mean_ms);
        assert!(wired.count > 1000);
    }

    #[test]
    fn cloud_reference_in_7_to_12ms_band() {
        // Horvath et al. [3]: Klagenfurt→Exoscale 7–12 ms over wires.
        let s = scenario();
        let wired = WiredCampaign::new(&s, 3).run();
        assert!((7.0..=12.0).contains(&wired.cloud_mean_ms), "cloud mean {}", wired.cloud_mean_ms);
    }

    #[test]
    fn factor_of_seven_reproduced() {
        let s = scenario();
        let field = run_field(&s, CampaignConfig::dense(5), ExecBackend::Analytic);
        let wired = WiredCampaign::new(&s, 5).run();
        let factor = mobile_wired_factor(field.grand_mean_ms(), &wired);
        assert!((6.0..=8.5).contains(&factor), "factor {factor}");
    }

    #[test]
    fn wired_campaign_deterministic() {
        let s = scenario();
        let a = WiredCampaign::new(&s, 9).run();
        let b = WiredCampaign::new(&s, 9).run();
        assert_eq!(a.mean_ms, b.mean_ms);
        assert_eq!(a.std_ms, b.std_ms);
    }

    #[test]
    fn anchor_faster_than_cloud_on_average() {
        // Anchor is reached Klagenfurt→Vienna→Klagenfurt; the cloud adds
        // its ingress pipeline, so anchor pings are slightly faster.
        let s = scenario();
        let w = WiredCampaign::new(&s, 11).run();
        assert!(w.anchor_mean_ms < w.cloud_mean_ms);
    }
}
