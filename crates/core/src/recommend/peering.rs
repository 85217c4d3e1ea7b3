//! Local peering optimisation (Section V-A).
//!
//! The paper: "Local peering methods eliminate these redundant paths,
//! creating a shorter and more optimized route between the source and
//! destination … Horvath \[3\] has demonstrated that such optimization can
//! achieve round-trip latencies as low as 1 ms."
//!
//! The optimizer detects policy-induced detours on given flows, then adds
//! a local interconnect (an IXP-style link plus the business agreement to
//! use it) and lets BGP re-converge. Nothing about the original detour is
//! special-cased: removing the peering restores it.

use serde::{Deserialize, Serialize};
use sixg_measure::klagenfurt::{KlagenfurtScenario, ASCUS_AS, CAMPUS_AS, OP_AS};
use sixg_netsim::latency::DelaySampler;
use sixg_netsim::radio::{AccessModel, WiredAccess};
use sixg_netsim::rng::{SimRng, StreamKey};
use sixg_netsim::routing::PathComputer;
use sixg_netsim::stats::Welford;
use sixg_netsim::topology::{LinkParams, NodeId};

/// How deep the local interconnect goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeeringDepth {
    /// Operator peers with the local access ISP at a Klagenfurt IXP.
    LocalIsp,
    /// Operator peers directly with the campus network (on-site
    /// interconnect) — the deepest, lowest-latency option.
    DirectCampus,
}

/// Summary of one flow's path before or after a change.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathSummary {
    /// Router hops.
    pub hops: usize,
    /// Route length, km.
    pub route_km: f64,
    /// Expected network-only RTT, ms.
    pub wire_rtt_ms: f64,
}

/// Outcome of applying local peering to the Klagenfurt scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PeeringReport {
    /// Interconnect depth applied.
    pub depth: PeeringDepth,
    /// Table-I flow before the change.
    pub before: PathSummary,
    /// Table-I flow after the change.
    pub after: PathSummary,
    /// Mean *wired-access* RTT over the new path, ms — the configuration
    /// behind the literature's "as low as 1 ms" claim.
    pub wired_rtt_after_ms: f64,
    /// Minimum wired sample observed, ms.
    pub wired_rtt_min_ms: f64,
    /// Mean *mobile* (5G C2 cell) RTT after the change, ms — shows the
    /// radio access becoming the dominant residual (motivating V-B).
    pub mobile_rtt_after_ms: f64,
}

/// Summarises the current Table-I flow of a scenario.
pub fn summarise_flow(scenario: &KlagenfurtScenario, src: NodeId, dst: NodeId) -> PathSummary {
    let pc = PathComputer::new(&scenario.topo, &scenario.as_graph);
    let path = pc.route(src, dst).expect("flow must route");
    let wire = pc.expected_one_way_ms(src, dst).expect("routable") * 2.0;
    PathSummary {
        hops: path.hop_count(),
        route_km: path.route_km(&scenario.topo),
        wire_rtt_ms: wire,
    }
}

/// Counts campaign flows whose route is inefficient: more hops than
/// `hop_budget`, or an absolute geographic detour above 50 km (urban
/// flows should never leave the metro area).
pub fn detect_detours(scenario: &KlagenfurtScenario, hop_budget: usize) -> usize {
    scenario
        .routes
        .values()
        .filter(|path| {
            let km = path.route_km(&scenario.topo);
            let direct =
                scenario.topo.node(path.src).pos.distance_km(scenario.topo.node(path.dst()).pos);
            path.hop_count() > hop_budget || km - direct > 50.0
        })
        .count()
}

/// Applies local peering to the scenario: adds the interconnect link and
/// the peering agreement, then refreshes routing.
pub fn apply_local_peering(scenario: &mut KlagenfurtScenario, depth: PeeringDepth) {
    let gw = scenario.gw;
    match depth {
        PeeringDepth::LocalIsp => {
            let ascus_klu = scenario.topo.find_by_name("ascus-agg-klu").expect("scenario node");
            scenario.topo.add_link(
                gw,
                ascus_klu,
                LinkParams { bandwidth_bps: 100e9, utilisation: 0.15, extra_ms: 0.05 },
            );
            scenario.as_graph.add_peering(OP_AS, ASCUS_AS);
        }
        PeeringDepth::DirectCampus => {
            let anchor = scenario.anchor;
            scenario.topo.add_link(
                gw,
                anchor,
                LinkParams { bandwidth_bps: 100e9, utilisation: 0.10, extra_ms: 0.02 },
            );
            scenario.as_graph.add_peering(OP_AS, CAMPUS_AS);
        }
    }
    scenario.refresh_routes();
}

/// Full before/after evaluation on a fresh scenario.
pub fn evaluate(seed: u64, depth: PeeringDepth) -> PeeringReport {
    let mut scenario = KlagenfurtScenario::paper(seed);
    let (ue, anchor) = scenario.table1_endpoints();
    let before = summarise_flow(&scenario, ue, anchor);

    apply_local_peering(&mut scenario, depth);
    let after = summarise_flow(&scenario, ue, anchor);

    // Wired and mobile RTT sampling over the new path.
    let pc = PathComputer::new(&scenario.topo, &scenario.as_graph);
    let path = pc.route(ue, anchor).expect("routable");
    let sampler = DelaySampler::new(&scenario.topo);
    let wired = WiredAccess { mean_ms: 0.3, cv: 0.2 };
    let c2 = sixg_geo::CellId::parse("C2").expect("static label");
    let mobile = *scenario.access_for(c2);

    let mut rng = SimRng::for_stream(StreamKey::root(seed).with_label("peering-eval"));
    let mut w_wired = Welford::new();
    let mut wired_rtt_min_ms = f64::INFINITY;
    let mut w_mobile = Welford::new();
    for _ in 0..4000 {
        let wired_rtt = sampler.rtt_ms(&path.hops, 64, &mut rng) + wired.sample_rtt_ms(&mut rng);
        w_wired.push(wired_rtt);
        wired_rtt_min_ms = wired_rtt_min_ms.min(wired_rtt);
        w_mobile.push(sampler.rtt_ms(&path.hops, 64, &mut rng) + mobile.sample_rtt_ms(&mut rng));
    }

    PeeringReport {
        depth,
        before,
        after,
        wired_rtt_after_ms: w_wired.mean(),
        wired_rtt_min_ms,
        mobile_rtt_after_ms: w_mobile.mean(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_flow_is_the_table1_detour() {
        let scenario = KlagenfurtScenario::paper(1);
        let (ue, anchor) = scenario.table1_endpoints();
        let s = summarise_flow(&scenario, ue, anchor);
        assert_eq!(s.hops, 10);
        assert!(s.route_km > 2500.0, "route {}", s.route_km);
        assert!((38.0..46.0).contains(&s.wire_rtt_ms), "wire rtt {}", s.wire_rtt_ms);
    }

    /// The smallest wired RTT is folded beside the mean accumulator; these
    /// bits were recorded when the accumulator still kept it.
    #[test]
    fn wired_rtt_min_bits_are_pinned() {
        let local = evaluate(42, PeeringDepth::LocalIsp).wired_rtt_min_ms;
        assert_eq!(local.to_bits(), 0x3ffa_ffce_e2c2_d26a, "{local}");
        let campus = evaluate(42, PeeringDepth::DirectCampus).wired_rtt_min_ms;
        assert_eq!(campus.to_bits(), 0x3fef_b35c_42d8_cc51, "{campus}");
    }

    #[test]
    fn local_isp_peering_collapses_detour() {
        let r = evaluate(1, PeeringDepth::LocalIsp);
        assert_eq!(r.before.hops, 10);
        assert!(r.after.hops <= 3, "after hops {}", r.after.hops);
        assert!(r.after.route_km < 20.0, "after km {}", r.after.route_km);
        assert!(r.after.wire_rtt_ms < 5.0, "after wire {}", r.after.wire_rtt_ms);
    }

    #[test]
    fn direct_campus_peering_reaches_literature_band() {
        // Horvath [3]: wired RTT "as low as 1 ms" with local peering.
        let r = evaluate(1, PeeringDepth::DirectCampus);
        assert!(r.after.hops <= 2, "after hops {}", r.after.hops);
        assert!(r.wired_rtt_after_ms < 3.0, "wired mean {}", r.wired_rtt_after_ms);
        assert!(r.wired_rtt_min_ms < 1.6, "wired min {}", r.wired_rtt_min_ms);
    }

    #[test]
    fn radio_dominates_after_peering() {
        // Section V-B's motivation: after fixing the path, the 5G access
        // is the residual bottleneck.
        let r = evaluate(1, PeeringDepth::LocalIsp);
        assert!(r.mobile_rtt_after_ms > 5.0 * r.wired_rtt_after_ms);
        assert!(r.mobile_rtt_after_ms > 20.0, "mobile after {}", r.mobile_rtt_after_ms);
    }

    #[test]
    fn all_campaign_flows_are_detoured_before() {
        let scenario = KlagenfurtScenario::paper(1);
        let detours = detect_detours(&scenario, 9);
        assert_eq!(detours, scenario.routes.len());
    }

    #[test]
    fn peering_fixes_anchor_flows_only_partially_for_peers() {
        // Peers are behind the Vienna BRAS, so peering with the local ISP
        // still helps, but those flows keep a Vienna leg.
        let mut scenario = KlagenfurtScenario::paper(1);
        apply_local_peering(&mut scenario, PeeringDepth::LocalIsp);
        let detours = detect_detours(&scenario, 9);
        assert!(detours < scenario.routes.len());
    }
}
