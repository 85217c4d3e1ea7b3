//! Convergence property suite for the live control plane.
//!
//! The message-level BGP speakers of `sixg::netsim::routing::dynamic`
//! promise to *converge to exactly the static Gao–Rexford fixed point*
//! when no faults perturb the topology. This suite locks that equivalence
//! down three ways:
//!
//! * on every committed spec (Klagenfurt, Skopje, the megacity sector and
//!   the transit-flap variant), the converged RIB's best route — AS
//!   sequence, preference class, and the router-level stitching — must
//!   equal the statically cached route for every (cell, target) pair;
//! * on a family of seeded, randomly generated AS hierarchies (transit
//!   DAG + random peerings), dynamic and static selection must agree for
//!   *every* ordered AS pair, and every usable Adj-RIB-In entry must be
//!   valley-free — the Gao–Rexford export discipline holds not just for
//!   winners but for everything the speakers accepted;
//! * the fault-bearing campaign runner must produce identical *reports*
//!   (JSON summary and CSV, byte for byte) at pool sizes 1, 2 and 4.

use sixg::measure::campaign::CampaignConfig;
use sixg::measure::exec::run_field;
use sixg::measure::klagenfurt::{klagenfurt_flap_spec, klagenfurt_spec};
use sixg::measure::megacity::megacity_spec;
use sixg::measure::parallel::with_thread_count;
use sixg::measure::report::{to_csv, CampaignSummary};
use sixg::measure::scenario::Scenario;
use sixg::measure::skopje::skopje_spec;
use sixg::measure::ExecBackend;
use sixg::netsim::rng::SimRng;
use sixg::netsim::routing::bgp::AsGraph;
use sixg::netsim::routing::dynamic::ControlPlane;
use sixg::netsim::routing::PathComputer;
use sixg::netsim::topology::Asn;
use std::collections::BTreeSet;

/// Asserts that the converged dynamic control plane reproduces the
/// scenario's statically computed routes exactly.
fn assert_dynamic_equals_static(s: &Scenario) {
    let cp = ControlPlane::converged_from_topology(&s.topo, &s.as_graph);
    let pc = PathComputer::new(&s.topo, &s.as_graph);
    let targets = s.measurement_targets();
    assert!(!s.routes.is_empty(), "{}: no routes to check", s.name);
    for (&(cell, ti), cached) in &s.routes {
        let ue = s.ue[&cell];
        let target = targets[ti];
        let dynamic = cp
            .best_route(s.topo.node(ue).asn, s.topo.node(target).asn)
            .and_then(|as_path| pc.route_along(ue, target, &as_path));
        let got = dynamic.as_ref().expect("dynamic control plane must reach every static target");
        assert_eq!(
            got.as_path, cached.as_path,
            "{}: cell {cell} target {ti}: AS path / preference class diverged",
            s.name
        );
        assert_eq!(
            got.hops, cached.hops,
            "{}: cell {cell} target {ti}: router-level stitching diverged",
            s.name
        );
    }
}

#[test]
fn klagenfurt_dynamic_routes_equal_static() {
    let s = Scenario::from_spec(klagenfurt_spec()).expect("compiles");
    assert_dynamic_equals_static(&s);
}

#[test]
fn klagenfurt_flap_dynamic_routes_equal_static() {
    // The flap spec's *unfaulted* topology (with the backup Vienna
    // crossing in place) must still pick the measured detour statically
    // and dynamically alike.
    let s = Scenario::from_spec(klagenfurt_flap_spec()).expect("compiles");
    assert_dynamic_equals_static(&s);
}

#[test]
fn skopje_dynamic_routes_equal_static() {
    let s = Scenario::from_spec(skopje_spec()).expect("compiles");
    assert_dynamic_equals_static(&s);
}

#[test]
fn megacity_dynamic_routes_equal_static() {
    let s = Scenario::from_spec(megacity_spec()).expect("compiles");
    assert_dynamic_equals_static(&s);
}

/// A random multi-tier AS hierarchy: a few tier-1s peered in a clique,
/// mid-tier transits each buying from 1–2 tier-1s, stubs each buying from
/// 1–2 mid-tiers, plus random lateral peerings inside each tier. Every AS
/// is reachable from every other (the tier-1 clique guarantees an
/// up-over-down path), and the graph exercises multi-homing, peering
/// shortcuts and tiebreaks.
fn fuzzed_graph(seed: u64) -> AsGraph {
    let mut rng = SimRng::from_seed(seed);
    let mut g = AsGraph::new();
    let tier1: Vec<Asn> = (0..2 + rng.below(2)).map(|i| Asn(100 + i as u32)).collect();
    let mid: Vec<Asn> = (0..2 + rng.below(3)).map(|i| Asn(200 + i as u32)).collect();
    let stubs: Vec<Asn> = (0..3 + rng.below(4)).map(|i| Asn(300 + i as u32)).collect();
    for (i, &a) in tier1.iter().enumerate() {
        for &b in &tier1[i + 1..] {
            g.add_peering(a, b);
        }
    }
    for tier in [(&mid, &tier1), (&stubs, &mid)] {
        let (lower, upper) = tier;
        for &customer in lower {
            let first = *rng.choose(upper);
            g.add_transit(first, customer);
            if rng.chance(0.5) {
                let second = *rng.choose(upper);
                if second != first {
                    g.add_transit(second, customer);
                }
            }
        }
        for (i, &a) in lower.iter().enumerate() {
            for &b in &lower[i + 1..] {
                if rng.chance(0.3) && g.relationship(a, b).is_none() {
                    g.add_peering(a, b);
                }
            }
        }
    }
    g
}

/// All adjacent AS pairs as live sessions (a pure-graph control plane —
/// no topology restricting which relationships have physical links).
fn all_sessions(g: &AsGraph) -> BTreeSet<(u32, u32)> {
    let mut out = BTreeSet::new();
    for a in g.asns() {
        for (b, _) in g.neighbours(a) {
            out.insert((a.0.min(b.0), a.0.max(b.0)));
        }
    }
    out
}

#[test]
fn fuzzed_hierarchies_dynamic_equals_static_for_every_pair() {
    for seed in 0..12u64 {
        let g = fuzzed_graph(seed);
        let cp = ControlPlane::converged(&g, &all_sessions(&g));
        for src in g.asns() {
            for dst in g.asns() {
                let dynamic = cp.best_route(src, dst);
                let static_ = g.as_path(src, dst);
                assert_eq!(
                    dynamic,
                    static_,
                    "seed {seed}: {src:?} -> {dst:?} diverged (graph {:?})",
                    g.asns()
                );
            }
        }
    }
}

#[test]
fn fuzzed_hierarchies_keep_every_rib_entry_valley_free() {
    // Stronger than best-route agreement: *everything* a speaker holds in
    // its usable Adj-RIB-In — winners and alternates alike — must be a
    // valley-free path, or the export policy leaked a route it should
    // have filtered.
    for seed in 0..12u64 {
        let g = fuzzed_graph(seed);
        let cp = ControlPlane::converged(&g, &all_sessions(&g));
        let mut entries = 0usize;
        for x in g.asns() {
            for path in cp.rib(x) {
                assert!(
                    g.is_valley_free(&path),
                    "seed {seed}: RIB of {x:?} holds a valley: {path:?}"
                );
                entries += 1;
            }
        }
        assert!(entries > 0, "seed {seed}: converged control plane holds no routes");
    }
}

#[test]
fn flap_campaign_reports_are_identical_at_1_2_4_threads() {
    // The full export surface — JSON summary and CSV — must come out byte
    // for byte identical at every pool size, not just the stats structs.
    let s = Scenario::from_spec(klagenfurt_flap_spec()).expect("compiles");
    let config = CampaignConfig { seed: 2, passes: 1, sample_interval_s: 2.0 };
    let reference = with_thread_count(1, || run_field(&s, config, ExecBackend::Event));
    let ref_json = CampaignSummary::from_field(&reference).to_json();
    let ref_csv = to_csv(&reference);
    for threads in [2usize, 4] {
        let field = with_thread_count(threads, || run_field(&s, config, ExecBackend::Event));
        assert_eq!(
            CampaignSummary::from_field(&field).to_json(),
            ref_json,
            "{threads}-thread JSON report differs"
        );
        assert_eq!(to_csv(&field), ref_csv, "{threads}-thread CSV report differs");
    }
}
