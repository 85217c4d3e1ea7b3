//! Failure-injection tests: the simulator must degrade gracefully — and
//! realistically — when links die or policies are withdrawn.

use sixg::measure::klagenfurt::{klagenfurt_flap_spec, KlagenfurtScenario, ASCUS_AS, OP_AS};
use sixg::netsim::routing::PathComputer;
use sixg::netsim::topology::LinkId;
use std::sync::OnceLock;

const SEED: u64 = 0x6B6C_7531;

fn scenario() -> &'static KlagenfurtScenario {
    static S: OnceLock<KlagenfurtScenario> = OnceLock::new();
    S.get_or_init(|| KlagenfurtScenario::paper(SEED))
}

fn find_link(s: &KlagenfurtScenario, a: &str, b: &str) -> LinkId {
    let na = s.topo.find_by_name(a).unwrap_or_else(|| panic!("node {a}"));
    let nb = s.topo.find_by_name(b).unwrap_or_else(|| panic!("node {b}"));
    s.topo.neighbours(na).find(|(n, _)| *n == nb).unwrap_or_else(|| panic!("link {a}-{b}")).1
}

#[test]
fn transit_link_failure_partitions_the_detour() {
    // The Prague peering wave is the only way from DataPacket's hierarchy
    // into zet.net — killing it makes the anchor unreachable for mobile
    // traffic: exactly why the paper calls the integration "suboptimal".
    let mut s = KlagenfurtScenario::paper(SEED);
    let (ue, anchor) = s.table1_endpoints();
    let prague_wave = find_link(&s, "cdn77-core-vie", "zetservers-prg");
    s.topo.remove_link(prague_wave);

    let pc = PathComputer::new(&s.topo, &s.as_graph);
    assert!(pc.route(ue, anchor).is_none(), "no alternate transit should exist");
}

#[test]
fn peering_restores_connectivity_after_transit_failure() {
    // With local peering in place (Section V-A), the same failure is
    // invisible to local flows.
    let mut s = KlagenfurtScenario::paper(SEED);
    let (ue, anchor) = s.table1_endpoints();
    let prague_wave = find_link(&s, "cdn77-core-vie", "zetservers-prg");

    sixg::core::recommend::peering::apply_local_peering(
        &mut s,
        sixg::core::recommend::peering::PeeringDepth::LocalIsp,
    );
    s.topo.remove_link(prague_wave);

    let pc = PathComputer::new(&s.topo, &s.as_graph);
    let path = pc.route(ue, anchor).expect("peered path survives transit failure");
    assert!(path.hop_count() <= 3);
}

#[test]
fn access_link_failure_isolates_one_cell_only() {
    let mut s = KlagenfurtScenario::paper(SEED);
    let c2 = sixg::geo::CellId::parse("C2").unwrap();
    let c3 = sixg::geo::CellId::parse("C3").unwrap();
    let ue2 = s.ue[&c2];
    let ue3 = s.ue[&c3];
    let (_, anchor) = s.table1_endpoints();

    let ue2_link = s.topo.neighbours(ue2).next().expect("ue has uplink").1;
    s.topo.remove_link(ue2_link);

    let pc = PathComputer::new(&s.topo, &s.as_graph);
    assert!(pc.route(ue2, anchor).is_none(), "C2 is cut off");
    assert!(pc.route(ue3, anchor).is_some(), "C3 unaffected");
}

#[test]
fn policy_withdrawal_equals_physical_failure() {
    // Withdrawing the DataPacket-zet peering agreement has the same
    // routing effect as cutting the wave physically.
    let mut s = KlagenfurtScenario::paper(SEED);
    let (ue, anchor) = s.table1_endpoints();
    s.as_graph.remove_peering(
        sixg::measure::klagenfurt::DATAPACKET_AS,
        sixg::measure::klagenfurt::ZET_AS,
    );
    let pc = PathComputer::new(&s.topo, &s.as_graph);
    assert!(pc.route(ue, anchor).is_none());
}

#[test]
fn wired_peers_survive_mobile_side_failures() {
    let mut s = KlagenfurtScenario::paper(SEED);
    let gw_uplink = find_link(&s, "op-cgnat-klu", "dp-edge-vie");
    s.topo.remove_link(gw_uplink);
    // The wired world (peers ↔ anchor ↔ cloud) is untouched.
    let pc = PathComputer::new(&s.topo, &s.as_graph);
    let (_, anchor) = s.table1_endpoints();
    for &peer in &s.peers {
        assert!(pc.route(peer, anchor).is_some());
        assert!(pc.route(peer, s.cloud.expect("Klagenfurt has a cloud")).is_some());
    }
}

#[test]
fn poisoned_worker_propagates_and_pool_stays_usable() {
    // A panicking closure inside `par_iter` must unwind out of the calling
    // thread (not deadlock the pool, not abort a worker for good) and leave
    // the pool fully usable — including for the campaign runner.
    use rayon::prelude::*;
    use sixg::measure::campaign::CampaignConfig;
    use sixg::measure::exec::{run_field, run_field_sequential};
    use sixg::measure::parallel::with_thread_count;
    use sixg::measure::ExecBackend;

    with_thread_count(4, || {
        let poisoned = std::panic::catch_unwind(|| {
            (0..128u32)
                .into_par_iter()
                .map(|i| if i % 37 == 5 { panic!("injected worker failure at {i}") } else { i })
                .collect::<Vec<u32>>()
        });
        assert!(poisoned.is_err(), "worker panic must propagate to the caller");

        // The pool serves subsequent batches normally...
        for round in 0..3 {
            let xs: Vec<u32> = (0..512u32).into_par_iter().map(|x| x * 2).collect();
            assert_eq!(xs.len(), 512, "round {round}");
            assert_eq!(xs[511], 1022, "round {round}");
        }

        // ...and the determinism contract still holds after the poisoning.
        let s = scenario();
        let config = CampaignConfig::default();
        let seq = run_field_sequential(s, config, ExecBackend::Analytic);
        let par = run_field(s, config, ExecBackend::Analytic);
        for cell in s.grid.cells() {
            let (a, b) = (seq.stats(cell), par.stats(cell));
            assert_eq!(a.count, b.count, "cell {cell}");
            assert_eq!(a.mean_ms.to_bits(), b.mean_ms.to_bits(), "cell {cell}");
        }
    });
}

#[test]
fn poisoned_worker_leaves_event_backend_usable_and_deterministic() {
    // Same contract as the analytic runner: a worker panic inside the
    // pool propagates to the caller, and the pool then serves the
    // packet-level event backend normally — bitwise-deterministically.
    use rayon::prelude::*;
    use sixg::measure::campaign::CampaignConfig;
    use sixg::measure::exec::{run_field, run_field_sequential};
    use sixg::measure::parallel::with_thread_count;
    use sixg::measure::ExecBackend;

    with_thread_count(4, || {
        let poisoned = std::panic::catch_unwind(|| {
            (0..96u32)
                .into_par_iter()
                .map(|i| if i == 41 { panic!("injected worker failure at {i}") } else { i })
                .collect::<Vec<u32>>()
        });
        assert!(poisoned.is_err(), "worker panic must propagate to the caller");

        let s = scenario();
        let config = CampaignConfig::default();
        let seq = run_field_sequential(s, config, ExecBackend::Event);
        let par = run_field(s, config, ExecBackend::Event);
        for cell in s.grid.cells() {
            let (a, b) = (seq.stats(cell), par.stats(cell));
            assert_eq!(a.count, b.count, "cell {cell}");
            assert_eq!(a.mean_ms.to_bits(), b.mean_ms.to_bits(), "cell {cell}");
            assert_eq!(a.std_ms.to_bits(), b.std_ms.to_bits(), "cell {cell}");
        }
    });
}

#[test]
fn poisoned_worker_leaves_fault_campaigns_usable_and_deterministic() {
    // The fault-bearing runner drives a live BGP control plane per shard;
    // a worker panic mid-campaign must not leave any speaker, calendar or
    // pool state behind: the panic propagates, the pool stays reusable,
    // and a subsequent clean run is bitwise identical to one the
    // poisoning never disturbed.
    use rayon::prelude::*;
    use sixg::measure::campaign::CampaignConfig;
    use sixg::measure::exec::run_field;
    use sixg::measure::parallel::with_thread_count;
    use sixg::measure::scenario::Scenario;
    use sixg::measure::ExecBackend;

    let s = Scenario::from_spec(klagenfurt_flap_spec()).expect("compiles");
    let config = CampaignConfig { seed: 2, passes: 1, sample_interval_s: 2.0 };
    let undisturbed = with_thread_count(4, || run_field(&s, config, ExecBackend::Event));

    with_thread_count(4, || {
        let poisoned = std::panic::catch_unwind(|| {
            (0..96u32)
                .into_par_iter()
                .map(|i| if i == 17 { panic!("injected worker failure at {i}") } else { i })
                .collect::<Vec<u32>>()
        });
        assert!(poisoned.is_err(), "worker panic must propagate to the caller");

        let after = run_field(&s, config, ExecBackend::Event);
        for cell in s.grid.cells() {
            let (a, b) = (undisturbed.stats(cell), after.stats(cell));
            assert_eq!(a.count, b.count, "cell {cell}");
            assert_eq!(a.mean_ms.to_bits(), b.mean_ms.to_bits(), "cell {cell}");
            assert_eq!(a.std_ms.to_bits(), b.std_ms.to_bits(), "cell {cell}");
        }
    });
}

#[test]
fn op_ascus_peering_is_purely_additive() {
    // Adding the peering never breaks pre-existing reachability.
    let before = scenario();
    let mut after = KlagenfurtScenario::paper(SEED);
    after.as_graph.add_peering(OP_AS, ASCUS_AS);
    after.refresh_routes();
    let pc_before = PathComputer::new(&before.topo, &before.as_graph);
    let pc_after = PathComputer::new(&after.topo, &after.as_graph);
    for &(cell, ti) in before.routes.keys() {
        let ue = before.ue[&cell];
        let targets = before.measurement_targets();
        let dst = targets[ti];
        assert!(pc_before.route(ue, dst).is_some());
        assert!(pc_after.route(ue, dst).is_some(), "{cell}->{ti} lost after peering");
    }
}
