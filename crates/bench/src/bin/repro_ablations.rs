//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Policy vs geography** — what the Table-I flow would look like if
//!    routing ignored business relationships (flat peering everywhere):
//!    demonstrates the detour is *policy-induced*, the paper's core
//!    diagnosis;
//! 2. **Calibration robustness** — the Figure-2 field across independent
//!    campaign seeds;
//! 3. **Radio-model component ablation** — how much of a loaded cell's
//!    RTT each 5G component contributes;
//! 4. **Fibre-route-factor sensitivity** — the Figure-4 distance under
//!    different route-inflation assumptions.

use sixg_bench::{header, ms, REPRO_SEED};
use sixg_measure::campaign::{CampaignConfig, MobileCampaign};
use sixg_measure::exec::run_field;
use sixg_measure::klagenfurt::{
    KlagenfurtScenario, ASCUS_AS, CAMPUS_AS, DATAPACKET_AS, IX_AS, OP_AS, ZET_AS,
};
use sixg_measure::spec::ExecBackend;
use sixg_netsim::radio::{AccessModel, CellEnv, FiveGAccess};
use sixg_netsim::rng::SimRng;
use sixg_netsim::routing::{AsGraph, PathComputer};

fn main() {
    // ------------------------------------------------------------------
    header("Ablation 1: BGP policy vs geography-only routing");
    let scenario = KlagenfurtScenario::paper(REPRO_SEED);
    let (ue, anchor) = scenario.table1_endpoints();
    let pc = PathComputer::new(&scenario.topo, &scenario.as_graph);
    let policy_path = pc.route(ue, anchor).expect("routable");
    println!(
        "policy routing:     {:>2} hops, {:>6.0} km, {:>6.2} ms one-way",
        policy_path.hop_count(),
        policy_path.route_km(&scenario.topo),
        pc.expected_one_way_ms(ue, anchor).expect("routable"),
    );

    // Hypothetical: everyone peers with everyone (pure SPF world).
    let mut flat = AsGraph::new();
    for (i, a) in [OP_AS, DATAPACKET_AS, ZET_AS, IX_AS, ASCUS_AS, CAMPUS_AS].iter().enumerate() {
        for b in &[OP_AS, DATAPACKET_AS, ZET_AS, IX_AS, ASCUS_AS, CAMPUS_AS][i + 1..] {
            flat.add_peering(*a, *b);
        }
    }
    let pc_flat = PathComputer::new(&scenario.topo, &flat);
    match pc_flat.route(ue, anchor) {
        Some(path) => println!(
            "geography-only:     {:>2} hops, {:>6.0} km, {:>6.2} ms one-way",
            path.hop_count(),
            path.route_km(&scenario.topo),
            pc_flat.expected_one_way_ms(ue, anchor).expect("routable"),
        ),
        None => println!("geography-only:     unroutable (no physical shortcut exists)"),
    }
    println!("=> with this physical topology, even policy-free routing must transit");
    println!("   Vienna; only *new interconnects* (Section V-A) shorten the path.");

    // ------------------------------------------------------------------
    header("Ablation 2: calibration robustness across campaign seeds");
    println!("{:>6} {:>12} {:>12} {:>12}", "seed", "grand mean", "min cell", "max cell");
    for seed in [1u64, 2, 3, 4, 5] {
        let field = run_field(&scenario, CampaignConfig::dense(seed), ExecBackend::Analytic);
        let (min, max) = field.mean_extrema().expect("non-empty");
        println!(
            "{seed:>6} {:>12} {:>12} {:>12}",
            ms(field.grand_mean_ms()),
            format!("{} {}", ms(min.mean_ms), min.cell),
            format!("{} {}", ms(max.mean_ms), max.cell)
        );
    }

    // ------------------------------------------------------------------
    header("Ablation 3: 5G access RTT decomposition (loaded cell)");
    let mut rng = SimRng::from_seed(3);
    let cases = [
        ("full model (load .8, intf .5)", CellEnv::new(0.8, 0.5)),
        ("no interference (load .8)", CellEnv::new(0.8, 0.0)),
        ("no load (intf .5)", CellEnv::new(0.0, 0.5)),
        ("ideal", CellEnv::new(0.0, 0.0)),
    ];
    for (name, env) in cases {
        let m = FiveGAccess::new(env);
        let n = 50_000;
        let emp: f64 = (0..n).map(|_| m.sample_rtt_ms(&mut rng)).sum::<f64>() / n as f64;
        println!(
            "{name:<32} analytic {:>7} (sampled {:>7}), sigma {:>7}",
            ms(m.mean_rtt_ms()),
            ms(emp),
            ms(m.var_rtt_ms2().sqrt())
        );
    }

    // ------------------------------------------------------------------
    header("Ablation 4: fibre-route factor vs the 2544 km figure");
    let campaign = MobileCampaign::new(&scenario, CampaignConfig::default());
    let trace = campaign.table1_traceroute(0);
    let geodesic: f64 = {
        let analysis = sixg_core::detour::DetourAnalysis::from_trace(&trace);
        analysis.outbound_km / sixg_geo::route::FIBRE_ROUTE_FACTOR
    };
    println!("geodesic outbound: {geodesic:.0} km");
    for factor in [1.00, 1.05, 1.10, 1.20] {
        println!("  route factor {factor:.2} -> {:.0} km", geodesic * factor);
    }
    println!("the paper's 2544 km corresponds to the standard ~1.05 inflation.");
}
