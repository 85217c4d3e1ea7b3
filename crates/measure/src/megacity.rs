//! A third, synthetic scenario: a dense 10 × 10 "megacity" sector with a
//! **local-peering topology variant**.
//!
//! Klagenfurt shows what the *absence* of local interconnection costs: ten
//! hops and a 2544 km detour for a sub-5 km flow. This scenario is the
//! counterfactual at metropolitan scale — the operator peers at an in-city
//! IX that also transits the local access ISP, so UE→anchor flows stay
//! inside the city (the Section V-A peering strategy, built into the
//! topology instead of retrofitted). A long transit path to an out-of-town
//! cloud still exists for the wired-reference comparison, and one of its
//! links carries a *lognormal* extra-delay distribution, exercising the
//! spec's `netsim::dist` integration beyond constants.
//!
//! At 100 traversed cells this is 3× the Klagenfurt campaign's cell count:
//! the scale test for the spec→campaign pipeline, the parallel runner and
//! the CLI. Like Skopje it is projected, not measured — the target field
//! comes from the floor+gradient+hotspot model. Its floor sits below the
//! measured sites' because local peering removes the transit legs, leaving
//! mostly radio access, with at least 6 ms of headroom below the 5G
//! model's load-saturation ceiling.
//!
//! Thin wrapper over the committed spec file `specs/megacity.json`, the
//! only description of the site: to change it, edit the file.

use crate::scenario::Scenario;
use crate::spec::ScenarioSpec;
use std::sync::OnceLock;

/// The megacity scenario is the generic [`Scenario`], compiled from
/// `specs/megacity.json`.
pub type MegacityScenario = Scenario;

/// The committed spec file this module wraps.
pub const MEGACITY_SPEC_JSON: &str = include_str!("../../../specs/megacity.json");

/// The committed megacity spec, parsed once.
pub fn megacity_spec() -> &'static ScenarioSpec {
    static SPEC: OnceLock<ScenarioSpec> = OnceLock::new();
    SPEC.get_or_init(|| {
        ScenarioSpec::from_json(MEGACITY_SPEC_JSON).expect("committed specs/megacity.json parses")
    })
}

impl Scenario {
    /// Builds the megacity scenario from the committed spec file.
    pub fn megacity(seed: u64) -> Self {
        let mut spec = megacity_spec().clone();
        spec.seed = seed;
        Self::from_spec(&spec).expect("committed megacity spec compiles")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixg_geo::CellId;
    use sixg_netsim::routing::PathComputer;
    use std::sync::OnceLock;

    fn scenario() -> &'static MegacityScenario {
        static S: OnceLock<MegacityScenario> = OnceLock::new();
        S.get_or_init(|| MegacityScenario::megacity(0x6D65_6761))
    }

    #[test]
    fn all_hundred_cells_traversed_and_dense() {
        let s = scenario();
        assert_eq!(s.grid.len(), 100);
        assert_eq!(s.included.len(), 100);
        assert_eq!(s.ue.len(), 100);
        assert_eq!(s.access.len(), 100);
        let density = s.density();
        for cell in s.grid.cells() {
            assert!(!density.is_sparse(cell), "megacity cell {cell} must be dense");
        }
    }

    #[test]
    fn local_peering_keeps_anchor_paths_short() {
        // The whole point of the variant: no Klagenfurt-style ten-hop
        // international detour — UE → gw → IX → ISP → anchor.
        let s = scenario();
        let (ue, anchor) = s.table1_endpoints();
        let pc = PathComputer::new(&s.topo, &s.as_graph);
        let path = pc.route(ue, anchor).expect("routable");
        assert!(path.hop_count() <= 5, "hops {}", path.hop_count());
        assert!(path.route_km(&s.topo) < 60.0, "route {} km", path.route_km(&s.topo));
    }

    #[test]
    fn cloud_only_reachable_over_long_haul_transit() {
        let s = scenario();
        let cloud = s.cloud.expect("megacity has a cloud");
        let pc = PathComputer::new(&s.topo, &s.as_graph);
        // UE side climbs through the transit provider.
        let c2 = CellId::parse("C2").unwrap();
        let p = pc.route(s.ue[&c2], cloud).expect("routable");
        let names: Vec<&str> = p.hops.iter().map(|(n, _)| s.topo.node(*n).name.as_str()).collect();
        assert!(names.contains(&"mega-transit"), "{names:?}");
        // Peers (ISP customers) exit via the IX–transit peering.
        let p = pc.route(s.peers[0], cloud).expect("routable");
        let names: Vec<&str> = p.hops.iter().map(|(n, _)| s.topo.node(*n).name.as_str()).collect();
        assert!(names.contains(&"mega-ix"), "{names:?}");
    }

    #[test]
    fn uniform_campaign_reproduces_projected_field_at_scale() {
        let s = scenario();
        let field = s.run_uniform_campaign(300, 1);
        let hotspot = CellId::parse("F6").unwrap();
        let (_, max) = field.mean_extrema().unwrap();
        assert_eq!(max.cell, hotspot, "hotspot must carry the max mean");
        let gm = field.grand_mean_ms();
        // floor 36 + gradient midpoint 5 + hotspot dilution ≈ 41.
        assert!((39.0..44.0).contains(&gm), "grand mean {gm}");
        for &cell in &s.included {
            let want = s.targets.mean_of(cell);
            let got = field.stats(cell).mean_ms;
            assert!((got - want).abs() < 4.0, "cell {cell}: {got} vs projected {want}");
        }
    }

    #[test]
    fn deterministic_at_scale() {
        let a = MegacityScenario::megacity(11);
        let b = MegacityScenario::megacity(11);
        for cell in &a.included {
            assert_eq!(a.access[cell].env.load.to_bits(), b.access[cell].env.load.to_bits());
            assert_eq!(
                a.access[cell].env.interference.to_bits(),
                b.access[cell].env.interference.to_bits()
            );
        }
    }
}
