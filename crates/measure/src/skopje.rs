//! A second measurement scenario: Skopje (projected).
//!
//! The paper's future work (Section VI): "our future work will expand the
//! geographical scope of the evaluation to include diverse regions,
//! environments, and network conditions." The author team spans the
//! University of Klagenfurt and Mother Teresa University in Skopje, so the
//! natural second site is Skopje — a thin wrapper over the committed spec
//! file `specs/skopje.json`, compiled by the same
//! [`crate::scenario::Scenario`] machinery as Klagenfurt. The file is the
//! only description of the site: to change it, edit the file.
//!
//! **This scenario is projected, not measured**: no published per-cell
//! field exists, so the target field is generated from an explicit model
//! (a Balkan-region latency floor, a north-west→south-east urban gradient,
//! and one congested hotspot — the spec's `projected` target kind) and
//! documented as such. What the scenario demonstrates is *framework
//! generality*: a different grid, a different AS constellation (regional
//! transit via a Vienna PoP, a Frankfurt hairpin instead of the Bucharest
//! one), the same campaign, calibration, and recommendation pipeline.
//! The projected parameters sit inside the 5G access model's reachable
//! mean-vs-σ envelope, with at least 5 ms of headroom below the
//! load-saturation ceiling, so the calibration inverts exactly.

use crate::scenario::Scenario;
use crate::spec::ScenarioSpec;
use std::sync::OnceLock;

/// The Skopje scenario is the generic [`Scenario`], compiled from
/// `specs/skopje.json`.
pub type SkopjeScenario = Scenario;

/// The committed spec file this module wraps.
pub const SKOPJE_SPEC_JSON: &str = include_str!("../../../specs/skopje.json");

/// The committed Skopje spec, parsed once.
pub fn skopje_spec() -> &'static ScenarioSpec {
    static SPEC: OnceLock<ScenarioSpec> = OnceLock::new();
    SPEC.get_or_init(|| {
        ScenarioSpec::from_json(SKOPJE_SPEC_JSON).expect("committed specs/skopje.json parses")
    })
}

impl Scenario {
    /// Builds the projected Skopje scenario from the committed spec file.
    pub fn projected(seed: u64) -> Self {
        let mut spec = skopje_spec().clone();
        spec.seed = seed;
        Self::from_spec(&spec).expect("committed Skopje spec compiles")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixg_geo::CellId;
    use sixg_netsim::routing::PathComputer;
    use sixg_netsim::topology::LinkParams;
    use std::sync::OnceLock;

    fn scenario() -> &'static SkopjeScenario {
        static S: OnceLock<SkopjeScenario> = OnceLock::new();
        S.get_or_init(|| SkopjeScenario::projected(7))
    }

    #[test]
    fn twenty_four_cells_traversed() {
        let s = scenario();
        assert_eq!(s.grid.len(), 30);
        assert_eq!(s.included.len(), 24);
        assert_eq!(s.access.len(), 24);
    }

    #[test]
    fn skopje_flow_also_detours_internationally() {
        let s = scenario();
        let c3 = CellId::parse("C3").unwrap();
        let path = &s.routes[&(c3, 0)];
        // Skopje → Vienna → Frankfurt → Skopje: thousands of km for a
        // local flow, mirroring the Klagenfurt finding in a new region.
        assert!(path.hop_count() >= 5, "hops {}", path.hop_count());
        let km = path.route_km(&s.topo);
        assert!(km > 2500.0, "route {km} km");
        let direct = s.topo.node(s.ue[&c3]).pos.distance_km(s.topo.node(s.anchor).pos);
        assert!(direct < 10.0);
    }

    #[test]
    fn campaign_reproduces_projected_field() {
        let s = scenario();
        let field = s.run_uniform_campaign(400, 1);
        for &cell in &s.included {
            let stats = field.stats(cell);
            let want = s.targets.mean_of(cell);
            assert!(
                (stats.mean_ms - want).abs() < 3.0,
                "cell {cell}: {} vs projected {want}",
                stats.mean_ms
            );
        }
        // The hotspot is the max.
        let (_, max) = field.mean_extrema().unwrap();
        assert_eq!(max.cell, CellId::parse("C3").unwrap());
    }

    #[test]
    fn projected_band_is_above_klagenfurt_floor() {
        let s = scenario();
        let field = s.run_uniform_campaign(300, 2);
        let (min, max) = field.mean_extrema().unwrap();
        assert!(min.mean_ms > 62.0, "min {}", min.mean_ms);
        assert!(max.mean_ms < 140.0, "max {}", max.mean_ms);
        assert!(field.grand_mean_ms() > 70.0);
    }

    #[test]
    fn local_peering_also_fixes_skopje() {
        let mut s = SkopjeScenario::projected(7);
        let c3 = CellId::parse("C3").unwrap();
        let ue = s.ue[&c3];
        let isp = s.topo.find_by_name("mk-isp-skp").unwrap();
        let asn_of = |name: &str| s.topo.node(s.topo.find_by_name(name).unwrap()).asn;
        let (op_as, isp_as) = (asn_of("mk-cgnat-skp"), asn_of("mk-isp-skp"));
        s.topo.add_link(
            s.gw,
            isp,
            LinkParams { bandwidth_bps: 100e9, utilisation: 0.15, extra_ms: 0.05 },
        );
        s.as_graph.add_peering(op_as, isp_as);
        let pc = PathComputer::new(&s.topo, &s.as_graph);
        let path = pc.route(ue, s.anchor).expect("routable");
        assert!(path.hop_count() <= 3, "hops {}", path.hop_count());
        assert!(path.route_km(&s.topo) < 30.0);
    }

    #[test]
    fn deterministic_build() {
        let a = SkopjeScenario::projected(9);
        let b = SkopjeScenario::projected(9);
        for cell in &a.included {
            assert_eq!(a.access[cell].env.load.to_bits(), b.access[cell].env.load.to_bits());
        }
    }
}
