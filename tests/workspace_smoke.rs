//! Workspace-wiring smoke test: the `sixg::prelude` re-exports must resolve
//! and compose across crate boundaries, and the measured Klagenfurt
//! scenario must be bit-for-bit deterministic per seed.

use sixg::measure::exec::run_field;
use sixg::measure::report::CampaignSummary;
use sixg::measure::ExecBackend;
use sixg::prelude::*;

#[test]
fn prelude_reexports_resolve_and_compose() {
    // sixg-geo via the prelude.
    let origin = GeoPoint::new(46.62, 14.31);
    let grid = GridSpec::new(origin, 6, 7, 1.0);
    let cell: CellId = grid.cells().next().expect("non-empty grid");
    assert_eq!(cell, CellId::new(0, 0));

    // sixg-netsim randomness via the prelude.
    let mut rng = SimRng::for_stream(StreamKey::root(1).with(2));
    let u = rng.unit();
    assert!((0.0..1.0).contains(&u));
    let _dt: SimDuration = SimDuration(1_000_000);

    // sixg-netsim topology + radio via the prelude.
    let mut topo = Topology::new();
    let gnb = topo.add_node(NodeKind::GnB, "gnb".to_string(), origin, Asn(1));
    let upf = topo.add_node(NodeKind::Upf, "upf".to_string(), origin, Asn(1));
    topo.add_link(gnb, upf, LinkParams::metro());
    let access = FiveGAccess::new(CellEnv::new(0.5, 0.2));
    assert!(access.mean_rtt_ms() > 0.0);

    // sixg-measure + sixg-core via the prelude: a tiny end-to-end slice.
    let scenario = KlagenfurtScenario::paper(7);
    let field: CellField = run_field(&scenario, CampaignConfig::default(), ExecBackend::Analytic);
    let stats: CellStats = field.stats(CellId::new(2, 1));
    assert!(stats.count > 0, "campaign produced samples for C2");
    let profile: RequirementProfile = ApplicationClass::ArGaming.profile();
    let gap = GapReport::analyse(&field, &profile);
    assert!(gap.exceedance_pct.is_finite());
}

#[test]
fn klagenfurt_paper_scenario_is_deterministic() {
    let a = KlagenfurtScenario::paper(42);
    let b = KlagenfurtScenario::paper(42);

    let field_a = run_field(&a, CampaignConfig::default(), ExecBackend::Analytic);
    let field_b = run_field(&b, CampaignConfig::default(), ExecBackend::Analytic);

    // Same seed ⇒ identical per-cell statistics, bit for bit.
    for cell in a.grid.cells() {
        let sa = field_a.stats(cell);
        let sb = field_b.stats(cell);
        assert_eq!(sa.count, sb.count, "cell {cell} count");
        assert_eq!(sa.mean_ms.to_bits(), sb.mean_ms.to_bits(), "cell {cell} mean");
        assert_eq!(sa.std_ms.to_bits(), sb.std_ms.to_bits(), "cell {cell} std");
    }

    // And an identical rendered summary (the JSON artefact downstream
    // tooling consumes).
    let summary_a = CampaignSummary::from_field(&field_a).to_json();
    let summary_b = CampaignSummary::from_field(&field_b).to_json();
    assert_eq!(summary_a, summary_b);

    // A different seed must not reproduce the same field bit-for-bit.
    let other = KlagenfurtScenario::paper(43);
    let field_other = run_field(&other, CampaignConfig::default(), ExecBackend::Analytic);
    assert_ne!(
        CampaignSummary::from_field(&field_other).to_json(),
        summary_a,
        "different seeds should differ"
    );
}
