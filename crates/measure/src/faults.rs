//! Fault-bearing campaigns: the link fail/recover timeline a spec
//! schedules, and the per-shard windows of it that the packet world
//! replays over a live control plane.
//!
//! The packet world ([`crate::event_backend`]) routes every probe over the
//! scenario's *static* Gao–Rexford fixed point. A [`FaultCampaign`] runs
//! the same campaign — same shard list, same `(seed, pass, cell, sample)`
//! stream keys, same per-probe draw order — but compiles the spec's
//! validated [`FaultDef`](crate::spec::FaultDef) schedule into one merged
//! timeline of link state changes on the per-pass campaign clock, and
//! gives a shard a fault window when that timeline touches it:
//!
//! * each shard knows its start offset on the per-pass traversal clock
//!   ([`FaultShard::t0_s`]); the timeline touches the shard when a link is
//!   down at the window start or a change falls at or before its last
//!   launch. A fault at `at_s` seconds into the pass therefore lands in
//!   exactly one shard's window and tombstones the link there; later
//!   shards start from the already-converged post-fault fixed point;
//! * in a window, when a link dies or recovers, the BGP sessions it
//!   carried go down/up and the speakers of
//!   [`sixg_netsim::routing::dynamic`] exchange withdraw/update messages
//!   (at [`CONTROL_DELAY`](sixg_netsim::routing::dynamic::CONTROL_DELAY)
//!   per hop) on the control plane's own calendar, which the probe loop
//!   runs to each launch — a probe launched during the transient asks
//!   the source AS's RIB at launch time and measures whatever the
//!   half-converged control plane gives it;
//! * a probe whose RIB entry cannot be stitched over live links (a
//!   blackhole: the withdraw has not reached the source yet, or no backup
//!   route exists) is dropped — no sample, a smaller per-cell count,
//!   exactly like a lost ping.
//!
//! The probe calendar and the control plane's are two instances of one
//! type ([`sixg_netsim::calendar::Calendar`]), and together they replay a
//! single shared calendar exactly. Probe legs touch only FIFO servers and
//! probe state; control messages touch only the control plane. Their one
//! coupling is the RIB read at a launch, and both calendars run to each
//! launch before it, so the read sees the same RIB. Each calendar keeps
//! `(time, insertion sequence)` order among its own events, so FIFO
//! admissions happen in the same order. Within a window, each target's
//! resolved route is kept until the control plane delivers a message or a
//! link changes — the only two events that move what route resolution
//! reads.
//!
//! Determinism: every stochastic quantity of probe `i` still comes from
//! its own stream (`key.with(i)`), so the sample a probe produces depends
//! only on the route it resolves at launch — not on any other probe's
//! draws. A shard the timeline does not touch gets no window and no
//! control plane: it runs the plain packet world, bit for bit. A
//! fault-free spec is all such shards, and the cells a fault leaves
//! untouched reproduce an unfaulted run bitwise (the `repro_faults`
//! gate). Windows rebuild their converged control plane independently, so
//! the parallel runner stays bitwise equal to the sequential one at every
//! pool size.

use crate::campaign::{CampaignConfig, Shard};
use crate::event_backend::EventCampaign;
use crate::parallel::CellItem;
use crate::scenario::Scenario;
use sixg_geo::CellId;
use sixg_netsim::routing::dynamic::{sessions_from_topology, ControlPlane};
use sixg_netsim::routing::{AsGraph, PathComputer, RoutedPath};
use sixg_netsim::time::{SimDuration, SimTime};
use sixg_netsim::topology::{Asn, LinkId, LinkParams, NodeId, Topology};
use std::collections::BTreeMap;

/// One campaign shard plus its start offset on the per-pass traversal
/// clock — the extra coordinate the fault timeline is resolved against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultShard {
    /// The (pass, cell, dwell) work item, exactly the plain backends'.
    pub shard: Shard,
    /// Seconds into the pass at which this shard's dwell window starts
    /// (cumulative dwell of the pass's earlier visits).
    pub t0_s: f64,
}

impl CellItem for FaultShard {
    fn cell(&self) -> CellId {
        self.shard.cell
    }
}

/// A link state change on the per-pass campaign clock, after merging
/// (possibly overlapping) fault intervals per link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkChange {
    at_s: f64,
    link: LinkId,
    up: bool,
}

/// The slice of the timeline one shard replays: the shard-local topology
/// with the pre-window fault state installed, its converged control plane
/// (which carries its own clock and calendar), and the link changes from
/// the window start up to the last launch, on the shard-local clock (`t0`
/// ↦ [`SimTime::ZERO`]).
pub(crate) struct FaultWindow<'f> {
    graph: &'f AsGraph,
    /// Pristine parameters of every faulted link.
    params: &'f BTreeMap<LinkId, LinkParams>,
    /// The scenario's topology with every link that is down tombstoned.
    topo: Topology,
    /// The changes not yet applied, in calendar order.
    due: std::iter::Peekable<std::vec::IntoIter<(SimTime, LinkChange)>>,
    /// The BGP control plane, converged on the pre-window fault state: a
    /// transient from an earlier shard's window has had whole seconds of
    /// calendar to settle — reconvergence takes milliseconds — so the
    /// window starts at its fixed point, with its clock at the window's
    /// origin.
    cp: ControlPlane,
    /// The shard's UE and the campaign's measurement targets.
    ue: NodeId,
    targets: &'f [NodeId],
    /// Each target's route as resolved since the RIB last moved: `None`
    /// until resolved, then the route or a blackhole.
    routes: Vec<Option<Option<RoutedPath>>>,
    /// [`ControlPlane::messages_delivered`] when `routes` was last cleared.
    delivered: u64,
}

impl FaultWindow<'_> {
    /// Runs the control plane to `launch`: each link change due by then is
    /// applied at its own time, and the calendar runs to the launch. The
    /// resolved routes are forgotten when a message was delivered since
    /// they were cleared.
    pub(crate) fn run_to(&mut self, launch: SimTime) {
        while let Some((at, change)) = self.due.next_if(|&(at, _)| at <= launch) {
            self.cp.run_until(at);
            self.apply_change(change);
        }
        self.cp.run_until(launch);
        if self.cp.messages_delivered() != self.delivered {
            self.forget_routes();
        }
    }

    /// The hops to target `ti` over whatever the UE's AS's RIB holds now,
    /// stitched over live links, or `None` for a blackhole. A live link of
    /// the shard-local topology carries the scenario's pristine
    /// parameters, so the campaign's table prices it exactly.
    pub(crate) fn hops(&mut self, ti: usize) -> Option<&[(NodeId, LinkId)]> {
        let Self { graph, topo, cp, ue, targets, routes, .. } = self;
        let route = routes[ti].get_or_insert_with(|| {
            let (ue, target) = (*ue, targets[ti]);
            let as_path = cp.best_route(topo.node(ue).asn, topo.node(target).asn)?;
            PathComputer::new(topo, graph).route_along(ue, target, &as_path)
        });
        route.as_ref().map(|path| &path.hops[..])
    }

    fn forget_routes(&mut self) {
        self.routes.fill(None);
        self.delivered = self.cp.messages_delivered();
    }

    /// Applies one link state change at the control plane's current time:
    /// tombstone/restore the link in the shard-local topology, then take
    /// down / bring up every BGP session whose last physical link it was.
    fn apply_change(&mut self, change: LinkChange) {
        let before = sessions_from_topology(&self.topo, self.graph);
        if change.up {
            self.topo.restore_link(change.link, self.params[&change.link]);
        } else {
            self.topo.remove_link(change.link);
        }
        let after = sessions_from_topology(&self.topo, self.graph);
        for &(a, b) in before.difference(&after) {
            self.cp.session_down(Asn(a), Asn(b));
        }
        for &(a, b) in after.difference(&before) {
            self.cp.session_up(Asn(a), Asn(b));
        }
        self.forget_routes();
    }
}

/// The fault-aware event campaign over a spec-compiled [`Scenario`].
/// Compiles the spec's fault schedule once (link names → ids, overlapping
/// intervals merged); each shard then replays the slice of the timeline
/// that intersects its dwell window in the packet world.
pub struct FaultCampaign<'a> {
    event: EventCampaign<'a>,
    /// Merged link state changes, ordered by (time, link).
    changes: Vec<LinkChange>,
    /// Pristine parameters of every faulted link (restore needs them —
    /// tombstoning poisons the stored bandwidth).
    params: BTreeMap<LinkId, LinkParams>,
}

impl<'a> FaultCampaign<'a> {
    /// Creates a fault-aware campaign over a scenario. The scenario's spec
    /// is already validated, so every fault names a declared link.
    pub fn new(scenario: &'a Scenario, config: CampaignConfig) -> Self {
        let mut params = BTreeMap::new();
        let mut edges: BTreeMap<LinkId, Vec<(f64, i32)>> = BTreeMap::new();
        for fault in &scenario.spec.faults {
            let idx = scenario
                .spec
                .fault_link_index(fault)
                .expect("validated faults reference declared links");
            let link = LinkId(idx as u32);
            params.insert(link, scenario.topo.links()[idx].params);
            edges.entry(link).or_default().push((fault.at_s, 1));
            if let Some(r) = fault.recover_at_s {
                edges.entry(link).or_default().push((r, -1));
            }
        }
        // Merge overlapping intervals per link: the link is down while any
        // fault holds it down, and only the edges of the union become
        // state changes.
        let mut changes = Vec::new();
        for (link, mut evs) in edges {
            evs.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
            let mut active = 0i32;
            for (at_s, delta) in evs {
                let was_down = active > 0;
                active += delta;
                let is_down = active > 0;
                if was_down != is_down {
                    changes.push(LinkChange { at_s, link, up: !is_down });
                }
            }
        }
        changes.sort_by(|a, b| a.at_s.total_cmp(&b.at_s).then(a.link.cmp(&b.link)));
        Self { event: EventCampaign::new(scenario, config), changes, params }
    }

    /// Whether `link` is down at `t_s` seconds into a pass (state changes
    /// strictly before `t_s`; a change *at* `t_s` belongs to the window
    /// starting there).
    fn link_down_at(&self, link: LinkId, t_s: f64) -> bool {
        let mut down = false;
        for c in &self.changes {
            if c.link == link && c.at_s < t_s {
                down = !c.up;
            }
        }
        down
    }

    /// The outage windows `(down_s, recover_s)` of the merged timeline
    /// (`None` = the link stays down for the rest of every pass).
    pub fn outages(&self) -> Vec<(f64, Option<f64>)> {
        let mut out = Vec::new();
        let mut open: BTreeMap<LinkId, f64> = BTreeMap::new();
        for c in &self.changes {
            if c.up {
                if let Some(start) = open.remove(&c.link) {
                    out.push((start, Some(c.at_s)));
                }
            } else {
                open.insert(c.link, c.at_s);
            }
        }
        out.extend(open.into_values().map(|start| (start, None)));
        out
    }

    /// Cells whose every dwell window, across all passes, is disjoint from
    /// every outage window extended by `margin_s` of reconvergence slack —
    /// the cells a faulted run must reproduce bitwise against an unfaulted
    /// one (the `repro_faults` recovery gate).
    pub fn untouched_cells(&self, margin_s: f64) -> Vec<CellId> {
        let outages = self.outages();
        let mut touched: BTreeMap<CellId, bool> = BTreeMap::new();
        for fs in self.shards() {
            let hit = outages.iter().any(|&(down, recover)| {
                let end = recover.map_or(f64::INFINITY, |r| r + margin_s);
                fs.t0_s < end && down < fs.t0_s + fs.shard.dwell_s
            });
            *touched.entry(fs.shard.cell).or_insert(false) |= hit;
        }
        touched.into_iter().filter_map(|(cell, hit)| (!hit).then_some(cell)).collect()
    }

    /// The campaign work list with per-pass start offsets — the same
    /// shards, in the same order, as the plain backends'.
    pub fn shards(&self) -> Vec<FaultShard> {
        let campaign = self.event.campaign();
        let mut out = Vec::new();
        for pass in 0..campaign.config().passes {
            let visits = campaign.traversal(pass).visits;
            out.reserve_exact(visits.len());
            let mut t0_s = 0.0;
            for v in visits {
                out.push(FaultShard {
                    shard: Shard { pass, cell: v.cell, dwell_s: v.dwell_s },
                    t0_s,
                });
                t0_s += v.dwell_s;
            }
        }
        out
    }

    /// The window of `fs`, or `None` when the timeline does not touch it:
    /// no link is down at the window start and no change falls at or
    /// before the last launch.
    fn window(&self, fs: FaultShard) -> Option<FaultWindow<'_>> {
        let campaign = self.event.campaign();
        let interval_s = campaign.config().sample_interval_s;
        let last_launch_s = (campaign.samples_for_dwell(fs.shard.dwell_s) - 1) as f64 * interval_s;
        let due: Vec<_> = self
            .changes
            .iter()
            .filter(|c| c.at_s >= fs.t0_s && c.at_s - fs.t0_s <= last_launch_s)
            .map(|c| (SimTime::ZERO + SimDuration::from_secs_f64(c.at_s - fs.t0_s), *c))
            .collect();
        let down: Vec<LinkId> =
            self.params.keys().copied().filter(|&l| self.link_down_at(l, fs.t0_s)).collect();
        if due.is_empty() && down.is_empty() {
            return None;
        }
        let s = campaign.scenario();
        let mut topo = s.topo.clone();
        for link in down {
            topo.remove_link(link);
        }
        let cp = ControlPlane::converged_from_topology(&topo, &s.as_graph);
        let targets = campaign.targets();
        Some(FaultWindow {
            graph: &s.as_graph,
            params: &self.params,
            due: due.into_iter().peekable(),
            delivered: cp.messages_delivered(),
            cp,
            ue: s.ue[&fs.shard.cell],
            targets,
            routes: vec![None; targets.len()],
            topo,
        })
    }

    /// Event-simulated samples of one shard, in probe order. Blackholed
    /// probes produce no sample, so the buffer can be shorter than the
    /// shard's cadence count.
    pub fn collect_shard_into(&self, fs: FaultShard, out: &mut Vec<f64>) {
        self.event.collect_probes(fs.shard, self.window(fs), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::CellField;
    use crate::exec::{run_field, run_field_sequential};
    use crate::klagenfurt::{klagenfurt_flap_spec, klagenfurt_spec};
    use crate::parallel::{run_shards_sequential, with_thread_count};
    use crate::spec::{ExecBackend, FaultDef};

    fn config() -> CampaignConfig {
        CampaignConfig { seed: 2, passes: 1, sample_interval_s: 2.0 }
    }

    fn assert_fields_bitwise_equal(s: &Scenario, a: &CellField, b: &CellField, context: &str) {
        for cell in s.grid.cells() {
            let (x, y) = (a.stats(cell), b.stats(cell));
            assert_eq!(x.count, y.count, "{context}: cell {cell} count");
            assert_eq!(x.mean_ms.to_bits(), y.mean_ms.to_bits(), "{context}: cell {cell} mean");
            assert_eq!(x.std_ms.to_bits(), y.std_ms.to_bits(), "{context}: cell {cell} std");
        }
    }

    /// With an empty fault schedule no shard gets a window, so the fault
    /// campaign is the plain packet world, bit for bit.
    #[test]
    fn fault_free_run_is_bitwise_the_plain_event_backend() {
        let mut spec = klagenfurt_spec().clone();
        spec.backend = "event".into();
        let s = Scenario::from_spec(&spec).expect("compiles");
        let fc = FaultCampaign::new(&s, config());
        let faulted =
            run_shards_sequential(&s, &fc.shards(), |x, buf| fc.collect_shard_into(x, buf));
        let ec = EventCampaign::new(&s, config());
        let plain = run_shards_sequential(&s, &ec.shards(), |x, buf| ec.collect_shard_into(x, buf));
        assert_fields_bitwise_equal(&s, &faulted, &plain, "fault-free");
    }

    /// During the Klagenfurt transit flap the probes reconverge onto the
    /// backup Vienna crossing and skip the Prague–Bucharest detour, so the
    /// in-outage mean drops by the detour's propagation cost; a shard
    /// whose window starts after recovery is bitwise the unfaulted run.
    #[test]
    fn flap_shifts_routes_in_outage_and_recovers_bitwise() {
        let spec = klagenfurt_flap_spec().clone();
        let s = Scenario::from_spec(&spec).expect("compiles");
        let fc = FaultCampaign::new(&s, config());
        let ec = EventCampaign::new(&s, config());
        let cell = s.reference_cell;
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;

        // Entirely inside the outage (fault at 900 s, recovery at 2500 s).
        let inside = FaultShard { shard: Shard { pass: 0, cell, dwell_s: 120.0 }, t0_s: 1200.0 };
        let (mut faulted, mut unfaulted) = (Vec::new(), Vec::new());
        fc.collect_shard_into(inside, &mut faulted);
        ec.collect_shard_into(inside.shard, &mut unfaulted);
        assert_eq!(faulted.len(), unfaulted.len(), "backup path drops no probe");
        assert!(
            mean(&faulted) < mean(&unfaulted) - 5.0,
            "backup crossing must skip the Bucharest detour: faulted {} vs static {}",
            mean(&faulted),
            mean(&unfaulted)
        );

        // Entirely after recovery: bitwise the unfaulted samples.
        let after = FaultShard { shard: Shard { pass: 0, cell, dwell_s: 120.0 }, t0_s: 3000.0 };
        let mut clean = Vec::new();
        fc.collect_shard_into(after, &mut faulted);
        ec.collect_shard_into(after.shard, &mut clean);
        assert_eq!(faulted.len(), clean.len());
        for (i, (f, c)) in faulted.iter().zip(&clean).enumerate() {
            assert_eq!(f.to_bits(), c.to_bits(), "post-recovery probe {i}");
        }
    }

    /// Probes every 2 ms through the flap's 10 ms-per-hop reconvergence,
    /// pinned bit for bit: each launch reads the half-converged RIB of its
    /// own instant, so a route kept across a message delivery or a link
    /// change would move these counts and hashes. At the fault 5 probes
    /// are blackholed while the withdraw propagates; at recovery none is.
    /// Windows that open 50 ms before each change and exactly at it are
    /// both pinned: the control plane a window converges must start its
    /// clock at the window's origin, and a clock left at the end of
    /// convergence (tens of milliseconds in) would shift a change that
    /// falls at the origin and every message it sends.
    #[test]
    fn fine_cadence_transients_are_pinned() {
        let s = Scenario::from_spec(klagenfurt_flap_spec()).expect("compiles");
        let config = CampaignConfig { seed: 2, passes: 1, sample_interval_s: 0.002 };
        let fc = FaultCampaign::new(&s, config);
        let mut out = Vec::new();
        for (t0_s, count, hash) in [
            (899.95, 95, 0xef76_6f88_9494_dfea_u64),
            (2499.95, 100, 0x0a0d_b9e0_c170_cd2e),
            (900.0, 95, 0xae2c_0502_e1f0_4df5),
            (2500.0, 100, 0xd697_c8fd_cbfb_4770),
        ] {
            let shard = Shard { pass: 0, cell: s.reference_cell, dwell_s: 0.2 };
            fc.collect_shard_into(FaultShard { shard, t0_s }, &mut out);
            let bytes: Vec<u8> = out.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
            assert_eq!((out.len(), crate::store::fnv1a64(&bytes)), (count, hash), "t0 {t0_s}");
        }
    }

    /// An unrecovered fault on the operator's only egress blackholes every
    /// probe launched at or after the failure: the withdraw reaches the
    /// source immediately (it is session-local), the RIB empties, and the
    /// dropped probes shrink the sample count instead of panicking.
    #[test]
    fn unrecovered_egress_fault_blackholes_later_probes() {
        let mut spec = klagenfurt_spec().clone();
        spec.backend = "event".into();
        spec.faults = vec![FaultDef {
            link: ["op-cgnat-klu".into(), "dp-edge-vie".into()],
            at_s: 100.0,
            recover_at_s: None,
        }];
        let s = Scenario::from_spec(&spec).expect("compiles");
        let fc = FaultCampaign::new(&s, config());
        let fs = FaultShard {
            shard: Shard { pass: 0, cell: s.reference_cell, dwell_s: 300.0 },
            t0_s: 0.0,
        };
        let mut out = Vec::new();
        fc.collect_shard_into(fs, &mut out);
        // 150 launches at 2 s cadence; those at t ≥ 100 s (i ≥ 50) drop.
        assert_eq!(out.len(), 50);
        assert!(out.iter().all(|v| v.is_finite() && *v > 0.0));

        // A shard starting entirely after the unrecovered fault is a full
        // blackhole: zero samples.
        let dark = FaultShard {
            shard: Shard { pass: 0, cell: s.reference_cell, dwell_s: 60.0 },
            t0_s: 500.0,
        };
        fc.collect_shard_into(dark, &mut out);
        assert!(out.is_empty(), "blackholed shard produced {} samples", out.len());
    }

    /// The determinism contract extends to faulted runs: sequential and
    /// parallel are bitwise equal at pool sizes 1, 2 and 4. The sequential
    /// oracle runs the fault timeline, so its field is not the plain packet
    /// world's over static routes.
    #[test]
    fn faulted_parallel_equals_sequential_bitwise() {
        let spec = klagenfurt_flap_spec().clone();
        let s = Scenario::from_spec(&spec).expect("compiles");
        let seq = run_field_sequential(&s, config(), ExecBackend::Event);
        let ec = EventCampaign::new(&s, config());
        let plain = run_shards_sequential(&s, &ec.shards(), |x, buf| ec.collect_shard_into(x, buf));
        assert!(
            s.grid.cells().any(|cell| seq.stats(cell) != plain.stats(cell)),
            "the oracle must replay the flap, not the static routes"
        );
        for &threads in &[1usize, 2, 4] {
            let par = with_thread_count(threads, || run_field(&s, config(), ExecBackend::Event));
            assert_fields_bitwise_equal(&s, &seq, &par, &format!("{threads} threads"));
        }
    }

    /// The untouched-cell classifier: every cell is dirtied by an eternal
    /// fault, none by an empty schedule, and the flap spec leaves both
    /// pre-fault and post-recovery cells clean in every pass.
    #[test]
    fn untouched_cells_classify_the_timeline() {
        let spec = klagenfurt_flap_spec().clone();
        let s = Scenario::from_spec(&spec).expect("compiles");
        let fc = FaultCampaign::new(&s, config());
        assert_eq!(fc.outages(), vec![(900.0, Some(2500.0))]);
        let untouched = fc.untouched_cells(5.0);
        assert!(!untouched.is_empty(), "flap must leave clean cells");
        assert!(untouched.len() < s.included.len(), "flap must dirty some cells");
        // The traversal always starts at B1, well before the 900 s fault.
        assert!(untouched.contains(&CellId::parse("B1").unwrap()));
        // An untouched cell's shards get no window: they run the static
        // table, exactly as an unfaulted run does.
        let windowed: Vec<FaultShard> =
            fc.shards().into_iter().filter(|&fs| fc.window(fs).is_some()).collect();
        assert!(!windowed.is_empty(), "the flap must open windows");
        assert!(windowed.iter().all(|fs| !untouched.contains(&fs.shard.cell)));

        let mut eternal = spec.clone();
        eternal.faults = vec![FaultDef {
            link: ["op-cgnat-klu".into(), "dp-edge-vie".into()],
            at_s: 0.0,
            recover_at_s: None,
        }];
        let se = Scenario::from_spec(&eternal).expect("compiles");
        assert!(FaultCampaign::new(&se, config()).untouched_cells(5.0).is_empty());

        let mut none = spec;
        none.faults = Vec::new();
        let sn = Scenario::from_spec(&none).expect("compiles");
        let fc = FaultCampaign::new(&sn, config());
        assert_eq!(fc.untouched_cells(5.0).len(), sn.included.len());
        assert!(fc.outages().is_empty());
        // A fault-free spec has no control plane at all.
        assert!(fc.shards().into_iter().all(|fs| fc.window(fs).is_none()));
    }

    /// Overlapping fault intervals on one link merge into the union: the
    /// link recovers only when the last fault holding it down recovers.
    #[test]
    fn overlapping_faults_merge_into_union_outage() {
        let mut spec = klagenfurt_spec().clone();
        spec.backend = "event".into();
        spec.faults = vec![
            FaultDef {
                link: ["cdn77-core-vie".into(), "zetservers-prg".into()],
                at_s: 100.0,
                recover_at_s: Some(300.0),
            },
            FaultDef {
                link: ["zetservers-prg".into(), "cdn77-core-vie".into()],
                at_s: 200.0,
                recover_at_s: Some(500.0),
            },
        ];
        let s = Scenario::from_spec(&spec).expect("compiles");
        let fc = FaultCampaign::new(&s, config());
        assert_eq!(fc.outages(), vec![(100.0, Some(500.0))]);
        let link = LinkId(2);
        assert!(!fc.link_down_at(link, 99.0));
        assert!(fc.link_down_at(link, 250.0));
        assert!(fc.link_down_at(link, 350.0), "merged interval spans the inner recovery");
        assert!(!fc.link_down_at(link, 501.0));
    }
}
