//! The packet-level discrete-event campaign backend — the simulator's one
//! packet world.
//!
//! The analytic backend ([`crate::campaign::MobileCampaign`]) draws each
//! round-trip latency from closed-form per-hop delay models. This module
//! executes the *same campaign* — same [`Shard`] work list, same
//! `(scenario seed, campaign seed, pass, cell, sample)` stream-keying
//! discipline, same per-cell sample counts — but produces every sample by
//! pushing a [`PROBE_BYTES`] probe through a per-shard discrete-event
//! world built on [`sixg_netsim::engine::Engine`]:
//!
//! * every link carries a [`FifoServer`] (from [`sixg_netsim::queueing`]),
//!   so serialisation delay and probe-vs-probe queueing are *emergent*
//!   from packet timing rather than sampled — the piece the closed form
//!   cannot express (congested cadences, bursty cross-traffic);
//! * per-link extra delays are sampled from the spec's full declarative
//!   [`DistSpec`]s (via [`Scenario::link_extra_specs`]) instead of being
//!   collapsed to their means;
//! * background cross-traffic too light to simulate per-packet keeps the
//!   analytic M/G/1 treatment (exponential wait at the Pollaczek–Khinchine
//!   mean), drawn from the analytic backend's own
//!   [`DelaySampler`] table ([`DelaySampler::leg_ms`]);
//! * the return trip re-traverses the forward hop list, mirroring the
//!   analytic `rtt = one_way + one_way` convention, so the two backends
//!   agree in expectation (cross-validated by `repro_crossval`).
//!
//! The world carries an optional BGP control plane. A shard that the
//! spec's fault timeline touches ([`crate::faults`] hands it a
//! `FaultWindow`) starts from the converged control plane of its
//! pre-window fault state; the probe loop applies each link change due
//! before a launch on the same calendar the probes fly on, and routes the
//! probe over the source AS's RIB at launch time. Every other shard —
//! all of them in a fault-free spec — has no control plane and routes
//! over the scenario's compiled static table.
//!
//! Determinism: each probe's stochastic quantities are drawn from its own
//! per-sample stream (phase label `"campaign-event"`) at launch, and each
//! shard owns a private engine and world. Shards can therefore run on any
//! thread in any order; the shared plain-run skeleton of
//! [`crate::parallel`] accumulates each cell's samples in work-list order,
//! making parallel runs bitwise equal to sequential ones at every pool
//! size.

use crate::campaign::{CampaignConfig, MobileCampaign, Shard};
use crate::faults::FaultWindow;
use crate::scenario::Scenario;
use bytes::arena::{Arena, Slice};
use sixg_netsim::dist::{Component, DistSpec, Sample};
use sixg_netsim::engine::Engine;
use sixg_netsim::latency::DelaySampler;
use sixg_netsim::queueing::FifoServer;
use sixg_netsim::radio::AccessModel;
use sixg_netsim::rng::SimRng;
use sixg_netsim::routing::dynamic::{ControlPlane, HasControlPlane};
use sixg_netsim::routing::PathComputer;
use sixg_netsim::time::{SimDuration, SimTime};
use sixg_netsim::topology::{LinkId, NodeId};
use std::cell::RefCell;

/// Wire size of a measurement probe, bytes — the same figure the analytic
/// sampler feeds its transmission-delay term.
pub const PROBE_BYTES: u32 = 64;

/// Cross-validation: multiplier on the standard error of the difference of
/// the two backends' per-cell means (see DESIGN.md "Execution backends").
pub const CROSSVAL_SE_FACTOR: f64 = 6.0;
/// Cross-validation: absolute per-cell slack absorbing the backends'
/// second-order modelling differences (sampled extras vs means, residual
/// FIFO waits), ms.
pub const CROSSVAL_SLACK_MS: f64 = 0.75;
/// Cross-validation: relative tolerance on grand-mean agreement.
pub const CROSSVAL_GRAND_MEAN_TOL: f64 = 0.015;

/// The documented per-cell cross-validation tolerance for comparing the
/// two backends' mean RTLs: `CROSSVAL_SE_FACTOR · SE + CROSSVAL_SLACK_MS`
/// with `SE = √(σ_a²/n_a + σ_e²/n_e)` (the backends draw from disjoint
/// streams, so their means are independent). The single definition the
/// `repro_crossval` CI gate and the tier-1 suites all consume.
pub fn crossval_tolerance_ms(a: &crate::CellStats, e: &crate::CellStats) -> f64 {
    let se = (a.std_ms * a.std_ms / a.count as f64 + e.std_ms * e.std_ms / e.count as f64).sqrt();
    CROSSVAL_SE_FACTOR * se + CROSSVAL_SLACK_MS
}

/// Stream-key phase label of the event backend (the analytic backend uses
/// `"campaign"`; a distinct label keeps the two backends' draws
/// statistically independent while sharing the keying discipline).
pub(crate) const PHASE_LABEL: &str = "campaign-event";

/// One hop traversal of a probe: occupy `link`'s FIFO server for
/// `service`, then arrive at the next hop `after` later (propagation +
/// sampled extra + background queueing + node processing).
#[derive(Debug, Clone, Copy)]
struct Leg {
    link: LinkId,
    service: SimDuration,
    after: SimDuration,
}

/// Draws a probe's journey over `hops` — the forward legs, then the echo
/// back over the same hop list (the analytic backend's `rtt = one_way +
/// one_way` convention) — handing each leg to `push`.
fn draw_legs(
    sampler: &DelaySampler,
    extras: &[Component],
    hops: &[(NodeId, LinkId)],
    rng: &mut SimRng,
    mut push: impl FnMut(Leg),
) {
    for _direction in 0..2 {
        for &(into, link) in hops {
            // A `normal` extra spec admits a tiny negative-sample mass
            // (validate() bounds it at mean ≥ 4σ, ~3e-5 per draw); clamp
            // it — a negative delay is unphysical and would panic the
            // SimDuration conversion below.
            let extra = extras[link.0 as usize].sample(rng).max(0.0);
            let (service, after) = sampler.leg_ms(link, into, PROBE_BYTES, extra, rng);
            push(Leg {
                link,
                service: SimDuration::from_millis_f64(service),
                after: SimDuration::from_millis_f64(after),
            });
        }
    }
}

/// A probe in flight: its pre-drawn journey (a handle into the shard's
/// shared leg arena) plus bookkeeping to turn the echo arrival into an RTL
/// sample.
struct Probe {
    id: usize,
    launched: SimTime,
    next: usize,
    legs: Slice,
    air_ms: f64,
}

/// The per-shard event world: one FIFO server per link, one result slot
/// per probe (`None` until the echo lands, and for ever if the probe was
/// blackholed), one arena holding every probe's legs, and the control
/// plane of a shard with a fault window. `'static`, so control-plane
/// message events and probe legs share one calendar.
///
/// The arena is one worker-local buffer recycled across all shards a
/// worker executes, so the steady-state hot loop performs no allocator
/// calls for probe journeys.
pub(crate) struct ProbeWorld {
    links: Vec<FifoServer>,
    results: Vec<Option<f64>>,
    legs: Arena<Leg>,
    cp: Option<ControlPlane>,
}

impl HasControlPlane for ProbeWorld {
    fn control_plane(&self) -> &ControlPlane {
        self.cp.as_ref().expect("control-plane events run only in a fault window")
    }
    fn control_plane_mut(&mut self) -> &mut ControlPlane {
        self.cp.as_mut().expect("control-plane events run only in a fault window")
    }
}

thread_local! {
    /// Worker-local leg arena, moved into each shard's [`ProbeWorld`] and
    /// recovered afterwards so its capacity survives across shards.
    static LEG_ARENA: RefCell<Arena<Leg>> = RefCell::new(Arena::new());
}

/// Advances a probe one leg: claim the link's FIFO server now, schedule
/// the next-hop arrival; on the last leg, record the RTL sample.
fn advance(eng: &mut Engine<ProbeWorld>, world: &mut ProbeWorld, mut probe: Probe) {
    match world.legs.get(probe.legs).get(probe.next).copied() {
        None => {
            let wire_ms = eng.now().since(probe.launched).as_millis_f64();
            world.results[probe.id] = Some(wire_ms + probe.air_ms);
        }
        Some(leg) => {
            probe.next += 1;
            let depart = world.links[leg.link.0 as usize].admit(eng.now(), leg.service);
            let arrival = depart + leg.after;
            eng.schedule_at(arrival, move |e, w| advance(e, w, probe));
        }
    }
}

/// The event-driven campaign runner over a spec-compiled [`Scenario`].
///
/// Construction compiles the per-link extra-delay distributions once; each
/// [`Self::collect_shard_into`] call then builds a private engine + world
/// for its shard.
pub struct EventCampaign<'a> {
    campaign: MobileCampaign<'a>,
    extras: Vec<Component>,
}

impl<'a> EventCampaign<'a> {
    /// Creates an event-driven campaign over a scenario.
    pub fn new(scenario: &'a Scenario, config: CampaignConfig) -> Self {
        let extras = scenario.link_extra_specs().iter().map(DistSpec::build).collect();
        Self { campaign: MobileCampaign::new(scenario, config), extras }
    }

    /// The analytic campaign this one shares its work list, stream keys
    /// and per-hop table with.
    pub(crate) fn campaign(&self) -> &MobileCampaign<'a> {
        &self.campaign
    }

    /// The campaign work list — exactly the analytic backend's
    /// ([`MobileCampaign::shards`]), which is what makes the two backends
    /// shard-for-shard and count-for-count comparable.
    pub fn shards(&self) -> Vec<Shard> {
        self.campaign.shards()
    }

    /// Event-simulated samples of one shard, in probe order, into a
    /// caller-owned buffer (cleared first), every probe routed over the
    /// scenario's static table.
    pub fn collect_shard_into(&self, shard: Shard, out: &mut Vec<f64>) {
        self.collect_probes(shard, None, out);
    }

    /// The probe loop: builds the shard's packet-level world — probe
    /// packets on the sampling cadence, FIFO servers on every link, and the
    /// converged control plane of `window`'s pre-window fault state if
    /// there is a window — and runs its event calendar to completion.
    /// Before each launch it applies the window's link changes due by
    /// then and runs the calendar to the launch; the probe then routes
    /// over the static table, or over the source AS's RIB in a window.
    /// Blackholed probes produce no sample, so `out` can be shorter than
    /// the shard's cadence count.
    pub(crate) fn collect_probes(
        &self,
        shard: Shard,
        mut window: Option<FaultWindow<'_>>,
        out: &mut Vec<f64>,
    ) {
        let s = self.campaign.scenario();
        let targets = self.campaign.targets();
        let access = s.access_for(shard.cell);
        let interval = SimDuration::from_secs_f64(self.campaign.config().sample_interval_s);
        let n = self.campaign.samples_for_dwell(shard.dwell_s);
        let key = self.campaign.shard_key(PHASE_LABEL, shard.pass, shard.cell);
        let sampler = self.campaign.sampler();

        let mut eng: Engine<ProbeWorld> = Engine::new();
        let mut world = ProbeWorld {
            links: vec![FifoServer::new(); s.topo.link_count()],
            results: vec![None; n],
            legs: LEG_ARENA.with(|a| std::mem::take(&mut *a.borrow_mut())),
            // A transient from an earlier shard's window has had whole
            // seconds of calendar to settle — reconvergence takes
            // milliseconds — so the window starts at its fixed point.
            cp: window
                .as_ref()
                .map(|w| ControlPlane::converged_from_topology(&w.topo, &s.as_graph)),
        };
        world.legs.reset();

        let mut launch = SimTime::ZERO;
        for i in 0..n {
            if let Some(w) = &mut window {
                while let Some((at, change)) = w.due.next_if(|&(at, _)| at <= launch) {
                    eng.run_until(&mut world, at);
                    w.apply_change(&mut eng, &mut world, change);
                }
            }
            eng.run_until(&mut world, launch);

            // Every stochastic quantity of probe `i` comes from its own
            // (seed, pass, cell, sample) stream, in one order — ti,
            // per-leg extras/queue/processing, then air — so event
            // interleaving can shift *timing* (FIFO waits) but never which
            // random numbers a probe consumes, whatever route it takes.
            let mut rng = SimRng::for_stream(key.with(i as u64));
            let ti = rng.below(targets.len() as u64) as usize;
            let routed;
            let hops = match &window {
                None => Some(&s.routes[&(shard.cell, ti)].hops[..]),
                // Whatever the source AS's RIB holds *now*, stitched over
                // live links; a live link of the shard-local topology
                // carries the scenario's pristine parameters, so the
                // campaign's table prices it exactly.
                Some(w) => {
                    let (ue, target) = (s.ue[&shard.cell], targets[ti]);
                    let cp = world.cp.as_ref().expect("a fault window has a control plane");
                    let as_path = cp.best_route(s.topo.node(ue).asn, w.topo.node(target).asn);
                    routed = as_path.and_then(|p| {
                        PathComputer::new(&w.topo, &s.as_graph).route_along(ue, target, &p)
                    });
                    routed.as_ref().map(|path| &path.hops[..])
                }
            };
            if let Some(hops) = hops {
                let mark = world.legs.mark();
                draw_legs(sampler, &self.extras, hops, &mut rng, |leg| world.legs.push(leg));
                let air_ms = access.sample_rtt_ms(&mut rng);
                let legs = world.legs.since(mark);
                let probe = Probe { id: i, launched: launch, next: 0, legs, air_ms };
                advance(&mut eng, &mut world, probe);
            }
            launch += interval;
        }
        eng.run(&mut world);
        debug_assert_eq!(eng.pending(), 0);

        out.clear();
        out.extend(world.results.iter().flatten());
        // Hand the arena (and its grown capacity) back to the worker.
        LEG_ARENA.with(|a| *a.borrow_mut() = std::mem::take(&mut world.legs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::CellField;
    use crate::exec::{run_field, run_field_sequential};
    use crate::klagenfurt::{klagenfurt_spec, KlagenfurtScenario};
    use crate::parallel::with_thread_count;
    use crate::spec::ExecBackend;

    fn scenario() -> KlagenfurtScenario {
        KlagenfurtScenario::paper(0x6B6C_7531)
    }

    fn assert_fields_bitwise_equal(s: &Scenario, a: &CellField, b: &CellField, context: &str) {
        for cell in s.grid.cells() {
            let (x, y) = (a.stats(cell), b.stats(cell));
            assert_eq!(x.count, y.count, "{context}: cell {cell} count");
            assert_eq!(x.mean_ms.to_bits(), y.mean_ms.to_bits(), "{context}: cell {cell} mean");
            assert_eq!(x.std_ms.to_bits(), y.std_ms.to_bits(), "{context}: cell {cell} std");
        }
    }

    /// The determinism contract holds for the event backend: sequential
    /// and parallel runs are bitwise equal at every pool size.
    #[test]
    fn event_parallel_equals_sequential_bitwise() {
        let s = scenario();
        let config = CampaignConfig { seed: 5, passes: 2, ..Default::default() };
        let seq = run_field_sequential(&s, config, ExecBackend::Event);
        for &threads in &[1usize, 2, 4] {
            let par = with_thread_count(threads, || run_field(&s, config, ExecBackend::Event));
            assert_fields_bitwise_equal(&s, &seq, &par, &format!("{threads} threads"));
        }
    }

    /// Both backends execute the identical shard list, so per-cell sample
    /// counts agree exactly; only the draws differ.
    #[test]
    fn event_backend_matches_analytic_sample_counts() {
        let s = scenario();
        let config = CampaignConfig { seed: 9, passes: 2, ..Default::default() };
        let analytic = run_field(&s, config, ExecBackend::Analytic);
        let event = run_field(&s, config, ExecBackend::Event);
        for cell in s.grid.cells() {
            assert_eq!(analytic.stats(cell).count, event.stats(cell).count, "cell {cell}");
        }
        assert_eq!(analytic.total_samples(), event.total_samples());
    }

    /// At the paper's 2 s cadence the probes never contend, so the event
    /// backend's per-cell means track the analytic backend's within
    /// statistical noise.
    #[test]
    fn event_backend_tracks_analytic_means() {
        let s = scenario();
        let config = CampaignConfig { seed: 2, passes: 6, ..Default::default() };
        let analytic = run_field(&s, config, ExecBackend::Analytic);
        let event = run_field(&s, config, ExecBackend::Event);
        for cell in s.grid.cells() {
            let (a, e) = (analytic.stats(cell), event.stats(cell));
            if a.is_masked() {
                continue;
            }
            let tol = crossval_tolerance_ms(&a, &e);
            assert!(
                (a.mean_ms - e.mean_ms).abs() <= tol,
                "cell {cell}: analytic {} vs event {} (tol {tol})",
                a.mean_ms,
                e.mean_ms
            );
        }
        let (ga, ge) = (analytic.grand_mean_ms(), event.grand_mean_ms());
        assert!((ga - ge).abs() / ga < CROSSVAL_GRAND_MEAN_TOL, "grand means {ga} vs {ge}");
    }

    /// A `normal` extra-delay spec is valid (mean ≥ 4σ) yet has a small
    /// negative-sample mass. The analytic backend only ever uses its mean;
    /// the event backend samples it, and clamps at zero so the rare draw
    /// whose negativity outweighs the leg's propagation + queueing +
    /// processing cannot panic the `SimDuration` conversion. This smoke
    /// test pins the supported-spec surface: normal extras on every link
    /// run clean end to end.
    #[test]
    fn normal_extra_distribution_runs_clean_on_the_event_backend() {
        let mut spec = klagenfurt_spec().clone();
        for link in &mut spec.links {
            link.extra = sixg_netsim::dist::DistSpec::Normal { mean_ms: 4.0, std_ms: 1.0 };
        }
        assert!(spec.validate().is_empty());
        let s = Scenario::from_spec(&spec).expect("compiles");
        let config = CampaignConfig { seed: 1, passes: 1, ..Default::default() };
        let shard = Shard { pass: 0, cell: s.reference_cell, dwell_s: 8_000.0 };
        let mut samples = Vec::new();
        EventCampaign::new(&s, config).collect_shard_into(shard, &mut samples);
        assert_eq!(samples.len(), 4_000);
        assert!(samples.iter().all(|v| v.is_finite() && *v > 0.0));
    }

    /// The piece the closed form cannot express: crank the probe cadence
    /// into the link's serialisation capacity and FIFO queueing between
    /// probes must inflate the measured RTL — congestion is emergent.
    #[test]
    fn saturating_cadence_produces_emergent_queueing() {
        // A narrowband scenario: the UE uplink serialises a 64-byte probe
        // in 6.4 ms, so a 1 ms cadence is ~13× oversubscribed round trip.
        let mut spec = klagenfurt_spec().clone();
        spec.ue.bandwidth_bps = 80_000.0;
        let s = Scenario::from_spec(&spec).expect("compiles");

        let saturated = CampaignConfig { seed: 1, passes: 1, sample_interval_s: 0.001 };
        let shard = Shard { pass: 0, cell: s.reference_cell, dwell_s: 0.1 };

        let (mut event, mut analytic) = (Vec::new(), Vec::new());
        EventCampaign::new(&s, saturated).collect_shard_into(shard, &mut event);
        // The analytic backend is cadence-blind: same per-sample model.
        MobileCampaign::new(&s, saturated).collect_shard_into(shard, &mut analytic);
        assert_eq!(event.len(), analytic.len());

        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let (me, ma) = (mean(&event), mean(&analytic));
        assert!(
            me > ma + 100.0,
            "FIFO backlog must inflate the event-backend mean: event {me} vs analytic {ma}"
        );
        // And the backlog grows monotonically: the last probe waited for
        // every probe before it, so it is slower than the first.
        assert!(event[event.len() - 1] > event[0] + 100.0);
    }
}
