//! The packet-level discrete-event campaign backend — the simulator's one
//! packet world.
//!
//! The analytic backend ([`crate::campaign::MobileCampaign`]) draws each
//! round-trip latency from closed-form per-hop delay models. This module
//! executes the *same campaign* — same [`Shard`] work list, same
//! `(scenario seed, campaign seed, pass, cell, sample)` stream-keying
//! discipline, same per-cell sample counts — but produces every sample by
//! flying a [`PROBE_BYTES`] probe hop by hop through a packet-level world
//! with its own typed event calendar:
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
//! The calendar is a typed [`Calendar`] of probe slots over a slab of
//! probes whose journeys are drawn at launch, fired in `(time, insertion
//! sequence)` order; a probe arriving at a hop claims that link's server
//! and pushes its next arrival. Nothing is boxed: one worker-local world —
//! servers, legs, probes and calendar — is reset per shard and keeps its
//! capacity, so the steady-state loop makes no allocator call.
//!
//! A shard that the spec's fault timeline touches ([`crate::faults`] hands
//! it a `FaultWindow`) routes each probe over the source AS's RIB at
//! launch time. The window's BGP control plane runs its messages on a
//! calendar of its own, of the same type, which the probe loop runs to
//! each launch before the probe's; every other shard — all of them in a
//! fault-free spec — routes over the scenario's compiled static table,
//! looked up once per shard.
//!
//! Determinism: each probe's stochastic quantities are drawn from its own
//! per-sample stream (phase label `"campaign-event"`) at launch, and each
//! shard starts from a freshly reset world. Shards can therefore run on
//! any thread in any order; the shared plain-run skeleton of
//! [`crate::parallel`] accumulates each cell's samples in work-list order,
//! making parallel runs bitwise equal to sequential ones at every pool
//! size.

use crate::campaign::{CampaignConfig, MobileCampaign, Shard};
use crate::faults::FaultWindow;
use crate::scenario::Scenario;
use sixg_netsim::calendar::Calendar;
use sixg_netsim::dist::{Component, DistSpec, Sample};
use sixg_netsim::latency::DelaySampler;
use sixg_netsim::queueing::FifoServer;
use sixg_netsim::radio::AccessModel;
use sixg_netsim::rng::SimRng;
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

/// A probe in flight: its pre-drawn journey (the legs `next..end` of the
/// world's leg buffer still to fly) plus bookkeeping to turn the echo
/// arrival into an RTL sample, which lands in `rtl_ms`.
struct Probe {
    launched: SimTime,
    next: usize,
    end: usize,
    air_ms: f64,
    rtl_ms: Option<f64>,
}

/// The packet world one shard runs in: one FIFO server per link, every
/// launched probe (blackholed probes are never launched) with its legs,
/// and the calendar of next-hop arrivals, each naming its probe's slot.
///
/// One world per worker thread ([`WORLD`]) is reset at each shard's start,
/// so its buffers keep their capacity across shards.
#[derive(Default)]
struct ProbeWorld {
    links: Vec<FifoServer>,
    legs: Vec<Leg>,
    probes: Vec<Probe>,
    calendar: Calendar<usize>,
}

thread_local! {
    /// The worker-local packet world. Borrowed for one shard at a time;
    /// nothing that runs while it is borrowed calls into the thread pool,
    /// so a worker never borrows it twice.
    static WORLD: RefCell<ProbeWorld> = RefCell::new(ProbeWorld::default());
}

impl ProbeWorld {
    /// Empties the world for a shard over `links` links: idle servers, no
    /// probes, an empty calendar. A shard that panicked mid-flight leaves
    /// nothing this does not clear.
    fn reset(&mut self, links: usize) {
        self.links.clear();
        self.links.resize(links, FifoServer::new());
        self.legs.clear();
        self.probes.clear();
        self.calendar.clear();
    }

    /// Launches a probe at `now` over the legs pushed since `first`.
    fn launch(&mut self, now: SimTime, first: usize, air_ms: f64) {
        let end = self.legs.len();
        self.probes.push(Probe { launched: now, next: first, end, air_ms, rtl_ms: None });
        self.advance(self.probes.len() - 1, now);
    }

    /// Advances probe `slot` one leg at `now`: claim the link's FIFO server,
    /// push the next-hop arrival; on the last leg, record the RTL sample.
    fn advance(&mut self, slot: usize, now: SimTime) {
        let probe = &mut self.probes[slot];
        if probe.next == probe.end {
            let wire_ms = now.since(probe.launched).as_millis_f64();
            probe.rtl_ms = Some(wire_ms + probe.air_ms);
            return;
        }
        let leg = self.legs[probe.next];
        probe.next += 1;
        let depart = self.links[leg.link.0 as usize].admit(now, leg.service);
        self.calendar.push(depart + leg.after, slot);
    }

    /// Fires every arrival due at or before `until`, in `(time, insertion
    /// sequence)` order.
    fn run_until(&mut self, until: SimTime) {
        while let Some((at, slot)) = self.calendar.pop_due(until) {
            self.advance(slot, at);
        }
    }
}

/// The event-driven campaign runner over a spec-compiled [`Scenario`].
///
/// Construction compiles the per-link extra-delay distributions once; each
/// [`Self::collect_shard_into`] call then resets the worker's packet world
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

    /// The probe loop: resets the worker's packet world for the shard —
    /// probe packets on the sampling cadence, idle FIFO servers on every
    /// link — and runs its calendar to completion. Before each launch it
    /// runs `window`'s control plane to the launch, if there is a window,
    /// and then the probe calendar; the probe routes over the static table,
    /// or over the source AS's RIB in a window. Blackholed probes produce
    /// no sample, so `out` can be shorter than the shard's cadence count.
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
        // Outside a window every probe of the shard routes over the static
        // table, so each target's route is looked up once.
        let statics: Vec<&[(NodeId, LinkId)]> = match window {
            Some(_) => Vec::new(),
            None => (0..targets.len()).map(|ti| &s.routes[&(shard.cell, ti)].hops[..]).collect(),
        };

        WORLD.with_borrow_mut(|world| {
            world.reset(s.topo.link_count());
            let mut launch = SimTime::ZERO;
            for i in 0..n {
                if let Some(w) = &mut window {
                    w.run_to(launch);
                }
                world.run_until(launch);

                // Every stochastic quantity of probe `i` comes from its own
                // (seed, pass, cell, sample) stream, in one order — ti,
                // per-leg extras/queue/processing, then air — so event
                // interleaving can shift *timing* (FIFO waits) but never
                // which random numbers a probe consumes, whatever route it
                // takes.
                let mut rng = SimRng::for_stream(key.with(i as u64));
                let ti = rng.below(targets.len() as u64) as usize;
                let hops = match &mut window {
                    None => Some(statics[ti]),
                    Some(w) => w.hops(ti),
                };
                if let Some(hops) = hops {
                    let first = world.legs.len();
                    draw_legs(sampler, &self.extras, hops, &mut rng, |leg| world.legs.push(leg));
                    let air_ms = access.sample_rtt_ms(&mut rng);
                    world.launch(launch, first, air_ms);
                }
                launch += interval;
            }
            // Drain the calendar: every launched probe lands.
            world.run_until(SimTime(u64::MAX));

            out.clear();
            out.extend(world.probes.iter().filter_map(|p| p.rtl_ms));
        });
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
