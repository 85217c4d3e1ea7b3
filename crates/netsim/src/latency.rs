//! Per-hop latency decomposition and end-to-end path sampling.
//!
//! Every hop contributes four delay components, mirroring the textbook
//! decomposition the paper's analysis uses:
//!
//! 1. **Propagation** — geodesic link length × fibre-route factor at
//!    ~5 µs/km (deterministic);
//! 2. **Transmission** — packet size / link bandwidth (deterministic);
//! 3. **Queueing** — sampled exponential with the M/G/1 mean wait for the
//!    link's background utilisation (stochastic);
//! 4. **Processing** — lognormal around the node-class base figure
//!    (stochastic).
//!
//! The *expected* values of the same components provide the routing metric
//! ([`expected_link_ms`]) so that paths are chosen by the delays packets
//! will actually experience.

use crate::dist::{LogNormal, Sample};
use crate::packet::MEAN_PACKET_BYTES;
use crate::queueing::{mg1_wait, Load};
use crate::rng::SimRng;
use crate::time::SimDuration;
use crate::topology::{LinkId, NodeId, Topology};
use sixg_geo::coord::C_FIBRE_KM_S;
use sixg_geo::route::FIBRE_ROUTE_FACTOR;

/// Squared coefficient of variation of per-packet service time used for
/// the M/G/1 queueing model (mixed packet sizes ⇒ slightly sub-exponential).
pub const SERVICE_CS2: f64 = 0.8;

/// Coefficient of variation of node processing time.
pub const PROCESSING_CV: f64 = 0.35;

/// Deterministic propagation delay of a link, milliseconds.
pub fn propagation_ms(topo: &Topology, link: LinkId) -> f64 {
    topo.link_km(link) * FIBRE_ROUTE_FACTOR / C_FIBRE_KM_S * 1e3
}

/// Deterministic transmission delay for `size_bytes` on a link, ms.
pub fn transmission_ms(topo: &Topology, link: LinkId, size_bytes: u32) -> f64 {
    serialisation_ms(size_bytes, topo.link(link).params.bandwidth_bps)
}

/// `size_bytes` serialised at `bandwidth_bps`, ms.
fn serialisation_ms(size_bytes: u32, bandwidth_bps: f64) -> f64 {
    size_bytes as f64 * 8.0 / bandwidth_bps * 1e3
}

/// The link's M/G/1 queueing [`Load`] given its background utilisation.
fn link_load(topo: &Topology, link: LinkId) -> Load {
    let p = topo.link(link).params;
    // Service rate in packets/s for MTU-sized cross traffic.
    let mu = p.bandwidth_bps / (MEAN_PACKET_BYTES * 8.0);
    Load::new(p.utilisation * mu, mu)
}

/// Mean queueing wait on a link, milliseconds.
pub fn mean_queue_ms(topo: &Topology, link: LinkId) -> f64 {
    mg1_wait(link_load(topo, link), SERVICE_CS2) * 1e3
}

/// Expected one-way latency of traversing `link` and being processed by
/// the node entered (`into`), milliseconds. This is the IGP metric.
pub fn expected_link_ms(topo: &Topology, link: LinkId, into: NodeId) -> f64 {
    let p = topo.link(link).params;
    propagation_ms(topo, link)
        + transmission_ms(topo, link, MEAN_PACKET_BYTES as u32)
        + mean_queue_ms(topo, link)
        + p.extra_ms
        + topo.node(into).kind.base_processing_ms()
}

/// The constant parts of one link's delay model, fixed once the topology
/// is built.
#[derive(Debug, Clone, Copy)]
struct LinkTerms {
    /// [`propagation_ms`].
    prop_ms: f64,
    /// Capacity, for the size-dependent transmission term.
    bandwidth_bps: f64,
    /// Fixed extra latency (`LinkParams::extra_ms`).
    extra_ms: f64,
    /// [`mean_queue_ms`].
    queue_ms: f64,
}

impl LinkTerms {
    fn of(topo: &Topology, link: LinkId) -> Self {
        let p = topo.link(link).params;
        Self {
            prop_ms: propagation_ms(topo, link),
            bandwidth_bps: p.bandwidth_bps,
            extra_ms: p.extra_ms,
            queue_ms: mean_queue_ms(topo, link),
        }
    }

    /// Background queueing wait. Waiting time in M/G/1 is approximately
    /// exponential at moderate load; sampling it exponential with the P-K
    /// mean is the standard fast abstraction.
    fn sample_queue_ms(&self, rng: &mut SimRng) -> f64 {
        if self.queue_ms > 0.0 {
            -(1.0 - rng.unit()).ln() * self.queue_ms
        } else {
            0.0
        }
    }
}

/// Stochastic sampler for path delays.
///
/// Construction derives every per-link constant (propagation, bandwidth,
/// extra, M/G/1 queue mean) and every node's processing [`LogNormal`]
/// once, so a hop costs two draws and a few additions. Each hop keeps the
/// floating-point order and the RNG draw order of the per-call formula,
/// so the table changes no sampled bit.
#[derive(Debug, Clone)]
pub struct DelaySampler<'a> {
    topo: &'a Topology,
    /// Indexed by `LinkId`; `None` for a removed link.
    links: Vec<Option<LinkTerms>>,
    /// Processing-time distribution of the node entered, indexed by `NodeId`.
    processing: Vec<LogNormal>,
}

impl<'a> DelaySampler<'a> {
    /// Creates a sampler over a topology.
    pub fn new(topo: &'a Topology) -> Self {
        let links = topo
            .links()
            .iter()
            .map(|l| (!topo.link_removed(l.id)).then(|| LinkTerms::of(topo, l.id)))
            .collect();
        let processing = topo
            .nodes()
            .iter()
            .map(|n| LogNormal::from_mean_cv(n.kind.base_processing_ms(), PROCESSING_CV))
            .collect();
        Self { topo, links, processing }
    }

    fn terms(&self, link: LinkId) -> LinkTerms {
        // A removed link has no entry; deriving it on the spot panics
        // exactly as the per-call formula does.
        self.links[link.0 as usize].unwrap_or_else(|| LinkTerms::of(self.topo, link))
    }

    /// Samples the one-way delay of a single hop (traverse `link`, be
    /// processed by `into`), milliseconds.
    pub fn hop_ms(&self, link: LinkId, into: NodeId, size_bytes: u32, rng: &mut SimRng) -> f64 {
        let t = self.terms(link);
        let fixed = t.prop_ms + serialisation_ms(size_bytes, t.bandwidth_bps) + t.extra_ms;
        let queue = t.sample_queue_ms(rng);
        let proc = self.processing[into.0 as usize].sample(rng);
        fixed + queue + proc
    }

    /// Samples one hop of a packet-level world, where the link's FIFO
    /// server supplies the transmission delay: returns `(service_ms,
    /// after_ms)`, the serialisation time of `size_bytes` on `link` and
    /// the delay from leaving the server to arriving at the next hop.
    /// `extra_ms` is the link's extra delay as the caller drew it; this
    /// call then draws queue and processing, and `after_ms` sums
    /// propagation, extra, queue and processing in that order.
    pub fn leg_ms(
        &self,
        link: LinkId,
        into: NodeId,
        size_bytes: u32,
        extra_ms: f64,
        rng: &mut SimRng,
    ) -> (f64, f64) {
        let t = self.terms(link);
        let service = serialisation_ms(size_bytes, t.bandwidth_bps);
        let queue = t.sample_queue_ms(rng);
        let proc = self.processing[into.0 as usize].sample(rng);
        (service, t.prop_ms + extra_ms + queue + proc)
    }

    /// Samples the one-way delay along a path (list of `(node_entered,
    /// via_link)` hops), milliseconds.
    pub fn one_way_ms(&self, hops: &[(NodeId, LinkId)], size_bytes: u32, rng: &mut SimRng) -> f64 {
        hops.iter().map(|&(into, link)| self.hop_ms(link, into, size_bytes, rng)).sum()
    }

    /// Samples a full round trip (forward and reverse sampled
    /// independently over the same hops), milliseconds.
    pub fn rtt_ms(&self, hops: &[(NodeId, LinkId)], size_bytes: u32, rng: &mut SimRng) -> f64 {
        self.one_way_ms(hops, size_bytes, rng) + self.one_way_ms(hops, size_bytes, rng)
    }

    /// Samples the one-way delay as a [`SimDuration`].
    pub fn one_way(
        &self,
        hops: &[(NodeId, LinkId)],
        size_bytes: u32,
        rng: &mut SimRng,
    ) -> SimDuration {
        SimDuration::from_millis_f64(self.one_way_ms(hops, size_bytes, rng))
    }

    /// Expected (mean) one-way latency along a path, milliseconds.
    pub fn expected_one_way_ms(&self, hops: &[(NodeId, LinkId)]) -> f64 {
        hops.iter().map(|&(into, link)| expected_link_ms(self.topo, link, into)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Welford;
    use crate::topology::{Asn, LinkParams, NodeKind};
    use sixg_geo::GeoPoint;

    fn two_node() -> (Topology, NodeId, NodeId, LinkId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a", GeoPoint::new(46.6, 14.3), Asn(1));
        let b = t.add_node(NodeKind::Server, "b", GeoPoint::new(48.2, 16.4), Asn(1));
        let l = t.add_link(a, b, LinkParams::backbone());
        (t, a, b, l)
    }

    #[test]
    fn propagation_matches_distance() {
        let (t, _, _, l) = two_node();
        let km = t.link_km(l);
        let ms = propagation_ms(&t, l);
        // ~5 µs/km with the route factor.
        let expect = km * 1.05 / C_FIBRE_KM_S * 1e3;
        assert!((ms - expect).abs() < 1e-9);
        assert!(ms > 1.0 && ms < 2.0, "Klagenfurt-Vienna leg ≈1.2ms, got {ms}");
    }

    #[test]
    fn transmission_scales_with_size() {
        let (t, _, _, l) = two_node();
        let t1 = transmission_ms(&t, l, 1250);
        let t2 = transmission_ms(&t, l, 2500);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
    }

    #[test]
    fn sampled_mean_tracks_expected() {
        let (t, b, _, l) = two_node();
        let sampler = DelaySampler::new(&t);
        let mut rng = SimRng::from_seed(3);
        let mut w = Welford::new();
        for _ in 0..50_000 {
            w.push(sampler.hop_ms(l, b, 1250, &mut rng));
        }
        let expect = expected_link_ms(&t, l, b);
        assert!(
            (w.mean() - expect).abs() / expect < 0.03,
            "sampled {} vs expected {expect}",
            w.mean()
        );
    }

    #[test]
    fn rtt_is_about_twice_one_way() {
        let (t, b, _a, l) = two_node();
        let sampler = DelaySampler::new(&t);
        let hops = vec![(b, l)];
        let mut rng = SimRng::from_seed(4);
        let mut ow = Welford::new();
        let mut rt = Welford::new();
        for _ in 0..20_000 {
            ow.push(sampler.one_way_ms(&hops, 100, &mut rng));
            rt.push(sampler.rtt_ms(&hops, 100, &mut rng));
        }
        assert!((rt.mean() - 2.0 * ow.mean()).abs() / rt.mean() < 0.03);
    }

    #[test]
    fn higher_utilisation_means_higher_delay() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server, "a", GeoPoint::new(46.6, 14.3), Asn(1));
        let b = t.add_node(NodeKind::Server, "b", GeoPoint::new(46.7, 14.4), Asn(1));
        let quiet =
            t.add_link(a, b, LinkParams { bandwidth_bps: 1e9, utilisation: 0.1, extra_ms: 0.0 });
        let busy =
            t.add_link(a, b, LinkParams { bandwidth_bps: 1e9, utilisation: 0.9, extra_ms: 0.0 });
        assert!(mean_queue_ms(&t, busy) > 10.0 * mean_queue_ms(&t, quiet));
        assert!(expected_link_ms(&t, busy, b) > expected_link_ms(&t, quiet, b));
    }

    /// A topology with every kind of link term: long and short links,
    /// an idle link (zero queue mean, so no queue draw), fractional extras
    /// and bandwidths whose sums round differently when reassociated, and
    /// nodes of several processing classes.
    fn mesh() -> Topology {
        let mut t = Topology::new();
        let ue = t.add_node(NodeKind::UserEquipment, "ue", GeoPoint::new(46.62, 14.31), Asn(1));
        let gnb = t.add_node(NodeKind::GnB, "gnb", GeoPoint::new(46.63, 14.30), Asn(1));
        let core = t.add_node(NodeKind::CoreRouter, "core", GeoPoint::new(47.07, 15.44), Asn(1));
        let br = t.add_node(NodeKind::BorderRouter, "br", GeoPoint::new(48.21, 16.37), Asn(2));
        let dc = t.add_node(NodeKind::CloudDc, "dc", GeoPoint::new(50.11, 8.68), Asn(3));
        t.add_link(ue, gnb, LinkParams::access_wired());
        t.add_link(gnb, core, LinkParams::metro());
        t.add_link(core, br, LinkParams::backbone());
        t.add_link(br, dc, LinkParams::transit_loaded());
        t.add_link(core, dc, LinkParams { bandwidth_bps: 4e8, utilisation: 0.0, extra_ms: 1.25 });
        for (i, extra_ms) in [0.1, 0.3, 0.7, 2.9].into_iter().enumerate() {
            let bandwidth_bps = 1e8 * (i + 1) as f64 / 3.0;
            t.add_link(gnb, dc, LinkParams { bandwidth_bps, utilisation: 0.55, extra_ms });
        }
        t
    }

    /// The per-call formula the table replaced: the test oracle.
    fn formula_hop_ms(
        t: &Topology,
        link: LinkId,
        into: NodeId,
        size: u32,
        rng: &mut SimRng,
    ) -> f64 {
        let fixed =
            propagation_ms(t, link) + transmission_ms(t, link, size) + t.link(link).params.extra_ms;
        let qmean = mean_queue_ms(t, link);
        let queue = if qmean > 0.0 { -(1.0 - rng.unit()).ln() * qmean } else { 0.0 };
        let proc_mean = t.node(into).kind.base_processing_ms();
        fixed + queue + LogNormal::from_mean_cv(proc_mean, PROCESSING_CV).sample(rng)
    }

    /// Table-driven `hop_ms` and `leg_ms` reproduce the per-call formula
    /// bit for bit over every (link, into) pair at two packet sizes, with
    /// the draws consumed in the same order from one stream.
    #[test]
    fn table_matches_the_per_call_formula_bitwise() {
        let t = mesh();
        let sampler = DelaySampler::new(&t);
        let mut table_rng = SimRng::from_seed(0x5EED);
        let mut formula_rng = table_rng.clone();
        for size in [64u32, 1500] {
            for link in t.links().iter().map(|l| l.id) {
                for into in t.nodes().iter().map(|n| n.id) {
                    let table = sampler.hop_ms(link, into, size, &mut table_rng);
                    let formula = formula_hop_ms(&t, link, into, size, &mut formula_rng);
                    assert_eq!(table.to_bits(), formula.to_bits(), "hop {link:?} into {into:?}");

                    let extra = 2.0 * table_rng.unit();
                    let (service, after) = sampler.leg_ms(link, into, size, extra, &mut table_rng);
                    let x = 2.0 * formula_rng.unit();
                    let qmean = mean_queue_ms(&t, link);
                    let queue =
                        if qmean > 0.0 { -(1.0 - formula_rng.unit()).ln() * qmean } else { 0.0 };
                    let proc_mean = t.node(into).kind.base_processing_ms();
                    let proc =
                        LogNormal::from_mean_cv(proc_mean, PROCESSING_CV).sample(&mut formula_rng);
                    let expect_after = propagation_ms(&t, link) + x + queue + proc;
                    let expect_service = transmission_ms(&t, link, size);
                    assert_eq!(service.to_bits(), expect_service.to_bits(), "leg {link:?}");
                    assert_eq!(after.to_bits(), expect_after.to_bits(), "leg {link:?}");
                }
            }
        }
    }

    fn with_removed_link() -> (Topology, LinkId, LinkId) {
        let mut t = mesh();
        let (live, removed) = (LinkId(0), LinkId(2));
        t.remove_link(removed);
        (t, live, removed)
    }

    /// A tombstoned link does not stop the sampler being built, and the
    /// live links still sample.
    #[test]
    fn removed_link_does_not_break_construction() {
        let (t, live, _) = with_removed_link();
        let sampler = DelaySampler::new(&t);
        let mut rng = SimRng::from_seed(6);
        assert!(sampler.hop_ms(live, NodeId(1), 64, &mut rng) > 0.0);
    }

    /// Sampling over a removed link panics, as the per-call formula did.
    #[test]
    #[should_panic(expected = "invalid rates")]
    fn hop_over_removed_link_panics() {
        let (t, _, removed) = with_removed_link();
        let sampler = DelaySampler::new(&t);
        sampler.hop_ms(removed, NodeId(3), 64, &mut SimRng::from_seed(6));
    }

    #[test]
    fn empty_path_has_zero_delay() {
        let (t, _, _, _) = two_node();
        let sampler = DelaySampler::new(&t);
        let mut rng = SimRng::from_seed(5);
        assert_eq!(sampler.one_way_ms(&[], 100, &mut rng), 0.0);
        assert_eq!(sampler.expected_one_way_ms(&[]), 0.0);
    }
}
