//! Message-level BGP: a live control plane on its own event calendar.
//!
//! [`super::bgp`] computes Gao–Rexford routes *statically* — one Dijkstra
//! over the valley-free path algebra. That is exact for steady state, but
//! it cannot say anything about what happens *between* steady states: the
//! paper's detour (Section IV-C) is a converged artefact, and studying how
//! the latency field behaves while the control plane reconverges after a
//! link failure requires actually exchanging routing messages.
//!
//! This module runs one small BGP speaker per AS. The [`ControlPlane`]
//! owns a clock and a typed [`Calendar`] of in-flight messages, and
//! [`ControlPlane::run_until`] delivers them in `(time, send order)`
//! order. Each speaker holds an Adj-RIB-In (the last path every neighbour
//! advertised, per destination) and two export registers per destination:
//!
//! * the **up register** — the best route learned from a *customer* (or
//!   the speaker's own origination), selected by `(length, lexicographic
//!   path)`. Gao–Rexford export: customer routes go to **everyone**, so
//!   this register is advertised to providers and peers;
//! * the **down register** — the best route over *all* usable Adj-RIB-In
//!   entries (customer, peer and provider learned). Peer/provider routes
//!   are only exported **down**, so this register is advertised to
//!   customers only.
//!
//! When a register changes, the speaker emits `Update`/`Withdraw` messages
//! to the affected neighbour classes; messages propagate with a constant
//! [`CONTROL_DELAY`] so per-session FIFO order falls out of the calendar's
//! `(time, sequence)` ordering. Sessions exist per adjacent AS pair while
//! at least one inter-AS link backs them ([`sessions_from_topology`]);
//! [`ControlPlane::session_down`]/[`ControlPlane::session_up`] drive
//! reconvergence when the fault schedule flaps a link. In-flight messages
//! of a torn-down session are discarded on delivery via a per-session
//! epoch counter.
//!
//! With no faults the emergent selection ([`ControlPlane::best_route`]) is
//! *identical* — preference class, path and tiebreak — to the static
//! [`AsGraph::as_path_where`] restricted to the live sessions: both
//! minimise `(preference class of the first hop, AS-path length,
//! lexicographic path)` over the valley-free path space, and the
//! two-register split is exactly the distributed fixed point of that
//! algebra. The equivalence is pinned by the property suite in
//! `tests/faults.rs`.
//!
//! Everything iterates `BTreeMap`/`BTreeSet` in key order, so a given
//! schedule of topology events replays bit-identically.

use super::bgp::{AsGraph, AsPath, Relationship, RoutePref};
use crate::calendar::Calendar;
use crate::time::{SimDuration, SimTime};
use crate::topology::{Asn, Topology};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Propagation + processing delay of one control message (10 ms): real
/// eBGP advertisement batching is of this order, and a constant keeps
/// per-session message order FIFO on the calendar.
pub const CONTROL_DELAY: SimDuration = SimDuration(10_000_000);

/// A BGP message in flight on one session.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Msg {
    /// The sender's best exportable route towards `dest`; the path starts
    /// at the sender and ends at `dest`.
    Update { dest: u32, path: Vec<u32> },
    /// The sender no longer has an exportable route towards `dest`.
    Withdraw { dest: u32 },
}

impl Msg {
    fn dest(&self) -> u32 {
        match *self {
            Msg::Update { dest, .. } | Msg::Withdraw { dest } => dest,
        }
    }
}

/// A message on the calendar: sent from `from` to `to` while the session
/// was in `epoch`. The calendar needs an order on its events, but its
/// unique insertion sequence always decides before this one is consulted.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Delivery {
    epoch: u64,
    from: u32,
    to: u32,
    msg: Msg,
}

/// Per-AS speaker state.
#[derive(Debug, Clone, Default)]
struct Speaker {
    /// Adj-RIB-In: `(neighbour, dest) → path` as advertised, starting at
    /// the neighbour. Entries for torn-down sessions are dropped.
    adj_in: BTreeMap<(u32, u32), Vec<u32>>,
    /// Best own/customer-learned route per destination (full path starting
    /// at this speaker). Exported to providers and peers.
    up_reg: BTreeMap<u32, Vec<u32>>,
    /// Best route over all usable Adj-RIB-In entries per destination.
    /// Exported to customers.
    down_reg: BTreeMap<u32, Vec<u32>>,
}

/// The distributed control plane: one speaker per AS, live sessions, the
/// relationship graph the export policy derives from, and the clock and
/// calendar its messages run on.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    graph: AsGraph,
    speakers: BTreeMap<u32, Speaker>,
    /// Live sessions as `(min asn, max asn)`.
    sessions: BTreeSet<(u32, u32)>,
    /// Bumped on every session state change; stale in-flight messages are
    /// discarded on delivery.
    epochs: BTreeMap<(u32, u32), u64>,
    delivered: u64,
    /// The time of the last delivery, or the horizon of the last
    /// [`Self::run_until`] if that is later; zero when
    /// [`Self::converged`] hands the control plane over. Messages sent
    /// now arrive [`CONTROL_DELAY`] after it.
    now: SimTime,
    /// Messages in flight.
    calendar: Calendar<Delivery>,
}

fn ordered(a: u32, b: u32) -> (u32, u32) {
    (a.min(b), a.max(b))
}

/// `(length, lexicographic)` path order — the tiebreak shared with
/// [`AsGraph::as_path_where`].
fn beats(a: &[u32], b: &[u32]) -> bool {
    (a.len(), a) < (b.len(), b)
}

/// Gao–Rexford preference class of a route learned from a neighbour with
/// relationship `rel` (seen from the receiver): customer < peer < provider.
fn pref_class(rel: Relationship) -> u8 {
    match rel {
        Relationship::ProviderOf => 0, // learned from our customer
        Relationship::PeerOf => 1,
        Relationship::CustomerOf => 2, // learned from our provider
    }
}

impl ControlPlane {
    /// A cold control plane at time zero: speakers for every AS in
    /// `graph`, the given sessions live (normalised and restricted to
    /// adjacent pairs), empty RIBs and no message in flight.
    fn new(graph: AsGraph, sessions: &BTreeSet<(u32, u32)>) -> Self {
        let speakers = graph.asns().iter().map(|a| (a.0, Speaker::default())).collect();
        let sessions = sessions
            .iter()
            .map(|&(a, b)| ordered(a, b))
            .filter(|&(a, b)| graph.relationship(Asn(a), Asn(b)).is_some())
            .collect();
        Self {
            graph,
            speakers,
            sessions,
            epochs: BTreeMap::new(),
            delivered: 0,
            now: SimTime::ZERO,
            calendar: Calendar::default(),
        }
    }

    /// Builds a control plane and runs it to quiescence: every origination
    /// has propagated and no message is in flight. This is the dynamic
    /// analogue of calling [`AsGraph::as_path_where`] for all pairs. The
    /// clock is handed back at zero, since a caller replays its own
    /// timeline from the fixed point and convergence is not part of it.
    pub fn converged(graph: &AsGraph, sessions: &BTreeSet<(u32, u32)>) -> Self {
        let mut cp = Self::new(graph.clone(), sessions);
        cp.originate_all();
        cp.drain();
        cp.now = SimTime::ZERO;
        cp
    }

    /// [`Self::converged`] with the sessions implied by a topology: one
    /// per AS pair that has a relationship and at least one live inter-AS
    /// link (the same restriction [`super::PathComputer`] applies).
    pub fn converged_from_topology(topo: &Topology, graph: &AsGraph) -> Self {
        Self::converged(graph, &sessions_from_topology(topo, graph))
    }

    /// Messages delivered so far (dropped in-flight messages excluded).
    pub fn messages_delivered(&self) -> u64 {
        self.delivered
    }

    /// The route `src` currently forwards on towards `dst`: best usable
    /// Adj-RIB-In entry by `(preference class, AS-path length,
    /// lexicographic path)` — the selection rule of
    /// [`AsGraph::as_path_where`]. `None` while no neighbour advertises a
    /// route (unreachable, or mid-reconvergence blackhole).
    pub fn best_route(&self, src: Asn, dst: Asn) -> Option<AsPath> {
        if src == dst {
            return Some(AsPath { asns: vec![src], pref: RoutePref::Local });
        }
        let sp = self.speakers.get(&src.0)?;
        let mut best: Option<(u8, u32, &Vec<u32>)> = None;
        for (n, rel) in self.graph.neighbours(src) {
            if !self.sessions.contains(&ordered(src.0, n.0)) {
                continue;
            }
            let Some(p) = sp.adj_in.get(&(n.0, dst.0)) else { continue };
            if p.contains(&src.0) {
                continue; // loop: the advert rode through us
            }
            let cand = (pref_class(rel), p.len() as u32, p);
            if best.as_ref().is_none_or(|b| cand < *b) {
                best = Some(cand);
            }
        }
        let (class, _, path) = best?;
        let mut asns = Vec::with_capacity(path.len() + 1);
        asns.push(src);
        asns.extend(path.iter().map(|&a| Asn(a)));
        let pref = match class {
            0 => RoutePref::Customer,
            1 => RoutePref::Peer,
            _ => RoutePref::Provider,
        };
        Some(AsPath { asns, pref })
    }

    /// Every usable Adj-RIB-In entry of `x` as a full AS path (`x` first,
    /// destination last) — the surface the valley-freeness property suite
    /// audits.
    pub fn rib(&self, x: Asn) -> Vec<Vec<Asn>> {
        let Some(sp) = self.speakers.get(&x.0) else { return Vec::new() };
        sp.adj_in
            .iter()
            .filter(|(&(n, _), p)| self.sessions.contains(&ordered(x.0, n)) && !p.contains(&x.0))
            .map(|(_, p)| {
                let mut full = Vec::with_capacity(p.len() + 1);
                full.push(x);
                full.extend(p.iter().map(|&a| Asn(a)));
                full
            })
            .collect()
    }

    /// Delivers every message due at or before `t`, in `(time, send
    /// order)` order, then moves the clock to `t` if it is behind.
    pub fn run_until(&mut self, t: SimTime) {
        self.deliver_until(t);
        self.now = self.now.max(t);
    }

    /// Tears down the session between `a` and `b` (if live) at the current
    /// time: both sides drop the neighbour's Adj-RIB-In entries, reselect,
    /// and propagate withdrawals or replacement updates. In-flight
    /// messages on the session are discarded at delivery time.
    pub fn session_down(&mut self, a: Asn, b: Asn) {
        let key = ordered(a.0, b.0);
        if !self.sessions.remove(&key) {
            return;
        }
        *self.epochs.entry(key).or_insert(0) += 1;
        let mut dirty: Vec<(u32, u32)> = Vec::new();
        for (me, other) in [(a.0, b.0), (b.0, a.0)] {
            let sp = self.speakers.get_mut(&me).expect("speaker exists");
            let dests: Vec<u32> =
                sp.adj_in.range((other, 0)..=(other, u32::MAX)).map(|(&(_, d), _)| d).collect();
            for d in dests {
                sp.adj_in.remove(&(other, d));
                dirty.push((me, d));
            }
        }
        for (me, d) in dirty {
            self.recompute_dest(me, d);
        }
    }

    /// Brings the session between `a` and `b` up at the current time
    /// (no-op unless the pair has a relationship): both sides re-advertise
    /// their full exportable table to the other, as real BGP does on
    /// session establishment.
    pub fn session_up(&mut self, a: Asn, b: Asn) {
        if self.graph.relationship(a, b).is_none() {
            return;
        }
        let key = ordered(a.0, b.0);
        if !self.sessions.insert(key) {
            return;
        }
        *self.epochs.entry(key).or_insert(0) += 1;
        let epoch = self.epochs[&key];
        let at = self.now + CONTROL_DELAY;
        for (from, to) in [(a.0, b.0), (b.0, a.0)] {
            let rel = self.graph.relationship(Asn(from), Asn(to)).expect("adjacent");
            let sp = &self.speakers[&from];
            let reg = match rel {
                Relationship::ProviderOf => &sp.down_reg, // `to` is our customer
                Relationship::PeerOf | Relationship::CustomerOf => &sp.up_reg,
            };
            for (dest, path) in reg {
                let msg = Msg::Update { dest: *dest, path: path.clone() };
                self.calendar.push(at, Delivery { epoch, from, to, msg });
            }
        }
    }

    /// Makes every speaker originate its own AS as a destination.
    fn originate_all(&mut self) {
        let asns: Vec<u32> = self.speakers.keys().copied().collect();
        for x in asns {
            self.recompute_dest(x, x);
        }
    }

    /// Delivers messages until none is in flight. The clock stays at the
    /// last delivery, so messages sent afterwards still fit its range.
    fn drain(&mut self) {
        self.deliver_until(SimTime(u64::MAX));
    }

    fn deliver_until(&mut self, t: SimTime) {
        while let Some((at, delivery)) = self.calendar.pop_due(t) {
            self.now = at;
            self.deliver(delivery);
        }
    }

    fn epoch(&self, key: (u32, u32)) -> u64 {
        self.epochs.get(&key).copied().unwrap_or(0)
    }

    fn deliver(&mut self, Delivery { epoch, from, to, msg }: Delivery) {
        let key = ordered(from, to);
        if !self.sessions.contains(&key) || self.epoch(key) != epoch {
            return; // session flapped while the message was in flight
        }
        self.delivered += 1;
        let dest = msg.dest();
        let sp = self.speakers.get_mut(&to).expect("speaker exists");
        let changed = match msg {
            Msg::Update { dest, path } => match sp.adj_in.entry((from, dest)) {
                Entry::Occupied(mut o) => {
                    if *o.get() == path {
                        false
                    } else {
                        o.insert(path);
                        true
                    }
                }
                Entry::Vacant(v) => {
                    v.insert(path);
                    true
                }
            },
            Msg::Withdraw { dest } => sp.adj_in.remove(&(from, dest)).is_some(),
        };
        if changed {
            self.recompute_dest(to, dest);
        }
    }

    /// Recomputes `x`'s two registers for `dest` and advertises any change
    /// to the neighbour classes the export policy allows.
    fn recompute_dest(&mut self, x: u32, dest: u32) {
        let nbrs: Vec<(u32, Relationship)> = self
            .graph
            .neighbours(Asn(x))
            .into_iter()
            .filter(|(n, _)| self.sessions.contains(&ordered(x, n.0)))
            .map(|(n, r)| (n.0, r))
            .collect();

        let own = (x == dest).then(|| vec![x]);
        let mut up = own.clone();
        let mut down = own;
        {
            let sp = &self.speakers[&x];
            for &(n, rel) in &nbrs {
                let Some(p) = sp.adj_in.get(&(n, dest)) else { continue };
                if p.contains(&x) {
                    continue;
                }
                let mut cand = Vec::with_capacity(p.len() + 1);
                cand.push(x);
                cand.extend_from_slice(p);
                if rel == Relationship::ProviderOf && up.as_ref().is_none_or(|c| beats(&cand, c)) {
                    up = Some(cand.clone());
                }
                if down.as_ref().is_none_or(|c| beats(&cand, c)) {
                    down = Some(cand);
                }
            }
        }

        let sp = self.speakers.get_mut(&x).expect("speaker exists");
        let up_changed = sp.up_reg.get(&dest) != up.as_ref();
        if up_changed {
            match &up {
                Some(p) => sp.up_reg.insert(dest, p.clone()),
                None => sp.up_reg.remove(&dest),
            };
        }
        let down_changed = sp.down_reg.get(&dest) != down.as_ref();
        if down_changed {
            match &down {
                Some(p) => sp.down_reg.insert(dest, p.clone()),
                None => sp.down_reg.remove(&dest),
            };
        }

        for &(n, rel) in &nbrs {
            let (changed, reg) = match rel {
                // `n` is our customer: it receives the down register.
                Relationship::ProviderOf => (down_changed, &down),
                // Providers and peers receive customer/own routes only.
                Relationship::PeerOf | Relationship::CustomerOf => (up_changed, &up),
            };
            if !changed {
                continue;
            }
            let msg = match reg {
                Some(p) => Msg::Update { dest, path: p.clone() },
                None => Msg::Withdraw { dest },
            };
            let epoch = self.epoch(ordered(x, n));
            self.calendar.push(self.now + CONTROL_DELAY, Delivery { epoch, from: x, to: n, msg });
        }
    }
}

/// Sessions implied by a topology: AS pairs with a declared relationship
/// and at least one live inter-AS link.
pub fn sessions_from_topology(topo: &Topology, graph: &AsGraph) -> BTreeSet<(u32, u32)> {
    topo.inter_as_links()
        .into_iter()
        .map(|l| {
            let link = topo.link(l);
            ordered(topo.node(link.a).asn.0, topo.node(link.b).asn.0)
        })
        .filter(|&(a, b)| graph.relationship(Asn(a), Asn(b)).is_some())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Asn = Asn(1);
    const B: Asn = Asn(2);
    const T1: Asn = Asn(10);
    const T2: Asn = Asn(20);
    const TIER1: Asn = Asn(100);

    /// The bgp.rs fixture: two stubs under separate transits under one
    /// tier-1.
    fn hierarchy() -> AsGraph {
        let mut g = AsGraph::new();
        g.add_transit(T1, A);
        g.add_transit(T2, B);
        g.add_transit(TIER1, T1);
        g.add_transit(TIER1, T2);
        g
    }

    /// Full-mesh sessions: one per adjacent pair.
    fn all_sessions(g: &AsGraph) -> BTreeSet<(u32, u32)> {
        let mut s = BTreeSet::new();
        for a in g.asns() {
            for (b, _) in g.neighbours(a) {
                s.insert(ordered(a.0, b.0));
            }
        }
        s
    }

    fn assert_matches_static(cp: &ControlPlane, g: &AsGraph, sessions: &BTreeSet<(u32, u32)>) {
        for src in g.asns() {
            for dst in g.asns() {
                let dynamic = cp.best_route(src, dst);
                let fixed = g.as_path_where(src, dst, |a, b| sessions.contains(&ordered(a.0, b.0)));
                assert_eq!(dynamic, fixed, "{src}→{dst}");
            }
        }
    }

    #[test]
    fn converged_selection_equals_static_bgp() {
        let g = hierarchy();
        let sessions = all_sessions(&g);
        let cp = ControlPlane::converged(&g, &sessions);
        assert_matches_static(&cp, &g, &sessions);
        assert!(cp.messages_delivered() > 0, "convergence exchanged messages");
    }

    #[test]
    fn converged_selection_equals_static_with_peering() {
        let mut g = hierarchy();
        g.add_peering(A, B);
        let sessions = all_sessions(&g);
        let cp = ControlPlane::converged(&g, &sessions);
        let p = cp.best_route(A, B).unwrap();
        assert_eq!(p.asns, vec![A, B]);
        assert_eq!(p.pref, RoutePref::Peer);
        assert_matches_static(&cp, &g, &sessions);
    }

    #[test]
    fn missing_session_suppresses_linkless_relationship() {
        // Policy declares the A–B peering but no session backs it: the
        // speakers must fall back to the transit hierarchy, exactly like
        // as_path_where with the physical-adjacency filter.
        let mut g = hierarchy();
        g.add_peering(A, B);
        let mut sessions = all_sessions(&g);
        sessions.remove(&ordered(A.0, B.0));
        let cp = ControlPlane::converged(&g, &sessions);
        let p = cp.best_route(A, B).unwrap();
        assert_eq!(p.asns, vec![A, T1, TIER1, T2, B]);
        assert_eq!(p.pref, RoutePref::Provider);
        assert_matches_static(&cp, &g, &sessions);
    }

    #[test]
    fn session_down_reconverges_to_reduced_fixed_point() {
        let g = hierarchy();
        let sessions = all_sessions(&g);
        let mut cp = ControlPlane::converged(&g, &sessions);
        cp.session_down(T1, TIER1);
        cp.drain();

        // A is now partitioned from everything beyond T1.
        assert!(cp.best_route(A, B).is_none());
        assert!(cp.best_route(B, A).is_none());
        let mut reduced = sessions.clone();
        reduced.remove(&ordered(T1.0, TIER1.0));
        assert_matches_static(&cp, &g, &reduced);
    }

    #[test]
    fn session_up_restores_the_original_fixed_point() {
        let g = hierarchy();
        let sessions = all_sessions(&g);
        let mut cp = ControlPlane::converged(&g, &sessions);
        cp.session_down(T1, TIER1);
        cp.drain();
        cp.session_up(T1, TIER1);
        cp.drain();
        assert_matches_static(&cp, &g, &sessions);
    }

    #[test]
    fn mid_flight_messages_of_flapped_sessions_are_discarded() {
        // Tear the session down *while* convergence traffic is in flight:
        // the stale messages must not resurrect withdrawn state.
        let g = hierarchy();
        let sessions = all_sessions(&g);
        let mut cp = ControlPlane::new(g.clone(), &sessions);
        cp.originate_all();
        // One delivery round only, then flap.
        cp.run_until(SimTime::ZERO + CONTROL_DELAY);
        cp.session_down(T1, TIER1);
        cp.drain();
        let mut reduced = sessions.clone();
        reduced.remove(&ordered(T1.0, TIER1.0));
        assert_matches_static(&cp, &g, &reduced);
    }

    #[test]
    fn every_rib_entry_is_valley_free() {
        let mut g = hierarchy();
        g.add_peering(T1, T2);
        g.add_peering(A, B);
        let sessions = all_sessions(&g);
        let cp = ControlPlane::converged(&g, &sessions);
        for x in g.asns() {
            for path in cp.rib(x) {
                assert!(g.is_valley_free(&path), "{x}: {path:?}");
            }
        }
    }

    #[test]
    fn customer_routes_win_over_peer_routes_dynamically() {
        // bgp.rs's customer_routes_preferred_over_peer, emergent.
        let mut g = AsGraph::new();
        let x = Asn(7);
        g.add_transit(T1, A);
        g.add_transit(A, x);
        g.add_peering(T1, T2);
        g.add_transit(T2, x);
        let sessions = all_sessions(&g);
        let cp = ControlPlane::converged(&g, &sessions);
        let p = cp.best_route(T1, x).unwrap();
        assert_eq!(p.pref, RoutePref::Customer);
        assert_eq!(p.asns, vec![T1, A, x]);
        assert_matches_static(&cp, &g, &sessions);
    }

    #[test]
    fn convergence_is_deterministic() {
        let g = hierarchy();
        let sessions = all_sessions(&g);
        let a = ControlPlane::converged(&g, &sessions);
        let b = ControlPlane::converged(&g, &sessions);
        assert_eq!(a.messages_delivered(), b.messages_delivered());
        for src in g.asns() {
            for dst in g.asns() {
                assert_eq!(a.best_route(src, dst), b.best_route(src, dst));
            }
        }
    }
}
