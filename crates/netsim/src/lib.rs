//! # sixg-netsim — packet-level network simulator
//!
//! This crate is the workhorse substrate of the `sixg` workspace: a
//! deterministic, seedable simulator of the infrastructure measured in
//! *6G Infrastructures for Edge AI* (Horvath et al., IPPS 2025).
//!
//! It contains two complementary execution models that share one topology:
//!
//! 1. **A typed event calendar** ([`calendar`]) for runs where event order
//!    matters: the live BGP control plane's messages
//!    ([`routing::dynamic`]), and the probe packets of `sixg-measure`'s
//!    packet world, which queue at per-link FIFO servers.
//! 2. **An analytic path sampler** ([`latency`]) for measurement campaigns
//!    — RIPE-Atlas-style pings across thousands of (cell × peer ×
//!    repetition) combinations — where per-sample distributions matter and
//!    event-by-event simulation would be needlessly slow. The sampler uses
//!    the same per-hop building blocks (propagation, transmission, M/G/1
//!    queueing, processing) that the packet world's probes draw per leg.
//!
//! Modules:
//!
//! * [`time`] — nanosecond simulation time;
//! * [`calendar`] — the typed event queue, popped in `(time, insertion
//!   sequence)` order;
//! * [`rng`] + [`dist`] — splittable deterministic randomness and
//!   hand-rolled distributions (normal, lognormal, exponential, Pareto,
//!   Weibull, empirical mixtures);
//! * [`topology`] — nodes (UE, gNB, UPF, routers, IXPs, clouds), links,
//!   autonomous systems, and a builder;
//! * [`routing`] — intra-AS Dijkstra and inter-AS BGP with Gao–Rexford
//!   business relationships and valley-free export (this is what makes the
//!   Vienna→Prague→Bucharest detour of the paper's Figure 4 *emerge*);
//! * [`latency`] — per-hop delay decomposition and end-to-end sampling;
//! * [`radio`] — access-network models: wired, 5G NR (scheduling/HARQ),
//!   5G mmWave PHY (calibrated to Fezeu et al.), and 6G targets;
//! * [`protocols`] — ICMP ping/traceroute and IoT messaging overhead
//!   models (MQTT/AMQP/CoAP, the paper's 5–8 ms);
//! * [`queueing`] — analytic M/M/1 / M/D/1 / M/G/1 results used to verify
//!   the sampled queues;
//! * [`stats`] — Welford statistics, histograms, percentiles;
//! * [`names`] — synthetic IPv4 + reverse-DNS naming so traceroutes render
//!   like the paper's Table I;
//! * [`trace`] — hop-by-hop flow traces and their geographic projection.

pub mod calendar;
pub mod dist;
pub mod latency;
pub mod names;
pub mod packet;
pub mod protocols;
pub mod queueing;
pub mod radio;
pub mod rng;
pub mod routing;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;

pub use packet::Packet;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use topology::{LinkId, NodeId, NodeKind, Topology};
