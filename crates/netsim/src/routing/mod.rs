//! Routing: intra-AS shortest path and inter-AS policy routing.
//!
//! * [`spf`] — Dijkstra shortest-path-first over link latency, used inside
//!   a single autonomous system;
//! * [`bgp`] — an AS-level model of BGP with Gao–Rexford business
//!   relationships (customer/provider/peer) and valley-free export. The
//!   paper's central observation — a local request detouring over 2 544 km
//!   and ten hops (Table I / Figure 4) — *emerges* from these policies
//!   when no local peering exists;
//! * [`path`] — the combined router-level path computer used by
//!   everything else (ping, traceroute, campaigns);
//! * [`dynamic`] — the same Gao–Rexford policies as *emergent* behaviour:
//!   one BGP speaker per AS exchanging update/withdraw messages on a
//!   typed event calendar, so link failures trigger real reconvergence
//!   transients instead of an instant new fixed point.

pub mod bgp;
pub mod dynamic;
pub mod path;
pub mod spf;

pub use bgp::{AsGraph, Relationship};
pub use dynamic::ControlPlane;
pub use path::{PathComputer, RoutedPath};
pub use spf::shortest_path;
