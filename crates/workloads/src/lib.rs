//! # sixg-workloads — edge-AI application models
//!
//! The paper motivates its analysis with a family of latency- and
//! bandwidth-critical applications (Sections I–III) and evaluates against
//! an AR gaming use case (Section IV-A). This crate turns each of them
//! into an executable workload over the `sixg-netsim` substrate:
//!
//! * [`services`] — service graphs and request-chain latency;
//! * [`video`] — the ffmpeg-style bidirectional video stream (GOP frame
//!   generation, frame deadlines at 60 FPS / 16.6 ms);
//! * [`ar_game`] — the AR dodgeball application with its three services
//!   (Video Streaming, Remote Controller, Trajectory) and the 20 ms
//!   round-trip budget of \[15\];
//! * [`vehicles`] — autonomous-vehicle workloads (4 TB/day sensor load,
//!   10 Hz V2X safety beacons);
//! * [`smart_city`] — the adaptive traffic-management scenario (up to
//!   50 000 intersections, Section III-C);
//! * [`industrial`] — smart-factory lines (5 TB/day, tens of thousands of
//!   sensors).
//!
//! The paper's future work (Section VI) names federated learning at the
//! edge; [`federated`] implements it as a synchronous FedAvg workload.

pub mod ar_game;
pub mod federated;
pub mod industrial;
pub mod services;
pub mod smart_city;
pub mod vehicles;
pub mod video;

pub use ar_game::{ArGame, ArGameConfig, ArGameResult};
pub use services::{Service, ServiceChain};
pub use video::{VideoConfig, VideoStream};
