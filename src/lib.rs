//! # sixg — analytical 6G edge-AI infrastructure simulator
//!
//! Facade crate re-exporting the whole workspace, which reproduces
//! *6G Infrastructures for Edge AI: An Analytical Perspective*
//! (Horvath et al., IPPS 2025) as a runnable Rust system.
//!
//! The sixty-second tour — build the measured Klagenfurt scenario, run a
//! campaign, and check the paper's headline gap:
//!
//! ```
//! use sixg::measure::klagenfurt::KlagenfurtScenario;
//! use sixg::measure::campaign::{CampaignConfig, MobileCampaign};
//! use sixg::measure::exec::run_field;
//! use sixg::measure::ExecBackend;
//! use sixg::core::gap::GapReport;
//! use sixg::core::requirements::campaign_reference_requirement;
//!
//! let scenario = KlagenfurtScenario::paper(42);
//! let field = run_field(&scenario, CampaignConfig::default(), ExecBackend::Analytic);
//! let gap = GapReport::analyse(&field, &campaign_reference_requirement());
//!
//! // The paper: measured RTL exceeds the 20 ms requirement by ≈270 %.
//! assert!(gap.exceedance_pct > 200.0);
//! assert_eq!(gap.compliant_cells, 0);
//!
//! // Table I: a local request takes ten hops.
//! let trace = MobileCampaign::new(&scenario, CampaignConfig::default())
//!     .table1_traceroute(0);
//! assert_eq!(trace.hop_count(), 10);
//! ```
//!
//! And the recommendation engines (Section V) applied to the same world:
//!
//! ```
//! use sixg::core::recommend::peering::{evaluate, PeeringDepth};
//!
//! let report = evaluate(42, PeeringDepth::LocalIsp);
//! assert_eq!(report.before.hops, 10);
//! assert!(report.after.hops <= 3);
//! assert!(report.after.wire_rtt_ms < report.before.wire_rtt_ms / 5.0);
//! ```
//!
//! See the repository README for the architecture overview and DESIGN.md /
//! EXPERIMENTS.md for the experiment index and paper-vs-measured record.

pub use sixg_core as core;
pub use sixg_geo as geo;
pub use sixg_measure as measure;
pub use sixg_netsim as netsim;
pub use sixg_workloads as workloads;

/// The most commonly used types, for `use sixg::prelude::*`.
pub mod prelude {
    pub use sixg_core::gap::GapReport;
    pub use sixg_core::orchestrator::StrategyReport;
    pub use sixg_core::requirements::{ApplicationClass, RequirementProfile};
    pub use sixg_geo::{CellId, GeoPoint, GridSpec};
    pub use sixg_measure::aggregate::{CellField, CellStats};
    pub use sixg_measure::campaign::{CampaignConfig, MobileCampaign};
    pub use sixg_measure::klagenfurt::KlagenfurtScenario;
    pub use sixg_measure::scenario::{Scenario, TargetField};
    pub use sixg_measure::spec::{ScenarioSpec, SpecError};
    pub use sixg_measure::store::{
        merge_stores, run_checkpointed, CheckpointConfig, CheckpointOutcome, CheckpointStore,
    };
    pub use sixg_measure::sweep::{Sweep, SweepReport, SweepSpec};
    pub use sixg_netsim::radio::{AccessModel, CellEnv, FiveGAccess, SixGAccess, WiredAccess};
    pub use sixg_netsim::rng::{SimRng, StreamKey};
    pub use sixg_netsim::routing::{AsGraph, PathComputer};
    pub use sixg_netsim::topology::{Asn, LinkParams, NodeId, NodeKind, Topology};
    pub use sixg_netsim::{SimDuration, SimTime};
}
