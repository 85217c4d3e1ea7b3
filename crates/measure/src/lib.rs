//! # sixg-measure — RIPE-Atlas-style measurement campaigns
//!
//! This crate reproduces Section IV of the paper: a mobile 5G node
//! traverses a 1 km grid over Klagenfurt, measuring round-trip latency to
//! a university anchor and eight fixed peer nodes, aggregated per cell.
//!
//! * [`campaign`] — the mobile measurement campaign (Figures 2–3) and the
//!   Table-I traceroute;
//! * [`aggregate`] — per-cell statistics with the paper's "< 10 samples ⇒
//!   0.0" marker rule;
//! * [`wired`] — the wired/static baseline (the "factor of seven"
//!   comparison and the Exoscale 7–12 ms reference);
//! * [`report`] — ASCII heatmaps (Figures 2–3 as tables), CSV and JSON
//!   export;
//! * [`parallel`] — multi-threaded execution across (pass, cell) shards and
//!   sweep seeds on the rayon pool, bitwise-identical to sequential runs
//!   for every pool size;
//! * [`exec`] — the unified execution facade: one typed [`exec::ExecRequest`]
//!   validated up front, one [`exec::execute`] entry point dispatching to
//!   the analytic / event / faulted / checkpointed runners, plus the
//!   compiled-[`Scenario`] cache the `sixg-serve` daemon keeps hot;
//!   [`exec::run_field`] runs a compiled scenario on the pool, and
//!   [`exec::run_field_sequential`] is its one sequential oracle;
//! * [`event_backend`] — the packet-level discrete-event execution
//!   backend: the same shard list and stream-keying discipline, but every
//!   sample is a probe packet through per-hop FIFO queues (congestion is
//!   emergent, not sampled), cross-validated against the analytic path;
//! * [`faults`] — fault-bearing campaigns: the spec's link fail/recover
//!   schedule applied mid-campaign over the message-level BGP speakers of
//!   [`sixg_netsim::routing::dynamic`], so probes launched during a flap
//!   measure real convergence transients (detour shifts, blackholes);
//! * [`hvt`] — hierarchical topology-preserving super-cell aggregation:
//!   mega-grid fields compress into a two-level tile/super-cell hierarchy
//!   (quantized by mean band, exceedance and position) so continental-scale
//!   run reports stay navigable instead of enumerating 10⁶ cells;
//! * [`validate`] — field-level agreement metrics (RMSE, max deviation,
//!   extrema rank agreement) between a campaign and its targets;
//! * [`sweep`] — the declarative parameter-sweep subsystem: a
//!   [`sweep::SweepSpec`] (base spec + typed axes) whose cross product
//!   compiles into an order-deterministic campaign matrix; in memory, runs
//!   that differ only in cadence share their draws, and per-variant
//!   reports stream in run order;
//! * [`store`] — checkpointed sweep execution: completed per-variant
//!   accumulators spill to a content-addressed on-disk store with a
//!   `(run, pass, cell)` resume cursor, so killed mega-sweeps (beyond the
//!   in-memory variant cap) resume bitwise-identically, and disjoint
//!   shard stores merge back into the exact single-machine report;
//! * [`wire`] — the length-framed wire codec shared by the `sixg-serve`
//!   daemon and the dispatch coordinator: frame kinds (REQUEST / VARIANT /
//!   REPORT / ERROR / STORE), the named-blob [`wire::StoreBundle`]
//!   container that carries checkpoint-store state over STORE frames, and
//!   the transient-vs-fatal I/O error taxonomy dispatch retries on;
//! * [`dispatch`] — the fault-tolerant distributed sweep coordinator: the
//!   run range splits into more shards than workers, each shard runs as a
//!   checkpointed request on a `sixg-serve` worker that streams its store
//!   state back over STORE frames, and a dead worker's shard is reseeded
//!   onto a live one from the last streamed cursor — the folded report is
//!   bitwise-identical to a single-machine sweep;
//! * [`spec`] — the declarative scenario subsystem: a serde-backed
//!   [`spec::ScenarioSpec`] (JSON, loadable from a file) describing a
//!   campaign end to end, validated with path-anchored errors;
//! * [`scenario`] — the generic [`scenario::Scenario`] every spec compiles
//!   into, and the dynamic [`scenario::TargetField`];
//! * [`klagenfurt`] — the measured site of Section IV (operator, transit
//!   chain via Vienna/Prague/Bucharest, local ISP, campus anchor) as a
//!   thin wrapper over `specs/klagenfurt.json` and its transit-flap
//!   variant `specs/klagenfurt_flap.json` (bitwise pinned by the golden
//!   suite);
//! * [`skopje`] — a second, *projected* scenario at the partner site
//!   (the paper's future-work promise to expand the geographic scope),
//!   wrapper over `specs/skopje.json`;
//! * [`megacity`] — a dense 10 × 10 synthetic sector with a local-peering
//!   topology variant, wrapper over `specs/megacity.json`;
//! * [`continental`] — the 1000 × 1000 wide-key mega-grid of the E25
//!   throughput gate, wrapper over `specs/continental.json`.
//!
//! Each committed site is its spec file alone; the site modules parse and
//! compile it.

pub mod aggregate;
pub mod campaign;
pub mod continental;
pub mod dispatch;
pub mod event_backend;
pub mod exec;
pub mod faults;
pub mod hvt;
pub mod klagenfurt;
pub mod megacity;
pub mod parallel;
pub mod report;
pub mod scenario;
pub mod skopje;
pub mod spec;
pub mod store;
pub mod sweep;
pub mod validate;
pub mod wire;
pub mod wired;

pub use aggregate::{CellField, CellStats, FieldSummary};
pub use campaign::{CampaignConfig, MobileCampaign};
pub use dispatch::{
    dispatch_sweep, run_streamed_shard, DispatchConfig, DispatchError, DispatchRun, DispatchStats,
};
pub use event_backend::EventCampaign;
pub use exec::{
    execute, run_field, scenario_content_hash, ExecAction, ExecReport, ExecRequest, Executor,
    RunOutput, RunReport, ScenarioCache, ShardSel,
};
pub use faults::FaultCampaign;
pub use hvt::{HvtConfig, HvtReport};
pub use klagenfurt::KlagenfurtScenario;
pub use scenario::{Scenario, TargetField};
pub use spec::{ErrorCode, ExecBackend, ScenarioSpec, SpecError};
pub use store::{
    merge_stores, run_checkpointed, run_checkpointed_observed, shard_run_range, sweep_content_hash,
    CheckpointConfig, CheckpointError, CheckpointOutcome, CheckpointStore, StoreError, StoreEvent,
    StoreMeta,
};
pub use sweep::{Sweep, SweepReport, SweepRun, SweepSpec};
pub use wired::WiredCampaign;
