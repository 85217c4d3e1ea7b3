//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] describes a measurement campaign end to end as plain
//! data — grid geometry and skipped cells, the synthetic density raster,
//! radio calibration targets, the transit-chain topology (named hops with
//! per-link delay distributions via [`sixg_netsim::dist::DistSpec`]), the
//! AS business relationships, the workload mix, and the seed policy. Specs
//! serialise to JSON (`specs/*.json` in the repository root), load back
//! with [`ScenarioSpec::from_json`], and compile into a runnable
//! [`crate::scenario::Scenario`] via [`crate::scenario::Scenario::from_spec`].
//!
//! Adding a city is therefore a *data* problem: write a spec file, run it
//! with `sixg-cli run path/to/spec.json`. The committed Klagenfurt and
//! Skopje scenarios are themselves thin wrappers over spec files, pinned
//! bitwise by the golden suite.
//!
//! Decoding is strict and diagnostic: every error carries the JSON path it
//! occurred at (`$.links[3].extra`), and [`ScenarioSpec::validate`] checks
//! cross-field invariants (link endpoints must name declared hops, skipped
//! cells must not overlap, delays must be non-negative, workload shares
//! must sum to one, …) before any topology is built.

use serde::{Serialize, Value};
use sixg_geo::population::SPARSE_THRESHOLD;
use sixg_geo::CellId;
use sixg_netsim::dist::DistSpec;
use sixg_netsim::names::NameStyle;
use sixg_netsim::topology::NodeKind;
use std::fmt;

/// Machine-readable classification of a [`SpecError`] — the wire protocol
/// and CLI exit-code mapping branch on this, never on message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The payload was not parseable JSON at all.
    InvalidJson,
    /// Structurally malformed: wrong type or missing member at the path.
    Schema,
    /// Well-formed but semantically invalid (range, cross-field invariant).
    Validation,
    /// A request field combination no runner honors (facade-level).
    Conflict,
    /// A filesystem or store failure surfaced through the spec pipeline.
    Io,
}

impl ErrorCode {
    /// The stable wire tag (`"invalid_json"`, `"schema"`, …).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::InvalidJson => "invalid_json",
            ErrorCode::Schema => "schema",
            ErrorCode::Validation => "validation",
            ErrorCode::Conflict => "conflict",
            ErrorCode::Io => "io",
        }
    }

    /// Parses a wire tag back into a code.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "invalid_json" => ErrorCode::InvalidJson,
            "schema" => ErrorCode::Schema,
            "validation" => ErrorCode::Validation,
            "conflict" => ErrorCode::Conflict,
            "io" => ErrorCode::Io,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A spec decoding or validation error, anchored to a JSON path.
#[derive(Debug, Clone, Eq)]
pub struct SpecError {
    /// JSON path of the offending element (`$.hops[2].kind`).
    pub path: String,
    /// What went wrong and, where possible, what would fix it.
    pub message: String,
    /// Machine-readable classification (defaults to
    /// [`ErrorCode::Validation`]; see [`SpecError::coded`]).
    pub code: ErrorCode,
}

/// Two errors are the same error when they anchor the same complaint at
/// the same path; the code is derived classification metadata, so it does
/// not participate (existing equality assertions keep their meaning).
impl PartialEq for SpecError {
    fn eq(&self, other: &Self) -> bool {
        self.path == other.path && self.message == other.message
    }
}

impl SpecError {
    /// Creates an error at a path, classified [`ErrorCode::Validation`].
    pub fn new(path: impl Into<String>, message: impl Into<String>) -> Self {
        Self { path: path.into(), message: message.into(), code: ErrorCode::Validation }
    }

    /// Creates an error at a path with an explicit classification.
    pub fn coded(code: ErrorCode, path: impl Into<String>, message: impl Into<String>) -> Self {
        Self { path: path.into(), message: message.into(), code }
    }

    /// Reclassifies the error.
    pub fn with_code(mut self, code: ErrorCode) -> Self {
        self.code = code;
        self
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}: {}", self.path, self.message)
    }
}

impl std::error::Error for SpecError {}

/// Grid geometry: where the sector sits and how it is cut into cells.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct GridDef {
    /// Latitude of the north-west corner of cell `A1`.
    pub origin_lat: f64,
    /// Longitude of the north-west corner of cell `A1`.
    pub origin_lon: f64,
    /// Number of columns (west→east, labelled `A`, `B`, …, `Z`, `AA`, …).
    pub cols: u32,
    /// Number of rows (north→south, labelled `1`, `2`, …).
    pub rows: u32,
    /// Cell side length, kilometres.
    pub cell_km: f64,
}

/// Synthetic population-density raster parameters (monocentric model plus
/// the traversal-consistency overrides the Klagenfurt scenario applies).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DensityDef {
    /// Column index of the urban core (may be fractional).
    pub core_col: f64,
    /// Row index of the urban core.
    pub core_row: f64,
    /// Peak density at the core, inhabitants per km².
    pub peak: f64,
    /// Exponential decay length, in cells.
    pub decay_cells: f64,
    /// Density floor applied to traversed cells the synthetic profile left
    /// sparse (must clear the 1000 /km² threshold).
    pub dense_fill: f64,
    /// Density ceiling applied to skipped cells the profile left dense.
    pub sparse_fill: f64,
    /// Modulus of the deterministic per-cell jitter added to the fills.
    pub jitter_mod: u64,
}

impl Default for DensityDef {
    fn default() -> Self {
        Self {
            core_col: 2.5,
            core_row: 3.0,
            peak: 4800.0,
            decay_cells: 2.3,
            dense_fill: 1020.0,
            sparse_fill: 720.0,
            jitter_mod: 200,
        }
    }
}

/// Per-cell radio calibration targets.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetDef {
    /// Explicit row-major mean/σ matrices (the published Klagenfurt field).
    /// `0.0` mean marks a non-traversed cell.
    Explicit {
        /// Mean RTL targets, ms, `[row][col]`.
        mean: Vec<Vec<f64>>,
        /// Standard-deviation targets, ms.
        std: Vec<Vec<f64>>,
    },
    /// A projected field model: regional floor plus an urban gradient along
    /// the grid diagonal plus one congested hotspot (the Skopje model).
    Projected {
        /// Latency floor for the region, ms.
        floor_ms: f64,
        /// Gradient amplitude across the grid diagonal, ms.
        gradient_ms: f64,
        /// Hotspot peak on top of the projected mean, ms.
        hotspot_ms: f64,
        /// Hotspot cell label.
        hotspot: String,
        /// σ per ms of load above the floor.
        std_factor: f64,
        /// σ floor, ms.
        std_floor_ms: f64,
    },
}

impl Serialize for TargetDef {
    fn to_value(&self) -> Value {
        match self {
            TargetDef::Explicit { mean, std } => Value::Object(vec![
                ("kind".into(), Value::String("explicit".into())),
                ("mean".into(), mean.to_value()),
                ("std".into(), std.to_value()),
            ]),
            TargetDef::Projected {
                floor_ms,
                gradient_ms,
                hotspot_ms,
                hotspot,
                std_factor,
                std_floor_ms,
            } => Value::Object(vec![
                ("kind".into(), Value::String("projected".into())),
                ("floor_ms".into(), Value::F64(*floor_ms)),
                ("gradient_ms".into(), Value::F64(*gradient_ms)),
                ("hotspot_ms".into(), Value::F64(*hotspot_ms)),
                ("hotspot".into(), Value::String(hotspot.clone())),
                ("std_factor".into(), Value::F64(*std_factor)),
                ("std_floor_ms".into(), Value::F64(*std_floor_ms)),
            ]),
        }
    }
}

/// Radio calibration procedure parameters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CalibrationDef {
    /// Random-stream label of the calibration phase.
    pub label: String,
    /// Wire-path samples drawn per cell during calibration.
    pub samples: u32,
}

impl Default for CalibrationDef {
    fn default() -> Self {
        Self { label: "calibration".into(), samples: 3000 }
    }
}

/// Where a node sits: explicit coordinates or relative to a grid cell.
#[derive(Debug, Clone, PartialEq)]
pub enum PositionDef {
    /// Fixed WGS-84 coordinates.
    Geo {
        /// Latitude, degrees.
        lat: f64,
        /// Longitude, degrees.
        lon: f64,
    },
    /// Relative to a grid cell: the centroid, optionally displaced along a
    /// bearing (an `offset_km` of `0.0` is exactly the centroid).
    Cell {
        /// Cell label (`"E3"`).
        cell: String,
        /// Displacement bearing, degrees clockwise from north.
        bearing_deg: f64,
        /// Displacement distance, km.
        offset_km: f64,
    },
}

impl Serialize for PositionDef {
    fn to_value(&self) -> Value {
        match self {
            PositionDef::Geo { lat, lon } => Value::Object(vec![
                ("lat".into(), Value::F64(*lat)),
                ("lon".into(), Value::F64(*lon)),
            ]),
            PositionDef::Cell { cell, bearing_deg, offset_km } => Value::Object(vec![
                ("cell".into(), Value::String(cell.clone())),
                ("bearing_deg".into(), Value::F64(*bearing_deg)),
                ("offset_km".into(), Value::F64(*offset_km)),
            ]),
        }
    }
}

/// One named infrastructure node of the transit chain.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HopDef {
    /// Unique node name, referenced by links and roles (`"dp-edge-vie"`).
    pub name: String,
    /// Node role, one of the [`NodeKind`] variant names
    /// (`"CoreRouter"`, `"BorderRouter"`, `"Ixp"`, `"Anchor"`, …).
    pub kind: String,
    /// Owning autonomous system number.
    pub asn: u32,
    /// Geographic position.
    pub position: PositionDef,
    /// Pinned IPv4 address (otherwise derived from the org profile).
    pub ip: Option<[u8; 4]>,
    /// Pinned reverse-DNS name (otherwise generated from the org style).
    pub rdns: Option<String>,
}

/// One link of the transit chain, by hop names.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LinkDef {
    /// One endpoint (a declared hop name).
    pub a: String,
    /// Other endpoint.
    pub b: String,
    /// Capacity, bits per second.
    pub bandwidth_bps: f64,
    /// Background utilisation ρ ∈ [0, 1).
    pub utilisation: f64,
    /// Extra fixed-latency distribution (tunnelling, middleboxes). The
    /// analytic sampler uses its mean; event-driven workloads can sample it.
    pub extra: DistSpec,
}

/// One scheduled link fault of the campaign timeline.
///
/// Times are seconds into each pass's traversal clock (the same clock the
/// dwell schedule and probe launches run on). The event backend applies
/// the schedule mid-campaign: the link tombstones at `at_s`, the BGP
/// speakers of [`sixg_netsim::routing::dynamic`] reconverge by exchanging
/// withdraw/update messages, and probes launched during the transient
/// measure the detour shift (or the blackhole) for real. Fault schedules
/// therefore require `"backend": "event"`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FaultDef {
    /// The faulted link as its two endpoint hop names (order-insensitive;
    /// must match a declared `$.links` entry).
    pub link: [String; 2],
    /// Failure time, seconds into each pass.
    pub at_s: f64,
    /// Recovery time, seconds into each pass (absent = stays down).
    pub recover_at_s: Option<f64>,
}

/// Per-AS reverse-DNS organisation profile.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OrgDef {
    /// Autonomous system the profile applies to.
    pub asn: u32,
    /// Registered domain (`"ascus.at"`).
    pub domain: String,
    /// Country code used by some styles.
    pub cc: String,
    /// Naming style, one of the [`NameStyle`] variant names.
    pub style: String,
    /// First two octets of the org's address space.
    pub prefix: [u8; 2],
}

/// One AS business relationship.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AsRelationDef {
    /// `"transit"` (a provides transit to b) or `"peering"`.
    pub kind: String,
    /// Provider AS for transit; either side for peering.
    pub a: u32,
    /// Customer AS for transit; other side for peering.
    pub b: u32,
}

/// How mobile UEs attach: one per traversed cell, linked to the gateway.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct UeDef {
    /// Hop name of the operator gateway every UE links to.
    pub gateway: String,
    /// UE node-name prefix (`"ue-"` → `"ue-c2"`).
    pub name_prefix: String,
    /// UE access-link capacity, bits per second.
    pub bandwidth_bps: f64,
    /// UE access-link utilisation.
    pub utilisation: f64,
    /// UE access-link extra delay distribution.
    pub extra: DistSpec,
}

/// Fixed peer nodes of the campaign (the "eight other nodes").
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PeerDef {
    /// Cells the peers sit in (may be empty: anchor-only campaigns).
    pub cells: Vec<String>,
    /// Hop name their access aggregates at.
    pub attach: String,
    /// Peer node-name prefix (`"peer-"` → `"peer-1"`).
    pub name_prefix: String,
    /// Displacement bearing from the cell centroid, degrees.
    pub bearing_deg: f64,
    /// Displacement distance, km (keeps peers off the UE centroids).
    pub offset_km: f64,
    /// Peer access-link capacity, bits per second.
    pub bandwidth_bps: f64,
    /// Peer access-link utilisation.
    pub utilisation: f64,
    /// Peer access-link extra delay distribution.
    pub extra: DistSpec,
}

impl PeerDef {
    /// A campaign without fixed peers (anchor-only measurement).
    pub fn none() -> Self {
        Self {
            cells: Vec::new(),
            attach: String::new(),
            name_prefix: "peer-".into(),
            bearing_deg: 45.0,
            offset_km: 0.25,
            bandwidth_bps: 1e9,
            utilisation: 0.25,
            extra: DistSpec::Constant { ms: 0.8 },
        }
    }
}

/// Measurement roles: which hops anchor the campaign.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MeasurementDef {
    /// Hop name of the measurement anchor (first campaign target).
    pub anchor: String,
    /// Hop name of the cloud reference used by the wired baseline, if any.
    pub cloud: Option<String>,
    /// Cell of the reference mobile node (the Table-I-style endpoint).
    pub reference_cell: String,
    /// City code the traceroute's reverse-DNS rendering uses as vantage
    /// (`"vie"` for the Klagenfurt Table I).
    pub rdns_city: String,
}

/// Default campaign parameters (the spec's seed policy).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CampaignDef {
    /// Default campaign seed (combined with the scenario seed).
    pub seed: u64,
    /// Default number of grid traversals.
    pub passes: u32,
    /// Seconds between measurements while dwelling in a cell.
    pub sample_interval_s: f64,
}

impl Default for CampaignDef {
    fn default() -> Self {
        Self { seed: 1, passes: 1, sample_interval_s: 2.0 }
    }
}

/// One workload class share of the scenario's traffic mix.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadShareDef {
    /// Application class name (`"ArGaming"`, `"IotTelemetry"`, …).
    pub class: String,
    /// Fraction of traffic, in (0, 1]; shares must sum to 1.
    pub share: f64,
}

/// The scenario's workload mix and the class its gap analysis is judged
/// against.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkloadMixDef {
    /// Class whose requirement the campaign output is compared to.
    pub reference_class: String,
    /// Traffic shares, summing to 1.
    pub mix: Vec<WorkloadShareDef>,
}

impl Default for WorkloadMixDef {
    fn default() -> Self {
        Self {
            reference_class: "ArGaming".into(),
            mix: vec![WorkloadShareDef { class: "ArGaming".into(), share: 1.0 }],
        }
    }
}

/// How a campaign is executed.
///
/// Both backends consume the same `(seed, pass, cell, sample)` stream-keyed
/// shard work list, so each is deterministic and parallel; they differ in
/// *what* produces a sample. The analytic backend draws closed-form path
/// delays; the event backend pushes a probe packet through a per-hop
/// discrete-event world (FIFO link serialisation, sampled per-link extra
/// distributions) and can therefore express congestion the closed form
/// cannot. Cross-validated against each other by `repro_crossval`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecBackend {
    /// Closed-form path sampling (the default; all goldens pin it).
    Analytic,
    /// Packet-level discrete-event simulation per shard.
    Event,
}

impl ExecBackend {
    /// The spec-level tag (`"analytic"` / `"event"`).
    pub fn as_str(self) -> &'static str {
        match self {
            ExecBackend::Analytic => "analytic",
            ExecBackend::Event => "event",
        }
    }
}

impl fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Parses an execution backend tag.
pub fn parse_backend(s: &str) -> Result<ExecBackend, String> {
    match s {
        "analytic" => Ok(ExecBackend::Analytic),
        "event" => Ok(ExecBackend::Event),
        other => Err(format!("unknown backend {other:?} (expected analytic or event)")),
    }
}

/// The complete declarative scenario description.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioSpec {
    /// Scenario name (`"klagenfurt"`).
    pub name: String,
    /// One-line human description.
    pub description: String,
    /// Scenario seed: drives calibration, density jitter, and campaigns.
    pub seed: u64,
    /// Campaign execution backend tag: `"analytic"` (default) or `"event"`
    /// (see [`ExecBackend`]).
    pub backend: String,
    /// Grid geometry.
    pub grid: GridDef,
    /// Density raster parameters.
    pub density: DensityDef,
    /// Radio calibration targets.
    pub targets: TargetDef,
    /// Cells excluded from the traversal (besides explicit `0.0` targets).
    pub skipped_cells: Vec<String>,
    /// Calibration procedure parameters.
    pub calibration: CalibrationDef,
    /// Named infrastructure nodes, in insertion order.
    pub hops: Vec<HopDef>,
    /// Links between hops, in insertion order.
    pub links: Vec<LinkDef>,
    /// Scheduled link fail/recover events (event backend only).
    pub faults: Vec<FaultDef>,
    /// Per-AS naming profiles.
    pub orgs: Vec<OrgDef>,
    /// AS business relationships.
    pub as_relations: Vec<AsRelationDef>,
    /// Mobile UE attachment.
    pub ue: UeDef,
    /// Fixed peer nodes.
    pub peers: PeerDef,
    /// Measurement roles.
    pub measurement: MeasurementDef,
    /// Default campaign parameters.
    pub campaign: CampaignDef,
    /// Workload mix.
    pub workloads: WorkloadMixDef,
}

/// Largest grid dimension served by the *legacy* stream-key scheme
/// (`(col << 8) | row`, see [`crate::scenario::KeyScheme::Legacy`]).
///
/// This is a versioning boundary, not a hard limit: grids at or below this
/// dimension keep the historical packing bit-for-bit (every committed
/// golden number depends on it), while larger grids select
/// [`crate::scenario::KeyScheme::Wide`] (`(col << 32) | row`) and with it
/// the columnar batched-draw sampling path on the analytic backend.
pub const PACKABLE_GRID_DIM: u32 = 256;

/// Upper bound on total cells per grid (4096² — sixteen times the
/// continental 1000×1000 reference scenario). Beyond this the per-cell
/// accumulator field alone exceeds a sensible memory budget; shard the
/// sector into multiple scenarios instead.
pub const MAX_GRID_CELLS: u64 = 4096 * 4096;

/// True when `x` is a finite, strictly positive number (NaN and ∞ fail,
/// which a plain `x > 0.0` comparison would let through or mis-handle).
fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// True for a plausible WGS-84 coordinate (NaN fails).
fn valid_coordinate(lat: f64, lon: f64) -> bool {
    lat.abs() <= 90.0 && lon.abs() <= 180.0
}

/// Parses a [`NodeKind`] variant name.
pub fn parse_node_kind(s: &str) -> Result<NodeKind, String> {
    Ok(match s {
        "UserEquipment" => NodeKind::UserEquipment,
        "GnB" => NodeKind::GnB,
        "Upf" => NodeKind::Upf,
        "EdgeServer" => NodeKind::EdgeServer,
        "CoreRouter" => NodeKind::CoreRouter,
        "BorderRouter" => NodeKind::BorderRouter,
        "Ixp" => NodeKind::Ixp,
        "CloudDc" => NodeKind::CloudDc,
        "Anchor" => NodeKind::Anchor,
        "Server" => NodeKind::Server,
        other => {
            return Err(format!(
                "unknown node kind {other:?} (expected one of UserEquipment, GnB, Upf, \
                 EdgeServer, CoreRouter, BorderRouter, Ixp, CloudDc, Anchor, Server)"
            ))
        }
    })
}

/// Parses a [`NameStyle`] variant name.
pub fn parse_name_style(s: &str) -> Result<NameStyle, String> {
    Ok(match s {
        "IpEmbedded" => NameStyle::IpEmbedded,
        "CoreRouter" => NameStyle::CoreRouter,
        "IxRouter" => NameStyle::IxRouter,
        "PlainHost" => NameStyle::PlainHost,
        "ReverseOctets" => NameStyle::ReverseOctets,
        "Unresolved" => NameStyle::Unresolved,
        other => {
            return Err(format!(
                "unknown name style {other:?} (expected one of IpEmbedded, CoreRouter, \
                 IxRouter, PlainHost, ReverseOctets, Unresolved)"
            ))
        }
    })
}

// ---------------------------------------------------------------------------
// Decoding: Value → spec, with JSON-path error context.
// ---------------------------------------------------------------------------

/// A [`Value`] cursor that remembers its JSON path for error messages
/// (shared with the sweep decoder in [`crate::sweep`]).
pub(crate) struct Ctx<'a> {
    pub(crate) v: &'a Value,
    pub(crate) path: String,
}

impl<'a> Ctx<'a> {
    pub(crate) fn root(v: &'a Value) -> Self {
        Self { v, path: "$".into() }
    }

    pub(crate) fn err(&self, message: impl Into<String>) -> SpecError {
        SpecError::new(self.path.clone(), message)
    }

    pub(crate) fn type_err(&self, want: &str) -> SpecError {
        self.err(format!("expected {want}, found {}", self.v.type_name()))
            .with_code(ErrorCode::Schema)
    }

    /// Required object member.
    pub(crate) fn field(&self, name: &str) -> Result<Ctx<'a>, SpecError> {
        if self.v.as_object().is_none() {
            return Err(self.type_err("object"));
        }
        match self.v.get(name) {
            Some(v) => Ok(Ctx { v, path: format!("{}.{name}", self.path) }),
            None => Err(self
                .err(format!("missing required field `{name}`"))
                .with_code(ErrorCode::Schema)),
        }
    }

    /// Optional object member; absent or `null` → `None`.
    pub(crate) fn opt(&self, name: &str) -> Option<Ctx<'a>> {
        match self.v.get(name) {
            Some(v) if !v.is_null() => Some(Ctx { v, path: format!("{}.{name}", self.path) }),
            _ => None,
        }
    }

    pub(crate) fn f64(&self) -> Result<f64, SpecError> {
        self.v.as_f64().ok_or_else(|| self.type_err("number"))
    }

    pub(crate) fn u64(&self) -> Result<u64, SpecError> {
        self.v.as_u64().ok_or_else(|| self.type_err("non-negative integer"))
    }

    pub(crate) fn u32(&self) -> Result<u32, SpecError> {
        let n = self.u64()?;
        u32::try_from(n).map_err(|_| self.err(format!("{n} does not fit in 32 bits")))
    }

    pub(crate) fn u8(&self) -> Result<u8, SpecError> {
        let n = self.u64()?;
        u8::try_from(n).map_err(|_| self.err(format!("{n} does not fit in 8 bits")))
    }

    pub(crate) fn bool(&self) -> Result<bool, SpecError> {
        self.v.as_bool().ok_or_else(|| self.type_err("boolean"))
    }

    pub(crate) fn str(&self) -> Result<&'a str, SpecError> {
        self.v.as_str().ok_or_else(|| self.type_err("string"))
    }

    pub(crate) fn string(&self) -> Result<String, SpecError> {
        self.str().map(str::to_string)
    }

    pub(crate) fn array(&self) -> Result<Vec<Ctx<'a>>, SpecError> {
        let xs = self.v.as_array().ok_or_else(|| self.type_err("array"))?;
        Ok(xs
            .iter()
            .enumerate()
            .map(|(i, v)| Ctx { v, path: format!("{}[{i}]", self.path) })
            .collect())
    }

    pub(crate) fn f64_matrix(&self) -> Result<Vec<Vec<f64>>, SpecError> {
        self.array()?
            .into_iter()
            .map(|row| row.array()?.into_iter().map(|x| x.f64()).collect())
            .collect()
    }

    pub(crate) fn octets<const N: usize>(&self) -> Result<[u8; N], SpecError> {
        let xs = self.array()?;
        if xs.len() != N {
            return Err(self.err(format!("expected {N} octets, found {}", xs.len())));
        }
        let mut out = [0u8; N];
        for (slot, x) in out.iter_mut().zip(xs) {
            *slot = x.u8()?;
        }
        Ok(out)
    }

    pub(crate) fn dist(&self) -> Result<DistSpec, SpecError> {
        DistSpec::from_value(self.v).map_err(|m| self.err(m))
    }
}

fn decode_grid(c: &Ctx) -> Result<GridDef, SpecError> {
    Ok(GridDef {
        origin_lat: c.field("origin_lat")?.f64()?,
        origin_lon: c.field("origin_lon")?.f64()?,
        cols: c.field("cols")?.u32()?,
        rows: c.field("rows")?.u32()?,
        cell_km: c.field("cell_km")?.f64()?,
    })
}

fn decode_density(c: &Ctx) -> Result<DensityDef, SpecError> {
    let d = DensityDef::default();
    Ok(DensityDef {
        core_col: c.field("core_col")?.f64()?,
        core_row: c.field("core_row")?.f64()?,
        peak: c.field("peak")?.f64()?,
        decay_cells: c.field("decay_cells")?.f64()?,
        dense_fill: c.opt("dense_fill").map_or(Ok(d.dense_fill), |x| x.f64())?,
        sparse_fill: c.opt("sparse_fill").map_or(Ok(d.sparse_fill), |x| x.f64())?,
        jitter_mod: c.opt("jitter_mod").map_or(Ok(d.jitter_mod), |x| x.u64())?,
    })
}

fn decode_targets(c: &Ctx) -> Result<TargetDef, SpecError> {
    match c.field("kind")?.str()? {
        "explicit" => Ok(TargetDef::Explicit {
            mean: c.field("mean")?.f64_matrix()?,
            std: c.field("std")?.f64_matrix()?,
        }),
        "projected" => Ok(TargetDef::Projected {
            floor_ms: c.field("floor_ms")?.f64()?,
            gradient_ms: c.field("gradient_ms")?.f64()?,
            hotspot_ms: c.field("hotspot_ms")?.f64()?,
            hotspot: c.field("hotspot")?.string()?,
            std_factor: c.opt("std_factor").map_or(Ok(0.75), |x| x.f64())?,
            std_floor_ms: c.opt("std_floor_ms").map_or(Ok(2.0), |x| x.f64())?,
        }),
        other => Err(c
            .field("kind")?
            .err(format!("unknown target kind {other:?} (expected explicit or projected)"))),
    }
}

fn decode_position(c: &Ctx) -> Result<PositionDef, SpecError> {
    if c.v.get("cell").is_some() {
        Ok(PositionDef::Cell {
            cell: c.field("cell")?.string()?,
            bearing_deg: c.opt("bearing_deg").map_or(Ok(0.0), |x| x.f64())?,
            offset_km: c.opt("offset_km").map_or(Ok(0.0), |x| x.f64())?,
        })
    } else if c.v.get("lat").is_some() || c.v.get("lon").is_some() {
        Ok(PositionDef::Geo { lat: c.field("lat")?.f64()?, lon: c.field("lon")?.f64()? })
    } else {
        Err(c.err("position needs either {lat, lon} or {cell, bearing_deg?, offset_km?}"))
    }
}

fn decode_hop(c: &Ctx) -> Result<HopDef, SpecError> {
    Ok(HopDef {
        name: c.field("name")?.string()?,
        kind: c.field("kind")?.string()?,
        asn: c.field("asn")?.u32()?,
        position: decode_position(&c.field("position")?)?,
        ip: c.opt("ip").map(|x| x.octets()).transpose()?,
        rdns: c.opt("rdns").map(|x| x.string()).transpose()?,
    })
}

fn decode_link(c: &Ctx) -> Result<LinkDef, SpecError> {
    Ok(LinkDef {
        a: c.field("a")?.string()?,
        b: c.field("b")?.string()?,
        bandwidth_bps: c.field("bandwidth_bps")?.f64()?,
        utilisation: c.field("utilisation")?.f64()?,
        extra: c.opt("extra").map_or(Ok(DistSpec::Constant { ms: 0.0 }), |x| x.dist())?,
    })
}

fn decode_fault(c: &Ctx) -> Result<FaultDef, SpecError> {
    let link = c.field("link")?;
    let ends = link.array()?;
    if ends.len() != 2 {
        return Err(link.err(format!("expected two endpoint hop names, found {}", ends.len())));
    }
    Ok(FaultDef {
        link: [ends[0].string()?, ends[1].string()?],
        at_s: c.field("at_s")?.f64()?,
        recover_at_s: c.opt("recover_at_s").map(|x| x.f64()).transpose()?,
    })
}

fn decode_org(c: &Ctx) -> Result<OrgDef, SpecError> {
    Ok(OrgDef {
        asn: c.field("asn")?.u32()?,
        domain: c.field("domain")?.string()?,
        cc: c.field("cc")?.string()?,
        style: c.field("style")?.string()?,
        prefix: c.field("prefix")?.octets()?,
    })
}

fn decode_relation(c: &Ctx) -> Result<AsRelationDef, SpecError> {
    Ok(AsRelationDef {
        kind: c.field("kind")?.string()?,
        a: c.field("a")?.u32()?,
        b: c.field("b")?.u32()?,
    })
}

fn decode_ue(c: &Ctx) -> Result<UeDef, SpecError> {
    Ok(UeDef {
        gateway: c.field("gateway")?.string()?,
        name_prefix: c.opt("name_prefix").map_or(Ok("ue-".into()), |x| x.string())?,
        bandwidth_bps: c.opt("bandwidth_bps").map_or(Ok(1e9), |x| x.f64())?,
        utilisation: c.opt("utilisation").map_or(Ok(0.10), |x| x.f64())?,
        extra: c.opt("extra").map_or(Ok(DistSpec::Constant { ms: 0.0 }), |x| x.dist())?,
    })
}

fn decode_peers(c: &Ctx) -> Result<PeerDef, SpecError> {
    let d = PeerDef::none();
    Ok(PeerDef {
        cells: c
            .field("cells")?
            .array()?
            .into_iter()
            .map(|x| x.string())
            .collect::<Result<_, _>>()?,
        attach: c.opt("attach").map_or(Ok(String::new()), |x| x.string())?,
        name_prefix: c.opt("name_prefix").map_or(Ok(d.name_prefix), |x| x.string())?,
        bearing_deg: c.opt("bearing_deg").map_or(Ok(d.bearing_deg), |x| x.f64())?,
        offset_km: c.opt("offset_km").map_or(Ok(d.offset_km), |x| x.f64())?,
        bandwidth_bps: c.opt("bandwidth_bps").map_or(Ok(d.bandwidth_bps), |x| x.f64())?,
        utilisation: c.opt("utilisation").map_or(Ok(d.utilisation), |x| x.f64())?,
        extra: c.opt("extra").map_or(Ok(d.extra), |x| x.dist())?,
    })
}

fn decode_measurement(c: &Ctx) -> Result<MeasurementDef, SpecError> {
    Ok(MeasurementDef {
        anchor: c.field("anchor")?.string()?,
        cloud: c.opt("cloud").map(|x| x.string()).transpose()?,
        reference_cell: c.field("reference_cell")?.string()?,
        rdns_city: c.opt("rdns_city").map_or(Ok("vie".into()), |x| x.string())?,
    })
}

fn decode_campaign(c: &Ctx) -> Result<CampaignDef, SpecError> {
    Ok(CampaignDef {
        seed: c.field("seed")?.u64()?,
        passes: c.field("passes")?.u32()?,
        sample_interval_s: c.opt("sample_interval_s").map_or(Ok(2.0), |x| x.f64())?,
    })
}

fn decode_workloads(c: &Ctx) -> Result<WorkloadMixDef, SpecError> {
    Ok(WorkloadMixDef {
        reference_class: c.field("reference_class")?.string()?,
        mix: c
            .field("mix")?
            .array()?
            .into_iter()
            .map(|x| {
                Ok(WorkloadShareDef {
                    class: x.field("class")?.string()?,
                    share: x.field("share")?.f64()?,
                })
            })
            .collect::<Result<_, SpecError>>()?,
    })
}

impl ScenarioSpec {
    /// Decodes a spec from a parsed JSON value tree.
    pub fn from_value(v: &Value) -> Result<Self, SpecError> {
        let c = Ctx::root(v);
        if c.v.as_object().is_none() {
            return Err(c.type_err("object"));
        }
        Ok(Self {
            name: c.field("name")?.string()?,
            description: c.opt("description").map_or(Ok(String::new()), |x| x.string())?,
            seed: c.field("seed")?.u64()?,
            backend: c.opt("backend").map_or(Ok("analytic".into()), |x| x.string())?,
            grid: decode_grid(&c.field("grid")?)?,
            density: decode_density(&c.field("density")?)?,
            targets: decode_targets(&c.field("targets")?)?,
            skipped_cells: c
                .opt("skipped_cells")
                .map_or(Ok(Vec::new()), |x| x.array()?.into_iter().map(|e| e.string()).collect())?,
            calibration: match c.opt("calibration") {
                Some(x) => CalibrationDef {
                    label: x.field("label")?.string()?,
                    samples: x.field("samples")?.u32()?,
                },
                None => CalibrationDef::default(),
            },
            hops: c.field("hops")?.array()?.iter().map(decode_hop).collect::<Result<_, _>>()?,
            links: c.field("links")?.array()?.iter().map(decode_link).collect::<Result<_, _>>()?,
            faults: c
                .opt("faults")
                .map_or(Ok(Vec::new()), |x| x.array()?.iter().map(decode_fault).collect())?,
            orgs: c
                .opt("orgs")
                .map_or(Ok(Vec::new()), |x| x.array()?.iter().map(decode_org).collect())?,
            as_relations: c
                .field("as_relations")?
                .array()?
                .iter()
                .map(decode_relation)
                .collect::<Result<_, _>>()?,
            ue: decode_ue(&c.field("ue")?)?,
            peers: match c.opt("peers") {
                Some(x) => decode_peers(&x)?,
                None => PeerDef::none(),
            },
            measurement: decode_measurement(&c.field("measurement")?)?,
            campaign: match c.opt("campaign") {
                Some(x) => decode_campaign(&x)?,
                None => CampaignDef::default(),
            },
            workloads: match c.opt("workloads") {
                Some(x) => decode_workloads(&x)?,
                None => WorkloadMixDef::default(),
            },
        })
    }

    /// Parses a spec from JSON text.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let v = serde_json::from_str(text).map_err(|e| {
            SpecError::coded(ErrorCode::InvalidJson, "$", format!("invalid JSON: {e}"))
        })?;
        Self::from_value(&v)
    }

    /// Serialises the spec to pretty JSON (the committed `specs/*.json`
    /// format). Round-trips exactly: `from_json(to_json(spec)) == spec`.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("spec serialises")
    }

    /// Index into [`Self::links`] of the link a fault references
    /// (order-insensitive endpoints), if declared. Spec links compile to
    /// `LinkId(index)` in declaration order, so this index doubles as the
    /// runtime link id of the faulted link.
    pub fn fault_link_index(&self, fault: &FaultDef) -> Option<usize> {
        let [a, b] = &fault.link;
        self.links.iter().position(|l| (l.a == *a && l.b == *b) || (l.a == *b && l.b == *a))
    }

    /// Checks every cross-field invariant; returns all violations (empty =
    /// valid). [`crate::scenario::Scenario::from_spec`] refuses invalid
    /// specs with the first of these errors.
    pub fn validate(&self) -> Vec<SpecError> {
        let mut errors = Vec::new();
        let mut err = |path: &str, message: String| errors.push(SpecError::new(path, message));

        if self.name.is_empty() {
            err("$.name", "scenario name must not be empty".into());
        }
        if let Err(m) = parse_backend(&self.backend) {
            err("$.backend", m);
        }
        // Stream-key scheme routing: grids at or below PACKABLE_GRID_DIM
        // per side keep the legacy `(col << 8) | row` packing bit-for-bit
        // (every golden stream depends on it); larger grids select the
        // wide `(col << 32) | row` scheme and the columnar batched-draw
        // path, which only the analytic backend implements — mega-grids
        // compile without the per-cell topology the event backend probes.
        let wide_scheme = self.grid.cols > PACKABLE_GRID_DIM || self.grid.rows > PACKABLE_GRID_DIM;
        if wide_scheme {
            if matches!(parse_backend(&self.backend), Ok(ExecBackend::Event)) {
                err(
                    "$.backend",
                    format!(
                        "grid {}×{} exceeds {PACKABLE_GRID_DIM}×{PACKABLE_GRID_DIM} and uses the \
                         wide stream-key scheme, whose columnar sampling path only the analytic \
                         backend implements — set \"backend\": \"analytic\"",
                        self.grid.cols, self.grid.rows
                    ),
                );
            }
            if !self.faults.is_empty() {
                err(
                    "$.faults",
                    format!(
                        "fault schedules run on the event backend, which the wide stream-key \
                         scheme (grid {}×{} beyond {PACKABLE_GRID_DIM}×{PACKABLE_GRID_DIM}) does \
                         not support",
                        self.grid.cols, self.grid.rows
                    ),
                );
            }
        }
        if self.grid.cols as u64 * self.grid.rows as u64 > MAX_GRID_CELLS {
            err(
                "$.grid",
                format!(
                    "grid {}×{} exceeds {MAX_GRID_CELLS} total cells; shard the sector into \
                     multiple scenarios",
                    self.grid.cols, self.grid.rows
                ),
            );
        }
        if self.grid.cols == 0 || self.grid.rows == 0 {
            err(
                "$.grid",
                format!("grid must be non-empty, got {}×{}", self.grid.cols, self.grid.rows),
            );
        }
        if !positive(self.grid.cell_km) {
            err("$.grid.cell_km", format!("cell size must be positive, got {}", self.grid.cell_km));
        }
        if !valid_coordinate(self.grid.origin_lat, self.grid.origin_lon) {
            err(
                "$.grid",
                format!(
                    "origin ({}, {}) is not a valid WGS-84 coordinate",
                    self.grid.origin_lat, self.grid.origin_lon
                ),
            );
        }

        let in_grid = |cell: CellId| cell.col < self.grid.cols && cell.row < self.grid.rows;
        let parse_cell = |label: &str| -> Result<CellId, String> {
            let cell = CellId::parse(label)
                .ok_or_else(|| format!("invalid cell label {label:?} (expected e.g. \"C2\")"))?;
            if !in_grid(cell) {
                return Err(format!(
                    "cell {label} lies outside the {}×{} grid",
                    self.grid.cols, self.grid.rows
                ));
            }
            Ok(cell)
        };

        // Density.
        if !positive(self.density.peak) || !positive(self.density.decay_cells) {
            err("$.density", "peak and decay_cells must be positive".into());
        }
        if self.density.jitter_mod == 0 {
            err("$.density.jitter_mod", "jitter modulus must be at least 1".into());
        }
        if self.density.dense_fill < SPARSE_THRESHOLD {
            err(
                "$.density.dense_fill",
                format!(
                    "dense fill {} must clear the {SPARSE_THRESHOLD} /km² sparse threshold, \
                 or traversed cells would register as sparse",
                    self.density.dense_fill
                ),
            );
        }
        if self.density.sparse_fill + self.density.jitter_mod as f64 >= SPARSE_THRESHOLD {
            err(
                "$.density.sparse_fill",
                format!(
                    "sparse fill {} plus jitter {} must stay below the {SPARSE_THRESHOLD} /km² \
                 threshold, or skipped cells would register as dense",
                    self.density.sparse_fill, self.density.jitter_mod
                ),
            );
        }

        // Skipped cells: parseable, inside the grid, no overlaps.
        let mut skipped = Vec::new();
        for (i, label) in self.skipped_cells.iter().enumerate() {
            let path = format!("$.skipped_cells[{i}]");
            match parse_cell(label) {
                Ok(cell) if skipped.contains(&cell) => {
                    err(&path, format!("cell {label} is listed twice — overlapping skip entries"))
                }
                Ok(cell) => skipped.push(cell),
                Err(m) => err(&path, m),
            }
        }

        // Targets.
        match &self.targets {
            TargetDef::Explicit { mean, std } => {
                let rows = self.grid.rows as usize;
                let cols = self.grid.cols as usize;
                for (name, m) in [("mean", mean), ("std", std)] {
                    let path = format!("$.targets.{name}");
                    if m.len() != rows {
                        err(
                            &path,
                            format!("expected {rows} rows to match the grid, found {}", m.len()),
                        );
                        continue;
                    }
                    for (r, row) in m.iter().enumerate() {
                        if row.len() != cols {
                            err(
                                &format!("{path}[{r}]"),
                                format!(
                                    "expected {cols} columns to match the grid, found {}",
                                    row.len()
                                ),
                            );
                        }
                        for (cidx, &x) in row.iter().enumerate() {
                            if x < 0.0 {
                                err(
                                    &format!("{path}[{r}][{cidx}]"),
                                    format!("target {name} must be non-negative, got {x}"),
                                );
                            }
                        }
                    }
                }
            }
            TargetDef::Projected {
                floor_ms,
                gradient_ms,
                hotspot_ms,
                hotspot,
                std_factor,
                std_floor_ms,
            } => {
                if !positive(*floor_ms) {
                    err(
                        "$.targets.floor_ms",
                        format!("latency floor must be positive, got {floor_ms}"),
                    );
                }
                if *gradient_ms < 0.0 || *hotspot_ms < 0.0 {
                    err("$.targets", "gradient_ms and hotspot_ms must be non-negative".into());
                }
                if *std_factor < 0.0 || !positive(*std_floor_ms) {
                    err(
                        "$.targets",
                        "std_factor must be non-negative and std_floor_ms positive".into(),
                    );
                }
                match parse_cell(hotspot) {
                    Ok(cell) if skipped.contains(&cell) => err(
                        "$.targets.hotspot",
                        format!("hotspot {hotspot} overlaps a skipped cell"),
                    ),
                    Ok(_) => {}
                    Err(m) => err("$.targets.hotspot", m),
                }
            }
        }

        // Calibration.
        if self.calibration.samples == 0 {
            err("$.calibration.samples", "calibration needs at least one sample per cell".into());
        }
        if self.calibration.label.is_empty() {
            err("$.calibration.label", "calibration stream label must not be empty".into());
        }

        // Hops: unique names, valid kinds/positions.
        let mut hop_names: Vec<&str> = Vec::new();
        if self.hops.is_empty() {
            err("$.hops", "a scenario needs at least one hop (the UE gateway)".into());
        }
        for (i, hop) in self.hops.iter().enumerate() {
            let path = format!("$.hops[{i}]");
            if hop.name.is_empty() {
                err(&format!("{path}.name"), "hop name must not be empty".into());
            }
            if hop_names.contains(&hop.name.as_str()) {
                err(&format!("{path}.name"), format!("duplicate hop name {:?}", hop.name));
            }
            hop_names.push(&hop.name);
            if let Err(m) = parse_node_kind(&hop.kind) {
                err(&format!("{path}.kind"), m);
            }
            match &hop.position {
                PositionDef::Geo { lat, lon } => {
                    if !valid_coordinate(*lat, *lon) {
                        err(
                            &format!("{path}.position"),
                            format!("({lat}, {lon}) is not a valid WGS-84 coordinate"),
                        );
                    }
                }
                PositionDef::Cell { cell, offset_km, .. } => {
                    if let Err(m) = parse_cell(cell) {
                        err(&format!("{path}.position.cell"), m);
                    }
                    if *offset_km < 0.0 {
                        err(
                            &format!("{path}.position.offset_km"),
                            "offset must be non-negative".into(),
                        );
                    }
                }
            }
        }
        let known_hop = |name: &str| hop_names.contains(&name);

        // Links: known endpoints, sane parameters, valid delay dists.
        for (i, link) in self.links.iter().enumerate() {
            let path = format!("$.links[{i}]");
            for (side, name) in [("a", &link.a), ("b", &link.b)] {
                if !known_hop(name) {
                    err(
                        &format!("{path}.{side}"),
                        format!("unknown hop {name:?}; declare it under $.hops first"),
                    );
                }
            }
            if link.a == link.b {
                err(&path, format!("self-loop on hop {:?}", link.a));
            }
            if !positive(link.bandwidth_bps) {
                err(
                    &format!("{path}.bandwidth_bps"),
                    format!("bandwidth must be positive, got {}", link.bandwidth_bps),
                );
            }
            if !(0.0..1.0).contains(&link.utilisation) {
                err(
                    &format!("{path}.utilisation"),
                    format!("utilisation must be in [0, 1), got {}", link.utilisation),
                );
            }
            if let Err(m) = link.extra.validate() {
                err(&format!("{path}.extra"), m);
            }
        }

        // Fault schedule: declared links, sane timing, event backend only.
        if !self.faults.is_empty() && parse_backend(&self.backend) == Ok(ExecBackend::Analytic) {
            err(
                "$.faults",
                "fault schedules replay on the event calendar; set $.backend to \"event\"".into(),
            );
        }
        for (i, fault) in self.faults.iter().enumerate() {
            let path = format!("$.faults[{i}]");
            let [a, b] = &fault.link;
            if a == b {
                err(&format!("{path}.link"), format!("self-loop on hop {a:?}"));
            } else if self.fault_link_index(fault).is_none() {
                err(
                    &format!("{path}.link"),
                    format!("no declared link joins {a:?} and {b:?}; reference a $.links entry"),
                );
            }
            if !fault.at_s.is_finite() || fault.at_s < 0.0 {
                err(
                    &format!("{path}.at_s"),
                    format!("failure time must be finite and non-negative, got {}", fault.at_s),
                );
            }
            if let Some(r) = fault.recover_at_s {
                if !r.is_finite() || r <= fault.at_s {
                    err(
                        &format!("{path}.recover_at_s"),
                        format!("recovery at {r} must come after the failure at {}", fault.at_s),
                    );
                }
            }
        }

        // Orgs and AS relations.
        for (i, org) in self.orgs.iter().enumerate() {
            if let Err(m) = parse_name_style(&org.style) {
                err(&format!("$.orgs[{i}].style"), m);
            }
            if org.domain.is_empty() {
                err(&format!("$.orgs[{i}].domain"), "org domain must not be empty".into());
            }
        }
        for (i, rel) in self.as_relations.iter().enumerate() {
            let path = format!("$.as_relations[{i}]");
            if rel.kind != "transit" && rel.kind != "peering" {
                err(
                    &format!("{path}.kind"),
                    format!("unknown relation kind {:?} (expected transit or peering)", rel.kind),
                );
            }
            if rel.a == rel.b {
                err(&path, format!("AS{} cannot have a relationship with itself", rel.a));
            }
        }

        // UE attachment.
        if !known_hop(&self.ue.gateway) {
            err(
                "$.ue.gateway",
                format!("unknown hop {:?}; declare it under $.hops first", self.ue.gateway),
            );
        }
        if !positive(self.ue.bandwidth_bps) || !(0.0..1.0).contains(&self.ue.utilisation) {
            err("$.ue", "UE link needs positive bandwidth and utilisation in [0, 1)".into());
        }
        if let Err(m) = self.ue.extra.validate() {
            err("$.ue.extra", m);
        }

        // Peers.
        if !self.peers.cells.is_empty() && !known_hop(&self.peers.attach) {
            err(
                "$.peers.attach",
                format!("unknown hop {:?}; declare it under $.hops first", self.peers.attach),
            );
        }
        for (i, label) in self.peers.cells.iter().enumerate() {
            if let Err(m) = parse_cell(label) {
                err(&format!("$.peers.cells[{i}]"), m);
            }
        }
        if !positive(self.peers.bandwidth_bps) || !(0.0..1.0).contains(&self.peers.utilisation) {
            err("$.peers", "peer link needs positive bandwidth and utilisation in [0, 1)".into());
        }
        if let Err(m) = self.peers.extra.validate() {
            err("$.peers.extra", m);
        }

        // Measurement roles.
        if !known_hop(&self.measurement.anchor) {
            err(
                "$.measurement.anchor",
                format!("unknown hop {:?}; declare it under $.hops first", self.measurement.anchor),
            );
        }
        if let Some(cloud) = &self.measurement.cloud {
            if !known_hop(cloud) {
                err(
                    "$.measurement.cloud",
                    format!("unknown hop {cloud:?}; declare it under $.hops first"),
                );
            }
        }
        match parse_cell(&self.measurement.reference_cell) {
            Ok(cell) if skipped.contains(&cell) => err(
                "$.measurement.reference_cell",
                format!(
                    "reference cell {} is skipped, so it hosts no mobile UE",
                    self.measurement.reference_cell
                ),
            ),
            Ok(_) => {}
            Err(m) => err("$.measurement.reference_cell", m),
        }

        // Campaign defaults.
        if self.campaign.passes == 0 {
            err("$.campaign.passes", "a campaign needs at least one pass".into());
        }
        if !positive(self.campaign.sample_interval_s) {
            err(
                "$.campaign.sample_interval_s",
                format!(
                    "sampling cadence must be positive, got {}",
                    self.campaign.sample_interval_s
                ),
            );
        }

        // Workload mix.
        if self.workloads.mix.is_empty() {
            err("$.workloads.mix", "workload mix must not be empty".into());
        }
        let mut total = 0.0;
        for (i, w) in self.workloads.mix.iter().enumerate() {
            if w.class.is_empty() {
                err(&format!("$.workloads.mix[{i}].class"), "class name must not be empty".into());
            }
            if !positive(w.share) {
                err(
                    &format!("$.workloads.mix[{i}].share"),
                    format!("share must be positive, got {}", w.share),
                );
            }
            total += w.share;
        }
        if !self.workloads.mix.is_empty() && (total - 1.0).abs() > 1e-6 {
            err("$.workloads.mix", format!("shares must sum to 1, got {total}"));
        }
        if self.workloads.reference_class.is_empty() {
            err("$.workloads.reference_class", "reference class must not be empty".into());
        }

        errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> ScenarioSpec {
        ScenarioSpec {
            name: "mini".into(),
            description: "a minimal two-hop scenario".into(),
            seed: 7,
            backend: "analytic".into(),
            grid: GridDef { origin_lat: 46.65, origin_lon: 14.25, cols: 3, rows: 3, cell_km: 1.0 },
            density: DensityDef {
                core_col: 1.0,
                core_row: 1.0,
                peak: 4000.0,
                decay_cells: 2.0,
                ..DensityDef::default()
            },
            targets: TargetDef::Projected {
                floor_ms: 50.0,
                gradient_ms: 10.0,
                hotspot_ms: 15.0,
                hotspot: "B2".into(),
                std_factor: 0.75,
                std_floor_ms: 2.0,
            },
            skipped_cells: vec!["A1".into()],
            calibration: CalibrationDef { label: "mini-cal".into(), samples: 400 },
            hops: vec![
                HopDef {
                    name: "gw".into(),
                    kind: "CoreRouter".into(),
                    asn: 100,
                    position: PositionDef::Geo { lat: 46.64, lon: 14.30 },
                    ip: Some([10, 0, 0, 1]),
                    rdns: None,
                },
                HopDef {
                    name: "anchor".into(),
                    kind: "Anchor".into(),
                    asn: 200,
                    position: PositionDef::Cell {
                        cell: "C3".into(),
                        bearing_deg: 0.0,
                        offset_km: 0.0,
                    },
                    ip: None,
                    rdns: Some("anchor.example.net".into()),
                },
            ],
            links: vec![LinkDef {
                a: "gw".into(),
                b: "anchor".into(),
                bandwidth_bps: 10e9,
                utilisation: 0.3,
                extra: DistSpec::Constant { ms: 0.2 },
            }],
            faults: Vec::new(),
            orgs: vec![OrgDef {
                asn: 200,
                domain: "example.net".into(),
                cc: "at".into(),
                style: "PlainHost".into(),
                prefix: [193, 5],
            }],
            as_relations: vec![AsRelationDef { kind: "transit".into(), a: 200, b: 100 }],
            ue: UeDef {
                gateway: "gw".into(),
                name_prefix: "ue-".into(),
                bandwidth_bps: 1e9,
                utilisation: 0.1,
                extra: DistSpec::Constant { ms: 0.0 },
            },
            peers: PeerDef::none(),
            measurement: MeasurementDef {
                anchor: "anchor".into(),
                cloud: None,
                reference_cell: "B2".into(),
                rdns_city: "vie".into(),
            },
            campaign: CampaignDef { seed: 1, passes: 2, sample_interval_s: 2.0 },
            workloads: WorkloadMixDef::default(),
        }
    }

    #[test]
    fn minimal_spec_is_valid() {
        let errors = minimal().validate();
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn json_round_trip_preserves_spec() {
        let spec = minimal();
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).expect("round trip parses");
        assert_eq!(back, spec);
        // And a second serialisation is textually identical (stable format).
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn unknown_hop_in_link_is_actionable() {
        let mut spec = minimal();
        spec.links[0].b = "missing-core".into();
        let errors = spec.validate();
        let e = errors.iter().find(|e| e.path == "$.links[0].b").expect("link error reported");
        assert!(e.message.contains("missing-core"), "{e}");
        assert!(e.message.contains("declare it under $.hops"), "{e}");
    }

    #[test]
    fn negative_delay_is_rejected() {
        let mut spec = minimal();
        spec.links[0].extra = DistSpec::Constant { ms: -0.5 };
        let errors = spec.validate();
        let e = errors.iter().find(|e| e.path == "$.links[0].extra").expect("extra error");
        assert!(e.message.contains("non-negative"), "{e}");
    }

    #[test]
    fn overlapping_skip_entries_are_rejected() {
        let mut spec = minimal();
        spec.skipped_cells.push("A1".into());
        let errors = spec.validate();
        assert!(errors.iter().any(|e| e.message.contains("overlapping")), "{errors:?}");
    }

    #[test]
    fn hotspot_on_skipped_cell_is_rejected() {
        let mut spec = minimal();
        spec.skipped_cells = vec!["B2".into()];
        let errors = spec.validate();
        assert!(errors.iter().any(|e| e.path == "$.targets.hotspot"), "{errors:?}");
        // The reference cell is also B2, so that must be flagged too.
        assert!(errors.iter().any(|e| e.path == "$.measurement.reference_cell"), "{errors:?}");
    }

    #[test]
    fn explicit_target_dims_must_match_grid() {
        let mut spec = minimal();
        spec.targets = TargetDef::Explicit {
            mean: vec![vec![50.0; 3]; 2], // 2 rows instead of 3
            std: vec![vec![5.0; 3]; 3],
        };
        let errors = spec.validate();
        let e = errors.iter().find(|e| e.path == "$.targets.mean").expect("dim error");
        assert!(e.message.contains("expected 3 rows"), "{e}");
    }

    #[test]
    fn workload_shares_must_sum_to_one() {
        let mut spec = minimal();
        spec.workloads.mix = vec![
            WorkloadShareDef { class: "ArGaming".into(), share: 0.5 },
            WorkloadShareDef { class: "IotTelemetry".into(), share: 0.3 },
        ];
        let errors = spec.validate();
        assert!(errors.iter().any(|e| e.message.contains("sum to 1")), "{errors:?}");
    }

    #[test]
    fn decode_errors_carry_json_paths() {
        let json = r#"{"name": "x", "seed": 1, "grid": {"origin_lat": 46.0, "origin_lon": 14.0, "cols": "three", "rows": 3, "cell_km": 1.0}}"#;
        let err = ScenarioSpec::from_json(json).unwrap_err();
        assert_eq!(err.path, "$.grid.cols");
        assert!(err.message.contains("integer"), "{err}");

        let err = ScenarioSpec::from_json("{\"name\": \"x\"}").unwrap_err();
        assert!(err.message.contains("missing required field"), "{err}");

        let err = ScenarioSpec::from_json("[1, 2").unwrap_err();
        assert!(err.message.contains("invalid JSON"), "{err}");
    }

    #[test]
    fn unknown_backend_is_rejected_with_path() {
        let mut spec = minimal();
        spec.backend = "quantum".into();
        let errors = spec.validate();
        let e = errors.iter().find(|e| e.path == "$.backend").expect("backend error");
        assert!(e.message.contains("quantum"), "{e}");
        assert!(e.message.contains("analytic or event"), "{e}");
        // Both documented values validate.
        for ok in ["analytic", "event"] {
            let mut spec = minimal();
            spec.backend = ok.into();
            assert!(spec.validate().is_empty(), "{ok} must validate");
        }
    }

    #[test]
    fn absent_backend_defaults_to_analytic() {
        let json = minimal().to_json().replace("  \"backend\": \"analytic\",\n", "");
        let spec = ScenarioSpec::from_json(&json).expect("parses without backend");
        assert_eq!(spec.backend, "analytic");
        assert_eq!(parse_backend(&spec.backend), Ok(ExecBackend::Analytic));
    }

    #[test]
    fn non_positive_sample_interval_is_rejected_with_path() {
        for bad in [0.0, -2.0] {
            let mut spec = minimal();
            spec.campaign.sample_interval_s = bad;
            let errors = spec.validate();
            let e = errors
                .iter()
                .find(|e| e.path == "$.campaign.sample_interval_s")
                .unwrap_or_else(|| panic!("interval {bad} must be rejected: {errors:?}"));
            assert!(e.message.contains("positive"), "{e}");
        }
        // Non-finite intervals (unreachable through JSON, reachable through
        // the API) are rejected by the same finite-and-positive predicate.
        let mut spec = minimal();
        spec.campaign.sample_interval_s = f64::NAN;
        assert!(spec.validate().iter().any(|e| e.path == "$.campaign.sample_interval_s"));
    }

    #[test]
    fn nan_coordinates_are_rejected() {
        let mut spec = minimal();
        spec.hops[0].position = PositionDef::Geo { lat: f64::NAN, lon: f64::NAN };
        let errors = spec.validate();
        assert!(errors.iter().any(|e| e.path == "$.hops[0].position"), "{errors:?}");
        let mut spec = minimal();
        spec.grid.origin_lat = f64::NAN;
        assert!(spec.validate().iter().any(|e| e.path == "$.grid"));
    }

    #[test]
    fn bad_utilisation_and_kind_are_reported() {
        let mut spec = minimal();
        spec.links[0].utilisation = 1.0;
        spec.hops[0].kind = "Router".into();
        let errors = spec.validate();
        assert!(errors.iter().any(|e| e.path == "$.links[0].utilisation"), "{errors:?}");
        assert!(
            errors.iter().any(|e| e.path == "$.hops[0].kind" && e.message.contains("Router")),
            "{errors:?}"
        );
    }

    fn flapping(a: &str, b: &str, at_s: f64, recover_at_s: Option<f64>) -> ScenarioSpec {
        let mut spec = minimal();
        spec.backend = "event".into();
        spec.faults = vec![FaultDef { link: [a.into(), b.into()], at_s, recover_at_s }];
        spec
    }

    #[test]
    fn fault_schedule_validates_and_round_trips() {
        let spec = flapping("anchor", "gw", 4.0, Some(9.5));
        let errors = spec.validate();
        assert!(errors.is_empty(), "{errors:?}");
        // Endpoints are order-insensitive and resolve to the declared link.
        assert_eq!(spec.fault_link_index(&spec.faults[0]), Some(0));
        let back = ScenarioSpec::from_json(&spec.to_json()).expect("round-trip");
        assert_eq!(back, spec);
        // A schedule with no recovery round-trips through `null` too.
        let down = flapping("gw", "anchor", 1.0, None);
        assert_eq!(ScenarioSpec::from_json(&down.to_json()).expect("round-trip"), down);
    }

    #[test]
    fn fault_on_undeclared_link_is_rejected_with_path() {
        let errors = flapping("gw", "missing-core", 4.0, None).validate();
        let e = errors.iter().find(|e| e.path == "$.faults[0].link").expect("link error");
        assert!(e.message.contains("missing-core"), "{e}");
        assert!(e.message.contains("$.links"), "{e}");
    }

    #[test]
    fn fault_self_loop_is_rejected() {
        let errors = flapping("gw", "gw", 4.0, None).validate();
        let e = errors.iter().find(|e| e.path == "$.faults[0].link").expect("link error");
        assert!(e.message.contains("self-loop"), "{e}");
    }

    #[test]
    fn fault_failure_time_must_be_finite_and_non_negative() {
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let errors = flapping("gw", "anchor", bad, None).validate();
            let e = errors.iter().find(|e| e.path == "$.faults[0].at_s").expect("at_s error");
            assert!(e.message.contains("finite and non-negative"), "{e}");
        }
    }

    #[test]
    fn fault_recovery_must_follow_failure() {
        for bad in [3.0, 4.0, f64::NAN] {
            let errors = flapping("gw", "anchor", 4.0, Some(bad)).validate();
            let e = errors
                .iter()
                .find(|e| e.path == "$.faults[0].recover_at_s")
                .expect("recover_at_s error");
            assert!(e.message.contains("after the failure"), "{e}");
        }
    }

    #[test]
    fn faults_require_the_event_backend() {
        let mut spec = flapping("gw", "anchor", 4.0, Some(9.0));
        spec.backend = "analytic".into();
        let errors = spec.validate();
        let e = errors.iter().find(|e| e.path == "$.faults").expect("backend error");
        assert!(e.message.contains("event"), "{e}");
    }
}
