//! The generic, spec-compiled measurement scenario.
//!
//! [`Scenario`] is the single runtime shape every measurement site compiles
//! into: a router-level [`Topology`] with AS business relationships, a
//! labelled grid (its density raster built on demand by
//! [`Scenario::density`]), one mobile UE per traversed cell behind an
//! operator gateway, a measurement anchor (plus optional fixed
//! peers and a cloud reference), and per-cell radio access models
//! calibrated so the campaign *reproduces* the spec's target field.
//!
//! Scenarios are built from declarative [`ScenarioSpec`]s
//! ([`Scenario::from_spec`]); the committed sites — Klagenfurt
//! ([`Scenario::paper`]), Skopje ([`Scenario::projected`]) and the
//! megacity ([`Scenario::megacity`]) — are thin wrappers over the spec
//! files under `specs/`. The compilation pipeline is deliberately
//! deterministic in spec order: hops, links, UEs and peers are inserted
//! exactly in the order the spec lists them, so node/link identifiers —
//! and therefore every routed path and every random stream — are a pure
//! function of (spec, seed). The Klagenfurt golden suite pins this to the
//! bit.

use crate::parallel::{cell_chunks, extend_in_place, map_chunks};
use crate::spec::{
    parse_name_style, parse_node_kind, PositionDef, ScenarioSpec, SpecError, TargetDef,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use sixg_geo::population::SPARSE_THRESHOLD;
use sixg_geo::{CellId, DensityRaster, GeoPoint, GridSpec};
use sixg_netsim::latency::DelaySampler;
use sixg_netsim::names::{NameRegistry, OrgProfile};
use sixg_netsim::radio::{AccessModel, FiveGAccess};
use sixg_netsim::rng::{SimRng, StreamKey};
use sixg_netsim::routing::{AsGraph, PathComputer, RoutedPath};
use sixg_netsim::stats::Welford;
use sixg_netsim::topology::{Asn, LinkParams, NodeId, NodeKind, Topology};
use std::collections::BTreeMap;

/// Per-cell calibration targets (mean/σ of the round-trip latency field).
///
/// A dynamic `[row][col]` field over an arbitrary grid; `0.0` mean marks a
/// non-traversed cell, exactly as the paper's Figure 2 renders skipped
/// cells. Dense scenario targets (the published Klagenfurt matrices) store
/// explicit values. A projected field keeps only its model's six
/// parameters and its skipped cells, and evaluates a cell when asked, with
/// the model's one expression: a wide grid holds no per-cell target array.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetField {
    cols: u32,
    rows: u32,
    values: Targets,
}

/// Where a [`TargetField`]'s values come from.
#[derive(Debug, Clone, PartialEq)]
enum Targets {
    /// Mean and σ targets, ms, row-major; skipped cells hold `0.0`.
    Explicit { mean: Vec<f64>, std: Vec<f64> },
    /// The projected model, and the skipped cells, row-major and unique.
    Projected { model: Projection, skipped: Vec<CellId> },
}

/// The parameters of [`TargetDef::Projected`], its hotspot parsed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Projection {
    floor_ms: f64,
    gradient_ms: f64,
    hotspot_ms: f64,
    hotspot: CellId,
    std_factor: f64,
    std_floor_ms: f64,
}

impl Projection {
    /// `(mean, σ)` of `cell` on a `cols × rows` grid: the regional floor,
    /// the gradient along the grid diagonal and the hotspot's peak, with σ
    /// growing with the load above the floor.
    fn eval(&self, cols: u32, rows: u32, cell: CellId) -> (f64, f64) {
        let diag = (cell.col as f64 / (cols - 1).max(1) as f64
            + cell.row as f64 / (rows - 1).max(1) as f64)
            / 2.0;
        let peak = if cell == self.hotspot { self.hotspot_ms } else { 0.0 };
        let mean = self.floor_ms + self.gradient_ms * diag + peak;
        (mean, (self.std_factor * (mean - self.floor_ms)).max(self.std_floor_ms))
    }
}

impl TargetField {
    /// Builds a field from row-major matrices. Panics when dimensions are
    /// inconsistent (spec validation reports this recoverably first).
    pub fn from_rows(mean: Vec<Vec<f64>>, std: Vec<Vec<f64>>) -> Self {
        assert!(!mean.is_empty(), "target field needs at least one row");
        let rows = mean.len();
        let cols = mean[0].len();
        assert!(cols > 0, "target field needs at least one column");
        assert_eq!(std.len(), rows, "mean/std row count mismatch");
        for (m, s) in mean.iter().zip(&std) {
            assert_eq!(m.len(), cols, "ragged mean matrix");
            assert_eq!(s.len(), cols, "ragged std matrix");
        }
        Self {
            cols: cols as u32,
            rows: rows as u32,
            values: Targets::Explicit {
                mean: mean.into_iter().flatten().collect(),
                std: std.into_iter().flatten().collect(),
            },
        }
    }

    /// Grid dimensions `(cols, rows)`.
    pub fn dims(&self) -> (u32, u32) {
        (self.cols, self.rows)
    }

    fn idx(&self, cell: CellId) -> usize {
        assert!(
            cell.col < self.cols && cell.row < self.rows,
            "cell {cell} outside {}×{} target field",
            self.cols,
            self.rows
        );
        cell.row as usize * self.cols as usize + cell.col as usize
    }

    /// Target `(mean, σ)` for a cell, ms (`(0.0, 0.0)` = not traversed).
    pub fn mean_std_of(&self, cell: CellId) -> (f64, f64) {
        let i = self.idx(cell);
        match &self.values {
            Targets::Explicit { mean, std } => (mean[i], std[i]),
            Targets::Projected { model, skipped } => {
                if skipped.binary_search_by_key(&(cell.row, cell.col), row_major).is_ok() {
                    (0.0, 0.0)
                } else {
                    model.eval(self.cols, self.rows, cell)
                }
            }
        }
    }

    /// Target mean for a cell (0.0 = not traversed).
    pub fn mean_of(&self, cell: CellId) -> f64 {
        self.mean_std_of(cell).0
    }

    /// Target σ for a cell.
    pub fn std_of(&self, cell: CellId) -> f64 {
        self.mean_std_of(cell).1
    }

    /// Masks one cell: its targets read `(0.0, 0.0)` from now on.
    fn mask(&mut self, cell: CellId) {
        let i = self.idx(cell);
        match &mut self.values {
            Targets::Explicit { mean, std } => {
                mean[i] = 0.0;
                std[i] = 0.0;
            }
            Targets::Projected { skipped, .. } => skipped.push(cell),
        }
    }

    /// True when the cell was traversed by the campaign.
    pub fn traversed(&self, cell: CellId) -> bool {
        self.mean_of(cell) > 0.0
    }

    /// All traversed cells, row-major. A wide grid's cells are counted and
    /// then listed on the pool, in index-ordered chunks.
    pub fn traversed_cells(&self, grid: &GridSpec) -> Vec<CellId> {
        let cols = grid.cols as usize;
        let chunk_cells = |chunk: std::ops::Range<usize>| {
            chunk
                .map(move |i| CellId::new((i % cols) as u32, (i / cols) as u32))
                .filter(|&cell| self.traversed(cell))
        };
        let chunks = cell_chunks(grid.len());
        let lens = map_chunks(chunks.clone(), |chunk| chunk_cells(chunk).count());
        let mut out = Vec::new();
        extend_in_place(&mut out, &lens, |p, sink| {
            chunk_cells(chunks[p].clone()).for_each(|cell| sink.push(cell));
        });
        out
    }

    /// Grand mean over traversed cells, summed row-major.
    pub fn grand_mean(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for row in 0..self.rows {
            for col in 0..self.cols {
                let v = self.mean_of(CellId::new(col, row));
                if v > 0.0 {
                    sum += v;
                    n += 1;
                }
            }
        }
        sum / n as f64
    }

    /// A spec's target definition over a grid, skipped cells masked to
    /// `0.0`. Explicit matrices are copied and masked; a projected
    /// definition keeps its parameters and the skipped cells, sorted and
    /// deduplicated, and [`Self::mean_std_of`] evaluates it per cell.
    pub fn from_def(def: &TargetDef, grid: &GridSpec, skipped: &[CellId]) -> Self {
        let mut field = match def {
            TargetDef::Explicit { mean, std } => Self::from_rows(mean.clone(), std.clone()),
            TargetDef::Projected {
                floor_ms,
                gradient_ms,
                hotspot_ms,
                hotspot,
                std_factor,
                std_floor_ms,
            } => {
                let model = Projection {
                    floor_ms: *floor_ms,
                    gradient_ms: *gradient_ms,
                    hotspot_ms: *hotspot_ms,
                    hotspot: CellId::parse(hotspot).expect("validated hotspot label"),
                    std_factor: *std_factor,
                    std_floor_ms: *std_floor_ms,
                };
                let skipped = Vec::with_capacity(skipped.len());
                Self {
                    cols: grid.cols,
                    rows: grid.rows,
                    values: Targets::Projected { model, skipped },
                }
            }
        };
        for &cell in skipped {
            field.mask(cell);
        }
        if let Targets::Projected { skipped, .. } = &mut field.values {
            skipped.sort_unstable_by_key(row_major);
            skipped.dedup();
        }
        field
    }
}

/// A cell's row-major sort key.
fn row_major(cell: &CellId) -> (u32, u32) {
    (cell.row, cell.col)
}

/// Versioned packing of a cell's coordinates into the 64-bit stream-key
/// component that seeds every per-cell RNG stream.
///
/// The scheme is part of the determinism contract: every committed golden
/// number was produced under [`KeyScheme::Legacy`], so specs that were
/// expressible before the widening (grids ≤ [`crate::spec::PACKABLE_GRID_DIM`]
/// per side) must keep that packing bit-for-bit. Larger grids — where the
/// 8-bit row field would collide across cells — select [`KeyScheme::Wide`]
/// and with it the columnar sampling path. The choice is a pure function
/// of the grid dimensions, so a spec can never straddle schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeyScheme {
    /// `(col << 8) | row`: the historical packing. Collision-free exactly
    /// for grids up to 256 cells per side; all pre-widening golden bits
    /// were produced under it.
    Legacy,
    /// `(col << 32) | row`: collision-free for any 32-bit grid. Selecting
    /// this scheme also selects the columnar (batched inverse-CDF)
    /// sampling path.
    Wide,
}

impl KeyScheme {
    /// The scheme a grid of the given dimensions uses. Pure function of
    /// the dimensions — the versioning rule of the determinism contract.
    pub fn for_dims(cols: u32, rows: u32) -> Self {
        let cap = crate::spec::PACKABLE_GRID_DIM;
        if cols <= cap && rows <= cap {
            KeyScheme::Legacy
        } else {
            KeyScheme::Wide
        }
    }

    /// The scheme `grid` uses.
    pub fn for_grid(grid: &GridSpec) -> Self {
        Self::for_dims(grid.cols, grid.rows)
    }

    /// Deterministic stream-key component of a cell under this scheme.
    pub fn cell_key(self, cell: CellId) -> u64 {
        match self {
            KeyScheme::Legacy => ((cell.col as u64) << 8) | cell.row as u64,
            KeyScheme::Wide => ((cell.col as u64) << 32) | cell.row as u64,
        }
    }
}

/// The assembled scenario — everything a campaign needs to run.
pub struct Scenario {
    /// Scenario name (from the spec).
    pub name: String,
    /// Router-level topology.
    pub topo: Topology,
    /// AS business relationships.
    pub as_graph: AsGraph,
    /// Naming registry (pinned Table-I style names plus org profiles).
    pub names: NameRegistry,
    /// The measurement grid.
    pub grid: GridSpec,
    /// Traversed cells, row-major.
    pub included: Vec<CellId>,
    /// Per-cell mobile UE.
    pub ue: BTreeMap<CellId, NodeId>,
    /// The measurement anchor.
    pub anchor: NodeId,
    /// The operator gateway every UE attaches to.
    pub gw: NodeId,
    /// Fixed peer nodes of the campaign (may be empty).
    pub peers: Vec<NodeId>,
    /// Cloud reference node used by the wired baseline, if the spec has one.
    pub cloud: Option<NodeId>,
    /// Calibration targets.
    pub targets: TargetField,
    /// Calibrated per-cell access models.
    pub access: BTreeMap<CellId, FiveGAccess>,
    /// Cached routes UE(cell) → target index (anchor first, then peers).
    pub routes: BTreeMap<(CellId, usize), RoutedPath>,
    /// Scenario seed.
    pub seed: u64,
    /// Cell of the reference mobile node (Table-I-style endpoint).
    pub reference_cell: CellId,
    /// Which stream-key packing (and with it, which sampling path) this
    /// scenario uses — a pure function of the grid dimensions.
    pub key_scheme: KeyScheme,
    /// The spec this scenario was compiled from (seed policy, workload mix).
    pub spec: ScenarioSpec,
}

impl Scenario {
    /// Compiles a declarative spec into a runnable scenario.
    ///
    /// Validates first and refuses invalid specs with the first violation;
    /// use [`ScenarioSpec::validate`] to collect all of them. A valid spec
    /// whose AS relations leave a UE without a route to a measurement
    /// target fails here, with a `validation` error at `$.as_relations`:
    /// routing is part of compilation, not of `validate()`.
    pub fn from_spec(spec: &ScenarioSpec) -> Result<Self, SpecError> {
        let mut errors = spec.validate();
        if !errors.is_empty() {
            return Err(errors.remove(0));
        }
        Self::compile(spec)
    }

    /// The compilation pipeline. The spec is already validated.
    fn compile(spec: &ScenarioSpec) -> Result<Self, SpecError> {
        let seed = spec.seed;
        let grid = GridSpec::new(
            GeoPoint::new(spec.grid.origin_lat, spec.grid.origin_lon),
            spec.grid.cols,
            spec.grid.rows,
            spec.grid.cell_km,
        );
        let skipped: Vec<CellId> = spec
            .skipped_cells
            .iter()
            .map(|l| CellId::parse(l).expect("validated skip label"))
            .collect();
        let targets = TargetField::from_def(&spec.targets, &grid, &skipped);
        let included = targets.traversed_cells(&grid);
        assert!(
            !included.is_empty(),
            "spec {} traverses no cells (all targets zero or skipped)",
            spec.name
        );

        let key_scheme = KeyScheme::for_grid(&grid);

        // Topology: hops, links, UEs, peers — in spec order, so node and
        // link identifiers are a pure function of the spec.
        let mut topo = Topology::new();
        let mut names = NameRegistry::new();
        let mut hop_ids: BTreeMap<&str, NodeId> = BTreeMap::new();
        let resolve_pos = |pos: &PositionDef| -> GeoPoint {
            match pos {
                PositionDef::Geo { lat, lon } => GeoPoint::new(*lat, *lon),
                PositionDef::Cell { cell, bearing_deg, offset_km } => {
                    let cell = CellId::parse(cell).expect("validated cell label");
                    let centroid = grid.centroid(cell);
                    if *offset_km == 0.0 {
                        centroid
                    } else {
                        centroid.destination(*bearing_deg, *offset_km)
                    }
                }
            }
        };
        for hop in &spec.hops {
            let kind = parse_node_kind(&hop.kind).expect("validated node kind");
            let id =
                topo.add_node(kind, hop.name.clone(), resolve_pos(&hop.position), Asn(hop.asn));
            if let Some(ip) = hop.ip {
                names.pin_ip(id, ip);
            }
            if let Some(rdns) = &hop.rdns {
                names.pin_name(id, rdns.clone());
            }
            hop_ids.insert(hop.name.as_str(), id);
        }
        for org in &spec.orgs {
            names.register_org(
                Asn(org.asn),
                OrgProfile {
                    domain: org.domain.clone(),
                    cc: org.cc.clone(),
                    style: parse_name_style(&org.style).expect("validated name style"),
                    prefix: org.prefix,
                },
            );
        }
        for link in &spec.links {
            topo.add_link(
                hop_ids[link.a.as_str()],
                hop_ids[link.b.as_str()],
                LinkParams {
                    bandwidth_bps: link.bandwidth_bps,
                    utilisation: link.utilisation,
                    extra_ms: link.extra.mean_ms(),
                },
            );
        }

        let gw = hop_ids[spec.ue.gateway.as_str()];
        let mut ue = BTreeMap::new();
        // Wide-scheme (mega-grid) scenarios skip per-cell compilation: a
        // million UE nodes, routed paths and calibration sweeps are
        // infeasible and unnecessary — the columnar sampling path draws
        // each cell's round-trip latency directly from the target field's
        // closed form (see `MobileCampaign::collect_cell_into`). Only the
        // backbone topology (hops, links, peers) is materialised.
        let per_cell_cells: &[CellId] =
            if key_scheme == KeyScheme::Legacy { &included } else { &[] };
        for &cell in per_cell_cells {
            let id = topo.add_node(
                NodeKind::UserEquipment,
                format!("{}{}", spec.ue.name_prefix, cell.label().to_lowercase()),
                grid.centroid(cell),
                topo.node(gw).asn,
            );
            topo.add_link(
                id,
                gw,
                LinkParams {
                    bandwidth_bps: spec.ue.bandwidth_bps,
                    utilisation: spec.ue.utilisation,
                    extra_ms: spec.ue.extra.mean_ms(),
                },
            );
            ue.insert(cell, id);
        }

        let mut peers = Vec::with_capacity(spec.peers.cells.len());
        if !spec.peers.cells.is_empty() {
            let attach = hop_ids[spec.peers.attach.as_str()];
            for (i, label) in spec.peers.cells.iter().enumerate() {
                let cell = CellId::parse(label).expect("validated peer cell");
                // Offset peers from centroids so they are not co-located
                // with the mobile UE of the same cell.
                let pos =
                    grid.centroid(cell).destination(spec.peers.bearing_deg, spec.peers.offset_km);
                let id = topo.add_node(
                    NodeKind::Server,
                    format!("{}{}", spec.peers.name_prefix, i + 1),
                    pos,
                    topo.node(attach).asn,
                );
                topo.add_link(
                    id,
                    attach,
                    LinkParams {
                        bandwidth_bps: spec.peers.bandwidth_bps,
                        utilisation: spec.peers.utilisation,
                        extra_ms: spec.peers.extra.mean_ms(),
                    },
                );
                peers.push(id);
            }
        }

        let mut as_graph = AsGraph::new();
        for rel in &spec.as_relations {
            match rel.kind.as_str() {
                "transit" => as_graph.add_transit(Asn(rel.a), Asn(rel.b)),
                "peering" => as_graph.add_peering(Asn(rel.a), Asn(rel.b)),
                other => unreachable!("validated relation kind, got {other}"),
            }
        }

        let anchor = hop_ids[spec.measurement.anchor.as_str()];
        let cloud = spec.measurement.cloud.as_deref().map(|name| hop_ids[name]);
        let reference_cell =
            CellId::parse(&spec.measurement.reference_cell).expect("validated reference cell");

        let mut scenario = Self {
            name: spec.name.clone(),
            topo,
            as_graph,
            names,
            grid,
            included,
            ue,
            anchor,
            gw,
            peers,
            cloud,
            targets,
            access: BTreeMap::new(),
            routes: BTreeMap::new(),
            seed,
            reference_cell,
            key_scheme,
            spec: spec.clone(),
        };
        if scenario.key_scheme == KeyScheme::Legacy {
            scenario.compute_routes()?;
            scenario.calibrate();
        }
        Ok(scenario)
    }

    /// The synthetic population-density raster: a monocentric profile from
    /// the spec's `density` parameters, made consistent with the traversal
    /// plan — every traversed cell dense, every skipped cell sparse (the
    /// paper ties its 0.0 cells to the <1000 /km² threshold).
    ///
    /// No campaign reads it: the traversal and the samples depend only on
    /// the grid and the target field. So compilation does not build it,
    /// and each call builds it afresh on the calling thread; call it once,
    /// outside any per-cell loop.
    pub fn density(&self) -> DensityRaster {
        // Jitter folds the scheme's cell key into the seed; under the
        // legacy scheme the key's bit-fields are disjoint, so the XOR is
        // bit-identical to the historical `seed ^ (col << 8) ^ row` form.
        let d = &self.spec.density;
        let mut density =
            DensityRaster::synth_urban(&self.grid, d.core_col, d.core_row, d.peak, d.decay_cells);
        for cell in self.grid.cells() {
            let current = density.density(cell);
            let jitter =
                (sixg_geo::mobility::mix64(self.seed ^ self.cell_key(cell)) % d.jitter_mod) as f64;
            if self.targets.traversed(cell) && current < SPARSE_THRESHOLD {
                density.set_density(cell, d.dense_fill + jitter);
            } else if !self.targets.traversed(cell) && current >= SPARSE_THRESHOLD {
                density.set_density(cell, d.sparse_fill + jitter);
            }
        }
        density
    }

    /// Recomputes the cached routes after a topology or policy mutation
    /// (used by the recommendation engines when they add peering links or
    /// UPF breakouts). Panics when the mutation leaves a UE unroutable.
    pub fn refresh_routes(&mut self) {
        self.routes.clear();
        if let Err(e) = self.compute_routes() {
            panic!("{}", e.message);
        }
    }

    /// The extra-delay distribution of every link, indexed by `LinkId`.
    ///
    /// The compilation pipeline inserts links in a fixed order — the spec's
    /// `links` array, then one UE access link per traversed cell, then the
    /// peer access links — so the spec's declarative
    /// [`DistSpec`](sixg_netsim::dist::DistSpec)s can be
    /// recovered per link id. The analytic sampler collapses each to its
    /// mean (`LinkParams::extra_ms`); the event backend samples the full
    /// distribution. Links added after compilation (peering/UPF
    /// recommendations) fall back to a constant at their stored mean, which
    /// keeps the two conventions consistent in expectation.
    pub fn link_extra_specs(&self) -> Vec<sixg_netsim::dist::DistSpec> {
        use sixg_netsim::dist::DistSpec;
        let mut extras: Vec<DistSpec> = self
            .topo
            .links()
            .iter()
            .map(|l| DistSpec::Constant { ms: l.params.extra_ms })
            .collect();
        let mut next = 0usize;
        for link in &self.spec.links {
            extras[next] = link.extra;
            next += 1;
        }
        for _ in self.ue.values() {
            extras[next] = self.spec.ue.extra;
            next += 1;
        }
        for _ in &self.peers {
            extras[next] = self.spec.peers.extra;
            next += 1;
        }
        extras
    }

    /// Measurement targets in campaign order: anchor first, then peers.
    pub fn measurement_targets(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(1 + self.peers.len());
        v.push(self.anchor);
        v.extend(self.peers.iter().copied());
        v
    }

    /// Routes every UE to every measurement target. A pair the AS
    /// relations leave unroutable is a `validation` error at
    /// `$.as_relations` naming the cell and the target.
    fn compute_routes(&mut self) -> Result<(), SpecError> {
        let pc = PathComputer::new(&self.topo, &self.as_graph);
        let targets = self.measurement_targets();
        for (&cell, &ue) in &self.ue {
            for (ti, &t) in targets.iter().enumerate() {
                let path = pc.route(ue, t).ok_or_else(|| {
                    SpecError::new(
                        "$.as_relations",
                        format!(
                            "no route from {cell} to target {ti} ({}): the AS relations leave \
                             no policy-compliant path from the UE's AS to the target's",
                            self.topo.node(t).name
                        ),
                    )
                })?;
                self.routes.insert((cell, ti), path);
            }
        }
        Ok(())
    }

    /// Empirical wire-path RTT statistics (mean, variance) for a cell's
    /// target mixture, from `n` deterministic samples on the spec's
    /// calibration stream.
    pub fn wire_rtt_stats(&self, cell: CellId, n: usize) -> (f64, f64) {
        let sampler = DelaySampler::new(&self.topo);
        self.wire_rtt_stats_with(&sampler, self.measurement_targets().len(), cell, n)
    }

    /// [`Self::wire_rtt_stats`] over a caller-built sampler, so calibration
    /// builds the per-hop table once for every cell.
    fn wire_rtt_stats_with(
        &self,
        sampler: &DelaySampler,
        target_count: usize,
        cell: CellId,
        n: usize,
    ) -> (f64, f64) {
        let key = StreamKey::root(self.seed)
            .with_label(&self.spec.calibration.label)
            .with(self.cell_key(cell));
        let mut rng = SimRng::for_stream(key);
        let paths: Vec<&RoutedPath> =
            (0..target_count).map(|ti| &self.routes[&(cell, ti)]).collect();
        let mut w = Welford::new();
        for i in 0..n {
            w.push(sampler.rtt_ms(&paths[i % target_count].hops, 64, &mut rng));
        }
        (w.mean(), w.variance())
    }

    /// Inverts the analytic 5G access model per traversed cell so that wire
    /// path plus air interface reproduces the target mean/σ field.
    ///
    /// Cells calibrate on the thread pool. Each cell draws from its own
    /// calibration stream, and results are collected in `included` order,
    /// so the access models do not depend on the pool size.
    fn calibrate(&mut self) {
        let samples = self.spec.calibration.samples as usize;
        let sampler = DelaySampler::new(&self.topo);
        let target_count = self.measurement_targets().len();
        let fitted: Vec<FiveGAccess> = self
            .included
            .par_iter()
            .map(|&cell| {
                let (wire_mean, wire_var) =
                    self.wire_rtt_stats_with(&sampler, target_count, cell, samples);
                let target_mean = self.targets.mean_of(cell);
                let target_std = self.targets.std_of(cell);
                let access_mean = (target_mean - wire_mean).max(1.0);
                let access_var = (target_std * target_std - wire_var).max(0.01);
                FiveGAccess::fit(access_mean, access_var.sqrt())
            })
            .collect();
        self.access = self.included.iter().copied().zip(fitted).collect();
    }

    /// Deterministic stream-key component of a cell under this scenario's
    /// [`KeyScheme`].
    pub fn cell_key(&self, cell: CellId) -> u64 {
        self.key_scheme.cell_key(cell)
    }

    /// Calibrated access model for a traversed cell.
    pub fn access_for(&self, cell: CellId) -> &FiveGAccess {
        self.access.get(&cell).unwrap_or_else(|| panic!("cell {cell} not traversed / calibrated"))
    }

    /// The reference endpoints: mobile UE in the spec's reference cell and
    /// the anchor (C2 → E3 for the Klagenfurt Table I).
    pub fn table1_endpoints(&self) -> (NodeId, NodeId) {
        (self.ue[&self.reference_cell], self.anchor)
    }

    /// The grid cell containing the anchor.
    pub fn anchor_cell(&self) -> CellId {
        self.grid.locate(self.topo.node(self.anchor).pos).expect("anchor inside grid")
    }

    /// Runs a uniform campaign: `samples_per_cell` pings from every
    /// traversed cell across the target mixture, aggregated per cell.
    ///
    /// Simpler than the mobility-driven [`crate::campaign::MobileCampaign`]
    /// (no traversal, no dwell-time variation) — useful for projected
    /// scenarios and quick field checks.
    pub fn run_uniform_campaign(&self, samples_per_cell: usize, seed: u64) -> crate::CellField {
        let mut field = crate::CellField::new(self.grid.clone());
        let sampler = DelaySampler::new(&self.topo);
        let targets = self.measurement_targets();
        for &cell in &self.included {
            let access = &self.access[&cell];
            let key = StreamKey::root(self.seed)
                .with_label("uniform-campaign")
                .with(seed)
                .with(self.cell_key(cell));
            let mut rng = SimRng::for_stream(key);
            for i in 0..samples_per_cell {
                let path = &self.routes[&(cell, i % targets.len())];
                let rtt = sampler.rtt_ms(&path.hops, 64, &mut rng) + access.sample_rtt_ms(&mut rng);
                field.push(cell, rtt);
            }
        }
        field
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_field_round_trips_rows() {
        let mean = vec![vec![0.0, 61.0], vec![70.0, 0.0]];
        let std = vec![vec![0.0, 4.1], vec![8.5, 0.0]];
        let t = TargetField::from_rows(mean, std);
        assert_eq!(t.dims(), (2, 2));
        assert_eq!(t.mean_of(CellId::new(1, 0)), 61.0);
        assert_eq!(t.std_of(CellId::new(0, 1)), 8.5);
        assert!(t.traversed(CellId::new(1, 0)));
        assert!(!t.traversed(CellId::new(0, 0)));
        assert!((t.grand_mean() - 65.5).abs() < 1e-12);
    }

    #[test]
    fn projected_field_matches_formula_and_masks_skips() {
        let grid = GridSpec::new(GeoPoint::new(42.02, 21.38), 5, 6, 1.0);
        let def = TargetDef::Projected {
            floor_ms: 66.0,
            gradient_ms: 22.0,
            hotspot_ms: 26.0,
            hotspot: "C3".into(),
            std_factor: 0.75,
            std_floor_ms: 2.0,
        };
        // Out of row-major order, with a repeat, as a spec may list them.
        let skipped: Vec<CellId> =
            ["E6", "A1", "C1", "A4", "A1"].iter().map(|l| CellId::parse(l).unwrap()).collect();
        let t = TargetField::from_def(&def, &grid, &skipped);
        for &cell in &skipped {
            assert_eq!(t.mean_std_of(cell), (0.0, 0.0), "{cell} masked");
        }
        let traversed = t.traversed_cells(&grid);
        assert_eq!(traversed.len(), 30 - 4);
        assert!(traversed.iter().all(|c| !skipped.contains(c)));
        // B1: diag = (1/4 + 0/5)/2 = 0.125 → 66 + 22·0.125.
        let b1 = t.mean_of(CellId::parse("B1").unwrap());
        assert!((b1 - (66.0 + 22.0 * 0.125)).abs() < 1e-12, "{b1}");
        // The hotspot carries its extra peak and the coupled σ.
        let c3 = CellId::parse("C3").unwrap();
        assert!(t.mean_of(c3) > 26.0 + 66.0);
        assert!((t.std_of(c3) - 0.75 * (t.mean_of(c3) - 66.0)).abs() < 1e-12);
        // Far from the hotspot the σ floor applies.
        assert_eq!(t.std_of(CellId::parse("B1").unwrap()), 0.75 * 22.0 * 0.125);
    }

    fn access_bits(s: &Scenario) -> Vec<(CellId, u64, u64)> {
        s.access
            .iter()
            .map(|(&cell, a)| (cell, a.env.load.to_bits(), a.env.interference.to_bits()))
            .collect()
    }

    /// Calibration runs on the pool, but every cell owns its stream, so
    /// the calibrated access models are the same bits at any pool size.
    #[test]
    fn calibration_is_bitwise_independent_of_pool_size() {
        use crate::parallel::with_thread_count;
        for spec in [
            crate::klagenfurt::klagenfurt_spec(),
            crate::klagenfurt::klagenfurt_flap_spec(),
            crate::skopje::skopje_spec(),
            crate::megacity::megacity_spec(),
        ] {
            let one = with_thread_count(1, || Scenario::from_spec(spec)).expect("compiles");
            let four = with_thread_count(4, || Scenario::from_spec(spec)).expect("compiles");
            assert_eq!(one.access.len(), one.included.len(), "{}", spec.name);
            assert_eq!(access_bits(&one), access_bits(&four), "{}", spec.name);
        }
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_matrices_rejected() {
        let _ = TargetField::from_rows(
            vec![vec![1.0, 2.0], vec![3.0]],
            vec![vec![0.1, 0.2], vec![0.3]],
        );
    }
}
