//! The mobile measurement campaign (Figures 2–3) and Table-I traceroute.
//!
//! A mobile node traverses the traversed cells along the street grid; in
//! each cell it pings the anchor and the eight peers at a fixed cadence
//! for as long as it dwells there, so per-cell sample counts vary with
//! traffic flow exactly as in the paper. Samples are RIPE-Atlas-style pure
//! network RTTs: wire path + radio access, no application processing.

use crate::parallel::{assert_row_major, extend_in_place, row_chunks};
use crate::scenario::{KeyScheme, Scenario};
use bytes::Arena;
use serde::{Deserialize, Serialize};
use sixg_geo::mobility::ManhattanMobility;
use sixg_geo::CellId;
use sixg_netsim::dist::{Normal, Quantile};
use sixg_netsim::latency::DelaySampler;
use sixg_netsim::protocols::icmp::Pinger;
use sixg_netsim::radio::AccessModel;
use sixg_netsim::rng::{SimRng, StreamKey};
use sixg_netsim::topology::NodeId;
use sixg_netsim::trace::FlowTrace;
use std::cell::RefCell;

thread_local! {
    /// Worker-local column buffer for the wide scheme's batched draws: one
    /// uniforms column per shard, recycled across every shard a worker
    /// executes so the steady-state hot loop allocates nothing.
    static UNIFORM_COLUMN: RefCell<Arena<f64>> = RefCell::new(Arena::new());
}

/// Campaign configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CampaignConfig {
    /// Campaign seed (combined with the scenario seed).
    pub seed: u64,
    /// Seconds between consecutive measurements while dwelling in a cell.
    pub sample_interval_s: f64,
    /// Number of grid traversals ("passes"). The paper's campaign used
    /// multiple mobile nodes; each pass models one node's sweep.
    pub passes: u32,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self { seed: 1, sample_interval_s: 2.0, passes: 1 }
    }
}

impl CampaignConfig {
    /// A dense configuration for tight statistical reproduction (used by
    /// golden tests and the figure regeneration binaries).
    pub fn dense(seed: u64) -> Self {
        Self { seed, sample_interval_s: 2.0, passes: 30 }
    }
}

/// One (pass, cell) unit of campaign work — the shard granularity of the
/// parallel runner. The shard's random stream is derived from `(campaign
/// seed, pass, cell)`, so shards can be sampled in any order, on any
/// thread, and still produce the exact values of a sequential run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Shard {
    /// Traversal pass this shard belongs to.
    pub pass: u32,
    /// Cell visited.
    pub cell: CellId,
    /// Dwell time in the cell, seconds (sets the sample count).
    pub dwell_s: f64,
}

/// Number of samples taken in a dwell of `dwell_s` seconds at a cadence of
/// `interval_s` seconds: `(dwell / interval).round().max(1)`. It never
/// increases as the interval grows, so at a given dwell a coarser cadence
/// takes a prefix of a finer one's sample indices. A lane of a draw group
/// (see [`crate::parallel::run_plain`]) counts its samples here at its own
/// cadence.
pub(crate) fn samples_at(interval_s: f64, dwell_s: f64) -> usize {
    debug_assert!(
        interval_s.is_finite() && interval_s > 0.0,
        "sample_interval_s must be finite and positive, got {interval_s}"
    );
    debug_assert!(
        dwell_s.is_finite() && dwell_s >= 0.0,
        "dwell_s must be finite and non-negative, got {dwell_s}"
    );
    (dwell_s / interval_s).round().max(1.0) as usize
}

/// The mobile campaign runner, over any spec-compiled [`Scenario`].
///
/// Construction hoists everything shards share — the path sampler, the
/// target list and the stream-key prefix — so the per-shard hot path
/// ([`Self::collect_cell_into`]) does no redundant setup work.
pub struct MobileCampaign<'a> {
    scenario: &'a Scenario,
    config: CampaignConfig,
    sampler: DelaySampler<'a>,
    targets: Vec<NodeId>,
    /// [`Self::key_prefix`] of the analytic phase label, `"campaign"`.
    key: StreamKey,
}

impl<'a> MobileCampaign<'a> {
    /// Creates a campaign over a scenario.
    pub fn new(scenario: &'a Scenario, config: CampaignConfig) -> Self {
        Self {
            scenario,
            config,
            sampler: DelaySampler::new(&scenario.topo),
            targets: scenario.measurement_targets(),
            key: Self::key_prefix(scenario, config, "campaign"),
        }
    }

    /// Number of samples taken in a cell during one pass, derived from the
    /// dwell time (traffic-flow dependent) and the sampling cadence.
    ///
    /// Inputs must be finite and the cadence positive — a zero, negative
    /// or NaN cadence would turn the division into `inf`/NaN and the
    /// saturating cast into a `usize::MAX` allocation request.
    /// [`crate::spec::ScenarioSpec::validate`] rejects such specs before a
    /// campaign is built; the debug assertions catch direct API misuse.
    pub fn samples_for_dwell(&self, dwell_s: f64) -> usize {
        samples_at(self.config.sample_interval_s, dwell_s)
    }

    /// The part of every shard key of phase `label` that no shard changes:
    /// (scenario seed, label, campaign seed). The analytic backend uses
    /// `"campaign"`, the event backend its own label; each campaign
    /// computes its prefix once.
    pub(crate) fn key_prefix(
        scenario: &Scenario,
        config: CampaignConfig,
        label: &str,
    ) -> StreamKey {
        StreamKey::root(scenario.seed).with_label(label).with(config.seed)
    }

    /// The shard random-stream key: a phase's [`Self::key_prefix`], then
    /// the pass and the packed cell, shared verbatim by both execution
    /// backends.
    pub(crate) fn shard_key(&self, prefix: StreamKey, pass: u32, cell: CellId) -> StreamKey {
        prefix.with(pass as u64).with(self.scenario.cell_key(cell))
    }

    /// Samples of one (pass, cell) pair, in cadence order, into a
    /// caller-owned buffer (cleared first), so tight loops — the runners
    /// visit thousands of shards — can reuse one allocation instead of
    /// growing a fresh `Vec` per shard.
    ///
    /// Each sample draws from a stream keyed by (campaign seed, pass, cell,
    /// sample index), so the thread-pool runner can execute shards in any
    /// order on any worker and still produce the sequential runner's exact
    /// values — parallel and sequential runs are bitwise equal.
    ///
    /// The cadence sets only the sample count ([`Self::samples_for_dwell`]);
    /// no draw reads it. So at a coarser cadence, with the same scenario,
    /// seed and shard, the samples are a prefix of these: the legacy scheme
    /// keys each sample by its index, and the wide scheme's uniforms column
    /// is one stream read front to back. A sweep's runs that differ only in
    /// cadence draw once, at the finest, and each coarser run folds its
    /// prefix.
    pub fn collect_cell_into(&self, pass: u32, cell: CellId, dwell_s: f64, out: &mut Vec<f64>) {
        if self.scenario.key_scheme == KeyScheme::Wide {
            return self.collect_cell_wide(pass, cell, dwell_s, out);
        }
        let s = self.scenario;
        let access = s.access_for(cell);
        let n = self.samples_for_dwell(dwell_s);
        let key = self.shard_key(self.key, pass, cell);
        out.clear();
        out.reserve(n);
        for i in 0..n {
            let mut rng = SimRng::for_stream(key.with(i as u64));
            let ti = rng.below(self.targets.len() as u64) as usize;
            let path = &s.routes[&(cell, ti)];
            let wire = self.sampler.rtt_ms(&path.hops, 64, &mut rng);
            let air = access.sample_rtt_ms(&mut rng);
            out.push(wire + air);
        }
    }

    /// The wide scheme's columnar hot path: one (pass, cell) shard becomes
    /// one RNG stream advanced once per *block* — a uniforms column filled
    /// from the shard stream, then a tight batched inverse-CDF loop
    /// ([`Quantile::inverse_cdf_block`]) over the cell's target
    /// distribution, clamped at zero.
    ///
    /// Mega-grid scenarios compile without per-cell topology (see
    /// [`Scenario`]'s compile pipeline), so a cell's round-trip latency is
    /// drawn directly from `Normal(target mean, target σ)` — the field the
    /// legacy path's wire + air calibration is constructed to reproduce.
    /// Determinism: the draw order is a pure function of (scenario seed,
    /// campaign seed, pass, wide cell key, sample index), so shards can run
    /// on any worker in any order and fold back bitwise-identically,
    /// exactly as in the legacy scheme. The uniforms column lives in a
    /// worker-local arena; the `u = 0.0` edge draw maps through
    /// `quantile(0) = -∞` to the clamp, never a panic.
    fn collect_cell_wide(&self, pass: u32, cell: CellId, dwell_s: f64, out: &mut Vec<f64>) {
        let s = self.scenario;
        let n = self.samples_for_dwell(dwell_s);
        let key = self.shard_key(self.key, pass, cell);
        let dist = Normal::new(s.targets.mean_of(cell), s.targets.std_of(cell));
        out.clear();
        out.resize(n, 0.0);
        UNIFORM_COLUMN.with(|column| {
            let mut arena = column.borrow_mut();
            arena.reset();
            let u = arena.alloc_fill(n, 0.0);
            let mut rng = SimRng::for_stream(key);
            for v in arena.get_mut(u) {
                *v = rng.unit();
            }
            dist.inverse_cdf_block(arena.get(u), out);
        });
        for v in out.iter_mut() {
            *v = v.max(0.0);
        }
    }

    /// The scenario this campaign runs over.
    pub fn scenario(&self) -> &'a Scenario {
        self.scenario
    }

    /// The campaign configuration.
    pub fn config(&self) -> CampaignConfig {
        self.config
    }

    /// The measurement targets, in campaign order (anchor first).
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// The path sampler over the scenario's topology, shared with the
    /// packet-level backends so every backend reads one per-hop table.
    pub(crate) fn sampler(&self) -> &DelaySampler<'a> {
        &self.sampler
    }

    /// The mobility model of one pass (deterministic in scenario +
    /// campaign seed).
    fn mobility(&self, pass: u32) -> ManhattanMobility {
        ManhattanMobility::urban(
            self.scenario.seed ^ self.config.seed.rotate_left(16) ^ pass as u64,
        )
    }

    /// The per-pass traversal (deterministic in scenario + campaign seed).
    pub fn traversal(&self, pass: u32) -> sixg_geo::mobility::Traversal {
        self.mobility(pass).traverse(&self.scenario.grid, &self.scenario.included)
    }

    /// The work item of `cell` in pass `pass`: the traversal visits each
    /// included cell once per pass, and the dwell depends only on the
    /// pass's mobility seed and the cell ([`ManhattanMobility::visit`]).
    pub(crate) fn shard(&self, pass: u32, cell: CellId) -> Shard {
        Shard { pass, cell, dwell_s: self.mobility(pass).visit(cell).dwell_s }
    }

    /// The full campaign work list, in sequential execution order: the
    /// visits of [`Self::traversal`] for every pass in turn.
    ///
    /// Callers that address work items by index consume this list: sweeps
    /// and the sequential oracle ([`crate::exec::run_field_sequential`]),
    /// in order. A plain run on the pool ([`crate::exec::run_field`]) never
    /// builds it: each range worker generates its own cells' items and
    /// accumulates each cell's samples pass by pass, the order this list
    /// gives them — which is what makes the two bitwise interchangeable.
    ///
    /// The list is allocated once, on the calling thread, and each pass is
    /// written into it in place by row chunks ([`ManhattanMobility::visit_row`]
    /// over each row's cells of [`Scenario::included`], which is row-major),
    /// on the pool when the grid spans more than one chunk. It holds no
    /// intermediate copy: at continental scale a pass is 10⁶ shards.
    /// Panics when `included` is not row-major, unique and inside the grid.
    pub fn shards(&self) -> Vec<Shard> {
        let s = self.scenario;
        let included = &s.included;
        assert_row_major(&s.grid, included);
        let chunks = row_chunks(s.grid.rows, s.grid.cols as usize);
        // `included` is row-major, so each row chunk's cells are one run.
        let mut bounds: Vec<usize> =
            chunks.iter().map(|rows| included.partition_point(|c| c.row < rows.start)).collect();
        bounds.push(included.len());
        let lens: Vec<usize> = bounds.windows(2).map(|w| w[1] - w[0]).collect();
        let mut out = Vec::new();
        let passes = self.config.passes as usize;
        out.reserve_exact(included.len().checked_mul(passes).expect("work list length fits usize"));
        for pass in 0..self.config.passes {
            let mobility = self.mobility(pass);
            extend_in_place(&mut out, &lens, |p, sink| {
                let mut cells = &included[bounds[p]..bounds[p + 1]];
                for row in chunks[p].clone() {
                    let (this_row, rest) = cells.split_at(cells.partition_point(|c| c.row == row));
                    cells = rest;
                    mobility.visit_row(row, this_row.iter().map(|c| c.col), |v| {
                        sink.push(Shard { pass, cell: v.cell, dwell_s: v.dwell_s })
                    });
                }
            });
        }
        out
    }

    /// Samples of one shard, in cadence order, into a caller-owned buffer
    /// (cleared first; see [`Self::collect_cell_into`]).
    pub fn collect_shard_into(&self, shard: Shard, out: &mut Vec<f64>) {
        self.collect_cell_into(shard.pass, shard.cell, shard.dwell_s, out);
    }

    /// The Table-I-style traceroute: the scenario's reference mobile node
    /// (C2 for Klagenfurt) → the anchor, rendered from the spec's rDNS
    /// vantage city.
    pub fn table1_traceroute(&self, rep: u64) -> FlowTrace {
        let s = self.scenario;
        let (ue, anchor) = s.table1_endpoints();
        let pc = sixg_netsim::routing::PathComputer::new(&s.topo, &s.as_graph);
        let pinger = Pinger::new(&pc, &s.names, &s.spec.measurement.rdns_city);
        let access = s.access_for(s.reference_cell);
        let key = StreamKey::root(s.seed).with_label("traceroute").with(rep);
        let mut rng = SimRng::for_stream(key);
        pinger.traceroute(ue, anchor, Some(access), &mut rng).expect("table1 path must route")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_field;
    use crate::klagenfurt::KlagenfurtScenario;
    use crate::spec::ExecBackend;
    use sixg_netsim::stats::Welford;

    fn scenario() -> KlagenfurtScenario {
        KlagenfurtScenario::paper(0x6B6C_7531)
    }

    #[test]
    fn default_campaign_reports_all_traversed_cells() {
        let s = scenario();
        let field = run_field(&s, CampaignConfig::default(), ExecBackend::Analytic);
        let reported = field.reported();
        assert_eq!(reported.len(), 33);
        // Skipped cells masked at 0.0.
        for cell in s.grid.cells() {
            let st = field.stats(cell);
            if s.targets.traversed(cell) {
                assert!(st.count >= 10, "cell {cell} has {}", st.count);
            } else {
                assert!(st.is_masked());
                assert_eq!(st.mean_ms, 0.0);
            }
        }
    }

    #[test]
    fn sample_counts_vary_with_traffic_flow() {
        let s = scenario();
        let field = run_field(&s, CampaignConfig::default(), ExecBackend::Analytic);
        let counts: Vec<u64> = field.reported().iter().map(|st| st.count).collect();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max > min, "dwell jitter must vary counts ({min}..{max})");
    }

    #[test]
    fn dense_campaign_reproduces_figure2_anchors() {
        let s = scenario();
        let field = run_field(&s, CampaignConfig::dense(7), ExecBackend::Analytic);
        let c1 = field.stats(CellId::parse("C1").unwrap());
        let c3 = field.stats(CellId::parse("C3").unwrap());
        assert!((c1.mean_ms - 61.0).abs() < 2.0, "C1 {}", c1.mean_ms);
        assert!((c3.mean_ms - 110.0).abs() < 3.0, "C3 {}", c3.mean_ms);
        let (min, max) = field.mean_extrema().unwrap();
        assert_eq!(min.cell.label(), "C1");
        assert_eq!(max.cell.label(), "C3");
        // Grand mean drives the paper's 270% claim.
        let gm = field.grand_mean_ms();
        assert!((gm - 74.1).abs() < 1.5, "grand mean {gm}");
    }

    #[test]
    fn dense_campaign_reproduces_figure3_anchors() {
        let s = scenario();
        let field = run_field(&s, CampaignConfig::dense(8), ExecBackend::Analytic);
        let b3 = field.stats(CellId::parse("B3").unwrap());
        let e5 = field.stats(CellId::parse("E5").unwrap());
        assert!((b3.std_ms - 1.8).abs() < 0.5, "B3 σ {}", b3.std_ms);
        assert!((e5.std_ms - 46.4).abs() < 4.0, "E5 σ {}", e5.std_ms);
        let (min, max) = field.std_extrema().unwrap();
        assert_eq!(min.cell.label(), "B3");
        assert_eq!(max.cell.label(), "E5");
    }

    #[test]
    fn campaign_is_deterministic() {
        let s = scenario();
        let a = run_field(&s, CampaignConfig::default(), ExecBackend::Analytic);
        let b = run_field(&s, CampaignConfig::default(), ExecBackend::Analytic);
        for cell in s.grid.cells() {
            assert_eq!(a.stats(cell), b.stats(cell));
        }
    }

    #[test]
    fn table1_traceroute_matches_paper_shape() {
        let s = scenario();
        let c = MobileCampaign::new(&s, CampaignConfig::default());
        let trace = c.table1_traceroute(0);
        assert_eq!(trace.hop_count(), 10);
        // Mean RTL over repetitions ≈ 65 ms (C2's Figure-2 value).
        let mut w = Welford::new();
        for rep in 0..300 {
            w.push(c.table1_traceroute(rep).total_rtt_ms());
        }
        assert!((w.mean() - 65.0).abs() < 1.5, "mean RTL {}", w.mean());
    }

    #[test]
    fn traceroute_renders_table1_rows() {
        let s = scenario();
        let c = MobileCampaign::new(&s, CampaignConfig::default());
        let table = c.table1_traceroute(0).render_table();
        for needle in [
            "10.12.128.1",
            "unn-37-19-223-61.datapacket.com [37.19.223.61]",
            "vl204.vie-itx1-core-2.cdn77.com [185.156.45.138]",
            "zetservers.peering.cz [185.0.20.31]",
            "vie-dr2-cr1.zet.net [103.246.249.33]",
            "amanet-cust.zet.net [185.104.63.33]",
            "ae2-97.mx204-1.ix.vie.at.as39912.net [185.211.219.155]",
            "003-228-016-195.ascus.at [195.16.228.3]",
            "180-246-016-195.ascus.at [195.16.246.180]",
            "195.140.139.133",
        ] {
            assert!(table.contains(needle), "missing {needle} in\n{table}");
        }
    }

    /// The legacy per-cell stream-key packing `(col << 8) | row` must be
    /// injective over the whole packable range — a collision would hand
    /// two cells the same RNG stream and silently duplicate their samples.
    /// Larger grids select [`KeyScheme::Wide`] instead.
    #[test]
    fn cell_stream_keys_are_unique_over_packable_range() {
        let mut seen = std::collections::HashSet::new();
        for col in 0..256u32 {
            for row in 0..256u32 {
                let cell = CellId::new(col, row);
                let key = KeyScheme::Legacy.cell_key(cell);
                // Bit-for-bit the historical packing (goldens depend on it).
                assert_eq!(key, ((col as u64) << 8) | row as u64);
                assert!(seen.insert(key), "stream key collision at {cell}");
            }
        }
        assert_eq!(seen.len(), 256 * 256);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "sample_interval_s must be finite and positive")]
    fn zero_sample_interval_is_a_debug_assert() {
        let s = scenario();
        let c = MobileCampaign::new(
            &s,
            CampaignConfig { sample_interval_s: 0.0, ..Default::default() },
        );
        let _ = c.samples_for_dwell(10.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "dwell_s must be finite and non-negative")]
    fn nan_dwell_is_a_debug_assert() {
        let s = scenario();
        let c = MobileCampaign::new(&s, CampaignConfig::default());
        let _ = c.samples_for_dwell(f64::NAN);
    }

    /// The plan is written by row chunks on the pool, yet it must be the
    /// traversal of every pass, concatenated. The grid spans three row
    /// chunks, and skipped cells give them different cell counts: 100
    /// skipped in the first, a full row and a run of the next in the
    /// second, none in the third.
    #[test]
    fn row_chunked_plan_is_the_traversal_at_every_pool_size() {
        use crate::parallel::with_thread_count;
        let mut spec = crate::skopje::skopje_spec().clone();
        spec.grid.cols = 300;
        spec.grid.rows = 500;
        let skipped = (0..100)
            .map(|c| CellId::new(c, 100))
            .chain((0..300).map(|c| CellId::new(c, 300)))
            .chain((10..20).map(|c| CellId::new(c, 301)));
        spec.skipped_cells.extend(skipped.map(|c| c.label()));
        let s = Scenario::from_spec(&spec).expect("resized spec compiles");
        assert_eq!(s.key_scheme, KeyScheme::Wide);
        let c = MobileCampaign::new(&s, CampaignConfig { passes: 3, ..Default::default() });
        let expected: Vec<Shard> = (0..3)
            .flat_map(|pass| {
                c.traversal(pass).visits.into_iter().map(move |v| Shard {
                    pass,
                    cell: v.cell,
                    dwell_s: v.dwell_s,
                })
            })
            .collect();
        assert_eq!(expected.len(), 3 * (150_000 - 6 - 410));
        for threads in [1usize, 2, 8] {
            let shards = with_thread_count(threads, || c.shards());
            assert!(shards == expected, "{threads} threads: the plan differs from the traversal");
        }
    }

    #[test]
    fn more_passes_more_samples() {
        let s = scenario();
        let config = |passes| CampaignConfig { passes, ..Default::default() };
        let one = run_field(&s, config(1), ExecBackend::Analytic);
        let three = run_field(&s, config(3), ExecBackend::Analytic);
        assert!(three.total_samples() > 2 * one.total_samples());
    }
}
