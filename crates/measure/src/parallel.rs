//! Multi-threaded campaign execution on the rayon thread pool.
//!
//! Campaigns are embarrassingly parallel across [`Shard`]s — (pass, cell)
//! work items — because every shard draws from its own derived random
//! stream (see [`sixg_netsim::rng`]). A plain run (`run_shards`) splits
//! the field's cells into contiguous row-major ranges; each pool worker
//! (`RAYON_NUM_THREADS` controls how many) samples the shards of the
//! ranges it claims and pushes their samples straight into those ranges'
//! accumulators, **in work-list order**. Every cell therefore sees the
//! sequential runner's exact floating-point accumulation sequence, so the
//! result is bitwise identical for every pool size — asserted by the
//! `parallel_equals_sequential_bitwise` thread-count matrix test. A
//! sweep's runs go through the sweep's own round-based fold (see
//! [`crate::sweep`]); both drive the same `Runner`, the one place a run's
//! backend is chosen.

use crate::aggregate::CellField;
use crate::campaign::{CampaignConfig, MobileCampaign, Shard};
use crate::event_backend::EventCampaign;
use crate::faults::{FaultCampaign, FaultShard};
use crate::scenario::Scenario;
use crate::spec::ExecBackend;
use rayon::prelude::*;
use sixg_geo::CellId;

/// One run's campaign runner with its typed work list — the single place
/// the backend is chosen, for plain runs ([`crate::exec::run_field`]) and
/// every run of a sweep plan alike. Both backends run over the same shard
/// list and are bitwise-deterministic at every pool size; they differ
/// only in how a shard's samples are produced (closed-form draws vs
/// packet-level event simulation).
pub(crate) enum Runner<'a> {
    /// Closed-form analytic sampler.
    Analytic(Vec<Shard>, MobileCampaign<'a>),
    /// The packet world over the static routing table.
    Event(Vec<Shard>, EventCampaign<'a>),
    /// The packet world over a spec with a fault schedule: each shard's
    /// start offset resolves the timeline.
    Faulted(Vec<FaultShard>, FaultCampaign<'a>),
}

impl<'a> Runner<'a> {
    /// The runner of `backend` over `scenario`, with its work list built.
    pub(crate) fn new(
        scenario: &'a Scenario,
        config: CampaignConfig,
        backend: ExecBackend,
    ) -> Self {
        match backend {
            ExecBackend::Analytic => {
                let c = MobileCampaign::new(scenario, config);
                Self::Analytic(c.shards(), c)
            }
            ExecBackend::Event if scenario.spec.faults.is_empty() => {
                let c = EventCampaign::new(scenario, config);
                Self::Event(c.shards(), c)
            }
            // A fault schedule needs the live control plane: same shard
            // list and stream keys, but routes come from the BGP speakers'
            // RIBs wherever the timeline touches a shard.
            ExecBackend::Event => {
                let c = FaultCampaign::new(scenario, config);
                Self::Faulted(c.shards(), c)
            }
        }
    }

    /// The work list's length.
    pub(crate) fn len(&self) -> usize {
        match self {
            Self::Analytic(w, _) | Self::Event(w, _) => w.len(),
            Self::Faulted(w, _) => w.len(),
        }
    }

    /// Work item `i`'s `(pass, cell, dwell)` shard.
    pub(crate) fn shard(&self, i: usize) -> Shard {
        match self {
            Self::Analytic(w, _) | Self::Event(w, _) => w[i],
            Self::Faulted(w, _) => w[i].shard,
        }
    }

    /// Collects work item `i`'s samples into `buf`.
    pub(crate) fn collect(&self, i: usize, buf: &mut Vec<f64>) {
        match self {
            Self::Analytic(w, c) => c.collect_shard_into(w[i], buf),
            Self::Event(w, c) => c.collect_shard_into(w[i], buf),
            Self::Faulted(w, c) => c.collect_shard_into(w[i], buf),
        }
    }

    /// Runs the whole work list on the thread pool ([`run_shards`]).
    pub(crate) fn field(&self, scenario: &Scenario) -> CellField {
        match self {
            Self::Analytic(w, c) => run_shards(scenario, w, |x, buf| c.collect_shard_into(x, buf)),
            Self::Event(w, c) => run_shards(scenario, w, |x, buf| c.collect_shard_into(x, buf)),
            Self::Faulted(w, c) => run_shards(scenario, w, |x, buf| c.collect_shard_into(x, buf)),
        }
    }

    /// Runs the whole work list in order on the calling thread
    /// ([`run_shards_sequential`]): the oracle [`Self::field`] reproduces.
    pub(crate) fn field_sequential(&self, scenario: &Scenario) -> CellField {
        match self {
            Self::Analytic(w, c) => {
                run_shards_sequential(scenario, w, |x, buf| c.collect_shard_into(x, buf))
            }
            Self::Event(w, c) => {
                run_shards_sequential(scenario, w, |x, buf| c.collect_shard_into(x, buf))
            }
            Self::Faulted(w, c) => {
                run_shards_sequential(scenario, w, |x, buf| c.collect_shard_into(x, buf))
            }
        }
    }
}

/// A work item of a plain run: it names the cell its samples belong to.
pub(crate) trait CellItem: Copy + Send + Sync {
    /// The cell this item's samples accumulate into.
    fn cell(&self) -> CellId;
}

impl CellItem for Shard {
    fn cell(&self) -> CellId {
        self.cell
    }
}

/// Cell ranges per pool thread in [`run_shards`]: the pool hands out about
/// four claims per participant, so a worker whose ranges finish early can
/// still take another's.
const RANGES_PER_THREAD: usize = 4;

/// The plain-run skeleton every backend uses. The field's cells are split
/// into contiguous row-major ranges — their number derived from the pool
/// size and the cell count — and the work list is bucketed by range,
/// keeping work-list order inside each bucket. Each pool worker then owns
/// the accumulators of the ranges it claims: it samples their items with
/// `collect` and pushes the samples straight in. A cell's samples arrive
/// in work-list order whoever samples them, so the field is bitwise equal
/// to [`run_shards_sequential`]'s at every pool size, with no serial fold
/// and no round barrier. An item outside the grid panics before any
/// sampling starts.
pub(crate) fn run_shards<T: CellItem>(
    scenario: &Scenario,
    items: &[T],
    collect: impl Fn(T, &mut Vec<f64>) + Sync,
) -> CellField {
    let mut field = CellField::new(scenario.grid.clone());
    let cells = scenario.grid.len();
    let span = cells.div_ceil(rayon::current_num_threads() * RANGES_PER_THREAD).max(1);
    // A stable counting sort of item indices by range: `starts[r]..starts[r + 1]`
    // is range `r`'s bucket in `order`.
    let mut starts = vec![0usize; cells.div_ceil(span) + 1];
    for item in items {
        starts[field.index(item.cell()) / span + 1] += 1;
    }
    for r in 1..starts.len() {
        starts[r] += starts[r - 1];
    }
    let mut order = vec![0u32; items.len()];
    let mut next = starts.clone();
    for (i, item) in items.iter().enumerate() {
        let slot = &mut next[field.index(item.cell()) / span];
        order[*slot] = u32::try_from(i).expect("work list fits u32 indices");
        *slot += 1;
    }
    let mut ranges: Vec<_> = field.ranges_mut(span).into_iter().zip(starts.windows(2)).collect();
    ranges.par_iter_mut().for_each(|(range, bucket)| {
        let mut buf = Vec::new();
        for &i in &order[bucket[0]..bucket[1]] {
            let item = items[i as usize];
            collect(item, &mut buf);
            let acc = range.cell_mut(item.cell());
            for &v in &buf {
                acc.push(v);
            }
        }
    });
    field
}

/// The sequential counterpart of [`run_shards`] and the determinism
/// oracle of every plain run: one reusable sample buffer, items visited in
/// work-list order, samples pushed in cadence order — the per-cell
/// accumulation sequence [`run_shards`] reproduces.
pub(crate) fn run_shards_sequential<T: CellItem>(
    scenario: &Scenario,
    items: &[T],
    mut collect: impl FnMut(T, &mut Vec<f64>),
) -> CellField {
    let mut field = CellField::new(scenario.grid.clone());
    let mut buf = Vec::new();
    for &item in items {
        collect(item, &mut buf);
        for &v in &buf {
            field.push(item.cell(), v);
        }
    }
    field
}

pub use rayon::with_thread_count;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_field_sequential;
    use crate::klagenfurt::KlagenfurtScenario;

    fn scenario() -> KlagenfurtScenario {
        KlagenfurtScenario::paper(0x6B6C_7531)
    }

    /// Every accumulator's exact state, row-major.
    fn accumulator_bits(f: &CellField) -> Vec<(u64, u64, u64, u64, u64)> {
        f.accumulators()
            .iter()
            .map(|w| {
                let (n, mean, m2, min, max) = w.raw_parts();
                (n, mean.to_bits(), m2.to_bits(), min.to_bits(), max.to_bits())
            })
            .collect()
    }

    /// Skopje resized to `cols × rows` with every cell traversed and every
    /// cell reference (hotspot, reference cell, cell-anchored hops) moved
    /// to `A1`, so any shape compiles. One side past 256 selects the wide
    /// key scheme.
    fn resized_skopje(cols: u32, rows: u32) -> Scenario {
        use crate::spec::{PositionDef, TargetDef};
        let mut spec = crate::skopje::skopje_spec().clone();
        spec.name = format!("skopje-{cols}x{rows}");
        spec.grid.cols = cols;
        spec.grid.rows = rows;
        spec.skipped_cells.clear();
        spec.measurement.reference_cell = "A1".into();
        if let TargetDef::Projected { hotspot, .. } = &mut spec.targets {
            *hotspot = "A1".into();
        }
        for hop in &mut spec.hops {
            if let PositionDef::Cell { cell, .. } = &mut hop.position {
                *cell = "A1".into();
            }
        }
        Scenario::from_spec(&spec).expect("resized spec compiles")
    }

    /// The determinism contract, as a thread-count matrix: at every pool
    /// size the cell-range runner must reproduce the sequential runner,
    /// accumulator for accumulator. Klagenfurt runs several seeds; three
    /// resized grids split the cells unevenly: a multi-pass wide grid
    /// (every cell gets pushes from several shards), a one-row grid
    /// (ranges split a row) and a grid with fewer cells than ranges.
    #[test]
    fn parallel_equals_sequential_bitwise() {
        let check = |s: &Scenario, config: CampaignConfig| {
            let seq = accumulator_bits(&run_field_sequential(s, config, ExecBackend::Analytic));
            for threads in [1usize, 2, 3, 4, 8] {
                let par = with_thread_count(threads, || {
                    crate::exec::run_field(s, config, ExecBackend::Analytic)
                });
                assert!(
                    accumulator_bits(&par) == seq,
                    "{}, seed {}, {} passes, {threads} threads: fields differ",
                    s.name,
                    config.seed,
                    config.passes
                );
            }
            seq
        };
        let klagenfurt = scenario();
        for seed in [1u64, 7, 0xBEEF] {
            check(&klagenfurt, CampaignConfig { seed, passes: 2, ..Default::default() });
        }
        for (cols, rows, passes) in [(257, 12, 3), (300, 1, 2), (3, 2, 2)] {
            let s = resized_skopje(cols, rows);
            let seq = check(&s, CampaignConfig { seed: 11, passes, ..Default::default() });
            assert!(seq.iter().all(|a| a.0 >= passes as u64), "{}: a cell missed a pass", s.name);
        }
    }

    /// A work item outside the grid fails loudly before any sampling
    /// starts, rather than landing in a neighbouring range: `(cols, 0)`
    /// would index cell `(0, 1)` if the row-major index went unchecked.
    #[test]
    fn shard_outside_the_grid_panics_before_sampling() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s = resized_skopje(3, 2);
        let shards = [
            Shard { pass: 0, cell: CellId::new(0, 0), dwell_s: 10.0 },
            Shard { pass: 0, cell: CellId::new(3, 0), dwell_s: 10.0 },
        ];
        for threads in [1usize, 2, 8] {
            let sampled = AtomicUsize::new(0);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_thread_count(threads, || {
                    run_shards(&s, &shards, |_, buf| {
                        sampled.fetch_add(1, Ordering::Relaxed);
                        buf.clear();
                        buf.push(1.0);
                    })
                })
            }));
            let payload = outcome.expect_err("an outside item must panic");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(message.contains("outside grid"), "{threads} threads: {message}");
            assert_eq!(sampled.load(Ordering::Relaxed), 0, "{threads} threads: sampled anyway");
        }
    }

    /// A panic inside one shard's sampling propagates out of `run_field`,
    /// and the pool it ran on still reproduces the sequential field after.
    #[test]
    fn panicking_shard_propagates_and_the_pool_recovers() {
        let s = scenario();
        let config = CampaignConfig { seed: 3, passes: 1, ..Default::default() };
        // One pass visits each cell once, so dropping a cell's cached
        // routes breaks exactly one shard.
        let mut broken = scenario();
        let victim = broken.included[broken.included.len() / 2];
        broken.routes.retain(|&(cell, _), _| cell != victim);
        let seq = accumulator_bits(&run_field_sequential(&s, config, ExecBackend::Analytic));
        for threads in [1usize, 2, 4] {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                with_thread_count(threads, || {
                    crate::exec::run_field(&broken, config, ExecBackend::Analytic)
                })
            }));
            assert!(outcome.is_err(), "{threads} threads: the panic must propagate");
            let par = with_thread_count(threads, || {
                crate::exec::run_field(&s, config, ExecBackend::Analytic)
            });
            assert!(accumulator_bits(&par) == seq, "{threads} threads: pool did not recover");
        }
    }
}
