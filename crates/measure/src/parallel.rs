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
//! `parallel_equals_sequential_bitwise` thread-count matrix test. A worker
//! folds its items in groups of up to four consecutive items with distinct
//! cells: it collects the group, then pushes the samples round-robin by
//! sample index, so the four cells' Welford division chains overlap
//! instead of running one after another. A repeated cell ends the group,
//! so each cell still takes its samples in work-list order
//! (`a_repeated_cell_ends_the_group`). A sweep's runs go through the
//! sweep's own round-based fold (see [`crate::sweep`]); both drive the
//! same `Runner`, the one place a run's backend is chosen.
//!
//! The per-cell passes around the sampling kernel — compiling the target
//! field, planning the work list, setting up and bucketing the
//! accumulators, summarising the field and building its super-cells — walk
//! a wide grid's million cells. They run in fixed, index-ordered chunks of
//! at least `CHUNK_CELLS` cells (`map_chunks`, `extend_in_place`):
//! the pool only decides which thread computes a chunk, every buffer is
//! allocated once on the calling thread, and chunk results fold in chunk
//! order, so no bit depends on the pool size. Every legacy-scheme grid is
//! one chunk and runs on the calling thread.

use crate::aggregate::{CellField, CellRange};
use crate::campaign::{CampaignConfig, MobileCampaign, Shard};
use crate::event_backend::EventCampaign;
use crate::faults::{FaultCampaign, FaultShard};
use crate::scenario::Scenario;
use crate::spec::ExecBackend;
use rayon::prelude::*;
use sixg_geo::CellId;
use std::mem::MaybeUninit;
use std::ops::Range;

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
/// `collect`, a group of up to `GROUP` items with distinct cells at a
/// time, and pushes the samples straight in ([`fold_group`]). A cell's
/// samples arrive in work-list order whoever samples them, so the field is
/// bitwise equal to [`run_shards_sequential`]'s at every pool size, with
/// no serial fold and no round barrier. An item outside the grid panics
/// before any sampling starts.
pub(crate) fn run_shards<T: CellItem>(
    scenario: &Scenario,
    items: &[T],
    collect: impl Fn(T, &mut Vec<f64>) + Sync,
) -> CellField {
    let mut field = CellField::new(scenario.grid.clone());
    let span =
        scenario.grid.len().div_ceil(rayon::current_num_threads() * RANGES_PER_THREAD).max(1);
    let (starts, order) = bucket_by_range(&field, items, span);
    let mut ranges: Vec<_> = field.ranges_mut(span).into_iter().zip(starts.windows(2)).collect();
    ranges.par_iter_mut().for_each(|(range, bucket)| {
        let mut bufs: [Vec<f64>; GROUP] = Default::default();
        let mut cells = [CellId::new(0, 0); GROUP];
        let mut rest = &order[bucket[0]..bucket[1]];
        while !rest.is_empty() {
            // The group: the leading items up to the first repeated cell.
            let mut len = 0;
            for &i in rest.iter().take(GROUP) {
                let item = items[i as usize];
                if cells[..len].contains(&item.cell()) {
                    break;
                }
                cells[len] = item.cell();
                collect(item, &mut bufs[len]);
                len += 1;
            }
            fold_group(range, &cells[..len], &bufs[..len]);
            rest = &rest[len..];
        }
    });
    field
}

/// Consecutive bucket items a [`run_shards`] range worker folds together.
/// Groups of 2 and 8 measured slower.
const GROUP: usize = 4;

/// Pushes a group's samples into its distinct cells' accumulators,
/// round-robin by sample index, so the group's Welford division chains
/// overlap. Each cell still takes its own samples in order.
fn fold_group(range: &mut CellRange<'_>, cells: &[CellId], bufs: &[Vec<f64>]) {
    let longest = bufs.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..longest {
        for (&cell, buf) in cells.iter().zip(bufs) {
            if let Some(&v) = buf.get(k) {
                range.cell_mut(cell).push(v);
            }
        }
    }
}

/// A stable counting sort of item indices by the `span`-cell range their
/// cell falls in: `starts[r]..starts[r + 1]` is range `r`'s bucket in
/// `order`. The work list is cut into chunks of `CHUNK_CELLS` items. Each
/// chunk counts its items per range, and then writes its indices into its
/// own slice of each bucket, after every earlier chunk's, so every bucket
/// keeps work-list order at any pool size.
fn bucket_by_range<T: CellItem>(
    field: &CellField,
    items: &[T],
    span: usize,
) -> (Vec<usize>, Vec<u32>) {
    let range_count = field.grid().len().div_ceil(span);
    let range_of = |item: &T| field.index(item.cell()) / span;
    let chunks = cell_chunks(items.len());
    let counts = map_chunks(chunks.clone(), |chunk| {
        let mut n = vec![0usize; range_count];
        for item in &items[chunk] {
            n[range_of(item)] += 1;
        }
        n
    });
    let mut starts = vec![0usize; range_count + 1];
    for r in 0..range_count {
        starts[r + 1] = starts[r] + counts.iter().map(|n| n[r]).sum::<usize>();
    }
    // Cut `order` into one slice per (chunk, range), bucket by bucket and
    // chunk by chunk inside a bucket.
    let mut order = vec![0u32; items.len()];
    let mut slices: Vec<Vec<&mut [u32]>> =
        counts.iter().map(|_| Vec::with_capacity(range_count)).collect();
    let mut rest = order.as_mut_slice();
    for r in 0..range_count {
        for (chunk_slices, n) in slices.iter_mut().zip(&counts) {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(n[r]);
            chunk_slices.push(head);
            rest = tail;
        }
    }
    map_chunks(chunks.into_iter().zip(slices).collect(), |(chunk, mut slices)| {
        let mut next = vec![0usize; range_count];
        for i in chunk {
            let r = range_of(&items[i]);
            slices[r][next[r]] = u32::try_from(i).expect("work list fits u32 indices");
            next[r] += 1;
        }
    });
    (starts, order)
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

/// Cells per chunk of a per-cell pass outside the sampling kernel. At
/// least 2¹⁶, so every legacy-scheme grid (at most 256 × 256 cells) is a
/// single chunk and runs on the calling thread.
const CHUNK_CELLS: usize = 1 << 16;

/// `0..len` cut into chunks of `CHUNK_CELLS` indices (the last one
/// shorter), in index order; one empty chunk when `len` is zero.
pub(crate) fn cell_chunks(len: usize) -> Vec<Range<usize>> {
    let count = len.div_ceil(CHUNK_CELLS).max(1);
    (0..count).map(|k| k * CHUNK_CELLS..((k + 1) * CHUNK_CELLS).min(len)).collect()
}

/// `0..rows` cut into runs of whole rows of `row_cells` cells each: the
/// fewest rows that hold at least `CHUNK_CELLS` cells per run (the last
/// run shorter), in row order.
pub(crate) fn row_chunks(rows: u32, row_cells: usize) -> Vec<Range<u32>> {
    // At most `CHUNK_CELLS` rows, so the cast is exact.
    let step = CHUNK_CELLS.div_ceil(row_cells.max(1)) as u32;
    (0..rows.div_ceil(step).max(1)).map(|k| k * step..((k + 1) * step).min(rows)).collect()
}

/// `buf` cut along `chunks`, which tile `0..buf.len()` in order.
pub(crate) fn split_mut<'a, T>(mut buf: &'a mut [T], chunks: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let pieces = chunks
        .iter()
        .map(|chunk| {
            let (head, tail) = std::mem::take(&mut buf).split_at_mut(chunk.len());
            buf = tail;
            head
        })
        .collect();
    debug_assert!(buf.is_empty(), "chunks must tile the buffer");
    pieces
}

/// Runs `f` on every chunk and returns the results in chunk order. More
/// than one chunk runs on the pool; a single chunk runs on the calling
/// thread.
pub(crate) fn map_chunks<C: Send, R: Send>(
    chunks: Vec<C>,
    f: impl Fn(C) -> R + Sync + Send,
) -> Vec<R> {
    if chunks.len() <= 1 {
        chunks.into_iter().map(f).collect()
    } else {
        chunks.into_par_iter().map(f).collect()
    }
}

/// A run of uninitialised slots that [`extend_in_place`] hands to one
/// piece, written front to back.
pub(crate) struct Sink<'a, T> {
    slots: &'a mut [MaybeUninit<T>],
    written: usize,
}

impl<T> Sink<'_, T> {
    /// Writes the next slot. Panics when every slot is already written.
    pub(crate) fn push(&mut self, value: T) {
        self.slots[self.written].write(value);
        self.written += 1;
    }
}

/// Appends `lens.iter().sum()` items to `out` in place: piece `p` writes
/// the next `lens[p]` items, in order, through `fill(p, sink)`. The
/// pieces run as chunks ([`map_chunks`]) into capacity reserved on the
/// calling thread, so no pool worker allocates the buffer, and the items
/// land in piece order at any pool size. Panics, leaving `out` as it was,
/// when a piece writes more or fewer items than its length.
pub(crate) fn extend_in_place<T: Send>(
    out: &mut Vec<T>,
    lens: &[usize],
    fill: impl Fn(usize, &mut Sink<'_, T>) + Sync + Send,
) {
    let total: usize = lens.iter().sum();
    let old_len = out.len();
    out.reserve_exact(total);
    let mut rest = &mut out.spare_capacity_mut()[..total];
    let mut pieces = Vec::with_capacity(lens.len());
    for (p, &len) in lens.iter().enumerate() {
        let (slots, tail) = std::mem::take(&mut rest).split_at_mut(len);
        pieces.push((p, Sink { slots, written: 0 }));
        rest = tail;
    }
    let full = map_chunks(pieces, |(p, mut sink)| {
        fill(p, &mut sink);
        sink.written == sink.slots.len()
    });
    assert!(full.iter().all(|&f| f), "a piece wrote fewer items than its length");
    // SAFETY: the pieces split `out`'s spare capacity `old_len..old_len +
    // total` into disjoint consecutive runs. A `Sink` writes its run front
    // to back and counts what it wrote, and the assertion above checked
    // that every run was written to its end, so all `total` slots past
    // `old_len` hold initialised items. A panic in any piece propagates
    // out of `map_chunks` before this line, leaving the length unchanged.
    unsafe { out.set_len(old_len + total) };
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
            let seq = run_field_sequential(s, config, ExecBackend::Analytic).accumulator_bits();
            for threads in [1usize, 2, 3, 4, 8] {
                let par = with_thread_count(threads, || {
                    crate::exec::run_field(s, config, ExecBackend::Analytic)
                });
                assert!(
                    par.accumulator_bits() == seq,
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

    /// A cell that recurs within four consecutive items of a range ends the
    /// range worker's group, so its later item's samples fold after its
    /// earlier item's, as in the sequential fold. The hand-built work list
    /// keeps every item inside the first cell range at pools 1, 2 and 8
    /// (ranges of 100, 50 and 13 cells) and gives the recurring cells
    /// different dwells, so their items differ in sample count. Its groups
    /// are `A1 B1 | A1 C1 | A1 | A1 D1 B1 E1 | B1`.
    #[test]
    fn a_repeated_cell_ends_the_group() {
        let s = resized_skopje(40, 10);
        let config = CampaignConfig { seed: 5, passes: 1, ..Default::default() };
        let campaign = MobileCampaign::new(&s, config);
        let dwells = [12.0, 40.0, 26.0, 8.0, 60.0, 4.0, 18.0, 30.0, 50.0, 22.0];
        let cols = [0, 1, 0, 2, 0, 0, 3, 1, 4, 1];
        let items: Vec<Shard> = cols
            .into_iter()
            .zip(dwells)
            .map(|(col, dwell_s)| Shard { pass: 0, cell: CellId::new(col, 0), dwell_s })
            .collect();
        let collect = |x, buf: &mut Vec<f64>| campaign.collect_shard_into(x, buf);
        let seq = run_shards_sequential(&s, &items, collect).accumulator_bits();
        for threads in [1usize, 2, 8] {
            let par = with_thread_count(threads, || run_shards(&s, &items, collect));
            assert!(par.accumulator_bits() == seq, "{threads} threads: fields differ");
        }
    }

    /// `extend_in_place` appends the pieces in piece order at any pool
    /// size, and refuses a piece that writes fewer or more items than its
    /// length, leaving the vector as it was.
    #[test]
    fn extend_in_place_writes_pieces_in_order_and_checks_their_lengths() {
        let lens = [3usize, 0, 5, 2];
        for threads in [1usize, 2, 8] {
            let mut out = vec![-1i64];
            with_thread_count(threads, || {
                extend_in_place(&mut out, &lens, |p, sink| {
                    (0..lens[p]).for_each(|k| sink.push((p * 10 + k) as i64));
                })
            });
            assert_eq!(out, [-1, 0, 1, 2, 20, 21, 22, 23, 24, 30, 31], "{threads} threads");
        }
        for written in [4usize, 6] {
            let mut out = vec![7u32];
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                extend_in_place(&mut out, &lens, |p, sink| {
                    let n = if p == 2 { written } else { lens[p] };
                    (0..n).for_each(|_| sink.push(1));
                })
            }));
            assert!(outcome.is_err(), "a piece of 5 slots wrote {written} items");
            assert_eq!(out, [7]);
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
        let seq = run_field_sequential(&s, config, ExecBackend::Analytic).accumulator_bits();
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
            assert!(par.accumulator_bits() == seq, "{threads} threads: pool did not recover");
        }
    }
}
