//! Multi-threaded campaign execution on the rayon thread pool.
//!
//! Campaigns are embarrassingly parallel across [`Shard`]s — (pass, cell)
//! work items — because every shard draws from its own derived random
//! stream (see [`sixg_netsim::rng`]). The plain-run skeleton (`run_plain`)
//! splits the field's cells into contiguous row-major ranges; each pool
//! worker (`RAYON_NUM_THREADS` controls how many) walks the included cells
//! of the ranges it claims, generates each cell's item of every pass
//! itself, and pushes the samples straight into those ranges'
//! accumulators, pass by pass. The traversal visits each included cell
//! once per pass, so every cell sees the sequential runner's exact
//! floating-point accumulation sequence over the materialised work list,
//! and the result is bitwise identical for every pool size — asserted by
//! the `parallel_equals_sequential_bitwise` thread-count matrix test. No
//! work list is built. A worker folds up to four consecutive included
//! cells at a time, distinct by construction: it collects the group's
//! items of one pass, then pushes the samples round-robin by sample index,
//! so the four cells' Welford division chains overlap instead of running
//! one after another.
//!
//! The skeleton folds one field per **lane**. A plain run is one lane. An
//! in-memory sweep runs each draw group — the runs on one compiled
//! scenario with one backend, campaign seed and pass count — through it
//! once ([`crate::sweep`]): the lead lane samples each item at the group's
//! finest cadence, and every coarser lane takes its share of those draws
//! (a prefix of the analytic samples, or the packet world's recorded probe
//! journeys flown again at its own cadence). Both start from the same
//! `Runner`, the one place a run's backend is chosen.
//!
//! The per-cell passes around the sampling kernel — compiling the target
//! field, checking `included`, setting up the accumulators, summarising
//! the field, building its super-cells, and writing a work list for the
//! oracle or a checkpointed sweep — walk a wide grid's million cells. They
//! run in fixed, index-ordered chunks of at least `CHUNK_CELLS` cells
//! (`map_chunks`, `extend_in_place`): the pool only decides which thread
//! computes a chunk, every buffer is allocated once on the calling thread,
//! and chunk results fold in chunk order, so no bit depends on the pool
//! size. Every legacy-scheme grid is one chunk and runs on the calling
//! thread.

use crate::aggregate::CellField;
use crate::campaign::{samples_at, CampaignConfig, MobileCampaign, Shard};
use crate::event_backend::EventCampaign;
use crate::faults::{FaultCampaign, FaultShard};
use crate::scenario::Scenario;
use crate::spec::ExecBackend;
use rayon::prelude::*;
use sixg_geo::{CellId, GridSpec};
use sixg_netsim::stats::Welford;
use std::mem::MaybeUninit;
use std::ops::Range;

/// One run's campaign runner — the single place the backend is chosen, for
/// plain runs ([`crate::exec::run_field`]) and every draw group of a sweep
/// plan alike. Every backend visits the same (pass, cell) items with the
/// same stream keys and is bitwise-deterministic at every pool size; they
/// differ only in how an item's samples are produced (closed-form draws vs
/// packet-level event simulation).
pub(crate) enum Runner<'a> {
    /// Closed-form analytic sampler.
    Analytic(MobileCampaign<'a>),
    /// The packet world over the static routing table.
    Event(EventCampaign<'a>),
    /// The packet world over a spec with a fault schedule: each item's
    /// start offset resolves the timeline.
    Faulted(FaultCampaign<'a>),
}

impl<'a> Runner<'a> {
    /// The runner of `backend` over `scenario`. It builds no work list.
    pub(crate) fn new(
        scenario: &'a Scenario,
        config: CampaignConfig,
        backend: ExecBackend,
    ) -> Self {
        match backend {
            ExecBackend::Analytic => Self::Analytic(MobileCampaign::new(scenario, config)),
            // A fault schedule needs the live control plane: same items and
            // stream keys, but routes come from the BGP speakers' RIBs
            // wherever the timeline touches an item.
            ExecBackend::Event if Self::is_faulted(scenario, backend) => {
                Self::Faulted(FaultCampaign::new(scenario, config))
            }
            ExecBackend::Event => Self::Event(EventCampaign::new(scenario, config)),
        }
    }

    /// Whether `backend` over `scenario` runs the fault timeline. A fault
    /// window routes each probe over the RIB at its launch time, so the
    /// probe's draws depend on the cadence: such a run shares draws only
    /// with runs at its own cadence.
    pub(crate) fn is_faulted(scenario: &Scenario, backend: ExecBackend) -> bool {
        backend == ExecBackend::Event && !scenario.spec.faults.is_empty()
    }

    /// Runs the campaign on the thread pool ([`run_plain`]), without a
    /// work list: the one-lane case of [`Self::fields`].
    pub(crate) fn field(&self) -> CellField {
        self.fields(&[]).pop().expect("the lead lane's field")
    }

    /// The fields of one draw group on the thread pool ([`run_plain`]):
    /// first this runner's own, at its cadence (the lead lane), then one
    /// per cadence of `coarser`, each as a run at that cadence would fold
    /// it. The lead draws each item once. An analytic lane copies the
    /// prefix of the lead's samples that its own count
    /// ([`samples_at`]) takes; an event lane flies the lead's recorded
    /// probe journeys again at its cadence
    /// ([`EventCampaign::collect_lanes`]). `coarser` must be ascending and
    /// above this runner's cadence, and empty for a faulted runner, whose
    /// draws depend on the cadence.
    pub(crate) fn fields(&self, coarser: &[f64]) -> Vec<CellField> {
        let lanes = 1 + coarser.len();
        match self {
            Self::Analytic(c) => run_plain(c, lanes, |x, _, bufs| {
                let (lead, rest) = bufs.split_first_mut().expect("a lead lane");
                c.collect_shard_into(x, lead);
                for (buf, &cadence) in rest.iter_mut().zip(coarser) {
                    buf.clear();
                    buf.extend_from_slice(&lead[..samples_at(cadence, x.dwell_s)]);
                }
            }),
            Self::Event(c) => {
                run_plain(c.campaign(), lanes, |x, _, bufs| c.collect_lanes(x, coarser, bufs))
            }
            Self::Faulted(c) => {
                assert!(coarser.is_empty(), "a faulted run draws at its own cadence only");
                let t0_s = c.start_offsets();
                run_plain(c.campaign(), lanes, |shard, k, bufs| {
                    c.collect_shard_into(
                        FaultShard { shard, t0_s: t0_s(shard.pass, k) },
                        &mut bufs[0],
                    )
                })
            }
        }
    }

    /// This runner with its work list built, for callers that address
    /// items by index: sweeps and the sequential oracle.
    pub(crate) fn indexed(self) -> Indexed<'a> {
        match self {
            Self::Analytic(c) => Indexed::Analytic(c.shards(), c),
            Self::Event(c) => Indexed::Event(c.shards(), c),
            Self::Faulted(c) => Indexed::Faulted(c.shards(), c),
        }
    }
}

/// A [`Runner`] with its typed work list, in sequential execution order.
pub(crate) enum Indexed<'a> {
    /// Closed-form analytic sampler.
    Analytic(Vec<Shard>, MobileCampaign<'a>),
    /// The packet world over the static routing table.
    Event(Vec<Shard>, EventCampaign<'a>),
    /// The packet world over a fault timeline.
    Faulted(Vec<FaultShard>, FaultCampaign<'a>),
}

impl Indexed<'_> {
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

    /// The determinism oracle of every plain run, and the counterpart of
    /// [`Runner::field`]: one reusable sample buffer, the work list visited
    /// in order on the calling thread, samples pushed in cadence order —
    /// the per-cell accumulation sequence [`run_plain`] reproduces.
    pub(crate) fn field_sequential(&self, scenario: &Scenario) -> CellField {
        let mut field = CellField::new(scenario.grid.clone());
        let mut buf = Vec::new();
        for i in 0..self.len() {
            self.collect(i, &mut buf);
            let cell = self.shard(i).cell;
            for &v in &buf {
                field.push(cell, v);
            }
        }
        field
    }
}

/// Cell ranges per pool thread in [`run_plain`]: the pool hands out about
/// four claims per participant, so a worker whose ranges finish early can
/// still take another's.
const RANGES_PER_THREAD: usize = 4;

/// The plain-run skeleton every backend uses, folding `lanes` fields at
/// once. The fields' cells are split into contiguous row-major ranges —
/// their number derived from the pool size and the cell count — and each
/// pool worker owns every lane's accumulators of the ranges it claims. It
/// walks its ranges' slice of [`Scenario::included`], which is row-major,
/// a group of up to `GROUP` consecutive cells at a time. For each pass in
/// order it generates each cell's item ([`MobileCampaign::shard`]) and
/// samples it once with `collect(item, k, bufs)`, where `k` is the cell's
/// position in `included` and `bufs[l]` receives lane `l`'s samples; then
/// it pushes each lane's group of samples straight into that lane's
/// accumulators ([`fold_group`]). The traversal visits each included cell
/// once per pass, so in every lane every cell takes its samples pass by
/// pass, exactly as the sequential oracle ([`Indexed::field_sequential`]
/// over [`MobileCampaign::shards`]) of that lane's run gives them: each
/// field is bitwise equal to its oracle's at every pool size, with no work
/// list, no serial fold and no round barrier. With one lane — every plain
/// run — an item is one buffer, filled and folded as a run of its own
/// would. An `included` that is not row-major, unique and inside the grid
/// panics before any sampling starts.
pub(crate) fn run_plain(
    campaign: &MobileCampaign<'_>,
    lanes: usize,
    collect: impl Fn(Shard, usize, &mut [Vec<f64>]) + Sync,
) -> Vec<CellField> {
    let s = campaign.scenario();
    let included = &s.included;
    assert_row_major(&s.grid, included);
    let passes = campaign.config().passes;
    let cols = s.grid.cols as usize;
    let index = |c: &CellId| c.row as usize * cols + c.col as usize;
    let mut fields: Vec<CellField> = (0..lanes).map(|_| CellField::new(s.grid.clone())).collect();
    let span = s.grid.len().div_ceil(rayon::current_num_threads() * RANGES_PER_THREAD).max(1);
    let mut lane_ranges: Vec<_> =
        fields.iter_mut().map(|f| f.ranges_mut(span).into_iter()).collect();
    let count = s.grid.len().div_ceil(span);
    let mut ranges: Vec<_> = (0..count)
        .map(|r| {
            let accs: Vec<&mut [Welford]> =
                lane_ranges.iter_mut().map(|it| it.next().expect("a range per lane")).collect();
            let start = r * span;
            let first = included.partition_point(|c| index(c) < start);
            let end = included.partition_point(|c| index(c) < start + accs[0].len());
            (start, accs, first..end)
        })
        .collect();
    ranges.par_iter_mut().for_each(|(start, accs, cells)| {
        let mut bufs: [Vec<Vec<f64>>; GROUP] = std::array::from_fn(|_| vec![Vec::new(); lanes]);
        for first in cells.clone().step_by(GROUP) {
            let group = &included[first..cells.end.min(first + GROUP)];
            let mut slots = [0; GROUP];
            for (slot, cell) in slots.iter_mut().zip(group) {
                *slot = index(cell) - *start;
            }
            for pass in 0..passes {
                for (j, (&cell, buf)) in group.iter().zip(&mut bufs).enumerate() {
                    collect(campaign.shard(pass, cell), first + j, buf);
                }
                for (l, acc) in accs.iter_mut().enumerate() {
                    let lane: [&[f64]; GROUP] = std::array::from_fn(|j| &bufs[j][l][..]);
                    fold_group(acc, &slots[..group.len()], &lane[..group.len()]);
                }
            }
        }
    });
    fields
}

/// Panics unless `cells` is row-major, unique and inside `grid`: each
/// cell inside the grid and after the one before it in row-major order. A
/// wide list is checked in index-ordered chunks on the pool.
pub(crate) fn assert_row_major(grid: &GridSpec, cells: &[CellId]) {
    let ok = map_chunks(cell_chunks(cells.len()), |chunk| {
        let from = chunk.start.saturating_sub(1);
        cells[from..chunk.end].windows(2).all(|w| (w[0].row, w[0].col) < (w[1].row, w[1].col))
            && cells[chunk].iter().all(|&c| grid.contains(c))
    });
    assert!(
        ok.into_iter().all(|ok| ok),
        "included cells must be row-major, unique and inside the grid"
    );
}

/// Consecutive included cells a [`run_plain`] range worker folds together.
/// Groups of 2 and 8 measured slower.
const GROUP: usize = 4;

/// Pushes a group's samples into its distinct cells' accumulators,
/// `acc[slots[j]]` for `bufs[j]`, round-robin by sample index, so the
/// group's Welford division chains overlap. Each cell still takes its own
/// samples in order.
fn fold_group(acc: &mut [Welford], slots: &[usize], bufs: &[&[f64]]) {
    let longest = bufs.iter().map(|b| b.len()).max().unwrap_or(0);
    for k in 0..longest {
        for (&slot, buf) in slots.iter().zip(bufs) {
            if let Some(&v) = buf.get(k) {
                acc[slot].push(v);
            }
        }
    }
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
        Scenario::from_spec(&resized_skopje_spec(cols, rows)).expect("resized spec compiles")
    }

    fn resized_skopje_spec(cols: u32, rows: u32) -> crate::spec::ScenarioSpec {
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
        spec
    }

    /// The determinism contract, as a thread-count matrix: at every pool
    /// size the cell-range runner must reproduce the sequential runner over
    /// the materialised work list, accumulator for accumulator. Klagenfurt
    /// runs several seeds; resized grids split the cells unevenly: a
    /// multi-pass wide grid (every cell gets pushes from several shards), a
    /// one-row grid (ranges split a row), a grid with fewer cells than
    /// ranges, and a multi-pass wide grid with skipped cells, where ranges
    /// cut rows, end in partial groups, and hold no included cell at all.
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
        // 300 × 6 cells: row 2 and the west half of row 3 skipped (cells
        // 600–1049, which hold whole ranges at pools 2, 3 and 8), and every
        // seventh cell of row 0 and every fifth of row 5 but `A1`.
        let mut spec = resized_skopje_spec(300, 6);
        let skipped = (0..300)
            .map(|c| CellId::new(c, 2))
            .chain((0..150).map(|c| CellId::new(c, 3)))
            .chain((7..300).step_by(7).map(|c| CellId::new(c, 0)))
            .chain((5..300).step_by(5).map(|c| CellId::new(c, 5)));
        spec.skipped_cells = skipped.map(|c| c.label()).collect();
        let s = Scenario::from_spec(&spec).expect("resized spec compiles");
        assert_eq!(s.included.len(), 1800 - 300 - 150 - 42 - 59);
        let seq = check(&s, CampaignConfig { seed: 13, passes: 3, ..Default::default() });
        for (i, a) in seq.iter().enumerate() {
            let cell = CellId::new((i % 300) as u32, (i / 300) as u32);
            let included =
                s.included.binary_search_by_key(&(cell.row, cell.col), |c| (c.row, c.col));
            assert!(if included.is_ok() { a.0 >= 3 } else { a.0 == 0 }, "{cell}: {} samples", a.0);
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

    /// An `included` list that is not row-major, unique and inside the grid
    /// fails loudly before any sampling starts, rather than landing in a
    /// neighbouring range: `(3, 0)` would index cell `(0, 1)` of the 3 × 2
    /// grid if the row-major index went unchecked.
    #[test]
    fn bad_included_cells_panic_before_sampling() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let s = resized_skopje(3, 2);
        let config = CampaignConfig { seed: 1, passes: 2, ..Default::default() };
        let cells = |list: &[(u32, u32)]| list.iter().map(|&(c, r)| CellId::new(c, r)).collect();
        for (what, included) in [
            ("outside", cells(&[(0, 0), (1, 0), (2, 0), (3, 0), (1, 1), (2, 1)])),
            ("repeated", cells(&[(0, 0), (1, 0), (1, 0), (2, 0), (0, 1)])),
            ("out of order", cells(&[(0, 0), (0, 1), (1, 0), (2, 0), (1, 1)])),
        ] {
            let mut bad = resized_skopje(3, 2);
            bad.included = included;
            let campaign = MobileCampaign::new(&bad, config);
            for threads in [1usize, 2, 8] {
                let sampled = AtomicUsize::new(0);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    with_thread_count(threads, || {
                        run_plain(&campaign, 1, |_, _, bufs| {
                            sampled.fetch_add(1, Ordering::Relaxed);
                            bufs[0].clear();
                            bufs[0].push(1.0);
                        })
                    })
                }));
                let payload = outcome.expect_err("a bad list must panic");
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                assert!(message.contains("row-major, unique and inside"), "{what}: {message}");
                assert_eq!(sampled.load(Ordering::Relaxed), 0, "{what}, {threads} threads");
            }
        }
        // The good list passes the same check.
        let campaign = MobileCampaign::new(&s, config);
        let fields = run_plain(&campaign, 1, |_, _, bufs| {
            bufs[0].clear();
            bufs[0].push(1.0);
        });
        assert_eq!(fields[0].total_samples(), 12);
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
