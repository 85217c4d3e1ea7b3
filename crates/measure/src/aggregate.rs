//! Per-cell aggregation of latency samples.
//!
//! Figures 2 and 3 of the paper are per-cell grids of mean and standard
//! deviation of round-trip latency, with cells holding fewer than ten
//! measurements rendered as `0.0`.

use crate::parallel::{cell_chunks, extend_in_place, map_chunks};
use serde::{Deserialize, Serialize};
use sixg_geo::{CellId, GridSpec};
use sixg_netsim::stats::Welford;

/// Minimum samples for a cell to be reported (paper Section IV-C).
pub const MIN_SAMPLES: u64 = 10;

/// Aggregated statistics of one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellStats {
    /// The cell.
    pub cell: CellId,
    /// Number of RTL samples collected while traversing the cell.
    pub count: u64,
    /// Mean round-trip latency, ms (0.0 when `count < MIN_SAMPLES`).
    pub mean_ms: f64,
    /// Sample standard deviation, ms (0.0 when `count < MIN_SAMPLES`).
    pub std_ms: f64,
}

impl CellStats {
    /// True when the cell is reported as `0.0` in the paper's figures.
    pub fn is_masked(&self) -> bool {
        self.count < MIN_SAMPLES
    }
}

/// The report statistics of a field, taken in two passes over its
/// accumulators: one for the counts and extrema, one for the grand mean
/// (see [`CellField::summary`]). Each member but `reported_cells` equals
/// what the same-named [`CellField`] method returns, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldSummary {
    /// Total sample count over all cells, masked ones included.
    pub total_samples: u64,
    /// Cells with at least [`MIN_SAMPLES`] samples: the length of
    /// [`CellField::reported`].
    pub reported_cells: u64,
    /// Grand mean over reported cells, ms (0.0 when none is reported).
    pub grand_mean_ms: f64,
    /// Minimum / maximum reported cell means with their cells.
    pub mean_extrema: Option<(CellStats, CellStats)>,
    /// Minimum / maximum reported cell standard deviations.
    pub std_extrema: Option<(CellStats, CellStats)>,
}

/// Folds `s` into a running (min, max) pair under `key`, breaking ties
/// as `Iterator::min_by` (first equal) and `Iterator::max_by` (last
/// equal) do: an equal later minimum loses, an equal later maximum wins.
/// Folding a chunk's own (min, max), in chunk order, therefore gives the
/// pair of folding its cells one by one.
fn fold_extrema(
    slot: &mut Option<(CellStats, CellStats)>,
    s: CellStats,
    key: fn(&CellStats) -> f64,
) {
    match slot {
        None => *slot = Some((s.clone(), s)),
        Some((min, max)) => {
            if key(&s).total_cmp(&key(max)).is_ge() {
                *max = s.clone();
            }
            if key(&s).total_cmp(&key(min)).is_lt() {
                *min = s;
            }
        }
    }
}

/// The counts and extrema of [`CellField::summary`], for one chunk of
/// cells or for the whole field.
#[derive(Default)]
struct ChunkSummary {
    total_samples: u64,
    reported: u64,
    mean_extrema: Option<(CellStats, CellStats)>,
    std_extrema: Option<(CellStats, CellStats)>,
}

/// A full per-cell field over a grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellField {
    grid: GridSpec,
    acc: Vec<Welford>,
}

impl CellField {
    /// Empty field over `grid`. A wide grid's accumulators are first
    /// written by the pool, in index-ordered chunks.
    pub fn new(grid: GridSpec) -> Self {
        let chunks = cell_chunks(grid.len());
        let lens: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        let mut acc = Vec::new();
        extend_in_place(&mut acc, &lens, |p, sink| {
            for _ in 0..lens[p] {
                sink.push(Welford::new());
            }
        });
        Self { grid, acc }
    }

    /// The grid this field is defined over.
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// Row-major accumulator index of `cell`; panics outside the grid.
    fn index(&self, cell: CellId) -> usize {
        assert!(self.grid.contains(cell), "cell {cell} outside grid");
        cell.row as usize * self.grid.cols as usize + cell.col as usize
    }

    /// The accumulators split into contiguous row-major ranges of `span`
    /// cells (the last one may be shorter), in index order, so that
    /// disjoint ranges can fill on different threads.
    pub(crate) fn ranges_mut(&mut self, span: usize) -> Vec<&mut [Welford]> {
        self.acc.chunks_mut(span).collect()
    }

    /// Records one RTL sample for a cell.
    pub fn push(&mut self, cell: CellId, rtl_ms: f64) {
        let i = self.index(cell);
        self.acc[i].push(rtl_ms);
    }

    /// Merges another field (parallel reduction). Grids must match shape.
    ///
    /// `merge` combines Welford accumulators pairwise (Chan's formula),
    /// which is numerically excellent but *not* bitwise identical to
    /// pushing the concatenated sample stream with [`Self::push`] — use it
    /// where tolerance-based comparison suffices.
    ///
    /// **Disjoint-support contract.** There is one regime in which `merge`
    /// *is* bitwise exact: when, for every cell, at most one of the two
    /// operands holds samples. In that case the Welford merge degenerates to
    /// either a no-op (other side empty) or a verbatim copy of the non-empty
    /// accumulator (this side empty), so no floating-point arithmetic runs
    /// at all and every bit is preserved. Merging disjoint-support fields is
    /// consequently also order-independent — any merge tree over any
    /// permutation of the operands yields identical bits. (`sixg-cli merge`
    /// does not rely on this: every sweep run is spilled by exactly one
    /// shard, and [`crate::store::merge_stores`] reads each run's blob back
    /// verbatim.)
    pub fn merge(&mut self, other: &CellField) {
        assert_eq!(self.grid.cols, other.grid.cols, "grid shape mismatch");
        assert_eq!(self.grid.rows, other.grid.rows, "grid shape mismatch");
        for (a, b) in self.acc.iter_mut().zip(&other.acc) {
            a.merge(b);
        }
    }

    /// Statistics of one cell, with the masking rule applied.
    pub fn stats(&self, cell: CellId) -> CellStats {
        Self::stats_of(cell, &self.acc[self.index(cell)])
    }

    fn stats_of(cell: CellId, w: &Welford) -> CellStats {
        if w.count() < MIN_SAMPLES {
            CellStats { cell, count: w.count(), mean_ms: 0.0, std_ms: 0.0 }
        } else {
            CellStats { cell, count: w.count(), mean_ms: w.mean(), std_ms: w.sample_std_dev() }
        }
    }

    /// All cells' statistics, row-major.
    pub fn all_stats(&self) -> Vec<CellStats> {
        self.grid.cells().map(|c| self.stats(c)).collect()
    }

    /// Unmasked cells only.
    pub fn reported(&self) -> Vec<CellStats> {
        self.all_stats().into_iter().filter(|s| !s.is_masked()).collect()
    }

    /// [`Self::total_samples`], [`Self::grand_mean_ms`],
    /// [`Self::mean_extrema`], [`Self::std_extrema`] and the reported cell
    /// count, without materialising [`Self::reported`] or any buffer that
    /// grows with the grid.
    ///
    /// A wide grid's counts and extrema run on the pool in index-ordered
    /// chunks, which fold in index order with [`Self::mean_extrema`]'s tie
    /// rule; the grand mean is its own row-major walk
    /// ([`Self::grand_mean_ms`]). So every member has the bits of a single
    /// serial pass at any pool size.
    pub fn summary(&self) -> FieldSummary {
        let all = self.counts_and_extrema();
        FieldSummary {
            total_samples: all.total_samples,
            reported_cells: all.reported,
            grand_mean_ms: self.grand_mean_ms(),
            mean_extrema: all.mean_extrema,
            std_extrema: all.std_extrema,
        }
    }

    /// The sample and reported-cell counts and the mean and σ extrema. A
    /// wide grid's pass runs on the pool in index-ordered chunks: each
    /// chunk counts its own and takes its own extrema, and the chunks fold
    /// in index order, keeping [`Self::mean_extrema`]'s tie rule.
    fn counts_and_extrema(&self) -> ChunkSummary {
        let cols = self.grid.cols as usize;
        let parts = map_chunks(cell_chunks(self.acc.len()), |chunk| {
            let mut part = ChunkSummary::default();
            for (i, w) in chunk.clone().zip(&self.acc[chunk]) {
                part.total_samples += w.count();
                if w.count() < MIN_SAMPLES {
                    continue;
                }
                let s = Self::stats_of(CellId::new((i % cols) as u32, (i / cols) as u32), w);
                part.reported += 1;
                fold_extrema(&mut part.mean_extrema, s.clone(), |s| s.mean_ms);
                fold_extrema(&mut part.std_extrema, s, |s| s.std_ms);
            }
            part
        });
        let mut all = ChunkSummary::default();
        for part in parts {
            all.total_samples += part.total_samples;
            all.reported += part.reported;
            if let Some((min, max)) = part.mean_extrema {
                fold_extrema(&mut all.mean_extrema, min, |s| s.mean_ms);
                fold_extrema(&mut all.mean_extrema, max, |s| s.mean_ms);
            }
            if let Some((min, max)) = part.std_extrema {
                fold_extrema(&mut all.std_extrema, min, |s| s.std_ms);
                fold_extrema(&mut all.std_extrema, max, |s| s.std_ms);
            }
        }
        all
    }

    /// Grand mean over *reported* cells (unweighted across cells, as the
    /// paper compares cell means): one row-major walk over the
    /// accumulators on the calling thread, adding every reported mean in
    /// turn, so the sum keeps its bits at any pool size.
    pub fn grand_mean_ms(&self) -> f64 {
        // `Iterator::sum`'s neutral element, so the grand mean keeps its bits.
        let (mut sum, mut reported) = (-0.0, 0u64);
        for w in self.acc.iter().filter(|w| w.count() >= MIN_SAMPLES) {
            sum += w.mean();
            reported += 1;
        }
        if reported == 0 {
            0.0
        } else {
            sum / reported as f64
        }
    }

    /// Minimum / maximum reported cell means with their cells. Ties go to
    /// the first equal cell for the minimum and the last for the maximum.
    pub fn mean_extrema(&self) -> Option<(CellStats, CellStats)> {
        self.counts_and_extrema().mean_extrema
    }

    /// Minimum / maximum reported cell standard deviations, with ties
    /// broken as in [`Self::mean_extrema`].
    pub fn std_extrema(&self) -> Option<(CellStats, CellStats)> {
        self.counts_and_extrema().std_extrema
    }

    /// Total sample count over all cells.
    pub fn total_samples(&self) -> u64 {
        self.acc.iter().map(|w| w.count()).sum()
    }

    /// The raw per-cell accumulators, row-major — the exact internal state,
    /// exposed so the checkpoint store can persist a field bit for bit.
    pub fn accumulators(&self) -> &[Welford] {
        &self.acc
    }

    /// Rebuilds a field from [`Self::accumulators`] output verbatim.
    /// `acc.len()` must equal `grid.len()`.
    pub fn from_accumulators(grid: GridSpec, acc: Vec<Welford>) -> Self {
        assert_eq!(acc.len(), grid.len(), "accumulator count must match grid size");
        Self { grid, acc }
    }
}

#[cfg(test)]
impl CellField {
    /// Every accumulator's exact state, row-major: what the bitwise tests
    /// compare.
    pub(crate) fn accumulator_bits(&self) -> Vec<(u64, u64, u64, u64, u64)> {
        self.acc
            .iter()
            .map(|w| {
                let (n, mean, m2, min, max) = w.raw_parts();
                (n, mean.to_bits(), m2.to_bits(), min.to_bits(), max.to_bits())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixg_geo::GeoPoint;

    fn grid() -> GridSpec {
        GridSpec::new(GeoPoint::new(46.65, 14.25), 6, 7, 1.0)
    }

    #[test]
    fn masking_below_ten_samples() {
        let mut f = CellField::new(grid());
        let a = CellId::parse("A1").unwrap();
        let b = CellId::parse("B1").unwrap();
        for i in 0..9 {
            f.push(a, 50.0 + i as f64);
        }
        for i in 0..10 {
            f.push(b, 70.0 + i as f64);
        }
        assert!(f.stats(a).is_masked());
        assert_eq!(f.stats(a).mean_ms, 0.0);
        assert!(!f.stats(b).is_masked());
        assert!((f.stats(b).mean_ms - 74.5).abs() < 1e-9);
    }

    #[test]
    fn grand_mean_ignores_masked() {
        let mut f = CellField::new(grid());
        let a = CellId::parse("A1").unwrap();
        let b = CellId::parse("B1").unwrap();
        for _ in 0..20 {
            f.push(a, 60.0);
            f.push(b, 80.0);
        }
        f.push(CellId::parse("C1").unwrap(), 1000.0); // masked
        assert!((f.grand_mean_ms() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn extrema() {
        let mut f = CellField::new(grid());
        for (cell, v) in [("A1", 61.0), ("B1", 110.0), ("C1", 75.0)] {
            let c = CellId::parse(cell).unwrap();
            for k in 0..12 {
                f.push(c, v + (k % 3) as f64 * 0.1);
            }
        }
        let (min, max) = f.mean_extrema().unwrap();
        assert_eq!(min.cell.label(), "A1");
        assert_eq!(max.cell.label(), "B1");
    }

    #[test]
    fn merge_equals_sequential() {
        let c = CellId::parse("C3").unwrap();
        let mut whole = CellField::new(grid());
        let mut p1 = CellField::new(grid());
        let mut p2 = CellField::new(grid());
        for i in 0..100 {
            let v = 60.0 + (i as f64 * 0.7).sin() * 20.0;
            whole.push(c, v);
            if i % 2 == 0 {
                p1.push(c, v);
            } else {
                p2.push(c, v);
            }
        }
        p1.merge(&p2);
        let (a, b) = (whole.stats(c), p1.stats(c));
        assert_eq!(a.count, b.count);
        assert!((a.mean_ms - b.mean_ms).abs() < 1e-9);
        assert!((a.std_ms - b.std_ms).abs() < 1e-9);
    }

    /// The streaming statistics break ties exactly as the `reported()`
    /// based ones they replaced: `min_by` keeps the first equal cell,
    /// `max_by` the last, for means and σ alike.
    #[test]
    fn streaming_extrema_break_ties_like_min_by_and_max_by() {
        let mut f = CellField::new(grid());
        let low = [50.0, 52.0, 54.0, 50.0, 52.0, 54.0, 50.0, 52.0, 54.0, 50.0, 52.0, 54.0];
        let high = low.map(|v| v + 40.0);
        // Three cells tie at the lowest mean, three at the highest, and one
        // sits strictly between; all seven share one σ. A masked cell with
        // a lower mean and σ must not count.
        for label in ["B1", "A3", "F5"] {
            let c = CellId::parse(label).unwrap();
            low.iter().for_each(|&v| f.push(c, v));
        }
        for label in ["E1", "C4", "A7"] {
            let c = CellId::parse(label).unwrap();
            high.iter().for_each(|&v| f.push(c, v));
        }
        let mid = CellId::parse("D2").unwrap();
        low.iter().for_each(|&v| f.push(mid, v + 20.0));
        f.push(CellId::parse("C3").unwrap(), 1.0);

        let rep = f.reported();
        assert_eq!(rep.len(), 7);
        assert!(rep.iter().all(|s| s.std_ms.to_bits() == rep[0].std_ms.to_bits()), "σ must tie");
        let by_mean = |a: &&CellStats, b: &&CellStats| a.mean_ms.total_cmp(&b.mean_ms);
        let by_std = |a: &&CellStats, b: &&CellStats| a.std_ms.total_cmp(&b.std_ms);
        let old_mean = (rep.iter().min_by(by_mean).cloned(), rep.iter().max_by(by_mean).cloned());
        let old_std = (rep.iter().min_by(by_std).cloned(), rep.iter().max_by(by_std).cloned());
        let old_grand = rep.iter().map(|s| s.mean_ms).sum::<f64>() / rep.len() as f64;

        let (min, max) = f.mean_extrema().unwrap();
        assert_eq!((Some(min.clone()), Some(max.clone())), old_mean);
        assert_eq!((min.cell.label(), max.cell.label()), ("B1".into(), "A7".into()));
        let (smin, smax) = f.std_extrema().unwrap();
        assert_eq!((Some(smin.clone()), Some(smax.clone())), old_std);
        assert_eq!((smin.cell.label(), smax.cell.label()), ("B1".into(), "A7".into()));
        assert_eq!(f.grand_mean_ms().to_bits(), old_grand.to_bits());

        let summary = f.summary();
        assert_eq!(summary.mean_extrema, Some((min, max)));
        assert_eq!(summary.std_extrema, Some((smin, smax)));
        assert_eq!(summary.grand_mean_ms.to_bits(), old_grand.to_bits());
        assert_eq!(summary.total_samples, f.total_samples());
        assert_eq!(summary.reported_cells, rep.len() as u64);
    }

    /// A grid of two summary chunks, with the lowest reported mean tied
    /// across them and the highest tied across them too: the chunked
    /// summary must keep the single-pass fold's tie rule (the first equal
    /// minimum and the last equal maximum win) and its grand-mean bits.
    #[test]
    fn chunked_summary_breaks_ties_across_chunks_like_one_pass() {
        let grid = GridSpec::new(GeoPoint::new(46.65, 14.25), 300, 300, 1.0);
        let mut acc = vec![Welford::new(); grid.len()];
        let mut fill = |i: usize, mean: f64, spread: f64, n: usize| {
            (0..n).for_each(|k| acc[i].push(mean + spread * (k % 3) as f64));
        };
        // The chunk seam is at index 2¹⁶ = 65 536. Cells 100 and 70 000 tie
        // at the lowest mean and σ, cells 200 and 80 000 at the highest.
        for i in [100, 70_000] {
            fill(i, 40.0, 0.5, 12);
        }
        for i in [200, 80_000] {
            fill(i, 90.0, 2.0, 12);
        }
        for (i, mean) in [(7, 60.0), (65_535, 47.25), (65_536, 53.5), (89_999, 71.0)] {
            fill(i, mean, 1.0, 12);
        }
        // Means that round, on both sides of the seam, so a grand-mean sum
        // regrouped by chunk would move the last bits.
        for i in (1_000..1_050).chain(66_000..66_050) {
            fill(i, 50.0 + (i % 17) as f64 * 0.3, 1.0, 12);
        }
        fill(75_000, 10.0, 0.1, 9); // masked: a lower mean and σ that must not count
        let f = CellField::from_accumulators(grid, acc);

        let rep = f.reported();
        assert_eq!(rep.len(), 108);
        let by_mean = |a: &&CellStats, b: &&CellStats| a.mean_ms.total_cmp(&b.mean_ms);
        let by_std = |a: &&CellStats, b: &&CellStats| a.std_ms.total_cmp(&b.std_ms);
        let one_pass_mean =
            (rep.iter().min_by(by_mean).cloned(), rep.iter().max_by(by_mean).cloned());
        let one_pass_std = (rep.iter().min_by(by_std).cloned(), rep.iter().max_by(by_std).cloned());
        let one_pass_grand = rep.iter().map(|s| s.mean_ms).sum::<f64>() / rep.len() as f64;

        let summary = f.summary();
        let (min, max) = summary.mean_extrema.clone().expect("reported cells");
        assert_eq!((min.cell, max.cell), (CellId::new(100, 0), CellId::new(200, 266)));
        assert_eq!((Some(min), Some(max)), one_pass_mean);
        let (smin, smax) = summary.std_extrema.clone().expect("reported cells");
        assert_eq!((smin.cell, smax.cell), (CellId::new(100, 0), CellId::new(200, 266)));
        assert_eq!((Some(smin), Some(smax)), one_pass_std);
        assert_eq!(summary.grand_mean_ms.to_bits(), one_pass_grand.to_bits());
        assert_eq!(summary.total_samples, 108 * 12 + 9);
        assert_eq!(summary.reported_cells, 108);
    }

    #[test]
    fn empty_field_grand_mean_zero() {
        let f = CellField::new(grid());
        assert_eq!(f.grand_mean_ms(), 0.0);
        assert!(f.mean_extrema().is_none());
        assert!(f.std_extrema().is_none());
        assert_eq!(f.total_samples(), 0);
        assert_eq!(f.summary().reported_cells, 0);
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn push_outside_panics() {
        let mut f = CellField::new(grid());
        f.push(CellId::new(20, 20), 1.0);
    }

    #[test]
    fn accumulator_round_trip_is_bitwise() {
        let mut f = CellField::new(grid());
        for i in 0..500u64 {
            let cell = CellId::new((i % 6) as u32, (i % 7) as u32);
            f.push(cell, 40.0 + (i as f64 * 0.13).sin() * 25.0);
        }
        let rebuilt = CellField::from_accumulators(f.grid().clone(), f.accumulators().to_vec());
        for (a, b) in f.accumulators().iter().zip(rebuilt.accumulators()) {
            assert_eq!(a.raw_parts().0, b.raw_parts().0);
            assert_eq!(a.raw_parts().1.to_bits(), b.raw_parts().1.to_bits());
            assert_eq!(a.raw_parts().2.to_bits(), b.raw_parts().2.to_bits());
            assert_eq!(a.raw_parts().3.to_bits(), b.raw_parts().3.to_bits());
            assert_eq!(a.raw_parts().4.to_bits(), b.raw_parts().4.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "accumulator count")]
    fn from_accumulators_rejects_shape_mismatch() {
        let _ = CellField::from_accumulators(grid(), vec![Welford::new(); 3]);
    }
}

/// The disjoint-support merge contract (see [`CellField::merge`]), pinned by
/// property tests: any partition of a sample stream into per-cell-disjoint
/// shards merges back to the unpartitioned field bit for bit, in any merge
/// order.
#[cfg(test)]
mod merge_contract {
    use super::*;
    use proptest::prelude::*;
    use sixg_geo::GeoPoint;
    use sixg_netsim::rng::splitmix64;

    fn grid() -> GridSpec {
        GridSpec::new(GeoPoint::new(46.65, 14.25), 6, 7, 1.0)
    }

    /// The exact bit pattern of every accumulator in the field.
    fn bits(f: &CellField) -> Vec<(u64, u64, u64, u64, u64)> {
        f.accumulators()
            .iter()
            .map(|w| {
                let (n, mean, m2, min, max) = w.raw_parts();
                (n, mean.to_bits(), m2.to_bits(), min.to_bits(), max.to_bits())
            })
            .collect()
    }

    /// Deterministic sample stream: `(cell, value)` pairs derived from `seed`.
    fn stream(seed: u64, len: usize) -> Vec<(CellId, f64)> {
        (0..len as u64)
            .map(|i| {
                let h = splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let cell = CellId::new((h % 6) as u32, ((h >> 8) % 7) as u32);
                let v = 30.0 + ((h >> 16) % 10_000) as f64 * 0.01;
                (cell, v)
            })
            .collect()
    }

    /// Splits the stream into `k` fields with per-cell-disjoint support:
    /// every cell's samples land in exactly one shard, chosen by `owner`.
    fn partition(
        samples: &[(CellId, f64)],
        k: usize,
        owner: impl Fn(CellId) -> usize,
    ) -> Vec<CellField> {
        let mut parts = vec![CellField::new(grid()); k];
        for &(cell, v) in samples {
            parts[owner(cell)].push(cell, v);
        }
        parts
    }

    /// Merges `parts` (in the given index order) into a fresh empty field.
    fn merge_in_order(parts: &[CellField], order: &[usize]) -> CellField {
        let mut out = CellField::new(grid());
        for &i in order {
            out.merge(&parts[i]);
        }
        out
    }

    proptest! {
        #[test]
        fn disjoint_kway_partition_merges_bitwise(
            seed in any::<u64>(),
            k in 2usize..7,
            len in 1usize..300,
        ) {
            let samples = stream(seed, len);
            let mut whole = CellField::new(grid());
            for &(cell, v) in &samples {
                whole.push(cell, v);
            }
            let parts = partition(&samples, k, |c| {
                splitmix64(seed ^ ((c.col as u64) << 8) ^ c.row as u64) as usize % k
            });
            let forward: Vec<usize> = (0..k).collect();
            prop_assert_eq!(bits(&merge_in_order(&parts, &forward)), bits(&whole));
        }

        #[test]
        fn disjoint_merge_is_order_independent(
            seed in any::<u64>(),
            k in 2usize..7,
            len in 1usize..300,
            rot in 0usize..7,
        ) {
            let samples = stream(seed, len);
            let parts = partition(&samples, k, |c| {
                splitmix64(seed ^ ((c.col as u64) << 8) ^ c.row as u64) as usize % k
            });
            let forward: Vec<usize> = (0..k).collect();
            let reversed: Vec<usize> = (0..k).rev().collect();
            let rotated: Vec<usize> = (0..k).map(|i| (i + rot) % k).collect();
            let reference = bits(&merge_in_order(&parts, &forward));
            prop_assert_eq!(bits(&merge_in_order(&parts, &reversed)), reference.clone());
            prop_assert_eq!(bits(&merge_in_order(&parts, &rotated)), reference);
        }

        #[test]
        fn skewed_two_way_split_merges_bitwise(
            seed in any::<u64>(),
            len in 1usize..300,
            skew in 1u64..10,
        ) {
            // One shard owns ~`skew`/10 of the cells — the degenerate splits
            // (one shard nearly empty) must round-trip just like even ones.
            let samples = stream(seed, len);
            let mut whole = CellField::new(grid());
            for &(cell, v) in &samples {
                whole.push(cell, v);
            }
            let parts = partition(&samples, 2, |c| {
                usize::from(splitmix64(seed ^ ((c.col as u64) << 8) ^ c.row as u64) % 10 >= skew)
            });
            prop_assert_eq!(bits(&merge_in_order(&parts, &[0, 1])), bits(&whole));
            prop_assert_eq!(bits(&merge_in_order(&parts, &[1, 0])), bits(&whole));
        }

        #[test]
        fn merging_empty_fields_is_identity(seed in any::<u64>(), len in 1usize..200) {
            let samples = stream(seed, len);
            let mut whole = CellField::new(grid());
            for &(cell, v) in &samples {
                whole.push(cell, v);
            }
            let reference = bits(&whole);
            whole.merge(&CellField::new(grid()));
            prop_assert_eq!(bits(&whole), reference.clone());
            let mut from_empty = CellField::new(grid());
            from_empty.merge(&whole);
            prop_assert_eq!(bits(&from_empty), reference);
        }
    }
}
