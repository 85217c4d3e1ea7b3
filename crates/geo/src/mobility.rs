//! Mobility models for the measurement campaign.
//!
//! The campaign drives a mobile node through the sector "influenced by
//! adherence to traffic flow dynamics and local traffic regulations", which
//! makes per-cell dwell time — and hence per-cell sample count — uneven.
//! We model this with a Manhattan-grid traversal (the standard urban
//! mobility abstraction of Maeda et al., which the paper cites for its
//! partitioning methodology) plus a random-waypoint baseline.
//!
//! Randomness is injected via a caller-provided deterministic hash seed so
//! identical scenarios produce identical routes.

use crate::grid::{CellId, GridSpec};
use serde::{Deserialize, Serialize};

/// One leg of a traversal: the cell visited and the dwell time spent in it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Visit {
    /// Cell being traversed.
    pub cell: CellId,
    /// Dwell time in seconds.
    pub dwell_s: f64,
}

/// A full traversal of the sector by one mobile node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Traversal {
    /// Ordered list of visits. Cells may repeat (streets re-enter cells).
    pub visits: Vec<Visit>,
}

impl Traversal {
    /// Total dwell time of the traversal, seconds.
    pub fn duration_s(&self) -> f64 {
        self.visits.iter().map(|v| v.dwell_s).sum()
    }

    /// Distinct cells visited, in first-visit order.
    pub fn distinct_cells(&self) -> Vec<CellId> {
        let mut seen = Vec::new();
        for v in &self.visits {
            if !seen.contains(&v.cell) {
                seen.push(v.cell);
            }
        }
        seen
    }

    /// Total dwell time per cell, summed over repeated visits.
    pub fn dwell_per_cell(&self) -> Vec<(CellId, f64)> {
        let mut out: Vec<(CellId, f64)> = Vec::new();
        for v in &self.visits {
            match out.iter_mut().find(|(c, _)| *c == v.cell) {
                Some((_, d)) => *d += v.dwell_s,
                None => out.push((v.cell, v.dwell_s)),
            }
        }
        out
    }
}

/// Deterministic 64-bit mix (splitmix64) used to derive per-cell factors.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0,1)` from a hash state.
#[inline]
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Manhattan-grid mobility: the node sweeps the grid in a boustrophedon
/// (lawn-mower) pattern — the deterministic idealisation of a street
/// traversal that covers every reachable cell once.
#[derive(Debug, Clone)]
pub struct ManhattanMobility {
    /// Mean dwell time per cell, seconds (cell size / mean urban speed).
    pub mean_dwell_s: f64,
    /// Relative dwell variability caused by traffic lights & congestion
    /// (0 = constant speed).
    pub dwell_jitter: f64,
    /// Scenario seed.
    pub seed: u64,
}

impl ManhattanMobility {
    /// Default urban parameters: 1 km cells at ~30 km/h effective speed
    /// gives 120 s per cell; ±40 % congestion variability.
    pub fn urban(seed: u64) -> Self {
        Self { mean_dwell_s: 120.0, dwell_jitter: 0.4, seed }
    }

    /// Generates a traversal over `grid` restricted to `included` cells
    /// (cells not in `included` are skipped, emulating blocked or
    /// out-of-scope areas — the paper traverses 33 of 42 cells): every
    /// grid row in turn, through [`Self::visit_row`].
    pub fn traverse(&self, grid: &GridSpec, included: &[CellId]) -> Traversal {
        // Index inclusion by grid position up front: the naive
        // `included.contains(&cell)` scan is O(cells × included), which at
        // continental scale (10⁶ cells, 10⁶ included) is 10¹² comparisons.
        // The bitmap makes the sweep O(cells + included) with identical
        // output.
        let cols = grid.cols as usize;
        let mut in_set = vec![false; grid.len()];
        for cell in included {
            if grid.contains(*cell) {
                in_set[cell.row as usize * cols + cell.col as usize] = true;
            }
        }
        let mut visits = Vec::with_capacity(included.len());
        for (r, row) in (0..grid.rows).zip(in_set.chunks(cols)) {
            self.visit_row(r, (0..grid.cols).filter(|&c| row[c as usize]), |v| visits.push(v));
        }
        Traversal { visits }
    }

    /// The visit of `cell`. Its dwell depends only on the seed and the
    /// cell, not on where the cell falls in the traversal.
    pub fn visit(&self, cell: CellId) -> Visit {
        let h = mix64(self.seed ^ mix64((cell.col as u64) << 32 | cell.row as u64));
        let jitter = 1.0 + self.dwell_jitter * (2.0 * unit_f64(h) - 1.0);
        Visit { cell, dwell_s: self.mean_dwell_s * jitter.max(0.05) }
    }

    /// The visits of grid row `row`, in traversal order, passed to `emit`.
    /// `cols` yields the row's included columns west to east. Even rows are
    /// driven west to east and odd rows back east to west, so consecutive
    /// rows join into one lawn-mower sweep. Each visit is [`Self::visit`]
    /// of its cell, so a caller holding a run of rows' included columns
    /// can produce its visits without the rest of the traversal.
    pub fn visit_row<I>(&self, row: u32, cols: I, mut emit: impl FnMut(Visit))
    where
        I: DoubleEndedIterator<Item = u32>,
    {
        let mut visit = |c: u32| emit(self.visit(CellId::new(c, row)));
        if row.is_multiple_of(2) {
            cols.for_each(&mut visit);
        } else {
            cols.rev().for_each(&mut visit);
        }
    }
}

/// Random-waypoint mobility over cell centroids: the classical baseline
/// model. Produces `hops` legs between uniformly chosen included cells.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    /// Mean dwell per visited cell, seconds.
    pub mean_dwell_s: f64,
    /// Number of waypoints to draw.
    pub hops: usize,
    /// Scenario seed.
    pub seed: u64,
}

impl RandomWaypoint {
    /// Generates a traversal with `hops` uniformly random waypoints.
    pub fn traverse(&self, _grid: &GridSpec, included: &[CellId]) -> Traversal {
        assert!(!included.is_empty(), "need at least one included cell");
        let mut visits = Vec::with_capacity(self.hops);
        let mut state = mix64(self.seed);
        for _ in 0..self.hops {
            state = mix64(state);
            let idx = (state % included.len() as u64) as usize;
            state = mix64(state ^ 0xA5A5_5A5A_DEAD_BEEF);
            let dwell = self.mean_dwell_s * (0.5 + unit_f64(state));
            visits.push(Visit { cell: included[idx], dwell_s: dwell });
        }
        Traversal { visits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::GeoPoint;

    fn grid() -> GridSpec {
        GridSpec::new(GeoPoint::new(46.65, 14.25), 6, 7, 1.0)
    }

    fn all_cells(g: &GridSpec) -> Vec<CellId> {
        g.cells().collect()
    }

    #[test]
    fn lawnmower_visits_every_included_cell_once() {
        let g = grid();
        let included = all_cells(&g);
        let t = ManhattanMobility::urban(7).traverse(&g, &included);
        assert_eq!(t.visits.len(), 42);
        assert_eq!(t.distinct_cells().len(), 42);
    }

    #[test]
    fn exclusion_skips_cells() {
        let g = grid();
        let mut included = all_cells(&g);
        included.retain(|c| c.label() != "A1" && c.label() != "F7");
        let t = ManhattanMobility::urban(7).traverse(&g, &included);
        assert_eq!(t.visits.len(), 40);
        assert!(!t.distinct_cells().iter().any(|c| c.label() == "A1"));
    }

    #[test]
    fn rows_visited_alone_join_into_the_traversal() {
        let g = grid();
        let mut included = all_cells(&g);
        included.retain(|c| (c.col + 2 * c.row) % 5 != 0);
        let m = ManhattanMobility::urban(9);
        let mut rows = Vec::new();
        for r in (0..g.rows).rev() {
            let cols: Vec<u32> = included.iter().filter(|c| c.row == r).map(|c| c.col).collect();
            let mut row = Vec::new();
            m.visit_row(r, cols.into_iter(), |v| row.push(v));
            rows.push(row);
        }
        let joined: Vec<Visit> = rows.into_iter().rev().flatten().collect();
        assert_eq!(joined, m.traverse(&g, &included).visits);
        // Row 1 starts at its easternmost included column.
        assert_eq!(joined[4].cell, CellId::new(5, 1), "odd rows run east to west");
    }

    #[test]
    fn traversal_is_deterministic_in_seed() {
        let g = grid();
        let included = all_cells(&g);
        let a = ManhattanMobility::urban(42).traverse(&g, &included);
        let b = ManhattanMobility::urban(42).traverse(&g, &included);
        let c = ManhattanMobility::urban(43).traverse(&g, &included);
        assert_eq!(a.visits, b.visits);
        assert_ne!(
            a.visits.iter().map(|v| v.dwell_s).collect::<Vec<_>>(),
            c.visits.iter().map(|v| v.dwell_s).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dwell_stays_within_jitter_band() {
        let g = grid();
        let m = ManhattanMobility { mean_dwell_s: 100.0, dwell_jitter: 0.4, seed: 3 };
        let t = m.traverse(&g, &all_cells(&g));
        for v in &t.visits {
            assert!(v.dwell_s >= 60.0 - 1e-9 && v.dwell_s <= 140.0 + 1e-9, "dwell {}", v.dwell_s);
        }
    }

    #[test]
    fn duration_is_sum_of_dwells() {
        let g = grid();
        let t = ManhattanMobility::urban(1).traverse(&g, &all_cells(&g));
        let sum: f64 = t.visits.iter().map(|v| v.dwell_s).sum();
        assert!((t.duration_s() - sum).abs() < 1e-9);
    }

    #[test]
    fn random_waypoint_dwell_positive_and_deterministic() {
        let g = grid();
        let included = all_cells(&g);
        let rw = RandomWaypoint { mean_dwell_s: 60.0, hops: 100, seed: 11 };
        let a = rw.traverse(&g, &included);
        let b = rw.traverse(&g, &included);
        assert_eq!(a.visits, b.visits);
        assert_eq!(a.visits.len(), 100);
        assert!(a.visits.iter().all(|v| v.dwell_s > 0.0));
    }

    #[test]
    fn dwell_per_cell_merges_repeats() {
        let g = grid();
        let rw = RandomWaypoint { mean_dwell_s: 60.0, hops: 500, seed: 5 };
        let t = rw.traverse(&g, &all_cells(&g));
        let per = t.dwell_per_cell();
        let total: f64 = per.iter().map(|(_, d)| d).sum();
        assert!((total - t.duration_s()).abs() < 1e-6);
        assert!(per.len() <= 42);
    }
}
