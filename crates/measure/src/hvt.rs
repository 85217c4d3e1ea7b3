//! Hierarchical topology-preserving super-cell aggregation (HVT-style).
//!
//! A mega-grid campaign produces a [`CellField`] with up to
//! [`crate::spec::MAX_GRID_CELLS`] cells — far too many to enumerate in a
//! wire report or eyeball in a table. This module compresses such a field
//! into a **two-level hierarchy** the way hierarchical vector quantization
//! builds topology-preserving maps: compress the rows under a quantization
//! objective, keep the spatial arrangement navigable.
//!
//! * **Level 1 — tiles.** The grid is partitioned into square tiles of
//!   [`HvtConfig::tile_cells`] cells per side, kept in row-major order.
//!   Tiles are pure geometry, so the level-1 layer preserves the grid's
//!   topology exactly: neighbouring tiles hold neighbouring cells.
//! * **Level 2 — super-cells.** Within each tile, reported cells are
//!   quantized by the feature triple *(mean, exceedance, position)*: the
//!   cell's mean RTL is banded over the field-wide reported range into
//!   [`HvtConfig::mean_bands`] equal-width bands, crossed with whether the
//!   mean exceeds the latency requirement. Each occupied *(band,
//!   exceedance)* bucket becomes one [`SuperCell`] carrying the member
//!   count, aggregate statistics, the row-major-first member as its
//!   anchor, and the members' bounding box (the positional component —
//!   a super-cell never spans beyond its tile, so position survives
//!   quantization).
//!
//! The construction is a pure fold over the field in row-major order —
//! no RNG, no iteration-order sensitivity — so the report is bitwise
//! deterministic and identical across pool sizes, exactly like the field
//! it summarises.

use crate::aggregate::{CellField, CellStats, FieldSummary};
use crate::parallel::{map_chunks, row_chunks};
use serde::Serialize;
use sixg_geo::{CellId, GridSpec};

/// Default number of equal-width mean bands per tile.
pub const DEFAULT_MEAN_BANDS: u32 = 4;

/// Default tiling target: tiles per axis along the grid's longest side.
pub const DEFAULT_TILES_PER_AXIS: u32 = 16;

/// Parameters of the super-cell construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HvtConfig {
    /// Cells per tile side (level-1 partition pitch).
    pub tile_cells: u32,
    /// Equal-width mean bands over the field-wide reported range.
    pub mean_bands: u32,
    /// Latency requirement the exceedance component quantizes against, ms.
    pub requirement_ms: f64,
}

impl HvtConfig {
    /// A configuration tiling `grid` into about
    /// [`DEFAULT_TILES_PER_AXIS`] tiles along its longest side, with
    /// [`DEFAULT_MEAN_BANDS`] mean bands.
    pub fn for_grid(grid: &GridSpec, requirement_ms: f64) -> Self {
        let longest = grid.cols.max(grid.rows);
        Self {
            tile_cells: longest.div_ceil(DEFAULT_TILES_PER_AXIS).max(1),
            mean_bands: DEFAULT_MEAN_BANDS,
            requirement_ms,
        }
    }
}

/// One level-2 quantization bucket: the reported cells of a tile sharing a
/// mean band and an exceedance verdict.
#[derive(Debug, Clone, Serialize)]
pub struct SuperCell {
    /// Mean band index (`0..mean_bands`, low to high).
    pub band: u32,
    /// Whether member means exceed the requirement.
    pub exceeds: bool,
    /// Member cell count.
    pub cells: u64,
    /// Total samples across members.
    pub samples: u64,
    /// Unweighted mean of member cell means, ms.
    pub mean_ms: f64,
    /// Minimum member mean, ms.
    pub mean_min_ms: f64,
    /// Maximum member mean, ms.
    pub mean_max_ms: f64,
    /// Unweighted mean of member cell σ, ms.
    pub std_ms: f64,
    /// Label of the first member in row-major order.
    pub anchor: String,
    /// Minimum member column (bounding box).
    pub col_min: u32,
    /// Maximum member column.
    pub col_max: u32,
    /// Minimum member row.
    pub row_min: u32,
    /// Maximum member row.
    pub row_max: u32,
}

/// One level-1 tile: a square patch of the grid with its super-cells.
#[derive(Debug, Clone, Serialize)]
pub struct Tile {
    /// Tile column index (level-1 coordinates).
    pub tile_col: u32,
    /// Tile row index.
    pub tile_row: u32,
    /// Label of the tile's top-left grid cell.
    pub origin: String,
    /// Reported (unmasked) cells in the tile.
    pub reported_cells: u64,
    /// Masked cells in the tile.
    pub masked_cells: u64,
    /// Unweighted mean over the tile's reported cells, ms (0.0 when none).
    pub mean_ms: f64,
    /// The tile's occupied quantization buckets, ordered by
    /// `(band, exceeds)`.
    pub super_cells: Vec<SuperCell>,
}

/// The two-level hierarchical summary of a [`CellField`].
#[derive(Debug, Clone, Serialize)]
pub struct HvtReport {
    /// Cells per tile side used for the level-1 partition.
    pub tile_cells: u32,
    /// Mean bands used for the level-2 quantization.
    pub mean_bands: u32,
    /// Requirement the exceedance component used, ms.
    pub requirement_ms: f64,
    /// Low edge of the band range (field-wide reported mean minimum), ms.
    pub band_lo_ms: f64,
    /// High edge of the band range (field-wide reported mean maximum), ms.
    pub band_hi_ms: f64,
    /// Tile columns.
    pub tile_cols: u32,
    /// Tile rows.
    pub tile_rows: u32,
    /// Reported cells field-wide.
    pub reported_cells: u64,
    /// Masked cells field-wide.
    pub masked_cells: u64,
    /// All tiles, row-major (fully masked tiles included, so the level-1
    /// layer always covers the whole grid).
    pub tiles: Vec<Tile>,
}

impl HvtReport {
    /// Serialises to pretty JSON (deterministic, like the construction).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("hvt report serialises")
    }
}

/// Per-bucket running aggregate during the fold.
struct SuperAcc {
    cells: u64,
    samples: u64,
    mean_sum: f64,
    mean_min: f64,
    mean_max: f64,
    std_sum: f64,
    anchor: CellId,
    col_min: u32,
    col_max: u32,
    row_min: u32,
    row_max: u32,
}

impl SuperAcc {
    fn open(s: &CellStats) -> Self {
        Self {
            cells: 1,
            samples: s.count,
            mean_sum: s.mean_ms,
            mean_min: s.mean_ms,
            mean_max: s.mean_ms,
            std_sum: s.std_ms,
            anchor: s.cell,
            col_min: s.cell.col,
            col_max: s.cell.col,
            row_min: s.cell.row,
            row_max: s.cell.row,
        }
    }

    fn fold(&mut self, s: &CellStats) {
        self.cells += 1;
        self.samples += s.count;
        self.mean_sum += s.mean_ms;
        self.mean_min = self.mean_min.min(s.mean_ms);
        self.mean_max = self.mean_max.max(s.mean_ms);
        self.std_sum += s.std_ms;
        self.col_min = self.col_min.min(s.cell.col);
        self.col_max = self.col_max.max(s.cell.col);
        self.row_min = self.row_min.min(s.cell.row);
        self.row_max = self.row_max.max(s.cell.row);
    }
}

struct TileAcc {
    reported: u64,
    masked: u64,
    mean_sum: f64,
    buckets: Vec<Option<SuperAcc>>,
}

impl TileAcc {
    fn new(bucket_count: usize) -> Self {
        Self {
            reported: 0,
            masked: 0,
            mean_sum: 0.0,
            buckets: (0..bucket_count).map(|_| None).collect(),
        }
    }
}

/// Builds the two-level super-cell hierarchy of `field`, banded over the
/// reported mean range of its [`CellField::summary`].
pub fn build(field: &CellField, cfg: &HvtConfig) -> HvtReport {
    build_from_summary(field, cfg, &field.summary())
}

/// [`build`] for a caller that already holds `summary`, the field's own
/// [`CellField::summary`]: its mean extrema anchor the bands and its
/// reported count sets the masked one.
///
/// The tiles run in index-ordered chunks of whole tile rows, on the pool
/// when the grid spans more than one. A tile's cells all fall in one chunk
/// and fold in row-major order there, so the report has the same bits at
/// any pool size.
pub(crate) fn build_from_summary(
    field: &CellField,
    cfg: &HvtConfig,
    summary: &FieldSummary,
) -> HvtReport {
    assert!(cfg.tile_cells >= 1, "tile side must be at least one cell");
    assert!(cfg.mean_bands >= 1, "need at least one mean band");
    let grid = field.grid();
    let tile_cols = grid.cols.div_ceil(cfg.tile_cells);
    let tile_rows = grid.rows.div_ceil(cfg.tile_cells);
    let reported_cells = summary.reported_cells;
    let masked_cells = grid.len() as u64 - reported_cells;

    // Banding against the field-wide range (not per tile) keeps band
    // indices comparable across tiles — band 3 means "hot" everywhere.
    let (lo, hi) =
        summary.mean_extrema.as_ref().map_or((0.0, 0.0), |(a, b)| (a.mean_ms, b.mean_ms));
    let band_of = |mean: f64| -> u32 {
        if hi <= lo {
            return 0;
        }
        let raw = ((mean - lo) / (hi - lo) * f64::from(cfg.mean_bands)) as u32;
        raw.min(cfg.mean_bands - 1)
    };

    // Fold every cell into its tile's (band, exceedance) bucket.
    // Row-major cell order makes the first member of each bucket — the
    // anchor — deterministic.
    let bucket_count = cfg.mean_bands as usize * 2;
    let tile_row_cells = cfg.tile_cells as usize * grid.cols as usize;
    let tile_chunks = map_chunks(row_chunks(tile_rows, tile_row_cells), |chunk| {
        let first_row = chunk.start * cfg.tile_cells;
        let last_row = (chunk.end * cfg.tile_cells).min(grid.rows);
        let mut tiles: Vec<TileAcc> =
            (0..chunk.len() * tile_cols as usize).map(|_| TileAcc::new(bucket_count)).collect();
        for row in first_row..last_row {
            let tile_row = ((row - first_row) / cfg.tile_cells) as usize * tile_cols as usize;
            for col in 0..grid.cols {
                let t = tile_row + (col / cfg.tile_cells) as usize;
                let s = field.stats(CellId::new(col, row));
                if s.is_masked() {
                    tiles[t].masked += 1;
                    continue;
                }
                tiles[t].reported += 1;
                tiles[t].mean_sum += s.mean_ms;
                let exceeds = s.mean_ms > cfg.requirement_ms;
                let b = band_of(s.mean_ms) as usize * 2 + usize::from(exceeds);
                match &mut tiles[t].buckets[b] {
                    Some(acc) => acc.fold(&s),
                    slot => *slot = Some(SuperAcc::open(&s)),
                }
            }
        }
        tiles
    });

    let tiles = tile_chunks
        .into_iter()
        .flatten()
        .enumerate()
        .map(|(i, t)| {
            let tile_col = (i % tile_cols as usize) as u32;
            let tile_row = (i / tile_cols as usize) as u32;
            Tile {
                tile_col,
                tile_row,
                origin: CellId::new(tile_col * cfg.tile_cells, tile_row * cfg.tile_cells).label(),
                reported_cells: t.reported,
                masked_cells: t.masked,
                mean_ms: if t.reported == 0 { 0.0 } else { t.mean_sum / t.reported as f64 },
                super_cells: t
                    .buckets
                    .into_iter()
                    .enumerate()
                    .filter_map(|(b, acc)| {
                        let acc = acc?;
                        Some(SuperCell {
                            band: (b / 2) as u32,
                            exceeds: b % 2 == 1,
                            cells: acc.cells,
                            samples: acc.samples,
                            mean_ms: acc.mean_sum / acc.cells as f64,
                            mean_min_ms: acc.mean_min,
                            mean_max_ms: acc.mean_max,
                            std_ms: acc.std_sum / acc.cells as f64,
                            anchor: acc.anchor.label(),
                            col_min: acc.col_min,
                            col_max: acc.col_max,
                            row_min: acc.row_min,
                            row_max: acc.row_max,
                        })
                    })
                    .collect(),
            }
        })
        .collect();

    HvtReport {
        tile_cells: cfg.tile_cells,
        mean_bands: cfg.mean_bands,
        requirement_ms: cfg.requirement_ms,
        band_lo_ms: lo,
        band_hi_ms: hi,
        tile_cols,
        tile_rows,
        reported_cells,
        masked_cells,
        tiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixg_geo::GeoPoint;

    /// A 20×20 field with a smooth diagonal gradient (plus one hot cell),
    /// cells below row 10 left masked.
    fn gradient_field() -> CellField {
        let grid = GridSpec::new(GeoPoint::new(46.0, 14.0), 20, 20, 1.0);
        let mut f = CellField::new(grid);
        for r in 10..20u32 {
            for c in 0..20u32 {
                let cell = CellId::new(c, r);
                let mean = 40.0 + f64::from(c + r);
                let n = if cell == CellId::new(19, 19) { 12 } else { 10 };
                for _ in 0..n {
                    f.push(cell, mean);
                }
            }
        }
        f
    }

    fn cfg() -> HvtConfig {
        HvtConfig { tile_cells: 5, mean_bands: 4, requirement_ms: 60.0 }
    }

    #[test]
    fn hierarchy_covers_every_cell_exactly_once() {
        let f = gradient_field();
        let h = build(&f, &cfg());
        assert_eq!((h.tile_cols, h.tile_rows), (4, 4));
        assert_eq!(h.tiles.len(), 16);
        assert_eq!(h.reported_cells, 200);
        assert_eq!(h.masked_cells, 200);
        let cells: u64 = h.tiles.iter().flat_map(|t| &t.super_cells).map(|s| s.cells).sum();
        assert_eq!(cells, h.reported_cells, "every reported cell lands in one super-cell");
        let masked: u64 = h.tiles.iter().map(|t| t.masked_cells).sum();
        assert_eq!(masked, h.masked_cells);
        let samples: u64 = h.tiles.iter().flat_map(|t| &t.super_cells).map(|s| s.samples).sum();
        assert_eq!(samples, f.total_samples());
    }

    #[test]
    fn super_cells_stay_inside_their_tile() {
        let h = build(&gradient_field(), &cfg());
        for t in &h.tiles {
            let (c0, r0) = (t.tile_col * h.tile_cells, t.tile_row * h.tile_cells);
            for s in &t.super_cells {
                assert!(s.col_min >= c0 && s.col_max < c0 + h.tile_cells, "{s:?}");
                assert!(s.row_min >= r0 && s.row_max < r0 + h.tile_cells, "{s:?}");
                assert!(s.mean_min_ms <= s.mean_ms && s.mean_ms <= s.mean_max_ms);
            }
        }
    }

    #[test]
    fn banding_orders_super_cells_by_mean() {
        let h = build(&gradient_field(), &cfg());
        assert!(h.band_lo_ms < h.band_hi_ms);
        for t in &h.tiles {
            for w in t.super_cells.windows(2) {
                assert!(
                    (w[0].band, w[0].exceeds) < (w[1].band, w[1].exceeds),
                    "buckets must come out in (band, exceedance) order"
                );
            }
            for s in &t.super_cells {
                if s.band > 0 {
                    assert!(s.mean_min_ms > h.band_lo_ms);
                }
            }
        }
    }

    #[test]
    fn exceedance_splits_buckets_at_the_requirement() {
        let h = build(&gradient_field(), &cfg());
        for t in &h.tiles {
            for s in &t.super_cells {
                if s.exceeds {
                    assert!(s.mean_min_ms > h.requirement_ms, "{s:?}");
                } else {
                    assert!(s.mean_max_ms <= h.requirement_ms, "{s:?}");
                }
            }
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let a = build(&gradient_field(), &cfg()).to_json();
        let b = build(&gradient_field(), &cfg()).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_field_yields_masked_tiles() {
        let grid = GridSpec::new(GeoPoint::new(46.0, 14.0), 8, 8, 1.0);
        let h = build(
            &CellField::new(grid),
            &HvtConfig { tile_cells: 4, mean_bands: 2, requirement_ms: 50.0 },
        );
        assert_eq!(h.reported_cells, 0);
        assert_eq!((h.band_lo_ms, h.band_hi_ms), (0.0, 0.0));
        assert!(h.tiles.iter().all(|t| t.super_cells.is_empty() && t.mean_ms == 0.0));
    }

    /// A field of two tile-row chunks (13 tile rows of 20 × 300 cells,
    /// 11 to a chunk): each tile must hold the counts and the mean of a
    /// direct row-major fold over its own cells, and the band range must
    /// be the field's, whichever chunk a tile fell in.
    #[test]
    fn tiles_across_chunk_seams_fold_their_own_cells_in_row_major_order() {
        let grid = GridSpec::new(GeoPoint::new(46.0, 14.0), 300, 250, 1.0);
        let mut f = CellField::new(grid.clone());
        for cell in grid.cells() {
            let n = if (cell.col + cell.row) % 7 == 0 { 5 } else { 10 };
            // The lowest means lie in the first chunk, the highest in the last.
            let mean = 40.0 + f64::from(cell.row) * 0.1 + f64::from((cell.col * 31) % 50) * 0.37;
            for k in 0..n {
                f.push(cell, mean + f64::from(k) * 0.01);
            }
        }
        let cfg = HvtConfig { tile_cells: 20, mean_bands: 4, requirement_ms: 50.0 };
        let h = build(&f, &cfg);
        assert_eq!((h.tile_cols, h.tile_rows), (15, 13));
        let (min, max) = f.mean_extrema().expect("reported cells");
        assert_eq!((h.band_lo_ms, h.band_hi_ms), (min.mean_ms, max.mean_ms));
        for t in &h.tiles {
            let (mut reported, mut masked, mut mean_sum) = (0u64, 0u64, 0.0);
            for row in t.tile_row * 20..(t.tile_row * 20 + 20).min(250) {
                for col in t.tile_col * 20..t.tile_col * 20 + 20 {
                    let s = f.stats(CellId::new(col, row));
                    if s.is_masked() {
                        masked += 1;
                    } else {
                        reported += 1;
                        mean_sum += s.mean_ms;
                    }
                }
            }
            assert_eq!((t.reported_cells, t.masked_cells), (reported, masked), "{}", t.origin);
            assert_eq!(t.mean_ms.to_bits(), (mean_sum / reported as f64).to_bits(), "{}", t.origin);
            let members: u64 = t.super_cells.iter().map(|s| s.cells).sum();
            assert_eq!(members, reported, "{}", t.origin);
        }
    }

    #[test]
    fn for_grid_scales_tile_pitch_to_the_longest_side() {
        let small = GridSpec::new(GeoPoint::new(46.0, 14.0), 6, 7, 1.0);
        assert_eq!(HvtConfig::for_grid(&small, 50.0).tile_cells, 1);
        let wide = GridSpec::new(GeoPoint::new(46.0, 14.0), 1000, 1000, 1.0);
        let cfg = HvtConfig::for_grid(&wide, 50.0);
        assert_eq!(cfg.tile_cells, 63);
        assert_eq!(1000u32.div_ceil(cfg.tile_cells), 16);
    }
}
