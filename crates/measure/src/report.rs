//! Rendering and export of campaign results.
//!
//! Figures 2 and 3 of the paper are grid heatmaps; the closest faithful
//! terminal artefact is a labelled grid table. CSV and JSON exports feed
//! external plotting.

use crate::aggregate::CellField;
use crate::hvt::HvtReport;
use serde::Serialize;
use sixg_geo::CellId;

/// Which statistic of the field to render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldStat {
    /// Mean RTL (Figure 2).
    Mean,
    /// Standard deviation (Figure 3).
    StdDev,
    /// Sample count.
    Count,
}

fn value_of(field: &CellField, cell: CellId, stat: FieldStat) -> f64 {
    let s = field.stats(cell);
    match stat {
        FieldStat::Mean => s.mean_ms,
        FieldStat::StdDev => s.std_ms,
        FieldStat::Count => s.count as f64,
    }
}

/// Renders the field as a labelled grid table (columns A…, rows 1…),
/// masked cells showing `0.0` exactly as in the paper's figures.
pub fn render_grid(field: &CellField, stat: FieldStat) -> String {
    let grid = field.grid();
    let mut out = String::new();
    out.push_str("     ");
    for c in 0..grid.cols {
        // Column letters of the cell label (spreadsheet style; plain A–Z
        // below 26, so legacy-grid tables render byte-identically).
        let label = CellId::new(c, 0).label();
        let letters = label.trim_end_matches(|ch: char| ch.is_ascii_digit());
        out.push_str(&format!("{letters:>8}"));
    }
    out.push('\n');
    for r in 0..grid.rows {
        out.push_str(&format!("{:>4} ", r + 1));
        for c in 0..grid.cols {
            let v = value_of(field, CellId::new(c, r), stat);
            out.push_str(&format!("{v:>8.1}"));
        }
        out.push('\n');
    }
    out
}

/// Renders a super-cell hierarchy's level-1 tiles as a labelled grid
/// table of tile means (ms, `0.0` for a fully masked tile): the heatmap of
/// a wide grid, drawn over its tessellation instead of its raw cells.
/// Columns carry the letters and rows the number of each tile's origin cell.
pub fn render_tiles(h: &HvtReport) -> String {
    let mut out = String::from("       ");
    for t in h.tiles.iter().take(h.tile_cols as usize) {
        let letters = t.origin.trim_end_matches(|ch: char| ch.is_ascii_digit());
        out.push_str(&format!("{letters:>8}"));
    }
    out.push('\n');
    for row in h.tiles.chunks(h.tile_cols as usize) {
        let number = row[0].origin.trim_start_matches(|ch: char| ch.is_ascii_alphabetic());
        out.push_str(&format!("{number:>6} "));
        for t in row {
            out.push_str(&format!("{:>8.1}", t.mean_ms));
        }
        out.push('\n');
    }
    out
}

/// Renders every super-cell of a hierarchy as one table row, tile by tile
/// in row-major order: the tile's origin cell, the mean band and
/// exceedance verdict, member and sample counts, the members' mean RTL
/// statistics (ms) and their bounding box as `top-left:bottom-right`
/// cell labels.
pub fn render_super_cells(h: &HvtReport) -> String {
    let mut out = format!(
        "{:<8} {:>4} {:>7} {:>8} {:>9} {:>9} {:>9} {:>9} {:>8}  box\n",
        "tile", "band", "exceeds", "cells", "samples", "mean", "min", "max", "σ"
    );
    for t in &h.tiles {
        for c in &t.super_cells {
            out.push_str(&format!(
                "{:<8} {:>4} {:>7} {:>8} {:>9} {:>9.3} {:>9.3} {:>9.3} {:>8.3}  {}:{}\n",
                t.origin,
                c.band,
                if c.exceeds { "yes" } else { "no" },
                c.cells,
                c.samples,
                c.mean_ms,
                c.mean_min_ms,
                c.mean_max_ms,
                c.std_ms,
                CellId::new(c.col_min, c.row_min),
                CellId::new(c.col_max, c.row_max),
            ));
        }
    }
    out
}

/// CSV export: `cell,count,mean_ms,std_ms` per row.
pub fn to_csv(field: &CellField) -> String {
    let mut out = String::from("cell,count,mean_ms,std_ms\n");
    for s in field.all_stats() {
        out.push_str(&format!("{},{},{:.3},{:.3}\n", s.cell.label(), s.count, s.mean_ms, s.std_ms));
    }
    out
}

/// JSON-serialisable summary of a campaign.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignSummary {
    /// Per-cell stats of reported cells.
    pub cells: Vec<CellSummary>,
    /// Grand mean over reported cells, ms.
    pub grand_mean_ms: f64,
    /// Reported min/max means.
    pub mean_min_ms: f64,
    /// Reported max mean.
    pub mean_max_ms: f64,
    /// Reported σ extremes.
    pub std_min_ms: f64,
    /// Reported σ max.
    pub std_max_ms: f64,
    /// Total samples collected.
    pub total_samples: u64,
}

/// One reported cell in the JSON summary.
#[derive(Debug, Clone, Serialize)]
pub struct CellSummary {
    /// Cell label (`"C3"`).
    pub cell: String,
    /// Sample count.
    pub count: u64,
    /// Mean RTL, ms.
    pub mean_ms: f64,
    /// Sample σ, ms.
    pub std_ms: f64,
}

impl CampaignSummary {
    /// Builds the summary from a field.
    pub fn from_field(field: &CellField) -> Self {
        let summary = field.summary();
        let (mmin, mmax) = summary.mean_extrema.expect("non-empty field");
        let (smin, smax) = summary.std_extrema.expect("non-empty field");
        Self {
            cells: field
                .reported()
                .into_iter()
                .map(|s| CellSummary {
                    cell: s.cell.label(),
                    count: s.count,
                    mean_ms: s.mean_ms,
                    std_ms: s.std_ms,
                })
                .collect(),
            grand_mean_ms: summary.grand_mean_ms,
            mean_min_ms: mmin.mean_ms,
            mean_max_ms: mmax.mean_ms,
            std_min_ms: smin.std_ms,
            std_max_ms: smax.std_ms,
            total_samples: summary.total_samples,
        }
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("summary serialises")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sixg_geo::{GeoPoint, GridSpec};

    fn field() -> CellField {
        let grid = GridSpec::new(GeoPoint::new(46.65, 14.25), 6, 7, 1.0);
        let mut f = CellField::new(grid);
        for (cell, v) in [("C1", 61.0), ("C3", 110.0), ("B3", 63.0)] {
            let c = CellId::parse(cell).unwrap();
            for k in 0..20 {
                f.push(c, v + (k % 5) as f64 * 0.5);
            }
        }
        f
    }

    #[test]
    fn grid_rendering_contains_masked_zeros() {
        let f = field();
        let s = render_grid(&f, FieldStat::Mean);
        assert!(s.contains("0.0"), "{s}");
        assert!(s.contains("62.0"), "{s}");
        assert!(s.contains("111.0"), "{s}");
        assert!(s.lines().count() == 8, "{s}");
    }

    #[test]
    fn super_cell_tables_cover_every_tile_and_bucket() {
        use crate::hvt::{build, HvtConfig};
        let h = build(&field(), &HvtConfig { tile_cells: 3, mean_bands: 2, requirement_ms: 100.0 });
        let tiles = render_tiles(&h);
        assert_eq!(tiles.lines().count(), 1 + 3, "{tiles}");
        assert_eq!(
            tiles.lines().next().unwrap().split_whitespace().collect::<Vec<_>>(),
            ["A", "D"]
        );
        assert!(tiles.contains("     4 "), "{tiles}");
        let table = render_super_cells(&h);
        let buckets: usize = h.tiles.iter().map(|t| t.super_cells.len()).sum();
        assert_eq!(table.lines().count(), 1 + buckets, "{table}");
        assert!(table.contains("yes") && table.contains("no"), "{table}");
        assert!(table.contains("C3:C3"), "{table}");
    }

    #[test]
    fn csv_has_all_cells() {
        let f = field();
        let csv = to_csv(&f);
        assert_eq!(csv.lines().count(), 43); // header + 42 cells
        assert!(csv.contains("C1,20,"));
        assert!(csv.contains("A1,0,0.000,0.000"));
    }

    #[test]
    fn summary_extrema() {
        let f = field();
        let s = CampaignSummary::from_field(&f);
        assert_eq!(s.cells.len(), 3);
        assert!((s.mean_min_ms - 62.0).abs() < 1.5);
        assert!((s.mean_max_ms - 111.0).abs() < 1.5);
        let json = s.to_json();
        assert!(json.contains("\"grand_mean_ms\""));
    }
}
