//! Formal agreement metrics between a campaign result and a target field.
//!
//! The golden tests assert individual anchors; this module quantifies
//! *field-level* agreement (RMSE, maximum absolute deviation, rank
//! agreement of the extremes) so reproduction quality is a number, not a
//! collection of spot checks. `repro_all`-style harnesses and the
//! calibration ablation use it.

use crate::aggregate::CellField;
use crate::scenario::TargetField;
use serde::{Deserialize, Serialize};

/// Agreement metrics for one statistic of the field.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FieldAgreement {
    /// Root-mean-square error over traversed cells.
    pub rmse: f64,
    /// Maximum absolute deviation and the number of cells compared.
    pub max_abs: f64,
    /// Cells compared.
    pub cells: usize,
    /// Whether the minimum lands on the same cell as the target.
    pub min_cell_matches: bool,
    /// Whether the maximum lands on the same cell as the target.
    pub max_cell_matches: bool,
}

fn agreement(
    pairs: impl Iterator<Item = (f64, f64)>,
    min_match: bool,
    max_match: bool,
) -> FieldAgreement {
    let mut sq = 0.0;
    let mut max_abs: f64 = 0.0;
    let mut n = 0usize;
    for (target, measured) in pairs {
        let d = measured - target;
        sq += d * d;
        max_abs = max_abs.max(d.abs());
        n += 1;
    }
    FieldAgreement {
        rmse: if n > 0 { (sq / n as f64).sqrt() } else { 0.0 },
        max_abs,
        cells: n,
        min_cell_matches: min_match,
        max_cell_matches: max_match,
    }
}

/// Mean-field agreement between a measured campaign and its targets.
pub fn mean_agreement(field: &CellField, targets: &TargetField) -> FieldAgreement {
    let grid = field.grid().clone();
    let (min, max) = field.mean_extrema().expect("non-empty field");
    let (tmin, tmax) = target_extrema(targets, &grid, |t, c| t.mean_of(c));
    agreement(
        grid.cells()
            .filter(|c| targets.traversed(*c))
            .map(|c| (targets.mean_of(c), field.stats(c).mean_ms)),
        min.cell == tmin,
        max.cell == tmax,
    )
}

/// σ-field agreement between a measured campaign and its targets.
pub fn std_agreement(field: &CellField, targets: &TargetField) -> FieldAgreement {
    let grid = field.grid().clone();
    let (min, max) = field.std_extrema().expect("non-empty field");
    let (tmin, tmax) = target_extrema(targets, &grid, |t, c| t.std_of(c));
    agreement(
        grid.cells()
            .filter(|c| targets.traversed(*c))
            .map(|c| (targets.std_of(c), field.stats(c).std_ms)),
        min.cell == tmin,
        max.cell == tmax,
    )
}

fn target_extrema(
    targets: &TargetField,
    grid: &sixg_geo::GridSpec,
    value: impl Fn(&TargetField, sixg_geo::CellId) -> f64,
) -> (sixg_geo::CellId, sixg_geo::CellId) {
    let cells: Vec<_> = grid.cells().filter(|c| targets.traversed(*c)).collect();
    let min = *cells
        .iter()
        .min_by(|a, b| value(targets, **a).total_cmp(&value(targets, **b)))
        .expect("traversed cells");
    let max = *cells
        .iter()
        .max_by(|a, b| value(targets, **a).total_cmp(&value(targets, **b)))
        .expect("traversed cells");
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignConfig;
    use crate::exec::run_field;
    use crate::klagenfurt::KlagenfurtScenario;
    use crate::spec::ExecBackend;
    use std::sync::OnceLock;

    fn scenario() -> &'static KlagenfurtScenario {
        static S: OnceLock<KlagenfurtScenario> = OnceLock::new();
        S.get_or_init(|| KlagenfurtScenario::paper(0x6B6C_7531))
    }

    #[test]
    fn dense_campaign_field_agrees_with_paper() {
        let s = scenario();
        let field = run_field(s, CampaignConfig::dense(6), ExecBackend::Analytic);
        let mean = mean_agreement(&field, &s.targets);
        assert_eq!(mean.cells, 33);
        assert!(mean.rmse < 1.2, "mean RMSE {}", mean.rmse);
        assert!(mean.max_abs < 3.0, "mean max dev {}", mean.max_abs);
        assert!(mean.min_cell_matches && mean.max_cell_matches);

        let std = std_agreement(&field, &s.targets);
        assert!(std.rmse < 2.0, "σ RMSE {}", std.rmse);
        assert!(std.min_cell_matches && std.max_cell_matches);
    }

    #[test]
    fn sparse_campaign_agrees_more_loosely() {
        let s = scenario();
        let one_pass = run_field(s, CampaignConfig::default(), ExecBackend::Analytic);
        let dense = run_field(s, CampaignConfig::dense(6), ExecBackend::Analytic);
        let loose = mean_agreement(&one_pass, &s.targets);
        let tight = mean_agreement(&dense, &s.targets);
        assert!(tight.rmse < loose.rmse, "dense {} vs sparse {}", tight.rmse, loose.rmse);
    }

    #[test]
    fn perfect_field_has_zero_error() {
        let s = scenario();
        let mut field = CellField::new(s.grid.clone());
        for cell in s.grid.cells() {
            if s.targets.traversed(cell) {
                // Constant samples at exactly the target mean.
                for _ in 0..20 {
                    field.push(cell, s.targets.mean_of(cell));
                }
            }
        }
        let mean = mean_agreement(&field, &s.targets);
        assert!(mean.rmse < 1e-9);
        assert!(mean.max_abs < 1e-9);
    }
}
