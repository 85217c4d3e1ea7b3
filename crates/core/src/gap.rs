//! Requirement-vs-measurement gap analysis (Section IV-C / Conclusion).
//!
//! The paper's headline: measured RTL "exceeds the requirements defined in
//! Section III by approximately 270 %". That number is the relative
//! exceedance of the campaign's grand-mean RTL over the AR use case's
//! 20 ms budget. This module computes it — and the per-cell compliance
//! map behind it — from any campaign result.

use crate::requirements::RequirementProfile;
use serde::{Deserialize, Serialize};
use sixg_measure::aggregate::CellField;

/// Per-cell compliance entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellCompliance {
    /// Cell label (`"C3"`).
    pub cell: String,
    /// Measured mean RTL, ms.
    pub mean_ms: f64,
    /// Measured-over-required ratio (1.0 = exactly at requirement).
    pub ratio: f64,
    /// True when the cell meets the requirement.
    pub compliant: bool,
}

/// The full gap report for one requirement profile.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GapReport {
    /// Requirement analysed against.
    pub requirement_ms: f64,
    /// Campaign grand mean, ms.
    pub measured_mean_ms: f64,
    /// Relative exceedance in percent: `(measured − required) / required × 100`.
    pub exceedance_pct: f64,
    /// Best (lowest-RTL) cell's exceedance, percent.
    pub best_cell_exceedance_pct: f64,
    /// Number of compliant cells.
    pub compliant_cells: usize,
    /// Number of reported cells.
    pub reported_cells: usize,
    /// Per-cell detail.
    pub cells: Vec<CellCompliance>,
}

impl GapReport {
    /// Analyses a campaign field against a requirement profile.
    pub fn analyse(field: &CellField, profile: &RequirementProfile) -> Self {
        let req = profile.max_rtl_ms;
        assert!(req > 0.0, "requirement must be positive");
        let reported = field.reported();
        let cells: Vec<CellCompliance> = reported
            .iter()
            .map(|s| CellCompliance {
                cell: s.cell.label(),
                mean_ms: s.mean_ms,
                ratio: s.mean_ms / req,
                compliant: s.mean_ms <= req,
            })
            .collect();
        let measured = field.grand_mean_ms();
        let best = reported.iter().map(|s| s.mean_ms).fold(f64::INFINITY, f64::min);
        Self {
            requirement_ms: req,
            measured_mean_ms: measured,
            exceedance_pct: (measured - req) / req * 100.0,
            best_cell_exceedance_pct: (best - req) / req * 100.0,
            compliant_cells: cells.iter().filter(|c| c.compliant).count(),
            reported_cells: cells.len(),
            cells,
        }
    }

    /// Fraction of reported cells meeting the requirement.
    pub fn compliance_ratio(&self) -> f64 {
        if self.reported_cells == 0 {
            return 0.0;
        }
        self.compliant_cells as f64 / self.reported_cells as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requirements::campaign_reference_requirement;
    use sixg_measure::campaign::CampaignConfig;
    use sixg_measure::exec::run_field;
    use sixg_measure::klagenfurt::KlagenfurtScenario;
    use sixg_measure::spec::ExecBackend;
    use std::sync::OnceLock;

    fn field() -> &'static CellField {
        static FIELD: OnceLock<CellField> = OnceLock::new();
        FIELD.get_or_init(|| {
            let s = KlagenfurtScenario::paper(0x6B6C_7531);
            run_field(&s, CampaignConfig::dense(3), ExecBackend::Analytic)
        })
    }

    #[test]
    fn exceedance_is_about_270_percent() {
        let report = GapReport::analyse(field(), &campaign_reference_requirement());
        assert!(
            (report.exceedance_pct - 270.0).abs() < 12.0,
            "exceedance {}",
            report.exceedance_pct
        );
    }

    #[test]
    fn no_cell_is_compliant_on_measured_5g() {
        let report = GapReport::analyse(field(), &campaign_reference_requirement());
        assert_eq!(report.compliant_cells, 0);
        assert_eq!(report.reported_cells, 33);
        assert_eq!(report.compliance_ratio(), 0.0);
    }

    #[test]
    fn best_cell_still_exceeds_by_about_200_percent() {
        // The paper: even the 61 ms minimum exceeds 20 ms by 205 %.
        let report = GapReport::analyse(field(), &campaign_reference_requirement());
        assert!(
            (report.best_cell_exceedance_pct - 205.0).abs() < 15.0,
            "best-cell exceedance {}",
            report.best_cell_exceedance_pct
        );
    }

    #[test]
    fn per_cell_ratios_ordered_with_means() {
        let report = GapReport::analyse(field(), &campaign_reference_requirement());
        for c in &report.cells {
            assert!((c.ratio - c.mean_ms / 20.0).abs() < 1e-12);
            assert!(!c.compliant);
        }
    }

    #[test]
    fn generous_requirement_is_met() {
        let mut profile = campaign_reference_requirement();
        profile.max_rtl_ms = 200.0;
        let report = GapReport::analyse(field(), &profile);
        assert_eq!(report.compliant_cells, report.reported_cells);
        assert!(report.exceedance_pct < 0.0);
    }
}
