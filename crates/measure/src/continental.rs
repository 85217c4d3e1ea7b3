//! The continental-scale mega-grid scenario (wide key scheme).
//!
//! Where [`crate::skopje`] demonstrates geographic generality and
//! [`crate::megacity`] density, this scenario demonstrates **scale**: a
//! 1000 × 1000 km grid — a million cells — over the European core,
//! compiled under [`crate::scenario::KeyScheme::Wide`] and sampled by the
//! columnar (batched inverse-CDF) pipeline instead of per-cell UE
//! compilation. It is the committed workload of the `repro_colossal`
//! (E25) throughput gate and the walkthrough subject of the README's
//! continental-grid section.
//!
//! **Projected, not measured** — like Skopje, the target field comes from
//! the floor + gradient + hotspot closed form. The density raster decays
//! from a single urban core, so the overwhelming majority of the grid
//! sits below the paper's 1000 /km² density threshold (a sparse-density
//! grid); the traversal still covers every cell because the projected
//! floor is positive everywhere.
//!
//! Wide-scheme constraints ([`crate::spec::ScenarioSpec::validate`]):
//! analytic backend only, no fault schedules. The spec stays small on
//! disk because the per-cell field is generated, never enumerated. The
//! campaign is one pass at a 6 s cadence: dwell jitter spans 72–168 s per
//! cell, so every cell draws 12–28 samples, all above the masking
//! threshold, about 2×10⁷ samples in total (the E25 workload).
//!
//! Thin wrapper over the committed spec file `specs/continental.json`, the
//! only description of the site: to change it, edit the file.

use crate::scenario::Scenario;
use crate::spec::ScenarioSpec;
use std::sync::OnceLock;

/// The committed spec file this module wraps.
pub const CONTINENTAL_SPEC_JSON: &str = include_str!("../../../specs/continental.json");

/// The committed continental spec, parsed once.
pub fn continental_spec() -> &'static ScenarioSpec {
    static SPEC: OnceLock<ScenarioSpec> = OnceLock::new();
    SPEC.get_or_init(|| {
        ScenarioSpec::from_json(CONTINENTAL_SPEC_JSON)
            .expect("committed specs/continental.json parses")
    })
}

impl Scenario {
    /// Compiles the continental mega-grid from the committed spec file.
    pub fn continental(seed: u64) -> Self {
        let mut spec = continental_spec().clone();
        spec.seed = seed;
        Self::from_spec(&spec).expect("committed continental spec compiles")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, MobileCampaign};
    use crate::scenario::KeyScheme;
    use sixg_geo::CellId;
    use std::sync::OnceLock;

    fn scenario() -> &'static Scenario {
        static S: OnceLock<Scenario> = OnceLock::new();
        S.get_or_init(|| Scenario::continental(22))
    }

    #[test]
    fn spec_validates_and_selects_the_wide_scheme() {
        let spec = continental_spec();
        let errors = spec.validate();
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(spec.grid.cols, 1000);
        assert_eq!(spec.grid.rows, 1000);
        assert_eq!(KeyScheme::for_dims(spec.grid.cols, spec.grid.rows), KeyScheme::Wide);
    }

    #[test]
    fn wide_compile_skips_per_cell_materialisation() {
        let s = scenario();
        assert_eq!(s.key_scheme, KeyScheme::Wide);
        assert_eq!(s.included.len(), 1_000_000, "projected floor traverses every cell");
        assert!(s.ue.is_empty(), "no per-cell UE nodes at mega-grid scale");
        assert!(s.access.is_empty(), "no per-cell calibration at mega-grid scale");
        assert!(s.routes.is_empty(), "no per-cell routes at mega-grid scale");
    }

    #[test]
    fn event_backend_and_faults_are_rejected_on_the_mega_grid() {
        let mut spec = continental_spec().clone();
        spec.backend = "event".into();
        let errors = spec.validate();
        assert!(
            errors.iter().any(|e| e.path == "$.backend" && e.message.contains("analytic")),
            "{errors:?}"
        );
    }

    #[test]
    fn columnar_samples_track_the_projected_field() {
        let s = scenario();
        let campaign = MobileCampaign::new(s, CampaignConfig::default());
        // Spot-check three cells across the gradient without running the
        // full traversal (which is the release-build E25 workload).
        for label in ["A1", "SG501", "ALL1000"] {
            let cell = CellId::parse(label).unwrap();
            let want = s.targets.mean_of(cell);
            let mut samples = Vec::new();
            campaign.collect_cell_into(0, cell, 4000.0, &mut samples);
            let mean = samples.iter().sum::<f64>() / samples.len() as f64;
            assert!(
                (mean - want).abs() < 2.0,
                "cell {label}: sampled {mean:.2} vs projected {want:.2}"
            );
        }
    }

    #[test]
    fn hotspot_is_the_field_maximum() {
        let s = scenario();
        let hotspot = CellId::parse("SG501").unwrap();
        let (mut max_cell, mut max) = (hotspot, f64::NEG_INFINITY);
        for cell in [hotspot, CellId::new(0, 0), CellId::new(999, 999), CellId::new(500, 0)] {
            let m = s.targets.mean_of(cell);
            if m > max {
                max = m;
                max_cell = cell;
            }
        }
        assert_eq!(max_cell, hotspot);
    }
}
