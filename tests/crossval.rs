//! Backend cross-validation: the analytic sampler and the packet-level
//! event backend must agree — same shard list, same per-cell sample
//! counts, per-cell means within the documented statistical tolerance —
//! and the event backend must satisfy the same determinism contract the
//! analytic one is pinned to. `repro_crossval` runs the dense version of
//! this check as a CI gate; this suite keeps a lighter configuration in
//! the tier-1 loop.

use sixg::measure::campaign::CampaignConfig;
use sixg::measure::event_backend::{crossval_tolerance_ms, CROSSVAL_GRAND_MEAN_TOL};
use sixg::measure::exec::{run_field, run_field_sequential};
use sixg::measure::klagenfurt::KlagenfurtScenario;
use sixg::measure::parallel::with_thread_count;
use sixg::measure::ExecBackend;

const SEED: u64 = 0x6B6C_7531;

fn scenario() -> KlagenfurtScenario {
    KlagenfurtScenario::paper(SEED)
}

#[test]
fn backends_agree_on_per_cell_means_within_tolerance() {
    let s = scenario();
    let config = CampaignConfig { seed: 2, passes: 8, ..Default::default() };
    let analytic = run_field(&s, config, ExecBackend::Analytic);
    let event = run_field(&s, config, ExecBackend::Event);

    assert_eq!(analytic.total_samples(), event.total_samples());
    for cell in s.grid.cells() {
        let (a, e) = (analytic.stats(cell), event.stats(cell));
        assert_eq!(a.count, e.count, "cell {cell}: shard lists must match");
        if a.is_masked() {
            assert!(e.is_masked(), "cell {cell}: masking must agree");
            continue;
        }
        // The documented cross-validation tolerance (see DESIGN.md
        // "Execution backends"), shared with the `repro_crossval` CI gate.
        let tol = crossval_tolerance_ms(&a, &e);
        assert!(
            (a.mean_ms - e.mean_ms).abs() <= tol,
            "cell {cell}: analytic {} vs event {} exceeds tolerance {tol}",
            a.mean_ms,
            e.mean_ms
        );
    }

    let (ga, ge) = (analytic.grand_mean_ms(), event.grand_mean_ms());
    assert!((ga - ge).abs() / ga < CROSSVAL_GRAND_MEAN_TOL, "grand means {ga} vs {ge}");
}

#[test]
fn event_backend_is_bitwise_deterministic_across_pool_sizes() {
    let s = scenario();
    let config = CampaignConfig { seed: 7, passes: 2, ..Default::default() };
    let seq = run_field_sequential(&s, config, ExecBackend::Event);
    for &threads in &[1usize, 4] {
        let par = with_thread_count(threads, || run_field(&s, config, ExecBackend::Event));
        for cell in s.grid.cells() {
            let (x, y) = (seq.stats(cell), par.stats(cell));
            assert_eq!(x.count, y.count, "{threads} threads: cell {cell} count");
            assert_eq!(
                x.mean_ms.to_bits(),
                y.mean_ms.to_bits(),
                "{threads} threads: cell {cell} mean"
            );
            assert_eq!(
                x.std_ms.to_bits(),
                y.std_ms.to_bits(),
                "{threads} threads: cell {cell} std"
            );
        }
    }
}

#[test]
fn event_backend_repeats_bitwise_within_a_pool_size() {
    let s = scenario();
    let config = CampaignConfig { seed: 3, passes: 1, ..Default::default() };
    let a = with_thread_count(4, || run_field(&s, config, ExecBackend::Event));
    let b = with_thread_count(4, || run_field(&s, config, ExecBackend::Event));
    for cell in s.grid.cells() {
        assert_eq!(a.stats(cell).mean_ms.to_bits(), b.stats(cell).mean_ms.to_bits(), "{cell}");
    }
}
