//! Heap gate for plain runs.
//!
//! A plain run (`run_field`) builds no work list: each cell range's worker
//! generates its own (pass, cell) items. So the only heap a run holds that
//! grows with the grid is the field's own accumulators. A counting global
//! allocator tracks live and peak heap bytes over every thread. While
//! `run_field` runs, the peak above the bytes live before it must stay
//! within the field's accumulator bytes plus a small allowance. For the
//! grid below, a materialised work list (359 988 shards of 24 bytes, plus
//! a 4-byte index of each in a bucket order) would add about 10 MB.
//!
//! The counts are process-wide, so this file holds a single test.

use sixg::measure::campaign::CampaignConfig;
use sixg::measure::exec::run_field;
use sixg::measure::parallel::with_thread_count;
use sixg::measure::scenario::{KeyScheme, Scenario};
use sixg::measure::skopje::skopje_spec;
use sixg::measure::spec::ExecBackend;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

/// Heap bytes live now, and the most live at once since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are atomics that never allocate,
// so counting cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap a run may hold beyond its accumulators: the range list, each
/// worker's four sample buffers, and the pool's job boxes. Measured at 596,
/// 1 116 and 1 908 bytes at pools 1, 2 and 4.
const ALLOWANCE: usize = 16 << 10;

/// Skopje widened to 600 × 300 cells (the wide key scheme), two passes at
/// a 60 s cadence, so a shard draws one to three samples and the debug
/// build stays fast. Every pool size must keep the run's peak heap within
/// the field's accumulators plus [`ALLOWANCE`].
#[test]
fn a_plain_run_holds_no_work_list() {
    let mut spec = skopje_spec().clone();
    spec.grid.cols = 600;
    spec.grid.rows = 300;
    let s = Scenario::from_spec(&spec).expect("the widened spec compiles");
    assert_eq!(s.key_scheme, KeyScheme::Wide);
    assert_eq!(s.included.len(), 179_994);
    let config = CampaignConfig { seed: 1, passes: 2, sample_interval_s: 60.0 };
    let run = |threads| with_thread_count(threads, || run_field(&s, config, ExecBackend::Analytic));
    // Start every pool worker and its thread-local buffers first.
    drop(run(4));
    for threads in [1usize, 2, 4] {
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let field = run(threads);
        let peak = PEAK.load(Ordering::Relaxed) - before;
        let accumulators = std::mem::size_of_val(field.accumulators());
        assert_eq!(accumulators, 180_000 * 40);
        assert!(field.total_samples() > 2 * 179_994, "every included cell gets both passes");
        assert!(
            peak <= accumulators + ALLOWANCE,
            "{threads} threads: peak heap {peak} bytes, {} over the accumulators",
            peak - accumulators
        );
    }
}
