//! Heap gate for checkpointed sweep shards.
//!
//! A checkpointed shard folds the run-major work list of the runs it owns,
//! so it must build the indexed work lists and items of those runs only,
//! never of the whole matrix. A counting global allocator tracks live and
//! peak heap bytes over every thread, as in `tests/plain_run_heap.rs`.
//! Shard 0 of 4 of a 4-run sweep owns one run; its peak must stay within
//! the compiled scenario, one run's list and items, the run's field, the
//! spilled run's one framed record and a small allowance. A shard that
//! built every run's list (179 994 shards of 24 bytes each) and the global
//! item list (8 bytes an item) would add about 18 MB.
//!
//! The counts are process-wide, so this file holds a single test.

use sixg::measure::campaign::Shard;
use sixg::measure::parallel::with_thread_count;
use sixg::measure::scenario::{KeyScheme, Scenario};
use sixg::measure::skopje::skopje_spec;
use sixg::measure::store::{run_checkpointed, CheckpointConfig, CheckpointOutcome};
use sixg::measure::sweep::{AxisDef, Sweep, SweepSpec, DEFAULT_REQUIREMENT_MS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
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

/// `f`'s peak heap above the bytes live before it, the bytes it leaves
/// live, and its output.
fn measure<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    (peak, LIVE.load(Ordering::Relaxed).saturating_sub(before), out)
}

/// A fresh, empty store directory for this process.
fn store_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sixg-shard-heap-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Skopje widened to 600 × 300 cells (the wide key scheme), one pass at a
/// 60 s cadence, plus a 3-seed axis: 4 runs. Shard 0 of 4 owns run 0 only.
/// The interval covers the whole run, so the shard commits its cursor
/// once, after the run is spilled.
#[test]
fn a_checkpointed_shard_builds_only_its_own_runs_work_lists() {
    let mut spec = skopje_spec().clone();
    spec.grid.cols = 600;
    spec.grid.rows = 300;
    spec.campaign.passes = 1;
    spec.campaign.sample_interval_s = 60.0;
    let sweep = Sweep::new(
        SweepSpec {
            name: "wide-seeds".into(),
            description: String::new(),
            base: "inline".into(),
            requirement_ms: DEFAULT_REQUIREMENT_MS,
            axes: vec![AxisDef::Seeds { start: 1, count: 3 }],
        },
        &spec.to_json(),
    )
    .expect("valid sweep");
    let shard = |dir: &PathBuf| {
        let cfg = CheckpointConfig {
            shard_index: 0,
            shard_count: 4,
            interval: 1 << 30,
            ..CheckpointConfig::new(dir)
        };
        with_thread_count(2, || run_checkpointed(&sweep, &cfg).expect("the shard runs"))
    };
    // Start every pool worker and its thread-local buffers first.
    let warm = store_dir("warm");
    drop(shard(&warm));

    // What the compiled scenario holds, and what compiling it peaks at.
    let (compile_peak, scenario, s) =
        measure(|| Scenario::from_spec(&spec).expect("the widened spec compiles"));
    assert_eq!(s.key_scheme, KeyScheme::Wide);
    let items = s.included.len();
    assert_eq!(items, 179_994);
    drop(s);

    let dir = store_dir("measured");
    let (peak, _, outcome) = measure(|| shard(&dir));
    assert!(matches!(outcome, CheckpointOutcome::ShardComplete { done_items, .. }
        if done_items == items as u64));
    let list = items * std::mem::size_of::<Shard>();
    let item_list = items * std::mem::size_of::<(u32, u32)>();
    let field: usize = 180_000 * 24;
    // The spilled run is one framed record of its exact length: a 24-byte
    // header, the run index, the field's shape and count, its cells and an
    // 8-byte checksum.
    let blobs = 24 + 4 + 16 + field + 8;
    let bound = compile_peak.max(scenario + list + item_list + field + blobs) + ALLOWANCE;
    eprintln!(
        "compile peak {compile_peak}, scenario {scenario}, list {list}, items {item_list}, \
         field {field}, blobs {blobs}: shard peak {peak}, bound {bound}"
    );
    for d in [warm, dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    assert!(peak <= bound, "shard 0/4 peak heap {peak} bytes, {} over the bound", peak - bound);
}

/// Heap a shard may hold beyond the sum above: the plan's run metadata and
/// labels, the store's paths and manifest, a round of sample buffers, and
/// the pool's job boxes. Measured at 61 272 bytes (a peak of 15 904 758).
/// A shard that built all four runs' lists and the global item list read
/// 19 177 185 bytes over the bound; a store that grew the payload by
/// doubling and then copied it into the framed record read 8 187 729.
const ALLOWANCE: usize = 256 << 10;
