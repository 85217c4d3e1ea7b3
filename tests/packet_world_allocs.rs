//! Allocation gate for the packet world.
//!
//! The event backend flies probes on a typed, worker-local calendar, so a
//! warm worker runs a plain shard without calling the allocator, and a
//! faulted shard allocates only for its window (topology clone, converged
//! control plane, messages, resolved routes). A counting global allocator
//! checks it: after one warm-up pass, a second pass of
//! `collect_shard_into` over every shard, on the calling thread, into one
//! reused buffer, must stay under a per-sample allocation budget. The
//! count is per thread, so other test threads cannot add to it.

use sixg::measure::campaign::CampaignConfig;
use sixg::measure::event_backend::EventCampaign;
use sixg::measure::faults::FaultCampaign;
use sixg::measure::klagenfurt::{klagenfurt_flap_spec, klagenfurt_spec};
use sixg::measure::megacity::megacity_spec;
use sixg::measure::scenario::Scenario;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` that never allocates, so counting cannot re-enter the
// allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn config() -> CampaignConfig {
    CampaignConfig { seed: 1, passes: 1, ..Default::default() }
}

/// Collects every shard twice into one reused buffer and returns the
/// second pass's allocations on this thread and the samples it produced.
fn counted_pass<S: Copy>(shards: &[S], collect: impl Fn(S, &mut Vec<f64>)) -> (u64, usize) {
    let mut buf = Vec::new();
    let mut pass = || -> usize {
        shards
            .iter()
            .map(|&shard| {
                collect(shard, &mut buf);
                buf.len()
            })
            .sum()
    };
    pass();
    let before = ALLOCS.with(Cell::get);
    let samples = pass();
    (ALLOCS.with(Cell::get) - before, samples)
}

fn assert_budget(name: &str, (allocs, samples): (u64, usize), want: usize, per_sample: f64) {
    assert_eq!(samples, want, "{name}: samples");
    let rate = allocs as f64 / samples as f64;
    assert!(rate <= per_sample, "{name}: {allocs} allocations over {samples} samples = {rate:.3}");
}

fn event_pass(s: &Scenario) -> (u64, usize) {
    let ec = EventCampaign::new(s, config());
    counted_pass(&ec.shards(), |shard, buf| ec.collect_shard_into(shard, buf))
}

#[test]
fn klagenfurt_event_pass_is_allocation_free() {
    let s = Scenario::from_spec(klagenfurt_spec()).expect("compiles");
    assert_budget("klagenfurt event", event_pass(&s), 1_957, 0.05);
}

#[test]
fn megacity_event_pass_is_allocation_free() {
    let s = Scenario::from_spec(megacity_spec()).expect("compiles");
    assert_budget("megacity event", event_pass(&s), 6_138, 0.05);
}

#[test]
fn faulted_flap_pass_allocates_only_per_window() {
    let s = Scenario::from_spec(klagenfurt_flap_spec()).expect("compiles");
    let fc = FaultCampaign::new(&s, config());
    let counted = counted_pass(&fc.shards(), |fs, buf| fc.collect_shard_into(fs, buf));
    assert_budget("klagenfurt flap faulted", counted, 1_957, 10.0);
}
