//! Deterministic discrete-event engine.
//!
//! A classic event-calendar simulator: closures scheduled at simulation
//! times, executed in (time, insertion-sequence) order so that ties are
//! broken deterministically. The engine is generic over a *world* type `W`
//! owned by the caller; events receive `&mut Engine` (to schedule more
//! events) and `&mut W` (to mutate state). This split keeps the borrow
//! checker happy without interior mutability.
//!
//! The live BGP control plane ([`crate::routing::dynamic`]) and the
//! per-packet protocol models ([`crate::protocols::transport`], the
//! workload crates) run on this engine. Measurement campaigns do not: the
//! analytic backend draws closed-form samples ([`crate::latency`]), and
//! the packet-level campaign backend flies its probes on a typed calendar
//! of its own, since a probe leg needs no boxed event.

use crate::time::{SimDuration, SimTime};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Boxed event action.
type Action<W> = Box<dyn FnOnce(&mut Engine<W>, &mut W)>;

struct Scheduled<W> {
    at: SimTime,
    seq: u64,
    action: Action<W>,
}

impl<W> PartialEq for Scheduled<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Scheduled<W> {}
impl<W> PartialOrd for Scheduled<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Scheduled<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at.cmp(&other.at).then_with(|| self.seq.cmp(&other.seq))
    }
}

/// The event-driven simulation engine.
pub struct Engine<W> {
    now: SimTime,
    queue: BinaryHeap<Reverse<Scheduled<W>>>,
    seq: u64,
    executed: u64,
}

impl<W> Default for Engine<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Engine<W> {
    /// A fresh engine at time zero.
    pub fn new() -> Self {
        Self { now: SimTime::ZERO, queue: BinaryHeap::new(), seq: 0, executed: 0 }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `action` to run after `delay`.
    pub fn schedule(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut Engine<W>, &mut W) + 'static,
    ) {
        self.schedule_at(self.now + delay, action);
    }

    /// Schedules `action` at an absolute time. Panics if the time is in
    /// the past (events may be scheduled *at* `now`).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut Engine<W>, &mut W) + 'static,
    ) {
        assert!(at >= self.now, "cannot schedule into the past: {at} < {}", self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Scheduled { at, seq, action: Box::new(action) }));
    }

    /// Executes the next event. Returns `false` when the calendar is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        match self.queue.pop() {
            None => false,
            Some(Reverse(ev)) => {
                debug_assert!(ev.at >= self.now);
                self.now = ev.at;
                self.executed += 1;
                (ev.action)(self, world);
                true
            }
        }
    }

    /// Runs until the calendar drains.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {}
    }

    /// Runs until the calendar drains or simulated time exceeds `until`
    /// (events scheduled later stay queued; `now` is clamped to `until`).
    pub fn run_until(&mut self, world: &mut W, until: SimTime) {
        loop {
            match self.queue.peek() {
                None => break,
                Some(Reverse(ev)) if ev.at > until => break,
                _ => {
                    self.step(world);
                }
            }
        }
        if self.now < until {
            self.now = until;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut world = Vec::new();
        eng.schedule(SimDuration::from_millis(30), |_, w: &mut Vec<u32>| w.push(3));
        eng.schedule(SimDuration::from_millis(10), |_, w: &mut Vec<u32>| w.push(1));
        eng.schedule(SimDuration::from_millis(20), |_, w: &mut Vec<u32>| w.push(2));
        eng.run(&mut world);
        assert_eq!(world, vec![1, 2, 3]);
        assert_eq!(eng.executed(), 3);
        assert_eq!(eng.now(), SimTime::from_secs_f64(0.030));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut eng: Engine<Vec<u32>> = Engine::new();
        let mut world = Vec::new();
        for i in 0..10 {
            eng.schedule(SimDuration::from_millis(5), move |_, w: &mut Vec<u32>| w.push(i));
        }
        eng.run(&mut world);
        assert_eq!(world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng: Engine<Vec<u64>> = Engine::new();
        let mut world = Vec::new();
        fn tick(eng: &mut Engine<Vec<u64>>, w: &mut Vec<u64>) {
            w.push(eng.now().0);
            if w.len() < 5 {
                eng.schedule(SimDuration::from_millis(1), tick);
            }
        }
        eng.schedule(SimDuration::ZERO, tick);
        eng.run(&mut world);
        assert_eq!(world.len(), 5);
        assert_eq!(world[4], 4_000_000); // 4 ms in ns
    }

    #[test]
    fn run_until_stops_and_clamps() {
        let mut eng: Engine<u32> = Engine::new();
        let mut world = 0u32;
        eng.schedule(SimDuration::from_millis(5), |_, w| *w += 1);
        eng.schedule(SimDuration::from_millis(50), |_, w| *w += 100);
        eng.run_until(&mut world, SimTime::from_secs_f64(0.010));
        assert_eq!(world, 1);
        assert_eq!(eng.pending(), 1);
        assert_eq!(eng.now(), SimTime::from_secs_f64(0.010));
        // Continue to completion.
        eng.run(&mut world);
        assert_eq!(world, 101);
    }

    #[test]
    fn zero_delay_event_runs_at_now() {
        let mut eng: Engine<bool> = Engine::new();
        let mut fired = false;
        eng.schedule(SimDuration::ZERO, |e, w| {
            *w = true;
            assert_eq!(e.now(), SimTime::ZERO);
        });
        eng.run(&mut fired);
        assert!(fired);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_past_panics() {
        let mut eng: Engine<()> = Engine::new();
        eng.schedule(SimDuration::from_millis(10), |e, _| {
            e.schedule_at(SimTime::from_secs_f64(0.001), |_, _| {});
        });
        eng.run(&mut ());
    }

    #[test]
    fn empty_engine_steps_false() {
        let mut eng: Engine<()> = Engine::new();
        assert!(!eng.step(&mut ()));
        assert_eq!(eng.executed(), 0);
    }
}
