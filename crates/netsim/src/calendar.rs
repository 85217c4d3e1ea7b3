//! The typed event calendar: the simulator's one event queue.
//!
//! A [`Calendar<E>`] holds `(time, insertion sequence, event)` entries and
//! pops them in `(time, insertion sequence)` order, so events due at the
//! same instant fire in the order they were pushed. That tie rule is what
//! makes every run replay bit for bit. The event type is the caller's:
//! the packet world's calendar holds probe slots, and the BGP control
//! plane's ([`crate::routing::dynamic`]) holds message deliveries. Nothing
//! is boxed, and [`Calendar::clear`] keeps the heap's capacity, so a
//! calendar reused from run to run stops allocating once it is warm.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Events of type `E` at simulation times, popped in `(time, insertion
/// sequence)` order.
///
/// The heap holds plain `(time, sequence, event)` tuples. The sequence is
/// unique, so the event never decides the order; it sits in the tuple
/// because a heap of primitive tuples keeps the packet world's per-leg
/// push and pop cheap (a struct entry ordered by a hand-written `Ord` on
/// `(time, sequence)` made plain event runs about 13 % slower).
#[derive(Debug, Clone)]
pub struct Calendar<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, E)>>,
    seq: u64,
}

impl<E: Ord> Default for Calendar<E> {
    fn default() -> Self {
        Self { heap: BinaryHeap::new(), seq: 0 }
    }
}

impl<E: Ord> Calendar<E> {
    /// Schedules `event` at `at`, after every event already scheduled at
    /// the same time.
    pub fn push(&mut self, at: SimTime, event: E) {
        self.heap.push(Reverse((at, self.seq, event)));
        self.seq += 1;
    }

    /// Removes and returns the earliest event due at or before `until`,
    /// with its time, or `None` when no event is due by then.
    pub fn pop_due(&mut self, until: SimTime) -> Option<(SimTime, E)> {
        if self.heap.peek()?.0 .0 > until {
            return None;
        }
        let Reverse((at, _, event)) = self.heap.pop()?;
        Some((at, event))
    }

    /// Drops every event and restarts the insertion sequence, keeping the
    /// capacity.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(cal: &mut Calendar<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| cal.pop_due(SimTime(u64::MAX))).map(|(at, e)| (at.0, e)).collect()
    }

    /// Events are numbered down, so an order that let the event break a
    /// tie would pop them the other way round.
    #[test]
    fn ties_pop_in_insertion_order() {
        let mut cal = Calendar::default();
        for (i, at) in [30, 10, 20, 10, 30, 10].into_iter().enumerate() {
            cal.push(SimTime(at), 5 - i as u32);
        }
        assert_eq!(drain(&mut cal), [(10, 4), (10, 2), (10, 0), (20, 3), (30, 5), (30, 1)]);
    }

    #[test]
    fn pop_due_stops_at_the_horizon() {
        let mut cal = Calendar::default();
        cal.push(SimTime(5), 1);
        cal.push(SimTime(50), 2);
        cal.push(SimTime(10), 3);
        assert_eq!(cal.pop_due(SimTime(10)), Some((SimTime(5), 1)));
        assert_eq!(cal.pop_due(SimTime(10)), Some((SimTime(10), 3)));
        assert_eq!(cal.pop_due(SimTime(10)), None);
        assert_eq!(cal.pop_due(SimTime(49)), None);
        // An event pushed after the horizon check still takes its place.
        cal.push(SimTime(20), 4);
        assert_eq!(drain(&mut cal), [(20, 4), (50, 2)]);
        assert_eq!(cal.pop_due(SimTime(u64::MAX)), None);
    }

    #[test]
    fn clear_empties_and_restarts_the_sequence() {
        let mut cal = Calendar::default();
        for i in 0..8 {
            cal.push(SimTime(7), i);
        }
        cal.clear();
        assert_eq!(cal.pop_due(SimTime(u64::MAX)), None);
        cal.push(SimTime(3), 10);
        cal.push(SimTime(3), 11);
        assert_eq!(drain(&mut cal), [(3, 10), (3, 11)]);
    }
}
