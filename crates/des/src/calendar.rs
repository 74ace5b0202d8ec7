//! The pending-event calendar.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use simtime::SimInstant;

/// One pending event, ordered by `(at, seq)` alone — the payload never
/// takes part in the comparison, so `E` needs no ordering of its own.
#[derive(Debug)]
struct Entry<E> {
    at: SimInstant,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimInstant, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A deterministic time-ordered event queue.
///
/// Ties at the same instant are broken by posting order, which makes whole
/// simulations reproducible from a seed. Popping advances the calendar's
/// notion of "now"; posting an event in the past is rejected rather than
/// silently reordered. Events live inline in the heap: nothing is ever
/// cancelled, so there is no side table to probe on post or pop.
#[derive(Debug)]
pub struct Calendar<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    now: SimInstant,
    next_seq: u64,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Creates an empty calendar at simulated boot.
    pub fn new() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            now: SimInstant::BOOT,
            next_seq: 0,
        }
    }

    /// The current simulated time (time of the last popped event).
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Posts `event` for instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time — an event in the past is
    /// always a simulation bug, never recoverable data.
    pub fn post(&mut self, at: SimInstant, event: E) {
        assert!(
            at >= self.now,
            "event posted for {at} but now is {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimInstant> {
        self.heap.peek().map(|Reverse(entry)| entry.at)
    }

    /// Pops the earliest event, advancing `now` to its instant.
    pub fn pop(&mut self) -> Option<(SimInstant, E)> {
        let Reverse(Entry { at, event, .. }) = self.heap.pop()?;
        self.now = at;
        Some((at, event))
    }

    /// Pops the earliest event if it is at or before `end`.
    pub fn pop_before(&mut self, end: SimInstant) -> Option<(SimInstant, E)> {
        match self.peek_time() {
            Some(t) if t <= end => self.pop(),
            _ => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimDuration;

    fn at(s: u64) -> SimInstant {
        SimInstant::BOOT + SimDuration::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.post(at(3), "c");
        cal.post(at(1), "a");
        cal.post(at(2), "b");
        assert_eq!(cal.pop(), Some((at(1), "a")));
        assert_eq!(cal.pop(), Some((at(2), "b")));
        assert_eq!(cal.pop(), Some((at(3), "c")));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn ties_break_by_posting_order() {
        let mut cal = Calendar::new();
        cal.post(at(1), 1);
        cal.post(at(1), 2);
        cal.post(at(1), 3);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn pop_before_respects_bound() {
        let mut cal = Calendar::new();
        cal.post(at(5), "later");
        assert_eq!(cal.pop_before(at(4)), None);
        assert_eq!(cal.pop_before(at(5)), Some((at(5), "later")));
    }

    #[test]
    fn now_advances_with_pop() {
        let mut cal = Calendar::new();
        cal.post(at(7), ());
        assert_eq!(cal.now(), SimInstant::BOOT);
        cal.pop();
        assert_eq!(cal.now(), at(7));
    }

    #[test]
    #[should_panic(expected = "posted for")]
    fn posting_in_the_past_panics() {
        let mut cal = Calendar::new();
        cal.post(at(5), ());
        cal.pop();
        cal.post(at(1), ());
    }
}
