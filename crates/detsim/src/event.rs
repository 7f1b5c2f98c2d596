//! Deterministic event queue.
//!
//! A binary-heap priority queue keyed by `(SimTime, sequence)` where
//! `sequence` is a monotonically increasing insertion counter. Two events
//! scheduled for the same instant therefore fire in the order they were
//! scheduled, which makes whole-simulation replays bit-identical — the
//! property every experiment in this workspace relies on.

use crate::time::SimTime;
use core::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled event: fire time, insertion sequence, payload.
#[derive(Debug, Clone)]
struct EventEntry<E> {
    /// Virtual time at which the event fires.
    pub time: SimTime,
    /// Insertion sequence number (tie-breaker; unique per queue).
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for EventEntry<E> {}

impl<E> PartialOrd for EventEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for EventEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A future-event list with deterministic FIFO tie-breaking.
///
/// ```
/// use detsim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(10), "b");
/// q.push(SimTime::from_nanos(5), "a");
/// assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<EventEntry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// An empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// Returns the sequence number assigned to the event (useful in tests
    /// asserting ordering).
    pub fn push(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(EventEntry { time, seq, event });
        seq
    }

    /// Remove and return the earliest event as `(time, event)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        Some((entry.time, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events (the sequence counter is preserved).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(5), "a");
        q.push(SimTime::from_nanos(1), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(SimTime::from_nanos(3), "c");
        q.push(SimTime::from_nanos(3), "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
        assert_eq!(q.pop().unwrap().1, "a");
        assert!(q.pop().is_none());
    }

    #[test]
    fn clear_keeps_the_sequence_counter() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO, ());
        q.pop();
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.push(SimTime::ZERO, ()), 2, "seq numbers survive a clear");
    }
}
