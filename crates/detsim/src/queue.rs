//! Bounded FIFO queues with drop-tail admission.
//!
//! Models the per-core input queues of the network processor: each core has
//! a fixed number of packet-descriptor slots (32 in the paper, after
//! Ohlendorf et al.); a packet dispatched to a full queue is **lost**.

use std::collections::VecDeque;

/// Result of attempting to enqueue into a [`BoundedQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Item was accepted; payload is the new queue length.
    Enqueued(usize),
    /// Queue was full; the item was dropped.
    Dropped,
}

impl PushOutcome {
    /// Whether the item was accepted.
    pub fn is_enqueued(self) -> bool {
        matches!(self, PushOutcome::Enqueued(_))
    }
}

/// Fixed-capacity FIFO: a push onto a full queue is refused.
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items. A zero capacity queue
    /// drops everything (useful for fault-injection tests).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            items: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
        }
    }

    /// Attempt to enqueue; drops the item when full.
    pub fn push(&mut self, item: T) -> PushOutcome {
        if self.items.len() >= self.capacity {
            PushOutcome::Dropped
        } else {
            self.items.push_back(item);
            PushOutcome::Enqueued(self.items.len())
        }
    }

    /// Dequeue the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let mut q = BoundedQueue::new(8);
        for i in 0..5 {
            assert!(q.push(i).is_enqueued());
        }
        let out: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drops_when_full() {
        let mut q = BoundedQueue::new(2);
        assert_eq!(q.push('a'), PushOutcome::Enqueued(1));
        assert_eq!(q.push('b'), PushOutcome::Enqueued(2));
        assert_eq!(q.push('c'), PushOutcome::Dropped);
        // Space frees after a pop.
        assert_eq!(q.pop(), Some('a'));
        assert!(q.push('d').is_enqueued());
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut q = BoundedQueue::new(0);
        assert_eq!(q.push(1), PushOutcome::Dropped);
        assert!(q.is_empty());
        assert_eq!(q.capacity(), 0);
    }
}
