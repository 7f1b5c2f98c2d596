//! Property-based tests for the detsim kernel invariants.

use detsim::{BoundedQueue, EventQueue, Histogram, SimTime};
use proptest::prelude::*;

proptest! {
    /// Popping the event queue yields a non-decreasing time sequence, and
    /// equal-time events come out in insertion order (each payload is its
    /// insertion index).
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li);
                }
            }
            last = Some((t, i));
        }
    }

    /// Drops happen iff the queue was full at push time, and the length
    /// follows the accepted-minus-popped model.
    #[test]
    fn bounded_queue_conservation(cap in 0usize..40, ops in proptest::collection::vec(any::<bool>(), 0..400)) {
        let mut q = BoundedQueue::new(cap);
        let mut model_len = 0usize;
        for (i, push) in ops.into_iter().enumerate() {
            if push {
                let out = q.push(i);
                if model_len < cap {
                    prop_assert!(out.is_enqueued());
                    model_len += 1;
                } else {
                    prop_assert!(!out.is_enqueued());
                }
            } else if q.pop().is_some() {
                model_len -= 1;
            }
            prop_assert_eq!(q.len(), model_len);
        }
    }

    /// FIFO: items leave a bounded queue in the order they were accepted.
    #[test]
    fn bounded_queue_fifo(cap in 1usize..20, n in 0usize..100) {
        let mut q = BoundedQueue::new(cap);
        let mut accepted = Vec::new();
        for i in 0..n {
            if q.push(i).is_enqueued() {
                accepted.push(i);
            }
        }
        let drained: Vec<usize> = std::iter::from_fn(|| q.pop()).collect();
        prop_assert_eq!(drained, accepted);
    }

    /// Histogram quantile bounds: every quantile is >= that fraction of
    /// samples, and quantile is monotone in q.
    #[test]
    fn histogram_quantile_monotone(samples in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &s in &samples { h.record(s); }
        let q25 = h.quantile(0.25);
        let q50 = h.quantile(0.50);
        let q99 = h.quantile(0.99);
        prop_assert!(q25 <= q50 && q50 <= q99);
        // The bucketed p50 upper bound must dominate the true median.
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let true_median = sorted[(sorted.len() - 1) / 2];
        prop_assert!(q50 >= true_median);
    }
}
