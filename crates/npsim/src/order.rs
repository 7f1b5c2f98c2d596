//! Packet-reordering measurement.
//!
//! A packet departs **out of order** if some packet of the same flow with
//! a *higher* arrival sequence has already departed — the standard
//! reordering definition (cf. RFC 4737 "reordered" singleton metric). We
//! additionally record the *reorder extent* (how many sequence numbers
//! late the packet is), an extension beyond the paper's scalar count.
//!
//! The tracker is slot-indexed: flows are identified by their dense
//! [`FlowSlot`], so recording a departure is one array access — no hash
//! probe on the departure path.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use detsim::Histogram;
use nphash::FlowSlot;

/// Tracks per-flow departure order, indexed by [`FlowSlot`].
#[derive(Debug, Default)]
pub struct OrderTracker {
    /// Per slot: `0` = no departure seen yet; otherwise the highest
    /// departed `flow_seq` **plus one** (so the vector's zero-fill is the
    /// "never seen" state and growth is a plain resize).
    max_departed_plus_one: Vec<u64>,
    flows: usize,
    departed: u64,
    out_of_order: u64,
    extent: Histogram,
}

impl OrderTracker {
    /// A fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a departure of packet `flow_seq` of the flow in `slot`.
    /// Returns `true` if the departure is out of order.
    pub fn record_departure(&mut self, slot: FlowSlot, flow_seq: u64) -> bool {
        self.record_departure_extent(slot, flow_seq).is_some()
    }

    /// Like [`OrderTracker::record_departure`], but returns the reorder
    /// extent (how many sequence numbers late the packet was); `None`
    /// means the departure was in order.
    pub fn record_departure_extent(&mut self, slot: FlowSlot, flow_seq: u64) -> Option<u64> {
        self.departed += 1;
        let i = slot.index();
        if i >= self.max_departed_plus_one.len() {
            self.max_departed_plus_one.resize(i + 1, 0);
        }
        let Some(entry) = self.max_departed_plus_one.get_mut(i) else {
            // Unreachable: just resized to cover `i`.
            return None;
        };
        if *entry == 0 {
            // First departure of the flow can still be "late" only if
            // earlier-seq packets were dropped — drops are not
            // reorderings, so it is in order by definition.
            *entry = flow_seq + 1;
            self.flows += 1;
            return None;
        }
        let max = *entry - 1;
        if flow_seq < max {
            self.out_of_order += 1;
            let extent = max - flow_seq;
            self.extent.record(extent);
            Some(extent)
        } else {
            *entry = flow_seq + 1;
            None
        }
    }

    /// Start the cache fill for `slot`'s entry ahead of its departure
    /// (a read-only touch; entries not yet grown are simply skipped).
    #[inline]
    pub fn prefetch(&self, slot: FlowSlot) {
        if let Some(entry) = self.max_departed_plus_one.get(slot.index()) {
            crate::mem::prefetch_read(entry);
        }
    }

    /// Total departures recorded.
    pub fn departed(&self) -> u64 {
        self.departed
    }

    /// Out-of-order departures.
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order
    }

    /// Fraction of departures that were out of order.
    pub fn ooo_fraction(&self) -> f64 {
        if self.departed == 0 {
            0.0
        } else {
            self.out_of_order as f64 / self.departed as f64
        }
    }

    /// Reorder-extent distribution (sequence-number lateness).
    pub fn extent_histogram(&self) -> &Histogram {
        &self.extent
    }

    /// Number of distinct flows that have departed packets.
    pub fn flows_seen(&self) -> usize {
        self.flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(i: u32) -> FlowSlot {
        FlowSlot::new(i)
    }

    #[test]
    fn in_order_flow_is_clean() {
        let mut t = OrderTracker::new();
        for seq in 0..10 {
            assert!(!t.record_departure(s(1), seq));
        }
        assert_eq!(t.out_of_order(), 0);
        assert_eq!(t.departed(), 10);
        assert_eq!(t.ooo_fraction(), 0.0);
    }

    #[test]
    fn late_packet_is_ooo() {
        let mut t = OrderTracker::new();
        t.record_departure(s(1), 0);
        t.record_departure(s(1), 2); // 1 still in flight
        assert!(t.record_departure(s(1), 1)); // late
        assert_eq!(t.out_of_order(), 1);
        assert_eq!(t.extent_histogram().count(), 1);
        assert_eq!(t.extent_histogram().max(), 1);
    }

    #[test]
    fn flows_are_independent() {
        let mut t = OrderTracker::new();
        t.record_departure(s(1), 5);
        assert!(!t.record_departure(s(2), 0), "other flows unaffected");
        assert_eq!(t.flows_seen(), 2);
    }

    #[test]
    fn gaps_from_drops_are_not_reordering() {
        let mut t = OrderTracker::new();
        assert!(!t.record_departure(s(1), 0));
        // seq 1 was dropped upstream; 2 departing next is in order.
        assert!(!t.record_departure(s(1), 2));
        assert_eq!(t.out_of_order(), 0);
    }

    #[test]
    fn equal_seq_not_counted() {
        // Defensive: duplicate sequence (should not happen) is not OOO.
        let mut t = OrderTracker::new();
        t.record_departure(s(1), 3);
        assert!(!t.record_departure(s(1), 3));
    }

    #[test]
    fn extent_measures_lateness() {
        let mut t = OrderTracker::new();
        t.record_departure(s(1), 10);
        t.record_departure(s(1), 4);
        assert_eq!(t.extent_histogram().max(), 6);
    }

    #[test]
    fn extent_variant_reports_lateness_inline() {
        let mut t = OrderTracker::new();
        assert_eq!(t.record_departure_extent(s(1), 10), None);
        assert_eq!(t.record_departure_extent(s(1), 4), Some(6));
        assert_eq!(t.record_departure_extent(s(1), 11), None);
    }

    #[test]
    fn sparse_slots_grow_on_demand() {
        let mut t = OrderTracker::new();
        assert!(!t.record_departure(s(1000), 0));
        assert!(!t.record_departure(s(0), 7));
        assert_eq!(t.flows_seen(), 2);
    }
}
