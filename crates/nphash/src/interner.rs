//! Flow interning: dense, deterministic `FlowId` → [`FlowSlot`] arena.
//!
//! The per-packet path of a network processor cannot afford a hash-map
//! probe per packet (the whole premise of the paper's map-table design).
//! The simulator honors the same discipline: every distinct [`FlowId`]
//! gets a dense `u32` slot the first time any source emits it, and every
//! later touch of per-flow state is a plain array index.
//!
//! [`FlowInterner`] is the standalone interner for arbitrary
//! [`FlowId`]s. The simulator's run path does not use it: there every
//! flow comes from a trace generator with a dense trace-local index, so
//! `npsim`'s ingest stage assigns slots through one dense table per flow
//! namespace and never hashes a `FlowId`. Both hand out slots through
//! [`FlowSlot::nth`], in first-emission order, so the two agree slot for
//! slot on the same emission sequence.
//!
//! Determinism: slots are assigned in first-emission order. Because the
//! engine drives sources from a deterministic event queue and each source
//! replays a deterministic header stream, the sequence of first emissions
//! — and therefore the `FlowId → FlowSlot` assignment — is a pure
//! function of the configuration and seed. No iteration order of any hash
//! map is ever observed.

use crate::det::{det_map_with_capacity, DetHashMap};
use crate::flow::FlowId;

/// A dense index for an interned flow, assigned by [`FlowInterner`].
///
/// Slots are consecutive `u32`s starting at 0, so per-flow state lives in
/// plain `Vec`s indexed by slot instead of hash maps keyed by
/// [`FlowId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowSlot(u32);

impl FlowSlot {
    /// Construct from a raw dense index.
    pub const fn new(index: u32) -> Self {
        FlowSlot(index)
    }

    /// The slot of the `n`-th distinct flow (0-based): the one place a
    /// flow count becomes a slot, shared by every slot assigner.
    ///
    /// `u32::MAX` is never a slot, so dense slot tables can use it to
    /// mark an unseen flow.
    ///
    /// # Panics
    /// When `n` is `u32::MAX` or more: the run has seen more than
    /// 2³² − 1 distinct flows, and a slot would wrap onto another flow's.
    pub fn nth(n: usize) -> Self {
        match u32::try_from(n) {
            Ok(i) if i != u32::MAX => FlowSlot(i),
            _ => panic!("more than 2³² − 1 distinct flows: a FlowSlot is a u32, and u32::MAX marks an unseen flow"),
        }
    }

    /// The raw dense index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw dense index as `u32`.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl From<FlowSlot> for usize {
    fn from(s: FlowSlot) -> usize {
        s.index()
    }
}

/// Interns [`FlowId`]s into dense [`FlowSlot`]s, first-come first-slotted.
///
/// One hash probe per call. The simulator's run path does not call it
/// (see the module docs); it serves flows that carry no dense index,
/// benchmarks and tests.
///
/// It keeps no slot → `FlowId` column: every packet carries its
/// `FlowId`, so nothing reads one back, and at backbone flow counts the
/// column cost 16 B per flow of resident memory.
#[derive(Debug, Clone)]
pub struct FlowInterner {
    slots: DetHashMap<FlowId, FlowSlot>,
}

impl Default for FlowInterner {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowInterner {
    /// An empty interner.
    pub fn new() -> Self {
        FlowInterner {
            slots: det_map_with_capacity(1024),
        }
    }

    /// Return `flow`'s slot, assigning the next dense slot on first sight.
    ///
    /// # Panics
    /// On the first sight of a flow past 2³² − 1 distinct ones
    /// ([`FlowSlot::nth`]).
    pub fn intern(&mut self, flow: FlowId) -> FlowSlot {
        if let Some(&s) = self.slots.get(&flow) {
            return s;
        }
        let s = FlowSlot::nth(self.slots.len());
        self.slots.insert(flow, s);
        s
    }

    /// The slot of an already-interned flow, if any.
    pub fn get(&self, flow: FlowId) -> Option<FlowSlot> {
        self.slots.get(&flow).copied()
    }

    /// Number of distinct flows interned so far. Slots are exactly
    /// `0..len()`.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no flow has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(i: u64) -> FlowId {
        FlowId::from_index(i)
    }

    #[test]
    fn slots_are_dense_and_stable() {
        let mut it = FlowInterner::new();
        let a = it.intern(flow(10));
        let b = it.intern(flow(20));
        let c = it.intern(flow(10));
        assert_eq!(a, FlowSlot::new(0));
        assert_eq!(b, FlowSlot::new(1));
        assert_eq!(a, c, "re-interning returns the same slot");
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut it = FlowInterner::new();
        for i in 0..100 {
            let s = it.intern(flow(i));
            assert_eq!(s, FlowSlot::new(i as u32), "slots are dense");
            assert_eq!(it.get(flow(i)), Some(s));
        }
        assert_eq!(it.len(), 100);
        assert_eq!(it.get(flow(1000)), None);
    }

    #[test]
    fn the_last_slot_is_one_below_the_sentinel() {
        assert_eq!(FlowSlot::nth(0), FlowSlot::new(0));
        let last = u32::MAX as usize - 1;
        assert_eq!(FlowSlot::nth(last), FlowSlot::new(u32::MAX - 1));
    }

    #[test]
    #[should_panic(expected = "distinct flows")]
    fn a_slot_never_wraps() {
        // Unchecked, this flow would take slot `u32::MAX`, the dense
        // tables' "unseen" mark, and a `len() as u32` cast would put the
        // next one on slot 0.
        let _ = FlowSlot::nth(u32::MAX as usize);
    }

    #[test]
    fn assignment_order_is_emission_order() {
        // Same emission sequence → identical slot assignment, regardless
        // of the FlowId values' hash order.
        let seq = [7u64, 3, 99, 3, 12, 7, 1];
        let mut a = FlowInterner::new();
        let mut b = FlowInterner::new();
        let sa: Vec<_> = seq.iter().map(|&i| a.intern(flow(i))).collect();
        let sb: Vec<_> = seq.iter().map(|&i| b.intern(flow(i))).collect();
        assert_eq!(sa, sb);
        assert_eq!(a.len(), 5);
    }
}
