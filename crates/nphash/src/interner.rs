//! Flow interning: dense, deterministic `FlowId` → [`FlowSlot`] arena.
//!
//! The per-packet path of a network processor cannot afford a hash-map
//! probe per packet (the whole premise of the paper's map-table design).
//! The simulator honors the same discipline: every distinct [`FlowId`] is
//! *interned* once — the first time any source emits it — into a dense
//! `u32` slot, and every later touch of per-flow state is a plain array
//! index.
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
/// The map is probed **once per distinct flow** (on first emission);
/// steady-state packet processing never touches it — sources cache the
/// slot of each trace-local flow index, so repeat flows ride a `Vec`
/// lookup.
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
    pub fn intern(&mut self, flow: FlowId) -> FlowSlot {
        if let Some(&s) = self.slots.get(&flow) {
            return s;
        }
        let s = FlowSlot(self.slots.len() as u32);
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
