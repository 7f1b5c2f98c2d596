//! Single-producer single-consumer descriptor ring — the `npexec`
//! building block, landed and verified ahead of the thread-per-core
//! runtime (ROADMAP item 1).
//!
//! The planned `npexec` backend runs one pinned worker per simulated
//! core; packets travel between workers through SPSC rings, and flow
//! groups migrate with a kns-style handshake:
//!
//! 1. **mark** — the dispatcher enqueues [`Desc::Mark`]`(group)` into
//!    the *old* core's ring and from that instant redirects the group's
//!    packets to the *new* core's ring;
//! 2. **redirect** — packets of the group now arrive on the new ring,
//!    where the new worker holds them until the handoff completes;
//! 3. **first-packet ack** — when the old worker dequeues the mark it
//!    has, by SPSC FIFO order, already serviced every pre-migration
//!    packet of the group, so it releases the flow state and acks; the
//!    new worker then services its held packets. No packet of the group
//!    is ever in flight on both rings, which is what bounds reordering
//!    to zero for marked migrations.
//!
//! The ring itself is a bounded power-of-two Lamport queue over
//! `AtomicU64` slots. Descriptors are 63-bit payloads (packet ids /
//! flow-group ids) with the top bit tagging marks, so the whole
//! structure is safe code — `laps` keeps `#![forbid(unsafe_code)]` —
//! and every slot hand-off is a plain atomic store.
//!
//! Verification story (DESIGN.md, "Concurrency contract & static
//! analysis"):
//! * `--cfg loom` swaps the atomics for `loom` models; the tests in
//!   `tests/loom_spsc.rs` exhaustively explore push/pop/mark
//!   interleavings and prove FIFO linearization — no loss, no
//!   duplication, marks ordered after everything pushed before them.
//! * every atomic ordering below carries a `// npcheck: ordering(..)`
//!   justification, enforced by the `shared-state-audit` rule.
//! * `tests/spsc_stress.rs` hammers the ring on real threads; CI runs
//!   it under ThreadSanitizer.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::Arc;

#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
#[cfg(loom)]
use loom::sync::Arc;

/// Tag bit distinguishing migration marks from packet descriptors.
const MARK_BIT: u64 = 1 << 63;

/// One ring slot: a packet descriptor or a flow-group migration mark.
///
/// Payloads are limited to 63 bits ([`Desc::MAX_PAYLOAD`]); the top bit
/// carries the mark tag so a descriptor fits one atomic slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Desc {
    /// A packet (payload: packet id / arena slot, caller-defined).
    Packet(u64),
    /// A migration mark for a flow group: everything enqueued before it
    /// belongs to the pre-migration epoch.
    Mark(u64),
}

impl Desc {
    /// Largest encodable payload (63 bits).
    pub const MAX_PAYLOAD: u64 = MARK_BIT - 1;

    fn encode(self) -> u64 {
        match self {
            Desc::Packet(p) => {
                debug_assert!(p <= Self::MAX_PAYLOAD, "packet payload overflows 63 bits");
                p & Self::MAX_PAYLOAD
            }
            Desc::Mark(g) => {
                debug_assert!(g <= Self::MAX_PAYLOAD, "mark payload overflows 63 bits");
                MARK_BIT | (g & Self::MAX_PAYLOAD)
            }
        }
    }

    fn decode(raw: u64) -> Self {
        if raw & MARK_BIT != 0 {
            Desc::Mark(raw & Self::MAX_PAYLOAD)
        } else {
            Desc::Packet(raw)
        }
    }
}

/// State shared by the two endpoints. `head`/`tail` are monotonically
/// increasing operation counters (not wrapped indices); a slot index is
/// `counter & mask`. With a power-of-two capacity the counters may wrap
/// `usize` freely — `wrapping_sub` keeps the occupancy arithmetic exact.
#[derive(Debug)]
struct Shared {
    slots: Box<[AtomicU64]>,
    mask: usize,
    /// Consumer position: slots below `head` are free for reuse.
    head: AtomicUsize,
    /// Producer position: slots below `tail` are published.
    tail: AtomicUsize,
}

/// Producer endpoint. `!Clone` and methods take `&mut self`: the
/// single-producer discipline is enforced by ownership, not runtime
/// checks.
#[derive(Debug)]
pub struct Producer {
    shared: Arc<Shared>,
    /// Local copy of our own `tail` (saves an atomic load per push).
    tail: usize,
    /// Last observed consumer `head`; refreshed only when the ring
    /// looks full, so an uncontended push is one load + two stores.
    head_cache: usize,
}

/// Consumer endpoint (single consumer, by ownership).
#[derive(Debug)]
pub struct Consumer {
    shared: Arc<Shared>,
    /// Local copy of our own `head`.
    head: usize,
    /// Last observed producer `tail`; refreshed only when the ring
    /// looks empty.
    tail_cache: usize,
}

/// Create a ring with at least `capacity` slots (rounded up to a power
/// of two, minimum 2) and return its two endpoints.
pub fn ring(capacity: usize) -> (Producer, Consumer) {
    let cap = capacity.max(2).next_power_of_two();
    // npcheck: allow(blocking-hot-path) — one-time ring setup, not per-packet
    let slots: Box<[AtomicU64]> = (0..cap).map(|_| AtomicU64::new(0)).collect();
    let shared = Arc::new(Shared {
        slots,
        mask: cap - 1,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: 0,
            head_cache: 0,
        },
        Consumer {
            shared,
            head: 0,
            tail_cache: 0,
        },
    )
}

impl Producer {
    /// Enqueue a descriptor; `Err` returns it when the ring is full
    /// (bounded queue: the caller applies its drop/backpressure policy,
    /// the ring never grows).
    pub fn try_push(&mut self, desc: Desc) -> Result<(), Desc> {
        let cap = self.shared.slots.len();
        if self.tail.wrapping_sub(self.head_cache) == cap {
            // npcheck: ordering(Acquire pairs with the consumer's Release store of head: the consumer's reads of slots it freed happen-before our overwrite of them)
            self.head_cache = self.shared.head.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.head_cache) == cap {
                return Err(desc);
            }
        }
        let idx = self.tail & self.shared.mask;
        #[allow(clippy::indexing_slicing, reason = "idx is masked to slots.len() - 1")]
        // npcheck: ordering(Relaxed is sound for the slot payload: it is published to the consumer only by the Release store of tail below)
        self.shared.slots[idx].store(desc.encode(), Ordering::Relaxed);
        let next = self.tail.wrapping_add(1);
        // npcheck: ordering(Release publishes the slot store above; pairs with the consumer's Acquire load of tail)
        self.shared.tail.store(next, Ordering::Release);
        self.tail = next;
        Ok(())
    }

    /// Enqueue a migration mark for `group` — step 1 of the handshake;
    /// the caller must redirect the group's packets to the target ring
    /// from this call on.
    pub fn try_push_mark(&mut self, group: u64) -> Result<(), Desc> {
        self.try_push(Desc::Mark(group))
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// Occupancy from the producer's (conservative) view: counts slots
    /// the consumer may already have drained since the last refresh.
    pub fn len(&self) -> usize {
        self.tail.wrapping_sub(self.head_cache)
    }

    /// Whether the producer's view of the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Consumer {
    /// Dequeue the next descriptor, or `None` when the ring is empty.
    pub fn try_pop(&mut self) -> Option<Desc> {
        if self.head == self.tail_cache {
            // npcheck: ordering(Acquire pairs with the producer's Release store of tail: every slot store below tail happens-before our reads)
            self.tail_cache = self.shared.tail.load(Ordering::Acquire);
            if self.head == self.tail_cache {
                return None;
            }
        }
        let idx = self.head & self.shared.mask;
        #[allow(clippy::indexing_slicing, reason = "idx is masked to slots.len() - 1")]
        // npcheck: ordering(Relaxed is sound for the slot payload: the Acquire load of tail that admitted this index ordered the producer's store before this read)
        let raw = self.shared.slots[idx].load(Ordering::Relaxed);
        let next = self.head.wrapping_add(1);
        // npcheck: ordering(Release returns the emptied slot to the producer; pairs with the producer's Acquire load of head)
        self.shared.head.store(next, Ordering::Release);
        self.head = next;
        Some(Desc::decode(raw))
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// Occupancy: descriptors the producer has published and this
    /// consumer has not popped yet. Reads the producer's `tail` with
    /// Acquire rather than the pop cache, which `try_pop` refreshes only
    /// when it finds the ring empty.
    pub fn len(&self) -> usize {
        // npcheck: ordering(Acquire pairs with the producer's Release store of tail: a caller that saw a flag stored after the last push, such as a worker's Acquire load of `done`, sees that push here)
        let tail = self.shared.tail.load(Ordering::Acquire);
        tail.wrapping_sub(self.head)
    }

    /// Whether every published descriptor has been popped. Reads the
    /// producer's published `tail` (see [`Consumer::len`]), so an exit
    /// rule "producer done and ring empty" cannot strand descriptors
    /// pushed after the consumer's last empty pop.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_roundtrip() {
        for d in [
            Desc::Packet(0),
            Desc::Packet(Desc::MAX_PAYLOAD),
            Desc::Mark(0),
            Desc::Mark(7),
            Desc::Mark(Desc::MAX_PAYLOAD),
        ] {
            assert_eq!(Desc::decode(d.encode()), d);
        }
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(ring(0).0.capacity(), 2);
        assert_eq!(ring(3).0.capacity(), 4);
        assert_eq!(ring(32).0.capacity(), 32);
    }

    #[test]
    fn fifo_within_one_thread() {
        let (mut p, mut c) = ring(4);
        for i in 0..4u64 {
            p.try_push(Desc::Packet(i)).expect("ring has room");
        }
        assert_eq!(
            p.try_push(Desc::Packet(99)),
            Err(Desc::Packet(99)),
            "full ring must reject"
        );
        for i in 0..4u64 {
            assert_eq!(c.try_pop(), Some(Desc::Packet(i)));
        }
        assert_eq!(c.try_pop(), None);
    }

    #[test]
    fn wraparound_preserves_order() {
        let (mut p, mut c) = ring(2);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for _ in 0..17 {
            while p.try_push(Desc::Packet(next_in)).is_ok() {
                next_in += 1;
            }
            while let Some(d) = c.try_pop() {
                assert_eq!(d, Desc::Packet(next_out));
                next_out += 1;
            }
        }
        assert_eq!(next_in, next_out);
        assert!(next_in > 16, "ring must have wrapped repeatedly");
    }

    #[test]
    fn mark_partitions_the_stream() {
        let (mut p, mut c) = ring(8);
        p.try_push(Desc::Packet(1)).expect("room");
        p.try_push(Desc::Packet(2)).expect("room");
        p.try_push_mark(42).expect("room");
        p.try_push(Desc::Packet(3)).expect("room");
        assert_eq!(c.try_pop(), Some(Desc::Packet(1)));
        assert_eq!(c.try_pop(), Some(Desc::Packet(2)));
        assert_eq!(c.try_pop(), Some(Desc::Mark(42)));
        assert_eq!(c.try_pop(), Some(Desc::Packet(3)));
    }

    #[test]
    fn is_empty_sees_pushes_after_an_empty_pop() {
        let (mut p, mut c) = ring(8);
        assert_eq!(c.try_pop(), None, "the pop caches an empty tail");
        p.try_push(Desc::Packet(5)).expect("room");
        assert!(!c.is_empty(), "a push after the empty pop is visible");
        assert_eq!(c.len(), 1);
        assert_eq!(c.try_pop(), Some(Desc::Packet(5)));
        assert!(c.is_empty());
    }

    #[test]
    fn freed_slots_become_reusable() {
        let (mut p, mut c) = ring(2);
        p.try_push(Desc::Packet(0)).expect("room");
        p.try_push(Desc::Packet(1)).expect("room");
        assert!(p.try_push(Desc::Packet(2)).is_err());
        assert_eq!(c.try_pop(), Some(Desc::Packet(0)));
        // The producer's cached head is stale; the push must refresh it
        // and succeed.
        p.try_push(Desc::Packet(2)).expect("freed slot reusable");
        assert_eq!(c.try_pop(), Some(Desc::Packet(1)));
        assert_eq!(c.try_pop(), Some(Desc::Packet(2)));
    }
}
