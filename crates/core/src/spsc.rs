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
//! `AtomicU64` words. A slot holds one fixed-width [`Payload`] — `N`
//! words, one `u64` by default — and the top bit of its first word tags
//! marks, so the whole structure is safe code — `laps` keeps
//! `#![forbid(unsafe_code)]` — and every slot hand-off is a run of
//! plain atomic stores published by one Release store of the tail.
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

use std::marker::PhantomData;

#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::Arc;

#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
#[cfg(loom)]
use loom::sync::Arc;

/// Tag bit distinguishing migration marks from packet descriptors: the
/// top bit of a slot's first word.
const MARK_BIT: u64 = 1 << 63;

/// What a ring slot carries for a packet: a fixed number of `u64`
/// words.
///
/// `Words` is `[u64; N]` for an `N`-word payload. Word 0 shares its
/// slot word with the mark tag, so an encoding must leave bit 63 of
/// word 0 clear (the ring masks it off and debug-asserts that it was).
pub trait Payload: Copy {
    /// The encoded form, `[u64; N]`.
    type Words: Copy + Default + AsRef<[u64]> + AsMut<[u64]>;

    /// Encode into words; word 0 must be at most [`Desc::MAX_PAYLOAD`].
    fn encode(self) -> Self::Words;

    /// Rebuild the payload [`Payload::encode`] produced.
    fn decode(words: Self::Words) -> Self;
}

/// The default payload: one 63-bit word (packet id / arena slot).
impl Payload for u64 {
    type Words = [u64; 1];

    #[inline]
    fn encode(self) -> [u64; 1] {
        [self]
    }

    #[inline]
    fn decode(words: [u64; 1]) -> Self {
        let [w] = words;
        w
    }
}

/// One ring slot: a packet descriptor or a flow-group migration mark.
///
/// A mark's group and the first word of a packet payload are limited
/// to 63 bits ([`Desc::MAX_PAYLOAD`]); the top bit carries the mark tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Desc<P = u64> {
    /// A packet (payload caller-defined: a packet id, a descriptor).
    Packet(P),
    /// A migration mark for a flow group: everything enqueued before it
    /// belongs to the pre-migration epoch.
    Mark(u64),
}

impl Desc {
    /// Largest encodable mark group, and largest first payload word
    /// (63 bits).
    pub const MAX_PAYLOAD: u64 = MARK_BIT - 1;
}

/// Words per slot of payload `P` (a constant once inlined).
#[inline]
fn width<P: Payload>() -> usize {
    P::Words::default().as_ref().len()
}

/// State shared by the two endpoints. `head`/`tail` are monotonically
/// increasing operation counters (not wrapped indices); a slot index is
/// `counter & mask`. With a power-of-two capacity the counters may wrap
/// `usize` freely — `wrapping_sub` keeps the occupancy arithmetic exact.
///
/// Each counter sits alone in a 128-byte block ([`Padded`]), apart from
/// the read-only `slots`/`mask` header that both ends read on every
/// operation. Sharing one line, a pop's `head` store would take it from
/// the producer and the next push's `tail` store take it back: a
/// cross-core transfer per descriptor each way. Apart, each end writes
/// only its own counter's block, and a push or pop reads the other's
/// only when its cached copy says the ring is full (push) or empty
/// (pop).
#[derive(Debug)]
struct Shared {
    /// `capacity × width` words; slot `i` is words `i × width ..`.
    slots: Box<[AtomicU64]>,
    mask: usize,
    /// Consumer position: slots below `head` are free for reuse.
    head: Padded,
    /// Producer position: slots below `tail` are published.
    tail: Padded,
}

/// A ring counter on a 128-byte block of its own: two 64-byte lines,
/// because x86's adjacent-line prefetcher fetches lines in pairs, so a
/// neighbour in the paired line still bounces between the cores.
#[derive(Debug)]
#[repr(align(128))]
struct Padded(AtomicUsize);

/// Producer endpoint. `!Clone` and methods take `&mut self`: the
/// single-producer discipline is enforced by ownership, not runtime
/// checks.
#[derive(Debug)]
pub struct Producer<P = u64> {
    shared: Arc<Shared>,
    /// Local copy of our own `tail` (saves an atomic load per push).
    tail: usize,
    /// Last observed consumer `head`; refreshed only when the ring
    /// looks full, so an uncontended push is one load + `width + 1`
    /// stores.
    head_cache: usize,
    payload: PhantomData<P>,
}

/// Consumer endpoint (single consumer, by ownership).
#[derive(Debug)]
pub struct Consumer<P = u64> {
    shared: Arc<Shared>,
    /// Local copy of our own `head`.
    head: usize,
    /// Last observed producer `tail`; refreshed only when the ring
    /// looks empty.
    tail_cache: usize,
    payload: PhantomData<P>,
}

/// Create a ring with at least `capacity` slots (rounded up to a power
/// of two, minimum 2) of payload `P` and return its two endpoints.
pub fn ring<P: Payload>(capacity: usize) -> (Producer<P>, Consumer<P>) {
    let cap = capacity.max(2).next_power_of_two();
    // npcheck: allow(blocking-hot-path) — one-time ring setup, not per-packet
    let slots: Box<[AtomicU64]> = (0..cap * width::<P>()).map(|_| AtomicU64::new(0)).collect();
    let shared = Arc::new(Shared {
        slots,
        mask: cap - 1,
        head: Padded(AtomicUsize::new(0)),
        tail: Padded(AtomicUsize::new(0)),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            tail: 0,
            head_cache: 0,
            payload: PhantomData,
        },
        Consumer {
            shared,
            head: 0,
            tail_cache: 0,
            payload: PhantomData,
        },
    )
}

impl<P: Payload> Producer<P> {
    /// Enqueue a descriptor; `Err` returns it when the ring is full
    /// (bounded queue: the caller applies its drop/backpressure policy,
    /// the ring never grows).
    #[inline]
    pub fn try_push(&mut self, desc: Desc<P>) -> Result<(), Desc<P>> {
        let cap = self.shared.mask + 1;
        if self.tail.wrapping_sub(self.head_cache) == cap {
            // npcheck: ordering(Acquire pairs with the consumer's Release store of head: the consumer's reads of slots it freed happen-before our overwrite of them)
            self.head_cache = self.shared.head.0.load(Ordering::Acquire);
            if self.tail.wrapping_sub(self.head_cache) == cap {
                return Err(desc);
            }
        }
        let w = width::<P>();
        let base = (self.tail & self.shared.mask) * w;
        #[allow(clippy::indexing_slicing, reason = "base + w <= slots.len()")]
        let cells = &self.shared.slots[base..base + w];
        match desc {
            Desc::Packet(p) => {
                let mut words = p.encode();
                if let Some(w0) = words.as_mut().first_mut() {
                    debug_assert!(*w0 <= Desc::MAX_PAYLOAD, "payload word 0 overflows 63 bits");
                    *w0 &= Desc::MAX_PAYLOAD;
                }
                for (cell, &word) in cells.iter().zip(words.as_ref()) {
                    // npcheck: ordering(Relaxed is sound for the slot payload: it is published to the consumer only by the Release store of tail below)
                    cell.store(word, Ordering::Relaxed);
                }
            }
            Desc::Mark(g) => {
                debug_assert!(g <= Desc::MAX_PAYLOAD, "mark payload overflows 63 bits");
                if let Some(cell) = cells.first() {
                    // npcheck: ordering(Relaxed is sound for the slot payload: it is published to the consumer only by the Release store of tail below)
                    cell.store(MARK_BIT | (g & Desc::MAX_PAYLOAD), Ordering::Relaxed);
                }
            }
        }
        let next = self.tail.wrapping_add(1);
        // npcheck: ordering(Release publishes every slot store above; pairs with the consumer's Acquire load of tail)
        self.shared.tail.0.store(next, Ordering::Release);
        self.tail = next;
        Ok(())
    }

    /// Enqueue a migration mark for `group` — step 1 of the handshake;
    /// the caller must redirect the group's packets to the target ring
    /// from this call on.
    pub fn try_push_mark(&mut self, group: u64) -> Result<(), Desc<P>> {
        self.try_push(Desc::Mark(group))
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
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

impl<P: Payload> Consumer<P> {
    /// Dequeue the next descriptor, or `None` when the ring is empty.
    #[inline]
    pub fn try_pop(&mut self) -> Option<Desc<P>> {
        if self.head == self.tail_cache {
            // npcheck: ordering(Acquire pairs with the producer's Release store of tail: every slot store below tail happens-before our reads)
            self.tail_cache = self.shared.tail.0.load(Ordering::Acquire);
            if self.head == self.tail_cache {
                return None;
            }
        }
        let w = width::<P>();
        let base = (self.head & self.shared.mask) * w;
        #[allow(clippy::indexing_slicing, reason = "base + w <= slots.len()")]
        let cells = &self.shared.slots[base..base + w];
        let mut words = P::Words::default();
        for (word, cell) in words.as_mut().iter_mut().zip(cells) {
            // npcheck: ordering(Relaxed is sound for the slot payload: the Acquire load of tail that admitted this index ordered the producer's stores before these reads)
            *word = cell.load(Ordering::Relaxed);
        }
        let next = self.head.wrapping_add(1);
        // npcheck: ordering(Release returns the emptied slot to the producer; pairs with the producer's Acquire load of head)
        self.shared.head.0.store(next, Ordering::Release);
        self.head = next;
        let first = words.as_ref().first().copied().unwrap_or(0);
        Some(if first & MARK_BIT != 0 {
            Desc::Mark(first & Desc::MAX_PAYLOAD)
        } else {
            Desc::Packet(P::decode(words))
        })
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.shared.mask + 1
    }

    /// Occupancy: descriptors the producer has published and this
    /// consumer has not popped yet. Reads the producer's `tail` with
    /// Acquire rather than the pop cache, which `try_pop` refreshes only
    /// when it finds the ring empty.
    pub fn len(&self) -> usize {
        // npcheck: ordering(Acquire pairs with the producer's Release store of tail: a caller that saw a flag stored after the last push, such as a worker's Acquire load of `done`, sees that push here)
        let tail = self.shared.tail.0.load(Ordering::Acquire);
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
        let (mut p, mut c) = ring(8);
        for d in [
            Desc::Packet(0),
            Desc::Packet(Desc::MAX_PAYLOAD),
            Desc::Mark(0),
            Desc::Mark(7),
            Desc::Mark(Desc::MAX_PAYLOAD),
        ] {
            p.try_push(d).expect("room");
            assert_eq!(c.try_pop(), Some(d));
        }
    }

    /// A three-word payload whose words are all derived from one value.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Triple(u64);

    impl Payload for Triple {
        type Words = [u64; 3];
        fn encode(self) -> [u64; 3] {
            [self.0, !self.0, self.0.rotate_left(17)]
        }
        fn decode(words: [u64; 3]) -> Self {
            let [a, b, c] = words;
            assert_eq!((b, c), (!a, a.rotate_left(17)), "torn payload");
            Triple(a)
        }
    }

    #[test]
    fn multi_word_payloads_wrap_and_interleave_with_marks() {
        let (mut p, mut c) = ring::<Triple>(2);
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for round in 0..9u64 {
            while p.try_push(Desc::Packet(Triple(next_in))).is_ok() {
                next_in += 1;
            }
            assert_eq!(c.try_pop(), Some(Desc::Packet(Triple(next_out))));
            next_out += 1;
            p.try_push_mark(round).expect("a slot was freed");
            while let Some(d) = c.try_pop() {
                match d {
                    Desc::Packet(t) => {
                        assert_eq!(t, Triple(next_out));
                        next_out += 1;
                    }
                    Desc::Mark(g) => assert_eq!(g, round),
                }
            }
        }
        assert_eq!(next_in, next_out);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(ring::<u64>(0).0.capacity(), 2);
        assert_eq!(ring::<u64>(3).0.capacity(), 4);
        assert_eq!(ring::<u64>(32).0.capacity(), 32);
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

    /// `head`, `tail` and the `slots`/`mask` header occupy three
    /// disjoint 128-byte blocks, wherever the allocator puts the ring.
    #[test]
    fn counters_and_header_sit_in_separate_blocks() {
        /// The 128-byte blocks `[first, last]` a field of `len` bytes
        /// at `addr` touches.
        fn blocks(addr: usize, len: usize) -> (usize, usize) {
            (addr / 128, (addr + len - 1) / 128)
        }
        let (p, _c) = ring::<u64>(8);
        let s: &Shared = &p.shared;
        let head = blocks(std::ptr::addr_of!(s.head) as usize, size_of_val(&s.head));
        let tail = blocks(std::ptr::addr_of!(s.tail) as usize, size_of_val(&s.tail));
        let slots = blocks(std::ptr::addr_of!(s.slots) as usize, size_of_val(&s.slots));
        let mask = blocks(std::ptr::addr_of!(s.mask) as usize, size_of_val(&s.mask));
        let header = (slots.0.min(mask.0), slots.1.max(mask.1));
        let disjoint = |a: (usize, usize), b: (usize, usize)| a.1 < b.0 || b.1 < a.0;
        assert!(
            disjoint(head, tail),
            "head {head:?} and tail {tail:?} share a block"
        );
        assert!(
            disjoint(head, header),
            "head {head:?} and header {header:?} share a block"
        );
        assert!(
            disjoint(tail, header),
            "tail {tail:?} and header {header:?} share a block"
        );
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
