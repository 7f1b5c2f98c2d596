//! Flow-group migration handshake — the mark → redirect →
//! first-packet-ack protocol from the kns flow-group design, built on
//! top of the [`spsc`](crate::spsc) ring for the `npexec`
//! thread-per-core runtime. This module is the protocol's one
//! implementation: [`GroupBoard`] is the state the dispatcher and the
//! workers share, [`Holdback`] is a worker's hold rule, and npexec's
//! workers and the loom models run both.
//!
//! The protocol moves a flow group from an *old* worker to a *new*
//! worker without ever reordering the group's packets:
//!
//! 1. **mark** — the dispatcher pushes [`Desc::Mark`]`(group)` into the
//!    old worker's ring, names the new worker as the group's target
//!    ([`GroupBoard::point`]), then calls [`GroupBoard::begin`] to
//!    publish that the group is mid-handshake;
//! 2. **redirect** — from that instant the dispatcher routes the
//!    group's packets to the new worker's ring
//!    ([`MapTable::redirect_bucket`](nphash::MapTable::redirect_bucket)
//!    bumps the table epoch); the new worker reads the group as
//!    [`GroupBoard::inbound`], and its [`Holdback`] *parks* the group's
//!    packets instead of servicing them;
//! 3. **first-packet ack** — when the old worker pops the mark it has,
//!    by SPSC FIFO order, already serviced every pre-migration packet
//!    of the group; [`Holdback::ack`] calls [`GroupBoard::release`],
//!    and the new worker's next [`Holdback::drain_released`] finds the
//!    group idle — the parked packets drain, in arrival order, and the
//!    group is live on the new core.
//!
//! Why this cannot reorder: the old worker services packets
//! synchronously as it pops them, so popping the mark *proves* every
//! pre-migration packet of the group has finished service. The
//! `release` counter bump is a Release store; the new worker reads it
//! with Acquire before servicing parked packets, so all pre-migration
//! service happens-before all post-migration service of the same
//! group. Within each side, SPSC FIFO order preserves arrival order.
//! The chain is exactly the reordering hazard the Flow Director study
//! (arXiv 1106.0443) documents for naive concurrent redirects — closed
//! here by the mark ack.
//!
//! The board keeps, per group, a pair of monotone counters (`begun`,
//! `released`) and the target; a group is mid-handshake while
//! `begun > released`. The dispatcher never begins a second handshake
//! for a group until the first completes ([`GroupBoard::in_flight`] is
//! the guard), so the counters never differ by more than one. A crash
//! begins none: the crashed worker turns its parked and queued packets
//! into drops ([`Holdback::crash`], acking any stranded mark as usual)
//! and pauses, and only then does the dispatcher point the dead
//! worker's groups at their replacements.
//!
//! Verified by `tests/loom_handshake.rs` and
//! `tests/loom_crash_repair.rs` under `--cfg loom`: a dispatcher and
//! workers that each drive their own [`Holdback`] exchange a group over
//! the rings (plus, in the crash-repair models, a worker that crashes,
//! drains its own ring and pauses) and the model checker checks
//! per-flow service order is monotone in every interleaving it
//! explores.

#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
#[cfg(not(loom))]
use std::sync::Arc;

#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
#[cfg(loom)]
use loom::sync::Arc;

use crate::spsc::{Consumer, Desc, Payload};

/// Shared per-group handshake state. Cheap to clone (one `Arc`); the
/// dispatcher and every worker hold a clone.
#[derive(Debug, Clone)]
pub struct GroupBoard {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    /// Handshakes begun per group (dispatcher bumps after pushing the
    /// mark into the old ring).
    begun: Box<[AtomicU64]>,
    /// Handshakes released per group (old worker bumps on popping the
    /// mark, after servicing everything before it).
    released: Box<[AtomicU64]>,
    /// The worker each group was last pointed at (`usize::MAX`: none
    /// yet): a marked handshake's new owner or a crash's replacement.
    target: Box<[AtomicUsize]>,
}

impl GroupBoard {
    /// A board for `groups` flow groups, all idle.
    pub fn new(groups: usize) -> Self {
        let begun: Box<[AtomicU64]> = (0..groups).map(|_| AtomicU64::new(0)).collect();
        let released: Box<[AtomicU64]> = (0..groups).map(|_| AtomicU64::new(0)).collect();
        let target = (0..groups).map(|_| AtomicUsize::new(usize::MAX)).collect();
        GroupBoard {
            inner: Arc::new(Inner {
                begun,
                released,
                target,
            }),
        }
    }

    /// Dispatcher step: name `worker` as `group`'s target. A marked
    /// handshake points before [`GroupBoard::begin`], a crash re-home
    /// after the dead worker paused; both before the first push of the
    /// group to `worker`'s ring.
    ///
    /// # Panics
    /// Panics if `group` is out of range.
    pub fn point(&self, group: usize, worker: usize) {
        // npcheck: ordering(Release pairs with the worker's Acquire load of the target in inbound)
        self.inner.target[group].store(worker, Ordering::Release);
    }

    /// Dispatcher step: publish that a handshake for `group` has begun.
    /// Call *after* the mark is in the old worker's ring and *before*
    /// routing any packet of the group to the new ring, so a new-ring
    /// packet can never observe the group as idle while its mark is
    /// still in flight.
    ///
    /// # Panics
    /// Panics if `group` is out of range (dispatcher-side config error,
    /// caught at the first migration attempt).
    pub fn begin(&self, group: usize) {
        // npcheck: ordering(Release pairs with the new worker's Acquire load in in_flight: the mark push into the old ring happens-before any new-ring packet observing begun > released)
        self.inner.begun[group].fetch_add(1, Ordering::Release);
    }

    /// Old-worker step: ack the mark for `group`. Called exactly once
    /// per popped [`Desc::Mark`]; by SPSC FIFO order every pre-migration
    /// packet of the group was serviced before the mark was popped, so
    /// this bump is the proof the new worker waits for.
    ///
    /// # Panics
    /// Panics if `group` is out of range.
    pub fn release(&self, group: usize) {
        // npcheck: ordering(Release pairs with the new worker's Acquire loads in in_flight: all pre-migration service by the old worker happens-before the held packets drain)
        self.inner.released[group].fetch_add(1, Ordering::Release);
    }

    /// Whether `group` is mid-handshake: a mark is in flight on the old
    /// ring that has not been acked yet. The new worker holds the
    /// group's packets while this is true; the dispatcher refuses to
    /// begin a second handshake while this is true.
    ///
    /// # Panics
    /// Panics if `group` is out of range.
    pub fn in_flight(&self, group: usize) -> bool {
        // npcheck: ordering(Acquire pairs with release's Release bump: once this observes begun == released, the old worker's service of every pre-migration packet happens-before the caller's next action)
        let released = self.inner.released[group].load(Ordering::Acquire);
        // npcheck: ordering(Acquire pairs with begin's Release bump: observing begun > released implies the mark is already in the old ring)
        let begun = self.inner.begun[group].load(Ordering::Acquire);
        begun > released
    }

    /// Worker step, for a packet of `group` that worker `me` popped:
    /// whether the group is mid-handshake towards `me`, so the packet
    /// must wait for the old owner's ack. Loads the target only while
    /// the group is in flight.
    ///
    /// What makes the target visible is the ring, not these loads: the
    /// dispatcher points the group (and, for a marked handshake, begins
    /// it) before its Release push of the group's first packet to `me`,
    /// and `me` popped that packet with Acquire. So a worker that pops a
    /// redirected packet reads itself as the target, and reads the group
    /// in flight until the old owner's ack.
    ///
    /// # Panics
    /// Panics if `group` is out of range.
    pub fn inbound(&self, group: usize, me: usize) -> bool {
        // npcheck: ordering(Acquire pairs with the dispatcher's Release store of the target: before begin for a marked handshake, before the first push for a crash re-home)
        self.in_flight(group) && self.inner.target[group].load(Ordering::Acquire) == me
    }

    /// Total handshakes begun across all groups (cold-path reporting).
    pub fn total_begun(&self) -> u64 {
        total(&self.inner.begun)
    }

    /// Total handshakes released across all groups (cold-path
    /// reporting); equals [`GroupBoard::total_begun`] once every mark
    /// has been acked.
    pub fn total_released(&self) -> u64 {
        total(&self.inner.released)
    }
}

/// The sum of one counter across all groups.
fn total(counters: &[AtomicU64]) -> u64 {
    // npcheck: ordering(Relaxed is sound: end-of-run reporting after the workers joined, no concurrent writers)
    counters.iter().map(|c| c.load(Ordering::Relaxed)).sum()
}

/// One worker's hold rule: the packets it parked, per group, in pop
/// (FIFO) order, and the rules that park, drain and drop them. `T` is
/// what the worker keeps of a popped packet (npexec: the descriptor and
/// its charged finish).
#[derive(Debug)]
pub struct Holdback<T> {
    board: GroupBoard,
    me: usize,
    /// One entry per group with parked packets.
    held: Vec<(usize, Vec<T>)>,
    depth: usize,
    max_depth: usize,
}

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
impl<T> Holdback<T> {
    /// An empty holdback for worker `me`.
    pub fn new(board: GroupBoard, me: usize) -> Self {
        Holdback {
            board,
            me,
            held: Vec::new(),
            depth: 0,
            max_depth: 0,
        }
    }

    /// A popped packet of `group`: park it if the group already has
    /// parked packets here (FIFO within the group, even once its
    /// handshake released) or is [`GroupBoard::inbound`] to this worker;
    /// otherwise hand it back to be serviced now.
    pub fn park(&mut self, group: usize, item: T) -> Option<T> {
        if let Some((_, q)) = self.held.iter_mut().find(|(g, _)| *g == group) {
            q.push(item);
        } else if self.board.inbound(group, self.me) {
            self.held.push((group, vec![item]));
        } else {
            return Some(item);
        }
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        None
    }

    /// Service every parked group whose handshake has released, each in
    /// FIFO order. Called before each pop, so a parked group's packets go
    /// out before any newly popped packet of the group.
    pub fn drain_released(&mut self, mut service: impl FnMut(T)) {
        while let Some(i) = self.held.iter().position(|h| !self.board.in_flight(h.0)) {
            self.take(i, &mut service);
        }
    }

    /// This worker popped `Mark(group)`: it is the group's old owner, and
    /// every pre-redirect packet of the group popped before the mark. Any
    /// it parked during an earlier inbound handshake of the group go out
    /// first, then [`GroupBoard::release`] acks the mark.
    pub fn ack(&mut self, group: usize, mut service: impl FnMut(T)) {
        if let Some(i) = self.held.iter().position(|&(g, _)| g == group) {
            self.take(i, &mut service);
        }
        self.board.release(group);
    }

    /// The crash step's drops: the parked packets, each group in FIFO
    /// order, then the ring popped to empty. A stranded mark is acked as
    /// usual: every pre-mark packet of its group was serviced or dropped
    /// before it.
    pub fn crash<P: Payload + From<T>>(&mut self, ring: &mut Consumer<P>, mut drop: impl FnMut(P)) {
        for t in self.held.drain(..).flat_map(|(_, q)| q) {
            drop(P::from(t));
        }
        self.depth = 0;
        while let Some(d) = ring.try_pop() {
            match d {
                Desc::Packet(p) => drop(p),
                Desc::Mark(g) => self.board.release(g as usize),
            }
        }
    }

    /// Whether no packet is parked.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }

    /// The deepest the holdback ever got, in packets.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    fn take(&mut self, i: usize, service: &mut impl FnMut(T)) {
        let (_, q) = self.held.swap_remove(i);
        self.depth -= q.len();
        q.into_iter().for_each(service);
    }
}

/// Handshake counts for one run. npexec reads `begun` and `completed`
/// off the board's totals once the workers joined; `aborted` is the
/// dispatcher's own count.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HandshakeStats {
    /// Handshakes begun (mark pushed + board published).
    pub begun: u64,
    /// Handshakes observed complete (mark acked; group live on the new
    /// core).
    pub completed: u64,
    /// Handshakes not begun because the mark would not fit in the old
    /// ring or the group's previous handshake was still in flight (the
    /// group simply stays put — no redirect happened, so no correctness
    /// impact), heal restores of a crashed worker's groups included.
    pub aborted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_board_has_nothing_in_flight() {
        let board = GroupBoard::new(8);
        for g in 0..8 {
            assert!(!board.in_flight(g));
            assert!(!board.inbound(g, 0));
        }
        assert_eq!(board.total_begun(), 0);
        assert_eq!(board.total_released(), 0);
    }

    #[test]
    fn begin_release_round_trip() {
        let board = GroupBoard::new(4);
        board.begin(2);
        assert!(board.in_flight(2));
        assert!(!board.in_flight(1), "other groups stay idle");
        board.release(2);
        assert!(!board.in_flight(2));
        assert_eq!(board.total_begun(), 1);
        assert_eq!(board.total_released(), 1);
    }

    #[test]
    fn repeated_handshakes_stay_balanced() {
        let board = GroupBoard::new(2);
        for _ in 0..5 {
            assert!(!board.in_flight(0), "guard: one handshake at a time");
            board.begin(0);
            assert!(board.in_flight(0));
            board.release(0);
        }
        assert_eq!(board.total_begun(), 5);
        assert_eq!(board.total_released(), 5);
    }

    #[test]
    fn clones_share_state() {
        let board = GroupBoard::new(3);
        let worker_view = board.clone();
        board.begin(1);
        assert!(worker_view.in_flight(1));
        worker_view.release(1);
        assert!(!board.in_flight(1));
    }

    #[test]
    fn inbound_needs_the_target_and_a_handshake_in_flight() {
        let board = GroupBoard::new(2);
        board.point(0, 1);
        assert!(
            !board.inbound(0, 1),
            "pointed but not begun: a crash re-home"
        );
        board.begin(0);
        assert!(board.inbound(0, 1));
        assert!(!board.inbound(0, 2), "only the target holds");
        board.release(0);
        assert!(!board.inbound(0, 1));
    }

    /// A holdback for worker 1 with group 0 mid-handshake towards it.
    fn inbound_to_one() -> (GroupBoard, Holdback<u64>) {
        let board = GroupBoard::new(2);
        board.point(0, 1);
        board.begin(0);
        (board.clone(), Holdback::new(board, 1))
    }

    #[test]
    fn parked_packets_drain_in_fifo_order_once_released() {
        let (board, mut hb) = inbound_to_one();
        for p in [10, 11, 12] {
            assert_eq!(hb.park(0, p), None, "inbound: parked");
        }
        assert_eq!(hb.park(1, 20), Some(20), "an idle group passes");
        let mut out = Vec::new();
        hb.drain_released(|p| out.push(p));
        assert!(out.is_empty(), "nothing drains while in flight");
        board.release(0);
        hb.drain_released(|p| out.push(p));
        assert_eq!(out, [10, 11, 12]);
        assert!(hb.is_empty());
        assert_eq!(hb.max_depth(), 3);
    }

    #[test]
    fn a_packet_joins_parked_packets_even_after_release() {
        let (board, mut hb) = inbound_to_one();
        assert_eq!(hb.park(0, 10), None);
        board.release(0);
        assert_eq!(hb.park(0, 11), None, "queues behind its parked group");
        let mut out = Vec::new();
        hb.drain_released(|p| out.push(p));
        assert_eq!(out, [10, 11]);
        assert_eq!(hb.park(0, 12), Some(12), "drained: serviced directly");
    }

    #[test]
    fn a_mark_services_own_parked_packets_before_release() {
        // Group 0 moved to worker 1 and, before worker 1 drained, on to
        // worker 2: worker 1 pops the second handshake's mark with the
        // first's packets still parked.
        let (board, mut hb) = inbound_to_one();
        assert_eq!(hb.park(0, 10), None);
        assert_eq!(hb.park(0, 11), None);
        board.release(0);
        board.point(0, 2);
        board.begin(0);
        let mut out = Vec::new();
        hb.drain_released(|p| out.push((p, board.in_flight(0))));
        assert!(out.is_empty(), "the second handshake keeps them parked");
        hb.ack(0, |p| out.push((p, board.in_flight(0))));
        assert_eq!(out, [(10, true), (11, true)], "serviced before the ack");
        assert!(!board.in_flight(0));
        assert!(hb.is_empty());
    }

    #[test]
    fn a_crash_drops_parked_then_queued_packets_in_fifo_order() {
        let (board, mut hb) = inbound_to_one();
        let (mut tx, mut rx) = crate::spsc::ring::<u64>(8);
        for p in [10, 11] {
            assert_eq!(hb.park(0, p), None);
        }
        board.begin(1);
        for d in [Desc::Packet(12), Desc::Mark(1), Desc::Packet(13)] {
            tx.try_push(d).expect("room");
        }
        let mut dropped = Vec::new();
        hb.crash(&mut rx, |p| dropped.push(p));
        assert_eq!(dropped, [10, 11, 12, 13]);
        assert!(!board.in_flight(1), "the stranded mark is acked");
        assert!(
            board.in_flight(0),
            "the inbound handshake is the old owner's"
        );
        assert!(hb.is_empty());
        assert!(rx.is_empty());
    }
}
