//! Flow-group migration handshake — the mark → redirect →
//! first-packet-ack protocol from the kns flow-group design, built on
//! top of the [`spsc`](crate::spsc) ring for the `npexec`
//! thread-per-core runtime.
//!
//! The protocol moves a flow group from an *old* worker to a *new*
//! worker without ever reordering the group's packets:
//!
//! 1. **mark** — the dispatcher pushes [`Desc::Mark`](crate::spsc::Desc)
//!    `(group)` into the old worker's ring, then calls
//!    [`GroupBoard::begin`] to publish that the group is mid-handshake;
//! 2. **redirect** — from that instant the dispatcher routes the
//!    group's packets to the new worker's ring
//!    ([`MapTable::redirect_bucket`](nphash::MapTable::redirect_bucket)
//!    bumps the table epoch); the new worker sees
//!    [`GroupBoard::in_flight`] and *holds* the group's packets instead
//!    of servicing them;
//! 3. **first-packet ack** — when the old worker pops the mark it has,
//!    by SPSC FIFO order, already serviced every pre-migration packet
//!    of the group; it calls [`GroupBoard::release`], and the new
//!    worker's next [`GroupBoard::in_flight`] check goes false — the
//!    held packets drain, in arrival order, and the group is live on
//!    the new core.
//!
//! Why this cannot reorder: the old worker services packets
//! synchronously as it pops them, so popping the mark *proves* every
//! pre-migration packet of the group has finished service. The
//! `release` counter bump is a Release store; the new worker reads it
//! with Acquire before servicing held packets, so all pre-migration
//! service happens-before all post-migration service of the same
//! group. Within each side, SPSC FIFO order preserves arrival order.
//! The chain is exactly the reordering hazard the Flow Director study
//! (arXiv 1106.0443) documents for naive concurrent redirects — closed
//! here by the mark ack.
//!
//! The board is a pair of per-group monotone counters (`begun`,
//! `released`); a group is mid-handshake while `begun > released`. The
//! dispatcher never begins a second handshake for a group until the
//! first completes ([`GroupBoard::in_flight`] is the guard), so the
//! counters never differ by more than one. A crash begins none: the
//! crashed worker drains its ring (acking any stranded mark as usual)
//! and pauses, and the dispatcher re-homes its groups only after that
//! pause.
//!
//! Verified by `tests/loom_handshake.rs` and
//! `tests/loom_crash_repair.rs` under `--cfg loom`: a dispatcher and
//! two workers exchange a group over two rings (plus, in the
//! crash-repair models, a worker that crashes, drains its own ring and
//! pauses) and the model checker checks per-flow service order is
//! monotone in every interleaving it explores.

#[cfg(not(loom))]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(not(loom))]
use std::sync::Arc;

#[cfg(loom)]
use loom::sync::atomic::{AtomicU64, Ordering};
#[cfg(loom)]
use loom::sync::Arc;

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
}

impl GroupBoard {
    /// A board for `groups` flow groups, all idle.
    pub fn new(groups: usize) -> Self {
        let begun: Box<[AtomicU64]> = (0..groups).map(|_| AtomicU64::new(0)).collect();
        let released: Box<[AtomicU64]> = (0..groups).map(|_| AtomicU64::new(0)).collect();
        GroupBoard {
            inner: Arc::new(Inner { begun, released }),
        }
    }

    /// Number of flow groups tracked.
    pub fn groups(&self) -> usize {
        self.inner.begun.len()
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
    /// per popped [`Desc::Mark`](crate::spsc::Desc); by SPSC FIFO order
    /// every pre-migration packet of the group was serviced before the
    /// mark was popped, so this bump is the proof the new worker waits
    /// for.
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

    /// Total handshakes begun across all groups (cold-path reporting).
    pub fn total_begun(&self) -> u64 {
        self.inner
            .begun
            .iter()
            // npcheck: ordering(Relaxed is sound: end-of-run reporting after the workers joined, no concurrent writers)
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Total handshakes released across all groups (cold-path
    /// reporting); equals [`GroupBoard::total_begun`] once every mark
    /// has been acked.
    pub fn total_released(&self) -> u64 {
        self.inner
            .released
            .iter()
            // npcheck: ordering(Relaxed is sound: end-of-run reporting after the workers joined, no concurrent writers)
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

/// Dispatcher-local handshake bookkeeping: plain counters, no atomics —
/// only the dispatcher thread writes them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HandshakeStats {
    /// Handshakes begun (mark pushed + board published).
    pub begun: u64,
    /// Handshakes observed complete (mark acked; group live on the new
    /// core).
    pub completed: u64,
    /// Migrations abandoned because the mark would not fit in the old
    /// ring (the group simply stays put — no redirect happened, so no
    /// correctness impact).
    pub aborted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_board_has_nothing_in_flight() {
        let board = GroupBoard::new(8);
        assert_eq!(board.groups(), 8);
        for g in 0..8 {
            assert!(!board.in_flight(g));
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
}
