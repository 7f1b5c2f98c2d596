//! Loom model tests for npexec's crash repair: the dispatcher re-homes
//! a crashed worker's groups only after that worker has paused, and no
//! handshake of its own guards the move.
//!
//! Built only under `RUSTFLAGS="--cfg loom"`. Both models shrink the
//! npexec fault topology to one group and check every schedule the
//! model explorer reaches. The crashed worker runs npexec's worker loop
//! and does its own crash step: its held packets become drops, it pops
//! its ring to empty (a stranded mark is an ordinary ack) and pauses.
//! The dispatcher publishes the crash, waits for the pause, and only
//! then points the group at the replacement.
//!
//! * `replacement_never_overtakes_dead_owner` — a worker dies while
//!   owning a group. The replacement's packet must never be serviced
//!   before the dead worker's last service, and every old-side packet
//!   is serviced or dropped exactly once. No handshake runs (0/0).
//!   Without the dispatcher's wait for the pause this model fails.
//! * `crash_during_hold_drain` — a worker dies while it is the **new**
//!   owner of an in-flight marked handshake (holding, or about to hold,
//!   the redirected packet). The old owner runs on its own thread, so
//!   its mark ack lands anywhere around the crash. The crashed worker
//!   may service that packet only after the ack, else it is a drop; the
//!   replacement reads itself as the handshake's target and holds until
//!   the ack, and the counters balance at 1/1. If the dispatcher
//!   published the replacement as target before the crashed worker
//!   paused, that worker could read it, take the packet as not inbound
//!   and service it ahead of the old owner's: this model fails.

#![cfg(loom)]

use laps::spsc::{Consumer, Desc, Producer};
use laps::GroupBoard;
use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use loom::sync::Arc;

/// Worker ids the migration target names (the old owner is never one).
const DEAD: usize = 1;
const REPL: usize = 2;

/// Push with bounded retries, yielding to the model scheduler.
fn push(p: &mut Producer, d: Desc) {
    let mut d = d;
    let mut spins = 0usize;
    loop {
        match p.try_push(d) {
            Ok(()) => return,
            Err(back) => {
                d = back;
                spins += 1;
                assert!(spins < 10_000, "ring never drained");
                loom::thread::yield_now();
            }
        }
    }
}

/// What every worker thread shares: the board, group 0's migration
/// target, and a service clock whose unique increasing stamps make
/// cross-thread service order observable.
#[derive(Clone)]
struct Shared {
    board: GroupBoard,
    target: Arc<AtomicUsize>,
    clock: Arc<AtomicU64>,
}

impl Shared {
    fn new() -> Self {
        Shared {
            board: GroupBoard::new(1),
            target: Arc::new(AtomicUsize::new(usize::MAX)),
            clock: Arc::new(AtomicU64::new(1)),
        }
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// npexec's hold rule: a packet of a group in flight towards this
    /// worker waits for the handshake.
    fn inbound(&self, me: usize) -> bool {
        self.board.in_flight(0) && self.target.load(Ordering::SeqCst) == me
    }
}

/// The crashed worker: npexec's loop for group 0. Each iteration reads
/// the crash command first, drains its holds once the group is idle,
/// then pops. The crash step drops the holds, pops the ring to empty (a
/// stranded mark is an ordinary ack), and pauses. Returns `(packet, stamp)` of every service and the drops.
fn crashed_worker(
    sh: Shared,
    mut ring: Consumer,
    crash: Arc<AtomicBool>,
    paused: Arc<AtomicBool>,
) -> (Vec<(u64, u64)>, Vec<u64>) {
    let mut serviced = Vec::new();
    let mut held = Vec::new();
    let mut spins = 0usize;
    loop {
        if crash.load(Ordering::SeqCst) {
            let mut dropped = held;
            while let Some(d) = ring.try_pop() {
                match d {
                    Desc::Packet(p) => dropped.push(p),
                    Desc::Mark(g) => sh.board.release(g as usize),
                }
            }
            paused.store(true, Ordering::SeqCst);
            return (serviced, dropped);
        }
        if !held.is_empty() && !sh.board.in_flight(0) {
            for p in held.drain(..) {
                serviced.push((p, sh.stamp()));
            }
        }
        match ring.try_pop() {
            Some(Desc::Packet(p)) if !held.is_empty() || sh.inbound(DEAD) => held.push(p),
            Some(Desc::Packet(p)) => serviced.push((p, sh.stamp())),
            Some(Desc::Mark(g)) => panic!("no mark reaches the crashed worker: {g}"),
            None => {
                spins += 1;
                assert!(spins < 10_000, "crash command never arrived");
                loom::thread::yield_now();
            }
        }
    }
}

/// The replacement owner: pops the one redirected packet, holds it
/// while the group is in flight towards it, then services it.
fn replacement(sh: Shared, mut ring: Consumer) -> (u64, u64) {
    let p = loop {
        match ring.try_pop() {
            Some(Desc::Packet(p)) => break p,
            Some(d) => panic!("expected the redirected packet, got {d:?}"),
            None => loom::thread::yield_now(),
        }
    };
    let mut spins = 0usize;
    if sh.inbound(REPL) {
        while sh.board.in_flight(0) {
            spins += 1;
            assert!(spins < 10_000, "inherited handshake never released");
            loom::thread::yield_now();
        }
    }
    (p, sh.stamp())
}

/// The old owner of a marked handshake: services its pre-mark packet,
/// then acks the mark — npexec's worker on the Mark arm. Returns the
/// service stamp.
fn old_owner(sh: Shared, mut ring: Consumer) -> u64 {
    assert_eq!(ring.try_pop(), Some(Desc::Packet(21)));
    let stamp = sh.stamp();
    assert_eq!(ring.try_pop(), Some(Desc::Mark(0)));
    sh.board.release(0);
    stamp
}

/// Dispatcher side of a crash: publish the crash, wait for the crashed
/// worker's pause, then publish the replacement as target and redirect.
fn crash_and_redirect(
    sh: &Shared,
    crash: &AtomicBool,
    paused: &AtomicBool,
    to: &mut Producer,
    pkt: u64,
) {
    crash.store(true, Ordering::SeqCst);
    while !paused.load(Ordering::SeqCst) {
        loom::thread::yield_now();
    }
    sh.target.store(REPL, Ordering::SeqCst);
    push(to, Desc::Packet(pkt));
}

#[test]
fn replacement_never_overtakes_dead_owner() {
    loom::model(|| {
        let (mut dead_p, dead_c) = laps::spsc::ring(4);
        let (mut new_p, new_c) = laps::spsc::ring(4);
        let sh = Shared::new();
        let crash = Arc::new(AtomicBool::new(false));
        let paused = Arc::new(AtomicBool::new(false));

        // One old-side packet, then the crash of its owner. Each thread
        // starts once its ring holds its first descriptor, which keeps
        // empty polls out of the search.
        push(&mut dead_p, Desc::Packet(11));
        let (s, c, p) = (sh.clone(), crash.clone(), paused.clone());
        let dying = loom::thread::spawn(move || crashed_worker(s, dead_c, c, p));
        crash_and_redirect(&sh, &crash, &paused, &mut new_p, 12);
        let s = sh.clone();
        let repl = loom::thread::spawn(move || replacement(s, new_c));

        let (serviced, dropped) = dying.join().expect("crashed worker");
        let (held, repl_stamp) = repl.join().expect("replacement owner");
        assert_eq!(held, 12, "the redirect reached the replacement");
        assert_eq!(
            serviced.len() + dropped.len(),
            1,
            "old-side packet accounted exactly once"
        );
        if let Some(&(_, old_stamp)) = serviced.first() {
            assert!(
                old_stamp < repl_stamp,
                "replacement serviced at {repl_stamp} before the crashed \
                 worker's last service at {old_stamp}"
            );
        }
        assert!(!sh.board.in_flight(0));
        assert_eq!(sh.board.total_begun(), 0, "a crash begins no handshake");
        assert_eq!(sh.board.total_released(), 0);
    });
}

#[test]
fn crash_during_hold_drain() {
    // Four threads outgrow the execution budget at the default bound;
    // two preemptions keep the search exhaustive and still reach every
    // placement of the old owner's mark ack.
    let mut builder = loom::model::Builder::new();
    builder.preemption_bound = Some(2);
    builder.check(|| {
        // Group 0 is migrating OLD → DEAD (a marked handshake) when DEAD
        // crashes. The crash re-homes the group to REPL, which inherits
        // the handshake.
        let (mut old_p, old_c) = laps::spsc::ring(4);
        let (mut dead_p, dead_c) = laps::spsc::ring(4);
        let (mut new_p, new_c) = laps::spsc::ring(4);
        let sh = Shared::new();
        let crash = Arc::new(AtomicBool::new(false));
        let paused = Arc::new(AtomicBool::new(false));

        // The old owner runs from the start, so its mark ack can land
        // before the begin, before the crash, or before or after the
        // crashed worker's pause.
        push(&mut old_p, Desc::Packet(21));
        push(&mut old_p, Desc::Mark(0));
        let s = sh.clone();
        let old_owner = loom::thread::spawn(move || old_owner(s, old_c));
        // The handshake: mark → target → begin → redirect to DEAD.
        sh.target.store(DEAD, Ordering::SeqCst);
        sh.board.begin(0);
        push(&mut dead_p, Desc::Packet(22));
        // The crash, while DEAD is running.
        let (s, c, p) = (sh.clone(), crash.clone(), paused.clone());
        let dying = loom::thread::spawn(move || crashed_worker(s, dead_c, c, p));
        crash_and_redirect(&sh, &crash, &paused, &mut new_p, 23);
        let s = sh.clone();
        let repl = loom::thread::spawn(move || replacement(s, new_c));

        let old_stamp = old_owner.join().expect("old owner");
        let (serviced, dropped) = dying.join().expect("crashed worker");
        let (held, repl_stamp) = repl.join().expect("replacement owner");
        assert_eq!(held, 23);
        assert!(old_stamp > 0, "the pre-mark packet was serviced");
        assert!(
            old_stamp < repl_stamp,
            "replacement serviced at {repl_stamp} before the old owner's \
             pre-mark packet at {old_stamp}"
        );
        // The redirected packet is serviced only once the old owner
        // acked (from the crashed worker's holds, or on pop after the
        // ack), or it is a crash drop.
        assert_eq!(
            serviced.len() + dropped.len(),
            1,
            "the redirected packet accounted exactly once"
        );
        for &(p, stamp) in &serviced {
            assert!(
                old_stamp < stamp && stamp < repl_stamp,
                "the crashed worker serviced {p} at {stamp}, outside the \
                 old owner's {old_stamp} and the replacement's {repl_stamp}"
            );
        }
        assert!(!sh.board.in_flight(0), "the inherited handshake cleared");
        assert_eq!(sh.board.total_begun(), 1);
        assert_eq!(sh.board.total_released(), 1);
    });
}
