//! Loom model tests for npexec's crash repair: the dispatcher re-homes
//! a crashed worker's groups only after that worker has paused, and no
//! handshake of its own guards the move.
//!
//! Built only under `RUSTFLAGS="--cfg loom"`. Both models shrink the
//! npexec fault topology to one group and check every schedule the
//! model explorer reaches. Every worker drives its own `laps::Holdback`,
//! the hold rule npexec's workers run. The crashed worker runs npexec's
//! worker loop and does its own crash step (`Holdback::crash`): its
//! parked packets become drops, it pops its ring to empty (a stranded
//! mark is an ordinary ack) and pauses. The dispatcher publishes the
//! crash, waits for the pause, and only then points the group at the
//! replacement (`GroupBoard::point`).
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
//!   pointed the group at the replacement before the crashed worker
//!   paused, that worker could read it, take the packet as not inbound
//!   and service it ahead of the old owner's: this model fails.

#![cfg(loom)]

use laps::spsc::{Consumer, Desc, Producer};
use laps::{GroupBoard, Holdback};
use loom::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use loom::sync::Arc;

/// Worker ids the board's target names.
const OLD: usize = 0;
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

/// What every worker thread shares: the board and a service clock
/// whose unique increasing stamps make cross-thread service order
/// observable.
#[derive(Clone)]
struct Shared {
    board: GroupBoard,
    clock: Arc<AtomicU64>,
}

impl Shared {
    fn new() -> Self {
        Shared {
            board: GroupBoard::new(1),
            clock: Arc::new(AtomicU64::new(1)),
        }
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::SeqCst)
    }
}

/// The crashed worker: npexec's loop for group 0. Each iteration reads
/// the crash command first, drains its released holds, then pops. The
/// crash step drops the holds, pops the ring to empty (a stranded mark
/// is an ordinary ack), and pauses. Returns `(packet, stamp)` of every
/// service and the drops.
fn crashed_worker(
    sh: Shared,
    mut ring: Consumer,
    crash: Arc<AtomicBool>,
    paused: Arc<AtomicBool>,
) -> (Vec<(u64, u64)>, Vec<u64>) {
    let mut holds = Holdback::new(sh.board.clone(), DEAD);
    let mut serviced = Vec::new();
    let mut spins = 0usize;
    loop {
        if crash.load(Ordering::SeqCst) {
            let mut dropped = Vec::new();
            holds.crash(&mut ring, |p| dropped.push(p));
            paused.store(true, Ordering::SeqCst);
            return (serviced, dropped);
        }
        holds.drain_released(|p| serviced.push((p, sh.stamp())));
        match ring.try_pop() {
            Some(Desc::Packet(p)) => serviced.extend(holds.park(0, p).map(|p| (p, sh.stamp()))),
            Some(Desc::Mark(g)) => panic!("no mark reaches the crashed worker: {g}"),
            None => {
                spins += 1;
                assert!(spins < 10_000, "crash command never arrived");
                loom::thread::yield_now();
            }
        }
    }
}

/// The replacement owner: pops the one redirected packet, parks it
/// while the group is in flight towards it, then services it.
fn replacement(sh: Shared, mut ring: Consumer) -> (u64, u64) {
    let p = loop {
        match ring.try_pop() {
            Some(Desc::Packet(p)) => break p,
            Some(d) => panic!("expected the redirected packet, got {d:?}"),
            None => loom::thread::yield_now(),
        }
    };
    let mut holds = Holdback::new(sh.board.clone(), REPL);
    let mut serviced = holds.park(0, p);
    let mut spins = 0usize;
    loop {
        holds.drain_released(|q| serviced = Some(q));
        if let Some(q) = serviced {
            return (q, sh.stamp());
        }
        spins += 1;
        assert!(spins < 10_000, "inherited handshake never released");
        loom::thread::yield_now();
    }
}

/// The old owner of a marked handshake: services its pre-mark packet,
/// then acks the mark — npexec's worker on the Mark arm. Returns the
/// service stamp.
fn old_owner(sh: Shared, mut ring: Consumer) -> u64 {
    let mut holds = Holdback::new(sh.board.clone(), OLD);
    assert_eq!(ring.try_pop(), Some(Desc::Packet(21)));
    assert_eq!(holds.park(0, 21), Some(21), "not inbound to the old owner");
    let stamp = sh.stamp();
    assert_eq!(ring.try_pop(), Some(Desc::Mark(0)));
    holds.ack(0, |p| panic!("the old owner parked {p}"));
    stamp
}

/// Dispatcher side of a crash: publish the crash, wait for the crashed
/// worker's pause, then point the group at the replacement and redirect.
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
    sh.board.point(0, REPL);
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
        // The handshake: mark → point → begin → redirect to DEAD.
        sh.board.point(0, DEAD);
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
