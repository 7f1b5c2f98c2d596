//! Loom model tests for the flow-group migration handshake
//! (`laps::GroupBoard` + `laps::Holdback` + two `laps::spsc` rings).
//!
//! Built only under `RUSTFLAGS="--cfg loom"`. The model is the npexec
//! topology shrunk to its essence: a dispatcher (the root closure), the
//! **old** owner of group 0, and the **new** owner, each on its own
//! ring. The dispatcher pushes the pre-migration epoch into the old
//! ring, then runs the protocol — mark → point → begin → redirect
//! (route to the new ring). Each worker drives its own `Holdback`, the
//! hold rule npexec's workers run: the new owner parks its packet while
//! the group is inbound to it and services it only once the old owner's
//! `Holdback::ack` released the group.
//!
//! Checked across all explored schedules:
//! * the new owner services the redirected packet strictly **after**
//!   the old owner serviced every pre-migration packet (a shared
//!   `fetch_add` clock witnesses the order);
//! * the handshake terminates (no schedule leaves `in_flight` latched);
//! * the board's counters balance at the end.
//!
//! `ping_pong_one_group` moves the group twice, A → X and, once A's ack
//! cleared the first handshake, X → Y while X may still hold A's
//! redirected packet: X must service that packet before its own ack
//! lets Y service the group. A `Holdback::ack` that released before it
//! serviced its parked packets fails this model.

#![cfg(loom)]

use laps::spsc::{Consumer, Desc, Producer};
use laps::{GroupBoard, Holdback};
use loom::sync::atomic::{AtomicU64, Ordering};
use loom::sync::Arc;

/// Worker ids the board's target names.
const OLD: usize = 0;
const NEW: usize = 1;
const NEXT: usize = 2;

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

/// Pop one descriptor, yielding while the ring is empty.
fn pop(c: &mut Consumer) -> Desc {
    let mut spins = 0usize;
    loop {
        match c.try_pop() {
            Some(d) => return d,
            None => {
                spins += 1;
                assert!(spins < 10_000, "consumer starved");
                loom::thread::yield_now();
            }
        }
    }
}

#[test]
fn new_owner_never_overtakes_old_owner() {
    loom::model(|| {
        let (mut old_p, mut old_c) = laps::spsc::ring(4);
        let (mut new_p, mut new_c) = laps::spsc::ring(4);
        let board = GroupBoard::new(1);
        // Shared service clock: each service takes a unique, increasing
        // stamp, so cross-thread service order is observable.
        let clock = Arc::new(AtomicU64::new(1));

        // Old owner: service both pre-migration packets (ring order),
        // then ack the mark.
        let old_board = board.clone();
        let old_clock = clock.clone();
        let old = loom::thread::spawn(move || {
            let mut holds = Holdback::new(old_board, OLD);
            let mut stamps = Vec::with_capacity(2);
            for _ in 0..2 {
                match pop(&mut old_c) {
                    Desc::Packet(p) => {
                        assert_eq!(holds.park(0, p), Some(p), "not inbound to the old owner");
                        stamps.push(old_clock.fetch_add(1, Ordering::SeqCst));
                    }
                    Desc::Mark(g) => panic!("mark overtook a pre-migration packet: {g}"),
                }
            }
            match pop(&mut old_c) {
                Desc::Mark(0) => holds.ack(0, |p| panic!("the old owner parked {p}")),
                d => panic!("expected the group-0 mark, got {d:?}"),
            }
            stamps
        });

        // New owner: pop the redirected packet, park it while the
        // handshake is in flight towards it, service it once drained.
        let new_board = board.clone();
        let new_clock = clock.clone();
        let neww = loom::thread::spawn(move || {
            let p = match pop(&mut new_c) {
                Desc::Packet(p) => p,
                d => panic!("expected the redirected packet, got {d:?}"),
            };
            let mut holds = Holdback::new(new_board, NEW);
            let mut serviced = holds.park(0, p);
            let mut spins = 0usize;
            loop {
                holds.drain_released(|q| serviced = Some(q));
                if let Some(q) = serviced {
                    return (q, new_clock.fetch_add(1, Ordering::SeqCst));
                }
                spins += 1;
                assert!(spins < 10_000, "handshake never released");
                loom::thread::yield_now();
            }
        });

        // Dispatcher: pre-migration epoch, then the protocol.
        push(&mut old_p, Desc::Packet(11));
        push(&mut old_p, Desc::Packet(12));
        push(&mut old_p, Desc::Mark(0)); // 1. mark the old ring
        board.point(0, NEW); //             2. name the new owner
        board.begin(0); //                  3. publish the handshake
        push(&mut new_p, Desc::Packet(13)); // 4. redirect the group

        let old_stamps = old.join().expect("old owner");
        let (held, new_stamp) = neww.join().expect("new owner");
        assert_eq!(held, 13, "the redirected packet reaches the new owner");
        assert_eq!(old_stamps.len(), 2);
        assert!(
            old_stamps.iter().all(|&s| s < new_stamp),
            "new owner serviced at {new_stamp} before old finished {old_stamps:?}"
        );
        assert!(
            !board.in_flight(0),
            "handshake must be complete when both workers are done"
        );
        assert_eq!(board.total_begun(), 1);
        assert_eq!(board.total_released(), 1);
    });
}

#[test]
fn direct_service_is_allowed_once_released() {
    // A packet of a group with no in-flight handshake must be
    // serviceable immediately — in_flight(g) is false before begin and
    // false again after release, on every schedule.
    loom::model(|| {
        let board = GroupBoard::new(2);
        let b = board.clone();
        let t = loom::thread::spawn(move || {
            b.begin(1);
            b.release(1);
        });
        // Group 0 is never part of any handshake: never in flight.
        assert!(!board.in_flight(0));
        t.join().expect("handshake thread");
        assert!(!board.in_flight(1), "released handshake must clear");
        assert!(!board.in_flight(0));
    });
}

/// The middle owner of a ping-pong: npexec's worker loop for group 0.
/// Each iteration drains its released holds, then pops; it parks or
/// services a packet, and on its own mark acks and stops. Returns
/// `(packet, stamp)` of every service.
fn middle_owner(board: GroupBoard, clock: Arc<AtomicU64>, mut ring: Consumer) -> Vec<(u64, u64)> {
    let mut holds = Holdback::new(board, NEW);
    let mut serviced = Vec::new();
    let mut spins = 0usize;
    loop {
        holds.drain_released(|p| serviced.push((p, clock.fetch_add(1, Ordering::SeqCst))));
        match ring.try_pop() {
            Some(Desc::Packet(p)) => {
                let now = holds.park(0, p);
                serviced.extend(now.map(|p| (p, clock.fetch_add(1, Ordering::SeqCst))));
            }
            Some(Desc::Mark(0)) => {
                holds.ack(0, |p| {
                    serviced.push((p, clock.fetch_add(1, Ordering::SeqCst)))
                });
                return serviced;
            }
            Some(d) => panic!("expected group 0, got {d:?}"),
            None => {
                spins += 1;
                assert!(spins < 10_000, "the second mark never arrived");
                loom::thread::yield_now();
            }
        }
    }
}

/// A new owner: pops its one redirected packet, parks it while the
/// group is inbound to it, services it once released.
fn last_owner(board: GroupBoard, clock: Arc<AtomicU64>, mut ring: Consumer) -> (u64, u64) {
    let p = match pop(&mut ring) {
        Desc::Packet(p) => p,
        d => panic!("expected the redirected packet, got {d:?}"),
    };
    let mut holds = Holdback::new(board, NEXT);
    let mut serviced = holds.park(0, p);
    let mut spins = 0usize;
    loop {
        holds.drain_released(|q| serviced = Some(q));
        if let Some(q) = serviced {
            return (q, clock.fetch_add(1, Ordering::SeqCst));
        }
        spins += 1;
        assert!(spins < 10_000, "second handshake never released");
        loom::thread::yield_now();
    }
}

#[test]
fn ping_pong_one_group() {
    // Four threads outgrow the execution budget at the default bound;
    // two preemptions keep the search exhaustive.
    let mut builder = loom::model::Builder::new();
    builder.preemption_bound = Some(2);
    builder.check(|| {
        let (mut a_p, mut a_c) = laps::spsc::ring(4);
        let (mut x_p, x_c) = laps::spsc::ring(4);
        let (mut y_p, y_c) = laps::spsc::ring(4);
        let board = GroupBoard::new(1);
        let clock = Arc::new(AtomicU64::new(1));

        // First move, A → X: A's pre-migration packet, then the protocol.
        push(&mut a_p, Desc::Packet(11));
        push(&mut a_p, Desc::Mark(0));
        let (b, c) = (board.clone(), clock.clone());
        let a = loom::thread::spawn(move || {
            let mut holds = Holdback::new(b, OLD);
            assert_eq!(pop(&mut a_c), Desc::Packet(11));
            assert_eq!(holds.park(0, 11), Some(11), "not inbound to the old owner");
            let stamp = c.fetch_add(1, Ordering::SeqCst);
            assert_eq!(pop(&mut a_c), Desc::Mark(0));
            holds.ack(0, |p| panic!("the old owner parked {p}"));
            stamp
        });
        board.point(0, NEW);
        board.begin(0);
        push(&mut x_p, Desc::Packet(12));
        let (b, c) = (board.clone(), clock.clone());
        let x = loom::thread::spawn(move || middle_owner(b, c, x_c));

        // Second move, X → Y, only once A's ack cleared the first: a
        // dispatcher begins no handshake on a group in flight. A's ack is
        // its last step, so joining A is that wait, without a second spin
        // loop beside X's in which the explorer could starve A.
        let a_stamp = a.join().expect("first owner");
        assert!(!board.in_flight(0), "A's ack cleared the first handshake");
        push(&mut x_p, Desc::Mark(0));
        board.point(0, NEXT);
        board.begin(0);
        push(&mut y_p, Desc::Packet(13));
        let (b, c) = (board.clone(), clock.clone());
        let y = loom::thread::spawn(move || last_owner(b, c, y_c));

        let x_serviced = x.join().expect("middle owner");
        let (held, y_stamp) = y.join().expect("last owner");
        assert_eq!(held, 13);
        let &[(12, x_stamp)] = x_serviced.as_slice() else {
            panic!("the middle owner serviced {x_serviced:?}, not just 12");
        };
        assert!(
            a_stamp < x_stamp && x_stamp < y_stamp,
            "services out of order: A at {a_stamp}, X at {x_stamp}, Y at {y_stamp}"
        );
        assert!(!board.in_flight(0));
        assert_eq!(board.total_begun(), 2);
        assert_eq!(board.total_released(), 2);
    });
}
