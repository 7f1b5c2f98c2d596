//! Loom model tests for the `laps::spsc` ring.
//!
//! Built only under `RUSTFLAGS="--cfg loom"`; the harness explores
//! every schedule of the two endpoints at atomic-op granularity (see
//! the `loom` shim crate docs for the model's scope). The tests keep
//! thread bodies tiny and deterministic so the search is exhaustive.
//!
//! What "linearizes" means here, checked across **all** interleavings:
//! * every pushed descriptor is popped exactly once (no loss, no
//!   duplication), in push order (SPSC FIFO);
//! * a full ring rejects instead of overwriting, and a freed slot is
//!   observed by the producer only after the consumer released it;
//! * a migration mark partitions the stream: the consumer sees it
//!   after every descriptor pushed before it and before every one
//!   pushed after it — the property the kns-style handshake's
//!   "drained the old core" conclusion rests on;
//! * a consumer that exits on "producer done and ring empty" — npexec's
//!   worker exit rule — pops every descriptor pushed before `done`;
//! * a multi-word payload is read whole: every word of a slot is stored
//!   before the tail's Release, so no schedule pops a torn descriptor.

#![cfg(loom)]

use laps::spsc::{ring, Desc, Payload};
use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::Arc;

/// Pop until `n` descriptors have been observed, yielding while empty.
/// Bounded: panics (failing the model) if the ring starves forever.
fn pop_n(c: &mut laps::spsc::Consumer, n: usize) -> Vec<Desc> {
    let mut out = Vec::with_capacity(n);
    let mut spins = 0usize;
    while out.len() < n {
        match c.try_pop() {
            Some(d) => out.push(d),
            None => {
                spins += 1;
                assert!(spins < 10_000, "consumer starved: got {out:?}, want {n}");
                loom::thread::yield_now();
            }
        }
    }
    out
}

#[test]
fn push_pop_is_fifo_under_all_schedules() {
    loom::model(|| {
        let (mut p, mut c) = ring(2);
        let producer = loom::thread::spawn(move || {
            for i in 0..3u64 {
                let mut d = Desc::Packet(i);
                loop {
                    match p.try_push(d) {
                        Ok(()) => break,
                        Err(back) => {
                            d = back;
                            loom::thread::yield_now();
                        }
                    }
                }
            }
        });
        let got = pop_n(&mut c, 3);
        producer.join().expect("producer thread");
        assert_eq!(
            got,
            vec![Desc::Packet(0), Desc::Packet(1), Desc::Packet(2)],
            "FIFO order must hold on every schedule"
        );
        assert_eq!(c.try_pop(), None, "no duplicated descriptors");
    });
}

#[test]
fn full_ring_rejects_never_overwrites() {
    loom::model(|| {
        let (mut p, mut c) = ring(2);
        let producer = loom::thread::spawn(move || {
            // Try to push 4 into a 2-slot ring without retries; count
            // what was accepted and hand the tally back.
            let mut accepted = 0u64;
            for i in 0..4u64 {
                if p.try_push(Desc::Packet(i)).is_ok() {
                    accepted += 1;
                }
            }
            accepted
        });
        // Consumer drains whatever shows up until the producer is done.
        let mut got: Vec<Desc> = Vec::new();
        let accepted = loop {
            if let Some(d) = c.try_pop() {
                got.push(d);
            } else {
                loom::thread::yield_now();
            }
            // Non-blocking check: the producer runs a bounded loop, so
            // join once the model scheduler has let it finish.
            if got.len() >= 2 {
                break producer.join().expect("producer thread");
            }
        };
        while let Some(d) = c.try_pop() {
            got.push(d);
        }
        // Exactly the accepted descriptors arrive, in push order, no
        // overwrite: rejected pushes leave no trace.
        assert_eq!(got.len() as u64, accepted, "accepted == delivered");
        let ids: Vec<u64> = got
            .iter()
            .map(|d| match d {
                Desc::Packet(i) => *i,
                Desc::Mark(_) => panic!("no marks pushed"),
            })
            .collect();
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "delivered descriptors stay in push order: {ids:?}"
        );
        assert!(accepted >= 2, "a 2-slot ring accepts at least 2 of 4");
    });
}

#[test]
fn migration_mark_partitions_the_stream() {
    loom::model(|| {
        let (mut p, mut c) = ring(4);
        let producer = loom::thread::spawn(move || {
            // Pre-migration epoch for group 9, then the handshake mark,
            // then a packet redirected on *another* ring (modeled here
            // as a post-mark packet to check the mark's position only).
            for d in [
                Desc::Packet(1),
                Desc::Packet(2),
                Desc::Mark(9),
                Desc::Packet(3),
            ] {
                let mut d = d;
                loop {
                    match p.try_push(d) {
                        Ok(()) => break,
                        Err(back) => {
                            d = back;
                            loom::thread::yield_now();
                        }
                    }
                }
            }
        });
        let got = pop_n(&mut c, 4);
        producer.join().expect("producer thread");
        let mark_at = got
            .iter()
            .position(|d| *d == Desc::Mark(9))
            .expect("mark must arrive");
        assert_eq!(mark_at, 2, "mark arrives after the pre-migration epoch");
        assert_eq!(
            got,
            vec![
                Desc::Packet(1),
                Desc::Packet(2),
                Desc::Mark(9),
                Desc::Packet(3)
            ],
            "every schedule delivers the epochs in order"
        );
    });
}

#[test]
fn exit_on_done_and_empty_pops_every_push() {
    loom::model(|| {
        let (mut p, mut c) = ring(4);
        let done = Arc::new(AtomicBool::new(false));
        let p_done = done.clone();
        let producer = loom::thread::spawn(move || {
            for i in 0..2u64 {
                p.try_push(Desc::Packet(i)).expect("room for both");
            }
            // npcheck: ordering(Release publishes both pushes, as the dispatcher's done store does)
            p_done.store(true, Ordering::Release);
        });
        // The worker's loop: pop; on an empty pop, exit only if the
        // producer is done and the ring is empty.
        let mut got = Vec::new();
        let mut spins = 0usize;
        loop {
            match c.try_pop() {
                Some(d) => got.push(d),
                None => {
                    // npcheck: ordering(Acquire pairs with the producer's Release store of done, as the worker's load does)
                    if done.load(Ordering::Acquire) && c.is_empty() {
                        break;
                    }
                    spins += 1;
                    assert!(spins < 10_000, "producer never finished");
                    loom::thread::yield_now();
                }
            }
        }
        producer.join().expect("producer thread");
        assert_eq!(
            got,
            vec![Desc::Packet(0), Desc::Packet(1)],
            "the exit rule stranded a descriptor pushed before done"
        );
    });
}

/// A three-word descriptor whose words all derive from one value, so a
/// pop that mixes words of two pushes (or of a push and the initial
/// zeros) is detectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Wide(u64);

impl Payload for Wide {
    type Words = [u64; 3];
    fn encode(self) -> [u64; 3] {
        [self.0, self.0 + 100, self.0 + 200]
    }
    fn decode(words: [u64; 3]) -> Self {
        let [a, b, c] = words;
        assert_eq!([b, c], [a + 100, a + 200], "torn descriptor {words:?}");
        Wide(a)
    }
}

#[test]
fn multi_word_descriptors_are_never_torn() {
    loom::model(|| {
        let (mut p, mut c) = ring::<Wide>(2);
        let producer = loom::thread::spawn(move || {
            // Three pushes into two slots: the third reuses a slot the
            // consumer freed, so stale words of the first are in play.
            for i in 1..=3u64 {
                let mut d = Desc::Packet(Wide(i));
                loop {
                    match p.try_push(d) {
                        Ok(()) => break,
                        Err(back) => {
                            d = back;
                            loom::thread::yield_now();
                        }
                    }
                }
            }
        });
        let mut got = Vec::new();
        let mut spins = 0usize;
        while got.len() < 3 {
            match c.try_pop() {
                Some(d) => got.push(d),
                None => {
                    spins += 1;
                    assert!(spins < 10_000, "consumer starved: got {got:?}");
                    loom::thread::yield_now();
                }
            }
        }
        producer.join().expect("producer thread");
        assert_eq!(
            got,
            vec![
                Desc::Packet(Wide(1)),
                Desc::Packet(Wide(2)),
                Desc::Packet(Wide(3))
            ]
        );
    });
}
