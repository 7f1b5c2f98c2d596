//! Good fixture: the non-blocking counterpart of the bad npexec
//! worker. The pop loop spins (then yields) instead of sleeping, the
//! ledger is thread-local instead of locked, and every buffer is sized
//! in the constructor so the loop itself never allocates.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::sync::atomic::{AtomicBool, Ordering};

pub struct Worker<'a> {
    ring: Vec<u64>,
    ledger: Vec<u64>,
    done: &'a AtomicBool,
}

impl<'a> Worker<'a> {
    pub fn with_capacity(cap: usize, done: &'a AtomicBool) -> Self {
        Self {
            ring: Vec::with_capacity(cap),
            ledger: Vec::with_capacity(cap),
            done,
        }
    }

    pub fn drain(&mut self) {
        let mut idle = 0u32;
        loop {
            match self.ring.pop() {
                Some(raw) => {
                    idle = 0;
                    self.ledger.push(raw);
                }
                None => {
                    // npcheck: ordering(Acquire pairs with the dispatcher's Release store after its final push)
                    if self.done.load(Ordering::Acquire) {
                        return;
                    }
                    idle += 1;
                    if idle >= 64 {
                        std::thread::yield_now();
                        idle = 0;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }
}
