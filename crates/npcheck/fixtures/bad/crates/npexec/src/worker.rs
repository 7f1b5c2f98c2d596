//! Bad fixture: a thread-per-core worker whose pop loop blocks.
//!
//! Everything here is what `blocking-hot-path` exists to catch on the
//! npexec side: a descriptor pop loop that takes a lock, sleeps, logs,
//! and allocates per packet — each one stalls the core and backs the
//! SPSC ring up into the dispatcher.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::sync::Mutex;
use std::time::Duration;

pub struct Worker {
    ring: Vec<u64>,
    ledger: Mutex<Vec<u64>>,
    labels: Vec<String>,
}

impl Worker {
    pub fn drain(&mut self) {
        for _ in 0..self.ring.len() {
            let Some(raw) = self.ring.pop() else {
                return;
            };
            // Lock shared state once per descriptor.
            let mut g = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
            g.push(raw);
            drop(g);
            // Block the core instead of spinning on the ring.
            std::thread::sleep(Duration::from_micros(5));
            // Per-descriptor allocation churn.
            let tag = format!("desc-{raw}");
            self.labels.push(tag);
            // Console I/O under the stdio lock, per packet.
            println!("worker serviced {raw}");
        }
    }
}
