//! Bad fixture: blocking and allocating work on the per-packet path
//! that the `blocking-hot-path` rule must catch.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::sync::Mutex;
use std::time::Duration;

pub struct Stage {
    stats: Mutex<Vec<u64>>,
    names: Vec<String>,
}

impl Stage {
    pub fn step(&mut self, pkt: u64) {
        // Lock acquisition per packet.
        let mut g = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        g.push(pkt);
        // Blocking the core.
        std::thread::sleep(Duration::from_micros(1));
        // Per-packet allocations.
        let label = format!("pkt-{pkt}");
        self.names.push(label);
        let boxed = Box::new(pkt);
        drop(boxed);
        // Console I/O under the stdio lock.
        println!("handled {pkt}");
    }

    pub fn drain(&self) -> Vec<u64> {
        self.names.iter().map(|s| s.len() as u64).collect()
    }
}
