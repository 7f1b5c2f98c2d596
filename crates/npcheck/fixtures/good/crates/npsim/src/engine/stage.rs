//! Good fixture: the same stage with the work hoisted off the
//! per-packet path.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

pub struct Stage {
    stats: Vec<u64>,
    scratch: Vec<u64>,
}

impl Stage {
    pub fn new(expected_packets: usize) -> Self {
        // Constructors are exempt: setup-time allocation is the fix,
        // not the problem.
        Self {
            stats: Vec::with_capacity(expected_packets),
            scratch: (0..expected_packets).map(|_| 0).collect(),
        }
    }

    pub fn step(&mut self, pkt: u64) {
        // Core-local state, preallocated buffers, no syscalls.
        self.stats.push(pkt);
        if let Some(slot) = self.scratch.first_mut() {
            *slot = pkt;
        }
    }

    pub fn on_fatal(&self, pkt: u64) -> String {
        // npcheck: allow(blocking-hot-path) — error construction on the cold path; the simulation is over
        format!("stage wedged at packet {pkt}")
    }
}
