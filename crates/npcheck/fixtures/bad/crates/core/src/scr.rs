//! Bad fixture: allocation inside SCR's per-packet `schedule`. The
//! header below is what makes this module hot path — the panicking
//! constructs it also denies are clippy's to catch, not npcheck's.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

pub struct Scr {
    queues: Vec<usize>,
    labels: Vec<String>,
    next: usize,
}

impl Scr {
    pub fn schedule(&mut self, pkt: u64) -> usize {
        let cursor = self.queues.get(self.next).copied().unwrap_or(0);
        // Per-packet allocation on the dispatch path.
        let label = format!("pkt-{pkt}-core-{cursor}");
        self.labels.push(label);
        self.next = (self.next + 1) % self.queues.len().max(1);
        cursor
    }
}
