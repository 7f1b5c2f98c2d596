//! Good fixture: the same SCR dispatch decision, allocation-free on
//! the per-packet path.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

pub struct Scr {
    queues: Vec<usize>,
    next: usize,
}

impl Scr {
    pub fn new(n_cores: usize) -> Self {
        // Constructors are exempt: preallocation is the fix.
        Self {
            queues: Vec::with_capacity(n_cores),
            next: 0,
        }
    }

    pub fn schedule(&mut self) -> usize {
        // Handle the empty view instead of unwrapping it.
        let Some(&shortest) = self.queues.first() else {
            return 0;
        };
        let cursor = self.queues.get(self.next).copied().unwrap_or(0);
        self.next = (self.next + 1) % self.queues.len().max(1);
        cursor + shortest
    }
}
