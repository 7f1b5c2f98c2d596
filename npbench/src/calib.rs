//! The in-run calibration kernel.
//!
//! Host time on a shared VM drifts by tens of percent within seconds,
//! and the drift is contention in the memory system: measured here, a
//! dependent random walk over an 8 MiB table moves with the engine's
//! run time (correlation ≈ 0.7) while an ALU-only loop does not. So
//! every timed repetition is bracketed by one pass of that walk, and the
//! end-to-end host metric is the repetition's time *per packet divided
//! by the walk's time per step* — "calibration steps per packet". The
//! raw nanoseconds are still reported (per-layer, unbounded); the ratio
//! is what repeats well enough to carry a regression bound.
//!
//! The kernel is frozen: it touches no code of the repository, so no
//! change under test can move it.

use std::hint::black_box;

use crate::clock::Stopwatch;

/// Table entries (u32 each → 8 MiB: past L2, contending for LLC/DRAM).
const ENTRIES: usize = 1 << 21;
/// Dependent loads per pass (≈ 6–12 ms on the reference VM).
pub const STEPS: u64 = 100_000;

/// A single-cycle random permutation to walk.
#[derive(Debug)]
pub struct Calibrator {
    next: Vec<u32>,
    cursor: u32,
}

impl Calibrator {
    /// Build the table (fixed seed: the walk is the same in every run).
    pub fn new() -> Self {
        let mut order: Vec<u32> = (0..ENTRIES as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for i in (1..ENTRIES).rev() {
            // xorshift64* — any full-period generator would do.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let j = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        // Link consecutive entries of the shuffled order into one cycle.
        let mut next = vec![0u32; ENTRIES];
        for (i, &from) in order.iter().enumerate() {
            next[from as usize] = order[(i + 1) % ENTRIES];
        }
        Calibrator { next, cursor: 0 }
    }

    /// One pass: `STEPS` dependent loads. Returns nanoseconds per step.
    pub fn pass(&mut self) -> f64 {
        let start = Stopwatch::start();
        let mut i = self.cursor;
        for _ in 0..black_box(STEPS) {
            i = self.next[i as usize];
        }
        self.cursor = black_box(i);
        start.ns() as f64 / STEPS as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_one_cycle() {
        let c = Calibrator::new();
        let mut i = 0u32;
        let mut steps = 0usize;
        loop {
            i = c.next[i as usize];
            steps += 1;
            if i == 0 || steps > ENTRIES {
                break;
            }
        }
        assert_eq!(steps, ENTRIES, "walk visits every entry before closing");
    }
}
