//! Bad fixture: the shape the `shared-state-audit` rule must catch in
//! a thread-shared crate.

use std::sync::atomic::{AtomicU64, Ordering};

pub fn publish(seq: &AtomicU64, v: u64) {
    // Explicit weak ordering with no written happens-before argument.
    seq.store(v, Ordering::Release);
}

pub fn peek(seq: &AtomicU64) -> u64 {
    seq.load(Ordering::Relaxed)
}
