//! Good fixture: the same shapes, each ordering with its argument.

use std::sync::atomic::{AtomicU64, Ordering};

static PACKETS_SEEN: AtomicU64 = AtomicU64::new(0);

pub fn publish(seq: &AtomicU64, v: u64) {
    // npcheck: ordering(Release publishes the table writes sequenced before this store; pairs with the Acquire load in peek)
    seq.store(v, Ordering::Release);
}

pub fn peek(seq: &AtomicU64) -> u64 {
    seq.load(Ordering::Acquire) // npcheck: ordering(pairs with the Release store in publish: observing v orders all pre-publish writes)
}

pub fn count() -> u64 {
    // SeqCst is the conservative default and needs no justification.
    PACKETS_SEEN.load(Ordering::SeqCst)
}
