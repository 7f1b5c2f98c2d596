//! Cache-warming helper for the miss-heavy hot-path tables.
//!
//! At production trace scale the per-flow arrays are large — the flow
//! table, order tracker, and namespace slot tables together span ~1 MB
//! for a 40k-flow caida preset — so nearly every per-packet access
//! misses L2.
//! The batched engine knows which flows it will touch a little ahead of
//! time and wants to start those fills early.
//!
//! npsim is `#![forbid(unsafe_code)]`, so there is no `_mm_prefetch`
//! here. Instead a *dead load* through `std::hint::black_box` touches
//! the line: an out-of-order core treats a load whose value nothing
//! consumes exactly like a software prefetch — the cache fill starts
//! immediately and no later instruction waits on it — which is all the
//! engine needs to overlap the miss with the burst's other work.

/// Touch the cache line holding `r` without using its value.
#[inline(always)]
pub(crate) fn prefetch_read<T: Copy>(r: &T) {
    let _ = std::hint::black_box(*r);
}
