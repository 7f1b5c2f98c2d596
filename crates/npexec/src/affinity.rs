//! Best-effort CPU pinning for worker threads.
//!
//! The thread-per-core runtime wants each worker on its own hardware
//! core so the wall-clock Mpps row measures the handshake and ring
//! machinery, not scheduler-induced cache bouncing. Pinning is strictly
//! best-effort: failure (non-Linux host, containers with restricted
//! affinity masks, more workers than CPUs) degrades to the OS
//! scheduler's placement and is reported back to the caller, never
//! fatal.
//!
//! The syscall is declared by hand instead of pulling in `libc` — the
//! workspace builds offline against in-tree shims only, and one
//! three-argument prototype does not justify a dependency.

/// Width of the affinity mask we pass, in `u64` words (1024 CPUs).
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    /// `sched_setaffinity(2)`; `pid == 0` targets the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread to `cpu`. Returns whether the kernel accepted
/// the mask; `false` is a soft failure the caller may record but must
/// tolerate.
#[cfg(target_os = "linux")]
#[allow(unsafe_code, reason = "the one foreign call; see SAFETY below")]
pub(crate) fn pin_to_cpu(cpu: usize) -> bool {
    let word = cpu / 64;
    if word >= MASK_WORDS {
        return false;
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[word] = 1u64 << (cpu % 64);
    // SAFETY: the mask outlives the call, its length is passed in
    // bytes, and pid 0 refers to the calling thread; the syscall reads
    // the buffer and touches nothing else.
    unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) == 0 }
}

/// Non-Linux stub: pinning is unavailable, always a soft failure.
#[cfg(not(target_os = "linux"))]
pub(crate) fn pin_to_cpu(_cpu: usize) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_best_effort() {
        // Whatever the host allows, the call must not panic or error
        // out of the test; both outcomes are legal.
        let _ = pin_to_cpu(0);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn out_of_range_cpu_is_rejected_softly() {
        assert!(!pin_to_cpu(MASK_WORDS * 64 + 1));
    }
}
