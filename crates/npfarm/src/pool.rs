//! A small thread pool for sweep cells.
//!
//! Every job is known before the workers start (sweeps never spawn new
//! cells mid-run), so the pool is one shared cursor over the job list:
//! each worker claims the next unclaimed index until none is left, so an
//! idle worker always takes the next job in input order.
//!
//! Results are written into their input slot, so output order equals
//! input order no matter which worker ran what — scheduling decides
//! only wall-clock, never results (the property the byte-identity
//! tests pin down).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `jobs` across `workers` OS threads, preserving input order.
///
/// `f` receives `(index, job)`. With `workers == 1` this degrades to a
/// plain serial loop on one spawned thread — the reference execution
/// the determinism property test compares against.
pub fn map_indexed<T, R, F>(jobs: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let jobs: Vec<Mutex<Option<T>>> = jobs.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.clamp(1, n) {
            s.spawn(|| loop {
                // npcheck: ordering(Relaxed RMW: the cursor only hands out distinct indices; each job and result crosses threads through its own mutex)
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let t = job
                    .lock()
                    .expect("job lock")
                    .take()
                    .expect("each job is claimed once");
                let r = f(i, t);
                *slots[i].lock().expect("result slot lock") = Some(r);
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot lock")
                .expect("every job completed")
        })
        .collect()
}

/// Default worker count: the machine's parallelism, with a floor of 1.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_across_worker_counts() {
        let expect: Vec<i64> = (0..97).map(|x| x * x).collect();
        for workers in [1, 2, 3, 8, 97, 200] {
            let out = map_indexed((0..97).collect(), workers, |_, x: i64| x * x);
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn index_matches_job() {
        let out = map_indexed((0..50).collect(), 4, |i, x: usize| (i, x));
        for (i, &(ri, rx)) in out.iter().enumerate() {
            assert_eq!((ri, rx), (i, i));
        }
    }

    #[test]
    fn empty_input() {
        let out: Vec<u8> = map_indexed(Vec::<u8>::new(), 8, |_, x| x);
        assert!(out.is_empty());
    }
}
