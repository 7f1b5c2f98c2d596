//! `loom::thread` — model threads scheduled by the explorer.
//!
//! [`spawn`] registers a model thread (a real OS thread gated so only
//! one model thread runs at a time) and is itself a schedule point, so
//! the explorer covers both "child runs first" and "parent continues"
//! orders. [`JoinHandle::join`] blocks the calling model thread until
//! the target retires, letting the scheduler run other threads in the
//! meantime — a deadlocked join is detected and reported.

use crate::sched::{current_ctx, yield_and_defer, yield_point};
use std::sync::{Arc, Mutex};

/// Handle to a spawned model thread.
#[derive(Debug)]
pub struct JoinHandle<T> {
    target: usize,
    result: Arc<Mutex<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Wait for the thread to finish and return its value.
    ///
    /// Mirrors `std::thread::JoinHandle::join`'s signature; if the
    /// target thread panicked the whole model execution is already
    /// being torn down, so the `Err` arm is never observed by tests.
    pub fn join(self) -> std::thread::Result<T> {
        let (exec, _) = current_ctx().expect("loom::thread::join outside a model run");
        exec.block_join(self.target);
        let value = self
            .result
            .lock()
            .expect("loom shim: result slot lock")
            .take();
        match value {
            Some(v) => Ok(v),
            // Retired without a value: the closure unwound. The
            // explorer is aborting; report a generic payload.
            None => Err(Box::new("loom model thread panicked")),
        }
    }
}

/// Spawn a model thread (schedule point).
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (exec, _) = current_ctx().expect("loom::thread::spawn outside a model run");
    let result = Arc::new(Mutex::new(None));
    let slot = Arc::clone(&result);
    let target = exec.spawn_model_thread(move || {
        let v = f();
        *slot.lock().expect("loom shim: result slot lock") = Some(v);
    });
    // The child is runnable: let the scheduler decide who goes next.
    yield_point();
    JoinHandle { target, result }
}

/// Defer the calling thread until each thread that could run, other
/// deferred yielders excepted, has been scheduled.
///
/// This is the loom contract that makes bounded spin loops explorable:
/// a `while try_pop() is None { yield_now() }` loop cannot be scheduled
/// back-to-back with itself, nor trade turns with another spinner,
/// while some other thread can make progress.
pub fn yield_now() {
    yield_and_defer();
}
