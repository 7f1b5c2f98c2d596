//! The schedule explorer: one gate, many reruns.
//!
//! Every model thread is a real OS thread parked on a condvar; the
//! scheduler admits exactly one at a time. A *schedule point* (atomic
//! access, spawn, join, yield) re-enters [`Exec::switch`], which picks
//! the next thread to admit from the runnable set. The pick is the DFS
//! choice: each execution records `(chosen index, candidate count)`
//! pairs, and [`next_prefix`] backtracks to the deepest pair with an
//! untried alternative.
#![allow(clippy::disallowed_types, reason = "CTX is a thread-local RefCell")]

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Upper bound on executions explored per [`model`] call. Small
/// two-thread tests exhaust their true state space well below this; the
/// bound exists so an accidentally huge test degrades into a deep
/// deterministic sample instead of hanging CI.
pub const MAX_EXECUTIONS: usize = 20_000;

/// Upper bound on schedule points in a single execution; exceeding it
/// is reported as a livelock (a spin loop whose exit condition no other
/// thread can ever satisfy).
pub const MAX_STEPS: usize = 5_000;

/// Preemption bound (CHESS-style): the maximum number of *involuntary*
/// context switches per execution. Voluntary switches — `yield_now`,
/// blocking in `join`, thread exit — are always free, so every
/// execution runs to completion; the bound only limits where the
/// scheduler may additionally preempt a running thread. Unbounded DFS
/// over two threads of N schedule points is ~2^N schedules; bounding
/// preemptions to `k` cuts that to ~N^k, which the execution budget
/// exhausts — and empirically almost all interleaving bugs require
/// only a handful of preemptions (Musuvathi & Qadeer, PLDI '07).
pub const PREEMPTION_BOUND: usize = 3;

/// Panic payload used to unwind threads of an aborted execution; never
/// reported as a test failure itself.
struct AbortSignal;

#[derive(Default)]
struct State {
    /// Next thread id to hand out (0 is the root closure).
    next_tid: usize,
    /// Threads alive and eligible for scheduling, sorted.
    runnable: Vec<usize>,
    /// Threads that called `yield_now`, each with the threads that were
    /// runnable and not deferred at its yield: it is not rescheduled
    /// while another thread can run, until each of those has been
    /// picked (or left the runnable set). Another deferred thread's
    /// turn does not count, so two spinners cannot keep passing the
    /// turn between themselves while a third thread waits.
    yielded: Vec<(usize, Vec<usize>)>,
    /// Threads whose closure has returned.
    finished: Vec<usize>,
    /// `(waiter, target)` pairs blocked in `join`.
    waiting_join: Vec<(usize, usize)>,
    /// The single admitted thread (`usize::MAX` = none).
    current: usize,
    /// Registered threads not yet finished.
    live: usize,
    /// Execution is being torn down (deadlock, livelock, or a panic in
    /// a model thread).
    abort: bool,
    /// First real panic message observed, surfaced by [`model`].
    panic_msg: Option<String>,
    /// Replay prefix from the previous execution's backtrack.
    prefix: Vec<usize>,
    /// `(chosen, candidates)` recorded at each schedule point.
    choices: Vec<(usize, usize)>,
    /// Schedule points taken so far.
    step: usize,
    /// Involuntary switches taken so far (see [`PREEMPTION_BOUND`]).
    preemptions: usize,
    /// Most involuntary switches one execution may take.
    preemption_bound: usize,
}

impl State {
    /// Whether `tid` yielded and still waits for other threads' turns.
    fn deferred(&self, tid: usize) -> bool {
        self.yielded.iter().any(|(t, _)| *t == tid)
    }
}

pub(crate) struct Exec {
    mx: Mutex<State>,
    cv: Condvar,
    os_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

thread_local! {
    static CTX: RefCell<Option<(Arc<Exec>, usize)>> = const { RefCell::new(None) };
}

pub(crate) fn current_ctx() -> Option<(Arc<Exec>, usize)> {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(exec: Arc<Exec>, tid: usize) {
    CTX.with(|c| *c.borrow_mut() = Some((exec, tid)));
}

/// Schedule point for the calling thread. Outside a [`model`] run this
/// is a no-op, so code exercised by plain `#[test]`s (std threads, no
/// explorer) still works against the shim types.
pub(crate) fn yield_point() {
    if let Some((exec, tid)) = current_ctx() {
        exec.switch(tid, false);
    }
}

/// `thread::yield_now` semantics: a schedule point that also keeps the
/// caller from being re-picked, while another thread can run, until
/// each thread it deferred to has run.
pub(crate) fn yield_and_defer() {
    if let Some((exec, tid)) = current_ctx() {
        exec.switch(tid, true);
    }
}

impl Exec {
    fn new(prefix: Vec<usize>, preemption_bound: usize) -> Self {
        Exec {
            mx: Mutex::new(State {
                next_tid: 1,
                runnable: vec![0],
                current: 0,
                live: 1,
                prefix,
                preemption_bound,
                ..State::default()
            }),
            cv: Condvar::new(),
            os_handles: Mutex::new(Vec::new()),
        }
    }

    /// Pick the next thread to admit. Called with the state locked at
    /// every schedule point, thread exit, and block.
    fn pick_next(st: &mut State) {
        let mut cands: Vec<usize> = st.runnable.clone();
        if cands.is_empty() {
            if st.live > 0 && !st.abort {
                st.abort = true;
                st.panic_msg.get_or_insert_with(|| {
                    format!(
                        "deadlock: {} live thread(s), none runnable (blocked joins: {:?})",
                        st.live, st.waiting_join
                    )
                });
            }
            st.current = usize::MAX;
            return;
        }
        // Honor yield_now: drop deferred threads from the candidate set
        // while anyone else can run.
        let eager: Vec<usize> = cands.iter().copied().filter(|&t| !st.deferred(t)).collect();
        if !eager.is_empty() {
            cands = eager;
        }
        // Continuing the admitted thread is free; switching away from a
        // still-eligible one is a preemption. Order candidates with the
        // continuation first so DFS's default path is preemption-free,
        // and stop offering preemptions once the bound is spent.
        if let Some(pos) = cands.iter().position(|t| *t == st.current) {
            if st.preemptions >= st.preemption_bound {
                cands = vec![st.current];
            } else {
                cands.swap(0, pos);
                cands[1..].sort_unstable();
            }
        }
        let idx = if st.step < st.prefix.len() {
            // Replayed prefix; the model body must be deterministic, so
            // the candidate count matches — clamp defensively anyway.
            st.prefix[st.step].min(cands.len() - 1)
        } else {
            0
        };
        st.choices.push((idx, cands.len()));
        st.step += 1;
        if st.step > MAX_STEPS && !st.abort {
            st.abort = true;
            st.panic_msg
                .get_or_insert_with(|| format!("livelock: more than {MAX_STEPS} schedule points"));
        }
        let chosen = cands[idx];
        if chosen != st.current && cands.contains(&st.current) {
            st.preemptions += 1;
        }
        st.current = chosen;
        // The chosen thread has had its turn: each deferral stops
        // waiting for it (and for threads no longer runnable), and ends
        // once it waits for nobody.
        let runnable = &st.runnable;
        for (_, waits) in &mut st.yielded {
            waits.retain(|&t| t != chosen && runnable.contains(&t));
        }
        st.yielded.retain(|(_, waits)| !waits.is_empty());
    }

    /// Schedule point: record a choice, admit the picked thread, park
    /// until re-admitted.
    fn switch(&self, tid: usize, defer_self: bool) {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            std::panic::panic_any(AbortSignal);
        }
        debug_assert_eq!(st.current, tid, "switch from a non-admitted thread");
        if defer_self {
            let waits: Vec<usize> = st
                .runnable
                .iter()
                .copied()
                .filter(|&t| t != tid && !st.deferred(t))
                .collect();
            if !waits.is_empty() {
                st.yielded.push((tid, waits));
            }
        }
        Self::pick_next(&mut st);
        self.cv.notify_all();
        st = self.wait_admitted(st, tid);
        drop(st);
    }

    /// Park until this thread is the admitted one (or the execution
    /// aborts, in which case unwind).
    fn wait_admitted<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        tid: usize,
    ) -> MutexGuard<'a, State> {
        loop {
            if st.abort {
                drop(st);
                std::panic::panic_any(AbortSignal);
            }
            if st.current == tid {
                return st;
            }
            st = self.cv.wait(st).expect("loom shim: scheduler lock");
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.mx.lock().expect("loom shim: scheduler lock")
    }

    /// First park of a fresh thread: wait to be admitted without
    /// recording a choice (the spawn point already did).
    fn wait_first(&self, tid: usize) {
        let st = self.lock();
        let st = self.wait_admitted(st, tid);
        drop(st);
    }

    /// Register a new model thread; returns its id.
    fn register(&self) -> usize {
        let mut st = self.lock();
        let tid = st.next_tid;
        st.next_tid += 1;
        st.live += 1;
        st.runnable.push(tid);
        st.runnable.sort_unstable();
        tid
    }

    /// A model thread's closure returned (or unwound): retire it, wake
    /// its joiners, and admit someone else.
    fn finish(&self, tid: usize) {
        let mut st = self.lock();
        st.runnable.retain(|t| *t != tid);
        st.yielded.retain(|(t, _)| *t != tid);
        st.finished.push(tid);
        st.live -= 1;
        let woken: Vec<usize> = st
            .waiting_join
            .iter()
            .filter(|(_, target)| *target == tid)
            .map(|(waiter, _)| *waiter)
            .collect();
        st.waiting_join.retain(|(_, target)| *target != tid);
        st.runnable.extend(woken);
        st.runnable.sort_unstable();
        if st.current == tid || st.current == usize::MAX {
            Self::pick_next(&mut st);
        }
        self.cv.notify_all();
    }

    /// Block the caller until `target` finishes (join semantics).
    fn block_on_join(&self, tid: usize, target: usize) {
        let mut st = self.lock();
        if st.abort {
            drop(st);
            std::panic::panic_any(AbortSignal);
        }
        if !st.finished.contains(&target) {
            st.runnable.retain(|t| *t != tid);
            st.waiting_join.push((tid, target));
            Self::pick_next(&mut st);
            self.cv.notify_all();
            st = self.wait_admitted(st, tid);
        }
        drop(st);
    }

    /// A model thread panicked with a real (non-abort) payload: record
    /// the first message and tear the execution down.
    fn record_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        if payload.downcast_ref::<AbortSignal>().is_some() {
            return;
        }
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "model thread panicked (non-string payload)".to_string());
        let mut st = self.lock();
        st.abort = true;
        st.panic_msg.get_or_insert(msg);
        self.cv.notify_all();
    }

    pub(crate) fn spawn_model_thread<F>(self: &Arc<Self>, f: F) -> usize
    where
        F: FnOnce() + Send + 'static,
    {
        let tid = self.register();
        let exec = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name(format!("loom-model-{tid}"))
            .spawn(move || {
                set_ctx(Arc::clone(&exec), tid);
                // An execution that aborts before the first admission
                // unwinds out of the wait: retire the thread all the same.
                let body = AssertUnwindSafe(|| {
                    exec.wait_first(tid);
                    f();
                });
                if let Err(payload) = catch_unwind(body) {
                    exec.record_panic(payload);
                }
                exec.finish(tid);
            })
            .expect("loom shim: spawn model thread");
        self.os_handles
            .lock()
            .expect("loom shim: handle list lock")
            .push(handle);
        tid
    }

    pub(crate) fn block_join(&self, target: usize) {
        let (_, me) = current_ctx().expect("loom shim: join outside a model thread");
        self.block_on_join(me, target);
    }
}

/// Backtrack: flip the deepest choice with an untried alternative.
fn next_prefix(choices: &[(usize, usize)]) -> Option<Vec<usize>> {
    for i in (0..choices.len()).rev() {
        let (chosen, cands) = choices[i];
        if chosen + 1 < cands {
            let mut prefix: Vec<usize> = choices[..i].iter().map(|(c, _)| *c).collect();
            prefix.push(chosen + 1);
            return Some(prefix);
        }
    }
    None
}

/// Explore the closure under every (bounded) thread interleaving, with
/// the default [`Builder`].
///
/// Panics — failing the enclosing test — if any execution's assertion
/// fails, deadlocks, or livelocks; the panic message includes the
/// schedule so the failing interleaving can be reasoned about.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    Builder::new().check(f);
}

/// Explorer settings, after loom's `model::Builder`: a model whose
/// schedule space outgrows [`MAX_EXECUTIONS`] at the default
/// [`PREEMPTION_BOUND`] lowers the bound to stay exhaustive.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Builder {
    /// Most involuntary switches per execution; `None` is unbounded.
    pub preemption_bound: Option<usize>,
}

impl Default for Builder {
    fn default() -> Self {
        Builder {
            preemption_bound: Some(PREEMPTION_BOUND),
        }
    }
}

impl Builder {
    /// The default settings, as [`model`] uses them.
    pub fn new() -> Self {
        Self::default()
    }

    /// Explore `f` under these settings; see [`model`].
    pub fn check<F>(&self, f: F)
    where
        F: Fn() + Send + Sync + 'static,
    {
        explore(f, self.preemption_bound.unwrap_or(usize::MAX));
    }
}

fn explore<F>(f: F, preemption_bound: usize)
where
    F: Fn() + Send + Sync + 'static,
{
    let f = Arc::new(f);
    let mut prefix: Vec<usize> = Vec::new();
    let mut executions = 0usize;
    loop {
        executions += 1;
        let exec = Arc::new(Exec::new(std::mem::take(&mut prefix), preemption_bound));
        {
            let root_exec = Arc::clone(&exec);
            let f = Arc::clone(&f);
            let root = std::thread::Builder::new()
                .name("loom-model-0".to_string())
                .spawn(move || {
                    set_ctx(Arc::clone(&root_exec), 0);
                    root_exec.wait_first(0);
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(move || f())) {
                        root_exec.record_panic(payload);
                    }
                    root_exec.finish(0);
                })
                .expect("loom shim: spawn root model thread");
            exec.os_handles
                .lock()
                .expect("loom shim: handle list lock")
                .push(root);
        }
        // Wait for every model thread of this execution to retire, then
        // reap the OS threads.
        {
            let mut st = exec.lock();
            while st.live > 0 {
                st = exec.cv.wait(st).expect("loom shim: scheduler lock");
            }
        }
        for handle in exec
            .os_handles
            .lock()
            .expect("loom shim: handle list lock")
            .drain(..)
        {
            let _ = handle.join();
        }
        let st = exec.lock();
        if let Some(msg) = &st.panic_msg {
            let schedule: Vec<usize> = st.choices.iter().map(|(c, _)| *c).collect();
            panic!("loom: execution {executions} failed: {msg}\n  schedule: {schedule:?}");
        }
        let choices = st.choices.clone();
        drop(st);
        match next_prefix(&choices) {
            None => break,
            Some(_) if executions >= MAX_EXECUTIONS => {
                eprintln!(
                    "loom (shim): execution budget {MAX_EXECUTIONS} reached before \
                     exhausting the schedule space; coverage is a deep deterministic sample"
                );
                break;
            }
            Some(p) => prefix = p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_thread_model_runs_once() {
        let runs = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&runs);
        model(move || {
            r.fetch_add(1, Ordering::SeqCst);
        });
        // No schedule points with alternatives => exactly one execution.
        assert_eq!(runs.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn backtrack_flips_deepest_choice() {
        assert_eq!(next_prefix(&[(0, 2), (1, 2)]), Some(vec![1]));
        assert_eq!(next_prefix(&[(0, 2), (0, 3)]), Some(vec![0, 1]));
        assert_eq!(next_prefix(&[(1, 2), (2, 3)]), None);
        assert_eq!(next_prefix(&[]), None);
    }

    #[test]
    fn two_thread_interleavings_are_explored() {
        // Two threads each bump a shared counter through a schedule
        // point; every execution must still see both increments.
        let execs = Arc::new(AtomicUsize::new(0));
        let e = Arc::clone(&execs);
        model(move || {
            e.fetch_add(1, Ordering::SeqCst);
            let n = Arc::new(crate::sync::atomic::AtomicUsize::new(0));
            let n2 = Arc::clone(&n);
            let t = crate::thread::spawn(move || {
                n2.fetch_add(1, crate::sync::atomic::Ordering::SeqCst);
            });
            n.fetch_add(1, crate::sync::atomic::Ordering::SeqCst);
            t.join().expect("model thread");
            assert_eq!(n.load(crate::sync::atomic::Ordering::SeqCst), 2);
        });
        // Spawn + two atomic ops across two threads: more than one
        // interleaving must have been explored.
        assert!(execs.load(Ordering::SeqCst) > 1, "{execs:?}");
    }

    #[test]
    fn preemption_bound_limits_the_search() {
        // Two threads of three schedule points each: with no preemption
        // allowed only spawn-time and completion switches remain.
        let count = |bound: Option<usize>| {
            let execs = Arc::new(AtomicUsize::new(0));
            let e = Arc::clone(&execs);
            let mut builder = Builder::new();
            builder.preemption_bound = bound;
            builder.check(move || {
                e.fetch_add(1, Ordering::SeqCst);
                let n = Arc::new(crate::sync::atomic::AtomicUsize::new(0));
                let n2 = Arc::clone(&n);
                let t = crate::thread::spawn(move || {
                    for _ in 0..3 {
                        n2.fetch_add(1, crate::sync::atomic::Ordering::SeqCst);
                    }
                });
                for _ in 0..3 {
                    n.fetch_add(1, crate::sync::atomic::Ordering::SeqCst);
                }
                t.join().expect("model thread");
            });
            execs.load(Ordering::SeqCst)
        };
        let (none, default) = (count(Some(0)), count(None));
        assert!(none < count(Some(PREEMPTION_BOUND)), "{none}");
        assert!(count(Some(PREEMPTION_BOUND)) <= default, "{default}");
    }

    #[test]
    fn explorer_finds_a_lost_update() {
        // Classic data race: two threads do a non-atomic read-modify-
        // write through separate load/store ops. Some interleaving
        // (load, load, store, store) loses one increment — the explorer
        // must find it and fail the model.
        use crate::sync::atomic::{AtomicUsize as ModelUsize, Ordering as O};
        let result = std::panic::catch_unwind(|| {
            model(|| {
                let n = Arc::new(ModelUsize::new(0));
                let n2 = Arc::clone(&n);
                let t = crate::thread::spawn(move || {
                    let v = n2.load(O::SeqCst);
                    n2.store(v + 1, O::SeqCst);
                });
                let v = n.load(O::SeqCst);
                n.store(v + 1, O::SeqCst);
                t.join().expect("model thread");
                assert_eq!(n.load(O::SeqCst), 2, "increment lost");
            });
        });
        assert!(
            result.is_err(),
            "the explorer must reach the lost-update interleaving"
        );
    }

    #[test]
    fn two_spinners_let_the_setter_run() {
        // Two threads spin-yield on a flag that a third thread sets.
        // A yielder that another spinner's turn released could be
        // picked back before the setter ever ran: a livelock.
        for bound in [0, 2] {
            let execs = Arc::new(AtomicUsize::new(0));
            let e = Arc::clone(&execs);
            let mut builder = Builder::new();
            builder.preemption_bound = Some(bound);
            builder.check(move || {
                e.fetch_add(1, Ordering::SeqCst);
                use crate::sync::atomic::{AtomicBool, Ordering as O};
                let flag = Arc::new(AtomicBool::new(false));
                let spin = |flag: Arc<AtomicBool>| {
                    move || {
                        while !flag.load(O::SeqCst) {
                            crate::thread::yield_now();
                        }
                    }
                };
                let a = crate::thread::spawn(spin(Arc::clone(&flag)));
                let b = crate::thread::spawn(spin(Arc::clone(&flag)));
                let f = Arc::clone(&flag);
                let c = crate::thread::spawn(move || f.store(true, O::SeqCst));
                for t in [a, b, c] {
                    t.join().expect("model thread");
                }
            });
            assert!(execs.load(Ordering::SeqCst) >= 1, "bound {bound}");
        }
    }

    #[test]
    fn a_failure_before_a_child_first_runs_is_reported() {
        // The child is never admitted: the root fails first. Its thread
        // must still retire, or the explorer waits for it forever.
        let result = std::panic::catch_unwind(|| {
            model(|| {
                let _child = crate::thread::spawn(|| {});
                panic!("deliberate failure");
            });
        });
        let err = result.expect_err("model must propagate the failure");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("deliberate failure"), "{msg}");
    }

    #[test]
    fn model_failure_reports_schedule() {
        let result = std::panic::catch_unwind(|| {
            model(|| {
                let x = crate::sync::atomic::AtomicUsize::new(0);
                let v = x.load(crate::sync::atomic::Ordering::SeqCst);
                assert_eq!(v, 1, "deliberate failure");
            });
        });
        let err = result.expect_err("model must propagate the assertion");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("schedule"), "{msg}");
    }
}
