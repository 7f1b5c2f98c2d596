//! The supervision layer: per-worker control slots, the supervisor
//! thread, and the crash/heal/stall recovery protocol.
//!
//! Fault execution splits between two threads. The **dispatcher** fires
//! `FaultPlan` actions at their plan positions (it owns the map table,
//! so crash repair and heal restore are its moves); the **supervisor**
//! owns everything that must happen *concurrently with* dispatch: it
//! drains crashed workers' rings as accounted drops, force-releases
//! crash-repair handshakes, respawns healed workers on the same thread
//! scope, and runs the heartbeat watchdog that detects (and recovers)
//! stalled workers.
//!
//! All pacing is **epoch-based**: workers bump a heartbeat counter per
//! loop iteration, the supervisor counts its own sweep epochs, and the
//! watchdog fires on *stagnation across sweeps* — never on wall-clock
//! durations, so a detsim cross-validation of the same fault plan
//! remains meaningful (`clippy.toml` disallows `Instant::now`; the one
//! justified read is in `lib.rs`, for throughput reporting).
//!
//! ## The crash protocol
//!
//! 1. The dispatcher (at the crash's plan position) begins a **no-mark
//!    repair handshake** per bucket the dead worker owns
//!    (`migrating_to` store → [`GroupBoard::begin`]), retires the core
//!    via `MapTable::retire_core` (round-robin re-home onto live
//!    workers, minimum migration), deposits the begun groups in the
//!    worker's [`WorkerSlot::force_list`], and sets [`CMD_CRASH`].
//! 2. The worker observes [`CMD_CRASH`] at the top of its loop,
//!    accounts its held packets as crash drops, deposits its ring
//!    consumer in [`WorkerSlot::consumer_box`], and exits. (A worker
//!    that instead exits normally — the crash raced the end of the run
//!    — *also* deposits its consumer, so the handoff always happens.)
//! 3. The supervisor takes the consumer, drains the dead ring —
//!    packets become accounted drops, a stranded [`Desc::Mark`] is the
//!    ack of a pre-crash handshake whose old owner just died with every
//!    pre-mark packet accounted, so it is released normally — and only
//!    then force-releases each repair handshake
//!    ([`GroupBoard::force_release`]). Order is the safety argument:
//!    force-release happens after the deposit (the worker has provably
//!    stopped servicing) and after the drain (every old-side packet is
//!    accounted), so the new owner's held packets cannot overtake
//!    anything. See DESIGN.md, "Fault tolerance on real threads".
//!
//! ## The heal protocol
//!
//! The dispatcher sets [`WorkerSlot::respawn`]; the supervisor builds a
//! fresh ring, respawns the worker on the shared thread scope, clears
//! the command word, and deposits the new producer in
//! [`WorkerSlot::producer_box`] for the dispatcher to install. A
//! respawn is deferred while the worker's crash drain is still pending,
//! so a crash–heal pair at adjacent plan positions cannot leak an
//! undrained ring. The dispatcher then migrates the retired buckets
//! home with ordinary marked handshakes and `MapTable::restore_core`.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{Scope, ScopedJoinHandle};

use laps::spsc::{Consumer, Desc, Producer};
use laps::GroupBoard;
use nptraffic::DelayModel;

use crate::plan::ExecPkt;
use crate::worker::{self, WorkerCtx, WorkerOutcome, MIGRATED_BIT};

/// Command bit: the worker must crash — account holds as drops, hand
/// over the ring, exit.
pub(crate) const CMD_CRASH: u64 = 1 << 0;
/// Command bit: the worker must stall — stop draining *and* stop
/// bumping its heartbeat, until the watchdog clears the bit.
pub(crate) const CMD_STALL: u64 = 1 << 1;
/// Bit offset of the fixed-point throttle factor in the command word.
pub(crate) const THROTTLE_SHIFT: u32 = 32;
/// Fixed-point one: a throttle field of 256 (or 0, the unset default)
/// charges service time at face value.
pub(crate) const THROTTLE_ONE: u64 = 256;

/// Supervisor sweeps a heartbeat must stagnate for before the watchdog
/// declares the worker stalled and recovers it.
const STAGNANT_SWEEPS: u32 = 8;
/// Supervisor sweeps to wait for a crashed worker's consumer deposit
/// before counting a handoff timeout (detection only — safety always
/// waits for the deposit).
const HANDOFF_TIMEOUT_SWEEPS: u32 = 10_000;

/// One worker's control slot: the command word the dispatcher and
/// watchdog write, the heartbeat the worker bumps, and the handoff
/// boxes the crash/heal protocols move ring endpoints through.
#[derive(Debug)]
pub(crate) struct WorkerSlot {
    /// Command word: [`CMD_CRASH`] | [`CMD_STALL`] | throttle factor.
    pub cmd: AtomicU64,
    /// Bumped by the worker once per loop iteration (not while stalled
    /// or crashed — stagnation is the watchdog's signal).
    pub heartbeat: AtomicU64,
    /// Set by the worker after it deposited its consumer and exited.
    pub exited: AtomicBool,
    /// Set by the dispatcher to request a heal respawn.
    pub respawn: AtomicBool,
    /// The exiting worker's ring consumer (crash handoff).
    pub consumer_box: Mutex<Option<Consumer>>,
    /// The respawned worker's ring producer (heal handoff).
    pub producer_box: Mutex<Option<Producer>>,
    /// Groups whose no-mark repair handshake the supervisor must
    /// force-release once the dead ring is drained.
    pub force_list: Mutex<Vec<u64>>,
}

impl WorkerSlot {
    fn new() -> Self {
        WorkerSlot {
            cmd: AtomicU64::new(0),
            heartbeat: AtomicU64::new(0),
            exited: AtomicBool::new(false),
            respawn: AtomicBool::new(false),
            consumer_box: Mutex::new(None),
            producer_box: Mutex::new(None),
            force_list: Mutex::new(Vec::new()),
        }
    }
}

/// The shared control plane: one slot per worker plus the shutdown
/// flag. Allocated by the backend only when the configuration has a
/// fault plan — fault-free runs carry no control plane and pay nothing.
#[derive(Debug)]
pub(crate) struct ControlPlane {
    /// Per-worker control slots.
    pub slots: Vec<WorkerSlot>,
    /// Set by the backend after every original worker joined; the
    /// supervisor runs one final sweep and exits.
    pub shutdown: AtomicBool,
}

impl ControlPlane {
    pub(crate) fn new(workers: usize) -> Self {
        ControlPlane {
            slots: (0..workers).map(|_| WorkerSlot::new()).collect(),
            shutdown: AtomicBool::new(false),
        }
    }
}

/// Everything the supervisor borrows from the backend's run scope —
/// the same shared state a worker gets, plus the ring capacity for
/// respawns.
pub(crate) struct SupervisorCtx<'a> {
    pub cp: &'a ControlPlane,
    pub board: GroupBoard,
    pub packets: &'a [ExecPkt],
    pub migrating_to: &'a [AtomicUsize],
    pub seq_watch: &'a [AtomicU64],
    pub done: &'a AtomicBool,
    pub delay: DelayModel,
    pub pin_threads: bool,
    pub ring_capacity: usize,
}

/// The supervisor's ledger for one run.
#[derive(Debug, Default)]
pub(crate) struct SupervisorOutcome {
    /// `(core, plan index)` of packets drained (as accounted drops)
    /// from dead rings.
    pub drain_drops: Vec<(usize, u64)>,
    /// Repair handshakes completed by force-release.
    pub forced_releases: u64,
    /// Stranded marks found while draining dead rings and released as
    /// ordinary acks (the "old owner crashed mid-migration" timeout
    /// path of the handshake).
    pub marks_acked: u64,
    /// Workers respawned on heal.
    pub respawns: u64,
    /// Stalled workers the watchdog detected and recovered.
    pub stalls_cleared: u64,
    /// Crash handoffs that exceeded the detection budget before the
    /// consumer arrived (the drain still waited for the deposit —
    /// safety is never traded for the timeout).
    pub handoff_timeouts: u64,
    /// `(core, outcome)` of every respawned worker, in respawn order.
    pub respawned: Vec<(usize, WorkerOutcome)>,
}

/// Run the supervisor until shutdown; returns its ledger (including the
/// joined outcomes of every worker it respawned).
pub(crate) fn run<'scope>(
    s: &'scope Scope<'scope, '_>,
    ctx: SupervisorCtx<'scope>,
) -> SupervisorOutcome {
    let n = ctx.cp.slots.len();
    let mut out = SupervisorOutcome::default();
    let mut drained = vec![false; n];
    let mut hb_last = vec![0u64; n];
    let mut stagnant = vec![0u32; n];
    let mut wait_sweeps = vec![0u32; n];
    let mut handles: Vec<(usize, ScopedJoinHandle<'scope, WorkerOutcome>)> = Vec::new();
    loop {
        // Read before the sweep: a true here still gets one full sweep,
        // so work posted before shutdown is never missed.
        // npcheck: ordering(Acquire pairs with the backend's Release store after joining the original workers: their consumer deposits happen-before this sweep)
        let shutting_down = ctx.cp.shutdown.load(Ordering::Acquire);
        let mut pending_drain = false;
        for k in 0..n {
            let Some(slot) = ctx.cp.slots.get(k) else {
                continue;
            };
            // npcheck: ordering(Acquire pairs with the dispatcher's Release writes of the command word: seeing CMD_CRASH implies seeing the force_list deposit before it)
            let cmd = slot.cmd.load(Ordering::Acquire);
            if cmd & CMD_CRASH != 0 && !drained[k] {
                let taken = slot.consumer_box.lock().ok().and_then(|mut b| b.take());
                match taken {
                    Some(mut consumer) => {
                        // The deposit proves the worker stopped
                        // servicing; everything still in the ring is a
                        // crash loss, and a stranded mark's pre-mark
                        // packets are all accounted (serviced before the
                        // deposit or drained as drops just now, in FIFO
                        // order) — releasing it cannot reorder.
                        while let Some(d) = consumer.try_pop() {
                            match d {
                                Desc::Packet(raw) => out.drain_drops.push((k, raw & !MIGRATED_BIT)),
                                Desc::Mark(g) => {
                                    ctx.board.release(g as usize);
                                    out.marks_acked += 1;
                                }
                            }
                        }
                        let forced: Vec<u64> = slot
                            .force_list
                            .lock()
                            .map(|mut f| std::mem::take(&mut *f))
                            .unwrap_or_default();
                        for g in forced {
                            if ctx.board.force_release(g as usize) {
                                out.forced_releases += 1;
                            }
                        }
                        drained[k] = true;
                        wait_sweeps[k] = 0;
                    }
                    None => {
                        pending_drain = true;
                        wait_sweeps[k] = wait_sweeps[k].saturating_add(1);
                        if wait_sweeps[k] == HANDOFF_TIMEOUT_SWEEPS {
                            out.handoff_timeouts += 1;
                        }
                    }
                }
            }
            // A respawn is deferred until the crash drain completed, so
            // a crash–heal pair at adjacent plan positions cannot clear
            // CMD_CRASH out from under the still-running old worker.
            if (cmd & CMD_CRASH == 0 || drained[k])
                // npcheck: ordering(AcqRel swap — Acquire pairs with the dispatcher's Release store of the request, Release publishes the consumed request)
                && slot.respawn.swap(false, Ordering::AcqRel)
            {
                let (producer, consumer) = laps::spsc::ring(ctx.ring_capacity);
                // npcheck: ordering(Release publishes the cleared command word before the new worker can observe its slot)
                slot.cmd.store(0, Ordering::Release);
                // npcheck: ordering(Release pairs with the watchdog's Acquire load: the respawned worker is live again)
                slot.exited.store(false, Ordering::Release);
                drained[k] = false;
                stagnant[k] = 0;
                let wctx = WorkerCtx {
                    id: k,
                    consumer,
                    packets: ctx.packets,
                    board: ctx.board.clone(),
                    migrating_to: ctx.migrating_to,
                    seq_watch: ctx.seq_watch,
                    done: ctx.done,
                    delay: ctx.delay,
                    pin_to: ctx.pin_threads.then_some(k),
                    ctrl: Some(ctx.cp),
                };
                handles.push((k, s.spawn(move || worker::run(wctx))));
                if let Ok(mut b) = slot.producer_box.lock() {
                    *b = Some(producer);
                }
                out.respawns += 1;
            }
            // Watchdog: a live worker whose heartbeat stagnates across
            // sweeps is stalled; recovery clears the stall bit. Pure
            // epoch arithmetic — no wall clock.
            // npcheck: ordering(Relaxed is sound: the heartbeat is a progress counter, stagnation detection tolerates staleness by design)
            let hb = slot.heartbeat.load(Ordering::Relaxed);
            // npcheck: ordering(Acquire pairs with the worker's Release store on exit)
            if cmd & CMD_CRASH == 0 && !slot.exited.load(Ordering::Acquire) {
                if hb == hb_last[k] {
                    stagnant[k] = stagnant[k].saturating_add(1);
                } else {
                    stagnant[k] = 0;
                }
                if stagnant[k] >= STAGNANT_SWEEPS && cmd & CMD_STALL != 0 {
                    // npcheck: ordering(AcqRel RMW — Release publishes the cleared stall to the worker's Acquire load of cmd)
                    slot.cmd.fetch_and(!CMD_STALL, Ordering::AcqRel);
                    out.stalls_cleared += 1;
                    stagnant[k] = 0;
                }
            }
            hb_last[k] = hb;
        }
        // A trailing crash may still be waiting on its consumer deposit
        // at shutdown; leaving it undrained would strand force-releases
        // that a respawned worker's holdback is waiting for. The worker
        // is live and observes CMD_CRASH, so this pends only briefly.
        if shutting_down && !pending_drain {
            break;
        }
        std::thread::yield_now();
    }
    for (core, h) in handles {
        out.respawned.push((core, h.join().unwrap_or_default()));
    }
    out
}
