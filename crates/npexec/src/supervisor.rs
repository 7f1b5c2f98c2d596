//! The control plane of a fault run, and the stall watchdog.
//!
//! Each worker has a [`WorkerSlot`]: a command word the dispatcher and
//! the watchdog write, a heartbeat the worker bumps, and the force list
//! of a crash. The dispatcher fires `FaultPlan` actions at their plan
//! positions by writing the command word; the worker carries them out
//! itself. The only work left for a thread of its own is the heartbeat
//! watchdog, which must run while the dispatcher may be blocked: under
//! [`FullPolicy::Backpressure`](crate::FullPolicy) a stalled worker
//! stops the dispatcher before it reaches any later plan position.
//!
//! The watchdog is **epoch-based**: workers bump a heartbeat counter
//! per loop iteration, the supervisor counts its own sweeps, and a stall
//! is recovered on *stagnation across sweeps* — never on wall-clock
//! durations, so a detsim cross-validation of the same fault plan stays
//! meaningful (`clippy.toml` disallows `Instant::now`; the one justified
//! read is in `lib.rs`, for throughput reporting).
//!
//! ## A crash pauses its worker
//!
//! 1. The dispatcher (at the crash's plan position) begins a **no-mark
//!    repair handshake** per bucket the dead worker owns
//!    ([`laps::GroupBoard::begin`]), deposits those groups in
//!    [`WorkerSlot::force_list`], sets [`CMD_CRASH`], and waits for
//!    [`CMD_PAUSED`].
//! 2. The worker sees [`CMD_CRASH`] at the top of its loop and does the
//!    crash step, in this order: its held packets become crash drops;
//!    it pops its own ring to empty (packets become crash drops, a
//!    stranded `Desc::Mark` is released as an ordinary ack — every
//!    pre-mark packet was serviced or dropped before it); then it
//!    force-releases each group of its force list. It sets
//!    [`CMD_PAUSED`] and waits.
//! 3. The dispatcher publishes each bucket's new owner in
//!    `migrating_to` and re-homes the buckets via
//!    `MapTable::retire_core`. It routes nothing to the dead ring.
//! 4. A heal stores a zero command word (no crash, no pause, no stall)
//!    and migrates the retired buckets home behind ordinary marked
//!    handshakes. The worker resumes cold and at full speed (its
//!    `CoreClock` keeps both). A worker still paused when the run ends
//!    exits.
//!
//! Safety is program order on one thread: the force-release follows the
//! drain, which follows the last service of the crashed worker, so the
//! new owner's held packets cannot overtake an old-side packet. The
//! dispatcher's wait in step 1 keeps the crashed worker from reading a
//! repair target: when a marked handshake towards it is still in
//! flight, its packets of that group must stay held, and the new target
//! would tell it they are not inbound. See DESIGN.md, "Fault tolerance
//! on real threads".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Command bit: the worker must crash — drop its holds, drain its ring,
/// force-release its force list, then pause.
pub(crate) const CMD_CRASH: u64 = 1 << 0;
/// Command bit: the worker must stall — stop draining *and* stop
/// bumping its heartbeat, until the watchdog clears the bit.
pub(crate) const CMD_STALL: u64 = 1 << 1;
/// Command bit, set by the worker: its crash step is done and it waits
/// for a heal to clear the word.
pub(crate) const CMD_PAUSED: u64 = 1 << 2;

/// Supervisor sweeps a heartbeat must stagnate for before the watchdog
/// declares the worker stalled and recovers it.
const STAGNANT_SWEEPS: u32 = 8;

/// One worker's control slot.
#[derive(Debug)]
pub(crate) struct WorkerSlot {
    /// Command word: [`CMD_CRASH`] | [`CMD_STALL`] | [`CMD_PAUSED`].
    pub cmd: AtomicU64,
    /// Bumped by the worker once per loop iteration (not while stalled
    /// or paused — stagnation is the watchdog's signal).
    pub heartbeat: AtomicU64,
    /// Groups whose no-mark repair handshake the crashed worker
    /// force-releases once its ring is drained.
    pub force_list: Mutex<Vec<u64>>,
}

/// The shared control plane: one slot per worker plus the shutdown
/// flag. Allocated by the backend only when the configuration has a
/// fault plan — fault-free runs carry no control plane and pay nothing.
#[derive(Debug)]
pub(crate) struct ControlPlane {
    /// Per-worker control slots.
    pub slots: Vec<WorkerSlot>,
    /// Set by the backend after every worker joined; the supervisor
    /// runs one final sweep and exits.
    pub shutdown: AtomicBool,
}

impl ControlPlane {
    pub(crate) fn new(workers: usize) -> Self {
        ControlPlane {
            slots: (0..workers)
                .map(|_| WorkerSlot {
                    cmd: AtomicU64::new(0),
                    heartbeat: AtomicU64::new(0),
                    force_list: Mutex::new(Vec::new()),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
        }
    }
}

/// Run the stall watchdog until shutdown; returns the number of stalled
/// workers it detected and recovered.
pub(crate) fn run(cp: &ControlPlane) -> u64 {
    let n = cp.slots.len();
    let mut stalls_cleared = 0u64;
    let mut hb_last = vec![0u64; n];
    let mut stagnant = vec![0u32; n];
    loop {
        // Read before the sweep: a true here still gets one full sweep.
        // npcheck: ordering(Acquire pairs with the backend's Release store after joining the workers)
        let shutting_down = cp.shutdown.load(Ordering::Acquire);
        for (k, slot) in cp.slots.iter().enumerate() {
            // npcheck: ordering(Acquire pairs with the dispatcher's and worker's Release writes of the command word)
            let cmd = slot.cmd.load(Ordering::Acquire);
            // npcheck: ordering(Relaxed is sound: the heartbeat is a progress counter, stagnation detection tolerates staleness by design)
            let hb = slot.heartbeat.load(Ordering::Relaxed);
            // A crashed worker is silent by design; only a live one's
            // stagnation counts. Pure epoch arithmetic — no wall clock.
            if cmd & CMD_CRASH != 0 || hb != hb_last[k] {
                stagnant[k] = 0;
            } else {
                stagnant[k] = stagnant[k].saturating_add(1);
            }
            if stagnant[k] >= STAGNANT_SWEEPS && cmd & CMD_STALL != 0 {
                // npcheck: ordering(AcqRel RMW — Release publishes the cleared stall to the worker's Acquire load of cmd)
                slot.cmd.fetch_and(!CMD_STALL, Ordering::AcqRel);
                stalls_cleared += 1;
                stagnant[k] = 0;
            }
            hb_last[k] = hb;
        }
        if shutting_down {
            return stalls_cleared;
        }
        std::thread::yield_now();
    }
}
