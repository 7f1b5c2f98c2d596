//! The control plane of a fault run.
//!
//! Each worker has a [`WorkerSlot`]: a command word the dispatcher and
//! the worker write, and the force list of a crash. The dispatcher
//! fires `Crash` and `Heal` at their plan positions by writing the
//! command word; the worker carries them out itself, so a fault run
//! spawns no thread beyond the workers. No other action reaches a
//! thread: each worker's `CoreClock` reads throttles and stall windows
//! off the plan and charges them to the services they cover.
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
//! 4. A heal stores a zero command word (no crash, no pause) and
//!    migrates the retired buckets home behind ordinary marked
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

use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

/// Command bit: the worker must crash — drop its holds, drain its ring,
/// force-release its force list, then pause.
pub(crate) const CMD_CRASH: u64 = 1 << 0;
/// Command bit, set by the worker: its crash step is done and it waits
/// for a heal to clear the word.
pub(crate) const CMD_PAUSED: u64 = 1 << 1;

/// One worker's control slot.
#[derive(Debug)]
pub(crate) struct WorkerSlot {
    /// Command word: [`CMD_CRASH`] | [`CMD_PAUSED`].
    pub cmd: AtomicU64,
    /// Groups whose no-mark repair handshake the crashed worker
    /// force-releases once its ring is drained.
    pub force_list: Mutex<Vec<u64>>,
}

/// The shared control plane: one slot per worker. Allocated by the
/// backend only when the configuration has a fault plan — fault-free
/// runs carry no control plane and pay nothing.
#[derive(Debug)]
pub(crate) struct ControlPlane {
    /// Per-worker control slots.
    pub slots: Vec<WorkerSlot>,
}

impl ControlPlane {
    pub(crate) fn new(workers: usize) -> Self {
        ControlPlane {
            slots: (0..workers)
                .map(|_| WorkerSlot {
                    cmd: AtomicU64::new(0),
                    force_list: Mutex::new(Vec::new()),
                })
                .collect(),
        }
    }
}
