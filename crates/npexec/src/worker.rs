//! The per-core worker loop: pop descriptors off the SPSC ring, keep
//! per-flow order across migrations, account service work.
//!
//! A worker is the execution-side mirror of the engine's service stage:
//! it owns one ring, services packets in ring order, and participates
//! in the flow-group migration handshake. Every ring slot carries the
//! packet's whole descriptor ([`ExecDesc`]), so the worker reads
//! nothing of the offered stream but its own ring:
//!
//! * `Desc::Packet` of a group **not** migrating to this worker →
//!   service immediately (ring order == dispatch order == arrival
//!   order).
//! * `Desc::Packet` of a group currently migrating **to** this worker →
//!   park it in the holdback buffer. The old owner still has pre-mark
//!   packets of the group in flight; servicing now could overtake them.
//! * `Desc::Mark(g)` → this worker is the **old** owner of `g`: every
//!   pre-redirect packet of `g` sits before the mark in this ring, so
//!   by the time the mark pops they are all serviced — except any the
//!   worker itself parked during an *earlier* inbound migration of the
//!   same group, which are drained right here, before acking. Then
//!   [`GroupBoard::release`] publishes the first-packet-ack and the new
//!   owner may drain its holdback.
//!
//! The holdback buffer drains at the top of every loop iteration (and a
//! packet joins it whenever its group already has parked packets, even
//! if the handshake has since released — FIFO within the group is
//! preserved unconditionally).
//!
//! Every service is charged by the worker's [`CoreClock`], the core
//! model detsim charges each core with: a packet starts at the later of
//! its arrival and the end of the previous service, moved past any
//! stall window of the fault plan, and pays the throttle the plan has
//! in force then, whatever the host timing. The thread itself never
//! stalls.
//!
//! ## Control plane: a crash pauses its worker
//!
//! When a fault plan is active each worker has a command word
//! ([`CMD_CRASH`] | [`CMD_PAUSED`]) that the dispatcher and the worker
//! write and the worker reads each iteration. The dispatcher fires
//! `Crash` and `Heal` at their plan positions; the worker carries them
//! out itself, so a fault run spawns no thread beyond the workers. Throttles and stalls
//! never reach a thread: the worker's `CoreClock` reads them off the
//! plan.
//!
//! 1. The dispatcher (at the crash's plan position) sets [`CMD_CRASH`]
//!    and waits for [`CMD_PAUSED`].
//! 2. The worker sees [`CMD_CRASH`] at the top of its loop and does the
//!    crash step: its held packets and its ring's packets become crash
//!    drops (a stranded mark is acked), then it sets [`CMD_PAUSED`] and
//!    waits.
//! 3. Only then does the dispatcher publish each of the dead worker's
//!    buckets' new owner in `migrating_to` and re-home them
//!    (`MapTable::retire_core`). It routes nothing to the dead ring.
//! 4. A heal stores a zero command word and migrates the retired
//!    buckets home behind ordinary marked handshakes. The worker resumes
//!    cold. A worker still paused when the run ends exits.
//!
//! A crash begins no handshake. The pause is a Release, the
//! dispatcher's wait an Acquire, and every push to a replacement's ring
//! follows the wait, so the dead worker's last service happens-before
//! any replacement service of its buckets. A marked handshake towards
//! the dead worker still in flight keeps its own mark ack: the
//! replacement reads itself as the target and holds, as any new owner
//! does. See DESIGN.md, "Fault tolerance on real threads".
//!
//! An idle worker spins briefly, then sleeps [`IDLE_NAP`]: the
//! dispatcher draws every packet, so it is the bottleneck, and on a
//! 2-thread host a spinning worker would slow the dispatcher running on
//! its SMT sibling.
//!
//! This file is hot path (the attribute below): no panicking indexing,
//! no allocation-amplifying calls inside the pop loop.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use laps::spsc::{Consumer, Desc};
use laps::GroupBoard;
use npsim::CoreClock;

use crate::affinity;
use crate::plan::{ExecDesc, SeqWatch, WatchView};

/// How long an idle worker sleeps after 64 empty polls.
const IDLE_NAP: std::time::Duration = std::time::Duration::from_micros(20);

/// Command bit: the worker must crash — drop its holds, drain its ring,
/// then pause.
pub(crate) const CMD_CRASH: u64 = 1 << 0;
/// Command bit, set by the worker: its crash step is done and it waits
/// for a heal to clear the word.
pub(crate) const CMD_PAUSED: u64 = 1 << 1;

/// Everything a worker thread needs, borrowed from the backend's run
/// scope (the atomics outlive the thread scope).
pub(crate) struct WorkerCtx<'a> {
    /// This worker's index (== its ring, == its simulated core).
    pub id: usize,
    /// Consume side of this worker's ring.
    pub consumer: Consumer<ExecDesc>,
    /// The migration handshake scoreboard.
    pub board: GroupBoard,
    /// Per-group migration target, written by the dispatcher before it
    /// routes the group to the target; tells a worker whether an
    /// in-flight group is inbound.
    pub migrating_to: &'a [AtomicUsize],
    /// Per-flow order witness: highest serviced `flow_seq + 1`.
    pub seq_watch: &'a SeqWatch,
    /// Set by the dispatcher after its last push.
    pub done: &'a AtomicBool,
    /// This worker's core model: cold starts, Eq. 3, throttles, stalls.
    pub clock: CoreClock,
    /// CPU to pin to, if pinning was requested.
    pub pin_to: Option<usize>,
    /// The fault-run control plane, one command word per worker; `None`
    /// in fault-free runs (the loop then skips every command-word check).
    pub ctrl: Option<&'a [AtomicU64]>,
}

/// What one worker hands back when it joins.
#[derive(Debug, Default, Clone)]
pub(crate) struct WorkerOutcome {
    /// Packets serviced.
    pub serviced: u64,
    /// Services that found a cold instruction cache.
    pub cold_starts: u64,
    /// Simulated busy time (the clock's sum of charged services),
    /// nanoseconds.
    pub busy_ns: u64,
    /// Serviced count per [`ServiceKind::index`](nptraffic::ServiceKind::index).
    pub per_service: [u64; 4],
    /// Out-of-order services per [`ServiceKind::index`](nptraffic::ServiceKind::index).
    pub ooo_per_service: [u64; 4],
    /// Crash drops per [`ServiceKind::index`](nptraffic::ServiceKind::index).
    pub dropped_per_service: [u64; 4],
    /// Plan positions serviced behind a higher sequence of their flow
    /// (empty iff the handshake preserved order, which it must).
    pub ooo_packets: Vec<u64>,
    /// Deepest the holdback buffer ever got, in packets.
    pub max_hold_depth: usize,
    /// Whether the pin request was honored by the kernel.
    pub pinned: bool,
    /// Plan positions of packets this worker held or still had in its
    /// ring when it crashed — accounted as fault drops.
    pub crash_drops: Vec<u64>,
    /// One entry per heal that resumed this worker, in heal order: the
    /// plan position of the first packet serviced after it (`None`: none
    /// was).
    pub recoveries: Vec<Option<u64>>,
}

impl WorkerOutcome {
    /// Account `d` as a crash drop.
    fn crash_drop(&mut self, d: ExecDesc) {
        self.crash_drops.push(u64::from(d.pos));
        if let Some(n) = self.dropped_per_service.get_mut(d.service.index()) {
            *n += 1;
        }
    }
}

/// Parked packets of one in-flight group, in ring (FIFO) order.
struct Held {
    group: u32,
    descs: Vec<ExecDesc>,
}

/// Service-side state split out so the pop loop can borrow the
/// holdback buffer and the servicing machinery independently.
struct Svc<'a> {
    seq_watch: WatchView<'a>,
    clock: CoreClock,
    out: WorkerOutcome,
}

impl Svc<'_> {
    /// Service one packet: charge it on the core's clock and advance
    /// the per-flow order witness.
    fn service(&mut self, p: ExecDesc) {
        let pos = u64::from(p.pos);
        let cold = self
            .clock
            .start(p.at, p.service, p.size, p.migrated, 0)
            .cold;
        self.out.cold_starts += u64::from(cold);
        if let Some(first @ None) = self.out.recoveries.last_mut() {
            *first = Some(pos);
        }
        if let Some(w) = self.seq_watch.get(p.slot.index()) {
            let flow_seq = u64::from(p.flow_seq);
            // The witness is shared with whichever worker serviced the
            // flow's previous packet and whichever services the next.
            // npcheck: ordering(AcqRel RMW — Acquire sees the previous owner's update, Release publishes ours to the next)
            let prev = w.fetch_max(flow_seq + 1, Ordering::AcqRel);
            if prev > flow_seq {
                self.out.ooo_packets.push(pos);
                if let Some(n) = self.out.ooo_per_service.get_mut(p.service.index()) {
                    *n += 1;
                }
            }
        }
        if let Some(c) = self.out.per_service.get_mut(p.service.index()) {
            *c += 1;
        }
        self.out.serviced += 1;
    }
}

/// The crash step: held packets become crash drops, then the ring is
/// popped to empty (packets are crash drops; a stranded mark is released
/// as an ordinary ack, since every pre-mark packet of its group was
/// serviced or dropped before it). Ends by setting [`CMD_PAUSED`]. Cold
/// path: runs once per crash.
fn crash(
    out: &mut WorkerOutcome,
    holds: &mut Vec<Held>,
    consumer: &mut Consumer<ExecDesc>,
    board: &GroupBoard,
    cmd: &AtomicU64,
) {
    for d in holds.drain(..).flat_map(|h| h.descs) {
        out.crash_drop(d);
    }
    while let Some(d) = consumer.try_pop() {
        match d {
            Desc::Packet(d) => out.crash_drop(d),
            Desc::Mark(g) => board.release(g as usize),
        }
    }
    // npcheck: ordering(AcqRel RMW — Release publishes the crash step to the dispatcher's Acquire wait for the pause)
    cmd.fetch_or(CMD_PAUSED, Ordering::AcqRel);
}

/// Wait, silent, until a heal clears [`CMD_PAUSED`] (`true`) or the run
/// ends with the worker still down (`false`).
fn paused_until_heal(cmd: &AtomicU64, done: &AtomicBool) -> bool {
    loop {
        // `done` first: the dispatcher's last heal happens-before its
        // `done` store, so a pause still visible after `done` is final.
        // npcheck: ordering(Acquire pairs with the dispatcher's Release store of done after its last fault action)
        let fin = done.load(Ordering::Acquire);
        // npcheck: ordering(Acquire pairs with the heal's Release store of the cleared command word)
        if cmd.load(Ordering::Acquire) & CMD_PAUSED == 0 {
            return true;
        }
        if fin {
            return false;
        }
        std::thread::yield_now();
    }
}

/// Run one worker to completion; returns when the dispatcher is done,
/// the ring is drained, and no held packets remain — or, for a worker a
/// crash paused and no heal resumed, when the dispatcher is done.
pub(crate) fn run(ctx: WorkerCtx<'_>) -> WorkerOutcome {
    let WorkerCtx {
        id,
        mut consumer,
        board,
        migrating_to,
        seq_watch,
        done,
        clock,
        pin_to,
        ctrl,
    } = ctx;
    let mut svc = Svc {
        seq_watch: seq_watch.view(),
        clock,
        out: WorkerOutcome::default(),
    };
    if let Some(cpu) = pin_to {
        svc.out.pinned = affinity::pin_to_cpu(cpu);
    }
    let cmd = ctrl.and_then(|cp| cp.get(id));
    let mut holds: Vec<Held> = Vec::new();
    let mut held_depth = 0usize;
    let mut idle_polls = 0u32;
    loop {
        if let Some(cmd) = cmd {
            // npcheck: ordering(Acquire pairs with the dispatcher's Release writes of the command word)
            if cmd.load(Ordering::Acquire) & CMD_CRASH != 0 {
                crash(&mut svc.out, &mut holds, &mut consumer, &board, cmd);
                held_depth = 0;
                // The crash step runs between two services: nothing is
                // in service, so the clock stops where it is and
                // refunds nothing. The next service starts cold.
                svc.clock.crash(svc.clock.vt());
                if !paused_until_heal(cmd, done) {
                    break;
                }
                svc.out.recoveries.push(None);
                continue;
            }
        }
        // Drain every hold whose handshake has released. Doing this
        // before the pop keeps FIFO: a held group's packets always go
        // out before any newly popped packet of that group.
        while let Some(pos) = holds
            .iter()
            .position(|h| !board.in_flight(h.group as usize))
        {
            let h = holds.swap_remove(pos);
            held_depth = held_depth.saturating_sub(h.descs.len());
            for d in h.descs {
                svc.service(d);
            }
        }
        match consumer.try_pop() {
            Some(Desc::Mark(g)) => {
                idle_polls = 0;
                // We are the old owner of `g`. Ring order guarantees
                // every pre-redirect packet already popped; any we
                // parked during an earlier inbound migration of `g`
                // must go out before we ack, or the new owner could
                // overtake them.
                if let Some(pos) = holds.iter().position(|h| u64::from(h.group) == g) {
                    let h = holds.swap_remove(pos);
                    held_depth = held_depth.saturating_sub(h.descs.len());
                    for d in h.descs {
                        svc.service(d);
                    }
                }
                board.release(g as usize);
            }
            Some(Desc::Packet(d)) => {
                idle_polls = 0;
                let g = d.group;
                let held_here = holds.iter().any(|h| h.group == g);
                // If in_flight saw a marked handshake's begun bump, the
                // target load sees who it is for. A crash re-home
                // publishes its targets before it routes any packet here.
                let target = migrating_to.get(g as usize).map(|t| {
                    // npcheck: ordering(Acquire pairs with the dispatcher's Release store of the target: before begin for a marked handshake, before the first push for a crash re-home)
                    t.load(Ordering::Acquire)
                });
                let inbound = board.in_flight(g as usize) && target == Some(id);
                if held_here || inbound {
                    held_depth += 1;
                    svc.out.max_hold_depth = svc.out.max_hold_depth.max(held_depth);
                    match holds.iter_mut().find(|h| h.group == g) {
                        Some(h) => h.descs.push(d),
                        None => holds.push(Held {
                            group: g,
                            descs: {
                                let mut v = Vec::with_capacity(8);
                                v.push(d);
                                v
                            },
                        }),
                    }
                } else {
                    svc.service(d);
                }
            }
            None => {
                // `is_empty` reads the producer's published tail, not the
                // pop cache: a push between the empty pop above and the
                // dispatcher's `done` store must not be stranded.
                // npcheck: ordering(Acquire pairs with the dispatcher's Release store after its final push — seeing done implies seeing every published slot)
                if done.load(Ordering::Acquire) && holds.is_empty() && consumer.is_empty() {
                    break;
                }
                idle_polls += 1;
                if idle_polls >= 64 {
                    // Block rather than yield (module docs); a ring of
                    // the default 1024 slots takes longer than the nap
                    // to fill.
                    // npcheck: allow(blocking-hot-path) — idle back-off, taken only on an empty ring
                    std::thread::sleep(IDLE_NAP);
                    idle_polls = 0;
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
    svc.out.busy_ns = svc.clock.busy_ns();
    svc.out
}
