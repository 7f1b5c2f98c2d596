//! The dispatcher loop: draw the offered stream, route each packet into
//! a per-worker ring, drive flow-group migrations through the
//! handshake, and fire fault plan actions as the stream reaches them.
//!
//! The dispatcher is the frame manager of the thread-per-core runtime.
//! It owns the service's `MapTable` (bucket == flow group) and the
//! [`PlanStream`]. It draws the stream a burst at a time
//! ([`PlanStream::next_burst`], the call the detsim engine's stream
//! thread draws its hand-off chunks with) into one reused buffer, then
//! routes the buffer packet by packet. The stream fills a burst in
//! runs: once an arrival from one source wins the merge, that source's
//! next arrivals follow without another merge pick while each lands
//! strictly before the other sources' heads and the rate tick. That is
//! the merge's own order, because an arrival armed during a run holds
//! the newest seq and so loses every time tie; on a single-source
//! stream such as `exec-forward`'s a run lasts to the burst's end or
//! the next rate tick. Routing then goes:
//!
//! 1. find the packet's group (one CRC16 on the flow's first packet,
//!    kept in a per-flow table that grows as flows appear) and look up
//!    the owning worker,
//! 2. push the packet's [`ExecDesc`] by value into that worker's ring
//!    (with `migrated` set when the flow changed cores), waiting for
//!    room when the ring is full,
//! 3. before every `rebalance_every`-th packet (a countdown), compare
//!    per-worker load over the window since the last check and migrate
//!    the busiest group of the most loaded worker to the least loaded
//!    one — the paper's map-table remap, as a 3-step handshake:
//!    **mark** the old ring, **redirect** the bucket, and let the old
//!    owner's **first-packet-ack** (the mark pop) release the new
//!    owner's holdback.
//!
//! A migration aborts (cleanly, before any redirect) if the handshake
//! for that group is still in flight or the old ring is too full to
//! take the mark.
//!
//! The dispatcher never drops: a full ring makes it wait, so only a
//! crash (on the worker's side) drops a packet. Its events go to its
//! [`EventSink`], in detsim's order and by detsim's rules: per routed
//! packet a `PacketArrived`, then, after the push, a `Dispatched` (only
//! with probes attached, which alone read it, as on detsim) and a
//! `Migration` when the flow's previous packet went to another worker —
//! so a load or forced handshake, a crash re-home and a heal restore
//! each count the flows they move, on the flow's next packet. A crash
//! or heal carried out observes a `CoreCrashed` or `CoreHealed`,
//! stamped with the plan entry's instant as detsim stamps them. From
//! the `Dispatched` events a `FaultProbe` counts the flows resident on
//! a crashed worker and moved off it. Its fault counters go in one
//! [`FaultStats`].
//!
//! A fault action scheduled at `t` fires just before the first packet
//! that arrives at or after `t` — the exact analogue of detsim priming
//! the plan into its event queue, including the
//! fault-before-same-time-arrival tie-break — and its plan position is
//! that packet's. Every action keys on a packet's position or instant
//! and fires as the routing loop reaches that packet, so drawing the
//! stream a burst ahead moves none of them: the stream reads nothing
//! the dispatcher writes. The crash protocol is documented on
//! [`worker`](crate::worker); the dispatcher's half is: on a crash, set
//! the worker's crash bit, wait for its pause, `retire_core` and point
//! each re-homed bucket at its new owner; on a heal, resume the worker
//! and `restore_core` behind ordinary marked handshakes; route nothing
//! to a dead worker in between.
//!
//! This file is hot path (the attribute below): no panicking indexing,
//! no allocation-amplifying calls inside the per-packet loop (the
//! per-flow tables grow, amortised, on a flow's first packet; the fault
//! paths are cold — once per plan entry — and carry allow comments).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::sync::atomic::{AtomicU64, Ordering};

use detsim::SimTime;
use laps::spsc::{Desc, Producer};
use laps::GroupBoard;
use nphash::MapTable;
use npsim::{FaultAction, FaultStats, PlanStream, SimEvent};

use crate::plan::{ExecDesc, SeqWatch};
use crate::worker::{CMD_CRASH, CMD_PAUSED};
use crate::{EventSink, ForcedMigration};

/// A ring producer of packet descriptors.
type Ring = Producer<ExecDesc>;

/// "Flow has not been dispatched yet" sentinel for the last-core table.
const NO_CORE: u32 = u32::MAX;

/// Yields to wait for a retired bucket's handshake to clear before a
/// heal-restore skips it (pure scheduling-progress bound, no clock).
const RESTORE_WAIT_YIELDS: u32 = 100_000;

/// Everything the dispatcher owns or borrows for one run.
pub(crate) struct DispatchCtx<'a> {
    /// The offered stream, drawn a burst at a time.
    pub stream: PlanStream,
    /// The service's map table: bucket == group, value == worker.
    pub table: MapTable<usize>,
    /// Produce side of each worker's ring.
    pub producers: Vec<Ring>,
    /// The migration handshake scoreboard: each group's handshake
    /// counters and target.
    pub board: GroupBoard,
    /// The per-flow order witness; a flow's chunk is published before
    /// its first packet is pushed.
    pub seq_watch: &'a SeqWatch,
    /// Packets between imbalance checks (0 disables rebalancing).
    pub rebalance_every: u64,
    /// Migrate when the busiest worker's window load exceeds this
    /// multiple of the least busy worker's.
    pub imbalance_ratio: f64,
    /// Scripted migrations, sorted by `after_packets`.
    pub forced: Vec<ForcedMigration>,
    /// Fault actions as `(instant, action)`, stably sorted by instant.
    pub faults: &'a [(SimTime, FaultAction)],
    /// The fault-run command words, one per worker (`Some` iff `faults`
    /// is non-empty).
    pub ctrl: Option<&'a [AtomicU64]>,
    /// Where the dispatcher's events go.
    pub events: EventSink,
}

/// The dispatcher's ledger for one run.
#[derive(Debug, Default)]
pub(crate) struct DispatchOutcome {
    /// The dispatcher's events: a `PacketArrived` per routed packet, a
    /// `Dispatched` per push (with probes attached), a `Migration` per
    /// push of a flow whose previous packet went to another worker, a
    /// `CoreCrashed` or `CoreHealed` per crash or heal.
    pub events: EventSink,
    /// Handshakes not begun because the group's handshake was still in
    /// flight or the old owner's ring was full: load and forced
    /// migrations, and retired buckets a heal could not restore (those
    /// stay on their replacement).
    pub aborted: u64,
    /// Fault accounting, `fault_drops` aside (the workers drop, and the
    /// backend adds theirs at join). Every crash and heal is repaired:
    /// the pause protocol has no unrepaired path, so `redirects`, the
    /// detsim engine's degradation path, stays 0.
    pub faults: FaultStats,
}

/// The dispatcher's routing state for one run: what the packet loop,
/// the migrations and the fault actions act on.
struct Router<'a> {
    table: MapTable<usize>,
    producers: Vec<Ring>,
    board: GroupBoard,
    ctrl: Option<&'a [AtomicU64]>,
    /// Per-worker and per-group load since the last imbalance check.
    win_worker: Vec<u64>,
    win_group: Vec<u64>,
    out: DispatchOutcome,
}

impl Router<'_> {
    /// Whether worker `w` is live: it exists and the table has not
    /// retired it.
    fn live(&self, w: usize) -> bool {
        w < self.producers.len() && !self.table.is_retired(w)
    }

    /// Begin a group migration if the handshake permits; records the
    /// outcome either way. Order matters: the mark must land in the old
    /// ring *before* the redirect, or a packet routed to the new owner
    /// could slip ahead of the mark's release. The flows it moves each
    /// observe their `Migration` on their next packet.
    fn try_migrate(&mut self, group: u64, to: usize) {
        let Some(&from) = self.table.cores().get(group as usize) else {
            return;
        };
        if from == to || !self.live(to) {
            return;
        }
        if self.board.in_flight(group as usize) {
            // One load-driven handshake per group at a time; callers
            // retry on a later rebalance window.
            self.out.aborted += 1;
            return;
        }
        let Some(pr) = self.producers.get_mut(from) else {
            return;
        };
        if pr.try_push_mark(group).is_err() {
            // Old ring full: abort before any state changed.
            self.out.aborted += 1;
            return;
        }
        self.board.point(group as usize, to);
        self.board.begin(group as usize);
        self.table.reassign_bucket(group as u32, to);
    }

    /// One imbalance check: if the busiest worker's window load exceeds
    /// `ratio ×` the least busy worker's, migrate the busiest group it
    /// owns to the least busy worker. Dead workers are excluded from
    /// both ends of the comparison. Windows reset afterwards.
    fn rebalance(&mut self, ratio: f64) {
        let mut max_w = usize::MAX;
        let mut max_l = 0u64;
        let mut min_w = usize::MAX;
        let mut min_l = u64::MAX;
        for (w, &l) in self.win_worker.iter().enumerate() {
            if !self.live(w) {
                continue;
            }
            if l > max_l || max_w == usize::MAX {
                max_l = l;
                max_w = w;
            }
            if l < min_l {
                min_l = l;
                min_w = w;
            }
        }
        if max_w != usize::MAX
            && min_w != usize::MAX
            && max_w != min_w
            && (max_l as f64) > ratio * ((min_l + 1) as f64)
        {
            let mut best: Option<(u64, u64)> = None; // (group, window load)
            for (g, &n) in self.win_group.iter().enumerate() {
                if n > 0
                    && self.table.cores().get(g).copied() == Some(max_w)
                    && best.is_none_or(|(_, bn)| n > bn)
                {
                    best = Some((g as u64, n));
                }
            }
            if let Some((g, _)) = best {
                self.try_migrate(g, min_w);
            }
        }
        self.win_worker.fill(0);
        self.win_group.fill(0);
    }

    /// Apply one fault action, planned at `at`, at plan position `pos`.
    /// Cold path: runs once per plan entry, never per packet.
    fn fire_fault(&mut self, at: SimTime, action: FaultAction, pos: u64) {
        self.out.faults.injected += 1;
        match action {
            FaultAction::Crash { core } => {
                // Re-home round-robin onto the other live workers.
                let repl: Vec<usize> = (0..self.producers.len())
                    .filter(|&w| w != core && self.live(w))
                    // npcheck: allow(blocking-hot-path) — crash repair cold path, runs once per fault entry
                    .collect();
                if !self.live(core) || repl.is_empty() {
                    // Already dead, or the last live worker (validate
                    // rejects such plans; this is the runtime belt).
                    return;
                }
                // Wait for the crash step before any bucket moves: the
                // worker pauses only after its last service, so every push
                // below reaches a replacement after it. A replacement that
                // inherits a marked handshake towards the dead worker reads
                // itself as the target and holds until the old owner's ack.
                if let Some(cmd) = self.ctrl.and_then(|c| c.get(core)) {
                    // npcheck: ordering(AcqRel RMW — Release publishes every earlier push to the worker's Acquire load)
                    cmd.fetch_or(CMD_CRASH, Ordering::AcqRel);
                    // The crash step needs nothing from this thread.
                    // npcheck: ordering(Acquire pairs with the worker's AcqRel set of CMD_PAUSED: its last service and drain happen-before the re-home)
                    while cmd.load(Ordering::Acquire) & CMD_PAUSED == 0 {
                        std::thread::yield_now();
                    }
                }
                // Minimum migration (`retire_core`, which also marks the
                // worker dead), then point each bucket at its new owner
                // before any packet of it is routed there.
                for b in self.table.retire_core(core, &repl) {
                    if let Some(&to) = self.table.cores().get(b as usize) {
                        self.board.point(b as usize, to);
                    }
                }
                self.out.faults.crashes += 1;
                self.out.faults.repairs += 1;
                let ev = SimEvent::CoreCrashed { core };
                self.out.events.observe(pos as u32, at, ev);
            }
            FaultAction::Heal { core } => {
                if self.live(core) {
                    return;
                }
                let Some(cmd) = self.ctrl.and_then(|c| c.get(core)) else {
                    return;
                };
                // The crash waited for the pause, so the crash step is done.
                // Resume with a zero word: no crash, no pause. Its clock
                // restores full speed.
                // npcheck: ordering(Release pairs with the paused worker's Acquire load of the command word)
                cmd.store(0, Ordering::Release);
                // Restore: an ordinary marked handshake moves each retired
                // bucket home from its live replacement; `restore_core`
                // gives back exactly the buckets whose mark went out.
                self.table.restore_core(core, |b, cur| {
                    let mut waits = 0u32;
                    while self.board.in_flight(b as usize) && waits < RESTORE_WAIT_YIELDS {
                        waits += 1;
                        std::thread::yield_now();
                    }
                    if self.board.in_flight(b as usize) {
                        self.out.aborted += 1;
                        return false;
                    }
                    if cur == core {
                        return false;
                    }
                    let Some(pr) = self.producers.get_mut(cur) else {
                        return false;
                    };
                    push(pr, Desc::Mark(u64::from(b)));
                    self.board.point(b as usize, core);
                    self.board.begin(b as usize);
                    true
                });
                self.out.faults.heals += 1;
                self.out.faults.repairs += 1;
                let ev = SimEvent::CoreHealed { core };
                self.out.events.observe(pos as u32, at, ev);
            }
            // Each worker's clock reads its throttles and stalls off the plan.
            FaultAction::Throttle { .. } | FaultAction::Stall { .. } => {}
        }
    }
}

/// Draw and dispatch the stream to completion; returns the dispatch
/// ledger.
pub(crate) fn run(mut ctx: DispatchCtx<'_>) -> DispatchOutcome {
    let (workers, groups) = (ctx.producers.len(), ctx.table.len());
    let mut r = Router {
        table: ctx.table,
        producers: ctx.producers,
        board: ctx.board,
        ctrl: ctx.ctrl,
        win_worker: build_window(workers),
        win_group: build_window(groups),
        out: DispatchOutcome {
            events: ctx.events,
            ..DispatchOutcome::default()
        },
    };
    // Per-flow state, grown as flows appear: the group (hashed once per
    // flow) and the last worker a packet of the flow went to.
    let mut group_of_flow: Vec<u32> = Vec::new();
    let mut last_core: Vec<u32> = Vec::new();
    let mut watched = 0usize;
    let mut next_forced = 0usize;
    let mut next_fault = 0usize;
    let faults = ctx.faults;

    // Packets left before the next imbalance check: it fires before
    // every positive multiple of `rebalance_every` (never, at 0).
    let mut to_check = if ctx.rebalance_every > 0 {
        ctx.rebalance_every
    } else {
        u64::MAX
    };

    // The stream is drawn a burst ahead of routing; every action below
    // keys on the packet's position and instant, so it fires where it
    // would one packet at a time.
    let mut burst = Vec::with_capacity(PlanStream::BURST);
    let mut drawn = 0u64;
    let mut more = true;
    while more {
        more = ctx.stream.next_burst(&mut burst);
        for p in &burst {
            let i = drawn;
            drawn += 1;
            debug_assert_eq!(p.id, i, "packet id is the plan position");
            // `validate` keeps the expected count at half this bound.
            assert!(
                i <= u64::from(u32::MAX),
                "npexec numbers plan positions in 32 bits"
            );
            while let Some(&(at, action)) = faults.get(next_fault) {
                if at > p.at {
                    break;
                }
                next_fault += 1;
                r.fire_fault(at, action, i);
            }
            while let Some(&f) = ctx.forced.get(next_forced) {
                if f.after_packets > i {
                    break;
                }
                next_forced += 1;
                r.try_migrate(f.group, f.to_worker);
            }
            if to_check == 0 {
                to_check = ctx.rebalance_every;
                r.rebalance(ctx.imbalance_ratio);
            }
            to_check -= 1;
            let flow = p.slot.index();
            let group = if p.flow_seq == 0 {
                // A flow's first packet: hash it, and grow the per-flow
                // state (slots are dense in stream order).
                if flow >= watched {
                    watched = ctx.seq_watch.publish_through(flow);
                }
                let g = r.table.bucket_of(p.flow);
                debug_assert_eq!(flow, group_of_flow.len(), "first packet of a new slot");
                group_of_flow.push(g);
                last_core.push(NO_CORE);
                g
            } else {
                group_of_flow.get(flow).copied().unwrap_or(0)
            };
            let g = group as usize;
            let owner = r.table.cores().get(g).copied().unwrap_or(0);
            // The worker the flow's previous packet went to, if another.
            let moved_from = last_core.get_mut(flow).and_then(|lc| {
                let prev = std::mem::replace(lc, owner as u32);
                (prev != NO_CORE && prev as usize != owner).then_some(prev as usize)
            });
            let migrated = moved_from.is_some();
            let arrived = SimEvent::PacketArrived {
                id: i,
                slot: p.slot,
                service: p.service,
                size: p.size,
            };
            r.out.events.observe(i as u32, p.at, arrived);
            let desc = ExecDesc {
                pos: i as u32,
                slot: p.slot,
                // A flow's sequence number is below the position.
                flow_seq: p.flow_seq as u32,
                group,
                size: p.size,
                service: p.service,
                migrated,
                at: p.at,
            };
            // The table names only existing workers.
            let Some(pr) = r.producers.get_mut(owner) else {
                unreachable!("worker {owner} has no ring");
            };
            push(pr, Desc::Packet(desc));
            if let Some(w) = r.win_worker.get_mut(owner) {
                *w += 1;
            }
            if let Some(w) = r.win_group.get_mut(g) {
                *w += 1;
            }
            // Only probes read it (the fold ignores it), as on detsim.
            if r.out.events.log.is_some() {
                let dispatched = SimEvent::Dispatched {
                    id: i,
                    slot: p.slot,
                    service: p.service,
                    core: owner,
                    queue_len: pr.len(),
                    migrated,
                };
                r.out.events.observe(i as u32, p.at, dispatched);
            }
            if let Some(from) = moved_from {
                let ev = SimEvent::Migration {
                    slot: p.slot,
                    from,
                    to: owner,
                };
                r.out.events.observe(i as u32, p.at, ev);
            }
        }
    }
    // Actions scheduled after the last arrival still fire (the detsim
    // engine fires them before the horizon; a crash waits for its
    // worker's crash step, so even a trailing one completes before `done`).
    while let Some(&(at, action)) = faults.get(next_fault) {
        next_fault += 1;
        r.fire_fault(at, action, drawn);
    }
    r.out
}

/// Zero-filled load window; allocated once per dispatch run, outside
/// the per-packet loop.
fn build_window(len: usize) -> Vec<u64> {
    vec![0; len]
}

/// Push `desc` to the ring, spinning (with periodic yields) until the
/// worker makes room.
fn push(pr: &mut Ring, mut desc: Desc<ExecDesc>) {
    let mut spins = 0u32;
    while let Err(back) = pr.try_push(desc) {
        desc = back;
        spins += 1;
        if spins >= 256 {
            std::thread::yield_now();
            spins = 0;
        } else {
            std::hint::spin_loop();
        }
    }
}
