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
//!    (with `migrated` set when the flow changed cores),
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
//! The dispatcher's events go to its [`EventSink`]: a `PacketArrived`
//! per routed packet, a `Dropped` per full-ring drop, a `Migration` per
//! handshake begun and a `CoreCrashed` or `CoreHealed` per crash or heal
//! carried out, stamped with the plan entry's instant as detsim stamps
//! them. With probes attached it also observes a `Dispatched` per push,
//! which only probes read (detsim publishes it only to probes too);
//! from those a `FaultProbe` counts the flows resident on a crashed
//! worker and moved off it. Its fault counters go in one [`FaultStats`].
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
use nphash::{FlowSlot, MapTable};
use npsim::{FaultAction, FaultStats, PlanStream, SimEvent};

use crate::plan::{ExecDesc, SeqWatch};
use crate::worker::{CMD_CRASH, CMD_PAUSED};
use crate::{EventSink, ForcedMigration, FullPolicy};

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
    /// What to do at a full ring.
    pub full_policy: FullPolicy,
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
    /// `Dispatched` per push (with probes attached), a `Dropped` per
    /// full-ring drop, a `Migration` per load or forced handshake begun,
    /// a `CoreCrashed` or `CoreHealed` per crash or heal.
    pub events: EventSink,
    /// Handshakes not begun because the group's handshake was still in
    /// flight or the old owner's ring was full: load and forced
    /// migrations, and retired buckets a heal could not restore (those
    /// stay on their replacement).
    pub aborted: u64,
    /// The map table's redirect epoch after the run (marked handshakes
    /// only: crash retirement and heal restore do not bump it).
    pub final_epoch: u64,
    /// Fault accounting, `fault_drops` aside (the workers drop, and the
    /// backend adds theirs at join). Every crash and heal is repaired:
    /// the pause protocol has no unrepaired path. `redirects` counts
    /// packets routed to a bucket while it was crash-remapped away
    /// from its dead owner (the analogue of detsim's degradation-path
    /// redirects).
    pub faults: FaultStats,
}

/// Fault-run bookkeeping local to the dispatcher.
struct FaultState {
    live: Vec<bool>,
    live_count: usize,
    /// Per group: currently mapped away from its crashed owner.
    crash_remapped: Vec<bool>,
    /// Per worker: buckets retired at its last crash (for heal restore).
    retired_of: Vec<Vec<u32>>,
}

impl FaultState {
    fn new(workers: usize, groups: usize) -> Self {
        Self {
            live: vec![true; workers],
            live_count: workers,
            crash_remapped: vec![false; groups],
            retired_of: vec![Vec::new(); workers],
        }
    }
}

/// The dispatcher's routing state for one run: what the packet loop,
/// the migrations and the fault actions act on.
struct Router<'a> {
    table: MapTable<usize>,
    producers: Vec<Ring>,
    board: GroupBoard,
    full_policy: FullPolicy,
    ctrl: Option<&'a [AtomicU64]>,
    /// Per-worker and per-group load since the last imbalance check.
    win_worker: Vec<u64>,
    win_group: Vec<u64>,
    fs: FaultState,
    out: DispatchOutcome,
}

impl Router<'_> {
    /// Begin a group migration if the handshake permits; records the
    /// outcome either way. Order matters: the mark must land in the old
    /// ring *before* the redirect, or a packet routed to the new owner
    /// could slip ahead of the mark's release. `pos` and `at` are the
    /// position and instant of the packet it begins before.
    fn try_migrate(&mut self, pos: u64, at: SimTime, group: u64, to: usize) {
        let Some(&from) = self.table.cores().get(group as usize) else {
            return;
        };
        if from == to || !self.fs.live.get(to).copied().unwrap_or(false) {
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
        self.table.redirect_bucket(group as u32, to);
        // A handshake moves the whole bucket: the group id stands in the
        // slot field.
        let slot = FlowSlot::new(group as u32);
        let ev = SimEvent::Migration { slot, from, to };
        self.out.events.observe(pos as u32, at, ev);
    }

    /// One imbalance check: if the busiest worker's window load exceeds
    /// `ratio ×` the least busy worker's, migrate the busiest group it
    /// owns to the least busy worker. Dead workers are excluded from
    /// both ends of the comparison. Windows reset afterwards.
    fn rebalance(&mut self, ratio: f64, pos: u64, at: SimTime) {
        let mut max_w = usize::MAX;
        let mut max_l = 0u64;
        let mut min_w = usize::MAX;
        let mut min_l = u64::MAX;
        for (w, &l) in self.win_worker.iter().enumerate() {
            if !self.fs.live.get(w).copied().unwrap_or(false) {
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
                self.try_migrate(pos, at, g, min_w);
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
                if !self.fs.live.get(core).copied().unwrap_or(false) || self.fs.live_count <= 1 {
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
                // Re-home round-robin onto the live workers, minimum
                // migration (`retire_core`), then point each bucket at its
                // new owner before any packet of it is routed there.
                let repl: Vec<usize> = self
                    .fs
                    .live
                    .iter()
                    .enumerate()
                    .filter(|&(w, &l)| l && w != core)
                    .map(|(w, _)| w)
                    // npcheck: allow(blocking-hot-path) — crash repair cold path, runs once per fault entry
                    .collect();
                let buckets = self.table.retire_core(core, &repl);
                for &b in &buckets {
                    if let Some(&to) = self.table.cores().get(b as usize) {
                        self.board.point(b as usize, to);
                    }
                    if let Some(r) = self.fs.crash_remapped.get_mut(b as usize) {
                        *r = true;
                    }
                }
                if let Some(l) = self.fs.live.get_mut(core) {
                    *l = false;
                }
                self.fs.live_count -= 1;
                if let Some(r) = self.fs.retired_of.get_mut(core) {
                    *r = buckets;
                }
                self.out.faults.crashes += 1;
                self.out.faults.repairs += 1;
                let ev = SimEvent::CoreCrashed { core };
                self.out.events.observe(pos as u32, at, ev);
            }
            FaultAction::Heal { core } => {
                if self.fs.live.get(core).copied().unwrap_or(true) {
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
                if let Some(l) = self.fs.live.get_mut(core) {
                    *l = true;
                }
                self.fs.live_count += 1;
                // Restore: ordinary marked handshakes move each retired
                // bucket home from its live replacement, then restore_core
                // reinstates the exact pre-crash mapping for those buckets.
                let buckets = self
                    .fs
                    .retired_of
                    .get_mut(core)
                    .map(std::mem::take)
                    .unwrap_or_default();
                // npcheck: allow(blocking-hot-path) — heal cold path, runs once per fault entry
                let mut restored = Vec::with_capacity(buckets.len());
                for &b in &buckets {
                    let mut waits = 0u32;
                    while self.board.in_flight(b as usize) && waits < RESTORE_WAIT_YIELDS {
                        waits += 1;
                        std::thread::yield_now();
                    }
                    if self.board.in_flight(b as usize) {
                        self.out.aborted += 1;
                        continue;
                    }
                    let Some(&cur) = self.table.cores().get(b as usize) else {
                        continue;
                    };
                    if cur == core {
                        continue;
                    }
                    if !push_full_policy(
                        &mut self.producers,
                        cur,
                        Desc::Mark(u64::from(b)),
                        self.full_policy,
                    ) {
                        // DropAfter gave up on the restore mark: the bucket
                        // stays on its replacement — degradation, counted.
                        self.out.aborted += 1;
                        continue;
                    }
                    self.board.point(b as usize, core);
                    self.board.begin(b as usize);
                    if let Some(r) = self.fs.crash_remapped.get_mut(b as usize) {
                        *r = false;
                    }
                    // npcheck: allow(blocking-hot-path) — heal cold path, runs once per fault entry
                    restored.push(b);
                }
                self.table.restore_core(core, &restored);
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
        full_policy: ctx.full_policy,
        ctrl: ctx.ctrl,
        win_worker: build_window(workers),
        win_group: build_window(groups),
        fs: FaultState::new(workers, groups),
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
    let faults_on = !faults.is_empty();

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
                r.try_migrate(i, p.at, f.group, f.to_worker);
            }
            if to_check == 0 {
                to_check = ctx.rebalance_every;
                r.rebalance(ctx.imbalance_ratio, i, p.at);
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
            if faults_on && r.fs.crash_remapped.get(g).copied().unwrap_or(false) {
                r.out.faults.redirects += 1;
            }
            let migrated = match last_core.get_mut(flow) {
                Some(lc) => {
                    let moved = *lc != NO_CORE && *lc as usize != owner;
                    *lc = owner as u32;
                    moved
                }
                None => false,
            };
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
            if push_full_policy(&mut r.producers, owner, Desc::Packet(desc), r.full_policy) {
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
                        queue_len: r.producers.get(owner).map_or(0, Ring::len),
                        migrated,
                    };
                    r.out.events.observe(i as u32, p.at, dispatched);
                }
            } else {
                let dropped = SimEvent::Dropped {
                    id: i,
                    slot: p.slot,
                    service: p.service,
                    core: owner,
                };
                r.out.events.observe(i as u32, p.at, dropped);
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
    r.out.final_epoch = r.table.epoch();
    r.out
}

/// Zero-filled load window; allocated once per dispatch run, outside
/// the per-packet loop.
fn build_window(len: usize) -> Vec<u64> {
    vec![0; len]
}

/// Push `desc` to `owner`'s ring under the configured full policy.
/// Returns whether the descriptor was enqueued.
fn push_full_policy(
    producers: &mut [Ring],
    owner: usize,
    desc: Desc<ExecDesc>,
    full_policy: FullPolicy,
) -> bool {
    let Some(pr) = producers.get_mut(owner) else {
        return false;
    };
    let mut desc = desc;
    let mut tries = 0u32;
    let mut spins = 0u32;
    loop {
        match pr.try_push(desc) {
            Ok(()) => return true,
            Err(back) => {
                desc = back;
                match full_policy {
                    FullPolicy::Backpressure => {
                        spins += 1;
                        if spins >= 256 {
                            std::thread::yield_now();
                            spins = 0;
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                    FullPolicy::DropAfter(n) => {
                        tries += 1;
                        if tries > n {
                            return false;
                        }
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }
}
