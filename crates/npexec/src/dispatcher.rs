//! The dispatcher loop: draw the offered stream, route each packet into
//! a per-worker ring, drive flow-group migrations through the
//! handshake, and fire fault plan actions as the stream reaches them.
//!
//! The dispatcher is the frame manager of the thread-per-core runtime.
//! It owns the service's `MapTable` (bucket == flow group) and the
//! [`PlanStream`], and draws each packet when it dispatches it:
//!
//! 1. find the packet's group (one CRC16 on the flow's first packet,
//!    kept in a per-flow table that grows as flows appear) and look up
//!    the owning worker,
//! 2. push the packet's [`ExecDesc`] by value into that worker's ring
//!    (with `migrated` set when the flow changed cores),
//! 3. periodically compare per-worker load over a window and migrate
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
//! A fault action scheduled at `t` fires just before the first packet
//! that arrives at or after `t` — the exact analogue of detsim priming
//! the plan into its event queue, including the
//! fault-before-same-time-arrival tie-break — and its plan position is
//! that packet's. The crash protocol is documented on
//! [`worker`](crate::worker); the dispatcher's half is: on a crash, set
//! the worker's crash bit, wait for its pause, publish the new owners
//! and `retire_core`; on a heal, resume the worker and `restore_core`
//! behind ordinary marked handshakes; route nothing to a dead worker in
//! between.
//!
//! This file is hot path (the attribute below): no panicking indexing,
//! no allocation-amplifying calls inside the per-packet loop (the
//! per-flow tables grow, amortised, on a flow's first packet; the fault
//! paths are cold — once per plan entry — and carry allow comments).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use detsim::SimTime;
use laps::spsc::{Desc, Producer};
use laps::GroupBoard;
use nphash::MapTable;
use npsim::{FaultAction, PlanStream};

use crate::plan::{ExecDesc, SeqWatch};
use crate::worker::{CMD_CRASH, CMD_PAUSED};
use crate::{CrashEpisode, ForcedMigration, FullPolicy};

/// A ring producer of packet descriptors.
type Ring = Producer<ExecDesc>;

/// "Flow has not been dispatched yet" sentinel for the last-core ledger.
const NO_CORE: u32 = u32::MAX;

/// Yields to wait for a retired bucket's handshake to clear before a
/// heal-restore skips it (pure scheduling-progress bound, no clock).
const RESTORE_WAIT_YIELDS: u32 = 100_000;

/// Everything the dispatcher owns or borrows for one run.
pub(crate) struct DispatchCtx<'a> {
    /// The offered stream, drawn packet by packet.
    pub stream: PlanStream,
    /// The service's map table: bucket == group, value == worker.
    pub table: MapTable<usize>,
    /// Produce side of each worker's ring.
    pub producers: Vec<Ring>,
    /// The migration handshake scoreboard.
    pub board: GroupBoard,
    /// Per-group migration target (written before `begin`).
    pub migrating_to: &'a [AtomicUsize],
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
}

/// The dispatcher's ledger for one run.
#[derive(Debug, Default)]
pub(crate) struct DispatchOutcome {
    /// Offered packets per [`ServiceKind::index`](nptraffic::ServiceKind::index).
    pub offered: [u64; 4],
    /// `(plan position, owner at drop)` of packets dropped at a full ring.
    pub dropped: Vec<(u64, u32)>,
    /// Full-ring drops per service index.
    pub dropped_per_service: [u64; 4],
    /// Packets whose flow changed cores at dispatch (the detsim
    /// `migrated_packets` definition).
    pub migrated_packets: u64,
    /// Completed handshake begins: `(group, from, to)`.
    pub migrations: Vec<(u64, usize, usize)>,
    /// Handshakes abandoned (in-flight collision or full old ring).
    pub aborted: u64,
    /// The map table's redirect epoch after the run (marked handshakes
    /// only — crash retirement/restore is tracked by `episodes`).
    pub final_epoch: u64,
    /// Packets that waited at least one full-ring retry under
    /// [`FullPolicy::Backpressure`].
    pub backpressured: u64,
    /// Fault plan entries fired.
    pub injected: u64,
    /// Crashes applied (live worker paused + buckets re-homed).
    pub crashes: u64,
    /// Heals applied (worker resumed + buckets restored).
    pub heals: u64,
    /// Packets dispatched to a bucket while it was crash-remapped away
    /// from its dead owner (the npexec analogue of detsim's
    /// degradation-path redirects).
    pub redirects: u64,
    /// One ledger per crash, in crash order.
    pub episodes: Vec<CrashEpisode>,
}

/// Begin a group migration if the handshake permits; records the
/// outcome either way. Order matters: the mark must land in the old
/// ring *before* the redirect, or a packet routed to the new owner
/// could slip ahead of the mark's release.
#[allow(clippy::too_many_arguments)]
fn try_migrate(
    table: &mut MapTable<usize>,
    producers: &mut [Ring],
    board: &GroupBoard,
    migrating_to: &[AtomicUsize],
    live: &[bool],
    out: &mut DispatchOutcome,
    group: u64,
    to: usize,
) {
    let Some(&from) = table.cores().get(group as usize) else {
        return;
    };
    if from == to || to >= producers.len() || !live.get(to).copied().unwrap_or(false) {
        return;
    }
    if board.in_flight(group as usize) {
        // One load-driven handshake per group at a time; callers retry
        // on a later rebalance window.
        out.aborted += 1;
        return;
    }
    let Some(pr) = producers.get_mut(from) else {
        return;
    };
    if pr.try_push_mark(group).is_err() {
        // Old ring full: abort before any state changed.
        out.aborted += 1;
        return;
    }
    if let Some(t) = migrating_to.get(group as usize) {
        // A marked handshake publishes its target before `begin`'s Release
        // bump: a worker that sees it in flight sees who it is for.
        // npcheck: ordering(Release pairs with the worker's Acquire load of the target after it observes in_flight)
        t.store(to, Ordering::Release);
    }
    board.begin(group as usize);
    table.redirect_bucket(group as u32, to);
    out.migrations.push((group, from, to));
}

/// Fault-run bookkeeping local to the dispatcher.
struct FaultState {
    live: Vec<bool>,
    live_count: usize,
    /// Per group: currently mapped away from its crashed owner.
    crash_remapped: Vec<bool>,
    /// Per worker: buckets retired at its last crash (for heal restore).
    retired_of: Vec<Vec<u32>>,
    /// Per crash still inside its crash-to-heal window: its index in
    /// `out.episodes` and the per-flow residency bitmap, consumed as
    /// flows are re-sighted (so `migrated_flows <= resident_flows`).
    open: Vec<(usize, Vec<bool>)>,
}

impl FaultState {
    fn new(workers: usize, groups: usize) -> Self {
        Self {
            live: vec![true; workers],
            live_count: workers,
            crash_remapped: vec![false; groups],
            retired_of: vec![Vec::new(); workers],
            open: Vec::new(),
        }
    }
}

/// Apply one fault action at plan position `pos`. Cold path: runs once
/// per plan entry, never per packet. `last_core` covers the flows seen
/// so far; a later flow is resident nowhere.
#[allow(clippy::too_many_arguments)]
fn fire_fault(
    action: FaultAction,
    pos: u64,
    fs: &mut FaultState,
    table: &mut MapTable<usize>,
    producers: &mut [Ring],
    board: &GroupBoard,
    migrating_to: &[AtomicUsize],
    last_core: &[u32],
    ctrl: Option<&[AtomicU64]>,
    full_policy: FullPolicy,
    out: &mut DispatchOutcome,
) {
    out.injected += 1;
    match action {
        FaultAction::Crash { core } => {
            if !fs.live.get(core).copied().unwrap_or(false) || fs.live_count <= 1 {
                // Already dead, or the last live worker (validate
                // rejects such plans; this is the runtime belt).
                return;
            }
            // Wait for the crash step before any bucket moves: the
            // worker pauses only after its last service, so every push
            // below reaches a replacement after it. A replacement that
            // inherits a marked handshake towards the dead worker reads
            // itself as the target and holds until the old owner's ack.
            if let Some(cmd) = ctrl.and_then(|c| c.get(core)) {
                // npcheck: ordering(AcqRel RMW — Release publishes every earlier push to the worker's Acquire load)
                cmd.fetch_or(CMD_CRASH, Ordering::AcqRel);
                // The crash step needs nothing from this thread.
                // npcheck: ordering(Acquire pairs with the worker's AcqRel set of CMD_PAUSED: its last service and drain happen-before the re-home)
                while cmd.load(Ordering::Acquire) & CMD_PAUSED == 0 {
                    std::thread::yield_now();
                }
            }
            // npcheck: allow(blocking-hot-path) — crash repair cold path, runs once per fault entry
            let buckets = table.buckets_of_core(core);
            // Re-home round-robin onto the live workers, minimum
            // migration (`retire_core`), each target published before
            // any packet of its bucket is routed there.
            let repl: Vec<usize> = fs
                .live
                .iter()
                .enumerate()
                .filter(|&(w, &l)| l && w != core)
                .map(|(w, _)| w)
                // npcheck: allow(blocking-hot-path) — crash repair cold path, runs once per fault entry
                .collect();
            for (bi, &b) in buckets.iter().enumerate() {
                let Some(&to) = repl.get(bi % repl.len().max(1)) else {
                    continue;
                };
                if let Some(t) = migrating_to.get(b as usize) {
                    // npcheck: ordering(Release pairs with the new owner's Acquire load of the target after it observes in_flight)
                    t.store(to, Ordering::Release);
                }
                if let Some(r) = fs.crash_remapped.get_mut(b as usize) {
                    *r = true;
                }
            }
            let retired = table.retire_core(core, &repl);
            debug_assert_eq!(retired, buckets, "retire must mirror the published targets");
            // Snapshot residency for the episode ledger.
            // npcheck: allow(blocking-hot-path) — crash repair cold path, runs once per fault entry
            let mut resident = vec![false; last_core.len()];
            let mut resident_flows = 0u64;
            for (f, &lc) in last_core.iter().enumerate() {
                if lc != NO_CORE && lc as usize == core {
                    if let Some(r) = resident.get_mut(f) {
                        *r = true;
                        resident_flows += 1;
                    }
                }
            }
            if let Some(l) = fs.live.get_mut(core) {
                *l = false;
            }
            fs.live_count -= 1;
            let buckets_rehomed = buckets.len();
            if let Some(r) = fs.retired_of.get_mut(core) {
                *r = buckets;
            }
            // npcheck: allow(blocking-hot-path) — crash repair cold path, runs once per fault entry
            fs.open.push((out.episodes.len(), resident));
            // npcheck: allow(blocking-hot-path) — crash repair cold path, runs once per fault entry
            out.episodes.push(CrashEpisode {
                core,
                crash_at_packet: pos,
                heal_at_packet: None,
                resident_flows,
                migrated_flows: 0,
                buckets_rehomed,
                restore_skipped: 0,
                recovery_at_packet: None,
            });
            out.crashes += 1;
        }
        FaultAction::Heal { core } => {
            if fs.live.get(core).copied().unwrap_or(true) {
                return;
            }
            let Some(cmd) = ctrl.and_then(|c| c.get(core)) else {
                return;
            };
            // The crash waited for the pause, so the crash step is done.
            // Resume with a zero word: no crash, no pause. Its clock
            // restores full speed.
            // npcheck: ordering(Release pairs with the paused worker's Acquire load of the command word)
            cmd.store(0, Ordering::Release);
            if let Some(l) = fs.live.get_mut(core) {
                *l = true;
            }
            fs.live_count += 1;
            // Restore: ordinary marked handshakes move each retired
            // bucket home from its live replacement, then restore_core
            // reinstates the exact pre-crash mapping for those buckets.
            let buckets = fs
                .retired_of
                .get_mut(core)
                .map(std::mem::take)
                .unwrap_or_default();
            // npcheck: allow(blocking-hot-path) — heal cold path, runs once per fault entry
            let mut restored = Vec::with_capacity(buckets.len());
            for &b in &buckets {
                let mut waits = 0u32;
                while board.in_flight(b as usize) && waits < RESTORE_WAIT_YIELDS {
                    waits += 1;
                    std::thread::yield_now();
                }
                if board.in_flight(b as usize) {
                    bump_restore_skipped(out, core);
                    continue;
                }
                let Some(&cur) = table.cores().get(b as usize) else {
                    continue;
                };
                if cur == core {
                    continue;
                }
                if !push_full_policy(
                    producers,
                    cur,
                    Desc::Mark(u64::from(b)),
                    full_policy,
                    &mut out.backpressured,
                ) {
                    // DropAfter gave up on the restore mark: the bucket
                    // stays on its replacement — degradation, counted.
                    bump_restore_skipped(out, core);
                    continue;
                }
                if let Some(t) = migrating_to.get(b as usize) {
                    // npcheck: ordering(Release pairs with the healed worker's Acquire load of the target after it observes in_flight)
                    t.store(core, Ordering::Release);
                }
                board.begin(b as usize);
                if let Some(r) = fs.crash_remapped.get_mut(b as usize) {
                    *r = false;
                }
                // npcheck: allow(blocking-hot-path) — heal cold path, runs once per fault entry
                restored.push(b);
            }
            table.restore_core(core, &restored);
            // Close the core's open episode (a core crashes again only
            // after a heal, so it has exactly one).
            let episodes = &mut out.episodes;
            fs.open.retain(|&(e, _)| match episodes.get_mut(e) {
                Some(ep) if ep.core == core => {
                    ep.heal_at_packet = Some(pos);
                    false
                }
                _ => true,
            });
            out.heals += 1;
        }
        // Each worker's clock reads its throttles and stalls off the plan.
        FaultAction::Throttle { .. } | FaultAction::Stall { .. } => {}
    }
}

fn bump_restore_skipped(out: &mut DispatchOutcome, core: usize) {
    for ep in out.episodes.iter_mut().rev() {
        if ep.core == core {
            ep.restore_skipped += 1;
            return;
        }
    }
}

/// Draw and dispatch the stream to completion; returns the dispatch
/// ledger.
pub(crate) fn run(ctx: DispatchCtx<'_>) -> DispatchOutcome {
    let DispatchCtx {
        mut stream,
        mut table,
        mut producers,
        board,
        migrating_to,
        seq_watch,
        rebalance_every,
        imbalance_ratio,
        full_policy,
        forced,
        faults,
        ctrl,
    } = ctx;
    let mut out = DispatchOutcome::default();
    let workers = producers.len();
    // Per-flow state, grown as flows appear: the group (hashed once per
    // flow) and the last worker a packet of the flow went to.
    let mut group_of_flow: Vec<u32> = Vec::new();
    let mut last_core: Vec<u32> = Vec::new();
    let mut watched = 0usize;
    // Load windows for the imbalance check, reset every window.
    let mut win_worker = build_window(workers);
    let mut win_group = build_window(table.len());
    let mut next_forced = 0usize;
    let mut next_fault = 0usize;
    let faults_on = !faults.is_empty();
    let mut fs = FaultState::new(workers, table.len());

    let mut drawn = 0u64;
    for p in &mut stream {
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
            fire_fault(
                action,
                i,
                &mut fs,
                &mut table,
                &mut producers,
                &board,
                migrating_to,
                &last_core,
                ctrl,
                full_policy,
                &mut out,
            );
        }
        while let Some(f) = forced.get(next_forced) {
            if f.after_packets > i {
                break;
            }
            next_forced += 1;
            try_migrate(
                &mut table,
                &mut producers,
                &board,
                migrating_to,
                &fs.live,
                &mut out,
                f.group,
                f.to_worker,
            );
        }
        if rebalance_every > 0 && i > 0 && i.is_multiple_of(rebalance_every) {
            rebalance(
                &mut table,
                &mut producers,
                &board,
                migrating_to,
                &fs.live,
                &mut out,
                &mut win_worker,
                &mut win_group,
                imbalance_ratio,
            );
        }
        let flow = p.slot.index();
        let group = if p.flow_seq == 0 {
            // A flow's first packet: hash it, and grow the per-flow
            // state (slots are dense in stream order).
            if flow >= watched {
                watched = seq_watch.publish_through(flow);
            }
            let g = table.bucket_of(p.flow);
            debug_assert_eq!(flow, group_of_flow.len(), "first packet of a new slot");
            group_of_flow.push(g);
            last_core.push(NO_CORE);
            g
        } else {
            group_of_flow.get(flow).copied().unwrap_or(0)
        };
        let g = group as usize;
        let owner = table.cores().get(g).copied().unwrap_or(0);
        if faults_on {
            if fs.crash_remapped.get(g).copied().unwrap_or(false) {
                out.redirects += 1;
            }
            for (e, resident) in fs.open.iter_mut() {
                let Some(r) = resident.get_mut(flow).filter(|r| **r) else {
                    continue;
                };
                *r = false;
                if let Some(ep) = out.episodes.get_mut(*e).filter(|ep| ep.core != owner) {
                    ep.migrated_flows += 1;
                }
            }
        }
        let migrated = match last_core.get_mut(flow) {
            Some(lc) => {
                let moved = *lc != NO_CORE && *lc as usize != owner;
                *lc = owner as u32;
                moved
            }
            None => false,
        };
        if migrated {
            out.migrated_packets += 1;
        }
        let service = p.service.index();
        if let Some(n) = out.offered.get_mut(service) {
            *n += 1;
        }
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
        if push_full_policy(
            &mut producers,
            owner,
            Desc::Packet(desc),
            full_policy,
            &mut out.backpressured,
        ) {
            if let Some(w) = win_worker.get_mut(owner) {
                *w += 1;
            }
            if let Some(w) = win_group.get_mut(g) {
                *w += 1;
            }
        } else {
            out.dropped.push((i, owner as u32));
            if let Some(n) = out.dropped_per_service.get_mut(service) {
                *n += 1;
            }
        }
    }
    // Actions scheduled after the last arrival still fire (the detsim
    // engine fires them before the horizon; a crash waits for its
    // worker's crash step, so even a trailing one completes before `done`).
    while let Some(&(_, action)) = faults.get(next_fault) {
        next_fault += 1;
        fire_fault(
            action,
            drawn,
            &mut fs,
            &mut table,
            &mut producers,
            &board,
            migrating_to,
            &last_core,
            ctrl,
            full_policy,
            &mut out,
        );
    }
    out.final_epoch = table.epoch();
    out
}

/// Zero-filled load window; allocated once per dispatch run, outside
/// the per-packet loop.
fn build_window(len: usize) -> Vec<u64> {
    vec![0; len]
}

/// Push `desc` to `owner`'s ring under the configured full policy.
/// Returns whether the descriptor was enqueued; `backpressured` counts
/// descriptors that waited at least one retry under
/// [`FullPolicy::Backpressure`].
fn push_full_policy(
    producers: &mut [Ring],
    owner: usize,
    desc: Desc<ExecDesc>,
    full_policy: FullPolicy,
    backpressured: &mut u64,
) -> bool {
    let Some(pr) = producers.get_mut(owner) else {
        return false;
    };
    let mut desc = desc;
    let mut tries = 0u32;
    let mut spins = 0u32;
    let mut waited = false;
    loop {
        match pr.try_push(desc) {
            Ok(()) => {
                if waited {
                    *backpressured += 1;
                }
                return true;
            }
            Err(back) => {
                desc = back;
                match full_policy {
                    FullPolicy::Backpressure => {
                        waited = true;
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

/// One imbalance check: if the busiest worker's window load exceeds
/// `ratio ×` the least busy worker's, migrate the busiest group it
/// owns to the least busy worker. Dead workers are excluded from both
/// ends of the comparison. Windows reset afterwards.
#[allow(clippy::too_many_arguments)]
fn rebalance(
    table: &mut MapTable<usize>,
    producers: &mut [Ring],
    board: &GroupBoard,
    migrating_to: &[AtomicUsize],
    live: &[bool],
    out: &mut DispatchOutcome,
    win_worker: &mut [u64],
    win_group: &mut [u64],
    ratio: f64,
) {
    let mut max_w = usize::MAX;
    let mut max_l = 0u64;
    let mut min_w = usize::MAX;
    let mut min_l = u64::MAX;
    for (w, &l) in win_worker.iter().enumerate() {
        if !live.get(w).copied().unwrap_or(false) {
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
        for (g, &n) in win_group.iter().enumerate() {
            if n > 0
                && table.cores().get(g).copied() == Some(max_w)
                && best.is_none_or(|(_, bn)| n > bn)
            {
                best = Some((g as u64, n));
            }
        }
        if let Some((g, _)) = best {
            try_migrate(table, producers, board, migrating_to, live, out, g, min_w);
        }
    }
    for w in win_worker.iter_mut() {
        *w = 0;
    }
    for w in win_group.iter_mut() {
        *w = 0;
    }
}
