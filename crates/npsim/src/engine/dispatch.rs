//! Dispatch stage: per-flow state and the scheduling decision.
//!
//! Owns the scheduling policy, the struct-of-arrays flow table (arrival
//! sequence numbers and last-core memory), and the incrementally
//! maintained per-core [`QueueInfo`] view handed to the policy.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::packet::PacketDesc;
use crate::sched::{QueueInfo, RepairOutcome, SchedEvent, Scheduler, SystemView};
use nphash::FlowSlot;

/// Sentinel in [`FlowTable::last_core`]: the flow has not been enqueued
/// anywhere yet.
const NO_CORE: u32 = u32::MAX;

/// Cores the SCR replica bitmap can tell apart (one bit each). The
/// engine refuses to enable the sync model on a larger machine rather
/// than fold cores onto shared bits and under-charge.
pub(super) const MAX_SYNC_CORES: usize = u64::BITS as usize;

/// Struct-of-arrays per-flow state, indexed by [`FlowSlot`] — the
/// hash-free replacement for the former `DetHashMap<FlowId, _>` pair.
/// One predictable array access per packet per field.
#[derive(Debug, Default)]
struct FlowTable {
    /// Next arrival sequence number per flow.
    seq: Vec<u64>,
    /// Core the flow's last packet was enqueued to (`NO_CORE` = none).
    last_core: Vec<u32>,
    /// SCR replica set per flow: bit `c` set when core `c` touched the
    /// flow since its last consolidation (`c <` [`MAX_SYNC_CORES`]).
    /// Grown (and paid for) only when the engine enabled the sync model
    /// — empty otherwise, the same dormant-vector pattern as the fault
    /// machinery.
    replicas: Vec<u64>,
    /// Packets dispatched since the flow's last consolidation (drives
    /// `SyncPolicy::sync_every`). Grown alongside `replicas`.
    since_sync: Vec<u32>,
    /// Whether the SCR columns above are maintained.
    sync: bool,
}

impl FlowTable {
    /// Ensure slots `0..n` exist (new slots: seq 0, no last core).
    fn grow_to(&mut self, n: usize) {
        if self.seq.len() < n {
            self.seq.resize(n, 0);
            self.last_core.resize(n, NO_CORE);
            if self.sync {
                self.replicas.resize(n, 0);
                self.since_sync.resize(n, 0);
            }
        }
    }

    /// The stale-replica count a dispatch of `slot` to `core` would pay:
    /// how many *other* cores hold the flow's state since the last
    /// consolidation. Read-only — the engine stamps the surcharge at
    /// dispatch but records the touch (via [`FlowTable::sync_touch`])
    /// only if the packet is actually accepted into a queue, so a
    /// drop-tailed packet neither dirties the replica set nor shows up
    /// in the sync totals.
    ///
    /// One bitmap bit per core: the count is exact, because
    /// `Engine::with_probes` rejects the sync model above
    /// [`MAX_SYNC_CORES`] cores (the `& 63` only keeps the shift total).
    fn sync_stale(&self, slot: FlowSlot, core: usize) -> u32 {
        let Some(r) = self.replicas.get(slot.index()) else {
            // Unreachable: grown to the interner's length before lookup.
            debug_assert!(false, "flow table not grown to slot {slot:?}");
            return 0;
        };
        (*r & !(1u64 << (core & 63))).count_ones()
    }

    /// SCR bookkeeping for an *accepted* dispatch of `slot` to `core`:
    /// record the touch and consolidate when `sync_every` is reached.
    /// Returns `(stale_replicas, consolidated)`; the stale count equals
    /// what [`FlowTable::sync_stale`] reported for the same dispatch
    /// (nothing runs between the stamp and the commit).
    fn sync_touch(&mut self, slot: FlowSlot, core: usize, sync_every: u32) -> (u32, bool) {
        let idx = slot.index();
        let (Some(r), Some(n)) = (self.replicas.get_mut(idx), self.since_sync.get_mut(idx)) else {
            // Unreachable: grown to the interner's length before lookup.
            debug_assert!(false, "flow table not grown to slot {slot:?}");
            return (0, false);
        };
        let bit = 1u64 << (core & 63);
        let stale = (*r & !bit).count_ones();
        *r |= bit;
        *n = n.saturating_add(1);
        if sync_every != 0 && *n >= sync_every {
            *r = bit;
            *n = 0;
            (stale, true)
        } else {
            (stale, false)
        }
    }

    /// Fetch-and-increment the flow's arrival sequence counter.
    fn next_seq(&mut self, slot: FlowSlot) -> u64 {
        match self.seq.get_mut(slot.index()) {
            Some(s) => {
                let v = *s;
                *s += 1;
                v
            }
            None => {
                // Unreachable: the table is grown to the interner's length
                // before any lookup.
                debug_assert!(false, "flow table not grown to slot {slot:?}");
                0
            }
        }
    }

    /// The core the flow's previous packet was enqueued to, if any.
    fn last_core(&self, slot: FlowSlot) -> Option<usize> {
        self.last_core
            .get(slot.index())
            .and_then(|&c| (c != NO_CORE).then_some(c as usize))
    }

    /// Record the core the flow's packet was just enqueued to.
    fn set_last_core(&mut self, slot: FlowSlot, core: usize) {
        if let Some(c) = self.last_core.get_mut(slot.index()) {
            *c = core as u32;
        } else {
            debug_assert!(false, "flow table not grown to slot {slot:?}");
        }
    }
}

#[derive(Debug)]
pub(super) struct DispatchStage<S> {
    scheduler: S,
    /// Per-flow state (arrival seq, last core), slot-indexed.
    flows: FlowTable,
    /// Per-core scheduler view, maintained **incrementally**: only the
    /// core an event touched is resynced (one entry per event instead of
    /// an `n_cores` rebuild per arrival), and the buffer itself is
    /// steady-state allocation-free.
    infos: Vec<QueueInfo>,
}

impl<S: Scheduler> DispatchStage<S> {
    pub(super) fn new(scheduler: S, infos: Vec<QueueInfo>) -> Self {
        DispatchStage {
            scheduler,
            flows: FlowTable::default(),
            infos,
        }
    }

    /// Ensure the flow table covers `n` interned flows.
    pub(super) fn grow_flows(&mut self, n: usize) {
        self.flows.grow_to(n);
    }

    /// Switch on the flow table's SCR replica-set columns. Called once
    /// at engine construction, before any flow is interned, and only
    /// when the policy opted into a priced sync model.
    pub(super) fn enable_sync(&mut self) {
        self.flows.sync = true;
    }

    /// SCR peek passthrough (see `FlowTable::sync_stale`).
    pub(super) fn sync_stale(&self, slot: FlowSlot, core: usize) -> u32 {
        self.flows.sync_stale(slot, core)
    }

    /// SCR bookkeeping passthrough (see `FlowTable::sync_touch`).
    pub(super) fn sync_touch(
        &mut self,
        slot: FlowSlot,
        core: usize,
        sync_every: u32,
    ) -> (u32, bool) {
        self.flows.sync_touch(slot, core, sync_every)
    }

    /// Fetch-and-increment the flow's arrival sequence counter.
    pub(super) fn next_seq(&mut self, slot: FlowSlot) -> u64 {
        self.flows.next_seq(slot)
    }

    /// The core the flow's previous packet was enqueued to, if any.
    pub(super) fn last_core(&self, slot: FlowSlot) -> Option<usize> {
        self.flows.last_core(slot)
    }

    /// Record the core the flow's packet was just enqueued to.
    pub(super) fn set_last_core(&mut self, slot: FlowSlot, core: usize) {
        self.flows.set_last_core(slot, core);
    }

    /// Start cache fills for the flow's table entries (batched mode:
    /// issued when the next arrival is known but not yet processed, so
    /// the fill has ~one inter-arrival gap of lead time).
    #[inline]
    pub(super) fn prefetch_flow(&self, slot: FlowSlot) {
        if let Some(s) = self.flows.seq.get(slot.index()) {
            crate::mem::prefetch_read(s);
        }
        if let Some(c) = self.flows.last_core.get(slot.index()) {
            crate::mem::prefetch_read(c);
        }
    }

    /// Ask the policy for a target core. The view is maintained
    /// incrementally (see [`DispatchStage::set_info`]); it is briefly
    /// moved out so the scheduler can borrow it alongside the policy.
    ///
    /// # Panics
    /// Panics if the policy returns a core index `>= n_cores`.
    pub(super) fn choose_core(
        &mut self,
        pkt: &PacketDesc,
        now: detsim::SimTime,
        n_cores: usize,
    ) -> usize {
        let infos = std::mem::take(&mut self.infos);
        let view = SystemView {
            now,
            queues: &infos,
        };
        let target = self.scheduler.schedule(pkt, &view);
        self.infos = infos;
        assert!(target < n_cores, "scheduler returned core {target}");
        target
    }

    /// Resync one core's view entry after the service stage mutated it.
    #[inline]
    pub(super) fn set_info(&mut self, core: usize, info: QueueInfo) {
        if let Some(slot) = self.infos.get_mut(core) {
            *slot = info;
        }
    }

    /// Congestion feedback passthrough to the policy.
    pub(super) fn on_drop(&mut self, pkt: &PacketDesc, core: usize) {
        self.scheduler.on_drop(pkt, core);
    }

    /// Fault passthrough: a core crashed; ask the policy to repair.
    pub(super) fn on_core_down(&mut self, core: usize) -> RepairOutcome {
        self.scheduler.on_core_down(core)
    }

    /// Fault passthrough: a core healed; the policy may re-grow onto it.
    pub(super) fn on_core_up(&mut self, core: usize) -> RepairOutcome {
        self.scheduler.on_core_up(core)
    }

    pub(super) fn name(&self) -> &str {
        self.scheduler.name()
    }

    pub(super) fn core_reallocations(&self) -> u64 {
        self.scheduler.core_reallocations()
    }

    /// Drain the policy's buffered [`SchedEvent`]s into `buf`.
    pub(super) fn drain_events_into(&mut self, buf: &mut Vec<SchedEvent>) {
        self.scheduler.drain_events(&mut |ev| buf.push(ev));
    }

    pub(super) fn scheduler_ref(&self) -> &S {
        &self.scheduler
    }

    pub(super) fn into_scheduler(self) -> S {
        self.scheduler
    }

    /// The maintained view, for invariant checking.
    #[cfg(feature = "invariants")]
    pub(super) fn infos(&self) -> &[QueueInfo] {
        &self.infos
    }
}
