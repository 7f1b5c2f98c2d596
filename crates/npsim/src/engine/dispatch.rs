//! Per-flow dispatch state: the struct-of-arrays [`FlowTable`] (last-core
//! memory, SCR replica sets). The scheduling decision itself is one call
//! in `Engine::on_arrival`, over the service stage's queue view; the
//! per-flow arrival sequence numbers are the ingest stage's, numbered at
//! admission.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

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
pub(super) struct FlowTable {
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
    /// An empty table; `sync` switches on the SCR replica-set columns
    /// (only when the policy opted into a priced sync model).
    pub(super) fn new(sync: bool) -> Self {
        FlowTable {
            sync,
            ..FlowTable::default()
        }
    }

    /// Ensure slots `0..n` exist (new slots: no last core).
    pub(super) fn grow_to(&mut self, n: usize) {
        if self.last_core.len() < n {
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
    pub(super) fn sync_stale(&self, slot: FlowSlot, core: usize) -> u32 {
        let Some(r) = self.replicas.get(slot.index()) else {
            // Unreachable: grown past every admitted slot before lookup.
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
    pub(super) fn sync_touch(
        &mut self,
        slot: FlowSlot,
        core: usize,
        sync_every: u32,
    ) -> (u32, bool) {
        let idx = slot.index();
        let (Some(r), Some(n)) = (self.replicas.get_mut(idx), self.since_sync.get_mut(idx)) else {
            // Unreachable: grown past every admitted slot before lookup.
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

    /// Start the cache fill for the flow's last-core entry (batched
    /// mode: issued when the next arrival is known but not yet
    /// processed, so the fill has ~one inter-arrival gap of lead time).
    #[inline]
    pub(super) fn prefetch(&self, slot: FlowSlot) {
        if let Some(c) = self.last_core.get(slot.index()) {
            crate::mem::prefetch_read(c);
        }
    }

    /// The core the flow's previous packet was enqueued to, if any.
    pub(super) fn last_core(&self, slot: FlowSlot) -> Option<usize> {
        self.last_core
            .get(slot.index())
            .and_then(|&c| (c != NO_CORE).then_some(c as usize))
    }

    /// Record the core the flow's packet was just enqueued to.
    pub(super) fn set_last_core(&mut self, slot: FlowSlot, core: usize) {
        if let Some(c) = self.last_core.get_mut(slot.index()) {
            *c = core as u32;
        } else {
            debug_assert!(false, "flow table not grown to slot {slot:?}");
        }
    }
}
