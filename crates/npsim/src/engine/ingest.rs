//! Ingest stage: arrival generation and frame-manager admission.
//!
//! Owns the traffic sources (each with its private arrival-process RNG
//! stream), the flow slots (one dense table per flow namespace, and each
//! flow's arrival counter), and the packet-ID counter. Every arrival is
//! a data-plane packet: per arrival it draws the next header, assigns
//! its flow slot, and numbers it (global packet ID, per-flow sequence);
//! the inter-arrival gap draws for the *next* arrival also come from
//! here so the RNG stream per source is exactly the pre-refactor
//! sequence.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use super::batch::{alloc, Arrivals};
use super::cycles::{CycleSink, Stage};
use crate::source::{RateSpec, SourceConfig, TrafficSource};
use detsim::{SeedSequence, SimTime};
use nphash::{FlowId, FlowSlot};
use nptrace::PacketRecord;
use nptraffic::ServiceKind;
use rand::rngs::StdRng;

/// Upper bound on the batched mode's per-source lookahead (the DPDK-style
/// burst size; the runtime cap is `EngineConfig::execution`).
pub(super) const MAX_BURST: usize = 32;

/// Per-source arrival lookahead ring for the batched execution mode.
///
/// Holds up to a burst of `(absolute arrival time, raw trace record)`
/// pairs drawn ahead of their processing time. Both draws touch only the
/// source's *private* RNG streams (gaps from the arrival stream, records
/// from the trace generator), so pre-drawing cannot perturb any other
/// source or the shared flow slots — those are resolved at processing
/// time by [`IngestStage::admit_record`].
#[derive(Debug)]
struct ArrivalBuf {
    /// Absolute arrival times; FIFO across `head..len`.
    times: [SimTime; MAX_BURST],
    /// Raw trace records paired with `times`.
    records: [PacketRecord; MAX_BURST],
    head: u8,
    len: u8,
    /// Time of the most recently drawn arrival — the conceptual "now" of
    /// the next gap draw (scalar draws gap `j+1` while processing
    /// arrival `j` at exactly this time).
    cursor: SimTime,
    /// The horizon-crossing gap has been drawn: the source's arrival
    /// stream is over and `cursor` is frozen (scalar draws that crossing
    /// gap too, then never touches the source again).
    exhausted: bool,
    /// Emulated event-queue sequence number of the head entry, assigned
    /// at exactly the scalar push point (meaningless while empty).
    head_seq: u64,
}

impl ArrivalBuf {
    fn new() -> Self {
        ArrivalBuf {
            times: [SimTime::ZERO; MAX_BURST],
            records: [PacketRecord { flow: 0, size: 0 }; MAX_BURST],
            head: 0,
            len: 0,
            cursor: SimTime::ZERO,
            exhausted: false,
            head_seq: 0,
        }
    }
}

/// A traffic source paired with its private arrival-process RNG stream
/// (keeping them in one slot makes per-source access a single bounds
/// check and rules out the two parallel arrays drifting apart).
#[derive(Debug)]
struct SourceSlot {
    source: TrafficSource,
    rng: StdRng,
    /// Index of the source's namespace table in [`FlowSlots`].
    table: usize,
}

/// Sentinel in a namespace table: the flow has no slot yet.
const UNSEEN: u32 = u32::MAX;

/// The run's flow arena: every flow's dense [`FlowSlot`] and its
/// arrival counter.
///
/// A flow is its namespace plus its trace-local index — exactly what its
/// `FlowId` encodes ([`TrafficSource::flow_namespace`]) — so one dense
/// table per namespace, indexed by the trace-local index, maps every
/// flow to its slot without hashing a `FlowId`. Sources whose `FlowId`s
/// coincide (two sources on one preset, or two presets with the same
/// namespace) share a table, and so share flows, as they share
/// `FlowId`s. Slots are handed out in first-emission order through
/// [`FlowSlot::nth`], slot for slot what a hash map keyed by `FlowId`
/// would hand out for the same arrivals (pinned by the engine's
/// `tests::slots_match_a_hash_interner_replay`).
#[derive(Debug, Default)]
struct FlowSlots {
    /// Per namespace, the slot of each trace-local index (`UNSEEN` until
    /// its first arrival).
    tables: Vec<Vec<u32>>,
    /// Next arrival sequence number per slot. Its length is the number
    /// of slots handed out.
    seqs: Vec<u64>,
}

impl FlowSlots {
    /// Tables for `namespaces`, one per distinct namespace; returns the
    /// arena and each namespace's table index, in input order.
    fn new(namespaces: impl IntoIterator<Item = u32>) -> (Self, Vec<usize>) {
        let mut keys: Vec<u32> = Vec::new();
        let table_of = namespaces
            .into_iter()
            .map(|ns| {
                keys.iter().position(|&k| k == ns).unwrap_or_else(|| {
                    keys.push(ns);
                    keys.len() - 1
                })
            })
            .collect();
        let slots = FlowSlots {
            tables: vec![Vec::new(); keys.len()],
            seqs: Vec::new(),
        };
        (slots, table_of)
    }

    /// Slots handed out so far.
    fn len(&self) -> usize {
        self.seqs.len()
    }

    /// The slot of trace-local flow `local` in namespace table `table`,
    /// assigning the next dense slot on its first arrival.
    #[inline]
    fn assign(&mut self, table: usize, local: u32) -> FlowSlot {
        let Some(t) = self.tables.get_mut(table) else {
            debug_assert!(false, "unknown namespace table {table}");
            return FlowSlot::new(0);
        };
        let i = local as usize;
        match t.get(i) {
            Some(&s) if s != UNSEEN => return FlowSlot::new(s),
            Some(_) => {}
            None => t.resize(i + 1, UNSEEN),
        }
        let slot = FlowSlot::nth(self.seqs.len());
        self.seqs.push(0);
        if let Some(s) = t.get_mut(i) {
            *s = slot.raw();
        }
        slot
    }

    /// The slot of trace-local flow `local` in table `table`, if it has
    /// arrived before (read-only).
    #[inline]
    fn get(&self, table: usize, local: u32) -> Option<FlowSlot> {
        let &s = self.tables.get(table)?.get(local as usize)?;
        (s != UNSEEN).then_some(FlowSlot::new(s))
    }

    /// Best-effort software prefetch of the table entry of `local`.
    #[inline]
    fn prefetch(&self, table: usize, local: u32) {
        if let Some(s) = self.tables.get(table).and_then(|t| t.get(local as usize)) {
            crate::mem::prefetch_read(s);
        }
    }

    /// Fetch-and-increment `slot`'s arrival sequence counter.
    #[inline]
    fn next_seq(&mut self, slot: FlowSlot) -> u64 {
        match self.seqs.get_mut(slot.index()) {
            Some(s) => {
                let v = *s;
                *s += 1;
                v
            }
            None => {
                // Unreachable: every slot pushes its counter.
                debug_assert!(false, "no arrival counter for slot {slot:?}");
                0
            }
        }
    }
}

/// A packet header admitted by the ingest stage.
#[derive(Debug, Clone, Copy)]
pub(super) struct Header {
    pub flow: FlowId,
    pub slot: FlowSlot,
    pub service: ServiceKind,
    pub size: u16,
    pub id: u64,
    /// Per-flow arrival sequence number (0-based), the reorder witness.
    pub flow_seq: u64,
}

#[derive(Debug)]
pub(super) struct IngestStage {
    sources: Vec<SourceSlot>,
    /// Flow arena: namespace tables → dense slot, assigned at first
    /// emission, and the per-flow arrival counters.
    flows: FlowSlots,
    next_packet_id: u64,
    scale: f64,
    /// Per-source arrival lookahead (batched mode; empty in scalar mode).
    bursts: Vec<ArrivalBuf>,
    /// Runtime burst cap (≤ [`MAX_BURST`]); 0 until `batch_init`.
    burst_cap: usize,
    /// SoA mirror of each buffer's head arrival time (`SimTime::MAX`
    /// when drained): the batched merge scans this flat array instead of
    /// calling into every `ArrivalBuf`, so re-deriving the arrival
    /// minimum after a pop touches `n_sources × 8` contiguous bytes.
    head_times: Vec<SimTime>,
    /// SoA mirror of each head's emulated heap seq, paired with
    /// `head_times` (stale while the matching time is `MAX`).
    head_seqs: Vec<u64>,
}

impl IngestStage {
    /// Build the stage. RNG streams derive from `seq` exactly as the
    /// monolithic engine did: `indexed_rng("source", i)` per source.
    pub(super) fn new(
        seq: &SeedSequence,
        sources: &[SourceConfig],
        period_compression: f64,
        scale: f64,
    ) -> Self {
        let built: Vec<TrafficSource> = sources
            .iter()
            .map(|sc| {
                let mut sc = sc.clone();
                if let RateSpec::HoltWinters(hw) = sc.rate {
                    sc.rate = RateSpec::HoltWinters(hw.with_period_compressed(period_compression));
                }
                TrafficSource::new(&sc)
            })
            .collect();
        let (flows, tables) = FlowSlots::new(built.iter().map(TrafficSource::flow_namespace));
        let sources_built: Vec<SourceSlot> = built
            .into_iter()
            .zip(tables)
            .enumerate()
            .map(|(i, (source, table))| SourceSlot {
                source,
                rng: seq.indexed_rng("source", i),
                table,
            })
            .collect();
        IngestStage {
            sources: sources_built,
            flows,
            next_packet_id: 0,
            scale,
            bursts: Vec::new(),
            burst_cap: 0,
            head_times: Vec::new(),
            head_seqs: Vec::new(),
        }
    }

    /// Number of configured sources.
    pub(super) fn n_sources(&self) -> usize {
        self.sources.len()
    }

    /// Packet IDs handed out so far.
    pub(super) fn next_packet_id(&self) -> u64 {
        self.next_packet_id
    }

    /// Flows seen so far: slots are exactly `0..flow_count()`.
    pub(super) fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Admit one arrival from `src`: draw its record now, then slot and
    /// number it ([`IngestStage::admit_record`]). `None` for an unknown
    /// source (flagged via `debug_assert`).
    pub(super) fn admit(&mut self, src: usize) -> Option<Header> {
        let Some(slot) = self.sources.get_mut(src) else {
            debug_assert!(false, "arrival from unknown source {src}");
            return None;
        };
        let rec = slot.source.next_record();
        self.admit_record(src, rec)
    }

    /// Draw the inter-arrival gap to `src`'s next packet.
    pub(super) fn next_gap(&mut self, src: usize) -> Option<SimTime> {
        let scale = self.scale;
        let Some(slot) = self.sources.get_mut(src) else {
            debug_assert!(false, "arrival from unknown source {src}");
            return None;
        };
        Some(slot.source.draw_gap(scale, &mut slot.rng))
    }

    /// Draw the initial inter-arrival gap of every source, in source
    /// order (the run loop's priming pass).
    pub(super) fn prime_gaps(&mut self) -> Vec<(usize, SimTime)> {
        let scale = self.scale;
        let mut primed = Vec::with_capacity(self.sources.len());
        for (i, slot) in self.sources.iter_mut().enumerate() {
            let gap = slot.source.draw_gap(scale, &mut slot.rng);
            primed.push((i, gap));
        }
        primed
    }

    /// Re-sample every source's rate law at time `now`.
    pub(super) fn refresh_rates(&mut self, now: SimTime) {
        for slot in &mut self.sources {
            slot.source.refresh_rate(now, &mut slot.rng);
        }
    }

    // ---- batched-mode arrival lookahead --------------------------------
    //
    // The batched engine pre-draws up to a burst of arrivals per source.
    // Legality: gap draws consume the source's private arrival RNG, and
    // that same stream is also consumed by `refresh_rates` (Holt-Winters
    // noise) — so a gap may be drawn early only if the scalar engine
    // would also have drawn it before the next pending rate update.
    // The refill loop enforces that with a strict `cursor < barrier`
    // check; the *first* draw of a refill is exempt because a refill
    // only happens at the exact simulation point where the scalar engine
    // performs that same draw (priming, or the arrival that emptied the
    // buffer), where no refresh can intervene. Fault-plan entries touch
    // cores only, never a source, so they do not bound lookahead.

    /// Prepare the per-source lookahead rings for a batched run.
    pub(super) fn batch_init(&mut self, cap: usize) {
        self.burst_cap = cap.clamp(1, MAX_BURST);
        // Once-per-run setup before the event loop starts, not
        // per-packet work — the three allocations below are amortized
        // over the whole simulation.
        // npcheck: allow(blocking-hot-path) — once-per-run setup
        self.bursts = (0..self.sources.len()).map(|_| ArrivalBuf::new()).collect();
        // npcheck: allow(blocking-hot-path) — once-per-run setup
        self.head_times = vec![SimTime::MAX; self.sources.len()];
        // npcheck: allow(blocking-hot-path) — once-per-run setup
        self.head_seqs = vec![0; self.sources.len()];
    }

    /// Refill `src`'s lookahead buffer. Must only be called when the
    /// buffer is drained, at the scalar position of the next gap draw.
    ///
    /// `barrier` is the time of the next pending rate update (`MAX` if
    /// none): lookahead stops before any arrival whose gap the scalar
    /// engine would draw only after refreshing rates — so every draw of
    /// one refill sees the rate in force now. `horizon` is the
    /// simulation duration: a gap landing past it consumes RNG (exactly
    /// as the scalar engine's unscheduled final arrival does) but ends
    /// the source's stream for good.
    ///
    /// Returns the number of arrivals buffered.
    pub(super) fn batch_refill(&mut self, src: usize, barrier: SimTime, horizon: SimTime) -> usize {
        let scale = self.scale;
        let cap = self.burst_cap;
        let Some(buf) = self.bursts.get_mut(src) else {
            debug_assert!(false, "refill of unknown source {src}");
            return 0;
        };
        let Some(slot) = self.sources.get_mut(src) else {
            debug_assert!(false, "refill of unknown source {src}");
            return 0;
        };
        debug_assert_eq!(buf.head, buf.len, "refill with arrivals still pending");
        buf.head = 0;
        buf.len = 0;
        if buf.exhausted {
            return 0;
        }
        let mut force_first = true;
        while (buf.len as usize) < cap && (force_first || buf.cursor < barrier) {
            force_first = false;
            let gap = slot.source.draw_gap(scale, &mut slot.rng);
            let t = buf.cursor + gap;
            if t > horizon {
                // Scalar draws this gap too, then never schedules the
                // arrival — RNG consumed, no record drawn.
                buf.exhausted = true;
                break;
            }
            let rec = slot.source.next_record();
            // Start the namespace-table line fill now so the slot lookup
            // at processing time hits.
            self.flows.prefetch(slot.table, rec.flow);
            let i = buf.len as usize;
            if let (Some(ts), Some(rs)) = (buf.times.get_mut(i), buf.records.get_mut(i)) {
                *ts = t;
                *rs = rec;
            }
            buf.cursor = t;
            buf.len += 1;
        }
        let drawn = buf.len as usize;
        let head_t = if buf.len > 0 {
            buf.times.first().copied().unwrap_or(SimTime::MAX)
        } else {
            SimTime::MAX
        };
        if let Some(h) = self.head_times.get_mut(src) {
            *h = head_t;
        }
        drawn
    }

    /// True when `src`'s buffer is drained but its stream is not over —
    /// i.e. a refill is due at the current simulation point.
    pub(super) fn batch_needs_refill(&self, src: usize) -> bool {
        self.bursts
            .get(src)
            .is_some_and(|b| b.head == b.len && !b.exhausted)
    }

    /// The head arrival of `src`: `(time, emulated heap seq)`.
    pub(super) fn batch_head(&self, src: usize) -> Option<(SimTime, u64)> {
        let buf = self.bursts.get(src)?;
        if buf.head < buf.len {
            let t = buf.times.get(buf.head as usize).copied()?;
            Some((t, buf.head_seq))
        } else {
            None
        }
    }

    /// Record the emulated heap sequence number of `src`'s head arrival
    /// (assigned by the engine at the scalar push point).
    pub(super) fn batch_set_head_seq(&mut self, src: usize, seq: u64) {
        if let Some(buf) = self.bursts.get_mut(src) {
            buf.head_seq = seq;
        }
        if let Some(s) = self.head_seqs.get_mut(src) {
            *s = seq;
        }
    }

    /// Pop `src`'s head arrival record for processing.
    pub(super) fn batch_pop(&mut self, src: usize) -> Option<PacketRecord> {
        let buf = self.bursts.get_mut(src)?;
        if buf.head < buf.len {
            let rec = buf.records.get(buf.head as usize).copied()?;
            buf.head += 1;
            let head_t = if buf.head < buf.len {
                buf.times
                    .get(buf.head as usize)
                    .copied()
                    .unwrap_or(SimTime::MAX)
            } else {
                SimTime::MAX
            };
            if let Some(h) = self.head_times.get_mut(src) {
                *h = head_t;
            }
            Some(rec)
        } else {
            None
        }
    }

    /// The slot of `src`'s trace-local `flow`, if it has arrived before
    /// (read-only; used to prefetch flow-table lines).
    pub(super) fn cached_slot(&self, src: usize, flow: u32) -> Option<FlowSlot> {
        let table = self.sources.get(src)?.table;
        self.flows.get(table, flow)
    }

    /// The earliest head arrival time among the sources other than
    /// `src` (`MAX` when none has one).
    #[inline]
    pub(super) fn head_time_besides(&self, src: usize) -> SimTime {
        let mut best = SimTime::MAX;
        for (i, &t) in self.head_times.iter().enumerate() {
            if i != src {
                best = best.min(t);
            }
        }
        best
    }

    /// Admit one *pre-drawn* arrival record from `src`: assign its flow
    /// slot and number the packet (packet ID, per-flow sequence). `None`
    /// for an unknown source (flagged via `debug_assert`).
    ///
    /// This is the shared-state half of admission and must run in
    /// event-processing order.
    pub(super) fn admit_record(&mut self, src: usize, rec: PacketRecord) -> Option<Header> {
        let Some(slot) = self.sources.get(src) else {
            debug_assert!(false, "arrival from unknown source {src}");
            return None;
        };
        let flow_slot = self.flows.assign(slot.table, rec.flow);
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        Some(Header {
            flow: slot.source.flow_id(rec),
            slot: flow_slot,
            service: slot.source.service,
            size: rec.size,
            id,
            flow_seq: self.flows.next_seq(flow_slot),
        })
    }
}

/// The interleaved arrival family: the batched loop draws its own
/// arrivals through the per-source lookahead, between its other events.
impl Arrivals for IngestStage {
    fn prime<C: CycleSink>(
        &mut self,
        next_seq: &mut u64,
        barrier: SimTime,
        horizon: SimTime,
        sink: &mut C,
    ) {
        for src in 0..self.n_sources() {
            let t0 = if C::ACTIVE { sink.span_start() } else { 0 };
            let drawn = self.batch_refill(src, barrier, horizon);
            if C::ACTIVE {
                sink.span_end(Stage::Ingest, t0, drawn as u64);
            }
        }
        // Seqs only for arrivals inside the horizon, as the scalar loop
        // pushes only those.
        for src in 0..self.n_sources() {
            if self.batch_head(src).is_some() {
                self.batch_set_head_seq(src, alloc(next_seq));
            }
        }
    }

    /// A flat `(time, seq)` sweep over the SoA head mirrors,
    /// `n_sources × 16` contiguous bytes (drained sources carry
    /// `SimTime::MAX` and can never win because buffered arrivals are
    /// capped at the horizon; their paired seq is stale).
    #[inline]
    fn head<C: CycleSink>(&mut self, _sink: &mut C) -> Option<(SimTime, u64, u32)> {
        let mut best: Option<(SimTime, u64, u32)> = None;
        for (src, (&t, &s)) in self.head_times.iter().zip(&self.head_seqs).enumerate() {
            if t == SimTime::MAX {
                continue;
            }
            if best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                best = Some((t, s, src as u32));
            }
        }
        best
    }

    #[inline]
    fn admit(&mut self, src: usize) -> Option<Header> {
        let rec = self.batch_pop(src);
        debug_assert!(rec.is_some(), "arrival winner without a buffered record");
        self.admit_record(src, rec?)
    }

    /// Refill `src`'s lookahead if drained (this IS the scalar loop's
    /// gap-draw RNG position) and stamp the new head's seq.
    #[inline]
    fn arm<C: CycleSink>(
        &mut self,
        src: usize,
        next_seq: &mut u64,
        barrier: SimTime,
        horizon: SimTime,
        sink: &mut C,
    ) {
        if self.batch_needs_refill(src) {
            let t0 = if C::ACTIVE { sink.span_start() } else { 0 };
            let drawn = self.batch_refill(src, barrier, horizon);
            if C::ACTIVE {
                sink.span_end(Stage::Ingest, t0, drawn as u64);
            }
        }
        if self.batch_head(src).is_some() {
            self.batch_set_head_seq(src, alloc(next_seq));
        }
    }

    /// `src`'s buffered head's slot, if its flow has arrived before.
    #[inline]
    fn head_slot(&self, src: usize) -> Option<FlowSlot> {
        let buf = self.bursts.get(src)?;
        if buf.head == buf.len {
            return None;
        }
        let rec = buf.records.get(buf.head as usize)?;
        self.cached_slot(src, rec.flow)
    }

    #[inline]
    fn refresh_rates(&mut self, now: SimTime) {
        IngestStage::refresh_rates(self, now);
    }
}
