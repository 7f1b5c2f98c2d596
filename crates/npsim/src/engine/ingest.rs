//! Ingest stage: arrival generation and frame-manager admission.
//!
//! Owns the traffic sources (each with its private arrival-process RNG
//! stream), the flow interner, the control-plane classifier, and the
//! packet-ID counter. Per arrival it draws the next header, classifies
//! it (fast path vs. control-plane slow path), and assigns the global
//! packet ID; the inter-arrival gap draws for the *next* arrival also
//! come from here so the RNG stream per source is exactly the
//! pre-refactor sequence.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use crate::source::{RateSpec, SourceConfig, TrafficSource};
use detsim::{SeedSequence, SimTime};
use nphash::{FlowId, FlowInterner, FlowSlot};
use nptrace::PacketRecord;
use nptraffic::ServiceKind;
use rand::rngs::StdRng;
use rand::Rng;

/// Upper bound on the batched mode's per-source lookahead (the DPDK-style
/// burst size; the runtime cap is `EngineConfig::execution`).
pub(super) const MAX_BURST: usize = 32;

/// Per-source arrival lookahead ring for the batched execution mode.
///
/// Holds up to a burst of `(absolute arrival time, raw trace record)`
/// pairs drawn ahead of their processing time. Both draws touch only the
/// source's *private* RNG streams (gaps from the arrival stream, records
/// from the trace generator), so pre-drawing cannot perturb any other
/// source or the shared interner/classifier — those are resolved at
/// processing time by [`IngestStage::admit_record`].
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
}

/// A fast-path packet header admitted by the ingest stage.
#[derive(Debug, Clone, Copy)]
pub(super) struct Header {
    pub flow: FlowId,
    pub slot: FlowSlot,
    pub service: ServiceKind,
    pub size: u16,
    pub id: u64,
}

/// Outcome of admitting one arrival.
pub(super) enum Admission {
    /// The source index was invalid (flagged via `debug_assert`).
    Missing,
    /// The classifier diverted the packet to the control-plane slow path.
    SlowPath {
        /// Service of the diverted packet.
        service: ServiceKind,
    },
    /// A data-plane packet, ready for dispatch.
    FastPath(Header),
}

#[derive(Debug)]
pub(super) struct IngestStage {
    sources: Vec<SourceSlot>,
    /// Flow arena: FlowId → dense slot, assigned at first emission.
    interner: FlowInterner,
    classifier_rng: StdRng,
    next_packet_id: u64,
    scale: f64,
    control_plane_fraction: f64,
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
    /// monolithic engine did: `indexed_rng("source", i)` per source,
    /// `rng("fm-classifier")` for the classifier.
    pub(super) fn new(
        seq: &SeedSequence,
        sources: &[SourceConfig],
        period_compression: f64,
        scale: f64,
        control_plane_fraction: f64,
    ) -> Self {
        let sources_built: Vec<SourceSlot> = sources
            .iter()
            .enumerate()
            .map(|(i, sc)| {
                let mut sc = sc.clone();
                if let RateSpec::HoltWinters(hw) = sc.rate {
                    sc.rate = RateSpec::HoltWinters(hw.with_period_compressed(period_compression));
                }
                SourceSlot {
                    source: TrafficSource::new(&sc),
                    rng: seq.indexed_rng("source", i),
                }
            })
            .collect();
        IngestStage {
            sources: sources_built,
            interner: FlowInterner::new(),
            classifier_rng: seq.rng("fm-classifier"),
            next_packet_id: 0,
            scale,
            control_plane_fraction,
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

    /// Flows interned so far (the flow table's required size).
    pub(super) fn flow_count(&self) -> usize {
        self.interner.len()
    }

    /// Admit one arrival from `src`: draw its record now, then resolve,
    /// classify and number it ([`IngestStage::admit_record`]).
    pub(super) fn admit(&mut self, src: usize) -> Admission {
        let Some(slot) = self.sources.get_mut(src) else {
            debug_assert!(false, "arrival from unknown source {src}");
            return Admission::Missing;
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
            // Start the slot-cache line fill now so the resolve at
            // processing time hits.
            slot.source.prefetch_slot(rec.flow);
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

    /// The SoA head mirrors (`time, seq` per source) for the batched
    /// merge's arrival rescan. Times are `SimTime::MAX` for drained
    /// sources; the paired seq is stale (and must be ignored) there.
    pub(super) fn arrival_heads(&self) -> (&[SimTime], &[u64]) {
        (&self.head_times, &self.head_seqs)
    }

    /// Trace-local flow index of `src`'s buffered arrival `depth` slots
    /// past the head (0 = head), if present (prefetch planning only —
    /// does not consume anything).
    pub(super) fn batch_peek_flow(&self, src: usize, depth: u8) -> Option<u32> {
        let buf = self.bursts.get(src)?;
        let i = buf.head.checked_add(depth)?;
        if i < buf.len {
            buf.records.get(i as usize).map(|r| r.flow)
        } else {
            None
        }
    }

    /// The interned slot of `src`'s trace-local `flow`, if already
    /// resolved (read-only; used to prefetch flow-table lines).
    pub(super) fn cached_slot(&self, src: usize, flow: u32) -> Option<FlowSlot> {
        self.sources.get(src).and_then(|s| s.source.peek_slot(flow))
    }

    /// Admit one *pre-drawn* arrival record from `src`: resolve it
    /// against the shared interner, classify, and assign the packet ID.
    ///
    /// This is the shared-state half of admission and must run in
    /// event-processing order.
    pub(super) fn admit_record(&mut self, src: usize, rec: PacketRecord) -> Admission {
        let Some(slot) = self.sources.get_mut(src) else {
            debug_assert!(false, "arrival from unknown source {src}");
            return Admission::Missing;
        };
        let (flow, flow_slot, size) = slot.source.resolve_record(rec, &mut self.interner);
        let service = slot.source.service;
        if self.control_plane_fraction > 0.0
            && self.classifier_rng.gen::<f64>() < self.control_plane_fraction
        {
            return Admission::SlowPath { service };
        }
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        Admission::FastPath(Header {
            flow,
            slot: flow_slot,
            service,
            size,
            id,
        })
    }
}
