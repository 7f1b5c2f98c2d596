//! Traffic sources: per-service packet generation.
//!
//! Each source couples a *header stream* (an `nptrace` generator, standing
//! in for the real trace the paper replays) with an *arrival process*
//! (constant rate, or the Holt-Winters model of Eq. 1). Rates are in Mpps
//! at paper scale; the engine divides by the configured scale factor.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use detsim::SimTime;
use nphash::{FlowId, FlowInterner, FlowSlot};
use nptrace::{TraceGenerator, TracePreset};
use nptraffic::{HoltWinters, ServiceKind};
use rand::rngs::StdRng;
use rand::Rng;

/// The arrival-rate law of a source.
#[derive(Debug, Clone, Copy)]
pub enum RateSpec {
    /// Fixed rate in Mpps (used by the single-service Fig. 9 experiments).
    Constant(f64),
    /// The Holt-Winters model of Eq. 1 (Fig. 7 experiments).
    HoltWinters(HoltWinters),
}

impl RateSpec {
    /// Sample the instantaneous rate (Mpps) at `t`.
    pub fn rate_at(&self, t: SimTime, rng: &mut StdRng) -> f64 {
        match self {
            RateSpec::Constant(r) => *r,
            RateSpec::HoltWinters(hw) => hw.rate(t.as_secs_f64(), rng),
        }
    }

    /// The noise-free rate at `t` (capacity estimates, tests).
    pub fn mean_rate_at(&self, t: SimTime) -> f64 {
        match self {
            RateSpec::Constant(r) => *r,
            RateSpec::HoltWinters(hw) => hw.mean_rate(t.as_secs_f64()),
        }
    }
}

/// Configuration of one traffic source.
#[derive(Debug, Clone)]
pub struct SourceConfig {
    /// The service whose packets this source emits.
    pub service: ServiceKind,
    /// The trace preset providing headers.
    pub trace: TracePreset,
    /// The arrival-rate law.
    pub rate: RateSpec,
}

/// A running source: header generator + arrival state.
#[derive(Debug)]
pub struct TrafficSource {
    /// The service of every packet from this source.
    pub service: ServiceKind,
    gen: TraceGenerator,
    rate: RateSpec,
    /// Rate currently in force (Mpps, unscaled), refreshed periodically.
    current_rate: f64,
    /// Global [`FlowSlot`] of each trace-local flow index, `u32::MAX` =
    /// not yet interned. The trace generator hands out *dense* per-trace
    /// flow indices, so after a flow's first packet every later packet
    /// resolves its slot with one `Vec` access — zero hash probes.
    slot_cache: Vec<u32>,
}

/// Sentinel in `slot_cache`: this trace-local flow has no global slot yet.
const UNINTERNED: u32 = u32::MAX;

impl TrafficSource {
    /// Instantiate from configuration: a fresh streaming generator of
    /// `cfg.trace` (its tables are built once per process and shared, see
    /// [`nptrace::TracePreset::generator`]) at the rate `cfg.rate`.
    pub fn new(cfg: &SourceConfig) -> Self {
        // The length hint only sizes `generate`; streaming ignores it.
        let gen = cfg.trace.generator(0);
        TrafficSource {
            service: cfg.service,
            gen,
            rate: cfg.rate,
            current_rate: cfg.rate.mean_rate_at(SimTime::ZERO),
            slot_cache: Vec::new(),
        }
    }

    /// Refresh the rate in force at time `t` (noise drawn from `rng`).
    pub fn refresh_rate(&mut self, t: SimTime, rng: &mut StdRng) {
        self.current_rate = self.rate.rate_at(t, rng);
    }

    /// The rate currently in force, Mpps (unscaled).
    pub fn current_rate(&self) -> f64 {
        self.current_rate
    }

    /// Draw the next inter-arrival gap given scale factor `scale`
    /// (exponential with mean `scale / rate` µs).
    #[inline]
    pub fn draw_gap(&self, scale: f64, rng: &mut StdRng) -> SimTime {
        let rate_pp_us = (self.current_rate / scale).max(1e-9);
        let u: f64 = rng.gen::<f64>().max(1e-300);
        SimTime::from_micros_f64(-u.ln() / rate_pp_us)
    }

    /// Draw the next packet header `(flow, size)`.
    pub fn next_header(&mut self) -> (FlowId, u16) {
        let space = self.gen.flow_space();
        let p = self.gen.next_packet();
        (p.flow_id(space), p.size)
    }

    /// Draw the next raw packet record from the header stream.
    ///
    /// The header stream consumes only the trace generator's private RNG
    /// — it is independent of the arrival-gap stream and of every shared
    /// engine structure — so the batched execution mode may draw records
    /// *ahead* of their processing time and resolve them later with
    /// [`TrafficSource::resolve_record`] without perturbing replay.
    #[inline]
    pub fn next_record(&mut self) -> nptrace::PacketRecord {
        self.gen.next_packet()
    }

    /// Resolve a record drawn by [`TrafficSource::next_record`] against
    /// the shared interner: `(flow, slot, size)`.
    ///
    /// Must be called in arrival-processing order — the slot cache and
    /// the cross-source interner are order-sensitive. The scalar path's
    /// [`TrafficSource::next_header_interned`] is exactly `next_record`
    /// followed by `resolve_record`, which is what makes the batched
    /// engine's split byte-identical.
    pub fn resolve_record(
        &mut self,
        p: nptrace::PacketRecord,
        interner: &mut FlowInterner,
    ) -> (FlowId, FlowSlot, u16) {
        let space = self.gen.flow_space();
        let local = p.flow as usize;
        if local >= self.slot_cache.len() {
            self.slot_cache.resize(local + 1, UNINTERNED);
        }
        match self.slot_cache.get_mut(local) {
            Some(cached) if *cached != UNINTERNED => {
                // The slot was interned from this very FlowId, so deriving
                // it again gives the interner's copy without a random load.
                (p.flow_id(space), FlowSlot::new(*cached), p.size)
            }
            cached => {
                let flow = p.flow_id(space);
                let slot = interner.intern(flow);
                if let Some(c) = cached {
                    *c = slot.raw();
                }
                (flow, slot, p.size)
            }
        }
    }

    /// The interned slot of trace-local `flow`, if its first packet has
    /// already been resolved. A read-only probe (no interning): the
    /// batched engine uses it to prefetch flow-table lines for arrivals
    /// that are buffered but not yet processed.
    #[inline]
    pub fn peek_slot(&self, flow: u32) -> Option<FlowSlot> {
        match self.slot_cache.get(flow as usize) {
            Some(&raw) if raw != UNINTERNED => Some(FlowSlot::new(raw)),
            _ => None,
        }
    }

    /// Best-effort software prefetch of the slot-cache entry for `flow`,
    /// issued at burst-refill time so the resolve at processing time
    /// finds the line in cache.
    #[inline]
    pub fn prefetch_slot(&self, flow: u32) {
        if let Some(cached) = self.slot_cache.get(flow as usize) {
            crate::mem::prefetch_read(cached);
        }
    }

    /// Draw the next packet header with its interned arena slot:
    /// `(flow, slot, size)`.
    ///
    /// Only the *first* packet of each flow pays an interner probe; every
    /// repeat resolves through the per-source slot cache (a plain `Vec`
    /// lookup on the trace's dense flow index).
    pub fn next_header_interned(&mut self, interner: &mut FlowInterner) -> (FlowId, FlowSlot, u16) {
        let p = self.next_record();
        self.resolve_record(p, interner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn source(rate: RateSpec) -> TrafficSource {
        TrafficSource::new(&SourceConfig {
            service: ServiceKind::IpForward,
            trace: TracePreset::Auckland(1),
            rate,
        })
    }

    #[test]
    fn constant_rate_gap_mean() {
        let s = source(RateSpec::Constant(2.0)); // 2 Mpps → mean gap 0.5 µs
        let mut rng = StdRng::seed_from_u64(1);
        let n = 50_000;
        let total: f64 = (0..n)
            .map(|_| s.draw_gap(1.0, &mut rng).as_micros_f64())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean gap {mean}");
    }

    #[test]
    fn scale_stretches_gaps() {
        let s = source(RateSpec::Constant(2.0));
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let total: f64 = (0..n)
            .map(|_| s.draw_gap(50.0, &mut rng).as_micros_f64())
            .sum();
        let mean = total / n as f64;
        assert!((mean - 25.0).abs() < 1.0, "scaled mean gap {mean}");
    }

    #[test]
    fn headers_come_from_preset_namespace() {
        let mut s = source(RateSpec::Constant(1.0));
        let (f1, sz) = s.next_header();
        assert!(matches!(sz, 64 | 576 | 1500));
        let mut s2 = source(RateSpec::Constant(1.0));
        let (f2, _) = s2.next_header();
        assert_eq!(f1, f2, "same preset+seed → same header stream");
    }

    #[test]
    fn interned_headers_match_plain_headers() {
        // The interned path must emit exactly the same header stream as
        // the plain one, with slots the interner hands back for the flow.
        let mut a = source(RateSpec::Constant(1.0));
        let mut b = source(RateSpec::Constant(1.0));
        let mut interner = FlowInterner::new();
        for _ in 0..5_000 {
            let (f1, sz1) = a.next_header();
            let (f2, slot, sz2) = b.next_header_interned(&mut interner);
            assert_eq!(f1, f2);
            assert_eq!(sz1, sz2);
            assert_eq!(interner.get(f2), Some(slot));
        }
        assert!(interner.len() > 1, "trace should contain several flows");
    }

    #[test]
    fn holt_winters_rate_refresh() {
        let hw = HoltWinters::new(1.0, 0.0, 0.5, 10.0, 0.0);
        let mut s = source(RateSpec::HoltWinters(hw));
        let mut rng = StdRng::seed_from_u64(3);
        s.refresh_rate(SimTime::from_secs_f64(2.5), &mut rng); // quarter period → S=1
        assert!((s.current_rate() - 1.5).abs() < 1e-9);
    }
}
