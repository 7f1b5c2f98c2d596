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

/// A running source: header generator + arrival state. It keeps no
/// per-flow state: the engine's ingest stage assigns flow slots.
#[derive(Debug)]
pub struct TrafficSource {
    /// The service of every packet from this source.
    pub service: ServiceKind,
    gen: TraceGenerator,
    rate: RateSpec,
    /// Rate currently in force (Mpps, unscaled), refreshed periodically.
    current_rate: f64,
}

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
        }
    }

    /// Refresh the rate in force at time `t` (noise drawn from `rng`).
    pub fn refresh_rate(&mut self, t: SimTime, rng: &mut StdRng) {
        self.current_rate = self.rate.rate_at(t, rng);
    }

    /// Draw the next inter-arrival gap given scale factor `scale`
    /// (exponential with mean `scale / rate` µs).
    #[inline]
    pub fn draw_gap(&self, scale: f64, rng: &mut StdRng) -> SimTime {
        let rate_pp_us = (self.current_rate / scale).max(1e-9);
        let u: f64 = rng.gen::<f64>().max(1e-300);
        SimTime::from_micros_f64(-u.ln() / rate_pp_us)
    }

    /// Draw the next raw packet record from the header stream.
    ///
    /// The header stream consumes only the trace generator's private RNG
    /// — it is independent of the arrival-gap stream and of every shared
    /// engine structure — so the batched execution mode may draw records
    /// *ahead* of their processing time and assign their flow slots
    /// later without perturbing replay.
    #[inline]
    pub fn next_record(&mut self) -> nptrace::PacketRecord {
        self.gen.next_packet()
    }

    /// The flow namespace of this source's records: the low 32 bits of
    /// the trace's `flow_space`, all that [`PacketRecord::flow_id`]
    /// keeps of it. Two sources with the same namespace emit the same
    /// [`FlowId`] for the same trace-local index, and different
    /// namespaces never share a `FlowId`, so `(namespace, record.flow)`
    /// identifies a flow exactly as its `FlowId` does.
    ///
    /// [`PacketRecord::flow_id`]: nptrace::PacketRecord::flow_id
    pub fn flow_namespace(&self) -> u32 {
        self.gen.flow_space() as u32
    }

    /// The 5-tuple flow identity of a record drawn from this source.
    #[inline]
    pub fn flow_id(&self, p: nptrace::PacketRecord) -> FlowId {
        p.flow_id(self.gen.flow_space())
    }

    /// Draw the next packet header with its slot in `interner`:
    /// `(flow, slot, size)`. One hash probe per packet; the engine
    /// assigns slots without one (its ingest stage's namespace tables).
    pub fn next_header_interned(&mut self, interner: &mut FlowInterner) -> (FlowId, FlowSlot, u16) {
        let p = self.next_record();
        let flow = self.flow_id(p);
        (flow, interner.intern(flow), p.size)
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
        let p = s.next_record();
        assert!(matches!(p.size, 64 | 576 | 1500));
        let mut s2 = source(RateSpec::Constant(1.0));
        let p2 = s2.next_record();
        let (f1, f2) = (s.flow_id(p), s2.flow_id(p2));
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
            let p = a.next_record();
            let (f1, sz1) = (a.flow_id(p), p.size);
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
        s.refresh_rate(SimTime::from_millis(2_500), &mut rng); // quarter period → S=1
        assert!((s.current_rate - 1.5).abs() < 1e-9);
    }
}
