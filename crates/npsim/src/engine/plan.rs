//! The offered-traffic stream of a run, for execution backends that do
//! not drive the detsim event clock (the npexec thread-per-core
//! runtime) and for anything that wants the stream without the engine.
//!
//! [`PlanStream`] is the ingest-side slice of the batched run loop as an
//! iterator: the same [`IngestStage`] in lookahead mode, the same
//! [`BatchState`] prime and merge — with zero cores and no fault plan,
//! so the pending set is the per-source head arrivals plus the rate
//! tick — firing in the same `(time, seq)` order, with the same
//! admission and flow-sequence draws, and nothing downstream of
//! dispatch (no queues, no service). Because per-packet RNG streams are
//! consumed in an identical order, the packets it yields (ids, flows,
//! slots, sizes, arrival times, per-flow sequence numbers, slow-path
//! diversions) are **the** stream a fault-free detsim run of the same
//! configuration offers — a contract pinned packet for packet by the
//! tests at the bottom of this file and relied on by the
//! detsim-vs-npexec validation experiment.
//!
//! [`ArrivalPlan::from_config`] is that stream drained into a `Vec`, for
//! consumers that index the whole plan; npexec keeps a narrower record
//! per packet and drains the stream itself.
//!
//! # The hand-off
//!
//! The engine itself runs the stream on a second thread when the
//! process has a hardware thread to spare ([`ThreadSlot`]): the
//! engine's own [`IngestStage`] moves into a [`PlanStream`], whose
//! crate-internal [`PlanStream::next_arrival`] yields every admitted
//! arrival — slow-path diversions included — and [`produce`] ships them
//! in chunks over a bounded channel to a [`Handoff`], the batched
//! loop's arrival family on the engine thread. Admitting ahead of the
//! engine is legal because the interner, the classifier RNG and the
//! packet-id counter are touched only by arrivals, in arrival order: no
//! finish, fault or rate tick reads or writes them.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use super::batch::{alloc, Arrivals, BatchState, Win};
use super::clock::Pending;
use super::cycles::{CycleSink, Stage};
use super::ingest::{Admission, IngestStage, MAX_BURST};
use super::{EngineConfig, SourceConfig};
use crate::fault::FaultPlan;
use detsim::{SeedSequence, SimTime};
use nphash::{FlowId, FlowSlot};
use nptraffic::ServiceKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::OnceLock;

/// One offered packet, fully classified, with its arrival instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledPacket {
    /// Arrival instant (virtual time of the source draw).
    pub at: SimTime,
    /// Index of the source that emitted it.
    pub src: u32,
    /// Globally unique packet id, assigned in admission order — the
    /// packet's index in the stream.
    pub id: u64,
    /// The packet's 5-tuple flow identity.
    pub flow: FlowId,
    /// Dense arena slot of the flow.
    pub slot: FlowSlot,
    /// Service the packet requests.
    pub service: ServiceKind,
    /// Frame size in bytes.
    pub size: u16,
    /// Per-flow arrival sequence number (0-based), the reorder witness.
    pub flow_seq: u64,
}

/// The offered fast-path packets of one configuration + seed, in
/// arrival order (ties in source order, exactly as the scalar event
/// queue breaks them), drawn on demand.
///
/// No fault action touches a source, so the stream is the same with
/// or without `cfg.faults`; a backend replays the plan itself.
#[derive(Debug)]
pub struct PlanStream {
    st: BatchState<IngestStage>,
    horizon: SimTime,
    rate_update_interval: SimTime,
    /// Per-slot arrival sequence counters — the stream-side mirror of
    /// `FlowTable::next_seq`, kept by the public iterator only (an
    /// engine's hand-off leaves them empty: the engine numbers its
    /// flows itself).
    seqs: Vec<u64>,
    slow_path: u64,
    expected: usize,
}

/// One admitted arrival: its instant, its source, and the admission
/// outcome (never [`Admission::Missing`]).
pub(super) type Arrival = (SimTime, usize, Admission);

impl PlanStream {
    /// The offered stream of `cfg` + `sources`.
    ///
    /// # Panics
    /// Panics on an empty source list, a non-positive scale, a
    /// control-plane fraction outside `[0, 1)` or a zero
    /// `rate_update_interval` — the engine constructor's own checks.
    pub fn new(cfg: &EngineConfig, sources: &[SourceConfig]) -> Self {
        super::check_stream_config(cfg, sources);
        let ingest = IngestStage::new(
            &SeedSequence::new(cfg.seed),
            sources,
            cfg.period_compression,
            cfg.scale,
            cfg.control_plane_fraction,
        );
        PlanStream {
            expected: Self::expected_packets_for(cfg, sources),
            ..Self::from_ingest(ingest, cfg, MAX_BURST)
        }
    }

    /// The stream of a fresh `ingest` stage built from `cfg`, drawn
    /// with a per-source lookahead of `burst` (the stream is the same
    /// for any burst). The pre-sizing hint is left at 0.
    pub(super) fn from_ingest(mut ingest: IngestStage, cfg: &EngineConfig, burst: usize) -> Self {
        ingest.batch_init(burst);
        let st = BatchState::prime(
            ingest,
            0,
            cfg.duration,
            cfg.rate_update_interval,
            &FaultPlan::new(),
            &mut (),
        );
        PlanStream {
            st,
            horizon: cfg.duration,
            rate_update_interval: cfg.rate_update_interval,
            seqs: Vec::new(),
            slow_path: 0,
            expected: 0,
        }
    }

    /// Roughly how many packets the whole stream yields: Σ mean source
    /// rate × horizon. A pre-sizing hint, not a bound.
    pub fn expected_packets(&self) -> usize {
        self.expected
    }

    /// [`PlanStream::expected_packets`] of `cfg` + `sources`, without
    /// building the stream.
    pub fn expected_packets_for(cfg: &EngineConfig, sources: &[SourceConfig]) -> usize {
        let mpps: f64 = sources
            .iter()
            .map(|s| s.rate.mean_rate_at(SimTime::ZERO))
            .sum();
        (mpps / cfg.scale * cfg.duration.as_micros_f64()) as usize
    }

    /// Packets the frame-manager classifier diverted to the slow path
    /// so far (they are not yielded).
    pub fn slow_path(&self) -> u64 {
        self.slow_path
    }

    /// Distinct flows interned so far.
    pub fn flow_count(&self) -> usize {
        self.st.arrivals.flow_count()
    }

    /// Number of traffic sources.
    pub fn n_sources(&self) -> usize {
        self.st.arrivals.n_sources()
    }

    /// The next arrival of the stream, fast path or slow path, admitted:
    /// what the engine's `on_arrival` would admit at that instant.
    pub(super) fn next_arrival(&mut self) -> Option<Arrival> {
        loop {
            let (t, seq, win) = self.st.next_event()?;
            let Win::Arrival(src) = win else {
                // Zero cores, no faults: the only other event is the
                // rate tick (`Engine::on_rate_update` minus the bus).
                self.st.consume_ctl(seq, win, &FaultPlan::new());
                self.st.refresh_rates(t);
                let next = t + self.rate_update_interval;
                if next <= self.horizon {
                    self.st.arm_rate_tick(next);
                }
                continue;
            };
            // `Engine::on_arrival` minus everything past admission: admit,
            // then arm the source's next arrival (its gap-draw position).
            let admission = self.st.admit(src);
            if !matches!(admission, Admission::Missing) {
                self.st.arm_arrival(src, t, self.horizon, &mut ());
            }
            self.st.rescan_arrivals(&mut ());
            match admission {
                Admission::Missing => continue,
                Admission::SlowPath { .. } => self.slow_path += 1,
                Admission::FastPath(_) => {}
            }
            return Some((t, src, admission));
        }
    }
}

impl Iterator for PlanStream {
    type Item = ScheduledPacket;

    fn next(&mut self) -> Option<ScheduledPacket> {
        loop {
            let (at, src, Admission::FastPath(h)) = self.next_arrival()? else {
                continue;
            };
            if self.seqs.len() < self.flow_count() {
                self.seqs.resize(self.flow_count(), 0);
            }
            // Slots are dense below `flow_count` by the interner
            // contract, so the lookup cannot miss.
            let flow_seq = self.seqs.get_mut(h.slot.index()).map_or(0, |s| {
                let v = *s;
                *s += 1;
                v
            });
            return Some(ScheduledPacket {
                at,
                src: src as u32,
                id: h.id,
                flow: h.flow,
                slot: h.slot,
                service: h.service,
                size: h.size,
                flow_seq,
            });
        }
    }
}

/// Arrivals per hand-off chunk.
const CHUNK: usize = 256;

/// Chunks one hand-off ever allocates: one being filled, one being
/// consumed, and two in flight. The producer recycles the consumer's
/// spent chunks, so the hand-off holds `CHUNKS × CHUNK` arrivals at
/// most, whatever the run length.
const CHUNKS: usize = 4;

/// A chunk of arrivals in stream order.
pub(super) type Chunk = Vec<Arrival>;

/// The producer half of the hand-off, run on the stream thread: draw
/// `stream` into chunks and send them until the stream ends or the
/// consumer hangs up (its run ended, or it is unwinding from a panic).
pub(super) fn produce(mut stream: PlanStream, full: SyncSender<Chunk>, spent: Receiver<Chunk>) {
    let mut made = 0;
    loop {
        let mut chunk = match spent.try_recv() {
            Ok(chunk) => chunk,
            Err(TryRecvError::Empty) if made < CHUNKS => {
                made += 1;
                Vec::with_capacity(CHUNK)
            }
            Err(TryRecvError::Empty) => match spent.recv() {
                Ok(chunk) => chunk,
                Err(_) => return,
            },
            Err(TryRecvError::Disconnected) => return,
        };
        chunk.clear();
        chunk.extend(std::iter::from_fn(|| stream.next_arrival()).take(CHUNK));
        let last = chunk.len() < CHUNK;
        if !chunk.is_empty() && full.send(chunk).is_err() {
            return;
        }
        if last {
            return;
        }
    }
}

/// The hand-off arrival family: the consumer half, on the engine
/// thread. It takes the stream's admitted arrivals in order, so its
/// head is always the next one, and it numbers each source's next
/// arrival itself (see [`Arrivals`] for why a seq allocated for an
/// arrival that never comes is harmless).
#[derive(Debug)]
pub(super) struct Handoff {
    full: Receiver<Chunk>,
    spent: SyncSender<Chunk>,
    /// The chunk being consumed; `chunk[pos]` is the head.
    chunk: Chunk,
    pos: usize,
    /// Emulated heap seq of each source's next arrival.
    seqs: Vec<u64>,
}

impl Arrivals for Handoff {
    /// Every source gets a seq, in source order: the stream alone knows
    /// which ones have an arrival inside the horizon.
    fn prime<C: CycleSink>(
        &mut self,
        next_seq: &mut u64,
        _barrier: SimTime,
        _horizon: SimTime,
        _sink: &mut C,
    ) {
        for s in &mut self.seqs {
            *s = alloc(next_seq);
        }
    }

    /// The stream's next arrival, waiting for the next chunk when this
    /// one is spent — the engine's only wait on the stream thread,
    /// accounted as [`Stage::Ingest`]. After the stream ends (or its
    /// thread dies: the run then re-raises that panic), `None`.
    #[inline]
    fn head<C: CycleSink>(&mut self, sink: &mut C) -> Option<(SimTime, u64, u32)> {
        if self.pos == self.chunk.len() {
            let t0 = if C::ACTIVE { sink.span_start() } else { 0 };
            let spent = std::mem::take(&mut self.chunk);
            if spent.capacity() > 0 {
                // Never full (no more than `CHUNKS` chunks exist), and a
                // producer that has finished no longer needs it.
                let _ = self.spent.try_send(spent);
            }
            self.chunk = self.full.recv().ok()?;
            self.pos = 0;
            if C::ACTIVE {
                sink.span_end(Stage::Ingest, t0, self.chunk.len() as u64);
            }
        }
        let &(at, src, _) = self.chunk.get(self.pos)?;
        let seq = self.seqs.get(src).copied().unwrap_or(u64::MAX);
        Some((at, seq, src as u32))
    }

    #[inline]
    fn admit(&mut self, src: usize) -> Admission {
        match self.chunk.get(self.pos) {
            Some(&(_, from, admission)) => {
                debug_assert_eq!(from, src, "hand-off head is not the winner");
                self.pos += 1;
                admission
            }
            None => {
                debug_assert!(false, "arrival winner without a handed-off arrival");
                Admission::Missing
            }
        }
    }

    /// Number `src`'s next arrival, and name the slot of the arrival
    /// that fires next, for the flow-table prefetch.
    #[inline]
    fn arm<C: CycleSink>(
        &mut self,
        src: usize,
        next_seq: &mut u64,
        _barrier: SimTime,
        _horizon: SimTime,
        _sink: &mut C,
    ) -> Option<FlowSlot> {
        if let Some(s) = self.seqs.get_mut(src) {
            *s = alloc(next_seq);
        }
        match self.chunk.get(self.pos) {
            Some((_, _, Admission::FastPath(h))) => Some(h.slot),
            _ => None,
        }
    }

    /// The stream thread refreshed the rates on its own tick.
    #[inline]
    fn refresh_rates(&mut self, _now: SimTime) {}
}

impl Handoff {
    /// A hand-off for `n_sources` sources, with the two ends [`produce`]
    /// takes: the sender of full chunks and the receiver of spent ones.
    pub(super) fn new(n_sources: usize) -> (Self, SyncSender<Chunk>, Receiver<Chunk>) {
        // Both bounded at `CHUNKS`: no more chunks exist, so neither
        // send ever waits for room — the producer waits for a spent
        // chunk instead.
        let (full_tx, full) = std::sync::mpsc::sync_channel(CHUNKS);
        let (spent, spent_rx) = std::sync::mpsc::sync_channel(CHUNKS);
        let handoff = Handoff {
            full,
            spent,
            chunk: Vec::new(),
            pos: 0,
            seqs: vec![0; n_sources],
        };
        (handoff, full_tx, spent_rx)
    }
}

/// Simulation threads running in this process: engine runs and their
/// stream threads.
static RUNNING: AtomicUsize = AtomicUsize::new(0);

/// Whether a run may start a stream thread: `running` simulation
/// threads, the run's own included, plus one must not exceed the
/// `available` hardware threads. A sweep that already fills every
/// hardware thread runs interleaved, where a second thread per run
/// would only contend.
pub(super) fn has_free_thread(running: usize, available: usize) -> bool {
    running < available
}

/// The hardware threads of the host, as the standard library counts
/// them (cgroup quotas included), read once per process.
fn available_threads() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// One counted simulation thread; dropping it — on return or unwind —
/// releases the count.
///
/// Which path a run takes never changes its report: both are pinned
/// byte-identical, so reading the host's thread count here does not
/// break the determinism contract.
#[derive(Debug)]
pub(super) struct ThreadSlot(());

impl ThreadSlot {
    /// Count one simulation thread unconditionally: the calling engine
    /// run (or, in tests, a stream thread forced past the rule).
    pub(super) fn enter() -> Self {
        RUNNING.fetch_add(1, Ordering::SeqCst);
        ThreadSlot(())
    }

    /// Count a stream thread, if [`has_free_thread`] allows one.
    pub(super) fn spare() -> Option<Self> {
        let available = available_threads();
        RUNNING
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                has_free_thread(n, available).then_some(n + 1)
            })
            .ok()
            .map(|_| ThreadSlot(()))
    }
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        RUNNING.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The complete offered-traffic stream of one configuration + seed.
#[derive(Debug, Clone)]
pub struct ArrivalPlan {
    /// Fast-path packets in arrival order (ties in source order, exactly
    /// as the scalar event queue breaks them).
    pub packets: Vec<ScheduledPacket>,
    /// Packets the frame-manager classifier diverted to the slow path.
    pub slow_path: u64,
    /// Number of distinct flows interned by the stream.
    pub flow_count: usize,
    /// Number of traffic sources.
    pub n_sources: usize,
}

impl ArrivalPlan {
    /// Materialise the offered stream of `cfg` + `sources`: a
    /// [`PlanStream`] drained into a pre-sized `Vec`.
    ///
    /// # Panics
    /// As [`PlanStream::new`].
    pub fn from_config(cfg: &EngineConfig, sources: &[SourceConfig]) -> Self {
        let mut stream = PlanStream::new(cfg, sources);
        let mut packets = Vec::with_capacity(stream.expected_packets());
        packets.extend(&mut stream);
        ArrivalPlan {
            packets,
            slow_path: stream.slow_path(),
            flow_count: stream.flow_count(),
            n_sources: stream.n_sources(),
        }
    }

    /// Number of fast-path packets offered.
    pub fn offered(&self) -> u64 {
        self.packets.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SimEvent;
    use crate::probe::ProbeHost;
    use crate::sched::JoinShortestQueue;
    use crate::{Engine, ExecutionMode, RateSpec};
    use nptrace::TracePreset;
    use nptraffic::HoltWinters;

    fn cfg(duration_ms: u64) -> EngineConfig {
        EngineConfig {
            n_cores: 4,
            duration: SimTime::from_millis(duration_ms),
            scale: 1.0,
            seed: 42,
            ..EngineConfig::default()
        }
    }

    fn sources() -> Vec<SourceConfig> {
        vec![
            SourceConfig {
                service: ServiceKind::IpForward,
                trace: TracePreset::Auckland(1),
                rate: RateSpec::Constant(2.0),
            },
            SourceConfig {
                service: ServiceKind::VpnOut,
                trace: TracePreset::Caida(1),
                rate: RateSpec::Constant(1.0),
            },
        ]
    }

    #[test]
    fn a_stream_thread_needs_a_spare_hardware_thread() {
        // (running, run's own included; available) → may it start one?
        assert!(has_free_thread(1, 2), "a lone run on two threads");
        assert!(!has_free_thread(2, 2), "a second run on two threads");
        assert!(!has_free_thread(1, 1), "one hardware thread");
        assert!(!has_free_thread(3, 2), "an oversubscribed sweep");
        assert!(has_free_thread(3, 8), "three runs on eight threads");
        assert!(!has_free_thread(8, 8), "a sweep at --jobs = cores");
    }

    #[test]
    fn plan_matches_detsim_offered_stream() {
        let plan = ArrivalPlan::from_config(&cfg(20), &sources());
        let report = Engine::new(cfg(20), &sources(), JoinShortestQueue::new()).run();
        assert_eq!(plan.offered(), report.offered, "same offered count");
        assert_eq!(plan.slow_path, report.slow_path, "same slow-path count");
        assert!(plan.offered() > 10_000, "plan is non-trivial");
    }

    #[test]
    #[should_panic(expected = "rate update interval must be positive")]
    fn zero_rate_update_interval_is_rejected() {
        // Unrejected, draining the stream spins on the tick at t = 0.
        let mut cfg = cfg(1);
        cfg.rate_update_interval = SimTime::ZERO;
        let _ = PlanStream::new(&cfg, &sources()).count();
    }

    /// Draw a 1 ms stream with control-plane fraction `f`.
    fn stream_with_control_plane_fraction(f: f64) {
        let mut c = cfg(1);
        c.control_plane_fraction = f;
        let _ = PlanStream::new(&c, &sources()).count();
    }

    // Unrejected, a fraction of 1 or more diverts every packet to the
    // slow path, and NaN or a negative one diverts none — while
    // `Engine::new` panics on all four.
    #[test]
    #[should_panic(expected = "control-plane fraction must be in [0, 1)")]
    fn control_plane_fraction_one_is_rejected() {
        stream_with_control_plane_fraction(1.0);
    }

    #[test]
    #[should_panic(expected = "control-plane fraction must be in [0, 1)")]
    fn control_plane_fraction_above_one_is_rejected() {
        stream_with_control_plane_fraction(1.5);
    }

    #[test]
    #[should_panic(expected = "control-plane fraction must be in [0, 1)")]
    fn control_plane_fraction_nan_is_rejected() {
        stream_with_control_plane_fraction(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "control-plane fraction must be in [0, 1)")]
    fn control_plane_fraction_negative_is_rejected() {
        stream_with_control_plane_fraction(-0.5);
    }

    /// What the scalar engine's bus says about ingest: every
    /// `PacketArrived` in publication order, and the slow-path count.
    /// (A host of its own because `EventLogProbe` does not keep
    /// arrivals.)
    #[derive(Default)]
    struct ArrivalLog {
        arrivals: Vec<(SimTime, u64, FlowSlot, ServiceKind, u16)>,
        slow_path: u64,
    }

    impl ProbeHost for ArrivalLog {
        const ACTIVE: bool = true;

        fn deliver(&mut self, now: SimTime, ev: &SimEvent) {
            match *ev {
                SimEvent::PacketArrived {
                    id,
                    slot,
                    service,
                    size,
                } => self.arrivals.push((now, id, slot, service, size)),
                SimEvent::DivertedSlowPath { .. } => self.slow_path += 1,
                _ => {}
            }
        }

        fn finish(&mut self, _end: SimTime) {}
    }

    /// `n` sources cycling through the services and both trace
    /// families, constant-rate or Holt-Winters with rate noise (the
    /// noise draw shares the source's gap RNG stream, which is what
    /// makes lookahead across a rate tick illegal).
    fn grid_sources(n: usize, holt_winters: bool) -> Vec<SourceConfig> {
        (0..n)
            .map(|i| SourceConfig {
                service: ServiceKind::ALL[i % ServiceKind::ALL.len()],
                trace: if i % 2 == 0 {
                    TracePreset::Auckland(1 + i as u8 / 2)
                } else {
                    TracePreset::Caida(1 + i as u8 / 2)
                },
                rate: if holt_winters {
                    RateSpec::HoltWinters(HoltWinters::new(3.0 + i as f64, 0.0, 1.5, 0.004, 0.4))
                } else {
                    RateSpec::Constant(3.0 + i as f64)
                },
            })
            .collect()
    }

    /// The stream contract, per packet: `PlanStream` yields exactly the
    /// `PacketArrived` sequence (time, id, slot, service, size) and the
    /// `DivertedSlowPath` count of the scalar reference loop — over 1
    /// and 4 sources, constant and Holt-Winters rates refreshed every
    /// 0.7 ms (and every 1 µs, so arrivals demonstrably tie with ticks),
    /// with and without slow-path diversions, on a horizon that cuts
    /// the last lookahead burst short.
    ///
    /// It bites: with the `buf.cursor < barrier` condition deleted from
    /// `IngestStage::batch_refill` (lookahead straight through rate
    /// ticks) this test fails in the first Holt-Winters cell, at the
    /// first arrival after the first tick (packet 2101: stream
    /// 700 451 ns, scalar engine 700 212 ns). The constant-rate cells
    /// before it still pass — their refresh draws no RNG — which is why
    /// the grid has both.
    #[test]
    fn stream_yields_the_scalar_arrival_sequence_packet_for_packet() {
        let mut ties = 0usize;
        for n_sources in [1usize, 4] {
            for holt_winters in [false, true] {
                for (control_plane_fraction, tick_ns) in
                    [(0.0, 700_000), (0.05, 700_000), (0.05, 1_000)]
                {
                    let srcs = grid_sources(n_sources, holt_winters);
                    let c = EngineConfig {
                        // Not a multiple of the tick or of any burst.
                        duration: SimTime::from_nanos(3_333_333),
                        rate_update_interval: SimTime::from_nanos(tick_ns),
                        control_plane_fraction,
                        execution: ExecutionMode::Scalar,
                        ..cfg(0)
                    };
                    let engine = Engine::with_probes(
                        c.clone(),
                        &srcs,
                        JoinShortestQueue::new(),
                        ArrivalLog::default(),
                    );
                    let (report, _, log) = engine.run_full();
                    let mut stream = PlanStream::new(&c, &srcs);
                    let streamed: Vec<_> = stream
                        .by_ref()
                        .map(|p| (p.at, p.id, p.slot, p.service, p.size))
                        .collect();
                    let cell = format!(
                        "{n_sources} sources, hw {holt_winters}, cpf {control_plane_fraction}, tick {tick_ns} ns"
                    );
                    assert!(streamed.len() > 5_000, "{cell}: non-trivial stream");
                    if let Some(i) = (0..streamed.len().min(log.arrivals.len()))
                        .find(|&i| streamed[i] != log.arrivals[i])
                    {
                        panic!(
                            "{cell}: packet {i} differs: stream {:?}, scalar engine {:?}",
                            streamed[i], log.arrivals[i]
                        );
                    }
                    assert_eq!(streamed.len(), log.arrivals.len(), "{cell}: same length");
                    assert_eq!(stream.slow_path(), log.slow_path, "{cell}: slow path");
                    assert_eq!(stream.slow_path(), report.slow_path, "{cell}: slow path");
                    assert_eq!(
                        control_plane_fraction > 0.0,
                        stream.slow_path() > 0,
                        "{cell}: diversions happen iff configured"
                    );
                    ties += streamed
                        .iter()
                        .filter(|p| p.0.as_nanos() % tick_ns == 0)
                        .count();
                }
            }
        }
        assert!(ties > 0, "no arrival ever tied with a rate tick");
    }

    #[test]
    fn plan_is_the_drained_stream() {
        let plan = ArrivalPlan::from_config(&cfg(10), &sources());
        let mut stream = PlanStream::new(&cfg(10), &sources());
        let hint = stream.expected_packets() as f64;
        let drained: Vec<ScheduledPacket> = stream.by_ref().collect();
        assert_eq!(plan.packets, drained);
        assert_eq!(plan.slow_path, stream.slow_path());
        assert_eq!(plan.flow_count, stream.flow_count());
        assert_eq!(plan.n_sources, 2);
        assert!(
            (hint / drained.len() as f64 - 1.0).abs() < 0.05,
            "pre-sizing hint {hint} vs {} packets",
            drained.len()
        );
    }

    #[test]
    fn packet_ids_unique_and_ordered_per_flow() {
        let plan = ArrivalPlan::from_config(&cfg(10), &sources());
        // flow_seq is dense and increasing per slot, arrival times are
        // monotone across the stream, and a packet's id is its index
        // (npexec's compact plan drops the id and relies on it).
        let mut next_seq = vec![0u64; plan.flow_count];
        let mut last_at = SimTime::ZERO;
        for (i, p) in plan.packets.iter().enumerate() {
            assert_eq!(p.id, i as u64, "packet id is the stream index");
            assert!(p.at >= last_at, "arrival order is time order");
            last_at = p.at;
            assert_eq!(p.flow_seq, next_seq[p.slot.index()]);
            next_seq[p.slot.index()] += 1;
        }
    }

    #[test]
    fn control_plane_fraction_diverts_in_plan_too() {
        let mut c = cfg(20);
        c.control_plane_fraction = 0.1;
        let plan = ArrivalPlan::from_config(&c, &sources());
        let report = Engine::new(c, &sources(), JoinShortestQueue::new()).run();
        assert_eq!(plan.slow_path, report.slow_path);
        assert_eq!(plan.offered(), report.offered);
        assert!(plan.slow_path > 0);
    }
}
