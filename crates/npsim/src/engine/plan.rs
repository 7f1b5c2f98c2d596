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
//! slots, sizes, arrival times, per-flow sequence numbers) are **the**
//! stream a fault-free detsim run of the same configuration offers — a
//! contract pinned packet for packet by the tests at the bottom of this
//! file and relied on by the detsim-vs-npexec validation experiment.
//!
//! # Runs
//!
//! The stream consumes the merge in runs ([`PlanStream::draw`], the one
//! loop behind both [`PlanStream::next_burst`] and [`Iterator::next`]).
//! Once the merge picks an arrival from source `s`, the run admits it,
//! arms `s`'s next arrival — the same seq allocation and lookahead
//! refill as the engine's `on_arrival` — and keeps admitting `s`'s next
//! arrival while it lands strictly before every other pending event:
//! the other sources' heads and the rate tick. Only `s` is admitted and
//! armed during a run, so those are read once per run, and the arrival
//! minimum is re-derived once per run instead of once per packet. The
//! rule is exact, not a heuristic: an arrival armed during the run
//! carries the newest seq, so it loses every time tie, and a tie is
//! exactly where the run hands over to the competitor.
//!
//! [`ArrivalPlan::from_config`] is that stream drained into a `Vec`, for
//! consumers that index the whole plan; npexec keeps a narrower record
//! per packet and drains the stream itself.
//!
//! # The hand-off
//!
//! The engine itself runs the stream on a second thread when the
//! process has a hardware thread to spare ([`ThreadSlot`]): the
//! engine's own [`IngestStage`] moves into a [`PlanStream`], and
//! [`produce`] draws it with [`PlanStream::next_burst`] — the call
//! npexec's dispatcher draws its stream with — and ships each burst as
//! a chunk over a bounded channel to a [`Handoff`], the batched loop's
//! arrival family on the engine thread. Admitting ahead of the engine is legal because
//! the flow slots and per-flow sequence counters and the packet-id
//! counter are touched only by arrivals, in arrival order: no finish,
//! fault or rate tick reads or writes them.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use super::batch::{alloc, Arrivals, BatchState, Win};
use super::clock::Pending;
use super::cycles::{CycleSink, Stage};
use super::ingest::{Header, IngestStage, MAX_BURST};
use super::{EngineConfig, SourceConfig};
use crate::fault::FaultPlan;
use detsim::{SeedSequence, SimTime};
use nphash::{FlowId, FlowSlot};
use nptraffic::ServiceKind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::OnceLock;

/// One offered packet, admitted, with its arrival instant.
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

/// The offered packets of one configuration + seed, in arrival order
/// (ties in source order, exactly as the scalar event queue breaks
/// them), drawn on demand.
///
/// No fault action touches a source, so the stream is the same with
/// or without `cfg.faults`; a backend replays the plan itself.
#[derive(Debug)]
pub struct PlanStream {
    st: BatchState<IngestStage>,
    horizon: SimTime,
    rate_update_interval: SimTime,
    expected: usize,
}

impl PlanStream {
    /// Packets per [`PlanStream::next_burst`], and so per hand-off chunk.
    pub const BURST: usize = 256;

    /// The offered stream of `cfg` + `sources`.
    ///
    /// # Panics
    /// Panics on an empty source list, a non-positive scale or a zero
    /// `rate_update_interval` — the engine constructor's own checks.
    pub fn new(cfg: &EngineConfig, sources: &[SourceConfig]) -> Self {
        super::check_stream_config(cfg, sources);
        let ingest = IngestStage::new(
            &SeedSequence::new(cfg.seed),
            sources,
            cfg.period_compression,
            cfg.scale,
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

    /// Distinct flows seen so far: slots are exactly `0..flow_count()`.
    pub fn flow_count(&self) -> usize {
        self.st.arrivals.flow_count()
    }

    /// Number of traffic sources.
    pub fn n_sources(&self) -> usize {
        self.st.arrivals.n_sources()
    }

    /// Clear `buf` and refill it with the stream's next packets, at most
    /// [`PlanStream::BURST`]. Returns whether the burst came back full; a
    /// short one (empty included) is the stream's last.
    ///
    /// A burst is the packets [`Iterator::next`] would yield one by one,
    /// in the same order: both draw through the one merge loop, and
    /// drawing ahead of their use changes nothing about them, because no
    /// consumer of the stream feeds back into it. A burst is drawn in
    /// runs: once an arrival from source `s` wins the merge, `s`'s next
    /// arrivals follow it into the burst without another pick while
    /// each lands strictly before every other pending event (the other
    /// sources' heads and the rate tick). That is exact: an arrival armed
    /// during the run carries the newest seq, so it loses every time tie,
    /// and the run stops there.
    pub fn next_burst(&mut self, buf: &mut Vec<ScheduledPacket>) -> bool {
        buf.clear();
        self.draw(|p| {
            buf.push(p);
            buf.len() < Self::BURST
        })
    }

    /// The merge loop, in runs (module doc, "Runs"): hand the stream's
    /// next packets, admitted, to `emit` in stream order until it
    /// returns `false` (then `true`) or the stream ends (then `false`).
    /// `bound` is the earliest of the other sources' heads and the rate
    /// tick — with zero cores and no fault plan, every other pending
    /// event — and the run's next arrival fires only strictly before it.
    fn draw(&mut self, mut emit: impl FnMut(ScheduledPacket) -> bool) -> bool {
        loop {
            let Some((t, seq, win)) = self.st.next_event() else {
                return false;
            };
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
            let bound = self
                .st
                .arrivals
                .head_time_besides(src)
                .min(self.st.barrier());
            let mut at = t;
            let mut wants_more = true;
            // `Engine::on_arrival` minus everything past admission: admit,
            // then arm the source's next arrival (its gap-draw position).
            while let Some(h) = self.st.admit(src) {
                self.st.arm_arrival(src, at, self.horizon, &mut ());
                wants_more = emit(ScheduledPacket {
                    at,
                    src: src as u32,
                    id: h.id,
                    flow: h.flow,
                    slot: h.slot,
                    service: h.service,
                    size: h.size,
                    flow_seq: h.flow_seq,
                });
                match self.st.arrivals.batch_head(src) {
                    Some((next, _)) if wants_more && next < bound => at = next,
                    _ => break,
                }
            }
            self.st.rescan_arrivals(&mut ());
            if !wants_more {
                return true;
            }
        }
    }
}

impl Iterator for PlanStream {
    type Item = ScheduledPacket;

    /// The next arrival of the stream, admitted: what the engine's
    /// `on_arrival` would admit at that instant.
    fn next(&mut self) -> Option<ScheduledPacket> {
        let mut next = None;
        self.draw(|p| {
            next = Some(p);
            false
        });
        next
    }
}

/// Chunks one hand-off ever allocates: one being filled, one being
/// consumed, and two in flight. The producer recycles the consumer's
/// spent chunks, so the hand-off holds `CHUNKS × PlanStream::BURST`
/// arrivals at most, whatever the run length.
const CHUNKS: usize = 4;

/// A chunk of arrivals in stream order: one burst.
pub(super) type Chunk = Vec<ScheduledPacket>;

/// The producer half of the hand-off, run on the stream thread: draw
/// `stream` burst by burst and send each as a chunk until the stream
/// ends or the consumer hangs up (its run ended, or it is unwinding
/// from a panic).
pub(super) fn produce(mut stream: PlanStream, full: SyncSender<Chunk>, spent: Receiver<Chunk>) {
    let mut made = 0;
    loop {
        let mut chunk = match spent.try_recv() {
            Ok(chunk) => chunk,
            Err(TryRecvError::Empty) if made < CHUNKS => {
                made += 1;
                Vec::with_capacity(PlanStream::BURST)
            }
            Err(TryRecvError::Empty) => match spent.recv() {
                Ok(chunk) => chunk,
                Err(_) => return,
            },
            Err(TryRecvError::Disconnected) => return,
        };
        let last = !stream.next_burst(&mut chunk);
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
        let p = self.chunk.get(self.pos)?;
        let seq = self.seqs.get(p.src as usize).copied().unwrap_or(u64::MAX);
        Some((p.at, seq, p.src))
    }

    #[inline]
    fn admit(&mut self, src: usize) -> Option<Header> {
        let Some(p) = self.chunk.get(self.pos) else {
            debug_assert!(false, "arrival winner without a handed-off arrival");
            return None;
        };
        debug_assert_eq!(p.src as usize, src, "hand-off head is not the winner");
        self.pos += 1;
        Some(Header {
            flow: p.flow,
            slot: p.slot,
            service: p.service,
            size: p.size,
            id: p.id,
            flow_seq: p.flow_seq,
        })
    }

    /// Number `src`'s next arrival.
    #[inline]
    fn arm<C: CycleSink>(
        &mut self,
        src: usize,
        next_seq: &mut u64,
        _barrier: SimTime,
        _horizon: SimTime,
        _sink: &mut C,
    ) {
        if let Some(s) = self.seqs.get_mut(src) {
            *s = alloc(next_seq);
        }
    }

    /// The slot of the arrival that fires next, whatever its source.
    #[inline]
    fn head_slot(&self, _src: usize) -> Option<FlowSlot> {
        self.chunk.get(self.pos).map(|p| p.slot)
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
    /// Offered packets in arrival order (ties in source order, exactly
    /// as the scalar event queue breaks them).
    pub packets: Vec<ScheduledPacket>,
    /// Always 0: every arrival is a data-plane packet. Kept so readers
    /// of the field still build; `SimReport::slow_path` is its twin.
    pub slow_path: u64,
    /// Number of distinct flows the stream saw.
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
            slow_path: 0,
            flow_count: stream.flow_count(),
            n_sources: stream.n_sources(),
        }
    }

    /// Number of packets offered.
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

    /// What the scalar engine's bus says about ingest: every
    /// `PacketArrived` in publication order. (A host of its own because
    /// `EventLogProbe` does not keep arrivals.)
    #[derive(Default)]
    struct ArrivalLog {
        arrivals: Vec<(SimTime, u64, FlowSlot, ServiceKind, u16)>,
    }

    impl ProbeHost for ArrivalLog {
        const ACTIVE: bool = true;

        fn deliver(&mut self, now: SimTime, ev: &SimEvent) {
            if let SimEvent::PacketArrived {
                id,
                slot,
                service,
                size,
            } = *ev
            {
                self.arrivals.push((now, id, slot, service, size));
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
    /// `PacketArrived` sequence (time, id, slot, service, size) of the
    /// scalar reference loop — drawn one by one through the iterator and
    /// in bursts through `next_burst` — over 1 and 4 sources, constant
    /// and Holt-Winters rates refreshed every 0.7 ms (and every 1 µs, so
    /// arrivals demonstrably tie with ticks), on a horizon that cuts the
    /// last lookahead burst short. Every 4-source cell must also hold
    /// same-instant arrivals from two different sources, the ties a
    /// run's bound has to hand to the competitor.
    ///
    /// It bites: with the `buf.cursor < barrier` condition deleted from
    /// `IngestStage::batch_refill` (lookahead straight through rate
    /// ticks) this test fails in the first Holt-Winters cell, at the
    /// first arrival after the first tick (packet 2101: stream
    /// 700 451 ns, scalar engine 700 212 ns). The constant-rate cells
    /// before it still pass — their refresh draws no RNG — which is why
    /// the grid has both. Each of three wrong run bounds in
    /// `PlanStream::draw` fails it on the burst path (the iterator draws
    /// runs of one packet, so only bursts carry a run past its first):
    /// - `next <= bound` (a time tie kept in the run): 1 source,
    ///   Holt-Winters, 1 µs tick, packet 1383 (stream 407 151 ns, scalar
    ///   engine 407 161 ns: an arrival that tied with a tick went ahead
    ///   of it, so the gap after it was drawn before that refresh);
    /// - a bound without the rate tick (the other sources' heads only):
    ///   1 source, Holt-Winters, 0.7 ms tick, packet 2101 (stream
    ///   700 451 ns, scalar engine 700 212 ns);
    /// - a bound without the other sources (the rate tick only): 4
    ///   sources, constant rate, 0.7 ms tick, packet 1 (stream 198 ns
    ///   from `IpForward`, scalar engine 27 ns from `MalwareScan`).
    ///
    /// The 4-source cells hold 402, 402, 421 and 451 source ties.
    #[test]
    fn stream_yields_the_scalar_arrival_sequence_packet_for_packet() {
        let mut tick_ties = 0usize;
        for n_sources in [1usize, 4] {
            for holt_winters in [false, true] {
                for tick_ns in [700_000, 1_000] {
                    let srcs = grid_sources(n_sources, holt_winters);
                    let c = EngineConfig {
                        // Not a multiple of the tick or of any burst.
                        duration: SimTime::from_nanos(3_333_333),
                        rate_update_interval: SimTime::from_nanos(tick_ns),
                        execution: ExecutionMode::Scalar,
                        ..cfg(0)
                    };
                    let engine = Engine::with_probes(
                        c.clone(),
                        &srcs,
                        JoinShortestQueue::new(),
                        ArrivalLog::default(),
                    );
                    let (_, _, log) = engine.run_full();
                    let one_by_one: Vec<ScheduledPacket> = PlanStream::new(&c, &srcs).collect();
                    let mut bursts = Vec::new();
                    let (mut stream, mut burst) = (PlanStream::new(&c, &srcs), Vec::new());
                    while stream.next_burst(&mut burst) {
                        bursts.extend_from_slice(&burst);
                    }
                    bursts.extend_from_slice(&burst);
                    for (path, drawn) in [("iterator", &one_by_one), ("bursts", &bursts)] {
                        let cell = format!(
                            "{n_sources} sources, hw {holt_winters}, tick {tick_ns} ns, {path}"
                        );
                        let streamed: Vec<_> = drawn
                            .iter()
                            .map(|p| (p.at, p.id, p.slot, p.service, p.size))
                            .collect();
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
                    }
                    if n_sources > 1 {
                        let source_ties = one_by_one
                            .windows(2)
                            .filter(|w| w[0].at == w[1].at && w[0].src != w[1].src)
                            .count();
                        assert!(
                            source_ties > 0,
                            "{n_sources} sources, hw {holt_winters}, tick {tick_ns} ns: \
                             no two sources ever arrived at one instant"
                        );
                    }
                    tick_ties += one_by_one
                        .iter()
                        .filter(|p| p.at.as_nanos() % tick_ns == 0)
                        .count();
                }
            }
        }
        assert!(tick_ties > 0, "no arrival ever tied with a rate tick");
    }

    #[test]
    fn plan_is_the_drained_stream() {
        let plan = ArrivalPlan::from_config(&cfg(10), &sources());
        let mut stream = PlanStream::new(&cfg(10), &sources());
        let hint = stream.expected_packets() as f64;
        let drained: Vec<ScheduledPacket> = stream.by_ref().collect();
        assert_eq!(plan.packets, drained);
        assert_eq!(plan.slow_path, 0);
        assert_eq!(plan.flow_count, stream.flow_count());
        assert_eq!(plan.n_sources, 2);
        assert!(
            (hint / drained.len() as f64 - 1.0).abs() < 0.05,
            "pre-sizing hint {hint} vs {} packets",
            drained.len()
        );
    }

    /// Bursts concatenate to the packet-by-packet stream: every burst
    /// but the last is full, and the last is short (here: empty, when
    /// the stream length is a multiple of the burst).
    #[test]
    fn bursts_concatenate_to_the_stream() {
        let one_by_one: Vec<ScheduledPacket> = PlanStream::new(&cfg(10), &sources()).collect();
        let mut stream = PlanStream::new(&cfg(10), &sources());
        let (mut drawn, mut burst) = (Vec::new(), Vec::new());
        while stream.next_burst(&mut burst) {
            assert_eq!(burst.len(), PlanStream::BURST);
            drawn.extend_from_slice(&burst);
        }
        assert!(burst.len() < PlanStream::BURST);
        drawn.extend_from_slice(&burst);
        assert_eq!(drawn, one_by_one);
        assert!(drawn.len() > 10 * PlanStream::BURST, "several bursts");
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

    /// Every arrival is admitted, so slots are dense in stream order: a
    /// flow's first packet (`flow_seq` 0) takes the slot numbered by the
    /// distinct flows yielded before it, and every later packet a slot
    /// below that — on T2's four sources (four namespace tables) and on
    /// two sources sharing one preset (one table, shared flows).
    /// npexec's dispatcher grows its per-flow state by `push` on this.
    ///
    /// It bites: with `IngestStage::batch_refill` assigning each
    /// lookahead record's slot where it now only prefetches the table
    /// line (slots in per-source draw order, not stream order), it fails
    /// on T2 at packet 0.
    #[test]
    fn first_packets_take_the_next_dense_slot() {
        let t2 = nptraffic::Scenario::by_id(2).expect("Table VI defines T2");
        let t2_sources: Vec<SourceConfig> = ServiceKind::ALL
            .iter()
            .zip(t2.group.traces())
            .map(|(&service, trace)| SourceConfig {
                service,
                trace,
                rate: RateSpec::HoltWinters(t2.params.rate_model(service)),
            })
            .collect();
        let shared: Vec<SourceConfig> = [ServiceKind::IpForward, ServiceKind::VpnOut]
            .map(|service| SourceConfig {
                service,
                trace: TracePreset::Caida(1),
                rate: RateSpec::Constant(2.0),
            })
            .to_vec();
        for (cell, srcs) in [("T2", t2_sources), ("shared preset", shared)] {
            let mut stream = PlanStream::new(&cfg(10), &srcs);
            let (mut flows, mut packets) = (0, 0);
            for p in stream.by_ref() {
                packets += 1;
                if p.flow_seq == 0 {
                    assert_eq!(p.slot.index(), flows, "{cell}: packet {}", p.id);
                    flows += 1;
                } else {
                    assert!(p.slot.index() < flows, "{cell}: packet {}", p.id);
                }
            }
            assert_eq!(stream.flow_count(), flows, "{cell}: every slot yielded");
            assert!(
                flows > 1_000 && flows < packets / 2,
                "{cell}: {flows} flows in {packets} packets"
            );
        }
    }
}
