//! The traced phase: per-layer numbers, measured from outside.
//!
//! Three sources feed the per-layer metrics:
//!
//! * **the engine's own stage accounting** — one repetition under
//!   `Engine::run_with_cycles` (already public), next to an untraced
//!   repetition of the same configuration: their reports must hash
//!   equal, and their time difference is the tracing overhead;
//! * **counts** from that untraced repetition's report, its returned
//!   scheduler, and (on `exec-forward`) the thread runtime's statistics;
//! * **isolated replay** — the workload's own packet stream
//!   (`ArrivalPlan::from_config` of the workload's configuration) pushed
//!   in bursts of 4096 packets through each layer's public functions,
//!   every call wrapped in a span whose parent is the burst's span.
//!
//! A layer is replayed only where the workload's timed path calls it;
//! elsewhere it reports 0 — the layer did no work there. Isolated replay
//! runs with warm caches and without the engine's interleaving, so it
//! is a lower bound on the in-engine cost: `bench.layer_residual_frac`
//! prints what the sum of the layers leaves unexplained.

use std::collections::BTreeMap;
use std::hint::black_box;

use detsim::{EventQueue, Histogram};
use laps::prelude::*;
use laps::{GroupBoard, MigrationTable, SpscConsumer, SpscProducer};
use npafd::Afd;
use nphash::{crc16_ccitt_batch, Crc16Ccitt, FlowId, FlowInterner, FlowSlot, MapTable};
use npsim::{
    ArrivalPlan, OrderTracker, PacketDesc, QueueInfo, ScheduledPacket, SystemView, TrafficSource,
};
use nptrace::TraceGenerator;
use nptraffic::DelayModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::clock::Stopwatch;
use crate::span::Recorder;
use crate::stats::{debug_digest, median, quantile};
use crate::timed::{check_rep, run_rep, Checks, Rep};
use crate::workload::{exec_config, Runner, Workload};

/// Packets per replay burst (one parent span each).
const BURST: usize = 4096;
/// Rate-law evaluations per source per burst (enough that the span is
/// not dominated by its two clock reads).
const REFRESHES_PER_BURST: u64 = 64;
/// Pending events kept in the replayed heap — the engine's steady
/// state (≈ one finish per busy core plus one arrival per source).
const PENDING_EVENTS: u32 = 18;
/// Descriptors streamed across threads per pass.
const XTHREAD_DESCS: u64 = 1 << 20;
/// Mark → release round trips per pass.
const HANDSHAKES: u64 = 20_000;
/// `exec-forward` iterations per pass feeding the `npexec.*` numbers.
const EXEC_ITERS: usize = 3;

/// Per-layer metric values by name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// Samples of one quantity across passes.
#[derive(Debug, Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }
    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
    fn all(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Time and operation totals of one layer within one pass.
#[derive(Debug, Default, Clone, Copy)]
struct Acc {
    ns: u64,
    ops: u64,
}

/// One replay pass: spans go to the recorder, totals accumulate here.
struct Pass<'a> {
    rec: &'a mut Recorder,
    pass: u32,
    acc: BTreeMap<&'static str, Acc>,
}

impl Pass<'_> {
    /// Run `f` as a span of `layer` under `parent`; `f` returns how many
    /// operations it did.
    fn layer(&mut self, layer: &'static str, parent: u32, burst: u32, f: impl FnOnce() -> u64) {
        let (ns, ops) = {
            let id = self.rec.open(layer, Some(parent), self.pass, burst);
            let ops = f();
            (self.rec.close(id, ops), ops)
        };
        let a = self.acc.entry(layer).or_default();
        a.ns += ns;
        a.ops += ops;
    }
}

fn desc_of(p: &ScheduledPacket) -> PacketDesc {
    PacketDesc {
        id: p.id,
        flow: p.flow,
        slot: p.slot,
        service: p.service,
        size: p.size,
        arrival: p.at,
        flow_seq: p.flow_seq,
        migrated: false,
        sync_debt_ns: 0,
    }
}

/// Sixteen identical queues of depth `len`: every core idle (0) or every
/// core at the overload threshold.
fn queue_view(n_cores: usize, len: usize) -> Vec<QueueInfo> {
    vec![
        QueueInfo {
            len,
            capacity: 32,
            busy: len > 0,
            idle_since: (len == 0).then_some(SimTime::ZERO),
            last_congested: SimTime::ZERO,
            up: true,
        };
        n_cores
    ]
}

/// Layer state that lives across the bursts of one pass, so stateful
/// layers (generator, interner, AFD, scheduler, tracker) see the stream
/// in order, exactly once.
struct ReplayState {
    gens: Vec<TraceGenerator>,
    gap_sources: Vec<(TrafficSource, StdRng)>,
    header_sources: Vec<TrafficSource>,
    header_interner: FlowInterner,
    rate_rng: StdRng,
    interner: FlowInterner,
    map: MapTable<usize>,
    afd: Afd<FlowSlot>,
    laps_calm: Laps,
    laps_hot: Laps,
    migration: MigrationTable<FlowSlot>,
    ring: (SpscProducer, SpscConsumer),
    heap: EventQueue<u32>,
    histogram: Histogram,
    order: OrderTracker,
    delay: DelayModel,
}

impl ReplayState {
    fn new(w: Workload, cfg: &EngineConfig, sources: &[SourceConfig], plan: &ArrivalPlan) -> Self {
        let laps_cfg = laps_config_for(cfg);
        // LAPS starts every service on n_cores / 4 cores; npexec maps
        // 8 × workers flow groups onto its workers.
        let map_cores: Vec<usize> = match w.runner() {
            Runner::Detsim { .. } => (0..cfg.n_cores / 4).collect(),
            Runner::Threads => {
                let workers = exec_config().workers;
                (0..workers * 8).map(|g| g % workers).collect()
            }
        };
        // Seed the migration table with the first flows of the stream
        // (the heavy ones show up first), half its capacity.
        let mut migration = MigrationTable::new(laps_cfg.migration_cap);
        let mut seen = 0usize;
        for p in &plan.packets {
            if migration.get(p.slot).is_none() {
                migration.insert(p.slot, seen % cfg.n_cores);
                seen += 1;
                if seen >= laps_cfg.migration_cap / 2 {
                    break;
                }
            }
        }
        let mut heap = EventQueue::with_capacity(64);
        for e in 0..PENDING_EVENTS {
            heap.push(SimTime::from_nanos(u64::from(e) * 97), e);
        }
        let mut delay = cfg.delay;
        delay.scale = cfg.scale;
        ReplayState {
            gens: sources.iter().map(|s| s.trace.generator(0)).collect(),
            gap_sources: sources
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    (
                        TrafficSource::new(s),
                        StdRng::seed_from_u64(cfg.seed ^ i as u64),
                    )
                })
                .collect(),
            header_sources: sources.iter().map(TrafficSource::new).collect(),
            header_interner: FlowInterner::new(),
            rate_rng: StdRng::seed_from_u64(cfg.seed),
            interner: FlowInterner::new(),
            map: MapTable::new(map_cores),
            afd: Afd::new(laps_cfg.afd),
            laps_calm: Laps::new(laps_cfg),
            laps_hot: Laps::new(laps_cfg),
            migration,
            ring: laps::spsc::ring(exec_config().ring_capacity),
            heap,
            histogram: Histogram::new(),
            order: OrderTracker::new(),
            delay,
        }
    }
}

/// Replay one pass of `plan` through the layers on `w`'s path.
fn replay_pass(
    w: Workload,
    cfg: &EngineConfig,
    sources: &[SourceConfig],
    plan: &ArrivalPlan,
    pass: &mut Pass<'_>,
    checks: &mut Checks,
) {
    let mut st = ReplayState::new(w, cfg, sources, plan);
    let detsim = matches!(w.runner(), Runner::Detsim { .. });
    let threads = !detsim;
    let laps_on = w.runs_laps();
    let hashes = laps_on || threads;
    let scalar_loop = !cfg.faults.is_empty();
    let holt_winters = sources
        .iter()
        .any(|s| matches!(s.rate, RateSpec::HoltWinters(_)));
    let calm = queue_view(cfg.n_cores, 0);
    let hot = queue_view(cfg.n_cores, laps_config_for(cfg).high_thresh);

    let crc_table = Crc16Ccitt::new();
    let mut keys: Vec<[u8; 13]> = Vec::with_capacity(BURST);
    let mut flows: Vec<FlowId> = Vec::with_capacity(BURST);
    let mut descs: Vec<PacketDesc> = Vec::with_capacity(BURST);
    let mut crc_scalar = vec![0u16; BURST];
    let mut crc_batch = vec![0u16; BURST];
    let mut core_scalar = vec![0usize; BURST];
    let mut core_batch = vec![0usize; BURST];

    for (b, burst) in plan.packets.chunks(BURST).enumerate() {
        let b = b as u32;
        let n = burst.len();
        let ops = n as u64;
        let root = pass.rec.open("burst", None, pass.pass, b);
        let now = burst.first().map_or(SimTime::ZERO, |p| p.at);

        // Inputs prepared outside any layer span.
        keys.clear();
        keys.extend(burst.iter().map(|p| p.flow.to_bytes()));
        flows.clear();
        flows.extend(burst.iter().map(|p| p.flow));
        descs.clear();
        descs.extend(burst.iter().map(desc_of));

        // --- nptrace / npsim ingest ---------------------------------------
        pass.layer("nptrace.next_packet", root, b, || {
            for p in burst {
                if let Some(g) = st.gens.get_mut(p.src as usize) {
                    black_box(g.next_packet());
                }
            }
            ops
        });
        pass.layer("npsim.source_gap", root, b, || {
            for p in burst {
                if let Some((s, rng)) = st.gap_sources.get_mut(p.src as usize) {
                    black_box(s.draw_gap(cfg.scale, rng));
                }
            }
            ops
        });
        pass.layer("npsim.source_header", root, b, || {
            for p in burst {
                if let Some(s) = st.header_sources.get_mut(p.src as usize) {
                    black_box(s.next_header_interned(&mut st.header_interner));
                }
            }
            ops
        });
        pass.layer("nphash.intern", root, b, || {
            for &f in &flows {
                black_box(st.interner.intern(f));
            }
            ops
        });
        if holt_winters {
            pass.layer("nptraffic.rate_refresh", root, b, || {
                for _ in 0..REFRESHES_PER_BURST {
                    for s in sources {
                        black_box(s.rate.rate_at(now, &mut st.rate_rng));
                    }
                }
                REFRESHES_PER_BURST * sources.len() as u64
            });
        }
        pass.layer("nptraffic.delay_model", root, b, || {
            for p in burst {
                black_box(
                    st.delay
                        .processing_delay_us(p.service, p.size, false, false),
                );
            }
            ops
        });

        // --- nphash -------------------------------------------------------
        if hashes {
            pass.layer("nphash.crc16", root, b, || {
                for (&f, o) in flows.iter().zip(crc_scalar.iter_mut()) {
                    *o = black_box(f).crc16(&crc_table);
                }
                ops
            });
            pass.layer("nphash.crc16_batch", root, b, || {
                crc16_ccitt_batch(black_box(&keys), &mut crc_batch[..n]);
                ops
            });
            pass.layer("nphash.maptable_lookup", root, b, || {
                for (&f, o) in flows.iter().zip(core_scalar.iter_mut()) {
                    *o = st.map.lookup(black_box(f));
                }
                ops
            });
            pass.layer("nphash.maptable_lookup_batch", root, b, || {
                st.map.lookup_batch(black_box(&flows), &mut core_batch[..n]);
                ops
            });
            let crc_bad = crc_scalar[..n]
                .iter()
                .zip(&crc_batch[..n])
                .filter(|(a, b)| a != b)
                .count() as u64;
            let map_bad = core_scalar[..n]
                .iter()
                .zip(&core_batch[..n])
                .filter(|(a, b)| a != b)
                .count() as u64;
            checks.record(2 * ops, crc_bad + map_bad, || {
                format!("burst {b}: {crc_bad} batch CRCs and {map_bad} batch lookups differ from scalar")
            });
        }

        // --- npafd / laps decision path -----------------------------------
        if laps_on {
            pass.layer("npafd.access", root, b, || {
                for p in burst {
                    black_box(st.afd.access(p.slot));
                }
                ops
            });
            pass.layer("laps.schedule", root, b, || {
                for d in &descs {
                    let view = SystemView {
                        now: d.arrival,
                        queues: &calm,
                    };
                    black_box(st.laps_calm.schedule(d, &view));
                }
                ops
            });
            pass.layer("laps.schedule_overloaded", root, b, || {
                for d in &descs {
                    let view = SystemView {
                        now: d.arrival,
                        queues: &hot,
                    };
                    black_box(st.laps_hot.schedule(d, &view));
                }
                ops
            });
            pass.layer("laps.migration_table_get", root, b, || {
                for p in burst {
                    black_box(st.migration.get(p.slot));
                }
                ops
            });
        }

        // --- detsim / npsim departure side --------------------------------
        if scalar_loop {
            pass.layer("detsim.eventq_push_pop", root, b, || {
                for _ in 0..n {
                    if let Some((t, e)) = st.heap.pop() {
                        let gap = 700 + u64::from(e) * 37 % 500;
                        st.heap.push(t + SimTime::from_nanos(gap), e);
                    }
                }
                ops
            });
        }
        if detsim {
            pass.layer("detsim.histogram_record", root, b, || {
                for p in burst {
                    // Latency-shaped values: a few µs to a few hundred µs.
                    st.histogram
                        .record(2_000 + (p.id.wrapping_mul(0x9E37_79B9) & 0x3_FFFF));
                }
                ops
            });
            pass.layer("npsim.order_tracker", root, b, || {
                for p in burst {
                    black_box(st.order.record_departure(p.slot, p.flow_seq));
                }
                ops
            });
        }

        // --- laps::spsc, one thread ---------------------------------------
        if threads {
            let (tx, rx) = (&mut st.ring.0, &mut st.ring.1);
            pass.layer("laps.spsc_push_pop", root, b, || {
                for half in burst.chunks(512) {
                    for p in half {
                        black_box(tx.try_push(laps::Desc::Packet(p.id)).is_ok());
                    }
                    while let Some(d) = rx.try_pop() {
                        black_box(d);
                    }
                }
                ops
            });
        }
        pass.rec.close(root, ops);
    }
    black_box((
        st.histogram.count(),
        st.interner.len(),
        st.afd.stats().offered,
    ));
}

/// Spin-then-yield, as npexec's dispatcher and workers wait: on a host
/// with fewer cores than threads a pure spin would burn whole time
/// slices waiting for a peer that is not running.
#[derive(Default)]
struct Backoff(u32);

impl Backoff {
    fn wait(&mut self) {
        self.0 += 1;
        if self.0 >= 64 {
            self.0 = 0;
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Stream descriptors producer → consumer across two threads, then run
/// mark → release handshakes across them (main thread = dispatcher, one
/// spawned thread = worker).
fn cross_thread(pass: &mut Pass<'_>) {
    let root = pass.rec.open("threads", None, pass.pass, 0);
    let (mut tx, mut rx) = laps::spsc::ring(exec_config().ring_capacity);
    pass.layer("laps.spsc_xthread", root, 0, || {
        std::thread::scope(|s| {
            let consumer = s.spawn(move || {
                let mut got = 0u64;
                let mut idle = Backoff::default();
                while got < XTHREAD_DESCS {
                    match rx.try_pop() {
                        Some(d) => {
                            black_box(d);
                            got += 1;
                        }
                        None => idle.wait(),
                    }
                }
            });
            let mut full = Backoff::default();
            for i in 0..XTHREAD_DESCS {
                while tx.try_push(laps::Desc::Packet(i)).is_err() {
                    full.wait();
                }
            }
            if consumer.join().is_err() {
                unreachable!("the consumer only pops and counts");
            }
        });
        XTHREAD_DESCS
    });

    let (mut tx, mut rx) = laps::spsc::ring(exec_config().ring_capacity);
    let board = GroupBoard::new(16);
    pass.layer("laps.handshake_roundtrip", root, 0, || {
        std::thread::scope(|s| {
            let old_worker = {
                let board = board.clone();
                s.spawn(move || {
                    let mut idle = Backoff::default();
                    loop {
                        match rx.try_pop() {
                            // The old worker acks a mark after everything
                            // queued before it; a packet is the stop signal.
                            Some(laps::Desc::Mark(g)) => board.release(g as usize),
                            Some(laps::Desc::Packet(_)) => return,
                            None => idle.wait(),
                        }
                    }
                })
            };
            let mut wait = Backoff::default();
            for i in 0..HANDSHAKES {
                let group = (i % 16) as usize;
                while tx.try_push_mark(group as u64).is_err() {
                    wait.wait();
                }
                board.begin(group);
                while board.in_flight(group) {
                    wait.wait();
                }
            }
            while tx.try_push(laps::Desc::Packet(0)).is_err() {
                wait.wait();
            }
            if old_worker.join().is_err() {
                unreachable!("the worker only pops and releases");
            }
        });
        HANDSHAKES
    });
    pass.rec.close(root, XTHREAD_DESCS + HANDSHAKES);
}

/// What one pair of engine repetitions (untraced, traced) yields.
struct EnginePair {
    untraced: Rep,
    traced_ns: f64,
    cycles: CycleReport,
    afd: Option<npafd::AfdStats>,
    laps_migrations: u64,
}

/// Run the configuration untraced and under `run_with_cycles`, with the
/// concrete scheduler type so its counters can be read back.
fn engine_pair(
    w: Workload,
    cfg: &EngineConfig,
    sources: &[SourceConfig],
    rec: &mut Recorder,
    pass: u32,
    checks: &mut Checks,
) -> EnginePair {
    fn pair<S: Scheduler>(
        cfg: &EngineConfig,
        sources: &[SourceConfig],
        rec: &mut Recorder,
        pass: u32,
        mk: impl Fn() -> S,
    ) -> (Rep, S, f64, SimReport, CycleReport) {
        let engine = Engine::new(cfg.clone(), sources, mk());
        let id = rec.open("engine.run", None, pass, 0);
        let start = Stopwatch::start();
        let (report, scheduler) = engine.run_returning_scheduler();
        let run_ns = start.ns() as f64;
        rec.close(id, report.offered + report.slow_path);

        let engine = Engine::new(cfg.clone(), sources, mk());
        let id = rec.open("engine.run_with_cycles", None, pass, 0);
        let start = Stopwatch::start();
        let (traced, cycles) = engine.run_with_cycles();
        let traced_ns = start.ns() as f64;
        rec.close(id, traced.offered + traced.slow_path);
        let rep = Rep {
            report,
            run_ns,
            exec: None,
        };
        (rep, scheduler, traced_ns, traced, cycles)
    }

    let (untraced, afd, laps_migrations, traced_ns, traced, cycles) = if w.runs_laps() {
        let (rep, s, ns, traced, cycles) =
            pair(cfg, sources, rec, pass, || Laps::new(laps_config_for(cfg)));
        (
            rep,
            Some(*s.afd().stats()),
            s.migrations(),
            ns,
            traced,
            cycles,
        )
    } else {
        let (rep, _s, ns, traced, cycles) = pair(cfg, sources, rec, pass, Fcfs::new);
        (rep, None, 0, ns, traced, cycles)
    };
    let want = debug_digest(&untraced.report);
    check_rep(w, &untraced, Some(want), checks);
    checks.record(1, u64::from(debug_digest(&traced) != want), || {
        format!("{}: traced report differs from the untraced one", w.name())
    });
    EnginePair {
        untraced,
        traced_ns,
        cycles,
        afd,
        laps_migrations,
    }
}

/// Share of packets in the 16 heaviest flows, and mean packet size.
fn traffic_shape(plan: &ArrivalPlan) -> (f64, f64) {
    let mut per_flow = vec![0u64; plan.flow_count];
    let mut bytes = 0u64;
    for p in &plan.packets {
        if let Some(c) = per_flow.get_mut(p.slot.index()) {
            *c += 1;
        }
        bytes += u64::from(p.size);
    }
    per_flow.sort_unstable_by(|a, b| b.cmp(a));
    let top: u64 = per_flow.iter().take(16).sum();
    let n = plan.packets.len().max(1) as f64;
    (top as f64 / n, bytes as f64 / n)
}

/// Run the traced phase of `w` for about `seconds`; returns every
/// per-layer metric and the recorder holding the spans.
pub fn run(w: Workload, seed: u64, seconds: f64, checks: &mut Checks) -> (LayerValues, Recorder) {
    let cfg = w.engine_config(seed);
    let sources = w.sources();
    let registry = SchedulerRegistry::builtin();
    let mut rec = Recorder::new(w.name());
    let mut calib = crate::calib::Calibrator::new();
    let phase = Stopwatch::start();

    // The workload's own packet stream, built once (its build time is a
    // layer number of its own).
    let id = rec.open("npsim.plan_build", None, 0, 0);
    let plan = ArrivalPlan::from_config(&cfg, &sources);
    let packets = (plan.offered() + plan.slow_path).max(1) as f64;
    let mut s = Samples::default();
    s.push(
        "npsim.plan_build_ns",
        rec.close(id, plan.offered()) as f64 / packets,
    );
    let (top16_share, mean_bytes) = traffic_shape(&plan);

    let mut last_report = None;
    let mut pass_no = 0u32;
    loop {
        s.push("bench.calib_ns_per_step", calib.pass());
        match w.runner() {
            Runner::Detsim { .. } => {
                let pair = engine_pair(w, &cfg, &sources, &mut rec, pass_no, checks);
                let r = &pair.untraced.report;
                let n = pair.untraced.packets();
                s.push("bench.host_ns_per_packet", pair.untraced.run_ns / n);
                s.push(
                    "bench.host_ns_per_event",
                    pair.untraced.run_ns / r.events.max(1) as f64,
                );
                s.push(
                    "npsim.trace_overhead_frac",
                    (pair.traced_ns - pair.untraced.run_ns) / pair.untraced.run_ns,
                );
                if !pair.cycles.is_empty() {
                    let mut staged = 0.0;
                    for (stage, name) in [
                        (Stage::Ingest, "npsim.stage_ingest_ns"),
                        (Stage::Dispatch, "npsim.stage_dispatch_ns"),
                        (Stage::Service, "npsim.stage_service_ns"),
                        (Stage::Record, "npsim.stage_record_ns"),
                        (Stage::Merge, "npsim.stage_merge_ns"),
                    ] {
                        let ns = pair.cycles.stage(stage).cycles as f64 / n;
                        staged += ns;
                        s.push(name, ns);
                    }
                    s.push("npsim.stage_residual_ns", pair.traced_ns / n - staged);
                }
                if let Some(a) = pair.afd {
                    let sampled = a.sampled.max(1) as f64;
                    s.push("npafd.afc_hit_frac", a.afc_hits as f64 / sampled);
                    s.push("npafd.annex_hit_frac", a.annex_hits as f64 / sampled);
                    s.push("npafd.miss_frac", a.misses as f64 / sampled);
                    s.push("npafd.promotions_per_mpkt", a.promotions as f64 / n * 1e6);
                    s.push(
                        "laps.migrations_per_mpkt",
                        pair.laps_migrations as f64 / n * 1e6,
                    );
                    s.push(
                        "laps.core_reallocs_per_mpkt",
                        r.core_reallocations as f64 / n * 1e6,
                    );
                }
                last_report = Some(pair.untraced.report);
            }
            Runner::Threads => {
                // `ExecBackend::run` rebuilds the plan on every call:
                // time one build next to the iterations it is subtracted
                // from, so host drift hits both alike.
                let id = rec.open("npsim.plan_build", None, pass_no, 0);
                black_box(ArrivalPlan::from_config(&cfg, &sources));
                let plan_build_ns = rec.close(id, plan.offered()) as f64 / packets;
                s.push("npsim.plan_build_ns", plan_build_ns);
                for _ in 0..EXEC_ITERS {
                    let id = rec.open("npexec.run", None, pass_no, 0);
                    let rep = run_rep(w, &cfg, &sources, &registry);
                    rec.close(id, rep.report.offered);
                    check_rep(w, &rep, None, checks);
                    let n = rep.packets();
                    s.push("bench.host_ns_per_packet", rep.run_ns / n);
                    s.push(
                        "bench.host_ns_per_event",
                        rep.run_ns / rep.report.events.max(1) as f64,
                    );
                    if let Some(x) = &rep.exec {
                        s.push("npexec.thread_scope_mpps", x.mpps);
                        let scope_ns = x.wall_secs * 1e9;
                        s.push(
                            "npexec.report_assembly_ns",
                            (rep.run_ns - scope_ns) / n - plan_build_ns,
                        );
                        s.push("npexec.plan_share", plan_build_ns * n / rep.run_ns);
                        s.push(
                            "npexec.handshakes_per_mpkt",
                            x.handshakes.completed as f64 / n * 1e6,
                        );
                        s.push(
                            "npexec.handshake_abort_frac",
                            x.handshakes.aborted as f64
                                / (x.handshakes.begun + x.handshakes.aborted).max(1) as f64,
                        );
                        s.push("npexec.max_hold_depth", x.max_hold_depth as f64);
                    }
                    last_report = Some(rep.report);
                }
            }
        }

        let mut pass = Pass {
            rec: &mut rec,
            pass: pass_no,
            acc: BTreeMap::new(),
        };
        replay_pass(w, &cfg, &sources, &plan, &mut pass, checks);
        if w.runner() == Runner::Threads {
            cross_thread(&mut pass);
        }
        for (layer, a) in pass.acc {
            // Span `crate.function` feeds metric `crate.function_ns`.
            if let Some(m) = crate::metrics::find(&format!("{layer}_ns")) {
                s.push(m.name, a.ns as f64 / a.ops.max(1) as f64);
            }
        }
        pass_no += 1;
        if phase.secs() >= seconds {
            break;
        }
    }

    let Some(report) = last_report else {
        unreachable!("the loop above runs at least once");
    };
    let per_mpkt = |count: u64| count as f64 / report.offered.max(1) as f64 * 1e6;
    let host_ns = s.median("bench.host_ns_per_packet");
    let events_per_packet = report.events as f64 / packets;
    let refreshes_per_packet = if s.all("nptraffic.rate_refresh_ns").is_empty() {
        0.0
    } else {
        let ticks = cfg.duration.as_nanos() / cfg.rate_update_interval.as_nanos().max(1);
        (ticks * sources.len() as u64) as f64 / packets
    };
    let plan_build_ns = s.median("npsim.plan_build_ns");
    let mpps = s.median("npexec.thread_scope_mpps");
    let dispatch_ns = if mpps > 0.0 { 1_000.0 / mpps } else { 0.0 };
    // The steps a packet blocks on, per runner (README, "Layer sum").
    let layer_sum = match w.runner() {
        Runner::Detsim { .. } => {
            s.median("npsim.source_gap_ns")
                + s.median("npsim.source_header_ns")
                + s.median("nptraffic.rate_refresh_ns") * refreshes_per_packet
                + s.median("laps.schedule_ns")
                + s.median("nptraffic.delay_model_ns")
                + s.median("detsim.eventq_push_pop_ns") * events_per_packet
                + s.median("detsim.histogram_record_ns")
                + s.median("npsim.order_tracker_ns")
        }
        Runner::Threads => plan_build_ns + s.median("nphash.crc16_ns") + dispatch_ns,
    };

    // Everything sampled per pass reports its median over the passes; a
    // metric never sampled (its layer is off this workload's path) reads 0.
    let mut v: LayerValues = crate::metrics::PER_LAYER
        .iter()
        .map(|m| (m.name, s.median(m.name)))
        .collect();
    v.insert("traffic.packets", packets);
    v.insert("traffic.events", report.events as f64);
    v.insert("traffic.flows", plan.flow_count as f64);
    v.insert("traffic.top16_share", top16_share);
    v.insert("traffic.mean_packet_bytes", mean_bytes);
    v.insert(
        "traffic.offered_mpps",
        packets / cfg.duration.as_micros_f64() * cfg.scale,
    );
    v.insert("nphash.flows_interned", plan.flow_count as f64);
    v.insert("npsim.events_per_packet", events_per_packet);
    v.insert("npsim.drops_per_mpkt", per_mpkt(report.dropped));
    v.insert("npsim.ooo_per_mpkt", per_mpkt(report.out_of_order));
    v.insert("npsim.cold_per_mpkt", per_mpkt(report.cold_starts));
    v.insert("npsim.migrated_per_mpkt", per_mpkt(report.migrated_packets));
    v.insert("npsim.latency_mean_us", report.mean_latency_us());
    v.insert(
        "npsim.latency_p50_us",
        report.latency.quantile(0.5) as f64 / 1_000.0,
    );
    v.insert(
        "npsim.latency_p99_us",
        report.latency.quantile(0.99) as f64 / 1_000.0,
    );
    v.insert(
        "npexec.thread_scope_mpps_p10",
        quantile(s.all("npexec.thread_scope_mpps"), 0.1).unwrap_or(0.0),
    );
    v.insert("npexec.dispatch_ns", dispatch_ns);
    v.insert("bench.layer_sum_ns", layer_sum);
    v.insert(
        "bench.layer_residual_frac",
        if host_ns > 0.0 {
            (host_ns - layer_sum) / host_ns
        } else {
            0.0
        },
    );
    (v, rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_declared_layer_metric_is_produced_and_bypasses_read_zero() {
        for w in crate::workload::ALL {
            // A 2 ms horizon keeps the test quick; `seconds` 0 = one pass.
            let cfg = w.engine_config_with(5, 2);
            let sources = w.sources();
            let plan = ArrivalPlan::from_config(&cfg, &sources);
            let mut rec = Recorder::new(w.name());
            let mut checks = Checks::default();
            let mut pass = Pass {
                rec: &mut rec,
                pass: 0,
                acc: BTreeMap::new(),
            };
            replay_pass(w, &cfg, &sources, &plan, &mut pass, &mut checks);
            let seen: Vec<&str> = pass.acc.keys().copied().collect();
            assert_eq!(checks.failed, 0, "{:?}", checks.notes);
            assert_eq!(
                seen.contains(&"npafd.access"),
                w.runs_laps(),
                "{}",
                w.name()
            );
            assert_eq!(
                seen.contains(&"detsim.eventq_push_pop"),
                w == Workload::FaultT2Laps
            );
            assert_eq!(
                seen.contains(&"laps.spsc_push_pop"),
                w == Workload::ExecForward
            );
            assert!(seen.contains(&"nptrace.next_packet"));
            // Every layer span hangs off its burst span.
            assert!(rec
                .spans()
                .iter()
                .all(|sp| (sp.layer == "burst") == sp.parent.is_none()));
        }
    }

    #[test]
    fn traffic_shape_counts_heavy_flows_and_sizes() {
        let w = Workload::ForwardFcfs;
        let plan = ArrivalPlan::from_config(&w.engine_config_with(1, 2), &w.sources());
        let (top, mean) = traffic_shape(&plan);
        assert!(top > 0.0 && top < 1.0, "{top}");
        assert!((64.0..=1500.0).contains(&mean), "{mean}");
    }
}
