//! Cross-backend validation: the npexec thread-per-core runtime must
//! agree with the deterministic engine on every plan-level quantity and
//! must never reorder a flow, on at least one CAIDA-like and one
//! Auckland-like preset.
//!
//! Both backends replay the *same* [`npsim::PlanStream`] (the arrival
//! sequence the detsim engine ingests, packet for packet), so the offered stream —
//! packet count, per-service mix — must match exactly; the
//! execution side (queueing, migration policy) is where they are
//! allowed to differ, within bounds:
//!
//! * conservation is exact on both backends: `offered == processed +
//!   dropped`;
//! * npexec services with **zero** out-of-order packets — the mark →
//!   redirect → first-packet-ack handshake is the property under test;
//! * npexec's probes see the events its threads fold: arrivals /
//!   departures / drops / migrations / reorders equal the report
//!   fields, `dispatched` equals offered (the dispatcher pushes every
//!   packet), and the probe's `latency_ns` count and mean equal the
//!   report's latency histogram's;
//! * processed counts of the two backends agree within 2% of offered;
//! * npexec begins at least the two scripted handshakes and at most
//!   64 more than one per imbalance check.
//!
//! A third **fault pair** runs the same crash+heal plan on both
//! backends, detsim under `static`, whose map table retires and
//! restores buckets as npexec's does: the offered stream must still
//! match bit-exactly (crash/heal plans never perturb ingest),
//! conservation must stay exact through the crash on both, the fault
//! blocks must agree on crashes/heals/repairs, and npexec must deliver
//! zero out-of-order packets even across the crash window. One
//! `FaultProbe` per backend is the crash ledger: each must hold one
//! span that restarted, with moved off ≤ resident (true by construction
//! of the count: a consistency check), and the two recovery times must
//! agree within 1 %.
//!
//! That both backends charge the same busy time, cold starts and
//! latencies per core under a static map, with or without a throttle
//! or a stall, is the tier-1 test `crates/npexec/tests/core_model.rs`.
//!
//! `--smoke` shrinks the horizon for CI; the default run is longer.
//! `--pin` requests worker-thread CPU pinning (best-effort: restricted
//! runners that refuse affinity get a note, not a failure). Exits
//! non-zero listing every violated bound.

use laps_experiments::{print_table, results_dir, write_csv};
use npexec::{ForcedMigration, NpexecConfig, ThreadedBackend};
use npsim::{ExecBackend, MetricsProbe, ProbeStack, Recovery, SimReport};

use laps_experiments::laps::prelude::*;

/// One backend's numbers for one preset.
struct RunRow {
    backend: &'static str,
    preset: &'static str,
    report: SimReport,
    counters: Vec<(&'static str, u64)>,
    /// The probe's `latency_ns` histogram: `(count, mean)`.
    latency: (u64, f64),
    /// Marked handshakes begun (npexec; 0 on detsim).
    begun: u64,
}

/// Packets between npexec's imbalance checks in the preset pairs.
const REBALANCE_EVERY: u64 = 2048;

fn metrics(probes: &ProbeStack) -> Option<&MetricsProbe> {
    probes
        .first()
        .and_then(|p| p.as_any().downcast_ref::<MetricsProbe>())
}

fn counter(probes: &ProbeStack, name: &str) -> u64 {
    metrics(probes).and_then(|m| m.counter(name)).unwrap_or(0)
}

/// The configuration and the one constant-rate source both backends
/// of a pair run.
fn pair_config(
    preset: TracePreset,
    service: ServiceKind,
    rate: f64,
    ms: u64,
) -> (EngineConfig, Vec<SourceConfig>) {
    let cfg = EngineConfig {
        n_cores: 4,
        duration: SimTime::from_millis(ms),
        scale: 1.0,
        seed: 42,
        ..EngineConfig::default()
    };
    let sources = vec![SourceConfig {
        service,
        trace: preset,
        rate: RateSpec::Constant(rate),
    }];
    (cfg, sources)
}

/// Global knobs parsed once from argv.
#[derive(Clone, Copy)]
struct Opts {
    ms: u64,
    pin: bool,
}

/// Run one preset through both backends. The rate is per-pair: it must
/// sit below the deterministic engine's saturation point for the
/// chosen service (the engine models queueing and drops under
/// overload; npexec backpressures instead — comparing processed counts
/// is only meaningful when neither backend is shedding load).
fn run_pair(
    preset: TracePreset,
    preset_name: &'static str,
    service: ServiceKind,
    rate: f64,
    opts: Opts,
) -> (RunRow, RunRow) {
    let (cfg, sources) = pair_config(preset, service, rate, opts.ms);
    let (det_report, det_probes) = SimBuilder::new()
        .config(cfg.clone())
        .sources(sources.clone())
        .probe(MetricsProbe::new())
        .run_named_full("laps")
        .expect("builtin scheduler");

    let exec_cfg = NpexecConfig {
        workers: 4,
        rebalance_every: REBALANCE_EVERY,
        imbalance_ratio: 1.2,
        pin_threads: opts.pin,
        // Two scripted migrations guarantee the handshake is exercised
        // even if the rebalancer finds the load already even.
        forced_migrations: vec![
            ForcedMigration {
                after_packets: 100,
                group: 1,
                to_worker: 0,
            },
            ForcedMigration {
                after_packets: 300,
                group: 2,
                to_worker: 3,
            },
        ],
        ..NpexecConfig::default()
    };
    // npexec reads the scheduler's name only (ROADMAP item 1).
    let scheduler = SchedulerRegistry::builtin()
        .build("laps", &cfg)
        .expect("builtin scheduler");
    let probes: ProbeStack = vec![Box::new(MetricsProbe::new())];
    let mut backend = ThreadedBackend::new(exec_cfg);
    let (exec_report, exec_probes) = backend.run(&cfg, &sources, scheduler, probes);
    let begun = backend.last_stats().map_or(0, |s| s.handshakes.begun);

    let names = [
        "arrivals",
        "dispatched",
        "departures",
        "drops",
        "migrations",
        "reorders",
    ];
    let collect = |probes: &ProbeStack| {
        names
            .iter()
            .map(|n| (*n, counter(probes, n)))
            .collect::<Vec<_>>()
    };
    let latency = |probes: &ProbeStack| {
        metrics(probes)
            .and_then(|m| m.histograms().into_iter().find(|(n, _)| *n == "latency_ns"))
            .map_or((0, 0.0), |(_, h)| (h.count(), h.mean()))
    };
    (
        RunRow {
            backend: "detsim",
            preset: preset_name,
            counters: collect(&det_probes),
            latency: latency(&det_probes),
            report: det_report,
            begun: 0,
        },
        RunRow {
            backend: "npexec",
            preset: preset_name,
            counters: collect(&exec_probes),
            latency: latency(&exec_probes),
            report: exec_report,
            begun,
        },
    )
}

/// Every bound the pair must satisfy; returns human-readable
/// violations.
fn check_pair(det: &RunRow, exec: &RunRow, violations: &mut Vec<String>) {
    let p = det.preset;
    let mut fail = |cond: bool, msg: String| {
        if !cond {
            violations.push(format!("[{p}] {msg}"));
        }
    };

    // The offered stream is the same plan, bit for bit.
    fail(
        exec.report.offered == det.report.offered,
        format!(
            "offered streams diverge: npexec {} vs detsim {}",
            exec.report.offered, det.report.offered
        ),
    );
    for (e, d) in exec
        .report
        .per_service
        .iter()
        .zip(det.report.per_service.iter())
    {
        fail(
            e.offered == d.offered,
            format!(
                "per-service offered diverges: npexec {} vs detsim {}",
                e.offered, d.offered
            ),
        );
    }

    // Conservation, exact, on both backends.
    for r in [det, exec] {
        fail(
            r.report.offered == r.report.processed + r.report.dropped,
            format!(
                "{}: conservation broken: offered {} != processed {} + dropped {}",
                r.backend, r.report.offered, r.report.processed, r.report.dropped
            ),
        );
    }

    // The property under test: migration never reorders under npexec.
    fail(
        exec.report.out_of_order == 0,
        format!(
            "npexec reordered {} packets across migrations",
            exec.report.out_of_order
        ),
    );

    // npexec's probes see the events its report folds.
    let want = [
        ("arrivals", exec.report.offered),
        ("dispatched", exec.report.offered),
        ("departures", exec.report.processed),
        ("drops", exec.report.dropped),
        ("migrations", exec.report.migration_events),
        ("reorders", exec.report.out_of_order),
    ];
    for (name, expect) in want {
        let got = exec
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        fail(
            got == expect,
            format!("npexec probe `{name}` = {got}, report says {expect}"),
        );
    }
    let want = (exec.report.latency.count(), exec.report.latency.mean());
    fail(
        exec.latency == want,
        format!(
            "npexec probe latency (count, mean) = {:?}, report says {want:?}",
            exec.latency
        ),
    );

    // Execution-side bounds: throughput within 2% of detsim, and the
    // handshakes begun include the scripted ones, with no storm.
    let tol = det.report.offered / 50;
    let diff = exec.report.processed.abs_diff(det.report.processed);
    fail(
        diff <= tol,
        format!(
            "processed counts diverge beyond 2%: npexec {} vs detsim {} (tol {tol})",
            exec.report.processed, det.report.processed
        ),
    );
    fail(
        exec.begun >= 2,
        format!("scripted handshakes did not begin: {} begun", exec.begun),
    );
    fail(
        exec.begun <= 64 + exec.report.offered / REBALANCE_EVERY,
        format!(
            "handshake storm: {} begun over {} packets",
            exec.begun, exec.report.offered
        ),
    );
}

/// One backend's numbers for the crash+heal episode.
struct FaultRun {
    backend: &'static str,
    report: SimReport,
    /// The `FaultProbe`'s crash ledger.
    recoveries: Vec<Recovery>,
}

impl FaultRun {
    fn recovery_us(&self) -> Option<f64> {
        let span = self.recoveries.first()?;
        Some(span.recovery_time()?.as_nanos() as f64 / 1_000.0)
    }
}

/// The fault pair's configuration: one crash healed mid-run.
fn fault_config(ms: u64) -> (EngineConfig, Vec<SourceConfig>) {
    let (mut cfg, sources) = pair_config(TracePreset::Caida(1), ServiceKind::IpForward, 0.5, ms);
    let horizon = cfg.duration;
    cfg.faults = crash_with_heal(
        2,
        SimTime::from_nanos(horizon.as_nanos() * 2 / 5),
        SimTime::from_nanos(horizon.as_nanos() * 7 / 10),
    );
    (cfg, sources)
}

/// The `FaultProbe` first in `probes`: its crash ledger.
fn ledger(probes: &ProbeStack) -> Vec<Recovery> {
    probes
        .first()
        .and_then(|p| p.as_any().downcast_ref::<FaultProbe>())
        .expect("fault probe returns")
        .recoveries()
        .to_vec()
}

/// The crash+heal episode on the deterministic engine, under `static`.
fn run_fault_detsim(opts: Opts) -> FaultRun {
    let (cfg, sources) = fault_config(opts.ms);
    let (report, probes) = SimBuilder::new()
        .config(cfg)
        .sources(sources)
        .probe(FaultProbe::new())
        .run_named_full("static")
        .expect("builtin scheduler");
    FaultRun {
        backend: "detsim",
        recoveries: ledger(&probes),
        report,
    }
}

/// The same episode on real threads; the handshake balance is checked
/// here and appended to `violations`.
fn run_fault_npexec(opts: Opts, violations: &mut Vec<String>) -> FaultRun {
    let (cfg, sources) = fault_config(opts.ms);
    let mut backend = ThreadedBackend::new(NpexecConfig {
        workers: 4,
        pin_threads: opts.pin,
        ..NpexecConfig::default()
    });
    if let Err(e) = backend.validate(&cfg, &sources) {
        violations.push(format!("[fault] npexec rejected a crash+heal plan: {e}"));
    }
    let probes: ProbeStack = vec![Box::new(FaultProbe::new())];
    let (report, probes) = backend.run(&cfg, &sources, Box::new(Fcfs::new()), probes);
    let stats = backend.last_stats().expect("stats recorded");
    if opts.pin && stats.pinned_workers == 0 {
        // Best-effort: restricted runners (containers without affinity
        // rights) refuse the pin; the run is still valid, just unpinned.
        println!(
            "note: --pin requested but the kernel honored 0 of {} pins; \
             continuing unpinned",
            stats.workers
        );
    }
    if stats.handshakes.begun != stats.handshakes.completed {
        violations.push(format!(
            "[fault] npexec leaked a handshake: begun {} vs completed {}",
            stats.handshakes.begun, stats.handshakes.completed
        ));
    }
    FaultRun {
        backend: "npexec",
        recoveries: ledger(&probes),
        report,
    }
}

/// The cross-backend bounds for the fault pair.
fn check_fault_pair(det: &FaultRun, exec: &FaultRun, violations: &mut Vec<String>) {
    let mut fail = |cond: bool, msg: String| {
        if !cond {
            violations.push(format!("[fault] {msg}"));
        }
    };
    fail(
        exec.report.offered == det.report.offered,
        format!(
            "offered streams diverge under faults: npexec {} vs detsim {} \
             (crash/heal must never perturb ingest)",
            exec.report.offered, det.report.offered
        ),
    );
    for r in [det, exec] {
        fail(
            r.report.offered == r.report.processed + r.report.dropped,
            format!(
                "{}: conservation broken through the crash: offered {} != \
                 processed {} + dropped {}",
                r.backend, r.report.offered, r.report.processed, r.report.dropped
            ),
        );
        fail(
            r.recoveries.len() == 1,
            format!(
                "{}: {} recovery spans, plan has 1",
                r.backend,
                r.recoveries.len()
            ),
        );
        for span in &r.recoveries {
            fail(
                span.restarted_at.is_some(),
                format!(
                    "{}: core {} never served after its heal",
                    r.backend, span.core
                ),
            );
            fail(
                span.moved_off <= span.resident_flows,
                format!(
                    "{}: ledger moved {} flows off core {} with {} resident",
                    r.backend, span.moved_off, span.core, span.resident_flows
                ),
            );
        }
    }
    fail(
        exec.report.out_of_order == 0,
        format!(
            "npexec reordered {} packets across the crash window",
            exec.report.out_of_order
        ),
    );
    let det_f = det.report.faults.as_ref();
    let exec_f = exec.report.faults.as_ref();
    fail(det_f.is_some(), "detsim fault block missing".to_string());
    fail(exec_f.is_some(), "npexec fault block missing".to_string());
    if let (Some(d), Some(e)) = (det_f, exec_f) {
        fail(
            (d.crashes, d.heals) == (e.crashes, e.heals),
            format!(
                "fault counts diverge: npexec {}c/{}h vs detsim {}c/{}h",
                e.crashes, e.heals, d.crashes, d.heals
            ),
        );
        fail(
            e.unrepaired == 0,
            format!("npexec left {} transitions unrepaired", e.unrepaired),
        );
    }
    let (d, e) = (det.recovery_us(), exec.recovery_us());
    fail(
        matches!((d, e), (Some(d), Some(e)) if (e - d).abs() <= d / 100.0),
        format!("recovery times differ by more than 1 %: npexec {e:?} µs vs detsim {d:?} µs"),
    );
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let opts = Opts {
        ms: if smoke { 4 } else { 25 },
        pin: std::env::args().any(|a| a == "--pin"),
    };

    let pairs = [
        run_pair(
            TracePreset::Caida(1),
            "caida1",
            ServiceKind::IpForward,
            0.5,
            opts,
        ),
        run_pair(
            TracePreset::Auckland(2),
            "auck2",
            ServiceKind::VpnOut,
            0.1,
            opts,
        ),
    ];

    let header = [
        "preset",
        "backend",
        "offered",
        "processed",
        "dropped",
        "ooo",
        "migr",
        "cold",
    ];
    let rows: Vec<Vec<String>> = pairs
        .iter()
        .flat_map(|(d, e)| [d, e])
        .map(|r| {
            vec![
                r.preset.to_string(),
                r.backend.to_string(),
                r.report.offered.to_string(),
                r.report.processed.to_string(),
                r.report.dropped.to_string(),
                r.report.out_of_order.to_string(),
                r.report.migration_events.to_string(),
                r.report.cold_starts.to_string(),
            ]
        })
        .collect();
    print_table(
        "exec_validate: detsim vs npexec (thread-per-core)",
        &header,
        &rows,
    );
    write_csv(results_dir().join("exec_validate.csv"), &header, &rows);

    let mut violations = Vec::new();
    for (det, exec) in &pairs {
        check_pair(det, exec, &mut violations);
    }

    // The fault pair: one crash+heal episode, both backends.
    let det_f = run_fault_detsim(opts);
    let exec_f = run_fault_npexec(opts, &mut violations);
    let fheader = [
        "backend",
        "offered",
        "processed",
        "dropped",
        "crashes",
        "heals",
        "ooo",
        "recoveries",
        "resident",
        "moved_off",
        "recovery_us",
    ];
    let frows: Vec<Vec<String>> = [&det_f, &exec_f]
        .iter()
        .map(|r| {
            let f = r.report.faults.as_ref();
            let span = r.recoveries.first();
            vec![
                r.backend.to_string(),
                r.report.offered.to_string(),
                r.report.processed.to_string(),
                r.report.dropped.to_string(),
                f.map_or(0, |f| f.crashes).to_string(),
                f.map_or(0, |f| f.heals).to_string(),
                r.report.out_of_order.to_string(),
                r.recoveries.len().to_string(),
                span.map_or(0, |s| s.resident_flows).to_string(),
                span.map_or(0, |s| s.moved_off).to_string(),
                r.recovery_us()
                    .map_or_else(|| "-".to_string(), |us| format!("{us:.1}")),
            ]
        })
        .collect();
    print_table(
        "exec_validate: crash+heal episode (core 2)",
        &fheader,
        &frows,
    );
    write_csv(
        results_dir().join("exec_validate_faults.csv"),
        &fheader,
        &frows,
    );
    check_fault_pair(&det_f, &exec_f, &mut violations);

    if violations.is_empty() {
        println!(
            "\nexec_validate: all bounds hold on {} presets + 1 fault pair",
            pairs.len()
        );
    } else {
        eprintln!("\nexec_validate: {} bound(s) violated:", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
