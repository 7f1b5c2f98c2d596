//! The timed phase: repetitions of the workload with tracing off, each
//! preceded by one set-up sample, bracketed by the calibration kernel
//! and followed by its correctness checks.

use laps::prelude::*;
use npexec::{ExecStats, ThreadedBackend};
use npsim::ExecBackend;

use crate::calib::Calibrator;
use crate::clock::Stopwatch;
use crate::stats::{debug_digest, median};
use crate::workload::{exec_config, Runner, Workload};

/// Horizon of the warm-up run inside one set-up, in milliseconds.
const WARMUP_MS: u64 = 2;
/// Warm-up iterations of one `exec-forward` set-up (thread spawn paths
/// and ring allocation need more than one pass to settle).
const EXEC_WARMUPS: usize = 3;
/// Fewest repetitions a run measures, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Correctness ledger: operations attempted and failed, with one line
/// of explanation per failure kind.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (packets offered, handshakes begun,
    /// repetitions compared, replay cross-checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Human-readable failure notes.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count `n` attempted operations of which `bad` failed.
    pub fn record(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.notes.push(what());
        }
    }
}

/// One repetition's outcome.
#[derive(Debug)]
pub struct Rep {
    /// The report the run produced.
    pub report: SimReport,
    /// Host nanoseconds of the run call (`Engine::run`, or the whole
    /// `ExecBackend::run` including plan build and report assembly).
    pub run_ns: f64,
    /// Thread-runtime statistics (`exec-forward` only).
    pub exec: Option<ExecStats>,
}

impl Rep {
    /// Packets the run was handed (fast path + slow path).
    pub fn packets(&self) -> f64 {
        (self.report.offered + self.report.slow_path).max(1) as f64
    }
}

/// Construct everything one repetition needs and run it once.
pub fn run_rep(
    w: Workload,
    cfg: &EngineConfig,
    sources: &[SourceConfig],
    registry: &SchedulerRegistry,
) -> Rep {
    match w.runner() {
        Runner::Detsim { policy } => {
            let Some(scheduler) = registry.build(policy, cfg) else {
                unreachable!("{policy} is a built-in policy");
            };
            let engine = Engine::new(cfg.clone(), sources, scheduler);
            let start = Stopwatch::start();
            let report = engine.run();
            let run_ns = start.ns() as f64;
            Rep {
                report,
                run_ns,
                exec: None,
            }
        }
        Runner::Threads => {
            let mut backend = ThreadedBackend::new(exec_config());
            // The boxed scheduler only names the report (ROADMAP item 1).
            let start = Stopwatch::start();
            let (report, _probes) =
                backend.run(cfg, sources, Box::new(Fcfs::new()), ProbeStack::new());
            let run_ns = start.ns() as f64;
            Rep {
                report,
                run_ns,
                exec: backend.last_stats().cloned(),
            }
        }
    }
}

/// One set-up: construction plus the short warm-up run(s). Seconds.
fn setup_once(w: Workload, seed: u64, registry: &SchedulerRegistry) -> f64 {
    let cfg = w.engine_config_with(seed, WARMUP_MS);
    let sources = w.sources();
    let start = Stopwatch::start();
    let runs = match w.runner() {
        Runner::Detsim { .. } => 1,
        Runner::Threads => EXEC_WARMUPS,
    };
    for _ in 0..runs {
        std::hint::black_box(run_rep(w, &cfg, &sources, registry));
    }
    start.secs()
}

/// Check one repetition's report; `reference` is the digest every
/// detsim repetition of this configuration must share.
pub fn check_rep(w: Workload, rep: &Rep, reference: Option<u64>, checks: &mut Checks) {
    let r = &rep.report;
    let unaccounted = r.offered.abs_diff(r.dropped + r.processed);
    checks.record(r.offered, unaccounted, || {
        format!(
            "conservation: offered {} != dropped {} + processed {}",
            r.offered, r.dropped, r.processed
        )
    });
    match (&rep.exec, reference) {
        (Some(stats), _) => {
            let h = stats.handshakes;
            // Every begun handshake must complete; and a run without a
            // single one is not exercising what the workload claims.
            let open = h.begun.abs_diff(h.completed) + u64::from(h.completed == 0);
            checks.record(h.begun.max(1), open, || {
                format!("handshakes: begun {} completed {}", h.begun, h.completed)
            });
            checks.record(0, r.out_of_order + r.dropped, || {
                format!(
                    "threads reordered {} and dropped {} packets under back-pressure",
                    r.out_of_order, r.dropped
                )
            });
        }
        (None, Some(want)) => {
            let got = debug_digest(r);
            checks.record(1, u64::from(got != want), || {
                format!(
                    "determinism: {} report digest {got:016x} != {want:016x}",
                    w.name()
                )
            });
        }
        (None, None) => {}
    }
}

/// Everything the timed phase measured.
#[derive(Debug)]
pub struct Timed {
    /// Set-up samples, seconds.
    pub setup_s: Vec<f64>,
    /// Per repetition: host ns per packet.
    pub ns_per_packet: Vec<f64>,
    /// Per repetition: host ns per simulated event.
    pub ns_per_event: Vec<f64>,
    /// Per repetition: host time per packet in calibration steps.
    pub cal_per_packet: Vec<f64>,
    /// Every calibration pass, ns per step.
    pub calib_ns: Vec<f64>,
    /// Every repetition, in order.
    pub reps: Vec<Rep>,
    /// `VmHWM` at the end of the phase, MB.
    pub peak_rss_mb: f64,
}

/// Run the timed phase of `w` for about `seconds`.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    calib: &mut Calibrator,
    checks: &mut Checks,
) -> Timed {
    let registry = SchedulerRegistry::builtin();
    let cfg = w.engine_config(seed);
    let sources = w.sources();
    let mut out = Timed {
        setup_s: Vec::new(),
        ns_per_packet: Vec::new(),
        ns_per_event: Vec::new(),
        cal_per_packet: Vec::new(),
        calib_ns: Vec::new(),
        reps: Vec::new(),
        peak_rss_mb: 0.0,
    };
    let mut reference = None;
    let phase = Stopwatch::start();
    while out.reps.len() < MIN_REPS || phase.secs() < seconds {
        // One set-up per repetition, so the set-up samples spread over
        // the whole run (and over whatever the host does meanwhile)
        // instead of sitting in its first tenth of a second.
        out.setup_s.push(setup_once(w, seed, &registry));
        let before = calib.pass();
        let rep = run_rep(w, &cfg, &sources, &registry);
        let after = calib.pass();
        if reference.is_none() && rep.exec.is_none() {
            reference = Some(debug_digest(&rep.report));
        }
        check_rep(w, &rep, reference, checks);
        let per_packet = rep.run_ns / rep.packets();
        out.ns_per_packet.push(per_packet);
        out.ns_per_event
            .push(rep.run_ns / rep.report.events.max(1) as f64);
        out.cal_per_packet
            .push(per_packet / ((before + after) / 2.0));
        out.calib_ns.extend([before, after]);
        out.reps.push(rep);
    }
    out.peak_rss_mb = peak_rss_mb();
    out
}

impl Timed {
    /// Median over the repetitions of `f(report)` — identical on every
    /// repetition of a detsim workload, the middle run on threads.
    pub fn sim(&self, f: impl Fn(&SimReport) -> f64) -> f64 {
        median(&self.reps.iter().map(|r| f(&r.report)).collect::<Vec<_>>())
    }
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(w: Workload) -> Rep {
        let cfg = w.engine_config_with(3, 2);
        run_rep(w, &cfg, &w.sources(), &SchedulerRegistry::builtin())
    }

    #[test]
    fn detsim_repetitions_conserve_and_repeat() {
        let mut checks = Checks::default();
        let a = tiny(Workload::PaperT2Laps);
        let b = tiny(Workload::PaperT2Laps);
        let digest = debug_digest(&a.report);
        check_rep(Workload::PaperT2Laps, &a, Some(digest), &mut checks);
        check_rep(Workload::PaperT2Laps, &b, Some(digest), &mut checks);
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);
        assert_eq!(checks.attempted, a.report.offered + b.report.offered + 2);
    }

    #[test]
    fn a_wrong_digest_and_a_lost_packet_are_counted() {
        let mut rep = tiny(Workload::ForwardFcfs);
        rep.report.processed -= 1;
        let mut checks = Checks::default();
        check_rep(Workload::ForwardFcfs, &rep, Some(0), &mut checks);
        assert_eq!(checks.failed, 2);
        assert_eq!(checks.notes.len(), 2);
    }
}
