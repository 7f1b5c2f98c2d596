//! npexec streams its arrival plan: the dispatcher draws it a 256-packet
//! burst at a time into one reused buffer, so a run's memory grows with
//! its flows, not with its packets.
//!
//! One test per binary, because the peak resident set (`VmHWM`) is a
//! per-process figure. It streams the `exec-forward` benchmark source
//! (one CAIDA stream at 24 Mpps through a dispatcher and 2 workers) for
//! 2 s of virtual time, ≈ 48 M packets — a 1.1 GiB plan at the 24
//! bytes per packet a materialised plan costs. Nightly tier:
//! `cargo test -p npexec --release -- --ignored`. Skipped where
//! `/proc/self/status` does not exist.

use detsim::SimTime;
use npexec::{FullPolicy, NpexecConfig, ThreadedBackend};
use npsim::{EngineConfig, ExecBackend, JoinShortestQueue, ProbeStack, RateSpec, SourceConfig};
use nptrace::TracePreset;
use nptraffic::ServiceKind;

/// Peak resident set of this process in MB, if the kernel reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[test]
#[ignore = "nightly tier: 48 M packets on real threads"]
fn two_seconds_of_exec_forward_stay_under_256_mb() {
    if peak_rss_mb().is_none() {
        eprintln!("skipped: no /proc/self/status on this host");
        return;
    }
    let cfg = EngineConfig {
        n_cores: 16,
        queue_capacity: 32,
        duration: SimTime::from_secs(2),
        scale: 1.0,
        seed: 101,
        ..EngineConfig::default()
    };
    let sources = vec![SourceConfig {
        service: ServiceKind::IpForward,
        trace: TracePreset::Caida(1),
        rate: RateSpec::Constant(24.0),
    }];
    let mut backend = ThreadedBackend::new(NpexecConfig {
        workers: 2,
        imbalance_ratio: 1.1,
        rebalance_every: 4096,
        full_policy: FullPolicy::Backpressure,
        ..NpexecConfig::default()
    });
    let (report, _) = backend.run(
        &cfg,
        &sources,
        Box::new(JoinShortestQueue::new()),
        ProbeStack::new(),
    );
    assert!(report.offered > 40_000_000, "offered {}", report.offered);
    assert_eq!(report.offered, report.processed, "backpressure never drops");
    assert_eq!(report.out_of_order, 0);
    let peak = peak_rss_mb().expect("read above");
    eprintln!("{} packets, peak RSS {peak:.1} MB", report.offered);
    assert!(peak < 256.0, "peak RSS {peak:.1} MB");
}
