//! A paper-scale run's memory grows with its flows, at a few bytes per
//! flow: the engine assigns flow slots through dense per-namespace
//! tables, not a hash map keyed by `FlowId`.
//!
//! One test per binary, because the peak resident set (`VmHWM`) is a
//! per-process figure. It runs 3 s of Table VI's T2 at scale 1 under
//! LAPS (the `paper-t2-laps` benchmark configuration, ≈ 11 M packets)
//! and bounds the peak at 24 MB. Slotted through a `FlowId` hash map,
//! which doubles and keeps both tables live while it rehashes, the same
//! run peaked at 32.4 MB and fails the bound; through the namespace
//! tables it peaks at ≈ 15 MB (2-vCPU x86-64 VM). Nightly tier:
//! `cargo test -p laps --release --test flow_memory -- --ignored`.
//! Skipped where `/proc/self/status` does not exist.

use detsim::SimTime;
use laps::{scenario_sources, SchedulerRegistry};
use npsim::{Engine, EngineConfig};
use nptraffic::Scenario;

/// Peak resident set of this process in MB, if the kernel reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[test]
#[ignore = "nightly tier: 3 s of T2 at scale 1, ≈ 11 M packets"]
fn three_seconds_of_t2_stay_under_24_mb() {
    if peak_rss_mb().is_none() {
        eprintln!("skipped: no /proc/self/status on this host");
        return;
    }
    let cfg = EngineConfig {
        n_cores: 16,
        queue_capacity: 32,
        duration: SimTime::from_secs(3),
        scale: 1.0,
        seed: 101,
        period_compression: 20.0,
        rate_update_interval: SimTime::from_millis(20),
        ..EngineConfig::default()
    };
    let sources = scenario_sources(Scenario::by_id(2).expect("Table VI defines T2"));
    let scheduler = SchedulerRegistry::builtin()
        .build("laps", &cfg)
        .expect("laps is a built-in policy");
    let report = Engine::new(cfg, &sources, scheduler).run();
    assert!(report.offered > 5_000_000, "offered {}", report.offered);
    assert_eq!(report.offered, report.dropped + report.processed);
    let peak = peak_rss_mb().expect("read above");
    eprintln!("{} packets, peak RSS {peak:.1} MB", report.offered);
    assert!(peak < 24.0, "peak RSS {peak:.1} MB");
}
