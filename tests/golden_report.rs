//! Golden-report equivalence: two `SimReport`s captured from the
//! pre-refactor monolithic engine (`lapsim --json` output, verbatim)
//! must keep reproducing byte-for-byte. This is the refactor's safety
//! net — the staged pipeline, the probe bus, and the scheduler registry
//! all sit on the path these fixtures exercise, and none of them may
//! move a single byte of the report.
//!
//! To regenerate after an *intentional* semantic change (and only then):
//!
//! ```sh
//! cargo run --release -p laps-experiments --bin lapsim -- \
//!     --scenario T1 --scheduler laps --seed 42 --json \
//!     > tests/fixtures/golden_t1_laps.json
//! cargo run --release -p laps-experiments --bin lapsim -- \
//!     --scheduler fcfs --seed 7 --json \
//!     > tests/fixtures/golden_caida1_fcfs.json
//! ```

use laps_repro::prelude::*;

/// The `lapsim` default engine configuration the fixtures were captured
/// under (16 cores, queue 32, 200 ms at scale 100, compressed seasons).
fn lapsim_builder(seed: u64) -> SimBuilder {
    SimBuilder::new()
        .cores(16)
        .duration(SimTime::from_millis(200))
        .scale(100.0)
        .seed(seed)
        .configure(|cfg| {
            cfg.queue_capacity = 32;
            cfg.period_compression = 50.0;
            cfg.rate_update_interval = SimTime::from_millis(10);
        })
}

/// Pretty JSON plus the trailing newline `lapsim --json` prints.
fn render(report: &SimReport) -> String {
    let mut s = serde_json::to_string_pretty(report).expect("report serializes");
    s.push('\n');
    s
}

#[test]
fn t1_laps_report_matches_pre_refactor_fixture() {
    let report = lapsim_builder(42)
        .scenario(Scenario::by_id(1).expect("T1 exists"))
        .run_named("laps")
        .expect("builtin policy");
    assert_eq!(
        render(&report),
        include_str!("fixtures/golden_t1_laps.json"),
        "T1/laps report drifted from the pre-refactor engine"
    );
}

#[test]
fn caida1_fcfs_report_matches_pre_refactor_fixture() {
    let report = lapsim_builder(7)
        .constant_source(ServiceKind::IpForward, TracePreset::Caida(1), 8.0)
        .run_named("fcfs")
        .expect("builtin policy");
    assert_eq!(
        render(&report),
        include_str!("fixtures/golden_caida1_fcfs.json"),
        "caida1/fcfs report drifted from the pre-refactor engine"
    );
}

#[test]
fn probes_leave_the_golden_report_untouched() {
    // The full probe stack rides along and the report still matches the
    // fixture byte-for-byte: observation must never perturb the run.
    let (report, probes) = lapsim_builder(42)
        .scenario(Scenario::by_id(1).expect("T1 exists"))
        .probe(MetricsProbe::new())
        .probe(EventLogProbe::new())
        .run_named_full("laps")
        .expect("builtin policy");
    assert_eq!(
        render(&report),
        include_str!("fixtures/golden_t1_laps.json"),
        "attaching probes changed the report"
    );
    let metrics = probes
        .first()
        .and_then(|p| p.as_any().downcast_ref::<MetricsProbe>())
        .expect("metrics probe");
    assert_eq!(metrics.counter("migrations"), Some(report.migration_events));
}
