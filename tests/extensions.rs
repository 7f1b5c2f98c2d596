//! Integration tests for the extension subsystems: egress order
//! restoration, power-aware core parking, and adaptive hashing.

use laps_repro::prelude::*;

fn builder(id: u8, seed: u64) -> SimBuilder {
    let scenario = Scenario::by_id(id).unwrap();
    SimBuilder::new()
        .cores(16)
        .duration(SimTime::from_millis(150))
        .scale(150.0)
        .seed(seed)
        .configure(|cfg| {
            cfg.period_compression = 60.0;
            cfg.rate_update_interval = SimTime::from_millis(10);
        })
        .scenario(scenario)
}

#[test]
fn restoration_reorders_fcfs_into_near_order() {
    let plain = builder(3, 1).run_named("fcfs").expect("builtin policy");
    let restored = builder(3, 1)
        .configure(|cfg| {
            cfg.restoration = Some(SimTime::from_micros_f64(100.0 * cfg.scale));
        })
        .run_named("fcfs")
        .expect("builtin policy");

    assert!(
        plain.ooo_fraction() > 0.1,
        "fcfs must reorder heavily on T3"
    );
    assert!(
        restored.ooo_fraction() < plain.ooo_fraction() * 0.1,
        "restoration cut ooo only from {} to {}",
        plain.ooo_fraction(),
        restored.ooo_fraction()
    );
    // Same traffic, same drops — restoration is egress-only.
    assert_eq!(plain.offered, restored.offered);
    assert_eq!(plain.dropped, restored.dropped);
    // But it costs real buffer space and wait time.
    let stats = restored.restoration.expect("restoration stats");
    assert!(
        stats.peak_occupancy > 8,
        "peak occupancy {}",
        stats.peak_occupancy
    );
    assert!(stats.buffer_wait.mean() > 0.0);
    // Conservation still holds with the egress stage in place.
    assert_eq!(restored.offered, restored.dropped + restored.processed);
}

#[test]
fn parking_saves_idle_core_time_in_underload() {
    let plain = builder(1, 2).run_named("laps").expect("builtin policy");

    // The parking arm needs the scheduler back for its power statistics,
    // so build the laps-park configuration and keep static dispatch via
    // `run_with_returning`.
    let b = builder(1, 2);
    let duration = b.engine_config().duration;
    let lc = laps_park_config_for(b.engine_config());
    let (parked_report, laps) = b.run_with_returning(Laps::new(lc));

    let parked_ns = laps.parked_time_ns(duration);
    assert!(parked_ns > 0, "under-load must park something");
    let (parks, wakes) = laps.park_events();
    assert!(parks > 0);
    assert!(wakes <= parks);
    // Parking must not cost much service quality in under-load.
    assert!(
        parked_report.drop_fraction() < plain.drop_fraction() + 0.05,
        "parking cost too many drops: {} vs {}",
        parked_report.drop_fraction(),
        plain.drop_fraction()
    );
    // On average at least one core's worth of time was parked.
    assert!(
        parked_ns as f64 / duration.as_nanos() as f64 > 1.0,
        "parked core-time {} too small",
        parked_ns
    );
}

#[test]
fn adaptive_hash_beats_static_under_skewed_overload() {
    // Single-service at ~105 % capacity: the adaptive controller must
    // relieve the hash hotspots that static hashing is stuck with.
    let builder = || {
        SimBuilder::new()
            .cores(16)
            .duration(SimTime::from_millis(150))
            .scale(150.0)
            .seed(3)
            .configure(|cfg| {
                cfg.period_compression = 60.0;
                cfg.rate_update_interval = SimTime::from_secs(1_000);
            })
            .constant_source(ServiceKind::IpForward, TracePreset::Caida(1), 33.6)
    };
    let stat = builder().run_named("static").expect("builtin policy");
    let adpt = builder().run_named("adaptive").expect("builtin policy");
    assert!(
        adpt.drop_fraction() < stat.drop_fraction(),
        "adaptive {} !< static {}",
        adpt.drop_fraction(),
        stat.drop_fraction()
    );
    // It migrates buckets to get there, so some reordering appears —
    // but far less than a per-packet shifter would produce.
    assert!(adpt.migration_events > 0);
    assert!(
        adpt.ooo_fraction() < 0.05,
        "adaptive ooo {}",
        adpt.ooo_fraction()
    );
}

#[test]
fn parked_plus_restoration_compose() {
    // The two extensions are orthogonal engine/scheduler features; they
    // must work together without violating conservation — `laps-park` is
    // exactly the hand wiring this test used to repeat.
    let r = builder(2, 4)
        .configure(|cfg| {
            cfg.restoration = Some(SimTime::from_micros_f64(100.0 * cfg.scale));
        })
        .run_named("laps-park")
        .expect("builtin policy");
    assert_eq!(r.offered, r.dropped + r.processed);
    assert!(r.restoration.is_some());
    assert!(
        r.ooo_fraction() < 0.01,
        "restored LAPS ooo {}",
        r.ooo_fraction()
    );
}
