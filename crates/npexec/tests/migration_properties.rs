//! Property tests for the thread-per-core runtime's migration
//! handshake (ISSUE 8, satellite 2).
//!
//! Two invariants the mark → redirect → first-packet-ack protocol must
//! provide under **any** migration schedule:
//!
//! 1. **Per-flow monotonicity at the owning core.** However flow groups
//!    bounce between workers, every flow's packets are serviced in
//!    arrival-sequence order — `SimReport::out_of_order` is exactly 0.
//!    (The per-flow witness is a cross-thread `fetch_max`, so a
//!    violation anywhere is observed no matter which workers serviced
//!    the packets.)
//! 2. **Conservation.** Every planned packet is accounted exactly once:
//!    `offered == processed + dropped` — nothing lost in a ring, a
//!    holdback buffer, or an abandoned handshake.
//!
//! Schedules are randomized over fire position, group, and target
//! worker — including degenerate moves (same-target, rapid re-migration
//! of one group, bursts at the same position) that stress the
//! in-flight guard and the holdback drain.

use npexec::{ForcedMigration, NpexecConfig, ThreadedBackend};
use npsim::{EngineConfig, ExecBackend, JoinShortestQueue, ProbeStack, RateSpec, SourceConfig};
use nptrace::TracePreset;
use nptraffic::ServiceKind;
use proptest::prelude::*;

fn cfg() -> EngineConfig {
    EngineConfig {
        n_cores: 4,
        duration: detsim::SimTime::from_millis(5),
        scale: 1.0,
        seed: 1213,
        ..EngineConfig::default()
    }
}

fn sources() -> Vec<SourceConfig> {
    vec![
        SourceConfig {
            service: ServiceKind::IpForward,
            trace: TracePreset::Caida(2),
            rate: RateSpec::Constant(4.0),
        },
        SourceConfig {
            service: ServiceKind::MalwareScan,
            trace: TracePreset::Auckland(3),
            rate: RateSpec::Constant(2.0),
        },
    ]
}

/// Run a schedule and assert both invariants.
fn check_schedule(workers: usize, groups: usize, schedule: Vec<ForcedMigration>) {
    let mut backend = ThreadedBackend::new(NpexecConfig {
        workers,
        groups,
        rebalance_every: 0, // scripted migrations only — fully controlled
        forced_migrations: schedule,
        ..NpexecConfig::default()
    });
    let (report, _probes) = backend.run(
        &cfg(),
        &sources(),
        Box::new(JoinShortestQueue::new()),
        ProbeStack::new(),
    );
    assert!(report.offered > 0, "plan must offer traffic");
    assert_eq!(
        report.out_of_order, 0,
        "handshake must keep every flow's packets in order"
    );
    assert_eq!(
        report.offered,
        report.processed + report.dropped,
        "every planned packet accounted exactly once"
    );
    let stats = backend.last_stats().expect("stats recorded");
    assert_eq!(
        stats.handshakes.begun, stats.handshakes.completed,
        "every begun handshake must be acked by run end"
    );
    assert_eq!(
        report.migration_events, report.migrated_packets,
        "one migration per packet that changed cores, all serviced"
    );
    if stats.handshakes.begun == 0 {
        assert_eq!(report.migration_events, 0, "no handshake, no move");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random schedules over random topology: order and conservation
    /// hold regardless.
    #[test]
    fn random_migration_schedules_preserve_order_and_mass(
        raw in proptest::collection::vec(any::<u64>(), 0..24),
        workers in 2usize..5,
    ) {
        let groups = workers * 4;
        let schedule: Vec<ForcedMigration> = raw
            .iter()
            .map(|r| ForcedMigration {
                after_packets: r % 20_000,
                group: (r >> 16) % groups as u64,
                to_worker: ((r >> 32) % workers as u64) as usize,
            })
            .collect();
        check_schedule(workers, groups, schedule);
    }

    /// Adversarial case: hammer one group back and forth between two
    /// workers at tight intervals — maximal holdback pressure and
    /// repeated re-migration of in-flight state.
    #[test]
    fn ping_pong_one_group(
        stride in 1u64..400,
        group in 0u64..8,
    ) {
        let schedule: Vec<ForcedMigration> = (0..16)
            .map(|k| ForcedMigration {
                after_packets: k * stride,
                group,
                to_worker: (k % 2) as usize,
            })
            .collect();
        check_schedule(2, 8, schedule);
    }
}

/// Full rings must not break the accounting: with 8-slot rings the
/// dispatcher keeps waiting for room and marks meet full rings, yet
/// every packet is serviced, in order, and every handshake begun
/// completes.
#[test]
fn conservation_holds_with_full_rings_and_migrations() {
    let schedule: Vec<ForcedMigration> = (0..8)
        .map(|k| ForcedMigration {
            after_packets: k * 700,
            group: k % 4,
            to_worker: (k % 2) as usize,
        })
        .collect();
    let mut backend = ThreadedBackend::new(NpexecConfig {
        workers: 2,
        groups: 4,
        ring_capacity: 8,
        rebalance_every: 0,
        forced_migrations: schedule,
        ..NpexecConfig::default()
    });
    let (report, _probes) = backend.run(
        &cfg(),
        &sources(),
        Box::new(JoinShortestQueue::new()),
        ProbeStack::new(),
    );
    assert_eq!(report.offered, report.processed);
    assert_eq!(report.out_of_order, 0);
    let stats = backend.last_stats().expect("stats recorded");
    assert_eq!(stats.handshakes.begun, stats.handshakes.completed);
}
