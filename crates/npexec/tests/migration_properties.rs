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

use npexec::{ForcedMigration, FullPolicy, NpexecConfig, ThreadedBackend};
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
        report.migration_events, stats.handshakes.begun,
        "exactly one map-table redirect per begun handshake"
    );
}

/// Satellite invariant (ISSUE 9): under [`FullPolicy::DropAfter`] the
/// drop ledger stays exact while migrations are in flight — every
/// planned packet is either delivered or appears in the drop count,
/// and the per-service split of the drops sums back to the total.
fn check_drop_accounting(ring_capacity: usize, drop_after: u32, schedule: Vec<ForcedMigration>) {
    let mut backend = ThreadedBackend::new(NpexecConfig {
        workers: 2,
        groups: 8,
        ring_capacity,
        full_policy: FullPolicy::DropAfter(drop_after),
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
    assert_eq!(
        report.offered,
        report.processed + report.dropped,
        "ingested == delivered + dropped under DropAfter({drop_after}) \
         with rings of {ring_capacity}"
    );
    let per_service_drops: u64 = report.per_service.iter().map(|s| s.dropped).sum();
    assert_eq!(
        per_service_drops, report.dropped,
        "drops attributed per service"
    );
    let per_service_processed: u64 = report.per_service.iter().map(|s| s.processed).sum();
    assert_eq!(per_service_processed, report.processed);
    assert_eq!(report.out_of_order, 0, "drops never break flow order");
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

    /// The forced-migration × drop-policy grid: tiny-to-small rings and
    /// stingy-to-patient retry budgets, with a randomized migration
    /// schedule running concurrently. Conservation must balance at
    /// every grid point.
    #[test]
    fn drop_after_accounting_is_exact_under_concurrent_migration(
        raw in proptest::collection::vec(any::<u64>(), 1..12),
        ring_pow in 3u32..7,        // rings of 8..64 descriptors
        drop_after in 0u32..4,      // 0 = drop on first full sighting
    ) {
        let schedule: Vec<ForcedMigration> = raw
            .iter()
            .map(|r| ForcedMigration {
                after_packets: r % 10_000,
                group: (r >> 16) % 8,
                to_worker: ((r >> 32) % 2) as usize,
            })
            .collect();
        check_drop_accounting(1usize << ring_pow, drop_after, schedule);
    }
}

/// Drops must not break order accounting: with tiny rings and a
/// drop-after policy, conservation still balances and order still
/// holds for the packets that made it through.
#[test]
fn conservation_holds_with_drops_and_migrations() {
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
        full_policy: FullPolicy::DropAfter(1),
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
    assert_eq!(report.offered, report.processed + report.dropped);
    assert_eq!(report.out_of_order, 0);
}
