//! SCR-family invariants: the sync-cost model must never break packet
//! accounting, and must be *provably dormant* when unpriced.
//!
//! Two contracts:
//!
//! * **Conservation under chaos** — every `scr-*` policy, priced or
//!   not, conserves packets (`offered == dropped + processed`) under
//!   randomized fault plans (crashes, heals, throttles, stalls). The
//!   sync surcharge only stretches service times; it must never create
//!   or lose a descriptor, even across crash repair.
//! * **Zero-cost identity** — `scr-rr` makes the exact decision stream
//!   of `round-robin`, so at `sync_cost_us = 0` its report is
//!   byte-identical to round-robin's (modulo the scheduler name field).
//!   This pins the dormant path: no replica bookkeeping, no surcharge,
//!   no report block.

use laps_repro::prelude::*;
use proptest::prelude::*;

const SCR_POLICIES: [&str; 3] = ["scr-rr", "scr-p2c", "scr-sync16"];

fn builder(scenario_id: u8, seed: u64, sync_cost_us: f64) -> SimBuilder {
    let scenario = Scenario::by_id(scenario_id).unwrap();
    SimBuilder::new()
        .cores(8)
        .duration(SimTime::from_millis(60))
        .scale(200.0)
        .seed(seed)
        .configure(move |cfg| {
            cfg.period_compression = 60.0;
            cfg.rate_update_interval = SimTime::from_millis(10);
            cfg.delay.sync_cost_us = sync_cost_us;
        })
        .scenario(scenario)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random SCR policy × scenario × seed × sync price × fault script:
    /// exact conservation, sane bounds, and the sync block only when
    /// the model is actually priced.
    #[test]
    fn scr_conserves_packets_under_random_faults(
        policy_i in 0usize..SCR_POLICIES.len(),
        scenario_id in 1u8..9,
        seed in 0u64..1_000,
        cost_i in 0usize..3,
    ) {
        let policy = SCR_POLICIES[policy_i];
        let cost = [0.0, 0.4, 1.6][cost_i];
        let b = builder(scenario_id, seed, cost);
        let cfg = b.engine_config();
        let plan = random_plan(seed ^ 0x5c2, cfg.n_cores, cfg.duration);
        let r = b.faults(plan).run_named(policy).expect("builtin policy");
        prop_assert_eq!(
            r.offered,
            r.dropped + r.processed,
            "{} on T{} cost {}: offered != dropped + processed",
            policy, scenario_id, cost
        );
        prop_assert!(r.out_of_order <= r.processed);
        let sync = r.sync.unwrap_or_default();
        if cost == 0.0 {
            prop_assert!(r.sync.is_none(), "{}: sync block must be absent at cost 0", policy);
        }
        prop_assert!(
            sync.sync_packets <= r.processed + r.dropped,
            "{}: more surcharged packets than packets", policy
        );
        if policy == "scr-rr" || policy == "scr-p2c" {
            prop_assert_eq!(sync.consolidations, 0u64, "{}: consolidation without a period", policy);
        }
    }
}

/// At `sync_cost_us = 0`, `scr-rr` is round-robin in everything but
/// name: identical decisions, dormant sync model, byte-identical report
/// once the name field is normalized.
#[test]
fn unpriced_scr_rr_report_is_byte_identical_to_round_robin() {
    for (scenario_id, seed) in [(2u8, 41u64), (7, 1213)] {
        let mut a = builder(scenario_id, seed, 0.0)
            .run_named("scr-rr")
            .expect("builtin policy");
        let mut b = builder(scenario_id, seed, 0.0)
            .run_named("round-robin")
            .expect("builtin policy");
        assert_eq!(a.scheduler, "scr-rr");
        assert_eq!(b.scheduler, "round-robin");
        a.scheduler = "normalized".to_string();
        b.scheduler = "normalized".to_string();
        let a = serde_json::to_string(&a).expect("serializes");
        let b = serde_json::to_string(&b).expect("serializes");
        assert_eq!(
            a, b,
            "T{scenario_id}: dormant SCR diverged from round-robin"
        );
    }
}

/// Pricing the model perturbs only what it should: packets still
/// conserve, the sync block appears, and the surcharge is visible as
/// extra busy time relative to the unpriced run.
#[test]
fn priced_scr_rr_reports_surcharge_and_still_conserves() {
    let free = builder(2, 99, 0.0).run_named("scr-rr").expect("policy");
    let priced = builder(2, 99, 1.0).run_named("scr-rr").expect("policy");
    assert!(free.sync.is_none());
    let sync = priced.sync.expect("priced run records sync stats");
    assert!(sync.sync_packets > 0, "multi-core spraying must go stale");
    assert!(sync.sync_extra_ns > 0);
    assert_eq!(priced.offered, priced.dropped + priced.processed);
    let busy_free: u64 = free.core_busy_ns.iter().sum();
    let busy_priced: u64 = priced.core_busy_ns.iter().sum();
    assert!(
        busy_priced > busy_free,
        "surcharge must surface as busy time ({busy_priced} <= {busy_free})"
    );
}
