//! Packet-conservation and determinism invariants across every scheduler
//! and a spread of scenarios — the accounting every figure rests on.

use laps_repro::prelude::*;

/// Every policy under test, resolved through the scheduler registry (the
/// same wiring the figure binaries use).
const ALL_POLICIES: [&str; 6] = ["fcfs", "static", "afs", "adaptive", "topk-afd", "laps"];

fn builder(id: u8, seed: u64) -> SimBuilder {
    let scenario = Scenario::by_id(id).unwrap();
    SimBuilder::new()
        .cores(16)
        .duration(SimTime::from_millis(120))
        .scale(200.0)
        .seed(seed)
        .configure(|cfg| {
            cfg.period_compression = 60.0;
            cfg.rate_update_interval = SimTime::from_millis(10);
        })
        .scenario(scenario)
}

#[test]
fn every_scheduler_conserves_packets_on_every_scenario() {
    for id in [1u8, 4, 5, 8] {
        for name in ALL_POLICIES {
            let b = builder(id, 500 + id as u64);
            let n_cores = b.engine_config().n_cores;
            let r = b.run_named(name).expect("builtin policy");
            assert_eq!(
                r.offered,
                r.dropped + r.processed,
                "{name} on T{id}: offered != dropped + processed"
            );
            let off: u64 = r.per_service.iter().map(|s| s.offered).sum();
            let drp: u64 = r.per_service.iter().map(|s| s.dropped).sum();
            let prc: u64 = r.per_service.iter().map(|s| s.processed).sum();
            assert_eq!(
                off, r.offered,
                "{name} on T{id}: per-service offered mismatch"
            );
            assert_eq!(
                drp, r.dropped,
                "{name} on T{id}: per-service dropped mismatch"
            );
            assert_eq!(
                prc, r.processed,
                "{name} on T{id}: per-service processed mismatch"
            );
            assert!(r.out_of_order <= r.processed);
            assert!(r.cold_starts <= r.processed);
            assert!(r.migrated_packets <= r.processed);
            assert_eq!(r.core_busy_ns.len(), n_cores);
            // Busy time can never exceed wall time on any core.
            for (core, &b) in r.core_busy_ns.iter().enumerate() {
                assert!(
                    b <= r.end_time.as_nanos(),
                    "{name} on T{id}: core {core} busier than the clock"
                );
            }
        }
    }
}

#[test]
fn identical_seeds_replay_identically_for_every_scheduler() {
    for name in ALL_POLICIES {
        let ra = builder(3, 777).run_named(name).expect("builtin policy");
        let rb = builder(3, 777).run_named(name).expect("builtin policy");
        assert_eq!(ra.offered, rb.offered, "{name}: offered diverged");
        assert_eq!(ra.dropped, rb.dropped, "{name}: dropped diverged");
        assert_eq!(ra.out_of_order, rb.out_of_order, "{name}: ooo diverged");
        assert_eq!(
            ra.migration_events, rb.migration_events,
            "{name}: migrations diverged"
        );
        assert_eq!(
            ra.core_busy_ns, rb.core_busy_ns,
            "{name}: busy time diverged"
        );
    }
}

#[test]
fn identical_arrivals_across_schedulers() {
    // The paired-comparison guarantee: every scheduler sees the same
    // offered traffic under the same seed, because arrival draws are
    // scheduler-independent streams.
    let offered: Vec<u64> = ALL_POLICIES
        .iter()
        .map(|name| builder(2, 31337).run_named(name).expect("builtin").offered)
        .collect();
    for w in offered.windows(2) {
        assert_eq!(w[0], w[1], "offered packets differ between schedulers");
    }
}

#[test]
fn conservation_holds_under_any_fault_plan() {
    // Property: for ANY deterministic fault plan — crashes, heals,
    // throttles, stalls, in any combination — every offered
    // packet is still either delivered or dropped after the drain, for
    // every policy. Randomized plans are generated from the seed, so a
    // failing seed reproduces exactly.
    let horizon = SimTime::from_millis(120);
    for seed in 0..12u64 {
        let plan = random_plan(seed, 16, horizon);
        for name in ["fcfs", "static", "laps"] {
            let b = builder(1 + (seed % 8) as u8, 900 + seed).faults(plan.clone());
            let r = b.run_named(name).expect("builtin policy");
            assert_eq!(
                r.offered,
                r.dropped + r.processed,
                "{name} under plan seed {seed} ({plan:?}): ingested != delivered + dropped"
            );
            let f = r
                .faults
                .as_ref()
                .unwrap_or_else(|| panic!("{name} under plan seed {seed}: fault stats missing"));
            assert_eq!(
                f.injected,
                plan.len() as u64,
                "{name} under plan seed {seed}: not every plan entry fired"
            );
            assert!(r.dropped >= f.fault_drops);
        }
    }
}

#[test]
fn fault_runs_are_byte_identical_across_replays() {
    // Post-heal reports must replay byte-for-byte: the fault machinery
    // is part of the deterministic simulation, not a perturbation.
    let horizon = SimTime::from_millis(120);
    for seed in [0u64, 3, 7] {
        let plan = random_plan(seed, 16, horizon);
        for name in ["fcfs", "laps"] {
            let run = || {
                let r = builder(2, 1_000 + seed)
                    .faults(plan.clone())
                    .run_named(name)
                    .expect("builtin policy");
                serde_json::to_string(&r).expect("report serializes")
            };
            assert_eq!(
                run(),
                run(),
                "{name} under plan seed {seed}: replay diverged"
            );
        }
    }
}

#[test]
fn static_hash_never_reorders_or_migrates_anywhere() {
    for id in 1..=8u8 {
        let r = builder(id, id as u64)
            .run_named("static")
            .expect("builtin policy");
        assert_eq!(r.out_of_order, 0, "T{id}: pinned flows reordered");
        assert_eq!(r.migration_events, 0, "T{id}: pinned flows migrated");
    }
}
