//! A random fault-plan generator for property tests.
//!
//! The plan *types* live in `npsim::fault` (the engine executes them,
//! and `FaultPlan::new().crash(..).heal(..)` builds a plan by hand);
//! this module adds a deterministic [`random_plan`] generator (seed →
//! plan is a pure function, so a failing seed reproduces exactly).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use detsim::{SimTime, SplitMix64};
use npsim::FaultPlan;

/// A deterministic pseudo-random fault plan: 1–4 fault episodes
/// (crash+heal, throttle-and-restore, or transient stall) with times
/// inside `horizon`. The same `(seed, n_cores, horizon)` always yields
/// the same plan, and every generated plan passes
/// [`FaultPlan::validate`] for that shape.
pub fn random_plan(seed: u64, n_cores: usize, horizon: SimTime) -> FaultPlan {
    // Plan randomization only; the engine's own RNGs come from
    // `detsim::SeedSequence`.
    let mut rng = SplitMix64::new(seed);
    let mut below = |n: u64| rng.next_u64() % n.max(1);
    let h = horizon.as_nanos().max(2);
    let mut plan = FaultPlan::new();
    let episodes = 1 + below(4) as usize;
    for _ in 0..episodes {
        let at = SimTime::from_nanos(1 + below(h - 1));
        let core = below(n_cores.max(1) as u64) as usize;
        match below(4) {
            0 => {
                // Crash, healed later (possibly past the horizon — the
                // engine applies post-horizon heals during the drain).
                let heal_at = at + SimTime::from_nanos(1 + below(h / 2));
                plan = plan.crash(at, core).heal(heal_at, core);
            }
            1 => {
                let factor = 1.5 + below(100) as f64 / 50.0; // 1.5..3.5
                let restore_at = at + SimTime::from_nanos(1 + below(h / 2));
                plan = plan
                    .throttle(at, core, factor)
                    .throttle(restore_at, core, 1.0);
            }
            _ => {
                let duration = SimTime::from_nanos(1 + below(h / 4));
                plan = plan.stall(at, core, duration);
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic_and_valid() {
        let horizon = SimTime::from_millis(5);
        for seed in 0..200 {
            let a = random_plan(seed, 8, horizon);
            let b = random_plan(seed, 8, horizon);
            assert_eq!(a, b, "seed {seed} must reproduce");
            assert!(!a.is_empty());
            a.validate(8, 4)
                .unwrap_or_else(|e| panic!("seed {seed} generated invalid plan: {e}"));
        }
    }

    #[test]
    fn random_plans_vary_with_seed() {
        let horizon = SimTime::from_millis(5);
        let distinct = (0..20)
            .map(|s| random_plan(s, 8, horizon))
            .collect::<Vec<_>>();
        assert!(
            distinct.windows(2).any(|w| w[0] != w[1]),
            "different seeds should produce different plans"
        );
    }
}
