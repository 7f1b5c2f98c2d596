//! Scheduler registry: one static table of `name → constructor`.
//!
//! One place that knows how to wire every scheduling policy of the
//! paper (and this reproduction's extensions) from an [`EngineConfig`]:
//! core counts, time-scaled thresholds, detector configurations. The
//! figure binaries, examples, the `lapsim` CLI and the byte-identity
//! tests all resolve policies here instead of hand-rolling the same
//! `match` on a name string. A policy added to the table joins every
//! one of them.
//!
//! The table is fixed at compile time: name lookup is a linear scan
//! over a dozen entries, and iteration order is the table's order (no
//! hash-map ordering anywhere near an experiment). A policy outside the
//! table needs no name: `SimBuilder::run_with` runs any `Scheduler`.

use crate::config::{LapsConfig, ParkConfig};
use crate::{AdaptiveHash, Afs, DetectorKind, Fcfs, Laps, Scr, StaticHash, TopKMigration};
use detsim::{derive_seed, SimTime};
use npafd::AfdConfig;
use npsim::{EngineConfig, RoundRobin, Scheduler};

/// A scheduling policy behind a vtable, runnable on the engine via the
/// blanket `Scheduler for Box<T>` impl.
pub type BoxedScheduler = Box<dyn Scheduler>;

/// The LAPS configuration matched to an engine configuration: the
/// paper's thresholds (`idle_th` ≈ 10 µs, claim damping ≈ 300 µs at
/// paper scale), time-scaled by `cfg.scale`.
pub fn laps_config_for(cfg: &EngineConfig) -> LapsConfig {
    LapsConfig {
        n_cores: cfg.n_cores,
        idle_release: SimTime::from_micros_f64(10.0 * cfg.scale),
        realloc_cooldown: SimTime::from_micros_f64(300.0 * cfg.scale),
        ..LapsConfig::default()
    }
}

/// The `laps-park` configuration: [`laps_config_for`] plus core parking
/// after 50 µs idle (paper scale, time-scaled by `cfg.scale`), keeping
/// at least one core awake.
pub fn laps_park_config_for(cfg: &EngineConfig) -> LapsConfig {
    LapsConfig {
        parking: Some(ParkConfig {
            park_after: SimTime::from_micros_f64(50.0 * cfg.scale),
            min_cores: 1,
        }),
        ..laps_config_for(cfg)
    }
}

/// A policy constructor: wires the policy from the engine configuration.
type Ctor = fn(&EngineConfig) -> BoxedScheduler;

/// Every policy, in canonical order (listed on [`SchedulerRegistry`]).
static POLICIES: [(&str, Ctor); 12] = [
    ("round-robin", |_| Box::new(RoundRobin::new())),
    ("fcfs", |_| Box::new(Fcfs::new())),
    ("static", |cfg| Box::new(StaticHash::new(cfg.n_cores))),
    ("afs", |cfg| {
        let cooldown = SimTime::from_micros_f64(4.0 * cfg.scale);
        Box::new(Afs::new(cfg.n_cores, 24, cooldown))
    }),
    ("adaptive", |cfg| {
        Box::new(AdaptiveHash::new(cfg.n_cores, 4_096, 8))
    }),
    ("topk-afd", |cfg| {
        let det = DetectorKind::Afd(AfdConfig::default());
        Box::new(TopKMigration::new(cfg.n_cores, 24, det))
    }),
    ("topk-oracle", |cfg| {
        let det = DetectorKind::Oracle {
            k: 16,
            refresh: 1_000,
        };
        Box::new(TopKMigration::new(cfg.n_cores, 24, det))
    }),
    ("laps", |cfg| Box::new(Laps::new(laps_config_for(cfg)))),
    ("laps-park", |cfg| {
        Box::new(Laps::new(laps_park_config_for(cfg)))
    }),
    ("scr-rr", |_| Box::new(Scr::round_robin())),
    ("scr-p2c", |cfg| {
        Box::new(Scr::power_of_two(derive_seed(cfg.seed, "scr-p2c")))
    }),
    ("scr-sync16", |_| Box::new(Scr::with_sync(16))),
];

/// A handle on the policy table; it holds no state of its own. The
/// policies, in canonical order:
///
/// | name | policy |
/// |------|--------|
/// | `round-robin` | [`RoundRobin`] — packet-spraying baseline |
/// | `fcfs` | [`Fcfs`] — join-shortest-queue (paper's FCFS) |
/// | `static` | [`StaticHash`] — pure hash (Cao et al.) |
/// | `afs` | [`Afs`] — bucket remap on imbalance (Dittmann) |
/// | `adaptive` | [`AdaptiveHash`] — Kencl-style weighted hash |
/// | `topk-afd` | [`TopKMigration`] with the AFD detector |
/// | `topk-oracle` | [`TopKMigration`] with exact top-k stats |
/// | `laps` | [`Laps`] — the paper's scheduler, §III |
/// | `laps-park` | LAPS plus the core-parking power extension |
/// | `scr-rr` | [`Scr`] — SCR packet spraying (round-robin) |
/// | `scr-p2c` | [`Scr`] — SCR power-of-two-choices |
/// | `scr-sync16` | [`Scr`] — SCR spraying, consolidate every 16 |
///
/// Thresholds with time dimensions scale with `cfg.scale` exactly as
/// the figure binaries always wired them (AFS cooldown 4 µs, LAPS
/// `idle_th` 10 µs / damping 300 µs, park-after 50 µs — all at paper
/// scale).
#[derive(Debug, Clone, Copy)]
pub struct SchedulerRegistry;

impl SchedulerRegistry {
    /// The handle on the built-in policies.
    pub fn builtin() -> Self {
        SchedulerRegistry
    }

    /// Construct the policy named `name` for `cfg`.
    pub fn build(&self, name: &str, cfg: &EngineConfig) -> Option<BoxedScheduler> {
        POLICIES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, ctor)| ctor(cfg))
    }

    /// Every policy name, in table order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> {
        POLICIES.iter().map(|(n, _)| *n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_covers_every_paper_policy() {
        let r = SchedulerRegistry::builtin();
        let names: Vec<_> = r.names().collect();
        assert_eq!(names.len(), 12);
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} listed twice");
            let s = r
                .build(name, &EngineConfig::default())
                .expect("constructor runs");
            // Policies report their own (sometimes more specific) name;
            // the registry key is always a prefix-compatible handle.
            assert!(!s.name().is_empty(), "{name} reports a name");
        }
        assert!(r
            .build("no-such-policy", &EngineConfig::default())
            .is_none());
    }

    #[test]
    fn laps_config_scales_thresholds() {
        let cfg = EngineConfig {
            scale: 100.0,
            ..EngineConfig::default()
        };
        let lc = laps_config_for(&cfg);
        assert_eq!(lc.n_cores, cfg.n_cores);
        assert_eq!(lc.idle_release, SimTime::from_micros(1_000));
        assert_eq!(lc.realloc_cooldown, SimTime::from_micros(30_000));
        let park = laps_park_config_for(&cfg).parking.expect("parking on");
        assert_eq!(park.park_after, SimTime::from_micros(5_000));
        assert_eq!(park.min_cores, 1);
    }
}
