//! Scheduler registry: `name → boxed constructor`.
//!
//! One place that knows how to wire every scheduling policy of the
//! paper (and this reproduction's extensions) from an [`EngineConfig`]:
//! core counts, time-scaled thresholds, detector configurations. The
//! figure binaries, examples, and the `lapsim` CLI all resolve policies
//! here instead of hand-rolling the same `match` on a name string.
//!
//! Entries are held in **registration order** in a `Vec` — name lookup
//! is a linear scan over a handful of entries, and iteration order is
//! deterministic (no hash-map ordering anywhere near an experiment).

use crate::config::{LapsConfig, ParkConfig};
use crate::{AdaptiveHash, Afs, DetectorKind, Fcfs, Laps, Scr, StaticHash, TopKMigration};
use detsim::{derive_seed, SimTime};
use npafd::AfdConfig;
use npsim::{EngineConfig, RoundRobin, Scheduler};

/// A scheduling policy behind a vtable, runnable on the engine via the
/// blanket `Scheduler for Box<T>` impl.
pub type BoxedScheduler = Box<dyn Scheduler>;

/// A constructor wiring a policy from the engine configuration.
pub type SchedulerCtor = Box<dyn Fn(&EngineConfig) -> BoxedScheduler + Send + Sync>;

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

/// The registry: named constructors for every scheduling policy.
pub struct SchedulerRegistry {
    entries: Vec<(&'static str, SchedulerCtor)>,
}

impl std::fmt::Debug for SchedulerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerRegistry")
            .field("names", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

impl SchedulerRegistry {
    /// An empty registry (no built-ins).
    pub fn empty() -> Self {
        SchedulerRegistry {
            entries: Vec::new(),
        }
    }

    /// The built-in policies, in canonical order:
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
    pub fn builtin() -> Self {
        let mut r = SchedulerRegistry::empty();
        r.register("round-robin", |_cfg| Box::new(RoundRobin::new()));
        r.register("fcfs", |_cfg| Box::new(Fcfs::new()));
        r.register("static", |cfg| Box::new(StaticHash::new(cfg.n_cores)));
        r.register("afs", |cfg| {
            let cooldown = SimTime::from_micros_f64(4.0 * cfg.scale);
            Box::new(Afs::new(cfg.n_cores, 24, cooldown))
        });
        r.register("adaptive", |cfg| {
            Box::new(AdaptiveHash::new(cfg.n_cores, 4_096, 8))
        });
        r.register("topk-afd", |cfg| {
            let det = DetectorKind::Afd(AfdConfig::default());
            Box::new(TopKMigration::new(cfg.n_cores, 24, det))
        });
        r.register("topk-oracle", |cfg| {
            let det = DetectorKind::Oracle {
                k: 16,
                refresh: 1_000,
            };
            Box::new(TopKMigration::new(cfg.n_cores, 24, det))
        });
        r.register("laps", |cfg| Box::new(Laps::new(laps_config_for(cfg))));
        r.register("laps-park", |cfg| {
            let mut lc = laps_config_for(cfg);
            lc.parking = Some(ParkConfig {
                park_after: SimTime::from_micros_f64(50.0 * cfg.scale),
                min_cores: 1,
            });
            Box::new(Laps::new(lc))
        });
        r.register("scr-rr", |_cfg| Box::new(Scr::round_robin()));
        r.register("scr-p2c", |cfg| {
            Box::new(Scr::power_of_two(derive_seed(cfg.seed, "scr-p2c")))
        });
        r.register("scr-sync16", |_cfg| Box::new(Scr::with_sync(16)));
        r
    }

    /// Register (or replace) a constructor under `name`.
    pub fn register<F>(&mut self, name: &'static str, ctor: F)
    where
        F: Fn(&EngineConfig) -> BoxedScheduler + Send + Sync + 'static,
    {
        let boxed: SchedulerCtor = Box::new(ctor);
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = boxed,
            None => self.entries.push((name, boxed)),
        }
    }

    /// Construct the policy registered under `name` for `cfg`.
    pub fn build(&self, name: &str, cfg: &EngineConfig) -> Option<BoxedScheduler> {
        self.entries
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, ctor)| ctor(cfg))
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| *n == name)
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|(n, _)| *n)
    }
}

impl Default for SchedulerRegistry {
    /// The built-in registry ([`SchedulerRegistry::builtin`]).
    fn default() -> Self {
        SchedulerRegistry::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_covers_every_paper_policy() {
        let r = SchedulerRegistry::builtin();
        for name in [
            "round-robin",
            "fcfs",
            "static",
            "afs",
            "adaptive",
            "topk-afd",
            "topk-oracle",
            "laps",
            "laps-park",
            "scr-rr",
            "scr-p2c",
            "scr-sync16",
        ] {
            assert!(r.contains(name), "missing builtin {name}");
            let s = r
                .build(name, &EngineConfig::default())
                .expect("constructor runs");
            // Policies report their own (sometimes more specific) name;
            // the registry key is always a prefix-compatible handle.
            assert!(!s.name().is_empty(), "{name} reports a name");
        }
        assert!(!r.contains("no-such-policy"));
    }

    #[test]
    fn registration_order_is_stable_and_replace_works() {
        let mut r = SchedulerRegistry::builtin();
        let before: Vec<_> = r.names().collect();
        r.register("fcfs", |_| Box::new(Fcfs::new()));
        let after: Vec<_> = r.names().collect();
        assert_eq!(before, after, "replacement must not reorder");
        r.register("mine", |cfg| Box::new(StaticHash::new(cfg.n_cores)));
        assert_eq!(r.names().last(), Some("mine"));
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
    }
}
