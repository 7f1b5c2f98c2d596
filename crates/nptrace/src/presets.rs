//! Named trace presets standing in for the paper's Tables I and II.
//!
//! The real datasets are access-gated (CAIDA) or archival (Auckland-II),
//! so each preset is a synthetic configuration tuned to the published
//! characteristics the scheduler actually observes:
//!
//! * **CAIDA** (OC-192 backbone, 1 min): very many concurrent flows
//!   (tens of thousands), *many* high-rate flows ("Caida traces generally
//!   have a large number of high data rate flows"), near-Zipf(1.05–1.15)
//!   popularity, short bursts (high multiplexing).
//! * **Auckland-II** (university edge, 1 h): an order of magnitude fewer
//!   concurrent flows, milder tail, longer per-flow bursts, smaller
//!   packets.
//!
//! Distinct presets of a family differ by seed and mild parameter jitter,
//! like distinct capture windows of the same link.
//!
//! A preset's generator tables (Zipf sampler, size profiles, seeded RNG
//! state) are built once per process and shared by every generator of
//! that preset: every engine and sweep cell replays the same fourteen
//! traces, so only the first set-up in a process pays for them.

use crate::gen::{GenTables, TraceConfig, TraceGenerator};
use crate::packet::Trace;
use crate::sizes::SizeModel;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// The fourteen named traces used across the paper's experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TracePreset {
    /// CAIDA-like backbone capture `n` ∈ 1..=6 (Tables I and V).
    Caida(u8),
    /// Auckland-II-like edge capture `n` ∈ 1..=8 (Table II).
    Auckland(u8),
}

impl TracePreset {
    /// All CAIDA presets.
    pub fn all_caida() -> Vec<TracePreset> {
        (1..=6).map(TracePreset::Caida).collect()
    }

    /// All Auckland presets.
    pub fn all_auckland() -> Vec<TracePreset> {
        (1..=8).map(TracePreset::Auckland).collect()
    }

    /// The preset's display name (`caida1`, `auck3`, …).
    pub fn name(&self) -> String {
        match self {
            TracePreset::Caida(n) => format!("caida{n}"),
            TracePreset::Auckland(n) => format!("auck{n}"),
        }
    }

    /// Parse a preset name.
    pub fn parse(name: &str) -> Option<TracePreset> {
        if let Some(n) = name.strip_prefix("caida") {
            let n: u8 = n.parse().ok()?;
            (1..=6).contains(&n).then_some(TracePreset::Caida(n))
        } else if let Some(n) = name.strip_prefix("auck") {
            let n: u8 = n.parse().ok()?;
            (1..=8).contains(&n).then_some(TracePreset::Auckland(n))
        } else {
            None
        }
    }

    /// Deterministic generation seed for this preset.
    pub fn seed(&self) -> u64 {
        match self {
            TracePreset::Caida(n) => 0x000C_A1DA_0000 + *n as u64,
            TracePreset::Auckland(n) => 0xA0CC_0000 + *n as u64,
        }
    }

    /// The generator configuration, sized to `n_packets`.
    pub fn config(&self, n_packets: usize) -> TraceConfig {
        match *self {
            TracePreset::Caida(n) => {
                let i = n as u64;
                TraceConfig {
                    name: self.name(),
                    flow_space: 0xCA + i,
                    // Tens of thousands of concurrent flows; slight
                    // variation across capture windows.
                    n_flows: 40_000 + (i as u32 % 3) * 10_000,
                    // Near-Zipf(1.1) tail with a flattened head: the top
                    // flow carries ~2 % of traffic (many comparably heavy
                    // flows — the CAIDA regime of Fig. 8).
                    zipf_exponent: 1.05 + 0.02 * (i as f64 % 3.0),
                    head_offset: 8.0,
                    n_packets,
                    // Backbone: high multiplexing → short bursts; mice
                    // live ~25 packets before the connection ends.
                    mean_burst: 3.0,
                    // OC-192 backbone: many flows in flight at once.
                    concurrency: 64,
                    mouse_lifetime: 25.0,
                    size_model: SizeModel {
                        heavy_large_prob: 0.75,
                        mouse_small_prob: 0.5,
                        heavy_rank_cutoff: 256,
                    },
                }
            }
            TracePreset::Auckland(n) => {
                let i = n as u64;
                TraceConfig {
                    name: self.name(),
                    flow_space: 0xA0 + i,
                    // Edge link: far fewer concurrent flows.
                    n_flows: 4_000 + (i as u32 % 4) * 1_000,
                    // Steeper tail: the few elephants dominate harder,
                    // so a small annex cache already finds them (Fig 8a);
                    // head still capped below half a core of load.
                    zipf_exponent: 1.2 + 0.05 * (i as f64 % 2.0),
                    head_offset: 12.0,
                    n_packets,
                    // Lower multiplexing → longer bursts; edge-link mice
                    // live longer than backbone mice.
                    mean_burst: 6.0,
                    // Edge link: less multiplexing than the backbone.
                    concurrency: 16,
                    mouse_lifetime: 60.0,
                    size_model: SizeModel {
                        heavy_large_prob: 0.6,
                        mouse_small_prob: 0.65,
                        heavy_rank_cutoff: 64,
                    },
                }
            }
        }
    }

    /// Materialize the preset as a trace of `n_packets` packets.
    pub fn generate(&self, n_packets: usize) -> Trace {
        self.generator(n_packets).generate()
    }

    /// A streaming generator for this preset (for long simulations).
    /// Equal, record for record, to `TraceGenerator::new(self.config(n),
    /// self.seed())`, but its tables are built once per process.
    pub fn generator(&self, n_packets: usize) -> TraceGenerator {
        PRESET_TABLES.generator(*self, n_packets)
    }

    /// Slot in [`TableCache`]: `caida1..6` then `auck1..8`; `None` for a
    /// variant outside the fourteen.
    fn slot(&self) -> Option<usize> {
        match *self {
            TracePreset::Caida(n @ 1..=6) => Some(usize::from(n) - 1),
            TracePreset::Auckland(n @ 1..=8) => Some(usize::from(n) + 5),
            _ => None,
        }
    }
}

/// Generator tables of the fourteen presets, each built on first use.
/// Immutable once set and a pure function of the preset — never an RNG
/// position or per-run state (DESIGN.md, "Determinism contract").
struct TableCache([OnceLock<GenTables>; 14]);

static PRESET_TABLES: TableCache = TableCache::new();

impl TableCache {
    const fn new() -> Self {
        TableCache([const { OnceLock::new() }; 14])
    }

    fn generator(&self, preset: TracePreset, n_packets: usize) -> TraceGenerator {
        let config = preset.config(n_packets);
        match preset.slot().and_then(|i| self.0.get(i)) {
            Some(cell) => {
                let tables = cell.get_or_init(|| GenTables::build(&config, preset.seed()));
                TraceGenerator::from_tables(config, tables)
            }
            None => TraceGenerator::new(config, preset.seed()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn all_presets() -> impl Iterator<Item = TracePreset> {
        TracePreset::all_caida()
            .into_iter()
            .chain(TracePreset::all_auckland())
    }

    fn fresh(p: TracePreset) -> TraceGenerator {
        TraceGenerator::new(p.config(0), p.seed())
    }

    /// Advance both generators `n` records, asserting they agree.
    fn assert_lockstep(a: &mut TraceGenerator, b: &mut TraceGenerator, n: usize, what: &str) {
        for i in 0..n {
            assert_eq!(a.next_packet(), b.next_packet(), "{what}: record {i}");
        }
    }

    /// Flow identities minted by mouse churn so far: a zero-length
    /// `generate` reports the generator's distinct-flow count.
    fn churns(g: &TraceGenerator) -> u32 {
        g.clone().generate().n_flows - g.config().n_flows
    }

    #[test]
    fn shared_tables_match_fresh_generators() {
        for p in all_presets() {
            let mut shared = p.generator(0);
            assert_lockstep(&mut shared, &mut fresh(p), 200_000, &p.name());
        }
    }

    #[test]
    fn shared_generators_of_one_preset_stay_independent() {
        for p in all_presets() {
            let (mut a, mut b) = (p.generator(0), p.generator(0));
            let (mut fresh_a, mut fresh_b) = (fresh(p), fresh(p));
            // `a` alone rewrites its flow map past 100 churns first …
            while churns(&a) < 100 {
                assert_lockstep(&mut a, &mut fresh_a, 1_000, &p.name());
            }
            // … then the two advance interleaved, each on its own stream.
            for _ in 0..20 {
                assert_lockstep(&mut a, &mut fresh_a, 500, &p.name());
                assert_lockstep(&mut b, &mut fresh_b, 500, &p.name());
            }
        }
    }

    #[test]
    fn concurrent_first_builds_agree() {
        let cache = TableCache::new();
        let preset = TracePreset::Caida(2);
        let start = Barrier::new(4);
        let streams: Vec<Vec<_>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let mut g = cache.generator(preset, 0);
                        (0..20_000).map(|_| g.next_packet()).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut reference = fresh(preset);
        let expected: Vec<_> = (0..20_000).map(|_| reference.next_packet()).collect();
        for stream in &streams {
            assert_eq!(stream, &expected);
        }
    }

    #[test]
    fn out_of_range_variants_build_uncached() {
        for p in [
            TracePreset::Caida(0),
            TracePreset::Caida(7),
            TracePreset::Auckland(9),
        ] {
            assert_eq!(p.slot(), None);
            assert_lockstep(&mut p.generator(0), &mut fresh(p), 20_000, &p.name());
        }
    }

    #[test]
    fn names_roundtrip() {
        for p in TracePreset::all_caida()
            .into_iter()
            .chain(TracePreset::all_auckland())
        {
            assert_eq!(TracePreset::parse(&p.name()), Some(p));
        }
        assert_eq!(TracePreset::parse("caida7"), None);
        assert_eq!(TracePreset::parse("auck9"), None);
        assert_eq!(TracePreset::parse("bogus"), None);
    }

    #[test]
    fn caida_has_more_flows_than_auckland() {
        let c = TracePreset::Caida(1).generate(50_000);
        let a = TracePreset::Auckland(1).generate(50_000);
        assert!(c.analyze().active_flows() > 2 * a.analyze().active_flows());
    }

    #[test]
    fn presets_are_deterministic_and_distinct() {
        let a1 = TracePreset::Caida(1).generate(10_000);
        let a2 = TracePreset::Caida(1).generate(10_000);
        let b = TracePreset::Caida(2).generate(10_000);
        assert_eq!(a1.packets, a2.packets);
        assert_ne!(a1.packets, b.packets);
        // Different flow_space → disjoint flow IDs.
        assert_ne!(a1.flow_id_of(0), b.flow_id_of(0));
    }

    #[test]
    fn heavy_tail_shape_matches_fig2() {
        // Fig 2: rank-size roughly linear in log-log, i.e. size(rank)
        // drops by orders of magnitude over the first decades of rank.
        let t = TracePreset::Caida(1).generate(200_000);
        let rs = t.analyze().rank_size();
        // With the flattened head, rank 1 is ~10-20x rank 100 and far
        // above rank 1000 — orders of magnitude over the decades.
        assert!(rs[0] > 5 * rs[99], "rank1={} rank100={}", rs[0], rs[99]);
        assert!(rs[0] > 50 * rs[999], "rank1={} rank1000={}", rs[0], rs[999]);
        // And the top flow stays a realistic share of total traffic.
        let share = rs[0] as f64 / t.len() as f64;
        assert!(share < 0.05, "top flow share {share}");
        assert!(share > 0.005, "top flow share {share}");
    }
}
