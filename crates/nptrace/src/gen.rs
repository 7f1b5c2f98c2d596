//! Synthetic trace generation.
//!
//! A trace is a packet stream over `n_flows` distinct flows whose
//! popularity follows Zipf(`zipf_exponent`), with geometric burst runs
//! (consecutive packets of the same flow) providing the temporal locality
//! real link traces exhibit.

use crate::packet::{PacketRecord, Trace};
use crate::sizes::{SizeModel, SizeProfile};
use crate::zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Generator parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Trace name recorded in the output.
    pub name: String,
    /// Namespace tag mixed into flow IDs (distinct per logical trace).
    pub flow_space: u64,
    /// Number of distinct flows.
    pub n_flows: u32,
    /// Zipf exponent of flow popularity (≈1 for backbone links).
    pub zipf_exponent: f64,
    /// Zipf head offset `q` (see [`crate::ZipfSampler::shifted`]): 0 =
    /// classic Zipf; 8–12 caps the top flow at a realistic share.
    pub head_offset: f64,
    /// Total packets to emit.
    pub n_packets: usize,
    /// Mean burst length (packets a flow emits per activation). 1 = one
    /// packet per activation.
    pub mean_burst: f64,
    /// Number of flow activations in flight at once: each packet is drawn
    /// from one of `concurrency` concurrently active bursts, so a flow's
    /// packets are interleaved with other traffic the way a real
    /// multiplexed link interleaves them. 1 = bursts are strictly
    /// back-to-back.
    pub concurrency: usize,
    /// Mean number of packets a *mouse* flow identity lives before being
    /// replaced by a fresh flow (flow churn: real links see short-lived
    /// mice and long-lived elephants). Ranks below the size model's
    /// `heavy_rank_cutoff` are stable for the whole trace. `0` disables
    /// churn.
    pub mouse_lifetime: f64,
    /// Packet-size model.
    pub size_model: SizeModel,
}

impl TraceConfig {
    /// A small config for unit tests: 500 flows, 20k packets.
    pub fn small_test() -> Self {
        TraceConfig {
            name: "small_test".into(),
            flow_space: 0xFEED,
            n_flows: 500,
            zipf_exponent: 1.1,
            head_offset: 0.0,
            n_packets: 20_000,
            mean_burst: 2.0,
            concurrency: 1,
            mouse_lifetime: 0.0,
            size_model: SizeModel::default(),
        }
    }
}

/// The immutable part of a generator: a pure function of the config's
/// flow model (`n_flows`, `zipf_exponent`, `head_offset`, `size_model`)
/// and the seed, so generators of one preset share one copy
/// ([`crate::TracePreset::generator`]).
#[derive(Debug)]
pub(crate) struct GenTables {
    zipf: ZipfSampler,
    profiles: Arc<[SizeProfile]>,
    /// The RNG right after the profiles are drawn: where every
    /// generator's own stream starts.
    rng: StdRng,
}

impl GenTables {
    pub(crate) fn build(config: &TraceConfig, seed: u64) -> Self {
        let zipf = ZipfSampler::shifted(
            config.n_flows as usize,
            config.zipf_exponent,
            config.head_offset,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let profiles = (0..config.n_flows)
            .map(|rank| config.size_model.assign(rank, &mut rng))
            .collect();
        GenTables {
            zipf,
            profiles,
            rng,
        }
    }
}

/// The integer form of the geometric burst's continue test.
///
/// A uniform draw is `m · 2⁻⁵³` for the integer `m = next_u64() >> 11`,
/// and `p · 2⁵³` is exact too (scaling by a power of two), so
/// `m · 2⁻⁵³ > p ⟺ m > p · 2⁵³ ⟺ m > ⌊p · 2⁵³⌋` — the last step because
/// `m` is an integer. The test replays bit for bit.
fn burst_threshold(mean_burst: f64) -> u64 {
    let p = (1.0 / mean_burst.max(1.0)).clamp(1e-6, 1.0);
    (p * (1u64 << 53) as f64).floor() as u64
}

/// Streaming trace generator.
///
/// Can either materialize a whole [`Trace`] with [`TraceGenerator::generate`]
/// or be driven packet-at-a-time with [`TraceGenerator::next_packet`] (the
/// simulation uses the latter so multi-minute runs need no trace storage).
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    config: TraceConfig,
    zipf: ZipfSampler,
    /// Per-rank size personality (inherited by replacement flows).
    profiles: Arc<[SizeProfile]>,
    /// Current flow identity of each popularity rank (churns for mice).
    flow_map: Vec<u32>,
    next_flow: u32,
    rng: StdRng,
    /// A burst continues while a draw's 53 mantissa bits exceed this:
    /// `⌊p · 2⁵³⌋` for the geometric stop probability `p` (see
    /// [`burst_threshold`]).
    burst_continue_above: u64,
    /// `1 / mouse_lifetime`, the per-burst churn probability of a mouse.
    churn_p: f64,
    /// Concurrently active bursts: `(rank, remaining packets)`.
    active: Vec<(u32, u32)>,
    emitted: usize,
}

impl TraceGenerator {
    /// Build a generator for `config`, seeded with `seed`.
    pub fn new(config: TraceConfig, seed: u64) -> Self {
        let tables = GenTables::build(&config, seed);
        Self::from_tables(config, &tables)
    }

    /// A generator at the start of its stream over `tables`, which must
    /// have been built from `config`'s flow model.
    pub(crate) fn from_tables(config: TraceConfig, tables: &GenTables) -> Self {
        debug_assert_eq!(tables.profiles.len(), config.n_flows as usize);
        TraceGenerator {
            burst_continue_above: burst_threshold(config.mean_burst),
            churn_p: 1.0 / config.mouse_lifetime,
            zipf: tables.zipf.clone(),
            profiles: Arc::clone(&tables.profiles),
            flow_map: (0..config.n_flows).collect(),
            next_flow: config.n_flows,
            rng: tables.rng.clone(),
            active: Vec::new(),
            emitted: 0,
            config,
        }
    }

    /// Draw a fresh activation: a rank and a geometric burst length.
    fn new_activation(&mut self) -> (u32, u32) {
        let rank = self.zipf.sample(&mut self.rng) as u32;
        let mut len = 1u32;
        // `rng.gen::<f64>() > p` on the draw's integer mantissa.
        while self.rng.next_u64() >> 11 > self.burst_continue_above && len < 1_000 {
            len += 1;
        }
        (rank, len)
    }

    /// The configuration this generator was built from.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Flow-ID namespace of the generated packets.
    pub fn flow_space(&self) -> u64 {
        self.config.flow_space
    }

    /// Draw the next packet. Never exhausts — the simulation decides when
    /// to stop (the paper cycles its traces the same way).
    pub fn next_packet(&mut self) -> PacketRecord {
        let want = self.config.concurrency.max(1);
        while self.active.len() < want {
            let a = self.new_activation();
            self.active.push(a);
        }
        // Pick one in-flight activation at random (uniform interleaving).
        let slot = if self.active.len() == 1 {
            0
        } else {
            self.rng.gen_range(0..self.active.len())
        };
        let (rank, remaining) = self.active[slot];
        self.emitted += 1;
        let flow = self.flow_map[rank as usize];
        let size = self.profiles[rank as usize].sample(&mut self.rng);
        if remaining > 1 {
            self.active[slot].1 = remaining - 1;
        } else {
            // Burst complete: maybe churn the mouse identity, then refill
            // the slot with a fresh activation.
            if self.config.mouse_lifetime > 0.0
                && rank >= self.config.size_model.heavy_rank_cutoff
                && self.rng.gen::<f64>() < self.churn_p
            {
                self.flow_map[rank as usize] = self.next_flow;
                self.next_flow += 1;
            }
            let a = self.new_activation();
            self.active[slot] = a;
        }
        PacketRecord { flow, size }
    }

    /// Number of packets emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Materialize `config.n_packets` packets as a [`Trace`].
    pub fn generate(mut self) -> Trace {
        let n = self.config.n_packets;
        let mut packets = Vec::with_capacity(n);
        for _ in 0..n {
            packets.push(self.next_packet());
        }
        Trace {
            name: self.config.name.clone(),
            flow_space: self.config.flow_space,
            // Churn mints new identities; record the true distinct count.
            n_flows: self.next_flow,
            packets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The integer burst test equals the float one it replaces at the
    /// threshold's edges, for every preset's `mean_burst` (and the unit
    /// test config's): `k` is the draw's 53-bit mantissa.
    #[test]
    fn burst_threshold_matches_the_float_compare() {
        let presets = crate::TracePreset::all_caida()
            .into_iter()
            .chain(crate::TracePreset::all_auckland())
            .map(|p| p.config(0).mean_burst);
        for mean_burst in presets.chain([TraceConfig::small_test().mean_burst, 1.0, 0.5]) {
            let p = (1.0 / mean_burst.max(1.0)).clamp(1e-6, 1.0);
            let thr = burst_threshold(mean_burst);
            // At `p = 1` the threshold is 2⁵³ itself, one past every draw.
            let draws = [0, thr, thr + 1, (1u64 << 53) - 1];
            for k in draws.into_iter().filter(|&k| k < 1 << 53) {
                let float = k as f64 * (1.0 / (1u64 << 53) as f64) > p;
                assert_eq!(k > thr, float, "mean_burst {mean_burst}, k {k}");
            }
        }
    }

    #[test]
    fn generates_requested_count() {
        let t = TraceGenerator::new(TraceConfig::small_test(), 1).generate();
        assert_eq!(t.len(), 20_000);
        assert_eq!(t.n_flows, 500);
        assert!(t.packets.iter().all(|p| p.flow < 500));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TraceGenerator::new(TraceConfig::small_test(), 9).generate();
        let b = TraceGenerator::new(TraceConfig::small_test(), 9).generate();
        let c = TraceGenerator::new(TraceConfig::small_test(), 10).generate();
        assert_eq!(a.packets, b.packets);
        assert_ne!(a.packets, c.packets);
    }

    #[test]
    fn rank_zero_is_most_popular() {
        let t = TraceGenerator::new(TraceConfig::small_test(), 3).generate();
        let stats = t.analyze();
        let counts = stats.counts_by_flow();
        let max = counts.iter().copied().max().unwrap();
        // Flow 0 (rank 0) should be at or near the maximum.
        assert!(
            counts[0] as f64 > max as f64 * 0.5,
            "flow0={} max={max}",
            counts[0]
        );
    }

    #[test]
    fn bursts_create_temporal_locality() {
        let mut cfg = TraceConfig::small_test();
        cfg.mean_burst = 8.0;
        let t = TraceGenerator::new(cfg, 4).generate();
        let repeats = t
            .packets
            .windows(2)
            .filter(|w| w[0].flow == w[1].flow)
            .count();
        let frac = repeats as f64 / (t.len() - 1) as f64;
        // Mean burst 8 → ~7/8 of adjacent pairs share a flow.
        assert!(frac > 0.7, "adjacent-same-flow fraction {frac}");
    }

    #[test]
    fn streaming_matches_materialized() {
        let cfg = TraceConfig::small_test();
        let t = TraceGenerator::new(cfg.clone(), 5).generate();
        let mut g = TraceGenerator::new(cfg, 5);
        for (i, p) in t.packets.iter().enumerate().take(1_000) {
            assert_eq!(g.next_packet(), *p, "packet {i}");
        }
        assert_eq!(g.emitted(), 1_000);
    }
}
