//! Property-based tests for trace generation and analysis.

use nptrace::analysis::{cumulative_top_k_checkpoints, windowed_top_k};
use nptrace::{SizeModel, TraceConfig, TraceGenerator};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = TraceConfig> {
    // Keep the search space small enough to run fast.
    (1u32..200, 0.5f64..1.5, 1usize..2_000, 1.0f64..6.0).prop_map(
        |(n_flows, exp, n_packets, burst)| TraceConfig {
            name: "prop".into(),
            flow_space: 77,
            n_flows,
            zipf_exponent: exp,
            head_offset: 0.0,
            n_packets,
            mean_burst: burst,
            concurrency: 1,
            mouse_lifetime: 0.0,
            size_model: SizeModel::default(),
        },
    )
}

proptest! {
    /// Every generated packet references a valid flow and a valid size.
    #[test]
    fn generated_packets_are_valid(cfg in arb_config(), seed in any::<u64>()) {
        let t = TraceGenerator::new(cfg.clone(), seed).generate();
        prop_assert_eq!(t.len(), cfg.n_packets);
        for p in &t.packets {
            prop_assert!(p.flow < cfg.n_flows);
            prop_assert!(matches!(p.size, 64 | 576 | 1500));
        }
    }

    /// Analysis conserves packets: per-flow counts sum to the trace length.
    #[test]
    fn analysis_conserves_packets(cfg in arb_config(), seed in any::<u64>()) {
        let t = TraceGenerator::new(cfg, seed).generate();
        let s = t.analyze();
        let total: u64 = s.counts_by_flow().iter().sum();
        prop_assert_eq!(total, t.len() as u64);
        let ranked: u64 = s.rank_size().iter().sum();
        prop_assert_eq!(ranked, t.len() as u64);
    }

    /// top_k returns at most k flows, sorted by descending count, all with
    /// nonzero counts.
    #[test]
    fn top_k_is_sorted_and_positive(cfg in arb_config(), seed in any::<u64>(), k in 0usize..32) {
        let t = TraceGenerator::new(cfg, seed).generate();
        let s = t.analyze();
        let top = s.top_k(k);
        prop_assert!(top.len() <= k);
        let counts = s.counts_by_flow();
        for w in top.windows(2) {
            prop_assert!(counts[w[0] as usize] >= counts[w[1] as usize]);
        }
        for &f in &top {
            prop_assert!(counts[f as usize] > 0);
        }
    }

    /// Windowed top-k covers the whole trace: number of windows is
    /// ceil(len / window).
    #[test]
    fn windowed_covers_trace(cfg in arb_config(), seed in any::<u64>(), window in 1usize..500) {
        let t = TraceGenerator::new(cfg, seed).generate();
        let w = windowed_top_k(&t, window, 4);
        let expect = t.len().div_ceil(window);
        prop_assert_eq!(w.len(), expect);
    }

    /// Cumulative checkpoints at interval i: floor(len / i) snapshots, and
    /// the last snapshot equals the whole-trace top-k when len % i == 0.
    #[test]
    fn cumulative_checkpoint_consistency(cfg in arb_config(), seed in any::<u64>(), interval in 1usize..500) {
        let t = TraceGenerator::new(cfg, seed).generate();
        let cps = cumulative_top_k_checkpoints(&t, interval, 8);
        prop_assert_eq!(cps.len(), t.len() / interval);
        if !cps.is_empty() && t.len().is_multiple_of(interval) {
            let full = t.analyze().top_k(8);
            prop_assert_eq!(cps.last().unwrap().clone(), full);
        }
    }
}
