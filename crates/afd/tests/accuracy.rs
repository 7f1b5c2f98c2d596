//! Cross-crate accuracy tests: the AFD against exact ground truth on
//! synthetic heavy-tailed traces — the protocol behind Fig. 8.

use npafd::{Afd, AfdConfig, ElephantTrap, ExactTopK};
use nphash::{FlowId, FlowSlot};
use nptrace::analysis::false_positive_ratio;
use nptrace::{Trace, TraceConfig, TraceGenerator};
use proptest::prelude::*;

fn make_trace(n_flows: u32, exp: f64, n_packets: usize, seed: u64) -> Trace {
    TraceGenerator::new(
        TraceConfig {
            name: "afd_acc".into(),
            flow_space: 0xAFD,
            n_flows,
            zipf_exponent: exp,
            head_offset: 0.0,
            n_packets,
            mean_burst: 2.0,
            concurrency: 8,
            mouse_lifetime: 0.0,
            size_model: Default::default(),
        },
        seed,
    )
    .generate()
}

/// The detectors are keyed by the trace's dense flow index; ground truth
/// by the flow's ID.
fn ids(trace: &Trace, slots: Vec<FlowSlot>) -> Vec<FlowId> {
    slots
        .into_iter()
        .map(|s| trace.flow_id_of(s.raw()))
        .collect()
}

/// Run a trace through the AFD and ground truth; return (fpr, recall@k).
fn afd_accuracy(trace: &Trace, cfg: AfdConfig) -> (f64, f64) {
    let mut afd = Afd::new(cfg);
    let mut truth = ExactTopK::new();
    for p in &trace.packets {
        afd.access(FlowSlot::new(p.flow));
        truth.access(trace.flow_id_of(p.flow));
    }
    let k = cfg.afc_entries;
    let candidates = ids(trace, afd.aggressive_flows());
    let top = truth.top_k(k);
    let fpr = false_positive_ratio(&candidates, &top);
    let found = top.iter().filter(|f| candidates.contains(f)).count();
    let recall = if top.is_empty() {
        1.0
    } else {
        found as f64 / top.len() as f64
    };
    (fpr, recall)
}

#[test]
fn afd_finds_top_flows_on_steep_tail() {
    // Auckland-like: few flows, steep tail → near-perfect with 512 annex.
    let t = make_trace(4_000, 1.25, 300_000, 7);
    let (fpr, recall) = afd_accuracy(&t, AfdConfig::default());
    assert!(fpr < 0.25, "fpr {fpr}");
    assert!(recall > 0.75, "recall {recall}");
}

#[test]
fn bigger_annex_does_not_hurt_on_backbone_tail() {
    // CAIDA-like: many flows, flatter tail. Accuracy with a 1024-entry
    // annex must be at least as good as with 64 entries (Fig. 8a trend).
    let t = make_trace(40_000, 1.05, 400_000, 8);
    let small = afd_accuracy(
        &t,
        AfdConfig {
            annex_entries: 64,
            ..AfdConfig::default()
        },
    );
    let large = afd_accuracy(
        &t,
        AfdConfig {
            annex_entries: 1024,
            ..AfdConfig::default()
        },
    );
    assert!(
        large.0 <= small.0 + 0.13,
        "large-annex fpr {} much worse than small-annex {}",
        large.0,
        small.0
    );
    assert!(
        large.1 >= small.1 - 0.13,
        "recall regressed: {} vs {}",
        large.1,
        small.1
    );
}

#[test]
fn afd_beats_single_cache_trap() {
    // The headline claim of §VI: two-level filtering beats a single cache
    // of the same AFC size on false positives.
    let t = make_trace(20_000, 1.05, 400_000, 9);
    let mut truth = ExactTopK::new();
    let mut afd = Afd::new(AfdConfig::default());
    let mut trap = ElephantTrap::new(16);
    for p in &t.packets {
        truth.access(t.flow_id_of(p.flow));
        afd.access(FlowSlot::new(p.flow));
        trap.access(FlowSlot::new(p.flow));
    }
    let top = truth.top_k(16);
    let afd_fpr = false_positive_ratio(&ids(&t, afd.aggressive_flows()), &top);
    let trap_fpr = false_positive_ratio(&ids(&t, trap.aggressive_flows()), &top);
    assert!(
        afd_fpr <= trap_fpr,
        "AFD fpr {afd_fpr} should not exceed single-cache fpr {trap_fpr}"
    );
}

#[test]
fn sampling_retains_accuracy() {
    // Fig. 8c: sampling at 1/10 keeps accuracy in the same band.
    let t = make_trace(8_000, 1.15, 400_000, 10);
    let full = afd_accuracy(&t, AfdConfig::default());
    let sampled = afd_accuracy(
        &t,
        AfdConfig {
            sample_prob: 0.1,
            ..AfdConfig::default()
        },
    );
    assert!(
        sampled.0 <= full.0 + 0.25,
        "sampled fpr {} vs full {}",
        sampled.0,
        full.0
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The AFC never reports more flows than its capacity, and reported
    /// flows were actually seen in the trace.
    #[test]
    fn afc_reports_bounded_real_flows(seed in any::<u64>(), n_flows in 50u32..2_000) {
        let t = make_trace(n_flows, 1.1, 20_000, seed);
        let mut afd = Afd::new(AfdConfig { afc_entries: 8, annex_entries: 64, ..AfdConfig::default() });
        let mut seen = std::collections::BTreeSet::new();
        for p in &t.packets {
            afd.access(FlowSlot::new(p.flow));
            seen.insert(FlowSlot::new(p.flow));
        }
        let agg = afd.aggressive_flows();
        prop_assert!(agg.len() <= 8);
        for f in agg {
            prop_assert!(seen.contains(&f));
        }
    }

    /// Determinism: two identical runs produce identical AFC contents.
    #[test]
    fn afd_is_deterministic(seed in any::<u64>()) {
        let t = make_trace(500, 1.1, 10_000, seed);
        let run = || {
            let mut afd = Afd::new(AfdConfig { sample_prob: 0.5, ..AfdConfig::default() });
            for p in &t.packets { afd.access(FlowSlot::new(p.flow)); }
            afd.aggressive_flows()
        };
        prop_assert_eq!(run(), run());
    }
}
