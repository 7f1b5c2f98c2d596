//! Fig. 8-shaped integration assertions on the detector family:
//! the AFD against exact ground truth, the single-cache trap, and the
//! SpaceSaving sketch, all on the standard trace presets.

use laps_repro::npafd::{Afd, AfdConfig, ElephantTrap, ExactTopK, PromotionPolicy, SpaceSaving};
use laps_repro::nphash::{FlowId, FlowSlot};
use laps_repro::nptrace::analysis::false_positive_ratio;
use laps_repro::nptrace::{Trace, TracePreset};

const K: usize = 16;
const N_PACKETS: usize = 200_000;

/// The detector's candidates as flow IDs: it is keyed by the trace's
/// dense flow index, the ground truth by flow ID.
fn flow_ids(trace: &Trace, slots: Vec<FlowSlot>) -> Vec<FlowId> {
    slots
        .into_iter()
        .map(|s| trace.flow_id_of(s.raw()))
        .collect()
}

fn run_all(trace: &Trace, cfg: AfdConfig) -> (Vec<FlowId>, Vec<FlowId>) {
    let mut afd = Afd::new(cfg);
    let mut truth = ExactTopK::new();
    for p in &trace.packets {
        afd.access(FlowSlot::new(p.flow));
        truth.access(trace.flow_id_of(p.flow));
    }
    (flow_ids(trace, afd.aggressive_flows()), truth.top_k(K))
}

#[test]
fn annex_gradient_matches_fig8a() {
    // FPR must be non-increasing (within small jitter) as the annex
    // grows, and the 512-entry point must be solidly accurate.
    for preset in [TracePreset::Caida(1), TracePreset::Auckland(1)] {
        let trace = preset.generate(N_PACKETS);
        let fpr_of = |annex: usize| {
            let (cand, top) = run_all(
                &trace,
                AfdConfig {
                    annex_entries: annex,
                    ..AfdConfig::default()
                },
            );
            false_positive_ratio(&cand, &top)
        };
        let small = fpr_of(64);
        let big = fpr_of(512);
        assert!(
            big <= small + 0.067,
            "{}: fpr grew with annex size ({small} -> {big})",
            preset.name()
        );
        assert!(big <= 0.2, "{}: fpr at annex=512 is {big}", preset.name());
    }
}

#[test]
fn afd_beats_single_cache_on_all_presets() {
    for preset in [TracePreset::Caida(2), TracePreset::Auckland(2)] {
        let trace = preset.generate(N_PACKETS);
        let mut afd = Afd::new(AfdConfig::default());
        let mut trap = ElephantTrap::new(K);
        let mut truth = ExactTopK::new();
        for p in &trace.packets {
            afd.access(FlowSlot::new(p.flow));
            trap.access(FlowSlot::new(p.flow));
            truth.access(trace.flow_id_of(p.flow));
        }
        let top = truth.top_k(K);
        let afd_fpr = false_positive_ratio(&flow_ids(&trace, afd.aggressive_flows()), &top);
        let trap_fpr = false_positive_ratio(&flow_ids(&trace, trap.aggressive_flows()), &top);
        assert!(
            afd_fpr < trap_fpr,
            "{}: afd {afd_fpr} !< trap {trap_fpr}",
            preset.name()
        );
    }
}

#[test]
fn competitive_promotion_is_at_least_as_accurate() {
    let trace = TracePreset::Caida(1).generate(N_PACKETS);
    let fpr = |promotion| {
        let (cand, top) = run_all(
            &trace,
            AfdConfig {
                promotion,
                ..AfdConfig::default()
            },
        );
        false_positive_ratio(&cand, &top)
    };
    assert!(fpr(PromotionPolicy::Competitive) <= fpr(PromotionPolicy::Always));
}

#[test]
fn spacesaving_tracks_every_paper_scale_elephant() {
    // With m = 512 counters, any flow above total/512 is guaranteed
    // tracked — which covers the whole top-16 on these presets.
    let trace = TracePreset::Auckland(1).generate(N_PACKETS);
    let mut ss = SpaceSaving::new(512);
    let mut truth = ExactTopK::new();
    for (f, _) in trace.iter_ids() {
        ss.access(f);
        truth.access(f);
    }
    for f in truth.top_k(K) {
        let est = ss.estimate(f).expect("top flow must be tracked");
        assert!(est >= truth.count_of(f), "SpaceSaving underestimated");
    }
    // And its top-16 matches ground truth closely.
    let top = truth.top_k(K);
    let fpr = false_positive_ratio(&ss.top_k(K), &top);
    assert!(fpr <= 0.25, "SpaceSaving fpr {fpr}");
}

#[test]
fn sampling_tenth_costs_little() {
    for preset in [TracePreset::Caida(1), TracePreset::Auckland(1)] {
        let trace = preset.generate(N_PACKETS);
        let fpr = |p| {
            let (cand, top) = run_all(
                &trace,
                AfdConfig {
                    sample_prob: p,
                    ..AfdConfig::default()
                },
            );
            false_positive_ratio(&cand, &top)
        };
        assert!(
            fpr(0.1) <= fpr(1.0) + 0.13,
            "{}: sampling at 1/10 degraded accuracy too much",
            preset.name()
        );
    }
}
