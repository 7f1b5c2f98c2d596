//! Heavy-hitter detection with the Aggressive Flow Detector.
//!
//! Streams a synthetic backbone trace through three detectors — the
//! two-level AFD, a single-cache ElephantTrap, and exact per-flow
//! counters — and scores each against the offline top-16.
//!
//! ```sh
//! cargo run --release --example heavy_hitter_detection
//! ```

use laps_repro::npafd::{Afd, AfdConfig, ElephantTrap, ExactTopK};
use laps_repro::nphash::FlowSlot;
use laps_repro::nptrace::analysis::false_positive_ratio;
use laps_repro::nptrace::TracePreset;

fn main() {
    const K: usize = 16;
    let trace = TracePreset::Caida(1).generate(500_000);
    println!(
        "trace {}: {} packets, {} distinct flows",
        trace.name,
        trace.len(),
        trace.analyze().active_flows()
    );

    let mut afd = Afd::new(AfdConfig::default());
    let mut trap = ElephantTrap::new(K);
    let mut truth = ExactTopK::new();
    // The detectors are keyed by the trace's dense flow index, the exact
    // counters by flow ID.
    for p in &trace.packets {
        afd.access(FlowSlot::new(p.flow));
        trap.access(FlowSlot::new(p.flow));
        truth.access(trace.flow_id_of(p.flow));
    }

    let top = truth.top_k(K);
    println!("\nexact top-{K} flows (ground truth):");
    for (i, f) in top.iter().enumerate() {
        println!("  #{:<2} {}  ({} packets)", i + 1, f, truth.count_of(*f));
    }

    for (name, slots) in [
        ("two-level AFD", afd.aggressive_flows()),
        ("single-cache trap", trap.aggressive_flows()),
    ] {
        let candidates: Vec<_> = slots
            .into_iter()
            .map(|s| trace.flow_id_of(s.raw()))
            .collect();
        let fpr = false_positive_ratio(&candidates, &top);
        let recall = top.iter().filter(|f| candidates.contains(f)).count();
        println!(
            "\n{name}: reported {} flows, {recall}/{K} true heavy hitters found, FPR {:.1}%",
            candidates.len(),
            100.0 * fpr
        );
    }

    let s = afd.stats();
    println!(
        "\nAFD internals: {} sampled, {} AFC hits, {} annex hits, {} misses, {} promotions",
        s.sampled, s.afc_hits, s.annex_hits, s.misses, s.promotions
    );
    println!(
        "state held: {} + {} cache entries (vs {} exact counters the oracle needed)",
        afd.config().afc_entries,
        afd.config().annex_entries,
        truth.distinct_flows()
    );
}
