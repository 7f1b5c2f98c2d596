//! The trace substrate as a standalone toolbox: generate a synthetic
//! backbone trace and analyze it (heavy-tail share, the Fig. 2
//! rank-size curve).
//!
//! ```sh
//! cargo run --release -p laps-repro --example trace_toolbox
//! ```

use laps_repro::nptrace::TracePreset;

fn main() {
    let trace = TracePreset::Caida(1).generate(100_000);
    let stats = trace.analyze();

    println!(
        "trace {}: {} packets over {} distinct flows",
        trace.name,
        trace.len(),
        stats.active_flows()
    );
    println!("mean packet size: {:.0} B", trace.mean_packet_size());
    println!(
        "top 1% of flows carry {:.1}% of packets",
        100.0 * stats.top_fraction(0.01)
    );

    // Rank-size at log-spaced ranks (the Fig. 2 curve).
    let rs = stats.rank_size();
    print!("rank-size:");
    let mut r = 1usize;
    while r <= rs.len() {
        print!(" #{}={}", r, rs[r - 1]);
        r *= 4;
    }
    println!();
}
