//! Observing a run through the probe bus.
//!
//! Probes attach to the engine's observability bus and see every typed
//! `SimEvent` the pipeline publishes — without touching the report
//! (reports are byte-identical with and without probes, and a run with
//! no probes compiles the bus away entirely). This example attaches the
//! two built-ins to a LAPS run:
//!
//! * [`MetricsProbe`] — deterministic counters and histograms,
//! * [`EventLogProbe`] — the migration / reorder / drop / crash event log,
//!
//! and prints a summary.
//!
//! ```sh
//! cargo run --release --example probes
//! ```

use laps_repro::prelude::*;

fn main() {
    let scenario = Scenario::by_id(5).expect("T5: overload");

    let (report, probes) = SimBuilder::new()
        .cores(16)
        .duration(SimTime::from_millis(400))
        .scale(100.0)
        .seed(42)
        .configure(|cfg| {
            cfg.period_compression = 50.0;
            cfg.rate_update_interval = SimTime::from_millis(10);
        })
        .scenario(scenario)
        .probe(MetricsProbe::new())
        .probe(EventLogProbe::new())
        .run_named_full("laps")
        .expect("laps is a builtin policy");

    // Probes come back in attachment order; downcast through `as_any`.
    let metrics = probes
        .first()
        .and_then(|p| p.as_any().downcast_ref::<MetricsProbe>())
        .expect("metrics probe");
    let log = probes
        .get(1)
        .and_then(|p| p.as_any().downcast_ref::<EventLogProbe>())
        .expect("event log probe");

    println!(
        "Scenario {} under LAPS: {} offered, {} dropped, {} reordered\n",
        scenario.name(),
        report.offered,
        report.dropped,
        report.out_of_order
    );

    println!("Bus counters (exactly the report, derived event-by-event):");
    for (name, value) in metrics.counters() {
        println!("  {name:<14} {value:>10}");
    }

    // The migration/reorder log: when and where flows moved.
    println!(
        "\nEvent log: {} entries (migrations, reorders, drops, crashes, heals)",
        log.entries().len()
    );
    for (t, ev) in log.entries().iter().take(5) {
        println!("  t={:>12}ns  {ev:?}", t.as_nanos());
    }
    if log.entries().len() > 5 {
        println!("  …");
    }
}
