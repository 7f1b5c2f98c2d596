//! Writing your own scheduling policy.
//!
//! Anything implementing `npsim::Scheduler` runs on the same engine and
//! is measured by the same report as the paper's policies. Here we build
//! a "service-partitioned static hash" — LAPS's I-cache partitioning
//! without migration or dynamic allocation — run it next to the built-in
//! LAPS, and see how much each LAPS mechanism buys on an overloaded
//! scenario.
//!
//! ```sh
//! cargo run --release --example custom_scheduler
//! ```

use laps_repro::prelude::*;
use nphash::MapTable;
use npsim::{PacketDesc, SystemView};

/// Four fixed partitions of four cores, one per service; flows pinned by
/// CRC16 within their partition. No load balancing of any kind.
struct PartitionedHash {
    tables: Vec<MapTable<usize>>,
}

impl PartitionedHash {
    fn new(n_cores: usize) -> Self {
        let n_services = ServiceKind::ALL.len();
        let tables = (0..n_services)
            .map(|svc| {
                let cores: Vec<usize> = (0..n_cores).filter(|c| c % n_services == svc).collect();
                MapTable::new(cores)
            })
            .collect();
        PartitionedHash { tables }
    }
}

impl Scheduler for PartitionedHash {
    fn name(&self) -> &str {
        "partitioned-hash"
    }

    fn schedule(&mut self, pkt: &PacketDesc, _view: &SystemView<'_>) -> usize {
        self.tables[pkt.service.index()].lookup(pkt.flow)
    }
}

fn main() {
    let scenario = Scenario::by_id(5).expect("T5: overload");
    let cfg = EngineConfig {
        n_cores: 16,
        duration: SimTime::from_millis(400),
        scale: 100.0,
        period_compression: 50.0,
        rate_update_interval: SimTime::from_millis(10),
        seed: 5,
        ..EngineConfig::default()
    };

    // A custom policy needs no name: `run_with` runs any `Scheduler`
    // (statically dispatched); names only select the built-ins.
    let builder = || SimBuilder::new().config(cfg.clone()).scenario(scenario);
    let custom = builder().run_with(PartitionedHash::new(cfg.n_cores));
    let laps = builder().run_named("laps").expect("builtin");

    println!(
        "Scenario {} (overload) — partitioning alone vs full LAPS\n",
        scenario.name()
    );
    println!(
        "{:<18} {:>9} {:>9} {:>11} {:>9}",
        "scheduler", "dropped", "ooo", "cold-cache", "reallocs"
    );
    for r in [&custom, &laps] {
        println!(
            "{:<18} {:>8.2}% {:>8.3}% {:>10.2}% {:>9}",
            r.scheduler,
            100.0 * r.drop_fraction(),
            100.0 * r.ooo_fraction(),
            100.0 * r.cold_fraction(),
            r.core_reallocations,
        );
    }
    println!(
        "\nBoth keep the I-cache warm (cold-cache ≈ 0), but without dynamic\n\
         core allocation and aggressive-flow migration the static partition\n\
         cannot shift capacity to the overloaded services — that gap\n\
         ({:.1}% vs {:.1}% drops) is what §III-A and §III-C of the paper add.",
        100.0 * custom.drop_fraction(),
        100.0 * laps.drop_fraction()
    );
}
