//! §III-G — timing analysis of the LAPS critical path.
//!
//! The paper argues the scheduler's critical path (hash → map-table →
//! mux) sustains > 200 M decisions/s in hardware. We measure the software
//! equivalent: per-packet decision latency for each policy, converted to
//! the sustainable packet rate, as a wall-clock estimate with the
//! paper-style conclusion line. (`npbench --trace 1` times the same steps
//! per layer: `nphash.crc16_ns`, `nphash.maptable_lookup_ns`,
//! `laps.schedule_ns`.)
//!
//! This is a *measurement* sweep: it reports `cacheable() == false`
//! (wall-clock numbers are a property of the host, not the cell key) and
//! `serial() == true` (parallel cells would contend for the CPU being
//! timed), so npfarm always re-runs every cell, one at a time.
#![allow(clippy::disallowed_methods, reason = "this binary measures wall time")]

use detsim::SimTime;
use laps::prelude::*;
use laps_experiments::{farm, print_table, results_dir, write_csv, KeyFields, Sweep};
use nphash::{Crc16Ccitt, FlowId, FlowSlot, MapTable};
use npsim::{PacketDesc, QueueInfo, Scheduler, SystemView};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One policy's measured decision rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct PolicyRate {
    policy: String,
    mdecisions_per_sec: f64,
}

fn mk_packets(n: usize) -> Vec<PacketDesc> {
    (0..n)
        .map(|i| PacketDesc {
            id: i as u64,
            flow: FlowId::from_index((i % 10_000) as u64),
            slot: FlowSlot::new((i % 10_000) as u32),
            service: ServiceKind::ALL[i % 4],
            size: 64,
            arrival: SimTime::ZERO,
            flow_seq: 0,
            migrated: false,
            sync_debt_ns: 0,
        })
        .collect()
}

fn mk_view(n_cores: usize) -> Vec<QueueInfo> {
    (0..n_cores)
        .map(|_| QueueInfo {
            len: 1,
            capacity: 32,
            busy: true,
            idle_since: None,
            last_congested: SimTime::ZERO,
            up: true,
        })
        .collect()
}

fn measure<S: Scheduler>(mut sched: S, packets: &[PacketDesc], queues: &[QueueInfo]) -> PolicyRate {
    let view = SystemView {
        now: SimTime::ZERO,
        queues,
    };
    // Warm up, then measure.
    let mut sink = 0usize;
    for p in packets.iter().take(10_000) {
        sink = sink.wrapping_add(sched.schedule(p, &view));
    }
    let start = Instant::now();
    for p in packets {
        sink = sink.wrapping_add(sched.schedule(p, &view));
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    PolicyRate {
        policy: sched.name().to_string(),
        mdecisions_per_sec: packets.len() as f64 / elapsed / 1e6,
    }
}

struct Timing {
    packets: Vec<PacketDesc>,
    queues: Vec<QueueInfo>,
}

const POLICIES: [&str; 6] = [
    "critical-path",
    "critical-path-batch",
    "static",
    "afs",
    "topk-afd",
    "laps",
];

impl Sweep for Timing {
    type Cell = &'static str;
    type Out = PolicyRate;

    fn name(&self) -> &'static str {
        "timing"
    }

    fn cells(&self) -> Vec<&'static str> {
        POLICIES.to_vec()
    }

    fn cell_fields(&self, policy: &&'static str) -> KeyFields {
        KeyFields::new()
            .push("policy", policy)
            .push("packets", self.packets.len())
    }

    fn run_cell(&self, policy: &&'static str) -> PolicyRate {
        match *policy {
            "critical-path" => {
                // The raw critical path: CRC16 + map-table index.
                let crc = Crc16Ccitt::new();
                let table: MapTable<usize> = MapTable::new((0..16).collect());
                let start = Instant::now();
                let mut sink = 0usize;
                for p in &self.packets {
                    sink =
                        sink.wrapping_add(table.lookup_hash(crc.hash(&p.flow.to_bytes()) as u64));
                }
                std::hint::black_box(sink);
                PolicyRate {
                    policy: "hash+maptable (critical path)".to_string(),
                    mdecisions_per_sec: self.packets.len() as f64
                        / start.elapsed().as_secs_f64()
                        / 1e6,
                }
            }
            "critical-path-batch" => {
                // The same critical path taken a burst at a time: the
                // four-lane lockstep CRC16 hides the hash table's
                // load-to-use latency across packets of a burst.
                let table: MapTable<usize> = MapTable::new((0..16).collect());
                let flows: Vec<_> = self.packets.iter().map(|p| p.flow).collect();
                let mut cores = vec![0usize; flows.len()];
                let start = Instant::now();
                for (chunk, outs) in flows.chunks(32).zip(cores.chunks_mut(32)) {
                    table.lookup_batch(chunk, outs);
                }
                std::hint::black_box(&cores);
                PolicyRate {
                    policy: "hash+maptable, burst-of-32 (batch CRC16)".to_string(),
                    mdecisions_per_sec: self.packets.len() as f64
                        / start.elapsed().as_secs_f64()
                        / 1e6,
                }
            }
            "static" => measure(StaticHash::new(16), &self.packets, &self.queues),
            "afs" => measure(Afs::new(16, 24, SimTime::ZERO), &self.packets, &self.queues),
            "topk-afd" => measure(
                TopKMigration::new(16, 24, DetectorKind::Afd(AfdConfig::default())),
                &self.packets,
                &self.queues,
            ),
            _ => measure(
                Laps::new(laps_config_for(&EngineConfig::default())),
                &self.packets,
                &self.queues,
            ),
        }
    }

    fn cacheable(&self) -> bool {
        false // wall-clock measurement: host-dependent, never cache
    }

    fn serial(&self) -> bool {
        true // cells contend for the CPU they are timing
    }

    fn throughput(&self, out: &PolicyRate) -> Option<f64> {
        Some(out.mdecisions_per_sec * 1e6)
    }
}

fn main() {
    let spec = Timing {
        packets: mk_packets(2_000_000),
        queues: mk_view(16),
    };
    let Some(results) = farm().sweep(&spec).into_complete() else {
        return;
    };

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                format!("{:.1}", r.mdecisions_per_sec),
                format!("{:.1} ns", 1_000.0 / r.mdecisions_per_sec),
            ]
        })
        .collect();
    print_table(
        "§III-G: scheduler decision throughput (single software thread)",
        &["policy", "Mdecisions/s", "latency"],
        &rows,
    );
    write_csv(
        results_dir().join("timing_critical_path.csv"),
        &["policy", "mdecisions_per_s", "latency_ns"],
        &results
            .iter()
            .map(|r| {
                let m = r.mdecisions_per_sec;
                vec![
                    r.policy.clone(),
                    format!("{m:.2}"),
                    format!("{:.2}", 1_000.0 / m),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let raw_mpps = results[0].mdecisions_per_sec;
    println!(
        "\nPaper: FPGA CRC16 > 200 MHz ⇒ ≥ 200 Mpps sustained; our software\n\
         critical path at {raw_mpps:.0} M/s on one core supports the same conclusion\n\
         (a hardware pipeline is strictly faster than this serial software loop)."
    );
}
