//! Ablations over the design choices DESIGN.md calls out:
//!
//! * AFD promotion threshold (how much annex locality a flow must show),
//! * LFU vs LRU replacement in the AFD's two levels,
//! * two-level AFD vs single-cache ElephantTrap vs exact oracle,
//! * migration-table capacity,
//! * incremental hashing vs naive full rehash on core allocation
//!   (measured as the fraction of the flow space remapped per grow).
//!
//! The detector panels are npfarm sweeps (cells keyed by trace, packet
//! count, and the ablated knob); the incremental-hash panel is a cheap
//! serial loop over a shared `MapTable` and stays inline.

use laps_experiments::{
    farm, flow_ids, print_table, results_dir, write_csv, Farm, Fidelity, KeyFields, Sweep,
};
use npafd::{Afd, AfdConfig, CachePolicy, ElephantTrap, ExactTopK};
use nphash::{FlowId, FlowSlot, IncrementalHash, MapTable};
use nptrace::analysis::false_positive_ratio;
use nptrace::{Trace, TracePreset};

const K: usize = 16;
const TRACE_NAMES: [&str; 2] = ["caida1", "auck1"];

fn fpr_of(trace: &Trace, cfg: AfdConfig) -> f64 {
    let mut afd = Afd::new(cfg);
    let mut truth = ExactTopK::new();
    for p in &trace.packets {
        afd.access(FlowSlot::new(p.flow));
        truth.access(trace.flow_id_of(p.flow));
    }
    false_positive_ratio(&flow_ids(trace, afd.aggressive_flows()), &truth.top_k(K))
}

/// Panel 1: final FPR vs AFD promotion threshold.
struct ThresholdPanel<'a> {
    traces: [&'a Trace; 2],
    thresholds: &'a [u64],
    n_packets: usize,
}

impl Sweep for ThresholdPanel<'_> {
    type Cell = (usize, u64); // (trace index, threshold)
    type Out = f64;

    fn name(&self) -> &'static str {
        "ablation-threshold"
    }

    fn cells(&self) -> Vec<Self::Cell> {
        (0..2)
            .flat_map(|t| self.thresholds.iter().map(move |&h| (t, h)))
            .collect()
    }

    fn cell_fields(&self, &(t, h): &Self::Cell) -> KeyFields {
        KeyFields::new()
            .push("trace", TRACE_NAMES[t])
            .push("threshold", h)
            .push("packets", self.n_packets)
    }

    fn run_cell(&self, &(t, h): &Self::Cell) -> f64 {
        fpr_of(
            self.traces[t],
            AfdConfig {
                promote_threshold: h,
                ..AfdConfig::default()
            },
        )
    }
}

/// Panel 2: final FPR per detector structure (LFU/LRU AFD, single cache).
struct DetectorPanel<'a> {
    traces: [&'a Trace; 2],
    n_packets: usize,
}

const DETECTORS: [&str; 3] = ["afd-lfu", "afd-lru", "single-cache"];

impl Sweep for DetectorPanel<'_> {
    type Cell = (usize, &'static str); // (trace index, detector)
    type Out = f64;

    fn name(&self) -> &'static str {
        "ablation-detector"
    }

    fn cells(&self) -> Vec<Self::Cell> {
        (0..2)
            .flat_map(|t| DETECTORS.iter().map(move |&d| (t, d)))
            .collect()
    }

    fn cell_fields(&self, &(t, d): &Self::Cell) -> KeyFields {
        KeyFields::new()
            .push("trace", TRACE_NAMES[t])
            .push("detector", d)
            .push("packets", self.n_packets)
    }

    fn run_cell(&self, &(t, d): &Self::Cell) -> f64 {
        let trace = self.traces[t];
        match d {
            "afd-lfu" => fpr_of(trace, AfdConfig::default()),
            "afd-lru" => fpr_of(
                trace,
                AfdConfig {
                    policy: CachePolicy::Lru,
                    ..AfdConfig::default()
                },
            ),
            _ => {
                // Single-cache comparator.
                let mut trap = ElephantTrap::new(K);
                let mut truth = ExactTopK::new();
                for p in &trace.packets {
                    trap.access(FlowSlot::new(p.flow));
                    truth.access(trace.flow_id_of(p.flow));
                }
                false_positive_ratio(&flow_ids(trace, trap.aggressive_flows()), &truth.top_k(K))
            }
        }
    }
}

fn main() {
    let fidelity = Fidelity::from_args();
    let n_packets = fidelity.trace_packets();
    let caida = TracePreset::Caida(1).generate(n_packets);
    let auck = TracePreset::Auckland(1).generate(n_packets);
    let farm: Farm = farm();

    // ---- promotion threshold -------------------------------------------
    let thresholds = [1u64, 2, 3, 5, 8, 16];
    let panel = ThresholdPanel {
        traces: [&caida, &auck],
        thresholds: &thresholds,
        n_packets,
    };
    if let Some(fprs) = farm.sweep(&panel).into_complete() {
        let mut rows = Vec::new();
        for (ti, name) in TRACE_NAMES.iter().enumerate() {
            let mut row = vec![name.to_string()];
            for (hi, _) in thresholds.iter().enumerate() {
                row.push(format!("{:.3}", fprs[ti * thresholds.len() + hi]));
            }
            rows.push(row);
        }
        let mut header = vec!["trace".to_string()];
        header.extend(thresholds.iter().map(|h| format!("thresh={h}")));
        let hr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        print_table("Ablation: AFD promotion threshold (final FPR)", &hr, &rows);
        write_csv(
            results_dir().join("ablation_threshold.csv"),
            &["trace", "threshold", "fpr"],
            &panel
                .cells()
                .iter()
                .zip(fprs.iter())
                .map(|(&(t, h), f)| {
                    vec![TRACE_NAMES[t].to_string(), h.to_string(), format!("{f:.4}")]
                })
                .collect::<Vec<_>>(),
        );
    }

    // ---- replacement policy & detector structure ------------------------
    let panel2 = DetectorPanel {
        traces: [&caida, &auck],
        n_packets,
    };
    if let Some(fprs) = farm.sweep(&panel2).into_complete() {
        let mut rows2 = Vec::new();
        for (ti, name) in TRACE_NAMES.iter().enumerate() {
            let at = |di: usize| fprs[ti * DETECTORS.len() + di];
            rows2.push(vec![
                name.to_string(),
                format!("{:.3}", at(0)),
                format!("{:.3}", at(1)),
                format!("{:.3}", at(2)),
                "0.000".to_string(), // exact counters are FP-free by construction
            ]);
        }
        print_table(
            "Ablation: detector structure (final FPR, AFC/trap = 16 entries)",
            &[
                "trace",
                "afd-lfu",
                "afd-lru",
                "single-cache",
                "exact-oracle",
            ],
            &rows2,
        );
        write_csv(
            results_dir().join("ablation_detector.csv"),
            &["trace", "afd_lfu", "afd_lru", "single_cache", "oracle"],
            &rows2,
        );
    }

    // ---- incremental hashing vs full rehash ------------------------------
    let flows: Vec<FlowId> = (0..100_000u64).map(FlowId::from_index).collect();
    let mut rows3 = Vec::new();
    let mut table: MapTable<usize> = MapTable::new((0..4).collect());
    let mut inc = IncrementalHash::new(4);
    for step in 0..12usize {
        let n_before = table.len();
        let before: Vec<usize> = flows.iter().map(|&f| table.lookup(f)).collect();
        table.add_core(n_before);
        inc.grow();
        let moved_inc = flows
            .iter()
            .zip(before.iter())
            .filter(|(&f, &old)| table.lookup(f) != old)
            .count();
        // Naive rehash: flow → crc % b. Everything whose modulus changes
        // moves; measure directly.
        let crc = nphash::Crc16Ccitt::new();
        let moved_naive = flows
            .iter()
            .filter(|f| {
                let h = crc.hash(&f.to_bytes()) as usize;
                h % n_before != h % (n_before + 1)
            })
            .count();
        rows3.push(vec![
            format!("{} -> {}", n_before, n_before + 1),
            format!("{:.1}%", 100.0 * moved_inc as f64 / flows.len() as f64),
            format!("{:.1}%", 100.0 * moved_naive as f64 / flows.len() as f64),
        ]);
        let _ = step;
    }
    print_table(
        "Ablation: flows remapped per added core — incremental vs naive mod-rehash",
        &["cores", "incremental", "naive"],
        &rows3,
    );
    write_csv(
        results_dir().join("ablation_incremental_hash.csv"),
        &["cores", "incremental_moved", "naive_moved"],
        &rows3,
    );
}
