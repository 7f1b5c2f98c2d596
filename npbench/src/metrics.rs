//! The metric tables: every name the benchmark prints, with its unit,
//! its direction and — for end-to-end metrics — the share of the
//! baseline median by which it may worsen before it counts as a
//! regression. `/BENCHMARK.json` repeats these tables; a unit test
//! keeps the two in step.
//!
//! Two clocks appear and every name says which it uses: `host_*`,
//! `setup_s`, `peak_rss_mb` and every `*_ns` are **host** time/memory
//! (what the simulator or the runtime costs to run); `sim_*` and the
//! `npsim.*_per_mpkt` / `npsim.latency_*` counts are **simulated**
//! quantities (what the modelled network processor would do).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word BENCHMARK.json uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the baseline median (end-to-end
    /// metrics only; per-layer metrics carry no bound).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: printed by every workload with `--trace 0`.
///
/// Bounds are at least three times the widest spread any workload showed
/// over ten seeds on the 2-core reference VM (README, "Measured
/// spread"), capped at the 0.25 the benchmark contract allows. The
/// simulated bounds are set by `fault-t2-laps`, whose results depend
/// most on where the Holt-Winters rate noise falls relative to the
/// crashes. The fractions are stated as their complements (delivered,
/// in-order, unmigrated, warm) because every end-to-end metric must be
/// non-zero on every workload and `exec-forward` reorders and drops
/// nothing by construction; the raw per-million counts are per-layer
/// metrics.
pub const END_TO_END: &[MetricDef] = &[
    e2e("host_cal_per_packet", "cal", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("sim_throughput_mpps", "Mpps", Higher, 0.25),
    e2e("sim_delivered_fraction", "ratio", Higher, 0.20),
    e2e("sim_inorder_fraction", "ratio", Higher, 0.03),
    e2e("sim_unmigrated_fraction", "ratio", Higher, 0.10),
    e2e("sim_warm_fraction", "ratio", Higher, 0.05),
];

/// Per-layer metrics: printed by every workload with `--trace 1`. A
/// layer the workload's packet path never enters reports 0 (the layer
/// did no work there) — that is the "bypass" prediction made visible.
pub const PER_LAYER: &[MetricDef] = &[
    // --- the input, looked at rather than guessed -----------------------
    layer("traffic.packets", "count", Higher),
    layer("traffic.events", "count", Higher),
    layer("traffic.flows", "count", Higher),
    layer("traffic.top16_share", "ratio", Higher),
    layer("traffic.mean_packet_bytes", "B", Higher),
    layer("traffic.offered_mpps", "Mpps", Higher),
    // --- nptrace / nptraffic ---------------------------------------------
    layer("nptrace.next_packet_ns", "ns", Lower),
    layer("nptraffic.rate_refresh_ns", "ns", Lower),
    layer("nptraffic.delay_model_ns", "ns", Lower),
    // --- nphash -------------------------------------------------------------
    layer("nphash.crc16_ns", "ns", Lower),
    layer("nphash.crc16_batch_ns", "ns", Lower),
    layer("nphash.maptable_lookup_ns", "ns", Lower),
    layer("nphash.maptable_lookup_batch_ns", "ns", Lower),
    layer("nphash.intern_ns", "ns", Lower),
    layer("nphash.flows_interned", "count", Lower),
    // --- npafd --------------------------------------------------------------
    layer("npafd.access_ns", "ns", Lower),
    layer("npafd.afc_hit_frac", "ratio", Higher),
    layer("npafd.annex_hit_frac", "ratio", Higher),
    layer("npafd.miss_frac", "ratio", Lower),
    layer("npafd.promotions_per_mpkt", "1/Mpkt", Lower),
    // --- laps ---------------------------------------------------------------
    layer("laps.schedule_ns", "ns", Lower),
    layer("laps.schedule_overloaded_ns", "ns", Lower),
    layer("laps.migration_table_get_ns", "ns", Lower),
    layer("laps.migrations_per_mpkt", "1/Mpkt", Lower),
    layer("laps.core_reallocs_per_mpkt", "1/Mpkt", Lower),
    layer("laps.spsc_push_pop_ns", "ns", Lower),
    layer("laps.spsc_xthread_ns", "ns", Lower),
    layer("laps.handshake_roundtrip_ns", "ns", Lower),
    // --- detsim -------------------------------------------------------------
    layer("detsim.eventq_push_pop_ns", "ns", Lower),
    layer("detsim.histogram_record_ns", "ns", Lower),
    // --- npsim --------------------------------------------------------------
    layer("npsim.source_gap_ns", "ns", Lower),
    layer("npsim.source_header_ns", "ns", Lower),
    layer("npsim.plan_build_ns", "ns", Lower),
    layer("npsim.order_tracker_ns", "ns", Lower),
    layer("npsim.events_per_packet", "ratio", Lower),
    layer("npsim.stage_ingest_ns", "ns", Lower),
    layer("npsim.stage_dispatch_ns", "ns", Lower),
    layer("npsim.stage_service_ns", "ns", Lower),
    layer("npsim.stage_record_ns", "ns", Lower),
    layer("npsim.stage_merge_ns", "ns", Lower),
    layer("npsim.stage_residual_ns", "ns", Lower),
    layer("npsim.trace_overhead_frac", "ratio", Lower),
    layer("npsim.drops_per_mpkt", "1/Mpkt", Lower),
    layer("npsim.ooo_per_mpkt", "1/Mpkt", Lower),
    layer("npsim.cold_per_mpkt", "1/Mpkt", Lower),
    layer("npsim.migrated_per_mpkt", "1/Mpkt", Lower),
    layer("npsim.latency_mean_us", "us", Lower),
    layer("npsim.latency_p50_us", "us", Lower),
    layer("npsim.latency_p99_us", "us", Lower),
    // --- npexec -------------------------------------------------------------
    layer("npexec.thread_scope_mpps", "Mpps", Higher),
    layer("npexec.thread_scope_mpps_p10", "Mpps", Higher),
    layer("npexec.dispatch_ns", "ns", Lower),
    layer("npexec.report_assembly_ns", "ns", Lower),
    layer("npexec.plan_share", "ratio", Lower),
    layer("npexec.handshakes_per_mpkt", "1/Mpkt", Higher),
    layer("npexec.handshake_abort_frac", "ratio", Lower),
    layer("npexec.max_hold_depth", "count", Lower),
    // --- the benchmark's own reconciliation --------------------------------
    layer("bench.host_ns_per_packet", "ns", Lower),
    layer("bench.host_ns_per_event", "ns", Lower),
    layer("bench.calib_ns_per_step", "ns", Lower),
    layer("bench.layer_sum_ns", "ns", Lower),
    layer("bench.layer_residual_frac", "ratio", Lower),
];

/// Look a metric up by name in either table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn tables_obey_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "bad name {}", m.name);
            assert!(unit_ok(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `/BENCHMARK.json` must declare exactly these tables and workloads.
    #[test]
    fn benchmark_json_repeats_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = serde_json::parse_value(&text).expect("valid JSON");
        let rows = |key: &str| -> Vec<serde::Value> {
            match doc.get(key) {
                Some(serde::Value::Array(a)) => a.clone(),
                other => panic!("{key}: expected an array, got {other:?}"),
            }
        };
        let text_of = |v: &serde::Value, key: &str| -> String {
            match v.get(key) {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("{key}: expected a string, got {other:?}"),
            }
        };
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = rows(key);
            assert_eq!(declared.len(), table.len(), "{key} length");
            for (row, m) in declared.iter().zip(table) {
                assert_eq!(text_of(row, "name"), m.name);
                assert_eq!(text_of(row, "unit"), m.unit, "{}", m.name);
                assert_eq!(text_of(row, "better"), m.better.word(), "{}", m.name);
                match (row.get("bound"), m.bound) {
                    (Some(serde::Value::F64(b)), Some(want)) => {
                        assert!((b - want).abs() < 1e-12, "{} bound", m.name);
                    }
                    (None, None) => {}
                    other => panic!("{} bound mismatch: {other:?}", m.name),
                }
            }
        }
        let workloads = rows("workloads");
        assert_eq!(workloads.len(), crate::workload::ALL.len());
        for (row, w) in workloads.iter().zip(crate::workload::ALL) {
            assert_eq!(text_of(row, "name"), w.name());
            assert_eq!(text_of(row, "why"), w.why());
        }
    }
}
