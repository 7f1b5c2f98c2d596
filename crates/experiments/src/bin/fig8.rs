//! Figure 8 — effectiveness of the Aggressive Flow Detector.
//!
//! * (a) false-positive ratio in a 16-entry AFC as the annex-cache size
//!   varies (64 … 2048 entries),
//! * (b) accuracy when the AFC is inspected at fixed packet intervals
//!   (annex fixed at 512),
//! * (c) false-positive ratio under packet sampling (p = 1 … 1/10k).
//!
//! Ground truth is exact offline per-flow counting, exactly as in the
//! paper ("top 16 flows identified by off-line analysis").
//!
//! Each panel is its own [`Sweep`] (the traces are generated once and
//! shared); a cell's cache key is (trace preset, panel parameter,
//! packet count), so `--resume` reuses panels across runs and `--shard`
//! splits the 60 cells for CI.

use laps_experiments::{
    farm, flow_ids, print_table, results_dir, write_csv, Farm, Fidelity, KeyFields, Sweep,
};
use npafd::ExactTopK;
use npafd::{Afd, AfdConfig};
use nphash::FlowSlot;
use nptrace::analysis::false_positive_ratio;
use nptrace::{Trace, TracePreset};

const K: usize = 16;

fn final_fpr(trace: &Trace, cfg: AfdConfig) -> f64 {
    let mut afd = Afd::new(cfg);
    let mut truth = ExactTopK::new();
    for p in &trace.packets {
        afd.access(FlowSlot::new(p.flow));
        truth.access(trace.flow_id_of(p.flow));
    }
    false_positive_ratio(&flow_ids(trace, afd.aggressive_flows()), &truth.top_k(K))
}

/// Mean accuracy (1 − FPR against the cumulative ground truth) sampled
/// every `interval` packets.
fn interval_accuracy(trace: &Trace, cfg: AfdConfig, interval: usize) -> f64 {
    let mut afd = Afd::new(cfg);
    let mut truth = ExactTopK::new();
    let mut accs = Vec::new();
    for (i, p) in trace.packets.iter().enumerate() {
        afd.access(FlowSlot::new(p.flow));
        truth.access(trace.flow_id_of(p.flow));
        if (i + 1) % interval == 0 {
            let fpr =
                false_positive_ratio(&flow_ids(trace, afd.aggressive_flows()), &truth.top_k(K));
            accs.push(1.0 - fpr);
        }
    }
    if accs.is_empty() {
        let fpr = false_positive_ratio(&flow_ids(trace, afd.aggressive_flows()), &truth.top_k(K));
        accs.push(1.0 - fpr);
    }
    accs.iter().sum::<f64>() / accs.len() as f64
}

/// One detector-metric panel: trace × panel parameter, result `f64`.
struct Panel<'a> {
    name: &'static str,
    /// Parameter name in the cell key ("annex" / "interval" / "prob").
    param: &'static str,
    presets: &'a [TracePreset],
    traces: &'a [Trace],
    params: &'a [f64],
    n_packets: usize,
    eval: fn(&Trace, f64) -> f64,
}

impl Sweep for Panel<'_> {
    type Cell = (usize, usize); // (trace index, parameter index)
    type Out = f64;

    fn name(&self) -> &'static str {
        self.name
    }

    fn cells(&self) -> Vec<Self::Cell> {
        (0..self.traces.len())
            .flat_map(|t| (0..self.params.len()).map(move |p| (t, p)))
            .collect()
    }

    fn cell_fields(&self, &(t, p): &Self::Cell) -> KeyFields {
        KeyFields::new()
            .push("trace", self.presets[t].name())
            .push(self.param, self.params[p])
            .push("packets", self.n_packets)
    }

    fn run_cell(&self, &(t, p): &Self::Cell) -> f64 {
        (self.eval)(&self.traces[t], self.params[p])
    }
}

/// Render one panel as a trace-per-row table + long-form CSV.
#[allow(clippy::too_many_arguments)]
fn emit_panel(
    title: &str,
    csv_name: &str,
    csv_header: &[&str],
    presets: &[TracePreset],
    params: &[f64],
    col_label: &dyn Fn(f64) -> String,
    param_str: &dyn Fn(f64) -> String,
    values: &[f64],
) {
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (ti, preset) in presets.iter().enumerate() {
        let mut row = vec![preset.name()];
        for (pi, &param) in params.iter().enumerate() {
            let v = values[ti * params.len() + pi];
            row.push(format!("{v:.3}"));
            csv.push(vec![preset.name(), param_str(param), format!("{v:.4}")]);
        }
        rows.push(row);
    }
    let mut header = vec!["trace".to_string()];
    header.extend(params.iter().map(|&p| col_label(p)));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_table(title, &header_refs, &rows);
    write_csv(results_dir().join(csv_name), csv_header, &csv);
}

fn main() {
    let fidelity = Fidelity::from_args();
    let n_packets = fidelity.trace_packets();
    let presets = [
        TracePreset::Caida(1),
        TracePreset::Caida(2),
        TracePreset::Auckland(1),
        TracePreset::Auckland(2),
    ];
    let traces: Vec<Trace> = presets.iter().map(|p| p.generate(n_packets)).collect();
    let farm: Farm = farm();

    // ---- (a) annex size sweep ------------------------------------------
    let annex_sizes = [64.0f64, 128.0, 256.0, 512.0, 1024.0, 2048.0];
    let panel_a = Panel {
        name: "fig8a",
        param: "annex",
        presets: &presets,
        traces: &traces,
        params: &annex_sizes,
        n_packets,
        eval: |trace, annex| {
            final_fpr(
                trace,
                AfdConfig {
                    annex_entries: annex as usize,
                    ..AfdConfig::default()
                },
            )
        },
    };
    if let Some(fprs) = farm.sweep(&panel_a).into_complete() {
        emit_panel(
            "Fig. 8(a): AFC false-positive ratio vs annex size",
            "fig8a_annex_sweep.csv",
            &["trace", "annex", "fpr"],
            &presets,
            &annex_sizes,
            &|a| format!("annex={a}"),
            &|a| format!("{}", a as usize),
            &fprs,
        );
    }

    // ---- (b) measurement-interval sweep --------------------------------
    let intervals = [1_000.0f64, 10_000.0, 50_000.0, 100_000.0];
    let panel_b = Panel {
        name: "fig8b",
        param: "interval",
        presets: &presets,
        traces: &traces,
        params: &intervals,
        n_packets,
        eval: |trace, interval| interval_accuracy(trace, AfdConfig::default(), interval as usize),
    };
    if let Some(accs) = farm.sweep(&panel_b).into_complete() {
        emit_panel(
            "Fig. 8(b): mean AFC accuracy at fixed inspection intervals (annex=512)",
            "fig8b_window_accuracy.csv",
            &["trace", "interval", "accuracy"],
            &presets,
            &intervals,
            &|w| format!("every {}", w as usize),
            &|w| format!("{}", w as usize),
            &accs,
        );
    }

    // ---- (c) sampling sweep ---------------------------------------------
    let probs = [1.0f64, 0.1, 0.01, 0.001, 0.0001];
    let panel_c = Panel {
        name: "fig8c",
        param: "prob",
        presets: &presets,
        traces: &traces,
        params: &probs,
        n_packets,
        eval: |trace, p| {
            final_fpr(
                trace,
                AfdConfig {
                    sample_prob: p,
                    ..AfdConfig::default()
                },
            )
        },
    };
    if let Some(fprs) = farm.sweep(&panel_c).into_complete() {
        emit_panel(
            "Fig. 8(c): FPR vs sampling probability (annex=512)",
            "fig8c_sampling.csv",
            &["trace", "sample_prob", "fpr"],
            &presets,
            &probs,
            &|p| format!("p={p}"),
            &|p| format!("{p}"),
            &fprs,
        );
    }
}
