//! Shared harness for the figure-regeneration binaries.
//!
//! Every binary follows the same protocol:
//!
//! * print the paper-style rows to stdout,
//! * write a CSV next to them under `results/`,
//! * accept `--full` for a longer, lower-scale run (closer to the paper's
//!   60 s) and `--quick` (default) for a laptop-friendly run,
//! * declare its parameter sweep as an [`npfarm::Sweep`] and run it
//!   through [`farm`] — a fixed set of worker threads taking cells
//!   off one shared atomic cursor — with content-addressed result caching (`--resume`), CI sharding
//!   (`--shard k/n`), and per-cell JSONL under `results/npfarm/`.
//!   Each cell is an independent deterministic simulation, so
//!   parallelism and caching never change results, only wall-clock.

use detsim::SimTime;
use laps::prelude::*;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub use laps;
pub use npafd;
pub use npfarm;
pub use npsim;
pub use nptrace;
pub use nptraffic;

pub use npfarm::{Farm, KeyFields, Sweep, SweepOutcome};

/// Run length / fidelity of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Fast: heavily scaled, short horizon — CI-sized.
    Quick,
    /// Full: longer horizon at lower scale — closer to the paper.
    Full,
}

impl Fidelity {
    /// Parse from argv: `--full` selects [`Fidelity::Full`].
    pub fn from_args() -> Fidelity {
        if std::env::args().any(|a| a == "--full") {
            Fidelity::Full
        } else {
            Fidelity::Quick
        }
    }

    /// The engine configuration for multi-service (Fig. 7) runs.
    pub fn engine_config(self, seed: u64) -> EngineConfig {
        match self {
            Fidelity::Quick => EngineConfig {
                n_cores: 16,
                duration: SimTime::from_millis(400),
                scale: 100.0,
                period_compression: 50.0,
                rate_update_interval: SimTime::from_millis(10),
                seed,
                ..EngineConfig::default()
            },
            Fidelity::Full => EngineConfig {
                n_cores: 16,
                duration: SimTime::from_secs(3),
                scale: 25.0,
                period_compression: 20.0,
                rate_update_interval: SimTime::from_millis(20),
                seed,
                ..EngineConfig::default()
            },
        }
    }

    /// Packets per trace for detector experiments (Fig. 2 / 8).
    pub fn trace_packets(self) -> usize {
        match self {
            Fidelity::Quick => 400_000,
            Fidelity::Full => 2_000_000,
        }
    }

    /// Canonical profile name for sweep cell keys.
    pub fn name(self) -> &'static str {
        match self {
            Fidelity::Quick => "quick",
            Fidelity::Full => "full",
        }
    }
}

/// The configured sweep orchestrator for an experiment binary: parses
/// the shared npfarm flags (`--jobs`, `--shard k/n`, `--resume`,
/// `--no-cache`, `--cache-dir`) from argv, caches under
/// `results/npfarm-cache/` (overridable via flag or `NPFARM_CACHE_DIR`),
/// and writes per-cell JSONL to `results/npfarm/`.
pub fn farm() -> Farm {
    let mut farm = Farm::from_args();
    if std::env::var("NPFARM_CACHE_DIR").is_err() && !std::env::args().any(|a| a == "--cache-dir") {
        farm.cache_dir = results_dir().join("npfarm-cache");
    }
    farm.with_jsonl_dir(results_dir().join("npfarm"))
}

/// A detector's answer as flow IDs, to score against `ExactTopK`: the
/// detectors are keyed by `FlowSlot::new(record.flow)`, the trace's
/// dense flow index.
pub fn flow_ids(trace: &nptrace::Trace, slots: Vec<nphash::FlowSlot>) -> Vec<nphash::FlowId> {
    slots
        .into_iter()
        .map(|s| trace.flow_id_of(s.raw()))
        .collect()
}

/// Where result CSVs land (workspace `results/`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("LAPS_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a CSV: header plus rows of stringified cells.
pub fn write_csv<P: AsRef<Path>>(path: P, header: &[&str], rows: &[Vec<String>]) {
    let mut out = String::new();
    let _ = writeln!(out, "{}", header.join(","));
    for row in rows {
        let _ = writeln!(out, "{}", row.join(","));
    }
    std::fs::write(path.as_ref(), out).expect("write csv");
    eprintln!("wrote {}", path.as_ref().display());
}

/// Render an aligned console table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Format a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Format a ratio relative to a baseline (1.00 = equal).
pub fn rel(x: f64, base: f64) -> String {
    if base == 0.0 {
        if x == 0.0 {
            "1.00".into()
        } else {
            "inf".into()
        }
    } else {
        format!("{:.2}", x / base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_handles_zero_base() {
        assert_eq!(rel(0.0, 0.0), "1.00");
        assert_eq!(rel(1.0, 0.0), "inf");
        assert_eq!(rel(1.0, 2.0), "0.50");
    }

    #[test]
    fn fidelity_configs_differ() {
        let q = Fidelity::Quick.engine_config(1);
        let f = Fidelity::Full.engine_config(1);
        assert!(f.duration > q.duration);
        assert!(f.scale < q.scale);
    }
}
