//! `npbench` — the repository's benchmark.
//!
//! ```text
//! npbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload: end-to-end metrics with tracing off
//!     (--trace 0) or per-layer metrics from the traced phase (--trace 1).
//!     Every metric is printed by name with its unit; the last line of
//!     standard output is the result as one JSON object. Exits non-zero
//!     if a correctness check failed.
//! npbench --all [--seed 7] [--seconds 15] [--runs 1] [--out <file>]
//!     every workload, each in a child process of its own (so peak RSS
//!     and allocator state are per workload): `--runs` untraced runs on
//!     consecutive seeds, then one traced run; prints medians and
//!     spreads, writes the document `--compare` reads.
//! npbench --compare <a.json> <b.json>
//!     applies each end-to-end metric's bound in its stated direction;
//!     exits non-zero on a regression.
//! npbench --emit-benchmark-json
//!     prints /BENCHMARK.json from the metric and workload tables.
//! ```
//!
//! See README.md in this directory for what every number means.

mod calib;
mod clock;
mod compare;
mod layers;
mod metrics;
mod span;
mod stats;
mod timed;
mod workload;

use std::process::ExitCode;

use serde::Value;

use metrics::{MetricDef, END_TO_END, PER_LAYER};
use stats::{iqr_share, median, quantile};
use timed::Checks;
use workload::Workload;

/// Seconds one driver run measures (BENCHMARK.json `run_seconds`).
const RUN_SECONDS: u64 = 15;

fn usage() -> ExitCode {
    eprintln!(
        "usage: npbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       npbench --all [--seed n] [--seconds s] [--runs n] [--out file]\n       npbench --compare <a.json> <b.json>\n       npbench --emit-benchmark-json",
        workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);
    let parsed = |flag: &str, default: f64| match value_of(flag) {
        None => Some(default),
        Some(v) => v.parse::<f64>().ok().filter(|x| x.is_finite() && *x >= 0.0),
    };

    if has("--emit-benchmark-json") {
        println!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        return match (args.get(i + 1), args.get(i + 2)) {
            (Some(a), Some(b)) => run_compare(a, b),
            _ => usage(),
        };
    }
    let (Some(seed), Some(seconds), Some(runs)) = (
        parsed("--seed", 7.0),
        parsed("--seconds", RUN_SECONDS as f64),
        parsed("--runs", 1.0),
    ) else {
        return usage();
    };
    let seed = seed as u64;
    if has("--all") {
        return match run_all(seed, seconds, (runs as usize).max(1), value_of("--out")) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("npbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(w) = value_of("--workload").and_then(|n| Workload::parse(n)) else {
        return usage();
    };
    let trace = match value_of("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage(),
    };
    run_one(w, seed, seconds, trace)
}

/// One run of one workload in this process.
fn run_one(w: Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let mut checks = Checks::default();
    let (defs, values): (&[MetricDef], Vec<f64>) = if trace {
        let (layer_values, recorder) = layers::run(w, seed, seconds, &mut checks);
        match recorder.write() {
            Ok(path) => println!(
                "# {} spans written to {}",
                recorder.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("npbench: cannot write the trace file: {e}");
                return ExitCode::FAILURE;
            }
        }
        // Self time of the burst spans = what the replay harness itself
        // costs (input preparation, the spans' clock reads).
        let own = recorder.self_ns();
        let (harness, bursts) = recorder
            .spans()
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.layer == "burst")
            .fold((0u64, 0u64), |(h, t), (s, own)| {
                (h + own, t + (s.end_ns - s.start_ns))
            });
        println!(
            "# replay harness self time: {:.1}% of {:.3} s in burst spans",
            harness as f64 / bursts.max(1) as f64 * 100.0,
            bursts as f64 / 1e9
        );
        let values = PER_LAYER
            .iter()
            .map(|m| layer_values.get(m.name).copied().unwrap_or(0.0))
            .collect();
        (PER_LAYER, values)
    } else {
        let mut calib = calib::Calibrator::new();
        let t = timed::run(w, seed, seconds, &mut calib, &mut checks);
        let note = |name: &str, unit: &str, v: &[f64]| {
            println!(
                "# {name}: median {:.4} {unit}, min {:.4}, p90 {:.4}, max {:.4}, n {}",
                median(v),
                quantile(v, 0.0).unwrap_or(0.0),
                quantile(v, 0.9).unwrap_or(0.0),
                quantile(v, 1.0).unwrap_or(0.0),
                v.len()
            );
        };
        note("host_cal_per_packet", "cal", &t.cal_per_packet);
        note(
            "host_ns_per_packet (raw, unbounded)",
            "ns",
            &t.ns_per_packet,
        );
        note("host_ns_per_event (raw, unbounded)", "ns", &t.ns_per_event);
        note("calibration step", "ns", &t.calib_ns);
        note("setup_s", "s", &t.setup_s);
        let offered = |r: &npsim::SimReport| r.offered.max(1) as f64;
        let values = vec![
            median(&t.cal_per_packet),
            median(&t.setup_s),
            t.peak_rss_mb,
            t.sim(npsim::SimReport::throughput_mpps),
            t.sim(|r| 1.0 - r.drop_fraction()),
            t.sim(|r| 1.0 - r.ooo_fraction()),
            t.sim(|r| 1.0 - r.migrated_packets as f64 / offered(r)),
            t.sim(|r| 1.0 - r.cold_fraction()),
        ];
        (END_TO_END, values)
    };
    debug_assert_eq!(defs.len(), values.len());

    println!(
        "# {} seed {seed} seconds {seconds} trace {}",
        w.name(),
        u8::from(trace)
    );
    for (m, v) in defs.iter().zip(&values) {
        println!("{:<34} {:>16.6} {}", m.name, v, m.unit);
    }
    for n in &checks.notes {
        eprintln!("npbench: CHECK FAILED: {n}");
    }
    let attempted = checks.attempted.max(1);
    println!(
        "{:<34} {:>16.9} ratio ({} failed of {} attempted)",
        "failed_fraction",
        checks.failed as f64 / attempted as f64,
        checks.failed,
        attempted
    );
    let metrics = defs
        .iter()
        .zip(&values)
        .map(|(m, v)| metric_json(m, *v, None))
        .collect();
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(checks.failed == 0)),
        ("attempted".to_string(), Value::U64(attempted)),
        ("failed".to_string(), Value::U64(checks.failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    match serde_json::to_string(&result) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("npbench: cannot render the result: {e}");
            return ExitCode::FAILURE;
        }
    }
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `{"value": …, "unit": …[, "spread": …]}` — one metric in any output.
fn metric_json(m: &MetricDef, value: f64, spread: Option<f64>) -> (String, Value) {
    let mut fields = vec![
        ("value".to_string(), Value::F64(value)),
        ("unit".to_string(), Value::Str(m.unit.to_string())),
    ];
    if let Some(s) = spread {
        fields.push(("spread".to_string(), Value::F64(s)));
    }
    (m.name.to_string(), Value::Object(fields))
}

/// Re-execute this binary for one run and parse its last output line.
fn child_run(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} child: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let value = serde_json::parse_value(last).map_err(|e| {
        format!(
            "{} child printed no result ({e}); status {}",
            w.name(),
            out.status
        )
    })?;
    if !out.status.success() {
        return Err(format!("{} child failed its checks: {last}", w.name()));
    }
    Ok(value)
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    compare::number(result.get("metrics")?.get(name)?.get("value"))
}

/// Every workload: `runs` untraced children on consecutive seeds, one
/// traced child; prints the table and optionally writes the document.
fn run_all(seed: u64, seconds: f64, runs: usize, out: Option<&String>) -> Result<(), String> {
    let host = npfarm::benchdiff::HostFingerprint::detect();
    println!("# host: {}", host.describe());
    let mut workloads = Vec::new();
    for w in workload::ALL {
        println!("\n## {} — {}", w.name(), w.why());
        let untraced = (0..runs)
            .map(|i| child_run(w, seed + i as u64, seconds, false))
            .collect::<Result<Vec<_>, _>>()?;
        let traced = child_run(w, seed, seconds, true)?;
        let mut e2e = Vec::new();
        for m in END_TO_END {
            let samples: Vec<f64> = untraced
                .iter()
                .filter_map(|r| metric_value(r, m.name))
                .collect();
            let spread = iqr_share(&samples);
            println!(
                "{:<34} {:>16.6} {:<6} spread {} (bound {:.1}%, n {})",
                m.name,
                median(&samples),
                m.unit,
                spread.map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0)),
                m.bound.unwrap_or(0.0) * 100.0,
                samples.len()
            );
            e2e.push(metric_json(m, median(&samples), spread));
        }
        let mut per_layer = Vec::new();
        for m in PER_LAYER {
            let v = metric_value(&traced, m.name).unwrap_or(0.0);
            println!("{:<34} {:>16.6} {}", m.name, v, m.unit);
            per_layer.push(metric_json(m, v, None));
        }
        workloads.push((
            w.name().to_string(),
            Value::Object(vec![
                ("end_to_end".to_string(), Value::Object(e2e)),
                ("per_layer".to_string(), Value::Object(per_layer)),
            ]),
        ));
    }
    let doc = Value::Object(vec![
        (
            "host".to_string(),
            Value::Object(vec![
                ("cpu_model".to_string(), Value::Str(host.cpu_model)),
                ("cores".to_string(), Value::U64(host.cores)),
                ("rustc".to_string(), Value::Str(host.rustc)),
            ]),
        ),
        ("seed".to_string(), Value::U64(seed)),
        ("seconds".to_string(), Value::F64(seconds)),
        ("runs".to_string(), Value::U64(runs as u64)),
        ("workloads".to_string(), Value::Object(workloads)),
    ]);
    if let Some(path) = out {
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("\n# wrote {path}");
    }
    Ok(())
}

fn run_compare(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => compare::compare(&a, &b),
        (Err(e), _) | (_, Err(e)) => Err(e),
    };
    match rows {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            let count = |v| rows.iter().filter(|r| r.verdict == v).count();
            println!(
                "\n{} ok, {} regressed, {} unresolved",
                count(compare::Verdict::Ok),
                count(compare::Verdict::Regressed),
                count(compare::Verdict::Unresolved)
            );
            if count(compare::Verdict::Regressed) == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("npbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `/BENCHMARK.json`, rendered from the tables in this package.
fn benchmark_json() -> String {
    let text = |s: &str| Value::Str(s.to_string());
    let metric = |m: &MetricDef| {
        let mut fields = vec![
            ("name".to_string(), text(m.name)),
            ("unit".to_string(), text(m.unit)),
            ("better".to_string(), text(m.better.word())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound".to_string(), Value::F64(b)));
        }
        Value::Object(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "npbench/Cargo.toml",
        "--",
    ];
    let doc = Value::Object(vec![
        (
            "command".to_string(),
            Value::Array(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths".to_string(), Value::Array(vec![text("npbench")])),
        ("run_seconds".to_string(), Value::U64(RUN_SECONDS)),
        (
            "workloads".to_string(),
            Value::Array(
                workload::ALL
                    .iter()
                    .map(|w| {
                        Value::Object(vec![
                            ("name".to_string(), text(w.name())),
                            ("why".to_string(), text(w.why())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_string(),
            Value::Array(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer".to_string(),
            Value::Array(PER_LAYER.iter().map(metric).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&doc).unwrap_or_default()
}
