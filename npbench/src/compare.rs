//! Repeatability mode: `npbench --compare <a.json> <b.json>`.
//!
//! Both files are `npbench --all --out` documents. Each (workload,
//! end-to-end metric) pair gets one row: the change from `a` to `b` in
//! the metric's worse direction, as a share of `a`, against the metric's
//! bound. A pair whose own spread in either file (the quartile distance
//! of the repeated runs, as a share of their median) exceeds the bound
//! cannot be resolved and says so instead of claiming "unchanged".

use serde::Value;

use crate::metrics::{Better, MetricDef, END_TO_END};

/// Outcome of one (workload, metric) comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// Run-to-run spread wider than the bound: no verdict possible.
    Unresolved,
}

impl Verdict {
    /// The word printed in the table.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// worse direction (negative = better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// Apply `def`'s bound to the pair of medians and their spreads.
pub fn judge(def: &MetricDef, a: f64, b: f64, spread: Option<f64>) -> Verdict {
    let bound = def.bound.unwrap_or(f64::INFINITY);
    if spread.is_some_and(|s| s > bound) {
        Verdict::Unresolved
    } else if worsening(def, a, b) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric compared.
    pub def: &'static MetricDef,
    /// Median in the first file.
    pub a: f64,
    /// Median in the second file.
    pub b: f64,
    /// Wider of the two files' spreads, when they carry one.
    pub spread: Option<f64>,
    /// The verdict.
    pub verdict: Verdict,
}

/// A JSON number of any flavour as `f64`.
pub fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::F64(f) => Some(*f),
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        _ => None,
    }
}

/// `doc.workloads.<workload>.end_to_end.<metric>.<field>`.
fn field(doc: &Value, workload: &str, metric: &str, field: &str) -> Option<f64> {
    number(
        doc.get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?
            .get(field),
    )
}

/// Compare two `--all --out` documents over every workload of `a`.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let Some(Value::Object(workloads)) = a.get("workloads") else {
        return Err("first file has no \"workloads\" object".to_string());
    };
    let mut rows = Vec::new();
    for (workload, _) in workloads {
        for def in END_TO_END {
            let va = field(a, workload, def.name, "value")
                .ok_or_else(|| format!("{workload}/{}: missing in the first file", def.name))?;
            let vb = field(b, workload, def.name, "value")
                .ok_or_else(|| format!("{workload}/{}: missing in the second file", def.name))?;
            let spread = [a, b]
                .iter()
                .filter_map(|d| field(d, workload, def.name, "spread"))
                .reduce(f64::max);
            rows.push(Row {
                workload: workload.clone(),
                def,
                a: va,
                b: vb,
                spread,
                verdict: judge(def, va, vb, spread),
            });
        }
    }
    Ok(rows)
}

/// Render the rows as a markdown table.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::from(
        "| workload | metric | a | b | worse by | spread | bound | verdict |\n|---|---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let spread = r
            .spread
            .map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0));
        out.push_str(&format!(
            "| {} | {} | {:.6} | {:.6} | {:+.2}% | {} | {:.1}% | {} |\n",
            r.workload,
            r.def.name,
            r.a,
            r.b,
            worsening(r.def, r.a, r.b) * 100.0,
            spread,
            r.def.bound.unwrap_or(0.0) * 100.0,
            r.verdict.word()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_apply_in_the_stated_direction() {
        let def = |better, bound| MetricDef {
            name: "m",
            unit: "x",
            better,
            bound: Some(bound),
        };
        let cost = &def(Better::Lower, 0.25);
        let rate = &def(Better::Higher, 0.10);
        // Lower is better: +30% is a regression, −30% is not.
        assert_eq!(judge(cost, 10.0, 13.0, None), Verdict::Regressed);
        assert_eq!(judge(cost, 10.0, 7.0, None), Verdict::Ok);
        assert_eq!(judge(cost, 10.0, 12.0, Some(0.05)), Verdict::Ok);
        // Higher is better: −20% regresses a 10% bound, +20% does not.
        assert_eq!(judge(rate, 10.0, 8.0, None), Verdict::Regressed);
        assert_eq!(judge(rate, 10.0, 12.0, None), Verdict::Ok);
        // A spread wider than the bound resolves nothing, either way.
        assert_eq!(judge(rate, 10.0, 8.0, Some(0.5)), Verdict::Unresolved);
        assert!((worsening(rate, 10.0, 8.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn documents_compare_row_by_row() {
        let doc = |host: f64| {
            let metrics: Vec<(String, Value)> = END_TO_END
                .iter()
                .map(|d| {
                    let v = if d.name == "host_cal_per_packet" {
                        host
                    } else {
                        1.0
                    };
                    (
                        d.name.to_string(),
                        Value::Object(vec![
                            ("value".to_string(), Value::F64(v)),
                            ("spread".to_string(), Value::F64(0.01)),
                        ]),
                    )
                })
                .collect();
            Value::Object(vec![(
                "workloads".to_string(),
                Value::Object(vec![(
                    "forward-fcfs".to_string(),
                    Value::Object(vec![("end_to_end".to_string(), Value::Object(metrics))]),
                )]),
            )])
        };
        let rows = compare(&doc(4.0), &doc(6.0)).expect("well-formed");
        assert_eq!(rows.len(), END_TO_END.len());
        let regressed: Vec<_> = rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regressed)
            .map(|r| r.def.name)
            .collect();
        assert_eq!(regressed, ["host_cal_per_packet"]);
        assert!(render(&rows).contains("| forward-fcfs | host_cal_per_packet |"));
        assert!(compare(&Value::Null, &doc(1.0)).is_err());
    }
}
