//! End-to-end self-tests against the fixture trees.
//!
//! `fixtures/bad/` mirrors the workspace layout with one violation of
//! every rule; `fixtures/good/` holds the cleaned equivalents, plus
//! `npsim/src/core_clock.rs`, the one site `single-cost-site` allows.
//! (`npsim/src/probe.rs`, the one site `single-report-fold` allows, is
//! in both trees for `probe-hot-path`.)
//! The bad tree must produce a finding for each rule and a non-zero CLI
//! exit; the good tree must scan completely clean.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Every rule in both tables must have a positive hit in `bad/` — the
/// list below is *derived from the rule tables*, so adding a rule
/// without a bad fixture fails this test.
#[test]
fn bad_fixture_trips_every_rule() {
    let (findings, files) =
        npcheck::scan_workspace(&fixture("bad")).expect("scan bad fixture tree");
    assert_eq!(files, 9, "expected the nine bad fixture files");
    let rules: BTreeSet<&str> = findings.iter().map(|f| f.rule).collect();
    for meta in npcheck::all_rules() {
        assert!(
            rules.contains(meta.id),
            "no bad-tree finding for rule {}",
            meta.id
        );
    }
    // Spot-check severities: unbounded-queue warns, the rest deny.
    assert!(findings
        .iter()
        .any(|f| f.rule == "unbounded-queue" && f.severity == npcheck::Severity::Warn));
    assert!(findings
        .iter()
        .any(|f| f.rule == "blocking-hot-path" && f.severity == npcheck::Severity::Deny));
    assert!(findings
        .iter()
        .any(|f| f.rule == "shared-state-audit" && f.severity == npcheck::Severity::Deny));
    assert!(findings
        .iter()
        .any(|f| f.rule == "lock-order" && f.severity == npcheck::Severity::Deny));
    // The second cost site is denied where it stands.
    assert!(findings.iter().any(|f| f.rule == "single-cost-site"
        && f.severity == npcheck::Severity::Deny
        && f.file.ends_with("npexec/src/cost.rs")));
    // So is each hand-copied report counter, `+=` included.
    let folds: Vec<usize> = findings
        .iter()
        .filter(|f| f.rule == "single-report-fold" && f.file.ends_with("npexec/src/report.rs"))
        .map(|f| f.line)
        .collect();
    assert_eq!(folds.len(), 4, "one finding per counter write: {folds:?}");
    // The lock-order message names both sites of the inversion.
    let inversion = findings
        .iter()
        .find(|f| f.rule == "lock-order")
        .expect("lock-order finding");
    assert!(
        inversion.message.contains("table") && inversion.message.contains("stats"),
        "inversion message must name both locks: {}",
        inversion.message
    );
    assert!(
        inversion.message.contains("locks.rs:"),
        "inversion message must point at the opposite-order site: {}",
        inversion.message
    );
}

#[test]
fn bad_fixture_findings_are_sorted_and_stable() {
    let (a, _) = npcheck::scan_workspace(&fixture("bad")).expect("scan");
    let (b, _) = npcheck::scan_workspace(&fixture("bad")).expect("scan again");
    let render = |fs: &[npcheck::Finding]| fs.iter().map(|f| f.render()).collect::<Vec<_>>();
    assert_eq!(render(&a), render(&b), "reports must be byte-stable");
    assert!(
        a.windows(2)
            .all(|w| (&w[0].file, w[0].line, w[0].rule) <= (&w[1].file, w[1].line, w[1].rule)),
        "findings must come out sorted by (file, line, rule)"
    );
}

#[test]
fn good_fixture_is_clean() {
    let (findings, files) =
        npcheck::scan_workspace(&fixture("good")).expect("scan good fixture tree");
    assert_eq!(files, 10, "expected the ten good fixture files");
    assert!(
        findings.is_empty(),
        "good fixtures must be clean, got:\n{}",
        findings
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn cli_exits_nonzero_on_bad_and_zero_on_good() {
    let bin = env!("CARGO_BIN_EXE_npcheck");
    let bad = Command::new(bin)
        .args(["--root"])
        .arg(fixture("bad"))
        .output()
        .expect("run npcheck on bad fixtures");
    assert_eq!(bad.status.code(), Some(1), "bad tree must fail the lint");

    let good = Command::new(bin)
        .args(["--root"])
        .arg(fixture("good"))
        .output()
        .expect("run npcheck on good fixtures");
    assert_eq!(good.status.code(), Some(0), "good tree must pass");
}

/// SARIF output: valid JSON, schema'd as 2.1.0, rule metadata for both
/// tables, one result per finding with a physical location.
#[test]
fn cli_sarif_report_parses() {
    let bin = env!("CARGO_BIN_EXE_npcheck");
    let out = Command::new(bin)
        .args(["--format", "sarif", "--root"])
        .arg(fixture("bad"))
        .output()
        .expect("run npcheck --format sarif");
    let text = String::from_utf8(out.stdout).expect("utf8 sarif");
    let v = serde_json::parse_value(&text).expect("valid SARIF JSON");
    assert_eq!(
        v.get("version"),
        Some(&serde::Value::Str("2.1.0".to_string()))
    );
    let runs = match v.get("runs") {
        Some(serde::Value::Array(items)) => items,
        other => panic!("runs must be an array, got {other:?}"),
    };
    assert_eq!(runs.len(), 1);
    let run = &runs[0];
    let driver = run
        .get("tool")
        .and_then(|t| t.get("driver"))
        .expect("tool.driver");
    assert_eq!(
        driver.get("name"),
        Some(&serde::Value::Str("npcheck".to_string()))
    );
    let rules = match driver.get("rules") {
        Some(serde::Value::Array(items)) => items,
        other => panic!("driver.rules must be an array, got {other:?}"),
    };
    assert_eq!(rules.len(), npcheck::all_rules().len());
    let results = match run.get("results") {
        Some(serde::Value::Array(items)) => items,
        other => panic!("results must be an array, got {other:?}"),
    };
    let (findings, _) = npcheck::scan_workspace(&fixture("bad")).expect("scan bad");
    assert_eq!(results.len(), findings.len(), "one result per finding");
    for r in results {
        assert!(
            matches!(r.get("ruleId"), Some(serde::Value::Str(_))),
            "result missing ruleId: {r:?}"
        );
        let loc = match r.get("locations") {
            Some(serde::Value::Array(items)) if items.len() == 1 => &items[0],
            other => panic!("result needs exactly one location, got {other:?}"),
        };
        let region = loc
            .get("physicalLocation")
            .and_then(|p| p.get("region"))
            .expect("physicalLocation.region");
        assert!(
            matches!(region.get("startLine"), Some(serde::Value::U64(n)) if *n >= 1),
            "region needs a 1-based startLine"
        );
    }
}
