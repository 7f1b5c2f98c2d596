//! `npcheck` — the part of the workspace's determinism and concurrency
//! contract that no other tool can state.
//!
//! The paper's evaluation (Figs. 7–9) rests on a deterministic
//! discrete-event simulation, and the thread-per-core `npexec` backend
//! shares `core` and `npfarm` types across OS threads. Most of that
//! contract is enforced by clippy and rustc (`clippy.toml`,
//! `unsafe_code`, and the `#![deny(clippy::unwrap_used,
//! clippy::expect_used, clippy::indexing_slicing)]` header each
//! per-packet module opens with — see DESIGN.md, "Determinism
//! contract"). This linter keeps the seven rules they cannot express:
//!
//! | rule | severity | pass | what it catches |
//! |------|----------|------|-----------------|
//! | `probe-hot-path` | warn | file | allocation or `HashMap`/`HashSet` inside a probe's `on_event` — the observability bus runs per published event |
//! | `shared-state-audit` | deny | file | explicit atomic `Ordering`s weaker than `SeqCst` without a `// npcheck: ordering(<why>)` justification, in thread-shared crates |
//! | `unbounded-queue` | warn | file | `VecDeque::new`, `mpsc::channel`, and Vec-as-queue idioms with no declared capacity bound |
//! | `blocking-hot-path` | deny | file | lock acquisition, `sleep`, blocking I/O, or allocation in a module carrying the hot-path header (constructors exempt) |
//! | `single-cost-site` | deny | file | `processing_delay_us(` in npsim or npexec non-test code outside the `CoreClock` module — both backends charge service time through one core model |
//! | `single-report-fold` | deny | file | `=` or `+=` to `offered`, `dropped`, `processed`, `migrated_packets`, `migration_events` or `cold_starts` in npsim or npexec non-test code outside `probe.rs` — both backends fold their report through `ReportProbe` |
//! | `lock-order` | deny | crate | two named locks acquired in both nesting orders within one crate |
//!
//! Any finding can be suppressed with a justification comment on the
//! same line or the line directly above:
//!
//! ```text
//! // npcheck: allow(blocking-hot-path) — once-per-run setup
//! ```
//!
//! Output formats: human text (default) and SARIF 2.1.0
//! ([`sarif_report`]) for CI code scanning.
//!
//! The linter is a hand-rolled token scanner, not a full parser: it
//! understands comments, strings (including raw strings), char
//! literals, and lifetimes, which is enough to match the rule patterns
//! without false positives from text inside literals or docs. File
//! rules see one file at a time; crate passes (`lock-order`) see every
//! lexed file of a crate at once.

use std::collections::BTreeMap;
use std::path::Path;

pub mod lexer;
pub mod rules;

pub use lexer::{lex, LexedFile, Tok};
pub use rules::{all_rules, Pass, RuleMeta, Severity, CRATE_RULES, RULES};

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (see [`RULES`]).
    pub rule: &'static str,
    /// Rule severity.
    pub severity: Severity,
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What was matched and why it matters.
    pub message: String,
}

impl Finding {
    /// Render as `file:line: severity [rule] message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {} [{}] {}",
            self.file,
            self.line,
            self.severity.as_str(),
            self.rule,
            self.message
        )
    }
}

/// Scan one source file (its workspace-relative path and its own
/// header drive rule scoping) and return all findings, sorted by line.
/// Crate passes see the file as a singleton crate, so intra-file
/// inversions are still caught.
pub fn scan_source(rel_path: &str, text: &str) -> Vec<Finding> {
    scan_files(&[(rel_path.to_string(), text.to_string())])
}

/// Scan a set of `(rel_path, text)` files together: file rules run on
/// each file, then crate passes run on every `crates/<name>/` group.
/// Findings covered by an allow comment (same or preceding line, in
/// the file the finding points at) are dropped; the rest come back
/// sorted by `(file, line, rule)` so reports are byte-stable.
pub fn scan_files(files: &[(String, String)]) -> Vec<Finding> {
    let lexed: Vec<(&str, LexedFile)> = files
        .iter()
        .map(|(path, text)| (path.as_str(), lex(text)))
        .collect();

    let mut findings = Vec::new();
    for (path, lf) in &lexed {
        for rule in rules::RULES {
            if (rule.applies)(path, lf) {
                (rule.check)(path, lf, &mut findings);
            }
        }
    }

    // Crate passes: group files by crate and hand each rule the whole
    // group (minus files outside the rule's scope).
    let mut groups: BTreeMap<String, Vec<(&str, &LexedFile)>> = BTreeMap::new();
    for (path, lf) in &lexed {
        groups.entry(crate_key(path)).or_default().push((path, lf));
    }
    for crule in rules::CRATE_RULES {
        for group in groups.values() {
            let members: Vec<(&str, &LexedFile)> = group
                .iter()
                .filter(|(path, _)| (crule.applies)(path))
                .copied()
                .collect();
            if !members.is_empty() {
                (crule.check)(&members, &mut findings);
            }
        }
    }

    // Drop findings covered by an allow comment on the same or the
    // preceding line of the file they point at.
    let allows: BTreeMap<&str, &[(usize, String)]> = lexed
        .iter()
        .map(|(path, lf)| (*path, lf.allows.as_slice()))
        .collect();
    findings.retain(|f| {
        allows.get(f.file.as_str()).is_none_or(|file_allows| {
            !file_allows.iter().any(|(line, rule_id)| {
                rule_id == f.rule && (*line == f.line || *line + 1 == f.line)
            })
        })
    });
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Grouping key for crate passes: `crates/<name>` for workspace crate
/// files, the first path component otherwise (root-level `tests/`,
/// `examples/`, … each form their own group).
fn crate_key(path: &str) -> String {
    if let Some(rest) = path.strip_prefix("crates/") {
        if let Some(pos) = rest.find('/') {
            return format!("crates/{}", &rest[..pos]);
        }
    }
    path.split('/').next().unwrap_or(path).to_string()
}

/// Recursively scan every `.rs` file under `root`, skipping build
/// output, VCS metadata, and the linter's own fixture trees.
///
/// Returns `(findings, files_scanned)`. Findings are sorted by
/// `(file, line, rule)` so reports are byte-stable across runs.
pub fn scan_workspace(root: &Path) -> std::io::Result<(Vec<Finding>, usize)> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        let text = std::fs::read_to_string(root.join(rel))?;
        sources.push((rel.clone(), text));
    }
    Ok((scan_files(&sources), files.len()))
}

const SKIP_DIRS: &[&str] = &["target", ".git", "results", "fixtures", "node_modules"];

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(rel);
        }
    }
    Ok(())
}

/// SARIF 2.1.0 report: one run, every rule from both tables in the
/// driver's rule metadata (deny → `error`, warn → `warning`), one
/// result per finding with a physical location. Deterministic output —
/// findings keep their `(file, line, rule)` sort and rule metadata
/// follows table order — so CI artifacts are byte-stable.
pub fn sarif_report(findings: &[Finding]) -> String {
    fn level(s: Severity) -> &'static str {
        match s {
            Severity::Deny => "error",
            Severity::Warn => "warning",
        }
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"npcheck\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/laps/npcheck\",\n");
    out.push_str("          \"rules\": [");
    let metas = rules::all_rules();
    let mut first = true;
    for m in &metas {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \"fullDescription\": {{\"text\": \"{}\"}}, \"defaultConfiguration\": {{\"level\": \"{}\"}}}}",
            m.id,
            escape_json(m.summary),
            escape_json(m.why),
            level(m.severity)
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    let index_of = |id: &str| metas.iter().position(|m| m.id == id).unwrap_or(0);
    let mut first = true;
    for f in findings {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n        {{\"ruleId\": \"{}\", \"ruleIndex\": {}, \"level\": \"{}\", \"message\": {{\"text\": \"{}\"}}, \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}}}}}}}]}}",
            f.rule,
            index_of(f.rule),
            level(f.severity),
            escape_json(&f.message),
            escape_json(&f.file),
            f.line
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

fn escape_json(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNJUSTIFIED: &str = "a.store(1, Ordering::Release);";

    #[test]
    fn allow_comment_suppresses_same_line() {
        let src = format!("{UNJUSTIFIED} // npcheck: allow(shared-state-audit)\n");
        assert!(scan_source("crates/core/src/x.rs", &src).is_empty());
    }

    #[test]
    fn allow_comment_suppresses_next_line() {
        let src = format!("// npcheck: allow(shared-state-audit) — model-checked\n{UNJUSTIFIED}\n");
        assert!(scan_source("crates/core/src/x.rs", &src).is_empty());
    }

    #[test]
    fn allow_for_other_rule_does_not_suppress() {
        let src = format!("// npcheck: allow(lock-order)\n{UNJUSTIFIED}\n");
        assert_eq!(scan_source("crates/core/src/x.rs", &src).len(), 1);
    }
}
