//! The lint rule table.
//!
//! Rules are data: an id, a severity, a scope predicate over the
//! workspace-relative path and the lexed file, and a token-level
//! checker. Adding a rule means adding one entry to [`RULES`] — the
//! driver, allow-comment handling, SARIF report, and fixtures all pick
//! it up automatically.

use crate::lexer::{LexedFile, Tok};
use crate::Finding;

/// How a finding affects the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Always fails the run.
    Deny,
    /// Fails only under `--deny-warnings`.
    Warn,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One table-driven rule.
pub struct RuleSpec {
    /// Stable identifier (used in `npcheck: allow(<id>)`).
    pub id: &'static str,
    /// Effect on exit status.
    pub severity: Severity,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
    /// Why the rule exists (printed by `--list-rules`).
    pub why: &'static str,
    /// Scope: does this rule apply to the file at `rel_path`?
    pub applies: fn(&str, &LexedFile) -> bool,
    /// Token-level checker; pushes findings.
    pub check: fn(&str, &LexedFile, &mut Vec<Finding>),
}

impl std::fmt::Debug for RuleSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RuleSpec({})", self.id)
    }
}

/// Crates whose results must be bit-reproducible: the simulation
/// kernel, the NP model, the schedulers, the detector, the hashing
/// substrate, and the workload models.
const SIM_CRATE_PREFIXES: &[&str] = &[
    "crates/detsim/",
    "crates/npsim/",
    "crates/core/",
    "crates/afd/",
    "crates/nphash/",
    "crates/nptraffic/",
];

/// Crates whose types are shared across OS threads: the npfarm worker
/// pool, core's handshake board and spsc ring, and the npexec
/// thread-per-core backend built on them. Atomic orderings get
/// audited here.
const THREAD_SHARED_PREFIXES: &[&str] = &["crates/core/", "crates/npfarm/", "crates/npexec/"];

/// Crates where a queue with no capacity bound can grow without limit
/// under overload — the exact failure mode the paper's load balancer
/// exists to prevent, and (for the event queue) the simulator's own
/// memory ceiling.
const QUEUE_SCOPE_PREFIXES: &[&str] = &[
    "crates/npsim/",
    "crates/core/",
    "crates/detsim/",
    "crates/npexec/",
];

/// Where both execution backends live: each charges service time, and
/// must do it through the one shared core model.
const BACKEND_SRC_PREFIXES: &[&str] = &["crates/npsim/src/", "crates/npexec/src/"];

/// The one module allowed to call the Eq. 3 delay model.
const COST_SITE: &str = "crates/npsim/src/core_clock.rs";

/// The one module allowed to write the report's folded counters.
const FOLD_SITE: &str = "crates/npsim/src/probe.rs";

/// The `SimReport` and `ServiceBreakdown` counters `ReportProbe` folds
/// from the event stream.
const FOLD_COUNTERS: &[&str] = &[
    "offered",
    "dropped",
    "processed",
    "migrated_packets",
    "migration_events",
    "cold_starts",
];

fn is_backend_src(path: &str) -> bool {
    BACKEND_SRC_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn in_backend_src(path: &str, _: &LexedFile) -> bool {
    path != COST_SITE && is_backend_src(path)
}

fn in_backend_src_outside_fold(path: &str, _: &LexedFile) -> bool {
    path != FOLD_SITE && is_backend_src(path)
}

fn in_sim_crate(path: &str, _: &LexedFile) -> bool {
    SIM_CRATE_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn in_thread_shared_crate(path: &str, _: &LexedFile) -> bool {
    THREAD_SHARED_PREFIXES.iter().any(|p| path.starts_with(p))
}

fn in_queue_scope(path: &str, _: &LexedFile) -> bool {
    QUEUE_SCOPE_PREFIXES.iter().any(|p| path.starts_with(p))
}

/// The rule table.
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        id: "probe-hot-path",
        severity: Severity::Warn,
        summary: "allocation or nondeterministic collections inside a probe's `on_event`",
        why: "Probes observe every published simulation event; an allocation there \
              (Vec::new, to_string, collect, format!, …) turns the observability bus \
              into a per-event allocator and perturbs timing-sensitive benchmarks, \
              while HashMap/HashSet iteration makes probe output nondeterministic. \
              Preallocate in the constructor — amortized `push`/`resize` into \
              existing buffers is fine.",
        applies: in_sim_crate,
        check: check_probe_hot_path,
    },
    RuleSpec {
        id: "shared-state-audit",
        severity: Severity::Deny,
        summary: "atomic `Ordering` weaker than SeqCst without a written justification in thread-shared crates",
        why: "core, npfarm and npexec types cross OS threads (the npfarm worker \
              pool, the thread-per-core npexec backend). Every explicit atomic \
              memory ordering weaker than SeqCst must carry a written argument — \
              `// npcheck: ordering(<why>)` on the same or preceding line — \
              because the loom shim model-checks protocols under sequential \
              consistency and cannot catch a wrong ordering choice.",
        applies: in_thread_shared_crate,
        check: check_shared_state,
    },
    RuleSpec {
        id: "unbounded-queue",
        severity: Severity::Warn,
        summary: "VecDeque::new / mpsc::channel / Vec-as-queue (.remove(0), .insert(0, …)) without a capacity bound",
        why: "An unbounded queue turns overload into unbounded memory growth and \
              unbounded latency — the precise condition the paper's migration \
              policy exists to avoid, and for the simulator's own event queue, its \
              memory ceiling. Construct with with_capacity and enforce a cap at \
              the push site, or justify the unboundedness with an allow comment. \
              Front-of-Vec `.remove(0)`/`.insert(0, …)` are also flagged: they're \
              O(n) queue emulation — use a ring buffer.",
        applies: in_queue_scope,
        check: check_unbounded_queue,
    },
    RuleSpec {
        id: "blocking-hot-path",
        severity: Severity::Deny,
        summary: "Mutex/RwLock acquisition, sleep, blocking I/O, or allocation in hot-path modules",
        why: "A module that opens with `#![deny(clippy::unwrap_used, \
              clippy::expect_used, clippy::indexing_slicing)]` declares itself \
              per-packet code; a lock or syscall there serializes the thread-per-core \
              design away, and a per-packet allocation perturbs the timing the \
              benchmarks measure. Preallocate in a constructor (`fn new`, \
              `with_*`, `from_*`, `build*` — those are exempt), hoist the work to \
              setup/teardown, or justify a cold-path exception (error \
              construction, validation) with an allow comment.",
        applies: |_, lexed| lexed.hot_path,
        check: check_blocking_hot_path,
    },
    RuleSpec {
        id: "single-cost-site",
        severity: Severity::Deny,
        summary: "`processing_delay_us(` in backend code outside `npsim`'s `CoreClock` module",
        why: "The detsim engine and the npexec threads must charge the same packet \
              the same service time, or no cross-backend comparison means anything. \
              `npsim::CoreClock` (crates/npsim/src/core_clock.rs) is the one place \
              that applies the cold-start rule, Eq. 3, the throttle in force and the \
              virtual clock; a second call of the delay model in npsim or npexec \
              non-test code is a second copy of that rule, free to drift. Charge \
              through a `CoreClock` instead.",
        applies: in_backend_src,
        check: check_single_cost_site,
    },
    RuleSpec {
        id: "single-report-fold",
        severity: Severity::Deny,
        summary: "`=` or `+=` to a folded report counter in backend code outside `npsim`'s probe module",
        why: "Drops, out-of-order departures, migrated packets and cold starts are \
              the paper's results, and both backends must count them by one \
              definition. `npsim::ReportProbe` (crates/npsim/src/probe.rs) folds \
              them from the `SimEvent` stream: detsim's record stage observes \
              every event, npexec's dispatcher and workers each observe theirs \
              and merge at join. A write to `offered`, `dropped`, `processed`, \
              `migrated_packets`, `migration_events` or `cold_starts` elsewhere in \
              npsim or npexec non-test code is a second fold, free to drift. \
              Publish the event to a `ReportProbe` instead.",
        applies: in_backend_src_outside_fold,
        check: check_single_report_fold,
    },
];

/// A pass that sees a whole crate's lexed files at once. File rules
/// match token patterns; crate passes can correlate *across* files —
/// the lock-order pass needs every acquisition site in the crate to
/// decide whether two locks are ever nested both ways.
pub struct CrateRuleSpec {
    /// Stable identifier (used in `npcheck: allow(<id>)`).
    pub id: &'static str,
    /// Effect on exit status.
    pub severity: Severity,
    /// One-line description for `--list-rules`.
    pub summary: &'static str,
    /// Why the rule exists.
    pub why: &'static str,
    /// Which files participate in the pass.
    pub applies: fn(&str) -> bool,
    /// Whole-crate checker over `(rel_path, lexed)` pairs.
    pub check: fn(&[(&str, &LexedFile)], &mut Vec<Finding>),
}

impl std::fmt::Debug for CrateRuleSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CrateRuleSpec({})", self.id)
    }
}

/// The crate-pass table.
pub const CRATE_RULES: &[CrateRuleSpec] = &[CrateRuleSpec {
    id: "lock-order",
    severity: Severity::Deny,
    summary: "two named locks acquired in both nesting orders within one crate",
    why: "Inconsistent lock nesting is the classic deadlock recipe: thread A \
          holds `a` wanting `b` while thread B holds `b` wanting `a`. This pass \
          records the textual nesting order of every named `.lock()` call per \
          crate and reports pairs seen in both orders. It is conservative — \
          receivers are matched by field/variable name, guard lifetimes are \
          approximated by scope — so a reported inversion is either a real \
          hazard or a naming collision worth an explanatory allow comment at \
          the reported site.",
    applies: |p| !p.starts_with("crates/shims/"),
    check: check_lock_order,
}];

/// Which pass a rule belongs to (for `--list-rules`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Per-file token pass.
    File,
    /// Whole-crate correlation pass.
    Crate,
}

impl Pass {
    /// Lower-case label used in reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Pass::File => "file",
            Pass::Crate => "crate",
        }
    }
}

/// Unified metadata row covering both rule tables — drives
/// `--list-rules` and the SARIF rule table.
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    /// Stable identifier.
    pub id: &'static str,
    /// Effect on exit status.
    pub severity: Severity,
    /// File or crate pass.
    pub pass: Pass,
    /// One-line description.
    pub summary: &'static str,
    /// Why the rule exists.
    pub why: &'static str,
}

/// Every rule, file passes first, in table order.
pub fn all_rules() -> Vec<RuleMeta> {
    RULES
        .iter()
        .map(|r| RuleMeta {
            id: r.id,
            severity: r.severity,
            pass: Pass::File,
            summary: r.summary,
            why: r.why,
        })
        .chain(CRATE_RULES.iter().map(|r| RuleMeta {
            id: r.id,
            severity: r.severity,
            pass: Pass::Crate,
            summary: r.summary,
            why: r.why,
        }))
        .collect()
}

/// Look up a rule by id.
pub fn rule_by_id(id: &str) -> Option<&'static RuleSpec> {
    RULES.iter().find(|r| r.id == id)
}

fn push(
    findings: &mut Vec<Finding>,
    rule: &'static RuleSpec,
    file: &str,
    line: usize,
    message: String,
) {
    findings.push(Finding {
        rule: rule.id,
        severity: rule.severity,
        file: file.to_string(),
        line,
        message,
    });
}

fn rule(id: &str) -> &'static RuleSpec {
    rule_by_id(id).unwrap_or_else(|| panic!("rule table entry `{id}` missing"))
}

fn check_probe_hot_path(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let spec = rule("probe-hot-path");
    let toks = &lexed.tokens;
    let limit = lexed.cfg_test_line.unwrap_or(usize::MAX);
    let mut i = 0;
    while i + 1 < toks.len() {
        // Find each `fn on_event` (test modules may allocate freely).
        if toks[i].0 >= limit {
            break;
        }
        if !(toks[i].1.is_ident("fn") && toks[i + 1].1.is_ident("on_event")) {
            i += 1;
            continue;
        }
        // Skip to the body's opening `{`; a `;` first means a trait
        // declaration without a body.
        let mut j = i + 2;
        loop {
            match toks.get(j) {
                None => return,
                Some((_, t)) if t.is_punct(";") => break,
                Some((_, t)) if t.is_punct("{") => break,
                _ => j += 1,
            }
        }
        if toks.get(j).is_some_and(|(_, t)| t.is_punct(";")) {
            i = j + 1;
            continue;
        }
        // Brace-track the body and flag allocating constructs inside.
        let mut depth = 0usize;
        while let Some((line, t)) = toks.get(j) {
            match t {
                Tok::Punct(p) if p == "{" => depth += 1,
                Tok::Punct(p) if p == "}" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Ident(n) if n == "HashMap" || n == "HashSet" => push(
                    findings,
                    spec,
                    file,
                    *line,
                    format!(
                        "`{n}` in `on_event`: probe state must be deterministic and preallocated"
                    ),
                ),
                Tok::Ident(n) if n == "Vec" || n == "String" || n == "Box" => {
                    let ctor = toks.get(j + 1).is_some_and(|(_, t)| t.is_punct(":"))
                        && toks.get(j + 2).is_some_and(|(_, t)| t.is_punct(":"))
                        && toks.get(j + 3).is_some_and(|(_, t)| {
                            matches!(t, Tok::Ident(m)
                                if m == "new" || m == "with_capacity" || m == "from")
                        });
                    if ctor {
                        push(
                            findings,
                            spec,
                            file,
                            *line,
                            format!("`{n}::…` constructor in `on_event` allocates per event; preallocate in the probe constructor"),
                        );
                    }
                }
                Tok::Ident(n)
                    if n == "to_string" || n == "to_owned" || n == "to_vec" || n == "collect" =>
                {
                    let method_call = j >= 1
                        && toks.get(j - 1).is_some_and(|(_, t)| t.is_punct("."))
                        && toks.get(j + 1).is_some_and(|(_, t)| t.is_punct("("));
                    if method_call {
                        push(
                            findings,
                            spec,
                            file,
                            *line,
                            format!("`.{n}()` in `on_event` allocates per event; record into preallocated probe state"),
                        );
                    }
                }
                Tok::Ident(n)
                    if (n == "format" || n == "vec")
                        && toks.get(j + 1).is_some_and(|(_, t)| t.is_punct("!")) =>
                {
                    push(
                        findings,
                        spec,
                        file,
                        *line,
                        format!("`{n}!` in `on_event` allocates per event; defer rendering to `on_finish` or an accessor"),
                    );
                }
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
    }
}

/// Atomic orderings that demand a written justification. `SeqCst` is
/// the conservative default and passes; `cmp::Ordering` variants
/// (`Less`/`Equal`/`Greater`) never collide with this set.
const JUSTIFIED_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

fn check_shared_state(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let spec = rule("shared-state-audit");
    let toks = &lexed.tokens;
    let limit = lexed.cfg_test_line.unwrap_or(usize::MAX);
    for (i, (line, tok)) in toks.iter().enumerate() {
        if *line >= limit {
            break;
        }
        // `Ordering::<variant>` with a variant that needs a written why.
        let Some((_, Tok::Ident(variant))) = toks.get(i + 3) else {
            continue;
        };
        let weak_ordering = tok.is_ident("Ordering")
            && toks.get(i + 1).is_some_and(|(_, t)| t.is_punct(":"))
            && toks.get(i + 2).is_some_and(|(_, t)| t.is_punct(":"))
            && JUSTIFIED_ORDERINGS.contains(&variant.as_str());
        if !weak_ordering {
            continue;
        }
        let justified = lexed
            .orderings
            .iter()
            .any(|l| *l == *line || *l + 1 == *line);
        if !justified {
            push(
                findings,
                spec,
                file,
                *line,
                format!("`Ordering::{variant}` without a `// npcheck: ordering(<why>)` justification on this or the preceding line; write down the happens-before argument"),
            );
        }
    }
}

fn check_unbounded_queue(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let spec = rule("unbounded-queue");
    let toks = &lexed.tokens;
    let limit = lexed.cfg_test_line.unwrap_or(usize::MAX);
    for (i, (line, tok)) in toks.iter().enumerate() {
        if *line >= limit {
            break;
        }
        match tok {
            Tok::Ident(n)
                if n == "VecDeque"
                    && toks.get(i + 1).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 2).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 3).is_some_and(|(_, t)| t.is_ident("new")) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    "`VecDeque::new` declares no capacity bound; use with_capacity and enforce the cap at the push site, or justify unboundedness".into(),
                );
            }
            Tok::Ident(n)
                if n == "channel"
                    && i >= 3
                    && toks.get(i - 1).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i - 2).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i - 3).is_some_and(|(_, t)| t.is_ident("mpsc")) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    "`mpsc::channel` is unbounded; use sync_channel(cap) so backpressure reaches the producer".into(),
                );
            }
            // Vec-as-queue idioms: `.remove(0)` / `.insert(0, …)`.
            Tok::Ident(n)
                if (n == "remove" || n == "insert")
                    && i >= 1
                    && toks.get(i - 1).is_some_and(|(_, t)| t.is_punct("."))
                    && toks.get(i + 1).is_some_and(|(_, t)| t.is_punct("("))
                    && toks
                        .get(i + 2)
                        .is_some_and(|(_, t)| matches!(t, Tok::Num(z) if z == "0"))
                    && toks.get(i + 3).is_some_and(|(_, t)| {
                        if n == "remove" {
                            t.is_punct(")")
                        } else {
                            t.is_punct(",")
                        }
                    }) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    format!("`.{n}(0{}` treats a Vec as a queue (O(n) per op, no bound); use a bounded ring buffer", if n == "remove" { ")" } else { ", …)" }),
                );
            }
            _ => {}
        }
    }
}

/// Token-index ranges of constructor-shaped `fn` bodies (`new`,
/// `default`, `with_*`, `from_*`, `build*`): setup code there may
/// allocate freely — the hot-path contract is about per-packet work.
fn constructor_spans(toks: &[(usize, Tok)]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].1.is_ident("fn") {
            if let Tok::Ident(name) = &toks[i + 1].1 {
                let exempt = name == "new"
                    || name == "default"
                    || name.starts_with("with_")
                    || name.starts_with("from_")
                    || name.starts_with("build");
                if exempt {
                    // Find the body's `{` (a `;` first means no body).
                    let mut j = i + 2;
                    let body = loop {
                        match toks.get(j) {
                            None => return spans,
                            Some((_, t)) if t.is_punct(";") => break None,
                            Some((_, t)) if t.is_punct("{") => break Some(j),
                            _ => j += 1,
                        }
                    };
                    if let Some(start) = body {
                        let mut depth = 0usize;
                        while let Some((_, t)) = toks.get(j) {
                            if t.is_punct("{") {
                                depth += 1;
                            } else if t.is_punct("}") {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            j += 1;
                        }
                        spans.push((start, j));
                        i = j;
                    }
                }
            }
        }
        i += 1;
    }
    spans
}

fn check_single_cost_site(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let spec = rule("single-cost-site");
    let toks = &lexed.tokens;
    let limit = lexed.cfg_test_line.unwrap_or(usize::MAX);
    for (i, (line, tok)) in toks.iter().enumerate() {
        if *line >= limit {
            break;
        }
        if tok.is_ident("processing_delay_us")
            && toks.get(i + 1).is_some_and(|(_, t)| t.is_punct("("))
        {
            push(
                findings,
                spec,
                file,
                *line,
                format!("`processing_delay_us(` outside `{COST_SITE}`: charge service time through `npsim::CoreClock`, the one core model both backends share"),
            );
        }
    }
}

fn check_single_report_fold(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let spec = rule("single-report-fold");
    let toks = &lexed.tokens;
    let limit = lexed.cfg_test_line.unwrap_or(usize::MAX);
    let punct = |j: usize, p: &str| toks.get(j).is_some_and(|(_, t)| t.is_punct(p));
    for (i, (line, tok)) in toks.iter().enumerate() {
        if *line >= limit {
            break;
        }
        let Tok::Ident(name) = tok else { continue };
        if !FOLD_COUNTERS.contains(&name.as_str()) || i == 0 || !punct(i - 1, ".") {
            continue;
        }
        // `==` lexes as two `=`; `+=` is one token.
        let op = if punct(i + 1, "+=") {
            "+="
        } else if punct(i + 1, "=") && !punct(i + 2, "=") {
            "="
        } else {
            continue;
        };
        push(
            findings,
            spec,
            file,
            *line,
            format!("`.{name} {op}` outside `{FOLD_SITE}`: publish the event to a `ReportProbe`, the one report fold both backends share"),
        );
    }
}

fn check_blocking_hot_path(file: &str, lexed: &LexedFile, findings: &mut Vec<Finding>) {
    let spec = rule("blocking-hot-path");
    let toks = &lexed.tokens;
    let limit = lexed.cfg_test_line.unwrap_or(usize::MAX);
    let ctor_spans = constructor_spans(toks);
    let in_ctor = |k: usize| ctor_spans.iter().any(|(s, e)| k > *s && k < *e);
    for (i, (line, tok)) in toks.iter().enumerate() {
        if *line >= limit {
            break;
        }
        if in_ctor(i) {
            continue;
        }
        let Tok::Ident(name) = tok else { continue };
        let method_call = |j: usize| {
            j >= 1
                && toks.get(j - 1).is_some_and(|(_, t)| t.is_punct("."))
                && toks.get(j + 1).is_some_and(|(_, t)| t.is_punct("("))
        };
        let path_call = |j: usize| {
            // `X::name(` — path form (e.g. thread::sleep, File::open).
            j >= 2
                && toks.get(j - 1).is_some_and(|(_, t)| t.is_punct(":"))
                && toks.get(j - 2).is_some_and(|(_, t)| t.is_punct(":"))
        };
        let is_macro = |j: usize| toks.get(j + 1).is_some_and(|(_, t)| t.is_punct("!"));
        match name.as_str() {
            "lock" | "try_lock" if method_call(i) => push(
                findings,
                spec,
                file,
                *line,
                format!("`.{name}()` acquires a lock on the per-packet path; hot-path state must be core-local or go through the spsc ring"),
            ),
            "sleep" if method_call(i) || path_call(i) => push(
                findings,
                spec,
                file,
                *line,
                "`sleep` blocks the core; simulated delay comes from detsim::SimTime events".into(),
            ),
            "File"
                if toks.get(i + 1).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 2).is_some_and(|(_, t)| t.is_punct(":")) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    "`File::…` does blocking I/O on the per-packet path; move I/O to setup/teardown or a reporting stage".into(),
                );
            }
            "read_to_string" | "read_line" if method_call(i) || path_call(i) => push(
                findings,
                spec,
                file,
                *line,
                format!("`{name}` does blocking I/O on the per-packet path; move it off the hot path"),
            ),
            "stdin" | "stdout" | "stderr"
                if toks.get(i + 1).is_some_and(|(_, t)| t.is_punct("(")) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    format!("`{name}()` handles are blocking I/O; hot-path code must not touch the console"),
                );
            }
            "println" | "eprintln" | "print" | "eprint" if is_macro(i) => push(
                findings,
                spec,
                file,
                *line,
                format!("`{name}!` does blocking, lock-guarded I/O; report through probes or return values"),
            ),
            "format" | "vec" if is_macro(i) => push(
                findings,
                spec,
                file,
                *line,
                format!("`{name}!` allocates on the per-packet path; preallocate in a constructor or hoist to the cold path"),
            ),
            "Box"
                if toks.get(i + 1).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 2).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 3).is_some_and(|(_, t)| t.is_ident("new")) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    "`Box::new` allocates on the per-packet path; preallocate or use an arena/slot".into(),
                );
            }
            "String"
                if toks.get(i + 1).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 2).is_some_and(|(_, t)| t.is_punct(":"))
                    && toks.get(i + 3).is_some_and(|(_, t)| t.is_ident("from")) =>
            {
                push(
                    findings,
                    spec,
                    file,
                    *line,
                    "`String::from` allocates on the per-packet path; use &'static str or preallocated buffers".into(),
                );
            }
            "to_string" | "to_owned" | "to_vec" | "collect" if method_call(i) => push(
                findings,
                spec,
                file,
                *line,
                format!("`.{name}()` allocates on the per-packet path; reuse preallocated buffers"),
            ),
            _ => {}
        }
    }
}

/// Walk back from the `.` before a `lock` call and name the receiver:
/// the nearest identifier, skipping balanced `(...)`/`[...]` groups
/// (so `self.deques[w].lock()` names `deques` and `self.shard(i)
/// .lock()` names `shard`). `None` means the receiver has no stable
/// name (e.g. a temporary) — the acquisition is skipped rather than
/// guessed at.
fn lock_receiver(toks: &[(usize, Tok)], dot: usize) -> Option<String> {
    let mut k = dot;
    loop {
        if k == 0 {
            return None;
        }
        k -= 1;
        match &toks[k].1 {
            Tok::Punct(p) if p == ")" || p == "]" => {
                let (open, close) = if p == ")" { ("(", ")") } else { ("[", "]") };
                let mut depth = 1usize;
                while depth > 0 {
                    if k == 0 {
                        return None;
                    }
                    k -= 1;
                    match &toks[k].1 {
                        Tok::Punct(q) if q == close => depth += 1,
                        Tok::Punct(q) if q == open => depth -= 1,
                        _ => {}
                    }
                }
                // Continue: the token before the group names the call
                // or the indexed field.
            }
            Tok::Ident(name) => return Some(name.clone()),
            _ => return None,
        }
    }
}

/// Does the statement containing token `i` start with `let` (guard
/// bound to a variable, held to end of scope) or not (temporary,
/// dropped at the statement's `;`)?
fn stmt_has_let(toks: &[(usize, Tok)], i: usize) -> bool {
    let mut k = i;
    while k > 0 {
        k -= 1;
        match &toks[k].1 {
            Tok::Punct(p) if p == ";" || p == "{" || p == "}" => return false,
            Tok::Ident(w) if w == "let" => return true,
            _ => {}
        }
    }
    false
}

fn check_lock_order(files: &[(&str, &LexedFile)], findings: &mut Vec<Finding>) {
    let spec = CRATE_RULES
        .iter()
        .find(|r| r.id == "lock-order")
        .expect("lock-order in CRATE_RULES");

    struct Held {
        name: String,
        depth: usize,
        let_bound: bool,
    }
    // First textual occurrence of each (outer, inner) nesting.
    let mut edges: std::collections::BTreeMap<(String, String), (String, usize)> =
        std::collections::BTreeMap::new();

    for (file, lexed) in files {
        let toks = &lexed.tokens;
        let limit = lexed.cfg_test_line.unwrap_or(usize::MAX);
        let mut depth = 0usize;
        let mut held: Vec<Held> = Vec::new();
        for (i, (line, tok)) in toks.iter().enumerate() {
            if *line >= limit {
                break;
            }
            match tok {
                Tok::Punct(p) if p == "{" => depth += 1,
                Tok::Punct(p) if p == "}" => {
                    depth = depth.saturating_sub(1);
                    held.retain(|h| h.depth <= depth);
                }
                Tok::Punct(p) if p == ";" => held.retain(|h| h.let_bound),
                Tok::Ident(n)
                    if n == "lock"
                        && i >= 1
                        && toks.get(i - 1).is_some_and(|(_, t)| t.is_punct("."))
                        && toks.get(i + 1).is_some_and(|(_, t)| t.is_punct("(")) =>
                {
                    let Some(name) = lock_receiver(toks, i - 1) else {
                        continue;
                    };
                    for h in &held {
                        // Self-nesting of one name is skipped: indexed
                        // lock arrays (`deques[a]` then `deques[b]`)
                        // share a receiver name without sharing a lock.
                        if h.name != name {
                            edges
                                .entry((h.name.clone(), name.clone()))
                                .or_insert_with(|| (file.to_string(), *line));
                        }
                    }
                    let let_bound = stmt_has_let(toks, i);
                    held.push(Held {
                        name,
                        depth,
                        let_bound,
                    });
                }
                _ => {}
            }
        }
    }

    for ((a, b), (f1, l1)) in &edges {
        if a >= b {
            continue;
        }
        if let Some((f2, l2)) = edges.get(&(b.clone(), a.clone())) {
            findings.push(Finding {
                rule: spec.id,
                severity: spec.severity,
                file: f2.clone(),
                line: *l2,
                message: format!(
                    "lock `{a}` taken while holding `{b}` here, but `{f1}:{l1}` nests them the other way (`{a}` then `{b}`); pick one order or justify the cycle"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::scan_source;

    /// The inner attribute a per-packet module opens with; it is what
    /// puts a file in `blocking-hot-path` scope.
    const HOT: &str =
        "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]\n";

    #[test]
    fn probe_on_event_allocation_flagged() {
        let src = "impl Probe for P {\nfn on_event(&mut self, t: SimTime, ev: &SimEvent) {\nlet v = Vec::new();\nlet s = x.to_string();\nlet m = format!(\"{t}\");\nlet all: Vec<u32> = it.collect();\n}\n}\n";
        let f = scan_source("crates/npsim/src/probe.rs", src);
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "probe-hot-path"));
    }

    #[test]
    fn probe_on_event_amortized_push_allowed() {
        let src = "impl Probe for P {\nfn on_event(&mut self, t: SimTime, ev: &SimEvent) {\nself.entries.push((t, *ev));\nself.counts.resize(n, 0);\nself.total += 1;\n}\n}\n";
        assert!(scan_source("crates/npsim/src/probe.rs", src).is_empty());
    }

    #[test]
    fn probe_rule_ignores_trait_declarations_and_other_fns() {
        let src = "pub trait Probe {\nfn on_event(&mut self, t: SimTime, ev: &SimEvent);\n}\nfn helper() -> String { format!(\"ok\") }\n";
        assert!(scan_source("crates/npsim/src/probe.rs", src).is_empty());
    }

    #[test]
    fn shared_state_ordering_requires_justification() {
        let bare = "a.store(1, Ordering::Release);\n";
        let f = scan_source("crates/core/src/spsc_x.rs", bare);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("npcheck: ordering"));
        // Out of the thread-shared scope: clean.
        assert!(scan_source("crates/detsim/src/event.rs", bare).is_empty());

        let same_line = "a.store(1, Ordering::Release); // npcheck: ordering(pairs with the Acquire load in pop)\n";
        assert!(scan_source("crates/core/src/spsc_x.rs", same_line).is_empty());

        let prev_line =
            "// npcheck: ordering(publish after slot write)\na.store(1, Ordering::Release);\n";
        assert!(scan_source("crates/core/src/spsc_x.rs", prev_line).is_empty());

        // An empty why does not count.
        let empty_why = "a.store(1, Ordering::Relaxed); // npcheck: ordering()\n";
        assert_eq!(scan_source("crates/core/src/spsc_x.rs", empty_why).len(), 1);

        // SeqCst is the conservative default; cmp::Ordering never matches.
        let benign = "a.store(1, Ordering::SeqCst);\nlet o = Ordering::Less;\n";
        assert!(scan_source("crates/core/src/spsc_x.rs", benign).is_empty());
    }

    #[test]
    fn unbounded_queue_constructions_flagged() {
        let src = "let q: VecDeque<u32> = VecDeque::new();\nlet (tx, rx) = mpsc::channel();\nlet x = buf.remove(0);\nbuf.insert(0, x);\n";
        let f = scan_source("crates/npsim/src/queue.rs", src);
        assert_eq!(f.len(), 4, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "unbounded-queue"));
        // Out of queue scope: clean.
        assert!(scan_source("crates/npfarm/src/pool2.rs", src).is_empty());
    }

    #[test]
    fn unbounded_queue_bounded_forms_pass() {
        let src = "let q = VecDeque::with_capacity(cap);\nlet (tx, rx) = mpsc::sync_channel(64);\nlet x = buf.remove(idx);\nbuf.insert(1, x);\n";
        assert!(scan_source("crates/npsim/src/queue.rs", src).is_empty());
    }

    #[test]
    fn blocking_hot_path_scope_is_the_inner_deny_attribute() {
        let body = "fn step(&mut self) {\nlet g = self.stats.lock();\nthread::sleep(d);\nlet s = format!(\"x\");\nlet b = Box::new(1);\nprintln!(\"hi\");\nlet v: Vec<u32> = it.collect();\n}\n";
        // Any path: the module's own header opts it in.
        let f = scan_source("crates/npsim/src/anything.rs", &format!("{HOT}{body}"));
        assert_eq!(f.len(), 6, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "blocking-hot-path"));
        // The same source without the attribute is not hot path.
        assert!(scan_source("crates/npsim/src/anything.rs", body).is_empty());
        // Neither an outer attribute on one item, a partial lint list
        // nor the header inside a comment declares the module hot.
        let outer = format!(
            "#[deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]\n{body}"
        );
        assert!(scan_source("crates/npsim/src/anything.rs", &outer).is_empty());
        let partial = format!("#![deny(clippy::unwrap_used)]\n{body}");
        assert!(scan_source("crates/npsim/src/anything.rs", &partial).is_empty());
        let commented = format!("// {HOT}{body}");
        assert!(scan_source("crates/npsim/src/anything.rs", &commented).is_empty());
    }

    #[test]
    fn blocking_hot_path_exempts_constructors() {
        let src = "impl S {\nfn new(n: usize) -> Self {\nlet slots: Vec<u64> = (0..n).collect();\nSelf { slots, name: format!(\"s{n}\") }\n}\nfn with_capacity(n: usize) -> Self { Self { slots: vec![0; n], name: String::from(\"s\") } }\nfn step(&mut self) { self.slots.push(0); }\n}\n";
        assert!(scan_source("crates/npsim/src/engine/stage.rs", &format!("{HOT}{src}")).is_empty());
    }

    #[test]
    fn lock_order_inversion_within_a_crate() {
        let a = "fn a(&self) { let g = self.table.lock(); let h = self.stats.lock(); }\n";
        let b = "fn b(&self) { let g = self.stats.lock(); let h = self.table.lock(); }\n";
        // Same crate, two files: inversion reported once.
        let f = crate::scan_files(&[
            ("crates/npfarm/src/a.rs".to_string(), a.to_string()),
            ("crates/npfarm/src/b.rs".to_string(), b.to_string()),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "lock-order");
        assert!(f[0].message.contains("stats") && f[0].message.contains("table"));
        // Different crates: each is internally consistent, no finding.
        let f = crate::scan_files(&[
            ("crates/npfarm/src/a.rs".to_string(), a.to_string()),
            ("crates/npsim/src/b.rs".to_string(), b.to_string()),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lock_order_consistent_nesting_is_clean() {
        let src = "fn a(&self) { let g = self.table.lock(); let h = self.stats.lock(); }\nfn b(&self) { let g = self.table.lock(); let h = self.stats.lock(); }\n";
        assert!(scan_source("crates/npfarm/src/pool.rs", src).is_empty());
    }

    #[test]
    fn lock_order_temporary_guard_released_at_statement_end() {
        // The first lock is a temporary (dropped at `;`), so the second
        // acquisition does not nest inside it.
        let src = "fn a(&self) { self.table.lock().push(1); let h = self.stats.lock(); }\nfn b(&self) { self.stats.lock().push(1); let h = self.table.lock(); }\n";
        assert!(scan_source("crates/npfarm/src/pool.rs", src).is_empty());
    }

    #[test]
    fn lock_order_indexed_receivers_and_self_nesting() {
        // `deques[a]` / `deques[b]` share a receiver name; self-nesting
        // is deliberately not reported (distinct elements of a lock
        // array), and the indexed form resolves to the field name.
        let src =
            "fn steal(&self) { let g = self.deques[a].lock(); let h = self.deques[b].lock(); }\n";
        assert!(scan_source("crates/npfarm/src/pool.rs", src).is_empty());
    }

    #[test]
    fn single_report_fold_flags_counter_writes_outside_the_probe_module() {
        let src = "fn f(r: &mut SimReport) {\n    r.offered = 1;\n    r.cold_starts += n;\n    let dropped = r.dropped;\n    if r.processed == 0 {}\n    s.out_of_order += 1;\n}\n";
        let hits: Vec<usize> = scan_source("crates/npexec/src/lib.rs", src)
            .iter()
            .filter(|f| f.rule == "single-report-fold")
            .map(|f| f.line)
            .collect();
        assert_eq!(hits, [2, 3], "assignments only, never reads or `==`");
        assert!(scan_source("crates/npsim/src/probe.rs", src).is_empty());
        assert!(scan_source("crates/laps/src/lib.rs", src).is_empty());
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(scan_source("crates/npsim/src/report.rs", &in_tests).is_empty());
    }

    #[test]
    fn all_rules_covers_both_tables() {
        let metas = crate::rules::all_rules();
        assert_eq!(
            metas.len(),
            crate::rules::RULES.len() + crate::rules::CRATE_RULES.len()
        );
        assert!(metas
            .iter()
            .any(|m| m.id == "lock-order" && m.pass == crate::rules::Pass::Crate));
        let mut ids: Vec<&str> = metas.iter().map(|m| m.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), metas.len(), "rule ids must be unique");
    }
}
