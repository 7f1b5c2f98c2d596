//! CLI driver for the npcheck linter.
//!
//! ```text
//! cargo run -p npcheck --                    # lint the workspace, human output
//! cargo run -p npcheck -- --format sarif     # SARIF 2.1.0 for CI code scanning
//! cargo run -p npcheck -- --deny-warnings    # warn-level findings also fail
//! cargo run -p npcheck -- --list-rules       # human-readable rule table
//! cargo run -p npcheck -- --root some/dir    # lint a different tree (fixtures)
//! ```
//!
//! Exit status: 0 when no deny-level findings (and, under
//! `--deny-warnings`, no findings at all); 1 when findings fail the
//! run; 2 on usage or I/O errors.

use std::path::PathBuf;
use std::process::ExitCode;

use npcheck::{all_rules, sarif_report, scan_workspace, Severity};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Sarif,
}

struct Options {
    format: Format,
    deny_warnings: bool,
    list_rules: bool,
    root: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        format: Format::Text,
        deny_warnings: false,
        list_rules: false,
        root: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => {
                let kind = args.next().ok_or("--format needs one of text|sarif")?;
                opts.format = match kind.as_str() {
                    "text" => Format::Text,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}` (text|sarif)")),
                };
            }
            "--deny-warnings" => opts.deny_warnings = true,
            "--list-rules" => opts.list_rules = true,
            "--root" => {
                let path = args.next().ok_or("--root needs a path argument")?;
                opts.root = Some(PathBuf::from(path));
            }
            "--help" | "-h" => {
                return Err(String::new());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

fn usage() -> &'static str {
    "usage: npcheck [--format text|sarif] [--deny-warnings] [--list-rules]\n\
     \x20              [--root <dir>]\n\
     \n\
     Lints the workspace for the determinism and concurrency-readiness\n\
     violations clippy and rustc cannot express. See DESIGN.md\n\
     (\"Concurrency contract & static analysis\") for the rules and the\n\
     `// npcheck: allow(<rule>)` escape hatch."
}

/// Workspace root: `--root` if given, else the manifest dir's parent
/// of parents (crates/npcheck -> workspace), else the current dir.
fn find_root(opts: &Options) -> PathBuf {
    if let Some(root) = &opts.root {
        return root.clone();
    }
    // When run via `cargo run -p npcheck`, CARGO_MANIFEST_DIR points at
    // crates/npcheck; the workspace root is two levels up.
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(manifest);
        if let Some(ws) = p.parent().and_then(|c| c.parent()) {
            if ws.join("Cargo.toml").is_file() {
                return ws.to_path_buf();
            }
        }
    }
    PathBuf::from(".")
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("npcheck: {msg}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        for rule in all_rules() {
            println!(
                "{} [{}, {} pass]",
                rule.id,
                rule.severity.as_str(),
                rule.pass.as_str()
            );
            println!("  {}", rule.summary);
            println!("  why: {}\n", rule.why);
        }
        return ExitCode::SUCCESS;
    }

    let root = find_root(&opts);
    let (findings, files_scanned) = match scan_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("npcheck: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let deny = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    let warn = findings.len() - deny;

    match opts.format {
        Format::Sarif => print!("{}", sarif_report(&findings)),
        Format::Text => {
            for f in &findings {
                println!("{}", f.render());
            }
            println!("npcheck: {files_scanned} files scanned, {deny} deny, {warn} warn");
        }
    }

    let failed = deny > 0 || (opts.deny_warnings && warn > 0);
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
