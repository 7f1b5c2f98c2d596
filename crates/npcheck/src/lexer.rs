//! A minimal Rust token scanner.
//!
//! Not a parser: it produces just enough structure for the lint rules —
//! identifiers, punctuation (with `+=`/`-=` fused), and literals, each
//! tagged with a line number — while correctly skipping line/block
//! comments (nested), string literals (including raw strings with any
//! number of `#`s), char literals, and lifetimes. Comment text is not
//! discarded entirely: `npcheck: allow(<rule>)` markers are collected,
//! the first `#[cfg(test)]` is recorded so hot-path rules can stop at
//! the test module, and the inner attribute that declares a per-packet
//! module is recognised.

/// One token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Single punctuation char, or the fused ops `+=` / `-=`.
    Punct(String),
    /// Number literal (verbatim text, e.g. `1.0`, `0xFF`, `42u64`).
    Num(String),
    /// String or char literal (contents dropped).
    Lit,
}

impl Tok {
    /// Is this the identifier `s`?
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(self, Tok::Ident(i) if i == s)
    }

    /// Is this the punctuation `s`?
    pub fn is_punct(&self, s: &str) -> bool {
        matches!(self, Tok::Punct(p) if p == s)
    }
}

/// Scanner output for one file.
#[derive(Debug, Default)]
pub struct LexedFile {
    /// `(line, token)` pairs in source order (1-based lines).
    pub tokens: Vec<(usize, Tok)>,
    /// `(line, rule_id)` allow markers from comments.
    pub allows: Vec<(usize, String)>,
    /// Lines carrying a non-empty `npcheck: ordering(<why>)`
    /// justification comment (the `shared-state-audit` rule requires
    /// one next to every explicit atomic memory ordering).
    pub orderings: Vec<usize>,
    /// Line of the first `#[cfg(test)]` / `#[cfg(all(test, …))]`
    /// attribute, if any.
    pub cfg_test_line: Option<usize>,
    /// The file opens with `#![deny(clippy::unwrap_used,
    /// clippy::expect_used, clippy::indexing_slicing)]`: it declares
    /// itself per-packet code, so `blocking-hot-path` applies to it.
    pub hot_path: bool,
}

/// Scan `src` into tokens.
pub fn lex(src: &str) -> LexedFile {
    let mut out = LexedFile::default();
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut i = 0;
    let mut line = 1;

    macro_rules! bump {
        () => {{
            if b[i] == '\n' {
                line += 1;
            }
            i += 1;
        }};
    }

    while i < n {
        let c = b[i];
        match c {
            '\n' => bump!(),
            c if c.is_whitespace() => bump!(),
            '/' if i + 1 < n && b[i + 1] == '/' => {
                // Line comment: scan for allow markers.
                let start = i;
                while i < n && b[i] != '\n' {
                    i += 1;
                }
                let text: String = b[start..i].iter().collect();
                collect_allows(&text, line, &mut out.allows);
                collect_orderings(&text, line, &mut out.orderings);
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                // Block comment (nested), allow markers honored.
                let start_line = line;
                let start = i;
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                let text: String = b[start..i.min(n)].iter().collect();
                collect_allows(&text, start_line, &mut out.allows);
                collect_orderings(&text, start_line, &mut out.orderings);
            }
            '"' => {
                // String literal.
                bump!();
                while i < n {
                    if b[i] == '\\' && i + 1 < n {
                        if b[i + 1] == '\n' {
                            line += 1;
                        }
                        i += 2;
                    } else if b[i] == '"' {
                        i += 1;
                        break;
                    } else {
                        bump!();
                    }
                }
                out.tokens.push((line, Tok::Lit));
            }
            'r' | 'b' if is_raw_string_start(&b, i) => {
                // Raw string r"..." / r#"..."# / br#"..."# etc.
                let mut j = i;
                while b[j] == 'r' || b[j] == 'b' {
                    j += 1;
                }
                let mut hashes = 0;
                while j < n && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                // b[j] == '"', find closing `"` + hashes `#`s.
                j += 1;
                loop {
                    if j >= n {
                        break;
                    }
                    if b[j] == '\n' {
                        line += 1;
                        j += 1;
                        continue;
                    }
                    if b[j] == '"' {
                        let mut k = j + 1;
                        let mut got = 0;
                        while k < n && b[k] == '#' && got < hashes {
                            got += 1;
                            k += 1;
                        }
                        if got == hashes {
                            j = k;
                            break;
                        }
                    }
                    j += 1;
                }
                i = j;
                out.tokens.push((line, Tok::Lit));
            }
            '\'' => {
                // Lifetime or char literal.
                if i + 1 < n
                    && (b[i + 1].is_alphabetic() || b[i + 1] == '_')
                    && !(i + 2 < n && b[i + 2] == '\'')
                {
                    // Lifetime: skip `'ident`.
                    i += 1;
                    while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                        i += 1;
                    }
                } else {
                    // Char literal.
                    i += 1;
                    while i < n {
                        if b[i] == '\\' && i + 1 < n {
                            i += 2;
                        } else if b[i] == '\'' {
                            i += 1;
                            break;
                        } else {
                            bump!();
                        }
                    }
                    out.tokens.push((line, Tok::Lit));
                }
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (b[i].is_alphanumeric() || b[i] == '_') {
                    i += 1;
                }
                let ident: String = b[start..i].iter().collect();
                out.tokens.push((line, Tok::Ident(ident)));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < n
                    && (b[i].is_alphanumeric()
                        || b[i] == '_'
                        || (b[i] == '.' && i + 1 < n && b[i + 1].is_ascii_digit()))
                {
                    i += 1;
                }
                let num: String = b[start..i].iter().collect();
                out.tokens.push((line, Tok::Num(num)));
            }
            '+' | '-' if i + 1 < n && b[i + 1] == '=' => {
                out.tokens.push((line, Tok::Punct(format!("{c}="))));
                i += 2;
            }
            c => {
                out.tokens.push((line, Tok::Punct(c.to_string())));
                i += 1;
            }
        }
    }

    // Locate the first `#[cfg(test)]` or `#[cfg(all(test, …))]`:
    // tokens `#` `[` `cfg` `(` [`all` `(`] `test`.
    for w in out.tokens.windows(7) {
        let head = w[0].1.is_punct("#")
            && w[1].1.is_punct("[")
            && w[2].1.is_ident("cfg")
            && w[3].1.is_punct("(");
        if !head {
            continue;
        }
        let plain = w[4].1.is_ident("test") && w[5].1.is_punct(")");
        let all_form = w[4].1.is_ident("all") && w[5].1.is_punct("(") && w[6].1.is_ident("test");
        if plain || all_form {
            out.cfg_test_line = Some(w[0].0);
            break;
        }
    }
    out.hot_path = declares_hot_path(&out.tokens);
    out
}

/// Is there an inner `#![deny(..)]` whose list names all three of
/// clippy's panic lints?
fn declares_hot_path(toks: &[(usize, Tok)]) -> bool {
    const HEAD: [&str; 5] = ["#", "!", "[", "deny", "("];
    toks.windows(HEAD.len()).enumerate().any(|(i, w)| {
        let head = w
            .iter()
            .zip(HEAD)
            .all(|((_, t), h)| t.is_punct(h) || t.is_ident(h));
        let list = || {
            toks[i + HEAD.len()..]
                .iter()
                .map(|(_, t)| t)
                .take_while(|t| !t.is_punct("]"))
        };
        head && ["unwrap_used", "expect_used", "indexing_slicing"]
            .iter()
            .all(|lint| list().any(|t| t.is_ident(lint)))
    })
}

fn is_raw_string_start(b: &[char], i: usize) -> bool {
    // r" r#" br" b" rb"  — any run of r/b then optional #s then a quote.
    let mut j = i;
    let mut saw_r = false;
    while j < b.len() && (b[j] == 'r' || b[j] == 'b') {
        saw_r |= b[j] == 'r';
        j += 1;
    }
    if j - i > 2 {
        return false;
    }
    let byte_str = !saw_r && j > i; // b"..." plain byte string also fine
    while j < b.len() && b[j] == '#' {
        if !saw_r {
            return false;
        }
        j += 1;
    }
    (saw_r || byte_str) && j < b.len() && b[j] == '"'
}

/// Collect `npcheck: ordering(<why>)` justification markers; an empty
/// `why` does not count — the point is the written-down argument.
fn collect_orderings(comment: &str, line: usize, orderings: &mut Vec<usize>) {
    let mut rest = comment;
    while let Some(pos) = rest.find("npcheck: ordering(") {
        let after = &rest[pos + "npcheck: ordering(".len()..];
        if after.trim_start().starts_with(')') {
            rest = after;
            continue;
        }
        if !after.is_empty() {
            orderings.push(line);
        }
        rest = after;
    }
}

fn collect_allows(comment: &str, line: usize, allows: &mut Vec<(usize, String)>) {
    let mut rest = comment;
    while let Some(pos) = rest.find("npcheck: allow(") {
        let after = &rest[pos + "npcheck: allow(".len()..];
        if let Some(end) = after.find(')') {
            allows.push((line, after[..end].trim().to_string()));
            rest = &after[end..];
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idents_and_puncts() {
        let l = lex("let x = a.unwrap();");
        let idents: Vec<_> = l
            .tokens
            .iter()
            .filter_map(|(_, t)| match t {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(idents, ["let", "x", "a", "unwrap"]);
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let l = lex("let s = \"HashMap Instant::now()\"; // HashMap in comment\n/* SystemTime */");
        assert!(!l.tokens.iter().any(|(_, t)| t.is_ident("HashMap")));
        assert!(!l.tokens.iter().any(|(_, t)| t.is_ident("SystemTime")));
    }

    #[test]
    fn raw_strings_skipped() {
        let l = lex(r###"let s = r#"thread_rng() "quoted" inside"#; let t = 1;"###);
        assert!(!l.tokens.iter().any(|(_, t)| t.is_ident("thread_rng")));
        assert!(l.tokens.iter().any(|(_, t)| t.is_ident("t")));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> &'a str { x } let c = 'x';");
        assert!(l.tokens.iter().any(|(_, t)| t.is_ident("str")));
        assert!(l.tokens.iter().any(|(_, t)| matches!(t, Tok::Lit)));
    }

    #[test]
    fn fused_plus_eq() {
        let l = lex("a += b; c + = d; e -= f;");
        let fused: Vec<_> = l
            .tokens
            .iter()
            .filter(|(_, t)| t.is_punct("+=") || t.is_punct("-="))
            .collect();
        assert_eq!(fused.len(), 2, "space-separated `+ =` must not fuse");
    }

    #[test]
    fn allow_markers_collected() {
        let l = lex(
            "x(); // npcheck: allow(unbounded-queue) because tests\n// npcheck: allow(lock-order)\n",
        );
        assert_eq!(
            l.allows,
            vec![
                (1, "unbounded-queue".to_string()),
                (2, "lock-order".to_string())
            ]
        );
    }

    #[test]
    fn cfg_test_detected() {
        let l = lex("fn a() {}\n#[cfg(test)]\nmod tests {}\n");
        assert_eq!(l.cfg_test_line, Some(2));
    }

    #[test]
    fn line_numbers_track_multiline_strings() {
        let l = lex("let s = \"a\nb\nc\";\nlet x = 1;");
        let x_line = l
            .tokens
            .iter()
            .find(|(_, t)| t.is_ident("x"))
            .map(|(ln, _)| *ln);
        assert_eq!(x_line, Some(4));
    }
}
