//! Which code a finding may land on: test-region masking, per-file lint
//! policy, and `// lint: allow(...)` suppression annotations.

use crate::lexer::{matching_close, Comment, Token};
use crate::{Finding, Rule};
use std::collections::HashMap;

/// Marks every token inside a `#[test]` function or `#[cfg(test)]` item
/// (including the attribute itself) as test code. The lints report nothing
/// in masked regions: panic-freedom and friends are production-path
/// guarantees, and tests assert by panicking on purpose.
pub fn test_region_mask(tokens: &[Token]) -> Vec<bool> {
    let mut masked = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            if let Some(attr_end) = matching_close(tokens, i + 1) {
                if is_test_attr(&tokens[i + 2..attr_end]) {
                    let item_end = item_end_after(tokens, attr_end + 1);
                    for slot in masked.iter_mut().take(item_end + 1).skip(i) {
                        *slot = true;
                    }
                    i = item_end + 1;
                    continue;
                }
                i = attr_end + 1;
                continue;
            }
        }
        i += 1;
    }
    masked
}

/// `#[test]`, `#[cfg(test)]`, `#[cfg(all(test, …))]` — but not
/// `#[cfg(not(test))]`, which is production-only code.
fn is_test_attr(attr: &[Token]) -> bool {
    let mut saw_test = false;
    let mut saw_not = false;
    for tok in attr {
        if tok.is_ident("test") {
            saw_test = true;
        }
        if tok.is_ident("not") {
            saw_not = true;
        }
    }
    saw_test && !saw_not
}

/// The end of the item an attribute applies to: the matching `}` of the
/// first `{` at delimiter depth zero (fn/mod body), or the first `;` (e.g.
/// `#[cfg(test)] mod tests;`). Further attributes in between are skipped by
/// the depth tracking; string tokens cannot fake a `;`.
fn item_end_after(tokens: &[Token], start: usize) -> usize {
    let mut depth = 0i32;
    let mut i = start;
    while i < tokens.len() {
        let tok = &tokens[i];
        if depth == 0 {
            if tok.is_punct('{') {
                return matching_close(tokens, i).unwrap_or(tokens.len() - 1);
            }
            if tok.is_punct(';') {
                return i;
            }
        }
        if tok.is_punct('(') || tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') {
            depth -= 1;
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Parsed suppression annotations for one file.
///
/// Grammar (inside any `//` comment):
///
/// ```text
/// lint: allow(<rule>, <reason>)        // suppresses <rule> on this line
///                                      // and the next line
/// lint: allow-file(<rule>, <reason>)   // suppresses <rule> in this file
/// ```
///
/// The reason is mandatory: an annotation without one is itself reported
/// (rule `annotation`), so suppressions stay auditable. `relaxed-ok` is an
/// accepted alias for `atomic-ordering`, matching the lint's wording.
#[derive(Debug, Default)]
pub struct Allows {
    by_line: HashMap<u32, Vec<Rule>>,
    file_wide: Vec<Rule>,
    /// Malformed annotations found while parsing.
    pub findings: Vec<Finding>,
}

impl Allows {
    /// Parses every annotation in `comments` (from file `path`). A trailing
    /// annotation covers its own line; an own-line annotation covers the
    /// next code line (skipping further own-line comments, so annotations
    /// stack above the code they describe).
    pub fn parse(path: &str, comments: &[Comment]) -> Allows {
        use std::collections::HashSet;
        let own_line_comments: HashSet<u32> =
            comments.iter().filter(|c| c.own_line).map(|c| c.line).collect();
        let mut allows = Allows::default();
        for comment in comments {
            // Doc comments (`///`, `//!`) are prose — the annotation grammar
            // only binds in plain `//` comments, so documentation may quote
            // it freely.
            if comment.text.starts_with('/') || comment.text.starts_with('!') {
                continue;
            }
            let Some(at) = comment.text.find("lint:") else { continue };
            let rest = comment.text[at + "lint:".len()..].trim_start();
            let target_line = if comment.own_line {
                let mut line = comment.line + 1;
                while own_line_comments.contains(&line) {
                    line += 1;
                }
                line
            } else {
                comment.line
            };
            let (file_wide, args) = if let Some(args) = rest.strip_prefix("allow-file(") {
                (true, args)
            } else if let Some(args) = rest.strip_prefix("allow(") {
                (false, args)
            } else {
                allows.findings.push(Finding::new(
                    path,
                    comment.line,
                    Rule::Annotation,
                    "unrecognized `lint:` annotation; expected `lint: allow(<rule>, <reason>)`"
                        .to_string(),
                ));
                continue;
            };
            match parse_allow_args(args) {
                Ok(rule) => {
                    if file_wide {
                        allows.file_wide.push(rule);
                    } else {
                        allows.by_line.entry(target_line).or_default().push(rule);
                    }
                }
                Err(problem) => {
                    allows.findings.push(Finding::new(
                        path,
                        comment.line,
                        Rule::Annotation,
                        problem,
                    ));
                }
            }
        }
        allows
    }

    /// Whether a finding of `rule` on `line` is suppressed by a file-wide
    /// or line-targeted allow.
    pub fn suppresses(&self, rule: Rule, line: u32) -> bool {
        self.file_wide.contains(&rule)
            || self.by_line.get(&line).is_some_and(|rules| rules.contains(&rule))
    }
}

fn parse_allow_args(args: &str) -> Result<Rule, String> {
    let Some(close) = args.find(')') else {
        return Err("unterminated `lint: allow(...)` annotation".to_string());
    };
    let inner = &args[..close];
    let Some((rule_name, reason)) = inner.split_once(',') else {
        return Err(format!(
            "`lint: allow({inner})` is missing a reason; write `allow(<rule>, <reason>)`"
        ));
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return Err("`lint: allow(...)` reason must not be empty".to_string());
    }
    let rule_name = rule_name.trim();
    Rule::from_name(rule_name)
        .ok_or_else(|| format!("unknown lint rule `{rule_name}` in allow annotation"))
}

/// Which lints run on a file, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FilePolicy {
    /// `unwrap`/`expect`/`panic!` and friends are findings.
    pub panic_lint: bool,
    /// `[idx]` indexing is a finding (request-path crates only).
    pub index_lint: bool,
    /// Guard scopes feed the lock graph and held-across-blocking checks.
    pub lock_lint: bool,
    /// Relaxed read-modify-writes with consumed results are findings.
    pub atomic_lint: bool,
}

/// Crates whose request paths must be panic-free: a panic in these unwinds a
/// server worker or poisons shared state.
const PANIC_FREE_CRATES: [&str; 5] = ["server", "store", "core", "obs", "flow"];

/// Crates where `[idx]` indexing is also banned. `flow`/`core` index dense
/// CSR arenas pervasively with invariant-checked cursors, so the indexing
/// sub-rule is scoped to the protocol/state layers where an out-of-bounds
/// panic is reachable from untrusted input.
const INDEX_FREE_CRATES: [&str; 2] = ["server", "store"];

/// Returns the lint policy for `rel_path` (workspace-relative, `/`-separated)
/// or `None` when the file is out of scope: vendored stand-ins, bench
/// harness code, tests/benches/examples directories, and build outputs.
pub fn policy_for(rel_path: &str) -> Option<FilePolicy> {
    let components: Vec<&str> = rel_path.split('/').collect();
    const SKIP_DIRS: [&str; 7] =
        ["target", ".git", "vendor", "tests", "benches", "examples", "fixtures"];
    if components.iter().any(|c| SKIP_DIRS.contains(c)) {
        return None;
    }
    let crate_name = match components.first() {
        Some(&"crates") => *components.get(1)?,
        // Workspace-root src/ (the facade crate).
        Some(&"src") => "rpq",
        _ => return None,
    };
    if crate_name == "bench" {
        return None;
    }
    Some(FilePolicy {
        panic_lint: PANIC_FREE_CRATES.contains(&crate_name),
        index_lint: INDEX_FREE_CRATES.contains(&crate_name),
        lock_lint: true,
        atomic_lint: true,
    })
}

/// The crate a workspace-relative path belongs to (lock classes are
/// namespaced by crate so same-named locks in two crates stay distinct).
pub fn crate_of(rel_path: &str) -> &str {
    let mut components = rel_path.split('/');
    match components.next() {
        Some("crates") => components.next().unwrap_or("rpq"),
        _ => "rpq",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn cfg_test_module_is_masked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n}\nfn after() {}\n";
        let lexed = lex(src);
        let mask = test_region_mask(&lexed.tokens);
        let at = |name: &str| lexed.tokens.iter().position(|t| t.is_ident(name)).unwrap();
        assert!(!mask[at("live")]);
        assert!(mask[at("helper")]);
        assert!(!mask[at("after")]);
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nfn prod() {}\n";
        let lexed = lex(src);
        let mask = test_region_mask(&lexed.tokens);
        let at = lexed.tokens.iter().position(|t| t.is_ident("prod")).unwrap();
        assert!(!mask[at]);
    }

    #[test]
    fn test_fn_with_following_attrs_is_masked() {
        let src = "#[test]\n#[ignore]\nfn check() { body(); }\nfn live() {}\n";
        let lexed = lex(src);
        let mask = test_region_mask(&lexed.tokens);
        let at = |name: &str| lexed.tokens.iter().position(|t| t.is_ident(name)).unwrap();
        assert!(mask[at("body")]);
        assert!(!mask[at("live")]);
    }

    #[test]
    fn allow_annotations_parse_and_suppress() {
        let lexed = lex("// lint: allow(panic-freedom, startup-only path)\nx.unwrap();\n\
             y.unwrap(); // lint: allow(panic-freedom, same line)\n");
        let allows = Allows::parse("f.rs", &lexed.comments);
        assert!(allows.findings.is_empty());
        assert!(allows.suppresses(Rule::PanicFreedom, 2));
        assert!(allows.suppresses(Rule::PanicFreedom, 3));
        assert!(!allows.suppresses(Rule::PanicFreedom, 5));
        assert!(!allows.suppresses(Rule::LockDiscipline, 2));
    }

    #[test]
    fn relaxed_ok_alias_and_file_wide() {
        let lexed = lex("// lint: allow-file(panic-freedom, parser keeps pos < len)\n\
             // lint: allow(relaxed-ok, monotonic ticket counter)\nt.fetch_add(1);\n");
        let allows = Allows::parse("f.rs", &lexed.comments);
        assert!(allows.findings.is_empty());
        assert!(allows.suppresses(Rule::PanicFreedom, 999));
        assert!(allows.suppresses(Rule::AtomicOrdering, 3));
    }

    #[test]
    fn missing_reason_is_a_finding() {
        let lexed = lex("// lint: allow(panic-freedom)\nx.unwrap();\n");
        let allows = Allows::parse("f.rs", &lexed.comments);
        assert_eq!(allows.findings.len(), 1);
        assert_eq!(allows.findings[0].rule, Rule::Annotation);
    }

    #[test]
    fn policy_scoping() {
        assert!(policy_for("crates/server/src/cache.rs").unwrap().index_lint);
        assert!(policy_for("crates/flow/src/csr.rs").unwrap().panic_lint);
        assert!(!policy_for("crates/flow/src/csr.rs").unwrap().index_lint);
        assert!(!policy_for("crates/cli/src/main.rs").unwrap().panic_lint);
        assert!(policy_for("crates/vendor/rand/src/lib.rs").is_none());
        assert!(policy_for("crates/server/tests/proto.rs").is_none());
        assert!(policy_for("crates/bench/src/lib.rs").is_none());
        assert!(policy_for("src/lib.rs").unwrap().lock_lint);
    }
}
