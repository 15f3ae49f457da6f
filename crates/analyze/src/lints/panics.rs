//! Lint 1 — panic-freedom on request paths.
//!
//! A panic in server/store/core/obs/flow production code unwinds a worker
//! thread mid-request and poisons every lock it held; the server contains
//! it as an `internal_error` response, but the request is lost and the
//! locked database's caches with it. This lint flags the
//! panic-capable constructs: `.unwrap()`, `.expect(...)`, the panicking
//! macros, and (in the protocol/state crates) `[idx]` indexing.

use crate::lexer::{matching_close, TokKind, Token};
use crate::scope::FilePolicy;
use crate::{Finding, Rule};

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that can directly precede a `[` that is *not* a postfix index.
const KEYWORDS: [&str; 18] = [
    "in", "let", "return", "if", "else", "match", "break", "continue", "loop", "while", "for",
    "move", "mut", "ref", "as", "where", "dyn", "yield",
];

/// Runs the panic-freedom lint over one file's tokens.
pub fn check(path: &str, tokens: &[Token], masked: &[bool], policy: FilePolicy) -> Vec<Finding> {
    let mut findings = Vec::new();
    if !policy.panic_lint {
        return findings;
    }
    for (i, tok) in tokens.iter().enumerate() {
        if masked[i] {
            continue;
        }
        match &tok.kind {
            TokKind::Punct('.') => {
                let method = match tokens.get(i + 1).map(|t| t.ident_or_empty()) {
                    Some(m @ ("unwrap" | "expect")) => m,
                    _ => continue,
                };
                if !tokens.get(i + 2).is_some_and(|t| t.is_punct('(')) {
                    continue;
                }
                // `self.expect(...)` is a parser's own method (json.rs
                // style), not `Result::expect`.
                if i > 0 && tokens[i - 1].is_ident("self") {
                    continue;
                }
                findings.push(Finding::new(
                    path,
                    tokens[i + 1].line,
                    Rule::PanicFreedom,
                    format!("`.{method}()` can panic on a request path; return a typed error"),
                ));
            }
            TokKind::Ident(name)
                if PANIC_MACROS.contains(&name.as_str())
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct('!')) =>
            {
                findings.push(Finding::new(
                    path,
                    tok.line,
                    Rule::PanicFreedom,
                    format!("`{name}!` aborts the worker thread; return a typed error"),
                ));
            }
            TokKind::Punct('[') if policy.index_lint => {
                if let Some(finding) = check_index(path, tokens, i) {
                    findings.push(finding);
                }
            }
            _ => {}
        }
    }
    findings
}

/// `recv[idx]`-style indexing: a `[` in postfix position (after an
/// identifier, call, or another index). Full-range `[..]` cannot panic and
/// is skipped.
fn check_index(path: &str, tokens: &[Token], open: usize) -> Option<Finding> {
    if open == 0 {
        return None;
    }
    let postfix = match &tokens[open - 1].kind {
        // A keyword before `[` means the bracket starts an array literal
        // (`for x in [a, b]`) or a destructuring pattern (`let [a, b] = v`),
        // not a postfix index.
        TokKind::Ident(name) => !KEYWORDS.contains(&name.as_str()),
        TokKind::Punct(')') | TokKind::Punct(']') => true,
        _ => false,
    };
    if !postfix {
        return None;
    }
    let close = matching_close(tokens, open)?;
    let inner = &tokens[open + 1..close];
    if inner.iter().all(|t| t.is_punct('.')) {
        return None;
    }
    Some(Finding::new(
        path,
        tokens[open].line,
        Rule::PanicFreedom,
        "indexing can panic on out-of-range input; use `.get(...)` or a checked cursor".to_string(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scope::test_region_mask;

    fn run(src: &str, policy: FilePolicy) -> Vec<Finding> {
        let lexed = lex(src);
        let masked = test_region_mask(&lexed.tokens);
        check("f.rs", &lexed.tokens, &masked, policy)
    }

    const FULL: FilePolicy =
        FilePolicy { panic_lint: true, index_lint: true, lock_lint: true, atomic_lint: true };

    #[test]
    fn unwrap_expect_and_macros_fire() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); unreachable!(); }";
        let rules: Vec<_> = run(src, FULL).into_iter().map(|f| f.line).collect();
        assert_eq!(rules.len(), 4);
    }

    #[test]
    fn parser_self_expect_is_not_a_result_expect() {
        assert!(run("fn f(&mut self) { self.expect(b'\"'); }", FULL).is_empty());
        assert_eq!(run("fn f(&self) { self.addr.lock().expect(\"x\"); }", FULL).len(), 1);
    }

    #[test]
    fn indexing_fires_only_under_index_policy() {
        let src = "fn f() { let x = buf[i]; }";
        assert_eq!(run(src, FULL).len(), 1);
        let no_index = FilePolicy { index_lint: false, ..FULL };
        assert!(run(src, no_index).is_empty());
    }

    #[test]
    fn non_postfix_brackets_do_not_fire() {
        let src = "#[derive(Debug)]\nstruct S { a: [u8; 4] }\nfn f() -> Vec<u8> { vec![0; 4] }";
        assert!(run(src, FULL).is_empty());
    }

    #[test]
    fn keyword_brackets_are_not_indexing() {
        assert!(run("fn f() { for x in [1, 2] { use_it(x); } }", FULL).is_empty());
        assert!(run("fn f(v: [u8; 2]) { let [a, b] = v; touch(a, b); }", FULL).is_empty());
        assert!(run("fn f(v: &[u8]) -> u8 { return [1u8, 2][0]; }", FULL).len() == 1);
    }

    #[test]
    fn full_range_slice_is_allowed() {
        assert!(run("fn f(v: &[u8]) -> &[u8] { &v[..] }", FULL).is_empty());
        assert_eq!(run("fn f(v: &[u8]) -> &[u8] { &v[1..] }", FULL).len(), 1);
    }

    #[test]
    fn test_code_is_masked() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\nfn live() { y.unwrap(); }";
        let findings = run(src, FULL);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 3);
    }
}
