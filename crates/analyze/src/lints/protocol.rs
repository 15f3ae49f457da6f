//! Lint 4 — wire-protocol exhaustiveness.
//!
//! The NDJSON protocol has one source of truth: the verb match in
//! `Request::parse` (`crates/server/src/protocol.rs`). Everything else must
//! track it. For every verb parsed there, this lint requires:
//!
//! - a README mention (a backticked `` `verb` `` or an `"op":"verb"`
//!   example) so the protocol section cannot silently fall behind; and
//! - an entry in the server's `VERBS` table, which drives the
//!   `requests_by_verb` stats counters and the Prometheus per-verb series.
//!
//! The reverse direction is checked too: a `VERBS` entry without a parse arm
//! is a stats row that can never tick.
//!
//! Beyond the verbs, the per-request **query settings** (the `json.get("…")`
//! lookups of `parse_query_spec` — `bag`, `flow`, `want_cut`, `deadline_ms`,
//! `cost_budget_us`, …) and the solve **response fields** (the literal keys
//! of `outcome_json` / `tiered_outcome_json` — `value`, `bounds`, `tier`,
//! `degraded`, `route`, …) must each have a backticked README mention, so a
//! new wire field cannot ship undocumented.
//!
//! The same goes for the server's counters, declared once in the table of
//! `ServerState::counters` (`crates/server/src/server.rs`): every `rpq_*`
//! Prometheus family there needs a backticked README mention (`` `name` ``
//! or, labeled, `` `name{label=…}` ``), and every `stats` key (the first
//! argument of a row, or the name of a row group) a backticked mention or a
//! `"key":` in a README example.

use crate::lexer::{lex, matching_close, TokKind, Token};
use crate::{Finding, Rule};

/// A verb extracted from a match arm, with its source line.
#[derive(Debug, PartialEq, Eq)]
pub struct Verb {
    /// The wire-level op name.
    pub name: String,
    /// 1-based line of the match arm in protocol.rs.
    pub line: u32,
}

/// Extracts the verbs matched by `pub fn parse` in protocol.rs source:
/// string literals in arm position (`"verb" =>` or `"a" | "b" =>`).
pub fn parse_verbs(protocol_src: &str) -> Vec<Verb> {
    let tokens = lex(protocol_src).tokens;
    let Some(body) = parse_fn_body(&tokens) else { return Vec::new() };
    let mut verbs = Vec::new();
    for i in body.clone() {
        let TokKind::Str(value) = &tokens[i].kind else { continue };
        let arm = match tokens.get(i + 1).map(|t| &t.kind) {
            Some(TokKind::Punct('|')) => true,
            Some(TokKind::Punct('=')) => tokens.get(i + 2).is_some_and(|t| t.is_punct('>')),
            _ => false,
        };
        if arm && !verbs.iter().any(|v: &Verb| v.name == *value) {
            verbs.push(Verb { name: value.clone(), line: tokens[i].line });
        }
    }
    verbs
}

/// The token index range of the body of `pub fn parse`.
fn parse_fn_body(tokens: &[Token]) -> Option<std::ops::Range<usize>> {
    for i in 0..tokens.len().saturating_sub(2) {
        if tokens[i].is_ident("pub")
            && tokens[i + 1].is_ident("fn")
            && tokens[i + 2].is_ident("parse")
        {
            let open = (i + 3..tokens.len()).find(|&j| tokens[j].is_punct('{'))?;
            let close = matching_close(tokens, open)?;
            return Some(open + 1..close);
        }
    }
    None
}

/// The token index range of the body of `fn <name>` (any visibility).
fn named_fn_body(tokens: &[Token], name: &str) -> Option<std::ops::Range<usize>> {
    for i in 0..tokens.len().saturating_sub(1) {
        if tokens[i].is_ident("fn") && tokens[i + 1].is_ident(name) {
            let open = (i + 2..tokens.len()).find(|&j| tokens[j].is_punct('{'))?;
            let close = matching_close(tokens, open)?;
            return Some(open + 1..close);
        }
    }
    None
}

/// The query settings parsed by `parse_query_spec`: every string literal in
/// a `json.get("…")` lookup inside its body.
pub fn query_spec_fields(protocol_src: &str) -> Vec<Verb> {
    let tokens = lex(protocol_src).tokens;
    let Some(body) = named_fn_body(&tokens, "parse_query_spec") else { return Vec::new() };
    let mut fields = Vec::new();
    for i in body {
        let TokKind::Str(value) = &tokens[i].kind else { continue };
        let is_get = i >= 2 && tokens[i - 1].is_punct('(') && tokens[i - 2].is_ident("get");
        if is_get && !fields.iter().any(|f: &Verb| f.name == *value) {
            fields.push(Verb { name: value.clone(), line: tokens[i].line });
        }
    }
    fields
}

/// The solve response fields: every string literal in key position (directly
/// after `(`, i.e. the first element of a `("key", value)` pair) inside the
/// bodies of `outcome_json` and `tiered_outcome_json`.
pub fn response_fields(protocol_src: &str) -> Vec<Verb> {
    let tokens = lex(protocol_src).tokens;
    let mut fields: Vec<Verb> = Vec::new();
    for renderer in ["outcome_json", "tiered_outcome_json"] {
        let Some(body) = named_fn_body(&tokens, renderer) else { continue };
        for i in body {
            let TokKind::Str(value) = &tokens[i].kind else { continue };
            if i >= 1 && tokens[i - 1].is_punct('(') && !fields.iter().any(|f| f.name == *value) {
                fields.push(Verb { name: value.clone(), line: tokens[i].line });
            }
        }
    }
    fields
}

/// The literals of the server's counter table, the body of `counters`:
/// every `rpq_*` string (a Prometheus family) and every other non-empty
/// string directly after `(` (a `stats` key or object name), in that order.
pub fn counter_literals(server_src: &str) -> (Vec<Verb>, Vec<Verb>) {
    let tokens = lex(server_src).tokens;
    let (mut families, mut keys) = (Vec::new(), Vec::new());
    let Some(body) = named_fn_body(&tokens, "counters") else { return (families, keys) };
    for i in body {
        let TokKind::Str(value) = &tokens[i].kind else { continue };
        let list = if value.starts_with("rpq_") {
            &mut families
        } else if !value.is_empty() && i >= 1 && tokens[i - 1].is_punct('(') {
            &mut keys
        } else {
            continue;
        };
        if !list.iter().any(|v: &Verb| v.name == *value) {
            list.push(Verb { name: value.clone(), line: tokens[i].line });
        }
    }
    (families, keys)
}

/// Extracts the string entries of the `const VERBS` table in server.rs.
pub fn verbs_table(server_src: &str) -> Vec<Verb> {
    let tokens = lex(server_src).tokens;
    for i in 0..tokens.len().saturating_sub(1) {
        if !(tokens[i].is_ident("const") && tokens[i + 1].is_ident("VERBS")) {
            continue;
        }
        let Some(open) = (i + 2..tokens.len()).find(|&j| {
            tokens[j].is_punct('[')
                && tokens.get(j + 1).is_some_and(|t| matches!(t.kind, TokKind::Str(_)))
        }) else {
            continue;
        };
        let Some(close) = matching_close(&tokens, open) else { continue };
        return tokens[open + 1..close]
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Str(value) => Some(Verb { name: value.clone(), line: t.line }),
                _ => None,
            })
            .collect();
    }
    Vec::new()
}

/// Runs the exhaustiveness check given the three artifacts' contents.
/// `readme`/`server_src` are `None` when the file is missing entirely.
pub fn check(
    protocol_path: &str,
    protocol_src: &str,
    readme: Option<&str>,
    server_path: &str,
    server_src: Option<&str>,
) -> Vec<Finding> {
    let verbs = parse_verbs(protocol_src);
    let mut findings = Vec::new();
    if verbs.is_empty() {
        return findings;
    }
    for verb in &verbs {
        let documented = readme.is_some_and(|text| {
            text.contains(&format!("`{}`", verb.name))
                || text.contains(&format!("\"op\":\"{}\"", verb.name))
                || text.contains(&format!("\"op\": \"{}\"", verb.name))
        });
        if !documented {
            findings.push(Finding::new(
                protocol_path,
                verb.line,
                Rule::WireProtocol,
                format!("verb `{}` has no README protocol section", verb.name),
            ));
        }
    }
    for (fields, kind) in [
        (query_spec_fields(protocol_src), "query setting"),
        (response_fields(protocol_src), "response field"),
    ] {
        for field in fields {
            let documented = readme.is_some_and(|text| text.contains(&format!("`{}`", field.name)));
            if !documented {
                findings.push(Finding::new(
                    protocol_path,
                    field.line,
                    Rule::WireProtocol,
                    format!("{kind} `{}` has no backticked README mention", field.name),
                ));
            }
        }
    }
    let (families, keys) = server_src.map(counter_literals).unwrap_or_default();
    for (literals, family) in [(families, true), (keys, false)] {
        for literal in literals {
            let name = &literal.name;
            // Besides `name`: a labeled family's `name{label=…}`, or a
            // stats key in a README example.
            let other = if family { format!("`{name}{{") } else { format!("\"{name}\":") };
            let documented = readme
                .is_some_and(|text| text.contains(&format!("`{name}`")) || text.contains(&other));
            if !documented {
                let kind = if family { "metric family" } else { "stats key" };
                findings.push(Finding::new(
                    server_path,
                    literal.line,
                    Rule::WireProtocol,
                    format!("{kind} `{name}` has no README mention"),
                ));
            }
        }
    }
    let table = server_src.map(verbs_table).unwrap_or_default();
    for verb in &verbs {
        if !table.iter().any(|t| t.name == verb.name) {
            findings.push(Finding::new(
                protocol_path,
                verb.line,
                Rule::WireProtocol,
                format!(
                    "verb `{}` is missing from the server `VERBS` table (requests_by_verb)",
                    verb.name
                ),
            ));
        }
    }
    for entry in &table {
        if !verbs.iter().any(|v| v.name == entry.name) {
            findings.push(Finding::new(
                server_path,
                entry.line,
                Rule::WireProtocol,
                format!("`VERBS` lists `{}` but Request::parse has no arm for it", entry.name),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROTOCOL: &str = r#"
        impl Request {
            pub fn parse(line: &str) -> Result<Request, String> {
                match op {
                    "prepare" => Ok(Request::Prepare),
                    "solve" | "solve_batch" => todo(),
                    other => Err(format!("unknown op `{other}`")),
                }
            }
        }
        fn parse_name(json: &Json) -> Result<String, String> {
            match kind { "nested" => here, _ => there }
        }
    "#;

    #[test]
    fn verbs_come_only_from_pub_fn_parse() {
        let verbs: Vec<String> = parse_verbs(PROTOCOL).into_iter().map(|v| v.name).collect();
        assert_eq!(verbs, vec!["prepare", "solve", "solve_batch"]);
    }

    const FIELDS: &str = r#"
        fn parse_query_spec(json: &Json) -> Result<QuerySpec, String> {
            let bag = json.get("bag");
            let deadline_ms = match json.get("deadline_ms") { _ => None };
            let oops = format!("not a field: {}", "loose literal");
            Ok(QuerySpec { bag, deadline_ms })
        }
        pub fn outcome_json(outcome: &O) -> Json {
            let mut pairs = vec![("value", value_json(outcome.value))];
            pairs.push(("bounds", Json::Array(vec![])));
            Json::object(pairs)
        }
        pub fn tiered_outcome_json(tiered: &T) -> Json {
            let mut pairs = vec![];
            pairs.push(("tier".to_string(), Json::Str(tiered.tier.to_string())));
            Json::Object(pairs)
        }
    "#;

    #[test]
    fn query_settings_and_response_fields_are_extracted() {
        let fields: Vec<String> = query_spec_fields(FIELDS).into_iter().map(|f| f.name).collect();
        assert_eq!(fields, vec!["bag", "deadline_ms"]);
        let fields: Vec<String> = response_fields(FIELDS).into_iter().map(|f| f.name).collect();
        assert_eq!(fields, vec!["value", "bounds", "tier"]);
    }

    #[test]
    fn undocumented_fields_fire_and_documented_ones_stay_clean() {
        let src = format!("{PROTOCOL}\n{FIELDS}");
        let server = "const VERBS: [&str; 3] = [\"prepare\", \"solve\", \"solve_batch\"];";
        let clean = "`prepare`, `solve`, `solve_batch`: settings `bag` and `deadline_ms`; \
                     responses carry `value`, `bounds` and `tier`.";
        assert!(check("p.rs", &src, Some(clean), "s.rs", Some(server)).is_empty());
        // Drop `deadline_ms` and `tier` from the docs: one finding each.
        let stale = "`prepare`, `solve`, `solve_batch`: settings `bag`; \
                     responses carry `value` and `bounds`.";
        let findings = check("p.rs", &src, Some(stale), "s.rs", Some(server));
        let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(findings.len(), 2, "{messages:?}");
        assert!(messages.iter().any(|m| m.contains("query setting `deadline_ms`")));
        assert!(messages.iter().any(|m| m.contains("response field `tier`")));
    }

    #[test]
    fn verbs_table_extraction() {
        let src = "const VERBS: [&str; 2] = [\"prepare\", \"solve\"];";
        let names: Vec<String> = verbs_table(src).into_iter().map(|v| v.name).collect();
        assert_eq!(names, vec!["prepare", "solve"]);
    }

    #[test]
    fn missing_readme_and_table_entries_fire() {
        let readme = "Use `prepare` first, then send {\"op\":\"solve\"} lines.";
        let server = "const VERBS: [&str; 2] = [\"prepare\", \"retired_verb\"];";
        let findings = check("p.rs", PROTOCOL, Some(readme), "s.rs", Some(server));
        let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(findings.len(), 4);
        assert!(messages.iter().any(|m| m.contains("`solve_batch` has no README")));
        assert!(messages.iter().any(|m| m.contains("`solve_batch` is missing")));
        assert!(messages.iter().any(|m| m.contains("`solve` is missing")));
        assert!(messages.iter().any(|m| m.contains("`retired_verb`")));
    }

    const COUNTERS: &str = r#"
        const VERBS: [&str; 3] = ["prepare", "solve", "solve_batch"];
        fn counters(&self) -> Vec<(&'static str, Vec<Counter>)> {
            let top = vec![
                stat("requests", 3).metric("rpq_requests_total", "Requests (any verb)."),
                stat("threads", 4),
            ];
            let tier = |key, value| Counter { label: "tier", ..stat(key, value) };
            let router = vec![
                tier("poly", 1),
                Counter { value: Json::Bool(false), ..stat("overloaded", 0) },
            ];
            vec![("", top), ("router", router)]
        }
        fn elsewhere() { stat("not_a_counter", 0).metric("rpq_elsewhere", "Not linted.") }
    "#;

    #[test]
    fn counter_families_and_stats_keys_are_extracted() {
        let (families, keys) = counter_literals(COUNTERS);
        let names = |list: Vec<Verb>| list.into_iter().map(|v| v.name).collect::<Vec<_>>();
        assert_eq!(names(families), vec!["rpq_requests_total"]);
        assert_eq!(names(keys), vec!["requests", "threads", "poly", "overloaded", "router"]);
    }

    #[test]
    fn undocumented_counters_fire() {
        let verbs = "`prepare`, `solve`, `solve_batch`.";
        let clean = format!(
            "{verbs} `rpq_requests_total`; the `router` object holds `poly` and `overloaded`: \
             {{\"requests\":3,\"threads\":4}}"
        );
        assert!(check("p.rs", PROTOCOL, Some(&clean), "s.rs", Some(COUNTERS)).is_empty());
        // A labeled mention documents a family too.
        let labeled = clean.replace("`rpq_requests_total`", "`rpq_requests_total{verb=…}`");
        assert!(check("p.rs", PROTOCOL, Some(&labeled), "s.rs", Some(COUNTERS)).is_empty());
        // An example key counts only with its colon; a family needs backticks.
        let stale =
            format!("{verbs} rpq_requests_total; `router`, `poly`, `overloaded`, \"threads\"");
        let findings = check("p.rs", PROTOCOL, Some(&stale), "s.rs", Some(COUNTERS));
        let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(findings.len(), 3, "{messages:?}");
        assert!(messages.iter().any(|m| m.contains("metric family `rpq_requests_total`")));
        assert!(messages.iter().any(|m| m.contains("stats key `requests`")));
        assert!(messages.iter().any(|m| m.contains("stats key `threads`")));
        assert!(findings.iter().all(|f| f.file == "s.rs"));
    }

    #[test]
    fn consistent_artifacts_are_clean() {
        let readme = "`prepare`, `solve`, `solve_batch` are documented here.";
        let server = "const VERBS: [&str; 3] = [\"prepare\", \"solve\", \"solve_batch\"];";
        assert!(check("p.rs", PROTOCOL, Some(readme), "s.rs", Some(server)).is_empty());
    }
}
