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
//! parser makes no allocation per line. One byte pass over the whole text
//! finds the line ends and the tokens together (the patch format of
//! [`crate::delta`] shares it), putting each line's tokens in a fixed array;
//! names and facts are interned through the id tables of [`GraphDb`], sized
//! up front from the input's newline count. On a 2-core Xeon VM it reads a
//! 512-fact `ax*b` flow network at ~130 ns per fact, of which the byte pass
//! is ~40 ns and name and fact hashing most of the rest (best of 300
//! in-process runs over 16 such databases). New nodes and facts get
//! identifiers in order of first appearance.

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

/// One line of a text as [`lines`] yields it.
pub(crate) struct Line<'a, const N: usize> {
    /// 1-based line number.
    pub number: usize,
    /// The line as [`str::lines`] yields it: without its `\n` or `\r\n`.
    pub raw: &'a str,
    /// The first `min(count, N)` words of the line's [`content`]; the rest
    /// of the array is empty strings.
    pub tokens: [&'a str; N],
    /// How many words [`str::split_whitespace`] finds in the line's
    /// [`content`]. A count of `N + 1` means "more than `N`": a longer line
    /// is invalid anyway, so its extra words are not kept.
    pub count: usize,
}

/// The lines of `text` with their tokens: what [`str::lines`] yields, each
/// split like `content(raw).split_whitespace()`, from one pass over the
/// bytes and with no allocation. ASCII bytes are classified by table, and
/// only a non-ASCII character is decoded, to test it for Unicode whitespace.
/// A `#` comment or an `N + 1`-th word ends the tokenizing of its line; the
/// rest of the line is only searched for its newline.
pub(crate) fn lines<const N: usize>(text: &str) -> Lines<'_, N> {
    Lines { text, pos: 0, number: 0 }
}

/// The iterator of [`lines`].
pub(crate) struct Lines<'a, const N: usize> {
    text: &'a str,
    /// Byte offset of the next line's start.
    pos: usize,
    /// Number of the line yielded last.
    number: usize,
}

/// What the tokenizer makes of a character.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Part of a word.
    Word,
    /// Whitespace other than `\n`.
    Space,
    /// `\n`: the end of a line.
    Newline,
    /// `#`: the start of a comment.
    Hash,
    /// The first byte of a non-ASCII character (in [`BYTE_CLASSES`] only).
    NonAscii,
}

/// The class of every byte: ASCII whitespace is `\t`..=`\r` and space, as
/// for [`char::is_whitespace`].
const BYTE_CLASSES: [Class; 256] = {
    let mut classes = [Class::NonAscii; 256];
    let mut byte = 0;
    while byte < 0x80 {
        classes[byte] = match byte as u8 {
            b'\n' => Class::Newline,
            b'#' => Class::Hash,
            b'\t'..=b'\r' | b' ' => Class::Space,
            _ => Class::Word,
        };
        byte += 1;
    }
    classes
};

impl<const N: usize> Lines<'_, N> {
    /// The class and byte width of the character at byte `i` (a character
    /// boundary), or `None` at the end of the text. A non-ASCII character is
    /// `Space` or `Word`.
    #[inline]
    fn class_at(&self, i: usize) -> Option<(Class, usize)> {
        let byte = *self.text.as_bytes().get(i)?;
        match BYTE_CLASSES[usize::from(byte)] {
            Class::NonAscii => {
                let c = self.text[i..].chars().next()?;
                Some((if c.is_whitespace() { Class::Space } else { Class::Word }, c.len_utf8()))
            }
            class => Some((class, 1)),
        }
    }

    /// The offset of the first `\n` at or after `i`, or the text's length.
    fn line_end(&self, i: usize) -> usize {
        let rest = &self.text.as_bytes()[i..];
        i + rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len())
    }
}

impl<'a, const N: usize> Iterator for Lines<'a, N> {
    type Item = Line<'a, N>;

    fn next(&mut self) -> Option<Line<'a, N>> {
        let text = self.text;
        let start = self.pos;
        if start >= text.len() {
            return None;
        }
        let mut tokens = [""; N];
        let mut count = 0;
        let mut i = start;
        let end = loop {
            // Whitespace up to the next word.
            let Some((class, width)) = self.class_at(i) else { break i };
            match class {
                Class::Space => {
                    i += width;
                    continue;
                }
                Class::Newline => break i,
                Class::Hash => break self.line_end(i),
                Class::Word | Class::NonAscii => {}
            }
            // The word, up to whitespace, a newline, a `#` or the end.
            let word = i;
            i += width;
            while let Some((Class::Word, width)) = self.class_at(i) {
                i += width;
            }
            if let Some(token) = tokens.get_mut(count) {
                *token = &text[word..i];
            }
            count += 1;
            if count > N {
                break self.line_end(i);
            }
        };
        // `end` is at the line's `\n` or at the end of the text.
        let raw = &text[start..end];
        let raw = if end < text.len() {
            self.pos = end + 1;
            raw.strip_suffix('\r').unwrap_or(raw)
        } else {
            self.pos = end;
            raw
        };
        self.number += 1;
        Some(Line { number: self.number, raw, tokens, count })
    }
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
    let line_count = input.bytes().filter(|&b| b == b'\n').count() + 1;
    let mut db = GraphDb::with_capacity(line_count, line_count);
    for line in lines::<MAX_TOKENS>(input) {
        let Line { number: line_no, raw: raw_line, tokens: parts, mut count } = line;
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
        // Line endings (`\n`, `\r\n`, a lone `\r`), ASCII and Unicode
        // whitespace (U+0085 and U+2028 end no line for `str::lines`),
        // comment marks and multi-byte letters. Up to 40 pieces, so many
        // lines have more than `MAX_TOKENS` words, and the last line may lack
        // its newline.
        let pieces = [
            "u", "ab", "é", "日本", "!", "3", "#", " ", "\t", "\r", "\n", "\r\n", "\x0b", "\x0c",
            "\u{85}", "\u{a0}", "\u{1680}", "\u{2003}", "\u{2028}", "\u{3000}", "\u{1c}",
            "\u{200b}",
        ];
        for seed in 0..5000 {
            let mut rng = StdRng::seed_from_u64(seed);
            let text: String = (0..rng.gen_range(0..40usize))
                .map(|_| pieces[rng.gen_range(0..pieces.len())])
                .collect();
            let mut actual = lines::<MAX_TOKENS>(&text);
            for (i, raw) in text.lines().enumerate() {
                let line =
                    actual.next().unwrap_or_else(|| panic!("line {} missing: {text:?}", i + 1));
                let words: Vec<&str> = content(raw).split_whitespace().collect();
                assert_eq!((line.number, line.raw), (i + 1, raw), "{text:?}");
                assert_eq!(line.count, words.len().min(MAX_TOKENS + 1), "{text:?}");
                let kept = words.len().min(MAX_TOKENS);
                assert_eq!(line.tokens[..kept], words[..kept], "{text:?}");
                assert!(line.tokens[kept..].iter().all(|t| t.is_empty()), "{text:?}");
            }
            assert!(actual.next().is_none(), "{text:?}");
        }
        assert!(lines::<MAX_TOKENS>("").next().is_none());
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
