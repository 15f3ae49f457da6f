//! Fact deltas: the append-only change log behind snapshot databases.
//!
//! `rpq-store` models a hosted database as a log of [`FactChange`] entries; a
//! *snapshot* is simply a log offset, so taking one is O(1) and immutable by
//! construction. This module owns the change vocabulary, the text format for
//! patches, and the fold of a log into a concrete [`GraphDb`]: [`apply`]
//! applies changes to a database in place, and [`materialize`] is [`apply`]
//! on an empty database.
//!
//! A patch is line-based, mirroring [`crate::text`]:
//!
//! ```text
//! # comment
//! + u a v        # put fact u -a-> v with multiplicity 1
//! + u x v 3      # put with multiplicity 3
//! + u b v !      # put an exogenous fact
//! - u a v        # delete the fact u -a-> v (no-op if absent)
//! ```
//!
//! **Put overwrites.** Re-putting an existing `(source, label, target)` fact
//! replaces its multiplicity and exogenous flag — it does not accumulate the
//! multiplicities the way [`GraphDb::add_fact_with_multiplicity`] does. The
//! last write to a key wins, and patches have upsert semantics.
//!
//! # Numbering
//!
//! The fold numbers nodes and facts by these rules alone:
//!
//! * a put of a new key appends its fact, and a name not seen before appends
//!   its node (source first);
//! * a put of a present key overwrites the fact's multiplicity and exogenous
//!   flag, and keeps its id;
//! * a delete removes its fact by **swap-remove**: the last fact takes the
//!   deleted fact's id ([`GraphDb::remove_fact`]);
//! * nodes are never removed or renumbered, so a node whose facts were all
//!   deleted stays.
//!
//! **The numbering is a contract.** Advancing any materialization of
//! `log[..n]` by `log[n..m]` numbers nodes and facts exactly as
//! `materialize(&log[..m])` does, since both are the same fold. `rpq-store`
//! relies on it twice: it advances its newest materialization in place
//! instead of rebuilding the head, and its result cache keeps the
//! [`FactId`](crate::FactId)s of a solved snapshot and renders them against
//! whichever materialization of that snapshot exists when the cache hits,
//! which may be a from-scratch fold after an eviction. `db_put` caches the
//! database [`crate::text::parse`] built: the fold of its
//! [`changes_from_db`] log numbers it alike, because the parser creates
//! nodes only for facts, in the same first-appearance order.

use crate::db::GraphDb;
use crate::text::{self, ParseError};
use rpq_automata::alphabet::Letter;

/// One entry of a database's append-only fact log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FactChange {
    /// Insert or overwrite the fact `source --label--> target`.
    Put {
        /// Source node name.
        source: String,
        /// Edge label.
        label: Letter,
        /// Target node name.
        target: String,
        /// Multiplicity (bag semantics weight), must be positive.
        multiplicity: u64,
        /// Whether the fact is exogenous (weight `+∞`, can never be removed).
        exogenous: bool,
    },
    /// Remove the fact `source --label--> target` entirely (no-op if absent).
    Delete {
        /// Source node name.
        source: String,
        /// Edge label.
        label: Letter,
        /// Target node name.
        target: String,
    },
}

impl FactChange {
    /// The `(source, label, target)` key the change addresses.
    pub fn key(&self) -> (&str, Letter, &str) {
        match self {
            FactChange::Put { source, label, target, .. }
            | FactChange::Delete { source, label, target } => {
                (source.as_str(), *label, target.as_str())
            }
        }
    }

    /// An estimate of the heap bytes the entry retains (node names plus the
    /// fixed fields), used by the store's log-size accounting.
    pub fn log_bytes(&self) -> usize {
        let (source, _, target) = self.key();
        source.len() + target.len() + std::mem::size_of::<FactChange>()
    }
}

/// The most tokens a patch line can have: `op source label target multiplicity !`.
const MAX_TOKENS: usize = 6;

/// Parses a patch in the line-based text format (see the [module docs](self)).
pub fn parse_patch(input: &str) -> Result<Vec<FactChange>, ParseError> {
    let mut changes = Vec::new();
    for line in text::lines::<MAX_TOKENS>(input) {
        let text::Line { number: line_no, raw: raw_line, tokens: parts, mut count } = line;
        if count == 0 {
            continue;
        }
        // A trailing `!` after the op marks an exogenous fact.
        let exogenous = (2..=MAX_TOKENS).contains(&count) && parts[count - 1] == "!";
        if exogenous {
            count -= 1;
        }
        let [op, source, label, target, multiplicity, _] = parts;
        let fields = count - 1;
        let wrong_shape = |expected: &str| ParseError {
            line: line_no,
            message: format!("expected `{expected}`, got {:?}", text::content(raw_line)),
        };
        match op {
            "+" => {
                if fields != 3 && fields != 4 {
                    return Err(wrong_shape("+ source label target [multiplicity] [!]"));
                }
                let multiplicity: u64 = if fields == 4 {
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
                changes.push(FactChange::Put {
                    source: source.to_string(),
                    label: text::single_letter(label, line_no)?,
                    target: target.to_string(),
                    multiplicity,
                    exogenous,
                });
            }
            "-" => {
                if exogenous || fields != 3 {
                    return Err(wrong_shape("- source label target"));
                }
                changes.push(FactChange::Delete {
                    source: source.to_string(),
                    label: text::single_letter(label, line_no)?,
                    target: target.to_string(),
                });
            }
            other => {
                return Err(ParseError {
                    line: line_no,
                    message: format!("expected `+` or `-` as the first field, got {other:?}"),
                });
            }
        }
    }
    Ok(changes)
}

/// Converts a concrete database into the equivalent log of `Put` entries
/// (used by `db_put`, which seeds a fresh log from a full database text).
pub fn changes_from_db(db: &GraphDb) -> Vec<FactChange> {
    db.facts()
        .map(|(id, fact)| FactChange::Put {
            source: db.node_name(fact.source).to_string(),
            label: fact.label,
            target: db.node_name(fact.target).to_string(),
            multiplicity: db.multiplicity(id),
            exogenous: db.is_exogenous(id),
        })
        .collect()
}

/// Applies `changes` to `db` in place, in order (see the
/// [numbering rules](self#numbering)). A delete of an absent fact, or of a
/// fact between names `db` does not have, is a no-op and adds no node.
pub fn apply(db: &mut GraphDb, changes: &[FactChange]) {
    for change in changes {
        match change {
            FactChange::Put { source, label, target, multiplicity, exogenous } => {
                let s = db.node(source);
                let t = db.node(target);
                db.put_fact(s, *label, t, *multiplicity, *exogenous);
            }
            FactChange::Delete { source, label, target } => {
                let (Some(s), Some(t)) = (db.find_node(source), db.find_node(target)) else {
                    continue;
                };
                if let Some(id) = db.find_fact(s, *label, t) {
                    db.remove_fact(id);
                }
            }
        }
    }
}

/// The database a change log describes: [`apply`] on an empty database whose
/// tables are sized for one node and one fact per entry.
pub fn materialize(changes: &[FactChange]) -> GraphDb {
    let mut db = GraphDb::with_capacity(changes.len(), changes.len());
    apply(&mut db, changes);
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::NodeId;
    use crate::text;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The fold kept the obvious way: names and facts in plain `Vec`s,
    /// found by linear scans. It is the reference [`materialize`] must match
    /// id for id, built into a `GraphDb` by adding its nodes and facts in id
    /// order.
    fn materialize_model<'a>(changes: &'a [FactChange]) -> GraphDb {
        let mut names: Vec<&str> = Vec::new();
        let mut facts: Vec<(usize, Letter, usize, u64, bool)> = Vec::new();
        let position = |names: &[&str], name: &str| names.iter().position(|&n| n == name);
        for change in changes {
            match change {
                FactChange::Put { source, label, target, multiplicity, exogenous } => {
                    let mut node = |name: &'a str| {
                        position(&names, name).unwrap_or_else(|| {
                            names.push(name);
                            names.len() - 1
                        })
                    };
                    let (s, t) = (node(source), node(target));
                    let state = (s, *label, t, *multiplicity, *exogenous);
                    match facts.iter().position(|f| (f.0, f.1, f.2) == (s, *label, t)) {
                        Some(i) => facts[i] = state,
                        None => facts.push(state),
                    }
                }
                FactChange::Delete { source, label, target } => {
                    let (Some(s), Some(t)) = (position(&names, source), position(&names, target))
                    else {
                        continue;
                    };
                    if let Some(i) = facts.iter().position(|f| (f.0, f.1, f.2) == (s, *label, t)) {
                        facts.swap_remove(i);
                    }
                }
            }
        }
        let mut db = GraphDb::new();
        for name in names {
            db.node(name);
        }
        for (s, label, t, multiplicity, exogenous) in facts {
            let (s, t) = (NodeId(s as u32), NodeId(t as u32));
            let id = db.add_fact_with_multiplicity(s, label, t, multiplicity);
            db.set_exogenous(id, exogenous);
        }
        db
    }

    /// A random log over a few names and labels: puts, overwrites (new
    /// multiplicities, exogenous toggles), deletes of live and absent
    /// keys, and re-inserts after deletes.
    fn random_log(seed: u64) -> Vec<FactChange> {
        let mut rng = StdRng::seed_from_u64(seed);
        let names = ["u", "v", "w", "é", "_n1", "node_5"];
        let mut log = Vec::new();
        for _ in 0..rng.gen_range(0..60usize) {
            let source = names[rng.gen_range(0..names.len())].to_string();
            let target = names[rng.gen_range(0..names.len())].to_string();
            let label = Letter(['a', 'b', 'x'][rng.gen_range(0..3usize)]);
            if rng.gen_bool(0.3) {
                log.push(FactChange::Delete { source, label, target });
            } else {
                let multiplicity = if rng.gen_bool(0.5) { 1 } else { rng.gen_range(2..6u64) };
                let exogenous = rng.gen_bool(0.25);
                log.push(FactChange::Put { source, label, target, multiplicity, exogenous });
            }
        }
        log
    }

    /// Asserts that `got` numbers nodes and facts exactly as `want` does,
    /// with the same names, multiplicities and exogenous flags.
    fn assert_same_numbering(got: &GraphDb, want: &GraphDb, context: &str) {
        assert_eq!(got.num_nodes(), want.num_nodes(), "{context}");
        for node in want.nodes() {
            assert_eq!(got.node_name(node), want.node_name(node), "{context}");
            assert_eq!(got.find_node(want.node_name(node)), Some(node), "{context}");
        }
        assert_eq!(got.facts().collect::<Vec<_>>(), want.facts().collect::<Vec<_>>(), "{context}");
        for id in want.fact_ids() {
            assert_eq!(got.multiplicity(id), want.multiplicity(id), "{context}");
            assert_eq!(got.is_exogenous(id), want.is_exogenous(id), "{context}");
        }
    }

    #[test]
    fn materialize_matches_a_vec_model_of_the_fold_on_random_logs() {
        for seed in 0..600 {
            let log = random_log(seed);
            for end in [log.len() / 2, log.len()] {
                let (got, want) = (materialize(&log[..end]), materialize_model(&log[..end]));
                assert_same_numbering(&got, &want, &format!("seed {seed}"));
            }
        }
    }

    #[test]
    fn apply_in_chunks_matches_every_prefix_materialization() {
        for seed in 0..300 {
            let log = random_log(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut db = GraphDb::new();
            let mut at = 0;
            loop {
                let want = materialize(&log[..at]);
                assert_same_numbering(&db, &want, &format!("seed {seed} at {at}"));
                if at == log.len() {
                    break;
                }
                let end = (at + rng.gen_range(0..8usize)).min(log.len());
                apply(&mut db, &log[at..end]);
                at = end;
            }
        }
    }

    #[test]
    fn a_delete_swaps_the_last_fact_in_and_keeps_every_node() {
        // Deleting fact 0 moves the last fact, `v b s`, to id 0; the nodes
        // keep their ids, and the re-put appends.
        let log = parse_patch("+ s a u\n+ u x v\n+ v b s\n- s a u\n+ s a u 2\n").unwrap();
        let mut db = GraphDb::new();
        for (at, change) in log.iter().enumerate() {
            apply(&mut db, std::slice::from_ref(change));
            let want = materialize(&log[..=at]);
            assert_same_numbering(&db, &want, &format!("after entry {at}"));
        }
        let deleted = materialize(&log[..4]);
        let names: Vec<&str> = deleted.nodes().map(|n| deleted.node_name(n)).collect();
        assert_eq!(names, ["s", "u", "v"]);
        let facts: Vec<String> = deleted.fact_ids().map(|f| deleted.display_fact(f)).collect();
        assert_eq!(facts, ["v -b-> s", "u -x-> v"]);
        let facts: Vec<String> = db.fact_ids().map(|f| db.display_fact(f)).collect();
        assert_eq!(facts, ["v -b-> s", "u -x-> v", "s -a-> u"]);
        assert_eq!(db.multiplicity(crate::FactId(2)), 2);
        // A node whose last fact is deleted stays.
        let db = materialize(&parse_patch("+ p a q\n- p a q\n").unwrap());
        assert_eq!((db.num_nodes(), db.num_facts()), (2, 0));
    }

    #[test]
    fn materialize_numbers_a_parsed_database_as_the_parser_does() {
        // `db_put` caches the parsed database at the offset the fold later
        // advances: both must number nodes and facts alike, repeated lines
        // (bag accumulation, exogenous marks) included.
        let names = ["u", "v", "w", "é", "_n1"];
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut text = String::new();
            for _ in 0..rng.gen_range(0..30usize) {
                let source = names[rng.gen_range(0..names.len())];
                let target = names[rng.gen_range(0..names.len())];
                let label = ['a', 'b'][rng.gen_range(0..2usize)];
                text.push_str(&format!("{source} {label} {target}"));
                if rng.gen_bool(0.4) {
                    text.push_str(&format!(" {}", rng.gen_range(1..4u64)));
                }
                if rng.gen_bool(0.2) {
                    text.push_str(" !");
                }
                text.push('\n');
            }
            let parsed = text::parse(&text).unwrap();
            let folded = materialize(&changes_from_db(&parsed));
            assert_same_numbering(&folded, &parsed, &format!("seed {seed}: {text:?}"));
        }
    }

    /// The patch parser as it was written before it shared the tokenizer of
    /// [`crate::text`]: a `Vec` of tokens per line. Errors must match it byte
    /// for byte.
    fn parse_patch_reference(input: &str) -> Result<Vec<FactChange>, ParseError> {
        let mut changes = Vec::new();
        for (i, raw_line) in input.lines().enumerate() {
            let line_no = i + 1;
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts: Vec<&str> = line.split_whitespace().collect();
            let op = parts.remove(0);
            let exogenous = parts.last() == Some(&"!");
            if exogenous {
                parts.pop();
            }
            let fields = |expected: &str| ParseError {
                line: line_no,
                message: format!("expected `{expected}`, got {line:?}"),
            };
            let single_letter = |s: &str| -> Result<Letter, ParseError> {
                let chars: Vec<char> = s.chars().collect();
                if chars.len() != 1 {
                    return Err(ParseError {
                        line: line_no,
                        message: format!("label must be a single character, got {s:?}"),
                    });
                }
                Ok(Letter(chars[0]))
            };
            match op {
                "+" => {
                    if parts.len() != 3 && parts.len() != 4 {
                        return Err(fields("+ source label target [multiplicity] [!]"));
                    }
                    let multiplicity: u64 = if parts.len() == 4 {
                        parts[3].parse().map_err(|_| ParseError {
                            line: line_no,
                            message: format!("invalid multiplicity {:?}", parts[3]),
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
                    changes.push(FactChange::Put {
                        source: parts[0].to_string(),
                        label: single_letter(parts[1])?,
                        target: parts[2].to_string(),
                        multiplicity,
                        exogenous,
                    });
                }
                "-" => {
                    if exogenous || parts.len() != 3 {
                        return Err(fields("- source label target"));
                    }
                    changes.push(FactChange::Delete {
                        source: parts[0].to_string(),
                        label: single_letter(parts[1])?,
                        target: parts[2].to_string(),
                    });
                }
                other => {
                    return Err(ParseError {
                        line: line_no,
                        message: format!("expected `+` or `-` as the first field, got {other:?}"),
                    });
                }
            }
        }
        Ok(changes)
    }

    #[test]
    fn patch_parsing_matches_the_vec_tokenizer_reference() {
        let tokens = ["+", "-", "*", "!", "u", "é", "ab", "x", "3", "0", "-1", "#", "# c"];
        let gaps = [" ", "\t", "  ", " \u{a0}"];
        for seed in 0..2000 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut text = String::new();
            for _ in 0..rng.gen_range(1..4usize) {
                // Mostly well-formed lines, so later lines are reached too.
                if rng.gen_bool(0.7) {
                    let op = if rng.gen_bool(0.5) { "+" } else { "-" };
                    text.push_str(op);
                    text.push_str(" u a v");
                    if op == "+" && rng.gen_bool(0.5) {
                        text.push_str(" 2 !");
                    }
                } else {
                    for _ in 0..rng.gen_range(0..8usize) {
                        text.push_str(tokens[rng.gen_range(0..tokens.len())]);
                        text.push_str(gaps[rng.gen_range(0..gaps.len())]);
                    }
                }
                text.push_str(if rng.gen_bool(0.5) { "\n" } else { "\r\n" });
            }
            assert_eq!(parse_patch(&text), parse_patch_reference(&text), "{text:?}");
        }
    }

    #[test]
    fn patches_parse_and_replay() {
        let changes =
            parse_patch("# edits\n+ s a u\n+ u x v 3\n+ v b t 2 !\n- u x v\n+ u x v 5\n").unwrap();
        assert_eq!(changes.len(), 5);
        let db = materialize(&changes);
        assert_eq!(db.num_facts(), 3);
        let u = db.find_node("u").unwrap();
        let v = db.find_node("v").unwrap();
        let f = db.find_fact(u, Letter('x'), v).unwrap();
        assert_eq!(db.multiplicity(f), 5);
        let t = db.find_node("t").unwrap();
        let b = db.find_fact(v, Letter('b'), t).unwrap();
        assert!(db.is_exogenous(b));
        assert_eq!(db.multiplicity(b), 2);
    }

    #[test]
    fn put_overwrites_instead_of_accumulating() {
        let changes = parse_patch("+ u x v 3\n+ u x v 4\n").unwrap();
        let db = materialize(&changes);
        let u = db.find_node("u").unwrap();
        let v = db.find_node("v").unwrap();
        assert_eq!(db.multiplicity(db.find_fact(u, Letter('x'), v).unwrap()), 4);
        // Exogenous can be cleared by a later put too.
        let db = materialize(&parse_patch("+ u x v !\n+ u x v\n").unwrap());
        let u = db.find_node("u").unwrap();
        let v = db.find_node("v").unwrap();
        assert!(!db.is_exogenous(db.find_fact(u, Letter('x'), v).unwrap()));
    }

    #[test]
    fn deletes_are_idempotent_and_reinsertions_append() {
        let changes = parse_patch("+ a x b\n+ b x c\n- a x b\n- a x b\n+ a x b 7\n").unwrap();
        let db = materialize(&changes);
        assert_eq!(db.num_facts(), 2);
        // The delete moved `b x c` to id 0, and the re-put `a x b` comes last;
        // `a` keeps node id 0.
        let facts: Vec<String> = db.fact_ids().map(|f| db.display_fact(f)).collect();
        assert_eq!(facts, ["b -x-> c", "a -x-> b"]);
        assert_eq!(db.multiplicity(crate::FactId(1)), 7);
        assert_eq!(db.find_node("a"), Some(NodeId(0)));
    }

    #[test]
    fn prefix_materializations_agree_with_full_replay() {
        let changes =
            parse_patch("+ s a u\n+ u x v\n- s a u\n+ v b t\n+ s a u 2\n- u x v\n+ u x w\n")
                .unwrap();
        for n in 0..=changes.len() {
            let prefix = materialize(&changes[..n]);
            // Replaying the suffix on top of the prefix's log equals the
            // direct materialization (same net facts; the order can differ
            // when a key deleted before the split loses its first-put slot).
            let mut log = changes_from_db(&prefix);
            log.extend_from_slice(&changes[n..]);
            let sorted = |db: &crate::GraphDb| {
                let mut lines: Vec<String> =
                    text::serialize(db).lines().map(str::to_string).collect();
                lines.sort();
                lines
            };
            assert_eq!(sorted(&materialize(&log)), sorted(&materialize(&changes)), "split at {n}");
        }
    }

    #[test]
    fn malformed_patches_are_rejected_with_line_numbers() {
        for (input, fragment) in [
            ("* u a v", "expected `+` or `-`"),
            ("+ u ab v", "single character"),
            ("+ u a", "expected `+ source label target"),
            ("+ u a v 0", "positive"),
            ("+ u a v x", "invalid multiplicity"),
            ("- u a v !", "expected `- source label target"),
            ("- u a", "expected `- source label target"),
        ] {
            let err = parse_patch(input).unwrap_err();
            assert_eq!(err.line, 1, "{input}");
            assert!(err.message.contains(fragment), "{input}: {}", err.message);
        }
        assert_eq!(parse_patch("# only comments\n\n").unwrap(), Vec::new());
    }
}
