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
//! characters; a trailing `!` declares the fact exogenous. The format exists
//! for examples and tests, not for bulk data.

use crate::db::GraphDb;
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

/// Parses a graph database from the text format.
pub fn parse(input: &str) -> Result<GraphDb, ParseError> {
    let mut db = GraphDb::new();
    for (i, raw_line) in input.lines().enumerate() {
        let line_no = i + 1;
        let line = raw_line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts: Vec<&str> = line.split_whitespace().collect();
        // A trailing `!` marks the fact as exogenous (weight +∞).
        let exogenous = parts.last() == Some(&"!");
        if exogenous {
            parts.pop();
        }
        if parts.len() != 3 && parts.len() != 4 {
            return Err(ParseError {
                line: line_no,
                message: format!("expected `source label target [multiplicity] [!]`, got {line:?}"),
            });
        }
        let label: Vec<char> = parts[1].chars().collect();
        if label.len() != 1 {
            return Err(ParseError {
                line: line_no,
                message: format!("label must be a single character, got {:?}", parts[1]),
            });
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
        let s = db.node(parts[0]);
        let t = db.node(parts[2]);
        let label = rpq_automata::alphabet::Letter(label[0]);
        let Some(id) = db.try_add_fact_with_multiplicity(s, label, t, multiplicity) else {
            return Err(ParseError {
                line: line_no,
                message: format!(
                    "the accumulated multiplicity of `{} {label} {}` overflows u64",
                    parts[0], parts[2]
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
    fn overflowing_bag_multiplicities_are_parse_errors() {
        // Wrapping would turn 2^64 - 1 + 2 into 1 and silently answer
        // resilience 1 for `ab` on this database instead of 5.
        let err = parse("s a u 18446744073709551615\ns a u 2\nu b t 5\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("overflows u64"), "{err}");
        // Up to the limit the multiplicities still accumulate.
        let db = parse("s a u 18446744073709551614\ns a u 1\n").unwrap();
        assert_eq!(db.total_multiplicity(), u64::MAX);
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
