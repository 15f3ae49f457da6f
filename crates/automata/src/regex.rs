//! Regular expressions: AST, parser, and Thompson construction.
//!
//! The syntax follows the paper's notation: juxtaposition for concatenation,
//! `|` for union, `*` for the Kleene star. We additionally support `+`
//! (one-or-more), `?` (optional), parentheses, `ε` (or `_`) for the empty word
//! and `∅` for the empty language. Whitespace is ignored, so `a x* b` and
//! `ax*b` denote the same language. Any other non-reserved character is a
//! letter.
//!
//! Nesting is bounded by [`MAX_REGEX_DEPTH`]: every group and every postfix
//! operator adds one level, and a deeper expression is a parse error rather
//! than a stack overflow in the parser or in a later pass over the tree.

use crate::alphabet::{Alphabet, Letter};
use crate::enfa::Enfa;
use crate::error::{AutomataError, Result};
use crate::word::Word;
use std::fmt;

/// The deepest nesting [`Regex::parse`] accepts, counting one level per
/// group and per postfix operator (`((a))` and `a**` are both 2 deep). The
/// parser and the passes over the tree recurse once per level, so the bound
/// keeps a short hostile pattern from overflowing the stack; it matches the
/// JSON nesting bound of the server protocol.
pub const MAX_REGEX_DEPTH: usize = 128;

/// Abstract syntax tree of a regular expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Regex {
    /// The empty language ∅.
    Empty,
    /// The language {ε}.
    Epsilon,
    /// A single letter.
    Letter(Letter),
    /// Concatenation of sub-expressions (in order).
    Concat(Vec<Regex>),
    /// Union of sub-expressions.
    Union(Vec<Regex>),
    /// Kleene star.
    Star(Box<Regex>),
    /// One or more repetitions.
    Plus(Box<Regex>),
    /// Zero or one occurrence.
    Optional(Box<Regex>),
}

impl Regex {
    /// Parses a regular expression from its textual form.
    ///
    /// ```
    /// use rpq_automata::regex::Regex;
    /// let r = Regex::parse("a x* b | c x d").unwrap();
    /// assert!(r.to_string().contains('|'));
    /// ```
    pub fn parse(input: &str) -> Result<Regex> {
        Parser::new(input).parse()
    }

    /// Builds a regex that is the union of the given literal words.
    pub fn from_words<'a, I: IntoIterator<Item = &'a Word>>(words: I) -> Regex {
        let mut branches = Vec::new();
        for word in words {
            if word.is_empty() {
                branches.push(Regex::Epsilon);
            } else {
                branches.push(Regex::Concat(word.iter().map(Regex::Letter).collect()));
            }
        }
        match branches.len() {
            0 => Regex::Empty,
            1 => branches.pop().unwrap(),
            _ => Regex::Union(branches),
        }
    }

    /// The set of letters occurring in the expression.
    pub fn letters(&self) -> Alphabet {
        let mut letters = Vec::new();
        self.collect_letters(&mut letters);
        Alphabet::from_letters(letters)
    }

    fn collect_letters(&self, out: &mut Vec<Letter>) {
        match self {
            Regex::Empty | Regex::Epsilon => {}
            Regex::Letter(l) => out.push(*l),
            Regex::Concat(parts) | Regex::Union(parts) => {
                for p in parts {
                    p.collect_letters(out);
                }
            }
            Regex::Star(inner) | Regex::Plus(inner) | Regex::Optional(inner) => {
                inner.collect_letters(out)
            }
        }
    }

    /// Thompson construction: builds an ε-NFA recognizing the same language.
    pub fn to_enfa(&self) -> Enfa {
        let mut enfa = Enfa::new();
        let (start, end) = self.build(&mut enfa);
        enfa.set_initial(start);
        enfa.set_final(end);
        enfa
    }

    /// Recursively builds the fragment for `self`, returning (entry, exit) states.
    fn build(&self, enfa: &mut Enfa) -> (usize, usize) {
        match self {
            Regex::Empty => {
                let s = enfa.add_state();
                let t = enfa.add_state();
                (s, t)
            }
            Regex::Epsilon => {
                let s = enfa.add_state();
                let t = enfa.add_state();
                enfa.add_epsilon_transition(s, t);
                (s, t)
            }
            Regex::Letter(l) => {
                let s = enfa.add_state();
                let t = enfa.add_state();
                enfa.add_transition(s, *l, t);
                (s, t)
            }
            Regex::Concat(parts) => {
                if parts.is_empty() {
                    return Regex::Epsilon.build(enfa);
                }
                let mut iter = parts.iter();
                let (start, mut prev_end) = iter.next().unwrap().build(enfa);
                for part in iter {
                    let (s, t) = part.build(enfa);
                    enfa.add_epsilon_transition(prev_end, s);
                    prev_end = t;
                }
                (start, prev_end)
            }
            Regex::Union(parts) => {
                let s = enfa.add_state();
                let t = enfa.add_state();
                if parts.is_empty() {
                    return (s, t);
                }
                for part in parts {
                    let (ps, pt) = part.build(enfa);
                    enfa.add_epsilon_transition(s, ps);
                    enfa.add_epsilon_transition(pt, t);
                }
                (s, t)
            }
            Regex::Star(inner) => {
                let s = enfa.add_state();
                let t = enfa.add_state();
                let (is, it) = inner.build(enfa);
                enfa.add_epsilon_transition(s, t);
                enfa.add_epsilon_transition(s, is);
                enfa.add_epsilon_transition(it, t);
                enfa.add_epsilon_transition(it, is);
                (s, t)
            }
            Regex::Plus(inner) => {
                let s = enfa.add_state();
                let t = enfa.add_state();
                let (is, it) = inner.build(enfa);
                enfa.add_epsilon_transition(s, is);
                enfa.add_epsilon_transition(it, t);
                enfa.add_epsilon_transition(it, is);
                (s, t)
            }
            Regex::Optional(inner) => {
                let s = enfa.add_state();
                let t = enfa.add_state();
                let (is, it) = inner.build(enfa);
                enfa.add_epsilon_transition(s, t);
                enfa.add_epsilon_transition(s, is);
                enfa.add_epsilon_transition(it, t);
                (s, t)
            }
        }
    }
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn fmt_prec(r: &Regex, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
            // prec: 0 = union context, 1 = concat context, 2 = unary context
            match r {
                Regex::Empty => write!(f, "∅"),
                Regex::Epsilon => write!(f, "ε"),
                Regex::Letter(l) => write!(f, "{l}"),
                Regex::Union(parts) => {
                    let need_parens = prec > 0;
                    if need_parens {
                        write!(f, "(")?;
                    }
                    for (i, p) in parts.iter().enumerate() {
                        if i > 0 {
                            write!(f, "|")?;
                        }
                        fmt_prec(p, f, 0)?;
                    }
                    if need_parens {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Regex::Concat(parts) => {
                    let need_parens = prec > 1;
                    if need_parens {
                        write!(f, "(")?;
                    }
                    for p in parts {
                        fmt_prec(p, f, 1)?;
                    }
                    if need_parens {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Regex::Star(inner) => {
                    fmt_prec(inner, f, 2)?;
                    write!(f, "*")
                }
                Regex::Plus(inner) => {
                    fmt_prec(inner, f, 2)?;
                    write!(f, "+")
                }
                Regex::Optional(inner) => {
                    fmt_prec(inner, f, 2)?;
                    write!(f, "?")
                }
            }
        }
        fmt_prec(self, f, 0)
    }
}

/// Recursive-descent parser for the regex syntax described in the module docs.
///
/// Each `parse_*` method returns its subexpression with the subexpression's
/// *height*: the groups and postfix operators on its deepest path. `groups`
/// counts the groups open around the current position, so `groups + height`
/// is how deep a node ends up; it is checked against [`MAX_REGEX_DEPTH`]
/// whenever a group opens or a postfix operator applies.
struct Parser<'a> {
    chars: Vec<char>,
    pos: usize,
    groups: usize,
    input: &'a str,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { chars: input.chars().collect(), pos: 0, groups: 0, input }
    }

    fn parse(mut self) -> Result<Regex> {
        self.skip_ws();
        if self.pos >= self.chars.len() {
            // An empty input denotes the empty word, matching the convention
            // that an empty concatenation is ε.
            return Ok(Regex::Epsilon);
        }
        let (r, _) = self.parse_union()?;
        self.skip_ws();
        if self.pos < self.chars.len() {
            return Err(self.error(format!("unexpected character {:?}", self.chars[self.pos])));
        }
        Ok(r)
    }

    fn error(&self, message: String) -> AutomataError {
        let _ = self.input;
        AutomataError::RegexParse { position: self.pos, message }
    }

    /// Fails at the current position if a node of `height` inside the open
    /// groups would lie deeper than [`MAX_REGEX_DEPTH`].
    fn check_depth(&self, height: usize) -> Result<()> {
        if self.groups + height > MAX_REGEX_DEPTH {
            let message =
                format!("nesting deeper than {MAX_REGEX_DEPTH} groups and postfix operators");
            return Err(self.error(message));
        }
        Ok(())
    }

    fn skip_ws(&mut self) {
        while self.pos < self.chars.len() && self.chars[self.pos].is_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.get(self.pos).copied()
    }

    fn parse_union(&mut self) -> Result<(Regex, usize)> {
        let (first, mut height) = self.parse_concat()?;
        let mut branches = vec![first];
        while self.peek() == Some('|') {
            self.pos += 1;
            let (branch, h) = self.parse_concat()?;
            branches.push(branch);
            height = height.max(h);
        }
        if branches.len() == 1 {
            Ok((branches.pop().unwrap(), height))
        } else {
            Ok((Regex::Union(branches), height))
        }
    }

    fn parse_concat(&mut self) -> Result<(Regex, usize)> {
        let mut parts = Vec::new();
        let mut height = 0;
        loop {
            match self.peek() {
                None | Some('|') | Some(')') => break,
                _ => {
                    let (part, h) = self.parse_postfix()?;
                    parts.push(part);
                    height = height.max(h);
                }
            }
        }
        match parts.len() {
            0 => Ok((Regex::Epsilon, height)),
            1 => Ok((parts.pop().unwrap(), height)),
            _ => Ok((Regex::Concat(parts), height)),
        }
    }

    fn parse_postfix(&mut self) -> Result<(Regex, usize)> {
        let (mut base, mut height) = self.parse_atom()?;
        loop {
            let wrap: fn(Box<Regex>) -> Regex = match self.peek() {
                Some('*') => Regex::Star,
                Some('+') => Regex::Plus,
                Some('?') => Regex::Optional,
                _ => break,
            };
            height += 1;
            self.check_depth(height)?;
            self.pos += 1;
            base = wrap(Box::new(base));
        }
        Ok((base, height))
    }

    fn parse_atom(&mut self) -> Result<(Regex, usize)> {
        match self.peek() {
            None => Err(self.error("unexpected end of input".into())),
            Some('(') => {
                self.check_depth(1)?;
                self.pos += 1;
                // Allow "()" as ε.
                if self.peek() == Some(')') {
                    self.pos += 1;
                    return Ok((Regex::Epsilon, 1));
                }
                self.groups += 1;
                let (inner, height) = self.parse_union()?;
                self.groups -= 1;
                if self.peek() != Some(')') {
                    return Err(self.error("expected ')'".into()));
                }
                self.pos += 1;
                Ok((inner, height + 1))
            }
            Some(')') => Err(self.error("unexpected ')'".into())),
            Some('*') | Some('+') | Some('?') => {
                Err(self.error("quantifier with nothing to repeat".into()))
            }
            Some('ε') | Some('_') => {
                self.pos += 1;
                Ok((Regex::Epsilon, 0))
            }
            Some('∅') => {
                self.pos += 1;
                Ok((Regex::Empty, 0))
            }
            Some(c) if c.is_alphanumeric() => {
                self.pos += 1;
                Ok((Regex::Letter(Letter(c)), 0))
            }
            Some(c) => Err(self.error(format!("unexpected character {c:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::Word;

    fn accepts(pattern: &str, word: &str) -> bool {
        Regex::parse(pattern).unwrap().to_enfa().accepts(&Word::from_str_word(word))
    }

    #[test]
    fn parse_simple_words() {
        assert_eq!(
            Regex::parse("ab").unwrap(),
            Regex::Concat(vec![Regex::Letter(Letter('a')), Regex::Letter(Letter('b'))])
        );
        assert_eq!(Regex::parse("a").unwrap(), Regex::Letter(Letter('a')));
        assert_eq!(Regex::parse("").unwrap(), Regex::Epsilon);
        assert_eq!(Regex::parse("ε").unwrap(), Regex::Epsilon);
        assert_eq!(Regex::parse("∅").unwrap(), Regex::Empty);
    }

    #[test]
    fn whitespace_is_ignored() {
        assert_eq!(Regex::parse("a x * b").unwrap(), Regex::parse("ax*b").unwrap());
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::parse("(ab").is_err());
        assert!(Regex::parse("ab)").is_err());
        assert!(Regex::parse("*a").is_err());
        assert!(Regex::parse("a!b").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let groups = |depth: usize| format!("{}a{}", "(".repeat(depth), ")".repeat(depth));
        let postfix = |depth: usize| format!("a{}", "*".repeat(depth));
        assert!(Regex::parse(&groups(MAX_REGEX_DEPTH)).is_ok());
        assert!(Regex::parse(&postfix(MAX_REGEX_DEPTH)).is_ok());
        for (pattern, position) in [
            (groups(MAX_REGEX_DEPTH + 1), MAX_REGEX_DEPTH),
            (postfix(MAX_REGEX_DEPTH + 1), MAX_REGEX_DEPTH + 1),
            (groups(6_000), MAX_REGEX_DEPTH),
            (postfix(100_000), MAX_REGEX_DEPTH + 1),
        ] {
            match Regex::parse(&pattern) {
                Err(AutomataError::RegexParse { position: at, message }) => {
                    assert_eq!(at, position);
                    assert!(message.contains("nesting deeper than 128"), "{message}");
                }
                other => panic!("expected a depth error, got {other:?}"),
            }
        }
        // Groups and postfix operators add up along one path; siblings and
        // concatenations do not accumulate depth.
        let mixed = format!("{}a{}", "(".repeat(64), ")*".repeat(64));
        assert!(Regex::parse(&mixed).is_ok());
        assert!(Regex::parse(&format!("{mixed}*")).is_err());
        let wide = vec![groups(MAX_REGEX_DEPTH); 4].join("|");
        assert!(Regex::parse(&format!("{wide}{}", postfix(MAX_REGEX_DEPTH))).is_ok());
    }

    #[test]
    fn precedence_star_binds_tighter_than_concat() {
        // ax*b = a (x*) b
        assert!(accepts("ax*b", "ab"));
        assert!(accepts("ax*b", "axb"));
        assert!(accepts("ax*b", "axxxb"));
        assert!(!accepts("ax*b", "axax"));
    }

    #[test]
    fn precedence_concat_binds_tighter_than_union() {
        // ab|cd accepts ab and cd but not ad
        assert!(accepts("ab|cd", "ab"));
        assert!(accepts("ab|cd", "cd"));
        assert!(!accepts("ab|cd", "ad"));
        assert!(!accepts("ab|cd", "abcd"));
    }

    #[test]
    fn groups_and_quantifiers() {
        assert!(accepts("b(aa)*d", "bd"));
        assert!(accepts("b(aa)*d", "baad"));
        assert!(accepts("b(aa)*d", "baaaad"));
        assert!(!accepts("b(aa)*d", "bad"));
        assert!(accepts("a+", "aaa"));
        assert!(!accepts("a+", ""));
        assert!(accepts("a?b", "b"));
        assert!(accepts("a?b", "ab"));
        assert!(!accepts("a?b", "aab"));
    }

    #[test]
    fn paper_example_languages() {
        // Figure 1 languages
        assert!(accepts("abc|bcd", "abc"));
        assert!(accepts("abc|bcd", "bcd"));
        assert!(!accepts("abc|bcd", "abcd"));
        assert!(accepts("axb|cxd", "axb"));
        // Exactly two non-e letters, the first in {a, c}, the second in {a, d}.
        assert!(accepts("e*(a|c)e*(a|d)e*", "eaeede"));
        assert!(accepts("e*(a|c)e*(a|d)e*", "cd"));
        assert!(!accepts("e*(a|c)e*(a|d)e*", "cad"));
        assert!(accepts("e*(a|c)e*(a|d)e*", "eaed"));
        assert!(accepts("e*be*ce*|e*de*fe*", "ebec"));
        assert!(accepts("e*be*ce*|e*de*fe*", "df"));
        assert!(!accepts("e*be*ce*|e*de*fe*", "bd"));
    }

    #[test]
    fn from_words_builds_union() {
        let words = [Word::from_str_word("ab"), Word::from_str_word("cd")];
        let r = Regex::from_words(words.iter());
        let enfa = r.to_enfa();
        assert!(enfa.accepts(&Word::from_str_word("ab")));
        assert!(enfa.accepts(&Word::from_str_word("cd")));
        assert!(!enfa.accepts(&Word::from_str_word("ac")));
        // empty set of words
        let r = Regex::from_words(std::iter::empty());
        assert_eq!(r, Regex::Empty);
        // a single empty word
        let eps = [Word::epsilon()];
        let r = Regex::from_words(eps.iter());
        assert!(r.to_enfa().accepts(&Word::epsilon()));
    }

    #[test]
    fn letters_collected() {
        let r = Regex::parse("ax*b|cxd").unwrap();
        let a = r.letters();
        assert_eq!(a.len(), 5);
        assert!(a.contains(Letter('x')));
    }

    #[test]
    fn display_round_trips_through_parser() {
        for pattern in ["ab|cd", "ax*b", "b(aa)*d", "a(b|c)*d", "ab?c+", "ε", "∅"] {
            let r1 = Regex::parse(pattern).unwrap();
            let printed = r1.to_string();
            let r2 = Regex::parse(&printed).unwrap();
            // The ASTs may differ structurally but the languages must agree on
            // a sample of words.
            let e1 = r1.to_enfa();
            let e2 = r2.to_enfa();
            for word in ["", "a", "b", "ab", "cd", "abc", "axb", "bd", "baad", "abbc", "ac"] {
                let w = Word::from_str_word(word);
                assert_eq!(e1.accepts(&w), e2.accepts(&w), "pattern {pattern} word {word}");
            }
        }
    }

    #[test]
    fn empty_language_accepts_nothing() {
        let e = Regex::Empty.to_enfa();
        assert!(!e.accepts(&Word::epsilon()));
        assert!(!e.accepts(&Word::from_str_word("a")));
    }
}
