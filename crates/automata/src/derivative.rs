//! Brzozowski derivatives of regular expressions.
//!
//! The derivative of a language `L` by a letter `a` is
//! `a⁻¹L = { α : aα ∈ L }`. Brzozowski showed that derivatives of a regular
//! expression can be computed syntactically and that repeatedly deriving
//! yields finitely many expressions up to similarity, which gives:
//!
//! * a membership test that never builds an automaton
//!   ([`accepts`]) — used as an *independent cross-check* of the ε-NFA /
//!   DFA pipeline in property tests;
//! * a direct DFA construction ([`derivative_dfa`]) whose states are
//!   derivative expressions. It is the oracle of the
//!   [`crate::language::Language`] pipeline (Thompson ε-NFA → subset
//!   construction → Hopcroft minimization): on generated regexes, the
//!   minimized derivative DFA must *equal* the language's DFA, state
//!   numbering included (`tests/properties.rs`).
//!
//! Left quotients by letters are exactly what the paper's analyses manipulate
//! (left/right contexts of a letter in the four-legged test, residuals of
//! words in the locality proofs), so this module also doubles as a second
//! implementation path for those building blocks.

use crate::alphabet::{Alphabet, Letter};
use crate::dfa::Dfa;
use crate::regex::Regex;
use crate::word::Word;
use std::collections::BTreeMap;

/// Whether the language of the expression contains the empty word (the
/// "nullability" predicate `ν` of Brzozowski's construction).
pub fn nullable(regex: &Regex) -> bool {
    match regex {
        Regex::Empty | Regex::Letter(_) => false,
        Regex::Epsilon | Regex::Star(_) | Regex::Optional(_) => true,
        Regex::Plus(inner) => nullable(inner),
        Regex::Concat(parts) => parts.iter().all(nullable),
        Regex::Union(parts) => parts.iter().any(nullable),
    }
}

/// The Brzozowski derivative `a⁻¹ L(r)`, returned in a lightly normalized form
/// (see [`simplify`]) so that repeated derivation reaches a fixpoint quickly.
pub fn derivative(regex: &Regex, letter: Letter) -> Regex {
    let raw = match regex {
        Regex::Empty | Regex::Epsilon => Regex::Empty,
        Regex::Letter(l) => {
            if *l == letter {
                Regex::Epsilon
            } else {
                Regex::Empty
            }
        }
        Regex::Union(parts) => Regex::Union(parts.iter().map(|p| derivative(p, letter)).collect()),
        Regex::Concat(parts) => {
            // d(r1 r2 … rn) = d(r1) r2…rn  ∪  [ν(r1)] d(r2 … rn)  (recursively).
            if parts.is_empty() {
                Regex::Empty
            } else {
                let head = &parts[0];
                let tail: Vec<Regex> = parts[1..].to_vec();
                let mut with_head: Vec<Regex> = vec![derivative(head, letter)];
                with_head.extend(tail.iter().cloned());
                let first = Regex::Concat(with_head);
                if nullable(head) {
                    let rest =
                        if tail.is_empty() { Regex::Epsilon } else { Regex::Concat(tail.clone()) };
                    Regex::Union(vec![first, derivative(&rest, letter)])
                } else {
                    first
                }
            }
        }
        Regex::Star(inner) => {
            Regex::Concat(vec![derivative(inner, letter), Regex::Star(inner.clone())])
        }
        Regex::Plus(inner) => {
            // r+ = r r*, so d(r+) = d(r) r*.
            Regex::Concat(vec![derivative(inner, letter), Regex::Star(inner.clone())])
        }
        Regex::Optional(inner) => derivative(inner, letter),
    };
    simplify(raw)
}

/// Light syntactic normalization (the "similarity" rules of Brzozowski):
/// `∅ | r = r`, `∅ · r = ∅`, `ε · r = r`, flattening of nested unions and
/// concatenations, deduplication of union members. This is enough to make the
/// set of iterated derivatives finite in practice for the small expressions
/// used throughout the paper.
pub fn simplify(regex: Regex) -> Regex {
    match regex {
        Regex::Union(parts) => {
            let mut flat: Vec<Regex> = Vec::new();
            for part in parts {
                match simplify(part) {
                    Regex::Empty => {}
                    Regex::Union(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            flat.sort_by_key(|r| format!("{r:?}"));
            flat.dedup();
            match flat.len() {
                0 => Regex::Empty,
                1 => flat.pop().expect("length checked"),
                _ => Regex::Union(flat),
            }
        }
        Regex::Concat(parts) => {
            let mut flat: Vec<Regex> = Vec::new();
            for part in parts {
                match simplify(part) {
                    Regex::Empty => return Regex::Empty,
                    Regex::Epsilon => {}
                    Regex::Concat(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            match flat.len() {
                0 => Regex::Epsilon,
                1 => flat.pop().expect("length checked"),
                _ => Regex::Concat(flat),
            }
        }
        Regex::Star(inner) => match simplify(*inner) {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            Regex::Star(nested) => Regex::Star(nested),
            other => Regex::Star(Box::new(other)),
        },
        Regex::Plus(inner) => match simplify(*inner) {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            other => Regex::Plus(Box::new(other)),
        },
        Regex::Optional(inner) => match simplify(*inner) {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            other => Regex::Optional(Box::new(other)),
        },
        leaf => leaf,
    }
}

/// The derivative of a regular expression by a whole word.
pub fn word_derivative(regex: &Regex, word: &Word) -> Regex {
    let mut current = simplify(regex.clone());
    for letter in word.iter() {
        current = derivative(&current, letter);
        if current == Regex::Empty {
            break;
        }
    }
    current
}

/// Membership via derivatives: `α ∈ L(r)` iff the derivative of `r` by `α` is
/// nullable. This never constructs an automaton.
pub fn accepts(regex: &Regex, word: &Word) -> bool {
    nullable(&word_derivative(regex, word))
}

/// Builds a DFA whose states are iterated derivatives of the expression
/// (Brzozowski's automaton), over the given alphabet (defaults to the letters
/// of the expression). Panics if more than `budget` distinct derivative
/// expressions appear, which cannot happen with [`simplify`]'s rules on the
/// small expressions used in this workspace.
pub fn derivative_dfa(regex: &Regex, alphabet: Option<Alphabet>, budget: usize) -> Dfa {
    let alphabet = alphabet.unwrap_or_else(|| regex.letters());
    let start = simplify(regex.clone());
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    let mut states: Vec<Regex> = Vec::new();
    let key = |r: &Regex| format!("{r:?}");
    index.insert(key(&start), 0);
    states.push(start);
    let mut transitions: Vec<Vec<usize>> = Vec::new();
    let mut i = 0;
    while i < states.len() {
        assert!(states.len() <= budget, "derivative construction exceeded the budget");
        let mut row = Vec::with_capacity(alphabet.len());
        for letter in alphabet.iter() {
            let next = derivative(&states[i], letter);
            let k = key(&next);
            let target = *index.entry(k).or_insert_with(|| {
                states.push(next.clone());
                states.len() - 1
            });
            row.push(target);
        }
        transitions.push(row);
        i += 1;
    }
    let finals: Vec<bool> = states.iter().map(nullable).collect();
    Dfa::from_parts(alphabet, 0, finals, transitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::Language;

    const PATTERNS: &[&str] = &[
        "ax*b",
        "ab|ad|cd",
        "aa",
        "axb|cxd",
        "b(aa)*d",
        "abc|be",
        "a(b|d)*x",
        "ab*c|ba",
        "e*(a|c)e*(a|d)e*",
    ];

    #[test]
    fn derivative_membership_agrees_with_the_dfa() {
        for pattern in PATTERNS {
            let regex = Regex::parse(pattern).unwrap();
            let language = Language::parse(pattern).unwrap();
            // Check every word of length ≤ 5 over the expression's letters.
            let alphabet = regex.letters();
            let mut words = vec![Word::epsilon()];
            for _ in 0..5 {
                let mut next = Vec::new();
                for w in &words {
                    for l in alphabet.iter() {
                        next.push(w.concat(&Word::single(l)));
                    }
                }
                words.extend(next.clone());
                words = {
                    let mut deduped = words;
                    deduped.sort();
                    deduped.dedup();
                    deduped
                };
            }
            for word in &words {
                assert_eq!(
                    accepts(&regex, word),
                    language.contains(word),
                    "{pattern} disagrees on {word}"
                );
            }
        }
    }

    #[test]
    fn derivative_dfa_is_language_equivalent() {
        for pattern in PATTERNS {
            let regex = Regex::parse(pattern).unwrap();
            let language = Language::parse(pattern).unwrap();
            let dfa = derivative_dfa(&regex, Some(language.alphabet().clone()), 10_000);
            assert!(
                dfa.equivalent(&language.dfa().with_alphabet(language.alphabet())),
                "{pattern}: derivative DFA differs from the Thompson-construction DFA"
            );
        }
    }

    #[test]
    fn nullability_and_simplification_basics() {
        assert!(nullable(&Regex::parse("a*").unwrap()));
        assert!(!nullable(&Regex::parse("a").unwrap()));
        assert!(nullable(&Regex::parse("ab|x*").unwrap()));
        // ∅-absorption and ε-elimination.
        let r = simplify(Regex::Concat(vec![Regex::Epsilon, Regex::Letter(Letter('a'))]));
        assert_eq!(r, Regex::Letter(Letter('a')));
        let r = simplify(Regex::Union(vec![Regex::Empty, Regex::Letter(Letter('a'))]));
        assert_eq!(r, Regex::Letter(Letter('a')));
        let r = simplify(Regex::Concat(vec![Regex::Empty, Regex::Letter(Letter('a'))]));
        assert_eq!(r, Regex::Empty);
    }

    #[test]
    fn word_derivatives_are_left_quotients() {
        // For L = axb|cxd, the derivative by "ax" is {b}.
        let regex = Regex::parse("axb|cxd").unwrap();
        let d = word_derivative(&regex, &Word::from_str_word("ax"));
        assert!(accepts(&d, &Word::from_str_word("b")));
        assert!(!accepts(&d, &Word::from_str_word("d")));
        // Deriving by a letter outside the language gives ∅.
        assert_eq!(word_derivative(&regex, &Word::from_str_word("x")), Regex::Empty);
    }
}
