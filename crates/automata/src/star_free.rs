//! Star-free (aperiodic) languages, used by Lemma 5.6 of the paper.
//!
//! A regular language is *star-free* iff its syntactic monoid is aperiodic
//! (counter-free automata, McNaughton–Papert). The paper uses the equivalent
//! "bounded exponent" definition: there is `k > 0` such that for all
//! `ρ, σ, τ` and all `m ≥ k`, `ρσ^k τ ∈ L ⟺ ρσ^m τ ∈ L`.
//!
//! Lemma 5.6 shows that infix-free **non**-star-free languages are always
//! four-legged, hence NP-hard for resilience. The classifier primarily relies
//! on the four-legged test directly; this module provides the star-freeness
//! test for completeness and for cross-checking Lemma 5.6.
//!
//! Deciding aperiodicity is PSPACE-complete in general, so the implementation
//! enumerates the transition monoid of the minimal DFA under a configurable
//! budget and reports [`AutomataError::BudgetExceeded`] when the monoid is too
//! large. The automata arising from the paper's example languages are tiny, so
//! the default budget is never hit in practice.

use crate::error::{AutomataError, Result};
use crate::language::Language;
use std::collections::BTreeSet;

/// Default maximum number of transition-monoid elements explored.
pub const DEFAULT_MONOID_BUDGET: usize = 100_000;

/// A transformation of the state set, represented as the image of each state.
type Transformation = Vec<usize>;

fn compose(first: &Transformation, then: &Transformation) -> Transformation {
    first.iter().map(|&s| then[s]).collect()
}

/// Computes the transition monoid of the language's minimal DFA (the set of
/// state transformations induced by words), up to `budget` elements.
fn transition_monoid(language: &Language, budget: usize) -> Result<Vec<Transformation>> {
    let dfa = language.dfa();
    let n = dfa.num_states();
    let generators: Vec<Transformation> = dfa
        .alphabet()
        .iter()
        .map(|a| (0..n).map(|s| dfa.successor(s, a).expect("complete DFA")).collect())
        .collect();
    let mut seen: BTreeSet<Transformation> = BTreeSet::new();
    let mut queue: Vec<Transformation> = Vec::new();
    let identity: Transformation = (0..n).collect();
    seen.insert(identity.clone());
    queue.push(identity);
    let mut idx = 0;
    while idx < queue.len() {
        let current = queue[idx].clone();
        idx += 1;
        for g in &generators {
            let next = compose(&current, g);
            if seen.insert(next.clone()) {
                if seen.len() > budget {
                    return Err(AutomataError::BudgetExceeded {
                        analysis: "transition monoid enumeration",
                        limit: budget,
                    });
                }
                queue.push(next);
            }
        }
    }
    Ok(queue)
}

/// Whether a single transformation is aperiodic: its powers eventually become
/// constant (`m^i = m^{i+1}` for some `i`), rather than entering a cycle of
/// length ≥ 2.
fn transformation_is_aperiodic(m: &Transformation) -> bool {
    let mut seen: Vec<Transformation> = vec![m.clone()];
    let mut current = m.clone();
    loop {
        let next = compose(&current, m);
        if next == current {
            return true;
        }
        if seen.contains(&next) {
            // Entered a cycle that is not a fixed point.
            return false;
        }
        seen.push(next.clone());
        current = next;
    }
}

/// Tests star-freeness with an explicit budget on the transition-monoid size.
pub fn is_star_free_with_budget(language: &Language, budget: usize) -> Result<bool> {
    let monoid = transition_monoid(language, budget)?;
    Ok(monoid.iter().all(transformation_is_aperiodic))
}

/// Whether the language is star-free (aperiodic), using the default budget.
///
/// ```
/// use rpq_automata::{star_free, Language};
/// assert!(star_free::is_star_free(&Language::parse("ax*b").unwrap()).unwrap());
/// assert!(!star_free::is_star_free(&Language::parse("b(aa)*d").unwrap()).unwrap());
/// ```
pub fn is_star_free(language: &Language) -> Result<bool> {
    is_star_free_with_budget(language, DEFAULT_MONOID_BUDGET)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::four_legged::is_four_legged;

    fn lang(pattern: &str) -> Language {
        Language::parse(pattern).unwrap()
    }

    #[test]
    fn finite_languages_are_star_free() {
        for pattern in ["aa", "ab|cd", "abc|bcd", "axb|cxd", "abcd|be|ef", "abca|cab", "ab|ad|cd"] {
            assert!(is_star_free(&lang(pattern)).unwrap(), "{pattern}");
        }
    }

    #[test]
    fn star_free_infinite_languages() {
        // Languages with stars can still be star-free (aperiodic).
        for pattern in [
            "ax*b",
            "a*",
            "ax*b|cxd",
            "e*be*ce*|e*de*fe*",
            "(a|b)*abb",
            "e*(a|c)e*(a|d)e*",
            "a(b|d)*x",
        ] {
            assert!(is_star_free(&lang(pattern)).unwrap(), "{pattern}");
        }
    }

    #[test]
    fn non_star_free_languages() {
        for pattern in ["b(aa)*d", "(aa)*", "a(bb)*", "(aa)*b"] {
            assert!(!is_star_free(&lang(pattern)).unwrap(), "{pattern}");
        }
    }

    #[test]
    fn lemma_5_6_non_star_free_infix_free_is_four_legged() {
        for pattern in ["b(aa)*d", "b(aaa)*d", "c(ab)*d"] {
            let l = lang(pattern);
            if !l.is_infix_free() {
                continue;
            }
            if !is_star_free(&l).unwrap() {
                assert!(
                    is_four_legged(&l),
                    "{pattern}: non-star-free infix-free must be four-legged"
                );
            }
        }
    }

    #[test]
    fn budget_is_respected() {
        let l = lang("b(aa)*d");
        let err = is_star_free_with_budget(&l, 1).unwrap_err();
        assert!(matches!(err, AutomataError::BudgetExceeded { .. }));
    }

    #[test]
    fn trivial_languages() {
        assert!(is_star_free(&lang("ε")).unwrap());
        assert!(is_star_free(&lang("∅")).unwrap());
        assert!(is_star_free(&lang("a")).unwrap());
    }

    #[test]
    fn star_freeness_closed_under_infix_free_sublanguage() {
        // Claim B.1 of the paper: if L is star-free then IF(L) is star-free.
        for pattern in ["ax*b", "a*ba*", "ab|a", "e*be*ce*"] {
            let l = lang(pattern);
            if is_star_free(&l).unwrap() {
                assert!(is_star_free(&l.infix_free()).unwrap(), "IF({pattern})");
            }
        }
    }
}
