//! Approximation algorithms for resilience on the NP-hard side.
//!
//! The paper classifies which RPQs admit *exact* polynomial algorithms; for
//! the NP-hard languages (Sections 4–6) one still wants usable bounds. This
//! module provides two classical polynomial approximations for finite
//! languages, both operating on the hypergraph of matches `H_{L,D}`
//! (Definition 4.7), whose minimum hitting set equals the resilience:
//!
//! * [`resilience_greedy`] — the greedy hitting-set heuristic (repeatedly
//!   remove the fact of best coverage-per-cost), an `O(log m)`-approximation;
//! * [`resilience_k_approximation`] — the "disjoint matches" bound: any
//!   maximal set of pairwise fact-disjoint matches gives a lower bound (each
//!   must be hit separately), and removing *all* facts of those matches gives
//!   an upper bound within a factor `k`, the maximum word length of the
//!   (infix-free) language. This mirrors the classical LP-duality argument
//!   used in the ILP/LP line of work on resilience for CQs \[30\].
//!
//! Both are only used for finite languages (where matches can be enumerated)
//! and report certified lower and upper bounds.

use crate::hypergraph::Hypergraph;
use crate::rpq::{ResilienceValue, Rpq};
use rpq_automata::finite::FiniteLanguage;
use rpq_graphdb::{FactId, GraphDb};
use std::collections::BTreeSet;

/// The outcome of an approximate resilience computation: a certified sandwich
/// `lower ≤ RES(Q, D) ≤ upper` together with the contingency set achieving the
/// upper bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApproximateResilience {
    /// A certified lower bound on the resilience.
    pub lower_bound: u128,
    /// A certified upper bound on the resilience (the cost of `contingency_set`).
    pub upper_bound: u128,
    /// A contingency set achieving `upper_bound`.
    pub contingency_set: BTreeSet<FactId>,
}

impl ApproximateResilience {
    /// Whether the bounds coincide (the approximation happens to be exact).
    pub fn is_tight(&self) -> bool {
        self.lower_bound == self.upper_bound
    }
}

/// Errors raised by the approximation algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApproxError {
    /// The language is infinite (or could not be enumerated), so the
    /// hypergraph of matches cannot be built.
    NotFinite,
    /// ε belongs to the language: the resilience is `+∞` and no finite bound
    /// exists.
    InfiniteResilience,
    /// Some match consists only of exogenous facts: no contingency set exists
    /// and the resilience is `+∞`.
    ProtectedMatch,
}

impl std::fmt::Display for ApproxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApproxError::NotFinite => write!(f, "the language is not finite"),
            ApproxError::InfiniteResilience => write!(f, "ε ∈ L: the resilience is +∞"),
            ApproxError::ProtectedMatch => {
                write!(f, "a match uses only exogenous facts: the resilience is +∞")
            }
        }
    }
}

impl std::error::Error for ApproxError {}

fn matches_hypergraph(rpq: &Rpq, db: &GraphDb) -> Result<Hypergraph, ApproxError> {
    let language = rpq.infix_free_language();
    if language.contains_epsilon() {
        return Err(ApproxError::InfiniteResilience);
    }
    let finite = FiniteLanguage::from_language(&language).map_err(|_| ApproxError::NotFinite)?;
    Ok(Hypergraph::of_matches(db, &finite))
}

/// Greedy hitting set over the hypergraph of matches: repeatedly pick the
/// (endogenous) fact covering the most still-unhit matches per unit of cost.
/// Returns a certified sandwich; the upper bound is within a `ln m + 1` factor
/// of the optimum (the classical greedy set-cover guarantee), where `m` is the
/// number of matches.
pub fn resilience_greedy(rpq: &Rpq, db: &GraphDb) -> Result<ApproximateResilience, ApproxError> {
    let hypergraph = matches_hypergraph(rpq, db)?;
    let lower_bound = disjoint_matches_lower_bound(rpq, db, &hypergraph)?;

    let mut unhit: Vec<&BTreeSet<FactId>> = hypergraph.edges().iter().collect();
    let mut chosen: BTreeSet<FactId> = BTreeSet::new();
    let mut upper_bound: u128 = 0;
    while !unhit.is_empty() {
        // Pick the endogenous fact with the best (coverage / cost) ratio.
        let mut best: Option<(FactId, usize, u128)> = None;
        for &fact in hypergraph.vertices() {
            if db.is_exogenous(fact) || chosen.contains(&fact) {
                continue;
            }
            let coverage = unhit.iter().filter(|m| m.contains(&fact)).count();
            if coverage == 0 {
                continue;
            }
            let cost = rpq.semantics().fact_cost(db, fact) as u128;
            let better = match best {
                None => true,
                // Compare coverage/cost ratios without floating point:
                // coverage_a * cost_b > coverage_b * cost_a.
                Some((_, bc, bcost)) => (coverage as u128) * bcost > (bc as u128) * cost,
            };
            if better {
                best = Some((fact, coverage, cost));
            }
        }
        let Some((fact, _, cost)) = best else {
            // Some remaining match has only exogenous facts.
            return Err(ApproxError::ProtectedMatch);
        };
        chosen.insert(fact);
        upper_bound += cost;
        unhit.retain(|m| !m.contains(&fact));
    }
    debug_assert!(rpq.is_contingency_set(db, &chosen));
    Ok(ApproximateResilience { lower_bound, upper_bound, contingency_set: chosen })
}

/// The `k`-approximation (for `k` the maximum word length of `IF(L)`): greedily
/// collect a maximal family of pairwise fact-disjoint matches, whose combined
/// cheapest-fact costs form a lower bound, and remove **all** facts of the
/// collected matches, which hits every match (by maximality) and costs at most
/// `k` times the optimum under set semantics.
pub fn resilience_k_approximation(
    rpq: &Rpq,
    db: &GraphDb,
) -> Result<ApproximateResilience, ApproxError> {
    let hypergraph = matches_hypergraph(rpq, db)?;
    let lower_bound = disjoint_matches_lower_bound(rpq, db, &hypergraph)?;

    // Collect a maximal family of pairwise disjoint matches and take all of
    // their (endogenous) facts.
    let mut used: BTreeSet<FactId> = BTreeSet::new();
    let mut chosen: BTreeSet<FactId> = BTreeSet::new();
    for m in hypergraph.edges() {
        if m.iter().any(|f| used.contains(f)) {
            continue;
        }
        used.extend(m.iter().copied());
        chosen.extend(m.iter().copied().filter(|&f| !db.is_exogenous(f)));
        if m.iter().all(|&f| db.is_exogenous(f)) {
            return Err(ApproxError::ProtectedMatch);
        }
    }
    // `chosen` hits every match: a match disjoint from all selected ones would
    // have been selected too. It may not hit matches that only intersected the
    // selected ones through exogenous facts, so top up greedily if needed.
    let mut upper: u128 = chosen.iter().map(|&f| rpq.semantics().fact_cost(db, f) as u128).sum();
    for m in hypergraph.edges() {
        if m.iter().any(|f| chosen.contains(f)) {
            continue;
        }
        let extra = m
            .iter()
            .copied()
            .filter(|&f| !db.is_exogenous(f))
            .min_by_key(|&f| rpq.semantics().fact_cost(db, f));
        let Some(extra) = extra else {
            return Err(ApproxError::ProtectedMatch);
        };
        chosen.insert(extra);
        upper += rpq.semantics().fact_cost(db, extra) as u128;
    }
    debug_assert!(rpq.is_contingency_set(db, &chosen));
    Ok(ApproximateResilience { lower_bound, upper_bound: upper, contingency_set: chosen })
}

/// A certified lower bound: the total cost of the cheapest endogenous fact of
/// each match in a maximal family of pairwise disjoint matches (each must be
/// hit by a distinct fact). Errors when a match has no endogenous fact.
fn disjoint_matches_lower_bound(
    rpq: &Rpq,
    db: &GraphDb,
    hypergraph: &Hypergraph,
) -> Result<u128, ApproxError> {
    let mut used: BTreeSet<FactId> = BTreeSet::new();
    let mut bound: u128 = 0;
    for m in hypergraph.edges() {
        if m.is_empty() {
            return Err(ApproxError::InfiniteResilience);
        }
        if m.iter().any(|f| used.contains(f)) {
            continue;
        }
        used.extend(m.iter().copied());
        let cheapest = m
            .iter()
            .copied()
            .filter(|&f| !db.is_exogenous(f))
            .map(|f| rpq.semantics().fact_cost(db, f) as u128)
            .min();
        match cheapest {
            Some(c) => bound += c,
            None => return Err(ApproxError::ProtectedMatch),
        }
    }
    Ok(bound)
}

/// Convenience wrapper returning the best of the two upper bounds as a
/// [`ResilienceValue`] together with the matching contingency set.
pub fn resilience_approximate(
    rpq: &Rpq,
    db: &GraphDb,
) -> Result<(ResilienceValue, BTreeSet<FactId>), ApproxError> {
    let greedy = resilience_greedy(rpq, db)?;
    let k_approx = resilience_k_approximation(rpq, db)?;
    let best = if greedy.upper_bound <= k_approx.upper_bound { greedy } else { k_approx };
    Ok((ResilienceValue::Finite(best.upper_bound), best.contingency_set))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::resilience_exact;
    use rpq_automata::{Alphabet, Language, Word};
    use rpq_graphdb::generate::{random_labeled_graph, word_path};

    fn query(pattern: &str) -> Rpq {
        Rpq::new(Language::parse(pattern).unwrap())
    }

    #[test]
    fn bounds_sandwich_the_exact_value_on_random_instances() {
        let alphabet = Alphabet::from_chars("ab");
        for seed in 0..10 {
            let db = random_labeled_graph(5, 10, &alphabet, seed);
            for pattern in ["aa", "aba|bab", "aab"] {
                let q = query(pattern);
                let exact = resilience_exact(&q, &db).value.finite().unwrap();
                for approx in [
                    resilience_greedy(&q, &db).unwrap(),
                    resilience_k_approximation(&q, &db).unwrap(),
                ] {
                    assert!(approx.lower_bound <= exact, "{pattern} seed {seed}");
                    assert!(approx.upper_bound >= exact, "{pattern} seed {seed}");
                    assert!(q.is_contingency_set(&db, &approx.contingency_set));
                    assert_eq!(
                        q.cost(&db, &approx.contingency_set),
                        approx.upper_bound,
                        "{pattern} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn k_approximation_respects_the_word_length_factor() {
        // For aa (k = 2) the upper bound is at most twice the exact value.
        let alphabet = Alphabet::from_chars("a");
        for seed in 0..8 {
            let db = random_labeled_graph(5, 8, &alphabet, seed);
            let q = query("aa");
            let exact = resilience_exact(&q, &db).value.finite().unwrap();
            let approx = resilience_k_approximation(&q, &db).unwrap();
            assert!(approx.upper_bound <= 2 * exact.max(1), "seed {seed}");
        }
    }

    #[test]
    fn exact_on_trivial_instances() {
        let db = word_path(&Word::from_str_word("aa"));
        let q = query("aa");
        let approx = resilience_greedy(&q, &db).unwrap();
        assert!(approx.is_tight());
        assert_eq!(approx.upper_bound, 1);
    }

    #[test]
    fn infinite_and_non_finite_cases_are_reported() {
        let db = word_path(&Word::from_str_word("aa"));
        assert_eq!(
            resilience_greedy(&query("a*"), &db).unwrap_err(),
            ApproxError::InfiniteResilience
        );
        assert_eq!(resilience_greedy(&query("ax*b"), &db).unwrap_err(), ApproxError::NotFinite);
    }

    #[test]
    fn exogenous_matches_are_detected() {
        let mut db = word_path(&Word::from_str_word("aa"));
        for fact in db.fact_ids().collect::<Vec<_>>() {
            db.set_exogenous(fact, true);
        }
        assert_eq!(resilience_greedy(&query("aa"), &db).unwrap_err(), ApproxError::ProtectedMatch);
        assert_eq!(
            resilience_k_approximation(&query("aa"), &db).unwrap_err(),
            ApproxError::ProtectedMatch
        );
    }

    #[test]
    fn bag_semantics_costs_are_used() {
        let mut db = GraphDb::new();
        let s = db.node("s");
        let u = db.node("u");
        let t = db.node("t");
        let f1 = db.add_fact_with_multiplicity(s, 'a'.into(), u, 10);
        let f2 = db.add_fact_with_multiplicity(u, 'a'.into(), t, 1);
        let q = query("aa").with_bag_semantics();
        let approx = resilience_greedy(&q, &db).unwrap();
        assert_eq!(approx.upper_bound, 1);
        assert_eq!(approx.contingency_set, [f2].into_iter().collect());
        let _ = f1;
    }
}
