//! Witness soundness across every backend: whenever any `Algorithm` returns
//! a `contingency_set`, that set must be
//! a genuine contingency set (`Rpq::is_contingency_set`) whose cost equals
//! the reported value — for a search stopped on its work budget, the
//! certified upper bound. The corpus covers every dispatch family of `common::FAMILIES`,
//! including the mirrored one-dangling orientation (`cba|eb`), whose witness
//! mapping goes through `GraphDb::reversed`.

mod common;

use common::FAMILIES;
use rpq::automata::{Alphabet, Language};
use rpq::graphdb::{FactId, GraphDb};
use rpq::resilience::algorithms::{Algorithm, ResilienceError, ResilienceOutcome};
use rpq::resilience::engine::Engine;
use rpq::resilience::exact::resilience_exact;
use rpq::resilience::rpq::{ResilienceValue, Rpq};
use std::collections::BTreeSet;

/// Checks the witness invariants of one outcome, if it carries a witness.
fn assert_sound_witness(query: &Rpq, db: &GraphDb, outcome: &ResilienceOutcome, context: &str) {
    let Some(cut) = &outcome.contingency_set else { return };
    let cut: BTreeSet<FactId> = cut.iter().copied().collect();
    assert!(
        query.is_contingency_set(db, &cut),
        "{context}: the returned set does not falsify the query"
    );
    assert_eq!(
        ResilienceValue::Finite(query.cost(db, &cut)),
        outcome.value,
        "{context}: the witness cost must equal the reported value"
    );
}

#[test]
fn every_backend_combination_returns_sound_witnesses_on_the_corpus() {
    for &(alphabet, patterns, _) in FAMILIES {
        let alphabet = Alphabet::from_chars(alphabet);
        for pattern in patterns {
            for bag in [false, true] {
                let mut query = Rpq::new(Language::parse(pattern).unwrap());
                if bag {
                    query = query.with_bag_semantics();
                }
                for seed in 0..3 {
                    let mut db = random_db(&alphabet, seed);
                    if bag {
                        let ids: Vec<FactId> = db.fact_ids().collect();
                        for (i, id) in ids.iter().enumerate() {
                            db.set_multiplicity(*id, 1 + (i as u64 % 3));
                        }
                    }
                    let exact = resilience_exact(&query, &db).value;
                    for algorithm in Algorithm::ALL {
                        let context = format!("{pattern} (bag={bag}) via {algorithm}, seed {seed}");
                        let outcome = match Engine::new().solve_with(algorithm, &query, &db) {
                            Ok(outcome) => outcome,
                            Err(ResilienceError::NotApplicable { .. }) => continue,
                            Err(e) => panic!("{context}: {e}"),
                        };
                        assert_sound_witness(&query, &db, &outcome, &context);
                        if outcome.is_exact() {
                            assert_eq!(outcome.value, exact, "{context}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn automatic_dispatch_always_produces_a_witness_on_tractable_families() {
    // With `want_cut` on (the default), every tractable family — local,
    // chain, and now one-dangling in both orientations — must return
    // `Some(contingency_set)` for finite values.
    for &(alphabet, patterns, expected) in FAMILIES {
        if expected == Algorithm::ExactBranchAndBound {
            continue; // the exact fallback also returns witnesses, tested above
        }
        let alphabet = Alphabet::from_chars(alphabet);
        let engine = Engine::new();
        for pattern in patterns {
            let query = Rpq::new(Language::parse(pattern).unwrap());
            for seed in 0..4 {
                let db = random_db(&alphabet, seed);
                let outcome = engine.solve(&query, &db).unwrap();
                assert_eq!(outcome.algorithm, expected, "{pattern}");
                if !outcome.value.is_infinite() {
                    assert!(
                        outcome.contingency_set.is_some(),
                        "{pattern}, seed {seed}: tractable backends must extract witnesses"
                    );
                }
                assert_sound_witness(&query, &db, &outcome, &format!("{pattern}, seed {seed}"));
            }
        }
    }
}

fn random_db(alphabet: &Alphabet, seed: u64) -> GraphDb {
    // ≤ 9 facts: small enough for the exact oracles, rich enough to produce
    // non-trivial cuts (and occasional empty ones, which must also be sound).
    rpq::graphdb::generate::random_labeled_graph(5, 9, alphabet, seed)
}
