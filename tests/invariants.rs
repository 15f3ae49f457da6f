//! Property-based tests of structural resilience invariants that hold for
//! every query and database (independently of the complexity classification):
//!
//! * `RES(Q_L, D) = RES(Q_{IF(L)}, D)` — replacing the language by its
//!   infix-free sublanguage never changes the query (Section 2);
//! * `RES(Q, D) = 0` iff `D ⊭ Q`;
//! * resilience is monotone under adding facts;
//! * set-semantics resilience is bounded by bag-semantics resilience, which is
//!   bounded by the total multiplicity;
//! * `RES(Q_{L1 ∪ L2}, D) ≥ max(RES(Q_{L1}, D), RES(Q_{L2}, D))`;
//! * returned contingency sets really are contingency sets of matching cost.

use proptest::prelude::*;
use rpq::automata::{Alphabet, Language};
use rpq::graphdb::generate::random_labeled_graph;
use rpq::graphdb::GraphDb;
use rpq::resilience::engine::Engine;
use rpq::resilience::rpq::{ResilienceValue, Rpq};

const PATTERNS: &[&str] = &["ax*b", "ab|ad", "ab|bc", "aa", "aab", "abc|bd", "a(b|d)*x", "abx"];

fn pattern_strategy() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(PATTERNS)
}

fn small_db(seed: u64, nodes: usize, facts: usize) -> GraphDb {
    let alphabet = Alphabet::from_chars("abxd");
    random_labeled_graph(nodes, facts, &alphabet, seed)
}

fn value(rpq: &Rpq, db: &GraphDb) -> ResilienceValue {
    Engine::new().solve(rpq, db).expect("solve never fails on these inputs").value
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn infix_free_sublanguage_preserves_resilience(seed in 0u64..500, pattern in pattern_strategy()) {
        let db = small_db(seed, 4, 7);
        let language = Language::parse(pattern).unwrap();
        let original = value(&Rpq::new(language.clone()), &db);
        let reduced = value(&Rpq::new(language.infix_free()), &db);
        prop_assert_eq!(original, reduced, "{}", pattern);
    }

    #[test]
    fn zero_resilience_iff_query_does_not_hold(seed in 0u64..500, pattern in pattern_strategy()) {
        let db = small_db(seed, 4, 6);
        let query = Rpq::new(Language::parse(pattern).unwrap());
        let v = value(&query, &db);
        prop_assert_eq!(v == ResilienceValue::Finite(0), !query.holds_on(&db), "{}", pattern);
    }

    #[test]
    fn resilience_is_monotone_under_adding_facts(
        seed in 0u64..500,
        pattern in pattern_strategy(),
        extra_source in 0usize..4,
        extra_target in 0usize..4,
        extra_label in proptest::sample::select(vec!['a', 'b', 'x', 'd']),
    ) {
        let db = small_db(seed, 4, 6);
        let query = Rpq::new(Language::parse(pattern).unwrap());
        let before = value(&query, &db);
        let mut bigger = db.clone();
        let s = bigger.node(&format!("n{extra_source}"));
        let t = bigger.node(&format!("n{extra_target}"));
        bigger.add_fact(s, extra_label.into(), t);
        let after = value(&query, &bigger);
        // ResilienceValue is ordered with Infinite as the maximum.
        prop_assert!(after >= before, "{}: {} then {}", pattern, before, after);
    }

    #[test]
    fn set_resilience_is_bounded_by_bag_resilience(seed in 0u64..500, pattern in pattern_strategy()) {
        let mut db = small_db(seed, 4, 7);
        // Give some facts larger multiplicities.
        let ids: Vec<_> = db.fact_ids().collect();
        for (i, id) in ids.iter().enumerate() {
            db.set_multiplicity(*id, 1 + (i as u64 % 4));
        }
        let set_value = value(&Rpq::new(Language::parse(pattern).unwrap()), &db);
        let bag_value = value(&Rpq::new(Language::parse(pattern).unwrap()).with_bag_semantics(), &db);
        match (set_value, bag_value) {
            (ResilienceValue::Finite(s), ResilienceValue::Finite(b)) => {
                prop_assert!(s <= b, "{}: set {} > bag {}", pattern, s, b);
                prop_assert!(b <= db.total_multiplicity());
            }
            (s, b) => prop_assert_eq!(s.is_infinite(), b.is_infinite()),
        }
    }

    #[test]
    fn union_resilience_dominates_both_parts(seed in 0u64..300) {
        let db = small_db(seed, 4, 7);
        let l1 = Language::parse("ab").unwrap();
        let l2 = Language::parse("ad|xb").unwrap();
        let union = l1.union(&l2);
        let v1 = value(&Rpq::new(l1), &db);
        let v2 = value(&Rpq::new(l2), &db);
        let vu = value(&Rpq::new(union), &db);
        prop_assert!(vu >= v1.max(v2));
    }

    #[test]
    fn returned_contingency_sets_are_genuine(seed in 0u64..500, pattern in pattern_strategy()) {
        let db = small_db(seed, 4, 7);
        let query = Rpq::new(Language::parse(pattern).unwrap());
        let outcome = Engine::new().solve(&query, &db).unwrap();
        if let (Some(cut), ResilienceValue::Finite(v)) = (&outcome.contingency_set, outcome.value) {
            let set: std::collections::BTreeSet<_> = cut.iter().copied().collect();
            prop_assert!(query.is_contingency_set(&db, &set), "{}", pattern);
            prop_assert_eq!(query.cost(&db, &set), v, "{}", pattern);
        }
    }
}
