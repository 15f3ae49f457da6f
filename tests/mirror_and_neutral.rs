//! Integration tests for Proposition 6.3 (mirror invariance) and
//! Proposition 5.7 (the neutral-letter dichotomy).

use proptest::prelude::*;
use rpq::automata::{neutral, Alphabet, Language};
use rpq::graphdb::generate::random_labeled_graph;
use rpq::resilience::classify::{classify, classify_with_neutral_letter};
use rpq::resilience::engine::Engine;
use rpq::resilience::rpq::Rpq;

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    #[test]
    fn mirror_invariance_of_resilience(
        nodes in 2usize..5,
        facts in 1usize..9,
        seed in any::<u64>(),
    ) {
        let db = random_labeled_graph(nodes, facts, &Alphabet::from_chars("abx"), seed);
        for pattern in ["ax*b", "ab", "aa", "ab|bx"] {
            let q = Rpq::new(Language::parse(pattern).unwrap());
            let direct = Engine::new().solve(&q, &db).unwrap().value;
            let mirrored = Engine::new().solve(&q.mirror(), &db.reversed()).unwrap().value;
            prop_assert_eq!(direct, mirrored, "{}", pattern);
        }
    }
}

#[test]
fn neutral_letter_dichotomy_is_a_dichotomy() {
    // Every language with a neutral letter is classified (no Unclassified verdicts).
    for pattern in
        ["e*be*ce*|e*de*fe*", "e*(a|c)e*(a|d)e*", "e*ae*", "e*ae*be*", "e*(a|b)e*", "e*ae*be*ce*"]
    {
        let language = Language::parse(pattern).unwrap();
        assert!(
            neutral::is_neutral_letter(&language, 'e'.into()),
            "{pattern} should have e neutral"
        );
        let verdict = classify_with_neutral_letter(&language).unwrap();
        assert!(!verdict.is_unclassified(), "{pattern}: the dichotomy leaves nothing unclassified");
        // The general classifier must agree on the region.
        let general = classify(&language);
        assert_eq!(general.is_tractable(), verdict.is_tractable(), "{pattern}");
    }
}

#[test]
fn padded_languages_from_the_paper() {
    // L1 and L2 after Lemma 5.8: L1's IF is four-legged, L2's IF contains aa.
    let l1 = Language::parse("e*be*ce*|e*de*fe*").unwrap();
    assert!(l1
        .infix_free()
        .equals(&Language::parse("be*c|de*f").unwrap().with_alphabet(l1.alphabet())));
    assert!(rpq::automata::four_legged::is_four_legged(&l1.infix_free()));

    let l2 = Language::parse("e*(a|c)e*(a|d)e*").unwrap();
    let if2 = l2.infix_free();
    assert!(if2.contains(&rpq::automata::Word::from_str_word("aa")));
    assert!(rpq::automata::four_legged::four_legged_witness(&if2).is_none());
}
