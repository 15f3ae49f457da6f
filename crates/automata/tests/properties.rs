//! Property-based tests for the formal-language substrate, driven by randomly
//! generated regular expressions over a two-letter alphabet.

use proptest::prelude::*;
use rpq_automata::derivative::derivative_dfa;
use rpq_automata::dfa::Dfa;
use rpq_automata::four_legged::{cartesian_violation, four_legged_witness};
use rpq_automata::local::is_local;
use rpq_automata::regex::Regex;
use rpq_automata::{Alphabet, Language, Letter, Word};

/// Strategy for small regular expressions over {a, b}.
fn small_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        Just(Regex::Letter(Letter('a'))),
        Just(Regex::Letter(Letter('b'))),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Regex::Concat),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Regex::Union),
            inner.clone().prop_map(|r| Regex::Star(Box::new(r))),
            inner.prop_map(|r| Regex::Optional(Box::new(r))),
        ]
    })
}

/// All words over {a, b} of length at most `n`.
fn words_up_to(n: usize) -> Vec<Word> {
    let mut out = vec![Word::epsilon()];
    let mut frontier = vec![Word::epsilon()];
    for _ in 0..n {
        let mut next = Vec::new();
        for w in &frontier {
            for c in ['a', 'b'] {
                let extended = w.concat(&Word::single(Letter(c)));
                out.push(extended.clone());
                next.push(extended);
            }
        }
        frontier = next;
    }
    out
}

/// The canonical form by its original formula, which assumes nothing about
/// its input: restrict the alphabet to the used letters, minimize, then
/// number the states by BFS from the initial state in alphabet order.
fn reference_canonical_form(dfa: &Dfa) -> String {
    let used = dfa.used_letters();
    let rows = (0..dfa.num_states())
        .map(|s| used.iter().map(|letter| dfa.successor(s, letter).unwrap()).collect())
        .collect();
    let finals = (0..dfa.num_states()).map(|s| dfa.is_final(s)).collect();
    let minimal = Dfa::from_parts(used.clone(), dfa.initial_state(), finals, rows).minimize();
    let mut bfs = vec![minimal.initial_state()];
    let mut head = 0;
    while head < bfs.len() {
        for letter in used.iter() {
            let t = minimal.successor(bfs[head], letter).unwrap();
            if !bfs.contains(&t) {
                bfs.push(t);
            }
        }
        head += 1;
    }
    let order = |t: usize| bfs.iter().position(|&s| s == t).unwrap();
    let letters: String = used.iter().map(|letter| letter.0).collect();
    let mut out = format!("alphabet={letters};states={};finals=", bfs.len());
    for &s in &bfs {
        out.push(if minimal.is_final(s) { '1' } else { '0' });
    }
    out.push_str(";delta=");
    for &s in &bfs {
        for letter in used.iter() {
            out.push_str(&format!("{},", order(minimal.successor(s, letter).unwrap())));
        }
        out.push(';');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn dfa_pipeline_agrees_with_the_thompson_enfa(regex in small_regex()) {
        let enfa = regex.to_enfa();
        let language = Language::from_regex(&regex);
        for word in words_up_to(4) {
            prop_assert_eq!(enfa.accepts(&word), language.contains(&word), "{} on {}", regex, word);
        }
    }

    #[test]
    fn dfa_pipeline_equals_the_minimized_derivative_dfa(regex in small_regex()) {
        // Exact equality, state numbering included: the subset construction
        // plus minimization must land on the same automaton as Brzozowski's.
        let language = Language::from_regex(&regex);
        let oracle = derivative_dfa(&regex, Some(language.alphabet().clone()), 10_000).minimize();
        prop_assert_eq!(language.dfa(), &oracle, "{}", regex);
    }

    #[test]
    fn infix_free_sublanguage_is_correct(regex in small_regex()) {
        let language = Language::from_regex(&regex);
        let if_language = language.infix_free();
        // IF(L) ⊆ L, IF(L) is infix-free, and membership matches the
        // definition on bounded-length words.
        prop_assert!(if_language.is_subset_of(&language));
        prop_assert!(if_language.is_infix_free());
        for word in words_up_to(4) {
            let expected = language.contains(&word)
                && word.strict_infixes().iter().all(|infix| !language.contains(infix));
            prop_assert_eq!(if_language.contains(&word), expected, "{} on {}", regex, word);
        }
    }

    #[test]
    fn mirror_is_an_involution(regex in small_regex()) {
        let language = Language::from_regex(&regex);
        let mirrored = language.mirror();
        prop_assert!(mirrored.mirror().equals(&language));
        for word in words_up_to(4) {
            prop_assert_eq!(language.contains(&word), mirrored.contains(&word.mirror()));
        }
    }

    #[test]
    fn locality_iff_no_cartesian_violation(regex in small_regex()) {
        let language = Language::from_regex(&regex);
        let local = is_local(&language);
        let violation = cartesian_violation(&language, false);
        prop_assert_eq!(local, violation.is_none());
        if let Some(v) = violation {
            prop_assert!(v.verify(&language));
        }
        // Local languages are never four-legged.
        if local {
            prop_assert!(four_legged_witness(&language).is_none());
        }
    }

    #[test]
    fn four_legged_witnesses_always_verify(regex in small_regex()) {
        let language = Language::from_regex(&regex).infix_free();
        if let Some(witness) = four_legged_witness(&language) {
            prop_assert!(witness.verify(&language));
            prop_assert!(witness.has_nonempty_legs());
            let stable = rpq_automata::four_legged::stabilize_legs(&language, &witness);
            prop_assert!(stable.verify(&language));
            prop_assert!(rpq_automata::four_legged::legs_are_stable(&language, &stable));
        }
    }

    #[test]
    fn canonical_form_of_a_minimal_dfa_matches_the_reference(
        r1 in small_regex(),
        r2 in small_regex(),
    ) {
        // Languages whose DFAs carry letters no word uses: an ambient letter
        // `c`, and the letters an intersection or difference can strand.
        let l1 = Language::from_regex(&r1);
        let l2 = Language::from_regex(&r2);
        let languages = [
            l1.with_alphabet(&Alphabet::from_chars("abc")),
            l1.intersection(&l2),
            l1.difference(&l2),
            l1,
        ];
        for language in &languages {
            let dfa = language.dfa();
            prop_assert_eq!(dfa.canonical_form(), reference_canonical_form(dfa), "{}", r1);
        }
    }

    #[test]
    fn boolean_operations_are_consistent(r1 in small_regex(), r2 in small_regex()) {
        let l1 = Language::from_regex(&r1);
        let l2 = Language::from_regex(&r2);
        let union = l1.union(&l2);
        let inter = l1.intersection(&l2);
        let diff = l1.difference(&l2);
        for word in words_up_to(3) {
            let (in1, in2) = (l1.contains(&word), l2.contains(&word));
            prop_assert_eq!(union.contains(&word), in1 || in2);
            prop_assert_eq!(inter.contains(&word), in1 && in2);
            prop_assert_eq!(diff.contains(&word), in1 && !in2);
        }
    }
}
