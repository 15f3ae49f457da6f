//! End-to-end validation of the parameterized gadget families (Theorem 5.3
//! Case 1, Lemma 6.6, Claims 6.10/6.11/6.14, Proposition 7.11): the driver
//! must produce mechanically verified gadgets for the hard languages it
//! covers, and the vertex-cover reduction built from those gadgets must
//! satisfy the Proposition 4.2 identity exactly.

use rpq::automata::Language;
use rpq::resilience::algorithms::Algorithm;
use rpq::resilience::engine::Engine;
use rpq::resilience::gadgets::families::{find_gadget, GadgetFamily};
use rpq::resilience::reductions::{subdivision_vertex_cover_number, UndirectedGraph};
use rpq::resilience::rpq::{ResilienceValue, Rpq};

fn lang(pattern: &str) -> Language {
    Language::parse(pattern).unwrap()
}

#[test]
fn every_covered_hard_language_gets_a_verified_certificate() {
    // (pattern, family expected to settle it). The driver may legitimately
    // find the certificate through the mirror language (Proposition 6.3).
    let cases: &[(&str, &[GadgetFamily])] = &[
        ("aa", &[GadgetFamily::Figure3b]),
        ("aaa", &[GadgetFamily::Figure3b, GadgetFamily::Figure10]),
        ("aab", &[GadgetFamily::Figure11, GadgetFamily::Figure8]),
        ("baa", &[GadgetFamily::Figure11, GadgetFamily::Figure8]),
        ("abca", &[GadgetFamily::Figure7]),
        ("abcab", &[GadgetFamily::Figure8]),
        ("aba|bab", &[GadgetFamily::Figure9]),
        ("axb|cxd", &[GadgetFamily::Figure4a, GadgetFamily::Figure5Case1]),
        ("aexb|cexd", &[GadgetFamily::Figure5Case1]),
        ("ab|bc|ca", &[GadgetFamily::Figure13]),
        ("abcd|be|ef", &[GadgetFamily::Figure15]),
        ("abcd|bef", &[GadgetFamily::Figure16]),
    ];
    for (pattern, families) in cases {
        let found = find_gadget(&lang(pattern))
            .unwrap_or_else(|| panic!("no verified gadget found for {pattern}"));
        assert!(found.report.is_valid, "{pattern}");
        assert!(
            families.contains(&found.family),
            "{pattern}: expected one of {families:?}, got {:?}",
            found.family
        );
        // Odd condensed path, as required by Definition 4.9.
        assert_eq!(found.report.path_length.unwrap() % 2, 1, "{pattern}");
    }
}

#[test]
fn tractable_languages_never_get_a_gadget() {
    for pattern in ["ax*b", "ab|ad|cd", "abc|abd", "ab|bc", "axb|byc", "abc|be", "abcd|be", "a|b"] {
        assert!(find_gadget(&lang(pattern)).is_none(), "{pattern} is tractable");
    }
}

#[test]
fn family_gadgets_reproduce_the_vertex_cover_identity() {
    // Proposition 4.2 / 4.11: the resilience of the encoding of G equals
    // vc(G) + m(ℓ−1)/2 where ℓ is the condensed path length of the gadget.
    // Exercised here with family-generated (not hand-drawn) gadgets.
    // The encodings are solved with the exponential exact solver, so the
    // graphs are kept small (the identity is checked on larger graphs for the
    // cheaper gadgets in the unit tests of `gadgets::families`).
    let graphs = [
        UndirectedGraph::new(2, [(0, 1)]),
        UndirectedGraph::new(3, [(0, 1), (1, 2)]),
        UndirectedGraph::cycle(3),
    ];
    for pattern in ["aab", "abca", "aba|bab"] {
        let language = lang(pattern);
        let found = find_gadget(&language).unwrap();
        assert!(!found.for_mirror, "{pattern} should be settled without mirroring");
        let ell = found.report.path_length.unwrap();
        let query = Rpq::new(language);
        for graph in &graphs {
            let encoding = found.gadget.encode_graph(graph);
            let resilience = Engine::new()
                .solve_with(Algorithm::ExactBranchAndBound, &query, &encoding)
                .unwrap()
                .value;
            let expected = subdivision_vertex_cover_number(graph, ell);
            assert_eq!(
                resilience,
                ResilienceValue::Finite(expected as u128),
                "{pattern} on a graph with {} vertices / {} edges",
                graph.num_vertices,
                graph.num_edges()
            );
        }
    }
}

#[test]
fn mirror_certificates_are_verified_against_the_mirror_language() {
    let found = find_gadget(&lang("baa")).expect("baa is settled through its mirror aab");
    assert!(found.for_mirror);
    // The returned gadget must indeed be a gadget for the mirror language.
    let mirrored = lang("baa").infix_free().mirror();
    assert!(found.gadget.verify(&mirrored).is_valid);
}
