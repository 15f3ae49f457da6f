//! Integration test: the hardness reduction of Proposition 4.11 is validated
//! end to end on small graphs, for the gadgets transcribed from the paper.

use rpq::automata::Language;
use rpq::resilience::algorithms::Algorithm;
use rpq::resilience::engine::Engine;
use rpq::resilience::gadgets::library;
use rpq::resilience::gadgets::PreGadget;
use rpq::resilience::reductions::{subdivision_vertex_cover_number, UndirectedGraph};
use rpq::resilience::rpq::{ResilienceValue, Rpq};

fn check_reduction(gadget: &PreGadget, pattern: &str, graphs: &[UndirectedGraph]) {
    let language = Language::parse(pattern).unwrap();
    let report = gadget.verify(&language);
    assert!(report.is_valid, "gadget for {pattern}: {:?}", report.failure);
    let ell = report.path_length.unwrap();
    assert_eq!(ell % 2, 1, "the condensed match path must have odd length");
    let query = Rpq::new(language);
    for graph in graphs {
        let encoding = gadget.encode_graph(graph);
        let resilience = Engine::new()
            .solve_with(Algorithm::ExactBranchAndBound, &query, &encoding)
            .unwrap()
            .value;
        let expected = subdivision_vertex_cover_number(graph, ell) as u128;
        assert_eq!(
            resilience,
            ResilienceValue::Finite(expected),
            "{pattern} on a graph with {} vertices / {} edges",
            graph.num_vertices,
            graph.num_edges()
        );
    }
}

#[test]
fn proposition_4_1_reduction_for_aa() {
    let graphs = vec![
        UndirectedGraph::new(2, [(0, 1)]),
        UndirectedGraph::new(4, [(0, 1), (1, 2), (2, 3)]),
        UndirectedGraph::cycle(3),
        UndirectedGraph::cycle(4),
        UndirectedGraph::new(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),
    ];
    check_reduction(&library::gadget_aa(), "aa", &graphs);
}

#[test]
fn claim_6_11_reduction_for_aaa() {
    let graphs = vec![UndirectedGraph::new(2, [(0, 1)]), UndirectedGraph::cycle(3)];
    check_reduction(&library::gadget_aaa(), "aaa", &graphs);
}

#[test]
fn proposition_7_4_reduction_for_ab_bc_ca() {
    let graphs = vec![
        UndirectedGraph::new(2, [(0, 1)]),
        UndirectedGraph::new(3, [(0, 1), (1, 2)]),
        UndirectedGraph::cycle(3),
    ];
    check_reduction(&library::gadget_ab_bc_ca(), "ab|bc|ca", &graphs);
}

#[test]
fn proposition_4_13_reduction_for_axb_cxd() {
    // The Figure 4a gadget has 17 facts per edge copy, so keep the graphs tiny
    // to stay within the exact solver's reach.
    let graphs = vec![UndirectedGraph::new(2, [(0, 1)]), UndirectedGraph::new(3, [(0, 1), (1, 2)])];
    check_reduction(&library::gadget_axb_cxd(), "axb|cxd", &graphs);
}

#[test]
fn random_graphs_through_the_aa_reduction() {
    let gadget = library::gadget_aa();
    let language = Language::parse("aa").unwrap();
    let ell = gadget.verify(&language).path_length.unwrap();
    let query = Rpq::new(language);
    for seed in 0..4 {
        let graph = UndirectedGraph::random(5, 0.45, seed);
        let encoding = gadget.encode_graph(&graph);
        let resilience = Engine::new()
            .solve_with(Algorithm::ExactBranchAndBound, &query, &encoding)
            .unwrap()
            .value;
        let expected = subdivision_vertex_cover_number(&graph, ell) as u128;
        assert_eq!(resilience, ResilienceValue::Finite(expected), "seed {seed}");
    }
}
