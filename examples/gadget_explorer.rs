//! Hardness-gadget explorer: mechanically verifies the paper's gadgets
//! (Definition 4.9) and runs the vertex-cover reduction of Proposition 4.11
//! end to end on a small graph.
//!
//! Run with `cargo run --example gadget_explorer`.

use rpq::automata::Language;
use rpq::resilience::algorithms::Algorithm;
use rpq::resilience::engine::Engine;
use rpq::resilience::gadgets::library;
use rpq::resilience::reductions::{subdivision_vertex_cover_number, UndirectedGraph};
use rpq::resilience::rpq::Rpq;

fn main() {
    let gadgets: Vec<(&str, rpq::resilience::gadgets::PreGadget, &str)> = vec![
        ("aa", library::gadget_aa(), "Figure 3b / Proposition 4.1"),
        ("aaa", library::gadget_aaa(), "Figure 10 / Claim 6.11"),
        ("axb|cxd", library::gadget_axb_cxd(), "Figure 4a / Proposition 4.13"),
        ("ab|bc|ca", library::gadget_ab_bc_ca(), "Figure 13 / Proposition 7.4"),
    ];

    println!("Mechanical verification of the paper's hardness gadgets");
    println!("{:<12} {:<32} {:>9} {:>12}", "language", "source", "matches", "path length");
    println!("{}", "-".repeat(70));
    for (pattern, gadget, source) in &gadgets {
        let language = Language::parse(pattern).unwrap();
        let report = gadget.verify(&language);
        assert!(report.is_valid, "gadget for {pattern} failed verification: {:?}", report.failure);
        println!(
            "{:<12} {:<32} {:>9} {:>12}",
            pattern,
            source,
            report.num_matches,
            report.path_length.unwrap()
        );
    }

    // End-to-end hardness reduction: encode a 5-cycle with the aa gadget and
    // check that the resilience matches the vertex-cover prediction.
    println!("\nVertex-cover reduction (Proposition 4.11) with the aa gadget:");
    let gadget = library::gadget_aa();
    let language = Language::parse("aa").unwrap();
    let ell = gadget.verify(&language).path_length.unwrap();
    let graph = UndirectedGraph::cycle(5);
    let encoding = gadget.encode_graph(&graph);
    println!(
        "  C5 encoded as a database with {} nodes and {} facts",
        encoding.num_nodes(),
        encoding.num_facts()
    );
    let resilience = Engine::new()
        .solve_with(Algorithm::ExactBranchAndBound, &Rpq::new(language), &encoding)
        .unwrap();
    let predicted = subdivision_vertex_cover_number(&graph, ell);
    println!("  vertex cover number of C5      = {}", graph.vertex_cover_number());
    println!("  predicted resilience (Prp 4.2) = {predicted}");
    println!("  measured resilience            = {}", resilience.value);
    assert_eq!(resilience.value.finite().unwrap(), predicted as u128);
    println!("  the reduction checks out: resilience = vc(G) + m(ℓ−1)/2 with ℓ = {ell}");
}
