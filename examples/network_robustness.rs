//! Network robustness: the MinCut ⇔ resilience correspondence from the
//! paper's introduction.
//!
//! The resilience of the RPQ `a x* b` in bag semantics on a database whose
//! `a`-facts mark sources, `b`-facts mark sinks and `x`-facts are capacitated
//! edges is exactly the classical minimum cut of the flow network. This
//! example builds a random multi-source / multi-sink network, computes both
//! quantities independently, and prints the optimal cut.
//!
//! Run with `cargo run --example network_robustness`.

use rpq::flow::{Capacity, CsrFlow, FlowScratch};
use rpq::graphdb::generate::flow_instance;
use rpq::resilience::algorithms::Algorithm;
use rpq::resilience::engine::Engine;
use rpq::resilience::rpq::Rpq;
use std::collections::BTreeMap;

fn main() {
    let db = flow_instance(4, 3, 2, 8, 2024);
    println!(
        "flow-shaped database: {} facts, total capacity {}",
        db.num_facts(),
        db.total_multiplicity()
    );

    // Resilience of a x* b under bag semantics: the engine reduces it to a
    // min cut of the Theorem 3.13 product network.
    let query = Rpq::parse("a x* b").unwrap().with_bag_semantics();
    let outcome = Engine::new().solve(&query, &db).expect("resilience computation");
    assert_eq!(outcome.algorithm, Algorithm::Local);
    println!("resilience of a x* b (bag semantics) = {}", outcome.value);

    // Build the corresponding classical flow network by hand: one vertex per
    // database node, plus a super-source feeding the sources of `a`-facts and
    // a super-sink fed by the targets of `b`-facts.
    let mut network = CsrFlow::new();
    let mut vertex_of = BTreeMap::new();
    for node in db.nodes() {
        vertex_of.insert(node, network.add_vertex());
    }
    let source = network.add_vertex();
    let sink = network.add_vertex();
    network.set_source(source);
    network.set_target(sink);
    for (id, fact) in db.facts() {
        let capacity = Capacity::Finite(db.multiplicity(id) as u128);
        match fact.label.as_char() {
            'a' => {
                network.add_edge(source, vertex_of[&fact.source], Capacity::Infinite);
                network.add_edge(vertex_of[&fact.source], vertex_of[&fact.target], capacity);
            }
            'b' => {
                network.add_edge(vertex_of[&fact.source], vertex_of[&fact.target], capacity);
                network.add_edge(vertex_of[&fact.target], sink, Capacity::Infinite);
            }
            _ => {
                network.add_edge(vertex_of[&fact.source], vertex_of[&fact.target], capacity);
            }
        }
    }
    network.freeze();
    let mut scratch = FlowScratch::new();
    let cut = network.min_cut(&mut scratch);
    println!("classical MinCut value                = {}", cut.value);
    // The cut is certified against the network itself: removing its edges
    // disconnects the super-source from the super-sink at exactly its value.
    assert_eq!(network.check_cut(cut.cut_edges), Ok(cut.value), "certified minimum cut");

    // The two computations agree (this is the content of the correspondence).
    let resilience = outcome.value.finite().expect("finite resilience");
    let mincut = cut.value.finite().expect("finite cut");
    assert_eq!(resilience, mincut, "resilience must equal the minimum cut");
    println!("the resilience equals the minimum cut, as claimed in the introduction");

    if let Some(facts) = outcome.contingency_set {
        println!("an optimal set of facts to remove ({}):", facts.len());
        for fact in facts {
            println!("  {} (capacity {})", db.display_fact(fact), db.multiplicity(fact));
        }
    }
}
