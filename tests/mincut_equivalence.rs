//! Integration test: the resilience of `a x* b` in bag semantics equals the
//! classical minimum cut of the corresponding flow network (the
//! correspondence described in the paper's introduction).

use rpq::flow::{Capacity, FlowNetwork};
use rpq::graphdb::generate::flow_instance;
use rpq::graphdb::GraphDb;
use rpq::resilience::algorithms::Algorithm;
use rpq::resilience::engine::Engine;
use rpq::resilience::rpq::Rpq;
use std::collections::BTreeMap;

/// Builds the classical flow network of a flow-shaped `a/x/b` database.
fn classical_network(db: &GraphDb) -> FlowNetwork {
    let mut network = FlowNetwork::new();
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
    network
}

#[test]
fn resilience_of_ax_star_b_equals_classical_mincut() {
    for seed in 0..8 {
        let db = flow_instance(4, 3, 2, 6, seed);
        let query = Rpq::parse("ax*b").unwrap().with_bag_semantics();
        let outcome = Engine::new().solve(&query, &db).unwrap();
        assert_eq!(outcome.algorithm, Algorithm::Local);
        let cut = rpq::flow::min_cut(&classical_network(&db));
        assert_eq!(outcome.value.finite().unwrap(), cut.value.finite().unwrap(), "seed {seed}");
    }
}

#[test]
fn resilience_is_monotone_in_capacities() {
    // Raising a multiplicity can only increase (or keep) the bag resilience.
    let db = flow_instance(3, 3, 2, 4, 99);
    let query = Rpq::parse("ax*b").unwrap().with_bag_semantics();
    let base = Engine::new().solve(&query, &db).unwrap().value.finite().unwrap();
    let mut boosted = db.clone();
    let first = boosted.fact_ids().next().unwrap();
    boosted.set_multiplicity(first, boosted.multiplicity(first) + 10);
    let boosted_value = Engine::new().solve(&query, &boosted).unwrap().value.finite().unwrap();
    assert!(boosted_value >= base);
}

#[test]
fn removing_the_contingency_set_disconnects_the_network() {
    let db = flow_instance(4, 3, 2, 5, 7);
    let query = Rpq::parse("ax*b").unwrap().with_bag_semantics();
    let outcome = Engine::new().solve(&query, &db).unwrap();
    let cut = outcome.contingency_set.expect("local algorithm returns a cut");
    let removed = cut.into_iter().collect();
    assert!(query.is_contingency_set(&db, &removed));
}
