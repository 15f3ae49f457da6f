//! MinCut-equivalence benchmark (paper introduction): the resilience of
//! `a x* b` under bag semantics versus a direct Dinic min-cut on the same
//! instance. The two must return the same value; the benchmark compares the
//! overhead of going through the RPQ product construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_bench::flow_db_of_size;
use rpq_flow::{Capacity, FlowNetwork};
use rpq_graphdb::GraphDb;
use rpq_resilience::engine::Engine;
use rpq_resilience::rpq::Rpq;
use std::collections::BTreeMap;
use std::time::Duration;

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

fn mincut_equivalence(c: &mut Criterion) {
    let mut group = c.benchmark_group("mincut_equivalence");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    for size in [512usize, 2048, 8192] {
        let db = flow_db_of_size(size);
        let query = Rpq::parse("ax*b").unwrap().with_bag_semantics();

        // Consistency check outside the timed region.
        let resilience = Engine::new().solve(&query, &db).unwrap().value.finite().unwrap();
        let mincut = rpq_flow::min_cut(&classical_network(&db)).value.finite().unwrap();
        assert_eq!(resilience, mincut, "resilience must equal the classical min cut");

        group.bench_with_input(BenchmarkId::new("rpq_resilience", db.num_facts()), &db, |b, db| {
            b.iter(|| Engine::new().solve(&query, db).unwrap().value)
        });
        group.bench_with_input(
            BenchmarkId::new("classical_mincut", db.num_facts()),
            &db,
            |b, db| b.iter(|| rpq_flow::min_cut(&classical_network(db)).value),
        );
    }
    group.finish();
}

criterion_group!(benches, mincut_equivalence);
criterion_main!(benches);
