//! Gadget benchmarks (Figures 3, 4, 10, 13): mechanical re-verification of the
//! paper's hardness gadgets (Definition 4.9) and the end-to-end vertex-cover
//! reduction of Proposition 4.11 on small encoded graphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_automata::Language;
use rpq_resilience::algorithms::Algorithm;
use rpq_resilience::engine::Engine;
use rpq_resilience::gadgets::library;
use rpq_resilience::gadgets::PreGadget;
use rpq_resilience::reductions::UndirectedGraph;
use rpq_resilience::rpq::Rpq;
use std::time::Duration;

fn gadget_verification(c: &mut Criterion) {
    let gadgets: Vec<(&str, PreGadget)> = vec![
        ("fig3_aa", library::gadget_aa()),
        ("fig10_aaa", library::gadget_aaa()),
        ("fig4_axb_cxd", library::gadget_axb_cxd()),
        ("fig13_ab_bc_ca", library::gadget_ab_bc_ca()),
    ];
    let languages = ["aa", "aaa", "axb|cxd", "ab|bc|ca"];

    let mut group = c.benchmark_group("gadgets/verify");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    for ((name, gadget), pattern) in gadgets.iter().zip(languages) {
        let language = Language::parse(pattern).unwrap();
        assert!(gadget.verify(&language).is_valid, "{name}");
        group.bench_with_input(BenchmarkId::from_parameter(name), gadget, |b, g| {
            b.iter(|| g.verify(&language).is_valid)
        });
    }
    group.finish();

    // Hardness reduction: exact resilience of vertex-cover encodings grows
    // exponentially with the graph size (the NP-hard side of the dichotomy).
    let mut group = c.benchmark_group("gadgets/vertex_cover_reduction_aa");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(200));
    let gadget = library::gadget_aa();
    let query = Rpq::parse("aa").unwrap();
    for n in [3usize, 4, 5] {
        let graph = UndirectedGraph::cycle(n);
        let encoding = gadget.encode_graph(&graph);
        group.bench_with_input(BenchmarkId::from_parameter(format!("C{n}")), &encoding, |b, db| {
            b.iter(|| {
                Engine::new().solve_with(Algorithm::ExactBranchAndBound, &query, db).unwrap().value
            })
        });
    }
    group.finish();
}

criterion_group!(benches, gadget_verification);
criterion_main!(benches);
