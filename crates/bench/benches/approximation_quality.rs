//! Approximation on the NP-hard side: cost and quality of the polynomial
//! bounds of `resilience::approx` against the exponential exact solver.
//!
//! The paper's hardness results (Sections 4–6) say that no exact polynomial
//! algorithm exists for these languages (unless P = NP); this bench measures
//! what a user gives up by switching to the greedy / k-approximation bounds:
//! the runtime gap versus branch and bound. Before timing, both bounds are
//! asserted to sandwich the exact value on every instance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_automata::{Alphabet, Language};
use rpq_graphdb::generate::random_labeled_graph;
use rpq_resilience::algorithms::Algorithm;
use rpq_resilience::engine::Engine;
use rpq_resilience::rpq::Rpq;
use std::time::Duration;

fn approximation_quality(c: &mut Criterion) {
    let mut group = c.benchmark_group("approximation/aa_random");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    let alphabet = Alphabet::from_chars("a");
    let query = Rpq::new(Language::parse("aa").unwrap());
    for &facts in &[10usize, 14, 18] {
        let db = random_labeled_graph(facts / 2, facts, &alphabet, 0xAB + facts as u64);
        // Sanity: both backends' bounds sandwich the exact value.
        let exact = Engine::new()
            .solve_with(Algorithm::ExactBranchAndBound, &query, &db)
            .unwrap()
            .value
            .finite()
            .unwrap();
        for backend in [Algorithm::ApproxGreedy, Algorithm::ApproxKDisjoint] {
            let (lower, upper) =
                Engine::new().solve_with(backend, &query, &db).unwrap().bounds.unwrap();
            assert!(lower <= exact && exact <= upper, "{backend}: [{lower}, {upper}] vs {exact}");
        }

        group.bench_with_input(BenchmarkId::new("exact_bb", facts), &db, |b, db| {
            b.iter(|| {
                Engine::new().solve_with(Algorithm::ExactBranchAndBound, &query, db).unwrap().value
            })
        });
        group.bench_with_input(BenchmarkId::new("greedy", facts), &db, |b, db| {
            b.iter(|| Engine::new().solve_with(Algorithm::ApproxGreedy, &query, db).unwrap().value)
        });
        group.bench_with_input(BenchmarkId::new("k_approx", facts), &db, |b, db| {
            b.iter(|| {
                Engine::new().solve_with(Algorithm::ApproxKDisjoint, &query, db).unwrap().value
            })
        });
    }
    group.finish();
}

criterion_group!(benches, approximation_quality);
criterion_main!(benches);
