//! Approximation on the NP-hard side: cost and quality of the certified
//! sandwich the exact search returns when its work budget runs out.
//!
//! The paper's hardness results (Sections 4–6) say that no exact polynomial
//! algorithm exists for these languages (unless P = NP). The engine answers
//! them with one budgeted branch and bound (`resilience::exact`), which stops
//! with certified `[lower, upper]` bounds when its work budget runs out. This
//! bench measures what a smaller budget gives up: on random `aa` instances
//! it runs the search at a few work budgets, asserts that every interval
//! sandwiches the exact value (found under the cap) with a witness of cost
//! `upper`, prints each interval's relative width, and times every budget.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_automata::{Alphabet, Language};
use rpq_graphdb::generate::random_labeled_graph;
use rpq_resilience::exact::{resilience_search, WORK_CAP};
use rpq_resilience::rpq::Rpq;
use std::time::Duration;

/// The work budgets swept, in work units (witness-search product states).
const BUDGETS: [u64; 4] = [0, 2_000, 20_000, 200_000];

fn approximation_quality(c: &mut Criterion) {
    let mut group = c.benchmark_group("approximation/aa_random");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    let alphabet = Alphabet::from_chars("a");
    let query = Rpq::new(Language::parse("aa").unwrap());
    println!("search sandwich per work budget (relative width (upper - lower) / exact):");
    for &facts in &[40usize, 60, 80] {
        let db = random_labeled_graph(facts / 2, facts, &alphabet, 0xAB + facts as u64);
        let exact = resilience_search(&query, &db, WORK_CAP);
        assert!(exact.bounds.is_none(), "{facts} facts: the cap must suffice");
        let exact = exact.value.finite().unwrap();
        let mut row = format!("  {facts:>4} facts, exact {exact:>3}:");
        for budget in BUDGETS {
            let result = resilience_search(&query, &db, budget);
            let upper = result.value.finite().unwrap();
            let (lower, _) = result.bounds.unwrap_or((upper, upper));
            assert!(lower <= exact && exact <= upper, "{budget}: [{lower}, {upper}] vs {exact}");
            assert!(query.is_contingency_set(&db, &result.contingency_set));
            assert_eq!(query.cost(&db, &result.contingency_set), upper);
            let width = (upper - lower) as f64 / exact.max(1) as f64;
            row.push_str(&format!("  {budget}: [{lower}, {upper}] {width:.2}"));
        }
        println!("{row}");

        for budget in BUDGETS.into_iter().chain([WORK_CAP]) {
            let id = BenchmarkId::new(format!("search_{facts}"), budget);
            group.bench_with_input(id, &db, |b, db| {
                b.iter(|| resilience_search(&query, db, budget).value)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, approximation_quality);
criterion_main!(benches);
