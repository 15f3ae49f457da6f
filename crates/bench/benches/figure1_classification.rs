//! Figure 1 benchmark: classify every example language of the paper's
//! overview figure and time the classification procedure (locality test,
//! four-legged search, chain / one-dangling decompositions).
//!
//! The languages come from `rpq_resilience::classify::figure1_rows`, the one
//! Figure 1 table; `rpq-cli figure1` prints it. Before timing, every verdict's
//! certificate is re-verified.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_automata::Language;
use rpq_resilience::classify::{classify, figure1_rows, verify_classification};
use std::time::Duration;

fn figure1(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure1/classification");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
    for row in figure1_rows() {
        let language = Language::parse(row.pattern).unwrap();
        assert!(verify_classification(&language, &row.computed), "certificate for {}", row.pattern);
        group.bench_with_input(BenchmarkId::from_parameter(row.pattern), &language, |b, l| {
            b.iter(|| classify(l));
        });
    }
    group.finish();
}

criterion_group!(benches, figure1);
criterion_main!(benches);
