//! Plan reuse: prepared (`Engine::prepare` once + `PreparedQuery::solve` per
//! database) vs unprepared (`Engine::solve` per database, re-deriving the
//! full query classification every call) on batch workloads.
//!
//! The tractable algorithms split into a query-only half (infix-free
//! sublanguage, ε-check, locality RO-εNFA, chain / one-dangling
//! decompositions, algorithm choice) and a per-database half (building and
//! cutting one flow network). On a batch of small databases the query-only
//! half dominates the unprepared path; the prepared path pays it once. The
//! `prepare_only` group isolates that query-only cost.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_bench::batch_dbs;
use rpq_graphdb::GraphDb;
use rpq_resilience::engine::Engine;
use rpq_resilience::rpq::Rpq;
use std::time::Duration;

/// One pattern per tractable family, solved over a batch of random databases.
const BATCH_PATTERNS: &[(&str, &str)] =
    &[("local", "ax*b"), ("chain", "ab|bc"), ("one_dangling", "abc|be")];

const BATCH_SIZE: usize = 32;

fn configure(group: &mut criterion::BenchmarkGroup<'_>) {
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
}

fn solve_batch_benchmarks(c: &mut Criterion) {
    for &(family, pattern) in BATCH_PATTERNS {
        let query = Rpq::parse(pattern).expect("benchmark patterns parse");
        let dbs: Vec<GraphDb> = batch_dbs(pattern, BATCH_SIZE);
        let mut group = c.benchmark_group(format!("prepared_vs_unprepared/{family}"));
        configure(&mut group);
        group.throughput(criterion::Throughput::Elements(BATCH_SIZE as u64));

        // Unprepared: the one-shot `Engine::solve` reclassifies on every call.
        group.bench_with_input(BenchmarkId::new("unprepared", BATCH_SIZE), &dbs, |b, dbs| {
            b.iter(|| {
                for db in dbs {
                    black_box(Engine::new().solve(&query, db).expect("tractable workload"));
                }
            });
        });

        // Prepared: classify once, solve many.
        let engine = Engine::new();
        group.bench_with_input(BenchmarkId::new("prepared", BATCH_SIZE), &dbs, |b, dbs| {
            b.iter(|| {
                let prepared = engine.prepare(&query).expect("tractable query");
                for db in dbs {
                    black_box(prepared.solve(db).expect("tractable workload"));
                }
            });
        });

        // The query-only cost the prepared path amortizes away.
        group.bench_function(BenchmarkId::new("prepare_only", 1), |b| {
            b.iter(|| black_box(engine.prepare(&query).expect("tractable query")));
        });
        group.finish();
    }
}

criterion_group!(benches, solve_batch_benchmarks);
criterion_main!(benches);
