//! Overhead of witness extraction vs value-only solving.
//!
//! Every flow-based tractable backend can now extract an optimal contingency
//! set from its minimum cut — including the one-dangling rewriting, whose
//! witness requires mapping cut edges of the rewritten instance back through
//! the κ / negative-credit accounting (and, for mirrored decompositions,
//! through the database reversal). This benchmark measures what that costs:
//! the same prepared plan solves the same batch with
//! `PreparedQuery::solve_with_cut_traced(db, true, …)` and `(db, false, …)`
//! under a disabled trace, so the delta
//! is purely the per-database witness work. One group per tractable family,
//! with the mirrored one-dangling orientation measured separately (it adds a
//! database reversal per solve).
//!
//! Persist results with `CRITERION_SAVE=BENCH_witness.json cargo bench -p
//! rpq-bench --bench witness_overhead` (committed artifact at the workspace
//! root, see EXPERIMENTS.md).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_bench::batch_dbs;
use rpq_graphdb::GraphDb;
use rpq_resilience::engine::Engine;
use rpq_resilience::obs::Trace;
use rpq_resilience::rpq::Rpq;
use std::time::Duration;

/// One pattern per tractable family, plus the mirrored one-dangling
/// orientation (`cba|eb` reverses every database before rewriting).
const FAMILIES: &[(&str, &str)] = &[
    ("local", "ax*b"),
    ("chain", "ab|bc"),
    ("one_dangling", "abc|be"),
    ("one_dangling_mirrored", "cba|eb"),
];

const BATCH_SIZE: usize = 32;

fn witness_overhead_benchmarks(c: &mut Criterion) {
    for &(family, pattern) in FAMILIES {
        let query = Rpq::parse(pattern).expect("benchmark patterns parse");
        let dbs: Vec<GraphDb> = batch_dbs(pattern, BATCH_SIZE);
        let engine = Engine::new();
        let prepared = engine.prepare(&query).expect("tractable query");

        let mut group = c.benchmark_group(format!("witness_overhead/{family}"));
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(1))
            .warm_up_time(Duration::from_millis(200));
        group.throughput(criterion::Throughput::Elements(BATCH_SIZE as u64));

        for (label, want_cut) in [("value_only", false), ("with_witness", true)] {
            group.bench_with_input(BenchmarkId::new(label, BATCH_SIZE), &dbs, |b, dbs| {
                b.iter(|| {
                    for db in dbs {
                        let outcome = prepared
                            .solve_with_cut_traced(db, want_cut, &mut Trace::disabled())
                            .expect("tractable workload");
                        debug_assert_eq!(outcome.contingency_set.is_some(), want_cut);
                        black_box(outcome);
                    }
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, witness_overhead_benchmarks);
criterion_main!(benches);
