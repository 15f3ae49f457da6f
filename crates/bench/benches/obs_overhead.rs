//! `obs_overhead`: cost of the observability layer on the batch hot path.
//!
//! `rpq_obs::Trace` spans run through every solve phase, and the server
//! records per-request latency histograms. Both are designed to be free when
//! off: a disabled `Trace` is a no-op enum variant (no clock reads), and
//! histograms only fire in the server's response path. This benchmark
//! measures both on a 16-database `ax*b` batch (`jobs = 1`):
//!
//! * `untraced/<facts>` — `PreparedQuery::route_batch` through a disabled
//!   trace: the exact code path of an ordinary (non-`trace: true`) request;
//! * `traced/<facts>` — the same batch through an enabled `Trace`, i.e. what
//!   a `"trace": true` request (or a server with `--slow-query-log`) pays for
//!   its phase breakdown. The budget: its median stays within 3% of the
//!   `untraced` median of the same run;
//! * `histogram_record` — one `MetricsRegistry` histogram lookup + record,
//!   the per-request server-side accounting cost (nanoseconds; amortized to
//!   nothing against a solve).
//!
//! Before timing, the traced and untraced batches are asserted to return the
//! same values. `scripts/bench_all.sh` refreshes the committed artifact.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpq_bench::workloads::flow_db_of_size;
use rpq_graphdb::GraphDb;
use rpq_resilience::engine::{Engine, SolveCall};
use rpq_resilience::obs::{MetricsRegistry, Trace};
use rpq_resilience::rpq::Rpq;

const BATCH: usize = 16;

fn corpus(facts: usize) -> Vec<GraphDb> {
    // Vary the size a little so the databases are not identical.
    (0..BATCH).map(|i| flow_db_of_size(facts + 8 * i)).collect()
}

fn bench_obs_overhead(c: &mut Criterion) {
    let engine = Engine::new();
    let prepared = engine.prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(Throughput::Elements(BATCH as u64));

    let call = SolveCall::new(true);
    for facts in [512, 2048] {
        let dbs = corpus(facts);
        // Sanity: tracing must not change results, only record spans.
        let values = |trace: &mut Trace| -> Vec<_> {
            let results = prepared.route_batch(&dbs, 1, &call, trace);
            results.into_iter().map(|r| r.unwrap().outcome.value).collect()
        };
        let untraced = values(&mut Trace::disabled());
        let mut check = Trace::enabled();
        assert_eq!(values(&mut check), untraced, "facts={facts}");
        assert!(check.seal() > 0, "enabled trace must record spans");

        group.bench_with_input(BenchmarkId::new("untraced", facts), &dbs, |b, dbs| {
            b.iter(|| prepared.route_batch(dbs, 1, &call, &mut Trace::disabled()));
        });
        group.bench_with_input(BenchmarkId::new("traced", facts), &dbs, |b, dbs| {
            b.iter(|| {
                let mut trace = Trace::enabled();
                let results = prepared.route_batch(dbs, 1, &call, &mut trace);
                (results, trace.seal())
            });
        });
    }
    group.finish();

    // The server-side per-request accounting: sharded registry lookup plus
    // one atomic histogram record.
    let registry = MetricsRegistry::default();
    let mut group = c.benchmark_group("obs_overhead");
    group.throughput(Throughput::Elements(1));
    let mut us = 0u64;
    group.bench_function("histogram_record", |b| {
        b.iter(|| {
            us = us.wrapping_add(137);
            registry.histogram(["solve", "local", "poly", "dinic"]).record(us)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
