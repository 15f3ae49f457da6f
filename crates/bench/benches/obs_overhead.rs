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
//!   its phase breakdown;
//! * `paired_ratio/<facts>` — the two arms run interleaved, one traced and
//!   one untraced batch per iteration with the first arm alternating, so the
//!   host's speed phases hit both arms alike. Each iteration gives one
//!   traced / untraced ratio; the entry records their median and quartiles
//!   (`p25`, `p75`). The budget: the median ratio stays below 1.03;
//! * `histogram_record` — one `MetricsRegistry` histogram lookup + record,
//!   the per-request server-side accounting cost (nanoseconds; amortized to
//!   nothing against a solve).
//!
//! Before timing, the traced and untraced batches are asserted to return the
//! same values. `scripts/bench_all.sh` refreshes the committed artifact.

use criterion::{
    criterion_group, criterion_main, measure_budget, persist_summary, BenchmarkId, Criterion,
    Throughput,
};
use rpq_bench::workloads::flow_db_of_size;
use rpq_graphdb::GraphDb;
use rpq_resilience::engine::{Engine, SolveCall};
use rpq_resilience::obs::{MetricsRegistry, Trace};
use rpq_resilience::rpq::Rpq;
use std::time::{Duration, Instant};

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

        let time = |traced: bool| {
            let started = Instant::now();
            let mut trace = if traced { Trace::enabled() } else { Trace::disabled() };
            criterion::black_box(prepared.route_batch(&dbs, 1, &call, &mut trace));
            criterion::black_box(trace.seal());
            started.elapsed()
        };
        // One warm-up pair, then pairs until twice one arm's time budget
        // (each iteration runs both arms; at least 5 pairs, at most 1,000),
        // the first arm alternating.
        time(false);
        time(true);
        let (mut untraced, mut traced): (Vec<Duration>, Vec<Duration>) = (Vec::new(), Vec::new());
        let deadline = Instant::now() + 2 * measure_budget();
        while untraced.len() < 5 || (Instant::now() < deadline && untraced.len() < 1_000) {
            let traced_first = traced.len() % 2 == 1;
            let first = time(traced_first);
            let second = time(!traced_first);
            let (t, u) = if traced_first { (first, second) } else { (second, first) };
            traced.push(t);
            untraced.push(u);
        }
        let mut ratios: Vec<f64> =
            traced.iter().zip(&untraced).map(|(t, u)| t.as_secs_f64() / u.as_secs_f64()).collect();
        ratios.sort_by(f64::total_cmp);
        let quantile = |q: f64| ratios[((q * ratios.len() as f64).ceil() as usize).max(1) - 1];
        let (p25, median, p75) = (quantile(0.25), quantile(0.5), quantile(0.75));
        println!(
            "obs_overhead/paired_ratio/{facts}: median {median:.4}, IQR [{p25:.4}, {p75:.4}] \
             over {} pairs",
            ratios.len()
        );
        persist_summary(
            &format!("obs_overhead/paired_ratio/{facts}"),
            &[("median", median), ("p25", p25), ("p75", p75), ("pairs", ratios.len() as f64)],
        );
        group.record_samples(BenchmarkId::new("untraced", facts), untraced);
        group.record_samples(BenchmarkId::new("traced", facts), traced);
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
