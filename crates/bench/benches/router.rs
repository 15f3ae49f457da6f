//! `router`: decision quality and latency of the cost-model tier router.
//!
//! The router (`rpq_resilience::router`) dispatches every solve through a
//! structural cost estimate: a request whose projected cost fits its budget
//! runs the planned backend and answers exactly; one that does not is
//! degraded to the exact search under a work budget proportional to the
//! cost budget, which answers exactly or with a certified sandwich. This
//! benchmark sweeps
//! the cost budget across the decision boundary on the shared scaling
//! corpus and records both halves of the trade:
//!
//! * `route_<family>/<budget_us>` — wall-clock of one routed solve under the
//!   swept `cost_budget_us` (the numeric series plot_bench.py renders):
//!   tight budgets stop the search early with certified bounds, loose
//!   budgets pay the planned backend;
//! * `overhead/route_unlimited` vs `overhead/solve_direct` — the router's
//!   no-budget overhead on the ordinary path (one estimate comparison; the
//!   answers are bit-identical);
//! * a **decision-quality table** on stdout: for each budget, the fraction
//!   of solves the planned backend answered, the fraction degraded, and the mean
//!   relative width `(upper - lower) / max(1, exact)` of the certified
//!   interval over the degraded finite answers — every interval is asserted
//!   to sandwich the true value first. The number of exact answers per
//!   budget depends only on `CostModel` and the corpus, so it is asserted
//!   too (`EXACT_PER_BUDGET`): a change to either that moves a decision
//!   fails the bench.
//!
//! `scripts/bench_all.sh` refreshes the committed artifact (see
//! EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpq_bench::workloads::{
    chain_db_of_size, flow_db_of_size, local_db_of_size, one_dangling_db_of_size,
};
use rpq_graphdb::GraphDb;
use rpq_resilience::engine::{Engine, SolveCall};
use rpq_resilience::obs::Trace;
use rpq_resilience::router::RouteBudget;
use rpq_resilience::rpq::{ResilienceValue, Rpq};

/// The budget sweep, in microseconds: from far below any planned cost to
/// far above the whole corpus (the decision boundary sits in between).
const BUDGETS_US: [u64; 6] = [2, 16, 128, 1024, 8192, 65536];

/// How many of the corpus's 12 solves answer exactly under each budget of
/// `BUDGETS_US`: none up to 128 µs, four at 1024 µs, all from 8192 µs.
const EXACT_PER_BUDGET: [u32; 6] = [0, 0, 0, 4, 12, 12];

/// One database per family and size step — enough to put solves on both
/// sides of every budget without inflating the bench runtime.
const SIZES: [usize; 3] = [256, 512, 1024];

type Family = (&'static str, &'static str, fn(usize) -> GraphDb);

fn corpus() -> Vec<(&'static str, &'static str, Vec<GraphDb>)> {
    let families: [Family; 4] = [
        ("ax_star_b", "ax*b", flow_db_of_size),
        ("ab_ad_cd", "ab|ad|cd", local_db_of_size),
        ("ab_bc", "ab|bc", chain_db_of_size),
        ("abc_be", "abc|be", one_dangling_db_of_size),
    ];
    families
        .into_iter()
        .map(|(name, pattern, build)| (name, pattern, SIZES.iter().map(|&s| build(s)).collect()))
        .collect()
}

fn bench_router(c: &mut Criterion) {
    let engine = Engine::new();
    let corpus = corpus();
    let value_only = |budget_us| SolveCall {
        budget: RouteBudget::with_cost_budget_us(budget_us),
        ..SolveCall::new(false)
    };

    // Decision quality across the sweep: certified sandwich asserted on
    // every degraded answer, then summarized per budget.
    println!("router decision quality ({} solves per budget):", corpus.len() * SIZES.len());
    println!("  budget_us  exact_rate  degraded_rate  mean_rel_width");
    for (budget_us, expected_exact) in BUDGETS_US.into_iter().zip(EXACT_PER_BUDGET) {
        let call = value_only(budget_us);
        let (mut exact, mut degraded, mut widths) = (0u32, 0u32, Vec::new());
        for (name, pattern, dbs) in &corpus {
            let prepared = engine.prepare(&Rpq::parse(pattern).unwrap()).unwrap();
            for db in dbs {
                let truth = prepared.solve(db).unwrap().value;
                let tiered = prepared.route(db, &call, &mut Trace::disabled()).unwrap();
                if tiered.degraded {
                    degraded += 1;
                } else {
                    exact += 1;
                    assert_eq!(tiered.outcome.value, truth, "{name}: unbudgeted answers agree");
                    continue;
                }
                match (truth, tiered.outcome.bounds) {
                    (ResilienceValue::Finite(value), Some((lower, upper))) => {
                        assert!(
                            lower <= value && value <= upper,
                            "{name}: [{lower}, {upper}] does not sandwich {value}"
                        );
                        widths.push((upper - lower) as f64 / (value.max(1)) as f64);
                    }
                    // Trivially certified: resilience 0 or provably infinite.
                    (ResilienceValue::Finite(value), None) => {
                        assert_eq!(tiered.outcome.value, ResilienceValue::Finite(value), "{name}")
                    }
                    (ResilienceValue::Infinite, _) => {
                        assert!(tiered.outcome.value.is_infinite(), "{name}")
                    }
                }
            }
        }
        let total = (exact + degraded) as f64;
        let mean_width =
            if widths.is_empty() { 0.0 } else { widths.iter().sum::<f64>() / widths.len() as f64 };
        println!(
            "  {budget_us:>9}  {:>10.2}  {:>13.2}  {:>14.2}",
            exact as f64 / total,
            degraded as f64 / total,
            mean_width
        );
        assert_eq!(exact, expected_exact, "exact answers under a {budget_us} µs budget");
    }

    // Latency of one routed solve as the budget crosses the boundary: the
    // numeric series rendered by scripts/plot_bench.py.
    let mut group = c.benchmark_group("router");
    group.throughput(Throughput::Elements(1));
    for (name, pattern, dbs) in &corpus {
        let prepared = engine.prepare(&Rpq::parse(pattern).unwrap()).unwrap();
        let db = &dbs[1]; // the 512-fact step
        for budget_us in BUDGETS_US {
            group.bench_with_input(
                BenchmarkId::new(format!("route_{name}"), budget_us),
                &value_only(budget_us),
                |b, call| b.iter(|| prepared.route(db, call, &mut Trace::disabled())),
            );
        }
    }
    group.finish();

    // The router's overhead on an unbudgeted request: one cost comparison
    // on top of the planned solve, answers bit-identical.
    let mut group = c.benchmark_group("router");
    group.throughput(Throughput::Elements(1));
    let prepared = engine.prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
    let db = flow_db_of_size(512);
    let unlimited = SolveCall::new(true);
    assert_eq!(
        prepared.route(&db, &unlimited, &mut Trace::disabled()).unwrap().outcome,
        prepared.solve(&db).unwrap()
    );
    group.bench_function("overhead/route_unlimited", |b| {
        b.iter(|| prepared.route(&db, &unlimited, &mut Trace::disabled()))
    });
    group.bench_function("overhead/solve_direct", |b| b.iter(|| prepared.solve(&db)));
    group.finish();
}

criterion_group!(benches, bench_router);
criterion_main!(benches);
