//! Resilience under updates: incremental solves vs full recomputation.
//!
//! The monitoring workload behind `rpq-store`: a 512-fact database receives
//! a delta, and the resilience must be re-answered. The `incremental` arm
//! patches the retained flow network and warm-starts the min-cut
//! (`PreparedQuery::route_incremental`); the `recompute` arm rebuilds from
//! scratch (`PreparedQuery::solve`). Both arms solve the *same* alternating
//! pair of snapshots (remove a group of facts, put it back), so one
//! iteration is two solves and the retained state always returns to its
//! starting snapshot.
//!
//! The sweep over delta sizes (1 → 256 changes) exhibits the fallback
//! threshold: the engine cedes to the pruned batch solve once a delta
//! exceeds `live_facts / INCREMENTAL_FALLBACK_DIVISOR` (divisor 16 — ~31
//! changes on the 508 live facts of the flow family), so the larger sizes
//! measure the fallback's degradation — the two arms should converge there,
//! while single-fact deltas beat recomputation by well over 2× (measured
//! ~4–7×). `EXPERIMENTS.md` tracks the numbers and the divisor rationale.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_bench::{flow_db_of_size, local_db_of_size};
use rpq_graphdb::delta::{changes_from_db, materialize, FactChange};
use rpq_graphdb::GraphDb;
use rpq_resilience::engine::{Engine, IncrementalSolver, SolveCall, SolveMode};
use rpq_resilience::obs::Trace;
use rpq_resilience::rpq::Rpq;
use std::time::Duration;

/// A workload family: display name, query pattern, instance generator.
type Family = (&'static str, &'static str, fn(usize) -> GraphDb);

/// The local-language families of the store corpus, at the 512-fact size.
const FAMILIES: &[Family] =
    &[("flow_axb", "ax*b", flow_db_of_size), ("local_disj", "ab|ad|cd", local_db_of_size)];

/// Delta sizes in changes per solve: 1–16 ride the patch path, 64+ exceed
/// the fallback threshold (`live_facts / 16` ≈ 26–31 on these families) and
/// exercise the cede-to-batch path.
const DELTA_SIZES: &[usize] = &[1, 4, 16, 64, 128, 256];

/// The largest delta of `DELTA_SIZES` that takes the patch path; the
/// sanity check asserts every solve's `SolveMode` against it.
const PATCH_PATH_MAX: usize = 16;

/// An alternating update pair: `del` removes `size` endogenous facts,
/// `ins` puts them back, together with the two materialized snapshots.
struct UpdatePair {
    log: Vec<FactChange>,
    del: Vec<FactChange>,
    ins: Vec<FactChange>,
    full: GraphDb,
    reduced: GraphDb,
}

fn update_pair(db: &GraphDb, size: usize) -> UpdatePair {
    let log = changes_from_db(db);
    // Spread the toggled facts across the database (a stride, not a prefix),
    // so the delta touches many distinct product blocks.
    let endogenous: Vec<&FactChange> =
        log.iter().filter(|c| matches!(c, FactChange::Put { exogenous: false, .. })).collect();
    assert!(endogenous.len() >= size, "need {size} endogenous facts");
    let stride = endogenous.len() / size;
    let ins: Vec<FactChange> = (0..size).map(|i| endogenous[i * stride].clone()).collect();
    let del: Vec<FactChange> = ins
        .iter()
        .map(|c| {
            let (source, label, target) = c.key();
            FactChange::Delete { source: source.into(), label, target: target.into() }
        })
        .collect();
    let mut reduced_log = log.clone();
    reduced_log.extend(del.iter().cloned());
    UpdatePair { reduced: materialize(&reduced_log), full: materialize(&log), log, del, ins }
}

fn updates_benchmarks(c: &mut Criterion) {
    let engine = Engine::new();
    for &(family, pattern, build) in FAMILIES {
        let db = build(512);
        let query = Rpq::parse(pattern).expect("benchmark patterns parse");
        let prepared = engine.prepare(&query).expect("local workload");
        let mut group = c.benchmark_group(format!("resilience_under_updates/{family}"));
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(1))
            .warm_up_time(Duration::from_millis(200));
        for &size in DELTA_SIZES {
            let pair = update_pair(&db, size);

            // Sanity before timing: the incremental path must agree with
            // fresh solves on both snapshots of the ring, and take the patch
            // path exactly up to the fallback threshold.
            let full_value = prepared.solve(&pair.full).unwrap().value;
            let reduced_value = prepared.solve(&pair.reduced).unwrap().value;
            let call = SolveCall::new(false);
            let incremental = |solver: &mut IncrementalSolver,
                               db: &GraphDb,
                               delta: Option<&[FactChange]>| {
                let routed =
                    prepared.route_incremental(solver, db, delta, &call, &mut Trace::disabled());
                let (tiered, mode) = routed.unwrap();
                (tiered.outcome, mode)
            };
            let mut solver = IncrementalSolver::new();
            assert_eq!(incremental(&mut solver, &pair.full, None).0.value, full_value);
            let expected_mode =
                if size <= PATCH_PATH_MAX { SolveMode::Incremental } else { SolveMode::Full };
            let (outcome, mode) = incremental(&mut solver, &pair.reduced, Some(&pair.del));
            assert_eq!((outcome.value, mode), (reduced_value, expected_mode), "{family}/{size}");
            let (outcome, mode) = incremental(&mut solver, &pair.full, Some(&pair.ins));
            assert_eq!((outcome.value, mode), (full_value, expected_mode), "{family}/{size}");

            // Incremental: the retained network absorbs del + ins per
            // iteration (two solves), ending back at the full snapshot.
            group.bench_with_input(BenchmarkId::new("incremental", size), &pair, |b, pair| {
                let mut solver = IncrementalSolver::new();
                incremental(&mut solver, &pair.full, None);
                b.iter(|| {
                    black_box(incremental(&mut solver, &pair.reduced, Some(&pair.del)));
                    black_box(incremental(&mut solver, &pair.full, Some(&pair.ins)));
                });
            });

            // Recompute: two full solves on the same pre-materialized pair.
            group.bench_with_input(BenchmarkId::new("recompute", size), &pair, |b, pair| {
                b.iter(|| {
                    black_box(prepared.solve(&pair.reduced).unwrap());
                    black_box(prepared.solve(&pair.full).unwrap());
                });
            });

            // Log replay is what the store pays on a cold materialization;
            // measured once per family for the EXPERIMENTS.md discussion.
            if size == 1 {
                group.bench_with_input(
                    BenchmarkId::new("materialize_log", pair.log.len()),
                    &pair,
                    |b, pair| b.iter(|| black_box(materialize(&pair.log))),
                );
            }
        }
        group.finish();
    }
}

criterion_group!(benches, updates_benchmarks);
criterion_main!(benches);
