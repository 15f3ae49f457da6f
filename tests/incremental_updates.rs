//! Integration test: incremental solves under randomized edit churn.
//!
//! Drives `PreparedQuery::route_incremental` through 200 random
//! insert/delete deltas per query family and checks, at **every** snapshot,
//! that the incrementally patched answer agrees with a fresh full solve —
//! value, contingency-set validity and optimality (the witness cost equals
//! the resilience), and on with-cut rounds the very same cut facts as the
//! fresh solve. Where the database is small enough, the subset-
//! enumeration oracle cross-checks the value a third way. The corpus covers
//! the local plan family (the only one with a patching path), a bag-
//! semantics variant, and two non-local families (chain, one-dangling) that
//! must transparently fall back to full solves and still agree.

use std::collections::BTreeSet;

use rpq::automata::alphabet::Letter;
use rpq::graphdb::delta::{materialize, FactChange};
use rpq::resilience::algorithms::Algorithm;
use rpq::resilience::engine::{Engine, IncrementalSolver, SolveCall, SolveMode};
use rpq::resilience::obs::Trace;
use rpq::resilience::rpq::{ResilienceValue, Rpq};

/// Deterministic xorshift64* PRNG: the churn sequence must be reproducible.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// One random delta: mostly single-fact edits, occasionally a small burst.
fn random_delta(
    rng: &mut u64,
    log: &[FactChange],
    nodes: usize,
    labels: &[char],
) -> Vec<FactChange> {
    let burst = if xorshift(rng).is_multiple_of(10) { 2 + (xorshift(rng) % 2) as usize } else { 1 };
    (0..burst)
        .map(|_| {
            // 30% deletes of a random earlier key (which may already be
            // gone — deletes of absent facts must be no-ops end to end).
            if !log.is_empty() && xorshift(rng) % 10 < 3 {
                let pick = (xorshift(rng) as usize) % log.len();
                let (source, label, target) = log[pick].key();
                FactChange::Delete { source: source.to_string(), label, target: target.to_string() }
            } else {
                FactChange::Put {
                    source: format!("n{}", xorshift(rng) as usize % nodes),
                    label: Letter::new(labels[xorshift(rng) as usize % labels.len()]),
                    target: format!("n{}", xorshift(rng) as usize % nodes),
                    multiplicity: 1 + xorshift(rng) % 4,
                    exogenous: xorshift(rng).is_multiple_of(12),
                }
            }
        })
        .collect()
}

/// Runs one query family through `rounds` deltas over `nodes` node names,
/// returning how many snapshots the incremental path actually served (vs
/// full rebuilds / fallbacks).
fn churn(pattern: &str, bag: bool, seed: u64, rounds: usize, nodes: usize) -> usize {
    let mut query = Rpq::parse(pattern).unwrap();
    if bag {
        query = query.with_bag_semantics();
    }
    let engine = Engine::new();
    let prepared = engine.prepare(&query).unwrap();
    let mut solver = IncrementalSolver::new();
    let mut rng = seed;
    let mut log: Vec<FactChange> = Vec::new();
    let mut incremental_snapshots = 0;
    // Every label the corpus patterns mention, plus noise letters.
    let labels = ['a', 'b', 'c', 'd', 'e', 'x'];
    for round in 0..rounds {
        let delta = random_delta(&mut rng, &log, nodes, &labels);
        log.extend(delta.iter().cloned());
        let db = materialize(&log);
        let want_cut = round % 2 == 0;
        let call = SolveCall::new(want_cut);
        let (routed, mode) = prepared
            .route_incremental(&mut solver, &db, Some(&delta), &call, &mut Trace::disabled())
            .unwrap_or_else(|e| panic!("{pattern} round {round}: {e}"));
        let incremental = routed.outcome;
        if mode == SolveMode::Incremental {
            incremental_snapshots += 1;
        }
        // The retained flow must stay feasible after every edit batch:
        // capacity bounds, conservation, and the recorded total.
        solver
            .check_consistency()
            .unwrap_or_else(|e| panic!("{pattern} round {round}: inconsistent residuals: {e}"));
        let fresh = prepared.solve_with_cut_traced(&db, want_cut, &mut Trace::disabled()).unwrap();
        assert_eq!(
            incremental.value, fresh.value,
            "{pattern} (bag={bag}) round {round}: incremental {mode:?} disagrees with fresh"
        );
        if want_cut {
            if let Some(cut) = &incremental.contingency_set {
                let set: BTreeSet<_> = cut.iter().copied().collect();
                assert!(
                    query.is_contingency_set(&db, &set),
                    "{pattern} round {round}: invalid witness"
                );
                assert_eq!(
                    ResilienceValue::Finite(query.cost(&db, &set)),
                    incremental.value,
                    "{pattern} round {round}: witness cost is not optimal"
                );
                // Both networks read their cut off the unique minimal source
                // side, so the patched network must cut the very same facts.
                let mut cut = cut.clone();
                cut.sort_unstable();
                let mut fresh_cut = fresh.contingency_set.clone().unwrap_or_else(|| {
                    panic!("{pattern} round {round}: the fresh solve has no witness")
                });
                fresh_cut.sort_unstable();
                assert_eq!(cut, fresh_cut, "{pattern} round {round}: cut differs from fresh");
            }
        }
        // Third opinion on small instances: the subset-enumeration oracle.
        if db.num_facts() <= 7 {
            let oracle =
                Engine::new().solve_with(Algorithm::ExactEnumeration, &query, &db).unwrap();
            assert_eq!(oracle.value, fresh.value, "{pattern} round {round}: oracle disagrees");
        }
    }
    incremental_snapshots
}

#[test]
fn local_queries_survive_two_hundred_random_edits() {
    // The tentpole path: a local language, patched in place per delta.
    let incremental = churn("ax*b", false, 0x5EED_0001, 200, 8);
    assert!(incremental > 150, "only {incremental}/200 snapshots were incremental");
}

#[test]
fn local_disjunctions_and_bag_semantics_stay_consistent() {
    let incremental = churn("ab|ad|cd", false, 0x5EED_0002, 200, 8);
    assert!(incremental > 150, "only {incremental}/200 snapshots were incremental");
    let incremental = churn("ax*b", true, 0x5EED_0003, 200, 8);
    assert!(incremental > 150, "only {incremental}/200 bag snapshots were incremental");
}

#[test]
fn alternating_databases_with_no_delta_match_fresh_solves() {
    // One solver serves two unrelated databases in turn. Each switch passes
    // no delta, as the solver's contract asks, so every solve rebuilds and
    // must match a fresh solve. Both logs keep growing between visits.
    let query = Rpq::parse("ab").unwrap();
    let prepared = Engine::new().prepare(&query).unwrap();
    let mut solver = IncrementalSolver::new();
    let mut logs: [Vec<FactChange>; 2] = Default::default();
    let mut rng = 0x5EED_0006;
    for round in 0..60 {
        let log = &mut logs[round % 2];
        log.extend(random_delta(&mut rng, log, 6, &['a', 'b', 'x']));
        let db = materialize(log);
        let call = SolveCall::new(true);
        let (routed, mode) = prepared
            .route_incremental(&mut solver, &db, None, &call, &mut Trace::disabled())
            .unwrap();
        assert_eq!(mode, SolveMode::Full, "round {round}");
        let fresh = prepared.solve(&db).unwrap();
        assert_eq!(routed.outcome.value, fresh.value, "round {round}");
        if !fresh.value.is_infinite() {
            let sorted = |set: Option<Vec<_>>| {
                let mut set = set.expect("a finite solve has a witness");
                set.sort_unstable();
                set
            };
            assert_eq!(
                sorted(routed.outcome.contingency_set),
                sorted(fresh.contingency_set),
                "round {round}"
            );
        }
    }
}

#[test]
fn non_local_plan_families_fall_back_to_full_solves() {
    // Chain (Prp 7.6) and one-dangling (Prp 7.9) plans have no patching
    // path: every snapshot must be a full solve, and still agree.
    assert_eq!(churn("ab|bc", false, 0x5EED_0004, 60, 8), 0);
    assert_eq!(churn("abc|be", false, 0x5EED_0005, 60, 8), 0);
}

/// The long churn: four local families (bag semantics included), five seeds
/// each, 1,000 rounds per run. Runs over more node names keep introducing
/// fresh blocks and fact edges, so the resume often re-lays the arcs and
/// carries the retained flow. Run in release mode:
/// `cargo test --release --test incremental_updates -- --ignored`.
#[test]
#[ignore]
fn local_queries_survive_a_thousand_random_edits() {
    for (pattern, bag) in [("ax*b", false), ("ab|ad|cd", false), ("ax*b", true), ("a(b|d)*x", true)]
    {
        for (seed, nodes) in [(1, 8), (2, 16), (3, 64), (4, 256), (5, 1_024)] {
            let incremental = churn(pattern, bag, 0x5EED_1000 + seed, 1_000, nodes);
            assert!(
                incremental > 900,
                "{pattern} (bag={bag}) over {nodes} nodes: only {incremental}/1000 incremental"
            );
        }
    }
}
