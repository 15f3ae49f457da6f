//! The unified engine dispatcher: `Engine::solve` must route each tractable
//! family (local, bipartite chain, one-dangling) to its polynomial algorithm
//! and agree with the exact branch-and-bound backend on small random
//! instances — the workspace-level contract behind funneling the CLI, tests,
//! and benches through the engine — and every solve shape (single, batch,
//! incremental) must route identically under any budget.

mod common;

use common::FAMILIES;
use rpq::automata::{Alphabet, Language, Word};
use rpq::graphdb::generate::{random_labeled_graph, word_path};
use rpq::resilience::algorithms::{Algorithm, ResilienceError};
use rpq::resilience::engine::{Engine, IncrementalSolver, SolveCall, SolveOptions};
use rpq::resilience::obs::Trace;
use rpq::resilience::router::RouteBudget;
use rpq::resilience::rpq::{ResilienceValue, Rpq};

#[test]
fn solve_routes_each_family_to_its_algorithm_and_matches_exact() {
    for &(alphabet, patterns, expected) in FAMILIES {
        let alphabet = Alphabet::from_chars(alphabet);
        for pattern in patterns {
            let query = Rpq::new(Language::parse(pattern).unwrap());
            for seed in 0..6 {
                let db = random_labeled_graph(4, 8, &alphabet, seed);
                let outcome = Engine::new().solve(&query, &db).unwrap();
                assert_eq!(
                    outcome.algorithm, expected,
                    "{pattern} must dispatch to {expected}, got {}",
                    outcome.algorithm
                );
                let reference = Engine::new()
                    .solve_with(Algorithm::ExactBranchAndBound, &query, &db)
                    .unwrap()
                    .value;
                assert_eq!(outcome.value, reference, "{pattern}, seed {seed}");
                // Exact outcomes never carry approximation bounds.
                assert!(outcome.bounds.is_none());
                assert!(outcome.is_exact());
            }
        }
    }
}

#[test]
fn prepared_queries_agree_with_the_legacy_dispatcher_on_the_corpus() {
    // `PreparedQuery::solve` must return outcomes identical to the one-shot
    // `Engine::solve` on the full corpus: same value, same chosen algorithm,
    // same bounds — the plan-once/solve-many contract of the engine.
    let engine = Engine::new();
    for &(alphabet, patterns, expected) in FAMILIES {
        let alphabet = Alphabet::from_chars(alphabet);
        for pattern in patterns {
            let query = Rpq::new(Language::parse(pattern).unwrap());
            let prepared = engine.prepare(&query).unwrap();
            assert_eq!(prepared.plan().algorithm, expected, "{pattern}");
            for seed in 0..6 {
                let db = random_labeled_graph(4, 8, &alphabet, seed);
                let one_shot = Engine::new().solve(&query, &db).unwrap();
                let fresh = prepared.solve(&db).unwrap();
                assert_eq!(fresh, one_shot, "{pattern}, seed {seed}");
            }
        }
    }
}

#[test]
fn prepared_forced_backends_agree_with_legacy_solve_with() {
    let alphabet = Alphabet::from_chars("ab");
    let query = Rpq::new(Language::parse("aa").unwrap());
    let engine = Engine::new();
    for algorithm in Algorithm::ALL {
        let prepared = match engine.prepare_with(algorithm, &query) {
            Ok(prepared) => prepared,
            Err(e) => {
                // The one-shot path must refuse the language identically.
                let db = random_labeled_graph(4, 7, &alphabet, 0);
                assert_eq!(
                    Engine::new().solve_with(algorithm, &query, &db).unwrap_err(),
                    e,
                    "{algorithm}"
                );
                continue;
            }
        };
        for seed in 0..4 {
            let db = random_labeled_graph(4, 7, &alphabet, seed);
            assert_eq!(
                prepared.solve(&db).unwrap(),
                Engine::new().solve_with(algorithm, &query, &db).unwrap(),
                "{algorithm}, seed {seed}"
            );
        }
    }
}

#[test]
fn prepared_bag_batches_agree_with_one_shot_solves() {
    // Bag semantics through the batch path: a prepared plan's `route_batch`
    // must reproduce the one-shot `Engine::solve` value on every database.
    let alphabet = Alphabet::from_chars("abx");
    let query = Rpq::new(Language::parse("ax*b").unwrap()).with_bag_semantics();
    let dbs: Vec<_> = (0..6).map(|seed| random_labeled_graph(5, 12, &alphabet, seed)).collect();
    let one_shot: Vec<_> =
        dbs.iter().map(|db| Engine::new().solve(&query, db).unwrap().value).collect();
    let prepared = Engine::new().prepare(&query).unwrap();
    let batch = prepared.route_batch(&dbs, 1, &SolveCall::new(true), &mut Trace::disabled());
    let values: Vec<_> = batch.into_iter().map(|r| r.unwrap().outcome.value).collect();
    assert_eq!(values, one_shot);
}

#[test]
fn oversized_enumeration_is_a_typed_error_not_a_panic() {
    // 30 facts > the default limit of 24: the subset oracle must refuse with
    // `ResilienceError::InstanceTooLarge` instead of panicking.
    let word = Word::from_letters(std::iter::repeat_n('a'.into(), 30));
    let db = word_path(&word);
    let query = Rpq::parse("aa").unwrap();
    match Engine::new().solve_with(Algorithm::ExactEnumeration, &query, &db) {
        Err(ResilienceError::InstanceTooLarge { facts: 30, limit: 24 }) => {}
        other => panic!("expected InstanceTooLarge, got {other:?}"),
    }
    // A raised limit is honored (and 25 facts stay far below 2^25 ≈ 3·10^7
    // subset checks only because the path is short — keep it at the error
    // path plus one solvable configuration under a custom engine).
    let engine = Engine::with_options(SolveOptions { enumeration_limit: 10 });
    let small = word_path(&Word::from_str_word("aaaa"));
    assert!(engine.solve_with(Algorithm::ExactEnumeration, &query, &small).is_ok());
    let err = engine.solve_with(Algorithm::ExactEnumeration, &query, &db).unwrap_err();
    assert_eq!(err, ResilienceError::InstanceTooLarge { facts: 30, limit: 10 });
}

/// The `[lower, upper]` interval an outcome certifies: its bounds, or the
/// value itself when it is exact and finite.
fn certified_interval(outcome: &rpq::resilience::algorithms::ResilienceOutcome) -> (u128, u128) {
    outcome.bounds.unwrap_or_else(|| {
        let value = outcome.value.finite().expect("a finite exact value");
        (value, value)
    })
}

#[test]
fn certified_bounds_never_cross_for_any_approximation_backend() {
    // The crossed-bounds regression: the exact search must report
    // `lower <= exact <= upper` on the whole shared corpus at every work
    // budget: none (a zero cost budget), a small one (1 µs of work) and the
    // cap (no budget). A stopped search's witness must be a contingency set
    // of cost `upper`.
    let budgets = [
        RouteBudget::with_cost_budget_us(0),
        RouteBudget::with_cost_budget_us(1),
        RouteBudget::UNLIMITED,
    ];
    let mut stopped = 0;
    for &(alphabet, patterns, _) in FAMILIES {
        let alphabet = Alphabet::from_chars(alphabet);
        for pattern in patterns {
            let query = Rpq::new(Language::parse(pattern).unwrap());
            let engine = Engine::new();
            let search = engine.prepare_with(Algorithm::ExactBranchAndBound, &query).unwrap();
            for seed in 0..4 {
                let db = random_labeled_graph(4, 8, &alphabet, seed);
                let oracle =
                    engine.solve_with(Algorithm::ExactEnumeration, &query, &db).unwrap().value;
                for budget in budgets {
                    let call = SolveCall { budget, ..SolveCall::new(true) };
                    let outcome = search.route(&db, &call, &mut Trace::disabled()).unwrap().outcome;
                    let context = format!("{pattern}, {budget:?}, seed {seed}");
                    match oracle {
                        ResilienceValue::Finite(value) => {
                            let (lower, upper) = certified_interval(&outcome);
                            assert!(
                                lower <= value && value <= upper,
                                "{context}: [{lower}, {upper}] does not sandwich {value}"
                            );
                            assert_eq!(outcome.value, ResilienceValue::Finite(upper), "{context}");
                            let cut = outcome.contingency_set.as_ref().expect("a witness");
                            let cut: std::collections::BTreeSet<_> = cut.iter().copied().collect();
                            assert!(query.is_contingency_set(&db, &cut), "{context}");
                            assert_eq!(query.cost(&db, &cut), upper, "{context}");
                            stopped += !outcome.is_exact() as usize;
                        }
                        // An infinite resilience has no finite upper bound;
                        // the outcome must say so.
                        ResilienceValue::Infinite => {
                            assert!(outcome.value.is_infinite(), "{context}")
                        }
                    }
                    if budget.is_unlimited() {
                        assert_eq!(outcome.value, oracle, "{context}: the cap suffices");
                    }
                }
            }
        }
    }
    assert!(stopped > 0, "some search must stop on its budget");
}

#[test]
fn routing_with_an_unlimited_budget_agrees_with_exact_enumeration() {
    // The bit-identical contract: with no deadline set, `route` must answer
    // exactly what the pre-router `solve` answered — cross-checked here
    // against the independent subset-enumeration oracle on the whole corpus.
    let engine = Engine::new();
    for &(alphabet, patterns, expected) in FAMILIES {
        let alphabet = Alphabet::from_chars(alphabet);
        for pattern in patterns {
            let query = Rpq::new(Language::parse(pattern).unwrap());
            let prepared = engine.prepare(&query).unwrap();
            for seed in 0..4 {
                let db = random_labeled_graph(4, 8, &alphabet, seed);
                let tiered = prepared.route(&db, &SolveCall::new(true), &mut Trace::disabled());
                let tiered = tiered.unwrap();
                assert!(!tiered.degraded, "{pattern}, seed {seed}: {}", tiered.reason);
                let tier = if expected.is_polynomial() { "poly" } else { "exact" };
                assert_eq!(tiered.tier, tier, "{pattern}, seed {seed}");
                assert_eq!(tiered.outcome.algorithm, expected, "{pattern}, seed {seed}");
                assert_eq!(tiered.outcome, prepared.solve(&db).unwrap(), "{pattern}, seed {seed}");
                let oracle = Engine::new()
                    .solve_with(Algorithm::ExactEnumeration, &query, &db)
                    .unwrap()
                    .value;
                assert_eq!(tiered.outcome.value, oracle, "{pattern}, seed {seed}");
            }
        }
    }
}

#[test]
fn every_solve_shape_routes_identically_under_each_budget() {
    // `route`, `route_batch` (sequential and on worker threads) and a fresh
    // `route_incremental` share one estimate → fit → run-or-degrade path, so
    // they must return the same `TieredOutcome` field for field: value,
    // bounds, contingency set, tier, `degraded`, `reason` and the estimate.
    // The budgets drive the exact search at its cap (no budget), at zero
    // work and at a small work budget; the small one splits the corpus: the
    // cheap flow plans fit it, while the exact plans degrade to the search.
    let engine = Engine::new();
    let budgets = [
        RouteBudget::UNLIMITED,
        RouteBudget::with_cost_budget_us(0),
        RouteBudget::with_cost_budget_us(110),
    ];
    let (mut mid_fits, mut mid_searched) = (0, 0);
    for &(alphabet, patterns, _) in FAMILIES {
        let alphabet = Alphabet::from_chars(alphabet);
        let dbs: Vec<_> = (0..4).map(|seed| random_labeled_graph(5, 16, &alphabet, seed)).collect();
        for pattern in patterns {
            let prepared = engine.prepare(&Rpq::new(Language::parse(pattern).unwrap())).unwrap();
            for budget in budgets {
                let call = SolveCall { budget, ..SolveCall::new(true) };
                let single: Vec<_> = dbs
                    .iter()
                    .map(|db| prepared.route(db, &call, &mut Trace::disabled()).unwrap())
                    .collect();
                for jobs in [1, 4] {
                    let batch = prepared.route_batch(&dbs, jobs, &call, &mut Trace::disabled());
                    let batch: Vec<_> = batch.into_iter().map(Result::unwrap).collect();
                    assert_eq!(batch, single, "{pattern}, {budget:?}, {jobs} jobs");
                }
                for (db, expected) in dbs.iter().zip(&single) {
                    let mut solver = IncrementalSolver::new();
                    let (tiered, _) = prepared
                        .route_incremental(&mut solver, db, None, &call, &mut Trace::disabled())
                        .unwrap();
                    assert_eq!(&tiered, expected, "{pattern}, {budget:?}, incremental");
                }
                if budget.cost_budget_us == Some(110) {
                    mid_fits += single.iter().filter(|t| !t.degraded).count();
                    mid_searched += single
                        .iter()
                        .filter(|t| {
                            t.degraded && t.outcome.algorithm == Algorithm::ExactBranchAndBound
                        })
                        .count();
                }
            }
        }
    }
    assert!(mid_fits > 0 && mid_searched > 0, "fits {mid_fits}, searched {mid_searched}");
}

/// `k` disjoint `a b c` paths plus one unrelated exogenous `x b y`: for
/// `abc|be` the resilience is `k`, and the exogenous fact sends the planned
/// one-dangling solve to the exact search.
fn abc_paths_with_an_exogenous_fact(k: usize) -> rpq::graphdb::GraphDb {
    let mut db = rpq::graphdb::GraphDb::new();
    for i in 0..k {
        db.add_fact_by_names(&format!("p{i}"), 'a', &format!("q{i}"));
        db.add_fact_by_names(&format!("q{i}"), 'b', &format!("r{i}"));
        db.add_fact_by_names(&format!("r{i}"), 'c', &format!("s{i}"));
    }
    let exogenous = db.add_fact_by_names("x", 'b', "y");
    db.set_exogenous(exogenous, true);
    db
}

#[test]
fn a_budget_prices_the_branch_and_bound_a_one_dangling_plan_falls_back_to() {
    let query = Rpq::parse("abc|be").unwrap();
    let prepared = Engine::new().prepare(&query).unwrap();
    assert_eq!(prepared.plan().algorithm, Algorithm::OneDangling);
    // 5 paths under a 150 µs cost budget: the one-dangling estimate fits,
    // and the exact search the plan falls back to runs under the budget's
    // work units; its answer brackets the enumeration oracle.
    let db = abc_paths_with_an_exogenous_fact(5);
    let call = SolveCall { budget: RouteBudget::with_cost_budget_us(150), ..SolveCall::new(true) };
    let tiered = prepared.route(&db, &call, &mut Trace::disabled()).unwrap();
    assert_eq!(tiered.estimated_cost_us, prepared.plan().cost.estimate_us_for(&db));
    assert_eq!(tiered.outcome.algorithm, Algorithm::ExactBranchAndBound);
    let oracle = Engine::new().solve_with(Algorithm::ExactEnumeration, &query, &db).unwrap().value;
    assert_eq!(oracle, ResilienceValue::Finite(5));
    let (lower, upper) = certified_interval(&tiered.outcome);
    assert!(lower <= 5 && 5 <= upper, "[{lower}, {upper}]");
    // 13 paths under a 50 ms deadline: the search answers at once.
    let db = abc_paths_with_an_exogenous_fact(13);
    let call = SolveCall { budget: RouteBudget::with_deadline_ms(50), ..SolveCall::new(true) };
    let started = std::time::Instant::now();
    let tiered = prepared.route(&db, &call, &mut Trace::disabled()).unwrap();
    assert!(started.elapsed().as_millis() < 500, "took {:?}", started.elapsed());
    let (lower, upper) = certified_interval(&tiered.outcome);
    assert!(lower <= 13 && 13 <= upper, "[{lower}, {upper}]");
    // A zero budget leaves the search no work: the trivial sandwich.
    let call = SolveCall { budget: RouteBudget::with_cost_budget_us(0), ..SolveCall::new(true) };
    let tiered = prepared.route(&db, &call, &mut Trace::disabled()).unwrap();
    assert!(tiered.degraded, "{}", tiered.reason);
    assert_eq!(tiered.outcome.bounds, Some((1, 39)));
    // Without a budget the estimate is the plan's, and the exact answer runs.
    let db = abc_paths_with_an_exogenous_fact(5);
    let tiered = prepared.route(&db, &SolveCall::new(true), &mut Trace::disabled()).unwrap();
    assert!(!tiered.degraded);
    assert_eq!(tiered.estimated_cost_us, prepared.plan().cost.estimate_us_for(&db));
    assert_eq!(tiered.outcome.value, ResilienceValue::Finite(5));
}

#[test]
fn an_unbudgeted_aa_solve_over_a_48_fact_path_answers_exactly() {
    // A branch and bound without a lower bound explores exponentially many
    // nodes here; the packing bound (24 disjoint walks) meets the first
    // incumbent at once.
    let word = Word::from_letters(std::iter::repeat_n('a'.into(), 48));
    let db = word_path(&word);
    let started = std::time::Instant::now();
    let outcome = Engine::new().solve(&Rpq::parse("aa").unwrap(), &db).unwrap();
    assert_eq!(outcome.value, ResilienceValue::Finite(24));
    assert!(outcome.is_exact());
    assert!(started.elapsed().as_secs() < 10, "took {:?}", started.elapsed());
}

#[test]
fn an_exogenous_fact_leaves_abc_be_exact_at_fourteen_paths() {
    // The exogenous fact sends the plan to the exact search, whose packing
    // bound (14 disjoint `abc` walks) meets the first incumbent at once.
    let query = Rpq::parse("abc|be").unwrap();
    let db = abc_paths_with_an_exogenous_fact(14);
    let started = std::time::Instant::now();
    let outcome = Engine::new().solve(&query, &db).unwrap();
    assert_eq!(outcome.algorithm, Algorithm::ExactBranchAndBound);
    assert_eq!(outcome.value, ResilienceValue::Finite(14));
    assert!(outcome.is_exact());
    assert!(started.elapsed().as_secs() < 10, "took {:?}", started.elapsed());
}

/// Run in CI with `cargo test --release --test engine_dispatch -- --ignored`.
#[test]
#[ignore = "a 20,000-fact search: run in release"]
fn a_20000_fact_aa_path_gets_a_certified_sandwich_on_a_2_mib_stack() {
    // A search recursing once per removed fact would overflow this stack;
    // the search keeps its frames on the heap and stops at its cap.
    let handle = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let word = Word::from_letters(std::iter::repeat_n('a'.into(), 20_000));
            let db = word_path(&word);
            let query = Rpq::parse("aa").unwrap();
            let started = std::time::Instant::now();
            let outcome = Engine::new().solve(&query, &db).unwrap();
            (outcome, started.elapsed(), query, db)
        })
        .unwrap();
    let (outcome, elapsed, query, db) = handle.join().expect("no stack overflow");
    // The optimum removes every other fact: 10,000.
    let (lower, upper) = certified_interval(&outcome);
    assert!(lower <= 10_000 && 10_000 <= upper, "[{lower}, {upper}]");
    assert!(lower >= 1, "[{lower}, {upper}]");
    let cut: std::collections::BTreeSet<_> =
        outcome.contingency_set.expect("a witness").into_iter().collect();
    assert!(query.is_contingency_set(&db, &cut));
    assert_eq!(query.cost(&db, &cut), upper);
    assert!(elapsed.as_secs() < 60, "took {elapsed:?}");
}

#[test]
fn an_impossible_budget_degrades_to_certified_bounds_with_the_tier_reported() {
    // A zero cost budget can never fit any projected cost: the router must
    // still answer — with certified bounds that sandwich the true value and
    // an explicit approx-tier verdict, never a refusal.
    let engine = Engine::new();
    let call = SolveCall { budget: RouteBudget::with_cost_budget_us(0), ..SolveCall::new(true) };
    for &(alphabet, patterns, _) in FAMILIES {
        let alphabet = Alphabet::from_chars(alphabet);
        for pattern in patterns {
            let query = Rpq::new(Language::parse(pattern).unwrap());
            let prepared = engine.prepare(&query).unwrap();
            for seed in 0..4 {
                let db = random_labeled_graph(4, 8, &alphabet, seed);
                let tiered = prepared.route(&db, &call, &mut Trace::disabled()).unwrap();
                assert!(tiered.degraded, "{pattern}, seed {seed}: {}", tiered.reason);
                // Degraded answers stay *certified*: either trivially exact
                // (resilience 0 or provably infinite) or a bounds sandwich.
                let tier = if tiered.outcome.is_exact() { "exact" } else { "approx" };
                assert_eq!(tiered.tier, tier, "{pattern}, seed {seed}");
                let truth = prepared.solve(&db).unwrap().value;
                if tiered.outcome.is_exact() {
                    assert_eq!(tiered.outcome.value, truth, "{pattern}, seed {seed}");
                    continue;
                }
                match truth {
                    ResilienceValue::Finite(value) => {
                        let (lower, upper) =
                            tiered.outcome.bounds.expect("degraded answers carry bounds");
                        assert!(
                            lower <= value && value <= upper,
                            "{pattern}, seed {seed}: [{lower}, {upper}] does not sandwich {value}"
                        );
                    }
                    ResilienceValue::Infinite => {
                        assert!(tiered.outcome.value.is_infinite(), "{pattern}, seed {seed}")
                    }
                }
            }
        }
    }
}

#[test]
fn every_applicable_backend_agrees_or_sandwiches_the_exact_value() {
    let alphabet = Alphabet::from_chars("ab");
    let query = Rpq::new(Language::parse("aa").unwrap());
    for seed in 0..4 {
        let db = random_labeled_graph(4, 7, &alphabet, seed);
        let exact =
            Engine::new().solve_with(Algorithm::ExactBranchAndBound, &query, &db).unwrap().value;
        for algorithm in Algorithm::ALL {
            let Ok(outcome) = Engine::new().solve_with(algorithm, &query, &db) else {
                continue; // backend legitimately refuses the language
            };
            match outcome.bounds {
                // Exact backends must agree outright.
                None => assert_eq!(outcome.value, exact, "{algorithm}, seed {seed}"),
                // Approximations must sandwich the exact value.
                Some((lower, upper)) => {
                    let exact = exact.finite().unwrap();
                    assert!(lower <= exact && exact <= upper, "{algorithm}, seed {seed}");
                }
            }
        }
    }
}
