//! Flow-backend agreement: every MinCut backend of `rpq-flow` (Dinic,
//! Edmonds–Karp, push–relabel, and the measured `Auto` selector) is
//! selectable end to end through `SolveOptions::flow_backend`, and all of
//! them must return the same resilience value on every tractable family —
//! the engine-level contract behind plumbing `FlowAlgorithm` through
//! `algorithms/{local,chain,one_dangling}.rs` down to the CSR arena solvers
//! of `rpq_flow::CsrFlow`. The corpus-wide test additionally pins every
//! selectable backend to the exact-enumeration oracle, value and witness
//! both, so the pruned/ε-contracted product build is cross-checked against a
//! solver that knows nothing about flows.

mod common;

use common::{is_flow_based, FAMILIES};
use rpq::automata::{Alphabet, Language};
use rpq::flow::FlowAlgorithm;
use rpq::graphdb::generate::random_labeled_graph;
use rpq::graphdb::FactId;
use rpq::resilience::algorithms::Algorithm;
use rpq::resilience::engine::{Engine, SolveCall, SolveOptions};
use rpq::resilience::exact::resilience_exact;
use rpq::resilience::obs::Trace;
use rpq::resilience::rpq::{ResilienceValue, Rpq};
use std::collections::BTreeSet;

#[test]
fn all_flow_backends_agree_on_every_tractable_family() {
    for &(alphabet, patterns, expected) in FAMILIES.iter().filter(|&&(_, _, a)| is_flow_based(a)) {
        let alphabet = Alphabet::from_chars(alphabet);
        for pattern in patterns {
            let query = Rpq::new(Language::parse(pattern).unwrap());
            for seed in 0..5 {
                let db = random_labeled_graph(4, 8, &alphabet, seed);
                let outcomes: Vec<_> = FlowAlgorithm::SELECTABLE
                    .into_iter()
                    .map(|flow_backend| {
                        let engine = Engine::with_options(SolveOptions {
                            flow_backend,
                            ..Default::default()
                        });
                        engine.solve(&query, &db).unwrap()
                    })
                    .collect();
                for (flow, outcome) in FlowAlgorithm::SELECTABLE.iter().zip(&outcomes) {
                    assert_eq!(outcome.algorithm, expected, "{pattern} via {flow}");
                    assert_eq!(
                        outcome.value,
                        outcomes[0].value,
                        "{pattern}, seed {seed}: {flow} disagrees with {}",
                        FlowAlgorithm::SELECTABLE[0]
                    );
                }
            }
        }
    }
}

#[test]
fn every_selectable_backend_matches_exact_enumeration_on_the_corpus() {
    // Corpus-wide oracle check: on every flow-based family, each selectable
    // backend (including `Auto`) must reproduce the exact-enumeration value,
    // and its witness must be a genuine contingency set of that exact cost.
    for &(alphabet, patterns, _) in FAMILIES.iter().filter(|&&(_, _, a)| is_flow_based(a)) {
        let alphabet = Alphabet::from_chars(alphabet);
        for pattern in patterns {
            let query = Rpq::new(Language::parse(pattern).unwrap());
            for seed in 0..4 {
                let db = random_labeled_graph(5, 10, &alphabet, seed);
                let exact = resilience_exact(&query, &db).value;
                for flow_backend in FlowAlgorithm::SELECTABLE {
                    let engine =
                        Engine::with_options(SolveOptions { flow_backend, ..Default::default() });
                    let outcome = engine.solve(&query, &db).unwrap();
                    let context = format!("{pattern} via {flow_backend}, seed {seed}");
                    assert_eq!(outcome.value, exact, "{context}");
                    if !outcome.value.is_infinite() {
                        let cut: BTreeSet<FactId> =
                            outcome.contingency_set.expect(&context).into_iter().collect();
                        assert!(
                            query.is_contingency_set(&db, &cut),
                            "{context}: witness does not falsify the query"
                        );
                        assert_eq!(
                            ResilienceValue::Finite(query.cost(&db, &cut)),
                            exact,
                            "{context}: witness cost must equal the exact value"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn prepared_batches_agree_across_flow_backends_and_with_the_default() {
    let alphabet = Alphabet::from_chars("abx");
    let query = Rpq::new(Language::parse("ax*b").unwrap()).with_bag_semantics();
    let dbs: Vec<_> = (0..6).map(|seed| random_labeled_graph(5, 12, &alphabet, seed)).collect();
    let baseline: Vec<_> =
        dbs.iter().map(|db| Engine::new().solve(&query, db).unwrap().value).collect();
    for flow_backend in FlowAlgorithm::SELECTABLE {
        let engine = Engine::with_options(SolveOptions { flow_backend, ..Default::default() });
        let prepared = engine.prepare(&query).unwrap();
        let batch = prepared.route_batch(&dbs, 1, &SolveCall::new(true), &mut Trace::disabled());
        let values: Vec<_> = batch.into_iter().map(|r| r.unwrap().outcome.value).collect();
        assert_eq!(values, baseline, "{flow_backend}");
    }
}

#[test]
fn forced_backends_accept_every_flow_algorithm() {
    // Forcing the tractable algorithm (instead of auto-dispatch) must also
    // honor the chosen flow backend and agree across all of them.
    let alphabet = Alphabet::from_chars("abc");
    let query = Rpq::new(Language::parse("ab|bc").unwrap());
    for seed in 0..4 {
        let db = random_labeled_graph(4, 9, &alphabet, seed);
        let values: Vec<_> = FlowAlgorithm::SELECTABLE
            .into_iter()
            .map(|flow_backend| {
                let engine =
                    Engine::with_options(SolveOptions { flow_backend, ..Default::default() });
                engine.solve_with(Algorithm::BipartiteChain, &query, &db).unwrap().value
            })
            .collect();
        assert!(values.windows(2).all(|w| w[0] == w[1]), "seed {seed}: {values:?}");
    }
}
