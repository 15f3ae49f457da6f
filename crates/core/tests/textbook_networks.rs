//! Cut identity against the textbook networks.
//!
//! The engine builds pruned, ε-contracted and terminal-merged product
//! networks. These tests build the networks the way the paper states them —
//! with no pruning and no merging — solve them with [`rpq_flow::min_cut`],
//! and require [`PreparedQuery::solve`] to return the same value and the same
//! contingency set. The set is the fact image of the unique minimal source
//! side, so every sound contraction must leave it unchanged.
//!
//! * Theorem 3.13: `N_{D,A}` over the RO-εNFA of `IF(L)`: a vertex per
//!   (node, state), an edge per fact, an ε-edge per (node, ε-transition), and
//!   source / target edges at every node's initial / final states.
//! * Proposition 7.6: a start and an end vertex per fact of a word letter,
//!   forward wiring along forward words, reversed wiring along reversed
//!   words, and source / target edges at the endpoint letters.
//!
//! The `#[ignore]`d sweep runs the same check on larger databases:
//! `cargo test --release -p rpq-resilience -- --ignored`.

use rpq_automata::finite::FiniteLanguage;
use rpq_automata::ro_enfa::RoEnfa;
use rpq_automata::Alphabet;
use rpq_flow::{Capacity, FlowNetwork, VertexId};
use rpq_graphdb::generate::{flow_instance, layered_instance, random_labeled_graph};
use rpq_graphdb::{FactId, GraphDb};
use rpq_resilience::algorithms::Algorithm;
use rpq_resilience::engine::Engine;
use rpq_resilience::rpq::{ResilienceValue, Rpq, Semantics};
use std::collections::BTreeSet;

/// The languages of the sweep and the reduction each one must take.
const LANGUAGES: [(&str, Algorithm); 6] = [
    ("ax*b", Algorithm::Local),
    ("ab|ad|cd", Algorithm::Local),
    ("abc|abd", Algorithm::Local),
    ("a(b|d)*x", Algorithm::Local),
    ("ab|bc", Algorithm::BipartiteChain),
    ("axb|byc", Algorithm::BipartiteChain),
];

/// SplitMix64: per-fact multiplicities and exogenous flags from a seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded database of about `facts` facts over the language's letters and
/// one foreign letter: a random multigraph, a layered DAG (many sources and
/// sinks) or an `ax*b` flow network, in turn. Bag databases get
/// multiplicities 1–5; one seed in three marks about a tenth of the facts
/// exogenous.
fn database(letters: &str, facts: usize, seed: u64, semantics: Semantics) -> GraphDb {
    let alphabet = Alphabet::from_chars(&format!("{letters}z"));
    let mut db = match seed % 3 {
        0 => random_labeled_graph((facts / 2).max(2), facts, &alphabet, seed),
        1 => {
            let layers = 2 + (seed / 3 % 4) as usize;
            let width = (facts / (2 * (layers - 1))).max(1);
            layered_instance(&alphabet, layers, width, 2, seed)
        }
        _ => flow_instance(3 + (seed / 3 % 3) as usize, (facts / 8).max(1), 2, 5, seed),
    };
    let ids: Vec<FactId> = db.fact_ids().collect();
    for id in ids {
        let r = mix(seed ^ (u64::from(id.0) << 32));
        if semantics == Semantics::Bag {
            db.set_multiplicity(id, 1 + r % 5);
        }
        if seed % 3 == 2 && (r >> 8).is_multiple_of(10) {
            db.set_exogenous(id, true);
        }
    }
    db
}

fn capacity(db: &GraphDb, fact: FactId, semantics: Semantics) -> Capacity {
    if db.is_exogenous(fact) {
        Capacity::Infinite
    } else {
        Capacity::Finite(u128::from(semantics.fact_cost(db, fact)))
    }
}

/// A flow network whose first `edge_fact.len()` edges are fact edges.
struct Textbook {
    network: FlowNetwork,
    edge_fact: Vec<FactId>,
}

impl Textbook {
    fn new() -> Textbook {
        let mut network = FlowNetwork::new();
        let source = network.add_vertex();
        let target = network.add_vertex();
        network.set_source(source);
        network.set_target(target);
        Textbook { network, edge_fact: Vec::new() }
    }

    fn add_fact_edge(&mut self, from: VertexId, to: VertexId, fact: FactId, capacity: Capacity) {
        self.network.add_edge(from, to, capacity);
        self.edge_fact.push(fact);
    }

    /// The min-cut value and the facts of the cut's edges.
    fn solve(&self) -> (ResilienceValue, BTreeSet<FactId>) {
        let cut = rpq_flow::min_cut(&self.network);
        let facts = cut
            .cut_edges
            .iter()
            .filter(|e| e.index() < self.edge_fact.len())
            .map(|e| self.edge_fact[e.index()])
            .collect();
        (ResilienceValue::from(cut.value), facts)
    }
}

/// `N_{D,A}` of Theorem 3.13, unpruned and uncontracted.
fn local_network(ro: &RoEnfa, db: &GraphDb, semantics: Semantics) -> Textbook {
    let mut textbook = Textbook::new();
    let (source, target) = (textbook.network.source(), textbook.network.target());
    let states = ro.num_states();
    let first = textbook.network.add_vertices(db.num_nodes() * states);
    let product = |node: usize, state: usize| VertexId(first.0 + (node * states + state) as u32);
    for (id, fact) in db.facts() {
        if let Some((s, s_prime)) = ro.letter_transition(fact.label) {
            let from = product(fact.source.0 as usize, s);
            let to = product(fact.target.0 as usize, s_prime);
            textbook.add_fact_edge(from, to, id, capacity(db, id, semantics));
        }
    }
    for node in 0..db.num_nodes() {
        for (s, s_prime) in ro.epsilon_transitions() {
            textbook.network.add_edge(product(node, s), product(node, s_prime), Capacity::Infinite);
        }
        for s in ro.initial_states() {
            textbook.network.add_edge(source, product(node, s), Capacity::Infinite);
        }
        for s in ro.final_states() {
            textbook.network.add_edge(product(node, s), target, Capacity::Infinite);
        }
    }
    textbook
}

/// The Proposition 7.6 network with a start and an end vertex for every
/// fact of a word letter. The sweep's chain languages have no single-letter
/// words, so no fact is force-removed.
fn chain_network(language: &FiniteLanguage, db: &GraphDb, semantics: Semantics) -> Textbook {
    assert!(language.words().iter().all(|w| w.len() >= 2));
    let (source_letters, target_letters) = language.endpoint_bipartition().unwrap();
    let mut forward = BTreeSet::new();
    let mut reversed = BTreeSet::new();
    let mut letters = BTreeSet::new();
    let mut endpoints = BTreeSet::new();
    for word in language.words() {
        letters.extend(word.iter());
        endpoints.extend(word.first().into_iter().chain(word.last()));
        let digrams = word.letters().windows(2).map(|p| (p[0], p[1]));
        if source_letters.contains(&word.first().unwrap()) {
            forward.extend(digrams);
        } else {
            reversed.extend(digrams);
        }
    }

    let mut textbook = Textbook::new();
    let (source, target) = (textbook.network.source(), textbook.network.target());
    let mut start = vec![None; db.num_facts()];
    for (id, fact) in db.facts() {
        if letters.contains(&fact.label) {
            let s = textbook.network.add_vertex();
            let e = textbook.network.add_vertex();
            textbook.add_fact_edge(s, e, id, capacity(db, id, semantics));
            start[id.index()] = Some(s);
        }
    }
    let end = |v: VertexId| VertexId(v.0 + 1);
    for (a, fact_a) in db.facts() {
        let Some(start_a) = start[a.index()] else { continue };
        for b in db.out_facts(fact_a.target) {
            let Some(start_b) = start[b.index()] else { continue };
            let digram = (fact_a.label, db.fact(b).label);
            if forward.contains(&digram) {
                textbook.network.add_edge(end(start_a), start_b, Capacity::Infinite);
            }
            if reversed.contains(&digram) {
                textbook.network.add_edge(end(start_b), start_a, Capacity::Infinite);
            }
        }
    }
    for (id, fact) in db.facts() {
        let Some(s) = start[id.index()] else { continue };
        if endpoints.contains(&fact.label) {
            if source_letters.contains(&fact.label) {
                textbook.network.add_edge(source, s, Capacity::Infinite);
            }
            if target_letters.contains(&fact.label) {
                textbook.network.add_edge(end(s), target, Capacity::Infinite);
            }
        }
    }
    textbook
}

/// Solves `count` seeded databases of up to `max_facts` facts per language
/// and semantics, through the engine and through the textbook network.
fn sweep(count: u64, max_facts: usize) {
    let engine = Engine::new();
    for (pattern, algorithm) in LANGUAGES {
        let letters: String = {
            let mut l: Vec<char> = pattern.chars().filter(char::is_ascii_lowercase).collect();
            l.sort_unstable();
            l.dedup();
            l.into_iter().collect()
        };
        for semantics in [Semantics::Set, Semantics::Bag] {
            let rpq = Rpq::parse(pattern).unwrap().with_semantics(semantics);
            let prepared = engine.prepare(&rpq).unwrap();
            assert_eq!(prepared.plan().algorithm, algorithm, "{pattern}");
            let if_language = rpq.infix_free_language();
            let ro = RoEnfa::for_local_language(&if_language).ok();
            let finite = FiniteLanguage::from_language(&if_language).ok();
            for seed in 0..count {
                let facts = 2 + (mix(seed) % max_facts as u64) as usize;
                let db = database(&letters, facts, seed, semantics);
                let textbook = match algorithm {
                    Algorithm::Local => local_network(ro.as_ref().unwrap(), &db, semantics),
                    _ => chain_network(finite.as_ref().unwrap(), &db, semantics),
                };
                let (value, cut) = textbook.solve();
                let outcome = prepared.solve(&db).unwrap();
                let context = format!("{pattern}, {semantics:?}, seed {seed}, {facts} facts");
                assert_eq!(outcome.algorithm, algorithm, "{context}");
                assert_eq!(outcome.value, value, "{context}");
                if !value.is_infinite() {
                    let got: BTreeSet<FactId> =
                        outcome.contingency_set.unwrap().into_iter().collect();
                    assert_eq!(got, cut, "{context}");
                }
            }
        }
    }
}

#[test]
fn contracted_networks_cut_the_same_facts_as_the_textbook_networks() {
    sweep(200, 48);
}

/// The heavier sweep: about 2,000 databases of up to 2,000 facts. Run in
/// release mode: `cargo test --release -p rpq-resilience -- --ignored`.
#[test]
#[ignore]
fn contracted_networks_cut_the_same_facts_as_the_textbook_networks_at_scale() {
    sweep(170, 2_000);
}
