//! Cut identity against the textbook networks.
//!
//! The engine builds pruned, ε-contracted and terminal-merged product
//! networks. These tests build the networks the way the paper states them —
//! with no pruning and no merging — solve them with [`CsrFlow::min_cut`],
//! certify each cut with [`CsrFlow::check_cut`], and require
//! [`PreparedQuery::solve`] to return the same value and the same contingency
//! set. The set is the fact image of the unique minimal source side, so every
//! sound contraction must leave it unchanged.
//!
//! * Theorem 3.13: `N_{D,A}` over the RO-εNFA of `IF(L)`: a vertex per
//!   (node, state), an edge per fact, an ε-edge per (node, ε-transition), and
//!   source / target edges at every node's initial / final states.
//! * Proposition 7.6: a start and an end vertex per fact of a word letter,
//!   forward wiring along forward words, reversed wiring along reversed
//!   words, and source / target edges at the endpoint letters.
//! * Proposition 7.9: the rewritten database `D'` built as a real
//!   [`GraphDb`] (twin nodes, `x`-facts redirected to the twins, one `z`-fact
//!   per node of positive exchange price, `y`-facts erased), the unmerged
//!   Theorem 3.13 network of `D'` over the split automaton `A'`, and its cut
//!   mapped back to the original facts.
//!
//! The `#[ignore]`d sweep runs the same check on larger databases:
//! `cargo test --release -p rpq-resilience -- --ignored`.

use rpq_automata::finite::{one_dangling_decomposition, FiniteLanguage};
use rpq_automata::ro_enfa::RoEnfa;
use rpq_automata::Alphabet;
use rpq_flow::{Capacity, CsrFlow, FlowScratch, VertexId};
use rpq_graphdb::generate::{flow_instance, layered_instance, random_labeled_graph};
use rpq_graphdb::{FactId, GraphDb, NodeId};
use rpq_resilience::algorithms::Algorithm;
use rpq_resilience::engine::Engine;
use rpq_resilience::rpq::{ResilienceValue, Rpq, Semantics};
use std::collections::BTreeSet;

/// The languages of the sweep and the reduction each one must take. The 32
/// letters of `aA|bB|…|pP` give a 65-state RO-εNFA, past the 64 states of
/// the pruned product build, so the engine takes its unpruned fallback.
const LANGUAGES: [(&str, Algorithm); 9] = [
    ("ax*b", Algorithm::Local),
    ("ab|ad|cd", Algorithm::Local),
    ("abc|abd", Algorithm::Local),
    ("a(b|d)*x", Algorithm::Local),
    ("aA|bB|cC|dD|eE|fF|gG|hH|iI|jJ|kK|lL|mM|nN|oO|pP", Algorithm::Local),
    ("ab|bc", Algorithm::BipartiteChain),
    ("axb|byc", Algorithm::BipartiteChain),
    ("abc|be", Algorithm::OneDangling),
    ("cba|eb", Algorithm::OneDangling),
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
/// multiplicities 1–5; when `exogenous` is set, one seed in three marks about
/// a tenth of the facts exogenous.
fn database(
    letters: &str,
    facts: usize,
    seed: u64,
    semantics: Semantics,
    exogenous: bool,
) -> GraphDb {
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
        if exogenous && seed % 3 == 2 && (r >> 8).is_multiple_of(10) {
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
    network: CsrFlow,
    source: VertexId,
    target: VertexId,
    edge_fact: Vec<FactId>,
}

impl Textbook {
    fn new() -> Textbook {
        let mut network = CsrFlow::new();
        let source = network.add_vertex();
        let target = network.add_vertex();
        network.set_source(source);
        network.set_target(target);
        Textbook { network, source, target, edge_fact: Vec::new() }
    }

    fn add_fact_edge(&mut self, from: VertexId, to: VertexId, fact: FactId, capacity: Capacity) {
        self.network.add_edge(from, to, capacity);
        self.edge_fact.push(fact);
    }

    /// The min-cut value and the facts of the cut's edges.
    fn solve(mut self) -> (ResilienceValue, BTreeSet<FactId>) {
        self.network.freeze();
        let mut scratch = FlowScratch::new();
        let cut = self.network.min_cut(&mut scratch);
        if !cut.value.is_infinite() {
            assert_eq!(self.network.check_cut(cut.cut_edges), Ok(cut.value), "textbook cut");
        }
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
    let (source, target) = (textbook.source, textbook.target);
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
    let (source, target) = (textbook.source, textbook.target);
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

/// What a fact of the rewritten database `D'` stands for.
enum Provenance {
    /// A carried-over fact, or an `x`-fact redirected to a twin.
    Original(FactId),
    /// The `z`-fact of a node: cutting it deletes the node's `x`-facts in
    /// place of its `y`-facts.
    Exchange(NodeId),
}

/// Proposition 7.9 the way the paper states it, for a query whose `IF(L)`
/// is one-dangling with `ε ∉ IF(L)` and a database without exogenous facts:
/// returns the value and the contingency set mapped back from the textbook
/// cut of `D'`.
///
/// The query is mirrored, and the database reversed, when `y` is a letter of
/// the local part. Then `D'` is a [`GraphDb`]: every node `v` with an
/// `x`-fact into it gets a fresh twin `(v, in)`, `x`-facts into `v` go to
/// `(v, in)`, the other non-`y` facts are copied, and a `z`-fact
/// `(v, in) → v` of multiplicity `in_x(v) − out_y(v)` is added where that
/// price is positive. `z` is fresh for the local part, `x`, `y` and the
/// database. The value is `κ` (all `y`-facts) plus the non-positive prices
/// plus the min cut of `N_{D', A'}`, where `A'` splits the `x`-transition
/// into `x` then `z`.
fn one_dangling_reference(rpq: &Rpq, db: &GraphDb) -> (ResilienceValue, BTreeSet<FactId>) {
    let decomposition = one_dangling_decomposition(&rpq.infix_free_language()).unwrap();
    let (local, x, y, db) = if decomposition.local_part.used_letters().contains(decomposition.y) {
        (decomposition.local_part.mirror(), decomposition.y, decomposition.x, db.reversed())
    } else {
        (decomposition.local_part, decomposition.x, decomposition.y, db.clone())
    };
    let semantics = rpq.semantics();
    let ro = RoEnfa::for_local_language(&local).unwrap();
    let z = local.alphabet().union(&db.alphabet()).with(x).with(y).fresh_letter();
    let a_prime = match ro.letter_transition(x) {
        Some(_) => ro.split_letter_transition(x, z).unwrap(),
        None => ro,
    };

    let weight = |id: FactId| i128::from(semantics.fact_cost(&db, id));
    let mut rewritten = db.nodes_only();
    let mut twins: Vec<Option<NodeId>> = vec![None; db.num_nodes()];
    let mut provenance = Vec::new();
    let mut in_x = vec![0i128; db.num_nodes()];
    let mut out_y = vec![0i128; db.num_nodes()];
    let mut kappa = 0i128;
    for (id, fact) in db.facts() {
        let mut target = fact.target;
        if fact.label == y {
            out_y[fact.source.0 as usize] += weight(id);
            kappa += weight(id);
            continue;
        }
        if fact.label == x {
            in_x[target.0 as usize] += weight(id);
            target = *twins[target.0 as usize].get_or_insert_with(|| rewritten.fresh_node());
        }
        let multiplicity = semantics.fact_cost(&db, id);
        rewritten.add_fact_with_multiplicity(fact.source, fact.label, target, multiplicity);
        provenance.push(Provenance::Original(id));
    }
    let mut credit = 0i128;
    let mut restored = vec![false; db.num_nodes()];
    for v in db.nodes() {
        let price = in_x[v.0 as usize] - out_y[v.0 as usize];
        if price > 0 {
            let twin = twins[v.0 as usize].unwrap();
            rewritten.add_fact_with_multiplicity(twin, z, v, u64::try_from(price).unwrap());
            provenance.push(Provenance::Exchange(v));
        } else {
            credit += price;
            restored[v.0 as usize] = true;
        }
    }
    assert_eq!(provenance.len(), rewritten.num_facts(), "the facts of D' never collide");

    let (cut_value, cut) = local_network(&a_prime, &rewritten, Semantics::Bag).solve();
    let ResilienceValue::Finite(cut_value) = cut_value else {
        return (ResilienceValue::Infinite, BTreeSet::new());
    };
    let mut witness = BTreeSet::new();
    for fact in cut {
        match provenance[fact.index()] {
            Provenance::Original(id) => {
                witness.insert(id);
            }
            Provenance::Exchange(v) => restored[v.0 as usize] = true,
        }
    }
    for (id, fact) in db.facts() {
        let deleted_x = fact.label == x && restored[fact.target.0 as usize];
        let deleted_y = fact.label == y && !restored[fact.source.0 as usize];
        if deleted_x || deleted_y {
            witness.insert(id);
        }
    }
    let value = kappa + credit + i128::try_from(cut_value).unwrap();
    (ResilienceValue::Finite(u128::try_from(value).unwrap()), witness)
}

/// The letter the Proposition 7.9 rewriting of `pattern` picks as `z` on
/// databases that do not already use it: the first letter outside the local
/// part and the dangling word.
fn one_dangling_z(pattern: &str) -> char {
    let d =
        one_dangling_decomposition(&Rpq::parse(pattern).unwrap().infix_free_language()).unwrap();
    d.local_part.alphabet().with(d.x).with(d.y).fresh_letter().0
}

/// Solves `count` seeded databases of up to `max_facts` facts per language
/// and semantics, through the engine and through the textbook network. The
/// one-dangling databases also carry facts labelled with the rewriting's
/// `z`, and no exogenous facts (the rewriting assumes finite weights).
fn sweep(count: u64, max_facts: usize) {
    let engine = Engine::new();
    for (pattern, algorithm) in LANGUAGES {
        let one_dangling = algorithm == Algorithm::OneDangling;
        let letters: String = {
            let mut l: Vec<char> = pattern.chars().filter(char::is_ascii_alphabetic).collect();
            if one_dangling {
                l.push(one_dangling_z(pattern));
            }
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
                let db = database(&letters, facts, seed, semantics, !one_dangling);
                let (value, cut) = match algorithm {
                    Algorithm::Local => local_network(ro.as_ref().unwrap(), &db, semantics).solve(),
                    Algorithm::BipartiteChain => {
                        chain_network(finite.as_ref().unwrap(), &db, semantics).solve()
                    }
                    _ => one_dangling_reference(&rpq, &db),
                };
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

/// The heavier sweep: about 2,700 databases of up to 2,000 facts. Run in
/// release mode: `cargo test --release -p rpq-resilience -- --ignored`.
#[test]
#[ignore]
fn contracted_networks_cut_the_same_facts_as_the_textbook_networks_at_scale() {
    sweep(170, 2_000);
}
