//! Model test of `GraphDb` storage: random sequences of every mutating call
//! (fact removal included) run against a plain `Vec`/`BTreeMap` model, with
//! lookups and adjacency checked between mutations (so a stale adjacency
//! cache fails the test).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq_automata::alphabet::Letter;
use rpq_graphdb::{FactId, GraphDb, NodeId};
use std::collections::{BTreeMap, BTreeSet};

type Triple = (u32, char, u32);

/// What a `GraphDb` should contain, kept the obvious way.
#[derive(Clone, Default)]
struct Model {
    names: Vec<String>,
    by_name: BTreeMap<String, u32>,
    facts: Vec<Triple>,
    by_fact: BTreeMap<Triple, u32>,
    multiplicities: Vec<u64>,
    exogenous: Vec<bool>,
}

impl Model {
    fn node(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    fn fresh_node(&mut self) -> u32 {
        let mut name = format!("_n{}", self.names.len());
        while self.by_name.contains_key(&name) {
            name.push('_');
        }
        self.node(&name)
    }

    /// `try_add_fact_with_multiplicity`: a new fact, or bag accumulation
    /// (only when either side exceeds 1), refused on overflow.
    fn add(&mut self, fact: Triple, multiplicity: u64) -> Option<u32> {
        if let Some(&id) = self.by_fact.get(&fact) {
            let current = &mut self.multiplicities[id as usize];
            if multiplicity > 1 || *current > 1 {
                *current = current.checked_add(multiplicity)?;
            }
            return Some(id);
        }
        let id = self.facts.len() as u32;
        self.facts.push(fact);
        self.by_fact.insert(fact, id);
        self.multiplicities.push(multiplicity);
        self.exogenous.push(false);
        Some(id)
    }

    /// `remove_fact`: swap-remove, the last fact takes the removed id.
    fn remove(&mut self, id: u32) {
        let i = id as usize;
        let removed = self.facts.swap_remove(i);
        self.multiplicities.swap_remove(i);
        self.exogenous.swap_remove(i);
        self.by_fact.remove(&removed);
        if let Some(&moved) = self.facts.get(i) {
            self.by_fact.insert(moved, id);
        }
    }

    /// The same nodes with the facts `keep` selects, copied in id order and
    /// mapped through `end`.
    fn refill(&self, keep: impl Fn(u32) -> bool, end: impl Fn(Triple) -> Triple) -> Model {
        let mut out =
            Model { names: self.names.clone(), by_name: self.by_name.clone(), ..Model::default() };
        for (id, &fact) in self.facts.iter().enumerate() {
            if keep(id as u32) {
                let new = out.add(end(fact), self.multiplicities[id]).unwrap();
                out.exogenous[new as usize] = self.exogenous[id];
            }
        }
        out
    }
}

fn triple(db: &GraphDb, id: FactId) -> Triple {
    let fact = db.fact(id);
    (fact.source.0, fact.label.0, fact.target.0)
}

/// Every name, fact, multiplicity, flag and lookup agrees.
fn assert_matches(db: &GraphDb, model: &Model) {
    assert_eq!(db.num_nodes(), model.names.len());
    for (id, name) in model.names.iter().enumerate() {
        assert_eq!(db.node_name(NodeId(id as u32)), name);
        assert_eq!(db.find_node(name), Some(NodeId(id as u32)), "find_node({name:?})");
    }
    assert_eq!(db.num_facts(), model.facts.len());
    for (id, &fact) in model.facts.iter().enumerate() {
        let fid = FactId(id as u32);
        assert_eq!(triple(db, fid), fact);
        assert_eq!(db.multiplicity(fid), model.multiplicities[id]);
        assert_eq!(db.is_exogenous(fid), model.exogenous[id]);
        let (s, l, t) = fact;
        assert_eq!(db.find_fact(NodeId(s), Letter(l), NodeId(t)), Some(fid));
    }
}

/// Lookups of names and facts that may or may not exist, plus the
/// adjacency of a few nodes.
fn spot_check(db: &GraphDb, model: &Model, rng: &mut StdRng, pool: &[&str]) {
    let name = pool[rng.gen_range(0..pool.len())];
    assert_eq!(db.find_node(name), model.by_name.get(name).map(|&id| NodeId(id)), "{name:?}");
    if model.names.is_empty() {
        return;
    }
    let n = model.names.len() as u32;
    let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
    let l = ['a', 'b', 'é'][rng.gen_range(0..3usize)];
    assert_eq!(
        db.find_fact(NodeId(s), Letter(l), NodeId(t)),
        model.by_fact.get(&(s, l, t)).map(|&id| FactId(id))
    );
    for _ in 0..2 {
        let v = rng.gen_range(0..n);
        let out: Vec<u32> = db.out_facts(NodeId(v)).map(|f| f.0).collect();
        let into: Vec<u32> = db.in_facts(NodeId(v)).map(|f| f.0).collect();
        let ids = |side: fn(&Triple) -> u32| -> Vec<u32> {
            (0..model.facts.len() as u32)
                .filter(|&id| side(&model.facts[id as usize]) == v)
                .collect()
        };
        assert_eq!(out, ids(|f| f.0), "out_facts({v})");
        assert_eq!(into, ids(|f| f.2), "in_facts({v})");
    }
}

#[test]
fn random_operation_sequences_match_the_model() {
    let pool = ["", "é", "_n1", "_n2", "_n3", "u", "v", "w", "x:y", "node_10"];
    for seed in 0..300 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = GraphDb::new();
        let mut model = Model::default();
        for _ in 0..rng.gen_range(0..80usize) {
            let n = model.names.len() as u32;
            let endpoints = |rng: &mut StdRng| (rng.gen_range(0..n), rng.gen_range(0..n));
            match rng.gen_range(0..15u32) {
                0..=2 => {
                    let name = pool[rng.gen_range(0..pool.len())];
                    assert_eq!(db.node(name).0, model.node(name));
                }
                3 => assert_eq!(db.fresh_node().0, model.fresh_node()),
                4..=6 if n > 0 => {
                    let (s, t) = endpoints(&mut rng);
                    let l = ['a', 'b', 'é'][rng.gen_range(0..3usize)];
                    let m = if rng.gen_bool(0.5) { 1 } else { rng.gen_range(2..5u64) };
                    let got = db.try_add_fact_with_multiplicity(NodeId(s), Letter(l), NodeId(t), m);
                    assert_eq!(got.map(|f| f.0), model.add((s, l, t), m));
                }
                7 => {
                    let (s, t) =
                        (pool[rng.gen_range(0..pool.len())], pool[rng.gen_range(0..3usize)]);
                    let got = db.add_fact_by_names(s, 'a', t);
                    let (ms, mt) = (model.node(s), model.node(t));
                    assert_eq!(Some(got.0), model.add((ms, 'a', mt), 1));
                }
                8 if !model.facts.is_empty() => {
                    // Drive a fact to the top, then overflow it: the refused
                    // add leaves everything as it was.
                    let id = rng.gen_range(0..model.facts.len());
                    db.set_multiplicity(FactId(id as u32), u64::MAX);
                    model.multiplicities[id] = u64::MAX;
                    let (s, l, t) = model.facts[id];
                    let before = model.clone();
                    assert_eq!(
                        db.try_add_fact_with_multiplicity(NodeId(s), Letter(l), NodeId(t), 2),
                        None
                    );
                    assert_eq!(model.add((s, l, t), 2), None);
                    assert_matches(&db, &before);
                    // Back to a small count, so later adds may accumulate.
                    db.set_multiplicity(FactId(id as u32), 2);
                    model.multiplicities[id] = 2;
                }
                9 if !model.facts.is_empty() => {
                    let id = rng.gen_range(0..model.facts.len());
                    let flag = rng.gen_bool(0.5);
                    db.set_exogenous(FactId(id as u32), flag);
                    model.exogenous[id] = flag;
                    let m = rng.gen_range(1..9u64);
                    db.set_multiplicity(FactId(id as u32), m);
                    model.multiplicities[id] = m;
                }
                10 => {
                    db = db.nodes_only();
                    model = model.refill(|_| false, |f| f);
                }
                11 => {
                    let removed: BTreeSet<u32> =
                        (0..model.facts.len() as u32).filter(|_| rng.gen_bool(0.3)).collect();
                    db = db.without_facts(&removed.iter().map(|&id| FactId(id)).collect());
                    model = model.refill(|id| !removed.contains(&id), |f| f);
                }
                12 => {
                    db = db.reversed();
                    model = model.refill(|_| true, |(s, l, t)| (t, l, s));
                }
                13..=14 if !model.facts.is_empty() => {
                    // Every lookup must survive the backward shift of the
                    // removed slot and the re-pointed slot of the moved fact.
                    let id = rng.gen_range(0..model.facts.len() as u32);
                    let (s, l, t) = model.facts[id as usize];
                    db.remove_fact(FactId(id));
                    model.remove(id);
                    assert_eq!(db.find_fact(NodeId(s), Letter(l), NodeId(t)), None);
                    assert_matches(&db, &model);
                }
                _ => {}
            }
            spot_check(&db, &model, &mut rng, &pool);
        }
        assert_matches(&db, &model);
    }
}

#[test]
fn tables_grown_past_100k_nodes_keep_every_lookup() {
    let mut db = GraphDb::new();
    let mut model = Model::default();
    const NODES: u32 = 120_000;
    for i in 0..NODES {
        let name = format!("n{i}");
        assert_eq!(db.node(&name).0, model.node(&name));
        if i > 0 {
            // A path plus a chord every 7 nodes, with a bag multiplicity.
            let fact = (i - 1, 'a', i);
            let got = db.add_fact(NodeId(i - 1), Letter('a'), NodeId(i));
            assert_eq!(Some(got.0), model.add(fact, 1));
            if i % 7 == 0 {
                let got = db.add_fact_with_multiplicity(NodeId(i), Letter('b'), NodeId(i / 2), 3);
                assert_eq!(Some(got.0), model.add((i, 'b', i / 2), 3));
            }
        }
        if i % 20_000 == 0 {
            // Build the adjacency mid-way; the next insert must drop it.
            assert_eq!(db.out_facts(NodeId(i)).count(), 0);
            assert_eq!(db.in_facts(NodeId(i)).count(), usize::from(i > 0));
        }
    }
    assert_eq!(db.fresh_node().0, model.fresh_node());
    assert_matches(&db, &model);
    assert_eq!(db.find_node("n120000"), None);
    assert_eq!(db.find_fact(NodeId(0), Letter('b'), NodeId(1)), None);
    let chords: Vec<u32> = db.in_facts(NodeId(7)).map(|f| f.0).collect();
    assert_eq!(chords, vec![model.by_fact[&(6, 'a', 7)], model.by_fact[&(14, 'b', 7)]]);
    let rev = db.reversed();
    assert_eq!(
        rev.out_facts(NodeId(7)).collect::<Vec<_>>(),
        db.in_facts(NodeId(7)).collect::<Vec<_>>()
    );
}
