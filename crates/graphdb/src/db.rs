//! The graph-database store.

use rpq_automata::alphabet::{Alphabet, Letter};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a node (domain element) of a graph database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a fact (labeled edge) of a graph database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FactId(pub u32);

impl FactId {
    /// The fact identifier as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A fact `source --label--> target` of a graph database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fact {
    /// The tail (source) of the edge.
    pub source: NodeId,
    /// The edge label.
    pub label: Letter,
    /// The head (target) of the edge.
    pub target: NodeId,
}

/// An edge-labeled graph database with bag-semantics multiplicities.
///
/// Set-semantics databases are simply databases in which every fact has
/// multiplicity 1 (the default of [`GraphDb::add_fact`]).
#[derive(Debug, Clone, Default)]
pub struct GraphDb {
    node_names: Vec<String>,
    node_index: BTreeMap<String, NodeId>,
    facts: Vec<Fact>,
    multiplicities: Vec<u64>,
    /// Facts declared **exogenous**: they can never be part of a contingency
    /// set (equivalently, they carry weight `+∞`). This is the "exogenous
    /// relations" setting discussed in Sections 2 and 8 of the paper.
    exogenous: Vec<bool>,
    fact_index: BTreeMap<Fact, FactId>,
    /// Outgoing adjacency, indexed by node id (`NodeId`s are dense u32s).
    out_edges: Vec<Vec<FactId>>,
    /// Incoming adjacency, indexed by node id.
    in_edges: Vec<Vec<FactId>>,
}

impl GraphDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        GraphDb::default()
    }

    /// Returns the node with the given name, creating it if necessary.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.node_index.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(name.to_string());
        self.node_index.insert(name.to_string(), id);
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        id
    }

    /// Returns the node with the given name if it exists.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_index.get(name).copied()
    }

    /// Creates a fresh anonymous node.
    pub fn fresh_node(&mut self) -> NodeId {
        let name = format!("_n{}", self.node_names.len());
        self.node(&name)
    }

    /// The display name of a node.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0 as usize]
    }

    /// Number of nodes in the domain.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_names.len() as u32).map(NodeId)
    }

    /// Adds a fact with multiplicity 1 (set semantics). If the fact already
    /// exists its multiplicity is left unchanged. Returns the fact identifier.
    pub fn add_fact(&mut self, source: NodeId, label: Letter, target: NodeId) -> FactId {
        self.add_fact_with_multiplicity(source, label, target, 1)
    }

    /// Adds a fact by node names (creating the nodes as needed).
    pub fn add_fact_by_names(&mut self, source: &str, label: char, target: &str) -> FactId {
        let s = self.node(source);
        let t = self.node(target);
        self.add_fact(s, Letter(label), t)
    }

    /// Adds a fact with an explicit multiplicity (bag semantics). If the fact
    /// is already present its multiplicity is **increased** by `multiplicity`.
    /// Panics if the accumulated multiplicity overflows `u64` (see
    /// [`GraphDb::try_add_fact_with_multiplicity`] for untrusted input).
    pub fn add_fact_with_multiplicity(
        &mut self,
        source: NodeId,
        label: Letter,
        target: NodeId,
        multiplicity: u64,
    ) -> FactId {
        self.try_add_fact_with_multiplicity(source, label, target, multiplicity)
            .expect("accumulated bag multiplicity overflows u64")
    }

    /// [`GraphDb::add_fact_with_multiplicity`], except that it returns `None`
    /// and leaves the database unchanged when accumulating onto an existing
    /// fact would overflow `u64`.
    pub fn try_add_fact_with_multiplicity(
        &mut self,
        source: NodeId,
        label: Letter,
        target: NodeId,
        multiplicity: u64,
    ) -> Option<FactId> {
        assert!(multiplicity > 0, "bag multiplicities must be positive");
        let fact = Fact { source, label, target };
        if let Some(&id) = self.fact_index.get(&fact) {
            // The fact is already present: bag semantics accumulates the
            // multiplicity (except that add_fact keeps set semantics at 1 by
            // only ever passing multiplicity 1 for a fresh fact).
            let current = &mut self.multiplicities[id.index()];
            if multiplicity > 1 || *current > 1 {
                *current = current.checked_add(multiplicity)?;
            }
            return Some(id);
        }
        let id = FactId(self.facts.len() as u32);
        self.facts.push(fact);
        self.multiplicities.push(multiplicity);
        self.exogenous.push(false);
        self.fact_index.insert(fact, id);
        self.out_edges[source.0 as usize].push(id);
        self.in_edges[target.0 as usize].push(id);
        Some(id)
    }

    /// Sets the multiplicity of an existing fact.
    pub fn set_multiplicity(&mut self, fact: FactId, multiplicity: u64) {
        assert!(multiplicity > 0, "bag multiplicities must be positive");
        self.multiplicities[fact.index()] = multiplicity;
    }

    /// Declares a fact **exogenous** (or endogenous again with `false`):
    /// exogenous facts can never be removed by a contingency set, i.e. they
    /// behave as facts of weight `+∞` (the setting discussed in Sections 2
    /// and 8 of the paper). When every `L`-walk uses an exogenous fact the
    /// resilience is `+∞`.
    pub fn set_exogenous(&mut self, fact: FactId, exogenous: bool) {
        self.exogenous[fact.index()] = exogenous;
    }

    /// Whether a fact is exogenous (cannot be part of a contingency set).
    pub fn is_exogenous(&self, fact: FactId) -> bool {
        self.exogenous[fact.index()]
    }

    /// Whether any fact of the database is exogenous.
    pub fn has_exogenous_facts(&self) -> bool {
        self.exogenous.iter().any(|&e| e)
    }

    /// Iterator over the exogenous facts.
    pub fn exogenous_facts(&self) -> impl Iterator<Item = FactId> + '_ {
        self.exogenous.iter().enumerate().filter(|(_, &e)| e).map(|(i, _)| FactId(i as u32))
    }

    /// Iterator over the endogenous (removable) facts.
    pub fn endogenous_facts(&self) -> impl Iterator<Item = FactId> + '_ {
        self.exogenous.iter().enumerate().filter(|(_, &e)| !e).map(|(i, _)| FactId(i as u32))
    }

    /// Number of (distinct) facts.
    pub fn num_facts(&self) -> usize {
        self.facts.len()
    }

    /// The size `|D|` of the database: its number of facts.
    pub fn size(&self) -> usize {
        self.num_facts()
    }

    /// The fact with the given identifier.
    pub fn fact(&self, id: FactId) -> Fact {
        self.facts[id.index()]
    }

    /// The multiplicity of a fact.
    pub fn multiplicity(&self, id: FactId) -> u64 {
        self.multiplicities[id.index()]
    }

    /// Sum of the multiplicities of all facts.
    pub fn total_multiplicity(&self) -> u64 {
        self.multiplicities.iter().sum()
    }

    /// Iterator over all fact identifiers.
    pub fn fact_ids(&self) -> impl Iterator<Item = FactId> + '_ {
        (0..self.facts.len() as u32).map(FactId)
    }

    /// Iterator over `(FactId, Fact)` pairs.
    pub fn facts(&self) -> impl Iterator<Item = (FactId, Fact)> + '_ {
        self.facts.iter().enumerate().map(|(i, &f)| (FactId(i as u32), f))
    }

    /// Looks up a fact identifier by its content.
    pub fn find_fact(&self, source: NodeId, label: Letter, target: NodeId) -> Option<FactId> {
        self.fact_index.get(&Fact { source, label, target }).copied()
    }

    /// The facts leaving a node.
    pub fn out_facts(&self, node: NodeId) -> impl Iterator<Item = FactId> + '_ {
        self.out_edges[node.0 as usize].iter().copied()
    }

    /// The facts entering a node.
    pub fn in_facts(&self, node: NodeId) -> impl Iterator<Item = FactId> + '_ {
        self.in_edges[node.0 as usize].iter().copied()
    }

    /// The alphabet of labels occurring on facts.
    pub fn alphabet(&self) -> Alphabet {
        Alphabet::from_letters(self.facts.iter().map(|f| f.label))
    }

    /// Returns a copy of the database with the given facts removed (their
    /// multiplicities removed entirely). Node identifiers are preserved.
    pub fn without_facts(&self, removed: &BTreeSet<FactId>) -> GraphDb {
        let mut out = GraphDb {
            node_names: self.node_names.clone(),
            node_index: self.node_index.clone(),
            out_edges: vec![Vec::new(); self.node_names.len()],
            in_edges: vec![Vec::new(); self.node_names.len()],
            ..GraphDb::default()
        };
        for (id, fact) in self.facts() {
            if !removed.contains(&id) {
                let new_id = out.add_fact_with_multiplicity(
                    fact.source,
                    fact.label,
                    fact.target,
                    self.multiplicity(id),
                );
                out.set_exogenous(new_id, self.is_exogenous(id));
            }
        }
        out
    }

    /// The mirror database `D^R`: every fact is reversed (Proposition 6.3 of
    /// the paper uses this to relate the resilience of a language and of its
    /// mirror). Fact identifiers are preserved.
    pub fn reversed(&self) -> GraphDb {
        let mut out = GraphDb {
            node_names: self.node_names.clone(),
            node_index: self.node_index.clone(),
            out_edges: vec![Vec::new(); self.node_names.len()],
            in_edges: vec![Vec::new(); self.node_names.len()],
            ..GraphDb::default()
        };
        for (id, fact) in self.facts() {
            let new_id = out.add_fact_with_multiplicity(
                fact.target,
                fact.label,
                fact.source,
                self.multiplicity(id),
            );
            out.set_exogenous(new_id, self.is_exogenous(id));
        }
        out
    }

    /// Human-readable rendering of a fact, e.g. `u -a-> v`.
    pub fn display_fact(&self, id: FactId) -> String {
        let f = self.fact(id);
        format!("{} -{}-> {}", self.node_name(f.source), f.label, self.node_name(f.target))
    }
}

impl fmt::Display for GraphDb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "GraphDb with {} nodes and {} facts:", self.num_nodes(), self.num_facts())?;
        for (id, _) in self.facts() {
            let m = self.multiplicity(id);
            if m == 1 {
                writeln!(f, "  {}", self.display_fact(id))?;
            } else {
                writeln!(f, "  {} (×{m})", self.display_fact(id))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_are_interned() {
        let mut db = GraphDb::new();
        let u = db.node("u");
        let v = db.node("v");
        assert_ne!(u, v);
        assert_eq!(db.node("u"), u);
        assert_eq!(db.num_nodes(), 2);
        assert_eq!(db.node_name(u), "u");
        assert_eq!(db.find_node("v"), Some(v));
        assert_eq!(db.find_node("w"), None);
        let w = db.fresh_node();
        assert_eq!(db.num_nodes(), 3);
        assert_ne!(w, u);
    }

    #[test]
    fn facts_are_deduplicated_in_set_semantics() {
        let mut db = GraphDb::new();
        let u = db.node("u");
        let v = db.node("v");
        let f1 = db.add_fact(u, Letter('a'), v);
        let f2 = db.add_fact(u, Letter('a'), v);
        assert_eq!(f1, f2);
        assert_eq!(db.num_facts(), 1);
        assert_eq!(db.multiplicity(f1), 1);
        let f3 = db.add_fact(u, Letter('b'), v);
        assert_ne!(f1, f3);
        assert_eq!(db.num_facts(), 2);
    }

    #[test]
    fn bag_multiplicities_accumulate() {
        let mut db = GraphDb::new();
        let u = db.node("u");
        let v = db.node("v");
        let f = db.add_fact_with_multiplicity(u, Letter('a'), v, 3);
        assert_eq!(db.multiplicity(f), 3);
        db.add_fact_with_multiplicity(u, Letter('a'), v, 2);
        assert_eq!(db.multiplicity(f), 5);
        db.set_multiplicity(f, 7);
        assert_eq!(db.multiplicity(f), 7);
        assert_eq!(db.total_multiplicity(), 7);
    }

    #[test]
    fn adjacency_and_lookup() {
        let mut db = GraphDb::new();
        let f1 = db.add_fact_by_names("u", 'a', "v");
        let f2 = db.add_fact_by_names("u", 'b', "w");
        let f3 = db.add_fact_by_names("v", 'a', "w");
        let u = db.find_node("u").unwrap();
        let w = db.find_node("w").unwrap();
        let out_u: Vec<FactId> = db.out_facts(u).collect();
        assert_eq!(out_u, vec![f1, f2]);
        let in_w: Vec<FactId> = db.in_facts(w).collect();
        assert_eq!(in_w, vec![f2, f3]);
        let v = db.find_node("v").unwrap();
        assert_eq!(db.find_fact(u, Letter('a'), v), Some(f1));
        assert_eq!(db.find_fact(u, Letter('a'), w), None);
    }

    #[test]
    fn alphabet_and_display() {
        let mut db = GraphDb::new();
        db.add_fact_by_names("u", 'a', "v");
        db.add_fact_by_names("v", 'x', "w");
        let alpha = db.alphabet();
        assert_eq!(alpha.len(), 2);
        assert!(alpha.contains(Letter('x')));
        let rendered = db.to_string();
        assert!(rendered.contains("u -a-> v"));
    }

    #[test]
    fn without_facts_removes_them() {
        let mut db = GraphDb::new();
        let f1 = db.add_fact_by_names("u", 'a', "v");
        let f2 = db.add_fact_by_names("v", 'b', "w");
        let removed: BTreeSet<FactId> = [f1].into_iter().collect();
        let sub = db.without_facts(&removed);
        assert_eq!(sub.num_facts(), 1);
        assert_eq!(sub.num_nodes(), db.num_nodes());
        let (_, remaining) = sub.facts().next().unwrap();
        assert_eq!(remaining.label, Letter('b'));
        // Removing nothing copies everything (including multiplicities).
        db.set_multiplicity(f2, 5);
        let copy = db.without_facts(&BTreeSet::new());
        assert_eq!(copy.num_facts(), 2);
        assert_eq!(copy.total_multiplicity(), 6);
    }

    #[test]
    fn reversed_database() {
        let mut db = GraphDb::new();
        let f = db.add_fact_by_names("u", 'a', "v");
        db.set_multiplicity(f, 4);
        db.add_fact_by_names("v", 'b', "w");
        let rev = db.reversed();
        assert_eq!(rev.num_facts(), 2);
        let u = rev.find_node("u").unwrap();
        let v = rev.find_node("v").unwrap();
        let fr = rev.find_fact(v, Letter('a'), u).unwrap();
        assert_eq!(rev.multiplicity(fr), 4);
        assert!(rev.find_fact(u, Letter('a'), v).is_none());
    }

    #[test]
    fn overflowing_accumulation_is_refused() {
        let mut db = GraphDb::new();
        let (u, v) = (db.node("u"), db.node("v"));
        let f = db.add_fact_with_multiplicity(u, Letter('a'), v, u64::MAX);
        assert_eq!(db.try_add_fact_with_multiplicity(u, Letter('a'), v, 2), None);
        assert_eq!(db.multiplicity(f), u64::MAX, "a refused add leaves the fact unchanged");
        assert_eq!(db.num_facts(), 1);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn overflowing_add_panics_instead_of_wrapping() {
        let mut db = GraphDb::new();
        let (u, v) = (db.node("u"), db.node("v"));
        db.add_fact_with_multiplicity(u, Letter('a'), v, u64::MAX);
        db.add_fact_with_multiplicity(u, Letter('a'), v, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_multiplicity_is_rejected() {
        let mut db = GraphDb::new();
        let u = db.node("u");
        let v = db.node("v");
        db.add_fact_with_multiplicity(u, Letter('a'), v, 0);
    }
}
