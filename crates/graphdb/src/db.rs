//! The graph-database store.
//!
//! Storage is columnar, so building a database allocates a bounded number of
//! buffers instead of a few per node:
//!
//! * **Names.** Every node name lives in one arena `String`, in id order, and
//!   `name_ends[i]` marks where node `i`'s name ends (it starts where node
//!   `i - 1`'s ends). [`GraphDb::node_name`] returns a slice of the arena.
//! * **Id tables.** Node names and facts are interned through one private
//!   open-addressing table type, `IdTable`, that stores `u32` ids and no
//!   keys: the node table recognizes a probed id by comparing its arena slice
//!   with the looked-up name, the fact table by comparing `facts[id]`. A name
//!   is therefore stored once, not once more as an owned map key. Tables are
//!   kept at most half full and are pre-sized by the bulk builders
//!   ([`crate::text::parse`], [`crate::delta::materialize`]). Removing a fact
//!   ([`GraphDb::remove_fact`]) deletes its slot by backward shift, so no
//!   tombstones build up and no name is hashed.
//! * **Keyed hashing.** Both tables hash with std's randomly keyed
//!   [`RandomState`]: node names come from requests, and an unkeyed hasher
//!   would let a client choose names that all collide (HashDoS). A fact is
//!   hashed as one `u128` packing `(source, label, target)`. A `char` has 21
//!   significant bits, so the triple needs 85 bits, and a `u64` packing would
//!   make distinct facts alias.
//! * **Nothing iterates a table**, so the random hash order never shows:
//!   identifiers are assigned in first-appearance order, and every iteration
//!   goes through the dense id-indexed vectors.
//! * **Lazy adjacency.** [`GraphDb::out_facts`] and [`GraphDb::in_facts`]
//!   read CSR offset/id arrays built by one counting pass on first use and
//!   cached in a [`OnceLock`], which is `Sync` because databases are shared
//!   through `Arc`. Adding a node or adding or removing a fact drops the
//!   cache (multiplicities and exogenous flags are not part of it). Each
//!   node lists its facts in ascending id order. The local-language product
//!   build (Theorem 3.13) iterates [`GraphDb::facts`] and never reads
//!   adjacency, so solving a parsed database with it never builds the cache.

use rpq_automata::alphabet::{Alphabet, Letter};
use std::collections::hash_map::RandomState;
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};
use std::hash::{BuildHasher, Hasher};
use std::num::NonZeroU32;
use std::ops::Range;
use std::sync::OnceLock;

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

impl Fact {
    /// The lossless hash key of the fact: 32 + 32 + 32 bits (see the module
    /// docs for why not a `u64`).
    fn key(self) -> u128 {
        (u128::from(self.source.0) << 64)
            | (u128::from(u32::from(self.label.0)) << 32)
            | u128::from(self.target.0)
    }
}

/// An edge-labeled graph database with bag-semantics multiplicities.
///
/// Set-semantics databases are simply databases in which every fact has
/// multiplicity 1 (the default of [`GraphDb::add_fact`]).
#[derive(Debug, Clone, Default)]
pub struct GraphDb {
    /// Every node name, concatenated in id order.
    names: String,
    /// `name_ends[i]` is where node `i`'s name ends in `names`.
    name_ends: Vec<usize>,
    /// Node ids, keyed by name.
    node_index: IdTable,
    facts: Vec<Fact>,
    multiplicities: Vec<u64>,
    /// Facts declared **exogenous**: they can never be part of a contingency
    /// set (equivalently, they carry weight `+∞`). This is the "exogenous
    /// relations" setting discussed in Sections 2 and 8 of the paper.
    exogenous: Vec<bool>,
    /// Fact ids, keyed by [`Fact::key`].
    fact_index: IdTable,
    /// The keyed hasher of both tables.
    hasher: RandomState,
    /// Out- and in-adjacency, built on first use.
    adjacency: OnceLock<Adjacency>,
}

/// Where node `id`'s name lies in the name arena.
fn name_span(name_ends: &[usize], id: u32) -> Range<usize> {
    let i = id as usize;
    let start = if i == 0 { 0 } else { name_ends[i - 1] };
    start..name_ends[i]
}

/// Whether node `id` is named `name`. Comparing bytes skips the char
/// boundary checks of a `str` slice: spans only ever end at name ends.
fn is_named(names: &str, name_ends: &[usize], id: u32, name: &str) -> bool {
    names.as_bytes()[name_span(name_ends, id)] == *name.as_bytes()
}

/// The id the next node or fact gets. Ids are dense `u32`s, and `u32::MAX`
/// stays unused so that an id plus one always fits.
fn next_id(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&id| id < u32::MAX)
        .expect("a graph database holds fewer than 2^32 - 1 nodes and facts")
}

impl GraphDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        GraphDb::default()
    }

    /// An empty database whose tables hold `nodes` nodes and `facts` facts
    /// without growing.
    pub(crate) fn with_capacity(nodes: usize, facts: usize) -> Self {
        let mut db = GraphDb::default();
        db.name_ends.reserve(nodes);
        db.node_index.reserve(nodes);
        db.reserve_facts(facts);
        db
    }

    fn reserve_facts(&mut self, facts: usize) {
        self.facts.reserve(facts);
        self.multiplicities.reserve(facts);
        self.exogenous.reserve(facts);
        self.fact_index.reserve(facts);
    }

    /// The hash of a node name: its bytes in one write. SipHash's padding
    /// encodes the length, so a lone key needs no terminator.
    fn name_hash(&self, name: &str) -> u64 {
        let mut hasher = self.hasher.build_hasher();
        hasher.write(name.as_bytes());
        hasher.finish()
    }

    /// Returns the node with the given name, creating it if necessary.
    pub fn node(&mut self, name: &str) -> NodeId {
        let hash = self.name_hash(name);
        let id = next_id(self.name_ends.len());
        let (names, name_ends) = (&self.names, &self.name_ends);
        let found = self
            .node_index
            .find_or_insert(hash, id, |probe| is_named(names, name_ends, probe, name));
        if let Some(existing) = found {
            return NodeId(existing);
        }
        self.names.push_str(name);
        self.close_new_node(id)
    }

    /// Records that the new node `id`'s name ends at the arena's end.
    fn close_new_node(&mut self, id: u32) -> NodeId {
        self.name_ends.push(self.names.len());
        self.adjacency.take();
        NodeId(id)
    }

    /// Returns the node with the given name if it exists.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        let hash = self.name_hash(name);
        self.node_index
            .find(hash, |probe| is_named(&self.names, &self.name_ends, probe, name))
            .map(NodeId)
    }

    /// Creates a fresh anonymous node, named `_n<k>` (with `_` appended
    /// until the name is unused, so it never aliases an existing node).
    pub fn fresh_node(&mut self) -> NodeId {
        // The candidate name is written straight into the arena.
        let start = self.names.len();
        let id = next_id(self.name_ends.len());
        let _ = write!(self.names, "_n{id}");
        loop {
            let (names, name_ends) = (&self.names, &self.name_ends);
            let candidate = &names[start..];
            let hash = self.name_hash(candidate);
            let found = self
                .node_index
                .find_or_insert(hash, id, |probe| is_named(names, name_ends, probe, candidate));
            if found.is_none() {
                return self.close_new_node(id);
            }
            self.names.push('_');
        }
    }

    /// The display name of a node.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.names[name_span(&self.name_ends, node.0)]
    }

    /// Number of nodes in the domain.
    pub fn num_nodes(&self) -> usize {
        self.name_ends.len()
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.name_ends.len() as u32).map(NodeId)
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
        let nodes = self.name_ends.len();
        assert!(
            (source.0 as usize) < nodes && (target.0 as usize) < nodes,
            "a fact must join two nodes of its database"
        );
        let fact = Fact { source, label, target };
        let hash = self.hasher.hash_one(fact.key());
        let id = next_id(self.facts.len());
        let facts = &self.facts;
        let found = self.fact_index.find_or_insert(hash, id, |probe| facts[probe as usize] == fact);
        if let Some(existing) = found {
            // The fact is already present: bag semantics accumulates the
            // multiplicity (except that add_fact keeps set semantics at 1
            // by only ever passing multiplicity 1 for a fresh fact).
            let current = &mut self.multiplicities[existing as usize];
            if multiplicity > 1 || *current > 1 {
                *current = current.checked_add(multiplicity)?;
            }
            return Some(FactId(existing));
        }
        self.facts.push(fact);
        self.multiplicities.push(multiplicity);
        self.exogenous.push(false);
        self.adjacency.take();
        Some(FactId(id))
    }

    /// Inserts the fact, or overwrites its multiplicity and exogenous flag if
    /// it is present (the put of a fact log, see [`crate::delta`]). One probe
    /// of the fact table either way.
    pub(crate) fn put_fact(
        &mut self,
        source: NodeId,
        label: Letter,
        target: NodeId,
        multiplicity: u64,
        exogenous: bool,
    ) -> FactId {
        assert!(multiplicity > 0, "bag multiplicities must be positive");
        let fact = Fact { source, label, target };
        let hash = self.hasher.hash_one(fact.key());
        let id = next_id(self.facts.len());
        let facts = &self.facts;
        match self.fact_index.find_or_insert(hash, id, |probe| facts[probe as usize] == fact) {
            Some(existing) => {
                let i = existing as usize;
                self.multiplicities[i] = multiplicity;
                self.exogenous[i] = exogenous;
                FactId(existing)
            }
            None => {
                self.facts.push(fact);
                self.multiplicities.push(multiplicity);
                self.exogenous.push(exogenous);
                self.adjacency.take();
                FactId(id)
            }
        }
    }

    /// Removes a fact by **swap-remove**: the last fact takes the removed
    /// fact's id, and every other id stays. Nodes are untouched. Costs one
    /// hash of each of the two facts' keys, and no name is hashed.
    pub fn remove_fact(&mut self, id: FactId) {
        let i = id.index();
        let removed = self.facts[i];
        self.fact_index.remove(self.hasher.hash_one(removed.key()), id.0);
        self.facts.swap_remove(i);
        self.multiplicities.swap_remove(i);
        self.exogenous.swap_remove(i);
        if let Some(&moved) = self.facts.get(i) {
            let last = self.facts.len() as u32;
            self.fact_index.repoint(self.hasher.hash_one(moved.key()), last, id.0);
        }
        self.adjacency.take();
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

    /// Sum of the multiplicities of all facts. It is a `u128`: each
    /// multiplicity may be up to `u64::MAX`, so their sum may not fit a `u64`.
    pub fn total_multiplicity(&self) -> u128 {
        self.multiplicities.iter().map(|&m| u128::from(m)).sum()
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
        let fact = Fact { source, label, target };
        let hash = self.hasher.hash_one(fact.key());
        self.fact_index.find(hash, |probe| self.facts[probe as usize] == fact).map(FactId)
    }

    /// The facts leaving a node, in ascending id order.
    pub fn out_facts(&self, node: NodeId) -> impl Iterator<Item = FactId> + '_ {
        self.adjacency().outgoing.of(node).iter().copied()
    }

    /// The facts entering a node, in ascending id order.
    pub fn in_facts(&self, node: NodeId) -> impl Iterator<Item = FactId> + '_ {
        self.adjacency().incoming.of(node).iter().copied()
    }

    fn adjacency(&self) -> &Adjacency {
        self.adjacency.get_or_init(|| Adjacency {
            outgoing: Csr::group(self.num_nodes(), &self.facts, |fact| fact.source),
            incoming: Csr::group(self.num_nodes(), &self.facts, |fact| fact.target),
        })
    }

    /// The alphabet of labels occurring on facts.
    pub fn alphabet(&self) -> Alphabet {
        Alphabet::from_letters(self.facts.iter().map(|f| f.label))
    }

    /// A database with the same nodes (same identifiers and names) and no
    /// facts.
    pub fn nodes_only(&self) -> GraphDb {
        GraphDb {
            names: self.names.clone(),
            name_ends: self.name_ends.clone(),
            node_index: self.node_index.clone(),
            // The node table's hashes were taken with this hasher.
            hasher: self.hasher.clone(),
            ..GraphDb::default()
        }
    }

    /// Returns a copy of the database with the given facts removed (their
    /// multiplicities removed entirely). Node identifiers are preserved.
    pub fn without_facts(&self, removed: &BTreeSet<FactId>) -> GraphDb {
        let mut out = self.nodes_only();
        out.reserve_facts(self.num_facts().saturating_sub(removed.len()));
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
        let mut out = self.nodes_only();
        out.reserve_facts(self.num_facts());
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

    /// Human-readable rendering of a fact, e.g. `u -a-> v` (see
    /// [`GraphDb::write_fact`]).
    pub fn display_fact(&self, id: FactId) -> String {
        let f = self.fact(id);
        let (source, target) = (self.node_name(f.source), self.node_name(f.target));
        let mut out = String::with_capacity(source.len() + target.len() + 5 + f.label.0.len_utf8());
        // Writing to a `String` cannot fail.
        let _ = self.write_fact(id, &mut out);
        out
    }

    /// Writes [`GraphDb::display_fact`]'s rendering of a fact to `out` piece
    /// by piece, so a caller that renders many facts (the server's cut, into
    /// one buffer) needs no `String` per fact.
    pub fn write_fact(&self, id: FactId, out: &mut impl fmt::Write) -> fmt::Result {
        let f = self.fact(id);
        out.write_str(self.node_name(f.source))?;
        out.write_str(" -")?;
        out.write_char(f.label.0)?;
        out.write_str("-> ")?;
        out.write_str(self.node_name(f.target))
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

/// The out- and in-adjacency of a database.
#[derive(Debug, Clone)]
struct Adjacency {
    outgoing: Csr,
    incoming: Csr,
}

/// Fact ids grouped by node: node `v`'s facts are
/// `ids[start[v]..start[v + 1]]`, in ascending id order.
#[derive(Debug, Clone)]
struct Csr {
    start: Vec<u32>,
    ids: Vec<FactId>,
}

impl Csr {
    /// Groups the facts by the node `end` picks: one counting pass, then
    /// one placing pass in id order. Offsets fit a `u32` because fact ids do.
    fn group(num_nodes: usize, facts: &[Fact], end: impl Fn(&Fact) -> NodeId) -> Csr {
        let mut start = vec![0u32; num_nodes + 1];
        for fact in facts {
            start[end(fact).0 as usize + 1] += 1;
        }
        for v in 0..num_nodes {
            start[v + 1] += start[v];
        }
        let mut cursor = start.clone();
        let mut ids = vec![FactId(0); facts.len()];
        for (id, fact) in facts.iter().enumerate() {
            let next = &mut cursor[end(fact).0 as usize];
            ids[*next as usize] = FactId(id as u32);
            *next += 1;
        }
        Csr { start, ids }
    }

    fn of(&self, node: NodeId) -> &[FactId] {
        let v = node.0 as usize;
        &self.ids[self.start[v] as usize..self.start[v + 1] as usize]
    }
}

/// An open-addressing hash table of `u32` ids with linear probing.
///
/// It stores no keys: the caller hashes its key and recognizes a probed id
/// through an `eq` callback. Each slot also keeps the low 32 bits of its
/// id's hash as a tag, so most mismatches are rejected without touching a
/// key, and growing re-places slots from their tags alone. The home slot of
/// a hash is its tag masked to the table size.
#[derive(Debug, Clone, Default)]
struct IdTable {
    /// A power-of-two number of slots (or none), at most half of them full.
    slots: Vec<Slot>,
    /// The number of full slots.
    len: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// The low 32 bits of the id's hash.
    tag: u32,
    /// The id plus one; `None` marks an empty slot.
    id: Option<NonZeroU32>,
}

/// The smallest non-empty table.
const MIN_SLOTS: usize = 8;

impl IdTable {
    /// Makes room for `additional` more ids without growing past half full.
    fn reserve(&mut self, additional: usize) {
        let wanted = (self.len + additional).saturating_mul(2).next_power_of_two().max(MIN_SLOTS);
        if wanted > self.slots.len() {
            self.resize(wanted);
        }
    }

    fn resize(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); slots]);
        for slot in old.into_iter().filter(|slot| slot.id.is_some()) {
            let i = self.vacancy(slot.tag);
            self.slots[i] = slot;
        }
    }

    /// The first empty slot from `tag`'s home slot on.
    fn vacancy(&self, tag: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        while self.slots[i].id.is_some() {
            i = (i + 1) & mask;
        }
        i
    }

    /// The id whose key has hash `hash` and satisfies `eq`, if any.
    fn find(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash as u32, eq).ok()
    }

    /// Walks `tag`'s probe sequence: the id satisfying `eq`, or the first
    /// empty slot.
    fn probe(&self, tag: u32, mut eq: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            let Some(id) = slot.id else { return Err(i) };
            let id = id.get() - 1;
            if slot.tag == tag && eq(id) {
                return Ok(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// [`IdTable::find`], except that a missing key is entered with id `id`
    /// (and `None` is returned).
    fn find_or_insert(&mut self, hash: u64, id: u32, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            self.resize(MIN_SLOTS);
        }
        let tag = hash as u32;
        let mut vacant = match self.probe(tag, eq) {
            Ok(found) => return Some(found),
            Err(vacant) => vacant,
        };
        if (self.len + 1) * 2 > self.slots.len() {
            self.resize(self.slots.len() * 2);
            vacant = self.vacancy(tag);
        }
        self.slots[vacant] = Slot { tag, id: NonZeroU32::new(id + 1) };
        self.len += 1;
        None
    }

    /// The slot holding `id` on `hash`'s probe sequence. Panics if `id` is
    /// not in the table under that hash.
    fn slot_of(&self, hash: u64, id: u32) -> usize {
        let mask = self.slots.len().wrapping_sub(1);
        let mut i = hash as u32 as usize & mask;
        loop {
            let held = self.slots[i].id.expect("the id is in the table");
            if held.get() - 1 == id {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Removes `id` (entered under `hash`) by **backward-shift deletion**:
    /// each later slot of the probe cluster that may live in the hole moves
    /// into it, so lookups never meet a gap on their probe sequence and the
    /// table needs no tombstones. Slots move by their tags alone.
    fn remove(&mut self, hash: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut hole = self.slot_of(hash, id);
        let mut i = (hole + 1) & mask;
        while let Slot { tag, id: Some(_) } = self.slots[i] {
            // The slot may fill the hole when the hole lies on its probe
            // sequence: its home is at or before the hole, cyclically.
            let home = tag as usize & mask;
            if i.wrapping_sub(home) & mask >= i.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[i];
                hole = i;
            }
            i = (i + 1) & mask;
        }
        self.slots[hole] = Slot::default();
        self.len -= 1;
    }

    /// Re-points the slot of `id` (entered under `hash`) to `new_id`.
    fn repoint(&mut self, hash: u64, id: u32, new_id: u32) {
        let i = self.slot_of(hash, id);
        self.slots[i].id = NonZeroU32::new(new_id + 1);
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
    fn fresh_nodes_never_alias_named_nodes() {
        // `_n1` is the name the first fresh node of a one-node database
        // would get: it must not be handed out again as if it were new.
        let mut db = GraphDb::new();
        let named = db.node("_n1");
        let fresh = db.fresh_node();
        assert_ne!(fresh, named);
        assert_eq!(db.num_nodes(), 2);
        assert_eq!(db.node_name(fresh), "_n1_");
        // Longer collisions keep growing the name.
        db.node("_n4");
        db.node("_n4_");
        let third = db.fresh_node();
        assert_eq!(db.node_name(third), "_n4__");
        assert_eq!(db.num_nodes(), 5);
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
    fn total_multiplicity_does_not_overflow() {
        // Each fact is within u64, but their sum is not.
        let mut db = GraphDb::new();
        let (u, v) = (db.node("u"), db.node("v"));
        db.add_fact_with_multiplicity(u, Letter('a'), v, u64::MAX);
        db.add_fact_with_multiplicity(u, Letter('b'), v, u64::MAX);
        assert_eq!(db.total_multiplicity(), 2 * u128::from(u64::MAX));
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
