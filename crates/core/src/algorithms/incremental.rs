//! Incremental Theorem 3.13 solves: patch the product network, keep the flow.
//!
//! The snapshot store solves the *same query* against a database that drifts
//! by small fact deltas. Rebuilding the RO-εNFA product and re-running
//! max-flow from zero on every snapshot throws away almost all the work: a
//! single-fact edit changes one edge capacity of the flow network, and a
//! maximum flow for the previous snapshot is a near-maximum feasible flow for
//! the next one. This module keeps the product network alive between solves,
//! and its flow in the residual graph of the scratch's
//! [`rpq_flow::FlowScratch`], and applies deltas as capacity patches:
//!
//! * **insert** — a new arc appended to the CSR arena (plus the vertices
//!   and structural arcs of the states the fact brings into use), or a
//!   parked fact when an endpoint is not yet a vertex (see below);
//! * **delete** — the arc's capacity zeroed, with the flow it carried
//!   cancelled along residual paths ([`rpq_flow::CsrFlow::cancel_flow`])
//!   so the retained assignment stays feasible;
//! * **solve** — a [`rpq_flow::CsrFlow::max_flow_resume`] that only augments
//!   the *difference* to the new maximum instead of the whole flow. A
//!   capacity patch rewrites the frozen arc and its residual in place
//!   ([`rpq_flow::CsrFlow::patch_edge_capacity`]), so a delta that only
//!   patched capacities costs `O(|delta|)` before Dinic starts; only deltas
//!   that append vertices or edges make the resume pay the `O(V+E)`
//!   re-lay that carries the flow into the new arcs;
//! * **cut** — [`rpq_flow::CsrFlow::extract_cut`] repairs the source side
//!   the scratch kept from the previous solve, touching only the vertices
//!   whose tree path the logged residual changes broke, and keeps the
//!   previous cut edges when no vertex changed side (a re-lay drops that
//!   side, and the extraction after it searches in full);
//!   [`IncrementalLocalState::cut_to_facts`] then maps each cut edge to the
//!   fact id it mapped to last time, checked against the database's fact at
//!   that id, and hashes the fact's key only when a delete moved the id.
//!
//! # Stable layout, grow-only pruning
//!
//! [`crate::algorithms::local`]'s per-solve build prunes, contracts and
//! compacts the product per database, so its vertex ids change whenever the
//! database does, which a retained flow cannot survive. The retained network
//! keeps the batch path's *pruning* and drops its database-dependent
//! ε-contraction and terminal merges (an insert could invalidate them). Its
//! vertices carry identities the delta language can address:
//!
//! * node *names* are interned to stable block indices, since a database
//!   handed to a solve may number its nodes unlike the one before. Along
//!   one store log it does not (the store's fold never renumbers a node),
//!   so [`IncrementalLocalState::cut_to_facts`] first tries block `b` as
//!   node `b`;
//! * each block keeps the masks of the states facts enter it at and leave
//!   it from, and `(block, state)` is a vertex exactly when the batch path's
//!   formula ([`ProductShape::used`]) uses the state under them:
//!   ε-reachable from the initial states and the entered states,
//!   ε-co-reachable from the final states and the left ones. Automata above
//!   64 states have no masks; every state of a block is used, in the same
//!   code. Vertices are numbered in order of appearance;
//! * a fact edge is keyed by `(block, letter, block)` and exists once both
//!   of its endpoints are vertices. Until then the fact is *parked*: kept
//!   with its capacity and listed under both of its blocks.
//!
//! The masks only grow between rebuilds. A delete zeroes its fact's
//! capacity and leaves the masks alone: an emitted edge stays in the arena
//! as a zero-capacity tombstone (freeze drops it from the adjacency), which
//! a re-insert resurrects. An insert that widens a block's masks appends the
//! block's new vertices, their ε / source / target edges and the parked
//! facts they complete. No vertex or edge is ever removed, so the retained
//! flow stays feasible.
//!
//! # Why the cut stays the same
//!
//! The grown masks contain the current database's, so the network keeps
//! every vertex of every source→target path of the current product, with
//! every edge between kept vertices: the maximum flow is the same. Its
//! minimal source side, which the cut is read from, meets those path
//! vertices exactly as the full product's does. Every positive edge leaving
//! that side is saturated, so it carries flow and lies on such a path. A
//! residual path from the source to a path vertex never leaves the path
//! vertices: once it steps off them it reaches only vertices that no flow
//! crosses and that cannot reach the target. So both networks cut the same
//! positive-capacity fact edges, which are those of the batch network too
//! (see `local.rs`). The cut may add zero-capacity tombstones;
//! [`IncrementalLocalState::cut_to_facts`] skips them as facts absent from
//! the database.
//!
//! # Lineage
//!
//! A delta means something only against the database it was taken from.
//! The [`crate::engine::IncrementalSolver`] records where its network
//! stands as a [`crate::engine::LogPosition`]: the identity of a fact log
//! and an offset into it. A solve at `(log, offset)`
//! ([`crate::engine::PreparedQuery::route_incremental`]) takes the caller's
//! log and hands this module the entries from the network's offset to
//! `offset` when the network stands earlier in the same log; a first solve
//! or another log arrives as `None` and rebuilds, and an older snapshot of
//! the same log never reaches this module.
//!
//! Structural (ε / source / target) and exogenous edges are
//! `Capacity::Infinite`, as in the batch path. The flow core gives every
//! `+∞` edge one fixed proxy capacity, which no deletion or insertion moves,
//! so a retained flow stays feasible under any delta, and the resume's value
//! needs no check of its own.

use super::local::ProductShape;
use super::{Algorithm, ResilienceOutcome, SolveScratch};
use crate::engine::SolveMode;
use crate::rpq::{ResilienceValue, Rpq, Semantics};
use rpq_automata::alphabet::Letter;
use rpq_automata::ro_enfa::RoEnfa;
use rpq_flow::{Capacity, CsrFlow, EdgeId, FlowScratch, VertexId};
use rpq_graphdb::delta::FactChange;
use rpq_graphdb::{Fact, FactId, GraphDb, NodeId};
use rpq_obs::Trace;
use std::collections::HashMap;

/// A fact's key in the retained network: `(source block, letter, target
/// block)`.
type Key = (u32, Letter, u32);

/// Block sentinel in `edge_key`: the edge is structural, not a fact edge.
const NO_KEY: u32 = u32::MAX;

/// A `(block, state)` pair that is not a vertex (yet).
const NO_VERTEX: u32 = u32::MAX;

/// `edge_fact` sentinel: no fact id remembered for the edge.
const NO_FACT: FactId = FactId(u32::MAX);

/// The capacity of a deleted fact: its edge stays behind as a tombstone.
const ZERO: Capacity = Capacity::Finite(0);

/// Fall back to the batch path when a delta touches more than
/// `max(live_facts / INCREMENTAL_FALLBACK_DIVISOR, INCREMENTAL_FALLBACK_FLOOR)`
/// entries, `live_facts` being the retained network's facts of positive
/// capacity (the database's facts the automaton reads), or the database's
/// fact count when nothing is retained. Measured by the
/// `resilience_under_updates` bench: on the 512-fact
/// corpus families the patch+warm-start path wins up to ~1/32 of the fact
/// count (4–7× at single facts), breaks even around 1/32–1/16, and loses
/// beyond it — the flow cancellations dominate. 16 keeps every measured win
/// and cedes the crossover region to the pruned batch solve (EXPERIMENTS.md).
/// The re-recorded artifact (2026-10-19) agrees: 4.6–7.7× at one change,
/// 1.8–2.0× at 16 (~1/32), and from 64 changes both arms take the batch
/// path; it has no delta size between 16 and 64, so it does not place the
/// crossover more finely. Those figures predate the pruned retained network.
pub const INCREMENTAL_FALLBACK_DIVISOR: usize = 16;

/// Deltas up to this many entries always take the patch path, however small
/// the database: on tiny networks a rebuild and a patch are both trivial, so
/// keeping the retained state warm wins on the next, larger snapshot.
pub const INCREMENTAL_FALLBACK_FLOOR: usize = 8;

/// Retained state of the incremental local solver: the append-only product
/// arena lives in the owning [`SolveScratch`]'s `csr`; everything keyed by
/// its stable edge ids lives here.
#[derive(Debug, Default)]
pub(crate) struct IncrementalLocalState {
    /// `|Q|` of the automaton the layout was built for (layout invariant).
    num_states: usize,
    /// The automaton's mask analysis; `None` above 64 states, where every
    /// state of a block is used.
    shape: Option<ProductShape>,
    /// Block → node name (the reverse of `nodes`).
    names: Vec<String>,
    /// Node name → block index, append-only across deltas.
    nodes: HashMap<String, u32>,
    /// Per block: the states facts enter it at, over every fact placed
    /// since the last rebuild (grow-only).
    fact_in: Vec<u64>,
    /// Per block: the states facts leave it from (grow-only).
    fact_out: Vec<u64>,
    /// `(block, state)` → product vertex, at `block * num_states + state`;
    /// [`NO_VERTEX`] while the state is unused.
    vertex: Vec<u32>,
    /// Fact key → arena edge, for facts whose endpoints are both vertices
    /// (tombstones included, so re-inserts resurrect the existing edge).
    fact_edges: HashMap<Key, EdgeId>,
    /// Fact key → capacity, for facts with an endpoint that is no vertex
    /// yet (zero once deleted).
    parked: HashMap<Key, Capacity>,
    /// Block → the keys of `parked` with an endpoint there, plus keys
    /// emitted through their other block since (dropped on the next scan).
    parked_at: Vec<Vec<Key>>,
    /// Arena edge → fact key (`NO_KEY` block marks structural edges), for
    /// mapping cut edges back to facts of the *current* database.
    edge_key: Vec<Key>,
    /// Arena edge → the fact id its key last mapped to ([`NO_FACT`] before
    /// the first lookup). A hint only: a delete's swap-remove moves ids, so
    /// [`IncrementalLocalState::cut_to_facts`] trusts it only where the
    /// database's fact at that id has the edge's key.
    edge_fact: Vec<FactId>,
    /// Facts with positive capacity, with an edge or parked.
    live_facts: usize,
    /// Facts with capacity 0: tombstoned edges and deleted parked facts.
    tombstones: usize,
}

/// Verifies the retained incremental flow against the scratch's network:
/// `Ok` when no incremental state is retained, otherwise the full
/// residual-consistency walk of [`CsrFlow::check_flow_consistency`]. Exposed
/// through [`crate::engine::IncrementalSolver::check_consistency`] for churn
/// tests; debug builds run it after every resume.
pub(crate) fn check_consistency(scratch: &SolveScratch) -> Result<(), String> {
    match scratch.incremental {
        Some(_) => scratch.csr.check_flow_consistency(&scratch.flow),
        None => Ok(()),
    }
}

/// The per-fact capacity in the incremental network.
fn fact_cap(semantics: Semantics, multiplicity: u64, exogenous: bool) -> Capacity {
    match (exogenous, semantics) {
        (true, _) => Capacity::Infinite,
        (false, Semantics::Set) => Capacity::Finite(1),
        (false, Semantics::Bag) => Capacity::Finite(multiplicity.into()),
    }
}

/// The transition a staged fact's letter takes.
fn transition(ro: &RoEnfa, letter: Letter) -> (usize, usize) {
    // lint: allow(panic-freedom, facts are only staged for letters the automaton reads)
    ro.letter_transition(letter).expect("fact label has a transition")
}

impl IncrementalLocalState {
    /// The product vertex of `(block, state)`, if the state is used.
    fn product(&self, block: u32, state: usize) -> Option<VertexId> {
        match self.vertex[block as usize * self.num_states + state] {
            NO_VERTEX => None,
            v => Some(VertexId(v)),
        }
    }

    /// The endpoints of fact `key`'s edge, once both are vertices.
    fn ends(&self, key: Key, (s, s_prime): (usize, usize)) -> Option<(VertexId, VertexId)> {
        Some((self.product(key.0, s)?, self.product(key.2, s_prime)?))
    }

    /// Interns a node name to its stable block index. A new block has empty
    /// masks and no vertices; [`IncrementalLocalState::grow`] adds them.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&b) = self.nodes.get(name) {
            return b;
        }
        let b = self.names.len() as u32;
        self.nodes.insert(name.to_string(), b);
        self.names.push(name.to_string());
        self.fact_in.push(0);
        self.fact_out.push(0);
        self.vertex.resize(self.vertex.len() + self.num_states, NO_VERTEX);
        self.parked_at.push(Vec::new());
        b
    }

    /// Gives block `b` a vertex for every state its masks now use, with the
    /// ε / source / target edges at those vertices, then emits the parked
    /// facts they complete.
    fn grow(&mut self, csr: &mut CsrFlow, ro: &RoEnfa, b: u32) {
        let bi = b as usize;
        let used = self.shape.as_ref().map(|shape| shape.used(self.fact_in[bi], self.fact_out[bi]));
        let first = csr.num_vertices() as u32;
        let slots = &mut self.vertex[bi * self.num_states..(bi + 1) * self.num_states];
        for (s, slot) in slots.iter_mut().enumerate() {
            if *slot == NO_VERTEX && used.is_none_or(|m| m >> s & 1 == 1) {
                *slot = csr.add_vertex().0;
            }
        }
        if csr.num_vertices() as u32 == first {
            return;
        }
        let fresh = |v: VertexId| v.0 >= first;
        for (s, s_prime) in ro.epsilon_transitions() {
            if let (Some(u), Some(v)) = (self.product(b, s), self.product(b, s_prime)) {
                if fresh(u) || fresh(v) {
                    self.push_structural(csr, u, v);
                }
            }
        }
        for s in ro.initial_states() {
            if let Some(v) = self.product(b, s).filter(|&v| fresh(v)) {
                self.push_structural(csr, VertexId(0), v);
            }
        }
        for s in ro.final_states() {
            if let Some(v) = self.product(b, s).filter(|&v| fresh(v)) {
                self.push_structural(csr, v, VertexId(1));
            }
        }
        // A parked fact deleted since comes back as a tombstone edge.
        let mut waiting = std::mem::take(&mut self.parked_at[bi]);
        let mut complete = Vec::new();
        waiting.retain(|&key| {
            if !self.parked.contains_key(&key) {
                return false; // emitted through its other block
            }
            match self.ends(key, transition(ro, key.1)) {
                Some(ends) => complete.push((key, ends)),
                None => return true,
            }
            false
        });
        self.parked_at[bi] = waiting;
        for (key, (u, v)) in complete {
            if let Some(cap) = self.parked.remove(&key) {
                self.push_fact(csr, key, u, v, cap);
            }
        }
    }

    fn push_structural(&mut self, csr: &mut CsrFlow, from: VertexId, to: VertexId) {
        let e = csr.add_edge(from, to, Capacity::Infinite);
        debug_assert_eq!(e.index(), self.edge_key.len());
        self.edge_key.push((NO_KEY, Letter('\0'), NO_KEY));
        self.edge_fact.push(NO_FACT);
    }

    /// Appends the edge of fact `key` from `u` to `v`.
    fn push_fact(&mut self, csr: &mut CsrFlow, key: Key, u: VertexId, v: VertexId, cap: Capacity) {
        let e = csr.add_edge(u, v, cap);
        debug_assert_eq!(e.index(), self.edge_key.len());
        self.edge_key.push(key);
        self.edge_fact.push(NO_FACT);
        self.fact_edges.insert(key, e);
    }

    /// Gives a fact new to the network (capacity > 0) its edge, or parks it
    /// while an endpoint is no vertex.
    fn place(&mut self, csr: &mut CsrFlow, key: Key, transition: (usize, usize), cap: Capacity) {
        self.live_facts += 1;
        match self.ends(key, transition) {
            Some((u, v)) => self.push_fact(csr, key, u, v, cap),
            None => {
                self.parked.insert(key, cap);
                self.parked_at[key.0 as usize].push(key);
                if key.2 != key.0 {
                    self.parked_at[key.2 as usize].push(key);
                }
            }
        }
    }

    /// Records that a fact leaves `key.0` at `s` and enters `key.2` at `s'`.
    fn widen(&mut self, key: Key, (s, s_prime): (usize, usize)) {
        if self.shape.is_some() {
            self.fact_out[key.0 as usize] |= 1 << s;
            self.fact_in[key.2 as usize] |= 1 << s_prime;
        }
    }

    /// Moves a fact's count between live and tombstoned as its capacity
    /// changes from `old` to `new` (which differ).
    fn recount(&mut self, old: Capacity, new: Capacity) {
        if old == ZERO {
            self.tombstones -= 1;
            self.live_facts += 1;
        } else if new == ZERO {
            self.tombstones += 1;
            self.live_facts -= 1;
        }
    }

    /// Rebuilds the whole network from `db` (first solve, arena bloat,
    /// lineage mismatches): masks from every fact first, then each block's
    /// vertices and structural edges, then the fact edges. Keeps
    /// allocations where possible.
    fn build(&mut self, csr: &mut CsrFlow, ro: &RoEnfa, semantics: Semantics, db: &GraphDb) {
        self.num_states = ro.num_states();
        self.shape = (self.num_states <= 64).then(|| ProductShape::new(ro));
        self.names.clear();
        self.nodes.clear();
        self.fact_in.clear();
        self.fact_out.clear();
        self.vertex.clear();
        self.fact_edges.clear();
        self.parked.clear();
        self.parked_at.clear();
        self.edge_key.clear();
        self.edge_fact.clear();
        self.live_facts = 0;
        self.tombstones = 0;
        csr.clear();
        let source = csr.add_vertex();
        let target = csr.add_vertex();
        csr.set_source(source);
        csr.set_target(target);
        // Names are unique, so node `n` becomes block `n`.
        for node in db.nodes() {
            let b = self.intern(db.node_name(node));
            debug_assert_eq!(b, node.0);
        }
        let key_of = |fact: Fact| (fact.source.0, fact.label, fact.target.0);
        for (_, fact) in db.facts() {
            if let Some(t) = ro.letter_transition(fact.label) {
                self.widen(key_of(fact), t);
            }
        }
        for b in 0..self.names.len() as u32 {
            self.grow(csr, ro, b);
        }
        for (fact_id, fact) in db.facts() {
            if let Some(t) = ro.letter_transition(fact.label) {
                let cap = fact_cap(semantics, db.multiplicity(fact_id), db.is_exogenous(fact_id));
                self.place(csr, key_of(fact), t, cap);
            }
        }
    }

    /// Applies a fact delta to the retained network: cancellations first (on
    /// the still-frozen adjacency), then capacity updates and insertions.
    /// Returns `false` when flow cancellation fails (bookkeeping no longer
    /// trustworthy) — the caller rebuilds.
    fn apply(
        &mut self,
        csr: &mut CsrFlow,
        flow_scratch: &mut FlowScratch,
        ro: &RoEnfa,
        semantics: Semantics,
        delta: &[FactChange],
    ) -> bool {
        // Net effect per key, in first-touch order (last write wins).
        let mut net: Vec<(Key, Capacity)> = Vec::with_capacity(delta.len());
        let mut index: HashMap<Key, usize> = HashMap::with_capacity(delta.len());
        for change in delta {
            match change {
                FactChange::Put { source, label, target, multiplicity, exogenous } => {
                    if ro.letter_transition(*label).is_none() {
                        continue; // the fact can never match: no edge needed
                    }
                    let u = self.intern(source);
                    let v = self.intern(target);
                    let key = (u, *label, v);
                    let cap = fact_cap(semantics, *multiplicity, *exogenous);
                    match index.get(&key) {
                        Some(&i) => net[i].1 = cap,
                        None => {
                            index.insert(key, net.len());
                            net.push((key, cap));
                        }
                    }
                }
                FactChange::Delete { source, label, target } => {
                    if ro.letter_transition(*label).is_none() {
                        continue;
                    }
                    // Unknown node names mean the fact cannot exist: no-op
                    // (and no block is interned for it).
                    let (Some(&u), Some(&v)) = (self.nodes.get(source), self.nodes.get(target))
                    else {
                        continue;
                    };
                    let key = (u, *label, v);
                    match index.get(&key) {
                        Some(&i) => net[i].1 = ZERO,
                        None => {
                            index.insert(key, net.len());
                            net.push((key, ZERO));
                        }
                    }
                }
            }
        }

        // Stage 1: cancel flow beyond each shrinking capacity while the
        // previous freeze's adjacency is still intact.
        for &(key, new_cap) in &net {
            if let (Some(&e), Capacity::Finite(keep)) = (self.fact_edges.get(&key), new_cap) {
                if !csr.cancel_flow(e, keep, flow_scratch) {
                    return false;
                }
            }
        }

        // Stage 2: capacity updates on known facts; collect true inserts.
        let mut inserts: Vec<(Key, Capacity)> = Vec::new();
        for &(key, new_cap) in &net {
            let old_cap = if let Some(&e) = self.fact_edges.get(&key) {
                let old_cap = csr.edge_capacity(e);
                if old_cap != new_cap {
                    // Keeps the network frozen whenever the edge still has
                    // residual arcs — delete/re-insert rings then skip the
                    // per-solve re-lay entirely.
                    csr.patch_edge_capacity(e, new_cap, flow_scratch);
                }
                old_cap
            } else if let Some(cap) = self.parked.get_mut(&key) {
                std::mem::replace(cap, new_cap)
            } else {
                if new_cap != ZERO {
                    inserts.push((key, new_cap));
                }
                continue; // a new fact, or a delete of an absent one
            };
            if old_cap != new_cap {
                self.recount(old_cap, new_cap);
            }
        }

        // Stage 3: new facts widen their blocks' masks, which may add
        // vertices, structural edges and completed parked facts; then each
        // gets its edge or is parked.
        for (key, cap) in inserts {
            let t = transition(ro, key.1);
            self.widen(key, t);
            self.grow(csr, ro, key.0);
            if key.2 != key.0 {
                self.grow(csr, ro, key.2);
            }
            self.place(csr, key, t, cap);
        }
        true
    }

    /// Maps the cut of the incremental network back to facts of `db`.
    /// Tombstoned edges crossing the cut cost nothing and are absent from
    /// `db`, so they are skipped; the remaining facts form an optimal
    /// contingency set. Each edge first tries the fact id it mapped to last
    /// time, which holds unless a delete moved it, and looks the fact up by
    /// its key only when the id's fact is not the edge's.
    fn cut_to_facts(&mut self, cut_edges: &[EdgeId], db: &GraphDb) -> Vec<FactId> {
        // Along one log the store's fold never renumbers a node, so block
        // `b` is usually node `b`: one byte comparison checks it. A put
        // whose letter the automaton does not read makes a node but no
        // block, so a mismatch falls back to hashing the name.
        let node = |block: u32| {
            let name = &self.names[block as usize];
            let guess = NodeId(block);
            if (block as usize) < db.num_nodes() && db.node_name(guess) == name {
                Some(guess)
            } else {
                db.find_node(name)
            }
        };
        let mut facts = Vec::with_capacity(cut_edges.len());
        for &e in cut_edges {
            let (ub, letter, vb) = self.edge_key[e.index()];
            if ub == NO_KEY {
                continue;
            }
            let (Some(source), Some(target)) = (node(ub), node(vb)) else {
                continue;
            };
            let fact = Fact { source, label: letter, target };
            let memo = &mut self.edge_fact[e.index()];
            if memo.index() < db.num_facts() && db.fact(*memo) == fact {
                facts.push(*memo);
            } else if let Some(f) = db.find_fact(source, letter, target) {
                *memo = f;
                facts.push(f);
            }
        }
        facts
    }
}

/// The incremental counterpart of [`super::local::solve_prepared`]: solve
/// `db` (the materialization of the *current* snapshot), patching the
/// retained network with `delta` (the log entries since the network's
/// position, which the solver took from the log; see *Lineage*) when one is
/// available and small enough, rebuilding otherwise. Returns the outcome
/// and whether the patch path ran.
pub(crate) fn solve_incremental_local(
    ro: &RoEnfa,
    rpq: &Rpq,
    db: &GraphDb,
    delta: Option<&[FactChange]>,
    want_cut: bool,
    scratch: &mut SolveScratch,
    trace: &mut Trace,
) -> (ResilienceOutcome, SolveMode) {
    let semantics = rpq.semantics();
    let facts = scratch.incremental.as_ref().map_or(db.num_facts(), |state| state.live_facts);
    let limit = (facts / INCREMENTAL_FALLBACK_DIVISOR).max(INCREMENTAL_FALLBACK_FLOOR);

    let mut mode = SolveMode::Full;
    {
        let patch_timer = trace.begin();
        let SolveScratch { csr, flow: flow_scratch, incremental, .. } = &mut *scratch;
        // A retained state means the scratch holds its network's flow.
        let patched = match (delta, incremental.as_deref_mut()) {
            (Some(delta), Some(state))
                if state.num_states == ro.num_states()
                    && state.tombstones <= state.live_facts.max(16)
                    && delta.len() <= limit =>
            {
                state.apply(csr, flow_scratch, ro, semantics, delta)
            }
            _ => false,
        };
        if patched {
            mode = SolveMode::Incremental;
            trace.end(patch_timer, "patch_apply");
        } else if delta.is_some_and(|d| d.len() > limit) {
            // Oversized delta: the batch path's contracted build-and-solve
            // is measurably faster than rebuilding the retained network
            // (see the `resilience_under_updates` bench), so cede this
            // solve to it and drop the retained state — the next small
            // delta bootstraps a fresh retained network instead.
            *incremental = None;
            return (
                super::local::solve_prepared(ro, rpq, db, want_cut, scratch, trace),
                SolveMode::Full,
            );
        } else {
            incremental.get_or_insert_with(Default::default).build(csr, ro, semantics, db);
            trace.end(patch_timer, "rebuild");
        }
    }

    let SolveScratch { csr, flow: flow_scratch, incremental, .. } = scratch;
    // lint: allow(panic-freedom, the branch above just built or patched the state)
    let state = incremental.as_mut().expect("state was just built or patched");
    if mode == SolveMode::Full {
        let freeze_timer = trace.begin();
        csr.freeze();
        trace.end(freeze_timer, "csr_freeze");
    }
    let resume_timer = trace.begin();
    // A patched network continues the flow the scratch retained; the resume
    // re-lays it first when the delta appended vertices or edges.
    let value = ResilienceValue::from(match mode {
        SolveMode::Incremental => csr.max_flow_resume(flow_scratch),
        SolveMode::Full => csr.max_flow(flow_scratch),
    });
    let cut = (want_cut && !value.is_infinite()).then(|| csr.extract_cut(flow_scratch));
    trace.end(resume_timer, "flow_resume");
    let witness_timer = trace.begin();
    let facts = cut.map(|cut| state.cut_to_facts(cut.cut_edges, db));
    trace.end(witness_timer, "witness_extract");
    debug_assert!(
        value.is_infinite()
            || facts.is_none()
            // lint: allow(panic-freedom, debug-only assertion guarded by the is_none disjunct)
            || rpq.is_contingency_set(db, &facts.as_ref().unwrap().iter().copied().collect()),
        "the incremental cut must map to a contingency set"
    );
    (ResilienceOutcome::new(value, Algorithm::Local, facts), mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, IncrementalSolver, LogPosition, SolveCall};
    use rpq_automata::Alphabet;
    use rpq_graphdb::delta::{changes_from_db, materialize, parse_patch};
    use rpq_graphdb::generate::{flow_instance, layered_instance};
    use std::collections::BTreeSet;

    /// The retained network's vertex and edge counts on `db`, counted from
    /// the definition rather than through `ProductShape`: a state of a node
    /// is used when it is ε-reachable from an initial state or one a fact
    /// enters the node at, and ε-co-reaches a final state or one a fact
    /// leaves it from. Source and target are two more vertices; each used
    /// state has its ε-edges to used states and its source / target edge,
    /// and each fact whose two states are used has an edge.
    fn mask_formula(ro: &RoEnfa, db: &GraphDb) -> (usize, usize) {
        let eps: Vec<(usize, usize)> = ro.epsilon_transitions().collect();
        let closure = |seed: BTreeSet<usize>, forward: bool| {
            let mut set = seed;
            loop {
                let before = set.len();
                for &(s, t) in &eps {
                    let (from, to) = if forward { (s, t) } else { (t, s) };
                    if set.contains(&from) {
                        set.insert(to);
                    }
                }
                if set.len() == before {
                    return set;
                }
            }
        };
        let mut used = Vec::new();
        for node in db.nodes() {
            let mut enter: BTreeSet<usize> = ro.initial_states().collect();
            let mut leave: BTreeSet<usize> = ro.final_states().collect();
            for (_, fact) in db.facts() {
                if let Some((s, t)) = ro.letter_transition(fact.label) {
                    if fact.target == node {
                        enter.insert(t);
                    }
                    if fact.source == node {
                        leave.insert(s);
                    }
                }
            }
            let reach = closure(enter, true);
            let co_reach = closure(leave, false);
            used.push(reach.intersection(&co_reach).copied().collect::<BTreeSet<usize>>());
        }
        let vertices = 2 + used.iter().map(BTreeSet::len).sum::<usize>();
        let mut edges = 0;
        for states in &used {
            edges += eps.iter().filter(|(s, t)| states.contains(s) && states.contains(t)).count();
            edges += ro.initial_states().filter(|s| states.contains(s)).count();
            edges += ro.final_states().filter(|s| states.contains(s)).count();
        }
        for (_, fact) in db.facts() {
            if let Some((s, t)) = ro.letter_transition(fact.label) {
                let (u, v) = (fact.source.0 as usize, fact.target.0 as usize);
                edges += usize::from(used[u].contains(&s) && used[v].contains(&t));
            }
        }
        (vertices, edges)
    }

    #[test]
    fn retained_network_sizes_follow_the_mask_formula() {
        let dbs = [
            ("ax*b", flow_instance(8, 128, 2, 16, 0x300)),
            ("ab|ad|cd", layered_instance(&Alphabet::from_chars("abcd"), 6, 205, 2, 0x301)),
        ];
        for (pattern, db) in dbs {
            assert!(db.num_facts() >= 1_900, "{pattern}: {} facts", db.num_facts());
            let prepared = Engine::new().prepare(&Rpq::parse(pattern).unwrap()).unwrap();
            let rpq = prepared.rpq();
            let ro = RoEnfa::for_local_language(&rpq.infix_free_language()).unwrap();
            let mut scratch = SolveScratch::new();
            let (outcome, mode) = solve_incremental_local(
                &ro,
                rpq,
                &db,
                None,
                true,
                &mut scratch,
                &mut Trace::disabled(),
            );
            assert_eq!(mode, SolveMode::Full);
            let size = (scratch.csr.num_vertices(), scratch.csr.num_edges());
            assert_eq!(size, mask_formula(&ro, &db), "{pattern}");
            // Far below the unpruned |V|·|Q| product.
            assert!(size.0 * 2 < 2 + db.num_nodes() * ro.num_states(), "{pattern}: {size:?}");
            let fresh = prepared.solve(&db).unwrap();
            assert_eq!(outcome.value, fresh.value, "{pattern}");
            let sorted =
                |cut: Option<Vec<FactId>>| cut.map(|c| c.into_iter().collect::<BTreeSet<_>>());
            assert_eq!(sorted(outcome.contingency_set), sorted(fresh.contingency_set), "{pattern}");
        }
    }

    #[test]
    fn an_insert_that_widens_a_mask_brings_back_a_parked_fact() {
        // Two facts are parked at build time: `s a u`, since no fact leaves
        // `u` and its `a`-target state is not exitable, and `v x w`, since no
        // fact enters `v` and its `x`-source state is not enterable.
        // Inserting `u x v` widens both masks and brings both back.
        let prepared = Engine::new().prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
        let mut solver = IncrementalSolver::new();
        let mut log = parse_patch("+ s a u\n+ v x w\n+ w b t\n").unwrap();
        let call = SolveCall::new(true);
        let solve = |solver: &mut IncrementalSolver, log: &[FactChange]| {
            let db = materialize(log);
            let at = LogPosition { log: 7, offset: log.len() };
            let (routed, mode) = prepared
                .route_incremental(solver, at, &db, log, &call, &mut Trace::disabled())
                .unwrap();
            (routed.outcome, mode, db)
        };
        let (outcome, mode, _) = solve(&mut solver, &log);
        assert_eq!((outcome.value, mode), (ResilienceValue::Finite(0), SolveMode::Full));
        let parked = |solver: &IncrementalSolver| {
            solver.scratch.incremental.as_ref().map(|state| state.parked.len())
        };
        assert_eq!(parked(&solver), Some(2));

        log.extend(parse_patch("+ u x v").unwrap());
        let (outcome, mode, db) = solve(&mut solver, &log);
        assert_eq!(mode, SolveMode::Incremental);
        assert_eq!(parked(&solver), Some(0));
        let fresh = prepared.solve(&db).unwrap();
        assert_eq!(outcome.value, ResilienceValue::Finite(1));
        assert_eq!(outcome.value, fresh.value);
        assert_eq!(outcome.contingency_set, fresh.contingency_set);
        let s_a_u =
            db.find_fact(db.find_node("s").unwrap(), Letter('a'), db.find_node("u").unwrap());
        assert_eq!(outcome.contingency_set, Some(vec![s_a_u.unwrap()]));
    }

    /// The sorted fact ids of a contingency set.
    fn sorted(cut: Option<Vec<FactId>>) -> Option<BTreeSet<FactId>> {
        cut.map(|c| c.into_iter().collect())
    }

    #[test]
    fn toggling_a_cut_fact_repairs_the_retained_source_side() {
        // A hosted head: the first cut fact of a ~2k-fact `ax*b` database is
        // deleted and re-inserted in turn, each delta patched in place and
        // resumed. The cold build's extraction and the first one after it
        // search the residual graph; the forest repair answers the rest.
        let db = flow_instance(8, 128, 2, 16, 0x300);
        let prepared = Engine::new().prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
        let fresh = prepared.solve(&db).unwrap();
        let fact = db.fact(*fresh.contingency_set.unwrap().iter().min().unwrap());
        let (source, target) = (db.node_name(fact.source), db.node_name(fact.target));
        let delete = format!("- {source} {} {target}", fact.label);
        let insert = format!("+ {source} {} {target}", fact.label);
        let mut log = changes_from_db(&db);
        let mut solver = IncrementalSolver::new();
        let call = SolveCall::new(true);
        let at = |log: &[FactChange]| LogPosition { log: 0, offset: log.len() };
        prepared
            .route_incremental(&mut solver, at(&log), &db, &log, &call, &mut Trace::disabled())
            .unwrap();
        for round in 0..40 {
            log.extend(parse_patch(if round % 2 == 0 { &delete } else { &insert }).unwrap());
            let db = materialize(&log);
            let (routed, mode) = prepared
                .route_incremental(&mut solver, at(&log), &db, &log, &call, &mut Trace::disabled())
                .unwrap();
            assert_eq!(mode, SolveMode::Incremental, "round {round}");
            let fresh = prepared.solve(&db).unwrap();
            assert_eq!(routed.outcome.value, fresh.value, "round {round}");
            assert_eq!(sorted(routed.outcome.contingency_set), sorted(fresh.contingency_set));
        }
        let counts = solver.cut_counts();
        assert_eq!(counts.repaired + counts.searched, 41);
        assert!(counts.repaired * 10 >= 9 * 41, "{counts:?}");
    }

    #[test]
    fn a_delete_that_moves_a_remembered_fact_id_maps_the_cut_right() {
        // The cut is {s a u0, s a u1}, and `s a u1` is the last fact (id 4).
        // One delta deletes the non-cut `x a y` (id 2), so the swap-remove
        // moves `s a u1` to id 2, and inserts `v a w`, which takes id 4: the
        // id remembered for `s a u1`'s edge now names another fact.
        let prepared = Engine::new().prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
        let mut solver = IncrementalSolver::new();
        let call = SolveCall::new(true);
        let mut log = parse_patch("+ u0 b t\n+ u1 b t\n+ x a y\n+ s a u0\n+ s a u1\n").unwrap();
        let solve = |solver: &mut IncrementalSolver, log: &[FactChange]| {
            let db = materialize(log);
            let at = LogPosition { log: 0, offset: log.len() };
            let (routed, _) = prepared
                .route_incremental(solver, at, &db, log, &call, &mut Trace::disabled())
                .unwrap();
            let fresh = prepared.solve(&db).unwrap();
            assert_eq!(routed.outcome.value, fresh.value);
            assert_eq!(
                sorted(routed.outcome.contingency_set.clone()),
                sorted(fresh.contingency_set)
            );
            (routed.outcome.contingency_set.unwrap(), db)
        };
        let (cut, db) = solve(&mut solver, &log);
        let last = FactId(4);
        let s_a_u1 = db.fact(last);
        assert_eq!(db.node_name(s_a_u1.target), "u1");
        assert!(cut.contains(&last));
        let remembered = &solver.scratch.incremental.as_ref().unwrap().edge_fact;
        assert!(remembered.contains(&last));

        log.extend(parse_patch("- x a y\n+ v a w").unwrap());
        let (cut, db) = solve(&mut solver, &log);
        assert_eq!(db.fact(FactId(2)), s_a_u1);
        assert_eq!(db.node_name(db.fact(last).source), "v");
        let names = |f: FactId| (db.node_name(db.fact(f).source), db.node_name(db.fact(f).target));
        let cut: BTreeSet<_> = cut.into_iter().map(names).collect();
        assert_eq!(cut, BTreeSet::from([("s", "u0"), ("s", "u1")]));
    }

    #[test]
    fn automata_above_64_states_keep_every_state_and_stay_incremental() {
        let pattern = "aA|bB|cC|dD|eE|fF|gG|hH|iI|jJ|kK|lL|mM|nN|oO|pP";
        let prepared = Engine::new().prepare(&Rpq::parse(pattern).unwrap()).unwrap();
        let mut solver = IncrementalSolver::new();
        let call = SolveCall::new(true);
        let mut log = parse_patch("+ s a u\n+ u A t\n+ s b v\n").unwrap();
        let db = materialize(&log);
        let at = |log: &[FactChange]| LogPosition { log: 0, offset: log.len() };
        prepared
            .route_incremental(&mut solver, at(&log), &db, &log, &call, &mut Trace::disabled())
            .unwrap();
        let size = |solver: &IncrementalSolver| solver.scratch.csr.num_vertices();
        let states = solver.scratch.incremental.as_ref().unwrap().num_states;
        assert!(states > 64, "{states} states");
        assert_eq!(size(&solver), 2 + db.num_nodes() * states);
        for patch in ["+ v B t", "- u A t", "+ w c x", "+ x C t"] {
            log.extend(parse_patch(patch).unwrap());
            let db = materialize(&log);
            let (routed, mode) = prepared
                .route_incremental(&mut solver, at(&log), &db, &log, &call, &mut Trace::disabled())
                .unwrap();
            assert_eq!(mode, SolveMode::Incremental, "{patch}");
            let fresh = prepared.solve(&db).unwrap();
            assert_eq!(routed.outcome.value, fresh.value, "{patch}");
            let sorted =
                |cut: Option<Vec<FactId>>| cut.map(|c| c.into_iter().collect::<BTreeSet<_>>());
            assert_eq!(sorted(routed.outcome.contingency_set), sorted(fresh.contingency_set));
        }
        // Every block ever seen has all its states: `w` and `x` came in.
        assert_eq!(size(&solver), 2 + 6 * states);
    }
}
