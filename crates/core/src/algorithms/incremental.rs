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
//! * **insert** — a new arc appended to the CSR arena (plus fresh state
//!   blocks and structural arcs when the delta introduces new nodes);
//! * **delete** — the arc's capacity zeroed, with the flow it carried
//!   cancelled along residual paths ([`rpq_flow::CsrFlow::cancel_flow`])
//!   so the retained assignment stays feasible;
//! * **solve** — a [`rpq_flow::CsrFlow::max_flow_resume`] that only augments
//!   the *difference* to the new maximum instead of the whole flow. A
//!   capacity patch rewrites the frozen arc and its residual in place
//!   ([`rpq_flow::CsrFlow::patch_edge_capacity`]), so a delta that only
//!   patched capacities costs `O(|delta|)` before Dinic starts; only deltas
//!   that append blocks or fresh edges make the resume pay the `O(V+E)`
//!   re-lay that carries the flow into the new arcs.
//!
//! # Stable layout, stable identity
//!
//! [`crate::algorithms::local`]'s per-solve build prunes and compacts the
//! product per database — vertex ids change whenever the database does, which
//! is exactly what a retained flow cannot survive. The incremental build
//! therefore uses the **unpruned** layout with identities the delta language
//! can address: node *names* are interned to stable block indices (the
//! store's materializations renumber `NodeId`s freely), the product vertex of
//! `(block b, state s)` is `2 + b·|Q| + s` (source = 0, target = 1), and a
//! fact edge is keyed by `(block, letter, block)`. Deleted fact edges stay in
//! the arena as zero-capacity tombstones (freeze drops them from the
//! adjacency); re-inserting the same fact resurrects its edge.
//!
//! Structural (ε / source / target) and exogenous edges are
//! `Capacity::Infinite`, as in the batch path. The flow core gives every
//! `+∞` edge one fixed proxy capacity, which no deletion or insertion moves,
//! so a retained flow stays feasible under any delta, and the resume's value
//! needs no check of its own.

use super::{Algorithm, ResilienceOutcome, SolveScratch};
use crate::engine::SolveMode;
use crate::rpq::{ResilienceValue, Rpq, Semantics};
use rpq_automata::alphabet::Letter;
use rpq_automata::ro_enfa::RoEnfa;
use rpq_flow::{Capacity, CsrFlow, EdgeId, FlowScratch, VertexId};
use rpq_graphdb::delta::FactChange;
use rpq_graphdb::{FactId, GraphDb};
use rpq_obs::Trace;
use std::collections::HashMap;

/// Block sentinel in `edge_key`: the edge is structural, not a fact edge.
const NO_KEY: u32 = u32::MAX;

/// The capacity of a deleted fact: its edge stays behind as a tombstone.
const ZERO: Capacity = Capacity::Finite(0);

/// Fall back to the batch path when a delta touches more than
/// `max(live_facts / INCREMENTAL_FALLBACK_DIVISOR, INCREMENTAL_FALLBACK_FLOOR)`
/// entries. Measured by the `resilience_under_updates` bench: on the 512-fact
/// corpus families the patch+warm-start path wins up to ~1/32 of the fact
/// count (4–7× at single facts), breaks even around 1/32–1/16, and loses
/// beyond it — the flow cancellations dominate. 16 keeps every measured win
/// and cedes the crossover region to the pruned batch solve (EXPERIMENTS.md).
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
    /// Block → node name (the reverse of `nodes`).
    names: Vec<String>,
    /// Node name → block index, append-only across deltas.
    nodes: HashMap<String, u32>,
    /// `(source block, letter, target block)` → arena edge (tombstones
    /// included, so re-inserts resurrect the existing edge).
    fact_edges: HashMap<(u32, Letter, u32), EdgeId>,
    /// Arena edge → fact key (`NO_KEY` block marks structural edges), for
    /// mapping cut edges back to facts of the *current* database.
    edge_key: Vec<(u32, Letter, u32)>,
    /// Fact edges with positive capacity.
    live_facts: usize,
    /// Fact edges currently tombstoned (capacity 0, still in the arena).
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

impl IncrementalLocalState {
    /// The product vertex of `(block, state)`.
    fn product(&self, block: u32, state: usize) -> VertexId {
        VertexId(2 + block * self.num_states as u32 + state as u32)
    }

    /// Interns a node name to its stable block index (no arena mutation; new
    /// blocks get their vertices and structural edges from
    /// [`IncrementalLocalState::emit_block`] once cancellations are done).
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&b) = self.nodes.get(name) {
            return b;
        }
        let b = self.names.len() as u32;
        self.nodes.insert(name.to_string(), b);
        self.names.push(name.to_string());
        b
    }

    /// Adds block `b`'s product vertices and structural (ε / source / target)
    /// edges to the arena.
    fn emit_block(&mut self, csr: &mut CsrFlow, ro: &RoEnfa, b: u32) {
        let first = csr.add_vertices(self.num_states);
        debug_assert_eq!(first, self.product(b, 0));
        for (s, s_prime) in ro.epsilon_transitions() {
            self.push_structural(csr, self.product(b, s), self.product(b, s_prime));
        }
        for s in ro.initial_states() {
            self.push_structural(csr, VertexId(0), self.product(b, s));
        }
        for s in ro.final_states() {
            self.push_structural(csr, self.product(b, s), VertexId(1));
        }
    }

    fn push_structural(&mut self, csr: &mut CsrFlow, from: VertexId, to: VertexId) {
        let e = csr.add_edge(from, to, Capacity::Infinite);
        debug_assert_eq!(e.index(), self.edge_key.len());
        self.edge_key.push((NO_KEY, Letter('\0'), NO_KEY));
    }

    /// Appends a fresh fact edge (capacity > 0) for `key`.
    fn push_fact(
        &mut self,
        csr: &mut CsrFlow,
        ro: &RoEnfa,
        key: (u32, Letter, u32),
        cap: Capacity,
    ) {
        // lint: allow(panic-freedom, facts are only staged for letters the automaton reads)
        let (s, s_prime) = ro.letter_transition(key.1).expect("fact label has a transition");
        let e = csr.add_edge(self.product(key.0, s), self.product(key.2, s_prime), cap);
        debug_assert_eq!(e.index(), self.edge_key.len());
        self.edge_key.push(key);
        self.fact_edges.insert(key, e);
        self.live_facts += 1;
    }

    /// Rebuilds the whole network from `db` (first solve, oversized deltas,
    /// arena bloat, lineage mismatches). Keeps allocations where possible.
    fn build(&mut self, csr: &mut CsrFlow, ro: &RoEnfa, semantics: Semantics, db: &GraphDb) {
        self.num_states = ro.num_states();
        self.names.clear();
        self.nodes.clear();
        self.fact_edges.clear();
        self.edge_key.clear();
        self.live_facts = 0;
        self.tombstones = 0;
        csr.clear();
        let source = csr.add_vertex();
        let target = csr.add_vertex();
        csr.set_source(source);
        csr.set_target(target);
        for node in db.nodes() {
            let b = self.intern(db.node_name(node));
            self.emit_block(csr, ro, b);
        }
        for (fact_id, fact) in db.facts() {
            if ro.letter_transition(fact.label).is_none() {
                continue;
            }
            let u = self.nodes[db.node_name(fact.source)];
            let v = self.nodes[db.node_name(fact.target)];
            let cap = fact_cap(semantics, db.multiplicity(fact_id), db.is_exogenous(fact_id));
            self.push_fact(csr, ro, (u, fact.label, v), cap);
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
        let first_new_block = self.names.len();
        let mut net: Vec<((u32, Letter, u32), Capacity)> = Vec::with_capacity(delta.len());
        let mut index: HashMap<(u32, Letter, u32), usize> = HashMap::with_capacity(delta.len());
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

        // Stage 2: capacity updates on existing edges; collect true inserts.
        let mut inserts: Vec<((u32, Letter, u32), Capacity)> = Vec::new();
        for &(key, new_cap) in &net {
            match self.fact_edges.get(&key) {
                Some(&e) => {
                    let old_cap = csr.edge_capacity(e);
                    if old_cap == new_cap {
                        continue;
                    }
                    // Keeps the network frozen whenever the edge still has
                    // residual arcs — delete/re-insert rings then skip the
                    // per-solve re-lay entirely.
                    csr.patch_edge_capacity(e, new_cap, flow_scratch);
                    if old_cap == ZERO {
                        self.tombstones -= 1;
                        self.live_facts += 1;
                    } else if new_cap == ZERO {
                        self.tombstones += 1;
                        self.live_facts -= 1;
                    }
                }
                None if new_cap != ZERO => inserts.push((key, new_cap)),
                None => {} // delete of an absent fact
            }
        }

        // Stage 3: vertices + structural edges for blocks the delta
        // introduced, then the new fact edges.
        for b in first_new_block..self.names.len() {
            self.emit_block(csr, ro, b as u32);
        }
        for (key, cap) in inserts {
            self.push_fact(csr, ro, key, cap);
        }
        true
    }

    /// Maps the cut of the incremental network back to facts of `db`.
    /// Tombstoned edges crossing the cut cost nothing and are absent from
    /// `db`, so they are skipped; the remaining facts form an optimal
    /// contingency set.
    fn cut_to_facts(&self, cut_edges: &[EdgeId], db: &GraphDb) -> Vec<FactId> {
        let mut facts = Vec::with_capacity(cut_edges.len());
        for &e in cut_edges {
            let (ub, letter, vb) = self.edge_key[e.index()];
            if ub == NO_KEY {
                continue;
            }
            let (Some(u), Some(v)) =
                (db.find_node(&self.names[ub as usize]), db.find_node(&self.names[vb as usize]))
            else {
                continue;
            };
            if let Some(f) = db.find_fact(u, letter, v) {
                facts.push(f);
            }
        }
        facts
    }
}

/// The incremental counterpart of [`super::local::solve_prepared`]: solve
/// `db` (the materialization of the *current* snapshot), patching the
/// retained network with `delta` (the changes since the previous solved
/// snapshot) when one is available and small enough, rebuilding otherwise.
/// Returns the outcome and whether the patch path ran.
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

    // The number of fact edges the patched network must end up with: a
    // cheap guard that catches some deltas from another database's log, not
    // all (the delta contract is the caller's, see `IncrementalSolver`).
    let expected_live = db.facts().filter(|(_, f)| ro.letter_transition(f.label).is_some()).count();

    let mut mode = SolveMode::Full;
    {
        let patch_timer = trace.begin();
        let SolveScratch { csr, flow: flow_scratch, incremental, .. } = &mut *scratch;
        // A retained state means the scratch holds its network's flow.
        let patched = match (delta, incremental.as_deref_mut()) {
            (Some(delta), Some(state))
                if state.num_states == ro.num_states()
                    && state.tombstones <= state.live_facts.max(16)
                    && delta.len()
                        <= (state.live_facts / INCREMENTAL_FALLBACK_DIVISOR)
                            .max(INCREMENTAL_FALLBACK_FLOOR) =>
            {
                state.apply(csr, flow_scratch, ro, semantics, delta)
                    && state.live_facts == expected_live
            }
            _ => false,
        };
        if patched {
            mode = SolveMode::Incremental;
            trace.end(patch_timer, "patch_apply");
        } else if delta.is_some_and(|d| {
            d.len() > (expected_live / INCREMENTAL_FALLBACK_DIVISOR).max(INCREMENTAL_FALLBACK_FLOOR)
        }) {
            // Oversized delta: the batch path's pruned build-and-solve is
            // measurably faster than rebuilding the unpruned retained
            // network (see the `resilience_under_updates` bench), so cede
            // this solve to it and drop the retained state — the next small
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
    let state = incremental.as_ref().expect("state was just built or patched");
    if mode == SolveMode::Full {
        let freeze_timer = trace.begin();
        csr.freeze();
        trace.end(freeze_timer, "csr_freeze");
    }
    let resume_timer = trace.begin();
    // A patched network continues the flow the scratch retained; the resume
    // re-lays it first when the delta appended blocks or edges.
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
