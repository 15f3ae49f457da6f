//! Theorem 3.13: resilience of local languages via MinCut.
//!
//! Given an RO-εNFA `A` for the (local) language and a bag database `D`, build
//! the flow network `N_{D,A}`:
//!
//! * vertices `(v, s)` for every database node `v` and automaton state `s`,
//!   plus a fresh source and target;
//! * for every fact `v --a--> v'` and the **unique** `a`-transition `(s, a, s')`
//!   of `A`, an edge `(v, s) → (v', s')` with capacity `mult(v --a--> v')`;
//! * for every ε-transition `(s, s')` and node `v`, an edge
//!   `(v, s) → (v, s')` with capacity `+∞`;
//! * edges of capacity `+∞` from the source to every `(v, s)` with `s` initial,
//!   and from every `(v, s)` with `s` final to the target.
//!
//! Because `A` is read-once, finite-capacity edges are in one-to-one
//! correspondence with facts, so minimum cuts correspond to minimum
//! contingency sets.
//!
//! The network actually built is smaller but cuts the same facts: product
//! vertices no source→target path crosses are pruned, ε-chains are
//! contracted, and vertices reached only from the source (or leading only to
//! the target) are merged into it. See the *Terminal contraction* section of
//! `resilience_via_ro_enfa` for why the cut edges stay identical, and the
//! `textbook_networks` integration test, which checks them against this
//! definition.

use super::{Algorithm, ResilienceOutcome, SolveScratch};
use crate::rpq::{ResilienceValue, Rpq, Semantics};
use rpq_automata::ro_enfa::RoEnfa;
use rpq_flow::{Capacity, VertexId};
use rpq_graphdb::{FactId, GraphDb};
use rpq_obs::Trace;

/// Runs the Theorem 3.13 reduction for an already-prepared RO-εNFA: the
/// query-only analysis (locality test, ε-check, automaton construction) has
/// been done by the caller, so this is the per-database half of the algorithm.
/// Used by [`crate::engine::PreparedQuery`] to solve batches without
/// re-deriving the plan.
pub(crate) fn solve_prepared(
    ro: &RoEnfa,
    rpq: &Rpq,
    db: &GraphDb,
    want_cut: bool,
    scratch: &mut SolveScratch,
    trace: &mut Trace,
) -> ResilienceOutcome {
    let facts = DbFacts { ro, db, semantics: rpq.semantics() };
    let (value, cut) = resilience_via_ro_enfa(ro, &facts, scratch, trace);
    debug_assert!(
        value.is_infinite() || rpq.is_contingency_set(db, &cut.iter().copied().collect()),
        "the extracted cut must be a contingency set"
    );
    ResilienceOutcome::new(value, Algorithm::Local, want_cut.then_some(cut))
}

/// The facts a Theorem 3.13 product network is built from: a node count and,
/// per fact with a transition, its provenance id, tail node, automaton
/// transition `(s, s')`, head node and capacity. The capacity is looked up
/// by provenance, and only for the facts the pruned network keeps.
pub(crate) trait ProductFacts {
    /// The number of nodes; tails and heads are below it.
    fn num_nodes(&self) -> usize;

    /// Calls `f(provenance, tail, (s, s'), head)` on every fact, in the same
    /// order on every call.
    fn for_each_fact(&self, f: impl FnMut(FactId, usize, (usize, usize), usize));

    /// The capacity of the fact with provenance id `provenance`.
    fn capacity(&self, provenance: FactId) -> Capacity;
}

/// A database read through an RO-εNFA: every fact whose letter has a
/// transition, with its own id as provenance.
struct DbFacts<'a> {
    ro: &'a RoEnfa,
    db: &'a GraphDb,
    semantics: Semantics,
}

impl ProductFacts for DbFacts<'_> {
    fn num_nodes(&self) -> usize {
        self.db.num_nodes()
    }

    fn for_each_fact(&self, mut f: impl FnMut(FactId, usize, (usize, usize), usize)) {
        for (fact_id, fact) in self.db.facts() {
            if let Some(transition) = self.ro.letter_transition(fact.label) {
                f(fact_id, fact.source.0 as usize, transition, fact.target.0 as usize);
            }
        }
    }

    fn capacity(&self, fact_id: FactId) -> Capacity {
        // Exogenous facts can never be cut: they get capacity +∞, exactly
        // like the structural edges of the construction.
        if self.db.is_exogenous(fact_id) {
            Capacity::Infinite
        } else {
            Capacity::Finite(u128::from(self.semantics.fact_cost(self.db, fact_id)))
        }
    }
}

/// Runs the Theorem 3.13 product construction for an explicit RO-εNFA over
/// the facts of `facts` (the caller's database for Theorem 3.13, the
/// streamed rewriting for Proposition 7.9). Returns the resilience value and
/// the provenance ids of a minimum cut's fact edges.
///
/// The network is built into `scratch`'s CSR arena and solved over its flow
/// buffers: nothing is allocated once the scratch is warmed up to the batch's
/// shape. Fact edges are emitted first so their arena ids directly index the
/// dense `edge_fact` provenance vector.
///
/// # Product pruning and vertex compaction
///
/// The textbook product has `|V| · |Q|` vertices and an ε / source / target
/// edge for *every* node — but on real databases most product vertices can
/// never lie on a source→target path (a node with no `a`-labelled out-fact
/// contributes nothing at the `a`-transition's origin state). For automata of
/// ≤ 64 states the build therefore computes, per node, bitmasks of
/// *enterable* states (ε-closure of the states its incoming facts and the
/// initial states land in) and *exitable* states (ε-co-closure of the states
/// its outgoing facts and the final states leave from), and emits an edge only
/// when its tail is enterable and its head exitable. Every source→target path
/// of the full product enters and exits each vertex it crosses, so each of its
/// edges passes the test: the pruned network preserves all paths, hence the
/// min-cut value, and any cut of it separates the full product. Used vertices
/// (enterable ∧ exitable) are compacted to dense ids so the CSR arrays and the
/// solver's per-vertex state shrink with the network. Automata above 64
/// states (alphabets beyond what a `u64` mask holds) take the unpruned build.
///
/// # ε-contraction
///
/// An emitted ε-edge `(v, s) → (v, s')` that is its tail's **only** out-edge
/// and its head's **only** in-edge can be contracted: some minimum cut places
/// both endpoints on the same side. If a cut has `(v, s) ∈ S` and
/// `(v, s') ∈ T` it cuts the infinite ε-edge, so only the `tail ∈ T`,
/// `head ∈ S` split can occur in a finite cut — and moving the tail to `S`
/// removes its incoming cut edges while adding none (its only out-edge now
/// stays inside `S`), so the cut value never increases. The condition composes
/// along chains: contracted edges form paths whose interior vertices have
/// in-degree = out-degree = 1, and any boundary vertex can be moved across
/// one edge at a time without increasing the cut. On automata in the shape
/// the locality construction produces (entry/exit state pairs linked by ε),
/// this collapses most product nodes to a single vertex, roughly halving the
/// network again on top of the mask pruning. Both conditions are needed: in
/// the network `s→a (1), a→t (∞), a→w (∞), w→b (∞), s→b (∞), b→t (5)` the
/// minimum cut is 6 (`s→a` and `b→t`), but merging `w` into `a` (its only
/// in-edge) and into `b` (its only out-edge) fuses `a` with `b`, which the
/// source and the target both reach through infinite edges: the cut becomes
/// infinite.
///
/// # Terminal contraction
///
/// Source and target attachments are merged away as well. An ε-contracted
/// class **is the source** when it has an initial member and nothing else
/// enters it: no fact enters a member at that node and no cross-class
/// ε-edge enters the class. Then its every in-edge is an infinite edge from
/// the source. Mirror-wise, a class **is the target** when it has a final
/// member and no fact or cross-class ε-edge leaves it. A class qualifying for
/// both stays a vertex (attached to both terminals, so the value is `+∞`).
///
/// These whole-in-edge-set and whole-out-edge-set merges keep the cut edges
/// identical, not just the value. A vertex whose in-edges all come from the
/// source with infinite capacity is reached by the source in every residual
/// graph of a finite maximum flow, so it lies in the unique minimal source
/// side, the set [`rpq_flow::CsrFlow::min_cut`] extracts the cut from. A
/// vertex whose out-edges all go to the target never does, or the source
/// would reach the target. The fact edges are the same edges, emitted first
/// in fact order under the same pruning, so their arena ids and the
/// extracted cut edges do not change, and the flow core's proxy for `+∞` is
/// a constant. On the seed-21 `ab|ad|cd` layered database of the
/// `engine_solve` benchmark, the network shrinks from 30,942 vertices /
/// 38,631 edges to 10,074 / 17,763 (the ignored release test
/// `engine::tests::engine_solve_networks_keep_their_seed_21_sizes` pins the
/// latter).
///
/// # One analysis per node signature
///
/// Every decision above — used states, ε-classes, terminal merges, emitted
/// ε / source / target edges — depends only on the node's signature
/// `(fact_in, fact_out)`: the masks of the states its facts enter and leave
/// it at. Real databases have few distinct signatures, so each one is
/// analysed once into a template held in a direct-mapped cache in
/// [`SolveScratch`]; each node stores its template id, and its structural
/// edges are emitted from the template. The cache's buckets are never reset:
/// an entry counts only if it names a template of the current solve with the
/// same signature, and a collision only re-runs the analysis, so adversarial
/// signatures cost no more than analysing every node.
pub(crate) fn resilience_via_ro_enfa(
    ro: &RoEnfa,
    facts: &impl ProductFacts,
    scratch: &mut SolveScratch,
    trace: &mut Trace,
) -> (ResilienceValue, Vec<FactId>) {
    let build_timer = trace.begin();
    let SolveScratch {
        csr,
        flow: flow_scratch,
        edge_fact,
        node_in,
        node_out,
        node_base,
        node_template,
        signatures,
        ..
    } = scratch;
    let num_states = ro.num_states();
    let num_nodes = facts.num_nodes();
    csr.clear();
    edge_fact.clear();

    if num_states <= 64 {
        let shape = ProductShape::new(ro);

        // Pass 1: which states do facts enter / leave each node at?
        node_in.clear();
        node_in.resize(num_nodes, 0);
        node_out.clear();
        node_out.resize(num_nodes, 0);
        facts.for_each_fact(|_, tail, (s, s_prime), head| {
            node_out[tail] |= 1 << s;
            node_in[head] |= 1 << s_prime;
        });

        // Pass 2: one template per node signature, and compact vertex ids
        // for the classes that stay vertices.
        signatures.clear();
        node_template.clear();
        node_template.reserve(num_nodes);
        node_base.clear();
        node_base.reserve(num_nodes);
        let mut next: u32 = 0;
        for (&fact_in, &fact_out) in node_in.iter().zip(node_out.iter()) {
            let template = signatures.template_for(&shape, fact_in, fact_out);
            node_template.push(template);
            node_base.push(next);
            next += signatures.templates[template as usize].vertices;
        }

        let first = csr.add_vertices(next as usize);
        debug_assert_eq!(first, VertexId(0));
        let source = csr.add_vertex();
        let target = csr.add_vertex();
        csr.set_source(source);
        csr.set_target(target);

        let signatures = &*signatures;
        let node_template = &*node_template;
        let node_base = &*node_base;
        let slot = |v: usize, state: usize| -> u8 {
            signatures.slots[node_template[v] as usize * num_states + state]
        };
        let vertex = |v: usize, slot: u8| -> VertexId {
            match slot {
                AT_SOURCE => source,
                AT_TARGET => target,
                _ => {
                    debug_assert_ne!(slot, PRUNED, "product vertex must be used");
                    VertexId(node_base[v] + slot as u32)
                }
            }
        };

        // Fact edges (finite capacity) — emitted first, so edge id == index
        // into `edge_fact`. A fact is pruned exactly when no query path can
        // traverse it, so it can never be in a minimum cut either.
        facts.for_each_fact(|fact_id, tail, (s, s_prime), head| {
            let (a, b) = (slot(tail, s), slot(head, s_prime));
            if a != PRUNED && b != PRUNED {
                let capacity = facts.capacity(fact_id);
                let edge = csr.add_edge(vertex(tail, a), vertex(head, b), capacity);
                debug_assert_eq!(edge.index(), edge_fact.len());
                edge_fact.push(fact_id.0);
            }
        });
        // Structural edges (infinite capacity): each node's cross-class ε
        // edges and terminal attachments, from its template.
        for (v, &template) in node_template.iter().enumerate() {
            for &(a, b) in signatures.edges_of(template) {
                csr.add_edge(vertex(v, a), vertex(v, b), Capacity::Infinite);
            }
        }
    } else {
        // Unpruned fallback: product vertices laid out as
        // node_index * num_states + state.
        let first = csr.add_vertices(num_nodes * num_states);
        debug_assert_eq!(first, VertexId(0));
        let source = csr.add_vertex();
        let target = csr.add_vertex();
        csr.set_source(source);
        csr.set_target(target);

        let product = |node: usize, state: usize| -> VertexId {
            VertexId((node * num_states + state) as u32)
        };

        facts.for_each_fact(|fact_id, tail, (s, s_prime), head| {
            let capacity = facts.capacity(fact_id);
            let edge = csr.add_edge(product(tail, s), product(head, s_prime), capacity);
            debug_assert_eq!(edge.index(), edge_fact.len());
            edge_fact.push(fact_id.0);
        });
        for (s, s_prime) in ro.epsilon_transitions() {
            for node in 0..num_nodes {
                csr.add_edge(product(node, s), product(node, s_prime), Capacity::Infinite);
            }
        }
        for s in ro.initial_states() {
            for node in 0..num_nodes {
                csr.add_edge(source, product(node, s), Capacity::Infinite);
            }
        }
        for s in ro.final_states() {
            for node in 0..num_nodes {
                csr.add_edge(product(node, s), target, Capacity::Infinite);
            }
        }
    }

    trace.end(build_timer, "product_build");
    let cut = super::freeze_and_cut(csr, flow_scratch, trace);
    let witness_timer = trace.begin();
    let facts: Vec<FactId> = cut
        .cut_edges
        .iter()
        .filter(|e| e.index() < edge_fact.len())
        .map(|e| FactId(edge_fact[e.index()]))
        .collect();
    trace.end(witness_timer, "witness_extract");
    (ResilienceValue::from(cut.value), facts)
}

/// Local slot codes of a node template. A node's product vertices are
/// numbered `0..vertices`; these three codes mark a state that is pruned,
/// merged into the source, or merged into the target.
const PRUNED: u8 = u8::MAX;
const AT_SOURCE: u8 = u8::MAX - 1;
const AT_TARGET: u8 = u8::MAX - 2;

/// log2 of the number of buckets of the direct-mapped signature cache.
const SIGNATURE_BUCKET_BITS: u32 = 10;

/// The automaton-wide half of the ≤ 64-state product analysis: state masks
/// and ε-closures shared by every node signature, and by the incremental
/// solver's retained network.
#[derive(Debug)]
pub(super) struct ProductShape {
    num_states: usize,
    eps: Vec<(usize, usize)>,
    /// `fwd[s]`: states ε-reachable from `s`; `bwd[s]`: states that ε-reach
    /// `s` (both include `s`).
    fwd: [u64; 64],
    bwd: [u64; 64],
    init_mask: u64,
    final_mask: u64,
}

impl ProductShape {
    /// The shape of `ro`, which must have at most 64 states.
    pub(super) fn new(ro: &RoEnfa) -> ProductShape {
        let num_states = ro.num_states();
        let eps: Vec<(usize, usize)> = ro.epsilon_transitions().collect();
        let mut fwd = [0u64; 64];
        let mut bwd = [0u64; 64];
        for s in 0..num_states {
            fwd[s] = 1 << s;
            bwd[s] = 1 << s;
        }
        loop {
            let mut changed = false;
            for &(s, s_prime) in &eps {
                let f = fwd[s] | fwd[s_prime];
                changed |= f != fwd[s];
                fwd[s] = f;
                let b = bwd[s_prime] | bwd[s];
                changed |= b != bwd[s_prime];
                bwd[s_prime] = b;
            }
            if !changed {
                break;
            }
        }
        let init_mask = ro.initial_states().fold(0, |m, s| m | 1 << s);
        let final_mask = ro.final_states().fold(0, |m, s| m | 1 << s);
        ProductShape { num_states, eps, fwd, bwd, init_mask, final_mask }
    }

    /// The states a node keeps in the pruned product: those ε-reachable from
    /// the initial states and the states `fact_in` (facts enter the node
    /// there), and ε-co-reachable from the final states and the states
    /// `fact_out` (facts leave it there). A source→target path can only
    /// cross the node at such a state.
    pub(super) fn used(&self, fact_in: u64, fact_out: u64) -> u64 {
        close(fact_in | self.init_mask, &self.fwd) & close(fact_out | self.final_mask, &self.bwd)
    }
}

/// The ε-closure of `mask` under `table` (`fwd` or `bwd`).
fn close(mask: u64, table: &[u64; 64]) -> u64 {
    let mut m = mask;
    let mut acc = 0u64;
    while m != 0 {
        acc |= table[m.trailing_zeros() as usize];
        m &= m - 1;
    }
    acc
}

fn find(parent: &mut [u8; 64], mut s: usize) -> usize {
    while parent[s] as usize != s {
        let p = parent[s] as usize;
        parent[s] = parent[p];
        s = p;
    }
    s
}

/// The analysis of one node signature `(fact_in, fact_out)`.
#[derive(Debug)]
struct NodeTemplate {
    fact_in: u64,
    fact_out: u64,
    /// Product vertices a node of this signature contributes.
    vertices: u32,
    /// Its structural edges: `SignatureCache::edges[edges_start..edges_end]`.
    edges_start: u32,
    edges_end: u32,
}

/// Per-solve node templates of the Theorem 3.13 builder, behind a
/// direct-mapped cache keyed by node signature (see *One analysis per node
/// signature* on [`resilience_via_ro_enfa`]). Lives in [`SolveScratch`], so
/// its buffers are reused across solves.
#[derive(Debug, Default)]
pub(crate) struct SignatureCache {
    /// Bucket → template id. Never reset: an entry is trusted only when it
    /// names a template of the current solve with the looked-up signature.
    buckets: Vec<u32>,
    templates: Vec<NodeTemplate>,
    /// Local slot of every state, laid out as `template * num_states + state`.
    slots: Vec<u8>,
    /// Structural edges between local slots, grouped by template.
    edges: Vec<(u8, u8)>,
}

impl SignatureCache {
    /// Forgets the previous solve's templates. The bucket table keeps its
    /// stale entries (see `buckets`), so this costs nothing per bucket.
    fn clear(&mut self) {
        if self.buckets.is_empty() {
            self.buckets.resize(1 << SIGNATURE_BUCKET_BITS, u32::MAX);
        }
        self.templates.clear();
        self.slots.clear();
        self.edges.clear();
    }

    /// The capacities of the cache's buffers.
    pub(crate) fn capacity_signature(&self) -> [usize; 4] {
        [
            self.buckets.capacity(),
            self.templates.capacity(),
            self.slots.capacity(),
            self.edges.capacity(),
        ]
    }

    fn edges_of(&self, template: u32) -> &[(u8, u8)] {
        let t = &self.templates[template as usize];
        &self.edges[t.edges_start as usize..t.edges_end as usize]
    }

    /// The template of signature `(fact_in, fact_out)`, analysed on a miss.
    /// A collision evicts the bucket's previous entry, so it costs one more
    /// analysis and nothing else.
    fn template_for(&mut self, shape: &ProductShape, fact_in: u64, fact_out: u64) -> u32 {
        let hash = fact_in.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ fact_out.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let bucket = (hash >> (64 - SIGNATURE_BUCKET_BITS)) as usize;
        let cached = self.buckets[bucket];
        if let Some(t) = self.templates.get(cached as usize) {
            if t.fact_in == fact_in && t.fact_out == fact_out {
                return cached;
            }
        }
        let id = self.analyse(shape, fact_in, fact_out);
        self.buckets[bucket] = id;
        id
    }

    /// Prunes, ε-contracts and terminal-merges the product vertices of one
    /// node signature, and records the result as a new template.
    fn analyse(&mut self, shape: &ProductShape, fact_in: u64, fact_out: u64) -> u32 {
        let num_states = shape.num_states;
        // The source attaches at initial states and the target at final
        // states, so those seed the closures. An ε-edge `(s, s')` is emitted
        // iff both endpoints are used: tail enterable and head exitable are
        // the emission conditions, and the ε-edge itself supplies the tail's
        // exit and the head's entry.
        let used = shape.used(fact_in, fact_out);
        let is_used = |s: usize| used >> s & 1 == 1;

        // Union-find over the used states: merge the endpoints of every
        // contractible ε-edge. An edge qualifies when it is its tail's only
        // out-edge (no fact leaves there, the state is not final, no other
        // emitted ε shares the tail) and its head's only in-edge.
        let mut parent = [0u8; 64];
        for (s, p) in parent.iter_mut().enumerate().take(num_states) {
            *p = s as u8;
        }
        let mut out_deg = [0u8; 64];
        let mut in_deg = [0u8; 64];
        for &(s, s_prime) in &shape.eps {
            if is_used(s) && is_used(s_prime) {
                out_deg[s] = out_deg[s].saturating_add(1);
                in_deg[s_prime] = in_deg[s_prime].saturating_add(1);
            }
        }
        for &(s, s_prime) in &shape.eps {
            if is_used(s)
                && is_used(s_prime)
                && out_deg[s] == 1
                && fact_out >> s & 1 == 0
                && shape.final_mask >> s & 1 == 0
                && in_deg[s_prime] == 1
                && fact_in >> s_prime & 1 == 0
                && shape.init_mask >> s_prime & 1 == 0
            {
                let ra = find(&mut parent, s);
                let rb = find(&mut parent, s_prime);
                if ra != rb {
                    parent[ra] = rb as u8;
                }
            }
        }

        // Number the classes and collect their member states.
        let mut class_of = [0u8; 64];
        let mut class_of_root = [u8::MAX; 64];
        let mut members = [0u64; 64];
        let mut classes = 0usize;
        let mut m = used;
        while m != 0 {
            let s = m.trailing_zeros() as usize;
            m &= m - 1;
            let r = find(&mut parent, s);
            if class_of_root[r] == u8::MAX {
                class_of_root[r] = classes as u8;
                classes += 1;
            }
            class_of[s] = class_of_root[r];
            members[class_of[s] as usize] |= 1 << s;
        }
        let cross_eps = |&(s, s_prime): &(usize, usize)| {
            (is_used(s) && is_used(s_prime) && class_of[s] != class_of[s_prime])
                .then(|| (class_of[s] as usize, class_of[s_prime] as usize))
        };
        let (mut eps_in, mut eps_out) = (0u64, 0u64);
        for (a, b) in shape.eps.iter().filter_map(cross_eps) {
            eps_out |= 1 << a;
            eps_in |= 1 << b;
        }

        // Terminal merges: a class whose only in-edges are source
        // attachments is the source, one whose only out-edges are target
        // attachments is the target; a class qualifying for both stays.
        let mut local = [PRUNED; 64];
        let mut vertices = 0u32;
        for (c, slot) in local.iter_mut().enumerate().take(classes) {
            let members = members[c];
            let to_source =
                members & shape.init_mask != 0 && members & fact_in == 0 && eps_in >> c & 1 == 0;
            let to_target =
                members & shape.final_mask != 0 && members & fact_out == 0 && eps_out >> c & 1 == 0;
            *slot = match (to_source, to_target) {
                (true, false) => AT_SOURCE,
                (false, true) => AT_TARGET,
                _ => {
                    vertices += 1;
                    (vertices - 1) as u8
                }
            };
        }

        self.slots.extend((0..num_states).map(|s| {
            if is_used(s) {
                local[class_of[s] as usize]
            } else {
                PRUNED
            }
        }));
        let edges_start = self.edges.len() as u32;
        for (a, b) in shape.eps.iter().filter_map(cross_eps) {
            self.edges.push((local[a], local[b]));
        }
        for (c, &slot) in local.iter().enumerate().take(classes) {
            if members[c] & shape.init_mask != 0 && slot != AT_SOURCE {
                self.edges.push((AT_SOURCE, slot));
            }
            if members[c] & shape.final_mask != 0 && slot != AT_TARGET {
                self.edges.push((slot, AT_TARGET));
            }
        }
        let id = self.templates.len() as u32;
        self.templates.push(NodeTemplate {
            fact_in,
            fact_out,
            vertices,
            edges_start,
            edges_end: self.edges.len() as u32,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::ResilienceError;
    use crate::engine::Engine;
    use crate::exact::resilience_exact;
    use rpq_automata::local::is_local;
    use rpq_automata::Language;
    use rpq_automata::{Alphabet, Word};
    use rpq_graphdb::generate::{flow_instance, random_labeled_graph, word_path};

    /// Theorem 3.13, forced through the engine.
    fn solve_local(rpq: &Rpq, db: &GraphDb) -> Result<ResilienceOutcome, ResilienceError> {
        Engine::new().solve_with(Algorithm::Local, rpq, db)
    }

    #[test]
    fn single_path_cut() {
        let db = word_path(&Word::from_str_word("axxb"));
        let out = solve_local(&Rpq::parse("ax*b").unwrap(), &db).unwrap();
        assert_eq!(out.value, ResilienceValue::Finite(1));
        assert_eq!(out.contingency_set.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn non_local_language_is_rejected() {
        let db = word_path(&Word::from_str_word("aa"));
        assert!(matches!(
            solve_local(&Rpq::parse("aa").unwrap(), &db),
            Err(ResilienceError::NotApplicable { .. })
        ));
    }

    #[test]
    fn epsilon_in_language_gives_infinite_resilience() {
        let db = word_path(&Word::from_str_word("ab"));
        let out = solve_local(&Rpq::parse("x*").unwrap(), &db).unwrap();
        assert!(out.value.is_infinite());
    }

    #[test]
    fn query_not_holding_gives_zero() {
        let db = word_path(&Word::from_str_word("ab"));
        let out = solve_local(&Rpq::parse("ba|ca").unwrap(), &db).unwrap();
        assert_eq!(out.value, ResilienceValue::Finite(0));
        assert!(out.contingency_set.unwrap().is_empty());
    }

    #[test]
    fn bag_semantics_uses_multiplicities() {
        let mut db = GraphDb::new();
        let f1 = db.add_fact_by_names("s", 'a', "u");
        let f2 = db.add_fact_by_names("u", 'x', "v");
        let f3 = db.add_fact_by_names("v", 'b', "t");
        db.set_multiplicity(f1, 10);
        db.set_multiplicity(f2, 4);
        db.set_multiplicity(f3, 7);
        let bag = Rpq::parse("ax*b").unwrap().with_bag_semantics();
        let out = solve_local(&bag, &db).unwrap();
        assert_eq!(out.value, ResilienceValue::Finite(4));
        assert_eq!(out.contingency_set.unwrap(), vec![f2]);
        let set = Rpq::parse("ax*b").unwrap();
        assert_eq!(solve_local(&set, &db).unwrap().value, ResilienceValue::Finite(1));
    }

    #[test]
    fn multi_source_multi_sink_flow_instances_match_exact() {
        for seed in 0..4 {
            let db = flow_instance(3, 3, 2, 3, seed);
            let q = Rpq::parse("ax*b").unwrap().with_bag_semantics();
            let fast = solve_local(&q, &db).unwrap();
            let slow = resilience_exact(&q, &db);
            assert_eq!(fast.value, slow.value, "seed {seed}");
            // The returned cut really is a contingency set of matching cost.
            let cut: std::collections::BTreeSet<FactId> =
                fast.contingency_set.unwrap().into_iter().collect();
            assert!(q.is_contingency_set(&db, &cut));
            assert_eq!(ResilienceValue::Finite(q.cost(&db, &cut)), fast.value);
        }
    }

    #[test]
    fn random_instances_match_exact_for_several_local_languages() {
        let alphabet = Alphabet::from_chars("abxd");
        for seed in 0..6 {
            let db = random_labeled_graph(5, 9, &alphabet, seed);
            for pattern in ["ax*b", "ab|ad", "a|b", "ab|ad|xd", "a(b|d)*x"] {
                let q = Rpq::new(Language::parse(pattern).unwrap());
                let lang = q.infix_free_language();
                if !is_local(&lang) {
                    continue;
                }
                let fast = solve_local(&q, &db).unwrap();
                let slow = resilience_exact(&q, &db);
                assert_eq!(fast.value, slow.value, "pattern {pattern}, seed {seed}");
            }
        }
    }

    /// The network of `ab|ad|cd` on `s -a-> m`, `c0 -c-> m`, `m -b-> t`,
    /// `m -d-> u`, checked by hand against the automaton of
    /// `RoEnfa::for_local_language` (`q0`, and `s'_x → q_x` per letter `x`):
    ///
    /// * `s` and `c0` use `{q0, s'_a}` / `{q0, s'_c}`: one ε-contracted class
    ///   with an initial member and nothing entering it, so the source;
    /// * `t` and `u` use `{q_b}` / `{q_d}`: final, nothing leaving, so the
    ///   target;
    /// * `m` uses `q_a, q_c, s'_b, s'_d`: four vertices (`q_a` has two
    ///   ε-successors and `s'_d` two ε-predecessors, so nothing contracts).
    ///
    /// That is 4 + 2 vertices and 4 fact + 3 ε edges. Without the terminal
    /// merges it would be 8 + 2 vertices and 4 + 3 + 2 + 2 edges.
    #[test]
    fn terminal_merges_shrink_a_hand_checked_network() {
        let mut db = GraphDb::new();
        db.add_fact_by_names("s", 'a', "m");
        db.add_fact_by_names("c0", 'c', "m");
        db.add_fact_by_names("m", 'b', "t");
        db.add_fact_by_names("m", 'd', "u");
        let q = Rpq::parse("ab|ad|cd").unwrap();
        let ro = RoEnfa::for_local_language(&q.infix_free_language()).unwrap();
        let mut scratch = SolveScratch::new();
        let facts = DbFacts { ro: &ro, db: &db, semantics: Semantics::Set };
        let (value, cut) =
            resilience_via_ro_enfa(&ro, &facts, &mut scratch, &mut Trace::disabled());
        assert_eq!(value, ResilienceValue::Finite(2));
        assert!(q.is_contingency_set(&db, &cut.into_iter().collect()));
        assert_eq!(scratch.csr.num_vertices(), 6);
        assert_eq!(scratch.csr.num_edges(), 7);
    }

    /// For the single-letter words of `a|b`, the tail of every fact is the
    /// source and its head the target: each fact edge joins the terminals
    /// directly, and an exogenous one makes the value infinite.
    #[test]
    fn facts_of_single_letter_words_join_the_terminals() {
        let mut db = GraphDb::new();
        db.add_fact_by_names("u", 'a', "v");
        let f = db.add_fact_by_names("v", 'b', "w");
        let q = Rpq::parse("a|b").unwrap();
        let ro = RoEnfa::for_local_language(&q.infix_free_language()).unwrap();
        let mut scratch = SolveScratch::new();
        let solve = |db: &GraphDb, scratch: &mut SolveScratch| {
            let facts = DbFacts { ro: &ro, db, semantics: Semantics::Set };
            resilience_via_ro_enfa(&ro, &facts, scratch, &mut Trace::disabled())
        };
        assert_eq!(solve(&db, &mut scratch).0, ResilienceValue::Finite(2));
        assert_eq!((scratch.csr.num_vertices(), scratch.csr.num_edges()), (2, 2));
        db.set_exogenous(f, true);
        assert!(solve(&db, &mut scratch).0.is_infinite());
    }

    #[test]
    fn combined_complexity_entry_point() {
        // The language given as an ε-NFA, as in the combined-complexity
        // statement.
        let db = word_path(&Word::from_str_word("axb"));
        let enfa = rpq_automata::regex::Regex::parse("ax*b").unwrap().to_enfa();
        let rpq = Rpq::new(Language::from_enfa(&enfa, None));
        let value = solve_local(&rpq, &db).unwrap().value;
        assert_eq!(value, ResilienceValue::Finite(1));
    }
}
