//! Resilience algorithms behind one engine-style dispatch layer.
//!
//! The tractable algorithms of the paper all reduce resilience to MinCut:
//!
//! * [`local`] — Theorem 3.13, for local languages (via RO-εNFA products);
//! * [`chain`] — Proposition 7.6, for bipartite chain languages;
//! * [`one_dangling`] — Proposition 7.9, for one-dangling languages (via a
//!   rewriting into a local-language instance over extended bag semantics).
//!
//! All of these reductions share a **prepare/solve lifecycle**, implemented
//! by [`crate::engine::Engine`]:
//!
//! 1. **Prepare (query-only, once per query).** [`crate::engine::Engine::prepare`]
//!    derives the infix-free sublanguage, runs the ε-check, the locality test
//!    (building the Theorem 3.13 RO-εNFA), the finiteness / bipartite-chain
//!    analysis, and the one-dangling decomposition, then fixes an
//!    [`Algorithm`] — all independent of any database. The cached plan is a
//!    [`crate::engine::PreparedQuery`]; its
//!    [`plan()`](crate::engine::PreparedQuery::plan) report says which
//!    algorithm will run and why.
//! 2. **Solve (per database, many times).** One entry point per shape —
//!    [`route`](crate::engine::PreparedQuery::route) for one database,
//!    [`route_batch`](crate::engine::PreparedQuery::route_batch) for many,
//!    [`route_incremental`](crate::engine::PreparedQuery::route_incremental)
//!    for successive snapshots, each taking one
//!    [`SolveCall`](crate::engine::SolveCall) — performs only the
//!    per-database half of the chosen reduction: building and cutting one
//!    flow network (Dinic, see [`rpq_flow::csr`]), or running the exact
//!    solvers. Batch workloads over a fixed query never
//!    reclassify. All three flow-based reductions also extract
//!    an **optimal contingency set** from their minimum cut (for the
//!    one-dangling rewriting, by mapping cut edges of the rewritten instance
//!    back to original facts); value-only callers skip the extraction via
//!    the per-call `SolveCall::want_cut`.
//!
//! # Scratch reuse across solves
//!
//! The flow-based reductions do not allocate a fresh network per database.
//! Each solve builds its edges into the [`rpq_flow::CsrFlow`] arena of a
//! [`SolveScratch`] (cleared, never freed, between databases), freezes it
//! into CSR adjacency, and runs Dinic over the scratch's
//! [`rpq_flow::FlowScratch`] buffers — which are reset by `clear()` +
//! `resize()`, so their capacity only ever grows. Edge → fact provenance is
//! a dense `Vec` in the same scratch: fact edges are emitted **first**, so
//! an arena edge id below `edge_fact.len()` indexes its fact directly and
//! wiring edges (ids past the prefix) need no map at all.
//!
//! The scratch's lifetime is tied to the prepared plan: every
//! [`crate::engine::PreparedQuery`] owns a pool of `SolveScratch` buffers,
//! checked out once per [`route`](crate::engine::PreparedQuery::route) call
//! (or once per worker thread in
//! [`route_batch`](crate::engine::PreparedQuery::route_batch), where each
//! chunk reuses one scratch across all its databases). After a warm-up solve
//! sizes the buffers, a batch over same-shaped databases performs **zero**
//! further allocations in the flow core — the engine's tests assert this via
//! [`SolveScratch::capacity_signature`].
//!
//! **The engine is the single entry point for computing resilience.** The
//! CLI, the server, the integration tests and the benchmarks all go through
//! it: [`Engine::solve`](crate::engine::Engine::solve) for automatic backend
//! choice, [`Engine::solve_with`](crate::engine::Engine::solve_with) for an
//! explicit backend (including the budgeted search and the subset oracle of
//! [`crate::exact`], see [`Algorithm`]), or a
//! prepared plan for repeated solves. The per-module functions are
//! implementation details: call them directly only from the engine and from
//! their own unit tests, so every consumer benefits from dispatch-level
//! invariants (ε-handling, infix-free reduction, outcome normalization) and
//! backends can be swapped without touching call sites.

pub mod chain;
pub(crate) mod incremental;
pub mod local;
pub mod one_dangling;

use crate::rpq::ResilienceValue;
use rpq_automata::AutomataError;
use rpq_flow::{CsrCut, CsrFlow, FlowScratch};
use rpq_graphdb::FactId;
use rpq_obs::Trace;
use std::fmt;

/// Reusable per-solve buffers of the flow-based reductions (see the
/// *scratch reuse* section of the [module docs](self)): the [`CsrFlow`]
/// arena the reduction builds into, the [`FlowScratch`] the backend solves
/// over, and the dense provenance / vertex-lookup vectors. One scratch is
/// checked out of the owning [`crate::engine::PreparedQuery`]'s pool per
/// solve (or per batch worker) and reset — never reallocated — between
/// databases.
#[derive(Debug, Default)]
pub struct SolveScratch {
    /// The CSR flow arena the reductions build and freeze per database.
    pub(crate) csr: CsrFlow,
    /// Solver state for [`CsrFlow::max_flow`], and the flow an incremental
    /// solve retains.
    pub(crate) flow: FlowScratch,
    /// Edge → fact provenance. Fact edges are emitted into the arena first,
    /// so `edge_fact[edge.index()]` is the `FactId` of every edge with index
    /// below `edge_fact.len()`; later (wiring) edges have no fact.
    pub(crate) edge_fact: Vec<u32>,
    /// Fact → start-vertex lookup of the chain reduction, indexed by
    /// `FactId`; `u32::MAX` marks facts absent from the network. A start
    /// vertex may be the source itself (see the chain module's letter roles).
    pub(crate) fact_vertex: Vec<u32>,
    /// Fact → end-vertex lookup of the chain reduction, indexed like
    /// `fact_vertex`. An end vertex may be the target itself.
    pub(crate) fact_end: Vec<u32>,
    /// Fact → letter role of the chain reduction, resolved once per fact
    /// (see the chain module's role codes).
    pub(crate) fact_role: Vec<u32>,
    /// Per-node bitmask of the automaton states that facts *enter* the node
    /// at, used by the local reduction's ≤ 64-state product build. Indexed
    /// by `NodeId`.
    pub(crate) node_in: Vec<u64>,
    /// Per-node bitmask of the states that facts *leave* the node from.
    /// `(node_in, node_out)` is the node's signature: every product decision
    /// at the node depends on it alone.
    pub(crate) node_out: Vec<u64>,
    /// Per-node first compacted product-vertex id of the local reduction
    /// (prefix sums of the templates' vertex counts).
    pub(crate) node_base: Vec<u32>,
    /// Per-node template id into `signatures`: the node's state → vertex
    /// slots and its structural edges.
    pub(crate) node_template: Vec<u32>,
    /// The local reduction's per-signature analyses: a direct-mapped cache
    /// from node signature to template, reused (never reset per bucket)
    /// across solves.
    pub(crate) signatures: local::SignatureCache,
    /// The one-dangling rewriting's per-node and per-fact buffers.
    pub(crate) rewrite: one_dangling::RewriteScratch,
    /// Retained network + flow of the incremental local solver (`None` until
    /// a [`crate::engine::PreparedQuery::route_incremental`] call builds it).
    /// Boxed so plain solves don't pay for it; **plain solves clobber the
    /// `csr` arena this state describes**, which is why incremental solves
    /// run on a dedicated [`crate::engine::IncrementalSolver`]-owned scratch
    /// rather than the pooled ones.
    pub(crate) incremental: Option<Box<incremental::IncrementalLocalState>>,
}

impl SolveScratch {
    /// A scratch with no capacity reserved.
    pub fn new() -> SolveScratch {
        SolveScratch::default()
    }

    /// The capacities of every internal buffer. Used to assert the reuse
    /// contract: once warmed up on a batch's shape, further solves must not
    /// change the signature (zero reallocations).
    pub fn capacity_signature(&self) -> ([usize; 9], [usize; 10], [usize; 17]) {
        let [buckets, templates, slots, edges] = self.signatures.capacity_signature();
        let [twin, price, restored, exchanges, cut_marks] = self.rewrite.capacity_signature();
        (
            self.csr.capacity_signature(),
            self.flow.capacity_signature(),
            [
                self.edge_fact.capacity(),
                self.fact_vertex.capacity(),
                self.fact_end.capacity(),
                self.fact_role.capacity(),
                self.node_in.capacity(),
                self.node_out.capacity(),
                self.node_base.capacity(),
                self.node_template.capacity(),
                buckets,
                templates,
                slots,
                edges,
                twin,
                price,
                restored,
                exchanges,
                cut_marks,
            ],
        )
    }
}

/// Errors raised by the resilience algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResilienceError {
    /// An underlying language analysis failed.
    Automata(AutomataError),
    /// The requested algorithm does not apply to the query's language.
    NotApplicable {
        /// The algorithm that was requested.
        algorithm: Algorithm,
        /// Why it does not apply.
        reason: String,
    },
    /// The database exceeds the subset-enumeration oracle's fact limit
    /// (`SolveOptions::enumeration_limit`): enumerating `2^facts` subsets is
    /// not going to finish.
    InstanceTooLarge {
        /// The number of endogenous facts of the database.
        facts: usize,
        /// The configured limit.
        limit: usize,
    },
}

impl fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilienceError::Automata(e) => write!(f, "language analysis failed: {e}"),
            ResilienceError::NotApplicable { algorithm, reason } => {
                write!(f, "`{algorithm}` does not apply: {reason}")
            }
            ResilienceError::InstanceTooLarge { facts, limit } => write!(
                f,
                "the database has {facts} endogenous facts, above the subset-enumeration \
                 limit of {limit}"
            ),
        }
    }
}

impl std::error::Error for ResilienceError {}

impl From<AutomataError> for ResilienceError {
    fn from(e: AutomataError) -> Self {
        ResilienceError::Automata(e)
    }
}

/// The algorithm used to compute a resilience value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Theorem 3.13: RO-εNFA product reduction to MinCut (local languages).
    Local,
    /// Proposition 7.6: bipartite-chain reduction to MinCut.
    BipartiteChain,
    /// Proposition 7.9: one-dangling rewriting + local reduction.
    OneDangling,
    /// The budgeted branch and bound of [`crate::exact`] (always
    /// applicable): exact within its work budget, a certified sandwich
    /// beyond it.
    ExactBranchAndBound,
    /// Exponential subset enumeration (reference oracle, ≤ 24 facts).
    ExactEnumeration,
}

impl Algorithm {
    /// Every selectable backend, in dispatcher preference order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Local,
        Algorithm::BipartiteChain,
        Algorithm::OneDangling,
        Algorithm::ExactBranchAndBound,
        Algorithm::ExactEnumeration,
    ];

    /// The stable command-line name of the backend (parsed back by the
    /// [`FromStr`](std::str::FromStr) impl).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Local => "local",
            Algorithm::BipartiteChain => "chain",
            Algorithm::OneDangling => "one-dangling",
            Algorithm::ExactBranchAndBound => "exact",
            Algorithm::ExactEnumeration => "enumeration",
        }
    }

    /// Whether the backend is one of the paper's polynomial reductions.
    pub fn is_polynomial(self) -> bool {
        matches!(self, Algorithm::Local | Algorithm::BipartiteChain | Algorithm::OneDangling)
    }
}

/// Freezes a built product network, solves its maximum flow and extracts
/// the cut: the tail every per-database reduction shares. Records the
/// `csr_freeze`, `flow_solve_dinic` and `cut_extract` spans; trace readers
/// match the max-flow span by its `flow_solve` prefix.
pub(crate) fn freeze_and_cut<'s>(
    csr: &mut CsrFlow,
    flow: &'s mut FlowScratch,
    trace: &mut Trace,
) -> CsrCut<'s> {
    let timer = trace.begin();
    csr.freeze();
    trace.end(timer, "csr_freeze");
    let timer = trace.begin();
    csr.max_flow(flow);
    trace.end(timer, "flow_solve_dinic");
    let timer = trace.begin();
    let cut = csr.extract_cut(flow);
    trace.end(timer, "cut_extract");
    cut
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        Algorithm::ALL
            .into_iter()
            .find(|a| a.name() == name)
            .ok_or_else(|| format!("unknown algorithm `{name}`"))
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The outcome of a resilience computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResilienceOutcome {
    /// The resilience value. For a search stopped on its work budget this
    /// is the certified **upper bound** (the cost of `contingency_set`); see
    /// [`ResilienceOutcome::bounds`].
    pub value: ResilienceValue,
    /// Which algorithm produced it.
    pub algorithm: Algorithm,
    /// An optimal contingency set, when the algorithm produces one. Every
    /// flow-based tractable backend extracts a witness from its minimum cut
    /// (including the one-dangling rewriting, which maps the cut of the
    /// rewritten instance back to original facts); the enumeration oracle
    /// only certifies the value, and `SolveCall::want_cut = false`
    /// suppresses extraction everywhere.
    pub contingency_set: Option<Vec<FactId>>,
    /// Certified `lower ≤ RES(Q, D) ≤ upper` bounds, reported by a search
    /// stopped on its work budget; `None` for an exact value.
    pub bounds: Option<(u128, u128)>,
}

impl ResilienceOutcome {
    /// An outcome with no bounds.
    pub fn new(
        value: ResilienceValue,
        algorithm: Algorithm,
        contingency_set: Option<Vec<FactId>>,
    ) -> Self {
        ResilienceOutcome { value, algorithm, contingency_set, bounds: None }
    }

    /// Whether the outcome is the exact resilience: it carries no bounds,
    /// or bounds that coincide.
    pub fn is_exact(&self) -> bool {
        self.bounds.is_none_or(|(lower, upper)| lower == upper)
    }

    /// The complexity tier that produced the outcome, used as a wire field
    /// and metrics label: `"poly"` for the paper's polynomial reductions,
    /// `"exact"` for an exact exponential answer, `"approx"` for a certified
    /// sandwich.
    pub fn tier(&self) -> &'static str {
        if self.algorithm.is_polynomial() {
            "poly"
        } else if self.is_exact() {
            "exact"
        } else {
            "approx"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::rpq::Rpq;
    use rpq_automata::Word;
    use rpq_graphdb::generate::word_path;

    #[test]
    fn dispatcher_picks_the_right_algorithm() {
        let db = word_path(&Word::from_str_word("axb"));
        let out = Engine::new().solve(&Rpq::parse("ax*b").unwrap(), &db).unwrap();
        assert_eq!(out.algorithm, Algorithm::Local);

        let db = word_path(&Word::from_str_word("abc"));
        let out = Engine::new().solve(&Rpq::parse("ab|bc").unwrap(), &db).unwrap();
        assert_eq!(out.algorithm, Algorithm::BipartiteChain);

        let out = Engine::new().solve(&Rpq::parse("abc|be").unwrap(), &db).unwrap();
        assert_eq!(out.algorithm, Algorithm::OneDangling);

        let db = word_path(&Word::from_str_word("aa"));
        let out = Engine::new().solve(&Rpq::parse("aa").unwrap(), &db).unwrap();
        assert_eq!(out.algorithm, Algorithm::ExactBranchAndBound);
    }

    #[test]
    fn epsilon_queries_are_infinite() {
        let db = word_path(&Word::from_str_word("ab"));
        let out = Engine::new().solve(&Rpq::parse("a*").unwrap(), &db).unwrap();
        assert!(out.value.is_infinite());
    }

    #[test]
    fn infix_free_reduction_is_applied_by_the_dispatcher() {
        // L = a | aa: IF(L) = a, which is local, even though L itself is not.
        let db = word_path(&Word::from_str_word("aaa"));
        let out = Engine::new().solve(&Rpq::parse("a|aa").unwrap(), &db).unwrap();
        assert_eq!(out.algorithm, Algorithm::Local);
        // Every a-fact must go: resilience 3.
        assert_eq!(out.value, ResilienceValue::Finite(3));
    }

    #[test]
    fn mirror_invariance_proposition_6_3() {
        let db = word_path(&Word::from_str_word("axxb"));
        for pattern in ["ax*b", "ab|bc", "aa", "axb"] {
            let q = Rpq::parse(pattern).unwrap();
            let direct = Engine::new().solve(&q, &db).unwrap().value;
            let mirrored = Engine::new().solve(&q.mirror(), &db.reversed()).unwrap().value;
            assert_eq!(direct, mirrored, "{pattern}");
        }
    }

    #[test]
    fn not_applicable_errors() {
        let db = word_path(&Word::from_str_word("aa"));
        let q = Rpq::parse("aa").unwrap();
        assert!(matches!(
            Engine::new().solve_with(Algorithm::Local, &q, &db),
            Err(ResilienceError::NotApplicable { .. })
        ));
        assert!(matches!(
            Engine::new().solve_with(Algorithm::BipartiteChain, &q, &db),
            Err(ResilienceError::NotApplicable { .. })
        ));
        assert!(matches!(
            Engine::new().solve_with(Algorithm::OneDangling, &q, &db),
            Err(ResilienceError::NotApplicable { .. })
        ));
        assert!(Engine::new().solve_with(Algorithm::ExactBranchAndBound, &q, &db).is_ok());
        let err = Engine::new().solve_with(Algorithm::Local, &q, &db).unwrap_err();
        assert!(err.to_string().contains("does not apply"));
    }

    #[test]
    fn exact_backends_agree_through_the_dispatcher() {
        let db = word_path(&Word::from_str_word("aaaa"));
        let q = Rpq::parse("aa").unwrap();
        let bb = Engine::new().solve_with(Algorithm::ExactBranchAndBound, &q, &db).unwrap();
        let enumerated = Engine::new().solve_with(Algorithm::ExactEnumeration, &q, &db).unwrap();
        assert_eq!(bb.value, enumerated.value);
        assert_eq!(enumerated.algorithm, Algorithm::ExactEnumeration);
        assert!(enumerated.contingency_set.is_none());
        assert!(enumerated.is_exact());
    }

    #[test]
    fn algorithm_names_round_trip() {
        for algorithm in Algorithm::ALL {
            assert_eq!(algorithm.name().parse::<Algorithm>().unwrap(), algorithm);
        }
        assert!("bogus".parse::<Algorithm>().is_err());
        // The removed approximation backends are unknown names now.
        for gone in ["greedy", "k-approx", "trivial-bounds"] {
            assert_eq!(
                gone.parse::<Algorithm>().unwrap_err(),
                format!("unknown algorithm `{gone}`")
            );
        }
    }
}
