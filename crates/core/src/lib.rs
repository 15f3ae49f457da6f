//! # `rpq-resilience`: resilience of Regular Path Queries
//!
//! This crate is the core contribution of the workspace: it implements the
//! algorithms, hardness machinery and complexity classifier of the paper
//! *"Resilience for Regular Path Queries: Towards a Complexity Classification"*
//! (PODS 2025).
//!
//! The **resilience** of a Boolean query `Q` on a database `D` is the minimum
//! number of facts (minimum total multiplicity, under bag semantics) to remove
//! from `D` so that `Q` no longer holds. For a regular language `L`, the query
//! `Q_L` asks for the existence of a walk labeled by a word of `L`.
//!
//! ## What is provided
//!
//! * [`rpq`] — the [`rpq::Rpq`] query type tying a language to the
//!   set/bag-semantics resilience problem.
//! * [`exact`] — exponential-time exact solvers (witness-walk branch and bound,
//!   and hitting-set search over the hypergraph of matches) used as ground
//!   truth on small instances.
//! * [`algorithms`] — the paper's polynomial algorithms:
//!   [`algorithms::local`] (Theorem 3.13), [`algorithms::chain`]
//!   (Proposition 7.6) and [`algorithms::one_dangling`] (Proposition 7.9).
//! * [`engine`] — the prepared-query engine ([`engine::Engine`],
//!   [`engine::PreparedQuery`], [`engine::SolveOptions`]): the query-only
//!   classification is computed once and reused across databases, with a
//!   configurable MinCut backend; the single entry point for solving.
//! * [`hypergraph`] — the hypergraph of matches, condensation rules and
//!   minimum hitting sets (Section 4.3).
//! * [`gadgets`] — hardness gadgets (Definitions 4.3–4.9), the graph encoding
//!   and gadget verification machinery, and the concrete gadget library for
//!   every figure of the paper.
//! * [`reductions`] — the vertex-cover reduction (Propositions 4.2 and 4.11)
//!   together with an exact vertex-cover solver for end-to-end validation.
//! * [`classify`] — the Figure 1 classification engine: given a regular
//!   language, decide (when possible) whether its resilience problem is in
//!   PTIME or NP-hard, with a machine-checkable certificate.
//!
//! ## Quick example
//!
//! ```
//! use rpq_resilience::prelude::*;
//! use rpq_automata::Language;
//!
//! // Build a tiny graph database.
//! let mut db = GraphDb::new();
//! db.add_fact_by_names("s", 'a', "u");
//! db.add_fact_by_names("u", 'x', "v");
//! db.add_fact_by_names("v", 'x', "w");
//! db.add_fact_by_names("w", 'b', "t");
//!
//! // The RPQ a x* b holds; its resilience is 1 (cut any single edge).
//! let query = Rpq::new(Language::parse("a x* b").unwrap());
//! let result = Engine::new().solve(&query, &db).unwrap();
//! assert_eq!(result.value, ResilienceValue::Finite(1));
//! ```

#![forbid(unsafe_code)]
pub mod algorithms;
pub mod classify;
pub mod engine;
pub mod exact;
pub mod gadgets;
pub mod hypergraph;
pub mod reductions;
pub mod router;
pub mod rpq;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::algorithms::{Algorithm, ResilienceError, ResilienceOutcome};
    pub use crate::classify::{classify, Classification};
    pub use crate::engine::{
        Engine, IncrementalSolver, LogPosition, PlanReport, PreparedQuery, SolveCall, SolveMode,
        SolveOptions,
    };
    pub use crate::rpq::{ResilienceValue, Rpq, Semantics};
    pub use rpq_graphdb::{Fact, FactId, GraphDb, NodeId};
}

pub use rpq::{ResilienceValue, Rpq, Semantics};
pub use rpq_obs as obs;
