//! # `rpq-graphdb`: edge-labeled graph databases for RPQ resilience
//!
//! A *graph database* in the sense of the paper is a set of labeled edges
//! (facts) `v --a--> v'` over an alphabet `Σ`, possibly with multiplicities
//! (bag semantics). This crate provides:
//!
//! * the [`GraphDb`] store itself ([`db`]): node names interned into one
//!   arena, fact identifiers, multiplicities, and adjacency built on first
//!   use;
//! * Boolean RPQ evaluation `Q_L(D)` and witness-walk extraction ([`eval`]),
//!   used both by the resilience definition and by the exact solvers;
//! * match (hyperedge) enumeration for finite languages, feeding the
//!   hypergraph-of-matches machinery of Section 4.3 of the paper;
//! * synthetic workload generators ([`generate`]) used by the benchmark
//!   harness (layered flow-like instances, random labeled graphs, chain and
//!   one-dangling instances);
//! * a small text format ([`text`]) for examples and tests.

#![forbid(unsafe_code)]
pub mod db;
pub mod delta;
pub mod eval;
pub mod generate;
pub mod text;

pub use db::{Fact, FactId, GraphDb, NodeId};
pub use delta::FactChange;
pub use eval::{find_witness_walk, satisfies, satisfies_excluding};
