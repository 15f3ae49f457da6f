//! # `rpq-flow`: flow networks and minimum cuts
//!
//! The tractable resilience algorithms of the paper (Theorem 3.13,
//! Proposition 7.6, Proposition 7.9) all reduce resilience to the **MinCut**
//! problem on a flow network with finite and infinite capacities. This crate
//! provides the substrate, with one network type:
//!
//! * [`csr::CsrFlow`] — a directed network with a single source and target
//!   and [`csr::Capacity`] values that are either finite (`u128`) or `+∞` (a
//!   dedicated variant, so saturation bugs are impossible). Every network is
//!   built straight into its reusable edge arena and frozen into contiguous
//!   CSR arrays of `u32` heads and twins plus one forward bit per arc;
//!   [`CsrFlow::check_cut`] certifies any cut against the arena alone;
//! * [`scratch::FlowScratch`] — the buffers of a Dinic solve (levels are
//!   residual distances to the target), reset, never reallocated, across
//!   solves (every resilience solve runs here). Its residual graph is the
//!   only copy of the flow: an edge's flow is its reverse arc's residual, so
//!   [`CsrFlow::max_flow_resume`] continues a retained flow, re-laying the
//!   arcs first when the network grew. The cut is the unique minimal source
//!   side of the final residual graph, whichever maximum flow produced it,
//!   so a cold solve and a resumed one return the same cut edges.
//!
//! Residuals are `u64` (16 bytes per arc) when the finite capacities sum
//! below 2^62, else `u128`; [`csr`] gives the rule and why it is exact.

#![forbid(unsafe_code)]
pub mod csr;
pub mod scratch;

pub use csr::{Capacity, CsrCut, CsrFlow, EdgeId, VertexId};
pub use scratch::FlowScratch;
