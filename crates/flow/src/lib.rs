//! # `rpq-flow`: flow networks and minimum cuts
//!
//! The tractable resilience algorithms of the paper (Theorem 3.13,
//! Proposition 7.6, Proposition 7.9) all reduce resilience to the **MinCut**
//! problem on a flow network with finite and infinite capacities. This crate
//! provides the substrate:
//!
//! * [`network::FlowNetwork`] — directed networks with a single source and
//!   target and [`network::Capacity`] values that are either finite (`u64`) or
//!   `+∞` (a dedicated variant, so saturation bugs are impossible);
//! * [`csr`] + [`scratch`] — the one flow core: networks frozen into
//!   contiguous CSR arrays inside a reusable arena, solved by Dinic (levels
//!   are residual distances to the target) over [`scratch::FlowScratch`]
//!   buffers that are reset, never reallocated, across solves (every
//!   resilience solve runs here). The cut is the unique minimal source side
//!   of the final residual graph, whichever maximum flow produced it, so a
//!   cold solve and a resumed one return the same cut edges;
//! * [`mincut`] — the one-off [`min_cut`] wrapper, which copies a
//!   [`network::FlowNetwork`] into the CSR core and returns an owned cut,
//!   certified (in debug builds) to disconnect the network at the cost of
//!   the max-flow value.

#![forbid(unsafe_code)]
pub mod csr;
pub mod mincut;
pub mod network;
pub mod scratch;

pub use csr::{CsrCut, CsrFlow, CutTimings};
pub use mincut::{min_cut, MinCut};
pub use network::{Capacity, EdgeId, FlowNetwork, VertexId};
pub use scratch::FlowScratch;
