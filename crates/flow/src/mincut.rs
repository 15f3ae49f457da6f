//! Minimum cuts of edge-list [`FlowNetwork`]s.
//!
//! By the max-flow min-cut theorem, the value of a minimum cut equals the
//! value of a maximum flow, and a concrete minimum cut is obtained from the
//! residual graph: the cut edges are the original edges going from the
//! source-reachable side of the residual graph to the unreachable side.
//! [`min_cut`] is a one-off convenience over the CSR core: it copies the
//! network into a [`CsrFlow`] and solves it over a fresh [`FlowScratch`].

use crate::csr::CsrFlow;
use crate::network::{Capacity, EdgeId, FlowNetwork};
use crate::scratch::FlowScratch;
use std::collections::BTreeSet;

/// A minimum cut of a flow network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinCut {
    /// The cost of the cut (`Infinite` when no finite cut exists — e.g. when
    /// the source reaches the target through infinite-capacity edges only).
    pub value: Capacity,
    /// A concrete set of edges achieving the cut. Empty when the value is
    /// infinite (no finite cut exists) — and also when the value is 0
    /// (the target is already unreachable).
    pub cut_edges: Vec<EdgeId>,
    /// The source side of the cut: vertices reachable from the source in the
    /// residual graph of a maximum flow. The set is the same for every
    /// maximum flow: the unique minimal source side of a minimum cut.
    pub source_side: BTreeSet<usize>,
}

/// Computes a minimum cut between the network's source and target.
///
/// ```
/// use rpq_flow::{Capacity, FlowNetwork};
/// let mut n = FlowNetwork::new();
/// let s = n.add_vertex();
/// let m = n.add_vertex();
/// let t = n.add_vertex();
/// n.set_source(s);
/// n.set_target(t);
/// n.add_edge(s, m, Capacity::Infinite);
/// let bottleneck = n.add_edge(m, t, Capacity::Finite(2));
/// let cut = rpq_flow::min_cut(&n);
/// assert_eq!(cut.value, Capacity::Finite(2));
/// assert_eq!(cut.cut_edges, vec![bottleneck]);
/// ```
pub fn min_cut(network: &FlowNetwork) -> MinCut {
    let csr = CsrFlow::from_network(network);
    let mut scratch = FlowScratch::new();
    let cut = csr.min_cut(&mut scratch);
    let (value, cut_edges) = (cut.value, cut.cut_edges.to_vec());
    let source_side = (0..network.num_vertices()).filter(|&v| scratch.reachable[v]).collect();

    debug_assert!(
        value.is_infinite() || {
            let set: BTreeSet<EdgeId> = cut_edges.iter().copied().collect();
            network.is_cut(&set) && network.cost(&set) == value
        },
        "extracted cut must disconnect the network and match the max-flow value"
    );

    MinCut { value, cut_edges, source_side }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::VertexId;

    fn simple_network(edges: &[(u32, u32, u64)], n: u32, s: u32, t: u32) -> FlowNetwork {
        let mut net = FlowNetwork::new();
        net.add_vertices(n as usize);
        net.set_source(VertexId(s));
        net.set_target(VertexId(t));
        for &(a, b, c) in edges {
            net.add_edge(VertexId(a), VertexId(b), Capacity::Finite(c as u128));
        }
        net
    }

    #[test]
    fn cut_separates_source_and_target_sides() {
        let net = simple_network(&[(0, 1, 1), (1, 3, 5), (0, 2, 5), (2, 3, 1)], 4, 0, 3);
        let cut = min_cut(&net);
        assert_eq!(cut.value, Capacity::Finite(2));
        assert_eq!(cut.source_side, BTreeSet::from([0, 2]));
        let set: BTreeSet<EdgeId> = cut.cut_edges.iter().copied().collect();
        assert!(net.is_cut(&set));
        assert_eq!(net.cost(&set), Capacity::Finite(2));
    }
}
