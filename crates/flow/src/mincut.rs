//! Minimum cuts of edge-list [`FlowNetwork`]s, and the choice of backend.
//!
//! By the max-flow min-cut theorem, the value of a minimum cut equals the
//! value of a maximum flow, and a concrete minimum cut is obtained from the
//! residual graph: the cut edges are the original edges going from the
//! source-reachable side of the residual graph to the unreachable side.
//! [`min_cut`] and [`min_cut_with`] are one-off conveniences over the CSR
//! core: they copy the network into a [`CsrFlow`] and solve it over a fresh
//! [`FlowScratch`].

use crate::csr::CsrFlow;
use crate::network::{Capacity, EdgeId, FlowNetwork};
use crate::scratch::FlowScratch;
use std::collections::BTreeSet;

/// Which maximum-flow algorithm to use for a min-cut computation.
///
/// The two concrete backends produce the same cut value and the same cut
/// edges (they are exact algorithms, and the cut is the unique minimal
/// source side of any maximum flow); they are kept side by side so each
/// cross-checks the other in the tests. [`FlowAlgorithm::Auto`] is not a
/// third algorithm: it resolves per instance to the measured winner (Dinic,
/// which wins at every measured size — see [`crate::auto`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FlowAlgorithm {
    /// Dinic's algorithm (the default used by the resilience reductions).
    #[default]
    Dinic,
    /// Push–relabel with FIFO selection and the gap heuristic.
    PushRelabel,
    /// Pick the backend per instance from the measured table of
    /// [`crate::auto`].
    Auto,
}

impl FlowAlgorithm {
    /// The concrete algorithms (useful for cross-checking loops; excludes
    /// [`FlowAlgorithm::Auto`], which always agrees with one of these).
    pub const ALL: [FlowAlgorithm; 2] = [FlowAlgorithm::Dinic, FlowAlgorithm::PushRelabel];

    /// Every selectable mode, as accepted by the [`FromStr`](std::str::FromStr) impl
    /// (the concrete algorithms plus `auto`).
    pub const SELECTABLE: [FlowAlgorithm; 3] =
        [FlowAlgorithm::Dinic, FlowAlgorithm::PushRelabel, FlowAlgorithm::Auto];

    /// Resolves `Auto` to the measured-winner backend for an instance of the
    /// given dimensions; concrete backends resolve to themselves.
    pub fn resolve(self, num_vertices: usize, num_edges: usize) -> FlowAlgorithm {
        match self {
            FlowAlgorithm::Auto => crate::auto::select(num_vertices, num_edges),
            concrete => concrete,
        }
    }

    /// The stable command-line name of the backend (parsed back by the
    /// [`FromStr`](std::str::FromStr) impl).
    pub fn name(self) -> &'static str {
        match self {
            FlowAlgorithm::Dinic => "dinic",
            FlowAlgorithm::PushRelabel => "push-relabel",
            FlowAlgorithm::Auto => "auto",
        }
    }
}

impl std::str::FromStr for FlowAlgorithm {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, Self::Err> {
        FlowAlgorithm::SELECTABLE
            .into_iter()
            .find(|a| a.name() == name)
            .ok_or_else(|| format!("unknown flow algorithm `{name}`"))
    }
}

impl std::fmt::Display for FlowAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

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
    /// residual graph of a maximum flow.
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
    min_cut_with(network, FlowAlgorithm::Dinic)
}

/// Computes a minimum cut using the requested maximum-flow algorithm
/// (see [`FlowAlgorithm`]). `min_cut` is equivalent to
/// `min_cut_with(network, FlowAlgorithm::Dinic)`.
///
/// Every backend returns the same cut: the source side of residual
/// reachability is the same for every maximum flow.
pub fn min_cut_with(network: &FlowNetwork, algorithm: FlowAlgorithm) -> MinCut {
    let csr = CsrFlow::from_network(network);
    let mut scratch = FlowScratch::new();
    let cut = csr.min_cut(algorithm, &mut scratch);
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
    fn flow_algorithm_names_round_trip() {
        for algorithm in FlowAlgorithm::SELECTABLE {
            assert_eq!(algorithm.name().parse::<FlowAlgorithm>().unwrap(), algorithm);
            assert_eq!(algorithm.to_string(), algorithm.name());
        }
        assert_eq!("auto".parse::<FlowAlgorithm>().unwrap(), FlowAlgorithm::Auto);
        assert!("bogus".parse::<FlowAlgorithm>().is_err());
        // The retired Edmonds–Karp backend is rejected like any unknown name.
        assert!("edmonds-karp".parse::<FlowAlgorithm>().is_err());
    }

    #[test]
    fn auto_resolves_to_a_concrete_backend_and_agrees() {
        let net = simple_network(&[(0, 1, 1), (1, 3, 5), (0, 2, 5), (2, 3, 1)], 4, 0, 3);
        let resolved = FlowAlgorithm::Auto.resolve(net.num_vertices(), net.num_edges());
        assert_ne!(resolved, FlowAlgorithm::Auto);
        assert_eq!(
            min_cut_with(&net, FlowAlgorithm::Auto).value,
            min_cut_with(&net, resolved).value
        );
        for concrete in FlowAlgorithm::ALL {
            assert_eq!(concrete.resolve(net.num_vertices(), net.num_edges()), concrete);
        }
    }

    #[test]
    fn cut_separates_source_and_target_sides() {
        let net = simple_network(&[(0, 1, 1), (1, 3, 5), (0, 2, 5), (2, 3, 1)], 4, 0, 3);
        for algorithm in FlowAlgorithm::ALL {
            let cut = min_cut_with(&net, algorithm);
            assert_eq!(cut.value, Capacity::Finite(2));
            assert_eq!(cut.source_side, BTreeSet::from([0, 2]), "{algorithm}");
            let set: BTreeSet<EdgeId> = cut.cut_edges.iter().copied().collect();
            assert!(net.is_cut(&set));
            assert_eq!(net.cost(&set), Capacity::Finite(2));
        }
    }
}
