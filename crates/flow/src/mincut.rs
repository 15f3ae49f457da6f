//! Minimum cuts and cut-edge extraction.
//!
//! By the max-flow min-cut theorem, the value of a minimum cut equals the
//! value of a maximum flow, and a concrete minimum cut is obtained from the
//! residual graph: the cut edges are the original edges going from the
//! source-reachable side of the residual graph to the unreachable side.

use crate::dinic::{max_flow, MaxFlow};
use crate::network::{Capacity, EdgeId, FlowNetwork};
use std::collections::{BTreeSet, VecDeque};

/// Which maximum-flow algorithm to use for a min-cut computation.
///
/// The three concrete backends produce the same cut value (they are exact
/// algorithms); they are kept side by side for cross-checking and for the
/// `flow_ablation` bench. [`FlowAlgorithm::Auto`] is not a fourth algorithm:
/// it resolves per instance to the measured winner (Dinic on small networks,
/// push–relabel on large ones — see [`crate::auto`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FlowAlgorithm {
    /// Dinic's algorithm (the default used by the resilience reductions).
    #[default]
    Dinic,
    /// Edmonds–Karp (BFS augmenting paths).
    EdmondsKarp,
    /// Push–relabel with FIFO selection and the gap heuristic.
    PushRelabel,
    /// Pick the backend per instance from the measured size/density
    /// thresholds of [`crate::auto`].
    Auto,
}

impl FlowAlgorithm {
    /// The concrete algorithms (useful for cross-checking loops; excludes
    /// [`FlowAlgorithm::Auto`], which always agrees with one of these).
    pub const ALL: [FlowAlgorithm; 3] =
        [FlowAlgorithm::Dinic, FlowAlgorithm::EdmondsKarp, FlowAlgorithm::PushRelabel];

    /// Every selectable mode, as accepted by the [`FromStr`](std::str::FromStr) impl
    /// (the concrete algorithms plus `auto`).
    pub const SELECTABLE: [FlowAlgorithm; 4] = [
        FlowAlgorithm::Dinic,
        FlowAlgorithm::EdmondsKarp,
        FlowAlgorithm::PushRelabel,
        FlowAlgorithm::Auto,
    ];

    /// Resolves `Auto` to the measured-winner backend for an instance of the
    /// given dimensions; concrete backends resolve to themselves.
    pub fn resolve(self, num_vertices: usize, num_edges: usize) -> FlowAlgorithm {
        match self {
            FlowAlgorithm::Auto => crate::auto::select(num_vertices, num_edges),
            concrete => concrete,
        }
    }

    /// Runs the selected maximum-flow algorithm (`Auto` resolves first).
    pub fn max_flow(&self, network: &FlowNetwork) -> MaxFlow {
        match self.resolve(network.num_vertices(), network.num_edges()) {
            FlowAlgorithm::Dinic => crate::dinic::max_flow(network),
            FlowAlgorithm::EdmondsKarp => crate::edmonds_karp::max_flow(network),
            FlowAlgorithm::PushRelabel => crate::push_relabel::max_flow(network),
            // lint: allow(panic-freedom, resolve never returns Auto)
            FlowAlgorithm::Auto => unreachable!("Auto resolves to a concrete backend"),
        }
    }

    /// The stable command-line name of the backend (parsed back by the
    /// [`FromStr`](std::str::FromStr) impl).
    pub fn name(self) -> &'static str {
        match self {
            FlowAlgorithm::Dinic => "dinic",
            FlowAlgorithm::EdmondsKarp => "edmonds-karp",
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
    let flow = max_flow(network);
    min_cut_from_flow(network, flow)
}

/// Computes a minimum cut using the requested maximum-flow algorithm
/// (see [`FlowAlgorithm`]). `min_cut` is equivalent to
/// `min_cut_with(network, FlowAlgorithm::Dinic)`.
pub fn min_cut_with(network: &FlowNetwork, algorithm: FlowAlgorithm) -> MinCut {
    let flow = algorithm.max_flow(network);
    min_cut_from_flow(network, flow)
}

fn min_cut_from_flow(network: &FlowNetwork, flow: MaxFlow) -> MinCut {
    // Vertices reachable from the source in the residual graph.
    let residual = &flow.residual;
    let mut reachable = vec![false; network.num_vertices()];
    let source = network.source().index();
    reachable[source] = true;
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        for &ai in &residual.adjacency[v] {
            let arc = residual.arcs[ai];
            if arc.residual() > 0 && !reachable[arc.to] {
                reachable[arc.to] = true;
                queue.push_back(arc.to);
            }
        }
    }
    let source_side: BTreeSet<usize> =
        (0..network.num_vertices()).filter(|&v| reachable[v]).collect();

    if flow.value.is_infinite() {
        return MinCut { value: Capacity::Infinite, cut_edges: Vec::new(), source_side };
    }

    let mut cut_edges = Vec::new();
    for (id, e) in network.edges() {
        if reachable[e.from.index()] && !reachable[e.to.index()] {
            // Zero-capacity edges crossing the cut are included so that the
            // returned set is a genuine separator (they cost nothing).
            cut_edges.push(id);
        }
    }

    debug_assert!(
        {
            let set: BTreeSet<EdgeId> = cut_edges.iter().copied().collect();
            network.is_cut(&set) && network.cost(&set) == flow.value
        },
        "extracted cut must disconnect the network and match the max-flow value"
    );

    MinCut { value: flow.value, cut_edges, source_side }
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
    fn cut_of_a_series_path_is_the_bottleneck() {
        let net = simple_network(&[(0, 1, 5), (1, 2, 3), (2, 3, 7)], 4, 0, 3);
        let cut = min_cut(&net);
        assert_eq!(cut.value, Capacity::Finite(3));
        assert_eq!(cut.cut_edges.len(), 1);
        assert_eq!(net.edge(cut.cut_edges[0]).capacity, Capacity::Finite(3));
    }

    #[test]
    fn cut_separates_source_and_target_sides() {
        let net = simple_network(&[(0, 1, 1), (1, 3, 5), (0, 2, 5), (2, 3, 1)], 4, 0, 3);
        let cut = min_cut(&net);
        assert_eq!(cut.value, Capacity::Finite(2));
        assert!(cut.source_side.contains(&0));
        assert!(!cut.source_side.contains(&3));
        let set: BTreeSet<EdgeId> = cut.cut_edges.iter().copied().collect();
        assert!(net.is_cut(&set));
        assert_eq!(net.cost(&set), Capacity::Finite(2));
    }

    #[test]
    fn infinite_min_cut_is_reported() {
        let mut net = FlowNetwork::new();
        let s = net.add_vertex();
        let t = net.add_vertex();
        net.set_source(s);
        net.set_target(t);
        net.add_edge(s, t, Capacity::Infinite);
        let cut = min_cut(&net);
        assert!(cut.value.is_infinite());
        assert!(cut.cut_edges.is_empty());
    }

    #[test]
    fn already_disconnected_network_has_empty_cut() {
        let net = simple_network(&[(1, 0, 4)], 2, 0, 1);
        let cut = min_cut(&net);
        assert_eq!(cut.value, Capacity::Finite(0));
        assert!(cut.cut_edges.is_empty());
    }

    #[test]
    fn classic_instance_cut_matches_flow() {
        let net = simple_network(
            &[
                (0, 1, 16),
                (0, 2, 13),
                (1, 2, 10),
                (2, 1, 4),
                (1, 3, 12),
                (3, 2, 9),
                (2, 4, 14),
                (4, 3, 7),
                (3, 5, 20),
                (4, 5, 4),
            ],
            6,
            0,
            5,
        );
        let cut = min_cut(&net);
        assert_eq!(cut.value, Capacity::Finite(23));
        let set: BTreeSet<EdgeId> = cut.cut_edges.iter().copied().collect();
        assert!(net.is_cut(&set));
        assert_eq!(net.cost(&set), Capacity::Finite(23));
    }

    #[test]
    fn exhaustive_cross_check_on_small_networks() {
        // Brute force all edge subsets on a few small instances and compare
        // with the computed min cut, ignoring cuts of infinite cost.
        let instances = vec![
            simple_network(&[(0, 1, 2), (0, 2, 3), (1, 3, 4), (2, 3, 1), (1, 2, 1)], 4, 0, 3),
            simple_network(&[(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 3, 2), (1, 3, 1)], 4, 0, 3),
            simple_network(&[(0, 1, 3), (1, 2, 2), (0, 2, 1), (2, 3, 3), (1, 3, 1)], 4, 0, 3),
        ];
        for net in instances {
            let computed = min_cut(&net).value;
            let m = net.num_edges();
            let mut best = Capacity::Infinite;
            for mask in 0..(1u32 << m) {
                let set: BTreeSet<EdgeId> =
                    (0..m).filter(|i| mask & (1 << i) != 0).map(|i| EdgeId(i as u32)).collect();
                if net.is_cut(&set) {
                    best = best.min(net.cost(&set));
                }
            }
            assert_eq!(computed, best);
        }
    }
}
