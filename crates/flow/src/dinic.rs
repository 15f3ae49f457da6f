//! Dinic's maximum-flow algorithm.
//!
//! The paper cites near-linear-time min-cut algorithms \[21\]; we implement
//! Dinic's algorithm (`O(V²E)` worst case, much faster in practice on the
//! sparse product networks produced by the resilience reductions), which
//! preserves every PTIME claim. Infinite capacities are handled by capping
//! them internally above the total finite capacity: a maximum flow reaching
//! the cap certifies that no finite cut exists.

use crate::network::{Capacity, FlowNetwork};
use std::collections::VecDeque;

/// The result of a maximum-flow computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxFlow {
    /// The value of the maximum flow (equivalently, of the minimum cut, by the
    /// max-flow min-cut theorem). `Infinite` means no finite cut exists.
    pub value: Capacity,
    /// Residual state used to extract a minimum cut (see [`crate::mincut`]).
    pub(crate) residual: Residual,
}

/// Internal residual graph after running Dinic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Residual {
    /// Adjacency list: for each vertex, indices into `arcs`.
    pub(crate) adjacency: Vec<Vec<usize>>,
    /// Arcs (twinned: arc `i ^ 1` is the reverse of arc `i`).
    pub(crate) arcs: Vec<Arc>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Arc {
    pub(crate) to: usize,
    pub(crate) capacity: u128,
    pub(crate) flow: u128,
}

impl Arc {
    pub(crate) fn residual(&self) -> u128 {
        self.capacity - self.flow
    }
}

/// Computes a maximum flow from the network's source to its target.
pub fn max_flow(network: &FlowNetwork) -> MaxFlow {
    let n = network.num_vertices();
    let source = network.source().index();
    let target = network.target().index();
    assert_ne!(source, target, "source and target must differ");

    // Cap infinite capacities strictly above the total finite capacity: any
    // finite cut has cost at most `total`, so a flow of `total + 1` or more
    // certifies that every cut uses an infinite edge.
    let infinite_cap: u128 = network.total_finite_capacity() + 1;

    let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut arcs: Vec<Arc> = Vec::new();

    for (_, e) in network.edges() {
        let capacity = match e.capacity {
            Capacity::Finite(0) => continue,
            Capacity::Finite(c) => c,
            Capacity::Infinite => infinite_cap,
        };
        let forward = arcs.len();
        arcs.push(Arc { to: e.to.index(), capacity, flow: 0 });
        arcs.push(Arc { to: e.from.index(), capacity: 0, flow: 0 });
        adjacency[e.from.index()].push(forward);
        adjacency[e.to.index()].push(forward + 1);
    }

    let mut total_flow: u128 = 0;
    let mut level = vec![-1i32; n];
    let mut iter = vec![0usize; n];

    loop {
        // BFS to build the level graph.
        for l in level.iter_mut() {
            *l = -1;
        }
        level[source] = 0;
        let mut queue = VecDeque::from([source]);
        while let Some(v) = queue.pop_front() {
            for &ai in &adjacency[v] {
                let arc = arcs[ai];
                if arc.residual() > 0 && level[arc.to] < 0 {
                    level[arc.to] = level[v] + 1;
                    queue.push_back(arc.to);
                }
            }
        }
        if level[target] < 0 {
            break;
        }
        for it in iter.iter_mut() {
            *it = 0;
        }
        // Blocking flow by iterative DFS.
        loop {
            let pushed =
                dfs_push(source, target, u128::MAX, &adjacency, &mut arcs, &level, &mut iter);
            if pushed == 0 {
                break;
            }
            total_flow += pushed;
        }
    }

    let value =
        if total_flow >= infinite_cap { Capacity::Infinite } else { Capacity::Finite(total_flow) };
    MaxFlow { value, residual: Residual { adjacency, arcs } }
}

fn dfs_push(
    v: usize,
    target: usize,
    limit: u128,
    adjacency: &[Vec<usize>],
    arcs: &mut [Arc],
    level: &[i32],
    iter: &mut [usize],
) -> u128 {
    if v == target {
        return limit;
    }
    while iter[v] < adjacency[v].len() {
        let ai = adjacency[v][iter[v]];
        let (to, residual) = {
            let arc = arcs[ai];
            (arc.to, arc.residual())
        };
        if residual > 0 && level[to] == level[v] + 1 {
            let pushed = dfs_push(to, target, limit.min(residual), adjacency, arcs, level, iter);
            if pushed > 0 {
                // Decrease the residual of the used arc and increase the
                // residual of its twin. We track unsigned flow, so the twin's
                // residual gain is recorded as extra capacity; only residuals
                // matter for the algorithm's correctness.
                arcs[ai].flow += pushed;
                arcs[ai ^ 1].capacity += pushed;
                return pushed;
            }
        }
        iter[v] += 1;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{FlowNetwork, VertexId};

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
    fn single_edge() {
        let net = simple_network(&[(0, 1, 5)], 2, 0, 1);
        assert_eq!(max_flow(&net).value, Capacity::Finite(5));
    }

    #[test]
    fn disconnected_network_has_zero_flow() {
        let net = simple_network(&[], 2, 0, 1);
        assert_eq!(max_flow(&net).value, Capacity::Finite(0));
    }

    #[test]
    fn series_takes_minimum() {
        let net = simple_network(&[(0, 1, 5), (1, 2, 3), (2, 3, 7)], 4, 0, 3);
        assert_eq!(max_flow(&net).value, Capacity::Finite(3));
    }

    #[test]
    fn parallel_paths_add_up() {
        let net = simple_network(&[(0, 1, 2), (1, 3, 2), (0, 2, 3), (2, 3, 3)], 4, 0, 3);
        assert_eq!(max_flow(&net).value, Capacity::Finite(5));
    }

    #[test]
    fn classic_textbook_instance() {
        // CLRS figure: max flow 23.
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
        assert_eq!(max_flow(&net).value, Capacity::Finite(23));
    }

    #[test]
    fn infinite_edges_on_the_only_path() {
        let mut net = FlowNetwork::new();
        let s = net.add_vertex();
        let m = net.add_vertex();
        let t = net.add_vertex();
        net.set_source(s);
        net.set_target(t);
        net.add_edge(s, m, Capacity::Infinite);
        net.add_edge(m, t, Capacity::Infinite);
        assert_eq!(max_flow(&net).value, Capacity::Infinite);
    }

    #[test]
    fn infinite_edge_bottlenecked_by_finite_one() {
        let mut net = FlowNetwork::new();
        let s = net.add_vertex();
        let m = net.add_vertex();
        let t = net.add_vertex();
        net.set_source(s);
        net.set_target(t);
        net.add_edge(s, m, Capacity::Infinite);
        net.add_edge(m, t, Capacity::Finite(4));
        assert_eq!(max_flow(&net).value, Capacity::Finite(4));
    }

    #[test]
    fn zero_capacity_edges_are_ignored() {
        let net = simple_network(&[(0, 1, 0), (0, 1, 3)], 2, 0, 1);
        assert_eq!(max_flow(&net).value, Capacity::Finite(3));
    }

    #[test]
    fn multigraph_edges_accumulate() {
        let net = simple_network(&[(0, 1, 2), (0, 1, 3)], 2, 0, 1);
        assert_eq!(max_flow(&net).value, Capacity::Finite(5));
    }

    #[test]
    fn large_capacities_do_not_overflow() {
        // Two disjoint routes of capacity u64::MAX each: the flow value exceeds
        // u64 but is represented exactly thanks to 128-bit capacities.
        let net = simple_network(&[(0, 1, u64::MAX), (1, 2, u64::MAX), (0, 2, u64::MAX)], 3, 0, 2);
        assert_eq!(max_flow(&net).value, Capacity::Finite(2 * (u64::MAX as u128)));
    }
}
