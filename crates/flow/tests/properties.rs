//! Property-based tests for the flow substrate. On small networks the
//! reference is an exhaustive enumeration of edge cuts and of vertex cuts,
//! which pins the value, the source side and the cut edges to their
//! definitions. On larger ones the max-flow/min-cut certificate stands in for
//! it: every extracted cut disconnects the network at exactly the max-flow
//! value.

use proptest::prelude::*;
use rpq_flow::{min_cut, Capacity, EdgeId, FlowNetwork, VertexId};
use std::collections::BTreeSet;

/// Strategy for a random network on `2..max_vertices` vertices with fewer
/// than `max_edges` edges, finite capacities below `max_capacity`, and each
/// edge infinite with probability `infinite`. Source is vertex 0, target the
/// last vertex; self-loops are dropped (they are irrelevant for cuts).
fn network(
    max_vertices: usize,
    max_edges: usize,
    max_capacity: u64,
    infinite: f64,
) -> impl Strategy<Value = FlowNetwork> {
    (2..max_vertices).prop_flat_map(move |n| {
        let edge = (0..n, 0..n, 0..max_capacity, proptest::bool::weighted(infinite));
        proptest::collection::vec(edge, 0..max_edges).prop_map(move |edges| {
            let mut net = FlowNetwork::new();
            net.add_vertices(n);
            net.set_source(VertexId(0));
            net.set_target(VertexId(n as u32 - 1));
            for (a, b, c, infinite) in edges {
                if a != b {
                    let capacity =
                        if infinite { Capacity::Infinite } else { Capacity::Finite(c as u128) };
                    net.add_edge(VertexId(a as u32), VertexId(b as u32), capacity);
                }
            }
            net
        })
    })
}

/// The minimum cost over every edge subset that disconnects the network
/// (`+∞` when every separator must cut an infinite edge).
fn brute_force_min_cut(network: &FlowNetwork) -> Capacity {
    let m = network.num_edges();
    assert!(m <= 16);
    let mut best = Capacity::Infinite;
    for mask in 0u32..(1 << m) {
        let set: BTreeSet<EdgeId> =
            (0..m).filter(|i| mask & (1 << i) != 0).map(|i| EdgeId(i as u32)).collect();
        if network.is_cut(&set) {
            best = best.min(network.cost(&set));
        }
    }
    best
}

/// The source side a minimum cut must have: the intersection of the source
/// sides `S` (with `s ∈ S`, `t ∉ S`) of minimum capacity, where a side costs
/// the capacities of the edges leaving it. Minimum source sides are closed
/// under intersection, so this is the unique minimal one. Meaningful only
/// when some cut is finite.
fn minimal_min_cut_side(network: &FlowNetwork) -> BTreeSet<usize> {
    let n = network.num_vertices();
    let (s, t) = (network.source().index(), network.target().index());
    let others: Vec<usize> = (0..n).filter(|&v| v != s && v != t).collect();
    let mut best = Capacity::Infinite;
    let mut minimal = BTreeSet::new();
    for mask in 0u32..(1 << others.len()) {
        let mut side = BTreeSet::from([s]);
        side.extend(
            others.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, &v)| v),
        );
        let cost = network
            .edges()
            .filter(|(_, e)| side.contains(&e.from.index()) && !side.contains(&e.to.index()))
            .fold(Capacity::Finite(0), |sum, (_, e)| sum.saturating_add(e.capacity));
        if cost < best {
            best = cost;
            minimal = side;
        } else if cost == best {
            minimal = minimal.intersection(&side).copied().collect();
        }
    }
    minimal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn min_cut_matches_brute_force(net in network(7, 11, 8, 0.3)) {
        let cut = min_cut(&net);
        prop_assert_eq!(cut.value, brute_force_min_cut(&net));
        if !cut.value.is_infinite() {
            // The cut is the unique minimal source side of a minimum cut,
            // whatever maximum flow the solver found, and its edges are
            // exactly the edges leaving that side, zero-capacity ones
            // included.
            prop_assert_eq!(&cut.source_side, &minimal_min_cut_side(&net));
            let leaving: Vec<EdgeId> = net
                .edges()
                .filter(|(_, e)| {
                    cut.source_side.contains(&e.from.index())
                        && !cut.source_side.contains(&e.to.index())
                })
                .map(|(id, _)| id)
                .collect();
            prop_assert_eq!(&cut.cut_edges, &leaving);
        }
    }

    #[test]
    fn min_cut_is_certified_on_larger_networks(net in network(40, 160, 20, 0.15)) {
        let cut = min_cut(&net);
        // The source side always contains the source; it excludes the target
        // unless no finite cut exists.
        prop_assert!(cut.source_side.contains(&net.source().index()));
        if cut.value.is_infinite() {
            prop_assert!(cut.cut_edges.is_empty());
        } else {
            prop_assert!(!cut.source_side.contains(&net.target().index()));
            let set: BTreeSet<EdgeId> = cut.cut_edges.iter().copied().collect();
            prop_assert!(net.is_cut(&set), "returned edges must disconnect");
            prop_assert_eq!(net.cost(&set), cut.value);
        }
    }
}
