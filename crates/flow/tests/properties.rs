//! Property-based tests for the flow substrate, over every concrete backend
//! of `FlowAlgorithm::ALL`. On small networks the reference is an exhaustive
//! cut enumeration. On larger ones two independent checks stand in for it:
//! every extracted cut disconnects the network at exactly the max-flow value
//! (the max-flow/min-cut certificate), and Dinic and push–relabel agree.

use proptest::prelude::*;
use rpq_flow::{min_cut_with, Capacity, EdgeId, FlowAlgorithm, FlowNetwork, VertexId};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn min_cut_matches_brute_force(net in network(7, 11, 8, 0.3)) {
        let brute = brute_force_min_cut(&net);
        for algorithm in FlowAlgorithm::ALL {
            prop_assert_eq!(min_cut_with(&net, algorithm).value, brute, "{:?}", algorithm);
        }
    }

    #[test]
    fn backends_return_the_same_certified_cut(net in network(40, 160, 20, 0.15)) {
        let reference = min_cut_with(&net, FlowAlgorithm::Dinic);
        for algorithm in FlowAlgorithm::ALL {
            let cut = min_cut_with(&net, algorithm);
            // The source side of residual reachability is the same for every
            // maximum flow, so the whole cut agrees, not only its value.
            prop_assert_eq!(&cut, &reference, "{:?}", algorithm);
            // The source side always contains the source; it excludes the
            // target unless no finite cut exists.
            prop_assert!(cut.source_side.contains(&net.source().index()));
            if cut.value.is_infinite() {
                prop_assert!(cut.cut_edges.is_empty());
                continue;
            }
            prop_assert!(!cut.source_side.contains(&net.target().index()));
            let set: BTreeSet<EdgeId> = cut.cut_edges.iter().copied().collect();
            prop_assert!(net.is_cut(&set), "{:?}: returned edges must disconnect", algorithm);
            prop_assert_eq!(net.cost(&set), cut.value, "{:?}", algorithm);
        }
    }
}
