//! Property-based tests for the flow substrate. On small networks the
//! reference is an exhaustive enumeration of edge cuts and of vertex cuts,
//! which pins the value, the source side and the cut edges to their
//! definitions. On larger ones the max-flow/min-cut certificate stands in for
//! it: every extracted cut disconnects the network at exactly the max-flow
//! value.

use proptest::prelude::*;
use rpq_flow::{Capacity, CsrFlow, EdgeId, FlowScratch, VertexId};
use std::collections::BTreeSet;

/// A random network: `vertices` vertices and `(from, to, capacity)` edges.
/// Source is vertex 0, target the last vertex.
#[derive(Debug, Clone)]
struct Network {
    vertices: usize,
    edges: Vec<(usize, usize, Capacity)>,
}

/// Strategy for a random network on `2..max_vertices` vertices with fewer
/// than `max_edges` edges, finite capacities below `max_capacity`, and each
/// edge infinite with probability `infinite`. Self-loops are dropped (they
/// are irrelevant for cuts).
fn network(
    max_vertices: usize,
    max_edges: usize,
    max_capacity: u64,
    infinite: f64,
) -> impl Strategy<Value = Network> {
    (2..max_vertices).prop_flat_map(move |n| {
        let edge = (0..n, 0..n, 0..max_capacity, proptest::bool::weighted(infinite));
        proptest::collection::vec(edge, 0..max_edges).prop_map(move |edges| Network {
            vertices: n,
            edges: edges
                .into_iter()
                .filter(|&(a, b, _, _)| a != b)
                .map(|(a, b, c, infinite)| {
                    let capacity =
                        if infinite { Capacity::Infinite } else { Capacity::Finite(c as u128) };
                    (a, b, capacity)
                })
                .collect(),
        })
    })
}

/// The network built into a frozen [`CsrFlow`]; edge `i` is `EdgeId(i)`.
fn frozen(network: &Network) -> CsrFlow {
    let mut csr = CsrFlow::new();
    csr.add_vertices(network.vertices);
    csr.set_source(VertexId(0));
    csr.set_target(VertexId(network.vertices as u32 - 1));
    for &(a, b, capacity) in &network.edges {
        csr.add_edge(VertexId(a as u32), VertexId(b as u32), capacity);
    }
    csr.freeze();
    csr
}

/// The minimum cost over every edge subset that disconnects the network
/// (`+∞` when every separator must cut an infinite edge).
fn brute_force_min_cut(csr: &CsrFlow) -> Capacity {
    let m = csr.num_edges();
    assert!(m <= 16);
    let mut best = Capacity::Infinite;
    for mask in 0u32..(1 << m) {
        let set: Vec<EdgeId> =
            (0..m).filter(|i| mask & (1 << i) != 0).map(|i| EdgeId(i as u32)).collect();
        if let Ok(cost) = csr.check_cut(&set) {
            best = best.min(cost);
        }
    }
    best
}

/// The vertices flagged in a [`FlowScratch::source_side`].
fn side(flags: &[bool]) -> BTreeSet<usize> {
    flags.iter().enumerate().filter(|&(_, &reached)| reached).map(|(v, _)| v).collect()
}

/// The source side a minimum cut must have: the intersection of the source
/// sides `S` (with `s ∈ S`, `t ∉ S`) of minimum capacity, where a side costs
/// the capacities of the edges leaving it. Minimum source sides are closed
/// under intersection, so this is the unique minimal one. Meaningful only
/// when some cut is finite.
fn minimal_min_cut_side(network: &Network) -> BTreeSet<usize> {
    let n = network.vertices;
    let (s, t) = (0, n - 1);
    let others: Vec<usize> = (0..n).filter(|&v| v != s && v != t).collect();
    let mut best = Capacity::Infinite;
    let mut minimal = BTreeSet::new();
    for mask in 0u32..(1 << others.len()) {
        let mut side = BTreeSet::from([s]);
        side.extend(
            others.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, &v)| v),
        );
        let cost = network
            .edges
            .iter()
            .filter(|&&(from, to, _)| side.contains(&from) && !side.contains(&to))
            .fold(Capacity::Finite(0), |sum, &(_, _, capacity)| sum.saturating_add(capacity));
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
        let csr = frozen(&net);
        let mut scratch = FlowScratch::new();
        let cut = csr.min_cut(&mut scratch);
        let (value, cut_edges) = (cut.value, cut.cut_edges.to_vec());
        prop_assert_eq!(value, brute_force_min_cut(&csr));
        if !value.is_infinite() {
            prop_assert_eq!(csr.check_cut(&cut_edges), Ok(value));
            // The cut is the unique minimal source side of a minimum cut,
            // whatever maximum flow the solver found, and its edges are
            // exactly the edges leaving that side, zero-capacity ones
            // included.
            let source_side = side(scratch.source_side());
            prop_assert_eq!(&source_side, &minimal_min_cut_side(&net));
            let leaving: Vec<EdgeId> = net
                .edges
                .iter()
                .enumerate()
                .filter(|(_, &(from, to, _))| {
                    source_side.contains(&from) && !source_side.contains(&to)
                })
                .map(|(i, _)| EdgeId(i as u32))
                .collect();
            prop_assert_eq!(&cut_edges, &leaving);
        }
    }

    #[test]
    fn min_cut_is_certified_on_larger_networks(net in network(40, 160, 20, 0.15)) {
        let csr = frozen(&net);
        let mut scratch = FlowScratch::new();
        let cut = csr.min_cut(&mut scratch);
        let (value, cut_edges) = (cut.value, cut.cut_edges.to_vec());
        // The source side always contains the source; it excludes the target
        // unless no finite cut exists.
        let source_side = side(scratch.source_side());
        prop_assert!(source_side.contains(&0));
        if value.is_infinite() {
            prop_assert!(cut_edges.is_empty());
        } else {
            prop_assert!(!source_side.contains(&(net.vertices - 1)));
            prop_assert_eq!(csr.check_cut(&cut_edges), Ok(value), "returned edges must disconnect");
        }
    }
}
