//! Flow networks with finite and infinite capacities.

use std::fmt;

/// Identifier of a vertex of a flow network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The vertex identifier as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of an edge of a flow network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge identifier as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The capacity of an edge: a finite non-negative integer or `+∞`.
///
/// Infinite capacities are a dedicated variant (not a large sentinel), so the
/// API can certify that a returned cut is finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capacity {
    /// A finite capacity.
    Finite(u128),
    /// An infinite capacity: the edge can never be part of a finite cut.
    Infinite,
}

impl Capacity {
    /// Whether the capacity is infinite.
    pub fn is_infinite(&self) -> bool {
        matches!(self, Capacity::Infinite)
    }

    /// The finite value, if any.
    pub fn finite(&self) -> Option<u128> {
        match self {
            Capacity::Finite(v) => Some(*v),
            Capacity::Infinite => None,
        }
    }

    /// Saturating addition (`∞` absorbs).
    pub fn saturating_add(self, other: Capacity) -> Capacity {
        match (self, other) {
            (Capacity::Finite(a), Capacity::Finite(b)) => Capacity::Finite(a.saturating_add(b)),
            _ => Capacity::Infinite,
        }
    }
}

impl PartialOrd for Capacity {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Capacity {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use Capacity::*;
        match (self, other) {
            (Finite(a), Finite(b)) => a.cmp(b),
            (Finite(_), Infinite) => std::cmp::Ordering::Less,
            (Infinite, Finite(_)) => std::cmp::Ordering::Greater,
            (Infinite, Infinite) => std::cmp::Ordering::Equal,
        }
    }
}

impl fmt::Display for Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Capacity::Finite(v) => write!(f, "{v}"),
            Capacity::Infinite => write!(f, "+∞"),
        }
    }
}

impl From<u64> for Capacity {
    fn from(v: u64) -> Self {
        Capacity::Finite(v as u128)
    }
}

impl From<u128> for Capacity {
    fn from(v: u128) -> Self {
        Capacity::Finite(v)
    }
}

/// A directed edge of the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Tail of the edge.
    pub from: VertexId,
    /// Head of the edge.
    pub to: VertexId,
    /// Capacity of the edge.
    pub capacity: Capacity,
}

/// A flow network: a directed graph with designated source and target vertices
/// and per-edge capacities (finite or `+∞`).
#[derive(Debug, Clone, Default)]
pub struct FlowNetwork {
    num_vertices: usize,
    source: Option<VertexId>,
    target: Option<VertexId>,
    edges: Vec<Edge>,
}

impl FlowNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        FlowNetwork::default()
    }

    /// Adds a vertex and returns its identifier.
    pub fn add_vertex(&mut self) -> VertexId {
        let id = VertexId(self.num_vertices as u32);
        self.num_vertices += 1;
        id
    }

    /// Adds `n` vertices, returning the identifier of the first one.
    pub fn add_vertices(&mut self, n: usize) -> VertexId {
        let first = VertexId(self.num_vertices as u32);
        self.num_vertices += n;
        first
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The size `|N| = |V| + |E|`.
    pub fn size(&self) -> usize {
        self.num_vertices + self.edges.len()
    }

    /// Declares the source vertex.
    pub fn set_source(&mut self, v: VertexId) {
        assert!(v.index() < self.num_vertices, "vertex out of range");
        self.source = Some(v);
    }

    /// Declares the target vertex.
    pub fn set_target(&mut self, v: VertexId) {
        assert!(v.index() < self.num_vertices, "vertex out of range");
        self.target = Some(v);
    }

    /// The source vertex (panics if unset).
    pub fn source(&self) -> VertexId {
        // lint: allow(panic-freedom, documented panicking accessor; callers set endpoints first)
        self.source.expect("source vertex not set")
    }

    /// The target vertex (panics if unset).
    pub fn target(&self) -> VertexId {
        // lint: allow(panic-freedom, documented panicking accessor; callers set endpoints first)
        self.target.expect("target vertex not set")
    }

    /// Adds a directed edge with the given capacity and returns its identifier.
    pub fn add_edge(&mut self, from: VertexId, to: VertexId, capacity: Capacity) -> EdgeId {
        assert!(from.index() < self.num_vertices && to.index() < self.num_vertices);
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { from, to, capacity });
        id
    }

    /// The edge with the given identifier.
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.index()]
    }

    /// Iterator over `(EdgeId, Edge)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges.iter().enumerate().map(|(i, &e)| (EdgeId(i as u32), e))
    }

    /// Checks whether removing the given edge set disconnects the source from
    /// the target (i.e. the set is a *cut* in the sense of the paper).
    pub fn is_cut(&self, removed: &std::collections::BTreeSet<EdgeId>) -> bool {
        use std::collections::VecDeque;
        let source = self.source();
        let target = self.target();
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); self.num_vertices];
        for (id, e) in self.edges() {
            if !removed.contains(&id) {
                adjacency[e.from.index()].push(e.to.index());
            }
        }
        let mut seen = vec![false; self.num_vertices];
        let mut queue = VecDeque::from([source.index()]);
        seen[source.index()] = true;
        while let Some(v) = queue.pop_front() {
            if v == target.index() {
                return false;
            }
            for &u in &adjacency[v] {
                if !seen[u] {
                    seen[u] = true;
                    queue.push_back(u);
                }
            }
        }
        true
    }

    /// The cost of an edge set: the sum of its capacities (`+∞` absorbs).
    pub fn cost(&self, edges: &std::collections::BTreeSet<EdgeId>) -> Capacity {
        edges
            .iter()
            .map(|&id| self.edge(id).capacity)
            .fold(Capacity::Finite(0), Capacity::saturating_add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn capacity_ordering_and_arithmetic() {
        assert!(Capacity::Finite(3) < Capacity::Finite(5));
        assert!(Capacity::Finite(u128::MAX) < Capacity::Infinite);
        assert_eq!(Capacity::Infinite, Capacity::Infinite);
        assert_eq!(Capacity::Finite(2).saturating_add(Capacity::Finite(3)), Capacity::Finite(5));
        assert!(Capacity::Finite(2).saturating_add(Capacity::Infinite).is_infinite());
        assert_eq!(Capacity::from(7u64).finite(), Some(7));
        assert_eq!(Capacity::Infinite.finite(), None);
        assert_eq!(Capacity::Finite(4).to_string(), "4");
        assert_eq!(Capacity::Infinite.to_string(), "+∞");
    }

    fn diamond() -> (FlowNetwork, Vec<EdgeId>) {
        // s -> a -> t and s -> b -> t
        let mut n = FlowNetwork::new();
        let s = n.add_vertex();
        let a = n.add_vertex();
        let b = n.add_vertex();
        let t = n.add_vertex();
        n.set_source(s);
        n.set_target(t);
        let e = vec![
            n.add_edge(s, a, Capacity::Finite(2)),
            n.add_edge(a, t, Capacity::Finite(1)),
            n.add_edge(s, b, Capacity::Finite(3)),
            n.add_edge(b, t, Capacity::Infinite),
        ];
        (n, e)
    }

    #[test]
    fn network_construction() {
        let (n, edges) = diamond();
        assert_eq!(n.num_vertices(), 4);
        assert_eq!(n.num_edges(), 4);
        assert_eq!(n.size(), 8);
        assert_eq!(n.edge(edges[3]).capacity, Capacity::Infinite);
    }

    #[test]
    fn cut_detection_and_cost() {
        let (n, edges) = diamond();
        // Removing a->t and s->b disconnects.
        let cut: BTreeSet<EdgeId> = [edges[1], edges[2]].into_iter().collect();
        assert!(n.is_cut(&cut));
        assert_eq!(n.cost(&cut), Capacity::Finite(4));
        // Removing only a->t does not.
        let not_cut: BTreeSet<EdgeId> = [edges[1]].into_iter().collect();
        assert!(!n.is_cut(&not_cut));
        // Removing both source edges disconnects.
        let cut2: BTreeSet<EdgeId> = [edges[0], edges[2]].into_iter().collect();
        assert!(n.is_cut(&cut2));
        assert_eq!(n.cost(&cut2), Capacity::Finite(5));
        // A cut containing an infinite edge has infinite cost.
        let cut3: BTreeSet<EdgeId> = [edges[1], edges[3]].into_iter().collect();
        assert!(n.is_cut(&cut3));
        assert!(n.cost(&cut3).is_infinite());
        // The empty set is not a cut here.
        assert!(!n.is_cut(&BTreeSet::new()));
    }
}
