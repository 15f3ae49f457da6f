//! The hypergraph of matches and its condensation (Section 4.3 of the paper).
//!
//! The resilience of `Q_L` on `D` under set semantics is the minimum size of a
//! hitting set of the **hypergraph of matches** `H_{L,D}`, whose vertices are
//! the facts of `D` and whose hyperedges are the matches of `L` (the fact sets
//! of `L`-walks). The two **condensation rules** (edge-domination and
//! node-domination, Claim 4.8) simplify the hypergraph without changing the
//! minimum hitting-set size; they are the tool used to verify hardness gadgets
//! (Definition 4.9).

use rpq_automata::finite::FiniteLanguage;
use rpq_automata::Language;
use rpq_graphdb::{enumerate_matches, eval::enumerate_matches_regular, FactId, GraphDb};
use std::collections::BTreeSet;

/// A hypergraph whose vertices are database facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypergraph {
    vertices: BTreeSet<FactId>,
    edges: Vec<BTreeSet<FactId>>,
}

impl Hypergraph {
    /// Builds a hypergraph from explicit vertices and hyperedges.
    pub fn new(vertices: BTreeSet<FactId>, edges: Vec<BTreeSet<FactId>>) -> Hypergraph {
        for e in &edges {
            assert!(e.is_subset(&vertices), "hyperedges must only use declared vertices");
        }
        Hypergraph { vertices, edges }
    }

    /// The hypergraph of matches `H_{L,D}` of a finite language on a database.
    pub fn of_matches(db: &GraphDb, language: &FiniteLanguage) -> Hypergraph {
        let vertices: BTreeSet<FactId> = db.fact_ids().collect();
        let edges = enumerate_matches(db, language);
        Hypergraph { vertices, edges }
    }

    /// The hypergraph of matches of an arbitrary regular language on an
    /// **acyclic** database (used by the hardness gadgets of Section 5, whose
    /// languages may be infinite). Returns `None` if the database has a cycle.
    pub fn of_matches_regular(db: &GraphDb, language: &Language) -> Option<Hypergraph> {
        let vertices: BTreeSet<FactId> = db.fact_ids().collect();
        let edges = enumerate_matches_regular(db, language)?;
        Some(Hypergraph { vertices, edges })
    }

    /// The vertices (facts).
    pub fn vertices(&self) -> &BTreeSet<FactId> {
        &self.vertices
    }

    /// The hyperedges (matches).
    pub fn edges(&self) -> &[BTreeSet<FactId>] {
        &self.edges
    }

    /// Whether a fact set is a hitting set (intersects every hyperedge).
    pub fn is_hitting_set(&self, set: &BTreeSet<FactId>) -> bool {
        self.edges.iter().all(|e| !e.is_disjoint(set))
    }

    /// Applies the two condensation rules (edge-domination and
    /// node-domination) until no more apply, never removing the vertices in
    /// `protected` by node-domination.
    ///
    /// By Claim 4.8 the minimum size of a hitting set is preserved. Protecting
    /// vertices is needed when checking Definition 4.9, which asks for *some*
    /// condensation forming an odd path between the two endpoint facts (which
    /// must therefore survive).
    pub fn condense(&self, protected: &BTreeSet<FactId>) -> Hypergraph {
        let mut vertices = self.vertices.clone();
        let mut edges = self.edges.clone();
        loop {
            let mut changed = false;

            // Edge-domination: drop any edge that is a (non-strict) superset of
            // another edge. Also drop duplicate edges.
            let mut kept: Vec<BTreeSet<FactId>> = Vec::new();
            for (i, e) in edges.iter().enumerate() {
                let dominated = edges
                    .iter()
                    .enumerate()
                    .any(|(j, other)| i != j && other.is_subset(e) && (other != e || j < i));
                if dominated {
                    changed = true;
                } else {
                    kept.push(e.clone());
                }
            }
            edges = kept;

            // Node-domination: remove a vertex v (not protected) whose incident
            // edge set is included in that of another vertex v'.
            let vertex_list: Vec<FactId> = vertices.iter().copied().collect();
            'outer: for &v in &vertex_list {
                if protected.contains(&v) {
                    continue;
                }
                let edges_v: Vec<usize> =
                    (0..edges.len()).filter(|&i| edges[i].contains(&v)).collect();
                for &v2 in &vertex_list {
                    if v2 == v {
                        continue;
                    }
                    let dominated = edges_v.iter().all(|&i| edges[i].contains(&v2));
                    if dominated {
                        vertices.remove(&v);
                        for e in &mut edges {
                            e.remove(&v);
                        }
                        changed = true;
                        break 'outer;
                    }
                }
            }

            if !changed {
                break;
            }
        }
        Hypergraph { vertices, edges }
    }

    /// Computes a minimum hitting set exactly (branch and bound over
    /// hyperedges). `weights` gives the cost of each vertex; pass `|_| 1` for
    /// plain cardinality.
    ///
    /// This is exponential in general (hitting set is NP-hard); it is intended
    /// for the gadget databases and small validation instances.
    pub fn minimum_hitting_set(
        &self,
        weights: impl Fn(FactId) -> u64 + Copy,
    ) -> (u128, BTreeSet<FactId>) {
        // Start from the trivial hitting set: all vertices occurring in edges.
        let mut best_set: BTreeSet<FactId> =
            self.edges.iter().flat_map(|e| e.iter().copied()).collect();
        let mut best_cost: u128 = best_set.iter().map(|&v| weights(v) as u128).sum();
        if self.edges.iter().any(|e| e.is_empty()) {
            // An empty hyperedge cannot be hit: by convention (matching
            // resilience with ε ∈ L) the minimum is unbounded; we signal this
            // with u128::MAX.
            return (u128::MAX, BTreeSet::new());
        }
        let mut current = BTreeSet::new();
        self.hitting_branch(0, &mut current, 0, &mut best_cost, &mut best_set, weights);
        (best_cost, best_set)
    }

    fn hitting_branch(
        &self,
        cost: u128,
        current: &mut BTreeSet<FactId>,
        from_edge: usize,
        best_cost: &mut u128,
        best_set: &mut BTreeSet<FactId>,
        weights: impl Fn(FactId) -> u64 + Copy,
    ) {
        if cost >= *best_cost {
            return;
        }
        // Find the first edge not yet hit.
        let next = (from_edge..self.edges.len()).find(|&i| self.edges[i].is_disjoint(current));
        let Some(edge_index) = next else {
            *best_cost = cost;
            *best_set = current.clone();
            return;
        };
        let candidates: Vec<FactId> = self.edges[edge_index].iter().copied().collect();
        for v in candidates {
            current.insert(v);
            self.hitting_branch(
                cost + weights(v) as u128,
                current,
                edge_index + 1,
                best_cost,
                best_set,
                weights,
            );
            current.remove(&v);
        }
    }

    /// Checks whether the hypergraph is an **odd path** from `from` to `to`
    /// (Definition 4.9): every hyperedge has size 2, and the graph formed by
    /// the non-isolated vertices is a simple path `from = w₁ — w₂ — … — w₂ₖ = to`
    /// (an even number of vertices, hence an odd number of edges). Isolated
    /// vertices are ignored.
    pub fn is_odd_path(&self, from: FactId, to: FactId) -> bool {
        if self.edges.iter().any(|e| e.len() != 2) {
            return false;
        }
        if from == to {
            return false;
        }
        // Build adjacency between facts.
        let mut adjacency: std::collections::BTreeMap<FactId, BTreeSet<FactId>> =
            std::collections::BTreeMap::new();
        for e in &self.edges {
            let items: Vec<FactId> = e.iter().copied().collect();
            adjacency.entry(items[0]).or_default().insert(items[1]);
            adjacency.entry(items[1]).or_default().insert(items[0]);
        }
        let Some(from_adj) = adjacency.get(&from) else { return false };
        if from_adj.len() != 1 {
            return false;
        }
        // Walk from `from` and check we traverse a simple path ending at `to`
        // covering all edges.
        let mut visited: BTreeSet<FactId> = BTreeSet::from([from]);
        let mut current = from;
        loop {
            let next: Vec<FactId> =
                adjacency[&current].iter().copied().filter(|n| !visited.contains(n)).collect();
            match next.len() {
                0 => break,
                1 => {
                    current = next[0];
                    if adjacency[&current].len() > 2 {
                        return false;
                    }
                    visited.insert(current);
                }
                _ => return false,
            }
        }
        if current != to {
            return false;
        }
        // All non-isolated vertices must be on the path, and the number of
        // edges (= vertices on the path − 1) must be odd.
        if visited.len() != adjacency.len() {
            return false;
        }
        (visited.len() - 1) % 2 == 1 && self.edges.len() == visited.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::Word;
    use rpq_graphdb::generate::word_path;

    fn fid(i: u32) -> FactId {
        FactId(i)
    }

    fn hg(num_vertices: u32, edges: &[&[u32]]) -> Hypergraph {
        Hypergraph::new(
            (0..num_vertices).map(FactId).collect(),
            edges.iter().map(|e| e.iter().map(|&i| fid(i)).collect()).collect(),
        )
    }

    #[test]
    fn of_matches_on_a_path() {
        let db = word_path(&Word::from_str_word("aaa"));
        let h = Hypergraph::of_matches(&db, &FiniteLanguage::from_strs(["aa"]));
        assert_eq!(h.vertices().len(), 3);
        assert_eq!(h.edges().len(), 2);
        let (cost, set) = h.minimum_hitting_set(|_| 1);
        assert_eq!(cost, 1);
        assert!(h.is_hitting_set(&set));
    }

    #[test]
    fn of_matches_regular_handles_infinite_languages() {
        let db = word_path(&Word::from_str_word("axxb"));
        let lang = Language::parse("ax*b").unwrap();
        let h = Hypergraph::of_matches_regular(&db, &lang).unwrap();
        assert_eq!(h.edges().len(), 1);
        assert_eq!(h.edges()[0].len(), 4);
    }

    #[test]
    fn hitting_set_with_weights() {
        let h = hg(3, &[&[0, 1], &[1, 2]]);
        let (cost, set) = h.minimum_hitting_set(|_| 1);
        assert_eq!(cost, 1);
        assert_eq!(set, [fid(1)].into_iter().collect());
        // Make the middle vertex expensive: the optimum switches to {0, 2}.
        let (cost, set) = h.minimum_hitting_set(|v| if v == fid(1) { 10 } else { 1 });
        assert_eq!(cost, 2);
        assert_eq!(set, [fid(0), fid(2)].into_iter().collect());
    }

    #[test]
    fn hitting_set_with_empty_edge_is_unbounded() {
        let h = hg(2, &[&[0], &[]]);
        let (cost, _) = h.minimum_hitting_set(|_| 1);
        assert_eq!(cost, u128::MAX);
    }

    #[test]
    fn edge_domination() {
        // Edge {0,1} dominates {0,1,2}: the latter disappears.
        let h = hg(3, &[&[0, 1], &[0, 1, 2]]);
        let c = h.condense(&BTreeSet::new());
        assert_eq!(c.edges().len(), 1);
        // Hitting-set size preserved.
        assert_eq!(h.minimum_hitting_set(|_| 1).0, c.minimum_hitting_set(|_| 1).0);
    }

    #[test]
    fn node_domination() {
        // Vertex 2 only appears in the edge {1,2}; vertex 1 appears in both
        // edges, so 2 is dominated by 1 and can be removed.
        let h = hg(3, &[&[0, 1], &[1, 2]]);
        let protected = BTreeSet::from([fid(0)]);
        let c = h.condense(&protected);
        assert!(!c.vertices().contains(&fid(2)) || !c.vertices().contains(&fid(1)));
        assert_eq!(h.minimum_hitting_set(|_| 1).0, 1);
    }

    #[test]
    fn condensation_preserves_hitting_set_size() {
        // Claim 4.8, checked on a batch of small hypergraphs.
        let cases = vec![
            hg(4, &[&[0, 1], &[1, 2], &[2, 3]]),
            hg(5, &[&[0, 1, 2], &[2, 3], &[3, 4], &[0, 4]]),
            hg(6, &[&[0, 1], &[1, 2, 3], &[3, 4], &[4, 5], &[0, 5]]),
            hg(4, &[&[0], &[0, 1], &[2, 3], &[1, 2, 3]]),
        ];
        for h in cases {
            let c = h.condense(&BTreeSet::new());
            assert_eq!(
                h.minimum_hitting_set(|_| 1).0,
                c.minimum_hitting_set(|_| 1).0,
                "condensation must preserve the minimum hitting-set size"
            );
        }
    }

    #[test]
    fn odd_path_recognition() {
        // 0-1-2-3: 3 edges (odd) between endpoints 0 and 3.
        let path = hg(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        assert!(path.is_odd_path(fid(0), fid(3)));
        assert!(path.is_odd_path(fid(3), fid(0)));
        assert!(!path.is_odd_path(fid(0), fid(2)));
        // Even path: 0-1-2 has 2 edges.
        let even = hg(3, &[&[0, 1], &[1, 2]]);
        assert!(!even.is_odd_path(fid(0), fid(2)));
        // A cycle is not a path.
        let cycle = hg(4, &[&[0, 1], &[1, 2], &[2, 3], &[3, 0]]);
        assert!(!cycle.is_odd_path(fid(0), fid(3)));
        // A branching vertex disqualifies.
        let star = hg(4, &[&[0, 1], &[1, 2], &[1, 3]]);
        assert!(!star.is_odd_path(fid(0), fid(3)));
        // Hyperedges of size 3 disqualify.
        let hyper = hg(4, &[&[0, 1, 2], &[2, 3]]);
        assert!(!hyper.is_odd_path(fid(0), fid(3)));
        // Isolated vertices are ignored.
        let with_isolated = hg(5, &[&[0, 1], &[1, 2], &[2, 3]]);
        assert!(with_isolated.is_odd_path(fid(0), fid(3)));
        // A disconnected extra component disqualifies (its vertices are not on the path).
        let disconnected = hg(6, &[&[0, 1], &[1, 2], &[2, 3], &[4, 5]]);
        assert!(!disconnected.is_odd_path(fid(0), fid(3)));
    }

    #[test]
    fn figure_3_gadget_for_aa_condenses_to_an_odd_path() {
        // Reproduce Figure 3b/3c: the completed gadget for aa.
        let mut db = GraphDb::new();
        let f_in = db.add_fact_by_names("su", 'a', "tu"); // endpoint fact F_in
        let g1 = db.add_fact_by_names("tu", 'a', "1");
        let _g2 = db.add_fact_by_names("1", 'a', "2");
        let _g3 = db.add_fact_by_names("2", 'a', "3");
        let _g4 = db.add_fact_by_names("tv", 'a', "2");
        let f_out = db.add_fact_by_names("sv", 'a', "tv"); // endpoint fact F_out
        let h = Hypergraph::of_matches(&db, &FiniteLanguage::from_strs(["aa"]));
        // The graph of aa-matches is a path of length 5 (Figure 3c).
        assert_eq!(h.edges().len(), 5);
        let protected = BTreeSet::from([f_in, f_out]);
        let c = h.condense(&protected);
        assert!(c.is_odd_path(f_in, f_out));
        // Sanity: the first edge of the path is {F_in, tu -a-> 1}.
        assert!(h.edges().contains(&[f_in, g1].into_iter().collect()));
    }
}
