//! Hardness gadgets (Section 4.2–4.4 of the paper).
//!
//! A **pre-gadget** is a database with two distinguished elements `t_in`,
//! `t_out` (never heads of facts) and a letter `a`; its **completion** adds
//! endpoint facts `s_in --a--> t_in` and `s_out --a--> t_out`. The pre-gadget
//! is a **gadget** for a language `L` (Definition 4.9) when the hypergraph of
//! matches of `L` on the completion condenses to an odd path between the two
//! endpoint facts. Gadgets imply NP-hardness of resilience via a reduction
//! from minimum vertex cover (Proposition 4.11): the input graph is encoded by
//! replacing each edge with a copy of the gadget (Definition 4.5).
//!
//! This module is the analogue of the paper's companion implementation \[3\]: it
//! mechanically re-verifies the gadgets (the concrete ones from the paper's
//! figures live in [`library`]) and provides the graph-encoding machinery used
//! to validate the reduction end to end on small instances.

pub mod families;
pub mod library;

use crate::hypergraph::Hypergraph;
use crate::reductions::UndirectedGraph;
use rpq_automata::alphabet::Letter;
use rpq_automata::Language;
use rpq_graphdb::{eval::has_directed_cycle, FactId, GraphDb, NodeId};
use std::collections::BTreeSet;
use std::fmt;

/// A pre-gadget (Definition 4.3).
#[derive(Debug, Clone)]
pub struct PreGadget {
    db: GraphDb,
    t_in: NodeId,
    t_out: NodeId,
    letter: Letter,
}

/// Errors raised when constructing or using gadgets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GadgetError(pub String);

impl fmt::Display for GadgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid gadget: {}", self.0)
    }
}

impl std::error::Error for GadgetError {}

/// The completion of a pre-gadget (Definition 4.3): the database with the two
/// endpoint facts added.
#[derive(Debug, Clone)]
pub struct CompletedGadget {
    /// The completed database `D'`.
    pub db: GraphDb,
    /// The endpoint fact `F_in = s_in --a--> t_in`.
    pub f_in: FactId,
    /// The endpoint fact `F_out = s_out --a--> t_out`.
    pub f_out: FactId,
}

/// The result of mechanically verifying a gadget against a language
/// (Definition 4.9), in the spirit of the paper's companion implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GadgetReport {
    /// Whether the pre-gadget conditions hold and the condensed hypergraph of
    /// matches is an odd path between the endpoint facts.
    pub is_valid: bool,
    /// Number of matches of the language on the completion.
    pub num_matches: usize,
    /// The number of edges of the condensed odd path (the subdivision length ℓ),
    /// when the gadget is valid.
    pub path_length: Option<usize>,
    /// Human-readable explanation when the gadget is invalid.
    pub failure: Option<String>,
}

impl PreGadget {
    /// Builds a pre-gadget, checking Definition 4.3's conditions: the
    /// in-element and out-element are distinct and never occur as heads of
    /// facts.
    pub fn new(
        db: GraphDb,
        t_in: NodeId,
        t_out: NodeId,
        letter: Letter,
    ) -> Result<PreGadget, GadgetError> {
        if t_in == t_out {
            return Err(GadgetError("t_in and t_out must be distinct".into()));
        }
        for (_, fact) in db.facts() {
            if fact.target == t_in || fact.target == t_out {
                return Err(GadgetError(format!(
                    "element {} occurs as the head of a fact",
                    db.node_name(fact.target)
                )));
            }
        }
        Ok(PreGadget { db, t_in, t_out, letter })
    }

    /// The pre-gadget database `D`.
    pub fn db(&self) -> &GraphDb {
        &self.db
    }

    /// The in-element `t_in`.
    pub fn t_in(&self) -> NodeId {
        self.t_in
    }

    /// The out-element `t_out`.
    pub fn t_out(&self) -> NodeId {
        self.t_out
    }

    /// The endpoint letter `a`.
    pub fn letter(&self) -> Letter {
        self.letter
    }

    /// The completion `D'` of the pre-gadget, with the two endpoint facts.
    pub fn completion(&self) -> CompletedGadget {
        let mut db = self.db.clone();
        let s_in = db.node("__s_in");
        let s_out = db.node("__s_out");
        let f_in = db.add_fact(s_in, self.letter, self.t_in);
        let f_out = db.add_fact(s_out, self.letter, self.t_out);
        CompletedGadget { db, f_in, f_out }
    }

    /// Mechanically verifies that the pre-gadget is a gadget for `language`
    /// (Definition 4.9). The verification enumerates the matches of the
    /// language on the completion (which must be acyclic), condenses the
    /// hypergraph of matches while protecting the endpoint facts, and checks
    /// that the result is an odd path between them.
    pub fn verify(&self, language: &Language) -> GadgetReport {
        let completion = self.completion();
        if has_directed_cycle(&completion.db) {
            return GadgetReport {
                is_valid: false,
                num_matches: 0,
                path_length: None,
                failure: Some("the completed gadget has a directed cycle".into()),
            };
        }
        let Some(hypergraph) = Hypergraph::of_matches_regular(&completion.db, language) else {
            return GadgetReport {
                is_valid: false,
                num_matches: 0,
                path_length: None,
                failure: Some("match enumeration failed".into()),
            };
        };
        let num_matches = hypergraph.edges().len();
        let protected: BTreeSet<FactId> = [completion.f_in, completion.f_out].into_iter().collect();
        let condensed = hypergraph.condense(&protected);
        if condensed.is_odd_path(completion.f_in, completion.f_out) {
            GadgetReport {
                is_valid: true,
                num_matches,
                path_length: Some(condensed.edges().len()),
                failure: None,
            }
        } else {
            GadgetReport {
                is_valid: false,
                num_matches,
                path_length: None,
                failure: Some(format!(
                    "the condensed hypergraph of matches ({} vertices, {} edges) is not an odd path",
                    condensed.vertices().len(),
                    condensed.edges().len()
                )),
            }
        }
    }

    /// Encodes a directed graph with this pre-gadget (Definition 4.5): one
    /// `a`-fact `s_u → t_u` per vertex, and one fresh copy of the pre-gadget
    /// per edge `(u, v)`, identifying its in-element with `t_u` and its
    /// out-element with `t_v`.
    ///
    /// The input is an [`UndirectedGraph`]; edges are oriented from their
    /// smaller to their larger endpoint (the orientation is arbitrary, cf. the
    /// proof of Proposition 4.11).
    pub fn encode_graph(&self, graph: &UndirectedGraph) -> GraphDb {
        let mut out = GraphDb::new();
        // Vertex facts.
        let mut t_nodes: Vec<NodeId> = Vec::with_capacity(graph.num_vertices);
        for u in 0..graph.num_vertices {
            let s_u = out.node(&format!("s_{u}"));
            let t_u = out.node(&format!("t_{u}"));
            out.add_fact(s_u, self.letter, t_u);
            t_nodes.push(t_u);
        }
        // One copy of the pre-gadget per edge.
        for (edge_index, &(u, v)) in graph.edges.iter().enumerate() {
            for (_, fact) in self.db.facts() {
                let map = |node: NodeId, out: &mut GraphDb| -> NodeId {
                    if node == self.t_in {
                        t_nodes[u]
                    } else if node == self.t_out {
                        t_nodes[v]
                    } else {
                        out.node(&format!("e{edge_index}_{}", self.db.node_name(node)))
                    }
                };
                let source = map(fact.source, &mut out);
                let target = map(fact.target, &mut out);
                out.add_fact(source, fact.label, target);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::resilience_exact;
    use crate::reductions::subdivision_vertex_cover_number;
    use crate::rpq::{ResilienceValue, Rpq};

    #[test]
    fn pre_gadget_conditions_are_enforced() {
        // t_in occurring as a head is rejected.
        let mut db = GraphDb::new();
        let t_in = db.node("t_in");
        let t_out = db.node("t_out");
        let other = db.node("x");
        db.add_fact(other, Letter('a'), t_in);
        assert!(PreGadget::new(db.clone(), t_in, t_out, Letter('a')).is_err());
        // Distinctness is required.
        let db2 = GraphDb::new();
        let mut db2 = db2;
        let t = db2.node("t");
        assert!(PreGadget::new(db2, t, t, Letter('a')).is_err());
        // A well-formed pre-gadget is accepted.
        let mut db3 = GraphDb::new();
        let t_in = db3.node("t_in");
        let t_out = db3.node("t_out");
        let mid = db3.node("m");
        db3.add_fact(t_in, Letter('a'), mid);
        db3.add_fact(t_out, Letter('a'), mid);
        let g = PreGadget::new(db3, t_in, t_out, Letter('a')).unwrap();
        assert_eq!(g.letter(), Letter('a'));
        assert_ne!(g.t_in(), g.t_out());
    }

    #[test]
    fn completion_adds_two_endpoint_facts() {
        let gadget = library::gadget_aa();
        let completion = gadget.completion();
        assert_eq!(completion.db.num_facts(), gadget.db().num_facts() + 2);
        assert_ne!(completion.f_in, completion.f_out);
    }

    #[test]
    fn invalid_gadget_is_reported() {
        // A pre-gadget whose matches do NOT condense to an odd path for aa:
        // a single a-fact out of t_in (one match of even path length 1? no —
        // one match {F_in, g} IS an odd path of length 1; use a gadget with no
        // connection to t_out instead, which fails the path check).
        let mut db = GraphDb::new();
        let t_in = db.node("t_in");
        let t_out = db.node("t_out");
        let m = db.node("m");
        db.add_fact(t_in, Letter('a'), m);
        let _ = t_out;
        let gadget = PreGadget::new(db, t_in, t_out, Letter('a')).unwrap();
        let report = gadget.verify(&Language::parse("aa").unwrap());
        assert!(!report.is_valid);
        assert!(report.failure.is_some());
    }

    #[test]
    fn encoding_reproduces_proposition_4_1() {
        // End-to-end check of Proposition 4.11 with the aa gadget: the
        // resilience of the encoding equals vc(G) + m(ℓ−1)/2.
        let gadget = library::gadget_aa();
        let language = Language::parse("aa").unwrap();
        let report = gadget.verify(&language);
        assert!(report.is_valid);
        let ell = report.path_length.unwrap();
        assert_eq!(ell, 5);

        let query = Rpq::new(language);
        for graph in [
            UndirectedGraph::cycle(3),
            UndirectedGraph::new(4, [(0, 1), (1, 2), (2, 3)]),
            UndirectedGraph::new(3, [(0, 1)]),
        ] {
            let encoding = gadget.encode_graph(&graph);
            let resilience = resilience_exact(&query, &encoding).value;
            let expected = subdivision_vertex_cover_number(&graph, ell);
            assert_eq!(
                resilience,
                ResilienceValue::Finite(expected as u128),
                "graph with {} vertices / {} edges",
                graph.num_vertices,
                graph.num_edges()
            );
        }
    }
}
