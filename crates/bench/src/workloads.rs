//! Workload definitions shared by the benchmark harness.

use rpq_automata::{Alphabet, Language, Word};
use rpq_graphdb::generate::{flow_instance, layered_instance, random_labeled_graph};
use rpq_graphdb::GraphDb;

/// A named workload: a query language and a family of databases indexed by a
/// size parameter.
pub struct ScalingWorkload {
    /// Short name used in benchmark ids and in `EXPERIMENTS.md`.
    pub name: &'static str,
    /// The regular expression of the query.
    pub pattern: &'static str,
    /// The database sizes (|D| targets) to sweep.
    pub sizes: Vec<usize>,
    /// Builds the database for a given size.
    pub build: fn(usize) -> GraphDb,
}

/// The query language of a workload.
pub fn workload_language(workload: &ScalingWorkload) -> Language {
    Language::parse(workload.pattern).expect("workload patterns parse")
}

/// Builds a flow-shaped `a x* b` database with roughly `size` facts
/// (Theorem 3.13 / MinCut equivalence workloads).
pub fn flow_db_of_size(size: usize) -> GraphDb {
    // layers * width * out_degree ≈ size; keep 8 layers and adjust the width.
    let layers = 8;
    let out_degree = 2;
    let width = (size / (layers * out_degree)).max(1);
    flow_instance(layers, width, out_degree, 16, 0xC0FFEE)
}

/// Builds a layered database over the alphabet of `ab|ad|cd` with roughly
/// `size` facts (local-language scaling workload).
pub fn local_db_of_size(size: usize) -> GraphDb {
    let layers = 6;
    let out_degree = 2;
    let width = (size / (layers * out_degree)).max(1);
    layered_instance(&Alphabet::from_chars("abcd"), layers, width, out_degree, 0xBEEF)
}

/// Builds a random database over `{a, b, c}` with roughly `size` facts
/// (bipartite-chain scaling workload for `ab|bc`).
pub fn chain_db_of_size(size: usize) -> GraphDb {
    random_labeled_graph((size / 3).max(2), size, &Alphabet::from_chars("abc"), 0xABCD)
}

/// Builds a random database over `{a, b, c, e}` with roughly `size` facts
/// (one-dangling scaling workload for `abc|be`).
pub fn one_dangling_db_of_size(size: usize) -> GraphDb {
    random_labeled_graph((size / 3).max(2), size, &Alphabet::from_chars("abce"), 0x0DD)
}

/// The scaling workloads used by the `scaling_*` benchmarks (Theorem 3.13,
/// Proposition 7.6, Proposition 7.9).
pub fn scaling_workloads() -> Vec<ScalingWorkload> {
    vec![
        ScalingWorkload {
            name: "local_ax_star_b_flow",
            pattern: "ax*b",
            sizes: vec![512, 2048, 8192, 32768],
            build: flow_db_of_size,
        },
        ScalingWorkload {
            name: "local_ab_ad_cd_layered",
            pattern: "ab|ad|cd",
            sizes: vec![512, 2048, 8192, 32768],
            build: local_db_of_size,
        },
        ScalingWorkload {
            name: "chain_ab_bc_random",
            pattern: "ab|bc",
            sizes: vec![256, 1024, 4096],
            build: chain_db_of_size,
        },
        ScalingWorkload {
            name: "one_dangling_abc_be_random",
            pattern: "abc|be",
            sizes: vec![256, 1024, 4096],
            build: one_dangling_db_of_size,
        },
    ]
}

/// A small `aa`-workload database: a path of `n` `a`-facts (the exact solver
/// baseline used by the `exact_vs_poly` benchmark on an NP-hard language).
pub fn aa_path_db(n: usize) -> GraphDb {
    let word = Word::from_letters(std::iter::repeat_n(rpq_automata::alphabet::Letter('a'), n));
    rpq_graphdb::generate::word_path(&word)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graphdb::satisfies;

    #[test]
    fn workload_databases_have_roughly_the_requested_size() {
        for workload in scaling_workloads() {
            let language = workload_language(&workload);
            for &size in &workload.sizes[..1] {
                let db = (workload.build)(size);
                assert!(db.num_facts() > 0);
                // The query should generally be satisfiable on the workload,
                // otherwise the benchmark would measure trivial work; accept
                // either but make sure evaluation runs.
                let _ = satisfies(&db, &language);
            }
        }
    }

    #[test]
    fn aa_path_db_has_n_facts() {
        assert_eq!(aa_path_db(12).num_facts(), 12);
    }
}
