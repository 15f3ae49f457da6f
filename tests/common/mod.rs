//! Corpus shared by the engine integration tests (`engine_dispatch.rs`,
//! `contingency_sets.rs`): keeping it in one place means a newly added family
//! automatically gains both dispatcher-agreement and witness coverage.

// Each integration-test crate compiles its own copy of this module and uses
// only a subset of it.
#![allow(dead_code)]

use rpq::resilience::algorithms::Algorithm;

/// (alphabet, patterns, the algorithm `solve` must select for them): one
/// entry per dispatch family.
pub const FAMILIES: &[(&str, &[&str], Algorithm)] = &[
    ("abx", &["ax*b", "ab|ax", "a|b"], Algorithm::Local),
    // (`ab|cb` is excluded: its infix-free form is local, so `solve`
    // legitimately prefers the Theorem 3.13 algorithm over the chain one.)
    ("abc", &["ab|bc", "axb|byc"], Algorithm::BipartiteChain),
    // (`ab|ce` is likewise local and routes to Theorem 3.13 first.)
    // `cba|eb` is the mirror of `abc|be`: its normalization reverses every
    // database (Proposition 6.3), covering the mirrored witness mapping.
    ("abce", &["abc|be", "cba|eb"], Algorithm::OneDangling),
    ("ab", &["aa", "ab|bb"], Algorithm::ExactBranchAndBound),
];
