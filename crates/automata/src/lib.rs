//! # `rpq-automata`: formal-language substrate for RPQ resilience
//!
//! This crate implements every language-theoretic tool needed by the paper
//! *"Resilience for Regular Path Queries: Towards a Complexity Classification"*
//! (PODS 2025):
//!
//! * regular-expression parsing and Thompson construction ([`regex`]),
//! * ε-NFAs and complete DFAs with the usual closure operations ([`enfa`], [`dfa`]),
//! * a high-level [`Language`] handle (membership, finiteness,
//!   infix-free sublanguage `IF(L)`, mirror, Boolean operations),
//! * Brzozowski derivatives ([`derivative`]), the independent oracle of the
//!   automaton pipeline,
//! * **local languages** and their equivalent letter-Cartesian characterization
//!   ([`local`], Definition 3.1 / Proposition 3.5 of the paper),
//! * **read-once ε-NFAs** ([`ro_enfa`], Definition 3.15 / Lemma 3.17),
//! * **four-legged languages** ([`four_legged`], Definition 5.1 / Lemma 5.5),
//! * neutral letters ([`neutral`], used for Proposition 5.7),
//! * finite-language utilities: repeated letters, maximal-gap words, chain
//!   languages and bipartiteness, one-dangling decompositions ([`finite`],
//!   Sections 6 and 7).
//!
//! Every language takes one path to its canonical automaton: regex →
//! Thompson ε-NFA ([`regex::Regex::to_enfa`]) → subset construction
//! ([`enfa::Enfa::determinize`]) → Hopcroft minimization
//! ([`dfa::Dfa::minimize`]). Concatenation, mirrors and `IF(L)` go through
//! the same subset construction, and every [`Language`] DFA through the same
//! minimizer.
//!
//! The crate has no dependencies and is deliberately self-contained: the other
//! crates of the workspace (graph databases, flow networks, resilience
//! algorithms) build on top of it.
//!
//! ## Quick example
//!
//! ```
//! use rpq_automata::prelude::*;
//!
//! // The language a x* b from the paper's introduction (Figure 2a).
//! let lang = Language::parse("a x* b").unwrap();
//! assert!(lang.contains_str("axxb").unwrap());
//! assert!(rpq_automata::local::is_local(&lang));
//!
//! // The language aa is not local (Example 3.4) and has a repeated letter.
//! let aa = Language::parse("a a").unwrap();
//! assert!(!rpq_automata::local::is_local(&aa));
//! ```

#![forbid(unsafe_code)]
pub mod alphabet;
pub mod derivative;
pub mod dfa;
pub mod enfa;
pub mod error;
pub mod finite;
pub mod four_legged;
pub mod language;
pub mod local;
pub mod neutral;
pub mod regex;
pub mod ro_enfa;
pub mod word;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::alphabet::{Alphabet, Letter};
    pub use crate::dfa::Dfa;
    pub use crate::enfa::Enfa;
    pub use crate::error::AutomataError;
    pub use crate::finite::FiniteLanguage;
    pub use crate::language::Language;
    pub use crate::regex::Regex;
    pub use crate::ro_enfa::RoEnfa;
    pub use crate::word::Word;
}

pub use alphabet::{Alphabet, Letter};
pub use error::AutomataError;
pub use language::Language;
pub use word::Word;
