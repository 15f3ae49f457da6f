//! Proposition 7.6: resilience of bipartite chain languages via MinCut.
//!
//! A chain language has no repeated letters and its words only interact
//! through their endpoint letters; when the endpoint graph is bipartite, the
//! words can be split into *forward* words (read from the source partition to
//! the target partition) and *reversed* words (read the other way). The flow
//! network then has one finite-capacity edge per fact (`start` → `end`
//! vertices) and infinite wiring edges that follow forward words left-to-right
//! and reversed words right-to-left, so that source-to-target paths correspond
//! exactly to query matches.
//!
//! The plan gives every word letter a role (`LetterRole`), computed once per
//! query. In a bipartite chain language a source-side endpoint letter never
//! follows another letter in a forward word nor precedes one in a reversed
//! word, so the start vertex of its facts has no in-edge but the source
//! attachment and *is* the source; mirror-wise the end vertex of a
//! target-side endpoint letter's facts is the target. On `ab|bc` every fact
//! keeps one vertex of its two (32,770 → 16,386 vertices on the
//! `engine_solve` benchmark's 16k-fact database), and the cut edges do not
//! change.
//!
//! The plan also numbers the roles. A solve resolves each fact's role id
//! once (through an ASCII table, or a sorted fallback for other letters)
//! and wires two consecutive facts by looking the second one's role id up
//! among the digrams of the first one's, in tables linear in the number of
//! digrams.

use super::{Algorithm, ResilienceError, ResilienceOutcome, SolveScratch};
use crate::rpq::{ResilienceValue, Rpq};
use rpq_automata::alphabet::Letter;
use rpq_automata::finite::FiniteLanguage;
use rpq_automata::word::Word;
use rpq_automata::Language;
use rpq_flow::{Capacity, VertexId};
use rpq_graphdb::{FactId, GraphDb};
use rpq_obs::Trace;
use std::collections::{BTreeMap, BTreeSet};

/// The query-only half of the Proposition 7.6 reduction: everything derived
/// from the (bipartite chain) language alone, reusable across databases.
#[derive(Debug, Clone)]
pub(crate) struct ChainPlan {
    /// `ε ∈ IF(L)`: the resilience is `+∞` on every database.
    epsilon: bool,
    /// The words of length ≥ 2.
    words: Vec<Word>,
    /// The role of every letter of a word of length ≥ 2, indexed by role id
    /// (see [`LetterRole`]).
    roles: Vec<LetterRole>,
    /// The role code of every letter with one, sorted by letter: role ids,
    /// and [`SINGLE`] for the letters of single-letter words. Non-ASCII
    /// letters are looked up here.
    codes: Vec<(Letter, u32)>,
    /// The role code of every ASCII letter, [`NO_ROLE`] when it has none.
    ascii_codes: Box<[u32; 128]>,
    /// The digrams of the words, grouped by the role id of their first
    /// letter: `digrams[digram_start[r]..digram_start[r + 1]]` lists the
    /// role ids of the letters that follow `r`'s letter, ascending, with the
    /// [`FORWARD`] / [`REVERSED`] kinds of the digram.
    digram_start: Vec<usize>,
    digrams: Vec<(u32, u8)>,
}

/// The role code of a letter no word of length ≥ 2 uses: its facts stay out
/// of the network. Role ids are below both reserved codes, since letters are
/// `char`s and there are fewer than 2^21 of them.
const NO_ROLE: u32 = u32::MAX;
/// The role code of a single-letter word's letter: its facts are
/// force-removed.
const SINGLE: u32 = u32::MAX - 1;
/// Digram kinds: consecutive letters of a forward / reversed word.
const FORWARD: u8 = 1;
const REVERSED: u8 = 2;

/// What a letter's facts contribute to the Proposition 7.6 network. The
/// roles depend on the language alone, so [`ChainPlan`] computes them once.
///
/// A fact's start vertex is entered by the source attachment (when its
/// letter is a source-side endpoint letter), by forward wiring from facts
/// whose letter precedes it in a forward word, and by reversed wiring from
/// facts whose letter follows it in a reversed word. When only the source
/// attachment can enter it, every in-edge of the vertex is an infinite edge
/// from the source: the vertex lies on the source side of every finite cut,
/// and of the unique minimal one, so it *is* the source. The end vertex is
/// the target under the mirror-image rule. Merging shrinks the network
/// without changing its cut edges: the fact edges are emitted first and in
/// the same order, and the minimal source side is the same.
#[derive(Debug, Clone, Copy)]
struct LetterRole {
    /// A source-side endpoint letter: the source attaches to start vertices.
    source_attached: bool,
    /// A target-side endpoint letter: end vertices attach to the target.
    target_attached: bool,
    /// Source-attached, and no forward digram ends with the letter and no
    /// reversed digram starts with it: the start vertex is the source.
    start_is_source: bool,
    /// Target-attached, and no forward digram starts with the letter and no
    /// reversed digram ends with it: the end vertex is the target.
    end_is_target: bool,
}

impl ChainPlan {
    /// Analyses `IF(language)`; errors with [`ResilienceError::NotApplicable`]
    /// when it is not a bipartite chain language. `display` renders the
    /// original query language in error messages.
    pub(crate) fn from_infix_free(
        language: &Language,
        display: &Language,
    ) -> Result<ChainPlan, ResilienceError> {
        let not_applicable = |reason: String| ResilienceError::NotApplicable {
            algorithm: Algorithm::BipartiteChain,
            reason,
        };
        let finite = FiniteLanguage::from_language(language)
            .map_err(|_| not_applicable(format!("IF({display}) is infinite")))?;
        if !finite.is_chain_language() {
            return Err(not_applicable(format!("IF({display}) is not a chain language")));
        }
        let Some((source_letters, target_letters)) = finite.endpoint_bipartition() else {
            return Err(not_applicable(format!(
                "the endpoint graph of IF({display}) is not bipartite"
            )));
        };

        let epsilon = finite.words().iter().any(Word::is_empty);
        let single_letters: BTreeSet<Letter> =
            finite.words().iter().filter(|w| w.len() == 1).map(|w| w.letter_at(0)).collect();
        let words: Vec<Word> = finite.words().iter().filter(|w| w.len() >= 2).cloned().collect();

        // Words are forward when their first letter is in the source partition.
        let mut forward_digrams: BTreeSet<(Letter, Letter)> = BTreeSet::new();
        let mut reversed_digrams: BTreeSet<(Letter, Letter)> = BTreeSet::new();
        let mut relevant_letters: BTreeSet<Letter> = BTreeSet::new();
        for word in &words {
            let Some(first) = word.first() else { continue };
            relevant_letters.extend(word.iter());
            let digrams = word.letters().windows(2).map(|p| (p[0], p[1]));
            if source_letters.contains(&first) {
                forward_digrams.extend(digrams);
            } else {
                reversed_digrams.extend(digrams);
            }
        }
        let endpoints: BTreeSet<Letter> =
            words.iter().flat_map(|w| w.first().into_iter().chain(w.last())).collect();
        // Letters whose start vertices wiring enters, and whose end vertices
        // wiring leaves.
        let entered: BTreeSet<Letter> = forward_digrams
            .iter()
            .map(|&(_, b)| b)
            .chain(reversed_digrams.iter().map(|&(a, _)| a))
            .collect();
        let left: BTreeSet<Letter> = forward_digrams
            .iter()
            .map(|&(a, _)| a)
            .chain(reversed_digrams.iter().map(|&(_, b)| b))
            .collect();
        // IF(L) is infix-free, so no letter of a longer word is a word.
        let role_letters: Vec<Letter> =
            relevant_letters.into_iter().filter(|l| !single_letters.contains(l)).collect();
        let roles: Vec<LetterRole> = role_letters
            .iter()
            .map(|l| {
                let source_attached = endpoints.contains(l) && source_letters.contains(l);
                let target_attached = endpoints.contains(l) && target_letters.contains(l);
                LetterRole {
                    source_attached,
                    target_attached,
                    start_is_source: source_attached && !entered.contains(l),
                    end_is_target: target_attached && !left.contains(l),
                }
            })
            .collect();

        let role_ids: BTreeMap<Letter, u32> =
            role_letters.iter().enumerate().map(|(id, &l)| (l, id as u32)).collect();
        let mut codes: Vec<(Letter, u32)> = role_ids
            .iter()
            .map(|(&l, &id)| (l, id))
            .chain(single_letters.iter().map(|&l| (l, SINGLE)))
            .collect();
        codes.sort_unstable();
        let mut ascii_codes = Box::new([NO_ROLE; 128]);
        for &(l, code) in codes.iter().filter(|(l, _)| l.0.is_ascii()) {
            ascii_codes[l.0 as usize] = code;
        }

        // Every digram letter has a role: it belongs to a word of length ≥ 2.
        let mut kinds: BTreeMap<(u32, u32), u8> = BTreeMap::new();
        for (digrams, kind) in [(&forward_digrams, FORWARD), (&reversed_digrams, REVERSED)] {
            for (a, b) in digrams {
                if let (Some(&a), Some(&b)) = (role_ids.get(a), role_ids.get(b)) {
                    *kinds.entry((a, b)).or_default() |= kind;
                }
            }
        }
        let mut digram_start = vec![0; roles.len() + 1];
        let mut digrams = Vec::with_capacity(kinds.len());
        for (&(a, b), &kind) in &kinds {
            digram_start[a as usize + 1] += 1;
            digrams.push((b, kind));
        }
        for r in 0..roles.len() {
            digram_start[r + 1] += digram_start[r];
        }

        Ok(ChainPlan { epsilon, words, roles, codes, ascii_codes, digram_start, digrams })
    }

    /// The role code of a fact's label: a role id, [`SINGLE`] or
    /// [`NO_ROLE`].
    fn code(&self, label: Letter) -> u32 {
        if label.0.is_ascii() {
            return self.ascii_codes[label.0 as usize];
        }
        self.codes.binary_search_by_key(&label, |&(l, _)| l).map_or(NO_ROLE, |i| self.codes[i].1)
    }

    /// The digrams starting with the letter of role code `code`; empty for
    /// codes that are not role ids.
    fn digrams_from(&self, code: u32) -> &[(u32, u8)] {
        match self.digram_start.get(code as usize..code as usize + 2) {
            Some(&[start, end]) => &self.digrams[start..end],
            _ => &[],
        }
    }

    /// The per-database half of the reduction: builds and cuts the flow
    /// network of Proposition 7.6 for one database, inside `scratch`'s CSR
    /// arena (fact edges first, so arena ids index the dense `edge_fact`
    /// provenance; per-fact role codes and vertices live in the dense
    /// `fact_role`, `fact_vertex` and `fact_end` lookups).
    pub(crate) fn solve(
        &self,
        rpq: &Rpq,
        db: &GraphDb,
        want_cut: bool,
        scratch: &mut SolveScratch,
        trace: &mut Trace,
    ) -> ResilienceOutcome {
        let infinite =
            || ResilienceOutcome::new(ResilienceValue::Infinite, Algorithm::BipartiteChain, None);
        if self.epsilon {
            return infinite();
        }
        let build_timer = trace.begin();
        let SolveScratch {
            csr,
            flow: flow_scratch,
            edge_fact,
            fact_vertex,
            fact_end,
            fact_role,
            ..
        } = scratch;

        // Every fact's role code. Single-letter words force the removal of
        // every fact with that label.
        let mut base_cost: u128 = 0;
        let mut forced_facts: Vec<FactId> = Vec::new();
        fact_role.clear();
        fact_role.reserve(db.num_facts());
        for (id, fact) in db.facts() {
            let code = self.code(fact.label);
            fact_role.push(code);
            if code == SINGLE {
                if db.is_exogenous(id) {
                    // A single-letter word matched by an exogenous fact can
                    // never be broken: the resilience is +∞.
                    return infinite();
                }
                base_cost += rpq.semantics().fact_cost(db, id) as u128;
                forced_facts.push(id);
            }
        }

        // Build the flow network into the scratch arena.
        csr.clear();
        let source = csr.add_vertex();
        let target = csr.add_vertex();
        csr.set_source(source);
        csr.set_target(target);

        // Per-fact start/end vertices and the finite-capacity fact edge of
        // every fact with a role.
        const ABSENT: u32 = u32::MAX;
        fact_vertex.clear();
        fact_vertex.resize(db.num_facts(), ABSENT);
        fact_end.clear();
        fact_end.resize(db.num_facts(), ABSENT);
        edge_fact.clear();
        for (i, &code) in fact_role.iter().enumerate() {
            let Some(role) = self.roles.get(code as usize) else { continue };
            let id = FactId(i as u32);
            let start = if role.start_is_source { source } else { csr.add_vertex() };
            let end = if role.end_is_target { target } else { csr.add_vertex() };
            fact_vertex[i] = start.0;
            fact_end[i] = end.0;
            // Exogenous facts can never be cut: capacity +∞.
            let capacity = if db.is_exogenous(id) {
                Capacity::Infinite
            } else {
                Capacity::Finite(rpq.semantics().fact_cost(db, id) as u128)
            };
            let edge = csr.add_edge(start, end, capacity);
            debug_assert_eq!(edge.index(), edge_fact.len());
            edge_fact.push(id.0);
        }

        // Wiring edges between consecutive facts whose letters form a digram.
        for (id_a, fact_a) in db.facts() {
            let digrams = self.digrams_from(fact_role[id_a.index()]);
            if digrams.is_empty() {
                continue;
            }
            let (start_a, end_a) = (fact_vertex[id_a.index()], fact_end[id_a.index()]);
            for id_b in db.out_facts(fact_a.target) {
                let role_b = fact_role[id_b.index()];
                let Ok(i) = digrams.binary_search_by_key(&role_b, |&(r, _)| r) else { continue };
                let kinds = digrams[i].1;
                let (start_b, end_b) = (fact_vertex[id_b.index()], fact_end[id_b.index()]);
                if kinds & FORWARD != 0 {
                    csr.add_edge(VertexId(end_a), VertexId(start_b), Capacity::Infinite);
                }
                if kinds & REVERSED != 0 {
                    csr.add_edge(VertexId(end_b), VertexId(start_a), Capacity::Infinite);
                }
            }
        }

        // Source / target attachments of the endpoint letters' vertices that
        // are not the source or target themselves.
        for (i, &code) in fact_role.iter().enumerate() {
            let Some(role) = self.roles.get(code as usize) else { continue };
            if role.source_attached && !role.start_is_source {
                csr.add_edge(source, VertexId(fact_vertex[i]), Capacity::Infinite);
            }
            if role.target_attached && !role.end_is_target {
                csr.add_edge(VertexId(fact_end[i]), target, Capacity::Infinite);
            }
        }

        trace.end(build_timer, "product_build");
        let cut = super::freeze_and_cut(csr, flow_scratch, trace);
        let witness_timer = trace.begin();
        let value = match cut.value {
            Capacity::Infinite => ResilienceValue::Infinite,
            Capacity::Finite(v) => ResilienceValue::Finite(v + base_cost),
        };
        let mut contingency: Vec<FactId> = forced_facts;
        contingency.extend(
            cut.cut_edges
                .iter()
                .filter(|e| e.index() < edge_fact.len())
                .map(|e| FactId(edge_fact[e.index()])),
        );
        trace.end(witness_timer, "witness_extract");
        debug_assert!(
            value.is_infinite()
                || rpq.is_contingency_set(db, &contingency.iter().copied().collect()),
            "the extracted cut must be a contingency set"
        );
        ResilienceOutcome::new(value, Algorithm::BipartiteChain, want_cut.then_some(contingency))
    }

    /// The number of words of length ≥ 2 in the plan (used by plan reports).
    pub(crate) fn num_words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::exact::resilience_exact;
    use rpq_automata::{Alphabet, Language};
    use rpq_graphdb::generate::{chain_instance, random_labeled_graph, word_path};

    /// Proposition 7.6, forced through the engine.
    fn solve_chain(rpq: &Rpq, db: &GraphDb) -> Result<ResilienceOutcome, ResilienceError> {
        Engine::new().solve_with(Algorithm::BipartiteChain, rpq, db)
    }

    #[test]
    fn simple_ab_bc_instance() {
        // Path a b c: matches of ab|bc are {ab-facts} and {bc-facts}; removing
        // the middle b fact kills both.
        let db = word_path(&Word::from_str_word("abc"));
        let q = Rpq::parse("ab|bc").unwrap();
        let out = solve_chain(&q, &db).unwrap();
        assert_eq!(out.value, ResilienceValue::Finite(1));
        let cut: BTreeSet<FactId> = out.contingency_set.unwrap().into_iter().collect();
        assert!(q.is_contingency_set(&db, &cut));
    }

    #[test]
    fn non_applicable_languages_are_rejected() {
        let db = word_path(&Word::from_str_word("ab"));
        for pattern in ["aa", "ax*b", "ab|bc|ca"] {
            assert!(matches!(
                solve_chain(&Rpq::parse(pattern).unwrap(), &db),
                Err(ResilienceError::NotApplicable { .. })
            ));
        }
    }

    #[test]
    fn single_letter_words_force_removals() {
        // L = a|bc: every a-fact must be removed, plus a min cut for bc.
        let mut db = GraphDb::new();
        db.add_fact_by_names("u", 'a', "v");
        db.add_fact_by_names("w", 'a', "x");
        db.add_fact_by_names("p", 'b', "q");
        db.add_fact_by_names("q", 'c', "r");
        let q = Rpq::parse("a|bc").unwrap();
        let out = solve_chain(&q, &db).unwrap();
        assert_eq!(out.value, ResilienceValue::Finite(3));
        assert_eq!(resilience_exact(&q, &db).value, ResilienceValue::Finite(3));
    }

    #[test]
    fn matches_exact_on_random_instances() {
        let alphabet = Alphabet::from_chars("abc");
        for seed in 0..6 {
            let db = random_labeled_graph(5, 10, &alphabet, seed);
            for pattern in ["ab|bc", "ab|cb", "ab", "axb|byc"] {
                let q = Rpq::new(Language::parse(pattern).unwrap());
                let fast = match solve_chain(&q, &db) {
                    Ok(out) => out,
                    Err(_) => continue,
                };
                let slow = resilience_exact(&q, &db);
                assert_eq!(fast.value, slow.value, "pattern {pattern}, seed {seed}");
            }
        }
    }

    #[test]
    fn matches_exact_on_chain_instances_with_bag_semantics() {
        let words = vec![Word::from_str_word("ab"), Word::from_str_word("bc")];
        for seed in 0..4 {
            let mut db = chain_instance(&words, 2, 2, seed);
            // Give some facts non-unit multiplicities.
            let ids: Vec<FactId> = db.fact_ids().collect();
            for (i, id) in ids.iter().enumerate() {
                db.set_multiplicity(*id, 1 + (i as u64 % 3));
            }
            let q = Rpq::parse("ab|bc").unwrap().with_bag_semantics();
            let fast = solve_chain(&q, &db).unwrap();
            let slow = resilience_exact(&q, &db);
            assert_eq!(fast.value, slow.value, "seed {seed}");
        }
    }

    #[test]
    fn example_7_3_bcl_with_longer_words() {
        // L = axyb|bztc|cd|dea (a BCL from Example 7.3) on a database formed of
        // its own words glued at shared endpoint nodes.
        let mut db = GraphDb::new();
        db.add_fact_by_names("n1", 'a', "n2");
        db.add_fact_by_names("n2", 'x', "n3");
        db.add_fact_by_names("n3", 'y', "n4");
        db.add_fact_by_names("n4", 'b', "n5");
        db.add_fact_by_names("n5", 'z', "n6");
        db.add_fact_by_names("n6", 't', "n7");
        db.add_fact_by_names("n7", 'c', "n8");
        db.add_fact_by_names("n8", 'd', "n9");
        db.add_fact_by_names("n9", 'e', "n10");
        db.add_fact_by_names("n10", 'a', "n11");
        let q = Rpq::parse("axyb|bztc|cd|dea").unwrap();
        let fast = solve_chain(&q, &db).unwrap();
        let slow = resilience_exact(&q, &db);
        assert_eq!(fast.value, slow.value);
    }

    /// `ab|bc` splits into the forward word `ab` and the reversed word `bc`
    /// (`{a, c}` on the source side). On the path `1 a 2 b 3 c 4`, the start
    /// of the `a` and `c` facts is the source and the end of the `b` fact is
    /// the target, so the network has 2 + 3 vertices and 3 fact + 2 wiring
    /// edges. Without the merges it would be 2 + 6 vertices and 3 + 2 + 3
    /// edges.
    #[test]
    fn letter_roles_shrink_a_hand_checked_network() {
        let db = word_path(&Word::from_str_word("abc"));
        let q = Rpq::parse("ab|bc").unwrap();
        let plan = ChainPlan::from_infix_free(&q.infix_free_language(), q.language()).unwrap();
        let mut scratch = SolveScratch::new();
        let out = plan.solve(&q, &db, true, &mut scratch, &mut Trace::disabled());
        assert_eq!(out.value, ResilienceValue::Finite(1));
        assert_eq!(scratch.csr.num_vertices(), 5);
        assert_eq!(scratch.csr.num_edges(), 5);
    }

    /// `a(c_0|…|c_299)` over 300 non-ASCII letters `c_i`: 301 roles, but
    /// the digram tables hold one entry per digram and one offset per role,
    /// and the non-ASCII labels resolve through the sorted fallback.
    #[test]
    fn many_letter_plans_keep_linear_digram_tables() {
        let letters: Vec<char> = (0..300).map(|i| char::from_u32(0x4E00 + i).unwrap()).collect();
        let alternatives: Vec<String> = letters.iter().map(char::to_string).collect();
        let q = Rpq::parse(&format!("a({})", alternatives.join("|"))).unwrap();
        let plan = ChainPlan::from_infix_free(&q.infix_free_language(), q.language()).unwrap();
        assert_eq!(plan.roles.len(), 301);
        assert_eq!(plan.digrams.len(), 300);
        assert_eq!(plan.digram_start.len(), 302);

        let mut db = GraphDb::new();
        db.add_fact_by_names("1", 'a', "2");
        db.add_fact_by_names("5", 'a', "2");
        db.add_fact_by_names("2", letters[5], "3");
        db.add_fact_by_names("2", letters[299], "4");
        db.add_fact_by_names("4", letters[7], "6");
        let out = solve_chain(&q, &db).unwrap();
        assert_eq!(out.value, ResilienceValue::Finite(2));
        assert_eq!(out.value, resilience_exact(&q, &db).value);
    }

    #[test]
    fn query_not_holding_gives_zero() {
        let db = word_path(&Word::from_str_word("ac"));
        let q = Rpq::parse("ab|bc").unwrap();
        let out = solve_chain(&q, &db).unwrap();
        assert_eq!(out.value, ResilienceValue::Finite(0));
    }
}
