//! Proposition 7.9: resilience of one-dangling languages.
//!
//! A one-dangling language is `L ∪ {xy}` with `L` local over `Σ` and `x ≠ y`,
//! at least one of them outside `Σ`. Resilience reduces to a local-language
//! instance over **extended bag semantics**:
//!
//! 1. mirror everything if needed so that `y ∉ Σ`;
//! 2. pick a fresh letter `z` and rewrite the language to `L'`, obtained from
//!    `L` by replacing the letter `x` with the two-letter word `xz`;
//! 3. rewrite the database: each node `v` gets a twin `(v, in)`; `x`-facts
//!    into `v` are redirected to `(v, in)`; a `z`-fact `(v, in) → v` carries
//!    multiplicity `Σ mult(x-facts into v) − Σ mult(y-facts out of v)`
//!    (possibly zero or negative); `y`-facts are erased;
//! 4. `RES_bag(L ∪ {xy}, D) = κ + RES^ex_bag(L', D')` where `κ` is the total
//!    multiplicity of `y`-facts. Facts of non-positive multiplicity can always
//!    be removed for free in extended bag semantics, so
//!    `RES^ex_bag(L', D') = Σ_(negative multiplicities) + RES_bag(L', D'⁺)`,
//!    and the latter is solved with the Theorem 3.13 product construction.
//!
//! Under **set semantics** the same reduction applies after forgetting the
//! multiplicities of `D` (set resilience is bag resilience on the database
//! with all multiplicities equal to 1).
//!
//! Steps 1 and 2 depend on the query alone, so `OneDanglingPlan` takes
//! them once: `z` is the first letter outside `Σ ∪ {x, y}`, and `A'` is the
//! local part's RO-εNFA with its `x`-transition split into `x` then `z`.
//! A database fact that happens to carry the letter `z` matches neither `L`
//! nor `xy`, so the rewriting drops it, and `z` labels the exchange facts
//! only. `D'` itself is never built: one pass over the caller's database
//! computes `κ`, the exchange prices and the twin ids, and `D'⁺` is then
//! streamed fact by fact into the Theorem 3.13 builder, in the order a
//! materialized `D'` would list its facts: the non-`y` facts in id order,
//! then the `z`-facts in node order. Twin `(v, in)` is node
//! `|nodes(D)| + k` for the `k`-th node an `x`-fact enters, in fact order.
//!
//! # Witness extraction
//!
//! The rewriting not only certifies the value — a minimum cut of the
//! rewritten instance maps back to an **optimal contingency set of the
//! original database**. Every fact of `D'` carries a provenance:
//!
//! * a non-`x`, non-`z` fact stands for the identically-labeled original fact;
//! * an `x`-fact into the twin `(v, in)` stands for the original `x`-fact
//!   into `v`;
//! * the `z`-fact at `v` stands for the *per-node exchange* "delete every
//!   `x`-fact into `v` instead of the `y`-facts out of `v`" — its
//!   multiplicity `in_x(v) − out_y(v)` is exactly the price of that exchange
//!   on top of the baseline `κ` (which deletes every `y`-fact).
//!
//! The inverse mapping therefore starts from the baseline "delete all
//! `y`-facts", then *restores* the `y`-facts of every node whose exchange was
//! taken — either for free (`in_x(v) ≤ out_y(v)`, the non-positive `z`-facts
//! removed by the negative-credit accounting) or because the minimum cut cut
//! the `z`-fact at `v` — deleting all `x`-facts into those nodes instead;
//! cut `x`-facts and cut local facts map to their original facts directly.
//! The rewriting never copies the caller's database: it reads it by
//! identifier, with every fact reversed in the mirrored orientation and with
//! unit multiplicities under set semantics, so the extracted identifiers are
//! valid in the caller's database as-is. The cost bookkeeping telescopes:
//! `cost(witness) = κ + Σ_(non-positive z) + cost(cut) = value`.

use super::{Algorithm, ResilienceError, ResilienceOutcome, SolveScratch};
use crate::algorithms::local::{resilience_via_ro_enfa, ProductFacts};
use crate::rpq::{ResilienceValue, Rpq, Semantics};
use rpq_automata::alphabet::Letter;
use rpq_automata::finite::{one_dangling_decomposition, OneDanglingDecomposition};
use rpq_automata::ro_enfa::RoEnfa;
use rpq_automata::Language;
use rpq_flow::Capacity;
use rpq_graphdb::{Fact, FactId, GraphDb};
use rpq_obs::Trace;

/// The query-only half of the Proposition 7.9 rewriting: the one-dangling
/// decomposition, normalized so that `y ∉ Σ(local part)` (mirroring the query
/// when needed), the letter `z` and the split automaton `A'`. Reusable across
/// databases; only the database rewriting remains per-call.
#[derive(Debug, Clone)]
pub(crate) struct OneDanglingPlan {
    /// The normalized decomposition (`y ∉ Σ`).
    decomposition: OneDanglingDecomposition,
    /// Whether normalization mirrored the query: databases must be reversed
    /// before the rewriting (Proposition 6.3).
    mirrored: bool,
    /// `A'` and its `z` (`None` when `ε ∈ IF(L)`, in which case every
    /// database has infinite resilience).
    split: Option<SplitAutomaton>,
    /// The original infix-free language (debug cross-checks only; not stored
    /// in release builds, where prepared plans may be cached in bulk).
    #[cfg(debug_assertions)]
    language: Language,
}

/// `A'`: the RO-εNFA of the normalized local part with its `x`-transition
/// split into `x` then `z`. When `x` has no transition (it is not a letter
/// of the local part), `A'` is the local part's automaton itself and the
/// `x`- and `z`-facts of `D'` never enter the network.
#[derive(Debug, Clone)]
struct SplitAutomaton {
    automaton: RoEnfa,
    /// The first letter outside the local part's alphabet and `{x, y}`.
    z: Letter,
    /// The `z`-transition of `A'`.
    z_transition: Option<(usize, usize)>,
}

impl OneDanglingPlan {
    /// Analyses `IF(language)`; errors with [`ResilienceError::NotApplicable`]
    /// when it is not one-dangling. `display` renders the original query
    /// language in error messages.
    pub(crate) fn from_infix_free(
        language: &Language,
        display: &Language,
    ) -> Result<OneDanglingPlan, ResilienceError> {
        let Some(decomposition) = one_dangling_decomposition(language) else {
            return Err(ResilienceError::NotApplicable {
                algorithm: Algorithm::OneDangling,
                reason: format!("IF({display}) is not a one-dangling language"),
            });
        };

        // Ensure y ∉ Σ (the alphabet of the local part); otherwise mirror
        // everything (Proposition 6.3): the mirrored decomposition swaps x and
        // y and mirrors the local part, and x is guaranteed to be outside Σ
        // because the original decomposition had at least one of x, y outside
        // it.
        let local_used = decomposition.local_part.used_letters();
        let (decomposition, mirrored) = if local_used.contains(decomposition.y) {
            let mirrored = OneDanglingDecomposition {
                local_part: decomposition.local_part.mirror(),
                x: decomposition.y,
                y: decomposition.x,
            };
            debug_assert!(!mirrored.local_part.used_letters().contains(mirrored.y));
            (mirrored, true)
        } else {
            (decomposition, false)
        };

        let split = if language.contains_epsilon() {
            None
        } else {
            let ro = RoEnfa::for_local_language(&decomposition.local_part)?;
            let (x, y) = (decomposition.x, decomposition.y);
            let z = decomposition.local_part.alphabet().with(x).with(y).fresh_letter();
            let automaton = match ro.letter_transition(x) {
                Some(_) => ro.split_letter_transition(x, z)?,
                None => ro,
            };
            let z_transition = automaton.letter_transition(z);
            Some(SplitAutomaton { automaton, z, z_transition })
        };
        Ok(OneDanglingPlan {
            decomposition,
            mirrored,
            split,
            #[cfg(debug_assertions)]
            language: language.clone(),
        })
    }

    /// The dangling word `xy` of the normalized decomposition (plan reports).
    pub(crate) fn dangling_word(&self) -> rpq_automata::Word {
        self.decomposition.dangling_word()
    }

    /// The per-database half of the rewriting. When `want_cut` is set the
    /// outcome also carries an optimal contingency set, mapped back from a
    /// minimum cut of the rewritten instance (see the module docs). Errors
    /// with [`ResilienceError::NotApplicable`] on databases with exogenous
    /// facts (the κ-offset rewriting assumes finite fact weights); callers
    /// decide whether to fall back to an exact solver.
    pub(crate) fn solve(
        &self,
        rpq: &Rpq,
        db: &GraphDb,
        want_cut: bool,
        scratch: &mut SolveScratch,
        trace: &mut Trace,
    ) -> Result<ResilienceOutcome, ResilienceError> {
        let Some(split) = &self.split else {
            return Ok(ResilienceOutcome::new(
                ResilienceValue::Infinite,
                Algorithm::OneDangling,
                None,
            ));
        };
        if db.has_exogenous_facts() {
            return Err(ResilienceError::NotApplicable {
                algorithm: Algorithm::OneDangling,
                reason: "the one-dangling rewriting does not support exogenous facts".to_string(),
            });
        }

        // The rewriting reads `db` through a view: in mirrored orientation
        // and, under set semantics, with unit multiplicities. Witness facts
        // are therefore `db`'s own identifiers. Its buffers leave the
        // scratch while the builder borrows the rest of it.
        let view = View { db, mirrored: self.mirrored, unit: rpq.semantics() == Semantics::Set };
        let mut buffers = std::mem::take(&mut scratch.rewrite);
        let solved = self.rewrite_and_solve(split, view, want_cut, &mut buffers, scratch, trace);
        scratch.rewrite = buffers;
        let (value, witness) = solved?;
        #[cfg(debug_assertions)]
        debug_assert!(
            {
                // Cross-check against the exact solver on small instances only.
                db.num_facts() > 14 || {
                    let exact = crate::exact::resilience_exact(
                        &Rpq::new(self.language.clone()).with_semantics(rpq.semantics()),
                        db,
                    );
                    exact.value == value
                }
            },
            "one-dangling rewriting disagrees with the exact solver"
        );
        if let Some(witness) = &witness {
            let witness = witness.iter().copied().collect();
            debug_assert!(
                value.is_infinite() || rpq.is_contingency_set(db, &witness),
                "the extracted witness must be a contingency set of the original database"
            );
            debug_assert!(
                value.is_infinite() || ResilienceValue::Finite(rpq.cost(db, &witness)) == value,
                "the extracted witness must cost exactly the certified value"
            );
        }
        Ok(ResilienceOutcome::new(value, Algorithm::OneDangling, witness))
    }

    /// Performs steps 3–4 of the rewriting in `buffers` and solves `D'⁺`
    /// over `A'`. Returns the value and, when `want_cut` is set and the value
    /// is finite, an optimal contingency set in ascending fact order. Errors
    /// when `D'⁺` has too many facts for `u32` provenance ids.
    fn rewrite_and_solve(
        &self,
        split: &SplitAutomaton,
        view: View<'_>,
        want_cut: bool,
        buffers: &mut RewriteScratch,
        scratch: &mut SolveScratch,
        trace: &mut Trace,
    ) -> Result<(ResilienceValue, Option<Vec<FactId>>), ResilienceError> {
        let rewrite_timer = trace.begin();
        let db = view.db;
        let (x, y) = (self.decomposition.x, self.decomposition.y);
        let num_nodes = db.num_nodes();
        let RewriteScratch { twin, price, restored, exchanges, cut_marks } = buffers;

        // κ, the exchange prices `in_x(v) − out_y(v)`, and the twin ids.
        twin.clear();
        twin.resize(num_nodes, NO_TWIN);
        price.clear();
        price.resize(num_nodes, 0);
        let mut kappa: i128 = 0;
        let mut twins: u32 = 0;
        for (id, fact) in db.facts() {
            let (tail, head) = view.ends(fact);
            if fact.label == x {
                price[head] += view.weight(id);
                // Fewer twins than nodes, and node ids are `u32`s below
                // `NO_TWIN`.
                if twin[head] == NO_TWIN {
                    twin[head] = twins;
                    twins += 1;
                }
            } else if fact.label == y {
                price[tail] -= view.weight(id);
                kappa += view.weight(id);
            }
        }

        // z-facts (extended bag semantics): a non-positive price is removed
        // for free and credited to the value — the exchange is taken for
        // free. `restored` starts as the free exchanges; cut exchanges join
        // it below. A node no x- or y-fact touches has price 0, and nothing
        // for `restored` to restore or delete.
        restored.clear();
        restored.resize(num_nodes, false);
        exchanges.clear();
        let mut negative_credit: i128 = 0;
        for (v, &p) in price.iter().enumerate() {
            if p > 0 {
                exchanges.push((v as u32, p as u128));
            } else {
                negative_credit += p;
                restored[v] = true;
            }
        }
        trace.end(rewrite_timer, "rewrite");
        if db.num_facts() + exchanges.len() > u32::MAX as usize {
            return Err(ResilienceError::NotApplicable {
                algorithm: Algorithm::OneDangling,
                reason: "the rewritten database has 2^32 or more facts".to_string(),
            });
        }

        // Solve D'⁺ with the local algorithm in bag semantics.
        let rewritten =
            Rewritten { view, split, x, y, twin, exchanges, num_nodes: num_nodes + twins as usize };
        let (local_value, cut) =
            resilience_via_ro_enfa(&split.automaton, &rewritten, scratch, trace);
        let local_value = match local_value {
            ResilienceValue::Infinite => return Ok((ResilienceValue::Infinite, None)),
            ResilienceValue::Finite(v) => v as i128,
        };
        let total = kappa + negative_credit + local_value;
        debug_assert!(total >= 0, "resilience values are non-negative");
        let value = ResilienceValue::Finite(total as u128);
        if !want_cut {
            return Ok((value, None));
        }

        // Map the minimum cut back to original facts. `restored` collects the
        // nodes whose exchange is taken: their y-facts survive, their x-facts
        // go. Cut ids past the database's facts name z-facts.
        let witness_timer = trace.begin();
        cut_marks.clear();
        cut_marks.resize(db.num_facts(), false);
        for id in cut {
            match id.index().checked_sub(db.num_facts()) {
                None => cut_marks[id.index()] = true,
                Some(k) => restored[exchanges[k].0 as usize] = true,
            }
        }
        let witness = db
            .facts()
            .filter(|&(id, fact)| {
                let (tail, head) = view.ends(fact);
                cut_marks[id.index()]
                    || (fact.label == x && restored[head])
                    || (fact.label == y && !restored[tail])
            })
            .map(|(id, _)| id)
            .collect();
        trace.end(witness_timer, "witness_extract");
        Ok((value, Some(witness)))
    }
}

/// `twin` entry of a node no x-fact enters.
const NO_TWIN: u32 = u32::MAX;

/// The per-solve buffers of the rewriting, indexed by node or fact of the
/// caller's database. Kept in [`SolveScratch`], so batch solves reuse them.
#[derive(Debug, Default)]
pub(crate) struct RewriteScratch {
    /// Each node's twin number `k`, or [`NO_TWIN`]: twin `(v, in)` is node
    /// `|nodes(D)| + k` of `D'`.
    twin: Vec<u32>,
    /// Each node's exchange price `in_x(v) − out_y(v)`.
    price: Vec<i128>,
    /// The nodes whose exchange is taken.
    restored: Vec<bool>,
    /// The z-facts of `D'`, in node order: their node and positive price.
    exchanges: Vec<(u32, u128)>,
    /// The facts a minimum cut of `D'⁺` cuts directly.
    cut_marks: Vec<bool>,
}

impl RewriteScratch {
    /// The capacities of the buffers.
    pub(crate) fn capacity_signature(&self) -> [usize; 5] {
        [
            self.twin.capacity(),
            self.price.capacity(),
            self.restored.capacity(),
            self.exchanges.capacity(),
            self.cut_marks.capacity(),
        ]
    }
}

/// The database as the rewriting sees it: every fact reversed when the plan
/// mirrored the query (Proposition 6.3), and every multiplicity 1 under set
/// semantics. Node and fact identifiers are the underlying database's.
#[derive(Clone, Copy)]
struct View<'a> {
    db: &'a GraphDb,
    mirrored: bool,
    unit: bool,
}

impl View<'_> {
    /// The `(source, target)` node indices of a fact in the view's
    /// orientation.
    fn ends(&self, fact: Fact) -> (usize, usize) {
        let (source, target) = (fact.source.0 as usize, fact.target.0 as usize);
        if self.mirrored {
            (target, source)
        } else {
            (source, target)
        }
    }

    /// The multiplicity of a fact under the view's semantics.
    fn multiplicity(&self, id: FactId) -> u64 {
        if self.unit {
            1
        } else {
            self.db.multiplicity(id)
        }
    }

    /// [`View::multiplicity`] as a price term.
    fn weight(&self, id: FactId) -> i128 {
        i128::from(self.multiplicity(id))
    }
}

/// `D'⁺` as a stream of product facts: the viewed database's non-`y` facts
/// in id order, each `x`-fact redirected to its twin, then one `z`-fact per
/// exchange. Carried-over facts keep their own ids as provenance; the `k`-th
/// `z`-fact has provenance `|facts(D)| + k`, below 2^32 (checked before the
/// stream starts).
struct Rewritten<'a> {
    view: View<'a>,
    split: &'a SplitAutomaton,
    x: Letter,
    y: Letter,
    twin: &'a [u32],
    exchanges: &'a [(u32, u128)],
    /// `|nodes(D)|` plus the number of twins.
    num_nodes: usize,
}

impl Rewritten<'_> {
    /// The node id of `v`'s twin.
    fn twin_of(&self, v: usize) -> usize {
        self.view.db.num_nodes() + self.twin[v] as usize
    }
}

impl ProductFacts for Rewritten<'_> {
    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn for_each_fact(&self, mut f: impl FnMut(FactId, usize, (usize, usize), usize)) {
        let automaton = &self.split.automaton;
        for (id, fact) in self.view.db.facts() {
            let (tail, head) = self.view.ends(fact);
            let head = if fact.label == self.x {
                self.twin_of(head)
            } else if fact.label == self.y || fact.label == self.split.z {
                continue;
            } else {
                head
            };
            if let Some(transition) = automaton.letter_transition(fact.label) {
                f(id, tail, transition, head);
            }
        }
        if let Some(transition) = self.split.z_transition {
            let num_facts = self.view.db.num_facts();
            for (k, &(v, _)) in self.exchanges.iter().enumerate() {
                let v = v as usize;
                f(FactId((num_facts + k) as u32), self.twin_of(v), transition, v);
            }
        }
    }

    fn capacity(&self, provenance: FactId) -> Capacity {
        Capacity::Finite(match provenance.index().checked_sub(self.view.db.num_facts()) {
            None => u128::from(self.view.multiplicity(provenance)),
            Some(k) => self.exchanges[k].1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::exact::{resilience_by_enumeration, resilience_exact};
    use rpq_automata::alphabet::Letter;
    use rpq_automata::{Alphabet, Language, Word};
    use rpq_graphdb::generate::{one_dangling_instance, random_labeled_graph, word_path};
    use std::collections::BTreeSet;

    /// Proposition 7.9, forced through the engine.
    fn solve_one_dangling(rpq: &Rpq, db: &GraphDb) -> Result<ResilienceOutcome, ResilienceError> {
        Engine::new().solve_with(Algorithm::OneDangling, rpq, db)
    }

    /// The witness invariants of Proposition 7.9's extraction: present,
    /// a real contingency set, and of cost exactly the certified value.
    fn assert_witness(rpq: &Rpq, db: &GraphDb, outcome: &ResilienceOutcome) {
        let witness: BTreeSet<FactId> = outcome
            .contingency_set
            .as_ref()
            .expect("the one-dangling backend extracts witnesses")
            .iter()
            .copied()
            .collect();
        assert!(rpq.is_contingency_set(db, &witness), "not a contingency set: {witness:?}");
        assert_eq!(ResilienceValue::Finite(rpq.cost(db, &witness)), outcome.value);
    }

    #[test]
    fn not_applicable_languages_are_rejected() {
        let db = word_path(&Word::from_str_word("ab"));
        for pattern in ["aa", "axb|cxd", "abcd|bef"] {
            assert!(matches!(
                solve_one_dangling(&Rpq::parse(pattern).unwrap(), &db),
                Err(ResilienceError::NotApplicable { .. })
            ));
        }
    }

    #[test]
    fn simple_abc_be_instance() {
        // Database: path a b c sharing its b-source node with a dangling e fact.
        let mut db = GraphDb::new();
        db.add_fact_by_names("1", 'a', "2");
        let b_fact = db.add_fact_by_names("2", 'b', "3");
        db.add_fact_by_names("3", 'c', "4");
        db.add_fact_by_names("3", 'e', "5");
        let q = Rpq::parse("abc|be").unwrap();
        let fast = solve_one_dangling(&q, &db).unwrap();
        let slow = resilience_exact(&q, &db);
        assert_eq!(fast.value, slow.value);
        // Removing the b fact kills both matches: resilience 1.
        assert_eq!(fast.value, ResilienceValue::Finite(1));
        assert_eq!(fast.contingency_set, Some(vec![b_fact]));
        assert_witness(&q, &db, &fast);
    }

    #[test]
    fn mirrored_orientation_is_handled() {
        // ba|cba: the dangling word is "ba" with b ∈ Σ(L) for L = cba, so the
        // mirror step kicks in (ab|abc mirrored).
        let mut db = GraphDb::new();
        db.add_fact_by_names("1", 'c', "2");
        db.add_fact_by_names("2", 'b', "3");
        db.add_fact_by_names("3", 'a', "4");
        db.add_fact_by_names("0", 'b', "3b");
        db.add_fact_by_names("3b", 'a', "4b");
        let q = Rpq::parse("cba|ba").unwrap();
        let out = solve_one_dangling(&q, &db);
        // cba|ba reduced to IF is just ba (ba is an infix of cba), which is
        // local, so the decomposition may degenerate; accept either a value
        // matching the exact solver or a NotApplicable error.
        match out {
            Ok(fast) => assert_eq!(fast.value, resilience_exact(&q, &db).value),
            Err(ResilienceError::NotApplicable { .. }) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn mirrored_orientation_extracts_witnesses() {
        // cba|eb is the mirror of abc|be: the dangling word eb has y = b in
        // Σ(cba), so the plan reverses the database before rewriting. Fact
        // identifiers survive the reversal, so witnesses map straight back.
        let mut db = GraphDb::new();
        db.add_fact_by_names("4", 'c', "3");
        db.add_fact_by_names("3", 'b', "2");
        db.add_fact_by_names("2", 'a', "1");
        db.add_fact_by_names("5", 'e', "3");
        let q = Rpq::parse("cba|eb").unwrap();
        let fast = solve_one_dangling(&q, &db).unwrap();
        let slow = resilience_exact(&q, &db);
        assert_eq!(fast.value, slow.value);
        assert_eq!(fast.value, ResilienceValue::Finite(1));
        assert_witness(&q, &db, &fast);
    }

    #[test]
    fn figure_1_one_dangling_languages_match_exact() {
        let alphabet = Alphabet::from_chars("abcdex");
        for seed in 0..5 {
            let db = random_labeled_graph(5, 9, &alphabet, seed);
            for pattern in ["abc|be", "abcd|ce", "abcd|be", "ab|xd", "ax*b|xd"] {
                let q = Rpq::new(Language::parse(pattern).unwrap());
                let fast = match solve_one_dangling(&q, &db) {
                    Ok(out) => out,
                    Err(ResilienceError::NotApplicable { .. }) => continue,
                    Err(e) => panic!("{e}"),
                };
                let slow = resilience_exact(&q, &db);
                assert_eq!(fast.value, slow.value, "pattern {pattern}, seed {seed}");
                if !fast.value.is_infinite() {
                    assert_witness(&q, &db, &fast);
                }
            }
        }
    }

    #[test]
    fn mirrored_languages_match_exact_on_random_instances() {
        // The mirrors of the Figure 1 one-dangling patterns: the plan's
        // normalization reverses every database, exercising the witness
        // mapping through `GraphDb::reversed`.
        let alphabet = Alphabet::from_chars("abcdex");
        for seed in 0..5 {
            let db = random_labeled_graph(5, 9, &alphabet, seed);
            for pattern in ["cba|eb", "dcba|ec", "dcba|eb", "ba|dx"] {
                let q = Rpq::new(Language::parse(pattern).unwrap());
                let fast = match solve_one_dangling(&q, &db) {
                    Ok(out) => out,
                    Err(ResilienceError::NotApplicable { .. }) => continue,
                    Err(e) => panic!("{e}"),
                };
                let slow = resilience_exact(&q, &db);
                assert_eq!(fast.value, slow.value, "pattern {pattern}, seed {seed}");
                if !fast.value.is_infinite() {
                    assert_witness(&q, &db, &fast);
                }
            }
        }
    }

    #[test]
    fn bag_semantics_with_multiplicities_matches_exact() {
        for seed in 0..4 {
            let mut db = one_dangling_instance(
                &Alphabet::from_chars("abc"),
                Letter('b'),
                Letter('e'),
                3,
                2,
                3,
                seed,
            );
            let ids: Vec<_> = db.fact_ids().collect();
            for (i, id) in ids.iter().enumerate() {
                db.set_multiplicity(*id, 1 + (i as u64 % 4));
            }
            if db.num_facts() > 13 {
                continue;
            }
            let q = Rpq::parse("abc|be").unwrap().with_bag_semantics();
            let fast = solve_one_dangling(&q, &db).unwrap();
            let slow = resilience_exact(&q, &db);
            assert_eq!(fast.value, slow.value, "seed {seed}");
            assert_witness(&q, &db, &fast);
        }
    }

    #[test]
    fn dangling_word_only_instances() {
        // Database with only x/y facts: the resilience is the per-node
        // min(incoming x, outgoing y) summed over nodes.
        let mut db = GraphDb::new();
        db.add_fact_by_names("u1", 'b', "v");
        db.add_fact_by_names("u2", 'b', "v");
        db.add_fact_by_names("v", 'e', "w1");
        db.add_fact_by_names("v", 'e', "w2");
        db.add_fact_by_names("v", 'e', "w3");
        let q = Rpq::parse("abc|be").unwrap();
        let fast = solve_one_dangling(&q, &db).unwrap();
        assert_eq!(fast.value, ResilienceValue::Finite(2));
        assert_eq!(resilience_exact(&q, &db).value, ResilienceValue::Finite(2));
        // The cheap side of the exchange: both b-facts, keeping the e-facts.
        assert_witness(&q, &db, &fast);
        assert_eq!(fast.contingency_set.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn ax_star_b_xd_from_figure_1() {
        // ax*b|xd was left open in the conference version and is now tractable
        // (Proposition 7.9). Cross-check on a small structured instance.
        let mut db = GraphDb::new();
        db.add_fact_by_names("s", 'a', "1");
        db.add_fact_by_names("1", 'x', "2");
        db.add_fact_by_names("2", 'x', "3");
        db.add_fact_by_names("3", 'b', "t");
        db.add_fact_by_names("2", 'd', "d1");
        db.add_fact_by_names("1", 'd', "d2");
        let q = Rpq::parse("ax*b|xd").unwrap();
        let fast = solve_one_dangling(&q, &db).unwrap();
        let slow = resilience_exact(&q, &db);
        assert_eq!(fast.value, slow.value);
        assert_witness(&q, &db, &fast);
    }

    #[test]
    fn value_only_solves_skip_witness_extraction() {
        let mut db = GraphDb::new();
        db.add_fact_by_names("1", 'a', "2");
        db.add_fact_by_names("2", 'b', "3");
        db.add_fact_by_names("3", 'c', "4");
        db.add_fact_by_names("3", 'e', "5");
        let q = Rpq::parse("abc|be").unwrap();
        let plan =
            OneDanglingPlan::from_infix_free(&q.infix_free_language(), q.language()).unwrap();
        let out =
            plan.solve(&q, &db, false, &mut SolveScratch::new(), &mut Trace::disabled()).unwrap();
        assert_eq!(out.value, ResilienceValue::Finite(1));
        assert!(out.contingency_set.is_none());
    }

    #[test]
    fn random_instances_match_the_enumeration_oracle() {
        // 100 random databases, each solved for abc|be and its mirror cba|eb
        // (which reads the database reversed) under set and bag semantics.
        let alphabet = Alphabet::from_chars("abce");
        let mut instances = 0;
        for seed in 0..100u64 {
            let nodes = 3 + (seed % 3) as usize;
            let facts = 5 + (seed % 5) as usize;
            let mut db = random_labeled_graph(nodes, facts, &alphabet, seed);
            for pattern in ["abc|be", "cba|eb"] {
                instances += 1;
                for bag in [false, true] {
                    if bag {
                        let ids: Vec<_> = db.fact_ids().collect();
                        for (i, id) in ids.into_iter().enumerate() {
                            db.set_multiplicity(id, 1 + (seed + i as u64) % 4);
                        }
                    }
                    let q = Rpq::parse(pattern).unwrap();
                    let q = if bag { q.with_bag_semantics() } else { q };
                    let fast = solve_one_dangling(&q, &db).unwrap();
                    let oracle = resilience_by_enumeration(&q, &db);
                    assert_eq!(fast.value, oracle, "{pattern}, bag {bag}, seed {seed}");
                    assert_witness(&q, &db, &fast);
                }
            }
        }
        assert!(instances >= 200);
    }

    /// The `x`-facts entering node 3 weigh 2^64 + 5 and 2^64 in total: more
    /// than a `u64` holds. The exchange price must stay exact — truncated, it
    /// would read 5 (value 5 instead of 100) or 0 (a fact of multiplicity 0).
    #[test]
    fn exchange_prices_past_u64_stay_exact() {
        let q = Rpq::parse("abc|be").unwrap().with_bag_semantics();
        for second_b in [(1 << 63) + 5, 1 << 63] {
            let mut db = GraphDb::new();
            for (source, label, target, multiplicity) in [
                ("1", 'a', "2", 1 << 62),
                ("6", 'a', "5", 1 << 62),
                ("2", 'b', "3", 1 << 63),
                ("5", 'b', "3", second_b),
                ("3", 'c', "4", 100),
            ] {
                let id = db.add_fact_by_names(source, label, target);
                db.set_multiplicity(id, multiplicity);
            }
            let fast = solve_one_dangling(&q, &db).unwrap();
            assert_eq!(fast.value, resilience_by_enumeration(&q, &db), "second b {second_b}");
            assert_eq!(fast.value, ResilienceValue::Finite(100));
            assert_witness(&q, &db, &fast);
        }
    }

    #[test]
    fn adversarial_twin_node_names_do_not_alias() {
        // A node literally named `3__in` must not be mistaken for the twin of
        // node `3` by the rewriting.
        let mut db = GraphDb::new();
        db.add_fact_by_names("1", 'a', "2");
        db.add_fact_by_names("2", 'b', "3");
        db.add_fact_by_names("3", 'c', "4");
        db.add_fact_by_names("3", 'e', "5");
        db.add_fact_by_names("1", 'a', "3__in");
        db.add_fact_by_names("3__in", 'b', "3");
        let q = Rpq::parse("abc|be").unwrap();
        let fast = solve_one_dangling(&q, &db).unwrap();
        let slow = resilience_exact(&q, &db);
        assert_eq!(fast.value, slow.value);
        assert_witness(&q, &db, &fast);
    }
}
