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
use crate::algorithms::local::resilience_via_ro_enfa;
use crate::rpq::{ResilienceValue, Rpq, Semantics};
use rpq_automata::finite::{one_dangling_decomposition, OneDanglingDecomposition};
use rpq_automata::ro_enfa::RoEnfa;
use rpq_automata::Language;
use rpq_graphdb::{Fact, FactId, GraphDb, NodeId};
use rpq_obs::Trace;
use std::collections::BTreeSet;

/// The query-only half of the Proposition 7.9 rewriting: the one-dangling
/// decomposition, normalized so that `y ∉ Σ(local part)` (mirroring the query
/// when needed), together with the RO-εNFA of the local part. Reusable across
/// databases; only the fresh-letter choice and the database rewriting remain
/// per-call (they depend on the database's alphabet and facts).
#[derive(Debug, Clone)]
pub(crate) struct OneDanglingPlan {
    /// The normalized decomposition (`y ∉ Σ`).
    decomposition: OneDanglingDecomposition,
    /// Whether normalization mirrored the query: databases must be reversed
    /// before the rewriting (Proposition 6.3).
    mirrored: bool,
    /// RO-εNFA of the normalized local part (`None` when `ε ∈ IF(L)`, in
    /// which case every database has infinite resilience).
    ro: Option<RoEnfa>,
    /// The original infix-free language (debug cross-checks only; not stored
    /// in release builds, where prepared plans may be cached in bulk).
    #[cfg(debug_assertions)]
    language: Language,
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

        let ro = if language.contains_epsilon() {
            None
        } else {
            Some(RoEnfa::for_local_language(&decomposition.local_part)?)
        };
        Ok(OneDanglingPlan {
            decomposition,
            mirrored,
            ro,
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
        let Some(ro) = &self.ro else {
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
        // are therefore `db`'s own identifiers.
        let view = View { db, mirrored: self.mirrored, unit: rpq.semantics() == Semantics::Set };
        let (value, witness) =
            rewrite_and_solve(&self.decomposition, ro, view, want_cut, scratch, trace)?;
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
            debug_assert!(
                value.is_infinite() || rpq.is_contingency_set(db, witness),
                "the extracted witness must be a contingency set of the original database"
            );
            debug_assert!(
                value.is_infinite() || ResilienceValue::Finite(rpq.cost(db, witness)) == value,
                "the extracted witness must cost exactly the certified value"
            );
        }
        Ok(ResilienceOutcome::new(
            value,
            Algorithm::OneDangling,
            witness.map(|w| w.into_iter().collect()),
        ))
    }
}

/// Computes the resilience of a query whose infix-free sublanguage is
/// one-dangling (Proposition 7.9), together with an optimal contingency set
/// extracted from a minimum cut of the rewritten instance.
pub fn resilience_one_dangling(
    rpq: &Rpq,
    db: &GraphDb,
) -> Result<ResilienceOutcome, ResilienceError> {
    let plan = OneDanglingPlan::from_infix_free(&rpq.infix_free_language(), rpq.language())?;
    plan.solve(rpq, db, true, &mut SolveScratch::new(), &mut Trace::disabled())
}

/// What a fact of the rewritten database stands for in the original one.
#[derive(Debug, Clone, Copy)]
enum Provenance {
    /// A carried-over local fact, or an `x`-fact redirected to a twin node.
    Original(FactId),
    /// The `z`-fact of node `v`: cutting it means "delete every `x`-fact into
    /// `v` and restore the `y`-facts out of `v`".
    Exchange(NodeId),
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
    /// The `(source, target)` of a fact in the view's orientation.
    fn ends(&self, fact: Fact) -> (NodeId, NodeId) {
        if self.mirrored {
            (fact.target, fact.source)
        } else {
            (fact.source, fact.target)
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
}

/// Performs steps 2–4 of the rewriting for a decomposition with `y ∉ Σ`, whose
/// local part is recognized by the prepared RO-εNFA `ro`. Returns the value
/// and, when `want_cut` is set and the value is finite, an optimal
/// contingency set in the viewed database's fact identifiers.
fn rewrite_and_solve(
    decomposition: &OneDanglingDecomposition,
    ro: &RoEnfa,
    view: View<'_>,
    want_cut: bool,
    scratch: &mut SolveScratch,
    trace: &mut Trace,
) -> Result<(ResilienceValue, Option<BTreeSet<FactId>>), ResilienceError> {
    let rewrite_timer = trace.begin();
    let db = view.db;
    let x = decomposition.x;
    let y = decomposition.y;
    let local_part = &decomposition.local_part;

    // κ = total multiplicity of y-facts.
    let kappa: i128 = db
        .facts()
        .filter(|(_, f)| f.label == y)
        .map(|(id, _)| i128::from(view.multiplicity(id)))
        .sum();

    // Fresh letter z and the rewritten automaton A' (x ↦ xz). When x does not
    // occur in the local part, the language is unchanged.
    let ambient = local_part.alphabet().union(&db.alphabet()).with(x).with(y);
    let z = ambient.fresh_letter();
    let ro_rewritten = if ro.letter_transition(x).is_some() {
        ro.split_letter_transition(x, z)?
    } else {
        ro.clone()
    };

    // Rewrite the database, recording what each rewritten fact stands for.
    // Original nodes keep their identifiers; each twin `(v, in)` is a fresh
    // node (whose name can never alias an original one), created once.
    let mut rewritten = db.nodes_only();
    let mut twins: Vec<Option<NodeId>> = vec![None; db.num_nodes()];
    let mut twin_of = |rewritten: &mut GraphDb, v: NodeId| {
        *twins[v.0 as usize].get_or_insert_with(|| rewritten.fresh_node())
    };
    // Per-node bookkeeping for the z-fact multiplicities, dense by node id
    // (`touched` marks nodes with at least one incident x- or y-fact).
    let mut incoming_x: Vec<i128> = vec![0; db.num_nodes()];
    let mut outgoing_y: Vec<i128> = vec![0; db.num_nodes()];
    let mut touched: Vec<bool> = vec![false; db.num_nodes()];
    for (id, fact) in db.facts() {
        let (source, target) = view.ends(fact);
        if fact.label == x {
            incoming_x[target.0 as usize] += i128::from(view.multiplicity(id));
            touched[target.0 as usize] = true;
        }
        if fact.label == y {
            outgoing_y[source.0 as usize] += i128::from(view.multiplicity(id));
            touched[source.0 as usize] = true;
        }
    }

    // Rewritten facts never collide (facts are identified by their triple,
    // x-facts are redirected to twins, z is fresh), so their ids are assigned
    // sequentially and `provenance` is a dense push-indexed Vec.
    let mut provenance: Vec<Provenance> = Vec::with_capacity(db.num_facts());
    for (id, fact) in db.facts() {
        let (source, target) = view.ends(fact);
        let target = match fact.label {
            // y-facts are erased.
            l if l == y => continue,
            // x-facts are redirected to the twin (v, in).
            l if l == x => twin_of(&mut rewritten, target),
            _ => target,
        };
        let new =
            rewritten.add_fact_with_multiplicity(source, fact.label, target, view.multiplicity(id));
        debug_assert_eq!(new.index(), provenance.len());
        provenance.push(Provenance::Original(id));
    }

    // z-facts (extended bag semantics): multiplicity may be ≤ 0, in which case
    // the fact is removed for free and its (non-positive) multiplicity is
    // credited to the final value — the per-node exchange is taken for free.
    // `restored` starts as the free exchanges; cut exchanges join it below.
    let mut negative_credit: i128 = 0;
    let mut restored: Vec<bool> = vec![false; db.num_nodes()];
    for v in db.nodes() {
        if !touched[v.0 as usize] {
            continue;
        }
        let mult = incoming_x[v.0 as usize] - outgoing_y[v.0 as usize];
        if mult > 0 {
            let twin = twin_of(&mut rewritten, v);
            let new = rewritten.add_fact_with_multiplicity(twin, z, v, mult as u64);
            debug_assert_eq!(new.index(), provenance.len());
            provenance.push(Provenance::Exchange(v));
        } else {
            negative_credit += mult;
            restored[v.0 as usize] = true;
        }
    }

    // Solve the rewritten (positive-multiplicity) instance with the local
    // algorithm in bag semantics.
    trace.end(rewrite_timer, "rewrite");
    let (local_value, cut) =
        resilience_via_ro_enfa(&ro_rewritten, &rewritten, Semantics::Bag, scratch, trace, |_| true);
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
    // nodes whose exchange is taken: their y-facts survive, their x-facts go.
    // Every finite-capacity edge of the rewritten network is a rewritten
    // fact, and all of them were recorded above, so indexing cannot miss.
    let witness_timer = trace.begin();
    let mut witness: BTreeSet<FactId> = BTreeSet::new();
    for rewritten_fact in cut {
        match provenance[rewritten_fact.index()] {
            Provenance::Original(id) => {
                witness.insert(id);
            }
            Provenance::Exchange(v) => {
                restored[v.0 as usize] = true;
            }
        }
    }
    for (id, fact) in db.facts() {
        let (source, target) = view.ends(fact);
        if fact.label == x && restored[target.0 as usize] {
            witness.insert(id);
        }
        if fact.label == y && !restored[source.0 as usize] {
            witness.insert(id);
        }
    }
    trace.end(witness_timer, "witness_extract");
    Ok((value, Some(witness)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{resilience_by_enumeration, resilience_exact};
    use rpq_automata::alphabet::Letter;
    use rpq_automata::{Alphabet, Language, Word};
    use rpq_graphdb::generate::{one_dangling_instance, random_labeled_graph, word_path};

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
                resilience_one_dangling(&Rpq::parse(pattern).unwrap(), &db),
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
        let fast = resilience_one_dangling(&q, &db).unwrap();
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
        let out = resilience_one_dangling(&q, &db);
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
        let fast = resilience_one_dangling(&q, &db).unwrap();
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
                let fast = match resilience_one_dangling(&q, &db) {
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
                let fast = match resilience_one_dangling(&q, &db) {
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
            let fast = resilience_one_dangling(&q, &db).unwrap();
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
        let fast = resilience_one_dangling(&q, &db).unwrap();
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
        let fast = resilience_one_dangling(&q, &db).unwrap();
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
                    let fast = resilience_one_dangling(&q, &db).unwrap();
                    let oracle = resilience_by_enumeration(&q, &db);
                    assert_eq!(fast.value, oracle, "{pattern}, bag {bag}, seed {seed}");
                    assert_witness(&q, &db, &fast);
                }
            }
        }
        assert!(instances >= 200);
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
        let fast = resilience_one_dangling(&q, &db).unwrap();
        let slow = resilience_exact(&q, &db);
        assert_eq!(fast.value, slow.value);
        assert_witness(&q, &db, &fast);
    }
}
