//! The exact solver of the NP-hard side: one budgeted branch and bound.
//!
//! Resilience is the cost of a cheapest hitting set of the hypergraph of
//! matches (Definition 4.7), and computing it is NP-hard for many languages
//! (Sections 4–6 of the paper), so no general solver is polynomial.
//! [`resilience_search`] runs branch and bound over **witness walks**, found
//! on demand by [`find_witness_walk`], so infinite languages work too:
//!
//! * **Bound.** Every search node packs witness walks that share no
//!   removable fact. Each walk must be hit by a distinct fact, so the sum of
//!   the walks' cheapest removable facts is a certified lower bound. Once no
//!   further walk avoids the packed facts, all of them together form a
//!   contingency set: every packing also gives an upper bound. At the root
//!   that set is pruned to a minimal one (each fact is dropped whose
//!   deletion leaves a contingency set), the first incumbent.
//! * **Branch.** A node branches on its packed walk with the fewest
//!   removable facts. The `i`-th child removes the walk's `i`-th fact and
//!   keeps its first `i − 1`, so the children's subtrees are disjoint. A
//!   node is pruned when its cost plus its lower bound reaches the best
//!   contingency set found so far, and the search ends when that set's cost
//!   meets the root's lower bound.
//! * **Stack.** The search runs on an explicit `Vec` of frames, so a deep
//!   search is bounded by memory, never by the thread stack.
//! * **Budget.** The search is charged in work units: the product states
//!   the witness searches visit. The budget is checked before each witness
//!   search, so one search can overrun it by at most one product's size.
//!   A search that runs out returns the certified sandwich `[root lower
//!   bound, incumbent]` instead of an exact value. With no work at all it
//!   still answers `0` when the query does not hold and `+∞` when deleting
//!   every endogenous fact cannot break it (two uncharged linear-time
//!   checks), and otherwise `[min fact cost, cost of all endogenous facts]`.

use crate::rpq::{ResilienceValue, Rpq};
use rpq_graphdb::{find_witness_walk, FactId, GraphDb};
use std::collections::BTreeSet;

/// The work units (witness-search product states) granted per microsecond
/// of a caller's deadline or cost budget: see [`work_budget`].
pub const WORK_PER_US: u64 = 20;

/// The work budget of a search under no deadline or cost budget: the most
/// one request may spend on the NP-hard side.
pub const WORK_CAP: u64 = 40_000_000;

/// The work budget of a search under an effective limit in estimated
/// microseconds ([`crate::router::Router::effective_limit_us`]): the limit
/// times [`WORK_PER_US`], or [`WORK_CAP`] when there is no limit.
pub fn work_budget(limit_us: Option<u64>) -> u64 {
    limit_us.map_or(WORK_CAP, |us| us.saturating_mul(WORK_PER_US))
}

/// The result of a resilience search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactResilience {
    /// The resilience value when the search finished; the cost of
    /// `contingency_set`, an upper bound, when it stopped on its budget.
    pub value: ResilienceValue,
    /// Certified `lower ≤ RES(Q, D) ≤ upper` bounds when the search stopped
    /// on its budget before closing the gap; `None` when `value` is exact.
    pub bounds: Option<(u128, u128)>,
    /// A contingency set of cost `value`: optimal when the search finished
    /// (empty when the query does not hold or the value is infinite).
    pub contingency_set: BTreeSet<FactId>,
    /// Number of branch-and-bound nodes explored (for reporting).
    pub explored_nodes: u64,
    /// Work units charged: product states visited by the witness searches.
    pub work: u64,
}

impl ExactResilience {
    fn exact(value: ResilienceValue, contingency_set: BTreeSet<FactId>) -> ExactResilience {
        ExactResilience { value, bounds: None, contingency_set, explored_nodes: 1, work: 0 }
    }
}

/// Computes the resilience of a query on a database by the budgeted branch
/// and bound of this module under the constant [`WORK_CAP`]: exact on every
/// instance the cap suffices for, a certified sandwich beyond.
///
/// ```
/// use rpq_resilience::exact::resilience_exact;
/// use rpq_resilience::rpq::{ResilienceValue, Rpq};
/// use rpq_graphdb::GraphDb;
///
/// let mut db = GraphDb::new();
/// db.add_fact_by_names("u", 'a', "v");
/// db.add_fact_by_names("v", 'a', "w");
/// db.add_fact_by_names("w", 'a', "x");
/// let result = resilience_exact(&Rpq::parse("aa").unwrap(), &db);
/// assert_eq!(result.value, ResilienceValue::Finite(1)); // remove the middle fact
/// ```
pub fn resilience_exact(rpq: &Rpq, db: &GraphDb) -> ExactResilience {
    resilience_search(rpq, db, WORK_CAP)
}

/// Searches for the resilience of a query on a database with at most about
/// `budget` work units (see the [module docs](self)).
pub fn resilience_search(rpq: &Rpq, db: &GraphDb, budget: u64) -> ExactResilience {
    let language = rpq.language();
    if language.contains_epsilon() {
        // Every sub-database (including the empty one) satisfies the query.
        return ExactResilience::exact(ResilienceValue::Infinite, BTreeSet::new());
    }
    if find_witness_walk(db, language, &[]).0.is_none() {
        return ExactResilience::exact(ResilienceValue::Finite(0), BTreeSet::new());
    }
    // Exogenous facts can never be removed: when a walk survives deleting
    // every endogenous fact, no contingency set exists.
    let endogenous: Vec<bool> = db.fact_ids().map(|f| !db.is_exogenous(f)).collect();
    if find_witness_walk(db, language, &endogenous).0.is_some() {
        return ExactResilience::exact(ResilienceValue::Infinite, BTreeSet::new());
    }
    let mut search = Search {
        rpq,
        db,
        cost: db.fact_ids().map(|f| rpq.semantics().fact_cost(db, f) as u128).collect(),
        blocked: vec![false; db.num_facts()],
        kept: endogenous.iter().map(|&e| !e).collect(),
        work: 0,
        budget,
    };
    // The incumbent: deleting every endogenous fact. The query holds, so
    // every contingency set is nonempty and costs at least the cheapest fact.
    let mut best_set: BTreeSet<FactId> = db.endogenous_facts().collect();
    let mut best: u128 = best_set.iter().map(|f| search.cost[f.index()]).sum();
    let cheapest = best_set.iter().map(|f| search.cost[f.index()]).min().unwrap_or(0);

    let root = search.pack();
    let lower = cheapest.max(root.lower);
    if root.maximal {
        let kept = search.prune(&root.facts);
        let cost: u128 = kept.iter().map(|f| search.cost[f.index()]).sum();
        if cost < best {
            best = cost;
            best_set = kept.into_iter().collect();
        }
    }
    let mut stack = vec![Frame { choices: root.branch, next: 0, cost: 0 }];
    let mut explored: u64 = 1;
    let finished = loop {
        if best <= lower {
            break true;
        }
        if search.work >= search.budget {
            break false;
        }
        let Some(frame) = stack.last_mut() else { break true };
        // The previous child removed `prev`; its later siblings keep it.
        if let Some(&prev) = frame.next.checked_sub(1).and_then(|i| frame.choices.get(i)) {
            search.blocked[prev.index()] = false;
            search.kept[prev.index()] = true;
        }
        let Some(&fact) = frame.choices.get(frame.next) else {
            for &f in &frame.choices {
                search.kept[f.index()] = false;
            }
            stack.pop();
            continue;
        };
        frame.next += 1;
        let cost = frame.cost + search.cost[fact.index()];
        if cost >= best {
            continue;
        }
        search.blocked[fact.index()] = true;
        explored += 1;
        let packing = search.pack();
        if !packing.feasible {
            continue;
        }
        if packing.maximal && cost + packing.upper < best {
            best = cost + packing.upper;
            best_set = stack.iter().map(|f| f.choices[f.next - 1]).collect();
            best_set.extend(packing.facts.iter().copied());
        }
        if cost + packing.lower < best && !packing.branch.is_empty() {
            stack.push(Frame { choices: packing.branch, next: 0, cost });
        }
    };
    debug_assert!(rpq.is_contingency_set(db, &best_set) && rpq.cost(db, &best_set) == best);
    ExactResilience {
        value: ResilienceValue::Finite(best),
        bounds: (!finished).then_some((lower, best)),
        contingency_set: best_set,
        explored_nodes: explored,
        work: search.work,
    }
}

/// The mutable state of one search: which facts the current node removed
/// and which it must keep.
struct Search<'a> {
    rpq: &'a Rpq,
    db: &'a GraphDb,
    /// Per-fact removal cost under the query's semantics.
    cost: Vec<u128>,
    /// Facts no witness walk may use: those the current node removed, and
    /// those a packing in progress has set aside.
    blocked: Vec<bool>,
    /// Facts the current node may not remove: the exogenous facts, and the
    /// facts earlier siblings on its path removed.
    kept: Vec<bool>,
    /// Work units charged so far.
    work: u64,
    /// Work units granted.
    budget: u64,
}

/// One branch-and-bound node on the explicit stack: the removable facts of
/// the walk it branches on, and which child comes next.
struct Frame {
    choices: Vec<FactId>,
    next: usize,
    /// The cost of the facts the node removed.
    cost: u128,
}

/// A packing of witness walks that share no removable fact.
struct Packing {
    /// The sum of each walk's cheapest removable fact.
    lower: u128,
    /// The removable facts of every walk.
    facts: Vec<FactId>,
    /// The total cost of `facts`.
    upper: u128,
    /// The removable facts of the walk with the fewest.
    branch: Vec<FactId>,
    /// Whether no further walk avoids `facts`, so that they and the removed
    /// facts form a contingency set.
    maximal: bool,
    /// `false` when a walk uses only kept facts: no contingency set extends
    /// the current node.
    feasible: bool,
}

impl Search<'_> {
    /// Packs witness walks of the database minus the blocked facts until
    /// none is left, a walk has no removable fact, or the budget runs out
    /// (the packing found so far still bounds from below).
    fn pack(&mut self) -> Packing {
        let mut packing = Packing {
            lower: 0,
            facts: Vec::new(),
            upper: 0,
            branch: Vec::new(),
            maximal: false,
            feasible: true,
        };
        while self.work < self.budget {
            let (walk, visited) = find_witness_walk(self.db, self.rpq.language(), &self.blocked);
            self.work += visited;
            let Some(walk) = walk else {
                packing.maximal = true;
                break;
            };
            let mut removable: Vec<FactId> =
                walk.into_iter().filter(|f| !self.kept[f.index()]).collect();
            removable.sort_unstable();
            removable.dedup();
            let Some(cheapest) = removable.iter().map(|f| self.cost[f.index()]).min() else {
                packing.feasible = false;
                break;
            };
            packing.lower += cheapest;
            for &f in &removable {
                self.blocked[f.index()] = true;
                packing.upper += self.cost[f.index()];
            }
            packing.facts.extend_from_slice(&removable);
            if packing.branch.is_empty() || removable.len() < packing.branch.len() {
                packing.branch = removable;
            }
        }
        for &f in &packing.facts {
            self.blocked[f.index()] = false;
        }
        packing
    }

    /// Given `facts` that together with the blocked facts form a
    /// contingency set, drops each fact in turn whose deletion leaves one,
    /// and returns the facts kept. When the budget runs out, the facts not
    /// yet tried are kept.
    fn prune(&mut self, facts: &[FactId]) -> Vec<FactId> {
        for &f in facts {
            self.blocked[f.index()] = true;
        }
        let mut kept = Vec::new();
        for (i, &f) in facts.iter().enumerate() {
            if self.work >= self.budget {
                kept.extend_from_slice(&facts[i..]);
                break;
            }
            // The rest is a contingency set with `f`, so any walk without
            // it runs through `f`.
            self.blocked[f.index()] = false;
            let (walk, visited) = find_witness_walk(self.db, self.rpq.language(), &self.blocked);
            self.work += visited;
            if walk.is_some() {
                self.blocked[f.index()] = true;
                kept.push(f);
            }
        }
        for &f in &kept {
            self.blocked[f.index()] = false;
        }
        kept
    }
}

/// Computes the exact resilience by enumerating all subsets of facts
/// (reference implementation, `O(2^|D|)`): only usable on very small
/// databases, but free of any clever pruning and therefore a good oracle for
/// property-based tests.
pub fn resilience_by_enumeration(rpq: &Rpq, db: &GraphDb) -> ResilienceValue {
    resilience_by_enumeration_limited(rpq, db, DEFAULT_ENUMERATION_LIMIT)
        // lint: allow(panic-freedom, test oracle documented to require at most 24 facts)
        .expect("subset enumeration is limited to 24 facts")
}

/// The default fact limit of the subset-enumeration oracle (see
/// [`resilience_by_enumeration_limited`]); also the default of
/// `SolveOptions::enumeration_limit`.
pub const DEFAULT_ENUMERATION_LIMIT: usize = 24;

/// The largest honorable `limit` for [`resilience_by_enumeration_limited`]:
/// the subset mask is a `u128`, so more than 127 facts cannot be enumerated
/// regardless of the configured limit. Callers clamp to this before building
/// error messages so reported limits stay truthful.
pub const MAX_ENUMERATION_LIMIT: usize = 127;

/// Like [`resilience_by_enumeration`], but returns `None` instead of panicking
/// when the database has more than `limit` endogenous facts (`2^limit` subsets
/// would be enumerated; limits above [`MAX_ENUMERATION_LIMIT`] are clamped).
/// The engine surfaces this as the typed `ResilienceError::InstanceTooLarge`
/// error.
pub fn resilience_by_enumeration_limited(
    rpq: &Rpq,
    db: &GraphDb,
    limit: usize,
) -> Option<ResilienceValue> {
    let language = rpq.language();
    if language.contains_epsilon() {
        return Some(ResilienceValue::Infinite);
    }
    let facts: Vec<FactId> = db.endogenous_facts().collect();
    if facts.len() > limit.min(MAX_ENUMERATION_LIMIT) {
        return None;
    }
    let mut best: Option<u128> = None;
    for mask in 0u128..(1u128 << facts.len()) {
        let subset: BTreeSet<FactId> = facts
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &f)| f)
            .collect();
        if rpq.is_contingency_set(db, &subset) {
            let cost = rpq.cost(db, &subset);
            best = Some(best.map_or(cost, |b: u128| b.min(cost)));
        }
    }
    // With exogenous facts the query may hold on every removable subset, in
    // which case the resilience is +∞.
    Some(best.map_or(ResilienceValue::Infinite, ResilienceValue::Finite))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::Word;
    use rpq_graphdb::generate::word_path;

    #[test]
    fn epsilon_language_has_infinite_resilience() {
        let db = word_path(&Word::from_str_word("ab"));
        let q = Rpq::parse("a*").unwrap();
        assert_eq!(resilience_exact(&q, &db).value, ResilienceValue::Infinite);
        assert_eq!(resilience_by_enumeration(&q, &db), ResilienceValue::Infinite);
    }

    #[test]
    fn query_not_holding_has_zero_resilience() {
        let db = word_path(&Word::from_str_word("ab"));
        let q = Rpq::parse("ba").unwrap();
        assert_eq!(resilience_exact(&q, &db).value, ResilienceValue::Finite(0));
        assert!(resilience_exact(&q, &db).contingency_set.is_empty());
    }

    #[test]
    fn single_path_instances() {
        // On the path a x x b, the query a x* b has resilience 1.
        let db = word_path(&Word::from_str_word("axxb"));
        let q = Rpq::parse("ax*b").unwrap();
        let result = resilience_exact(&q, &db);
        assert_eq!(result.value, ResilienceValue::Finite(1));
        assert_eq!(result.contingency_set.len(), 1);
        assert!(q.is_contingency_set(&db, &result.contingency_set));
    }

    #[test]
    fn triangle_of_aa_matches() {
        // Path of 4 a-facts: a a a a. Matches of aa: (1,2),(2,3),(3,4): a
        // vertex cover of the path graph needs 2 facts? The match graph is a
        // path with 4 vertices and 3 edges: minimum vertex cover has size 2...
        // wait, facts are vertices: f1-f2, f2-f3, f3-f4: picking f2 and f3
        // covers all three edges, and 1 fact cannot. So resilience 2.
        let db = word_path(&Word::from_str_word("aaaa"));
        let q = Rpq::parse("aa").unwrap();
        let result = resilience_exact(&q, &db);
        assert_eq!(result.value, ResilienceValue::Finite(2));
        assert_eq!(resilience_by_enumeration(&q, &db), ResilienceValue::Finite(2));
    }

    #[test]
    fn bag_semantics_uses_multiplicities() {
        let mut db = rpq_graphdb::GraphDb::new();
        let f1 = db.add_fact_by_names("s", 'a', "u");
        let _f2 = db.add_fact_by_names("u", 'x', "v");
        let f3 = db.add_fact_by_names("v", 'b', "t");
        db.set_multiplicity(f1, 10);
        db.set_multiplicity(f3, 7);
        let q = Rpq::parse("axb").unwrap().with_bag_semantics();
        // Cheapest cut: the x fact with multiplicity 1.
        assert_eq!(resilience_exact(&q, &db).value, ResilienceValue::Finite(1));
        let set_q = Rpq::parse("axb").unwrap();
        assert_eq!(resilience_exact(&set_q, &db).value, ResilienceValue::Finite(1));
        // Make x expensive instead.
        let x = db.find_node("u").unwrap();
        let v = db.find_node("v").unwrap();
        let fx = db.find_fact(x, rpq_automata::alphabet::Letter('x'), v).unwrap();
        db.set_multiplicity(fx, 100);
        assert_eq!(resilience_exact(&q, &db).value, ResilienceValue::Finite(7));
        // Under set semantics the multiplicities are ignored: still 1.
        assert_eq!(resilience_exact(&set_q, &db).value, ResilienceValue::Finite(1));
    }

    #[test]
    fn branch_and_bound_agrees_with_enumeration_on_random_instances() {
        use rpq_automata::{Alphabet, Language};
        use rpq_graphdb::generate::random_labeled_graph;
        let alphabet = Alphabet::from_chars("ab");
        for seed in 0..8 {
            let db = random_labeled_graph(4, 7, &alphabet, seed);
            for pattern in ["aa", "ab", "ab|ba", "aba"] {
                let q = Rpq::new(Language::parse(pattern).unwrap());
                let bb = resilience_exact(&q, &db).value;
                let enumerated = resilience_by_enumeration(&q, &db);
                assert_eq!(bb, enumerated, "pattern {pattern}, seed {seed}");
            }
        }
    }

    #[test]
    fn search_agrees_with_enumeration_under_both_semantics_and_exogenous_facts() {
        use rpq_automata::{Alphabet, Language};
        use rpq_graphdb::generate::random_labeled_graph;
        let alphabet = Alphabet::from_chars("abc");
        for seed in 0..24u64 {
            let mut db = random_labeled_graph(5, 9, &alphabet, seed);
            let ids: Vec<FactId> = db.fact_ids().collect();
            for (i, &f) in ids.iter().enumerate() {
                db.set_multiplicity(f, 1 + (seed + i as u64) % 4);
            }
            if seed % 3 == 0 {
                db.set_exogenous(ids[seed as usize % ids.len()], true);
            }
            for pattern in ["aa", "ab|bc|ca", "abc|bb", "ab*c", "a(b|c)a"] {
                for bag in [false, true] {
                    let mut q = Rpq::new(Language::parse(pattern).unwrap());
                    if bag {
                        q = q.with_bag_semantics();
                    }
                    let context = format!("{pattern} bag={bag} seed {seed}");
                    let oracle = resilience_by_enumeration(&q, &db);
                    let exact = resilience_exact(&q, &db);
                    assert_eq!(exact.value, oracle, "{context}");
                    assert!(exact.bounds.is_none(), "{context}");
                    // Every budget answers with a certified sandwich whose
                    // witness is a contingency set of cost `upper`.
                    for budget in [0, 5, 40, 200] {
                        let stopped = resilience_search(&q, &db, budget);
                        let ResilienceValue::Finite(upper) = stopped.value else {
                            assert_eq!(stopped.value, oracle, "{context}, budget {budget}");
                            continue;
                        };
                        let (lower, bound_upper) = stopped.bounds.unwrap_or((upper, upper));
                        assert_eq!(bound_upper, upper, "{context}, budget {budget}");
                        let truth = oracle.finite().expect("a finite upper bound");
                        assert!(lower <= truth && truth <= upper, "{context}, budget {budget}");
                        assert!(q.is_contingency_set(&db, &stopped.contingency_set), "{context}");
                        assert_eq!(q.cost(&db, &stopped.contingency_set), upper, "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_zero_budget_returns_the_trivial_sandwich() {
        let db = word_path(&Word::from_str_word("aaaa"));
        let q = Rpq::parse("aa").unwrap();
        let stopped = resilience_search(&q, &db, 0);
        assert_eq!(stopped.bounds, Some((1, 4)));
        assert_eq!(stopped.value, ResilienceValue::Finite(4));
        assert_eq!(stopped.contingency_set.len(), 4);
        assert_eq!(stopped.work, 0);
        // 0 and +∞ need no work.
        let q = Rpq::parse("ba").unwrap();
        assert_eq!(resilience_search(&q, &db, 0).value, ResilienceValue::Finite(0));
        let mut db = word_path(&Word::from_str_word("aa"));
        for fact in db.fact_ids().collect::<Vec<_>>() {
            db.set_exogenous(fact, true);
        }
        let stopped = resilience_search(&Rpq::parse("aa").unwrap(), &db, 0);
        assert_eq!((stopped.value, stopped.bounds), (ResilienceValue::Infinite, None));
    }

    #[test]
    fn bag_costs_steer_the_cheapest_cut() {
        let mut db = GraphDb::new();
        let s = db.node("s");
        let u = db.node("u");
        let t = db.node("t");
        db.add_fact_with_multiplicity(s, 'a'.into(), u, 10);
        let f2 = db.add_fact_with_multiplicity(u, 'a'.into(), t, 1);
        let q = Rpq::parse("aa").unwrap().with_bag_semantics();
        let result = resilience_exact(&q, &db);
        assert_eq!(result.value, ResilienceValue::Finite(1));
        assert_eq!(result.contingency_set, [f2].into_iter().collect());
    }

    #[test]
    fn deep_searches_run_on_the_heap_stack() {
        // A 600-fact path: resilience 200 needs 200 removals on one branch,
        // deeper than a recursive search could go on this test thread.
        let db = word_path(&Word::from_letters(std::iter::repeat_n('a'.into(), 600)));
        let result = resilience_exact(&Rpq::parse("aaa").unwrap(), &db);
        assert_eq!(result.value, ResilienceValue::Finite(200));
        assert!(result.bounds.is_none());
    }

    #[test]
    fn contingency_set_is_optimal_and_valid() {
        let db = word_path(&Word::from_str_word("aaa"));
        let q = Rpq::parse("aa").unwrap();
        let result = resilience_exact(&q, &db);
        assert_eq!(result.value, ResilienceValue::Finite(1));
        assert!(q.is_contingency_set(&db, &result.contingency_set));
        assert_eq!(q.cost(&db, &result.contingency_set), 1);
        assert!(result.explored_nodes >= 1);
    }
}
