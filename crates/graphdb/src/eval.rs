//! Boolean RPQ evaluation and match enumeration.
//!
//! The query `Q_L` holds on a database `D` when `D` contains an `L`-walk: a
//! sequence of consecutive facts whose labels spell a word of `L`
//! (walk semantics — nodes and facts may repeat). Evaluation is the standard
//! product construction between the database and the DFA of `L`, followed by
//! a reachability test (cf. [34, Lemma 3.1] in the paper).

use crate::db::{FactId, GraphDb, NodeId};
use rpq_automata::finite::FiniteLanguage;
use rpq_automata::language::Language;
use rpq_automata::word::Word;
use std::collections::{BTreeSet, VecDeque};

/// Whether `Q_L(D)` holds.
pub fn satisfies(db: &GraphDb, language: &Language) -> bool {
    find_witness_walk(db, language, &[]).0.is_some()
}

/// Whether `Q_L(D \ excluded)` holds, i.e. the query still holds after
/// removing the given facts. This is the primitive used to check contingency
/// sets without materializing sub-databases.
pub fn satisfies_excluding(db: &GraphDb, language: &Language, excluded: &BTreeSet<FactId>) -> bool {
    let mut mask = vec![false; db.num_facts()];
    for fact in excluded {
        if let Some(slot) = mask.get_mut(fact.index()) {
            *slot = true;
        }
    }
    find_witness_walk(db, language, &mask).0.is_some()
}

/// Finds a shortest `L`-walk in `D` that uses no fact `f` with
/// `excluded[f.index()]` (facts past the end of `excluded` are allowed),
/// returned as the sequence of facts traversed, or `None` if no such walk
/// exists. The second component is the number of product states
/// `(node, DFA state)` the breadth-first search visited: the work it did,
/// which a caller repeating the search can charge against a budget.
///
/// If `ε ∈ L` the empty walk witnesses the query: the result is then
/// `Some(vec![])`. Callers that need "the query holds for a non-trivial
/// reason" should check `ε ∈ L` separately (the resilience of such queries
/// is `+∞` anyway).
pub fn find_witness_walk(
    db: &GraphDb,
    language: &Language,
    excluded: &[bool],
) -> (Option<Vec<FactId>>, u64) {
    const UNSEEN: (u32, u32) = (u32::MAX, u32::MAX);
    const ROOT: (u32, u32) = (u32::MAX - 1, u32::MAX - 1);
    let dfa = language.dfa();
    let initial = dfa.initial_state();
    if dfa.is_final(initial) {
        return (Some(Vec::new()), 0);
    }
    // Only states from which a final state is reachable can lie on a walk.
    let coaccessible = dfa.coaccessible_states();
    let live: Vec<bool> = (0..dfa.num_states()).map(|s| coaccessible.contains(&s)).collect();
    if !live[initial] {
        return (None, 0);
    }
    // `parent[node * states + state]` is the (fact, state) that first
    // reached the product state; every node starts in the initial state.
    let states = dfa.num_states();
    let mut parent = vec![UNSEEN; db.num_nodes() * states];
    let mut queue: VecDeque<(NodeId, usize)> = VecDeque::with_capacity(db.num_nodes());
    for node in db.nodes() {
        parent[node.0 as usize * states + initial] = ROOT;
        queue.push_back((node, initial));
    }
    let mut visited = queue.len() as u64;
    while let Some((node, state)) = queue.pop_front() {
        for fact_id in db.out_facts(node) {
            if excluded.get(fact_id.index()).copied().unwrap_or(false) {
                continue;
            }
            let fact = db.fact(fact_id);
            let Some(next) = dfa.successor(state, fact.label).filter(|&next| live[next]) else {
                continue;
            };
            let slot = fact.target.0 as usize * states + next;
            if parent[slot] != UNSEEN {
                continue;
            }
            parent[slot] = (fact_id.0, state as u32);
            visited += 1;
            if dfa.is_final(next) {
                // Walk the parents back to a start state.
                let mut walk = Vec::new();
                let mut slot = slot;
                while parent[slot] != ROOT {
                    let (fact, state) = parent[slot];
                    walk.push(FactId(fact));
                    slot = db.fact(FactId(fact)).source.0 as usize * states + state as usize;
                }
                walk.reverse();
                return (Some(walk), visited);
            }
            queue.push_back((fact.target, next));
        }
    }
    (None, visited)
}

/// Enumerates the **matches** of a finite language on the database
/// (Section 4.3): every set of facts `{e₁, …, eₘ}` underlying an `L`-walk.
/// Several walks may induce the same match; matches are deduplicated.
///
/// The enumeration is exponential in the word length in the worst case (walks
/// may revisit facts); it is intended for the small gadget databases and the
/// small instances used to validate hardness reductions, not for large data.
pub fn enumerate_matches(db: &GraphDb, language: &FiniteLanguage) -> Vec<BTreeSet<FactId>> {
    let mut matches: BTreeSet<BTreeSet<FactId>> = BTreeSet::new();
    for word in language.words() {
        if word.is_empty() {
            matches.insert(BTreeSet::new());
            continue;
        }
        // DFS over partial walks labeled by the word's prefix.
        let mut stack: Vec<(usize, NodeId, Vec<FactId>)> = Vec::new();
        for node in db.nodes() {
            stack.push((0, node, Vec::new()));
        }
        while let Some((pos, node, walk)) = stack.pop() {
            if pos == word.len() {
                matches.insert(walk.iter().copied().collect());
                continue;
            }
            let letter = word.letter_at(pos);
            for fact_id in db.out_facts(node) {
                let fact = db.fact(fact_id);
                if fact.label == letter {
                    let mut next_walk = walk.clone();
                    next_walk.push(fact_id);
                    stack.push((pos + 1, fact.target, next_walk));
                }
            }
        }
    }
    matches.into_iter().collect()
}

/// Enumerates the matches of an arbitrary regular language on an **acyclic**
/// database: the sets of facts underlying `L`-walks.
///
/// On an acyclic database every walk is a simple path, so the enumeration is
/// finite and exact even for infinite languages (this is what the hardness
/// gadgets of Section 5 need, e.g. for `a x* b | c x d`). Returns `None` when
/// the database has a directed cycle, in which case the caller should fall
/// back to [`enumerate_matches`] with a finite language.
pub fn enumerate_matches_regular(
    db: &GraphDb,
    language: &Language,
) -> Option<Vec<BTreeSet<FactId>>> {
    if has_directed_cycle(db) {
        return None;
    }
    let mut matches: BTreeSet<BTreeSet<FactId>> = BTreeSet::new();
    if language.contains(&Word::epsilon()) {
        matches.insert(BTreeSet::new());
    }
    // DFS over all walks (= simple paths, the database being acyclic).
    let mut stack: Vec<(NodeId, Vec<FactId>, Word)> = Vec::new();
    for node in db.nodes() {
        stack.push((node, Vec::new(), Word::epsilon()));
    }
    while let Some((node, walk, word)) = stack.pop() {
        if !walk.is_empty() && language.contains(&word) {
            matches.insert(walk.iter().copied().collect());
        }
        for fact_id in db.out_facts(node) {
            let fact = db.fact(fact_id);
            let mut next_walk = walk.clone();
            next_walk.push(fact_id);
            let next_word = word.concat(&Word::single(fact.label));
            stack.push((fact.target, next_walk, next_word));
        }
    }
    Some(matches.into_iter().collect())
}

/// Whether the database has a directed cycle.
pub fn has_directed_cycle(db: &GraphDb) -> bool {
    // Three-colour DFS over nodes with an explicit stack of (node, its
    // unexplored out-facts), so a long path costs heap, not call stack.
    const WHITE: u8 = 0;
    const GREY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; db.num_nodes()];
    let mut stack = Vec::new();
    for root in db.nodes() {
        if color[root.0 as usize] != WHITE {
            continue;
        }
        color[root.0 as usize] = GREY;
        stack.push((root, db.out_facts(root)));
        while let Some((v, facts)) = stack.last_mut() {
            let (v, next) = (*v, facts.next());
            let Some(f) = next else {
                color[v.0 as usize] = BLACK;
                stack.pop();
                continue;
            };
            let t = db.fact(f).target;
            match color[t.0 as usize] {
                GREY => return true,
                WHITE => {
                    color[t.0 as usize] = GREY;
                    stack.push((t, db.out_facts(t)));
                }
                _ => {}
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::alphabet::Letter;
    use rpq_automata::Language;

    #[test]
    fn cycle_detection() {
        let mut db = GraphDb::new();
        db.add_fact_by_names("u", 'a', "v");
        db.add_fact_by_names("v", 'a', "w");
        assert!(!has_directed_cycle(&db));
        db.add_fact_by_names("w", 'a', "u");
        assert!(has_directed_cycle(&db));
        // A self-loop, and a cycle reachable only from a later root.
        let mut db = GraphDb::new();
        db.add_fact_by_names("u", 'a', "u");
        assert!(has_directed_cycle(&db));
        let mut db = GraphDb::new();
        db.add_fact_by_names("u", 'a', "v");
        db.add_fact_by_names("w", 'a', "v");
        db.add_fact_by_names("v", 'a', "x");
        assert!(!has_directed_cycle(&db));
        db.add_fact_by_names("x", 'a', "w");
        assert!(has_directed_cycle(&db));
    }

    #[test]
    fn cycle_detection_is_stack_safe_on_long_chains() {
        // A 200,000-node path: recursing once per node would overflow a
        // default-sized (2 MiB) thread stack.
        let n = 200_000;
        let mut db = GraphDb::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| db.fresh_node()).collect();
        for pair in nodes.windows(2) {
            db.add_fact(pair[0], Letter('a'), pair[1]);
        }
        let mut cyclic = db.clone();
        cyclic.add_fact(nodes[n - 1], Letter('a'), nodes[0]);
        let (acyclic_answer, cyclic_answer) = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || (has_directed_cycle(&db), has_directed_cycle(&cyclic)))
            .unwrap()
            .join()
            .unwrap();
        assert!(!acyclic_answer);
        assert!(cyclic_answer);
    }

    #[test]
    fn regular_match_enumeration_on_dag() {
        let mut db = GraphDb::new();
        let f1 = db.add_fact_by_names("s", 'a', "u");
        let f2 = db.add_fact_by_names("u", 'x', "v");
        let f3 = db.add_fact_by_names("v", 'x', "w");
        let f4 = db.add_fact_by_names("w", 'b', "t");
        let lang = Language::parse("ax*b").unwrap();
        let matches = enumerate_matches_regular(&db, &lang).unwrap();
        // The only L-walk is the full path a x x b.
        assert_eq!(matches, vec![[f1, f2, f3, f4].into_iter().collect::<BTreeSet<_>>()]);
        // The xx query has exactly one match too.
        let matches = enumerate_matches_regular(&db, &Language::parse("x*").unwrap()).unwrap();
        // x, xx, and the empty match (ε ∈ x*).
        assert_eq!(matches.len(), 4);
        // On a cyclic database, the enumeration refuses to run.
        let mut cyclic = GraphDb::new();
        cyclic.add_fact_by_names("u", 'a', "v");
        cyclic.add_fact_by_names("v", 'a', "u");
        assert!(enumerate_matches_regular(&cyclic, &lang).is_none());
    }

    fn path_db() -> GraphDb {
        let mut db = GraphDb::new();
        db.add_fact_by_names("s", 'a', "u");
        db.add_fact_by_names("u", 'x', "v");
        db.add_fact_by_names("v", 'x', "w");
        db.add_fact_by_names("w", 'b', "t");
        db
    }

    #[test]
    fn satisfies_simple_walks() {
        let db = path_db();
        assert!(satisfies(&db, &Language::parse("ax*b").unwrap()));
        assert!(satisfies(&db, &Language::parse("axxb").unwrap()));
        assert!(satisfies(&db, &Language::parse("xx").unwrap()));
        assert!(!satisfies(&db, &Language::parse("axb").unwrap()));
        assert!(!satisfies(&db, &Language::parse("ba").unwrap()));
        assert!(!satisfies(&db, &Language::parse("aa").unwrap()));
    }

    #[test]
    fn epsilon_query_always_holds() {
        let db = GraphDb::new();
        assert!(satisfies(&db, &Language::parse("a*").unwrap()));
        assert!(satisfies(&db, &Language::parse("ε").unwrap()));
        assert!(!satisfies(&db, &Language::parse("a").unwrap()));
    }

    #[test]
    fn excluding_facts_changes_the_answer() {
        let db = path_db();
        let l = Language::parse("ax*b").unwrap();
        let a_fact = db
            .find_fact(
                db.find_node("s").unwrap(),
                rpq_automata::alphabet::Letter('a'),
                db.find_node("u").unwrap(),
            )
            .unwrap();
        let excluded: BTreeSet<FactId> = [a_fact].into_iter().collect();
        assert!(satisfies(&db, &l));
        assert!(!satisfies_excluding(&db, &l, &excluded));
        // Excluding an x still leaves... no a-to-b path, since the only a-path
        // runs through both x facts.
        let x_fact = db
            .find_fact(
                db.find_node("u").unwrap(),
                rpq_automata::alphabet::Letter('x'),
                db.find_node("v").unwrap(),
            )
            .unwrap();
        assert!(!satisfies_excluding(&db, &l, &[x_fact].into_iter().collect()));
        // But the query xx alone survives removing the a fact.
        assert!(satisfies_excluding(&db, &Language::parse("xx").unwrap(), &excluded));
    }

    #[test]
    fn witness_walk_is_a_real_walk() {
        let db = path_db();
        let l = Language::parse("ax*b").unwrap();
        let walk = find_witness_walk(&db, &l, &[]).0.unwrap();
        assert_eq!(walk.len(), 4);
        // Consecutive facts must be adjacent and the labels must spell a word of L.
        let word: String = walk.iter().map(|&f| db.fact(f).label.as_char()).collect();
        assert!(l.contains_str(&word).unwrap());
        for pair in walk.windows(2) {
            assert_eq!(db.fact(pair[0]).target, db.fact(pair[1]).source);
        }
    }

    #[test]
    fn witness_walk_none_when_query_false() {
        let db = path_db();
        assert!(find_witness_walk(&db, &Language::parse("aa").unwrap(), &[]).0.is_none());
    }

    #[test]
    fn walks_may_reuse_facts() {
        // A cycle u -a-> v -a-> u allows the walk aaa even with only 2 facts.
        let mut db = GraphDb::new();
        db.add_fact_by_names("u", 'a', "v");
        db.add_fact_by_names("v", 'a', "u");
        assert!(satisfies(&db, &Language::parse("aaa").unwrap()));
        assert!(satisfies(&db, &Language::parse("aaaaaa").unwrap()));
        let walk = find_witness_walk(&db, &Language::parse("aaa").unwrap(), &[]).0.unwrap();
        assert_eq!(walk.len(), 3);
        // Only two distinct facts are used.
        let distinct: BTreeSet<FactId> = walk.iter().copied().collect();
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn enumerate_matches_of_aa() {
        // Figure 3c: the graph of aa-matches of the completed gadget is a path.
        // Here: a smaller example, s -a-> u -a-> v -a-> w has two aa-matches.
        let mut db = GraphDb::new();
        let f1 = db.add_fact_by_names("s", 'a', "u");
        let f2 = db.add_fact_by_names("u", 'a', "v");
        let f3 = db.add_fact_by_names("v", 'a', "w");
        let lang = FiniteLanguage::from_strs(["aa"]);
        let matches = enumerate_matches(&db, &lang);
        assert_eq!(matches.len(), 2);
        assert!(matches.contains(&[f1, f2].into_iter().collect()));
        assert!(matches.contains(&[f2, f3].into_iter().collect()));
    }

    #[test]
    fn enumerate_matches_with_self_loop() {
        // A self-loop a on node u: the walk aa uses the same fact twice, so
        // the match is the singleton {loop}.
        let mut db = GraphDb::new();
        let u = db.node("u");
        let loop_fact = db.add_fact(u, rpq_automata::alphabet::Letter('a'), u);
        let matches = enumerate_matches(&db, &FiniteLanguage::from_strs(["aa"]));
        assert_eq!(matches, vec![[loop_fact].into_iter().collect::<BTreeSet<_>>()]);
    }

    #[test]
    fn enumerate_matches_multiple_words() {
        let mut db = GraphDb::new();
        let f1 = db.add_fact_by_names("1", 'a', "2");
        let f2 = db.add_fact_by_names("2", 'b', "3");
        let f3 = db.add_fact_by_names("2", 'c', "3");
        let lang = FiniteLanguage::from_strs(["ab", "ac"]);
        let matches = enumerate_matches(&db, &lang);
        assert_eq!(matches.len(), 2);
        assert!(matches.contains(&[f1, f2].into_iter().collect()));
        assert!(matches.contains(&[f1, f3].into_iter().collect()));
    }
}
