//! Boolean RPQ evaluation and match enumeration.
//!
//! The query `Q_L` holds on a database `D` when `D` contains an `L`-walk: a
//! sequence of consecutive facts whose labels spell a word of `L`
//! (walk semantics — nodes and facts may repeat). Evaluation is the standard
//! product construction between the database and an ε-NFA for `L`, followed by
//! a reachability test (cf. [34, Lemma 3.1] in the paper).

use crate::db::{FactId, GraphDb, NodeId};
use rpq_automata::enfa::Enfa;
use rpq_automata::finite::FiniteLanguage;
use rpq_automata::language::Language;
use rpq_automata::word::Word;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Whether `Q_L(D)` holds, for `L` given by an ε-NFA.
pub fn satisfies_enfa(db: &GraphDb, enfa: &Enfa) -> bool {
    satisfies_enfa_excluding(db, enfa, &BTreeSet::new())
}

/// Whether `Q_L(D)` holds.
pub fn satisfies(db: &GraphDb, language: &Language) -> bool {
    satisfies_enfa(db, &rpq_automata::language::enfa_from_dfa(language.dfa()))
}

/// Whether `Q_L(D \ excluded)` holds, i.e. the query still holds after
/// removing the given facts. This is the primitive used to check contingency
/// sets without materializing sub-databases.
pub fn satisfies_excluding(db: &GraphDb, language: &Language, excluded: &BTreeSet<FactId>) -> bool {
    satisfies_enfa_excluding(db, &rpq_automata::language::enfa_from_dfa(language.dfa()), excluded)
}

/// Whether `Q_L(D \ excluded)` holds, for `L` given by an ε-NFA.
pub fn satisfies_enfa_excluding(db: &GraphDb, enfa: &Enfa, excluded: &BTreeSet<FactId>) -> bool {
    find_witness_walk_enfa(db, enfa, excluded).is_some() || accepts_empty_word(enfa)
}

fn accepts_empty_word(enfa: &Enfa) -> bool {
    enfa.accepts(&Word::epsilon())
}

/// Finds an `L`-walk in `D \ excluded`, returned as the sequence of facts
/// traversed, or `None` if no such walk exists.
///
/// If `ε ∈ L` the query trivially holds but the returned walk, being a
/// sequence of facts, would be empty; this function then returns
/// `Some(vec![])` only when an empty walk witnesses the query, i.e. always.
/// Callers that need "the query holds for a non-trivial reason" should check
/// `ε ∈ L` separately (the resilience of such queries is `+∞` anyway).
pub fn find_witness_walk(
    db: &GraphDb,
    language: &Language,
    excluded: &BTreeSet<FactId>,
) -> Option<Vec<FactId>> {
    find_witness_walk_enfa(db, &rpq_automata::language::enfa_from_dfa(language.dfa()), excluded)
}

/// ε-NFA version of [`find_witness_walk`].
pub fn find_witness_walk_enfa(
    db: &GraphDb,
    enfa: &Enfa,
    excluded: &BTreeSet<FactId>,
) -> Option<Vec<FactId>> {
    if accepts_empty_word(enfa) {
        return Some(Vec::new());
    }
    // Product reachability: states are (node, automaton state). We search by
    // BFS, which yields a witness walk using a minimal number of facts.
    // ε-transitions of the automaton move between product states for free.
    let initial_closure = enfa.epsilon_closure(enfa.initial_states());

    // Pre-index ε-successors and letter transitions by (state, letter).
    let mut eps_succ: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut letter_succ: BTreeMap<(usize, char), Vec<usize>> = BTreeMap::new();
    for t in enfa.transitions() {
        match t.label {
            None => eps_succ.entry(t.from).or_default().push(t.to),
            Some(l) => letter_succ.entry((t.from, l.0)).or_default().push(t.to),
        }
    }

    type Product = (NodeId, usize);
    let mut parent: ParentMap = BTreeMap::new();
    let mut seen: BTreeSet<Product> = BTreeSet::new();
    let mut queue: VecDeque<Product> = VecDeque::new();

    for node in db.nodes() {
        for &state in &initial_closure {
            let p = (node, state);
            if seen.insert(p) {
                if enfa.is_final(state) {
                    // ε ∈ L handled above; a final state in the initial closure
                    // with no facts read means the empty word is accepted.
                    return Some(Vec::new());
                }
                queue.push_back(p);
            }
        }
    }

    while let Some((node, state)) = queue.pop_front() {
        // ε-moves of the automaton (same database node).
        if let Some(succs) = eps_succ.get(&state) {
            for &next_state in succs {
                let p = (node, next_state);
                if seen.insert(p) {
                    parent.insert(p, ((node, state), None));
                    if enfa.is_final(next_state) {
                        return Some(reconstruct(p, &parent));
                    }
                    queue.push_back(p);
                }
            }
        }
        // Fact moves: follow an outgoing fact whose label has a transition.
        for fact_id in db.out_facts(node) {
            if excluded.contains(&fact_id) {
                continue;
            }
            let fact = db.fact(fact_id);
            if let Some(succs) = letter_succ.get(&(state, fact.label.0)) {
                for &next_state in succs {
                    let p = (fact.target, next_state);
                    if seen.insert(p) {
                        parent.insert(p, ((node, state), Some(fact_id)));
                        if enfa.is_final(next_state) {
                            return Some(reconstruct(p, &parent));
                        }
                        queue.push_back(p);
                    }
                }
            }
        }
    }
    None
}

/// BFS predecessor map over product states `(node, automaton state)`: each
/// entry records the preceding product state and the fact traversed, if any.
type ParentMap = BTreeMap<(NodeId, usize), ((NodeId, usize), Option<FactId>)>;

fn reconstruct(end: (NodeId, usize), parent: &ParentMap) -> Vec<FactId> {
    let mut facts = Vec::new();
    let mut current = end;
    while let Some(&(prev, fact)) = parent.get(&current) {
        if let Some(f) = fact {
            facts.push(f);
        }
        current = prev;
    }
    facts.reverse();
    facts
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
        let walk = find_witness_walk(&db, &l, &BTreeSet::new()).unwrap();
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
        assert!(find_witness_walk(&db, &Language::parse("aa").unwrap(), &BTreeSet::new()).is_none());
    }

    #[test]
    fn walks_may_reuse_facts() {
        // A cycle u -a-> v -a-> u allows the walk aaa even with only 2 facts.
        let mut db = GraphDb::new();
        db.add_fact_by_names("u", 'a', "v");
        db.add_fact_by_names("v", 'a', "u");
        assert!(satisfies(&db, &Language::parse("aaa").unwrap()));
        assert!(satisfies(&db, &Language::parse("aaaaaa").unwrap()));
        let walk =
            find_witness_walk(&db, &Language::parse("aaa").unwrap(), &BTreeSet::new()).unwrap();
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
