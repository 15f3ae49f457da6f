//! Nondeterministic finite automata with ε-transitions (ε-NFAs).
//!
//! This mirrors the paper's definition (Section 2): an ε-NFA is a tuple
//! `A = (S, I, F, Δ)` with states `S`, initial states `I ⊆ S`, final states
//! `F ⊆ S`, and a transition relation `Δ ⊆ S × (Σ ∪ {ε}) × S`. The *size*
//! `|A|` is the total number of states plus transitions.

use crate::alphabet::{Alphabet, Letter};
use crate::dfa::Dfa;
use crate::word::Word;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// A transition of an ε-NFA: `(source, label, target)` where `label = None`
/// denotes an ε-transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Transition {
    /// Source state.
    pub from: usize,
    /// `Some(letter)` for a letter transition, `None` for an ε-transition.
    pub label: Option<Letter>,
    /// Target state.
    pub to: usize,
}

/// A nondeterministic finite automaton with ε-transitions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Enfa {
    num_states: usize,
    initial: BTreeSet<usize>,
    finals: BTreeSet<usize>,
    transitions: BTreeSet<Transition>,
}

impl Enfa {
    /// Creates an empty automaton with no states.
    pub fn new() -> Self {
        Enfa::default()
    }

    /// Adds a fresh state and returns its index.
    pub fn add_state(&mut self) -> usize {
        self.num_states += 1;
        self.num_states - 1
    }

    /// Adds `n` fresh states, returning the index of the first one.
    pub fn add_states(&mut self, n: usize) -> usize {
        let first = self.num_states;
        self.num_states += n;
        first
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// The size `|A| = |S| + |Δ|` as defined in the paper.
    pub fn size(&self) -> usize {
        self.num_states + self.transitions.len()
    }

    /// Marks a state as initial.
    pub fn set_initial(&mut self, state: usize) {
        assert!(state < self.num_states, "state out of range");
        self.initial.insert(state);
    }

    /// Marks a state as final.
    pub fn set_final(&mut self, state: usize) {
        assert!(state < self.num_states, "state out of range");
        self.finals.insert(state);
    }

    /// The set of initial states.
    pub fn initial_states(&self) -> &BTreeSet<usize> {
        &self.initial
    }

    /// The set of final states.
    pub fn final_states(&self) -> &BTreeSet<usize> {
        &self.finals
    }

    /// Whether `state` is final.
    pub fn is_final(&self, state: usize) -> bool {
        self.finals.contains(&state)
    }

    /// Adds a letter transition.
    pub fn add_transition(&mut self, from: usize, letter: Letter, to: usize) {
        assert!(from < self.num_states && to < self.num_states, "state out of range");
        self.transitions.insert(Transition { from, label: Some(letter), to });
    }

    /// Adds an ε-transition.
    pub fn add_epsilon_transition(&mut self, from: usize, to: usize) {
        assert!(from < self.num_states && to < self.num_states, "state out of range");
        self.transitions.insert(Transition { from, label: None, to });
    }

    /// Iterator over all transitions.
    pub fn transitions(&self) -> impl Iterator<Item = Transition> + '_ {
        self.transitions.iter().copied()
    }

    /// The set of letters appearing on transitions.
    pub fn letters(&self) -> Alphabet {
        Alphabet::from_letters(self.transitions.iter().filter_map(|t| t.label))
    }

    /// The ε-closure of a set of states: all states reachable via ε-transitions.
    pub fn epsilon_closure(&self, states: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut closure = states.clone();
        let mut queue: VecDeque<usize> = states.iter().copied().collect();
        // Index ε-successors once for efficiency.
        let mut eps_succ: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for t in &self.transitions {
            if t.label.is_none() {
                eps_succ.entry(t.from).or_default().push(t.to);
            }
        }
        while let Some(s) = queue.pop_front() {
            if let Some(succs) = eps_succ.get(&s) {
                for &t in succs {
                    if closure.insert(t) {
                        queue.push_back(t);
                    }
                }
            }
        }
        closure
    }

    /// Whether the automaton accepts `word`.
    pub fn accepts(&self, word: &Word) -> bool {
        let mut current = self.epsilon_closure(&self.initial);
        for letter in word.iter() {
            let mut next = BTreeSet::new();
            for t in &self.transitions {
                if t.label == Some(letter) && current.contains(&t.from) {
                    next.insert(t.to);
                }
            }
            current = self.epsilon_closure(&next);
            if current.is_empty() {
                return false;
            }
        }
        current.iter().any(|s| self.finals.contains(s))
    }

    /// States reachable from the initial states (through any transitions).
    pub fn accessible_states(&self) -> BTreeSet<usize> {
        let mut succ: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for t in &self.transitions {
            succ.entry(t.from).or_default().push(t.to);
        }
        let mut seen = self.initial.clone();
        let mut queue: VecDeque<usize> = self.initial.iter().copied().collect();
        while let Some(s) = queue.pop_front() {
            if let Some(next) = succ.get(&s) {
                for &t in next {
                    if seen.insert(t) {
                        queue.push_back(t);
                    }
                }
            }
        }
        seen
    }

    /// States from which a final state is reachable.
    pub fn coaccessible_states(&self) -> BTreeSet<usize> {
        let mut pred: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for t in &self.transitions {
            pred.entry(t.to).or_default().push(t.from);
        }
        let mut seen = self.finals.clone();
        let mut queue: VecDeque<usize> = self.finals.iter().copied().collect();
        while let Some(s) = queue.pop_front() {
            if let Some(prev) = pred.get(&s) {
                for &t in prev {
                    if seen.insert(t) {
                        queue.push_back(t);
                    }
                }
            }
        }
        seen
    }

    /// Returns a *trimmed* equivalent automaton: only useful (accessible and
    /// co-accessible) states are kept (Definition C.3 of the paper's appendix).
    pub fn trimmed(&self) -> Enfa {
        let useful: BTreeSet<usize> =
            self.accessible_states().intersection(&self.coaccessible_states()).copied().collect();
        let mut remap: BTreeMap<usize, usize> = BTreeMap::new();
        let mut out = Enfa::new();
        for &s in &useful {
            let ns = out.add_state();
            remap.insert(s, ns);
        }
        for &s in &self.initial {
            if let Some(&ns) = remap.get(&s) {
                out.set_initial(ns);
            }
        }
        for &s in &self.finals {
            if let Some(&ns) = remap.get(&s) {
                out.set_final(ns);
            }
        }
        for t in &self.transitions {
            if let (Some(&f), Some(&to)) = (remap.get(&t.from), remap.get(&t.to)) {
                match t.label {
                    Some(l) => out.add_transition(f, l, to),
                    None => out.add_epsilon_transition(f, to),
                }
            }
        }
        out
    }

    /// The mirror automaton, recognizing the mirror language `L^R`.
    pub fn reversed(&self) -> Enfa {
        let mut out = Enfa::new();
        out.add_states(self.num_states);
        for &s in &self.finals {
            out.set_initial(s);
        }
        for &s in &self.initial {
            out.set_final(s);
        }
        for t in &self.transitions {
            match t.label {
                Some(l) => out.add_transition(t.to, l, t.from),
                None => out.add_epsilon_transition(t.to, t.from),
            }
        }
        out
    }

    /// Subset construction: a complete DFA over `alphabet` recognizing the
    /// automaton's language restricted to words over `alphabet` (transitions
    /// on other letters are dropped).
    ///
    /// Each DFA state is an ε-closed set of states, kept as a sorted `Vec`.
    /// States are discovered breadth-first with letters in alphabet order, so
    /// state 0 is the closure of the initial states and the empty set, when
    /// reachable, is the rejecting sink.
    pub fn determinize(&self, alphabet: &Alphabet) -> Dfa {
        let state_id = |s: usize| u32::try_from(s).expect("ε-NFA state ids fit in u32");
        let mut epsilon: Vec<Vec<u32>> = vec![Vec::new(); self.num_states];
        let mut moves: Vec<Vec<(usize, u32)>> = vec![Vec::new(); self.num_states];
        for t in &self.transitions {
            match t.label {
                None => epsilon[t.from].push(state_id(t.to)),
                Some(letter) => {
                    if let Some(li) = alphabet.index_of(letter) {
                        moves[t.from].push((li, state_id(t.to)));
                    }
                }
            }
        }
        // Closes `set` under ε-transitions, dropping duplicates, and sorts
        // it. `seen` must be all false on entry, and is all false again on exit.
        let close = |set: &mut Vec<u32>, seen: &mut [bool]| {
            set.retain(|&s| !std::mem::replace(&mut seen[s as usize], true));
            let mut next = 0;
            while next < set.len() {
                let s = set[next] as usize;
                next += 1;
                for &t in &epsilon[s] {
                    if !std::mem::replace(&mut seen[t as usize], true) {
                        set.push(t);
                    }
                }
            }
            for &s in set.iter() {
                seen[s as usize] = false;
            }
            set.sort_unstable();
        };

        let width = alphabet.len();
        let accepting: Vec<bool> = (0..self.num_states).map(|s| self.is_final(s)).collect();
        let mut seen = vec![false; self.num_states];
        let mut start: Vec<u32> = self.initial.iter().map(|&s| state_id(s)).collect();
        close(&mut start, &mut seen);
        let mut index: HashMap<Vec<u32>, usize> = HashMap::from([(start.clone(), 0)]);
        let mut finals = vec![start.iter().any(|&s| accepting[s as usize])];
        let mut pending = VecDeque::from([start]);
        let mut transitions: Vec<Vec<usize>> = Vec::new();
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); width];
        while let Some(set) = pending.pop_front() {
            for &s in &set {
                for &(li, t) in &moves[s as usize] {
                    buckets[li].push(t);
                }
            }
            let mut row = Vec::with_capacity(width);
            for bucket in &mut buckets {
                close(bucket, &mut seen);
                let target = match index.get(bucket.as_slice()) {
                    Some(&i) => i,
                    None => {
                        let i = finals.len();
                        finals.push(bucket.iter().any(|&s| accepting[s as usize]));
                        index.insert(bucket.clone(), i);
                        pending.push_back(bucket.clone());
                        i
                    }
                };
                row.push(target);
                bucket.clear();
            }
            transitions.push(row);
        }
        Dfa::from_parts(alphabet.clone(), 0, finals, transitions)
    }

    /// Builds an ε-NFA recognizing exactly the given finite set of words.
    pub fn from_words<'a, I: IntoIterator<Item = &'a Word>>(words: I) -> Enfa {
        let mut enfa = Enfa::new();
        let start = enfa.add_state();
        enfa.set_initial(start);
        let accept = enfa.add_state();
        enfa.set_final(accept);
        for word in words {
            let mut current = start;
            for letter in word.iter() {
                let next = enfa.add_state();
                enfa.add_transition(current, letter, next);
                current = next;
            }
            enfa.add_epsilon_transition(current, accept);
        }
        enfa
    }

    /// Disjoint union of two automata, recognizing `L(self) ∪ L(other)`.
    pub fn union(&self, other: &Enfa) -> Enfa {
        let mut out = self.clone();
        let offset = out.add_states(other.num_states);
        for t in &other.transitions {
            match t.label {
                Some(l) => out.add_transition(t.from + offset, l, t.to + offset),
                None => out.add_epsilon_transition(t.from + offset, t.to + offset),
            }
        }
        for &s in &other.initial {
            out.set_initial(s + offset);
        }
        for &s in &other.finals {
            out.set_final(s + offset);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regex::Regex;

    fn w(s: &str) -> Word {
        Word::from_str_word(s)
    }

    fn enfa_for(pattern: &str) -> Enfa {
        Regex::parse(pattern).unwrap().to_enfa()
    }

    #[test]
    fn accepts_basic() {
        let e = enfa_for("ab|ad|cd");
        assert!(e.accepts(&w("ab")));
        assert!(e.accepts(&w("ad")));
        assert!(e.accepts(&w("cd")));
        assert!(!e.accepts(&w("cb")));
        assert!(!e.accepts(&w("a")));
        assert!(!e.accepts(&w("")));
    }

    #[test]
    fn epsilon_closure_is_transitive() {
        let mut e = Enfa::new();
        let s0 = e.add_state();
        let s1 = e.add_state();
        let s2 = e.add_state();
        e.add_epsilon_transition(s0, s1);
        e.add_epsilon_transition(s1, s2);
        let closure = e.epsilon_closure(&BTreeSet::from([s0]));
        assert_eq!(closure, BTreeSet::from([s0, s1, s2]));
    }

    #[test]
    fn trimming_removes_useless_states() {
        let mut e = Enfa::new();
        let s0 = e.add_state();
        let s1 = e.add_state();
        let _dead = e.add_state(); // unreachable
        let s3 = e.add_state(); // reachable but not co-accessible
        e.set_initial(s0);
        e.set_final(s1);
        e.add_transition(s0, Letter('a'), s1);
        e.add_transition(s0, Letter('b'), s3);
        let t = e.trimmed();
        assert_eq!(t.num_states(), 2);
        assert!(t.accepts(&w("a")));
        assert!(!t.accepts(&w("b")));
    }

    #[test]
    fn reversal_recognizes_mirror() {
        let e = enfa_for("abc|xd");
        let r = e.reversed();
        assert!(r.accepts(&w("cba")));
        assert!(r.accepts(&w("dx")));
        assert!(!r.accepts(&w("abc")));
    }

    #[test]
    fn determinize_preserves_language() {
        for pattern in ["ax*b", "ab|ad|cd", "b(aa)*d", "a?b+c*"] {
            let e = enfa_for(pattern);
            let d = e.determinize(&e.letters());
            for word in
                ["", "a", "ab", "ad", "cd", "axb", "axxb", "bd", "baad", "b", "bc", "abc", "abbcc"]
            {
                assert_eq!(
                    e.accepts(&w(word)),
                    d.accepts(&w(word)),
                    "pattern {pattern}, word {word}"
                );
            }
        }
        for pattern in ["ax*b", "ab|ad|cd", "(a|b)*abb", "a(b|c)*d"] {
            let e = enfa_for(pattern);
            let alphabet = e.letters();
            let d = e.determinize(&alphabet);
            for word in [
                "", "a", "ab", "ad", "cd", "axb", "axxb", "abb", "babb", "aabb", "ad", "abcd",
                "acbd", "abd",
            ] {
                let word = w(word);
                // Only compare on words over the DFA's alphabet.
                if word.iter().all(|l| alphabet.contains(l)) {
                    assert_eq!(e.accepts(&word), d.accepts(&word), "{pattern} on {word}");
                }
            }
        }
    }

    #[test]
    fn determinize_epsilon_free_automaton() {
        // Language: words over {a,b} ending in "ab".
        let mut e = Enfa::new();
        e.add_states(3);
        e.set_initial(0);
        e.set_final(2);
        e.add_transition(0, Letter('a'), 0);
        e.add_transition(0, Letter('b'), 0);
        e.add_transition(0, Letter('a'), 1);
        e.add_transition(1, Letter('b'), 2);
        assert!(e.accepts(&w("ab")));
        assert!(e.accepts(&w("aab")));
        assert!(e.accepts(&w("bbab")));
        assert!(!e.accepts(&w("ba")));
        assert!(!e.accepts(&w("")));
        let dfa = e.determinize(&e.letters());
        assert!(dfa.accepts(&w("bbab")));
        assert!(!dfa.accepts(&w("aba")));
    }

    #[test]
    fn determinize_drops_letters_outside_the_alphabet() {
        let e = enfa_for("ab|cd");
        let d = e.determinize(&Alphabet::from_chars("ab"));
        assert!(d.accepts(&w("ab")));
        assert!(!d.accepts(&w("cd")));
        // {closure of the initial states, after a, after ab, the empty sink}.
        assert_eq!(d.num_states(), 4);
    }

    #[test]
    fn from_words_recognizes_exactly_those_words() {
        let words = [w("aa"), w("abc"), w("")];
        let e = Enfa::from_words(words.iter());
        assert!(e.accepts(&w("aa")));
        assert!(e.accepts(&w("abc")));
        assert!(e.accepts(&w("")));
        assert!(!e.accepts(&w("a")));
        assert!(!e.accepts(&w("ab")));
        assert!(!e.accepts(&w("aabc")));
    }

    #[test]
    fn union_of_automata() {
        let e1 = enfa_for("ab");
        let e2 = enfa_for("cd");
        let u = e1.union(&e2);
        assert!(u.accepts(&w("ab")));
        assert!(u.accepts(&w("cd")));
        assert!(!u.accepts(&w("ac")));
    }

    #[test]
    fn size_counts_states_and_transitions() {
        let mut e = Enfa::new();
        let s0 = e.add_state();
        let s1 = e.add_state();
        e.add_transition(s0, Letter('a'), s1);
        e.add_epsilon_transition(s0, s1);
        assert_eq!(e.size(), 4);
    }

    #[test]
    fn letters_reported() {
        let e = enfa_for("ax*b|cxd");
        let letters = e.letters();
        assert_eq!(letters.len(), 5);
    }

    #[test]
    fn example_automaton_a3_from_figure_2c() {
        // RO-εNFA A3 for ab|ad|cd from Figure 2c, built by hand.
        let mut e = Enfa::new();
        let s1 = e.add_state();
        let s2 = e.add_state();
        let s3 = e.add_state();
        let s4 = e.add_state();
        let s5 = e.add_state();
        e.set_initial(s1);
        e.set_initial(s4);
        e.set_final(s3);
        e.set_final(s5);
        e.add_transition(s1, Letter('a'), s2);
        e.add_transition(s2, Letter('b'), s3);
        e.add_transition(s4, Letter('d'), s5);
        e.add_transition(s4, Letter('c'), s4); // placeholder replaced below
                                               // Rebuild properly: c goes from a fresh initial to s4; use the paper's shape:
                                               // s1 -a-> s2, s2 -b-> s3, s2 -ε-> s4, s4 -d-> s5, (c-transition from an initial state to s4)
        let mut e = Enfa::new();
        let s1 = e.add_state();
        let s2 = e.add_state();
        let s3 = e.add_state();
        let s4 = e.add_state();
        let s5 = e.add_state();
        let c_src = e.add_state();
        e.set_initial(s1);
        e.set_initial(c_src);
        e.set_final(s3);
        e.set_final(s5);
        e.add_transition(s1, Letter('a'), s2);
        e.add_transition(s2, Letter('b'), s3);
        e.add_epsilon_transition(s2, s4);
        e.add_transition(s4, Letter('d'), s5);
        e.add_transition(c_src, Letter('c'), s4);
        assert!(e.accepts(&w("ab")));
        assert!(e.accepts(&w("ad")));
        assert!(e.accepts(&w("cd")));
        assert!(!e.accepts(&w("cb")));
    }
}
