//! Deterministic finite automata, complete over an explicit alphabet.
//!
//! The [`Dfa`] type is the workhorse on which most language analyses run:
//! Boolean operations, equivalence, minimization, finiteness and enumeration of
//! finite languages are all implemented here. Transition tables are complete
//! (every state has a successor for every letter of the DFA's alphabet), which
//! keeps complementation and product constructions simple and bug-free.

use crate::alphabet::{Alphabet, Letter};
use crate::enfa::Enfa;
use crate::error::{AutomataError, Result};
use crate::word::Word;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A complete deterministic finite automaton over an explicit alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    alphabet: Alphabet,
    initial: usize,
    finals: Vec<bool>,
    /// `transitions[state][letter_index]` is the successor state.
    transitions: Vec<Vec<usize>>,
}

impl Dfa {
    /// Builds a DFA from its parts. Panics if the table is not complete or
    /// refers to out-of-range states.
    pub fn from_parts(
        alphabet: Alphabet,
        initial: usize,
        finals: Vec<bool>,
        transitions: Vec<Vec<usize>>,
    ) -> Self {
        let n = finals.len();
        assert_eq!(transitions.len(), n, "one transition row per state required");
        assert!(initial < n.max(1), "initial state out of range");
        for row in &transitions {
            assert_eq!(row.len(), alphabet.len(), "transition rows must cover the whole alphabet");
            for &t in row {
                assert!(t < n, "transition target out of range");
            }
        }
        Dfa { alphabet, initial, finals, transitions }
    }

    /// The DFA recognizing the empty language over `alphabet`.
    pub fn empty_language(alphabet: Alphabet) -> Self {
        let width = alphabet.len();
        Dfa { alphabet, initial: 0, finals: vec![false], transitions: vec![vec![0; width]] }
    }

    /// The DFA recognizing all of `Σ*` over `alphabet`.
    pub fn universal_language(alphabet: Alphabet) -> Self {
        let width = alphabet.len();
        Dfa { alphabet, initial: 0, finals: vec![true], transitions: vec![vec![0; width]] }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.finals.len()
    }

    /// The alphabet over which the DFA is complete.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The initial state.
    pub fn initial_state(&self) -> usize {
        self.initial
    }

    /// Whether `state` is final.
    pub fn is_final(&self, state: usize) -> bool {
        self.finals[state]
    }

    /// Successor of `state` by `letter`; `None` if the letter is outside the alphabet.
    pub fn successor(&self, state: usize, letter: Letter) -> Option<usize> {
        self.alphabet.index_of(letter).map(|li| self.transitions[state][li])
    }

    /// The state reached from `state` by reading `word` (`None` if a letter is
    /// outside the alphabet).
    pub fn run_from(&self, state: usize, word: &Word) -> Option<usize> {
        let mut current = state;
        for letter in word.iter() {
            current = self.successor(current, letter)?;
        }
        Some(current)
    }

    /// Whether the DFA accepts `word`. Words using letters outside the
    /// alphabet are rejected.
    pub fn accepts(&self, word: &Word) -> bool {
        match self.run_from(self.initial, word) {
            Some(state) => self.finals[state],
            None => false,
        }
    }

    /// Re-targets the DFA onto a (super-)alphabet: letters not previously in
    /// the alphabet lead to a fresh rejecting sink state.
    pub fn with_alphabet(&self, alphabet: &Alphabet) -> Dfa {
        if &self.alphabet == alphabet {
            return self.clone();
        }
        let n = self.num_states();
        let sink = n;
        let width = alphabet.len();
        let mut transitions = Vec::with_capacity(n + 1);
        for state in 0..n {
            let mut row = Vec::with_capacity(width);
            for letter in alphabet.iter() {
                match self.alphabet.index_of(letter) {
                    Some(li) => row.push(self.transitions[state][li]),
                    None => row.push(sink),
                }
            }
            transitions.push(row);
        }
        transitions.push(vec![sink; width]);
        let mut finals = self.finals.clone();
        finals.push(false);
        Dfa { alphabet: alphabet.clone(), initial: self.initial, finals, transitions }
    }

    /// Returns the same automaton with a different initial state: this
    /// recognizes the *left quotient* of the language by any word reaching
    /// `state` (the "language from `state`").
    pub fn with_initial_state(&self, state: usize) -> Dfa {
        assert!(state < self.num_states(), "state out of range");
        let mut out = self.clone();
        out.initial = state;
        out
    }

    /// Complement with respect to the DFA's own alphabet.
    pub fn complement(&self) -> Dfa {
        let mut out = self.clone();
        for f in &mut out.finals {
            *f = !*f;
        }
        out
    }

    /// Generic product construction: the result accepts a word iff
    /// `combine(self accepts, other accepts)` holds. Both DFAs are first
    /// re-targeted onto the union of their alphabets.
    pub fn product(&self, other: &Dfa, combine: impl Fn(bool, bool) -> bool) -> Dfa {
        let alphabet = self.alphabet.union(&other.alphabet);
        let a = self.with_alphabet(&alphabet);
        let b = other.with_alphabet(&alphabet);
        let width = alphabet.len();

        let mut index: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        let mut transitions: Vec<Vec<usize>> = Vec::new();
        let mut queue = VecDeque::new();

        let start = (a.initial, b.initial);
        index.insert(start, 0);
        pairs.push(start);
        transitions.push(vec![usize::MAX; width]);
        queue.push_back(0usize);

        while let Some(idx) = queue.pop_front() {
            let (sa, sb) = pairs[idx];
            for li in 0..width {
                let next = (a.transitions[sa][li], b.transitions[sb][li]);
                let next_idx = match index.get(&next) {
                    Some(&i) => i,
                    None => {
                        let i = pairs.len();
                        index.insert(next, i);
                        pairs.push(next);
                        transitions.push(vec![usize::MAX; width]);
                        queue.push_back(i);
                        i
                    }
                };
                transitions[idx][li] = next_idx;
            }
        }

        let finals = pairs.iter().map(|&(sa, sb)| combine(a.finals[sa], b.finals[sb])).collect();
        Dfa { alphabet, initial: 0, finals, transitions }
    }

    /// Intersection `L(self) ∩ L(other)`.
    pub fn intersection(&self, other: &Dfa) -> Dfa {
        self.product(other, |x, y| x && y)
    }

    /// Union `L(self) ∪ L(other)`.
    pub fn union(&self, other: &Dfa) -> Dfa {
        self.product(other, |x, y| x || y)
    }

    /// Difference `L(self) \ L(other)`.
    pub fn difference(&self, other: &Dfa) -> Dfa {
        self.product(other, |x, y| x && !y)
    }

    /// States reachable from the initial state.
    pub fn reachable_states(&self) -> BTreeSet<usize> {
        let mut seen = BTreeSet::from([self.initial]);
        let mut queue = VecDeque::from([self.initial]);
        while let Some(s) = queue.pop_front() {
            for &t in &self.transitions[s] {
                if seen.insert(t) {
                    queue.push_back(t);
                }
            }
        }
        seen
    }

    /// States from which some final state is reachable.
    pub fn coaccessible_states(&self) -> BTreeSet<usize> {
        let mut pred: Vec<Vec<usize>> = vec![Vec::new(); self.num_states()];
        for (s, row) in self.transitions.iter().enumerate() {
            for &t in row {
                pred[t].push(s);
            }
        }
        let mut seen: BTreeSet<usize> =
            (0..self.num_states()).filter(|&s| self.finals[s]).collect();
        let mut queue: VecDeque<usize> = seen.iter().copied().collect();
        while let Some(s) = queue.pop_front() {
            for &p in &pred[s] {
                if seen.insert(p) {
                    queue.push_back(p);
                }
            }
        }
        seen
    }

    /// *Useful* states: both reachable and co-accessible.
    pub fn useful_states(&self) -> BTreeSet<usize> {
        self.reachable_states().intersection(&self.coaccessible_states()).copied().collect()
    }

    /// Whether the recognized language is empty.
    pub fn is_empty_language(&self) -> bool {
        self.reachable_states().iter().all(|&s| !self.finals[s])
    }

    /// A shortest accepted word, or `None` if the language is empty.
    pub fn shortest_accepted_word(&self) -> Option<Word> {
        // BFS from the initial state, remembering parents.
        let n = self.num_states();
        let mut parent: Vec<Option<(usize, Letter)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([self.initial]);
        seen[self.initial] = true;
        if self.finals[self.initial] {
            return Some(Word::epsilon());
        }
        while let Some(s) = queue.pop_front() {
            for (li, &t) in self.transitions[s].iter().enumerate() {
                if !seen[t] {
                    seen[t] = true;
                    parent[t] = Some((s, self.alphabet.letter_at(li)));
                    if self.finals[t] {
                        // Reconstruct.
                        let mut letters = Vec::new();
                        let mut cur = t;
                        while let Some((p, l)) = parent[cur] {
                            letters.push(l);
                            cur = p;
                        }
                        letters.reverse();
                        return Some(Word::from_letters(letters));
                    }
                    queue.push_back(t);
                }
            }
        }
        None
    }

    /// Whether both DFAs recognize the same language.
    pub fn equivalent(&self, other: &Dfa) -> bool {
        self.difference(other).is_empty_language() && other.difference(self).is_empty_language()
    }

    /// Whether `L(self) ⊆ L(other)`.
    pub fn is_subset_of(&self, other: &Dfa) -> bool {
        self.difference(other).is_empty_language()
    }

    /// The set of letters that actually occur in some word of the language
    /// (i.e. letters on transitions between useful states).
    pub fn used_letters(&self) -> Alphabet {
        let useful = self.useful_states();
        let mut letters = Vec::new();
        for &s in &useful {
            for (li, &t) in self.transitions[s].iter().enumerate() {
                if useful.contains(&t) {
                    letters.push(self.alphabet.letter_at(li));
                }
            }
        }
        Alphabet::from_letters(letters)
    }

    /// Minimization by Hopcroft's partition refinement, in
    /// O(n·|Σ|·log n). The result only keeps reachable states and is the
    /// canonical minimal complete DFA. Its states are numbered in the order
    /// of each class's smallest state, so a DFA whose states are numbered
    /// breadth-first (as [`Enfa::determinize`] and [`Dfa::product`] number
    /// them) minimizes to its breadth-first numbering.
    pub fn minimize(&self) -> Dfa {
        // Restrict to reachable states, keeping their relative order.
        let reachable: Vec<usize> = self.reachable_states().into_iter().collect();
        let mut remap = vec![usize::MAX; self.num_states()];
        for (i, &s) in reachable.iter().enumerate() {
            remap[s] = i;
        }
        let n = reachable.len();
        let width = self.alphabet.len();

        // `preds[li * n + t]`: the states with `li`-successor `t`.
        let mut preds = vec![Vec::new(); width * n];
        for (i, &s) in reachable.iter().enumerate() {
            for (li, &t) in self.transitions[s].iter().enumerate() {
                preds[li * n + remap[t]].push(i);
            }
        }

        let mut partition = Partition::new(n);
        let mut work = Vec::new();
        for i in (0..n).filter(|&i| self.finals[reachable[i]]) {
            partition.mark(i);
        }
        partition.split(&mut work);
        let mut splitter = Vec::new();
        while let Some(block) = work.pop() {
            splitter.clear();
            splitter.extend_from_slice(partition.block(block));
            for li in 0..width {
                for &t in &splitter {
                    for &p in &preds[li * n + t] {
                        partition.mark(p);
                    }
                }
                partition.split(&mut work);
            }
        }

        // Number the classes in the order of their smallest state.
        let mut class_of_block = vec![usize::MAX; partition.num_blocks()];
        let mut representatives = Vec::new();
        for (i, &s) in reachable.iter().enumerate() {
            let b = partition.block_of[i];
            if class_of_block[b] == usize::MAX {
                class_of_block[b] = representatives.len();
                representatives.push(s);
            }
        }
        let class = |s: usize| class_of_block[partition.block_of[remap[s]]];
        Dfa {
            alphabet: self.alphabet.clone(),
            initial: class(self.initial),
            finals: representatives.iter().map(|&s| self.finals[s]).collect(),
            transitions: representatives
                .iter()
                .map(|&s| self.transitions[s].iter().map(|&t| class(t)).collect())
                .collect(),
        }
    }

    /// Whether the recognized language is finite, i.e. no cycle runs
    /// through useful states. Kahn's algorithm peels the useful subgraph
    /// from its sources; the language is finite iff it peels away entirely.
    pub fn is_finite_language(&self) -> bool {
        let useful = self.useful_flags();
        let mut in_degree = vec![0usize; self.num_states()];
        for s in (0..self.num_states()).filter(|&s| useful[s]) {
            for &t in self.transitions[s].iter().filter(|&&t| useful[t]) {
                in_degree[t] += 1;
            }
        }
        let mut sources: Vec<usize> =
            (0..self.num_states()).filter(|&s| useful[s] && in_degree[s] == 0).collect();
        let mut peeled = 0;
        while let Some(s) = sources.pop() {
            peeled += 1;
            for &t in self.transitions[s].iter().filter(|&&t| useful[t]) {
                in_degree[t] -= 1;
                if in_degree[t] == 0 {
                    sources.push(t);
                }
            }
        }
        peeled == useful.iter().filter(|&&u| u).count()
    }

    /// Enumerates all words of a finite language, sorted (by length then
    /// lexicographically on letters). Errors with
    /// [`AutomataError::InfiniteLanguage`] if the language is infinite.
    pub fn enumerate_words(&self) -> Result<Vec<Word>> {
        if !self.is_finite_language() {
            return Err(AutomataError::InfiniteLanguage);
        }
        let useful = self.useful_flags();
        let mut out = Vec::new();
        if !useful[self.initial] {
            return Ok(out);
        }
        // Depth-first over the DAG of useful states with an explicit stack:
        // each frame is a state and the next letter index to try from it,
        // and `letters` spells the path to the top frame.
        let mut letters: Vec<Letter> = Vec::new();
        let mut frames = vec![(self.initial, 0usize)];
        if self.finals[self.initial] {
            out.push(Word::epsilon());
        }
        while let Some(frame) = frames.last_mut() {
            let (s, li) = *frame;
            if li == self.alphabet.len() {
                frames.pop();
                letters.pop();
                continue;
            }
            frame.1 += 1;
            let t = self.transitions[s][li];
            if useful[t] {
                letters.push(self.alphabet.letter_at(li));
                if self.finals[t] {
                    out.push(Word::from_letters(letters.iter().copied()));
                }
                frames.push((t, 0));
            }
        }
        out.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        out.dedup();
        Ok(out)
    }

    /// [`Dfa::useful_states`] as one flag per state.
    fn useful_flags(&self) -> Vec<bool> {
        let mut flags = vec![false; self.num_states()];
        for s in self.useful_states() {
            flags[s] = true;
        }
        flags
    }

    /// All accepted words of length at most `max_len`, sorted.
    pub fn words_up_to_length(&self, max_len: usize) -> Vec<Word> {
        let mut out = Vec::new();
        let mut frontier: Vec<(usize, Word)> = vec![(self.initial, Word::epsilon())];
        let useful = self.useful_states();
        if !useful.contains(&self.initial) {
            return out;
        }
        for _len in 0..=max_len {
            let mut next = Vec::new();
            for (state, word) in &frontier {
                if self.finals[*state] {
                    out.push(word.clone());
                }
                if word.len() < max_len {
                    for (li, &t) in self.transitions[*state].iter().enumerate() {
                        if useful.contains(&t) {
                            next.push((t, word.concat(&Word::single(self.alphabet.letter_at(li)))));
                        }
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        out.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        out.dedup();
        out
    }

    /// A **canonical textual form** of the recognized language: two DFAs
    /// produce the same string iff they recognize the same set of words,
    /// regardless of their state numbering or ambient alphabet.
    ///
    /// **Precondition:** `self` is minimal (every state reachable, no two
    /// states equivalent), as every [`crate::language::Language`] DFA is.
    /// Debug builds assert it.
    ///
    /// The form restricts the alphabet to the letters that actually occur in
    /// some word ([`Dfa::used_letters`]) and renumbers states by BFS from the
    /// initial state in alphabet order. The restriction keeps the DFA
    /// minimal once the states it can no longer reach are dropped, and the
    /// BFS drops them: a letter outside the used ones leads to the dead state
    /// from every state, so no word that tells two states apart contains one,
    /// and every state but the dead one is reached along a prefix of an
    /// accepted word. Minimal complete DFAs of equal languages are
    /// isomorphic, and BFS discovery order is preserved by any isomorphism
    /// fixing the initial state. The result encodes the alphabet, the
    /// finality vector and the transition table; it is the collision-free
    /// key behind [`crate::language::Language::language_fingerprint`].
    pub fn canonical_form(&self) -> String {
        debug_assert_eq!(
            self.minimize().num_states(),
            self.num_states(),
            "Dfa::canonical_form requires a minimal DFA"
        );
        // Restrict to the letters occurring in accepted words, so the form
        // depends only on the set of words (e.g. a language handled over a
        // larger ambient alphabet keys the same as over its own letters).
        let used = self.used_letters();
        let columns: Vec<usize> = used
            .iter()
            .map(|letter| self.alphabet.index_of(letter).expect("used letter in alphabet"))
            .collect();

        // BFS renumbering: state ids in discovery order from the initial
        // state, exploring letters in alphabet order.
        let n = self.num_states();
        let mut order: Vec<usize> = vec![usize::MAX; n];
        let mut bfs: Vec<usize> = Vec::with_capacity(n);
        order[self.initial] = 0;
        bfs.push(self.initial);
        let mut head = 0;
        while head < bfs.len() {
            let s = bfs[head];
            head += 1;
            for &li in &columns {
                let t = self.transitions[s][li];
                if order[t] == usize::MAX {
                    order[t] = bfs.len();
                    bfs.push(t);
                }
            }
        }

        let mut out = String::new();
        out.push_str("alphabet=");
        for letter in used.iter() {
            out.push(letter.0);
        }
        out.push_str(";states=");
        out.push_str(&bfs.len().to_string());
        out.push_str(";finals=");
        for &s in &bfs {
            out.push(if self.finals[s] { '1' } else { '0' });
        }
        out.push_str(";delta=");
        for &s in &bfs {
            for &li in &columns {
                out.push_str(&order[self.transitions[s][li]].to_string());
                out.push(',');
            }
            out.push(';');
        }
        out
    }

    /// The mirror language `L^R`, as a DFA (by reversing every transition
    /// and determinizing).
    pub fn mirror(&self) -> Dfa {
        let mut reversed = Enfa::new();
        reversed.add_states(self.num_states());
        for (s, row) in self.transitions.iter().enumerate() {
            for (li, &t) in row.iter().enumerate() {
                reversed.add_transition(t, self.alphabet.letter_at(li), s);
            }
            if self.finals[s] {
                reversed.set_initial(s);
            }
        }
        reversed.set_final(self.initial);
        reversed.determinize(&self.alphabet)
    }
}

/// A partition of the states `0..n` into blocks, refined Hopcroft-style:
/// mark some states, then split the marked states of each block off.
struct Partition {
    /// The states, block by block: block `b` is `elements[start[b]..end[b]]`,
    /// with its marked states first.
    elements: Vec<usize>,
    /// The index of each state in `elements`.
    position: Vec<usize>,
    block_of: Vec<usize>,
    start: Vec<usize>,
    end: Vec<usize>,
    /// How many states of each block are marked.
    marked: Vec<usize>,
    /// The blocks with a marked state, in marking order.
    touched: Vec<usize>,
}

impl Partition {
    /// One block holding every state.
    fn new(n: usize) -> Self {
        Partition {
            elements: (0..n).collect(),
            position: (0..n).collect(),
            block_of: vec![0; n],
            start: vec![0],
            end: vec![n],
            marked: vec![0],
            touched: Vec::new(),
        }
    }

    fn num_blocks(&self) -> usize {
        self.start.len()
    }

    fn block(&self, b: usize) -> &[usize] {
        &self.elements[self.start[b]..self.end[b]]
    }

    /// Marks a state; each state is marked at most once between splits.
    fn mark(&mut self, s: usize) {
        let b = self.block_of[s];
        let front = self.start[b] + self.marked[b];
        let displaced = self.elements[front];
        self.elements.swap(front, self.position[s]);
        self.position[displaced] = self.position[s];
        self.position[s] = front;
        if self.marked[b] == 0 {
            self.touched.push(b);
        }
        self.marked[b] += 1;
    }

    /// Splits each partly marked block in two and unmarks everything. The
    /// smaller half of each split becomes a new block, pushed onto `work`;
    /// the larger half keeps the old id, and so its place in `work`.
    fn split(&mut self, work: &mut Vec<usize>) {
        for b in std::mem::take(&mut self.touched) {
            let (start, end, mid) = (self.start[b], self.end[b], self.start[b] + self.marked[b]);
            self.marked[b] = 0;
            if mid == end {
                continue;
            }
            let new_block = self.num_blocks();
            let (new_start, new_end) = if mid - start <= end - mid {
                self.start[b] = mid;
                (start, mid)
            } else {
                self.end[b] = mid;
                (mid, end)
            };
            self.start.push(new_start);
            self.end.push(new_end);
            self.marked.push(0);
            for &s in &self.elements[new_start..new_end] {
                self.block_of[s] = new_block;
            }
            work.push(new_block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::language::Language;
    use crate::regex::Regex;

    fn w(s: &str) -> Word {
        Word::from_str_word(s)
    }

    fn dfa_for(pattern: &str) -> Dfa {
        let regex = Regex::parse(pattern).unwrap();
        regex.to_enfa().determinize(&regex.letters())
    }

    #[test]
    fn accepts_and_complement() {
        let d = dfa_for("ax*b");
        assert!(d.accepts(&w("ab")));
        assert!(d.accepts(&w("axxb")));
        assert!(!d.accepts(&w("a")));
        let c = d.complement();
        assert!(!c.accepts(&w("ab")));
        assert!(c.accepts(&w("a")));
        assert!(c.accepts(&w("")));
    }

    #[test]
    fn boolean_operations() {
        let d1 = dfa_for("ab|cd");
        let d2 = dfa_for("cd|ef");
        let inter = d1.intersection(&d2);
        assert!(inter.accepts(&w("cd")));
        assert!(!inter.accepts(&w("ab")));
        assert!(!inter.accepts(&w("ef")));
        let uni = d1.union(&d2);
        assert!(uni.accepts(&w("ab")));
        assert!(uni.accepts(&w("ef")));
        let diff = d1.difference(&d2);
        assert!(diff.accepts(&w("ab")));
        assert!(!diff.accepts(&w("cd")));
    }

    #[test]
    fn emptiness_and_shortest_word() {
        let d = dfa_for("ab|cd");
        assert!(!d.is_empty_language());
        assert_eq!(d.shortest_accepted_word().unwrap().len(), 2);
        let e = d.difference(&d);
        assert!(e.is_empty_language());
        assert_eq!(e.shortest_accepted_word(), None);
        let eps = dfa_for("ε");
        assert_eq!(eps.shortest_accepted_word(), Some(Word::epsilon()));
    }

    #[test]
    fn equivalence_and_subset() {
        let d1 = dfa_for("a(b|c)");
        let d2 = dfa_for("ab|ac");
        assert!(d1.equivalent(&d2));
        let d3 = dfa_for("ab");
        assert!(d3.is_subset_of(&d1));
        assert!(!d1.is_subset_of(&d3));
        assert!(!d1.equivalent(&d3));
    }

    #[test]
    fn minimization_reduces_states_and_preserves_language() {
        let d = dfa_for("(a|b)*abb");
        let m = d.minimize();
        assert!(m.num_states() <= d.num_states());
        for word in ["abb", "aabb", "babb", "ab", "abba", "", "bbabb"] {
            assert_eq!(d.accepts(&w(word)), m.accepts(&w(word)), "{word}");
        }
        // The canonical minimal DFA for (a|b)*abb has 4 states (complete).
        assert_eq!(m.num_states(), 4);
    }

    #[test]
    fn minimization_is_canonical_for_equivalent_languages() {
        let m1 = dfa_for("a(b|c)").minimize();
        let m2 = dfa_for("ab|ac").minimize();
        assert_eq!(m1.num_states(), m2.num_states());
        assert!(m1.equivalent(&m2));
    }

    #[test]
    fn finiteness_detection() {
        assert!(dfa_for("ab|cd|abcde").is_finite_language());
        assert!(!dfa_for("ax*b").is_finite_language());
        assert!(!dfa_for("b(aa)*d").is_finite_language());
        assert!(dfa_for("∅").is_finite_language());
        assert!(dfa_for("ε").is_finite_language());
    }

    #[test]
    fn enumeration_of_finite_language() {
        let words = dfa_for("ab|cd|a").enumerate_words().unwrap();
        assert_eq!(words, vec![w("a"), w("ab"), w("cd")]);
        assert!(dfa_for("ax*b").enumerate_words().is_err());
        assert_eq!(dfa_for("∅").enumerate_words().unwrap(), Vec::<Word>::new());
        assert_eq!(dfa_for("ε").enumerate_words().unwrap(), vec![Word::epsilon()]);
    }

    #[test]
    fn finiteness_and_enumeration_are_stack_safe_on_long_chains() {
        // a^(n-1) as a chain of n states plus a sink: recursing once per
        // state would overflow a default-sized (2 MiB) thread stack.
        let n = 50_000;
        let finals = (0..=n).map(|s| s == n - 1).collect();
        let transitions = (0..=n).map(|s| vec![(s + 1).min(n)]).collect();
        let chain = Dfa::from_parts(Alphabet::from_chars("a"), 0, finals, transitions);
        let (finite, words) = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || (chain.is_finite_language(), chain.enumerate_words()))
            .unwrap()
            .join()
            .unwrap();
        assert!(finite);
        assert_eq!(words.unwrap(), vec![Word::from_str_word("a").repeat(n - 1)]);
    }

    #[test]
    fn words_up_to_length() {
        let d = dfa_for("a*b");
        let words = d.words_up_to_length(3);
        assert_eq!(words, vec![w("b"), w("ab"), w("aab")]);
        let d = dfa_for("ab");
        assert_eq!(d.words_up_to_length(1), Vec::<Word>::new());
        assert_eq!(d.words_up_to_length(5), vec![w("ab")]);
    }

    #[test]
    fn with_alphabet_extension() {
        let d = dfa_for("ab");
        let bigger = Alphabet::from_chars("abc");
        let e = d.with_alphabet(&bigger);
        assert!(e.accepts(&w("ab")));
        assert!(!e.accepts(&w("ac")));
        assert!(!e.accepts(&w("c")));
        // Complement over the bigger alphabet now accepts words with 'c'.
        assert!(e.complement().accepts(&w("c")));
    }

    #[test]
    fn used_letters_ignores_useless_transitions() {
        // In ab|cd over alphabet {a,b,c,d,e}: e never occurs in any word.
        let d = dfa_for("ab|cd").with_alphabet(&Alphabet::from_chars("abcde"));
        let used = d.used_letters();
        assert!(used.contains(Letter('a')));
        assert!(used.contains(Letter('d')));
        assert!(!used.contains(Letter('e')));
    }

    #[test]
    fn mirror_language() {
        let d = dfa_for("abc|xd");
        let m = d.mirror();
        assert!(m.accepts(&w("cba")));
        assert!(m.accepts(&w("dx")));
        assert!(!m.accepts(&w("abc")));
        // Mirror twice gives back the original language.
        assert!(m.mirror().equivalent(&d));
    }

    #[test]
    fn empty_and_universal() {
        let alpha = Alphabet::from_chars("ab");
        let empty = Dfa::empty_language(alpha.clone());
        assert!(empty.is_empty_language());
        let all = Dfa::universal_language(alpha);
        assert!(all.accepts(&w("")));
        assert!(all.accepts(&w("abba")));
        assert!(all.complement().is_empty_language());
    }

    #[test]
    fn language_level_round_trip() {
        // Cross-check with the high-level Language handle.
        let l = Language::parse("ax*b|cxd").unwrap();
        assert!(l.contains(&w("axb")));
        assert!(l.contains(&w("cxd")));
        assert!(!l.contains(&w("axd")));
    }
}
