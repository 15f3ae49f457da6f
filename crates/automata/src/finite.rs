//! Finite-language utilities (Sections 6 and 7 of the paper).
//!
//! Finite RPQs correspond to unions of conjunctive queries; the paper's
//! remaining classification effort concentrates on them. This module provides:
//!
//! * [`FiniteLanguage`] — an explicit, sorted word list with infix-free
//!   reduction and repeated-letter analysis;
//! * **maximal-gap words** (Definition 6.4), the starting point of the
//!   repeated-letter hardness proof (Theorem 6.1);
//! * **chain languages** and **bipartite chain languages (BCLs)**
//!   (Definitions 7.1 and 7.2), tractable by Proposition 7.6;
//! * **one-dangling languages** (Definition 7.8), tractable by Proposition 7.9.

use crate::alphabet::{Alphabet, Letter};
use crate::enfa::Enfa;
use crate::error::Result;
use crate::language::Language;
use crate::local::is_local;
use crate::word::{RepeatedLetterDecomposition, Word};
use std::collections::{BTreeMap, BTreeSet};

/// A finite language given as an explicit, sorted, deduplicated list of words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiniteLanguage {
    alphabet: Alphabet,
    words: Vec<Word>,
}

impl FiniteLanguage {
    /// Builds a finite language from an iterator of words.
    pub fn from_words<I: IntoIterator<Item = Word>>(words: I) -> FiniteLanguage {
        let mut words: Vec<Word> = words.into_iter().collect();
        words.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.cmp(b)));
        words.dedup();
        let alphabet = Alphabet::from_letters(words.iter().flat_map(|w| w.iter()));
        FiniteLanguage { alphabet, words }
    }

    /// Builds a finite language from string literals, e.g. `["ab", "bc"]`.
    pub fn from_strs<'a, I: IntoIterator<Item = &'a str>>(words: I) -> FiniteLanguage {
        Self::from_words(words.into_iter().map(Word::from_str_word))
    }

    /// Extracts the explicit word list of a finite [`Language`]. Errors with
    /// [`crate::AutomataError::InfiniteLanguage`] when the language is infinite.
    ///
    /// For chain languages this is the explicit-list computation of Lemma 7.7
    /// (our implementation enumerates from the minimal DFA, which is
    /// polynomial; we do not match the paper's exact `O(|Σ|²·|A|)` bound but
    /// the asymptotic class — PTIME combined complexity — is preserved).
    pub fn from_language(language: &Language) -> Result<FiniteLanguage> {
        let words = language.words()?;
        let mut fl = Self::from_words(words);
        // Keep the full ambient alphabet so that round-trips preserve it.
        fl.alphabet = fl.alphabet.union(language.alphabet());
        Ok(fl)
    }

    /// Extracts the explicit word list of the finite language recognized by an
    /// ε-NFA (Lemma 7.7 entry point, usable for any finite language).
    pub fn from_enfa(enfa: &Enfa) -> Result<FiniteLanguage> {
        Self::from_language(&Language::from_enfa(enfa, None))
    }

    /// The words, sorted by length then lexicographically.
    pub fn words(&self) -> &[Word] {
        &self.words
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the language has no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The alphabet (letters occurring in some word, plus any ambient letters
    /// carried over from a [`Language`]).
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Whether `word` belongs to the language.
    pub fn contains(&self, word: &Word) -> bool {
        self.words.iter().any(|w| w == word)
    }

    /// Converts back to a [`Language`].
    pub fn to_language(&self) -> Language {
        Language::from_words(self.words.iter()).with_alphabet(&self.alphabet)
    }

    /// Whether the language is infix-free: no word is a strict infix of another.
    pub fn is_infix_free(&self) -> bool {
        for (i, a) in self.words.iter().enumerate() {
            for (j, b) in self.words.iter().enumerate() {
                if i != j && a.is_strict_infix_of(b) {
                    return false;
                }
            }
        }
        true
    }

    /// The infix-free sublanguage `IF(L)`: words with no strict infix in `L`.
    pub fn infix_free(&self) -> FiniteLanguage {
        let words: Vec<Word> = self
            .words
            .iter()
            .filter(|w| !self.words.iter().any(|other| other.is_strict_infix_of(w)))
            .cloned()
            .collect();
        let mut out = Self::from_words(words);
        out.alphabet = self.alphabet.clone();
        out
    }

    /// A word of the language containing a repeated letter, if any
    /// (the hypothesis of Theorem 6.1).
    pub fn word_with_repeated_letter(&self) -> Option<&Word> {
        self.words.iter().find(|w| w.has_repeated_letter())
    }

    /// A **maximal-gap word** (Definition 6.4): among all decompositions
    /// `β a γ a δ` of all words of the language, pick one maximizing `|γ|`,
    /// breaking ties by maximizing the total word length. Returns `None` when
    /// no word has a repeated letter.
    pub fn maximal_gap_word(&self) -> Option<MaximalGapWord> {
        let mut best: Option<MaximalGapWord> = None;
        for word in &self.words {
            // Enumerate all decompositions of this word.
            for i in 0..word.len() {
                for j in i + 1..word.len() {
                    if word.letter_at(i) != word.letter_at(j) {
                        continue;
                    }
                    let decomposition = RepeatedLetterDecomposition {
                        letter: word.letter_at(i),
                        beta: word.slice(0, i),
                        gamma: word.slice(i + 1, j),
                        delta: word.slice(j + 1, word.len()),
                    };
                    let candidate = MaximalGapWord { word: word.clone(), decomposition };
                    let better = match &best {
                        None => true,
                        Some(b) => {
                            let (gap_c, len_c) = (candidate.gap(), candidate.word.len());
                            let (gap_b, len_b) = (b.gap(), b.word.len());
                            gap_c > gap_b || (gap_c == gap_b && len_c > len_b)
                        }
                    };
                    if better {
                        best = Some(candidate);
                    }
                }
            }
        }
        best
    }

    /// Whether the language is a **chain language** (Definition 7.1):
    /// no word has a repeated letter, and the middle letters of every word of
    /// length ≥ 2 occur in no other word.
    pub fn is_chain_language(&self) -> bool {
        if self.words.iter().any(|w| w.has_repeated_letter()) {
            return false;
        }
        for (i, word) in self.words.iter().enumerate() {
            if word.len() < 2 {
                continue;
            }
            let middle: BTreeSet<Letter> =
                word.letters()[1..word.len() - 1].iter().copied().collect();
            if middle.is_empty() {
                continue;
            }
            for (j, other) in self.words.iter().enumerate() {
                if i == j {
                    continue;
                }
                if other.iter().any(|l| middle.contains(&l)) {
                    return false;
                }
            }
        }
        true
    }

    /// The **endpoint graph** (Definition 7.2): an undirected edge `{a, b}` for
    /// each word of length ≥ 2 with distinct first letter `a` and last letter `b`.
    pub fn endpoint_graph(&self) -> Vec<(Letter, Letter)> {
        let mut edges = BTreeSet::new();
        for word in &self.words {
            if word.len() >= 2 {
                let a = word.first().unwrap();
                let b = word.last().unwrap();
                if a != b {
                    edges.insert((a.min(b), a.max(b)));
                }
            }
        }
        edges.into_iter().collect()
    }

    /// A 2-coloring of the endpoint graph if it is bipartite: returns the two
    /// color classes (source partition, target partition) over endpoint letters.
    pub fn endpoint_bipartition(&self) -> Option<(BTreeSet<Letter>, BTreeSet<Letter>)> {
        let edges = self.endpoint_graph();
        let mut adjacency: BTreeMap<Letter, Vec<Letter>> = BTreeMap::new();
        for &(a, b) in &edges {
            adjacency.entry(a).or_default().push(b);
            adjacency.entry(b).or_default().push(a);
        }
        let mut color: BTreeMap<Letter, bool> = BTreeMap::new();
        for &start in adjacency.keys() {
            if color.contains_key(&start) {
                continue;
            }
            color.insert(start, false);
            let mut queue = vec![start];
            while let Some(v) = queue.pop() {
                let cv = color[&v];
                for &u in &adjacency[&v] {
                    match color.get(&u) {
                        None => {
                            color.insert(u, !cv);
                            queue.push(u);
                        }
                        Some(&cu) if cu == cv => return None,
                        _ => {}
                    }
                }
            }
        }
        let mut sources = BTreeSet::new();
        let mut targets = BTreeSet::new();
        for (l, c) in color {
            if c {
                targets.insert(l);
            } else {
                sources.insert(l);
            }
        }
        Some((sources, targets))
    }

    /// Whether the language is a **bipartite chain language** (BCL,
    /// Definition 7.2): a chain language whose endpoint graph is bipartite.
    pub fn is_bipartite_chain_language(&self) -> bool {
        self.is_chain_language() && self.endpoint_bipartition().is_some()
    }
}

/// A maximal-gap word of a finite language (Definition 6.4): the word together
/// with the decomposition `β a γ a δ` achieving the maximal gap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaximalGapWord {
    /// The word itself (equal to `decomposition.reassemble()`).
    pub word: Word,
    /// The maximal-gap decomposition `β a γ a δ`.
    pub decomposition: RepeatedLetterDecomposition,
}

impl MaximalGapWord {
    /// The gap `|γ|` between the two occurrences of the repeated letter.
    pub fn gap(&self) -> usize {
        self.decomposition.gamma.len()
    }
}

/// A one-dangling decomposition (Definition 7.8): the language is
/// `L ∪ {xy}` where `L` is local over an alphabet `Σ` and `x ≠ y` with at
/// least one of them outside `Σ`.
#[derive(Debug, Clone)]
pub struct OneDanglingDecomposition {
    /// The local part `L` of the decomposition.
    pub local_part: Language,
    /// The first letter of the dangling two-letter word.
    pub x: Letter,
    /// The second letter of the dangling two-letter word.
    pub y: Letter,
}

impl OneDanglingDecomposition {
    /// The dangling word `xy`.
    pub fn dangling_word(&self) -> Word {
        Word::from_letters([self.x, self.y])
    }
}

/// Searches for a one-dangling decomposition of a (possibly infinite) regular
/// language (Definition 7.8). Returns `None` when the language is not
/// one-dangling.
///
/// ```
/// use rpq_automata::{finite, Language};
/// assert!(finite::one_dangling_decomposition(&Language::parse("abc|be").unwrap()).is_some());
/// assert!(finite::one_dangling_decomposition(&Language::parse("ax*b|xd").unwrap()).is_some());
/// assert!(finite::one_dangling_decomposition(&Language::parse("aa").unwrap()).is_none());
/// ```
pub fn one_dangling_decomposition(language: &Language) -> Option<OneDanglingDecomposition> {
    // Candidate dangling words are the length-2 words of the language.
    let length_two: Vec<Word> =
        language.words_up_to_length(2).into_iter().filter(|w| w.len() == 2).collect();
    for word in length_two {
        let x = word.letter_at(0);
        let y = word.letter_at(1);
        if x == y {
            continue;
        }
        let rest = language.difference(&Language::from_words([word.clone()].iter()));
        if !is_local(&rest) {
            continue;
        }
        // The alphabet Σ of the local part is the set of letters actually used
        // by its words; at least one of x, y must lie outside it.
        let used = rest.used_letters();
        if used.contains(x) && used.contains(y) {
            continue;
        }
        // Check that L really decomposes as rest ∪ {xy}.
        let recomposed = rest.union(&Language::from_words([word].iter()));
        if recomposed.equals(language) {
            return Some(OneDanglingDecomposition { local_part: rest, x, y });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(s: &str) -> Word {
        Word::from_str_word(s)
    }

    fn lang(pattern: &str) -> Language {
        Language::parse(pattern).unwrap()
    }

    #[test]
    fn construction_and_basic_queries() {
        let fl = FiniteLanguage::from_strs(["ab", "bc", "ab"]);
        assert_eq!(fl.len(), 2);
        assert!(fl.contains(&w("ab")));
        assert!(!fl.contains(&w("ac")));
        assert_eq!(fl.alphabet().len(), 3);
        assert!(!fl.is_empty());
        assert!(FiniteLanguage::from_strs([]).is_empty());
    }

    #[test]
    fn from_language_round_trip() {
        let l = lang("ab|ad|cd");
        let fl = FiniteLanguage::from_language(&l).unwrap();
        assert_eq!(fl.words(), &[w("ab"), w("ad"), w("cd")]);
        assert!(fl.to_language().equals(&l));
        assert!(FiniteLanguage::from_language(&lang("ax*b")).is_err());
    }

    #[test]
    fn from_enfa_lemma_7_7() {
        let enfa = crate::regex::Regex::parse("ab|bc").unwrap().to_enfa();
        let fl = FiniteLanguage::from_enfa(&enfa).unwrap();
        assert_eq!(fl.words(), &[w("ab"), w("bc")]);
    }

    #[test]
    fn infix_free_reduction() {
        let fl = FiniteLanguage::from_strs(["abbc", "bb", "a"]);
        assert!(!fl.is_infix_free());
        let reduced = fl.infix_free();
        // abbc contains bb; a is not an infix of bb nor abbc? "a" is an infix of "abbc".
        assert_eq!(reduced.words(), &[w("a"), w("bb")]);
        assert!(reduced.is_infix_free());
    }

    #[test]
    fn repeated_letter_detection() {
        assert!(FiniteLanguage::from_strs(["abc", "aba"]).word_with_repeated_letter().is_some());
        assert!(FiniteLanguage::from_strs(["abc", "bcd"]).word_with_repeated_letter().is_none());
    }

    #[test]
    fn maximal_gap_word_selection() {
        // Among aa (gap 0) and abca (gap 2), the maximal-gap word is abca.
        let fl = FiniteLanguage::from_strs(["aa", "abca"]);
        let mg = fl.maximal_gap_word().unwrap();
        assert_eq!(mg.word, w("abca"));
        assert_eq!(mg.gap(), 2);
        assert_eq!(mg.decomposition.letter, Letter('a'));
        assert_eq!(mg.decomposition.reassemble(), mg.word);

        // Tie on gap: longer word wins. Words axb-a (gap 2) vs axbya? Use
        // gap-1 examples: "aza" (gap 1) vs "bzby" (gap 1, length 4): pick bzby.
        let fl = FiniteLanguage::from_strs(["aza", "bzby"]);
        let mg = fl.maximal_gap_word().unwrap();
        assert_eq!(mg.gap(), 1);
        assert_eq!(mg.word, w("bzby"));

        assert!(FiniteLanguage::from_strs(["abc"]).maximal_gap_word().is_none());
    }

    #[test]
    fn chain_language_examples_from_definition_7_1() {
        // ab|bc and axb|byc are chain languages.
        assert!(FiniteLanguage::from_strs(["ab", "bc"]).is_chain_language());
        assert!(FiniteLanguage::from_strs(["axb", "byc"]).is_chain_language());
        assert!(FiniteLanguage::from_strs(["ab", "bc", "ca"]).is_chain_language());
        assert!(FiniteLanguage::from_strs(["axyb", "bztc", "cd", "dea"]).is_chain_language());
        // aa has a repeated letter: not a chain language.
        assert!(!FiniteLanguage::from_strs(["aa"]).is_chain_language());
        // axb|xyc share the middle letter x with another word: not a chain language.
        assert!(!FiniteLanguage::from_strs(["axb", "xyc"]).is_chain_language());
        // axb|ayc is fine (only endpoints shared)? Middle letters x and y are
        // private, endpoints a shared: chain language.
        assert!(FiniteLanguage::from_strs(["axb", "ayc"]).is_chain_language());
    }

    #[test]
    fn bipartite_chain_languages_example_7_3() {
        // ab|bc and axyb|bztc|cd|dea are BCLs; ab|bc|ca is a chain language
        // but not bipartite.
        assert!(FiniteLanguage::from_strs(["ab", "bc"]).is_bipartite_chain_language());
        assert!(
            FiniteLanguage::from_strs(["axyb", "bztc", "cd", "dea"]).is_bipartite_chain_language()
        );
        let triangle = FiniteLanguage::from_strs(["ab", "bc", "ca"]);
        assert!(triangle.is_chain_language());
        assert!(!triangle.is_bipartite_chain_language());
        assert!(triangle.endpoint_bipartition().is_none());
    }

    #[test]
    fn endpoint_graph_and_bipartition() {
        let fl = FiniteLanguage::from_strs(["ab", "bc"]);
        let edges = fl.endpoint_graph();
        assert_eq!(edges.len(), 2);
        let (sources, targets) = fl.endpoint_bipartition().unwrap();
        // b must be on the opposite side of both a and c.
        let b_in_sources = sources.contains(&Letter('b'));
        if b_in_sources {
            assert!(targets.contains(&Letter('a')) && targets.contains(&Letter('c')));
        } else {
            assert!(sources.contains(&Letter('a')) && sources.contains(&Letter('c')));
        }
    }

    #[test]
    fn chain_languages_are_not_local_in_general() {
        // Example 7.3: none of these chain languages are local.
        for words in [vec!["ab", "bc"], vec!["axyb", "bztc", "cd", "dea"], vec!["ab", "bc", "ca"]] {
            let fl = FiniteLanguage::from_strs(words.iter().copied());
            assert!(!is_local(&fl.to_language()), "{words:?}");
        }
    }

    #[test]
    fn one_dangling_examples_from_the_paper() {
        // abc|be, abcd|ce, abcd|be are one-dangling (Figure 1), as is ax*b|xd.
        for pattern in ["abc|be", "abcd|ce", "abcd|be", "ax*b|xd"] {
            let l = lang(pattern);
            let d = one_dangling_decomposition(&l).unwrap();
            assert_ne!(d.x, d.y, "{pattern}");
            assert!(is_local(&d.local_part), "{pattern}");
            assert!(l.contains(&d.dangling_word()), "{pattern}");
        }
    }

    #[test]
    fn non_one_dangling_languages() {
        for pattern in ["aa", "axb|cxd", "abcd|be|ef", "abcd|bef", "ab|bc|ca"] {
            assert!(one_dangling_decomposition(&lang(pattern)).is_none(), "{pattern}");
        }
    }

    #[test]
    fn ab_bc_is_also_one_dangling() {
        // ab|bc is both a bipartite chain language and a one-dangling language
        // ({bc} is local over {b,c} and a ∉ {b,c}): the tractable classes overlap.
        assert!(one_dangling_decomposition(&lang("ab|bc")).is_some());
    }

    #[test]
    fn one_dangling_decomposition_details() {
        let l = lang("abc|be");
        let d = one_dangling_decomposition(&l).unwrap();
        assert_eq!(d.dangling_word(), w("be"));
        assert!(d.local_part.equals(&lang("abc")));
        // e is the letter outside the local part's alphabet.
        assert!(!d.local_part.used_letters().contains(Letter('e')));
    }
}
