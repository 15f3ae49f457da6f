//! The high-level [`Language`] handle.
//!
//! A `Language` is a regular language over an explicit alphabet, stored
//! canonically as a minimal complete DFA. It exposes every language-level
//! operation that the resilience algorithms and the classifier need:
//! membership, Boolean operations, finiteness and enumeration, mirrors, and
//! the infix-free sublanguage `IF(L)` of Section 2 of the paper.

use crate::alphabet::{Alphabet, Letter};
use crate::dfa::Dfa;
use crate::enfa::Enfa;
use crate::error::{AutomataError, Result};
use crate::regex::Regex;
use crate::word::Word;

/// A regular language over an explicit alphabet, canonically represented by a
/// minimal complete DFA.
#[derive(Debug, Clone)]
pub struct Language {
    alphabet: Alphabet,
    dfa: Dfa,
    /// A textual description (regex or word list) used for display purposes.
    description: String,
}

impl Language {
    /// Parses a regular expression (see [`crate::regex`] for the syntax) into a
    /// language whose alphabet is the set of letters occurring in the expression.
    ///
    /// ```
    /// use rpq_automata::Language;
    /// let l = Language::parse("ab|ad|cd").unwrap();
    /// assert!(l.contains_str("ad").unwrap());
    /// assert!(!l.contains_str("cb").unwrap());
    /// ```
    pub fn parse(pattern: &str) -> Result<Language> {
        let regex = Regex::parse(pattern)?;
        Ok(Self::from_regex_with_description(&regex, pattern.to_string()))
    }

    /// Builds a language from a regex AST.
    pub fn from_regex(regex: &Regex) -> Language {
        Self::from_regex_with_description(regex, regex.to_string())
    }

    fn from_regex_with_description(regex: &Regex, description: String) -> Language {
        let alphabet = regex.letters();
        let dfa = regex.to_enfa().determinize(&alphabet).minimize();
        Language { alphabet, dfa, description }
    }

    /// Builds a language from an ε-NFA. The alphabet is the set of letters on
    /// the automaton's transitions unless a larger one is supplied.
    pub fn from_enfa(enfa: &Enfa, alphabet: Option<Alphabet>) -> Language {
        let alphabet = match alphabet {
            Some(a) => a.union(&enfa.letters()),
            None => enfa.letters(),
        };
        let dfa = enfa.determinize(&alphabet).minimize();
        Language { alphabet, dfa, description: "<from εNFA>".to_string() }
    }

    /// Builds a language directly from a DFA (minimized internally).
    pub fn from_dfa(dfa: Dfa) -> Language {
        let alphabet = dfa.alphabet().clone();
        Language { alphabet, dfa: dfa.minimize(), description: "<from DFA>".to_string() }
    }

    /// Builds the finite language consisting exactly of the given words.
    pub fn from_words<'a, I: IntoIterator<Item = &'a Word>>(words: I) -> Language {
        let words: Vec<&Word> = words.into_iter().collect();
        let description = if words.is_empty() {
            "∅".to_string()
        } else {
            words.iter().map(|w| w.to_string()).collect::<Vec<_>>().join("|")
        };
        let regex = Regex::from_words(words);
        Self::from_regex_with_description(&regex, description)
    }

    /// Builds the finite language from string literals, e.g. `["ab", "cd"]`.
    pub fn from_strs<'a, I: IntoIterator<Item = &'a str>>(words: I) -> Language {
        let words: Vec<Word> = words.into_iter().map(Word::from_str_word).collect();
        Self::from_words(words.iter())
    }

    /// The empty language over `alphabet`.
    pub fn empty(alphabet: Alphabet) -> Language {
        Language {
            dfa: Dfa::empty_language(alphabet.clone()),
            alphabet,
            description: "∅".to_string(),
        }
    }

    /// The universal language `Σ*` over `alphabet`.
    pub fn universal(alphabet: Alphabet) -> Language {
        Language {
            dfa: Dfa::universal_language(alphabet.clone()),
            alphabet,
            description: "Σ*".to_string(),
        }
    }

    /// The alphabet of the language.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The canonical minimal DFA.
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// A human-readable description of the language (regex or word list).
    pub fn description(&self) -> &str {
        &self.description
    }

    /// Overrides the display description.
    pub fn with_description(mut self, description: impl Into<String>) -> Language {
        self.description = description.into();
        self
    }

    /// Returns a copy of the language whose alphabet is extended to include
    /// the letters of `alphabet` (the set of words does not change).
    pub fn with_alphabet(&self, alphabet: &Alphabet) -> Language {
        let bigger = self.alphabet.union(alphabet);
        Language {
            dfa: self.dfa.with_alphabet(&bigger).minimize(),
            alphabet: bigger,
            description: self.description.clone(),
        }
    }

    /// Whether the word belongs to the language.
    pub fn contains(&self, word: &Word) -> bool {
        self.dfa.accepts(word)
    }

    /// Whether the word (given as a string, one letter per character) belongs
    /// to the language. Errors if a character is not in the alphabet.
    pub fn contains_str(&self, s: &str) -> Result<bool> {
        for c in s.chars() {
            if !self.alphabet.contains(Letter(c)) {
                return Err(AutomataError::UnknownLetter(c));
            }
        }
        Ok(self.contains(&Word::from_str_word(s)))
    }

    /// Whether the language contains the empty word ε.
    pub fn contains_epsilon(&self) -> bool {
        self.contains(&Word::epsilon())
    }

    /// Whether the language is empty.
    pub fn is_empty(&self) -> bool {
        self.dfa.is_empty_language()
    }

    /// Whether the language is finite.
    pub fn is_finite(&self) -> bool {
        self.dfa.is_finite_language()
    }

    /// The words of a finite language, sorted by length then lexicographically.
    pub fn words(&self) -> Result<Vec<Word>> {
        self.dfa.enumerate_words()
    }

    /// All words of the language of length at most `max_len`.
    pub fn words_up_to_length(&self, max_len: usize) -> Vec<Word> {
        self.dfa.words_up_to_length(max_len)
    }

    /// A shortest word of the language, if any.
    pub fn shortest_word(&self) -> Option<Word> {
        self.dfa.shortest_accepted_word()
    }

    /// The letters that occur in at least one word of the language.
    pub fn used_letters(&self) -> Alphabet {
        self.dfa.used_letters()
    }

    /// The mirror language `L^R` (Proposition 6.3).
    pub fn mirror(&self) -> Language {
        Language {
            alphabet: self.alphabet.clone(),
            dfa: self.dfa.mirror().minimize(),
            description: format!("mirror({})", self.description),
        }
    }

    /// Union of two languages (alphabets are merged).
    pub fn union(&self, other: &Language) -> Language {
        Language {
            alphabet: self.alphabet.union(&other.alphabet),
            dfa: self.dfa.union(&other.dfa).minimize(),
            description: format!("({})|({})", self.description, other.description),
        }
    }

    /// Intersection of two languages (alphabets are merged).
    pub fn intersection(&self, other: &Language) -> Language {
        Language {
            alphabet: self.alphabet.union(&other.alphabet),
            dfa: self.dfa.intersection(&other.dfa).minimize(),
            description: format!("({})∩({})", self.description, other.description),
        }
    }

    /// Set difference `L(self) \ L(other)` (alphabets are merged).
    pub fn difference(&self, other: &Language) -> Language {
        Language {
            alphabet: self.alphabet.union(&other.alphabet),
            dfa: self.dfa.difference(&other.dfa).minimize(),
            description: format!("({})\\({})", self.description, other.description),
        }
    }

    /// Complement with respect to `Σ*` over the language's own alphabet.
    pub fn complement(&self) -> Language {
        Language {
            alphabet: self.alphabet.clone(),
            dfa: self.dfa.complement().minimize(),
            description: format!("¬({})", self.description),
        }
    }

    /// Whether the two languages are equal (as sets of words, over the union
    /// of their alphabets).
    pub fn equals(&self, other: &Language) -> bool {
        self.dfa.equivalent(&other.dfa)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset_of(&self, other: &Language) -> bool {
        self.dfa.is_subset_of(&other.dfa)
    }

    /// Concatenation `L(self) · L(other)`.
    pub fn concatenation(&self, other: &Language) -> Language {
        let enfa = concat_enfas(&[enfa_from_dfa(&self.dfa), enfa_from_dfa(&other.dfa)]);
        let alphabet = self.alphabet.union(&other.alphabet);
        let mut l = Language::from_enfa(&enfa, Some(alphabet));
        l.description = format!("({})({})", self.description, other.description);
        l
    }

    /// The **infix-free sublanguage** `IF(L)` (Section 2): the words of `L`
    /// having no strict infix in `L`. The RPQs `Q_L` and `Q_{IF(L)}` are the
    /// same query, so resilience analyses always reduce to `IF(L)`.
    ///
    /// Implemented as `IF(L) = L \ (F·Σ ∪ Σ·F)` with `F = Σ*LΣ*`, the words
    /// having an infix in `L`: `F·Σ ∪ Σ·F` is `Σ*LΣ⁺ ∪ Σ⁺LΣ*`, built with one
    /// (quadratic) `Σ*·L` subset construction.
    pub fn infix_free(&self) -> Language {
        let sigma_star = Language::universal(self.alphabet.clone());
        let letters: Vec<Word> = self.alphabet.iter().map(Word::single).collect();
        let sigma = Language::from_words(letters.iter());
        let containing = sigma_star.concatenation(self).concatenation(&sigma_star);
        let strictly_containing =
            containing.concatenation(&sigma).union(&sigma.concatenation(&containing));
        let mut result = self.difference(&strictly_containing);
        result.alphabet = self.alphabet.clone();
        result.dfa = result.dfa.with_alphabet(&self.alphabet).minimize();
        result.description = format!("IF({})", self.description);
        result
    }

    /// Whether the language is infix-free, i.e. `L = IF(L)`.
    pub fn is_infix_free(&self) -> bool {
        self.equals(&self.infix_free())
    }

    /// The **canonical form** of the language: a textual encoding of the
    /// minimized DFA (restricted to used letters, states renumbered by BFS)
    /// such that two languages yield the same string **iff** they contain the
    /// same words — independent of regex spelling, state numbering or ambient
    /// alphabet. See [`Dfa::canonical_form`]. This is the collision-free key
    /// used by prepared-query caches.
    pub fn canonical_form(&self) -> String {
        self.dfa.canonical_form()
    }

    /// A cheap 64-bit **language fingerprint**: the FNV-1a hash of
    /// [`Language::canonical_form`]. Equal languages always collide (e.g.
    /// `a|b` and `b|a`, or `a(b|c)` and `ab|ac`); different languages collide
    /// only with the usual 64-bit hash probability, so use
    /// [`Language::canonical_form`] where collisions must be impossible.
    pub fn language_fingerprint(&self) -> u64 {
        Self::fingerprint_of_canonical_form(&self.canonical_form())
    }

    /// The fingerprint of an already-computed [`Language::canonical_form`]
    /// string — canonicalization is the expensive half, so callers that
    /// already hold the canonical form (e.g. a cache keyed by it) should
    /// hash it directly instead of re-deriving it via
    /// [`Language::language_fingerprint`].
    pub fn fingerprint_of_canonical_form(canonical: &str) -> u64 {
        fnv1a_64(canonical.as_bytes())
    }
}

/// FNV-1a, 64-bit: a stable, dependency-free hash for fingerprints.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

impl std::fmt::Display for Language {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.description)
    }
}

/// Converts a DFA into an equivalent ε-NFA (trivially, by copying transitions
/// between useful states only).
pub fn enfa_from_dfa(dfa: &Dfa) -> Enfa {
    let mut enfa = Enfa::new();
    enfa.add_states(dfa.num_states());
    enfa.set_initial(dfa.initial_state());
    let useful = dfa.useful_states();
    for s in 0..dfa.num_states() {
        if dfa.is_final(s) {
            enfa.set_final(s);
        }
        for letter in dfa.alphabet().iter() {
            if let Some(t) = dfa.successor(s, letter) {
                // Skip transitions into non-co-accessible sink states to keep
                // the εNFA small; they cannot contribute to any accepted word.
                if useful.contains(&s) && useful.contains(&t) {
                    enfa.add_transition(s, letter, t);
                }
            }
        }
    }
    enfa
}

/// Concatenation of several ε-NFAs, in order.
pub fn concat_enfas(parts: &[Enfa]) -> Enfa {
    let mut out = Enfa::new();
    let start = out.add_state();
    out.set_initial(start);
    let mut prev_finals = vec![start];
    for part in parts {
        let offset = out.add_states(part.num_states());
        for t in part.transitions() {
            match t.label {
                Some(l) => out.add_transition(t.from + offset, l, t.to + offset),
                None => out.add_epsilon_transition(t.from + offset, t.to + offset),
            }
        }
        for &f in &prev_finals {
            for &i in part.initial_states() {
                out.add_epsilon_transition(f, i + offset);
            }
        }
        prev_finals = part.final_states().iter().map(|&s| s + offset).collect();
    }
    for f in prev_finals {
        out.set_final(f);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(s: &str) -> Word {
        Word::from_str_word(s)
    }

    #[test]
    fn parse_and_membership() {
        let l = Language::parse("ax*b|cxd").unwrap();
        assert!(l.contains(&w("ab")));
        assert!(l.contains(&w("axxxb")));
        assert!(l.contains(&w("cxd")));
        assert!(!l.contains(&w("cxxd")));
        assert!(l.contains_str("axb").unwrap());
        assert!(l.contains_str("zz").is_err());
    }

    #[test]
    fn finite_language_enumeration() {
        let l = Language::from_strs(["ab", "ad", "cd"]);
        assert!(l.is_finite());
        let words = l.words().unwrap();
        assert_eq!(words, vec![w("ab"), w("ad"), w("cd")]);
        let inf = Language::parse("ax*b").unwrap();
        assert!(!inf.is_finite());
        assert!(inf.words().is_err());
        assert_eq!(inf.words_up_to_length(3), vec![w("ab"), w("axb")]);
    }

    #[test]
    fn boolean_operations_and_equality() {
        let l1 = Language::parse("ab|cd").unwrap();
        let l2 = Language::parse("cd|ef").unwrap();
        assert!(l1.union(&l2).contains(&w("ef")));
        assert!(l1.intersection(&l2).contains(&w("cd")));
        assert!(!l1.intersection(&l2).contains(&w("ab")));
        assert!(l1.difference(&l2).contains(&w("ab")));
        assert!(!l1.difference(&l2).contains(&w("cd")));
        assert!(Language::parse("a(b|c)").unwrap().equals(&Language::parse("ab|ac").unwrap()));
        assert!(Language::parse("ab").unwrap().is_subset_of(&l1));
    }

    #[test]
    fn concatenation() {
        let l1 = Language::parse("a|ab").unwrap();
        let l2 = Language::parse("c*d").unwrap();
        let c = l1.concatenation(&l2);
        assert!(c.contains(&w("ad")));
        assert!(c.contains(&w("abccd")));
        assert!(!c.contains(&w("ab")));
        assert!(!c.contains(&w("d")));
    }

    #[test]
    fn mirror() {
        let l = Language::parse("abc|xd").unwrap();
        let m = l.mirror();
        assert!(m.contains(&w("cba")));
        assert!(m.contains(&w("dx")));
        assert!(!m.contains(&w("abc")));
        assert!(m.mirror().equals(&l));
    }

    #[test]
    fn infix_free_basic() {
        // IF(abbc|bb) = bb, because bb is a strict infix of abbc (paper §1).
        let l = Language::from_strs(["abbc", "bb"]);
        let if_l = l.infix_free();
        assert!(if_l.contains(&w("bb")));
        assert!(!if_l.contains(&w("abbc")));
        assert!(if_l.equals(&Language::from_strs(["bb"])));
    }

    #[test]
    fn infix_free_of_infinite_language() {
        // IF(L0) for L0 = {a, aa} is {a} (paper example after Theorem 3.13).
        let l0 = Language::from_strs(["a", "aa"]);
        assert!(l0.infix_free().equals(&Language::from_strs(["a"])));

        // IF(e*be*ce*|e*de*fe*) = be*c | de*f (paper, after Lemma 5.8).
        let l1 = Language::parse("e*be*ce*|e*de*fe*").unwrap();
        let expected = Language::parse("be*c|de*f").unwrap();
        assert!(l1.infix_free().equals(&expected.with_alphabet(l1.alphabet())));
    }

    #[test]
    fn infix_free_idempotent_and_detection() {
        let l = Language::parse("ab|bc").unwrap();
        assert!(l.is_infix_free());
        assert!(l.infix_free().equals(&l));
        let l2 = Language::from_strs(["a", "aa"]);
        assert!(!l2.is_infix_free());
        assert!(l2.infix_free().is_infix_free());
    }

    #[test]
    fn epsilon_in_language() {
        assert!(Language::parse("a*").unwrap().contains_epsilon());
        assert!(!Language::parse("a+").unwrap().contains_epsilon());
        // If ε ∈ L then IF(L) = {ε}.
        let l = Language::parse("a*").unwrap();
        assert!(l.infix_free().equals(&Language::from_words([Word::epsilon()].iter())));
    }

    #[test]
    fn empty_and_universal_language() {
        let alpha = Alphabet::from_chars("ab");
        let e = Language::empty(alpha.clone());
        assert!(e.is_empty());
        assert!(e.is_finite());
        let u = Language::universal(alpha);
        assert!(!u.is_empty());
        assert!(!u.is_finite());
        assert!(u.contains(&w("abab")));
        assert!(e.is_subset_of(&u));
    }

    #[test]
    fn with_alphabet_extends_without_changing_words() {
        let l = Language::parse("ab").unwrap();
        let bigger = l.with_alphabet(&Alphabet::from_chars("abcz"));
        assert!(bigger.contains(&w("ab")));
        assert!(!bigger.contains(&w("az")));
        assert_eq!(bigger.alphabet().len(), 4);
        assert!(bigger.equals(&l));
    }

    #[test]
    fn used_letters() {
        let l = Language::parse("ab|cd").unwrap().with_alphabet(&Alphabet::from_chars("abcdez"));
        let used = l.used_letters();
        assert_eq!(used.len(), 4);
        assert!(!used.contains(Letter('z')));
    }

    #[test]
    fn from_enfa_and_from_dfa() {
        let enfa = Regex::parse("ab|ad|cd").unwrap().to_enfa();
        let l = Language::from_enfa(&enfa, None);
        assert!(l.contains(&w("ad")));
        let l2 = Language::from_dfa(l.dfa().clone());
        assert!(l2.equals(&l));
    }

    #[test]
    fn language_fingerprint_is_spelling_independent() {
        // Textually different but equivalent regexes collide.
        for (left, right) in
            [("a|b", "b|a"), ("a(b|c)", "ab|ac"), ("ax*b", "a(x)*b"), ("ab|cd|ab", "cd|ab")]
        {
            let l = Language::parse(left).unwrap();
            let r = Language::parse(right).unwrap();
            assert_eq!(l.canonical_form(), r.canonical_form(), "{left} vs {right}");
            assert_eq!(l.language_fingerprint(), r.language_fingerprint(), "{left} vs {right}");
        }
    }

    #[test]
    fn language_fingerprint_separates_different_languages() {
        for (left, right) in [("a", "ab"), ("a", "b"), ("ab|cd", "ab"), ("ax*b", "axb"), ("ε", "a")]
        {
            let l = Language::parse(left).unwrap();
            let r = Language::parse(right).unwrap();
            assert_ne!(l.canonical_form(), r.canonical_form(), "{left} vs {right}");
            assert_ne!(l.language_fingerprint(), r.language_fingerprint(), "{left} vs {right}");
        }
    }

    #[test]
    fn language_fingerprint_ignores_the_ambient_alphabet() {
        // Extending the alphabet does not change the set of words, so the
        // canonical form (hence the fingerprint) must not change either.
        let l = Language::parse("ab").unwrap();
        let extended = l.with_alphabet(&Alphabet::from_chars("abcdxyz"));
        assert_eq!(l.canonical_form(), extended.canonical_form());
        assert_eq!(l.language_fingerprint(), extended.language_fingerprint());
        // The empty and ε languages are distinguished even with no used letters.
        let empty = Language::empty(Alphabet::from_chars("ab"));
        let eps = Language::from_words([Word::epsilon()].iter());
        assert_ne!(empty.canonical_form(), eps.canonical_form());
    }

    #[test]
    fn description_display() {
        let l = Language::parse("ab|cd").unwrap();
        assert_eq!(l.to_string(), "ab|cd");
        let l = Language::from_strs(["aa"]);
        assert_eq!(l.to_string(), "aa");
        let renamed = l.with_description("the aa language");
        assert_eq!(renamed.to_string(), "the aa language");
    }
}
