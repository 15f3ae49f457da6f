//! The language-keyed prepared-query cache.
//!
//! Preparing a query ([`Engine::prepare`]) runs the full query-only analysis
//! — infix-free sublanguage, ε-check, locality RO-εNFA, chain / one-dangling
//! decompositions — which dominates small-batch latency (the repository
//! benchmark's `wire_batch` workload reports `cache.hit_ratio` and
//! `cache.lookup_us`). [`QueryCache`] memoizes
//! [`PreparedQuery`] plans behind an [`Arc`] so concurrent connections share
//! them, and keys entries by the **canonical language form**
//! ([`rpq_automata::Language::canonical_form`]) rather than the regex text:
//! textually different but equivalent spellings (`a|b` vs `b|a`,
//! `a(b|c)` vs `ab|ac`) hit the same entry. The canonical form is derived
//! from the minimized DFA, so keying is collision-free — two keys are equal
//! iff the languages contain exactly the same words.
//!
//! Because a plan bakes in the solve configuration, the key also includes the
//! query semantics (set/bag), the [`SolveOptions`] and any forced algorithm;
//! the same language prepared with another enumeration limit is a different
//! entry. Whether a contingency set is extracted is a solve-time flag
//! (`SolveCall::want_cut`), not part of the key, so value-only and with-cut
//! requests for the same language share one entry.
//!
//! The whole cache sits behind **one [`Mutex`]**: a lookup holds it for a
//! hash probe, preparation runs outside it, and the server answers at most
//! `threads` requests at once. Eviction is exact least-recently-used over
//! the whole capacity, and the hit/miss/eviction counters live under the
//! same lock.
//!
//! # The spelling index
//!
//! Canonicalizing needs the parsed query, and a client that repeats one
//! request repeats its spelling too. So [`QueryCache::get_or_prepare_text`]
//! first looks the query up **by its text**: the raw pattern plus `bag`, the
//! forced algorithm and the effective enumeration limit. A hit there neither
//! parses nor canonicalizes. On a miss it parses, takes the canonical lookup
//! above, and remembers the spelling as one of the spellings of the entry it
//! led to. The canonical form stays the cache's identity: a spelling points
//! at a canonical entry, and a hit through it is the same plan-cache hit
//! (same plan, same fingerprint, counted in `hits`). Each entry lists its own
//! spellings, and evicting the entry removes them under the same lock, so no
//! spelling outlives its plan. The index is bounded: patterns longer than
//! [`MAX_SPELLING_BYTES`] are never remembered, a pattern that fails to
//! parse or prepare is never remembered, and each entry keeps at most
//! [`SPELLINGS_PER_PLAN`] spellings, dropping its oldest first — at most
//! `SPELLINGS_PER_PLAN × capacity` in all.

use rpq_automata::{AutomataError, Language};
use rpq_obs::Trace;
use rpq_resilience::algorithms::{Algorithm, ResilienceError};
use rpq_resilience::engine::{Engine, PreparedQuery, SolveOptions};
use rpq_resilience::rpq::{Rpq, Semantics};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The collision-free cache key: canonical language + everything else the
/// plan depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// Canonical form of the query language (spelling-independent).
    canonical: String,
    /// Bag vs set semantics.
    bag: bool,
    /// A forced algorithm, if the caller bypassed automatic dispatch.
    forced: Option<&'static str>,
    /// The `SolveOptions` the plan was prepared under.
    enumeration_limit: usize,
}

impl CacheKey {
    fn new(rpq: &Rpq, options: &SolveOptions, forced: Option<Algorithm>) -> CacheKey {
        CacheKey {
            canonical: rpq.language().canonical_form(),
            bag: rpq.semantics() == Semantics::Bag,
            forced: forced.map(Algorithm::name),
            enumeration_limit: options.enumeration_limit,
        }
    }
}

/// A query exactly as a request spells it, plus everything else the plan
/// depends on: the key of the spelling index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Spelling {
    pattern: String,
    bag: bool,
    forced: Option<&'static str>,
    enumeration_limit: usize,
}

struct Entry {
    prepared: Arc<PreparedQuery>,
    /// The entry's own key (the map's key), which its spellings point at.
    key: Arc<CacheKey>,
    fingerprint: u64,
    /// The spellings remembered for this entry, oldest first (at most
    /// [`SPELLINGS_PER_PLAN`]); they leave the index with the entry.
    spellings: Vec<Spelling>,
    last_used: u64,
}

/// Everything behind the cache's lock.
#[derive(Default)]
struct Inner {
    entries: HashMap<Arc<CacheKey>, Entry>,
    /// Every remembered spelling, with the key of the entry it parsed to.
    spellings: HashMap<Spelling, Arc<CacheKey>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    /// The plan a remembered spelling points at, touched and counted as a
    /// hit.
    fn lookup_spelling(&mut self, spelling: &Spelling) -> Option<CacheLookup> {
        let entry = self.entries.get_mut(self.spellings.get(spelling)?)?;
        self.tick += 1;
        entry.last_used = self.tick;
        self.hits += 1;
        let prepared = Arc::clone(&entry.prepared);
        Some(CacheLookup { prepared, hit: true, fingerprint: entry.fingerprint })
    }

    /// The plan of `key`, touched; counts the hit or the miss.
    fn lookup(&mut self, key: &CacheKey) -> Option<Arc<PreparedQuery>> {
        self.tick += 1;
        let Some(entry) = self.entries.get_mut(key) else {
            self.misses += 1;
            return None;
        };
        entry.last_used = self.tick;
        self.hits += 1;
        Some(Arc::clone(&entry.prepared))
    }

    /// Inserts a freshly prepared plan, or hands back the incumbent of its
    /// key. Evicts the least recently used entries, with their spellings,
    /// to stay within `capacity`.
    fn insert(
        &mut self,
        key: Arc<CacheKey>,
        fingerprint: u64,
        prepared: Arc<PreparedQuery>,
        capacity: usize,
    ) -> Arc<PreparedQuery> {
        self.tick += 1;
        if let Some(existing) = self.entries.get_mut(&key) {
            // Another thread prepared the same language concurrently; keep
            // the incumbent so every caller shares one plan.
            existing.last_used = self.tick;
            return Arc::clone(&existing.prepared);
        }
        while self.entries.len() >= capacity {
            let oldest =
                self.entries.values().min_by_key(|e| e.last_used).map(|e| Arc::clone(&e.key));
            let Some(evicted) = oldest.and_then(|key| self.entries.remove(&key)) else { break };
            for spelling in &evicted.spellings {
                self.spellings.remove(spelling);
            }
            self.evictions += 1;
        }
        let entry = Entry {
            prepared: Arc::clone(&prepared),
            key: Arc::clone(&key),
            fingerprint,
            spellings: Vec::new(),
            last_used: self.tick,
        };
        self.entries.insert(key, entry);
        prepared
    }

    /// Remembers `spelling` (if any) as a spelling of `key`'s entry, dropping
    /// the entry's oldest one when it already lists [`SPELLINGS_PER_PLAN`].
    fn remember(&mut self, key: &CacheKey, spelling: Option<Spelling>) {
        let Some(spelling) = spelling else { return };
        if self.spellings.contains_key(&spelling) {
            return;
        }
        let Some(entry) = self.entries.get_mut(key) else { return };
        if entry.spellings.len() >= SPELLINGS_PER_PLAN {
            let oldest = entry.spellings.remove(0);
            self.spellings.remove(&oldest);
        }
        self.spellings.insert(spelling.clone(), Arc::clone(&entry.key));
        entry.spellings.push(spelling);
    }
}

/// The result of a cache lookup (see [`QueryCache::get_or_prepare_text`]).
pub struct CacheLookup {
    /// The shared prepared plan.
    pub prepared: Arc<PreparedQuery>,
    /// Whether the plan was answered from the cache.
    pub hit: bool,
    /// The 64-bit language fingerprint — hashed from the canonical key this
    /// lookup already computed, so callers never re-canonicalize.
    pub fingerprint: u64,
}

/// Aggregate cache counters (see [`QueryCache::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run `Engine::prepare`.
    pub misses: u64,
    /// Entries dropped to respect the capacity.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// The configured capacity.
    pub capacity: usize,
}

/// The longest pattern, in bytes, the spelling index remembers; longer
/// patterns are parsed on every request (their parse dwarfs a lookup).
pub const MAX_SPELLING_BYTES: usize = 256;

/// The spellings remembered per cached plan.
pub const SPELLINGS_PER_PLAN: usize = 4;

/// Why [`QueryCache::get_or_prepare_text`] returned no plan.
#[derive(Debug)]
pub enum QueryError {
    /// The pattern is not a regular expression (never remembered).
    Parse(AutomataError),
    /// The engine could not prepare the parsed query (never cached).
    Prepare(ResilienceError),
}

/// A thread-safe LRU cache of [`PreparedQuery`] plans keyed by canonicalized
/// query language (plus semantics and options), behind one lock. See the
/// module docs for the keying rules and the spelling index.
pub struct QueryCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl QueryCache {
    /// A cache holding at most `capacity` prepared plans (at least one).
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache { capacity: capacity.max(1), inner: Mutex::default() }
    }

    /// The cache's lock. A poisoned lock still guards structurally valid
    /// maps (every mutation under it is panic-free), so recover instead of
    /// unwinding.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The plan for a query as a request spells it: `pattern` under `bag`
    /// semantics, the engine's options and any `forced` algorithm. A
    /// remembered spelling answers without parsing; otherwise the pattern is
    /// parsed and looked up by its canonical form, prepared and inserted on
    /// a miss, and its spelling remembered (see the module docs).
    /// Preparation runs outside the lock, so a slow `prepare` never blocks
    /// hits on other languages; two threads racing on the same new language
    /// may both prepare, and the first insert wins.
    ///
    /// Traced, a spelling hit records one `cache_lookup` span; a miss adds a
    /// `query_parse` span, the canonical probe to `cache_lookup`, and the
    /// engine's own `canonicalize`/`classify`/`plan` spans on a canonical
    /// miss (a single `plan` span when the algorithm is forced, since forced
    /// plans skip classification).
    pub fn get_or_prepare_text(
        &self,
        engine: &Engine,
        pattern: &str,
        bag: bool,
        forced: Option<Algorithm>,
        trace: &mut Trace,
    ) -> Result<CacheLookup, QueryError> {
        let probe_timer = trace.begin();
        let spelling = (pattern.len() <= MAX_SPELLING_BYTES).then(|| Spelling {
            pattern: pattern.to_string(),
            bag,
            forced: forced.map(Algorithm::name),
            enumeration_limit: engine.options().enumeration_limit,
        });
        let hit = spelling.as_ref().and_then(|spelling| self.lock().lookup_spelling(spelling));
        trace.end(probe_timer, "cache_lookup");
        if let Some(lookup) = hit {
            return Ok(lookup);
        }
        let parse_timer = trace.begin();
        let mut rpq = Rpq::new(Language::parse(pattern).map_err(QueryError::Parse)?);
        if bag {
            rpq = rpq.with_bag_semantics();
        }
        trace.end(parse_timer, "query_parse");
        let lookup_timer = trace.begin();
        let key = Arc::new(CacheKey::new(&rpq, engine.options(), forced));
        let fingerprint = Language::fingerprint_of_canonical_form(&key.canonical);
        let mut inner = self.lock();
        if let Some(prepared) = inner.lookup(&key) {
            inner.remember(&key, spelling);
            drop(inner);
            trace.end(lookup_timer, "cache_lookup");
            return Ok(CacheLookup { prepared, hit: true, fingerprint });
        }
        drop(inner);
        trace.end(lookup_timer, "cache_lookup");
        let prepared = Arc::new(match forced {
            Some(algorithm) => {
                let plan_timer = trace.begin();
                let prepared = engine.prepare_with(algorithm, &rpq).map_err(QueryError::Prepare)?;
                trace.end(plan_timer, "plan");
                prepared
            }
            None => engine.prepare_traced(&rpq, trace).map_err(QueryError::Prepare)?,
        });
        let mut inner = self.lock();
        let prepared = inner.insert(Arc::clone(&key), fingerprint, prepared, self.capacity);
        inner.remember(&key, spelling);
        Ok(CacheLookup { prepared, hit: false, fingerprint })
    }

    /// The spellings remembered.
    #[cfg(test)]
    pub(crate) fn spellings(&self) -> usize {
        self.lock().spellings.len()
    }

    /// The current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            entries: inner.entries.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_and_engine(capacity: usize) -> (QueryCache, Engine) {
        (QueryCache::new(capacity), Engine::new())
    }

    /// An untraced [`QueryCache::get_or_prepare_text`].
    fn by_text(
        cache: &QueryCache,
        engine: &Engine,
        pattern: &str,
        bag: bool,
        forced: Option<Algorithm>,
    ) -> CacheLookup {
        let lookup =
            cache.get_or_prepare_text(engine, pattern, bag, forced, &mut Trace::disabled());
        lookup.unwrap()
    }

    #[test]
    fn equivalent_spellings_share_one_entry() {
        let (cache, engine) = cache_and_engine(8);
        let first = by_text(&cache, &engine, "a|b", false, None);
        assert!(!first.hit);
        let second = by_text(&cache, &engine, "b|a", false, None);
        assert!(second.hit);
        assert!(Arc::ptr_eq(&first.prepared, &second.prepared));
        assert_eq!(first.fingerprint, second.fingerprint);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn different_languages_get_different_entries() {
        let (cache, engine) = cache_and_engine(8);
        by_text(&cache, &engine, "a", false, None);
        assert!(!by_text(&cache, &engine, "ab", false, None).hit);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn semantics_options_and_forced_algorithm_split_the_key() {
        let (cache, engine) = cache_and_engine(8);
        by_text(&cache, &engine, "ax*b", false, None);
        // Bag semantics: same language, different key.
        assert!(!by_text(&cache, &engine, "ax*b", true, None).hit);
        // Different plan-relevant option: different key.
        let small_limit = Engine::with_options(SolveOptions { enumeration_limit: 4 });
        assert!(!by_text(&cache, &small_limit, "ax*b", false, None).hit);
        // Forced algorithm: different key.
        assert!(!by_text(&cache, &engine, "ax*b", false, Some(Algorithm::Local)).hit);
        // And each of those now hits.
        assert!(by_text(&cache, &engine, "ax*b", false, None).hit);
        assert!(by_text(&cache, &small_limit, "ax*b", false, None).hit);
        assert_eq!(cache.stats().entries, 4);
    }

    #[test]
    fn stats_aggregate_every_language() {
        let (cache, engine) = cache_and_engine(64);
        let patterns = ["a", "b", "c", "ab", "ax*b", "ab|bc", "abc|be", "ba"];
        for pattern in patterns {
            assert!(!by_text(&cache, &engine, pattern, false, None).hit);
        }
        // Every language is its own entry and now hits.
        assert_eq!(cache.stats().entries, patterns.len());
        for pattern in patterns {
            assert!(by_text(&cache, &engine, pattern, false, None).hit);
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (patterns.len() as u64, patterns.len() as u64));
    }

    #[test]
    fn concurrent_lookups_share_one_plan_per_language() {
        let cache = std::sync::Arc::new(QueryCache::new(64));
        let patterns = ["a", "b", "ax*b", "ab|bc"];
        let mut handles = Vec::new();
        for &pattern in &patterns {
            for _ in 0..3 {
                let cache = std::sync::Arc::clone(&cache);
                handles.push(std::thread::spawn(move || {
                    let engine = Engine::new();
                    let lookup = by_text(&cache, &engine, pattern, false, None);
                    std::sync::Arc::as_ptr(&lookup.prepared) as usize
                }));
            }
        }
        let mut plans: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        plans.sort_unstable();
        plans.dedup();
        // Racing threads may both prepare, but the first insert wins and
        // every caller is handed the incumbent: exactly one shared plan per
        // language, no matter how the 12 lookups interleaved.
        assert_eq!(cache.stats().entries, patterns.len());
        assert_eq!(plans.len(), patterns.len());
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 12);
    }

    #[test]
    fn lru_eviction_drops_the_coldest_entry() {
        let (cache, engine) = cache_and_engine(2);
        by_text(&cache, &engine, "a", false, None);
        by_text(&cache, &engine, "b", false, None);
        // Touch `a` so `b` is the LRU entry.
        assert!(by_text(&cache, &engine, "a", false, None).hit);
        by_text(&cache, &engine, "c", false, None);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        // `a` survived, `b` was evicted.
        assert!(by_text(&cache, &engine, "a", false, None).hit);
        assert!(!by_text(&cache, &engine, "b", false, None).hit);
    }

    #[test]
    fn lru_eviction_is_exact_over_the_whole_capacity() {
        let (cache, engine) = cache_and_engine(8);
        let languages = ["a", "b", "c", "d", "e", "f", "g", "h"];
        for language in languages {
            by_text(&cache, &engine, language, false, None);
        }
        // Touch every language but `d`; a ninth then evicts exactly `d`.
        for language in languages.iter().filter(|&&l| l != "d") {
            assert!(by_text(&cache, &engine, language, false, None).hit);
        }
        assert!(!by_text(&cache, &engine, "i", false, None).hit);
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (8, 1));
        for language in languages.iter().filter(|&&l| l != "d") {
            assert!(by_text(&cache, &engine, language, false, None).hit, "{language}");
        }
        assert!(by_text(&cache, &engine, "i", false, None).hit);
        assert!(!by_text(&cache, &engine, "d", false, None).hit);
    }

    #[test]
    fn prepare_errors_are_not_cached() {
        // `aa` is not local, so forcing Theorem 3.13 fails to prepare.
        let engine = Engine::new();
        let cache = QueryCache::new(4);
        let local = Some(Algorithm::Local);
        for _ in 0..2 {
            let lookup =
                cache.get_or_prepare_text(&engine, "aa", false, local, &mut Trace::disabled());
            assert!(lookup.is_err());
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.misses), (0, 2));
    }

    #[test]
    fn a_repeated_spelling_hits_without_parsing_and_keeps_the_canonical_identity() {
        let (cache, engine) = cache_and_engine(8);
        let first = by_text(&cache, &engine, "a|b", false, None);
        let other = by_text(&cache, &engine, "b|a", false, None);
        let again = by_text(&cache, &engine, "a|b", false, None);
        assert_eq!((first.hit, other.hit, again.hit), (false, true, true));
        assert_eq!((other.fingerprint, again.fingerprint), (first.fingerprint, first.fingerprint));
        assert!(Arc::ptr_eq(&first.prepared, &again.prepared));
        // Both spellings are remembered, as aliases of one entry.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
        assert_eq!(cache.spellings(), 2);
        // A traced spelling hit records the lookup and no parse.
        let mut trace = Trace::enabled();
        cache.get_or_prepare_text(&engine, "b|a", false, None, &mut trace).unwrap();
        let phases: Vec<&str> = trace.spans().iter().map(|&(phase, _)| phase).collect();
        assert_eq!(phases, ["cache_lookup"]);
        let mut trace = Trace::enabled();
        cache.get_or_prepare_text(&engine, "(b)|a", false, None, &mut trace).unwrap();
        let phases: Vec<&str> = trace.spans().iter().map(|&(phase, _)| phase).collect();
        assert_eq!(phases, ["cache_lookup", "query_parse"]);
    }

    #[test]
    fn a_spelling_is_never_reused_under_other_settings() {
        let (cache, engine) = cache_and_engine(16);
        let small_limit = Engine::with_options(SolveOptions { enumeration_limit: 4 });
        let set = by_text(&cache, &engine, "ax*b", false, None);
        let variants = [
            by_text(&cache, &engine, "ax*b", true, None),
            by_text(&cache, &small_limit, "ax*b", false, None),
            by_text(&cache, &engine, "ax*b", false, Some(Algorithm::Local)),
        ];
        for variant in &variants {
            assert!(!variant.hit);
            assert!(!Arc::ptr_eq(&variant.prepared, &set.prepared));
        }
        assert_eq!(variants[0].prepared.rpq().semantics(), Semantics::Bag);
        assert!(variants[2].prepared.plan().forced);
        // Each variant is its own alias and now hits its own plan.
        let again = [
            by_text(&cache, &engine, "ax*b", true, None),
            by_text(&cache, &small_limit, "ax*b", false, None),
            by_text(&cache, &engine, "ax*b", false, Some(Algorithm::Local)),
        ];
        for (variant, again) in variants.iter().zip(&again) {
            assert!(again.hit);
            assert!(Arc::ptr_eq(&variant.prepared, &again.prepared));
        }
        assert_eq!((cache.stats().entries, cache.spellings()), (4, 4));
    }

    #[test]
    fn unparsable_long_and_unpreparable_patterns_are_never_remembered() {
        let (cache, engine) = cache_and_engine(8);
        for _ in 0..2 {
            let error =
                cache.get_or_prepare_text(&engine, "a(", false, None, &mut Trace::disabled());
            assert!(matches!(error, Err(QueryError::Parse(_))));
            // `aa` is not local, so forcing Theorem 3.13 fails to prepare.
            let local = Some(Algorithm::Local);
            let error =
                cache.get_or_prepare_text(&engine, "aa", false, local, &mut Trace::disabled());
            assert!(matches!(error, Err(QueryError::Prepare(_))));
        }
        assert_eq!(cache.spellings(), 0);
        // A pattern past the length bound answers through the canonical
        // lookup every time.
        let long = "a".repeat(MAX_SPELLING_BYTES + 1);
        assert!(!by_text(&cache, &engine, &long, false, None).hit);
        assert!(by_text(&cache, &engine, &long, false, None).hit);
        let short = "a".repeat(MAX_SPELLING_BYTES);
        by_text(&cache, &engine, &short, false, None);
        assert_eq!(cache.spellings(), 1);
    }

    #[test]
    fn the_spelling_index_stays_within_its_bound_and_keeps_no_evicted_plan_alive() {
        // Eight plans: at most 8 × SPELLINGS_PER_PLAN spellings.
        let (cache, engine) = cache_and_engine(8);
        let bound = 8 * SPELLINGS_PER_PLAN;
        let first = by_text(&cache, &engine, "a", false, None);
        let first_plan = Arc::downgrade(&first.prepared);
        drop(first);
        // Many spellings of one language (its plan stays cached), then many
        // languages (their plans are evicted).
        for i in 0..bound + 10 {
            let spelling = format!("{}b{}", "(".repeat(i + 1), ")".repeat(i + 1));
            by_text(&cache, &engine, &spelling, false, None);
            assert!(cache.spellings() <= bound, "{i}: {}", cache.spellings());
        }
        for i in 0..bound + 10 {
            by_text(&cache, &engine, &"c".repeat(i + 1), false, None);
            assert!(cache.spellings() <= bound, "{i}: {}", cache.spellings());
        }
        assert!(cache.stats().evictions > 0);
        // The spelling of the evicted `a` went with it and kept no plan alive.
        assert!(first_plan.upgrade().is_none());
        assert!(!by_text(&cache, &engine, "a", false, None).hit);
    }

    #[test]
    fn evicting_a_plan_removes_its_spellings() {
        let (cache, engine) = cache_and_engine(2);
        let bound = 2 * SPELLINGS_PER_PLAN;
        // More spellings of `a` than one plan keeps: the oldest go first.
        let spellings_of_a: Vec<String> = (0..SPELLINGS_PER_PLAN + 2)
            .map(|i| format!("{}a{}", "(".repeat(i), ")".repeat(i)))
            .collect();
        for spelling in &spellings_of_a {
            by_text(&cache, &engine, spelling, false, None);
            assert!(cache.spellings() <= bound);
        }
        assert_eq!(cache.spellings(), SPELLINGS_PER_PLAN);
        let parses = |pattern: &str| {
            let mut trace = Trace::enabled();
            let lookup = cache.get_or_prepare_text(&engine, pattern, false, None, &mut trace);
            assert!(lookup.unwrap().hit, "{pattern}");
            trace.spans().iter().any(|&(phase, _)| phase == "query_parse")
        };
        // The oldest spelling was dropped and is parsed again (which
        // remembers it anew); the newest answers from the index.
        assert!(!parses(spellings_of_a.last().unwrap()));
        assert!(parses(&spellings_of_a[0]));
        assert_eq!(cache.spellings(), SPELLINGS_PER_PLAN);
        // `b` is touched last, so `c` evicts `a` — and every spelling of `a`.
        by_text(&cache, &engine, "b", false, None);
        by_text(&cache, &engine, "(b)", false, None);
        assert_eq!(cache.spellings(), SPELLINGS_PER_PLAN + 2);
        by_text(&cache, &engine, "c", false, None);
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.spellings(), 3);
        assert!(cache.spellings() <= bound);
        assert!(!by_text(&cache, &engine, spellings_of_a.last().unwrap(), false, None).hit);
    }
}
