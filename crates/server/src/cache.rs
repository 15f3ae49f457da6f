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
//! requests for the same language share one entry. Eviction is
//! least-recently-used with a fixed capacity.
//!
//! The cache is **sharded into lock stripes** keyed by the language
//! fingerprint: each stripe has its own mutex and its own LRU region, so
//! cache hits on different languages never contend on one global lock under
//! high connection counts. Counters (hits/misses/evictions) are lock-free
//! atomics; eviction is LRU *within a stripe* (stripe capacities sum to the
//! configured total), which approximates global LRU the way any striped
//! cache does. `QueryCache::with_shards(capacity, 1)` recovers exact global
//! LRU when determinism matters more than throughput.
//!
//! # The spelling index
//!
//! Canonicalizing needs the parsed query, and a client that repeats one
//! request repeats its spelling too. So [`QueryCache::get_or_prepare_text`]
//! first looks the query up **by its text**: the raw pattern plus `bag`, the
//! forced algorithm and the effective enumeration limit. A hit there neither
//! parses nor canonicalizes. On a miss it parses, takes the canonical lookup
//! above, and remembers the spelling as an alias of the canonical key it led
//! to. The canonical form stays the cache's identity: an alias points at a
//! canonical entry, a hit through it is the same plan-cache hit (same plan,
//! same fingerprint, counted in `hits`), and an alias whose entry was evicted
//! simply misses. Aliases hold their canonical key weakly, so they keep no
//! evicted plan or canonical form alive. The index is bounded: patterns
//! longer than [`MAX_SPELLING_BYTES`] are never remembered, a pattern that
//! fails to parse is never remembered, and each stripe keeps at most
//! [`SPELLINGS_PER_PLAN`] spellings per plan slot, dropping those of evicted
//! plans first and then the least recently used. Spellings are striped by
//! their own hash, so the index adds no global lock either.

use rpq_automata::{AutomataError, Language};
use rpq_obs::Trace;
use rpq_resilience::algorithms::{Algorithm, ResilienceError};
use rpq_resilience::engine::{Engine, PreparedQuery, SolveOptions};
use rpq_resilience::rpq::{Rpq, Semantics};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};

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
    /// The entry's own key (the map's key), which aliases point at.
    key: Arc<CacheKey>,
    last_used: u64,
}

/// A remembered spelling: the canonical key it parsed to, held weakly so
/// that evicting the entry frees the key too, and that key's fingerprint.
struct Alias {
    key: Weak<CacheKey>,
    fingerprint: u64,
    last_used: u64,
}

struct Inner {
    entries: HashMap<Arc<CacheKey>, Entry>,
    /// Spellings whose hash maps to this stripe (see the module docs).
    spellings: HashMap<Spelling, Alias>,
    tick: u64,
}

/// The result of a cache lookup (see [`QueryCache::get_or_prepare`]).
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
    /// Entries currently cached (summed over all stripes).
    pub entries: usize,
    /// The configured total capacity.
    pub capacity: usize,
    /// The number of lock stripes.
    pub shards: usize,
}

/// The default stripe count of [`QueryCache::new`] (clamped to the capacity).
pub const DEFAULT_SHARDS: usize = 8;

/// The minimum number of slots per stripe: every option-variant of a
/// language shares its stripe, so stripes must hold a few entries each.
pub const MIN_STRIPE_CAPACITY: usize = 4;

/// The longest pattern, in bytes, the spelling index remembers; longer
/// patterns are parsed on every request (their parse dwarfs a lookup).
pub const MAX_SPELLING_BYTES: usize = 256;

/// The spellings each stripe remembers per plan slot.
pub const SPELLINGS_PER_PLAN: usize = 4;

/// Why [`QueryCache::get_or_prepare_text`] returned no plan.
#[derive(Debug)]
pub enum QueryError {
    /// The pattern is not a regular expression (never remembered).
    Parse(AutomataError),
    /// The engine could not prepare the parsed query (never cached).
    Prepare(ResilienceError),
}

/// A thread-safe, lock-striped LRU cache of [`PreparedQuery`] plans keyed by
/// canonicalized query language (plus semantics and options). See the module
/// docs for the keying and sharding rules.
pub struct QueryCache {
    capacity: usize,
    stripe_capacity: usize,
    stripes: Vec<Mutex<Inner>>,
    /// Picks the stripe of a spelling.
    spelling_hasher: RandomState,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl QueryCache {
    /// A cache holding at most `capacity` prepared plans (at least one),
    /// striped over [`DEFAULT_SHARDS`] locks.
    pub fn new(capacity: usize) -> QueryCache {
        QueryCache::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache with an explicit stripe count. The stripe count is clamped so
    /// that every stripe gets at least [`MIN_STRIPE_CAPACITY`] slots — all
    /// option-variants of one language land in the same stripe (they share a
    /// fingerprint), so tiny stripes would thrash between variants. Each
    /// stripe gets `capacity.div_ceil(shards)` slots; stripe capacities sum
    /// to (at least) the requested total.
    pub fn with_shards(capacity: usize, shards: usize) -> QueryCache {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, (capacity / MIN_STRIPE_CAPACITY).max(1));
        QueryCache {
            capacity,
            stripe_capacity: capacity.div_ceil(shards),
            stripes: (0..shards)
                .map(|_| {
                    Mutex::new(Inner {
                        entries: HashMap::new(),
                        spellings: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            spelling_hasher: RandomState::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The stripe a language fingerprint maps to. All keys of one language
    /// share a stripe regardless of options, so a hot language contends on
    /// exactly one lock and different languages spread over all of them.
    fn stripe(&self, fingerprint: u64) -> &Mutex<Inner> {
        // lint: allow(panic-freedom, modulo of the stripe count is always in range)
        &self.stripes[(fingerprint % self.stripes.len() as u64) as usize]
    }

    /// The stripe a spelling is remembered in.
    fn spelling_stripe(&self, spelling: &Spelling) -> &Mutex<Inner> {
        let hash = self.spelling_hasher.hash_one(spelling);
        // lint: allow(panic-freedom, modulo of the stripe count is always in range)
        &self.stripes[(hash % self.stripes.len() as u64) as usize]
    }

    /// Returns the cached plan for the query's language (and the engine's
    /// options), preparing and inserting it on a miss. Preparation runs
    /// outside every cache lock, so a slow `prepare` never blocks hits on
    /// other languages; two threads racing on the same new language may both
    /// prepare, and the first insert wins.
    pub fn get_or_prepare(
        &self,
        engine: &Engine,
        rpq: &Rpq,
        forced: Option<Algorithm>,
    ) -> Result<CacheLookup, ResilienceError> {
        let lookup = self.get_or_prepare_keyed(engine, rpq, forced, &mut Trace::disabled())?;
        Ok(lookup.0)
    }

    /// The plan for a query as a request spells it: `pattern` under `bag`
    /// semantics, the engine's options and any `forced` algorithm. A
    /// remembered spelling answers without parsing; otherwise the pattern is
    /// parsed, looked up (or prepared) by its canonical form as in
    /// [`QueryCache::get_or_prepare`], and its spelling remembered (see the
    /// module docs). Traced, a spelling hit records one `cache_lookup` span;
    /// a miss adds a `query_parse` span, the canonical probe to
    /// `cache_lookup`, and the engine's own `canonicalize`/`classify`/`plan`
    /// spans on a canonical miss (a single `plan` span when the algorithm is
    /// forced, since forced plans skip classification).
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
        if let Some(lookup) = spelling.as_ref().and_then(|spelling| self.lookup_spelling(spelling))
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            trace.end(probe_timer, "cache_lookup");
            return Ok(lookup);
        }
        trace.end(probe_timer, "cache_lookup");
        let parse_timer = trace.begin();
        let mut rpq = Rpq::new(Language::parse(pattern).map_err(QueryError::Parse)?);
        if bag {
            rpq = rpq.with_bag_semantics();
        }
        trace.end(parse_timer, "query_parse");
        let (lookup, key) =
            self.get_or_prepare_keyed(engine, &rpq, forced, trace).map_err(QueryError::Prepare)?;
        if let Some(spelling) = spelling {
            self.remember(spelling, &key, lookup.fingerprint);
        }
        Ok(lookup)
    }

    /// The canonical lookup behind both entry points: a hit adds its
    /// canonicalization and stripe probe to the `cache_lookup` span. Also
    /// returns the entry's key, for the spelling index.
    fn get_or_prepare_keyed(
        &self,
        engine: &Engine,
        rpq: &Rpq,
        forced: Option<Algorithm>,
        trace: &mut Trace,
    ) -> Result<(CacheLookup, Arc<CacheKey>), ResilienceError> {
        let lookup_timer = trace.begin();
        let key = CacheKey::new(rpq, engine.options(), forced);
        let fingerprint = rpq_automata::Language::fingerprint_of_canonical_form(&key.canonical);
        if let Some((prepared, key)) = self.lookup(fingerprint, &key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            trace.end(lookup_timer, "cache_lookup");
            return Ok((CacheLookup { prepared, hit: true, fingerprint }, key));
        }
        trace.end(lookup_timer, "cache_lookup");
        self.misses.fetch_add(1, Ordering::Relaxed);
        let prepared = Arc::new(match forced {
            Some(algorithm) => {
                let plan_timer = trace.begin();
                let prepared = engine.prepare_with(algorithm, rpq)?;
                trace.end(plan_timer, "plan");
                prepared
            }
            None => engine.prepare_traced(rpq, trace)?,
        });
        let (prepared, key) = self.insert(fingerprint, key, prepared);
        Ok((CacheLookup { prepared, hit: false, fingerprint }, key))
    }

    /// The plan a remembered spelling points at, if its entry is still
    /// cached. The two stripes are locked one after the other, never nested.
    fn lookup_spelling(&self, spelling: &Spelling) -> Option<CacheLookup> {
        let (key, fingerprint) = {
            let mut inner =
                self.spelling_stripe(spelling).lock().unwrap_or_else(PoisonError::into_inner);
            inner.tick += 1;
            let tick = inner.tick;
            let alias = inner.spellings.get_mut(spelling)?;
            alias.last_used = tick;
            (alias.key.upgrade()?, alias.fingerprint)
        };
        let (prepared, _) = self.lookup(fingerprint, &key)?;
        Some(CacheLookup { prepared, hit: true, fingerprint })
    }

    /// Remembers that `spelling` parses to the entry `key`, making room
    /// first if the stripe holds its share of spellings: the spellings of
    /// evicted plans go first, then the least recently used one.
    fn remember(&self, spelling: Spelling, key: &Arc<CacheKey>, fingerprint: u64) {
        let cap = self.stripe_capacity * SPELLINGS_PER_PLAN;
        let mut inner =
            self.spelling_stripe(&spelling).lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.spellings.contains_key(&spelling) && inner.spellings.len() >= cap {
            inner.spellings.retain(|_, alias| alias.key.strong_count() > 0);
            if inner.spellings.len() >= cap {
                let oldest = (inner.spellings.iter())
                    .min_by_key(|(_, alias)| alias.last_used)
                    .map(|(spelling, _)| spelling.clone());
                if let Some(oldest) = oldest {
                    inner.spellings.remove(&oldest);
                }
            }
        }
        let alias = Alias { key: Arc::downgrade(key), fingerprint, last_used: tick };
        inner.spellings.insert(spelling, alias);
    }

    /// The entry of `key`, touched: its plan and its key.
    fn lookup(
        &self,
        fingerprint: u64,
        key: &CacheKey,
    ) -> Option<(Arc<PreparedQuery>, Arc<CacheKey>)> {
        // A poisoned stripe still holds a structurally valid map (every
        // mutation below is panic-free), so recover instead of unwinding.
        let mut inner = self.stripe(fingerprint).lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.get_mut(key).map(|entry| {
            entry.last_used = tick;
            (Arc::clone(&entry.prepared), Arc::clone(&entry.key))
        })
    }

    /// Inserts a freshly prepared plan, or hands back the incumbent of its
    /// key, with the entry's key either way.
    fn insert(
        &self,
        fingerprint: u64,
        key: CacheKey,
        prepared: Arc<PreparedQuery>,
    ) -> (Arc<PreparedQuery>, Arc<CacheKey>) {
        let mut inner = self.stripe(fingerprint).lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(existing) = inner.entries.get_mut(&key) {
            // Another thread prepared the same language concurrently; keep
            // the incumbent so every caller shares one plan.
            existing.last_used = tick;
            return (Arc::clone(&existing.prepared), Arc::clone(&existing.key));
        }
        while inner.entries.len() >= self.stripe_capacity {
            let oldest =
                inner.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| Arc::clone(k));
            let Some(oldest) = oldest else { break };
            inner.entries.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let key = Arc::new(key);
        let entry =
            Entry { prepared: Arc::clone(&prepared), key: Arc::clone(&key), last_used: tick };
        inner.entries.insert(Arc::clone(&key), entry);
        (prepared, key)
    }

    /// The spellings remembered across all stripes.
    #[cfg(test)]
    pub(crate) fn spellings(&self) -> usize {
        let stripes = self.stripes.iter();
        stripes.map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).spellings.len()).sum()
    }

    /// The current counters (entries summed over all stripes).
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .stripes
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).entries.len())
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            capacity: self.capacity,
            shards: self.stripes.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache_and_engine(capacity: usize) -> (QueryCache, Engine) {
        (QueryCache::new(capacity), Engine::new())
    }

    #[test]
    fn equivalent_spellings_share_one_entry() {
        let (cache, engine) = cache_and_engine(8);
        let first = cache.get_or_prepare(&engine, &Rpq::parse("a|b").unwrap(), None).unwrap();
        assert!(!first.hit);
        let second = cache.get_or_prepare(&engine, &Rpq::parse("b|a").unwrap(), None).unwrap();
        assert!(second.hit);
        assert!(Arc::ptr_eq(&first.prepared, &second.prepared));
        assert_eq!(first.fingerprint, second.fingerprint);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn different_languages_get_different_entries() {
        let (cache, engine) = cache_and_engine(8);
        cache.get_or_prepare(&engine, &Rpq::parse("a").unwrap(), None).unwrap();
        assert!(!cache.get_or_prepare(&engine, &Rpq::parse("ab").unwrap(), None).unwrap().hit);
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn semantics_options_and_forced_algorithm_split_the_key() {
        let (cache, engine) = cache_and_engine(8);
        let q = Rpq::parse("ax*b").unwrap();
        cache.get_or_prepare(&engine, &q, None).unwrap();
        // Bag semantics: same language, different key.
        let bag = Rpq::parse("ax*b").unwrap().with_bag_semantics();
        assert!(!cache.get_or_prepare(&engine, &bag, None).unwrap().hit);
        // Different plan-relevant option: different key.
        let small_limit = Engine::with_options(SolveOptions { enumeration_limit: 4 });
        assert!(!cache.get_or_prepare(&small_limit, &q, None).unwrap().hit);
        // Forced algorithm: different key.
        assert!(!cache.get_or_prepare(&engine, &q, Some(Algorithm::Local)).unwrap().hit);
        // And each of those now hits.
        assert!(cache.get_or_prepare(&engine, &q, None).unwrap().hit);
        assert!(cache.get_or_prepare(&small_limit, &q, None).unwrap().hit);
        assert_eq!(cache.stats().entries, 4);
    }

    #[test]
    fn sharding_clamps_and_reports_its_stripe_count() {
        // Tiny capacities collapse to one stripe (exact global LRU).
        assert_eq!(QueryCache::new(2).stats().shards, 1);
        assert_eq!(QueryCache::with_shards(2, 16).stats().shards, 1);
        // Every stripe keeps at least MIN_STRIPE_CAPACITY slots.
        assert_eq!(QueryCache::with_shards(16, 16).stats().shards, 16 / MIN_STRIPE_CAPACITY);
        // The default server configuration really is striped.
        let default = QueryCache::new(256).stats();
        assert_eq!(default.shards, DEFAULT_SHARDS);
        assert_eq!(default.capacity, 256);
    }

    #[test]
    fn striped_cache_spreads_languages_and_aggregates_stats() {
        let (cache, engine) = cache_and_engine(64); // 8 stripes by default
        let patterns = ["a", "b", "c", "ab", "ax*b", "ab|bc", "abc|be", "ba"];
        for pattern in patterns {
            assert!(
                !cache.get_or_prepare(&engine, &Rpq::parse(pattern).unwrap(), None).unwrap().hit
            );
        }
        // Entries are summed over all stripes; every language now hits.
        assert_eq!(cache.stats().entries, patterns.len());
        for pattern in patterns {
            assert!(
                cache.get_or_prepare(&engine, &Rpq::parse(pattern).unwrap(), None).unwrap().hit
            );
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (patterns.len() as u64, patterns.len() as u64));
        // At least two distinct stripes are populated (fingerprints spread).
        let distinct: std::collections::BTreeSet<u64> = patterns
            .iter()
            .map(|p| {
                let lookup = cache.get_or_prepare(&engine, &Rpq::parse(p).unwrap(), None).unwrap();
                lookup.fingerprint % stats.shards as u64
            })
            .collect();
        assert!(distinct.len() > 1, "fingerprints must spread over stripes: {distinct:?}");
    }

    #[test]
    fn concurrent_hits_on_distinct_stripes_share_plans() {
        let cache = std::sync::Arc::new(QueryCache::new(64));
        let patterns = ["a", "b", "ax*b", "ab|bc"];
        let mut handles = Vec::new();
        for &pattern in &patterns {
            for _ in 0..3 {
                let cache = std::sync::Arc::clone(&cache);
                handles.push(std::thread::spawn(move || {
                    let engine = Engine::new();
                    let rpq = Rpq::parse(pattern).unwrap();
                    let lookup = cache.get_or_prepare(&engine, &rpq, None).unwrap();
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
        // Capacity 2 collapses to a single stripe: exact global LRU.
        let (cache, engine) = cache_and_engine(2);
        cache.get_or_prepare(&engine, &Rpq::parse("a").unwrap(), None).unwrap();
        cache.get_or_prepare(&engine, &Rpq::parse("b").unwrap(), None).unwrap();
        // Touch `a` so `b` is the LRU entry.
        assert!(cache.get_or_prepare(&engine, &Rpq::parse("a").unwrap(), None).unwrap().hit);
        cache.get_or_prepare(&engine, &Rpq::parse("c").unwrap(), None).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
        // `a` survived, `b` was evicted.
        assert!(cache.get_or_prepare(&engine, &Rpq::parse("a").unwrap(), None).unwrap().hit);
        assert!(!cache.get_or_prepare(&engine, &Rpq::parse("b").unwrap(), None).unwrap().hit);
    }

    #[test]
    fn prepare_errors_are_not_cached() {
        // `aa` is not local, so forcing Theorem 3.13 fails to prepare.
        let engine = Engine::new();
        let cache = QueryCache::new(4);
        let q = Rpq::parse("aa").unwrap();
        let local = Some(Algorithm::Local);
        assert!(cache.get_or_prepare(&engine, &q, local).is_err());
        assert!(cache.get_or_prepare(&engine, &q, local).is_err());
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.misses), (0, 2));
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
        // Two stripes of four plans: at most 2 × 4 × SPELLINGS_PER_PLAN
        // spellings.
        let (cache, engine) = (QueryCache::with_shards(8, 2), Engine::new());
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
        // The alias of the evicted `a` keeps neither its plan nor its key.
        assert!(first_plan.upgrade().is_none());
        assert!(!by_text(&cache, &engine, "a", false, None).hit);
    }
}
