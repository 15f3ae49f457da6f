//! The language-keyed prepared-query cache.
//!
//! Preparing a query ([`Engine::prepare`]) runs the full query-only analysis
//! — infix-free sublanguage, ε-check, locality RO-εNFA, chain / one-dangling
//! decompositions — which dominates small-batch latency (see the
//! `prepared_vs_unprepared` benchmark). [`QueryCache`] memoizes
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

use rpq_obs::Trace;
use rpq_resilience::algorithms::{Algorithm, ResilienceError};
use rpq_resilience::engine::{Engine, PreparedQuery, SolveOptions};
use rpq_resilience::rpq::{Rpq, Semantics};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

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

struct Entry {
    prepared: Arc<PreparedQuery>,
    last_used: u64,
}

struct Inner {
    entries: HashMap<CacheKey, Entry>,
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

/// A thread-safe, lock-striped LRU cache of [`PreparedQuery`] plans keyed by
/// canonicalized query language (plus semantics and options). See the module
/// docs for the keying and sharding rules.
pub struct QueryCache {
    capacity: usize,
    stripe_capacity: usize,
    stripes: Vec<Mutex<Inner>>,
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
                .map(|_| Mutex::new(Inner { entries: HashMap::new(), tick: 0 }))
                .collect(),
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
        self.get_or_prepare_traced(engine, rpq, forced, &mut Trace::disabled())
    }

    /// [`QueryCache::get_or_prepare`] with phase tracing: a hit records one
    /// `cache_lookup` span (canonicalization plus the stripe probe); a miss
    /// records the engine's own `canonicalize`/`classify`/`plan` spans (or a
    /// single `plan` span when the algorithm is forced, since forced plans
    /// skip classification).
    pub fn get_or_prepare_traced(
        &self,
        engine: &Engine,
        rpq: &Rpq,
        forced: Option<Algorithm>,
        trace: &mut Trace,
    ) -> Result<CacheLookup, ResilienceError> {
        let lookup_timer = trace.begin();
        let key = CacheKey::new(rpq, engine.options(), forced);
        let fingerprint = rpq_automata::Language::fingerprint_of_canonical_form(&key.canonical);
        if let Some(prepared) = self.lookup(fingerprint, &key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            trace.end(lookup_timer, "cache_lookup");
            return Ok(CacheLookup { prepared, hit: true, fingerprint });
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
        Ok(CacheLookup {
            prepared: self.insert(fingerprint, key, prepared),
            hit: false,
            fingerprint,
        })
    }

    fn lookup(&self, fingerprint: u64, key: &CacheKey) -> Option<Arc<PreparedQuery>> {
        // A poisoned stripe still holds a structurally valid map (every
        // mutation below is panic-free), so recover instead of unwinding.
        let mut inner = self.stripe(fingerprint).lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.get_mut(key).map(|entry| {
            entry.last_used = tick;
            Arc::clone(&entry.prepared)
        })
    }

    fn insert(
        &self,
        fingerprint: u64,
        key: CacheKey,
        prepared: Arc<PreparedQuery>,
    ) -> Arc<PreparedQuery> {
        let mut inner = self.stripe(fingerprint).lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(existing) = inner.entries.get_mut(&key) {
            // Another thread prepared the same language concurrently; keep
            // the incumbent so every caller shares one plan.
            existing.last_used = tick;
            return Arc::clone(&existing.prepared);
        }
        while inner.entries.len() >= self.stripe_capacity {
            let oldest =
                inner.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone());
            let Some(oldest) = oldest else { break };
            inner.entries.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        inner.entries.insert(key, Entry { prepared: Arc::clone(&prepared), last_used: tick });
        prepared
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
}
