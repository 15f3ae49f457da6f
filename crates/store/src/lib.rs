//! # `rpq-store`: server-hosted snapshot databases with incremental solves
//!
//! `rpq-server`'s original protocol ships the whole database inside every
//! request — fine for one-shot experiments, hopeless for the monitoring
//! workload the resilience-under-updates story needs (solve after every small
//! edit). This crate hosts **named databases** server-side:
//!
//! * a database is an **append-only log** of [`FactChange`] entries
//!   ([`rpq_graphdb::delta`]); `db_put` seeds the log from a full database
//!   text, `db_patch` appends parsed changes;
//! * a **snapshot is a log offset** — taking one is O(1), every snapshot is
//!   immutable by construction, and `db_snapshot` merely names an offset so
//!   it can be referred to (and pinned) later;
//! * concrete [`GraphDb`] **materializations are derived state**, built
//!   lazily per requested snapshot and cached with LRU eviction — *named*
//!   snapshots and each database's head are pinned, unnamed historical
//!   materializations are evicted first. Each database keeps a replay index
//!   ([`Replay`]) at the latest offset it materialized, so a new head costs
//!   an O(Δ) replay of the entries appended since plus one build of the
//!   head, while an older snapshot replays its log prefix from offset 0.
//!   Both number nodes and facts exactly as [`materialize`] does: the result
//!   cache keeps `FactId`s per offset and renders them against whichever
//!   materialization of that offset exists when it hits;
//! * `db_solve` binds a query to `(name, snapshot)` and reuses the
//!   [`IncrementalSolver`] retained per database: consecutive solves at
//!   advancing snapshots hand the engine exactly the fact delta between
//!   them, so the flow network is patched and the min-cut warm-started
//!   instead of rebuilt (see `rpq_resilience::engine`'s incremental path).
//!
//! The store is thread-safe: a short-lived registry lock hands out per-
//! database handles, and each database serializes its own operations, so
//! solves on different databases run concurrently. Lock order is always
//! registry → database, never the reverse.

#![forbid(unsafe_code)]
use rpq_graphdb::delta::{changes_from_db, materialize, parse_patch, FactChange, Replay};
use rpq_graphdb::text::{self, ParseError};
use rpq_graphdb::GraphDb;
use rpq_obs::Trace;
use rpq_resilience::algorithms::{Algorithm, ResilienceError, ResilienceOutcome};
use rpq_resilience::engine::{IncrementalSolver, LogPosition, PreparedQuery, SolveCall, SolveMode};
use rpq_resilience::router::TieredOutcome;
use rpq_resilience::rpq::Semantics;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Configuration of a [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// The maximum number of hosted databases (`db_put` of a *new* name past
    /// this fails with [`StoreError::StoreFull`]) — also the budget of cached
    /// materializations across the store, above which unpinned ones are
    /// evicted LRU-first.
    pub capacity: usize,
    /// The maximum `db_put` / `db_patch` body size in bytes; larger bodies
    /// fail with [`StoreError::BodyTooLarge`] before parsing.
    pub max_body_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig { capacity: 64, max_body_bytes: 8 * 1024 * 1024 }
    }
}

/// A reference to a snapshot of a hosted database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotRef {
    /// The database's current head (its log length).
    Head,
    /// An explicit log offset, as returned by `db_put` / `db_patch`.
    Offset(usize),
    /// A name registered via `db_snapshot`.
    Named(String),
}

/// Errors raised by store operations. [`StoreError::code`] gives the stable
/// machine-readable error code the wire protocol attaches to each of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The store already hosts `capacity` databases.
    StoreFull {
        /// The configured database capacity.
        capacity: usize,
    },
    /// A `db_put` / `db_patch` body exceeded the configured size limit.
    BodyTooLarge {
        /// The offending body size.
        bytes: usize,
        /// The configured limit.
        limit: usize,
    },
    /// No database of this name is hosted.
    UnknownDatabase {
        /// The requested name.
        name: String,
    },
    /// The snapshot reference does not resolve on this database.
    UnknownSnapshot {
        /// The database the reference was resolved against.
        database: String,
        /// A rendering of the offending reference (offset or name).
        snapshot: String,
    },
    /// A database or patch body failed to parse.
    Parse(ParseError),
}

impl StoreError {
    /// The stable machine-readable error code (`"code"` on the wire).
    pub fn code(&self) -> &'static str {
        match self {
            StoreError::StoreFull { .. } => "store_full",
            StoreError::BodyTooLarge { .. } => "body_too_large",
            StoreError::UnknownDatabase { .. } => "unknown_database",
            StoreError::UnknownSnapshot { .. } => "unknown_snapshot",
            StoreError::Parse(_) => "parse",
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::StoreFull { capacity } => {
                write!(f, "the store already hosts {capacity} databases")
            }
            StoreError::BodyTooLarge { bytes, limit } => {
                write!(f, "body of {bytes} bytes exceeds the {limit}-byte limit")
            }
            StoreError::UnknownDatabase { name } => write!(f, "unknown database {name:?}"),
            StoreError::UnknownSnapshot { database, snapshot } => {
                write!(f, "unknown snapshot {snapshot:?} of database {database:?}")
            }
            StoreError::Parse(e) => write!(f, "parse error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ParseError> for StoreError {
    fn from(e: ParseError) -> Self {
        StoreError::Parse(e)
    }
}

/// The incremental-solve state one database retains between `db_solve`s.
struct SolveSession {
    /// The plan the retained state was built under; compared by pointer
    /// identity, so a plan evicted and re-prepared by the server's query
    /// cache simply forces a (correct) full rebuild.
    plan: Arc<PreparedQuery>,
    /// The snapshot the retained flow network describes.
    offset: usize,
    /// The engine-side retained network + flow.
    solver: IncrementalSolver,
}

/// A cached materialization of one snapshot.
struct Materialization {
    offset: usize,
    graph: Arc<GraphDb>,
    last_used: u64,
}

/// One entry of the cross-snapshot result cache: a fully solved outcome at a
/// pinned log offset. Snapshots are immutable (offsets never change meaning
/// under `db_patch`), so an entry stays valid until `db_put` rewrites the
/// whole log. Keyed semantically — by the *language fingerprint* rather than
/// the plan pointer — so a plan evicted and re-prepared by the server's query
/// cache still hits.
struct CachedResult {
    /// [`rpq_automata::Language::language_fingerprint`] of the solved query.
    fingerprint: u64,
    /// The query's cost semantics (set vs bag) — same language, different
    /// resilience values.
    semantics: Semantics,
    /// The planned backend; a forced-algorithm override must not reuse
    /// another backend's answer (their witnesses, bounds and errors differ).
    algorithm: Algorithm,
    /// The log offset the solve bound to.
    offset: usize,
    /// Whether the outcome carries the contingency-set witness; a cut-less
    /// entry is upgraded in place when a `want_cut` solve recomputes it.
    has_cut: bool,
    /// The cached engine outcome.
    outcome: ResilienceOutcome,
    /// The solve mode of the original computation (reported on hits).
    mode: SolveMode,
    last_used: u64,
}

/// Per-database cap on cached results, evicted LRU past this.
const RESULT_CACHE_CAP: usize = 128;

/// One hosted database: the append-only fact log plus derived state.
#[derive(Default)]
struct Database {
    log: Vec<FactChange>,
    /// Summed [`FactChange::log_bytes`] of the log.
    log_bytes: usize,
    /// Named snapshots (name → pinned offset).
    named: BTreeMap<String, usize>,
    /// Cached materializations, at most one per offset.
    materialized: Vec<Materialization>,
    /// The replay index: `log[..replayed]` replayed, ready to be extended
    /// by the entries since and built into a head materialization.
    replay: Replay,
    replayed: usize,
    /// Cross-snapshot result cache (see [`CachedResult`]).
    results: Vec<CachedResult>,
    session: Option<SolveSession>,
    /// The identity of the log: the tick of the `db_put` that wrote it,
    /// unique across the store. Incremental solves name their snapshot by
    /// it, so the engine never patches a network from another log. The
    /// store keeps that lineage by construction already — `put` drops the
    /// session, and a session's delta is always `log[session offset..]` —
    /// so the engine's check never rejects a delta the store sends; it
    /// makes the contract checked rather than trusted.
    generation: u64,
}

impl Database {
    fn resolve(&self, db_name: &str, snapshot: &SnapshotRef) -> Result<usize, StoreError> {
        match snapshot {
            SnapshotRef::Head => Ok(self.log.len()),
            SnapshotRef::Offset(o) if *o <= self.log.len() => Ok(*o),
            SnapshotRef::Offset(o) => Err(StoreError::UnknownSnapshot {
                database: db_name.to_string(),
                snapshot: o.to_string(),
            }),
            SnapshotRef::Named(n) => self.named.get(n).copied().ok_or_else(|| {
                StoreError::UnknownSnapshot { database: db_name.to_string(), snapshot: n.clone() }
            }),
        }
    }

    /// Returns the (cached) materialization at `offset`, and whether this
    /// call had to build it (a cache miss — counted by the store). An offset
    /// at or past the replay index's frontier is built from the index,
    /// extended by the entries since; an older one replays its log prefix.
    fn materialize_at(&mut self, offset: usize, tick: u64) -> (Arc<GraphDb>, bool) {
        if let Some(m) = self.materialized.iter_mut().find(|m| m.offset == offset) {
            m.last_used = tick;
            return (Arc::clone(&m.graph), false);
        }
        let graph = Arc::new(if offset >= self.replayed {
            self.replay_to(offset);
            self.replay.build()
        } else {
            // lint: allow(panic-freedom, resolve checks every offset against the log length)
            materialize(&self.log[..offset])
        });
        self.materialized.push(Materialization {
            offset,
            graph: Arc::clone(&graph),
            last_used: tick,
        });
        (graph, true)
    }

    /// Extends the replay index from its frontier to `offset` (at or past
    /// it). The index is taken out while it extends, so a panic leaves an
    /// empty index at frontier 0 rather than a half-applied one.
    fn replay_to(&mut self, offset: usize) {
        let mut replay = std::mem::take(&mut self.replay);
        let from = std::mem::take(&mut self.replayed);
        // lint: allow(panic-freedom, callers pass offsets from the frontier up to the log length)
        replay.extend(&self.log[from..offset]);
        self.replay = replay;
        self.replayed = offset;
    }

    /// The number of facts alive at the head: read from its cached
    /// materialization, or from the replay index brought up to the head.
    fn head_facts(&mut self) -> usize {
        let head = self.log.len();
        if let Some(m) = self.materialized.iter().find(|m| m.offset == head) {
            return m.graph.num_facts();
        }
        self.replay_to(head);
        self.replay.live_facts()
    }
}

/// Recovers a database lock that a request poisoned by panicking under it
/// (`handle.lock().unwrap_or_else(|p| recover(&handle, p))`). The panic may
/// have left the derived state half-updated: a materialization, the replay
/// index, the result cache or the retained solve session. The log and the
/// named snapshots change only by whole appends, inserts and assignments,
/// so recovery keeps them, drops the derived state (requests rebuild what
/// they need from the log) and clears the poison: a panic costs the
/// database its caches, not its service.
fn recover<'a>(
    handle: &Mutex<Database>,
    poisoned: PoisonError<MutexGuard<'a, Database>>,
) -> MutexGuard<'a, Database> {
    let mut db = poisoned.into_inner();
    db.materialized.clear();
    db.replay = Replay::default();
    db.replayed = 0;
    db.results.clear();
    db.session = None;
    db.log_bytes = db.log.iter().map(FactChange::log_bytes).sum();
    handle.clear_poison();
    db
}

/// The result of a [`Store::put`] or [`Store::patch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendResult {
    /// The snapshot id (log offset) after the operation.
    pub snapshot: usize,
    /// `put`: facts in the database; `patch`: changes appended.
    pub entries: usize,
}

/// The result of a [`Store::solve`]: per-snapshot engine errors are carried
/// *inside* (with the resolved snapshot id), so a batch over several
/// snapshots can report each failure against the snapshot that caused it.
pub struct StoreRoute {
    /// The resolved snapshot id the solve bound to.
    pub snapshot: usize,
    /// The materialized database the solve ran against.
    pub graph: Arc<GraphDb>,
    /// The routed outcome (tier, degradation, reason included), or the
    /// engine error for this snapshot.
    pub result: Result<(TieredOutcome, SolveMode), ResilienceError>,
    /// Whether the answer came from the cross-snapshot result cache (O(1),
    /// no engine work; always a full, non-degraded answer).
    pub result_cached: bool,
}

/// Per-database summary returned by [`Store::list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatabaseInfo {
    /// The database name.
    pub name: String,
    /// The head snapshot id.
    pub snapshot: usize,
    /// Facts alive at the head.
    pub facts: usize,
    /// Total log entries (including overwritten / deleted ones).
    pub log_entries: usize,
    /// Estimated heap bytes retained by the log.
    pub log_bytes: usize,
    /// Named snapshots, in name order.
    pub named: Vec<(String, usize)>,
    /// Cached materializations.
    pub materialized: usize,
}

/// Aggregate store metrics (see [`Store::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Hosted databases.
    pub databases: usize,
    /// Named snapshots across all databases.
    pub named_snapshots: usize,
    /// Cached materializations across all databases.
    pub materialized: usize,
    /// Log entries across all databases.
    pub log_entries: usize,
    /// Estimated log heap bytes across all databases.
    pub log_bytes: usize,
    /// `db_solve`s answered by the incremental (patch + warm-start) path.
    pub incremental_solves: u64,
    /// `db_solve`s answered by a full build.
    pub full_solves: u64,
    /// Snapshot materializations built from the log (cache misses).
    pub materializations: u64,
    /// Materializations evicted to respect the capacity.
    pub evictions: u64,
    /// `db_solve`s answered by the cross-snapshot result cache.
    pub result_hits: u64,
    /// `db_solve`s that had to run the engine (the cache could not answer).
    pub result_misses: u64,
    /// The configured database / materialization capacity.
    pub capacity: usize,
    /// The configured body-size limit.
    pub max_body_bytes: usize,
}

/// A thread-safe registry of named snapshot databases (see the
/// [module docs](self)).
pub struct Store {
    config: StoreConfig,
    databases: Mutex<HashMap<String, Arc<Mutex<Database>>>>,
    tick: AtomicU64,
    incremental_solves: AtomicU64,
    full_solves: AtomicU64,
    materializations: AtomicU64,
    evictions: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
}

impl Store {
    /// An empty store.
    pub fn new(config: StoreConfig) -> Store {
        Store {
            config,
            databases: Mutex::new(HashMap::new()),
            tick: AtomicU64::new(0),
            incremental_solves: AtomicU64::new(0),
            full_solves: AtomicU64::new(0),
            materializations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            result_hits: AtomicU64::new(0),
            result_misses: AtomicU64::new(0),
        }
    }

    /// The store's configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    fn next_tick(&self) -> u64 {
        // Ticks only order LRU stamps; uniqueness comes from the atomic RMW
        // itself and cross-thread visibility rides the database locks.
        // lint: allow(relaxed-ok, ticks are LRU stamps with no synchronization role)
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn database(&self, name: &str) -> Result<Arc<Mutex<Database>>, StoreError> {
        // The registry map itself stays valid across a poisoning panic
        // (insert/remove of Arc handles cannot leave it half-updated), so
        // recover rather than fail every subsequent request.
        self.databases
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .map(Arc::clone)
            .ok_or_else(|| StoreError::UnknownDatabase { name: name.to_string() })
    }

    fn check_body(&self, bytes: usize) -> Result<(), StoreError> {
        if bytes > self.config.max_body_bytes {
            return Err(StoreError::BodyTooLarge { bytes, limit: self.config.max_body_bytes });
        }
        Ok(())
    }

    /// Creates (or fully replaces) the database `name` from a database text
    /// body, seeding a fresh log of `Put` entries. Replacing drops named
    /// snapshots, cached materializations and any retained solve state.
    pub fn put(&self, name: &str, body: &str) -> Result<AppendResult, StoreError> {
        self.check_body(body.len())?;
        let graph = text::parse(body)?;
        let log = changes_from_db(&graph);
        let handle = {
            let mut registry = self.databases.lock().unwrap_or_else(PoisonError::into_inner);
            if !registry.contains_key(name) && registry.len() >= self.config.capacity {
                return Err(StoreError::StoreFull { capacity: self.config.capacity });
            }
            Arc::clone(registry.entry(name.to_string()).or_default())
        };
        let tick = self.next_tick();
        let facts = graph.num_facts();
        let snapshot = log.len();
        {
            let mut db = handle.lock().unwrap_or_else(|poisoned| recover(&handle, poisoned));
            db.log_bytes = log.iter().map(FactChange::log_bytes).sum();
            db.log = log;
            db.named.clear();
            db.materialized =
                vec![Materialization { offset: snapshot, graph: Arc::new(graph), last_used: tick }];
            // A put rewrites the log, so old offsets no longer mean the same
            // snapshots: cached results and the replay index are stale.
            db.results.clear();
            db.replay = Replay::default();
            db.replayed = 0;
            db.session = None;
            db.generation = tick;
        }
        self.evict_materializations();
        Ok(AppendResult { snapshot, entries: facts })
    }

    /// Appends a parsed patch body to `name`'s log, returning the new head
    /// snapshot. Existing snapshots (named or not) are unaffected — they
    /// simply keep pointing below the new head.
    pub fn patch(&self, name: &str, body: &str) -> Result<AppendResult, StoreError> {
        self.check_body(body.len())?;
        let changes = parse_patch(body)?;
        let handle = self.database(name)?;
        let mut db = handle.lock().unwrap_or_else(|poisoned| recover(&handle, poisoned));
        db.log_bytes += changes.iter().map(FactChange::log_bytes).sum::<usize>();
        let applied = changes.len();
        db.log.extend(changes);
        Ok(AppendResult { snapshot: db.log.len(), entries: applied })
    }

    /// Names the snapshot `at` (default: the current head) of database
    /// `name`, pinning its materialization against eviction. Returns the
    /// pinned offset. Re-registering an existing snapshot name repoints it.
    pub fn snapshot(
        &self,
        name: &str,
        snapshot_name: &str,
        at: Option<SnapshotRef>,
    ) -> Result<usize, StoreError> {
        let handle = self.database(name)?;
        let mut db = handle.lock().unwrap_or_else(|poisoned| recover(&handle, poisoned));
        let offset = db.resolve(name, &at.unwrap_or(SnapshotRef::Head))?;
        db.named.insert(snapshot_name.to_string(), offset);
        Ok(offset)
    }

    /// Resolves and materializes a snapshot of `name`, returning the
    /// resolved offset and the (cached) concrete database.
    pub fn materialize(
        &self,
        name: &str,
        snapshot: &SnapshotRef,
    ) -> Result<(usize, Arc<GraphDb>), StoreError> {
        let handle = self.database(name)?;
        let tick = self.next_tick();
        let (offset, graph, built) = {
            let mut db = handle.lock().unwrap_or_else(|poisoned| recover(&handle, poisoned));
            let offset = db.resolve(name, snapshot)?;
            let (graph, built) = db.materialize_at(offset, tick);
            (offset, graph, built)
        };
        if built {
            self.materializations.fetch_add(1, Ordering::Relaxed);
        }
        self.evict_materializations();
        Ok((offset, graph))
    }

    /// Solves `prepared` against one snapshot of `name` under `call`'s
    /// budget (see [`rpq_resilience::router`]), riding the database's
    /// retained incremental state when the solve continues the same plan at
    /// the same or a later snapshot, with the cross-snapshot result cache in
    /// front of the engine. Engine errors come back *inside* the
    /// [`StoreRoute`] together with the resolved snapshot id; only
    /// store-level problems (unknown database / snapshot) are `Err`. When
    /// `trace` is enabled, snapshot resolution + materialization is recorded
    /// as a `materialize` span and the engine records its own solve phases.
    ///
    /// `fingerprint` is the query's
    /// [`language_fingerprint`](rpq_automata::Language::language_fingerprint)
    /// — callers that already canonicalized the language (the server's query
    /// cache) pass it in so the store never re-minimizes. Cache entries are
    /// keyed by `(fingerprint, semantics, algorithm, offset)`:
    /// snapshots are immutable, so a repeated `db_solve` of a pinned snapshot
    /// answers in O(1) from the cache, whatever the budget (a hit always
    /// satisfies any deadline and is never degraded). Only full-fidelity
    /// (non-degraded) outcomes are cached; degraded bounds depend on the
    /// caller's budget and are recomputed per request.
    pub fn solve(
        &self,
        name: &str,
        snapshot: &SnapshotRef,
        prepared: &Arc<PreparedQuery>,
        fingerprint: u64,
        call: &SolveCall,
        trace: &mut Trace,
    ) -> Result<StoreRoute, StoreError> {
        let want_cut = call.want_cut;
        let handle = self.database(name)?;
        let tick = self.next_tick();
        let planned = prepared.plan().algorithm;
        let semantics = prepared.rpq().semantics();
        let (offset, graph, built, result) = {
            let materialize_timer = trace.begin();
            let mut db = handle.lock().unwrap_or_else(|poisoned| recover(&handle, poisoned));
            let offset = db.resolve(name, snapshot)?;
            let (graph, built) = db.materialize_at(offset, tick);
            trace.end(materialize_timer, "materialize");
            if let Some(entry) = db.results.iter_mut().find(|r| {
                r.fingerprint == fingerprint
                    && r.semantics == semantics
                    && r.algorithm == planned
                    && r.offset == offset
                    && (r.has_cut || !want_cut)
            }) {
                entry.last_used = tick;
                let mut outcome = entry.outcome.clone();
                if !want_cut {
                    outcome.contingency_set = None;
                }
                let tiered = TieredOutcome {
                    tier: outcome.tier(),
                    outcome,
                    planned,
                    degraded: false,
                    shed: false,
                    reason: "cross-snapshot result cache hit".to_string(),
                    estimated_cost_us: 0,
                };
                let mode = entry.mode;
                self.result_hits.fetch_add(1, Ordering::Relaxed);
                if built {
                    self.materializations.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(StoreRoute {
                    snapshot: offset,
                    graph,
                    result: Ok((tiered, mode)),
                    result_cached: true,
                });
            }
            self.result_misses.fetch_add(1, Ordering::Relaxed);
            let Database { log, session, results, generation, .. } = &mut *db;
            let result = match session {
                Some(s) if Arc::ptr_eq(&s.plan, prepared) && s.offset <= offset => {
                    // lint: allow(panic-freedom, session offsets never pass the resolve-checked head)
                    let delta = Some(&log[s.offset..offset]);
                    let at = LogPosition { log: *generation, offset };
                    // lint: allow(lock-discipline, solves serialize per database under its own lock by design)
                    let result = prepared.route_incremental_at(
                        &mut s.solver,
                        at,
                        &graph,
                        delta,
                        call,
                        trace,
                    );
                    // A degraded answer leaves the retained flow parked at
                    // its old frontier — do not advance past facts the
                    // network never saw.
                    if matches!(&result, Ok((t, _)) if !t.degraded) {
                        s.offset = offset;
                    }
                    result
                }
                Some(s) if Arc::ptr_eq(&s.plan, prepared) => {
                    // A solve *behind* the session's frontier (an old
                    // snapshot): answer one-shot, keep the retained state
                    // parked at its frontier for the next forward solve.
                    // lint: allow(lock-discipline, solves serialize per database under its own lock by design)
                    prepared.route(&graph, call, trace).map(|t| (t, SolveMode::Full))
                }
                _ => {
                    let mut s = SolveSession {
                        plan: Arc::clone(prepared),
                        offset,
                        solver: IncrementalSolver::new(),
                    };
                    let (solver, at) = (&mut s.solver, LogPosition { log: *generation, offset });
                    // lint: allow(lock-discipline, solves serialize per database under its own lock by design)
                    let out = prepared.route_incremental_at(solver, at, &graph, None, call, trace);
                    *session = Some(s);
                    out
                }
            };
            if let Ok((tiered, mode)) = &result {
                if !tiered.degraded {
                    // Cache (or upgrade) the full-fidelity answer for this
                    // immutable snapshot.
                    results.retain(|r| {
                        !(r.fingerprint == fingerprint
                            && r.semantics == semantics
                            && r.algorithm == planned
                            && r.offset == offset)
                    });
                    if results.len() >= RESULT_CACHE_CAP {
                        if let Some(oldest) = results
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, r)| r.last_used)
                            .map(|(i, _)| i)
                        {
                            results.swap_remove(oldest);
                        }
                    }
                    results.push(CachedResult {
                        fingerprint,
                        semantics,
                        algorithm: planned,
                        offset,
                        has_cut: want_cut,
                        outcome: tiered.outcome.clone(),
                        mode: *mode,
                        last_used: tick,
                    });
                }
            }
            (offset, graph, built, result)
        };
        if built {
            self.materializations.fetch_add(1, Ordering::Relaxed);
        }
        self.evict_materializations();
        match &result {
            Ok((_, SolveMode::Incremental)) => {
                self.incremental_solves.fetch_add(1, Ordering::Relaxed);
            }
            Ok((_, SolveMode::Full)) | Err(_) => {
                self.full_solves.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(StoreRoute { snapshot: offset, graph, result, result_cached: false })
    }

    /// Summaries of every hosted database, in name order.
    pub fn list(&self) -> Vec<DatabaseInfo> {
        let handles: Vec<(String, Arc<Mutex<Database>>)> = {
            let registry = self.databases.lock().unwrap_or_else(PoisonError::into_inner);
            registry.iter().map(|(n, h)| (n.clone(), Arc::clone(h))).collect()
        };
        let mut infos: Vec<DatabaseInfo> = handles
            .into_iter()
            .map(|(name, handle)| {
                let mut db = handle.lock().unwrap_or_else(|poisoned| recover(&handle, poisoned));
                DatabaseInfo {
                    facts: db.head_facts(),
                    name,
                    snapshot: db.log.len(),
                    log_entries: db.log.len(),
                    log_bytes: db.log_bytes,
                    named: db.named.iter().map(|(n, &o)| (n.clone(), o)).collect(),
                    materialized: db.materialized.len(),
                }
            })
            .collect();
        infos.sort_by(|a, b| a.name.cmp(&b.name));
        infos
    }

    /// Drops the database `name` (idempotent). Returns whether it existed.
    pub fn drop_database(&self, name: &str) -> bool {
        self.databases.lock().unwrap_or_else(PoisonError::into_inner).remove(name).is_some()
    }

    /// Aggregate metrics over all hosted databases.
    pub fn stats(&self) -> StoreStats {
        let infos = self.list();
        StoreStats {
            databases: infos.len(),
            named_snapshots: infos.iter().map(|i| i.named.len()).sum(),
            materialized: infos.iter().map(|i| i.materialized).sum(),
            log_entries: infos.iter().map(|i| i.log_entries).sum(),
            log_bytes: infos.iter().map(|i| i.log_bytes).sum(),
            incremental_solves: self.incremental_solves.load(Ordering::Relaxed),
            full_solves: self.full_solves.load(Ordering::Relaxed),
            materializations: self.materializations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            result_hits: self.result_hits.load(Ordering::Relaxed),
            result_misses: self.result_misses.load(Ordering::Relaxed),
            capacity: self.config.capacity,
            max_body_bytes: self.config.max_body_bytes,
        }
    }

    /// Evicts least-recently-used **unpinned** materializations until the
    /// store-wide count fits the capacity. Named snapshots and every
    /// database's head are pinned and never evicted; databases locked by
    /// concurrent operations are skipped (their caches are in use anyway).
    fn evict_materializations(&self) {
        let budget = self.config.capacity.max(1);
        loop {
            let handles: Vec<Arc<Mutex<Database>>> = {
                let registry = self.databases.lock().unwrap_or_else(PoisonError::into_inner);
                registry.values().map(Arc::clone).collect()
            };
            let mut total = 0usize;
            let mut victim: Option<(Arc<Mutex<Database>>, usize, u64)> = None;
            for handle in &handles {
                let Ok(db) = handle.try_lock() else { continue };
                let head = db.log.len();
                for m in &db.materialized {
                    total += 1;
                    let pinned = m.offset == head || db.named.values().any(|&o| o == m.offset);
                    if !pinned && victim.as_ref().is_none_or(|v| m.last_used < v.2) {
                        victim = Some((Arc::clone(handle), m.offset, m.last_used));
                    }
                }
            }
            if total <= budget {
                return;
            }
            let Some((handle, offset, _)) = victim else { return };
            let Ok(mut db) = handle.try_lock() else { return };
            let before = db.materialized.len();
            db.materialized.retain(|m| m.offset != offset);
            if db.materialized.len() < before {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            } else {
                return; // raced with a drop; avoid spinning
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rpq_graphdb::Fact;
    use rpq_resilience::engine::Engine;
    use rpq_resilience::router::RouteBudget;
    use rpq_resilience::rpq::{ResilienceValue, Rpq};

    fn prepared(pattern: &str) -> Arc<PreparedQuery> {
        Arc::new(Engine::new().prepare(&Rpq::parse(pattern).unwrap()).unwrap())
    }

    /// An untraced [`Store::solve`] under `call`.
    fn routed(
        store: &Store,
        name: &str,
        at: &SnapshotRef,
        plan: &Arc<PreparedQuery>,
        call: &SolveCall,
    ) -> StoreRoute {
        let fingerprint = plan.rpq().language().language_fingerprint();
        store.solve(name, at, plan, fingerprint, call, &mut Trace::disabled()).unwrap()
    }

    /// An unbudgeted solve, unwrapped to its outcome and mode.
    fn solve(
        store: &Store,
        name: &str,
        at: &SnapshotRef,
        plan: &Arc<PreparedQuery>,
        want_cut: bool,
    ) -> (ResilienceOutcome, SolveMode) {
        let (tiered, mode) =
            routed(store, name, at, plan, &SolveCall::new(want_cut)).result.unwrap();
        (tiered.outcome, mode)
    }

    fn value(store: &Store, name: &str, at: SnapshotRef, plan: &Arc<PreparedQuery>) -> u128 {
        match solve(store, name, &at, plan, false).0.value {
            ResilienceValue::Finite(v) => v,
            ResilienceValue::Infinite => u128::MAX,
        }
    }

    #[test]
    fn put_patch_snapshot_solve_round_trip() {
        let store = Store::new(StoreConfig::default());
        let plan = prepared("ax*b");
        let put = store.put("g", "s a u\nu x v\nv b t\n").unwrap();
        assert_eq!((put.snapshot, put.entries), (3, 3));
        store.snapshot("g", "before", None).unwrap();
        assert_eq!(value(&store, "g", SnapshotRef::Head, &plan), 1);

        let patched = store.patch("g", "+ u x w\n+ w b t\n").unwrap();
        assert_eq!((patched.snapshot, patched.entries), (5, 2));
        // Two disjoint x-paths now: resilience 1 still (cut `s a u`)… verify
        // against both the head and the historical snapshots.
        assert_eq!(value(&store, "g", SnapshotRef::Head, &plan), 1);
        let removed = store.patch("g", "- s a u\n").unwrap();
        assert_eq!(removed.snapshot, 6);
        assert_eq!(value(&store, "g", SnapshotRef::Head, &plan), 0);
        // Historical snapshots still answer with their own value.
        assert_eq!(value(&store, "g", SnapshotRef::Named("before".into()), &plan), 1);
        assert_eq!(value(&store, "g", SnapshotRef::Offset(3), &plan), 1);
        assert_eq!(value(&store, "g", SnapshotRef::Head, &plan), 0);

        // The forward solves after the first ride the incremental path.
        let stats = store.stats();
        assert!(stats.incremental_solves >= 2, "{stats:?}");
        assert!(stats.full_solves >= 1);
    }

    #[test]
    fn incremental_sessions_survive_across_patches() {
        let store = Store::new(StoreConfig::default());
        let plan = prepared("ax*b");
        store.put("g", "s a u\nu x v\nv b t\n").unwrap();
        assert_eq!(value(&store, "g", SnapshotRef::Head, &plan), 1);
        let full_after_first = store.stats().full_solves;
        for i in 0..10 {
            store.patch("g", &format!("+ u x m{i}\n+ m{i} b t\n")).unwrap();
            assert_eq!(value(&store, "g", SnapshotRef::Head, &plan), 1);
        }
        let stats = store.stats();
        assert_eq!(stats.full_solves, full_after_first, "patch solves must stay incremental");
        assert_eq!(stats.incremental_solves, 10);
        // A different plan replaces the session (full solve), then resumes
        // incrementally.
        let other = prepared("ab|ad");
        solve(&store, "g", &SnapshotRef::Head, &other, false);
        store.patch("g", "+ s a z\n").unwrap();
        assert_eq!(solve(&store, "g", &SnapshotRef::Head, &other, false).1, SolveMode::Incremental);
    }

    #[test]
    fn a_panic_under_a_database_lock_costs_its_caches_not_its_service() {
        let store = Store::new(StoreConfig::default());
        let plan = prepared("ax*b");
        store.put("g", "s a u\nu x v\nv b t\n").unwrap();
        store.snapshot("g", "pin", None).unwrap();
        assert_eq!(value(&store, "g", SnapshotRef::Head, &plan), 1);
        store.patch("g", "+ s a w\n+ w b t\n").unwrap();
        assert_eq!(value(&store, "g", SnapshotRef::Head, &plan), 2);
        // A request that panics while it holds the lock (a solve, say)
        // poisons it.
        let handle = store.database("g").unwrap();
        let poisoner = std::thread::spawn(move || {
            let _db = handle.lock().unwrap();
            panic!("a handler panicked under the database lock");
        });
        assert!(poisoner.join().is_err());
        assert!(store.database("g").unwrap().is_poisoned());
        // The next solve recovers: the caches are gone, so it rebuilds from
        // the log and the named snapshots keep their offsets.
        let (outcome, mode) = solve(&store, "g", &SnapshotRef::Head, &plan, true);
        assert_eq!((outcome.value, mode), (ResilienceValue::Finite(2), SolveMode::Full));
        assert!(!store.database("g").unwrap().is_poisoned());
        assert_eq!(value(&store, "g", SnapshotRef::Named("pin".into()), &plan), 1);
        let info = &store.list()[0];
        assert_eq!((info.facts, info.log_entries), (5, 5));
        // Patches resume incrementally again, and a put still replaces it.
        store.patch("g", "- s a w\n").unwrap();
        assert_eq!(solve(&store, "g", &SnapshotRef::Head, &plan, false).1, SolveMode::Incremental);
        store.put("g", "s a u\n").unwrap();
        assert_eq!(value(&store, "g", SnapshotRef::Head, &plan), 0);
    }

    #[test]
    fn repeated_solves_of_a_pinned_snapshot_hit_the_result_cache() {
        let store = Store::new(StoreConfig::default());
        let plan = prepared("ax*b");
        store.put("g", "s a u\nu x v\nv b t\n").unwrap();
        store.snapshot("g", "pin", None).unwrap();
        let pin = SnapshotRef::Named("pin".into());
        assert_eq!(value(&store, "g", pin.clone(), &plan), 1);
        let after_miss = store.stats();
        assert_eq!((after_miss.result_hits, after_miss.result_misses), (0, 1));
        // Second solve of the same pinned snapshot: O(1) from the cache,
        // without running the engine.
        assert_eq!(value(&store, "g", pin.clone(), &plan), 1);
        let after_hit = store.stats();
        assert_eq!(after_hit.result_hits, 1);
        assert_eq!(
            after_hit.incremental_solves + after_hit.full_solves,
            after_miss.incremental_solves + after_miss.full_solves,
            "a result-cache hit must not run a solve"
        );
        // The key is semantic (language fingerprint), not the plan pointer:
        // a re-prepared plan for the same language still hits.
        let replanned = prepared("ax*b");
        assert_eq!(value(&store, "g", pin.clone(), &replanned), 1);
        assert_eq!(store.stats().result_hits, 2);
        // A different language is a different key.
        let other = prepared("ab|ad");
        assert!(routed(&store, "g", &pin, &other, &SolveCall::new(false)).result.is_ok());
        assert_eq!(store.stats().result_misses, 2);
        // `db_put` rewrites the log, so every cached result is dropped.
        store.put("g", "s a u\nu b t\n").unwrap();
        let misses_before = store.stats().result_misses;
        assert_eq!(value(&store, "g", SnapshotRef::Head, &plan), 1);
        assert_eq!(store.stats().result_misses, misses_before + 1);
    }

    #[test]
    fn result_cache_entries_upgrade_to_carry_cuts() {
        let store = Store::new(StoreConfig::default());
        let plan = prepared("ax*b");
        store.put("g", "s a u\nu x v\nv b t\n").unwrap();
        // Cached without a cut: a want_cut solve must recompute…
        let head = SnapshotRef::Head;
        assert!(solve(&store, "g", &head, &plan, false).0.contingency_set.is_none());
        assert!(solve(&store, "g", &head, &plan, true).0.contingency_set.is_some());
        assert_eq!(store.stats().result_misses, 2);
        // …after which the upgraded entry serves both shapes from the cache.
        assert!(solve(&store, "g", &head, &plan, true).0.contingency_set.is_some());
        assert!(solve(&store, "g", &head, &plan, false).0.contingency_set.is_none());
        assert_eq!(store.stats().result_hits, 2);
    }

    #[test]
    fn degraded_routed_solves_are_not_cached_and_report_their_tier() {
        let store = Store::new(StoreConfig::default());
        let plan = prepared("ax*b");
        store.put("g", "s a u\nu x v\nv b t\n").unwrap();
        // A zero-microsecond budget cannot fit any backend: the store must
        // still answer, with certified bounds and the degradation reported.
        let call =
            SolveCall { budget: RouteBudget::with_cost_budget_us(0), ..SolveCall::new(false) };
        let route = routed(&store, "g", &SnapshotRef::Head, &plan, &call);
        let (tiered, _) = route.result.unwrap();
        assert!(tiered.degraded);
        assert_eq!(tiered.tier, "approx");
        assert!(!route.result_cached);
        // Degraded answers are budget-dependent: they must not poison the
        // cache for an unlimited caller.
        let (outcome, _) = solve(&store, "g", &SnapshotRef::Head, &plan, false);
        assert_eq!(outcome.value, ResilienceValue::Finite(1));
        assert_eq!(store.stats().result_hits, 0);
        // And the unlimited answer is cached as usual.
        assert_eq!(value(&store, "g", SnapshotRef::Head, &plan), 1);
        assert_eq!(store.stats().result_hits, 1);
    }

    #[test]
    fn body_limits_and_capacity_are_enforced_with_codes() {
        let store = Store::new(StoreConfig { capacity: 1, max_body_bytes: 16 });
        let err = store.put("g", "a b c # a long oversized body\n").unwrap_err();
        assert_eq!(err.code(), "body_too_large");
        store.put("g", "s a t\n").unwrap();
        let err = store.put("h", "s a t\n").unwrap_err();
        assert_eq!(err.code(), "store_full");
        assert!(err.to_string().contains("1 databases"));
        // Replacing an existing database is always allowed.
        store.put("g", "s b t\n").unwrap();
        let err = store.patch("g", "+ s a t # padded far past the body limit\n").unwrap_err();
        assert_eq!(err.code(), "body_too_large");
        let err = store.patch("nope", "+ s a t\n").unwrap_err();
        assert_eq!(err.code(), "unknown_database");
        let err = store.put("g", "not a fact line\n").unwrap_err();
        assert_eq!(err.code(), "parse");
        let err = store.patch("g", "* bad op\n").unwrap_err();
        assert_eq!(err.code(), "parse");
    }

    #[test]
    fn snapshots_resolve_and_unknown_ones_are_named_in_errors() {
        let store = Store::new(StoreConfig::default());
        store.put("g", "s a t\n").unwrap();
        store.patch("g", "+ s b t\n").unwrap();
        assert_eq!(store.snapshot("g", "v1", Some(SnapshotRef::Offset(1))).unwrap(), 1);
        assert_eq!(store.snapshot("g", "v2", None).unwrap(), 2);
        let (offset, graph) = store.materialize("g", &SnapshotRef::Named("v1".into())).unwrap();
        assert_eq!((offset, graph.num_facts()), (1, 1));
        let err = store.materialize("g", &SnapshotRef::Offset(9)).unwrap_err();
        assert_eq!(err.code(), "unknown_snapshot");
        assert!(err.to_string().contains('9') && err.to_string().contains("\"g\""));
        let err = store.snapshot("g", "v3", Some(SnapshotRef::Named("ghost".into()))).unwrap_err();
        assert_eq!(err.code(), "unknown_snapshot");
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn list_drop_and_stats_report_the_hosted_state() {
        let store = Store::new(StoreConfig::default());
        store.put("b", "s a t\n").unwrap();
        store.put("a", "s a t\ns b t\n").unwrap();
        store.patch("a", "- s b t\n").unwrap();
        store.snapshot("a", "v0", Some(SnapshotRef::Offset(2))).unwrap();
        let infos = store.list();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].name, "a"); // sorted
        assert_eq!(infos[0].snapshot, 3);
        assert_eq!(infos[0].facts, 1); // delete applied
        assert_eq!(infos[0].log_entries, 3);
        assert_eq!(infos[0].named, vec![("v0".to_string(), 2)]);
        assert!(infos[0].log_bytes > 0);
        let stats = store.stats();
        assert_eq!((stats.databases, stats.named_snapshots), (2, 1));
        assert_eq!(stats.log_entries, 4);
        assert!(store.drop_database("b"));
        assert!(!store.drop_database("b"));
        assert_eq!(store.stats().databases, 1);
    }

    #[test]
    fn unnamed_materializations_are_evicted_lru_but_pins_hold() {
        let store = Store::new(StoreConfig { capacity: 3, max_body_bytes: 1 << 20 });
        store.put("g", "s a t\n").unwrap();
        store.patch("g", "+ s b t\n").unwrap();
        store.snapshot("g", "pinned", Some(SnapshotRef::Offset(1))).unwrap();
        // Touch many distinct snapshots: offsets 1 (named) and head stay,
        // unnamed older ones get evicted.
        for i in 0..4 {
            store.patch("g", &format!("+ s c t{i}\n")).unwrap();
            store.materialize("g", &SnapshotRef::Head).unwrap();
        }
        store.materialize("g", &SnapshotRef::Named("pinned".into())).unwrap();
        store.materialize("g", &SnapshotRef::Offset(2)).unwrap();
        let stats = store.stats();
        assert!(stats.materialized <= 3, "{stats:?}");
        assert!(stats.evictions > 0);
        // The pinned snapshot's cache entry survived every eviction pass.
        let info = &store.list()[0];
        assert_eq!(info.named, vec![("pinned".to_string(), 1)]);
    }

    #[test]
    fn store_is_usable_across_threads() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let plan = prepared("ax*b");
        store.put("g", "s a u\nu x v\nv b t\n").unwrap();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let store = Arc::clone(&store);
                let plan = Arc::clone(&plan);
                std::thread::spawn(move || {
                    let name = format!("t{i}");
                    store.put(&name, "s a u\nu x v\nv b t\n").unwrap();
                    store.patch(&name, "- u x v\n").unwrap();
                    let (outcome, _) = solve(&store, &name, &SnapshotRef::Head, &plan, true);
                    assert_eq!(outcome.value, ResilienceValue::Finite(0));
                    assert_eq!(value(&store, "g", SnapshotRef::Head, &plan), 1);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.stats().databases, 5);
    }

    /// A copy of `name`'s fact log.
    fn log_of(store: &Store, name: &str) -> Vec<FactChange> {
        store.database(name).unwrap().lock().unwrap().log.clone()
    }

    /// A database's node names and its facts with their states, in id order.
    fn numbering(db: &GraphDb) -> (Vec<&str>, Vec<(Fact, u64, bool)>) {
        let nodes = db.nodes().map(|n| db.node_name(n)).collect();
        let facts = db
            .fact_ids()
            .map(|id| (db.fact(id), db.multiplicity(id), db.is_exogenous(id)))
            .collect();
        (nodes, facts)
    }

    /// A random patch of one to three changes over a few node names and the
    /// letters `labels`.
    fn random_patch(rng: &mut StdRng, labels: &[char]) -> String {
        let names = ["s", "u", "v", "w", "t"];
        let mut patch = String::new();
        for _ in 0..rng.gen_range(1..4usize) {
            let source = names[rng.gen_range(0..names.len())];
            let target = names[rng.gen_range(0..names.len())];
            let label = labels[rng.gen_range(0..labels.len())];
            if rng.gen_bool(0.4) {
                patch.push_str(&format!("- {source} {label} {target}\n"));
            } else {
                let multiplicity = rng.gen_range(1..4u64);
                let exogenous = if rng.gen_bool(0.1) { " !" } else { "" };
                patch.push_str(&format!("+ {source} {label} {target} {multiplicity}{exogenous}\n"));
            }
        }
        patch
    }

    #[test]
    fn head_solves_match_fresh_solves_and_enumeration_on_random_patch_sequences() {
        let queries =
            [("ax*b", ['a', 'x', 'b']), ("ab|ad|cd", ['a', 'b', 'd']), ("ab|bc", ['a', 'b', 'c'])];
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (pattern, labels) = queries[seed as usize % queries.len()];
            let semantics = if seed % 2 == 0 { Semantics::Set } else { Semantics::Bag };
            let rpq = Rpq::parse(pattern).unwrap().with_semantics(semantics);
            let plan = Arc::new(Engine::new().prepare(&rpq).unwrap());
            // A small capacity evicts older materializations, so revisited
            // offsets are rebuilt by the from-scratch replay.
            let store = Store::new(StoreConfig { capacity: 3, max_body_bytes: 1 << 20 });
            store.put("g", "s a u\nu x v\nv b t\n").unwrap();
            for step in 0..40 {
                if rng.gen_bool(0.05) {
                    store.put("g", "u a v\nv b w\n").unwrap();
                }
                let head = store.patch("g", &random_patch(&mut rng, &labels)).unwrap().snapshot;
                let log = log_of(&store, "g");
                // The new head is not materialized yet: `list` counts its
                // facts through the replay index.
                assert_eq!(store.list()[0].facts, materialize(&log).num_facts());
                let at = if rng.gen_bool(0.2) { rng.gen_range(0..=head) } else { head };
                let want_cut = rng.gen_bool(0.5);
                let route =
                    routed(&store, "g", &SnapshotRef::Offset(at), &plan, &SolveCall::new(want_cut));
                let context = format!("seed {seed} step {step} at {at} of {head}");
                let fresh = materialize(&log[..at]);
                assert_eq!(numbering(&route.graph), numbering(&fresh), "{context}");
                let (tiered, _) = route.result.unwrap();
                let want = plan.solve(&fresh).unwrap();
                assert_eq!(tiered.outcome.value, want.value, "{context}");
                assert_eq!(tiered.outcome.algorithm, want.algorithm, "{context}");
                if fresh.num_facts() <= 12 {
                    let enumerated = Engine::new()
                        .solve_with(Algorithm::ExactEnumeration, &rpq, &fresh)
                        .unwrap();
                    assert_eq!(tiered.outcome.value, enumerated.value, "{context}");
                }
                if let (Some(cut), ResilienceValue::Finite(value)) =
                    (&tiered.outcome.contingency_set, tiered.outcome.value)
                {
                    let cost: u128 = match semantics {
                        Semantics::Set => cut.len() as u128,
                        Semantics::Bag => {
                            cut.iter().map(|&f| u128::from(fresh.multiplicity(f))).sum()
                        }
                    };
                    assert_eq!(cost, value, "{context}");
                }
            }
        }
    }

    #[test]
    fn result_cache_hits_after_an_eviction_render_the_same_facts() {
        // Deleting `s a u` makes `u` the first node and `u x v` fact 0, and
        // re-putting it restores the original numbering: a cached cut is
        // only printable if every rebuild of an offset numbers it alike.
        let store = Store::new(StoreConfig { capacity: 2, max_body_bytes: 1 << 20 });
        let plan = prepared("ax*b");
        let put = store.put("g", "s a u\nu x v\nv b t\nq a u\n").unwrap().snapshot;
        let rendered = |route: &StoreRoute| -> Vec<String> {
            let (tiered, _) = route.result.as_ref().unwrap();
            let cut = tiered.outcome.contingency_set.as_ref().unwrap();
            cut.iter().map(|&f| route.graph.display_fact(f)).collect()
        };
        let solve_cut =
            |at: usize| routed(&store, "g", &SnapshotRef::Offset(at), &plan, &SolveCall::new(true));
        let mut offsets = vec![put];
        let mut first = vec![rendered(&solve_cut(put))];
        for patch in ["- s a u\n", "+ s a u\n", "- q a u\n"] {
            let head = store.patch("g", patch).unwrap().snapshot;
            offsets.push(head);
            first.push(rendered(&solve_cut(head)));
        }
        let before = store.stats();
        assert!(before.evictions > 0, "{before:?}");
        for (&offset, first) in offsets.iter().zip(&first) {
            let route = solve_cut(offset);
            assert!(route.result_cached, "offset {offset}");
            assert_eq!(&rendered(&route), first, "offset {offset}");
        }
        // The hits had to rebuild the evicted offsets from the log.
        assert!(store.stats().materializations > before.materializations);
    }
}
