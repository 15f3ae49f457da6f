//! The concurrent resilience service.
//!
//! [`Server::bind`] opens a TCP listener; [`Server::run`] accepts connections
//! and serves them with a **multiplexed scheduler**: an accept loop hands
//! every connection to a *poller* thread, the poller parks connections in
//! non-blocking mode and extracts complete request lines into a shared
//! ready-queue, and a fixed pool of workers picks up **one request at a
//! time** — never a whole connection. An idle keep-alive connection
//! therefore costs no worker at all: any number of clients can hold
//! persistent connections open without starving new clients, and a client
//! that pipelines many requests shares the workers fairly with everyone
//! else (its connection re-enters the queue after every response).
//!
//! Every connection speaks the newline-delimited JSON protocol of
//! [`crate::protocol`], and all workers share one [`QueryCache`], so a query
//! language prepared by any connection is reused by every other one
//! ([`Arc`]-shared `PreparedQuery` plans — the engine layer is `Send + Sync`
//! by construction). [`run_pipe`] serves the same protocol over an arbitrary
//! reader/writer pair (stdin/stdout in `rpq-cli serve --pipe`).
//!
//! # One request pipeline
//!
//! Both front ends hand every request line to one writer, which calls
//! [`ServerState::answer`], writes the response line and flushes. `answer`
//! decodes the line (UTF-8, JSON, verb), counts it, dispatches on the verb
//! and counts a failed response as one error. The three solve-family verbs
//! share one path, whose stages run in order:
//!
//! 1. **prepare**: parse the query and look its plan up in the cache
//!    (`cache_lookup`, `plan` spans);
//! 2. **route** every target: `solve` and `solve_batch` parse their graph
//!    texts (`parse_db` span) and route them as one engine batch; `db_solve`
//!    solves each snapshot through the store (`materialize` span);
//! 3. **entries**: one result per target, or its error object;
//! 4. **envelope**: `ok`, `cached`, then `name` for hosted databases. The
//!    *inline* verbs — `solve` and single-snapshot `db_solve` — merge their
//!    one entry into the envelope, and a failed entry fails the request.
//!    `solve_batch` and `db_solve` with `snapshots` return a `results` array
//!    in which failed entries ride along and count as errors;
//! 5. **stamp**: `elapsed_us`, the opt-in `timings`, the latency histogram
//!    and the slow-query log line.
//!
//! Hostile input costs one error response: JSON and regex nesting are
//! bounded, and so is a TCP request line (`line_too_long`).
//!
//! A `shutdown` request stops the accept loop and the poller; parked idle
//! connections are dropped, requests already in the ready-queue are answered,
//! and [`Server::run`] joins its threads before returning, so a client that
//! issues `shutdown` after reading its response observes a clean exit.

use crate::cache::{CacheLookup, CacheStats, QueryCache};
use crate::json::{find_either, Json};
use crate::protocol::{
    coded_error_response, error_response, plan_json, tiered_outcome_json, QuerySpec, Request,
    SnapshotSel,
};
use rpq_automata::Language;
use rpq_graphdb::{text, GraphDb};
use rpq_obs::{prom, MetricsRegistry, RouteCounters, Trace};
use rpq_resilience::algorithms::Algorithm;
use rpq_resilience::engine::{Engine, PreparedQuery, SolveCall, SolveMode, SolveOptions};
use rpq_resilience::router::{
    RouteBudget, Router, TieredOutcome, DEFAULT_SHED_COST_BUDGET_US, DEFAULT_SHED_QUEUE_DEPTH,
};
use rpq_resilience::rpq::Rpq;
use rpq_store::{
    AppendResult, SnapshotRef, Store, StoreConfig, StoreError, StoreRoute, StoreStats,
};
use std::io::{self, BufRead, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server configuration: worker pool size, cache geometry, batch parallelism
/// and the default [`SolveOptions`] (per-request settings override them, see
/// [`crate::protocol::QuerySpec`]).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads handling requests (at least 1). Workers are shared by
    /// all connections — this bounds concurrent *request* processing, not
    /// the number of connected clients.
    pub threads: usize,
    /// Capacity of the shared prepared-query cache.
    pub cache_capacity: usize,
    /// Lock stripes of the shared cache (see [`QueryCache::with_shards`]).
    pub cache_shards: usize,
    /// Default worker threads for the per-database half of a `solve_batch`
    /// (the per-request `jobs` setting overrides it; 1 = sequential).
    pub jobs: usize,
    /// Default solve options; the baseline for per-request overrides.
    pub options: SolveOptions,
    /// Hosted-database store geometry: database/materialization capacity and
    /// the `db_put`/`db_patch` body-size limit (see [`StoreConfig`]). The
    /// body limit also caps TCP request lines, at six times the limit plus
    /// 1 MiB: any accepted body still fits with every byte JSON-escaped.
    pub store: StoreConfig,
    /// Log solve-family requests slower than this many microseconds to
    /// stderr, with their phase breakdown (`None` disables the log — and
    /// with it the per-request tracing the breakdown needs, so the default
    /// hot path takes zero clock reads beyond the whole-request stopwatch).
    pub slow_query_log_us: Option<u64>,
    /// Ready-queue depth at which the router starts shedding: while at least
    /// this many requests sit extracted-but-unserved, every solve budget is
    /// tightened to `shed_cost_budget_us` so the backlog drains with
    /// certified degraded answers instead of growing behind one slow exact
    /// solve.
    pub shed_queue_depth: u64,
    /// The per-solve cost budget (estimated microseconds) imposed while the
    /// ready queue is over `shed_queue_depth`.
    pub shed_cost_budget_us: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            threads: 4,
            cache_capacity: 256,
            cache_shards: crate::cache::DEFAULT_SHARDS,
            jobs: 1,
            options: SolveOptions::default(),
            store: StoreConfig::default(),
            slow_query_log_us: None,
            shed_queue_depth: DEFAULT_SHED_QUEUE_DEPTH,
            shed_cost_budget_us: DEFAULT_SHED_COST_BUDGET_US,
        }
    }
}

/// Connection and keep-alive counters (see the `connections` object of the
/// `stats` response). All counters are lock-free atomics; `open` and
/// `queue_depth` are gauges, the rest are monotone totals.
#[derive(Debug, Default)]
struct ConnectionMetrics {
    /// Currently open TCP connections (parked, queued or being served).
    open: AtomicU64,
    /// Total connections accepted since the server started.
    accepted: AtomicU64,
    /// Total requests served over TCP connections.
    requests: AtomicU64,
    /// The largest number of requests any single connection has issued.
    max_requests: AtomicU64,
    /// Requests currently sitting in the ready-queue (extracted from a
    /// connection, not yet picked up by a worker).
    queue_depth: AtomicU64,
}

/// Shared server state: the prepared-query cache, request counters and the
/// shutdown flag. All request handling lives here so that the TCP front end
/// and the pipe front end behave identically.
pub struct ServerState {
    options: SolveOptions,
    threads: usize,
    jobs: usize,
    cache: QueryCache,
    store: Store,
    requests: AtomicU64,
    errors: AtomicU64,
    /// Requests whose handler panicked (each answered `internal_error`).
    panics: AtomicU64,
    /// Makes the next dispatch panic, to exercise the containment.
    #[cfg(test)]
    fail_next: AtomicBool,
    /// Monotone per-verb request totals, indexed like [`VERBS`]. Bumped on
    /// every successfully parsed request (including `shutdown`).
    by_verb: [AtomicU64; VERBS.len()],
    /// Latency histograms for the solve-family verbs, keyed by
    /// `(verb, family, tier, backend)`.
    metrics: MetricsRegistry,
    /// When the state was created — the base of `uptime_secs`.
    started: Instant,
    slow_query_log_us: Option<u64>,
    shutdown: AtomicBool,
    /// Shared with the router's overload probe, which reads `queue_depth`.
    connections: Arc<ConnectionMetrics>,
    /// The cost-model tier router every solve-family request goes through.
    /// Its overload probe reads the ready-queue depth: a deep backlog
    /// tightens every budget to the shed cost budget (see [`ServerConfig`]).
    router: Router,
    /// Configured shed thresholds, kept for the `stats` response.
    shed_queue_depth: u64,
    shed_cost_budget_us: u64,
    /// Per-tier routed-solve counters (poly/exact/approx, degradations,
    /// overload sheds) for `stats` and `metrics`.
    route_counters: RouteCounters,
    /// The bound address, once known — used to self-connect and wake the
    /// accept loop on shutdown.
    addr: Mutex<Option<SocketAddr>>,
    /// The longest request line a TCP connection may buffer: room for the
    /// largest `db_put`/`db_patch` body the store accepts with every byte
    /// JSON-escaped as `\u00XX`, plus 1 MiB for the rest of the request.
    max_line_bytes: usize,
}

impl ServerState {
    /// Fresh state for a configuration.
    pub fn new(config: ServerConfig) -> ServerState {
        let connections = Arc::new(ConnectionMetrics::default());
        let probe = Arc::clone(&connections);
        let router = Router::new()
            .with_overload_probe(Arc::new(move || probe.queue_depth.load(Ordering::Relaxed)))
            .with_shed_thresholds(config.shed_queue_depth, config.shed_cost_budget_us);
        ServerState {
            options: config.options,
            threads: config.threads.max(1),
            jobs: config.jobs.clamp(1, MAX_BATCH_JOBS),
            cache: QueryCache::with_shards(config.cache_capacity, config.cache_shards),
            store: Store::new(config.store),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            #[cfg(test)]
            fail_next: AtomicBool::new(false),
            by_verb: std::array::from_fn(|_| AtomicU64::new(0)),
            metrics: MetricsRegistry::default(),
            started: Instant::now(),
            slow_query_log_us: config.slow_query_log_us,
            shutdown: AtomicBool::new(false),
            connections,
            router,
            shed_queue_depth: config.shed_queue_depth,
            shed_cost_budget_us: config.shed_cost_budget_us.max(1),
            route_counters: RouteCounters::default(),
            addr: Mutex::new(None),
            max_line_bytes: config.store.max_body_bytes.saturating_mul(6).saturating_add(1 << 20),
        }
    }

    /// The shared prepared-query cache.
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// The hosted-database store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Whether a shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Answers one request line (undecoded bytes) and returns the response
    /// line plus whether the request asked the server to shut down — the one
    /// entry point of both front ends. Never panics on malformed input:
    /// invalid UTF-8 (never lossily replaced), bad JSON and unknown verbs all
    /// become `{"ok":false,…}` responses, and every response that is not
    /// `"ok": true` counts once in the `errors` stat. A handler that panics
    /// costs its request an `internal_error` response and a `panics` count;
    /// the calling thread carries on. A stack overflow aborts the process
    /// instead: no unwinding catches it.
    pub fn answer(&self, line: &[u8]) -> (String, bool) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let parsed = std::str::from_utf8(line)
            .map_err(|e| {
                format!(
                    "invalid encoding: request line is not UTF-8 (first invalid byte at \
                     offset {})",
                    e.valid_up_to()
                )
            })
            .and_then(Request::parse);
        let (response, shutdown) = match parsed {
            Ok(request) => {
                let verb = verb_of(&request);
                // The wire-protocol lint keeps `VERBS` in sync with the parser.
                let slot = VERBS.iter().position(|v| *v == verb);
                if let Some(count) = slot.and_then(|i| self.by_verb.get(i)) {
                    count.fetch_add(1, Ordering::Relaxed);
                }
                (self.dispatch_contained(verb, request), verb == "shutdown")
            }
            Err(message) => (error_response(message), false),
        };
        if response.get("ok").and_then(Json::as_bool) != Some(true) {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        (response.to_string(), shutdown)
    }

    /// [`ServerState::dispatch`] with its panics caught: a panic answers
    /// `{"ok":false,"code":"internal_error",…}` and bumps `panics`. A
    /// database lock the handler held is left poisoned; the store's next
    /// request on that database recovers it, dropping the database's caches
    /// and keeping its log.
    fn dispatch_contained(&self, verb: &'static str, request: Request) -> Json {
        let run = AssertUnwindSafe(|| {
            #[cfg(test)]
            self.inject_fault();
            self.dispatch(verb, request)
        });
        std::panic::catch_unwind(run).unwrap_or_else(|payload| {
            self.panics.fetch_add(1, Ordering::Relaxed);
            let detail = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            coded_error_response(
                format!("internal error: the `{verb}` request panicked ({detail})"),
                "internal_error",
            )
        })
    }

    #[cfg(test)]
    fn inject_fault(&self) {
        if self.fail_next.swap(false, Ordering::Relaxed) {
            panic!("injected fault");
        }
    }

    /// Handles one parsed request of wire verb `verb`.
    fn dispatch(&self, verb: &'static str, request: Request) -> Json {
        match request {
            Request::Prepare { query } => self.handle_prepare(&query),
            Request::Solve { query, db } => self.handle_solve_family(
                verb,
                &query,
                Targets::Texts(std::slice::from_ref(&db)),
                true,
            ),
            Request::SolveBatch { query, dbs } => {
                self.handle_solve_family(verb, &query, Targets::Texts(&dbs), false)
            }
            Request::DbSolve { query, name, snapshot, snapshots: None } => {
                let target = vec![snapshot.as_ref().map_or(SnapshotRef::Head, snapshot_ref)];
                self.handle_solve_family(verb, &query, Targets::Snapshots(&name, target), true)
            }
            Request::DbSolve { query, name, snapshots: Some(refs), .. } => {
                let targets = refs.iter().map(snapshot_ref).collect();
                self.handle_solve_family(verb, &query, Targets::Snapshots(&name, targets), false)
            }
            Request::DbPut { name, db } => appended(&name, "facts", self.store.put(&name, &db)),
            Request::DbPatch { name, patch } => {
                appended(&name, "applied", self.store.patch(&name, &patch))
            }
            Request::DbSnapshot { name, snapshot_name, at } => {
                match self.store.snapshot(&name, &snapshot_name, at.as_ref().map(snapshot_ref)) {
                    Ok(offset) => Json::object([
                        ("ok", Json::Bool(true)),
                        ("name", Json::Str(name)),
                        ("snapshot_name", Json::Str(snapshot_name)),
                        ("snapshot", Json::Int(offset as i128)),
                    ]),
                    Err(e) => store_error(&e),
                }
            }
            Request::DbList => self.handle_db_list(),
            Request::DbDrop { name } => {
                let dropped = self.store.drop_database(&name);
                Json::object([
                    ("ok", Json::Bool(true)),
                    ("name", Json::Str(name)),
                    ("dropped", Json::Bool(dropped)),
                ])
            }
            Request::Stats => self.handle_stats(),
            Request::Metrics => self.handle_metrics(),
            Request::Shutdown => Json::object([("ok", Json::Bool(true))]),
        }
    }

    /// The per-call solve inputs of a solve-family request: the per-request
    /// `want_cut` (default `true`; applied per solve call, never part of the
    /// cache key), the `deadline_ms`/`cost_budget_us`
    /// budget (unlimited when neither is set, which makes the routed path
    /// bit-identical to an unbudgeted solve) and the overload-probing router.
    fn call_for(&self, spec: &QuerySpec) -> SolveCall<'_> {
        SolveCall {
            want_cut: spec.want_cut.unwrap_or(true),
            budget: RouteBudget {
                deadline_ms: spec.deadline_ms,
                cost_budget_us: spec.cost_budget_us,
            },
            router: &self.router,
        }
    }

    /// Parses the query and looks its plan up in the shared cache, preparing
    /// it under the request's `enumeration_limit` override on a miss
    /// (`cache_lookup` and `plan` spans when `trace` is enabled).
    fn prepare(&self, spec: &QuerySpec, trace: &mut Trace) -> Result<CacheLookup, String> {
        let language = Language::parse(&spec.pattern)
            .map_err(|e| format!("cannot parse query `{}`: {e}", spec.pattern))?;
        let mut rpq = Rpq::new(language);
        if spec.bag {
            rpq = rpq.with_bag_semantics();
        }
        let mut options = self.options;
        options.enumeration_limit = spec.enumeration_limit.unwrap_or(options.enumeration_limit);
        self.cache
            .get_or_prepare_traced(&Engine::with_options(options), &rpq, spec.algorithm, trace)
            .map_err(|e| e.to_string())
    }

    /// The trace to run a solve-family request under: enabled when the
    /// request opted in (`trace: true`) or when the slow-query log needs a
    /// phase breakdown, disabled (zero clock reads) otherwise.
    fn trace_for(&self, spec: &QuerySpec) -> Trace {
        if spec.trace == Some(true) || self.slow_query_log_us.is_some() {
            Trace::enabled()
        } else {
            Trace::disabled()
        }
    }

    fn handle_prepare(&self, spec: &QuerySpec) -> Json {
        let lookup = match self.prepare(spec, &mut Trace::disabled()) {
            Ok(p) => p,
            Err(message) => return error_response(message),
        };
        Json::object([
            ("ok", Json::Bool(true)),
            ("cached", Json::Bool(lookup.hit)),
            // The fingerprint is hashed from the canonical form the cache
            // lookup already computed — no second canonicalization.
            ("fingerprint", Json::Str(format!("{:016x}", lookup.fingerprint))),
            ("plan", plan_json(lookup.prepared.plan())),
        ])
    }

    /// The solve-family pipeline (`solve`, `solve_batch`, `db_solve`; see
    /// the module docs): prepare, route every target, build the envelope,
    /// stamp. `inline` requests have exactly one target whose entry merges
    /// into the envelope — a failed entry fails the request. Other requests
    /// answer a `results` array whose failed entries ride inside an
    /// `"ok": true` envelope and are counted into `errors` here.
    fn handle_solve_family(
        &self,
        verb: &'static str,
        spec: &QuerySpec,
        targets: Targets<'_>,
        inline: bool,
    ) -> Json {
        let started = Instant::now();
        let mut trace = self.trace_for(spec);
        let CacheLookup { prepared, hit: cached, fingerprint } =
            match self.prepare(spec, &mut trace) {
                Ok(p) => p,
                Err(message) => return with_elapsed(error_response(message), started),
            };
        let call = self.call_for(spec);
        let mut fields =
            vec![("ok".to_string(), Json::Bool(true)), ("cached".to_string(), Json::Bool(cached))];
        let mut entries: Vec<Entry> = match targets {
            Targets::Texts(texts) => self.route_texts(&prepared, texts, spec, &call, &mut trace),
            Targets::Snapshots(name, refs) => {
                fields.push(("name".to_string(), Json::Str(name.to_string())));
                refs.iter()
                    .map(|sel| {
                        let route =
                            self.store.solve(name, sel, &prepared, fingerprint, &call, &mut trace);
                        let build_timer = trace.begin();
                        let entry = self.snapshot_entry(route);
                        trace.end(build_timer, "result_build");
                        entry
                    })
                    .collect()
            }
        };
        // Inline verbs label the latency histogram with the backend and
        // tier that answered (after any routing degradation); array verbs,
        // whose entries may mix tiers, with the planned backend's.
        let planned = prepared.plan().algorithm;
        let planned = (planned, if planned.is_polynomial() { "poly" } else { "exact" });
        let (algorithm, tier) = if inline {
            let (answered, rest) = match entries.pop() {
                Some(Ok(entry)) => entry,
                Some(Err(error)) => return with_elapsed(error, started),
                None => (planned, Vec::new()),
            };
            fields.extend(rest);
            answered
        } else {
            let failures = entries.iter().filter(|entry| entry.is_err()).count() as u64;
            let results = entries
                .into_iter()
                .map(|entry| entry.map_or_else(|error| error, |(_, rest)| Json::Object(rest)))
                .collect();
            if failures > 0 {
                self.errors.fetch_add(failures, Ordering::Relaxed);
            }
            fields.push(("results".to_string(), Json::Array(results)));
            planned
        };
        // The stamp: seal the trace, append the always-on `elapsed_us` (and
        // the opt-in `timings`), record the latency histogram under
        // `(verb, family, tier, backend)` and log the request if slow.
        trace.seal();
        let elapsed_us = started.elapsed().as_micros() as u64;
        let family = algorithm.name();
        // Every flow-based solve runs Dinic; the label keeps its series.
        let backend = "dinic";
        self.metrics.histogram([verb, family, tier, backend]).record(elapsed_us);
        fields.push(("elapsed_us".to_string(), Json::Int(elapsed_us as i128)));
        if spec.trace == Some(true) {
            let timings = trace
                .spans()
                .iter()
                .map(|&(phase, us)| (phase.to_string(), Json::Int(us as i128)))
                .collect();
            fields.push(("timings".to_string(), Json::Object(timings)));
        }
        if self.slow_query_log_us.is_some_and(|threshold| elapsed_us >= threshold) {
            let phases: Vec<String> =
                trace.spans().iter().map(|&(phase, us)| format!("{phase}={us}us")).collect();
            eprintln!(
                "rpq-server: slow query: verb={verb} query={fingerprint:016x} family={family} \
                 tier={tier} backend={backend} elapsed={elapsed_us}us phases=[{}]",
                phases.join(" ")
            );
        }
        Json::Object(fields)
    }

    /// Parses every graph text (one `parse_db` span, per-text failures kept)
    /// and routes the parsed databases through the engine's batch path —
    /// `jobs` scoped threads, one pooled scratch each — returning one entry
    /// per text, in order (built under one `result_build` span).
    fn route_texts(
        &self,
        prepared: &PreparedQuery,
        texts: &[String],
        spec: &QuerySpec,
        call: &SolveCall,
        trace: &mut Trace,
    ) -> Vec<Entry> {
        // The per-request override is untrusted input: clamp it, or one
        // request could ask for an OS thread per database.
        let jobs = spec.jobs.unwrap_or(self.jobs).clamp(1, MAX_BATCH_JOBS);
        let parse_timer = trace.begin();
        let mut parsed: Vec<GraphDb> = Vec::with_capacity(texts.len());
        let slots: Vec<Result<usize, String>> = texts
            .iter()
            .map(|text| {
                let db = text::parse(text).map_err(|e| format!("cannot parse database: {e}"))?;
                parsed.push(db);
                Ok(parsed.len() - 1)
            })
            .collect();
        trace.end(parse_timer, "parse_db");
        let outcomes = prepared.route_batch(&parsed, jobs, call, trace);
        let build_timer = trace.begin();
        let entries = slots
            .into_iter()
            .map(|slot| {
                let i = slot.map_err(error_response)?;
                // lint: allow(panic-freedom, slots index the same vectors they were built from)
                let (outcome, db) = (&outcomes[i], &parsed[i]);
                let tiered = outcome.as_ref().map_err(|e| error_response(e.to_string()))?;
                Ok(self.routed_entry(tiered, db, Vec::new()))
            })
            .collect();
        trace.end(build_timer, "result_build");
        entries
    }

    /// One hosted-snapshot entry: the resolved snapshot id, the
    /// `incremental` and `result_cached` markers and the routed outcome — or
    /// a store error, or, for an engine failure, an `"ok": false` entry that
    /// still names the offending snapshot.
    fn snapshot_entry(&self, route: Result<StoreRoute, StoreError>) -> Entry {
        let route = route.map_err(|e| store_error(&e))?;
        let snapshot = ("snapshot".to_string(), Json::Int(route.snapshot as i128));
        match &route.result {
            Ok((tiered, mode)) => Ok(self.routed_entry(
                tiered,
                &route.graph,
                vec![
                    snapshot,
                    ("incremental".to_string(), Json::Bool(*mode == SolveMode::Incremental)),
                    ("result_cached".to_string(), Json::Bool(route.result_cached)),
                ],
            )),
            Err(e) => Err(Json::Object(vec![
                ("ok".to_string(), Json::Bool(false)),
                ("error".to_string(), Json::Str(e.to_string())),
                snapshot,
            ])),
        }
    }

    /// A routed outcome as entry fields after `fields`, recorded in the
    /// per-tier counters, with the backend and tier that answered.
    fn routed_entry(
        &self,
        tiered: &TieredOutcome,
        db: &GraphDb,
        mut fields: Vec<(String, Json)>,
    ) -> ((Algorithm, &'static str), Vec<(String, Json)>) {
        self.route_counters.record(tiered.tier, tiered.degraded, tiered.shed);
        if let Json::Object(rest) = tiered_outcome_json(tiered, db) {
            fields.extend(rest);
        }
        ((tiered.outcome.algorithm, tiered.tier), fields)
    }

    fn handle_db_list(&self) -> Json {
        let databases: Vec<Json> = self
            .store
            .list()
            .into_iter()
            .map(|info| {
                let named = info
                    .named
                    .into_iter()
                    .map(|(n, offset)| (n, Json::Int(offset as i128)))
                    .collect();
                Json::object([
                    ("name", Json::Str(info.name)),
                    ("snapshot", Json::Int(info.snapshot as i128)),
                    ("facts", Json::Int(info.facts as i128)),
                    ("log_entries", Json::Int(info.log_entries as i128)),
                    ("log_bytes", Json::Int(info.log_bytes as i128)),
                    ("named", Json::Object(named)),
                    ("materialized", Json::Int(info.materialized as i128)),
                ])
            })
            .collect();
        Json::object([("ok", Json::Bool(true)), ("databases", Json::Array(databases))])
    }

    fn handle_stats(&self) -> Json {
        let CacheStats { hits, misses, evictions, entries, capacity, shards } = self.cache.stats();
        let StoreStats {
            databases,
            named_snapshots,
            materialized,
            log_entries,
            log_bytes,
            incremental_solves,
            full_solves,
            materializations,
            evictions: store_evictions,
            capacity: store_capacity,
            max_body_bytes,
            result_hits,
            result_misses,
        } = self.store.stats();
        let routed = self.route_counters.snapshot();
        let connections = &self.connections;
        Json::object([
            ("ok", Json::Bool(true)),
            ("requests", Json::Int(self.requests.load(Ordering::Relaxed) as i128)),
            ("errors", Json::Int(self.errors.load(Ordering::Relaxed) as i128)),
            ("panics", Json::Int(self.panics.load(Ordering::Relaxed) as i128)),
            ("uptime_secs", Json::Int(self.started.elapsed().as_secs() as i128)),
            ("threads", Json::Int(self.threads as i128)),
            ("jobs", Json::Int(self.jobs as i128)),
            (
                "requests_by_verb",
                Json::Object(
                    VERBS
                        .iter()
                        .zip(self.by_verb.iter())
                        .map(|(verb, count)| {
                            (verb.to_string(), Json::Int(count.load(Ordering::Relaxed) as i128))
                        })
                        .collect(),
                ),
            ),
            (
                "connections",
                Json::object([
                    ("open", Json::Int(connections.open.load(Ordering::Relaxed) as i128)),
                    ("accepted", Json::Int(connections.accepted.load(Ordering::Relaxed) as i128)),
                    ("requests", Json::Int(connections.requests.load(Ordering::Relaxed) as i128)),
                    (
                        "max_requests",
                        Json::Int(connections.max_requests.load(Ordering::Relaxed) as i128),
                    ),
                    (
                        "queue_depth",
                        Json::Int(connections.queue_depth.load(Ordering::Relaxed) as i128),
                    ),
                ]),
            ),
            (
                "cache",
                Json::object([
                    ("hits", Json::Int(hits as i128)),
                    ("misses", Json::Int(misses as i128)),
                    ("evictions", Json::Int(evictions as i128)),
                    ("entries", Json::Int(entries as i128)),
                    ("capacity", Json::Int(capacity as i128)),
                    ("shards", Json::Int(shards as i128)),
                ]),
            ),
            (
                "store",
                Json::object([
                    ("databases", Json::Int(databases as i128)),
                    ("named_snapshots", Json::Int(named_snapshots as i128)),
                    ("materialized", Json::Int(materialized as i128)),
                    ("log_entries", Json::Int(log_entries as i128)),
                    ("log_bytes", Json::Int(log_bytes as i128)),
                    ("incremental_solves", Json::Int(incremental_solves as i128)),
                    ("full_solves", Json::Int(full_solves as i128)),
                    ("materializations", Json::Int(materializations as i128)),
                    ("evictions", Json::Int(store_evictions as i128)),
                    ("capacity", Json::Int(store_capacity as i128)),
                    ("max_body_bytes", Json::Int(max_body_bytes as i128)),
                    ("result_hits", Json::Int(result_hits as i128)),
                    ("result_misses", Json::Int(result_misses as i128)),
                ]),
            ),
            (
                "router",
                Json::object([
                    ("poly", Json::Int(routed.poly as i128)),
                    ("exact", Json::Int(routed.exact as i128)),
                    ("approx", Json::Int(routed.approx as i128)),
                    ("degraded", Json::Int(routed.degraded as i128)),
                    ("overload_sheds", Json::Int(routed.overload_sheds as i128)),
                    ("queue_depth", Json::Int(self.router.queue_depth() as i128)),
                    ("overloaded", Json::Bool(self.router.is_overloaded())),
                    ("shed_queue_depth", Json::Int(self.shed_queue_depth as i128)),
                    ("shed_cost_budget_us", Json::Int(self.shed_cost_budget_us as i128)),
                ]),
            ),
        ])
    }

    /// Renders every counter, gauge and latency histogram as Prometheus text
    /// exposition, returned in the `metrics` field of the response.
    fn handle_metrics(&self) -> Json {
        let mut out = String::new();
        prom::header(&mut out, "rpq_uptime_seconds", "Seconds since the server started.", "gauge");
        prom::sample(&mut out, "rpq_uptime_seconds", "", self.started.elapsed().as_secs());
        prom::header(&mut out, "rpq_requests_total", "Requests received (any verb).", "counter");
        prom::sample(&mut out, "rpq_requests_total", "", self.requests.load(Ordering::Relaxed));
        prom::header(&mut out, "rpq_errors_total", "Requests answered with an error.", "counter");
        prom::sample(&mut out, "rpq_errors_total", "", self.errors.load(Ordering::Relaxed));
        prom::header(
            &mut out,
            "rpq_panics_total",
            "Requests whose handler panicked (answered internal_error).",
            "counter",
        );
        prom::sample(&mut out, "rpq_panics_total", "", self.panics.load(Ordering::Relaxed));
        prom::header(
            &mut out,
            "rpq_requests_by_verb_total",
            "Successfully parsed requests, by wire verb.",
            "counter",
        );
        for (verb, count) in VERBS.iter().zip(self.by_verb.iter()) {
            prom::sample(
                &mut out,
                "rpq_requests_by_verb_total",
                &format!("verb=\"{verb}\""),
                count.load(Ordering::Relaxed),
            );
        }
        let cache = self.cache.stats();
        for (name, help, value) in [
            ("rpq_cache_hits_total", "Prepared-query cache hits.", cache.hits),
            ("rpq_cache_misses_total", "Prepared-query cache misses.", cache.misses),
            ("rpq_cache_evictions_total", "Prepared-query cache evictions.", cache.evictions),
        ] {
            prom::header(&mut out, name, help, "counter");
            prom::sample(&mut out, name, "", value);
        }
        prom::header(&mut out, "rpq_cache_entries", "Prepared-query plans cached.", "gauge");
        prom::sample(&mut out, "rpq_cache_entries", "", cache.entries as u64);
        let store = self.store.stats();
        for (name, help, value) in [
            ("rpq_store_databases", "Hosted databases.", store.databases as u64),
            ("rpq_store_named_snapshots", "Pinned named snapshots.", store.named_snapshots as u64),
            ("rpq_store_materialized", "Materialized snapshots held.", store.materialized as u64),
            (
                "rpq_store_log_entries",
                "Fact-log entries across databases.",
                store.log_entries as u64,
            ),
            ("rpq_store_log_bytes", "Fact-log bytes across databases.", store.log_bytes as u64),
        ] {
            prom::header(&mut out, name, help, "gauge");
            prom::sample(&mut out, name, "", value);
        }
        for (name, help, value) in [
            (
                "rpq_store_incremental_solves_total",
                "Hosted solves answered incrementally.",
                store.incremental_solves,
            ),
            ("rpq_store_full_solves_total", "Hosted solves built from scratch.", store.full_solves),
            (
                "rpq_store_materializations_total",
                "Snapshot materializations replayed from the log.",
                store.materializations,
            ),
            ("rpq_store_evictions_total", "Materialized snapshots evicted.", store.evictions),
            (
                "rpq_store_result_cache_hits_total",
                "Hosted solves answered from the cross-snapshot result cache.",
                store.result_hits,
            ),
            (
                "rpq_store_result_cache_misses_total",
                "Hosted solves that missed the cross-snapshot result cache.",
                store.result_misses,
            ),
        ] {
            prom::header(&mut out, name, help, "counter");
            prom::sample(&mut out, name, "", value);
        }
        let routed = self.route_counters.snapshot();
        prom::header(
            &mut out,
            "rpq_routed_total",
            "Routed solves, by the complexity tier that answered.",
            "counter",
        );
        for (tier, count) in
            [("poly", routed.poly), ("exact", routed.exact), ("approx", routed.approx)]
        {
            prom::sample(&mut out, "rpq_routed_total", &format!("tier=\"{tier}\""), count);
        }
        for (name, help, value) in [
            (
                "rpq_routed_degraded_total",
                "Routed solves the planned backend did not answer exactly (budgeted search).",
                routed.degraded,
            ),
            (
                "rpq_overload_sheds_total",
                "Routed solves whose budget was tightened by overload shedding.",
                routed.overload_sheds,
            ),
        ] {
            prom::header(&mut out, name, help, "counter");
            prom::sample(&mut out, name, "", value);
        }
        let connections = &self.connections;
        for (name, help, value) in [
            (
                "rpq_connections_open",
                "Currently open TCP connections.",
                connections.open.load(Ordering::Relaxed),
            ),
            (
                "rpq_ready_queue_depth",
                "Requests extracted from connections, not yet picked up by a worker.",
                connections.queue_depth.load(Ordering::Relaxed),
            ),
        ] {
            prom::header(&mut out, name, help, "gauge");
            prom::sample(&mut out, name, "", value);
        }
        prom::header(
            &mut out,
            "rpq_connections_accepted_total",
            "TCP connections accepted.",
            "counter",
        );
        prom::sample(
            &mut out,
            "rpq_connections_accepted_total",
            "",
            connections.accepted.load(Ordering::Relaxed),
        );
        let latency = self.metrics.snapshot();
        prom::header(
            &mut out,
            "rpq_solve_latency_us",
            "Whole-request solve latency in microseconds, by verb, algorithm family, \
             complexity tier and flow backend.",
            "histogram",
        );
        for (key, snapshot) in &latency {
            prom::histogram(&mut out, "rpq_solve_latency_us", &latency_labels(key), snapshot);
        }
        for (suffix, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            let name = format!("rpq_solve_latency_us_{suffix}");
            prom::header(
                &mut out,
                &name,
                "Latency quantile upper bound derived from the histogram buckets.",
                "gauge",
            );
            for (key, snapshot) in &latency {
                prom::sample(&mut out, &name, &latency_labels(key), snapshot.quantile(q));
            }
        }
        prom::header(
            &mut out,
            "rpq_solve_latency_us_max",
            "Largest observed solve latency.",
            "gauge",
        );
        for (key, snapshot) in &latency {
            prom::sample(&mut out, "rpq_solve_latency_us_max", &latency_labels(key), snapshot.max);
        }
        Json::object([("ok", Json::Bool(true)), ("metrics", Json::Str(out))])
    }

    /// The response line (newline included) to a TCP request line longer
    /// than `max_line_bytes`, counted as one request and one error.
    fn line_too_long(&self) -> String {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.errors.fetch_add(1, Ordering::Relaxed);
        let message = format!("request line longer than {} bytes", self.max_line_bytes);
        coded_error_response(message, "line_too_long").to_string() + "\n"
    }

    /// Sets the shutdown flag and wakes the accept loop with a self-connect.
    fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let addr = *self.addr.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(addr) = addr {
            // The dummy connection only has to make `accept` return; errors
            // mean the listener is already gone, which is fine.
            let _ = TcpStream::connect(addr);
        }
    }
}

/// Upper bound on the scoped worker threads a single `solve_batch` may use,
/// whatever the request's `jobs` field says (threads beyond the physical
/// core count only add overhead anyway).
pub const MAX_BATCH_JOBS: usize = 64;

/// Every wire verb, in the order the `requests_by_verb` stats object and the
/// `rpq_requests_by_verb_total` metric report them.
pub const VERBS: [&str; 12] = [
    "prepare",
    "solve",
    "solve_batch",
    "db_put",
    "db_patch",
    "db_snapshot",
    "db_solve",
    "db_list",
    "db_drop",
    "stats",
    "metrics",
    "shutdown",
];

/// The wire verb of a parsed request (a [`VERBS`] entry).
fn verb_of(request: &Request) -> &'static str {
    match request {
        Request::Prepare { .. } => "prepare",
        Request::Solve { .. } => "solve",
        Request::SolveBatch { .. } => "solve_batch",
        Request::DbPut { .. } => "db_put",
        Request::DbPatch { .. } => "db_patch",
        Request::DbSnapshot { .. } => "db_snapshot",
        Request::DbSolve { .. } => "db_solve",
        Request::DbList => "db_list",
        Request::DbDrop { .. } => "db_drop",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
    }
}

/// The Prometheus label list of one latency-histogram key.
fn latency_labels(key: &rpq_obs::MetricsKey) -> String {
    let [verb, family, tier, backend] = key;
    format!("verb=\"{verb}\",family=\"{family}\",tier=\"{tier}\",backend=\"{backend}\"")
}

/// The databases a solve-family request runs against.
enum Targets<'a> {
    /// Graph texts sent with the request (`solve`, `solve_batch`).
    Texts(&'a [String]),
    /// Snapshots of the named hosted database (`db_solve`).
    Snapshots(&'a str, Vec<SnapshotRef>),
}

/// One solve-family target's result: the algorithm that answered and the
/// entry's response fields, or its `"ok": false` error object.
type Entry = Result<((Algorithm, &'static str), Vec<(String, Json)>), Json>;

/// Appends the always-on `elapsed_us` field to a response object (the
/// failure paths of the solve-family pipeline).
fn with_elapsed(mut json: Json, started: Instant) -> Json {
    if let Json::Object(fields) = &mut json {
        fields.push(("elapsed_us".to_string(), Json::Int(started.elapsed().as_micros() as i128)));
    }
    json
}

/// The response to a `db_put` (`count_key` = `facts`) or `db_patch`
/// (`applied`): the new snapshot id and the appended entry count.
fn appended(name: &str, count_key: &'static str, result: Result<AppendResult, StoreError>) -> Json {
    match result {
        Ok(appended) => Json::object([
            ("ok", Json::Bool(true)),
            ("name", Json::Str(name.to_string())),
            ("snapshot", Json::Int(appended.snapshot as i128)),
            (count_key, Json::Int(appended.entries as i128)),
        ]),
        Err(e) => store_error(&e),
    }
}

/// Maps a wire snapshot reference onto the store's (an omitted reference is
/// the head, [`SnapshotRef::Head`]).
fn snapshot_ref(sel: &SnapshotSel) -> SnapshotRef {
    match sel {
        SnapshotSel::Offset(offset) => SnapshotRef::Offset(*offset),
        SnapshotSel::Named(name) => SnapshotRef::Named(name.clone()),
    }
}

/// A store failure as a typed error response (`code` from
/// [`StoreError::code`]).
fn store_error(e: &StoreError) -> Json {
    coded_error_response(e.to_string(), e.code())
}

/// One accepted TCP connection: the (non-blocking while parked) stream, the
/// bytes read so far, and its request counter. Dropping a `Connection`
/// closes the socket and maintains the `open` gauge.
struct Connection {
    stream: TcpStream,
    buffer: Vec<u8>,
    /// How many leading bytes of `buffer` are known to hold no `\n`, so a
    /// line arriving in many reads is scanned once, not once per read.
    scanned: usize,
    requests: u64,
    state: Arc<ServerState>,
}

impl Connection {
    /// Adopts a freshly accepted stream: no-delay (one short line per
    /// response — Nagle + delayed ACKs would add ~40 ms per round trip),
    /// non-blocking (the poller multiplexes reads), counters bumped.
    fn adopt(state: &Arc<ServerState>, stream: TcpStream) -> io::Result<Connection> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        state.connections.accepted.fetch_add(1, Ordering::Relaxed);
        state.connections.open.fetch_add(1, Ordering::Relaxed);
        Ok(Connection {
            stream,
            buffer: Vec::new(),
            scanned: 0,
            requests: 0,
            state: Arc::clone(state),
        })
    }

    /// Takes the next non-blank `\n`-terminated line out of the buffer,
    /// without its newline. Only bytes not scanned before are searched, eight
    /// per step (a `solve_batch` line is ~135 KB).
    fn next_buffered_line(&mut self) -> Option<Vec<u8>> {
        loop {
            let unscanned = self.buffer.get(self.scanned..).unwrap_or_default();
            let Some(pos) = find_either(unscanned, b'\n', b'\n') else {
                self.scanned = self.buffer.len();
                return None;
            };
            // The buffer up to the newline becomes the line (no copy); the
            // bytes after it stay buffered.
            let rest = self.buffer.split_off(self.scanned + pos + 1);
            let mut line = std::mem::replace(&mut self.buffer, rest);
            self.scanned = 0;
            line.pop(); // the newline
            if !line.iter().all(u8::is_ascii_whitespace) {
                return Some(line);
            }
        }
    }

    /// Records one served request on this connection (keep-alive metrics).
    fn note_request(&mut self) {
        self.requests += 1;
        let state = &self.state.connections;
        state.requests.fetch_add(1, Ordering::Relaxed);
        state.max_requests.fetch_max(self.requests, Ordering::Relaxed);
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.state.connections.open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One complete request line extracted from a connection, queued for the
/// worker pool. The connection travels with its request, so per-connection
/// response ordering is trivially preserved: only one worker ever holds a
/// given connection.
struct ReadyRequest {
    conn: Connection,
    line: Vec<u8>,
    /// The peer half-closed after this line (no trailing newline at EOF):
    /// answer it, then close instead of re-parking.
    eof: bool,
}

/// What one poller pass observed on a parked connection.
enum Polled {
    /// A complete request line (plus whether the connection hit EOF).
    Request { line: Vec<u8>, eof: bool },
    /// No complete line yet; keep the connection parked. `read` says whether
    /// the pass read any bytes: a large line arriving piece by piece is
    /// progress, so the poller must not back off while it streams in.
    Idle { read: bool },
    /// The buffered line outgrew the cap without ending: answer
    /// `line_too_long` and close.
    TooLong,
    /// Peer closed (or the connection errored) with nothing left to serve.
    Closed,
}

/// Extracts the next request line from a parked connection, reading
/// non-blockingly as needed. Whitespace-only lines are skipped (the protocol
/// ignores them). A non-empty buffer at EOF is served as a final request —
/// a trailing newline-less `{"op":"shutdown"}` must still be honored.
fn poll_connection(conn: &mut Connection) -> Polled {
    if let Some(line) = conn.next_buffered_line() {
        return Polled::Request { line, eof: false };
    }
    // `read_to_end` reads straight into the buffer's spare capacity until the
    // socket would block (keeping every byte it read), hits EOF or fills the
    // buffer to one byte past the line cap; it retries `Interrupted` itself.
    let before = conn.buffer.len();
    let room = conn.state.max_line_bytes.saturating_add(1).saturating_sub(before) as u64;
    let eof = match (&mut conn.stream).take(room).read_to_end(&mut conn.buffer) {
        Ok(read) => (read as u64) < room, // stopped short of the cap: EOF
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => return Polled::Closed, // reset mid-line: drop the client
    };
    if let Some(line) = conn.next_buffered_line() {
        return Polled::Request { line, eof: false };
    }
    if conn.buffer.len() > conn.state.max_line_bytes {
        return Polled::TooLong;
    }
    if eof {
        let line = std::mem::take(&mut conn.buffer);
        conn.scanned = 0;
        if line.iter().all(u8::is_ascii_whitespace) {
            return Polled::Closed;
        }
        return Polled::Request { line, eof: true };
    }
    Polled::Idle { read: conn.buffer.len() > before }
}

/// The poller's longest sleep between no-progress passes. Sleeps back off
/// exponentially from [`POLL_BACKOFF_START_MICROS`] up to this cap, so a
/// connection that just exchanged a request is re-polled at microsecond
/// cadence (ping-pong round trips stay in the tens of microseconds) while a
/// genuinely idle server settles at one wake-up per millisecond. Parked
/// connections are only *scanned* (one non-blocking `read` each), never
/// waited on, so no worker is ever pinned. A dedicated `epoll`/`kqueue`
/// readiness loop would remove the scan entirely; see ROADMAP.md.
const POLL_INTERVAL_MAX: std::time::Duration = std::time::Duration::from_millis(1);

/// First backoff sleep after a pass that made progress (doubles per idle
/// pass up to [`POLL_INTERVAL_MAX`]).
const POLL_BACKOFF_START_MICROS: u64 = 2;

/// The poller: parks connections, extracts complete request lines, feeds the
/// ready-queue. Exits when a shutdown is requested (dropping every parked
/// idle connection) or when both inbound channels close.
fn poller_loop(
    state: &Arc<ServerState>,
    from_accept: &mpsc::Receiver<Connection>,
    from_workers: &mpsc::Receiver<Connection>,
    ready: &mpsc::Sender<ReadyRequest>,
) {
    let mut parked: Vec<Connection> = Vec::new();
    let mut backoff = std::time::Duration::from_micros(POLL_BACKOFF_START_MICROS);
    loop {
        let mut progress = false;
        let mut inbound_open = false;
        for inbound in [from_accept, from_workers] {
            loop {
                match inbound.try_recv() {
                    Ok(conn) => {
                        parked.push(conn);
                        progress = true;
                    }
                    Err(TryRecvError::Empty) => {
                        inbound_open = true;
                        break;
                    }
                    Err(TryRecvError::Disconnected) => break,
                }
            }
        }
        if state.is_shutting_down() {
            // Parked connections are idle by definition — drop them (clients
            // see EOF). In-flight requests finish in the workers.
            return;
        }
        let mut i = 0;
        while i < parked.len() {
            // lint: allow(panic-freedom, the loop condition bounds i by the vector length)
            match poll_connection(&mut parked[i]) {
                Polled::Request { line, eof } => {
                    let conn = parked.swap_remove(i);
                    state.connections.queue_depth.fetch_add(1, Ordering::Relaxed);
                    if ready.send(ReadyRequest { conn, line, eof }).is_err() {
                        // Workers gone: only happens on teardown.
                        state.connections.queue_depth.fetch_sub(1, Ordering::Relaxed);
                        return;
                    }
                    progress = true;
                }
                Polled::Idle { read } => {
                    progress |= read;
                    i += 1;
                }
                Polled::TooLong => {
                    let mut conn = parked.swap_remove(i);
                    conn.note_request();
                    // Still non-blocking: one short line fits the fresh send
                    // buffer, and a peer that cannot take it is dropped anyway.
                    let _ = conn.stream.write_all(state.line_too_long().as_bytes());
                    let _ = conn.stream.shutdown(Shutdown::Write);
                    progress = true;
                }
                Polled::Closed => {
                    parked.swap_remove(i);
                    progress = true;
                }
            }
        }
        if !inbound_open && parked.is_empty() {
            return; // accept loop and workers both done
        }
        if progress {
            backoff = std::time::Duration::from_micros(POLL_BACKOFF_START_MICROS);
        } else {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(POLL_INTERVAL_MAX);
        }
    }
}

/// A worker: picks one ready request, serves it, re-parks the connection.
fn worker_loop(
    state: &Arc<ServerState>,
    ready: &Arc<Mutex<mpsc::Receiver<ReadyRequest>>>,
    park: &mpsc::Sender<Connection>,
) {
    loop {
        // Holding the lock while blocked in `recv` is the standard shared-
        // receiver pattern: exactly one idle worker waits on the channel.
        // lint: allow(lock-discipline, exactly one idle worker blocks in recv by design)
        let request = ready.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(request) = request else { return }; // poller gone, queue drained
        state.connections.queue_depth.fetch_sub(1, Ordering::Relaxed);
        if let Err(e) = serve_one(state, request, park) {
            // Connection-level I/O errors (resets, truncated lines) only
            // affect that client.
            eprintln!("rpq-server: connection error: {e}");
        }
    }
}

/// Serves one request end to end: decode, handle, respond, then either
/// re-park the connection (keep-alive), close it (EOF) or initiate shutdown.
fn serve_one(
    state: &Arc<ServerState>,
    request: ReadyRequest,
    park: &mpsc::Sender<Connection>,
) -> io::Result<()> {
    let ReadyRequest { mut conn, line, eof } = request;
    // Blocking for the response write: responses can exceed the socket
    // buffer (large batches), and a worker owns the connection anyway.
    conn.stream.set_nonblocking(false)?;
    // Counted before handling so a `stats` request sees itself, matching the
    // top-level `requests` counter's semantics.
    conn.note_request();
    if respond(state, &line, &mut conn.stream)? {
        state.initiate_shutdown();
        return Ok(()); // connection drops: the client saw its response
    }
    if eof {
        return Ok(());
    }
    conn.stream.set_nonblocking(true)?;
    // A send error means the poller exited (shutdown raced us): the
    // connection just closes.
    let _ = park.send(conn);
    Ok(())
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds a listener on `addr` (e.g. `127.0.0.1:0` for an OS-assigned
    /// port) with the given configuration.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let state = Arc::new(ServerState::new(config));
        *state.addr.lock().unwrap_or_else(PoisonError::into_inner) = Some(listener.local_addr()?);
        Ok(Server { listener, state })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state (counters, cache).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Accepts and serves connections until a `shutdown` request arrives.
    /// Requests already extracted into the ready-queue are answered before
    /// the workers exit; parked idle connections are dropped.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, state } = self;
        let (to_poller, from_accept) = mpsc::channel::<Connection>();
        let (to_workers, ready_receiver) = mpsc::channel::<ReadyRequest>();
        let ready_receiver = Arc::new(Mutex::new(ready_receiver));
        let (park_sender, from_workers) = mpsc::channel::<Connection>();

        let poller: JoinHandle<()> = {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                poller_loop(&state, &from_accept, &from_workers, &to_workers)
            })
        };
        let workers: Vec<JoinHandle<()>> = (0..state.threads)
            .map(|_| {
                let state = Arc::clone(&state);
                let ready = Arc::clone(&ready_receiver);
                let park = park_sender.clone();
                std::thread::spawn(move || worker_loop(&state, &ready, &park))
            })
            .collect();
        // Workers hold the only park senders: when they exit, the poller's
        // from_workers channel reports disconnected.
        drop(park_sender);

        for stream in listener.incoming() {
            if state.is_shutting_down() {
                break; // the stream waking us up is dropped unanswered
            }
            match stream {
                Ok(stream) => match Connection::adopt(&state, stream) {
                    Ok(conn) => {
                        let _ = to_poller.send(conn); // poller outlives accepts
                    }
                    Err(e) => eprintln!("rpq-server: cannot adopt connection: {e}"),
                },
                Err(e) => eprintln!("rpq-server: accept error: {e}"),
            }
        }
        drop(to_poller);
        let mut panicked = poller.join().is_err();
        // The poller dropped `to_workers`: workers drain the remaining ready
        // requests (answering them) and exit. Join every thread before
        // reporting so none is left detached.
        for worker in workers {
            panicked |= worker.join().is_err();
        }
        if panicked {
            return Err(io::Error::other("a server thread panicked"));
        }
        Ok(())
    }

    /// Runs the server on a background thread, returning its address and a
    /// join handle (convenience for tests and benchmarks).
    pub fn spawn(self) -> io::Result<SpawnedServer> {
        let addr = self.local_addr()?;
        let state = self.state();
        let handle = std::thread::spawn(move || self.run());
        Ok(SpawnedServer { addr, state, handle })
    }
}

/// A server running on a background thread (see [`Server::spawn`]).
pub struct SpawnedServer {
    /// The bound address.
    pub addr: SocketAddr,
    state: Arc<ServerState>,
    handle: JoinHandle<io::Result<()>>,
}

impl SpawnedServer {
    /// The shared state (counters, cache).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Waits for the server to exit (after a `shutdown` request).
    pub fn join(self) -> io::Result<()> {
        self.handle.join().map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// The one response writer of both front ends: answers `line`, writes the
/// response and its `\n` to `out` and flushes. Returns whether the request
/// asked the server to shut down.
fn respond(state: &ServerState, line: &[u8], out: &mut impl Write) -> io::Result<bool> {
    let (mut response, shutdown) = state.answer(line);
    response.push('\n');
    out.write_all(response.as_bytes())?;
    out.flush()?;
    Ok(shutdown)
}

/// Serves the protocol over a reader/writer pair — `rpq-cli serve --pipe`
/// uses stdin/stdout. Returns at EOF or after a `shutdown` request. The pipe
/// front end is single-threaded but answers through the same
/// [`ServerState::answer`] as the TCP front end. It reads the operator's own
/// input, so unlike a TCP connection its lines are not length-capped.
pub fn run_pipe(
    state: &ServerState,
    mut input: impl BufRead,
    mut output: impl Write,
) -> io::Result<()> {
    let mut buffer: Vec<u8> = Vec::new();
    loop {
        buffer.clear();
        if input.read_until(b'\n', &mut buffer)? == 0 {
            break; // EOF
        }
        if buffer.ends_with(b"\n") {
            buffer.pop();
        }
        if buffer.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        if respond(state, &buffer, &mut output)? {
            state.shutdown.store(true, Ordering::SeqCst);
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ServerState {
        ServerState::new(ServerConfig::default())
    }

    fn request(state: &ServerState, line: &str) -> Json {
        let (response, _) = state.answer(line.as_bytes());
        Json::parse(&response).expect("responses are valid JSON")
    }

    #[test]
    fn prepare_reports_plan_and_cache_status() {
        let state = state();
        let first = request(&state, r#"{"op":"prepare","query":"ax*b"}"#);
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
        assert_eq!(
            first.get("plan").unwrap().get("algorithm").and_then(Json::as_str),
            Some("local")
        );
        // A differently spelled but equivalent regex hits the cache.
        let second = request(&state, r#"{"op":"prepare","query":"a(x)*b"}"#);
        assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(second.get("fingerprint"), first.get("fingerprint"));
    }

    #[test]
    fn solve_returns_values_and_cuts() {
        let state = state();
        let response =
            request(&state, r#"{"op":"solve","query":"ax*b","db":"s a u\nu x v\nv b t\n"}"#);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("value"), Some(&Json::Int(1)));
        assert_eq!(response.get("algorithm").and_then(Json::as_str), Some("local"));
        assert_eq!(response.get("exact"), Some(&Json::Bool(true)));
        assert_eq!(response.get("contingency_set").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn solve_responses_report_the_answering_tier() {
        let state = state();
        // No budget: the planned backend answers; tier/degraded/route are
        // reported all the same.
        let response =
            request(&state, r#"{"op":"solve","query":"ax*b","db":"s a u\nu x v\nv b t\n"}"#);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("tier").and_then(Json::as_str), Some("poly"));
        assert_eq!(response.get("degraded"), Some(&Json::Bool(false)));
        assert!(response.get("route").and_then(Json::as_str).is_some(), "{response}");
        // Batch entries carry the verdict too.
        let batch = request(
            &state,
            r#"{"op":"solve_batch","query":"ab","dbs":["u a v\nv b w\n","u a v\n"]}"#,
        );
        for entry in batch.get("results").unwrap().as_array().unwrap() {
            assert_eq!(entry.get("tier").and_then(Json::as_str), Some("poly"), "{entry}");
            assert_eq!(entry.get("degraded"), Some(&Json::Bool(false)), "{entry}");
        }
        let stats = request(&state, r#"{"op":"stats"}"#);
        let router = stats.get("router").unwrap();
        assert_eq!(router.get("poly"), Some(&Json::Int(3)), "{stats}");
        assert_eq!(router.get("degraded"), Some(&Json::Int(0)), "{stats}");
    }

    #[test]
    fn a_tiny_deadline_degrades_to_certified_bounds() {
        let state = state();
        // `deadline_ms: 0` can never fit any projected cost: the router must
        // still answer, with certified bounds and the tier that produced
        // them — never an uncertified guess, never a refusal.
        let response = request(
            &state,
            r#"{"op":"solve","query":"ax*b","deadline_ms":0,"db":"s a u\nu x v\nv b t\n"}"#,
        );
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
        assert_eq!(response.get("tier").and_then(Json::as_str), Some("approx"));
        assert_eq!(response.get("degraded"), Some(&Json::Bool(true)));
        assert_eq!(response.get("exact"), Some(&Json::Bool(false)));
        let bounds = response.get("bounds").unwrap().as_array().unwrap();
        // The exact resilience of a x* b on the 3-fact path is 1.
        let lower = bounds[0].as_int().unwrap();
        let upper = bounds[1].as_int().unwrap();
        assert!(lower <= 1 && 1 <= upper, "{response}");
        // The same request without the deadline is bit-identical to the
        // pre-router behavior: exact value 1.
        let exact =
            request(&state, r#"{"op":"solve","query":"ax*b","db":"s a u\nu x v\nv b t\n"}"#);
        assert_eq!(exact.get("value"), Some(&Json::Int(1)));
        assert_eq!(exact.get("exact"), Some(&Json::Bool(true)));
        let stats = request(&state, r#"{"op":"stats"}"#);
        let router = stats.get("router").unwrap();
        assert_eq!(router.get("degraded"), Some(&Json::Int(1)), "{stats}");
        assert_eq!(router.get("approx"), Some(&Json::Int(1)), "{stats}");
    }

    #[test]
    fn db_solve_reports_result_cache_hits() {
        let state = state();
        request(&state, r#"{"op":"db_put","name":"g","db":"s a u\nu x v\nv b t\n"}"#);
        let first = request(&state, r#"{"op":"db_solve","name":"g","query":"ax*b","snapshot":3}"#);
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{first}");
        assert_eq!(first.get("result_cached"), Some(&Json::Bool(false)));
        let second = request(&state, r#"{"op":"db_solve","name":"g","query":"ax*b","snapshot":3}"#);
        assert_eq!(second.get("result_cached"), Some(&Json::Bool(true)), "{second}");
        assert_eq!(second.get("value"), first.get("value"));
        assert_eq!(second.get("tier").and_then(Json::as_str), Some("poly"));
        let stats = request(&state, r#"{"op":"stats"}"#);
        let store = stats.get("store").unwrap();
        assert_eq!(store.get("result_hits"), Some(&Json::Int(1)), "{stats}");
        assert_eq!(store.get("result_misses"), Some(&Json::Int(1)), "{stats}");
        let metrics = request(&state, r#"{"op":"metrics"}"#);
        let text = metrics.get("metrics").and_then(Json::as_str).unwrap();
        assert!(text.contains("rpq_store_result_cache_hits_total 1"), "{text}");
    }

    #[test]
    fn a_deep_ready_queue_sheds_load_through_the_router() {
        let state = state();
        // Simulate a backlog: the router's probe reads this gauge.
        state.connections.queue_depth.store(DEFAULT_SHED_QUEUE_DEPTH + 1, Ordering::Relaxed);
        assert!(state.router.is_overloaded());
        // A cheap solve still fits inside the shed budget and answers
        // exactly — shedding degrades *gracefully*, it does not refuse.
        let response = request(&state, r#"{"op":"solve","query":"ab","db":"u a v\nv b w\n"}"#);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("exact"), Some(&Json::Bool(true)));
        let stats = request(&state, r#"{"op":"stats"}"#);
        let router = stats.get("router").unwrap();
        assert_eq!(router.get("overloaded"), Some(&Json::Bool(true)), "{stats}");
        assert_eq!(router.get("overload_sheds"), Some(&Json::Int(1)), "{stats}");
        // Backlog drained: budgets pass through untightened again.
        state.connections.queue_depth.store(0, Ordering::Relaxed);
        let stats = request(&state, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("router").unwrap().get("overloaded"), Some(&Json::Bool(false)));
        let metrics = request(&state, r#"{"op":"metrics"}"#);
        let text = metrics.get("metrics").and_then(Json::as_str).unwrap();
        assert!(text.contains("rpq_overload_sheds_total 1"), "{text}");
        assert!(text.contains("rpq_routed_total{tier=\"poly\"} 1"), "{text}");
    }

    #[test]
    fn solve_batch_mixes_successes_and_per_database_errors() {
        let state = state();
        let response = request(
            &state,
            r#"{"op":"solve_batch","query":"ab","dbs":["u a v\nv b w\n","u ab v"]}"#,
        );
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        let results = response.get("results").unwrap().as_array().unwrap();
        assert_eq!(results[0].get("value"), Some(&Json::Int(1)));
        assert_eq!(results[1].get("ok"), Some(&Json::Bool(false)));
        assert!(results[1].get("error").and_then(Json::as_str).unwrap().contains("parse"));
    }

    #[test]
    fn per_database_batch_failures_increment_the_errors_stat() {
        let state = state();
        // Two parse failures and one success inside an `"ok":true` batch.
        let response = request(
            &state,
            r#"{"op":"solve_batch","query":"ab","dbs":["u a v\nv b w\n","u ab v","!!"]}"#,
        );
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        let stats = request(&state, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("errors"), Some(&Json::Int(2)), "{stats}");
        // A per-database *solve* failure counts too: forced enumeration with
        // a tiny limit fails on the larger database only.
        let response = request(
            &state,
            r#"{"op":"solve_batch","query":"aa","algorithm":"enumeration","enumeration_limit":2,"dbs":["1 a 2\n","1 a 2\n2 a 3\n3 a 4\n"]}"#,
        );
        let results = response.get("results").unwrap().as_array().unwrap();
        assert_eq!(results[0].get("value"), Some(&Json::Int(0)));
        assert_eq!(results[1].get("ok"), Some(&Json::Bool(false)));
        let stats = request(&state, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("errors"), Some(&Json::Int(3)), "{stats}");
    }

    #[test]
    fn batch_jobs_setting_reaches_the_parallel_path() {
        let state = state();
        // jobs > 1 exercises the scoped-thread batch; results stay in order.
        let response = request(
            &state,
            r#"{"op":"solve_batch","query":"ax*b","jobs":3,"dbs":["s a u\nu b t\n","s a u\n","s a u\nu x v\nv b t\n"]}"#,
        );
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        let values: Vec<_> = response
            .get("results")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|r| r.get("value").unwrap().clone())
            .collect();
        assert_eq!(values, vec![Json::Int(1), Json::Int(0), Json::Int(1)]);
    }

    #[test]
    fn invalid_utf8_request_lines_get_an_explicit_error() {
        let state = state();
        let mut line = br#"{"op":"prepare","query":""#.to_vec();
        line.extend([0xFF, 0xFE]); // not UTF-8
        line.extend(br#""}"#);
        let (response, shutdown) = state.answer(&line);
        assert!(!shutdown);
        let json = Json::parse(&response).unwrap();
        assert_eq!(json.get("ok"), Some(&Json::Bool(false)));
        let error = json.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("invalid encoding"), "{error}");
        assert!(error.contains("UTF-8"), "{error}");
        // Counted as a request and an error.
        let stats = request(&state, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("requests"), Some(&Json::Int(2)));
        assert_eq!(stats.get("errors"), Some(&Json::Int(1)));
    }

    #[test]
    fn per_request_settings_reach_the_engine() {
        let state = state();
        // ε ∈ L: infinite resilience.
        let response = request(&state, r#"{"op":"solve","query":"a*","db":"u a v\n"}"#);
        assert_eq!(response.get("value").and_then(Json::as_str), Some("infinite"));
        // Bag semantics multiply the cut cost by the multiplicity.
        let set = request(&state, r#"{"op":"solve","query":"a","db":"u a v 5\n"}"#);
        assert_eq!(set.get("value"), Some(&Json::Int(1)));
        let bag = request(&state, r#"{"op":"solve","query":"a","bag":true,"db":"u a v 5\n"}"#);
        assert_eq!(bag.get("value"), Some(&Json::Int(5)));
        // Forced enumeration with a tiny limit yields a typed error.
        let response = request(
            &state,
            r#"{"op":"solve","query":"aa","algorithm":"enumeration","enumeration_limit":2,"db":"1 a 2\n2 a 3\n3 a 4\n"}"#,
        );
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        assert!(response.get("error").and_then(Json::as_str).unwrap().contains("limit"));
        // The removed approximation backends are unknown names.
        let response = request(
            &state,
            r#"{"op":"solve","query":"aa","algorithm":"greedy","db":"1 a 2\n2 a 3\n3 a 4\n"}"#,
        );
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        let error = response.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("unknown algorithm `greedy`"), "{error}");
    }

    #[test]
    fn want_cut_false_yields_value_only_responses_from_one_cache_entry() {
        let state = state();
        // One-dangling query: the backend now extracts witnesses by default.
        let db = "1 a 2\\n2 b 3\\n3 c 4\\n3 e 5\\n";
        let with_cut =
            request(&state, &format!(r#"{{"op":"solve","query":"abc|be","db":"{db}"}}"#));
        assert_eq!(with_cut.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(with_cut.get("algorithm").and_then(Json::as_str), Some("one-dangling"));
        assert_eq!(with_cut.get("contingency_set").unwrap().as_array().unwrap().len(), 1);
        // Opting out drops the witness but reuses the same cached plan.
        let value_only = request(
            &state,
            &format!(r#"{{"op":"solve","query":"abc|be","want_cut":false,"db":"{db}"}}"#),
        );
        assert_eq!(value_only.get("value"), with_cut.get("value"));
        assert!(value_only.get("contingency_set").is_none());
        assert_eq!(value_only.get("cached"), Some(&Json::Bool(true)));
        let stats = request(&state, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("cache").unwrap().get("entries"), Some(&Json::Int(1)));
        // Batches honor the flag too.
        let batch = request(
            &state,
            &format!(r#"{{"op":"solve_batch","query":"abc|be","want_cut":false,"dbs":["{db}"]}}"#),
        );
        let results = batch.get("results").unwrap().as_array().unwrap();
        assert!(results[0].get("contingency_set").is_none());
    }

    #[test]
    fn db_verbs_round_trip_with_incremental_solves() {
        let state = state();
        let put = request(&state, r#"{"op":"db_put","name":"g","db":"s a u\nu x v\nv b t\n"}"#);
        assert_eq!(put.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(put.get("snapshot"), Some(&Json::Int(3)));
        assert_eq!(put.get("facts"), Some(&Json::Int(3)));
        // First solve at the head: a full build, bound to snapshot 3.
        let first = request(&state, r#"{"op":"db_solve","name":"g","query":"ax*b"}"#);
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{first}");
        assert_eq!(first.get("snapshot"), Some(&Json::Int(3)));
        assert_eq!(first.get("value"), Some(&Json::Int(1)));
        assert_eq!(first.get("incremental"), Some(&Json::Bool(false)));
        assert_eq!(first.get("contingency_set").unwrap().as_array().unwrap().len(), 1);
        // Patch out the only x-path; the follow-up solve rides the
        // incremental path and sees the new value.
        let patch = request(&state, r#"{"op":"db_patch","name":"g","patch":"- u x v\n"}"#);
        assert_eq!(patch.get("snapshot"), Some(&Json::Int(4)));
        assert_eq!(patch.get("applied"), Some(&Json::Int(1)));
        let second = request(&state, r#"{"op":"db_solve","name":"g","query":"ax*b"}"#);
        assert_eq!(second.get("snapshot"), Some(&Json::Int(4)));
        assert_eq!(second.get("value"), Some(&Json::Int(0)));
        assert_eq!(second.get("incremental"), Some(&Json::Bool(true)));
        // Name the pre-patch snapshot and solve both in one request.
        let named =
            request(&state, r#"{"op":"db_snapshot","name":"g","snapshot_name":"before","at":3}"#);
        assert_eq!(named.get("snapshot"), Some(&Json::Int(3)));
        let both = request(
            &state,
            r#"{"op":"db_solve","name":"g","query":"ax*b","snapshots":["before",4]}"#,
        );
        assert_eq!(both.get("ok"), Some(&Json::Bool(true)));
        let results = both.get("results").unwrap().as_array().unwrap();
        assert_eq!(results[0].get("snapshot"), Some(&Json::Int(3)));
        assert_eq!(results[0].get("value"), Some(&Json::Int(1)));
        assert_eq!(results[1].get("snapshot"), Some(&Json::Int(4)));
        assert_eq!(results[1].get("value"), Some(&Json::Int(0)));
        // The listing shows the log, the pin and the head snapshot.
        let list = request(&state, r#"{"op":"db_list"}"#);
        let dbs = list.get("databases").unwrap().as_array().unwrap();
        assert_eq!(dbs.len(), 1);
        assert_eq!(dbs[0].get("name").and_then(Json::as_str), Some("g"));
        assert_eq!(dbs[0].get("snapshot"), Some(&Json::Int(4)));
        assert_eq!(dbs[0].get("named").unwrap().get("before"), Some(&Json::Int(3)));
        // Stats expose the store metrics, including the solve-mode split.
        let stats = request(&state, r#"{"op":"stats"}"#);
        let store = stats.get("store").unwrap();
        assert_eq!(store.get("databases"), Some(&Json::Int(1)));
        assert_eq!(store.get("log_entries"), Some(&Json::Int(4)));
        assert!(store.get("incremental_solves").unwrap().as_int().unwrap() >= 1);
        assert!(store.get("full_solves").unwrap().as_int().unwrap() >= 1);
        // Dropping is idempotent and reported.
        let drop = request(&state, r#"{"op":"db_drop","name":"g"}"#);
        assert_eq!(drop.get("dropped"), Some(&Json::Bool(true)));
        let drop = request(&state, r#"{"op":"db_drop","name":"g"}"#);
        assert_eq!(drop.get("dropped"), Some(&Json::Bool(false)));
    }

    #[test]
    fn db_solve_batches_carry_per_snapshot_errors_without_failing_the_request() {
        let state = state();
        request(&state, r#"{"op":"db_put","name":"g","db":"1 a 2\n2 a 3\n3 a 4\n"}"#);
        // Forced enumeration with a tiny limit fails per snapshot — but a
        // shorter historical snapshot still answers, and each failure entry
        // names its resolved snapshot id.
        let response = request(
            &state,
            r#"{"op":"db_solve","name":"g","query":"aa","algorithm":"enumeration","enumeration_limit":2,"snapshots":[1,3,"ghost"]}"#,
        );
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
        let results = response.get("results").unwrap().as_array().unwrap();
        assert_eq!(results[0].get("value"), Some(&Json::Int(0)));
        assert_eq!(results[1].get("ok"), Some(&Json::Bool(false)));
        assert_eq!(results[1].get("snapshot"), Some(&Json::Int(3)), "{response}");
        assert!(results[1].get("error").and_then(Json::as_str).unwrap().contains("limit"));
        assert_eq!(results[2].get("code").and_then(Json::as_str), Some("unknown_snapshot"));
        let stats = request(&state, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("errors"), Some(&Json::Int(2)), "{stats}");
        // The inline form reports the same failures as a plain error (typed
        // for store problems, snapshot-stamped for engine ones).
        let missing = request(&state, r#"{"op":"db_solve","name":"nope","query":"aa"}"#);
        assert_eq!(missing.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(missing.get("code").and_then(Json::as_str), Some("unknown_database"));
        let failed = request(
            &state,
            r#"{"op":"db_solve","name":"g","query":"aa","algorithm":"enumeration","enumeration_limit":2}"#,
        );
        assert_eq!(failed.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(failed.get("snapshot"), Some(&Json::Int(3)));
    }

    #[test]
    fn oversized_db_bodies_are_rejected_with_a_typed_error() {
        let config = ServerConfig {
            store: rpq_store::StoreConfig { capacity: 64, max_body_bytes: 24 },
            ..ServerConfig::default()
        };
        let state = ServerState::new(config);
        let response = request(
            &state,
            r#"{"op":"db_put","name":"g","db":"s a u\nu x v\nv b t\nmore facts beyond the cap\n"}"#,
        );
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(response.get("code").and_then(Json::as_str), Some("body_too_large"));
        assert!(response.get("error").and_then(Json::as_str).unwrap().contains("24-byte limit"));
    }

    #[test]
    fn a_panicking_handler_costs_one_error_response_and_the_connection_lives_on() {
        use std::io::{BufRead, BufReader, Write};
        let config = ServerConfig { threads: 1, ..ServerConfig::default() };
        let running = Server::bind("127.0.0.1:0", config).unwrap().spawn().unwrap();
        let state = running.state();
        let stream = TcpStream::connect(running.addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut call = |line: &str| {
            writer.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            Json::parse(&response).expect("responses are valid JSON")
        };
        state.fail_next.store(true, Ordering::Relaxed);
        let failed = call(r#"{"op":"db_list"}"#);
        assert_eq!(failed.get("ok"), Some(&Json::Bool(false)), "{failed}");
        assert_eq!(failed.get("code").and_then(Json::as_str), Some("internal_error"));
        // The one worker survived: the same connection is answered.
        let stats = call(r#"{"op":"stats"}"#);
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats}");
        assert_eq!(stats.get("panics"), Some(&Json::Int(1)), "{stats}");
        assert_eq!(stats.get("errors"), Some(&Json::Int(1)), "{stats}");
        let metrics = call(r#"{"op":"metrics"}"#);
        let text = metrics.get("metrics").and_then(Json::as_str).unwrap();
        assert!(text.contains("rpq_panics_total 1"), "{text}");
        call(r#"{"op":"shutdown"}"#);
        running.join().unwrap();
    }

    #[test]
    fn stats_and_errors_are_counted() {
        let state = state();
        request(&state, r#"{"op":"prepare","query":"a|b"}"#);
        request(&state, r#"{"op":"prepare","query":"b|a"}"#);
        request(&state, "garbage");
        let stats = request(&state, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(stats.get("requests"), Some(&Json::Int(4)));
        assert_eq!(stats.get("errors"), Some(&Json::Int(1)));
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("hits"), Some(&Json::Int(1)));
        assert_eq!(cache.get("misses"), Some(&Json::Int(1)));
        assert_eq!(cache.get("entries"), Some(&Json::Int(1)));
        assert!(cache.get("shards").unwrap().as_int().unwrap() >= 1);
        // The pipe/handler path opens no TCP connections: all gauges zero.
        let connections = stats.get("connections").unwrap();
        assert_eq!(connections.get("open"), Some(&Json::Int(0)));
        assert_eq!(connections.get("accepted"), Some(&Json::Int(0)));
        assert_eq!(connections.get("queue_depth"), Some(&Json::Int(0)));
    }

    #[test]
    fn solve_responses_always_carry_elapsed_us() {
        let state = state();
        let ok = request(&state, r#"{"op":"solve","query":"ab","db":"u a v\nv b w\n"}"#);
        assert_eq!(ok.get("ok"), Some(&Json::Bool(true)));
        assert!(ok.get("elapsed_us").unwrap().as_int().is_some(), "{ok}");
        // No tracing was requested: no timings object rides along.
        assert!(ok.get("timings").is_none());
        // Error responses carry the stopwatch too.
        let err = request(&state, r#"{"op":"solve","query":"ab","db":"!!"}"#);
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        assert!(err.get("elapsed_us").unwrap().as_int().is_some(), "{err}");
        // Batches and hosted solves as well.
        let batch = request(&state, r#"{"op":"solve_batch","query":"ab","dbs":["u a v\n"]}"#);
        assert!(batch.get("elapsed_us").unwrap().as_int().is_some(), "{batch}");
        request(&state, r#"{"op":"db_put","name":"g","db":"u a v\nv b w\n"}"#);
        let hosted = request(&state, r#"{"op":"db_solve","name":"g","query":"ab"}"#);
        assert!(hosted.get("elapsed_us").unwrap().as_int().is_some(), "{hosted}");
    }

    #[test]
    fn traced_solves_return_phase_timings_consistent_with_elapsed() {
        let state = state();
        let response = request(
            &state,
            r#"{"op":"solve","query":"ax*b","trace":true,"db":"s a u\nu x v\nv b t\n"}"#,
        );
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        let elapsed = response.get("elapsed_us").unwrap().as_int().unwrap();
        let Json::Object(timings) = response.get("timings").unwrap() else {
            panic!("timings must be an object: {response}");
        };
        let phases: Vec<&str> = timings.iter().map(|(phase, _)| phase.as_str()).collect();
        for expected in ["cache_lookup", "plan", "parse_db", "product_build", "other"] {
            assert!(phases.contains(&expected), "missing {expected} in {phases:?}");
        }
        // The sealed spans cover the request end to end: their sum (which
        // includes the `other` remainder) reaches at least 95% of the
        // whole-request stopwatch.
        let sum: i128 = timings.iter().map(|(_, us)| us.as_int().unwrap()).sum();
        assert!(sum <= elapsed, "span sum {sum} exceeds elapsed {elapsed}");
        assert!(sum * 100 >= elapsed * 95, "span sum {sum} covers <95% of elapsed {elapsed}");
        // A repeat solve hits the cache and still traces.
        let hit = request(
            &state,
            r#"{"op":"solve","query":"ax*b","trace":true,"db":"s a u\nu x v\nv b t\n"}"#,
        );
        assert_eq!(hit.get("cached"), Some(&Json::Bool(true)));
        assert!(hit.get("timings").is_some());
    }

    #[test]
    fn slow_query_log_threshold_enables_tracing_without_wire_timings() {
        // A zero threshold logs every solve; the response stays untraced
        // (timings are opt-in per request) but still carries `elapsed_us`.
        let config = ServerConfig { slow_query_log_us: Some(0), ..ServerConfig::default() };
        let state = ServerState::new(config);
        let response = request(&state, r#"{"op":"solve","query":"ab","db":"u a v\nv b w\n"}"#);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert!(response.get("elapsed_us").is_some());
        assert!(response.get("timings").is_none());
    }

    #[test]
    fn stats_report_uptime_and_per_verb_request_counts() {
        let state = state();
        request(&state, r#"{"op":"prepare","query":"ab"}"#);
        request(&state, r#"{"op":"solve","query":"ab","db":"u a v\n"}"#);
        request(&state, r#"{"op":"solve","query":"ab","db":"u a v\n"}"#);
        request(&state, "garbage"); // parse failures count under no verb
        let stats = request(&state, r#"{"op":"stats"}"#);
        assert!(stats.get("uptime_secs").unwrap().as_int().is_some());
        let by_verb = stats.get("requests_by_verb").unwrap();
        assert_eq!(by_verb.get("prepare"), Some(&Json::Int(1)));
        assert_eq!(by_verb.get("solve"), Some(&Json::Int(2)));
        assert_eq!(by_verb.get("stats"), Some(&Json::Int(1)));
        assert_eq!(by_verb.get("shutdown"), Some(&Json::Int(0)));
        // Every verb is present, so dashboards can rely on the full set.
        if let Json::Object(fields) = by_verb {
            assert_eq!(fields.len(), VERBS.len());
        } else {
            panic!("requests_by_verb must be an object");
        }
        // The verb totals sum to the parsed-request count (requests minus
        // the one parse failure).
        let total: i128 = VERBS.iter().map(|v| by_verb.get(v).unwrap().as_int().unwrap()).sum();
        assert_eq!(total, stats.get("requests").unwrap().as_int().unwrap() - 1);
    }

    #[test]
    fn metrics_verb_exports_prometheus_text() {
        let state = state();
        request(&state, r#"{"op":"solve","query":"ax*b","db":"s a u\nu x v\nv b t\n"}"#);
        request(&state, r#"{"op":"solve","query":"ax*b","db":"s a u\nu x v\nv b t\n"}"#);
        request(&state, r#"{"op":"solve_batch","query":"ab","dbs":["u a v\nv b w\n"]}"#);
        let response = request(&state, r#"{"op":"metrics"}"#);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        let text = response.get("metrics").and_then(Json::as_str).unwrap();
        assert!(text.contains("# TYPE rpq_requests_total counter"), "{text}");
        assert!(text.contains("rpq_requests_total 4"), "{text}");
        assert!(text.contains("rpq_requests_by_verb_total{verb=\"solve\"} 2"), "{text}");
        assert!(text.contains("# TYPE rpq_solve_latency_us histogram"), "{text}");
        let solve_key = "verb=\"solve\",family=\"local\",tier=\"poly\",backend=\"dinic\"";
        assert!(text.contains(&format!("rpq_solve_latency_us_count{{{solve_key}}} 2")), "{text}");
        let batch_key = "verb=\"solve_batch\",family=\"local\",tier=\"poly\",backend=\"dinic\"";
        assert!(text.contains(&format!("rpq_solve_latency_us_count{{{batch_key}}} 1")), "{text}");
        assert!(text.contains(&format!("rpq_solve_latency_us_p99{{{solve_key}}}")), "{text}");
        assert!(text.contains("rpq_cache_misses_total 2"), "{text}");
        assert!(text.contains("le=\"+Inf\""), "{text}");
    }

    #[test]
    fn the_retired_flow_key_is_ignored() {
        // Without `elapsed_us`, the only field that differs between runs.
        let masked = |response: Json| match response {
            Json::Object(fields) => {
                Json::Object(fields.into_iter().filter(|(k, _)| k != "elapsed_us").collect())
            }
            other => other,
        };
        let state = state();
        let plain = r#"{"op":"solve","query":"ax*b","db":"s a u\nu x v\nv b t\n"}"#;
        // The first solve prepares the plan; later ones all report a cache hit.
        request(&state, plain);
        let expected = masked(request(&state, plain));
        assert_eq!(expected.get("ok"), Some(&Json::Bool(true)));
        for flow in ["push-relabel", "bogus"] {
            let line = plain.replace(r#""db""#, &format!(r#""flow":"{flow}","db""#));
            assert_eq!(masked(request(&state, &line)), expected, "{line}");
        }
        let response = request(&state, r#"{"op":"metrics"}"#);
        let text = response.get("metrics").and_then(Json::as_str).unwrap();
        assert!(text.contains("backend=\"dinic\""), "{text}");
        assert_eq!(text.matches("backend=").count(), text.matches("backend=\"dinic\"").count());
    }

    #[test]
    fn pipe_mode_serves_the_same_protocol() {
        let state = state();
        let input = "{\"op\":\"prepare\",\"query\":\"ab|cd\"}\n\n{\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n{\"op\":\"stats\"}\n";
        let mut output = Vec::new();
        run_pipe(&state, input.as_bytes(), &mut output).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().trim().lines().collect();
        // The trailing request after `shutdown` is not served.
        assert_eq!(lines.len(), 3);
        assert!(Json::parse(lines[0]).unwrap().get("plan").is_some());
        assert_eq!(
            Json::parse(lines[2]).unwrap().get("ok"),
            Some(&Json::Bool(true)) // the shutdown acknowledgement
        );
        assert!(state.is_shutting_down());
    }

    #[test]
    fn pipe_mode_reports_invalid_utf8_and_keeps_serving() {
        let state = state();
        let mut input: Vec<u8> = Vec::new();
        input.extend(b"{\"op\":\"prepare\",\"query\":\"a");
        input.extend([0xC3]); // truncated UTF-8 sequence
        input.extend(b"\"}\n{\"op\":\"stats\"}\n");
        let mut output = Vec::new();
        run_pipe(&state, &input[..], &mut output).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().trim().lines().collect();
        assert_eq!(lines.len(), 2, "the pipe keeps serving after the bad line");
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("ok"), Some(&Json::Bool(false)));
        assert!(first.get("error").and_then(Json::as_str).unwrap().contains("invalid encoding"));
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(second.get("errors"), Some(&Json::Int(1)));
    }

    #[test]
    fn pipe_mode_rejects_deeply_nested_requests_and_keeps_serving() {
        // 200,000 nested arrays once overflowed the parser's stack and
        // aborted the process; past the depth limit they are a parse error.
        let state = state();
        let depth = 200_000;
        let input = format!(
            "{{\"op\":\"solve\",\"x\":{}{}}}\n{{\"op\":\"stats\"}}\n",
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let mut output = Vec::new();
        run_pipe(&state, input.as_bytes(), &mut output).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().trim().lines().collect();
        assert_eq!(lines.len(), 2, "the pipe keeps serving after the deep line");
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(first.get("ok"), Some(&Json::Bool(false)));
        assert!(first.get("error").and_then(Json::as_str).unwrap().contains("nesting"), "{first}");
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(second.get("errors"), Some(&Json::Int(1)));
    }
}
