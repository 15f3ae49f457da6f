//! The prepared-query engine: plan once, solve many.
//!
//! The tractable cases of the paper (Theorem 3.13, Propositions 7.6 and 7.9)
//! all hinge on a **query-only** analysis — the infix-free sublanguage, the
//! ε-check, the locality test and its RO-εNFA, the finiteness / bipartite
//! chain analysis, the one-dangling decomposition — that is independent of
//! the database. [`Engine::prepare`] runs that analysis exactly once and
//! caches the result in a [`PreparedQuery`], whose solves then only perform
//! the per-database half of the chosen reduction (building and cutting one
//! flow network, or running the exact search). Server-style
//! workloads that evaluate one query over many databases skip all
//! reclassification:
//!
//! ```
//! use rpq_resilience::engine::Engine;
//! use rpq_resilience::rpq::Rpq;
//! use rpq_graphdb::GraphDb;
//!
//! let engine = Engine::new();
//! let prepared = engine.prepare(&Rpq::parse("a x* b").unwrap()).unwrap();
//! println!("{}", prepared.plan()); // which algorithm, and why
//!
//! let mut db = GraphDb::new();
//! db.add_fact_by_names("s", 'a', "u");
//! db.add_fact_by_names("u", 'x', "v");
//! db.add_fact_by_names("v", 'b', "t");
//! let outcome = prepared.solve(&db).unwrap();
//! assert_eq!(outcome.value.finite(), Some(1));
//! ```
//!
//! Every solve is routed (see [`crate::router`]), and there is one entry
//! point per shape, each taking the per-call values as one [`SolveCall`]:
//! [`PreparedQuery::route`] (one database), [`PreparedQuery::route_batch`]
//! (many databases on worker threads) and [`PreparedQuery::route_incremental`]
//! (successive snapshots of one database). [`PreparedQuery::solve`] and
//! [`PreparedQuery::solve_with_cut_traced`] are unbudgeted shorthands for
//! `route`, and [`Engine::solve`] / [`Engine::solve_with`] prepare and solve
//! in one call.
//!
//! [`SolveOptions`] configures the engine: it gives the subset-enumeration
//! oracle a typed size limit. Whether a contingency set is extracted is a
//! per-call choice ([`SolveCall::want_cut`]), and the router's budgets bound
//! the work of queries that only the exponential exact search answers (with
//! no budget, the search stops at [`crate::exact::WORK_CAP`]).
//! Every flow-based reduction cuts its network with the one MinCut solver of
//! [`rpq_flow`] (Dinic).

use crate::algorithms::chain::ChainPlan;
use crate::algorithms::one_dangling::OneDanglingPlan;
use crate::algorithms::{
    incremental, local, Algorithm, ResilienceError, ResilienceOutcome, SolveScratch,
};
use crate::exact::{
    resilience_by_enumeration_limited, resilience_search, work_budget, DEFAULT_ENUMERATION_LIMIT,
    MAX_ENUMERATION_LIMIT,
};
use crate::router::{CostModel, RouteBudget, Router, TieredOutcome};
use crate::rpq::{ResilienceValue, Rpq};
use rpq_automata::local::is_local;
use rpq_automata::ro_enfa::RoEnfa;
use rpq_graphdb::{FactChange, GraphDb};
use rpq_obs::Trace;
use std::fmt;
use std::sync::Mutex;

/// Configuration of a resilience [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveOptions {
    /// The fact limit of the [`Algorithm::ExactEnumeration`] oracle: larger
    /// databases yield [`ResilienceError::InstanceTooLarge`] instead of a
    /// `2^facts` enumeration.
    pub enumeration_limit: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions { enumeration_limit: DEFAULT_ENUMERATION_LIMIT }
    }
}

/// A resilience solver with fixed [`SolveOptions`]. The engine is stateless
/// besides its options; [`Engine::prepare`] produces the per-query state.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    options: SolveOptions,
}

/// The cached per-query strategy: everything derivable from the language
/// alone, so that solving is purely per-database work.
#[derive(Debug, Clone)]
enum Strategy {
    /// `ε ∈ IF(L)`: the resilience is `+∞` on every database, reported as
    /// [`Algorithm::Local`], the algorithm of every such plan.
    EpsilonInfinite,
    /// Theorem 3.13 with a prepared RO-εNFA.
    Local { ro: RoEnfa },
    /// Proposition 7.6 with a prepared chain plan.
    Chain { plan: ChainPlan },
    /// Proposition 7.9 with a prepared (normalized) decomposition. When
    /// `fallback_to_exact` is set (automatic dispatch), databases with
    /// exogenous facts are routed to the budgeted exact search instead of
    /// erroring.
    OneDangling { plan: Box<OneDanglingPlan>, fallback_to_exact: bool },
    /// The budgeted branch and bound over witness walks.
    ExactBranchAndBound,
    /// Subset enumeration (size-limited reference oracle).
    ExactEnumeration,
}

/// A human- and machine-readable report of a prepared query's plan: which
/// algorithm was chosen and why (see [`PreparedQuery::plan`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReport {
    /// The algorithm the prepared query will run.
    pub algorithm: Algorithm,
    /// Why this algorithm applies (or was forced).
    pub reason: String,
    /// A rendering of the infix-free sublanguage the analysis worked on.
    pub infix_free: String,
    /// Whether the algorithm was forced by the caller rather than chosen by
    /// the classification (see [`Engine::prepare_with`]).
    pub forced: bool,
    /// The structural cost estimate of the chosen backend: growth class and
    /// coefficients calibrated against the committed benchmark artifacts.
    /// [`CostModel::estimate_us_for`] projects it onto a concrete database;
    /// the router compares that projection against the caller's budget.
    pub cost: CostModel,
}

impl fmt::Display for PlanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}: {} [IF(L) = {}]",
            self.algorithm,
            if self.forced { " (forced)" } else { "" },
            self.reason,
            self.infix_free
        )
    }
}

/// An upper bound on the number of [`SolveScratch`] buffers a plan retains:
/// enough for any realistic worker count, small enough that a burst of
/// threads cannot pin unbounded memory to a cached plan.
const MAX_POOLED_SCRATCH: usize = 64;

/// A pool of [`SolveScratch`] buffers owned by a [`PreparedQuery`], so that
/// repeated solves (and each worker thread of a parallel batch) reuse warm
/// flow buffers instead of reallocating them per database. Cloned plans start
/// with a fresh, empty pool.
#[derive(Debug, Default)]
struct ScratchPool(Mutex<Vec<SolveScratch>>);

impl ScratchPool {
    /// Checks a scratch out of the pool (a fresh one when the pool is empty).
    fn take(&self) -> SolveScratch {
        match self.0.lock() {
            Ok(mut pool) => pool.pop().unwrap_or_default(),
            Err(_) => SolveScratch::new(),
        }
    }

    /// Returns a scratch to the pool for the next solve.
    fn put(&self, scratch: SolveScratch) {
        if let Ok(mut pool) = self.0.lock() {
            if pool.len() < MAX_POOLED_SCRATCH {
                pool.push(scratch);
            }
        }
    }
}

/// How a [`PreparedQuery::route_incremental`] call was satisfied: by patching
/// the retained flow network of an earlier snapshot, or by a full
/// per-database build (first solve, another log, an older snapshot,
/// unsupported plan family, oversized delta, fallback guards). Surfaced so
/// callers — the store's `stats`, the benchmarks, the tests — can tell the
/// paths apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveMode {
    /// The retained network was patched and the min-cut warm-started.
    Incremental,
    /// The solve rebuilt from the database (equivalent to a fresh
    /// [`PreparedQuery::route`]), or degraded to a cheaper certified tier.
    Full,
}

/// Where a database stands in a fact log: the log's identity and how many
/// of its entries it applies. See [`PreparedQuery::route_incremental`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogPosition {
    /// The caller's identity for the log, e.g. a number drawn whenever the
    /// log is replaced, so two logs never share one.
    pub log: u64,
    /// The number of the log's entries the database applies.
    pub offset: usize,
}

/// Drives [`PreparedQuery::route_incremental`]: owns the [`SolveScratch`]
/// whose retained flow network survives between solves. A dedicated owner —
/// rather than the plan's pool — because pooled scratches are clobbered by
/// ordinary solves, which would silently invalidate the retained flow.
///
/// The solver records where the database of its retained network stands,
/// and alone decides what a solve does with it: it takes the delta from
/// that position out of the caller's log itself, so no caller can hand it
/// a delta that does not continue the network.
#[derive(Debug, Default)]
pub struct IncrementalSolver {
    pub(crate) scratch: SolveScratch,
    /// Where the database of the last solve that ran the plan stood.
    position: Option<LogPosition>,
}

impl IncrementalSolver {
    /// A fresh solver with no retained state.
    pub fn new() -> IncrementalSolver {
        IncrementalSolver::default()
    }

    /// Verifies the retained incremental state against the flow network it
    /// describes: capacity bounds per edge, conservation at every interior
    /// vertex, and source/target net flow matching the recorded value.
    /// `Ok(())` when nothing is retained yet (fresh solver, or a plan that
    /// fell back to full solves). Debug builds run the same walk after every
    /// incremental resume; tests call this between churn rounds.
    pub fn check_consistency(&self) -> Result<(), String> {
        crate::algorithms::incremental::check_consistency(&self.scratch)
    }

    /// How many of this solver's cut extractions repaired the retained
    /// source side and how many searched the residual graph in full.
    pub fn cut_counts(&self) -> rpq_flow::CutCounts {
        self.scratch.flow.cut_counts()
    }
}

/// The per-call inputs shared by every solve shape ([`PreparedQuery::route`],
/// [`PreparedQuery::route_batch`], [`PreparedQuery::route_incremental`]).
/// Whether a witness is wanted is a per-call flag, not a plan input: one
/// cached `PreparedQuery` serves value-only and with-cut callers alike (the
/// server's query cache relies on this to keep one entry per language).
#[derive(Debug, Clone, Copy)]
pub struct SolveCall<'r> {
    /// Whether to extract an optimal contingency set (when the answering
    /// backend can produce one).
    pub want_cut: bool,
    /// The caller's deadline / cost budget.
    pub budget: RouteBudget,
    /// The router resolving the budget (the server's carries an overload
    /// probe that tightens it while many complete requests wait for a
    /// worker slot).
    pub router: &'r Router,
}

/// The router of [`SolveCall::new`]: budgets pass through untightened.
static SHED_FREE: Router = Router::new();

impl SolveCall<'static> {
    /// An unbudgeted call through a shed-free router: the planned backend
    /// always runs.
    pub fn new(want_cut: bool) -> SolveCall<'static> {
        SolveCall { want_cut, budget: RouteBudget::UNLIMITED, router: &SHED_FREE }
    }
}

/// A query whose full plan (classification, automata, decompositions, chosen
/// algorithm) has been computed once by [`Engine::prepare`]; solving is pure
/// per-database work over pooled [`SolveScratch`] buffers.
#[derive(Debug)]
pub struct PreparedQuery {
    rpq: Rpq,
    options: SolveOptions,
    strategy: Strategy,
    report: PlanReport,
    scratch: ScratchPool,
}

impl Clone for PreparedQuery {
    fn clone(&self) -> PreparedQuery {
        PreparedQuery {
            rpq: self.rpq.clone(),
            options: self.options,
            strategy: self.strategy.clone(),
            report: self.report.clone(),
            // Scratch buffers are per-plan working memory, not plan state.
            scratch: ScratchPool::default(),
        }
    }
}

impl Engine {
    /// An engine with default options (enumeration limit 24).
    pub fn new() -> Engine {
        Engine::default()
    }

    /// An engine with explicit options.
    pub fn with_options(options: SolveOptions) -> Engine {
        Engine { options }
    }

    /// The engine's options.
    pub fn options(&self) -> &SolveOptions {
        &self.options
    }

    /// Runs the full query-only analysis and caches the resulting plan.
    /// Picks the best applicable algorithm for the query's infix-free
    /// sublanguage, in this order:
    ///
    /// 1. `ε ∈ IF(L)` → the resilience is `+∞` on every database;
    /// 2. `IF(L)` local → Theorem 3.13;
    /// 3. `IF(L)` a bipartite chain language → Proposition 7.6;
    /// 4. `IF(L)` one-dangling → Proposition 7.9 (with a per-database
    ///    fallback to the exact search for exogenous facts, which the
    ///    rewriting does not support);
    /// 5. otherwise → the budgeted exact branch and bound.
    pub fn prepare(&self, rpq: &Rpq) -> Result<PreparedQuery, ResilienceError> {
        self.prepare_traced(rpq, &mut Trace::disabled())
    }

    /// [`Engine::prepare`] with phase tracing: when `trace` is enabled the
    /// analysis records `canonicalize` (infix-free sublanguage derivation),
    /// `classify` (ε-check and locality test) and `plan` (automaton /
    /// decomposition construction) spans. A disabled trace makes this
    /// identical to [`Engine::prepare`].
    pub fn prepare_traced(
        &self,
        rpq: &Rpq,
        trace: &mut Trace,
    ) -> Result<PreparedQuery, ResilienceError> {
        let canon_timer = trace.begin();
        let if_language = rpq.infix_free_language();
        let infix_free = if_language.description().to_string();
        trace.end(canon_timer, "canonicalize");
        let prepared = |strategy: Strategy, algorithm: Algorithm, reason: String| PreparedQuery {
            rpq: rpq.clone(),
            options: self.options,
            strategy,
            report: PlanReport {
                algorithm,
                reason,
                infix_free: infix_free.clone(),
                forced: false,
                cost: CostModel::for_plan(algorithm),
            },
            scratch: ScratchPool::default(),
        };

        let classify_timer = trace.begin();
        let has_epsilon = if_language.contains_epsilon();
        let local = !has_epsilon && is_local(&if_language);
        trace.end(classify_timer, "classify");
        if has_epsilon {
            return Ok(prepared(
                Strategy::EpsilonInfinite,
                Algorithm::Local,
                "ε ∈ IF(L): the query holds on every sub-database, resilience is +∞".to_string(),
            ));
        }
        let plan_timer = trace.begin();
        if local {
            let ro = RoEnfa::for_local_language(&if_language)?;
            trace.end(plan_timer, "plan");
            return Ok(prepared(
                Strategy::Local { ro },
                Algorithm::Local,
                "IF(L) is a local language: RO-εNFA product reduction to MinCut (Theorem 3.13)"
                    .to_string(),
            ));
        }
        match ChainPlan::from_infix_free(&if_language, rpq.language()) {
            Ok(plan) => {
                let reason = format!(
                    "IF(L) is a bipartite chain language ({} words): MinCut reduction \
                     (Proposition 7.6)",
                    plan.num_words()
                );
                trace.end(plan_timer, "plan");
                return Ok(prepared(Strategy::Chain { plan }, Algorithm::BipartiteChain, reason));
            }
            Err(ResilienceError::NotApplicable { .. }) => {}
            Err(e) => return Err(e),
        }
        match OneDanglingPlan::from_infix_free(&if_language, rpq.language()) {
            Ok(plan) => {
                let reason = format!(
                    "IF(L) is one-dangling (dangling word {}): rewriting to a local instance \
                     over extended bag semantics (Proposition 7.9)",
                    plan.dangling_word()
                );
                trace.end(plan_timer, "plan");
                return Ok(prepared(
                    Strategy::OneDangling { plan: Box::new(plan), fallback_to_exact: true },
                    Algorithm::OneDangling,
                    reason,
                ));
            }
            Err(ResilienceError::NotApplicable { .. }) => {}
            Err(e) => return Err(e),
        }
        trace.end(plan_timer, "plan");
        Ok(prepared(
            Strategy::ExactBranchAndBound,
            Algorithm::ExactBranchAndBound,
            "IF(L) escapes every known tractable family (the problem is NP-hard for every \
             language known to do so, Sections 4–6): budgeted branch and bound"
                .to_string(),
        ))
    }

    /// Prepares a query with an explicitly chosen algorithm, failing with
    /// [`ResilienceError::NotApplicable`] when the language does not qualify.
    pub fn prepare_with(
        &self,
        algorithm: Algorithm,
        rpq: &Rpq,
    ) -> Result<PreparedQuery, ResilienceError> {
        let if_language = rpq.infix_free_language();
        let prepared = |strategy: Strategy| PreparedQuery {
            rpq: rpq.clone(),
            options: self.options,
            strategy,
            report: PlanReport {
                algorithm,
                reason: format!("algorithm `{algorithm}` requested by the caller"),
                infix_free: if_language.description().to_string(),
                forced: true,
                cost: CostModel::for_plan(algorithm),
            },
            scratch: ScratchPool::default(),
        };
        let strategy = match algorithm {
            Algorithm::Local => {
                if !is_local(&if_language) {
                    return Err(ResilienceError::NotApplicable {
                        algorithm,
                        reason: format!("IF({}) is not a local language", rpq.language()),
                    });
                }
                if if_language.contains_epsilon() {
                    Strategy::EpsilonInfinite
                } else {
                    Strategy::Local { ro: RoEnfa::for_local_language(&if_language)? }
                }
            }
            Algorithm::BipartiteChain => {
                let plan = ChainPlan::from_infix_free(&if_language, rpq.language())?;
                Strategy::Chain { plan }
            }
            Algorithm::OneDangling => {
                let plan = OneDanglingPlan::from_infix_free(&if_language, rpq.language())?;
                Strategy::OneDangling { plan: Box::new(plan), fallback_to_exact: false }
            }
            Algorithm::ExactBranchAndBound => Strategy::ExactBranchAndBound,
            Algorithm::ExactEnumeration => Strategy::ExactEnumeration,
        };
        Ok(prepared(strategy))
    }

    /// Prepares and solves in one call (one-shot convenience; prefer
    /// [`Engine::prepare`] + [`PreparedQuery::route_batch`] for batch
    /// workloads).
    pub fn solve(&self, rpq: &Rpq, db: &GraphDb) -> Result<ResilienceOutcome, ResilienceError> {
        self.prepare(rpq)?.solve(db)
    }

    /// Prepares with an explicit algorithm and solves in one call.
    pub fn solve_with(
        &self,
        algorithm: Algorithm,
        rpq: &Rpq,
        db: &GraphDb,
    ) -> Result<ResilienceOutcome, ResilienceError> {
        self.prepare_with(algorithm, rpq)?.solve(db)
    }
}

impl PreparedQuery {
    /// The query this plan was prepared for.
    pub fn rpq(&self) -> &Rpq {
        &self.rpq
    }

    /// The options the plan was prepared under.
    pub fn options(&self) -> &SolveOptions {
        &self.options
    }

    /// The plan report: which algorithm will run, and why.
    pub fn plan(&self) -> &PlanReport {
        &self.report
    }

    /// Solves one database using the cached plan, extracting a contingency
    /// set, with no budget: no language analysis is re-derived. Returns outcomes identical to
    /// [`Engine::solve`] on the same query and database.
    pub fn solve(&self, db: &GraphDb) -> Result<ResilienceOutcome, ResilienceError> {
        self.solve_with_cut_traced(db, true, &mut Trace::disabled())
    }

    /// [`PreparedQuery::solve`] with an explicit per-call contingency-set
    /// choice and phase tracing: when `trace` is enabled the solve records
    /// per-phase spans (`product_build`, `csr_freeze`, `flow_solve_dinic`,
    /// `cut_extract`, `witness_extract`, …); a disabled trace skips every
    /// clock read. Shorthand for [`PreparedQuery::route`] with
    /// [`SolveCall::new`].
    pub fn solve_with_cut_traced(
        &self,
        db: &GraphDb,
        want_cut: bool,
        trace: &mut Trace,
    ) -> Result<ResilienceOutcome, ResilienceError> {
        self.route(db, &SolveCall::new(want_cut), trace).map(|tiered| tiered.outcome)
    }

    /// Routes one solve under `call`'s budget and router: the planned backend
    /// runs when its projected cost fits (an unlimited budget always fits, so
    /// the answer is bit-identical to [`PreparedQuery::solve`]); otherwise
    /// the router degrades to the budgeted exact search, exact or certified,
    /// instead of blowing the budget (see [`crate::router`]).
    pub fn route(
        &self,
        db: &GraphDb,
        call: &SolveCall,
        trace: &mut Trace,
    ) -> Result<TieredOutcome, ResilienceError> {
        let mut scratch = self.scratch.take();
        let result = self.route_using(db, call, &mut scratch, trace);
        self.scratch.put(scratch);
        result
    }

    /// Routes every database of a batch with up to `jobs` worker threads,
    /// returning results in database order. Each database gets its own
    /// result, cost projection and (if needed) degradation, so one
    /// failing or oversized database does not drag its siblings down.
    ///
    /// The per-database work of every strategy is read-only with respect to
    /// the plan (`PreparedQuery` is `Send + Sync`), so the batch splits into
    /// contiguous chunks solved on scoped threads; `jobs <= 1` (or a single
    /// database) solves sequentially. Each worker checks one scratch out of
    /// the plan's pool for its whole chunk, so after the first (warm-up)
    /// database the flow core allocates nothing. The router is shared across
    /// workers, so an overload probe tightens every in-flight chunk as soon
    /// as it trips. Each worker records into its own trace, merged into
    /// `trace` after the batch: with more than one job the phase totals are
    /// summed CPU time across workers (they can exceed the wall-clock).
    pub fn route_batch(
        &self,
        dbs: &[GraphDb],
        jobs: usize,
        call: &SolveCall,
        trace: &mut Trace,
    ) -> Vec<Result<TieredOutcome, ResilienceError>> {
        let jobs = jobs.max(1).min(dbs.len().max(1));
        if jobs <= 1 {
            let mut scratch = self.scratch.take();
            let results =
                dbs.iter().map(|db| self.route_using(db, call, &mut scratch, trace)).collect();
            self.scratch.put(scratch);
            return results;
        }
        let chunk_size = dbs.len().div_ceil(jobs);
        let num_chunks = dbs.len().div_ceil(chunk_size);
        let mut worker_traces: Vec<Trace> = (0..num_chunks)
            .map(|_| if trace.is_enabled() { Trace::enabled() } else { Trace::disabled() })
            .collect();
        let mut results: Vec<Option<Result<TieredOutcome, ResilienceError>>> =
            (0..dbs.len()).map(|_| None).collect();
        std::thread::scope(|scope| {
            for ((db_chunk, out_chunk), worker_trace) in dbs
                .chunks(chunk_size)
                .zip(results.chunks_mut(chunk_size))
                .zip(worker_traces.iter_mut())
            {
                scope.spawn(move || {
                    let mut scratch = self.scratch.take();
                    for (db, out) in db_chunk.iter().zip(out_chunk.iter_mut()) {
                        *out = Some(self.route_using(db, call, &mut scratch, worker_trace));
                    }
                    self.scratch.put(scratch);
                });
            }
        });
        for worker_trace in &worker_traces {
            trace.merge(worker_trace);
        }
        // lint: allow(panic-freedom, the scoped workers above fill every chunk slot before joining)
        results.into_iter().map(|r| r.expect("every chunk slot is filled")).collect()
    }

    /// Routes `db` — the materialization of the *current* snapshot, which
    /// stands `at` a position of a fact log: the first `at.offset` entries
    /// of `log`, whose identity is `at.log` — reusing the flow network and
    /// maximum flow the `solver` retained from an earlier snapshot when
    /// possible. `log` holds at least `at.offset` entries; later ones are
    /// ignored.
    ///
    /// The solver compares `at` with where its retained network stands:
    ///
    /// * `at` continues its log: the network is patched with the entries
    ///   from its position to `at.offset`;
    /// * `at` is behind its position in the same log (an older snapshot):
    ///   the solve answers one-shot on a pooled scratch, exactly like
    ///   [`PreparedQuery::route`], and leaves the retained network where it
    ///   was for the next forward solve;
    /// * anything else — the first solve, another log, a log shorter than
    ///   `at.offset` — rebuilds.
    ///
    /// A patch runs only when the plan is the Theorem 3.13 local reduction
    /// and the delta is small relative to the database: it applies the
    /// changes as edge-capacity patches and warm-starts the min-cut from the
    /// retained flow ([`SolveMode::Incremental`]). Otherwise the solve
    /// falls back to a full build ([`SolveMode::Full`]) — same outcome,
    /// batch-path speed. Outcomes always match a fresh
    /// [`PreparedQuery::route`] of the same database. A patched solve
    /// records `patch_apply`, `flow_resume` (which re-lays the arcs when the
    /// delta grew the network) and `witness_extract` spans; a rebuild
    /// records `rebuild`, `csr_freeze`, `flow_resume` and `witness_extract`.
    ///
    /// The budget projection is the *full-build* cost of the planned backend
    /// — an upper bound on the warm-start cost, so a fitting estimate never
    /// risks the deadline. When the estimate does not fit, the solve degrades
    /// to the budgeted search **without touching the solver's retained
    /// state**: a later forward solve still patches from the last full
    /// answer.
    pub fn route_incremental(
        &self,
        solver: &mut IncrementalSolver,
        at: LogPosition,
        db: &GraphDb,
        log: &[FactChange],
        call: &SolveCall,
        trace: &mut Trace,
    ) -> Result<(TieredOutcome, SolveMode), ResilienceError> {
        let from = solver.position.filter(|from| from.log == at.log).map(|from| from.offset);
        if from.is_some_and(|from| at.offset < from) {
            return self.route(db, call, trace).map(|tiered| (tiered, SolveMode::Full));
        }
        self.route_or_degrade(db, call, trace, |work, trace| {
            solver.position = Some(at);
            match &self.strategy {
                Strategy::EpsilonInfinite => Ok((
                    ResilienceOutcome::new(ResilienceValue::Infinite, Algorithm::Local, None),
                    SolveMode::Incremental,
                )),
                Strategy::Local { ro } => Ok(incremental::solve_incremental_local(
                    ro,
                    &self.rpq,
                    db,
                    from.and_then(|from| log.get(from..at.offset)),
                    call.want_cut,
                    &mut solver.scratch,
                    trace,
                )),
                _ => {
                    // Non-local plans rebuild per database; drop any retained
                    // state so the scratch is safe to reuse as a plain one.
                    solver.scratch.incremental = None;
                    let outcome =
                        self.solve_using(db, call.want_cut, work, &mut solver.scratch, trace)?;
                    Ok((outcome, SolveMode::Full))
                }
            }
        })
    }

    /// [`PreparedQuery::route`] over an explicit scratch, so batch workers
    /// reuse one warm scratch across all their databases.
    fn route_using(
        &self,
        db: &GraphDb,
        call: &SolveCall,
        scratch: &mut SolveScratch,
        trace: &mut Trace,
    ) -> Result<TieredOutcome, ResilienceError> {
        self.route_or_degrade(db, call, trace, |work, trace| {
            Ok((self.solve_using(db, call.want_cut, work, scratch, trace)?, SolveMode::Full))
        })
        .map(|(tiered, _)| tiered)
    }

    /// The routing core every solve shape funnels through: projects the
    /// planned backend's cost onto `db`, resolves the effective budget
    /// (overload shedding included) and its work budget, and either runs the
    /// plan (`run`, given the work budget for any search it runs) or
    /// degrades to the exact search under that work budget. Never refuses:
    /// a budget too small for any work still gets the trivial sandwich.
    fn route_or_degrade(
        &self,
        db: &GraphDb,
        call: &SolveCall,
        trace: &mut Trace,
        run: impl FnOnce(u64, &mut Trace) -> Result<(ResilienceOutcome, SolveMode), ResilienceError>,
    ) -> Result<(TieredOutcome, SolveMode), ResilienceError> {
        let planned = self.report.algorithm;
        let (limit, shed) = call.router.effective_limit_us(&call.budget);
        let work = work_budget(limit);
        let estimated = match &self.strategy {
            // ε ∈ IF(L) plans answer in constant time whatever the model says.
            Strategy::EpsilonInfinite => 0,
            _ => self.report.cost.estimate_us_for(db),
        };
        let fits = limit.is_none_or(|l| estimated <= l);
        let (outcome, mode) = if fits {
            run(work, trace)?
        } else {
            (self.solve_exact_search(db, call.want_cut, work, trace), SolveMode::Full)
        };
        let shed_note = if shed { " (overload-shed)" } else { "" };
        let mut reason = match limit {
            None => "no deadline or cost budget: planned backend ran".to_string(),
            Some(l) if fits => format!("estimated {estimated}µs fits the {l}µs budget{shed_note}"),
            Some(l) => format!(
                "planned `{planned}` estimated at {estimated}µs exceeds the {l}µs \
                 budget{shed_note}: degraded to the exact search"
            ),
        };
        if !outcome.is_exact() {
            reason.push_str(&format!(
                "; the search stopped at its {work}-unit work budget with certified bounds"
            ));
        }
        let tiered = TieredOutcome {
            tier: outcome.tier(),
            degraded: !fits || !outcome.is_exact(),
            outcome,
            planned,
            shed,
            reason,
            estimated_cost_us: estimated,
        };
        Ok((tiered, mode))
    }

    /// Runs the planned backend on one database over an explicit scratch:
    /// the per-database half of the chosen reduction, with no routing.
    /// `work` is the work budget of the exact search, where it runs.
    fn solve_using(
        &self,
        db: &GraphDb,
        want_cut: bool,
        work: u64,
        scratch: &mut SolveScratch,
        trace: &mut Trace,
    ) -> Result<ResilienceOutcome, ResilienceError> {
        let options = &self.options;
        match &self.strategy {
            Strategy::EpsilonInfinite => {
                Ok(ResilienceOutcome::new(ResilienceValue::Infinite, Algorithm::Local, None))
            }
            Strategy::Local { ro } => {
                Ok(local::solve_prepared(ro, &self.rpq, db, want_cut, scratch, trace))
            }
            Strategy::Chain { plan } => Ok(plan.solve(&self.rpq, db, want_cut, scratch, trace)),
            Strategy::OneDangling { plan, fallback_to_exact } => {
                if db.has_exogenous_facts() {
                    // The κ-offset rewriting assumes finite fact weights
                    // (Proposition 7.9): route around it or report why not.
                    if !fallback_to_exact {
                        return plan.solve(&self.rpq, db, want_cut, scratch, trace);
                    }
                    return Ok(self.solve_exact_search(db, want_cut, work, trace));
                }
                plan.solve(&self.rpq, db, want_cut, scratch, trace)
            }
            Strategy::ExactBranchAndBound => Ok(self.solve_exact_search(db, want_cut, work, trace)),
            Strategy::ExactEnumeration => {
                // Clamp so the reported limit matches what was enforced.
                let limit = options.enumeration_limit.min(MAX_ENUMERATION_LIMIT);
                let timer = trace.begin();
                let outcome = match resilience_by_enumeration_limited(&self.rpq, db, limit) {
                    Some(value) => {
                        Ok(ResilienceOutcome::new(value, Algorithm::ExactEnumeration, None))
                    }
                    None => Err(ResilienceError::InstanceTooLarge {
                        facts: db.endogenous_facts().count(),
                        limit,
                    }),
                };
                trace.end(timer, "enumeration");
                outcome
            }
        }
    }

    /// Runs the exact search with `work` work units (an `exact_solve`
    /// span): exact when they suffice, a certified sandwich otherwise.
    fn solve_exact_search(
        &self,
        db: &GraphDb,
        want_cut: bool,
        work: u64,
        trace: &mut Trace,
    ) -> ResilienceOutcome {
        let timer = trace.begin();
        let search = resilience_search(&self.rpq, db, work);
        let outcome = ResilienceOutcome {
            value: search.value,
            algorithm: Algorithm::ExactBranchAndBound,
            contingency_set: want_cut.then(|| search.contingency_set.into_iter().collect()),
            bounds: search.bounds,
        };
        trace.end(timer, "exact_solve");
        outcome
    }
}

// Concurrent front ends (e.g. `rpq-server`) share one `PreparedQuery` across
// worker threads behind an `Arc`: keep the whole engine layer `Send + Sync`
// by construction. These assertions fail to compile if any plan component
// (RO-εNFA, chain / one-dangling decompositions, …) ever grows thread-unsafe
// interior mutability.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<SolveOptions>();
    assert_send_sync::<PreparedQuery>();
    assert_send_sync::<PlanReport>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_automata::Word;
    use rpq_graphdb::generate::word_path;

    /// An unbudgeted incremental solve of `db`, the materialization of all
    /// of `log` (log 0), unwrapped to its outcome and mode.
    fn incremental(
        prepared: &PreparedQuery,
        solver: &mut IncrementalSolver,
        log: &[FactChange],
        db: &GraphDb,
        want_cut: bool,
    ) -> (ResilienceOutcome, SolveMode) {
        let call = SolveCall::new(want_cut);
        let at = LogPosition { log: 0, offset: log.len() };
        let (tiered, mode) =
            prepared.route_incremental(solver, at, db, log, &call, &mut Trace::disabled()).unwrap();
        (tiered.outcome, mode)
    }

    /// An unbudgeted batch on `jobs` workers, unwrapped to its outcomes.
    fn batch(
        prepared: &PreparedQuery,
        dbs: &[GraphDb],
        jobs: usize,
        want_cut: bool,
    ) -> Vec<ResilienceOutcome> {
        let call = SolveCall::new(want_cut);
        let results = prepared.route_batch(dbs, jobs, &call, &mut Trace::disabled());
        results.into_iter().map(|r| r.unwrap().outcome).collect()
    }

    #[test]
    fn prepared_queries_report_their_plan() {
        let engine = Engine::new();
        for (pattern, algorithm, fragment) in [
            ("ax*b", Algorithm::Local, "local"),
            ("ab|bc", Algorithm::BipartiteChain, "chain"),
            ("abc|be", Algorithm::OneDangling, "one-dangling"),
            ("aa", Algorithm::ExactBranchAndBound, "escapes"),
            ("a*", Algorithm::Local, "ε"),
        ] {
            let prepared = engine.prepare(&Rpq::parse(pattern).unwrap()).unwrap();
            let plan = prepared.plan();
            assert_eq!(plan.algorithm, algorithm, "{pattern}");
            assert!(plan.reason.contains(fragment), "{pattern}: {}", plan.reason);
            assert!(!plan.forced);
            assert!(plan.to_string().contains("IF(L)"));
        }
    }

    #[test]
    fn prepared_queries_are_shareable_across_threads() {
        let engine = Engine::new();
        let prepared = std::sync::Arc::new(engine.prepare(&Rpq::parse("ax*b").unwrap()).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let prepared = std::sync::Arc::clone(&prepared);
                std::thread::spawn(move || {
                    let db = word_path(&Word::from_str_word("axxb"));
                    prepared.solve(&db).unwrap().value
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), ResilienceValue::Finite(1));
        }
    }

    #[test]
    fn batches_reuse_one_plan_across_databases() {
        let engine = Engine::new();
        let prepared = engine.prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
        let dbs: Vec<_> = ["axb", "axxb", "ab", "ba"]
            .iter()
            .map(|w| word_path(&Word::from_str_word(w)))
            .collect();
        let values: Vec<_> = batch(&prepared, &dbs, 1, true)
            .into_iter()
            .map(|o| o.value.finite().unwrap())
            .collect();
        assert_eq!(values, vec![1, 1, 1, 0]);
    }

    #[test]
    fn parallel_batches_agree_with_sequential_for_any_job_count() {
        let engine = Engine::new();
        let dbs: Vec<_> = ["axb", "axxb", "ab", "ba", "axxxb", "xx", "aab", "axbxb"]
            .iter()
            .map(|w| word_path(&Word::from_str_word(w)))
            .collect();
        for pattern in ["ax*b", "ab|bc", "abc|be", "aa"] {
            let prepared = engine.prepare(&Rpq::parse(pattern).unwrap()).unwrap();
            let sequential: Vec<_> =
                dbs.iter().map(|db| prepared.solve(db).unwrap().value).collect();
            // jobs = 0 and 1 take the sequential path; 3 leaves a ragged tail
            // chunk; 16 exceeds the batch size and is clamped.
            for jobs in [0, 1, 2, 3, 16] {
                let parallel: Vec<_> =
                    batch(&prepared, &dbs, jobs, true).into_iter().map(|o| o.value).collect();
                assert_eq!(parallel, sequential, "{pattern} with {jobs} jobs");
            }
        }
        // want_cut is honored per call on the parallel path too.
        let prepared = engine.prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
        for outcome in batch(&prepared, &dbs, 4, false) {
            assert!(outcome.contingency_set.is_none());
        }
    }

    #[test]
    fn batch_solves_do_not_reallocate_scratch_after_warmup() {
        use rpq_automata::Alphabet;
        use rpq_graphdb::generate::{flow_instance, layered_instance, random_labeled_graph};
        let engine = Engine::new();
        // One batch per product builder: Theorem 3.13 on two local languages,
        // Proposition 7.6, and Theorem 3.13 on the Proposition 7.9 rewriting.
        // The last batch is bag `ax*b` with multiplicities near `u64::MAX`,
        // whose finite totals pass 2^62, so its flows run on `u128`
        // residuals; the others run on `u64` ones.
        let [abc, abcd, abce] = ["abc", "abcd", "abce"].map(Alphabet::from_chars);
        let batch = |build: &dyn Fn(u64) -> GraphDb| (0..32).map(build).collect::<Vec<GraphDb>>();
        let huge = |seed| {
            let mut db = flow_instance(4, 4, 2, 3, seed);
            for id in db.fact_ids().collect::<Vec<_>>() {
                db.set_multiplicity(id, u64::MAX - u64::from(id.0) - seed);
            }
            db
        };
        let batches = [
            ("ax*b", false, batch(&|seed| flow_instance(4, 4, 2, 3, seed))),
            ("ab|ad|cd", false, batch(&|seed| layered_instance(&abcd, 4, 6, 2, seed))),
            ("ab|bc", false, batch(&|seed| random_labeled_graph(12, 40, &abc, seed))),
            ("abc|be", false, batch(&|seed| random_labeled_graph(12, 40, &abce, seed))),
            ("ax*b", true, batch(&huge)),
        ];
        for (pattern, bag, dbs) in &batches {
            let rpq = Rpq::parse(pattern).unwrap();
            let rpq = if *bag { rpq.with_bag_semantics() } else { rpq };
            let prepared = engine.prepare(&rpq).unwrap();
            let mut scratch = SolveScratch::new();
            let mut trace = Trace::disabled();
            // Warm-up pass: sizes every buffer to the batch's shape.
            for db in dbs {
                prepared.solve_using(db, true, 0, &mut scratch, &mut trace).unwrap();
            }
            let signature = scratch.capacity_signature();
            // The flow scratch signature starts with the `u128` and the
            // `u64` residuals: only the batch's own width was ever sized.
            let [wide, narrow, ..] = signature.1;
            assert_eq!((wide > 0, narrow > 0), (*bag, !*bag), "{pattern}, bag {bag}");
            // Post-warmup: one PreparedQuery solving 32 databases must perform
            // zero scratch reallocations. The capacities stay bit-identical
            // after every solve, so a buffer rebuilt per solve shows on the
            // databases smaller than the batch's largest.
            for (i, db) in dbs.iter().enumerate() {
                prepared.solve_using(db, true, 0, &mut scratch, &mut trace).unwrap();
                assert_eq!(
                    scratch.capacity_signature(),
                    signature,
                    "{pattern}, bag {bag}, database {i}: post-warmup solves must not reallocate \
                     scratch buffers"
                );
            }
        }
    }

    /// The four `engine_solve` benchmark databases at seed 21, rebuilt from
    /// `rpq_graphdb::generate` with the benchmark's seed derivation, build
    /// networks of exactly these vertices / edges / arcs. The README's
    /// network table and the `local` and `chain` module docs quote them.
    #[test]
    #[ignore = "~90k facts: run in release"]
    fn engine_solve_networks_keep_their_seed_21_sizes() {
        use rpq_automata::Alphabet;
        use rpq_flow::{Capacity, EdgeId};
        use rpq_graphdb::generate::{flow_instance, layered_instance, random_labeled_graph};
        /// The benchmark's SplitMix64 stream derivation.
        fn mix(seed: u64, stream: u64) -> u64 {
            let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        /// The benchmark's random multigraph of 16,384 facts over `letters`.
        fn random(letters: &str, seed: u64) -> GraphDb {
            random_labeled_graph(5_461, 16_384, &Alphabet::from_chars(letters), seed)
        }
        type Build = fn(u64) -> GraphDb;
        let families: [(&str, Build, [usize; 3]); 4] = [
            ("ax*b", |seed| flow_instance(8, 2_048, 2, 16, seed), [14_494, 29_259, 58_518]),
            (
                "ab|ad|cd",
                |seed| layered_instance(&Alphabet::from_chars("abcd"), 6, 2_730, 2, seed),
                [10_074, 17_763, 35_526],
            ),
            ("ab|bc", |seed| random("abc", seed), [16_386, 27_295, 54_590]),
            ("abc|be", |seed| random("abce", seed), [4_165, 5_838, 11_676]),
        ];
        let engine = Engine::new();
        for (index, (pattern, build, sizes)) in families.into_iter().enumerate() {
            let db = build(mix(21, 0x200 + index as u64));
            let prepared = engine.prepare(&Rpq::parse(pattern).unwrap()).unwrap();
            let mut scratch = SolveScratch::new();
            prepared.solve_using(&db, true, 0, &mut scratch, &mut Trace::disabled()).unwrap();
            let csr = &scratch.csr;
            let edges = (0..csr.num_edges() as u32).map(EdgeId);
            let arcs = 2 * edges.filter(|&e| csr.edge_capacity(e) != Capacity::Finite(0)).count();
            assert_eq!([csr.num_vertices(), csr.num_edges(), arcs], sizes, "{pattern}");
        }
    }

    #[test]
    fn traced_solves_record_phase_spans_that_sum_to_the_sealed_total() {
        let engine = Engine::new();
        let db = word_path(&Word::from_str_word("axxb"));
        // One pattern per strategy family: local, chain, one-dangling, exact.
        for pattern in ["ax*b", "ab|bc", "abc|be", "aa"] {
            let mut trace = Trace::enabled();
            let prepared =
                engine.prepare_traced(&Rpq::parse(pattern).unwrap(), &mut trace).unwrap();
            let phases: Vec<&str> = trace.spans().iter().map(|(p, _)| *p).collect();
            assert!(phases.contains(&"canonicalize"), "{pattern}: {phases:?}");
            assert!(phases.contains(&"classify"), "{pattern}: {phases:?}");
            assert!(phases.contains(&"plan"), "{pattern}: {phases:?}");

            let mut trace = Trace::enabled();
            let traced = prepared.solve_with_cut_traced(&db, true, &mut trace).unwrap();
            let untraced =
                prepared.solve_with_cut_traced(&db, true, &mut Trace::disabled()).unwrap();
            assert_eq!(traced.value, untraced.value, "{pattern}");
            assert!(!trace.spans().is_empty(), "{pattern}: a traced solve must record phases");
            let accounted: u64 = trace.spans().iter().map(|(_, us)| *us).sum();
            let total = trace.seal();
            let sealed: u64 = trace.spans().iter().map(|(_, us)| *us).sum();
            assert!(accounted <= total, "{pattern}: phases cannot exceed the total");
            assert_eq!(sealed, total, "{pattern}: seal() must account for the remainder");
        }
        // Disabled traces record nothing and seal to zero.
        let mut trace = Trace::disabled();
        let prepared = engine.prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
        prepared.solve_with_cut_traced(&db, true, &mut trace).unwrap();
        assert!(trace.spans().is_empty());
        assert_eq!(trace.seal(), 0);
    }

    #[test]
    fn traced_parallel_batches_merge_worker_spans() {
        use rpq_graphdb::generate::flow_instance;
        let engine = Engine::new();
        let prepared = engine.prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
        let dbs: Vec<GraphDb> = (0..8).map(|seed| flow_instance(4, 4, 2, 3, seed)).collect();
        let mut trace = Trace::enabled();
        let results = prepared.route_batch(&dbs, 4, &SolveCall::new(false), &mut trace);
        assert_eq!(results.len(), dbs.len());
        for result in results {
            result.unwrap();
        }
        let phases: Vec<&str> = trace.spans().iter().map(|(p, _)| *p).collect();
        assert!(phases.contains(&"product_build"), "{phases:?}");
        assert!(phases.contains(&"csr_freeze"), "{phases:?}");
        assert!(
            phases.iter().any(|p| p.starts_with("flow_solve")),
            "{phases:?} must include the max-flow phase"
        );
    }

    #[test]
    fn enumeration_limit_yields_typed_error() {
        let engine = Engine::with_options(SolveOptions { enumeration_limit: 4 });
        let db = word_path(&Word::from_str_word("aaaaaa"));
        let query = Rpq::parse("aa").unwrap();
        let err = engine.solve_with(Algorithm::ExactEnumeration, &query, &db).unwrap_err();
        assert_eq!(err, ResilienceError::InstanceTooLarge { facts: 6, limit: 4 });
        assert!(err.to_string().contains("6"));
        // Within the limit the oracle still answers.
        let small = word_path(&Word::from_str_word("aaa"));
        let outcome = engine.solve_with(Algorithm::ExactEnumeration, &query, &small).unwrap();
        assert_eq!(outcome.value, ResilienceValue::Finite(1));
    }

    #[test]
    fn want_cut_is_overridden_per_call() {
        // One prepared plan serves both value-only and with-cut callers: the
        // flag is applied at solve time, not baked into the plan.
        let engine = Engine::new();
        let db = word_path(&Word::from_str_word("axb"));
        for pattern in ["ax*b", "ab|bc", "abc|be", "aa"] {
            let prepared = engine.prepare(&Rpq::parse(pattern).unwrap()).unwrap();
            let with = prepared.solve_with_cut_traced(&db, true, &mut Trace::disabled()).unwrap();
            let without =
                prepared.solve_with_cut_traced(&db, false, &mut Trace::disabled()).unwrap();
            assert_eq!(with.value, without.value, "{pattern}");
            assert!(without.contingency_set.is_none(), "{pattern}");
            if !with.value.is_infinite() {
                assert!(with.contingency_set.is_some(), "{pattern}");
            }
        }
    }

    #[test]
    fn one_dangling_plans_extract_witnesses_through_the_engine() {
        let engine = Engine::new();
        let mut db = GraphDb::new();
        db.add_fact_by_names("1", 'a', "2");
        db.add_fact_by_names("2", 'b', "3");
        db.add_fact_by_names("3", 'c', "4");
        db.add_fact_by_names("3", 'e', "5");
        let query = Rpq::parse("abc|be").unwrap();
        let outcome = engine.solve(&query, &db).unwrap();
        assert_eq!(outcome.algorithm, Algorithm::OneDangling);
        let cut: std::collections::BTreeSet<_> =
            outcome.contingency_set.expect("witness extracted").into_iter().collect();
        assert!(query.is_contingency_set(&db, &cut));
        assert_eq!(ResilienceValue::Finite(query.cost(&db, &cut)), outcome.value);
    }

    #[test]
    fn forced_one_dangling_still_rejects_exogenous_databases() {
        let mut db = GraphDb::new();
        let f = db.add_fact_by_names("1", 'a', "2");
        db.add_fact_by_names("2", 'b', "3");
        db.add_fact_by_names("3", 'c', "4");
        db.add_fact_by_names("3", 'e', "5");
        db.set_exogenous(f, true);
        let engine = Engine::new();
        let query = Rpq::parse("abc|be").unwrap();
        // Forced: NotApplicable, like `Engine::solve_with`.
        let err = engine.solve_with(Algorithm::OneDangling, &query, &db).unwrap_err();
        assert!(matches!(err, ResilienceError::NotApplicable { .. }));
        // Automatic dispatch: falls back to the exact solver, like `solve`.
        let outcome = engine.solve(&query, &db).unwrap();
        assert_eq!(outcome.algorithm, Algorithm::ExactBranchAndBound);
    }

    #[test]
    fn incremental_solves_patch_and_match_fresh_solves() {
        use rpq_graphdb::delta::{materialize, parse_patch};
        let engine = Engine::new();
        let prepared = engine.prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
        let mut solver = IncrementalSolver::new();
        let mut log = parse_patch("+ s a u\n+ u x v\n+ v x w\n+ w b t\n").unwrap();
        let db = materialize(&log);
        // First solve: nothing retained yet, full build.
        let (out, mode) = incremental(&prepared, &mut solver, &log, &db, true);
        assert_eq!(mode, SolveMode::Full);
        assert_eq!(out.value, ResilienceValue::Finite(1));
        // Single-fact deltas ride the incremental path and agree with a
        // fresh solve, contingency set included.
        for patch in ["+ u x w", "- u x v", "+ s a v", "- w b t", "+ w b t", "+ v b z"] {
            log.extend(parse_patch(patch).unwrap());
            let db = materialize(&log);
            let (out, mode) = incremental(&prepared, &mut solver, &log, &db, true);
            assert_eq!(mode, SolveMode::Incremental, "{patch}");
            let fresh = prepared.solve(&db).unwrap();
            assert_eq!(out.value, fresh.value, "{patch}");
            let cut: std::collections::BTreeSet<_> =
                out.contingency_set.expect("cut requested").into_iter().collect();
            assert!(prepared.rpq().is_contingency_set(&db, &cut), "{patch}");
            assert_eq!(
                ResilienceValue::Finite(prepared.rpq().cost(&db, &cut)),
                out.value,
                "{patch}"
            );
        }
        // A delta past the fallback threshold cedes to the batch path (the
        // pruned build-and-solve beats rebuilding the retained network) and
        // drops the retained flows — same answer, Full mode.
        let big: String =
            (0..12).map(|i| format!("+ a{i} a b{i}\n+ b{i} x c{i}\n+ c{i} b d{i}\n")).collect();
        log.extend(parse_patch(&big).unwrap());
        let db = materialize(&log);
        let (out, mode) = incremental(&prepared, &mut solver, &log, &db, false);
        assert_eq!(mode, SolveMode::Full);
        assert_eq!(out.value, prepared.solve(&db).unwrap().value);
        assert!(out.contingency_set.is_none());
        // The next small delta bootstraps a fresh retained network (Full)...
        log.extend(parse_patch("- a3 x a4").unwrap());
        let db = materialize(&log);
        let (out, mode) = incremental(&prepared, &mut solver, &log, &db, true);
        assert_eq!(mode, SolveMode::Full);
        assert_eq!(out.value, prepared.solve(&db).unwrap().value);
        // ...and the one after that patches it incrementally again.
        log.extend(parse_patch("- a5 x a6\n+ a5 x a6").unwrap());
        let db = materialize(&log);
        let (out, mode) = incremental(&prepared, &mut solver, &log, &db, true);
        assert_eq!(mode, SolveMode::Incremental);
        assert_eq!(out.value, prepared.solve(&db).unwrap().value);
    }

    #[test]
    fn another_log_rebuilds_and_a_skipped_snapshot_patches() {
        use rpq_graphdb::delta::{materialize, parse_patch};
        let prepared = Engine::new().prepare(&Rpq::parse("ab").unwrap()).unwrap();
        let mut solver = IncrementalSolver::new();
        // Solves the materialization of `entries`, the prefix of log `log`
        // up to the solve's offset, handing the engine `given` as the log.
        let at =
            |solver: &mut IncrementalSolver, log, entries: &[FactChange], given: &[FactChange]| {
                let db = materialize(entries);
                let position = LogPosition { log, offset: entries.len() };
                let (tiered, mode) = prepared
                    .route_incremental(
                        solver,
                        position,
                        &db,
                        given,
                        &SolveCall::new(true),
                        &mut Trace::disabled(),
                    )
                    .unwrap();
                assert_eq!(tiered.outcome.value, prepared.solve(&db).unwrap().value);
                (tiered.outcome.value, mode)
            };
        let first = parse_patch("+ s a u\n+ u b t\n").unwrap();
        let solved = at(&mut solver, 1, &first, &first);
        assert_eq!(solved, (ResilienceValue::Finite(1), SolveMode::Full));
        // A position further into another log: the entries since offset 2
        // of that log delete a fact the network never had, which would
        // leave its answer at 1; the rebuild answers 0.
        let mut other = parse_patch("+ q b r\n+ m a n\n- p a q\n").unwrap();
        let solved = at(&mut solver, 2, &other, &other);
        assert_eq!(solved, (ResilienceValue::Finite(0), SolveMode::Full));
        // A solve that skips a snapshot of the same log patches with every
        // entry since the network's position.
        other.extend(parse_patch("+ n b x\n+ r a q\n").unwrap());
        let solved = at(&mut solver, 2, &other, &other);
        assert_eq!(solved, (ResilienceValue::Finite(2), SolveMode::Incremental));
        // A log shorter than the position it is named with rebuilds.
        other.extend(parse_patch("- m a n").unwrap());
        let solved = at(&mut solver, 2, &other, &other[..other.len() - 1]);
        assert_eq!(solved.1, SolveMode::Full);
        // The next entry continues the rebuilt network: patched.
        other.extend(parse_patch("+ m a n").unwrap());
        let solved = at(&mut solver, 2, &other, &other);
        assert_eq!(solved, (ResilienceValue::Finite(2), SolveMode::Incremental));
    }

    /// Solves `log[..offset]` of log 0 through `solver` under `call`,
    /// checks the answer against a fresh [`PreparedQuery::route`] of the
    /// same database and call, and returns its mode.
    fn routed_at(
        prepared: &PreparedQuery,
        solver: &mut IncrementalSolver,
        log: &[FactChange],
        offset: usize,
        call: &SolveCall,
    ) -> SolveMode {
        let db = rpq_graphdb::delta::materialize(&log[..offset]);
        let at = LogPosition { log: 0, offset };
        let (tiered, mode) =
            prepared.route_incremental(solver, at, &db, log, call, &mut Trace::disabled()).unwrap();
        assert_eq!(tiered, prepared.route(&db, call, &mut Trace::disabled()).unwrap());
        mode
    }

    #[test]
    fn a_solve_behind_the_frontier_leaves_the_retained_network_in_place() {
        use rpq_graphdb::delta::parse_patch;
        let prepared = Engine::new().prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
        let mut solver = IncrementalSolver::new();
        let call = SolveCall::new(true);
        let mut log = parse_patch("+ s a u\n+ u x v\n+ v b t\n+ s a v\n").unwrap();
        assert_eq!(routed_at(&prepared, &mut solver, &log, 4, &call), SolveMode::Full);
        log.extend(parse_patch("+ u b t").unwrap());
        assert_eq!(routed_at(&prepared, &mut solver, &log, 5, &call), SolveMode::Incremental);
        let frontier = (solver.position, solver.cut_counts());
        // Offsets 4 and 2 are behind the network: one-shot answers.
        for offset in [4, 2] {
            assert_eq!(routed_at(&prepared, &mut solver, &log, offset, &call), SolveMode::Full);
            assert_eq!((solver.position, solver.cut_counts()), frontier, "offset {offset}");
        }
        log.extend(parse_patch("- s a u").unwrap());
        assert_eq!(routed_at(&prepared, &mut solver, &log, 6, &call), SolveMode::Incremental);
    }

    #[test]
    fn a_degraded_solve_leaves_the_retained_network_in_place() {
        use rpq_graphdb::delta::parse_patch;
        let prepared = Engine::new().prepare(&Rpq::parse("ax*b").unwrap()).unwrap();
        let mut solver = IncrementalSolver::new();
        let call = SolveCall::new(true);
        // No projected cost fits a zero budget: the exact search answers.
        let starved = SolveCall { budget: RouteBudget::with_cost_budget_us(0), ..call };
        let mut log = parse_patch("+ s a u\n+ u x v\n+ v b t\n+ s a v\n").unwrap();
        assert_eq!(routed_at(&prepared, &mut solver, &log, 4, &call), SolveMode::Full);
        let frontier = (solver.position, solver.cut_counts());
        log.extend(parse_patch("+ u b t").unwrap());
        assert_eq!(routed_at(&prepared, &mut solver, &log, 5, &starved), SolveMode::Full);
        assert_eq!((solver.position, solver.cut_counts()), frontier);
        // The next forward solve patches with both entries since offset 4.
        log.extend(parse_patch("- s a u").unwrap());
        assert_eq!(routed_at(&prepared, &mut solver, &log, 6, &call), SolveMode::Incremental);
    }

    #[test]
    fn incremental_solves_handle_exogenous_bag_and_infinite_cases() {
        use rpq_graphdb::delta::{materialize, parse_patch};
        let engine = Engine::new();
        // Bag semantics: multiplicities are capacities; exogenous facts can
        // never be cut, so a fully exogenous path means +∞.
        let prepared = engine.prepare(&Rpq::parse("ax*b").unwrap().with_bag_semantics()).unwrap();
        let mut solver = IncrementalSolver::new();
        let mut log = parse_patch("+ s a u 5\n+ u x v 3\n+ v b t 7\n").unwrap();
        let db = materialize(&log);
        let (out, _) = incremental(&prepared, &mut solver, &log, &db, true);
        assert_eq!(out.value, ResilienceValue::Finite(3));
        for (patch, expected) in [
            ("+ u x v 9", ResilienceValue::Finite(5)),
            ("+ s a u 2 !", ResilienceValue::Finite(7)),
            ("+ u x v 9 !\n", ResilienceValue::Finite(7)),
            ("+ v b t 7 !", ResilienceValue::Infinite),
            ("+ v b t 4", ResilienceValue::Finite(4)),
            ("- u x v", ResilienceValue::Finite(0)),
        ] {
            log.extend(parse_patch(patch).unwrap());
            let db = materialize(&log);
            let (out, mode) = incremental(&prepared, &mut solver, &log, &db, true);
            assert_eq!(mode, SolveMode::Incremental, "{patch}");
            assert_eq!(out.value, expected, "{patch}");
            // A retained flow reaching the +∞ proxy reads +∞, with no witness.
            assert_eq!(out.contingency_set.is_none(), expected.is_infinite(), "{patch}");
            assert_eq!(out.value, prepared.solve(&db).unwrap().value, "{patch}");
        }
        // ε ∈ L: constant +∞, no network at all.
        let prepared = engine.prepare(&Rpq::parse("x*").unwrap()).unwrap();
        let mut solver = IncrementalSolver::new();
        let (out, mode) = incremental(&prepared, &mut solver, &log, &db, true);
        assert_eq!(mode, SolveMode::Incremental);
        assert!(out.value.is_infinite());
        // Non-local plans run the batch path and report Full.
        let prepared = engine.prepare(&Rpq::parse("ab|bc").unwrap()).unwrap();
        let mut solver = IncrementalSolver::new();
        let log = parse_patch("+ 1 a 2\n+ 2 b 3\n+ 3 c 4\n").unwrap();
        let db = materialize(&log);
        let (out, mode) = incremental(&prepared, &mut solver, &log, &db, true);
        assert_eq!(mode, SolveMode::Full);
        assert_eq!(out.algorithm, Algorithm::BipartiteChain);
        assert_eq!(out.value, prepared.solve(&db).unwrap().value);
    }

    #[test]
    fn incremental_churn_agrees_with_fresh_solves() {
        use rpq_automata::alphabet::Letter;
        use rpq_graphdb::delta::materialize;
        use rpq_graphdb::FactChange;
        fn xorshift(state: &mut u64) -> u64 {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state
        }
        let engine = Engine::new();
        for (pattern, bag) in [("ax*b", false), ("ab|ad", false), ("ax*b", true)] {
            let mut q = Rpq::parse(pattern).unwrap();
            if bag {
                q = q.with_bag_semantics();
            }
            let prepared = engine.prepare(&q).unwrap();
            let mut solver = IncrementalSolver::new();
            let mut rng = 0x0DDB1A5E5BAD5EEDu64 ^ pattern.len() as u64 ^ (bag as u64) << 32;
            let labels = ['a', 'x', 'b', 'd'];
            let mut log: Vec<FactChange> = Vec::new();
            let mut incremental_seen = 0usize;
            for round in 0..80 {
                let node = |r: u64| format!("n{}", r % 9);
                let change = if xorshift(&mut rng) % 10 < 7 || log.is_empty() {
                    FactChange::Put {
                        source: node(xorshift(&mut rng)),
                        label: Letter(labels[(xorshift(&mut rng) % 4) as usize]),
                        target: node(xorshift(&mut rng)),
                        multiplicity: 1 + xorshift(&mut rng) % 3,
                        exogenous: xorshift(&mut rng).is_multiple_of(8),
                    }
                } else {
                    // Delete a random earlier key (maybe already deleted).
                    let (s, l, t) = log[(xorshift(&mut rng) as usize) % log.len()].key();
                    FactChange::Delete { source: s.to_string(), label: l, target: t.to_string() }
                };
                log.push(change);
                let db = materialize(&log);
                let (out, mode) = incremental(&prepared, &mut solver, &log, &db, true);
                incremental_seen += (mode == SolveMode::Incremental) as usize;
                let fresh = prepared.solve(&db).unwrap();
                assert_eq!(out.value, fresh.value, "{pattern} bag={bag} round {round}");
                if let Some(cut) = out.contingency_set {
                    let cut: std::collections::BTreeSet<_> = cut.into_iter().collect();
                    assert!(q.is_contingency_set(&db, &cut), "{pattern} round {round}");
                    assert_eq!(ResilienceValue::Finite(q.cost(&db, &cut)), out.value);
                }
            }
            assert!(incremental_seen > 40, "{pattern} bag={bag}: {incremental_seen}");
        }
    }
}
