//! Deadline-aware tier routing with certified degradation.
//!
//! The engine has three answer tiers: the paper's polynomial flow reductions
//! (`"poly"`), exact answers of the exponential search (`"exact"`), and the
//! certified sandwiches a budgeted search stops with (`"approx"`). This
//! module turns tier choice into a cost-model decision instead of a
//! per-call flag: every prepared plan
//! carries a [`CostModel`] calibrated against a `BENCH_scaling` recording
//! (see [`CostModel::for_plan`]), and every routed solve
//! ([`crate::engine::PreparedQuery::route`] and its batch and incremental
//! siblings) compares the projected cost of the planned backend against the
//! caller's [`RouteBudget`].
//!
//! * The estimate fits (or no budget was given) → the planned backend runs
//!   and the answer is **bit-identical** to an unrouted solve.
//! * The estimate does not fit → the router degrades to the exact search of
//!   [`crate::exact`] under a work budget proportional to the caller's
//!   limit ([`crate::exact::work_budget`]). It answers exactly when the
//!   budget suffices and with certified `lower ≤ RES(Q, D) ≤ upper` bounds
//!   otherwise (at zero work: `0`, `+∞`, or `[min fact cost, cost of all
//!   endogenous facts]`); the router never refuses a request.
//!
//! The search is budgeted wherever it runs: a plan that *is* the search
//! ([`Algorithm::ExactBranchAndBound`], or a one-dangling plan whose
//! database has an exogenous fact) runs it under the caller's limit, and
//! with no limit under the constant [`crate::exact::WORK_CAP`].
//!
//! A [`Router`] additionally carries the server's overload hook: when its
//! queue-depth probe reports a ready queue at or beyond the shed threshold,
//! the effective budget is tightened so expensive solves shed to cheaper
//! tiers *before* the queue grows unboundedly.

use crate::algorithms::{Algorithm, ResilienceOutcome};
use rpq_graphdb::GraphDb;
use std::fmt;
use std::sync::Arc;

/// A caller-supplied bound on how much a solve may cost. Both knobs project
/// onto one scale — estimated microseconds of solve time — and the tighter
/// one wins. The default ([`RouteBudget::UNLIMITED`]) never degrades.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteBudget {
    /// Wall-clock deadline in milliseconds: the router only runs backends
    /// whose projected cost fits inside it.
    pub deadline_ms: Option<u64>,
    /// Abstract cost budget in estimated microseconds of solve time
    /// (`deadline_ms × 1000` on the same scale), for callers that meter cost
    /// rather than latency.
    pub cost_budget_us: Option<u64>,
}

impl RouteBudget {
    /// No deadline and no cost budget: the planned backend always runs.
    pub const UNLIMITED: RouteBudget = RouteBudget { deadline_ms: None, cost_budget_us: None };

    /// A budget with only a wall-clock deadline.
    pub fn with_deadline_ms(deadline_ms: u64) -> RouteBudget {
        RouteBudget { deadline_ms: Some(deadline_ms), ..RouteBudget::UNLIMITED }
    }

    /// A budget with only an abstract cost budget (estimated microseconds).
    pub fn with_cost_budget_us(cost_budget_us: u64) -> RouteBudget {
        RouteBudget { cost_budget_us: Some(cost_budget_us), ..RouteBudget::UNLIMITED }
    }

    /// Whether neither knob is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline_ms.is_none() && self.cost_budget_us.is_none()
    }

    /// The single effective limit in estimated microseconds: the tighter of
    /// the two knobs, `None` when unlimited.
    pub fn limit_us(&self) -> Option<u64> {
        let deadline = self.deadline_ms.map(|ms| ms.saturating_mul(1_000));
        match (deadline, self.cost_budget_us) {
            (Some(d), Some(c)) => Some(d.min(c)),
            (Some(d), None) => Some(d),
            (None, c) => c,
        }
    }
}

/// The asymptotic shape of a backend's projected cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// `base_ns + ns_per_fact × |D|`: the polynomial reductions (the pruned
    /// product / flow network is linear in the database).
    Linear {
        /// Fixed per-solve overhead in nanoseconds.
        base_ns: u64,
        /// Marginal cost per fact in nanoseconds.
        ns_per_fact: u64,
    },
    /// `base_ns × 2^(facts / facts_per_doubling)`: the exponential exact
    /// solvers, measured over *endogenous* facts.
    Exponential {
        /// Cost of the smallest instance in nanoseconds.
        base_ns: u64,
        /// How many additional facts double the projected cost.
        facts_per_doubling: u64,
    },
}

/// A per-plan structural cost estimate: which algorithm family the plan
/// classified into and how its solve time scales with the database, with
/// coefficients calibrated against a `BENCH_scaling` recording (medians on
/// the corpus generators; see [`CostModel::for_plan`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// The backend the model projects.
    pub algorithm: Algorithm,
    /// The projected growth class and its calibrated coefficients.
    pub class: CostClass,
}

impl CostModel {
    /// The calibrated model for a plan. The coefficients were taken from the
    /// benchmark artifacts of 2026-08: `BENCH_scaling` then put the Theorem
    /// 3.13 local reduction at ≈4.2 µs/fact, the Proposition 7.6 chain
    /// reduction at ≈1.3 µs/fact and the Proposition 7.9 rewriting at
    /// ≈2.1 µs/fact (all three cut with Dinic, the one max-flow algorithm);
    /// the branch and bound roughly doubles every 2 facts (101 µs at 10 →
    /// 1.06 ms at 18) and the subset enumeration every fact.
    ///
    /// The artifacts re-recorded on 2026-10-19 disagree for the linear
    /// classes: at their largest sizes the local solves cost 0.21–0.51
    /// µs/fact, the chain 0.34 and the one-dangling 0.21, so these
    /// coefficients overestimate the flow tiers 4–20×. The exponential
    /// classes only set the `estimated_cost_us` a solve reports and the
    /// `degraded` verdict: the search itself is bounded by its work budget
    /// ([`crate::exact::work_budget`]), not by this estimate. The
    /// coefficients set routing decisions, so they stay until the router
    /// records its estimate against the actual cost and they can be refit
    /// from that.
    pub fn for_plan(algorithm: Algorithm) -> CostModel {
        let class = match algorithm {
            Algorithm::Local => CostClass::Linear { base_ns: 2_000, ns_per_fact: 4_200 },
            Algorithm::BipartiteChain => CostClass::Linear { base_ns: 2_000, ns_per_fact: 1_300 },
            Algorithm::OneDangling => CostClass::Linear { base_ns: 2_000, ns_per_fact: 2_100 },
            Algorithm::ExactBranchAndBound => {
                CostClass::Exponential { base_ns: 2_000, facts_per_doubling: 2 }
            }
            Algorithm::ExactEnumeration => {
                CostClass::Exponential { base_ns: 200, facts_per_doubling: 1 }
            }
        };
        CostModel { algorithm, class }
    }

    /// The projected solve cost in nanoseconds for an instance with `facts`
    /// facts (endogenous facts for the exponential solvers). Saturating.
    pub fn estimate_ns(&self, facts: u64) -> u128 {
        match self.class {
            CostClass::Linear { base_ns, ns_per_fact } => {
                base_ns as u128 + ns_per_fact as u128 * facts as u128
            }
            CostClass::Exponential { base_ns, facts_per_doubling } => {
                let doublings = (facts / facts_per_doubling.max(1)).min(100) as u32;
                (base_ns as u128).saturating_mul(1u128 << doublings.min(100))
            }
        }
    }

    /// The projected solve cost for `db` in microseconds (saturating to
    /// `u64::MAX`): the exponential solvers scale over endogenous facts, the
    /// linear ones over the whole fact table (the flow network includes
    /// exogenous edges at `+∞` capacity).
    pub fn estimate_us_for(&self, db: &GraphDb) -> u64 {
        let facts = match self.class {
            CostClass::Linear { .. } => db.num_facts() as u64,
            CostClass::Exponential { .. } => db.endogenous_facts().count() as u64,
        };
        u64::try_from(self.estimate_ns(facts) / 1_000).unwrap_or(u64::MAX)
    }
}

/// The result of a routed solve: the outcome itself plus the routing
/// decision — which tier answered, what the plan wanted, whether (and why)
/// the router degraded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TieredOutcome {
    /// The answer: exact, `+∞`, or carrying valid `[lower, upper]` bounds.
    pub outcome: ResilienceOutcome,
    /// The tier that answered ([`ResilienceOutcome::tier`]): `"poly"`,
    /// `"exact"` or `"approx"`.
    pub tier: &'static str,
    /// The backend the plan would have run with an unlimited budget.
    pub planned: Algorithm,
    /// Whether the answer is not the planned backend's exact answer: the
    /// plan's estimate did not fit the budget, so the budgeted exact search
    /// ran in its place (an `exact` plan runs that search either way), or
    /// the search stopped on its work budget with a certified sandwich.
    pub degraded: bool,
    /// Whether overload shedding tightened the budget this solve ran under
    /// (set even when the tightened budget still fit the planned backend).
    pub shed: bool,
    /// Why this tier answered (budget fit, degradation, overload shed).
    pub reason: String,
    /// The projected cost of the *planned* backend in microseconds.
    pub estimated_cost_us: u64,
}

/// Dispatch policy shared by every solve entry point: resolves a caller's
/// [`RouteBudget`] into an effective per-solve limit, optionally tightened
/// by a server-overload probe. The engine and CLI use
/// [`Router::default()`]; the server installs a probe reading its
/// ready-queue depth via [`Router::with_overload_probe`].
#[derive(Clone, Default)]
pub struct Router {
    shed_queue_depth: Option<u64>,
    shed_cost_budget_us: u64,
    probe: Option<Arc<dyn Fn() -> u64 + Send + Sync>>,
}

/// The default ready-queue depth at which an overloaded server starts
/// shedding to cheaper tiers.
pub const DEFAULT_SHED_QUEUE_DEPTH: u64 = 32;

/// The default budget (estimated microseconds) imposed on every solve while
/// the overload probe reports a queue at or beyond the shed threshold.
pub const DEFAULT_SHED_COST_BUDGET_US: u64 = 10_000;

impl Router {
    /// A router that never sheds: budgets pass through untightened.
    pub const fn new() -> Router {
        Router { shed_queue_depth: None, shed_cost_budget_us: 0, probe: None }
    }

    /// Installs an overload probe (e.g. the server's ready-queue depth) with
    /// the default shed thresholds. While `probe() >=` the shed depth, every
    /// budget is tightened to at most the shed cost budget.
    pub fn with_overload_probe(self, probe: Arc<dyn Fn() -> u64 + Send + Sync>) -> Router {
        Router {
            shed_queue_depth: Some(self.shed_queue_depth.unwrap_or(DEFAULT_SHED_QUEUE_DEPTH)),
            shed_cost_budget_us: if self.shed_cost_budget_us == 0 {
                DEFAULT_SHED_COST_BUDGET_US
            } else {
                self.shed_cost_budget_us
            },
            probe: Some(probe),
        }
    }

    /// Overrides the shed thresholds (see [`Router::with_overload_probe`]).
    pub fn with_shed_thresholds(self, queue_depth: u64, cost_budget_us: u64) -> Router {
        Router {
            shed_queue_depth: Some(queue_depth),
            shed_cost_budget_us: cost_budget_us.max(1),
            probe: self.probe,
        }
    }

    /// The current reading of the overload probe (`0` without one).
    pub fn queue_depth(&self) -> u64 {
        self.probe.as_ref().map_or(0, |p| p())
    }

    /// Whether the probe currently reports overload.
    pub fn is_overloaded(&self) -> bool {
        match (self.probe.as_ref(), self.shed_queue_depth) {
            (Some(probe), Some(depth)) => probe() >= depth,
            _ => false,
        }
    }

    /// Resolves a budget into the effective per-solve limit (estimated
    /// microseconds; `None` = unlimited) and whether overload shedding
    /// tightened it.
    pub fn effective_limit_us(&self, budget: &RouteBudget) -> (Option<u64>, bool) {
        let limit = budget.limit_us();
        if self.is_overloaded() {
            let shed = self.shed_cost_budget_us.max(1);
            let tightened = limit.map_or(shed, |l| l.min(shed));
            (Some(tightened), tightened < limit.unwrap_or(u64::MAX))
        } else {
            (limit, false)
        }
    }
}

impl fmt::Debug for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Router")
            .field("shed_queue_depth", &self.shed_queue_depth)
            .field("shed_cost_budget_us", &self.shed_cost_budget_us)
            .field("probe", &self.probe.as_ref().map(|_| "…"))
            .finish()
    }
}

// Routers are shared across server worker threads and batch workers.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Router>();
    assert_send_sync::<RouteBudget>();
    assert_send_sync::<TieredOutcome>();
    assert_send_sync::<CostModel>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn budget_limits_take_the_tighter_knob() {
        assert_eq!(RouteBudget::UNLIMITED.limit_us(), None);
        assert!(RouteBudget::UNLIMITED.is_unlimited());
        assert_eq!(RouteBudget::with_deadline_ms(5).limit_us(), Some(5_000));
        assert_eq!(RouteBudget::with_cost_budget_us(700).limit_us(), Some(700));
        let both = RouteBudget { deadline_ms: Some(5), cost_budget_us: Some(700) };
        assert_eq!(both.limit_us(), Some(700));
        let both = RouteBudget { deadline_ms: Some(5), cost_budget_us: Some(9_000) };
        assert_eq!(both.limit_us(), Some(5_000));
        // Deadlines near u64::MAX must not overflow the ms → µs conversion.
        assert_eq!(RouteBudget::with_deadline_ms(u64::MAX).limit_us(), Some(u64::MAX));
    }

    #[test]
    fn cost_models_scale_with_the_calibrated_coefficients() {
        let local = CostModel::for_plan(Algorithm::Local);
        assert_eq!(local.estimate_ns(1_000), 2_000 + 4_200 * 1_000);
        // The exponential models saturate instead of overflowing.
        let exact = CostModel::for_plan(Algorithm::ExactBranchAndBound);
        assert!(exact.estimate_ns(10) < exact.estimate_ns(18));
        assert!(exact.estimate_ns(10_000) >= exact.estimate_ns(200));
    }

    #[test]
    fn overload_probes_tighten_budgets_at_the_shed_threshold() {
        let depth = Arc::new(AtomicU64::new(0));
        let probe = Arc::clone(&depth);
        let router = Router::new()
            .with_overload_probe(Arc::new(move || probe.load(Ordering::Relaxed)))
            .with_shed_thresholds(4, 2_500);
        // Below the threshold: budgets pass through untouched.
        assert_eq!(router.effective_limit_us(&RouteBudget::UNLIMITED), (None, false));
        assert_eq!(
            router.effective_limit_us(&RouteBudget::with_deadline_ms(100)),
            (Some(100_000), false)
        );
        // At the threshold: everything is clamped to the shed budget.
        depth.store(4, Ordering::Relaxed);
        assert!(router.is_overloaded());
        assert_eq!(router.effective_limit_us(&RouteBudget::UNLIMITED), (Some(2_500), true));
        assert_eq!(
            router.effective_limit_us(&RouteBudget::with_deadline_ms(100)),
            (Some(2_500), true)
        );
        // Budgets already tighter than the shed budget are not loosened.
        assert_eq!(
            router.effective_limit_us(&RouteBudget::with_cost_budget_us(300)),
            (Some(300), false)
        );
        // A router without a probe never sheds.
        assert!(!Router::new().is_overloaded());
        assert_eq!(Router::new().queue_depth(), 0);
    }
}
