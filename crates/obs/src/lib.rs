//! # `rpq-obs`: zero-dependency observability primitives
//!
//! The measurement substrate of the resilience service (std-only, no
//! dependencies):
//!
//! * [`Trace`] — an opt-in phase-level span recorder for one solve. When
//!   disabled (the default for every untraced request) each instrumentation
//!   point costs a single branch on an `Option`; when enabled it records
//!   monotonic-clock durations per named phase, aggregating repeated phases
//!   (a batch runs `product_build` once per database) into one span.
//! * [`Histogram`] — a log₂-bucketed latency histogram over microseconds with
//!   relaxed atomic counters, safe to record into from any number of threads
//!   without locks, plus a consistent [`HistogramSnapshot`] for rendering
//!   p50/p95/p99/max summaries and Prometheus `_bucket`/`_sum`/`_count`
//!   series.
//! * [`MetricsRegistry`] — a map from `(verb, family, tier, backend)` label
//!   keys to shared histograms behind one lock. Lookups hold it for a short
//!   scan and hand back an [`std::sync::Arc`] the caller records into
//!   lock-free; hot paths can cache the `Arc` and skip the map entirely.
//! * [`prom`] — helpers emitting the Prometheus text exposition format
//!   (`# HELP` / `# TYPE` headers, labeled samples, histogram series).

#![forbid(unsafe_code)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Number of histogram buckets: upper bounds `1, 2, 4, …, 2^26` µs (≈ 67 s)
/// plus a final `+Inf` bucket.
pub const NUM_BUCKETS: usize = 28;

/// The upper bound (inclusive, in µs) of bucket `i`; `None` is the `+Inf`
/// bucket.
pub fn bucket_upper_bound(i: usize) -> Option<u64> {
    (i < NUM_BUCKETS - 1).then(|| 1u64 << i)
}

/// The bucket index of a `value` in µs (the first bucket whose upper bound
/// is ≥ `value`).
pub fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        (64 - (value - 1).leading_zeros() as usize).min(NUM_BUCKETS - 1)
    }
}

// ---------------------------------------------------------------------------
// Phase tracing
// ---------------------------------------------------------------------------

/// A running phase measurement handed out by [`Trace::begin`] and consumed by
/// [`Trace::end`]. Holds no reference to the trace, so instrumented code can
/// keep mutable borrows of its own state between the two calls.
#[derive(Debug)]
#[must_use = "pass the timer back to Trace::end to record the phase"]
pub struct PhaseTimer(Option<Instant>);

/// A per-request phase recorder. Disabled traces are inert: every
/// instrumentation point reduces to one branch, so untraced hot paths pay
/// (almost) nothing. Enabled traces accumulate `(phase, µs)` spans keyed by
/// their `&'static` phase name; repeated phases aggregate into one span.
/// Each phase sums nanoseconds and reads as its whole µs so far, so a phase
/// made of many sub-µs pieces still adds up.
#[derive(Debug, Default)]
pub struct Trace {
    /// When the trace was enabled (`None` = disabled).
    t0: Option<Instant>,
    /// `(phase, whole µs)`, as [`Trace::spans`] hands them out.
    spans: Vec<(&'static str, u64)>,
    /// The nanoseconds behind each span, in the same order.
    nanos: Vec<u64>,
}

impl Trace {
    /// An inert trace: `begin`/`end`/`add` are no-ops.
    pub fn disabled() -> Trace {
        Trace::default()
    }

    /// A recording trace; [`Trace::seal`] measures the total from this call.
    pub fn enabled() -> Trace {
        Trace { t0: Some(Instant::now()), spans: Vec::new(), nanos: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.t0.is_some()
    }

    /// Starts timing a phase (no-op timer when the trace is disabled).
    pub fn begin(&self) -> PhaseTimer {
        PhaseTimer(self.t0.map(|_| Instant::now()))
    }

    /// Ends a phase started by [`Trace::begin`], recording its duration
    /// under `phase`.
    pub fn end(&mut self, timer: PhaseTimer, phase: &'static str) {
        if let Some(t) = timer.0 {
            self.add_nanos(phase, t.elapsed().as_nanos() as u64);
        }
    }

    /// Adds `us` microseconds to `phase` (aggregating with any previous
    /// spans of the same phase). No-op when disabled.
    pub fn add(&mut self, phase: &'static str, us: u64) {
        self.add_nanos(phase, us.saturating_mul(1_000));
    }

    /// Adds `ns` nanoseconds to `phase`. No-op when disabled.
    fn add_nanos(&mut self, phase: &'static str, ns: u64) {
        if self.t0.is_none() {
            return;
        }
        for ((name, us), total) in self.spans.iter_mut().zip(&mut self.nanos) {
            if *name == phase {
                *total = total.saturating_add(ns);
                *us = *total / 1_000;
                return;
            }
        }
        self.spans.push((phase, ns / 1_000));
        self.nanos.push(ns);
    }

    /// Folds another trace's spans into this one (used to merge the
    /// per-worker traces of a parallel batch). The other trace's own clock
    /// is ignored; only its spans transfer.
    pub fn merge(&mut self, other: &Trace) {
        for (&(phase, _), &ns) in other.spans.iter().zip(&other.nanos) {
            self.add_nanos(phase, ns);
        }
    }

    /// Closes the trace: measures the total elapsed µs since
    /// [`Trace::enabled`], records the unattributed remainder as an `other`
    /// span (so the spans always sum to the total for sequential solves),
    /// and returns the total. Returns 0 for disabled traces.
    ///
    /// Each phase is booked the whole µs that the running nanosecond sum
    /// crosses while it is added, `⌊Rᵢ/1000⌋ − ⌊Rᵢ₋₁/1000⌋`, so the phases
    /// together read `⌊Σns/1000⌋`: truncating each phase on its own would
    /// lose up to 1 µs per phase into `other`.
    pub fn seal(&mut self) -> u64 {
        let Some(t0) = self.t0 else { return 0 };
        let total = t0.elapsed().as_micros() as u64;
        let mut running = 0u64;
        for ((_, us), &ns) in self.spans.iter_mut().zip(&self.nanos) {
            let before = running / 1_000;
            running = running.saturating_add(ns);
            *us = running / 1_000 - before;
        }
        self.add("other", total.saturating_sub(running / 1_000));
        total
    }

    /// The recorded `(phase, µs)` spans, in first-recorded order; each
    /// phase reads its summed nanoseconds truncated to whole µs, or, once
    /// sealed, its share of the running sum (see [`Trace::seal`]).
    pub fn spans(&self) -> &[(&'static str, u64)] {
        &self.spans
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// A log₂-bucketed histogram of microsecond latencies. All mutation is
/// relaxed-atomic (wait-free recording from any thread); reads go through
/// [`Histogram::snapshot`], which derives every reported figure from one
/// pass over the bucket counters so the rendered `_count` always equals the
/// `+Inf` cumulative bucket.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation of `us` microseconds.
    pub fn record(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
        self.max.fetch_max(us, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters. Concurrent recording may land
    /// between the bucket loads — each recorded sample is either fully
    /// visible in the bucket array or not counted at all, so the snapshot's
    /// internal figures (count, quantiles) stay consistent with each other.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; NUM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A consistent copy of a [`Histogram`]'s counters (see
/// [`Histogram::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts.
    pub buckets: [u64; NUM_BUCKETS],
    /// Sum of all observed values, in µs.
    pub sum: u64,
    /// Largest observed value, in µs.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// An upper-bound estimate of the `q`-quantile (0 < `q` ≤ 1): the upper
    /// bound of the bucket holding the rank-⌈q·count⌉ observation. The
    /// `+Inf` bucket reports the recorded maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return bucket_upper_bound(i).unwrap_or(self.max);
            }
        }
        self.max
    }
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// The label key of a latency histogram: `(verb, family, tier, backend)`.
/// All components are `&'static` names (protocol verbs, algorithm / tier /
/// flow-backend names), so keys are cheap to hash and compare.
pub type MetricsKey = [&'static str; 4];

/// A `(verb, family, tier, backend)` → [`Histogram`] map behind one lock: a
/// small unordered list (registries hold a handful of label sets, so a
/// linear scan wins). The lock is held only for the get-or-create lookup;
/// recording happens on the returned [`Arc`] without any lock.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    histograms: Mutex<Vec<(MetricsKey, Arc<Histogram>)>>,
}

impl MetricsRegistry {
    /// The histogram of `key`, created on first use. The returned handle
    /// records lock-free and may be cached by the caller.
    pub fn histogram(&self, key: MetricsKey) -> Arc<Histogram> {
        // Recording never panics while holding the lock, but recover from
        // poisoning anyway: metrics must not take down a worker.
        let mut histograms = self.histograms.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, h)) = histograms.iter().find(|(k, _)| *k == key) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        histograms.push((key, Arc::clone(&h)));
        h
    }

    /// Snapshots every histogram, sorted by key for stable rendering.
    pub fn snapshot(&self) -> Vec<(MetricsKey, HistogramSnapshot)> {
        let histograms = self.histograms.lock().unwrap_or_else(PoisonError::into_inner);
        let mut all: Vec<(MetricsKey, HistogramSnapshot)> =
            histograms.iter().map(|(k, h)| (*k, h.snapshot())).collect();
        drop(histograms);
        all.sort_by_key(|(key, _)| *key);
        all
    }
}

// ---------------------------------------------------------------------------
// Tier-routing counters
// ---------------------------------------------------------------------------

/// Counters over the router's dispatch decisions (see
/// `rpq_resilience::router`): how many solves each tier answered, how many
/// were degraded below their planned backend, and how many were tightened by
/// overload shedding. All relaxed-atomic — record from any worker thread
/// without locks.
#[derive(Debug, Default)]
pub struct RouteCounters {
    poly: AtomicU64,
    exact: AtomicU64,
    approx: AtomicU64,
    degraded: AtomicU64,
    overload_sheds: AtomicU64,
}

impl RouteCounters {
    /// Zeroed counters.
    pub fn new() -> RouteCounters {
        RouteCounters::default()
    }

    /// Records one routed solve: the answering `tier` (`"poly"`, `"exact"`
    /// or `"approx"`), whether the router `degraded` below the planned
    /// backend, and whether overload shedding (`shed`) tightened the budget.
    pub fn record(&self, tier: &str, degraded: bool, shed: bool) {
        let by_tier = match tier {
            "poly" => &self.poly,
            "exact" => &self.exact,
            _ => &self.approx,
        };
        by_tier.fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
        if shed {
            self.overload_sheds.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> RouteCountersSnapshot {
        RouteCountersSnapshot {
            poly: self.poly.load(Ordering::Relaxed),
            exact: self.exact.load(Ordering::Relaxed),
            approx: self.approx.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            overload_sheds: self.overload_sheds.load(Ordering::Relaxed),
        }
    }
}

/// A copy of [`RouteCounters`] (see [`RouteCounters::snapshot`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCountersSnapshot {
    /// Solves answered by the polynomial tier.
    pub poly: u64,
    /// Solves answered by an exact exponential backend.
    pub exact: u64,
    /// Solves answered by a certified approximation (including the trivial
    /// sandwich).
    pub approx: u64,
    /// Solves degraded below their planned backend.
    pub degraded: u64,
    /// Solves whose budget was tightened by overload shedding.
    pub overload_sheds: u64,
}

impl RouteCountersSnapshot {
    /// Total routed solves across all tiers.
    pub fn total(&self) -> u64 {
        self.poly + self.exact + self.approx
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Helpers emitting the Prometheus text exposition format. Callers write one
/// [`header`](prom::header) per metric family, then any number of samples.
pub mod prom {
    use super::HistogramSnapshot;
    use std::fmt::Write;

    /// Writes the `# HELP` / `# TYPE` header of a metric family. `kind` is
    /// one of `counter`, `gauge`, `histogram`.
    pub fn header(out: &mut String, name: &str, help: &str, kind: &str) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
    }

    /// Writes one sample line. `labels` is the brace-less label list
    /// (`verb="solve",tier="poly"`); pass `""` for an unlabeled sample.
    pub fn sample(out: &mut String, name: &str, labels: &str, value: u64) {
        if labels.is_empty() {
            let _ = writeln!(out, "{name} {value}");
        } else {
            let _ = writeln!(out, "{name}{{{labels}}} {value}");
        }
    }

    /// Writes the cumulative `_bucket` series, `_sum`, and `_count` of one
    /// histogram under `name` with the given extra `labels` (the `le` label
    /// is appended to them). The caller writes the family header once.
    pub fn histogram(out: &mut String, name: &str, labels: &str, snapshot: &HistogramSnapshot) {
        let prefix = if labels.is_empty() { String::new() } else { format!("{labels},") };
        let mut cumulative = 0;
        for (i, &n) in snapshot.buckets.iter().enumerate() {
            cumulative += n;
            let le = match super::bucket_upper_bound(i) {
                Some(bound) => bound.to_string(),
                None => "+Inf".to_string(),
            };
            let _ = writeln!(out, "{name}_bucket{{{prefix}le=\"{le}\"}} {cumulative}");
        }
        sample(out, &format!("{name}_sum"), labels, snapshot.sum);
        sample(out, &format!("{name}_count"), labels, snapshot.count());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // Exact powers of two land in the bucket they bound; one past spills
        // into the next.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        for i in 1..NUM_BUCKETS - 1 {
            let bound = bucket_upper_bound(i).unwrap();
            assert_eq!(bucket_index(bound), i, "bound {bound} in its own bucket");
            assert_eq!(bucket_index(bound + 1), i + 1, "bound+1 spills over");
        }
        // Everything past the last finite bound is +Inf.
        let last = bucket_upper_bound(NUM_BUCKETS - 2).unwrap();
        assert_eq!(bucket_index(last + 1), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(NUM_BUCKETS - 1), None);
    }

    #[test]
    fn histogram_counts_sum_and_max() {
        let h = Histogram::new();
        for us in [1, 2, 3, 1000, 70_000_000] {
            h.record(us);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 5);
        assert_eq!(snap.sum, 70_001_006);
        assert_eq!(snap.max, 70_000_000);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 1);
        assert_eq!(snap.buckets[bucket_index(1000)], 1);
        assert_eq!(snap.buckets[NUM_BUCKETS - 1], 1, "70 s lands in +Inf");
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let h = Histogram::new();
        for _ in 0..98 {
            h.record(3); // bucket 2, bound 4
        }
        h.record(1000);
        h.record(2000);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), 4);
        assert_eq!(snap.quantile(0.95), 4);
        assert_eq!(snap.quantile(0.99), 1024);
        assert_eq!(snap.quantile(1.0), 2048);
        assert_eq!(
            HistogramSnapshot { buckets: [0; NUM_BUCKETS], sum: 0, max: 0 }.quantile(0.5),
            0
        );
        // A +Inf-bucket quantile reports the recorded maximum.
        let h = Histogram::new();
        h.record(u64::MAX / 2);
        assert_eq!(h.snapshot().quantile(0.5), u64::MAX / 2);
    }

    #[test]
    fn traces_record_and_aggregate_phases() {
        let mut trace = Trace::enabled();
        assert!(trace.is_enabled());
        let t = trace.begin();
        trace.end(t, "build");
        trace.add("build", 5);
        trace.add("solve", 7);
        let total = trace.seal();
        let spans = trace.spans();
        assert_eq!(spans.iter().filter(|(n, _)| *n == "build").count(), 1, "aggregated");
        assert!(spans.iter().any(|(n, _)| *n == "other"), "seal adds the remainder");
        let accounted: u64 = spans.iter().map(|&(_, us)| us).sum();
        assert_eq!(accounted, total.max(accounted), "spans sum to at least the sealed total");
    }

    #[test]
    fn sub_microsecond_spans_add_up() {
        // Each span spins at least 500 ns; truncating each to whole µs
        // would read 0.
        let spin = |trace: &mut Trace| {
            let timer = trace.begin();
            let start = Instant::now();
            while start.elapsed() < std::time::Duration::from_nanos(500) {}
            trace.end(timer, "spin");
        };
        let spun = |trace: &Trace| trace.spans().iter().find(|(n, _)| *n == "spin").unwrap().1;
        let mut trace = Trace::enabled();
        for _ in 0..1_000 {
            spin(&mut trace);
        }
        assert!(spun(&trace) >= 500, "{:?}", trace.spans());
        // Merging carries the nanoseconds too.
        let mut parent = Trace::enabled();
        for _ in 0..1_000 {
            let mut worker = Trace::enabled();
            spin(&mut worker);
            parent.merge(&worker);
        }
        assert!(spun(&parent) >= 500, "{:?}", parent.spans());
    }

    #[test]
    fn sealing_books_sub_microsecond_phases_from_the_running_sum() {
        // Twenty phases of 900 ns each: truncated one by one they read 0 µs
        // and all 18 µs would land in `other`.
        const PHASES: [&str; 20] = [
            "p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8", "p9", "p10", "p11", "p12", "p13",
            "p14", "p15", "p16", "p17", "p18", "p19",
        ];
        let mut trace = Trace::enabled();
        for phase in PHASES {
            trace.add_nanos(phase, 900);
        }
        let start = Instant::now();
        while start.elapsed() < std::time::Duration::from_micros(50) {}
        let total = trace.seal();
        let spans = trace.spans();
        let phases: u64 = spans.iter().filter(|(n, _)| *n != "other").map(|&(_, us)| us).sum();
        assert_eq!(phases, 18, "{spans:?}");
        let all: u64 = spans.iter().map(|&(_, us)| us).sum();
        assert_eq!(all, total, "the spans still sum to the sealed total: {spans:?}");
    }

    #[test]
    fn disabled_traces_are_inert() {
        let mut trace = Trace::disabled();
        let t = trace.begin();
        trace.end(t, "build");
        trace.add("solve", 7);
        assert_eq!(trace.seal(), 0);
        assert!(trace.spans().is_empty());
    }

    #[test]
    fn merge_folds_worker_spans_into_the_parent() {
        let mut parent = Trace::enabled();
        parent.add("build", 5);
        let mut worker = Trace::enabled();
        worker.add("build", 3);
        worker.add("solve", 2);
        parent.merge(&worker);
        let spans = parent.spans().to_vec();
        assert!(spans.contains(&("build", 8)));
        assert!(spans.contains(&("solve", 2)));
        // Merging into a disabled parent is a no-op.
        let mut disabled = Trace::disabled();
        disabled.merge(&worker);
        assert!(disabled.spans().is_empty());
    }

    #[test]
    fn registry_shares_histograms_per_key() {
        let registry = MetricsRegistry::default();
        let a = registry.histogram(["solve", "local", "poly", "dinic"]);
        let b = registry.histogram(["solve", "local", "poly", "dinic"]);
        assert!(Arc::ptr_eq(&a, &b));
        a.record(10);
        b.record(20);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot[0].1.count(), 2);
        registry.histogram(["solve", "chain", "poly", "dinic"]).record(1);
        assert_eq!(registry.snapshot().len(), 2);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let registry = Arc::new(MetricsRegistry::default());
        let threads = 8;
        let per_thread = 10_000;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    let h = registry.histogram(["solve", "local", "poly", "dinic"]);
                    for i in 0..per_thread {
                        h.record((t * per_thread + i) as u64 % 4096);
                    }
                });
            }
        });
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.len(), 1);
        assert_eq!(snapshot[0].1.count(), (threads * per_thread) as u64);
    }

    #[test]
    fn route_counters_attribute_tiers_degradations_and_sheds() {
        let counters = RouteCounters::new();
        counters.record("poly", false, false);
        counters.record("poly", false, false);
        counters.record("exact", false, false);
        counters.record("approx", true, false);
        counters.record("approx", true, true);
        let snap = counters.snapshot();
        assert_eq!((snap.poly, snap.exact, snap.approx), (2, 1, 2));
        assert_eq!((snap.degraded, snap.overload_sheds), (2, 1));
        assert_eq!(snap.total(), 5);
        // Recording is lock-free: concurrent workers lose nothing.
        let counters = Arc::new(RouteCounters::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let counters = Arc::clone(&counters);
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        counters.record("poly", false, false);
                    }
                });
            }
        });
        assert_eq!(counters.snapshot().total(), 8_000);
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        let mut out = String::new();
        prom::header(&mut out, "rpq_requests_total", "Requests served.", "counter");
        prom::sample(&mut out, "rpq_requests_total", "", 3);
        prom::header(&mut out, "rpq_solve_latency_us", "Solve latency.", "histogram");
        let h = Histogram::new();
        h.record(1);
        h.record(100);
        prom::histogram(&mut out, "rpq_solve_latency_us", "verb=\"solve\"", &h.snapshot());
        assert!(out.contains("# TYPE rpq_solve_latency_us histogram"));
        assert!(out.contains("rpq_solve_latency_us_bucket{verb=\"solve\",le=\"1\"} 1"));
        assert!(out.contains("rpq_solve_latency_us_bucket{verb=\"solve\",le=\"+Inf\"} 2"));
        assert!(out.contains("rpq_solve_latency_us_sum{verb=\"solve\"} 101"));
        assert!(out.contains("rpq_solve_latency_us_count{verb=\"solve\"} 2"));
        // Cumulative buckets never decrease.
        let mut last = 0;
        for line in out.lines().filter(|l| l.starts_with("rpq_solve_latency_us_bucket")) {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last);
            last = value;
        }
    }
}
