//! Cache-friendly CSR flow networks solved over reusable scratch buffers:
//! the crate's one flow network type.
//!
//! Every network, whether a resilience reduction or a test instance, is built
//! straight into a [`CsrFlow`]. The resilience engine solves the *same shape*
//! of network once per database, thousands of times per prepared query, so
//! the arena is reused across builds rather than allocated per solve:
//!
//! * edges are appended into a flat **arena** (`edge_from`/`edge_to`/
//!   `edge_cap` arrays of `u32`/`u128`) that is `clear()`ed — never freed —
//!   between databases;
//! * [`CsrFlow::freeze`] compiles the arena into **CSR** (compressed sparse
//!   row) adjacency by counting sort: `adj_start[v]..adj_start[v+1]` indexes
//!   the contiguous arc slice of vertex `v`, with forward and reverse
//!   residual arcs interleaved in the same arrays and paired through an
//!   explicit `arc_twin` index (an `ai ^ 1` pairing of adjacent arcs does
//!   not survive the CSR permutation);
//! * [`CsrFlow::min_cut`] runs Dinic over a caller-provided [`FlowScratch`],
//!   whose buffers are reset — never reallocated — across solves (see
//!   [`crate::scratch`]);
//! * [`CsrFlow::check_cut`] is an independent reference: it reads only the
//!   arena, so it certifies a returned cut without trusting the solver.
//!
//! Dinic labels each phase by residual distance **to the target** (a BFS
//! from the target over reverse residual arcs), so its blocking-flow search
//! only follows arcs that lead to the target. The product networks of the
//! reductions have large parts that the source reaches but that never reach
//! the target; levels counted from the source would send the search into
//! each of them. The cut does not depend on which maximum flow the solver
//! finds: it is read off the vertices the source reaches in the final
//! residual graph, and for every maximum flow that set is the same, namely
//! the unique minimal source side of a minimum cut. A cold solve and a
//! resumed solve therefore return the same cut edges, not only the same
//! value.
//!
//! Infinite capacities are capped internally at the total finite capacity
//! plus one (saturating), so a flow reaching the cap proves that every cut
//! uses an infinite edge.

use crate::scratch::{FlowScratch, NO_ARC, UNVISITED};
use std::fmt;

/// Identifier of a vertex of a flow network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

impl VertexId {
    /// The vertex identifier as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of an edge of a flow network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge identifier as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The capacity of an edge: a finite non-negative integer or `+∞`.
///
/// Infinite capacities are a dedicated variant (not a large sentinel), so the
/// API can certify that a returned cut is finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capacity {
    /// A finite capacity.
    Finite(u128),
    /// An infinite capacity: the edge can never be part of a finite cut.
    Infinite,
}

impl Capacity {
    /// Whether the capacity is infinite.
    pub fn is_infinite(&self) -> bool {
        matches!(self, Capacity::Infinite)
    }

    /// The finite value, if any.
    pub fn finite(&self) -> Option<u128> {
        match self {
            Capacity::Finite(v) => Some(*v),
            Capacity::Infinite => None,
        }
    }

    /// Saturating addition (`∞` absorbs).
    pub fn saturating_add(self, other: Capacity) -> Capacity {
        match (self, other) {
            (Capacity::Finite(a), Capacity::Finite(b)) => Capacity::Finite(a.saturating_add(b)),
            _ => Capacity::Infinite,
        }
    }
}

impl PartialOrd for Capacity {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Capacity {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use Capacity::*;
        match (self, other) {
            (Finite(a), Finite(b)) => a.cmp(b),
            (Finite(_), Infinite) => std::cmp::Ordering::Less,
            (Infinite, Finite(_)) => std::cmp::Ordering::Greater,
            (Infinite, Infinite) => std::cmp::Ordering::Equal,
        }
    }
}

impl fmt::Display for Capacity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Capacity::Finite(v) => write!(f, "{v}"),
            Capacity::Infinite => write!(f, "+∞"),
        }
    }
}

/// Capacity sentinel inside the arena: `+∞` (finite capacities must be
/// strictly below; the reductions only produce `u64`-sized costs).
const INFINITE: u128 = u128::MAX;
/// `arc_edge` sentinel for reverse (residual-only) arcs.
const NO_EDGE: u32 = u32::MAX;

/// The arena encoding of a capacity: a finite value as itself, `+∞` as
/// [`INFINITE`].
fn encode(capacity: Capacity) -> u128 {
    match capacity {
        Capacity::Finite(c) => {
            assert!(c < INFINITE, "finite capacity too large");
            c
        }
        Capacity::Infinite => INFINITE,
    }
}

/// A flow network frozen into contiguous CSR arrays, built once per database
/// inside a reusable arena and solved over a [`FlowScratch`].
///
/// Lifecycle: [`clear`](CsrFlow::clear) → [`add_vertices`](CsrFlow::add_vertices)
/// / [`add_edge`](CsrFlow::add_edge) / [`set_source`](CsrFlow::set_source) /
/// [`set_target`](CsrFlow::set_target) → [`freeze`](CsrFlow::freeze) →
/// [`min_cut`](CsrFlow::min_cut) (any number of times). All buffers keep
/// their allocations across `clear`.
///
/// ```
/// use rpq_flow::{Capacity, CsrFlow, FlowScratch};
/// let mut net = CsrFlow::new();
/// let s = net.add_vertex();
/// let m = net.add_vertex();
/// let t = net.add_vertex();
/// net.set_source(s);
/// net.set_target(t);
/// net.add_edge(s, m, Capacity::Infinite);
/// let bottleneck = net.add_edge(m, t, Capacity::Finite(2));
/// net.freeze();
/// let mut scratch = FlowScratch::new();
/// let cut = net.min_cut(&mut scratch);
/// assert_eq!(cut.value, Capacity::Finite(2));
/// assert_eq!(cut.cut_edges, [bottleneck]);
/// assert_eq!(net.check_cut(cut.cut_edges), Ok(cut.value));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CsrFlow {
    num_vertices: usize,
    source: u32,
    target: u32,
    // Edge arena (original edge ids are indexes into these).
    edge_from: Vec<u32>,
    edge_to: Vec<u32>,
    edge_cap: Vec<u128>,
    // Frozen CSR residual graph.
    adj_start: Vec<u32>,
    cursor: Vec<u32>,
    arc_head: Vec<u32>,
    arc_twin: Vec<u32>,
    arc_edge: Vec<u32>,
    arc_cap: Vec<u128>,
    /// Edge → forward-arc index of the current freeze ([`NO_ARC`] for
    /// zero-capacity edges, which produce no arcs). Lets the incremental
    /// solver map persistent per-edge flows onto the residual arrays.
    edge_arc: Vec<u32>,
    infinite_cap: u128,
    frozen: bool,
}

/// Per-phase wall-clock timings of a [`CsrFlow::min_cut_timed`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutTimings {
    /// Residual load + max-flow solve, in µs.
    pub solve_us: u64,
    /// Residual-reachability pass + cut-edge scan, in µs.
    pub extract_us: u64,
}

/// A minimum cut computed by [`CsrFlow::min_cut`]. The cut edges borrow the
/// scratch buffer and stay valid until its next solve.
#[derive(Debug)]
pub struct CsrCut<'a> {
    /// The cost of the cut (`Infinite` when no finite cut exists).
    pub value: Capacity,
    /// A concrete set of edges achieving the cut (arena [`EdgeId`]s). Empty
    /// when the value is infinite.
    pub cut_edges: &'a [EdgeId],
}

impl CsrFlow {
    /// An empty network with no capacity reserved.
    pub fn new() -> CsrFlow {
        CsrFlow { source: NO_ARC, target: NO_ARC, ..CsrFlow::default() }
    }

    /// Resets the network for a new build, keeping every allocation.
    pub fn clear(&mut self) {
        self.num_vertices = 0;
        self.source = NO_ARC;
        self.target = NO_ARC;
        self.edge_from.clear();
        self.edge_to.clear();
        self.edge_cap.clear();
        self.frozen = false;
    }

    /// Adds `n` vertices, returning the identifier of the first one. Adding
    /// vertices to a frozen network unfreezes it (a new
    /// [`freeze`](CsrFlow::freeze) is required before the next solve).
    pub fn add_vertices(&mut self, n: usize) -> VertexId {
        let first = VertexId(self.num_vertices as u32);
        self.num_vertices += n;
        self.frozen = false;
        first
    }

    /// Adds one vertex and returns its identifier.
    pub fn add_vertex(&mut self) -> VertexId {
        self.add_vertices(1)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of arena edges.
    pub fn num_edges(&self) -> usize {
        self.edge_from.len()
    }

    /// Whether the CSR adjacency is current (no mutation since the last
    /// [`freeze`](CsrFlow::freeze)). Incremental callers use this to decide
    /// between a warm resume and a full residual reload.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Declares the source vertex.
    pub fn set_source(&mut self, v: VertexId) {
        assert!(v.index() < self.num_vertices, "vertex out of range");
        self.source = v.0;
    }

    /// Declares the target vertex.
    pub fn set_target(&mut self, v: VertexId) {
        assert!(v.index() < self.num_vertices, "vertex out of range");
        self.target = v.0;
    }

    /// Appends a directed edge to the arena and returns its identifier.
    pub fn add_edge(&mut self, from: VertexId, to: VertexId, capacity: Capacity) -> EdgeId {
        assert!(from.index() < self.num_vertices && to.index() < self.num_vertices);
        let cap = encode(capacity);
        let id = EdgeId(self.edge_from.len() as u32);
        self.edge_from.push(from.0);
        self.edge_to.push(to.0);
        self.edge_cap.push(cap);
        self.frozen = false;
        id
    }

    /// Overwrites the capacity of an existing arena edge (the incremental
    /// solver's delete = capacity 0, re-insert = capacity restored). The
    /// network unfreezes: call [`freeze`](CsrFlow::freeze) again before the
    /// next solve — and [`cancel_flow`](CsrFlow::cancel_flow) **before** this
    /// when lowering a capacity below the edge's retained flow, since
    /// cancellation walks the still-frozen adjacency.
    pub fn set_edge_capacity(&mut self, edge: EdgeId, capacity: Capacity) {
        let cap = encode(capacity);
        self.edge_cap[edge.index()] = cap;
        self.frozen = false;
    }

    /// The capacities of every internal buffer, for asserting that reuse
    /// never reallocates (see [`FlowScratch::capacity_signature`]).
    pub fn capacity_signature(&self) -> [usize; 10] {
        [
            self.edge_from.capacity(),
            self.edge_to.capacity(),
            self.edge_cap.capacity(),
            self.adj_start.capacity(),
            self.cursor.capacity(),
            self.arc_head.capacity(),
            self.arc_twin.capacity(),
            self.arc_edge.capacity(),
            self.arc_cap.capacity(),
            self.edge_arc.capacity(),
        ]
    }

    /// The capacity of an arena edge.
    pub fn edge_capacity(&self, id: EdgeId) -> Capacity {
        match self.edge_cap[id.index()] {
            INFINITE => Capacity::Infinite,
            c => Capacity::Finite(c),
        }
    }

    /// Overwrites the capacity of an existing arena edge **without
    /// unfreezing** when the current freeze gave the edge residual arcs: the
    /// forward arc's capacity is rewritten in place and the internal infinity
    /// bound adjusted, so the next solve needs no re-freeze. Lowering a
    /// capacity to zero leaves a zero-capacity arc behind — harmless to the
    /// solvers (no residual) and consistent with the cut contract, which
    /// already includes zero-cost separator edges. The call degrades to
    /// [`set_edge_capacity`](CsrFlow::set_edge_capacity) (unfreeze) when the
    /// edge has no arcs (it was zero-capacity at freeze time) or either
    /// capacity is infinite.
    pub fn patch_edge_capacity(&mut self, edge: EdgeId, capacity: Capacity) {
        let cap = encode(capacity);
        let e = edge.index();
        let old = self.edge_cap[e];
        if old == cap {
            return;
        }
        if self.frozen && cap != INFINITE && old != INFINITE {
            let a = self.edge_arc[e];
            if a != NO_ARC {
                self.edge_cap[e] = cap;
                self.arc_cap[a as usize] = cap;
                self.infinite_cap = self.infinite_cap.saturating_sub(old).saturating_add(cap);
                return;
            }
        }
        self.edge_cap[e] = cap;
        self.frozen = false;
    }

    /// Compiles the arena into CSR residual adjacency (counting sort by arc
    /// tail). Must be called after construction and before
    /// [`min_cut`](CsrFlow::min_cut); adding more edges requires a new
    /// `freeze`. Zero-capacity edges stay in the arena (they participate in
    /// cut extraction) but produce no residual arcs. A no-op on an already
    /// frozen network (every mutation clears the frozen bit).
    pub fn freeze(&mut self) {
        if self.frozen {
            return;
        }
        assert!(self.source != NO_ARC, "source vertex not set");
        assert!(self.target != NO_ARC, "target vertex not set");
        assert_ne!(self.source, self.target, "source and target must differ");
        let n = self.num_vertices;

        let mut total_finite: u128 = 0;
        for &c in &self.edge_cap {
            if c != INFINITE {
                total_finite = total_finite.saturating_add(c);
            }
        }
        self.infinite_cap = total_finite.saturating_add(1);

        self.adj_start.clear();
        self.adj_start.resize(n + 1, 0);
        let mut num_arcs = 0usize;
        for i in 0..self.edge_from.len() {
            if self.edge_cap[i] == 0 {
                continue;
            }
            self.adj_start[self.edge_from[i] as usize + 1] += 1;
            self.adj_start[self.edge_to[i] as usize + 1] += 1;
            num_arcs += 2;
        }
        for v in 0..n {
            self.adj_start[v + 1] += self.adj_start[v];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.adj_start[..n]);
        self.arc_head.clear();
        self.arc_head.resize(num_arcs, 0);
        self.arc_twin.clear();
        self.arc_twin.resize(num_arcs, 0);
        self.arc_edge.clear();
        self.arc_edge.resize(num_arcs, NO_EDGE);
        self.arc_cap.clear();
        self.arc_cap.resize(num_arcs, 0);
        self.edge_arc.clear();
        self.edge_arc.resize(self.edge_from.len(), NO_ARC);

        for i in 0..self.edge_from.len() {
            let cap = self.edge_cap[i];
            if cap == 0 {
                continue;
            }
            let from = self.edge_from[i] as usize;
            let to = self.edge_to[i] as usize;
            let forward = self.cursor[from] as usize;
            self.cursor[from] += 1;
            let reverse = self.cursor[to] as usize;
            self.cursor[to] += 1;
            self.arc_head[forward] = to as u32;
            self.arc_cap[forward] = if cap == INFINITE { self.infinite_cap } else { cap };
            self.arc_edge[forward] = i as u32;
            self.arc_twin[forward] = reverse as u32;
            self.arc_head[reverse] = from as u32;
            self.arc_cap[reverse] = 0;
            self.arc_edge[reverse] = NO_EDGE;
            self.arc_twin[reverse] = forward as u32;
            self.edge_arc[i] = forward as u32;
        }
        self.frozen = true;
    }

    /// The contiguous arc-index range of vertex `v`.
    #[inline]
    fn arc_range(&self, v: usize) -> std::ops::Range<usize> {
        self.adj_start[v] as usize..self.adj_start[v + 1] as usize
    }

    /// Computes a minimum source–target cut with Dinic. All solver state
    /// lives in `scratch`, which is resized (growing only) and reused across
    /// calls.
    pub fn min_cut<'s>(&self, scratch: &'s mut FlowScratch) -> CsrCut<'s> {
        let flow = self.load_and_solve(scratch);
        self.extract_cut(scratch, flow, self.infinite_cap)
    }

    /// [`CsrFlow::min_cut`] with per-phase wall-clock timings: the µs spent
    /// in the max-flow solve (including the residual load) and the µs spent
    /// extracting the cut. A separate entry point — rather than an always-on
    /// measurement inside `min_cut` — so untraced solves pay no clock reads
    /// at all.
    pub fn min_cut_timed<'s>(&self, scratch: &'s mut FlowScratch) -> (CsrCut<'s>, CutTimings) {
        let solve_start = std::time::Instant::now();
        let flow = self.load_and_solve(scratch);
        let solve_us = solve_start.elapsed().as_micros() as u64;
        let extract_start = std::time::Instant::now();
        let cut = self.extract_cut(scratch, flow, self.infinite_cap);
        let extract_us = extract_start.elapsed().as_micros() as u64;
        (cut, CutTimings { solve_us, extract_us })
    }

    /// The residual load and max-flow solve shared by
    /// [`min_cut`](CsrFlow::min_cut) and
    /// [`min_cut_timed`](CsrFlow::min_cut_timed).
    fn load_and_solve(&self, scratch: &mut FlowScratch) -> u128 {
        assert!(self.frozen, "CsrFlow::min_cut requires freeze()");
        scratch.prepare(self.num_vertices);
        scratch.residual.clear();
        scratch.residual.extend_from_slice(&self.arc_cap);
        dinic(self, scratch, None)
    }

    /// Verifies that a persistent flow assignment (as maintained by
    /// [`min_cut_resume`](CsrFlow::min_cut_resume) callers) is a feasible
    /// flow of value `total_flow` on the frozen network: every edge carries
    /// at most its capacity (`Infinite` maps to the freeze's finite proxy),
    /// tombstoned zero-capacity edges carry nothing, interior vertices
    /// conserve flow, and the source's net outflow — which must equal the
    /// target's net inflow — is exactly `total_flow`.
    ///
    /// Returns a description of the first violated invariant. The walk is
    /// `O(V + E)`; it is meant for `debug_assert!` hooks and churn tests,
    /// not hot paths.
    pub fn check_flow_consistency(
        &self,
        edge_flows: &[u128],
        total_flow: u128,
    ) -> Result<(), String> {
        if !self.frozen {
            return Err("network is not frozen".to_string());
        }
        if edge_flows.len() != self.edge_from.len() {
            return Err(format!(
                "{} retained flows for {} arena edges",
                edge_flows.len(),
                self.edge_from.len()
            ));
        }
        let mut inflow = vec![0u128; self.num_vertices];
        let mut outflow = vec![0u128; self.num_vertices];
        for (e, &flow) in edge_flows.iter().enumerate() {
            if self.edge_arc[e] == NO_ARC {
                if flow != 0 {
                    return Err(format!("zero-capacity edge {e} carries flow {flow}"));
                }
                continue;
            }
            let cap =
                if self.edge_cap[e] == INFINITE { self.infinite_cap } else { self.edge_cap[e] };
            if flow > cap {
                return Err(format!("edge {e} carries flow {flow} above its capacity {cap}"));
            }
            let (from, to) = (self.edge_from[e] as usize, self.edge_to[e] as usize);
            outflow[from] = outflow[from].saturating_add(flow);
            inflow[to] = inflow[to].saturating_add(flow);
        }
        let (source, target) = (self.source as usize, self.target as usize);
        for v in 0..self.num_vertices {
            if v == source || v == target {
                continue;
            }
            if inflow[v] != outflow[v] {
                return Err(format!("vertex {v} receives {} but sends {}", inflow[v], outflow[v]));
            }
        }
        let source_net = outflow[source].checked_sub(inflow[source]);
        let target_net = inflow[target].checked_sub(outflow[target]);
        match (source_net, target_net) {
            (Some(s), Some(t)) if s == total_flow && t == total_flow => Ok(()),
            _ => Err(format!(
                "net source outflow {:?} / target inflow {:?} do not match the \
                 recorded total flow {total_flow}",
                source_net, target_net
            )),
        }
    }

    /// Checks that removing the edge set `removed` disconnects the source
    /// from the target, and returns the set's cost: the sum of its
    /// capacities, each edge counted once (`+∞` absorbs). `Err` describes why
    /// the set is not a cut.
    ///
    /// The walk reads only the edge arena, never the frozen CSR arrays, the
    /// solver or the cut extraction, so it certifies a solve independently:
    /// for every finite [`min_cut`](CsrFlow::min_cut),
    /// `check_cut(cut.cut_edges) == Ok(cut.value)`. Every edge left in place
    /// connects its endpoints, zero-capacity ones included. The walk is
    /// `O(V + E)`; it is meant for tests and checks, not hot paths.
    pub fn check_cut(&self, removed: &[EdgeId]) -> Result<Capacity, String> {
        if self.source == NO_ARC || self.target == NO_ARC {
            return Err("source or target vertex not set".to_string());
        }
        let mut is_removed = vec![false; self.num_edges()];
        let mut cost = Capacity::Finite(0);
        for &edge in removed {
            match is_removed.get_mut(edge.index()) {
                None => return Err(format!("edge {} is not in the network", edge.0)),
                Some(seen) if !*seen => {
                    *seen = true;
                    cost = cost.saturating_add(self.edge_capacity(edge));
                }
                Some(_) => {}
            }
        }
        let mut adjacency: Vec<Vec<usize>> = vec![Vec::new(); self.num_vertices];
        for e in (0..self.num_edges()).filter(|&e| !is_removed[e]) {
            adjacency[self.edge_from[e] as usize].push(self.edge_to[e] as usize);
        }
        let (source, target) = (self.source as usize, self.target as usize);
        let mut seen = vec![false; self.num_vertices];
        seen[source] = true;
        let mut stack = vec![source];
        while let Some(v) = stack.pop() {
            if v == target {
                return Err("the target stays reachable from the source".to_string());
            }
            for &next in &adjacency[v] {
                if !seen[next] {
                    seen[next] = true;
                    stack.push(next);
                }
            }
        }
        Ok(cost)
    }

    /// Computes a minimum cut **warm-started** from a retained feasible flow:
    /// `edge_flows[e]` is the flow the previous solve left on arena edge `e`
    /// (0 for freshly added edges) and `total_flow` its value. The residuals
    /// are loaded as `capacity − flow` instead of from zero, the solver only
    /// augments the *difference* to the new maximum, and both outputs are
    /// updated in place for the next resume.
    ///
    /// Infinite-capacity certification is the caller's: the value is reported
    /// `Infinite` when the total flow reaches `infinite_threshold` (the
    /// internal `total_finite + 1` cap recomputed by each freeze cannot serve
    /// here, since it may shrink below a retained flow after deletions — the
    /// incremental solver instead encodes structural edges as a fixed huge
    /// finite capacity and passes that).
    ///
    /// When `want_cut` is `false` the residual-reachability pass and cut-edge
    /// scan are skipped — the returned `cut_edges` slice is empty and only
    /// the value (the max flow, `Infinite` past the threshold) is meaningful.
    ///
    /// `dirty` selects how the residual arrays are (re)loaded:
    ///
    /// * `None` — full reload from `edge_flows`, `O(E)`. Always correct.
    /// * `Some(edges)` — **warm resume**: `scratch.residual` is assumed to
    ///   still hold the state this method left on its previous return (same
    ///   scratch, same freeze, untouched by other solves), and only the
    ///   listed edges are repaired from `edge_flows`. The caller must list
    ///   every edge whose capacity was patched since the last resume;
    ///   [`cancel_flow`](CsrFlow::cancel_flow) keeps the residuals of the
    ///   paths it drains consistent on its own.
    pub fn min_cut_resume<'s>(
        &self,
        scratch: &'s mut FlowScratch,
        edge_flows: &mut [u128],
        total_flow: &mut u128,
        infinite_threshold: u128,
        want_cut: bool,
        dirty: Option<&[EdgeId]>,
    ) -> CsrCut<'s> {
        assert!(self.frozen, "CsrFlow::min_cut_resume requires freeze()");
        assert_eq!(edge_flows.len(), self.num_edges(), "one retained flow per arena edge");
        scratch.prepare(self.num_vertices);
        match dirty {
            None => {
                scratch.residual.clear();
                scratch.residual.resize(self.arc_head.len(), 0);
                for (e, &flow) in edge_flows.iter().enumerate() {
                    let a = self.edge_arc[e];
                    if a == NO_ARC {
                        debug_assert_eq!(flow, 0, "zero-capacity edge retaining flow");
                        continue;
                    }
                    let a = a as usize;
                    let cap = self.arc_cap[a];
                    debug_assert!(flow <= cap, "retained flow exceeds edge capacity");
                    scratch.residual[a] = cap - flow;
                    scratch.residual[self.arc_twin[a] as usize] = flow;
                }
            }
            Some(dirty) => {
                assert_eq!(
                    scratch.residual.len(),
                    self.arc_head.len(),
                    "warm resume requires the previous resume's residual"
                );
                for &edge in dirty {
                    let e = edge.index();
                    let a = self.edge_arc[e];
                    if a == NO_ARC {
                        debug_assert_eq!(edge_flows[e], 0, "zero-capacity edge retaining flow");
                        continue;
                    }
                    let a = a as usize;
                    let flow = edge_flows[e];
                    debug_assert!(flow <= self.arc_cap[a], "retained flow exceeds edge capacity");
                    scratch.residual[a] = self.arc_cap[a] - flow;
                    scratch.residual[self.arc_twin[a] as usize] = flow;
                }
                #[cfg(debug_assertions)]
                for (e, &flow) in edge_flows.iter().enumerate() {
                    let a = self.edge_arc[e];
                    if a != NO_ARC {
                        let a = a as usize;
                        debug_assert_eq!(
                            scratch.residual[a],
                            self.arc_cap[a] - flow,
                            "stale residual on edge {e} in a warm resume"
                        );
                        debug_assert_eq!(scratch.residual[self.arc_twin[a] as usize], flow);
                    }
                }
            }
        }
        *total_flow += dinic(self, scratch, Some(edge_flows));
        if !want_cut {
            scratch.cut_edges.clear();
            let value = if *total_flow >= infinite_threshold {
                Capacity::Infinite
            } else {
                Capacity::Finite(*total_flow)
            };
            return CsrCut { value, cut_edges: &scratch.cut_edges };
        }
        self.extract_cut(scratch, *total_flow, infinite_threshold)
    }

    /// Cancels flow on `edge` down to `keep` units, rerouting the excess so
    /// the remaining assignment is again a feasible flow (of possibly smaller
    /// value, tracked in `total_flow`). This is the incremental delete path:
    /// lower a capacity below the retained flow, cancel the difference, then
    /// [`set_edge_capacity`](CsrFlow::set_edge_capacity) + re-freeze + resume.
    ///
    /// The surplus at the edge's tail is drained backward along
    /// flow-carrying arcs to the source (a genuine value decrease) or to the
    /// edge's head (a cycle cancellation); any remaining deficit at the head
    /// is then drained forward to the target. Each drained path zeroes at
    /// least one arc's flow, so the walk terminates in `O(E)` path searches.
    ///
    /// Returns `false` when the retained flow bookkeeping turns out
    /// inconsistent (no drain path found) — callers should fall back to a
    /// full rebuild; the flow arrays are not usable for a resume afterwards.
    #[must_use]
    pub fn cancel_flow(
        &self,
        edge: EdgeId,
        keep: u128,
        scratch: &mut FlowScratch,
        edge_flows: &mut [u128],
        total_flow: &mut u128,
    ) -> bool {
        assert!(self.frozen, "CsrFlow::cancel_flow requires freeze()");
        let e = edge.index();
        let flow = edge_flows[e];
        if flow <= keep {
            return true;
        }
        let drain = flow - keep;
        edge_flows[e] = keep;
        let u = self.edge_from[e] as usize;
        let v = self.edge_to[e] as usize;
        let source = self.source as usize;
        let target = self.target as usize;
        scratch.prepare(self.num_vertices);

        let mut surplus = drain; // unmatched outflow at u
        let mut deficit = drain; // unmatched inflow at v
        let mut to_source: u128 = 0; // units drained all the way back: value decrease
        if u == source {
            to_source = drain;
            surplus = 0;
        }
        // Safety net: each successful drain zeroes an arc or finishes, so
        // 2·arcs + 2 searches always suffice; exceeding this means a bug.
        let mut guard = 2 * self.arc_head.len() + 2;
        while surplus > 0 {
            guard = guard.saturating_sub(1);
            if guard == 0 {
                return false;
            }
            match self.drain_path(u, true, source, v, surplus, scratch, edge_flows) {
                Some((stop, amount)) => {
                    surplus -= amount;
                    if stop == v {
                        deficit -= amount; // cycle through the canceled edge
                    } else {
                        to_source += amount;
                    }
                }
                None => return false,
            }
        }
        if v == target {
            deficit = 0; // absorbed directly by the flow value
        }
        while deficit > 0 {
            guard = guard.saturating_sub(1);
            if guard == 0 {
                return false;
            }
            match self.drain_path(v, false, target, target, deficit, scratch, edge_flows) {
                Some((_, amount)) => deficit -= amount,
                None => return false,
            }
        }
        debug_assert!(*total_flow >= to_source, "cancellation exceeds the flow value");
        *total_flow = total_flow.saturating_sub(to_source);
        true
    }

    /// One cancellation path search for [`cancel_flow`](CsrFlow::cancel_flow):
    /// BFS from `start` over flow-carrying arcs — against their direction
    /// when `backward` — until `stop_a` or `stop_b` is reached, then cancels
    /// the path's bottleneck (capped at `limit`) and returns the stop vertex
    /// and the amount. `None` when no stop vertex is reachable.
    #[allow(clippy::too_many_arguments)]
    fn drain_path(
        &self,
        start: usize,
        backward: bool,
        stop_a: usize,
        stop_b: usize,
        limit: u128,
        scratch: &mut FlowScratch,
        edge_flows: &mut [u128],
    ) -> Option<(usize, u128)> {
        let n = self.num_vertices;
        for l in scratch.level[..n].iter_mut() {
            *l = UNVISITED;
        }
        scratch.queue.clear();
        scratch.level[start] = 0;
        scratch.queue.push(start as u32);
        let mut head = 0;
        let mut found: Option<usize> = None;
        'bfs: while head < scratch.queue.len() {
            let w = scratch.queue[head] as usize;
            head += 1;
            for b in self.arc_range(w) {
                // Walking backward, the twin of each arc out of `w` is an arc
                // *into* `w`; either way only forward arcs with positive
                // retained flow qualify.
                let via = if backward { self.arc_twin[b] as usize } else { b };
                let ex = self.arc_edge[via];
                if ex == NO_EDGE || edge_flows[ex as usize] == 0 {
                    continue;
                }
                let next = self.arc_head[b] as usize;
                if scratch.level[next] != UNVISITED {
                    continue;
                }
                scratch.level[next] = 0;
                scratch.pred[next] = via as u32;
                if next == stop_a || next == stop_b {
                    found = Some(next);
                    break 'bfs;
                }
                scratch.queue.push(next as u32);
            }
        }
        let stop = found?;
        // Walk the predecessor chain back to `start`, collecting path arcs.
        scratch.path.clear();
        let mut bottleneck = limit;
        let mut w = stop;
        while w != start {
            let via = scratch.pred[w] as usize;
            let ex = self.arc_edge[via] as usize;
            bottleneck = bottleneck.min(edge_flows[ex]);
            scratch.path.push(via as u32);
            // `via` runs w→pred-side when backward (tail is w itself), and
            // pred-side→w when forward; either way the other endpoint is the
            // next vertex toward `start`.
            w = if backward {
                self.arc_head[via] as usize
            } else {
                self.arc_head[self.arc_twin[via] as usize] as usize
            };
        }
        debug_assert!(bottleneck > 0);
        // Keep `scratch.residual` in sync for warm resumes whenever it still
        // belongs to this freeze (saturating: a stale buffer of the right
        // size gets garbage either way and is fully reloaded next resume).
        let FlowScratch { path, residual, .. } = &mut *scratch;
        let track = residual.len() == self.arc_head.len();
        for &via in path.iter() {
            let via = via as usize;
            let ex = self.arc_edge[via] as usize;
            edge_flows[ex] -= bottleneck;
            if track {
                residual[via] = residual[via].saturating_add(bottleneck);
                let twin = self.arc_twin[via] as usize;
                residual[twin] = residual[twin].saturating_sub(bottleneck);
            }
        }
        Some((stop, bottleneck))
    }

    /// Residual-reachability BFS plus cut extraction, shared by
    /// [`min_cut`](CsrFlow::min_cut) and
    /// [`min_cut_resume`](CsrFlow::min_cut_resume). The BFS starts at the
    /// source: Dinic's last level BFS starts at the target, so its labels
    /// are not the source side.
    fn extract_cut<'s>(
        &self,
        scratch: &'s mut FlowScratch,
        flow: u128,
        infinite_threshold: u128,
    ) -> CsrCut<'s> {
        // Vertices reachable from the source in the residual graph.
        scratch.queue.clear();
        scratch.reachable[self.source as usize] = true;
        scratch.queue.push(self.source);
        let mut head = 0;
        while head < scratch.queue.len() {
            let v = scratch.queue[head] as usize;
            head += 1;
            for ai in self.arc_range(v) {
                if scratch.residual[ai] > 0 {
                    let to = self.arc_head[ai] as usize;
                    if !scratch.reachable[to] {
                        scratch.reachable[to] = true;
                        scratch.queue.push(to as u32);
                    }
                }
            }
        }

        if flow >= infinite_threshold {
            scratch.cut_edges.clear();
            return CsrCut { value: Capacity::Infinite, cut_edges: &scratch.cut_edges };
        }

        // Original edges crossing reachable → unreachable form a minimum cut.
        // Zero-capacity edges crossing it are included so the returned set is
        // a genuine separator (they cost nothing).
        scratch.cut_edges.clear();
        for i in 0..self.edge_from.len() {
            if scratch.reachable[self.edge_from[i] as usize]
                && !scratch.reachable[self.edge_to[i] as usize]
            {
                scratch.cut_edges.push(EdgeId(i as u32));
            }
        }
        CsrCut { value: Capacity::Finite(flow), cut_edges: &scratch.cut_edges }
    }
}

/// Dinic's algorithm over the frozen CSR arrays, with **sink-rooted** levels:
/// each phase labels every vertex by its residual distance *to the target*
/// (a BFS from the target over reverse residual arcs), then runs an
/// iterative blocking-flow DFS from the source, driven by an explicit
/// arc-path stack and the per-vertex current-arc pointers, along arcs that
/// step one level down.
///
/// Every admissible arc leads to the target when the phase starts, so the
/// DFS meets a dead end only where an arc saturated during the phase. Levels
/// from the source would instead admit every arc into the parts of a product
/// network that cannot reach the target, and the DFS would walk each of them
/// before pruning it. The run ends when the BFS no longer reaches the source.
fn dinic(csr: &CsrFlow, s: &mut FlowScratch, mut edge_flows: Option<&mut [u128]>) -> u128 {
    let n = csr.num_vertices;
    let source = csr.source as usize;
    let target = csr.target as usize;
    let mut total: u128 = 0;
    loop {
        // BFS from the target (`level` may be longer than `n` after a bigger
        // instance; only this instance's prefix is live). Arc `ai` out of `w`
        // runs w → to, so its twin runs to → w: `to` is one step further from
        // the target when the twin has residual capacity. The search stops
        // once the source is labeled: the DFS only ever visits vertices below
        // the source's level, and those are all labeled by then.
        for l in s.level[..n].iter_mut() {
            *l = UNVISITED;
        }
        s.level[target] = 0;
        s.queue.clear();
        s.queue.push(target as u32);
        let mut head = 0;
        'bfs: while head < s.queue.len() {
            let w = s.queue[head] as usize;
            head += 1;
            let next_level = s.level[w] + 1;
            for ai in csr.arc_range(w) {
                let to = csr.arc_head[ai] as usize;
                if s.level[to] == UNVISITED && s.residual[csr.arc_twin[ai] as usize] > 0 {
                    s.level[to] = next_level;
                    if to == source {
                        break 'bfs;
                    }
                    s.queue.push(to as u32);
                }
            }
        }
        if s.level[source] == UNVISITED {
            break;
        }
        s.current_arc[..n].copy_from_slice(&csr.adj_start[..n]);

        // Blocking flow: advance along admissible arcs, augment at the
        // target, retreat (pruning the vertex from this phase) on dead ends.
        s.path.clear();
        let mut v = source;
        loop {
            if v == target {
                let mut bottleneck = u128::MAX;
                for &ai in &s.path {
                    bottleneck = bottleneck.min(s.residual[ai as usize]);
                }
                for &ai in &s.path {
                    let ai = ai as usize;
                    s.residual[ai] -= bottleneck;
                    s.residual[csr.arc_twin[ai] as usize] += bottleneck;
                }
                if let Some(flows) = edge_flows.as_deref_mut() {
                    apply_augment(csr, &s.path, bottleneck, flows);
                }
                total += bottleneck;
                // Restart from the tail of the first saturated arc.
                let mut keep = 0;
                while keep < s.path.len() && s.residual[s.path[keep] as usize] > 0 {
                    keep += 1;
                }
                s.path.truncate(keep);
                v = match s.path.last() {
                    Some(&ai) => csr.arc_head[ai as usize] as usize,
                    None => source,
                };
                continue;
            }
            let end = csr.adj_start[v + 1];
            // `v` is not the target, so its level is at least 1.
            let down = s.level[v] - 1;
            let mut advanced = false;
            while s.current_arc[v] < end {
                let ai = s.current_arc[v] as usize;
                let to = csr.arc_head[ai] as usize;
                if s.residual[ai] > 0 && s.level[to] == down {
                    s.path.push(ai as u32);
                    v = to;
                    advanced = true;
                    break;
                }
                s.current_arc[v] += 1;
            }
            if !advanced {
                if v == source {
                    break; // blocking flow complete for this phase
                }
                s.level[v] = UNVISITED; // dead end: prune for this phase
                s.path.pop();
                v = match s.path.last() {
                    Some(&ai) => csr.arc_head[ai as usize] as usize,
                    None => source,
                };
            }
        }
    }
    total
}

/// Folds one augmenting path's `bottleneck` units into the per-edge flow
/// array (the retained state a resumable solve keeps): a forward arc carries
/// its arena edge directly, a reverse arc cancels flow on its twin's edge.
fn apply_augment(csr: &CsrFlow, path_arcs: &[u32], bottleneck: u128, flows: &mut [u128]) {
    for &ai in path_arcs {
        let ai = ai as usize;
        let ex = csr.arc_edge[ai];
        if ex != NO_EDGE {
            flows[ex as usize] += bottleneck;
        } else {
            let ex = csr.arc_edge[csr.arc_twin[ai] as usize] as usize;
            flows[ex] -= bottleneck;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A frozen network on `n` vertices with finite-capacity `edges`.
    fn simple_network(edges: &[(u32, u32, u64)], n: u32, s: u32, t: u32) -> CsrFlow {
        let mut net = CsrFlow::new();
        net.add_vertices(n as usize);
        net.set_source(VertexId(s));
        net.set_target(VertexId(t));
        for &(a, b, c) in edges {
            net.add_edge(VertexId(a), VertexId(b), Capacity::Finite(c as u128));
        }
        net.freeze();
        net
    }

    /// A frozen `s -> m -> t` path with capacities `first` and `second`.
    fn path(first: Capacity, second: Capacity) -> CsrFlow {
        let mut net = CsrFlow::new();
        let s = net.add_vertex();
        let m = net.add_vertex();
        let t = net.add_vertex();
        net.set_source(s);
        net.set_target(t);
        net.add_edge(s, m, first);
        net.add_edge(m, t, second);
        net.freeze();
        net
    }

    fn instances() -> Vec<CsrFlow> {
        vec![
            simple_network(&[(0, 1, 5)], 2, 0, 1),
            simple_network(&[], 2, 0, 1),
            simple_network(&[(1, 0, 4)], 2, 0, 1),
            simple_network(&[(0, 1, 5), (1, 2, 3), (2, 3, 7)], 4, 0, 3),
            simple_network(&[(0, 1, 2), (1, 3, 2), (0, 2, 3), (2, 3, 3)], 4, 0, 3),
            simple_network(&[(0, 1, 0), (0, 1, 3)], 2, 0, 1),
            simple_network(&[(0, 1, 2), (0, 1, 3)], 2, 0, 1),
            simple_network(&[(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 3, 2), (1, 3, 1)], 4, 0, 3),
            simple_network(&[(0, 1, 2), (0, 2, 3), (1, 3, 4), (2, 3, 1), (1, 2, 1)], 4, 0, 3),
            simple_network(&[(0, 1, u64::MAX), (1, 2, u64::MAX), (0, 2, u64::MAX)], 3, 0, 2),
            simple_network(
                &[
                    (0, 1, 16),
                    (0, 2, 13),
                    (1, 2, 10),
                    (2, 1, 4),
                    (1, 3, 12),
                    (3, 2, 9),
                    (2, 4, 14),
                    (4, 3, 7),
                    (3, 5, 20),
                    (4, 5, 4),
                ],
                6,
                0,
                5,
            ),
            // Infinite routes, bottlenecked and not.
            path(Capacity::Infinite, Capacity::Infinite),
            path(Capacity::Infinite, Capacity::Finite(4)),
        ]
    }

    #[test]
    fn capacity_ordering_and_arithmetic() {
        assert!(Capacity::Finite(3) < Capacity::Finite(5));
        assert!(Capacity::Finite(u128::MAX) < Capacity::Infinite);
        assert_eq!(Capacity::Infinite, Capacity::Infinite);
        assert_eq!(Capacity::Finite(2).saturating_add(Capacity::Finite(3)), Capacity::Finite(5));
        assert!(Capacity::Finite(2).saturating_add(Capacity::Infinite).is_infinite());
        assert_eq!(Capacity::Infinite.finite(), None);
        assert_eq!(Capacity::Finite(4).to_string(), "4");
        assert_eq!(Capacity::Infinite.to_string(), "+∞");
    }

    /// `s -> a -> t` and `s -> b -> t`, with capacities 2, 1, 3 and `+∞`.
    fn diamond() -> (CsrFlow, Vec<EdgeId>) {
        let mut n = CsrFlow::new();
        let s = n.add_vertex();
        let a = n.add_vertex();
        let b = n.add_vertex();
        let t = n.add_vertex();
        n.set_source(s);
        n.set_target(t);
        let e = vec![
            n.add_edge(s, a, Capacity::Finite(2)),
            n.add_edge(a, t, Capacity::Finite(1)),
            n.add_edge(s, b, Capacity::Finite(3)),
            n.add_edge(b, t, Capacity::Infinite),
        ];
        (n, e)
    }

    #[test]
    fn network_construction() {
        let (n, edges) = diamond();
        assert_eq!(n.num_vertices(), 4);
        assert_eq!(n.num_edges(), 4);
        assert_eq!(n.edge_capacity(edges[3]), Capacity::Infinite);
    }

    #[test]
    fn check_cut_detects_cuts_and_costs() {
        let (n, edges) = diamond();
        // Removing a->t and s->b disconnects.
        assert_eq!(n.check_cut(&[edges[1], edges[2]]), Ok(Capacity::Finite(4)));
        // Removing only a->t does not.
        assert!(n.check_cut(&[edges[1]]).is_err());
        // Removing both source edges disconnects.
        assert_eq!(n.check_cut(&[edges[0], edges[2]]), Ok(Capacity::Finite(5)));
        // A cut containing an infinite edge has infinite cost.
        assert_eq!(n.check_cut(&[edges[1], edges[3]]), Ok(Capacity::Infinite));
        // The empty set is not a cut here.
        assert!(n.check_cut(&[]).is_err());
    }

    #[test]
    fn cut_separates_source_and_target_sides() {
        let net = simple_network(&[(0, 1, 1), (1, 3, 5), (0, 2, 5), (2, 3, 1)], 4, 0, 3);
        let mut scratch = FlowScratch::new();
        let cut = net.min_cut(&mut scratch);
        assert_eq!(cut.value, Capacity::Finite(2));
        assert_eq!(net.check_cut(cut.cut_edges), Ok(Capacity::Finite(2)));
        assert_eq!(scratch.source_side(), [true, false, true, false]);
    }

    #[test]
    fn solves_certify_their_cuts() {
        // Each instance reaches its hand-computed min-cut value, and each cut
        // disconnects the network at exactly that cost (the max-flow/min-cut
        // certificate). One scratch serves every instance, so each solve also
        // runs over the previous one's leftovers.
        let finite = [5, 0, 0, 3, 5, 3, 5, 3, 3, 2 * u64::MAX as u128, 23].map(Capacity::Finite);
        let expected: Vec<Capacity> =
            finite.into_iter().chain([Capacity::Infinite, Capacity::Finite(4)]).collect();
        let nets = instances();
        assert_eq!(nets.len(), expected.len());
        let mut scratch = FlowScratch::new();
        for (i, (csr, value)) in nets.iter().zip(expected).enumerate() {
            let cut = csr.min_cut(&mut scratch);
            assert_eq!(cut.value, value, "instance {i}: value");
            if let Capacity::Finite(_) = cut.value {
                assert_eq!(csr.check_cut(cut.cut_edges), Ok(cut.value), "instance {i}: CSR cut");
            } else {
                assert!(cut.cut_edges.is_empty());
            }
        }
    }

    #[test]
    fn exhaustive_cross_check_on_small_networks() {
        // Brute force all edge subsets and compare against the CSR solve.
        let nets = vec![
            simple_network(&[(0, 1, 2), (0, 2, 3), (1, 3, 4), (2, 3, 1), (1, 2, 1)], 4, 0, 3),
            simple_network(&[(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 3, 2), (1, 3, 1)], 4, 0, 3),
            simple_network(&[(0, 1, 3), (1, 2, 2), (0, 2, 1), (2, 3, 3), (1, 3, 1)], 4, 0, 3),
        ];
        let mut scratch = FlowScratch::new();
        for csr in nets {
            let m = csr.num_edges();
            let mut best = Capacity::Infinite;
            for mask in 0..(1u32 << m) {
                let set: Vec<EdgeId> =
                    (0..m).filter(|i| mask & (1 << i) != 0).map(|i| EdgeId(i as u32)).collect();
                if let Ok(cost) = csr.check_cut(&set) {
                    best = best.min(cost);
                }
            }
            assert_eq!(csr.min_cut(&mut scratch).value, best);
        }
    }

    #[test]
    fn arena_reuse_after_clear_keeps_results_correct() {
        let mut csr = CsrFlow::new();
        let mut scratch = FlowScratch::new();
        let mut fresh = FlowScratch::new();
        for net in instances() {
            csr.clear();
            csr.add_vertices(net.num_vertices());
            csr.set_source(VertexId(net.source));
            csr.set_target(VertexId(net.target));
            for e in 0..net.num_edges() {
                let capacity = net.edge_capacity(EdgeId(e as u32));
                csr.add_edge(VertexId(net.edge_from[e]), VertexId(net.edge_to[e]), capacity);
            }
            csr.freeze();
            let expected = net.min_cut(&mut fresh);
            let expected = (expected.value, expected.cut_edges.to_vec());
            let cut = csr.min_cut(&mut scratch);
            assert_eq!((cut.value, cut.cut_edges.to_vec()), expected);
        }
    }

    #[test]
    fn resume_from_zero_flow_matches_cold_solve() {
        // Same value and same cut edges as a cold solve; the two solves
        // use separate scratches.
        let mut cold_scratch = FlowScratch::new();
        let mut warm_scratch = FlowScratch::new();
        for csr in instances() {
            let cold = csr.min_cut(&mut cold_scratch);
            let cold = (cold.value, cold.cut_edges.to_vec());
            let mut flows = vec![0u128; csr.num_edges()];
            let mut total = 0u128;
            let warm = csr.min_cut_resume(
                &mut warm_scratch,
                &mut flows,
                &mut total,
                csr.infinite_cap,
                true,
                None,
            );
            assert_eq!((warm.value, warm.cut_edges.to_vec()), cold);
            if let Capacity::Finite(f) = cold.0 {
                assert_eq!(total, f);
            }
        }
    }

    /// The `(value, cut_edges)` of a cold solve and of a from-zero
    /// [`CsrFlow::min_cut_resume`] of `csr`, in that order. Each solve has a
    /// scratch of its own, so neither reads the other's leftovers.
    fn cold_and_resumed_cuts(
        csr: &CsrFlow,
        scratch: &mut [FlowScratch; 2],
    ) -> [(Capacity, Vec<EdgeId>); 2] {
        let [cold, resume] = scratch;
        let cold = csr.min_cut(cold);
        let cold = (cold.value, cold.cut_edges.to_vec());
        let mut flows = vec![0u128; csr.num_edges()];
        let mut total = 0u128;
        let resume =
            csr.min_cut_resume(resume, &mut flows, &mut total, csr.infinite_cap, true, None);
        [cold, (resume.value, resume.cut_edges.to_vec())]
    }

    #[test]
    fn cold_and_resumed_solves_extract_the_same_cut() {
        // The cut is read off the vertices the source still reaches in the
        // residual graph, and that set is the same for every maximum flow
        // (the unique minimal source side). So a cold solve and a resume
        // from zero flow, which augment along different paths, must agree on
        // the cut edges, not just the value, here on seeded random small
        // networks with parallel, zero-capacity, infinite and
        // target-to-source edges.
        let mut scratch: [FlowScratch; 2] = Default::default();
        let mut rng: u64 = 0x2545F4914F6CDD1D;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for round in 0..3_000 {
            let n = 2 + (next() % 7) as usize;
            let mut csr = CsrFlow::new();
            csr.add_vertices(n);
            let source = (next() % n as u64) as u32;
            let target = (source + 1 + (next() % (n as u64 - 1)) as u32) % n as u32;
            csr.set_source(VertexId(source));
            csr.set_target(VertexId(target));
            for _ in 0..next() % (3 * n as u64) {
                let from = VertexId((next() % n as u64) as u32);
                let to = VertexId((next() % n as u64) as u32);
                let capacity = match next() % 8 {
                    0 | 1 => Capacity::Finite(0),
                    2 => Capacity::Infinite,
                    _ => Capacity::Finite((next() % 5) as u128),
                };
                csr.add_edge(from, to, capacity);
            }
            csr.freeze();
            let [cold, resume] = cold_and_resumed_cuts(&csr, &mut scratch);
            assert_eq!(cold, resume, "round {round}");
        }
    }

    #[test]
    fn dead_end_fan_out_beside_real_paths() {
        // The source fans out into 1,200 branches that run into a region
        // with no route to the target, beside three real paths. Levels
        // counted from the source would admit every branch; the min cut is
        // the real paths' bottlenecks 2 + 3 + 1 = 6.
        const BRANCHES: u32 = 1_200;
        let mut net = CsrFlow::new();
        let s = net.add_vertex();
        let t = net.add_vertex();
        net.set_source(s);
        net.set_target(t);
        let dead = net.add_vertex();
        let dead_loop = net.add_vertex();
        net.add_edge(dead, dead_loop, Capacity::Infinite);
        net.add_edge(dead_loop, dead, Capacity::Finite(4));
        for _ in 0..BRANCHES {
            let a = net.add_vertex();
            let b = net.add_vertex();
            net.add_edge(s, a, Capacity::Finite(3));
            net.add_edge(a, b, Capacity::Infinite);
            net.add_edge(b, dead, Capacity::Finite(2));
        }
        let mut real = Vec::new();
        for (first, second) in [(5u128, 2u128), (3, 7), (1, 1)] {
            let p = net.add_vertex();
            let q = net.add_vertex();
            real.push(net.add_edge(s, p, Capacity::Finite(first)));
            real.push(net.add_edge(p, q, Capacity::Infinite));
            real.push(net.add_edge(q, t, Capacity::Finite(second)));
            // A side exit into the dead region from every real path.
            net.add_edge(p, dead, Capacity::Finite(9));
        }
        net.freeze();
        let mut scratch: [FlowScratch; 2] = Default::default();
        let [cold, resume] = cold_and_resumed_cuts(&net, &mut scratch);
        assert_eq!(cold.0, Capacity::Finite(6));
        assert_eq!(cold.1, vec![real[2], real[3], real[6]]);
        assert_eq!(cold, resume);
    }

    #[test]
    fn incremental_capacity_churn_matches_cold_solves() {
        // Deterministic xorshift so the churn is reproducible.
        let mut rng: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut scratch = FlowScratch::new();
        // Cold cross-checks use their own scratch so the resume scratch keeps
        // its residual state and the warm path is genuinely exercised.
        let mut cold_scratch = FlowScratch::new();
        for round in 0..40 {
            // A layered random network with only finite capacities.
            let layers = 3 + (next() % 3) as usize;
            let width = 2 + (next() % 3) as usize;
            let mut csr = CsrFlow::new();
            let n = layers * width + 2;
            csr.add_vertices(n);
            let source = VertexId((n - 2) as u32);
            let target = VertexId((n - 1) as u32);
            csr.set_source(source);
            csr.set_target(target);
            let mut edges = Vec::new();
            for w in 0..width {
                edges.push(csr.add_edge(
                    source,
                    VertexId(w as u32),
                    Capacity::Finite((1 + next() % 8) as u128),
                ));
                let last = ((layers - 1) * width + w) as u32;
                edges.push(csr.add_edge(
                    VertexId(last),
                    target,
                    Capacity::Finite((1 + next() % 8) as u128),
                ));
            }
            for l in 0..layers - 1 {
                for a in 0..width {
                    for b in 0..width {
                        if next() % 3 == 0 {
                            let from = VertexId((l * width + a) as u32);
                            let to = VertexId(((l + 1) * width + b) as u32);
                            edges.push(csr.add_edge(
                                from,
                                to,
                                Capacity::Finite((1 + next() % 8) as u128),
                            ));
                        }
                    }
                }
            }
            csr.freeze();
            let mut flows = vec![0u128; csr.num_edges()];
            let mut total = 0u128;
            csr.min_cut_resume(&mut scratch, &mut flows, &mut total, u128::MAX, true, None);

            // Churn: raise, lower, zero, and restore capacities; occasionally
            // append a brand-new edge. Cross-check each warm resume against a
            // cold solve of the same (post-edit) network.
            for step in 0..12 {
                let mut dirty: Vec<EdgeId> = Vec::new();
                let edit = next() % 4;
                if edit == 3 {
                    let from = VertexId((next() % n as u64) as u32);
                    let to = VertexId((next() % n as u64) as u32);
                    if from != to && to.0 != source.0 && from.0 != target.0 {
                        edges.push(csr.add_edge(
                            from,
                            to,
                            Capacity::Finite((1 + next() % 8) as u128),
                        ));
                        flows.push(0);
                    }
                } else {
                    let e = edges[(next() % edges.len() as u64) as usize];
                    let new_cap = if edit == 0 { 0u128 } else { (next() % 9) as u128 };
                    if new_cap < flows[e.index()] {
                        assert!(
                            csr.cancel_flow(e, new_cap, &mut scratch, &mut flows, &mut total),
                            "round {round} step {step}: cancellation must succeed"
                        );
                    }
                    // Alternate between the unfreezing write and the in-place
                    // frozen patch so both paths face the cold cross-check.
                    if next() % 2 == 0 {
                        csr.set_edge_capacity(e, Capacity::Finite(new_cap));
                    } else {
                        csr.patch_edge_capacity(e, Capacity::Finite(new_cap));
                    }
                    dirty.push(e);
                }
                // A patch that kept the freeze intact allows a warm resume
                // repairing only the dirty edges; any unfreeze (new edge, or
                // `set_edge_capacity`) forces the full residual reload.
                let warm_ok = csr.is_frozen();
                csr.freeze();
                let want_cut = step % 2 == 0; // both resume paths: with and without a cut
                let warm = csr.min_cut_resume(
                    &mut scratch,
                    &mut flows,
                    &mut total,
                    u128::MAX,
                    want_cut,
                    if warm_ok { Some(&dirty) } else { None },
                );
                let (warm_value, warm_cut) = (warm.value, warm.cut_edges.to_vec());
                // The retained flows must stay feasible and sum to `total`.
                let cold = csr.min_cut(&mut cold_scratch);
                assert_eq!(warm_value, cold.value, "round {round} step {step}");
                assert_eq!(warm_value, Capacity::Finite(total), "round {round} step {step}");
                if want_cut {
                    assert_eq!(warm_cut, cold.cut_edges, "round {round} step {step}: cut edges");
                }
            }
        }
    }

    #[test]
    fn cancel_flow_handles_source_and_target_adjacent_edges() {
        // s -> m -> t plus a parallel s -> t edge; cancel each in turn.
        let mut csr = CsrFlow::new();
        csr.add_vertices(3);
        let (s, m, t) = (VertexId(0), VertexId(1), VertexId(2));
        csr.set_source(s);
        csr.set_target(t);
        let sm = csr.add_edge(s, m, Capacity::Finite(5));
        let mt = csr.add_edge(m, t, Capacity::Finite(5));
        let st = csr.add_edge(s, t, Capacity::Finite(3));
        csr.freeze();
        let mut scratch = FlowScratch::new();
        let mut flows = vec![0u128; 3];
        let mut total = 0u128;
        assert_eq!(
            csr.min_cut_resume(&mut scratch, &mut flows, &mut total, u128::MAX, true, None).value,
            Capacity::Finite(8)
        );
        // Deleting the direct s->t edge: pure value decrease on both sides.
        assert!(csr.cancel_flow(st, 0, &mut scratch, &mut flows, &mut total));
        csr.set_edge_capacity(st, Capacity::Finite(0));
        csr.freeze();
        let cut = csr.min_cut_resume(&mut scratch, &mut flows, &mut total, u128::MAX, true, None);
        assert_eq!(cut.value, Capacity::Finite(5));
        // Lowering the source-adjacent edge below its flow.
        assert!(csr.cancel_flow(sm, 2, &mut scratch, &mut flows, &mut total));
        csr.set_edge_capacity(sm, Capacity::Finite(2));
        csr.freeze();
        let cut = csr.min_cut_resume(&mut scratch, &mut flows, &mut total, u128::MAX, true, None);
        assert_eq!(cut.value, Capacity::Finite(2));
        // And the target-adjacent edge all the way to zero.
        assert!(csr.cancel_flow(mt, 0, &mut scratch, &mut flows, &mut total));
        csr.set_edge_capacity(mt, Capacity::Finite(0));
        csr.freeze();
        let cut = csr.min_cut_resume(&mut scratch, &mut flows, &mut total, u128::MAX, true, None);
        assert_eq!(cut.value, Capacity::Finite(0));
        assert_eq!(total, 0);
    }

    #[test]
    fn resume_reports_infinite_at_the_caller_threshold() {
        let mut csr = CsrFlow::new();
        csr.add_vertices(2);
        csr.set_source(VertexId(0));
        csr.set_target(VertexId(1));
        // "Structural" capacity encoded as a huge finite value.
        const BIG: u128 = 1 << 80;
        csr.add_edge(VertexId(0), VertexId(1), Capacity::Finite(BIG));
        csr.freeze();
        let mut scratch = FlowScratch::new();
        let mut flows = vec![0u128];
        let mut total = 0u128;
        let cut = csr.min_cut_resume(&mut scratch, &mut flows, &mut total, BIG, true, None);
        assert_eq!(cut.value, Capacity::Infinite);
        assert!(cut.cut_edges.is_empty());
    }

    #[test]
    fn flow_consistency_checker_accepts_and_rejects() {
        // Path 0 -> 1 -> 2 with capacities 5 and 3: max flow 3.
        let csr = simple_network(&[(0, 1, 5), (1, 2, 3)], 3, 0, 2);
        assert_eq!(csr.check_flow_consistency(&[3, 3], 3), Ok(()));
        // Value 0 with no flow is also feasible.
        assert_eq!(csr.check_flow_consistency(&[0, 0], 0), Ok(()));
        // Wrong vector length.
        assert!(csr.check_flow_consistency(&[3], 3).is_err());
        // Over capacity on the second edge.
        assert!(csr.check_flow_consistency(&[4, 4], 4).is_err());
        // Conservation broken at vertex 1.
        assert!(csr.check_flow_consistency(&[3, 2], 3).is_err());
        // Feasible flow, wrong recorded total.
        assert!(csr.check_flow_consistency(&[3, 3], 2).is_err());
        // Unfrozen networks cannot be checked (`simple_network` freezes, so
        // build by hand).
        let mut unfrozen = CsrFlow::new();
        let a = unfrozen.add_vertices(2);
        unfrozen.set_source(a);
        unfrozen.set_target(VertexId(1));
        unfrozen.add_edge(a, VertexId(1), Capacity::Finite(1));
        assert!(unfrozen.check_flow_consistency(&[0], 0).is_err());
    }

    #[test]
    fn flow_consistency_checker_handles_zero_capacity_edges() {
        let mut csr = CsrFlow::new();
        let v = csr.add_vertices(3);
        let (a, b, c) = (v, VertexId(1), VertexId(2));
        csr.set_source(a);
        csr.set_target(c);
        csr.add_edge(a, b, Capacity::Finite(2));
        let dead = csr.add_edge(b, c, Capacity::Finite(0)); // tombstone: no arcs
        csr.add_edge(b, c, Capacity::Infinite);
        csr.freeze();
        assert_eq!(csr.edge_arc[dead.index()], NO_ARC);
        assert_eq!(csr.check_flow_consistency(&[2, 0, 2], 2), Ok(()));
        // A tombstoned edge must carry no flow.
        assert!(csr.check_flow_consistency(&[2, 2, 0], 2).is_err());
    }

    #[test]
    fn scratch_is_not_reallocated_across_repeated_solves() {
        let csr = simple_network(
            &[(0, 1, 16), (0, 2, 13), (1, 2, 10), (1, 3, 12), (2, 4, 14), (3, 5, 20), (4, 5, 4)],
            6,
            0,
            5,
        );
        let mut scratch = FlowScratch::new();
        // The warm-up solve sizes every buffer.
        csr.min_cut(&mut scratch);
        let signature = scratch.capacity_signature();
        for _ in 0..8 {
            csr.min_cut(&mut scratch);
            assert_eq!(scratch.capacity_signature(), signature);
        }
    }
}
