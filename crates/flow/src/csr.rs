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
//! * an arc is its `u32` head, its `u32` twin, one forward-arc bit and its
//!   residual in the scratch: 16 bytes on the narrow path below, 24 on the
//!   wide one. Capacities stay in the arena, where `edge_arc` finds each
//!   edge's forward arc;
//! * [`CsrFlow::max_flow`] runs Dinic over a caller-provided [`FlowScratch`],
//!   whose buffers are reset — never reallocated — across solves (see
//!   [`crate::scratch`]), and [`CsrFlow::extract_cut`] reads the cut off its
//!   residual graph; [`CsrFlow::min_cut`] runs the two;
//! * the residual graph is the flow: an edge's flow is the residual of its
//!   reverse arc, so [`CsrFlow::max_flow_resume`] continues from whatever
//!   flow the scratch holds, and the capacity patches and flow cancellations
//!   of an incremental solver edit that one copy in place;
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
//! `+∞` has one rule: every infinite edge gets the same fixed proxy
//! capacity, 2^100, in the arena. The network asserts on every added or
//! patched capacity that its finite capacities sum below the proxy, and the
//! reductions stay below 2^97: fact costs are `u64`, there are fewer than
//! 2^32 facts, and the exchange prices of the Proposition 7.9 rewriting sum
//! to at most its `x` weights. Every finite cut therefore costs less than
//! the proxy, and a flow that reaches it proves that every cut uses an
//! infinite edge. Dinic stops there, so a flow value stays below twice the
//! proxy. The proxy does not depend on the finite capacities, so a patch or
//! a deletion never moves it under a retained flow.
//!
//! The residuals have two widths. When the finite capacities sum below
//! 2^62, [`CsrFlow::max_flow`] runs on `u64` residuals with 2^62 as the
//! proxy of `+∞`: every finite cut then costs less than it, no residual
//! exceeds it, and the flow value stays below 2^63. A narrow flow that
//! reaches 2^62 proves `+∞`, and the solve reruns on `u128` residuals, as do
//! networks with a larger finite total, so the `+∞` answer always comes from
//! the 2^100 proxy. The incremental path works at `u128` only:
//! [`CsrFlow::cancel_flow`], [`CsrFlow::patch_edge_capacity`] and
//! [`CsrFlow::max_flow_resume`] widen a narrow flow once before they edit it.

use crate::scratch::{FlowScratch, NO_ARC, UNVISITED};
use std::fmt;
use std::ops::{AddAssign, SubAssign};

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

/// The proxy capacity of every `+∞` edge, in the arena and on the wide
/// path (see the [module docs](self)). The finite capacities of a network
/// sum below it.
const INFINITE: u128 = 1 << 100;
/// The `+∞` proxy of the narrow (`u64`) path, taken when the finite
/// capacities sum below it.
const NARROW_INFINITE: u64 = 1 << 62;

/// The integer width of a residual graph: `u64` on the narrow path, `u128`
/// on the wide one (see the [module docs](self)).
trait Width: Copy + Ord + AddAssign + SubAssign + Into<u128> + TryFrom<u128> {
    /// Whether a flow of this width lives in [`FlowScratch::narrow`].
    const NARROW: bool;
    const ZERO: Self;
    const MAX: Self;
    /// The `+∞` proxy at this width.
    const PROXY: Self;
    /// This width's residuals in `scratch`.
    fn residuals(scratch: &mut FlowScratch) -> &mut Vec<Self>;
    /// An arena capacity at this width. Only [`INFINITE`] exceeds `u64`
    /// below the narrow finite total, so it alone becomes the proxy.
    fn from_capacity(cap: u128) -> Self {
        Self::try_from(cap).unwrap_or(Self::PROXY)
    }
}

impl Width for u64 {
    const NARROW: bool = true;
    const ZERO: u64 = 0;
    const MAX: u64 = u64::MAX;
    const PROXY: u64 = NARROW_INFINITE;
    fn residuals(scratch: &mut FlowScratch) -> &mut Vec<u64> {
        &mut scratch.narrow
    }
}

impl Width for u128 {
    const NARROW: bool = false;
    const ZERO: u128 = 0;
    const MAX: u128 = u128::MAX;
    const PROXY: u128 = INFINITE;
    fn residuals(scratch: &mut FlowScratch) -> &mut Vec<u128> {
        &mut scratch.wide
    }
}

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

/// The value of a flow: `+∞` once it reaches the proxy.
fn flow_value(flow: u128) -> Capacity {
    if flow >= INFINITE {
        Capacity::Infinite
    } else {
        Capacity::Finite(flow)
    }
}

/// A flow network frozen into contiguous CSR arrays, built once per database
/// inside a reusable arena and solved over a [`FlowScratch`].
///
/// Lifecycle: [`clear`](CsrFlow::clear) → [`add_vertices`](CsrFlow::add_vertices)
/// / [`add_edge`](CsrFlow::add_edge) / [`set_source`](CsrFlow::set_source) /
/// [`set_target`](CsrFlow::set_target) → [`freeze`](CsrFlow::freeze) →
/// [`min_cut`](CsrFlow::min_cut), or [`max_flow`](CsrFlow::max_flow) then
/// [`extract_cut`](CsrFlow::extract_cut) (any number of times). An
/// incremental caller instead keeps the flow in its scratch and edits the
/// network between [`max_flow_resume`](CsrFlow::max_flow_resume) calls:
/// [`cancel_flow`](CsrFlow::cancel_flow) before lowering a capacity below
/// the edge's flow, [`patch_edge_capacity`](CsrFlow::patch_edge_capacity),
/// `add_vertices` and `add_edge`. All buffers keep their allocations across
/// `clear`. Every `+∞` edge has the fixed proxy capacity of the
/// [module docs](self), so a patch only ever rewrites its own edge's arcs;
/// `add_edge` and `patch_edge_capacity` panic when the finite capacities
/// would sum to the proxy.
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
    /// One bit per arc, set for forward arcs (an edge's own direction).
    arc_forward: Vec<u64>,
    /// Edge → forward-arc index of the last freeze ([`NO_ARC`] for
    /// zero-capacity edges, which produce no arcs); empty after `clear`. The
    /// flow of edge `e` is the residual of `arc_twin[edge_arc[e]]`.
    edge_arc: Vec<u32>,
    /// The sum of the arena's finite capacities, below [`INFINITE`].
    finite_total: u128,
    frozen: bool,
}

/// A minimum cut computed by [`CsrFlow::extract_cut`]. The cut edges borrow
/// the scratch buffer and stay valid until its next solve.
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
        self.edge_arc.clear();
        self.finite_total = 0;
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
        self.retally(0, cap);
        let id = EdgeId(self.edge_from.len() as u32);
        self.edge_from.push(from.0);
        self.edge_to.push(to.0);
        self.edge_cap.push(cap);
        self.frozen = false;
        id
    }

    /// Moves an edge's share of the finite total from `old` to `new` (`+∞`
    /// counts as zero) and asserts that the total stays below the proxy.
    fn retally(&mut self, old: u128, new: u128) {
        let finite = |c: u128| if c == INFINITE { 0 } else { c };
        self.finite_total = self.finite_total - finite(old) + finite(new);
        assert!(self.finite_total < INFINITE, "finite capacities sum to the +∞ proxy");
    }

    /// The capacities of every internal buffer, for asserting that reuse
    /// never reallocates (see [`FlowScratch::capacity_signature`]).
    pub fn capacity_signature(&self) -> [usize; 9] {
        [
            self.edge_from.capacity(),
            self.edge_to.capacity(),
            self.edge_cap.capacity(),
            self.adj_start.capacity(),
            self.cursor.capacity(),
            self.arc_head.capacity(),
            self.arc_twin.capacity(),
            self.arc_forward.capacity(),
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

    /// Overwrites the capacity of an existing arena edge (an incremental
    /// solver's delete = capacity 0, re-insert = capacity restored). The
    /// edge's flow must not exceed the new capacity: run
    /// [`cancel_flow`](CsrFlow::cancel_flow) first when lowering it.
    ///
    /// When the freeze gave the edge residual arcs, the forward arc and its
    /// residual in `scratch` — which must hold this network's flow — are
    /// rewritten in place and the network stays frozen, whether the
    /// capacity moves between finite values or between finite and `+∞`. A
    /// capacity lowered to zero leaves a zero-capacity arc behind, harmless
    /// to the solvers and consistent with the cut contract, which already
    /// includes zero-cost separator edges. An edge without arcs unfreezes
    /// the network, and the next [`freeze`](CsrFlow::freeze) or
    /// [`max_flow_resume`](CsrFlow::max_flow_resume) re-lays it.
    pub fn patch_edge_capacity(
        &mut self,
        edge: EdgeId,
        capacity: Capacity,
        scratch: &mut FlowScratch,
    ) {
        let cap = encode(capacity);
        let e = edge.index();
        if self.edge_cap[e] == cap {
            return;
        }
        self.widen(scratch);
        let old = std::mem::replace(&mut self.edge_cap[e], cap);
        self.retally(old, cap);
        let a = if self.frozen { self.edge_arc[e] } else { NO_ARC };
        if a == NO_ARC {
            self.frozen = false;
            return;
        }
        let a = a as usize;
        let flow = scratch.wide[self.arc_twin[a] as usize];
        debug_assert!(flow <= cap, "cancel the flow above a lowered capacity first");
        scratch.wide[a] = cap - flow;
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
        self.arc_forward.clear();
        self.arc_forward.resize(num_arcs.div_ceil(64), 0);
        self.edge_arc.clear();
        self.edge_arc.resize(self.edge_from.len(), NO_ARC);

        for i in 0..self.edge_from.len() {
            if self.edge_cap[i] == 0 {
                continue;
            }
            let from = self.edge_from[i] as usize;
            let to = self.edge_to[i] as usize;
            let forward = self.cursor[from] as usize;
            self.cursor[from] += 1;
            let reverse = self.cursor[to] as usize;
            self.cursor[to] += 1;
            self.arc_head[forward] = to as u32;
            self.arc_twin[forward] = reverse as u32;
            self.arc_forward[forward / 64] |= 1 << (forward % 64);
            self.arc_head[reverse] = from as u32;
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

    /// Whether arc `a` is an edge's forward arc (not a reverse one).
    fn is_forward(&self, a: usize) -> bool {
        self.arc_forward[a / 64] >> (a % 64) & 1 != 0
    }

    /// Computes a minimum source–target cut: [`max_flow`](CsrFlow::max_flow)
    /// then [`extract_cut`](CsrFlow::extract_cut).
    pub fn min_cut<'s>(&self, scratch: &'s mut FlowScratch) -> CsrCut<'s> {
        self.max_flow(scratch);
        self.extract_cut(scratch)
    }

    /// Computes a maximum flow with Dinic, starting from zero flow, and
    /// returns its value (`Infinite` when every cut uses an infinite edge).
    /// All solver state lives in `scratch`, which is resized (growing only)
    /// and reused across calls; the flow stays there for
    /// [`extract_cut`](CsrFlow::extract_cut) and for resumes, at the width
    /// the [module docs](self) give.
    pub fn max_flow(&self, scratch: &mut FlowScratch) -> Capacity {
        assert!(self.frozen, "CsrFlow::max_flow requires freeze()");
        scratch.prepare(self.num_vertices);
        if self.finite_total < u128::from(NARROW_INFINITE) {
            self.seed::<u64>(scratch);
            let flow = self.augment(scratch, NARROW_INFINITE);
            if flow < NARROW_INFINITE {
                scratch.flow = flow.into();
                return Capacity::Finite(scratch.flow);
            }
        }
        self.seed::<u128>(scratch);
        scratch.flow = self.augment(scratch, INFINITE);
        flow_value(scratch.flow)
    }

    /// Puts a zero flow of width `W` into `scratch`: every forward arc's
    /// residual is its edge's capacity, every reverse arc's zero.
    fn seed<W: Width>(&self, scratch: &mut FlowScratch) {
        let residual = W::residuals(scratch);
        residual.clear();
        residual.resize(self.arc_head.len(), W::ZERO);
        for (&a, &cap) in self.edge_arc.iter().zip(&self.edge_cap) {
            if a != NO_ARC {
                residual[a as usize] = W::from_capacity(cap);
            }
        }
        scratch.is_narrow = W::NARROW;
        scratch.flow = 0;
    }

    /// Runs Dinic on the width-`W` residuals of `scratch` and returns the
    /// flow it adds, at most `limit` plus one path's bottleneck.
    fn augment<W: Width>(&self, scratch: &mut FlowScratch, limit: W) -> W {
        let mut residual = std::mem::take(W::residuals(scratch));
        let added = dinic(self, &mut residual, scratch, limit);
        *W::residuals(scratch) = residual;
        added
    }

    /// Moves a narrow flow into the `u128` residuals; a no-op on a wide one.
    /// Reads the layout and capacities the narrow solve ran on, so it runs
    /// before any edit.
    fn widen(&self, scratch: &mut FlowScratch) {
        if !scratch.is_narrow {
            return;
        }
        let FlowScratch { wide, narrow, is_narrow, .. } = scratch;
        *is_narrow = false;
        wide.clear();
        wide.resize(narrow.len(), 0);
        for (&a, &cap) in self.edge_arc.iter().zip(&self.edge_cap) {
            if a != NO_ARC {
                let twin = self.arc_twin[a as usize] as usize;
                let flow = u128::from(narrow[twin]);
                wide[a as usize] = cap - flow;
                wide[twin] = flow;
            }
        }
    }

    /// Continues the maximum flow from the flow `scratch` holds — the one
    /// the last solve, resume, patch or cancellation of this network left
    /// there — and returns the new value. Dinic only augments the
    /// *difference* to the new maximum.
    ///
    /// When the network changed since its freeze, the resume first re-lays
    /// the arcs and carries each surviving edge's flow, read off the old
    /// layout's residual, into the new one. Edges added since start at zero,
    /// and so does every edge after [`clear`](CsrFlow::clear). Each edge's
    /// flow must fit its capacity, which [`cancel_flow`](CsrFlow::cancel_flow)
    /// ensures before a capacity is lowered. Do not call `freeze` between a
    /// solve and a resume: it drops the old layout the flow is read from.
    pub fn max_flow_resume(&mut self, scratch: &mut FlowScratch) -> Capacity {
        self.widen(scratch);
        if !self.frozen {
            let FlowScratch { wide: residual, carried, flow, .. } = &mut *scratch;
            if self.edge_arc.is_empty() {
                *flow = 0;
            }
            carried.clear();
            carried.resize(self.num_edges(), 0);
            for (e, &a) in self.edge_arc.iter().enumerate() {
                if a != NO_ARC {
                    carried[e] = residual[self.arc_twin[a as usize] as usize];
                }
            }
            self.freeze();
            residual.clear();
            residual.resize(self.arc_head.len(), 0);
            for (e, &a) in self.edge_arc.iter().enumerate() {
                if a == NO_ARC {
                    debug_assert_eq!(carried[e], 0, "zero-capacity edge {e} carrying flow");
                    continue;
                }
                let (a, cap) = (a as usize, self.edge_cap[e]);
                debug_assert!(carried[e] <= cap, "edge {e} carries flow above its capacity");
                residual[a] = cap - carried[e];
                residual[self.arc_twin[a] as usize] = carried[e];
            }
        }
        scratch.prepare(self.num_vertices);
        scratch.flow += self.augment(scratch, INFINITE.saturating_sub(scratch.flow));
        debug_assert_eq!(self.check_flow_consistency(scratch), Ok(()));
        flow_value(scratch.flow)
    }

    /// Verifies the flow `scratch` holds against the frozen network: every
    /// forward arc's residual plus its twin's (the edge's flow) equals the
    /// edge's capacity at the flow's width (a narrow flow reads `+∞` as the
    /// narrow proxy), interior vertices conserve flow, and the source's net
    /// outflow — which must equal the target's net inflow — is exactly the
    /// recorded flow value.
    ///
    /// Returns a description of the first violated invariant. The walk is
    /// `O(V + E)`; it is meant for `debug_assert!` hooks and churn tests,
    /// not hot paths.
    pub fn check_flow_consistency(&self, scratch: &FlowScratch) -> Result<(), String> {
        if scratch.is_narrow {
            self.check_flow(&scratch.narrow, scratch.flow)
        } else {
            self.check_flow(&scratch.wide, scratch.flow)
        }
    }

    /// [`check_flow_consistency`](CsrFlow::check_flow_consistency) over
    /// residuals of one width.
    fn check_flow<W: Width>(&self, residual: &[W], value: u128) -> Result<(), String> {
        if !self.frozen {
            return Err("network is not frozen".to_string());
        }
        if residual.len() != self.arc_head.len() {
            return Err(format!("{} residuals for {} arcs", residual.len(), self.arc_head.len()));
        }
        let mut inflow = vec![0u128; self.num_vertices];
        let mut outflow = vec![0u128; self.num_vertices];
        for (e, &a) in self.edge_arc.iter().enumerate() {
            if a == NO_ARC {
                continue;
            }
            let (a, twin) = (a as usize, self.arc_twin[a as usize] as usize);
            let (forward, flow): (u128, u128) = (residual[a].into(), residual[twin].into());
            let cap: u128 = W::from_capacity(self.edge_cap[e]).into();
            if forward.checked_add(flow) != Some(cap) {
                return Err(format!(
                    "edge {e}: residuals {forward} and {flow} do not sum to its capacity {cap}"
                ));
            }
            let (from, to) = (self.edge_from[e] as usize, self.edge_to[e] as usize);
            outflow[from] = outflow[from].saturating_add(flow);
            inflow[to] = inflow[to].saturating_add(flow);
        }
        let (source, target) = (self.source as usize, self.target as usize);
        for v in 0..self.num_vertices {
            if v != source && v != target && inflow[v] != outflow[v] {
                return Err(format!("vertex {v} receives {} but sends {}", inflow[v], outflow[v]));
            }
        }
        let source_net = outflow[source].checked_sub(inflow[source]);
        let target_net = inflow[target].checked_sub(outflow[target]);
        match (source_net, target_net) {
            (Some(s), Some(t)) if s == value && t == value => Ok(()),
            _ => Err(format!(
                "net source outflow {:?} / target inflow {:?} do not match the \
                 recorded flow value {}",
                source_net, target_net, value
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

    /// Cancels the flow `scratch` holds on `edge` down to `keep` units,
    /// rerouting the excess so the remaining assignment is again a feasible
    /// flow (of possibly smaller value). This is the incremental delete path:
    /// cancel the flow above the lowered capacity, then
    /// [`patch_edge_capacity`](CsrFlow::patch_edge_capacity) and
    /// [`max_flow_resume`](CsrFlow::max_flow_resume).
    ///
    /// The surplus at the edge's tail is drained backward along
    /// flow-carrying arcs to the source (a genuine value decrease) or to the
    /// edge's head (a cycle cancellation); any remaining deficit at the head
    /// is then drained forward to the target. Each drained path zeroes at
    /// least one arc's flow, so the walk terminates in `O(E)` path searches.
    ///
    /// Returns `false` when the flow turns out inconsistent (no drain path
    /// found) — callers should fall back to a full rebuild; the flow is not
    /// usable for a resume afterwards.
    #[must_use]
    pub fn cancel_flow(&self, edge: EdgeId, keep: u128, scratch: &mut FlowScratch) -> bool {
        assert!(self.frozen, "CsrFlow::cancel_flow requires freeze()");
        self.widen(scratch);
        let e = edge.index();
        let a = self.edge_arc[e];
        if a == NO_ARC {
            return true; // no arcs, no flow
        }
        let (a, twin) = (a as usize, self.arc_twin[a as usize] as usize);
        let flow = scratch.wide[twin];
        if flow <= keep {
            return true;
        }
        let drain = flow - keep;
        scratch.wide[a] += drain;
        scratch.wide[twin] = keep;
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
            match self.drain_path(u, true, source, v, surplus, scratch) {
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
            match self.drain_path(v, false, target, target, deficit, scratch) {
                Some((_, amount)) => deficit -= amount,
                None => return false,
            }
        }
        debug_assert!(scratch.flow >= to_source, "cancellation exceeds the flow value");
        scratch.flow = scratch.flow.saturating_sub(to_source);
        true
    }

    /// One cancellation path search for [`cancel_flow`](CsrFlow::cancel_flow):
    /// BFS from `start` over flow-carrying arcs — against their direction
    /// when `backward` — until `stop_a` or `stop_b` is reached, then cancels
    /// the path's bottleneck (capped at `limit`) and returns the stop vertex
    /// and the amount. `None` when no stop vertex is reachable.
    fn drain_path(
        &self,
        start: usize,
        backward: bool,
        stop_a: usize,
        stop_b: usize,
        limit: u128,
        scratch: &mut FlowScratch,
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
                // *into* `w`; either way only forward arcs with positive flow
                // (the residual of their twin) qualify.
                let via = if backward { self.arc_twin[b] as usize } else { b };
                if !self.is_forward(via) || scratch.wide[self.arc_twin[via] as usize] == 0 {
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
            bottleneck = bottleneck.min(scratch.wide[self.arc_twin[via] as usize]);
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
        let FlowScratch { path, wide: residual, .. } = &mut *scratch;
        for &via in path.iter() {
            residual[via as usize] += bottleneck;
            residual[self.arc_twin[via as usize] as usize] -= bottleneck;
        }
        Some((stop, bottleneck))
    }

    /// Reads the minimum cut off the maximum flow `scratch` holds: the
    /// original edges from the vertices the source reaches in the residual
    /// graph to the rest. The value is `Infinite`, with no cut edges, when
    /// the flow reaches the proxy capacity of infinite edges. The BFS starts
    /// at the source: Dinic's last level BFS starts at the target, so its
    /// labels are not the source side.
    pub fn extract_cut<'s>(&self, scratch: &'s mut FlowScratch) -> CsrCut<'s> {
        let FlowScratch { reachable, queue, wide, narrow, is_narrow, .. } = &mut *scratch;
        if *is_narrow {
            self.reach_from_source(narrow, reachable, queue);
        } else {
            self.reach_from_source(wide, reachable, queue);
        }
        scratch.cut_edges.clear();
        let value = flow_value(scratch.flow);
        if value.is_infinite() {
            return CsrCut { value, cut_edges: &scratch.cut_edges };
        }

        // Original edges crossing reachable → unreachable form a minimum cut.
        // Zero-capacity edges crossing it are included so the returned set is
        // a genuine separator (they cost nothing).
        for i in 0..self.edge_from.len() {
            if scratch.reachable[self.edge_from[i] as usize]
                && !scratch.reachable[self.edge_to[i] as usize]
            {
                scratch.cut_edges.push(EdgeId(i as u32));
            }
        }
        CsrCut { value, cut_edges: &scratch.cut_edges }
    }

    /// Flags the vertices the source reaches in the residual graph. The
    /// inner loop has no data-dependent branch: every arc writes its head
    /// one past the queue's end and moves the end only when the head is
    /// newly reached. Each vertex enters once, so `n + 1` slots suffice.
    fn reach_from_source<W: Width>(
        &self,
        residual: &[W],
        reachable: &mut Vec<bool>,
        queue: &mut Vec<u32>,
    ) {
        let n = self.num_vertices;
        reachable.clear();
        reachable.resize(n, false);
        queue.clear();
        queue.resize(n + 1, 0);
        reachable[self.source as usize] = true;
        queue[0] = self.source;
        let (mut head, mut end) = (0, 1);
        while head < end {
            let v = queue[head] as usize;
            head += 1;
            for ai in self.arc_range(v) {
                let to = self.arc_head[ai] as usize;
                let fresh = (residual[ai] > W::ZERO) & !reachable[to];
                queue[end] = to as u32;
                end += usize::from(fresh);
                reachable[to] |= fresh;
            }
        }
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
/// before pruning it. The run ends when the BFS no longer reaches the source,
/// or once it has pushed `limit` units: its callers pass what the flow
/// lacks to reach the `+∞` proxy of the residuals' width, past which the
/// value reads `+∞` anyway. `residual` is the scratch's residual graph at
/// that width, lent out of `s` for the run.
fn dinic<W: Width>(csr: &CsrFlow, residual: &mut [W], s: &mut FlowScratch, limit: W) -> W {
    let n = csr.num_vertices;
    let source = csr.source as usize;
    let target = csr.target as usize;
    let mut total = W::ZERO;
    while total < limit {
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
                if s.level[to] == UNVISITED && residual[csr.arc_twin[ai] as usize] > W::ZERO {
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
                let mut bottleneck = W::MAX;
                for &ai in &s.path {
                    bottleneck = bottleneck.min(residual[ai as usize]);
                }
                for &ai in &s.path {
                    let ai = ai as usize;
                    residual[ai] -= bottleneck;
                    residual[csr.arc_twin[ai] as usize] += bottleneck;
                }
                total += bottleneck;
                if total >= limit {
                    break;
                }
                // Restart from the tail of the first saturated arc.
                let mut keep = 0;
                while keep < s.path.len() && residual[s.path[keep] as usize] > W::ZERO {
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
                if residual[ai] > W::ZERO && s.level[to] == down {
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::strategy::Strategy;

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

    /// Builds `net`'s arena into `csr` after a `clear`, without freezing.
    fn rebuild_into(csr: &mut CsrFlow, net: &CsrFlow) {
        csr.clear();
        csr.add_vertices(net.num_vertices());
        csr.set_source(VertexId(net.source));
        csr.set_target(VertexId(net.target));
        for e in 0..net.num_edges() {
            let capacity = net.edge_capacity(EdgeId(e as u32));
            csr.add_edge(VertexId(net.edge_from[e]), VertexId(net.edge_to[e]), capacity);
        }
    }

    #[test]
    fn arena_reuse_after_clear_keeps_results_correct() {
        let mut csr = CsrFlow::new();
        let mut scratch = FlowScratch::new();
        let mut fresh = FlowScratch::new();
        for net in instances() {
            rebuild_into(&mut csr, &net);
            csr.freeze();
            let expected = net.min_cut(&mut fresh);
            let expected = (expected.value, expected.cut_edges.to_vec());
            let cut = csr.min_cut(&mut scratch);
            assert_eq!((cut.value, cut.cut_edges.to_vec()), expected);
        }
    }

    #[test]
    fn resume_after_clear_starts_from_zero_flow() {
        // One network and one scratch serve every instance: each rebuild
        // starts from `clear`, so the resume must not carry the previous
        // instance's flow, and it matches a cold solve in value and cut.
        let mut csr = CsrFlow::new();
        let mut scratch = FlowScratch::new();
        let mut cold = FlowScratch::new();
        for (i, net) in instances().iter().enumerate() {
            rebuild_into(&mut csr, net);
            csr.max_flow_resume(&mut scratch);
            let warm = csr.extract_cut(&mut scratch);
            let warm = (warm.value, warm.cut_edges.to_vec());
            let cold = net.min_cut(&mut cold);
            assert_eq!(warm, (cold.value, cold.cut_edges.to_vec()), "instance {i}");
        }
    }

    /// The `(value, cut_edges)` of a cold solve of `csr` and of a resume
    /// from zero flow on a rebuilt copy, in that order. Each solve has a
    /// scratch of its own, so neither reads the other's leftovers.
    fn cold_and_resumed_cuts(
        csr: &CsrFlow,
        scratch: &mut [FlowScratch; 2],
    ) -> [(Capacity, Vec<EdgeId>); 2] {
        let [cold, resume] = scratch;
        let cold = csr.min_cut(cold);
        let cold = (cold.value, cold.cut_edges.to_vec());
        let mut copy = CsrFlow::new();
        rebuild_into(&mut copy, csr);
        copy.max_flow_resume(resume);
        let resume = copy.extract_cut(resume);
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
        // its flow and every resume genuinely continues it.
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
            let cap = |r: u64| Capacity::Finite((1 + r % 8) as u128);
            for w in 0..width {
                edges.push(csr.add_edge(source, VertexId(w as u32), cap(next())));
                let last = ((layers - 1) * width + w) as u32;
                edges.push(csr.add_edge(VertexId(last), target, cap(next())));
            }
            for l in 0..layers - 1 {
                for a in 0..width {
                    for b in 0..width {
                        if next() % 3 == 0 {
                            let from = VertexId((l * width + a) as u32);
                            let to = VertexId(((l + 1) * width + b) as u32);
                            edges.push(csr.add_edge(from, to, cap(next())));
                        }
                    }
                }
            }
            csr.freeze();
            csr.max_flow(&mut scratch);

            // Churn: raise, lower, zero and restore capacities, patched in
            // place while the freeze stands (or unfreezing, for an edge the
            // freeze gave no arcs); sometimes also append an edge, which
            // makes the resume re-lay the arcs and carry the flow. Each
            // resume is cross-checked against a cold solve of the same
            // (post-edit) network.
            for step in 0..12 {
                if next() % 3 != 0 {
                    let e = edges[(next() % edges.len() as u64) as usize];
                    let new_cap = if next() % 4 == 0 { 0 } else { (next() % 9) as u128 };
                    assert!(
                        csr.cancel_flow(e, new_cap, &mut scratch),
                        "round {round} step {step}: cancellation must succeed"
                    );
                    csr.patch_edge_capacity(e, Capacity::Finite(new_cap), &mut scratch);
                }
                if next() % 3 == 0 {
                    let from = VertexId((next() % n as u64) as u32);
                    let to = VertexId((next() % n as u64) as u32);
                    if from != to && to != source && from != target {
                        edges.push(csr.add_edge(from, to, cap(next())));
                    }
                }
                let value = csr.max_flow_resume(&mut scratch);
                assert_eq!(csr.check_flow_consistency(&scratch), Ok(()), "round {round}");
                let cold = csr.min_cut(&mut cold_scratch);
                assert_eq!(value, cold.value, "round {round} step {step}");
                if step % 2 == 0 {
                    let warm = csr.extract_cut(&mut scratch);
                    assert_eq!(warm.value, cold.value, "round {round} step {step}");
                    assert_eq!(warm.cut_edges, cold.cut_edges, "round {round} step {step}");
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
        assert_eq!(csr.max_flow(&mut scratch), Capacity::Finite(8));
        // Deleting the direct s->t edge: pure value decrease on both sides.
        // Each edit is cancelled, patched in place and resumed.
        for (edge, keep, value) in [(st, 0, 5), (sm, 2, 2), (mt, 0, 0)] {
            assert!(csr.cancel_flow(edge, keep, &mut scratch));
            csr.patch_edge_capacity(edge, Capacity::Finite(keep), &mut scratch);
            assert_eq!(csr.max_flow_resume(&mut scratch), Capacity::Finite(value));
            assert_eq!(csr.extract_cut(&mut scratch).value, Capacity::Finite(value));
        }
        assert_eq!(scratch.flow, 0);
    }

    #[test]
    fn resume_carries_the_flow_across_a_relay() {
        // s -> a -> t at capacity 3; a new parallel route s -> b -> t of
        // capacity 2 is appended. The resume re-lays the arcs, keeps the 3
        // units already routed, and adds the 2 the new route allows.
        let mut csr = CsrFlow::new();
        let (s, a, t) = (csr.add_vertex(), csr.add_vertex(), csr.add_vertex());
        csr.set_source(s);
        csr.set_target(t);
        let sa = csr.add_edge(s, a, Capacity::Finite(3));
        csr.add_edge(a, t, Capacity::Finite(4));
        csr.freeze();
        let mut scratch = FlowScratch::new();
        assert_eq!(csr.max_flow(&mut scratch), Capacity::Finite(3));
        let b = csr.add_vertex();
        csr.add_edge(s, b, Capacity::Finite(2));
        csr.add_edge(b, t, Capacity::Finite(5));
        assert_eq!(csr.max_flow_resume(&mut scratch), Capacity::Finite(5));
        assert_eq!(scratch.wide[csr.arc_twin[csr.edge_arc[sa.index()] as usize] as usize], 3);
        assert_eq!(csr.check_flow_consistency(&scratch), Ok(()));
    }

    #[test]
    fn patches_beside_and_on_infinite_edges_stay_in_place() {
        // s -> m -> t is infinite and x -> y finite. The proxy capacity of
        // +∞ does not depend on x -> y, so raising it is patched in place
        // and the resume, with no freeze, still answers +∞. Then m -> t
        // turns finite and back, each patch in place as well.
        let mut csr = CsrFlow::new();
        let [s, m, t, x, y] = [(); 5].map(|_| csr.add_vertex());
        csr.set_source(s);
        csr.set_target(t);
        csr.add_edge(s, m, Capacity::Infinite);
        let mt = csr.add_edge(m, t, Capacity::Infinite);
        let xy = csr.add_edge(x, y, Capacity::Finite(1));
        csr.freeze();
        let mut scratch = FlowScratch::new();
        assert_eq!(csr.max_flow(&mut scratch), Capacity::Infinite);
        csr.patch_edge_capacity(xy, Capacity::Finite(10), &mut scratch);
        assert!(csr.frozen);
        assert_eq!(csr.max_flow_resume(&mut scratch), Capacity::Infinite);
        assert!(csr.cancel_flow(mt, 3, &mut scratch));
        csr.patch_edge_capacity(mt, Capacity::Finite(3), &mut scratch);
        assert!(csr.frozen);
        assert_eq!(csr.max_flow_resume(&mut scratch), Capacity::Finite(3));
        assert_eq!(csr.extract_cut(&mut scratch).cut_edges, [mt]);
        csr.patch_edge_capacity(mt, Capacity::Infinite, &mut scratch);
        assert!(csr.frozen);
        assert_eq!(csr.max_flow_resume(&mut scratch), Capacity::Infinite);
    }

    #[test]
    #[should_panic(expected = "finite capacities sum to the +∞ proxy")]
    fn finite_capacities_summing_to_the_proxy_panic() {
        let mut csr = CsrFlow::new();
        let [s, t] = [(); 2].map(|_| csr.add_vertex());
        csr.add_edge(s, t, Capacity::Finite(INFINITE / 2));
        csr.add_edge(t, s, Capacity::Finite(INFINITE / 2));
    }

    #[test]
    fn flow_consistency_checker_accepts_and_rejects() {
        // Path 0 -> 1 -> 2 with capacities 5 and 3: max flow 3. The cold
        // solve leaves a narrow flow; widening it must keep every verdict.
        let csr = simple_network(&[(0, 1, 5), (1, 2, 3)], 3, 0, 2);
        let mut scratch = FlowScratch::new();
        csr.max_flow(&mut scratch);
        assert!(scratch.is_narrow);
        check_rejections::<u64>(&csr, &scratch);
        csr.widen(&mut scratch);
        assert!(!scratch.is_narrow);
        check_rejections::<u128>(&csr, &scratch);
        // Unfrozen networks cannot be checked (`simple_network` freezes, so
        // build by hand).
        let mut unfrozen = CsrFlow::new();
        let a = unfrozen.add_vertices(2);
        unfrozen.set_source(a);
        unfrozen.set_target(VertexId(1));
        unfrozen.add_edge(a, VertexId(1), Capacity::Finite(1));
        assert!(unfrozen.check_flow_consistency(&scratch).is_err());
    }

    /// The checker's verdicts on the max flow `scratch` holds at width `W`
    /// of the 0 -> 1 -> 2 path of capacities 5 and 3, and on broken copies.
    fn check_rejections<W: Width>(csr: &CsrFlow, scratch: &FlowScratch) {
        assert_eq!(csr.check_flow_consistency(scratch), Ok(()));
        let [first, second] = [0, 1].map(|e| csr.edge_arc[e] as usize);
        let reverse = |a: usize| csr.arc_twin[a] as usize;
        // A residual pair that does not sum to its arc's capacity.
        let mut broken = scratch.clone();
        W::residuals(&mut broken)[second] += W::from_capacity(1);
        assert!(broken.check_err(csr).contains("do not sum"));
        // Conservation broken at vertex 1: the second edge carries 2 of 3.
        let mut broken = scratch.clone();
        W::residuals(&mut broken)[second] = W::from_capacity(1);
        W::residuals(&mut broken)[reverse(second)] = W::from_capacity(2);
        assert!(broken.check_err(csr).contains("vertex 1"));
        // A feasible flow with the wrong recorded value.
        let mut broken = scratch.clone();
        broken.flow = 2;
        assert!(broken.check_err(csr).contains("recorded flow value"));
        // Zero flow with value zero is feasible too.
        let mut zero = scratch.clone();
        csr.seed::<W>(&mut zero);
        assert_eq!(csr.check_flow_consistency(&zero), Ok(()));
        assert!(W::residuals(&mut zero)[reverse(first)] == W::ZERO);
        // A residual of another network's size.
        let mut broken = scratch.clone();
        W::residuals(&mut broken).pop();
        assert!(broken.check_err(csr).contains("residuals for"));
    }

    impl FlowScratch {
        /// The error `csr.check_flow_consistency` reports for this scratch.
        fn check_err(&self, csr: &CsrFlow) -> String {
            csr.check_flow_consistency(self).expect_err("the checker must reject the flow")
        }
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
        let mut scratch = FlowScratch::new();
        assert_eq!(csr.max_flow(&mut scratch), Capacity::Finite(2));
        assert_eq!(csr.check_flow_consistency(&scratch), Ok(()));
        // A tombstone carries no flow, so cancelling it is a no-op.
        assert!(csr.cancel_flow(dead, 0, &mut scratch));
        assert_eq!(scratch.flow, 2);
    }

    /// Edge flows of the flow `scratch` holds, at whichever width.
    fn edge_flows(csr: &CsrFlow, scratch: &FlowScratch) -> Vec<u128> {
        let flow = |a: u32| {
            let twin = csr.arc_twin[a as usize] as usize;
            if scratch.is_narrow {
                scratch.narrow[twin].into()
            } else {
                scratch.wide[twin]
            }
        };
        csr.edge_arc.iter().map(|&a| if a == NO_ARC { 0 } else { flow(a) }).collect()
    }

    /// Random edges on `2..9` vertices: each one zero, infinite, or finite
    /// below 2^24.
    fn random_edges() -> impl Strategy<Value = (usize, Vec<(u32, u32, Capacity)>)> {
        (2..9usize).prop_flat_map(|n| {
            let edge = (0..n as u32, 0..n as u32, 0..1u64 << 24, 0..8u32);
            proptest::collection::vec(edge, 0..20).prop_map(move |edges| {
                let capacity = |c: u64, kind| match kind {
                    0 => Capacity::Finite(0),
                    1 => Capacity::Infinite,
                    _ => Capacity::Finite(c.into()),
                };
                (n, edges.into_iter().map(|(a, b, c, kind)| (a, b, capacity(c, kind))).collect())
            })
        })
    }

    /// A frozen network on `vertices` vertices (source 0, target the last)
    /// with `edges`, every finite capacity multiplied by `scale`, plus an
    /// isolated ballast edge of capacity `2^22 · scale` on two more
    /// vertices: a scale of 2^40 lifts the finite total past 2^62.
    fn scaled(vertices: usize, edges: &[(u32, u32, Capacity)], scale: u128) -> CsrFlow {
        let last = vertices as u32 - 1;
        let mut csr = CsrFlow::new();
        csr.add_vertices(vertices + 2);
        csr.set_source(VertexId(0));
        csr.set_target(VertexId(last));
        for &(from, to, capacity) in edges {
            let capacity = capacity.finite().map_or(capacity, |c| Capacity::Finite(c * scale));
            csr.add_edge(VertexId(from), VertexId(to), capacity);
        }
        csr.add_edge(VertexId(last + 1), VertexId(last + 2), Capacity::Finite(scale << 22));
        csr.freeze();
        csr
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn narrow_and_wide_solves_give_one_answer((vertices, edges) in random_edges()) {
            // The network as built solves narrow; scaled by 2^40 its finite
            // total passes 2^62 and it solves wide. Below 2^61 an infinite
            // arc never bounds a path, so the wide run is the narrow run
            // scaled: same cut, source side and flow, times 2^40.
            let scale = 1u128 << 40;
            let (narrow, wide) = (scaled(vertices, &edges, 1), scaled(vertices, &edges, scale));
            assert!(wide.finite_total >= u128::from(NARROW_INFINITE));
            let mut scratch: [FlowScratch; 2] = Default::default();
            let [at_narrow, at_wide] = &mut scratch;
            let value = narrow.max_flow(at_narrow);
            let scaled_value = wide.max_flow(at_wide);
            assert!(!at_wide.is_narrow);
            let flows = [edge_flows(&narrow, at_narrow), edge_flows(&wide, at_wide)];
            let cut = narrow.extract_cut(at_narrow).cut_edges.to_vec();
            assert_eq!(wide.extract_cut(at_wide).cut_edges, cut);
            match value {
                Capacity::Finite(value) => {
                    assert!(at_narrow.is_narrow);
                    assert_eq!(scaled_value, Capacity::Finite(value * scale));
                    assert_eq!(at_narrow.source_side(), at_wide.source_side());
                    let [flows, scaled_flows] = flows;
                    assert_eq!(flows.iter().map(|f| f * scale).collect::<Vec<_>>(), scaled_flows);
                }
                Capacity::Infinite => {
                    assert_eq!(scaled_value, Capacity::Infinite);
                    assert!(cut.is_empty());
                }
            }
        }

        #[test]
        fn edits_after_a_narrow_solve_match_cold_solves(
            (vertices, edges) in random_edges(),
            edits in proptest::collection::vec((proptest::arbitrary::any::<u64>(), 0..1u64 << 24), 1..4),
        ) {
            // The cold solve leaves a narrow flow; the first cancellation
            // widens it, and every resume matches a cold solve of the
            // edited network in value and cut.
            let mut csr = scaled(vertices, &edges, 1);
            let mut scratch = FlowScratch::new();
            let narrow = !csr.max_flow(&mut scratch).is_infinite();
            assert_eq!(scratch.is_narrow, narrow);
            let mut cold = FlowScratch::new();
            for (pick, cap) in edits {
                let edge = EdgeId((pick % csr.num_edges() as u64) as u32);
                assert!(csr.cancel_flow(edge, cap.into(), &mut scratch));
                assert!(!scratch.is_narrow);
                csr.patch_edge_capacity(edge, Capacity::Finite(cap.into()), &mut scratch);
                let value = csr.max_flow_resume(&mut scratch);
                assert_eq!(csr.check_flow_consistency(&scratch), Ok(()));
                let mut edited = CsrFlow::new();
                rebuild_into(&mut edited, &csr);
                edited.freeze();
                let expected = edited.min_cut(&mut cold);
                assert_eq!(value, expected.value);
                if !value.is_infinite() {
                    assert_eq!(csr.extract_cut(&mut scratch).cut_edges, expected.cut_edges);
                }
            }
        }
    }

    #[test]
    fn infinite_paths_answer_infinite_on_the_narrow_path() {
        // Beside finite edges far below 2^62, s -> m -> t is infinite: the
        // solve starts narrow, reaches the narrow proxy and reruns wide, so
        // +∞ comes from the 2^100 proxy as on every other path.
        let mut csr = CsrFlow::new();
        let [s, m, x, t] = [(); 4].map(|_| csr.add_vertex());
        csr.set_source(s);
        csr.set_target(t);
        csr.add_edge(s, m, Capacity::Infinite);
        csr.add_edge(m, t, Capacity::Infinite);
        csr.add_edge(s, x, Capacity::Finite(7));
        csr.add_edge(x, t, Capacity::Finite(5));
        csr.freeze();
        assert!(csr.finite_total < u128::from(NARROW_INFINITE));
        let mut scratch = FlowScratch::new();
        let cut = csr.min_cut(&mut scratch);
        assert_eq!(cut.value, Capacity::Infinite);
        assert!(cut.cut_edges.is_empty());
        assert!(!scratch.is_narrow);
        assert!(scratch.flow >= INFINITE);
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
