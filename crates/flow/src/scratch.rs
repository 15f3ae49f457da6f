//! Reusable solver scratch: every buffer a max-flow computation needs.
//!
//! The per-database half of the resilience reductions solves one min-cut per
//! database, thousands of times over the same prepared query. Allocating the
//! solver state (levels, queues, current-arc pointers, residual capacities)
//! anew for every solve dominates the constant factor at
//! the sizes the benches exercise. [`FlowScratch`] owns all of it in flat
//! `Vec`s that are **reset, never reallocated**, across solves: each
//! [`crate::csr::CsrFlow::min_cut`] call resizes the buffers up to the
//! instance size (amortized — `Vec::resize` keeps capacity) and reuses the
//! allocations of every previous solve.

use crate::csr::EdgeId;

/// Arc-index sentinel: "no arc" (used by predecessor arrays).
pub(crate) const NO_ARC: u32 = u32::MAX;
/// Level sentinel: "unvisited".
pub(crate) const UNVISITED: u32 = u32::MAX;

/// Reusable buffers for max-flow / min-cut computations over a
/// [`crate::csr::CsrFlow`]. See the module docs for the reuse contract.
#[derive(Debug, Clone, Default)]
pub struct FlowScratch {
    /// Per-arc residual capacity (working copy of the frozen capacities).
    pub(crate) residual: Vec<u128>,
    /// Per-vertex BFS level ([`UNVISITED`] = not reached). For Dinic this is
    /// the residual distance to the target; the flow-cancellation search of
    /// [`crate::csr::CsrFlow::cancel_flow`] uses it as a visited mark.
    pub(crate) level: Vec<u32>,
    /// Flat BFS queue (head index kept locally by the solvers).
    pub(crate) queue: Vec<u32>,
    /// Per-vertex current-arc pointer (absolute arc index) for Dinic.
    pub(crate) current_arc: Vec<u32>,
    /// DFS path of arc indices for Dinic's blocking flow.
    pub(crate) path: Vec<u32>,
    /// Per-vertex predecessor arc of the flow-cancellation path search in
    /// [`crate::csr::CsrFlow::cancel_flow`] ([`NO_ARC`] = none).
    pub(crate) pred: Vec<u32>,
    /// Source-side reachability in the residual graph (cut extraction).
    pub(crate) reachable: Vec<bool>,
    /// The extracted cut edges (valid until the next solve).
    pub(crate) cut_edges: Vec<EdgeId>,
}

impl FlowScratch {
    /// A fresh scratch with no capacity reserved; the first solve sizes it.
    pub fn new() -> FlowScratch {
        FlowScratch::default()
    }

    /// Prepares the buffers for an instance with `vertices` vertices.
    /// Buffers that the solvers fully re-initialize before use (`level`,
    /// `current_arc`, `pred`) are only grown, not rewritten — the solvers
    /// reset exactly the first `vertices` entries themselves. Capacity only
    /// grows. The residual array is loaded separately by the caller
    /// (`clear()` + `extend_from_slice` from the frozen capacities).
    pub(crate) fn prepare(&mut self, vertices: usize) {
        if self.level.len() < vertices {
            self.level.resize(vertices, UNVISITED);
        }
        if self.current_arc.len() < vertices {
            self.current_arc.resize(vertices, 0);
        }
        if self.pred.len() < vertices {
            self.pred.resize(vertices, NO_ARC);
        }
        self.queue.clear();
        self.queue.reserve(vertices);
        self.path.clear();
        // Cut extraction relies on a clean reachability map.
        self.reachable.clear();
        self.reachable.resize(vertices, false);
        self.cut_edges.clear();
    }

    /// The source side of the most recent cut, one flag per vertex: the
    /// vertices the source reaches in the final residual graph, which is the
    /// unique minimal source side of a minimum cut. Set by
    /// [`crate::csr::CsrFlow::min_cut`] and by a
    /// [`crate::csr::CsrFlow::min_cut_resume`] that extracts its cut.
    pub fn source_side(&self) -> &[bool] {
        &self.reachable
    }

    /// The capacities of every internal buffer, in a fixed order. Two equal
    /// signatures mean no buffer was reallocated in between — the
    /// zero-post-warmup-reallocation contract of scratch reuse is asserted
    /// with exactly this (see the engine's batch tests).
    pub fn capacity_signature(&self) -> [usize; 8] {
        [
            self.residual.capacity(),
            self.level.capacity(),
            self.queue.capacity(),
            self.current_arc.capacity(),
            self.path.capacity(),
            self.pred.capacity(),
            self.reachable.capacity(),
            self.cut_edges.capacity(),
        ]
    }
}
