//! Measured backend auto-selection (`FlowAlgorithm::Auto`).
//!
//! The `flow_ablation` bench (committed as `BENCH_flow_ablation.json`, see
//! EXPERIMENTS.md) measures both max-flow backends over the CSR path on two
//! network families — sparse layered networks and dense random networks — at
//! several sizes. The measurements show a stable crossover: **Dinic wins on
//! small instances, push–relabel wins on large ones**.
//!
//! [`select`] encodes that crossover as two thresholds on the instance size
//! `|N| = |V| + |E|` (the size measure used throughout the paper): a sparse
//! threshold, and a lower one for dense instances (average degree ≥
//! [`DENSE_AVG_DEGREE`]) where push–relabel's locality pays off earlier. The
//! thresholds are re-derived whenever `BENCH_flow_ablation.json` is
//! re-recorded; the quick mode of the bench (`FLOW_ABLATION_QUICK=1`, run in
//! CI) asserts that `Auto` still picks the measured winner on both sides of
//! the crossover.

use crate::mincut::FlowAlgorithm;

/// One measured point of the Dinic / push–relabel crossover: median ns per
/// min-cut on the `flow_ablation` families (see `BENCH_flow_ablation.json`).
#[derive(Debug, Clone, Copy)]
pub struct CrossoverPoint {
    /// Network family of the measurement (`"layered"` is sparse, 3 out-arcs
    /// per vertex; `"dense"` has average degree ≥ [`DENSE_AVG_DEGREE`]).
    pub family: &'static str,
    /// Instance size `|N| = |V| + |E|`.
    pub size: usize,
    /// Median ns per min-cut with Dinic over the CSR path.
    pub dinic_ns: u64,
    /// Median ns per min-cut with push–relabel over the CSR path.
    pub push_relabel_ns: u64,
}

/// The measured crossover table backing the thresholds below. Recorded on
/// the hardware documented in EXPERIMENTS.md; values are medians from
/// `BENCH_flow_ablation.json`.
pub const MEASURED_CROSSOVER: &[CrossoverPoint] = &[
    CrossoverPoint { family: "layered", size: 498, dinic_ns: 14_125, push_relabel_ns: 26_692 },
    CrossoverPoint { family: "layered", size: 2_018, dinic_ns: 217_594, push_relabel_ns: 493_195 },
    CrossoverPoint {
        family: "layered",
        size: 8_130,
        dinic_ns: 3_863_387,
        push_relabel_ns: 3_086_753,
    },
    CrossoverPoint { family: "dense", size: 715, dinic_ns: 24_924, push_relabel_ns: 23_500 },
    CrossoverPoint { family: "dense", size: 2_875, dinic_ns: 286_808, push_relabel_ns: 270_082 },
    CrossoverPoint {
        family: "dense",
        size: 11_513,
        dinic_ns: 1_289_625,
        push_relabel_ns: 1_098_802,
    },
];

/// Size `|N| = |V| + |E|` at which `Auto` switches from Dinic to push–relabel
/// on sparse instances. The measured layered family has Dinic ahead at
/// `|N| = 2018` and push–relabel ahead at `|N| = 8130`; the threshold sits
/// between the two measured points.
pub const SPARSE_PUSH_RELABEL_MIN_SIZE: usize = 4096;

/// Average degree (`|E| / |V|`) from which an instance counts as dense.
pub const DENSE_AVG_DEGREE: usize = 8;

/// Size threshold for dense instances: push–relabel already wins at the
/// smallest measured dense point (`|N| = 715`), so the threshold sits below
/// it — dense instances switch to push–relabel much earlier than sparse ones.
pub const DENSE_PUSH_RELABEL_MIN_SIZE: usize = 512;

/// Picks the measured-winner backend for an instance with `num_vertices`
/// vertices and `num_edges` edges. Always returns a concrete backend (never
/// [`FlowAlgorithm::Auto`]).
pub fn select(num_vertices: usize, num_edges: usize) -> FlowAlgorithm {
    let size = num_vertices + num_edges;
    let dense = num_edges >= DENSE_AVG_DEGREE * num_vertices.max(1);
    let threshold = if dense { DENSE_PUSH_RELABEL_MIN_SIZE } else { SPARSE_PUSH_RELABEL_MIN_SIZE };
    if size >= threshold {
        FlowAlgorithm::PushRelabel
    } else {
        FlowAlgorithm::Dinic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_concrete_and_matches_the_measured_table() {
        // Every measured point picks the measured winner. The layered family
        // has |E| ≈ 3|V| (below the dense cutoff); the dense family has
        // |E| ≈ 10|V| (above it).
        for point in MEASURED_CROSSOVER {
            let num_vertices =
                if point.family == "layered" { point.size / 4 } else { point.size / 11 };
            let num_edges = point.size - num_vertices;
            let picked = select(num_vertices, num_edges);
            let winner = if point.dinic_ns <= point.push_relabel_ns {
                FlowAlgorithm::Dinic
            } else {
                FlowAlgorithm::PushRelabel
            };
            assert_eq!(picked, winner, "{}, size {}", point.family, point.size);
        }
        for (v, e) in [(0, 0), (10, 30), (1000, 3000), (1000, 20000), (100, 5000)] {
            let picked = select(v, e);
            assert_ne!(picked, FlowAlgorithm::Auto);
        }
    }

    #[test]
    fn dense_instances_switch_earlier() {
        // Same size, different density: the dense instance can flip to
        // push-relabel while the sparse one stays on Dinic.
        assert_eq!(select(1500, 500), FlowAlgorithm::Dinic); // sparse, |N|=2000
        assert_eq!(select(200, 1800), FlowAlgorithm::PushRelabel); // dense, |N|=2000
    }
}
