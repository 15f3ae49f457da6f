//! Measured backend auto-selection (`FlowAlgorithm::Auto`).
//!
//! The `flow_ablation` bench (committed as `BENCH_flow_ablation.json`, see
//! EXPERIMENTS.md) measures both max-flow backends over the CSR path on two
//! network families — sparse layered networks and dense random networks — at
//! several sizes. With levels counted as residual distances to the target
//! (see [`crate::csr`]), **Dinic wins at every measured size of both
//! families**, so [`select`] returns Dinic.
//!
//! [`MEASURED_CROSSOVER`] keeps the measured table. When
//! `BENCH_flow_ablation.json` is re-recorded and push–relabel wins at some
//! measured size, [`select`] gains the size threshold that separates the
//! winners. The quick mode of the bench (`FLOW_ABLATION_QUICK=1`, run in CI)
//! asserts that `Auto` still picks the measured winner at the smallest and
//! largest size of each family.

use crate::mincut::FlowAlgorithm;

/// One measured point of the Dinic / push–relabel crossover: median ns per
/// min-cut on the `flow_ablation` families (see `BENCH_flow_ablation.json`).
#[derive(Debug, Clone, Copy)]
pub struct CrossoverPoint {
    /// Network family of the measurement (`"layered"` is sparse, 3 out-arcs
    /// per vertex; `"dense"` has 10 out-arcs per vertex).
    pub family: &'static str,
    /// Instance size `|N| = |V| + |E|`.
    pub size: usize,
    /// Median ns per min-cut with Dinic over the CSR path.
    pub dinic_ns: u64,
    /// Median ns per min-cut with push–relabel over the CSR path.
    pub push_relabel_ns: u64,
}

/// The measured table backing [`select`]. Recorded on the
/// hardware documented in EXPERIMENTS.md; values are medians from
/// `BENCH_flow_ablation.json`.
pub const MEASURED_CROSSOVER: &[CrossoverPoint] = &[
    CrossoverPoint { family: "layered", size: 498, dinic_ns: 13_379, push_relabel_ns: 47_586 },
    CrossoverPoint { family: "layered", size: 2_018, dinic_ns: 263_139, push_relabel_ns: 617_625 },
    CrossoverPoint {
        family: "layered",
        size: 8_130,
        dinic_ns: 3_484_001,
        push_relabel_ns: 3_602_851,
    },
    CrossoverPoint { family: "dense", size: 715, dinic_ns: 17_129, push_relabel_ns: 24_224 },
    CrossoverPoint { family: "dense", size: 2_875, dinic_ns: 206_290, push_relabel_ns: 305_966 },
    CrossoverPoint {
        family: "dense",
        size: 11_513,
        dinic_ns: 1_087_248,
        push_relabel_ns: 1_213_044,
    },
];

/// Picks the measured-winner backend for an instance with `num_vertices`
/// vertices and `num_edges` edges. Always returns a concrete backend (never
/// [`FlowAlgorithm::Auto`]). Dinic wins at every size of
/// [`MEASURED_CROSSOVER`], so the dimensions decide nothing until a
/// re-recorded table has push–relabel ahead somewhere.
pub fn select(_num_vertices: usize, _num_edges: usize) -> FlowAlgorithm {
    FlowAlgorithm::Dinic
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_concrete_and_matches_the_measured_table() {
        // Every measured point picks the measured winner. The layered family
        // has |E| ≈ 3|V|; the dense family has |E| ≈ 10|V|.
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
}
