//! Ablation: choice of the max-flow solver behind the MinCut reductions.
//!
//! The paper's tractability results (Theorem 3.13, Propositions 7.6 and 7.9)
//! only require *some* polynomial MinCut oracle; the cited near-linear-time
//! algorithm [21] is replaced in this reproduction by Dinic's algorithm. This
//! bench measures how much that choice matters by running the solvers shipped
//! with `rpq-flow` over the CSR arena path (`CsrFlow::min_cut` with a reused
//! `FlowScratch`, the representation the resilience engine's batch path uses)
//! on two network families:
//!
//! * `layered` — sparse layered product-style networks (~3 out-arcs per
//!   vertex; the shape of the Theorem 3.13 reduction networks), and
//! * `dense` — random networks with ~10 out-arcs per vertex.
//!
//! Benchmark series per family and size `|N| = |V| + |E|`:
//!
//! * `Csr{Dinic,PushRelabel}` — the concrete backends over a frozen
//!   [`CsrFlow`] with one reused [`FlowScratch`];
//! * `CsrAuto` — [`FlowAlgorithm::Auto`], which should track the per-size
//!   winner (`rpq_flow::auto::select` is re-derived from this bench's
//!   recorded medians, committed as `BENCH_flow_ablation.json`; Dinic wins
//!   at every recorded size, so it picks Dinic).
//!
//! Before any timing, every instance is checked: Dinic and push–relabel
//! must agree on the value, and each backend's cut must disconnect the
//! network at exactly that cost (the max-flow/min-cut certificate).
//!
//! **Quick mode** (`FLOW_ABLATION_QUICK=1`, run as a CI smoke step): skips
//! the criterion sweep and instead times Dinic vs push–relabel directly on
//! the smallest and largest instance of each family, asserting that the
//! auto-selector picks the measured winner (with a noise margin).

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq_flow::{Capacity, CsrFlow, EdgeId, FlowAlgorithm, FlowNetwork, FlowScratch, VertexId};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// A layered random network: `layers` layers of `width` vertices, edges only
/// between consecutive layers, plus a super-source and super-target attached
/// with infinite capacities (the shape of the Theorem 3.13 product networks).
fn layered_network(layers: usize, width: usize, seed: u64) -> FlowNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = FlowNetwork::new();
    let mut ids: Vec<Vec<VertexId>> = Vec::new();
    for _ in 0..layers {
        ids.push((0..width).map(|_| net.add_vertex()).collect());
    }
    let source = net.add_vertex();
    let target = net.add_vertex();
    net.set_source(source);
    net.set_target(target);
    for v in &ids[0] {
        net.add_edge(source, *v, Capacity::Infinite);
    }
    for v in &ids[layers - 1] {
        net.add_edge(*v, target, Capacity::Infinite);
    }
    for l in 0..layers - 1 {
        for &u in &ids[l] {
            // Each vertex reaches ~3 vertices of the next layer.
            for _ in 0..3 {
                let v = ids[l + 1][rng.gen_range(0..width)];
                let capacity = Capacity::Finite(rng.gen_range(1..16));
                net.add_edge(u, v, capacity);
            }
        }
    }
    net
}

/// A dense random network: `width` internal vertices each with 10 random
/// out-arcs, the first `width/8` vertices fed from a super-source and the
/// last `width/8` feeding a super-target with infinite capacities (the
/// multi-source/multi-sink MinCut shape of the introduction).
fn dense_network(width: usize, seed: u64) -> FlowNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = FlowNetwork::new();
    let ids: Vec<VertexId> = (0..width).map(|_| net.add_vertex()).collect();
    let source = net.add_vertex();
    let target = net.add_vertex();
    net.set_source(source);
    net.set_target(target);
    let boundary = (width / 8).max(1);
    for v in &ids[..boundary] {
        net.add_edge(source, *v, Capacity::Infinite);
    }
    for v in &ids[width - boundary..] {
        net.add_edge(*v, target, Capacity::Infinite);
    }
    for &u in &ids {
        for _ in 0..10 {
            let v = ids[rng.gen_range(0..width)];
            if v != u {
                net.add_edge(u, v, Capacity::Finite(rng.gen_range(1..16)));
            }
        }
    }
    net
}

/// The two benched families at their sweep sizes.
fn families() -> Vec<(&'static str, Vec<FlowNetwork>)> {
    vec![
        (
            "layered",
            [(8usize, 16usize), (16, 32), (32, 64)]
                .iter()
                .map(|&(layers, width)| layered_network(layers, width, 0xC0FFEE + layers as u64))
                .collect(),
        ),
        (
            "dense",
            [64usize, 256, 1024]
                .iter()
                .map(|&width| dense_network(width, 0xD15EA5E + width as u64))
                .collect(),
        ),
    ]
}

/// Freezes `net` and checks it before timing: every selectable backend
/// returns the same value (`Auto` resolves to one of the two independent
/// concrete ones), and every finite cut disconnects the network at exactly
/// that cost.
fn checked_csr(net: &FlowNetwork, scratch: &mut FlowScratch) -> CsrFlow {
    let csr = CsrFlow::from_network(net);
    let reference = csr.min_cut(FlowAlgorithm::Dinic, scratch).value;
    for algorithm in FlowAlgorithm::SELECTABLE {
        let cut = csr.min_cut(algorithm, scratch);
        assert_eq!(cut.value, reference, "{algorithm} disagrees with Dinic");
        if !cut.value.is_infinite() {
            let set: BTreeSet<EdgeId> = cut.cut_edges.iter().copied().collect();
            assert!(net.is_cut(&set), "{algorithm}: the cut must disconnect the network");
            assert_eq!(net.cost(&set), cut.value, "{algorithm}: the cut must cost the value");
        }
    }
    csr
}

fn flow_ablation(c: &mut Criterion) {
    for (family, nets) in families() {
        let mut group = c.benchmark_group(format!("flow_ablation/{family}"));
        group
            .sample_size(10)
            .measurement_time(Duration::from_secs(1))
            .warm_up_time(Duration::from_millis(200));
        let mut scratch = FlowScratch::new();
        for net in &nets {
            let csr = checked_csr(net, &mut scratch);
            let size = net.size();
            for algorithm in FlowAlgorithm::SELECTABLE {
                group.bench_with_input(
                    BenchmarkId::new(format!("Csr{algorithm:?}"), size),
                    &csr,
                    |b, csr| b.iter(|| csr.min_cut(algorithm, &mut scratch).value),
                );
            }
        }
        group.finish();
    }
}

/// Median ns per CSR min-cut over `iters` timed runs (one untimed warm-up).
fn measure_median_ns(
    csr: &CsrFlow,
    algorithm: FlowAlgorithm,
    scratch: &mut FlowScratch,
    iters: usize,
) -> u128 {
    black_box(csr.min_cut(algorithm, scratch).value);
    let mut samples: Vec<u128> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            black_box(csr.min_cut(algorithm, scratch).value);
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// CI smoke check: on the smallest and largest instance of each family, the
/// auto-selector must pick whichever of Dinic / push–relabel measures faster
/// here and now. Near-ties (within `MARGIN`) accept either choice so timing
/// noise on loaded CI machines cannot flake the step.
fn quick_smoke() {
    const MARGIN: f64 = 1.30;
    let mut scratch = FlowScratch::new();
    for (family, nets) in families() {
        // Smallest and largest sweep size.
        for net in [&nets[0], &nets[nets.len() - 1]] {
            let csr = checked_csr(net, &mut scratch);
            let dinic = measure_median_ns(&csr, FlowAlgorithm::Dinic, &mut scratch, 15);
            let push_relabel =
                measure_median_ns(&csr, FlowAlgorithm::PushRelabel, &mut scratch, 15);
            let winner = if dinic <= push_relabel {
                FlowAlgorithm::Dinic
            } else {
                FlowAlgorithm::PushRelabel
            };
            let picked = FlowAlgorithm::Auto.resolve(csr.num_vertices(), csr.num_edges());
            let ratio = dinic.max(push_relabel) as f64 / dinic.min(push_relabel).max(1) as f64;
            println!(
                "quick {family}/|N|={}: Dinic {dinic} ns, PushRelabel {push_relabel} ns \
                 -> winner {winner:?}, auto picked {picked:?}",
                net.size(),
            );
            assert!(
                picked == winner || ratio < MARGIN,
                "auto-selector picked {picked:?} but {winner:?} measured {ratio:.2}x faster \
                 on {family}/|N|={}",
                net.size(),
            );
        }
    }
    println!("flow_ablation quick mode: auto-selector picks the measured winner");
}

criterion_group!(benches, flow_ablation);

fn main() {
    if std::env::var("FLOW_ABLATION_QUICK").is_ok_and(|v| v == "1") {
        quick_smoke();
        return;
    }
    benches();
}
