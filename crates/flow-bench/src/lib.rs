//! Shared fixtures for the Criterion benchmarks.
//!
//! The benches regenerate the paper's performance claims:
//!
//! * `mh_sampler` — §IV-C: "on a small sample from Twitter with around
//!   6K users and 14K edges, our sampler takes 27 milliseconds per
//!   output sample (0.13 milliseconds per Markov-Chain update)". We
//!   measure the same two quantities at the same scale and verify the
//!   `O(log m)` chain-update scaling.
//! * `fig6_learning_cost` — Fig. 6's per-sample cost comparison (ours
//!   vs Goyal).
//! * `summarization` — §V-C: the summary is `O(min(2ⁿ, m))` wide and
//!   makes likelihood evaluation independent of the object count.
//! * `exact_vs_mh` — exponential exact evaluation vs sampling.
//! * `ablation_proposal` / `ablation_weight_tree` — the design choices
//!   called out in DESIGN.md (proposal-weight convention; Fenwick tree
//!   vs linear-scan sampling).

use flow_graph::{GraphBuilder, NodeId};
use flow_icm::Icm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A Twitter-scale model matching the paper's timing claim: ~6K nodes,
/// ~14K edges, moderate activation probabilities.
pub fn twitter_scale_icm(seed: u64) -> Icm {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = flow_graph::generate::uniform_edges(&mut rng, 6_000, 14_000);
    let probs = (0..graph.edge_count())
        .map(|_| rng.random_range(0.05..0.6))
        .collect();
    Icm::new(graph, probs)
}

/// A model with `m` edges on `m/2` nodes for scaling sweeps.
pub fn scaling_icm(m: usize, seed: u64) -> Icm {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = (m / 2).max(4);
    let graph = flow_graph::generate::uniform_edges(&mut rng, n, m);
    let probs = (0..graph.edge_count())
        .map(|_| rng.random_range(0.05..0.6))
        .collect();
    Icm::new(graph, probs)
}

/// A model with `m` edges on `m/4` nodes and the same edge
/// probabilities: mean branching ≈1.3 (supercritical, against ≈0.65 for
/// [`scaling_icm`]), so flows from a well-connected node sit far from
/// 0 and 1.
pub fn supercritical_icm(m: usize, seed: u64) -> Icm {
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = flow_graph::generate::uniform_edges(&mut rng, (m / 4).max(4), m);
    let probs = (0..graph.edge_count())
        .map(|_| rng.random_range(0.05..0.6))
        .collect();
    Icm::new(graph, probs)
}

/// `communities` disjoint uniform-edge communities of roughly `m_each`
/// edges each — the multi-community workload sharded serving targets:
/// every community is its own weak component, so
/// `flow_graph::partition_edges` keeps it whole on one shard and a
/// single-community query's chain walks a sub-multinomial of
/// `~m_each << m` edges.
pub fn multi_community_icm(communities: u32, m_each: usize, seed: u64) -> Icm {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_each = (m_each / 2).max(4);
    let mut builder = GraphBuilder::new(n_each * communities as usize);
    let mut probs = Vec::new();
    for c in 0..communities {
        let sub = flow_graph::generate::uniform_edges(&mut rng, n_each, m_each);
        let base = (c as usize * n_each) as u32;
        for e in sub.edges() {
            let (u, v) = sub.endpoints(e);
            if builder
                .add_edge(NodeId(base + u.0), NodeId(base + v.0))
                .is_ok()
            {
                probs.push(rng.random_range(0.05..0.6));
            }
        }
    }
    Icm::new(builder.build(), probs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_expected_shapes() {
        let icm = scaling_icm(500, 1);
        assert_eq!(icm.edge_count(), 500);
        assert_eq!(icm.node_count(), 250);
    }

    #[test]
    fn communities_are_disjoint_components() {
        let icm = multi_community_icm(3, 60, 9);
        let p = flow_graph::partition_edges(icm.graph(), 3);
        // Whole components per shard: each shard holds ~one community.
        let counts = p.edge_counts();
        assert_eq!(counts.iter().sum::<usize>(), icm.edge_count());
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        // No edge crosses a community boundary of 30 nodes.
        let g = icm.graph();
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            assert_eq!(u.0 / 30, v.0 / 30, "edge {e:?} crosses communities");
        }
    }
}
