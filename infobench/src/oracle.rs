//! Reference oracle: i.i.d. live-edge forward simulation.
//!
//! Each sample draws every edge live with its ICM probability (the
//! live-edge view of a cascade), then propagates reachability forward
//! from every origin the queries need at once: a node's 64-bit mask
//! holds one bit per origin that reaches it. One sample therefore
//! serves every sink, community and condition of every source in the
//! pass ("each source is simulated once and serves all of its sinks").
//! Conditioned queries use rejection: a sample counts toward a query
//! only when all of its conditions hold.
//!
//! The oracle shares no code with the program under test: its samples
//! are independent (unlike MH), so its error bar is the plain binomial
//! one and it can judge the served answers.

use flow_graph::NodeId;
use flow_icm::Icm;
use flow_serve::{FlowQuery, SharedTarget};
use std::collections::BTreeMap;

/// One query's reference value.
#[derive(Clone, Copy, Debug)]
pub struct Reference {
    /// `Pr[target reached | conditions]` from the accepted samples.
    pub estimate: f64,
    /// Samples on which every condition held.
    pub accepted: u64,
}

impl Reference {
    /// One binomial standard error of the estimate.
    pub fn std_err(&self) -> f64 {
        if self.accepted == 0 {
            return f64::INFINITY;
        }
        let p = self.estimate;
        (p * (1.0 - p) / self.accepted as f64)
            .sqrt()
            .max(1.0 / self.accepted as f64)
    }
}

/// SplitMix64: small, fast and good enough for coin flips.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A query compiled against one pass's origin numbering.
struct Compiled {
    source_bit: u64,
    /// Sink or community members; `None` when no sample can hit them.
    targets: Option<Vec<NodeId>>,
    /// `(node, origin bit, required)`.
    conditions: Vec<(NodeId, u64, bool)>,
}

/// Per-sample forward reachability from up to 64 origins.
struct Propagator<'a> {
    icm: &'a Icm,
    /// Live-edge threshold per edge: live iff a draw is below it.
    thresholds: Vec<u64>,
    live: Vec<bool>,
    masks: Vec<u64>,
    queued: Vec<bool>,
    queue: Vec<NodeId>,
}

impl<'a> Propagator<'a> {
    fn new(icm: &'a Icm) -> Self {
        let thresholds = icm
            .probabilities()
            .iter()
            .map(|&p| {
                if p >= 1.0 {
                    u64::MAX
                } else {
                    (p.max(0.0) * 18_446_744_073_709_551_616.0) as u64
                }
            })
            .collect();
        let n = icm.node_count();
        Propagator {
            icm,
            thresholds,
            live: vec![false; icm.edge_count()],
            masks: vec![0; n],
            queued: vec![false; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// Draws one live-edge sample and propagates the origin bits.
    fn sample(&mut self, rng: &mut SplitMix, origins: &[NodeId]) {
        for (live, &t) in self.live.iter_mut().zip(&self.thresholds) {
            *live = t == u64::MAX || rng.next() < t;
        }
        self.masks.iter_mut().for_each(|m| *m = 0);
        for (bit, &o) in origins.iter().enumerate() {
            self.masks[o.index()] |= 1 << bit;
            if !self.queued[o.index()] {
                self.queued[o.index()] = true;
                self.queue.push(o);
            }
        }
        let graph = self.icm.graph();
        while let Some(u) = self.queue.pop() {
            self.queued[u.index()] = false;
            let mu = self.masks[u.index()];
            for &e in graph.out_edges(u) {
                if !self.live[e.index()] {
                    continue;
                }
                let v = graph.dst(e);
                let merged = self.masks[v.index()] | mu;
                if merged != self.masks[v.index()] {
                    self.masks[v.index()] = merged;
                    if !self.queued[v.index()] {
                        self.queued[v.index()] = true;
                        self.queue.push(v);
                    }
                }
            }
        }
    }

    fn reached(&self, v: NodeId, bit: u64) -> bool {
        self.masks[v.index()] & bit != 0
    }
}

/// Counts `(accepted, hits)` per compiled query over `states` samples.
fn run_pass(
    icm: &Icm,
    origins: &[NodeId],
    queries: &[(usize, Compiled)],
    states: usize,
    seed: u64,
) -> Vec<(u64, u64)> {
    let mut prop = Propagator::new(icm);
    let mut rng = SplitMix(seed);
    let mut counts = vec![(0u64, 0u64); queries.len()];
    for _ in 0..states {
        prop.sample(&mut rng, origins);
        for ((_, q), c) in queries.iter().zip(counts.iter_mut()) {
            if !q
                .conditions
                .iter()
                .all(|&(v, bit, required)| prop.reached(v, bit) == required)
            {
                continue;
            }
            c.0 += 1;
            let hit = q
                .targets
                .as_ref()
                .is_some_and(|ts| ts.iter().all(|&t| prop.reached(t, q.source_bit)));
            if hit {
                c.1 += 1;
            }
        }
    }
    counts
}

/// Reference values for `queries` from `states` i.i.d. samples, split
/// over two threads (fixed, so results do not depend on the core
/// count). Queries are packed into passes of at most 64 origins.
pub fn references(icm: &Icm, queries: &[FlowQuery], states: usize, seed: u64) -> Vec<Reference> {
    // Greedy packing: a query joins the current pass while its origins
    // fit in the 64-bit mask.
    let mut passes: Vec<(BTreeMap<NodeId, u64>, Vec<usize>)> = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        let needed: Vec<NodeId> = std::iter::once(q.source)
            .chain(q.conditions.iter().map(|c| c.source))
            .collect();
        let fits = |origins: &BTreeMap<NodeId, u64>| {
            let new = needed.iter().filter(|o| !origins.contains_key(o)).count();
            origins.len() + new <= 64
        };
        if !passes.last().is_some_and(|(origins, _)| fits(origins)) {
            passes.push((BTreeMap::new(), Vec::new()));
        }
        let Some((origins, members)) = passes.last_mut() else {
            continue;
        };
        for o in needed {
            let next = origins.len() as u64;
            origins.entry(o).or_insert(next);
        }
        members.push(i);
    }

    let mut out = vec![
        Reference {
            estimate: 0.0,
            accepted: 0,
        };
        queries.len()
    ];
    for (pass_ix, (origin_bits, members)) in passes.into_iter().enumerate() {
        let mut origins = vec![NodeId(0); origin_bits.len()];
        for (&node, &bit) in &origin_bits {
            origins[bit as usize] = node;
        }
        let compiled: Vec<(usize, Compiled)> = members
            .iter()
            .map(|&i| {
                let q = &queries[i];
                let bit = |v: NodeId| 1u64 << origin_bits[&v];
                let targets = match &q.target {
                    SharedTarget::Sink(t) => vec![*t],
                    SharedTarget::Community(m) => m.clone(),
                };
                // The served estimators never count the source itself
                // as reached (a flow needs at least one edge), so such
                // a target, like an empty community, is never hit.
                let hittable = !targets.is_empty() && !targets.contains(&q.source);
                let compiled = Compiled {
                    source_bit: bit(q.source),
                    targets: hittable.then_some(targets),
                    conditions: q
                        .conditions
                        .iter()
                        .map(|c| (c.sink, bit(c.source), c.required))
                        .collect(),
                };
                (i, compiled)
            })
            .collect();
        let half = states / 2;
        let pass_seed = seed ^ (pass_ix as u64).wrapping_mul(0xa076_1d64_78bd_642f);
        let (a, b) = std::thread::scope(|s| {
            let h = s.spawn(|| run_pass(icm, &origins, &compiled, half, pass_seed));
            let b = run_pass(icm, &origins, &compiled, states - half, !pass_seed);
            (h.join(), b)
        });
        let a = a.unwrap_or_else(|_| vec![(0, 0); compiled.len()]);
        for (((i, _), x), y) in compiled.iter().zip(&a).zip(&b) {
            let accepted = x.0 + y.0;
            let hits = x.1 + y.1;
            out[*i] = Reference {
                estimate: if accepted == 0 {
                    0.0
                } else {
                    hits as f64 / accepted as f64
                },
                accepted,
            };
        }
    }
    out
}

/// Marginal reach probabilities `Pr[o ~> v]` for every origin `o` (at
/// most 64) and node `v`, from `states` samples. Used to draw
/// conditions whose probability is neither tiny nor near one.
pub fn reach_probabilities(
    icm: &Icm,
    origins: &[NodeId],
    states: usize,
    seed: u64,
) -> Vec<Vec<f64>> {
    let mut prop = Propagator::new(icm);
    let mut rng = SplitMix(seed);
    let n = icm.node_count();
    let mut hits = vec![vec![0u64; n]; origins.len()];
    for _ in 0..states {
        prop.sample(&mut rng, origins);
        for (bit, row) in hits.iter_mut().enumerate() {
            for (v, h) in row.iter_mut().enumerate() {
                if prop.masks[v] & (1 << bit) != 0 {
                    *h += 1;
                }
            }
        }
    }
    hits.into_iter()
        .map(|row| row.into_iter().map(|h| h as f64 / states as f64).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow_graph::generate::uniform_edges;
    use flow_icm::exact::enumerate_conditional_probability;
    use flow_icm::FlowCondition;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_icm(seed: u64, n: usize, m: usize) -> Icm {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = uniform_edges(&mut rng, n, m);
        let probs = (0..g.edge_count())
            .map(|_| rng.random_range(0.1..0.9))
            .collect();
        Icm::new(g, probs)
    }

    fn exact(icm: &Icm, q: &FlowQuery) -> Option<f64> {
        let g = icm.graph();
        let targets = match &q.target {
            SharedTarget::Sink(t) => vec![*t],
            SharedTarget::Community(m) => m.clone(),
        };
        enumerate_conditional_probability(
            icm,
            |x| targets.iter().all(|&t| x.carries_flow(g, q.source, t)),
            |x| q.conditions.iter().all(|c| c.holds(g, x)),
        )
    }

    fn query(source: u32, target: SharedTarget, conditions: Vec<FlowCondition>) -> FlowQuery {
        let mut q = FlowQuery::flow(NodeId(source), NodeId(0));
        q.target = target;
        q.conditions = conditions;
        q
    }

    #[test]
    fn matches_exact_enumeration_on_small_graphs() {
        for seed in 0..4 {
            let icm = small_icm(seed, 7, 16 + seed as usize);
            assert!(icm.edge_count() <= 20);
            let queries = vec![
                query(0, SharedTarget::Sink(NodeId(5)), vec![]),
                query(1, SharedTarget::Sink(NodeId(6)), vec![]),
                query(
                    2,
                    SharedTarget::Community(vec![NodeId(3), NodeId(4)]),
                    vec![],
                ),
                query(
                    0,
                    SharedTarget::Sink(NodeId(6)),
                    vec![FlowCondition::requires(NodeId(0), NodeId(3))],
                ),
                query(
                    3,
                    SharedTarget::Sink(NodeId(1)),
                    vec![FlowCondition::forbids(NodeId(2), NodeId(5))],
                ),
                query(
                    4,
                    SharedTarget::Community(vec![NodeId(0), NodeId(6)]),
                    vec![
                        FlowCondition::requires(NodeId(4), NodeId(2)),
                        FlowCondition::forbids(NodeId(1), NodeId(4)),
                    ],
                ),
            ];
            let refs = references(&icm, &queries, 200_000, 99 + seed);
            for (q, r) in queries.iter().zip(&refs) {
                let Some(truth) = exact(&icm, q) else {
                    assert_eq!(r.accepted, 0, "zero-probability condition accepted samples");
                    continue;
                };
                let tol = 5.0 * r.std_err() + 1e-3;
                assert!(
                    (r.estimate - truth).abs() <= tol,
                    "seed {seed}: {q:?}: oracle {} vs exact {truth} (tol {tol})",
                    r.estimate
                );
            }
        }
    }

    #[test]
    fn source_is_never_its_own_target() {
        let icm = small_icm(3, 6, 14);
        let q = query(2, SharedTarget::Sink(NodeId(2)), vec![]);
        let r = references(&icm, &[q], 1_000, 1);
        assert_eq!(r[0].estimate, 0.0);
    }

    #[test]
    fn passes_split_beyond_64_origins() {
        let icm = small_icm(5, 80, 200);
        let queries: Vec<FlowQuery> = (0..80)
            .map(|s| query(s, SharedTarget::Sink(NodeId((s + 1) % 80)), vec![]))
            .collect();
        let refs = references(&icm, &queries, 2_000, 3);
        assert!(refs.iter().all(|r| r.accepted == 2_000));
        let marg = reach_probabilities(&icm, &[NodeId(0)], 2_000, 3);
        assert!((marg[0][1] - refs[0].estimate).abs() < 0.1);
    }
}
