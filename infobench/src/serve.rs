//! The three closed-loop serving workloads: one client submits a
//! fixed-size batch through `ServeEngine::execute_batch`, waits for
//! it, then sends the next, as `repro serve` and the stream re-serve
//! do.

use crate::oracle::{reach_probabilities, references};
use crate::stats::{median, process_cpu_ms, Accuracy};
use crate::trace::{PhaseCounts, SpanLog, Tracer};
use crate::{build_engine, Args, Run};
use flow_graph::{generate::uniform_edges, DiGraph, NodeId};
use flow_icm::{FlowCondition, Icm};
use flow_serve::{Answer, FlowQuery, QueryOutcome, ServeEngine, SharedTarget};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Engine set-ups per run; `setup_s` is the median of their CPU times.
const SETUPS: usize = 15;
/// Oracle samples per reference.
const REFERENCE_STATES: usize = 20_000;
/// Pilot samples for drawing targets and conditions of moderate
/// probability.
const PILOT_STATES: usize = 2_000;
/// Sources (and condition sources) a workload draws from; keeps the
/// oracle to one 64-origin pass.
const SOURCES: usize = 64;
/// Sinks and community members are drawn with `Pr[source ~> v]` in
/// this band, so no answer is trivially 0 and every seed serves a
/// similar spread of flows.
pub const TARGET_BAND: (f64, f64) = (0.05, 0.95);
/// Conditions are drawn with `Pr[condition flow]` in this band, so
/// required and forbidden conditions are both well inside feasibility.
const CONDITION_BAND: (f64, f64) = (0.15, 0.85);
/// A pool source needs this many sinks in [`TARGET_BAND`].
const MIN_SINKS: usize = 24;
/// At most this many distinct answers are checked against the oracle
/// (an even, deterministic subsample beyond it), so verification time
/// stays bounded however fast the program gets.
const VERIFY_CAP: usize = 8_000;
/// Regime guard: the median reference flow must lie in this band, so
/// the fixture cannot drift subcritical (answers ≈ 0) or saturate.
pub const FLOW_BAND: (f64, f64) = (0.03, 0.8);

/// A batch and, per query, the id of the reference query it answers.
struct Batch {
    queries: Vec<FlowQuery>,
    refs: Vec<usize>,
}

/// A serving workload's client: a pure function of the seed and model.
trait Client {
    /// Batches to run untimed before measuring (cache warm-up).
    fn warmup(&mut self) -> Vec<Batch> {
        Vec::new()
    }
    fn next_batch(&mut self) -> Batch;
    /// Reference queries (tolerance-free canonical questions) by id.
    fn reference_queries(&self) -> &[FlowQuery];
}

/// A connected supercritical `uniform_edges` model with `n = m/4`
/// (mean out-degree 4) and edge probabilities `U(0.05, 0.6)`, so the
/// mean branching ratio is ≈1.3.
pub fn supercritical_icm(rng: &mut StdRng, m: usize) -> Icm {
    let n = m / 4;
    let graph = loop {
        let g = uniform_edges(rng, n, m);
        if weakly_connected(&g) {
            break g;
        }
    };
    let probs = (0..graph.edge_count())
        .map(|_| rng.random_range(0.05..0.6))
        .collect();
    Icm::new(graph, probs)
}

pub fn weakly_connected(g: &DiGraph) -> bool {
    let n = g.node_count();
    let mut seen = vec![false; n];
    let mut stack = vec![NodeId(0)];
    seen[0] = true;
    let mut count = 1;
    while let Some(u) = stack.pop() {
        for v in g.successors(u).chain(g.predecessors(u)) {
            if !seen[v.index()] {
                seen[v.index()] = true;
                count += 1;
                stack.push(v);
            }
        }
    }
    count == n
}

/// True iff a directed path `from ~> to` exists in the graph.
pub fn path_exists(g: &DiGraph, from: NodeId, to: NodeId) -> bool {
    let mut seen = vec![false; g.node_count()];
    let mut stack = vec![from];
    seen[from.index()] = true;
    while let Some(u) = stack.pop() {
        for v in g.successors(u) {
            if v == to {
                return true;
            }
            if !seen[v.index()] {
                seen[v.index()] = true;
                stack.push(v);
            }
        }
    }
    false
}

/// Which nodes each pool source reaches with moderate probability,
/// from an oracle pilot: the candidates for sinks, community members
/// and conditions.
struct Targets {
    sources: Vec<NodeId>,
    /// Per source: nodes whose flow lies in [`TARGET_BAND`].
    sinks: Vec<Vec<NodeId>>,
    /// Per source: nodes whose flow lies in [`CONDITION_BAND`].
    conditions: Vec<Vec<NodeId>>,
}

impl Targets {
    fn new(icm: &Icm, rng: &mut StdRng, seed: u64) -> Self {
        let g = icm.graph();
        let mut nodes: Vec<NodeId> = g.nodes().filter(|&v| g.out_degree(v) >= 2).collect();
        nodes.shuffle(rng);
        let marginals =
            reach_probabilities(icm, &nodes[..SOURCES.min(nodes.len())], PILOT_STATES, seed);
        let within = |row: &[f64], s: NodeId, band: (f64, f64)| -> Vec<NodeId> {
            row.iter()
                .enumerate()
                .filter(|&(v, &p)| v != s.index() && p >= band.0 && p <= band.1)
                .map(|(v, _)| NodeId(v as u32))
                .collect()
        };
        let mut t = Targets {
            sources: Vec::new(),
            sinks: Vec::new(),
            conditions: Vec::new(),
        };
        for (row, &s) in marginals.iter().zip(&nodes) {
            let sinks = within(row, s, TARGET_BAND);
            let conditions = within(row, s, CONDITION_BAND);
            // Enough sinks for thousands of distinct communities.
            if sinks.len() >= MIN_SINKS && !conditions.is_empty() {
                t.sources.push(s);
                t.sinks.push(sinks);
                t.conditions.push(conditions);
            }
        }
        assert!(
            !t.sources.is_empty(),
            "no source of the supercritical model reaches {MIN_SINKS} nodes with moderate probability"
        );
        t
    }

    fn source(&self, rng: &mut StdRng) -> usize {
        rng.random_range(0..self.sources.len())
    }

    fn sink(&self, rng: &mut StdRng, i: usize) -> SharedTarget {
        SharedTarget::Sink(
            *self.sinks[i]
                .choose(rng)
                .expect("sources keep non-empty sink lists"),
        )
    }

    fn community(&self, rng: &mut StdRng, i: usize) -> SharedTarget {
        let mut members: Vec<NodeId> = Vec::with_capacity(COMMUNITY_SIZE);
        while members.len() < COMMUNITY_SIZE {
            let v = *self.sinks[i]
                .choose(rng)
                .expect("sources keep non-empty sink lists");
            if !members.contains(&v) {
                members.push(v);
            }
        }
        members.sort_by_key(|v| v.0);
        SharedTarget::Community(members)
    }

    fn condition(&self, rng: &mut StdRng) -> FlowCondition {
        loop {
            let i = self.source(rng);
            if let Some(&sink) = self.conditions[i].choose(rng) {
                let source = self.sources[i];
                return if rng.random_bool(0.5) {
                    FlowCondition::requires(source, sink)
                } else {
                    FlowCondition::forbids(source, sink)
                };
            }
        }
    }
}

/// Canonical identity of a question: source, targets, sorted conditions.
type Identity = (u32, Vec<u32>, Vec<(u32, u32, bool)>);

/// Canonical identity of a question, for the no-repeat and pool rules.
fn identity(q: &FlowQuery) -> Identity {
    let target = match &q.target {
        SharedTarget::Sink(t) => vec![t.0],
        SharedTarget::Community(m) => m.iter().map(|v| v.0).collect(),
    };
    let mut conds: Vec<(u32, u32, bool)> = q
        .conditions
        .iter()
        .map(|c| (c.source.0, c.sink.0, c.required))
        .collect();
    conds.sort_unstable();
    (q.source.0, target, conds)
}

fn query(source: NodeId, target: SharedTarget, conditions: Vec<FlowCondition>) -> FlowQuery {
    FlowQuery {
        source,
        target,
        conditions,
        tolerance: None,
        max_steps: None,
        deadline_ms: None,
    }
}

/// `cold-flow`: unconditioned sink and community queries, grouped by
/// source within a batch; no canonical key ever repeats.
struct ColdFlow {
    rng: StdRng,
    targets: Targets,
    seen: HashSet<Identity>,
    refs: Vec<FlowQuery>,
}

const COLD_GROUPS: usize = 4;
const COLD_SINKS_PER_GROUP: usize = 3;
const COMMUNITY_SIZE: usize = 3;

impl ColdFlow {
    /// A question from source `i` never asked before, or `None` once
    /// that source's sinks and communities are (practically) used up.
    fn fresh(&mut self, i: usize, community_only: bool) -> Option<FlowQuery> {
        for attempt in 0..4096 {
            let target = if community_only || attempt >= 32 {
                self.targets.community(&mut self.rng, i)
            } else {
                self.targets.sink(&mut self.rng, i)
            };
            let q = query(self.targets.sources[i], target, Vec::new());
            if self.seen.insert(identity(&q)) {
                return Some(q);
            }
        }
        None
    }
}

impl Client for ColdFlow {
    fn next_batch(&mut self) -> Batch {
        let mut sources: Vec<usize> = (0..self.targets.sources.len()).collect();
        sources.shuffle(&mut self.rng);
        let mut batch = Batch {
            queries: Vec::new(),
            refs: Vec::new(),
        };
        let mut groups = 0;
        for i in sources {
            if groups == COLD_GROUPS {
                break;
            }
            let group: Option<Vec<FlowQuery>> = (0..=COLD_SINKS_PER_GROUP)
                .map(|k| self.fresh(i, k == COLD_SINKS_PER_GROUP))
                .collect();
            let Some(group) = group else {
                continue;
            };
            groups += 1;
            for q in group {
                batch.refs.push(self.refs.len());
                self.refs.push(q.clone());
                batch.queries.push(q);
            }
        }
        assert!(
            groups == COLD_GROUPS,
            "cold-flow used up its question space; enlarge the model or the source pool"
        );
        batch
    }

    fn reference_queries(&self) -> &[FlowQuery] {
        &self.refs
    }
}

/// `cold-conditioned`: every query carries one feasible condition and a
/// distinct `(source, condition)`, so every query is its own chain.
struct ColdConditioned {
    rng: StdRng,
    targets: Targets,
    seen: HashSet<(u32, (u32, u32, bool))>,
    refs: Vec<FlowQuery>,
}

const CONDITIONED_BATCH: usize = 8;

impl Client for ColdConditioned {
    fn next_batch(&mut self) -> Batch {
        let mut batch = Batch {
            queries: Vec::new(),
            refs: Vec::new(),
        };
        while batch.queries.len() < CONDITIONED_BATCH {
            let i = self.targets.source(&mut self.rng);
            let source = self.targets.sources[i];
            let c = self.targets.condition(&mut self.rng);
            if !self
                .seen
                .insert((source.0, (c.source.0, c.sink.0, c.required)))
            {
                continue;
            }
            let q = query(source, self.targets.sink(&mut self.rng, i), vec![c]);
            batch.refs.push(self.refs.len());
            self.refs.push(q.clone());
            batch.queries.push(q);
        }
        batch
    }

    fn reference_queries(&self) -> &[FlowQuery] {
        &self.refs
    }
}

/// `hot-zipf`: Zipf-popular repeats over a fixed pool of canonical
/// questions, with reordered conditions and tighter tolerances.
struct HotZipf {
    rng: StdRng,
    pool: Vec<FlowQuery>,
    /// Zipf CDF over popularity ranks; rank `r` asks `pool[r]`.
    cdf: Vec<f64>,
}

const POOL: usize = 256;
const ZIPF_BATCH: usize = 64;
const ZIPF_EXPONENT: f64 = 1.2;
/// Zipf batches run untimed after one pass over the pool, so the cache
/// (and its LRU eviction) is in steady state when timing starts.
const ZIPF_WARM_BATCHES: usize = 40;
/// An unconditioned request asks the base tolerance, or, one time in
/// three, a tighter one; an entry cached at the base tolerance is then
/// warm-refined. The draw is independent of history, so the mix is
/// stationary. Conditioned questions always ask the base tolerance:
/// they stay cached and their repeats test canonicalization, without
/// a rare, costly refinement setting the run's pace.
const BASE_TOLERANCE: f64 = 0.1;
const TIGHT_TOLERANCE: f64 = 0.07;
const TIGHTER_SHARE: f64 = 1.0 / 3.0;

impl HotZipf {
    fn ask(&mut self, i: usize) -> FlowQuery {
        let mut q = self.pool[i].clone();
        let tighter = q.conditions.is_empty() && self.rng.random_bool(TIGHTER_SHARE);
        q.tolerance = Some(if tighter {
            TIGHT_TOLERANCE
        } else {
            BASE_TOLERANCE
        });
        // Repeats present their conditions in a fresh order; the
        // planner must canonicalize them onto one key.
        q.conditions.shuffle(&mut self.rng);
        q
    }

    fn batch_of(&mut self, ids: Vec<usize>) -> Batch {
        let queries = ids.iter().map(|&i| self.ask(i)).collect();
        Batch { queries, refs: ids }
    }
}

impl Client for HotZipf {
    fn warmup(&mut self) -> Vec<Batch> {
        let mut first: Vec<usize> = (0..self.pool.len()).collect();
        first.shuffle(&mut self.rng);
        let mut batches: Vec<Batch> = first
            .chunks(ZIPF_BATCH)
            .map(|ids| self.batch_of(ids.to_vec()))
            .collect();
        for _ in 0..ZIPF_WARM_BATCHES {
            batches.push(self.next_batch());
        }
        batches
    }

    fn next_batch(&mut self) -> Batch {
        let ids = (0..ZIPF_BATCH)
            .map(|_| {
                let u: f64 = self.rng.random_range(0.0..1.0);
                self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
            })
            .collect();
        self.batch_of(ids)
    }

    fn reference_queries(&self) -> &[FlowQuery] {
        &self.pool
    }
}

fn hot_zipf_client(icm: &Icm, rng: &mut StdRng, seed: u64) -> HotZipf {
    let targets = Targets::new(icm, rng, seed ^ 0x9170);
    let mut seen = HashSet::new();
    let mut pool = Vec::with_capacity(POOL);
    // Pool index = popularity rank. Kinds are laid out by rank, so
    // every seed has the same popularity-by-kind profile: every fifth
    // rank is a community, and every third of the top 30 a
    // two-condition query. Those are popular enough never to be
    // evicted, so their repeats test canonicalization while misses
    // stay cheap unconditioned chains.
    while pool.len() < POOL {
        let rank = pool.len();
        let i = targets.source(rng);
        let source = targets.sources[i];
        let q = if rank % 3 == 2 && rank < 30 {
            let a = targets.condition(rng);
            let b = targets.condition(rng);
            if (a.source, a.sink) == (b.source, b.sink) {
                continue;
            }
            query(source, targets.sink(rng, i), vec![a, b])
        } else if rank % 5 == 2 {
            query(source, targets.community(rng, i), Vec::new())
        } else {
            query(source, targets.sink(rng, i), Vec::new())
        };
        if seen.insert(identity(&q)) {
            pool.push(q);
        }
    }
    let weights: Vec<f64> = (1..=POOL)
        .map(|r| (r as f64).powf(-ZIPF_EXPONENT))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    let cdf = weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect();
    HotZipf {
        rng: StdRng::seed_from_u64(seed ^ 0x2193),
        pool,
        cdf,
    }
}

/// Approximate cache footprint of one pool answer, mirroring the
/// engine's own accounting: key, counters, and a checkpoint holding the
/// active edges (≈ Σ p_e of them).
fn entry_bytes(icm: &Icm) -> usize {
    let active: f64 = icm.probabilities().iter().sum();
    64 + 16 + 96 + 4 * active as usize + 64
}

/// Per-workload knobs.
struct Spec {
    edges: usize,
    /// Independent models served in rotation, one batch each.
    models: usize,
    tolerance: f64,
    /// Cache budget in bytes; `None` keeps the engine default.
    cache_bytes: Option<fn(&Icm) -> usize>,
}

fn spec(workload: &str) -> Spec {
    match workload {
        // Four small models in rotation: a condition BFS costs what the
        // model's reach sets cost, so one model's structure would set
        // the whole run's speed; four average it out.
        "cold-conditioned" => Spec {
            edges: 600,
            models: 4,
            tolerance: 0.1,
            cache_bytes: None,
        },
        "hot-zipf" => Spec {
            edges: 1000,
            models: 1,
            tolerance: BASE_TOLERANCE,
            cache_bytes: Some(|icm| POOL / 2 * entry_bytes(icm)),
        },
        _ => Spec {
            edges: 1000,
            models: 1,
            tolerance: 0.05,
            cache_bytes: None,
        },
    }
}

/// One served model and the client asking about it.
struct Tenant {
    icm: Icm,
    client: Box<dyn Client>,
}

/// `(tenant, reference id)`: which question an answer answers.
type Tag = (usize, usize);
type Tagged = (Tag, Answer);

/// What the closed loop saw.
#[derive(Default)]
struct Loop {
    batch_ms: Vec<f64>,
    batch_cpu_ms: Vec<f64>,
    wall_s: f64,
    answers: Vec<Tagged>,
    attempted: u64,
    failed: u64,
}

impl Loop {
    fn absorb(&mut self, tenant: usize, batch: &Batch, outcomes: Vec<QueryOutcome>) {
        self.attempted += batch.queries.len() as u64;
        for (&r, o) in batch.refs.iter().zip(outcomes) {
            match o {
                QueryOutcome::Answered(a) => {
                    if !a.degradation.is_empty() {
                        self.failed += 1;
                    }
                    self.answers.push(((tenant, r), a));
                }
                QueryOutcome::Rejected { .. } | QueryOutcome::Failed(_) => self.failed += 1,
            }
        }
    }
}

/// The closed loop: tenants take turns, one batch each.
fn closed_loop(
    engine: &mut ServeEngine,
    tenants: &mut [Tenant],
    turn: &mut usize,
    seconds: f64,
    tracer: &Tracer,
    acc: &mut Loop,
) -> Loop {
    let mut phase = Loop::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let k = *turn % tenants.len();
        *turn += 1;
        let tenant = &mut tenants[k];
        let batch = tenant.client.next_batch();
        let cpu = process_cpu_ms();
        let t = Instant::now();
        let outcomes = tracer.span("execute_batch", || {
            engine.execute_batch(&tenant.icm, &batch.queries)
        });
        phase.batch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        phase.batch_cpu_ms.push(process_cpu_ms() - cpu);
        phase.absorb(k, &batch, outcomes);
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    acc.attempted += phase.attempted;
    acc.failed += phase.failed;
    acc.answers.extend(phase.answers.iter().cloned());
    phase
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Tenant `k`'s model seed; tenant 0 uses the workload seed itself, so
/// `hot-zipf` serves the `cold-flow` model of the same seed.
fn model_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

fn client(workload: &str, icm: &Icm, rng: &mut StdRng, seed: u64) -> Box<dyn Client> {
    match workload {
        "cold-conditioned" => Box::new(ColdConditioned {
            targets: Targets::new(icm, rng, seed ^ 0xc0d),
            rng: StdRng::seed_from_u64(seed ^ 0xc01d),
            seen: HashSet::new(),
            refs: Vec::new(),
        }),
        "hot-zipf" => Box::new(hot_zipf_client(icm, rng, seed)),
        _ => Box::new(ColdFlow {
            targets: Targets::new(icm, rng, seed ^ 0xf10),
            rng: StdRng::seed_from_u64(seed ^ 0xf1011),
            seen: HashSet::new(),
            refs: Vec::new(),
        }),
    }
}

pub fn run(args: &Args) -> Run {
    let spec = spec(&args.workload);
    let mut problems: Vec<String> = Vec::new();

    // Set-up: models, engine, initial swap. Repeated; the last serves.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let t = process_cpu_ms();
        let models: Vec<(Icm, StdRng)> = (0..spec.models)
            .map(|k| {
                let mut rng = StdRng::seed_from_u64(model_seed(args.seed, k));
                (supercritical_icm(&mut rng, spec.edges), rng)
            })
            .collect();
        let cache = spec.cache_bytes.map(|f| f(&models[0].0));
        let mut engine = build_engine(args.seed, spec.tolerance, cache, 1);
        for (icm, _) in &models {
            engine.install_model_icm(icm);
        }
        setup_s.push((process_cpu_ms() - t) / 1e3);
        built = Some((models, engine));
    }
    let (models, mut engine) = built.expect("at least one set-up ran");

    // The clients: pure functions of the seed and their model.
    let mut tenants: Vec<Tenant> = models
        .into_iter()
        .enumerate()
        .map(|(k, (icm, mut rng))| {
            let client = client(&args.workload, &icm, &mut rng, model_seed(args.seed, k));
            Tenant { icm, client }
        })
        .collect();

    let mut all = Loop::default();
    for (k, tenant) in tenants.iter_mut().enumerate() {
        for batch in tenant.client.warmup() {
            let outcomes = engine.execute_batch(&tenant.icm, &batch.queries);
            all.absorb(k, &batch, outcomes);
        }
    }

    let workers = crate::workers();
    let mut layers = None;
    let mut turn = 0;
    let timed = if args.trace {
        // Untraced half, then the traced half with the recorder on.
        let half = args.seconds / 2.0;
        let untraced = closed_loop(
            &mut engine,
            &mut tenants,
            &mut turn,
            half,
            &Tracer::default(),
            &mut all,
        );
        let log = Arc::new(SpanLog::new());
        let before = engine.stats();
        let traced = {
            let _guard = flow_obs::ScopedRecorder::install(log.clone());
            let tracer = Tracer::traced(log.clone());
            closed_loop(
                &mut engine,
                &mut tenants,
                &mut turn,
                half,
                &tracer,
                &mut all,
            )
        };
        let after = engine.stats();
        let counts = PhaseCounts {
            workers,
            queries: after.queries - before.queries,
            answered: after.answered - before.answered,
            cache_hits: after.cache_hits - before.cache_hits,
            fresh: after.fresh - before.fresh,
            refined: after.refined - before.refined,
            plans: after.plans - before.plans,
            steps: after.steps - before.steps,
            untraced_batch_ms: mean(&untraced.batch_ms),
            traced_batch_ms: mean(&traced.batch_ms),
            ..Default::default()
        };
        layers = Some((log, counts));
        traced
    } else {
        closed_loop(
            &mut engine,
            &mut tenants,
            &mut turn,
            args.seconds,
            &Tracer::default(),
            &mut all,
        )
    };
    let peak_rss_mb = crate::stats::peak_rss_mb();

    // Determinism: answers to one canonical question with the same
    // sample count are bit-identical however they were asked (solo,
    // grouped, reordered conditions, from cache).
    let mut by_samples: BTreeMap<(Tag, u64), u64> = BTreeMap::new();
    for (tag, a) in &all.answers {
        let bits = a.estimate.to_bits();
        if *by_samples.entry((*tag, a.samples)).or_insert(bits) != bits {
            problems.push(format!(
                "question {tag:?}: two answers at {} samples differ (canonicalization or determinism broken)",
                a.samples
            ));
        }
    }
    if args.workload == "cold-flow" && engine.stats().cache_hits > 0 {
        problems.push("cold-flow repeated a canonical key (cache hit)".into());
    }

    // Accuracy over distinct answers against the oracle.
    // (tag, samples, estimate bits) -> (estimate, half-width)
    let mut distinct: BTreeMap<(Tag, u64, u64), (f64, f64)> = BTreeMap::new();
    for (tag, a) in &all.answers {
        distinct.insert(
            (*tag, a.samples, a.estimate.to_bits()),
            (a.estimate, a.half_width),
        );
    }
    if distinct.len() > VERIFY_CAP {
        let stride = distinct.len().div_ceil(VERIFY_CAP);
        distinct = distinct
            .into_iter()
            .enumerate()
            .filter(|(k, _)| k % stride == 0)
            .map(|(_, e)| e)
            .collect();
    }
    let mut accuracy = Accuracy::default();
    for (k, tenant) in tenants.iter().enumerate() {
        let mut used: Vec<usize> = distinct
            .keys()
            .filter(|d| d.0 .0 == k)
            .map(|d| d.0 .1)
            .collect();
        used.dedup();
        let questions: Vec<FlowQuery> = used
            .iter()
            .map(|&r| tenant.client.reference_queries()[r].clone())
            .collect();
        for q in &questions {
            for c in &q.conditions {
                if !path_exists(tenant.icm.graph(), c.source, c.sink) {
                    problems.push(format!("infeasible condition {c:?}"));
                }
            }
        }
        let refs = references(
            &tenant.icm,
            &questions,
            REFERENCE_STATES,
            model_seed(args.seed, k) ^ 0x0ac1e,
        );
        let ref_of: BTreeMap<usize, _> = used.iter().copied().zip(refs).collect();
        for (((_, r), _, _), (est, hw)) in distinct.iter().filter(|(d, _)| d.0 .0 == k) {
            let reference = ref_of[r];
            accuracy.score(
                &format!("model {k} question {r}"),
                *est,
                *hw,
                reference.estimate,
                reference.std_err(),
            );
        }
    }

    Run {
        setup_s: median(&setup_s),
        answers_per_s: timed.answers.len() as f64 / timed.wall_s,
        answers_per_cpu_s: timed.answers.len() as f64
            / (timed.batch_cpu_ms.iter().sum::<f64>() / 1e3),
        batch_ms: timed.batch_ms.clone(),
        event_to_answer_ms: timed.batch_ms,
        batch_cpu_ms: timed.batch_cpu_ms.clone(),
        event_to_answer_cpu_ms: timed.batch_cpu_ms,
        accuracy,
        peak_rss_mb,
        attempted: all.attempted,
        failed: all.failed,
        problems,
        layers,
    }
}
