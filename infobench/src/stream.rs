//! `stream-sharded`: evidence events in, changed answers out.
//!
//! An open loop: event lines fall due on a fixed schedule
//! ([`LINES_PER_SECOND`]) whatever the system does, and each is pushed
//! through `Ingestor::push_line` when due (or as soon after as the
//! single client thread gets to it). Every epoch is a fixed number of
//! cascades simulated on a 4-community supercritical model, all but
//! one in the epoch's home community, and ends with
//! `Ingestor::seal_epoch` → `ModelRegistry::seal_epoch` (apply plus
//! snapshot) → `swap_into` a `shards(4)` engine → one watch-list batch
//! (the same questions every epoch, one source per community). Two
//! communities change per epoch, so the other two shards are reused
//! with their caches warm. One late and one duplicate line are
//! injected per epoch and must be the only lines rejected.

use crate::oracle::{reach_probabilities, references};
use crate::serve::{weakly_connected, TARGET_BAND};
use crate::stats::{median, process_cpu_ms, Accuracy};
use crate::trace::{PhaseCounts, SpanLog, Tracer};
use crate::{build_engine, out_dir, Args, Run};
use flow_core::FlowError;
use flow_graph::{generate::uniform_edges, DiGraph, GraphBuilder, NodeId};
use flow_icm::Icm;
use flow_learn::summary::TimingAssumption;
use flow_serve::{Answer, FlowQuery, QueryOutcome, ServeEngine, SharedTarget};
use flow_stream::{IngestConfig, Ingestor, ModelRegistry, SnapshotStore, StreamModel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const COMMUNITIES: usize = 4;
const EDGES_PER_COMMUNITY: usize = 240;
/// Mean out-degree 4, as in the serving fixture.
const NODES_PER_COMMUNITY: usize = EDGES_PER_COMMUNITY / 4;
/// Set-ups per run; `setup_s` is the median of their CPU times.
const SETUPS: usize = 15;
/// Cascades per community learned during set-up, so the served model
/// starts near the generating one instead of at the uniform prior.
const HISTORY_CASCADES: usize = 40;
/// Cascades per epoch: all but one fall in the home community.
const CASCADES_PER_EPOCH: usize = 8;
/// The open loop's schedule: epoch `e` opens at `e * EPOCH_PERIOD_S`
/// and its lines fall due `1 / LINES_PER_SECOND` apart from then on.
/// Both are fixed whatever the system does; the seed code finishes an
/// epoch (ingest, seal, swap, re-serve) in well under one period.
pub const EPOCH_PERIOD_S: f64 = 0.08;
pub const LINES_PER_SECOND: f64 = 4_000.0;
const WATCH_SINKS: usize = 8;
const COMMUNITY_SIZE: usize = 3;
const TOLERANCE: f64 = 0.05;
const REFERENCE_STATES: usize = 10_000;
const PILOT_STATES: usize = 2_000;

/// What pushing a line must do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Expect {
    Accept,
    Reject(&'static str),
}

struct Line {
    text: String,
    expect: Expect,
}

/// The generating model: `COMMUNITIES` disjoint connected
/// supercritical communities on contiguous node ranges.
fn community_icm(rng: &mut StdRng) -> Icm {
    let mut b = GraphBuilder::new(NODES_PER_COMMUNITY * COMMUNITIES);
    for c in 0..COMMUNITIES {
        let sub = loop {
            let g = uniform_edges(rng, NODES_PER_COMMUNITY, EDGES_PER_COMMUNITY);
            if weakly_connected(&g) {
                break g;
            }
        };
        let base = (c * NODES_PER_COMMUNITY) as u32;
        for e in sub.edges() {
            let (u, v) = sub.endpoints(e);
            b.add_edge(NodeId(base + u.0), NodeId(base + v.0))
                .expect("community edges are unique and in range");
        }
    }
    let graph = b.build();
    let probs = (0..graph.edge_count())
        .map(|_| rng.random_range(0.05..0.6))
        .collect();
    Icm::new(graph, probs)
}

fn community_of(v: NodeId) -> usize {
    v.index() / NODES_PER_COMMUNITY
}

/// One simulated cascade as event lines: BFS layers give the times,
/// and attributed cascades name each activation's parent.
fn cascade_lines(icm: &Icm, rng: &mut StdRng, id: u64, community: usize) -> Vec<String> {
    let g = icm.graph();
    let base = (community * NODES_PER_COMMUNITY) as u32;
    let source = NodeId(base + rng.random_range(0..NODES_PER_COMMUNITY as u32));
    let attributed = rng.random_bool(0.5);
    let mut time = vec![None; g.node_count()];
    time[source.index()] = Some(0u32);
    let mut lines = vec![format!(
        r#"{{"cascade": {id}, "node": {}, "t": 0}}"#,
        source.0
    )];
    let mut frontier = vec![source];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for u in frontier {
            let t = time[u.index()].unwrap_or(0) + 1;
            for &e in g.out_edges(u) {
                let v = g.dst(e);
                if time[v.index()].is_some() || !rng.random_bool(icm.probability(e)) {
                    continue;
                }
                time[v.index()] = Some(t);
                next.push(v);
                lines.push(if attributed {
                    format!(
                        r#"{{"cascade": {id}, "node": {}, "t": {t}, "parent": {}}}"#,
                        v.0, u.0
                    )
                } else {
                    format!(r#"{{"cascade": {id}, "node": {}, "t": {t}}}"#, v.0)
                });
            }
        }
        frontier = next;
    }
    lines
}

/// Generates the event log: `history` (learned during set-up) and the
/// timed epochs, with one late and one duplicate line per epoch.
struct Generator {
    rng: StdRng,
    next_cascade: u64,
    previous: Vec<String>,
}

impl Generator {
    fn history(&mut self, truth: &Icm) -> Vec<String> {
        let mut lines = Vec::new();
        for _ in 0..HISTORY_CASCADES {
            for c in 0..COMMUNITIES {
                lines.extend(cascade_lines(truth, &mut self.rng, self.next_cascade, c));
                self.next_cascade += 1;
            }
        }
        self.previous = lines.clone();
        lines
    }

    fn epoch(&mut self, truth: &Icm, index: usize) -> Vec<Line> {
        let home = index % COMMUNITIES;
        let stray = (home + 1) % COMMUNITIES;
        let mut lines: Vec<Line> = Vec::new();
        for k in 0..CASCADES_PER_EPOCH {
            let c = if k + 1 == CASCADES_PER_EPOCH {
                stray
            } else {
                home
            };
            for text in cascade_lines(truth, &mut self.rng, self.next_cascade, c) {
                lines.push(Line {
                    text,
                    expect: Expect::Accept,
                });
            }
            self.next_cascade += 1;
        }
        let accepted: Vec<String> = lines.iter().map(|l| l.text.clone()).collect();
        // A duplicate of an accepted line, placed after its original.
        let original = self.rng.random_range(0..lines.len());
        let at = self.rng.random_range(original + 1..=lines.len());
        let dup = lines[original].text.clone();
        lines.insert(
            at,
            Line {
                text: dup,
                expect: Expect::Reject("duplicate"),
            },
        );
        // A straggler from a cascade sealed into the previous epoch.
        if let Some(late) = self.previous.choose(&mut self.rng).cloned() {
            let at = self.rng.random_range(0..=lines.len());
            lines.insert(
                at,
                Line {
                    text: late,
                    expect: Expect::Reject("late"),
                },
            );
        }
        self.previous = accepted;
        lines
    }
}

/// Per community: its edges (global ids, in graph order) and the
/// local graph the oracle samples.
struct CommunityView {
    edges: Vec<flow_graph::EdgeId>,
    local: DiGraph,
}

fn community_views(g: &DiGraph) -> Vec<CommunityView> {
    (0..COMMUNITIES)
        .map(|c| {
            let base = (c * NODES_PER_COMMUNITY) as u32;
            let edges: Vec<_> = g.edges().filter(|&e| community_of(g.src(e)) == c).collect();
            let mut b = GraphBuilder::new(NODES_PER_COMMUNITY);
            for &e in &edges {
                let (u, v) = g.endpoints(e);
                b.add_edge(NodeId(u.0 - base), NodeId(v.0 - base))
                    .expect("community edges are unique and local");
            }
            CommunityView {
                edges,
                local: b.build(),
            }
        })
        .collect()
}

/// The watch list: per community, one source with five sinks and one
/// 3-member community, all reached with moderate probability under the
/// generating model, so each community's questions share one chain on
/// one shard and no answer is trivially 0.
fn watch_list(truth: &Icm, rng: &mut StdRng, seed: u64) -> Vec<FlowQuery> {
    let mut out = Vec::new();
    for c in 0..COMMUNITIES {
        let base = (c * NODES_PER_COMMUNITY) as u32;
        let mut nodes: Vec<NodeId> = (0..NODES_PER_COMMUNITY as u32)
            .map(|i| NodeId(base + i))
            .collect();
        nodes.shuffle(rng);
        let marginals = reach_probabilities(truth, &nodes, PILOT_STATES, seed ^ c as u64);
        let (source, mut sinks) = nodes
            .iter()
            .zip(&marginals)
            .map(|(&s, row)| {
                let sinks: Vec<NodeId> = row
                    .iter()
                    .enumerate()
                    .filter(|&(v, &p)| v != s.index() && p >= TARGET_BAND.0 && p <= TARGET_BAND.1)
                    .map(|(v, _)| NodeId(v as u32))
                    .collect();
                (s, sinks)
            })
            .find(|(_, sinks)| sinks.len() >= WATCH_SINKS + COMMUNITY_SIZE)
            .expect("a connected supercritical community has a well-connected node");
        sinks.shuffle(rng);
        for &t in sinks.iter().take(WATCH_SINKS) {
            out.push(FlowQuery::flow(source, t));
        }
        let mut members: Vec<NodeId> = sinks[WATCH_SINKS..WATCH_SINKS + COMMUNITY_SIZE].to_vec();
        members.sort_by_key(|v| v.0);
        let mut q = FlowQuery::flow(source, source);
        q.target = SharedTarget::Community(members);
        out.push(q);
    }
    out
}

/// Everything the set-up builds.
struct Served {
    ingest: Ingestor,
    registry: ModelRegistry,
    engine: ServeEngine,
}

fn set_up(seed: u64, history: &[String], store: &std::path::Path) -> Result<Served, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let truth = community_icm(&mut rng);
    let graph = truth.graph().clone();
    let mut ingest = Ingestor::with_graph(graph.clone(), IngestConfig::default());
    for (i, line) in history.iter().enumerate() {
        ingest
            .push_line(i + 1, line)
            .map_err(|e| format!("history line {} rejected: {e}", i + 1))?;
    }
    let delta = ingest.seal_epoch();
    let mut registry = ModelRegistry::new(
        StreamModel::new(graph, TimingAssumption::AnyEarlier),
        Some(SnapshotStore::new(store)),
    );
    registry
        .seal_epoch(&delta)
        .map_err(|e| format!("history seal failed: {e}"))?;
    let mut engine = build_engine(seed, TOLERANCE, None, COMMUNITIES as u32);
    registry.swap_into(&mut engine);
    Ok(Served {
        ingest,
        registry,
        engine,
    })
}

/// `(community, fingerprint of its edge probabilities)`.
type Version = (usize, u64);

fn fingerprint(probs: &[f64]) -> u64 {
    probs.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, p| {
        (h ^ p.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Spins until `due`. Spinning, not sleeping, keeps the client's
/// wake-up latency out of the lag and the core out of idle states.
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// The open loop's running state.
#[derive(Default)]
struct Tally {
    batch_ms: Vec<f64>,
    event_to_answer_ms: Vec<f64>,
    batch_cpu_ms: Vec<f64>,
    event_to_answer_cpu_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    answers: u64,
    /// Process CPU time inside the program's calls (pushes, seals,
    /// swap, re-serve), not in the client's waits between lines.
    work_cpu_ms: f64,
    queries: u64,
    lines: u64,
    failed: u64,
    reused: u64,
    swaps: u64,
    invalidated: Vec<f64>,
}

fn shard_queries(engine: &ServeEngine) -> u64 {
    engine.shard_stats().iter().map(|s| s.queries).sum()
}

pub fn run(args: &Args) -> Run {
    let mut problems: Vec<String> = Vec::new();
    let store_dir = out_dir().join(format!("snapshots-{}-{}", args.seed, std::process::id()));

    // Inputs: the event log, a pure function of the seed.
    let mut gen_rng = StdRng::seed_from_u64(args.seed);
    let truth = community_icm(&mut gen_rng);
    let mut generator = Generator {
        rng: StdRng::seed_from_u64(args.seed ^ 0x57ea),
        next_cascade: 1,
        previous: Vec::new(),
    };
    let history = generator.history(&truth);
    let epoch_count = (args.seconds / EPOCH_PERIOD_S).ceil() as usize;
    let epochs: Vec<Vec<Line>> = (0..epoch_count)
        .map(|e| generator.epoch(&truth, e))
        .collect();
    let watch = watch_list(
        &truth,
        &mut StdRng::seed_from_u64(args.seed ^ 0x3a7c),
        args.seed,
    );
    let views = community_views(truth.graph());

    // Set-up: model (history learned), engine, partition, initial swap.
    let mut setup_s = Vec::new();
    let mut served = None;
    for _ in 0..SETUPS {
        let _ = std::fs::remove_dir_all(&store_dir);
        let t = process_cpu_ms();
        let s = set_up(args.seed, &history, &store_dir);
        setup_s.push((process_cpu_ms() - t) / 1e3);
        served = Some(s);
    }
    let Served {
        mut ingest,
        mut registry,
        mut engine,
    } = match served.expect("at least one set-up ran") {
        Ok(s) => s,
        Err(e) => {
            problems.push(e);
            return failed_run(problems);
        }
    };
    // Warm every shard once on the initial model (untimed).
    let icm0 = registry.model().serving_icm();
    let warm = engine.execute_batch(&icm0, &watch);
    let mut tally = Tally::default();
    tally.queries += watch.len() as u64;
    tally.failed += warm.iter().filter(|o| !clean(o)).count() as u64;

    let mut accepted_lines: Vec<String> = history.clone();
    let mut line_no = history.len();
    // Distinct answers: (watch index, community fingerprint, samples,
    // estimate bits) -> (estimate, half-width), plus each community
    // version's probabilities for the oracle.
    let mut distinct: BTreeMap<(usize, u64, u64, u64), (f64, f64)> = BTreeMap::new();
    let mut versions: BTreeMap<Version, Vec<f64>> = BTreeMap::new();
    let mut last_answers: Vec<QueryOutcome> = warm;

    let half = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let t0 = Instant::now();
    let mut log: Option<Arc<SpanLog>> = None;
    let mut guard = None;
    let mut tracer = Tracer::default();
    let mut phase_start = (engine.stats(), 0usize, 0usize, 0usize);
    let mut untraced_batch_ms = 0.0;
    for (e, lines) in epochs.iter().enumerate() {
        let opens = e as f64 * EPOCH_PERIOD_S;
        if args.trace && log.is_none() && opens >= half {
            untraced_batch_ms = mean(&tally.batch_ms);
            let l = Arc::new(SpanLog::new());
            guard = Some(flow_obs::ScopedRecorder::install(l.clone()));
            tracer = Tracer::traced(l.clone());
            log = Some(l);
            phase_start = (
                engine.stats(),
                tally.batch_ms.len(),
                tally.lag_ms.len(),
                tally.invalidated.len(),
            );
        }
        let mut last_due = t0;
        let mut last_push_cpu = 0.0;
        for (k, line) in lines.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(opens + k as f64 / LINES_PER_SECOND);
            wait_until(due);
            last_due = due;
            last_push_cpu = process_cpu_ms();
            tally.lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
            line_no += 1;
            let result = tracer.span("push_line", || ingest.push_line(line_no, &line.text));
            tally.work_cpu_ms += process_cpu_ms() - last_push_cpu;
            match (line.expect, result) {
                (Expect::Accept, Ok(_)) => {
                    tally.lines += 1;
                    accepted_lines.push(line.text.clone());
                }
                (Expect::Accept, Err(e)) => {
                    tally.lines += 1;
                    tally.failed += 1;
                    problems.push(format!("valid line {line_no} rejected: {e}"));
                }
                (Expect::Reject(want), Err(FlowError::RejectedEvent { reason, .. }))
                    if reason == want => {}
                (Expect::Reject(want), other) => {
                    problems.push(format!(
                        "injected {want} line {line_no} was not rejected as such: {other:?}"
                    ));
                }
            }
        }
        let after_ingest_cpu = process_cpu_ms();
        let delta = tracer.span("ingest_seal_epoch", || ingest.seal_epoch());
        if let Err(e) = tracer.span("registry_seal_epoch", || registry.seal_epoch(&delta)) {
            problems.push(format!("epoch seal failed: {e}"));
            break;
        }
        let swap = tracer.span("swap_into", || registry.swap_into(&mut engine));
        tally.invalidated.push(swap.invalidated as f64);
        tally.swaps += 1;
        tally.reused += engine
            .shard_stats()
            .iter()
            .filter(|s| s.queries > 0)
            .count() as u64;
        let icm = tracer.span("serving_icm", || registry.model().serving_icm());
        let routed_before = shard_queries(&engine);
        let cpu = process_cpu_ms();
        let t = Instant::now();
        let outcomes = tracer.span("execute_batch", || engine.execute_batch(&icm, &watch));
        let done = Instant::now();
        let done_cpu = process_cpu_ms();
        tally.batch_ms.push((done - t).as_secs_f64() * 1e3);
        tally
            .event_to_answer_ms
            .push((done - last_due).as_secs_f64() * 1e3);
        tally.batch_cpu_ms.push(done_cpu - cpu);
        tally.event_to_answer_cpu_ms.push(done_cpu - last_push_cpu);
        tally.work_cpu_ms += done_cpu - after_ingest_cpu;
        if shard_queries(&engine) - routed_before != watch.len() as u64 {
            problems.push("a watch-list query was not routed to a single shard".into());
        }
        tally.queries += watch.len() as u64;
        let probs = icm.probabilities();
        let fps: Vec<u64> = views
            .iter()
            .enumerate()
            .map(|(c, view)| {
                let p: Vec<f64> = view.edges.iter().map(|e| probs[e.index()]).collect();
                let fp = fingerprint(&p);
                versions.entry((c, fp)).or_insert(p);
                fp
            })
            .collect();
        for (i, o) in outcomes.iter().enumerate() {
            if !clean(o) {
                tally.failed += 1;
            }
            if let QueryOutcome::Answered(a) = o {
                tally.answers += 1;
                let fp = fps[community_of(watch[i].source)];
                distinct.insert(
                    (i, fp, a.samples, a.estimate.to_bits()),
                    (a.estimate, a.half_width),
                );
            }
        }
        last_answers = outcomes;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    drop(guard);
    let peak_rss_mb = crate::stats::peak_rss_mb();

    // End state 1: incremental learning equals one batch apply of the
    // union of every accepted line.
    let graph = truth.graph().clone();
    let mut union = Ingestor::with_graph(graph.clone(), IngestConfig::default());
    for (i, line) in accepted_lines.iter().enumerate() {
        if let Err(e) = union.push_line(i + 1, line) {
            problems.push(format!(
                "union replay rejected accepted line {}: {e}",
                i + 1
            ));
        }
    }
    let mut batch_model = StreamModel::new(graph, TimingAssumption::AnyEarlier);
    if let Err(e) = batch_model.apply(&union.seal_epoch()) {
        problems.push(format!("batch apply failed: {e}"));
    }
    if batch_model.serve_fingerprint() != registry.model().serve_fingerprint() {
        problems.push(
            "incremental model's serve fingerprint differs from the batch apply of the union"
                .into(),
        );
    }
    // End state 2: a fresh engine on the newest snapshot answers the
    // watch list byte-identically to the live engine's last batch.
    match SnapshotStore::new(&store_dir).load_latest() {
        Ok(Some((_, model))) => {
            let icm = model.serving_icm();
            let mut fresh = build_engine(args.seed, TOLERANCE, None, COMMUNITIES as u32);
            fresh.install_model_icm(&icm);
            let again = fresh.execute_batch(&icm, &watch);
            if answer_bits(&again) != answer_bits(&last_answers) {
                problems.push("fresh engine on the latest snapshot answers differently".into());
            }
        }
        other => problems.push(format!("no snapshot to recover: {other:?}")),
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    // End state 3: shard-granular swaps keep untouched shards.
    if tally.reused < tally.swaps {
        problems.push(format!(
            "{} shards reused over {} swaps: fewer than one per swap",
            tally.reused, tally.swaps
        ));
    }

    // Accuracy of every distinct answer against its community version.
    let mut accuracy = Accuracy::default();
    // (community, version) -> [(watch index, estimate, half-width)]
    let mut by_version: BTreeMap<Version, Vec<(usize, f64, f64)>> = BTreeMap::new();
    for ((i, fp, _, _), (est, hw)) in &distinct {
        by_version
            .entry((community_of(watch[*i].source), *fp))
            .or_default()
            .push((*i, *est, *hw));
    }
    let local = |q: &FlowQuery, base: u32| -> FlowQuery {
        let mut l = q.clone();
        l.source = NodeId(q.source.0 - base);
        l.target = match &q.target {
            SharedTarget::Sink(t) => SharedTarget::Sink(NodeId(t.0 - base)),
            SharedTarget::Community(m) => {
                SharedTarget::Community(m.iter().map(|v| NodeId(v.0 - base)).collect())
            }
        };
        l
    };
    for ((c, fp), answers) in &by_version {
        let base = (c * NODES_PER_COMMUNITY) as u32;
        let sub = Icm::new(views[*c].local.clone(), versions[&(*c, *fp)].clone());
        let mut ids: Vec<usize> = answers.iter().map(|a| a.0).collect();
        ids.dedup();
        let questions: Vec<FlowQuery> = ids.iter().map(|&i| local(&watch[i], base)).collect();
        let refs = references(&sub, &questions, REFERENCE_STATES, args.seed ^ fp);
        for (i, est, hw) in answers {
            let Some(k) = ids.iter().position(|x| x == i) else {
                continue;
            };
            accuracy.score(
                &format!("watch {i} on community {c} version {fp:016x}"),
                *est,
                *hw,
                refs[k].estimate,
                refs[k].std_err(),
            );
        }
    }

    let layers = log.map(|log| {
        let now = engine.stats();
        let (before, batches, lags, swaps) = phase_start;
        let counts = PhaseCounts {
            workers: crate::workers(),
            queries: now.queries - before.queries,
            answered: now.answered - before.answered,
            cache_hits: now.cache_hits - before.cache_hits,
            fresh: now.fresh - before.fresh,
            refined: now.refined - before.refined,
            plans: now.plans - before.plans,
            steps: now.steps - before.steps,
            lines: tally.lag_ms.len().saturating_sub(lags) as u64,
            invalidated: tally.invalidated[swaps..].to_vec(),
            ingest_lag_ms: tally.lag_ms[lags..].to_vec(),
            untraced_batch_ms,
            traced_batch_ms: mean(&tally.batch_ms[batches..]),
        };
        (log, counts)
    });

    Run {
        setup_s: median(&setup_s),
        answers_per_s: tally.answers as f64 / wall_s,
        answers_per_cpu_s: tally.answers as f64 / (tally.work_cpu_ms / 1e3),
        batch_ms: tally.batch_ms,
        event_to_answer_ms: tally.event_to_answer_ms,
        batch_cpu_ms: tally.batch_cpu_ms,
        event_to_answer_cpu_ms: tally.event_to_answer_cpu_ms,
        accuracy,
        peak_rss_mb,
        attempted: tally.queries + tally.lines,
        failed: tally.failed,
        problems,
        layers,
    }
}

fn clean(o: &QueryOutcome) -> bool {
    matches!(o, QueryOutcome::Answered(a) if a.degradation.is_empty())
}

fn answer_bits(outcomes: &[QueryOutcome]) -> Vec<Option<(u64, u64, u64)>> {
    outcomes
        .iter()
        .map(|o| match o {
            QueryOutcome::Answered(Answer {
                estimate,
                half_width,
                samples,
                ..
            }) => Some((estimate.to_bits(), half_width.to_bits(), *samples)),
            _ => None,
        })
        .collect()
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn failed_run(problems: Vec<String>) -> Run {
    Run {
        setup_s: 0.0,
        answers_per_s: 0.0,
        answers_per_cpu_s: 0.0,
        batch_ms: Vec::new(),
        event_to_answer_ms: Vec::new(),
        batch_cpu_ms: Vec::new(),
        event_to_answer_cpu_ms: Vec::new(),
        accuracy: Accuracy::default(),
        peak_rss_mb: 0.0,
        attempted: 1,
        failed: 1,
        problems,
        layers: None,
    }
}
