//! Pinned outputs of every pseudo-state chain entry point.
//!
//! Every estimator in this crate runs the paper's burn-in → thin →
//! observe protocol over a `PseudoStateSampler`. These tests pin, bit
//! for bit, what each entry point returns on a seeded model, plus the
//! telemetry it emits: every event in order, and every counter flush
//! with its delta. Counters flush once per `run` / `try_run` call, so
//! the flush log also pins how each chain is sliced into calls.
//!
//! The model has m = 12 edges, so the default protocol burns in 500
//! steps and thins every 12: burn-in is not a multiple of the thinning
//! interval, and the interval is below the 64-step block that
//! `shared_chain_flows` uses for burn-in. The step budgets below sit on
//! the edges of those slicings.
//!
//! Values are `f64::to_bits()` words, counts, and FNV-1a digests of the
//! `Debug` rendering of larger outputs (Rust's float `Debug` output
//! round-trips, so a digest changes iff some bit does).

use std::sync::{Arc, Mutex};
use std::time::Duration;

use flow_graph::graph::graph_from_edges;
use flow_graph::NodeId;
use flow_icm::{FlowCondition, Icm};
use flow_mcmc::{
    multi_chain_flow, multi_chain_flow_guarded, shared_chain_flows, ChainCheckpoint, DelayModel,
    FlowEstimator, McmcConfig, RunBudget, SharedChainOutcome, SharedChainRequest, SharedTarget,
    TimedFlowEstimator,
};
use flow_obs::{Event, Recorder, ScopedRecorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A 7-node, 12-edge model with a cycle back to the source.
fn model() -> Icm {
    let edges = [
        (0, 1),
        (0, 2),
        (1, 2),
        (1, 3),
        (2, 4),
        (3, 5),
        (4, 5),
        (2, 3),
        (5, 6),
        (4, 6),
        (3, 1),
        (6, 0),
    ];
    let probs = vec![
        0.6, 0.5, 0.3, 0.7, 0.6, 0.5, 0.4, 0.35, 0.65, 0.3, 0.25, 0.2,
    ];
    Icm::new(graph_from_edges(7, &edges), probs)
}

fn config(samples: usize) -> McmcConfig {
    McmcConfig {
        samples,
        ..Default::default()
    }
}

fn conditions() -> Vec<FlowCondition> {
    vec![
        FlowCondition::requires(NodeId(0), NodeId(3)),
        FlowCondition::forbids(NodeId(2), NodeId(6)),
    ]
}

/// Records every event and metric call, in order, as text.
#[derive(Default)]
struct Log(Mutex<Vec<String>>);

impl Log {
    fn push(&self, line: String) {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).push(line);
    }
}

impl Recorder for Log {
    fn event(&self, event: &Event) {
        self.push(format!("{event:?}"));
    }
    fn counter(&self, name: &'static str, delta: u64) {
        self.push(format!("counter {name} {delta}"));
    }
    fn gauge(&self, name: &'static str, value: f64) {
        self.push(format!("gauge {name} {value:?}"));
    }
    fn histogram(&self, name: &'static str, value: f64) {
        self.push(format!("histogram {name} {value:?}"));
    }
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn digest<T: std::fmt::Debug>(value: &T) -> u64 {
    fnv(&format!("{value:?}"))
}

/// Runs `f` under a recording sink; returns its output plus the
/// telemetry log's line count and digest.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Vec<(&'static str, u64)>) {
    let log = Arc::new(Log::default());
    let out = {
        let _r = ScopedRecorder::install(log.clone());
        f()
    };
    let lines = log.0.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let pins = vec![
        ("telemetry_lines", lines.len() as u64),
        ("telemetry", fnv(&lines.join("\n"))),
    ];
    (out, pins)
}

/// Compares the pinned values, printing the full actual table on a
/// mismatch so a deliberate change can be re-pinned by pasting it.
fn check(case: &str, got: &[(&str, u64)], want: &[(&str, u64)]) {
    if got != want {
        let table: String = got
            .iter()
            .map(|(k, v)| format!("        (\"{k}\", {v:#x}),\n"))
            .collect();
        panic!("{case}: pinned outputs drifted; actual:\n{table}");
    }
}

fn shared_pins(out: &SharedChainOutcome) -> Vec<(&'static str, u64)> {
    vec![
        ("samples_done", out.samples_done as u64),
        ("steps", out.steps),
        ("counts", digest(&out.counts)),
        ("degradation", digest(&out.degradation)),
        ("checkpoint", digest(&out.checkpoint)),
    ]
}

fn shared_request<'a>(
    targets: &'a [SharedTarget],
    conditions: &'a [FlowCondition],
    warm: Option<&'a ChainCheckpoint>,
    max_steps: Option<u64>,
    deadline: Option<Duration>,
) -> SharedChainRequest<'a> {
    SharedChainRequest {
        source: NodeId(0),
        targets,
        conditions,
        seed: 21,
        warm,
        samples: 150,
        max_steps,
        deadline,
    }
}

fn targets() -> Vec<SharedTarget> {
    vec![
        SharedTarget::Sink(NodeId(3)),
        SharedTarget::Sink(NodeId(6)),
        SharedTarget::Community(vec![NodeId(3), NodeId(4), NodeId(5)]),
    ]
}

fn run_shared(
    conditions: &[FlowCondition],
    warm: Option<&ChainCheckpoint>,
    max_steps: Option<u64>,
    deadline: Option<Duration>,
) -> (SharedChainOutcome, Vec<(&'static str, u64)>) {
    let icm = model();
    let targets = targets();
    let req = shared_request(&targets, conditions, warm, max_steps, deadline);
    let (out, mut pins) = traced(|| shared_chain_flows(&icm, &config(150), &req));
    let out = out.expect("shared chain runs");
    let mut all = shared_pins(&out);
    all.append(&mut pins);
    (out, all)
}

#[test]
fn estimate_flows_from_is_pinned() {
    let icm = model();
    let (est, mut pins) = traced(|| {
        let mut rng = StdRng::seed_from_u64(1);
        FlowEstimator::new(&icm, config(300)).estimate_flows_from(
            NodeId(0),
            &[NodeId(3), NodeId(5), NodeId(6), NodeId(0)],
            &mut rng,
        )
    });
    let mut got: Vec<(&str, u64)> = vec![
        ("sink3", est[0].to_bits()),
        ("sink5", est[1].to_bits()),
        ("sink6", est[2].to_bits()),
        ("self", est[3].to_bits()),
    ];
    got.append(&mut pins);
    check(
        "estimate_flows_from",
        &got,
        &[
            ("sink3", 0x3fe06d3a06d3a06d),
            ("sink5", 0x3fd740da740da741),
            ("sink6", 0x3fd0da740da740da),
            ("self", 0x0),
            ("telemetry_lines", 0x326),
            ("telemetry", 0x99712d50a9bcc8c0),
        ],
    );
}

#[test]
fn estimate_conditional_flows_from_is_pinned() {
    let icm = model();
    let (est, mut pins) = traced(|| {
        let mut rng = StdRng::seed_from_u64(2);
        FlowEstimator::new(&icm, config(300)).estimate_conditional_flows_from(
            NodeId(0),
            &[NodeId(5), NodeId(6)],
            &conditions(),
            &mut rng,
        )
    });
    let est = est.expect("feasible conditions");
    let mut got: Vec<(&str, u64)> = vec![("sink5", est[0].to_bits()), ("sink6", est[1].to_bits())];
    got.append(&mut pins);
    check(
        "estimate_conditional_flows_from",
        &got,
        &[
            ("sink5", 0x3fde81b4e81b4e82),
            ("sink6", 0x3fcb4e81b4e81b4f),
            ("telemetry_lines", 0x585),
            ("telemetry", 0x85f837cacdd62f30),
        ],
    );
}

#[test]
fn estimate_joint_flow_is_pinned() {
    let icm = model();
    let (est, mut pins) = traced(|| {
        let mut rng = StdRng::seed_from_u64(3);
        FlowEstimator::new(&icm, config(300))
            .estimate_joint_flow(&[(NodeId(0), NodeId(3)), (NodeId(1), NodeId(5))], &mut rng)
    });
    let mut got: Vec<(&str, u64)> = vec![("joint", est.to_bits())];
    got.append(&mut pins);
    check(
        "estimate_joint_flow",
        &got,
        &[
            ("joint", 0x3fd47ae147ae147b),
            ("telemetry_lines", 0x32a),
            ("telemetry", 0xdcc6026b8abf8695),
        ],
    );
}

#[test]
fn estimate_community_flow_is_pinned() {
    let icm = model();
    let (cf, mut pins) = traced(|| {
        let mut rng = StdRng::seed_from_u64(4);
        FlowEstimator::new(&icm, config(300)).estimate_community_flow(
            NodeId(0),
            &[NodeId(3), NodeId(4), NodeId(5)],
            &mut rng,
        )
    });
    let mut got: Vec<(&str, u64)> = vec![
        ("all", cf.all.to_bits()),
        ("any", cf.any.to_bits()),
        ("expected_fraction", cf.expected_fraction.to_bits()),
    ];
    got.append(&mut pins);
    check(
        "estimate_community_flow",
        &got,
        &[
            ("all", 0x3fc5555555555555),
            ("any", 0x3fe3d70a3d70a3d7),
            ("expected_fraction", 0x3fd9d0369d0369d0),
            ("telemetry_lines", 0x32c),
            ("telemetry", 0x1c22d3fbe4f03a96),
        ],
    );
}

#[test]
fn impact_distribution_is_pinned() {
    let icm = model();
    let (impacts, mut pins) = traced(|| {
        let mut rng = StdRng::seed_from_u64(5);
        FlowEstimator::new(&icm, config(300)).impact_distribution(NodeId(0), &mut rng)
    });
    let mut got: Vec<(&str, u64)> = vec![
        ("len", impacts.len() as u64),
        ("sum", impacts.iter().sum::<usize>() as u64),
        ("impacts", digest(&impacts)),
    ];
    got.append(&mut pins);
    check(
        "impact_distribution",
        &got,
        &[
            ("len", 0x12c),
            ("sum", 0x357),
            ("impacts", 0xa09582023288eda6),
            ("telemetry_lines", 0x326),
            ("telemetry", 0x64a344080343d968),
        ],
    );
}

#[test]
fn checkpointed_run_and_every_resume_are_pinned() {
    let icm = model();
    let est = FlowEstimator::new(&icm, config(200));
    let mut checkpoints = Vec::new();
    let (full, mut pins) = traced(|| {
        est.estimate_flow_checkpointed(NodeId(0), NodeId(6), 77, 50, |c| {
            checkpoints.push(c.clone())
        })
    });
    let full = full.expect("checkpointed run");
    let mut got: Vec<(&str, u64)> = vec![
        ("value", full.value().to_bits()),
        ("series", digest(&full.series)),
        ("checkpoints", checkpoints.len() as u64),
        (
            "checkpoint_texts",
            fnv(&checkpoints
                .iter()
                .map(|c| c.to_text())
                .collect::<Vec<_>>()
                .join("\n")),
        ),
    ];
    got.append(&mut pins);
    for ckpt in &checkpoints {
        let (resumed, mut pins) = traced(|| est.resume_from(ckpt));
        let resumed = resumed.expect("resume");
        assert_eq!(
            resumed.series, full.series,
            "resume at {}",
            ckpt.samples_done
        );
        got.push(("resume_at", ckpt.samples_done as u64));
        got.append(&mut pins);
    }
    check(
        "estimate_flow_checkpointed + resume_from",
        &got,
        &[
            ("value", 0x3fd3333333333333),
            ("series", 0xf94746f01440bd81),
            ("checkpoints", 0x3),
            ("checkpoint_texts", 0xd15b8346c62883a1),
            ("telemetry_lines", 0x2f9),
            ("telemetry", 0xc6c62e655efb01bb),
            ("resume_at", 0x32),
            ("telemetry_lines", 0x19b),
            ("telemetry", 0x2b03b2c08a43e907),
            ("resume_at", 0x64),
            ("telemetry_lines", 0x112),
            ("telemetry", 0xe1da2322aa1810bb),
            ("resume_at", 0x96),
            ("telemetry_lines", 0x8a),
            ("telemetry", 0x1b7857031112ee91),
        ],
    );
}

#[test]
fn timed_arrival_times_are_pinned() {
    let icm = model();
    let (at, mut pins) = traced(|| {
        let est =
            TimedFlowEstimator::with_uniform_delay(&icm, DelayModel::Exponential(2.0), config(300));
        let mut rng = StdRng::seed_from_u64(6);
        est.arrival_times(NodeId(0), NodeId(6), &mut rng)
    });
    let mut got: Vec<(&str, u64)> = vec![
        ("flow_probability", at.flow_probability().to_bits()),
        ("samples", digest(&at.samples)),
    ];
    got.append(&mut pins);
    check(
        "arrival_times",
        &got,
        &[
            ("flow_probability", 0x3fd47ae147ae147b),
            ("samples", 0x877fef936db5da13),
            ("telemetry_lines", 0x329),
            ("telemetry", 0x43c2edc746d529a0),
        ],
    );
}

#[test]
fn timed_expected_reach_within_is_pinned() {
    let icm = model();
    let (reach, mut pins) = traced(|| {
        let est = TimedFlowEstimator::with_uniform_delay(
            &icm,
            DelayModel::Uniform(0.5, 1.5),
            config(300),
        );
        let mut rng = StdRng::seed_from_u64(7);
        est.expected_reach_within(NodeId(0), 2.0, &mut rng)
    });
    let mut got: Vec<(&str, u64)> = vec![("reach", reach.to_bits())];
    got.append(&mut pins);
    check(
        "expected_reach_within",
        &got,
        &[
            ("reach", 0x3ffa4b17e4b17e4b),
            ("telemetry_lines", 0x33b),
            ("telemetry", 0xd353be26cd6343d7),
        ],
    );
}

#[test]
fn multi_chain_flow_is_pinned() {
    let icm = model();
    let (est, mut pins) =
        traced(|| multi_chain_flow(&icm, NodeId(0), NodeId(6), config(200), 3, 11, false));
    let mut got: Vec<(&str, u64)> = vec![
        ("estimate", est.estimate().to_bits()),
        ("chains", digest(&est.chains)),
        ("acceptance_rates", digest(&est.acceptance_rates)),
    ];
    got.append(&mut pins);
    check(
        "multi_chain_flow",
        &got,
        &[
            ("estimate", 0x3fd12c5f92c5f92c),
            ("chains", 0x86e6d16567ceb362),
            ("acceptance_rates", 0x5f6c2be13985092c),
            ("telemetry_lines", 0x66a),
            ("telemetry", 0xe3064f7588ae3106),
        ],
    );
}

fn guarded(budget: RunBudget, max_restarts: usize) -> Vec<(&'static str, u64)> {
    let icm = model();
    let (est, mut pins) = traced(|| {
        multi_chain_flow_guarded(
            &icm,
            NodeId(0),
            NodeId(6),
            config(200),
            2,
            19,
            budget,
            max_restarts,
            false,
        )
    });
    let mut got: Vec<(&str, u64)> = vec![
        ("value", est.value.to_bits()),
        ("diagnostics", digest(&est.diagnostics)),
        ("degradation", digest(&est.degradation)),
    ];
    got.append(&mut pins);
    got
}

#[test]
fn guarded_multi_chain_under_budgets_is_pinned() {
    // Unlimited, then a cap 30 samples into sampling.
    check(
        "guarded unlimited",
        &guarded(RunBudget::unlimited(), 1),
        &[
            ("value", 0x3fd2e147ae147ae1),
            ("diagnostics", 0xf449a1f766a0aa0e),
            ("degradation", 0x9612b07b5ecb5a5),
            ("telemetry_lines", 0x50b),
            ("telemetry", 0x5c04a5050c103ef8),
        ],
    );
    check(
        "guarded mid-sampling",
        &guarded(RunBudget::unlimited().with_max_steps(500 + 30 * 12 + 5), 1),
        &[
            ("value", 0x3fd5555555555555),
            ("diagnostics", 0x21fb9723ac9ccdbb),
            ("degradation", 0xea1b1ffa7287244c),
            ("telemetry_lines", 0x17f),
            ("telemetry", 0x2163c059f9ed2970),
        ],
    );
    // Burn-in runs in 12-step slices (41 × 12 = 492, then 8); each
    // check charges a full interval, so a 500-step cap stops at 492.
    check(
        "guarded burn-in tail",
        &guarded(RunBudget::unlimited().with_max_steps(500), 0),
        &[
            ("value", 0x0),
            ("diagnostics", 0xc2ea62fbd1de7fc5),
            ("degradation", 0x94e7a653f1d26ec),
            ("telemetry_lines", 0xe6),
            ("telemetry", 0x4d5899bc1f668d2a),
        ],
    );
    // A zero wall budget is exhausted at the first check.
    check(
        "guarded zero wall",
        &guarded(RunBudget::unlimited().with_max_wall(Duration::ZERO), 0),
        &[
            ("value", 0x0),
            ("diagnostics", 0x5d43aa8a44035491),
            ("degradation", 0x385adb0d10f49472),
            ("telemetry_lines", 0xb),
            ("telemetry", 0x98758aa5fdbf61bc),
        ],
    );
}

#[test]
fn shared_chain_cold_and_warm_are_pinned() {
    let (cold, got) = run_shared(&[], None, None, None);
    check(
        "shared cold",
        &got,
        &[
            ("samples_done", 0x96),
            ("steps", 0x8fc),
            ("counts", 0x6ee1e8fd9444dc8),
            ("degradation", 0x9612b07b5ecb5a5),
            ("checkpoint", 0x21d351de0b5df6a2),
            ("telemetry_lines", 0x1bd),
            ("telemetry", 0xe4f0846c4134e681),
        ],
    );
    let (_, got) = run_shared(&[], Some(&cold.checkpoint), None, None);
    check(
        "shared warm",
        &got,
        &[
            ("samples_done", 0x96),
            ("steps", 0x708),
            ("counts", 0x4017130e788f2ba0),
            ("degradation", 0x9612b07b5ecb5a5),
            ("checkpoint", 0xa2e9a32bfc826da3),
            ("telemetry_lines", 0x1b2),
            ("telemetry", 0x99b58d3b02fb7e43),
        ],
    );
    let (_, got) = run_shared(&conditions(), None, None, None);
    check(
        "shared conditioned",
        &got,
        &[
            ("samples_done", 0x96),
            ("steps", 0x8fc),
            ("counts", 0x6342c07baef7cbd2),
            ("degradation", 0x9612b07b5ecb5a5),
            ("checkpoint", 0x82eb78fc314a7117),
            ("telemetry_lines", 0x307),
            ("telemetry", 0xda202f910c7ee949),
        ],
    );
}

#[test]
fn shared_chain_budget_cuts_are_pinned() {
    // Burn-in runs in 64-step blocks (7 × 64 = 448, then 52).
    let (_, got) = run_shared(&[], None, Some(300), None);
    check(
        "shared cut mid burn-in",
        &got,
        &[
            ("samples_done", 0x0),
            ("steps", 0x100),
            ("counts", 0x81fc9b999967064a),
            ("degradation", 0xb695801fa6d72759),
            ("checkpoint", 0x7b9134f95be7726a),
            ("telemetry_lines", 0x15),
            ("telemetry", 0xdf204ff6bffae1b),
        ],
    );
    // Each block check charges only that block, so a 505-step cap
    // finishes burn-in and stops before the first sample.
    let (_, got) = run_shared(&[], None, Some(505), None);
    check(
        "shared cut at burn-in tail",
        &got,
        &[
            ("samples_done", 0x0),
            ("steps", 0x1f4),
            ("counts", 0x81fc9b999967064a),
            ("degradation", 0xb695801fa6d72759),
            ("checkpoint", 0xc3a43720226a4be1),
            ("telemetry_lines", 0x26),
            ("telemetry", 0xfcb10fdcefa52057),
        ],
    );
    let (_, got) = run_shared(&[], None, Some(500 + 30 * 12 + 7), None);
    check(
        "shared cut mid-sampling",
        &got,
        &[
            ("samples_done", 0x1e),
            ("steps", 0x35c),
            ("counts", 0x6b8a3147b2ce4e1b),
            ("degradation", 0x4cfffe2481fa03ae),
            ("checkpoint", 0xcbd767a66cdcd2c4),
            ("telemetry_lines", 0x76),
            ("telemetry", 0x634bfa576ade72ef),
        ],
    );
    let (_, got) = run_shared(&[], None, None, Some(Duration::ZERO));
    check(
        "shared zero deadline",
        &got,
        &[
            ("samples_done", 0x0),
            ("steps", 0x0),
            ("counts", 0x81fc9b999967064a),
            ("degradation", 0xe3120ef8d163784a),
            ("checkpoint", 0x1d92546369bf9767),
            ("telemetry_lines", 0x7),
            ("telemetry", 0xef848aeef1b98fd4),
        ],
    );
}
