//! `bench_sampler` — the observability overhead baseline.
//!
//! Produces `BENCH_sampler.json` (schema `flow-bench/sampler-v2`, path
//! overridable as the first CLI argument): sampler steps/sec and
//! parallel-estimator wall time with the flow-obs recorder disabled vs
//! enabled, plus a micro-benchmark of the disabled fast path (one
//! relaxed atomic load per call). Two hard acceptance gates (exit 1):
//!
//! * the **enabled**-recorder slowdown of the sampler hot loop stays
//!   within 10% — the hot loop accumulates counters in plain struct
//!   fields and dispatches them once per `run()` batch, so an enabled
//!   recorder costs a handful of dispatched calls per ten thousand
//!   steps, not two per step;
//! * the **disabled**-recorder overhead stays under 5% of step time.
//!
//! The v2 schema separates *counted increments* per step (logical
//! telemetry, ~2/step, unchanged by batching) from *dispatched
//! recorder calls* per step (what actually costs time, ~7 per `run()`
//! batch), so the JSON records both semantics-preserved counting and
//! the real dispatch rate CI ratchets on via `repro perf diff`.
//!
//! The `conditioned` section runs one required-flow and one
//! forbidden-flow chain on a supercritical model and reports how many
//! condition reachability tests the chains ran per proposal that passed
//! the MH test (`condition_checks_per_accept`, deterministic: 1.0 for a
//! check that re-tests every condition, ≈0.5 when only the conditions a
//! flip can break are re-tested, less again when a per-condition memo
//! vouches for most of those flips) plus their ns/step.
//!
//! Wall-clock timing is the entire point of this binary.
#![allow(clippy::disallowed_methods)]

use flow_bench::{scaling_icm, supercritical_icm};
use flow_graph::NodeId;
use flow_icm::{FlowCondition, Icm};
use flow_mcmc::{
    multi_chain_flow_guarded, McmcConfig, ProposalKind, PseudoStateSampler, RunBudget,
};
use flow_obs::{Event, MemorySink, Recorder, ScopedRecorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Edges in the throughput model (Fenwick depth ~11).
const THROUGHPUT_EDGES: usize = 2_000;
/// Edges in the (smaller) parallel-estimator model, so four full
/// burn-in + thinning schedules finish in seconds.
const PARALLEL_EDGES: usize = 200;
/// Retained samples per chain in the parallel benchmark.
const PARALLEL_SAMPLES: usize = 300;
/// Chains in the parallel benchmark.
const PARALLEL_CHAINS: usize = 4;
/// Minimum timed window per throughput measurement.
const MIN_WINDOW_SECS: f64 = 1.5;
/// Iterations for the disabled-call micro-benchmark.
const MICRO_CALLS: u64 = 20_000_000;
/// Edges in the conditioned-chain model (`n = m/4`, supercritical).
const CONDITIONED_EDGES: usize = 600;
/// Steps per conditioned chain.
const CONDITIONED_STEPS: usize = 1_000_000;

/// Runs sampler steps in batches until the timed window is long enough
/// to trust, returning (steps/sec, total steps run).
fn sampler_throughput(icm: &Icm, seed: u64) -> (f64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler = PseudoStateSampler::new(icm, ProposalKind::ResultingActivity, &mut rng);
    sampler.run(20_000, &mut rng); // warm-up: tree caches, branch predictors
    let start = Instant::now();
    let mut steps: u64 = 0;
    loop {
        sampler.run(10_000, &mut rng);
        steps += 10_000;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= MIN_WINDOW_SECS {
            return (steps as f64 / elapsed, steps);
        }
    }
}

/// Times one guarded multi-chain run, returning wall milliseconds.
fn parallel_wall_ms(icm: &Icm, sink_node: NodeId) -> f64 {
    let start = Instant::now();
    let est = multi_chain_flow_guarded(
        icm,
        NodeId(0),
        sink_node,
        McmcConfig {
            samples: PARALLEL_SAMPLES,
            ..Default::default()
        },
        PARALLEL_CHAINS,
        7,
        RunBudget::unlimited(),
        1,
        true,
    );
    let ms = start.elapsed().as_secs_f64() * 1e3;
    // Keep the estimate observable so the whole run cannot fold away.
    assert!(est.value.is_finite());
    ms
}

/// Counts every dispatched recorder invocation — events, counters,
/// gauges, histograms, timings — without storing anything, so the
/// measurement itself stays cheap.
#[derive(Default)]
struct CallCountingSink {
    calls: AtomicU64,
}

impl CallCountingSink {
    fn bump(&self) {
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

impl Recorder for CallCountingSink {
    fn event(&self, _event: &Event) {
        self.bump();
    }
    fn counter(&self, _name: &'static str, _delta: u64) {
        self.bump();
    }
    fn gauge(&self, _name: &'static str, _value: f64) {
        self.bump();
    }
    fn histogram(&self, _name: &'static str, _value: f64) {
        self.bump();
    }
    fn timing(&self, _name: &'static str, _nanos: u64) {
        self.bump();
    }
}

/// Measures how many recorder calls the sampler actually dispatches
/// per step: the hot loop batches its counters, so this is a handful
/// per `run()` invocation rather than ~2 per step.
fn dispatched_calls_per_step(icm: &Icm, seed: u64) -> f64 {
    const STEPS: u64 = 100_000;
    let sink = Arc::new(CallCountingSink::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler = PseudoStateSampler::new(icm, ProposalKind::ResultingActivity, &mut rng);
    {
        let _r = ScopedRecorder::install(sink.clone());
        // Same batch size the throughput loop uses, so the dispatch
        // amortization matches what the slowdown number measured.
        for _ in 0..STEPS / 10_000 {
            sampler.run(10_000, &mut rng);
        }
    }
    sink.calls.load(Ordering::Relaxed) as f64 / STEPS as f64
}

/// The sinks whose flow from `source` is closest to 1/2 and next
/// closest, from a short unconditioned pilot chain: a required and a
/// forbidden condition on them both bind often.
fn balanced_sinks(icm: &Icm, source: NodeId, seed: u64) -> (NodeId, NodeId) {
    const PILOT_SAMPLES: usize = 400;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampler = PseudoStateSampler::new(icm, ProposalKind::ResultingActivity, &mut rng);
    let mut hits = vec![0usize; icm.node_count()];
    for _ in 0..PILOT_SAMPLES {
        sampler.run(icm.edge_count(), &mut rng);
        for v in sampler.reach_set(&[source]).iter_ones() {
            hits[v] += 1;
        }
    }
    let mut by_balance: Vec<usize> = (0..icm.node_count())
        .filter(|&v| v != source.index())
        .collect();
    by_balance.sort_by_key(|&v| hits[v].abs_diff(PILOT_SAMPLES / 2));
    (NodeId(by_balance[0] as u32), NodeId(by_balance[1] as u32))
}

/// Runs a required-flow and a forbidden-flow chain for
/// `CONDITIONED_STEPS` each under a memory sink, returning (condition
/// tests per proposal that passed the MH test, ns/step).
fn conditioned_chains(icm: &Icm, seed: u64) -> (f64, f64) {
    let source = NodeId(0);
    let (a, b) = balanced_sinks(icm, source, seed);
    let sink = Arc::new(MemorySink::new());
    let _r = ScopedRecorder::install(sink.clone());
    let mut nanos = 0.0;
    for (k, condition) in [
        FlowCondition::requires(source, a),
        FlowCondition::forbids(source, b),
    ]
    .into_iter()
    .enumerate()
    {
        let mut rng = StdRng::seed_from_u64(seed + 1 + k as u64);
        let mut sampler = PseudoStateSampler::with_conditions(
            icm,
            ProposalKind::ResultingActivity,
            vec![condition],
            &mut rng,
        )
        .expect("a pilot-balanced condition is feasible");
        let start = Instant::now();
        sampler.run(CONDITIONED_STEPS, &mut rng);
        nanos += start.elapsed().as_secs_f64() * 1e9;
    }
    let passed =
        sink.counter_value("sampler.accepts") + sink.counter_value("sampler.condition_rejects");
    (
        sink.counter_value("sampler.condition_checks") as f64 / passed.max(1) as f64,
        nanos / (2 * CONDITIONED_STEPS) as f64,
    )
}

/// Micro-benchmarks the disabled recorder path: ns per counter call
/// when no recorder is installed (a relaxed atomic load + branch).
fn disabled_ns_per_call() -> f64 {
    assert!(!flow_obs::enabled(), "micro-bench needs the recorder off");
    let start = Instant::now();
    for _ in 0..MICRO_CALLS {
        flow_obs::counter("bench.disabled_probe", 1);
    }
    start.elapsed().as_secs_f64() * 1e9 / MICRO_CALLS as f64
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sampler.json".to_string());

    let throughput_icm = scaling_icm(THROUGHPUT_EDGES, 42);
    let parallel_icm = scaling_icm(PARALLEL_EDGES, 42);
    let parallel_sink = NodeId((parallel_icm.node_count() - 1) as u32);

    eprintln!("[1/7] sampler throughput, recorder disabled ...");
    let (sps_disabled, steps_disabled) = sampler_throughput(&throughput_icm, 1);

    eprintln!("[2/7] sampler throughput, recorder enabled (memory sink) ...");
    let sink = Arc::new(MemorySink::new());
    let (sps_enabled, steps_enabled, counted_increments_per_step) = {
        let _r = ScopedRecorder::install(sink.clone());
        let (sps, steps) = sampler_throughput(&throughput_icm, 1);
        // Logical telemetry per step: every terminal counter the hot
        // loop can hit, summed from the sink's registry. Batching must
        // leave this unchanged (~2/step) — only the dispatch rate drops.
        let total: u64 = [
            "sampler.steps",
            "sampler.lazy_loops",
            "sampler.empty_proposals",
            "sampler.mh_rejects",
            "sampler.condition_rejects",
            "sampler.accepts",
            "sampler.tree_rebuilds",
        ]
        .iter()
        .map(|n| sink.counter_value(n))
        .sum();
        (
            sps,
            steps,
            total as f64 / sink.counter_value("sampler.steps").max(1) as f64,
        )
    };

    eprintln!("[3/7] dispatched recorder calls per step ...");
    let dispatched_per_step = dispatched_calls_per_step(&throughput_icm, 1);

    eprintln!("[4/7] parallel estimator, recorder disabled ...");
    let par_disabled_ms = parallel_wall_ms(&parallel_icm, parallel_sink);

    eprintln!("[5/7] parallel estimator, recorder enabled ...");
    let par_enabled_ms = {
        let _r = ScopedRecorder::install(Arc::new(MemorySink::new()));
        parallel_wall_ms(&parallel_icm, parallel_sink)
    };

    eprintln!("[6/7] disabled fast-path micro-benchmark ...");
    let ns_per_call = disabled_ns_per_call();

    eprintln!("[7/7] conditioned chains (one required, one forbidden) ...");
    let conditioned_icm = supercritical_icm(CONDITIONED_EDGES, 42);
    let (checks_per_accept, conditioned_ns_per_step) = conditioned_chains(&conditioned_icm, 3);

    // Disabled overhead: cost of one disabled call times the dispatch
    // rate, as a fraction of step time. With batched counters the
    // disabled path makes at most one `enabled()` probe per flush, so
    // the enabled-run dispatch rate is a conservative upper bound.
    let step_ns_disabled = 1e9 / sps_disabled;
    let disabled_overhead_pct = 100.0 * ns_per_call * dispatched_per_step / step_ns_disabled;
    let enabled_slowdown_pct = 100.0 * (1.0 - sps_enabled / sps_disabled);
    const ENABLED_BUDGET_PCT: f64 = 10.0;
    const DISABLED_BUDGET_PCT: f64 = 5.0;

    let json = format!(
        "{{\n  \"bench\": \"sampler\",\n  \"schema\": \"{schema}\",\n  \"throughput_edges\": {te},\n  \"sampler\": {{\n    \"steps_per_sec_disabled\": {sd:.0},\n    \"steps_per_sec_enabled\": {se:.0},\n    \"steps_timed_disabled\": {std},\n    \"steps_timed_enabled\": {ste},\n    \"enabled_slowdown_pct\": {esp:.2},\n    \"enabled_budget_pct\": {eb},\n    \"enabled_within_budget\": {ewb}\n  }},\n  \"counters\": {{\n    \"counted_increments_per_step\": {cis:.3},\n    \"dispatched_calls_per_step\": {dcs:.5}\n  }},\n  \"parallel_estimator\": {{\n    \"edges\": {pe},\n    \"chains\": {pc},\n    \"samples_per_chain\": {ps},\n    \"wall_ms_disabled\": {pd:.1},\n    \"wall_ms_enabled\": {pen:.1}\n  }},\n  \"disabled_path\": {{\n    \"ns_per_call\": {nc:.3},\n    \"overhead_pct\": {dop:.4},\n    \"budget_pct\": {db},\n    \"within_budget\": {wb}\n  }},\n  \"conditioned\": {{\n    \"edges\": {ce},\n    \"chains\": 2,\n    \"steps_per_chain\": {cs},\n    \"condition_checks_per_accept\": {ccpa:.4},\n    \"ns_per_step\": {cns:.1}\n  }}\n}}\n",
        schema = flow_core::schema::BENCH_SAMPLER.tag(),
        te = THROUGHPUT_EDGES,
        sd = sps_disabled,
        se = sps_enabled,
        std = steps_disabled,
        ste = steps_enabled,
        esp = enabled_slowdown_pct,
        eb = ENABLED_BUDGET_PCT,
        ewb = enabled_slowdown_pct <= ENABLED_BUDGET_PCT,
        cis = counted_increments_per_step,
        dcs = dispatched_per_step,
        pe = PARALLEL_EDGES,
        pc = PARALLEL_CHAINS,
        ps = PARALLEL_SAMPLES,
        pd = par_disabled_ms,
        pen = par_enabled_ms,
        nc = ns_per_call,
        dop = disabled_overhead_pct,
        db = DISABLED_BUDGET_PCT,
        wb = disabled_overhead_pct <= DISABLED_BUDGET_PCT,
        ce = CONDITIONED_EDGES,
        cs = CONDITIONED_STEPS,
        ccpa = checks_per_accept,
        cns = conditioned_ns_per_step,
    );
    match std::fs::write(&out_path, &json) {
        Ok(()) => {
            eprintln!("wrote {out_path}");
            print!("{json}");
        }
        Err(e) => {
            eprintln!("error: cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
    let mut failed = false;
    if enabled_slowdown_pct > ENABLED_BUDGET_PCT {
        eprintln!(
            "error: enabled-recorder slowdown {enabled_slowdown_pct:.2}% exceeds the {ENABLED_BUDGET_PCT}% budget"
        );
        failed = true;
    }
    if disabled_overhead_pct > DISABLED_BUDGET_PCT {
        eprintln!(
            "error: disabled-recorder overhead {disabled_overhead_pct:.2}% exceeds the {DISABLED_BUDGET_PCT}% budget"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
