//! `infobench` — the end-to-end benchmark for infoflow.
//!
//! ```text
//! cargo run --release --offline --manifest-path infobench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Four workloads drive the public API of `flow-serve` and
//! `flow-stream` from one seeded process (see `BENCHMARK.json` for why
//! each exists and which layer does its work):
//!
//! * `cold-flow`, `cold-conditioned`, `hot-zipf` — closed-loop serving:
//!   one client submits a batch through `ServeEngine::execute_batch`,
//!   waits, and sends the next;
//! * `stream-sharded` — open-loop evidence ingest, epoch seal, model
//!   swap into a 4-shard engine, and a watch-list re-serve per epoch.
//!
//! Every run checks its answers against an independent oracle
//! (`oracle.rs`) and its input guards, and prints one JSON result line
//! last on stdout: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced half-run with `--trace 1`. Latencies
//! are taken on the process CPU clock (see `stats::process_cpu_ms`);
//! wall-clock latencies go to stderr.
//!
//! Wall-clock timing is the point of this binary, so the workspace's
//! ban on `Instant::now` (kept out of sampling code) does not apply.
#![allow(clippy::disallowed_methods)]

mod oracle;
mod serve;
mod stats;
mod stream;
mod trace;

use flow_mcmc::McmcConfig;
use flow_serve::{ExecutorConfig, ServeEngine};
use stats::{median, quantile, result_line, Accuracy, Metric};
use std::process::ExitCode;
use std::sync::Arc;
use trace::{PhaseCounts, SpanLog};

const WORKLOADS: [&str; 4] = [
    "cold-flow",
    "cold-conditioned",
    "hot-zipf",
    "stream-sharded",
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run measured and checked.
pub struct Run {
    /// Median process CPU time of the run's set-ups.
    pub setup_s: f64,
    /// Answers per second of wall clock (diagnostics only).
    pub answers_per_s: f64,
    /// Answers per second of process CPU time spent in the program's
    /// calls: batches, and on `stream-sharded` also pushes and seals.
    pub answers_per_cpu_s: f64,
    /// Wall-clock round trip of every timed batch (diagnostics and the
    /// traced run's overhead; the gated metrics use the CPU clock).
    pub batch_ms: Vec<f64>,
    /// Per timed batch: wall clock from the due time of the input its
    /// answers depend on to its return. On the closed-loop workloads
    /// the input is the batch itself, due when the client issues it.
    pub event_to_answer_ms: Vec<f64>,
    /// Process CPU time ([`stats::process_cpu_ms`]) over each batch's
    /// round trip: the client's thread and every worker together.
    pub batch_cpu_ms: Vec<f64>,
    /// Process CPU time from the start of the input its answers depend
    /// on to its return: on `stream-sharded` from the push of an
    /// epoch's last line through seal, swap and re-serve; on the
    /// closed loops the batch round trip.
    pub event_to_answer_cpu_ms: Vec<f64>,
    pub accuracy: Accuracy,
    pub peak_rss_mb: f64,
    /// Queries submitted plus (stream) valid event lines pushed.
    pub attempted: u64,
    /// Queries rejected, failed or degraded, plus valid lines rejected.
    pub failed: u64,
    /// Failed checks and guards; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// The traced phase, on `--trace 1`.
    pub layers: Option<(Arc<SpanLog>, PhaseCounts)>,
}

/// Worker threads: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine every workload serves with: built through the validating
/// `EngineBuilder`, one worker per core, and a small sample floor so
/// the requested tolerance sets each chain's length.
pub fn build_engine(
    seed: u64,
    tolerance: f64,
    cache_bytes: Option<usize>,
    shards: u32,
) -> ServeEngine {
    let mut builder = ServeEngine::builder()
        .mcmc(McmcConfig {
            samples: 64,
            ..Default::default()
        })
        .default_tolerance(tolerance)
        .executor(ExecutorConfig {
            workers: workers(),
            ..Default::default()
        })
        .engine_seed(seed)
        .shards(shards);
    if let Some(bytes) = cache_bytes {
        builder = builder.cache_bytes(bytes);
    }
    builder
        .build()
        .expect("the benchmark's engine configuration is valid")
}

/// Where traced runs write their spans and per-layer bases.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("infobench: {e}");
            eprintln!(
                "usage: infobench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let run = if args.workload == "stream-sharded" {
        stream::run(&args)
    } else {
        serve::run(&args)
    };

    let acc = &run.accuracy;
    let mut problems = run.problems.clone();
    problems.extend(acc.gate_failures.iter().cloned());
    let flow = median(&acc.reference_flows);
    if !(flow >= serve::FLOW_BAND.0 && flow <= serve::FLOW_BAND.1) {
        problems.push(format!(
            "regime guard: median reference flow {flow:.4} outside {:?}",
            serve::FLOW_BAND
        ));
    }
    if acc.abs_err.is_empty() {
        problems.push("no answers were scored".into());
    }
    eprintln!(
        "{} seed {}: {} batches, {} attempted, {} failed, {} distinct answers scored, median reference flow {flow:.3}, {} interval misses",
        args.workload,
        args.seed,
        run.batch_ms.len(),
        run.attempted,
        run.failed,
        acc.abs_err.len(),
        acc.misses
    );
    eprintln!(
        "  wall clock (not gated): {:.1} answers/s, query p50 {:.2} ms p90 {:.2} ms, event to answer p50 {:.2} ms p90 {:.2} ms",
        run.answers_per_s,
        quantile(&run.batch_ms, 0.5),
        quantile(&run.batch_ms, 0.9),
        quantile(&run.event_to_answer_ms, 0.5),
        quantile(&run.event_to_answer_ms, 0.9)
    );
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }

    let metrics: Vec<Metric> = match &run.layers {
        Some((log, counts)) => {
            let layered = trace::per_layer(log, counts, acc);
            let path = out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
            if let Err(e) = log.dump(&path, &layered) {
                eprintln!("infobench: cannot write {}: {e}", path.display());
            }
            for l in &layered {
                eprintln!(
                    "  {:<40} {:>14.6} {:<8} base {}",
                    l.metric.name, l.metric.value, l.metric.unit, l.base
                );
            }
            layered.into_iter().map(|l| l.metric).collect()
        }
        None => vec![
            Metric {
                name: "setup_s",
                value: run.setup_s,
                unit: "s",
            },
            Metric {
                name: "answers_per_cpu_s",
                value: run.answers_per_cpu_s,
                unit: "1/cpu_s",
            },
            Metric {
                name: "query_cpu_p50_ms",
                value: quantile(&run.batch_cpu_ms, 0.5),
                unit: "ms",
            },
            Metric {
                name: "query_cpu_p90_ms",
                value: quantile(&run.batch_cpu_ms, 0.9),
                unit: "ms",
            },
            Metric {
                name: "event_to_answer_cpu_p50_ms",
                value: quantile(&run.event_to_answer_cpu_ms, 0.5),
                unit: "ms",
            },
            Metric {
                name: "event_to_answer_cpu_p90_ms",
                value: quantile(&run.event_to_answer_cpu_ms, 0.9),
                unit: "ms",
            },
            Metric {
                name: "abs_err_p99",
                value: acc.abs_err_p99(),
                unit: "prob",
            },
            Metric {
                name: "peak_rss_mb",
                value: run.peak_rss_mb,
                unit: "MiB",
            },
        ],
    };
    println!(
        "{}",
        result_line(
            problems.is_empty(),
            run.attempted.max(1),
            run.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
