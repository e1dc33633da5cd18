//! The traced run: in-memory spans and counters, and the per-layer
//! metrics derived from them.
//!
//! Two sources feed one interval log:
//!
//! * the benchmark's own spans, `bench.<call>`, wrapped around every
//!   public call it makes into the program ([`Tracer::span`]);
//! * the program's existing `flow_obs` spans (`serve.plan`,
//!   `mcmc.burn_in`, `checkpoint.capture`, ...) and counters, collected
//!   by [`SpanLog`], a `flow_obs::Recorder` installed through the
//!   crate's public API. The recorder pairs each thread's
//!   `span.enter`/`span.exit` events (spans nest per thread) and stamps
//!   them with its own clock.
//!
//! Nothing is written while the run measures; [`SpanLog::dump`] writes
//! the intervals when it ends. No instrumentation is added inside the
//! program.

use crate::stats::{quantile, ratio, Accuracy, Metric};
use flow_obs::{Event, Recorder};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Interval {
    pub name: String,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Interval {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<(String, u64)>> = const { RefCell::new(Vec::new()) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("span log mutex poisoned by a panicking thread")
}

/// In-memory interval, counter and event log.
pub struct SpanLog {
    origin: Instant,
    intervals: Mutex<Vec<Interval>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    /// `serve.shard.rebuilt` events as `(shards, reused)`.
    rebuilds: Mutex<Vec<(u64, u64)>>,
    /// `serve.query.routed` events.
    routed: AtomicU64,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            intervals: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            rebuilds: Mutex::new(Vec::new()),
            routed: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, name: String, start_ns: u64, end_ns: u64) {
        let thread = THREAD.with(|t| *t);
        lock(&self.intervals).push(Interval {
            name,
            thread,
            start_ns,
            end_ns,
        });
    }

    /// Closed intervals named `name`.
    pub fn named(&self, name: &str) -> Vec<Interval> {
        lock(&self.intervals)
            .iter()
            .filter(|i| i.name == name)
            .cloned()
            .collect()
    }

    /// Durations in milliseconds of the intervals named `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .iter()
            .map(|i| i.ns() as f64 / 1e6)
            .collect()
    }

    /// Summed duration of the intervals named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.named(name).iter().map(|i| i.ns() as f64).sum()
    }

    pub fn counter(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).copied().unwrap_or(0)
    }

    /// Writes every interval, every counter and every derived metric
    /// with its base as one JSON line each to `path`.
    pub fn dump(&self, path: &std::path::Path, layered: &[Layered]) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for i in lock(&self.intervals).iter() {
            writeln!(
                out,
                "{{\"span\": \"{}\", \"thread\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                i.name, i.thread, i.start_ns, i.end_ns
            )?;
        }
        for (name, v) in lock(&self.counters).iter() {
            writeln!(out, "{{\"counter\": \"{name}\", \"value\": {v}}}")?;
        }
        for l in layered {
            writeln!(
                out,
                "{{\"metric\": \"{}\", \"value\": {:?}, \"unit\": \"{}\", \"base\": \"{}\"}}",
                l.metric.name, l.metric.value, l.metric.unit, l.base
            )?;
        }
        out.flush()
    }
}

impl Recorder for SpanLog {
    fn event(&self, event: &Event) {
        let field = |key: &str| event.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v);
        match event.name {
            "span.enter" | "span.exit" => {
                let Some(name) = field("span").and_then(|v| v.as_str()) else {
                    return;
                };
                let now = self.now_ns();
                if event.name == "span.enter" {
                    OPEN.with(|o| o.borrow_mut().push((name.to_string(), now)));
                } else {
                    let open = OPEN.with(|o| {
                        let mut o = o.borrow_mut();
                        let at = o.iter().rposition(|(n, _)| n == name)?;
                        Some(o.remove(at))
                    });
                    if let Some((name, start)) = open {
                        self.push(name, start, now);
                    }
                }
            }
            "serve.shard.rebuilt" => {
                let get = |k| field(k).and_then(|v| v.as_u64()).unwrap_or(0);
                lock(&self.rebuilds).push((get("shards"), get("reused")));
            }
            "serve.query.routed" => {
                self.routed.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }

    fn counter(&self, name: &'static str, delta: u64) {
        *lock(&self.counters).entry(name).or_insert(0) += delta;
    }
}

/// Wraps the benchmark's calls into the program: a no-op when the run
/// is untraced, a `bench.<name>` interval when it is.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<SpanLog>>);

impl Tracer {
    pub fn traced(log: Arc<SpanLog>) -> Self {
        Tracer(Some(log))
    }

    #[inline]
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(log) = &self.0 else {
            return f();
        };
        let start = log.now_ns();
        let out = f();
        let end = log.now_ns();
        log.push(format!("bench.{name}"), start, end);
        out
    }
}

/// Length of the union of `spans` clipped to `[lo, hi)`; `spans` must
/// be sorted by start.
fn union_within(spans: &[Interval], lo: u64, hi: u64) -> u64 {
    let mut covered = 0;
    let mut cursor = lo;
    for s in spans {
        if s.start_ns >= hi {
            break;
        }
        let start = s.start_ns.max(cursor);
        let end = s.end_ns.min(hi);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// What the traced phase counted outside the log: engine statistics
/// deltas and the benchmark's own tallies.
#[derive(Default)]
pub struct PhaseCounts {
    pub workers: usize,
    pub queries: u64,
    pub answered: u64,
    pub cache_hits: u64,
    pub fresh: u64,
    pub refined: u64,
    pub plans: u64,
    pub steps: u64,
    pub lines: u64,
    pub invalidated: Vec<f64>,
    pub ingest_lag_ms: Vec<f64>,
    /// Mean batch round trip of the untraced and traced phases.
    pub untraced_batch_ms: f64,
    pub traced_batch_ms: f64,
}

/// One per-layer metric with the base it was computed from.
pub struct Layered {
    pub metric: Metric,
    /// `"num / den"` for a ratio, `"pNN of N samples"` for a quantile.
    pub base: String,
}

fn m(name: &'static str, unit: &'static str, num: f64, den: f64) -> Layered {
    Layered {
        metric: Metric {
            name,
            value: ratio(num, den),
            unit,
        },
        base: format!("{num} / {den}"),
    }
}

fn q(name: &'static str, unit: &'static str, sample: &[f64], p: f64) -> Layered {
    Layered {
        metric: Metric {
            name,
            value: quantile(sample, p),
            unit,
        },
        base: format!("p{:.0} of {} samples", p * 100.0, sample.len()),
    }
}

/// Derives every per-layer metric from the traced phase.
pub fn per_layer(log: &SpanLog, c: &PhaseCounts, accuracy: &Accuracy) -> Vec<Layered> {
    let mut plans = log.named("serve.plan");
    plans.sort_by_key(|i| i.start_ns);
    let batches = log.named("bench.execute_batch");
    let longest = plans.iter().map(Interval::ns).max().unwrap_or(0);
    let batch_self_ms: Vec<f64> = batches
        .iter()
        .map(|b| {
            let from = plans.partition_point(|p| p.start_ns + longest < b.start_ns);
            let covered = union_within(&plans[from..], b.start_ns, b.end_ns);
            (b.ns() - covered) as f64 / 1e6
        })
        .collect();
    let plan_ms: Vec<f64> = plans.iter().map(|p| p.ns() as f64 / 1e6).collect();
    let plan_ns: f64 = plans.iter().map(|p| p.ns() as f64).sum();
    let batch_ns: f64 = batches.iter().map(|b| b.ns() as f64).sum();
    let steps = log.counter("sampler.steps") as f64;
    let rebuilds = lock(&log.rebuilds).clone();
    let us = |name: &str| -> Vec<f64> { log.ms(name).iter().map(|x| x * 1e3).collect() };
    let queries = c.queries as f64;
    // On the stream every batch is the re-serve of a swapped model.
    let reserve_ms = if c.lines > 0 {
        log.ms("bench.execute_batch")
    } else {
        Vec::new()
    };
    vec![
        q("flow-serve.batch_self_ms_p50", "ms", &batch_self_ms, 0.5),
        m(
            "flow-serve.interval_miss_frac",
            "ratio",
            accuracy.misses as f64,
            accuracy.abs_err.len() as f64,
        ),
        m(
            "flow-serve.plans_per_miss",
            "ratio",
            c.plans as f64,
            (c.fresh + c.refined) as f64,
        ),
        m(
            "flow-serve.cache_hit_ratio",
            "ratio",
            c.cache_hits as f64,
            c.answered as f64,
        ),
        m(
            "flow-serve.refine_frac",
            "ratio",
            c.refined as f64,
            c.answered as f64,
        ),
        m(
            "flow-serve.evictions_per_kq",
            "1/kq",
            1e3 * log.counter("serve.cache.evict") as f64,
            queries,
        ),
        q("flow-serve.plan_ms_p50", "ms", &plan_ms, 0.5),
        q("flow-serve.plan_ms_p90", "ms", &plan_ms, 0.9),
        m(
            "flow-serve.worker_busy_frac",
            "ratio",
            plan_ns,
            c.workers as f64 * batch_ns,
        ),
        m(
            "flow-serve.routed_frac",
            "ratio",
            log.routed.load(Ordering::Relaxed) as f64,
            queries,
        ),
        m(
            "flow-serve.shards_reused_frac",
            "ratio",
            rebuilds.iter().map(|r| r.1 as f64).sum::<f64>() + 0.0,
            rebuilds.iter().map(|r| r.0 as f64).sum::<f64>() + 0.0,
        ),
        m(
            "flow-mcmc.steps_per_answer",
            "count",
            c.steps as f64,
            c.answered as f64,
        ),
        m("flow-mcmc.ns_per_step", "ns", plan_ns, steps),
        m(
            "flow-mcmc.burn_in_frac",
            "ratio",
            log.total_ns("mcmc.burn_in"),
            plan_ns,
        ),
        m(
            "flow-mcmc.accept_ratio",
            "ratio",
            log.counter("sampler.accepts") as f64,
            steps,
        ),
        m(
            "flow-mcmc.tree_rebuilds_per_mstep",
            "1/Mstep",
            1e6 * log.counter("sampler.tree_rebuilds") as f64,
            steps,
        ),
        // The serving path's checkpoint capture emits no span, only a
        // counter; the Fenwick rebuild each capture triggers does.
        m(
            "flow-mcmc.checkpoints_per_answer",
            "count",
            log.counter("checkpoint.captures") as f64,
            c.answered as f64,
        ),
        q(
            "flow-mcmc.fenwick_rebuild_us_p50",
            "us",
            &us("fenwick.rebuild"),
            0.5,
        ),
        q("flow-stream.push_us_p50", "us", &us("bench.push_line"), 0.5),
        m(
            "flow-stream.reject_frac",
            "ratio",
            log.counter("stream.rejected") as f64,
            c.lines as f64,
        ),
        q(
            "flow-stream.extract_ms_p50",
            "ms",
            &log.ms("bench.ingest_seal_epoch"),
            0.5,
        ),
        q(
            "flow-stream.seal_ms_p50",
            "ms",
            &log.ms("bench.registry_seal_epoch"),
            0.5,
        ),
        q(
            "flow-stream.swap_ms_p50",
            "ms",
            &log.ms("bench.swap_into"),
            0.5,
        ),
        m(
            "flow-stream.invalidated_per_swap",
            "count",
            c.invalidated.iter().sum(),
            c.invalidated.len() as f64,
        ),
        q("flow-stream.reserve_ms_p50", "ms", &reserve_ms, 0.5),
        q(
            "flow-stream.serving_icm_ms_p50",
            "ms",
            &log.ms("bench.serving_icm"),
            0.5,
        ),
        q(
            "flow-stream.ingest_lag_p99_ms",
            "ms",
            &c.ingest_lag_ms,
            0.99,
        ),
        m(
            "flow-obs.trace_overhead_frac",
            "ratio",
            c.traced_batch_ms - c.untraced_batch_ms,
            c.untraced_batch_ms,
        ),
    ]
}
