//! Small numeric and process helpers shared by the workloads.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// CPU time used so far by every thread of this process, exited ones
/// included, in milliseconds (`CLOCK_PROCESS_CPUTIME_ID`).
///
/// The latency metrics are differences of this clock, not of the wall
/// clock. On a virtual machine that shares its host, the hypervisor
/// takes the CPU away from the guest ("steal") for anywhere from a few
/// to half of the wall time, and that share drifts from minute to
/// minute; a wall-clock latency then measures the neighbours. The
/// guest kernel accounts stolen time apart from task time, so this
/// clock advances only while a thread of the benchmark runs.
pub fn process_cpu_ms() -> f64 {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, and the clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Accuracy of served answers against oracle references.
#[derive(Debug, Default)]
pub struct Accuracy {
    /// `|estimate - reference|` per distinct answer.
    pub abs_err: Vec<f64>,
    /// Distinct answers whose 95% half-width misses the reference.
    pub misses: u64,
    /// Answers that broke the loose per-answer gate.
    pub gate_failures: Vec<String>,
    /// Reference flows, for the regime guard.
    pub reference_flows: Vec<f64>,
}

impl Accuracy {
    /// Scores one distinct answer. The gate is deliberately loose: it
    /// trips on a broken estimator (a wrong source, a dropped condition,
    /// a stuck chain), not on sampling noise or optimistic half-widths.
    pub fn score(
        &mut self,
        label: &str,
        estimate: f64,
        half_width: f64,
        reference: f64,
        ref_err: f64,
    ) {
        let err = (estimate - reference).abs();
        self.abs_err.push(err);
        self.reference_flows.push(reference);
        if err > half_width {
            self.misses += 1;
        }
        let gate = 0.12_f64.max(4.0 * half_width) + 4.0 * ref_err;
        if err > gate || err.is_nan() {
            self.gate_failures.push(format!(
                "{label}: estimate {estimate:.4} ± {half_width:.4} vs reference {reference:.4} ± {ref_err:.4}"
            ));
        }
    }

    /// The 99th percentile of the absolute error.
    pub fn abs_err_p99(&self) -> f64 {
        quantile(&self.abs_err, 0.99)
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Renders the benchmark's final result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            // `{:?}` prints every digit of the shortest round-trip
            // form, which is valid JSON (`0.25`, `3.0`, `1e-7`).
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn process_cpu_clock_counts_work_on_other_threads() {
        let before = process_cpu_ms();
        let spin = || {
            let t = std::time::Instant::now();
            while t.elapsed().as_millis() < 30 {
                std::hint::spin_loop();
            }
        };
        std::thread::spawn(spin).join().unwrap();
        let used = process_cpu_ms() - before;
        // An exited thread's time stays counted. The spin is 30 ms of
        // wall time, of which a busy host may steal some.
        assert!(used > 5.0 && used < 1000.0, "{used} ms");
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
