//! Metric names, units and the result line.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json`; the test suite
//! checks the two agree. Every workload emits every name in both lists,
//! each measured on that workload's own traffic (the README says what
//! each one means per workload). Metrics only one workload has are
//! printed as report lines, not in the result object.

use std::fmt::Write as _;

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
];

/// Metrics of a traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.generate_s", "s"),
    ("stream.ingest_s", "s"),
    ("stream.fit_s", "s"),
    ("stream.observe_p50_us", "us"),
    ("stream.bytes_per_link", "B"),
    ("hop.ball_us", "us"),
    ("hop.subgraph_us", "us"),
    ("structure.merge_us", "us"),
    ("palette.wl_us", "us"),
    ("kstructure.select_us", "us"),
    ("feature.encode_us", "us"),
    ("kgrowth.rounds_per_pair", "count"),
    ("cache.ball_hit_frac", "ratio"),
    ("cache.pair_hit_frac", "ratio"),
    ("ml.forward_us", "us"),
    ("serve.batch_fixed_us", "us"),
    ("serve.publish_us", "us"),
    ("serve.frozen_entries", "count"),
    ("request.service_per_pair_us", "us"),
    ("request.batch_size_mean", "count"),
    ("request.p99_ms", "ms"),
    ("failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.stage_residual_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Dotted metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in the order they were recorded.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: rejected, expired, degraded, errored.
    pub failed: u64,
    /// Correctness-gate violations, one line each.
    pub errors: Vec<String>,
    /// Free-form report lines (input digests and the like).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric (a later value of the same name replaces it).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records a failed correctness gate.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Whether every gate held and no operation failed.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The human-readable report: one `name value unit` line per metric.
    pub fn lines(&self, workload: &str) -> String {
        let mut s = String::new();
        for n in &self.notes {
            let _ = writeln!(s, "{workload} {n}");
        }
        for m in &self.metrics {
            let _ = writeln!(s, "{workload} {} {} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            s,
            "{workload} attempted {} failed {}",
            self.attempted, self.failed
        );
        for e in &self.errors {
            let _ = writeln!(s, "{workload} GATE FAILED: {e}");
        }
        s
    }

    /// The result object over `names`. A name the run did not record, or
    /// recorded as a non-finite number, fails the run.
    pub fn result_json(&mut self, names: &[(&str, &str)]) -> String {
        let mut body = String::new();
        for (i, &(name, unit)) in names.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                other => {
                    self.errors.push(format!("metric {name} is {other:?}"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.errors.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// The `q`-quantile (0..=1) of `xs` by nearest rank; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `xs` (the mean of the middle two for an even count);
/// 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Splits `(t, x)` samples (`t` in seconds from the start) into
/// `window_s`-long windows and returns each window's samples. A trailing
/// partial window shorter than half a window is dropped.
pub fn windows(
    samples: &[(f64, f64)],
    window_s: f64,
    total_s: f64,
) -> Vec<Vec<f64>> {
    let n = ((total_s / window_s) + 0.5).floor().max(1.0) as usize;
    let mut out = vec![Vec::new(); n];
    for &(t, x) in samples {
        let w = (t / window_s) as usize;
        if w < n {
            out[w].push(x);
        }
    }
    out
}
