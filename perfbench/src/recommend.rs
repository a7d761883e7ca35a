//! `recommend`: one closed-loop client; each request is one focal user
//! with 32 candidates from its 2-hop neighbourhood, scored by one
//! `ScoringSnapshot::score_batch` call. The candidates share the focal
//! user's ball, so the per-batch extraction cache does most of the work.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ssf_repro::dyngraph::NodeId;

use crate::inputs::{self, Fnv, Served, Size};
use crate::report::{median, peak_rss_mb, quantile, windows, Report};
use crate::stages::{self, StageTotals};
use crate::SETUP_REPEATS;

/// Distinct requests generated per run; the loop cycles through them.
const POOL: usize = 8192;
/// Every this many requests, the served scores are kept and checked
/// against per-pair `ScoringSnapshot::score` after the timed loop.
const CHECK_EVERY: usize = 64;
/// Length of one measurement window, s.
const WINDOW_S: f64 = 1.0;
/// Requests whose stages the traced run replays.
const REPLAY_REQUESTS: usize = 64;

/// What one timed loop saw.
struct Loop {
    /// Per-request `score_batch` latency, ms.
    latency_ms: Vec<f64>,
    /// Per-request completion time, s from the loop start.
    done_s: Vec<f64>,
    /// Wall time of the whole loop, s.
    wall_s: f64,
}

impl Loop {
    /// Users per second and the p50 latency, each the median over
    /// one-second windows, so a stall of the host moves a few windows
    /// rather than the whole run.
    fn windowed(&self) -> (f64, f64) {
        let samples: Vec<(f64, f64)> = self
            .done_s
            .iter()
            .copied()
            .zip(self.latency_ms.iter().copied())
            .collect();
        let ws = windows(&samples, WINDOW_S, self.wall_s);
        let rates: Vec<f64> =
            ws.iter().map(|w| w.len() as f64 / WINDOW_S).collect();
        let p50s: Vec<f64> = ws
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| median(w))
            .collect();
        (median(&rates), median(&p50s))
    }
}

/// Runs the closed loop for `seconds`, counting attempts and failures
/// into `report` and checking sampled batches for bit-identity.
fn closed_loop(
    served: &Served,
    requests: &[Vec<(NodeId, NodeId)>],
    seconds: f64,
    report: &mut Report,
) -> Loop {
    let snap = &served.snap;
    let degraded_before = snap.degraded_scores();
    let mut latency_ms = Vec::new();
    let mut done_s = Vec::new();
    let mut kept = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || Instant::now() < end {
        let req = &requests[i % requests.len()];
        let t0 = Instant::now();
        let scores = snap.score_batch(black_box(req));
        latency_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        done_s.push(start.elapsed().as_secs_f64());
        report.attempted += 1;
        if scores.iter().any(Option::is_none) {
            report.failed += 1;
        }
        if i % CHECK_EVERY == 0 {
            kept.push((i % requests.len(), scores));
        }
        i += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    report.failed += snap.degraded_scores() - degraded_before;
    for (r, scores) in kept {
        for (&(u, v), s) in requests[r].iter().zip(&scores) {
            let direct = snap.score(u, v);
            report.gate(
                direct.map(f64::to_bits) == s.map(f64::to_bits),
                || format!("recommend batch score of ({u}, {v}) differs from score()"),
            );
        }
    }
    Loop {
        latency_ms,
        done_s,
        wall_s,
    }
}

/// Digest of a request list.
pub fn input_digest(requests: &[Vec<(NodeId, NodeId)>]) -> u64 {
    let mut h = Fnv::default();
    for r in requests {
        inputs::hash_pairs(&mut h, r);
    }
    h.finish()
}

/// Runs the workload; `trace` selects the per-layer run.
pub fn run(size: Size, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let served = if trace {
        let s = inputs::serve_setup(size, seed, true);
        stages::setup_layers(&s.times, &mut report);
        s
    } else {
        let mut setups = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            drop(last.take());
            let s = inputs::serve_setup(size, seed, false);
            setups.push(s.times.total());
            last = Some(s);
        }
        report.put("setup_s", median(&setups), "s");
        last.expect("at least one set-up")
    };
    let requests = inputs::recommend_requests(&served.graph, seed, POOL);
    report
        .notes
        .push(format!("inputs_hash {:016x}", input_digest(&requests)));

    if !trace {
        let l = closed_loop(&served, &requests, seconds, &mut report);
        let users = l.latency_ms.len() as f64;
        let (rate, p50) = l.windowed();
        report.put("throughput_per_s", rate, "1/s");
        report.put("p50_ms", p50, "ms");
        report.put(
            "recommend.user_p99_ms",
            quantile(&l.latency_ms, 0.99),
            "ms",
        );
        report.put("recommend.users", users, "count");
        report.put("peak_rss_mb", peak_rss_mb(), "MiB");
        return report;
    }

    // Traced run: an untraced half, then a half that keeps every
    // request's span for the ledger, then the stage replay.
    let plain = closed_loop(&served, &requests, seconds / 2.0, &mut report);
    let traced = closed_loop(&served, &requests, seconds / 2.0, &mut report);
    let rate = |l: &Loop| l.latency_ms.len() as f64 / l.wall_s;
    report.put(
        "trace.overhead_frac",
        rate(&plain) / rate(&traced) - 1.0,
        "ratio",
    );
    let spans_s: f64 = traced.latency_ms.iter().sum::<f64>() / 1e3;
    let unattributed = 1.0 - spans_s / traced.wall_s;
    report.put("trace.unattributed_frac", unattributed, "ratio");
    report.gate(unattributed.abs() <= stages::SPAN_TOLERANCE, || {
        format!("request spans leave {unattributed:.3} of the loop unexplained")
    });
    report.put("request.p99_ms", quantile(&plain.latency_ms, 0.99), "ms");
    report.put(
        "request.batch_size_mean",
        inputs::CANDIDATES as f64,
        "count",
    );
    report.put(
        "request.service_per_pair_us",
        median(&traced.latency_ms) * 1e3 / inputs::CANDIDATES as f64,
        "us",
    );

    let snap = &served.snap;
    let present = snap.present().expect("a fitted snapshot has a present");
    let mut t = StageTotals::default();
    let replayed = &requests[..REPLAY_REQUESTS.min(requests.len())];
    stages::replay(
        snap.graph(),
        &inputs::ssf_config(seed),
        present,
        replayed,
        &mut t,
        &mut report,
    );
    stages::record(&t, &mut report);
    stages::forward_us(&t.rows, &mut report);
    stages::serve_layers(&served.predictor, snap, &mut report);
    report
}
