//! `ingest-window`: replay the generated stream in timestamp order into
//! a durable, windowed predictor with automatic refit, reading beside
//! the writes. Every few ticks the replay scores 32 pairs on the live
//! predictor and publishes a snapshot; it checkpoints periodically,
//! leaves a fixed WAL tail, and then times recovery with
//! `OnlineLinkPredictor::open_with`.
//!
//! `observe`, window expiry, the copy-on-write mirror, compaction, cache
//! invalidation, refit and persistence do the work here.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ssf_repro::dyngraph::{NodeId, Timestamp};
use ssf_repro::obs::ObsHandle;
use ssf_repro::{
    DurabilityPolicy, FsyncPolicy, OnlineLinkPredictor, OnlinePredictorConfig,
    ScoringSnapshot,
};

use crate::inputs::{self, Fnv, Rng, Size};
use crate::report::{median, peak_rss_mb, quantile, Report};
use crate::stages::{self, StageTotals};
use crate::SETUP_REPEATS;

/// Sliding-window width in ticks.
const WINDOW: Timestamp = 2000;
/// Automatic refit cadence in ticks.
const REFIT_EVERY: u32 = 1000;
/// The first tick that is scored: past the first refit the window
/// allows (the attempt on the first event fails and doubles the wait).
const FIRST_SCORE_TICK: Timestamp = 2500;
/// Ticks between interleaved reads.
const SCORE_EVERY: Timestamp = 50;
/// Pairs per interleaved `score_batch`.
const SCORE_PAIRS: usize = 32;
/// Checkpoints per replay; the last one leaves the WAL tail.
const CHECKPOINTS: usize = 3;
/// Share of the stream left in the WAL after the last checkpoint.
const TAIL_DIVISOR: usize = 15;
/// Pairs the recovered predictor must score bit-identically.
const RECOVERY_PAIRS: usize = 256;
/// Score points whose snapshots the traced run keeps for the stage
/// replay (every `REPLAY_STRIDE`-th one).
const REPLAY_STRIDE: usize = 8;

/// The seeded inputs of one replay.
pub struct Inputs {
    /// The stream, in timestamp order.
    pub events: Vec<(NodeId, NodeId, Timestamp)>,
    /// `(event index, pairs)`: score before observing that event.
    pub reads: Vec<(usize, Vec<(NodeId, NodeId)>)>,
    /// Event counts after which a checkpoint is taken.
    pub checkpoints: Vec<usize>,
    /// Pairs compared between the live and the recovered predictor.
    pub recovery_pairs: Vec<(NodeId, NodeId)>,
}

impl Inputs {
    /// Digest of every list.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv::default();
        h.word(inputs::hash_events(&self.events));
        for (i, pairs) in &self.reads {
            h.word(*i as u64);
            inputs::hash_pairs(&mut h, pairs);
        }
        self.checkpoints.iter().for_each(|&c| h.word(c as u64));
        inputs::hash_pairs(&mut h, &self.recovery_pairs);
        h.finish()
    }
}

/// Generate and sort the stream, and derive the read schedule from it.
pub fn make_inputs(size: Size, seed: u64) -> Inputs {
    let events = inputs::events(&size.spec().generate(seed));
    let mut rng = Rng::new(seed, 30);
    let mut reads = Vec::new();
    let mut next = FIRST_SCORE_TICK;
    let mut max_id = 0;
    for (i, &(u, v, t)) in events.iter().enumerate() {
        if t >= next {
            let n = max_id as usize + 1;
            reads.push((i, inputs::uniform_pairs(n, &mut rng, SCORE_PAIRS)));
            next = t + SCORE_EVERY;
        }
        max_id = max_id.max(u).max(v);
    }
    let tail_start = events.len() - events.len() / TAIL_DIVISOR;
    let checkpoints = (1..=CHECKPOINTS)
        .map(|k| tail_start * k / CHECKPOINTS)
        .collect();
    let recovery_pairs =
        inputs::uniform_pairs(max_id as usize + 1, &mut rng, RECOVERY_PAIRS);
    Inputs {
        events,
        reads,
        checkpoints,
        recovery_pairs,
    }
}

fn config(seed: u64) -> OnlinePredictorConfig {
    OnlinePredictorConfig::builder()
        .method(inputs::method(seed))
        .refit_every(REFIT_EVERY)
        .min_positives(40)
        .history_folds(0)
        .split(inputs::split(seed))
        .window(Some(WINDOW))
        .build()
        .expect("benchmark predictor configuration is valid")
}

fn policy() -> DurabilityPolicy {
    DurabilityPolicy {
        fsync: FsyncPolicy::Never,
        ..DurabilityPolicy::default()
    }
}

/// A fresh durability directory inside the benchmark's own directory.
fn work_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!(
            "{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
}

fn wal_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Per-call layer times of a traced replay (ns unless noted).
#[derive(Default)]
struct Trace {
    observe: Vec<u64>,
    advance: Vec<u64>,
    publish: Vec<u64>,
    checkpoint: Vec<u64>,
    expired_links: u64,
    compactions: u64,
    compact_ns: u64,
    refits: u64,
    refit_ns: u64,
    /// Cache entries held after a read, summed over reads followed by
    /// another, and how many the writes in between invalidated.
    invalidated: u64,
    held: u64,
    frozen_entries: Vec<f64>,
    /// `(snapshot, pairs)` kept for the stage replay.
    kept: Vec<(ScoringSnapshot, Vec<(NodeId, NodeId)>)>,
}

/// What one replay measured.
struct Replay {
    wall_s: f64,
    score_ns: Vec<u64>,
    recover_s: f64,
    records_replayed: u64,
    wal_bytes: u64,
    trace: Option<Trace>,
    last_snapshot: Option<ScoringSnapshot>,
}

/// Replays `inp` once into a fresh directory, then recovers from it.
fn replay(
    inp: &Inputs,
    seed: u64,
    traced: bool,
    report: &mut Report,
) -> Replay {
    let dir = work_dir();
    let out = replay_in(&dir, inp, seed, traced, report);
    let _ = fs::remove_dir_all(&dir);
    // Removes the parent too once no other run is using it.
    if let Some(parent) = dir.parent() {
        let _ = fs::remove_dir(parent);
    }
    out
}

fn replay_in(
    dir: &Path,
    inp: &Inputs,
    seed: u64,
    traced: bool,
    report: &mut Report,
) -> Replay {
    let mut trace = traced.then(Trace::default);
    let start = Instant::now();
    let mut p = match OnlineLinkPredictor::open_with(
        config(seed),
        dir,
        policy(),
        ObsHandle::noop(),
    ) {
        Ok((p, _)) => p,
        Err(e) => {
            report
                .gate(false, || format!("cannot open durable predictor: {e}"));
            return Replay {
                wall_s: f64::NAN,
                score_ns: Vec::new(),
                recover_s: f64::NAN,
                records_replayed: 0,
                wal_bytes: 0,
                trace,
                last_snapshot: None,
            };
        }
    };
    let mut reads = inp.reads.iter().peekable();
    let mut checkpoints = inp.checkpoints.iter().peekable();
    let mut score_ns = Vec::with_capacity(inp.reads.len());
    let mut horizon: Option<Timestamp> = None;
    let mut prev_stats = p.cache_stats();
    let mut last_snapshot = None;
    for (i, &(u, v, t)) in inp.events.iter().enumerate() {
        if horizon != Some(t) {
            horizon = Some(t);
            let t0 = Instant::now();
            let adv = p.advance(t);
            let dt = t0.elapsed().as_nanos() as u64;
            match adv {
                Ok(r) => {
                    if let Some(tr) = trace.as_mut() {
                        tr.advance.push(dt);
                        tr.expired_links +=
                            r.map_or(0, |r| r.expired_links as u64);
                    }
                }
                Err(e) => {
                    report.failed += 1;
                    report
                        .gate(false, || format!("advance to {t} failed: {e}"));
                }
            }
        }
        if reads.peek().is_some_and(|(at, _)| *at == i) {
            let (_, pairs) = reads.next().expect("peeked");
            // Entries held after the previous read, and how many of them
            // the writes since then invalidated.
            if let Some((tr, held)) = trace.as_mut().and_then(|tr| {
                tr.frozen_entries.last().copied().map(|h| (tr, h))
            }) {
                let st = p.cache_stats();
                tr.held += held as u64;
                tr.invalidated += if st.invalidations > prev_stats.invalidations
                {
                    held as u64
                } else {
                    st.entries_invalidated - prev_stats.entries_invalidated
                };
            }
            let degraded = p.stats().degraded_scores();
            let t0 = Instant::now();
            let scores = p.score_batch(pairs);
            score_ns.push(t0.elapsed().as_nanos() as u64);
            report.attempted += 1;
            let none = scores.iter().filter(|s| s.is_none()).count() as u64;
            report.failed += none + p.stats().degraded_scores() - degraded;
            let t0 = Instant::now();
            let snap = p.snapshot();
            let publish = t0.elapsed().as_nanos() as u64;
            if let Some(tr) = trace.as_mut() {
                tr.publish.push(publish);
                let (balls, prs) = snap.frozen_entries();
                tr.frozen_entries.push((balls + prs) as f64);
                prev_stats = p.cache_stats();
                if (score_ns.len() - 1) % REPLAY_STRIDE == 0 {
                    tr.kept.push((snap.clone(), pairs.clone()));
                }
            }
            last_snapshot = Some(snap);
        }
        let before = trace.as_ref().map(|_| {
            (
                p.delta_link_count(),
                p.stats().successful_refits + p.stats().failed_refits,
            )
        });
        let t0 = Instant::now();
        let obs = p.observe(u, v, t);
        let dt = t0.elapsed().as_nanos() as u64;
        report.attempted += 1;
        if !obs.is_accepted() {
            report.failed += 1;
        }
        if let (Some(tr), Some((delta, fits))) = (trace.as_mut(), before) {
            tr.observe.push(dt);
            if p.delta_link_count() < delta {
                tr.compactions += 1;
                tr.compact_ns += dt;
            }
            if p.stats().successful_refits + p.stats().failed_refits > fits {
                tr.refits += 1;
                tr.refit_ns += dt;
            }
        }
        if checkpoints.peek().is_some_and(|&&c| c == i + 1) {
            checkpoints.next();
            let t0 = Instant::now();
            let r = p.checkpoint();
            let dt = t0.elapsed().as_nanos() as u64;
            report.attempted += 1;
            if let Err(e) = r {
                report.failed += 1;
                report.gate(false, || format!("checkpoint failed: {e}"));
            }
            if let Some(tr) = trace.as_mut() {
                tr.checkpoint.push(dt);
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(e) = p.last_wal_error() {
        report.failed += 1;
        report.gate(false, || format!("WAL append failed: {e}"));
    }
    let live = p.score_batch(&inp.recovery_pairs);
    let wal = wal_bytes(dir);
    drop(p);

    let t0 = Instant::now();
    let recovered = OnlineLinkPredictor::open_with(
        config(seed),
        dir,
        policy(),
        ObsHandle::noop(),
    );
    let recover_s = t0.elapsed().as_secs_f64();
    report.attempted += 1;
    let mut records_replayed = 0;
    match recovered {
        Ok((mut q, rep)) => {
            records_replayed = rep.records_replayed;
            let again = q.score_batch(&inp.recovery_pairs);
            let same = live.len() == again.len()
                && live
                    .iter()
                    .zip(&again)
                    .all(|(a, b)| a.map(f64::to_bits) == b.map(f64::to_bits));
            report.gate(same && !rep.is_lossy(), || {
                "recovered predictor scores differ from the live predictor"
                    .into()
            });
            if live.iter().any(Option::is_none) {
                report.failed += 1;
            }
        }
        Err(e) => {
            report.failed += 1;
            report.gate(false, || format!("recovery failed: {e}"));
        }
    }
    Replay {
        wall_s,
        score_ns,
        recover_s,
        records_replayed,
        wal_bytes: wal,
        trace,
        last_snapshot,
    }
}

/// Runs the workload; `trace` selects the per-layer run.
pub fn run(size: Size, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut inp = None;
    for _ in 0..if trace { 1 } else { SETUP_REPEATS } {
        drop(inp.take());
        let t = Instant::now();
        inp = Some(make_inputs(size, seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let inp = inp.expect("at least one set-up");
    report
        .notes
        .push(format!("inputs_hash {:016x}", inp.hash()));
    let n_events = inp.events.len() as f64;

    if !trace {
        report.put("setup_s", median(&setups), "s");
        let start = Instant::now();
        let mut runs = Vec::new();
        loop {
            runs.push(replay(&inp, seed, false, &mut report));
            let done = start.elapsed().as_secs_f64();
            let per = done / runs.len() as f64;
            if done + per > seconds {
                break;
            }
        }
        let rates: Vec<f64> =
            runs.iter().map(|r| n_events / r.wall_s).collect();
        report.notes.push(format!("replay_events_per_s {rates:?}"));
        let scores: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.score_ns.iter().map(|&x| x as f64 / 1e6))
            .collect();
        let p50s: Vec<f64> = runs
            .iter()
            .map(|r| {
                let ms: Vec<f64> =
                    r.score_ns.iter().map(|&x| x as f64 / 1e6).collect();
                median(&ms)
            })
            .collect();
        let recover: Vec<f64> = runs.iter().map(|r| r.recover_s).collect();
        report.put("throughput_per_s", median(&rates), "1/s");
        report.put("p50_ms", median(&p50s), "ms");
        report.put("ingest.score_p99_ms", quantile(&scores, 0.99), "ms");
        report.put("ingest.recover_s", median(&recover), "s");
        report.put("ingest.replays", runs.len() as f64, "count");
        report.put("peak_rss_mb", peak_rss_mb(), "MiB");
        return report;
    }

    report.put("datasets.generate_s", setups[0], "s");
    let plain = replay(&inp, seed, false, &mut report);
    let traced = replay(&inp, seed, true, &mut report);
    let tr = traced.trace.as_ref().expect("traced replay keeps a trace");
    report.put(
        "trace.overhead_frac",
        traced.wall_s / plain.wall_s - 1.0,
        "ratio",
    );
    let sum = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / 1e9;
    let us = |xs: &[u64]| -> Vec<f64> {
        xs.iter().map(|&x| x as f64 / 1e3).collect()
    };
    let spans = sum(&tr.observe)
        + sum(&tr.advance)
        + sum(&traced.score_ns)
        + sum(&tr.publish)
        + sum(&tr.checkpoint);
    let unattributed = 1.0 - spans / traced.wall_s;
    report.put("trace.unattributed_frac", unattributed, "ratio");
    report.gate(unattributed.abs() <= stages::SPAN_TOLERANCE, || {
        format!("layer spans leave {unattributed:.3} of the replay unexplained")
    });
    report.put("stream.ingest_s", traced.wall_s, "s");
    report.put("stream.fit_s", tr.refit_ns as f64 / 1e9, "s");
    report.put("stream.observe_p50_us", median(&us(&tr.observe)), "us");
    report.put("stream.observe_busy_s", sum(&tr.observe), "s");
    report.put("stream.advance_us", median(&us(&tr.advance)), "us");
    report.put("stream.expired_links", tr.expired_links as f64, "count");
    report.put("stream.compactions", tr.compactions as f64, "count");
    report.put("stream.compact_ms", tr.compact_ns as f64 / 1e6, "ms");
    report.put("stream.refits", tr.refits as f64, "count");
    report.put("stream.refit_s", tr.refit_ns as f64 / 1e9, "s");
    report.put("stream.score_batch_busy_s", sum(&traced.score_ns), "s");
    report.put(
        "cache.invalidated_frac",
        tr.invalidated as f64 / tr.held.max(1) as f64,
        "ratio",
    );
    let ckpt: Vec<f64> =
        tr.checkpoint.iter().map(|&x| x as f64 / 1e6).collect();
    report.put("persist.checkpoint_ms", median(&ckpt), "ms");
    report.put(
        "persist.wal_bytes_per_event",
        traced.wal_bytes as f64 / traced.records_replayed.max(1) as f64,
        "B",
    );
    report.put(
        "persist.records_replayed",
        traced.records_replayed as f64,
        "count",
    );
    report.put("persist.recover_s", traced.recover_s, "s");
    report.put("serve.publish_us", median(&us(&tr.publish)), "us");
    report.put("serve.frozen_entries", median(&tr.frozen_entries), "count");
    let score_ms: Vec<f64> =
        plain.score_ns.iter().map(|&x| x as f64 / 1e6).collect();
    report.put("request.p99_ms", quantile(&score_ms, 0.99), "ms");
    report.put("request.batch_size_mean", SCORE_PAIRS as f64, "count");
    report.put(
        "request.service_per_pair_us",
        median(&us(&traced.score_ns)) / SCORE_PAIRS as f64,
        "us",
    );

    let mut t = StageTotals::default();
    let cfg = inputs::ssf_config(seed);
    for (snap, pairs) in &tr.kept {
        let present = snap.present().expect("a scored snapshot has a present");
        stages::replay(
            snap.graph(),
            &cfg,
            present,
            std::slice::from_ref(pairs),
            &mut t,
            &mut report,
        );
    }
    stages::record(&t, &mut report);
    stages::forward_us(&t.rows, &mut report);
    match &traced.last_snapshot {
        Some(snap) => {
            stages::batch_fixed(snap, &mut report);
            stages::bytes_per_link(snap, &mut report);
        }
        None => {
            report.gate(false, || "the replay published no snapshot".into())
        }
    }
    report
}
