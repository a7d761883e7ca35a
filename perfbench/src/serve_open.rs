//! `serve-open`: open-loop Poisson arrivals of single uniform-random
//! pairs through a `Coalescer` over a fitted snapshot, at fixed offered
//! rates. Two threads: this generator, and one `run_worker` with
//! `worker_threads(1)`. Uniform pairs share almost nothing, so the
//! extraction cache is bypassed; queueing, batch close and the cold
//! kernels do the work.
//!
//! Each request is timed from its *due* time. The generator polls the
//! oldest outstanding ticket (`Ticket::try_take`, FIFO) between
//! arrivals, so completions are seen while arrivals are still running.
//! The rates alternate in one-second sub-phases, each on a fresh
//! coalescer that drains before the next starts.

use std::collections::VecDeque;
use std::hint::spin_loop;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Instant;

use ssf_repro::dyngraph::NodeId;
use ssf_repro::{
    BatchScorer, CoalesceConfig, CoalesceStats, Coalescer, Rejection,
    ScoringSnapshot, Ticket,
};

use crate::inputs::{self, Fnv, Rng, Served, Size};
use crate::report::{median, peak_rss_mb, quantile, Report};
use crate::stages::{self, StageTotals};
use crate::SETUP_REPEATS;

/// The fixed offered rates, requests per second. Never derived from a
/// capacity measured in the run.
pub const RATES: [f64; 2] = [1000.0, 3000.0];
/// Every this many completed requests, the coalesced score is checked
/// against a direct `score_batch` over the same pairs.
const CHECK_EVERY: usize = 16;
/// Length of one sub-phase, s; the rates alternate sub-phase by
/// sub-phase.
const SUBPHASE_S: f64 = 1.0;
/// The quantile of sub-phase p50s a rate reports: the quietest quarter
/// of the run.
const QUIET: f64 = 0.25;
/// Mixed into the seed of the warm-up arrivals, so they differ from the
/// measured ones.
const WARMUP_SALT: u64 = 0x5EED_0F3A_3E00;
/// Pairs per rate whose stages the traced run replays.
const REPLAY_PAIRS: usize = 1024;
/// Lead time between building the schedule and the first arrival.
const LEAD_NS: u64 = 2_000_000;

fn coalesce_config() -> CoalesceConfig {
    CoalesceConfig::builder()
        .max_batch(32)
        .worker_threads(1)
        .build()
        .expect("benchmark coalescer configuration is valid")
}

/// One dispatched batch, in ns since the phase's base instant.
#[derive(Debug, Clone, Copy)]
struct Batch {
    start: u64,
    end: u64,
    len: usize,
}

/// A `ScoringSnapshot` that records when each batch it scores starts
/// and ends: the traced run's view of the serve layer.
struct TimedScorer {
    snap: ScoringSnapshot,
    base: Instant,
    log: Arc<Mutex<Vec<Batch>>>,
}

impl BatchScorer for TimedScorer {
    fn epoch_key(&self) -> u64 {
        self.snap.epoch_key()
    }

    fn score_batch_threads(
        &self,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Vec<Option<f64>> {
        let start = self.base.elapsed().as_nanos() as u64;
        let out = self.snap.score_batch_threads(pairs, threads);
        let end = self.base.elapsed().as_nanos() as u64;
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Batch {
                start,
                end,
                len: pairs.len(),
            });
        out
    }
}

/// One request's fate.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    Scored(Option<f64>),
    Rejected,
    Expired,
    Errored,
}

/// What one open-loop phase at one rate saw. Times are ns since `base`.
struct Phase {
    pairs: Vec<(NodeId, NodeId)>,
    due: Vec<u64>,
    sent: Vec<u64>,
    done: Vec<u64>,
    outcome: Vec<Outcome>,
    stats: CoalesceStats,
    /// First due time to last completion, s.
    wall_s: f64,
    /// Dispatched batches, traced phases only.
    batches: Vec<Batch>,
}

impl Phase {
    fn latencies_ms(&self) -> Vec<f64> {
        (0..self.due.len())
            .filter(|&i| matches!(self.outcome[i], Outcome::Scored(_)))
            .map(|i| (self.done[i] - self.due[i]) as f64 / 1e6)
            .collect()
    }

    fn completed(&self) -> usize {
        self.outcome
            .iter()
            .filter(|o| matches!(o, Outcome::Scored(_)))
            .count()
    }
}

/// Retires every completed ticket at the head of the FIFO, stamping
/// when its completion was seen.
fn poll(
    inflight: &mut VecDeque<(usize, Ticket)>,
    done: &mut [u64],
    outcome: &mut [Outcome],
    now: &impl Fn() -> u64,
) {
    while let Some((i, ticket)) = inflight.front() {
        let Some(r) = ticket.try_take() else { break };
        let i = *i;
        done[i] = now();
        outcome[i] = match r {
            Ok(s) => Outcome::Scored(s),
            Err(Rejection::DeadlineExceeded) => Outcome::Expired,
            Err(_) => Outcome::Errored,
        };
        inflight.pop_front();
    }
}

/// Drives one phase: arrivals at `offsets` (ns after the start) of
/// `pairs` through a fresh coalescer over `scorer`.
fn open_loop<S: BatchScorer + 'static>(
    scorer: S,
    base: Instant,
    pairs: Vec<(NodeId, NodeId)>,
    offsets: &[u64],
) -> Phase {
    let n = offsets.len();
    let coal = Coalescer::new(scorer, coalesce_config());
    let now = || base.elapsed().as_nanos() as u64;
    let start = now() + LEAD_NS;
    let due: Vec<u64> = offsets.iter().map(|&o| start + o).collect();
    let mut sent = vec![0; n];
    let mut done = vec![0; n];
    let mut outcome = vec![Outcome::Errored; n];
    let mut inflight: VecDeque<(usize, Ticket)> = VecDeque::new();
    thread::scope(|s| {
        let worker = coal.clone();
        let handle = s.spawn(move || worker.run_worker());
        for i in 0..n {
            while now() < due[i] {
                poll(&mut inflight, &mut done, &mut outcome, &now);
                spin_loop();
            }
            sent[i] = now();
            let (u, v) = pairs[i];
            match coal.submit(u, v) {
                Ok(t) => inflight.push_back((i, t)),
                Err(Rejection::Overloaded { .. }) => {
                    outcome[i] = Outcome::Rejected;
                }
                Err(_) => {}
            }
        }
        while !inflight.is_empty() {
            poll(&mut inflight, &mut done, &mut outcome, &now);
            spin_loop();
        }
        coal.shutdown();
        handle.join().expect("the coalescer worker does not panic");
    });
    let last = done.iter().copied().max().unwrap_or(start).max(start);
    Phase {
        pairs,
        wall_s: (last - due.first().copied().unwrap_or(start)) as f64 / 1e9,
        due,
        sent,
        done,
        outcome,
        stats: coal.stats(),
        batches: Vec::new(),
    }
}

/// One sub-phase's arrivals: pairs, and due offsets from its start (ns).
type Arrivals = (Vec<(NodeId, NodeId)>, Vec<u64>);

/// The seeded arrivals at `RATES[k]` over `seconds`, cut into
/// [`SUBPHASE_S`]-long sub-phases: `(pairs, offsets from the
/// sub-phase start)` each.
fn schedule(
    n_nodes: usize,
    seed: u64,
    k: usize,
    seconds: f64,
) -> Vec<Arrivals> {
    let offsets = inputs::poisson_offsets(
        &mut Rng::new(seed, 20 + k as u64),
        RATES[k],
        seconds,
    );
    let pairs = inputs::uniform_pairs(
        n_nodes,
        &mut Rng::new(seed, 10 + k as u64),
        offsets.len(),
    );
    let span = (SUBPHASE_S * 1e9) as u64;
    let mut subs: Vec<Arrivals> = Vec::new();
    for (pair, off) in pairs.into_iter().zip(offsets) {
        let j = (off / span) as usize;
        if subs.len() <= j {
            subs.resize_with(j + 1, Default::default);
        }
        subs[j].0.push(pair);
        subs[j].1.push(off - j as u64 * span);
    }
    subs
}

/// Digest of the first two seconds of arrivals (pairs and due offsets)
/// at every rate.
pub fn input_digest(n_nodes: usize, seed: u64) -> u64 {
    let mut h = Fnv::default();
    for k in 0..RATES.len() {
        for (pairs, offsets) in schedule(n_nodes, seed, k, 2.0) {
            inputs::hash_pairs(&mut h, &pairs);
            offsets.iter().for_each(|&o| h.word(o));
        }
    }
    h.finish()
}

/// Runs every rate for `seconds_per_rate`, alternating the rates
/// sub-phase by sub-phase so a slow spell of the host falls on both,
/// with the counter and bit-identity gates. Returns the sub-phases of
/// each rate.
fn phases(
    served: &Served,
    seed: u64,
    seconds_per_rate: f64,
    traced: bool,
    report: &mut Report,
) -> Vec<Vec<Phase>> {
    let n = served.graph.node_count();
    let mut scheds: Vec<_> = (0..RATES.len())
        .map(|k| schedule(n, seed, k, seconds_per_rate).into_iter())
        .collect();
    let mut out: Vec<Vec<Phase>> =
        (0..RATES.len()).map(|_| Vec::new()).collect();
    loop {
        let mut ran = false;
        for (k, sched) in scheds.iter_mut().enumerate() {
            let Some((pairs, offsets)) = sched.next() else {
                continue;
            };
            ran = true;
            let base = Instant::now();
            let degraded_before = served.snap.degraded_scores();
            let phase = if traced {
                let log = Arc::new(Mutex::new(Vec::new()));
                let scorer = TimedScorer {
                    snap: served.snap.clone(),
                    base,
                    log: Arc::clone(&log),
                };
                let mut p = open_loop(scorer, base, pairs, &offsets);
                p.batches = std::mem::take(
                    &mut *log.lock().unwrap_or_else(PoisonError::into_inner),
                );
                p
            } else {
                open_loop(served.snap.clone(), base, pairs, &offsets)
            };
            check(&phase, served, report);
            report.failed += served.snap.degraded_scores() - degraded_before;
            out[k].push(phase);
        }
        if !ran {
            return out;
        }
    }
}

/// Counter reconciliation and the coalesced-vs-direct bit-identity gate.
fn check(p: &Phase, served: &Served, report: &mut Report) {
    let sent = p.due.len() as u64;
    let count = |f: fn(&Outcome) -> bool| {
        p.outcome.iter().filter(|o| f(o)).count() as u64
    };
    let completed = count(|o| matches!(o, Outcome::Scored(_)));
    let rejected = count(|o| matches!(o, Outcome::Rejected));
    let expired = count(|o| matches!(o, Outcome::Expired));
    let errored = count(|o| matches!(o, Outcome::Errored));
    let none = count(|o| matches!(o, Outcome::Scored(None)));
    report.attempted += sent;
    report.failed += rejected + expired + errored + none;
    report.gate(completed + rejected + expired + errored == sent, || {
        format!("sent {sent} != completed {completed} + rejected {rejected} + expired {expired} + errored {errored}")
    });
    let st = &p.stats;
    report.gate(
        st.submitted == sent
            && st.completed == completed
            && st.rejected_overload == rejected
            && st.expired == expired
            && st.accepted == st.completed + st.expired,
        || format!("coalescer stats {st:?} do not reconcile with the generator's counts"),
    );
    if !p.batches.is_empty() {
        let batched: usize = p.batches.iter().map(|b| b.len).sum();
        report.gate(batched as u64 == completed, || {
            format!("{batched} pairs in traced batches, {completed} completed")
        });
    }
    let sample: Vec<usize> = (0..p.due.len())
        .filter(|&i| matches!(p.outcome[i], Outcome::Scored(_)))
        .step_by(CHECK_EVERY)
        .collect();
    let pairs: Vec<_> = sample.iter().map(|&i| p.pairs[i]).collect();
    let direct = served.snap.score_batch(&pairs);
    for (&i, d) in sample.iter().zip(direct) {
        if let Outcome::Scored(s) = p.outcome[i] {
            report.gate(s.map(f64::to_bits) == d.map(f64::to_bits), || {
                format!(
                    "coalesced score of {:?} differs from direct score_batch",
                    p.pairs[i]
                )
            });
        }
    }
}

/// The per-request ledger of a traced phase: each completed request's
/// latency split into queue wait (due → batch start), service (batch
/// start → end) and retire (batch end → completion seen). Requests map
/// to batches in FIFO order.
struct Ledger {
    queue_wait_us: Vec<f64>,
    service_us: Vec<f64>,
    retire_us: Vec<f64>,
    /// Generator lateness plus retire time, summed: latency spent in
    /// this harness rather than in the program.
    harness_ns: u64,
    latency_ns: u64,
}

fn ledger(p: &Phase, report: &mut Report) -> Ledger {
    let mut l = Ledger {
        queue_wait_us: Vec::new(),
        service_us: Vec::new(),
        retire_us: Vec::new(),
        harness_ns: 0,
        latency_ns: 0,
    };
    let mut batches = p.batches.iter();
    let mut cur: Option<Batch> = None;
    let mut left = 0;
    for i in 0..p.due.len() {
        if !matches!(p.outcome[i], Outcome::Scored(_)) {
            continue;
        }
        if left == 0 {
            cur = batches.next().copied();
            left = cur.map_or(0, |b| b.len);
        }
        let Some(b) = cur else {
            report.gate(false, || "more completions than batched pairs".into());
            return l;
        };
        left -= 1;
        let ordered = p.due[i] <= p.sent[i]
            && p.sent[i] <= b.start
            && b.start <= b.end
            && b.end <= p.done[i];
        report.gate(ordered, || {
            format!("request {i}: due/sent/start/end/done out of order")
        });
        if !ordered {
            continue;
        }
        let (qw, svc, ret) =
            (b.start - p.due[i], b.end - b.start, p.done[i] - b.end);
        report.gate(qw + svc + ret == p.done[i] - p.due[i], || {
            format!("request {i}: stages do not sum to its latency")
        });
        l.queue_wait_us.push(qw as f64 / 1e3);
        l.service_us.push(svc as f64 / 1e3);
        l.retire_us.push(ret as f64 / 1e3);
        l.harness_ns += (p.sent[i] - p.due[i]) + ret;
        l.latency_ns += p.done[i] - p.due[i];
    }
    l
}

/// The p50 latency (ms) of each sub-phase.
fn subphase_p50s(ps: &[Phase]) -> Vec<f64> {
    ps.iter()
        .map(Phase::latencies_ms)
        .filter(|l| !l.is_empty())
        .map(|l| median(&l))
        .collect()
}

/// The gated latency: the mean over the rates of the lower quartile of
/// each rate's sub-phase p50s.
fn gated_p50_ms(rates: &[Vec<Phase>]) -> f64 {
    rates
        .iter()
        .map(|ps| quantile(&subphase_p50s(ps), QUIET))
        .sum::<f64>()
        / rates.len() as f64
}

/// Latency percentiles and generator lateness of one rate's
/// sub-phases. The p50 is also reported as the lower quartile of the
/// sub-phase p50s: near saturation, a slow spell of the host collapses
/// the queue for as long as it lasts, and this figure stays put unless
/// the spell covers three quarters of the run.
fn phase_metrics(tag: &str, ps: &[Phase], report: &mut Report) {
    let lat: Vec<f64> = ps.iter().flat_map(Phase::latencies_ms).collect();
    report.put(&format!("serve.{tag}.p50_ms"), median(&lat), "ms");
    report.put(&format!("serve.{tag}.p90_ms"), quantile(&lat, 0.90), "ms");
    report.put(&format!("serve.{tag}.p99_ms"), quantile(&lat, 0.99), "ms");
    let sub = subphase_p50s(ps);
    let windowed = quantile(&sub, QUIET);
    report.notes.push(format!(
        "{tag}.subphase_p50_ms {:?}",
        sub.iter()
            .map(|x| (x * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    ));
    report.put(&format!("serve.{tag}.windowed_p50_ms"), windowed, "ms");
    let late: Vec<f64> = ps
        .iter()
        .flat_map(|p| {
            p.sent
                .iter()
                .zip(&p.due)
                .map(|(&s, &d)| (s - d) as f64 / 1e3)
        })
        .collect();
    report.put(
        &format!("generator.{tag}.late_p99_us"),
        quantile(&late, 0.99),
        "us",
    );
    report.put(
        &format!("generator.{tag}.late_max_us"),
        late.iter().copied().fold(0.0, f64::max),
        "us",
    );
    report.put(&format!("serve.{tag}.sent"), late.len() as f64, "count");
}

fn tag(k: usize) -> String {
    format!("r{}", RATES[k] as u64)
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
    report.notes.push(format!(
        "inputs_hash {:016x}",
        input_digest(served.graph.node_count(), seed)
    ));

    // One untimed sub-phase per rate first: the first second after
    // set-up runs slow on some hosts, and no metric should depend on it.
    phases(&served, seed ^ WARMUP_SALT, SUBPHASE_S, false, &mut report);
    let per_rate = seconds / RATES.len() as f64;
    if !trace {
        let ps = phases(&served, seed, per_rate, false, &mut report);
        for (k, p) in ps.iter().enumerate() {
            phase_metrics(&tag(k), p, &mut report);
        }
        let completed: usize = ps.iter().flatten().map(Phase::completed).sum();
        let wall: f64 = ps.iter().flatten().map(|p| p.wall_s).sum();
        report.put("throughput_per_s", completed as f64 / wall, "1/s");
        report.put("p50_ms", gated_p50_ms(&ps), "ms");
        report.put("peak_rss_mb", peak_rss_mb(), "MiB");
        return report;
    }

    // Traced run: untraced phases, then phases behind the timed scorer.
    let plain = phases(&served, seed, per_rate / 2.0, false, &mut report);
    let traced = phases(&served, seed, per_rate / 2.0, true, &mut report);
    let pooled = |ps: &[Vec<Phase>]| -> Vec<f64> {
        ps.iter().flatten().flat_map(Phase::latencies_ms).collect()
    };
    report.put(
        "trace.overhead_frac",
        gated_p50_ms(&traced) / gated_p50_ms(&plain) - 1.0,
        "ratio",
    );
    report.put("request.p99_ms", quantile(&pooled(&plain), 0.99), "ms");
    let (mut harness, mut latency, mut service_ns, mut pairs, mut batches) =
        (0u64, 0u64, 0u64, 0usize, 0usize);
    let mut replay_batches = Vec::new();
    for (k, ps) in traced.iter().enumerate() {
        let tag = tag(k);
        phase_metrics(&format!("traced.{tag}"), ps, &mut report);
        let (mut qw, mut svc_us, mut ret) =
            (Vec::new(), Vec::new(), Vec::new());
        let (mut svc, mut n, mut nb, mut wall) = (0u64, 0usize, 0usize, 0.0);
        let mut replay_pairs = 0;
        for p in ps {
            let l = ledger(p, &mut report);
            harness += l.harness_ns;
            latency += l.latency_ns;
            qw.extend(l.queue_wait_us);
            svc_us.extend(l.service_us);
            ret.extend(l.retire_us);
            svc += p.batches.iter().map(|b| b.end - b.start).sum::<u64>();
            n += p.batches.iter().map(|b| b.len).sum::<usize>();
            nb += p.batches.len();
            wall += p.wall_s;
            // Replay the first batches as they were coalesced.
            let mut next = 0;
            for b in &p.batches {
                if replay_pairs >= REPLAY_PAIRS {
                    break;
                }
                let mut batch = Vec::with_capacity(b.len);
                while batch.len() < b.len && next < p.due.len() {
                    if matches!(p.outcome[next], Outcome::Scored(_)) {
                        batch.push(p.pairs[next]);
                    }
                    next += 1;
                }
                replay_pairs += batch.len();
                replay_batches.push(batch);
            }
        }
        service_ns += svc;
        pairs += n;
        batches += nb;
        let c = format!("coalesce.{tag}");
        report.put(&format!("{c}.queue_wait_p50_us"), median(&qw), "us");
        report.put(&format!("{c}.service_p50_us"), median(&svc_us), "us");
        report.put(
            &format!("{c}.service_per_pair_us"),
            svc as f64 / 1e3 / n.max(1) as f64,
            "us",
        );
        report.put(&format!("{c}.retire_p50_us"), median(&ret), "us");
        report.put(
            &format!("{c}.batch_size_mean"),
            n as f64 / nb.max(1) as f64,
            "count",
        );
        report.put(
            &format!("{c}.worker_busy_frac"),
            svc as f64 / 1e9 / wall,
            "ratio",
        );
        let rejected: u64 = ps.iter().map(|p| p.stats.rejected()).sum();
        let expired: u64 = ps.iter().map(|p| p.stats.expired).sum();
        report.put(&format!("{c}.rejected"), rejected as f64, "count");
        report.put(&format!("{c}.expired"), expired as f64, "count");
    }
    report.put(
        "trace.unattributed_frac",
        harness as f64 / latency.max(1) as f64,
        "ratio",
    );
    report.put(
        "request.service_per_pair_us",
        service_ns as f64 / 1e3 / pairs.max(1) as f64,
        "us",
    );
    report.put(
        "request.batch_size_mean",
        pairs as f64 / batches.max(1) as f64,
        "count",
    );

    let snap = &served.snap;
    let present = snap.present().expect("a fitted snapshot has a present");
    let mut t = StageTotals::default();
    stages::replay(
        snap.graph(),
        &inputs::ssf_config(seed),
        present,
        &replay_batches,
        &mut t,
        &mut report,
    );
    stages::record(&t, &mut report);
    stages::forward_us(&t.rows, &mut report);
    stages::serve_layers(&served.predictor, snap, &mut report);
    report
}
