//! Seeded inputs and the shared serving set-up.
//!
//! Everything a workload feeds the program is derived from `--seed`
//! through [`Rng`] and the dataset generator, so one seed always gives
//! byte-identical pair and event lists ([`hash_pairs`], [`hash_events`]).

use std::time::Instant;

use ssf_repro::datasets::{DatasetSpec, ScaleTier};
use ssf_repro::dyngraph::{DynamicNetwork, NodeId, Timestamp};
use ssf_repro::methods::MethodOptions;
use ssf_repro::ssf_core::SsfConfig;
use ssf_repro::ssf_eval::SplitConfig;
use ssf_repro::{OnlineLinkPredictor, OnlinePredictorConfig, ScoringSnapshot};

/// Graph size a run uses. `M` is the benchmark; `Tiny` exists so the
/// benchmark's own tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// `ScaleTier::M`: 100k nodes, 300k links over 8000 ticks.
    M,
    /// `ScaleTier::M` scaled by 0.02 (2000 nodes, 6000 links).
    Tiny,
}

impl Size {
    /// The dataset spec of this size.
    pub fn spec(self) -> DatasetSpec {
        let m = DatasetSpec::tier(ScaleTier::M);
        match self {
            Size::M => m,
            Size::Tiny => m.scaled(0.02),
        }
    }
}

/// SplitMix64: a small, fully specified generator, so the inputs do not
/// depend on any library's sampling algorithm.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A uniform node id in `0..n`.
    pub fn node(&mut self, n: usize) -> NodeId {
        self.below(n as u64) as NodeId
    }
}

/// The hyperparameters every served predictor uses. The split caps keep
/// a fit bounded, so set-up measures ingest and extraction, not a
/// training set that grows with the graph.
pub fn method(seed: u64) -> MethodOptions {
    MethodOptions {
        seed,
        nm_epochs: 12,
        ..MethodOptions::default()
    }
}

/// The split the served predictors train on.
pub fn split(seed: u64) -> SplitConfig {
    SplitConfig {
        seed,
        max_positives: Some(160),
        ..SplitConfig::default()
    }
}

/// The extractor configuration `SsfnmModel` builds from [`method`]; the
/// stage replay runs the same pipeline with it.
pub fn ssf_config(seed: u64) -> SsfConfig {
    let m = method(seed);
    SsfConfig::new(m.k)
        .with_theta(m.theta)
        .with_encoding(m.ssf_encoding)
}

/// The generated links in stream order: by timestamp, ties by endpoints.
pub fn events(g: &DynamicNetwork) -> Vec<(NodeId, NodeId, Timestamp)> {
    let mut ev: Vec<_> = g.links().map(|l| (l.u, l.v, l.t)).collect();
    ev.sort_unstable_by_key(|&(u, v, t)| (t, u, v));
    ev
}

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Dataset generation (and, for the stream replay, sorting).
    pub generate_s: f64,
    /// Feeding every event through `OnlineLinkPredictor::observe`.
    pub ingest_s: f64,
    /// The explicit `try_refit` after ingest.
    pub fit_s: f64,
    /// `OnlineLinkPredictor::snapshot`.
    pub publish_s: f64,
    /// Per-call `observe` times (ns); filled only by a traced set-up.
    pub observe_ns: Vec<u64>,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.generate_s + self.ingest_s + self.fit_s + self.publish_s
    }
}

/// A fitted predictor over the whole generated graph and the snapshot
/// published from it: what `recommend` and `serve-open` score against.
pub struct Served {
    /// The generated graph (the workloads draw their pairs from it).
    pub graph: DynamicNetwork,
    /// The fitted predictor the snapshot was published from.
    pub predictor: OnlineLinkPredictor,
    /// The published snapshot.
    pub snap: ScoringSnapshot,
    /// How long each set-up step took.
    pub times: SetupTimes,
}

/// Generate, ingest, fit and publish. A traced set-up also times every
/// `observe` call.
///
/// # Panics
///
/// Panics if the generated stream cannot be fitted; the tier and its
/// split caps always can.
pub fn serve_setup(size: Size, seed: u64, trace: bool) -> Served {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let graph = size.spec().generate(seed);
    let ev = events(&graph);
    times.generate_s = t.elapsed().as_secs_f64();

    let config = OnlinePredictorConfig::builder()
        .method(method(seed))
        .refit_every(u32::MAX)
        .min_positives(40)
        .history_folds(0)
        .split(split(seed))
        .build()
        .expect("benchmark predictor configuration is valid");
    let mut predictor = OnlineLinkPredictor::new(config);
    let t = Instant::now();
    if trace {
        times.observe_ns.reserve(ev.len());
        for &(u, v, ts) in &ev {
            let t0 = Instant::now();
            predictor.observe(u, v, ts);
            times.observe_ns.push(t0.elapsed().as_nanos() as u64);
        }
    } else {
        for &(u, v, ts) in &ev {
            predictor.observe(u, v, ts);
        }
    }
    times.ingest_s = t.elapsed().as_secs_f64();
    drop(ev);

    let t = Instant::now();
    predictor
        .try_refit()
        .expect("the generated stream supports a fit");
    times.fit_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let snap = predictor.snapshot();
    times.publish_s = t.elapsed().as_secs_f64();
    Served {
        graph,
        predictor,
        snap,
        times,
    }
}

/// Candidates per `recommend` request.
pub const CANDIDATES: usize = 32;

/// One `recommend` request per entry: a focal user with
/// [`CANDIDATES`] distinct candidates from its distance-2 neighbourhood,
/// topped up with uniform random nodes when that is smaller.
pub fn recommend_requests(
    g: &DynamicNetwork,
    seed: u64,
    count: usize,
) -> Vec<Vec<(NodeId, NodeId)>> {
    let n = g.node_count();
    let mut rng = Rng::new(seed, 1);
    let mut mark = vec![u32::MAX; n];
    let mut out = Vec::with_capacity(count);
    for r in 0..count {
        let stamp = r as u32;
        let u = loop {
            let u = rng.node(n);
            if !g.neighbors(u).is_empty() {
                break u;
            }
        };
        mark[u as usize] = stamp;
        for &x in g.neighbors(u) {
            mark[x as usize] = stamp;
        }
        let mut two_hop = Vec::new();
        for &x in g.neighbors(u) {
            for &y in g.neighbors(x) {
                if mark[y as usize] != stamp {
                    mark[y as usize] = stamp;
                    two_hop.push(y);
                }
            }
        }
        // Partial Fisher-Yates: the first CANDIDATES slots are a uniform
        // sample without replacement.
        let take = two_hop.len().min(CANDIDATES);
        for i in 0..take {
            let j = i + rng.below((two_hop.len() - i) as u64) as usize;
            two_hop.swap(i, j);
        }
        two_hop.truncate(take);
        while two_hop.len() < CANDIDATES {
            let v = rng.node(n);
            if v != u && !two_hop.contains(&v) {
                two_hop.push(v);
            }
        }
        out.push(two_hop.into_iter().map(|v| (u, v)).collect());
    }
    out
}

/// `count` uniform random pairs of distinct nodes in `0..n`.
pub fn uniform_pairs(
    n: usize,
    rng: &mut Rng,
    count: usize,
) -> Vec<(NodeId, NodeId)> {
    (0..count)
        .map(|_| loop {
            let (u, v) = (rng.node(n), rng.node(n));
            if u != v {
                break (u, v);
            }
        })
        .collect()
}

/// Poisson arrival offsets (ns from the phase start) at `rate` per
/// second, covering `seconds`.
pub fn poisson_offsets(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `x`'s little-endian bytes in.
    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 =
                (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a pair list.
pub fn hash_pairs(h: &mut Fnv, pairs: &[(NodeId, NodeId)]) {
    for &(u, v) in pairs {
        h.word((u64::from(u) << 32) | u64::from(v));
    }
}

/// Digest of an event list.
pub fn hash_events(ev: &[(NodeId, NodeId, Timestamp)]) -> u64 {
    let mut h = Fnv::default();
    for &(u, v, t) in ev {
        h.word((u64::from(u) << 32) | u64::from(v));
        h.word(u64::from(t));
    }
    h.finish()
}
