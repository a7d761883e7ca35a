//! Concurrency suite: the snapshot read path under a live writer, and
//! the sharding equivalence contracts.
//!
//! Three contracts:
//!
//! 1. *Liveness*: a writer thread interleaving `observe` + `snapshot`
//!    with reader threads running `score_batch_parallel` completes —
//!    the read path only locks the cache pool for a push or pop, so the
//!    scope ending at all is the no-deadlock assertion — and every
//!    published epoch is internally
//!    consistent (`epoch == network.revision()`, `model_epoch ≤ epoch`,
//!    `fitted ⇔ model_epoch.is_some()`).
//! 2. *Determinism*: `score_batch_parallel` is bit-identical to the
//!    serial path at every thread count.
//! 3. *Sharding*: one shard is bit-for-bit the unsharded predictor
//!    (property-tested over random streams), and N shards score exactly
//!    like N standalone predictors fed the owner-routed substreams.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;

use proptest::prelude::*;
use ssf_repro::datasets::DatasetSpec;
use ssf_repro::prelude::*;

#[allow(clippy::expect_used)] // test helper
fn quick_config(seed: u64) -> OnlinePredictorConfig {
    OnlinePredictorConfig::builder()
        .method(MethodOptions {
            nm_epochs: 15,
            seed,
            ..MethodOptions::default()
        })
        .refit_every(5)
        .min_positives(10)
        .history_folds(1)
        .build()
        .expect("valid concurrency configuration")
}

/// A fit-capable synthetic stream in timestamp order.
fn stream_events() -> Vec<(NodeId, NodeId, Timestamp)> {
    let g = DatasetSpec::coauthor().scaled(0.15).generate(9);
    let mut events: Vec<_> = g.links().map(|l| (l.u, l.v, l.t)).collect();
    events.sort_by_key(|&(_, _, t)| t);
    events
}

fn bits(scores: &[Option<f64>]) -> Vec<Option<u64>> {
    scores.iter().map(|s| s.map(f64::to_bits)).collect()
}

/// Every snapshot a reader can observe must be internally consistent,
/// and its parallel batch must bit-match its own serial batch.
#[allow(clippy::unwrap_used)] // test assertions
fn check_snapshot(snap: &ScoringSnapshot, pairs: &[(NodeId, NodeId)]) {
    assert_eq!(
        snap.epoch(),
        snap.graph().revision(),
        "published epoch must equal the frozen graph's revision"
    );
    assert_eq!(
        snap.is_fitted(),
        snap.model_epoch().is_some(),
        "fitted flag and model epoch must agree atomically"
    );
    if let Some(me) = snap.model_epoch() {
        assert!(me <= snap.epoch(), "model from the future: {me}");
    }
    let serial = snap.score_batch(pairs);
    let parallel = snap.score_batch_parallel(pairs, 2);
    assert_eq!(bits(&serial), bits(&parallel), "reader batch diverged");
}

/// One writer keeps observing and publishing; three readers hammer the
/// latest snapshot with parallel batches the whole time. The scope
/// ending is the no-deadlock assertion.
#[test]
#[allow(clippy::unwrap_used)] // mutex in a test; poisoning is a failure
fn concurrent_publish_and_score_never_deadlocks() {
    let events = stream_events();
    let pairs: Vec<(NodeId, NodeId)> =
        vec![(0, 1), (2, 7), (3, 3), (5, 900), (1, 4), (0, 1), (6, 2)];
    let latest: Mutex<Option<ScoringSnapshot>> = Mutex::new(None);
    let done = AtomicBool::new(false);

    thread::scope(|s| {
        s.spawn(|| {
            let mut p = OnlineLinkPredictor::new(quick_config(7));
            for (i, &(u, v, t)) in events.iter().enumerate() {
                p.observe(u, v, t);
                if i % 5 == 0 {
                    *latest.lock().unwrap() = Some(p.snapshot());
                }
            }
            *latest.lock().unwrap() = Some(p.snapshot());
            done.store(true, Ordering::Release);
        });
        for _ in 0..3 {
            s.spawn(|| {
                let mut seen = 0u64;
                loop {
                    let finished = done.load(Ordering::Acquire);
                    let snap = latest.lock().unwrap().clone();
                    if let Some(snap) = snap {
                        check_snapshot(&snap, &pairs);
                        seen += 1;
                    }
                    if finished {
                        break;
                    }
                }
                assert!(seen > 0, "reader never saw a snapshot");
            });
        }
    });
}

/// The parallel ladder: every thread count returns the serial bits.
#[test]
fn score_batch_parallel_is_bit_identical_at_every_thread_count() {
    let mut p = OnlineLinkPredictor::new(quick_config(3));
    for &(u, v, t) in &stream_events() {
        p.observe(u, v, t);
    }
    assert!(p.is_fitted(), "stream must support a fit");
    let n = p.network().node_count() as NodeId;
    let pairs: Vec<(NodeId, NodeId)> = (0..96u32)
        .map(|i| ((i * 7) % n, (i * 11 + 1) % n))
        .collect();
    let snap = p.snapshot();
    let serial = snap.score_batch(&pairs);
    assert!(
        serial.iter().any(Option::is_some),
        "the ladder must score real values"
    );
    // The snapshot must also bit-match the live predictor at publish.
    let live: Vec<Option<f64>> =
        pairs.iter().map(|&(u, v)| p.score(u, v)).collect();
    assert_eq!(bits(&serial), bits(&live), "snapshot diverged from live");
    for threads in [1, 2, 4, 8] {
        let parallel = snap.score_batch_parallel(&pairs, threads);
        assert_eq!(
            bits(&serial),
            bits(&parallel),
            "diverged at {threads} threads"
        );
    }
}

/// N shards score exactly like N standalone predictors fed the
/// owner-routed substreams — the documented sharding semantics.
#[test]
#[allow(clippy::expect_used)] // test setup
fn sharded_scores_match_standalone_substream_predictors() {
    const SHARDS: usize = 3;
    let events = stream_events();
    let mut sharded = ShardedPredictor::new(quick_config(5), SHARDS)
        .expect("valid concurrency configuration");
    let mut standalone: Vec<OnlineLinkPredictor> = (0..SHARDS)
        .map(|_| OnlineLinkPredictor::new(quick_config(5)))
        .collect();
    for &(u, v, t) in &events {
        sharded.observe(u, v, t);
        standalone[u.min(v) as usize % SHARDS].observe(u, v, t);
    }
    let n = sharded
        .shard_healths()
        .iter()
        .map(|h| h.accepted)
        .sum::<u64>();
    assert_eq!(n, events.len() as u64);
    let node_count =
        events.iter().map(|&(u, v, _)| u.max(v)).max().unwrap_or(0);
    let pairs: Vec<(NodeId, NodeId)> = (0..node_count)
        .map(|u| (u, (u * 13 + 1) % (node_count + 1)))
        .collect();
    let snap = sharded.snapshot();
    for &(u, v) in &pairs {
        let owner = sharded.shard_of(u, v);
        let want = standalone[owner].score(u, v).map(f64::to_bits);
        assert_eq!(
            sharded.score(u, v).map(f64::to_bits),
            want,
            "sharded.score diverged on ({u}, {v})"
        );
        assert_eq!(
            snap.score(u, v).map(f64::to_bits),
            want,
            "sharded snapshot diverged on ({u}, {v})"
        );
    }
    let batch = sharded.score_batch(&pairs);
    let routed: Vec<Option<f64>> = pairs
        .iter()
        .map(|&(u, v)| standalone[sharded.shard_of(u, v)].score(u, v))
        .collect();
    assert_eq!(bits(&batch), bits(&routed), "grouped batch diverged");
}

proptest! {
    // Every case streams a network and may fit several MLPs; keep the
    // case count small like the stream property in `properties.rs`.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One shard *is* the unsharded predictor: same acceptance, same
    /// health counters, same score bits over random interleavings.
    #[test]
    fn one_shard_is_bit_identical_to_unsharded(
        events in prop::collection::vec(
            (0..12u32, 0..12u32).prop_filter("no self-loops", |(u, v)| u != v),
            30..80,
        ),
        seed in 0..10u64,
    ) {
        let config = OnlinePredictorConfig::builder()
            .method(MethodOptions {
                nm_epochs: 10,
                seed,
                ..MethodOptions::default()
            })
            .refit_every(8)
            .min_positives(6)
            .history_folds(0)
            .build()
            .expect("valid property configuration");
        let mut plain = OnlineLinkPredictor::new(config.clone());
        let mut sharded = ShardedPredictor::new(config, 1)
            .expect("valid property configuration");
        let pairs: Vec<(NodeId, NodeId)> =
            vec![(0, 1), (1, 0), (2, 7), (3, 3), (5, 40), (0, 11)];
        for (i, &(u, v)) in events.iter().enumerate() {
            let t = 1 + i as Timestamp / 3;
            let a = plain.observe(u, v, t);
            let b = sharded.observe(u, v, t);
            prop_assert_eq!(
                a.is_accepted(),
                b.is_accepted(),
                "acceptance diverged at event {}", i
            );
            if i % 13 != 0 {
                continue;
            }
            for &(u, v) in &pairs {
                let x = plain.score(u, v).map(f64::to_bits);
                let y = sharded.score(u, v).map(f64::to_bits);
                prop_assert_eq!(
                    x, y,
                    "score({}, {}) diverged at event {}", u, v, i
                );
            }
        }
        let (ph, sh) = (plain.health(), sharded.health());
        prop_assert_eq!(ph.accepted, sh.accepted);
        prop_assert_eq!(ph.quarantined, sh.quarantined);
        prop_assert_eq!(ph.fitted, sh.fitted);
        prop_assert_eq!(ph.model_epoch, sh.model_epoch);
        prop_assert_eq!(ph.graph_revision, sh.graph_revision);
    }
}
