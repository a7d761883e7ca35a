//! Concurrent serving: immutable scoring snapshots and sharded ingestion.
//!
//! The paper's serving story (§V) interleaves two workloads: timestamped
//! links *stream in* while candidate-pair *queries* arrive. The online
//! predictor is `&mut self` end-to-end — correct, but a single writer
//! monopolizes it, so score throughput is capped at one core and every
//! `observe` stalls all scoring. This module splits the two roles:
//!
//! * [`ScoringSnapshot`] — an immutable, `Arc`-published *epoch* of the
//!   predictor (graph + fitted model + frozen extraction-cache view).
//!   Snapshots are `Send + Sync` and cheap to clone, so any number of
//!   reader threads score concurrently — [`ScoringSnapshot::score_batch_parallel`]
//!   fans one batch out across scoped threads — while the writer keeps
//!   ingesting and refitting, then publishes the next epoch. Scores are
//!   **bit-identical** to the serial predictor paths: every route goes
//!   through the same extraction pipeline, and caches never change values
//!   (`tests/concurrency.rs` proves it under live interleavings).
//! * [`ShardedPredictor`] — N independent single-writer ingest cores over
//!   a partition of the node space. A pair `(u, v)` is owned by shard
//!   `min(u, v) % N`, so every pair has exactly one home for both
//!   ingestion and scoring, and disjoint shards ingest in parallel
//!   ([`ShardedPredictor::observe_batch_parallel`]). Health, stream and
//!   cache statistics merge across shards.
//!
//! This module is also the canonical home of the serving-surface types
//! ([`Health`], [`StreamStats`], [`Observed`], [`QuarantineReason`]);
//! their old `ssf_repro::stream::*` paths remain as deprecated aliases
//! for one release. Import from [`crate::prelude`] or the crate root.

use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use dyngraph::{
    DeltaGraph, GraphView, NodeId, OverlayView, StorageMode, Timestamp, Window,
};
use obs::{labeled, ObsHandle, Snapshot};
use ssf_core::{CacheStats, ExtractionCache, FrozenCacheView};
use ssf_persist::SnapshotReader;

use crate::durability::{self, PersistedState};
use crate::error::{ConfigError, SsfError};
use crate::stream::{FittedModel, OnlineLinkPredictor, OnlinePredictorConfig};

/// Why an event was quarantined instead of entering the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuarantineReason {
    /// Both endpoints are the same node.
    SelfLoop,
    /// An identical `(u, v, t)` event was already recorded
    /// (only with [`OnlinePredictorConfig::quarantine_duplicates`]).
    Duplicate,
    /// The timestamp trails the newest observed one by more than
    /// [`OnlinePredictorConfig::max_lag`] ticks.
    Stale {
        /// How many ticks behind the stream head the event arrived.
        lag: u32,
    },
    /// The timestamp precedes the sliding window's cutoff — the link
    /// expired before it arrived (only with
    /// [`OnlinePredictorConfig::window`]). Endpoints remain known.
    OutOfWindow {
        /// The inclusive lower bound the timestamp fell short of.
        cutoff: u32,
    },
}

/// Outcome of feeding one event to [`OnlineLinkPredictor::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// The event entered the network.
    Accepted,
    /// The event was counted and dropped; its endpoints remain known.
    Quarantined(QuarantineReason),
}

impl Observed {
    /// `true` when the event entered the network.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Observed::Accepted)
    }
}

/// Running tallies of stream hygiene and degradation.
#[derive(Debug, Default)]
pub struct StreamStats {
    /// Events that entered the network.
    pub accepted: u64,
    /// Quarantined self-loop events.
    pub self_loops: u64,
    /// Quarantined duplicate events.
    pub duplicates: u64,
    /// Quarantined stale events.
    pub stale: u64,
    /// Quarantined events whose timestamp predated the window cutoff.
    pub out_of_window: u64,
    /// Refit attempts that produced a model.
    pub successful_refits: u64,
    /// Refit attempts that failed (model unchanged).
    pub failed_refits: u64,
    /// Scores served by the common-neighbor fallback instead of the
    /// model. Atomic because scoring takes `&self`.
    pub(crate) degraded_scores: AtomicU64,
}

impl StreamStats {
    /// Total quarantined events, all reasons.
    pub fn quarantined(&self) -> u64 {
        self.self_loops + self.duplicates + self.stale + self.out_of_window
    }

    /// Scores served by the degraded fallback path.
    pub fn degraded_scores(&self) -> u64 {
        self.degraded_scores.load(Ordering::Relaxed)
    }

    /// Folds another tally into this one — how [`ShardedPredictor`]
    /// aggregates its per-shard accounts.
    pub fn merge(&mut self, other: &StreamStats) {
        self.accepted += other.accepted;
        self.self_loops += other.self_loops;
        self.duplicates += other.duplicates;
        self.stale += other.stale;
        self.out_of_window += other.out_of_window;
        self.successful_refits += other.successful_refits;
        self.failed_refits += other.failed_refits;
        self.degraded_scores
            .fetch_add(other.degraded_scores(), Ordering::Relaxed);
    }
}

impl Clone for StreamStats {
    fn clone(&self) -> Self {
        StreamStats {
            accepted: self.accepted,
            self_loops: self.self_loops,
            duplicates: self.duplicates,
            stale: self.stale,
            out_of_window: self.out_of_window,
            successful_refits: self.successful_refits,
            failed_refits: self.failed_refits,
            degraded_scores: AtomicU64::new(self.degraded_scores()),
        }
    }
}

/// Point-in-time health snapshot of an [`OnlineLinkPredictor`] (or the
/// merged view of a [`ShardedPredictor`]).
///
/// `fitted` and `model_epoch` are read from one atomically-replaced
/// model slot, so they can never disagree: `fitted` is `true` exactly
/// when `model_epoch` is `Some` (regression-tested — a snapshot taken
/// mid-refit used to be able to pair the new flag with the old model).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Health {
    /// Whether a model is currently serving.
    pub fitted: bool,
    /// Graph revision the serving model was fitted at; `None` before the
    /// first successful refit. Always consistent with `fitted`.
    pub model_epoch: Option<u64>,
    /// Current graph revision (total accepted mutations; summed across
    /// shards in a merged health).
    pub graph_revision: u64,
    /// Events accepted into the network.
    pub accepted: u64,
    /// Events quarantined, all reasons combined.
    pub quarantined: u64,
    /// Scores served by the degraded fallback path.
    pub degraded_scores: u64,
    /// Refit attempts that produced a model.
    pub successful_refits: u64,
    /// Refit attempts that failed.
    pub failed_refits: u64,
    /// Current backoff multiplier on the refit interval (1 = healthy;
    /// the worst shard in a merged health).
    pub current_backoff: u32,
    /// Rendered error of the most recent failed refit, cleared on success.
    pub last_refit_error: Option<String>,
    /// Metrics snapshot from the predictor's recorder. Empty when the
    /// predictor runs with the no-op handle (see
    /// [`OnlineLinkPredictor::with_recorder`]).
    pub metrics: Snapshot,
}

/// Degraded scorer: `cn / (cn + 1)` over distinct common neighbors —
/// monotone in CN and bounded in `[0, 1)` like a probability.
pub(crate) fn common_neighbor_fallback<G: GraphView + ?Sized>(
    g: &G,
    u: NodeId,
    v: NodeId,
) -> f64 {
    let a = g.neighbors(u);
    let b = g.neighbors(v);
    let (mut i, mut j, mut cn) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                cn += 1;
                i += 1;
                j += 1;
            }
        }
    }
    cn as f64 / (cn as f64 + 1.0)
}

/// Idle extraction caches, shared by a predictor and every snapshot it
/// publishes so that a scoring call reuses an earlier call's scratch
/// buffers — the graph-sized BFS arrays and the Palette-WL tables —
/// instead of building them afresh.
///
/// A call takes a cache, re-seeds it for its own epoch, and hands it
/// back; the pool therefore never holds more caches than calls that ran
/// at the same time. Caches are cleared on return, so an idle cache
/// pins no memo entry and no frozen view of an old epoch.
#[derive(Debug, Default)]
pub(crate) struct CachePool {
    idle: Mutex<Vec<ExtractionCache>>,
}

impl CachePool {
    /// Runs `f` on a pooled cache (a new one when none is idle). The
    /// cache holds no memo entries and no frozen view when `f` gets it.
    pub(crate) fn with<R>(
        &self,
        f: impl FnOnce(&mut ExtractionCache) -> R,
    ) -> R {
        let mut cache = self.idle().pop().unwrap_or_default();
        let out = f(&mut cache);
        cache.clear();
        self.idle().push(cache);
        out
    }

    fn idle(&self) -> MutexGuard<'_, Vec<ExtractionCache>> {
        // Every update is one push or pop, so a pool whose holder
        // panicked is still a valid pool.
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One immutable epoch of a predictor: graph, fitted model and a frozen
/// extraction-cache view, published together.
///
/// Created by [`OnlineLinkPredictor::snapshot`]. The snapshot is a value:
/// later `observe`/`try_refit` calls on the predictor never change it, and
/// cloning shares one `Arc` allocation. All scoring paths return exactly
/// what the predictor's own [`score`]/[`score_batch`] returned at publish
/// time, bit for bit — including the `None` cases and the common-neighbor
/// degradation.
///
/// # Example
///
/// ```rust
/// use std::thread;
///
/// use ssf_repro::prelude::*;
///
/// let mut p = OnlineLinkPredictor::new(OnlinePredictorConfig::default());
/// p.observe(0, 1, 1);
/// p.observe(1, 2, 2);
/// let snap = p.snapshot();
/// thread::scope(|s| {
///     for _ in 0..4 {
///         let snap = snap.clone();
///         s.spawn(move || snap.score_batch(&[(0, 2), (1, 2)]));
///     }
/// });
/// // The writer kept going the whole time:
/// p.observe(0, 2, 3);
/// assert_eq!(snap.epoch() + 1, p.network().revision());
/// ```
///
/// [`score`]: OnlineLinkPredictor::score
/// [`score_batch`]: OnlineLinkPredictor::score_batch
#[derive(Debug, Clone)]
pub struct ScoringSnapshot {
    inner: Arc<SnapshotInner>,
}

#[derive(Debug)]
struct SnapshotInner {
    /// Copy-on-write view of the predictor's graph at publish: a shared
    /// frozen CSR base plus the delta rows, captured with `Arc` clones.
    graph: OverlayView,
    model: Option<Arc<FittedModel>>,
    frozen: FrozenCacheView,
    /// Graph revision at publish; always equals `graph.revision()`.
    epoch: u64,
    /// `max_timestamp + 1` at publish — the fixed prediction time.
    present: Option<Timestamp>,
    /// The sliding window at publish; `None` for an unbounded
    /// predictor. Epoch-staged batchers fold it into their batch key
    /// so one batch never mixes windows.
    window: Option<Window>,
    degraded_scores: AtomicU64,
    obs: ObsHandle,
    /// Recycled per-call caches, shared with the publishing predictor.
    pool: Arc<CachePool>,
}

impl ScoringSnapshot {
    /// Publishes the predictor's current epoch as an immutable snapshot.
    /// The graph is captured as a copy-on-write [`OverlayView`] — `Arc`
    /// clones of the frozen base plus the delta rows, O(delta) rather
    /// than a graph-sized copy. The view preserves the revision counter,
    /// so the frozen cache view stays valid for the snapshot's lifetime.
    pub(crate) fn publish(p: &OnlineLinkPredictor) -> Self {
        let graph = p.published_graph();
        let epoch = graph.revision();
        let present = graph.max_timestamp().map(|t| t.saturating_add(1));
        ScoringSnapshot {
            inner: Arc::new(SnapshotInner {
                model: p.fitted.clone(),
                frozen: p.cache.freeze(),
                epoch,
                present,
                window: p.window(),
                graph,
                degraded_scores: AtomicU64::new(0),
                obs: p.recorder().clone(),
                pool: Arc::clone(&p.pool),
            }),
        }
    }

    /// Loads a checkpoint written by
    /// [`OnlineLinkPredictor::checkpoint`] (or the CLI `save` command)
    /// directly into a servable snapshot — no predictor, no WAL replay,
    /// no rebuild. This is the read-only fast path for replicas that
    /// serve a point-in-time state: the file's graph revision becomes
    /// the snapshot epoch and its persisted model (if any) serves
    /// scores exactly as it did on the writer.
    ///
    /// The extraction cache starts cold (the on-disk format does not
    /// carry memoized subgraphs — they are pure functions of the graph)
    /// and telemetry is detached; both only affect speed, never
    /// scores.
    ///
    /// # Errors
    ///
    /// [`SsfError::Io`] when the file cannot be read,
    /// [`SsfError::Corrupt`] when any section fails its checksum or
    /// the decoded state violates its invariants.
    pub fn load(path: &Path) -> Result<Self, SsfError> {
        let reader = SnapshotReader::open(path)?;
        let PersistedState {
            graph, model, meta, ..
        } = durability::decode_state(&reader)?;
        let graph = DeltaGraph::new(Arc::new(graph)).publish();
        let epoch = graph.revision();
        // Saturate: the graph comes off disk, and a max timestamp of
        // u32::MAX must not wrap the serving horizon back to 0.
        let present = graph.max_timestamp().map(|t| t.saturating_add(1));
        let model = match (model, meta.model_epoch) {
            (Some(model), Some(epoch)) => {
                Some(Arc::new(FittedModel { model, epoch }))
            }
            _ => None,
        };
        Ok(ScoringSnapshot {
            inner: Arc::new(SnapshotInner {
                graph,
                model,
                frozen: ExtractionCache::new().freeze(),
                epoch,
                present,
                window: meta.window,
                degraded_scores: AtomicU64::new(0),
                obs: ObsHandle::noop(),
                pool: Arc::default(),
            }),
        })
    }

    /// The graph revision this snapshot was published at. Equals
    /// [`Self::graph`]`.revision()` — every epoch is internally
    /// consistent by construction.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The physical layout of the frozen base graph this snapshot
    /// serves from — [`StorageMode::Wide`] or [`StorageMode::Compact`],
    /// never [`StorageMode::Auto`] (the policy has already resolved by
    /// publish time). Exposed so operators can confirm which
    /// representation a replica is actually holding; the same value is
    /// emitted as the `ssf.graph.storage_mode` gauge.
    pub fn storage_mode(&self) -> StorageMode {
        self.inner.graph.base().storage_mode()
    }

    /// Graph revision the serving model was fitted at; `None` when no
    /// model had been fitted by publish time. Never exceeds
    /// [`Self::epoch`].
    pub fn model_epoch(&self) -> Option<u64> {
        self.inner.model.as_ref().map(|m| m.epoch)
    }

    /// Whether a fitted model is serving (equivalent to
    /// `model_epoch().is_some()`).
    pub fn is_fitted(&self) -> bool {
        self.inner.model.is_some()
    }

    /// The frozen graph view this snapshot scores against.
    pub fn graph(&self) -> &OverlayView {
        &self.inner.graph
    }

    /// Links the publishing predictor had accumulated on top of its
    /// shared frozen base — the delta the publish cost was proportional
    /// to (0 right after a compaction or for an untouched graph).
    pub fn delta_links(&self) -> usize {
        self.inner.graph.delta_link_count()
    }

    /// The fixed prediction timestamp (`max_timestamp + 1` at publish),
    /// `None` for an empty network.
    pub fn present(&self) -> Option<Timestamp> {
        self.inner.present
    }

    /// The sliding window this snapshot was published under, `None`
    /// for an unbounded predictor. Checkpoints round-trip it, so a
    /// replica loaded with [`Self::load`] reports the writer's window.
    pub fn window(&self) -> Option<Window> {
        self.inner.window
    }

    /// Scores served by the common-neighbor fallback *through this
    /// snapshot* (per-snapshot tally; the predictor's own
    /// [`StreamStats::degraded_scores`] is not retro-incremented).
    pub fn degraded_scores(&self) -> u64 {
        self.inner.degraded_scores.load(Ordering::Relaxed)
    }

    /// Frozen cache warmth carried over from the predictor, as
    /// `(balls, pairs)` entry counts.
    pub fn frozen_entries(&self) -> (usize, usize) {
        self.inner.frozen.len()
    }

    /// Scores one candidate pair — same contract and same bits as
    /// [`OnlineLinkPredictor::score`] at publish time, but through
    /// `&self`, from any thread. The one-pair case of
    /// [`Self::score_batch`], so it serves from the frozen view too.
    pub fn score(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let _span = self.inner.obs.span("ssf.serve.score");
        self.score_pooled(&[(u, v)]).pop().flatten()
    }

    /// Scores a batch serially against a pooled cache seeded with the
    /// snapshot's frozen view — bit-identical to calling [`Self::score`]
    /// per pair, with the warm memos of the publishing predictor already
    /// in place.
    pub fn score_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<Option<f64>> {
        let _span = self.inner.obs.span("ssf.serve.score_batch");
        self.inner
            .obs
            .counter("ssf.serve.scored", pairs.len() as u64);
        self.score_pooled(pairs)
    }

    /// Fans a batch out over `threads` scoped worker threads, each with
    /// its own pooled, frozen-seeded cache, and reassembles results in input
    /// order. Bit-identical to [`Self::score_batch`] for every slot:
    /// caches only memoize values the pipeline would recompute
    /// identically, so the chunking never shows in the output.
    ///
    /// Degenerate inputs are handled uniformly across every batch path
    /// (snapshot, sharded, coalesced): `threads == 0` is clamped to 1
    /// and an empty batch returns an empty vector without spawning
    /// threads or opening spans. Callers that want `threads == 0`
    /// rejected as a typed error should validate through
    /// [`CoalesceConfig::builder`](crate::coalesce::CoalesceConfig::builder).
    pub fn score_batch_parallel(
        &self,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Vec<Option<f64>> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let threads = threads.max(1).min(pairs.len());
        if threads == 1 {
            return self.score_batch(pairs);
        }
        let _span = self.inner.obs.span("ssf.serve.score_batch_parallel");
        self.inner
            .obs
            .counter("ssf.serve.scored", pairs.len() as u64);
        let chunk = pairs.len().div_ceil(threads);
        let mut out: Vec<Option<f64>> = Vec::with_capacity(pairs.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = pairs
                .chunks(chunk)
                .map(|c| (c.len(), s.spawn(move || self.score_pooled(c))))
                .collect();
            for (len, h) in handles {
                match h.join() {
                    Ok(scores) => out.extend(scores),
                    // Unreachable (workers catch per-pair panics), but a
                    // dying worker must not shift later chunks.
                    Err(_) => out.extend(std::iter::repeat_n(None, len)),
                }
            }
        });
        out
    }

    /// Scores `pairs` serially against a cache from the pool, re-seeded
    /// with the snapshot's frozen view.
    fn score_pooled(&self, pairs: &[(NodeId, NodeId)]) -> Vec<Option<f64>> {
        self.inner.pool.with(|cache| {
            cache.reseed(self.inner.frozen.clone());
            cache.set_recorder(self.inner.obs.clone());
            self.score_chunk(pairs, cache)
        })
    }

    /// The one serial scoring loop behind every snapshot scoring path.
    fn score_chunk(
        &self,
        pairs: &[(NodeId, NodeId)],
        cache: &mut ExtractionCache,
    ) -> Vec<Option<f64>> {
        let inner = &*self.inner;
        let n = inner.graph.node_count() as NodeId;
        let mut out = Vec::with_capacity(pairs.len());
        for &(u, v) in pairs {
            if u == v || u >= n || v >= n {
                out.push(None);
                continue;
            }
            let (Some(present), Some(fitted)) =
                (inner.present, inner.model.as_deref())
            else {
                out.push(None);
                continue;
            };
            let graph = &inner.graph;
            let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
                fitted.model.try_score_cached(graph, u, v, present, cache)
            }));
            out.push(match attempt {
                Ok(Ok(p)) => Some(p),
                Ok(Err(_)) | Err(_) => {
                    inner.degraded_scores.fetch_add(1, Ordering::Relaxed);
                    inner.obs.counter("ssf.serve.degraded_scores", 1);
                    Some(common_neighbor_fallback(graph, u, v))
                }
            });
        }
        out
    }
}

/// N independent single-writer ingest cores over a partition of the node
/// space.
///
/// A pair `(u, v)` is owned by shard `min(u, v) % N` — one deterministic
/// home per pair for both ingestion and scoring, so cross-shard pairs
/// never need coordination. Each shard is a full [`OnlineLinkPredictor`]
/// over the substream routed to it; shard counts divide the refit cost
/// and let [`Self::observe_batch_parallel`] ingest disjoint substreams on
/// parallel threads.
///
/// The trade-off is explicit: a shard scores a pair against *its own*
/// substream, not the global graph (see DESIGN.md §9). With one shard the
/// predictor is exactly the unsharded one, bit for bit; with N shards
/// each pair scores exactly as an unsharded predictor fed the owner's
/// substream would — both properties are tested in
/// `tests/concurrency.rs`.
#[derive(Debug)]
pub struct ShardedPredictor {
    shards: Vec<OnlineLinkPredictor>,
    /// Pre-rendered shard indices for labeled counters.
    labels: Vec<String>,
    obs: ObsHandle,
}

impl ShardedPredictor {
    /// Creates `shards` empty ingest cores sharing one configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroShards`] for `shards == 0`, plus any
    /// [`MethodOptions::validate`](crate::methods::MethodOptions::validate)
    /// rejection of the configuration's hyperparameters.
    pub fn new(
        config: OnlinePredictorConfig,
        shards: usize,
    ) -> Result<Self, SsfError> {
        Self::with_recorder(config, shards, ObsHandle::noop())
    }

    /// [`Self::new`] with telemetry: per-shard quarantine counters under
    /// the labeled family `ssf.serve.shard.quarantined{shard=…}`, shared
    /// `ssf.stream.*` instrumentation inside every shard, and
    /// `ssf.serve.ingest_batch` spans around parallel ingestion.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::new`].
    pub fn with_recorder(
        config: OnlinePredictorConfig,
        shards: usize,
        obs: ObsHandle,
    ) -> Result<Self, SsfError> {
        if shards == 0 {
            return Err(ConfigError::ZeroShards.into());
        }
        config.method.validate()?;
        Ok(ShardedPredictor {
            shards: (0..shards)
                .map(|_| {
                    OnlineLinkPredictor::with_recorder(
                        config.clone(),
                        obs.clone(),
                    )
                })
                .collect(),
            labels: (0..shards).map(|i| i.to_string()).collect(),
            obs,
        })
    }

    /// Number of ingest cores.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The owner shard of a pair: `min(u, v) % N`.
    pub fn shard_of(&self, u: NodeId, v: NodeId) -> usize {
        u.min(v) as usize % self.shards.len()
    }

    /// Borrows one shard's predictor, `None` out of range.
    pub fn shard(&self, index: usize) -> Option<&OnlineLinkPredictor> {
        self.shards.get(index)
    }

    /// Routes one stream event to its owner shard; never panics.
    pub fn observe(&mut self, u: NodeId, v: NodeId, t: Timestamp) -> Observed {
        let idx = self.shard_of(u, v);
        let outcome = self.shards[idx].observe(u, v, t);
        if !outcome.is_accepted() && self.obs.enabled() {
            self.obs.counter(
                &labeled(
                    "ssf.serve.shard.quarantined",
                    &[("shard", &self.labels[idx])],
                ),
                1,
            );
        }
        outcome
    }

    /// Partitions a batch of events by owner shard and ingests every
    /// shard's substream on its own scoped thread — the near-linear
    /// ingest-scaling path. Within a shard, events keep their order in
    /// `events`. Returns the number of accepted events.
    ///
    /// With one shard — or on a machine without usable parallelism — the
    /// batch ingests serially instead: spawning threads for substreams
    /// that cannot run concurrently only adds partition + spawn + join
    /// overhead (the measured 1→4-shard throughput *drop* in
    /// `BENCH_concurrent_serving.json` on a single-core host). Events
    /// route to shards in batch order either way, so both paths produce
    /// identical shard states by construction; empty substreams never
    /// spawn a thread.
    pub fn observe_batch_parallel(
        &mut self,
        events: &[(NodeId, NodeId, Timestamp)],
    ) -> u64 {
        let n = self.shards.len();
        let parallelism = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get);
        let _span = self.obs.span("ssf.serve.ingest_batch");
        let mut accepted = 0u64;
        let mut quarantined: Vec<u64> = vec![0; n];
        if n == 1 || parallelism <= 1 {
            for &(u, v, t) in events {
                let idx = u.min(v) as usize % n;
                if self.shards[idx].observe(u, v, t).is_accepted() {
                    accepted += 1;
                } else {
                    quarantined[idx] += 1;
                }
            }
        } else {
            let mut per: Vec<Vec<(NodeId, NodeId, Timestamp)>> =
                vec![Vec::new(); n];
            for &(u, v, t) in events {
                per[u.min(v) as usize % n].push((u, v, t));
            }
            let shards = &mut self.shards;
            std::thread::scope(|s| {
                let handles: Vec<_> = shards
                    .iter_mut()
                    .zip(&per)
                    .enumerate()
                    .filter(|(_, (_, evs))| !evs.is_empty())
                    .map(|(i, (shard, evs))| {
                        let handle = s.spawn(move || {
                            let (mut acc, mut quar) = (0u64, 0u64);
                            for &(u, v, t) in evs {
                                if shard.observe(u, v, t).is_accepted() {
                                    acc += 1;
                                } else {
                                    quar += 1;
                                }
                            }
                            (acc, quar)
                        });
                        (i, handle)
                    })
                    .collect();
                for (i, h) in handles {
                    if let Ok((acc, quar)) = h.join() {
                        accepted += acc;
                        quarantined[i] = quar;
                    }
                }
            });
        }
        if self.obs.enabled() {
            for (label, &quar) in self.labels.iter().zip(&quarantined) {
                if quar > 0 {
                    self.obs.counter(
                        &labeled(
                            "ssf.serve.shard.quarantined",
                            &[("shard", label)],
                        ),
                        quar,
                    );
                }
            }
        }
        accepted
    }

    /// Forces a refit on every shard, attempting all of them even when
    /// some fail.
    ///
    /// # Errors
    ///
    /// The first shard failure, after all shards were attempted. Shards
    /// that fitted keep their new model either way.
    pub fn try_refit_all(&mut self) -> Result<(), SsfError> {
        let mut first_err = None;
        for shard in &mut self.shards {
            if let Err(e) = shard.try_refit() {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }

    /// Routes a pair to its owner shard's [`OnlineLinkPredictor::score`].
    pub fn score(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.shards[self.shard_of(u, v)].score(u, v)
    }

    /// Scores a batch by grouping pairs per owner shard, scoring each
    /// group through the shard's cached batch path, and scattering the
    /// results back into input order.
    pub fn score_batch(
        &mut self,
        pairs: &[(NodeId, NodeId)],
    ) -> Vec<Option<f64>> {
        let n = self.shards.len();
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut groups: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); n];
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let owner = u.min(v) as usize % n;
            slots[owner].push(i);
            groups[owner].push((u, v));
        }
        let mut out = vec![None; pairs.len()];
        for (shard, (slots, group)) in
            self.shards.iter_mut().zip(slots.iter().zip(&groups))
        {
            if group.is_empty() {
                continue;
            }
            for (&i, score) in slots.iter().zip(shard.score_batch(group)) {
                out[i] = score;
            }
        }
        out
    }

    /// Publishes every shard's current epoch as one routed snapshot.
    pub fn snapshot(&self) -> ShardedSnapshot {
        ShardedSnapshot {
            shards: self.shards.iter().map(|s| s.snapshot()).collect(),
        }
    }

    /// Merged stream tallies, summed across shards.
    pub fn stream_stats(&self) -> StreamStats {
        let mut total = StreamStats::default();
        for shard in &self.shards {
            total.merge(shard.stats());
        }
        total
    }

    /// Merged extraction-cache tallies, summed across shards.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            total.merge(&shard.cache_stats());
        }
        total
    }

    /// Merged health: counters are summed, `fitted` is true when *any*
    /// shard serves a model (a pair owned by an unfitted shard still
    /// scores `None` — check [`Self::shard_healths`] for the full
    /// picture), `model_epoch` is the stalest fitted shard's epoch,
    /// `graph_revision` the summed revisions, `current_backoff` the worst
    /// shard's, and `last_refit_error` the first shard's pending error.
    pub fn health(&self) -> Health {
        let stats = self.stream_stats();
        let mut health = Health {
            fitted: false,
            model_epoch: None,
            graph_revision: 0,
            accepted: stats.accepted,
            quarantined: stats.quarantined(),
            degraded_scores: stats.degraded_scores(),
            successful_refits: stats.successful_refits,
            failed_refits: stats.failed_refits,
            current_backoff: 1,
            last_refit_error: None,
            metrics: self.obs.snapshot(),
        };
        for shard in &self.shards {
            let h = shard.health();
            health.fitted |= h.fitted;
            health.model_epoch = match (health.model_epoch, h.model_epoch) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            health.graph_revision += h.graph_revision;
            health.current_backoff =
                health.current_backoff.max(h.current_backoff);
            if health.last_refit_error.is_none() {
                health.last_refit_error = h.last_refit_error;
            }
        }
        health
    }

    /// Per-shard health snapshots, in shard order.
    pub fn shard_healths(&self) -> Vec<Health> {
        self.shards.iter().map(|s| s.health()).collect()
    }
}

/// Immutable snapshots of every shard, routed like the predictor:
/// `min(u, v) % N` picks the [`ScoringSnapshot`] a pair scores against.
///
/// `Send + Sync` and cheap to clone, like the per-shard snapshots it
/// wraps.
#[derive(Debug, Clone)]
pub struct ShardedSnapshot {
    shards: Vec<ScoringSnapshot>,
}

impl ShardedSnapshot {
    /// Number of shard snapshots.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The owner shard of a pair: `min(u, v) % N`.
    pub fn shard_of(&self, u: NodeId, v: NodeId) -> usize {
        u.min(v) as usize % self.shards.len()
    }

    /// Borrows one shard's snapshot, `None` out of range.
    pub fn shard(&self, index: usize) -> Option<&ScoringSnapshot> {
        self.shards.get(index)
    }

    /// Publish epochs of every shard snapshot, in shard order.
    pub fn epochs(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.epoch()).collect()
    }

    /// Routes a pair to its owner snapshot's [`ScoringSnapshot::score`].
    pub fn score(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.shards[self.shard_of(u, v)].score(u, v)
    }

    /// Scores a batch by owner-shard grouping, serially per shard.
    pub fn score_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<Option<f64>> {
        self.score_batch_with(pairs, |snap, group| snap.score_batch(group))
    }

    /// Scores a batch with each shard's group fanned out over up to
    /// `threads` worker threads (divided across shards with work), in
    /// parallel across shards. Bit-identical to [`Self::score_batch`].
    ///
    /// Degenerate inputs follow the same contract as
    /// [`ScoringSnapshot::score_batch_parallel`]: `threads == 0` is
    /// clamped to 1 and an empty batch returns an empty vector without
    /// spawning threads.
    pub fn score_batch_parallel(
        &self,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Vec<Option<f64>> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let threads = threads.max(1);
        let busy = self.shards.len().min(pairs.len());
        let per_shard = threads.div_ceil(busy);
        self.score_batch_with(pairs, |snap, group| {
            snap.score_batch_parallel(group, per_shard)
        })
    }

    /// Shared group/score/scatter skeleton of the batch paths. The
    /// scoring closure runs per shard on scoped threads; input order is
    /// restored in the output.
    fn score_batch_with<F>(
        &self,
        pairs: &[(NodeId, NodeId)],
        score: F,
    ) -> Vec<Option<f64>>
    where
        F: Fn(&ScoringSnapshot, &[(NodeId, NodeId)]) -> Vec<Option<f64>> + Sync,
    {
        let n = self.shards.len();
        let mut slots: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut groups: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); n];
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let owner = u.min(v) as usize % n;
            slots[owner].push(i);
            groups[owner].push((u, v));
        }
        let mut out = vec![None; pairs.len()];
        std::thread::scope(|s| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .zip(slots.iter().zip(&groups))
                .filter(|(_, (_, group))| !group.is_empty())
                .map(|(snap, (slots, group))| {
                    let score = &score;
                    (slots, s.spawn(move || score(snap, group)))
                })
                .collect();
            for (slots, h) in handles {
                if let Ok(scores) = h.join() {
                    for (&i, sc) in slots.iter().zip(scores) {
                        out[i] = sc;
                    }
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::MethodOptions;
    use datasets::DatasetSpec;

    fn quick_config() -> OnlinePredictorConfig {
        OnlinePredictorConfig {
            method: MethodOptions {
                nm_epochs: 15,
                ..MethodOptions::default()
            },
            refit_every: 5,
            min_positives: 10,
            history_folds: 1,
            ..OnlinePredictorConfig::default()
        }
    }

    fn fitted_predictor() -> OnlineLinkPredictor {
        let spec = DatasetSpec::coauthor().scaled(0.15);
        let g = spec.generate(9);
        let mut links: Vec<_> = g.links().collect();
        links.sort_by_key(|l| l.t);
        let mut p = OnlineLinkPredictor::new(quick_config());
        for l in links {
            p.observe(l.u, l.v, l.t);
        }
        assert!(p.is_fitted());
        p
    }

    #[test]
    fn snapshot_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ScoringSnapshot>();
        assert_send_sync::<ShardedSnapshot>();
        assert_send_sync::<ShardedPredictor>();
    }

    #[test]
    fn snapshot_matches_predictor_bit_for_bit() {
        let mut p = fitted_predictor();
        let n = p.network().node_count() as NodeId;
        let pairs: Vec<(NodeId, NodeId)> =
            vec![(0, 1), (2, 5), (3, 3), (0, n + 4), (1, 0), (0, 1)];
        let snap = p.snapshot();
        assert_eq!(snap.epoch(), p.network().revision());
        assert_eq!(snap.model_epoch().is_some(), snap.is_fitted());
        let serial: Vec<_> =
            pairs.iter().map(|&(u, v)| p.score(u, v)).collect();
        let via_score: Vec<_> =
            pairs.iter().map(|&(u, v)| snap.score(u, v)).collect();
        let via_batch = snap.score_batch(&pairs);
        let via_parallel = snap.score_batch_parallel(&pairs, 3);
        let via_predictor_batch = p.score_batch(&pairs);
        for (name, got) in [
            ("score", &via_score),
            ("score_batch", &via_batch),
            ("score_batch_parallel", &via_parallel),
            ("predictor score_batch", &via_predictor_batch),
        ] {
            for (i, (a, b)) in serial.iter().zip(got.iter()).enumerate() {
                assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "{name}: pair {:?} diverged",
                    pairs[i]
                );
            }
        }
    }

    /// A fresh, uncached `try_score` against the snapshot's own graph
    /// and model: the reference every pooled path must reproduce.
    fn fresh_score(
        snap: &ScoringSnapshot,
        u: NodeId,
        v: NodeId,
    ) -> Option<f64> {
        let n = snap.graph().node_count() as NodeId;
        if u == v || u >= n || v >= n {
            return None;
        }
        let present = snap.present()?;
        let fitted = snap.inner.model.as_deref()?;
        fitted.model.try_score(snap.graph(), u, v, present).ok()
    }

    /// Pooled caches travel between epochs: a predictor whose graph
    /// grows and whose window slides publishes snapshot after snapshot,
    /// all sharing one pool, and every snapshot is scored again after
    /// each publish. Whichever epoch a recycled cache served last,
    /// `score`, `score_batch` and `score_batch_parallel` at 1/2/8
    /// threads must equal a fresh uncached `try_score` bit for bit.
    #[test]
    fn pooled_caches_stay_bit_identical_across_epochs() {
        let g = DatasetSpec::coauthor().scaled(0.15).generate(9);
        let mut links: Vec<_> = g.links().collect();
        links.sort_by_key(|l| l.t);
        let span = links.last().map_or(0, |l| l.t) - links[0].t;
        let config = OnlinePredictorConfig {
            window: Some(span / 2),
            ..quick_config()
        };
        let mut p = OnlineLinkPredictor::new(config);
        let bits = |s: &[Option<f64>]| -> Vec<Option<u64>> {
            s.iter().map(|x| x.map(f64::to_bits)).collect()
        };
        let mut snaps: Vec<ScoringSnapshot> = Vec::new();
        for chunk in links.chunks(links.len().div_ceil(5)) {
            for l in chunk {
                p.observe(l.u, l.v, l.t);
            }
            // Widen the id space so later epochs outgrow the scratch
            // arrays that earlier ones sized.
            let far = p.network().node_count() as NodeId + 7;
            assert!(p.observe(0, far, p.horizon()).is_accepted());
            snaps.push(p.snapshot());
            // Pairs over the newest id space, plus degenerate and
            // out-of-range ones for the older, smaller epochs.
            let n = p.network().node_count() as NodeId;
            let mut pairs: Vec<(NodeId, NodeId)> = (0..40u32)
                .map(|i| ((i * 7) % n, (i * 13 + n / 2) % n))
                .collect();
            pairs.extend([(0, 0), (1, n + 3), (n - 1, 0), (0, 1), (0, 1)]);
            for snap in &snaps {
                let want: Vec<Option<f64>> = pairs
                    .iter()
                    .map(|&(u, v)| fresh_score(snap, u, v))
                    .collect();
                let one: Vec<Option<f64>> =
                    pairs.iter().map(|&(u, v)| snap.score(u, v)).collect();
                assert_eq!(
                    bits(&one),
                    bits(&want),
                    "score, epoch {}",
                    snap.epoch()
                );
                let batch = snap.score_batch(&pairs);
                assert_eq!(
                    bits(&batch),
                    bits(&want),
                    "batch, epoch {}",
                    snap.epoch()
                );
                for threads in [1, 2, 8] {
                    let par = snap.score_batch_parallel(&pairs, threads);
                    assert_eq!(
                        bits(&par),
                        bits(&want),
                        "{threads} threads, epoch {}",
                        snap.epoch()
                    );
                }
            }
            let live: Vec<Option<f64>> =
                pairs.iter().map(|&(u, v)| p.score(u, v)).collect();
            let newest = snaps.last().map(|s| s.score_batch(&pairs));
            assert_eq!(Some(bits(&live)), newest.as_deref().map(bits));
        }
        let first = &snaps[0];
        let last = &snaps[snaps.len() - 1];
        assert!(last.is_fitted(), "the stream must support a fit");
        assert!(last.graph().node_count() > first.graph().node_count());
        assert_ne!(first.window(), last.window(), "the window must slide");
        // One cache per call that ran at once: the widest was 8 threads.
        assert!(p.pool.idle().len() <= 8);
    }

    #[test]
    fn republish_without_observes_reuses_the_frozen_base() {
        let p = fitted_predictor();
        let s1 = p.snapshot();
        let s2 = p.snapshot();
        assert_eq!(s1.epoch(), s2.epoch());
        assert_eq!(s1.delta_links(), s2.delta_links());
        assert!(
            Arc::ptr_eq(s1.graph().base(), s2.graph().base()),
            "publish without new observes must not rebuild the CSR base"
        );
    }

    #[test]
    fn snapshot_is_immutable_under_later_observes() {
        let mut p = fitted_predictor();
        let snap = p.snapshot();
        let before = snap.score(0, 1);
        let epoch = snap.epoch();
        let t = p.network().max_timestamp().unwrap_or(0) + 1;
        assert!(p.observe(0, 1, t).is_accepted());
        assert!(p.observe(2, 9, t + 1).is_accepted());
        assert_eq!(snap.epoch(), epoch, "published epoch is frozen");
        assert_eq!(
            snap.score(0, 1).map(f64::to_bits),
            before.map(f64::to_bits),
            "snapshot scores must not move with the live graph"
        );
        assert!(p.network().revision() > epoch);
    }

    #[test]
    fn unfitted_snapshot_scores_none_consistently() {
        let mut p = OnlineLinkPredictor::new(quick_config());
        p.observe(0, 1, 1);
        p.observe(1, 2, 2);
        let snap = p.snapshot();
        assert!(!snap.is_fitted());
        assert_eq!(snap.model_epoch(), None);
        assert_eq!(snap.score(0, 2), None);
        assert_eq!(snap.score_batch(&[(0, 2)]), vec![None]);
        assert_eq!(snap.score_batch_parallel(&[(0, 2), (1, 0)], 2).len(), 2);
    }

    #[test]
    fn sharded_predictor_rejects_zero_shards() {
        let err = ShardedPredictor::new(quick_config(), 0);
        assert!(matches!(
            err,
            Err(SsfError::Config(ConfigError::ZeroShards))
        ));
    }

    #[test]
    fn sharded_routing_is_deterministic_by_min_endpoint() {
        let sharded =
            ShardedPredictor::new(quick_config(), 3).expect("valid config");
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.shard_of(4, 7), 1);
        assert_eq!(sharded.shard_of(7, 4), 1, "order must not matter");
        assert_eq!(sharded.shard_of(9, 2), 2);
        assert!(sharded.shard(2).is_some());
        assert!(sharded.shard(3).is_none());
    }

    #[test]
    fn sharded_stats_and_health_merge_across_shards() {
        let mut sharded =
            ShardedPredictor::new(quick_config(), 2).expect("valid config");
        sharded.observe(0, 1, 1);
        sharded.observe(2, 3, 1);
        sharded.observe(5, 5, 2); // quarantined on 5 % 2 == shard 1
        let stats = sharded.stream_stats();
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.self_loops, 1);
        let health = sharded.health();
        assert!(!health.fitted);
        assert_eq!(health.accepted, 2);
        assert_eq!(health.quarantined, 1);
        // Revisions count every graph mutation (node growth included),
        // so the merged value is the exact sum over shards.
        let revisions: u64 = (0..sharded.num_shards())
            .filter_map(|i| sharded.shard(i))
            .map(|p| p.network().revision())
            .sum();
        assert!(revisions > 0);
        assert_eq!(health.graph_revision, revisions);
        assert_eq!(sharded.shard_healths().len(), 2);
    }

    #[test]
    fn observe_batch_parallel_matches_serial_routing() {
        let spec = DatasetSpec::coauthor().scaled(0.12);
        let g = spec.generate(11);
        let mut events: Vec<_> = g.links().map(|l| (l.u, l.v, l.t)).collect();
        events.sort_by_key(|&(_, _, t)| t);
        let mut serial =
            ShardedPredictor::new(quick_config(), 3).expect("valid config");
        for &(u, v, t) in &events {
            serial.observe(u, v, t);
        }
        let mut parallel =
            ShardedPredictor::new(quick_config(), 3).expect("valid config");
        let accepted = parallel.observe_batch_parallel(&events);
        assert_eq!(accepted, serial.stream_stats().accepted);
        for i in 0..3 {
            let a = serial.shard(i).expect("shard");
            let b = parallel.shard(i).expect("shard");
            assert_eq!(
                a.network().link_count(),
                b.network().link_count(),
                "shard {i} ingested a different substream"
            );
            assert_eq!(a.network().revision(), b.network().revision());
        }
    }
}
