//! Graph-versioned extraction cache: the amortization layer of the batch
//! scoring engine.
//!
//! SSF extraction recomputes h-hop frontiers and full pipeline runs from
//! scratch for every candidate pair, yet pairs scored in one batch share
//! endpoints (so their BFS balls coincide) and pairs re-scored between
//! graph updates share everything. The cache memoizes both levels:
//!
//! * **per-endpoint balls** — `(node, h) →` bounded BFS frontier, the unit
//!   [`HopSubgraph::from_balls`](crate::HopSubgraph::from_balls) composes
//!   pairs from, and
//! * **per-pair K-structure results** — `(a, b) →` the selected
//!   [`KStructureSubgraph`] (everything *upstream* of the prediction time
//!   `l_t`; the cheap `K×K` matrix fill is redone per call so one cached
//!   pair serves any `l_t`).
//!
//! Invalidation is by **graph revision and window**:
//! [`dyngraph::DynamicNetwork`] bumps a monotone counter on every accepted
//! mutation (a sliding-window `advance` included), and
//! [`ExtractionCache::sync`] drops all memoized state whenever the observed
//! revision moves. Entries are therefore keyed `(pair, revision, window)`
//! in effect, without storing either per entry.
//!
//! Writers that know a mutation's *footprint* — the affected nodes from a
//! [`dyngraph::AdvanceReport`] plus any inserted link's endpoints — use
//! [`ExtractionCache::sync_affected`] instead and keep everything else: a
//! memoized BFS ball can only change if the mutation touched one of its
//! members (every shortest path into a ball runs through the ball), and a
//! memoized pair can only change if the mutation touched its recorded
//! dependency set ([`CachedPair::deps`], the merged-ball node set its
//! pipeline examined). Reverse indexes (node → ball keys / pair keys) make
//! that O(entries-containing-an-affected-node), proportional to the damage
//! `d`, never a full flush. The indexes are built lazily: a cache keeps
//! none until its first `sync_affected`, which builds them from the live
//! entries, so reader caches that only ever `sync` never pay for them.
//!
//! Cached and uncached extractions are **bit-identical** by construction:
//! both route through the same canonical-order subgraph assembly and the
//! same refinement code, and reusing scratch buffers or memoized balls
//! never changes any intermediate value (`tests/properties.rs` proves this
//! end to end against live `observe`/`score_batch` interleavings).

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use dyngraph::{GraphView, NodeId, Timestamp};
use obs::ObsHandle;

use crate::feature::DijkstraScratch;
use crate::hop::{ball, ball_extend, HopScratch};
use crate::kstructure::KStructureSubgraph;
use crate::palette::WlScratch;
use crate::structure::StructureScratch;

/// Reusable buffers for the whole extraction pipeline, threaded through
/// hop extraction, structure combination, Palette-WL refinement, and the
/// reciprocal-distance encoding.
#[derive(Debug, Clone, Default)]
pub struct ExtractScratch {
    /// BFS + ball-merge buffers.
    pub hop: HopScratch,
    /// Algorithm 1 fixpoint buffers.
    pub structure: StructureScratch,
    /// Palette-WL buffers (notably the prime/log tables).
    pub wl: WlScratch,
    /// Bounded-Dijkstra buffers for the reciprocal-distance encoding.
    pub dijkstra: DijkstraScratch,
}

/// A bounded-size memo with LRU-style segmented eviction.
///
/// Entries are stamped with a monotone tick on insert and on every hit;
/// when the map reaches capacity the oldest half (by stamp) is dropped in
/// one `O(n)` sweep. This trades exact LRU order for zero per-entry list
/// maintenance — eviction affects only performance, never output, because
/// cached and recomputed values are identical.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    map: HashMap<K, (u64, V)>,
    tick: u64,
    capacity: usize,
}

impl<K: Eq + Hash, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry (stamps restart; capacity is kept).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Looks up `key`, refreshing its eviction stamp on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(stamp, v)| {
            *stamp = tick;
            &*v
        })
    }

    /// Iterates over live entries in arbitrary order (stamps stay
    /// untouched — iteration is not a "use" for eviction purposes).
    pub fn entries(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, (_, v))| (k, v))
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(_, v)| v)
    }

    /// Inserts `key → value`, evicting the stalest half first when full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            let mut stamps: Vec<u64> =
                self.map.values().map(|&(s, _)| s).collect();
            stamps.sort_unstable();
            // Keep the newer half: drop stamps up to the lower median.
            let cutoff = stamps[(stamps.len() - 1) / 2];
            self.map.retain(|_, &mut (s, _)| s > cutoff);
        }
        self.tick += 1;
        self.map.insert(key, (self.tick, value));
    }
}

/// The `l_t`-independent prefix of one pair's extraction: Algorithm 3
/// lines 1–8 (hop growth, structure combination, Palette-WL selection).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPair {
    /// The selected K-structure subgraph.
    pub ks: KStructureSubgraph,
    /// The hop radius the adaptive growth stopped at.
    pub h_used: u32,
    /// `|V_S|` of the final structure subgraph.
    pub structure_nodes: usize,
    /// Invalidation footprint: the merged-ball node set the pipeline
    /// examined, sorted ascending. A graph mutation leaves this result
    /// bit-identical unless it touches one of these nodes — the basis of
    /// [`ExtractionCache::sync_affected`]'s selective invalidation.
    pub deps: Vec<NodeId>,
}

/// Hit/miss/invalidation counters of an [`ExtractionCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Per-endpoint ball lookups served from the memo.
    pub ball_hits: u64,
    /// Per-endpoint ball lookups that ran a fresh BFS.
    pub ball_misses: u64,
    /// Per-pair lookups served from the memo.
    pub pair_hits: u64,
    /// Per-pair lookups that ran the full pipeline.
    pub pair_misses: u64,
    /// Times the graph revision moved and the memos were dropped.
    pub invalidations: u64,
    /// Times a revision/window move was absorbed selectively (only the
    /// entries touching affected nodes were dropped).
    pub selective_invalidations: u64,
    /// Individual memo entries (balls + pairs) dropped by selective
    /// invalidation — proportional to mutation damage, not cache size.
    pub entries_invalidated: u64,
}

impl CacheStats {
    /// Fraction of all lookups (balls + pairs) served from the memo;
    /// 0.0 when nothing was looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.ball_hits + self.pair_hits;
        let total = hits + self.ball_misses + self.pair_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Total lookups, hits and misses, balls and pairs combined.
    pub fn total_lookups(&self) -> u64 {
        self.ball_hits + self.ball_misses + self.pair_hits + self.pair_misses
    }

    /// Folds another cache's tallies into this one — the aggregation the
    /// batch extraction paths use to combine per-chunk caches into one
    /// hit-rate account.
    pub fn merge(&mut self, other: &CacheStats) {
        self.ball_hits += other.ball_hits;
        self.ball_misses += other.ball_misses;
        self.pair_hits += other.pair_hits;
        self.pair_misses += other.pair_misses;
        self.invalidations += other.invalidations;
        self.selective_invalidations += other.selective_invalidations;
        self.entries_invalidated += other.entries_invalidated;
    }
}

/// An immutable, shareable view of an [`ExtractionCache`]'s memos at one
/// graph revision.
///
/// Produced by [`ExtractionCache::freeze`] and consumed by
/// [`ExtractionCache::with_frozen`]: a fresh mutable cache seeded with a
/// frozen view serves lookups from the view on a local miss, so many
/// reader threads can share one warm memo without locking. The view is
/// `Send + Sync` (all payloads are `Arc`-shared immutable data) and stays
/// valid only for the revision it was frozen at — a seeded cache drops it
/// as soon as [`ExtractionCache::sync`] observes a newer revision.
///
/// Frozen lookups never change extraction output: the view holds the same
/// bit-identical balls and pair results a cold cache would recompute.
#[derive(Debug, Clone)]
pub struct FrozenCacheView {
    revision: u64,
    window: Option<(Timestamp, Timestamp)>,
    config_key: (usize, u32),
    balls: Arc<HashMap<(NodeId, u32), CachedBall>>,
    pairs: Arc<HashMap<(NodeId, NodeId), Arc<CachedPair>>>,
}

impl FrozenCacheView {
    /// The graph revision the view was frozen at.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// The sliding window `(width, horizon)` the view was frozen under,
    /// `None` for an unbounded graph. Reuse requires both the revision
    /// *and* the window to match — two graphs must never trade memos
    /// across different windows even if their revisions coincide (e.g.
    /// across recovery lineages).
    pub fn window(&self) -> Option<(Timestamp, Timestamp)> {
        self.window
    }

    /// Frozen entry counts `(balls, pairs)`.
    pub fn len(&self) -> (usize, usize) {
        (self.balls.len(), self.pairs.len())
    }

    /// Whether the view holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.balls.is_empty() && self.pairs.is_empty()
    }
}

/// The graph-versioned extraction cache (see the [module docs](self)).
///
/// One cache serves one graph value over time — any [`GraphView`]
/// implementor works, since `sync` tracks the view's revision counter.
/// Pair keys are directional — `(a, b)` and `(b, a)` are distinct targets
/// because the endpoints pin Palette-WL orders 1 and 2 respectively.
/// A memoized per-endpoint h-hop frontier: `(node, min-distance)` pairs
/// in BFS layer order, the source first at distance 0.
pub type CachedBall = Arc<Vec<(NodeId, u32)>>;

/// Reverse indexes tolerate this many slots before their first
/// stale-entry compaction; afterwards the trigger doubles with the live
/// slot count (amortized O(1) per insert).
const INDEX_REBUILD_FLOOR: usize = 1 << 14;

#[derive(Debug, Clone)]
pub struct ExtractionCache {
    revision: u64,
    /// The sliding window `(width, horizon)` the memos were filled
    /// under; `None` for unbounded graphs (or when unknown, after a
    /// footprint-blind [`ExtractionCache::sync`] drop).
    window: Option<(Timestamp, Timestamp)>,
    /// `(k, max_h)` the pair memo was filled under; balls are
    /// config-independent and survive config changes.
    config_key: (usize, u32),
    balls: LruCache<(NodeId, u32), CachedBall>,
    pairs: LruCache<(NodeId, NodeId), Arc<CachedPair>>,
    /// Whether the reverse indexes are maintained. Off until the first
    /// [`ExtractionCache::sync_affected`], which builds them from the
    /// live entries; on from then on (until a re-seed).
    indexed: bool,
    /// Reverse index: member node → ball keys whose memo contains it.
    /// May hold stale keys for evicted balls (removal is idempotent);
    /// rebuilt from live entries when it outgrows its trigger.
    ball_index: HashMap<NodeId, Vec<(NodeId, u32)>>,
    /// Reverse index: dependency node → pair keys depending on it.
    pair_index: HashMap<NodeId, Vec<(NodeId, NodeId)>>,
    /// Slots pushed into `ball_index` since its last rebuild, and the
    /// bloat threshold that forces the next rebuild (amortized O(1)).
    ball_index_slots: usize,
    ball_index_trigger: usize,
    pair_index_slots: usize,
    pair_index_trigger: usize,
    /// Read-only fallback consulted on local misses (same revision and
    /// window only; pair lookups additionally require a matching config
    /// key).
    frozen: Option<FrozenCacheView>,
    pub(crate) scratch: ExtractScratch,
    pub(crate) stats: CacheStats,
    pub(crate) obs: ObsHandle,
}

impl Default for ExtractionCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ExtractionCache {
    /// Default memo capacities: 8192 balls, 8192 pairs.
    pub fn new() -> Self {
        Self::with_capacity(8192, 8192)
    }

    /// Creates a cache with explicit memo capacities.
    pub fn with_capacity(balls: usize, pairs: usize) -> Self {
        ExtractionCache {
            revision: 0,
            window: None,
            config_key: (0, 0),
            balls: LruCache::new(balls),
            pairs: LruCache::new(pairs),
            indexed: false,
            ball_index: HashMap::new(),
            pair_index: HashMap::new(),
            ball_index_slots: 0,
            ball_index_trigger: INDEX_REBUILD_FLOOR,
            pair_index_slots: 0,
            pair_index_trigger: INDEX_REBUILD_FLOOR,
            frozen: None,
            scratch: ExtractScratch::default(),
            stats: CacheStats::default(),
            obs: ObsHandle::noop(),
        }
    }

    /// A default-capacity cache whose extractions emit per-stage spans
    /// (`ssf.core.*`) through `recorder`. The no-op handle makes this
    /// identical to [`ExtractionCache::new`].
    pub fn with_recorder(recorder: ObsHandle) -> Self {
        let mut cache = Self::new();
        cache.obs = recorder;
        cache
    }

    /// Replaces the telemetry recorder (metrics only — never affects
    /// cached values; see the bit-identity tests).
    pub fn set_recorder(&mut self, recorder: ObsHandle) {
        self.obs = recorder;
    }

    /// The telemetry handle extractions running against this cache use.
    pub fn recorder(&self) -> &ObsHandle {
        &self.obs
    }

    /// A default-capacity cache seeded with a frozen read-only view.
    ///
    /// The new cache starts at the view's revision and config, so lookups
    /// against the same (unchanged) graph hit the frozen memos without an
    /// initial invalidation. Once the graph moves past the frozen
    /// revision, `sync` drops the view along with the local memos.
    pub fn with_frozen(view: FrozenCacheView) -> Self {
        let mut cache = Self::new();
        cache.reseed(view);
        cache
    }

    /// Re-seeds this cache with a frozen view, leaving it in the state
    /// [`ExtractionCache::with_frozen`] builds: memos, reverse indexes
    /// and stats start over at the view's revision, window and config.
    /// The scratch buffers and the memo maps' capacity are kept, which
    /// is what makes a recycled cache cheaper than a fresh one: its
    /// graph-sized BFS arrays and Palette-WL tables are already built.
    pub fn reseed(&mut self, view: FrozenCacheView) {
        self.clear();
        self.indexed = false;
        self.stats = CacheStats::default();
        self.revision = view.revision;
        self.window = view.window;
        self.config_key = view.config_key;
        self.frozen = Some(view);
    }

    /// Captures the current memos as an immutable, `Arc`-shared view.
    ///
    /// Entries from an underlying frozen layer (if any, and still at this
    /// revision) are folded in, overlaid by the live local memos, so
    /// freezing a seeded cache loses no warmth.
    pub fn freeze(&self) -> FrozenCacheView {
        let mut balls: HashMap<(NodeId, u32), CachedBall> = match &self.frozen {
            Some(f)
                if f.revision == self.revision && f.window == self.window =>
            {
                (*f.balls).clone()
            }
            _ => HashMap::new(),
        };
        for (k, v) in self.balls.entries() {
            balls.insert(*k, Arc::clone(v));
        }
        let mut pairs: HashMap<(NodeId, NodeId), Arc<CachedPair>> =
            match &self.frozen {
                Some(f)
                    if f.revision == self.revision
                        && f.window == self.window
                        && f.config_key == self.config_key =>
                {
                    (*f.pairs).clone()
                }
                _ => HashMap::new(),
            };
        for (k, v) in self.pairs.entries() {
            pairs.insert(*k, Arc::clone(v));
        }
        FrozenCacheView {
            revision: self.revision,
            window: self.window,
            config_key: self.config_key,
            balls: Arc::new(balls),
            pairs: Arc::new(pairs),
        }
    }

    /// Counters accumulated since construction (they survive
    /// invalidation — they describe the cache, not the current graph).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Live entry counts `(balls, pairs)`.
    pub fn len(&self) -> (usize, usize) {
        (self.balls.len(), self.pairs.len())
    }

    /// Whether both memos are empty.
    pub fn is_empty(&self) -> bool {
        self.balls.is_empty() && self.pairs.is_empty()
    }

    /// Drops every memoized ball and pair (and any frozen base view),
    /// keeping the stats counters — they describe the cache's lifetime,
    /// not its current contents. The next lookup simply runs cold;
    /// results are unaffected. Used under memory pressure and by
    /// benchmarks that need repeatable cold-path measurements.
    pub fn clear(&mut self) {
        self.balls.clear();
        self.pairs.clear();
        self.clear_ball_index();
        self.clear_pair_index();
        self.frozen = None;
    }

    /// The sliding window the memos were last synced under (see
    /// [`FrozenCacheView::window`]).
    pub fn window(&self) -> Option<(Timestamp, Timestamp)> {
        self.window
    }

    /// Re-keys the cache to `g`'s current revision, dropping every memo
    /// entry if the graph changed since the last sync. The footprint-blind
    /// fallback: a revision move whose affected nodes are unknown could
    /// have touched anything. Writers that know the footprint use
    /// [`ExtractionCache::sync_affected`] and keep the rest.
    pub fn sync<G: GraphView + ?Sized>(&mut self, g: &G) {
        let rev = g.revision();
        if rev != self.revision {
            if !self.is_empty() {
                self.stats.invalidations += 1;
            }
            self.balls.clear();
            self.pairs.clear();
            self.clear_ball_index();
            self.clear_pair_index();
            if self.frozen.as_ref().is_some_and(|f| f.revision != rev) {
                self.frozen = None;
            }
            self.revision = rev;
            self.window = None;
        }
    }

    /// Re-keys the cache to `g`'s revision and `window`, dropping *only*
    /// the memos a mutation with the given footprint could have changed:
    /// balls containing an affected node and pairs whose dependency set
    /// meets one. O(entries naming an affected node) — proportional to
    /// the damage `d`, never a flush of the whole cache. The first call
    /// on a cache also builds the reverse indexes from its live entries,
    /// once; later inserts keep them current.
    ///
    /// `affected` is the union of every mutated link's endpoints since
    /// the last sync: [`dyngraph::AdvanceReport::affected`] for expiries
    /// plus the endpoints of any inserts (node-growth-only mutations
    /// contribute nothing — an isolated new node is in no memoized
    /// subgraph). Soundness: removing or adding links that touch no node
    /// of a BFS ball cannot change the ball (every shortest path into a
    /// ball runs entirely through it), and a pair result is a function
    /// of the balls over its recorded dependency set.
    ///
    /// The frozen fallback layer, if any, is keyed to the old revision
    /// and is dropped; callers holding one are readers that re-seed per
    /// snapshot anyway.
    pub fn sync_affected<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        window: Option<(Timestamp, Timestamp)>,
        affected: &[NodeId],
    ) {
        if !self.indexed {
            self.indexed = true;
            self.rebuild_ball_index();
            self.rebuild_pair_index();
        }
        let rev = g.revision();
        if rev == self.revision && window == self.window {
            return;
        }
        let mut dropped = 0u64;
        for &node in affected {
            if let Some(keys) = self.ball_index.remove(&node) {
                for key in keys {
                    if self.balls.remove(&key).is_some() {
                        dropped += 1;
                    }
                }
            }
            if let Some(keys) = self.pair_index.remove(&node) {
                for key in keys {
                    if self.pairs.remove(&key).is_some() {
                        dropped += 1;
                    }
                }
            }
        }
        // The frozen layer is immutable and keyed to the old revision;
        // it cannot be filtered in place.
        self.frozen = None;
        self.stats.selective_invalidations += 1;
        self.stats.entries_invalidated += dropped;
        self.revision = rev;
        self.window = window;
    }

    /// Drops the pair memo if the extractor configuration it was filled
    /// under differs (balls survive: they depend only on the graph).
    pub(crate) fn sync_config(&mut self, k: usize, max_h: u32) {
        if self.config_key != (k, max_h) {
            self.pairs.clear();
            self.clear_pair_index();
            self.config_key = (k, max_h);
        }
    }

    fn clear_ball_index(&mut self) {
        self.ball_index.clear();
        self.ball_index_slots = 0;
        self.ball_index_trigger = INDEX_REBUILD_FLOOR;
    }

    fn clear_pair_index(&mut self) {
        self.pair_index.clear();
        self.pair_index_slots = 0;
        self.pair_index_trigger = INDEX_REBUILD_FLOOR;
    }

    /// Records `key` in the ball reverse index under every member of
    /// `members`, compacting the index when stale slots (left behind by
    /// LRU eviction) outgrow the rebuild trigger. A no-op until the
    /// cache is indexed.
    fn index_ball(&mut self, key: (NodeId, u32), members: &[(NodeId, u32)]) {
        if !self.indexed {
            return;
        }
        for &(node, _) in members {
            self.ball_index.entry(node).or_default().push(key);
        }
        self.ball_index_slots += members.len();
        if self.ball_index_slots > self.ball_index_trigger {
            self.rebuild_ball_index();
        }
    }

    /// Pair-side twin of [`ExtractionCache::index_ball`].
    fn index_pair(&mut self, key: (NodeId, NodeId), deps: &[NodeId]) {
        if !self.indexed {
            return;
        }
        for &node in deps {
            self.pair_index.entry(node).or_default().push(key);
        }
        self.pair_index_slots += deps.len();
        if self.pair_index_slots > self.pair_index_trigger {
            self.rebuild_pair_index();
        }
    }

    /// Rebuilds the ball reverse index from the live entries alone.
    fn rebuild_ball_index(&mut self) {
        let mut index: HashMap<NodeId, Vec<(NodeId, u32)>> = HashMap::new();
        let mut slots = 0usize;
        for (&k, ball) in self.balls.entries() {
            for &(node, _) in ball.iter() {
                index.entry(node).or_default().push(k);
                slots += 1;
            }
        }
        self.ball_index = index;
        self.ball_index_slots = slots;
        self.ball_index_trigger = (2 * slots).max(INDEX_REBUILD_FLOOR);
    }

    /// Pair-side twin of [`ExtractionCache::rebuild_ball_index`].
    fn rebuild_pair_index(&mut self) {
        let mut index: HashMap<NodeId, Vec<(NodeId, NodeId)>> = HashMap::new();
        let mut slots = 0usize;
        for (&k, pair) in self.pairs.entries() {
            for &node in &pair.deps {
                index.entry(node).or_default().push(k);
                slots += 1;
            }
        }
        self.pair_index = index;
        self.pair_index_slots = slots;
        self.pair_index_trigger = (2 * slots).max(INDEX_REBUILD_FLOOR);
    }

    /// Memoized bounded BFS ball of `src` at radius `h`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is outside `g` (callers validate endpoints first).
    pub(crate) fn ball<G: GraphView + ?Sized>(
        &mut self,
        g: &G,
        src: NodeId,
        h: u32,
    ) -> CachedBall {
        if let Some(b) = self.balls.get(&(src, h)) {
            self.stats.ball_hits += 1;
            return Arc::clone(b);
        }
        if let Some(b) = self
            .frozen
            .as_ref()
            .filter(|f| f.revision == self.revision && f.window == self.window)
            .and_then(|f| f.balls.get(&(src, h)))
        {
            self.stats.ball_hits += 1;
            let b = Arc::clone(b);
            self.balls.insert((src, h), Arc::clone(&b));
            self.index_ball((src, h), &b);
            return b;
        }
        self.stats.ball_misses += 1;
        // K-growth requests radii incrementally; when the radius-(h−1) ball
        // is already memoized, extend it instead of rediscovering the inner
        // layers — bit-identical because BFS layers are strict prefixes.
        let prev: Option<CachedBall> = if h > 1 {
            self.balls.get(&(src, h - 1)).map(Arc::clone).or_else(|| {
                self.frozen
                    .as_ref()
                    .filter(|f| {
                        f.revision == self.revision && f.window == self.window
                    })
                    .and_then(|f| f.balls.get(&(src, h - 1)))
                    .map(Arc::clone)
            })
        } else {
            None
        };
        let span = self.obs.span("ssf.core.ball");
        let b = match prev {
            Some(p) => Arc::new(ball_extend(
                g,
                p.as_slice(),
                h - 1,
                h,
                &mut self.scratch.hop,
            )),
            None => Arc::new(ball(g, src, h, &mut self.scratch.hop)),
        };
        span.finish();
        self.balls.insert((src, h), Arc::clone(&b));
        self.index_ball((src, h), &b);
        b
    }

    /// Memoized pair lookup (no recording of misses: the caller decides
    /// whether a miss leads to a computation).
    pub(crate) fn pair(
        &mut self,
        a: NodeId,
        b: NodeId,
    ) -> Option<Arc<CachedPair>> {
        if let Some(p) = self.pairs.get(&(a, b)) {
            return Some(Arc::clone(p));
        }
        let p = self
            .frozen
            .as_ref()
            .filter(|f| {
                f.revision == self.revision
                    && f.window == self.window
                    && f.config_key == self.config_key
            })
            .and_then(|f| f.pairs.get(&(a, b)))
            .map(Arc::clone)?;
        self.pairs.insert((a, b), Arc::clone(&p));
        self.index_pair((a, b), &p.deps);
        Some(p)
    }

    /// Stores a freshly computed pair result, recording its dependency
    /// set in the reverse index for selective invalidation.
    pub(crate) fn insert_pair(
        &mut self,
        a: NodeId,
        b: NodeId,
        pair: Arc<CachedPair>,
    ) {
        self.index_pair((a, b), &pair.deps);
        self.pairs.insert((a, b), pair);
    }
}

#[cfg(test)]
mod tests {
    use dyngraph::DynamicNetwork;

    use super::*;

    #[test]
    fn lru_get_and_insert_round_trip() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        assert!(c.is_empty());
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.get(&1), Some(&10));
        assert_eq!(c.get(&3), None);
        assert_eq!(c.len(), 2);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        for i in 0..4 {
            c.insert(i, i);
        }
        // Touch 0 and 1 so 2 and 3 are the stale half.
        assert!(c.get(&0).is_some());
        assert!(c.get(&1).is_some());
        c.insert(4, 4);
        assert!(c.len() <= 4);
        assert_eq!(c.get(&0), Some(&0));
        assert_eq!(c.get(&1), Some(&1));
        assert_eq!(c.get(&4), Some(&4));
        assert_eq!(c.get(&2), None);
        assert_eq!(c.get(&3), None);
    }

    #[test]
    fn lru_capacity_one_still_works() {
        let mut c: LruCache<u32, u32> = LruCache::new(1);
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.get(&2), Some(&2));
        assert_eq!(c.get(&1), None);
    }

    #[test]
    fn lru_reinsert_replaces_without_eviction() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 1);
        c.insert(2, 2);
        c.insert(1, 11);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&1), Some(&11));
        assert_eq!(c.get(&2), Some(&2));
    }

    #[test]
    fn sync_invalidates_on_revision_change_only() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut cache = ExtractionCache::new();
        cache.sync(&g);
        let _ = cache.ball(&g, 0, 1);
        assert_eq!(cache.len().0, 1);
        cache.sync(&g); // same revision: memo survives
        assert_eq!(cache.len().0, 1);
        g.add_link(0, 2, 3);
        cache.sync(&g); // revision moved: memo dropped
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn ball_memo_hits_and_misses_are_counted() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut cache = ExtractionCache::new();
        cache.sync(&g);
        let fresh = cache.ball(&g, 1, 2);
        let memo = cache.ball(&g, 1, 2);
        assert_eq!(fresh, memo);
        assert_eq!(cache.stats().ball_misses, 1);
        assert_eq!(cache.stats().ball_hits, 1);
        assert!(cache.stats().hit_rate() > 0.0);
    }

    #[test]
    fn sync_affected_drops_only_touched_balls() {
        // A path 0-1-2-3-4-5: the radius-1 balls of 0 and 5 are disjoint.
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 5, 5)]);
        let mut cache = ExtractionCache::new();
        cache.sync(&g);
        let _ = cache.ball(&g, 0, 1);
        let far = cache.ball(&g, 5, 1);
        assert_eq!(cache.len().0, 2);
        // Mutate near node 0 only: the far ball must survive and hit.
        g.add_link(0, 2, 6);
        cache.sync_affected(&g, None, &[0, 2]);
        assert_eq!(cache.stats().invalidations, 0);
        assert_eq!(cache.stats().selective_invalidations, 1);
        assert_eq!(cache.stats().entries_invalidated, 1);
        assert_eq!(cache.len().0, 1);
        let hits_before = cache.stats().ball_hits;
        let served = cache.ball(&g, 5, 1);
        assert!(Arc::ptr_eq(&far, &served));
        assert_eq!(cache.stats().ball_hits, hits_before + 1);
        // The invalidated ball recomputes fresh (and is correct).
        let fresh = cache.ball(&g, 0, 1);
        assert!(fresh.iter().any(|&(n, _)| n == 2));
    }

    #[test]
    fn sync_affected_drops_pairs_by_dependency_set() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (4, 5, 2)]);
        let mut cache = ExtractionCache::new();
        cache.sync(&g);
        cache.sync_config(4, 10);
        let pair = |deps: Vec<NodeId>| {
            Arc::new(CachedPair {
                ks: KStructureSubgraph::empty(3),
                h_used: 1,
                structure_nodes: 2,
                deps,
            })
        };
        cache.insert_pair(0, 1, pair(vec![0, 1]));
        cache.insert_pair(4, 5, pair(vec![4, 5]));
        g.add_link(1, 2, 3);
        cache.sync_affected(&g, None, &[1, 2]);
        assert!(cache.pair(0, 1).is_none());
        assert!(cache.pair(4, 5).is_some());
        assert_eq!(cache.stats().entries_invalidated, 1);
    }

    fn test_pair(deps: Vec<NodeId>) -> Arc<CachedPair> {
        Arc::new(CachedPair {
            ks: KStructureSubgraph::empty(3),
            h_used: 1,
            structure_nodes: deps.len(),
            deps,
        })
    }

    /// Radius-1 and radius-2 balls of every node of `g`, plus one pair
    /// per consecutive id whose dependencies are its radius-1 union.
    fn fill(cache: &mut ExtractionCache, g: &DynamicNetwork) {
        let n = g.node_count() as NodeId;
        for node in 0..n {
            let _ = cache.ball(g, node, 1);
            let _ = cache.ball(g, node, 2);
        }
        for a in 0..n - 1 {
            let mut deps: Vec<NodeId> = cache
                .ball(g, a, 1)
                .iter()
                .chain(cache.ball(g, a + 1, 1).iter())
                .map(|&(node, _)| node)
                .collect();
            deps.sort_unstable();
            deps.dedup();
            cache.insert_pair(a, a + 1, test_pair(deps));
        }
    }

    /// The live memo keys, balls then pairs, sorted.
    type Keys = (Vec<(NodeId, u32)>, Vec<(NodeId, NodeId)>);

    fn live_keys(cache: &ExtractionCache) -> Keys {
        let mut balls: Vec<_> =
            cache.balls.entries().map(|(k, _)| *k).collect();
        let mut pairs: Vec<_> =
            cache.pairs.entries().map(|(k, _)| *k).collect();
        balls.sort_unstable();
        pairs.sort_unstable();
        (balls, pairs)
    }

    #[test]
    fn lazy_and_eager_indexes_drop_the_same_entries() {
        // A path 0-1-…-9.
        let mut g: DynamicNetwork = (0..9u32).map(|i| (i, i + 1, 1)).collect();
        // Indexed before any fill: every insert is indexed as it lands.
        let mut eager = ExtractionCache::new();
        eager.sync_affected(&g, None, &[]);
        fill(&mut eager, &g);
        // Filled while unindexed: the first sync_affected builds both
        // indexes from the live entries.
        let mut lazy = ExtractionCache::new();
        lazy.sync(&g);
        fill(&mut lazy, &g);
        assert!(lazy.ball_index.is_empty() && lazy.pair_index.is_empty());
        assert_eq!(live_keys(&eager), live_keys(&lazy));

        g.add_link(2, 6, 2);
        eager.sync_affected(&g, None, &[2, 6]);
        lazy.sync_affected(&g, None, &[2, 6]);
        let dropped = eager.stats().entries_invalidated;
        assert!(dropped > 0, "the mutation touched memoized entries");
        assert_eq!(lazy.stats().entries_invalidated, dropped);
        assert_eq!(live_keys(&eager), live_keys(&lazy));
        assert!(!lazy.ball_index.is_empty() && !lazy.pair_index.is_empty());

        // Indexed from then on: entries filled after the first call are
        // dropped by later calls too.
        fill(&mut eager, &g);
        fill(&mut lazy, &g);
        g.add_link(8, 9, 3);
        eager.sync_affected(&g, None, &[8, 9]);
        lazy.sync_affected(&g, None, &[8, 9]);
        assert!(eager.stats().entries_invalidated > dropped);
        assert_eq!(
            lazy.stats().entries_invalidated,
            eager.stats().entries_invalidated
        );
        assert_eq!(live_keys(&eager), live_keys(&lazy));
    }

    #[test]
    fn reader_caches_hold_no_reverse_index() {
        let mut g: DynamicNetwork = (0..6u32).map(|i| (i, i + 1, 1)).collect();
        let mut warm = ExtractionCache::new();
        warm.sync(&g);
        fill(&mut warm, &g);
        let mut reader = ExtractionCache::with_frozen(warm.freeze());
        reader.sync(&g);
        let _ = reader.ball(&g, 2, 1); // frozen hit, copied locally
        let _ = reader.ball(&g, 2, 3); // miss, extended from radius 2
        assert!(reader.pair(0, 1).is_some());
        reader.insert_pair(4, 2, test_pair(vec![2, 4]));
        g.add_link(0, 5, 2);
        reader.sync(&g);
        fill(&mut reader, &g);
        for cache in [&warm, &reader] {
            assert!(cache.ball_index.is_empty() && cache.pair_index.is_empty());
        }

        // A re-seed returns an indexed cache to the reader state.
        let mut writer = ExtractionCache::new();
        writer.sync_affected(&g, None, &[]);
        fill(&mut writer, &g);
        assert!(!writer.ball_index.is_empty());
        writer.reseed(reader.freeze());
        assert!(writer.is_empty());
        fill(&mut writer, &g);
        assert!(writer.ball_index.is_empty() && writer.pair_index.is_empty());
    }

    #[test]
    fn reseed_matches_a_fresh_frozen_cache() {
        let mut g: DynamicNetwork = (0..6u32).map(|i| (i, i + 1, 1)).collect();
        let mut warm = ExtractionCache::new();
        warm.sync(&g);
        warm.sync_config(4, 10);
        fill(&mut warm, &g);
        let view = warm.freeze();
        // A recycled cache that last served another graph state.
        let mut recycled = ExtractionCache::new();
        g.add_link(0, 3, 2);
        recycled.sync(&g);
        fill(&mut recycled, &g);
        recycled.reseed(view.clone());
        let mut fresh = ExtractionCache::with_frozen(view);
        assert_eq!(recycled.stats(), fresh.stats());
        assert_eq!(recycled.len(), (0, 0));
        assert_eq!(recycled.window(), fresh.window());
        assert_eq!(
            (recycled.revision, recycled.config_key),
            (fresh.revision, fresh.config_key)
        );
        // It serves the view's memos, not what it held before.
        assert!(recycled.pair(0, 1).is_some());
        assert_eq!(recycled.pair(0, 1), fresh.pair(0, 1));
    }

    #[test]
    fn sync_affected_same_revision_and_window_is_a_noop() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1)]);
        let mut cache = ExtractionCache::new();
        cache.sync_affected(&g, Some((10, 5)), &[0, 1]);
        let _ = cache.ball(&g, 0, 1);
        cache.sync_affected(&g, Some((10, 5)), &[0, 1]);
        assert_eq!(cache.len().0, 1, "no-op sync must not drop entries");
        assert_eq!(cache.window(), Some((10, 5)));
        // A pure window move at the same revision *is* a re-key.
        cache.sync_affected(&g, Some((10, 6)), &[]);
        assert_eq!(cache.window(), Some((10, 6)));
    }

    #[test]
    fn frozen_view_reuse_gated_on_window() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut warm = ExtractionCache::new();
        warm.sync_affected(&g, Some((100, 2)), &[0, 1, 2]);
        let _ = warm.ball(&g, 1, 2);
        let view = warm.freeze();
        assert_eq!(view.window(), Some((100, 2)));
        let mut seeded = ExtractionCache::with_frozen(view);
        assert_eq!(seeded.window(), Some((100, 2)));
        // Same revision, different window: the frozen memo must not serve.
        seeded.sync_affected(&g, Some((100, 3)), &[]);
        let _ = seeded.ball(&g, 1, 2);
        assert_eq!(seeded.stats().ball_hits, 0);
        assert_eq!(seeded.stats().ball_misses, 1);
    }

    #[test]
    fn frozen_view_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FrozenCacheView>();
    }

    #[test]
    fn frozen_view_serves_ball_hits_without_recompute() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut warm = ExtractionCache::new();
        warm.sync(&g);
        let original = warm.ball(&g, 1, 2);
        let view = warm.freeze();
        assert_eq!(view.revision(), g.revision());
        assert_eq!(view.len().0, 1);

        let mut seeded = ExtractionCache::with_frozen(view);
        seeded.sync(&g); // same revision: frozen layer survives
        let served = seeded.ball(&g, 1, 2);
        assert_eq!(original, served);
        assert!(Arc::ptr_eq(&original, &served));
        assert_eq!(seeded.stats().ball_hits, 1);
        assert_eq!(seeded.stats().ball_misses, 0);
    }

    #[test]
    fn frozen_view_dropped_when_revision_moves() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut warm = ExtractionCache::new();
        warm.sync(&g);
        let _ = warm.ball(&g, 1, 2);
        let mut seeded = ExtractionCache::with_frozen(warm.freeze());
        g.add_link(0, 2, 3);
        seeded.sync(&g);
        let _ = seeded.ball(&g, 1, 2);
        assert_eq!(seeded.stats().ball_hits, 0);
        assert_eq!(seeded.stats().ball_misses, 1);
    }

    #[test]
    fn frozen_pairs_gated_on_config_key() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut warm = ExtractionCache::new();
        warm.sync(&g);
        warm.sync_config(4, 10);
        warm.insert_pair(
            0,
            1,
            Arc::new(CachedPair {
                ks: KStructureSubgraph::empty(3),
                h_used: 1,
                structure_nodes: 2,
                deps: vec![0, 1],
            }),
        );
        let mut seeded = ExtractionCache::with_frozen(warm.freeze());
        seeded.sync(&g);
        seeded.sync_config(4, 10);
        assert!(seeded.pair(0, 1).is_some());
        seeded.sync_config(5, 10); // config moved: frozen pairs invalid
        assert!(seeded.pair(0, 1).is_none());
    }

    #[test]
    fn freeze_folds_in_underlying_frozen_layer() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut warm = ExtractionCache::new();
        warm.sync(&g);
        let _ = warm.ball(&g, 0, 2);
        let mut seeded = ExtractionCache::with_frozen(warm.freeze());
        seeded.sync(&g);
        let _ = seeded.ball(&g, 2, 2); // new local entry
        let refrozen = seeded.freeze();
        assert_eq!(refrozen.len().0, 2);
    }

    #[test]
    fn config_change_drops_pairs_but_keeps_balls() {
        let mut g = DynamicNetwork::new();
        g.extend([(0, 1, 1), (1, 2, 2)]);
        let mut cache = ExtractionCache::new();
        cache.sync(&g);
        cache.sync_config(4, 10);
        let _ = cache.ball(&g, 0, 1);
        cache.insert_pair(
            0,
            1,
            Arc::new(CachedPair {
                ks: KStructureSubgraph::empty(3),
                h_used: 1,
                structure_nodes: 2,
                deps: vec![0, 1],
            }),
        );
        assert_eq!(cache.len(), (1, 1));
        cache.sync_config(5, 10);
        assert_eq!(cache.len(), (1, 0));
    }
}
