//! h-hop subgraph extraction (Definition 3 of the paper).
//!
//! The *h-hop subgraph* `G_{h→e_t}` of a target link `e_t = (a, b)` contains
//! every node within hop distance `h` of either endpoint (Eq. 1:
//! `d(n_i, e_t) = min(|P(n_i, n_a)|, |P(n_i, n_b)|)`) together with all
//! timestamped links induced among those nodes.
//!
//! The assembly path is branch-light by design: BFS membership runs over
//! a stamped array indexed by global node id, ball merging and local-id
//! lookup over a stamped probe table sized to the two balls, and the
//! induced links live in one flat CSR — `crate::reference` keeps the
//! naive `HashMap` formulation this module is differentially tested
//! against (`tests/kernels.rs`).

use dyngraph::{GraphView, NodeId, Timestamp};

use crate::error::ExtractError;

/// Reusable buffers for h-hop extraction: a stamped visited map (so the
/// per-node state never needs clearing between runs), BFS frontiers, and
/// the stamped merge table that replaces per-call hash maps.
///
/// One scratch serves any number of sequential extractions; a fresh
/// default-constructed scratch produces bit-identical results to a reused
/// one, so batch paths can thread a single instance through thousands of
/// samples without changing any output.
#[derive(Debug, Clone, Default)]
pub struct HopScratch {
    /// `stamp[n] == epoch` marks `n` as discovered by the current BFS.
    ///
    /// The only graph-sized buffer: 4 bytes per node. Epoch wrap-around
    /// is handled by zeroing the stamp array (once every ~4 billion
    /// extractions).
    stamp: Vec<u32>,
    epoch: u32,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
    /// Linear-probing table of the current merge's members: a slot is
    /// live when its stamp is `mepoch`. A merge uses only the first
    /// `1 << mbits` slots, at most half of them filled, so its footprint
    /// follows the two balls rather than the graph.
    merge: Vec<MergeSlot>,
    mepoch: u32,
    mbits: u32,
    rest: Vec<(u32, NodeId)>,
    edges: Vec<(u32, u32, Timestamp)>,
    cursor: Vec<usize>,
    row: Vec<u32>,
}

/// One member of a merge: its joint distance and local id, kept with the
/// key so a lookup touches one cache line.
#[derive(Debug, Clone, Copy, Default)]
struct MergeSlot {
    stamp: u32,
    node: NodeId,
    dist: u32,
    local: u32,
}

impl HopScratch {
    fn begin(&mut self, nodes: usize) {
        if self.stamp.len() < nodes {
            self.stamp.resize(nodes, 0);
        }
        if self.epoch == u32::MAX {
            // Wrap: every stale stamp could collide with a future epoch,
            // so clear them all and restart. Results are unchanged — a
            // zeroed map is exactly the fresh-scratch state.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Starts a merge of at most `members` nodes: the probe table gets
    /// at least twice that many slots, and only those are used.
    fn begin_merge(&mut self, members: usize) {
        let bits = (2 * members.max(8)).next_power_of_two().trailing_zeros();
        let slots = 1usize << bits;
        if self.merge.len() < slots {
            self.merge.resize(slots, MergeSlot::default());
        }
        if self.mepoch == u32::MAX {
            self.merge.fill(MergeSlot::default());
            self.mepoch = 0;
        }
        self.mepoch += 1;
        self.mbits = bits;
    }

    /// The slot of `n` in the current merge: its own if `n` is a member,
    /// else the free slot where it would go.
    fn merge_slot(&self, n: NodeId) -> usize {
        let mask = (1usize << self.mbits) - 1;
        let mut i = (u64::from(n).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> (64 - self.mbits)) as usize;
        loop {
            let slot = &self.merge[i];
            if slot.stamp != self.mepoch || slot.node == n {
                return i;
            }
            i = (i + 1) & mask;
        }
    }
}

/// Computes the bounded BFS ball of one endpoint: every `(node, distance)`
/// with `distance <= h` from `src`, in breadth-first discovery order
/// (`src` itself first, at distance 0).
///
/// Balls are the unit of reuse of the extraction cache: the h-hop subgraph
/// of a pair is assembled from the two endpoint balls, so pairs sharing an
/// endpoint share its frontier computation.
///
/// Generic over any [`GraphView`]: the mutable `DynamicNetwork`, the CSR
/// `FrozenGraph` and published overlay views all produce bit-identical
/// balls (the view contract fixes the neighbor ordering).
///
/// # Panics
///
/// Panics if `src` is outside `g`.
pub fn ball<G: GraphView + ?Sized>(
    g: &G,
    src: NodeId,
    h: u32,
    scratch: &mut HopScratch,
) -> Vec<(NodeId, u32)> {
    assert!((src as usize) < g.node_count(), "ball source out of range");
    scratch.begin(g.node_count());
    let epoch = scratch.epoch;
    let mut out = Vec::new();
    scratch.stamp[src as usize] = epoch;
    out.push((src, 0));
    scratch.frontier.clear();
    scratch.frontier.push(src);
    grow_layers(g, h, 0, &mut out, scratch);
    out
}

/// Extends a radius-`h_prev` [`ball`] of `src` to radius `h` without
/// re-discovering the inner layers.
///
/// A bounded BFS discovers layers in order, so `ball(src, h_prev)` is a
/// strict prefix of `ball(src, h)`; re-stamping the known layers and
/// resuming from the depth-`h_prev` frontier reproduces the full ball
/// bit for bit (same nodes, same discovery order). `prev` must be the
/// exact output of `ball(g, src, h_prev, …)` at the current graph state.
///
/// # Panics
///
/// Panics if `prev` is empty or not rooted at distance 0.
pub fn ball_extend<G: GraphView + ?Sized>(
    g: &G,
    prev: &[(NodeId, u32)],
    h_prev: u32,
    h: u32,
    scratch: &mut HopScratch,
) -> Vec<(NodeId, u32)> {
    assert!(
        !prev.is_empty() && prev[0].1 == 0,
        "malformed previous ball"
    );
    scratch.begin(g.node_count());
    let epoch = scratch.epoch;
    let mut out = Vec::with_capacity(prev.len());
    scratch.frontier.clear();
    for &(n, d) in prev {
        scratch.stamp[n as usize] = epoch;
        out.push((n, d));
        if d == h_prev {
            scratch.frontier.push(n);
        }
    }
    grow_layers(g, h, h_prev, &mut out, scratch);
    out
}

/// BFS layer expansion shared by [`ball`] and [`ball_extend`]: grows
/// `scratch.frontier` (depth `depth`) out to radius `h`, appending
/// discoveries to `out`.
fn grow_layers<G: GraphView + ?Sized>(
    g: &G,
    h: u32,
    mut depth: u32,
    out: &mut Vec<(NodeId, u32)>,
    scratch: &mut HopScratch,
) {
    let epoch = scratch.epoch;
    while !scratch.frontier.is_empty() && depth < h {
        depth += 1;
        scratch.next.clear();
        for i in 0..scratch.frontier.len() {
            let u = scratch.frontier[i];
            for &v in g.distinct_neighbors(u) {
                if scratch.stamp[v as usize] != epoch {
                    scratch.stamp[v as usize] = epoch;
                    out.push((v, depth));
                    scratch.next.push(v);
                }
            }
        }
        std::mem::swap(&mut scratch.frontier, &mut scratch.next);
    }
}

/// The h-hop subgraph of a target link, re-indexed to dense local ids.
///
/// Local id 0 is always endpoint `a`, local id 1 endpoint `b`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopSubgraph {
    /// Global node id of each local node; `global[0] = a`, `global[1] = b`.
    global: Vec<NodeId>,
    /// `dist[i]` = hop distance of local node `i` to the target link (Eq. 1).
    dist: Vec<u32>,
    /// Incidence CSR row bounds: row `i` is
    /// `inc_offsets[i]..inc_offsets[i + 1]` of `inc`.
    inc_offsets: Vec<usize>,
    /// Flat `(neighbor, timestamp)` incidences, one entry per induced link
    /// per endpoint (mirrored). Local ids are `u32` — a subgraph's node
    /// count is bounded by the host graph's `u32` id space, and the
    /// narrow entries halve the footprint of the extraction hot path.
    inc: Vec<(u32, Timestamp)>,
    /// Distinct-neighbor CSR row bounds: row `i` is
    /// `nbr_offsets[i]..nbr_offsets[i + 1]` of `nbr_ids`.
    nbr_offsets: Vec<usize>,
    /// Flat distinct local neighbors, sorted ascending per node.
    nbr_ids: Vec<u32>,
    /// The hop radius this subgraph was extracted with.
    h: u32,
    /// Total induced links (each counted once).
    links: usize,
}

impl HopSubgraph {
    /// Extracts the h-hop subgraph of target link `(a, b)` from `g`.
    ///
    /// Any existing history links between `a` and `b` themselves are
    /// *excluded* from the induced link set: the adjacency entry `A(1,2)` of
    /// the eventual feature matrix is defined to be 0 because the target
    /// link is the unknown being predicted (§V-B).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either endpoint is outside `g`. Serving paths
    /// that cannot rule those out should use [`HopSubgraph::try_extract`].
    pub fn extract<G: GraphView + ?Sized>(
        g: &G,
        a: NodeId,
        b: NodeId,
        h: u32,
    ) -> Self {
        match Self::try_extract(g, a, b, h) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`HopSubgraph::extract`]: degenerate targets come
    /// back as [`ExtractError`] values instead of panics.
    ///
    /// # Errors
    ///
    /// [`ExtractError::DegenerateTarget`] when `a == b`, and
    /// [`ExtractError::UnknownEndpoint`] when either endpoint is outside
    /// `g`'s id space.
    pub fn try_extract<G: GraphView + ?Sized>(
        g: &G,
        a: NodeId,
        b: NodeId,
        h: u32,
    ) -> Result<Self, ExtractError> {
        Self::validate(g, a, b)?;
        let mut scratch = HopScratch::default();
        let ball_a = ball(g, a, h, &mut scratch);
        let ball_b = ball(g, b, h, &mut scratch);
        Ok(Self::from_balls(g, a, b, h, &ball_a, &ball_b, &mut scratch))
    }

    /// Checks that `(a, b)` is a valid target pair in `g`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HopSubgraph::try_extract`].
    pub fn validate<G: GraphView + ?Sized>(
        g: &G,
        a: NodeId,
        b: NodeId,
    ) -> Result<(), ExtractError> {
        if a == b {
            return Err(ExtractError::DegenerateTarget { node: a });
        }
        for node in [a, b] {
            if node as usize >= g.node_count() {
                return Err(ExtractError::UnknownEndpoint {
                    node,
                    node_count: g.node_count(),
                });
            }
        }
        Ok(())
    }

    /// Assembles the h-hop subgraph from the two endpoint [`ball`]s.
    ///
    /// The joint distance of Eq. 1 is `min(d_a, d_b)`, which is exactly the
    /// per-node minimum over the two balls, and the h-hop node set is their
    /// union — so cached per-endpoint frontiers compose losslessly. Local
    /// ids are canonical: 0 = `a`, 1 = `b`, then every other node sorted by
    /// `(joint distance, global id)`. The canonical order is independent of
    /// how the balls were produced, so cached and freshly-computed
    /// extractions are bit-identical.
    ///
    /// Endpoints must already be validated (see [`HopSubgraph::validate`])
    /// and each ball must belong to its endpoint at radius `h`.
    pub fn from_balls<G: GraphView + ?Sized>(
        g: &G,
        a: NodeId,
        b: NodeId,
        h: u32,
        ball_a: &[(NodeId, u32)],
        ball_b: &[(NodeId, u32)],
        scratch: &mut HopScratch,
    ) -> Self {
        scratch.begin_merge(ball_a.len() + ball_b.len());
        let epoch = scratch.mepoch;
        // Union of the balls with per-node minimum distance, over the
        // stamped merge table: first sight records, later sights only
        // lower the distance. The endpoints are members by construction.
        scratch.rest.clear();
        for &(n, d) in ball_a.iter().chain(ball_b) {
            let i = scratch.merge_slot(n);
            let slot = &mut scratch.merge[i];
            if slot.stamp != epoch {
                slot.stamp = epoch;
                slot.node = n;
                slot.dist = d;
                if n != a && n != b {
                    scratch.rest.push((0, n));
                }
            } else if d < slot.dist {
                slot.dist = d;
            }
        }
        // Canonical local order: endpoints first, rest by (distance, id).
        for k in 0..scratch.rest.len() {
            let slot = scratch.merge_slot(scratch.rest[k].1);
            scratch.rest[k].0 = scratch.merge[slot].dist;
        }
        scratch.rest.sort_unstable();
        let mut global = Vec::with_capacity(scratch.rest.len() + 2);
        let mut dist = Vec::with_capacity(scratch.rest.len() + 2);
        global.push(a);
        dist.push(0);
        global.push(b);
        dist.push(0);
        for &(d, n) in &scratch.rest {
            global.push(n);
            dist.push(d);
        }
        for (i, &n) in global.iter().enumerate() {
            let slot = scratch.merge_slot(n);
            scratch.merge[slot].local = i as u32;
        }
        // Induced links, each discovered once via `u < v`; membership is
        // a probe of the small merge table, not a graph-sized array.
        scratch.edges.clear();
        for (i, &u) in global.iter().enumerate() {
            for (v, t) in g.incident_links(u) {
                if u >= v {
                    continue;
                }
                let slot = scratch.merge[scratch.merge_slot(v)];
                if slot.stamp == epoch {
                    if (u == a && v == b) || (u == b && v == a) {
                        continue; // target pair history excluded
                    }
                    scratch.edges.push((i as u32, slot.local, t));
                }
            }
        }
        let links = scratch.edges.len();
        // Mirrored incidence CSR, rows filled in edge-discovery order —
        // the same per-row sequence the per-node push formulation yields.
        let n = global.len();
        let mut inc_offsets = vec![0usize; n + 1];
        for &(i, j, _) in &scratch.edges {
            inc_offsets[i as usize + 1] += 1;
            inc_offsets[j as usize + 1] += 1;
        }
        for i in 0..n {
            inc_offsets[i + 1] += inc_offsets[i];
        }
        scratch.cursor.clear();
        scratch.cursor.extend_from_slice(&inc_offsets[..n]);
        let mut inc = vec![(0u32, 0 as Timestamp); 2 * links];
        for &(i, j, t) in &scratch.edges {
            inc[scratch.cursor[i as usize]] = (j, t);
            scratch.cursor[i as usize] += 1;
            inc[scratch.cursor[j as usize]] = (i, t);
            scratch.cursor[j as usize] += 1;
        }
        // Precompute the distinct-neighbor CSR so `neighbors` serves a
        // slice on the hot extraction path instead of allocating.
        let mut nbr_offsets = Vec::with_capacity(n + 1);
        let mut nbr_ids = Vec::with_capacity(2 * links);
        nbr_offsets.push(0);
        for i in 0..n {
            let row = &mut scratch.row;
            row.clear();
            row.extend(
                inc[inc_offsets[i]..inc_offsets[i + 1]]
                    .iter()
                    .map(|&(j, _)| j),
            );
            row.sort_unstable();
            row.dedup();
            nbr_ids.extend_from_slice(row);
            nbr_offsets.push(nbr_ids.len());
        }
        HopSubgraph {
            global,
            dist,
            inc_offsets,
            inc,
            nbr_offsets,
            nbr_ids,
            h,
            links,
        }
    }

    /// Number of nodes in the subgraph.
    pub fn node_count(&self) -> usize {
        self.global.len()
    }

    /// Number of induced timestamped links (multi-links counted, the target
    /// pair's history excluded).
    pub fn link_count(&self) -> usize {
        self.links
    }

    /// The hop radius used for extraction.
    pub fn radius(&self) -> u32 {
        self.h
    }

    /// Global node id of local node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn global_id(&self, i: usize) -> NodeId {
        self.global[i]
    }

    /// Hop distance of local node `i` to the target link.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn distance(&self, i: usize) -> u32 {
        self.dist[i]
    }

    /// All `(local neighbor, timestamp)` incidences of local node `i`,
    /// served from the flat incidence CSR.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn incident_links(&self, i: usize) -> &[(u32, Timestamp)] {
        &self.inc[self.inc_offsets[i]..self.inc_offsets[i + 1]]
    }

    /// Sorted distinct local neighbors of local node `i`, served from the
    /// precomputed local CSR (no per-call allocation).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.nbr_ids[self.nbr_offsets[i]..self.nbr_offsets[i + 1]]
    }
}

#[cfg(test)]
mod tests {
    use dyngraph::DynamicNetwork;

    use super::*;

    /// A two-triangle "bowtie" with a pendant chain:
    /// 0-1-2-0 (triangle), 2-3, 3-4, plus multi-link 0-1.
    fn sample() -> DynamicNetwork {
        [
            (0, 1, 1),
            (0, 1, 2),
            (1, 2, 3),
            (2, 0, 4),
            (2, 3, 5),
            (3, 4, 6),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn endpoints_are_locals_zero_and_one() {
        let g = sample();
        let s = HopSubgraph::extract(&g, 2, 4, 1);
        assert_eq!(s.global_id(0), 2);
        assert_eq!(s.global_id(1), 4);
        assert_eq!(s.distance(0), 0);
        assert_eq!(s.distance(1), 0);
    }

    #[test]
    fn one_hop_includes_union_of_neighborhoods() {
        let g = sample();
        let s = HopSubgraph::extract(&g, 2, 4, 1);
        // N(2) = {0,1,3}, N(4) = {3} → nodes {2,4,0,1,3}.
        assert_eq!(s.node_count(), 5);
    }

    #[test]
    fn target_history_links_excluded() {
        let g = sample();
        // 0-1 has two history links; extracting for target (0,1) must skip
        // them but keep everything else.
        let s = HopSubgraph::extract(&g, 0, 1, 2);
        for &(j, _) in s.incident_links(0) {
            assert_ne!(s.global_id(j as usize), 1);
        }
        // other links of the triangle remain
        assert!(s.link_count() >= 2);
    }

    #[test]
    fn multi_links_preserved() {
        let g = sample();
        let s = HopSubgraph::extract(&g, 2, 3, 1);
        // locals: 0->2, 1->3, then 0,1,4.
        let zero = (0..s.node_count()).find(|&i| s.global_id(i) == 0).unwrap();
        let one = (0..s.node_count()).find(|&i| s.global_id(i) == 1).unwrap();
        let links_01 = s
            .incident_links(zero)
            .iter()
            .filter(|&&(j, _)| j as usize == one)
            .count();
        assert_eq!(links_01, 2);
    }

    #[test]
    fn radius_bounds_distance() {
        let g = sample();
        let s = HopSubgraph::extract(&g, 0, 1, 1);
        for i in 0..s.node_count() {
            assert!(s.distance(i) <= 1);
        }
        // node 4 is at distance 2 from {0,1}: excluded.
        assert!((0..s.node_count()).all(|i| s.global_id(i) != 4));
    }

    #[test]
    fn neighbors_dedup_multi_links() {
        let g = sample();
        let s = HopSubgraph::extract(&g, 0, 1, 1);
        // local 0 = global 0: neighbors are {2} only (1 excluded as target).
        let n = s.neighbors(0);
        assert_eq!(n.len(), 1);
        assert_eq!(s.global_id(n[0] as usize), 2);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn same_endpoints_panic() {
        let g = sample();
        let _ = HopSubgraph::extract(&g, 1, 1, 1);
    }

    #[test]
    fn try_extract_reports_degenerate_targets() {
        let g = sample();
        assert_eq!(
            HopSubgraph::try_extract(&g, 1, 1, 1),
            Err(ExtractError::DegenerateTarget { node: 1 })
        );
        assert_eq!(
            HopSubgraph::try_extract(&g, 0, 99, 1),
            Err(ExtractError::UnknownEndpoint {
                node: 99,
                node_count: g.node_count()
            })
        );
        assert!(HopSubgraph::try_extract(&g, 0, 1, 1).is_ok());
    }

    #[test]
    fn disconnected_endpoint_pair_still_works() {
        let mut g = sample();
        g.extend([(7, 8, 1)]);
        let s = HopSubgraph::extract(&g, 0, 8, 1);
        assert_eq!(s.global_id(0), 0);
        assert_eq!(s.global_id(1), 8);
        // Components of both endpoints explored.
        assert!(s.node_count() >= 4);
    }

    #[test]
    fn ball_extend_matches_full_ball() {
        let mut g = sample();
        g.extend([(4, 5, 7), (5, 6, 8)]);
        let mut scratch = HopScratch::default();
        for src in [0u32, 2, 4, 6] {
            let mut prev = ball(&g, src, 1, &mut scratch);
            for h in 2..=4u32 {
                let full = ball(&g, src, h, &mut scratch);
                let ext = ball_extend(&g, &prev, h - 1, h, &mut scratch);
                assert_eq!(full, ext, "src {src} radius {h}");
                prev = ext;
            }
        }
    }

    /// `sample` plus a tail 4-5-6, so radii up to 4 keep growing.
    fn long_sample() -> DynamicNetwork {
        let mut g = sample();
        g.extend([(4, 5, 7), (5, 6, 8)]);
        g
    }

    /// A scratch whose stamp array and merge table hold marks from the
    /// first epochs (every node stamped 1 by a whole-component BFS and
    /// merge) and whose counters are one step short of `u32::MAX`. Were
    /// the wrap not to clear them, the restarted epochs would collide
    /// with those old marks.
    fn worn_scratch(g: &DynamicNetwork) -> HopScratch {
        let mut scratch = HopScratch::default();
        let whole = ball(g, 0, 10, &mut scratch);
        let _ =
            HopSubgraph::from_balls(g, 0, 6, 10, &whole, &whole, &mut scratch);
        assert_eq!((scratch.epoch, scratch.mepoch), (1, 1));
        scratch.epoch = u32::MAX - 1;
        scratch.mepoch = u32::MAX - 1;
        scratch
    }

    #[test]
    fn ball_and_extend_survive_the_epoch_wrap() {
        let g = long_sample();
        let mut worn = worn_scratch(&g);
        let mut wrapped = false;
        for src in [0u32, 3, 6, 2] {
            let mut fresh = HopScratch::default();
            let mut prev = ball(&g, src, 1, &mut worn);
            assert_eq!(prev, ball(&g, src, 1, &mut fresh), "src {src}");
            for h in 2..=4u32 {
                let full = ball(&g, src, h, &mut worn);
                assert_eq!(
                    full,
                    ball(&g, src, h, &mut fresh),
                    "src {src} h {h}"
                );
                let ext = ball_extend(&g, &prev, h - 1, h, &mut worn);
                assert_eq!(ext, full, "extension of src {src} to h {h}");
                prev = ext;
                wrapped |= worn.epoch < 8;
            }
        }
        assert!(wrapped, "the BFS epoch never wrapped");
    }

    #[test]
    fn from_balls_survives_the_merge_epoch_wrap() {
        let g = long_sample();
        let mut worn = worn_scratch(&g);
        let mut fresh = HopScratch::default();
        for (round, (a, b)) in [(0u32, 6u32), (2, 4), (6, 1), (3, 5)]
            .into_iter()
            .enumerate()
        {
            // The first merge after the wrap (round 0, h = 10) spans the
            // whole component, so it probes a table of the worn merge's
            // size, where the old marks sit at the same slots.
            for h in [1, 10, 2, 3u32] {
                let ba = ball(&g, a, h, &mut fresh);
                let bb = ball(&g, b, h, &mut fresh);
                let got =
                    HopSubgraph::from_balls(&g, a, b, h, &ba, &bb, &mut worn);
                let want = HopSubgraph::from_balls(
                    &g,
                    a,
                    b,
                    h,
                    &ba,
                    &bb,
                    &mut HopScratch::default(),
                );
                assert_eq!(got, want, "round {round}: ({a}, {b}) at h {h}");
            }
        }
        assert!(worn.mepoch < 16, "the merge epoch never wrapped");
    }

    /// A merge table left over from a large merge holds slots from older
    /// epochs inside the prefix a small merge probes; reusing it must
    /// match a fresh scratch for merges that shrink and grow again.
    #[test]
    fn merge_table_reuse_matches_fresh_scratch() {
        // A ring of 200 nodes with chords to the 7th neighbour.
        let g: DynamicNetwork = (0..200u32)
            .flat_map(|i| [(i, (i + 1) % 200, i), (i, (i + 7) % 200, i + 1)])
            .collect();
        let mut reused = HopScratch::default();
        let mut largest = 0;
        for (a, b, h) in
            [(0u32, 100u32, 4u32), (3, 5, 1), (50, 9, 3), (7, 8, 1)]
        {
            let mut fresh = HopScratch::default();
            let ba = ball(&g, a, h, &mut fresh);
            let bb = ball(&g, b, h, &mut fresh);
            let got =
                HopSubgraph::from_balls(&g, a, b, h, &ba, &bb, &mut reused);
            let want =
                HopSubgraph::from_balls(&g, a, b, h, &ba, &bb, &mut fresh);
            assert_eq!(got, want, "({a}, {b}) at h {h}");
            largest = largest.max(reused.merge.len());
            assert!(reused.merge.len() >= 1 << reused.mbits);
        }
        assert!(
            largest > 1 << reused.mbits,
            "the last merge must probe a prefix of a larger table"
        );
    }

    #[test]
    fn ball_extend_handles_exhausted_component() {
        let g = sample();
        let mut scratch = HopScratch::default();
        let full = ball(&g, 0, 10, &mut scratch);
        let prev = ball(&g, 0, 9, &mut scratch);
        // Radius 9 already exhausts the component: the frontier is empty
        // and extension is a no-op copy.
        let ext = ball_extend(&g, &prev, 9, 10, &mut scratch);
        assert_eq!(full, ext);
    }
}
