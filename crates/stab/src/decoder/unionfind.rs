//! Weighted union-find decoder (Delfosse–Nickerson style) with peeling.
//!
//! This is the workhorse decoder for the surface-code experiments (paper
//! §4.2.1, Figs. 6–7). It substitutes for the minimum-weight perfect-matching
//! decoder the paper's Stim pipeline would use; union-find achieves
//! near-MWPM accuracy at far lower implementation and runtime cost, and the
//! paper's conclusions depend only on relative (heterogeneous vs
//! homogeneous) logical error rates.
//!
//! # Allocation-free decoding
//!
//! The production path decodes through a reusable [`DecoderScratch`]: all
//! per-shot state lives in flat arrays sized once per graph, reset sparsely
//! via epoch stamps, and clusters keep intrusive lists of their growing
//! member nodes, so growth and unions never allocate. Shard loops decode
//! straight from the packed [`BitTable`] via
//! [`UnionFindDecoder::count_failures`] / [`UnionFindDecoder::decode_shots`],
//! which extract sparse defect lists with `trailing_zeros` over 64-bit
//! words and skip all-zero syndromes entirely.
//!
//! Predictions are **bit-identical** to the original per-shot decoder,
//! which is kept verbatim as [`UnionFindDecoder::decode_reference`] and
//! cross-checked by `tests/decode_scratch_differential.rs` (see
//! DESIGN.md §5k for the contract).

use crate::bits::{BitTable, ShotBlock};
use crate::decoder::graph::{CsrAdjacency, MatchingGraph};
use hetarch_obs as obs;

// Decoder metrics (no-ops unless the `obs` feature is on and
// `HETARCH_OBS=1`).
static DECODES: obs::Counter = obs::Counter::new("stab.decoder.decodes");
static EMPTY_FAST_PATH: obs::Counter = obs::Counter::new("stab.decoder.empty_fast_path");
static GROWTH_PASSES: obs::Counter = obs::Counter::new("stab.decoder.growth_passes");
static UNIONS: obs::Counter = obs::Counter::new("stab.decoder.unions");
static PEEL_DISCHARGES: obs::Counter = obs::Counter::new("stab.decoder.peel_discharges");
static PEEL_LEAKS: obs::Counter = obs::Counter::new("stab.decoder.peel_leaks");
static DECODE_NS: obs::Histogram = obs::Histogram::new("stab.decode_ns");

/// Empty link in the intrusive member lists.
const NIL: u32 = u32::MAX;
/// Boundary sentinel in the edge endpoint array.
const NO_NODE: u32 = u32::MAX;
/// Peel-forest parent sentinel: no parent (arbitrary root).
const PEEL_NONE: u32 = u32::MAX;
/// Peel-forest parent sentinel: reached through a boundary edge.
const PEEL_BOUNDARY: u32 = u32::MAX - 1;

const F_BOUNDARY: u8 = 1;
const F_VISITED: u8 = 2;
const F_MARKED: u8 = 4;
const F_PEEL_VISITED: u8 = 8;

/// A union-find decoder prebuilt for one matching graph.
///
/// Holds only the CSR adjacency and struct-of-arrays edge data it needs —
/// not a clone of the [`MatchingGraph`] it was built from.
///
/// # Examples
///
/// ```
/// use hetarch_stab::decoder::graph::MatchingGraph;
/// use hetarch_stab::decoder::unionfind::UnionFindDecoder;
///
/// // Three-node repetition-code strip with boundaries on both ends.
/// let mut g = MatchingGraph::new(2);
/// g.add_edge(0, None, 0.1, 1);      // left boundary, crosses the logical
/// g.add_edge(0, Some(1), 0.1, 0);   // middle
/// g.add_edge(1, None, 0.1, 0);      // right boundary
/// let decoder = UnionFindDecoder::new(&g);
/// // A defect on node 0 is closest to the left boundary: predicted flip.
/// assert_eq!(decoder.decode(&[true, false]), 1);
/// ```
#[derive(Clone, Debug)]
pub struct UnionFindDecoder {
    num_nodes: usize,
    adjacency: CsrAdjacency,
    /// First endpoint per edge.
    edge_u: Vec<u32>,
    /// Second endpoint per edge, or [`NO_NODE`] for a boundary edge.
    edge_v: Vec<u32>,
    /// Observable mask per edge.
    edge_obs: Vec<u64>,
    /// Integer growth length per edge (quantized weight).
    lengths: Vec<u32>,
}

impl UnionFindDecoder {
    /// Builds a decoder for `graph`, quantizing edge weights to integer
    /// growth lengths.
    pub fn new(graph: &MatchingGraph) -> Self {
        let min_w = graph
            .edges()
            .iter()
            .map(|e| e.weight())
            .fold(f64::INFINITY, f64::min)
            .max(1e-3);
        let lengths = graph
            .edges()
            .iter()
            .map(|e| ((e.weight() / min_w * 4.0).round() as u32).clamp(1, 1 << 14))
            .collect();
        UnionFindDecoder {
            num_nodes: graph.num_nodes(),
            adjacency: graph.csr_adjacency(),
            edge_u: graph.edges().iter().map(|e| e.u).collect(),
            edge_v: graph
                .edges()
                .iter()
                .map(|e| e.v.unwrap_or(NO_NODE))
                .collect(),
            edge_obs: graph.edges().iter().map(|e| e.obs_mask).collect(),
            lengths,
        }
    }

    /// Number of detector nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges (error mechanisms).
    pub fn num_edges(&self) -> usize {
        self.lengths.len()
    }

    /// Allocates a scratch arena sized for this decoder's graph. The list
    /// capacities are reserved to their worst-case bounds up front, so
    /// every subsequent decode through this scratch is allocation-free.
    pub fn new_scratch(&self) -> DecoderScratch {
        let n = self.num_nodes;
        let m = self.lengths.len();
        DecoderScratch {
            num_nodes: n,
            num_edges: m,
            epoch: 0,
            pass_id: 0,
            node_epoch: vec![0; n],
            nodes: vec![NodeScratch::default(); n],
            pass_seen: vec![0; n],
            edges: vec![(0, 0); m],
            defects: Vec::with_capacity(n),
            candidates: Vec::with_capacity(2 * n),
            newly_grown: Vec::with_capacity(m),
            grown_boundary: Vec::with_capacity(m),
            order: Vec::with_capacity(n),
            queue: Vec::with_capacity(n),
            block: ShotBlock::new(),
            stalled: false,
        }
    }

    /// Decodes a syndrome (one bool per detector), returning the predicted
    /// logical-observable flip mask.
    ///
    /// Convenience wrapper that builds a fresh [`DecoderScratch`] per call;
    /// hot loops should hold one scratch and use
    /// [`Self::decode_with`] or the batch entry points instead.
    ///
    /// # Panics
    ///
    /// Panics if `syndrome.len()` differs from the graph's node count.
    pub fn decode(&self, syndrome: &[bool]) -> u64 {
        let mut scratch = self.new_scratch();
        self.decode_with(&mut scratch, syndrome)
    }

    /// Decodes a dense syndrome through a reusable scratch arena.
    ///
    /// # Panics
    ///
    /// Panics if `syndrome.len()` differs from the graph's node count or
    /// the scratch was built for a different graph shape.
    pub fn decode_with(&self, scratch: &mut DecoderScratch, syndrome: &[bool]) -> u64 {
        assert_eq!(syndrome.len(), self.num_nodes, "syndrome length mismatch");
        scratch.check_shape(self.num_nodes, self.lengths.len());
        scratch.defects.clear();
        let set = (0u32..).zip(syndrome).filter_map(|(v, &s)| s.then_some(v));
        scratch.defects.extend(set);
        self.decode_current(scratch)
    }

    /// Decodes a sparse syndrome given as a strictly ascending list of
    /// defect (detector) indices.
    ///
    /// # Panics
    ///
    /// Panics if the scratch shape mismatches or `defects` is not strictly
    /// ascending and in range (a duplicate or out-of-order defect would
    /// silently change growth).
    pub fn decode_defects(&self, scratch: &mut DecoderScratch, defects: &[u32]) -> u64 {
        scratch.check_shape(self.num_nodes, self.lengths.len());
        let in_range = defects
            .last()
            .is_none_or(|&v| (v as usize) < self.num_nodes);
        assert!(
            in_range && defects.windows(2).all(|w| w[0] < w[1]),
            "defect list must be strictly ascending and in range"
        );
        scratch.defects.clear();
        scratch.defects.extend_from_slice(defects);
        self.decode_current(scratch)
    }

    /// Decodes shots `start..start + len` straight from packed detector
    /// samples and counts prediction/observable mismatches.
    ///
    /// Defect lists are extracted per 64-shot word block with
    /// `trailing_zeros`; all-zero syndromes never reach the decoder (the
    /// sparse fast path). Failure bits are compared a word at a time.
    ///
    /// # Panics
    ///
    /// Panics if the detector row count differs from the graph's node
    /// count, the shot range is out of bounds, or `obs_row` is out of
    /// range.
    pub fn count_failures(
        &self,
        scratch: &mut DecoderScratch,
        detectors: &BitTable,
        observables: &BitTable,
        obs_row: usize,
        start: usize,
        len: usize,
    ) -> u64 {
        let mut failures = 0u64;
        self.decode_blocks(
            scratch,
            detectors,
            observables,
            obs_row,
            start,
            len,
            |mismatch, _, _| {
                failures += mismatch.count_ones() as u64;
            },
        );
        failures
    }

    /// As [`Self::count_failures`], but reports every shot's failure bit to
    /// `on_shot(shot_index, failed)` — the entry point for weighted
    /// accumulation (the rare-event enumerated strata).
    #[allow(clippy::too_many_arguments)]
    pub fn decode_shots(
        &self,
        scratch: &mut DecoderScratch,
        detectors: &BitTable,
        observables: &BitTable,
        obs_row: usize,
        start: usize,
        len: usize,
        mut on_shot: impl FnMut(usize, bool),
    ) {
        self.decode_blocks(
            scratch,
            detectors,
            observables,
            obs_row,
            start,
            len,
            |mismatch, block, lane_range| {
                for lane in lane_range {
                    on_shot(block * 64 + lane, (mismatch >> lane) & 1 == 1);
                }
            },
        );
    }

    /// Shared block loop of the batch entry points: per 64-shot word
    /// column, extract sparse defect lists, decode the occupied lanes, and
    /// hand the caller the mismatch word.
    #[allow(clippy::too_many_arguments)]
    fn decode_blocks(
        &self,
        scratch: &mut DecoderScratch,
        detectors: &BitTable,
        observables: &BitTable,
        obs_row: usize,
        start: usize,
        len: usize,
        mut on_block: impl FnMut(u64, usize, std::ops::Range<usize>),
    ) {
        assert_eq!(
            detectors.rows(),
            self.num_nodes,
            "detector row count mismatch"
        );
        assert_eq!(
            detectors.shots(),
            observables.shots(),
            "shot count mismatch"
        );
        assert!(start + len <= detectors.shots(), "shot range out of bounds");
        assert!(obs_row < observables.rows(), "observable row out of range");
        scratch.check_shape(self.num_nodes, self.lengths.len());
        let span = obs::span!(DECODE_NS);
        let end = start + len;
        let mut shot = start;
        // Take the block buffer out so the borrow checker lets the decoder
        // read its lane lists while mutating the rest of the scratch.
        let mut block_buf = std::mem::take(&mut scratch.block);
        while shot < end {
            let block = shot / 64;
            let lane_lo = shot % 64;
            let block_end = ((block + 1) * 64).min(end);
            let lanes = block_end - shot;
            let mask = lane_mask(lane_lo, lanes);
            let occupied = block_buf.load(detectors, block, mask);
            EMPTY_FAST_PATH.add((mask & !occupied).count_ones() as u64);
            let mut predicted = 0u64;
            let mut pending = occupied;
            while pending != 0 {
                let lane = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                scratch.defects.clear();
                scratch.defects.extend_from_slice(block_buf.rows(lane));
                predicted |= (self.decode_current(scratch) & 1) << lane;
            }
            let actual = observables.word(obs_row, block);
            on_block((predicted ^ actual) & mask, block, lane_lo..lane_lo + lanes);
            shot = block_end;
        }
        scratch.block = block_buf;
        drop(span);
    }

    /// Decodes the defect list currently staged in `scratch.defects`.
    fn decode_current(&self, scratch: &mut DecoderScratch) -> u64 {
        if scratch.defects.is_empty() {
            EMPTY_FAST_PATH.add(1);
            return 0;
        }
        DECODES.add(1);
        scratch.begin_shot();
        for i in 0..scratch.defects.len() {
            let v = scratch.defects[i] as usize;
            scratch.touch_node(v);
            scratch.nodes[v].parity = 1;
            scratch.nodes[v].flags |= F_MARKED;
            scratch.member_push(v, v);
        }
        self.grow(scratch);
        self.peel(scratch)
    }

    /// Cluster growth until every cluster is neutral (even parity or
    /// touching the boundary). Each pass, every non-grown edge gains
    /// `rate(x) = [x is a defect] + [x was visited]` from each endpoint `x`
    /// in an active (odd, boundary-free) cluster; the grown set, and so the
    /// prediction, does not depend on the order of work inside a pass.
    /// Active roots come unsorted off a worklist (defects plus union
    /// survivors, deduplicated by a pass stamp). A pass without progress
    /// (an odd cluster with no path to a boundary) sets `stalled` and stops.
    fn grow(&self, scratch: &mut DecoderScratch) {
        // Passes 1..=k0 run as one in which members add `k0` times their
        // rate; none of the first `k0 - 1` grows an edge. All are counted.
        let k0 = self.first_growing_pass(scratch);
        let mut boost = k0;
        let mut passes = u64::from(k0 - 1);
        let mut unions = 0u64;
        scratch.candidates.clear();
        scratch.candidates.extend_from_slice(&scratch.defects);
        loop {
            passes += 1;
            scratch.pass_id += 1;
            let mut active = 0;
            for i in 0..scratch.candidates.len() {
                let r = scratch.find(scratch.candidates[i] as usize);
                if scratch.pass_seen[r] == scratch.pass_id {
                    continue;
                }
                scratch.pass_seen[r] = scratch.pass_id;
                let node = &scratch.nodes[r];
                if node.parity % 2 == 1 && node.flags & F_BOUNDARY == 0 {
                    scratch.candidates[active] = r as u32;
                    active += 1;
                }
            }
            if active == 0 {
                break;
            }
            scratch.candidates.truncate(active);
            scratch.newly_grown.clear();
            let mut progressed = false;
            for i in 0..active {
                let root = scratch.candidates[i] as usize;
                progressed |= self.grow_cluster(scratch, root, boost);
            }
            boost = 1;
            for i in 0..scratch.newly_grown.len() {
                let ei = scratch.newly_grown[i] as usize;
                let u = self.edge_u[ei] as usize;
                let v = self.edge_v[ei];
                if v == NO_NODE {
                    let ru = scratch.find(u);
                    scratch.nodes[ru].flags |= F_BOUNDARY;
                    scratch.grown_boundary.push(ei as u32);
                } else {
                    let (root, merged) = scratch.union(u, v as usize);
                    unions += u64::from(merged);
                    scratch.visit(u, root);
                    scratch.visit(v as usize, root);
                }
            }
            if !progressed {
                scratch.stalled = true;
                break;
            }
        }
        GROWTH_PASSES.add(passes);
        UNIONS.add(unions);
    }

    /// One pass of one active cluster: every member adds `boost` times its
    /// rate to each non-grown incident edge; members left with no such
    /// edge drop out of the list. Returns whether any edge gained support.
    fn grow_cluster(&self, scratch: &mut DecoderScratch, root: usize, boost: u32) -> bool {
        let mut progressed = false;
        let mut cur = std::mem::replace(&mut scratch.nodes[root].m_head, NIL);
        scratch.nodes[root].m_tail = NIL;
        while cur != NIL {
            let x = cur as usize;
            cur = scratch.nodes[x].m_next;
            let flags = scratch.nodes[x].flags;
            let rate =
                (u32::from(flags & F_MARKED != 0) + u32::from(flags & F_VISITED != 0)) * boost;
            let mut open = false;
            for &e in self.adjacency.incident(x) {
                let left = scratch.remaining(e as usize, &self.lengths);
                if *left != 0 {
                    progressed = true;
                    *left = left.saturating_sub(rate);
                    if *left == 0 {
                        scratch.newly_grown.push(e);
                    } else {
                        open = true;
                    }
                }
            }
            if open {
                scratch.member_push(root, x);
            }
        }
        progressed
    }

    /// The first pass in which an edge can grow. Until then every defect
    /// is its own active cluster and each defect-incident edge gains `c`
    /// (its number of defect endpoints) per pass, so that pass is
    /// `k0 = min ⌈len/c⌉` over those edges (1 if there are none).
    fn first_growing_pass(&self, scratch: &DecoderScratch) -> u32 {
        let defects = scratch.defects.iter();
        let incident = defects.flat_map(|&v| self.adjacency.incident(v as usize));
        let k = incident.map(|&e| self.lengths[e as usize].div_ceil(scratch.defect_ends(self, e)));
        k.min().unwrap_or(1)
    }

    /// Peeling: build a spanning forest of grown edges inside each cluster
    /// and discharge defects toward boundary-rooted trees.
    fn peel(&self, scratch: &mut DecoderScratch) -> u64 {
        // BFS seeded from boundary-grown edges first (ascending edge index,
        // as the reference's full edge scan produced) so defects can drain
        // into the boundary.
        scratch.grown_boundary.sort_unstable();
        for i in 0..scratch.grown_boundary.len() {
            let ei = scratch.grown_boundary[i];
            let u = self.edge_u[ei as usize] as usize;
            scratch.touch_node(u);
            if scratch.nodes[u].flags & F_PEEL_VISITED == 0 {
                scratch.nodes[u].flags |= F_PEEL_VISITED;
                scratch.nodes[u].peel_parent_node = PEEL_BOUNDARY;
                scratch.nodes[u].peel_parent_edge = ei;
                scratch.queue.push(u as u32);
            }
        }
        // Then arbitrary roots for remaining cluster nodes. The reference
        // rescans `0..n` for an unvisited marked node; marked nodes are
        // exactly the defects and visitation is monotone, so one ascending
        // pointer over the defect list is equivalent.
        let mut qhead = 0usize;
        let mut defect_ptr = 0usize;
        loop {
            while qhead < scratch.queue.len() {
                let u = scratch.queue[qhead] as usize;
                qhead += 1;
                scratch.order.push(u as u32);
                for &ei in self.adjacency.incident(u) {
                    let (e, v) = (ei as usize, self.edge_v[ei as usize]);
                    if v == NO_NODE || *scratch.remaining(e, &self.lengths) != 0 {
                        continue;
                    }
                    let other = (self.edge_u[e] ^ v) as usize ^ u;
                    scratch.touch_node(other);
                    if scratch.nodes[other].flags & F_PEEL_VISITED == 0 {
                        scratch.nodes[other].flags |= F_PEEL_VISITED;
                        scratch.nodes[other].peel_parent_node = u as u32;
                        scratch.nodes[other].peel_parent_edge = ei;
                        scratch.queue.push(other as u32);
                    }
                }
            }
            while let Some(&v) = scratch.defects.get(defect_ptr) {
                if scratch.nodes[v as usize].flags & F_PEEL_VISITED == 0 {
                    break;
                }
                defect_ptr += 1;
            }
            let Some(&v) = scratch.defects.get(defect_ptr) else {
                break;
            };
            scratch.nodes[v as usize].flags |= F_PEEL_VISITED;
            scratch.queue.push(v);
        }

        let mut obs_mask = 0u64;
        let mut discharges = 0u64;
        let mut leaks = 0u64;
        for i in (0..scratch.order.len()).rev() {
            let u = scratch.order[i] as usize;
            if scratch.nodes[u].flags & F_MARKED == 0 {
                continue;
            }
            let p = scratch.nodes[u].peel_parent_node;
            if p == PEEL_NONE {
                // A marked arbitrary root would leave this defect
                // undecoded. Invariant: growth leaves every cluster with
                // even parity or a boundary, whose peel trees discharge
                // fully — an arbitrary root (odd, boundary-free cluster)
                // can only exist if growth stalled on a degenerate graph
                // (e.g. an isolated defect with no edges at all).
                leaks += 1;
                debug_assert!(
                    scratch.stalled,
                    "peel parity leak at node {u} without a stalled growth phase"
                );
                continue;
            }
            let ei = scratch.nodes[u].peel_parent_edge as usize;
            obs_mask ^= self.edge_obs[ei];
            scratch.nodes[u].flags &= !F_MARKED;
            discharges += 1;
            if p != PEEL_BOUNDARY {
                scratch.nodes[p as usize].flags ^= F_MARKED;
            }
        }
        PEEL_DISCHARGES.add(discharges);
        if leaks > 0 {
            PEEL_LEAKS.add(leaks);
        }
        obs_mask
    }

    /// The original per-shot decoder, kept verbatim as the bit-identity
    /// oracle for the scratch/batch paths (mirroring `apply_reference` in
    /// qsim). Allocates a fresh dense [`DecodeState`] per call.
    ///
    /// # Panics
    ///
    /// Panics if `syndrome.len()` differs from the graph's node count.
    pub fn decode_reference(&self, syndrome: &[bool]) -> u64 {
        let n = self.num_nodes;
        assert_eq!(syndrome.len(), n, "syndrome length mismatch");
        if syndrome.iter().all(|&s| !s) {
            return 0;
        }
        let mut state = DecodeState::new(n, self.lengths.len());
        for (v, &s) in syndrome.iter().enumerate() {
            if s {
                state.defect[v] = true;
                state.parity[v] = 1;
            }
        }
        // Initialize boundary lists: every defect node's incident edges.
        for v in 0..n {
            if state.defect[v] {
                state.frontier[v] = self.adjacency.incident(v).to_vec();
            }
        }
        self.grow_reference(&mut state);
        self.peel_reference(&mut state, syndrome)
    }

    /// Reference growth: O(n) active-root scan per pass, `Vec` frontiers.
    fn grow_reference(&self, state: &mut DecodeState) {
        let n = self.num_nodes;
        loop {
            let active: Vec<usize> = (0..n)
                .filter(|&v| {
                    state.find(v) == v && state.parity[v] % 2 == 1 && !state.has_boundary[v]
                })
                .collect();
            if active.is_empty() {
                return;
            }
            let mut newly_grown: Vec<u32> = Vec::new();
            for root in active {
                // Re-fetch root (it may have been merged earlier this pass).
                let root = state.find(root);
                if state.parity[root].is_multiple_of(2) || state.has_boundary[root] {
                    continue;
                }
                let edges = std::mem::take(&mut state.frontier[root]);
                let mut keep = Vec::with_capacity(edges.len());
                for &ei in &edges {
                    if state.grown[ei as usize] {
                        continue;
                    }
                    state.support[ei as usize] += 1;
                    if state.support[ei as usize] >= self.lengths[ei as usize] {
                        state.grown[ei as usize] = true;
                        newly_grown.push(ei);
                    } else {
                        keep.push(ei);
                    }
                }
                let root_now = state.find(root);
                state.frontier[root_now].extend(keep);
            }
            for ei in newly_grown {
                let ei = ei as usize;
                let u = self.edge_u[ei] as usize;
                let ru = state.find(u);
                let v = self.edge_v[ei];
                if v == NO_NODE {
                    state.has_boundary[ru] = true;
                } else {
                    let rv = state.find(v as usize);
                    // Expand the frontier of whichever side is new.
                    for node in [u, v as usize] {
                        let r = state.find(node);
                        if !state.visited[node] {
                            state.visited[node] = true;
                            let extra: Vec<u32> = self
                                .adjacency
                                .incident(node)
                                .iter()
                                .copied()
                                .filter(|&x| !state.grown[x as usize])
                                .collect();
                            state.frontier[r].extend(extra);
                        }
                    }
                    if ru != rv {
                        state.union(ru, rv);
                    }
                }
            }
        }
    }

    /// Reference peeling with dense visited/marked/parent vectors.
    fn peel_reference(&self, state: &mut DecodeState, syndrome: &[bool]) -> u64 {
        let n = self.num_nodes;
        let m = self.lengths.len();
        let mut marked: Vec<bool> = syndrome.to_vec();
        let mut visited = vec![false; n];
        // parent[v] = (parent node or usize::MAX for boundary, edge).
        let mut parent: Vec<Option<(usize, u32)>> = vec![None; n];
        let mut order: Vec<usize> = Vec::new();

        // BFS seeded from boundary-grown edges first so defects can drain
        // into the boundary.
        let mut queue = std::collections::VecDeque::new();
        for ei in 0..m {
            if state.grown[ei] && self.edge_v[ei] == NO_NODE {
                let u = self.edge_u[ei] as usize;
                if !visited[u] {
                    visited[u] = true;
                    parent[u] = Some((usize::MAX, ei as u32));
                    queue.push_back(u);
                }
            }
        }
        // Then arbitrary roots for remaining cluster nodes.
        loop {
            while let Some(u) = queue.pop_front() {
                order.push(u);
                for &ei in self.adjacency.incident(u) {
                    if !state.grown[ei as usize] {
                        continue;
                    }
                    let v = self.edge_v[ei as usize];
                    if v == NO_NODE {
                        continue;
                    }
                    let other = if self.edge_u[ei as usize] as usize == u {
                        v as usize
                    } else {
                        self.edge_u[ei as usize] as usize
                    };
                    if !visited[other] {
                        visited[other] = true;
                        parent[other] = Some((u, ei));
                        queue.push_back(other);
                    }
                }
            }
            if let Some(seed) = (0..n).find(|&v| !visited[v] && marked[v]) {
                visited[seed] = true;
                queue.push_back(seed);
            } else {
                break;
            }
        }

        let mut obs_mask = 0u64;
        for &u in order.iter().rev() {
            if !marked[u] {
                continue;
            }
            let Some((p, ei)) = parent[u] else {
                // A marked arbitrary root: parity leak (cannot happen on
                // valid even-parity clusters); leave undecoded.
                continue;
            };
            obs_mask ^= self.edge_obs[ei as usize];
            marked[u] = false;
            if p != usize::MAX {
                marked[p] = !marked[p];
            }
        }
        obs_mask
    }
}

/// Masks lanes `lo..lo + count` of a 64-shot word.
#[inline]
fn lane_mask(lo: usize, count: usize) -> u64 {
    debug_assert!(lo + count <= 64 && count > 0);
    (u64::MAX >> (64 - count)) << lo
}

/// Per-node decode state, reset lazily by epoch stamp.
#[derive(Clone, Copy, Debug, Default)]
struct NodeScratch {
    parent: u32,
    parity: u32,
    /// Cluster node count (meaningful at roots; unions go by size).
    size: u32,
    /// Growing-member list: head and tail at roots, next link at members.
    m_head: u32,
    m_tail: u32,
    m_next: u32,
    peel_parent_node: u32,
    peel_parent_edge: u32,
    flags: u8,
}

/// Reusable decode arena: all per-shot state for one
/// [`UnionFindDecoder`], reset sparsely between shots.
///
/// Owned per shard and reused across shots; see DESIGN.md §5k for the
/// reset discipline. Build with [`UnionFindDecoder::new_scratch`].
#[derive(Clone, Debug)]
pub struct DecoderScratch {
    num_nodes: usize,
    num_edges: usize,
    /// Current shot's epoch; state stamped with an older epoch is stale.
    epoch: u32,
    /// Monotone growth-pass stamp for worklist dedupe (never reset).
    pass_id: u64,
    node_epoch: Vec<u32>,
    nodes: Vec<NodeScratch>,
    pass_seen: Vec<u64>,
    /// Per edge `(epoch, remaining)`: the length still to grow (0 once
    /// grown), valid only when stamped with the current epoch.
    edges: Vec<(u32, u32)>,
    /// Staged defect list (strictly ascending detector indices).
    defects: Vec<u32>,
    /// Growth worklist: initial defects plus union survivors, compacted to
    /// the active roots at the start of each pass.
    candidates: Vec<u32>,
    newly_grown: Vec<u32>,
    grown_boundary: Vec<u32>,
    order: Vec<u32>,
    queue: Vec<u32>,
    /// Sparse syndrome extraction buffer for the batch entry points.
    block: ShotBlock,
    /// Set when a growth pass made no progress (degenerate graph with an
    /// odd-parity cluster that cannot reach a boundary); licenses the peel
    /// parity-leak branch.
    stalled: bool,
}

impl DecoderScratch {
    fn check_shape(&self, n: usize, m: usize) {
        assert_eq!(
            (self.num_nodes, self.num_edges),
            (n, m),
            "scratch was built for a different graph shape"
        );
    }

    /// Starts a new shot: bump the epoch (stale state resets lazily on
    /// first touch) and clear the per-shot lists. O(touched), except on
    /// epoch wraparound every 2³² shots, where the stamp arrays are
    /// rewritten in full.
    fn begin_shot(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.node_epoch.fill(u32::MAX);
            self.edges.fill((u32::MAX, 0));
            self.epoch = 1;
        }
        self.newly_grown.clear();
        self.grown_boundary.clear();
        self.order.clear();
        self.queue.clear();
        self.candidates.clear();
        self.stalled = false;
    }

    /// Lazily resets node `v` if it was last touched in an older shot.
    #[inline]
    fn touch_node(&mut self, v: usize) {
        if self.node_epoch[v] != self.epoch {
            self.node_epoch[v] = self.epoch;
            self.nodes[v] = NodeScratch {
                parent: v as u32,
                size: 1,
                m_head: NIL,
                m_tail: NIL,
                m_next: NIL,
                peel_parent_node: PEEL_NONE,
                ..NodeScratch::default()
            };
        }
    }

    /// Length edge `e` has still to grow (0 once grown), lazily reset to
    /// its full length if it was last touched in an older shot.
    #[inline]
    fn remaining(&mut self, e: usize, lengths: &[u32]) -> &mut u32 {
        let edge = &mut self.edges[e];
        if edge.0 != self.epoch {
            *edge = (self.epoch, lengths[e]);
        }
        &mut edge.1
    }

    fn find(&mut self, v: usize) -> usize {
        self.touch_node(v);
        let mut root = v;
        while self.nodes[root].parent as usize != root {
            root = self.nodes[root].parent as usize;
        }
        let mut cur = v;
        while self.nodes[cur].parent as usize != cur {
            let next = self.nodes[cur].parent as usize;
            self.nodes[cur].parent = root as u32;
            cur = next;
        }
        root
    }

    /// Number of defect endpoints of edge `e` (valid before peeling).
    fn defect_ends(&self, dec: &UnionFindDecoder, e: u32) -> u32 {
        let e = e as usize;
        let is_defect = |v: u32| {
            v != NO_NODE
                && self.node_epoch[v as usize] == self.epoch
                && self.nodes[v as usize].flags & F_MARKED != 0
        };
        u32::from(is_defect(dec.edge_u[e])) + u32::from(is_defect(dec.edge_v[e]))
    }

    /// Appends node `x` to `root`'s member list.
    #[inline]
    fn member_push(&mut self, root: usize, x: usize) {
        self.nodes[x].m_next = NIL;
        self.splice(root, x as u32, x as u32);
    }

    /// Appends the NIL-terminated member chain `head..=tail` to `root`'s.
    #[inline]
    fn splice(&mut self, root: usize, head: u32, tail: u32) {
        match self.nodes[root].m_tail {
            NIL => self.nodes[root].m_head = head,
            t => self.nodes[t as usize].m_next = head,
        }
        self.nodes[root].m_tail = tail;
    }

    /// Marks `x`, an endpoint of a grown inner edge in cluster `r`, visited:
    /// a non-defect joins the member list with rate 1, a defect (already
    /// listed) goes to rate 2.
    fn visit(&mut self, x: usize, r: usize) {
        let flags = self.nodes[x].flags;
        if flags & F_VISITED == 0 {
            self.nodes[x].flags |= F_VISITED;
            if flags & F_MARKED == 0 {
                self.member_push(r, x);
            }
        }
    }

    /// Union by size: member lists concatenate, parities add, and the
    /// boundary flag propagates. The survivor goes back on the growth
    /// worklist. Returns the joint root and whether two clusters merged.
    fn union(&mut self, a: usize, b: usize) -> (usize, bool) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return (ra, false);
        }
        let (big, small) = if self.nodes[ra].size >= self.nodes[rb].size {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let small_node = self.nodes[small];
        self.nodes[small].parent = big as u32;
        if small_node.m_head != NIL {
            self.splice(big, small_node.m_head, small_node.m_tail);
        }
        self.nodes[big].size += small_node.size;
        self.nodes[big].parity += small_node.parity;
        self.nodes[big].flags |= small_node.flags & F_BOUNDARY;
        self.candidates.push(big as u32);
        (big, true)
    }
}

/// Dense per-shot state of the reference decoder (allocated per call).
#[derive(Clone, Debug)]
struct DecodeState {
    parent: Vec<u32>,
    parity: Vec<u32>,
    has_boundary: Vec<bool>,
    defect: Vec<bool>,
    visited: Vec<bool>,
    frontier: Vec<Vec<u32>>,
    support: Vec<u32>,
    grown: Vec<bool>,
}

impl DecodeState {
    fn new(n: usize, m: usize) -> Self {
        DecodeState {
            parent: (0..n as u32).collect(),
            parity: vec![0; n],
            has_boundary: vec![false; n],
            defect: vec![false; n],
            visited: vec![false; n],
            frontier: vec![Vec::new(); n],
            support: vec![0; m],
            grown: vec![false; m],
        }
    }

    fn find(&mut self, v: usize) -> usize {
        let mut root = v;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = v;
        while self.parent[cur] as usize != cur {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // Merge smaller frontier into larger.
        let (big, small) = if self.frontier[ra].len() >= self.frontier[rb].len() {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        let moved = std::mem::take(&mut self.frontier[small]);
        self.frontier[big].extend(moved);
        self.parity[big] += self.parity[small];
        self.has_boundary[big] |= self.has_boundary[small];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::graph::MatchingGraph;

    /// Repetition-code strip: d data qubits, d−1 detectors, boundaries at
    /// both ends; the left boundary edge crosses the logical.
    fn strip(d: usize, p: f64) -> MatchingGraph {
        let mut g = MatchingGraph::new(d - 1);
        g.add_edge(0, None, p, 1);
        for i in 0..d - 2 {
            g.add_edge(i as u32, Some(i as u32 + 1), p, 0);
        }
        g.add_edge(d as u32 - 2, None, p, 0);
        g
    }

    /// Applies physical errors on a strip and returns (syndrome, true obs).
    fn apply_errors(d: usize, errs: &[usize]) -> (Vec<bool>, u64) {
        // Edge i connects detectors (i-1, i); edge 0 and edge d-1 are
        // boundary edges. Error on edge i fires its endpoints.
        let mut syn = vec![false; d - 1];
        let mut obs = 0u64;
        for &e in errs {
            if e == 0 {
                syn[0] ^= true;
                obs ^= 1;
            } else if e == d - 1 {
                syn[d - 2] ^= true;
            } else {
                syn[e - 1] ^= true;
                syn[e] ^= true;
            }
        }
        (syn, obs)
    }

    #[test]
    fn empty_syndrome_decodes_to_identity() {
        let dec = UnionFindDecoder::new(&strip(5, 0.1));
        assert_eq!(dec.decode(&[false; 4]), 0);
    }

    #[test]
    fn single_errors_are_corrected() {
        let d = 7;
        let dec = UnionFindDecoder::new(&strip(d, 0.05));
        for e in 0..d {
            let (syn, obs) = apply_errors(d, &[e]);
            assert_eq!(dec.decode(&syn), obs, "error on edge {e}");
        }
    }

    #[test]
    fn correctable_double_errors() {
        let d = 9;
        let dec = UnionFindDecoder::new(&strip(d, 0.05));
        for a in 0..d {
            for b in (a + 1)..d {
                let (syn, obs) = apply_errors(d, &[a, b]);
                let pred = dec.decode(&syn);
                // Prediction must produce the same syndrome class: for a
                // distance-9 strip any ≤4 errors are correctable.
                assert_eq!(pred, obs, "errors on edges {a},{b}");
            }
        }
    }

    #[test]
    fn uncorrectable_majority_flips_logical() {
        // 5 errors out of d=9 on the left side: decoder should prefer the
        // complementary (weight-4) correction and report a logical flip
        // relative to the actual error.
        let d = 9;
        let dec = UnionFindDecoder::new(&strip(d, 0.05));
        let errs: Vec<usize> = (0..5).collect();
        let (syn, obs) = apply_errors(d, &errs);
        let pred = dec.decode(&syn);
        assert_ne!(pred, obs, "majority error should defeat the decoder");
    }

    #[test]
    fn weights_bias_toward_likelier_edges() {
        // Two-node graph: one defect pair connected either directly
        // (unlikely) or via two boundary edges (likely). Decoder must pick
        // the boundary route when it is cheaper.
        let mut g = MatchingGraph::new(2);
        g.add_edge(0, Some(1), 0.0001, 1); // direct, expensive, flips obs
        g.add_edge(0, None, 0.2, 0);
        g.add_edge(1, None, 0.2, 0);
        let dec = UnionFindDecoder::new(&g);
        let pred = dec.decode(&[true, true]);
        assert_eq!(pred, 0, "should route both defects to the boundary");

        // Flip the economics: direct edge cheap.
        let mut g = MatchingGraph::new(2);
        g.add_edge(0, Some(1), 0.2, 1);
        g.add_edge(0, None, 0.0001, 0);
        g.add_edge(1, None, 0.0001, 0);
        let dec = UnionFindDecoder::new(&g);
        assert_eq!(dec.decode(&[true, true]), 1, "should use the direct edge");
    }

    #[test]
    fn grid_graph_with_time_edges() {
        // 2 rounds × 3 detectors; time edges between rounds; a measurement
        // error fires (t, f) and (t+1, f) and must decode as a time edge
        // (no observable flip).
        let mut g = MatchingGraph::new(6);
        for t in 0..2u32 {
            let base = t * 3;
            g.add_edge(base, None, 0.01, 1);
            g.add_edge(base, Some(base + 1), 0.01, 0);
            g.add_edge(base + 1, Some(base + 2), 0.01, 0);
            g.add_edge(base + 2, None, 0.01, 0);
        }
        for f in 0..3u32 {
            g.add_edge(f, Some(f + 3), 0.01, 0);
        }
        let dec = UnionFindDecoder::new(&g);
        let mut syn = vec![false; 6];
        syn[1] = true;
        syn[4] = true;
        assert_eq!(dec.decode(&syn), 0);
    }

    #[test]
    fn scratch_reuse_matches_reference_on_strip() {
        let d = 9;
        let dec = UnionFindDecoder::new(&strip(d, 0.05));
        let mut scratch = dec.new_scratch();
        // Every 1- and 2-error pattern, decoded through ONE reused scratch,
        // must match the pristine reference decoder bit for bit.
        for a in 0..d {
            for b in a..d {
                let errs: Vec<usize> = if a == b { vec![a] } else { vec![a, b] };
                let (syn, _) = apply_errors(d, &errs);
                assert_eq!(
                    dec.decode_with(&mut scratch, &syn),
                    dec.decode_reference(&syn),
                    "errors on edges {a},{b}"
                );
            }
        }
    }

    #[test]
    fn decode_defects_matches_dense_path() {
        let dec = UnionFindDecoder::new(&strip(9, 0.05));
        let (syn, _) = apply_errors(9, &[2, 5]);
        let defects: Vec<u32> = (0..8).filter(|&v| syn[v as usize]).collect();
        let expected = dec.decode_reference(&syn);
        assert_eq!(
            dec.decode_defects(&mut dec.new_scratch(), &defects),
            expected
        );
    }

    #[test]
    fn batch_count_failures_matches_per_shot() {
        let d = 9;
        let dec = UnionFindDecoder::new(&strip(d, 0.05));
        let n = d - 1;
        // 130 shots spanning three word blocks, each a pseudo-random error
        // pattern; observables carry the TRUE obs so a failure means the
        // decoder mispredicted.
        let shots = 130;
        let mut detectors = BitTable::new(n, shots);
        let mut observables = BitTable::new(1, shots);
        let mut expect = 0u64;
        let mut rng = 0x9e3779b97f4a7c15u64;
        for shot in 0..shots {
            let mut errs = Vec::new();
            for e in 0..d {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if rng >> 62 == 0 {
                    errs.push(e);
                }
            }
            let (syn, obs) = apply_errors(d, &errs);
            for (v, &s) in syn.iter().enumerate() {
                detectors.set(v, shot, s);
            }
            observables.set(0, shot, obs & 1 == 1);
            if dec.decode_reference(&syn) & 1 != obs & 1 {
                expect += 1;
            }
        }
        let mut scratch = dec.new_scratch();
        let got = dec.count_failures(&mut scratch, &detectors, &observables, 0, 0, shots);
        assert_eq!(got, expect);
        // Sub-range starting off a word boundary.
        let mut partial = 0u64;
        dec.decode_shots(
            &mut scratch,
            &detectors,
            &observables,
            0,
            37,
            60,
            |shot, failed| {
                assert!((37..97).contains(&shot));
                if failed {
                    partial += 1;
                }
            },
        );
        assert_eq!(
            partial,
            dec.count_failures(&mut scratch, &detectors, &observables, 0, 37, 60)
        );
    }

    /// A decoder over `edges` as `(u, v, obs, growth length)`.
    fn with_lengths(n: usize, edges: &[(u32, Option<u32>, u64, u32)]) -> UnionFindDecoder {
        let mut g = MatchingGraph::new(n);
        for &(u, v, obs, _) in edges {
            g.add_edge(u, v, 0.1, obs);
        }
        let mut dec = UnionFindDecoder::new(&g);
        dec.lengths = edges.iter().map(|e| e.3).collect();
        dec
    }

    /// Length each edge has left to grow after the last decode.
    fn remaining(dec: &UnionFindDecoder, scratch: &mut DecoderScratch) -> Vec<u32> {
        (0..dec.num_edges())
            .map(|e| *scratch.remaining(e, &dec.lengths))
            .collect()
    }

    #[test]
    fn leading_pass_skip_leaves_pass_by_pass_support() {
        // A defect pair on an odd-length edge (c = 2): the pair edge grows
        // in pass ⌈5/2⌉ = 3, by when each boundary edge holds 3 of its 12.
        let dec = with_lengths(2, &[(0, Some(1), 1, 5), (0, None, 0, 12), (1, None, 0, 12)]);
        let mut scratch = dec.new_scratch();
        assert_eq!(dec.decode_with(&mut scratch, &[true, true]), 1);
        assert_eq!(remaining(&dec, &mut scratch), [0, 9, 9]);
        assert_eq!(dec.decode_reference(&[true, true]), 1);
        // A defect next to a length-1 boundary edge: nothing to skip.
        let dec = with_lengths(2, &[(0, None, 1, 1), (0, Some(1), 0, 6), (1, None, 0, 6)]);
        assert_eq!(dec.decode_with(&mut scratch, &[true, false]), 1);
        assert_eq!(remaining(&dec, &mut scratch), [0, 5, 6]);
        assert_eq!(dec.decode_reference(&[true, false]), 1);
    }

    #[test]
    fn stalled_growth_terminates_on_degenerate_graphs() {
        // A defect on a node with no incident edges: the reference decoder
        // would spin forever; the scratch path must stall, terminate, and
        // (in release) simply leave the defect undecoded.
        let mut g = MatchingGraph::new(3);
        g.add_edge(0, Some(1), 0.1, 1); // node 2 is edgeless
        let dec = UnionFindDecoder::new(&g);
        let mut scratch = dec.new_scratch();
        // Both defects of the even, boundary-free component discharge over
        // the direct edge; terminates without a boundary.
        assert_eq!(dec.decode_with(&mut scratch, &[true, true, false]), 1);
        // A defect on the edgeless node stalls growth and is left
        // undecoded (counted as a peel leak) instead of hanging.
        assert_eq!(dec.decode_with(&mut scratch, &[false, false, true]), 0);
        // The scratch remains healthy after a stalled shot.
        assert_eq!(dec.decode_with(&mut scratch, &[true, true, false]), 1);
        // An edgeless defect (node 2) among growing clusters: defect 0
        // still skips to pass 4, grows through node 1 to the boundary, and
        // growth then stalls with node 2 left marked (a peel leak).
        let dec = with_lengths(3, &[(0, Some(1), 0, 4), (1, None, 1, 4)]);
        let mut scratch = dec.new_scratch();
        assert_eq!(dec.decode_with(&mut scratch, &[true, false, true]), 1);
        assert!(scratch.stalled && scratch.nodes[2].flags & F_MARKED != 0);
        assert_eq!(remaining(&dec, &mut scratch), [0, 0]);
    }
}
