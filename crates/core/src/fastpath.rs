//! Degree-bucketed, cache-blocked multi-core fast path for [`crate::lpa_native`].
//!
//! The paper's GPU kernel (reproduced by [`crate::lpa_gpu`]) computes each
//! vertex's pick with a per-vertex open-addressing hashtable carved out
//! of two `2|E|` buffers — memory-hungry and hash-bound on a CPU. This
//! module computes the same picks with the layout a host actually wants
//! (DESIGN.md §10):
//!
//! * **Cache blocks** — each iteration's (shuffled) candidate list is cut
//!   into blocks of bounded adjacency volume
//!   ([`nulpa_graph::blocks::candidate_blocks`]), so the CSR words a block
//!   touches stay L2-resident while its vertices are scanned.
//! * **Degree buckets** — within a block, candidates are split into
//!   low/mid/high-degree buckets ([`bucket_partition`]) and threads claim
//!   work per bucket in bucket-matched chunk sizes (large chunks of cheap
//!   vertices, hubs one at a time), so a single hub can never serialize a
//!   chunk of small vertices behind it.
//! * **Flat counts** — label weights accumulate into a dense per-thread
//!   `Vec` indexed by label, reset by generation stamp instead of
//!   clearing (`ScratchPad`). Weight ties are broken exactly like the
//!   per-vertex table's `hashtableMaxKey` (first maximal slot in probe-built
//!   slot order); the slot layout is only simulated when a tie actually
//!   occurs, so the dense argmax stays hash-free on weighted graphs.
//!
//! **Determinism and trajectory.** The committed trajectory is, by
//! construction, *exactly* the fully sequential asynchronous sweep over
//! the shuffled candidate list — the same schedule the reference backend
//! runs. Threads only ever compute *speculative* picks against the labels
//! frozen at their block's start; the coordinating thread then commits
//! the block sequentially in candidate order, and any candidate whose
//! pick may be stale — one with a neighbour that moved earlier in the
//! same block — is recomputed on the spot against the live labels. A
//! speculative pick is used only when it provably equals the serial one,
//! so labels, ΔN trajectories, and frontier contents are bit-identical at
//! any `--threads N`, while the shuffled order keeps same-block
//! neighbours rare enough that almost all picks are served from the
//! parallel phase.

use crate::config::BucketThresholds;
use crate::hostprof::{HostProfData, RunProf, SpanKind, ThreadProf};
use nulpa_graph::{blocks::candidate_blocks, Csr, VertexId};
use nulpa_hashtab::{
    capacity_for_degree, probe_budget, secondary_prime, HashValue, ProbeSeq, ProbeStrategy,
};
use std::sync::atomic::{AtomicU32, AtomicU8, AtomicUsize, Ordering};
use std::sync::Barrier;

/// Work-claim chunk sizes per bucket: low-degree vertices are claimed in
/// large runs (cheap, abundant), mid-degree in short runs, hubs one at a
/// time so one heavyweight vertex never hides a chunk of light ones.
const CHUNK_SIZES: [usize; 3] = [256, 16, 1];

/// Sentinel in the pick array: "no label change for this candidate".
const NO_MOVE: u32 = u32::MAX;

/// Floor for the number of commit blocks per iteration. The probability
/// that a candidate needs the serial repair path grows with the fraction
/// of the graph inside its block, so small graphs are cut into at least
/// this many blocks instead of one L2-sized block.
const MIN_BLOCKS: usize = 64;

/// Floor for the per-block adjacency budget, in stored edges.
const MIN_BLOCK_EDGES: usize = 64;

/// Split an ordered candidate list into low/mid/high-degree index
/// buckets. Returns index lists into `cands`: `degree <= low_max` →
/// bucket 0, `degree <= mid_max` → bucket 1, else bucket 2. The three
/// lists are a disjoint cover of `0..cands.len()` and each preserves
/// candidate order.
pub fn bucket_partition(g: &Csr, cands: &[VertexId], t: BucketThresholds) -> [Vec<usize>; 3] {
    let mut buckets: [Vec<usize>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (i, &v) in cands.iter().enumerate() {
        let d = g.degree(v) as u32;
        let b = if d <= t.low_max {
            0
        } else if d <= t.mid_max {
            1
        } else {
            2
        };
        buckets[b].push(i);
    }
    buckets
}

/// Per-thread dense label-count scratch with generation-stamped reset:
/// a slot is live only when its stamp equals the current generation, so
/// "clearing" between vertices is one counter bump instead of an O(n)
/// fill. `touched` records the distinct labels seen for the current
/// vertex so the argmax scan is O(distinct), not O(n).
struct ScratchPad<V> {
    counts: Vec<V>,
    stamp: Vec<u32>,
    gen: u32,
    touched: Vec<u32>,
    /// Slot-occupancy simulation for the tie-break path (`slot_keys[s]`
    /// is live iff `slot_stamp[s] == gen`); grown on demand to the
    /// largest table capacity seen.
    slot_keys: Vec<u32>,
    slot_stamp: Vec<u32>,
}

impl<V: HashValue> ScratchPad<V> {
    fn new(n: usize) -> Self {
        ScratchPad {
            counts: vec![V::zero(); n],
            stamp: vec![0; n],
            gen: 0,
            touched: Vec::new(),
            slot_keys: Vec::new(),
            slot_stamp: Vec::new(),
        }
    }

    /// Start accumulating for a new vertex. On the (rare) generation
    /// wrap the stamps are bulk-reset so a stale slot can never alias
    /// the new generation.
    fn begin(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.stamp.fill(0);
            self.slot_stamp.fill(0);
            self.gen = 1;
        }
        self.touched.clear();
    }
}

/// Reusable state for the fast path, created once per `lpa_native` run.
pub(crate) struct FastState<V> {
    threads: usize,
    /// Probe strategy of the per-vertex tables — replayed by the
    /// tie-break so picks match the table kernel's.
    probe: ProbeStrategy,
    /// Upper bound on the per-block adjacency budget (L2 sizing).
    block_edges: usize,
    /// Per-candidate speculative pick (label to adopt, or [`NO_MOVE`]),
    /// indexed like the iteration's candidate list. Written by whichever
    /// thread computed the candidate, read by the committing thread after
    /// a barrier.
    picks: Vec<AtomicU32>,
    /// One scratch pad per thread (index 0 is the coordinating thread).
    scratch: Vec<ScratchPad<V>>,
    /// `moved[v] == block_stamp` iff `v`'s label changed during the
    /// block currently being committed — the staleness test for the
    /// serial repair path.
    moved: Vec<u64>,
    block_stamp: u64,
    /// Host-profiling recorders (inert unless the run asked for a
    /// profile): one per thread, parallel to `scratch`, plus the
    /// run-level repair ledger.
    prof: Vec<ThreadProf>,
    runprof: RunProf,
}

/// Frontier-mode bookkeeping threaded through the commit phase, so
/// worklist contents stay bit-identical to the dense sweep.
pub(crate) struct FrontierCtx<'a> {
    pub queued: &'a [AtomicU8],
    pub worklist: &'a mut Vec<VertexId>,
    pub movers: &'a mut Vec<VertexId>,
}

impl<V: HashValue> FastState<V> {
    pub(crate) fn new(
        n: usize,
        threads: usize,
        block_edges: usize,
        probe: ProbeStrategy,
        profile: bool,
    ) -> Self {
        let threads = threads.max(1);
        let runprof = RunProf::new(profile);
        let prof = runprof.thread_recorders(threads);
        FastState {
            threads,
            probe,
            block_edges: block_edges.max(MIN_BLOCK_EDGES),
            picks: Vec::new(),
            scratch: (0..threads).map(|_| ScratchPad::new(n)).collect(),
            moved: vec![0; n],
            block_stamp: 0,
            prof,
            runprof,
        }
    }

    /// Hand over the recorded host profile (`None` when profiling was
    /// off). Call once, after the last iteration.
    pub(crate) fn take_profile(&mut self) -> Option<HostProfData> {
        self.runprof.collect(&mut self.prof)
    }

    /// Per-block adjacency budget for this active set: at most the L2
    /// cap, but small enough to cut at least [`MIN_BLOCKS`] blocks so the
    /// serial repair path stays rare even on small graphs.
    fn budget(&self, total_edges: usize) -> usize {
        (total_edges / MIN_BLOCKS).clamp(MIN_BLOCK_EDGES, self.block_edges)
    }

    /// One LPA iteration over `candidates` (already shuffled); returns
    /// ΔN. Labels and `processed` flags are mutated exactly as a fully
    /// sequential sweep in candidate order would; in frontier mode the
    /// worklist/movers in `fr` are extended in that same deterministic
    /// order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_iteration(
        &mut self,
        g: &Csr,
        iter: u32,
        candidates: &[VertexId],
        pick_less: bool,
        labels: &[AtomicU32],
        processed: &[AtomicU8],
        mut fr: Option<FrontierCtx<'_>>,
    ) -> usize {
        let total_edges: usize = candidates.iter().map(|&v| g.degree(v)).sum();
        let blocks = candidate_blocks(g, candidates, self.budget(total_edges));
        let buckets: Vec<[Vec<usize>; 3]> = blocks
            .iter()
            .map(|b| {
                let mut bk =
                    bucket_partition(g, &candidates[b.clone()], BucketThresholds::default());
                for list in bk.iter_mut() {
                    for i in list.iter_mut() {
                        *i += b.start;
                    }
                }
                bk
            })
            .collect();
        if self.picks.len() < candidates.len() {
            self.picks
                .resize_with(candidates.len(), || AtomicU32::new(NO_MOVE));
        }

        let mut changed = 0usize;
        let mut repaired = 0u64;
        let mut repair_blocks = 0u32;
        let mut commit_ns = 0u64;
        if self.threads == 1 {
            let (lead, _) = self.scratch.split_at_mut(1);
            let lead = &mut lead[0];
            let tp = &mut self.prof[0];
            for (bi, block) in blocks.iter().enumerate() {
                tp.begin_span();
                for (k, idxs) in buckets[bi].iter().enumerate() {
                    for &i in idxs {
                        let pick =
                            compute_pick(g, candidates[i], pick_less, self.probe, labels, lead);
                        self.picks[i].store(pick.unwrap_or(NO_MOVE), Ordering::Relaxed);
                    }
                    // Single-threaded runs drain each bucket in one go —
                    // attribute it as one chunk.
                    if tp.enabled() && !idxs.is_empty() {
                        let edges = idxs
                            .iter()
                            .map(|&i| g.degree(candidates[i]) as u64)
                            .sum::<u64>();
                        tp.count_chunk(k, idxs.len() as u64, edges);
                    }
                }
                tp.end_span(SpanKind::Compute, iter, bi as u32);
                self.block_stamp += 1;
                tp.begin_span();
                let (c, rep) = commit_block(
                    g,
                    candidates,
                    block.clone(),
                    &self.picks,
                    pick_less,
                    self.probe,
                    labels,
                    processed,
                    lead,
                    &mut self.moved,
                    self.block_stamp,
                    &mut fr,
                );
                changed += c;
                repaired += rep;
                repair_blocks += (rep > 0) as u32;
                commit_ns += tp.end_span(SpanKind::Commit, iter, bi as u32);
            }
        } else {
            let t = self.threads;
            let probe = self.probe;
            let cursors: Vec<[AtomicUsize; 3]> =
                blocks.iter().map(|_| Default::default()).collect();
            let barrier = Barrier::new(t);
            let picks = &self.picks[..];
            let blocks = &blocks[..];
            let buckets = &buckets[..];
            let cursors = &cursors[..];
            let barrier = &barrier;
            let moved = &mut self.moved;
            let block_stamp = &mut self.block_stamp;
            let (lead, rest) = self.scratch.split_at_mut(1);
            let lead = &mut lead[0];
            let (plead, prest) = self.prof.split_at_mut(1);
            let plead = &mut plead[0];
            std::thread::scope(|s| {
                for (scratch, tp) in rest.iter_mut().zip(prest.iter_mut()) {
                    s.spawn(move || {
                        for bi in 0..blocks.len() {
                            barrier.wait();
                            tp.begin_span();
                            compute_block(
                                g,
                                candidates,
                                &buckets[bi],
                                &cursors[bi],
                                picks,
                                pick_less,
                                probe,
                                labels,
                                scratch,
                                tp,
                            );
                            tp.end_span(SpanKind::Compute, iter, bi as u32);
                            barrier.wait();
                        }
                    });
                }
                for (bi, block) in blocks.iter().enumerate() {
                    barrier.wait();
                    plead.begin_span();
                    compute_block(
                        g,
                        candidates,
                        &buckets[bi],
                        &cursors[bi],
                        picks,
                        pick_less,
                        probe,
                        labels,
                        lead,
                        plead,
                    );
                    plead.end_span(SpanKind::Compute, iter, bi as u32);
                    // Workers park at the next block's start barrier
                    // while the lead commits, so no thread reads labels
                    // concurrently with the sequential commit below.
                    barrier.wait();
                    *block_stamp += 1;
                    plead.begin_span();
                    let (c, rep) = commit_block(
                        g,
                        candidates,
                        block.clone(),
                        picks,
                        pick_less,
                        probe,
                        labels,
                        processed,
                        lead,
                        moved,
                        *block_stamp,
                        &mut fr,
                    );
                    changed += c;
                    repaired += rep;
                    repair_blocks += (rep > 0) as u32;
                    commit_ns += plead.end_span(SpanKind::Commit, iter, bi as u32);
                }
            });
        }
        self.runprof.record_iter(
            iter,
            blocks.len() as u32,
            candidates.len() as u64,
            repaired,
            repair_blocks,
            changed as u64,
            commit_ns,
        );
        changed
    }
}

/// Claim-and-compute loop for one block: threads pull per-bucket chunks
/// off shared cursors until the block is drained. Every candidate index
/// is computed by exactly one thread; the stored pick is independent of
/// which thread that is (labels are frozen for the whole block).
#[allow(clippy::too_many_arguments)]
fn compute_block<V: HashValue>(
    g: &Csr,
    candidates: &[VertexId],
    buckets: &[Vec<usize>; 3],
    cursors: &[AtomicUsize; 3],
    picks: &[AtomicU32],
    pick_less: bool,
    probe: ProbeStrategy,
    labels: &[AtomicU32],
    scratch: &mut ScratchPad<V>,
    tp: &mut ThreadProf,
) {
    for (k, idxs) in buckets.iter().enumerate() {
        let chunk = CHUNK_SIZES[k];
        loop {
            let start = tp.claim(&cursors[k], k, chunk, idxs.len());
            if start >= idxs.len() {
                break;
            }
            let end = (start + chunk).min(idxs.len());
            for &i in &idxs[start..end] {
                let pick = compute_pick(g, candidates[i], pick_less, probe, labels, scratch);
                picks[i].store(pick.unwrap_or(NO_MOVE), Ordering::Relaxed);
            }
            if tp.enabled() {
                let edges = idxs[start..end]
                    .iter()
                    .map(|&i| g.degree(candidates[i]) as u64)
                    .sum::<u64>();
                tp.count_chunk(k, (end - start) as u64, edges);
            }
        }
    }
}

/// Compute one vertex's pick against the current labels: accumulate
/// neighbour label weights into the dense scratch, then take the
/// heaviest label. A unique maximum needs no tie-break and is returned
/// straight off the `touched` scan; on a weight tie the winner is
/// resolved by [`slot_order_winner`], reproducing the per-vertex table
/// bit-for-bit. Either way the pick is a pure function of the label
/// state, so it cannot depend on bucket or chunk scheduling.
fn compute_pick<V: HashValue>(
    g: &Csr,
    v: VertexId,
    pick_less: bool,
    probe: ProbeStrategy,
    labels: &[AtomicU32],
    scratch: &mut ScratchPad<V>,
) -> Option<VertexId> {
    scratch.begin();
    for (j, w) in g.neighbors(v) {
        if j == v {
            continue;
        }
        let c = labels[j as usize].load(Ordering::Relaxed);
        let ci = c as usize;
        if scratch.stamp[ci] != scratch.gen {
            scratch.stamp[ci] = scratch.gen;
            scratch.counts[ci] = V::zero();
            scratch.touched.push(c);
        }
        scratch.counts[ci] = scratch.counts[ci].add(V::from_weight(w));
    }
    let mut best: Option<(VertexId, V)> = None;
    let mut tied = false;
    for &c in &scratch.touched {
        let w = scratch.counts[c as usize];
        match &best {
            Some((_, bw)) if w > *bw => {
                best = Some((c, w));
                tied = false;
            }
            Some((_, bw)) if w == *bw => tied = true,
            None => best = Some((c, w)),
            _ => {}
        }
    }
    let (mut c_star, _) = best?;
    if tied {
        c_star = slot_order_winner(g, v, probe, scratch)
            .expect("a weight tie implies a non-empty table");
    }
    let cur = labels[v as usize].load(Ordering::Relaxed);
    (c_star != cur && (!pick_less || c_star < cur)).then_some(c_star)
}

/// Tie-break replay of the per-vertex hashtable: rebuild the
/// table's slot assignment (same capacity `p₁ = nextPow2(d) − 1`, probe
/// sequences, probe budget and linear fallback as
/// `TableMut::accumulate`) and rerun `hashtableMaxKey`'s
/// strictly-greater slot scan over the dense counts — so the *first
/// maximal slot's* key wins, exactly as in the table kernel.
///
/// Two replays are skipped because they cannot change the outcome:
/// weights (per label both paths add the same values in the same CSR
/// order, so `counts[label]` already equals the table cell
/// bit-for-bit), and duplicate insertions — a repeated key re-walks its
/// original probe path over slots that are still occupied, so it always
/// lands on its existing slot and never claims a new one. Slot
/// assignment is therefore a function of the *distinct* labels in
/// first-occurrence CSR order, which is exactly `scratch.touched`. The
/// `weight_ties_resolve_to_table_slot_order_winner` proptest pins this
/// against `TableMut` itself.
fn slot_order_winner<V: HashValue>(
    g: &Csr,
    v: VertexId,
    probe: ProbeStrategy,
    scratch: &mut ScratchPad<V>,
) -> Option<VertexId> {
    let p1 = capacity_for_degree(g.degree(v));
    if p1 == 0 {
        return None;
    }
    let p2 = secondary_prime(p1);
    if scratch.slot_keys.len() < p1 {
        scratch.slot_keys.resize(p1, 0);
        scratch.slot_stamp.resize(p1, 0);
    }
    let gen = scratch.gen;
    let budget = probe_budget(p1);
    for &key in &scratch.touched {
        let mut seq = ProbeSeq::new(probe, key, p1, p2);
        let mut placed = false;
        let mut last = 0usize;
        for _ in 0..budget {
            let s = seq.slot();
            last = s;
            if scratch.slot_stamp[s] != gen {
                scratch.slot_stamp[s] = gen;
                scratch.slot_keys[s] = key;
                placed = true;
                break;
            }
            if scratch.slot_keys[s] == key {
                placed = true;
                break;
            }
            seq.advance();
        }
        if !placed {
            // linear fallback from the last probed slot, as in accumulate
            for off in 1..=p1 {
                let s = (last + off) % p1;
                if scratch.slot_stamp[s] != gen {
                    scratch.slot_stamp[s] = gen;
                    scratch.slot_keys[s] = key;
                    break;
                }
                if scratch.slot_keys[s] == key {
                    break;
                }
            }
        }
    }
    let mut best: Option<(VertexId, V)> = None;
    for s in 0..p1 {
        if scratch.slot_stamp[s] != gen {
            continue;
        }
        let c = scratch.slot_keys[s];
        let w = scratch.counts[c as usize];
        match &best {
            None => best = Some((c, w)),
            Some((_, bw)) => {
                if w > *bw {
                    best = Some((c, w));
                }
            }
        }
    }
    best.map(|(c, _)| c)
}

/// Sequentially commit one block in candidate order (lead thread only),
/// reproducing the fully sequential asynchronous sweep exactly: each
/// candidate is marked processed, its speculative pick is used unless a
/// neighbour moved earlier in this block (in which case the pick is
/// recomputed against the live labels), and an adopted move stores the
/// label, clears neighbour `processed` flags, and — in frontier mode —
/// claims worklist pushes through the `queued` flags.
///
/// Returns `(ΔN, picks recomputed)`. The repair count depends only on
/// the block partition and commit order — both deterministic — so it is
/// identical at any thread count.
#[allow(clippy::too_many_arguments)]
fn commit_block<V: HashValue>(
    g: &Csr,
    candidates: &[VertexId],
    block: std::ops::Range<usize>,
    picks: &[AtomicU32],
    pick_less: bool,
    probe: ProbeStrategy,
    labels: &[AtomicU32],
    processed: &[AtomicU8],
    scratch: &mut ScratchPad<V>,
    moved: &mut [u64],
    block_stamp: u64,
    fr: &mut Option<FrontierCtx<'_>>,
) -> (usize, u64) {
    let mut changed = 0usize;
    let mut repaired = 0u64;
    for i in block {
        let v = candidates[i];
        processed[v as usize].store(1, Ordering::Relaxed);
        let stale = g
            .neighbor_ids(v)
            .iter()
            .any(|&j| moved[j as usize] == block_stamp);
        let pick = if stale {
            repaired += 1;
            compute_pick(g, v, pick_less, probe, labels, scratch).unwrap_or(NO_MOVE)
        } else {
            picks[i].load(Ordering::Relaxed)
        };
        if pick == NO_MOVE {
            continue;
        }
        labels[v as usize].store(pick, Ordering::Relaxed);
        moved[v as usize] = block_stamp;
        changed += 1;
        match fr {
            Some(ctx) => {
                ctx.movers.push(v);
                for &j in g.neighbor_ids(v) {
                    processed[j as usize].store(0, Ordering::Relaxed);
                    if ctx.queued[j as usize].swap(1, Ordering::Relaxed) == 0 {
                        ctx.worklist.push(j);
                    }
                }
            }
            None => {
                for &j in g.neighbor_ids(v) {
                    processed[j as usize].store(0, Ordering::Relaxed);
                }
            }
        }
    }
    (changed, repaired)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nulpa_graph::gen::{erdos_renyi, star};
    use proptest::prelude::*;

    #[test]
    fn bucket_partition_is_disjoint_cover() {
        let g = erdos_renyi(150, 500, 3);
        let cands: Vec<VertexId> = (0..150).step_by(2).collect();
        let bk = bucket_partition(
            &g,
            &cands,
            BucketThresholds {
                low_max: 2,
                mid_max: 6,
            },
        );
        let mut seen = vec![false; cands.len()];
        for list in &bk {
            for &i in list {
                assert!(!seen[i], "index {i} in two buckets");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some candidate unbucketed");
    }

    #[test]
    fn bucket_partition_respects_thresholds() {
        let g = star(40); // hub degree 39, leaves degree 1
        let cands: Vec<VertexId> = (0..40).collect();
        let t = BucketThresholds {
            low_max: 1,
            mid_max: 10,
        };
        let bk = bucket_partition(&g, &cands, t);
        assert_eq!(bk[0].len(), 39, "leaves are low-degree");
        assert!(bk[1].is_empty());
        assert_eq!(bk[2], vec![0], "hub lands in the high bucket");
    }

    #[test]
    fn scratch_generation_wrap_resets_stamps() {
        let mut s = ScratchPad::<f32>::new(4);
        s.gen = u32::MAX - 1;
        s.begin(); // -> u32::MAX
        s.stamp[2] = s.gen;
        s.counts[2] = 7.0;
        s.begin(); // wraps: stamps bulk-cleared, gen = 1
        assert_eq!(s.gen, 1);
        assert!(
            s.stamp.iter().all(|&st| st == 0),
            "stale stamp survived wrap"
        );
    }

    #[test]
    fn scratch_reuse_does_not_leak_counts() {
        let g = nulpa_graph::GraphBuilder::new(4)
            .add_undirected_edge(0, 1, 1.0)
            .add_undirected_edge(0, 2, 1.0)
            .add_undirected_edge(1, 2, 1.0)
            .build();
        let labels: Vec<AtomicU32> = (0..4).map(AtomicU32::new).collect();
        let mut s = ScratchPad::<f32>::new(4);
        let p = ProbeStrategy::QuadraticDouble;
        let a = compute_pick(&g, 0, false, p, &labels, &mut s);
        let b = compute_pick(&g, 0, false, p, &labels, &mut s);
        assert_eq!(a, b, "second use of the scratch must see fresh counts");
    }

    /// Edge weights of the tie-break proptest: few and exactly
    /// representable, so equal label weights are common.
    const WEIGHTS: [f32; 4] = [0.25, 0.5, 1.0, 0.1];

    /// Vertex 0 with `d ∈ {2^k − 1, 2^k, 2^k + 1}` distinct neighbours —
    /// either side of the jumps of `capacity_for_degree` — plus an
    /// optional self loop. The neighbours share a few labels in counts
    /// that differ by at most one, drawn from a range wider than the
    /// table so probe sequences collide. Edge weights come from
    /// [`WEIGHTS`], per edge or one for all (then the label counts alone
    /// decide, and ties are certain). Vertex 0 keeps label 0, which no
    /// neighbour has, so its pick is always the heaviest label.
    fn arb_neighbourhood() -> impl Strategy<Value = (Csr, Vec<u32>)> {
        (1u32..8, 0usize..3, 2usize..17, 0u8..2, 0u8..2).prop_flat_map(
            |(k, off, pool, self_loop, uniform)| {
                let d = (1usize << k) + off - 1;
                let n = d + 1 + 256;
                let pool = pool.min(d);
                let pool_labels = proptest::collection::vec(1..n as u32, pool);
                let nbrs = proptest::collection::vec((0u32..1 << 16, 0..WEIGHTS.len()), d);
                (pool_labels, nbrs).prop_map(move |(pool_labels, nbrs)| {
                    let mut b = nulpa_graph::GraphBuilder::new(n).keep_self_loops(true);
                    if self_loop == 1 {
                        b = b.add_edge(0, 0, 1.0);
                    }
                    // neighbour ranked r in a random order takes pool label r mod pool
                    let mut order: Vec<usize> = (0..d).collect();
                    order.sort_by_key(|&j| nbrs[j].0);
                    let mut labels: Vec<u32> = (0..n as u32).collect();
                    for (rank, &j) in order.iter().enumerate() {
                        labels[j + 1] = pool_labels[rank % pool];
                    }
                    for (j, &(_, w)) in (1..).zip(&nbrs) {
                        let w = if uniform == 1 { nbrs[0].1 } else { w };
                        b = b.add_undirected_edge(0, j, WEIGHTS[w]);
                    }
                    (b.build(), labels)
                })
            },
        )
    }

    /// Vertex 0's pick on the fast path.
    fn fast_pick<V: HashValue>(g: &Csr, labels: &[u32], probe: ProbeStrategy) -> Option<u32> {
        let labels: Vec<AtomicU32> = labels.iter().map(|&l| AtomicU32::new(l)).collect();
        let mut s = ScratchPad::<V>::new(labels.len());
        compute_pick(g, 0, false, probe, &labels, &mut s)
    }

    /// Vertex 0's pick from a per-vertex table, as the paper's
    /// thread-per-vertex kernel builds it (`TableMut::accumulate`, then
    /// the first maximal slot of `max_key`).
    fn table_pick<V: HashValue>(g: &Csr, labels: &[u32], probe: ProbeStrategy) -> Option<u32> {
        let p1 = capacity_for_degree(g.degree(0));
        let mut keys = vec![nulpa_hashtab::EMPTY_KEY; p1];
        let mut vals = vec![V::zero(); p1];
        let mut t = nulpa_hashtab::TableMut::<V>::new(&mut keys, &mut vals, secondary_prime(p1));
        for (j, w) in g.neighbors(0) {
            if j != 0 {
                t.accumulate(probe, labels[j as usize], V::from_weight(w));
            }
        }
        t.max_key().map(|(k, _)| k)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn weight_ties_resolve_to_table_slot_order_winner((g, labels) in arb_neighbourhood()) {
            for probe in ProbeStrategy::all() {
                prop_assert_eq!(
                    fast_pick::<f32>(&g, &labels, probe),
                    table_pick::<f32>(&g, &labels, probe),
                    "f32, {:?}", probe
                );
                prop_assert_eq!(
                    fast_pick::<f64>(&g, &labels, probe),
                    table_pick::<f64>(&g, &labels, probe),
                    "f64, {:?}", probe
                );
            }
        }
    }
}
