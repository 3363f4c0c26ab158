//! Edge-list graph builder producing validated [`Csr`] graphs.
//!
//! The builder mirrors the preprocessing the paper applies to its inputs:
//! directed inputs are *symmetrized* (a reverse edge is added for every
//! edge — Table 1 reports `|E|` "after adding reverse edges"), duplicate
//! edges are merged by summing weights, and self loops are dropped by
//! default (LPA skips `j = i` during label accumulation; Algorithm 1).
//!
//! Building takes O(|V| + |E|) time apart from sorting rows that arrive
//! out of order: edges are counting-sorted by source, and only a row that
//! is not already in `(target, weight bits)` order gets sorted. The graph
//! built depends only on the multiset of queued edges, never on the order
//! they were added in.

use crate::csr::{Csr, VertexId, Weight};

/// Policy for duplicate `(u, v)` entries in the edge list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DuplicatePolicy {
    /// Sum the weights of duplicates (default; matches weighted-multigraph
    /// collapse used by the paper's loaders). The sum runs in ascending
    /// order of `f32::to_bits`, whatever order the duplicates were added
    /// in, so both directions of an undirected edge get the same bits.
    #[default]
    SumWeights,
    /// Keep one duplicate and discard the rest: the one whose weight has
    /// the smallest `f32::to_bits` pattern, whatever order the duplicates
    /// were added in.
    KeepFirst,
    /// Keep duplicates as parallel edges.
    KeepAll,
}

/// Incremental builder for [`Csr`] graphs.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_vertices: usize,
    /// Edges already grouped into sorted rows (by [`GraphBuilder::symmetrize`]).
    rows: Option<Rows>,
    /// Edges queued since, in insertion order.
    edges: Vec<(VertexId, VertexId, Weight)>,
    keep_self_loops: bool,
    duplicates: DuplicatePolicy,
}

impl GraphBuilder {
    /// A builder for a graph with exactly `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(
            n < u32::MAX as usize,
            "vertex ids must fit in u32 with one sentinel value to spare"
        );
        GraphBuilder {
            num_vertices: n,
            rows: None,
            edges: Vec::new(),
            keep_self_loops: false,
            duplicates: DuplicatePolicy::SumWeights,
        }
    }

    /// A builder over edges the caller has already checked: every id is
    /// `< n`, every weight is finite and no edge is a self loop. Takes the
    /// vector without copying it.
    pub(crate) fn from_checked_edges(n: usize, edges: Vec<(VertexId, VertexId, Weight)>) -> Self {
        GraphBuilder {
            edges,
            ..GraphBuilder::new(n)
        }
    }

    /// Keep or drop self loops (dropped by default).
    pub fn keep_self_loops(mut self, keep: bool) -> Self {
        self.keep_self_loops = keep;
        self
    }

    /// Set the duplicate-edge policy.
    pub fn duplicate_policy(mut self, p: DuplicatePolicy) -> Self {
        self.duplicates = p;
        self
    }

    /// Pre-allocate space for `m` more edges.
    pub fn reserve(mut self, m: usize) -> Self {
        self.edges.reserve(m);
        self
    }

    /// Add one directed edge.
    pub fn add_edge(mut self, u: VertexId, v: VertexId, w: Weight) -> Self {
        self.push_edge(u, v, w);
        self
    }

    /// Add one undirected edge (stored in both directions).
    pub fn add_undirected_edge(mut self, u: VertexId, v: VertexId, w: Weight) -> Self {
        self.push_undirected(u, v, w);
        self
    }

    /// Add many directed edges.
    pub fn add_edges<I>(mut self, it: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId, Weight)>,
    {
        for (u, v, w) in it {
            self.push_edge(u, v, w);
        }
        self
    }

    /// Add many undirected edges.
    pub fn add_undirected_edges<I>(mut self, it: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId, Weight)>,
    {
        for (u, v, w) in it {
            self.push_undirected(u, v, w);
        }
        self
    }

    /// Non-consuming edge insertion, for loop-heavy generator code.
    pub fn push_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        assert!(
            (u as usize) < self.num_vertices && (v as usize) < self.num_vertices,
            "edge ({u}, {v}) out of range for |V| = {}",
            self.num_vertices
        );
        assert!(w.is_finite(), "edge weight must be finite");
        if u == v && !self.keep_self_loops {
            return;
        }
        self.edges.push((u, v, w));
    }

    /// Non-consuming undirected edge insertion.
    pub fn push_undirected(&mut self, u: VertexId, v: VertexId, w: Weight) {
        self.push_edge(u, v, w);
        if u != v {
            self.push_edge(v, u, w);
        }
    }

    /// Number of directed edge entries currently queued.
    pub fn pending_edges(&self) -> usize {
        self.edges.len() + self.rows.as_ref().map_or(0, |r| r.targets.len())
    }

    /// Symmetrize the queued edge list: for every queued `(u, v, w)` with no
    /// queued `(v, u, _)`, queue `(v, u, w)`. Used when loading directed
    /// datasets, matching the paper's "ensure the edges are undirected".
    ///
    /// Contract: after symmetrization every stored edge has a reverse
    /// (structural symmetry). Weights follow: a direction that already
    /// existed keeps its own weight; duplicates of `(u, v)` each schedule
    /// their own reverse, so merged weight sums match in both directions.
    pub fn symmetrize(mut self) -> Self {
        let (rows, edges) = self.take_rows();
        self.rows = Some(rows.symmetrized(edges));
        self
    }

    /// Finalize into a validated CSR graph.
    pub fn build(mut self) -> Csr {
        let (rows, edges) = self.take_rows();
        drop(edges);
        rows.into_csr(self.duplicates)
    }

    /// Every queued edge grouped into sorted rows, plus the edge vector
    /// they were sorted from, whose buffer [`Rows::symmetrized`] reuses.
    fn take_rows(&mut self) -> (Rows, Vec<(VertexId, VertexId, Weight)>) {
        let mut edges = std::mem::take(&mut self.edges);
        match self.rows.take() {
            Some(rows) if edges.is_empty() => (rows, edges),
            rows => {
                if let Some(rows) = rows {
                    edges.extend(rows.edges());
                }
                (Rows::sort(self.num_vertices, &edges), edges)
            }
        }
    }
}

/// Edges grouped by source: row `u` is `targets[offsets[u]..offsets[u + 1]]`
/// with the aligned `weights`, ordered by `(target, weight bits)`.
#[derive(Clone, Debug)]
struct Rows {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    weights: Vec<Weight>,
}

/// The row order: by target, then by the weight's bit pattern.
fn row_key(v: VertexId, w: Weight) -> u64 {
    (v as u64) << 32 | w.to_bits() as u64
}

/// Counts per row, with `counts[u + 1]` holding row `u`'s count, into
/// row start offsets.
fn prefix_sum(counts: &mut [usize]) {
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
}

impl Rows {
    /// Counting sort by source (stable), then sort each row that is out
    /// of order.
    fn sort(n: usize, edges: &[(VertexId, VertexId, Weight)]) -> Rows {
        let mut offsets = vec![0usize; n + 1];
        for &(u, _, _) in edges {
            offsets[u as usize + 1] += 1;
        }
        prefix_sum(&mut offsets);
        let mut targets = vec![0; edges.len()];
        let mut weights = vec![0.0; edges.len()];
        // offsets[u] serves as row u's write cursor and ends at row u + 1's start
        for &(u, v, w) in edges {
            let at = &mut offsets[u as usize];
            targets[*at] = v;
            weights[*at] = w;
            *at += 1;
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;

        let mut scratch: Vec<u64> = Vec::new();
        for u in 0..n {
            let (lo, hi) = (offsets[u], offsets[u + 1]);
            let key = |i: usize| row_key(targets[i], weights[i]);
            if (lo + 1..hi).all(|i| key(i - 1) <= key(i)) {
                continue;
            }
            scratch.clear();
            scratch.extend((lo..hi).map(key));
            // equal keys are equal edges, so an unstable sort is exact
            scratch.sort_unstable();
            for (i, &k) in (lo..hi).zip(&scratch) {
                targets[i] = (k >> 32) as VertexId;
                weights[i] = f32::from_bits(k as u32);
            }
        }
        Rows {
            offsets,
            targets,
            weights,
        }
    }

    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Every edge as `(source, target, weight)`.
    fn edges(self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> {
        let Rows {
            offsets,
            targets,
            weights,
        } = self;
        (0..offsets.len() - 1)
            .flat_map(move |u| std::iter::repeat_n(u as VertexId, offsets[u + 1] - offsets[u]))
            .zip(targets)
            .zip(weights)
            .map(|((u, v), w)| (u, v, w))
    }

    /// Add `(x, u, w)` for every edge `(u, x, w)`, `u != x`, whose target
    /// `x` has no edge back to `u`. A counting sort by target builds the
    /// transpose; then each transposed row is merged with the row of the
    /// same vertex.
    ///
    /// The transpose and then the missing edges live in `buf`, the vector
    /// the rows were sorted from. Freeing that buffer first would raise
    /// glibc's dynamic mmap threshold, so a fresh transpose would land in
    /// the heap and stay resident after the load; reusing it avoids that
    /// and lowers the loader's peak.
    fn symmetrized(mut self, mut buf: Vec<(VertexId, VertexId, Weight)>) -> Rows {
        let n = self.num_vertices();
        // Scanning rows in source order leaves each transposed row sorted
        // by (source, weight bits), the order the missing edges need.
        let mut t_offsets = vec![0usize; n + 1];
        for &v in &self.targets {
            t_offsets[v as usize + 1] += 1;
        }
        prefix_sum(&mut t_offsets);
        // every slot is overwritten below, so only a shortfall is filled
        buf.truncate(self.targets.len());
        buf.resize(self.targets.len(), (0, 0, 0.0));
        for u in 0..n {
            for i in self.offsets[u]..self.offsets[u + 1] {
                let at = &mut t_offsets[self.targets[i] as usize];
                buf[*at] = (u as VertexId, self.targets[i], self.weights[i]);
                *at += 1;
            }
        }
        t_offsets.copy_within(0..n, 1);
        t_offsets[0] = 0;

        // Compact the missing edges to the front of `buf`, as (x, u, w) in
        // (x, u, weight bits) order; slot k is read before it is written.
        let mut missing = 0;
        for x in 0..n {
            let own = &self.targets[self.offsets[x]..self.offsets[x + 1]];
            let mut j = 0;
            for k in t_offsets[x]..t_offsets[x + 1] {
                let (u, _, w) = buf[k];
                if u as usize == x {
                    continue;
                }
                while j < own.len() && own[j] < u {
                    j += 1;
                }
                if own.get(j) != Some(&u) {
                    buf[missing] = (x as VertexId, u, w);
                    missing += 1;
                }
            }
        }
        drop(t_offsets);
        buf.truncate(missing);
        let missing = buf;
        if missing.is_empty() {
            return self;
        }

        // Merge the missing edges into their rows in place, back to front:
        // the write position stays ahead of the read position by the number
        // of missing edges not yet placed. A missing edge never shares its
        // target with an edge of its row, so ordering by target suffices.
        let m = self.targets.len();
        let mut write = m + missing.len();
        self.targets.resize(write, 0);
        self.weights.resize(write, 0.0);
        let mut next = missing.len();
        for x in (0..n).rev() {
            let lo = self.offsets[x];
            let mut read = self.offsets[x + 1];
            self.offsets[x + 1] = write;
            loop {
                let extra = next
                    .checked_sub(1)
                    .map(|e| missing[e])
                    .filter(|&(src, _, _)| src as usize == x);
                let (v, w) = match extra {
                    Some((_, v, w)) if read == lo || v > self.targets[read - 1] => {
                        next -= 1;
                        (v, w)
                    }
                    _ if read > lo => {
                        read -= 1;
                        (self.targets[read], self.weights[read])
                    }
                    _ => break,
                };
                write -= 1;
                self.targets[write] = v;
                self.weights[write] = w;
            }
        }
        debug_assert_eq!((write, next), (0, 0));
        self
    }

    /// Merge duplicates under `policy`, compacting in place, and wrap the
    /// arrays as a validated [`Csr`].
    fn into_csr(mut self, policy: DuplicatePolicy) -> Csr {
        if policy != DuplicatePolicy::KeepAll {
            let mut out = 0;
            let mut lo = 0;
            for u in 0..self.num_vertices() {
                let hi = self.offsets[u + 1];
                let row_start = out;
                for i in lo..hi {
                    let (v, w) = (self.targets[i], self.weights[i]);
                    if out > row_start && self.targets[out - 1] == v {
                        // rows are in weight-bits order, so the kept edge
                        // has the smallest bits and sums run in that order
                        if policy == DuplicatePolicy::SumWeights {
                            self.weights[out - 1] += w;
                        }
                    } else {
                        self.targets[out] = v;
                        self.weights[out] = w;
                        out += 1;
                    }
                }
                self.offsets[u + 1] = out;
                lo = hi;
            }
            self.targets.truncate(out);
            self.weights.truncate(out);
            self.targets.shrink_to_fit();
            self.weights.shrink_to_fit();
        }
        Csr::from_raw(self.offsets, self.targets, self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_sum_weights() {
        let g = GraphBuilder::new(2)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 1, 2.5)
            .build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3.5));
    }

    #[test]
    fn duplicate_keep_first() {
        let g = GraphBuilder::new(2)
            .duplicate_policy(DuplicatePolicy::KeepFirst)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 1, 2.5)
            .build();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn duplicate_keep_first_keeps_smallest_weight_bits() {
        let g = GraphBuilder::new(2)
            .duplicate_policy(DuplicatePolicy::KeepFirst)
            .add_edge(0, 1, 2.5)
            .add_edge(0, 1, 1.0)
            .build();
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
    }

    #[test]
    fn duplicate_keep_all() {
        let g = GraphBuilder::new(2)
            .duplicate_policy(DuplicatePolicy::KeepAll)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 1, 2.5)
            .build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(0), 2);
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let g = GraphBuilder::new(2).add_edge(0, 0, 1.0).build();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn self_loops_kept_when_requested() {
        let g = GraphBuilder::new(2)
            .keep_self_loops(true)
            .add_edge(1, 1, 4.0)
            .build();
        assert_eq!(g.num_self_loops(), 1);
        assert_eq!(g.edge_weight(1, 1), Some(4.0));
    }

    #[test]
    fn symmetrize_adds_missing_reverse_edges() {
        let g = GraphBuilder::new(3)
            .add_edge(0, 1, 2.0)
            .add_edge(1, 0, 5.0) // already has a reverse, keep both as-is
            .add_edge(1, 2, 1.0) // reverse missing
            .symmetrize()
            .build();
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
        assert_eq!(g.edge_weight(1, 0), Some(5.0));
        assert_eq!(g.edge_weight(2, 1), Some(1.0));
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn symmetrize_mirrors_each_duplicate() {
        let g = GraphBuilder::new(2)
            .duplicate_policy(DuplicatePolicy::KeepAll)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 1, 1.0)
            .symmetrize()
            .build();
        // each parallel (0,1) edge gets its own reverse, so merged weight
        // sums stay equal in both directions under SumWeights
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);

        let merged = GraphBuilder::new(2)
            .add_edge(0, 1, 1.0)
            .add_edge(0, 1, 2.0)
            .symmetrize()
            .build();
        assert_eq!(merged.edge_weight(0, 1), merged.edge_weight(1, 0));
        assert_eq!(merged.edge_weight(0, 1), Some(3.0));
    }

    #[test]
    fn edges_queued_after_symmetrize_are_not_mirrored() {
        let b = GraphBuilder::new(3)
            .add_edge(0, 1, 1.0)
            .symmetrize()
            .add_edge(1, 2, 4.0);
        assert_eq!(b.pending_edges(), 3);
        let g = b.symmetrize().add_edge(2, 0, 8.0).build();
        assert_eq!(g.edge_weight(1, 0), Some(1.0));
        assert_eq!(g.edge_weight(2, 1), Some(4.0));
        assert_eq!(g.edge_weight(2, 0), Some(8.0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn undirected_edge_stored_both_ways() {
        let g = GraphBuilder::new(2).add_undirected_edge(0, 1, 3.0).build();
        assert!(g.is_symmetric());
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_vertex() {
        GraphBuilder::new(2).add_edge(0, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_weight() {
        GraphBuilder::new(2).add_edge(0, 1, f32::NAN);
    }

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(GraphBuilder::new(0).symmetrize().build().num_vertices(), 0);
    }

    #[test]
    fn deterministic_layout() {
        let mk = || {
            GraphBuilder::new(4)
                .add_undirected_edges([(3, 1, 1.0), (0, 2, 1.0), (1, 0, 1.0)])
                .build()
        };
        assert_eq!(mk(), mk());
    }
}
