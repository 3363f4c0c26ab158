//! Wave-visibility memory: reads see wave-start state, writes flush at the
//! wave boundary.
//!
//! This models the crucial SIMT property behind the paper's community-swap
//! analysis: two co-resident (same-wave) vertices that update their labels
//! "simultaneously" each observe the *other's old* label, so symmetric
//! neighbours adopt each other's labels and swap forever (§4.1). Writes by
//! earlier waves are visible to later waves, which is what makes the
//! algorithm asynchronous across waves.
//!
//! A cell may be staged at most once per wave in ν-LPA (each vertex is
//! written by exactly one thread per iteration); the store nevertheless
//! defines last-stage-wins semantics and exposes the collision count for
//! assertion in tests. Every access is also reported to the
//! [`nulpa_sancheck`] hazard checker, which (once installed) turns the
//! one-writer-per-wave rule (and init-before-read) into a checked
//! invariant.

use nulpa_sancheck::hooks;

/// A `Vec<T>`-backed memory with deferred (wave-buffered) writes.
#[derive(Clone, Debug)]
pub struct DeferredStore<T: Copy> {
    data: Vec<T>,
    pending: Vec<(usize, T)>,
    /// Reused index scratch for collision counting in [`Self::flush`]
    /// (avoids a per-flush allocation).
    scratch: Vec<usize>,
    staged_collisions: u64,
}

impl<T: Copy + PartialEq> DeferredStore<T> {
    /// Wrap an initial state.
    pub fn new(init: Vec<T>) -> Self {
        DeferredStore {
            data: init,
            pending: Vec::new(),
            scratch: Vec::new(),
            staged_collisions: 0,
        }
    }

    /// Wrap backing memory whose contents are *not* considered
    /// initialised — `cudaMalloc` without a memset. Functionally
    /// identical to [`Self::new`]; an installed `sancheck` checker flags
    /// any read of a cell before a write to it commits.
    pub fn new_uninit(backing: Vec<T>) -> Self {
        let s = Self::new(backing);
        hooks::mark_uninit(
            s.data.as_ptr() as usize,
            std::mem::size_of::<T>(),
            s.data.len(),
        );
        s
    }

    /// Host byte address of cell `i` — the shadow-memory key.
    #[inline]
    fn addr_of(&self, i: usize) -> usize {
        self.data.as_ptr() as usize + i * std::mem::size_of::<T>()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the store has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Committed (wave-start) value of cell `i`.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        hooks::ds_read(self.addr_of(i));
        self.data[i]
    }

    /// Stage a write to cell `i`; becomes visible after [`Self::flush`].
    ///
    /// The index is validated eagerly — a bad index would otherwise only
    /// blow up later, inside `flush`, far from the faulting kernel.
    #[inline]
    pub fn stage(&mut self, i: usize, v: T) {
        if i >= self.data.len() {
            hooks::ds_oob(i, self.data.len());
            panic!(
                "DeferredStore::stage: cell index {i} out of bounds for store of {} cells",
                self.data.len()
            );
        }
        hooks::ds_stage(self.addr_of(i));
        self.pending.push((i, v));
    }

    /// Number of writes staged in the current wave.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Apply all staged writes (call from the scheduler's `wave_end`).
    /// Last stage to a cell wins; earlier stages to the same cell are
    /// counted in [`Self::staged_collisions`]. `pending` and the sort
    /// scratch keep their capacity across waves.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        // Collisions = staged writes minus distinct cells, counted by
        // sorting the indices and counting adjacent duplicates.
        self.scratch.clear();
        self.scratch.extend(self.pending.iter().map(|&(i, _)| i));
        self.scratch.sort_unstable();
        self.staged_collisions += self.scratch.windows(2).filter(|w| w[0] == w[1]).count() as u64;
        if hooks::is_active() {
            for &(i, _) in &self.pending {
                hooks::ds_flush_commit(self.addr_of(i));
            }
        }
        for (i, v) in self.pending.drain(..) {
            self.data[i] = v;
        }
    }

    /// Immediately-visible write, bypassing wave buffering. Models a
    /// write made by a *separate kernel launch* (e.g. ν-LPA's Cross-Check
    /// revert pass, whose atomic reverts take effect at once).
    #[inline]
    pub fn write_through(&mut self, i: usize, v: T) {
        hooks::ds_write_through(self.addr_of(i));
        self.data[i] = v;
    }

    /// Atomic exchange: immediately-visible write that returns the
    /// previous value — `atomicExch` semantics. Like atomics on hardware
    /// (and unlike [`Self::stage`]) the effect is not deferred to the
    /// wave boundary; the checker tracks it as an atomic access.
    #[inline]
    pub fn atomic_exchange(&mut self, i: usize, v: T) -> T {
        hooks::atomic_access(self.addr_of(i));
        let old = self.data[i];
        self.data[i] = v;
        old
    }

    /// Cells written more than once within a single wave, cumulative.
    pub fn staged_collisions(&self) -> u64 {
        self.staged_collisions
    }

    /// View of the committed state.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Consume into the committed state. Pending (unflushed) writes are
    /// dropped — flush first if they matter.
    pub fn into_inner(self) -> Vec<T> {
        self.data
    }
}

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Thread-shareable variant of [`DeferredStore`] for `u32` cells: reads
/// go through `&self` (so concurrent lanes can share the store), while
/// staged writes live in caller-owned per-shard pending lists that the
/// wave scheduler merges in deterministic lane order via
/// [`Self::flush_shards`].
///
/// All atomics use `Relaxed` ordering: committed cells are only written
/// at wave boundaries (between `thread::scope` joins, which already
/// provide the happens-before edges) or by explicitly-immediate
/// `write_through`/`atomic_exchange` calls whose cross-lane ordering the
/// simulated algorithm does not rely on.
#[derive(Debug)]
pub struct SyncDeferredStore {
    data: Vec<AtomicU32>,
    staged_collisions: AtomicU64,
}

/// One shard's staged writes, to be passed back to
/// [`SyncDeferredStore::flush_shards`].
pub type StagedWrites = Vec<(usize, u32)>;

impl SyncDeferredStore {
    /// Wrap an initial state.
    pub fn new(init: Vec<u32>) -> Self {
        SyncDeferredStore {
            data: init.into_iter().map(AtomicU32::new).collect(),
            staged_collisions: AtomicU64::new(0),
        }
    }

    /// Host byte address of cell `i` — the shadow-memory key.
    #[inline]
    fn addr_of(&self, i: usize) -> usize {
        self.data.as_ptr() as usize + i * std::mem::size_of::<AtomicU32>()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the store has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Committed (wave-start) value of cell `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        hooks::ds_read(self.addr_of(i));
        self.data[i].load(Ordering::Relaxed)
    }

    /// Stage a write to cell `i` into `pending`; becomes visible after the
    /// shard is passed to [`Self::flush_shards`]. The index is validated
    /// eagerly, exactly like [`DeferredStore::stage`].
    #[inline]
    pub fn stage(&self, pending: &mut StagedWrites, i: usize, v: u32) {
        if i >= self.data.len() {
            hooks::ds_oob(i, self.data.len());
            panic!(
                "DeferredStore::stage: cell index {i} out of bounds for store of {} cells",
                self.data.len()
            );
        }
        hooks::ds_stage(self.addr_of(i));
        pending.push((i, v));
    }

    /// Apply the staged writes of every shard, in shard order (call from
    /// the scheduler's `wave_end` with shards in lane order — the
    /// concatenation then equals the serial staging order, so
    /// last-stage-wins and [`Self::staged_collisions`] match
    /// [`DeferredStore::flush`] exactly). `scratch` is the caller-owned
    /// sort buffer for collision counting (kept across waves to avoid a
    /// per-flush allocation).
    pub fn flush_shards<S>(
        &self,
        shards: &mut [S],
        pending_of: impl Fn(&mut S) -> &mut StagedWrites,
        scratch: &mut Vec<usize>,
    ) {
        scratch.clear();
        for s in shards.iter_mut() {
            scratch.extend(pending_of(s).iter().map(|&(i, _)| i));
        }
        if scratch.is_empty() {
            return;
        }
        scratch.sort_unstable();
        let dups = scratch.windows(2).filter(|w| w[0] == w[1]).count() as u64;
        self.staged_collisions.fetch_add(dups, Ordering::Relaxed);
        if hooks::is_active() {
            for s in shards.iter_mut() {
                for &(i, _) in pending_of(s).iter() {
                    hooks::ds_flush_commit(self.addr_of(i));
                }
            }
        }
        for s in shards.iter_mut() {
            for (i, v) in pending_of(s).drain(..) {
                self.data[i].store(v, Ordering::Relaxed);
            }
        }
    }

    /// Immediately-visible write, bypassing wave buffering (see
    /// [`DeferredStore::write_through`]).
    #[inline]
    pub fn write_through(&self, i: usize, v: u32) {
        hooks::ds_write_through(self.addr_of(i));
        self.data[i].store(v, Ordering::Relaxed);
    }

    /// Atomic exchange: immediately-visible write returning the previous
    /// value — `atomicExch` semantics (see
    /// [`DeferredStore::atomic_exchange`]).
    #[inline]
    pub fn atomic_exchange(&self, i: usize, v: u32) -> u32 {
        hooks::atomic_access(self.addr_of(i));
        self.data[i].swap(v, Ordering::Relaxed)
    }

    /// Cells written more than once within a single wave, cumulative.
    pub fn staged_collisions(&self) -> u64 {
        self.staged_collisions.load(Ordering::Relaxed)
    }

    /// Copy of the committed state (no instrumentation hooks, like
    /// [`DeferredStore::as_slice`]).
    pub fn snapshot(&self) -> Vec<u32> {
        self.data
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Consume into the committed state.
    pub fn into_inner(self) -> Vec<u32> {
        self.data.into_iter().map(AtomicU32::into_inner).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_see_wave_start_values() {
        let mut s = DeferredStore::new(vec![1, 2, 3]);
        s.stage(0, 10);
        assert_eq!(s.get(0), 1); // not yet visible
        s.flush();
        assert_eq!(s.get(0), 10);
    }

    #[test]
    fn swap_scenario_reproduced() {
        // Two symmetric vertices each adopt the other's label within a
        // wave: with deferred semantics both reads see old values and the
        // labels genuinely swap — the paper's non-convergence pathology.
        let mut labels = DeferredStore::new(vec![0u32, 1]);
        let a = labels.get(1); // vertex 0 reads neighbour 1
        let b = labels.get(0); // vertex 1 reads neighbour 0
        labels.stage(0, a);
        labels.stage(1, b);
        labels.flush();
        assert_eq!(labels.as_slice(), &[1, 0]); // swapped
    }

    #[test]
    fn later_wave_sees_earlier_writes() {
        let mut s = DeferredStore::new(vec![0]);
        s.stage(0, 5);
        s.flush();
        // next wave
        let seen = s.get(0);
        assert_eq!(seen, 5);
    }

    #[test]
    fn last_stage_wins_and_collision_counted() {
        let mut s = DeferredStore::new(vec![0]);
        s.stage(0, 1);
        s.stage(0, 2);
        s.flush();
        assert_eq!(s.get(0), 2);
        assert_eq!(s.staged_collisions(), 1);
    }

    #[test]
    fn collision_counts_match_distinct_cell_accounting() {
        // Micro-assert for the sort-based dedup: collisions per flush must
        // equal staged writes minus distinct cells, exactly as the old
        // hash-set accounting defined them — including across several
        // flushes reusing the same scratch buffer.
        let mut s = DeferredStore::new(vec![0u32; 8]);
        for &(writes, expected) in &[
            (&[0usize, 1, 0, 2, 0, 1][..], 3u64), // 6 writes, 3 distinct
            (&[5, 5, 5, 5][..], 3),               // 4 writes, 1 distinct
            (&[3, 4, 6][..], 0),                  // all distinct
        ] {
            let before = s.staged_collisions();
            for &i in writes {
                s.stage(i, 9);
            }
            s.flush();
            assert_eq!(s.staged_collisions() - before, expected);
        }
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn pending_capacity_kept_across_waves() {
        let mut s = DeferredStore::new(vec![0u32; 64]);
        for i in 0..64 {
            s.stage(i, 1);
        }
        s.flush();
        let cap = s.pending.capacity();
        assert!(cap >= 64);
        for i in 0..64 {
            s.stage(i, 2);
        }
        s.flush();
        assert_eq!(s.pending.capacity(), cap); // no realloc, no shrink
    }

    #[test]
    #[should_panic(expected = "cell index 9 out of bounds for store of 3 cells")]
    fn stage_out_of_bounds_panics_eagerly_with_context() {
        let mut s = DeferredStore::new(vec![0u32; 3]);
        s.stage(9, 1);
    }

    #[test]
    fn flush_empty_is_noop() {
        let mut s = DeferredStore::new(vec![7]);
        s.flush();
        assert_eq!(s.get(0), 7);
        assert_eq!(s.staged_collisions(), 0);
    }

    #[test]
    fn pending_len_resets_on_flush() {
        let mut s = DeferredStore::new(vec![0, 0]);
        s.stage(0, 1);
        s.stage(1, 1);
        assert_eq!(s.pending_len(), 2);
        s.flush();
        assert_eq!(s.pending_len(), 0);
    }

    #[test]
    fn into_inner_returns_committed_state() {
        let mut s = DeferredStore::new(vec![0]);
        s.stage(0, 9);
        s.flush();
        assert_eq!(s.into_inner(), vec![9]);
    }

    #[test]
    fn atomic_exchange_is_immediate_and_returns_old() {
        let mut s = DeferredStore::new(vec![1u32, 2]);
        assert_eq!(s.atomic_exchange(0, 7), 1);
        assert_eq!(s.get(0), 7); // visible at once, no flush needed
    }

    #[test]
    fn new_uninit_behaves_like_new_functionally() {
        let mut s = DeferredStore::new_uninit(vec![0u32; 4]);
        s.stage(2, 5);
        s.flush();
        assert_eq!(s.get(2), 5);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn sync_store_matches_deferred_store_semantics() {
        // Differential check: the same staged-write sequence through one
        // shard must commit the same state and collision count as the
        // single-threaded DeferredStore.
        let writes: &[(usize, u32)] = &[(0, 1), (1, 2), (0, 3), (2, 4), (0, 5), (1, 6)];
        let mut reference = DeferredStore::new(vec![0u32; 4]);
        for &(i, v) in writes {
            reference.stage(i, v);
        }
        reference.flush();

        let sync = SyncDeferredStore::new(vec![0u32; 4]);
        let mut shard: StagedWrites = Vec::new();
        for &(i, v) in writes {
            sync.stage(&mut shard, i, v);
        }
        let mut scratch = Vec::new();
        sync.flush_shards(&mut [shard], |s| s, &mut scratch);
        assert_eq!(sync.snapshot(), reference.as_slice());
        assert_eq!(sync.staged_collisions(), reference.staged_collisions());
    }

    #[test]
    fn sync_store_shard_order_is_stage_order() {
        // Writes split across shards commit in shard order: the last
        // shard's write wins, and collisions count across the whole wave.
        let s = SyncDeferredStore::new(vec![0u32; 2]);
        let mut a: StagedWrites = Vec::new();
        let mut b: StagedWrites = Vec::new();
        s.stage(&mut a, 0, 1);
        s.stage(&mut b, 0, 2);
        let mut scratch = Vec::new();
        s.flush_shards(&mut [a, b], |sh| sh, &mut scratch);
        assert_eq!(s.get(0), 2);
        assert_eq!(s.staged_collisions(), 1);
    }

    #[test]
    fn sync_store_write_through_and_exchange_are_immediate() {
        let s = SyncDeferredStore::new(vec![1u32, 2]);
        s.write_through(1, 9);
        assert_eq!(s.get(1), 9);
        assert_eq!(s.atomic_exchange(0, 7), 1);
        assert_eq!(s.get(0), 7);
        assert_eq!(s.into_inner(), vec![7, 9]);
    }

    #[test]
    fn sync_store_flush_empty_shards_is_noop() {
        let s = SyncDeferredStore::new(vec![4u32]);
        let mut scratch = Vec::new();
        s.flush_shards(&mut [StagedWrites::new()], |sh| sh, &mut scratch);
        assert_eq!(s.get(0), 4);
        assert_eq!(s.staged_collisions(), 0);
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    #[should_panic(expected = "cell index 9 out of bounds for store of 3 cells")]
    fn sync_store_stage_out_of_bounds_panics_eagerly() {
        let s = SyncDeferredStore::new(vec![0u32; 3]);
        let mut shard = StagedWrites::new();
        s.stage(&mut shard, 9, 1);
    }
}
