//! Per-vertex open-addressing hashtable views (paper Algorithm 2).
//!
//! A table is a pair of borrowed slices — keys `H_k` and values `H_v` —
//! carved out of the global `2|E|` buffers by [`crate::layout::TableSlot`].
//! Two access modes mirror the paper's two kernels:
//!
//! * [`TableMut`] — **unshared**: one thread owns the table
//!   (thread-per-vertex kernel), so plain loads/stores suffice and no
//!   atomics are needed (paper §4.3: "only a single thread operates on the
//!   hashtable. This eliminates the need for atomic operations").
//! * [`TableShared`] — **shared**: a whole block cooperates on one table
//!   (block-per-vertex kernel); key claims use `atomicCAS` and weight
//!   accumulation uses `atomicAdd`, exactly as Algorithm 2's shared path.
//!
//! Both implement `accumulate` with any [`ProbeStrategy`], `max_key` with
//! deterministic first-max (lowest slot) tie-breaking — the paper's
//! "strict" LPA picks *the first label with the highest weight* — and
//! `clear`.
//!
//! **Termination.** Algorithm 2 returns `failed` after `MAX_RETRIES`
//! probes and the paper argues failure is "avoided by ensuring the
//! hashtable has sufficient capacity". Capacity is indeed sufficient
//! (`p₁ ≥ D_i ≥` #distinct keys), but non-linear probe sequences are not
//! guaranteed to *visit* every slot. We therefore fall back to a linear
//! scan from the last probed slot after `MAX_RETRIES` collisions, turning
//! the paper's empirical claim into a guarantee. The fallback is counted
//! separately so experiments can confirm it stays rare.
//!
//! Note: the paper's unshared pseudocode writes `H_v[s] ← v`; weights must
//! of course *accumulate* (Eq. 3's `Σ w`), and the reference CUDA
//! implementation does — we follow the implementation.

use crate::layout::{EMPTY_KEY, MAX_RETRIES};
use crate::probe::{ProbeSeq, ProbeStrategy};
use crate::value::HashValue;
use nulpa_sancheck::hooks;
use nulpa_simt::{CostModel, LaneMeter, Width};
use std::sync::atomic::{AtomicU32, Ordering};

/// Result of an accumulate call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Accumulate {
    /// Inserted or updated at `slot`, after `probes` probe steps and
    /// `fallback_scans` linear-fallback steps (0 in the common case).
    Done {
        /// Slot finally used.
        slot: usize,
        /// Probe steps taken by the configured strategy.
        probes: u32,
        /// Additional linear-fallback steps (rare).
        fallback_scans: u32,
    },
    /// Table full and key absent — cannot happen when capacity ≥ number of
    /// distinct keys, which the layout guarantees for LPA's use.
    Failed,
}

impl Accumulate {
    /// `true` for [`Accumulate::Done`].
    pub fn is_done(self) -> bool {
        matches!(self, Accumulate::Done { .. })
    }
}

/// Addresses used by the simulator's locality model: word indices of the
/// table's key and value regions inside their global buffers.
#[derive(Clone, Copy, Debug)]
pub struct TableAddr {
    /// Word address of `H_k[0]`.
    pub keys: usize,
    /// Word address of `H_v[0]` (in a distinct buffer; give it a distinct
    /// address range so locality is modelled per buffer).
    pub values: usize,
    /// Table lives in shared memory: accesses are charged at shared-memory
    /// cost instead of global (the paper's §4.2 shared-memory-table
    /// experiment; its occupancy penalty is modelled by the caller).
    pub shared_space: bool,
}

impl TableAddr {
    /// Address pair for a table at byte-offset `start` when the value
    /// buffer is placed after a key buffer of `buf_len` words.
    pub fn from_start(start: usize, buf_len: usize) -> Self {
        TableAddr {
            keys: start,
            values: buf_len + start,
            shared_space: false,
        }
    }

    /// Mark the table as shared-memory resident.
    pub fn in_shared_memory(mut self) -> Self {
        self.shared_space = true;
        self
    }
}

/// Charge one table access (read or write have equal cost in both
/// memory-space models; reads/writes are still counted separately by the
/// caller via the meter's counters).
#[inline]
fn charge_table_access(
    meter: &mut LaneMeter,
    cost: &CostModel,
    addr: &TableAddr,
    word: usize,
    width: Width,
    write: bool,
) {
    if addr.shared_space {
        meter.shared(cost, width);
    } else if write {
        meter.global_write(cost, word, width);
    } else {
        meter.global_read(cost, word, width);
    }
}

/// Exclusive (single-thread) table view.
pub struct TableMut<'a, V: HashValue> {
    keys: &'a mut [u32],
    values: &'a mut [V],
    p2: usize,
}

impl<'a, V: HashValue> TableMut<'a, V> {
    /// Wrap key/value slices of equal length `p₁` with secondary modulus
    /// `p₂`.
    pub fn new(keys: &'a mut [u32], values: &'a mut [V], p2: usize) -> Self {
        assert_eq!(keys.len(), values.len(), "key/value slice length mismatch");
        TableMut { keys, values, p2 }
    }

    /// Usable capacity `p₁`.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Shadow-memory identity of this table: the address of its key
    /// region (tables are carved from disjoint buffer ranges).
    #[inline]
    fn tid(&self) -> usize {
        self.keys.as_ptr() as usize
    }

    /// Reset every slot to empty (paper's `hashtableClear`).
    pub fn clear(&mut self) {
        hooks::table_clear(self.tid());
        self.keys.fill(EMPTY_KEY);
        self.values.fill(V::zero());
    }

    /// Accumulate `weight` onto `key` (Algorithm 2, unshared path).
    pub fn accumulate(&mut self, strategy: ProbeStrategy, key: u32, weight: V) -> Accumulate {
        debug_assert_ne!(key, EMPTY_KEY);
        let p1 = self.keys.len();
        if p1 == 0 {
            return Accumulate::Failed;
        }
        let mut seq = ProbeSeq::new(strategy, key, p1, self.p2);
        let retries = probe_budget(p1);
        hooks::probe_start(self.tid(), p1, (retries + p1 as u32) as u64);
        let mut probes = 0u32;
        let mut last = 0usize;
        while probes < retries {
            let s = seq.slot();
            last = s;
            probes += 1;
            hooks::probe_slot(self.tid(), s);
            let k = self.keys[s];
            if k == key {
                self.values[s] = self.values[s].add(weight);
                hooks::claim(self.tid(), key, s);
                hooks::probe_end(self.tid());
                return Accumulate::Done {
                    slot: s,
                    probes,
                    fallback_scans: 0,
                };
            }
            if k == EMPTY_KEY {
                self.keys[s] = key;
                self.values[s] = weight;
                hooks::claim(self.tid(), key, s);
                hooks::probe_end(self.tid());
                return Accumulate::Done {
                    slot: s,
                    probes,
                    fallback_scans: 0,
                };
            }
            seq.advance();
        }
        // Linear fallback: guaranteed to find the key or a hole because
        // capacity ≥ #distinct keys.
        for off in 1..=p1 {
            let s = (last + off) % p1;
            hooks::probe_slot(self.tid(), s);
            let k = self.keys[s];
            if k == key {
                self.values[s] = self.values[s].add(weight);
                hooks::claim(self.tid(), key, s);
                hooks::probe_end(self.tid());
                return Accumulate::Done {
                    slot: s,
                    probes,
                    fallback_scans: off as u32,
                };
            }
            if k == EMPTY_KEY {
                self.keys[s] = key;
                self.values[s] = weight;
                hooks::claim(self.tid(), key, s);
                hooks::probe_end(self.tid());
                return Accumulate::Done {
                    slot: s,
                    probes,
                    fallback_scans: off as u32,
                };
            }
        }
        hooks::probe_end(self.tid());
        Accumulate::Failed
    }

    /// Metered variant of [`Self::accumulate`]: charges the lane for every
    /// key read, insert, and value update at realistic buffer addresses.
    pub fn accumulate_metered(
        &mut self,
        strategy: ProbeStrategy,
        key: u32,
        weight: V,
        addr: TableAddr,
        meter: &mut LaneMeter,
        cost: &CostModel,
    ) -> Accumulate {
        // Probe-scope bracket: memory traffic inside the probe loop is
        // attributed to the probe components in profiling builds.
        meter.probe_scope(true);
        let r = self.accumulate_metered_inner(strategy, key, weight, addr, meter, cost);
        meter.probe_scope(false);
        r
    }

    fn accumulate_metered_inner(
        &mut self,
        strategy: ProbeStrategy,
        key: u32,
        weight: V,
        addr: TableAddr,
        meter: &mut LaneMeter,
        cost: &CostModel,
    ) -> Accumulate {
        debug_assert_ne!(key, EMPTY_KEY);
        let p1 = self.keys.len();
        if p1 == 0 {
            return Accumulate::Failed;
        }
        let mut seq = ProbeSeq::new(strategy, key, p1, self.p2);
        let retries = probe_budget(p1);
        hooks::probe_start(self.tid(), p1, (retries + p1 as u32) as u64);
        let mut probes = 0u32;
        let mut last = 0usize;
        while probes < retries {
            let s = seq.slot();
            last = s;
            probes += 1;
            hooks::probe_slot(self.tid(), s);
            meter.probe();
            meter.alu(cost, 2); // slot computation + compare
            charge_table_access(meter, cost, &addr, addr.keys + s, Width::W32, false);
            let k = self.keys[s];
            if k == key || k == EMPTY_KEY {
                if k == EMPTY_KEY {
                    self.keys[s] = key;
                    self.values[s] = weight;
                    charge_table_access(meter, cost, &addr, addr.keys + s, Width::W32, true);
                } else {
                    self.values[s] = self.values[s].add(weight);
                    charge_table_access(meter, cost, &addr, addr.values + s, V::WIDTH, false);
                }
                charge_table_access(meter, cost, &addr, addr.values + s, V::WIDTH, true);
                meter.probe_done(probes as u64);
                hooks::claim(self.tid(), key, s);
                hooks::probe_end(self.tid());
                return Accumulate::Done {
                    slot: s,
                    probes,
                    fallback_scans: 0,
                };
            }
            seq.advance();
        }
        for off in 1..=p1 {
            let s = (last + off) % p1;
            hooks::probe_slot(self.tid(), s);
            meter.probe();
            charge_table_access(meter, cost, &addr, addr.keys + s, Width::W32, false);
            let k = self.keys[s];
            if k == key || k == EMPTY_KEY {
                if k == EMPTY_KEY {
                    self.keys[s] = key;
                    self.values[s] = weight;
                    charge_table_access(meter, cost, &addr, addr.keys + s, Width::W32, true);
                } else {
                    self.values[s] = self.values[s].add(weight);
                    charge_table_access(meter, cost, &addr, addr.values + s, V::WIDTH, false);
                }
                charge_table_access(meter, cost, &addr, addr.values + s, V::WIDTH, true);
                meter.probe_done(probes as u64 + off as u64);
                hooks::claim(self.tid(), key, s);
                hooks::probe_end(self.tid());
                return Accumulate::Done {
                    slot: s,
                    probes,
                    fallback_scans: off as u32,
                };
            }
        }
        hooks::probe_end(self.tid());
        Accumulate::Failed
    }

    /// Like [`Self::accumulate_metered`] but charges the *shared-path*
    /// costs of Algorithm 2 (an `atomicCAS` per claim and an `atomicAdd`
    /// per accumulation). Used by the simulated block-per-vertex kernel:
    /// the simulator executes lanes serially, so plain storage gives the
    /// same result as atomics while the meter records what hardware would
    /// pay.
    pub fn accumulate_metered_shared(
        &mut self,
        strategy: ProbeStrategy,
        key: u32,
        weight: V,
        addr: TableAddr,
        meter: &mut LaneMeter,
        cost: &CostModel,
    ) -> Accumulate {
        meter.probe_scope(true);
        let r = self.accumulate_metered_shared_inner(strategy, key, weight, addr, meter, cost);
        meter.probe_scope(false);
        r
    }

    fn accumulate_metered_shared_inner(
        &mut self,
        strategy: ProbeStrategy,
        key: u32,
        weight: V,
        addr: TableAddr,
        meter: &mut LaneMeter,
        cost: &CostModel,
    ) -> Accumulate {
        debug_assert_ne!(key, EMPTY_KEY);
        let p1 = self.keys.len();
        if p1 == 0 {
            return Accumulate::Failed;
        }
        let mut seq = ProbeSeq::new(strategy, key, p1, self.p2);
        let retries = probe_budget(p1);
        hooks::probe_start(self.tid(), p1, (retries + p1 as u32) as u64);
        let mut probes = 0u32;
        let mut last = 0usize;
        while probes < retries {
            let s = seq.slot();
            last = s;
            probes += 1;
            hooks::probe_slot(self.tid(), s);
            meter.probe();
            meter.alu(cost, 2);
            meter.global_read(cost, addr.keys + s, Width::W32);
            let k = self.keys[s];
            if k == key || k == EMPTY_KEY {
                if k == EMPTY_KEY {
                    self.keys[s] = key;
                    self.values[s] = weight;
                } else {
                    self.values[s] = self.values[s].add(weight);
                }
                meter.atomic(cost, addr.keys + s, Width::W32); // atomicCAS
                meter.atomic(cost, addr.values + s, V::WIDTH); // atomicAdd
                meter.probe_done(probes as u64);
                hooks::claim(self.tid(), key, s);
                hooks::probe_end(self.tid());
                return Accumulate::Done {
                    slot: s,
                    probes,
                    fallback_scans: 0,
                };
            }
            seq.advance();
        }
        for off in 1..=p1 {
            let s = (last + off) % p1;
            hooks::probe_slot(self.tid(), s);
            meter.probe();
            meter.global_read(cost, addr.keys + s, Width::W32);
            let k = self.keys[s];
            if k == key || k == EMPTY_KEY {
                if k == EMPTY_KEY {
                    self.keys[s] = key;
                    self.values[s] = weight;
                } else {
                    self.values[s] = self.values[s].add(weight);
                }
                meter.atomic(cost, addr.keys + s, Width::W32);
                meter.atomic(cost, addr.values + s, V::WIDTH);
                meter.probe_done(probes as u64 + off as u64);
                hooks::claim(self.tid(), key, s);
                hooks::probe_end(self.tid());
                return Accumulate::Done {
                    slot: s,
                    probes,
                    fallback_scans: off as u32,
                };
            }
        }
        hooks::probe_end(self.tid());
        Accumulate::Failed
    }

    /// Most-weighted key (paper's `hashtableMaxKey`): scans slots in
    /// order, strictly-greater comparison, so the *first* (lowest-slot)
    /// maximal entry wins — the paper's strict-LPA tie-break.
    pub fn max_key(&self) -> Option<(u32, V)> {
        max_scan(self.keys.iter().copied(), self.values.iter().copied())
    }

    /// Current occupied (key, value) pairs in slot order, for testing.
    pub fn entries(&self) -> Vec<(u32, V)> {
        self.keys
            .iter()
            .zip(self.values.iter())
            .filter(|(&k, _)| k != EMPTY_KEY)
            .map(|(&k, &v)| (k, v))
            .collect()
    }
}

/// Shared (block-cooperative) table view over atomic cells.
pub struct TableShared<'a, V: HashValue> {
    keys: &'a [AtomicU32],
    values: &'a [V::Atomic],
    p2: usize,
}

impl<'a, V: HashValue> TableShared<'a, V> {
    /// Wrap atomic key/value slices of equal length `p₁`.
    pub fn new(keys: &'a [AtomicU32], values: &'a [V::Atomic], p2: usize) -> Self {
        assert_eq!(keys.len(), values.len(), "key/value slice length mismatch");
        TableShared { keys, values, p2 }
    }

    /// Usable capacity `p₁`.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Shadow-memory identity of this table (see [`TableMut`]).
    #[inline]
    fn tid(&self) -> usize {
        self.keys.as_ptr() as usize
    }

    /// Clear one slot (used by the block kernel's strided parallel clear).
    pub fn clear_slot(&self, s: usize) {
        hooks::table_clear_slot(self.tid(), s);
        self.keys[s].store(EMPTY_KEY, Ordering::Relaxed);
        V::atomic_store(&self.values[s], V::zero());
    }

    /// Clear all slots (sequential convenience for tests).
    pub fn clear(&self) {
        for s in 0..self.keys.len() {
            self.clear_slot(s);
        }
    }

    /// Accumulate `weight` onto `key` (Algorithm 2, shared path):
    /// `atomicCAS` claims empty slots, `atomicAdd` accumulates.
    pub fn accumulate(&self, strategy: ProbeStrategy, key: u32, weight: V) -> Accumulate {
        debug_assert_ne!(key, EMPTY_KEY);
        let p1 = self.keys.len();
        if p1 == 0 {
            return Accumulate::Failed;
        }
        let mut seq = ProbeSeq::new(strategy, key, p1, self.p2);
        let retries = probe_budget(p1);
        hooks::probe_start(self.tid(), p1, (retries + p1 as u32) as u64);
        let mut probes = 0u32;
        let mut last = 0usize;
        while probes < retries {
            let s = seq.slot();
            last = s;
            probes += 1;
            hooks::probe_slot(self.tid(), s);
            if self.try_slot(s, key, weight) {
                hooks::claim(self.tid(), key, s);
                hooks::probe_end(self.tid());
                return Accumulate::Done {
                    slot: s,
                    probes,
                    fallback_scans: 0,
                };
            }
            seq.advance();
        }
        for off in 1..=p1 {
            let s = (last + off) % p1;
            hooks::probe_slot(self.tid(), s);
            if self.try_slot(s, key, weight) {
                hooks::claim(self.tid(), key, s);
                hooks::probe_end(self.tid());
                return Accumulate::Done {
                    slot: s,
                    probes,
                    fallback_scans: off as u32,
                };
            }
        }
        hooks::probe_end(self.tid());
        Accumulate::Failed
    }

    /// Metered variant of [`Self::accumulate`].
    pub fn accumulate_metered(
        &self,
        strategy: ProbeStrategy,
        key: u32,
        weight: V,
        addr: TableAddr,
        meter: &mut LaneMeter,
        cost: &CostModel,
    ) -> Accumulate {
        meter.probe_scope(true);
        let r = self.accumulate_metered_inner(strategy, key, weight, addr, meter, cost);
        meter.probe_scope(false);
        r
    }

    fn accumulate_metered_inner(
        &self,
        strategy: ProbeStrategy,
        key: u32,
        weight: V,
        addr: TableAddr,
        meter: &mut LaneMeter,
        cost: &CostModel,
    ) -> Accumulate {
        debug_assert_ne!(key, EMPTY_KEY);
        let p1 = self.keys.len();
        if p1 == 0 {
            return Accumulate::Failed;
        }
        let mut seq = ProbeSeq::new(strategy, key, p1, self.p2);
        let retries = probe_budget(p1);
        hooks::probe_start(self.tid(), p1, (retries + p1 as u32) as u64);
        let mut probes = 0u32;
        let mut last = 0usize;
        while probes < retries {
            let s = seq.slot();
            last = s;
            probes += 1;
            hooks::probe_slot(self.tid(), s);
            meter.probe();
            meter.alu(cost, 2);
            meter.global_read(cost, addr.keys + s, Width::W32);
            let k = self.keys[s].load(Ordering::Relaxed);
            if k == key || k == EMPTY_KEY {
                meter.atomic(cost, addr.keys + s, Width::W32); // atomicCAS
                if self.try_slot(s, key, weight) {
                    meter.atomic(cost, addr.values + s, V::WIDTH); // atomicAdd
                    meter.probe_done(probes as u64);
                    hooks::claim(self.tid(), key, s);
                    hooks::probe_end(self.tid());
                    return Accumulate::Done {
                        slot: s,
                        probes,
                        fallback_scans: 0,
                    };
                }
            }
            seq.advance();
        }
        for off in 1..=p1 {
            let s = (last + off) % p1;
            hooks::probe_slot(self.tid(), s);
            meter.probe();
            meter.global_read(cost, addr.keys + s, Width::W32);
            let k = self.keys[s].load(Ordering::Relaxed);
            if (k == key || k == EMPTY_KEY) && self.try_slot(s, key, weight) {
                meter.atomic(cost, addr.keys + s, Width::W32);
                meter.atomic(cost, addr.values + s, V::WIDTH);
                meter.probe_done(probes as u64 + off as u64);
                hooks::claim(self.tid(), key, s);
                hooks::probe_end(self.tid());
                return Accumulate::Done {
                    slot: s,
                    probes,
                    fallback_scans: off as u32,
                };
            }
        }
        hooks::probe_end(self.tid());
        Accumulate::Failed
    }

    #[inline]
    fn try_slot(&self, s: usize, key: u32, weight: V) -> bool {
        // Peek first (cheap), then CAS — Algorithm 2's structure.
        let k = self.keys[s].load(Ordering::Relaxed);
        if k != key && k != EMPTY_KEY {
            return false;
        }
        let old = self.keys[s]
            .compare_exchange(EMPTY_KEY, key, Ordering::Relaxed, Ordering::Relaxed)
            .unwrap_or_else(|actual| actual);
        if old == EMPTY_KEY || old == key {
            V::atomic_add(&self.values[s], weight);
            true
        } else {
            false
        }
    }

    /// Most-weighted key with first-max tie-break (sequential scan; the
    /// block kernel charges the parallel-reduction cost separately via
    /// [`nulpa_simt::BlockCtx::charge_reduction`]).
    pub fn max_key(&self) -> Option<(u32, V)> {
        max_scan(
            self.keys.iter().map(|k| k.load(Ordering::Relaxed)),
            self.values.iter().map(|v| V::atomic_load(v)),
        )
    }
}

/// Probe budget before the linear fallback: `MAX_RETRIES`, but never more
/// than `2·p₁`. On tiny tables the quadratic-double recurrence can cycle
/// over a strict subset of slots (e.g. step pattern 1,2,1,2 mod 3 never
/// reaches the third slot), and burning all 64 retries there would
/// dominate the runtime of low-degree graphs — road networks and k-mer
/// graphs, half the paper's dataset.
///
/// Public because it *is* the declared probe bound of every table
/// operation: the static verifier (`nulpa-check`) checks each kernel's
/// declared `ProbeBound` against this budget, and the dynamic checker
/// (`nulpa-sancheck`) receives `probe_budget(p1) + p1` as the hard cap a
/// probe loop may not exceed (strategy steps plus the linear fallback).
#[inline]
pub fn probe_budget(p1: usize) -> u32 {
    MAX_RETRIES.min(2 * p1 as u32)
}

/// Shared first-max scan: strictly-greater keeps the earliest maximal slot.
fn max_scan<V: HashValue>(
    keys: impl Iterator<Item = u32>,
    values: impl Iterator<Item = V>,
) -> Option<(u32, V)> {
    let mut best: Option<(u32, V)> = None;
    for (k, v) in keys.zip(values) {
        if k == EMPTY_KEY {
            continue;
        }
        match best {
            None => best = Some((k, v)),
            Some((_, bv)) => {
                if v > bv {
                    best = Some((k, v));
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{capacity_for_degree, secondary_prime};
    use std::collections::BTreeMap;

    fn fresh(cap: usize) -> (Vec<u32>, Vec<f32>) {
        (vec![EMPTY_KEY; cap], vec![0.0; cap])
    }

    fn table<'a>(k: &'a mut [u32], v: &'a mut [f32]) -> TableMut<'a, f32> {
        let p2 = secondary_prime(k.len());
        TableMut::new(k, v, p2)
    }

    #[test]
    fn insert_and_lookup() {
        let (mut k, mut v) = fresh(7);
        let mut t = table(&mut k, &mut v);
        assert!(t
            .accumulate(ProbeStrategy::QuadraticDouble, 3, 2.0)
            .is_done());
        assert!(t
            .accumulate(ProbeStrategy::QuadraticDouble, 3, 1.5)
            .is_done());
        assert_eq!(t.max_key(), Some((3, 3.5)));
    }

    #[test]
    fn differential_against_btreemap_all_strategies() {
        // random-ish key streams, compare totals against a reference map
        for strategy in ProbeStrategy::all() {
            let keys = [5u32, 9, 5, 14, 23, 9, 9, 3, 14, 5, 100, 3];
            let cap = capacity_for_degree(keys.len());
            let (mut kk, mut vv) = fresh(cap);
            let mut t = table(&mut kk, &mut vv);
            let mut reference: BTreeMap<u32, f32> = BTreeMap::new();
            for (i, &k) in keys.iter().enumerate() {
                let w = (i as f32 + 1.0) * 0.5;
                assert!(t.accumulate(strategy, k, w).is_done(), "{strategy:?}");
                *reference.entry(k).or_insert(0.0) += w;
            }
            let mut got: BTreeMap<u32, f32> = t.entries().into_iter().collect();
            assert_eq!(got.len(), reference.len(), "{strategy:?}");
            for (k, v) in reference {
                let g = got.remove(&k).unwrap();
                assert!((g - v).abs() < 1e-6, "{strategy:?} key {k}: {g} vs {v}");
            }
        }
    }

    #[test]
    fn fills_to_capacity_without_failure() {
        // worst case: all keys distinct, exactly capacity of them
        for strategy in ProbeStrategy::all() {
            let cap = 15;
            let (mut kk, mut vv) = fresh(cap);
            let mut t = table(&mut kk, &mut vv);
            for i in 0..cap as u32 {
                // adversarial keys all congruent mod p1
                let key = i * cap as u32 + 1;
                assert!(
                    t.accumulate(strategy, key, 1.0).is_done(),
                    "{strategy:?} failed at {i}"
                );
            }
            assert_eq!(t.entries().len(), cap);
        }
    }

    #[test]
    fn fails_only_when_full_and_key_absent() {
        let (mut kk, mut vv) = fresh(3);
        let mut t = table(&mut kk, &mut vv);
        for key in [1u32, 2, 3] {
            assert!(t.accumulate(ProbeStrategy::Linear, key, 1.0).is_done());
        }
        // table full; existing key still works
        assert!(t.accumulate(ProbeStrategy::Linear, 2, 1.0).is_done());
        // new key cannot fit
        assert_eq!(
            t.accumulate(ProbeStrategy::Linear, 9, 1.0),
            Accumulate::Failed
        );
    }

    #[test]
    fn clear_resets() {
        let (mut kk, mut vv) = fresh(7);
        let mut t = table(&mut kk, &mut vv);
        t.accumulate(ProbeStrategy::Linear, 1, 1.0);
        t.clear();
        assert_eq!(t.max_key(), None);
        assert!(t.entries().is_empty());
    }

    #[test]
    fn max_key_first_max_tiebreak() {
        let (mut kk, mut vv) = fresh(7);
        let mut t = table(&mut kk, &mut vv);
        // keys 0 and 1 land in slots 0 and 1 with linear probing
        t.accumulate(ProbeStrategy::Linear, 0, 2.0);
        t.accumulate(ProbeStrategy::Linear, 1, 2.0);
        // equal weights: slot 0's key wins
        assert_eq!(t.max_key(), Some((0, 2.0)));
    }

    #[test]
    fn empty_table_has_no_max() {
        let (mut kk, mut vv) = fresh(7);
        let t = table(&mut kk, &mut vv);
        assert_eq!(t.max_key(), None);
    }

    #[test]
    fn zero_capacity_fails_cleanly() {
        let (mut kk, mut vv) = fresh(0);
        let mut t = TableMut::<f32>::new(&mut kk, &mut vv, 1);
        assert_eq!(
            t.accumulate(ProbeStrategy::Linear, 1, 1.0),
            Accumulate::Failed
        );
        assert_eq!(t.max_key(), None);
    }

    #[test]
    fn shared_matches_unshared() {
        let cap = capacity_for_degree(10);
        let p2 = secondary_prime(cap);
        let keys: Vec<AtomicU32> = (0..cap).map(|_| AtomicU32::new(EMPTY_KEY)).collect();
        let values: Vec<nulpa_simt::AtomicF32> = (0..cap).map(|_| Default::default()).collect();
        let shared = TableShared::<f32>::new(&keys, &values, p2);

        let (mut kk, mut vv) = fresh(cap);
        let mut unshared = TableMut::<f32>::new(&mut kk, &mut vv, p2);

        for (i, key) in [7u32, 3, 7, 7, 12, 3, 40].into_iter().enumerate() {
            let w = i as f32 + 1.0;
            assert!(shared
                .accumulate(ProbeStrategy::QuadraticDouble, key, w)
                .is_done());
            assert!(unshared
                .accumulate(ProbeStrategy::QuadraticDouble, key, w)
                .is_done());
        }
        assert_eq!(shared.max_key(), unshared.max_key());
    }

    #[test]
    fn shared_concurrent_accumulation_is_exact() {
        use std::sync::Arc;
        let cap = capacity_for_degree(64);
        let p2 = secondary_prime(cap);
        let keys: Arc<Vec<AtomicU32>> =
            Arc::new((0..cap).map(|_| AtomicU32::new(EMPTY_KEY)).collect());
        let values: Arc<Vec<nulpa_simt::AtomicF32>> =
            Arc::new((0..cap).map(|_| Default::default()).collect());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let keys = Arc::clone(&keys);
                let values = Arc::clone(&values);
                std::thread::spawn(move || {
                    let t = TableShared::<f32>::new(&keys, &values, p2);
                    for i in 0..256u32 {
                        let key = i % 16;
                        assert!(t
                            .accumulate(ProbeStrategy::QuadraticDouble, key, 1.0)
                            .is_done());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let t = TableShared::<f32>::new(&keys, &values, p2);
        // every key 0..16 accumulated exactly 4 * 16 = 64 (integer adds: exact)
        let (_, v) = t.max_key().unwrap();
        assert_eq!(v, 64.0);
    }

    #[test]
    fn shared_clear_slot() {
        let cap = 7;
        let p2 = secondary_prime(cap);
        let keys: Vec<AtomicU32> = (0..cap).map(|_| AtomicU32::new(EMPTY_KEY)).collect();
        let values: Vec<nulpa_simt::AtomicF32> = (0..cap).map(|_| Default::default()).collect();
        let t = TableShared::<f32>::new(&keys, &values, p2);
        t.accumulate(ProbeStrategy::Linear, 2, 5.0);
        t.clear();
        assert_eq!(t.max_key(), None);
    }

    #[test]
    fn metered_accumulate_counts_probes() {
        let cap = 7;
        let (mut kk, mut vv) = fresh(cap);
        let p2 = secondary_prime(cap);
        let mut t = TableMut::<f32>::new(&mut kk, &mut vv, p2);
        let cost = CostModel::default_gpu();
        let mut m = LaneMeter::new();
        let addr = TableAddr::from_start(0, 1000);
        // two keys that collide on slot 0 (both ≡ 0 mod 7)
        t.accumulate_metered(ProbeStrategy::Linear, 7, 1.0, addr, &mut m, &cost);
        t.accumulate_metered(ProbeStrategy::Linear, 14, 1.0, addr, &mut m, &cost);
        assert_eq!(m.probes, 3); // 1 for first insert, 2 for the collided one
        assert!(m.cycles > 0);
        assert!(m.global_reads >= 3);
        // probe_done recorded one sequence per accumulate: lengths 1 and 2
        assert_eq!(m.probe_hist.count, 2);
        assert_eq!(m.probe_hist.sum, 3);
        assert_eq!(m.probe_hist.max, 2);
    }

    #[test]
    fn metered_and_unmetered_agree_on_state() {
        let cap = capacity_for_degree(8);
        let p2 = secondary_prime(cap);
        let cost = CostModel::default_gpu();
        let addr = TableAddr::from_start(0, 64);
        let keys = [3u32, 19, 3, 8, 19, 19];

        let (mut k1, mut v1) = fresh(cap);
        let mut a = TableMut::<f32>::new(&mut k1, &mut v1, p2);
        let (mut k2, mut v2) = fresh(cap);
        let mut b = TableMut::<f32>::new(&mut k2, &mut v2, p2);
        let mut m = LaneMeter::new();
        for &key in &keys {
            a.accumulate(ProbeStrategy::QuadraticDouble, key, 1.0);
            b.accumulate_metered(
                ProbeStrategy::QuadraticDouble,
                key,
                1.0,
                addr,
                &mut m,
                &cost,
            );
        }
        assert_eq!(a.entries(), b.entries());
    }

    #[test]
    fn f64_values_work() {
        let (mut kk, _) = fresh(7);
        let mut vv = vec![0.0f64; 7];
        let mut t = TableMut::<f64>::new(&mut kk, &mut vv, 15);
        t.accumulate(ProbeStrategy::Double, 4, 0.5);
        t.accumulate(ProbeStrategy::Double, 4, 0.25);
        assert_eq!(t.max_key(), Some((4, 0.75)));
    }
}
