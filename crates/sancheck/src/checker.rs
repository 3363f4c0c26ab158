//! Shadow-memory checker core.
//!
//! One [`Checker`] instance shadows every instrumented allocation of a
//! run. Cells are keyed by **host byte address** of the element (base
//! pointer + index × element size), which makes distinct stores, and
//! distinct regions of one global buffer, naturally distinct without any
//! registration step.
//!
//! Wave boundaries are modelled with an **epoch counter** instead of
//! clearing: the simulator's `wave_end` hook bumps the epoch, and shadow
//! entries whose epoch is stale are simply ignored. This keeps the hot
//! hooks O(1) regardless of how much was written in earlier waves.

use crate::report::{Hazard, HazardKind, PriorAccess, SancheckReport, KIND_COUNT};
use std::collections::{HashMap, HashSet};

/// Where an access came from: the simulator's current coordinates.
/// `warp`/`lane` are wave-local for thread-per-item launches and
/// block-local for block-per-item launches; `block` is the item index
/// within the wave (0 for thread launches). Host-side accesses (outside
/// any kernel) report the default all-zero context.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecCtx {
    /// Wave index within the current kernel launch.
    pub wave: u64,
    /// Block index within the wave (block-per-item launches).
    pub block: u32,
    /// Warp index within the wave (thread launches) or block.
    pub warp: u32,
    /// Lane index within the warp.
    pub lane: u32,
}

/// Checker tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct CheckerConfig {
    /// Maximum detailed [`Hazard`] records kept. Occurrences beyond the
    /// cap (or duplicating an already-recorded (kind, address) pair) are
    /// still counted in [`SancheckReport::counts`] but not stored.
    pub max_hazards: usize,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig { max_hazards: 64 }
    }
}

/// Per-cell shadow state. Epochs are compared against the checker's
/// current epoch; stale entries mean "no access this wave".
#[derive(Clone, Copy, Default)]
struct ShadowCell {
    stage_epoch: u64,
    stage_by: ExecCtx,
    wt_epoch: u64,
    wt_by: ExecCtx,
    atomic_epoch: u64,
    atomic_by: ExecCtx,
}

/// One in-flight hashtable accumulation (probe sequence).
struct ProbeSession {
    capacity: usize,
    limit: u64,
    steps: u64,
    flagged: bool,
}

/// The shadow-memory hazard detector. Normally driven through the global
/// [`crate::hooks`]; constructible directly for unit tests.
pub struct Checker {
    config: CheckerConfig,
    kernel: String,
    ctx: ExecCtx,
    epoch: u64,
    shadow: HashMap<usize, ShadowCell>,
    uninit: HashSet<usize>,
    /// table id → key → first claimed slot (reset by `table_clear`).
    claims: HashMap<usize, HashMap<u32, usize>>,
    /// table id → in-flight probe session (tables are owned by one thread
    /// at a time, so sessions from concurrent host threads never clash).
    probes: HashMap<usize, ProbeSession>,
    hazards: Vec<Hazard>,
    counts: [u64; KIND_COUNT],
    seen: HashSet<(u8, usize)>,
    accesses: u64,
    suppressed: u64,
}

impl Checker {
    /// Fresh checker.
    pub fn new(config: CheckerConfig) -> Self {
        Checker {
            config,
            kernel: "host".to_string(),
            ctx: ExecCtx::default(),
            epoch: 1,
            shadow: HashMap::new(),
            uninit: HashSet::new(),
            claims: HashMap::new(),
            probes: HashMap::new(),
            hazards: Vec::new(),
            counts: [0; KIND_COUNT],
            seen: HashSet::new(),
            accesses: 0,
            suppressed: 0,
        }
    }

    /// Tear down into the final report.
    pub fn into_report(self) -> SancheckReport {
        SancheckReport {
            hazards: self.hazards,
            counts: self.counts,
            accesses: self.accesses,
            cells_shadowed: self.shadow.len(),
            suppressed: self.suppressed,
        }
    }

    fn record(
        &mut self,
        kind: HazardKind,
        addr: usize,
        ctx: ExecCtx,
        prior: Option<PriorAccess>,
        detail: String,
    ) {
        self.counts[kind as usize] += 1;
        if !self.seen.insert((kind as u8, addr)) || self.hazards.len() >= self.config.max_hazards {
            self.suppressed += 1;
            return;
        }
        self.hazards.push(Hazard {
            kind,
            kernel: self.kernel.clone(),
            addr,
            ctx,
            prior,
            detail,
        });
    }

    // --- execution-context hooks -------------------------------------

    /// A kernel launch named `name` begins.
    pub fn kernel_begin(&mut self, name: &str) {
        self.kernel = name.to_string();
        self.ctx = ExecCtx::default();
    }

    /// The current kernel launch ends; subsequent accesses are host-side.
    pub fn kernel_end(&mut self) {
        self.kernel = "host".to_string();
        self.ctx = ExecCtx::default();
    }

    /// Wave `w` of the current kernel begins.
    pub fn wave_begin(&mut self, w: u64) {
        self.ctx.wave = w;
        self.ctx.block = 0;
        self.ctx.warp = 0;
        self.ctx.lane = 0;
    }

    /// The current wave's deferred writes have been flushed: advance the
    /// epoch so earlier shadow entries go stale.
    pub fn wave_end(&mut self) {
        self.epoch += 1;
    }

    /// The current lane coordinates within the wave (or block).
    pub fn lane_ctx(&mut self, warp: u32, lane: u32) {
        self.ctx.warp = warp;
        self.ctx.lane = lane;
    }

    /// The current block index within the wave.
    pub fn block_ctx(&mut self, block: u32) {
        self.ctx.block = block;
    }

    // --- deferred-store hooks ----------------------------------------

    /// Plain read of the committed value at `addr`.
    pub fn read(&mut self, addr: usize) {
        self.accesses += 1;
        if self.uninit.contains(&addr) {
            let ctx = self.ctx;
            self.record(
                HazardKind::UninitRead,
                addr,
                ctx,
                None,
                format!("read of uninitialised cell at {addr:#x}"),
            );
        }
    }

    /// Staged (wave-buffered) write to `addr`.
    pub fn stage(&mut self, addr: usize) {
        self.accesses += 1;
        let ctx = self.ctx;
        let epoch = self.epoch;
        let cell = *self.shadow.entry(addr).or_default();
        if cell.stage_epoch == epoch && cell.stage_by != ctx {
            self.record(
                HazardKind::WaveWriteRace,
                addr,
                ctx,
                Some(PriorAccess {
                    ctx: cell.stage_by,
                    kind: "staged write",
                }),
                format!("second lane staged a write to cell {addr:#x} in the same wave"),
            );
        }
        if cell.wt_epoch == epoch {
            self.record(
                HazardKind::WriteThroughRace,
                addr,
                ctx,
                Some(PriorAccess {
                    ctx: cell.wt_by,
                    kind: "write-through",
                }),
                format!("staged write races a write-through to cell {addr:#x} in the same wave"),
            );
        }
        if cell.atomic_epoch == epoch {
            self.record(
                HazardKind::MixedAtomicPlain,
                addr,
                ctx,
                Some(PriorAccess {
                    ctx: cell.atomic_by,
                    kind: "atomic",
                }),
                format!("staged write mixes with an atomic to cell {addr:#x} in the same wave"),
            );
        }
        let cell = self.shadow.entry(addr).or_default();
        cell.stage_epoch = epoch;
        cell.stage_by = ctx;
    }

    /// Immediately-visible write to `addr` (separate-kernel semantics).
    pub fn write_through(&mut self, addr: usize) {
        self.accesses += 1;
        self.uninit.remove(&addr);
        let ctx = self.ctx;
        let epoch = self.epoch;
        let cell = *self.shadow.entry(addr).or_default();
        if cell.stage_epoch == epoch {
            self.record(
                HazardKind::WriteThroughRace,
                addr,
                ctx,
                Some(PriorAccess {
                    ctx: cell.stage_by,
                    kind: "staged write",
                }),
                format!("write-through races a staged write to cell {addr:#x} in the same wave"),
            );
        }
        let cell = self.shadow.entry(addr).or_default();
        cell.wt_epoch = epoch;
        cell.wt_by = ctx;
    }

    /// Atomic read-modify-write at `addr` (immediate, as on hardware).
    pub fn atomic(&mut self, addr: usize) {
        self.accesses += 1;
        self.uninit.remove(&addr);
        let ctx = self.ctx;
        let epoch = self.epoch;
        let cell = *self.shadow.entry(addr).or_default();
        if cell.stage_epoch == epoch {
            self.record(
                HazardKind::MixedAtomicPlain,
                addr,
                ctx,
                Some(PriorAccess {
                    ctx: cell.stage_by,
                    kind: "staged write",
                }),
                format!("atomic mixes with a staged write to cell {addr:#x} in the same wave"),
            );
        }
        if cell.wt_epoch == epoch && cell.wt_by != ctx {
            self.record(
                HazardKind::MixedAtomicPlain,
                addr,
                ctx,
                Some(PriorAccess {
                    ctx: cell.wt_by,
                    kind: "write-through",
                }),
                format!("atomic mixes with a write-through to cell {addr:#x} in the same wave"),
            );
        }
        let cell = self.shadow.entry(addr).or_default();
        cell.atomic_epoch = epoch;
        cell.atomic_by = ctx;
    }

    /// A staged write was committed to `addr` by the wave flush.
    pub fn flush_commit(&mut self, addr: usize) {
        self.uninit.remove(&addr);
    }

    /// Mark `len` elements of `stride` bytes starting at `base` as
    /// uninitialised (device-malloc without memset).
    pub fn mark_uninit(&mut self, base: usize, stride: usize, len: usize) {
        for i in 0..len {
            self.uninit.insert(base + i * stride);
        }
    }

    /// A store access with index `index` was out of bounds for a store of
    /// `len` cells.
    pub fn oob(&mut self, index: usize, len: usize) {
        let ctx = self.ctx;
        self.record(
            HazardKind::OutOfBounds,
            index,
            ctx,
            None,
            format!("cell index {index} out of bounds for store of {len} cells"),
        );
    }

    // --- block/barrier hooks -----------------------------------------

    /// A block-wide barrier executed with the given per-lane active mask.
    /// Any warp with a mix of active and inactive lanes diverges.
    pub fn barrier(&mut self, active: &[bool], warp_size: usize) {
        let ws = warp_size.max(1);
        for (w, chunk) in active.chunks(ws).enumerate() {
            let on = chunk.iter().filter(|&&a| a).count();
            if on == 0 || on == chunk.len() {
                continue;
            }
            let first_off = chunk.iter().position(|&a| !a).unwrap_or(0);
            let mut ctx = self.ctx;
            ctx.warp = w as u32;
            ctx.lane = first_off as u32;
            self.record(
                HazardKind::BarrierDivergence,
                w,
                ctx,
                None,
                format!(
                    "barrier reached with {on}/{} lanes of warp {w} active",
                    chunk.len()
                ),
            );
        }
    }

    // --- hashtable hooks ---------------------------------------------

    /// Table `table` was cleared: forget its key claims and any session.
    pub fn table_clear(&mut self, table: usize) {
        self.claims.remove(&table);
        self.probes.remove(&table);
    }

    /// One slot of `table` was cleared: claims resolving to it are void.
    pub fn table_clear_slot(&mut self, table: usize, slot: usize) {
        if let Some(map) = self.claims.get_mut(&table) {
            map.retain(|_, &mut s| s != slot);
        }
    }

    /// An accumulate call on `table` (capacity `capacity`) starts probing;
    /// its probe sequence must terminate within `limit` steps.
    pub fn probe_start(&mut self, table: usize, capacity: usize, limit: u64) {
        self.probes.insert(
            table,
            ProbeSession {
                capacity,
                limit,
                steps: 0,
                flagged: false,
            },
        );
    }

    /// The in-flight accumulate on `table` inspected `slot`.
    pub fn probe_slot(&mut self, table: usize, slot: usize) {
        self.accesses += 1;
        let ctx = self.ctx;
        let Some(s) = self.probes.get_mut(&table) else {
            return;
        };
        s.steps += 1;
        let capacity = s.capacity;
        let limit = s.limit;
        let steps = s.steps;
        if slot >= capacity {
            self.record(
                HazardKind::OutOfBounds,
                slot,
                ctx,
                None,
                format!("probe visited slot {slot} >= table capacity {capacity}"),
            );
            return;
        }
        if steps > limit {
            let s = self.probes.get_mut(&table).expect("session exists");
            if !s.flagged {
                s.flagged = true;
                self.record(
                    HazardKind::ProbeOverrun,
                    table,
                    ctx,
                    None,
                    format!("probe sequence exceeded its termination bound of {limit} steps"),
                );
            }
        }
    }

    /// The in-flight accumulate on `table` finished.
    pub fn probe_end(&mut self, table: usize) {
        self.probes.remove(&table);
    }

    /// `key` was claimed (first inserted) at `slot` of `table`. A second
    /// claim of the same key at a different slot, before the table is
    /// cleared, breaks the duplicate-key accumulation invariant.
    pub fn claim(&mut self, table: usize, key: u32, slot: usize) {
        let ctx = self.ctx;
        let map = self.claims.entry(table).or_default();
        match map.get(&key) {
            Some(&prev) if prev != slot => {
                self.record(
                    HazardKind::DuplicateKey,
                    slot,
                    ctx,
                    None,
                    format!("key {key} claimed at slot {prev} and again at slot {slot}"),
                );
            }
            Some(_) => {}
            None => {
                map.insert(key, slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> Checker {
        Checker::new(CheckerConfig::default())
    }

    #[test]
    fn distinct_lane_stages_race_same_lane_do_not() {
        let mut c = checker();
        c.kernel_begin("k");
        c.lane_ctx(0, 0);
        c.stage(100);
        c.stage(100); // same lane restaging: allowed (last-write-wins)
        c.lane_ctx(0, 1);
        c.stage(100); // different lane: race
        let r = c.into_report();
        assert_eq!(r.count_of(HazardKind::WaveWriteRace), 1);
        assert_eq!(r.hazards[0].ctx.lane, 1);
        assert_eq!(r.hazards[0].prior.unwrap().ctx.lane, 0);
    }

    #[test]
    fn epoch_advance_clears_staleness() {
        let mut c = checker();
        c.lane_ctx(0, 0);
        c.stage(100);
        c.wave_end();
        c.lane_ctx(0, 1);
        c.stage(100); // different wave: no race
        assert!(c.into_report().is_clean());
    }

    #[test]
    fn write_through_races_staged() {
        let mut c = checker();
        c.lane_ctx(0, 0);
        c.stage(8);
        c.lane_ctx(0, 3);
        c.write_through(8);
        let r = c.into_report();
        assert_eq!(r.count_of(HazardKind::WriteThroughRace), 1);
        assert_eq!(r.hazards[0].ctx.lane, 3);
    }

    #[test]
    fn uninit_read_until_any_write_commits() {
        let mut c = checker();
        c.mark_uninit(1000, 4, 3); // cells 1000, 1004, 1008
        c.read(1004);
        c.write_through(1004);
        c.read(1004); // now initialised
        c.flush_commit(1008);
        c.read(1008); // initialised by a flushed staged write
        c.read(992); // outside the marked range: fine
        let r = c.into_report();
        assert_eq!(r.count_of(HazardKind::UninitRead), 1);
        assert_eq!(r.hazards[0].addr, 1004);
    }

    #[test]
    fn mixed_atomic_and_staged() {
        let mut c = checker();
        c.lane_ctx(0, 0);
        c.stage(64);
        c.lane_ctx(0, 2);
        c.atomic(64);
        let r = c.into_report();
        assert_eq!(r.count_of(HazardKind::MixedAtomicPlain), 1);
        assert_eq!(r.hazards[0].prior.unwrap().kind, "staged write");
    }

    #[test]
    fn barrier_divergence_flags_mixed_warps_only() {
        let mut c = checker();
        // warp size 4: warp 0 fully active, warp 1 mixed, warp 2 fully off
        let active = [
            true, true, true, true, true, false, true, true, false, false, false, false,
        ];
        c.barrier(&active, 4);
        let r = c.into_report();
        assert_eq!(r.count_of(HazardKind::BarrierDivergence), 1);
        assert_eq!(r.hazards[0].ctx.warp, 1);
        assert_eq!(r.hazards[0].ctx.lane, 1); // first inactive lane of warp 1
    }

    #[test]
    fn probe_overrun_and_oob_slot() {
        let mut c = checker();
        c.probe_start(7, 5, 3);
        c.probe_slot(7, 0);
        c.probe_slot(7, 9); // out of bounds
        c.probe_slot(7, 1);
        c.probe_slot(7, 2); // step 4 > limit 3: overrun (flagged once)
        c.probe_slot(7, 3);
        c.probe_end(7);
        let r = c.into_report();
        assert_eq!(r.count_of(HazardKind::OutOfBounds), 1);
        assert_eq!(r.count_of(HazardKind::ProbeOverrun), 1);
    }

    #[test]
    fn duplicate_key_across_slots_reset_by_clear() {
        let mut c = checker();
        c.claim(1, 42, 0);
        c.claim(1, 42, 0); // same slot again: fine (re-accumulation)
        c.claim(1, 42, 3); // different slot: duplicate
        c.table_clear(1);
        c.claim(1, 42, 3); // fresh session: fine
        let r = c.into_report();
        assert_eq!(r.count_of(HazardKind::DuplicateKey), 1);
    }

    #[test]
    fn clear_slot_voids_only_matching_claims() {
        let mut c = checker();
        c.claim(1, 42, 0);
        c.claim(1, 7, 2);
        c.table_clear_slot(1, 0);
        c.claim(1, 42, 5); // previous claim was voided: no duplicate
        c.claim(1, 7, 4); // still claimed at slot 2: duplicate
        let r = c.into_report();
        assert_eq!(r.count_of(HazardKind::DuplicateKey), 1);
    }

    #[test]
    fn dedup_counts_but_suppresses_detail() {
        let mut c = checker();
        c.lane_ctx(0, 0);
        c.stage(5);
        for lane in 1..4 {
            c.lane_ctx(0, lane);
            c.stage(5);
        }
        let r = c.into_report();
        assert_eq!(r.count_of(HazardKind::WaveWriteRace), 3);
        assert_eq!(r.hazards.len(), 1); // deduped by (kind, addr)
        assert_eq!(r.suppressed, 2);
    }

    #[test]
    fn kernel_name_attributed() {
        let mut c = checker();
        c.kernel_begin("kernel:block");
        c.lane_ctx(1, 2);
        c.stage(5);
        c.lane_ctx(1, 3);
        c.stage(5);
        c.kernel_end();
        let r = c.into_report();
        assert_eq!(r.hazards[0].kernel, "kernel:block");
    }
}
