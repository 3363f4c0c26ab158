//! Atomic floating-point cells.
//!
//! CUDA provides native `atomicAdd` on `float`/`double`; Rust's standard
//! library does not, so these wrappers implement the canonical
//! compare-exchange loop over the bit representation (the same technique
//! pre-Kepler CUDA used). The hashtable's value arrays (`H_v` in the
//! paper) are built from these cells.
//!
//! Orderings are `Relaxed` throughout: ν-LPA only needs atomicity of the
//! read-modify-write, never inter-thread ordering — labels are published
//! by the wave flush, not by these cells (see `Rust Atomics and Locks`,
//! ch. 2–3, for why relaxed RMWs still form a single modification order
//! per cell, which is all weight accumulation requires).

use nulpa_sancheck::hooks;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Atomic `f32` cell.
#[derive(Debug, Default)]
pub struct AtomicF32(AtomicU32);

impl AtomicF32 {
    /// New cell holding `v`.
    pub fn new(v: f32) -> Self {
        AtomicF32(AtomicU32::new(v.to_bits()))
    }

    /// Atomic load.
    #[inline]
    pub fn load(&self) -> f32 {
        f32::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Atomic store.
    #[inline]
    pub fn store(&self, v: f32) {
        hooks::atomic_access(std::ptr::from_ref(self) as usize);
        self.0.store(v.to_bits(), Ordering::Relaxed)
    }

    /// Atomic `fetch_add` via CAS loop; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, v: f32) -> f32 {
        hooks::atomic_access(std::ptr::from_ref(self) as usize);
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let new = (f32::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return f32::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Atomic `f64` cell (for the Fig. 5 datatype ablation).
#[derive(Debug, Default)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    /// New cell holding `v`.
    pub fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    /// Atomic load.
    #[inline]
    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Atomic store.
    #[inline]
    pub fn store(&self, v: f64) {
        hooks::atomic_access(std::ptr::from_ref(self) as usize);
        self.0.store(v.to_bits(), Ordering::Relaxed)
    }

    /// Atomic `fetch_add` via CAS loop; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, v: f64) -> f64 {
        hooks::atomic_access(std::ptr::from_ref(self) as usize);
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return f64::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn f32_load_store() {
        let a = AtomicF32::new(1.5);
        assert_eq!(a.load(), 1.5);
        a.store(-2.25);
        assert_eq!(a.load(), -2.25);
    }

    #[test]
    fn f32_fetch_add_returns_previous() {
        let a = AtomicF32::new(1.0);
        assert_eq!(a.fetch_add(2.0), 1.0);
        assert_eq!(a.load(), 3.0);
    }

    #[test]
    fn f64_fetch_add() {
        let a = AtomicF64::new(0.5);
        a.fetch_add(0.25);
        a.fetch_add(0.25);
        assert_eq!(a.load(), 1.0);
    }

    #[test]
    fn concurrent_f32_adds_sum_exactly_with_integers() {
        // integer-valued f32 adds are exact below 2^24, so the concurrent
        // sum must be exact regardless of interleaving
        let a = Arc::new(AtomicF32::new(0.0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        a.fetch_add(1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(a.load(), 4000.0);
    }

    #[test]
    fn defaults_are_zero() {
        assert_eq!(AtomicF32::default().load(), 0.0);
        assert_eq!(AtomicF64::default().load(), 0.0);
    }
}
