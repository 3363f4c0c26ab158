//! Disjoint-region shared buffer.
//!
//! The GPU backend keeps all per-vertex hashtables in two global buffers,
//! exactly like the paper's layout (Fig. 2). During one LPA iteration
//! every vertex is processed by exactly one lane (or one cooperative
//! block), possibly on different host threads, and the per-vertex regions
//! `[2·O_i, 2·O_i + 2·D_i)` are pairwise disjoint by CSR construction —
//! so handing each lane a `&mut` view of its own region is sound even
//! though the buffer itself is shared. Rust cannot see that
//! through an ordinary `Vec`, hence this small `UnsafeCell` wrapper with
//! the invariant stated at the single `unsafe` boundary.

use std::cell::UnsafeCell;

/// A heap buffer that can hand out non-overlapping mutable regions to
/// concurrent tasks.
pub struct DisjointBuffer<T> {
    data: UnsafeCell<Vec<T>>,
}

// SAFETY: concurrent access is only through `slice_mut`, whose contract
// requires callers to take pairwise-disjoint regions; disjoint &mut [T]
// views are Send/Sync-safe exactly like split_at_mut's halves.
unsafe impl<T: Send> Sync for DisjointBuffer<T> {}

impl<T> DisjointBuffer<T> {
    /// Wrap a buffer.
    pub fn new(data: Vec<T>) -> Self {
        DisjointBuffer {
            data: UnsafeCell::new(data),
        }
    }

    /// Buffer length.
    pub fn len(&self) -> usize {
        // SAFETY: reading the Vec's length field; no element access races
        // because callers only mutate disjoint element ranges, never the
        // Vec header.
        unsafe { (*self.data.get()).len() }
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Mutable view of `start..start + len`.
    ///
    /// # Safety
    /// For the lifetime of the returned slice no other live slice from
    /// this buffer may overlap `start..start + len`. The ν-LPA caller
    /// guarantees this by deriving regions from CSR offsets, which tile
    /// the buffer without overlap, and by processing each vertex at most
    /// once per iteration.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &mut [T] {
        let v = &mut *self.data.get();
        assert!(
            start.checked_add(len).is_some_and(|end| end <= v.len()),
            "region {start}..{} out of bounds (len {})",
            start + len,
            v.len()
        );
        std::slice::from_raw_parts_mut(v.as_mut_ptr().add(start), len)
    }

    /// Recover the underlying buffer.
    pub fn into_inner(self) -> Vec<T> {
        self.data.into_inner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_parallel_writes() {
        // Four threads write interleaved regions concurrently: thread t
        // owns every region [10i, 10i+10) with i ≡ t (mod 4).
        let buf = DisjointBuffer::new(vec![0u32; 1000]);
        std::thread::scope(|s| {
            for t in 0..4usize {
                let buf = &buf;
                s.spawn(move || {
                    for i in (t..100).step_by(4) {
                        // SAFETY: regions [10i, 10i+10) are pairwise
                        // disjoint and each i belongs to one thread
                        let s = unsafe { buf.slice_mut(i * 10, 10) };
                        for (k, cell) in s.iter_mut().enumerate() {
                            *cell = (i * 10 + k) as u32;
                        }
                    }
                });
            }
        });
        let v = buf.into_inner();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn len_and_empty() {
        let buf = DisjointBuffer::new(vec![1u8; 5]);
        assert_eq!(buf.len(), 5);
        assert!(!buf.is_empty());
        assert!(DisjointBuffer::<u8>::new(vec![]).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_rejected() {
        let buf = DisjointBuffer::new(vec![0u8; 4]);
        unsafe {
            buf.slice_mut(2, 3);
        }
    }

    #[test]
    fn zero_length_slice_ok() {
        let buf = DisjointBuffer::new(vec![0u8; 4]);
        let s = unsafe { buf.slice_mut(4, 0) };
        assert!(s.is_empty());
    }
}
