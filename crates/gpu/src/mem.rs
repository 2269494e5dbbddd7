//! Device (and host) memory pools.
//!
//! A [`MemPool`] is a flat address space with a bump allocator. Pools back
//! both GPU device memory and host staging memory; pointers are plain
//! `(addr, len)` pairs valid within one pool.
//!
//! Pools run in one of two [`DataMode`]s:
//!
//! * `Full` — the pool holds real bytes and every copy moves them, so tests
//!   can verify end-to-end pack/unpack correctness;
//! * `ModelOnly` — no backing storage; copies are no-ops. Benchmark sweeps
//!   use this to avoid allocating gigabytes per iteration (timing is
//!   independent of the data).

use serde::{Deserialize, Serialize};

/// Whether a pool carries real bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataMode {
    /// Real backing storage; copies move bytes.
    Full,
    /// Timing-only; no storage, copies are no-ops.
    ModelOnly,
}

/// A pointer into a [`MemPool`]: offset and length in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DevPtr {
    pub addr: u64,
    pub len: u64,
}

impl DevPtr {
    /// A sub-range of this allocation.
    pub fn slice(self, offset: u64, len: u64) -> DevPtr {
        assert!(
            offset + len <= self.len,
            "slice {offset}+{len} out of bounds of {self:?}"
        );
        DevPtr {
            addr: self.addr + offset,
            len,
        }
    }

    /// End address (one past the last byte).
    #[inline]
    pub fn end(self) -> u64 {
        self.addr + self.len
    }
}

/// A fixed-stride run list: `runs` runs of `len` bytes starting at
/// absolute address `first`, each `stride` bytes after the previous.
///
/// Kept only because the repository benchmark (`perfbench/`) builds it for
/// [`MemPool::gather_into_uniform`] and [`MemPool::scatter_from_slice_uniform`];
/// the cluster's copies run the datatype crate's executor instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedRuns {
    pub first: u64,
    pub stride: u64,
    pub len: u64,
    pub runs: u64,
}

impl FixedRuns {
    /// Total payload bytes the plan moves.
    #[inline]
    pub fn total_bytes(&self) -> u64 {
        self.len * self.runs
    }

    /// The `(address, len)` segments the plan stands for.
    fn segments(self) -> impl Iterator<Item = (u64, u64)> {
        (0..self.runs).map(move |i| (self.first + i * self.stride, self.len))
    }
}

/// A flat memory pool with a bump allocator.
#[derive(Debug, Clone)]
pub struct MemPool {
    mode: DataMode,
    capacity: u64,
    cursor: u64,
    bytes: Vec<u8>,
    /// High-water mark of allocations, for sizing diagnostics.
    peak: u64,
}

impl MemPool {
    /// Create a pool of `capacity` bytes.
    pub fn new(capacity: u64, mode: DataMode) -> Self {
        let bytes = match mode {
            DataMode::Full => vec![0u8; capacity as usize],
            DataMode::ModelOnly => Vec::new(),
        };
        MemPool {
            mode,
            capacity,
            cursor: 0,
            bytes,
            peak: 0,
        }
    }

    #[inline]
    pub fn mode(&self) -> DataMode {
        self.mode
    }

    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    #[inline]
    pub fn allocated(&self) -> u64 {
        self.cursor
    }

    /// High-water mark of allocations.
    #[inline]
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Allocate `len` bytes with `align` alignment (power of two).
    ///
    /// Panics if the pool is exhausted: pool sizing is a configuration
    /// decision made by the workload driver, so exhaustion is a bug there.
    pub fn alloc(&mut self, len: u64, align: u64) -> DevPtr {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let addr = (self.cursor + align - 1) & !(align - 1);
        assert!(
            addr + len <= self.capacity,
            "pool exhausted: need {len}B at {addr}, capacity {}B",
            self.capacity
        );
        self.cursor = addr + len;
        self.peak = self.peak.max(self.cursor);
        DevPtr { addr, len }
    }

    /// Release everything allocated so far (bulk free between iterations).
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// Where `ptr`'s bytes sit in the backing store, or `None` in
    /// `ModelOnly` mode. Every accessor goes through here: it is the one
    /// place the pool decides that a copy moves nothing.
    #[inline]
    fn range(&self, ptr: DevPtr) -> Option<std::ops::Range<usize>> {
        (self.mode == DataMode::Full).then(|| ptr.addr as usize..ptr.end() as usize)
    }

    /// Read the bytes behind `ptr`. Empty in `ModelOnly` mode.
    pub fn read(&self, ptr: DevPtr) -> &[u8] {
        self.range(ptr).map_or(&[], |r| &self.bytes[r])
    }

    /// Mutable view of the bytes behind `ptr`. Empty in `ModelOnly` mode.
    pub fn read_mut(&mut self, ptr: DevPtr) -> &mut [u8] {
        match self.range(ptr) {
            Some(r) => &mut self.bytes[r],
            None => &mut [],
        }
    }

    /// Borrow two allocations of this pool at once: `src` to read, `dst`
    /// to write (a copy within one pool). Both are empty in `ModelOnly`
    /// mode.
    ///
    /// Panics if the two regions overlap.
    pub fn split_mut(&mut self, src: DevPtr, dst: DevPtr) -> (&[u8], &mut [u8]) {
        assert!(
            src.end() <= dst.addr || dst.end() <= src.addr,
            "split_mut: {src:?} overlaps {dst:?}"
        );
        let (Some(s), Some(d)) = (self.range(src), self.range(dst)) else {
            return (&[], &mut []);
        };
        if s.start < d.start {
            let (lo, hi) = self.bytes.split_at_mut(d.start);
            (&lo[s], &mut hi[..d.len()])
        } else {
            let (lo, hi) = self.bytes.split_at_mut(s.start);
            (&hi[..s.len()], &mut lo[d])
        }
    }

    /// Overwrite the bytes behind `ptr`. A no-op in `ModelOnly` mode.
    pub fn write(&mut self, ptr: DevPtr, data: &[u8]) {
        if let Some(r) = self.range(ptr) {
            assert_eq!(
                data.len() as u64,
                ptr.len,
                "write length mismatch: {} vs {:?}",
                data.len(),
                ptr
            );
            self.bytes[r].copy_from_slice(data);
        }
    }

    // The four segment-list copies below are kept only because the
    // benchmark (`perfbench/`) calls them. They are plain per-segment
    // loops; the cluster moves its bytes with the datatype crate's
    // executor over `read`/`read_mut`/`split_mut` slices.

    /// Gather `(addr, len)` segments by *appending* them to `out`. Returns
    /// the payload byte count, which in `ModelOnly` mode is tallied
    /// without touching `out`.
    pub fn gather_into(
        &self,
        segments: impl IntoIterator<Item = (u64, u64)>,
        out: &mut Vec<u8>,
    ) -> u64 {
        let mut total = 0;
        for (addr, len) in segments {
            out.extend_from_slice(self.read(DevPtr { addr, len }));
            total += len;
        }
        total
    }

    /// [`Self::gather_into`] over the runs of `plan`.
    pub fn gather_into_uniform(&self, plan: FixedRuns, out: &mut Vec<u8>) -> u64 {
        self.gather_into(plan.segments(), out)
    }

    /// Scatter the contiguous `data` out to `(addr, len)` segments of this
    /// pool. A no-op in `ModelOnly` mode.
    pub fn scatter_from_slice_iter(
        &mut self,
        data: &[u8],
        segments: impl IntoIterator<Item = (u64, u64)>,
    ) {
        let mut inp = 0;
        for (addr, len) in segments {
            if let Some(r) = self.range(DevPtr { addr, len }) {
                self.bytes[r].copy_from_slice(&data[inp..inp + len as usize]);
            }
            inp += len as usize;
        }
    }

    /// [`Self::scatter_from_slice_iter`] over the runs of `plan`.
    pub fn scatter_from_slice_uniform(&mut self, data: &[u8], plan: FixedRuns) {
        self.scatter_from_slice_iter(data, plan.segments());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment_and_bounds() {
        let mut p = MemPool::new(1024, DataMode::Full);
        let a = p.alloc(10, 1);
        assert_eq!(a.addr, 0);
        let b = p.alloc(16, 64);
        assert_eq!(b.addr, 64);
        assert_eq!(p.allocated(), 80);
        assert_eq!(p.peak(), 80);
    }

    #[test]
    #[should_panic(expected = "pool exhausted")]
    fn exhaustion_panics() {
        let mut p = MemPool::new(16, DataMode::Full);
        p.alloc(32, 1);
    }

    #[test]
    fn reset_frees_but_keeps_peak() {
        let mut p = MemPool::new(128, DataMode::Full);
        p.alloc(100, 1);
        p.reset();
        assert_eq!(p.allocated(), 0);
        assert_eq!(p.peak(), 100);
        let a = p.alloc(50, 1);
        assert_eq!(a.addr, 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut p = MemPool::new(64, DataMode::Full);
        let ptr = p.alloc(4, 1);
        p.write(ptr, &[1, 2, 3, 4]);
        assert_eq!(p.read(ptr), &[1, 2, 3, 4]);
    }

    #[test]
    fn model_only_pool_is_storage_free() {
        let mut p = MemPool::new(1 << 40, DataMode::ModelOnly); // 1 TiB, no alloc
        let a = p.alloc(1 << 30, 256);
        let b = p.alloc(1 << 30, 256);
        assert!(p.read(a).is_empty());
        assert!(p.read_mut(a).is_empty());
        p.write(a, &[]); // no-op, no panic
        let (s, d) = p.split_mut(a, b);
        assert!(s.is_empty() && d.is_empty());
        let mut out = Vec::new();
        assert_eq!(p.gather_into([(0, 100), (500, 50)], &mut out), 150);
        assert!(out.is_empty());
        p.scatter_from_slice_iter(&[1, 2, 3], [(0, 3)]);
    }

    #[test]
    fn split_mut_borrows_either_order() {
        let mut p = MemPool::new(64, DataMode::Full);
        let lo = p.alloc(4, 1);
        let hi = p.alloc(4, 1);
        p.write(lo, &[1, 2, 3, 4]);
        let (s, d) = p.split_mut(lo, hi);
        d.copy_from_slice(s);
        assert_eq!(p.read(hi), &[1, 2, 3, 4]);
        p.write(hi, &[5, 6, 7, 8]);
        let (s, d) = p.split_mut(hi, lo);
        d.copy_from_slice(s);
        assert_eq!(p.read(lo), &[5, 6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn split_mut_rejects_overlap() {
        let mut p = MemPool::new(64, DataMode::Full);
        let a = p.alloc(16, 1);
        p.split_mut(a.slice(0, 8), a.slice(4, 8));
    }

    #[test]
    fn gather_into_appends_and_scatter_inverts_it() {
        let mut p = MemPool::new(64, DataMode::Full);
        let src = p.alloc(16, 1);
        p.write(src, &(0..16).collect::<Vec<u8>>());
        let segs = [(src.addr + 2, 2u64), (src.addr + 8, 2), (src.addr + 12, 4)];
        let mut out = vec![0xAA];
        assert_eq!(p.gather_into(segs, &mut out), 8);
        assert_eq!(out, vec![0xAA, 2, 3, 8, 9, 12, 13, 14, 15]);

        let dst = p.alloc(16, 1);
        let moved = segs.map(|(addr, len)| (addr - src.addr + dst.addr, len));
        p.scatter_from_slice_iter(&out[1..], moved);
        assert_eq!(
            p.read(dst),
            &[0, 0, 2, 3, 0, 0, 0, 0, 8, 9, 0, 0, 12, 13, 14, 15]
        );
    }

    #[test]
    fn devptr_slice() {
        let p = DevPtr { addr: 100, len: 50 };
        let s = p.slice(10, 20);
        assert_eq!(s, DevPtr { addr: 110, len: 20 });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn devptr_slice_bounds_checked() {
        DevPtr { addr: 0, len: 10 }.slice(5, 10);
    }
}
