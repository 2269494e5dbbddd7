//! Reusable staging-buffer pool.
//!
//! The data plane used to allocate a fresh `Vec<u8>` for every staged
//! payload (eager copies, rendezvous staging reads, IPC gathers). A
//! [`BufferPool`] keeps a freelist of retired buffers so those
//! per-message allocations become acquire/release pairs: `take` hands out
//! an **empty** vector whose capacity already covers the request whenever
//! the freelist can satisfy it, and `put` returns the vector for the next
//! message.
//!
//! Each cluster, and each shard of a sharded run, owns its pool and uses
//! it only from the thread running that event loop, so the pool is a plain
//! owned freelist. A buffer that crosses shards inside a wire message
//! returns to the receiving shard's pool. The freelist needs no cap: `take`
//! makes a new buffer only when the freelist is empty, so a pool that gets
//! back the buffers it hands out never holds more than were live at once.

/// Acquire/release counters for a [`BufferPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls satisfied from the freelist with sufficient capacity.
    pub hits: u64,
    /// `take` calls that had to allocate (empty freelist or too small).
    pub misses: u64,
    /// Buffers returned via `put`.
    pub released: u64,
}

/// An owned freelist of byte buffers. See the module docs.
#[derive(Debug, Default)]
pub struct BufferPool {
    /// Retired buffers, sorted by ascending capacity.
    free: Vec<Vec<u8>>,
    stats: PoolStats,
}

impl BufferPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire an empty buffer with capacity at least `len`. Prefers the
    /// largest retired buffer (the freelist is kept sorted by capacity) so
    /// steady-state traffic stops allocating once the high-water mark is
    /// reached.
    pub fn take(&mut self, len: usize) -> Vec<u8> {
        match self.free.pop() {
            Some(mut buf) => {
                if buf.capacity() >= len {
                    self.stats.hits += 1;
                } else {
                    self.stats.misses += 1;
                    buf.reserve(len);
                }
                buf
            }
            None => {
                self.stats.misses += 1;
                Vec::with_capacity(len)
            }
        }
    }

    /// Return a buffer to the freelist. The contents are cleared; capacity
    /// is kept for reuse.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return; // nothing worth keeping (ModelOnly payloads)
        }
        buf.clear();
        self.stats.released += 1;
        // Keep the freelist sorted so `pop` hands out the largest buffer.
        let pos = self
            .free
            .partition_point(|b| b.capacity() <= buf.capacity());
        self.free.insert(pos, buf);
    }

    /// Counters since construction.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Buffers currently resting in the freelist.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_take_reuses_capacity() {
        let mut pool = BufferPool::new();
        let mut a = pool.take(100);
        assert!(a.is_empty() && a.capacity() >= 100);
        a.extend_from_slice(&[1, 2, 3]);
        let cap = a.capacity();
        pool.put(a);
        let b = pool.take(50);
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "same backing allocation");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.released), (1, 1, 1));
    }

    #[test]
    fn undersized_buffer_counts_as_miss_but_grows() {
        let mut pool = BufferPool::new();
        pool.put(Vec::with_capacity(8));
        let b = pool.take(1024);
        assert!(b.capacity() >= 1024);
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn largest_buffer_is_handed_out_first() {
        let mut pool = BufferPool::new();
        pool.put(Vec::with_capacity(16));
        pool.put(Vec::with_capacity(256));
        pool.put(Vec::with_capacity(64));
        assert_eq!(pool.take(200).capacity(), 256);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let mut pool = BufferPool::new();
        pool.put(Vec::new());
        assert_eq!(pool.free_len(), 0);
        assert_eq!(pool.stats().released, 0);
    }
}
