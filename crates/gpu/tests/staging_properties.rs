//! Property-based tests of the staging [`BufferPool`]: invariants that
//! must hold for any interleaving of `take`/`put` — the access pattern
//! the adaptive flush path produces, where batch sizes (and therefore
//! staging-buffer lifetimes) shift as the threshold retunes online.

use fusedpack_gpu::BufferPool;
use proptest::prelude::*;

/// One step of the driver: acquire a buffer of `len` bytes, or release
/// the live buffer at `victim % live.len()` (a no-op when none are live).
#[derive(Debug, Clone)]
enum Op {
    Take { len: usize },
    Put { victim: usize },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1usize..16 * 1024).prop_map(|len| Op::Take { len }),
        any::<usize>().prop_map(|victim| Op::Put { victim }),
    ]
}

/// Fill `buf` with a pattern unique to acquisition number `tag`.
fn fill(buf: &mut Vec<u8>, len: usize, tag: u64) {
    buf.extend((0..len).map(|i| (tag as usize).wrapping_mul(31).wrapping_add(i) as u8));
}

/// Check that a live buffer still carries exactly the pattern written at
/// acquisition time — any aliasing with a recycled buffer would tear it.
fn check(buf: &[u8], len: usize, tag: u64) -> Result<(), TestCaseError> {
    prop_assert_eq!(buf.len(), len);
    for (i, &b) in buf.iter().enumerate() {
        let want = (tag as usize).wrapping_mul(31).wrapping_add(i) as u8;
        prop_assert_eq!(b, want, "live buffer (tag {}) corrupted at byte {}", tag, i);
    }
    Ok(())
}

proptest! {
    /// Across arbitrary take/put sequences: buffers come back empty with
    /// sufficient capacity, a recycled buffer never aliases a payload that
    /// is still live (every live buffer keeps its unique fill pattern for
    /// its whole lifetime), and the counters reconcile — hits + misses is
    /// exactly the number of `take` calls, released is exactly the number
    /// of returned buffers, and the pool never holds more buffers (resting
    /// plus live) than were live at once, since it allocates only when its
    /// freelist is empty.
    #[test]
    fn recycling_never_aliases_live_payloads(ops in prop::collection::vec(arb_op(), 1..128)) {
        let mut pool = BufferPool::new();
        let mut live: Vec<(u64, usize, Vec<u8>)> = Vec::new(); // (tag, len, buf)
        let mut takes = 0u64;
        let mut puts = 0u64;
        let mut next_tag = 0u64;
        let mut peak_live = 0usize;

        for op in ops {
            match op {
                Op::Take { len } => {
                    let mut buf = pool.take(len);
                    takes += 1;
                    prop_assert!(buf.is_empty(), "take() must hand out an empty buffer");
                    prop_assert!(buf.capacity() >= len, "capacity {} < requested {}", buf.capacity(), len);
                    let tag = next_tag;
                    next_tag += 1;
                    fill(&mut buf, len, tag);
                    live.push((tag, len, buf));
                    peak_live = peak_live.max(live.len());
                }
                Op::Put { victim } => {
                    if live.is_empty() {
                        continue;
                    }
                    let (tag, len, buf) = live.swap_remove(victim % live.len());
                    // The payload must be intact right up to release.
                    check(&buf, len, tag)?;
                    pool.put(buf);
                    puts += 1;
                }
            }
            // After every step, every live payload is still intact and the
            // pool holds no buffer beyond the peak live count.
            for (tag, len, buf) in &live {
                check(buf, *len, *tag)?;
            }
            prop_assert!(
                pool.free_len() + live.len() <= peak_live,
                "{} resting + {} live buffers exceed the peak of {} live",
                pool.free_len(),
                live.len(),
                peak_live
            );

            let s = pool.stats();
            prop_assert_eq!(s.hits + s.misses, takes, "hits+misses must equal total take() calls");
            prop_assert_eq!(s.released, puts, "released must equal total put() calls");
            prop_assert!(s.hits <= puts, "a hit requires a previously returned buffer");
        }
    }

    /// Steady-state reuse: once every buffer has been returned, a second
    /// pass of identical requests in descending-size order is all hits and
    /// allocates nothing new (the freelist hands out largest-first).
    #[test]
    fn warm_pool_serves_repeat_traffic_from_the_freelist(
        mut lens in prop::collection::vec(1usize..64 * 1024, 1..64),
    ) {
        let mut pool = BufferPool::new();
        let taken: Vec<Vec<u8>> = lens.iter().map(|&len| pool.take(len)).collect();
        for buf in taken {
            pool.put(buf);
        }
        prop_assert_eq!(pool.stats().misses, lens.len() as u64);

        lens.sort_unstable_by(|a, b| b.cmp(a));
        for &len in &lens {
            let buf = pool.take(len);
            prop_assert!(buf.capacity() >= len);
            pool.put(buf);
        }
        let s = pool.stats();
        prop_assert_eq!(s.misses, lens.len() as u64, "warm pass must not allocate");
        prop_assert_eq!(s.hits, lens.len() as u64);
    }
}
