//! A fixed host-speed probe. It calls no workspace code, so no change to
//! the simulator can move it; only the host can. Every run times it just
//! before set-up and just after `Cluster::run`, and the end-to-end host
//! times are scaled by how slow the host was around the run against
//! [`PROBE_REF_S`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The median time of one probe pass on the reference host (2-core Intel
/// Xeon at 2.1 GHz, over 4 minutes of back-to-back runs). Scaled figures
/// read as if measured at that typical speed.
pub const PROBE_REF_S: f64 = 0.007;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The probe's working set: about 1 MiB, small enough that its pages
/// never raise a workload's peak resident memory.
struct Probe {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    map: HashMap<u64, u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Probe {
    fn new() -> Probe {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        Probe {
            heap: (0..4096u32)
                .map(|i| Reverse((xorshift(&mut x) % 1_000_000, i)))
                .collect(),
            map: (0..16_384u64).map(|k| (k * 0x9e37, k)).collect(),
            src: vec![7u8; 256 << 10],
            dst: vec![0u8; 256 << 10],
        }
    }

    /// One pass: a fixed amount of the kinds of work the simulator's host
    /// time is made of (a priority queue, hashed lookups and bulk copies).
    fn pass(&mut self) -> f64 {
        let start = Instant::now();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..60_000 {
            let Reverse((t, i)) = self.heap.pop().expect("the heap stays full");
            self.heap
                .push(Reverse((t + xorshift(&mut x) % 1_000_000, i)));
        }
        let mut acc = 0u64;
        for _ in 0..60_000 {
            let k = (xorshift(&mut x) % 16_384) * 0x9e37;
            acc = acc.wrapping_add(self.map[&k]);
        }
        for _ in 0..64 {
            self.dst.copy_from_slice(black_box(&self.src));
        }
        black_box((acc, self.dst[12345]));
        start.elapsed().as_secs_f64()
    }
}

/// Host seconds of one probe pass, timed after a warm-up pass has faulted
/// in the pages and filled the caches, so the figure never depends on the
/// allocator state a run leaves behind.
pub fn probe() -> f64 {
    let mut p = Probe::new();
    p.pass();
    p.pass()
}

/// The host's slowdown around a run against the reference: the mean of
/// the probe times before and after it over [`PROBE_REF_S`].
pub fn slowdown(before: f64, after: f64) -> f64 {
    (before + after) / 2.0 / PROBE_REF_S
}
