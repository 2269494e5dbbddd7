//! Release-mode regression guard for the cluster-wide compile memo.
//!
//! A cluster hands every rank's layout cache one [`CompileMemo`], so 512
//! ranks committing the same type compile it once and share its tables.
//! Absolute nanoseconds vary by machine, so the guard is *relative*: on the
//! same host, in the same process, 512 caches on one memo committing the
//! `specfem3d_cm(512)` halo type must beat 512 caches on private memos (512
//! compiles) by a wide margin. A regression that loses the sharing lands
//! near 1x and trips it; one that deep-copies the tables on every miss
//! fails the pointer check before any timing.
//!
//! Debug builds skip the guard — unoptimised timing proves nothing.

#![cfg(not(debug_assertions))]

mod common;

use common::{median, specfem3d_cm_512};
use fusedpack_datatype::cache::DEFAULT_CAPACITY;
use fusedpack_datatype::{CompileMemo, LayoutCache, TypeDesc};
use std::time::Instant;

const RANKS: usize = 512;

/// One cluster's worth of first commits of `desc`, each rank's cache built
/// by `cache`; returns the ns the batch took.
fn commit_batch_ns(desc: &TypeDesc, mut cache: impl FnMut() -> LayoutCache) -> f64 {
    let start = Instant::now();
    let caches: Vec<LayoutCache> = (0..RANKS)
        .map(|_| {
            let mut c = cache();
            c.commit(std::hint::black_box(desc));
            c
        })
        .collect();
    let ns = start.elapsed().as_nanos() as f64;
    assert!(caches.iter().all(|c| c.layout_stats().misses() == 1));
    ns
}

#[test]
fn shared_memo_compiles_once_for_512_ranks() {
    let desc = specfem3d_cm_512();
    let shared = || {
        let memo = CompileMemo::new();
        commit_batch_ns(&desc, || {
            LayoutCache::with_memo(DEFAULT_CAPACITY, memo.clone())
        })
    };
    let private = || commit_batch_ns(&desc, LayoutCache::new);

    // Both sides must hand out the same layout before any timing claim
    // means anything.
    let memo = CompileMemo::new();
    let (mut a, mut b) = (
        LayoutCache::with_memo(DEFAULT_CAPACITY, memo.clone()),
        LayoutCache::with_memo(DEFAULT_CAPACITY, memo),
    );
    let mut p = LayoutCache::new();
    let (ha, hb, hp) = (a.commit(&desc).0, b.commit(&desc).0, p.commit(&desc).0);
    let (la, lb, lp) = (a.acquire(ha), b.acquire(hb), p.acquire(hp));
    assert_eq!(*la, *lp);
    assert_eq!(la.segments().as_ptr(), lb.segments().as_ptr());
    assert_eq!(a.layout_stats(), p.layout_stats());

    shared();
    private();
    // Interleave the two sides' batches so machine-speed drift (shared
    // hosts throttle and un-throttle over seconds) hits both equally; the
    // medians then compare like with like.
    let mut shared_samples = Vec::new();
    let mut private_samples = Vec::new();
    for _ in 0..7 {
        shared_samples.push(shared());
        private_samples.push(private());
    }
    let shared = median(shared_samples);
    let private = median(private_samples);

    // The measured gap is ~25x (one compile against 512, less the two
    // descriptor hashes every commit pays); 10x leaves headroom for noisy
    // CI hosts while still catching a memo that stopped sharing.
    assert!(
        shared * 10.0 <= private,
        "512 commits on one memo ({:.2} ms) must beat 512 private compiles \
         ({:.2} ms) by >= 10x on specfem3d_cm(512)",
        shared / 1e6,
        private / 1e6
    );
}
