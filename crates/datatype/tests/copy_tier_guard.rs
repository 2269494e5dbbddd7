//! Release-mode regression guard for the `Generic` tier's run-width walk.
//!
//! Sparse layouts whose segments all share one width take the
//! width-specialised run copies instead of the prefix-sum walk. Absolute
//! nanoseconds vary by machine, so the guard is *relative*: on the same
//! host, in the same process, `pack_into` + `unpack` must beat the
//! reference oracle `pack_into_generic` + `unpack_generic` by a clear margin
//! on the `specfem3d_cm(512)` halo type that `hotpaths/generic` prices. A
//! regression that sends equal-width layouts back to per-run `memcpy`
//! calls lands near 1x and trips this.
//!
//! Debug builds skip the guard — unoptimised timing proves nothing.

#![cfg(not(debug_assertions))]

mod common;

use common::{median, specfem3d_cm_512};
use fusedpack_datatype::pack::{pack_into, pack_into_generic, unpack, unpack_generic};
use fusedpack_datatype::{CopyPlan, Layout};
use std::time::Instant;

/// One timed batch of `per_batch` pack + unpack round trips, in ns per
/// round trip.
fn batch_ns(mut round: impl FnMut(), per_batch: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..per_batch {
        round();
    }
    start.elapsed().as_nanos() as f64 / per_batch as f64
}

#[test]
fn run_width_walk_beats_the_prefix_sum_oracle_on_specfem3d_cm() {
    let layout = Layout::of(&specfem3d_cm_512());
    assert_eq!(layout.plan_for(1), CopyPlan::Generic);
    assert_eq!(layout.run_width(), 4);
    assert_eq!(layout.num_blocks(), 1536);

    let src: Vec<u8> = (0..layout.footprint(1))
        .map(|i| (i * 7 % 251) as u8)
        .collect();
    let mut packed = vec![0u8; layout.total_bytes(1) as usize];
    let mut oracle_packed = packed.clone();
    let mut out = vec![0u8; src.len()];
    let mut oracle_out = out.clone();

    // Both paths must agree on the bytes before any timing claim means
    // anything.
    pack_into(&src, &layout, 1, &mut packed);
    pack_into_generic(&src, &layout, 1, &mut oracle_packed);
    assert_eq!(packed, oracle_packed);
    unpack(&packed, &layout, 1, &mut out);
    unpack_generic(&oracle_packed, &layout, 1, &mut oracle_out);
    assert_eq!(out, oracle_out);

    let mut fast = || {
        pack_into(std::hint::black_box(&src), &layout, 1, &mut packed);
        unpack(std::hint::black_box(&packed), &layout, 1, &mut out);
    };
    let mut oracle = || {
        pack_into_generic(std::hint::black_box(&src), &layout, 1, &mut oracle_packed);
        unpack_generic(
            std::hint::black_box(&oracle_packed),
            &layout,
            1,
            &mut oracle_out,
        );
    };
    for _ in 0..50 {
        fast();
        oracle();
    }
    // Interleave the two sides' batches so machine-speed drift (shared
    // hosts throttle and un-throttle over seconds) hits both equally; the
    // medians then compare like with like.
    let mut fast_samples = Vec::new();
    let mut oracle_samples = Vec::new();
    for _ in 0..15 {
        fast_samples.push(batch_ns(&mut fast, 100));
        oracle_samples.push(batch_ns(&mut oracle, 100));
    }
    let fast = median(fast_samples);
    let oracle = median(oracle_samples);

    // The measured gap is several-fold; 2x leaves headroom for noisy CI
    // hosts while still catching a walk that fell back to per-run memcpy.
    assert!(
        fast * 2.0 <= oracle,
        "run-width walk ({fast:.0} ns/round trip) must beat the prefix-sum \
         oracle ({oracle:.0} ns/round trip) by >= 2x on specfem3d_cm(512)"
    );
}
