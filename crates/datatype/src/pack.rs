//! The copy executor: the only code in the workspace that walks a
//! [`CopyPlan`].
//!
//! [`pack_into`] gathers `count` elements of a layout from a byte image
//! into a packed buffer; [`unpack`] scatters a packed buffer back out.
//! Plans are relative to the first element's base address, so both take
//! slices whose index 0 is that base: every data-movement site in the
//! cluster (MPI_Pack/Unpack, staging copies, DirectIPC) hands in region
//! slices taken from its memory pools. Each tier runs exactly once here:
//!
//! * `Memcpy` — one copy;
//! * `FixedRuns` — runs of at most [`crate::compile::FIXED_RUN_WIDTH_MAX`]
//!   bytes at a constant stride, as fixed-width (const-generic) moves for
//!   the power-of-two widths;
//! * `BlockUniform` — wider runs at a constant stride, each moved as
//!   64-byte chunks plus one tail;
//! * `Generic` — the segment-table walk driven by the layout's
//!   packed-offset prefix sums.
//!
//! [`pack_into_generic`] and [`unpack_generic`] are the reference oracle
//! the tests and benches compare the tiers against.

use crate::compile::{CopyPlan, FIXED_RUN_WIDTH_MAX};
use crate::layout::{Layout, UniformPlan};

/// Pack `count` elements laid out per `layout` starting at `src\[0\]` into a
/// contiguous buffer. Returns the packed bytes.
pub fn pack(src: &[u8], layout: &Layout, count: u64) -> Vec<u8> {
    let mut dst = vec![0u8; layout.total_bytes(count) as usize];
    pack_into(src, layout, count, &mut dst);
    dst
}

/// Pack into a caller-provided buffer of exactly `layout.total_bytes(count)`
/// bytes, dispatching on the layout's precomputed [`CopyPlan`].
pub fn pack_into(src: &[u8], layout: &Layout, count: u64, dst: &mut [u8]) {
    assert_eq!(
        dst.len() as u64,
        layout.total_bytes(count),
        "destination size mismatch"
    );
    match layout.plan_for(count) {
        CopyPlan::Memcpy { .. } => {
            let n = dst.len();
            dst.copy_from_slice(&src[..n]);
        }
        CopyPlan::BlockUniform(plan) | CopyPlan::FixedRuns(plan) => match plan.len {
            2 => gather_runs(src, &plan, dst, copy_fixed::<2>),
            4 => gather_runs(src, &plan, dst, copy_fixed::<4>),
            8 => gather_runs(src, &plan, dst, copy_fixed::<8>),
            16 => gather_runs(src, &plan, dst, copy_fixed::<16>),
            32 => gather_runs(src, &plan, dst, copy_fixed::<32>),
            n if n > FIXED_RUN_WIDTH_MAX => gather_runs(src, &plan, dst, copy_chunked),
            _ => gather_runs(src, &plan, dst, copy_run),
        },
        CopyPlan::Generic => pack_into_generic(src, layout, count, dst),
    }
}

/// Unpack a contiguous buffer into `count` elements laid out per `layout`
/// starting at `dst\[0\]`. Bytes outside the layout's segments are untouched.
pub fn unpack(src: &[u8], layout: &Layout, count: u64, dst: &mut [u8]) {
    assert_eq!(
        src.len() as u64,
        layout.total_bytes(count),
        "source size mismatch"
    );
    match layout.plan_for(count) {
        CopyPlan::Memcpy { .. } => {
            let n = src.len();
            dst[..n].copy_from_slice(src);
        }
        CopyPlan::BlockUniform(plan) | CopyPlan::FixedRuns(plan) => match plan.len {
            2 => scatter_runs(src, &plan, dst, copy_fixed::<2>),
            4 => scatter_runs(src, &plan, dst, copy_fixed::<4>),
            8 => scatter_runs(src, &plan, dst, copy_fixed::<8>),
            16 => scatter_runs(src, &plan, dst, copy_fixed::<16>),
            32 => scatter_runs(src, &plan, dst, copy_fixed::<32>),
            n if n > FIXED_RUN_WIDTH_MAX => scatter_runs(src, &plan, dst, copy_chunked),
            _ => scatter_runs(src, &plan, dst, copy_run),
        },
        CopyPlan::Generic => unpack_generic(src, layout, count, dst),
    }
}

/// Gather `plan.runs` runs of `plan.len` bytes at a constant source stride
/// into the packed `dst`, moving each run with `copy`.
#[inline(always)]
fn gather_runs(src: &[u8], plan: &UniformPlan, dst: &mut [u8], copy: impl Fn(&[u8], &mut [u8])) {
    debug_assert_eq!(dst.len() as u64, plan.runs * plan.len);
    let (len, stride) = (plan.len as usize, plan.stride as usize);
    let mut lo = plan.first as usize;
    for run in dst.chunks_exact_mut(len) {
        copy(&src[lo..lo + len], run);
        lo += stride;
    }
}

/// Scatter counterpart of [`gather_runs`]: the packed `src` out to runs at
/// a constant destination stride.
#[inline(always)]
fn scatter_runs(src: &[u8], plan: &UniformPlan, dst: &mut [u8], copy: impl Fn(&[u8], &mut [u8])) {
    debug_assert_eq!(src.len() as u64, plan.runs * plan.len);
    let (len, stride) = (plan.len as usize, plan.stride as usize);
    let mut lo = plan.first as usize;
    for run in src.chunks_exact(len) {
        copy(run, &mut dst[lo..lo + len]);
        lo += stride;
    }
}

/// One run of compile-time width `N`: a register-width move instead of a
/// variable-length `memcpy` call.
#[inline(always)]
fn copy_fixed<const N: usize>(src: &[u8], dst: &mut [u8]) {
    let run: &[u8; N] = src.try_into().expect("run width");
    dst.copy_from_slice(run);
}

/// One wide run as fixed 64-byte blocks (full-width vector moves) plus a
/// variable tail.
#[inline(always)]
fn copy_chunked(src: &[u8], dst: &mut [u8]) {
    const CHUNK: usize = 64;
    let mut i = 0;
    while i + CHUNK <= src.len() {
        let block: &[u8; CHUNK] = src[i..i + CHUNK].try_into().expect("chunk width");
        dst[i..i + CHUNK].copy_from_slice(block);
        i += CHUNK;
    }
    dst[i..].copy_from_slice(&src[i..]);
}

/// One run of any other width.
#[inline(always)]
fn copy_run(src: &[u8], dst: &mut [u8]) {
    dst.copy_from_slice(src);
}

/// The generic segment-table walk: the `Generic` tier, and the reference
/// oracle every other tier is tested against.
pub fn pack_into_generic(src: &[u8], layout: &Layout, count: u64, dst: &mut [u8]) {
    assert_eq!(
        dst.len() as u64,
        layout.total_bytes(count),
        "destination size mismatch"
    );
    let segs = layout.segments();
    let offs = layout.packed_offsets();
    for i in 0..count {
        let base = (i * layout.extent()) as usize;
        let out = (i * layout.size()) as usize;
        for (seg, &packed) in segs.iter().zip(offs) {
            let lo = base + seg.offset as usize;
            let hi = lo + seg.len as usize;
            let po = out + packed as usize;
            dst[po..po + seg.len as usize].copy_from_slice(&src[lo..hi]);
        }
    }
}

/// Scatter counterpart of [`pack_into_generic`]: the `Generic` tier of
/// [`unpack`] and its reference oracle.
pub fn unpack_generic(src: &[u8], layout: &Layout, count: u64, dst: &mut [u8]) {
    assert_eq!(
        src.len() as u64,
        layout.total_bytes(count),
        "source size mismatch"
    );
    let segs = layout.segments();
    let offs = layout.packed_offsets();
    for i in 0..count {
        let base = (i * layout.extent()) as usize;
        let inp = (i * layout.size()) as usize;
        for (seg, &packed) in segs.iter().zip(offs) {
            let lo = base + seg.offset as usize;
            let hi = lo + seg.len as usize;
            let po = inp + packed as usize;
            dst[lo..hi].copy_from_slice(&src[po..po + seg.len as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TypeBuilder;
    use crate::layout::Layout;
    use proptest::prelude::*;

    #[test]
    fn pack_vector_selects_blocks_in_order() {
        // 2 blocks of 2 bytes, stride 4 bytes.
        let t = TypeBuilder::vector(2, 2, 4, TypeBuilder::byte());
        let l = Layout::of(&t);
        let src: Vec<u8> = (0..8).collect();
        assert_eq!(pack(&src, &l, 1), vec![0, 1, 4, 5]);
    }

    #[test]
    fn pack_multiple_elements_tiles_by_extent() {
        let t = TypeBuilder::vector(2, 1, 2, TypeBuilder::byte()); // segs (0,1),(2,1), extent 3
        let l = Layout::of(&t);
        let src: Vec<u8> = (10..19).collect();
        // elements at 0 and 3: bytes 10,12 then 13,15
        assert_eq!(pack(&src, &l, 2), vec![10, 12, 13, 15]);
    }

    #[test]
    fn unpack_restores_scattered_positions() {
        let t = TypeBuilder::indexed(&[(1, 2), (5, 1)], TypeBuilder::byte());
        let l = Layout::of(&t);
        let packed = vec![7, 8, 9];
        let mut dst = vec![0u8; l.footprint(1) as usize];
        unpack(&packed, &l, 1, &mut dst);
        assert_eq!(dst, vec![0, 7, 8, 0, 0, 9]);
    }

    #[test]
    fn unpack_leaves_gaps_untouched() {
        let t = TypeBuilder::vector(2, 1, 3, TypeBuilder::byte());
        let l = Layout::of(&t);
        let mut dst = vec![0xEE; 6];
        unpack(&[1, 2], &l, 1, &mut dst);
        assert_eq!(dst, vec![1, 0xEE, 0xEE, 2, 0xEE, 0xEE]);
    }

    #[test]
    #[should_panic(expected = "destination size mismatch")]
    fn pack_into_checks_sizes() {
        let t = TypeBuilder::contiguous(4, TypeBuilder::byte());
        let l = Layout::of(&t);
        let mut small = vec![0u8; 2];
        pack_into(&[0u8; 4], &l, 1, &mut small);
    }

    #[test]
    fn contiguous_pack_is_single_memcpy_of_prefix() {
        let t = TypeBuilder::contiguous(4, TypeBuilder::byte());
        let l = Layout::of(&t);
        assert!(l.is_contiguous_for(3));
        let src: Vec<u8> = (0..16).collect();
        // 3 elements: exactly the first 12 bytes, in order.
        assert_eq!(pack(&src, &l, 3), (0..12).collect::<Vec<u8>>());
    }

    #[test]
    fn contiguous_unpack_copies_prefix_and_leaves_tail() {
        let t = TypeBuilder::contiguous(4, TypeBuilder::byte());
        let l = Layout::of(&t);
        let mut dst = vec![0xEE; 10];
        unpack(&[1, 2, 3, 4, 5, 6, 7, 8], &l, 2, &mut dst);
        assert_eq!(dst, vec![1, 2, 3, 4, 5, 6, 7, 8, 0xEE, 0xEE]);
    }

    #[test]
    fn contiguous_single_element_with_padded_extent_uses_fast_path() {
        // Contiguous element, extent > size: fast path legal only for count 1.
        let t = TypeBuilder::subarray(&[3, 3], &[1, 3], &[0, 0], TypeBuilder::int());
        let l = Layout::of(&t);
        assert!(l.is_contiguous_for(1));
        assert!(!l.is_contiguous_for(2));
        let src: Vec<u8> = (0..72).collect();
        assert_eq!(pack(&src, &l, 1), (0..12).collect::<Vec<u8>>());
        // count 2 must tile by extent (element 1 starts at byte 36), not
        // run the memcpy path.
        let mut expect: Vec<u8> = (0..12).collect();
        expect.extend(36..48);
        assert_eq!(pack(&src, &l, 2), expect);
    }

    #[test]
    fn block_uniform_tier_matches_generic() {
        // 6 runs of 72 bytes every 120: BlockUniform (chunk + 8B tail).
        let t = TypeBuilder::vector(6, 9, 15, TypeBuilder::double());
        let l = Layout::of(&t);
        assert!(matches!(
            l.plan_for(1),
            crate::compile::CopyPlan::BlockUniform(_)
        ));
        let src: Vec<u8> = (0..l.footprint(1)).map(|i| (i * 7 % 251) as u8).collect();
        let mut fast = vec![0u8; l.total_bytes(1) as usize];
        let mut generic = fast.clone();
        pack_into(&src, &l, 1, &mut fast);
        pack_into_generic(&src, &l, 1, &mut generic);
        assert_eq!(fast, generic);

        let mut scat_fast = vec![0xEE; l.footprint(1) as usize];
        let mut scat_gen = scat_fast.clone();
        unpack(&fast, &l, 1, &mut scat_fast);
        unpack_generic(&generic, &l, 1, &mut scat_gen);
        assert_eq!(scat_fast, scat_gen);
    }

    /// Strategy: byte vectors whose single-element plan is `FixedRuns`
    /// with runs of exactly `width` bytes.
    fn fixed_runs(width: u64) -> impl Strategy<Value = std::sync::Arc<crate::typedesc::TypeDesc>> {
        (2u64..8, 1u64..8).prop_map(move |(count, pad)| {
            TypeBuilder::vector(count, width, width + pad, TypeBuilder::byte())
        })
    }

    /// Strategy: a random (but valid) datatype with modest sizes.
    fn arb_type() -> impl Strategy<Value = std::sync::Arc<crate::typedesc::TypeDesc>> {
        prop_oneof![
            // One arm per fixed-width kernel, plus an odd width that takes
            // the variable-length run copy.
            fixed_runs(2),
            fixed_runs(4),
            fixed_runs(8),
            fixed_runs(16),
            fixed_runs(32),
            fixed_runs(3),
            // Fully contiguous (pad = 0 hits the memcpy fast path when the
            // vector degenerates to one segment) and truly strided shapes.
            (1u64..16).prop_map(|n| TypeBuilder::contiguous(n, TypeBuilder::double())),
            (1u64..8, 1u64..4, 0u64..8).prop_map(|(count, blocklen, pad)| {
                TypeBuilder::vector(count, blocklen, blocklen + pad, TypeBuilder::int())
            }),
            // Wide runs (> 32 bytes) at fixed stride: the BlockUniform tier.
            (1u64..8, 5u64..16, 0u64..8).prop_map(|(count, blocklen, pad)| {
                TypeBuilder::vector(count, blocklen, blocklen + pad, TypeBuilder::double())
            }),
            prop::collection::vec((0u64..4, 1u64..4), 1..6).prop_map(|raw| {
                // Convert gaps into sorted disjoint (disp, len) blocks.
                let mut disp = 0;
                let blocks: Vec<(u64, u64)> = raw
                    .into_iter()
                    .map(|(gap, len)| {
                        let d = disp + gap;
                        disp = d + len;
                        (d, len)
                    })
                    .collect();
                TypeBuilder::indexed(&blocks, TypeBuilder::float())
            }),
            (2u64..6, 2u64..6).prop_flat_map(|(rows, cols)| {
                (1..=rows, 1..=cols).prop_map(move |(sr, sc)| {
                    TypeBuilder::subarray(
                        &[rows, cols],
                        &[sr, sc],
                        &[rows - sr, cols - sc],
                        TypeBuilder::double(),
                    )
                })
            }),
        ]
    }

    proptest! {
        /// unpack(pack(x)) restores exactly the bytes the layout touches.
        #[test]
        fn pack_unpack_roundtrip(t in arb_type(), count in 1u64..4, seed in 0u64..1000) {
            let l = Layout::of(&t);
            let fp = l.footprint(count) as usize;
            let mut rng = fusedpack_sim::Pcg32::seeded(seed);
            let mut src = vec![0u8; fp];
            rng.fill_bytes(&mut src);

            let packed = pack(&src, &l, count);
            prop_assert_eq!(packed.len() as u64, l.total_bytes(count));

            let mut dst = vec![0u8; fp];
            unpack(&packed, &l, count, &mut dst);

            // Every byte inside a segment must match the source.
            for (addr, len) in l.absolute_segments(0, count) {
                let (a, b) = (addr as usize, (addr + len) as usize);
                prop_assert_eq!(&dst[a..b], &src[a..b]);
            }
        }

        /// pack(unpack(y)) is the identity on packed buffers.
        #[test]
        fn unpack_pack_roundtrip(t in arb_type(), count in 1u64..4, seed in 0u64..1000) {
            let l = Layout::of(&t);
            let mut rng = fusedpack_sim::Pcg32::seeded(seed);
            let mut packed = vec![0u8; l.total_bytes(count) as usize];
            rng.fill_bytes(&mut packed);

            let mut scattered = vec![0u8; l.footprint(count) as usize];
            unpack(&packed, &l, count, &mut scattered);
            let repacked = pack(&scattered, &l, count);
            prop_assert_eq!(repacked, packed);
        }

        /// Packed size equals type size x count for arbitrary types.
        #[test]
        fn packed_size_is_type_size(t in arb_type(), count in 1u64..5) {
            let l = Layout::of(&t);
            let src = vec![0u8; l.footprint(count) as usize];
            prop_assert_eq!(pack(&src, &l, count).len() as u64, t.size() * count);
        }

        /// The dispatching pack and the generic segment walk produce
        /// identical bytes for arbitrary layouts, reading from a region
        /// that starts `off` bytes into a larger buffer.
        #[test]
        fn pack_fast_path_matches_generic(
            t in arb_type(),
            count in 1u64..4,
            off in 0usize..64,
            seed in 0u64..1000,
        ) {
            let l = Layout::of(&t);
            let mut rng = fusedpack_sim::Pcg32::seeded(seed);
            let mut buf = vec![0u8; off + l.footprint(count) as usize + 16];
            rng.fill_bytes(&mut buf);

            let mut fast = vec![0u8; l.total_bytes(count) as usize];
            let mut generic = fast.clone();
            pack_into(&buf[off..], &l, count, &mut fast);
            pack_into_generic(&buf[off..], &l, count, &mut generic);
            prop_assert_eq!(fast, generic);
        }

        /// Same guarantee on the unpack side, into a region `off` bytes
        /// into a larger buffer: every byte outside the layout's segments,
        /// before, between and after them, is left untouched.
        #[test]
        fn unpack_fast_path_matches_generic(
            t in arb_type(),
            count in 1u64..4,
            off in 0usize..64,
            seed in 0u64..1000,
        ) {
            let l = Layout::of(&t);
            let mut rng = fusedpack_sim::Pcg32::seeded(seed);
            let mut packed = vec![0u8; l.total_bytes(count) as usize];
            rng.fill_bytes(&mut packed);

            let mut fast = vec![0xEE; off + l.footprint(count) as usize + 16];
            let mut generic = fast.clone();
            unpack(&packed, &l, count, &mut fast[off..]);
            unpack_generic(&packed, &l, count, &mut generic[off..]);
            prop_assert_eq!(&fast, &generic);

            let mut touched = vec![false; fast.len()];
            for (addr, len) in l.absolute_segments(off as u64, count) {
                touched[addr as usize..(addr + len) as usize].fill(true);
            }
            for (i, &b) in fast.iter().enumerate() {
                prop_assert!(touched[i] || b == 0xEE, "gap byte {} overwritten", i);
            }
        }
    }
}
