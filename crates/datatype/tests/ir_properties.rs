//! Property tests for the layout compiler pipeline.
//!
//! Two independent implementations exist on purpose: the canonical-IR
//! path (`normalize` → rewrite → `compile`) that production uses, and the
//! pre-IR direct tree walk kept as `flatten_reference`. These tests
//! generate random nested type trees — including shapes none of the unit
//! tests cover — and require the two to agree byte-for-byte, both on the
//! segment lists and on the packed images every copy tier produces.
//!
//! Also here: the layout cache's laws — it must never evict a compiled
//! layout while an in-flight request still holds its `Arc`, its counters
//! must balance, and its bound is soft only as far as pins force it; and
//! caches that share a compile memo must behave exactly like caches with
//! private ones.

use fusedpack_datatype::cache::{CompileMemo, LayoutCache, TypeHandle};
use fusedpack_datatype::flatten::{flatten, flatten_reference};
use fusedpack_datatype::ir::LayoutIr;
use fusedpack_datatype::pack::{pack_into, pack_into_generic, unpack, unpack_generic};
use fusedpack_datatype::{CompiledLayout, TypeBuilder, TypeDesc};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

/// A random valid datatype tree of bounded depth. Every constructor in
/// the algebra appears, children recurse, and all builder invariants
/// (sorted disjoint blocks, non-overlapping strides) hold by
/// construction.
fn arb_type(depth: u32) -> BoxedStrategy<Arc<TypeDesc>> {
    let prim = prop_oneof![
        Just(TypeBuilder::byte()),
        Just(TypeBuilder::int()),
        Just(TypeBuilder::float()),
        Just(TypeBuilder::double()),
        Just(TypeBuilder::complex()),
    ]
    .boxed();
    if depth == 0 {
        return prim;
    }
    prop_oneof![
        prim,
        (1u64..6, arb_type(depth - 1)).prop_map(|(n, c)| TypeBuilder::contiguous(n, c)),
        (1u64..5, 1u64..4, 0u64..6, arb_type(depth - 1)).prop_map(|(count, blocklen, pad, c)| {
            TypeBuilder::vector(count, blocklen, blocklen + pad, c)
        }),
        (1u64..4, 1u64..3, 0u64..40, arb_type(depth - 1)).prop_map(|(count, blocklen, gap, c)| {
            let stride_bytes = blocklen * c.extent() + gap;
            TypeBuilder::hvector(count, blocklen, stride_bytes, c)
        }),
        (
            prop::collection::vec((0u64..4, 1u64..4), 1..5),
            arb_type(depth - 1)
        )
            .prop_map(|(raw, c)| {
                let mut disp = 0;
                let blocks: Vec<(u64, u64)> = raw
                    .into_iter()
                    .map(|(gap, len)| {
                        let d = disp + gap;
                        disp = d + len;
                        (d, len)
                    })
                    .collect();
                TypeBuilder::indexed(&blocks, c)
            }),
        (
            prop::collection::vec(0u64..5, 1..5),
            1u64..3,
            arb_type(depth - 1)
        )
            .prop_map(|(gaps, blocklen, c)| {
                let mut disp = 0;
                let ds: Vec<u64> = gaps
                    .into_iter()
                    .map(|gap| {
                        let d = disp + gap;
                        disp = d + blocklen;
                        d
                    })
                    .collect();
                TypeBuilder::indexed_block(&ds, blocklen, c)
            }),
        (
            arb_type(depth - 1),
            1u64..3,
            arb_type(depth - 1),
            1u64..3,
            0u64..16
        )
            .prop_map(|(a, ca, b, cb, gap)| {
                let second = ca * a.extent() + gap;
                TypeBuilder::structure(&[(0, ca, a), (second, cb, b)])
            }),
        (2u64..5, 2u64..5, arb_type(depth - 1)).prop_flat_map(|(rows, cols, c)| {
            (1..=rows, 1..=cols).prop_map(move |(sr, sc)| {
                TypeBuilder::subarray(&[rows, cols], &[sr, sc], &[rows - sr, cols - sc], c.clone())
            })
        }),
        (0u64..48, arb_type(depth - 1))
            .prop_map(|(pad, c)| { TypeBuilder::resized(c.extent() + pad, c) }),
    ]
    .boxed()
}

proptest! {
    /// The IR-routed flatten and the legacy tree walk emit identical
    /// segment lists on arbitrary nested trees.
    #[test]
    fn ir_flatten_matches_reference(t in arb_type(2)) {
        prop_assert_eq!(flatten(&t), flatten_reference(&t));
    }

    /// normalize → compile → execute produces byte-identical packed
    /// images to the legacy flatten + generic segment walk, across every
    /// copy tier the plan dispatch can select.
    #[test]
    fn compiled_plans_pack_byte_equal_to_legacy(
        t in arb_type(2),
        count in 1u64..4,
        seed in 0u64..500,
    ) {
        let compiled = CompiledLayout::of(&t);
        let legacy = CompiledLayout::from_segments(flatten_reference(&t), t.extent());
        prop_assert_eq!(compiled.segments(), legacy.segments());

        let fp = compiled.footprint(count) as usize;
        let mut rng = fusedpack_sim::Pcg32::seeded(seed);
        let mut src = vec![0u8; fp];
        rng.fill_bytes(&mut src);

        let total = compiled.total_bytes(count) as usize;
        let mut via_plan = vec![0u8; total];
        let mut via_legacy = vec![0u8; total];
        pack_into(&src, &compiled, count, &mut via_plan);
        pack_into_generic(&src, &legacy, count, &mut via_legacy);
        prop_assert_eq!(&via_plan, &via_legacy);

        // And back out: the plan-dispatched unpack scatters exactly like
        // the legacy generic loop, gaps untouched.
        let mut scat_plan = vec![0xEE; fp];
        let mut scat_legacy = vec![0xEE; fp];
        unpack(&via_plan, &compiled, count, &mut scat_plan);
        unpack_generic(&via_legacy, &legacy, count, &mut scat_legacy);
        prop_assert_eq!(&scat_plan, &scat_legacy);
    }

    /// The IR's exact run count really is exact: at least the coalesced
    /// segment count, at most the legacy upper bound, and the runs carry
    /// exactly the type's payload bytes in pack order.
    #[test]
    fn run_count_is_tight(t in arb_type(2)) {
        let ir = LayoutIr::normalize(&t);
        let segs = flatten(&t);
        prop_assert!(ir.run_count() >= segs.len() as u64);
        prop_assert!(ir.run_count() <= t.leaf_block_upper_bound());
        let mut bytes = 0u64;
        ir.for_each_run(|_, len| bytes += len);
        prop_assert_eq!(bytes, t.size());
        prop_assert_eq!(ir.size(), t.size());
        prop_assert_eq!(ir.extent(), t.extent());
    }

    /// Cache laws, checked after every operation of a random commit /
    /// acquire sequence in a cache bounded far below the working set:
    ///
    /// * a layout whose `Arc` is held outside the cache (an in-flight
    ///   request) stays resident as the *same allocation* — never evicted
    ///   and silently recompiled behind the pin;
    /// * `hits + misses == commits + acquires` and
    ///   `resident == misses - evictions`;
    /// * residency stays at or below `max(capacity, pinned + 1)`;
    /// * re-committing an evicted type returns its original handle and
    ///   costs exactly one miss.
    #[test]
    fn lru_never_evicts_pinned_layouts(
        ops in prop::collection::vec((0u64..12, 0u8..2), 1..60),
    ) {
        const CAPACITY: u64 = 2;
        let mut cache = LayoutCache::with_capacity(CAPACITY as usize);
        let mut handles: HashMap<u64, TypeHandle> = HashMap::new();
        let mut pins: HashMap<TypeHandle, Arc<CompiledLayout>> = HashMap::new();
        let (mut commits, mut acquires) = (0u64, 0u64);
        for (i, pin) in ops {
            let ty = TypeBuilder::vector(2, 1, 3 + i, TypeBuilder::double());
            let evicted = handles.get(&i).map(|h| cache.peek(*h).is_none());
            let misses_before = cache.layout_stats().misses();
            let (handle, _) = cache.commit(&ty);
            commits += 1;
            if let Some(evicted) = evicted {
                prop_assert_eq!(handle, handles[&i], "re-commit changed the handle");
                let added = cache.layout_stats().misses() - misses_before;
                prop_assert_eq!(added, u64::from(evicted), "re-commit miss count");
            }
            handles.insert(i, handle);
            if pin == 1 {
                // Simulate an in-flight request holding the layout.
                let held = cache.acquire(handle);
                acquires += 1;
                pins.insert(handle, held);
            } else {
                // Request retired: release the pin.
                pins.remove(&handle);
            }
            for (h, held) in &pins {
                let resident = cache.peek(*h);
                prop_assert!(resident.is_some(), "pinned {h:?} evicted");
                prop_assert!(
                    Arc::ptr_eq(resident.unwrap(), held),
                    "pinned {h:?} was evicted and recompiled behind the pin"
                );
            }
            let stats = cache.layout_stats();
            prop_assert_eq!(stats.hits() + stats.misses(), commits + acquires);
            prop_assert_eq!(stats.resident_entries(), stats.misses() - stats.evictions());
            let bound = CAPACITY.max(pins.len() as u64 + 1);
            prop_assert!(
                stats.resident_entries() <= bound,
                "{} resident > max(capacity, pinned + 1) = {}",
                stats.resident_entries(),
                bound
            );
        }
    }

    /// Sharing a compile memo is invisible to the caches: three caches on
    /// one memo and three on private memos, driven through the same random
    /// commit / acquire / pin sequence at capacity 2, agree on every
    /// handle, cost, counter and layout. The sharing caches still hand out
    /// their own `Arc`s (pins stay per rank) over one copy of the tables.
    #[test]
    fn shared_memo_matches_private_caches(
        ops in prop::collection::vec((0usize..3, 0u64..8, 0u8..3), 1..80),
    ) {
        const CAPACITY: usize = 2;
        let memo = CompileMemo::new();
        let mut shared: Vec<LayoutCache> =
            (0..3).map(|_| LayoutCache::with_memo(CAPACITY, memo.clone())).collect();
        let mut private: Vec<LayoutCache> =
            (0..3).map(|_| LayoutCache::with_capacity(CAPACITY)).collect();
        let mut handles: HashMap<(usize, u64), TypeHandle> = HashMap::new();
        let mut pins: HashMap<(usize, u64), [Arc<CompiledLayout>; 2]> = HashMap::new();
        for (k, i, action) in ops {
            let ty = TypeBuilder::vector(2, 1, 3 + i, TypeBuilder::double());
            let (handle, cost) = shared[k].commit(&ty);
            prop_assert_eq!((handle, cost), private[k].commit(&ty));
            handles.insert((k, i), handle);
            if action == 0 {
                // Request retired: release the pin.
                pins.remove(&(k, i));
            } else {
                let held = shared[k].acquire(handle);
                let oracle = private[k].acquire(handle);
                prop_assert_eq!(&*held, &*oracle);
                for j in (0..3).filter(|&j| j != k) {
                    let other = handles.get(&(j, i)).and_then(|h| shared[j].peek(*h));
                    if let Some(other) = other {
                        prop_assert!(!Arc::ptr_eq(&held, other), "ranks share one Arc");
                        prop_assert_eq!(held.segments().as_ptr(), other.segments().as_ptr());
                    }
                }
                if action == 2 {
                    // Simulate an in-flight request holding the layout.
                    pins.insert((k, i), [held, oracle]);
                }
            }
            for (s, p) in shared.iter().zip(&private) {
                prop_assert_eq!(s.layout_stats(), p.layout_stats());
            }
        }
    }
}
