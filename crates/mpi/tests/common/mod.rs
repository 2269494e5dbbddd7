//! Fixtures shared by the cluster integration tests.

use fusedpack_datatype::{Layout, LayoutClass, TypeBuilder, TypeDesc};
use std::sync::Arc;

/// One datatype per copy plan at two elements, the count the pair helpers
/// send: `Memcpy` (`contiguous(4096, byte)`), `FixedRuns` (16-byte runs),
/// `BlockUniform` (`vector(6, 9, 15, double)`'s 72-byte runs), the
/// caller's sparse `Generic` type, whose runs share one width, and a
/// mixed-width `Generic` type with as many blocks, alternating 1 and 2
/// floats. The two `Generic` types cover both walks of that tier: the
/// run-width walk and the prefix-sum walk. The vectors are resized to
/// their run stride so that two elements tile and keep the uniform plan.
pub fn one_type_per_plan(sparse: Arc<TypeDesc>) -> Vec<Arc<TypeDesc>> {
    let vector = |count, blocklen, stride| {
        TypeBuilder::resized(
            count * stride * 8,
            TypeBuilder::vector(count, blocklen, stride, TypeBuilder::double()),
        )
    };
    let blocks: Vec<(u64, u64)> = (0..Layout::of(&sparse).num_blocks())
        .map(|i| (4 * i, 1 + i % 2))
        .collect();
    let mixed = TypeBuilder::indexed(&blocks, TypeBuilder::float());
    let types = vec![
        TypeBuilder::contiguous(4096, TypeBuilder::byte()),
        vector(64, 2, 3),
        vector(6, 9, 15),
        sparse,
        mixed,
    ];
    let plans: Vec<(LayoutClass, bool)> = types
        .iter()
        .map(|t| {
            let l = Layout::of(t);
            (l.plan_for(2).class(), l.run_width() > 0)
        })
        .collect();
    assert_eq!(
        plans,
        [
            (LayoutClass::Contiguous, true),
            (LayoutClass::FixedRuns, true),
            (LayoutClass::BlockUniform, true),
            (LayoutClass::Generic, true),
            (LayoutClass::Generic, false),
        ]
    );
    types
}
