//! Fixtures shared by the cluster integration tests.

use fusedpack_datatype::{Layout, LayoutClass, TypeBuilder, TypeDesc};
use std::sync::Arc;

/// One datatype per copy plan at two elements, the count the pair helpers
/// send: `Memcpy` (`contiguous(4096, byte)`), `FixedRuns` (16-byte runs),
/// `BlockUniform` (`vector(6, 9, 15, double)`'s 72-byte runs) and the
/// caller's sparse `Generic` type. The vectors are resized to their run
/// stride so that two elements tile and keep the uniform plan.
pub fn one_type_per_plan(sparse: Arc<TypeDesc>) -> Vec<Arc<TypeDesc>> {
    let vector = |count, blocklen, stride| {
        TypeBuilder::resized(
            count * stride * 8,
            TypeBuilder::vector(count, blocklen, stride, TypeBuilder::double()),
        )
    };
    let types = vec![
        TypeBuilder::contiguous(4096, TypeBuilder::byte()),
        vector(64, 2, 3),
        vector(6, 9, 15),
        sparse,
    ];
    let classes: Vec<LayoutClass> = types
        .iter()
        .map(|t| Layout::of(t).plan_for(2).class())
        .collect();
    assert_eq!(
        classes,
        [
            LayoutClass::Contiguous,
            LayoutClass::FixedRuns,
            LayoutClass::BlockUniform,
            LayoutClass::Generic,
        ]
    );
    types
}
