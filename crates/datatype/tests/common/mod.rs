//! Shapes shared by the release-mode guards.

use fusedpack_datatype::{TypeBuilder, TypeDesc};
use fusedpack_sim::Pcg32;
use std::sync::Arc;

/// The shape of `fusedpack_workloads::specfem3d_cm(512)`: three fields of
/// 512 single floats at irregular gaps of 2-4 elements, the fields 64-byte
/// aligned apart.
pub fn specfem3d_cm_512() -> Arc<TypeDesc> {
    let mut rng = Pcg32::new(0xc3, 0x5eef);
    let mut disp = 0u64;
    let disps: Vec<u64> = (0..512)
        .map(|_| {
            let d = disp;
            disp += 2 + rng.next_below(3) as u64;
            d
        })
        .collect();
    let field = TypeBuilder::indexed_block(&disps, 1, TypeBuilder::float());
    let stride = (field.extent() + 63) & !63;
    TypeBuilder::structure(&[
        (0, 1, field.clone()),
        (stride, 1, field.clone()),
        (2 * stride, 1, field),
    ])
}

/// Median of a non-empty sample set.
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}
