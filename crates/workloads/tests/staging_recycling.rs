//! Staging-buffer recycling at cluster scale: once a Full-mode halo has
//! run one lap, the cluster's payload pool holds a buffer for every
//! payload a lap keeps in flight, so later laps allocate nothing. That
//! holds for a sharded run too, where a buffer one shard took returns to
//! the pool of the shard that received it.

use fusedpack_gpu::{DataMode, PoolStats};
use fusedpack_mpi::{ClusterBuilder, SchemeKind};
use fusedpack_net::Platform;
use fusedpack_workloads::halo::{halo_programs, HaloGrid};
use fusedpack_workloads::specfem::specfem3d_cm;

/// Run a fault-free Full-mode halo of `laps` laps on a 4×4×4 torus
/// (64 ranks × 6 neighbors × 2 messages = 768 payloads per lap) over
/// `shards` shards and return the pool counters.
fn halo_pool_stats(laps: usize, shards: u32) -> PoolStats {
    let grid = HaloGrid::new_3d(4, 4, 4);
    let programs = halo_programs(&grid, &specfem3d_cm(64), 2, laps, 7);
    let mut builder = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
        .data_mode(DataMode::Full)
        .shards(shards);
    for (rank, (program, _)) in programs.into_iter().enumerate() {
        builder = builder.add_rank(rank as u32 / 4, program);
    }
    let mut cluster = builder.build();
    let report = cluster.run();
    assert_eq!(report.shard.shards.max(1), shards);
    cluster.staging_pool_stats()
}

#[test]
fn laps_after_the_first_take_every_payload_buffer_from_the_freelist() {
    for shards in [1, 4] {
        let one = halo_pool_stats(1, shards);
        assert!(
            one.misses > 64,
            "shards={shards}: the first lap must keep more than 64 payloads in flight: {one:?}"
        );
        let three = halo_pool_stats(3, shards);
        assert_eq!(
            three.misses, one.misses,
            "shards={shards}: laps 2 and 3 allocated payload buffers: {three:?} \
             after one lap {one:?}"
        );
        assert_eq!(three.hits + three.misses, 3 * (one.hits + one.misses));
        assert_eq!(
            three.released,
            three.hits + three.misses,
            "shards={shards}: every buffer came back"
        );
    }
}
