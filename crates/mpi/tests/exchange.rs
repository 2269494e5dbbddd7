//! End-to-end exchange tests: every scheme must move the right bytes, and
//! the relative performance of the schemes must match the paper's ordering.

use fusedpack_datatype::{Layout, TypeBuilder, TypeDesc};
use fusedpack_gpu::DataMode;
use fusedpack_mpi::program::BufInit;
use fusedpack_mpi::{AppOp, BufId, Cluster, ClusterBuilder, Program, RankId, SchemeKind, TypeSlot};
use fusedpack_net::Platform;
use fusedpack_sim::Pcg32;
use std::sync::Arc;

/// Build a symmetric two-rank halo exchange: each rank posts `n_msgs`
/// receives then `n_msgs` sends of `count` elements of `desc`, then waits.
/// Returns (program for rank0, program for rank1, send buffer ids, recv
/// buffer ids).
fn exchange_programs(
    desc: &Arc<TypeDesc>,
    count: u64,
    n_msgs: usize,
    laps: usize,
) -> (Program, Program, Vec<BufId>, Vec<BufId>) {
    let layout = Layout::of(desc);
    let buf_len = layout.footprint(count).max(1);

    let build = |seed_base: u64, peer: RankId| {
        let mut p = Program::new();
        let sbufs: Vec<BufId> = (0..n_msgs)
            .map(|i| p.buffer(buf_len, BufInit::Random(seed_base + i as u64)))
            .collect();
        let rbufs: Vec<BufId> = (0..n_msgs)
            .map(|_| p.buffer(buf_len, BufInit::Zero))
            .collect();
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: desc.clone(),
        });
        for _ in 0..laps {
            p.push(AppOp::ResetTimer);
            for (i, &rbuf) in rbufs.iter().enumerate() {
                p.push(AppOp::Irecv {
                    buf: rbuf,
                    ty: TypeSlot(0),
                    count,
                    src: peer,
                    tag: i as u32,
                });
            }
            for (i, &sbuf) in sbufs.iter().enumerate() {
                p.push(AppOp::Isend {
                    buf: sbuf,
                    ty: TypeSlot(0),
                    count,
                    dst: peer,
                    tag: i as u32,
                });
            }
            p.push(AppOp::Waitall);
            p.push(AppOp::RecordLap);
        }
        (p, sbufs, rbufs)
    };

    let (p0, s0, _r0) = build(100, RankId(1));
    let (p1, _s1, r1) = build(200, RankId(0));
    (p0, p1, s0, r1)
}

/// Expected contents of a sender buffer initialized with
/// `BufInit::Random(seed)` on rank `rank_idx`.
fn expected_buffer(seed: u64, rank_idx: u64, len: u64) -> Vec<u8> {
    let mut rng = Pcg32::new(seed, rank_idx);
    let mut bytes = vec![0u8; len as usize];
    rng.fill_bytes(&mut bytes);
    bytes
}

/// Run a two-rank exchange and assert rank1 received rank0's data in every
/// segment the layout touches.
fn run_and_verify(
    platform: Platform,
    scheme: SchemeKind,
    desc: Arc<TypeDesc>,
    count: u64,
    n_msgs: usize,
) -> fusedpack_mpi::cluster::RunReport {
    let layout = Layout::of(&desc);
    let buf_len = layout.footprint(count).max(1);
    let (p0, p1, _s0, r1) = exchange_programs(&desc, count, n_msgs, 1);
    let mut cluster = ClusterBuilder::new(platform, scheme)
        .add_rank(0, p0)
        .add_rank(1, p1)
        .build();
    let report = cluster.run();

    for (i, &rbuf) in r1.iter().enumerate() {
        let got = cluster.rank_buffer(RankId(1), rbuf);
        let want = expected_buffer(100 + i as u64, 0, buf_len);
        for (addr, len) in layout.absolute_segments(0, count) {
            let (a, b) = (addr as usize, (addr + len) as usize);
            assert_eq!(
                &got[a..b],
                &want[a..b],
                "msg {i}: segment at {addr} mismatched"
            );
        }
    }
    report
}

fn sparse_type() -> Arc<TypeDesc> {
    // specfem3D-like: many small indexed blocks of floats.
    let blocks: Vec<(u64, u64)> = (0..200).map(|i| (i * 5, 2)).collect();
    TypeBuilder::indexed(&blocks, TypeBuilder::float())
}

fn dense_type() -> Arc<TypeDesc> {
    // NAS_MG-like: vector with fat blocks.
    TypeBuilder::vector(16, 128, 192, TypeBuilder::double())
}

fn all_schemes() -> Vec<SchemeKind> {
    // Every registered design: the registry is the single source of truth
    // for what exists, so new schemes are exercised here automatically.
    fusedpack_mpi::SchemeRegistry::global()
        .all()
        .iter()
        .map(|d| d.make())
        .collect()
}

#[test]
fn every_scheme_moves_correct_bytes_sparse_lassen() {
    for scheme in all_schemes() {
        run_and_verify(Platform::lassen(), scheme, sparse_type(), 2, 4);
    }
}

#[test]
fn every_scheme_moves_correct_bytes_dense_abci() {
    for scheme in all_schemes() {
        run_and_verify(Platform::abci(), scheme, dense_type(), 4, 4);
    }
}

#[test]
fn eager_path_small_messages() {
    // One tiny block: packed size far below the 8 KB eager limit.
    let desc = TypeBuilder::indexed(&[(0, 4), (8, 4)], TypeBuilder::float());
    for scheme in all_schemes() {
        run_and_verify(Platform::lassen(), scheme, desc.clone(), 1, 3);
    }
}

#[test]
fn unexpected_messages_are_matched_late() {
    // Rank 1 sends *before* posting its receives, so rank 0's RTS/eager
    // messages race ahead and land in the unexpected queue.
    let desc = sparse_type();
    let layout = Layout::of(&desc);
    let count = 2u64;
    let n = 3usize;
    let buf_len = layout.footprint(count).max(1);

    let mut p0 = Program::new();
    let s0: Vec<BufId> = (0..n)
        .map(|i| p0.buffer(buf_len, BufInit::Random(500 + i as u64)))
        .collect();
    let r0: Vec<BufId> = (0..n).map(|_| p0.buffer(buf_len, BufInit::Zero)).collect();
    p0.push(AppOp::Commit {
        slot: TypeSlot(0),
        desc: desc.clone(),
    });
    // Sends first!
    for (i, &b) in s0.iter().enumerate() {
        p0.push(AppOp::Isend {
            buf: b,
            ty: TypeSlot(0),
            count,
            dst: RankId(1),
            tag: i as u32,
        });
    }
    for (i, &b) in r0.iter().enumerate() {
        p0.push(AppOp::Irecv {
            buf: b,
            ty: TypeSlot(0),
            count,
            src: RankId(1),
            tag: i as u32,
        });
    }
    p0.push(AppOp::Waitall);

    let mut p1 = Program::new();
    let s1: Vec<BufId> = (0..n)
        .map(|i| p1.buffer(buf_len, BufInit::Random(600 + i as u64)))
        .collect();
    let r1: Vec<BufId> = (0..n).map(|_| p1.buffer(buf_len, BufInit::Zero)).collect();
    p1.push(AppOp::Commit {
        slot: TypeSlot(0),
        desc: desc.clone(),
    });
    for (i, &b) in s1.iter().enumerate() {
        p1.push(AppOp::Isend {
            buf: b,
            ty: TypeSlot(0),
            count,
            dst: RankId(0),
            tag: i as u32,
        });
    }
    for (i, &b) in r1.iter().enumerate() {
        p1.push(AppOp::Irecv {
            buf: b,
            ty: TypeSlot(0),
            count,
            src: RankId(0),
            tag: i as u32,
        });
    }
    p1.push(AppOp::Waitall);

    for scheme in [SchemeKind::GpuSync, SchemeKind::fusion_default()] {
        let mut cluster = ClusterBuilder::new(Platform::lassen(), scheme)
            .add_rank(0, p0.clone())
            .add_rank(1, p1.clone())
            .build();
        cluster.run();
        for (i, &rbuf) in r1.iter().enumerate() {
            let got = cluster.rank_buffer(RankId(1), rbuf);
            let want = expected_buffer(500 + i as u64, 0, buf_len);
            for (addr, len) in layout.absolute_segments(0, count) {
                let (a, b) = (addr as usize, (addr + len) as usize);
                assert_eq!(&got[a..b], &want[a..b], "msg {i} segment {addr}");
            }
        }
    }
}

#[test]
fn fusion_launches_far_fewer_kernels() {
    let n_msgs = 16;
    let report_sync = run_and_verify(
        Platform::lassen(),
        SchemeKind::GpuSync,
        sparse_type(),
        2,
        n_msgs,
    );
    let report_fusion = run_and_verify(
        Platform::lassen(),
        SchemeKind::fusion_default(),
        sparse_type(),
        2,
        n_msgs,
    );
    // GPU-Sync: one kernel per pack + one per unpack = 32 per rank.
    assert_eq!(report_sync.kernels_launched[0], 2 * n_msgs as u64);
    // Fusion: a handful of fused launches.
    assert!(
        report_fusion.kernels_launched[0] <= 6,
        "expected few fused launches, got {}",
        report_fusion.kernels_launched[0]
    );
    let stats = report_fusion.sched_stats[0].expect("fusion stats");
    assert_eq!(stats.enqueued, 2 * n_msgs as u64);
    assert_eq!(stats.requests_fused, stats.enqueued);
    assert!(stats.fusion_degree() > 4.0);
}

#[test]
fn fusion_beats_gpu_sync_on_bulk_sparse() {
    let fusion = run_and_verify(
        Platform::lassen(),
        SchemeKind::fusion_default(),
        sparse_type(),
        4,
        16,
    );
    let sync = run_and_verify(
        Platform::lassen(),
        SchemeKind::GpuSync,
        sparse_type(),
        4,
        16,
    );
    let naive = run_and_verify(
        Platform::lassen(),
        SchemeKind::NaiveCopy(fusedpack_mpi::scheme::NaiveFlavor::SpectrumMpi),
        sparse_type(),
        4,
        16,
    );
    let f = fusion.final_lap();
    let s = sync.final_lap();
    let n = naive.final_lap();
    assert!(f < s, "fusion {f} should beat gpu-sync {s}");
    assert!(s < n, "gpu-sync {s} should beat naive {n}");
    assert!(
        n.as_nanos() > 10 * f.as_nanos(),
        "naive {n} should be an order of magnitude slower than fusion {f}"
    );
}

#[test]
fn second_lap_is_not_slower_with_warm_caches() {
    let desc = sparse_type();
    let (p0, p1, _, _) = exchange_programs(&desc, 2, 8, 3);
    let mut cluster = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
        .add_rank(0, p0)
        .add_rank(1, p1)
        .build();
    let report = cluster.run();
    assert_eq!(report.lap_count(), 3);
    let first = report.lap_makespan(0);
    let last = report.lap_makespan(2);
    assert!(
        last <= first,
        "warm lap {last} should not exceed cold lap {first}"
    );
}

#[test]
fn breakdown_buckets_are_populated() {
    let report = run_and_verify(Platform::abci(), SchemeKind::GpuSync, sparse_type(), 2, 8);
    let b = report.breakdowns[0];
    assert!(b.launch.as_nanos() > 0, "launch bucket empty");
    assert!(b.pack.as_nanos() > 0, "pack bucket empty");
    assert!(b.sync.as_nanos() > 0, "sync bucket empty");

    let report = run_and_verify(
        Platform::abci(),
        SchemeKind::fusion_default(),
        sparse_type(),
        2,
        8,
    );
    let f = report.breakdowns[0];
    assert!(
        f.scheduling.as_nanos() > 0,
        "fusion scheduling bucket empty"
    );
    assert!(
        f.launch < b.launch,
        "fusion launch {:?} must undercut gpu-sync {:?}",
        f.launch,
        b.launch
    );
    assert!(
        f.sync < b.sync,
        "fusion sync {:?} must undercut gpu-sync {:?}",
        f.sync,
        b.sync
    );
}

#[test]
fn deterministic_replay() {
    let run = || {
        run_and_verify(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            sparse_type(),
            2,
            8,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.final_lap(), b.final_lap());
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.events_processed, b.events_processed);
}

#[test]
fn staging_pool_recycles_payload_buffers() {
    let desc = sparse_type();
    // Multi-lap so retired payload buffers get a chance to be reused.
    let (p0, p1, _, _) = exchange_programs(&desc, 2, 4, 3);
    let mut cluster = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
        .add_rank(0, p0)
        .add_rank(1, p1)
        .build();
    let report = cluster.run();
    let pool = cluster.staging_pool_stats();
    assert!(pool.released > 0, "payload buffers should be recycled");
    assert!(
        pool.hits > 0,
        "steady-state laps should reuse pooled buffers, got {pool:?}"
    );
    // No past-event clamps in a healthy run.
    assert_eq!(report.event_clamps.count, 0);
    assert_eq!(report.event_clamps, fusedpack_sim::ClampStats::default());
}

#[test]
fn empty_waitall_returns_immediately() {
    let mut p = Program::new();
    let _ = p.buffer(64, BufInit::Zero);
    p.push(AppOp::ResetTimer);
    p.push(AppOp::Waitall);
    p.push(AppOp::RecordLap);
    let mut cluster = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
        .add_rank(0, p)
        .build();
    let report = cluster.run();
    // Just the Waitall bookkeeping cost.
    assert!(report.lap_makespan(0).as_micros_f64() < 1.0);
}

#[test]
fn mixed_datatypes_in_one_epoch() {
    // Two different layouts exchanged in the same Waitall epoch: a sparse
    // indexed type and a dense vector, both directions, under fusion.
    let sparse = sparse_type();
    let dense = dense_type();
    let l_sparse = Layout::of(&sparse);
    let l_dense = Layout::of(&dense);
    let count = 2u64;
    let len_sparse = l_sparse.footprint(count).max(1);
    let len_dense = l_dense.footprint(count).max(1);

    let build = |seed: u64, peer: RankId| {
        let mut p = Program::new();
        let s0 = p.buffer(len_sparse, BufInit::Random(seed));
        let s1 = p.buffer(len_dense, BufInit::Random(seed + 1));
        let r0 = p.buffer(len_sparse, BufInit::Zero);
        let r1 = p.buffer(len_dense, BufInit::Zero);
        p.push(AppOp::Commit {
            slot: TypeSlot(0),
            desc: sparse.clone(),
        });
        p.push(AppOp::Commit {
            slot: TypeSlot(1),
            desc: dense.clone(),
        });
        p.push(AppOp::Irecv {
            buf: r0,
            ty: TypeSlot(0),
            count,
            src: peer,
            tag: 0,
        });
        p.push(AppOp::Irecv {
            buf: r1,
            ty: TypeSlot(1),
            count,
            src: peer,
            tag: 1,
        });
        p.push(AppOp::Isend {
            buf: s0,
            ty: TypeSlot(0),
            count,
            dst: peer,
            tag: 0,
        });
        p.push(AppOp::Isend {
            buf: s1,
            ty: TypeSlot(1),
            count,
            dst: peer,
            tag: 1,
        });
        p.push(AppOp::Waitall);
        (p, [r0, r1])
    };
    let (p0, _) = build(300, RankId(1));
    let (p1, r1bufs) = build(400, RankId(0));
    let mut cluster = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
        .add_rank(0, p0)
        .add_rank(1, p1)
        .build();
    cluster.run();

    for (i, (layout, len)) in [(l_sparse, len_sparse), (l_dense, len_dense)]
        .into_iter()
        .enumerate()
    {
        let got = cluster.rank_buffer(RankId(1), r1bufs[i]);
        let want = expected_buffer(300 + i as u64, 0, len);
        for (addr, seg_len) in layout.absolute_segments(0, count) {
            let (a, b) = (addr as usize, (addr + seg_len) as usize);
            assert_eq!(&got[a..b], &want[a..b], "type {i} segment {addr}");
        }
    }
}

#[test]
fn contiguous_sends_launch_no_kernels() {
    // A fully contiguous type goes over the wire straight from the user
    // buffer — zero pack/unpack kernels under any scheme.
    let desc = TypeBuilder::contiguous(4096, TypeBuilder::byte());
    for scheme in [SchemeKind::GpuSync, SchemeKind::fusion_default()] {
        let report = run_and_verify(Platform::lassen(), scheme, desc.clone(), 1, 4);
        let total: u64 = report.kernels_launched.iter().sum();
        assert_eq!(total, 0, "contiguous transfers must not launch kernels");
    }
}

#[test]
fn contiguous_is_faster_than_equivalent_noncontiguous() {
    let contig = TypeBuilder::contiguous(8192, TypeBuilder::byte());
    // Same bytes, 256 blocks.
    let strided = TypeBuilder::vector(256, 32, 48, TypeBuilder::byte());
    let fast = run_and_verify(Platform::lassen(), SchemeKind::GpuSync, contig, 1, 8);
    let slow = run_and_verify(Platform::lassen(), SchemeKind::GpuSync, strided, 1, 8);
    assert!(fast.final_lap() < slow.final_lap());
}

/// Byte-at-a-time FNV-1a over copied buffers — the reference
/// `Cluster::checksum` must reproduce value for value.
fn fnv1a_oracle(cluster: &Cluster, bufs: &[(RankId, BufId)]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &(rank, buf) in bufs {
        for byte in cluster.rank_buffer(rank, buf) {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn cluster_checksum_matches_bytewise_fnv_oracle() {
    let build = |mode: DataMode| {
        let (p0, p1, s0, r1) = exchange_programs(&sparse_type(), 3, 4, 1);
        let mut cluster = ClusterBuilder::new(Platform::lassen(), SchemeKind::fusion_default())
            .data_mode(mode)
            .add_rank(0, p0)
            .add_rank(1, p1)
            .build();
        cluster.run();
        // Several receive buffers, then buffers of the other rank: the
        // hash follows the order given, across ranks.
        let bufs: Vec<(RankId, BufId)> = r1
            .iter()
            .map(|&b| (RankId(1), b))
            .chain(s0.iter().map(|&b| (RankId(0), b)))
            .collect();
        (cluster, bufs)
    };

    let (full, bufs) = build(DataMode::Full);
    let want = fnv1a_oracle(&full, &bufs);
    assert_ne!(want, 0xcbf2_9ce4_8422_2325, "the buffers carry bytes");
    assert_eq!(full.checksum(bufs.iter().copied()), Some(want));
    let reversed: Vec<_> = bufs.iter().rev().copied().collect();
    assert_eq!(
        full.checksum(reversed.iter().copied()),
        Some(fnv1a_oracle(&full, &reversed))
    );

    let (model, bufs) = build(DataMode::ModelOnly);
    assert_eq!(
        model.checksum(bufs),
        None,
        "ModelOnly buffers hold no bytes"
    );
}
