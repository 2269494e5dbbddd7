//! Payload ownership: every packed buffer a run takes from the pool goes
//! back to it — under every scheme, protocol and shard count, and also
//! when completions are duplicated, IPC mappings fail, wire delays reorder
//! transfers, or control packets and RDMA payloads are replayed. The received bytes must match the
//! fault-free run's throughout.

use super::*;
use crate::message::WireKind;
use crate::program::{AppOp, BufId, TypeSlot};
use crate::scheme::NaiveFlavor;
use fusedpack_datatype::{Layout, TypeBuilder, TypeDesc};
use fusedpack_sim::FaultSpec;

#[derive(Debug, Clone, Copy)]
enum Proto {
    Eager,
    Rput,
    Rget,
}

fn schemes() -> [SchemeKind; 5] {
    [
        SchemeKind::NaiveCopy(NaiveFlavor::OpenMpi),
        SchemeKind::CpuGpuHybrid,
        SchemeKind::GpuSync,
        SchemeKind::GpuAsync,
        SchemeKind::fusion_default(),
    ]
}

/// Per lap, each rank of a three-rank ring sends two sparse messages and
/// one contiguous message to its successor: rank 0 → 1 stays on node 0
/// (DirectIPC under fusion), 1 → 2 and 2 → 0 cross nodes. Packed sizes
/// sit below the 8 KiB eager limit for `Proto::Eager`, above it
/// otherwise. Every lap sends its own random bytes into its own receive
/// buffers, so a payload lost in either lap shows in the checksum.
/// Returns the programs and every rank's receive buffers.
fn ring(proto: Proto) -> (Vec<Program>, Vec<(RankId, BufId)>) {
    let points: u64 = match proto {
        Proto::Eager => 256,
        Proto::Rput | Proto::Rget => 1500,
    };
    let disps: Vec<u64> = (0..points).map(|i| i * 3).collect();
    let sparse = TypeBuilder::indexed_block(&disps, 1, TypeBuilder::float());
    let dense = TypeBuilder::contiguous(4 * points, TypeBuilder::byte());
    let types: [(Arc<TypeDesc>, u64); 3] = [(sparse.clone(), 2), (sparse, 1), (dense, 1)];
    let n = 3u32;
    let mut programs = Vec::new();
    let mut received = Vec::new();
    for r in 0..n {
        let mut p = Program::new();
        for (slot, (desc, _)) in types.iter().enumerate() {
            p.push(AppOp::Commit {
                slot: TypeSlot(slot),
                desc: desc.clone(),
            });
        }
        let (next, prev) = (RankId((r + 1) % n), RankId((r + n - 1) % n));
        for lap in 0..2u64 {
            for (i, (desc, count)) in types.iter().enumerate() {
                let len = Layout::of(desc).footprint(*count);
                let buf = p.buffer(len, BufInit::Zero);
                p.push(AppOp::Irecv {
                    buf,
                    ty: TypeSlot(i),
                    count: *count,
                    src: prev,
                    tag: i as u32,
                });
                received.push((RankId(r), buf));
            }
            for (i, (desc, count)) in types.iter().enumerate() {
                let len = Layout::of(desc).footprint(*count);
                let seed = 100 * r as u64 + 10 * lap + i as u64;
                let buf = p.buffer(len, BufInit::Random(seed));
                p.push(AppOp::Isend {
                    buf,
                    ty: TypeSlot(i),
                    count: *count,
                    dst: next,
                    tag: i as u32,
                });
            }
            p.push(AppOp::Waitall);
        }
        programs.push(p);
    }
    (programs, received)
}

/// `faults` arms duplicated NIC completions, failed IPC mappings (the
/// staged bounce copy) and wire delay spikes; a spike lets a later
/// transmit overtake an earlier one, so a replay can land first.
fn build(
    scheme: &SchemeKind,
    proto: Proto,
    mode: DataMode,
    shards: u32,
    faults: bool,
) -> (Cluster, Vec<(RankId, BufId)>) {
    let (programs, received) = ring(proto);
    let rndv = match proto {
        Proto::Rget => RndvProtocol::Rget,
        Proto::Eager | Proto::Rput => RndvProtocol::Rput,
    };
    let mut builder = ClusterBuilder::new(Platform::lassen(), scheme.clone())
        .data_mode(mode)
        .rendezvous(rndv)
        .shards(shards);
    for (p, node) in programs.into_iter().zip([0, 0, 1]) {
        builder = builder.add_rank(node, p);
    }
    if faults {
        builder = builder.fault_plan(
            FaultPlan::new(7)
                .with(
                    FaultSite::NicDupCompletion,
                    FaultSpec::with_probability(1.0),
                )
                .with(FaultSite::IpcMapFail, FaultSpec::with_probability(0.5))
                .with(FaultSite::LinkDelay, FaultSpec::with_probability(0.5)),
        );
    }
    (builder.build(), received)
}

/// Keys at and above this one belong to injected replays (a rank id no
/// test cluster has), so a replay is never replayed again.
const REPLAY_KEYS: u64 = ((1 << (64 - KEY_RANK_SHIFT)) - 1) << KEY_RANK_SHIFT;

/// `Cluster::run` on the single queue, except that every CTS, RDMA read
/// request, RDMA payload and Fin is delivered twice: the replay arrives
/// right behind its original, at the same instant. A replayed payload is
/// a pooled copy, so the pool still balances when the guard recycles it.
fn run_replaying(cl: &mut Cluster) -> RunReport {
    let mut next_key = REPLAY_KEYS;
    while let Some((t, key, ev)) = cl.events.pop_keyed() {
        if let (Event::Deliver(slot), true) = (&ev, key < REPLAY_KEYS) {
            let msg = cl.wire_slab.get(*slot).expect("in-flight message");
            let replayed = matches!(
                msg.kind,
                WireKind::Cts { .. }
                    | WireKind::RdmaReadReq { .. }
                    | WireKind::RdmaData { .. }
                    | WireKind::Fin { .. }
            );
            if replayed {
                let mut payload = Vec::new();
                if !msg.payload.is_empty() {
                    payload = cl.buf_pool.take(msg.payload.len());
                    payload.extend_from_slice(&msg.payload);
                }
                let dup = WireMsg {
                    src: msg.src,
                    dst: msg.dst,
                    tag: msg.tag,
                    kind: msg.kind.clone(),
                    payload,
                };
                let dup_slot = cl.wire_slab.insert(dup);
                cl.events.push_at_key(t, next_key, Event::Deliver(dup_slot));
                next_key += 1;
            }
        }
        cl.dispatch(t, ev);
    }
    let (end, processed) = (cl.events.now(), cl.events.processed());
    let (clamps, wheel) = (cl.events.clamp_stats(), cl.events.wheel_stats());
    let high_water = cl.wire_slab.high_water();
    cl.finish_report(end, processed, clamps, wheel, high_water)
}

fn assert_pool_balanced(cl: &Cluster, what: &str) {
    let s = cl.staging_pool_stats();
    assert!(s.hits + s.misses > 0, "{what}: no payload buffer was taken");
    assert_eq!(
        s.hits + s.misses,
        s.released,
        "{what}: payload buffers leaked: {s:?}"
    );
}

#[test]
fn every_payload_buffer_returns_to_the_pool() {
    for proto in [Proto::Eager, Proto::Rput, Proto::Rget] {
        let (mut reference, bufs) = build(&SchemeKind::GpuSync, proto, DataMode::Full, 1, false);
        reference.run();
        let want = reference.checksum(bufs.iter().copied());
        assert!(want.is_some());
        for scheme in schemes() {
            for shards in [1, 2] {
                for faults in [false, true] {
                    let what = format!("{scheme:?} {proto:?} shards={shards} faults={faults}");
                    let (mut cl, bufs) = build(&scheme, proto, DataMode::Full, shards, faults);
                    let report = cl.run();
                    assert_eq!(report.shard.shards.max(1), shards, "{what}");
                    assert_pool_balanced(&cl, &what);
                    assert_eq!(cl.checksum(bufs), want, "{what}: received bytes differ");
                }
            }
            let what = format!("{scheme:?} {proto:?} replayed");
            let (mut cl, bufs) = build(&scheme, proto, DataMode::Full, 1, true);
            let report = run_replaying(&mut cl);
            // Eager traffic has no control packet to replay.
            if !matches!(proto, Proto::Eager) {
                assert!(
                    report.fault_summary.spurious > 0,
                    "{what}: no replay was absorbed"
                );
            }
            assert_pool_balanced(&cl, &what);
            assert_eq!(cl.checksum(bufs), want, "{what}: received bytes differ");
        }
    }
}

#[test]
fn model_only_runs_take_no_payload_buffer() {
    for proto in [Proto::Eager, Proto::Rput, Proto::Rget] {
        for scheme in schemes() {
            let (mut cl, _) = build(&scheme, proto, DataMode::ModelOnly, 1, true);
            cl.run();
            let s = cl.staging_pool_stats();
            assert_eq!(s.hits + s.misses, 0, "{scheme:?} {proto:?}: {s:?}");
        }
    }
}
