//! Microbenches of the data-plane fast paths introduced for the parallel
//! sweep executor: host pack/unpack across layout shapes (sparse indexed,
//! strided dense, fully contiguous — the last hitting the single-memcpy
//! fast path, benchmarked against the generic gather loop), raw event-queue
//! churn, and the staging [`BufferPool`] against fresh allocation.
//!
//! Baseline numbers live in `BENCH_hotpaths.json` at the repo root.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fusedpack_core::{FlushReason, FusionConfig, FusionOp, Scheduler, Uid};
use fusedpack_datatype::cache::DEFAULT_CAPACITY;
use fusedpack_datatype::{pack, CompileMemo, Layout, LayoutCache, LayoutClass, TypeBuilder};
use fusedpack_gpu::{BufferPool, DataMode, DevPtr, Gpu, GpuArch, HostLink, StreamId};
use fusedpack_sim::{EventQueue, FaultPlan, FaultSite, Time};
use fusedpack_workloads::specfem::{specfem3d_cm, specfem3d_oc};
use fusedpack_workloads::{run_exchange, ExchangeConfig};
use std::hint::black_box;
use std::sync::Arc;

/// (label, layout, element count) for the three pack/unpack shapes.
fn shapes() -> Vec<(&'static str, Layout, u64)> {
    // Sparse: 512 single-float blocks scattered with gaps.
    let sparse_blocks: Vec<(u64, u64)> = (0..512u64).map(|i| (i * 5, 1)).collect();
    let sparse = Layout::of(&TypeBuilder::indexed(&sparse_blocks, TypeBuilder::float()));
    // Dense: strided vector, 64-double blocks at a 96-double stride.
    let dense = Layout::of(&TypeBuilder::vector(64, 64, 96, TypeBuilder::double()));
    // Contiguous: small unbroken elements, many of them — the shape where
    // the whole-buffer memcpy fast path replaces 1024 tiny copies.
    let contig = Layout::of(&TypeBuilder::contiguous(16, TypeBuilder::double()));
    vec![
        ("sparse", sparse, 4),
        ("dense", dense, 4),
        ("contiguous", contig, 1024),
    ]
}

fn bench_pack_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpaths/pack");
    for (label, layout, count) in shapes() {
        let src = vec![7u8; layout.footprint(count) as usize];
        let mut dst = vec![0u8; layout.total_bytes(count) as usize];
        g.throughput(Throughput::Bytes(layout.total_bytes(count)));
        g.bench_function(label, |b| {
            b.iter(|| pack::pack_into(black_box(&src), &layout, count, &mut dst))
        });
    }
    // The same contiguous shape forced through the generic per-segment
    // loop — the delta against hotpaths/pack/contiguous is the fast path.
    let (_, layout, count) = shapes().pop().expect("contiguous shape");
    let src = vec![7u8; layout.footprint(count) as usize];
    let mut dst = vec![0u8; layout.total_bytes(count) as usize];
    g.throughput(Throughput::Bytes(layout.total_bytes(count)));
    g.bench_function("contiguous_generic_loop", |b| {
        b.iter(|| pack::pack_into_generic(black_box(&src), &layout, count, &mut dst))
    });
    g.finish();
}

fn bench_unpack_shapes(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpaths/unpack");
    for (label, layout, count) in shapes() {
        let src = vec![9u8; layout.total_bytes(count) as usize];
        let mut dst = vec![0u8; layout.footprint(count) as usize];
        g.throughput(Throughput::Bytes(layout.total_bytes(count)));
        g.bench_function(label, |b| {
            b.iter(|| pack::unpack(black_box(&src), &layout, count, &mut dst))
        });
    }
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("hotpaths/event_queue_push_pop_4k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..4096u64 {
                q.push_at(Time(i * 6151 % 65_536), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            sum
        })
    });
}

fn bench_staging_pool(c: &mut Criterion) {
    // Rendezvous-sized staging buffer, fully written each acquisition —
    // past the allocator's mmap threshold, so a fresh allocation pays the
    // page faults the pool's warm buffers avoid.
    const LEN: usize = 2 * 1024 * 1024;
    let payload = vec![0x5Au8; LEN];
    let mut g = c.benchmark_group("hotpaths/staging");
    g.throughput(Throughput::Bytes(LEN as u64));
    g.bench_function("pool_acquire_release", |b| {
        let pool = BufferPool::new();
        // Warm the freelist so the steady state is all hits.
        pool.put(Vec::with_capacity(LEN));
        b.iter(|| {
            let mut buf = pool.take(LEN);
            buf.extend_from_slice(black_box(&payload));
            pool.put(buf);
        })
    });
    g.bench_function("fresh_alloc_baseline", |b| {
        b.iter(|| {
            let mut buf: Vec<u8> = Vec::with_capacity(LEN);
            buf.extend_from_slice(black_box(&payload));
            black_box(&buf);
        })
    });
    g.finish();
}

/// The staging pool under a *mixed* message-size stream — the shape the
/// uniform-size `hotpaths/staging` group cannot see. Cycling eager- and
/// rendezvous-sized buffers makes a fresh-alloc strategy bounce between
/// allocator size classes (and across the mmap threshold) every call,
/// while the pool's largest-first freelist keeps serving warm buffers.
fn bench_staging_pool_mixed(c: &mut Criterion) {
    // 64KB..4MB, deliberately unordered so consecutive requests never
    // match the previous buffer's size.
    const SIZES: [usize; 8] = [
        64 << 10,
        2 << 20,
        256 << 10,
        4 << 20,
        128 << 10,
        1 << 20,
        512 << 10,
        192 << 10,
    ];
    let total: usize = SIZES.iter().sum();
    let payload = vec![0xA5u8; 4 << 20];
    let mut g = c.benchmark_group("hotpaths/staging_mixed");
    g.throughput(Throughput::Bytes(total as u64));
    g.bench_function("pool_mixed_sizes", |b| {
        let pool = BufferPool::new();
        // Warm one max-size buffer; steady state recycles it across sizes.
        pool.put(Vec::with_capacity(4 << 20));
        b.iter(|| {
            for &len in &SIZES {
                let mut buf = pool.take(len);
                buf.extend_from_slice(black_box(&payload[..len]));
                pool.put(buf);
            }
        })
    });
    g.bench_function("fresh_alloc_mixed_sizes", |b| {
        b.iter(|| {
            for &len in &SIZES {
                let mut buf: Vec<u8> = Vec::with_capacity(len);
                buf.extend_from_slice(black_box(&payload[..len]));
                black_box(&buf);
            }
        })
    });
    g.finish();
}

/// One copy-executor group: `pack`/`unpack` through `pack::pack_into` and
/// `pack::unpack` (whichever tier `layout`'s plan selects), the generic
/// segment walk they are checked against (`pack_generic_loop`), and a
/// plain `memcpy` of the same byte count as the roofline.
fn bench_executor(c: &mut Criterion, group: &str, names: [&str; 2], layout: &Layout) {
    let count = 1u64;
    let total = layout.total_bytes(count) as usize;
    let src = vec![7u8; layout.footprint(count) as usize];
    let packed = vec![9u8; total];
    let mut dst = vec![0u8; total];
    let mut out = vec![0u8; layout.footprint(count) as usize];
    let mut g = c.benchmark_group(group);
    g.throughput(Throughput::Bytes(total as u64));
    g.bench_function(names[0], |b| {
        b.iter(|| pack::pack_into(black_box(&src), layout, count, &mut dst))
    });
    g.bench_function("pack_generic_loop", |b| {
        b.iter(|| pack::pack_into_generic(black_box(&src), layout, count, &mut dst))
    });
    g.bench_function(names[1], |b| {
        b.iter(|| pack::unpack(black_box(&packed), layout, count, &mut out))
    });
    g.bench_function("memcpy", |b| {
        b.iter(|| dst.copy_from_slice(black_box(&src[..total])))
    });
    g.finish();
}

/// The FixedRuns tier: 4096 16-byte runs at a 24-byte stride (a
/// blocklen-2 double vector), moved as const-width `[u8; 16]` copies.
fn bench_gather_tier(c: &mut Criterion) {
    let layout = Layout::of(&TypeBuilder::vector(4096, 2, 3, TypeBuilder::double()));
    assert_eq!(layout.plan_for(1).class(), LayoutClass::FixedRuns);
    bench_executor(
        c,
        "hotpaths/gather_tier",
        ["pack_uniform", "unpack_uniform"],
        &layout,
    );
}

/// The BlockUniform tier: 2048 72-byte runs at a 120-byte stride (a
/// blocklen-9 double vector, runs past `FIXED_RUN_WIDTH_MAX`), each moved
/// as fixed 64-byte chunks plus a tail. Runs this size keep per-run
/// bookkeeping visible; much wider runs converge to memory bandwidth on
/// every path.
fn bench_block_uniform_tier(c: &mut Criterion) {
    let layout = Layout::of(&TypeBuilder::vector(2048, 9, 15, TypeBuilder::double()));
    assert_eq!(layout.plan_for(1).class(), LayoutClass::BlockUniform);
    bench_executor(
        c,
        "hotpaths/block_uniform",
        ["pack_block_uniform", "unpack_block_uniform"],
        &layout,
    );
}

/// The Generic tier on `specfem3d_cm(512)`, the halo type the benchmark's
/// byte-moving workload sends: 1536 scattered floats. Every run is 4 bytes,
/// so `pack`/`unpack` take the run-width walk (fixed 4-byte moves at the
/// segment table's offsets) while `pack_generic_loop` is the prefix-sum
/// walk.
fn bench_generic_tier(c: &mut Criterion) {
    let layout = Layout::of(&specfem3d_cm(512).desc);
    assert_eq!(layout.plan_for(1).class(), LayoutClass::Generic);
    assert_eq!(layout.run_width(), 4);
    bench_executor(c, "hotpaths/generic", ["pack", "unpack"], &layout);
}

/// The Generic tier on mixed run widths: 1536 blocks alternating 1 and 2
/// floats at irregular offsets, so `pack`/`unpack` keep the prefix-sum
/// walk and this group prices it.
fn bench_generic_mixed_tier(c: &mut Criterion) {
    let blocks: Vec<(u64, u64)> = (0..1536).map(|i| (4 * i + i % 2, 1 + i % 2)).collect();
    let layout = Layout::of(&TypeBuilder::indexed(&blocks, TypeBuilder::float()));
    assert_eq!(layout.plan_for(1).class(), LayoutClass::Generic);
    assert_eq!(layout.run_width(), 0);
    bench_executor(c, "hotpaths/generic_mixed", ["pack", "unpack"], &layout);
}

/// First commits of `specfem3d_cm(512)` by 512 ranks, the halo workloads'
/// set-up: `shared_memo_x512` builds each rank's cache on one compile memo
/// the way `ClusterBuilder::build` does (one compile, 511 shared clones);
/// `private_x512` gives every cache its own memo (512 compiles).
fn bench_commit(c: &mut Criterion) {
    let desc = specfem3d_cm(512).desc;
    let commit_all = |cache: &mut dyn FnMut() -> LayoutCache| {
        (0..512)
            .map(|_| {
                let mut c = cache();
                c.commit(black_box(&desc));
                c
            })
            .collect::<Vec<_>>()
    };
    let mut g = c.benchmark_group("hotpaths/commit");
    g.bench_function("shared_memo_x512", |b| {
        b.iter(|| {
            let memo = CompileMemo::new();
            commit_all(&mut || LayoutCache::with_memo(DEFAULT_CAPACITY, memo.clone()))
        })
    });
    g.bench_function("private_x512", |b| {
        b.iter(|| commit_all(&mut LayoutCache::new))
    });
    g.finish();
}

/// One scheduler service cycle: 64 enqueues with a threshold check after
/// each (flushing whenever it fires), a final sync-point flush, then
/// completion signalling and retirement for every request — the per-epoch
/// hot path the fusion scheme adds on top of the progress engine.
fn scheduler_cycle(sched: &mut Scheduler, gpu: &mut Gpu, layout: &Arc<Layout>) -> u64 {
    let mut launches = 0u64;
    let mut t = Time(0);
    let mut uids: Vec<Uid> = Vec::with_capacity(64);
    for _ in 0..64 {
        let (res, cost) = sched.enqueue(
            t,
            FusionOp::Pack,
            DevPtr {
                addr: 0,
                len: 65536,
            },
            DevPtr {
                addr: 65536,
                len: 65536,
            },
            layout.clone(),
            1,
            None,
        );
        uids.push(res.expect("ring has room"));
        t += cost;
        if sched.threshold_reached() {
            if let Some(batch) = sched.flush(t, gpu, StreamId(0), FlushReason::ThresholdReached) {
                launches += 1;
                for &u in &batch.uids {
                    sched.signal_completion(u);
                }
            }
        }
    }
    if let Some(batch) = sched.flush(t, gpu, StreamId(0), FlushReason::SyncPoint) {
        launches += 1;
        for &u in &batch.uids {
            sched.signal_completion(u);
        }
    }
    for u in uids {
        let cost = sched.retire(t, u);
        t += cost;
    }
    launches
}

fn bench_scheduler(c: &mut Criterion) {
    // 16 KB packed per request across 2 blocks: 64 requests cross the
    // 512 KB default threshold twice per cycle.
    let layout = Arc::new(Layout::of(&TypeBuilder::vector(
        2,
        8 * 1024,
        8 * 1024 + 64,
        TypeBuilder::byte(),
    )));
    let mk_gpu = || {
        Gpu::new(
            GpuArch::v100(),
            1 << 22,
            DataMode::ModelOnly,
            HostLink::nvlink2_cpu(),
            2,
        )
    };
    let mut g = c.benchmark_group("hotpaths/scheduler");
    g.bench_function("enqueue_flush_cycle_static", |b| {
        let mut sched = Scheduler::new(FusionConfig::default());
        let mut gpu = mk_gpu();
        b.iter(|| scheduler_cycle(&mut sched, &mut gpu, black_box(&layout)))
    });
    g.bench_function("enqueue_flush_cycle_adaptive", |b| {
        // Same cycle with the online controller observing every flush
        // (it converges to a fixed point, so the steady state measures
        // pure controller overhead, not behavioural drift).
        let mut sched = Scheduler::new(FusionConfig::default());
        sched.enable_adaptive(&GpuArch::v100());
        let mut gpu = mk_gpu();
        b.iter(|| scheduler_cycle(&mut sched, &mut gpu, black_box(&layout)))
    });
    g.finish();
}

/// Overhead of the fault-injection hooks on the simulation's per-request
/// hot path. `no_plan` is the production configuration (one untaken
/// `Option` branch per decision site); `zero_probability_plan` is an armed
/// plan whose every spec is `probability: 0` (an early-out before any RNG
/// draw); `armed_plan` actually draws. The first two must be
/// indistinguishable — that is the zero-cost contract the bit-identity
/// tests enforce semantically and this group quantifies. The stateful
/// (`fires`, per-(site, rank) streams) and keyed (`fires_keyed`, stateless
/// splitmix over the event key — the per-hop decision of the routed
/// transmit path) families are benchmarked side by side.
fn bench_fault_hooks(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpaths/fault_hooks");

    // The raw decision loop: 4096 fires checks round-robining the fault
    // sites and 8 ranks, the shape the cluster's hooks execute per event.
    let decisions = |plan: &mut Option<FaultPlan>| {
        let mut fired = 0u64;
        for i in 0..4096u64 {
            let site = FaultSite::ALL[(i % FaultSite::ALL.len() as u64) as usize];
            if let Some(p) = plan.as_mut() {
                if p.fires(site, (i % 8) as u32) {
                    fired += 1;
                }
            }
        }
        fired
    };
    g.bench_function("decisions_4k_no_plan", |b| {
        let mut plan: Option<FaultPlan> = None;
        b.iter(|| decisions(black_box(&mut plan)))
    });
    g.bench_function("decisions_4k_zero_probability_plan", |b| {
        // `FaultPlan::new` arms the plan with every site at probability 0.
        let mut plan = Some(FaultPlan::new(0));
        b.iter(|| decisions(black_box(&mut plan)))
    });
    g.bench_function("decisions_4k_armed_plan", |b| {
        let mut plan = Some(FaultPlan::uniform(0, 0.1));
        b.iter(|| decisions(black_box(&mut plan)))
    });

    // The stateless keyed family: one hash per decision, no stream state —
    // what every hop crossing of a routed transmit pays under an armed
    // fabric plan (zero-probability must stay an ≈ns-scale early-out).
    let keyed = |plan: &mut Option<FaultPlan>| {
        let mut fired = 0u64;
        for i in 0..4096u64 {
            let site = FaultSite::ALL[(i % FaultSite::ALL.len() as u64) as usize];
            if let Some(p) = plan.as_mut() {
                if p.fires_keyed(site, i % 64, i) {
                    fired += 1;
                }
            }
        }
        fired
    };
    g.bench_function("keyed_decisions_4k_zero_probability_plan", |b| {
        let mut plan = Some(FaultPlan::new(0));
        b.iter(|| keyed(black_box(&mut plan)))
    });
    g.bench_function("keyed_decisions_4k_armed_plan", |b| {
        let mut plan = Some(FaultPlan::uniform(0, 0.1));
        b.iter(|| keyed(black_box(&mut plan)))
    });

    // End to end: a small fused exchange simulated with no plan vs an
    // armed all-zero plan — the whole-pipeline cost of threading the
    // hooks through the pack/transfer/unpack fast paths.
    let cfg = |plan: Option<FaultPlan>| {
        let mut cfg = ExchangeConfig::new(
            fusedpack_net::Platform::lassen(),
            fusedpack_mpi::SchemeKind::fusion_default(),
            specfem3d_oc(500),
            4,
        );
        cfg.fault_plan = plan;
        cfg
    };
    g.bench_function("exchange_no_plan", |b| {
        b.iter(|| run_exchange(black_box(&cfg(None))))
    });
    g.bench_function("exchange_zero_probability_plan", |b| {
        b.iter(|| run_exchange(black_box(&cfg(Some(FaultPlan::new(0))))))
    });
    g.finish();
}

/// Topology hot paths: route resolution and contended multi-hop
/// transmits at cluster scale. `route_extract` walks the warm BFS tables
/// per call (what an uncached pair pays after table build);
/// `route_cached` is [`TopoNet`]'s per-send lookup (a HashMap hit
/// returning an `(offset, len)` window into the contiguous route arena —
/// the steady-state cost every routed transfer adds over the flat path),
/// and `route_cached_arc_baseline` replays the pre-arena design it
/// replaced (per-send `Arc<[HopId]>` refcount clone out of the cache).
/// The contended-transmit series times 64 cross-leaf transfers whose
/// routes pile onto shared rails and spines, at 256/1k/4k ranks — the
/// per-event cost the 512-rank halo report pays on its hot path.
fn bench_topology(c: &mut Criterion) {
    use fusedpack_net::{Endpoint, Hierarchy, TopoNet, Topology};

    let mut g = c.benchmark_group("hotpaths/topo");

    // Deterministic cross-leaf pair list: ranks i and (i + ranks/2) sit
    // 16+ nodes apart, so every route crosses the spine layer.
    let pairs = |ranks: u32| -> Vec<(Endpoint, Endpoint)> {
        (0..64u32)
            .map(|i| {
                let (a, b) = (i % (ranks / 2), ranks / 2 + i % (ranks / 2));
                (Endpoint::new(a / 4, a % 4), Endpoint::new(b / 4, b % 4))
            })
            .collect()
    };

    let big = Hierarchy::lassen_like(1024); // 4096 ranks
    let big_pairs = pairs(4096);
    g.bench_function("route_extract_4k_ranks", |b| {
        // Warm every destination table once so the loop measures path
        // extraction, not BFS.
        for &(a, bb) in &big_pairs {
            let _ = big.route(a, bb);
        }
        let mut i = 0usize;
        b.iter(|| {
            let (a, bb) = big_pairs[i % big_pairs.len()];
            i += 1;
            black_box(big.route(black_box(a), bb).expect("routable"))
        })
    });
    g.bench_function("route_cached_4k_ranks", |b| {
        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(1024)));
        for &key in &big_pairs {
            let _ = net.resolve(key);
        }
        let mut i = 0usize;
        b.iter(|| {
            let key = big_pairs[i % big_pairs.len()];
            i += 1;
            let route = net.resolve(black_box(key)).expect("cached");
            black_box(route.last().copied())
        })
    });
    g.bench_function("route_cached_arc_baseline_4k_ranks", |b| {
        // The design the arena replaced: every send clones an
        // `Arc<[HopId]>` out of the cache (two atomic refcount ops and a
        // pointer chase per transfer).
        use fusedpack_net::HopId;
        use std::collections::HashMap;
        let topo = Hierarchy::lassen_like(1024);
        let mut cache: HashMap<(Endpoint, Endpoint), std::sync::Arc<[HopId]>> = HashMap::new();
        for &(a, bb) in &big_pairs {
            cache.insert((a, bb), topo.route(a, bb).expect("routable").into());
        }
        let mut i = 0usize;
        b.iter(|| {
            let key = big_pairs[i % big_pairs.len()];
            i += 1;
            let route = cache.get(&black_box(key)).expect("cached").clone();
            black_box(route.last().copied())
        })
    });

    for ranks in [256u32, 1024, 4096] {
        let keys = pairs(ranks);
        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(ranks / 4)));
        for &key in &keys {
            let _ = net.resolve(key); // routes cached; iters measure transmits
        }
        g.bench_function(format!("contended_transmit_64x_{ranks}_ranks"), |b| {
            b.iter(|| {
                net.reset();
                let mut last = Time(0);
                for &key in &keys {
                    let t = net.transmit(Time(0), key, 65_536, None).expect("routable");
                    last = t.delivered;
                }
                black_box(last)
            })
        });
    }

    // The same contended series with a zero-probability fabric plan armed:
    // the per-hop fault hook's cost when it never fires. The delta against
    // contended_transmit_64x_256_ranks is the hook — it must stay ≈ns per
    // hop (an early-out before any hash).
    {
        let keys = pairs(256);
        let mut net = TopoNet::new(Arc::new(Hierarchy::lassen_like(64)));
        net.arm_faults(FaultPlan::new(0));
        for &key in &keys {
            let _ = net.resolve(key);
        }
        g.bench_function("contended_transmit_64x_256_ranks_zero_prob_fabric", |b| {
            b.iter(|| {
                net.reset();
                let mut last = Time(0);
                for &key in &keys {
                    let t = net.transmit(Time(0), key, 65_536, None).expect("routable");
                    last = t.delivered;
                }
                black_box(last)
            })
        });
    }

    // The reroute slow path: dead-set-avoiding shortest-path resolution
    // (what one ECMP re-resolution costs after a hop dies) against the
    // unrestricted resolution on the same pair.
    {
        use fusedpack_net::HopKind;
        let topo = Hierarchy::lassen_like(64);
        let (a, b_) = (Endpoint::new(0, 0), Endpoint::new(63, 0));
        let healthy = topo.route(a, b_).expect("routable");
        let dead: Vec<u32> = healthy
            .iter()
            .filter(|h| topo.hops()[h.0 as usize].kind == HopKind::Rail)
            .map(|h| h.0)
            .take(1)
            .collect();
        g.bench_function("reroute_resolve_avoiding_dead_rail", |b| {
            b.iter(|| {
                black_box(
                    topo.route_avoiding(black_box(a), b_, black_box(&dead))
                        .expect("sibling rail survives"),
                )
            })
        });
        g.bench_function("reroute_resolve_unrestricted_baseline", |b| {
            b.iter(|| black_box(topo.route(black_box(a), b_).expect("routable")))
        });
    }
    g.finish();
}

/// The sharded event loop's per-window coordination primitives, isolated
/// from any simulation: computing the next window (min `peek_time` over
/// every shard queue) and round-tripping cross-shard messages through the
/// bounded mailboxes. One iteration is one barrier cycle over 4 shards
/// with 64 in-flight cross-shard sends — the fixed cost a window barrier
/// adds on top of the workers' useful event processing.
fn bench_shard_barrier(c: &mut Criterion) {
    use fusedpack_sim::Mailbox;

    const SHARDS: usize = 4;
    const MSGS: usize = 64;
    let mut g = c.benchmark_group("hotpaths/shard");
    g.bench_function("shard_barrier_overhead_4x64", |b| {
        let mut queues: Vec<EventQueue<u64>> = (0..SHARDS).map(|_| EventQueue::new()).collect();
        for (s, q) in queues.iter_mut().enumerate() {
            for i in 0..256u64 {
                q.push_at(Time(s as u64 * 977 + i * 6151 % 65_536), i);
            }
        }
        let mut boxes: Vec<Mailbox<(Time, u64, u64)>> =
            (0..SHARDS * SHARDS).map(|_| Mailbox::default()).collect();
        let mut scratch: Vec<(Time, u64, u64)> = Vec::new();
        b.iter(|| {
            // Window computation: min next-event time across all shards.
            let window = queues
                .iter_mut()
                .filter_map(|q| q.peek_time())
                .min()
                .unwrap_or(Time(u64::MAX));
            // Outbox fill: every shard sends to every other shard.
            for src in 0..SHARDS {
                for dst in 0..SHARDS {
                    if src == dst {
                        continue;
                    }
                    for i in 0..(MSGS / (SHARDS - 1)) as u64 {
                        boxes[src * SHARDS + dst].push((window, i, i * 31));
                    }
                }
            }
            // Barrier drain: admit everything into the destination queues.
            let mut admitted = 0u64;
            for src in 0..SHARDS {
                for dst in 0..SHARDS {
                    if src == dst {
                        continue;
                    }
                    scratch.clear();
                    scratch.extend(boxes[src * SHARDS + dst].drain());
                    admitted += scratch.len() as u64;
                    for &(at, key, payload) in &scratch {
                        queues[dst].push_at_key(at, key, payload);
                    }
                }
            }
            // Keep the queues bounded: drain what the fill added.
            for q in &mut queues {
                for _ in 0..MSGS / (SHARDS - 1) * (SHARDS - 1) {
                    let _ = q.pop();
                }
            }
            black_box(admitted)
        })
    });
    g.finish();
}

criterion_group!(
    bench_hotpaths,
    bench_pack_shapes,
    bench_unpack_shapes,
    bench_event_queue,
    bench_staging_pool,
    bench_staging_pool_mixed,
    bench_gather_tier,
    bench_generic_tier,
    bench_generic_mixed_tier,
    bench_block_uniform_tier,
    bench_commit,
    bench_scheduler,
    bench_fault_hooks,
    bench_topology,
    bench_shard_barrier
);
criterion_main!(bench_hotpaths);
