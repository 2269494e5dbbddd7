//! Layer replays: the public calls each per-layer host metric names,
//! driven from outside and sized from the workload's own type, counts,
//! rank pairs and queue depth. They run only in the traced pass.

use crate::median;
use crate::trace::Tracer;
use crate::workload::{grid, topology, Inputs};
use fusedpack_core::{FlushReason, FusionConfig, FusionOp, Scheduler};
use fusedpack_datatype::{pack, CopyPlan, Layout, LayoutCache};
use fusedpack_gpu::{DataMode, DevPtr, FixedRuns, MemPool, StreamId};
use fusedpack_mpi::RunReport;
use fusedpack_net::{Endpoint, FlatLink, Platform, RouteKey, TopoNet, TopologyHandle};
use fusedpack_sim::{Duration, EventQueue, Pcg32, Time};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Host time each replay measures for.
const BUDGET_S: f64 = 0.25;
/// Timed batches per replay; the reported figure is their median.
const BATCHES: usize = 15;
/// Serve laps whose sizes the copy replays cycle through.
const SERVE_REPLAY_LAPS: usize = 64;

/// Median host seconds per unit of `op`, which does `units` units of work
/// per call. Calls are grouped into [`BATCHES`] batches filling about
/// [`BUDGET_S`].
fn per_unit(units: u64, mut op: impl FnMut()) -> f64 {
    let t = Instant::now();
    op();
    let one = t.elapsed().as_secs_f64().max(1e-9);
    let calls = ((BUDGET_S / BATCHES as f64 / one) as usize).max(1);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                op();
            }
            t.elapsed().as_secs_f64() / (calls as u64 * units) as f64
        })
        .collect();
    median(&samples)
}

/// Seeded bytes for replay buffers.
fn random_bytes(len: u64, seed: u64) -> Vec<u8> {
    let mut v = vec![0u8; len as usize];
    Pcg32::new(seed, 0xb7e5).fill_bytes(&mut v);
    v
}

/// Element counts the copy replays cycle through: the halo's nominal
/// count, or the first serve laps' drawn sizes.
fn replay_counts(inputs: &Inputs) -> Vec<u64> {
    if inputs.kind.is_halo() {
        vec![inputs.counts[0]]
    } else {
        inputs.counts[..SERVE_REPLAY_LAPS.min(inputs.laps())].to_vec()
    }
}

/// The workload's directed rank pairs as route keys, on the fabric its
/// transfers cross (the serve pair crosses the flat wire).
fn pairs(inputs: &Inputs) -> (TopologyHandle, Vec<RouteKey>) {
    let platform = Platform::lassen();
    let gpn = platform.gpus_per_node;
    let ep = |rank: u32| Endpoint::new(rank / gpn, rank % gpn);
    if inputs.kind.is_halo() {
        let g = grid();
        let keys = (0..g.ranks())
            .flat_map(|r| g.neighbors(r).into_iter().map(move |(_, n)| (ep(r), ep(n))))
            .collect();
        (topology(), keys)
    } else {
        // The serve ranks sit alone on nodes 0 and 1.
        let a = Endpoint::new(0, 0);
        let b = Endpoint::new(1, 0);
        let flat: TopologyHandle = Arc::new(FlatLink::for_platform(&platform, 2));
        (flat, vec![(a, b), (b, a)])
    }
}

/// Run every layer replay; returns `(metric, value)` pairs.
pub fn replay(inputs: &Inputs, report: &RunReport, tr: &mut Tracer) -> Vec<(&'static str, f64)> {
    let wl = inputs.kind.workload();
    let layout = Arc::new(Layout::of(&wl.desc));
    let counts = replay_counts(inputs);
    let max_count = counts.iter().copied().max().unwrap_or(1);
    let footprint = layout.footprint(max_count);
    let bytes: u64 = counts.iter().map(|&c| layout.total_bytes(c)).sum();
    let gbps = |secs_per_call: f64| bytes as f64 / secs_per_call / 1e9;
    let mut out = Vec::new();

    // datatype: commit (a miss on a fresh cache), acquire (a hit), and the
    // host pack/unpack engines against a plain copy of the same bytes.
    let (commit, _) = tr.span("datatype.commit", |_| {
        per_unit(1, || {
            let mut cache = LayoutCache::new();
            black_box(cache.commit(black_box(&wl.desc)));
        })
    });
    out.push(("datatype.commit_us", commit * 1e6));
    let (acquire, _) = tr.span("datatype.acquire", |_| {
        let mut cache = LayoutCache::new();
        let (handle, _) = cache.commit(&wl.desc);
        per_unit(1000, || {
            for _ in 0..1000 {
                black_box(cache.acquire(black_box(handle)));
            }
        })
    });
    out.push(("datatype.acquire_ns", acquire * 1e9));

    let src = random_bytes(footprint, inputs.buf_seed);
    let mut packed = vec![0u8; layout.total_bytes(max_count) as usize];
    let mut region = vec![0u8; footprint as usize];
    let (p, _) = tr.span("datatype.pack", |_| {
        per_unit(1, || {
            for &c in &counts {
                let n = layout.total_bytes(c) as usize;
                pack::pack_into(black_box(&src), &layout, c, &mut packed[..n]);
            }
            black_box(&packed);
        })
    });
    out.push(("datatype.pack_gbps", gbps(p)));
    let (u, _) = tr.span("datatype.unpack", |_| {
        per_unit(1, || {
            for &c in &counts {
                let n = layout.total_bytes(c) as usize;
                pack::unpack(black_box(&packed[..n]), &layout, c, &mut region);
            }
            black_box(&region);
        })
    });
    out.push(("datatype.unpack_gbps", gbps(u)));
    let (m, _) = tr.span("datatype.memcpy", |_| {
        per_unit(1, || {
            for &c in &counts {
                let n = layout.total_bytes(c) as usize;
                packed[..n].copy_from_slice(black_box(&src[..n]));
            }
            black_box(&packed);
        })
    });
    out.push(("datatype.memcpy_gbps", gbps(m)));

    // gpu: MemPool gather/scatter under the layout's copy plan, the way
    // the fusion scheme's data movement dispatches on it.
    let mut pool = MemPool::new(footprint + 4096, DataMode::Full);
    let base = pool.alloc(footprint, 64);
    pool.write(base, &src);
    let runs = |c: u64| match layout.plan_for(c) {
        CopyPlan::BlockUniform(p) | CopyPlan::FixedRuns(p) => Some(FixedRuns {
            first: base.addr + p.first,
            stride: p.stride,
            len: p.len,
            runs: p.runs,
        }),
        CopyPlan::Memcpy { .. } | CopyPlan::Generic => None,
    };
    let mut staged: Vec<u8> = Vec::with_capacity(packed.len());
    let (g, _) = tr.span("gpu.gather", |_| {
        per_unit(1, || {
            for &c in &counts {
                staged.clear();
                match (layout.plan_for(c), runs(c)) {
                    (_, Some(plan)) => pool.gather_into_uniform(plan, &mut staged),
                    (CopyPlan::Memcpy { bytes }, None) => {
                        pool.gather_into([(base.addr, bytes)], &mut staged)
                    }
                    _ => pool.gather_into(layout.abs_segments(base.addr, c), &mut staged),
                };
            }
            black_box(&staged);
        })
    });
    out.push(("gpu.gather_gbps", gbps(g)));
    let (s, _) = tr.span("gpu.scatter", |_| {
        per_unit(1, || {
            for &c in &counts {
                let n = layout.total_bytes(c) as usize;
                let data = black_box(&packed[..n]);
                match (layout.plan_for(c), runs(c)) {
                    (_, Some(plan)) => pool.scatter_from_slice_uniform(data, plan),
                    (CopyPlan::Memcpy { bytes }, None) => {
                        pool.scatter_from_slice_iter(data, [(base.addr, bytes)])
                    }
                    _ => pool.scatter_from_slice_iter(data, layout.abs_segments(base.addr, c)),
                }
            }
        })
    });
    out.push(("gpu.scatter_gbps", gbps(s)));

    // core: one rank-lap of pack requests through the fusion scheduler:
    // enqueue with a threshold check after each, a sync-point flush, then
    // completion and retirement.
    let (cycle, _) = tr.span("core.sched_cycle", |_| {
        let platform = Platform::lassen();
        let mut gpu = platform.make_gpu(1 << 20, DataMode::ModelOnly);
        let mut sched = Scheduler::new(FusionConfig::default());
        let n = inputs.sends_per_rank_lap();
        let ptr = |addr| DevPtr {
            addr,
            len: footprint,
        };
        let mut uids = Vec::with_capacity(n);
        let mut lap = 0usize;
        per_unit(1, || {
            let c = counts[lap % counts.len()];
            lap += 1;
            let mut t = Time(0);
            uids.clear();
            for _ in 0..n {
                let (res, cost) = sched.enqueue(
                    t,
                    FusionOp::Pack,
                    ptr(0),
                    ptr(footprint),
                    layout.clone(),
                    c,
                    None,
                );
                uids.push(res.expect("the ring holds one lap of requests"));
                t += cost;
                if sched.threshold_reached() {
                    if let Some(b) =
                        sched.flush(t, &mut gpu, StreamId(0), FlushReason::ThresholdReached)
                    {
                        for u in b.uids {
                            sched.signal_completion(u);
                        }
                    }
                }
            }
            if let Some(b) = sched.flush(t, &mut gpu, StreamId(0), FlushReason::SyncPoint) {
                for u in b.uids {
                    sched.signal_completion(u);
                }
            }
            for &u in &uids {
                t += sched.retire(t, u);
            }
        })
    });
    out.push(("core.sched_cycle_ns", cycle * 1e9));

    // net: cold route resolution of every pair on a fresh net, then
    // routed transmits replaying the pair list at message size.
    let (topo, keys) = pairs(inputs);
    let (cold, _) = tr.span("net.resolve_cold", |_| {
        let samples: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let mut net = TopoNet::new(topo.clone());
                let t = Instant::now();
                for &k in &keys {
                    black_box(net.resolve(k).expect("workload pairs are routable").len());
                }
                t.elapsed().as_secs_f64()
            })
            .collect();
        median(&samples)
    });
    out.push(("net.route_cold_ms", cold * 1e3));
    let (tx, _) = tr.span("net.transmit", |_| {
        let mut net = TopoNet::new(topo.clone());
        let msg = layout.total_bytes(counts[0]);
        let mut pass = 0u64;
        per_unit(keys.len() as u64, || {
            pass += 1;
            for (i, &k) in keys.iter().enumerate() {
                let now = Time(pass * 10_000_000 + i as u64);
                black_box(
                    net.transmit_keyed(now, k, msg, None, i as u64)
                        .expect("workload pairs are routable"),
                );
            }
        })
    });
    out.push(("net.transmit_ns", tx * 1e9));

    // sim: push_at + pop at the run's slab depth, with event gaps drawn
    // around the run's mean virtual spacing at that depth.
    let (q, _) = tr.span("sim.queue", |_| {
        let depth = report.wheel.slab_high_water.max(1) as u64;
        let gap = (report.end_time.0 / report.events_processed.max(1)).max(1);
        let span = (2 * depth * gap).min(u32::MAX as u64) as u32;
        let mut rng = Pcg32::new(inputs.seed, 0x9e);
        let mut queue: EventQueue<u64> = EventQueue::new();
        for i in 0..depth {
            queue.push_at(Time(1 + rng.next_below(span) as u64), i);
        }
        per_unit(1000, || {
            for _ in 0..1000 {
                let (t, e) = queue.pop().expect("the queue stays at depth");
                queue.push_at(t + Duration(1 + rng.next_below(span) as u64), e);
            }
        })
    });
    out.push(("sim.queue_ns", q * 1e9));
    out
}
