//! The simulated cluster: ranks, GPUs, NICs, and the deterministic event
//! loop that drives them.
//!
//! Construction goes through [`ClusterBuilder`]: pick a platform
//! (Table II), a datatype-processing scheme, add one program per rank, and
//! `build()`. [`Cluster::run`] executes every program to completion and
//! returns a [`RunReport`] with per-rank lap times, Fig.-11 breakdowns, and
//! scheduler statistics.

mod accounting;
mod exec;
mod protocol;
mod ranged;
mod rank;
pub(crate) mod schemes;
mod shardrun;
mod topo;

use crate::message::WireMsg;
use crate::program::{BufInit, Program};
use crate::scheme::SchemeKind;
use crate::sendrecv::{RecvId, SendId};
use fusedpack_core::{SchedStats, Uid};
use fusedpack_datatype::pack::{pack_into, unpack};
use fusedpack_datatype::{CompileMemo, CompiledLayout};
use fusedpack_gpu::{BufferPool, DataMode, Gpu, MemPool};
use fusedpack_net::platform::Platform;
use fusedpack_net::topology::{validate_endpoint, Endpoint, FabricEvent};
use fusedpack_net::{FabricHealth, Link, Nic, TopoNet, TopologyHandle};
use fusedpack_sim::{
    ClampStats, Duration, EventQueue, FaultPlan, FaultSite, FaultSummary, Mailbox, Pcg32,
    RetryPolicy, ShardStats, Slab, Time, WheelStats,
};
use fusedpack_telemetry::{Lane, Payload, Telemetry};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

pub(crate) use ranged::Ranged;
pub(crate) use rank::RankState;
pub(crate) use schemes::SchemeEngine;
pub(crate) use shardrun::PendingTransmit;

/// Bit position of the originating rank in a canonical event key: the low
/// 42 bits count events the rank originated, the high bits name the rank.
/// Keys are globally unique and identical across shard counts, so the
/// timing wheel's (time, key) pop order — and therefore the entire run —
/// is byte-identical whether one queue or many drain it.
pub(crate) const KEY_RANK_SHIFT: u32 = 42;

/// Move `count` elements of `layout` with the copy executor
/// ([`pack_into`] / [`unpack`]) over byte slices taken from
/// the pools: gather the laid-out `src` into the packed `dst` when `pack`,
/// else scatter the packed `src` into the laid-out `dst`. Index 0 of the
/// laid-out side is the first element's base address; the packed side is
/// exactly `layout.total_bytes(count)` long.
///
/// A `ModelOnly` pool hands out empty slices (`MemPool` decides that in
/// one place), so an empty side means there is nothing to move.
pub(crate) fn copy_elems(
    pack: bool,
    layout: &CompiledLayout,
    count: u64,
    src: &[u8],
    dst: &mut [u8],
) {
    if src.is_empty() || dst.is_empty() {
        return;
    }
    if pack {
        pack_into(src, layout, count, dst);
    } else {
        unpack(src, layout, count, dst);
    }
}

/// Rendezvous sub-protocol for large messages (§IV-B1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RndvProtocol {
    /// Sender RDMA-WRITEs after receiving a CTS; the RTS can overlap with
    /// packing — the sub-protocol the paper's design prefers (default).
    #[default]
    Rput,
    /// Sender announces packed data with the RTS; the receiver pulls it
    /// with an RDMA READ. No handshake/packing overlap.
    Rget,
}

/// A rank (one process driving one GPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RankId(pub u32);

/// Internal simulation events.
#[derive(Debug)]
pub(crate) enum Event {
    /// (Re)start executing a rank's program.
    Wake(RankId),
    /// An asynchronous pack (kernel or staged copies) finished on the
    /// sender.
    PackDone(RankId, SendId),
    /// An asynchronous unpack finished on the receiver.
    UnpackDone(RankId, RecvId),
    /// A fused-kernel cooperative group signalled one request's completion.
    FusionDone(RankId, Uid),
    /// A wire message reached its destination. The key indexes
    /// [`Cluster::wire_slab`]: in-flight messages live in a slab and the
    /// event carries a `u32` instead of a boxed node, so steady-state
    /// traffic recycles message storage without touching the allocator.
    Deliver(u32),
    /// The initiator-side completion (CQE) of an RDMA write.
    SendComplete(RankId, SendId),
}

/// Builder for a simulated cluster run.
pub struct ClusterBuilder {
    platform: Platform,
    scheme: SchemeKind,
    data_mode: DataMode,
    gdrcopy: bool,
    telemetry: Option<Telemetry>,
    rndv: RndvProtocol,
    faults: Option<FaultPlan>,
    topology: Option<TopologyHandle>,
    shards: u32,
    ranks: Vec<(u32, Program)>,
}

impl ClusterBuilder {
    pub fn new(platform: Platform, scheme: SchemeKind) -> Self {
        ClusterBuilder {
            platform,
            scheme,
            data_mode: DataMode::Full,
            gdrcopy: true,
            telemetry: None,
            rndv: RndvProtocol::default(),
            faults: None,
            topology: None,
            shards: 1,
            ranks: Vec::new(),
        }
    }

    /// Partition the event loop across `n` worker shards synchronized by
    /// conservative time windows (see the `shardrun` module). Reports are
    /// byte-identical to the single-queue run for every virtual-time
    /// quantity — armed fault plans included, since every fault decision is
    /// drawn from a per-rank stream or a stateless keyed hash; only
    /// wall-clock and queue-health diagnostics differ. The request is
    /// clamped at run time (to the node count, and to 1 when ranks are not
    /// node-contiguous or there is no lookahead) — `RunReport::shard.shards`
    /// echoes the effective value.
    pub fn shards(mut self, n: u32) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Route every transfer through an explicit topology instead of the
    /// flat scalar-link model: each send resolves a hop sequence and
    /// occupies every hop on it ([`fusedpack_net::TopoNet`]). Without this
    /// call the legacy flat path runs untouched — an explicit
    /// [`fusedpack_net::FlatLink`] is bit-identical to the default
    /// (enforced by the bench golden guard).
    pub fn topology(mut self, topo: TopologyHandle) -> Self {
        self.topology = Some(topo);
        self
    }

    /// Select the rendezvous sub-protocol (default: RPUT, which lets the
    /// handshake overlap with packing).
    pub fn rendezvous(mut self, rndv: RndvProtocol) -> Self {
        self.rndv = rndv;
        self
    }

    /// Arm deterministic fault injection: every decision the plan makes is
    /// drawn from its own seeded streams, so the same plan over the same
    /// programs reproduces the same faults. A plan whose every site has
    /// probability zero leaves the run bit-identical to a fault-free one.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Attach an external telemetry recorder: every layer of the stack
    /// (scheduler, GPUs, NICs, protocol engine, accounting) records typed
    /// events into it.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Simulate a system without the GDRCopy kernel module (the paper notes
    /// it "may not be available in all HPC systems"): the hybrid/adaptive
    /// schemes must fall back to GPU kernels for every message.
    pub fn without_gdrcopy(mut self) -> Self {
        self.gdrcopy = false;
        self
    }

    /// Select whether buffers carry real bytes (`Full`, default: tests) or
    /// only timing is simulated (`ModelOnly`: benchmark sweeps).
    pub fn data_mode(mut self, mode: DataMode) -> Self {
        self.data_mode = mode;
        self
    }

    /// Add a rank running `program` on `node`.
    pub fn add_rank(mut self, node: u32, program: Program) -> Self {
        self.ranks.push((node, program));
        self
    }

    /// Instantiate the cluster: allocate GPU/host pools sized from the
    /// programs' declarations, initialize buffers, and seed the event loop.
    pub fn build(self) -> Cluster {
        assert!(!self.ranks.is_empty(), "need at least one rank");
        let num_nodes = self.ranks.iter().map(|&(n, _)| n).max().expect("ranks") + 1;
        let telemetry = self.telemetry.unwrap_or_else(Telemetry::disabled);
        // The single construction-time dispatch: scheme → strategy object.
        let engine = crate::registry::engine_for(&self.scheme, &self.platform);

        let mut ranks = Vec::new();
        let mut gpus = Vec::new();
        let mut staging_mems = Vec::new();
        let mut host_mems = Vec::new();
        // One scratch buffer reused across every random-init declaration.
        let mut init_scratch = Vec::new();
        // Each rank occupies the next GPU slot on its node, in add order.
        let mut endpoints = Vec::new();
        let mut node_slots: HashMap<u32, u32> = HashMap::new();
        // One compile memo per cluster: ranks committing the same type
        // share one host compile and one copy of its tables.
        let memo = CompileMemo::new();

        for (idx, (node, program)) in self.ranks.into_iter().enumerate() {
            let slot = node_slots.entry(node).or_insert(0);
            endpoints.push(Endpoint::new(node, *slot));
            *slot += 1;
            let user_bytes: u64 = program.buffers.iter().map(|b| b.len + 256).sum::<u64>() + 4096;
            // Staging high-water estimate: every comm op may need a packed
            // buffer simultaneously within one Waitall epoch; programs
            // over-declare via their buffer sizes, so size generously.
            let staging_bytes = 2 * user_bytes + (1 << 20);

            let mut gpu = self.platform.make_gpu(user_bytes, self.data_mode);
            if !self.gdrcopy {
                gpu.gdr = fusedpack_gpu::GdrWindow::unavailable();
            }
            let mut rank = RankState::new(RankId(idx as u32), node, program, memo.clone());
            // Allocate and initialize declared buffers.
            for decl in rank.program.buffers.clone() {
                let ptr = gpu.mem.alloc(decl.len, 64);
                match decl.init {
                    BufInit::Zero => {}
                    BufInit::Random(seed) => {
                        if self.data_mode == DataMode::Full {
                            let mut rng = Pcg32::new(seed, idx as u64);
                            init_scratch.clear();
                            init_scratch.resize(decl.len as usize, 0);
                            rng.fill_bytes(&mut init_scratch);
                            gpu.mem.write(ptr, &init_scratch);
                        }
                    }
                }
                rank.bufs.push(ptr);
            }
            let tele_r = telemetry.for_rank(idx as u32);
            gpu.set_telemetry(tele_r.clone());
            if let Some(sched) = engine.make_scheduler(&gpu, tele_r.clone()) {
                rank.sched = Some(sched);
            }
            rank.tele = tele_r;
            ranks.push(rank);
            gpus.push(gpu);
            staging_mems.push(MemPool::new(staging_bytes, self.data_mode));
            host_mems.push(MemPool::new(staging_bytes, self.data_mode));
        }

        // NIC events are tagged with the lowest rank on the NIC's node so
        // they appear under that rank's process in the Perfetto view.
        let nics: Vec<Nic> = (0..num_nodes)
            .map(|node| {
                let mut nic = self.platform.make_nic();
                let owner = ranks
                    .iter()
                    .position(|r| r.node == node)
                    .unwrap_or(node as usize) as u32;
                nic.set_telemetry(telemetry.for_rank(owner));
                nic
            })
            .collect();
        let mut events = EventQueue::new();
        for (r, rank) in ranks.iter_mut().enumerate() {
            // The seed Wake is the rank's first canonical key draw.
            let key = (r as u64) << KEY_RANK_SHIFT;
            rank.key_counter = 1;
            events.push_at_key(Time::ZERO, key, Event::Wake(RankId(r as u32)));
        }

        // A misconfigured topology (too few nodes, more ranks on a node
        // than its island holds) is a build-time error, not a runtime
        // fault: fail loudly with the typed error's message.
        let faults = self.faults;
        let topo = self.topology.map(|t| {
            for &ep in &endpoints {
                if let Err(e) = validate_endpoint(t.as_ref(), ep) {
                    panic!("cluster does not fit topology '{}': {e}", t.name());
                }
            }
            let mut net = TopoNet::new(t);
            // Arm the fabric fault domain when the plan carries per-hop
            // sites. Flat topologies have no path diversity (nothing to
            // reroute around), so their single wire stays fault-free at
            // the hop level — the link-scoped sites still apply.
            if let Some(plan) = faults.as_ref() {
                if plan.is_fabric_armed() && !net.topology().is_flat() {
                    net.arm_faults(plan.clone());
                }
            }
            net
        });

        Cluster {
            platform: self.platform,
            engine,
            data_mode: self.data_mode,
            events,
            ranks: Ranged::from_vec(ranks),
            gpus: Ranged::from_vec(gpus),
            staging_mems: Ranged::from_vec(staging_mems),
            host_mems: Ranged::from_vec(host_mems),
            nics: Ranged::from_vec(nics),
            rndv: self.rndv,
            topo,
            endpoints,
            intra_links: HashMap::new(),
            buf_pool: BufferPool::new(),
            wire_slab: Slab::new(),
            telemetry,
            faults,
            fault_stats: FaultSummary::default(),
            retry: RetryPolicy::default_transfer(),
            shards_requested: self.shards,
            cur_event: (Time::ZERO, 0),
            defer_transmits: false,
            pending: Vec::new(),
            pending_seq: 0,
            rank_shard: Vec::new(),
            outboxes: Vec::new(),
            shard_stats: ShardStats::default(),
            absorbed_pool: fusedpack_gpu::PoolStats::default(),
        }
    }
}

/// The running cluster.
pub struct Cluster {
    pub(crate) platform: Platform,
    /// The data-plane strategy object for the selected scheme (the only
    /// remnant of the `SchemeKind` the cluster was built with).
    pub(crate) engine: Arc<dyn SchemeEngine>,
    pub(crate) data_mode: DataMode,
    pub(crate) events: EventQueue<Event>,
    /// Per-rank state, indexed by *global* rank id. In a sharded run each
    /// worker's cluster owns a contiguous sub-range; the `Ranged` wrapper
    /// translates the global indices every protocol path uses.
    pub(crate) ranks: Ranged<RankState>,
    pub(crate) gpus: Ranged<Gpu>,
    /// Device staging pools (packed buffers), reset at each Waitall exit.
    pub(crate) staging_mems: Ranged<MemPool>,
    /// Host staging pools (hybrid CPU path, naive libraries, bounce
    /// buffers), reset with the device staging pools.
    pub(crate) host_mems: Ranged<MemPool>,
    /// One NIC per node, indexed by global node id.
    pub(crate) nics: Ranged<Nic>,
    /// Rendezvous sub-protocol.
    pub(crate) rndv: RndvProtocol,
    /// Live topology network state (None: the legacy flat path runs with
    /// zero overhead beyond one untaken branch per transport).
    pub(crate) topo: Option<TopoNet>,
    /// Per-rank (node, gpu-slot) endpoints, validated against the
    /// topology at build time.
    pub(crate) endpoints: Vec<Endpoint>,
    /// Lazily created intra-node GPU↔GPU links, keyed by (node, node).
    pub(crate) intra_links: HashMap<(u32, u32), Link>,
    /// Freelist of staged payload buffers: eager/rendezvous copies and IPC
    /// gathers recycle their `Vec<u8>`s here instead of allocating per
    /// message.
    pub(crate) buf_pool: BufferPool,
    /// In-flight wire messages, keyed by the `u32` inside
    /// [`Event::Deliver`]; recycled indices keep per-message storage off
    /// the global allocator.
    pub(crate) wire_slab: Slab<WireMsg>,
    /// Root telemetry handle (disabled unless the builder attached one).
    pub(crate) telemetry: Telemetry,
    /// Deterministic fault plan (None: the hot paths take a single
    /// untaken-branch hit and behave bit-identically to the pre-fault code).
    pub(crate) faults: Option<FaultPlan>,
    /// Injection/recovery accounting for the final [`RunReport`].
    pub(crate) fault_stats: FaultSummary,
    /// Retry/backoff/deadline policy for recovering injected wire faults.
    /// Backoff jitter is keyed ([`RetryPolicy::backoff_keyed`]) by the
    /// transfer's canonical event key, so retries draw identical jitter at
    /// any shard count.
    pub(crate) retry: RetryPolicy,
    /// Worker shards requested via [`ClusterBuilder::shards`] (clamped at
    /// run time; 1 = the single-queue loop).
    pub(crate) shards_requested: u32,
    /// (time, key) of the event currently being dispatched. Sharded topo
    /// runs use it to order deferred transmits exactly as the single
    /// queue would have executed them.
    pub(crate) cur_event: (Time, u64),
    /// Sharded topology mode: record wire transmits as
    /// [`PendingTransmit`]s instead of executing them (the master network
    /// lives with the coordinator between barriers).
    pub(crate) defer_transmits: bool,
    /// Deferred routed transmits for the current round.
    pub(crate) pending: Vec<PendingTransmit>,
    /// Monotone sequence disambiguating transmits within one dispatch.
    pub(crate) pending_seq: u64,
    /// Global rank → owning shard (empty outside sharded runs).
    pub(crate) rank_shard: Vec<u32>,
    /// Outgoing cross-shard deliveries, one mailbox per destination
    /// shard, drained by the coordinator at each barrier.
    pub(crate) outboxes: Vec<Mailbox<(Time, u64, WireMsg)>>,
    /// Barrier/stall counters (all-zero for single-queue runs).
    pub(crate) shard_stats: ShardStats,
    /// Buffer-pool counters absorbed from shard-local pools at recompose,
    /// folded into [`Cluster::staging_pool_stats`].
    pub(crate) absorbed_pool: fusedpack_gpu::PoolStats,
}

/// Results of a completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Lap durations recorded by each rank (`RecordLap` ops).
    pub laps: Vec<Vec<Duration>>,
    /// Per-rank Fig.-11 cost buckets (cumulative over the whole run).
    pub breakdowns: Vec<crate::breakdown::Breakdown>,
    /// Per-rank, per-lap breakdown deltas (aligned with `laps`).
    pub lap_breakdowns: Vec<Vec<crate::breakdown::Breakdown>>,
    /// Fusion scheduler statistics per rank (None for other schemes).
    pub sched_stats: Vec<Option<SchedStats>>,
    /// Kernel launches per rank's GPU.
    pub kernels_launched: Vec<u64>,
    /// Virtual end time of the whole run.
    pub end_time: Time,
    /// Events processed (diagnostics).
    pub events_processed: u64,
    /// Release-mode past-event clamps in the event queue (a determinism
    /// hazard; always zero in debug builds, which panic instead).
    pub event_clamps: ClampStats,
    /// Event-queue timing-wheel health: overflow-bucket hits, cascades,
    /// slots drained (`events_processed / slots_drained` ≈ events per
    /// wheel tick), and the event slab's occupancy high-water mark.
    pub wheel: WheelStats,
    /// Peak simultaneously in-flight wire messages in the message slab —
    /// allocator churn under sustained load is `high_water ×
    /// size_of::<WireMsg>()`, not one heap node per message.
    pub wire_high_water: u32,
    /// Fault-injection and recovery accounting. All-zero (`is_clean`) on
    /// fault-free runs with no ring backpressure.
    pub fault_summary: FaultSummary,
    /// Fabric-level fault-domain accounting (per-hop injections, health
    /// transitions, reroutes, rail failovers, forced deliveries). All-zero
    /// unless a topology is attached and its fault domain armed.
    pub fabric: FabricHealth,
    /// Sharded-execution health: effective shard count, barriers crossed,
    /// admitted/deferred message counts, mailbox spills, and wall-clock
    /// barrier/stall time. All-zero for single-queue runs.
    pub shard: ShardStats,
    /// Layout-compiler cache health, aggregated over every rank's sharded
    /// cache: commit/acquire hit counts, LRU evictions, and resident
    /// compiled-plan bytes. Acquires are cost-free in virtual time, so
    /// these counters never perturb timing — they report how much flatten
    /// work the cache amortized.
    pub layout_cache: fusedpack_datatype::LayoutCacheStats,
}

impl RunReport {
    /// Max lap `i` across ranks — the iteration's makespan, the paper's
    /// reported latency.
    pub fn lap_makespan(&self, i: usize) -> Duration {
        self.laps
            .iter()
            .filter_map(|laps| laps.get(i).copied())
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Number of laps recorded by every rank.
    pub fn lap_count(&self) -> usize {
        self.laps.iter().map(|l| l.len()).min().unwrap_or(0)
    }

    /// Makespan of the final lap (warm caches) — the headline number.
    pub fn final_lap(&self) -> Duration {
        let n = self.lap_count();
        if n == 0 {
            Duration::ZERO
        } else {
            self.lap_makespan(n - 1)
        }
    }
}

impl Cluster {
    /// Run every rank's program to completion — on the single event
    /// queue, or partitioned across worker shards when the builder asked
    /// for them and the run qualifies (see `shardrun`). Both paths
    /// produce byte-identical reports for every virtual-time quantity.
    pub fn run(&mut self) -> RunReport {
        let shards = self.effective_shards();
        if shards > 1 {
            self.run_sharded(shards)
        } else {
            self.run_single()
        }
    }

    fn run_single(&mut self) -> RunReport {
        let mut clamps_seen = self.events.clamp_stats();
        while let Some((t, ev)) = self.events.pop() {
            self.dispatch(t, ev);
            // Surface any past-event clamp the dispatch just caused: it
            // rewrote a computed timestamp, which deserves a visible mark
            // on the timeline, not a silent repair.
            let clamps_now = self.events.clamp_stats();
            if clamps_now.count > clamps_seen.count {
                let skew = clamps_now.total_skew - clamps_seen.total_skew;
                self.telemetry
                    .instant(Lane::Host, self.events.now(), || Payload::ClampedEvent {
                        skew_ns: skew.as_nanos(),
                    });
                clamps_seen = clamps_now;
            }
        }
        let end_time = self.events.now();
        let events_processed = self.events.processed();
        let event_clamps = self.events.clamp_stats();
        let wheel = self.events.wheel_stats();
        let wire_high_water = self.wire_slab.high_water();
        self.finish_report(
            end_time,
            events_processed,
            event_clamps,
            wheel,
            wire_high_water,
        )
    }

    /// Post-run assertions, the end-of-run health snapshot, and report
    /// assembly. `run_single` feeds its own queue's counters; sharded
    /// runs feed aggregates merged across shard queues.
    pub(crate) fn finish_report(
        &mut self,
        end_time: Time,
        events_processed: u64,
        event_clamps: ClampStats,
        wheel: WheelStats,
        wire_high_water: u32,
    ) -> RunReport {
        // A clean chaos run must not clamp: fold the queue counter into the
        // fault summary so `FaultSummary::is_clean` covers timeline repairs.
        self.fault_stats.event_clamps += event_clamps.count;
        for rank in self.ranks.iter() {
            assert!(
                rank.done,
                "rank {:?} deadlocked at pc={} (blocked={})",
                rank.id, rank.pc, rank.blocked
            );
        }
        debug_assert!(self.wire_slab.is_empty(), "wire messages leaked");
        // One end-of-run health snapshot; free when telemetry is disabled
        // (the closure never runs).
        self.telemetry
            .instant(Lane::Host, end_time, || Payload::QueueHealth {
                event_slab_high_water: wheel.slab_high_water,
                wire_slab_high_water: wire_high_water,
                overflow_hits: wheel.overflow_hits,
                slots_drained: wheel.slots_drained,
                events: events_processed,
            });
        // Layout-compiler cache health, merged across ranks. Sharded runs
        // recompose every rank (cache included) before reaching here, so
        // the aggregate is identical at any shard count.
        let mut layout_cache = fusedpack_datatype::LayoutCacheStats::default();
        for rank in self.ranks.iter() {
            layout_cache.absorb(&rank.ddt_cache.layout_stats());
        }
        {
            let lc = &layout_cache;
            self.telemetry
                .instant(Lane::Host, end_time, || Payload::LayoutCacheHealth {
                    hits: lc.hits(),
                    misses: lc.misses(),
                    evictions: lc.evictions(),
                    resident_bytes: lc.resident_bytes(),
                    high_water_bytes: lc.high_water_bytes(),
                });
        }
        RunReport {
            laps: self.ranks.iter().map(|r| r.laps.clone()).collect(),
            breakdowns: self.ranks.iter().map(|r| r.breakdown).collect(),
            lap_breakdowns: self
                .ranks
                .iter()
                .map(|r| r.lap_breakdowns.clone())
                .collect(),
            sched_stats: self
                .ranks
                .iter()
                .map(|r| r.sched.as_ref().map(|s| s.stats()))
                .collect(),
            kernels_launched: self.gpus.iter().map(|g| g.kernels_launched()).collect(),
            end_time,
            events_processed,
            event_clamps,
            wheel,
            wire_high_water,
            fault_summary: self.fault_stats,
            fabric: self
                .topo
                .as_ref()
                .map(|net| net.fabric_health())
                .unwrap_or_default(),
            shard: self.shard_stats,
            layout_cache,
        }
    }

    /// Read back a rank's buffer (tests verify end-to-end transfers).
    pub fn rank_buffer(&self, rank: RankId, buf: crate::program::BufId) -> Vec<u8> {
        let r = &self.ranks[rank.0 as usize];
        let ptr = r.bufs[buf.0];
        self.gpus[rank.0 as usize].mem.read(ptr).to_vec()
    }

    /// FNV-1a over the named buffers' bytes, in the order given — the
    /// end-to-end data-integrity fingerprint a faulty run is compared
    /// against its fault-free baseline with. `None` in
    /// [`DataMode::ModelOnly`], where buffers hold no bytes.
    pub fn checksum(
        &self,
        bufs: impl IntoIterator<Item = (RankId, crate::program::BufId)>,
    ) -> Option<u64> {
        if self.data_mode != DataMode::Full {
            return None;
        }
        let mut hash = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for (rank, buf) in bufs {
            let r = rank.0 as usize;
            for &byte in self.gpus[r].mem.read(self.ranks[r].bufs[buf.0]) {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
        Some(hash)
    }

    fn dispatch(&mut self, t: Time, ev: Event) {
        match ev {
            Event::Wake(r) => self.step_rank(r.0 as usize, t),
            Event::PackDone(r, sid) => self.on_pack_done(r.0 as usize, sid, t),
            Event::UnpackDone(r, rid) => self.on_unpack_done(r.0 as usize, rid, t),
            Event::FusionDone(r, uid) => self.on_fusion_done(r.0 as usize, uid, t),
            Event::Deliver(key) => {
                let msg = self.wire_slab.remove(key);
                self.on_deliver(msg, t)
            }
            Event::SendComplete(r, sid) => self.on_send_complete(r.0 as usize, sid, t),
        }
    }

    /// Effective processing time for rank work arriving at wall time `t`.
    pub(crate) fn eff_now(&self, r: usize, t: Time) -> Time {
        t.max(self.ranks[r].cpu)
    }

    /// Draw the next canonical event key for an event rank `r`
    /// originates: `(rank << 42) | counter`, advancing the rank's
    /// counter. Each rank draws in its own program order, so the sequence
    /// of keys is identical no matter how ranks are interleaved across
    /// shards — the determinism anchor of the sharded loop.
    #[inline]
    pub(crate) fn next_key(&mut self, r: usize) -> u64 {
        let rank = &mut self.ranks[r];
        let c = rank.key_counter;
        rank.key_counter += 1;
        debug_assert!(c < 1 << KEY_RANK_SHIFT, "rank event counter overflow");
        ((rank.id.0 as u64) << KEY_RANK_SHIFT) | c
    }

    /// Park a wire message in the slab and schedule its delivery under a
    /// pre-drawn canonical key. Deliveries addressed to a rank another
    /// shard owns go to that shard's outbox instead, admitted by the
    /// coordinator at the next window barrier.
    pub(crate) fn push_deliver(&mut self, at: Time, key: u64, msg: WireMsg) {
        let dst = msg.dst.0 as usize;
        if !self.ranks.contains_index(dst) {
            let shard = self.rank_shard[dst] as usize;
            self.outboxes[shard].push((at, key, msg));
            return;
        }
        let slab_key = self.wire_slab.insert(msg);
        self.events.push_at_key(at, key, Event::Deliver(slab_key));
    }

    /// Fetch the intra-node link between two nodes' GPUs, creating it on
    /// first use.
    pub(crate) fn intra_link(&mut self, a: u32, b: u32) -> &mut Link {
        let key = (a.min(b), a.max(b));
        let spec = self.platform.gpu_gpu.clone();
        self.intra_links
            .entry(key)
            .or_insert_with(|| Link::new(spec))
    }

    // ---- fault-injection hooks ------------------------------------------
    //
    // Every hook early-outs on `faults == None` (one untaken branch) and,
    // with a plan, on `probability <= 0` *before* drawing from the site's
    // RNG — which is what keeps no-plan and all-zero-plan runs bit-identical
    // to the pre-fault code (enforced by tests).

    /// Should a fault fire at `site` right now for rank `r`? Draws from
    /// the rank's own decision stream (shard-safe: a rank's events execute
    /// in the same relative order at any shard count), counts the
    /// injection, and marks the rank's timeline when it fires.
    pub(crate) fn fault_fires(&mut self, r: usize, site: FaultSite, at: Time) -> bool {
        let Some(plan) = self.faults.as_mut() else {
            return false;
        };
        if !plan.fires(site, r as u32) {
            return false;
        }
        self.fault_stats.injected += 1;
        self.ranks[r]
            .tele
            .instant(Lane::Host, at, || Payload::FaultInjected { site });
        true
    }

    /// Draw the latency spike for a site that just fired for rank `r`.
    pub(crate) fn fault_spike(&mut self, r: usize, site: FaultSite) -> Duration {
        self.faults
            .as_mut()
            .map_or(Duration::ZERO, |plan| plan.spike(site, r as u32))
    }

    /// Drain fabric state transitions from `net` and emit them as
    /// telemetry instants on the triggering sender's timeline.
    pub(crate) fn emit_fabric_events(&mut self, net: &mut TopoNet, src: usize) {
        for ev in net.drain_fabric_events() {
            let tele = &self.ranks[src].tele;
            match ev {
                FabricEvent::HopDown { hop, at } => {
                    tele.instant(Lane::Nic, at, || Payload::HopDown { hop });
                }
                FabricEvent::Rerouted { src, dst, at } => {
                    tele.instant(Lane::Nic, at, || Payload::Rerouted { src, dst });
                }
                FabricEvent::RailFailover { hop, at } => {
                    tele.instant(Lane::Nic, at, || Payload::RailFailover { hop });
                }
            }
        }
    }

    /// Record a retry decision (telemetry + counters).
    pub(crate) fn fault_retry(
        &mut self,
        r: usize,
        site: FaultSite,
        attempt: u32,
        backoff: Duration,
        at: Time,
    ) {
        self.fault_stats.retried += 1;
        let backoff_ns = backoff.as_nanos();
        self.ranks[r]
            .tele
            .instant(Lane::Host, at, || Payload::Retry {
                site,
                attempt,
                backoff_ns,
            });
    }

    /// Record a degradation-ladder step (telemetry + counters).
    pub(crate) fn fault_degraded(
        &mut self,
        r: usize,
        site: FaultSite,
        action: &'static str,
        at: Time,
    ) {
        self.fault_stats.degraded += 1;
        self.ranks[r]
            .tele
            .instant(Lane::Host, at, || Payload::Degraded { site, action });
    }

    /// Record a transparently absorbed fault (latency added, data intact).
    pub(crate) fn fault_recovered(&mut self, added: Duration) {
        self.fault_stats.recovered += 1;
        self.fault_stats.added_latency += added;
    }
}

impl Cluster {
    /// The data mode this cluster was built with.
    pub fn mode(&self) -> DataMode {
        self.data_mode
    }

    /// Fault-injection accounting so far (also returned in the
    /// [`RunReport`]).
    pub fn fault_summary(&self) -> FaultSummary {
        self.fault_stats
    }

    /// Acquire/release counters of the staged-payload buffer pool
    /// (diagnostics: steady-state traffic should be all hits). After a
    /// sharded run this is the merged total over every shard-local pool.
    pub fn staging_pool_stats(&self) -> fusedpack_gpu::PoolStats {
        let mut s = self.buf_pool.stats();
        s.hits += self.absorbed_pool.hits;
        s.misses += self.absorbed_pool.misses;
        s.released += self.absorbed_pool.released;
        s.dropped += self.absorbed_pool.dropped;
        s
    }

    /// Per-hop FIFO order violations observed by the routed network
    /// (always zero; asserted by the shard-window property tests). `None`
    /// without a topology.
    pub fn topo_order_violations(&self) -> Option<u64> {
        self.topo.as_ref().map(|net| net.order_violations())
    }

    /// The telemetry handle this cluster records into (disabled unless the
    /// builder attached one via [`ClusterBuilder::telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}
