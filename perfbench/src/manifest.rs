//! The metric table: every metric's unit, direction, kind and the
//! end-to-end metric a layer metric should move. `BENCHMARK.json` and
//! `perfbench/metrics.json` are rendered from it (`--manifest`), and a test
//! keeps the committed files equal to the rendering.

use crate::workload::{self, Kind, DEFAULT_SEED};
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Which clock or counter a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Host time or a rate of it: how fast the simulator runs. Noisy.
    Host,
    /// Virtual time: what the modelled cluster would take. Deterministic
    /// per seed; a host-speed change must leave it identical.
    Virtual,
    /// A deterministic count or ratio of counts.
    Count,
}

impl MetricKind {
    fn label(self) -> &'static str {
        match self {
            MetricKind::Host => "host",
            MetricKind::Virtual => "virtual",
            MetricKind::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: MetricKind,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// What the number is.
    pub what: &'static str,
    /// The end-to-end metric and workload a change to it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: MetricKind,
    what: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        kind,
        bound: None,
        what,
        moves,
    }
}

use Better::{Higher, Lower};
use MetricKind::{Count, Host, Virtual};

/// Printed with `--trace 0`, from the untraced runs.
pub const END_TO_END: [Metric; 3] = [
    Metric {
        bound: Some(0.2),
        ..m(
            "msgs_per_s",
            "1/s",
            Higher,
            Host,
            "messages delivered per host second of Cluster::run, median over runs, each \
             run scaled to the reference host speed (6144 per halo lap; the request count \
             for serve)",
            "headline",
        )
    },
    Metric {
        bound: Some(0.25),
        ..m(
            "setup_s",
            "s",
            Lower,
            Host,
            "host seconds from workload start to the Cluster::run call: topology, \
             programs and ClusterBuilder::build, median over runs, each run scaled to the \
             reference host speed",
            "headline",
        )
    },
    Metric {
        bound: Some(0.1),
        ..m(
            "peak_rss_mib",
            "MiB",
            Lower,
            Host,
            "resident-memory high-water mark of the process running the workload, \
             median over runs",
            "headline",
        )
    },
];

/// Printed with `--trace 1`, from the traced pass. The first five are the
/// virtual end-to-end figures; they need no trace but are deterministic,
/// so they ride with the per-layer numbers.
#[rustfmt::skip]
pub const PER_LAYER: [Metric; 57] = [
    m("sim_lap_us", "vus", Lower, Virtual,
      "virtual mean makespan of the measured laps (serve: batches), from RunReport::lap_makespan",
      "virtual end to end"),
    m("sim_p50_us", "vus", Lower, Virtual,
      "nearest-rank median of the measured lap makespans; for serve the per-batch service \
       latency of a closed loop, not a response time",
      "virtual end to end"),
    m("sim_p99_us", "vus", Lower, Virtual,
      "nearest-rank 99th percentile of the measured lap makespans (see sim_lap_samples)",
      "virtual end to end"),
    m("sim_lap_samples", "count", Higher, Count,
      "measured laps the virtual percentiles are taken over",
      "virtual end to end"),
    m("sim_rps", "1/vs", Higher, Virtual,
      "messages (serve: requests) per virtual second of the whole run",
      "virtual end to end"),
    // sim
    m("sim.events", "count", Lower, Count,
      "events Cluster::run processed", "msgs_per_s on serve-mix"),
    m("sim.ns_per_event", "ns", Lower, Host,
      "median untraced run_s divided by sim.events", "msgs_per_s on serve-mix"),
    m("sim.wheel.cascades_per_event", "ratio", Lower, Count,
      "timing-wheel cascades per processed event", "msgs_per_s on halo-model"),
    m("sim.wheel.overflow_hits", "count", Lower, Count,
      "pushes beyond the wheel horizon", "msgs_per_s on halo-model"),
    m("sim.wheel.slab_high_water", "count", Lower, Count,
      "peak events resident in the event slab", "msgs_per_s on halo-model"),
    m("sim.queue_ns", "ns", Lower, Host,
      "EventQueue::push_at + pop replayed at the run's slab depth and event spacing",
      "msgs_per_s on serve-mix"),
    m("sim.shard.barriers", "count", Lower, Count,
      "window barriers of the same run on 2 shards", "sim.shard.speedup"),
    m("sim.shard.stall_s", "s", Lower, Host,
      "ShardStats barrier_wall_ns + stall_wall_ns of the same run on 2 shards, median",
      "sim.shard.speedup"),
    m("sim.shard.speedup", "x", Higher, Host,
      "median 1-shard run_s over median 2-shard run_s",
      "msgs_per_s of sharded runs, halo-model first (the timed runs use one shard)"),
    // datatype
    m("datatype.commit_us", "us", Lower, Host,
      "LayoutCache::commit of the workload type on a fresh cache (a compile)",
      "msgs_per_s on halo-* (512 commits per run)"),
    m("datatype.acquire_ns", "ns", Lower, Host,
      "LayoutCache::acquire hit", "msgs_per_s on serve-mix"),
    m("datatype.pack_gbps", "GB/s", Higher, Host,
      "pack::pack_into at the workload's counts",
      "msgs_per_s on halo-bytes; no change on halo-model or serve-mix"),
    m("datatype.unpack_gbps", "GB/s", Higher, Host,
      "pack::unpack at the workload's counts",
      "msgs_per_s on halo-bytes; no change on halo-model or serve-mix"),
    m("datatype.memcpy_gbps", "GB/s", Higher, Host,
      "plain copy of the same bytes: the roofline for pack and unpack", "roofline only"),
    m("datatype.cache.hits", "count", Higher, Count,
      "layout-cache hits over all ranks", "msgs_per_s on serve-mix"),
    m("datatype.cache.misses", "count", Lower, Count,
      "layout-cache misses (compiles) over all ranks", "setup_s and msgs_per_s on halo-*"),
    m("datatype.cache.evictions", "count", Lower, Count,
      "layout-cache LRU evictions", "msgs_per_s"),
    // gpu
    m("gpu.gather_gbps", "GB/s", Higher, Host,
      "MemPool gather under the workload's CopyPlan", "msgs_per_s on halo-bytes only"),
    m("gpu.scatter_gbps", "GB/s", Higher, Host,
      "MemPool scatter under the workload's CopyPlan", "msgs_per_s on halo-bytes only"),
    m("gpu.kernels", "count", Lower, Count,
      "kernel launches over all GPUs", "sim_lap_us and sim_p99_us"),
    m("gpu.pool.hit_rate", "frac", Higher, Count,
      "staging BufferPool takes served from the freelist (0 when nothing was staged)",
      "peak_rss_mib and msgs_per_s on halo-bytes and serve-mix"),
    // core
    m("core.sched.enqueued", "count", Lower, Count,
      "fusion-scheduler enqueues over all ranks", "sim_lap_us and sim_rps"),
    m("core.sched.flushes_sync", "count", Lower, Count,
      "flushes at a sync point", "sim_lap_us and sim_rps"),
    m("core.sched.flushes_threshold", "count", Lower, Count,
      "flushes at the byte threshold", "sim_lap_us and sim_rps"),
    m("core.sched.flushes_pressure", "count", Lower, Count,
      "flushes under ring pressure", "sim_lap_us and sim_rps"),
    m("core.sched.batch_mean", "req", Higher, Count,
      "requests per fused kernel", "sim_lap_us and sim_rps"),
    m("core.sched_cycle_ns", "ns", Lower, Host,
      "Scheduler enqueue of one rank-lap of requests, flush, completion and retire",
      "msgs_per_s on serve-mix"),
    // net
    m("net.route_cold_ms", "ms", Lower, Host,
      "TopoNet::resolve of every rank pair on a fresh net (serve: the flat wire)",
      "setup_s and msgs_per_s on halo-*; no change on serve-mix"),
    m("net.transmit_ns", "ns", Lower, Host,
      "TopoNet::transmit_keyed replaying the pair list at message size",
      "msgs_per_s on halo-model"),
    m("net.hop_bytes", "B", Lower, Count,
      "bytes summed over every hop (0 without a topology)", "sim_lap_us"),
    m("net.busiest_hop_busy_us", "vus", Lower, Virtual,
      "busiest hop's total occupancy", "sim_lap_us"),
    m("net.fabric.downs", "count", Lower, Count, "hops taken down by faults", "halo-bytes"),
    m("net.fabric.reroutes", "count", Lower, Count, "ECMP re-resolutions around dead hops",
      "halo-bytes"),
    m("net.fabric.rail_failovers", "count", Lower, Count, "dual-rail NIC failovers",
      "halo-bytes"),
    m("net.fabric.disconnects", "count", Lower, Count,
      "transfers with no surviving route, forced through the flat wire", "halo-bytes"),
    // mpi
    m("mpi.build_s", "s", Lower, Host, "ClusterBuilder::build, median", "setup_s"),
    m("mpi.run_s", "s", Lower, Host, "Cluster::run, median of the untraced runs",
      "msgs_per_s"),
    m("mpi.run_1lap_s", "s", Lower, Host, "Cluster::run of the same workload cut to one lap",
      "msgs_per_s on halo-model"),
    m("mpi.steady_lap_s", "s", Lower, Host,
      "(run_s - run_1lap_s) / (laps - 1): host cost of a lap once the fixed cost is paid",
      "msgs_per_s on halo-model"),
    m("mpi.breakdown.pack_us", "vus", Lower, Virtual,
      "Fig. 11 pack bucket per rank per lap", "sim_lap_us and sim_p99_us"),
    m("mpi.breakdown.launch_us", "vus", Lower, Virtual,
      "Fig. 11 launch bucket per rank per lap", "sim_lap_us and sim_p99_us"),
    m("mpi.breakdown.scheduling_us", "vus", Lower, Virtual,
      "Fig. 11 scheduling bucket per rank per lap", "sim_lap_us and sim_p99_us"),
    m("mpi.breakdown.sync_us", "vus", Lower, Virtual,
      "Fig. 11 sync bucket per rank per lap", "sim_lap_us and sim_p99_us"),
    m("mpi.breakdown.comm_us", "vus", Lower, Virtual,
      "Fig. 11 comm bucket per rank per lap", "sim_lap_us and sim_p99_us"),
    m("mpi.wire_high_water", "count", Lower, Count, "peak in-flight wire messages",
      "halo-bytes"),
    m("mpi.faults.retries", "count", Lower, Count, "retransmission attempts", "halo-bytes"),
    m("mpi.faults.degraded", "count", Lower, Count,
      "degradation ladders taken (forced delivery included)", "halo-bytes"),
    m("mpi.faults.forced", "count", Lower, Count,
      "transfers whose retry budget ran out and were forced through", "halo-bytes"),
    // telemetry
    m("telemetry.overhead_frac", "frac", Lower, Host,
      "traced run_s over median untraced run_s, minus one",
      "none: a disabled recorder must cost msgs_per_s nothing"),
    m("telemetry.events_recorded", "count", Lower, Count,
      "events the enabled recorder kept", "telemetry.overhead_frac"),
    m("telemetry.dropped", "count", Lower, Count,
      "events dropped at the recorder's capacity", "telemetry.overhead_frac"),
    // workloads
    m("workloads.programs_s", "s", Lower, Host,
      "program generation (halo_programs; serve: Program/AppOp), median",
      "setup_s on halo-*"),
];

fn q(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn better(b: Better) -> &'static str {
    match b {
        Higher => "higher",
        Lower => "lower",
    }
}

/// The run length the benchmark is declared with.
pub const RUN_SECONDS: u64 = 30;

/// `BENCHMARK.json` at the repository root.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s += "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
          \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n";
    s += "  \"paths\": [\"perfbench\"],\n";
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s += "  \"workloads\": [\n";
    for (i, k) in Kind::ALL.iter().enumerate() {
        let sep = if i + 1 < Kind::ALL.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{sep}",
            q(k.name()),
            q(k.why())
        );
    }
    s += "  ],\n  \"end_to_end\": [\n";
    for (i, e) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{sep}",
            q(e.name),
            q(e.unit),
            q(better(e.better)),
            e.bound.expect("end-to-end metrics carry a bound")
        );
    }
    s += "  ],\n  \"per_layer\": [\n";
    for (i, e) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{sep}",
            q(e.name),
            q(e.unit),
            q(better(e.better))
        );
    }
    s += "  ]\n}\n";
    s
}

/// Notes that qualify every number the benchmark prints.
pub const NOTES: [&str; 8] = [
    "host: 2 cores (nproc = 2); host speed swings up to 2x between runs, so compare \
     medians over many runs and trust a gain only by the rule in the choosing-metrics guide",
    "the performance model is unvalidated against real hardware: virtual metrics pin \
     regressions and make no accuracy claim",
    "serve-mix is a closed loop (each rank waits for its batch before posting the next), \
     so sim_p50_us and sim_p99_us are service latency, not response time under load",
    "msgs_per_s and setup_s are scaled to the reference host speed: each run times a \
     fixed host probe (perfbench/src/calib.rs, no workspace code) just before set-up \
     and just after Cluster::run, and divides its host times by the probe's slowdown \
     against its reference time; the printout also gives the unscaled figures",
    "the timed runs use one event-loop shard: on this 2-vCPU host a 2-shard halo run \
     spends nearly all its wall time waiting at window barriers for the other vCPU \
     (sim.shard.stall_s close to run_s), and its run time swung from 0.27 s to 1.3 s \
     between consecutive runs while its CPU time moved about 9%; the sharded loop is \
     measured in the traced pass (sim.shard.*)",
    "every run is a fresh process: set-up, run and memory are measured from a cold \
     allocator, and no workload inherits allocator or staging-pool state from another",
    "unit vus is microseconds of virtual (simulated) time and 1/vs is per virtual second; \
     s, ms, us and ns are host time",
    "virtual metrics and counts are identical at any shard count and with or without \
     telemetry; at seed 42 every run checks them against expected_at_seed_42",
];

/// `perfbench/metrics.json`: what `BENCHMARK.json` has no room for.
pub fn metrics_json() -> String {
    let mut s = String::from("{\n  \"notes\": [\n");
    for (i, n) in NOTES.iter().enumerate() {
        let sep = if i + 1 < NOTES.len() { "," } else { "" };
        let _ = writeln!(s, "    {}{sep}", q(n));
    }
    s += "  ],\n  \"workloads\": [\n";
    for (i, k) in Kind::ALL.iter().enumerate() {
        let sep = if i + 1 < Kind::ALL.len() { "," } else { "" };
        let inputs = workload::Inputs::generate(*k, DEFAULT_SEED);
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}, \"laps\": {}, \"messages\": {}}}{sep}",
            q(k.name()),
            q(k.why()),
            inputs.laps(),
            inputs.messages()
        );
    }
    s += "  ],\n  \"metrics\": [\n";
    let all: Vec<(&str, &Metric)> = END_TO_END
        .iter()
        .map(|m| ("end_to_end", m))
        .chain(PER_LAYER.iter().map(|m| ("per_layer", m)))
        .collect();
    for (i, (table, e)) in all.iter().enumerate() {
        let sep = if i + 1 < all.len() { "," } else { "" };
        let layer = if *table == "end_to_end" || e.name.starts_with("sim_") {
            "end_to_end"
        } else {
            e.name.split('.').next().unwrap_or(e.name)
        };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"kind\": {}, \"layer\": {}, \
             \"printed_with\": {}, \"what\": {}, \"moves\": {}}}{sep}",
            q(e.name),
            q(e.unit),
            q(better(e.better)),
            q(e.kind.label()),
            q(layer),
            q(if *table == "end_to_end" {
                "--trace 0"
            } else {
                "--trace 1"
            }),
            q(e.what),
            q(e.moves)
        );
    }
    s += "  ],\n  \"expected_at_seed_42\": {\n";
    for (i, k) in Kind::ALL.iter().enumerate() {
        let sep = if i + 1 < Kind::ALL.len() { "," } else { "" };
        let v = workload::expected(*k);
        let _ = writeln!(
            s,
            "    {}: {{\"lap_mean_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"samples\": {}, \
             \"end_ns\": {}}}{sep}",
            q(k.name()),
            v.lap_mean_ns,
            v.p50_ns,
            v.p99_ns,
            v.samples,
            v.end_ns
        );
    }
    s += "  }\n}\n";
    s
}
