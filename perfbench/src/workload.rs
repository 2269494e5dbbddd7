//! The three benchmark workloads: inputs generated from the seed, set-up,
//! one run, the virtual metrics read off its report, and the correctness
//! checks every run must pass.
//!
//! Everything here drives the workspace crates through their public API
//! only; the library receives the generated programs and nothing else.

use crate::trace::Tracer;
use fusedpack_datatype::Layout;
use fusedpack_gpu::{DataMode, PoolStats};
use fusedpack_mpi::{
    AppOp, BufId, BufInit, Cluster, ClusterBuilder, Program, RankId, RunReport, SchemeKind,
    TypeSlot,
};
use fusedpack_net::{Hierarchy, Platform, TopologyHandle};
use fusedpack_sim::{splitmix64, Duration, FaultPlan, FaultSite, FaultSpec, Pcg32};
use fusedpack_telemetry::Telemetry;
use fusedpack_workloads::halo::halo_programs;
use fusedpack_workloads::specfem::{specfem3d_cm, specfem3d_oc};
use fusedpack_workloads::{HaloGrid, Workload};
use std::sync::Arc;

/// The seed whose virtual metrics are pinned in [`expected`].
pub const DEFAULT_SEED: u64 = 42;

/// Torus extent per dimension: 8×8×8 = 512 ranks on 128 nodes.
pub const GRID: u32 = 8;
/// Buffers per neighbour per lap: 6 neighbours × 2 = 12 sends per rank.
pub const N_MSGS: usize = 2;
/// specfem3D boundary points per message (both halo and serve types).
pub const POINTS: u64 = 512;
/// Halo laps: one warm-up lap (cold layout caches and routes) plus
/// measured laps, so the steady lap cost outweighs the per-run fixed cost.
pub const HALO_WARMUP: usize = 1;
pub const HALO_MEASURED: usize = 3;
/// Per-hop-transit probability of the halo-bytes hop-down plan (the
/// `reproduce chaos-topo` hop-down profile).
pub const HOP_DOWN_P: f64 = 0.002;

/// Requests each serve rank posts per batch (the paper's §V-C width).
pub const SERVE_BATCH: usize = 16;
/// Leading serve batches left out of the latency distribution.
pub const SERVE_WARMUP: usize = 2;
/// Requests (Isends over both ranks) one serve run replays.
pub const SERVE_REQUESTS: u64 = 102_400;
/// `reproduce serve`'s request-size mix as `(multiplier, weight)`: 1×, 2×
/// and 4× the nominal message in the ratio 5:2:1.
pub const SERVE_MIX: [(u64, u32); 3] = [(1, 5), (2, 2), (4, 1)];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 512-rank torus halo, timing only.
    HaloModel,
    /// The same halo with real bytes and a hop-down fault plan.
    HaloBytes,
    /// Two ranks on the flat wire serving saturating request batches.
    ServeMix,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::HaloModel, Kind::HaloBytes, Kind::ServeMix];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HaloModel => "halo-model",
            Kind::HaloBytes => "halo-bytes",
            Kind::ServeMix => "serve-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Kind::HaloModel => {
                "512-rank torus halo in ModelOnly mode: the control path (event wheel, routed \
                 fabric, fusion scheduler, MPI protocol) does all the work and no byte is copied"
            }
            Kind::HaloBytes => {
                "the same halo in Full mode with a seeded hop-down plan: the copy engine, \
                 buffer set-up and reroute paths run, checked by a receive-buffer checksum"
            }
            Kind::ServeMix => {
                "one long-lived 2-rank cluster serving 16-request batches in a 5:2:1 size \
                 mix: one deep queue where per-event and per-request costs dominate"
            }
        }
    }

    pub fn mode(self) -> DataMode {
        match self {
            Kind::HaloBytes => DataMode::Full,
            Kind::HaloModel | Kind::ServeMix => DataMode::ModelOnly,
        }
    }

    pub fn is_halo(self) -> bool {
        self != Kind::ServeMix
    }

    /// The exchanged datatype.
    pub fn workload(self) -> Workload {
        if self.is_halo() {
            specfem3d_cm(POINTS)
        } else {
            specfem3d_oc(POINTS)
        }
    }
}

/// Everything the seed decides for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub kind: Kind,
    pub seed: u64,
    /// Base seed of the send-buffer contents.
    pub buf_seed: u64,
    /// Seed of the hop-down plan (halo-bytes only); `None` runs fault-free.
    pub fault_seed: Option<u64>,
    /// Element count of every lap, warm-up included. Halo laps all use the
    /// type's nominal count; serve laps follow the seeded size mix.
    pub counts: Vec<u64>,
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let nominal = kind.workload().count;
        let counts = match kind {
            Kind::HaloModel | Kind::HaloBytes => vec![nominal; HALO_WARMUP + HALO_MEASURED],
            Kind::ServeMix => {
                let laps = SERVE_REQUESTS.div_ceil(2 * SERVE_BATCH as u64) as usize + SERVE_WARMUP;
                let total: u32 = SERVE_MIX.iter().map(|&(_, w)| w).sum();
                let mut rng = Pcg32::new(splitmix64(seed ^ 0x5e7e), 0x517e);
                (0..laps)
                    .map(|_| {
                        let mut draw = rng.next_below(total);
                        let mut mult = SERVE_MIX[0].0;
                        for &(m, w) in &SERVE_MIX {
                            if draw < w {
                                mult = m;
                                break;
                            }
                            draw -= w;
                        }
                        nominal * mult
                    })
                    .collect()
            }
        };
        Inputs {
            kind,
            seed,
            buf_seed: splitmix64(seed ^ 0xb0f) >> 16,
            fault_seed: (kind == Kind::HaloBytes).then(|| splitmix64(seed ^ 0xfa17)),
            counts,
        }
    }

    /// The same inputs with the fault plan removed: the reference run
    /// whose checksum every faulted run must reproduce.
    pub fn fault_free(&self) -> Inputs {
        Inputs {
            fault_seed: None,
            ..self.clone()
        }
    }

    /// The same inputs cut to their first `laps` laps.
    pub fn with_laps(&self, laps: usize) -> Inputs {
        assert!(laps >= 1 && laps <= self.counts.len());
        Inputs {
            counts: self.counts[..laps].to_vec(),
            ..self.clone()
        }
    }

    pub fn laps(&self) -> usize {
        self.counts.len()
    }

    /// Laps excluded from the virtual latency figures.
    pub fn warmup(&self) -> usize {
        let w = if self.kind.is_halo() {
            HALO_WARMUP
        } else {
            SERVE_WARMUP
        };
        w.min(self.laps() - 1)
    }

    pub fn ranks(&self) -> u32 {
        if self.kind.is_halo() {
            grid().ranks()
        } else {
            2
        }
    }

    /// Messages one rank sends per lap.
    pub fn sends_per_rank_lap(&self) -> usize {
        if self.kind.is_halo() {
            6 * N_MSGS
        } else {
            SERVE_BATCH
        }
    }

    /// Messages a whole run delivers: the numerator of `msgs_per_s`.
    pub fn messages(&self) -> u64 {
        self.ranks() as u64 * self.sends_per_rank_lap() as u64 * self.laps() as u64
    }

    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.fault_seed.map(|s| {
            FaultPlan::new(s).with(FaultSite::HopDown, FaultSpec::with_probability(HOP_DOWN_P))
        })
    }
}

pub(crate) fn grid() -> HaloGrid {
    HaloGrid::new_3d(GRID, GRID, GRID)
}

/// The fabric the halo runs on: the Lassen-like fat tree for 128 nodes.
pub(crate) fn topology() -> TopologyHandle {
    Arc::new(Hierarchy::lassen_like(grid().ranks() / 4))
}

/// One rank's serve program: every lap posts `SERVE_BATCH` receives and
/// sends at that lap's element count, waits for all of them, and records
/// the lap. The same shape as `workloads::run_serve` at zero think time,
/// with the per-lap counts supplied by the caller.
fn serve_program(wl: &Workload, counts: &[u64], seed: u64, peer: RankId) -> Program {
    let max_count = counts.iter().copied().max().unwrap_or(1);
    let buf_len = Layout::of(&wl.desc).footprint(max_count).max(1);
    let mut p = Program::new();
    let send: Vec<BufId> = (0..SERVE_BATCH)
        .map(|i| p.buffer(buf_len, BufInit::Random(seed + i as u64)))
        .collect();
    let recv: Vec<BufId> = (0..SERVE_BATCH)
        .map(|_| p.buffer(buf_len, BufInit::Zero))
        .collect();
    p.push(AppOp::Commit {
        slot: TypeSlot(0),
        desc: wl.desc.clone(),
    });
    for &count in counts {
        p.push(AppOp::ResetTimer);
        for (i, &buf) in recv.iter().enumerate() {
            p.push(AppOp::Irecv {
                buf,
                ty: TypeSlot(0),
                count,
                src: peer,
                tag: i as u32,
            });
        }
        for (i, &buf) in send.iter().enumerate() {
            p.push(AppOp::Isend {
                buf,
                ty: TypeSlot(0),
                count,
                dst: peer,
                tag: i as u32,
            });
        }
        p.push(AppOp::Waitall);
        p.push(AppOp::RecordLap);
    }
    p
}

/// How a run is executed, apart from its inputs.
#[derive(Default)]
pub struct RunOpts {
    /// Event-loop shards; 0 and 1 both run the single queue.
    pub shards: u32,
    /// Recorder attached through `ClusterBuilder::telemetry`.
    pub telemetry: Option<Telemetry>,
}

/// Host seconds of one set-up: the whole of it, and its two layer calls.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub setup_s: f64,
    pub programs_s: f64,
    pub build_s: f64,
}

/// A built cluster, ready to run.
struct Prepared {
    cluster: Cluster,
    /// Receive buffers per rank, in (neighbour, message) order.
    recv: Vec<Vec<BufId>>,
    times: SetupTimes,
}

/// Build the workload's cluster: topology, programs, `ClusterBuilder::build`.
fn prepare(inputs: &Inputs, opts: &RunOpts, tr: &mut Tracer) -> Prepared {
    let kind = inputs.kind;
    let (prepared, setup_s) = tr.span("bench.setup", |tr| {
        let platform = Platform::lassen();
        let wl = kind.workload();
        let mut builder = ClusterBuilder::new(platform.clone(), SchemeKind::fusion_default())
            .data_mode(kind.mode())
            .shards(opts.shards);
        if let Some(t) = &opts.telemetry {
            builder = builder.telemetry(t.clone());
        }
        let mut recv = Vec::new();
        let programs_s = if kind.is_halo() {
            let (topo, _) = tr.span("net.topology", |_| topology());
            builder = builder.topology(topo);
            if let Some(plan) = inputs.fault_plan() {
                builder = builder.fault_plan(plan);
            }
            let (programs, programs_s) = tr.span("workloads.halo_programs", |_| {
                halo_programs(&grid(), &wl, N_MSGS, inputs.laps(), inputs.buf_seed)
            });
            for (rank, (program, bufs)) in programs.into_iter().enumerate() {
                builder = builder.add_rank(rank as u32 / platform.gpus_per_node, program);
                recv.push(bufs.recv.into_iter().flatten().collect());
            }
            programs_s
        } else {
            let ((p0, p1), programs_s) = tr.span("workloads.serve_programs", |_| {
                (
                    serve_program(&wl, &inputs.counts, inputs.buf_seed, RankId(1)),
                    serve_program(&wl, &inputs.counts, inputs.buf_seed + 1000, RankId(0)),
                )
            });
            builder = builder.add_rank(0, p0).add_rank(1, p1);
            programs_s
        };
        let (cluster, build_s) = tr.span("mpi.build", |_| builder.build());
        (cluster, recv, programs_s, build_s)
    });
    let (cluster, recv, programs_s, build_s) = prepared;
    Prepared {
        cluster,
        recv,
        times: SetupTimes {
            setup_s,
            programs_s,
            build_s,
        },
    }
}

/// What one run produced. The cluster is dropped before this returns, so
/// back-to-back runs never hold two clusters at once.
#[derive(Debug)]
pub struct Outcome {
    pub report: RunReport,
    /// Host seconds inside `Cluster::run`.
    pub run_s: f64,
    /// FNV-1a over every receive buffer (Full mode only).
    pub checksum: Option<u64>,
    pub order_violations: u64,
    pub hop_bytes: u64,
    pub busiest_hop_busy: Duration,
    pub pool: PoolStats,
}

fn run(prepared: Prepared, tr: &mut Tracer) -> Outcome {
    let Prepared {
        mut cluster, recv, ..
    } = prepared;
    let (report, run_s) = tr.span("mpi.run", |_| cluster.run());
    let (checksum, _) = tr.span("bench.verify", |_| {
        (cluster.mode() == DataMode::Full).then(|| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for (rank, bufs) in recv.iter().enumerate() {
                for &buf in bufs {
                    for byte in cluster.rank_buffer(RankId(rank as u32), buf) {
                        h ^= byte as u64;
                        h = h.wrapping_mul(0x0100_0000_01b3);
                    }
                }
            }
            h
        })
    });
    let hops = cluster.topo_hop_stats().unwrap_or_default();
    let outcome = Outcome {
        run_s,
        checksum,
        order_violations: cluster.topo_order_violations().unwrap_or(0),
        hop_bytes: hops.iter().map(|h| h.bytes).sum(),
        busiest_hop_busy: hops.iter().map(|h| h.busy).max().unwrap_or(Duration::ZERO),
        pool: cluster.staging_pool_stats(),
        report,
    };
    tr.span("bench.teardown", |_| drop(cluster));
    outcome
}

/// Set up and run once.
pub fn run_once(inputs: &Inputs, opts: &RunOpts, tr: &mut Tracer) -> (SetupTimes, Outcome) {
    let prepared = prepare(inputs, opts, tr);
    let times = prepared.times;
    (times, run(prepared, tr))
}

/// Virtual-time results of one run: deterministic for a given seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Virtual {
    /// Mean makespan of the measured laps (serve: batches).
    pub lap_mean_ns: u64,
    /// Nearest-rank percentiles of the measured lap makespans.
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Measured laps the figures above are taken over.
    pub samples: usize,
    /// Virtual end time of the whole run.
    pub end_ns: u64,
}

impl Virtual {
    pub fn of(inputs: &Inputs, report: &RunReport) -> Virtual {
        let mut laps: Vec<u64> = (inputs.warmup()..inputs.laps())
            .map(|i| report.lap_makespan(i).as_nanos())
            .collect();
        laps.sort_unstable();
        let n = laps.len() as u64;
        let pct = |num: u64| laps[((n * num).div_ceil(100).clamp(1, n) - 1) as usize];
        Virtual {
            lap_mean_ns: laps.iter().sum::<u64>() / n,
            p50_ns: pct(50),
            p99_ns: pct(99),
            samples: laps.len(),
            end_ns: report.end_time.0,
        }
    }

    /// Messages delivered per virtual second.
    pub fn rps(&self, inputs: &Inputs) -> f64 {
        inputs.messages() as f64 / (self.end_ns as f64 / 1e9)
    }
}

/// The virtual metrics recorded for [`DEFAULT_SEED`]; every run at that
/// seed must reproduce them exactly.
pub fn expected(kind: Kind) -> Virtual {
    match kind {
        Kind::HaloModel => Virtual {
            lap_mean_ns: 576_667,
            p50_ns: 583_461,
            p99_ns: 607_494,
            samples: HALO_MEASURED,
            end_ns: 1_684_521,
        },
        Kind::HaloBytes => Virtual {
            lap_mean_ns: 498_578,
            p50_ns: 483_062,
            p99_ns: 544_668,
            samples: HALO_MEASURED,
            end_ns: 1_518_190,
        },
        Kind::ServeMix => Virtual {
            lap_mean_ns: 102_645,
            p50_ns: 101_888,
            p99_ns: 105_602,
            samples: 3_200,
            end_ns: 328_671_558,
        },
    }
}

/// Correctness checks counted into `fail_rate`. A failed check is
/// recorded and reported; it never stops the run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// One line per distinct failure (first occurrence only).
    pub failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let line = what();
            if !self.failures.contains(&line) {
                self.failures.push(line);
            }
        }
    }

    /// Check one run against the workload's invariants. `reference` is the
    /// fault-free checksum for halo-bytes.
    pub fn run(&mut self, inputs: &Inputs, out: &Outcome, reference: Option<u64>) {
        let r = &out.report;
        let laps = inputs.laps();
        self.expect(
            r.laps.len() == inputs.ranks() as usize && r.laps.iter().all(|l| l.len() == laps),
            || format!("not every rank recorded all {laps} laps"),
        );
        self.expect(r.event_clamps.count == 0, || {
            format!("{} event clamps", r.event_clamps.count)
        });
        self.expect(out.order_violations == 0, || {
            format!("{} hop order violations", out.order_violations)
        });
        if let Some(want) = reference {
            self.expect(out.checksum == Some(want), || {
                let got = out.checksum.map_or("none".into(), |c| format!("{c:#018x}"));
                format!("receive checksum {got} differs from the fault-free {want:#018x}")
            });
        }
        if inputs.kind == Kind::ServeMix {
            // Each posted request is packed once by its sender and unpacked
            // once by its receiver, all through the fusion scheduler.
            let posted = inputs.messages();
            let (enqueued, fused) = r.sched_stats.iter().flatten().fold((0, 0), |acc, s| {
                (acc.0 + s.enqueued, acc.1 + s.requests_fused)
            });
            self.expect(enqueued == 2 * posted && fused == 2 * posted, || {
                format!("posted {posted} requests, scheduler enqueued {enqueued} and fused {fused}")
            });
        }
        if *inputs == Inputs::generate(inputs.kind, DEFAULT_SEED) {
            let got = Virtual::of(inputs, r);
            let want = expected(inputs.kind);
            self.expect(got == want, || {
                format!("virtual metrics {got:?} differ from the recorded {want:?}")
            });
        }
    }
}
