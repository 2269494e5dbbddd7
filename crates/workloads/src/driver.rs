//! The exchange runners: [`run_exchange`] for the two-rank bulk exchange
//! and [`run_phase_shift`] for its phase-changing variant, plus the
//! cluster prologue and measured-lap bookkeeping every runner of this
//! crate shares.

use crate::bulk::{bulk_exchange_programs, phase_shift_programs};
use crate::Workload;
use fusedpack_core::SchedStats;
use fusedpack_gpu::DataMode;
use fusedpack_mpi::{Breakdown, ClusterBuilder, RankId, RunReport, SchemeKind};
use fusedpack_net::Platform;
use fusedpack_sim::{ClampStats, Duration, FaultPlan, FaultSummary};
use fusedpack_telemetry::Telemetry;

/// Configuration of one exchange measurement.
#[derive(Clone)]
pub struct ExchangeConfig {
    pub platform: Platform,
    pub scheme: SchemeKind,
    pub workload: Workload,
    /// Buffers exchanged each way per iteration.
    pub n_msgs: usize,
    /// Iterations discarded for warm-up (layout caches, allocator).
    pub warmup_laps: usize,
    /// Iterations measured.
    pub measured_laps: usize,
    /// `ModelOnly` for timing sweeps, `Full` when bytes must be real (the
    /// outcome's checksum is `Some` only then).
    pub mode: DataMode,
    /// Fault plan armed on the cluster (the chaos harness). `None` runs
    /// fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Live recorder the cluster's events land in (tagged per rank).
    pub telemetry: Option<Telemetry>,
}

impl ExchangeConfig {
    /// The defaults used by the figure harnesses: one warm-up iteration,
    /// one measured iteration (the simulation is deterministic, so the
    /// paper's 500-iteration averaging collapses to a single warm lap),
    /// timing-only memory, no faults, no trace.
    pub fn new(platform: Platform, scheme: SchemeKind, workload: Workload, n_msgs: usize) -> Self {
        ExchangeConfig {
            platform,
            scheme,
            workload,
            n_msgs,
            warmup_laps: 1,
            measured_laps: 1,
            mode: DataMode::ModelOnly,
            fault_plan: None,
            telemetry: None,
        }
    }
}

/// Results of one exchange measurement.
#[derive(Debug, Clone)]
pub struct ExchangeOutcome {
    /// Mean makespan of the measured iterations — the paper's reported
    /// latency.
    pub latency: Duration,
    /// Individual measured-iteration makespans.
    pub lap_latencies: Vec<Duration>,
    /// Per-iteration cost buckets, summed over both ranks and averaged
    /// over measured iterations (Fig. 11).
    pub breakdown: Breakdown,
    /// Each rank's whole-run [`Breakdown`] — the external ledger a traced
    /// run's timeline can be [`fusedpack_telemetry::reconcile`]d against.
    pub breakdowns: Vec<Breakdown>,
    /// Fusion scheduler statistics (rank 0), if the scheme fuses.
    pub sched: Option<SchedStats>,
    /// Total kernel launches across both GPUs over the whole run.
    pub kernels: u64,
    /// What the fault plan did to this run.
    pub faults: FaultSummary,
    /// Past-event clamps the event queue had to repair. Must be zero on a
    /// fault-free run — the chaos report fails its baseline otherwise.
    pub clamps: ClampStats,
    /// `Cluster::checksum` (word-at-a-time FNV-1a) over both ranks'
    /// receive buffers (rank 0's first), the end-to-end data-integrity
    /// fingerprint; `Some` only in [`DataMode::Full`]. A faulty run
    /// recovered correctly iff its checksum equals the fault-free run's.
    pub checksum: Option<u64>,
}

/// The cluster prologue every runner shares: platform, scheme, data mode
/// and the optional fault plan and telemetry recorder.
pub(crate) fn cluster_builder(
    platform: &Platform,
    scheme: &SchemeKind,
    mode: DataMode,
    fault_plan: Option<&FaultPlan>,
    telemetry: Option<&Telemetry>,
) -> ClusterBuilder {
    let mut builder = ClusterBuilder::new(platform.clone(), scheme.clone()).data_mode(mode);
    if let Some(plan) = fault_plan {
        builder = builder.fault_plan(plan.clone());
    }
    if let Some(t) = telemetry {
        builder = builder.telemetry(t.clone());
    }
    builder
}

/// Makespans of laps `warmup..laps`, and their mean (zero when empty).
pub(crate) fn measured_laps(
    report: &RunReport,
    warmup: usize,
    laps: usize,
) -> (Vec<Duration>, Duration) {
    let measured: Vec<Duration> = (warmup..laps).map(|i| report.lap_makespan(i)).collect();
    let mean = match measured.len() {
        0 => Duration::ZERO,
        n => measured.iter().copied().sum::<Duration>() / n as u64,
    };
    (measured, mean)
}

/// Run one bulk-exchange measurement: timing, fault accounting and, in
/// [`DataMode::Full`], the receive-buffer checksum.
pub fn run_exchange(cfg: &ExchangeConfig) -> ExchangeOutcome {
    let laps = cfg.warmup_laps + cfg.measured_laps;
    let ((p0, b0), (p1, b1)) = bulk_exchange_programs(&cfg.workload, cfg.n_msgs, laps, 7);
    let mut cluster = cluster_builder(
        &cfg.platform,
        &cfg.scheme,
        cfg.mode,
        cfg.fault_plan.as_ref(),
        cfg.telemetry.as_ref(),
    )
    .add_rank(0, p0)
    .add_rank(1, p1)
    .build();
    let report = cluster.run();
    let (lap_latencies, latency) = measured_laps(&report, cfg.warmup_laps, laps);

    // Sum both ranks' per-lap breakdowns over the measured laps, averaged.
    let mut breakdown = Breakdown::default();
    for rank_laps in &report.lap_breakdowns {
        for lap in rank_laps.iter().skip(cfg.warmup_laps) {
            breakdown += *lap;
        }
    }
    let breakdown = if cfg.measured_laps > 0 {
        scale_breakdown(&breakdown, cfg.measured_laps as u64)
    } else {
        breakdown
    };

    let checksum = cluster.checksum(
        [(RankId(0), &b0), (RankId(1), &b1)]
            .into_iter()
            .flat_map(|(rank, bufs)| bufs.recv.iter().map(move |&buf| (rank, buf))),
    );

    if report.event_clamps.count > 0 {
        // A clamp means the simulator rewrote a computed timestamp —
        // harmless for liveness but a red flag for timing fidelity. Shout
        // on stderr so table/CSV bytes stay stable.
        eprintln!(
            "WARNING: {} event clamp(s) (total skew {}) during an exchange run — \
             timing fidelity is degraded",
            report.event_clamps.count, report.event_clamps.total_skew
        );
    }

    ExchangeOutcome {
        latency,
        lap_latencies,
        breakdown,
        breakdowns: report.breakdowns,
        sched: report.sched_stats[0],
        kernels: report.kernels_launched.iter().sum(),
        faults: report.fault_summary,
        clamps: report.event_clamps,
        checksum,
    }
}

/// Results of one phase-changing measurement ([`run_phase_shift`]).
#[derive(Debug, Clone)]
pub struct PhaseShiftOutcome {
    /// Sum of every lap's makespan — the end-to-end cost of the whole
    /// phase-changing run (no warm-up discard: adapting through the cold
    /// start and the phase change is exactly what is being measured).
    pub total: Duration,
    /// Per-lap makespans, phase 1 laps first.
    pub lap_latencies: Vec<Duration>,
    /// Fusion scheduler statistics (rank 0), if the scheme fuses.
    pub sched: Option<SchedStats>,
}

/// Run a bulk exchange whose datatype shifts from workload `a` to workload
/// `b` after `laps_per_phase` iterations (see
/// [`crate::bulk::phase_shift_programs`]), with an optional live telemetry
/// recorder.
pub fn run_phase_shift(
    platform: Platform,
    scheme: SchemeKind,
    a: &Workload,
    b: &Workload,
    n_msgs: usize,
    laps_per_phase: usize,
    telemetry: Option<&Telemetry>,
) -> PhaseShiftOutcome {
    let (p0, p1) = phase_shift_programs(a, b, n_msgs, laps_per_phase, 7);
    let mut cluster = cluster_builder(&platform, &scheme, DataMode::ModelOnly, None, telemetry)
        .add_rank(0, p0)
        .add_rank(1, p1)
        .build();
    let report = cluster.run();
    let (lap_latencies, _) = measured_laps(&report, 0, 2 * laps_per_phase);
    PhaseShiftOutcome {
        total: lap_latencies.iter().copied().sum(),
        lap_latencies,
        sched: report.sched_stats[0],
    }
}

fn scale_breakdown(b: &Breakdown, div: u64) -> Breakdown {
    Breakdown {
        pack: b.pack / div,
        launch: b.launch / div,
        scheduling: b.scheduling / div,
        sync: b.sync / div,
        comm: b.comm / div,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::milc::milc_su3_zdown;
    use crate::nas::nas_mg_y;
    use crate::specfem::{specfem3d_cm, specfem3d_oc};

    fn run(scheme: SchemeKind, workload: Workload, n: usize) -> ExchangeOutcome {
        run_exchange(&ExchangeConfig::new(
            Platform::lassen(),
            scheme,
            workload,
            n,
        ))
    }

    #[test]
    fn fusion_wins_bulk_sparse_exchange() {
        // The Fig. 9 headline at 16 buffers.
        let fusion = run(SchemeKind::fusion_default(), specfem3d_cm(1200), 16);
        let sync = run(SchemeKind::GpuSync, specfem3d_cm(1200), 16);
        let async_ = run(SchemeKind::GpuAsync, specfem3d_cm(1200), 16);
        let hybrid = run(SchemeKind::CpuGpuHybrid, specfem3d_cm(1200), 16);
        assert!(fusion.latency < sync.latency);
        assert!(fusion.latency < async_.latency);
        assert!(fusion.latency < hybrid.latency);
        let speedup = sync.latency.as_nanos() as f64 / fusion.latency.as_nanos() as f64;
        assert!(speedup > 2.0, "expected a solid speedup, got {speedup:.2}x");
    }

    #[test]
    fn hybrid_wins_small_dense_on_lassen() {
        // The Fig. 10 / Fig. 12(c) exception: small dense MILC messages on
        // NVLink-attached POWER9.
        let w = milc_su3_zdown(4);
        let hybrid = run(SchemeKind::CpuGpuHybrid, w.clone(), 16);
        let fusion = run(SchemeKind::fusion_default(), w, 16);
        assert!(
            hybrid.latency < fusion.latency,
            "hybrid {:?} should beat fusion {:?} for small dense on Lassen",
            hybrid.latency,
            fusion.latency
        );
    }

    #[test]
    fn fusion_wins_large_dense() {
        // Fig. 12(d): large NAS messages leave the hybrid sweet spot.
        let w = nas_mg_y(384);
        let fusion = run(SchemeKind::fusion_default(), w.clone(), 16);
        let hybrid = run(SchemeKind::CpuGpuHybrid, w, 16);
        assert!(fusion.latency < hybrid.latency);
    }

    #[test]
    fn single_message_latencies_are_microseconds() {
        // Sanity on absolute scale: a single sparse message should cost
        // tens of microseconds, not milliseconds.
        let out = run(SchemeKind::fusion_default(), specfem3d_oc(2000), 1);
        assert!(out.latency.as_micros_f64() > 5.0, "{}", out.latency);
        assert!(out.latency.as_micros_f64() < 200.0, "{}", out.latency);
    }

    #[test]
    fn adaptive_scheme_runs_and_adjusts_on_phase_shift() {
        let out = run_phase_shift(
            Platform::lassen(),
            SchemeKind::fusion_adaptive(),
            &specfem3d_cm(1200),
            &nas_mg_y(384),
            16,
            6,
            None,
        );
        let stats = out.sched.expect("adaptive fusion keeps sched stats");
        assert!(stats.kernels_launched > 0);
        assert!(
            stats.threshold_adjusts > 0,
            "the controller should move at least once across a sparse→dense shift"
        );
        assert!(
            stats.threshold_adjusts <= stats.kernels_launched,
            "at most one adjustment per flush"
        );
        assert_eq!(out.lap_latencies.len(), 12);
    }

    #[test]
    fn static_fusion_never_adjusts() {
        let out = run_phase_shift(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            &specfem3d_cm(1200),
            &nas_mg_y(384),
            8,
            2,
            None,
        );
        assert_eq!(out.sched.expect("fusion stats").threshold_adjusts, 0);
    }

    #[test]
    fn outcome_carries_diagnostics() {
        let out = run(SchemeKind::fusion_default(), specfem3d_oc(500), 8);
        let stats = out.sched.expect("fusion stats");
        assert!(stats.enqueued >= 16, "8 packs + 8 unpacks per rank");
        assert!(out.kernels > 0);
        assert!(out.breakdown.total().as_nanos() > 0);
    }

    #[test]
    fn checksum_is_some_only_with_real_bytes() {
        let mut cfg = ExchangeConfig::new(
            Platform::lassen(),
            SchemeKind::fusion_default(),
            specfem3d_oc(200),
            4,
        );
        let model = run_exchange(&cfg);
        assert_eq!(model.checksum, None, "ModelOnly holds no bytes");
        cfg.mode = DataMode::Full;
        let full = run_exchange(&cfg);
        assert!(full.checksum.is_some());
        assert_eq!(full.latency, model.latency, "bytes never move virtual time");
        assert_eq!(full.breakdowns.len(), 2, "one whole-run ledger per rank");
        assert!(full.faults.is_clean() && full.clamps.count == 0);
    }
}
