//! `reproduce serve`: sustained-load serving through a long-lived cluster.
//!
//! Unlike the figure harnesses (a handful of laps each), this experiment
//! replays hundreds of thousands of exchange requests through one
//! long-lived two-rank cluster per cell and reports what only steady
//! state reveals: sustained throughput, the p50/p99/p999 tail of the
//! per-batch service latency, and allocator churn (the wire-message and
//! event-slab occupancy high-water marks, which must not scale with run
//! length). The grid crosses the proposed fused scheme against the
//! GPU-based baseline at three deterministic arrival rates; every cell is
//! virtual-time deterministic, so the table is byte-identical across
//! `--jobs` counts — the CI smoke job diffs `--jobs 1` vs `--jobs 4`.

use crate::exec::{self, Cell};
use crate::table::{us, Table};
use fusedpack_mpi::SchemeKind;
use fusedpack_net::Platform;
use fusedpack_workloads::specfem::specfem3d_oc;
use fusedpack_workloads::{run_serve, ServeConfig, ServeOutcome};

/// specfem3D_oc boundary points per request — sparse, the regime where
/// fusion's launch-overhead savings dominate.
pub const POINTS: u64 = 512;

/// Requests per rank per batch (paper's §V-C stress width).
pub const BATCH: usize = 16;

/// Deterministic request-size mix, cycled batch by batch: element-count
/// multipliers over the nominal message (mostly 1x with 2x and 4x
/// excursions), so the latency distribution has a real tail and the
/// staging pool sees varied capacities.
pub const SIZE_MIX: [u64; 8] = [1, 1, 2, 1, 1, 4, 1, 2];

/// The scheme rows: `(label, scheme)`.
pub fn schemes() -> Vec<(&'static str, SchemeKind)> {
    vec![
        ("Proposed", SchemeKind::fusion_default()),
        ("GPU-based", SchemeKind::GpuSync),
    ]
}

/// The arrival-rate columns: `(label, think-time ns before each batch)`.
/// 0 = saturating back-to-back load; the others pace request arrivals.
pub fn gaps() -> Vec<(&'static str, u64)> {
    vec![("saturating", 0), ("2us", 2_000), ("20us", 20_000)]
}

/// Run one (scheme, gap) cell with the CLI-selected request count and
/// shard count.
pub fn measure(scheme: SchemeKind, gap_ns: u64, requests: u64) -> ServeOutcome {
    run_serve(
        &ServeConfig::new(Platform::lassen(), scheme, specfem3d_oc(POINTS), requests)
            .with_gap_ns(gap_ns)
            .with_size_mix(SIZE_MIX.to_vec())
            .with_shards(super::shards()),
    )
}

/// The main service table plus the queue-health companion. The main table
/// reports only virtual-time results, so it is byte-identical across
/// `--jobs` *and* `--shards`; the queue-health peaks describe the process
/// that ran the simulation (per-shard slabs sum/max differently than one
/// global queue), so they live in their own non-diffed table.
pub fn run() -> Vec<Table> {
    let requests = super::serve_requests();
    let mut t = Table::new(
        format!(
            "Serve: sustained load, {requests} requests through a long-lived cluster \
             (specfem3D_oc x{POINTS}, {BATCH}/batch each way, Lassen)"
        ),
        &[
            "scheme",
            "arrival gap",
            "throughput (req/s)",
            "p50 (us)",
            "p99 (us)",
            "p999 (us)",
            "max (us)",
        ],
    )
    .with_note(
        "latency percentiles are per-batch service time (think time excluded); \
         byte-identical across --jobs and --shards",
    );
    let mut health = Table::new(
        format!("Serve queue health: in-flight high-water marks ({requests} requests)"),
        &[
            "scheme",
            "arrival gap",
            "wire peak",
            "event-slab peak",
            "overflow hits",
        ],
    )
    .with_note(
        "host-process diagnostics: peaks must not scale with request count, but their \
         exact values depend on the --shards decomposition (excluded from the CI diff)",
    );

    let mut cache = Table::new(
        format!("Serve layout cache: compile-once amortization ({requests} requests)"),
        &[
            "scheme",
            "arrival gap",
            "hits",
            "misses",
            "evictions",
            "hit rate (%)",
            "resident (B)",
        ],
    )
    .with_note(
        "acquire counters of the per-rank layout cache, merged over ranks; \
         cost-free in virtual time and byte-identical across --jobs and --shards",
    );

    let mut cells: Vec<Cell<ServeOutcome>> = Vec::new();
    for (slabel, scheme) in schemes() {
        for (glabel, gap) in gaps() {
            let scheme = scheme.clone();
            cells.push(Cell::new(format!("{slabel}/{glabel}"), move || {
                measure(scheme, gap, requests)
            }));
        }
    }
    let outcomes = exec::sweep("serve", cells);

    let per_scheme = gaps().len();
    for (si, (slabel, _)) in schemes().iter().enumerate() {
        for ((glabel, _), out) in gaps().iter().zip(&outcomes[si * per_scheme..]) {
            t.push_row(vec![
                (*slabel).into(),
                (*glabel).into(),
                format!("{:.0}", out.throughput_rps),
                us(out.p50),
                us(out.p99),
                us(out.p999),
                us(out.max),
            ]);
            health.push_row(vec![
                (*slabel).into(),
                (*glabel).into(),
                out.wire_high_water.to_string(),
                out.wheel.slab_high_water.to_string(),
                out.wheel.overflow_hits.to_string(),
            ]);
            let lc = &out.layout_cache;
            cache.push_row(vec![
                (*slabel).into(),
                (*glabel).into(),
                lc.hits().to_string(),
                lc.misses().to_string(),
                lc.evictions().to_string(),
                format!("{:.3}", lc.hit_rate() * 100.0),
                lc.resident_bytes().to_string(),
            ]);
        }
    }
    vec![t, health, cache]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small-request in-process version of the CI smoke job: the rendered
    /// report (both tables) is identical across worker counts.
    #[test]
    fn report_is_identical_across_jobs() {
        let _settings = exec::settings_lock();
        super::super::set_serve_requests(2_000);
        exec::set_jobs(1);
        let sequential = run();
        exec::set_jobs(4);
        let parallel = run();
        exec::set_jobs(0);
        let _ = exec::take_timings();
        super::super::set_serve_requests(super::super::SERVE_REQUESTS_DEFAULT);
        assert_eq!(sequential.len(), parallel.len());
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(a.render(), b.render());
        }
    }

    /// The main service table is byte-identical across shard counts —
    /// the in-process version of the CI golden diff at `--shards 4` (the
    /// queue-health companion is deliberately excluded: its peaks
    /// describe the host process, not the simulation).
    #[test]
    fn report_is_identical_across_shards() {
        let _settings = exec::settings_lock();
        super::super::set_serve_requests(2_000);
        super::super::set_shards(1);
        let single = run();
        super::super::set_shards(4);
        let sharded = run();
        super::super::set_shards(1);
        let _ = exec::take_timings();
        super::super::set_serve_requests(super::super::SERVE_REQUESTS_DEFAULT);
        assert_eq!(single[0].render(), sharded[0].render());
        assert_eq!(single[0].to_csv(), sharded[0].to_csv());
        // The layout-cache table is pure merged-counter bookkeeping, so it
        // too must be byte-identical at any shard decomposition.
        assert_eq!(single[2].render(), sharded[2].render());
        assert_eq!(single[2].to_csv(), sharded[2].to_csv());
    }

    /// Steady state amortizes layout compilation: the cache table's hit
    /// rate is ≥ 99% once warmup's single compile per rank is behind it.
    #[test]
    fn layout_cache_hit_rate_exceeds_99_percent() {
        let out = measure(SchemeKind::fusion_default(), 0, 2_000);
        assert!(
            out.layout_cache.hit_rate() >= 0.99,
            "hit rate {}",
            out.layout_cache.hit_rate()
        );
        assert_eq!(out.layout_cache.evictions(), 0);
    }

    /// Fusion's throughput advantage survives sustained load.
    #[test]
    fn fusion_sustains_higher_throughput_when_saturated() {
        let fused = measure(SchemeKind::fusion_default(), 0, 2_000);
        let gpu = measure(SchemeKind::GpuSync, 0, 2_000);
        assert!(
            fused.throughput_rps > gpu.throughput_rps,
            "fused {:.0} req/s should beat GPU-based {:.0} req/s",
            fused.throughput_rps,
            gpu.throughput_rps
        );
        assert!(fused.p99 < gpu.p99);
    }

    /// The size mix gives the latency distribution a real spread: the big
    /// 2048-point batches must show up above the median.
    #[test]
    fn mixed_sizes_produce_a_latency_tail() {
        let out = measure(SchemeKind::fusion_default(), 0, 4_000);
        assert!(
            out.p999 > out.p50,
            "mixed sizes should spread the tail: p50 {} vs p999 {}",
            out.p50,
            out.p999
        );
        assert!(out.max >= out.p999);
    }
}
