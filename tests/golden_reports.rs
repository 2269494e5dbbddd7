//! Golden-report snapshot tests: the refactor-proof harness.
//!
//! `results/golden/` holds the committed CSV output of the `reproduce`
//! experiments. These tests regenerate the cheap ones in-process and
//! compare every table's CSV rendering **byte for byte** against its own
//! snapshot — any behavioural drift in the scheme engines, the cost
//! models, the request lifecycle, or the sweep executor shows up as a
//! diff here, not as a silently shifted number in a figure. The expensive
//! reports (fig12, fig13, topo, chaos, chaos-topo, adapt, ipc, serve) are
//! pinned by the same files through the CI `golden` job.
//!
//! To refresh after an intentional model change:
//!
//! ```text
//! cargo run --release -p fusedpack-bench --bin reproduce -- \
//!     table2 fig1 fig8 fig9 fig10 fig11 fig14 ablation approaches --csv results/golden
//! ```

use fusedpack_bench::run_experiment;
use fusedpack_mpi::SchemeKind;
use fusedpack_net::{FlatLink, Platform};
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::{run_halo, HaloConfig, HaloGrid};
use std::sync::Arc;

/// Path of a committed golden CSV.
fn golden_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results/golden")
        .join(file)
}

/// Regenerate `experiment` and require its tables, in order, to match the
/// committed snapshots `golden_files` byte for byte (same slug, same CSV
/// bytes).
fn assert_matches_golden(experiment: &str, golden_files: &[&str]) {
    let tables = run_experiment(experiment);
    assert_eq!(
        tables.len(),
        golden_files.len(),
        "{experiment}: table count changed"
    );
    for (table, golden_file) in tables.iter().zip(golden_files) {
        let expected_slug = golden_file.strip_suffix(".csv").expect("csv file");
        assert_eq!(
            table.slug(),
            expected_slug,
            "{experiment}: table title changed — rename the golden file too"
        );

        let path = golden_path(golden_file);
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read golden snapshot {path:?}: {e}"));
        let fresh = table.to_csv();
        if fresh != golden {
            // A plain assert_eq! on multi-KB CSVs is unreadable; report the
            // first differing line instead.
            for (i, (g, f)) in golden.lines().zip(fresh.lines()).enumerate() {
                assert_eq!(f, g, "{experiment}: line {} diverges from {path:?}", i + 1);
            }
            assert_eq!(
                fresh.lines().count(),
                golden.lines().count(),
                "{experiment}: row count diverges from {path:?}"
            );
            panic!("{experiment}: output differs from {path:?} (whitespace or ordering)");
        }
    }
}

#[test]
fn table2_matches_golden_snapshot() {
    assert_matches_golden(
        "table2",
        &["table_ii_experimental_environment_model_constants.csv"],
    );
}

#[test]
fn fig1_matches_golden_snapshot() {
    assert_matches_golden(
        "fig1",
        &["fig_1_packing_kernel_vs_launch_overhead_across_architectures.csv"],
    );
}

#[test]
fn fig8_matches_golden_snapshot() {
    assert_matches_golden(
        "fig8",
        &["fig_8_fused_kernel_threshold_sweep_specfem3d_cm_32_ops_lassen.csv"],
    );
}

#[test]
fn fig9_matches_golden_snapshot() {
    assert_matches_golden(
        "fig9",
        &["fig_9_bulk_sparse_exchange_specfem3d_cm_lassen_lower_is_better.csv"],
    );
}

#[test]
fn fig10_matches_golden_snapshot() {
    assert_matches_golden(
        "fig10",
        &["fig_10_bulk_dense_exchange_milc_lassen_lower_is_better.csv"],
    );
}

#[test]
fn fig11_matches_golden_snapshot() {
    assert_matches_golden(
        "fig11",
        &["fig_11_cost_breakdown_of_gpu_driven_designs_milc_x16_abci_us_per_iteration_both_ranks.csv"],
    );
}

#[test]
fn fig14_matches_golden_snapshot() {
    assert_matches_golden(
        "fig14",
        &["fig_14_production_libraries_on_lassen_normalized_to_spectrummpi_higher_is_better.csv"],
    );
}

#[test]
fn ablation_matches_golden_snapshot() {
    assert_matches_golden(
        "ablation",
        &[
            "ablation_kernel_launch_overhead_sensitivity_specfem3d_cm_x16.csv",
            "ablation_flush_rule_extremes_specfem3d_cm_x16_lassen.csv",
            "ablation_layout_handling_cost_per_operation_4000_block_type.csv",
            "ablation_fused_kernel_block_partitioning_v100_cost_model.csv",
        ],
    );
}

#[test]
fn approaches_matches_golden_snapshot() {
    assert_matches_golden(
        "approaches",
        &["siii_fig_4_three_approaches_to_non_contiguous_transfer_specfem3d_cm_x16_lassen.csv"],
    );
}

/// The topology subsystem's backwards-compatibility promise: a cluster
/// with an **explicit** [`FlatLink`] topology times every transfer
/// bit-identically to the default (no-topology) legacy path the golden
/// snapshots above pin down. If this holds, attaching FlatLink can never
/// move a golden number.
#[test]
fn explicit_flat_topology_is_bit_identical_to_default() {
    let cfg = |topo: bool| {
        let platform = Platform::lassen();
        let grid = HaloGrid::new_3d(2, 2, 2);
        let mut c = HaloConfig::new(
            platform.clone(),
            SchemeKind::fusion_default(),
            specfem3d_cm(1024),
            grid,
            4,
        );
        if topo {
            let nodes = grid.ranks().div_ceil(platform.gpus_per_node);
            c = c.with_topology(Arc::new(FlatLink::for_platform(&platform, nodes)));
        }
        c
    };
    let default = run_halo(&cfg(false));
    let flat = run_halo(&cfg(true));
    assert_eq!(
        default.latency, flat.latency,
        "FlatLink must not move timing"
    );
    assert_eq!(default.lap_latencies, flat.lap_latencies);
    assert_eq!(default.events, flat.events);
    assert_eq!(default.hop_bytes, 0, "legacy path has no hop accounting");
    assert!(flat.hop_bytes > 0, "FlatLink accounts the same traffic");
}
