//! `reproduce chaos-topo`: the fabric fault-domain grid — seeded per-hop
//! fault injection on the 512-rank torus halo.
//!
//! For each scheme ({Proposed, Proposed-Adaptive}), a fault-free baseline
//! on the Lassen-like fat tree establishes the reference latency and the
//! receive-buffer checksum; then one cell per fabric fault profile re-runs
//! the same 8×8×8 halo exchange with that profile armed and reports
//! latency inflation, whether the delivered bytes still match the
//! fault-free run, and the fabric's self-healing counters: hops flapped /
//! degraded / downed, ECMP reroutes, dual-rail failovers, and
//! forced-delivery disconnects (the last rung, where no surviving route
//! exists and the transfer is pushed through the flat wire model).
//!
//! Every plan is derived from the master `--seed` and the cell's grid
//! coordinates (never from execution order), and the per-rank/keyed fault
//! streams shard cleanly, so the table is byte-identical across runs,
//! `--jobs` counts, and `--shards` counts — the CI `golden` job diffs it
//! against its committed golden at `--jobs 1`, `--jobs 4` and
//! `--shards 4`.

use crate::exec::{self, Cell};
use crate::figs::chaos_seed;
use crate::table::{ratio, us, Table};
use fusedpack_gpu::DataMode;
use fusedpack_mpi::SchemeKind;
use fusedpack_net::{Hierarchy, Platform, TopologyHandle};
use fusedpack_sim::{FaultPlan, FaultSite, FaultSpec};
use fusedpack_workloads::specfem::specfem3d_cm;
use fusedpack_workloads::{run_halo, HaloConfig, HaloGrid, HaloOutcome};
use std::sync::Arc;

/// Torus extent per dimension (matches `reproduce topo`).
pub const GRID: u32 = 8;

/// Buffers per neighbor per iteration.
pub const N_MSGS: usize = 2;

/// specfem3D_cm boundary points per message.
pub const POINTS: u64 = 512;

/// Fabric fault profiles: `(label, site, per-transit probability)`. Rates
/// are per hop crossing; at 512 ranks a lap crosses tens of thousands of
/// hops, so even the hop-down trickle kills rails and forces reroutes.
const PROFILES: &[(&str, FaultSite, f64)] = &[
    ("hop-flap", FaultSite::HopFlap, 0.02),
    ("rail-degrade", FaultSite::RailDegrade, 0.01),
    ("hop-down", FaultSite::HopDown, 0.002),
];

/// The scheme rows of the grid.
pub fn schemes() -> Vec<(&'static str, SchemeKind)> {
    vec![
        ("Proposed", SchemeKind::fusion_default()),
        ("Proposed-Adaptive", SchemeKind::fusion_adaptive()),
    ]
}

/// Derive one cell's plan seed from the master seed and its grid
/// coordinates (splitmix-style mixing; stable across jobs counts).
fn cell_seed(master: u64, scheme: usize, profile: usize) -> u64 {
    let mut x = master
        .wrapping_add((scheme as u64) << 32)
        .wrapping_add(profile as u64 + 1);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One grid cell: the torus halo on the Lassen-like fat tree with an
/// optional fabric fault plan, at `grid`^3 ranks and the CLI shard count.
pub fn measure(grid: u32, scheme: SchemeKind, plan: Option<FaultPlan>) -> HaloOutcome {
    let nodes = grid * grid * grid / 4;
    let topo: TopologyHandle = Arc::new(Hierarchy::lassen_like(nodes));
    let mut cfg = HaloConfig::new(
        Platform::lassen(),
        scheme,
        specfem3d_cm(POINTS),
        HaloGrid::new_3d(grid, grid, grid),
        N_MSGS,
    )
    .with_topology(topo)
    .with_shards(super::shards());
    // Real bytes: the checksum is the point of this experiment.
    cfg.mode = DataMode::Full;
    cfg.fault_plan = plan;
    run_halo(&cfg)
}

pub fn run() -> Table {
    let master = chaos_seed();
    let mut t = Table::new(
        format!(
            "Chaos-topo: per-hop fault profiles on the {GRID}^3 torus halo, \
             Lassen-like fat tree, checksum vs fault-free run (seed {master})"
        ),
        &[
            "scheme",
            "faults",
            "latency (us)",
            "inflation",
            "data",
            "flap",
            "degr",
            "down",
            "reroute",
            "failover",
            "forced",
        ],
    )
    .with_note(
        "data: ok = receive-buffer checksum identical to the fault-free baseline; \
         flap/degr/down: hop fault injections; reroute/failover: ECMP re-resolutions \
         around dead hops and dual-rail NIC failovers; forced: transfers whose every \
         surviving route died, delivered through the flat-wire rung",
    );

    let mut cells: Vec<Cell<HaloOutcome>> = Vec::new();
    for (si, (sname, scheme)) in schemes().into_iter().enumerate() {
        let s = scheme.clone();
        cells.push(Cell::new(format!("{sname}/baseline"), move || {
            measure(GRID, s.clone(), None)
        }));
        for (pi, &(pname, site, rate)) in PROFILES.iter().enumerate() {
            let plan = FaultPlan::new(cell_seed(master, si, pi))
                .with(site, FaultSpec::with_probability(rate));
            let s = scheme.clone();
            cells.push(Cell::new(format!("{sname}/{pname}"), move || {
                measure(GRID, s.clone(), Some(plan.clone()))
            }));
        }
    }
    let outcomes = exec::sweep("chaos-topo", cells);

    let mut it = outcomes.into_iter();
    for (sname, _) in schemes() {
        let base = it.next().expect("baseline outcome");
        assert!(
            base.clamps.count == 0,
            "chaos-topo baseline for {sname} is not clamp-free: {:?} — \
             the fault-free reference cannot be trusted",
            base.clamps
        );
        assert!(
            base.faults.is_clean() && base.fabric.injected() == 0,
            "fault-free baseline recorded fault activity: {:?} / {}",
            base.faults,
            base.fabric
        );
        t.push_row(vec![
            sname.into(),
            "none".into(),
            us(base.latency),
            "1.00x".into(),
            "ref".into(),
            "0".into(),
            "0".into(),
            "0".into(),
            "0".into(),
            "0".into(),
            "0".into(),
        ]);
        for &(pname, _, _) in PROFILES {
            let out = it.next().expect("chaos-topo outcome");
            t.push_row(vec![
                sname.into(),
                pname.into(),
                us(out.latency),
                ratio(out.latency, base.latency),
                if out.checksum == base.checksum {
                    "ok".into()
                } else {
                    "DIFF".into()
                },
                out.fabric.flaps.to_string(),
                out.fabric.degrades.to_string(),
                out.fabric.downs.to_string(),
                out.fabric.reroutes.to_string(),
                out.fabric.rail_failovers.to_string(),
                out.faults.degraded.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One representative cell end to end, on a 4^3 torus to keep the
    /// suite fast: a seeded hop-down profile must kill hops, reroute
    /// around them, and reproduce the fault-free checksum.
    #[test]
    fn hop_down_cell_reroutes_and_preserves_bytes() {
        let base = measure(4, SchemeKind::fusion_default(), None);
        assert_eq!(base.clamps.count, 0, "{:?}", base.clamps);
        assert!(base.faults.is_clean() && base.fabric.injected() == 0);
        let plan = FaultPlan::new(cell_seed(42, 0, 2))
            .with(FaultSite::HopDown, FaultSpec::with_probability(0.02));
        let out = measure(4, SchemeKind::fusion_default(), Some(plan));
        assert!(out.fabric.downs > 0, "{}", out.fabric);
        assert!(out.fabric.reroutes > 0, "{}", out.fabric);
        assert!(base.checksum.is_some(), "Full mode hashes real bytes");
        assert_eq!(out.checksum, base.checksum, "reroute corrupted data");
        assert!(out.latency >= base.latency, "faults cannot speed a run up");
    }

    /// The same cell is byte-identical single-queue vs 4-way sharded —
    /// the in-process version of the CI golden diff at `--shards 4`.
    #[test]
    fn faulted_cell_is_identical_across_shards() {
        let _settings = exec::settings_lock();
        let plan = || {
            FaultPlan::new(cell_seed(42, 0, 0))
                .with(FaultSite::HopFlap, FaultSpec::with_probability(0.05))
                .with(FaultSite::HopDown, FaultSpec::with_probability(0.02))
        };
        super::super::set_shards(1);
        let single = measure(4, SchemeKind::fusion_default(), Some(plan()));
        super::super::set_shards(4);
        let sharded = measure(4, SchemeKind::fusion_default(), Some(plan()));
        super::super::set_shards(1);
        assert!(sharded.shard_barriers > 0, "sharding engaged");
        assert_eq!(single.latency, sharded.latency);
        assert_eq!(single.faults, sharded.faults);
        assert_eq!(single.fabric, sharded.fabric);
        assert_eq!(single.checksum, sharded.checksum);
    }
}
