//! The benchmark's own tests. They drive the built `perfbench` binary the
//! way the benchmark drives itself (one child process per run), plus the
//! library for the serve equivalence and the manifests.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use fusedpack_mpi::SchemeKind;
use fusedpack_net::Platform;
use fusedpack_perfbench::manifest;
use fusedpack_perfbench::trace::Tracer;
use fusedpack_perfbench::workload::{self, Inputs, Kind, RunOpts, Virtual, SERVE_BATCH};
use fusedpack_workloads::{run_serve, ServeConfig};
use std::collections::BTreeMap;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_fusedpack-perfbench");

/// The `key=value` fields of one `--rep` run.
fn rep(workload: &str, seed: u64, extra: &[&str]) -> BTreeMap<String, String> {
    let out = Command::new(BIN)
        .args(["--rep", "--workload", workload, "--seed", &seed.to_string()])
        .args(extra)
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("@rep "))
        .expect("a @rep line");
    line.split(' ')
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// The fields that must repeat exactly for one seed: virtual figures,
/// counts and the checksum. Host timings and memory are left out.
fn deterministic(fields: &BTreeMap<String, String>) -> BTreeMap<String, String> {
    fields
        .iter()
        .filter(|(k, _)| {
            let host = [
                "setup_s",
                "programs_s",
                "build_s",
                "run_s",
                "stall_s",
                "rss_mib",
                "slowdown",
            ];
            !host.contains(&k.as_str())
        })
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect()
}

#[test]
fn same_seed_repeats_virtual_metrics_counts_and_checksums() {
    let reference = rep("halo-bytes", 42, &["--fault-free"])["checksum"].clone();
    let a = rep("halo-bytes", 42, &["--reference", &reference]);
    let b = rep("halo-bytes", 42, &["--reference", &reference]);
    assert_eq!(a["failed"], "0", "{a:?}");
    assert_eq!(deterministic(&a), deterministic(&b));
    for key in ["net.fabric.downs", "sim.events", "checksum", "sim_lap_us"] {
        assert!(a.contains_key(key), "{key} missing from {a:?}");
    }
}

#[test]
fn second_seed_changes_faults_but_keeps_the_checksum() {
    let run = |seed: u64| {
        let reference = rep("halo-bytes", seed, &["--fault-free"])["checksum"].clone();
        rep("halo-bytes", seed, &["--reference", &reference])
    };
    let (a, b) = (run(42), run(7));
    for r in [&a, &b] {
        assert_eq!(r["failed"], "0", "checksum and invariants hold: {r:?}");
        assert_ne!(r["net.fabric.downs"], "0", "the hop-down plan fired: {r:?}");
    }
    assert_ne!(
        (&a["net.fabric.downs"], &a["net.fabric.reroutes"]),
        (&b["net.fabric.downs"], &b["net.fabric.reroutes"]),
        "another seed draws another fault plan"
    );
}

#[test]
fn corrupted_checksum_drives_fail_rate_above_zero() {
    let r = rep("halo-bytes", 42, &["--reference", "0"]);
    let failed: u64 = r["failed"].parse().unwrap();
    let attempted: u64 = r["attempted"].parse().unwrap();
    assert!(failed >= 1 && attempted > failed, "{r:?}");
}

#[test]
fn serve_programs_match_run_serve() {
    // `reproduce serve`'s size cycle instead of the seeded draws.
    const CYCLE: [u64; 8] = [1, 1, 2, 1, 1, 4, 1, 2];
    let requests = 3_200;
    let cfg = ServeConfig::new(
        Platform::lassen(),
        SchemeKind::fusion_default(),
        Kind::ServeMix.workload(),
        requests,
    )
    .with_size_mix(CYCLE.to_vec());
    let want = run_serve(&cfg);

    let mut inputs = Inputs::generate(Kind::ServeMix, 1);
    inputs.buf_seed = 7;
    inputs.counts = (0..cfg.laps()).map(|i| CYCLE[i % CYCLE.len()]).collect();
    let (_, got) = workload::run_once(&inputs, &RunOpts::default(), &mut Tracer::off());
    let v = Virtual::of(&inputs, &got.report);
    assert_eq!(inputs.messages(), want.requests);
    assert_eq!(v.samples, want.laps);
    assert_eq!(v.end_ns, want.elapsed.as_nanos());
    assert_eq!(v.p50_ns, want.p50.as_nanos());
    assert_eq!(v.p99_ns, want.p99.as_nanos());
    assert_eq!(got.report.events_processed, want.events);
    assert_eq!(got.report.wire_high_water, want.wire_high_water);
    assert_eq!(got.report.layout_cache.hits(), want.layout_cache.hits());
    assert_eq!(inputs.sends_per_rank_lap(), SERVE_BATCH);
}

#[test]
fn serve_mix_draws_follow_the_5_2_1_mix() {
    let inputs = Inputs::generate(Kind::ServeMix, 42);
    let nominal = Kind::ServeMix.workload().count;
    let share = |m: u64| {
        inputs.counts.iter().filter(|&&c| c == m * nominal).count() as f64 / inputs.laps() as f64
    };
    assert!((share(1) - 5.0 / 8.0).abs() < 0.03, "{}", share(1));
    assert!((share(2) - 2.0 / 8.0).abs() < 0.03, "{}", share(2));
    assert!((share(4) - 1.0 / 8.0).abs() < 0.03, "{}", share(4));
    assert_ne!(inputs.counts, Inputs::generate(Kind::ServeMix, 43).counts);
    assert_eq!(inputs, Inputs::generate(Kind::ServeMix, 42));
}

#[test]
fn timed_run_prints_every_end_to_end_metric_last() {
    let out = Command::new(BIN)
        .args([
            "--workload",
            "serve-mix",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": ") && last.contains("\"failed\": 0,"),
        "{last}"
    );
    for m in manifest::END_TO_END {
        assert!(
            last.contains(&format!("\"{}\": {{\"value\": ", m.name)),
            "{} in {last}",
            m.name
        );
    }
}

#[test]
fn traced_run_prints_every_per_layer_metric_last() {
    let out = Command::new(BIN)
        .args([
            "--workload",
            "serve-mix",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "1",
        ])
        .output()
        .expect("run perfbench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let last = stdout.lines().last().expect("output");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    for m in manifest::PER_LAYER {
        assert!(
            last.contains(&format!("\"{}\": {{\"value\": ", m.name)),
            "{} in {last}",
            m.name
        );
    }
    for m in manifest::END_TO_END {
        assert!(
            !last.contains(&format!("\"{}\"", m.name)),
            "{} in {last}",
            m.name
        );
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "x"],
        &["--trace", "2"],
        &[],
    ] {
        let out = Command::new(BIN)
            .args(args)
            .output()
            .expect("run perfbench");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn committed_manifests_match_the_metric_table() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let read = |p: &str| std::fs::read_to_string(format!("{root}/{p}")).expect(p);
    assert_eq!(
        read("BENCHMARK.json"),
        manifest::benchmark_json(),
        "regenerate with --manifest benchmark"
    );
    assert_eq!(
        read("perfbench/metrics.json"),
        manifest::metrics_json(),
        "regenerate with --manifest metrics"
    );
}
