//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <halo-model|halo-bytes|serve-mix|all> [--seed N] [--seconds N] [--trace 0|1]
//! perfbench --manifest <benchmark|metrics>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced runs; `--trace 1`
//! prints the per-layer metrics of a traced pass. Every run of the
//! simulator happens in a fresh child process (`--rep`), so runs never
//! share allocator or pool state; this process only schedules them and
//! takes medians. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use fusedpack_perfbench::manifest::{self, END_TO_END, PER_LAYER};
use fusedpack_perfbench::trace::Tracer;
use fusedpack_perfbench::workload::{self, Checks, Inputs, Kind, RunOpts, Virtual};
use fusedpack_perfbench::{calib, layers};
use fusedpack_perfbench::{median, peak_rss_mib};
use fusedpack_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Fewest runs a measurement takes, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Event capacity of the traced run's recorder.
const TRACE_CAPACITY: usize = 4_000_000;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    manifest: Option<String>,
    // Child-run options.
    rep: bool,
    shards: u32,
    laps: Option<usize>,
    reference: Option<u64>,
    fault_free: bool,
    traced: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: workload::DEFAULT_SEED,
        seconds: manifest::RUN_SECONDS,
        trace: false,
        manifest: None,
        rep: false,
        shards: 0,
        laps: None,
        reference: None,
        fault_free: false,
        traced: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = num(value()?)?,
            "--seconds" => a.seconds = num(value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--manifest" => a.manifest = Some(value()?),
            "--rep" => a.rep = true,
            "--shards" => a.shards = num(value()?)? as u32,
            "--laps" => a.laps = Some(num(value()?)? as usize),
            "--reference" => {
                let v = value()?;
                a.reference =
                    Some(u64::from_str_radix(&v, 16).map_err(|e| format!("--reference {v}: {e}"))?)
            }
            "--fault-free" => a.fault_free = true,
            "--traced" => a.traced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

const USAGE: &str = "usage: perfbench --workload <halo-model|halo-bytes|serve-mix|all> \
                     [--seed N] [--seconds N] [--trace 0|1]\n       \
                     perfbench --manifest <benchmark|metrics>";

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(which) = &args.manifest {
        match which.as_str() {
            "benchmark" => print!("{}", manifest::benchmark_json()),
            "metrics" => print!("{}", manifest::metrics_json()),
            _ => {
                eprintln!("perfbench: --manifest takes benchmark or metrics\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        return ExitCode::SUCCESS;
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("perfbench: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    if name == "all" && !args.rep {
        return run_all(&args);
    }
    let Some(kind) = Kind::parse(name) else {
        eprintln!("perfbench: unknown workload {name}\n{USAGE}");
        return ExitCode::from(2);
    };
    if args.rep {
        rep(kind, &args);
        return ExitCode::SUCCESS;
    }
    match bench(kind, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Every workload in turn, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    for kind in Kind::ALL {
        let status = Command::new(std::env::current_exe().expect("own executable path"))
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            other => {
                eprintln!("perfbench: {} failed: {other:?}", kind.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Child runs

/// One run of the simulator, printed as a single `@rep key=value ...` line.
fn rep(kind: Kind, args: &Args) {
    let mut inputs = Inputs::generate(kind, args.seed);
    if args.fault_free {
        inputs = inputs.fault_free();
    }
    if let Some(laps) = args.laps {
        inputs = inputs.with_laps(laps);
    }
    let telemetry = args
        .traced
        .then(|| Telemetry::with_capacity(TRACE_CAPACITY));
    let opts = RunOpts {
        shards: args.shards,
        telemetry: telemetry.clone(),
    };
    let mut tr = if args.traced {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let before = calib::probe();
    let ((times, out), _) = tr.span("bench.rep", |tr| workload::run_once(&inputs, &opts, tr));
    // Memory first: the probe and the replays below allocate their own.
    let rss_mib = peak_rss_mib();
    let slowdown = calib::slowdown(before, calib::probe());
    let mut checks = Checks::default();
    if !args.fault_free {
        checks.run(&inputs, &out, args.reference);
    }
    for f in &checks.failures {
        eprintln!(
            "perfbench: {} seed {}: check failed: {f}",
            kind.name(),
            args.seed
        );
    }
    let r = &out.report;
    let mut kv: Vec<(String, String)> = Vec::new();
    let mut put = |k: &str, v: String| kv.push((k.to_string(), v));
    put("setup_s", times.setup_s.to_string());
    put("programs_s", times.programs_s.to_string());
    put("build_s", times.build_s.to_string());
    put("run_s", out.run_s.to_string());
    put("slowdown", slowdown.to_string());
    put("rss_mib", rss_mib.to_string());
    put("attempted", checks.attempted.to_string());
    put("failed", checks.failed.to_string());
    put("checksum", format!("{:x}", out.checksum.unwrap_or(0)));
    put("events", r.events_processed.to_string());
    put("shards", r.shard.shards.max(1).to_string());
    put("barriers", r.shard.barriers.to_string());
    put(
        "stall_s",
        ((r.shard.barrier_wall_ns + r.shard.stall_wall_ns) as f64 / 1e9).to_string(),
    );
    for (name, value) in layer_counts(&inputs, &out) {
        put(name, value.to_string());
    }
    if args.traced {
        if let Some(t) = &telemetry {
            let snap = t.snapshot();
            put("telemetry.events_recorded", snap.events.len().to_string());
            put("telemetry.dropped", snap.dropped.to_string());
        }
        for (name, value) in layers::replay(&inputs, r, &mut tr) {
            put(name, value.to_string());
        }
        for (layer, secs) in tr.self_times() {
            put(&format!("self.{layer}"), secs.to_string());
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{}.json", kind.name(), args.seed));
        match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tr.chrome_json())) {
            Ok(()) => put("spans_file", path.display().to_string()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let mut line = String::from("@rep");
    for (k, v) in kv {
        let _ = write!(line, " {k}={v}");
    }
    println!("{line}");
}

/// Per-layer counters and virtual figures read off one run's report.
fn layer_counts(inputs: &Inputs, out: &workload::Outcome) -> Vec<(&'static str, f64)> {
    let r = &out.report;
    let events = r.events_processed.max(1) as f64;
    let ranks = r.laps.len().max(1) as f64;
    let laps = inputs.laps() as f64;
    let per_rank_lap_us = |f: fn(&fusedpack_mpi::Breakdown) -> fusedpack_sim::Duration| {
        r.breakdowns
            .iter()
            .map(|b| f(b).as_nanos() as f64)
            .sum::<f64>()
            / ranks
            / laps
            / 1e3
    };
    let sched =
        r.sched_stats
            .iter()
            .flatten()
            .fold(fusedpack_core::SchedStats::default(), |mut acc, s| {
                acc.enqueued += s.enqueued;
                acc.flushes_sync += s.flushes_sync;
                acc.flushes_threshold += s.flushes_threshold;
                acc.flushes_pressure += s.flushes_pressure;
                acc.kernels_launched += s.kernels_launched;
                acc.requests_fused += s.requests_fused;
                acc
            });
    let pool_takes = out.pool.hits + out.pool.misses;
    let v = Virtual::of(inputs, r);
    vec![
        ("sim_lap_us", v.lap_mean_ns as f64 / 1e3),
        ("sim_p50_us", v.p50_ns as f64 / 1e3),
        ("sim_p99_us", v.p99_ns as f64 / 1e3),
        ("sim_lap_samples", v.samples as f64),
        ("sim_rps", v.rps(inputs)),
        ("sim.events", r.events_processed as f64),
        (
            "sim.wheel.cascades_per_event",
            r.wheel.cascades as f64 / events,
        ),
        ("sim.wheel.overflow_hits", r.wheel.overflow_hits as f64),
        ("sim.wheel.slab_high_water", r.wheel.slab_high_water as f64),
        ("datatype.cache.hits", r.layout_cache.hits() as f64),
        ("datatype.cache.misses", r.layout_cache.misses() as f64),
        (
            "datatype.cache.evictions",
            r.layout_cache.evictions() as f64,
        ),
        ("gpu.kernels", r.kernels_launched.iter().sum::<u64>() as f64),
        (
            "gpu.pool.hit_rate",
            if pool_takes == 0 {
                0.0
            } else {
                out.pool.hits as f64 / pool_takes as f64
            },
        ),
        ("core.sched.enqueued", sched.enqueued as f64),
        ("core.sched.flushes_sync", sched.flushes_sync as f64),
        (
            "core.sched.flushes_threshold",
            sched.flushes_threshold as f64,
        ),
        ("core.sched.flushes_pressure", sched.flushes_pressure as f64),
        ("core.sched.batch_mean", sched.batch_mean()),
        ("net.hop_bytes", out.hop_bytes as f64),
        (
            "net.busiest_hop_busy_us",
            out.busiest_hop_busy.as_nanos() as f64 / 1e3,
        ),
        ("net.fabric.downs", r.fabric.downs as f64),
        ("net.fabric.reroutes", r.fabric.reroutes as f64),
        ("net.fabric.rail_failovers", r.fabric.rail_failovers as f64),
        ("net.fabric.disconnects", r.fabric.disconnects as f64),
        ("mpi.breakdown.pack_us", per_rank_lap_us(|b| b.pack)),
        ("mpi.breakdown.launch_us", per_rank_lap_us(|b| b.launch)),
        (
            "mpi.breakdown.scheduling_us",
            per_rank_lap_us(|b| b.scheduling),
        ),
        ("mpi.breakdown.sync_us", per_rank_lap_us(|b| b.sync)),
        ("mpi.breakdown.comm_us", per_rank_lap_us(|b| b.comm)),
        ("mpi.wire_high_water", r.wire_high_water as f64),
        ("mpi.faults.retries", r.fault_summary.retried as f64),
        ("mpi.faults.degraded", r.fault_summary.degraded as f64),
        (
            "mpi.faults.forced",
            r.fault_summary.deadline_exceeded as f64,
        ),
    ]
}

/// The parsed `@rep` line of one child run.
struct Rep(BTreeMap<String, String>);

impl Rep {
    fn str(&self, k: &str) -> &str {
        self.0.get(k).map_or("", String::as_str)
    }

    fn f(&self, k: &str) -> f64 {
        self.str(k).parse().unwrap_or(f64::NAN)
    }

    fn u(&self, k: &str) -> u64 {
        self.str(k).parse().unwrap_or(0)
    }
}

/// Run one child and wait for it.
fn child(kind: Kind, seed: u64, extra: &[String]) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable path: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--rep",
            "--workload",
            kind.name(),
            "--seed",
            &seed.to_string(),
        ])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    if !out.status.success() {
        return Err(format!("a {} run exited with {}", kind.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix("@rep "))
        .ok_or("a run printed no result")?;
    Ok(Rep(line
        .split(' ')
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()))
}

// ---------------------------------------------------------------------------
// The measurement

fn s(v: impl ToString) -> String {
    v.to_string()
}

fn bench(kind: Kind, args: &Args) -> Result<(), String> {
    let seed = args.seed;
    let inputs = Inputs::generate(kind, seed);
    // The fault-free checksum, once, outside every timed run.
    let reference = if kind.mode() == fusedpack_gpu::DataMode::Full {
        let r = child(kind, seed, &[s("--fault-free")])?;
        Some(r.str("checksum").to_string())
    } else {
        None
    };
    let base: Vec<String> = reference
        .iter()
        .flat_map(|c| [s("--reference"), c.clone()])
        .collect();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut timed = Vec::new();
    if !args.trace {
        while timed.len() < MIN_REPS || start.elapsed() < budget {
            timed.push(child(kind, seed, &base)?);
        }
        return report_timed(&inputs, &timed);
    }
    // Traced pass: rounds of {the timed run, the same on 2 shards, the run
    // cut to one lap}, interleaved so host drift hits the ratios evenly;
    // then one traced run that also drives the replays.
    let with = |extra: &[String]| -> Vec<String> {
        base.iter().cloned().chain(extra.iter().cloned()).collect()
    };
    let (mut sharded, mut one_lap) = (Vec::new(), Vec::new());
    while timed.len() < MIN_REPS || start.elapsed() < budget {
        timed.push(child(kind, seed, &base)?);
        sharded.push(child(kind, seed, &with(&[s("--shards"), s(2)]))?);
        one_lap.push(child(kind, seed, &with(&[s("--laps"), s(1)]))?);
    }
    let traced = child(kind, seed, &with(&[s("--traced")]))?;
    report_traced(&inputs, &timed, &sharded, &one_lap, &traced)
}

fn med(reps: &[Rep], k: &str) -> f64 {
    median(&reps.iter().map(|r| r.f(k)).collect::<Vec<_>>())
}

fn checks(reps: &[&Rep]) -> (u64, u64) {
    reps.iter().fold((0, 0), |(a, f), r| {
        (a + r.u("attempted"), f + r.u("failed"))
    })
}

/// Print the result line: the last line of stdout.
fn emit(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> Result<(), String> {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("{name} came out as {value}"));
        }
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    println!("{out}");
    Ok(())
}

fn header(inputs: &Inputs, what: &str) {
    let kind = inputs.kind;
    println!(
        "perfbench {} seed {}: {what}; {} ranks, {} laps, {} messages per run, {:?}",
        kind.name(),
        inputs.seed,
        inputs.ranks(),
        inputs.laps(),
        inputs.messages(),
        kind.mode()
    );
}

fn report_timed(inputs: &Inputs, reps: &[Rep]) -> Result<(), String> {
    header(inputs, &format!("{} untraced runs", reps.len()));
    let msgs = inputs.messages() as f64;
    // Host times scaled to the reference host speed (see `calib`).
    let scaled = |k: &str| -> Vec<f64> { reps.iter().map(|r| r.f(k) / r.f("slowdown")).collect() };
    let rates: Vec<f64> = scaled("run_s").iter().map(|t| msgs / t).collect();
    let values = [
        median(&rates),
        median(&scaled("setup_s")),
        med(reps, "rss_mib"),
    ];
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, m.unit, v))
        .collect();
    for (name, unit, v) in &metrics {
        println!(
            "  {name:<14} {v:>14.4} {unit:<6} host, median of {} runs",
            reps.len()
        );
    }
    println!(
        "  (unscaled: {:.4} msgs/s and {:.4} s set-up at a median host slowdown of {:.3})",
        msgs / med(reps, "run_s"),
        med(reps, "setup_s"),
        med(reps, "slowdown")
    );
    // The virtual figures are identical in every run of one seed.
    let r = &reps[0];
    let n = r.u("sim_lap_samples");
    for (name, unit, how) in [
        ("sim_lap_us", "vus", format!("mean of {n} measured laps")),
        ("sim_p50_us", "vus", format!("nearest rank of {n} laps")),
        ("sim_p99_us", "vus", format!("nearest rank of {n} laps")),
        ("sim_rps", "1/vs", "messages per virtual second".to_string()),
    ] {
        println!("  {name:<14} {:>14.3} {unit:<6} virtual, {how}", r.f(name));
    }
    let (attempted, failed) = checks(&reps.iter().collect::<Vec<_>>());
    let fail_rate = failed as f64 / attempted.max(1) as f64;
    println!(
        "  {:<14} {:>14.4} {:<6} {failed} of {attempted} checks failed",
        "fail_rate", fail_rate, "frac"
    );
    emit(attempted, failed, &metrics)
}

fn report_traced(
    inputs: &Inputs,
    timed: &[Rep],
    sharded: &[Rep],
    one_lap: &[Rep],
    traced: &Rep,
) -> Result<(), String> {
    header(
        inputs,
        &format!("traced pass after {} rounds of untraced runs", timed.len()),
    );
    let run_s = med(timed, "run_s");
    let run_1lap = med(one_lap, "run_s");
    let mut derived: BTreeMap<&str, f64> = BTreeMap::new();
    derived.insert("sim.ns_per_event", run_s / traced.f("events") * 1e9);
    derived.insert("sim.shard.barriers", sharded[0].f("barriers"));
    derived.insert("sim.shard.stall_s", med(sharded, "stall_s"));
    derived.insert("sim.shard.speedup", run_s / med(sharded, "run_s"));
    derived.insert("mpi.build_s", med(timed, "build_s"));
    derived.insert("mpi.run_s", run_s);
    derived.insert("mpi.run_1lap_s", run_1lap);
    derived.insert(
        "mpi.steady_lap_s",
        (run_s - run_1lap) / (inputs.laps() as f64 - 1.0).max(1.0),
    );
    derived.insert("telemetry.overhead_frac", traced.f("run_s") / run_s - 1.0);
    derived.insert("workloads.programs_s", med(timed, "programs_s"));

    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let mut layer = "";
    for m in PER_LAYER.iter() {
        let v = derived
            .get(m.name)
            .copied()
            .unwrap_or_else(|| traced.f(m.name));
        let this = m.name.split('.').next().unwrap_or(m.name);
        if this != layer && m.name.contains('.') {
            layer = this;
            println!("  [{layer}]");
        }
        println!("  {:<30} {v:>16.4} {:<6} {:?}", m.name, m.unit, m.kind);
        metrics.push((m.name, m.unit, v));
    }
    println!("  host self time of the traced run's spans, per layer:");
    for (k, v) in &traced.0 {
        if let Some(layer) = k.strip_prefix("self.") {
            println!(
                "    {layer:<10} {:>10.4} s",
                v.parse::<f64>().unwrap_or(f64::NAN)
            );
        }
    }
    println!("  spans written to {}", traced.str("spans_file"));
    let all: Vec<&Rep> = timed
        .iter()
        .chain(sharded)
        .chain(one_lap)
        .chain(std::iter::once(traced))
        .collect();
    let (attempted, failed) = checks(&all);
    println!(
        "  fail_rate {:.4}: {failed} of {attempted} checks failed",
        failed as f64 / attempted.max(1) as f64
    );
    emit(attempted, failed, &metrics)
}
