//! Record a typed event timeline of one fused bulk exchange and export it
//! as a Chrome Trace Event JSON you can load in Perfetto
//! (<https://ui.perfetto.dev>) or chrome://tracing — ranks appear as
//! processes, each GPU stream / the host / the NIC as a thread.
//!
//! ```text
//! cargo run --release --example trace_timeline [OUT.json]
//! ```

use fusedpack::prelude::*;
use fusedpack::telemetry::{chrome, reconcile, MetricsSummary};
use fusedpack::workloads::milc::milc_su3_zdown;

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_timeline.json".to_string());

    // Same cell as the paper's Fig. 11: MILC su3_zdown, 16 transfers each
    // way, ABCI, the proposed fusion scheme.
    let telemetry = Telemetry::enabled();
    let mut cfg = ExchangeConfig::new(
        Platform::abci(),
        SchemeKind::fusion_default(),
        milc_su3_zdown(8),
        16,
    );
    cfg.telemetry = Some(telemetry.clone());
    let outcome = run_exchange(&cfg);
    let snap = telemetry.snapshot();

    std::fs::write(&out_path, chrome::export(&snap)).expect("write trace");
    println!(
        "latency {}; recorded {} events -> {out_path}\n",
        outcome.latency,
        snap.events.len()
    );

    // Aggregate view: counters and histograms derived from the timeline.
    println!("{}", MetricsSummary::from_snapshot(&snap).render());

    // The timeline carries a `BucketCharge` span for every breakdown
    // mutation, so its per-bucket totals reproduce the Fig. 11 ledger
    // exactly — cross-check at zero tolerance.
    let external: Vec<(u32, [Duration; 5])> = outcome
        .breakdowns
        .iter()
        .enumerate()
        .map(|(r, b)| (r as u32, b.values()))
        .collect();
    println!("{}", reconcile(&snap, &external, Duration::ZERO).render());
}
