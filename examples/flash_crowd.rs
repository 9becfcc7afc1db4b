//! A flash crowd hits the network at ~5× sustainable capacity — and the
//! overload stack sheds, defers, and degrades instead of collapsing.
//!
//! The run drives the open-workload engine: a diurnal item-arrival
//! sinusoid around 12/min and open Poisson fetches at 30/min, both
//! multiplied ×5 for the ten minutes between t=10 min and t=20 min. Admission buckets, a bounded
//! mempool, per-node in-flight caps, and a global retry budget stand in
//! the way; the degradation ladder sheds low-priority fetches first, then
//! defers proactive replication, then repair sweeps — consensus is never
//! throttled.
//!
//! The digest at the end compares offered vs admitted vs shed traffic and
//! the p99 inclusion / fetch latency *before, during, and after* the
//! burst, computed from the causal-span trace. The trace lands in
//! `$TRACE_OUT` (default `flash_crowd_trace.jsonl`) and the registry in
//! `$REGISTRY_OUT` (default `flash_crowd_registry.json`):
//!
//! ```text
//! cargo run --release --example flash_crowd
//! cargo run --release --bin trace-report -- flash_crowd_trace.jsonl
//! ```

use edgechain::core::{EdgeNetwork, NetworkConfig};
use edgechain::prelude::{ArrivalProcess, FaultPlan};
use edgechain::scenario;
use edgechain::telemetry::{self, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The tests' flash crowd with no fault plan, and the item rate swung
    // over a compressed "day": 12 ± 40 % over the 40-minute horizon,
    // peaking as the burst hits.
    let mut config = NetworkConfig {
        fault_plan: FaultPlan::none(),
        ..scenario::flash_crowd()
    };
    config.workload.arrivals.process = ArrivalProcess::Diurnal {
        base_per_min: 12.0,
        amplitude: 0.4,
        period_secs: 2_400.0,
        phase_secs: 0.0,
    };
    let burst = config
        .workload
        .arrivals
        .burst
        .clone()
        .expect("the flash crowd bursts");

    println!(
        "flash crowd: 20 nodes, 40 simulated minutes; diurnal items ~12/min, \
         fetches 30/min, ×5 burst in [{:.0} s, {:.0} s)…\n",
        burst.from_secs, burst.until_secs
    );
    telemetry::enable();
    telemetry::enable_spans();
    let report = EdgeNetwork::new(config)?.run();
    println!("{report}");

    let mut session = telemetry::finish().expect("telemetry was enabled");
    let trace_path =
        std::env::var("TRACE_OUT").unwrap_or_else(|_| "flash_crowd_trace.jsonl".to_string());
    let registry_path =
        std::env::var("REGISTRY_OUT").unwrap_or_else(|_| "flash_crowd_registry.json".to_string());
    std::fs::write(&trace_path, session.trace_jsonl())?;
    std::fs::write(&registry_path, session.registry.to_json())?;
    println!(
        "telemetry: {} trace events -> {trace_path}, registry -> {registry_path}",
        session.events().len()
    );

    let o = &report.overload;
    println!("\noverload digest:");
    println!(
        "  items   : {} offered = {} admitted + {} shed ({} rejected by allocation)",
        o.offered_items, o.admitted_items, o.shed_items, o.alloc_rejected
    );
    println!(
        "  fetches : {} offered = {} admitted + {} shed",
        o.offered_fetches, o.admitted_fetches, o.shed_fetches
    );
    println!(
        "  backpressure : {} retries denied, {} fetches exhausted at the horizon",
        o.retries_denied, o.fetch_exhausted
    );
    println!(
        "  degradation  : ladder peaked at L{}, {} replications deferred, {} repairs deferred",
        o.max_degrade_level, o.deferred_replications, o.deferred_repairs
    );
    println!(
        "  queues       : peak {} pending items (cap 30), peak {} in-flight fetches",
        o.peak_pending_items, o.peak_inflight_fetches
    );

    // p99 latency of the *admitted* traffic before / during / after the
    // burst, from the causal-span trace: `item.pend` spans cover
    // generation → block inclusion, `fetch.lifecycle` spans cover
    // request → delivery (successful outcomes only).
    println!("\ntail latency through the burst (admitted traffic only):");
    println!(
        "  {:<22}{:>14}{:>14}{:>14}",
        "", "before", "during", "after"
    );
    let windows = |kind: &str, ok: &dyn Fn(&str) -> bool| -> Vec<Option<f64>> {
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(), Vec::new(), Vec::new()];
        for ev in session.events() {
            if ev.kind != kind {
                continue;
            }
            let mut t0 = None;
            let mut dur = None;
            let mut outcome_ok = true;
            for (key, value) in &ev.fields {
                match (*key, value) {
                    ("t0_ms", Value::U64(v)) => t0 = Some(*v),
                    ("dur_ms", Value::U64(v)) => dur = Some(*v),
                    ("outcome", Value::Str(s)) => outcome_ok = ok(s),
                    _ => {}
                }
            }
            let (Some(t0), Some(dur)) = (t0, dur) else {
                continue;
            };
            if !outcome_ok {
                continue;
            }
            let t0_secs = t0 as f64 / 1_000.0;
            let w = if t0_secs < burst.from_secs {
                0
            } else if t0_secs < burst.until_secs {
                1
            } else {
                2
            };
            buckets[w].push(dur as f64 / 1_000.0);
        }
        buckets.into_iter().map(p99).collect()
    };
    let incl = windows("item.pend", &|_| true);
    let fetch = windows("fetch.lifecycle", &|s| s == "completed" || s == "local");
    print_window_row("p99 inclusion (s)", &incl);
    print_window_row("p99 fetch (s)", &fetch);

    println!(
        "\navailability {:.3} ({} completed / {} failed), {} blocks, {} invariant violations",
        report.availability,
        report.fetch_latency.count,
        report.failed_requests,
        report.blocks_mined,
        report.invariant_violations
    );
    assert!(o.engaged(), "the burst must engage overload protection");
    assert_eq!(report.invariant_violations, 0, "no data may be lost");
    assert!(
        report.availability >= 0.9,
        "admitted traffic must stay available"
    );
    println!("\nshed visibly, degraded gracefully, admitted traffic stayed healthy ✓");
    Ok(())
}

fn p99(mut samples: Vec<f64>) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((samples.len() as f64) * 0.99).ceil() as usize;
    Some(samples[rank.saturating_sub(1).min(samples.len() - 1)])
}

fn print_window_row(label: &str, vals: &[Option<f64>]) {
    let fmt = |v: &Option<f64>| match v {
        Some(s) => format!("{s:.1}"),
        None => "-".to_string(),
    };
    println!(
        "  {:<22}{:>14}{:>14}{:>14}",
        label,
        fmt(&vals[0]),
        fmt(&vals[1]),
        fmt(&vals[2])
    );
}
