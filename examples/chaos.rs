//! Fault injection end to end: crash a node for good, partition the
//! network, lose messages — and watch the protocol repair itself.
//!
//! The run schedules a deterministic fault plan against a 20-node network:
//!
//! 1. node 4 crashes and restarts eight minutes later (its disk survives);
//! 2. node 13 crashes and never comes back — every replica it held must be
//!    re-created on surviving nodes by the miners' UFL repair sweep;
//! 3. a 5-minute partition splits five nodes from the rest;
//! 4. a long 5 % link-loss window stresses retry/backoff everywhere.
//!
//! The same seed + plan always reproduces the identical report, so chaos
//! runs are debuggable like any other deterministic simulation.
//!
//! Telemetry is armed for the run: the structured sim-clock trace is
//! written as JSONL to `$TRACE_OUT` (default `chaos_trace.jsonl`) and the
//! registry dump to `$REGISTRY_OUT` (default `chaos_registry.json`), ready
//! for `trace-report`:
//!
//! ```text
//! cargo run --release --example chaos
//! cargo run --release --bin trace-report -- chaos_trace.jsonl
//! ```

use edgechain::core::{EdgeNetwork, NetworkConfig};
use edgechain::scenario;
use edgechain::telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = NetworkConfig {
        // Replicate "general information" through raft too, so the trace
        // carries election/leader events alongside the PoS chain.
        raft_consensus: true,
        ..scenario::chaos()
    };
    let plan = &config.fault_plan;
    plan.validate(config.nodes)?;
    println!("fault plan: {} events", plan.events.len());
    for ev in &plan.events {
        println!("  {ev:?}");
    }

    println!("\nrunning 60 simulated minutes under the fault plan…\n");
    telemetry::enable();
    // Causal spans ride the trace: item/block/fetch lifecycles land in
    // $TRACE_OUT for `trace-report --critical-path` / `--item` / `--trace`.
    telemetry::enable_spans();
    let report = EdgeNetwork::new(config)?.run();
    println!("{report}");

    let mut session = telemetry::finish().expect("telemetry was enabled");
    let trace_path = std::env::var("TRACE_OUT").unwrap_or_else(|_| "chaos_trace.jsonl".to_string());
    let registry_path =
        std::env::var("REGISTRY_OUT").unwrap_or_else(|_| "chaos_registry.json".to_string());
    std::fs::write(&trace_path, session.trace_jsonl())?;
    std::fs::write(&registry_path, session.registry.to_json())?;
    println!(
        "telemetry: {} trace events -> {trace_path}, registry -> {registry_path}",
        session.events().len()
    );

    println!("\nchaos digest:");
    println!("  fault actions applied : {}", report.faults_injected);
    println!("  messages dropped      : {}", report.messages_dropped);
    println!("  retries (backoff)     : {}", report.retries);
    println!("  repair replications   : {}", report.repairs_triggered);
    println!(
        "  under-replicated time : {:.1} item-seconds",
        report.under_replicated_item_seconds
    );
    println!(
        "  availability          : {:.3} ({} completed / {} failed)",
        report.availability, report.fetch_latency.count, report.failed_requests
    );
    println!("  invariant violations  : {}", report.invariant_violations);

    println!("\nslo digest:");
    println!("  inclusion latency     : {}", report.inclusion_latency);
    println!("  fetch latency         : {}", report.fetch_latency);
    println!("  slo breaches          : {}", report.slo_alerts.len());
    for alert in &report.slo_alerts {
        println!(
            "    breach @{:.0}s: {} = {:.3} (threshold {:.3})",
            alert.t_ms as f64 / 1000.0,
            alert.slo,
            alert.observed,
            alert.threshold
        );
    }
    assert_eq!(
        report.invariant_violations, 0,
        "no data may be lost for good"
    );
    println!("\nno durable data loss, chain prefixes intact ✓");
    Ok(())
}
