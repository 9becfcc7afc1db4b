//! Byzantine adversaries end to end: equivocation, forged PoS hits, a
//! withheld private fork, tampered metadata signatures, and garbage
//! payloads — against a 20-node network that also suffers crash churn
//! and link loss.
//!
//! Three nodes (15 %) turn adversarial on a fixed schedule. Honest nodes
//! verify every wire block, surface equivocation proofs, reorg through
//! the released fork under checkpoint rules, and quarantine + slash every
//! culprit. The run must end with **every** injected artifact detected
//! and zero invariant violations — and the same seed always reproduces
//! the identical report.
//!
//! Telemetry is armed: the sim-clock trace goes to `$TRACE_OUT` (default
//! `byz_trace.jsonl`) and the registry dump to `$REGISTRY_OUT` (default
//! `byz_registry.json`):
//!
//! ```text
//! cargo run --release --example byzantine
//! cargo run --release --bin trace-report -- byz_trace.jsonl
//! ```

use edgechain::core::EdgeNetwork;
use edgechain::scenario;
use edgechain::telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = scenario::byzantine(0xED6E);
    let plan = &config.fault_plan;
    plan.validate(config.nodes)?;
    println!("fault plan: {} events", plan.events.len());
    for ev in &plan.events {
        println!("  {ev:?}");
    }

    println!("\nrunning 60 simulated minutes against three adversaries…\n");
    telemetry::enable();
    let report = EdgeNetwork::new(config)?.run();
    println!("{report}");

    let mut session = telemetry::finish().expect("telemetry was enabled");
    let trace_path = std::env::var("TRACE_OUT").unwrap_or_else(|_| "byz_trace.jsonl".to_string());
    let registry_path =
        std::env::var("REGISTRY_OUT").unwrap_or_else(|_| "byz_registry.json".to_string());
    std::fs::write(&trace_path, session.trace_jsonl())?;
    std::fs::write(&registry_path, session.registry.to_json())?;
    println!(
        "telemetry: {} trace events -> {trace_path}, registry -> {registry_path}",
        session.events().len()
    );

    println!("\nbyzantine digest:");
    println!("  artifacts injected    : {}", report.byz_injected);
    println!("  artifacts detected    : {}", report.byz_detected);
    println!(
        "  reorgs                : {} (max depth {})",
        report.reorgs, report.max_reorg_depth
    );
    println!("  quarantines           : {}", report.quarantine_events);
    println!("  readmissions          : {}", report.readmissions);
    println!(
        "  availability          : {:.3} ({} completed / {} failed)",
        report.availability, report.fetch_latency.count, report.failed_requests
    );
    println!("  invariant violations  : {}", report.invariant_violations);
    assert_eq!(
        report.byz_detected, report.byz_injected,
        "an injected artifact went undetected"
    );
    assert_eq!(
        report.invariant_violations, 0,
        "honest nodes must stay prefix-consistent"
    );
    println!("\nevery artifact detected, honest prefixes intact ✓");
    Ok(())
}
