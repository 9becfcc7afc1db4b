//! Chain-lifecycle soak: a long seeded run with random node churn, one
//! Byzantine adversary, checkpoint-anchored pruning, and snapshot
//! bootstrap — the survival scenario the lifecycle subsystem exists for.
//!
//! Blocks below `checkpoint - retention` collapse into a signed anchor,
//! storage reclaims the pruned slots, and nodes rejoining from deep
//! downtime catch up via verified snapshots instead of block-by-block
//! recovery. The run must end with bounded retained state, at least one
//! snapshot bootstrap, every injected artifact detected, and zero
//! invariant violations.
//!
//! Telemetry is armed: the sim-clock trace goes to `$TRACE_OUT` (default
//! `soak_trace.jsonl`) and the registry dump to `$REGISTRY_OUT` (default
//! `soak_registry.json`). `$SOAK_MINUTES` overrides the horizon (default
//! 240 simulated minutes; the CI smoke job runs a shortened pass):
//!
//! ```text
//! cargo run --release --example soak
//! cargo run --release --bin trace-report -- soak_trace.jsonl
//! ```

use edgechain::core::EdgeNetwork;
use edgechain::scenario;
use edgechain::telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let minutes: u64 = std::env::var("SOAK_MINUTES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(240);
    let config = scenario::soak(minutes);
    config.fault_plan.validate(config.nodes)?;
    println!(
        "fault plan: {} events (seeded churn + 1 adversary)",
        config.fault_plan.events.len()
    );
    let retained_bound = config.checkpoint_interval + config.prune_retention_blocks + 1;

    println!("\nsoaking {minutes} simulated minutes with pruning + snapshots on…\n");
    telemetry::enable();
    let report = EdgeNetwork::new(config)?.run();
    println!("{report}");

    let mut session = telemetry::finish().expect("telemetry was enabled");
    let trace_path = std::env::var("TRACE_OUT").unwrap_or_else(|_| "soak_trace.jsonl".to_string());
    let registry_path =
        std::env::var("REGISTRY_OUT").unwrap_or_else(|_| "soak_registry.json".to_string());
    std::fs::write(&trace_path, session.trace_jsonl())?;
    std::fs::write(&registry_path, session.registry.to_json())?;
    println!(
        "telemetry: {} trace events -> {trace_path}, registry -> {registry_path}",
        session.events().len()
    );

    println!("\nlifecycle digest:");
    println!("  blocks mined          : {}", report.blocks_mined);
    println!(
        "  blocks pruned         : {} ({} retained, bound {retained_bound})",
        report.blocks_pruned, report.retained_blocks
    );
    println!(
        "  snapshots             : {} served / {} applied / {} rejected",
        report.snapshots_served, report.snapshots_applied, report.snapshots_rejected
    );
    println!("  peak storage slots    : {}", report.peak_storage_slots);
    println!(
        "  byzantine             : {} injected / {} detected",
        report.byz_injected, report.byz_detected
    );
    println!(
        "  availability          : {:.3} ({} completed / {} failed)",
        report.availability, report.fetch_latency.count, report.failed_requests
    );
    println!("  invariant violations  : {}", report.invariant_violations);

    assert!(report.blocks_pruned > 0, "pruning never fired");
    assert!(
        report.retained_blocks <= retained_bound,
        "retained state exceeded the retention bound"
    );
    // Short horizons may not crash anyone long enough to fall below the
    // pruned base; only demand a bootstrap once churn has had two sim-hours
    // to produce a deep rejoiner.
    if minutes >= 120 {
        assert!(
            report.snapshots_applied >= 1,
            "no deep rejoiner bootstrapped from a snapshot"
        );
    }
    assert_eq!(
        report.byz_detected, report.byz_injected,
        "an injected artifact went undetected"
    );
    assert_eq!(
        report.invariant_violations, 0,
        "honest nodes must stay prefix-consistent"
    );
    println!("\nretention bounded, snapshots verified, prefixes intact ✓");
    Ok(())
}
