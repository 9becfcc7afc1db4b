//! Chaos test: the full network under a seeded fault plan combining node
//! churn, a partition, and lossy links — the robustness scenario the fault
//! injector exists for.
//!
//! The schedule (`scenario::chaos`, the plan `examples/chaos.rs` runs too)
//! throws at a 20-node network:
//! * two crashes, one of which never restarts (permanently lost node);
//! * a 5-minute partition splitting five nodes from the rest;
//! * a 5 % link-loss window covering most of the run.
//!
//! The network must keep serving requests (availability ≥ 0.9), repair the
//! replicas the dead node took down, never lose a data item for good, and
//! produce a bit-identical report when re-run with the same seed.

use edgechain::core::{EdgeNetwork, NetworkConfig};
use edgechain::scenario;
use edgechain::sim::{ChurnConfig, FaultPlan, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn chaos_run_stays_available_and_safe() {
    let report = EdgeNetwork::new(scenario::chaos()).unwrap().run();
    // Every scheduled action fired: 3 node events + 2 windows × 2 edges.
    assert_eq!(report.faults_injected, 7, "{report}");
    assert!(
        report.messages_dropped > 0,
        "loss window never dropped anything"
    );
    assert!(report.retries > 0, "faults should exercise retry/backoff");
    assert!(
        report.repairs_triggered > 0,
        "the dead node's replicas must be repaired: {report}"
    );
    assert!(
        report.availability >= 0.9,
        "availability {} under chaos plan\n{report}",
        report.availability
    );
    assert_eq!(
        report.invariant_violations, 0,
        "no durable loss, no chain-prefix corruption: {report}"
    );
    assert!(report.blocks_mined > 20, "mining stalled: {report}");
}

#[test]
fn chaos_run_is_deterministic() {
    let a = EdgeNetwork::new(scenario::chaos()).unwrap().run();
    let b = EdgeNetwork::new(scenario::chaos()).unwrap().run();
    assert_eq!(a, b, "same seed + same fault plan must be bit-identical");
}

#[test]
fn chaos_seeds_differ() {
    // The fault plan is part of the configuration, not the seed: a
    // different master seed under the identical plan still yields a
    // different (but internally consistent) run.
    let a = EdgeNetwork::new(scenario::chaos()).unwrap().run();
    let cfg = NetworkConfig {
        seed: 0xC4A06,
        ..scenario::chaos()
    };
    let b = EdgeNetwork::new(cfg).unwrap().run();
    assert_ne!(a, b);
    assert_eq!(b.invariant_violations, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random churn schedules never cost the network a data item for good:
    /// as long as crashes only make disks unavailable (never wipe them)
    /// and at most `max_concurrent_down` of the 12 nodes are down at once,
    /// every valid item keeps at least one durable honest copy and every
    /// recovered chain stays a clean prefix.
    #[test]
    fn random_churn_never_violates_invariants(seed in 0u64..512) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = FaultPlan::random_churn(
            12,
            ChurnConfig {
                crashes_per_min: 0.4,
                mean_downtime_secs: 180.0,
                max_concurrent_down: 4,
                horizon: SimTime::from_secs(20 * 60),
            },
            &mut rng,
        );
        let cfg = NetworkConfig {
            nodes: 12,
            sim_minutes: 20,
            data_items_per_min: 2.0,
            request_interval_secs: 120,
            seed,
            fault_plan: plan,
            ..NetworkConfig::default()
        };
        let report = EdgeNetwork::new(cfg).unwrap().run();
        prop_assert_eq!(report.invariant_violations, 0);
        prop_assert!(report.blocks_mined > 0);
    }
}
