//! Byzantine adversary runs end to end: equivocation, forged blocks,
//! withheld private forks, tampered signatures, and garbage payloads —
//! composed with crash churn and link loss — must leave every honest node
//! on a consistent prefix with every injected artifact detected.
//!
//! The adversary engine is seeded, so each test also pins bit-identical
//! reruns and checks that moving the role seed moves the adversaries.

use edgechain::core::{EdgeNetwork, NetworkConfig, RunReport};
use edgechain::scenario;
use edgechain::sim::{ByzantineSweepConfig, FaultPlan, RoleAssignment, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(config: NetworkConfig) -> RunReport {
    EdgeNetwork::new(config).expect("valid config").run()
}

#[test]
fn byzantine_run_converges_and_detects_every_artifact() {
    let report = run(scenario::byzantine(0xED6E));

    // The chain made progress despite five attacks, churn, and loss.
    assert!(report.blocks_mined > 20, "chain stalled: {report}");
    // Every injected artifact (equivocation pair, forged block, tampered
    // block, garbage payload, withheld fork) was detected by honest nodes.
    assert!(report.byz_injected >= 4, "too few attacks fired: {report}");
    assert_eq!(
        report.byz_detected, report.byz_injected,
        "an injected artifact went undetected: {report}"
    );
    // The released private fork (and/or equivocation race) forced at
    // least one reorg, bounded below the checkpoint interval.
    assert!(report.reorgs >= 1, "no reorg observed: {report}");
    assert!(
        report.max_reorg_depth < 10,
        "reorg crossed the checkpoint interval: {report}"
    );
    // Culprits were quarantined and the run stayed available.
    assert!(
        report.quarantine_events >= 1,
        "nobody quarantined: {report}"
    );
    assert!(
        report.availability >= 0.9,
        "availability dropped below 0.9: {report}"
    );
    // No honest node finalized conflicting blocks; prefixes stayed
    // consistent (checked every block by the invariant sweep).
    assert_eq!(report.invariant_violations, 0, "invariant broken: {report}");
}

#[test]
fn byzantine_runs_are_bit_identical_per_seed() {
    let a = run(scenario::byzantine(0xED6E));
    let b = run(scenario::byzantine(0xED6E));
    assert_eq!(a, b, "same seed + plan must reproduce the identical report");
    // The report and trace digests of this run are pinned in
    // `tests/golden.rs` (`five_attack_byzantine_run_with_spans_is_pinned`).

    let c = run(scenario::byzantine(0xED6F));
    assert_ne!(a, c, "a different seed should perturb the run");
}

#[test]
fn role_seed_moves_the_malicious_draw() {
    // Seeded role assignment (satellite of the adversary engine): the
    // denial-role draw comes from `FaultPlan::roles`, not the legacy
    // ID-tail rule, so moving the role seed moves the deniers while the
    // run seed stays put.
    let config = |role_seed: u64| NetworkConfig {
        nodes: 16,
        sim_minutes: 30,
        data_items_per_min: 2.0,
        request_interval_secs: 45,
        fault_plan: FaultPlan::none().with_roles(RoleAssignment {
            seed: role_seed,
            malicious_fraction: 0.25,
        }),
        seed: 0x5EED,
        ..NetworkConfig::default()
    };
    let a = run(config(1));
    let b = run(config(1));
    assert_eq!(a, b, "role-seeded runs must stay deterministic");
    let c = run(config(2));
    assert_ne!(a, c, "a different role seed should move the deniers");
    assert_eq!(a.invariant_violations, 0);
    assert_eq!(c.invariant_violations, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random seeded adversary sweeps (≤ 20 % adversarial) never break an
    /// invariant and never let an injected artifact slip past detection,
    /// and each sweep replays bit-identically.
    #[test]
    fn random_byzantine_sweeps_detect_and_stay_consistent(seed in 0u64..256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let plan = FaultPlan::random_byzantine(
            16,
            ByzantineSweepConfig {
                adversary_fraction: 0.2,
                actions_per_adversary: 2,
                horizon: SimTime::from_secs(30 * 60),
            },
            &mut rng,
        );
        let config = || NetworkConfig {
            nodes: 16,
            sim_minutes: 30,
            data_items_per_min: 2.0,
            request_interval_secs: 60,
            fault_plan: plan.clone(),
            seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(7),
            ..NetworkConfig::default()
        };
        let a = run(config());
        prop_assert_eq!(a.invariant_violations, 0, "invariant broken: {}", &a);
        prop_assert_eq!(a.byz_detected, a.byz_injected, "artifact undetected: {}", &a);
        prop_assert!(a.blocks_mined > 5, "chain stalled: {}", &a);
        let b = run(config());
        prop_assert_eq!(a, b, "seeded sweep must replay bit-identically");
    }
}
