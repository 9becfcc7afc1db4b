//! Run configurations shared by more than one integration test, so each
//! lives in one place.

// Each test binary that includes this module uses a subset of it.
#![allow(dead_code)]

use edgechain::core::{
    ArrivalProcess, Burst, NetworkConfig, OpenArrivals, OverloadConfig, WorkloadConfig,
};
use edgechain::sim::{ByzantineAction, FaultEvent, FaultPlan, NodeId, RoleAssignment, SimTime};

/// Three adversaries out of twenty (15 % < the 20 % bound), each armed
/// with a different attack, plus crash churn and a long lossy window so
/// the Byzantine machinery is exercised under the PR 1 fault model too.
fn byzantine_plan() -> FaultPlan {
    FaultPlan::new(vec![
        // Node 6: seal two conflicting blocks at one height, then later
        // withhold a two-block private fork.
        FaultEvent::Byzantine {
            node: NodeId(6),
            action: ByzantineAction::Equivocate,
            at: SimTime::from_secs(300),
        },
        FaultEvent::Byzantine {
            node: NodeId(6),
            action: ByzantineAction::Withhold { blocks: 2 },
            at: SimTime::from_secs(1_600),
        },
        // Node 15: tamper a signature, then spray garbage bytes that no
        // receiver can decode.
        FaultEvent::Byzantine {
            node: NodeId(15),
            action: ByzantineAction::TamperSignature,
            at: SimTime::from_secs(600),
        },
        FaultEvent::Byzantine {
            node: NodeId(15),
            action: ByzantineAction::GarbagePayload { bytes: 2_048 },
            at: SimTime::from_secs(1_200),
        },
        FaultEvent::Byzantine {
            node: NodeId(19),
            action: ByzantineAction::ForgeBlock,
            at: SimTime::from_secs(900),
        },
        FaultEvent::Crash {
            node: NodeId(3),
            at: SimTime::from_secs(800),
        },
        FaultEvent::Restart {
            node: NodeId(3),
            at: SimTime::from_secs(1_500),
        },
        FaultEvent::LinkLoss {
            prob: 0.05,
            from: SimTime::from_secs(120),
            until: SimTime::from_secs(3_000),
        },
    ])
}

/// The five-attack run: [`byzantine_plan`] on a 20-node, one-hour run
/// with retries, at `seed` (pinned in `tests/golden.rs` at `0xED6E`).
pub fn byzantine_config(seed: u64) -> NetworkConfig {
    NetworkConfig {
        nodes: 20,
        sim_minutes: 60,
        data_items_per_min: 2.0,
        request_interval_secs: 60,
        fetch_retries: 5,
        retry_backoff_ms: 4_000,
        fault_plan: byzantine_plan(),
        seed,
        ..NetworkConfig::default()
    }
}

/// Flash crowd at ~5x admission capacity (`tests/overload.rs`' shape) on
/// stores small enough to fill, with short-lived items so the sweep keeps
/// freeing slots, one early equivocation (quarantined, then re-admitted
/// inside the run) and one seeded denying storer. Pinned in
/// `tests/golden.rs`.
pub fn overload_byzantine_config() -> NetworkConfig {
    let burst = Some(Burst {
        multiplier: 5.0,
        from_secs: 600.0,
        until_secs: 1_200.0,
    });
    NetworkConfig {
        nodes: 20,
        sim_minutes: 40,
        request_interval_secs: 60,
        storage_slots: 12,
        data_valid_minutes: 12,
        expiration_sweep_secs: 60,
        fetch_retries: 5,
        retry_backoff_ms: 4_000,
        fault_plan: FaultPlan {
            roles: Some(RoleAssignment {
                seed: 0xD3A1,
                malicious_fraction: 0.05,
            }),
            ..FaultPlan::new(vec![FaultEvent::Byzantine {
                node: NodeId(2),
                action: ByzantineAction::Equivocate,
                at: SimTime::from_secs(120),
            }])
        },
        workload: WorkloadConfig {
            enabled: true,
            arrivals: OpenArrivals {
                process: ArrivalProcess::Poisson { rate_per_min: 12.0 },
                burst: burst.clone(),
            },
            fetches: Some(OpenArrivals {
                process: ArrivalProcess::Poisson { rate_per_min: 30.0 },
                burst,
            }),
            zipf_exponent: 0.9,
        },
        overload: OverloadConfig {
            admission_items_per_min: Some(40.0),
            admission_fetches_per_min: Some(60.0),
            max_pending_items: Some(30),
            max_inflight_per_node: Some(8),
            retry_budget_per_min: Some(240.0),
            ..OverloadConfig::default()
        },
        seed: 0xFA57_0B12,
        ..NetworkConfig::default()
    }
}

/// The deep rejoin of `network::tests::snapshot_bootstrap_rejoins_a_deep_laggard`
/// (node 3 sleeps until its blocks are pruned everywhere) with node 6 —
/// the provider nearest node 3 when it restarts — Byzantine: it tampers a
/// signature at its first election win and forges a block at 30 sim-min
/// (each rejected, quarantined, re-admitted), then serves node 3 a
/// tampered snapshot, which verification rejects before the next-nearest
/// provider serves a good one. The only pinned run (`tests/golden.rs`)
/// that reaches the tampered-snapshot path.
pub fn tampered_snapshot_config() -> NetworkConfig {
    NetworkConfig {
        nodes: 15,
        sim_minutes: 60,
        data_items_per_min: 2.0,
        request_interval_secs: 60,
        seed: 21,
        prune_blocks: true,
        prune_retention_blocks: 4,
        snapshot_bootstrap: true,
        fault_plan: FaultPlan::new(vec![
            FaultEvent::Crash {
                node: NodeId(3),
                at: SimTime::from_secs(120),
            },
            FaultEvent::Restart {
                node: NodeId(3),
                at: SimTime::from_secs(3_000),
            },
            FaultEvent::Byzantine {
                node: NodeId(6),
                action: ByzantineAction::TamperSignature,
                at: SimTime::ZERO,
            },
            FaultEvent::Byzantine {
                node: NodeId(6),
                action: ByzantineAction::ForgeBlock,
                at: SimTime::from_secs(1_800),
            },
        ]),
        ..NetworkConfig::default()
    }
}
