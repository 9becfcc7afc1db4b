//! The named runs that more than one integration test or example uses,
//! each defined once here. A test or example that needs a variant writes
//! a struct update on one of them (`NetworkConfig { raft_consensus: true,
//! ..scenario::chaos() }`), so a shared run cannot drift between the files
//! that share it.
//!
//! Several of these runs are pinned (`tests/golden.rs`, `tests/soak.rs`,
//! `tests/overload.rs`): editing one moves its pins.

use edgechain_core::{
    ArrivalProcess, Burst, NetworkConfig, OpenArrivals, OverloadConfig, WorkloadConfig,
};
use edgechain_sim::{
    ByzantineAction, ChurnConfig, FaultEvent, FaultPlan, NodeId, RoleAssignment, SimTime,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fig. 4-sized cell: 30 nodes, 2 items/min, 40 simulated minutes.
pub fn fig4_cell() -> NetworkConfig {
    NetworkConfig {
        nodes: 30,
        data_items_per_min: 2.0,
        sim_minutes: 40,
        seed: 0xFA57_0004,
        ..NetworkConfig::default()
    }
}

/// The pinned short chaos run: crashes (one permanent, triggering UFL
/// repair sweeps and dropping candidates out of PoS rounds mid-height), a
/// restart, and a lossy window (per-reception loss draws plus block
/// recovery) over 25 simulated minutes.
pub fn chaos_short() -> NetworkConfig {
    NetworkConfig {
        nodes: 20,
        data_items_per_min: 2.0,
        sim_minutes: 25,
        request_interval_secs: 60,
        fault_plan: FaultPlan::new(vec![
            FaultEvent::Crash {
                node: NodeId(3),
                at: SimTime::from_secs(500),
            },
            FaultEvent::Restart {
                node: NodeId(3),
                at: SimTime::from_secs(900),
            },
            FaultEvent::Crash {
                node: NodeId(11),
                at: SimTime::from_secs(650),
            },
            FaultEvent::LinkLoss {
                prob: 0.05,
                from: SimTime::from_secs(200),
                until: SimTime::from_secs(1_000),
            },
        ]),
        seed: 0xFA57_C405,
        ..NetworkConfig::default()
    }
}

/// The hour-long chaos run: node 4 crashes and restarts eight minutes
/// later, node 13 crashes for good (its replicas must be repaired
/// elsewhere), a 5-minute partition cuts nodes 0–4 from the rest, and a
/// 5 % loss window covers most of the run.
pub fn chaos() -> NetworkConfig {
    NetworkConfig {
        nodes: 20,
        sim_minutes: 60,
        data_items_per_min: 2.0,
        request_interval_secs: 60,
        fault_plan: FaultPlan::new(vec![
            FaultEvent::Crash {
                node: NodeId(4),
                at: SimTime::from_secs(600),
            },
            FaultEvent::Restart {
                node: NodeId(4),
                at: SimTime::from_secs(1_080),
            },
            FaultEvent::Crash {
                node: NodeId(13),
                at: SimTime::from_secs(1_000),
            },
            FaultEvent::Partition {
                cut: (0..5).map(NodeId).collect(),
                from: SimTime::from_secs(1_800),
                until: SimTime::from_secs(2_100),
            },
            FaultEvent::LinkLoss {
                prob: 0.05,
                from: SimTime::from_secs(120),
                until: SimTime::from_secs(3_500),
            },
        ]),
        // Back off long enough to ride out a mobility disconnection or a
        // partition window: 4 s, 8 s, …, 64 s spans over two minutes.
        fetch_retries: 5,
        retry_backoff_ms: 4_000,
        seed: 0xC4A05,
        ..NetworkConfig::default()
    }
}

/// The five-attack run at `seed` (pinned at `0xED6E`): three adversaries
/// out of twenty (15 % < the 20 % bound), each armed with a different
/// attack, plus crash churn and a long lossy window, on a one-hour run
/// with retries.
pub fn byzantine(seed: u64) -> NetworkConfig {
    NetworkConfig {
        nodes: 20,
        sim_minutes: 60,
        data_items_per_min: 2.0,
        request_interval_secs: 60,
        fetch_retries: 5,
        retry_backoff_ms: 4_000,
        fault_plan: FaultPlan::new(vec![
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
        ]),
        seed,
        ..NetworkConfig::default()
    }
}

/// The chain-lifecycle soak over `minutes`: pruning and snapshot
/// bootstrap on, seeded churn over the first four fifths of the run, and
/// one repeat-offender adversary (node 19) at fixed fractions of it. A
/// 6-second block target packs ≥ 10⁴ blocks into `minutes` ≥ 1000;
/// short-lived data keeps the catalogue (and its expiry order) churning.
pub fn soak(minutes: u64) -> NetworkConfig {
    // 20 nodes matches the density the chaos availability plan runs at;
    // the default 300 m × 300 m field is too sparse for ≥ 0.9
    // reachability with fewer radios.
    let nodes = 20;
    let horizon_secs = minutes * 60;
    let churn = FaultPlan::random_churn(
        nodes,
        ChurnConfig {
            crashes_per_min: 0.05,
            mean_downtime_secs: 600.0,
            max_concurrent_down: 2,
            horizon: SimTime::from_secs(horizon_secs * 4 / 5),
        },
        &mut StdRng::seed_from_u64(0x50AC),
    );
    let act = |action, at| FaultEvent::Byzantine {
        node: NodeId(19),
        action,
        at: SimTime::from_secs(at),
    };
    let adversary = FaultPlan::new(vec![
        act(ByzantineAction::Equivocate, horizon_secs / 10),
        act(ByzantineAction::Withhold { blocks: 2 }, horizon_secs / 4),
        act(ByzantineAction::ForgeBlock, horizon_secs / 2),
        act(
            ByzantineAction::GarbagePayload { bytes: 2_048 },
            horizon_secs * 3 / 5,
        ),
    ]);
    NetworkConfig {
        nodes,
        sim_minutes: minutes,
        block_interval_secs: 6,
        data_items_per_min: 1.0,
        data_valid_minutes: 45,
        expiration_sweep_secs: 60,
        request_interval_secs: 120,
        prune_blocks: true,
        prune_retention_blocks: 32,
        snapshot_bootstrap: true,
        fetch_retries: 5,
        retry_backoff_ms: 4_000,
        seed: 0x50_AB,
        fault_plan: churn.merged(adversary),
        ..NetworkConfig::default()
    }
}

/// Flash crowd: base item arrivals at 12/min burst 5× for ten minutes,
/// open fetches at 30/min burst 5×, against a 40/min admission bucket and
/// a 30-item mempool bound — deep enough into overload that every rung of
/// the degradation ladder engages. A zero-probability loss window injects
/// no faults but flips the run into fault mode, so the invariant checker
/// meters it.
pub fn flash_crowd() -> NetworkConfig {
    let burst = Some(Burst {
        multiplier: 5.0,
        from_secs: 600.0,
        until_secs: 1_200.0,
    });
    NetworkConfig {
        nodes: 20,
        sim_minutes: 40,
        request_interval_secs: 60,
        seed: 0xF1A5,
        // Ride out mobility disconnections like the chaos run does:
        // 4 s, 8 s, …, 64 s spans over two minutes of backoff.
        fetch_retries: 5,
        retry_backoff_ms: 4_000,
        fault_plan: FaultPlan::new(vec![FaultEvent::LinkLoss {
            prob: 0.0,
            from: SimTime::from_secs(1),
            until: SimTime::from_secs(40 * 60 - 60),
        }]),
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
            // Generous budget: bounds a retry storm without failing the
            // routine mobility-disconnect retries that must succeed.
            retry_budget_per_min: Some(240.0),
        },
        ..NetworkConfig::default()
    }
}

/// The [`flash_crowd`] on stores small enough to fill, with short-lived
/// items so the sweep keeps freeing slots, one early equivocation
/// (quarantined, then re-admitted inside the run) and one seeded denying
/// storer.
pub fn overload_byzantine() -> NetworkConfig {
    NetworkConfig {
        storage_slots: 12,
        data_valid_minutes: 12,
        expiration_sweep_secs: 60,
        fault_plan: FaultPlan::new(vec![FaultEvent::Byzantine {
            node: NodeId(2),
            action: ByzantineAction::Equivocate,
            at: SimTime::from_secs(120),
        }])
        .with_roles(RoleAssignment {
            seed: 0xD3A1,
            malicious_fraction: 0.05,
        }),
        seed: 0xFA57_0B12,
        ..flash_crowd()
    }
}

/// A deep rejoin (node 3 sleeps until its blocks are pruned everywhere)
/// with node 6 — the provider nearest node 3 when it restarts — Byzantine:
/// it tampers a signature at its first election win and forges a block at
/// 30 sim-min (each rejected, quarantined, re-admitted), then serves node
/// 3 a tampered snapshot, which verification rejects before the
/// next-nearest provider serves a good one.
pub fn tampered_snapshot() -> NetworkConfig {
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

#[cfg(test)]
mod tests {
    use super::*;
    use edgechain_core::EdgeNetwork;

    /// Every entry is a config the network accepts, and the soak's
    /// adversary acts inside the horizon at every length a test or the
    /// example runs it at.
    #[test]
    fn every_scenario_is_a_valid_network() {
        let catalogue = [
            ("fig4_cell", fig4_cell()),
            ("chaos_short", chaos_short()),
            ("chaos", chaos()),
            ("byzantine", byzantine(0xED6E)),
            ("soak", soak(40)),
            ("flash_crowd", flash_crowd()),
            ("overload_byzantine", overload_byzantine()),
            ("tampered_snapshot", tampered_snapshot()),
        ];
        for (name, cfg) in catalogue {
            cfg.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            EdgeNetwork::new(cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        for minutes in [40, 120, 1_100] {
            let cfg = soak(minutes);
            let horizon = SimTime::from_secs(minutes * 60);
            let acts = cfg
                .fault_plan
                .events
                .iter()
                .filter(|e| matches!(e, FaultEvent::Byzantine { at, .. } if *at < horizon))
                .count();
            assert_eq!(acts, 4, "soak({minutes})");
        }
    }
}
