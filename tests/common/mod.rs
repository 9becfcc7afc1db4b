//! Run configurations shared by more than one integration test, so each
//! lives in one place.

use edgechain::core::NetworkConfig;
use edgechain::sim::{ByzantineAction, FaultEvent, FaultPlan, NodeId, SimTime};

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
