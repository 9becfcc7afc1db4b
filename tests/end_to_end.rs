//! End-to-end integration tests: the full blockchain network simulation,
//! audited from the outside through the facade crate.

use edgechain::core::{Blockchain, EdgeNetwork, Identity, NetworkConfig};

fn base_config() -> NetworkConfig {
    NetworkConfig {
        nodes: 15,
        data_items_per_min: 2.0,
        sim_minutes: 40,
        request_interval_secs: 120,
        seed: 4242,
        ..NetworkConfig::default()
    }
}

#[test]
fn blocks_accumulate_near_expected_interval() {
    let report = EdgeNetwork::new(base_config()).unwrap().run();
    // 40 minutes at t0 = 60 s: roughly 40 blocks; allow wide tolerance for
    // the min-of-uniforms discretization and contribution heterogeneity.
    assert!(
        report.blocks_mined >= 20,
        "only {} blocks",
        report.blocks_mined
    );
    assert!(
        report.blocks_mined <= 90,
        "too many: {}",
        report.blocks_mined
    );
    assert!(
        report.mean_block_interval_secs > 20.0 && report.mean_block_interval_secs < 120.0,
        "interval {}",
        report.mean_block_interval_secs
    );
}

#[test]
fn final_chain_fully_validates_with_signatures() {
    let (report, chain) = EdgeNetwork::new(base_config()).unwrap().run_with_chain();
    assert!(report.blocks_mined > 0);
    let rebuilt = Blockchain::from_blocks(chain.as_slice().to_vec())
        .expect("chain must re-validate from raw blocks");
    for block in rebuilt.iter().skip(1) {
        Blockchain::verify_block_signatures(block).expect("all metadata signatures must verify");
        assert!(block.is_well_formed());
    }
    assert_eq!(rebuilt.height(), report.blocks_mined);
}

#[test]
fn ledger_matches_mining_history() {
    let cfg = base_config();
    let seed = cfg.seed;
    let nodes = cfg.nodes;
    let (report, chain) = EdgeNetwork::new(cfg).unwrap().run_with_chain();
    let ledger = chain.derive_ledger();
    let mut total_rewards = 0;
    for i in 0..nodes {
        let acct = Identity::from_seed(seed + i as u64).account();
        let mined = chain.blocks_mined_by(&acct);
        assert_eq!(ledger.balance(&acct), 1 + mined, "node {i}");
        total_rewards += mined;
    }
    assert_eq!(total_rewards, report.blocks_mined);
}

#[test]
fn storage_fairness_meets_paper_bound() {
    // The paper reports Gini < 0.15 across all §VI-A settings.
    let report = EdgeNetwork::new(base_config()).unwrap().run();
    assert!(
        report.storage_gini < 0.15,
        "storage gini {} ≥ 0.15",
        report.storage_gini
    );
}

#[test]
fn data_is_deliverable() {
    let report = EdgeNetwork::new(base_config()).unwrap().run();
    assert!(report.fetch_latency.count > 0, "no request completed");
    // Paper Fig. 4(c): delivery stays within a few seconds.
    let mean = report.fetch_latency.mean.unwrap();
    assert!(mean < 5.0, "mean delivery {mean} s");
    assert!(report.fetch_latency.max.unwrap() < 30.0);
}

#[test]
fn disconnected_nodes_recover_missing_blocks() {
    // High mobility forces partitions; recoveries must fire and succeed
    // quickly thanks to the recent-block caches.
    let cfg = NetworkConfig {
        topology: edgechain::sim::TopologyConfig {
            mobility_range: 80.0,
            ..Default::default()
        },
        mobility_interval_secs: 30,
        ..base_config()
    };
    let report = EdgeNetwork::new(cfg).unwrap().run();
    assert!(report.recoveries > 0, "no recovery happened under churn");
    assert!(
        report.recovery.mean() < 5.0,
        "recoveries too slow: {}",
        report.recovery.mean()
    );
}

#[test]
fn overhead_stays_bounded() {
    // Paper Fig. 4(a): per-node transfer volume stays modest (~≤120 MB over
    // 500 min); our shorter run must stay well under that.
    let report = EdgeNetwork::new(base_config()).unwrap().run();
    assert!(
        report.mean_node_overhead_mb < 120.0,
        "overhead {} MB",
        report.mean_node_overhead_mb
    );
    assert!(report.total_sent_mb > 0.0);
}

#[test]
fn identical_seeds_reproduce_identical_runs() {
    let a = EdgeNetwork::new(base_config()).unwrap().run();
    let b = EdgeNetwork::new(base_config()).unwrap().run();
    assert_eq!(a, b);
}

#[test]
fn contribution_weighting_skews_mining() {
    // Over a longer horizon the rich-get-richer dynamic of S_i·Q_i must
    // produce a non-uniform mining distribution.
    let cfg = NetworkConfig {
        sim_minutes: 90,
        ..base_config()
    };
    let seed = cfg.seed;
    let nodes = cfg.nodes;
    let (_, chain) = EdgeNetwork::new(cfg).unwrap().run_with_chain();
    let mut counts: Vec<u64> = (0..nodes)
        .map(|i| chain.blocks_mined_by(&Identity::from_seed(seed + i as u64).account()))
        .collect();
    counts.sort_unstable();
    let top = *counts.last().unwrap();
    let median = counts[nodes / 2];
    assert!(
        top >= median * 2,
        "expected skewed mining, got top {top} vs median {median}"
    );
}
