//! Fork formation and resolution across a network partition.
//!
//! The paper (§III-C) notes that mobility-induced disconnections make
//! branches "likely to appear". This test builds that scenario end to end
//! with real PoS rounds: a network splits into two groups, each group keeps
//! mining its own branch with the candidates it can see, and on healing
//! every node adopts the longest valid chain — unless a checkpoint forbids
//! crossing it (§V-D).

use edgechain::core::{
    run_round, Amendment, Block, Blockchain, Candidate, CheckpointPolicy, EdgeNetwork, Identity,
    NetworkConfig,
};
use edgechain::scenario;
use edgechain::sim::{
    ByzantineAction, ByzantineSweepConfig, FaultEvent, FaultPlan, NodeId, SimTime,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mines one block on `chain` with the given candidate subset (a network
/// partition mines with whoever it can reach).
fn mine_on(chain: &mut Blockchain, identities: &[Identity], members: &[usize]) {
    let candidates: Vec<Candidate> = members
        .iter()
        .map(|&i| Candidate {
            account: identities[i].account(),
            tokens: 1 + chain.blocks_mined_by(&identities[i].account()),
            stored_items: 3,
        })
        .collect();
    let outcome = run_round(&chain.tip().pos_hash, &candidates, 60);
    let us: Vec<u64> = candidates.iter().map(|c| c.contribution()).collect();
    let block = Block::new(
        chain.height() + 1,
        chain.tip().hash,
        chain.tip().timestamp_secs + outcome.delay_secs,
        outcome.new_pos_hash,
        candidates[outcome.winner].account,
        outcome.delay_secs,
        Amendment::compute(&us, 60),
        vec![],
        vec![NodeId(members[0])],
        chain.tip().storing_nodes.clone(),
        vec![],
    );
    chain.push(block).expect("self-mined block extends tip");
}

#[test]
fn partitioned_branches_converge_to_longest() {
    let identities: Vec<Identity> = (0..6).map(Identity::from_seed).collect();
    // Shared history: 4 blocks mined by everyone.
    let mut trunk = Blockchain::new();
    for _ in 0..4 {
        mine_on(&mut trunk, &identities, &[0, 1, 2, 3, 4, 5]);
    }

    // Partition: group A = {0,1}, group B = {2,3,4,5}. Both keep mining.
    let mut branch_a = trunk.clone();
    let mut branch_b = trunk.clone();
    for _ in 0..3 {
        mine_on(&mut branch_a, &identities, &[0, 1]);
    }
    for _ in 0..5 {
        mine_on(&mut branch_b, &identities, &[2, 3, 4, 5]);
    }
    assert_eq!(branch_a.height(), 7);
    assert_eq!(branch_b.height(), 9);
    // The branches genuinely diverged.
    assert_ne!(branch_a.get(5).unwrap().hash, branch_b.get(5).unwrap().hash);

    // Heal: group A receives B's chain and adopts it (longer).
    let mut node_in_a = branch_a.clone();
    // No checkpoint is in range: the plain longest-chain rule.
    let plain = CheckpointPolicy { interval: u64::MAX };
    assert!(node_in_a.try_adopt(branch_b.as_slice(), plain));
    assert_eq!(node_in_a, branch_b);
    // Group B ignores A's shorter chain.
    let mut node_in_b = branch_b.clone();
    assert!(!node_in_b.try_adopt(branch_a.as_slice(), plain));
    assert_eq!(node_in_b.height(), 9);

    // Everyone ends on the same chain and all PoS history re-validates.
    let rebuilt = Blockchain::from_blocks(node_in_a.as_slice().to_vec()).unwrap();
    assert_eq!(rebuilt.height(), 9);
}

#[test]
fn checkpoints_stop_branch_takeover_after_finality() {
    let identities: Vec<Identity> = (0..6).map(Identity::from_seed).collect();
    let mut trunk = Blockchain::new();
    for _ in 0..4 {
        mine_on(&mut trunk, &identities, &[0, 1, 2, 3, 4, 5]);
    }
    // Majority branch crosses the checkpoint height (10) on its own fork.
    let mut majority = trunk.clone();
    for _ in 0..8 {
        mine_on(&mut majority, &identities, &[2, 3, 4, 5]);
    }
    assert!(majority.height() >= 10);
    // A longer attacker branch also from the trunk.
    let mut attacker = trunk.clone();
    for _ in 0..12 {
        mine_on(&mut attacker, &identities, &[0, 1]);
    }
    assert!(attacker.height() > majority.height());

    let policy = CheckpointPolicy { interval: 10 };
    let mut node = majority.clone();
    assert!(
        !node.try_adopt(attacker.as_slice(), policy),
        "reorg across a checkpoint must be refused"
    );
    assert_eq!(node, majority);
    // Extending the checkpointed chain itself is still accepted.
    let mut extended = majority.clone();
    mine_on(&mut extended, &identities, &[2, 3, 4, 5]);
    assert!(node.try_adopt(extended.as_slice(), policy));
}

/// Live-network counterpart of the unit-level checkpoint tests above: an
/// equivocating miner and a released private fork drive real reorgs
/// through the broadcast path, and every reorg stays strictly below the
/// checkpoint interval while honest prefixes hold.
#[test]
fn live_network_reorgs_stay_below_checkpoint_depth() {
    let plan = FaultPlan::new(vec![
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
        FaultEvent::LinkLoss {
            prob: 0.05,
            from: SimTime::from_secs(120),
            until: SimTime::from_secs(3_000),
        },
    ]);
    let report = EdgeNetwork::new(NetworkConfig {
        fault_plan: plan,
        ..scenario::byzantine(0xED6E)
    })
    .expect("valid config")
    .run();

    assert!(
        report.reorgs >= 1,
        "conflicting tips never reorged: {report}"
    );
    assert!(
        report.max_reorg_depth < 10,
        "a reorg crossed the checkpoint interval: {report}"
    );
    assert_eq!(
        report.invariant_violations, 0,
        "honest prefix consistency broken: {report}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Under random seeded adversary sweeps, any reorg the live network
    /// performs is bounded by checkpoint finality, deterministically.
    #[test]
    fn random_adversary_reorgs_respect_checkpoints(seed in 256u64..384) {
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
            seed: seed.wrapping_mul(0x9E37_79B9).wrapping_add(13),
            ..NetworkConfig::default()
        };
        let a = EdgeNetwork::new(config()).expect("valid config").run();
        prop_assert!(
            a.max_reorg_depth < 10,
            "reorg crossed the checkpoint interval: {}", &a
        );
        prop_assert_eq!(a.invariant_violations, 0, "invariant broken: {}", &a);
        let b = EdgeNetwork::new(config()).expect("valid config").run();
        prop_assert_eq!(a, b, "adversarial fork race must replay bit-identically");
    }
}

#[test]
fn rich_partition_mines_faster() {
    // The group holding more contribution mines more blocks in the same
    // simulated time — the PoS advantage carries into fork races.
    let identities: Vec<Identity> = (0..8).map(Identity::from_seed).collect();
    let mut trunk = Blockchain::new();
    for _ in 0..2 {
        mine_on(&mut trunk, &identities, &[0, 1, 2, 3, 4, 5, 6, 7]);
    }
    // Give group A far more storage contribution.
    let mine_with_storage = |chain: &mut Blockchain, members: &[usize], storage: u64| {
        let candidates: Vec<Candidate> = members
            .iter()
            .map(|&i| Candidate {
                account: identities[i].account(),
                tokens: 2,
                stored_items: storage,
            })
            .collect();
        let outcome = run_round(&chain.tip().pos_hash, &candidates, 60);
        let us: Vec<u64> = candidates.iter().map(|c| c.contribution()).collect();
        let block = Block::new(
            chain.height() + 1,
            chain.tip().hash,
            chain.tip().timestamp_secs + outcome.delay_secs,
            outcome.new_pos_hash,
            candidates[outcome.winner].account,
            outcome.delay_secs,
            Amendment::compute(&us, 60),
            vec![],
            vec![NodeId(members[0])],
            chain.tip().storing_nodes.clone(),
            vec![],
        );
        chain.push(block).unwrap();
        outcome.delay_secs
    };
    let mut heavy = trunk.clone();
    let mut light = trunk.clone();
    let mut heavy_time = 0;
    let mut light_time = 0;
    for _ in 0..60 {
        heavy_time += mine_with_storage(&mut heavy, &[0, 1, 2, 3], 40);
        light_time += mine_with_storage(&mut light, &[4, 5, 6, 7], 40);
    }
    // Same per-group contribution ⇒ similar pace (sanity check that B
    // normalizes the rate regardless of absolute contribution). Sixty
    // min-of-four rounds still carry noticeable variance; bound loosely.
    let ratio = heavy_time as f64 / light_time as f64;
    assert!(
        (0.5..2.0).contains(&ratio),
        "equal-contribution groups should mine at similar pace, ratio {ratio}"
    );
}
