//! Property-based tests for the core blockchain invariants: PoS math,
//! storage accounting, chain integrity, and metadata signatures.

use edgechain_core::account::{AccountId, Identity, Ledger};
use edgechain_core::block::Block;
use edgechain_core::chain::{Blockchain, ChainAnchor, ChainError, CheckpointPolicy};
use edgechain_core::metadata::{DataId, DataType, Location, MetadataItem};
use edgechain_core::pos::{hit, run_round, Amendment, Candidate};
use edgechain_core::storage::NodeStorage;
use edgechain_crypto::sha256;
use edgechain_sim::NodeId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mining_delay_is_minimal_everywhere(
        h in any::<u64>(),
        u in 1u64..1_000_000,
        sum_u in 1u64..100_000_000,
        n in 1u64..1000,
        t0 in 1u64..3600,
    ) {
        let us: Vec<u64> = vec![sum_u / n.min(sum_u).max(1); n.min(64) as usize];
        let b = Amendment::compute(&us, t0);
        let t = b.mining_delay_secs(h, u);
        prop_assert!(t >= 1);
        prop_assert!(b.meets_target(h, u, t) || t == edgechain_core::pos::MAX_DELAY_SECS);
        if t > 1 && t < edgechain_core::pos::MAX_DELAY_SECS {
            prop_assert!(!b.meets_target(h, u, t - 1), "t={t} not minimal");
        }
    }

    #[test]
    fn target_monotone_in_time_and_contribution(
        u1 in 1u64..1_000_000,
        u2 in 1u64..1_000_000,
        t1 in 1u64..100_000,
        t2 in 1u64..100_000,
        num in 1u128..1_000_000,
        den in 1u128..1_000_000,
    ) {
        let b = Amendment::from_fraction(num, den);
        let (ulo, uhi) = (u1.min(u2), u1.max(u2));
        let (tlo, thi) = (t1.min(t2), t1.max(t2));
        prop_assert!(b.target(ulo, tlo) <= b.target(uhi, tlo));
        prop_assert!(b.target(ulo, tlo) <= b.target(ulo, thi));
    }

    #[test]
    fn hits_are_stable_and_account_bound(seed_a in any::<u64>(), seed_b in any::<u64>()) {
        let prev = sha256(b"prop");
        let a = Identity::from_seed(seed_a).account();
        let b = Identity::from_seed(seed_b).account();
        prop_assert_eq!(hit(&prev, &a), hit(&prev, &a));
        if seed_a != seed_b {
            prop_assert_ne!(hit(&prev, &a), hit(&prev, &b));
        }
    }

    #[test]
    fn pos_round_winner_is_verifiable(
        seeds in prop::collection::vec(any::<u64>(), 2..12),
        tokens in prop::collection::vec(1u64..50, 2..12),
        t0 in 10u64..600,
    ) {
        let n = seeds.len().min(tokens.len());
        let candidates: Vec<Candidate> = (0..n)
            .map(|i| Candidate {
                account: Identity::from_seed(seeds[i]).account(),
                tokens: tokens[i],
                stored_items: 1 + (i as u64 % 5),
            })
            .collect();
        let prev = sha256(b"round");
        let out = run_round(&prev, &candidates, t0);
        prop_assert!(out.winner < n);
        let us: Vec<u64> = candidates.iter().map(|c| c.contribution()).collect();
        prop_assert!(edgechain_core::pos::verify_claim(
            &prev, &candidates[out.winner], &us, t0, out.delay_secs
        ));
        // No candidate could have mined strictly earlier.
        let b = Amendment::compute(&us, t0);
        for (i, c) in candidates.iter().enumerate() {
            let h = hit(&prev, &c.account);
            prop_assert!(b.mining_delay_secs(h, us[i]) >= out.delay_secs);
        }
    }

    #[test]
    fn storage_never_exceeds_capacity(
        capacity in 1u64..64,
        ops in prop::collection::vec((0u8..6, 0u64..64), 0..200),
    ) {
        let mut s = NodeStorage::new(capacity);
        for (op, arg) in ops {
            match op {
                0 => { s.store_data(DataId(arg)); }
                1 => { s.store_block(arg); }
                2 => { s.cache_recent(arg); }
                3 => { s.evict_data(DataId(arg)); }
                4 => { s.grow_recent_quota(); }
                _ => {
                    let used = s.used_slots();
                    prop_assert_eq!(used - s.prune_blocks_below(arg), s.used_slots());
                    prop_assert!((0..arg).all(|idx| !s.has_block(idx)));
                }
            }
            prop_assert!(s.used_slots() <= s.capacity());
            prop_assert!(s.q_value() >= 1);
            let f = s.fdc();
            prop_assert!(f >= 0.0);
            prop_assert_eq!(f.is_infinite(), s.is_full());
        }
    }

    #[test]
    fn ledger_rescale_preserves_ordering(
        balances in prop::collection::vec(0u64..10_000, 2..20),
    ) {
        let mut ledger = Ledger::new();
        let accounts: Vec<_> = (0..balances.len())
            .map(|i| Identity::from_seed(i as u64).account())
            .collect();
        for (acct, &b) in accounts.iter().zip(&balances) {
            ledger.credit(*acct, b);
        }
        let before: Vec<u64> = accounts.iter().map(|a| ledger.balance(a)).collect();
        ledger.rescale_halve();
        let after: Vec<u64> = accounts.iter().map(|a| ledger.balance(a)).collect();
        for i in 0..before.len() {
            prop_assert!(after[i] >= 1);
            for j in 0..before.len() {
                if before[i] > before[j] {
                    prop_assert!(after[i] >= after[j]);
                }
            }
        }
    }

    #[test]
    fn chain_rejects_any_single_field_tamper(
        field in 0usize..5,
        delta in 1u64..1000,
    ) {
        let mut chain = Blockchain::new();
        for i in 0..3u64 {
            let b = Block::new(
                chain.height() + 1,
                chain.tip().hash,
                (i + 1) * 60,
                sha256(format!("pos{i}").as_bytes()),
                Identity::from_seed(i).account(),
                60,
                Amendment::from_fraction(1, 1000),
                vec![],
                vec![NodeId(0)],
                vec![],
                vec![],
            );
            chain.push(b).unwrap();
        }
        let mut blocks = chain.as_slice().to_vec();
        // Tamper one field of block 2 without re-sealing.
        match field {
            0 => blocks[2].timestamp_secs += delta,
            1 => blocks[2].delay_secs += delta,
            2 => blocks[2].index += delta,
            3 => blocks[2].storing_nodes.push(NodeId(delta as usize)),
            _ => blocks[2].prev_hash = sha256(delta.to_be_bytes()),
        }
        prop_assert!(Blockchain::from_blocks(blocks).is_err());
    }
}

/// A chain of `n` blocks on genesis whose miners cycle through three
/// accounts offset by `fork`: chains built with different offsets diverge
/// from block 1 on.
fn linked_chain(n: u64, fork: u64) -> Blockchain {
    let mut chain = Blockchain::new();
    grow(&mut chain, n, fork);
    chain
}

/// Appends `n` blocks to `chain` as [`linked_chain`] mines them: tips
/// grown from one chain with different offsets diverge at once.
fn grow(chain: &mut Blockchain, n: u64, fork: u64) {
    for i in 0..n {
        let tip = chain.tip();
        let block = Block::new(
            tip.index + 1,
            tip.hash,
            tip.timestamp_secs + 60,
            sha256(format!("pos{i}").as_bytes()),
            AccountId(sha256(format!("miner{}", fork + i % 3).as_bytes())),
            60,
            Amendment::from_fraction(1, 1000),
            vec![],
            vec![NodeId(0)],
            vec![],
            vec![],
        );
        chain.push(block).unwrap();
    }
}

/// The anchor `chain` seals when pruning below `cut`.
fn anchor_below(chain: &Blockchain, cut: u64, keys: &Identity) -> ChainAnchor {
    let mut pruned = chain.clone();
    assert!(pruned.prune_below(cut, keys.keys()) > 0);
    pruned.anchor().unwrap().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rebase_onto_matches_from_anchor(
        n in 2u64..24,
        with_prior in any::<bool>(),
        prior in any::<u64>(),
        pick in any::<u64>(),
    ) {
        let keys = Identity::from_seed(9);
        // The canonical chain runs one block past the view, so an anchor
        // can sit at every height the view retains, its tip included.
        let canonical = linked_chain(n + 1, 0);
        let mut view = Blockchain::from_blocks(canonical.retained_up_to(n).to_vec()).unwrap();
        if with_prior {
            view.prune_below(1 + prior % n, keys.keys());
        }
        let base = view.base_index();
        let h = base + pick % (view.height() - base + 1);
        let anchor = anchor_below(&canonical, h + 1, &keys);

        let expected = Blockchain::from_anchor(anchor.clone(), view.retained_after(h).to_vec());
        let mut rebased = view.clone();
        let got = rebased.rebase_onto(&anchor);
        match expected {
            Ok(want) => {
                prop_assert_eq!(got, Ok(()));
                prop_assert_eq!(rebased.base_index(), h + 1);
                prop_assert_eq!(rebased.commitment_at(h), Some(anchor.commitment));
                prop_assert_eq!(rebased.commitment_at(h), want.commitment_at(h));
                prop_assert_eq!(&rebased, &want);
            }
            Err(e) => {
                prop_assert_eq!(h, view.height(), "only an anchor at the tip retains nothing");
                prop_assert_eq!(got, Err(e));
                prop_assert_eq!(&rebased, &view);
            }
        }

        // A fork's anchor at the same height does not attach: refused by
        // both paths, and the view is left as it was.
        let mut untouched = view.clone();
        if h >= 1 && h < view.height() {
            let detached = anchor_below(&linked_chain(n + 1, 100), h + 1, &keys);
            prop_assert_eq!(untouched.rebase_onto(&detached), Err(ChainError::DetachedAnchor));
            prop_assert_eq!(
                Blockchain::from_anchor(detached, view.retained_after(h).to_vec()),
                Err(ChainError::DetachedAnchor)
            );
        }
        // So is an anchor whose boundary the view pruned away already.
        if base >= 2 {
            let stale = anchor_below(&canonical, base - 1, &keys);
            prop_assert_eq!(untouched.rebase_onto(&stale), Err(ChainError::DetachedAnchor));
        }
        prop_assert_eq!(&untouched, &view);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn held_adoption_matches_adoption_of_the_slice(
        shared in 0u64..12,
        ours in 0u64..10,
        theirs in 1u64..14,
        view_cut in proptest::option::of(any::<u64>()),
        source_cut in proptest::option::of(any::<u64>()),
        pick in any::<u64>(),
        interval in prop_oneof![Just(u64::MAX), 2u64..8],
    ) {
        let keys = Identity::from_seed(9);
        // Two chains share `shared` blocks past genesis, then each grows
        // its own branch; either may have pruned below a random cut.
        let mut view = linked_chain(shared, 0);
        let mut source = view.clone();
        grow(&mut view, ours, 10);
        grow(&mut source, theirs, 20);
        if let Some(c) = view_cut {
            view.prune_below(1 + c % view.height().max(1), keys.keys());
        }
        if let Some(c) = source_cut {
            source.prune_below(1 + c % source.height().max(1), keys.keys());
        }
        let base = source.base_index();
        let upto = base + pick % (source.height() - base + 1);
        let policy = CheckpointPolicy { interval };

        let mut held = view.clone();
        let mut full = view.clone();
        let adopted = held.try_adopt_from(&source, upto, policy);
        prop_assert_eq!(adopted, full.try_adopt(source.retained_up_to(upto), policy));
        prop_assert_eq!(&held, &full);
        if !adopted {
            prop_assert_eq!(&held, &view);
        }
    }
}

proptest! {
    // Signature-heavy cases: keep the count low (modexp cost).
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn metadata_signature_binds_all_signed_fields(
        seed in any::<u64>(),
        data_id in any::<u64>(),
        size in 1u64..10_000_000,
        valid in 1u64..10_000,
    ) {
        let keys = Identity::from_seed(seed);
        let item = MetadataItem::new_signed(
            keys.keys(),
            DataId(data_id),
            DataType::Media("clip".into()),
            77,
            Location { label: "x".into(), x: 1.0, y: 2.0 },
            valid,
            Some("prop".into()),
            size,
        );
        prop_assert!(item.verify());
        let mut t = item.clone();
        t.data_id = DataId(data_id.wrapping_add(1));
        prop_assert!(!t.verify());
        let mut t = item.clone();
        t.producer = Identity::from_seed(seed.wrapping_add(1)).account();
        prop_assert!(!t.verify());
        let mut t = item;
        t.properties = None;
        prop_assert!(!t.verify());
    }
}
