//! Exhaustive single-bit flips over one fixed encoding of every signed or
//! hashed wire type. Each mutant must fail to decode, fail its own check
//! (`verify` / `is_well_formed`), or decode equal to the original: no bit
//! of a committed structure escapes its hash or signature. Every proper
//! prefix of each encoding must fail to decode.
//!
//! Every mutant that decodes costs one signature check, so the fixtures
//! are as small as the types allow: short strings, one item, one retained
//! block.

use edgechain_core::account::Identity;
use edgechain_core::block::Block;
use edgechain_core::codec::{
    decode_anchor, decode_block, decode_metadata, decode_snapshot, encode_anchor, encode_block,
    encode_metadata, encode_snapshot, DecodeError,
};
use edgechain_core::metadata::{DataId, DataType, Location, MetadataItem};
use edgechain_core::pos::{next_pos_hash, Amendment};
use edgechain_core::{Blockchain, ChainAnchor, Snapshot};
use edgechain_crypto::{KeyPair, PublicKey, Signature};
use edgechain_sim::NodeId;

/// Calls `check` on every single-bit flip of `bytes`.
fn each_flip(bytes: &[u8], mut check: impl FnMut(usize, &[u8])) {
    let mut mutant = bytes.to_vec();
    for bit in 0..bytes.len() * 8 {
        mutant[bit / 8] ^= 1 << (bit % 8);
        check(bit, &mutant);
        mutant[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Asserts that every proper prefix of `bytes` fails to decode.
fn each_prefix_fails<T>(bytes: &[u8], decode: impl Fn(&[u8]) -> Result<T, DecodeError>) {
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
}

fn item() -> MetadataItem {
    MetadataItem::new_signed(
        Identity::from_seed(2).keys(),
        DataId(7),
        DataType::KeyExchange,
        660,
        Location {
            label: "A".into(),
            x: 1.5,
            y: -2.0,
        },
        1440,
        Some("c".into()),
        4_096,
    )
}

/// Genesis plus two blocks; the first packs one item with its storers.
fn chain() -> Blockchain {
    let mut chain = Blockchain::new();
    for i in 1..=2u64 {
        let prev = chain.tip();
        let miner = Identity::from_seed(i).account();
        let mut packed = item();
        packed.storing_nodes = vec![NodeId(3)];
        let b = Block::new(
            i,
            prev.hash,
            i * 60,
            next_pos_hash(&prev.pos_hash, &miner),
            miner,
            60,
            Amendment::from_fraction(1, 1000),
            if i == 1 { vec![packed] } else { Vec::new() },
            vec![NodeId(1)],
            prev.storing_nodes.clone(),
            vec![NodeId(2)],
        );
        chain.push(b).unwrap();
    }
    chain
}

/// The chain pruned below height 2: blocks 0–1 collapse into the anchor,
/// and the one retained block packs no item.
fn pruned() -> Blockchain {
    let mut chain = chain();
    chain.prune_below(2, Identity::from_seed(9).keys());
    chain
}

#[test]
fn every_flip_of_a_metadata_item_is_caught() {
    let original = item();
    assert!(original.verify());
    each_prefix_fails(&encode_metadata(&original), decode_metadata);
    each_flip(&encode_metadata(&original), |bit, mutant| {
        if let Ok(dec) = decode_metadata(mutant) {
            assert!(dec == original || !dec.verify(), "bit {bit} verified");
        }
    });
}

#[test]
fn every_flip_of_a_block_is_caught() {
    let sealed = chain().get(1).unwrap().clone();
    let decoded = decode_block(&sealed.encoded()).unwrap();
    assert_eq!(encode_block(&decoded), sealed.encoded().as_ref());
    for (original, bytes) in [
        (&sealed, sealed.encoded().to_vec()),
        (&decoded, encode_block(&decoded)),
    ] {
        each_prefix_fails(&bytes, decode_block);
        each_flip(&bytes, |bit, mutant| {
            if let Ok(dec) = decode_block(mutant) {
                assert!(
                    dec == *original || !(dec.is_well_formed() || dec.is_well_formed_sealed()),
                    "bit {bit} is well formed"
                );
            }
        });
    }
}

#[test]
fn every_flip_of_an_anchor_is_caught() {
    let original: ChainAnchor = pruned().anchor().unwrap().clone();
    assert!(original.verify());
    each_prefix_fails(&encode_anchor(&original), decode_anchor);
    each_flip(&encode_anchor(&original), |bit, mutant| {
        if let Ok(dec) = decode_anchor(mutant) {
            assert!(dec == original || !dec.verify(), "bit {bit} verified");
        }
    });
}

#[test]
fn every_flip_of_a_snapshot_is_caught() {
    let chain = pruned();
    let original = Snapshot::seal(
        chain.anchor().unwrap().clone(),
        chain.as_slice().to_vec(),
        vec![(item(), 2)],
        Identity::from_seed(1).keys(),
    );
    assert!(original.verify());
    each_prefix_fails(&encode_snapshot(&original), decode_snapshot);
    each_flip(&encode_snapshot(&original), |bit, mutant| {
        if let Ok(dec) = decode_snapshot(mutant) {
            assert!(dec == original || !dec.verify(), "bit {bit} verified");
        }
    });
}

#[test]
fn every_flip_of_a_key_or_signature_is_caught() {
    let keys = KeyPair::from_seed(5);
    let message = b"fixed message";
    let signature = keys.sign(message);
    let key = keys.public_key();
    each_flip(&key.to_bytes(), |bit, mutant| {
        if let Ok(dec) = PublicKey::from_bytes(mutant.try_into().unwrap()) {
            assert!(
                dec == key || !dec.verify(message, &signature),
                "key bit {bit} verified"
            );
        }
    });
    each_flip(&signature.to_bytes(), |bit, mutant| {
        let dec = Signature::from_bytes(mutant.try_into().unwrap());
        assert!(
            dec == signature || !key.verify(message, &dec),
            "signature bit {bit} verified"
        );
    });
}
