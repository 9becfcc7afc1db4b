//! Known-answer vectors for the signature scheme.
//!
//! The hex below was pinned on the commit *before* the secp256k1 field
//! kernel replaced the generic Knuth-division `pow_mod` in
//! `edgechain-crypto`. Modular arithmetic is exact, so every key, address
//! and signature must stay byte-identical under any later change to how
//! the arithmetic is carried out.
//!
//! The encoded metadata item is the one exception, and only because what
//! is signed changed: its producer now signs the codec's own bytes for the
//! item (its encoding less `signature` and `storing_nodes`, under a domain
//! tag) instead of a hand-written field list, so its signature, and with it
//! the encoding's digest, were re-pinned. The length (221 bytes) and every
//! vector above it did not move.
//!
//! The block, chain, anchor and snapshot encodings beside it were pinned
//! on the commit before the codec stopped reading and writing through a
//! vendored `bytes` crate.

use edgechain::core::pos::{next_pos_hash, Amendment};
use edgechain::core::{
    codec, Block, Blockchain, DataId, DataType, Identity, Location, MetadataItem, Snapshot,
};
use edgechain::crypto::{sha256, KeyPair};
use edgechain::sim::NodeId;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The three signed messages: empty, 26 bytes, 1 kB of a fixed pattern.
fn messages() -> [Vec<u8>; 3] {
    [
        Vec::new(),
        b"sensor reading: pm2.5 = 17".to_vec(),
        (0..1000u32).map(|i| (i * 31 + 7) as u8).collect(),
    ]
}

#[test]
fn public_keys_and_addresses_are_pinned() {
    // (seed, public key, account address)
    let pinned: [(u64, &str, &str); 4] = [
        (
            0,
            "e492e27c7aa416b1fc0e2b6953946de3ffde3bcbd3f385f3ffd5223a9c3817ac",
            "7e5ee8e5f3beca5af5c6ce84491dc92dc1d8639513e0fbfac3731d0fb8d2f883",
        ),
        (
            1,
            "a89ed701cbc55fa36cadc9d0ebbac7587144763033b6f5b9366283fba4623809",
            "834fbdbc022782f924aa14d01c906a0abd52c6d422797edee6d15944a3d56e22",
        ),
        (
            42,
            "c67888c97270601f21442ea1126ee89847adbad85a541ba85207bdb66a71253f",
            "c0f9ff57a890b938d2e1e37572e89cf9dd1e2fd004058c9577c5c55bfc8647af",
        ),
        (
            u64::MAX,
            "062619a36722f41049b9452a8bd02907e492d8d528edbd3796fb5071edb6801b",
            "9594a35b2d1de81761805b19e3898f2214a3235e636a847824131759fbec0fed",
        ),
    ];
    for (seed, key, address) in pinned {
        let kp = KeyPair::from_seed(seed);
        assert_eq!(hex(&kp.public_key().to_bytes()), key, "key of seed {seed}");
        assert_eq!(kp.address().to_hex(), address, "address of seed {seed}");
        assert_eq!(kp.public_key().address(), kp.address());
    }
}

#[test]
fn signatures_are_pinned() {
    // (seed, signature `e ‖ s` over each of `messages()`)
    let pinned: [(u64, [&str; 3]); 2] = [
        (
            1,
            [
                "f42c1455bfef675a4d5c3e4f96d4a4fc1143dae8fc4002bab7c349042fa0a07b\
                 67dc5fb19c37d66bbfb6ef5d3e51d1e27e47126aa8ae9d0e3aa49259e8953698",
                "ae344e78f54d28401666cdc67f397d966d081a0efb4961b43d47256f46f9c152\
                 cbb104439175686f7927a69aff86a57fd29b225fce9422179078ad9c1bc516ea",
                "1c03b71a5bdd4fe8090c3bca9895790b7729b107354afed1609af9e7927b81ab\
                 a90ac47d3cc81fcd8cc419064576101ab8ccc23d5d57b130fc0d567b8f3c718a",
            ],
        ),
        (
            42,
            [
                "dd0e73cbc38cf4644546534cd15a1f843c09792ba87bec6dd8b9f50230a7d69e\
                 564dcf30c44e6b4b67cfbafe4170c1e6afbd70a585a2f1234a756ab949698f60",
                "4925737801e42a90d1bdb2285b4c098b5c53f663c2c9b3f5c7007b114ea2f07a\
                 1af03681f04669ba9e15403ce01fe14c30b7d64cb2045820b23e23207fabbf72",
                "c73444a969a3fc69713b653432e88536a09b74f6b017f2ac7e211fdb68744114\
                 54ebdf57c0c51cf6eea2481b186a8ad0bdb8a849f4761b3df0d12877c568e0d8",
            ],
        ),
    ];
    let messages = messages();
    assert_eq!(messages.each_ref().map(Vec::len), [0, 26, 1000]);
    for (seed, sigs) in pinned {
        let kp = KeyPair::from_seed(seed);
        for (message, expect) in messages.iter().zip(sigs) {
            let sig = kp.sign(message);
            assert_eq!(
                hex(&sig.to_bytes()),
                expect,
                "seed {seed}, {}-byte message",
                message.len()
            );
            assert!(kp.public_key().verify(message, &sig));
        }
    }
}

/// Genesis plus three blocks; the first packs `item` with two storers.
fn fixed_chain(item: &MetadataItem) -> Blockchain {
    let mut chain = Blockchain::new();
    for i in 1..=3u64 {
        let prev = chain.tip();
        let miner = Identity::from_seed(i).account();
        let mut packed = item.clone();
        packed.storing_nodes = vec![NodeId(3), NodeId(9)];
        let b = Block::new(
            i,
            prev.hash,
            i * 60,
            next_pos_hash(&prev.pos_hash, &miner),
            miner,
            60,
            Amendment::from_fraction(123_456_789, 987_654_321),
            if i == 1 { vec![packed] } else { Vec::new() },
            vec![NodeId(1)],
            prev.storing_nodes.clone(),
            vec![NodeId(4)],
        );
        chain.push(b).unwrap();
    }
    chain
}

#[test]
fn signed_metadata_item_encoding_is_pinned() {
    let item = MetadataItem::new_signed(
        &KeyPair::from_seed(42),
        DataId(7),
        DataType::Sensing("PM2.5".into()),
        660,
        Location {
            label: "NY".into(),
            x: 40.7,
            y: -74.0,
        },
        1440,
        Some("cam".into()),
        1_000_000,
    );
    assert!(item.verify());
    let bytes = codec::encode_metadata(&item);
    assert_eq!(bytes.len(), 221);
    assert_eq!(
        sha256(&bytes).to_hex(),
        "eb148ba2c825ab840deaaefdda2b9f50de1bec7f280f4fe282321377edd37491"
    );

    // One block, one chain, one anchor and one snapshot built around it:
    // the codec's byte layout for every wire type, not just the item's.
    let chain = fixed_chain(&item);
    let mut pruned = chain.clone();
    pruned.prune_below(2, Identity::from_seed(9).keys());
    let anchor = pruned.anchor().unwrap().clone();
    let snapshot = Snapshot::seal(
        anchor.clone(),
        pruned.as_slice().to_vec(),
        vec![(item, 1)],
        Identity::from_seed(1).keys(),
    );
    assert!(anchor.verify() && snapshot.verify());
    let encodings = [
        ("block", codec::encode_block(chain.get(1).unwrap())),
        ("chain", codec::encode_chain(chain.as_slice())),
        ("anchor", codec::encode_anchor(&anchor)),
        ("snapshot", codec::encode_snapshot(&snapshot)),
    ];
    let pinned: [(usize, &str); 4] = [
        (
            501,
            "d93cf9fb56e96c750b0256d5dc111a6329eec06f8f1b9460ba10321a59485322",
        ),
        (
            1337,
            "766da889936fff977bb2f01dc8bc74b1d98e11ec3182d2aa7a120a9cf392e709",
        ),
        (
            297,
            "a37212f70e237f14498c2dea729faa59d1deb2e20cf002f4dd532139025bf62e",
        ),
        (
            1231,
            "2dda32c60c2c2240d1f7b3f6f0c0fd6398b7b501ee67121d5f07e4d1fc15d4e0",
        ),
    ];
    for ((name, bytes), (len, digest)) in encodings.iter().zip(pinned) {
        assert_eq!(bytes.len(), len, "{name} length");
        assert_eq!(sha256(bytes).to_hex(), digest, "{name} digest");
    }
}
