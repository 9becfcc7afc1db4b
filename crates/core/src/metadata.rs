//! Metadata items — the block payload.
//!
//! Instead of replicating megabyte-scale data items everywhere, blocks
//! carry small *metadata items* describing each data item (paper §III-B):
//! data type, timestamp, location, producer (+ signature), the nodes
//! assigned to store the data, a validity period, and free-form properties.
//! Consumers search metadata to discover data, then fetch the bytes from a
//! storing node and verify integrity against the producer's signature.

use crate::account::AccountId;
use edgechain_crypto::{KeyPair, PublicKey, Signature};
use edgechain_sim::NodeId;
use std::fmt;

/// Unique identifier of a data item (assigned by the producer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DataId(pub u64);

impl fmt::Display for DataId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// Category of the described data, mirroring the paper's examples
/// (air-quality readings, traffic pictures, key exchange records, …).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Environmental sensing, e.g. `AirQuality/PM2.5`.
    Sensing(String),
    /// Media content, e.g. `Picture/Traffic`, `Video/Short`.
    Media(String),
    /// Public key distribution records.
    KeyExchange,
    /// Anything else.
    Other(String),
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Sensing(s) => write!(f, "Sensing/{s}"),
            DataType::Media(s) => write!(f, "Media/{s}"),
            DataType::KeyExchange => write!(f, "KeyExchange"),
            DataType::Other(s) => write!(f, "Other/{s}"),
        }
    }
}

/// A geographic tag, e.g. `NewYork,NY/40.72,-74.00`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Location {
    /// Free-form place label.
    pub label: String,
    /// Latitude-like coordinate (or field x in simulations).
    pub x: f64,
    /// Longitude-like coordinate (or field y in simulations).
    pub y: f64,
}

/// One metadata item. The signature covers the item's encoding *except*
/// `signature` itself and `storing_nodes`, which is computed by the
/// allocation engine after signing (each receiving node recomputes and
/// checks it against the block).
#[derive(Debug, Clone, PartialEq)]
pub struct MetadataItem {
    /// Identifier of the described data item.
    pub data_id: DataId,
    /// What the data is.
    pub data_type: DataType,
    /// Production time, in seconds since simulation start.
    pub produced_at_secs: u64,
    /// Where the data was produced.
    pub location: Location,
    /// Producer account.
    pub producer: AccountId,
    /// Producer public key (shipped so receivers can verify the signature).
    pub producer_key: PublicKey,
    /// Producer's signature over every other field but `storing_nodes`.
    pub signature: Signature,
    /// Nodes assigned to store the data item (filled by the miner from the
    /// allocation engine).
    pub storing_nodes: Vec<NodeId>,
    /// Validity period in minutes (paper examples: 720, 1440, 2880).
    pub valid_minutes: u64,
    /// Free-form properties (`'Camera'`, a key, …).
    pub properties: Option<String>,
    /// Size of the described data item in bytes.
    pub data_size: u64,
}

impl MetadataItem {
    /// Creates and signs a metadata item. `storing_nodes` starts empty;
    /// the mining path fills it in.
    #[allow(clippy::too_many_arguments)]
    pub fn new_signed(
        keys: &KeyPair,
        data_id: DataId,
        data_type: DataType,
        produced_at_secs: u64,
        location: Location,
        valid_minutes: u64,
        properties: Option<String>,
        data_size: u64,
    ) -> Self {
        let producer_key = keys.public_key();
        let producer = AccountId::from_public_key(&producer_key);
        let mut item = MetadataItem {
            data_id,
            data_type,
            produced_at_secs,
            location,
            producer,
            producer_key,
            signature: Signature::from_bytes(&[0u8; 64]),
            storing_nodes: Vec::new(),
            valid_minutes,
            properties,
            data_size,
        };
        item.signature = keys.sign(&crate::codec::item_signed_bytes(&item));
        item
    }

    /// Verifies the producer signature and that the shipped key matches the
    /// producer account.
    pub fn verify(&self) -> bool {
        if AccountId::from_public_key(&self.producer_key) != self.producer {
            return false;
        }
        self.producer_key
            .verify(&crate::codec::item_signed_bytes(self), &self.signature)
    }

    /// First second at which the item is no longer valid. Saturating: a
    /// decoded item may carry any `valid_minutes`, and one that overflows
    /// simply never expires.
    pub fn expires_at_secs(&self) -> u64 {
        self.produced_at_secs
            .saturating_add(self.valid_minutes.saturating_mul(60))
    }

    /// Whether the data item is still valid at `now_secs`.
    pub fn is_valid_at(&self, now_secs: u64) -> bool {
        now_secs < self.expires_at_secs()
    }

    /// Exact wire size of the metadata item in bytes (the length of
    /// [`crate::codec::encode_metadata`]'s output).
    pub fn wire_size(&self) -> u64 {
        crate::codec::encode_metadata(self).len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> (KeyPair, MetadataItem) {
        let keys = KeyPair::from_seed(seed);
        let item = MetadataItem::new_signed(
            &keys,
            DataId(42),
            DataType::Sensing("PM2.5".into()),
            660,
            Location {
                label: "NewYork,NY".into(),
                x: 40.72,
                y: -74.0,
            },
            1440,
            None,
            1_000_000,
        );
        (keys, item)
    }

    #[test]
    fn fresh_item_verifies() {
        let (_, item) = sample(1);
        assert!(item.verify());
    }

    #[test]
    fn tampered_fields_fail_verification() {
        let (_, item) = sample(2);
        let mut t = item.clone();
        t.data_size = 2_000_000;
        assert!(!t.verify());
        let mut t = item.clone();
        t.valid_minutes = 99999;
        assert!(!t.verify());
        let mut t = item.clone();
        t.produced_at_secs += 1;
        assert!(!t.verify());
        let mut t = item;
        t.location.x += 0.5;
        assert!(!t.verify());
    }

    #[test]
    fn wrong_key_fails_verification() {
        let (_, mut item) = sample(3);
        item.producer_key = KeyPair::from_seed(999).public_key();
        assert!(!item.verify());
    }

    #[test]
    fn storing_nodes_do_not_invalidate_signature() {
        let (_, mut item) = sample(4);
        item.storing_nodes = vec![NodeId(1), NodeId(5)];
        assert!(item.verify());
    }

    #[test]
    fn validity_window() {
        let (_, item) = sample(5);
        assert!(item.is_valid_at(660));
        assert!(item.is_valid_at(660 + 1440 * 60 - 1));
        assert!(!item.is_valid_at(660 + 1440 * 60));
    }

    #[test]
    fn canonical_bytes_reflect_storing_nodes() {
        let (_, mut item) = sample(6);
        let before = crate::codec::item_leaf_bytes(&item);
        item.storing_nodes.push(NodeId(3));
        assert_ne!(before, crate::codec::item_leaf_bytes(&item));
    }

    #[test]
    fn empty_properties_are_not_absent_properties() {
        // The two encode differently, so the signature and the Merkle leaf
        // must tell them apart too.
        let (_, item) = sample(8);
        let mut twin = item.clone();
        twin.properties = Some(String::new());
        assert_ne!(
            crate::codec::encode_metadata(&twin),
            crate::codec::encode_metadata(&item)
        );
        assert!(!twin.verify());
        let leaf = |m: &MetadataItem| {
            let g = crate::block::Block::genesis();
            let pos = g.pos_hash;
            let b = crate::block::Block::new(
                1,
                g.hash,
                60,
                pos,
                item.producer,
                60,
                crate::pos::Amendment::from_fraction(1, 1),
                vec![m.clone()],
                Vec::new(),
                Vec::new(),
                Vec::new(),
            );
            b.leaf_digests()[0]
        };
        assert_ne!(leaf(&twin), leaf(&item));
    }

    #[test]
    fn wire_size_is_plausible() {
        let (_, item) = sample(7);
        let sz = item.wire_size();
        assert!(sz > 100, "metadata should be ~hundreds of bytes, got {sz}");
        assert!(
            sz < 1000,
            "metadata must stay far below data size, got {sz}"
        );
    }

    #[test]
    fn data_type_display() {
        assert_eq!(DataType::KeyExchange.to_string(), "KeyExchange");
        assert_eq!(
            DataType::Media("Traffic".into()).to_string(),
            "Media/Traffic"
        );
    }
}
