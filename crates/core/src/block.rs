//! Blocks and the block chain structure (paper Fig. 2).
//!
//! A block carries the usual linkage fields (index, previous hash,
//! timestamp, own hash) plus the edge-specific ones: the metadata items it
//! packs (committed via a Merkle root), **where this block is stored**,
//! **where the previous block is stored** (so a bootstrapping node can walk
//! the chain backwards, §IV-D), the nodes told to cache one more recent
//! block (§IV-C), and the PoS credentials — `POSHash`, the miner, its
//! claimed delay `t`, and the amendment `B` ("Get B from current block",
//! §V-C).

use crate::account::AccountId;
use crate::codec::{block_hashed_bytes, item_leaf_bytes};
use crate::metadata::MetadataItem;
use crate::pos::Amendment;
use edgechain_crypto::{leaf_hash, sha256, Digest, MerkleTree};
use edgechain_sim::NodeId;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A block in the edge blockchain.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Height of the block (genesis = 0).
    pub index: u64,
    /// Hash of the previous block ([`Digest::ZERO`] for genesis).
    pub prev_hash: Digest,
    /// Seconds since simulation start at which the block was mined.
    pub timestamp_secs: u64,
    /// The chained PoS hash for this round (Eq. 7).
    pub pos_hash: Digest,
    /// Account of the miner.
    pub miner: AccountId,
    /// The miner's claimed delay `t` since the previous block (seconds).
    pub delay_secs: u64,
    /// The amendment `B` in force for this round.
    pub amendment: Amendment,
    /// Metadata items packed into this block.
    pub metadata: Vec<MetadataItem>,
    /// Merkle root over the metadata items.
    pub merkle_root: Digest,
    /// Nodes assigned to store **this** block.
    pub storing_nodes: Vec<NodeId>,
    /// Nodes storing the **previous** block (backward pointer for chain
    /// bootstrap).
    pub prev_storing_nodes: Vec<NodeId>,
    /// Nodes instructed to grow their recent-block cache by one.
    pub recent_cache_nodes: Vec<NodeId>,
    /// Hash of this block (over the header: every field above but
    /// `metadata`, which `merkle_root` commits).
    pub hash: Digest,
    /// Lazily-filled derived data (wire encoding, Merkle leaf digests);
    /// invisible to equality and the codec.
    pub(crate) cache: SealCache,
}

/// Per-block caches of derived data: the wire encoding (shared as one
/// `Arc<[u8]>` by every consumer) and the Merkle leaf digests over the
/// metadata items.
///
/// Both caches are filled lazily on first use and assume the usual
/// blockchain invariant that a **sealed block is immutable**. The honest
/// recomputation paths ([`Block::compute_hash`],
/// [`Block::compute_merkle_root`], [`Block::is_well_formed`]) never read
/// them, so tamper detection on a mutated block is unaffected; only the
/// explicitly-named `*_sealed` fast paths and [`Block::wire_size`] /
/// [`Block::encoded`] trust them. Equality ignores the cache (a decoded
/// block equals the sealed original), as does the codec.
#[derive(Default)]
pub(crate) struct SealCache {
    encoded: OnceLock<Arc<[u8]>>,
    leaves: OnceLock<Arc<[Digest]>>,
}

impl Clone for SealCache {
    fn clone(&self) -> Self {
        SealCache {
            encoded: self.encoded.clone(),
            leaves: self.leaves.clone(),
        }
    }
}

impl PartialEq for SealCache {
    /// Caches are derived data: two blocks are equal iff their fields are,
    /// regardless of which caches happen to be filled.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl fmt::Debug for SealCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SealCache")
            .field("encoded", &self.encoded.get().map(|e| e.len()))
            .field("leaves", &self.leaves.get().map(|l| l.len()))
            .finish()
    }
}

impl Block {
    /// The deterministic genesis block: stored by everyone, mined by nobody.
    pub fn genesis() -> Self {
        let mut b = Block {
            index: 0,
            prev_hash: Digest::ZERO,
            timestamp_secs: 0,
            pos_hash: sha256(b"edgechain-genesis-pos"),
            miner: AccountId(Digest::ZERO),
            delay_secs: 0,
            amendment: Amendment::from_fraction(1, 1),
            metadata: Vec::new(),
            merkle_root: MerkleTree::from_leaves(Vec::<&[u8]>::new()).root(),
            storing_nodes: Vec::new(),
            prev_storing_nodes: Vec::new(),
            recent_cache_nodes: Vec::new(),
            hash: Digest::ZERO,
            cache: SealCache::default(),
        };
        b.hash = b.compute_hash();
        b
    }

    /// Assembles and seals a block: fills in the Merkle root and hash.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        index: u64,
        prev_hash: Digest,
        timestamp_secs: u64,
        pos_hash: Digest,
        miner: AccountId,
        delay_secs: u64,
        amendment: Amendment,
        metadata: Vec<MetadataItem>,
        storing_nodes: Vec<NodeId>,
        prev_storing_nodes: Vec<NodeId>,
        recent_cache_nodes: Vec<NodeId>,
    ) -> Self {
        // Hash each item once, keep the leaf digests: the root is built
        // from them here and the sealed-path verification reuses them.
        let leaves: Arc<[Digest]> = metadata
            .iter()
            .map(|m| leaf_hash(&item_leaf_bytes(m)))
            .collect();
        let merkle_root = MerkleTree::from_leaf_hashes(leaves.to_vec()).root();
        let mut block = Block {
            index,
            prev_hash,
            timestamp_secs,
            pos_hash,
            miner,
            delay_secs,
            amendment,
            metadata,
            merkle_root,
            storing_nodes,
            prev_storing_nodes,
            recent_cache_nodes,
            hash: Digest::ZERO,
            cache: SealCache::default(),
        };
        let _ = block.cache.leaves.set(leaves);
        block.hash = block.compute_hash();
        block
    }

    /// Hash of the header as [`crate::codec::encode_block`] writes it
    /// (every field but `metadata`, which `merkle_root` commits, and
    /// `hash` itself).
    pub fn compute_hash(&self) -> Digest {
        sha256(block_hashed_bytes(self))
    }

    /// Recomputes the Merkle root over the metadata items, rehashing every
    /// item's whole encoding. This is the honest reference path:
    /// it never consults the leaf cache, so it detects any post-seal
    /// mutation.
    pub fn compute_merkle_root(&self) -> Digest {
        MerkleTree::from_leaves(self.metadata.iter().map(item_leaf_bytes)).root()
    }

    /// Structural self-check: hash and Merkle root match the contents.
    pub fn is_well_formed(&self) -> bool {
        self.hash == self.compute_hash() && self.merkle_root == self.compute_merkle_root()
    }

    /// The Merkle leaf digests over the metadata items, hashed at seal
    /// time by [`Block::new`] (or on first use for decoded blocks) and
    /// cached. Index `i` commits to `metadata[i]`'s whole encoding.
    pub fn leaf_digests(&self) -> &[Digest] {
        self.cache.leaves.get_or_init(|| {
            self.metadata
                .iter()
                .map(|m| leaf_hash(&item_leaf_bytes(m)))
                .collect()
        })
    }

    /// Structural self-check for a block this process sealed: recomputes
    /// the block hash and rebuilds the Merkle root from the **cached leaf
    /// digests** ([`Block::leaf_digests`]), skipping the per-item
    /// rehashing of [`Block::is_well_formed`]. Sound only under the
    /// sealed-block immutability invariant the cache documents; code
    /// validating blocks of unknown provenance (decode paths, fork
    /// adoption) must keep using [`Block::is_well_formed`].
    pub fn is_well_formed_sealed(&self) -> bool {
        self.hash == self.compute_hash()
            && self.merkle_root == MerkleTree::from_leaf_hashes(self.leaf_digests().to_vec()).root()
    }

    /// [`Block::validate_against`] with the sealed-path structural check
    /// ([`Block::is_well_formed_sealed`]) — same linkage errors, leaf
    /// hashing skipped.
    ///
    /// # Errors
    ///
    /// Returns the specific [`BlockError`] exactly as
    /// [`Block::validate_against`] does.
    pub fn validate_sealed_against(&self, prev: &Block) -> Result<(), BlockError> {
        self.validate_link(prev)?;
        if !self.is_well_formed_sealed() {
            return Err(BlockError::Malformed { index: self.index });
        }
        Ok(())
    }

    /// Validates the linkage to the previous block.
    ///
    /// # Errors
    ///
    /// Returns the specific [`BlockError`] for a broken index, hash link,
    /// timestamp regression, or malformed contents.
    pub fn validate_against(&self, prev: &Block) -> Result<(), BlockError> {
        self.validate_link(prev)?;
        if !self.is_well_formed() {
            return Err(BlockError::Malformed { index: self.index });
        }
        Ok(())
    }

    /// The header-only part of [`Block::validate_against`]: index, hash
    /// link and timestamp against `prev`, without rehashing the contents.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::BadIndex`], [`BlockError::BrokenHashLink`] or
    /// [`BlockError::TimestampRegression`], checked in that order.
    pub fn validate_link(&self, prev: &Block) -> Result<(), BlockError> {
        if self.index != prev.index + 1 {
            return Err(BlockError::BadIndex {
                expected: prev.index + 1,
                got: self.index,
            });
        }
        if self.prev_hash != prev.hash {
            return Err(BlockError::BrokenHashLink { index: self.index });
        }
        if self.timestamp_secs < prev.timestamp_secs {
            return Err(BlockError::TimestampRegression { index: self.index });
        }
        Ok(())
    }

    /// Checks this block's PoS-hash linkage against its predecessor
    /// (Eq. 7 chaining: `pos_hash = Hash(prev.pos_hash ‖ miner)`).
    ///
    /// This is deliberately *not* part of [`Block::validate_against`]: unit
    /// fixtures seal blocks with arbitrary pos hashes, and only live wire
    /// reception — where the sender may be Byzantine — needs the check.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::BadPosClaim`] when the chained hash does not
    /// match, i.e. the miner forged a hit it never earned.
    pub fn check_pos_link(&self, prev: &Block) -> Result<(), BlockError> {
        if crate::pos::verify_pos_linkage(&prev.pos_hash, &self.miner, &self.pos_hash) {
            Ok(())
        } else {
            Err(BlockError::BadPosClaim { index: self.index })
        }
    }

    /// The block's wire encoding, computed once and shared as an
    /// `Arc<[u8]>`: broadcast, fetch replies, and replica repair
    /// all hand out clones of the same allocation instead of re-running
    /// [`crate::codec::encode_block`] per consumer.
    pub fn encoded(&self) -> Arc<[u8]> {
        self.cache
            .encoded
            .get_or_init(|| crate::codec::encode_block(self).into())
            .clone()
    }

    /// Exact wire size in bytes (the length of
    /// [`crate::codec::encode_block`]'s output), read from the cached
    /// encoding — repeated calls cost one encode total, not one each.
    /// Blocks stay well under the paper's "average block size is less
    /// than 10 KB".
    pub fn wire_size(&self) -> u64 {
        self.encoded().len() as u64
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block #{} [{} items, miner {}, t={}s]",
            self.index,
            self.metadata.len(),
            self.miner,
            self.delay_secs
        )
    }
}

/// Block validation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// Index is not `prev.index + 1`.
    BadIndex {
        /// Expected index.
        expected: u64,
        /// Index found in the block.
        got: u64,
    },
    /// `prev_hash` does not match the previous block's hash.
    BrokenHashLink {
        /// Index of the offending block.
        index: u64,
    },
    /// Timestamp is earlier than the previous block's.
    TimestampRegression {
        /// Index of the offending block.
        index: u64,
    },
    /// Hash or Merkle root does not match the contents.
    Malformed {
        /// Index of the offending block.
        index: u64,
    },
    /// A metadata item carries an invalid producer signature.
    BadMetadataSignature {
        /// Index of the offending block.
        index: u64,
        /// Position of the bad item within the block.
        item: usize,
    },
    /// The PoS mining claim does not verify.
    BadPosClaim {
        /// Index of the offending block.
        index: u64,
    },
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::BadIndex { expected, got } => {
                write!(f, "bad block index: expected {expected}, got {got}")
            }
            BlockError::BrokenHashLink { index } => {
                write!(f, "block {index} does not link to its predecessor")
            }
            BlockError::TimestampRegression { index } => {
                write!(f, "block {index} timestamp precedes its predecessor")
            }
            BlockError::Malformed { index } => {
                write!(f, "block {index} hash or merkle root mismatch")
            }
            BlockError::BadMetadataSignature { index, item } => {
                write!(f, "block {index} metadata item {item} signature invalid")
            }
            BlockError::BadPosClaim { index } => {
                write!(f, "block {index} proof-of-stake claim invalid")
            }
        }
    }
}

impl std::error::Error for BlockError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::Identity;
    use crate::metadata::{DataId, DataType, Location};

    fn meta(seed: u64, id: u64) -> MetadataItem {
        MetadataItem::new_signed(
            Identity::from_seed(seed).keys(),
            DataId(id),
            DataType::Sensing("PM2.5".into()),
            60,
            Location::default(),
            1440,
            None,
            1_000_000,
        )
    }

    fn child_of(prev: &Block, ts: u64) -> Block {
        Block::new(
            prev.index + 1,
            prev.hash,
            ts,
            edgechain_crypto::sha256(b"pos"),
            Identity::from_seed(1).account(),
            30,
            Amendment::from_fraction(1, 100),
            vec![meta(2, 7)],
            vec![NodeId(0), NodeId(3)],
            prev.storing_nodes.clone(),
            vec![NodeId(5)],
        )
    }

    #[test]
    fn genesis_is_well_formed() {
        let g = Block::genesis();
        assert!(g.is_well_formed());
        assert_eq!(g.index, 0);
        assert_eq!(g.prev_hash, Digest::ZERO);
    }

    #[test]
    fn genesis_is_deterministic() {
        assert_eq!(Block::genesis(), Block::genesis());
    }

    #[test]
    fn valid_child_links() {
        let g = Block::genesis();
        let b = child_of(&g, 60);
        assert!(b.is_well_formed());
        assert_eq!(b.validate_against(&g), Ok(()));
    }

    #[test]
    fn pos_linkage_check_accepts_earned_and_rejects_forged() {
        let g = Block::genesis();
        let miner = Identity::from_seed(1).account();
        let mut b = child_of(&g, 60);
        b.pos_hash = crate::pos::next_pos_hash(&g.pos_hash, &miner);
        let b = Block::new(
            b.index,
            b.prev_hash,
            b.timestamp_secs,
            b.pos_hash,
            miner,
            b.delay_secs,
            b.amendment,
            b.metadata.clone(),
            b.storing_nodes.clone(),
            b.prev_storing_nodes.clone(),
            b.recent_cache_nodes.clone(),
        );
        assert_eq!(b.check_pos_link(&g), Ok(()));
        // The fixture child uses an arbitrary pos hash — a forged claim.
        let forged = child_of(&g, 60);
        assert_eq!(
            forged.check_pos_link(&g),
            Err(BlockError::BadPosClaim { index: 1 })
        );
    }

    #[test]
    fn bad_index_detected() {
        let g = Block::genesis();
        let mut b = child_of(&g, 60);
        b.index = 5;
        b.hash = b.compute_hash();
        assert_eq!(
            b.validate_against(&g),
            Err(BlockError::BadIndex {
                expected: 1,
                got: 5
            })
        );
    }

    #[test]
    fn broken_hash_link_detected() {
        let g = Block::genesis();
        let mut b = child_of(&g, 60);
        b.prev_hash = edgechain_crypto::sha256(b"not the genesis");
        b.hash = b.compute_hash();
        assert_eq!(
            b.validate_against(&g),
            Err(BlockError::BrokenHashLink { index: 1 })
        );
    }

    #[test]
    fn timestamp_regression_detected() {
        let g = Block::genesis();
        let b1 = child_of(&g, 120);
        let mut b2 = child_of(&b1, 60);
        b2.prev_hash = b1.hash;
        b2.index = 2;
        b2.hash = b2.compute_hash();
        assert_eq!(
            b2.validate_against(&b1),
            Err(BlockError::TimestampRegression { index: 2 })
        );
    }

    #[test]
    fn tampered_metadata_detected() {
        let g = Block::genesis();
        let mut b = child_of(&g, 60);
        // Change a metadata item without re-sealing: merkle root mismatch.
        b.metadata[0].data_size = 5;
        assert!(!b.is_well_formed());
        assert_eq!(
            b.validate_against(&g),
            Err(BlockError::Malformed { index: 1 })
        );
    }

    #[test]
    fn tampered_storing_nodes_detected() {
        let g = Block::genesis();
        let mut b = child_of(&g, 60);
        b.storing_nodes.push(NodeId(9));
        assert!(!b.is_well_formed());
    }

    #[test]
    fn wire_size_below_10kb_for_typical_blocks() {
        let g = Block::genesis();
        let mut items = Vec::new();
        for i in 0..3 {
            items.push(meta(10 + i, i));
        }
        let b = Block::new(
            1,
            g.hash,
            60,
            edgechain_crypto::sha256(b"pos"),
            Identity::from_seed(1).account(),
            60,
            Amendment::from_fraction(1, 100),
            items,
            vec![NodeId(0)],
            vec![],
            vec![],
        );
        assert!(b.wire_size() < 10_000, "block size {}", b.wire_size());
        assert!(b.wire_size() > 200);
    }

    #[test]
    fn display_mentions_index() {
        let g = Block::genesis();
        assert!(format!("{g}").contains("block #0"));
    }

    #[test]
    fn wire_size_encodes_exactly_once() {
        use edgechain_telemetry as telemetry;
        let g = Block::genesis();
        let b = child_of(&g, 60);
        let expected = crate::codec::encode_block(&b).len() as u64;
        // Fresh clone so the reference encode above hasn't warmed the cache.
        let b = child_of(&g, 60);
        telemetry::enable();
        let first = b.wire_size();
        let again = b.wire_size();
        let enc = b.encoded();
        let mut session = telemetry::finish().expect("enabled");
        let snap = session.registry.snapshot();
        assert_eq!(first, expected);
        assert_eq!(again, expected);
        assert_eq!(enc.len() as u64, expected);
        assert_eq!(
            snap.counter("codec.block_encodes"),
            Some(1),
            "repeated wire_size/encoded calls must reuse one encode"
        );
    }

    #[test]
    fn encoded_shares_one_allocation() {
        let b = child_of(&Block::genesis(), 60);
        let a1 = b.encoded();
        let a2 = b.encoded();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(a1.as_ref(), crate::codec::encode_block(&b).as_slice());
    }

    #[test]
    fn sealed_checks_match_honest_paths() {
        let g = Block::genesis();
        let b = child_of(&g, 60);
        assert!(b.is_well_formed_sealed());
        assert_eq!(b.validate_sealed_against(&g), b.validate_against(&g));

        // Decoded blocks start with an empty cache and must still agree.
        let decoded = crate::codec::decode_block(&crate::codec::encode_block(&b)).unwrap();
        assert!(decoded.is_well_formed_sealed());
        assert_eq!(decoded.leaf_digests(), b.leaf_digests());

        // Linkage errors come out identically on both paths.
        let mut bad = child_of(&g, 60);
        bad.index = 5;
        bad.hash = bad.compute_hash();
        assert_eq!(bad.validate_sealed_against(&g), bad.validate_against(&g));
    }

    #[test]
    fn leaf_digests_commit_to_canonical_bytes() {
        let b = child_of(&Block::genesis(), 60);
        let expect: Vec<Digest> = b
            .metadata
            .iter()
            .map(|m| leaf_hash(&item_leaf_bytes(m)))
            .collect();
        assert_eq!(b.leaf_digests(), expect.as_slice());
        assert_eq!(
            MerkleTree::from_leaf_hashes(expect).root(),
            b.compute_merkle_root()
        );
    }
}
