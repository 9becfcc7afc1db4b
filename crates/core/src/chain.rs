//! The blockchain container: validation, fork choice, pruning, and
//! derived state.
//!
//! Every node keeps (a view of) the chain. Validation checks linkage
//! (index, hash, timestamp), structural integrity (block hash + Merkle
//! root), and optionally every metadata producer signature. Fork choice is
//! the paper's longest-chain rule under checkpoints (§V-D): a node that
//! receives a strictly longer valid chain adopts it, unless that would
//! replace a checkpoint block ([`Blockchain::try_adopt`]). Token balances
//! are always *derived* from chain history (one token per mined block), so
//! any node can audit any `S_i`.
//!
//! Long-horizon runs cannot keep every block forever: checkpoint-anchored
//! pruning collapses blocks strictly below a cut height into a signed
//! [`ChainAnchor`] that carries the boundary linkage, a chained Merkle
//! commitment over the pruned hashes, and the derived state (per-miner
//! block counts, metadata totals) the pruned prefix contributed. All
//! positional APIs (`get`, `fork_point`, fork choice) stay index-aligned
//! across the pruned base, and a chain can be rebuilt from an anchor plus
//! its retained suffix ([`Blockchain::from_anchor`] — the snapshot
//! bootstrap path).

use crate::account::{AccountId, Ledger};
use crate::block::{Block, BlockError};
use crate::codec;
use edgechain_crypto::{sha256_pair, Digest, KeyPair, MerkleTree, PublicKey, Signature};
use std::collections::BTreeMap;
use std::fmt;

/// A signed, Merkle-committed stand-in for a pruned chain prefix.
///
/// When pruning collapses blocks `[0, height]`, the anchor carries
/// everything later consumers need from them: the linkage fields of the
/// boundary block (so the first retained block still validates), a
/// chained commitment over every pruned block hash (so two nodes can
/// audit that they pruned the same prefix), and the derived state the
/// pruned blocks contributed — per-miner block counts for the token
/// ledger and the on-chain metadata total. The pruning node signs the
/// whole thing so a snapshot receiver can pin tampering on the sender.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainAnchor {
    /// Index of the newest pruned block (the prefix `[0, height]` is gone).
    pub height: u64,
    /// Hash of the block at `height` — the `prev_hash` the first retained
    /// block must carry.
    pub tip_hash: Digest,
    /// PoS hash of the block at `height` (Eq. 7 chaining continues here).
    pub tip_pos_hash: Digest,
    /// Timestamp of the block at `height`.
    pub tip_timestamp_secs: u64,
    /// Chained Merkle commitment over all pruned block hashes: each prune
    /// round folds the Merkle root of its segment into the previous
    /// commitment (`sha256(prev ‖ segment_root)`, starting from zero).
    pub commitment: Digest,
    /// Blocks mined per account inside the pruned prefix, sorted by
    /// account — the ledger summary (one token per block).
    pub mined: Vec<(AccountId, u64)>,
    /// Metadata items recorded in the pruned prefix.
    pub metadata_items: u64,
    /// Account of the node that sealed this anchor.
    pub signer: AccountId,
    /// Its public key (must hash to `signer`).
    pub signer_key: PublicKey,
    /// Signature over the anchor's encoding less this field.
    pub signature: Signature,
}

impl ChainAnchor {
    /// Builds and signs an anchor over an already-summarised prefix.
    #[allow(clippy::too_many_arguments)]
    fn seal(
        height: u64,
        tip_hash: Digest,
        tip_pos_hash: Digest,
        tip_timestamp_secs: u64,
        commitment: Digest,
        mined: Vec<(AccountId, u64)>,
        metadata_items: u64,
        keys: &KeyPair,
    ) -> Self {
        let signer_key = keys.public_key();
        let mut anchor = ChainAnchor {
            height,
            tip_hash,
            tip_pos_hash,
            tip_timestamp_secs,
            commitment,
            mined,
            metadata_items,
            signer: AccountId::from_public_key(&signer_key),
            signer_key,
            signature: Signature::from_bytes(&[0u8; 64]),
        };
        anchor.signature = keys.sign(&codec::anchor_signed_bytes(&anchor));
        anchor
    }

    /// Verifies the signature and that the key matches the signer account.
    pub fn verify(&self) -> bool {
        AccountId::from_public_key(&self.signer_key) == self.signer
            && self
                .signer_key
                .verify(&codec::anchor_signed_bytes(self), &self.signature)
    }

    /// Blocks mined by `account` inside the pruned prefix.
    pub fn mined_by(&self, account: &AccountId) -> u64 {
        self.mined
            .binary_search_by(|(a, _)| a.cmp(account))
            .map(|i| self.mined[i].1)
            .unwrap_or(0)
    }
}

/// A bootstrap snapshot: the pruned-prefix anchor, the retained block
/// suffix, and the live metadata registry (each item carries its storer
/// map in `storing_nodes`, paired with the block that packed it).
///
/// Nodes rejoining from below the retention window cannot recover
/// block-by-block — those blocks no longer exist anywhere — so a peer
/// serves them a snapshot instead. The serving node signs the whole
/// object; [`Snapshot::verify`] checks that signature, the anchor's own
/// signature, and the structural linkage of the suffix, so any bit
/// tampered in flight (or by a Byzantine server) makes verification fail
/// and the fetcher blacklists the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Summary of everything below the retained suffix.
    pub anchor: ChainAnchor,
    /// Retained blocks, `anchor.height + 1` through the server's tip.
    pub blocks: Vec<Block>,
    /// Live metadata items and the index of the block that packed each.
    pub registry: Vec<(crate::metadata::MetadataItem, u64)>,
    /// Account of the serving node.
    pub server: AccountId,
    /// Its public key (must hash to `server`).
    pub server_key: PublicKey,
    /// Signature over the snapshot's encoding less this field.
    pub signature: Signature,
}

impl Snapshot {
    /// Builds and signs a snapshot served by the holder of `keys`.
    pub fn seal(
        anchor: ChainAnchor,
        blocks: Vec<Block>,
        registry: Vec<(crate::metadata::MetadataItem, u64)>,
        keys: &KeyPair,
    ) -> Self {
        let server_key = keys.public_key();
        let mut snapshot = Snapshot {
            anchor,
            blocks,
            registry,
            server: AccountId::from_public_key(&server_key),
            server_key,
            signature: Signature::from_bytes(&[0u8; 64]),
        };
        snapshot.signature = keys.sign(&codec::snapshot_signed_bytes(&snapshot));
        snapshot
    }

    /// Full verification: server key matches the account and the
    /// signature, the anchor verifies on its own, the suffix attaches to
    /// the anchor with valid linkage throughout (every block well-formed),
    /// and every registry entry claims a packing block at or below the tip
    /// and carries a `producer_key` that hashes to its `producer`. The
    /// server's signature covers each entry's whole encoding, key
    /// included; the key check is input validation, so a server cannot
    /// sign an entry whose key belongs to another account.
    pub fn verify(&self) -> bool {
        if AccountId::from_public_key(&self.server_key) != self.server {
            return false;
        }
        if !self
            .server_key
            .verify(&codec::snapshot_signed_bytes(self), &self.signature)
        {
            return false;
        }
        if !self.anchor.verify() {
            return false;
        }
        let Ok(chain) = Blockchain::from_anchor(self.anchor.clone(), self.blocks.clone()) else {
            return false;
        };
        let tip = chain.height();
        self.registry.iter().all(|(item, packed_at)| {
            *packed_at <= tip && AccountId::from_public_key(&item.producer_key) == item.producer
        })
    }
}

/// A validated chain of blocks starting at genesis.
///
/// # Invariant
///
/// Every block a `Blockchain` holds passed [`Block::is_well_formed`] on
/// entry, or [`Block::is_well_formed_sealed`] for a block this process
/// sealed ([`Blockchain::push_sealed`]), and linked onto its predecessor.
/// No `&mut Block` escapes, so a held block stays as it was checked: a
/// block copied from one chain into another needs its link checked, not
/// its contents ([`Blockchain::try_adopt_from`], and
/// [`Blockchain::rebase_onto`], which checks only the attachment to the
/// anchor). A `&[Block]` carries no such guarantee: whoever built the
/// slice could have edited a block, so [`Blockchain::try_adopt`] checks
/// each block in full.
///
/// # Examples
///
/// ```
/// use edgechain_core::{Blockchain, Block};
///
/// let mut chain = Blockchain::new();
/// assert_eq!(chain.height(), 0);
/// assert_eq!(chain.tip(), &Block::genesis());
/// // Chains rebuilt from raw blocks are re-validated link by link.
/// let same = Blockchain::from_blocks(chain.as_slice().to_vec())?;
/// assert_eq!(same, chain);
/// # Ok::<(), edgechain_core::ChainError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Blockchain {
    /// Everything strictly below `base` collapsed into this anchor.
    anchor: Option<ChainAnchor>,
    /// Index of `blocks[0]` (0 when nothing has been pruned).
    base: u64,
    /// Retained blocks; `blocks[i].index == base + i`; never empty.
    blocks: Vec<Block>,
    /// `(height, commitment)` of every anchor this chain sealed or
    /// adopted, oldest first — the audit trail behind
    /// [`Blockchain::commitment_at`].
    anchor_history: Vec<(u64, Digest)>,
}

impl Default for Blockchain {
    fn default() -> Self {
        Self::new()
    }
}

impl Blockchain {
    /// A chain containing only the genesis block.
    pub fn new() -> Self {
        Blockchain {
            anchor: None,
            base: 0,
            blocks: vec![Block::genesis()],
            anchor_history: Vec::new(),
        }
    }

    /// Reconstructs a chain from blocks, validating linkage.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError`] when the sequence is empty, does not start at
    /// the canonical genesis, or fails linkage validation anywhere.
    pub fn from_blocks(blocks: Vec<Block>) -> Result<Self, ChainError> {
        if blocks.is_empty() {
            return Err(ChainError::Empty);
        }
        if blocks[0] != Block::genesis() {
            return Err(ChainError::BadGenesis);
        }
        for i in 1..blocks.len() {
            blocks[i]
                .validate_against(&blocks[i - 1])
                .map_err(|e| ChainError::Invalid {
                    index: blocks[i].index,
                    source: e,
                })?;
        }
        Ok(Blockchain {
            anchor: None,
            base: 0,
            blocks,
            anchor_history: Vec::new(),
        })
    }

    /// Rebuilds a pruned chain from an anchor and its retained suffix —
    /// the snapshot-bootstrap path. The first block must sit directly on
    /// the anchor boundary; linkage is validated from there.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Empty`] without blocks,
    /// [`ChainError::DetachedAnchor`] when the first block does not link
    /// to the anchor, and [`ChainError::Invalid`] for any broken link in
    /// the suffix.
    pub fn from_anchor(anchor: ChainAnchor, blocks: Vec<Block>) -> Result<Self, ChainError> {
        let Some(first) = blocks.first() else {
            return Err(ChainError::Empty);
        };
        if !attaches_to(&anchor, first) || !first.is_well_formed() {
            return Err(ChainError::DetachedAnchor);
        }
        for i in 1..blocks.len() {
            blocks[i]
                .validate_against(&blocks[i - 1])
                .map_err(|e| ChainError::Invalid {
                    index: blocks[i].index,
                    source: e,
                })?;
        }
        Ok(Blockchain {
            base: anchor.height + 1,
            anchor_history: vec![(anchor.height, anchor.commitment)],
            anchor: Some(anchor),
            blocks,
        })
    }

    /// Re-bases this chain onto `anchor` in place: the blocks at and below
    /// `anchor.height` are dropped and the result equals
    /// `from_anchor(anchor.clone(), self.retained_after(anchor.height).to_vec())`
    /// — same base, anchor and one-entry anchor history — without cloning
    /// or rehashing the retained blocks. Every block a chain holds was
    /// validated when it entered it, so only the O(1) attachment of the
    /// first retained block to the anchor boundary is checked.
    ///
    /// # Errors
    ///
    /// Returns [`ChainError::Empty`] when `anchor.height` is the tip (no
    /// block would be retained) and [`ChainError::DetachedAnchor`] when
    /// this chain holds no block at `anchor.height + 1` or that block does
    /// not link to the anchor. On error the chain is left untouched.
    pub fn rebase_onto(&mut self, anchor: &ChainAnchor) -> Result<(), ChainError> {
        if anchor.height == self.height() {
            return Err(ChainError::Empty);
        }
        let cut = anchor.height + 1;
        if !self.get(cut).is_some_and(|b| attaches_to(anchor, b)) {
            return Err(ChainError::DetachedAnchor);
        }
        self.blocks.drain(..(cut - self.base) as usize);
        self.base = cut;
        self.anchor_history.clear();
        self.anchor_history.push((anchor.height, anchor.commitment));
        self.anchor = Some(anchor.clone());
        Ok(())
    }

    /// Number of blocks including genesis — pruned blocks still count.
    pub fn len(&self) -> usize {
        self.base as usize + self.blocks.len()
    }

    /// A chain is never empty (genesis is always present).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Index of the newest block.
    pub fn height(&self) -> u64 {
        self.base + self.blocks.len() as u64 - 1
    }

    /// The newest block.
    pub fn tip(&self) -> &Block {
        self.blocks.last().expect("chain always has genesis")
    }

    /// Index of the oldest block still held (0 when nothing has been
    /// pruned).
    pub fn base_index(&self) -> u64 {
        self.base
    }

    /// The anchor summarising the pruned prefix, if any pruning happened.
    pub fn anchor(&self) -> Option<&ChainAnchor> {
        self.anchor.as_ref()
    }

    /// Number of blocks physically held (≤ [`Blockchain::len`]).
    pub fn retained_len(&self) -> usize {
        self.blocks.len()
    }

    /// Block at `index`, if present — `None` both above the tip and below
    /// the pruned base.
    pub fn get(&self, index: u64) -> Option<&Block> {
        index
            .checked_sub(self.base)
            .and_then(|i| self.blocks.get(i as usize))
    }

    /// Iterates retained blocks oldest-first (from genesis when nothing
    /// has been pruned).
    pub fn iter(&self) -> std::slice::Iter<'_, Block> {
        self.blocks.iter()
    }

    /// All retained blocks as a slice (the whole chain when nothing has
    /// been pruned). The first element's `index` is
    /// [`Blockchain::base_index`], not necessarily 0.
    pub fn as_slice(&self) -> &[Block] {
        &self.blocks
    }

    /// Retained blocks from the pruned base through `height`, inclusive.
    ///
    /// # Panics
    ///
    /// Panics when `height` is below the pruned base or above the tip.
    pub fn retained_up_to(&self, height: u64) -> &[Block] {
        assert!(
            height >= self.base && height <= self.height(),
            "height {height} outside retained range [{}, {}]",
            self.base,
            self.height()
        );
        &self.blocks[..=(height - self.base) as usize]
    }

    /// Retained blocks strictly above `height` (empty at the tip).
    ///
    /// # Panics
    ///
    /// Panics when `height` is below the pruned base or above the tip.
    pub fn retained_after(&self, height: u64) -> &[Block] {
        assert!(
            height >= self.base && height <= self.height(),
            "height {height} outside retained range [{}, {}]",
            self.base,
            self.height()
        );
        &self.blocks[(height + 1 - self.base) as usize..]
    }

    /// Appends a block after validating linkage against the tip.
    ///
    /// # Errors
    ///
    /// Returns the [`BlockError`] from [`Block::validate_against`].
    pub fn push(&mut self, block: Block) -> Result<(), BlockError> {
        block.validate_against(self.tip())?;
        self.blocks.push(block);
        Ok(())
    }

    /// [`Blockchain::push`] for a block **this process sealed**: linkage
    /// is validated in full, but the structural check reuses the block's
    /// cached Merkle leaf digests ([`Block::validate_sealed_against`])
    /// instead of rehashing every metadata item. Blocks of unknown
    /// provenance (decoded from the wire, fork candidates) must go
    /// through [`Blockchain::push`].
    ///
    /// # Errors
    ///
    /// Returns the [`BlockError`] from [`Block::validate_sealed_against`].
    pub fn push_sealed(&mut self, block: Block) -> Result<(), BlockError> {
        block.validate_sealed_against(self.tip())?;
        self.blocks.push(block);
        Ok(())
    }

    /// Appends a wire-received `block` that passes
    /// [`verify_wire_against`] the tip, given its block-only `content`
    /// verdict ([`wire_content_verdict`] of this very block). The one full
    /// verification is also the append's validation: nothing is rehashed
    /// twice, and the block is cloned only once it is accepted.
    ///
    /// # Errors
    ///
    /// Returns the first [`BlockError`], in [`verify_wire_block`]'s order.
    pub fn push_wire(
        &mut self,
        block: &Block,
        content: Result<(), BlockError>,
    ) -> Result<(), BlockError> {
        verify_wire_against(self.tip(), block, content)?;
        self.blocks.push(block.clone());
        Ok(())
    }

    /// Verifies every metadata producer signature in `block`.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::BadMetadataSignature`] naming the first bad
    /// item.
    pub fn verify_block_signatures(block: &Block) -> Result<(), BlockError> {
        for (i, item) in block.metadata.iter().enumerate() {
            if !item.verify() {
                return Err(BlockError::BadMetadataSignature {
                    index: block.index,
                    item: i,
                });
            }
        }
        Ok(())
    }

    /// Checkpointed longest-chain fork choice (paper §V-D) — the one way a
    /// chain adopts another's blocks. Returns whether adoption happened.
    ///
    /// `candidate` is index-aligned by its first block and may start
    /// anywhere: at genesis, at or below this chain's pruned base, or at
    /// the fork point itself. Only where it parts from this chain matters.
    /// It is refused when
    ///
    /// * a checkpoint block (a height that is a multiple of
    ///   `policy.interval`) lies in `[fork_point, height]`: because PoS
    ///   makes working on multiple branches cheap, "solutions about
    ///   inserting checkpoint block are proposed to force nodes working on
    ///   the chain that has checkpoint blocks", so no reorganisation
    ///   crosses one;
    /// * it is not strictly longer;
    /// * this chain holds no block at `fork_point − 1` — the divergence
    ///   lies at genesis or inside the pruned prefix, which is anchored and
    ///   cannot be audited away;
    /// * its blocks from the fork point up do not link onto that block.
    ///
    /// Otherwise everything above the fork point is replaced by the
    /// candidate's blocks. The agreeing prefix and the anchor stay as they
    /// are. A policy whose interval exceeds every height is the paper's
    /// plain longest-chain rule. (Receiving "a blockchain longer than its
    /// previous received blockchain" is also how a node detects that it
    /// missed blocks, §IV-D.)
    ///
    /// The candidate's provenance is unknown (a released fork, a test's
    /// hand-built slice), so every adopted block is checked in full
    /// ([`Block::validate_against`]: its link and its own hash and Merkle
    /// root). Blocks another [`Blockchain`] holds go through
    /// [`Blockchain::try_adopt_from`].
    pub fn try_adopt(&mut self, candidate: &[Block], policy: CheckpointPolicy) -> bool {
        self.adopt(candidate, policy, Block::validate_against)
    }

    /// [`Blockchain::try_adopt`] of `source`'s retained blocks through
    /// height `upto`, with the same verdict and result. Every block
    /// `source` holds was checked when it entered it (the type invariant
    /// on [`Blockchain`]), so each link is checked with
    /// [`Block::validate_link`] (index, `prev_hash`, timestamp) and
    /// nothing is rehashed. The first link, onto this chain's block below
    /// the fork point, is checked too: that block is this chain's, not
    /// `source`'s. Refused when `upto` is outside `source`'s retained
    /// range.
    pub fn try_adopt_from(
        &mut self,
        source: &Blockchain,
        upto: u64,
        policy: CheckpointPolicy,
    ) -> bool {
        let held = upto
            .checked_sub(source.base)
            .and_then(|top| source.blocks.get(..=top as usize));
        held.is_some_and(|candidate| self.adopt(candidate, policy, Block::validate_link))
    }

    /// The body both adoption entry points share; `check` judges each
    /// adopted block against its predecessor, the first one included.
    fn adopt(
        &mut self,
        candidate: &[Block],
        policy: CheckpointPolicy,
        check: impl Fn(&Block, &Block) -> Result<(), BlockError>,
    ) -> bool {
        let Some(first) = candidate.first() else {
            return false;
        };
        let fork_point = self.fork_point(candidate);
        // A fork point of 0 always sits at or below the latest checkpoint.
        if self.latest_checkpoint(policy) >= fork_point
            || first.index + candidate.len() as u64 <= self.len() as u64
        {
            return false;
        }
        let (Some(prev), Some(offset)) = (
            self.get(fork_point - 1),
            fork_point.checked_sub(first.index),
        ) else {
            return false;
        };
        let suffix = &candidate[offset as usize..];
        let mut links = std::iter::once(prev).chain(suffix).zip(suffix);
        if !links.all(|(p, b)| check(b, p).is_ok()) {
            return false;
        }
        self.blocks.truncate((fork_point - self.base) as usize);
        self.blocks.extend_from_slice(suffix);
        true
    }

    /// First height at which this chain and `other` disagree — equivalently
    /// the length of their common prefix. `other` is index-aligned by its
    /// first block; heights outside the comparable overlap (pruned on one
    /// side or beyond either tip) are assumed to agree, so the result
    /// equals the shorter logical length when one is a prefix of the
    /// other.
    pub fn fork_point(&self, other: &[Block]) -> u64 {
        let Some(first) = other.first() else {
            return 0;
        };
        let other_base = first.index;
        let other_top = other_base + other.len() as u64 - 1;
        let lo = self.base.max(other_base);
        let hi = self.height().min(other_top);
        for idx in lo..=hi {
            if self.blocks[(idx - self.base) as usize].hash
                != other[(idx - other_base) as usize].hash
            {
                return idx;
            }
        }
        hi + 1
    }

    /// Height of the newest checkpoint block under `policy` (0 when the
    /// chain has not reached the first checkpoint yet). Blocks at or below
    /// this height are final: [`Blockchain::try_adopt`] never reorganises
    /// them away.
    pub fn latest_checkpoint(&self, policy: CheckpointPolicy) -> u64 {
        let interval = policy.interval.max(1);
        (self.height() / interval) * interval
    }

    /// Derives token balances from history: each block credits its miner
    /// one token (the paper's mining incentive), on top of the one-token
    /// initial grant. A pruned prefix contributes through the anchor's
    /// mined-block summary, so the result is identical before and after
    /// pruning.
    pub fn derive_ledger(&self) -> Ledger {
        let mut ledger = Ledger::new();
        if let Some(anchor) = &self.anchor {
            for &(acct, n) in &anchor.mined {
                ledger.credit(acct, n);
            }
        }
        for block in self.blocks.iter().filter(|b| b.index > 0) {
            ledger.credit(block.miner, 1);
        }
        ledger
    }

    /// Number of blocks mined by `account`, including pruned ones.
    pub fn blocks_mined_by(&self, account: &AccountId) -> u64 {
        let anchored = self.anchor.as_ref().map_or(0, |a| a.mined_by(account));
        anchored
            + self
                .blocks
                .iter()
                .filter(|b| b.index > 0 && &b.miner == account)
                .count() as u64
    }

    /// Total count of metadata items recorded on-chain, including pruned
    /// blocks.
    pub fn total_metadata_items(&self) -> usize {
        let anchored = self.anchor.as_ref().map_or(0, |a| a.metadata_items) as usize;
        anchored + self.blocks.iter().map(|b| b.metadata.len()).sum::<usize>()
    }

    /// Collapses every block strictly below `cut` into a signed
    /// [`ChainAnchor`], chaining onto any existing anchor. Returns the
    /// number of blocks pruned — 0 when `cut` is not above the current
    /// base or would not leave at least one retained block.
    ///
    /// Derived state ([`Blockchain::derive_ledger`],
    /// [`Blockchain::blocks_mined_by`],
    /// [`Blockchain::total_metadata_items`]) and all height arithmetic
    /// are unchanged by pruning; only [`Blockchain::get`] and the slice
    /// views lose access to the collapsed blocks.
    pub fn prune_below(&mut self, cut: u64, keys: &KeyPair) -> u64 {
        if cut <= self.base || cut > self.height() {
            return 0;
        }
        let pruned: Vec<Block> = self.blocks.drain(..(cut - self.base) as usize).collect();
        let segment_root =
            MerkleTree::from_leaf_hashes(pruned.iter().map(|b| b.hash).collect()).root();
        let prev_commitment = self.anchor.as_ref().map_or(Digest::ZERO, |a| a.commitment);
        let commitment = sha256_pair(prev_commitment.as_bytes(), segment_root.as_bytes());

        let mut mined: BTreeMap<AccountId, u64> = self
            .anchor
            .as_ref()
            .map(|a| a.mined.iter().copied().collect())
            .unwrap_or_default();
        let mut metadata_items = self.anchor.as_ref().map_or(0, |a| a.metadata_items);
        for b in &pruned {
            if b.index > 0 {
                *mined.entry(b.miner).or_insert(0) += 1;
            }
            metadata_items += b.metadata.len() as u64;
        }

        let boundary = pruned.last().expect("cut > base implies non-empty drain");
        let anchor = ChainAnchor::seal(
            cut - 1,
            boundary.hash,
            boundary.pos_hash,
            boundary.timestamp_secs,
            commitment,
            mined.into_iter().collect(),
            metadata_items,
            keys,
        );
        self.anchor_history.push((anchor.height, anchor.commitment));
        self.anchor = Some(anchor);
        self.base = cut;
        pruned.len() as u64
    }

    /// The pruned-prefix commitment this chain recorded for an anchor at
    /// `height`, if it ever sealed or adopted one there. This is the
    /// audit hook for pruned-prefix integrity: two honest nodes that
    /// pruned the same prefix must agree here.
    pub fn commitment_at(&self, height: u64) -> Option<Digest> {
        self.anchor_history
            .iter()
            .find(|(h, _)| *h == height)
            .map(|(_, c)| *c)
    }
}

/// Whether `first` sits directly on `anchor`'s boundary: the next index,
/// a `prev_hash` naming the anchored tip, and no timestamp regression.
fn attaches_to(anchor: &ChainAnchor, first: &Block) -> bool {
    first.index == anchor.height + 1
        && first.prev_hash == anchor.tip_hash
        && first.timestamp_secs >= anchor.tip_timestamp_secs
}

/// Full verification an honest node applies to a block received from the
/// wire before adopting it onto `prev`: structural linkage
/// ([`Block::validate_against`]), every metadata producer signature, and
/// the Eq. 7 PoS-hash chaining ([`Block::check_pos_link`]). Blocks a node
/// sealed itself skip this — only foreign blocks can lie.
///
/// It is the composition of a block-only half, [`wire_content_verdict`],
/// and a per-receiver half, [`verify_wire_against`].
///
/// # Errors
///
/// Returns the first [`BlockError`] found, in the order index → hash link
/// → timestamp → malformed → signature → PoS link.
pub fn verify_wire_block(prev: &Block, block: &Block) -> Result<(), BlockError> {
    verify_wire_against(prev, block, wire_content_verdict(block))
}

/// The block-only half of [`verify_wire_block`]: hash and Merkle root
/// match the contents ([`Block::is_well_formed`]) and every metadata
/// producer signature verifies. It reads nothing but the block's own
/// fields, so every receiver of one broadcast copy gets the same verdict
/// and it can be computed once per broadcast. It must not be reused for
/// another copy that merely carries the same `hash`: a tampered copy can.
///
/// # Errors
///
/// Returns [`BlockError::Malformed`], then
/// [`BlockError::BadMetadataSignature`] naming the first bad item.
pub fn wire_content_verdict(block: &Block) -> Result<(), BlockError> {
    if !block.is_well_formed() {
        return Err(BlockError::Malformed { index: block.index });
    }
    Blockchain::verify_block_signatures(block)
}

/// The per-receiver half of [`verify_wire_block`]: `block`'s index, hash
/// link and timestamp against the receiver's tip `prev`
/// ([`Block::validate_link`]), then the block-only `content` verdict
/// ([`wire_content_verdict`] of this very block), then the Eq. 7 PoS link
/// ([`Block::check_pos_link`]).
///
/// # Errors
///
/// Returns the first [`BlockError`], in [`verify_wire_block`]'s order.
pub fn verify_wire_against(
    prev: &Block,
    block: &Block,
    content: Result<(), BlockError>,
) -> Result<(), BlockError> {
    block.validate_link(prev)?;
    content?;
    block.check_pos_link(prev)
}

impl<'a> IntoIterator for &'a Blockchain {
    type Item = &'a Block;
    type IntoIter = std::slice::Iter<'a, Block>;
    fn into_iter(self) -> Self::IntoIter {
        self.blocks.iter()
    }
}

/// Checkpointing policy for [`Blockchain::try_adopt`]: every block whose
/// height is a multiple of `interval` is a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint spacing in blocks (clamped to ≥ 1).
    pub interval: u64,
}

impl Default for CheckpointPolicy {
    /// One checkpoint every 10 blocks.
    fn default() -> Self {
        CheckpointPolicy { interval: 10 }
    }
}

/// Whole-chain validation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainError {
    /// No blocks at all.
    Empty,
    /// First block is not the canonical genesis.
    BadGenesis,
    /// First retained block does not attach to the anchor boundary.
    DetachedAnchor,
    /// A block failed linkage validation.
    Invalid {
        /// Index of the offending block.
        index: u64,
        /// The underlying block error.
        source: BlockError,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::Empty => write!(f, "chain has no blocks"),
            ChainError::BadGenesis => write!(f, "chain does not start at genesis"),
            ChainError::DetachedAnchor => {
                write!(f, "chain does not attach to its anchor boundary")
            }
            ChainError::Invalid { index, source } => {
                write!(f, "invalid block {index}: {source}")
            }
        }
    }
}

impl std::error::Error for ChainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChainError::Invalid { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::Identity;
    use crate::metadata::{DataId, DataType, Location, MetadataItem};
    use crate::pos::Amendment;
    use edgechain_sim::NodeId;

    fn mined_block(prev: &Block, miner_seed: u64, ts: u64) -> Block {
        Block::new(
            prev.index + 1,
            prev.hash,
            ts,
            crate::pos::next_pos_hash(&prev.pos_hash, &Identity::from_seed(miner_seed).account()),
            Identity::from_seed(miner_seed).account(),
            60,
            Amendment::from_fraction(1, 1000),
            Vec::new(),
            vec![NodeId(0)],
            prev.storing_nodes.clone(),
            Vec::new(),
        )
    }

    /// No checkpoint ever in range: the plain longest-chain rule.
    const PLAIN: CheckpointPolicy = CheckpointPolicy { interval: u64::MAX };

    fn chain_of(n: u64) -> Blockchain {
        let mut chain = Blockchain::new();
        for i in 0..n {
            let b = mined_block(chain.tip(), i % 3, (i + 1) * 60);
            chain.push(b).unwrap();
        }
        chain
    }

    #[test]
    fn new_chain_has_genesis() {
        let chain = Blockchain::new();
        assert_eq!(chain.height(), 0);
        assert_eq!(chain.len(), 1);
        assert!(!chain.is_empty());
        assert_eq!(chain.tip().index, 0);
    }

    #[test]
    fn push_and_get() {
        let chain = chain_of(5);
        assert_eq!(chain.height(), 5);
        assert_eq!(chain.get(3).unwrap().index, 3);
        assert!(chain.get(9).is_none());
    }

    #[test]
    fn fork_point_and_divergence_depth() {
        let trunk = chain_of(5);
        // Branch that shares the first 3 blocks then diverges.
        let mut branch = Blockchain::from_blocks(trunk.as_slice()[..4].to_vec()).unwrap();
        branch
            .push(mined_block(branch.tip(), 7, 1_000))
            .expect("divergent block links");
        // A reorg onto the other side discards everything from the fork
        // point up.
        assert_eq!(trunk.fork_point(branch.as_slice()), 4);
        assert_eq!(branch.fork_point(trunk.as_slice()), 4);
        // A strict prefix agrees through its last block; the chain itself
        // agrees everywhere, so adopting it discards nothing.
        let prefix = &trunk.as_slice()[..3];
        assert_eq!(trunk.fork_point(prefix), 3);
        assert_eq!(trunk.fork_point(trunk.as_slice()), trunk.len() as u64);
    }

    #[test]
    fn push_rejects_bad_link() {
        let mut chain = chain_of(2);
        let orphan = mined_block(chain.get(0).unwrap(), 1, 300);
        assert!(chain.push(orphan).is_err());
        assert_eq!(chain.height(), 2);
    }

    #[test]
    fn push_sealed_matches_push() {
        let mut honest = Blockchain::new();
        let mut sealed = Blockchain::new();
        for i in 0..4 {
            let b = mined_block(honest.tip(), i % 3, (i + 1) * 60);
            honest.push(b.clone()).unwrap();
            sealed.push_sealed(b).unwrap();
        }
        assert_eq!(honest, sealed);

        let orphan = mined_block(sealed.get(0).unwrap(), 1, 600);
        assert_eq!(
            sealed.push_sealed(orphan.clone()),
            honest.push(orphan),
            "linkage errors must be identical on both paths"
        );
        assert_eq!(sealed.height(), 4);
    }

    #[test]
    fn from_blocks_roundtrip() {
        let chain = chain_of(4);
        let rebuilt = Blockchain::from_blocks(chain.as_slice().to_vec()).unwrap();
        assert_eq!(rebuilt, chain);
    }

    #[test]
    fn from_blocks_rejects_tampering() {
        let chain = chain_of(4);
        let mut blocks = chain.as_slice().to_vec();
        blocks[2].timestamp_secs += 1; // breaks its own hash
        assert!(matches!(
            Blockchain::from_blocks(blocks),
            Err(ChainError::Invalid { index: 2, .. })
        ));
    }

    #[test]
    fn from_blocks_rejects_fake_genesis() {
        let chain = chain_of(2);
        let mut blocks = chain.as_slice().to_vec();
        blocks.remove(0);
        assert_eq!(Blockchain::from_blocks(blocks), Err(ChainError::BadGenesis));
        assert_eq!(Blockchain::from_blocks(vec![]), Err(ChainError::Empty));
    }

    #[test]
    fn fork_choice_adopts_longer_only() {
        let mut short = chain_of(2);
        let long = chain_of(5);
        let snapshot = short.clone();
        assert!(!short.try_adopt(&long.as_slice()[..2], PLAIN)); // shorter
        assert!(!short.try_adopt(short.clone().as_slice(), PLAIN)); // equal
        assert_eq!(short, snapshot);
        assert!(short.try_adopt(long.as_slice(), PLAIN));
        assert_eq!(short, long);
    }

    #[test]
    fn fork_choice_rejects_longer_but_invalid() {
        let mut chain = chain_of(2);
        let long = chain_of(5);
        let mut tampered = long.as_slice().to_vec();
        tampered[4].delay_secs = 999; // breaks block 4's hash
        assert!(!chain.try_adopt(&tampered, PLAIN));
        assert_eq!(chain.height(), 2);
    }

    /// Extends `base` with `n` extra blocks mined by `seed_offset`-shifted
    /// miners, producing a fork when two calls use different offsets.
    fn extend(base: &Blockchain, n: u64, seed_offset: u64) -> Blockchain {
        let mut chain = base.clone();
        for i in 0..n {
            let ts = chain.tip().timestamp_secs + 60;
            let b = mined_block(chain.tip(), seed_offset + i, ts);
            chain.push(b).unwrap();
        }
        chain
    }

    #[test]
    fn checkpointed_adoption_refuses_deep_reorg() {
        let trunk = chain_of(4);
        // Our chain: trunk + 8 blocks (height 12; checkpoint at 10).
        let ours = extend(&trunk, 8, 100);
        // Attacker: longer fork diverging from the trunk below our
        // checkpoint.
        let attacker = extend(&trunk, 12, 200);
        let policy = CheckpointPolicy { interval: 10 };
        let mut chain = ours.clone();
        assert_eq!(chain.latest_checkpoint(policy), 10);
        assert!(!chain.try_adopt(attacker.as_slice(), policy));
        assert_eq!(chain, ours, "checkpointed chain must not reorg");
        // Plain longest-chain *would* have adopted it (the §V-D hazard).
        let mut plain = ours.clone();
        assert!(plain.try_adopt(attacker.as_slice(), PLAIN));
    }

    #[test]
    fn checkpointed_adoption_allows_shallow_extension() {
        let trunk = chain_of(11); // height 11; checkpoint at 10
                                  // A longer chain that shares everything through the checkpoint.
        let longer = extend(&trunk, 4, 300);
        let mut chain = trunk.clone();
        let policy = CheckpointPolicy { interval: 10 };
        assert!(chain.try_adopt(longer.as_slice(), policy));
        assert_eq!(chain.height(), 15);
    }

    #[test]
    fn checkpointed_adoption_before_first_checkpoint_is_plain() {
        let trunk = chain_of(2);
        let a = extend(&trunk, 3, 400);
        let b = extend(&trunk, 5, 500);
        let mut chain = a.clone();
        let policy = CheckpointPolicy { interval: 10 };
        assert_eq!(chain.latest_checkpoint(policy), 0);
        // No checkpoint reached yet: longest chain wins as usual.
        assert!(chain.try_adopt(b.as_slice(), policy));
        assert_eq!(chain.height(), 7);
    }

    #[test]
    fn ledger_credits_miners() {
        let chain = chain_of(6); // miners cycle over seeds 0,1,2
        let ledger = chain.derive_ledger();
        for seed in 0..3u64 {
            let acct = Identity::from_seed(seed).account();
            // initial 1 + 2 mined each
            assert_eq!(ledger.balance(&acct), 3);
            assert_eq!(chain.blocks_mined_by(&acct), 2);
        }
    }

    #[test]
    fn signature_verification_catches_forged_item() {
        let mut item = MetadataItem::new_signed(
            Identity::from_seed(1).keys(),
            DataId(1),
            DataType::KeyExchange,
            0,
            Location::default(),
            60,
            None,
            100,
        );
        item.data_size = 999; // invalidates signature
        let prev = Block::genesis();
        let block = Block::new(
            1,
            prev.hash,
            60,
            prev.pos_hash,
            Identity::from_seed(1).account(),
            60,
            Amendment::from_fraction(1, 1),
            vec![item],
            vec![],
            vec![],
            vec![],
        );
        assert_eq!(
            Blockchain::verify_block_signatures(&block),
            Err(BlockError::BadMetadataSignature { index: 1, item: 0 })
        );
    }

    /// One way a wire block can be wrong against its predecessor.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fault {
        Index,
        HashLink,
        Timestamp,
        Hash,
        MerkleRoot,
        Signature,
        PosClaim,
    }

    const FAULTS: [Fault; 7] = [
        Fault::Index,
        Fault::HashLink,
        Fault::Timestamp,
        Fault::Hash,
        Fault::MerkleRoot,
        Fault::Signature,
        Fault::PosClaim,
    ];

    /// A one-item block on `prev` carrying exactly `faults`: header faults
    /// are sealed in (the hash still matches), content faults are written
    /// after sealing.
    fn faulty_block(prev: &Block, item: &MetadataItem, faults: &[Fault]) -> Block {
        let miner = Identity::from_seed(3).account();
        let (mut index, mut prev_hash) = (prev.index + 1, prev.hash);
        let mut ts = prev.timestamp_secs + 60;
        let mut pos_hash = crate::pos::next_pos_hash(&prev.pos_hash, &miner);
        let mut item = item.clone();
        for fault in faults {
            match fault {
                Fault::Index => index += 1,
                Fault::HashLink => prev_hash = edgechain_crypto::sha256(b"elsewhere"),
                Fault::Timestamp => ts = prev.timestamp_secs - 1,
                Fault::Signature => item.data_size += 1,
                Fault::PosClaim => pos_hash = edgechain_crypto::sha256(b"unearned"),
                Fault::Hash | Fault::MerkleRoot => {}
            }
        }
        let amendment = Amendment::from_fraction(1, 1000);
        let mut block = Block::new(
            index,
            prev_hash,
            ts,
            pos_hash,
            miner,
            60,
            amendment,
            vec![item],
            vec![NodeId(0)],
            Vec::new(),
            Vec::new(),
        );
        if faults.contains(&Fault::MerkleRoot) {
            block.merkle_root = edgechain_crypto::sha256(b"not the root");
            block.hash = block.compute_hash();
        }
        if faults.contains(&Fault::Hash) {
            block.hash = edgechain_crypto::sha256(b"not the hash");
        }
        block
    }

    #[test]
    fn wire_halves_compose_to_verify_wire_block() {
        let item = MetadataItem::new_signed(
            Identity::from_seed(1).keys(),
            DataId(1),
            DataType::KeyExchange,
            0,
            Location::default(),
            60,
            None,
            100,
        );
        let prev = mined_block(&Block::genesis(), 0, 60);
        let mut corpus: Vec<Vec<Fault>> = vec![Vec::new()];
        for (i, &a) in FAULTS.iter().enumerate() {
            corpus.push(vec![a]);
            corpus.extend(FAULTS[i + 1..].iter().map(|&b| vec![a, b]));
        }
        for faults in &corpus {
            let block = faulty_block(&prev, &item, faults);
            // The pre-split sequence, written out independently.
            let reference = block
                .validate_against(&prev)
                .and_then(|()| Blockchain::verify_block_signatures(&block))
                .and_then(|()| block.check_pos_link(&prev));
            let composed = verify_wire_against(&prev, &block, wire_content_verdict(&block));
            assert_eq!(composed, reference, "{faults:?}");
            assert_eq!(verify_wire_block(&prev, &block), reference, "{faults:?}");
            let mut chain = Blockchain::from_blocks(vec![Block::genesis(), prev.clone()]).unwrap();
            let pushed = chain.push_wire(&block, wire_content_verdict(&block));
            assert_eq!(pushed, reference, "{faults:?}");
            assert_eq!(chain.height(), 1 + u64::from(pushed.is_ok()), "{faults:?}");
            // Each fault alone is caught, and as itself.
            let caught = match faults[..] {
                [] => Ok(()),
                [Fault::Index] => Err(BlockError::BadIndex {
                    expected: 2,
                    got: 3,
                }),
                [Fault::HashLink] => Err(BlockError::BrokenHashLink { index: 2 }),
                [Fault::Timestamp] => Err(BlockError::TimestampRegression { index: 2 }),
                [Fault::Hash | Fault::MerkleRoot] => Err(BlockError::Malformed { index: 2 }),
                [Fault::Signature] => Err(BlockError::BadMetadataSignature { index: 2, item: 0 }),
                [Fault::PosClaim] => Err(BlockError::BadPosClaim { index: 2 }),
                _ => continue,
            };
            assert_eq!(reference, caught, "{faults:?}");
        }
    }

    #[test]
    fn metadata_counting() {
        let chain = chain_of(3);
        assert_eq!(chain.total_metadata_items(), 0);
    }

    #[test]
    fn iteration_orders_by_index() {
        let chain = chain_of(4);
        let indices: Vec<u64> = (&chain).into_iter().map(|b| b.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3, 4]);
    }

    fn prune_keys() -> &'static crate::account::Identity {
        use std::sync::OnceLock;
        static ID: OnceLock<Identity> = OnceLock::new();
        ID.get_or_init(|| Identity::from_seed(42))
    }

    #[test]
    fn pruning_preserves_heights_and_derived_state() {
        let mut chain = chain_of(25);
        let ledger_before = chain.derive_ledger();
        let mined_before: Vec<u64> = (0..3)
            .map(|s| chain.blocks_mined_by(&Identity::from_seed(s).account()))
            .collect();
        let items_before = chain.total_metadata_items();

        let pruned = chain.prune_below(10, prune_keys().keys());
        assert_eq!(pruned, 10);
        assert_eq!(chain.base_index(), 10);
        assert_eq!(chain.height(), 25);
        assert_eq!(chain.len(), 26);
        assert_eq!(chain.retained_len(), 16);
        assert!(chain.get(9).is_none());
        assert_eq!(chain.get(10).unwrap().index, 10);
        assert_eq!(chain.tip().index, 25);
        assert_eq!(chain.derive_ledger(), ledger_before);
        let mined_after: Vec<u64> = (0..3)
            .map(|s| chain.blocks_mined_by(&Identity::from_seed(s).account()))
            .collect();
        assert_eq!(mined_after, mined_before);
        assert_eq!(chain.total_metadata_items(), items_before);
        // Pushing past the pruned base still works.
        let next = mined_block(chain.tip(), 1, chain.tip().timestamp_secs + 60);
        chain.push(next).unwrap();
        assert_eq!(chain.height(), 26);
    }

    #[test]
    fn prune_rejects_bad_cuts() {
        let mut chain = chain_of(5);
        assert_eq!(chain.prune_below(0, prune_keys().keys()), 0);
        assert_eq!(
            chain.prune_below(6, prune_keys().keys()),
            0,
            "cannot prune the tip away"
        );
        assert_eq!(chain.prune_below(3, prune_keys().keys()), 3);
        assert_eq!(
            chain.prune_below(2, prune_keys().keys()),
            0,
            "cut below base is a no-op"
        );
    }

    #[test]
    fn anchor_signature_verifies_and_catches_tampering() {
        let mut chain = chain_of(12);
        chain.prune_below(8, prune_keys().keys());
        let anchor = chain.anchor().unwrap().clone();
        assert!(anchor.verify());
        assert_eq!(anchor.height, 7);
        assert_eq!(anchor.tip_hash, chain.get(8).unwrap().prev_hash);

        let mut forged = anchor.clone();
        forged.metadata_items += 1;
        assert!(!forged.verify());
        let mut reassigned = anchor.clone();
        reassigned.signer = Identity::from_seed(7).account();
        assert!(!reassigned.verify());
    }

    #[test]
    fn commitment_chains_across_successive_prunes() {
        let reference = chain_of(20);
        let mut chain = reference.clone();
        chain.prune_below(5, prune_keys().keys());
        let first = chain.anchor().unwrap().commitment;
        chain.prune_below(12, prune_keys().keys());
        let second = chain.anchor().unwrap().commitment;
        assert_ne!(first, second);
        assert_eq!(chain.commitment_at(4), Some(first));
        assert_eq!(chain.commitment_at(11), Some(second));
        assert_eq!(chain.commitment_at(5), None);

        // A node that prunes straight to 12 folds the same hashes in a
        // different segmentation, so commitments are only comparable at
        // matching cut heights — recompute the two-step chain by hand.
        use edgechain_crypto::{sha256_pair, Digest, MerkleTree};
        let seg = |lo: usize, hi: usize| {
            MerkleTree::from_leaf_hashes(
                reference.as_slice()[lo..hi]
                    .iter()
                    .map(|b| b.hash)
                    .collect(),
            )
            .root()
        };
        let c1 = sha256_pair(Digest::ZERO.as_bytes(), seg(0, 5).as_bytes());
        let c2 = sha256_pair(c1.as_bytes(), seg(5, 12).as_bytes());
        assert_eq!(first, c1);
        assert_eq!(second, c2);
    }

    #[test]
    fn from_anchor_rebuilds_a_pruned_chain() {
        let mut chain = chain_of(15);
        chain.prune_below(6, prune_keys().keys());
        let anchor = chain.anchor().unwrap().clone();
        let suffix = chain.as_slice().to_vec();

        let rebuilt = Blockchain::from_anchor(anchor.clone(), suffix.clone()).unwrap();
        assert_eq!(rebuilt.height(), chain.height());
        assert_eq!(rebuilt.base_index(), 6);
        assert_eq!(rebuilt.tip(), chain.tip());
        assert_eq!(rebuilt.commitment_at(5), Some(anchor.commitment));
        assert_eq!(rebuilt.derive_ledger(), chain.derive_ledger());

        // Detached suffixes are refused.
        assert_eq!(
            Blockchain::from_anchor(anchor.clone(), suffix[1..].to_vec()),
            Err(ChainError::DetachedAnchor)
        );
        assert_eq!(
            Blockchain::from_anchor(anchor, Vec::new()),
            Err(ChainError::Empty)
        );
    }

    #[test]
    fn pruned_chain_adopts_suffix_and_full_candidates() {
        let trunk = chain_of(14);
        let longer = extend(&trunk, 4, 600);

        // Suffix candidate: just the blocks above our base.
        let mut pruned = trunk.clone();
        pruned.prune_below(8, prune_keys().keys());
        assert!(pruned.try_adopt(longer.retained_after(10), PLAIN));
        assert_eq!(pruned.height(), 18);
        assert_eq!(pruned.base_index(), 8);

        // Full candidate from genesis also splices across the base.
        let mut pruned = trunk.clone();
        pruned.prune_below(8, prune_keys().keys());
        assert!(pruned.try_adopt(longer.as_slice(), PLAIN));
        assert_eq!(pruned.height(), 18);
        assert!(pruned.anchor().is_some(), "anchor survives adoption");

        // So does a slice starting below the base: only where it parts
        // from this chain (at 15, above the base) is judged.
        let mut pruned = trunk.clone();
        pruned.prune_below(8, prune_keys().keys());
        assert!(pruned.try_adopt(&longer.as_slice()[4..], PLAIN));
        assert_eq!(pruned.tip(), longer.tip());

        // A slice that leaves a gap above the tip cannot attach.
        let mut pruned = trunk.clone();
        pruned.prune_below(8, prune_keys().keys());
        assert!(!pruned.try_adopt(longer.retained_after(15), PLAIN));
        assert_eq!(pruned.height(), 14);
    }

    #[test]
    fn pruned_chain_reorgs_above_its_base_but_not_at_it() {
        let trunk = chain_of(8);
        let ours = extend(&trunk, 4, 100);
        let mut pruned = ours.clone();
        pruned.prune_below(8, prune_keys().keys());
        // A fork from block 10 up, offered as a slice starting at our base:
        // the shape a view gets from a pruned canonical chain.
        let above = Blockchain::from_blocks(ours.as_slice()[..10].to_vec()).unwrap();
        let above = extend(&above, 4, 700);
        let anchor = pruned.anchor().cloned();
        assert!(pruned.try_adopt(above.retained_after(7), PLAIN));
        assert_eq!(pruned.tip(), above.tip());
        assert_eq!((pruned.base_index(), pruned.height()), (8, 13));
        assert_eq!(pruned.anchor().cloned(), anchor, "the anchor stays");

        // A fork at block 8 itself — a sibling of our base — parts from us
        // where we hold no predecessor to link it to.
        let at = Blockchain::from_blocks(trunk.as_slice()[..8].to_vec()).unwrap();
        let at = extend(&at, 7, 800);
        let mut pruned = ours.clone();
        pruned.prune_below(8, prune_keys().keys());
        assert_eq!(pruned.fork_point(at.retained_after(7)), 8);
        assert!(!pruned.try_adopt(at.retained_after(7), PLAIN));
        assert_eq!(pruned.tip(), ours.tip());
    }

    #[test]
    fn pruned_chain_refuses_divergence_below_base() {
        let trunk = chain_of(6);
        let ours = extend(&trunk, 6, 100);
        // Attacker forks below the eventual prune base and out-mines us.
        let attacker = extend(&trunk, 10, 200);
        let mut pruned = ours.clone();
        pruned.prune_below(9, prune_keys().keys());
        assert!(
            !pruned.try_adopt(attacker.as_slice(), PLAIN),
            "divergence inside the pruned prefix must be refused"
        );
        assert_eq!(pruned.height(), 12);
    }

    #[test]
    fn checkpointed_adoption_is_index_aligned_after_pruning() {
        let trunk = chain_of(11); // checkpoint at 10
        let longer = extend(&trunk, 4, 300);
        let mut chain = trunk.clone();
        chain.prune_below(7, prune_keys().keys());
        let policy = CheckpointPolicy { interval: 10 };
        assert!(chain.try_adopt(longer.retained_after(9), policy));
        assert_eq!(chain.height(), 15);

        // A fork that rewrites the checkpoint block is still refused.
        let early = Blockchain::from_blocks(trunk.as_slice()[..10].to_vec()).unwrap();
        let attacker = extend(&early, 9, 400); // rewrites block 10
        let mut chain = extend(&trunk, 2, 300);
        chain.prune_below(7, prune_keys().keys());
        assert!(!chain.try_adopt(attacker.retained_after(9), policy));
    }

    #[test]
    fn held_adoption_checks_the_link_onto_this_chain() {
        // The view holds its own fork from block 5 up; the source forked
        // there too and pruned below 8, so the fork point is 8, the lowest
        // height both hold, and the view's block 7 is not the one the
        // source's anchor stands for. Only the first link can tell.
        let trunk = chain_of(4);
        let view = extend(&trunk, 6, 100);
        let mut source = extend(&trunk, 10, 200);
        source.prune_below(8, prune_keys().keys());
        assert_eq!(view.fork_point(source.as_slice()), 8);
        assert_ne!(view.get(7).unwrap().hash, source.anchor().unwrap().tip_hash);

        let mut held = view.clone();
        assert!(!held.try_adopt_from(&source, source.height(), PLAIN));
        let mut full = view.clone();
        assert!(!full.try_adopt(source.as_slice(), PLAIN));
        assert_eq!((&held, &full), (&view, &view));

        // The same source unpruned links onto the view's block 4.
        let source = extend(&trunk, 10, 200);
        assert!(held.try_adopt_from(&source, 12, PLAIN));
        assert!(full.try_adopt(source.retained_up_to(12), PLAIN));
        assert_eq!((held.tip(), &held), (source.get(12).unwrap(), &full));
        // A target outside the source's retained range is refused.
        let mut pruned = source.clone();
        pruned.prune_below(8, prune_keys().keys());
        assert!(!held.clone().try_adopt_from(&pruned, 7, PLAIN));
        assert!(!held.clone().try_adopt_from(&pruned, 15, PLAIN));
    }

    #[test]
    fn fork_point_aligns_suffix_slices() {
        let trunk = chain_of(10);
        let mut pruned = trunk.clone();
        pruned.prune_below(4, prune_keys().keys());
        // Suffix of the same chain: agreement through the overlap.
        assert_eq!(pruned.fork_point(trunk.retained_after(5)), 11);
        // Divergent suffix.
        let fork = extend(
            &Blockchain::from_blocks(trunk.as_slice()[..8].to_vec()).unwrap(),
            3,
            900,
        );
        assert_eq!(pruned.fork_point(fork.retained_after(6)), 8);
    }
}
