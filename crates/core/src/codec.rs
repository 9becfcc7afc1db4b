//! Binary wire codec for blocks and metadata items.
//!
//! The paper's prototype shipped JSON over sockets; a deployable system
//! needs a compact, versioned binary encoding. This module provides one:
//! little-endian fixed-width integers, length-prefixed byte strings, and a
//! one-byte format version so future revisions can evolve. Decoding is
//! total — malformed or truncated input yields [`DecodeError`], never a
//! panic (fuzz-style property tests assert this).
//!
//! [`Block::wire_size`](crate::Block::wire_size) reports the exact length
//! of this encoding, so every byte the simulator charges corresponds to a
//! byte a real deployment would transmit.
//!
//! The writers here are also the one field list every hash and signature
//! covers: a commitment is the type's encoding, opened with a per-type
//! domain tag and written without its own signature. A producer signs
//! its item's encoding less `signature` and `storing_nodes` (the miner
//! assigns storers after signing); a Merkle leaf is the item's whole
//! encoding; a block hash is the header [`encode_block`] writes, whose
//! Merkle root commits the items; anchors and snapshots are signed over
//! their encodings less the trailing signature.
//!
//! # Examples
//!
//! ```
//! use edgechain_core::{codec, Block};
//!
//! let genesis = Block::genesis();
//! let bytes = codec::encode_block(&genesis);
//! let back = codec::decode_block(&bytes)?;
//! assert_eq!(back, genesis);
//! # Ok::<(), edgechain_core::codec::DecodeError>(())
//! ```

use crate::account::AccountId;
use crate::block::Block;
use crate::chain::{ChainAnchor, Snapshot};
use crate::metadata::{DataId, DataType, Location, MetadataItem};
use crate::pos::Amendment;
use edgechain_crypto::{Digest, PublicKey, Signature};
use edgechain_sim::NodeId;
use std::fmt;

/// Format version written as the first byte of every top-level object.
pub const FORMAT_VERSION: u8 = 1;

/// Domain tags, one per commitment, so bytes committed for one purpose
/// never verify for another.
const ITEM_SIGNATURE_TAG: &[u8] = b"edgechain.item.signature.v1";
const ITEM_LEAF_TAG: &[u8] = b"edgechain.item.leaf.v1";
const BLOCK_HASH_TAG: &[u8] = b"edgechain.block.hash.v1";
const ANCHOR_SIGNATURE_TAG: &[u8] = b"edgechain.anchor.signature.v1";
const SNAPSHOT_SIGNATURE_TAG: &[u8] = b"edgechain.snapshot.signature.v1";

/// What `write` puts after `tag` (empty for the wire form) and the format
/// version.
fn framed(tag: &[u8], write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = Vec::with_capacity(512);
    buf.extend_from_slice(tag);
    buf.push(FORMAT_VERSION);
    write(&mut buf);
    buf
}

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the object was complete.
    UnexpectedEnd,
    /// Unknown format version byte.
    BadVersion(u8),
    /// A tag byte did not match any known variant.
    BadTag(u8),
    /// A length prefix exceeded sane bounds.
    LengthOverflow(u64),
    /// An embedded string was not valid UTF-8.
    BadUtf8,
    /// A public key failed group-membership validation.
    BadKey,
    /// Trailing bytes remained after the object.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "unexpected end of input"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::BadTag(t) => write!(f, "unknown tag byte {t}"),
            DecodeError::LengthOverflow(n) => write!(f, "length prefix {n} too large"),
            DecodeError::BadUtf8 => write!(f, "embedded string is not valid utf-8"),
            DecodeError::BadKey => write!(f, "invalid public key encoding"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Upper bound on any single length prefix (strings, lists); prevents
/// allocation bombs from hostile input.
const MAX_LEN: u64 = 16 * 1024 * 1024;

/// A cursor over borrowed input: every read goes through [`Reader::take`],
/// which checks the length before it slices.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader past `data`'s format version byte.
    fn open(data: &'a [u8]) -> Result<Self, DecodeError> {
        let mut r = Reader { buf: data };
        match r.u8()? {
            FORMAT_VERSION => Ok(r),
            v => Err(DecodeError::BadVersion(v)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self
            .buf
            .split_at_checked(n)
            .ok_or(DecodeError::UnexpectedEnd)?;
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("length checked"))
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    fn u128(&mut self) -> Result<u128, DecodeError> {
        self.array().map(u128::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, DecodeError> {
        self.array().map(f64::from_le_bytes)
    }

    fn len(&mut self) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        if n > MAX_LEN {
            return Err(DecodeError::LengthOverflow(n));
        }
        Ok(n as usize)
    }

    fn digest(&mut self) -> Result<Digest, DecodeError> {
        self.array().map(Digest)
    }

    fn key(&mut self) -> Result<PublicKey, DecodeError> {
        PublicKey::from_bytes(&self.array()?).map_err(|_| DecodeError::BadKey)
    }

    fn signature(&mut self) -> Result<Signature, DecodeError> {
        Ok(Signature::from_bytes(&self.array()?))
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.len()?;
        let raw = std::str::from_utf8(self.take(n)?).map_err(|_| DecodeError::BadUtf8)?;
        Ok(raw.to_owned())
    }

    fn node_list(&mut self) -> Result<Vec<NodeId>, DecodeError> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(NodeId(self.u64()? as usize));
        }
        Ok(out)
    }

    /// A length-prefixed block.
    fn block(&mut self) -> Result<Block, DecodeError> {
        let n = self.len()?;
        decode_block(self.take(n)?)
    }

    fn finish(self) -> Result<(), DecodeError> {
        match self.buf.len() {
            0 => Ok(()),
            n => Err(DecodeError::TrailingBytes(n)),
        }
    }
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A length prefix.
fn put_len(buf: &mut Vec<u8>, n: usize) {
    put_u64(buf, n as u64);
}

/// Length-prefixed bytes: a string, or a block inside a chain or snapshot.
fn put_bytes(buf: &mut Vec<u8>, bytes: &[u8]) {
    put_len(buf, bytes.len());
    buf.extend_from_slice(bytes);
}

fn put_nodes(buf: &mut Vec<u8>, nodes: &[NodeId]) {
    put_len(buf, nodes.len());
    for n in nodes {
        put_u64(buf, n.0 as u64);
    }
}

fn put_data_type(buf: &mut Vec<u8>, dt: &DataType) {
    match dt {
        DataType::Sensing(s) => {
            buf.push(0);
            put_bytes(buf, s.as_bytes());
        }
        DataType::Media(s) => {
            buf.push(1);
            put_bytes(buf, s.as_bytes());
        }
        DataType::KeyExchange => buf.push(2),
        DataType::Other(s) => {
            buf.push(3);
            put_bytes(buf, s.as_bytes());
        }
    }
}

fn read_data_type(r: &mut Reader) -> Result<DataType, DecodeError> {
    match r.u8()? {
        0 => Ok(DataType::Sensing(r.string()?)),
        1 => Ok(DataType::Media(r.string()?)),
        2 => Ok(DataType::KeyExchange),
        3 => Ok(DataType::Other(r.string()?)),
        t => Err(DecodeError::BadTag(t)),
    }
}

/// How much of an item [`put_metadata`] writes: all of it, or only what
/// its producer signs.
#[derive(Clone, Copy, PartialEq)]
enum Part {
    Whole,
    Signed,
}

fn put_metadata(buf: &mut Vec<u8>, item: &MetadataItem, part: Part) {
    put_u64(buf, item.data_id.0);
    put_data_type(buf, &item.data_type);
    put_u64(buf, item.produced_at_secs);
    put_bytes(buf, item.location.label.as_bytes());
    buf.extend_from_slice(&item.location.x.to_le_bytes());
    buf.extend_from_slice(&item.location.y.to_le_bytes());
    buf.extend_from_slice(item.producer.as_bytes());
    buf.extend_from_slice(&item.producer_key.to_bytes());
    if part == Part::Whole {
        buf.extend_from_slice(&item.signature.to_bytes());
        put_nodes(buf, &item.storing_nodes);
    }
    put_u64(buf, item.valid_minutes);
    match &item.properties {
        Some(p) => {
            buf.push(1);
            put_bytes(buf, p.as_bytes());
        }
        None => buf.push(0),
    }
    put_u64(buf, item.data_size);
}

fn read_metadata(r: &mut Reader) -> Result<MetadataItem, DecodeError> {
    let data_id = DataId(r.u64()?);
    let data_type = read_data_type(r)?;
    let produced_at_secs = r.u64()?;
    let label = r.string()?;
    let x = r.f64()?;
    let y = r.f64()?;
    let producer = AccountId(r.digest()?);
    let producer_key = r.key()?;
    let signature = r.signature()?;
    let storing_nodes = r.node_list()?;
    let valid_minutes = r.u64()?;
    let properties = match r.u8()? {
        0 => None,
        1 => Some(r.string()?),
        t => return Err(DecodeError::BadTag(t)),
    };
    let data_size = r.u64()?;
    Ok(MetadataItem {
        data_id,
        data_type,
        produced_at_secs,
        location: Location { label, x, y },
        producer,
        producer_key,
        signature,
        storing_nodes,
        valid_minutes,
        properties,
        data_size,
    })
}

/// Encodes a metadata item on its own (the form broadcast at generation
/// time, before any block packs it).
pub fn encode_metadata(item: &MetadataItem) -> Vec<u8> {
    framed(b"", |buf| put_metadata(buf, item, Part::Whole))
}

/// The bytes an item's producer signs.
pub(crate) fn item_signed_bytes(item: &MetadataItem) -> Vec<u8> {
    framed(ITEM_SIGNATURE_TAG, |buf| {
        put_metadata(buf, item, Part::Signed)
    })
}

/// The bytes an item's Merkle leaf commits.
pub(crate) fn item_leaf_bytes(item: &MetadataItem) -> Vec<u8> {
    framed(ITEM_LEAF_TAG, |buf| put_metadata(buf, item, Part::Whole))
}

/// Decodes a standalone metadata item.
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input; never panics.
pub fn decode_metadata(data: &[u8]) -> Result<MetadataItem, DecodeError> {
    let mut r = Reader::open(data)?;
    let item = read_metadata(&mut r)?;
    r.finish()?;
    Ok(item)
}

/// Encodes a block (header, PoS credentials, node lists, metadata items).
///
/// Counts each invocation under the `codec.block_encodes` telemetry
/// counter (and its wall time under `codec.encode_ns`) so tests and the
/// perf bench can assert how many times a path actually serialized a
/// block — [`Block::encoded`](crate::Block::encoded) exists to keep this
/// at one per sealed block.
pub fn encode_block(block: &Block) -> Vec<u8> {
    edgechain_telemetry::counter_add("codec.block_encodes", 1);
    edgechain_telemetry::time_wall("codec.encode_ns", || encode_block_inner(block))
}

fn encode_block_inner(block: &Block) -> Vec<u8> {
    framed(b"", |buf| {
        put_header(buf, block);
        put_len(buf, block.metadata.len());
        for item in &block.metadata {
            put_metadata(buf, item, Part::Whole);
        }
        buf.extend_from_slice(block.hash.as_bytes());
    })
}

/// The bytes a block hash covers: the header (not counted as a block
/// encode).
pub(crate) fn block_hashed_bytes(block: &Block) -> Vec<u8> {
    framed(BLOCK_HASH_TAG, |buf| put_header(buf, block))
}

fn put_header(buf: &mut Vec<u8>, block: &Block) {
    put_u64(buf, block.index);
    buf.extend_from_slice(block.prev_hash.as_bytes());
    put_u64(buf, block.timestamp_secs);
    buf.extend_from_slice(block.pos_hash.as_bytes());
    buf.extend_from_slice(block.miner.as_bytes());
    put_u64(buf, block.delay_secs);
    buf.extend_from_slice(&block.amendment.numerator().to_le_bytes());
    buf.extend_from_slice(&block.amendment.denominator().to_le_bytes());
    buf.extend_from_slice(block.merkle_root.as_bytes());
    put_nodes(buf, &block.storing_nodes);
    put_nodes(buf, &block.prev_storing_nodes);
    put_nodes(buf, &block.recent_cache_nodes);
}

/// Decodes a block.
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input; never panics. Note that
/// decoding does **not** validate the block (hash, Merkle root,
/// signatures) — run [`Block::is_well_formed`] and
/// [`crate::Blockchain::verify_block_signatures`] afterwards.
pub fn decode_block(data: &[u8]) -> Result<Block, DecodeError> {
    let mut r = Reader::open(data)?;
    let index = r.u64()?;
    let prev_hash = r.digest()?;
    let timestamp_secs = r.u64()?;
    let pos_hash = r.digest()?;
    let miner = AccountId(r.digest()?);
    let delay_secs = r.u64()?;
    let num = r.u128()?;
    let den = r.u128()?;
    if den == 0 {
        return Err(DecodeError::BadTag(0));
    }
    let amendment = Amendment::from_fraction(num, den);
    let merkle_root = r.digest()?;
    let storing_nodes = r.node_list()?;
    let prev_storing_nodes = r.node_list()?;
    let recent_cache_nodes = r.node_list()?;
    let n_items = r.len()?;
    let mut metadata = Vec::with_capacity(n_items.min(4096));
    for _ in 0..n_items {
        metadata.push(read_metadata(&mut r)?);
    }
    let hash = r.digest()?;
    r.finish()?;
    Ok(Block {
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
        hash,
        cache: Default::default(),
    })
}

/// Encodes a whole chain (e.g. for persistence or bootstrap transfer).
pub fn encode_chain(blocks: &[Block]) -> Vec<u8> {
    framed(b"", |buf| {
        put_len(buf, blocks.len());
        for b in blocks {
            put_bytes(buf, &encode_block(b));
        }
    })
}

/// Decodes a chain encoded by [`encode_chain`]. Linkage is *not* validated
/// here; feed the result to [`crate::Blockchain::from_blocks`].
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input.
pub fn decode_chain(data: &[u8]) -> Result<Vec<Block>, DecodeError> {
    let mut r = Reader::open(data)?;
    let n = r.len()?;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(r.block()?);
    }
    r.finish()?;
    Ok(out)
}

fn put_anchor(buf: &mut Vec<u8>, anchor: &ChainAnchor) {
    put_anchor_unsigned(buf, anchor);
    buf.extend_from_slice(&anchor.signature.to_bytes());
}

fn put_anchor_unsigned(buf: &mut Vec<u8>, anchor: &ChainAnchor) {
    put_u64(buf, anchor.height);
    buf.extend_from_slice(anchor.tip_hash.as_bytes());
    buf.extend_from_slice(anchor.tip_pos_hash.as_bytes());
    put_u64(buf, anchor.tip_timestamp_secs);
    buf.extend_from_slice(anchor.commitment.as_bytes());
    put_len(buf, anchor.mined.len());
    for (acct, n) in &anchor.mined {
        buf.extend_from_slice(acct.as_bytes());
        put_u64(buf, *n);
    }
    put_u64(buf, anchor.metadata_items);
    buf.extend_from_slice(anchor.signer.as_bytes());
    buf.extend_from_slice(&anchor.signer_key.to_bytes());
}

fn read_anchor(r: &mut Reader) -> Result<ChainAnchor, DecodeError> {
    let height = r.u64()?;
    let tip_hash = r.digest()?;
    let tip_pos_hash = r.digest()?;
    let tip_timestamp_secs = r.u64()?;
    let commitment = r.digest()?;
    let n_mined = r.len()?;
    let mut mined = Vec::with_capacity(n_mined.min(4096));
    for _ in 0..n_mined {
        let acct = AccountId(r.digest()?);
        let n = r.u64()?;
        mined.push((acct, n));
    }
    let metadata_items = r.u64()?;
    let signer = AccountId(r.digest()?);
    let signer_key = r.key()?;
    let signature = r.signature()?;
    Ok(ChainAnchor {
        height,
        tip_hash,
        tip_pos_hash,
        tip_timestamp_secs,
        commitment,
        mined,
        metadata_items,
        signer,
        signer_key,
        signature,
    })
}

/// Encodes a pruned-prefix anchor.
pub fn encode_anchor(anchor: &ChainAnchor) -> Vec<u8> {
    framed(b"", |buf| put_anchor(buf, anchor))
}

/// The bytes an anchor's signer signs.
pub(crate) fn anchor_signed_bytes(anchor: &ChainAnchor) -> Vec<u8> {
    framed(ANCHOR_SIGNATURE_TAG, |buf| put_anchor_unsigned(buf, anchor))
}

/// Decodes a pruned-prefix anchor encoded by [`encode_anchor`].
///
/// Decoding does **not** verify the anchor signature — run
/// [`ChainAnchor::verify`] afterwards.
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input; never panics.
pub fn decode_anchor(data: &[u8]) -> Result<ChainAnchor, DecodeError> {
    let mut r = Reader::open(data)?;
    let anchor = read_anchor(&mut r)?;
    r.finish()?;
    Ok(anchor)
}

/// Encodes a bootstrap snapshot: anchor, retained block suffix (each
/// block length-prefixed), the live registry with packing indices, and
/// the server credentials. The blocks are written afresh, not read from
/// [`Block::encoded`], because the same writer produces the bytes the
/// server signs: a verifier's decoded blocks have no cached encoding, and
/// filling one would count as a wire encode.
pub fn encode_snapshot(snapshot: &Snapshot) -> Vec<u8> {
    framed(b"", |buf| {
        put_snapshot_unsigned(buf, snapshot);
        buf.extend_from_slice(&snapshot.signature.to_bytes());
    })
}

/// The bytes a snapshot's server signs.
pub(crate) fn snapshot_signed_bytes(snapshot: &Snapshot) -> Vec<u8> {
    framed(SNAPSHOT_SIGNATURE_TAG, |buf| {
        put_snapshot_unsigned(buf, snapshot)
    })
}

fn put_snapshot_unsigned(buf: &mut Vec<u8>, snapshot: &Snapshot) {
    put_anchor(buf, &snapshot.anchor);
    put_len(buf, snapshot.blocks.len());
    for b in &snapshot.blocks {
        put_bytes(buf, &encode_block_inner(b));
    }
    put_len(buf, snapshot.registry.len());
    for (item, packed_at) in &snapshot.registry {
        put_metadata(buf, item, Part::Whole);
        put_u64(buf, *packed_at);
    }
    buf.extend_from_slice(snapshot.server.as_bytes());
    buf.extend_from_slice(&snapshot.server_key.to_bytes());
}

/// Decodes a snapshot encoded by [`encode_snapshot`].
///
/// Decoding does **not** verify anything — run [`Snapshot::verify`]
/// before trusting the contents.
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input; never panics.
pub fn decode_snapshot(data: &[u8]) -> Result<Snapshot, DecodeError> {
    let mut r = Reader::open(data)?;
    let anchor = read_anchor(&mut r)?;
    let n_blocks = r.len()?;
    let mut blocks = Vec::with_capacity(n_blocks.min(4096));
    for _ in 0..n_blocks {
        blocks.push(r.block()?);
    }
    let n_items = r.len()?;
    let mut registry = Vec::with_capacity(n_items.min(4096));
    for _ in 0..n_items {
        let item = read_metadata(&mut r)?;
        let packed_at = r.u64()?;
        registry.push((item, packed_at));
    }
    let server = AccountId(r.digest()?);
    let server_key = r.key()?;
    let signature = r.signature()?;
    r.finish()?;
    Ok(Snapshot {
        anchor,
        blocks,
        registry,
        server,
        server_key,
        signature,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::Identity;

    fn sample_item(seed: u64) -> MetadataItem {
        let mut item = MetadataItem::new_signed(
            Identity::from_seed(seed).keys(),
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
        item.storing_nodes = vec![NodeId(3), NodeId(9)];
        item
    }

    fn sample_block() -> Block {
        let g = Block::genesis();
        Block::new(
            1,
            g.hash,
            60,
            edgechain_crypto::sha256(b"pos"),
            Identity::from_seed(1).account(),
            42,
            Amendment::from_fraction(123456789, 987654321),
            vec![sample_item(2), sample_item(3)],
            vec![NodeId(1)],
            vec![NodeId(0), NodeId(2)],
            vec![NodeId(4)],
        )
    }

    #[test]
    fn metadata_roundtrip() {
        let item = sample_item(1);
        let enc = encode_metadata(&item);
        let dec = decode_metadata(&enc).unwrap();
        assert_eq!(dec, item);
        assert!(dec.verify());
    }

    #[test]
    fn metadata_roundtrip_no_properties() {
        let mut item = sample_item(4);
        item.properties = None;
        // Re-signing not needed for codec tests: equality is structural.
        let dec = decode_metadata(&encode_metadata(&item)).unwrap();
        assert_eq!(dec, item);
    }

    #[test]
    fn all_data_types_roundtrip() {
        for dt in [
            DataType::Sensing("a".into()),
            DataType::Media("b".into()),
            DataType::KeyExchange,
            DataType::Other("c".into()),
        ] {
            let mut item = sample_item(5);
            item.data_type = dt.clone();
            let dec = decode_metadata(&encode_metadata(&item)).unwrap();
            assert_eq!(dec.data_type, dt);
        }
    }

    #[test]
    fn block_roundtrip() {
        let block = sample_block();
        let enc = encode_block(&block);
        let dec = decode_block(&enc).unwrap();
        assert_eq!(dec, block);
        assert!(dec.is_well_formed());
    }

    #[test]
    fn genesis_roundtrip() {
        let g = Block::genesis();
        assert_eq!(decode_block(&encode_block(&g)).unwrap(), g);
    }

    #[test]
    fn chain_roundtrip() {
        let mut chain = crate::chain::Blockchain::new();
        let b = sample_block();
        chain.push(b).unwrap();
        let enc = encode_chain(chain.as_slice());
        let blocks = decode_chain(&enc).unwrap();
        let rebuilt = crate::chain::Blockchain::from_blocks(blocks).unwrap();
        assert_eq!(rebuilt, chain);
    }

    #[test]
    fn truncated_input_errors_cleanly() {
        let enc = encode_block(&sample_block());
        for cut in [0, 1, 8, enc.len() / 2, enc.len() - 1] {
            let err = decode_block(&enc[..cut]);
            assert!(err.is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = encode_block(&sample_block());
        enc.push(0xFF);
        assert_eq!(decode_block(&enc), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut enc = encode_metadata(&sample_item(6));
        enc[0] = 99;
        assert_eq!(decode_metadata(&enc), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // Version byte + index + hashes…, then a huge node-list length.
        let block = sample_block();
        let mut enc = encode_block(&block);
        // The first node-list length sits right after the fixed 193-byte
        // header (1 + 8 + 32 + 8 + 32 + 32 + 8 + 16 + 16 + 32); stomp it.
        let off = 1 + 8 + 32 + 8 + 32 + 32 + 8 + 16 + 16 + 32;
        enc[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        match decode_block(&enc) {
            Err(DecodeError::LengthOverflow(_)) | Err(DecodeError::UnexpectedEnd) => {}
            other => panic!("expected overflow error, got {other:?}"),
        }
    }

    #[test]
    fn hostile_validity_period_never_overflows() {
        // `valid_minutes` is wire-controlled: `u64::MAX` used to overflow
        // `is_valid_at` (panic in debug, wrap to "already expired" in
        // release) while the expiry schedule saturated.
        let mut item = sample_item(7);
        item.valid_minutes = u64::MAX;
        let dec = decode_metadata(&encode_metadata(&item)).unwrap();
        assert_eq!(dec.valid_minutes, u64::MAX);
        assert_eq!(dec.expires_at_secs(), u64::MAX);
        assert!(dec.is_valid_at(0));
        assert!(dec.is_valid_at(u64::MAX - 1));
        let mut late = dec;
        late.valid_minutes = 1;
        late.produced_at_secs = u64::MAX - 10;
        assert_eq!(late.expires_at_secs(), u64::MAX);
        assert!(late.is_valid_at(u64::MAX - 1));
    }

    #[test]
    fn bad_utf8_rejected() {
        let item = sample_item(8);
        let enc = encode_metadata(&item);
        // Find the location-label bytes ("NY") and corrupt them.
        let pos = enc
            .windows(2)
            .position(|w| w == b"NY")
            .expect("label present");
        let mut bad = enc.clone();
        bad[pos] = 0xFF;
        bad[pos + 1] = 0xFE;
        assert_eq!(decode_metadata(&bad), Err(DecodeError::BadUtf8));
    }

    fn sample_snapshot() -> Snapshot {
        use crate::chain::Blockchain;
        let mut chain = Blockchain::new();
        for i in 0..6u64 {
            let prev = chain.tip();
            let miner = Identity::from_seed(i % 3).account();
            let b = Block::new(
                prev.index + 1,
                prev.hash,
                (i + 1) * 60,
                crate::pos::next_pos_hash(&prev.pos_hash, &miner),
                miner,
                60,
                Amendment::from_fraction(1, 1000),
                Vec::new(),
                vec![NodeId(0)],
                prev.storing_nodes.clone(),
                Vec::new(),
            );
            chain.push(b).unwrap();
        }
        chain.prune_below(3, Identity::from_seed(9).keys());
        let registry = vec![(sample_item(2), 4u64), (sample_item(3), 5u64)];
        Snapshot::seal(
            chain.anchor().unwrap().clone(),
            chain.as_slice().to_vec(),
            registry,
            Identity::from_seed(1).keys(),
        )
    }

    #[test]
    fn anchor_roundtrip() {
        let snapshot = sample_snapshot();
        let enc = encode_anchor(&snapshot.anchor);
        let dec = decode_anchor(&enc).unwrap();
        assert_eq!(dec, snapshot.anchor);
        assert!(dec.verify(), "signature survives the roundtrip");
    }

    #[test]
    fn snapshot_roundtrip() {
        let snapshot = sample_snapshot();
        let enc = encode_snapshot(&snapshot);
        let dec = decode_snapshot(&enc).unwrap();
        assert_eq!(dec, snapshot);
        assert!(dec.verify(), "server signature survives the roundtrip");
    }

    #[test]
    fn truncated_snapshot_errors_cleanly() {
        let enc = encode_snapshot(&sample_snapshot());
        for cut in [0, 1, 9, enc.len() / 3, enc.len() / 2, enc.len() - 1] {
            assert!(
                decode_snapshot(&enc[..cut]).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn snapshot_trailing_bytes_rejected() {
        let mut enc = encode_snapshot(&sample_snapshot());
        enc.push(0x00);
        assert_eq!(decode_snapshot(&enc), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn tampered_snapshot_fails_verification() {
        let snapshot = sample_snapshot();
        assert!(snapshot.verify());
        // Rewriting a storer map — the classic tamper — breaks the server
        // signature even though every producer signature still holds.
        let mut storers = snapshot.clone();
        storers.registry[0].0.storing_nodes = vec![NodeId(13)];
        assert!(!storers.verify());
        // A detached suffix fails structurally.
        let mut detached = snapshot.clone();
        detached.blocks.remove(0);
        assert!(!detached.verify());
        // A forged anchor summary fails the anchor signature.
        let mut forged = snapshot;
        forged.anchor.metadata_items += 7;
        assert!(!forged.verify());
    }
}
