//! Simulation-grade cryptographic primitives for the edgechain workspace.
//!
//! The paper's blockchain needs four primitives, all implemented here from
//! scratch with no external crypto dependencies:
//!
//! * [`Sha256`] / [`sha256()`](fn@sha256) — FIPS 180-4 hashing, used for block hashes,
//!   the PoS `POSHash` chain, and account addresses.
//! * [`hmac_sha256`] — RFC 2104 MACs, used for deterministic signing nonces.
//! * [`MerkleTree`] / [`MerkleProof`] — block bodies commit to metadata
//!   items through a Merkle root.
//! * [`KeyPair`] / [`PublicKey`] / [`Signature`] — Schnorr-style signatures
//!   identifying data producers (paper §III-B.2).
//!
//! [`U256`] provides the generic 256-bit integers behind the signature
//! scheme and [`field`] its group arithmetic modulo the secp256k1 prime.
//!
//! # Security
//!
//! Everything in this crate is written for *reproducible simulation*, not
//! production use: the arithmetic is not constant-time and the signature
//! group parameters are chosen for convenience (see [`sig`] module docs).
//!
//! # Examples
//!
//! ```
//! use edgechain_crypto::{sha256, KeyPair, MerkleTree};
//!
//! // Hash chaining as in the PoS mechanism.
//! let pos_hash = sha256(b"genesis");
//! let next = sha256([pos_hash.as_bytes().as_slice(), b"account"].concat());
//! assert_ne!(pos_hash, next);
//!
//! // Producer signs a metadata payload.
//! let producer = KeyPair::from_seed(7);
//! let sig = producer.sign(b"metadata");
//! assert!(producer.public_key().verify(b"metadata", &sig));
//!
//! // Blocks commit to metadata via a Merkle root.
//! let tree = MerkleTree::from_leaves([b"m0".as_slice(), b"m1"]);
//! assert!(tree.proof(0).unwrap().verify(b"m0", &tree.root()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod field;
pub mod hmac;
pub mod merkle;
pub mod sha256;
pub mod sig;
pub mod u256;

pub use hmac::hmac_sha256;
pub use merkle::{leaf_hash, MerkleProof, MerkleTree, Side};
pub use sha256::{
    sha256, sha256_fixed64, sha256_many_pair64, sha256_pair, sha256_pair64, Digest,
    ParseDigestError, Sha256, SharedPrefix32,
};
pub use sig::{address_for_seed, InvalidKeyError, KeyPair, PublicKey, SecretKey, Signature};
pub use u256::{ParseU256Error, U256};
