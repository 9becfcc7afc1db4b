//! Binary Merkle trees with inclusion proofs.
//!
//! Blocks commit to their metadata items through a Merkle root so that a
//! single metadata item can be proven to belong to a block without shipping
//! the whole block. Leaves are hashed with a `0x00` domain-separation prefix
//! and interior nodes with `0x01`, preventing second-preimage splices
//! between the two levels. Odd nodes are promoted unchanged (Bitcoin-style
//! duplication is deliberately avoided to rule out CVE-2012-2459-type
//! ambiguity).
//!
//! # Examples
//!
//! ```
//! use edgechain_crypto::MerkleTree;
//!
//! let tree = MerkleTree::from_leaves([b"a".as_slice(), b"b", b"c"]);
//! let proof = tree.proof(2).unwrap();
//! assert!(proof.verify(b"c", &tree.root()));
//! assert!(!proof.verify(b"x", &tree.root()));
//! ```

use crate::sha256::{Digest, Sha256};

/// Hashes one leaf with the tree's `0x00` domain-separation prefix.
///
/// Public so callers can hash leaves once, cache the digests, and later
/// rebuild the tree with [`MerkleTree::from_leaf_hashes`] — the identity
/// `from_leaves(L) == from_leaf_hashes(L.map(leaf_hash))` is pinned by
/// tests.
pub fn leaf_hash(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update([0x00u8]);
    h.update(data);
    h.finalize()
}

fn hash_leaf(data: &[u8]) -> Digest {
    leaf_hash(data)
}

fn hash_node(left: &Digest, right: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update([0x01u8]);
    h.update(left.as_bytes());
    h.update(right.as_bytes());
    h.finalize()
}

/// A fully materialized Merkle tree over a list of byte-string leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    /// `levels[0]` is the leaf level; the last level holds the single root.
    levels: Vec<Vec<Digest>>,
}

impl MerkleTree {
    /// Builds a tree from leaf byte strings. An empty iterator produces the
    /// canonical empty tree whose root is `SHA-256` of the empty string.
    pub fn from_leaves<I, B>(leaves: I) -> Self
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        let leaf_hashes: Vec<Digest> = leaves.into_iter().map(|l| hash_leaf(l.as_ref())).collect();
        Self::from_leaf_hashes(leaf_hashes)
    }

    /// Builds a tree from already-hashed leaves.
    pub fn from_leaf_hashes(leaf_hashes: Vec<Digest>) -> Self {
        if leaf_hashes.is_empty() {
            return MerkleTree { levels: Vec::new() };
        }
        let mut levels = vec![leaf_hashes];
        while levels.last().unwrap().len() > 1 {
            let prev = levels.last().unwrap();
            let mut next = Vec::with_capacity(prev.len().div_ceil(2));
            for pair in prev.chunks(2) {
                if pair.len() == 2 {
                    next.push(hash_node(&pair[0], &pair[1]));
                } else {
                    // Odd node: promote unchanged.
                    next.push(pair[0]);
                }
            }
            levels.push(next);
        }
        MerkleTree { levels }
    }

    /// The Merkle root. For an empty tree this is `sha256("")`.
    pub fn root(&self) -> Digest {
        match self.levels.last() {
            Some(level) => level[0],
            None => crate::sha256::sha256(b""),
        }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.levels.first().map_or(0, |l| l.len())
    }

    /// Whether the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produces an inclusion proof for the leaf at `index`, or `None` if the
    /// index is out of range.
    pub fn proof(&self, index: usize) -> Option<MerkleProof> {
        if index >= self.len() {
            return None;
        }
        let mut path = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling = idx ^ 1;
            if sibling < level.len() {
                let side = if idx.is_multiple_of(2) {
                    Side::Right
                } else {
                    Side::Left
                };
                path.push((side, level[sibling]));
            }
            idx /= 2;
        }
        Some(MerkleProof { index, path })
    }
}

/// Which side a sibling hash sits on when recomputing the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Sibling is the left child; the running hash is the right child.
    Left,
    /// Sibling is the right child; the running hash is the left child.
    Right,
}

/// An inclusion proof binding one leaf to a [`MerkleTree`] root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    index: usize,
    path: Vec<(Side, Digest)>,
}

impl MerkleProof {
    /// Verifies that `leaf_data` at this proof's index hashes up to `root`.
    pub fn verify(&self, leaf_data: &[u8], root: &Digest) -> bool {
        let mut acc = hash_leaf(leaf_data);
        for (side, sibling) in &self.path {
            acc = match side {
                Side::Left => hash_node(sibling, &acc),
                Side::Right => hash_node(&acc, sibling),
            };
        }
        &acc == root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = MerkleTree::from_leaves([b"only"]);
        assert_eq!(tree.root(), hash_leaf(b"only"));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn empty_tree() {
        let tree = MerkleTree::from_leaves(Vec::<&[u8]>::new());
        assert!(tree.is_empty());
        assert_eq!(tree.root(), crate::sha256::sha256(b""));
        assert!(tree.proof(0).is_none());
    }

    #[test]
    fn two_leaves() {
        let tree = MerkleTree::from_leaves([b"a".as_slice(), b"b"]);
        let expect = hash_node(&hash_leaf(b"a"), &hash_leaf(b"b"));
        assert_eq!(tree.root(), expect);
    }

    #[test]
    fn proofs_verify_all_sizes() {
        for n in 1..=17usize {
            let leaves: Vec<Vec<u8>> = (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect();
            let tree = MerkleTree::from_leaves(&leaves);
            for (i, leaf) in leaves.iter().enumerate() {
                let proof = tree.proof(i).unwrap();
                assert!(proof.verify(leaf, &tree.root()), "n={n} i={i}");
                assert!(!proof.verify(b"bogus", &tree.root()));
            }
            assert!(tree.proof(n).is_none());
        }
    }

    #[test]
    fn wrong_root_rejected() {
        let tree = MerkleTree::from_leaves([b"a".as_slice(), b"b", b"c"]);
        let other = MerkleTree::from_leaves([b"a".as_slice(), b"b", b"d"]);
        let proof = tree.proof(0).unwrap();
        assert!(!proof.verify(b"a", &other.root()));
    }

    #[test]
    fn order_matters() {
        let t1 = MerkleTree::from_leaves([b"a".as_slice(), b"b"]);
        let t2 = MerkleTree::from_leaves([b"b".as_slice(), b"a"]);
        assert_ne!(t1.root(), t2.root());
    }

    #[test]
    fn leaf_interior_domain_separation() {
        // A leaf equal to the concatenation of two interior hashes must not
        // collide with the parent of those hashes.
        let a = hash_leaf(b"a");
        let b = hash_leaf(b"b");
        let parent = hash_node(&a, &b);
        let mut concat = Vec::new();
        concat.extend_from_slice(a.as_bytes());
        concat.extend_from_slice(b.as_bytes());
        assert_ne!(hash_leaf(&concat), parent);
    }
}
