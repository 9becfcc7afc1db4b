//! Schnorr-style signatures over the multiplicative group `Z_p^*`.
//!
//! Every edge node holds a [`KeyPair`]; its [`PublicKey`] hashes to the
//! node's account address, and metadata items are signed so that consumers
//! can verify data integrity (paper §III-B.2).
//!
//! The scheme is textbook Schnorr instantiated over `Z_p^*` with the
//! secp256k1 *field* prime `p` and generator `g = 7`, with exponents reduced
//! modulo `p − 1`:
//!
//! * sign: `k = HMAC(x, m)`, `r = g^k`, `e = H(r ‖ m) mod (p−1)`,
//!   `s = k − x·e mod (p−1)`; signature is `(e, s)`.
//! * verify: recompute `r' = g^s · y^e mod p` and accept iff
//!   `H(r' ‖ m) mod (p−1) = e`.
//!
//! Correctness: `g^s·y^e = g^(k−xe)·g^(xe) = g^k = r`, independent of the
//! (unpublished) factorization of `p − 1`, because `g^(p−1) = 1` for any
//! `g` coprime to `p` (Fermat).
//!
//! **Security note.** This implementation is *simulation-grade*: nonce
//! derivation is deterministic (good), but the arithmetic is not
//! constant-time, `g` is not checked to generate a prime-order subgroup, and
//! no side-channel hardening is attempted. It must not be used to protect
//! real assets. The reproduction only requires signatures to be
//! deterministic, collision-free in practice, and verifiable.
//!
//! # Examples
//!
//! ```
//! use edgechain_crypto::KeyPair;
//!
//! let kp = KeyPair::from_seed(42);
//! let sig = kp.sign(b"sensor reading: pm2.5 = 17");
//! assert!(kp.public_key().verify(b"sensor reading: pm2.5 = 17", &sig));
//! assert!(!kp.public_key().verify(b"tampered", &sig));
//! ```

use crate::field;
use crate::hmac::hmac_sha256;
use crate::sha256::{Digest, Sha256};
use crate::u256::U256;
use rand::Rng;
use std::fmt;

/// The exponent modulus `p − 1`.
const ORDER_Q: U256 = {
    let [p0, p1, p2, p3] = field::P.limbs();
    U256::from_limbs([p0 - 1, p1, p2, p3])
};

/// A private signing key (a secret exponent).
#[derive(Clone, PartialEq, Eq)]
pub struct SecretKey {
    x: U256,
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(..)")
    }
}

/// A public verification key `y = g^x mod p`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey {
    y: U256,
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({:.16})", format!("{:x}", self.y))
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.y)
    }
}

impl PublicKey {
    /// The 32-byte big-endian encoding of the key.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.y.to_be_bytes()
    }

    /// Reconstructs a key from its encoding.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidKeyError`] when the encoding is zero or not below
    /// the group modulus.
    pub fn from_bytes(bytes: &[u8; 32]) -> Result<Self, InvalidKeyError> {
        let y = U256::from_be_bytes(bytes);
        let key = PublicKey { y };
        if !key.is_group_element() {
            return Err(InvalidKeyError { _priv: () });
        }
        Ok(key)
    }

    /// `0 < y < p`. [`from_bytes`](Self::from_bytes) enforces it;
    /// [`verify`](Self::verify) checks it again so it stays total whatever
    /// built the key.
    fn is_group_element(&self) -> bool {
        !self.y.is_zero() && self.y < field::P
    }

    /// Verifies `signature` over `message`. Total: a key outside the group
    /// or a signature component outside `[0, p − 1)` is rejected, never
    /// reduced.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        if !self.is_group_element() {
            return false;
        }
        if signature.e.is_zero() && signature.s.is_zero() {
            return false;
        }
        if signature.e >= ORDER_Q || signature.s >= ORDER_Q {
            return false;
        }
        let r = field::mul(
            &field::pow_g(&signature.s),
            &field::pow(&self.y, &signature.e),
        );
        challenge(&r, message) == signature.e
    }

    /// Hashes the public key into a 32-byte account address (paper §III-A:
    /// "the account address can be generated from public keys but not in
    /// reverse").
    pub fn address(&self) -> Digest {
        let mut h = Sha256::new();
        h.update(b"edgechain-account-v1");
        h.update(self.to_bytes());
        h.finalize()
    }
}

/// A Schnorr signature `(e, s)`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    e: U256,
    s: U256,
}

impl Signature {
    /// Serializes to 64 bytes (`e ‖ s`, big-endian).
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.e.to_be_bytes());
        out[32..].copy_from_slice(&self.s.to_be_bytes());
        out
    }

    /// Reconstructs a signature from its 64-byte encoding.
    pub fn from_bytes(bytes: &[u8; 64]) -> Self {
        Signature {
            e: U256::from_be_bytes(bytes[..32].try_into().unwrap()),
            s: U256::from_be_bytes(bytes[32..].try_into().unwrap()),
        }
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature(e={:.12}.., s={:.12}..)",
            format!("{:x}", self.e),
            format!("{:x}", self.s)
        )
    }
}

/// A signing/verification key pair.
#[derive(Clone, Debug)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Derives a key pair deterministically from a 64-bit seed.
    ///
    /// Simulations create thousands of nodes; seeding keys from the node id
    /// keeps runs reproducible.
    pub fn from_seed(seed: u64) -> Self {
        let d = sha256_seed(seed);
        Self::from_secret_scalar(U256::from_be_bytes(d.as_bytes()))
    }

    /// Generates a key pair from a random number generator.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut bytes = [0u8; 32];
        rng.fill(&mut bytes);
        Self::from_secret_scalar(U256::from_be_bytes(&bytes))
    }

    fn from_secret_scalar(raw: U256) -> Self {
        let mut x = raw.rem(&ORDER_Q);
        if x.is_zero() {
            x = U256::ONE;
        }
        let y = field::pow_g(&x);
        KeyPair {
            secret: SecretKey { x },
            public: PublicKey { y },
        }
    }

    /// The public half.
    pub fn public_key(&self) -> PublicKey {
        self.public
    }

    /// The account address derived from the public key.
    pub fn address(&self) -> Digest {
        self.public.address()
    }

    /// Signs `message` with a deterministic (RFC 6979-style) nonce.
    pub fn sign(&self, message: &[u8]) -> Signature {
        let q = &ORDER_Q;
        // Deterministic nonce: HMAC over the message keyed by the secret.
        let mut nonce_key = self.secret.x.to_be_bytes().to_vec();
        nonce_key.extend_from_slice(b"edgechain-nonce");
        let mut k = U256::from_be_bytes(hmac_sha256(&nonce_key, message).as_bytes()).rem(q);
        if k.is_zero() {
            k = U256::ONE;
        }
        let r = field::pow_g(&k);
        let e = challenge(&r, message);
        let xe = self.secret.x.mul_mod(&e, q);
        let s = k.sub_mod(&xe, q);
        Signature { e, s }
    }
}

/// `H(r ‖ m) mod (p−1)` — the Fiat–Shamir challenge.
fn challenge(r: &U256, message: &[u8]) -> U256 {
    let mut h = Sha256::new();
    h.update(r.to_be_bytes());
    h.update(message);
    U256::from_be_bytes(h.finalize().as_bytes()).rem(&ORDER_Q)
}

fn sha256_seed(seed: u64) -> Digest {
    let mut h = Sha256::new();
    h.update(b"edgechain-keyseed-v1");
    h.update(seed.to_be_bytes());
    h.finalize()
}

/// Error returned when decoding an invalid [`PublicKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidKeyError {
    _priv: (),
}

impl fmt::Display for InvalidKeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "public key encoding is not a valid group element")
    }
}

impl std::error::Error for InvalidKeyError {}

/// One-shot convenience: derive the account address for a seed without
/// keeping the key pair.
pub fn address_for_seed(seed: u64) -> Digest {
    KeyPair::from_seed(seed).address()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(1);
        let msg = b"hello edge";
        let sig = kp.sign(msg);
        assert!(kp.public_key().verify(msg, &sig));
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = KeyPair::from_seed(2);
        let sig = kp.sign(b"original");
        assert!(!kp.public_key().verify(b"tampered", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = KeyPair::from_seed(3);
        let kp2 = KeyPair::from_seed(4);
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public_key().verify(b"msg", &sig));
    }

    #[test]
    fn deterministic_signing() {
        let kp = KeyPair::from_seed(5);
        assert_eq!(kp.sign(b"m").to_bytes(), kp.sign(b"m").to_bytes());
        assert_ne!(kp.sign(b"m1").to_bytes(), kp.sign(b"m2").to_bytes());
    }

    #[test]
    fn seeds_give_distinct_keys() {
        let a = KeyPair::from_seed(10);
        let b = KeyPair::from_seed(11);
        assert_ne!(a.public_key(), b.public_key());
        assert_ne!(a.address(), b.address());
    }

    #[test]
    fn public_key_bytes_roundtrip() {
        let kp = KeyPair::from_seed(6);
        let bytes = kp.public_key().to_bytes();
        assert_eq!(PublicKey::from_bytes(&bytes).unwrap(), kp.public_key());
    }

    #[test]
    fn invalid_public_key_rejected() {
        assert!(PublicKey::from_bytes(&[0u8; 32]).is_err());
        assert!(PublicKey::from_bytes(&[0xffu8; 32]).is_err());
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let kp = KeyPair::from_seed(7);
        let sig = kp.sign(b"roundtrip");
        let back = Signature::from_bytes(&sig.to_bytes());
        assert_eq!(back, sig);
        assert!(kp.public_key().verify(b"roundtrip", &back));
    }

    #[test]
    fn zero_signature_rejected() {
        let kp = KeyPair::from_seed(8);
        let zero = Signature {
            e: U256::ZERO,
            s: U256::ZERO,
        };
        assert!(!kp.public_key().verify(b"m", &zero));
    }

    #[test]
    fn out_of_range_keys_and_signatures_are_rejected() {
        let kp = KeyPair::from_seed(9);
        let good = kp.sign(b"m");
        assert_eq!(ORDER_Q, field::P.wrapping_sub(&U256::ONE));
        // A key that skipped `from_bytes`.
        for y in [U256::ZERO, field::P, U256::MAX] {
            assert!(!PublicKey { y }.verify(b"m", &good), "y = {y}");
        }
        let out_of_range = [ORDER_Q, field::P, U256::MAX];
        for bad in out_of_range {
            for (e, s) in [(bad, good.s), (good.e, bad), (bad, bad)] {
                assert!(!kp.public_key().verify(b"m", &Signature { e, s }));
            }
            for y in [U256::ZERO, field::P, U256::MAX] {
                assert!(!PublicKey { y }.verify(b"m", &Signature { e: bad, s: bad }));
            }
        }
        assert!(kp.public_key().verify(b"m", &good));
        // y = g is small enough that y + p still fits: the same group
        // element unreduced, which a reducing `verify` would accept.
        let small = KeyPair::from_secret_scalar(U256::ONE);
        let sig = small.sign(b"m");
        assert!(small.public_key().verify(b"m", &sig));
        let unreduced = PublicKey {
            y: field::G.wrapping_add(&field::P),
        };
        assert!(unreduced.y > field::P);
        assert!(!unreduced.verify(b"m", &sig));
    }

    #[test]
    fn rng_generation_works() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let kp = KeyPair::generate(&mut rng);
        let sig = kp.sign(b"rng");
        assert!(kp.public_key().verify(b"rng", &sig));
    }

    #[test]
    fn address_is_stable() {
        let kp = KeyPair::from_seed(12);
        assert_eq!(kp.address(), kp.public_key().address());
        assert_eq!(address_for_seed(12), kp.address());
    }
}
