//! SHA-256 (FIPS 180-4) implemented from scratch.
//!
//! Provides both an incremental [`Sha256`] hasher and a one-shot
//! [`sha256`] convenience function. The implementation is validated against
//! the FIPS 180-4 / NIST test vectors in the unit tests and against a
//! `incremental == one-shot` property test.
//!
//! Two fast paths support the consensus hot loop (both bit-identical to
//! the one-shot function, pinned by unit and property tests):
//!
//! - [`sha256_fixed64`] hashes exactly-64-byte messages — the PoS shape
//!   `Hash(POSHash_prev ‖ Account_i)`, two 32-byte halves — using a
//!   **compile-time message schedule for the padding block**: a 64-byte
//!   message always pads to the same second block (`0x80`, zeros, bit
//!   length 512), so its 64-entry schedule expansion is a `const`.
//! - [`SharedPrefix32`] / [`sha256_many_pair64`] run the message-block
//!   rounds that depend only on a shared 32-byte prefix once per batch,
//!   then resume them for 16 suffixes at a time on one thread: the
//!   schedule and working variables are lane arrays the compiler
//!   vectorises, and a tail shorter than 16 resumes one suffix at a time;
//!   output order and bytes are identical to the serial map.
//!
//! # Examples
//!
//! ```
//! use edgechain_crypto::sha256;
//!
//! let digest = sha256(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

use std::array::from_fn;
use std::fmt;

/// Initial hash values: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// A 256-bit message digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as the genesis "previous hash".
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Renders the digest as 64 lowercase hex characters.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push_str(&format!("{:02x}", b));
        }
        s
    }

    /// Parses a 64-character hex string into a digest.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDigestError`] when the string is not exactly 64 hex
    /// characters.
    pub fn from_hex(s: &str) -> Result<Self, ParseDigestError> {
        if s.len() != 64 {
            return Err(ParseDigestError { _priv: () });
        }
        let mut out = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char)
                .to_digit(16)
                .ok_or(ParseDigestError { _priv: () })?;
            let lo = (chunk[1] as char)
                .to_digit(16)
                .ok_or(ParseDigestError { _priv: () })?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Ok(Digest(out))
    }

    /// Returns the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Interprets the first 8 bytes as a big-endian `u64`.
    ///
    /// Used by the PoS mechanism to reduce a hash to a *hit* value.
    pub fn to_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[0..8].try_into().unwrap())
    }

    /// Number of leading zero bits, used as PoW difficulty measure.
    pub fn leading_zero_bits(&self) -> u32 {
        let mut n = 0;
        for b in &self.0 {
            if *b == 0 {
                n += 8;
            } else {
                n += b.leading_zeros();
                break;
            }
        }
        n
    }

    /// Whether the digest starts with `n` zero hex digits (PoW criterion,
    /// matching the paper's "4 zeros at the beginning of the block hash").
    pub fn has_leading_zero_hex_digits(&self, n: u32) -> bool {
        self.leading_zero_bits() >= n * 4
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(b: [u8; 32]) -> Self {
        Digest(b)
    }
}

/// Error returned when parsing a [`Digest`] from hex fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseDigestError {
    _priv: (),
}

impl fmt::Display for ParseDigestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid sha-256 digest hex string")
    }
}

impl std::error::Error for ParseDigestError {}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use edgechain_crypto::{sha256, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), sha256(b"hello world"));
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: impl AsRef<[u8]>) -> &mut Self {
        let mut data = data.as_ref();
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                compress_block(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        while data.len() >= 64 {
            let block: [u8; 64] = data[..64].try_into().unwrap();
            compress_block(&mut self.state, &block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buffer[..data.len()].copy_from_slice(data);
            self.buffer_len = data.len();
        }
        self
    }

    /// Completes the hash and returns the digest, consuming buffered input.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80 then zero padding so that length ≡ 56 (mod 64).
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let pad_len = if self.buffer_len < 56 {
            56 - self.buffer_len
        } else {
            120 - self.buffer_len
        };
        let mut tail = Vec::with_capacity(pad_len + 8);
        tail.extend_from_slice(&pad[..pad_len]);
        tail.extend_from_slice(&bit_len.to_be_bytes());
        self.update(&tail);
        debug_assert_eq!(self.buffer_len, 0);
        to_digest(&self.state)
    }
}

/// One compression of the 64-byte `block`, its message schedule expanded
/// on the fly.
fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut first16 = [0u32; 16];
    for (i, word) in first16.iter_mut().enumerate() {
        *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
    }
    let w = expand_schedule(first16);
    compress(state, |t| K[t].wrapping_add(w[t]));
}

/// The 64 compression rounds, round `t` adding `kw(t)` = `K[t] + W[t]`,
/// then the feed-forward into `state`.
fn compress(state: &mut [u32; 8], kw: impl Fn(usize) -> u32) {
    let mut vars = state.map(|s| [s]);
    rounds(&mut vars, 0..64, |t| [kw(t)]);
    for (s, [v]) in state.iter_mut().zip(vars) {
        *s = s.wrapping_add(v);
    }
}

/// Compression rounds `range` over the working variables `a..h`, each a
/// column of `L` independent lanes: round `t` adds `kw(t)` = `K[t] +
/// W[t]` per lane and reads no schedule word past `t`, so a caller that
/// runs a prefix of the rounds needs only that prefix of `W` filled. The
/// scalar compressions are the one-lane instance; each lane step is a
/// plain loop over `0..L`, which the compiler vectorises for wide `L`.
///
/// A round writes only `d` and `h`, and the names `a..h` rotate by one
/// slot per round, so eight rounds return every name to its slot. Each
/// block of eight therefore runs in place, with no variable moved: both
/// ends of `range` must be multiples of eight.
#[inline(always)]
fn rounds<const L: usize>(
    vars: &mut [[u32; L]; 8],
    range: std::ops::Range<usize>,
    kw: impl Fn(usize) -> [u32; L],
) {
    debug_assert!(range.start.is_multiple_of(8) && range.end.is_multiple_of(8));
    for t in range.step_by(8) {
        round(vars, kw(t), [0, 1, 2, 3, 4, 5, 6, 7]);
        round(vars, kw(t + 1), [7, 0, 1, 2, 3, 4, 5, 6]);
        round(vars, kw(t + 2), [6, 7, 0, 1, 2, 3, 4, 5]);
        round(vars, kw(t + 3), [5, 6, 7, 0, 1, 2, 3, 4]);
        round(vars, kw(t + 4), [4, 5, 6, 7, 0, 1, 2, 3]);
        round(vars, kw(t + 5), [3, 4, 5, 6, 7, 0, 1, 2]);
        round(vars, kw(t + 6), [2, 3, 4, 5, 6, 7, 0, 1]);
        round(vars, kw(t + 7), [1, 2, 3, 4, 5, 6, 7, 0]);
    }
}

/// One compression round in every lane, the variables `a..h` read from
/// the slots `slot`: the new `a` lands in `h`'s slot and the new `e` in
/// `d`'s.
#[inline(always)]
fn round<const L: usize>(vars: &mut [[u32; L]; 8], kw: [u32; L], slot: [usize; 8]) {
    let [a, b, c, d, e, f, g, h] = slot;
    for l in 0..L {
        let (va, ve) = (vars[a][l], vars[e][l]);
        let s1 = ve.rotate_right(6) ^ ve.rotate_right(11) ^ ve.rotate_right(25);
        // Ch and Maj factored: each takes one operation fewer than its
        // FIPS 180-4 form, which the compiler does not find on its own.
        let ch = vars[g][l] ^ (ve & (vars[f][l] ^ vars[g][l]));
        let temp1 = vars[h][l]
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(kw[l]);
        let s0 = va.rotate_right(2) ^ va.rotate_right(13) ^ va.rotate_right(22);
        let maj = (vars[b][l] & vars[c][l]) ^ (va & (vars[b][l] ^ vars[c][l]));
        vars[d][l] = vars[d][l].wrapping_add(temp1);
        vars[h][l] = temp1.wrapping_add(s0.wrapping_add(maj));
    }
}

/// The schedule's σ₀, applied to `W[i − 15]`.
const fn sigma0(x: u32) -> u32 {
    x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
}

/// The schedule's σ₁, applied to `W[i − 2]`.
const fn sigma1(x: u32) -> u32 {
    x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
}

/// Expands a 16-word block into the full 64-entry message schedule; a
/// `const fn` so the padding block's schedule is computed at compile time.
const fn expand_schedule(first16: [u32; 16]) -> [u32; 64] {
    let mut w = [0u32; 64];
    let mut i = 0;
    while i < 16 {
        w[i] = first16[i];
        i += 1;
    }
    while i < 64 {
        w[i] = w[i - 16]
            .wrapping_add(sigma0(w[i - 15]))
            .wrapping_add(w[i - 7])
            .wrapping_add(sigma1(w[i - 2]));
        i += 1;
    }
    w
}

/// The big-endian write-out of a finished state.
fn to_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// `K[t] + W[t]` for the padding block every 64-byte message shares:
/// `0x80`, 55 zero bytes, then the 64-bit big-endian bit length (512).
/// Both terms are constants, so their sum is folded at compile time —
/// the schedule expansion, close to half the work, leaves the second
/// compression of [`sha256_fixed64`], and one scalar serves every lane
/// of [`sha256_many_pair64`].
const PAD64_KW: [u32; 64] = {
    let mut first16 = [0u32; 16];
    first16[0] = 0x8000_0000;
    first16[15] = 512;
    let w = expand_schedule(first16);
    let mut kw = [0u32; 64];
    let mut t = 0;
    while t < 64 {
        kw[t] = K[t].wrapping_add(w[t]);
        t += 1;
    }
    kw
};

/// One-shot SHA-256 of an exactly-64-byte message: one on-the-fly
/// compression for the message block, one schedule-precomputed compression
/// for the constant padding block. Bit-identical to `sha256(block)`.
pub fn sha256_fixed64(block: &[u8; 64]) -> Digest {
    let mut state = H0;
    compress_block(&mut state, block);
    compress(&mut state, |t| PAD64_KW[t]);
    to_digest(&state)
}

/// [`sha256_fixed64`] over the concatenation of two 32-byte halves — the
/// PoS hit shape `Hash(POSHash_prev ‖ Account_i)` (paper Eq. 7).
pub fn sha256_pair64(a: &[u8; 32], b: &[u8; 32]) -> Digest {
    let mut block = [0u8; 64];
    block[..32].copy_from_slice(a);
    block[32..].copy_from_slice(b);
    sha256_fixed64(&block)
}

/// Precomputed compression state for 64-byte messages that all share the
/// same 32-byte **prefix** — one PoS round hashes
/// `Hash(POSHash_prev ‖ Account_i)` for every candidate with the same
/// `POSHash_prev`. Round `t` of the message-block compression consumes
/// schedule word `W[t]`, and `W[0..8]` come entirely from the prefix, so
/// the first eight rounds (and the prefix-only parts of the schedule
/// expansion, `W[i−16] + σ₀(W[i−15])` for `i ≤ 22`) are identical across
/// the batch and run once here instead of once per suffix. Bit-identical
/// to [`sha256_pair64`] (pinned by unit and property tests).
#[derive(Debug, Clone, Copy)]
pub struct SharedPrefix32 {
    /// `W[0..8]`: the prefix's schedule words.
    w: [u32; 8],
    /// Working variables `a..h` after round 7 (from the `H0` start).
    vars: [u32; 8],
    /// `W[i−16] + σ₀(W[i−15])` for `i = 16..=22` — the expansion terms
    /// that depend only on the prefix.
    partial: [u32; 7],
}

/// Suffixes one [`SharedPrefix32::resume`] hashes side by side in
/// [`sha256_many_pair64`]: sixteen `u32` lanes fill four 128-bit vector
/// registers, the width every x86-64 target has.
const LANES: usize = 16;

impl SharedPrefix32 {
    /// Absorbs the shared 32-byte prefix: eight compression rounds plus
    /// the prefix-only schedule partials, done once per batch.
    pub fn new(prefix: &[u8; 32]) -> Self {
        let w: [u32; 8] =
            from_fn(|i| u32::from_be_bytes(prefix[i * 4..i * 4 + 4].try_into().unwrap()));
        let mut vars = H0.map(|h| [h]);
        rounds(&mut vars, 0..8, |t| [K[t].wrapping_add(w[t])]);
        SharedPrefix32 {
            w,
            vars: vars.map(|[v]| v),
            partial: from_fn(|k| w[k].wrapping_add(sigma0(w[k + 1]))),
        }
    }

    /// `sha256(prefix ‖ suffix)` resuming from the shared prefix state:
    /// the one-lane instance of the kernel [`sha256_many_pair64`] runs
    /// 16 lanes wide.
    pub fn pair(&self, suffix: &[u8; 32]) -> Digest {
        let [digest] = self.resume(&[*suffix]);
        digest
    }

    /// `sha256(prefix ‖ suffixes[l])` in lane `l`: rounds 8–63 of the
    /// message block, then the padding block, whose lane-invariant
    /// `K[t] + W[t]` is one scalar per round.
    #[inline(always)]
    fn resume<const L: usize>(&self, suffixes: &[[u8; 32]; L]) -> [Digest; L] {
        let mut w = [[0u32; L]; 64];
        for (t, &word) in self.w.iter().enumerate() {
            w[t] = [word; L];
        }
        for (l, suffix) in suffixes.iter().enumerate() {
            for i in 0..8 {
                w[i + 8][l] = u32::from_be_bytes(suffix[i * 4..i * 4 + 4].try_into().unwrap());
            }
        }
        for t in 16..64 {
            let (done, next) = w.split_at_mut(t);
            for (l, word) in next[0].iter_mut().enumerate() {
                let head = if t <= 22 {
                    self.partial[t - 16]
                } else {
                    done[t - 16][l].wrapping_add(sigma0(done[t - 15][l]))
                };
                *word = head
                    .wrapping_add(done[t - 7][l])
                    .wrapping_add(sigma1(done[t - 2][l]));
            }
        }
        let mut vars = self.vars.map(|v| [v; L]);
        rounds(&mut vars, 8..64, |t| {
            from_fn(|l| K[t].wrapping_add(w[t][l]))
        });
        // The message block started from the constant `H0`, so the
        // feed-forward is `H0 + vars`; the padding block then finishes.
        let state: [[u32; L]; 8] = from_fn(|k| vars[k].map(|v| H0[k].wrapping_add(v)));
        let mut vars = state;
        rounds(&mut vars, 0..64, |t| [PAD64_KW[t]; L]);
        from_fn(|l| to_digest(&from_fn(|k| state[k][l].wrapping_add(vars[k][l]))))
    }
}

/// `sha256(prefix ‖ suffix_i)` for every suffix, in order — the
/// whole-round PoS batch: one [`SharedPrefix32`] absorption, then the
/// resumed compressions 16 suffixes at a time, on one thread; a tail
/// shorter than that resumes one suffix at a time.
pub fn sha256_many_pair64(prefix: &[u8; 32], suffixes: &[[u8; 32]]) -> Vec<Digest> {
    let shared = SharedPrefix32::new(prefix);
    let mut out = Vec::with_capacity(suffixes.len());
    let (batches, tail) = suffixes.as_chunks::<LANES>();
    for batch in batches {
        out.extend(shared.resume(batch));
    }
    out.extend(tail.iter().map(|s| shared.pair(s)));
    out
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: impl AsRef<[u8]>) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 of the concatenation of two byte strings, a common pattern when
/// chaining hashes (`Hash(prev ‖ account)` in the PoS mechanism).
pub fn sha256_pair(a: impl AsRef<[u8]>, b: impl AsRef<[u8]>) -> Digest {
    let mut h = Sha256::new();
    h.update(a);
    h.update(b);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    // FIPS 180-4 / NIST CAVS vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&data).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn exactly_55_56_63_64_65_bytes() {
        // Padding boundary cases: compare split updates against one-shot.
        for len in [55usize, 56, 63, 64, 65, 119, 120, 127, 128] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let oneshot = sha256(&data);
            let mut inc = Sha256::new();
            for chunk in data.chunks(7) {
                inc.update(chunk);
            }
            assert_eq!(inc.finalize(), oneshot, "length {len}");
        }
    }

    #[test]
    fn digest_hex_roundtrip() {
        let d = sha256(b"roundtrip");
        assert_eq!(Digest::from_hex(&d.to_hex()).unwrap(), d);
        assert!(Digest::from_hex("abc").is_err());
        assert!(Digest::from_hex(&"g".repeat(64)).is_err());
    }

    #[test]
    fn leading_zero_bits() {
        let mut raw = [0xffu8; 32];
        raw[0] = 0x0f;
        let d = Digest(raw);
        assert_eq!(d.leading_zero_bits(), 4);
        assert!(d.has_leading_zero_hex_digits(1));
        assert!(!d.has_leading_zero_hex_digits(2));
        assert_eq!(Digest::ZERO.leading_zero_bits(), 256);
    }

    #[test]
    fn to_u64_is_big_endian_prefix() {
        let mut raw = [0u8; 32];
        raw[7] = 1;
        assert_eq!(Digest(raw).to_u64(), 1);
        raw[0] = 0x80;
        assert!(Digest(raw).to_u64() >= 1 << 63);
    }

    #[test]
    fn sha256_pair_equals_concat() {
        assert_eq!(sha256_pair(b"foo", b"bar"), sha256(b"foobar"));
    }

    // Fixed vector for the 64-byte fast shape (cross-checked against
    // hashlib): sha256("a" × 64).
    #[test]
    fn fixed64_known_vector() {
        let block = [b'a'; 64];
        assert_eq!(
            sha256_fixed64(&block).to_hex(),
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"
        );
    }

    #[test]
    fn fixed64_matches_oneshot() {
        let mut block = [0u8; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = i as u8;
        }
        assert_eq!(sha256_fixed64(&block), sha256(block));
        assert_eq!(
            sha256_fixed64(&block).to_hex(),
            "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"
        );
    }

    #[test]
    fn pair64_matches_pair() {
        let a = sha256(b"prev").0;
        let b = sha256(b"account").0;
        assert_eq!(sha256_pair64(&a, &b), sha256_pair(a, b));
    }

    #[test]
    fn shared_prefix_matches_pair64() {
        let prefixes = [
            sha256(b"prev-a").0,
            sha256(b"prev-b").0,
            [0u8; 32],
            [0xFF; 32],
        ];
        for prefix in &prefixes {
            let shared = SharedPrefix32::new(prefix);
            for seed in 0..16u8 {
                let suffix = sha256([seed]).0;
                assert_eq!(shared.pair(&suffix), sha256_pair64(prefix, &suffix));
            }
        }
    }

    #[test]
    fn many_pair64_matches_pair64_at_every_lane_split() {
        // Every length 0..=48 (each tail length behind zero, one and two
        // full lane batches), plus one PoS round at n = 3,000.
        let prefix = sha256(b"height").0;
        for n in (0..=3 * LANES).chain([3_000]) {
            let suffixes: Vec<[u8; 32]> = (0..n).map(|i| sha256(i.to_le_bytes()).0).collect();
            let expect: Vec<Digest> = suffixes.iter().map(|s| sha256_pair64(&prefix, s)).collect();
            assert_eq!(sha256_many_pair64(&prefix, &suffixes), expect, "n={n}");
        }
    }
}
