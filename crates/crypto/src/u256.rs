//! Fixed-width 256-bit unsigned integer arithmetic.
//!
//! [`U256`] is the integer type of the signature scheme in [`crate::sig`],
//! its only user: scalars of the exponent ring mod `p − 1` use the generic
//! [`rem`](U256::rem) / [`mul_mod`](U256::mul_mod) here, group elements the
//! dedicated kernel in [`crate::field`]. It is a little-endian array of
//! four `u64` limbs with schoolbook multiplication and Knuth Algorithm D
//! division for any modulus, both on the stack. All operations are
//! constant-size but **not** constant-time; see the crate-level security
//! note.
//!
//! # Examples
//!
//! ```
//! use edgechain_crypto::U256;
//!
//! let a = U256::from_u64(1 << 40);
//! let b = a.wrapping_mul(&a);
//! assert_eq!(b, U256::from_u64(1).shl(80));
//! ```

use std::cmp::Ordering;
use std::fmt;

/// A 256-bit unsigned integer stored as four little-endian 64-bit limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256 {
    limbs: [u64; 4],
}

impl U256 {
    /// The additive identity.
    pub const ZERO: U256 = U256 { limbs: [0; 4] };
    /// The multiplicative identity.
    pub const ONE: U256 = U256 {
        limbs: [1, 0, 0, 0],
    };
    /// The largest representable value, `2^256 - 1`.
    pub const MAX: U256 = U256 {
        limbs: [u64::MAX; 4],
    };

    /// Creates a value from a single 64-bit integer.
    pub const fn from_u64(v: u64) -> Self {
        U256 {
            limbs: [v, 0, 0, 0],
        }
    }

    /// Creates a value from a 128-bit integer.
    pub const fn from_u128(v: u128) -> Self {
        U256 {
            limbs: [v as u64, (v >> 64) as u64, 0, 0],
        }
    }

    /// Creates a value from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        U256 { limbs }
    }

    /// Returns the little-endian limbs.
    pub const fn limbs(&self) -> [u64; 4] {
        self.limbs
    }

    /// Parses a big-endian hexadecimal string (no `0x` prefix, up to 64 digits).
    ///
    /// # Errors
    ///
    /// Returns [`ParseU256Error`] when the string is empty, longer than 64
    /// characters, or contains a non-hex character.
    pub fn from_hex(s: &str) -> Result<Self, ParseU256Error> {
        if s.is_empty() || s.len() > 64 {
            return Err(ParseU256Error { _priv: () });
        }
        let mut out = U256::ZERO;
        for c in s.chars() {
            let d = c.to_digit(16).ok_or(ParseU256Error { _priv: () })? as u64;
            out = out.shl(4);
            out.limbs[0] |= d;
        }
        Ok(out)
    }

    /// Interprets 32 big-endian bytes as an integer.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (i, limb) in limbs.iter_mut().enumerate() {
            let off = (3 - i) * 8;
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[off..off + 8]);
            *limb = u64::from_be_bytes(chunk);
        }
        U256 { limbs }
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, limb) in self.limbs.iter().enumerate() {
            let off = (3 - i) * 8;
            out[off..off + 8].copy_from_slice(&limb.to_be_bytes());
        }
        out
    }

    /// Returns `true` when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs == [0; 4]
    }

    /// Returns the low 64 bits.
    pub fn low_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// Number of significant bits (zero for the value zero).
    pub fn bits(&self) -> u32 {
        for i in (0..4).rev() {
            if self.limbs[i] != 0 {
                return (i as u32) * 64 + (64 - self.limbs[i].leading_zeros());
            }
        }
        0
    }

    /// Returns the bit at position `i` (little-endian indexing).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    pub fn bit(&self, i: u32) -> bool {
        assert!(i < 256, "bit index out of range");
        (self.limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Addition returning the sum and the carry-out flag.
    pub fn overflowing_add(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        #[allow(clippy::needless_range_loop)] // i indexes three arrays
        for i in 0..4 {
            let (s1, c1) = self.limbs[i].overflowing_add(rhs.limbs[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (U256 { limbs: out }, carry != 0)
    }

    /// Wrapping (mod `2^256`) addition.
    pub fn wrapping_add(&self, rhs: &U256) -> U256 {
        self.overflowing_add(rhs).0
    }

    /// Subtraction returning the difference and the borrow-out flag.
    pub fn overflowing_sub(&self, rhs: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        #[allow(clippy::needless_range_loop)] // i indexes three arrays
        for i in 0..4 {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (U256 { limbs: out }, borrow != 0)
    }

    /// Wrapping (mod `2^256`) subtraction.
    pub fn wrapping_sub(&self, rhs: &U256) -> U256 {
        self.overflowing_sub(rhs).0
    }

    /// Checked subtraction; `None` on underflow.
    pub fn checked_sub(&self, rhs: &U256) -> Option<U256> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Full 256×256→512-bit multiplication. Returns `(low, high)` halves.
    pub fn widening_mul(&self, rhs: &U256) -> (U256, U256) {
        let mut prod = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let cur =
                    prod[i + j] as u128 + (self.limbs[i] as u128) * (rhs.limbs[j] as u128) + carry;
                prod[i + j] = cur as u64;
                carry = cur >> 64;
            }
            prod[i + 4] = carry as u64;
        }
        (
            U256 {
                limbs: [prod[0], prod[1], prod[2], prod[3]],
            },
            U256 {
                limbs: [prod[4], prod[5], prod[6], prod[7]],
            },
        )
    }

    /// Wrapping (mod `2^256`) multiplication.
    pub fn wrapping_mul(&self, rhs: &U256) -> U256 {
        self.widening_mul(rhs).0
    }

    /// Logical left shift by `n` bits (zero when `n >= 256`).
    pub fn shl(&self, n: u32) -> U256 {
        if n >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            let mut v = self.limbs[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                v |= self.limbs[i - limb_shift - 1] >> (64 - bit_shift);
            }
            out[i] = v;
        }
        U256 { limbs: out }
    }

    /// Logical right shift by `n` bits (zero when `n >= 256`).
    pub fn shr(&self, n: u32) -> U256 {
        if n >= 256 {
            return U256::ZERO;
        }
        let limb_shift = (n / 64) as usize;
        let bit_shift = n % 64;
        let mut out = [0u64; 4];
        #[allow(clippy::needless_range_loop)] // i indexes both arrays with offsets
        for i in 0..4 - limb_shift {
            let mut v = self.limbs[i + limb_shift] >> bit_shift;
            if bit_shift > 0 && i + limb_shift + 1 < 4 {
                v |= self.limbs[i + limb_shift + 1] << (64 - bit_shift);
            }
            out[i] = v;
        }
        U256 { limbs: out }
    }

    /// Quotient and remainder of division by `divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &U256) -> (U256, U256) {
        assert!(!divisor.is_zero(), "division by zero");
        let (q, r) = div_rem_limbs(&self.limbs, &divisor.limbs);
        (U256 { limbs: q }, U256 { limbs: r })
    }

    /// `self mod m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn rem(&self, m: &U256) -> U256 {
        self.div_rem(m).1
    }

    /// Modular addition `(self + rhs) mod m`; operands must already be `< m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero (debug builds also assert the operand ranges).
    pub fn add_mod(&self, rhs: &U256, m: &U256) -> U256 {
        debug_assert!(self < m && rhs < m, "add_mod operands must be reduced");
        let (sum, carry) = self.overflowing_add(rhs);
        if carry || &sum >= m {
            sum.wrapping_sub(m)
        } else {
            sum
        }
    }

    /// Modular subtraction `(self - rhs) mod m`; operands must already be `< m`.
    pub fn sub_mod(&self, rhs: &U256, m: &U256) -> U256 {
        debug_assert!(self < m && rhs < m, "sub_mod operands must be reduced");
        let (diff, borrow) = self.overflowing_sub(rhs);
        if borrow {
            diff.wrapping_add(m)
        } else {
            diff
        }
    }

    /// Modular multiplication `(self * rhs) mod m` via a 512-bit intermediate.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn mul_mod(&self, rhs: &U256, m: &U256) -> U256 {
        assert!(!m.is_zero(), "modulus must be nonzero");
        let (lo, hi) = self.widening_mul(rhs);
        let wide = [
            lo.limbs[0],
            lo.limbs[1],
            lo.limbs[2],
            lo.limbs[3],
            hi.limbs[0],
            hi.limbs[1],
            hi.limbs[2],
            hi.limbs[3],
        ];
        let (_, r) = div_rem_limbs(&wide, &m.limbs);
        U256 { limbs: r }
    }

    /// Modular exponentiation `self^exp mod m` by square-and-multiply over
    /// [`mul_mod`](Self::mul_mod), for any modulus. Nothing in the crate
    /// calls it: it is the oracle the tests hold [`crate::field`] against.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn pow_mod(&self, exp: &U256, m: &U256) -> U256 {
        assert!(!m.is_zero(), "modulus must be nonzero");
        if m == &U256::ONE {
            return U256::ZERO;
        }
        let mut result = U256::ONE;
        let mut base = self.rem(m);
        let nbits = exp.bits();
        for i in 0..nbits {
            if exp.bit(i) {
                result = result.mul_mod(&base, m);
            }
            if i + 1 < nbits {
                base = base.mul_mod(&base, m);
            }
        }
        result
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        U256::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        U256::from_u128(v)
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U256(0x{:x})", self)
    }
}

impl fmt::Display for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self)
    }
}

impl fmt::LowerHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut started = false;
        for i in (0..4).rev() {
            if started {
                write!(f, "{:016x}", self.limbs[i])?;
            } else if self.limbs[i] != 0 || i == 0 {
                write!(f, "{:x}", self.limbs[i])?;
                started = true;
            }
        }
        Ok(())
    }
}

impl fmt::UpperHex for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = format!("{:x}", self);
        write!(f, "{}", s.to_uppercase())
    }
}

impl fmt::Binary for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut started = false;
        for i in (0..4).rev() {
            if started {
                write!(f, "{:064b}", self.limbs[i])?;
            } else if self.limbs[i] != 0 || i == 0 {
                write!(f, "{:b}", self.limbs[i])?;
                started = true;
            }
        }
        Ok(())
    }
}

/// Error returned when parsing a hexadecimal [`U256`] fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseU256Error {
    _priv: (),
}

impl fmt::Display for ParseU256Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid 256-bit hexadecimal literal")
    }
}

impl std::error::Error for ParseU256Error {}

/// Multi-precision division (Knuth TAOCP vol. 2, Algorithm D) of an
/// `N`-limb dividend (`N` is 4 or 8) by a four-limb divisor, little-endian
/// `u64` limbs, entirely on the stack. Returns `(quotient, remainder)`.
fn div_rem_limbs<const N: usize>(u: &[u64; N], v: &[u64; 4]) -> ([u64; N], [u64; 4]) {
    let n = significant_len(v);
    assert!(n > 0, "division by zero");
    let m = significant_len(u);
    let mut q = [0u64; N];
    let mut r = [0u64; 4];
    if m < n || (m == n && cmp_slices(&u[..m], &v[..n]) == Ordering::Less) {
        // The dividend is below the divisor, so it fits the remainder.
        r[..m].copy_from_slice(&u[..m]);
        return (q, r);
    }
    if n == 1 {
        // Single-limb divisor: simple long division.
        let d = v[0] as u128;
        let mut rem: u128 = 0;
        for i in (0..m).rev() {
            let cur = (rem << 64) | u[i] as u128;
            q[i] = (cur / d) as u64;
            rem = cur % d;
        }
        r[0] = rem as u64;
        return (q, r);
    }

    // Normalize so the divisor's top bit is set; the shifted dividend takes
    // one limb more than the widest (eight-limb) operand.
    let shift = v[n - 1].leading_zeros();
    let mut vn = [0u64; 4];
    for i in (0..n).rev() {
        let mut x = v[i] << shift;
        if shift > 0 && i > 0 {
            x |= v[i - 1] >> (64 - shift);
        }
        vn[i] = x;
    }
    let mut un = [0u64; 9];
    un[m] = if shift > 0 {
        u[m - 1] >> (64 - shift)
    } else {
        0
    };
    for i in (0..m).rev() {
        let mut x = u[i] << shift;
        if shift > 0 && i > 0 {
            x |= u[i - 1] >> (64 - shift);
        }
        un[i] = x;
    }

    let b: u128 = 1 << 64;
    for j in (0..=m - n).rev() {
        // Estimate the quotient digit.
        let top = ((un[j + n] as u128) << 64) | un[j + n - 1] as u128;
        let mut qhat = top / vn[n - 1] as u128;
        let mut rhat = top % vn[n - 1] as u128;
        while qhat >= b || qhat * vn[n - 2] as u128 > (rhat << 64) + un[j + n - 2] as u128 {
            qhat -= 1;
            rhat += vn[n - 1] as u128;
            if rhat >= b {
                break;
            }
        }
        // Multiply and subtract.
        let mut borrow: i128 = 0;
        let mut carry: u128 = 0;
        for i in 0..n {
            let p = qhat * vn[i] as u128 + carry;
            carry = p >> 64;
            let t = un[j + i] as i128 - (p as u64) as i128 - borrow;
            un[j + i] = t as u64;
            borrow = if t < 0 { 1 } else { 0 };
        }
        let t = un[j + n] as i128 - carry as i128 - borrow;
        un[j + n] = t as u64;
        if t < 0 {
            // Rare correction step: add the divisor back.
            qhat -= 1;
            let mut carry: u128 = 0;
            for i in 0..n {
                let s = un[j + i] as u128 + vn[i] as u128 + carry;
                un[j + i] = s as u64;
                carry = s >> 64;
            }
            un[j + n] = un[j + n].wrapping_add(carry as u64);
        }
        q[j] = qhat as u64;
    }

    // Denormalize the remainder.
    for i in 0..n {
        let mut x = un[i] >> shift;
        if shift > 0 {
            x |= un[i + 1] << (64 - shift);
        }
        r[i] = x;
    }
    (q, r)
}

fn significant_len(s: &[u64]) -> usize {
    s.iter().rposition(|&x| x != 0).map_or(0, |p| p + 1)
}

fn cmp_slices(a: &[u64], b: &[u64]) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = U256::from_u128(0xdead_beef_dead_beef_dead_beef);
        let b = U256::from_u64(0x1234_5678);
        assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
    }

    #[test]
    fn overflow_flags() {
        assert!(U256::MAX.overflowing_add(&U256::ONE).1);
        assert!(U256::ZERO.overflowing_sub(&U256::ONE).1);
        assert_eq!(U256::MAX.wrapping_add(&U256::ONE), U256::ZERO);
    }

    #[test]
    fn checked_ops() {
        assert_eq!(U256::ZERO.checked_sub(&U256::ONE), None);
        assert_eq!(U256::ONE.checked_sub(&U256::ONE), Some(U256::ZERO));
    }

    #[test]
    fn mul_matches_u128() {
        let a = U256::from_u64(0xffff_ffff);
        let b = U256::from_u64(0xffff_ffff);
        let expect = 0xffff_ffffu128 * 0xffff_ffffu128;
        assert_eq!(a.wrapping_mul(&b), U256::from_u128(expect));
    }

    #[test]
    fn widening_mul_max() {
        // (2^256 - 1)^2 = 2^512 - 2^257 + 1
        let (lo, hi) = U256::MAX.widening_mul(&U256::MAX);
        assert_eq!(lo, U256::ONE);
        assert_eq!(hi, U256::MAX.wrapping_sub(&U256::ONE));
    }

    #[test]
    fn shifts() {
        let one = U256::ONE;
        assert_eq!(one.shl(255).shr(255), one);
        assert_eq!(one.shl(256), U256::ZERO);
        assert_eq!(one.shl(64), U256::from_limbs([0, 1, 0, 0]));
        assert_eq!(U256::MAX.shr(192), U256::from_u64(u64::MAX));
    }

    #[test]
    fn div_rem_small() {
        let a = U256::from_u64(1000);
        let b = U256::from_u64(7);
        let (q, r) = a.div_rem(&b);
        assert_eq!(q, U256::from_u64(142));
        assert_eq!(r, U256::from_u64(6));
    }

    #[test]
    fn div_rem_large() {
        let a = U256::MAX;
        let b = U256::from_limbs([0, 0, 1, 0]); // 2^128
        let (q, r) = a.div_rem(&b);
        assert_eq!(q, U256::from_limbs([u64::MAX, u64::MAX, 0, 0]));
        assert_eq!(r, U256::from_limbs([u64::MAX, u64::MAX, 0, 0]));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = U256::ONE.div_rem(&U256::ZERO);
    }

    #[test]
    fn mul_mod_basics() {
        let m = U256::from_u64(97);
        let a = U256::from_u64(95);
        let b = U256::from_u64(96);
        // 95*96 mod 97 = (-2)(-1) mod 97 = 2
        assert_eq!(a.mul_mod(&b, &m), U256::from_u64(2));
    }

    #[test]
    fn pow_mod_fermat() {
        // Fermat: a^(p-1) = 1 mod p for prime p not dividing a.
        let p = U256::from_u64(101);
        let a = U256::from_u64(7);
        assert_eq!(a.pow_mod(&U256::from_u64(100), &p), U256::ONE);
    }

    #[test]
    fn pow_mod_large_prime() {
        // secp256k1 field prime.
        let p = U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f")
            .unwrap();
        let a = U256::from_u64(2);
        let pm1 = p.wrapping_sub(&U256::ONE);
        assert_eq!(a.pow_mod(&pm1, &p), U256::ONE);
    }

    #[test]
    fn hex_roundtrip() {
        let a = U256::from_hex("deadbeef00112233").unwrap();
        assert_eq!(format!("{:x}", a), "deadbeef00112233");
        assert_eq!(
            U256::from_hex(&format!("{:x}", U256::MAX)).unwrap(),
            U256::MAX
        );
    }

    #[test]
    fn hex_errors() {
        assert!(U256::from_hex("").is_err());
        assert!(U256::from_hex("xyz").is_err());
        assert!(U256::from_hex(&"f".repeat(65)).is_err());
    }

    #[test]
    fn be_bytes_roundtrip() {
        let a = U256::from_hex("0123456789abcdef0123456789abcdef").unwrap();
        assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn ordering() {
        assert!(U256::ZERO < U256::ONE);
        assert!(
            U256::from_limbs([0, 0, 0, 1]) > U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, 0])
        );
    }

    #[test]
    fn add_mod_wraps() {
        let m = U256::from_u64(10);
        assert_eq!(
            U256::from_u64(7).add_mod(&U256::from_u64(8), &m),
            U256::from_u64(5)
        );
        assert_eq!(
            U256::from_u64(3).sub_mod(&U256::from_u64(8), &m),
            U256::from_u64(5)
        );
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::MAX.bits(), 256);
        let v = U256::ONE.shl(100);
        assert!(v.bit(100));
        assert!(!v.bit(99));
    }

    #[test]
    fn display_formats() {
        let v = U256::from_u64(255);
        assert_eq!(format!("{}", v), "0xff");
        assert_eq!(format!("{:x}", v), "ff");
        assert_eq!(format!("{:X}", v), "FF");
        assert_eq!(format!("{:b}", v), "11111111");
        assert_eq!(format!("{:?}", U256::ZERO), "U256(0x0)");
    }
}
