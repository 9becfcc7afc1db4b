//! Arithmetic in the secp256k1 base field, the group `Z_p^*` the signature
//! scheme in [`crate::sig`] works in.
//!
//! The modulus is always the one pseudo-Mersenne prime
//! `p = 2^256 − 2^32 − 977`, so reduction needs no division: with
//! `c = 2^32 + 977`, `2^256 ≡ c (mod p)` and the high half of a 512-bit
//! product folds into the low half as `lo + hi·c`.
//!
//! * [`mul`] — 4×4-limb schoolbook product, two folds, one conditional
//!   subtract; stack only.
//! * [`pow_g`] — powers of the generator [`G`] from a fixed-base table
//!   built once per process: at most 64 multiplications, no squarings.
//! * [`pow`] — 4-bit fixed-window exponentiation for any other base.
//!
//! Like the rest of the crate this is simulation-grade: every function
//! branches on its operands and indexes tables by exponent digits, so
//! nothing here is constant-time.
//!
//! # Examples
//!
//! ```
//! use edgechain_crypto::{field, U256};
//!
//! // Fermat: g^(p−1) = 1.
//! let p_minus_1 = field::P.wrapping_sub(&U256::ONE);
//! assert_eq!(field::pow_g(&p_minus_1), U256::ONE);
//! assert_eq!(field::pow(&field::G, &U256::from_u64(2)), U256::from_u64(49));
//! ```

use crate::u256::U256;
use std::sync::OnceLock;

/// The field prime `p = 2^256 − 2^32 − 977`.
pub const P: U256 = U256::from_limbs([0xffff_fffe_ffff_fc2f, u64::MAX, u64::MAX, u64::MAX]);

/// The group generator [`pow_g`]'s table is built for (a small element of
/// `Z_p^*`).
pub const G: U256 = U256::from_u64(7);

/// `2^256 mod p`: what one unit of the high half is worth in the low half.
const C: u64 = (1 << 32) + 977;

/// `(a · b) mod p`. The result is fully reduced for *any* operands, reduced
/// or not.
pub fn mul(a: &U256, b: &U256) -> U256 {
    let (lo, hi) = a.widening_mul(b);
    // Why two folds and one subtract suffice: `hi < 2^256` and `c < 2^33`
    // put the first fold below `2^289 + 2^256`, so its overflow limb is at
    // most `2^33`; folding that limb adds less than `2^66`, so the second
    // fold is below `2^256 + 2^66`. Either it stayed below `2^256`, where it
    // exceeds `p` by less than `c < p`; or it carried out, where the true
    // value `2^256 + r` with `r < 2^66` is `≡ r + c < p`. Subtracting `p`
    // mod `2^256` (which adds `c`) finishes both cases.
    let (t, top) = fold(lo.limbs(), hi.limbs());
    let (t, carry) = fold(t, [top, 0, 0, 0]);
    let t = U256::from_limbs(t);
    if carry != 0 || t >= P {
        t.wrapping_sub(&P)
    } else {
        t
    }
}

/// `lo + hi·c` as its low four limbs and the overflow above `2^256`.
#[inline]
fn fold(lo: [u64; 4], hi: [u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut carry: u128 = 0;
    for i in 0..4 {
        let cur = lo[i] as u128 + (hi[i] as u128) * (C as u128) + carry;
        out[i] = cur as u64;
        carry = cur >> 64;
    }
    (out, carry as u64)
}

/// The `w`-th base-16 digit of `exp`, least significant first.
#[inline]
fn digit(exp: &U256, w: usize) -> usize {
    ((exp.limbs()[w / 16] >> (4 * (w % 16))) & 0xf) as usize
}

/// Base-16 digits in a 256-bit exponent.
const DIGITS: usize = 64;

/// `table[w][d] = g^(d · 16^w) mod p`: 64 × 16 entries of 32 bytes, 32 KiB
/// on the heap, built on first use with 1,024 multiplications.
fn generator_table() -> &'static [[U256; 16]] {
    static TABLE: OnceLock<Vec<[U256; 16]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = vec![[U256::ONE; 16]; DIGITS];
        let mut base = G; // g^(16^w)
        for row in &mut table {
            for d in 1..16 {
                row[d] = mul(&row[d - 1], &base);
            }
            base = mul(&row[15], &base);
        }
        table
    })
}

/// `g^exp mod p` for the generator [`G`], for any 256-bit exponent: one
/// table entry per non-zero base-16 digit of `exp`, multiplied together.
pub fn pow_g(exp: &U256) -> U256 {
    let mut acc = U256::ONE;
    for (w, row) in generator_table().iter().enumerate() {
        let d = digit(exp, w);
        if d != 0 {
            acc = mul(&acc, &row[d]);
        }
    }
    acc
}

/// `base^exp mod p` by 4-bit fixed windows, most significant digit first.
/// `base` need not be reduced; `pow(_, 0)` is `1`.
pub fn pow(base: &U256, exp: &U256) -> U256 {
    let mut powers = [U256::ONE; 16];
    for d in 1..16 {
        powers[d] = mul(&powers[d - 1], base);
    }
    let mut acc = U256::ONE;
    for w in (0..(exp.bits() as usize).div_ceil(4)).rev() {
        for _ in 0..4 {
            acc = mul(&acc, &acc);
        }
        let d = digit(exp, w);
        if d != 0 {
            acc = mul(&acc, &powers[d]);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_matches_its_hex_and_its_formula() {
        let hex = "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f";
        assert_eq!(P, U256::from_hex(hex).unwrap());
        // p + c = 2^256.
        assert_eq!(P.overflowing_add(&U256::from_u64(C)), (U256::ZERO, true));
    }

    #[test]
    fn second_fold_carry_is_reached_and_reduced() {
        // a·b = x·2^256 with x = ⌊2^257 / c⌋, so x·c is within c below
        // 2·2^256: the first fold leaves an overflow limb of 1 over a low
        // half within c of 2^256, and the second fold carries out.
        let (q, r) = U256::MAX.div_rem(&U256::from_u64(C));
        let x = q
            .shl(1)
            .wrapping_add(&U256::from_u64((2 * r.low_u64() + 2) / C));
        let (a, b) = (U256::ONE.shl(255), x.shl(1));
        assert!(a < P && b < P);
        let (lo, hi) = a.widening_mul(&b);
        assert_eq!((lo, hi), (U256::ZERO, x));
        let (t, top) = fold(lo.limbs(), hi.limbs());
        assert_eq!(top, 1);
        assert_eq!(fold(t, [top, 0, 0, 0]).1, 1, "second fold carries");
        assert_eq!(mul(&a, &b), a.mul_mod(&b, &P));
        // Unreduced all-ones operands carry too, and still come out reduced.
        assert_eq!(
            mul(&U256::MAX, &U256::MAX),
            U256::MAX.mul_mod(&U256::MAX, &P)
        );
    }

    #[test]
    fn conditional_subtract_without_carry() {
        // (p−1)² folds to 2^256 − c + 1 = p + 1: no carry, one subtract.
        let m = P.wrapping_sub(&U256::ONE);
        assert_eq!(mul(&m, &m), U256::ONE);
    }

    #[test]
    fn table_rows_are_powers_of_the_generator() {
        let table = generator_table();
        assert_eq!(table.len(), DIGITS);
        assert_eq!(std::mem::size_of_val(table), 32 * 1024);
        for (w, row) in table.iter().enumerate().step_by(21) {
            for (d, entry) in row.iter().enumerate() {
                let exp = U256::from_u64(d as u64).shl(4 * w as u32);
                assert_eq!(*entry, G.pow_mod(&exp, &P), "table[{w}][{d}]");
            }
        }
    }

    #[test]
    fn powers_match_the_generic_oracle() {
        let e = U256::from_hex("deadbeef0123456789abcdef00000000000000000000000fedcba9876543210f")
            .unwrap();
        let y = pow_g(&e);
        assert_eq!(y, G.pow_mod(&e, &P));
        assert_eq!(pow(&G, &e), y);
        assert_eq!(pow(&y, &e), y.pow_mod(&e, &P));
    }
}
