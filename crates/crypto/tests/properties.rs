//! Property-based tests for the crypto primitives.

use edgechain_crypto::{
    field, leaf_hash, sha256, sha256_fixed64, sha256_many_pair64, sha256_pair64, KeyPair,
    MerkleTree, Sha256, SharedPrefix32, Signature, U256,
};
use proptest::prelude::*;

fn arb_u256() -> impl Strategy<Value = U256> {
    prop::array::uniform4(any::<u64>()).prop_map(U256::from_limbs)
}

/// A nonzero U256 used as modulus/divisor.
fn arb_nonzero_u256() -> impl Strategy<Value = U256> {
    arb_u256().prop_map(|v| if v.is_zero() { U256::ONE } else { v })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
    }

    #[test]
    fn add_associates(a in arb_u256(), b in arb_u256(), c in arb_u256()) {
        prop_assert_eq!(
            a.wrapping_add(&b).wrapping_add(&c),
            a.wrapping_add(&b.wrapping_add(&c))
        );
    }

    #[test]
    fn sub_inverts_add(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
    }

    #[test]
    fn mul_commutes(a in arb_u256(), b in arb_u256()) {
        prop_assert_eq!(a.wrapping_mul(&b), b.wrapping_mul(&a));
        let (lo1, hi1) = a.widening_mul(&b);
        let (lo2, hi2) = b.widening_mul(&a);
        prop_assert_eq!(lo1, lo2);
        prop_assert_eq!(hi1, hi2);
    }

    #[test]
    fn mul_distributes_over_add(a in arb_u256(), b in arb_u256(), c in arb_u256()) {
        prop_assert_eq!(
            a.wrapping_mul(&b.wrapping_add(&c)),
            a.wrapping_mul(&b).wrapping_add(&a.wrapping_mul(&c))
        );
    }

    #[test]
    fn div_rem_reconstructs(a in arb_u256(), d in arb_nonzero_u256()) {
        let (q, r) = a.div_rem(&d);
        prop_assert!(r < d);
        // a == q*d + r (all in 256-bit space; q*d cannot overflow since q <= a/d)
        let (qd_lo, qd_hi) = q.widening_mul(&d);
        prop_assert!(qd_hi.is_zero());
        prop_assert_eq!(qd_lo.wrapping_add(&r), a);
    }

    #[test]
    fn rem_is_idempotent(a in arb_u256(), m in arb_nonzero_u256()) {
        let r = a.rem(&m);
        prop_assert_eq!(r.rem(&m), r);
    }

    #[test]
    fn mul_mod_matches_naive_for_small(a in 0u64..1 << 32, b in 0u64..1 << 32, m in 1u64..1 << 32) {
        let got = U256::from_u64(a).mul_mod(&U256::from_u64(b), &U256::from_u64(m));
        let expect = ((a as u128 * b as u128) % m as u128) as u64;
        prop_assert_eq!(got, U256::from_u64(expect));
    }

    #[test]
    fn mul_mod_is_invariant_under_factor_reduction(a in arb_u256(), b in arb_u256(), m in arb_nonzero_u256()) {
        // The 512-bit dividend path: reducing the factors first changes nothing.
        let r = a.mul_mod(&b, &m);
        prop_assert!(r < m);
        prop_assert_eq!(a.rem(&m).mul_mod(&b.rem(&m), &m), r);
        prop_assert_eq!(b.mul_mod(&a, &m), r);
    }

    #[test]
    fn field_mul_matches_knuth_oracle(a in arb_u256(), b in arb_u256()) {
        // Any operands, reduced or not, come out reduced.
        prop_assert_eq!(field::mul(&a, &b), a.mul_mod(&b, &field::P));
        let (a, b) = (a.rem(&field::P), b.rem(&field::P));
        prop_assert_eq!(field::mul(&a, &b), a.mul_mod(&b, &field::P));
    }

    #[test]
    fn shl_shr_roundtrip(a in arb_u256(), n in 0u32..256) {
        // Mask off the top n bits first so the shift is lossless.
        let masked = a.shl(n).shr(n);
        prop_assert_eq!(masked.shl(n).shr(n), masked);
    }

    #[test]
    fn be_bytes_roundtrip(a in arb_u256()) {
        prop_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
    }

    #[test]
    fn hex_roundtrip(a in arb_u256()) {
        let s = format!("{:x}", a);
        prop_assert_eq!(U256::from_hex(&s).unwrap(), a);
    }

    #[test]
    fn sha_incremental_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..512), split in any::<prop::sample::Index>()) {
        let at = if data.is_empty() { 0 } else { split.index(data.len()) };
        let mut h = Sha256::new();
        h.update(&data[..at]);
        h.update(&data[at..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn sha_distinct_inputs_distinct_digests(a in prop::collection::vec(any::<u8>(), 0..64), b in prop::collection::vec(any::<u8>(), 0..64)) {
        if a != b {
            prop_assert_ne!(sha256(&a), sha256(&b));
        }
    }

    #[test]
    fn sha_fixed64_matches_oneshot(bytes in prop::collection::vec(any::<u8>(), 64usize)) {
        let full: [u8; 64] = bytes.as_slice().try_into().unwrap();
        let a: [u8; 32] = full[..32].try_into().unwrap();
        let b: [u8; 32] = full[32..].try_into().unwrap();
        prop_assert_eq!(sha256_fixed64(&full), sha256(full));
        prop_assert_eq!(sha256_pair64(&a, &b), sha256(full));
        prop_assert_eq!(SharedPrefix32::new(&a).pair(&b), sha256(full));
    }

    #[test]
    fn sha_many_pair64_matches_pair64(
        prefix in prop::collection::vec(any::<u8>(), 32usize),
        suffixes in prop::collection::vec(prop::collection::vec(any::<u8>(), 32usize), 0..40),
    ) {
        let prefix: [u8; 32] = prefix.as_slice().try_into().unwrap();
        let suffixes: Vec<[u8; 32]> = suffixes
            .iter()
            .map(|s| s.as_slice().try_into().unwrap())
            .collect();
        let batch = sha256_many_pair64(&prefix, &suffixes);
        prop_assert_eq!(batch.len(), suffixes.len());
        for (digest, suffix) in batch.iter().zip(&suffixes) {
            prop_assert_eq!(*digest, sha256_pair64(&prefix, suffix));
        }
    }

    #[test]
    fn merkle_leaf_hash_identity(leaves in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 0..24)) {
        let direct = MerkleTree::from_leaves(&leaves);
        let prehashed = MerkleTree::from_leaf_hashes(
            leaves.iter().map(|l| leaf_hash(l)).collect()
        );
        prop_assert_eq!(direct.root(), prehashed.root());
    }

    #[test]
    fn merkle_proofs_verify(leaves in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..16), 1..24), pick in any::<prop::sample::Index>()) {
        let tree = MerkleTree::from_leaves(&leaves);
        let i = pick.index(leaves.len());
        let proof = tree.proof(i).unwrap();
        prop_assert!(proof.verify(&leaves[i], &tree.root()));
    }

    #[test]
    fn merkle_root_is_injective_on_leaf_edits(
        leaves in prop::collection::vec(prop::collection::vec(any::<u8>(), 1..8), 2..12),
        pick in any::<prop::sample::Index>()
    ) {
        let i = pick.index(leaves.len());
        let mut edited = leaves.clone();
        edited[i].push(0xAB);
        let t1 = MerkleTree::from_leaves(&leaves);
        let t2 = MerkleTree::from_leaves(&edited);
        prop_assert_ne!(t1.root(), t2.root());
    }
}

proptest! {
    // The oracle is square-and-multiply over Knuth division, ~100 µs a power.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn field_pow_matches_knuth_oracle(base in arb_u256(), exp in arb_u256()) {
        prop_assert_eq!(field::pow(&base, &exp), base.pow_mod(&exp, &field::P));
    }

    #[test]
    fn fixed_base_pow_matches_knuth_oracle(exp in arb_u256()) {
        let expect = field::G.pow_mod(&exp, &field::P);
        prop_assert_eq!(field::pow_g(&exp), expect);
        prop_assert_eq!(field::pow(&field::G, &exp), expect);
    }

    #[test]
    fn sparse_exponents_match_knuth_oracle(base in arb_u256(), bit in 0u32..256, low in any::<u64>()) {
        // Mostly-zero digits: the table and the window skip them.
        let exp = U256::ONE.shl(bit).wrapping_add(&U256::from_u64(low & 0xf0f));
        prop_assert_eq!(field::pow(&base, &exp), base.pow_mod(&exp, &field::P));
        prop_assert_eq!(field::pow_g(&exp), field::G.pow_mod(&exp, &field::P));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn signatures_verify_and_bind(seed in any::<u64>(), msg in prop::collection::vec(any::<u8>(), 0..64), flip in any::<prop::sample::Index>()) {
        let kp = KeyPair::from_seed(seed);
        let sig = kp.sign(&msg);
        prop_assert!(kp.public_key().verify(&msg, &sig));
        let mut other = msg.clone();
        other.push(1);
        prop_assert!(!kp.public_key().verify(&other, &sig));
        // One flipped signature bit, and another seed's key, are rejected.
        let mut bytes = sig.to_bytes();
        let at = flip.index(bytes.len() * 8);
        bytes[at / 8] ^= 1 << (at % 8);
        prop_assert!(!kp.public_key().verify(&msg, &Signature::from_bytes(&bytes)));
        let stranger = KeyPair::from_seed(seed.wrapping_add(1)).public_key();
        prop_assert!(!stranger.verify(&msg, &sig));
    }
}

/// The operands the reduction has to get right at its edges: `0`, `1`,
/// `p − 1`, the unreduced `p` and `2^256 − 1`, and values with all-ones high
/// limbs, whose products drive the second fold to carry out of `2^256`
/// (`field.rs`'s own tests observe the carry, also for a reduced pair).
fn edge_operands() -> Vec<U256> {
    let p_minus_1 = field::P.wrapping_sub(&U256::ONE);
    vec![
        U256::ZERO,
        U256::ONE,
        U256::from_u64(2),
        field::G,
        p_minus_1,
        field::P,
        U256::MAX,
        U256::ONE.shl(255),
        U256::from_limbs([0, u64::MAX, u64::MAX, u64::MAX]),
        U256::from_limbs([1, 0, u64::MAX, u64::MAX]),
        U256::from_limbs([u64::MAX, 0, 0, u64::MAX]),
    ]
}

#[test]
fn field_mul_edge_operands() {
    let ops = edge_operands();
    for a in &ops {
        for b in &ops {
            assert_eq!(field::mul(a, b), a.mul_mod(b, &field::P), "{a} · {b}");
        }
    }
    let p_minus_1 = field::P.wrapping_sub(&U256::ONE);
    assert_eq!(field::mul(&p_minus_1, &p_minus_1), U256::ONE);
    assert_eq!(field::mul(&field::P, &U256::MAX), U256::ZERO);
}

#[test]
fn field_pow_edge_operands() {
    let p_minus_1 = field::P.wrapping_sub(&U256::ONE);
    let exps = [
        U256::ZERO,
        U256::ONE,
        field::P.wrapping_sub(&U256::from_u64(2)),
        p_minus_1,
        U256::MAX,
    ];
    for exp in &exps {
        for base in &edge_operands() {
            assert_eq!(
                field::pow(base, exp),
                base.pow_mod(exp, &field::P),
                "{base} ^ {exp}"
            );
        }
        assert_eq!(field::pow_g(exp), field::G.pow_mod(exp, &field::P));
    }
    // Fermat through the table and through the window; p − 2 inverts.
    assert_eq!(field::pow_g(&p_minus_1), U256::ONE);
    assert_eq!(field::pow(&U256::from_u64(2), &p_minus_1), U256::ONE);
    assert_eq!(field::pow_g(&U256::ZERO), U256::ONE);
    assert_eq!(field::pow_g(&U256::ONE), field::G);
    assert_eq!(field::mul(&field::pow_g(&exps[2]), &field::G), U256::ONE);
    assert_eq!(field::pow(&U256::ZERO, &U256::ZERO), U256::ONE);
    assert_eq!(field::pow(&U256::ZERO, &p_minus_1), U256::ZERO);
}
