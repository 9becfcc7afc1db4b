//! The contribution-weighted Proof-of-Stake mechanism (paper §V).
//!
//! Per block, every node `i` derives a **hit**
//! `h_i = Hash(POSHash_prev ‖ Account_i) mod M` — a per-node uniform random
//! value that everyone can recompute and verify — and a **target**
//! `R_i(t) = S_i · Q_i · t · B` that grows each second. The node whose
//! target first reaches its hit mines the block. Nodes with more tokens
//! (`S_i`) and more stored items (`Q_i`) therefore mine sooner on average.
//!
//! The **amendment** `B` keeps the expected inter-block time at `t0`:
//! `B = M / ((n+1) · t0 · Ū)` with `Ū` the mean of `U_i = S_i·Q_i`
//! (Eq. 14). With homogeneous `U_i`, the winning delay is
//! `min_i h_i · (n+1) · t0 / M`, and since the minimum of `n` uniforms on
//! `(0, M)` has mean `M/(n+1)`, the expected block interval is exactly
//! `t0`. (The paper's intermediate Eq. 13 states `E(Z) = M/(n(n+1))`; the
//! correct value is `M/(n+1)`, and it is the latter that makes the paper's
//! own final formula Eq. 14 come out right — we verify this statistically
//! in the tests.)
//!
//! All arithmetic is exact: `B` is a reduced `u128` rational, `M = 2^64`,
//! and hits are the top 64 bits of a SHA-256, so the mining inequality
//! `h ≤ U·t·B` never suffers floating-point drift and every node verifies
//! the same winner.

use crate::account::AccountId;
use edgechain_crypto::{sha256_many_pair64, sha256_pair64, Digest};
use edgechain_telemetry as telemetry;
use std::collections::HashMap;
use std::fmt;

/// The hit modulus `M = 2^64`: hits are uniform on `[0, 2^64)`.
pub const HIT_MODULUS: u128 = 1 << 64;

/// Maximum mining delay we will report, a guard against absurd parameters
/// (one simulated week).
pub const MAX_DELAY_SECS: u64 = 7 * 24 * 3600;

/// Chains the PoS hash: `POSHash(t+1, i) = Hash(POSHash(t) ‖ Account_i)`
/// (paper Eq. 7). Two 32-byte inputs make exactly one 64-byte message, so
/// this takes the fixed-shape SHA-256 fast path (padding schedule
/// precomputed at compile time); the streaming reference below pins
/// bit-identity.
pub fn next_pos_hash(prev: &Digest, account: &AccountId) -> Digest {
    sha256_pair64(prev.as_bytes(), account.as_bytes())
}

/// Checks a block's claimed PoS hash against the Eq. 7 chaining rule:
/// `claimed` must equal `Hash(prev_pos ‖ miner)`. A forged block — one
/// whose miner never earned the hit — fails this because the chained hash
/// is a pure function of public inputs it cannot choose.
pub fn verify_pos_linkage(prev_pos: &Digest, miner: &AccountId, claimed: &Digest) -> bool {
    next_pos_hash(prev_pos, miner) == *claimed
}

/// The generic streaming hasher: [`run_round`]'s reference hasher, so the
/// round that `cached_round_is_bit_identical_to_reference` compares
/// [`run_round_cached`] against shares no hashing code with it.
/// Bit-identical to [`next_pos_hash`] (pinned by
/// `next_pos_hash_matches_streaming_reference`).
fn next_pos_hash_streaming(prev: &Digest, account: &AccountId) -> Digest {
    edgechain_crypto::sha256_pair(prev.as_bytes(), account.as_bytes())
}

/// A node's hit for the current round: `POSHash(t+1, i) mod M`, taken as
/// the leading 64 bits of the chained hash.
pub fn hit(prev_pos_hash: &Digest, account: &AccountId) -> u64 {
    next_pos_hash(prev_pos_hash, account).to_u64()
}

/// The expectation-time amendment `B`, kept as an exact reduced rational.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Amendment {
    num: u128,
    den: u128,
}

impl Amendment {
    /// Computes `B = M / ((n+1) · t0 · Ū)` from the per-node contribution
    /// values `U_i = S_i · Q_i` (Eq. 14, at equality).
    ///
    /// Zero contributions are clamped to 1, matching the paper's rule that
    /// every node holds at least one token and stores at least the last
    /// block.
    ///
    /// # Panics
    ///
    /// Panics if `us` is empty or `t0_secs` is zero.
    pub fn compute(us: &[u64], t0_secs: u64) -> Self {
        assert!(!us.is_empty(), "need at least one node");
        assert!(t0_secs > 0, "expected block time must be positive");
        let n = us.len() as u128;
        let sum_u: u128 = us.iter().map(|&u| u.max(1) as u128).sum();
        // Ū = sum_u / n ⇒ B = M·n / ((n+1)·t0·sum_u).
        let num = HIT_MODULUS * n;
        let den = (n + 1) * t0_secs as u128 * sum_u;
        Self::reduced(num, den)
    }

    /// Builds an amendment from an explicit fraction (used by tests and the
    /// ablation benches).
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn from_fraction(num: u128, den: u128) -> Self {
        assert!(den != 0, "denominator must be nonzero");
        Self::reduced(num, den)
    }

    fn reduced(num: u128, den: u128) -> Self {
        let g = gcd(num.max(1), den);
        Amendment {
            num: num / g,
            den: den / g,
        }
    }

    /// Numerator of the reduced fraction.
    pub fn numerator(&self) -> u128 {
        self.num
    }

    /// Denominator of the reduced fraction.
    pub fn denominator(&self) -> u128 {
        self.den
    }

    /// `B` as a float, for reporting only.
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The target value `R_i = U_i · t · B`, rounded down (saturating).
    pub fn target(&self, u_i: u64, t_secs: u64) -> u128 {
        let lhs = (u_i as u128)
            .checked_mul(t_secs as u128)
            .and_then(|x| x.checked_mul(self.num));
        match lhs {
            Some(v) => v / self.den,
            None => u128::MAX,
        }
    }

    /// Whether node with contribution `u_i` may mine at `t_secs` after the
    /// previous block: the paper's condition `h_i ≤ R_i` (Eq. 9).
    pub fn meets_target(&self, hit: u64, u_i: u64, t_secs: u64) -> bool {
        self.target(u_i, t_secs) >= hit as u128
    }

    /// The first whole second at which `h ≤ U·t·B` holds:
    /// `t = max(1, ⌈h·den / (U·num)⌉)`, capped at [`MAX_DELAY_SECS`].
    ///
    /// This closed form is exactly the paper's once-per-second loop
    /// (§V-C) fast-forwarded; [`Amendment::meets_target`] at the returned
    /// time always holds, and never at `t − 1`.
    pub fn mining_delay_secs(&self, hit: u64, u_i: u64) -> u64 {
        let u = u_i.max(1) as u128;
        let denom = u.saturating_mul(self.num);
        if denom == 0 {
            return MAX_DELAY_SECS;
        }
        let numer = (hit as u128).saturating_mul(self.den);
        let t = numer.div_ceil(denom);
        (t.max(1)).min(MAX_DELAY_SECS as u128) as u64
    }

    /// [`Amendment::mining_delay_secs`] without the 128-bit division: a
    /// floating-point estimate of the quotient, fixed up to the exact
    /// ceiling by at most a handful of 128-bit multiplications. Division
    /// by a non-constant `u128` costs an order of magnitude more than
    /// multiplication, and the cached PoS round pays it once per
    /// candidate. Bit-identical to the exact form (pinned by
    /// `fast_delay_matches_exact`).
    pub fn mining_delay_secs_fast(&self, hit: u64, u_i: u64) -> u64 {
        let u = u_i.max(1) as u128;
        let denom = u.saturating_mul(self.num);
        if denom == 0 {
            return MAX_DELAY_SECS;
        }
        let numer = (hit as u128).saturating_mul(self.den);
        // The estimate's relative error is ~2⁻⁵², so anything safely past
        // the delay cap is the cap — no exact quotient needed.
        let est = (numer as f64 / denom as f64) as u128;
        if est > 2 * MAX_DELAY_SECS as u128 {
            return MAX_DELAY_SECS;
        }
        // est is within ±2 of the true floor here; start just below and
        // walk up to the least t with t·denom ≥ numer (the ceiling). A
        // saturated product is a true "≥ numer" (the real value is even
        // larger), so saturating_mul keeps the comparison exact.
        let mut t = est.saturating_sub(2);
        while t.saturating_mul(denom) < numer {
            t += 1;
        }
        (t.max(1)).min(MAX_DELAY_SECS as u128) as u64
    }
}

impl fmt::Display for Amendment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B={}/{} (≈{:.3e})", self.num, self.den, self.as_f64())
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Outcome of one mining round: who mines, when, and with what credentials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiningOutcome {
    /// Index (into the candidates slice) of the winner.
    pub winner: usize,
    /// Seconds after the previous block at which the winner's condition
    /// first holds.
    pub delay_secs: u64,
    /// The winner's hit.
    pub hit: u64,
    /// The new `POSHash` to embed in the block.
    pub new_pos_hash: Digest,
}

/// One mining candidate: account plus contribution `U_i = S_i · Q_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The node's account.
    pub account: AccountId,
    /// `S_i` — token balance.
    pub tokens: u64,
    /// `Q_i` — number of stored data items/blocks (≥ 1 per the paper).
    pub stored_items: u64,
}

impl Candidate {
    /// The contribution `U_i = S_i · Q_i` (both floored at 1, saturating).
    pub fn contribution(&self) -> u64 {
        self.tokens.max(1).saturating_mul(self.stored_items.max(1))
    }
}

/// Runs one full PoS round: computes `B` from the candidates, each node's
/// hit and earliest mining time, and returns the winner (ties broken by
/// smaller hit, then lower index — every node applies the same rule, so the
/// round is deterministic network-wide).
///
/// # Panics
///
/// Panics if `candidates` is empty or `t0_secs` is zero.
pub fn run_round(prev_pos_hash: &Digest, candidates: &[Candidate], t0_secs: u64) -> MiningOutcome {
    assert!(!candidates.is_empty(), "need at least one candidate");
    telemetry::counter_add("pos.rounds", 1);
    let outcome = telemetry::time_wall("pos.round_ns", || {
        let us: Vec<u64> = candidates.iter().map(|c| c.contribution()).collect();
        let b = Amendment::compute(&us, t0_secs);
        let mut best: Option<(u64, u64, usize)> = None; // (delay, hit, idx)
        for (idx, c) in candidates.iter().enumerate() {
            let h = next_pos_hash_streaming(prev_pos_hash, &c.account).to_u64();
            let delay = b.mining_delay_secs(h, us[idx]);
            let key = (delay, h, idx);
            if best.is_none_or(|cur| key < cur) {
                best = Some(key);
            }
        }
        let (delay_secs, winner_hit, winner) = best.expect("nonempty candidates");
        MiningOutcome {
            winner,
            delay_secs,
            hit: winner_hit,
            new_pos_hash: next_pos_hash_streaming(prev_pos_hash, &candidates[winner].account),
        }
    });
    if telemetry::is_enabled() {
        telemetry::record("pos.delay_secs", outcome.delay_secs as f64);
        telemetry::record("pos.hits_per_round", candidates.len() as f64);
    }
    outcome
}

/// Memoized PoS hits for one chain height, keyed by `POSHash_prev`.
///
/// A hit depends only on `(POSHash_prev, Account_i)` — not on tokens,
/// stored items, or time — and the network runs **two** rounds per block
/// against the same previous hash (one to schedule the mining event, one
/// to elect the winner when it fires; more under churn-driven reruns). The
/// table computes each candidate's chained digest once per height and
/// replays it for every later round; a round against a *different*
/// previous hash (a new block arrived) invalidates everything.
///
/// Purely deterministic: no RNG is consulted, and [`run_round_cached`]
/// returns bit-identical [`MiningOutcome`]s to [`run_round`] (pinned by
/// tests). Cache traffic lands on the `pos.hit_cache_hit` /
/// `pos.hit_cache_miss` counters.
#[derive(Debug, Clone, Default)]
pub struct HitTable {
    prev: Option<Digest>,
    digests: HashMap<AccountId, Digest, DigestKeyState>,
    /// The candidate account list served by the most recent call at this
    /// height, with its digests: the mine-round almost always repeats the
    /// schedule-round's list verbatim, which short-circuits to one vector
    /// comparison instead of per-account map lookups.
    last_accounts: Vec<AccountId>,
    last_digests: Vec<Digest>,
    /// The full outcome of the most recent cached round. A round is a pure
    /// function of `(POSHash_prev, candidates, t0)`, so when the mine-round
    /// repeats the schedule-round's inputs exactly (the common case — churn
    /// between the two only happens on crashes or expiry sweeps) the whole
    /// selection replays from here: no hashing *and* no target arithmetic.
    /// An empty candidate list marks the memo invalid (rounds are never
    /// empty), which lets invalidation keep the allocations.
    last_round: Option<LastRound>,
    /// Reused suffix buffer for the cold-height shared-prefix batch hash.
    scratch_suffixes: Vec<[u8; 32]>,
    /// Reused contribution buffer for the selection loop.
    scratch_us: Vec<u64>,
}

/// Memoized inputs → outcome of one full cached round.
#[derive(Debug, Clone)]
struct LastRound {
    candidates: Vec<Candidate>,
    t0_secs: u64,
    outcome: MiningOutcome,
}

/// Accounts are SHA-256 outputs — already uniformly distributed — so the
/// hit table's map keys on their first eight bytes directly instead of
/// paying SipHash per probe. Iteration order is never consulted, keeping
/// runs deterministic.
#[derive(Debug, Clone, Copy, Default)]
struct DigestKeyState;

#[derive(Debug, Clone, Copy, Default)]
struct DigestKeyHasher(u64);

impl std::hash::Hasher for DigestKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut buf = [0u8; 8];
        let n = bytes.len().min(8);
        buf[..n].copy_from_slice(&bytes[..n]);
        self.0 ^= u64::from_le_bytes(buf);
    }
}

impl std::hash::BuildHasher for DigestKeyState {
    type Hasher = DigestKeyHasher;

    fn build_hasher(&self) -> DigestKeyHasher {
        DigestKeyHasher(0)
    }
}

impl HitTable {
    /// An empty table (no height keyed yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of accounts whose digest is cached for the current height.
    /// (On a cold height the digests live only in the last-round vectors;
    /// the map is materialized lazily on the first partial-overlap round.)
    pub fn len(&self) -> usize {
        self.digests.len().max(self.last_accounts.len())
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.digests.is_empty() && self.last_accounts.is_empty()
    }

    /// Drops every cached digest (e.g. after adopting a foreign chain).
    pub fn invalidate(&mut self) {
        self.prev = None;
        self.digests.clear();
        self.last_accounts.clear();
        self.last_digests.clear();
        if let Some(last) = &mut self.last_round {
            last.candidates.clear();
        }
    }

    /// Keys the table to `prev`, dropping stale entries, then leaves the
    /// chained digest per candidate (in candidate order) in
    /// `last_digests`, computing the missing ones with the shared-prefix
    /// batch hash. Callers borrow the slice afterwards — no per-round
    /// digest vector is allocated or cloned.
    fn prepare(&mut self, prev: &Digest, candidates: &[Candidate]) {
        if self.prev != Some(*prev) {
            self.prev = Some(*prev);
            self.digests.clear();
            self.last_accounts.clear();
            self.last_digests.clear();
            if let Some(last) = &mut self.last_round {
                last.candidates.clear();
            }
        }
        // Verbatim repeat of the last round's candidate list (the common
        // mine-after-schedule case): one vector comparison, zero hashing.
        if self.last_accounts.len() == candidates.len()
            && candidates
                .iter()
                .zip(&self.last_accounts)
                .all(|(c, a)| c.account == *a)
        {
            telemetry::counter_add("pos.hit_cache_hit", candidates.len() as u64);
            return;
        }
        // Cold height: batch-hash the whole list straight into the
        // last-round vectors and skip the map — it only materializes when
        // a later round at this height overlaps partially (churn).
        if self.digests.is_empty() && self.last_accounts.is_empty() {
            self.scratch_suffixes.clear();
            self.scratch_suffixes
                .extend(candidates.iter().map(|c| *c.account.as_bytes()));
            telemetry::counter_add("pos.hit_cache_miss", candidates.len() as u64);
            self.last_accounts
                .extend(candidates.iter().map(|c| c.account));
            self.last_digests = sha256_many_pair64(prev.as_bytes(), &self.scratch_suffixes);
            return;
        }
        // Partially overlapping list: fold the cold round's vectors into
        // the map first so its digests still count as cached.
        for (a, d) in self.last_accounts.iter().zip(&self.last_digests) {
            self.digests.entry(*a).or_insert(*d);
        }
        let missing: Vec<usize> = (0..candidates.len())
            .filter(|&i| !self.digests.contains_key(&candidates[i].account))
            .collect();
        if !missing.is_empty() {
            let suffixes: Vec<[u8; 32]> = missing
                .iter()
                .map(|&i| *candidates[i].account.as_bytes())
                .collect();
            for (&i, digest) in missing
                .iter()
                .zip(sha256_many_pair64(prev.as_bytes(), &suffixes))
            {
                self.digests.insert(candidates[i].account, digest);
            }
        }
        telemetry::counter_add(
            "pos.hit_cache_hit",
            (candidates.len() - missing.len()) as u64,
        );
        telemetry::counter_add("pos.hit_cache_miss", missing.len() as u64);
        self.last_accounts.clear();
        self.last_accounts
            .extend(candidates.iter().map(|c| c.account));
        let map = &self.digests;
        self.last_digests.clear();
        self.last_digests
            .extend(candidates.iter().map(|c| map[&c.account]));
    }
}

/// [`run_round`] through the [`HitTable`]: bit-identical outcome, but each
/// candidate's chained hash is computed at most once per chain height
/// instead of once per round, and cold heights hash in one batch.
///
/// # Panics
///
/// Panics if `candidates` is empty or `t0_secs` is zero.
pub fn run_round_cached(
    prev_pos_hash: &Digest,
    candidates: &[Candidate],
    t0_secs: u64,
    table: &mut HitTable,
) -> MiningOutcome {
    assert!(!candidates.is_empty(), "need at least one candidate");
    telemetry::counter_add("pos.rounds", 1);
    let outcome = telemetry::time_wall("pos.round_ns", || {
        // The round is a pure function of its inputs: an exact repeat of
        // the previous cached round (same prev hash, candidates, and t0)
        // replays the memoized outcome wholesale.
        if table.prev == Some(*prev_pos_hash) {
            if let Some(last) = &table.last_round {
                if last.t0_secs == t0_secs && last.candidates == candidates {
                    telemetry::counter_add("pos.hit_cache_hit", candidates.len() as u64);
                    return last.outcome.clone();
                }
            }
        }
        table.prepare(prev_pos_hash, candidates);
        table.scratch_us.clear();
        table
            .scratch_us
            .extend(candidates.iter().map(|c| c.contribution()));
        let b = Amendment::compute(&table.scratch_us, t0_secs);
        let mut best: Option<(u64, u64, usize)> = None; // (delay, hit, idx)
        for (idx, digest) in table.last_digests.iter().enumerate() {
            let h = digest.to_u64();
            let delay = b.mining_delay_secs_fast(h, table.scratch_us[idx]);
            let key = (delay, h, idx);
            if best.is_none_or(|cur| key < cur) {
                best = Some(key);
            }
        }
        let (delay_secs, winner_hit, winner) = best.expect("nonempty candidates");
        let outcome = MiningOutcome {
            winner,
            delay_secs,
            hit: winner_hit,
            new_pos_hash: table.last_digests[winner],
        };
        match &mut table.last_round {
            Some(last) => {
                last.candidates.clear();
                last.candidates.extend_from_slice(candidates);
                last.t0_secs = t0_secs;
                last.outcome = outcome.clone();
            }
            None => {
                table.last_round = Some(LastRound {
                    candidates: candidates.to_vec(),
                    t0_secs,
                    outcome: outcome.clone(),
                });
            }
        }
        outcome
    });
    if telemetry::is_enabled() {
        telemetry::record("pos.delay_secs", outcome.delay_secs as f64);
        telemetry::record("pos.hits_per_round", candidates.len() as f64);
    }
    outcome
}

/// Verifies a claimed mining result, as every receiving node does before
/// accepting a block: recomputes the hit from public information and checks
/// the target condition at the claimed time (and that it does **not** hold
/// a second earlier, i.e. the miner did not wait artificially long to
/// inflate its target — the paper's "first to meet this inequality" rule).
pub fn verify_claim(
    prev_pos_hash: &Digest,
    claimed: &Candidate,
    all_us: &[u64],
    t0_secs: u64,
    claimed_delay_secs: u64,
) -> bool {
    if claimed_delay_secs == 0 {
        return false;
    }
    let b = Amendment::compute(all_us, t0_secs);
    let h = hit(prev_pos_hash, &claimed.account);
    let u = claimed.contribution();
    if !b.meets_target(h, u, claimed_delay_secs) {
        return false;
    }
    // Minimality: the condition must not already hold one second earlier.
    claimed_delay_secs == 1 || !b.meets_target(h, u, claimed_delay_secs - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgechain_crypto::sha256;

    fn account(seed: u64) -> AccountId {
        crate::account::Identity::from_seed(seed).account()
    }

    #[test]
    fn hits_are_deterministic_and_distinct() {
        let prev = sha256(b"genesis");
        let a = account(1);
        let b = account(2);
        assert_eq!(hit(&prev, &a), hit(&prev, &a));
        assert_ne!(hit(&prev, &a), hit(&prev, &b));
        // A different previous hash reshuffles hits.
        let prev2 = sha256(b"other");
        assert_ne!(hit(&prev, &a), hit(&prev2, &a));
    }

    #[test]
    fn amendment_reduces_fraction() {
        let b = Amendment::from_fraction(10, 4);
        assert_eq!(b.numerator(), 5);
        assert_eq!(b.denominator(), 2);
        assert!((b.as_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn target_grows_linearly_in_time() {
        let b = Amendment::from_fraction(7, 3);
        assert_eq!(b.target(10, 3), 70);
        assert!(b.target(10, 6) == 140);
        assert!(b.target(10, 6) > b.target(10, 3));
    }

    #[test]
    fn mining_delay_is_minimal() {
        let us = [4u64, 9, 1, 16];
        let b = Amendment::compute(&us, 60);
        for (i, &u) in us.iter().enumerate() {
            let h = hit(&sha256(b"x"), &account(i as u64));
            let t = b.mining_delay_secs(h, u);
            assert!(b.meets_target(h, u, t), "condition holds at t");
            if t > 1 {
                assert!(!b.meets_target(h, u, t - 1), "t is minimal");
            }
        }
    }

    #[test]
    fn bigger_contribution_never_slower() {
        let b = Amendment::from_fraction(HIT_MODULUS, 1_000_000);
        let h = 0xdead_beef_0000_0000u64;
        let slow = b.mining_delay_secs(h, 2);
        let fast = b.mining_delay_secs(h, 20);
        assert!(fast <= slow);
    }

    #[test]
    fn expected_interval_close_to_t0_homogeneous() {
        // 20 equal nodes, t0 = 60 s; average winning delay over many rounds
        // must be close to 60.
        let n = 20usize;
        let t0 = 60u64;
        let candidates: Vec<Candidate> = (0..n)
            .map(|i| Candidate {
                account: account(i as u64),
                tokens: 3,
                stored_items: 5,
            })
            .collect();
        let mut prev = sha256(b"seed");
        let rounds = 400;
        let mut total = 0u64;
        for _ in 0..rounds {
            let out = run_round(&prev, &candidates, t0);
            total += out.delay_secs;
            prev = out.new_pos_hash;
        }
        let mean = total as f64 / rounds as f64;
        // Discretization to whole seconds plus sampling noise: ±20%.
        assert!(
            (mean - t0 as f64).abs() < 0.2 * t0 as f64,
            "mean interval {mean}, want ≈{t0}"
        );
    }

    #[test]
    fn contributors_win_more_often() {
        // One node with 10× the contribution should win far more rounds.
        let mut candidates: Vec<Candidate> = (0..10)
            .map(|i| Candidate {
                account: account(i),
                tokens: 1,
                stored_items: 1,
            })
            .collect();
        candidates[0].tokens = 10;
        let mut prev = sha256(b"w");
        let mut wins = vec![0u32; candidates.len()];
        for _ in 0..300 {
            let out = run_round(&prev, &candidates, 60);
            wins[out.winner] += 1;
            prev = out.new_pos_hash;
        }
        let others_max = wins[1..].iter().copied().max().unwrap();
        assert!(
            wins[0] > 2 * others_max,
            "heavy contributor won {} vs max other {}",
            wins[0],
            others_max
        );
    }

    #[test]
    fn round_is_deterministic() {
        let candidates: Vec<Candidate> = (0..5)
            .map(|i| Candidate {
                account: account(i),
                tokens: i + 1,
                stored_items: 2,
            })
            .collect();
        let prev = sha256(b"det");
        assert_eq!(
            run_round(&prev, &candidates, 60),
            run_round(&prev, &candidates, 60)
        );
    }

    #[test]
    fn verify_accepts_honest_claim() {
        let candidates: Vec<Candidate> = (0..8)
            .map(|i| Candidate {
                account: account(i),
                tokens: 2,
                stored_items: 3,
            })
            .collect();
        let us: Vec<u64> = candidates.iter().map(|c| c.contribution()).collect();
        let prev = sha256(b"v");
        let out = run_round(&prev, &candidates, 60);
        assert!(verify_claim(
            &prev,
            &candidates[out.winner],
            &us,
            60,
            out.delay_secs
        ));
    }

    #[test]
    fn verify_rejects_early_or_padded_claims() {
        let candidates: Vec<Candidate> = (0..8)
            .map(|i| Candidate {
                account: account(i),
                tokens: 2,
                stored_items: 3,
            })
            .collect();
        let us: Vec<u64> = candidates.iter().map(|c| c.contribution()).collect();
        let prev = sha256(b"v2");
        let out = run_round(&prev, &candidates, 60);
        // Claiming to have mined earlier than allowed fails.
        if out.delay_secs > 1 {
            assert!(!verify_claim(
                &prev,
                &candidates[out.winner],
                &us,
                60,
                out.delay_secs - 1
            ));
        }
        // Claiming much later (padding the target) also fails minimality.
        assert!(!verify_claim(
            &prev,
            &candidates[out.winner],
            &us,
            60,
            out.delay_secs + 10
        ));
        // Zero delay is never valid.
        assert!(!verify_claim(&prev, &candidates[out.winner], &us, 60, 0));
    }

    #[test]
    fn verify_rejects_forged_contribution() {
        // A cheater inflates its contribution 100× to compute an earlier
        // mining time. Verifiers recompute S and Q from chain history
        // (paper §V-A: "S and Q of each node can be obtained and validated
        // through the history of the blockchain"), so verification runs
        // against the *true* candidate and the forged-early delay fails.
        let candidates: Vec<Candidate> = (0..8)
            .map(|i| Candidate {
                account: account(i),
                tokens: 1,
                stored_items: 1,
            })
            .collect();
        let us: Vec<u64> = candidates.iter().map(|c| c.contribution()).collect();
        let prev = sha256(b"v3");
        let cheater = candidates[3];
        let mut forged = cheater;
        forged.tokens = 100;
        let b = Amendment::compute(&us, 60);
        let h = hit(&prev, &cheater.account);
        let honest_delay = b.mining_delay_secs(h, cheater.contribution());
        let forged_delay = b.mining_delay_secs(h, forged.contribution());
        assert!(forged_delay < honest_delay, "forging must look profitable");
        // Verified against chain-derived (true) contribution: rejected.
        assert!(!verify_claim(&prev, &cheater, &us, 60, forged_delay));
        // The honest delay still verifies.
        assert!(verify_claim(&prev, &cheater, &us, 60, honest_delay));
    }

    #[test]
    fn next_pos_hash_matches_streaming_reference() {
        let mut prev = sha256(b"pin");
        for seed in 0..32u64 {
            let acct = account(seed);
            assert_eq!(
                next_pos_hash(&prev, &acct),
                next_pos_hash_streaming(&prev, &acct)
            );
            prev = next_pos_hash(&prev, &acct);
        }
    }

    fn round_candidates(n: u64) -> Vec<Candidate> {
        (0..n)
            .map(|i| Candidate {
                account: account(i),
                tokens: i % 7 + 1,
                stored_items: i % 3 + 1,
            })
            .collect()
    }

    #[test]
    fn cached_round_is_bit_identical_to_reference() {
        let mut table = HitTable::new();
        let mut prev = sha256(b"cache-pin");
        for height in 0..50u64 {
            let candidates = round_candidates(height % 13 + 1);
            let reference = run_round(&prev, &candidates, 60);
            // Two rounds per height, like the live network: the second is
            // served wholly from the table.
            assert_eq!(
                run_round_cached(&prev, &candidates, 60, &mut table),
                reference,
                "height {height}, cold"
            );
            assert_eq!(
                run_round_cached(&prev, &candidates, 60, &mut table),
                reference,
                "height {height}, warm"
            );
            prev = reference.new_pos_hash;
        }
    }

    #[test]
    fn hit_table_invalidates_on_new_prev() {
        let mut table = HitTable::new();
        let candidates = round_candidates(8);
        let _ = run_round_cached(&sha256(b"h1"), &candidates, 60, &mut table);
        assert_eq!(table.len(), 8);
        // Same prev: entries survive. New prev: table rekeys from scratch.
        let _ = run_round_cached(&sha256(b"h1"), &candidates[..3], 60, &mut table);
        assert_eq!(table.len(), 8);
        let _ = run_round_cached(&sha256(b"h2"), &candidates[..3], 60, &mut table);
        assert_eq!(table.len(), 3);
        table.invalidate();
        assert!(table.is_empty());
    }

    #[test]
    fn hit_cache_counters_track_hits_and_misses() {
        telemetry::enable();
        let mut table = HitTable::new();
        let candidates = round_candidates(5);
        let prev = sha256(b"counted");
        let _ = run_round_cached(&prev, &candidates, 60, &mut table);
        let _ = run_round_cached(&prev, &candidates, 60, &mut table);
        let mut session = telemetry::finish().expect("enabled");
        let snap = session.registry.snapshot();
        assert_eq!(snap.counter("pos.hit_cache_miss"), Some(5));
        assert_eq!(snap.counter("pos.hit_cache_hit"), Some(5));
    }

    #[test]
    fn fast_delay_matches_exact() {
        // Sweep amendments from tiny to extreme fractions against hits
        // covering the edges and a deterministic pseudo-random spread: the
        // multiplicative fix-up must land on div_ceil's answer every time.
        let fractions = [
            (1u128, 1u128),
            (HIT_MODULUS, 1),
            (1, HIT_MODULUS),
            (HIT_MODULUS * 50, 51 * 60 * 1000),
            (u128::MAX / 2, 3),
            (3, u128::MAX / 2),
            (u128::MAX, u128::MAX),
        ];
        let mut hits: Vec<u64> = vec![0, 1, 2, 1000, u64::MAX - 1, u64::MAX];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hits.push(x);
        }
        let us = [0u64, 1, 2, 7, 1 << 20, u64::MAX];
        for &(num, den) in &fractions {
            let b = Amendment::from_fraction(num, den);
            for &h in &hits {
                for &u in &us {
                    assert_eq!(
                        b.mining_delay_secs_fast(h, u),
                        b.mining_delay_secs(h, u),
                        "B={num}/{den}, h={h}, u={u}"
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_contribution_floors_at_one() {
        let c = Candidate {
            account: account(1),
            tokens: 0,
            stored_items: 0,
        };
        assert_eq!(c.contribution(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_amendment_panics() {
        let _ = Amendment::compute(&[], 60);
    }
}
