//! Proof-of-Work baseline (paper §VI-C comparison).
//!
//! The paper compares its PoS against classic PoW at "difficulty 4", i.e.
//! four zero hex digits at the beginning of the block hash (16 zero bits),
//! for which the expected search length is `16^4 = 65536` hashes. This
//! module implements that baseline with an explicit **attempt counter** so
//! the energy model can charge every hash evaluation.

use edgechain_crypto::{Digest, Sha256};
use std::fmt;

/// A PoW difficulty expressed in leading zero *hex digits* of the hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Difficulty(u32);

impl Difficulty {
    /// The paper's experimental setting: 4 leading zero hex digits.
    pub const PAPER: Difficulty = Difficulty(4);

    /// Creates a difficulty.
    ///
    /// # Panics
    ///
    /// Panics above 16 hex digits (64 bits) — such searches are
    /// astronomically long and certainly a configuration error here.
    pub fn new(zero_hex_digits: u32) -> Self {
        assert!(
            zero_hex_digits <= 16,
            "difficulty above 16 hex digits is absurd"
        );
        Difficulty(zero_hex_digits)
    }

    /// Leading zero hex digits required.
    pub fn zero_hex_digits(&self) -> u32 {
        self.0
    }

    /// Expected number of hash evaluations to find a block: `16^d`.
    pub fn expected_attempts(&self) -> u64 {
        16u64.pow(self.0)
    }

    /// Whether `digest` satisfies this difficulty.
    pub fn is_met_by(&self, digest: &Digest) -> bool {
        digest.has_leading_zero_hex_digits(self.0)
    }
}

impl fmt::Display for Difficulty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} hex zeros", self.0)
    }
}

/// A successful PoW solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowSolution {
    /// The winning nonce.
    pub nonce: u64,
    /// The block hash achieving the difficulty.
    pub hash: Digest,
    /// How many hash evaluations the search performed (energy ∝ this).
    pub attempts: u64,
}

/// Searches nonces `start_nonce, start_nonce+1, …` until
/// `SHA-256(header ‖ nonce)` meets `difficulty`, or `max_attempts` is
/// exhausted.
///
/// Returns `None` when the budget runs out — callers treat that as "keep
/// mining next tick", which keeps simulated mining interruptible.
///
/// # Examples
///
/// ```
/// use edgechain_core::pow::{mine, verify, Difficulty};
///
/// let easy = Difficulty::new(1);
/// let sol = mine(b"block header", easy, 0, 1 << 16).expect("found");
/// assert!(verify(b"block header", easy, &sol));
/// // The attempt count is what the energy model charges.
/// assert!(sol.attempts >= 1);
/// ```
pub fn mine(
    header: &[u8],
    difficulty: Difficulty,
    start_nonce: u64,
    max_attempts: u64,
) -> Option<PowSolution> {
    let mut nonce = start_nonce;
    for attempt in 1..=max_attempts {
        let mut h = Sha256::new();
        h.update(header);
        h.update(nonce.to_be_bytes());
        let digest = h.finalize();
        if difficulty.is_met_by(&digest) {
            return Some(PowSolution {
                nonce,
                hash: digest,
                attempts: attempt,
            });
        }
        nonce = nonce.wrapping_add(1);
    }
    None
}

/// Verifies a claimed solution with a single hash evaluation.
pub fn verify(header: &[u8], difficulty: Difficulty, solution: &PowSolution) -> bool {
    let mut h = Sha256::new();
    h.update(header);
    h.update(solution.nonce.to_be_bytes());
    let digest = h.finalize();
    digest == solution.hash && difficulty.is_met_by(&digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn easy_difficulty_found_quickly() {
        let sol = mine(b"block header", Difficulty::new(1), 0, 1_000)
            .expect("difficulty 1 found within 1000 attempts whp");
        assert!(Difficulty::new(1).is_met_by(&sol.hash));
        assert!(verify(b"block header", Difficulty::new(1), &sol));
    }

    #[test]
    fn verification_rejects_wrong_header() {
        let sol = mine(b"header A", Difficulty::new(1), 0, 10_000).unwrap();
        assert!(!verify(b"header B", Difficulty::new(1), &sol));
    }

    #[test]
    fn verification_rejects_insufficient_difficulty() {
        let sol = mine(b"header", Difficulty::new(1), 0, 10_000).unwrap();
        if !Difficulty::new(6).is_met_by(&sol.hash) {
            assert!(!verify(b"header", Difficulty::new(6), &sol));
        }
    }

    #[test]
    fn budget_exhaustion_returns_none() {
        // Difficulty 16 within 3 attempts is (practically) impossible.
        assert!(mine(b"x", Difficulty::new(16), 0, 3).is_none());
    }

    #[test]
    fn attempts_counted_correctly() {
        // Resume search: a solution found at attempt k from nonce 0 is found
        // at attempt 1 when starting from its own nonce.
        let sol = mine(b"count", Difficulty::new(1), 0, 100_000).unwrap();
        let resumed = mine(b"count", Difficulty::new(1), sol.nonce, 10).unwrap();
        assert_eq!(resumed.attempts, 1);
        assert_eq!(resumed.nonce, sol.nonce);
    }

    #[test]
    fn expected_attempts_formula() {
        assert_eq!(Difficulty::new(0).expected_attempts(), 1);
        assert_eq!(Difficulty::new(2).expected_attempts(), 256);
        assert_eq!(Difficulty::PAPER.expected_attempts(), 65_536);
    }

    #[test]
    fn paper_difficulty_statistics() {
        // Average attempts at difficulty 2 over several searches should be
        // within a factor ~3 of the expected 256.
        let mut total = 0u64;
        let runs = 24;
        for i in 0..runs {
            let header = format!("stat {i}");
            let sol = mine(header.as_bytes(), Difficulty::new(2), 0, 1 << 20).unwrap();
            total += sol.attempts;
        }
        let mean = total as f64 / runs as f64;
        assert!(mean > 256.0 / 3.0 && mean < 256.0 * 3.0, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "absurd")]
    fn excessive_difficulty_rejected() {
        let _ = Difficulty::new(17);
    }
}
