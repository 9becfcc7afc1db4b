//! Node identities, accounts, and the token ledger.
//!
//! Each participating edge device holds a key pair; the hash of the public
//! key is its **account address** (paper §III-A). Mining a block earns one
//! token; token balances (`S_i`) feed the PoS target value. The
//! [`Ledger`] is always *derived from the chain history*, so every node can
//! recompute and verify any balance ("S and Q of each node can be obtained
//! and validated through the history of the blockchain").

use edgechain_crypto::{Digest, KeyPair, PublicKey};
use std::collections::HashMap;
use std::fmt;

/// A node's account address (SHA-256 of its public key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccountId(pub Digest);

impl AccountId {
    /// Derives the account id from a public key.
    pub fn from_public_key(pk: &PublicKey) -> Self {
        AccountId(pk.address())
    }

    /// The raw 32-byte address.
    pub fn as_bytes(&self) -> &[u8; 32] {
        self.0.as_bytes()
    }
}

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Short form: first 8 hex chars, like git.
        write!(f, "{}", &self.0.to_hex()[..8])
    }
}

/// A node's full identity: key pair plus cached account id.
///
/// # Examples
///
/// ```
/// use edgechain_core::Identity;
///
/// let node = Identity::from_seed(7);
/// // The address is the hash of the public key, never the reverse.
/// assert_eq!(node.account().0, node.public_key().address());
/// ```
#[derive(Debug, Clone)]
pub struct Identity {
    keys: KeyPair,
    account: AccountId,
}

impl Identity {
    /// Creates an identity deterministically from a seed (one per node in
    /// simulations).
    pub fn from_seed(seed: u64) -> Self {
        let keys = KeyPair::from_seed(seed);
        let account = AccountId::from_public_key(&keys.public_key());
        Identity { keys, account }
    }

    /// The signing key pair.
    pub fn keys(&self) -> &KeyPair {
        &self.keys
    }

    /// The public key.
    pub fn public_key(&self) -> PublicKey {
        self.keys.public_key()
    }

    /// The account address.
    pub fn account(&self) -> AccountId {
        self.account
    }
}

/// Token balances by account, derived from chain history.
///
/// A new node "requires to have at least one token" (paper §V-A) — the
/// genesis grant — which [`Ledger::balance`] reflects by defaulting to
/// [`Ledger::initial_tokens`].
///
/// # Examples
///
/// ```
/// use edgechain_core::{Identity, Ledger};
///
/// let mut ledger = Ledger::new();
/// let miner = Identity::from_seed(1).account();
/// assert_eq!(ledger.balance(&miner), 1); // initial grant
/// ledger.credit(miner, 1);               // one mined block
/// assert_eq!(ledger.balance(&miner), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger {
    balances: HashMap<AccountId, u64>,
    initial_tokens: u64,
}

impl Default for Ledger {
    fn default() -> Self {
        Self::new()
    }
}

impl Ledger {
    /// A ledger where unknown accounts hold one token (the paper's initial
    /// grant).
    pub fn new() -> Self {
        Ledger {
            balances: HashMap::new(),
            initial_tokens: 1,
        }
    }

    /// A ledger with a custom initial grant.
    pub fn with_initial_tokens(initial_tokens: u64) -> Self {
        Ledger {
            balances: HashMap::new(),
            initial_tokens,
        }
    }

    /// The initial grant for unseen accounts.
    pub fn initial_tokens(&self) -> u64 {
        self.initial_tokens
    }

    /// Current balance of `account` (`S_i`).
    pub fn balance(&self, account: &AccountId) -> u64 {
        self.balances
            .get(account)
            .copied()
            .unwrap_or(self.initial_tokens)
    }

    /// Credits `amount` tokens (e.g., the one-token mining reward).
    pub fn credit(&mut self, account: AccountId, amount: u64) {
        let bal = self.balances.entry(account).or_insert(self.initial_tokens);
        *bal += amount;
    }

    /// Debits tokens, saturating at zero; returns the amount actually
    /// debited.
    pub fn debit(&mut self, account: AccountId, amount: u64) -> u64 {
        let bal = self.balances.entry(account).or_insert(self.initial_tokens);
        let taken = amount.min(*bal);
        *bal -= taken;
        taken
    }

    /// Halves every balance (rounding up, minimum 1). This is the paper's
    /// §V-B token rescaling: "decrease S_i for all nodes simultaneously (by
    /// ratio) after a certain number of blocks, and increase B by the same
    /// ratio", keeping relative mining advantage unchanged.
    pub fn rescale_halve(&mut self) {
        for bal in self.balances.values_mut() {
            *bal = (*bal).div_ceil(2).max(1);
        }
    }

    /// Number of accounts that have explicitly appeared on-chain.
    pub fn len(&self) -> usize {
        self.balances.len()
    }

    /// Whether no account has appeared on-chain yet.
    pub fn is_empty(&self) -> bool {
        self.balances.is_empty()
    }

    /// Iterates over explicitly tracked `(account, balance)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&AccountId, &u64)> {
        self.balances.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_deterministic() {
        let a = Identity::from_seed(1);
        let b = Identity::from_seed(1);
        let c = Identity::from_seed(2);
        assert_eq!(a.account(), b.account());
        assert_ne!(a.account(), c.account());
    }

    #[test]
    fn account_matches_public_key_hash() {
        let id = Identity::from_seed(5);
        assert_eq!(id.account().0, id.public_key().address());
    }

    #[test]
    fn unknown_accounts_hold_initial_grant() {
        let ledger = Ledger::new();
        let acct = Identity::from_seed(9).account();
        assert_eq!(ledger.balance(&acct), 1);
        assert!(ledger.is_empty());
    }

    #[test]
    fn credit_and_debit() {
        let mut ledger = Ledger::new();
        let acct = Identity::from_seed(3).account();
        ledger.credit(acct, 2); // initial 1 + 2
        assert_eq!(ledger.balance(&acct), 3);
        assert_eq!(ledger.debit(acct, 2), 2);
        assert_eq!(ledger.balance(&acct), 1);
        assert_eq!(ledger.debit(acct, 10), 1); // saturates
        assert_eq!(ledger.balance(&acct), 0);
        assert_eq!(ledger.len(), 1);
    }

    #[test]
    fn rescale_preserves_order_and_floors_at_one() {
        let mut ledger = Ledger::new();
        let a = Identity::from_seed(10).account();
        let b = Identity::from_seed(11).account();
        ledger.credit(a, 9); // 10
        ledger.credit(b, 0); // 1
        ledger.rescale_halve();
        assert_eq!(ledger.balance(&a), 5);
        assert_eq!(ledger.balance(&b), 1);
        assert!(ledger.balance(&a) > ledger.balance(&b));
    }

    #[test]
    fn custom_initial_tokens() {
        let ledger = Ledger::with_initial_tokens(5);
        let acct = Identity::from_seed(1).account();
        assert_eq!(ledger.balance(&acct), 5);
        assert_eq!(ledger.initial_tokens(), 5);
    }

    #[test]
    fn display_is_short_hex() {
        let acct = Identity::from_seed(1).account();
        let s = format!("{acct}");
        assert_eq!(s.len(), 8);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
