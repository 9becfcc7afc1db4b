//! Per-node storage manager.
//!
//! Each edge node has a bounded store (the evaluation gives every node 250
//! slots, each holding one 1 MB data item or one block). The manager tracks
//! three pools:
//!
//! * **data items** proactively cached because the allocation chose this
//!   node as a storer,
//! * **blocks** permanently assigned to this node by the block's
//!   `storing_nodes` list,
//! * the **recent-block cache** — a FIFO of the newest blocks with a
//!   per-node quota that starts at 1 ("all nodes store at least the last
//!   block for mining purposes") and grows when a miner's recent-block
//!   allocation picks this node (§IV-C).
//!
//! The Fairness Degree Cost and the PoS `Q_i` both read from here.

use crate::metadata::DataId;
use edgechain_facility::fdc;
use std::collections::{BTreeSet, VecDeque};

/// Bounded per-node storage.
///
/// # Examples
///
/// ```
/// use edgechain_core::{DataId, NodeStorage};
///
/// let mut store = NodeStorage::paper_default(); // 250 slots
/// assert!(store.store_data(DataId(1)));
/// store.cache_recent(5); // newest block, FIFO-evicted at quota
/// assert!(store.has_block(5));
/// assert_eq!(store.q_value(), 2); // the PoS Q_i term
/// assert!(store.fdc() > 0.0);     // fairness cost grows with usage
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStorage {
    capacity_slots: u64,
    data_items: BTreeSet<DataId>,
    blocks: BTreeSet<u64>,
    recent_cache: VecDeque<u64>,
    recent_quota: usize,
}

impl NodeStorage {
    /// Creates empty storage with `capacity_slots` unit-size slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_slots` is zero.
    pub fn new(capacity_slots: u64) -> Self {
        assert!(capacity_slots > 0, "storage capacity must be positive");
        NodeStorage {
            capacity_slots,
            data_items: BTreeSet::new(),
            blocks: BTreeSet::new(),
            recent_cache: VecDeque::new(),
            recent_quota: 1,
        }
    }

    /// The paper's evaluation setting: 250 slots.
    pub fn paper_default() -> Self {
        Self::new(250)
    }

    /// Total capacity in slots.
    pub fn capacity(&self) -> u64 {
        self.capacity_slots
    }

    /// Slots in use across all pools.
    pub fn used_slots(&self) -> u64 {
        (self.data_items.len() + self.blocks.len() + self.recent_cache.len()) as u64
    }

    /// Free slots remaining.
    pub fn free_slots(&self) -> u64 {
        self.capacity_slots.saturating_sub(self.used_slots())
    }

    /// Whether no slot is free.
    pub fn is_full(&self) -> bool {
        self.free_slots() == 0
    }

    /// The Fairness Degree Cost of this node (Eq. 1); `+∞` when full.
    pub fn fdc(&self) -> f64 {
        fdc(self.used_slots(), self.capacity_slots)
    }

    /// The PoS contribution count `Q_i`: stored items of all kinds,
    /// floored at 1 (a fresh node at least stores the last block).
    pub fn q_value(&self) -> u64 {
        self.used_slots().max(1)
    }

    /// Slots taken by the two permanent pools (data + assigned blocks).
    fn bulk_used(&self) -> u64 {
        (self.data_items.len() + self.blocks.len()) as u64
    }

    /// Whether another permanent item (data or block) fits. One slot is
    /// always reserved for the recent-block cache, because "all nodes
    /// store at least the last block for mining purposes" (§IV-C).
    fn can_store_bulk(&self) -> bool {
        !self.is_full() && self.bulk_used() + 1 < self.capacity_slots
    }

    /// Whether [`store_data`](Self::store_data) would store item `id`: it
    /// is not yet present and a slot besides the recent-block cache's
    /// reserved one is free. A sender checks this before it ships a copy.
    pub fn accepts_data(&self, id: DataId) -> bool {
        !self.data_items.contains(&id) && self.can_store_bulk()
    }

    /// Stores a data item; returns `false` (and stores nothing) unless it
    /// [`accepts_data`](Self::accepts_data).
    pub fn store_data(&mut self, id: DataId) -> bool {
        self.accepts_data(id) && self.data_items.insert(id)
    }

    /// Whether this node stores data item `id`.
    pub fn has_data(&self, id: DataId) -> bool {
        self.data_items.contains(&id)
    }

    /// Drops a data item (e.g., expired); returns whether it was present.
    pub fn evict_data(&mut self, id: DataId) -> bool {
        self.data_items.remove(&id)
    }

    /// Number of proactively stored data items.
    pub fn data_count(&self) -> usize {
        self.data_items.len()
    }

    /// Stores a block permanently; returns `false` when no slot is
    /// available or the block is already present (a block may also sit in
    /// the recent cache — the permanent pool is tracked separately,
    /// mirroring the paper's two allocation types).
    pub fn store_block(&mut self, index: u64) -> bool {
        if self.blocks.contains(&index) || !self.can_store_bulk() {
            return false;
        }
        self.blocks.insert(index)
    }

    /// Whether the node can serve block `index` (permanent or recent pool).
    pub fn has_block(&self, index: u64) -> bool {
        self.blocks.contains(&index) || self.recent_cache.contains(&index)
    }

    /// Inserts the newest block into the recent cache, evicting the oldest
    /// entries FIFO once over quota (or over capacity — the permanent
    /// pools never squeeze the cache below one slot, so insertion always
    /// succeeds). Returns evicted indices.
    pub fn cache_recent(&mut self, index: u64) -> Vec<u64> {
        if self.recent_cache.contains(&index) {
            return Vec::new();
        }
        self.recent_cache.push_back(index);
        let mut evicted = Vec::new();
        while self.recent_cache.len() > self.recent_quota || self.used_slots() > self.capacity_slots
        {
            if let Some(old) = self.recent_cache.pop_front() {
                evicted.push(old);
            } else {
                break;
            }
        }
        evicted
    }

    /// Current recent-cache quota.
    pub fn recent_quota(&self) -> usize {
        self.recent_quota
    }

    /// Grows the recent-cache quota by one (this node was chosen by a
    /// miner's recent-block allocation), bounded by remaining capacity.
    /// Returns the new quota.
    pub fn grow_recent_quota(&mut self) -> usize {
        let ceiling = (self.capacity_slots as usize)
            .saturating_sub(self.data_items.len() + self.blocks.len());
        if self.recent_quota < ceiling {
            self.recent_quota += 1;
        }
        self.recent_quota
    }

    /// Drops every stored block (permanent pool and recent cache) with an
    /// index strictly below `cut` — the storage half of chain pruning.
    /// Returns how many slots were reclaimed; the freed space is
    /// immediately visible to [`NodeStorage::fdc`], [`NodeStorage::q_value`],
    /// and the UFL occupancy costs built on [`NodeStorage::used_slots`].
    pub fn prune_blocks_below(&mut self, cut: u64) -> u64 {
        let keep = self.blocks.split_off(&cut);
        let dropped = self.blocks.len() as u64;
        self.blocks = keep;
        let before = self.recent_cache.len();
        self.recent_cache.retain(|&idx| idx >= cut);
        dropped + (before - self.recent_cache.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_storage_is_empty() {
        let s = NodeStorage::paper_default();
        assert_eq!(s.capacity(), 250);
        assert_eq!(s.used_slots(), 0);
        assert_eq!(s.free_slots(), 250);
        assert!(!s.is_full());
        assert_eq!(s.fdc(), 0.0);
        assert_eq!(s.q_value(), 1); // floored
    }

    #[test]
    fn store_data_and_duplicates() {
        let mut s = NodeStorage::new(10);
        assert!(s.accepts_data(DataId(1)));
        assert!(s.store_data(DataId(1)));
        assert!(!s.accepts_data(DataId(1)));
        assert!(!s.store_data(DataId(1)));
        assert!(s.has_data(DataId(1)));
        assert!(!s.has_data(DataId(2)));
        assert_eq!(s.data_count(), 1);
        assert_eq!(s.used_slots(), 1);
    }

    #[test]
    fn capacity_enforced_with_reserved_recent_slot() {
        let mut s = NodeStorage::new(3);
        assert!(s.store_data(DataId(1)));
        assert!(s.store_data(DataId(2)));
        // The third slot is reserved for the recent-block cache: the node
        // is not full, yet it accepts no further item.
        assert!(!s.accepts_data(DataId(3)));
        assert!(!s.store_data(DataId(3)));
        assert!(!s.store_block(7));
        assert!(!s.is_full());
        s.cache_recent(1);
        assert!(s.is_full());
        assert!(s.fdc().is_infinite());
        // The reserved slot still always accepts the newest block.
        let evicted = s.cache_recent(2);
        assert_eq!(evicted, vec![1]);
        assert!(s.has_block(2));
        assert_eq!(s.used_slots(), 3);
    }

    #[test]
    fn fdc_tracks_usage() {
        let mut s = NodeStorage::new(4);
        assert_eq!(s.fdc(), 0.0);
        s.store_data(DataId(1));
        assert!((s.fdc() - 1.0 / 3.0).abs() < 1e-12);
        s.store_data(DataId(2));
        assert!((s.fdc() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn evict_frees_slot() {
        let mut s = NodeStorage::new(2);
        s.store_data(DataId(1));
        assert!(!s.store_data(DataId(2)), "slot 2 is reserved for recents");
        assert!(s.evict_data(DataId(1)));
        assert!(!s.evict_data(DataId(1)));
        assert!(s.store_data(DataId(2)));
    }

    #[test]
    fn recent_cache_fifo_with_quota_one() {
        let mut s = NodeStorage::new(10);
        assert!(s.cache_recent(1).is_empty());
        assert!(s.has_block(1));
        let evicted = s.cache_recent(2);
        assert_eq!(evicted, vec![1]);
        assert!(!s.has_block(1));
        assert!(s.has_block(2));
    }

    #[test]
    fn grown_quota_holds_more() {
        let mut s = NodeStorage::new(10);
        assert_eq!(s.grow_recent_quota(), 2);
        assert_eq!(s.grow_recent_quota(), 3);
        s.cache_recent(1);
        s.cache_recent(2);
        s.cache_recent(3);
        assert!(s.has_block(1) && s.has_block(2) && s.has_block(3));
        let evicted = s.cache_recent(4);
        assert_eq!(evicted, vec![1]);
        assert_eq!(s.recent_cache, [2, 3, 4]);
    }

    #[test]
    fn quota_growth_bounded_by_capacity() {
        let mut s = NodeStorage::new(3);
        s.store_data(DataId(1));
        s.store_data(DataId(2));
        // Only 1 slot left: quota may not exceed 1.
        assert_eq!(s.grow_recent_quota(), 1);
    }

    #[test]
    fn blocks_and_recent_counted_separately() {
        let mut s = NodeStorage::new(10);
        s.store_block(5);
        s.cache_recent(5); // dedup against recent pool only
        assert!(s.has_block(5));
        assert_eq!(s.blocks.len(), 1);
        // Permanent 5 + recent 5 both occupy slots (separate pools).
        assert_eq!(s.used_slots(), 2);
    }

    #[test]
    fn duplicate_recent_cache_is_noop() {
        let mut s = NodeStorage::new(10);
        s.cache_recent(3);
        assert!(s.cache_recent(3).is_empty());
        assert_eq!(s.used_slots(), 1);
    }

    #[test]
    fn q_value_counts_everything() {
        let mut s = NodeStorage::new(10);
        s.store_data(DataId(1));
        s.store_block(1);
        s.cache_recent(2);
        assert_eq!(s.q_value(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = NodeStorage::new(0);
    }

    #[test]
    fn prune_blocks_below_reclaims_slots() {
        let mut s = NodeStorage::new(20);
        for idx in 0..8 {
            assert!(s.store_block(idx));
        }
        s.store_data(DataId(1));
        s.grow_recent_quota();
        s.cache_recent(3);
        s.cache_recent(9);
        let used = s.used_slots();
        let reclaimed = s.prune_blocks_below(5);
        // Permanent blocks 0..=4 plus recent entry 3.
        assert_eq!(reclaimed, 6);
        assert_eq!(s.used_slots(), used - 6);
        assert!(!s.has_block(4));
        assert!(s.has_block(5));
        assert!(s.has_block(9), "recent entry at or above the cut survives");
        assert!(s.has_data(DataId(1)), "data items are untouched");
        assert_eq!(s.prune_blocks_below(5), 0, "idempotent at the same cut");
    }
}
