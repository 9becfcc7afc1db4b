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
//! Each pool's membership is a bitmap over its live span (`IndexSet`): a
//! query, insert or remove is one word operation, a prune clears whole
//! words, and memory follows the span, which pruning and expiry keep short.
//! The Fairness Degree Cost and the PoS `Q_i` both read from here.

use crate::metadata::DataId;
use edgechain_facility::fdc;
use std::collections::VecDeque;

/// A set of `u64`: `v` is bit `v % 64` of `words[v / 64 - base]` (a `v`
/// below `base` wraps past every word). No end word is zero, nor `base`
/// when empty, so equal sets are equal; `clear_below` counts what it drops.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct IndexSet {
    base: u64,
    words: Vec<u64>,
    len: usize,
}

impl IndexSet {
    fn contains(&self, v: u64) -> bool {
        let i = (v >> 6).wrapping_sub(self.base) as usize;
        self.words.get(i).is_some_and(|w| w >> (v & 63) & 1 == 1)
    }

    fn insert(&mut self, v: u64) -> bool {
        let w = v >> 6;
        let base = if self.len == 0 { w } else { self.base.min(w) };
        let grow = self.base.saturating_sub(base) as usize;
        self.words.splice(0..0, std::iter::repeat_n(0, grow));
        self.base = base;
        let i = (w - base) as usize;
        self.words.resize(self.words.len().max(i + 1), 0);
        let fresh = self.words[i] >> (v & 63) & 1 == 0;
        self.words[i] |= 1 << (v & 63);
        self.len += usize::from(fresh);
        fresh
    }

    fn remove(&mut self, v: u64) -> bool {
        let present = self.contains(v);
        if present {
            self.words[((v >> 6) - self.base) as usize] &= !(1 << (v & 63));
            self.len -= 1;
            self.trim();
        }
        present
    }

    fn clear_below(&mut self, cut: u64) -> u64 {
        let before = self.len;
        let below_cut = cut.div_ceil(64).saturating_sub(self.base) as usize;
        for (i, word) in self.words.iter_mut().enumerate().take(below_cut) {
            let lo = (self.base + i as u64) << 6;
            let below = !0 >> 64u64.saturating_sub(cut - lo);
            self.len -= (*word & below).count_ones() as usize;
            *word &= !below;
        }
        self.trim();
        (before - self.len) as u64
    }

    fn trim(&mut self) {
        let tail = self.words.iter().rev().take_while(|&&w| w == 0).count();
        self.words.truncate(self.words.len() - tail);
        let lead = self.words.iter().take_while(|&&w| w == 0).count() as u64;
        self.words.drain(..lead as usize);
        self.base = if self.len > 0 { self.base + lead } else { 0 };
    }
}

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
    data_items: IndexSet,
    blocks: IndexSet,
    recent_fifo: VecDeque<u64>,
    recent: IndexSet,
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
            data_items: IndexSet::default(),
            blocks: IndexSet::default(),
            recent_fifo: VecDeque::new(),
            recent: IndexSet::default(),
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
        (self.data_items.len + self.blocks.len + self.recent_fifo.len()) as u64
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
        (self.data_items.len + self.blocks.len) as u64
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
        !self.data_items.contains(id.0) && self.can_store_bulk()
    }

    /// Stores a data item; returns `false` (and stores nothing) unless it
    /// [`accepts_data`](Self::accepts_data).
    pub fn store_data(&mut self, id: DataId) -> bool {
        self.accepts_data(id) && self.data_items.insert(id.0)
    }

    /// Whether this node stores data item `id`.
    pub fn has_data(&self, id: DataId) -> bool {
        self.data_items.contains(id.0)
    }

    /// Drops a data item (e.g., expired); returns whether it was present.
    pub fn evict_data(&mut self, id: DataId) -> bool {
        self.data_items.remove(id.0)
    }

    /// Number of proactively stored data items.
    pub fn data_count(&self) -> usize {
        self.data_items.len
    }

    /// Stores a block permanently; returns `false` when no slot is
    /// available or the block is already present (a block may also sit in
    /// the recent cache — the permanent pool is tracked separately,
    /// mirroring the paper's two allocation types).
    pub fn store_block(&mut self, index: u64) -> bool {
        self.can_store_bulk() && self.blocks.insert(index)
    }

    /// Whether the node can serve block `index` (permanent or recent pool).
    pub fn has_block(&self, index: u64) -> bool {
        self.blocks.contains(index) || self.recent.contains(index)
    }

    /// Inserts the newest block into the recent cache, evicting the oldest
    /// entries FIFO once over quota (or over capacity — the permanent
    /// pools never squeeze the cache below one slot, so insertion always
    /// succeeds). Returns evicted indices.
    pub fn cache_recent(&mut self, index: u64) -> Vec<u64> {
        if !self.recent.insert(index) {
            return Vec::new();
        }
        self.recent_fifo.push_back(index);
        let excess = (self.recent_fifo.len().saturating_sub(self.recent_quota))
            .max(self.used_slots().saturating_sub(self.capacity_slots) as usize);
        let evicted: Vec<u64> = self.recent_fifo.drain(..excess).collect();
        for &old in &evicted {
            self.recent.remove(old);
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
        let ceiling = self.capacity_slots.saturating_sub(self.bulk_used()) as usize;
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
        self.recent_fifo.retain(|&idx| idx >= cut);
        self.blocks.clear_below(cut) + self.recent.clear_below(cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

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
        assert_eq!(s.recent_fifo, [2, 3, 4]);
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
        assert_eq!(s.blocks.len, 1);
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

    /// The pools as `BTreeSet`s and a linearly searched FIFO: the
    /// representation [`NodeStorage`] had before its bitmaps, kept to
    /// test them against.
    #[derive(Debug)]
    struct Reference {
        capacity_slots: u64,
        data_items: BTreeSet<DataId>,
        blocks: BTreeSet<u64>,
        recent_cache: VecDeque<u64>,
        recent_quota: usize,
    }

    impl Reference {
        fn new(capacity_slots: u64) -> Self {
            Reference {
                capacity_slots,
                data_items: BTreeSet::new(),
                blocks: BTreeSet::new(),
                recent_cache: VecDeque::new(),
                recent_quota: 1,
            }
        }

        fn used_slots(&self) -> u64 {
            (self.data_items.len() + self.blocks.len() + self.recent_cache.len()) as u64
        }

        fn can_store_bulk(&self) -> bool {
            self.used_slots() < self.capacity_slots
                && ((self.data_items.len() + self.blocks.len()) as u64) + 1 < self.capacity_slots
        }

        fn accepts_data(&self, id: DataId) -> bool {
            !self.data_items.contains(&id) && self.can_store_bulk()
        }

        fn store_data(&mut self, id: DataId) -> bool {
            self.accepts_data(id) && self.data_items.insert(id)
        }

        fn store_block(&mut self, index: u64) -> bool {
            if self.blocks.contains(&index) || !self.can_store_bulk() {
                return false;
            }
            self.blocks.insert(index)
        }

        fn has_block(&self, index: u64) -> bool {
            self.blocks.contains(&index) || self.recent_cache.contains(&index)
        }

        fn cache_recent(&mut self, index: u64) -> Vec<u64> {
            if self.recent_cache.contains(&index) {
                return Vec::new();
            }
            self.recent_cache.push_back(index);
            let mut evicted = Vec::new();
            while self.recent_cache.len() > self.recent_quota
                || self.used_slots() > self.capacity_slots
            {
                if let Some(old) = self.recent_cache.pop_front() {
                    evicted.push(old);
                } else {
                    break;
                }
            }
            evicted
        }

        fn grow_recent_quota(&mut self) -> usize {
            let ceiling = (self.capacity_slots as usize)
                .saturating_sub(self.data_items.len() + self.blocks.len());
            if self.recent_quota < ceiling {
                self.recent_quota += 1;
            }
            self.recent_quota
        }

        fn prune_blocks_below(&mut self, cut: u64) -> u64 {
            let keep = self.blocks.split_off(&cut);
            let dropped = self.blocks.len() as u64;
            self.blocks = keep;
            let before = self.recent_cache.len();
            self.recent_cache.retain(|&idx| idx >= cut);
            dropped + (before - self.recent_cache.len()) as u64
        }
    }

    /// Values the property tests draw: five words' worth.
    const SPAN: u64 = 5 * 64;

    /// A cut on, one below or one above a word boundary, or anywhere.
    fn cut_strategy() -> impl Strategy<Value = u64> {
        (0u64..6, 0u8..4, 0u64..SPAN).prop_map(|(word, at, any)| match at {
            0 => (word * 64).saturating_sub(1),
            1 => word * 64,
            2 => word * 64 + 1,
            _ => any,
        })
    }

    fn set_of(values: &BTreeSet<u64>) -> IndexSet {
        let mut set = IndexSet::default();
        for &v in values {
            set.insert(v);
        }
        set
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn index_set_matches_a_btree_set(
            ops in prop::collection::vec((0u8..4, 0u64..SPAN, cut_strategy()), 0..200),
        ) {
            let (mut set, mut model) = (IndexSet::default(), BTreeSet::new());
            for (op, v, cut) in ops {
                match op {
                    0 | 1 => prop_assert_eq!(set.insert(v), model.insert(v)),
                    2 => prop_assert_eq!(set.remove(v), model.remove(&v)),
                    _ => {
                        let kept = model.split_off(&cut);
                        prop_assert_eq!(set.clear_below(cut), model.len() as u64);
                        model = kept;
                    }
                }
                prop_assert_eq!(set.len, model.len());
                for probe in 0..SPAN + 64 {
                    prop_assert_eq!(set.contains(probe), model.contains(&probe), "{}", probe);
                }
                // Trimmed at both ends, whatever the history.
                prop_assert_eq!(&set, &set_of(&model));
            }
            set.clear_below(u64::MAX);
            prop_assert_eq!(set, IndexSet::default());
        }

        #[test]
        fn node_storage_answers_as_the_reference(
            capacity in 1u64..(SPAN / 2),
            ops in prop::collection::vec((0u8..6, 0u64..SPAN, cut_strategy()), 0..200),
        ) {
            let (mut s, mut r) = (NodeStorage::new(capacity), Reference::new(capacity));
            for (op, v, cut) in ops {
                match op {
                    0 => prop_assert_eq!(s.store_data(DataId(v)), r.store_data(DataId(v))),
                    1 => prop_assert_eq!(s.store_block(v), r.store_block(v)),
                    2 => prop_assert_eq!(s.cache_recent(v), r.cache_recent(v)),
                    3 => prop_assert_eq!(
                        s.evict_data(DataId(v)),
                        r.data_items.remove(&DataId(v))
                    ),
                    4 => prop_assert_eq!(s.grow_recent_quota(), r.grow_recent_quota()),
                    _ => prop_assert_eq!(s.prune_blocks_below(cut), r.prune_blocks_below(cut)),
                }
                prop_assert_eq!(s.used_slots(), r.used_slots());
                prop_assert_eq!(s.data_count(), r.data_items.len());
                prop_assert_eq!(s.recent_quota(), r.recent_quota);
                prop_assert_eq!(&s.recent_fifo, &r.recent_cache);
                for probe in 0..SPAN + 64 {
                    prop_assert_eq!(s.has_data(DataId(probe)), r.data_items.contains(&DataId(probe)));
                    prop_assert_eq!(s.accepts_data(DataId(probe)), r.accepts_data(DataId(probe)));
                    prop_assert_eq!(s.has_block(probe), r.has_block(probe), "{}", probe);
                }
            }
        }
    }
}
