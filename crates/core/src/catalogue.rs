//! The live data catalogue: every packed, not yet swept metadata item.
//!
//! [`crate::network::EdgeNetwork`] asks four things of its live items:
//! "which item has this id", "all of them in id order" (repair,
//! snapshots, the invariant walk), "which are due to expire", and — on
//! every fetch arrival — "the k-th item *this requester* can see". The
//! [`Catalogue`] keeps three orders over the same items so each question
//! is a lookup or an ordered walk instead of a scan and a sort:
//!
//! * ascending by [`DataId`] — an item's *rank* is its index;
//! * `(packing block, id)` — the items a requester lacks are those of the
//!   blocks it lacks;
//! * `(expiry second, id)` — the items due first come first.
//!
//! A requester sees an item that is still valid and whose packing block
//! it holds (or that lies below `from_block`, see [`Catalogue::visible`]).
//! Almost every item is visible to almost every requester, so visibility
//! is answered as *all minus hidden*: the hidden ranks — expired but not
//! yet swept, or packed in a block the requester has not got — are
//! enumerated from the expiry and block orders, and the k-th visible item
//! is the k-th rank once those few are stepped over. A pick costs
//! O(log items + hidden · log items), not O(items · log items).

use crate::metadata::{DataId, MetadataItem};
use edgechain_sim::NodeId;
use std::collections::{BTreeSet, VecDeque};

/// The live packed items under their three orders, kept in step by
/// [`Catalogue::insert`], [`Catalogue::remove`] and
/// [`Catalogue::pop_expired`] — the only ways in or out.
#[derive(Debug, Clone, Default)]
pub(crate) struct Catalogue {
    /// `(metadata, index of the packing block)`, ascending by id.
    entries: VecDeque<(MetadataItem, u64)>,
    by_block: BTreeSet<(u64, DataId)>,
    by_expiry: BTreeSet<(u64, DataId)>,
    /// Entries and index nodes touched by lookups, for the work-bound test.
    #[cfg(test)]
    probes: std::cell::Cell<u64>,
}

impl Catalogue {
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn probe(&self) {
        #[cfg(test)]
        self.probes.set(self.probes.get() + 1);
    }

    /// Rank of `id` among the live ids, or where it would be inserted.
    fn rank_of(&self, id: DataId) -> Result<usize, usize> {
        self.entries.binary_search_by(|(m, _)| {
            self.probe();
            m.data_id.cmp(&id)
        })
    }

    pub(crate) fn contains(&self, id: DataId) -> bool {
        self.rank_of(id).is_ok()
    }

    pub(crate) fn get(&self, id: DataId) -> Option<&MetadataItem> {
        self.rank_of(id).ok().map(|at| &self.entries[at].0)
    }

    /// Lists `item` as packed in `block`, replacing any live item with the
    /// same id (a reorged-away item packed again).
    pub(crate) fn insert(&mut self, item: MetadataItem, block: u64) {
        let id = item.data_id;
        self.remove(id);
        self.by_block.insert((block, id));
        self.by_expiry.insert((item.expires_at_secs(), id));
        let at = self.entries.partition_point(|(m, _)| m.data_id < id);
        self.entries.insert(at, (item, block));
    }

    pub(crate) fn remove(&mut self, id: DataId) {
        let Ok(at) = self.rank_of(id) else {
            return;
        };
        let (item, block) = self.entries.remove(at).expect("a rank is in range");
        self.by_block.remove(&(block, id));
        self.by_expiry.remove(&(item.expires_at_secs(), id));
    }

    /// Removes the item that expired first, if one is no longer valid at
    /// `now_secs`. Ties fall in id order.
    pub(crate) fn pop_expired(&mut self, now_secs: u64) -> Option<DataId> {
        let &(expires, id) = self.by_expiry.first()?;
        if expires > now_secs {
            return None;
        }
        self.remove(id);
        Some(id)
    }

    /// Rewrites where `id` is held. The one mutation allowed on a live
    /// item: its id and expiry, which the orders are keyed on, stay fixed.
    pub(crate) fn set_storers(&mut self, id: DataId, storers: Vec<NodeId>) {
        if let Ok(at) = self.rank_of(id) {
            self.entries[at].0.storing_nodes = storers;
        }
    }

    /// Every live `(item, packing block)` in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &(MetadataItem, u64)> {
        self.entries.iter()
    }

    /// Every live id, ascending.
    pub(crate) fn ids(&self) -> impl Iterator<Item = DataId> + '_ {
        self.entries.iter().map(|(m, _)| m.data_id)
    }

    /// What a requester holding the blocks in `known` can see at
    /// `now_secs`: every item still valid whose packing block is below
    /// `from_block` or in `known`. Pass the pruned base — items finalized
    /// below it travel with the anchor — or anything higher up to which
    /// `known` is known to be gapless, which shortens the walk.
    pub(crate) fn visible(
        &self,
        from_block: u64,
        known: &BTreeSet<u64>,
        now_secs: u64,
    ) -> Visible<'_> {
        let expired = self.by_expiry.iter().take_while(|(expires, _)| {
            self.probe();
            *expires <= now_secs
        });
        let unseen = self
            .by_block
            .range((from_block, DataId(0))..)
            .filter(|(block, _)| {
                self.probe();
                !known.contains(block)
            });
        let mut hidden: Vec<usize> = expired
            .chain(unseen)
            .map(|&(_, id)| self.rank_of(id).expect("indexed ids are live"))
            .collect();
        hidden.sort_unstable();
        hidden.dedup();
        Visible {
            catalogue: self,
            hidden,
        }
    }
}

/// One requester's view of the [`Catalogue`] at one instant: all live
/// items minus the ascending `hidden` ranks.
pub(crate) struct Visible<'a> {
    catalogue: &'a Catalogue,
    hidden: Vec<usize>,
}

impl<'a> Visible<'a> {
    pub(crate) fn len(&self) -> usize {
        self.catalogue.len() - self.hidden.len()
    }

    /// How many live items this requester cannot see.
    pub(crate) fn hidden(&self) -> usize {
        self.hidden.len()
    }

    /// The visible item with the `rank`-th lowest id.
    pub(crate) fn nth(&self, rank: usize) -> Option<&'a MetadataItem> {
        let mut at = rank;
        for &h in &self.hidden {
            self.catalogue.probe();
            if h > at {
                break;
            }
            at += 1;
        }
        self.catalogue.probe();
        self.catalogue.entries.get(at).map(|(m, _)| m)
    }

    /// The visible item with the `rank`-th highest id (0 = newest).
    pub(crate) fn nth_newest(&self, rank: usize) -> Option<&'a MetadataItem> {
        self.nth(self.len().checked_sub(rank + 1)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::{DataType, Location};
    use proptest::prelude::*;

    fn template() -> MetadataItem {
        MetadataItem::new_signed(
            crate::account::Identity::from_seed(7).keys(),
            DataId(0),
            DataType::Sensing("PM2.5".into()),
            0,
            Location::default(),
            1,
            None,
            1_000,
        )
    }

    /// `template` re-labelled: valid for `[produced, produced + 60)`.
    fn item(template: &MetadataItem, id: u64, produced_at_secs: u64) -> MetadataItem {
        MetadataItem {
            data_id: DataId(id),
            produced_at_secs,
            ..template.clone()
        }
    }

    /// The scan `EdgeNetwork` ran per fetch arrival before the catalogue
    /// existed: filter on validity and block visibility, collect, sort.
    fn oracle<'a>(
        registry: &'a Catalogue,
        base: u64,
        known: &BTreeSet<u64>,
        now_secs: u64,
    ) -> Vec<&'a MetadataItem> {
        let mut visible: Vec<&MetadataItem> = registry
            .iter()
            .filter(|(m, _)| m.is_valid_at(now_secs))
            .filter(|(_, idx)| *idx < base || known.contains(idx))
            .map(|(m, _)| m)
            .collect();
        visible.sort_by_key(|m| m.data_id);
        visible
    }

    fn assert_matches_oracle(cat: &Catalogue, base: u64, known: &BTreeSet<u64>, now_secs: u64) {
        let want = oracle(cat, base, known, now_secs);
        let got = cat.visible(base, known, now_secs);
        assert_eq!(got.len(), want.len(), "visible_len");
        assert_eq!(got.hidden(), cat.len() - want.len());
        for (rank, w) in want.iter().enumerate() {
            assert_eq!(got.nth(rank), Some(*w), "ascending rank {rank}");
            assert_eq!(
                got.nth_newest(rank),
                Some(want[want.len() - 1 - rank]),
                "descending rank {rank}"
            );
        }
        assert_eq!(got.nth(want.len()), None);
        assert_eq!(got.nth_newest(want.len()), None);
    }

    fn assert_orders_in_step(cat: &Catalogue) {
        let ids: Vec<DataId> = cat.ids().collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids ascending");
        let by_block: BTreeSet<(u64, DataId)> = cat.iter().map(|(m, b)| (*b, m.data_id)).collect();
        let by_expiry: BTreeSet<(u64, DataId)> = cat
            .iter()
            .map(|(m, _)| (m.expires_at_secs(), m.data_id))
            .collect();
        assert_eq!(cat.by_block, by_block);
        assert_eq!(cat.by_expiry, by_expiry);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random pack / reorg-displace / re-pack / sweep / prune / block
        /// receipt sequences: the view equals the old scan at every rank,
        /// both ways, for two requesters with different known sets.
        #[test]
        fn view_matches_the_filter_collect_sort_scan(
            ops in prop::collection::vec((0u8..8, 0u64..48, 0u64..24), 1..120),
        ) {
            let template = template();
            let mut cat = Catalogue::default();
            let mut known = [BTreeSet::from([0u64]), BTreeSet::from([0u64])];
            let (mut base, mut now) = (0u64, 0u64);
            for (op, a, b) in ops {
                match op {
                    // Pack: ids are drawn, not counted, so they are not
                    // monotone in the packing block; an id already live
                    // is the re-pack after a reorg displaced its block.
                    0..=2 => cat.insert(item(&template, a, now.saturating_sub(b)), b),
                    3 => cat.remove(DataId(a)),
                    4 => {
                        now += b * 5;
                        if a % 2 == 0 {
                            while let Some(id) = cat.pop_expired(now) {
                                prop_assert!(!cat.contains(id));
                            }
                            prop_assert!(cat.iter().all(|(m, _)| m.is_valid_at(now)));
                        }
                    }
                    5 => base = base.max(b.min(12)),
                    6 => {
                        known[(a % 2) as usize].insert(b);
                    }
                    _ => {
                        // A pruning node drops what lies below the base.
                        let v = (a % 2) as usize;
                        known[v] = known[v].split_off(&base);
                    }
                }
                assert_orders_in_step(&cat);
                for k in &known {
                    assert_matches_oracle(&cat, base, k, now);
                }
            }
        }
    }

    #[test]
    fn expiry_pops_in_expiry_then_id_order() {
        let t = template();
        let mut cat = Catalogue::default();
        cat.insert(item(&t, 9, 0), 1);
        cat.insert(item(&t, 3, 30), 1);
        cat.insert(item(&t, 5, 0), 2);
        assert_eq!(cat.pop_expired(59), None);
        assert_eq!(cat.pop_expired(60), Some(DataId(5)));
        assert_eq!(cat.pop_expired(60), Some(DataId(9)));
        assert_eq!(cat.pop_expired(60), None);
        assert_eq!(cat.pop_expired(90), Some(DataId(3)));
        assert_eq!(cat.len(), 0);
        assert_orders_in_step(&cat);
    }

    #[test]
    fn set_storers_touches_only_the_holder_list() {
        let t = template();
        let mut cat = Catalogue::default();
        cat.insert(item(&t, 1, 0), 1);
        cat.set_storers(DataId(1), vec![NodeId(4)]);
        cat.set_storers(DataId(2), vec![NodeId(5)]);
        assert_eq!(cat.get(DataId(1)).unwrap().storing_nodes, vec![NodeId(4)]);
        assert!(cat.get(DataId(2)).is_none());
        assert_orders_in_step(&cat);
    }

    /// Probes spent on one newest-first pick from a catalogue of `items`
    /// items, ten a block, by a requester that holds every block but the
    /// newest `missing` and starts the walk past its gapless prefix, as
    /// the network does.
    fn pick_probes(items: u64, missing: u64) -> u64 {
        let t = template();
        let mut cat = Catalogue::default();
        for id in 0..items {
            cat.insert(item(&t, id, 0), 1 + id / 10);
        }
        let tip = items / 10;
        let known: BTreeSet<u64> = (0..=tip - missing).collect();
        cat.probes.set(0);
        let view = cat.visible(tip - missing + 1, &known, 0);
        assert_eq!(view.hidden() as u64, 10 * missing);
        assert_eq!(
            view.nth_newest(view.len() / 2).map(|m| m.data_id),
            Some(DataId((items - 10 * missing - 1) / 2))
        );
        cat.probes.get()
    }

    #[test]
    fn pick_work_does_not_grow_with_the_catalogue() {
        // Everything visible: the rank is the index, whatever the size.
        let (small, large) = (pick_probes(1_000, 0), pick_probes(16_000, 0));
        assert_eq!(small, large);
        assert!(large <= 2, "{large} probes with nothing hidden");
        // One block missing: each of its ten ids costs one binary search,
        // so 16× the items is at most log2(16) = 4 more probes apiece.
        let (small, large) = (pick_probes(1_000, 1), pick_probes(16_000, 1));
        assert!(
            large <= small + 10 * 4,
            "16,000 items: {large} probes, 1,000 items: {small}"
        );
    }
}
