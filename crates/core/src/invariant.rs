//! Run-time safety invariants checked under fault injection.
//!
//! [`InvariantChecker`] is consulted by [`crate::network::EdgeNetwork`]
//! after every simulation event whenever a fault plan is active. It
//! distinguishes two severities:
//!
//! * **Hard violations** (counted in [`InvariantChecker::violations`]) —
//!   states the protocol must never reach, no matter what the fault plan
//!   does, as long as one honest node survives:
//!   * *durable loss*: a valid data item with **zero** copies on honest
//!     nodes, counting crashed nodes too (a crash makes storage
//!     unavailable but never wipes it, so the only honest-copy count that
//!     can legitimately hit zero is the live one);
//!   * *prefix inconsistency*: a node whose recovered view of the chain
//!     is not a contiguous prefix of the canonical chain, or which claims
//!     blocks the canonical chain never produced.
//! * **Transient degradation** — a valid item with zero *live* honest
//!   copies (every replica holder and the producer currently crashed).
//!   This is survivable: the copies come back when the nodes restart. It
//!   is metered as `under_replicated_item_seconds` and feeds the
//!   availability figure rather than tripping the checker.

use crate::chain::Blockchain;
use crate::metadata::MetadataItem;
use crate::storage::NodeStorage;
use edgechain_sim::{NodeId, SimTime, Topology};

/// Tracks replica-durability and chain-prefix invariants across a run.
///
/// Feed it an [`InvariantView`] of the live network after each event via
/// [`InvariantChecker::observe`]; read the accumulated counters at the end
/// of the run.
#[derive(Debug, Clone)]
pub struct InvariantChecker {
    /// Hard invariant violations observed so far (should stay 0).
    pub violations: u64,
    /// Integral of (valid items with zero live honest copies) over time,
    /// in item-seconds.
    pub under_replicated_item_seconds: f64,
    last_observe: SimTime,
    under_replicated_now: usize,
}

/// A borrowed snapshot of the network state the checker needs.
pub struct InvariantView<'a> {
    /// Current topology (activity flags included).
    pub topo: &'a Topology,
    /// Per-node storage managers (indexed by node id).
    pub storage: &'a [NodeStorage],
    /// Per-node malicious flags.
    pub malicious: &'a [bool],
    /// Valid data items under protection: `(metadata, producer node)`.
    pub items: &'a [(MetadataItem, Option<NodeId>)],
    /// Canonical chain height.
    pub chain_height: u64,
    /// Highest contiguous block index per node.
    pub node_height: &'a [u64],
    /// Highest block index each node has seen at all.
    pub node_max_known: &'a [u64],
    /// Items present in the live registry whose `DataId` was already
    /// expired and swept. Expiry is final: a swept item reappearing means
    /// the lifecycle resurrected finalized state (each one is a hard
    /// violation).
    pub resurrected_items: u64,
    /// Per-node fork state, present only when a Byzantine adversary engine
    /// is live (honest runs never fork, so there is nothing to check).
    pub forks: Option<ForkView<'a>>,
}

/// Per-node chain views checked for fork-safety under Byzantine faults.
pub struct ForkView<'a> {
    /// The canonical (longest adopted) chain.
    pub canonical: &'a Blockchain,
    /// Each node's locally adopted chain, indexed by node id.
    pub node_chains: &'a [Blockchain],
    /// Which nodes are honest (no Byzantine role); only honest views are
    /// held to the fork invariants.
    pub honest: &'a [bool],
    /// Checkpoint spacing in blocks: reorgs never cross a checkpoint, and
    /// honest tips must rejoin the canonical chain within this many
    /// blocks.
    pub checkpoint_interval: u64,
}

impl InvariantChecker {
    /// A fresh checker starting its clock at `start`.
    pub fn new(start: SimTime) -> Self {
        InvariantChecker {
            violations: 0,
            under_replicated_item_seconds: 0.0,
            last_observe: start,
            under_replicated_now: 0,
        }
    }

    /// Closes the elapsed interval against the previous observation and
    /// re-evaluates every invariant on the given snapshot.
    pub fn observe(&mut self, now: SimTime, view: &InvariantView<'_>) {
        self.observe_with(now, view, std::iter::empty());
    }

    /// [`InvariantChecker::observe`] that also walks `more` items after
    /// `view.items`, by reference: the live network hands over its
    /// registry's valid entries in place ([`valid_entries`]) instead of
    /// cloning them into `view.items`.
    pub(crate) fn observe_with<'i>(
        &mut self,
        now: SimTime,
        view: &InvariantView<'i>,
        more: impl Iterator<Item = (&'i MetadataItem, Option<NodeId>)>,
    ) {
        let dt = now.saturating_since(self.last_observe).as_secs_f64();
        self.under_replicated_item_seconds += self.under_replicated_now as f64 * dt;
        self.last_observe = now;

        let mut zero_live = 0usize;
        let own = view.items.iter().map(|(item, producer)| (item, *producer));
        for (item, producer) in own.chain(more) {
            let (durable, live) = Self::honest_copies(view, item, producer);
            if durable == 0 {
                // Crashes never wipe disks, so this can only be a protocol
                // bug (e.g. eviction of the last replica of a valid item).
                self.violations += 1;
            } else if live == 0 {
                zero_live += 1;
            }
        }
        self.under_replicated_now = zero_live;

        // Expired-and-swept data is finalized; the registry re-listing such
        // an id means pruning or a reorg resurrected dead state.
        self.violations += view.resurrected_items;

        for v in 0..view.node_height.len() {
            // A node's contiguous height and everything it has recovered
            // must stay within the canonical chain: heights beyond the tip
            // or "known" blocks nobody mined mean recovery corrupted the
            // node's prefix.
            if view.node_height[v] > view.chain_height
                || view.node_max_known[v] > view.chain_height
                || view.node_height[v] > view.node_max_known[v]
            {
                self.violations += 1;
            }
        }

        if let Some(forks) = &view.forks {
            self.observe_forks(forks);
        }
    }

    /// Fork-safety rules for honest per-node chain views:
    ///
    /// 1. *Checkpoint finality*: no honest node finalizes a block below
    ///    checkpoint depth that conflicts with the canonical chain — every
    ///    honest chain's latest checkpoint block must equal the canonical
    ///    block at that height.
    /// 2. *Bounded divergence*: every honest tip rejoins the canonical
    ///    chain within one checkpoint interval — walking back at most
    ///    `checkpoint_interval` blocks from an honest tip must reach a
    ///    block the canonical chain also contains: a retained one, or the
    ///    block its anchor stands for (the anchor carries that block's
    ///    hash at its height).
    /// 3. *Pruned-prefix integrity*: a node chain that pruned its prefix
    ///    into a [`crate::chain::ChainAnchor`] must carry the exact Merkle
    ///    commitment the canonical chain recorded at the same cut height,
    ///    and its retained blocks must start right above the anchor.
    ///
    /// Nodes whose entire view sits below the canonical pruned base are
    /// skipped: every block they could be compared on is gone, and the
    /// snapshot-bootstrap path (not fork choice) is responsible for them.
    fn observe_forks(&mut self, forks: &ForkView<'_>) {
        let interval = forks.checkpoint_interval.max(1);
        let anchor = forks.canonical.anchor();
        for (v, chain) in forks.node_chains.iter().enumerate() {
            if !forks.honest[v] {
                continue;
            }
            if let Some(a) = chain.anchor() {
                if forks.canonical.commitment_at(a.height) != Some(a.commitment) {
                    self.violations += 1;
                }
                if chain.base_index() != a.height + 1 {
                    self.violations += 1;
                }
            }
            if chain.height() < forks.canonical.base_index() {
                continue;
            }
            let cp = (chain.height() / interval) * interval;
            match (chain.get(cp), forks.canonical.get(cp)) {
                (Some(ours), Some(canon)) if ours.hash != canon.hash => {
                    self.violations += 1;
                }
                _ => {}
            }
            let tip = chain.height();
            let floor = tip.saturating_sub(interval);
            let canonical_hash = |h: u64| match forks.canonical.get(h) {
                Some(b) => Some(b.hash),
                None => anchor.filter(|a| a.height == h).map(|a| a.tip_hash),
            };
            let rejoined = (floor..=tip).rev().any(|h| {
                matches!(
                    (chain.get(h), canonical_hash(h)),
                    (Some(a), Some(b)) if a.hash == b
                )
            });
            if !rejoined {
                self.violations += 1;
            }
        }
    }

    /// Counts `(durable, live)` honest copies of one item. The producer's
    /// origin copy always exists (producers keep their own data), so it
    /// counts even without a [`NodeStorage`] entry.
    fn honest_copies(
        view: &InvariantView<'_>,
        item: &MetadataItem,
        producer: Option<NodeId>,
    ) -> (usize, usize) {
        let mut durable = 0usize;
        let mut live = 0usize;
        let mut count = |v: NodeId, has: bool| {
            if has && !view.malicious[v.0] {
                durable += 1;
                if view.topo.is_active(v) {
                    live += 1;
                }
            }
        };
        for &h in &item.storing_nodes {
            if Some(h) != producer {
                count(h, view.storage[h.0].has_data(item.data_id));
            }
        }
        if let Some(p) = producer {
            // Malicious producers still serve their own data (§III-B.2's
            // denial model only covers third-party storers), so the origin
            // copy counts unconditionally.
            durable += 1;
            if view.topo.is_active(p) {
                live += 1;
            }
        }
        (durable, live)
    }

    /// Number of items with zero live honest copies at the last
    /// observation.
    pub fn under_replicated_now(&self) -> usize {
        self.under_replicated_now
    }
}

/// Convenience: builds the `items` vector for [`InvariantView`] from a
/// registry iterator, keeping only items valid at `now`, in the
/// iterator's order (the checker only counts, so any order will do).
pub fn valid_items<'a, I>(
    registry: I,
    now_secs: u64,
    producer_of: impl Fn(&MetadataItem) -> Option<NodeId>,
) -> Vec<(MetadataItem, Option<NodeId>)>
where
    I: Iterator<Item = &'a (MetadataItem, u64)>,
{
    valid_entries(registry, now_secs, producer_of)
        .map(|(m, producer)| (m.clone(), producer))
        .collect()
}

/// [`valid_items`] by reference: the registry's entries valid at
/// `now_secs`, each with its producer node, in the iterator's order.
pub(crate) fn valid_entries<'a>(
    registry: impl Iterator<Item = &'a (MetadataItem, u64)>,
    now_secs: u64,
    producer_of: impl Fn(&MetadataItem) -> Option<NodeId>,
) -> impl Iterator<Item = (&'a MetadataItem, Option<NodeId>)> {
    registry
        .filter(move |(m, _)| m.is_valid_at(now_secs))
        .map(move |(m, _)| (m, producer_of(m)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::{DataId, DataType, Location};
    use edgechain_sim::Point;

    fn item(id: u64, storers: Vec<NodeId>) -> MetadataItem {
        let identity = crate::account::Identity::from_seed(42);
        let mut m = MetadataItem::new_signed(
            identity.keys(),
            DataId(id),
            DataType::Sensing("PM2.5".into()),
            0,
            Location {
                label: "t".into(),
                x: 0.0,
                y: 0.0,
            },
            60,
            None,
            1_000,
        );
        m.storing_nodes = storers;
        m
    }

    fn line(n: usize) -> Topology {
        Topology::from_positions((0..n).map(|i| Point::new(i as f64 * 60.0, 0.0)).collect())
    }

    #[test]
    fn crashed_replicas_degrade_but_do_not_violate() {
        let mut topo = line(3);
        let mut storage = vec![NodeStorage::new(10); 3];
        storage[1].store_data(DataId(0));
        let items = vec![(item(0, vec![NodeId(1)]), None)];
        let malicious = vec![false; 3];
        let mut checker = InvariantChecker::new(SimTime::ZERO);
        fn view<'a>(
            topo: &'a Topology,
            storage: &'a [NodeStorage],
            malicious: &'a [bool],
            items: &'a [(MetadataItem, Option<NodeId>)],
        ) -> InvariantView<'a> {
            InvariantView {
                topo,
                storage,
                malicious,
                items,
                chain_height: 0,
                node_height: &[0, 0, 0],
                node_max_known: &[0, 0, 0],
                resurrected_items: 0,
                forks: None,
            }
        }
        checker.observe(SimTime::ZERO, &view(&topo, &storage, &malicious, &items));
        assert_eq!(checker.violations, 0);
        assert_eq!(checker.under_replicated_now(), 0);

        // Crash the only holder: transiently unavailable, not lost.
        topo.set_active(NodeId(1), false);
        checker.observe(
            SimTime::from_secs(10),
            &view(&topo, &storage, &malicious, &items),
        );
        assert_eq!(checker.violations, 0);
        assert_eq!(checker.under_replicated_now(), 1);

        // Ten more seconds of downtime accrue item-seconds.
        checker.observe(
            SimTime::from_secs(20),
            &view(&topo, &storage, &malicious, &items),
        );
        assert!((checker.under_replicated_item_seconds - 10.0).abs() < 1e-9);

        // Restart: availability restored, meter stops.
        topo.set_active(NodeId(1), true);
        checker.observe(
            SimTime::from_secs(25),
            &view(&topo, &storage, &malicious, &items),
        );
        assert_eq!(checker.under_replicated_now(), 0);
        assert_eq!(checker.violations, 0);
    }

    #[test]
    fn wiped_last_copy_is_a_hard_violation() {
        let topo = line(2);
        let storage = vec![NodeStorage::new(10); 2]; // nobody stored it
        let items = vec![(item(0, vec![NodeId(1)]), None)];
        let malicious = vec![false; 2];
        let mut checker = InvariantChecker::new(SimTime::ZERO);
        checker.observe(
            SimTime::from_secs(1),
            &InvariantView {
                topo: &topo,
                storage: &storage,
                malicious: &malicious,
                items: &items,
                chain_height: 0,
                node_height: &[0, 0],
                node_max_known: &[0, 0],
                resurrected_items: 0,
                forks: None,
            },
        );
        assert_eq!(checker.violations, 1);
    }

    #[test]
    fn producer_origin_copy_protects_the_item() {
        let topo = line(2);
        let storage = vec![NodeStorage::new(10); 2]; // no replica stored
        let items = vec![(item(0, vec![NodeId(1)]), Some(NodeId(0)))];
        let malicious = vec![false; 2];
        let mut checker = InvariantChecker::new(SimTime::ZERO);
        checker.observe(
            SimTime::from_secs(1),
            &InvariantView {
                topo: &topo,
                storage: &storage,
                malicious: &malicious,
                items: &items,
                chain_height: 0,
                node_height: &[0, 0],
                node_max_known: &[0, 0],
                resurrected_items: 0,
                forks: None,
            },
        );
        assert_eq!(checker.violations, 0);
    }

    #[test]
    fn height_beyond_canonical_chain_is_a_violation() {
        let topo = line(2);
        let storage = vec![NodeStorage::new(10); 2];
        let malicious = vec![false; 2];
        let mut checker = InvariantChecker::new(SimTime::ZERO);
        checker.observe(
            SimTime::from_secs(1),
            &InvariantView {
                topo: &topo,
                storage: &storage,
                malicious: &malicious,
                items: &[],
                chain_height: 3,
                node_height: &[5, 2],
                node_max_known: &[5, 3],
                resurrected_items: 0,
                forks: None,
            },
        );
        assert_eq!(checker.violations, 1);
    }

    #[test]
    fn resurrected_items_are_hard_violations() {
        let topo = line(2);
        let storage = vec![NodeStorage::new(10); 2];
        let malicious = vec![false; 2];
        let mut checker = InvariantChecker::new(SimTime::ZERO);
        checker.observe(
            SimTime::from_secs(1),
            &InvariantView {
                topo: &topo,
                storage: &storage,
                malicious: &malicious,
                items: &[],
                chain_height: 0,
                node_height: &[0, 0],
                node_max_known: &[0, 0],
                resurrected_items: 2,
                forks: None,
            },
        );
        assert_eq!(checker.violations, 2);
    }

    #[test]
    fn the_in_place_walk_counts_what_the_cloned_items_count() {
        let mut topo = line(5);
        let mut storage = vec![NodeStorage::new(10); 5];
        // Producer-held: no replica landed, node 0's origin copy protects
        // it. Crashed storer: node 2 holds the only copy and goes down.
        // Malicious storer: node 3's copy is no honest copy. Expired: no
        // copy at all, which would be a violation were it walked.
        let mut expired = item(3, vec![NodeId(4)]);
        expired.valid_minutes = 0;
        let registry = [
            (item(0, vec![NodeId(1)]), 1),
            (item(1, vec![NodeId(2)]), 1),
            (item(2, vec![NodeId(3)]), 2),
            (expired, 2),
        ];
        storage[2].store_data(DataId(1));
        storage[3].store_data(DataId(2));
        let malicious = [false, false, false, true, false];
        let producer_of = |m: &MetadataItem| (m.data_id == DataId(0)).then_some(NodeId(0));
        fn view<'a>(
            topo: &'a Topology,
            storage: &'a [NodeStorage],
            malicious: &'a [bool],
            items: &'a [(MetadataItem, Option<NodeId>)],
        ) -> InvariantView<'a> {
            InvariantView {
                topo,
                storage,
                malicious,
                items,
                chain_height: 0,
                node_height: &[0; 5],
                node_max_known: &[0; 5],
                resurrected_items: 0,
                forks: None,
            }
        }
        let mut cloned = InvariantChecker::new(SimTime::ZERO);
        let mut walked = InvariantChecker::new(SimTime::ZERO);
        for secs in [10, 25, 40] {
            if secs == 25 {
                topo.set_active(NodeId(2), false);
            }
            let now = SimTime::from_secs(secs);
            let items = valid_items(registry.iter(), secs, producer_of);
            cloned.observe(now, &view(&topo, &storage, &malicious, &items));
            let entries = valid_entries(registry.iter(), secs, producer_of);
            walked.observe_with(now, &view(&topo, &storage, &malicious, &[]), entries);
            assert_eq!(walked.violations, cloned.violations);
            assert_eq!(walked.under_replicated_now(), cloned.under_replicated_now());
            assert_eq!(
                walked.under_replicated_item_seconds.to_bits(),
                cloned.under_replicated_item_seconds.to_bits()
            );
        }
        // One violation per observation (the malicious storer's item), the
        // crashed storer's item under-replicated for the last 15 s.
        assert_eq!(walked.violations, 3);
        assert_eq!(walked.under_replicated_now(), 1);
        assert!((walked.under_replicated_item_seconds - 15.0).abs() < 1e-9);
    }

    fn mined(prev: &crate::block::Block, seed: u64, ts: u64) -> crate::block::Block {
        let account = crate::account::Identity::from_seed(seed).account();
        crate::block::Block::new(
            prev.index + 1,
            prev.hash,
            ts,
            crate::pos::next_pos_hash(&prev.pos_hash, &account),
            account,
            60,
            crate::pos::Amendment::from_fraction(1, 1000),
            Vec::new(),
            vec![NodeId(0)],
            prev.storing_nodes.clone(),
            Vec::new(),
        )
    }

    #[test]
    fn fork_rules_catch_checkpoint_conflicts_and_unbounded_divergence() {
        let mut canonical = Blockchain::new();
        for i in 0..6u64 {
            let b = mined(canonical.tip(), i % 2, (i + 1) * 60);
            canonical.push(b).unwrap();
        }
        // Node 0: exact copy (fine). Node 1: lagging prefix (fine).
        // Node 2: diverges at height 5 only (within the interval bound).
        let lagging = Blockchain::from_blocks(canonical.as_slice()[..4].to_vec()).unwrap();
        let mut near_fork = Blockchain::from_blocks(canonical.as_slice()[..5].to_vec()).unwrap();
        near_fork.push(mined(near_fork.tip(), 3, 900)).unwrap();
        // Node 3: diverges from genesis — both a checkpoint conflict (its
        // checkpoint block at height 2 disagrees) and unbounded divergence.
        let mut alien = Blockchain::new();
        for i in 0..4u64 {
            let b = mined(alien.tip(), 9, (i + 1) * 60 + 7);
            alien.push(b).unwrap();
        }
        let chains = vec![canonical.clone(), lagging, near_fork, alien];
        let topo = line(4);
        let storage = vec![NodeStorage::new(10); 4];
        let malicious = vec![false; 4];
        let view = |honest: &'static [bool]| InvariantView {
            topo: &topo,
            storage: &storage,
            malicious: &malicious,
            items: &[],
            chain_height: 6,
            node_height: &[6, 3, 4, 0],
            node_max_known: &[6, 3, 5, 0],
            resurrected_items: 0,
            forks: Some(ForkView {
                canonical: &canonical,
                node_chains: &chains,
                honest,
                checkpoint_interval: 2,
            }),
        };
        let mut checker = InvariantChecker::new(SimTime::ZERO);
        checker.observe(SimTime::from_secs(1), &view(&[true, true, true, false]));
        assert_eq!(checker.violations, 0, "bounded forks by honest nodes pass");
        let mut strict = InvariantChecker::new(SimTime::ZERO);
        strict.observe(SimTime::from_secs(1), &view(&[true, true, true, true]));
        assert_eq!(
            strict.violations, 2,
            "an honest node on an alien fork trips both fork rules"
        );
    }

    #[test]
    fn pruned_prefix_rules_check_anchors_and_skip_deep_laggards() {
        let identity = crate::account::Identity::from_seed(42);
        let mut canonical = Blockchain::new();
        for i in 0..8u64 {
            let b = mined(canonical.tip(), i % 2, (i + 1) * 60);
            canonical.push(b).unwrap();
        }
        let full = canonical.clone();
        canonical.prune_below(5, identity.keys());
        let anchor = canonical.anchor().unwrap().clone();

        // Node 0 pruned in lockstep (shares the canonical anchor): clean.
        // Node 1 is a deep laggard entirely below the pruned base: the
        // fork rules cannot compare it against pruned blocks, so it is
        // skipped rather than flagged — snapshot bootstrap owns it.
        // Node 2 carries an anchor whose Merkle commitment disagrees with
        // the canonical history at the same cut: one hard violation.
        let pruned =
            Blockchain::from_anchor(anchor.clone(), canonical.as_slice().to_vec()).unwrap();
        let laggard = Blockchain::from_blocks(full.as_slice()[..3].to_vec()).unwrap();
        let mut forged_anchor = anchor;
        forged_anchor.commitment = edgechain_crypto::sha256(b"not the pruned history");
        let forged = Blockchain::from_anchor(forged_anchor, canonical.as_slice().to_vec()).unwrap();

        let chains = vec![pruned, laggard, forged];
        let topo = line(3);
        let storage = vec![NodeStorage::new(10); 3];
        let malicious = vec![false; 3];
        let mut checker = InvariantChecker::new(SimTime::ZERO);
        checker.observe(
            SimTime::from_secs(1),
            &InvariantView {
                topo: &topo,
                storage: &storage,
                malicious: &malicious,
                items: &[],
                chain_height: 8,
                node_height: &[8, 2, 8],
                node_max_known: &[8, 2, 8],
                resurrected_items: 0,
                forks: Some(ForkView {
                    canonical: &canonical,
                    node_chains: &chains,
                    honest: &[true, true, true],
                    checkpoint_interval: 2,
                }),
            },
        );
        assert_eq!(
            checker.violations, 1,
            "only the forged anchor commitment trips the checker"
        );
    }

    /// Violations when one honest node holds `view`, observed once.
    fn fork_violations(canonical: &Blockchain, view: &Blockchain, interval: u64) -> u64 {
        let topo = line(1);
        let storage = vec![NodeStorage::new(10)];
        let mut checker = InvariantChecker::new(SimTime::ZERO);
        checker.observe(
            SimTime::from_secs(1),
            &InvariantView {
                topo: &topo,
                storage: &storage,
                malicious: &[false],
                items: &[],
                chain_height: canonical.height(),
                node_height: &[0],
                node_max_known: &[0],
                resurrected_items: 0,
                forks: Some(ForkView {
                    canonical,
                    node_chains: std::slice::from_ref(view),
                    honest: &[true],
                    checkpoint_interval: interval,
                }),
            },
        );
        checker.violations
    }

    /// The first `len` canonical blocks, then `off` blocks off the trunk.
    fn off_trunk(full: &Blockchain, len: usize, off: u64) -> Blockchain {
        let mut view = Blockchain::from_blocks(full.as_slice()[..len].to_vec()).unwrap();
        for i in 0..off {
            let b = mined(view.tip(), 7, 10_000 + i * 60);
            view.push(b).unwrap();
        }
        view
    }

    #[test]
    fn the_anchors_block_counts_as_shared_after_the_prune() {
        let identity = crate::account::Identity::from_seed(42);
        let mut canonical = Blockchain::new();
        for i in 0..8u64 {
            let b = mined(canonical.tip(), i % 2, (i + 1) * 60);
            canonical.push(b).unwrap();
        }
        // Canonical blocks 0–5, then a sibling of block 6: one block off
        // the trunk, its block at height 5 canonical.
        let view = off_trunk(&canonical, 6, 1);
        assert_eq!(fork_violations(&canonical, &view, 4), 0);
        // The prune to base 6 makes block 5 the anchor's: the view still
        // shares it, one block below its tip.
        canonical.prune_below(6, identity.keys());
        assert_eq!(canonical.anchor().unwrap().height, 5);
        assert_eq!(
            fork_violations(&canonical, &view, 4),
            0,
            "a view one block off the trunk rejoins at the anchor's block"
        );
    }

    #[test]
    fn a_shared_block_below_the_interval_still_counts_across_an_anchor() {
        let identity = crate::account::Identity::from_seed(42);
        let mut canonical = Blockchain::new();
        for i in 0..7u64 {
            let b = mined(canonical.tip(), i % 2, (i + 1) * 60);
            canonical.push(b).unwrap();
        }
        // Canonical blocks 0–5, then five blocks off the trunk: after the
        // prune to base 6 the anchor's block 5 is shared, but five blocks
        // below the tip at 10.
        let view = off_trunk(&canonical, 6, 5);
        assert_eq!(view.height(), 10);
        canonical.prune_below(6, identity.keys());
        assert_eq!(
            fork_violations(&canonical, &view, 4),
            1,
            "the anchor's block rejoins only within one interval of the tip"
        );
    }
}
