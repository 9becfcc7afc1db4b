//! The §IV-D access protocols: data fetch through metadata, recovery of
//! missing blocks from a neighbour's cache, snapshot bootstrap for a node
//! that fell behind the pruned base, and the miner's replica-repair sweep —
//! all routing around §III-B.2's denying storers.
//!
//! [`Access`] owns the state only these paths use: who denies service,
//! the `(data, storer)` pairs published invalid and the `(rejoiner,
//! server)` snapshot blacklist; the latency samples go to [`SloMonitor`].
//! Each walk is
//! stepped with a [`Lent`]: the network state it reads or writes, lent for
//! one event by disjoint field borrows of
//! [`crate::network::EdgeNetwork`]. A walk that must judge — a denial
//! strike, a snapshot tamper and its conviction — takes the adversary's
//! [`Court`] from the same borrows ([`Lent::adversary`]), the engine's one
//! way in.
//!
//! Every walk asks providers in one order ([`nearest_providers`]) over one
//! request–reply round trip ([`Lent::request_reply`]), and one that found
//! no answering source queues one `Retry` event behind the shared backoff
//! ([`Lent::schedule_retry`]).

use crate::account::{AccountId, Identity, Ledger};
use crate::admission::Admission;
use crate::alloc::AllocationContext;
use crate::block::Block;
use crate::byzantine::{ByzantineEngine, Court};
use crate::catalogue::Catalogue;
use crate::chain::{Blockchain, Snapshot};
use crate::metadata::{DataId, MetadataItem};
use crate::network::{Event, NetworkConfig};
use crate::report::RunReport;
use crate::slo::SloMonitor;
use crate::spans::SpanTracker;
use crate::storage::NodeStorage;
use edgechain_sim::{EventQueue, NodeId, SimTime, Topology, Transport};
use edgechain_telemetry::{self as telemetry, trace_event};
use rand::rngs::StdRng;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Wire size of a data request message.
const DATA_REQUEST_BYTES: u64 = 256;
/// Wire size of a missing-block request message.
const BLOCK_REQUEST_BYTES: u64 = 128;
/// How long a requester waits before concluding a storer denied service.
const DENIAL_TIMEOUT: SimTime = SimTime::from_secs(1);

/// What a scheduled retry asks for again.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Want {
    /// A data fetch that found no answering source.
    Data(DataId),
    /// The node's missing blocks, block by block or as a snapshot.
    Blocks,
}

/// Which leg of a request–reply round trip came to nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Miss {
    /// The request was lost on the way to the server.
    Request,
    /// The server heard the request at this instant; its reply was lost.
    Reply(SimTime),
    /// The server heard the request at this instant and silently denied it.
    Denied(SimTime),
}

impl Miss {
    /// The `fetch.attempt` outcome this miss reads as.
    pub(crate) fn outcome(self) -> &'static str {
        match self {
            Miss::Request => "send_drop",
            Miss::Reply(_) => "reply_drop",
            Miss::Denied(_) => "denied",
        }
    }
}

/// The network state an access walk reads or writes, lent for one event by
/// disjoint field borrows of [`crate::network::EdgeNetwork`] (the fields
/// of the same name there).
pub(crate) struct Lent<'a> {
    pub(crate) config: &'a NetworkConfig,
    pub(crate) topo: &'a Topology,
    pub(crate) transport: &'a mut Transport,
    pub(crate) queue: &'a mut EventQueue<Event>,
    pub(crate) admission: &'a mut Admission,
    pub(crate) storage: &'a mut [NodeStorage],
    pub(crate) catalogue: &'a mut Catalogue,
    pub(crate) chain: &'a Blockchain,
    pub(crate) node_height: &'a mut [u64],
    pub(crate) node_known: &'a mut [BTreeSet<u64>],
    pub(crate) identities: &'a [Identity],
    pub(crate) account_of: &'a [AccountId],
    pub(crate) node_of_account: &'a HashMap<AccountId, NodeId>,
    pub(crate) ledger: &'a mut Ledger,
    pub(crate) alloc: &'a mut AllocationContext,
    pub(crate) rng: &'a mut StdRng,
    pub(crate) report: &'a mut RunReport,
    pub(crate) slo: &'a mut SloMonitor,
    pub(crate) spans: &'a mut SpanTracker,
    pub(crate) byz: Option<&'a mut ByzantineEngine>,
}

/// The §IV-D access rule shared by data fetches, block recovery, snapshot
/// bootstrap and repair copies: how `v` ranks `h` as a provider — nearest
/// first, hop ties broken by lowest node id — or `None` for `v` itself and
/// for nodes it cannot reach.
pub(crate) fn provider_rank(topo: &Topology, v: NodeId, h: NodeId) -> Option<(u32, NodeId)> {
    (h != v && topo.reachable(v, h)).then(|| (topo.hops(v, h), h))
}

/// `candidates` in the order `v` asks them ([`provider_rank`]).
pub(crate) fn nearest_providers(
    topo: &Topology,
    v: NodeId,
    candidates: impl Iterator<Item = NodeId>,
) -> Vec<NodeId> {
    let mut ranked: Vec<_> = candidates
        .filter_map(|h| provider_rank(topo, v, h))
        .collect();
    ranked.sort_unstable();
    ranked.into_iter().map(|(_, h)| h).collect()
}

/// Records that `v` holds block `idx`. `v` holds every block up to its
/// contiguous `height`, so its `known` set keeps only the blocks past it:
/// the height runs on through every block that joins it, and the set
/// drops what the height covers — after a prune lifted the height onto
/// the anchor, learning the anchor's block sheds the entries below the cut.
/// A block that joins the height with nothing past it held — the common
/// in-order delivery — never touches the set.
pub(crate) fn learn(height: &mut [u64], known: &mut [BTreeSet<u64>], v: NodeId, idx: u64) {
    let (height, known) = (&mut height[v.0], &mut known[v.0]);
    if known.is_empty() && idx <= *height + 1 {
        *height = (*height).max(idx);
        return;
    }
    known.insert(idx);
    while let Some(next) = known.first().copied().filter(|&i| i <= *height + 1) {
        known.pop_first();
        *height = (*height).max(next);
    }
}

impl Lent<'_> {
    /// The adversary engine with the [`Court`] it judges in, lent from this
    /// context's own borrows — the one way into the engine. `None` on
    /// honest runs.
    pub(crate) fn adversary(&mut self) -> Option<(&mut ByzantineEngine, Court<'_>)> {
        let engine = self.byz.as_deref_mut()?;
        let court = Court {
            canonical: self.chain,
            node_height: self.node_height,
            ledger: self.ledger,
            account_of: self.account_of,
            node_of_account: self.node_of_account,
            report: self.report,
            spans: self.spans,
        };
        Some((engine, court))
    }

    /// Whether requesters still accept `h` as a source at `now`: a
    /// quarantined node is as good as dead to them.
    pub(crate) fn may_serve(&self, h: NodeId, now: SimTime) -> bool {
        self.byz.as_ref().is_none_or(|e| !e.is_quarantined(h, now))
    }

    /// One request–reply round trip: `v` sends `server` a request of
    /// `bytes` at `at`, and `serve` — run only once the request got through
    /// — sizes the reply and hands back what it carries, or `None` when
    /// the server silently denies. Returns the reply's arrival with that
    /// content, or which leg came to nothing.
    pub(crate) fn request_reply<T>(
        &mut self,
        v: NodeId,
        server: NodeId,
        bytes: u64,
        at: SimTime,
        serve: impl FnOnce(&mut Self) -> Option<(u64, T)>,
    ) -> Result<(SimTime, T), Miss> {
        let req = self
            .transport
            .unicast(self.topo, v, server, bytes, at)
            .map_err(|_| Miss::Request)?;
        let (reply_bytes, served) = serve(self).ok_or(Miss::Denied(req.arrival))?;
        let resp = self
            .transport
            .unicast(self.topo, server, v, reply_bytes, req.arrival)
            .map_err(|_| Miss::Reply(req.arrival))?;
        Ok((resp.arrival, served))
    }

    /// The one retry schedule behind fetches, block recoveries and
    /// snapshot bootstraps that found no answering source: while
    /// [`Admission::retry_delay`] grants one (attempts remain and the
    /// global retry budget allows), counts the retry and queues `want`
    /// again at `attempt + 1` after the backoff. Returns whether a retry
    /// was queued; `false` is terminal.
    pub(crate) fn schedule_retry(
        &mut self,
        node: NodeId,
        attempt: u32,
        now: SimTime,
        op: &'static str,
        want: Want,
    ) -> bool {
        let Some(backoff) = self.admission.retry_delay(attempt, now) else {
            return false;
        };
        let attempt = attempt + 1;
        self.report.retries += 1;
        trace_event!(
            "transport.retry",
            now.as_millis(),
            node = node.0,
            attempt = attempt,
            op = op
        );
        let retry = Event::Retry {
            node,
            attempt,
            want,
        };
        self.queue.schedule(now + backoff, retry);
        true
    }

    /// Books one served recovery (a block, or a whole snapshot).
    fn book_recovery(&mut self, v: NodeId, server: NodeId, now: SimTime, arrival: SimTime) {
        self.report
            .recovery
            .record(arrival.saturating_since(now).as_secs_f64());
        self.report
            .recovery_hops
            .record(self.topo.hops(v, server) as f64);
    }

    /// Books one completed request that took `secs` and resolved at `at`.
    fn book_delivery(&mut self, at: SimTime, secs: f64) {
        self.slo.record_fetch(at.as_millis(), secs);
    }

    /// Books one fetch that resolved without the data at `at`, closing its
    /// span with `outcome`. The caller traces the failure under its own
    /// name first.
    pub(crate) fn book_failure(
        &mut self,
        at: SimTime,
        requester: NodeId,
        id: DataId,
        outcome: &'static str,
    ) {
        self.slo.record_failure(at.as_millis());
        self.spans.fetch_closed(at, requester, id, outcome);
    }

    /// UFL-driven replica repair: for every valid item whose *live*
    /// replica count fell below its allocation target (a crash took
    /// holders offline, or dissemination never reached them), the miner
    /// re-runs the storage allocation over the surviving nodes and copies
    /// the data from the nearest live source to the newly chosen storers.
    /// The copies ride the transport like any other traffic, so repair
    /// cost lands in the overhead and energy metrics.
    pub(crate) fn repair_replicas(&mut self, now: SimTime) {
        // Fault-free closed-loop runs never under-replicate, so the sweep
        // is skipped unless faults are in play — or the open workload is
        // on, where deferred dissemination (ladder L2) leaves gaps the
        // sweep must close once load subsides.
        if !self.config.replica_repair
            || (self.config.fault_plan.is_empty() && !self.config.workload.enabled)
        {
            return;
        }
        let ids: Vec<DataId> = self.catalogue.ids().collect();
        let mut sweep_repaired = 0u64;
        let mut sweep_copies = 0u64;
        for id in ids {
            let Some(item) = self.catalogue.get(id) else {
                continue;
            };
            if !item.is_valid_at(now.as_secs()) {
                continue;
            }
            let target = item.storing_nodes.len();
            if target == 0 {
                continue; // never allocated (NoProactive or unstored)
            }
            let producer = self.node_of_account.get(&item.producer).copied();
            let data_size = item.data_size;
            let assigned = item.storing_nodes.clone();
            // A quarantined storer is as good as dead to requesters (they
            // refuse to fetch from it), so it does not count toward the
            // replication target and the sweep re-replicates around it.
            let live_holders: Vec<NodeId> = assigned
                .iter()
                .copied()
                .filter(|&h| {
                    self.topo.is_active(h)
                        && (self.storage[h.0].has_data(id) || Some(h) == producer)
                        && self.may_serve(h, now)
                })
                .collect();
            if live_holders.len() >= target {
                continue;
            }
            // Any live replica or the producer's origin copy can seed the
            // new replicas; with none alive the item waits for a restart.
            let mut sources = live_holders;
            if let Some(p) = producer {
                if self.topo.is_active(p) && !sources.contains(&p) {
                    sources.push(p);
                }
            }
            if sources.is_empty() {
                continue;
            }
            let origin = producer
                .filter(|&p| self.topo.is_active(p))
                .unwrap_or(sources[0]);
            let placement = self.config.placement;
            let chosen = self
                .alloc
                .select(placement, origin, self.topo, self.storage, self.rng);
            let Ok(new_set) = chosen else {
                continue;
            };
            // A live holder either has the item on disk, which the copy
            // loop skips, or is the producer, whose origin copy stays off
            // its disk.
            let fresh = new_set.into_iter().filter(|&s| Some(s) != producer);
            let (copies, last_copy) = self.copy_replicas(id, data_size, &sources, fresh, now);
            if copies > 0 {
                sweep_copies += copies;
                self.report.repairs_triggered += 1;
                sweep_repaired += 1;
                self.spans.repair(now, id, last_copy);
                self.refresh_storers(id);
            }
        }
        if sweep_repaired > 0 {
            telemetry::counter_add("repair.copies", sweep_copies);
            trace_event!(
                "repair.sweep",
                now.as_millis(),
                repaired = sweep_repaired,
                copies = sweep_copies
            );
        }
    }

    /// Copies item `id` (`bytes` long) over the transport to each of
    /// `targets` that [accepts it](NodeStorage::accepts_data), each from its nearest source
    /// among `sources` ([`provider_rank`]). Returns how many copies landed
    /// and when the last one arrived.
    fn copy_replicas(
        &mut self,
        id: DataId,
        bytes: u64,
        sources: &[NodeId],
        targets: impl IntoIterator<Item = NodeId>,
        now: SimTime,
    ) -> (u64, Option<SimTime>) {
        let (mut copies, mut last) = (0, None);
        for s in targets {
            if !self.storage[s.0].accepts_data(id) {
                continue;
            }
            let nearest = sources
                .iter()
                .filter_map(|&c| provider_rank(self.topo, s, c));
            let Some((_, src)) = nearest.min() else {
                continue;
            };
            if let Ok(d) = self.transport.unicast(self.topo, src, s, bytes, now) {
                if self.storage[s.0].store_data(id) {
                    copies += 1;
                    last = last.max(Some(d.arrival));
                }
            }
        }
        (copies, last)
    }

    /// Points the catalogue's holder view of `id` at every node whose disk
    /// holds it: crashed ones keep theirs, and fresh copies just landed.
    fn refresh_storers(&mut self, id: DataId) {
        let holders: Vec<NodeId> = (0..self.config.nodes)
            .map(NodeId)
            .filter(|&v| self.storage[v.0].has_data(id))
            .collect();
        self.catalogue.set_storers(id, holders);
    }
}

/// The access machine's own state; see the module docs.
#[derive(Debug)]
pub(crate) struct Access {
    /// Nodes that accept storage assignments but silently deny serving
    /// data and blocks (paper §III-B.2's malicious model).
    pub(crate) malicious: Vec<bool>,
    /// Globally-known invalidated (data, storer) pairs ("everyone will be
    /// informed of this information", §III-B.2).
    invalid_storers: HashSet<(DataId, NodeId)>,
    /// `(rejoiner, server)` pairs that served a tampered or undecodable
    /// snapshot — never asked again by that rejoiner.
    snapshot_blacklist: HashSet<(NodeId, NodeId)>,
}

impl Access {
    pub(crate) fn new(malicious: Vec<bool>) -> Self {
        Access {
            malicious,
            invalid_storers: HashSet::new(),
            snapshot_blacklist: HashSet::new(),
        }
    }

    /// Tracking entries held: invalidated storers plus blacklisted
    /// snapshot servers.
    pub(crate) fn tracking_entries(&self) -> usize {
        self.invalid_storers.len() + self.snapshot_blacklist.len()
    }

    /// Invalidated-storer records die with their item, keeping the set
    /// O(retention window).
    pub(crate) fn forget_swept(&mut self, catalogue: &Catalogue) {
        self.invalid_storers.retain(|(d, _)| catalogue.contains(*d));
    }

    /// A backoff expired: `node` asks again for what it wanted — unless it
    /// crashed meanwhile, or the item it wanted is gone.
    pub(crate) fn on_retry(
        &mut self,
        cx: &mut Lent<'_>,
        node: NodeId,
        attempt: u32,
        want: Want,
        now: SimTime,
    ) {
        let up = cx.topo.is_active(node);
        let Want::Data(id) = want else {
            if up {
                // Catch up to the canonical tip, then reconcile a view that
                // may still sit on a reorged-away branch.
                let upto = cx.chain.height() + 1;
                self.recover(cx, node, upto, now, attempt);
                if let Some((engine, mut court)) = cx.adversary() {
                    engine.sync(&mut court, now, node);
                }
            }
            return;
        };
        // The retry resolves below or re-enters the backlog with a fresh
        // timer; either way this entry is consumed.
        cx.admission.backlog_pop(node, id.0);
        let closed = match cx.catalogue.get(id) {
            _ if !up => "requester_down",
            Some(item) if item.is_valid_at(now.as_secs()) => {
                let item = item.clone();
                return self.fetch(cx, node, &item, now, attempt);
            }
            Some(_) => "item_expired",
            None => "item_gone",
        };
        cx.spans.fetch_closed(now, node, id, closed);
    }

    /// §IV-D data access: a local copy is free; otherwise the requester
    /// asks the holders nearest first ([`Self::ask_holders`]). When no
    /// source answered at all, it backs off exponentially and retries up
    /// to [`NetworkConfig::fetch_retries`] times before the request counts
    /// as failed.
    pub(crate) fn fetch(
        &mut self,
        cx: &mut Lent<'_>,
        requester: NodeId,
        item: &MetadataItem,
        now: SimTime,
        attempt: u32,
    ) {
        let id = item.data_id;
        cx.spans.fetch_opened(now, requester, id);
        let producer = cx.node_of_account.get(&item.producer).copied();
        if cx.storage[requester.0].has_data(id) || producer == Some(requester) {
            // Local hit: free and instantaneous.
            cx.book_delivery(now, 0.0);
            trace_event!(
                "request.completed",
                now.as_millis(),
                requester = requester.0,
                item = id.0,
                dur_ms = 0_u64
            );
            cx.spans.fetch_closed(now, requester, id, "local");
            return;
        }
        if self.ask_holders(cx, requester, item, producer, now) {
            return;
        }
        // A budget-denied retry goes down the failed path like an
        // exhausted one.
        if cx.schedule_retry(requester, attempt, now, "fetch", Want::Data(id)) {
            cx.admission.backlog_push(requester, id.0);
            cx.spans.fetch_backoff(now, requester, id, attempt + 1);
        } else {
            telemetry::counter_add("request.failed", 1);
            trace_event!(
                "request.failed",
                now.as_millis(),
                requester = requester.0,
                item = id.0
            );
            cx.book_failure(now, requester, id, "failed");
        }
    }

    /// Requests `item` from the nearest node that actually holds it.
    /// Malicious storers silently deny; the requester waits out a timeout,
    /// the `(data, storer)` pair is marked invalid network-wide ("everyone
    /// will be informed", §III-B.2), and the next-nearest holder is tried.
    /// The producer's origin copy is the final fallback. Returns whether a
    /// holder delivered.
    fn ask_holders(
        &mut self,
        cx: &mut Lent<'_>,
        requester: NodeId,
        item: &MetadataItem,
        producer: Option<NodeId>,
        now: SimTime,
    ) -> bool {
        let id = item.data_id;
        let mut holders: Vec<NodeId> = item
            .storing_nodes
            .iter()
            .copied()
            .filter(|&h| cx.storage[h.0].has_data(id))
            .filter(|&h| !self.invalid_storers.contains(&(id, h)))
            .filter(|&h| cx.may_serve(h, now))
            .collect();
        // Paper Fig. 3: consumers fetch from the caching nodes; the
        // producer's origin copy is the fallback, whatever its standing.
        holders.extend(producer.filter(|p| !holders.contains(p)));
        let mut t = now;
        for holder in nearest_providers(cx.topo, requester, holders.into_iter()) {
            let denies = self.malicious[holder.0] && producer != Some(holder);
            let served = cx.request_reply(requester, holder, DATA_REQUEST_BYTES, t, |_| {
                (!denies).then_some((item.data_size, ()))
            });
            let miss = match served {
                Ok((arrival, ())) => {
                    let secs = arrival.saturating_since(now).as_secs_f64();
                    cx.book_delivery(arrival, secs);
                    trace_event!(
                        "request.completed",
                        now.as_millis(),
                        requester = requester.0,
                        item = id.0,
                        storer = holder.0,
                        dur_ms = arrival.saturating_since(now).as_millis()
                    );
                    cx.spans
                        .fetch_attempt(requester, id, t, arrival, holder, "ok");
                    cx.spans.fetch_closed(arrival, requester, id, "completed");
                    return true;
                }
                Err(miss) => miss,
            };
            let until = match miss {
                Miss::Request => t,
                Miss::Reply(heard) => heard,
                Miss::Denied(heard) => heard + DENIAL_TIMEOUT,
            };
            cx.spans
                .fetch_attempt(requester, id, t, until, holder, miss.outcome());
            if let Miss::Denied(_) = miss {
                // No response: the requester waited out the timeout and
                // publishes the denial. Under a Byzantine engine, repeated
                // denials accumulate strikes and escalate to a quarantine.
                cx.report.denials += 1;
                self.invalid_storers.insert((id, holder));
                t = until;
                if let Some((engine, mut court)) = cx.adversary() {
                    engine.strike(&mut court, t, holder);
                }
            }
        }
        false
    }

    /// §IV-D recovery: fetch every missing block below `upto` from the
    /// nearest node that can serve it (recent cache or permanent storage).
    pub(crate) fn recover(
        &mut self,
        cx: &mut Lent<'_>,
        v: NodeId,
        upto: u64,
        now: SimTime,
        attempt: u32,
    ) {
        // A node that fell behind the pruned base cannot recover block by
        // block — those blocks are gone from every store. It bootstraps
        // from a verified snapshot instead; failing that (providers dead,
        // quarantined, blacklisted, or unreachable) it backs off and
        // retries like any starved recovery.
        if cx.config.prune_blocks && cx.node_height[v.0] + 1 < cx.chain.base_index() {
            if !(cx.config.snapshot_bootstrap && self.bootstrap(cx, v, now)) {
                cx.schedule_retry(v, attempt, now, "snapshot", Want::Blocks);
            }
            return;
        }
        let missing: Vec<u64> = (cx.node_height[v.0] + 1..upto)
            .filter(|i| !cx.node_known[v.0].contains(i))
            .collect();
        let mut unserved = false;
        for idx in missing {
            let holders = (0..cx.config.nodes)
                .map(NodeId)
                .filter(|&h| cx.storage[h.0].has_block(idx) && !self.malicious[h.0])
                .filter(|&h| cx.may_serve(h, now));
            let nearest = holders.filter_map(|h| provider_rank(cx.topo, v, h)).min();
            let Some((_, holder)) = nearest else {
                unserved = true;
                continue;
            };
            // Served block size: the block's seal-time encoding, cached
            // on first use — no fresh encode per recovery.
            let served = cx.request_reply(v, holder, BLOCK_REQUEST_BYTES, now, |cx| {
                Some((cx.chain.get(idx).map_or(1000, Block::wire_size), ()))
            });
            let Ok((arrival, ())) = served else {
                unserved = true;
                continue;
            };
            // At once: a stale height would re-request held blocks.
            learn(cx.node_height, cx.node_known, v, idx);
            cx.book_recovery(v, holder, now, arrival);
            trace_event!(
                "repair.recover_block",
                now.as_millis(),
                node = v.0,
                block = idx,
                hops = cx.topo.hops(v, holder),
                dur_ms = arrival.saturating_since(now).as_millis()
            );
            cx.spans.recover_block(now, v, idx, arrival);
        }
        if unserved {
            // Lossy links or a partition starved this pass; back off
            // exponentially (capped) and try again.
            cx.schedule_retry(v, attempt, now, "recover", Want::Blocks);
        }
    }

    /// Snapshot bootstrap for a deep rejoiner: ask the nearest fully-synced
    /// node for a signed [`Snapshot`] (anchor + retained blocks + live
    /// registry), verify it end-to-end, and adopt it wholesale. A provider
    /// serving bytes that fail to decode or verify — a Byzantine server
    /// tampers with them in flight — is blacklisted for this rejoiner and
    /// the next-nearest provider is asked instead. Returns whether a
    /// snapshot was applied.
    fn bootstrap(&mut self, cx: &mut Lent<'_>, v: NodeId, now: SimTime) -> bool {
        let Some(anchor) = cx.chain.anchor().cloned() else {
            return false;
        };
        cx.spans.snapshot_opened(now, v);
        let tip = cx.chain.height();
        let synced = (0..cx.config.nodes)
            .map(NodeId)
            .filter(|&h| cx.topo.is_active(h) && cx.node_height[h.0] == tip)
            .filter(|&h| !self.malicious[h.0] && cx.may_serve(h, now))
            .filter(|&h| !self.snapshot_blacklist.contains(&(v, h)));
        for server in nearest_providers(cx.topo, v, synced) {
            // The server seals and encodes the snapshot once the request
            // reached it; a Byzantine server then tampers with the bytes.
            let served = cx.request_reply(v, server, BLOCK_REQUEST_BYTES, now, |cx| {
                let registry: Vec<(MetadataItem, u64)> = cx.catalogue.iter().cloned().collect();
                let blocks = cx.chain.as_slice().to_vec();
                let keys = cx.identities[server.0].keys();
                let snapshot = Snapshot::seal(anchor.clone(), blocks, registry, keys);
                let mut bytes = crate::codec::encode_snapshot(&snapshot);
                cx.report.snapshots_served += 1;
                trace_event!(
                    "snapshot.served",
                    now.as_millis(),
                    server = server.0,
                    node = v.0,
                    bytes = bytes.len()
                );
                let tampered = cx.adversary().and_then(|(engine, mut court)| {
                    engine.tamper_snapshot(&mut court, now, server, &mut bytes)
                });
                Some((bytes.len() as u64, (bytes, tampered)))
            });
            let Ok((arrival, (bytes, tampered))) = served else {
                continue;
            };
            let verified = crate::codec::decode_snapshot(&bytes)
                .ok()
                .filter(|s| s.verify());
            let Some(snap) = verified else {
                cx.report.snapshots_rejected += 1;
                self.snapshot_blacklist.insert((v, server));
                trace_event!(
                    "snapshot.rejected",
                    now.as_millis(),
                    server = server.0,
                    node = v.0
                );
                if let Some((artifact, (engine, mut court))) = tampered.zip(cx.adversary()) {
                    // Verification caught the corruption red-handed.
                    let culprit = Some((server, "tampered-snapshot"));
                    engine.convict(&mut court, now, Some((artifact, "byz_snapshot")), culprit);
                }
                continue;
            };
            // Every recovery is followed by an engine sync, which rebuilds
            // the node's view from the anchor and blocks carried here.
            let snap_tip = snap.anchor.height + snap.blocks.len() as u64;
            cx.node_known[v.0].clear();
            cx.node_height[v.0] = snap_tip;
            cx.storage[v.0].cache_recent(snap_tip);
            cx.book_recovery(v, server, now, arrival);
            cx.report.snapshots_applied += 1;
            trace_event!(
                "snapshot.applied",
                now.as_millis(),
                server = server.0,
                node = v.0,
                tip = snap_tip
            );
            cx.spans.snapshot_closed(arrival, Some(server));
            return true;
        }
        cx.spans.snapshot_closed(now, None);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::RetryPolicy;
    use crate::alloc::{select_storers, Placement};
    use crate::byzantine::empty_block_on;
    use crate::chain::CheckpointPolicy;
    use crate::metadata::{DataType, Location};
    use crate::pos::{next_pos_hash, Amendment};
    use crate::slo::LatencySummary;
    use edgechain_sim::{FaultEvent, Point, TransportConfig};
    use edgechain_workload::OverloadConfig;
    use rand::SeedableRng;

    const NOW: SimTime = SimTime::from_secs(100);
    const ITEM_BYTES: u64 = 1_000;

    /// Everything a [`Lent`] lends, owned by the test, plus the machine
    /// itself: `n` nodes 50 m apart on a line (the 70 m radio reaches only
    /// the next node), no `EdgeNetwork`.
    struct World {
        config: NetworkConfig,
        topo: Topology,
        transport: Transport,
        queue: EventQueue<Event>,
        admission: Admission,
        storage: Vec<NodeStorage>,
        catalogue: Catalogue,
        chain: Blockchain,
        node_height: Vec<u64>,
        node_known: Vec<BTreeSet<u64>>,
        identities: Vec<Identity>,
        account_of: Vec<AccountId>,
        node_of_account: HashMap<AccountId, NodeId>,
        ledger: Ledger,
        alloc: AllocationContext,
        rng: StdRng,
        report: RunReport,
        slo: SloMonitor,
        spans: SpanTracker,
        byz: Option<ByzantineEngine>,
        access: Access,
    }

    impl World {
        fn line(n: usize) -> Self {
            let positions = (0..n).map(|i| Point {
                x: 50.0 * i as f64,
                y: 0.0,
            });
            let identities: Vec<Identity> = (0..n as u64).map(Identity::from_seed).collect();
            let account_of: Vec<AccountId> = identities.iter().map(Identity::account).collect();
            let retry = RetryPolicy {
                retries: 3,
                backoff_ms: 500,
                backoff_max_ms: 600_000,
            };
            World {
                config: NetworkConfig {
                    nodes: n,
                    ..NetworkConfig::default()
                },
                topo: Topology::from_positions(positions.collect()),
                transport: Transport::new(TransportConfig::default()),
                queue: EventQueue::new(),
                admission: Admission::new(OverloadConfig::default(), retry, n),
                storage: vec![NodeStorage::new(250); n],
                catalogue: Catalogue::default(),
                chain: Blockchain::new(),
                node_height: vec![0; n],
                node_known: vec![BTreeSet::new(); n],
                node_of_account: (0..n).map(|i| (account_of[i], NodeId(i))).collect(),
                identities,
                account_of,
                ledger: Ledger::new(),
                alloc: AllocationContext::default(),
                rng: StdRng::seed_from_u64(1),
                report: RunReport::default(),
                slo: SloMonitor::new(),
                spans: SpanTracker::default(),
                byz: None,
                access: Access::new(vec![false; n]),
            }
        }

        fn lend(&mut self) -> (&mut Access, Lent<'_>) {
            let cx = Lent {
                config: &self.config,
                topo: &self.topo,
                transport: &mut self.transport,
                queue: &mut self.queue,
                admission: &mut self.admission,
                storage: &mut self.storage,
                catalogue: &mut self.catalogue,
                chain: &self.chain,
                node_height: &mut self.node_height,
                node_known: &mut self.node_known,
                identities: &self.identities,
                account_of: &self.account_of,
                node_of_account: &self.node_of_account,
                ledger: &mut self.ledger,
                alloc: &mut self.alloc,
                rng: &mut self.rng,
                report: &mut self.report,
                slo: &mut self.slo,
                spans: &mut self.spans,
                byz: self.byz.as_mut(),
            };
            (&mut self.access, cx)
        }

        /// An item produced by `producer`, assigned to `storers`, each of
        /// which holds its data.
        fn item(&mut self, producer: usize, storers: &[usize]) -> MetadataItem {
            let location = Location {
                label: "field".into(),
                x: 0.0,
                y: 0.0,
            };
            let keys = self.identities[producer].keys();
            let kind = DataType::Sensing("PM2.5".into());
            let mut item = MetadataItem::new_signed(
                keys,
                DataId(7),
                kind,
                0,
                location,
                1_440,
                None,
                ITEM_BYTES,
            );
            item.storing_nodes = storers.iter().copied().map(NodeId).collect();
            for &s in storers {
                assert!(self.storage[s].store_data(item.data_id));
            }
            item
        }

        fn fetch(&mut self, requester: usize, item: &MetadataItem) {
            let (access, mut cx) = self.lend();
            access.fetch(&mut cx, NodeId(requester), item, NOW, 0);
        }

        /// Unicasts replayed on a copy of the current transport: each call
        /// sends `bytes` from `v` to `h` at `at` and returns the arrival.
        fn replay(&self) -> impl FnMut(usize, usize, u64, SimTime) -> SimTime + '_ {
            let mut tx = self.transport.clone();
            move |v, h, bytes, at| {
                let sent = tx.unicast(&self.topo, NodeId(v), NodeId(h), bytes, at);
                sent.unwrap().arrival
            }
        }

        /// The fetch latencies booked so far.
        fn fetches(&self) -> LatencySummary {
            self.slo.clone().finish().1
        }

        /// The one fetch latency booked so far, seconds.
        fn delivered_secs(&self) -> f64 {
            let fetches = self.fetches();
            assert_eq!(fetches.count, 1);
            fetches.mean.unwrap()
        }
    }

    /// `learn` without its fast path: every index goes through the set.
    fn learn_through_set(height: &mut u64, known: &mut BTreeSet<u64>, idx: u64) {
        known.insert(idx);
        while let Some(next) = known.first().copied().filter(|&i| i <= *height + 1) {
            known.pop_first();
            *height = (*height).max(next);
        }
    }

    #[test]
    fn learn_fast_path_matches_learning_through_the_set() {
        // In-order runs, repeats, gaps filled late and indices below the
        // height, as deliveries, recoveries and prune anchors produce.
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1EA2);
        for _ in 0..200 {
            let (mut height, mut known) = (vec![0u64], vec![BTreeSet::new()]);
            let (mut h, mut k) = (0u64, BTreeSet::new());
            for _ in 0..60 {
                let idx = match rng.gen_range(0..4) {
                    0 => height[0] + 1,
                    1 => height[0] + rng.gen_range(0..6u64),
                    2 => rng.gen_range(0..=height[0] + 1),
                    _ => rng.gen_range(0..40u64),
                };
                learn(&mut height, &mut known, NodeId(0), idx);
                learn_through_set(&mut h, &mut k, idx);
                assert_eq!((height[0], &known[0]), (h, &k), "after {idx}");
            }
        }
    }

    #[test]
    fn a_denial_is_published_and_the_next_holder_is_asked_after_the_timeout() {
        let mut w = World::line(5);
        w.access.malicious[1] = true;
        let item = w.item(4, &[1, 2]);
        // Node 1 hears the request and says nothing; node 0 waits out the
        // timeout from that instant, then asks node 2.
        let delivered = {
            let mut leg = w.replay();
            let heard = leg(0, 1, DATA_REQUEST_BYTES, NOW);
            let asked = leg(0, 2, DATA_REQUEST_BYTES, heard + DENIAL_TIMEOUT);
            leg(2, 0, ITEM_BYTES, asked)
        };

        w.fetch(0, &item);
        assert_eq!(w.report.denials, 1);
        assert!(w
            .access
            .invalid_storers
            .contains(&(item.data_id, NodeId(1))));
        assert_eq!(
            w.delivered_secs(),
            delivered.saturating_since(NOW).as_secs_f64()
        );
        // Published network-wide: the next fetch never asks node 1 again.
        w.fetch(0, &item);
        assert_eq!((w.report.denials, w.fetches().count), (1, 2));
    }

    #[test]
    fn the_producer_stays_a_candidate_whatever_its_standing() {
        let mut w = World::line(4);
        w.byz = Some(ByzantineEngine::new(
            4,
            &[NodeId(1), NodeId(2)],
            7,
            CheckpointPolicy { interval: 4 },
        ));
        let (_, mut cx) = w.lend();
        let (engine, mut court) = cx.adversary().unwrap();
        for culprit in [1, 2] {
            engine.convict(&mut court, NOW, None, Some((NodeId(culprit), "test")));
        }
        // Storer 1 is quarantined and skipped; producer 2 is quarantined
        // too, yet its origin copy still serves.
        let item = w.item(2, &[1]);
        let delivered = {
            let mut leg = w.replay();
            let asked = leg(0, 2, DATA_REQUEST_BYTES, NOW);
            leg(2, 0, ITEM_BYTES, asked)
        };
        w.fetch(0, &item);
        assert_eq!(
            w.delivered_secs(),
            delivered.saturating_since(NOW).as_secs_f64()
        );
        assert_eq!(w.report.retries, 0);
    }

    /// A chain of height 6 pruned below 4, with nodes `synced` at its tip.
    fn pruned(w: &mut World, synced: &[usize]) {
        for ts in 1..=6 {
            let tip = w.chain.tip();
            let miner = w.account_of[0];
            let pos = next_pos_hash(&tip.pos_hash, &miner);
            let block = empty_block_on(
                tip,
                ts * 60,
                pos,
                miner,
                60,
                Amendment::from_fraction(1, 1000),
            );
            w.chain.push(block).unwrap();
        }
        w.chain.prune_below(4, w.identities[0].keys());
        for &s in synced {
            w.node_height[s] = w.chain.height();
        }
    }

    #[test]
    fn a_blacklisted_server_is_never_asked_by_that_rejoiner_only() {
        let mut w = World::line(3);
        pruned(&mut w, &[1]);
        w.access.snapshot_blacklist.insert((NodeId(0), NodeId(1)));
        let (access, mut cx) = w.lend();
        assert!(!access.bootstrap(&mut cx, NodeId(0), NOW));
        assert!(access.bootstrap(&mut cx, NodeId(2), NOW));
        assert_eq!(w.report.snapshots_served, 1);
        assert_eq!(w.report.snapshots_applied, 1);
        assert_eq!((w.node_height[0], w.node_height[2]), (0, 6));
    }

    #[test]
    fn each_lost_leg_reads_as_its_own_outcome() {
        let mut w = World::line(2);
        let heard = w.replay()(0, 1, DATA_REQUEST_BYTES, NOW);
        let (_, mut cx) = w.lend();
        let (v, h) = (NodeId(0), NodeId(1));
        cx.transport.set_loss_prob(1.0);
        let lost = cx.request_reply(v, h, DATA_REQUEST_BYTES, NOW, |_| Some((1, ())));
        assert_eq!(lost.map_err(Miss::outcome), Err("send_drop"));

        *cx.transport = Transport::new(TransportConfig::default());
        let lost = cx.request_reply(v, h, DATA_REQUEST_BYTES, NOW, |cx| {
            cx.transport.set_loss_prob(1.0);
            Some((1, ()))
        });
        assert_eq!(lost, Err(Miss::Reply(heard)));
        assert_eq!(Miss::Reply(heard).outcome(), "reply_drop");

        *cx.transport = Transport::new(TransportConfig::default());
        let denied = cx.request_reply(v, h, DATA_REQUEST_BYTES, NOW, |_| None::<(u64, ())>);
        assert_eq!(denied, Err(Miss::Denied(heard)));
        assert_eq!(Miss::Denied(heard).outcome(), "denied");
    }

    /// `n` nodes on the line with the item produced by `producer` and
    /// stored at `storers` in the catalogue. Every node holds eleven
    /// items, the item or a filler among them, so opening costs are equal
    /// and not zero (all-empty stores make every facility free and the
    /// solver opens everything).
    fn repair_world(n: usize, producer: usize, storers: &[usize]) -> World {
        let mut w = World::line(n);
        for (i, s) in w.storage.iter_mut().enumerate() {
            let fillers = if storers.contains(&i) { 10 } else { 11 };
            for k in 0..fillers {
                s.store_data(DataId(10_000 + i as u64 * 100 + k));
            }
        }
        let item = w.item(producer, storers);
        w.catalogue.insert(item, 0);
        w
    }

    /// Takes `node` down as the run's fault plan says: repair skips a
    /// fault-free closed-loop run.
    fn crash(w: &mut World, node: usize) {
        let node = NodeId(node);
        let plan = &mut w.config.fault_plan.events;
        plan.push(FaultEvent::Crash { node, at: NOW });
        w.topo.set_active(node, false);
    }

    fn repair(w: &mut World) {
        w.lend().1.repair_replicas(NOW);
    }

    /// The nodes whose disk holds the item, and the catalogue's view.
    fn holders(w: &World) -> (Vec<usize>, Vec<usize>) {
        let id = DataId(7);
        let disk = (0..w.storage.len()).filter(|&v| w.storage[v].has_data(id));
        let named = w.catalogue.get(id).unwrap().storing_nodes.iter();
        (disk.collect(), named.map(|v| v.0).collect())
    }

    fn optimum(w: &World) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(0);
        let chosen = select_storers(Placement::Optimal, &w.topo, &w.storage, &mut rng);
        chosen.unwrap().into_iter().map(|v| v.0).collect()
    }

    #[test]
    fn a_copy_goes_to_the_live_optimum_not_a_crashed_nodes_index() {
        // The far-end producer's one storer crashes. The optimum over the
        // six live nodes is node 4, live-set index 3.
        let mut w = repair_world(7, 6, &[1]);
        crash(&mut w, 1);
        assert_eq!(optimum(&w), [4]);
        repair(&mut w);
        assert_eq!(w.report.repairs_triggered, 1);
        // The crashed holder keeps its disk copy, so the catalogue still
        // names it beside the new one.
        assert_eq!(holders(&w), (vec![1, 4], vec![1, 4]));
        // The one copy rode the transport, charged on each of its hops.
        let hops = u64::from(w.topo.hops(NodeId(6), NodeId(4)));
        assert_eq!(w.transport.stats().total_sent(), hops * ITEM_BYTES);
    }

    #[test]
    fn a_kept_replica_is_never_a_copy_destination() {
        // One central replica, a second lost to a crash at the near end,
        // and the far-end producer's origin copy, which is on no disk. At
        // A = 0 fairness is free and every live node is a target, the
        // replica and the producer included.
        let mut w = repair_world(9, 8, &[0, 4]);
        crash(&mut w, 0);
        (w.config.fdc_scale, w.alloc) = (0.0, AllocationContext::new(0.0));
        repair(&mut w);
        assert_eq!(w.report.repairs_triggered, 1);
        assert_eq!(holders(&w), ((0..8).collect(), (0..8).collect()));
        // Each fresh node got one copy from its nearest holder, and no
        // byte reached a live holder (no route runs through one either).
        let stats = w.transport.stats();
        assert_eq!(stats.received_bytes(NodeId(4)), 0);
        assert_eq!(stats.received_bytes(NodeId(8)), 0);
        let hops = [(4, 1), (4, 2), (4, 3), (4, 5), (4, 6), (8, 7)]
            .map(|(src, dst)| u64::from(w.topo.hops(NodeId(src), NodeId(dst))));
        assert_eq!(stats.total_sent(), hops.iter().sum::<u64>() * ITEM_BYTES);
    }

    #[test]
    fn after_a_failed_copy_the_catalogue_names_only_disk_holders() {
        // A loss window drops every copy: nothing lands, and the
        // catalogue keeps naming the crashed disk holder alone.
        let mut w = repair_world(7, 6, &[1]);
        crash(&mut w, 1);
        w.transport.set_loss_prob(1.0);
        repair(&mut w);
        assert_eq!(w.report.repairs_triggered, 0);
        assert_eq!(holders(&w), (vec![1], vec![1]));
    }

    #[test]
    fn a_full_target_refuses_its_copy_and_is_not_named() {
        // At A = 0 every live node is a target, even node 3 with only the
        // cache's reserved slot left: it would refuse its copy, so none is
        // sent. Node 0, cut off
        // by the crash, gets none either, and the producer keeps its
        // origin copy off the disk.
        let mut w = repair_world(7, 6, &[1]);
        crash(&mut w, 1);
        (w.config.fdc_scale, w.alloc) = (0.0, AllocationContext::new(0.0));
        let full = 3;
        let mut filler = 0;
        while w.storage[full].store_block(filler) {
            filler += 1;
        }
        repair(&mut w);
        assert_eq!(w.report.repairs_triggered, 1);
        assert_eq!(holders(&w), (vec![1, 2, 4, 5], vec![1, 2, 4, 5]));
        // The producer sent the item to the three nodes that took it and
        // not one byte to the node that would have refused it.
        let hops = [2, 4, 5].map(|dst| u64::from(w.topo.hops(NodeId(6), NodeId(dst))));
        let sent = w.transport.stats().total_sent();
        assert_eq!(sent, hops.iter().sum::<u64>() * ITEM_BYTES);
    }
}
