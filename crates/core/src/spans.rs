//! Causal-span bookkeeping for the simulated network (DESIGN §13).
//!
//! Every span kind the network emits, its field keys, its parent and
//! `follows` edges, and the tiling contract — children cover their root
//! with no unexplained time — are defined in this file and nowhere else.
//! [`SpanTracker`] is the side table that lets lifecycle edges firing many
//! events apart (generate → pack → replicate, request → retry → deliver)
//! find their span again; span identity itself lives in the telemetry
//! session.
//!
//! The tracker is always present and inert until [`SpanTracker::arm`]
//! finds spans enabled: a disarmed tracker allocates nothing and every
//! method returns at its first line, so untraced runs pay one boolean.
//!
//! Span ids are handed out in start order and a span reaches the trace
//! when it closes, so *where* a method is called relative to the
//! network's plain trace events is part of the trace bytes: call sites
//! move only together with the goldens.

use crate::metadata::DataId;
use edgechain_sim::{NodeId, SimTime};
use edgechain_telemetry::{self as telemetry, SpanId};
use std::collections::HashMap;

/// Open-span side table; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct SpanTracker {
    armed: bool,
    /// `block.lifecycle` root of the block being scheduled or mined, with
    /// its `block.pos` child ([`SpanId::NONE`] once the election ended it).
    block: Option<(SpanId, SpanId)>,
    /// `data id → (item.lifecycle root, item.pend child)`. Kept for the
    /// whole run — fetch and repair spans link `follows` edges back to the
    /// item lifecycle long after it closed.
    items: HashMap<u64, (SpanId, SpanId)>,
    /// `(requester, data id) → fetch.lifecycle root` for in-flight fetches.
    fetches: HashMap<(usize, u64), SpanId>,
    /// `(requester, data id) → fetch.backoff span` awaiting its retry.
    fetch_backoffs: HashMap<(usize, u64), SpanId>,
    /// `node → quarantine.window span` for currently quarantined nodes.
    quarantines: HashMap<usize, SpanId>,
    /// The `snapshot.bootstrap` span of the attempt in progress.
    snapshot: SpanId,
}

impl SpanTracker {
    /// Arms the tracker when the caller enabled spans on this thread's
    /// telemetry session; otherwise it stays inert for the whole run.
    pub(crate) fn arm(&mut self) {
        self.armed = telemetry::spans_enabled();
    }

    /// Whatever is still in flight at the horizon (unpacked items, pending
    /// fetch backoffs, open quarantines, the scheduled next block) closes
    /// there, in span-id order — deterministic.
    pub(crate) fn close_all(&mut self, horizon: SimTime) {
        if self.armed {
            telemetry::span_end_all(horizon.as_millis());
        }
    }

    // --- block lifecycle: `block.pos` + `block.broadcast` tile the root ---

    /// The block lifecycle starts when its PoS round is drawn: the
    /// `block.pos` child covers the winner's mining delay, so the root
    /// captures schedule → adoption end to end.
    pub(crate) fn block_scheduled(&mut self, now: SimTime) {
        if !self.armed {
            return;
        }
        let root = telemetry::span_start("block.lifecycle", now.as_millis(), SpanId::NONE);
        let pos = telemetry::span_start("block.pos", now.as_millis(), root);
        self.block = Some((root, pos));
    }

    /// The election at mine time ends the PoS wait. The very first block
    /// is scheduled before the tracker is armed; its lifecycle opens here
    /// instead.
    pub(crate) fn block_won(&mut self, now: SimTime, miner: NodeId) {
        if self.block.is_none() {
            self.block_scheduled(now);
        }
        let Some((root, pos)) = self.block.take() else {
            return;
        };
        telemetry::span_end(pos, now.as_millis());
        telemetry::span_field(root, "miner", miner.0);
        self.block = Some((root, SpanId::NONE));
    }

    /// The round produced no canonical block (`no_miners`, `withheld`,
    /// `tampered`): the root closes on the spot with that outcome.
    pub(crate) fn block_abandoned(&mut self, now: SimTime, outcome: &'static str) {
        let Some((root, pos)) = self.block.take() else {
            return;
        };
        telemetry::span_end(pos, now.as_millis());
        telemetry::span_field(root, "outcome", outcome);
        telemetry::span_end(root, now.as_millis());
    }

    /// A sealed block went out: a zero-width `block.assemble`, then one
    /// `block.broadcast` child covering seal-to-last-arrival with a
    /// zero-width per-receiver `block.verify` grandchild at each arrival
    /// instant. The root closes at the last arrival.
    pub(crate) fn block_mined(
        &mut self,
        now: SimTime,
        index: u64,
        items: usize,
        arrivals: &[(NodeId, SimTime)],
    ) {
        let Some((root, _)) = self.block.take() else {
            return;
        };
        let asm = telemetry::span_start("block.assemble", now.as_millis(), root);
        telemetry::span_field(asm, "items", items);
        telemetry::span_end(asm, now.as_millis());
        let bc = telemetry::span_start("block.broadcast", now.as_millis(), root);
        telemetry::span_field(bc, "receivers", arrivals.len());
        let mut last = now;
        for &(v, t) in arrivals {
            last = last.max(t);
            let vs = telemetry::span_start("block.verify", t.as_millis(), bc);
            telemetry::span_field(vs, "node", v.0);
            telemetry::span_end(vs, t.as_millis());
        }
        telemetry::span_end(bc, last.as_millis());
        telemetry::span_field(root, "block", index);
        telemetry::span_field(root, "items", items);
        telemetry::span_end(root, last.as_millis());
    }

    // --- item lifecycle: `item.pend` + `item.replicate` tile the root ---

    /// Item lifecycle root: generation → last replica landed. The
    /// `item.pend` child covers the mempool wait until packing.
    pub(crate) fn item_opened(&mut self, now: SimTime, id: DataId, producer: NodeId) {
        if !self.armed {
            return;
        }
        let root = telemetry::span_start("item.lifecycle", now.as_millis(), SpanId::NONE);
        telemetry::span_field(root, "item", id.0);
        telemetry::span_field(root, "producer", producer.0);
        let pend = telemetry::span_start("item.pend", now.as_millis(), root);
        self.items.insert(id.0, (root, pend));
    }

    /// The streaming allocation found no storer: the item never reaches
    /// the mempool and its lifecycle ends at admission.
    pub(crate) fn item_rejected(&mut self, now: SimTime, id: DataId) {
        if let Some((root, pend)) = self.items.remove(&id.0) {
            telemetry::span_end(pend, now.as_millis());
            telemetry::span_field(root, "outcome", "alloc_rejected");
            telemetry::span_end(root, now.as_millis());
        }
    }

    /// The mempool wait ends when a miner packs the item.
    pub(crate) fn item_packed(&mut self, now: SimTime, id: DataId) {
        if let Some(&(_, pend)) = self.items.get(&id.0) {
            telemetry::span_end(pend, now.as_millis());
        }
    }

    /// The pack-time storage decision, a zero-width child (the UFL solve
    /// costs wall-clock, not sim time): `Some(storers)` chosen, or `None`
    /// when every node was full.
    pub(crate) fn item_allocated(&mut self, now: SimTime, id: DataId, storers: Option<usize>) {
        if !self.armed {
            return;
        }
        let root = self
            .items
            .get(&id.0)
            .map_or(SpanId::NONE, |&(root, _)| root);
        let alloc = telemetry::span_start("item.alloc", now.as_millis(), root);
        match storers {
            Some(n) => telemetry::span_field(alloc, "storers", n),
            None => telemetry::span_field(alloc, "outcome", "unstored"),
        }
        telemetry::span_end(alloc, now.as_millis());
    }

    /// Dissemination after packing; the lifecycle closes when the last
    /// replica lands (at `now` when none did).
    pub(crate) fn item_replicated(
        &mut self,
        now: SimTime,
        id: DataId,
        block: u64,
        replicas: u64,
        last_replica: Option<SimTime>,
    ) {
        if let Some(&(root, _)) = self.items.get(&id.0) {
            let end = last_replica.unwrap_or(now).as_millis();
            let rep = telemetry::span_start("item.replicate", now.as_millis(), root);
            telemetry::span_field(rep, "replicas", replicas);
            telemetry::span_end(rep, end);
            telemetry::span_field(root, "block", block);
            telemetry::span_end(root, end);
        }
    }

    /// Repair rides the block cadence, not the item lifecycle: its span is
    /// a root with a follows-from edge back to the item it re-replicated.
    pub(crate) fn repair(&mut self, now: SimTime, id: DataId, last_copy: Option<SimTime>) {
        if let Some(&(item_root, _)) = self.items.get(&id.0) {
            let rs = telemetry::span_start("repair.replicate", now.as_millis(), SpanId::NONE);
            telemetry::span_follows(rs, item_root);
            telemetry::span_field(rs, "item", id.0);
            telemetry::span_end(rs, last_copy.unwrap_or(now).as_millis());
        }
    }

    // --- fetch lifecycle: attempts and backoffs tile the root ---

    /// Entry of every fetch attempt. The lifecycle root persists across
    /// backoff retries: the first attempt opens it (with a follows-from
    /// edge back to the item's lifecycle), each retry entry closes the
    /// pending `fetch.backoff` child.
    pub(crate) fn fetch_opened(&mut self, now: SimTime, requester: NodeId, id: DataId) {
        if !self.armed {
            return;
        }
        let key = (requester.0, id.0);
        if let Some(backoff) = self.fetch_backoffs.remove(&key) {
            telemetry::span_end(backoff, now.as_millis());
        }
        if self.fetches.contains_key(&key) {
            return;
        }
        let root = telemetry::span_start("fetch.lifecycle", now.as_millis(), SpanId::NONE);
        telemetry::span_field(root, "requester", requester.0);
        telemetry::span_field(root, "item", id.0);
        if let Some(&(item_root, _)) = self.items.get(&id.0) {
            telemetry::span_follows(root, item_root);
        }
        self.fetches.insert(key, root);
    }

    /// One provider probe, `from` the request to `until` its resolution:
    /// `ok`, `denied`, `send_drop` or `reply_drop`.
    pub(crate) fn fetch_attempt(
        &mut self,
        requester: NodeId,
        id: DataId,
        from: SimTime,
        until: SimTime,
        holder: NodeId,
        outcome: &'static str,
    ) {
        if let Some(&root) = self.fetches.get(&(requester.0, id.0)) {
            let s = telemetry::span_start("fetch.attempt", from.as_millis(), root);
            telemetry::span_field(s, "holder", holder.0);
            telemetry::span_field(s, "outcome", outcome);
            telemetry::span_end(s, until.as_millis());
        }
    }

    /// No source answered and retry number `attempt` is queued: the wait
    /// is a child that the retry's [`Self::fetch_opened`] closes.
    pub(crate) fn fetch_backoff(
        &mut self,
        now: SimTime,
        requester: NodeId,
        id: DataId,
        attempt: u32,
    ) {
        let key = (requester.0, id.0);
        if let Some(&root) = self.fetches.get(&key) {
            let backoff = telemetry::span_start("fetch.backoff", now.as_millis(), root);
            telemetry::span_field(backoff, "attempt", attempt);
            self.fetch_backoffs.insert(key, backoff);
        }
    }

    /// Resolution — delivery, failure, or abandonment — closes the root
    /// (and any pending backoff child). No-op when no span is open for
    /// the `(requester, item)` pair.
    pub(crate) fn fetch_closed(
        &mut self,
        at: SimTime,
        requester: NodeId,
        id: DataId,
        outcome: &'static str,
    ) {
        let key = (requester.0, id.0);
        if let Some(backoff) = self.fetch_backoffs.remove(&key) {
            telemetry::span_end(backoff, at.as_millis());
        }
        if let Some(root) = self.fetches.remove(&key) {
            telemetry::span_field(root, "outcome", outcome);
            telemetry::span_end(root, at.as_millis());
        }
    }

    // --- standalone roots ---

    /// A proven misbehaver's quarantine window opens.
    pub(crate) fn quarantined(&mut self, now: SimTime, node: NodeId, reason: &'static str) {
        if !self.armed {
            return;
        }
        let q = telemetry::span_start("quarantine.window", now.as_millis(), SpanId::NONE);
        telemetry::span_field(q, "node", node.0);
        telemetry::span_field(q, "reason", reason);
        self.quarantines.insert(node.0, q);
    }

    /// Re-admission closes the windows of `nodes`.
    pub(crate) fn readmitted(&mut self, now: SimTime, nodes: &[NodeId]) {
        for v in nodes {
            if let Some(q) = self.quarantines.remove(&v.0) {
                telemetry::span_end(q, now.as_millis());
            }
        }
    }

    /// One block recovered by `node` over the §IV-D protocol, request to
    /// reply arrival.
    pub(crate) fn recover_block(
        &mut self,
        now: SimTime,
        node: NodeId,
        block: u64,
        arrival: SimTime,
    ) {
        if !self.armed {
            return;
        }
        let rs = telemetry::span_start("recover.block", now.as_millis(), SpanId::NONE);
        telemetry::span_field(rs, "node", node.0);
        telemetry::span_field(rs, "block", block);
        telemetry::span_end(rs, arrival.as_millis());
    }

    /// A deep rejoiner starts asking for a snapshot.
    pub(crate) fn snapshot_opened(&mut self, now: SimTime, node: NodeId) {
        if !self.armed {
            return;
        }
        self.snapshot = telemetry::span_start("snapshot.bootstrap", now.as_millis(), SpanId::NONE);
        telemetry::span_field(self.snapshot, "node", node.0);
    }

    /// The attempt ends at `at`: `applied` from `server`, or `failed` when
    /// no provider served a snapshot that verified.
    pub(crate) fn snapshot_closed(&mut self, at: SimTime, server: Option<NodeId>) {
        let span = std::mem::take(&mut self.snapshot);
        match server {
            Some(server) => {
                telemetry::span_field(span, "server", server.0);
                telemetry::span_field(span, "outcome", "applied");
            }
            None => telemetry::span_field(span, "outcome", "failed"),
        }
        telemetry::span_end(span, at.as_millis());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives every method once, in a plausible order.
    fn exercise(sp: &mut SpanTracker) {
        let (t0, t1) = (SimTime::from_secs(1), SimTime::from_secs(2));
        let (a, b, id) = (NodeId(0), NodeId(1), DataId(7));
        sp.block_scheduled(t0);
        sp.block_abandoned(t0, "no_miners");
        sp.block_won(t0, a);
        sp.item_opened(t0, id, a);
        sp.item_packed(t1, id);
        sp.item_allocated(t1, id, Some(2));
        sp.block_mined(t1, 1, 1, &[(b, t1)]);
        sp.item_replicated(t1, id, 1, 2, Some(t1));
        sp.item_rejected(t1, DataId(8));
        sp.repair(t1, id, None);
        sp.fetch_opened(t1, b, id);
        sp.fetch_attempt(b, id, t1, t1, a, "send_drop");
        sp.fetch_backoff(t1, b, id, 1);
        sp.fetch_closed(t1, b, id, "failed");
        sp.quarantined(t1, a, "equivocation");
        sp.readmitted(t1, &[a]);
        sp.recover_block(t0, b, 1, t1);
        sp.snapshot_opened(t0, b);
        sp.snapshot_closed(t1, Some(a));
        sp.close_all(t1);
    }

    #[test]
    fn disarmed_tracker_is_inert_and_allocates_nothing() {
        // Spans are armed on the session, but this tracker never armed
        // itself: it must not open a single span nor grow a single table.
        telemetry::enable();
        telemetry::enable_spans();
        let mut sp = SpanTracker::default();
        exercise(&mut sp);
        let session = telemetry::finish().expect("telemetry was enabled");
        assert!(session.events().is_empty(), "{:?}", session.events());
        assert!(!sp.armed && sp.block.is_none() && sp.snapshot.is_none());
        assert_eq!(sp.items.capacity(), 0);
        assert_eq!(sp.fetches.capacity(), 0);
        assert_eq!(sp.fetch_backoffs.capacity(), 0);
        assert_eq!(sp.quarantines.capacity(), 0);
    }

    #[test]
    fn arming_follows_the_session() {
        let mut sp = SpanTracker::default();
        sp.arm();
        assert!(!sp.armed, "no telemetry session: stays inert");
        telemetry::enable();
        sp.arm();
        assert!(!sp.armed, "metrics-only session: stays inert");
        telemetry::enable_spans();
        sp.arm();
        assert!(sp.armed);
        exercise(&mut sp);
        let session = telemetry::finish().expect("telemetry was enabled");
        let spans = telemetry::spans_from_events(session.events());
        // Every root closed and every child names an emitted parent.
        for s in &spans {
            assert!(
                s.parent == 0 || spans.iter().any(|p| p.id == s.parent),
                "{s:?} is orphaned"
            );
        }
        let kinds: Vec<&str> = spans.iter().map(|s| s.kind.as_str()).collect();
        for kind in [
            "block.lifecycle",
            "block.pos",
            "block.assemble",
            "block.broadcast",
            "block.verify",
            "item.lifecycle",
            "item.pend",
            "item.alloc",
            "item.replicate",
            "repair.replicate",
            "fetch.lifecycle",
            "fetch.attempt",
            "fetch.backoff",
            "quarantine.window",
            "recover.block",
            "snapshot.bootstrap",
        ] {
            assert!(kinds.contains(&kind), "{kind} never emitted: {kinds:?}");
        }
    }
}
