//! Admission control and overload protection (DESIGN §15).
//!
//! [`Admission`] is the one unit between "the world offered an operation"
//! and "the network accepted it": the token buckets at item generation and
//! fetch entry, the degradation ladder, the bounded fetch backlog, the
//! retry budget with its backoff curve, and the [`OverloadReport`] section
//! all of them account into. It needs no topology — every decision is a
//! function of the sim clock and the queue depths the caller passes in —
//! so it is constructed and tested on its own.
//!
//! Every limit defaults off: a default [`OverloadConfig`] admits
//! everything and moves only the offered/admitted counters.

use crate::slo::OverloadReport;
use edgechain_sim::{NodeId, SimTime};
use edgechain_telemetry::{self as telemetry, trace_event};
use edgechain_workload::{OverloadConfig, TokenBucket};
use std::collections::HashMap;

/// Burst capacity, in operations, of the item-admission bucket.
const ITEM_BURST: f64 = 8.0;
/// Burst capacity of the fetch-admission bucket.
const FETCH_BURST: f64 = 16.0;
/// Burst capacity of the global retry-budget bucket.
const RETRY_BURST: f64 = 32.0;

/// The retry schedule shared by data fetches, block recoveries and
/// snapshot bootstraps that found no answering source.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RetryPolicy {
    /// Extra attempts granted after the first.
    pub(crate) retries: u32,
    /// Base backoff before the first retry, milliseconds; each subsequent
    /// attempt doubles it.
    pub(crate) backoff_ms: u64,
    /// Ceiling on the doubled backoff, milliseconds.
    pub(crate) backoff_max_ms: u64,
}

/// An operation asking to be admitted, with the queue state its own
/// pre-gates look at.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// A newly offered data item; `pending` is the mempool depth.
    Item { pending: usize },
    /// A fetch entering the retry pipeline. `low_priority` marks
    /// open-workload reads, the first rung of the degradation ladder;
    /// requester-loop fetches are only throttled by the explicit knobs.
    Fetch {
        requester: NodeId,
        low_priority: bool,
    },
}

/// Admission buckets, ladder, fetch backlog and retry budget; see the
/// module docs.
#[derive(Debug)]
pub(crate) struct Admission {
    limits: OverloadConfig,
    retry: RetryPolicy,
    /// Admission bucket at item generation (`None` = unlimited).
    item_bucket: Option<TokenBucket>,
    /// Admission bucket at fetch entry (`None` = unlimited).
    fetch_bucket: Option<TokenBucket>,
    /// Global retry budget (`None` = unlimited).
    retry_bucket: Option<TokenBucket>,
    /// Current degradation-ladder rung, recomputed at each mined block.
    degrade_level: u8,
    /// Scheduled-but-unresolved fetch retries per `(requester, data id)`
    /// key — the fetch backlog. Entries stranded past the sim horizon are
    /// explicit `exhausted` failures, never silent.
    fetch_backlog: HashMap<(usize, u64), u32>,
    /// Per-node count of backlogged fetches (mirror of `fetch_backlog`).
    inflight_fetches: Vec<u32>,
    /// Total backlogged fetches (the sum of `fetch_backlog`'s counts).
    backlog_total: u64,
    /// Run-wide overload accounting; becomes [`crate::RunReport::overload`].
    pub(crate) report: OverloadReport,
}

impl Admission {
    pub(crate) fn new(limits: OverloadConfig, retry: RetryPolicy, nodes: usize) -> Self {
        let bucket = |rate: Option<f64>, burst| rate.map(|r| TokenBucket::per_minute(r, burst));
        Admission {
            item_bucket: bucket(limits.admission_items_per_min, ITEM_BURST),
            fetch_bucket: bucket(limits.admission_fetches_per_min, FETCH_BURST),
            retry_bucket: bucket(limits.retry_budget_per_min, RETRY_BURST),
            limits,
            retry,
            degrade_level: 0,
            fetch_backlog: HashMap::new(),
            inflight_fetches: vec![0; nodes],
            backlog_total: 0,
            report: OverloadReport::default(),
        }
    }

    /// The admission gate for items and fetches alike. Counts the offer,
    /// then checks in order — items: the pending-queue bound, the item
    /// bucket; fetches: the ladder (low-priority reads only), the per-node
    /// in-flight cap, the fetch bucket. A rejection is accounted as a shed
    /// and returns `false`.
    pub(crate) fn admit(&mut self, op: Op, now: SimTime) -> bool {
        match op {
            Op::Item { .. } => self.report.offered_items += 1,
            Op::Fetch { .. } => self.report.offered_fetches += 1,
        }
        if let Err(reason) = self.gate(op, now) {
            self.shed(op, now, reason);
            return false;
        }
        match op {
            Op::Item { .. } => self.report.admitted_items += 1,
            Op::Fetch { .. } => self.report.admitted_fetches += 1,
        }
        true
    }

    fn gate(&mut self, op: Op, now: SimTime) -> Result<(), &'static str> {
        let over = |cap: Option<usize>, depth: usize| cap.is_some_and(|c| c > 0 && depth >= c);
        let bucket = match op {
            Op::Item { pending } => {
                if over(self.limits.max_pending_items, pending) {
                    return Err("queue_full");
                }
                &mut self.item_bucket
            }
            Op::Fetch {
                requester,
                low_priority,
            } => {
                if low_priority && self.degrade_level >= 1 {
                    return Err("degraded");
                }
                let inflight = self.inflight_fetches[requester.0] as usize;
                if over(self.limits.max_inflight_per_node, inflight) {
                    return Err("inflight");
                }
                &mut self.fetch_bucket
            }
        };
        if let Some(bucket) = bucket {
            if !bucket.try_take(now.as_millis(), 1.0) {
                return Err("bucket");
            }
        }
        Ok(())
    }

    fn shed(&mut self, op: Op, now: SimTime, reason: &'static str) {
        let (shed, counter, op) = match op {
            Op::Item { .. } => (&mut self.report.shed_items, "overload.shed_items", "item"),
            Op::Fetch { .. } => (
                &mut self.report.shed_fetches,
                "overload.shed_fetches",
                "fetch",
            ),
        };
        *shed += 1;
        telemetry::counter_add(counter, 1);
        trace_event!("overload.shed", now.as_millis(), op = op, reason = reason);
    }

    /// Degradation ladder: the mempool depth relative to the configured
    /// bound picks the rung for the coming block interval. L1 sheds
    /// low-priority fetches, L2 also trims dissemination to the first
    /// replica, L3 also parks repair sweeps; consensus itself is never
    /// throttled. With no bound configured the ladder stays at level 0
    /// forever.
    pub(crate) fn update_ladder(&mut self, pending: usize, now: SimTime) {
        let level = self.limits.degrade_level(pending);
        if level != self.degrade_level {
            trace_event!(
                "overload.degrade",
                now.as_millis(),
                from = self.degrade_level as u64,
                to = level as u64,
                depth = pending as u64
            );
            self.degrade_level = level;
        }
        self.report.max_degrade_level = self.report.max_degrade_level.max(level);
    }

    /// Ladder L2+: whether to defer a proactive replication past the
    /// `landed` copies already stored — the repair sweep restores full
    /// replication once the mempool drains back below the rung.
    pub(crate) fn defer_replication(&mut self, landed: u64) -> bool {
        let defer = self.degrade_level >= 2 && landed >= 1;
        self.report.deferred_replications += u64::from(defer);
        defer
    }

    /// Ladder L3: whether to park this block's repair sweep to shed load
    /// (the next sub-L3 block catches up).
    pub(crate) fn defer_repair(&mut self) -> bool {
        let defer = self.degrade_level >= 3;
        self.report.deferred_repairs += u64::from(defer);
        defer
    }

    /// Whether attempt `attempt` may be retried and, if so, after how
    /// long. The global retry budget (unlimited by default) is charged
    /// only behind the attempt check, so terminal failures never drain it;
    /// `None` is terminal either way.
    pub(crate) fn retry_delay(&mut self, attempt: u32, now: SimTime) -> Option<SimTime> {
        if attempt >= self.retry.retries {
            return None;
        }
        if let Some(bucket) = self.retry_bucket.as_mut() {
            if !bucket.try_take(now.as_millis(), 1.0) {
                self.report.retries_denied += 1;
                return None;
            }
        }
        Some(self.backoff(attempt))
    }

    /// Exponential retry backoff: `backoff_ms << attempt`, capped at
    /// `backoff_max_ms`. With the default cap (10 min, far above what any
    /// shipped configuration reaches) the uncapped curve is reproduced
    /// exactly.
    fn backoff(&self, attempt: u32) -> SimTime {
        let base = self
            .retry
            .backoff_ms
            .max(1)
            .checked_shl(attempt.min(16))
            .unwrap_or(u64::MAX);
        SimTime::from_millis(base.min(self.retry.backoff_max_ms.max(1)))
    }

    /// Tracks one scheduled fetch retry in the backlog (the bounded set of
    /// fetches waiting on a backoff timer).
    pub(crate) fn backlog_push(&mut self, requester: NodeId, data_id: u64) {
        *self
            .fetch_backlog
            .entry((requester.0, data_id))
            .or_insert(0) += 1;
        self.inflight_fetches[requester.0] += 1;
        self.backlog_total += 1;
        self.report.peak_inflight_fetches =
            self.report.peak_inflight_fetches.max(self.backlog_total);
    }

    /// Clears one backlog entry when its retry fires; an entry that
    /// exists was counted into both mirrors by [`Self::backlog_push`].
    pub(crate) fn backlog_pop(&mut self, requester: NodeId, data_id: u64) {
        let key = (requester.0, data_id);
        if let Some(c) = self.fetch_backlog.get_mut(&key) {
            *c -= 1;
            if *c == 0 {
                self.fetch_backlog.remove(&key);
            }
            self.inflight_fetches[requester.0] -= 1;
            self.backlog_total -= 1;
        }
    }

    /// Empties the backlog at the sim horizon. Fetches still waiting on a
    /// scheduled retry never resolved: each key is an explicit exhausted
    /// failure instead of staying silently in flight forever. Keys come
    /// back in sorted order so the caller's trace is deterministic.
    pub(crate) fn drain_stranded(&mut self) -> Vec<(NodeId, u64)> {
        let mut stranded: Vec<(NodeId, u64)> = self
            .fetch_backlog
            .drain()
            .map(|((requester, id), _)| (NodeId(requester), id))
            .collect();
        stranded.sort_unstable();
        self.inflight_fetches.fill(0);
        self.backlog_total = 0;
        self.report.fetch_exhausted += stranded.len() as u64;
        stranded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const RETRY: RetryPolicy = RetryPolicy {
        retries: 3,
        backoff_ms: 500,
        backoff_max_ms: 600_000,
    };
    const T0: SimTime = SimTime::ZERO;

    fn admission(limits: OverloadConfig) -> Admission {
        Admission::new(limits, RETRY, 4)
    }

    fn fetch(requester: usize, low_priority: bool) -> Op {
        Op::Fetch {
            requester: NodeId(requester),
            low_priority,
        }
    }

    /// The reason `op` is shed for, read off the gate itself.
    fn verdict(a: &mut Admission, op: Op) -> Result<(), &'static str> {
        a.gate(op, T0)
    }

    /// Every gate configured: buckets that never refill (each starts full
    /// at its burst), a mempool bound of 4 and one in-flight fetch per
    /// node.
    fn every_gate() -> OverloadConfig {
        OverloadConfig {
            admission_items_per_min: Some(0.0),
            admission_fetches_per_min: Some(0.0),
            max_pending_items: Some(4),
            max_inflight_per_node: Some(1),
            ..OverloadConfig::default()
        }
    }

    #[test]
    fn item_gates_fire_in_order() {
        let mut a = admission(every_gate());
        assert!(a.item_bucket.as_mut().unwrap().try_take(0, ITEM_BURST)); // drain it
        let full = Op::Item { pending: 4 };
        let room = Op::Item { pending: 3 };
        assert_eq!(verdict(&mut a, full), Err("queue_full"));
        assert_eq!(verdict(&mut a, room), Err("bucket"));
        a.item_bucket = None;
        assert_eq!(verdict(&mut a, room), Ok(()));
    }

    #[test]
    fn fetch_gates_fire_in_order() {
        let mut a = admission(every_gate());
        assert!(a.fetch_bucket.as_mut().unwrap().try_take(0, FETCH_BURST));
        a.update_ladder(2, T0); // 2 of 4 pending: rung 1
        a.backlog_push(NodeId(1), 9);
        assert_eq!(verdict(&mut a, fetch(1, true)), Err("degraded"));
        // The ladder only sheds low-priority reads.
        assert_eq!(verdict(&mut a, fetch(1, false)), Err("inflight"));
        assert_eq!(verdict(&mut a, fetch(2, false)), Err("bucket"));
        a.fetch_bucket = None;
        assert_eq!(verdict(&mut a, fetch(2, false)), Ok(()));
        // The item pre-gates never look at fetch state and vice versa.
        a.item_bucket = None;
        assert_eq!(verdict(&mut a, Op::Item { pending: 0 }), Ok(()));
    }

    #[test]
    fn retry_budget_is_charged_only_behind_the_attempt_check() {
        let mut a = admission(OverloadConfig {
            retry_budget_per_min: Some(0.0),
            ..OverloadConfig::default()
        });
        // Out of attempts: terminal, and the budget is untouched.
        for _ in 0..2 * RETRY_BURST as u64 {
            assert_eq!(a.retry_delay(RETRY.retries, T0), None);
        }
        assert_eq!(a.report.retries_denied, 0);
        // The budgeted retries, on the doubling curve.
        for _ in 0..RETRY_BURST as u64 {
            assert_eq!(a.retry_delay(2, T0), Some(SimTime::from_millis(2_000)));
        }
        // Budget spent: denied and counted.
        assert_eq!(a.retry_delay(0, T0), None);
        assert_eq!(a.report.retries_denied, 1);
    }

    #[test]
    fn backoff_doubles_to_the_cap() {
        let capped = RetryPolicy {
            backoff_max_ms: 3_000,
            ..RETRY
        };
        let a = Admission::new(OverloadConfig::default(), capped, 1);
        let curve: Vec<u64> = (0..4).map(|n| a.backoff(n).as_millis()).collect();
        assert_eq!(curve, [500, 1_000, 2_000, 3_000]);
        assert_eq!(a.backoff(u32::MAX).as_millis(), 3_000);
    }

    #[test]
    fn horizon_drain_is_sorted_and_clears_every_mirror() {
        let mut a = admission(OverloadConfig::default());
        for (req, id) in [(3, 5), (0, 9), (3, 1), (0, 9), (1, 4)] {
            a.backlog_push(NodeId(req), id);
        }
        assert_eq!(a.report.peak_inflight_fetches, 5);
        let drained = a.drain_stranded();
        let keys: Vec<(usize, u64)> = drained.iter().map(|&(v, id)| (v.0, id)).collect();
        assert_eq!(keys, [(0, 9), (1, 4), (3, 1), (3, 5)]);
        // One exhausted failure per stranded key, however many retries of
        // it were queued.
        assert_eq!(a.report.fetch_exhausted, 4);
        assert!(a.fetch_backlog.is_empty());
        assert_eq!(a.backlog_total, 0);
        assert!(a.inflight_fetches.iter().all(|&c| c == 0));
        assert!(a.drain_stranded().is_empty());
    }

    #[test]
    fn default_limits_admit_everything_and_touch_nothing() {
        let mut a = admission(OverloadConfig::default());
        for i in 0..200usize {
            let now = SimTime::from_secs(i as u64);
            a.update_ladder(i * 1_000, now);
            assert!(a.admit(Op::Item { pending: i * 1_000 }, now));
            assert!(a.admit(fetch(i % 4, i % 2 == 0), now));
            a.backlog_push(NodeId(i % 4), i as u64);
            assert!(!a.defer_replication(3) && !a.defer_repair());
            assert!(a.retry_delay(0, now).is_some());
        }
        assert!(a.item_bucket.is_none() && a.fetch_bucket.is_none() && a.retry_bucket.is_none());
        assert!(!a.report.engaged());
        assert_eq!(
            (a.report.offered_items, a.report.admitted_items),
            (200, 200)
        );
        assert_eq!(
            (a.report.offered_fetches, a.report.admitted_fetches),
            (200, 200)
        );
    }

    #[test]
    fn ladder_rungs_defer_what_they_say() {
        let mut a = admission(OverloadConfig {
            max_pending_items: Some(100),
            ..OverloadConfig::default()
        });
        a.update_ladder(80, T0); // L2
        assert!(!a.defer_replication(0), "the first copy always lands");
        assert!(a.defer_replication(1));
        assert!(!a.defer_repair());
        a.update_ladder(95, T0); // L3
        assert!(a.defer_repair());
        a.update_ladder(10, T0);
        assert!(!a.defer_replication(1) && !a.defer_repair());
        assert_eq!(
            (a.report.deferred_replications, a.report.deferred_repairs),
            (1, 1)
        );
        assert_eq!(a.report.max_degrade_level, 3);
    }

    proptest! {
        /// After any push/pop sequence the running total equals both the
        /// sum of the per-key counts and the sum of the per-node mirror.
        #[test]
        fn backlog_mirrors_agree(ops in proptest::collection::vec((any::<bool>(), 0usize..4, 0u64..6), 0..200)) {
            let mut a = admission(OverloadConfig::default());
            let mut peak = 0;
            for (push, node, id) in ops {
                if push {
                    a.backlog_push(NodeId(node), id);
                } else {
                    a.backlog_pop(NodeId(node), id); // no-op on a missing key
                }
                let by_key: u64 = a.fetch_backlog.values().map(|&c| u64::from(c)).sum();
                let by_node: u64 = a.inflight_fetches.iter().map(|&c| u64::from(c)).sum();
                prop_assert_eq!(a.backlog_total, by_key);
                prop_assert_eq!(a.backlog_total, by_node);
                prop_assert!(a.fetch_backlog.values().all(|&c| c > 0));
                peak = peak.max(a.backlog_total);
                prop_assert_eq!(a.report.peak_inflight_fetches, peak);
            }
        }
    }
}
