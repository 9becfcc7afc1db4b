//! Deterministic in-memory raft cluster for testing and experiments.
//!
//! Wires several [`RaftNode`]s through an [`EventQueue`] with randomized
//! (but seeded) message delays, optional message loss, and link-level
//! partitions. After every delivered event the harness checks the two core
//! raft safety properties:
//!
//! * **Election safety** — at most one leader per term, tracked across the
//!   whole run.
//! * **Log matching** — any two logs agree on every index up to the lower
//!   of their commit indices.
//!
//! # Examples
//!
//! ```
//! use edgechain_raft::{Cluster, ClusterConfig};
//!
//! let mut cluster: Cluster<u64> = Cluster::new(3, ClusterConfig::default(), 42);
//! cluster.run_until_leader(30_000).expect("a leader emerges");
//! cluster.propose(7).unwrap();
//! cluster.run_millis(5_000);
//! assert!(cluster.all_committed(&[7]));
//! ```

use crate::message::{Envelope, Message, PeerId};
use crate::node::{NotLeader, RaftConfig, RaftNode, Role};
use edgechain_sim::{EventQueue, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;

/// Harness parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Raft timing passed to every node.
    pub raft: RaftConfig,
    /// Minimum one-way message delay.
    pub delay_min: SimTime,
    /// Maximum one-way message delay.
    pub delay_max: SimTime,
    /// Probability a message is silently dropped.
    pub drop_rate: f64,
    /// How often node timers are polled.
    pub tick_interval: SimTime,
    /// Compact every node's log down to its commit index whenever the
    /// retained tail exceeds this many entries (`None` disables).
    pub compact_above: Option<usize>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            raft: RaftConfig::default(),
            delay_min: SimTime::from_millis(5),
            delay_max: SimTime::from_millis(30),
            drop_rate: 0.0,
            tick_interval: SimTime::from_millis(10),
            compact_above: None,
        }
    }
}

enum Event<C> {
    Deliver { from: PeerId, env: Envelope<C> },
    Tick,
}

/// Message-type counters for overhead analysis (the paper notes raft
/// "transmits a large number of heartbeat messages").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageCounts {
    /// Heartbeats (empty AppendEntries).
    pub heartbeats: u64,
    /// AppendEntries carrying at least one entry.
    pub appends: u64,
    /// RequestVote messages.
    pub votes: u64,
    /// InstallSnapshot messages (log compaction catch-up).
    pub snapshots: u64,
    /// All responses.
    pub responses: u64,
    /// Messages dropped by the lossy network.
    pub dropped: u64,
}

impl MessageCounts {
    /// Total messages offered to the network (delivered + dropped).
    pub fn total(&self) -> u64 {
        self.heartbeats + self.appends + self.votes + self.snapshots + self.responses
    }
}

/// Error from a failed safety check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SafetyViolation {
    /// Two leaders observed in one term.
    TwoLeaders {
        /// The term in question.
        term: u64,
        /// First observed leader.
        first: PeerId,
        /// Second observed leader.
        second: PeerId,
    },
    /// Committed logs diverge.
    LogMismatch {
        /// First node.
        a: PeerId,
        /// Second node.
        b: PeerId,
        /// First index at which they disagree.
        index: u64,
    },
}

impl fmt::Display for SafetyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafetyViolation::TwoLeaders {
                term,
                first,
                second,
            } => {
                write!(f, "two leaders in term {term}: {first} and {second}")
            }
            SafetyViolation::LogMismatch { a, b, index } => {
                write!(f, "committed logs of {a} and {b} diverge at index {index}")
            }
        }
    }
}

impl std::error::Error for SafetyViolation {}

/// A simulated raft cluster.
pub struct Cluster<C> {
    nodes: Vec<RaftNode<C>>,
    queue: EventQueue<Event<C>>,
    rng: StdRng,
    config: ClusterConfig,
    /// `link_up[a][b]` — messages from a to b are delivered.
    link_up: Vec<Vec<bool>>,
    leaders_by_term: HashMap<u64, PeerId>,
    counts: MessageCounts,
    committed: Vec<Vec<C>>,
    /// Envelopes the node being stepped just emitted, reused across steps.
    outbox: Vec<Envelope<C>>,
}

impl<C: Clone + PartialEq + fmt::Debug> Cluster<C> {
    /// Creates a cluster of `n` fresh followers.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, config: ClusterConfig, seed: u64) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        let ids: Vec<PeerId> = (0..n).map(PeerId).collect();
        let nodes = ids
            .iter()
            .map(|&id| RaftNode::new(id, ids.clone(), config.raft, seed.wrapping_add(id.0 as u64)))
            .collect();
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::ZERO, Event::Tick);
        Cluster {
            nodes,
            queue,
            rng: StdRng::seed_from_u64(seed),
            config,
            link_up: vec![vec![true; n]; n],
            leaders_by_term: HashMap::new(),
            counts: MessageCounts::default(),
            committed: vec![Vec::new(); n],
            outbox: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster is empty (never true).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Message-type counters so far.
    pub fn message_counts(&self) -> MessageCounts {
        self.counts
    }

    /// Immutable access to a node.
    pub fn node(&self, id: PeerId) -> &RaftNode<C> {
        &self.nodes[id.0]
    }

    /// The unique live leader with the highest term, if any.
    pub fn leader(&self) -> Option<PeerId> {
        self.nodes
            .iter()
            .filter(|n| n.role() == Role::Leader)
            .max_by_key(|n| n.term())
            .map(|n| n.id())
    }

    /// Commands each node has applied (committed), in order.
    pub fn committed_log(&self, id: PeerId) -> &[C] {
        &self.committed[id.0]
    }

    /// Whether every node has committed exactly the prefix `expected`.
    pub fn all_committed(&self, expected: &[C]) -> bool {
        self.committed.iter().all(|log| log.as_slice() == expected)
    }

    /// Proposes a command at the current leader.
    ///
    /// # Errors
    ///
    /// Returns [`NotLeader`] when no leader is currently elected.
    pub fn propose(&mut self, command: C) -> Result<(), NotLeader> {
        let leader = self.leader().ok_or(NotLeader { leader_hint: None })?;
        self.nodes[leader.0].propose(command)?;
        Ok(())
    }

    /// Severs links between `group` and the rest (and restores links inside
    /// each side).
    pub fn partition(&mut self, group: &[PeerId]) {
        let n = self.nodes.len();
        let in_group = |p: usize| group.iter().any(|g| g.0 == p);
        for a in 0..n {
            for b in 0..n {
                self.link_up[a][b] = in_group(a) == in_group(b);
            }
        }
    }

    /// Restores full connectivity.
    pub fn heal(&mut self) {
        for row in &mut self.link_up {
            row.iter_mut().for_each(|l| *l = true);
        }
    }

    /// Runs the cluster for `ms` simulated milliseconds.
    ///
    /// # Panics
    ///
    /// Panics on a safety violation (election safety / log matching); these
    /// indicate a bug in the raft implementation, not the caller.
    pub fn run_millis(&mut self, ms: u64) {
        let deadline = self.now() + SimTime::from_millis(ms);
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
    }

    /// Runs until a leader exists or `ms` elapse.
    ///
    /// # Errors
    ///
    /// Returns [`NoLeader`] if the deadline passes without an election.
    pub fn run_until_leader(&mut self, ms: u64) -> Result<PeerId, NoLeader> {
        let deadline = self.now() + SimTime::from_millis(ms);
        loop {
            if let Some(l) = self.leader() {
                return Ok(l);
            }
            match self.queue.peek_time() {
                Some(t) if t <= deadline => self.step(),
                _ => return Err(NoLeader { waited_ms: ms }),
            }
        }
    }

    fn step(&mut self) {
        let Some((now, event)) = self.queue.pop() else {
            return;
        };
        match event {
            Event::Tick => {
                // A node's tick before its `next_due` is a no-op: poll only
                // the due ones.
                for i in 0..self.nodes.len() {
                    if now >= self.nodes[i].next_due() {
                        self.nodes[i].tick_into(now, &mut self.outbox);
                        self.dispatch(PeerId(i), now);
                    }
                }
                self.queue
                    .schedule(now + self.config.tick_interval, Event::Tick);
            }
            Event::Deliver { from, env } => {
                let to = env.to;
                self.nodes[to.0].handle_into(from, env.message, now, &mut self.outbox);
                self.dispatch(to, now);
            }
        }
        self.drain_committed();
        if let Some(threshold) = self.config.compact_above {
            for node in &mut self.nodes {
                if node.retained_log_len() > threshold {
                    node.compact_to(node.commit_index());
                }
            }
        }
        if let Err(v) = self.check_safety() {
            panic!("raft safety violation: {v}");
        }
    }

    /// Sends (or drops) every envelope in the outbox, leaving it empty.
    fn dispatch(&mut self, from: PeerId, now: SimTime) {
        let mut outbox = std::mem::take(&mut self.outbox);
        for env in outbox.drain(..) {
            match &env.message {
                Message::RequestVote { .. } | Message::PreVote { .. } => self.counts.votes += 1,
                Message::AppendEntries { entries, .. } => {
                    if entries.is_empty() {
                        self.counts.heartbeats += 1;
                    } else {
                        self.counts.appends += 1;
                    }
                }
                Message::InstallSnapshot { .. } => self.counts.snapshots += 1,
                _ => self.counts.responses += 1,
            }
            if !self.link_up[from.0][env.to.0] {
                self.counts.dropped += 1;
                continue;
            }
            if self.config.drop_rate > 0.0 && self.rng.gen::<f64>() < self.config.drop_rate {
                self.counts.dropped += 1;
                continue;
            }
            let span = self
                .config
                .delay_max
                .as_millis()
                .saturating_sub(self.config.delay_min.as_millis());
            let delay = self.config.delay_min
                + SimTime::from_millis(if span == 0 {
                    0
                } else {
                    self.rng.gen_range(0..=span)
                });
            self.queue
                .schedule(now + delay, Event::Deliver { from, env });
        }
        self.outbox = outbox;
    }

    fn drain_committed(&mut self) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            for (_, cmd) in node.take_committed() {
                self.committed[i].push(cmd);
            }
        }
    }

    fn check_safety(&mut self) -> Result<(), SafetyViolation> {
        // Election safety.
        for node in &self.nodes {
            if node.role() == Role::Leader {
                match self.leaders_by_term.get(&node.term()) {
                    Some(&existing) if existing != node.id() => {
                        return Err(SafetyViolation::TwoLeaders {
                            term: node.term(),
                            first: existing,
                            second: node.id(),
                        });
                    }
                    _ => {
                        self.leaders_by_term.insert(node.term(), node.id());
                    }
                }
            }
        }
        // Log matching over committed prefixes.
        for a in 0..self.nodes.len() {
            for b in a + 1..self.nodes.len() {
                let upto = self.committed[a].len().min(self.committed[b].len());
                for idx in 0..upto {
                    if self.committed[a][idx] != self.committed[b][idx] {
                        return Err(SafetyViolation::LogMismatch {
                            a: PeerId(a),
                            b: PeerId(b),
                            index: idx as u64 + 1,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

impl<C> fmt::Debug for Cluster<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("now", &self.queue.now())
            .finish()
    }
}

/// Error returned when no leader emerged within the deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoLeader {
    /// How long the harness waited.
    pub waited_ms: u64,
}

impl fmt::Display for NoLeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no leader elected within {} ms", self.waited_ms)
    }
}

impl std::error::Error for NoLeader {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elects_a_leader() {
        let mut c: Cluster<u32> = Cluster::new(3, ClusterConfig::default(), 1);
        let leader = c.run_until_leader(30_000).unwrap();
        assert_eq!(c.node(leader).role(), Role::Leader);
    }

    #[test]
    fn replicates_commands() {
        let mut c: Cluster<u32> = Cluster::new(5, ClusterConfig::default(), 2);
        c.run_until_leader(30_000).unwrap();
        for cmd in [1, 2, 3] {
            c.propose(cmd).unwrap();
        }
        c.run_millis(5_000);
        assert!(c.all_committed(&[1, 2, 3]));
    }

    #[test]
    fn survives_message_loss() {
        let cfg = ClusterConfig {
            drop_rate: 0.2,
            ..ClusterConfig::default()
        };
        let mut c: Cluster<u32> = Cluster::new(3, cfg, 3);
        c.run_until_leader(60_000).unwrap();
        c.propose(9).unwrap();
        c.run_millis(20_000);
        assert!(
            c.all_committed(&[9]),
            "committed: {:?}",
            c.committed_log(PeerId(0))
        );
    }

    #[test]
    fn minority_partition_cannot_commit() {
        let mut c: Cluster<u32> = Cluster::new(5, ClusterConfig::default(), 4);
        let leader = c.run_until_leader(30_000).unwrap();
        // Isolate the leader with one follower (minority).
        let follower = PeerId((leader.0 + 1) % 5);
        c.partition(&[leader, follower]);
        let _ = c.nodes[leader.0].propose(77);
        c.run_millis(5_000);
        // The isolated leader cannot commit.
        assert!(c.committed_log(leader).is_empty());
        // Majority side elects a new leader.
        let new_leader = c.leader().expect("majority elects");
        assert_ne!(new_leader, leader);
        // Heal; the stale entry must be overwritten, logs stay consistent.
        c.heal();
        c.propose(88).ok();
        c.run_millis(10_000);
        for i in 0..5 {
            assert!(!c.committed_log(PeerId(i)).contains(&77));
        }
    }

    #[test]
    fn recovers_after_full_partition_heal() {
        let mut c: Cluster<u32> = Cluster::new(3, ClusterConfig::default(), 5);
        c.run_until_leader(30_000).unwrap();
        c.propose(1).unwrap();
        c.run_millis(3_000);
        c.partition(&[PeerId(0)]);
        c.run_millis(5_000);
        c.heal();
        c.run_until_leader(30_000).unwrap();
        c.propose(2).unwrap();
        c.run_millis(10_000);
        assert!(c.all_committed(&[1, 2]));
    }

    #[test]
    fn lagging_follower_catches_up_via_snapshot() {
        let cfg = ClusterConfig {
            compact_above: Some(4),
            ..ClusterConfig::default()
        };
        let mut c: Cluster<u32> = Cluster::new(3, cfg, 8);
        let leader = c.run_until_leader(30_000).unwrap();
        // Partition one follower away, commit a long run of entries, and
        // let auto-compaction discard the follower's missing range.
        let lagging = PeerId((leader.0 + 1) % 3);
        c.partition(&[leader, PeerId((leader.0 + 2) % 3)]);
        for i in 0..20 {
            c.propose(i).unwrap();
            c.run_millis(500);
        }
        c.run_millis(5_000);
        assert!(c.node(leader).log_start() > 0, "leader never compacted");
        // Heal: the only way back for the lagging follower is a snapshot.
        c.heal();
        c.run_millis(30_000);
        let expected: Vec<u32> = (0..20).collect();
        assert!(
            c.all_committed(&expected),
            "lagging log: {:?}",
            c.committed_log(lagging)
        );
        assert!(c.message_counts().snapshots > 0, "no snapshot was shipped");
    }

    #[test]
    fn compaction_does_not_disturb_steady_state() {
        let cfg = ClusterConfig {
            compact_above: Some(2),
            ..ClusterConfig::default()
        };
        let mut c: Cluster<u32> = Cluster::new(5, cfg, 12);
        c.run_until_leader(30_000).unwrap();
        for i in 0..15 {
            c.propose(i).unwrap();
            c.run_millis(1_000);
        }
        c.run_millis(10_000);
        let expected: Vec<u32> = (0..15).collect();
        assert!(c.all_committed(&expected));
        // Every node's retained tail is small.
        for i in 0..5 {
            assert!(c.node(PeerId(i)).retained_log_len() <= 3);
        }
    }

    #[test]
    fn prevote_stops_flapping_node_from_deposing_leader() {
        // A node that keeps getting partitioned and healed. With classic
        // raft it times out, bumps its term, and forces the healthy leader
        // to step down on every heal; with pre-vote its probes are refused
        // and the leader's term never moves.
        let run = |pre_vote: bool| -> (u64, bool) {
            let cfg = ClusterConfig {
                raft: RaftConfig {
                    pre_vote,
                    ..RaftConfig::default()
                },
                ..ClusterConfig::default()
            };
            let mut c: Cluster<u32> = Cluster::new(5, cfg, 21);
            let first = c.run_until_leader(30_000).unwrap();
            c.propose(1).unwrap();
            c.run_millis(3_000);
            let term_before = c.node(first).term();
            let flapper = PeerId((first.0 + 1) % 5);
            for _ in 0..3 {
                // Partition the flapper alone, long enough to time out.
                let others: Vec<PeerId> = (0..5).map(PeerId).filter(|&p| p != flapper).collect();
                c.partition(&others);
                c.run_millis(5_000);
                c.heal();
                c.run_millis(5_000);
            }
            let leader_now = c.leader().expect("a leader exists after healing");
            let stable = leader_now == first && c.node(first).term() == term_before;
            (c.node(leader_now).term(), stable)
        };
        let (term_classic, _) = run(false);
        let (term_prevote, stable_prevote) = run(true);
        assert!(
            stable_prevote,
            "pre-vote leader was disturbed (term {term_prevote})"
        );
        assert!(
            term_prevote < term_classic,
            "pre-vote should hold terms down: {term_prevote} vs classic {term_classic}"
        );
    }

    #[test]
    fn prevote_cluster_still_elects_and_replicates() {
        let cfg = ClusterConfig {
            raft: RaftConfig {
                pre_vote: true,
                ..RaftConfig::default()
            },
            ..ClusterConfig::default()
        };
        let mut c: Cluster<u32> = Cluster::new(5, cfg, 22);
        c.run_until_leader(30_000).expect("pre-vote cluster elects");
        for i in 0..5 {
            c.propose(i).unwrap();
            c.run_millis(1_000);
        }
        c.run_millis(10_000);
        assert!(c.all_committed(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn prevote_cluster_recovers_from_leader_failure() {
        let cfg = ClusterConfig {
            raft: RaftConfig {
                pre_vote: true,
                ..RaftConfig::default()
            },
            ..ClusterConfig::default()
        };
        let mut c: Cluster<u32> = Cluster::new(5, cfg, 23);
        let first = c.run_until_leader(30_000).unwrap();
        // Kill the leader (isolate it alone): the rest must still elect a
        // successor even though everyone initially refuses pre-votes.
        c.partition(&[first]);
        c.run_millis(20_000);
        let second = c.leader().expect("majority elects despite pre-vote");
        assert_ne!(second, first);
        c.propose(9).unwrap();
        c.run_millis(10_000);
        for i in 0..5 {
            if PeerId(i) != first {
                assert_eq!(c.committed_log(PeerId(i)), &[9]);
            }
        }
    }

    #[test]
    fn heartbeats_dominate_traffic_when_idle() {
        let mut c: Cluster<u32> = Cluster::new(3, ClusterConfig::default(), 6);
        c.run_until_leader(30_000).unwrap();
        c.run_millis(60_000);
        let counts = c.message_counts();
        assert!(counts.heartbeats > counts.appends);
        assert!(counts.heartbeats > counts.votes);
        assert!(counts.total() > 0);
    }
}
