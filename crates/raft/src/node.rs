//! The raft replica state machine (sans-I/O).
//!
//! [`RaftNode`] is a pure state machine: callers feed it time via
//! [`RaftNode::tick_into`] and messages via [`RaftNode::handle_into`], and
//! it appends the envelopes to transmit to a caller-owned outbox
//! ([`RaftNode::tick`] / [`RaftNode::handle`] return them in a fresh `Vec`
//! instead). [`RaftNode::next_due`] says when it next needs time, so a
//! driver polls only the nodes that are due. This makes it driveable both
//! by the deterministic test cluster ([`crate::cluster`]) and by the edge
//! network simulation, where raft provides the paper's "general
//! information consensus" and its heartbeat traffic is charged to the
//! overhead metrics.

use crate::message::{Envelope, LogEntry, LogIndex, Message, PeerId, Term};
use edgechain_sim::SimTime;
use edgechain_telemetry::{self as telemetry, trace_event};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::fmt;

/// Raft timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaftConfig {
    /// Lower bound of the randomized election timeout.
    pub election_timeout_min: SimTime,
    /// Upper bound (exclusive) of the randomized election timeout.
    pub election_timeout_max: SimTime,
    /// Leader heartbeat period; must be well below the election timeout.
    pub heartbeat_interval: SimTime,
    /// Cap on entries shipped per `AppendEntries` message.
    pub max_entries_per_append: usize,
    /// Run the Raft §9.6 pre-vote phase before real elections: a node asks
    /// whether it *would* win without bumping its term, so partitioned
    /// nodes that flap back cannot depose a healthy leader. Off by default
    /// (classic raft).
    pub pre_vote: bool,
}

impl Default for RaftConfig {
    fn default() -> Self {
        RaftConfig {
            election_timeout_min: SimTime::from_millis(300),
            election_timeout_max: SimTime::from_millis(600),
            heartbeat_interval: SimTime::from_millis(100),
            max_entries_per_append: 64,
            pre_vote: false,
        }
    }
}

/// The three raft roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Passive replica following a leader.
    Follower,
    /// Election in progress.
    Candidate,
    /// Elected leader for the current term.
    Leader,
}

/// Error returned by [`RaftNode::propose`] on a non-leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotLeader {
    /// Best known current leader, if any.
    pub leader_hint: Option<PeerId>,
}

impl fmt::Display for NotLeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.leader_hint {
            Some(l) => write!(f, "not leader; try {l}"),
            None => write!(f, "not leader; no known leader"),
        }
    }
}

impl std::error::Error for NotLeader {}

/// One raft replica.
///
/// # Examples
///
/// A single-node cluster elects itself and commits immediately:
///
/// ```
/// use edgechain_raft::{PeerId, RaftConfig, RaftNode, Role};
/// use edgechain_sim::SimTime;
///
/// let mut node: RaftNode<&str> =
///     RaftNode::new(PeerId(0), vec![PeerId(0)], RaftConfig::default(), 7);
/// node.tick(SimTime::from_secs(10)); // election timeout fires
/// assert_eq!(node.role(), Role::Leader);
/// node.propose("hello")?;
/// assert_eq!(node.take_committed(), vec![(1, "hello")]);
/// # Ok::<(), edgechain_raft::NotLeader>(())
/// ```
#[derive(Debug)]
pub struct RaftNode<C> {
    id: PeerId,
    cluster: Vec<PeerId>,
    config: RaftConfig,
    rng: StdRng,

    term: Term,
    voted_for: Option<PeerId>,
    /// Entries after `log_start` (the snapshot boundary).
    log: Vec<LogEntry<C>>,
    /// Index of the last entry covered by the snapshot (0 = none).
    log_start: LogIndex,
    /// Term of the entry at `log_start`.
    snapshot_term: Term,
    /// Committed commands `1..=log_start`, in order.
    snapshot: Vec<C>,
    commit_index: LogIndex,
    drained_index: LogIndex,

    role: Role,
    votes_received: HashSet<PeerId>,
    prevotes_received: HashSet<PeerId>,
    /// The would-be term of the pre-vote round in flight (0 = none).
    prevote_term: Term,
    /// Indexed by `PeerId`, sized on first election win: next entry to
    /// ship to each peer.
    next_index: Vec<LogIndex>,
    /// Indexed by `PeerId`, sized on first election win: highest entry
    /// known replicated on each peer (0 for this node and for ids outside
    /// the cluster).
    match_index: Vec<LogIndex>,
    leader_hint: Option<PeerId>,

    election_deadline: SimTime,
    heartbeat_due: SimTime,
    /// Last time a valid leader contacted this node (pre-vote grants are
    /// refused while this is fresh).
    last_leader_contact: SimTime,
}

impl<C: Clone> RaftNode<C> {
    /// Creates a follower at term 0.
    ///
    /// `cluster` must contain `id`. `seed` drives the randomized election
    /// timeouts, so identical seeds reproduce identical elections.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` does not contain `id`, or the timeout range is
    /// empty or not above the heartbeat interval.
    pub fn new(id: PeerId, cluster: Vec<PeerId>, config: RaftConfig, seed: u64) -> Self {
        assert!(cluster.contains(&id), "cluster must contain this node");
        assert!(
            config.election_timeout_min < config.election_timeout_max,
            "election timeout range must be nonempty"
        );
        assert!(
            config.heartbeat_interval < config.election_timeout_min,
            "heartbeat must be shorter than the election timeout"
        );
        let mut node = RaftNode {
            id,
            cluster,
            config,
            rng: StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15),
            term: 0,
            voted_for: None,
            log: Vec::new(),
            log_start: 0,
            snapshot_term: 0,
            snapshot: Vec::new(),
            commit_index: 0,
            drained_index: 0,
            role: Role::Follower,
            votes_received: HashSet::new(),
            prevotes_received: HashSet::new(),
            prevote_term: 0,
            next_index: Vec::new(),
            match_index: Vec::new(),
            leader_hint: None,
            election_deadline: SimTime::ZERO,
            heartbeat_due: SimTime::ZERO,
            last_leader_contact: SimTime::ZERO,
        };
        node.reset_election_deadline(SimTime::ZERO);
        node
    }

    /// This node's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// Current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Current term.
    pub fn term(&self) -> Term {
        self.term
    }

    /// Highest committed log index.
    pub fn commit_index(&self) -> LogIndex {
        self.commit_index
    }

    /// Total logical log length (snapshot-covered prefix + retained tail).
    pub fn log_len(&self) -> LogIndex {
        self.log_start + self.log.len() as LogIndex
    }

    /// Number of entries physically retained (not compacted away).
    pub fn retained_log_len(&self) -> usize {
        self.log.len()
    }

    /// Index of the last snapshot-covered entry (0 when never compacted).
    pub fn log_start(&self) -> LogIndex {
        self.log_start
    }

    /// Entry at 1-based `index`, if still retained (compacted entries are
    /// gone; use [`RaftNode::take_committed`] to observe applied commands).
    pub fn entry(&self, index: LogIndex) -> Option<&LogEntry<C>> {
        if index <= self.log_start {
            return None;
        }
        self.log.get((index - self.log_start - 1) as usize)
    }

    /// Discards log entries up to `index` (clamped to the commit index),
    /// folding their commands into the snapshot (Raft §7). Returns the new
    /// snapshot boundary.
    pub fn compact_to(&mut self, index: LogIndex) -> LogIndex {
        let target = index.min(self.commit_index);
        if target <= self.log_start {
            return self.log_start;
        }
        let take = (target - self.log_start) as usize;
        self.snapshot_term = self.log[take - 1].term;
        for entry in self.log.drain(..take) {
            self.snapshot.push(entry.command);
        }
        self.log_start = target;
        self.log_start
    }

    /// Best-known leader (this node when it is leader).
    pub fn leader_hint(&self) -> Option<PeerId> {
        if self.role == Role::Leader {
            Some(self.id)
        } else {
            self.leader_hint
        }
    }

    /// Peers other than this node.
    fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        let me = self.id;
        self.cluster.iter().copied().filter(move |&p| p != me)
    }

    fn majority(&self) -> usize {
        self.cluster.len() / 2 + 1
    }

    fn last_log_index(&self) -> LogIndex {
        self.log_start + self.log.len() as LogIndex
    }

    fn last_log_term(&self) -> Term {
        self.log.last().map_or(self.snapshot_term, |e| e.term)
    }

    fn term_at(&self, index: LogIndex) -> Option<Term> {
        if index == 0 {
            Some(0)
        } else if index == self.log_start {
            Some(self.snapshot_term)
        } else if index < self.log_start {
            None // compacted away
        } else {
            self.log
                .get((index - self.log_start - 1) as usize)
                .map(|e| e.term)
        }
    }

    fn reset_election_deadline(&mut self, now: SimTime) {
        let span = self.config.election_timeout_max.as_millis()
            - self.config.election_timeout_min.as_millis();
        let jitter = self.rng.gen_range(0..span.max(1));
        self.election_deadline =
            now + self.config.election_timeout_min + SimTime::from_millis(jitter);
    }

    /// When this node next needs time: the heartbeat deadline for a leader,
    /// the election deadline otherwise. [`RaftNode::tick_into`] before then
    /// is a no-op, so a driver may skip the node until this time; only a
    /// handled message can move it.
    pub fn next_due(&self) -> SimTime {
        match self.role {
            Role::Leader => self.heartbeat_due,
            Role::Follower | Role::Candidate => self.election_deadline,
        }
    }

    /// Advances time, appending messages to send (election or heartbeats)
    /// to `out`. Does nothing before [`RaftNode::next_due`].
    pub fn tick_into(&mut self, now: SimTime, out: &mut Vec<Envelope<C>>) {
        if now < self.next_due() {
            return;
        }
        telemetry::counter_add("raft.node_ticks", 1);
        match self.role {
            Role::Leader => {
                self.heartbeat_due = now + self.config.heartbeat_interval;
                self.broadcast_append(out);
            }
            Role::Follower | Role::Candidate if self.config.pre_vote => {
                self.start_prevote(now, out);
            }
            Role::Follower | Role::Candidate => self.start_election(now, out),
        }
    }

    /// [`RaftNode::tick_into`] into a fresh `Vec`.
    pub fn tick(&mut self, now: SimTime) -> Vec<Envelope<C>> {
        let mut out = Vec::new();
        self.tick_into(now, &mut out);
        out
    }

    /// Appends one copy of `message` per peer to `out`.
    fn to_peers(&self, message: Message<C>, out: &mut Vec<Envelope<C>>) {
        out.extend(self.peers().map(|to| Envelope {
            to,
            message: message.clone(),
        }));
    }

    /// Probes peers for a would-be election at `term + 1` without touching
    /// any persistent state (term, voted_for).
    fn start_prevote(&mut self, now: SimTime, out: &mut Vec<Envelope<C>>) {
        self.prevotes_received.clear();
        self.prevotes_received.insert(self.id);
        self.prevote_term = self.term + 1;
        self.reset_election_deadline(now);
        if self.prevotes_received.len() >= self.majority() {
            // Single-node cluster: no probe needed.
            return self.start_election(now, out);
        }
        let msg = Message::PreVote {
            term: self.term + 1,
            candidate: self.id,
            last_log_index: self.last_log_index(),
            last_log_term: self.last_log_term(),
        };
        self.to_peers(msg, out);
    }

    fn start_election(&mut self, now: SimTime, out: &mut Vec<Envelope<C>>) {
        self.prevote_term = 0;
        self.term += 1;
        telemetry::counter_add("raft.elections", 1);
        telemetry::counter_add("raft.term_changes", 1);
        trace_event!(
            "raft.election",
            now.as_millis(),
            node = self.id.0,
            term = self.term
        );
        self.role = Role::Candidate;
        self.voted_for = Some(self.id);
        self.votes_received.clear();
        self.votes_received.insert(self.id);
        self.leader_hint = None;
        self.reset_election_deadline(now);
        if self.votes_received.len() >= self.majority() {
            // Single-node cluster: win immediately.
            return self.become_leader(now, out);
        }
        let msg = Message::RequestVote {
            term: self.term,
            candidate: self.id,
            last_log_index: self.last_log_index(),
            last_log_term: self.last_log_term(),
        };
        self.to_peers(msg, out);
    }

    fn become_leader(&mut self, now: SimTime, out: &mut Vec<Envelope<C>>) {
        telemetry::counter_add("raft.leaders_elected", 1);
        trace_event!(
            "raft.leader",
            now.as_millis(),
            node = self.id.0,
            term = self.term
        );
        self.role = Role::Leader;
        self.heartbeat_due = now + self.config.heartbeat_interval;
        let ids = self.cluster.iter().map(|p| p.0 + 1).max().unwrap_or(0);
        let next = self.last_log_index() + 1;
        self.next_index.clear();
        self.next_index.resize(ids, next);
        self.match_index.clear();
        self.match_index.resize(ids, 0);
        self.broadcast_append(out);
    }

    fn step_down(&mut self, term: Term) {
        if term != self.term {
            telemetry::counter_add("raft.term_changes", 1);
        }
        self.term = term;
        self.role = Role::Follower;
        self.voted_for = None;
        self.votes_received.clear();
        self.prevote_term = 0;
    }

    fn append_for(&self, peer: PeerId) -> Envelope<C> {
        let next = self.next_index[peer.0];
        if next <= self.log_start {
            // The entries this follower needs were compacted: ship the
            // snapshot instead (Raft §7).
            return Envelope {
                to: peer,
                message: Message::InstallSnapshot {
                    term: self.term,
                    leader: self.id,
                    last_included_index: self.log_start,
                    last_included_term: self.snapshot_term,
                    commands: self.snapshot.clone(),
                },
            };
        }
        let prev_log_index = next - 1;
        let prev_log_term = self.term_at(prev_log_index).unwrap_or(0);
        let from = (next - self.log_start - 1) as usize;
        let to_excl = self
            .log
            .len()
            .min(from + self.config.max_entries_per_append);
        let entries: Vec<LogEntry<C>> = if from < self.log.len() {
            self.log[from..to_excl].to_vec()
        } else {
            Vec::new()
        };
        Envelope {
            to: peer,
            message: Message::AppendEntries {
                term: self.term,
                leader: self.id,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit: self.commit_index,
            },
        }
    }

    fn broadcast_append(&self, out: &mut Vec<Envelope<C>>) {
        let before = out.len();
        out.extend(self.peers().map(|p| self.append_for(p)));
        telemetry::counter_add("raft.appends_sent", (out.len() - before) as u64);
    }

    /// Proposes a command for replication.
    ///
    /// # Errors
    ///
    /// Returns [`NotLeader`] when this node is not the leader; the error
    /// carries a hint to the best-known leader for redirection.
    pub fn propose(&mut self, command: C) -> Result<LogIndex, NotLeader> {
        if self.role != Role::Leader {
            return Err(NotLeader {
                leader_hint: self.leader_hint(),
            });
        }
        self.log.push(LogEntry {
            term: self.term,
            command,
        });
        let index = self.last_log_index();
        self.advance_commit();
        Ok(index)
    }

    /// Handles an incoming message from `from`, appending replies and side
    /// messages to `out`.
    pub fn handle_into(
        &mut self,
        from: PeerId,
        message: Message<C>,
        now: SimTime,
        out: &mut Vec<Envelope<C>>,
    ) {
        // A PreVote carries a *would-be* term; it must never force a step
        // down — that is the entire point of the pre-vote phase.
        if !matches!(message, Message::PreVote { .. }) && message.term() > self.term {
            self.step_down(message.term());
        }
        let mut reply = |message| out.push(Envelope { to: from, message });
        match message {
            Message::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => {
                let up_to_date = last_log_term > self.last_log_term()
                    || (last_log_term == self.last_log_term()
                        && last_log_index >= self.last_log_index());
                let can_vote = match self.voted_for {
                    None => true,
                    Some(v) => v == candidate,
                };
                let grant =
                    term == self.term && self.role == Role::Follower && up_to_date && can_vote;
                if grant {
                    self.voted_for = Some(candidate);
                    self.reset_election_deadline(now);
                }
                reply(Message::RequestVoteResponse {
                    term: self.term,
                    granted: grant,
                });
            }
            Message::PreVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => {
                let _ = candidate;
                let up_to_date = last_log_term > self.last_log_term()
                    || (last_log_term == self.last_log_term()
                        && last_log_index >= self.last_log_index());
                // Grant only when we ourselves have not heard from a live
                // leader within the minimum election timeout: a follower
                // still receiving heartbeats refuses, which is what
                // protects a healthy leader from flapping nodes.
                let no_live_leader =
                    now >= self.last_leader_contact + self.config.election_timeout_min;
                let grant = term > self.term && up_to_date && no_live_leader;
                reply(Message::PreVoteResponse {
                    term: self.term,
                    granted: grant,
                });
            }
            Message::PreVoteResponse { term: _, granted } => {
                let round_live = self.prevote_term == self.term + 1;
                let no_live_leader =
                    now >= self.last_leader_contact + self.config.election_timeout_min;
                if self.role == Role::Follower && granted && round_live && no_live_leader {
                    self.prevotes_received.insert(from);
                    if self.prevotes_received.len() >= self.majority() {
                        self.start_election(now, out);
                    }
                }
            }
            Message::RequestVoteResponse { term, granted } => {
                if self.role == Role::Candidate && term == self.term && granted {
                    self.votes_received.insert(from);
                    if self.votes_received.len() >= self.majority() {
                        self.become_leader(now, out);
                    }
                }
            }
            Message::AppendEntries {
                term,
                leader,
                prev_log_index,
                prev_log_term,
                entries,
                leader_commit,
            } => {
                if term < self.term {
                    return reply(Message::AppendEntriesResponse {
                        term: self.term,
                        success: false,
                        match_index: 0,
                    });
                }
                // Valid leader for our term.
                self.role = Role::Follower;
                self.leader_hint = Some(leader);
                self.reset_election_deadline(now);
                self.last_leader_contact = now;
                self.prevote_term = 0;

                // Entries at or below our snapshot boundary are already
                // committed here; skip them and re-anchor at the boundary.
                let (prev_log_index, prev_log_term, entries) = if prev_log_index < self.log_start {
                    let skip = (self.log_start - prev_log_index) as usize;
                    if entries.len() <= skip {
                        return reply(Message::AppendEntriesResponse {
                            term: self.term,
                            success: true,
                            match_index: self.log_start.max(prev_log_index + entries.len() as u64),
                        });
                    }
                    (self.log_start, self.snapshot_term, entries[skip..].to_vec())
                } else {
                    (prev_log_index, prev_log_term, entries)
                };
                match self.term_at(prev_log_index) {
                    Some(t) if t == prev_log_term => {
                        // Append, resolving conflicts.
                        let mut index = prev_log_index;
                        for entry in entries {
                            index += 1;
                            match self.term_at(index) {
                                Some(t) if t == entry.term => {} // already present
                                _ => {
                                    self.log.truncate((index - self.log_start - 1) as usize);
                                    self.log.push(entry);
                                }
                            }
                        }
                        if leader_commit > self.commit_index {
                            self.commit_index = leader_commit.min(index);
                        }
                        reply(Message::AppendEntriesResponse {
                            term: self.term,
                            success: true,
                            match_index: index,
                        });
                    }
                    _ => {
                        // Log mismatch: hint back-off to our log end.
                        let hint = self.last_log_index().min(prev_log_index.saturating_sub(1));
                        reply(Message::AppendEntriesResponse {
                            term: self.term,
                            success: false,
                            match_index: hint,
                        });
                    }
                }
            }
            Message::InstallSnapshot {
                term,
                leader,
                last_included_index,
                last_included_term,
                commands,
            } => {
                if term < self.term {
                    return reply(Message::InstallSnapshotResponse {
                        term: self.term,
                        match_index: 0,
                    });
                }
                self.role = Role::Follower;
                self.leader_hint = Some(leader);
                self.reset_election_deadline(now);
                self.last_leader_contact = now;
                self.prevote_term = 0;
                if last_included_index > self.commit_index {
                    // Retain any log suffix that extends past the snapshot
                    // and agrees with it; otherwise discard the whole log.
                    match self.term_at(last_included_index) {
                        Some(t) if t == last_included_term => {
                            let cut = (last_included_index - self.log_start) as usize;
                            self.log.drain(..cut.min(self.log.len()));
                        }
                        _ => self.log.clear(),
                    }
                    self.snapshot = commands;
                    self.log_start = last_included_index;
                    self.snapshot_term = last_included_term;
                    self.commit_index = last_included_index;
                }
                reply(Message::InstallSnapshotResponse {
                    term: self.term,
                    match_index: self.log_start.max(self.commit_index),
                });
            }
            Message::InstallSnapshotResponse { term, match_index } => {
                if self.role != Role::Leader || term != self.term || match_index == 0 {
                    return;
                }
                self.acknowledge(from, match_index);
                if match_index < self.last_log_index() {
                    out.push(self.append_for(from));
                }
            }
            Message::AppendEntriesResponse {
                term,
                success,
                match_index,
            } => {
                if self.role != Role::Leader || term != self.term {
                    return;
                }
                if success {
                    self.acknowledge(from, match_index);
                    // Ship any remaining entries immediately.
                    if match_index < self.last_log_index() {
                        out.push(self.append_for(from));
                    }
                } else {
                    let next = &mut self.next_index[from.0];
                    *next = (match_index + 1).min(next.saturating_sub(1)).max(1);
                    out.push(self.append_for(from));
                }
            }
        }
    }

    /// [`RaftNode::handle_into`] into a fresh `Vec`.
    pub fn handle(&mut self, from: PeerId, message: Message<C>, now: SimTime) -> Vec<Envelope<C>> {
        let mut out = Vec::new();
        self.handle_into(from, message, now, &mut out);
        out
    }

    /// Records that `peer` holds the log up to `match_index`, resumes its
    /// shipping just past it, and re-checks the commit index.
    fn acknowledge(&mut self, peer: PeerId, match_index: LogIndex) {
        let m = &mut self.match_index[peer.0];
        *m = (*m).max(match_index);
        self.next_index[peer.0] = match_index + 1;
        self.advance_commit();
    }

    /// Advances `commit_index` to the highest index replicated on a
    /// majority whose entry is from the current term (Raft §5.4.2).
    fn advance_commit(&mut self) {
        if self.role != Role::Leader {
            return;
        }
        let last = self.last_log_index();
        for n in ((self.commit_index + 1)..=last).rev() {
            if self.term_at(n) != Some(self.term) {
                continue;
            }
            let replicas = 1 + self.match_index.iter().filter(|&&m| m >= n).count();
            if replicas >= self.majority() {
                self.commit_index = n;
                break;
            }
        }
    }

    /// Drains entries committed since the previous call, in log order.
    pub fn take_committed(&mut self) -> Vec<(LogIndex, C)> {
        let mut out = Vec::new();
        while self.drained_index < self.commit_index {
            self.drained_index += 1;
            let command = if self.drained_index <= self.log_start {
                self.snapshot[self.drained_index as usize - 1].clone()
            } else {
                self.log[(self.drained_index - self.log_start - 1) as usize]
                    .command
                    .clone()
            };
            out.push((self.drained_index, command));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three() -> Vec<PeerId> {
        vec![PeerId(0), PeerId(1), PeerId(2)]
    }

    fn node(id: usize) -> RaftNode<u32> {
        RaftNode::new(PeerId(id), three(), RaftConfig::default(), id as u64)
    }

    fn expire_election(n: &mut RaftNode<u32>) -> Vec<Envelope<u32>> {
        n.tick(SimTime::from_secs(100))
    }

    #[test]
    fn starts_as_follower() {
        let n = node(0);
        assert_eq!(n.role(), Role::Follower);
        assert_eq!(n.term(), 0);
        assert_eq!(n.commit_index(), 0);
    }

    #[test]
    fn election_timeout_starts_campaign() {
        let mut n = node(0);
        let msgs = expire_election(&mut n);
        assert_eq!(n.role(), Role::Candidate);
        assert_eq!(n.term(), 1);
        assert_eq!(msgs.len(), 2);
        for m in &msgs {
            assert!(matches!(m.message, Message::RequestVote { term: 1, .. }));
        }
    }

    #[test]
    fn no_campaign_before_timeout() {
        let mut n = node(0);
        assert!(n.tick(SimTime::from_millis(1)).is_empty());
        assert_eq!(n.role(), Role::Follower);
    }

    #[test]
    fn majority_votes_elect_leader() {
        let mut n = node(0);
        expire_election(&mut n);
        let out = n.handle(
            PeerId(1),
            Message::RequestVoteResponse {
                term: 1,
                granted: true,
            },
            SimTime::from_secs(100),
        );
        assert_eq!(n.role(), Role::Leader);
        // Immediately heartbeats both peers.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|e| e.message.is_heartbeat()));
    }

    #[test]
    fn rejected_votes_do_not_elect() {
        let mut n = node(0);
        expire_election(&mut n);
        n.handle(
            PeerId(1),
            Message::RequestVoteResponse {
                term: 1,
                granted: false,
            },
            SimTime::from_secs(100),
        );
        assert_eq!(n.role(), Role::Candidate);
    }

    #[test]
    fn votes_once_per_term() {
        let mut n = node(2);
        let now = SimTime::from_millis(1);
        let vote = |c: usize| Message::RequestVote {
            term: 1,
            candidate: PeerId(c),
            last_log_index: 0,
            last_log_term: 0,
        };
        let r1 = n.handle(PeerId(0), vote(0), now);
        assert!(matches!(
            r1[0].message,
            Message::RequestVoteResponse { granted: true, .. }
        ));
        let r2 = n.handle(PeerId(1), vote(1), now);
        assert!(matches!(
            r2[0].message,
            Message::RequestVoteResponse { granted: false, .. }
        ));
        // Same candidate asking again is re-granted (idempotent).
        let r3 = n.handle(PeerId(0), vote(0), now);
        assert!(matches!(
            r3[0].message,
            Message::RequestVoteResponse { granted: true, .. }
        ));
    }

    #[test]
    fn stale_log_candidate_rejected() {
        let mut voter = node(1);
        // Give the voter a log entry at term 1.
        voter.handle(
            PeerId(0),
            Message::AppendEntries {
                term: 1,
                leader: PeerId(0),
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![LogEntry {
                    term: 1,
                    command: 5,
                }],
                leader_commit: 0,
            },
            SimTime::from_millis(1),
        );
        let reply = voter.handle(
            PeerId(2),
            Message::RequestVote {
                term: 2,
                candidate: PeerId(2),
                last_log_index: 0,
                last_log_term: 0,
            },
            SimTime::from_millis(2),
        );
        assert!(matches!(
            reply[0].message,
            Message::RequestVoteResponse { granted: false, .. }
        ));
    }

    #[test]
    fn higher_term_steps_leader_down() {
        let mut n = node(0);
        expire_election(&mut n);
        n.handle(
            PeerId(1),
            Message::RequestVoteResponse {
                term: 1,
                granted: true,
            },
            SimTime::from_secs(100),
        );
        assert_eq!(n.role(), Role::Leader);
        n.handle(
            PeerId(2),
            Message::AppendEntries {
                term: 5,
                leader: PeerId(2),
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![],
                leader_commit: 0,
            },
            SimTime::from_secs(101),
        );
        assert_eq!(n.role(), Role::Follower);
        assert_eq!(n.term(), 5);
        assert_eq!(n.leader_hint(), Some(PeerId(2)));
    }

    #[test]
    fn propose_requires_leadership() {
        let mut n = node(0);
        let err = n.propose(1).unwrap_err();
        assert_eq!(err.leader_hint, None);
    }

    #[test]
    fn follower_appends_and_commits() {
        let mut f = node(1);
        let out = f.handle(
            PeerId(0),
            Message::AppendEntries {
                term: 1,
                leader: PeerId(0),
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![
                    LogEntry {
                        term: 1,
                        command: 10,
                    },
                    LogEntry {
                        term: 1,
                        command: 20,
                    },
                ],
                leader_commit: 1,
            },
            SimTime::from_millis(5),
        );
        assert!(matches!(
            out[0].message,
            Message::AppendEntriesResponse {
                success: true,
                match_index: 2,
                ..
            }
        ));
        assert_eq!(f.commit_index(), 1);
        assert_eq!(f.take_committed(), vec![(1, 10)]);
        assert!(f.take_committed().is_empty());
    }

    #[test]
    fn follower_rejects_gap() {
        let mut f = node(1);
        let out = f.handle(
            PeerId(0),
            Message::AppendEntries {
                term: 1,
                leader: PeerId(0),
                prev_log_index: 5,
                prev_log_term: 1,
                entries: vec![LogEntry {
                    term: 1,
                    command: 9,
                }],
                leader_commit: 0,
            },
            SimTime::from_millis(5),
        );
        assert!(matches!(
            out[0].message,
            Message::AppendEntriesResponse { success: false, .. }
        ));
        assert_eq!(f.log_len(), 0);
    }

    #[test]
    fn conflicting_entries_truncated() {
        let mut f = node(1);
        // Term-1 leader appends two entries.
        f.handle(
            PeerId(0),
            Message::AppendEntries {
                term: 1,
                leader: PeerId(0),
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![
                    LogEntry {
                        term: 1,
                        command: 1,
                    },
                    LogEntry {
                        term: 1,
                        command: 2,
                    },
                ],
                leader_commit: 0,
            },
            SimTime::from_millis(1),
        );
        // Term-2 leader overwrites index 2.
        f.handle(
            PeerId(2),
            Message::AppendEntries {
                term: 2,
                leader: PeerId(2),
                prev_log_index: 1,
                prev_log_term: 1,
                entries: vec![LogEntry {
                    term: 2,
                    command: 99,
                }],
                leader_commit: 0,
            },
            SimTime::from_millis(2),
        );
        assert_eq!(f.log_len(), 2);
        assert_eq!(f.entry(2).unwrap().command, 99);
        assert_eq!(f.entry(2).unwrap().term, 2);
    }

    #[test]
    fn leader_commits_after_majority_ack() {
        let mut l = node(0);
        expire_election(&mut l);
        l.handle(
            PeerId(1),
            Message::RequestVoteResponse {
                term: 1,
                granted: true,
            },
            SimTime::from_secs(100),
        );
        let idx = l.propose(42).unwrap();
        assert_eq!(idx, 1);
        assert_eq!(l.commit_index(), 0);
        l.handle(
            PeerId(1),
            Message::AppendEntriesResponse {
                term: 1,
                success: true,
                match_index: 1,
            },
            SimTime::from_secs(100),
        );
        assert_eq!(l.commit_index(), 1);
        assert_eq!(l.take_committed(), vec![(1, 42)]);
    }

    #[test]
    fn failed_append_backs_off_and_retries() {
        let mut l = node(0);
        expire_election(&mut l);
        l.handle(
            PeerId(1),
            Message::RequestVoteResponse {
                term: 1,
                granted: true,
            },
            SimTime::from_secs(100),
        );
        l.propose(1).unwrap();
        l.propose(2).unwrap();
        let retry = l.handle(
            PeerId(2),
            Message::AppendEntriesResponse {
                term: 1,
                success: false,
                match_index: 0,
            },
            SimTime::from_secs(100),
        );
        assert_eq!(retry.len(), 1);
        match &retry[0].message {
            Message::AppendEntries {
                prev_log_index,
                entries,
                ..
            } => {
                assert_eq!(*prev_log_index, 0);
                assert_eq!(entries.len(), 2);
            }
            other => panic!("expected AppendEntries, got {other:?}"),
        }
    }

    #[test]
    fn single_node_cluster_self_elects_and_commits() {
        let mut n: RaftNode<u32> =
            RaftNode::new(PeerId(0), vec![PeerId(0)], RaftConfig::default(), 7);
        n.tick(SimTime::from_secs(10));
        assert_eq!(n.role(), Role::Leader);
        n.propose(7).unwrap();
        assert_eq!(n.commit_index(), 1);
    }

    #[test]
    fn leader_heartbeats_periodically() {
        let mut n = node(0);
        expire_election(&mut n);
        n.handle(
            PeerId(1),
            Message::RequestVoteResponse {
                term: 1,
                granted: true,
            },
            SimTime::from_secs(100),
        );
        // Heartbeat due after the interval.
        let hb = n.tick(SimTime::from_secs(101));
        assert_eq!(hb.len(), 2);
        assert!(hb.iter().all(|e| e.message.is_heartbeat()));
        // Not due again immediately.
        assert!(n.tick(SimTime::from_secs(101)).is_empty());
    }

    #[test]
    fn compaction_preserves_logical_log() {
        let mut n: RaftNode<u32> =
            RaftNode::new(PeerId(0), vec![PeerId(0)], RaftConfig::default(), 1);
        n.tick(SimTime::from_secs(10)); // self-elect
        for cmd in 0..10 {
            n.propose(cmd).unwrap();
        }
        assert_eq!(n.commit_index(), 10);
        let drained: Vec<u32> = n.take_committed().into_iter().map(|(_, c)| c).collect();
        assert_eq!(drained, (0..10).collect::<Vec<_>>());
        assert_eq!(n.compact_to(6), 6);
        assert_eq!(n.log_start(), 6);
        assert_eq!(n.retained_log_len(), 4);
        assert_eq!(n.log_len(), 10);
        // Compacted entries are no longer retrievable; retained ones are.
        assert!(n.entry(6).is_none());
        assert_eq!(n.entry(7).unwrap().command, 6);
        // Further proposals still work.
        n.propose(99).unwrap();
        assert_eq!(n.log_len(), 11);
        assert_eq!(n.take_committed().last().unwrap().1, 99);
    }

    #[test]
    fn compaction_clamped_to_commit() {
        let mut n: RaftNode<u32> = RaftNode::new(PeerId(0), three(), RaftConfig::default(), 1);
        // Follower with 2 appended but only 1 committed.
        n.handle(
            PeerId(0),
            Message::AppendEntries {
                term: 1,
                leader: PeerId(0),
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![
                    LogEntry {
                        term: 1,
                        command: 1,
                    },
                    LogEntry {
                        term: 1,
                        command: 2,
                    },
                ],
                leader_commit: 1,
            },
            SimTime::from_millis(1),
        );
        assert_eq!(n.compact_to(10), 1, "cannot compact past commit");
        assert_eq!(n.log_start(), 1);
    }

    #[test]
    fn leader_ships_snapshot_to_lagging_follower() {
        let mut leader: RaftNode<u32> = RaftNode::new(PeerId(0), three(), RaftConfig::default(), 1);
        expire_election(&mut leader);
        leader.handle(
            PeerId(1),
            Message::RequestVoteResponse {
                term: 1,
                granted: true,
            },
            SimTime::from_secs(100),
        );
        for cmd in 0..8 {
            leader.propose(cmd).unwrap();
        }
        // Peer 1 replicates everything; peer 2 is partitioned away.
        leader.handle(
            PeerId(1),
            Message::AppendEntriesResponse {
                term: 1,
                success: true,
                match_index: 8,
            },
            SimTime::from_secs(100),
        );
        assert_eq!(leader.commit_index(), 8);
        leader.compact_to(8);
        assert_eq!(leader.retained_log_len(), 0);

        // Peer 2 reports a mismatch far behind: leader must snapshot.
        let out = leader.handle(
            PeerId(2),
            Message::AppendEntriesResponse {
                term: 1,
                success: false,
                match_index: 0,
            },
            SimTime::from_secs(101),
        );
        assert_eq!(out.len(), 1);
        let snap = match &out[0].message {
            Message::InstallSnapshot {
                last_included_index,
                commands,
                ..
            } => {
                assert_eq!(*last_included_index, 8);
                assert_eq!(commands.len(), 8);
                out[0].message.clone()
            }
            other => panic!("expected InstallSnapshot, got {other:?}"),
        };

        // The lagging follower installs it and converges.
        let mut follower: RaftNode<u32> =
            RaftNode::new(PeerId(2), three(), RaftConfig::default(), 2);
        let reply = follower.handle(PeerId(0), snap, SimTime::from_secs(101));
        assert!(matches!(
            reply[0].message,
            Message::InstallSnapshotResponse { match_index: 8, .. }
        ));
        assert_eq!(follower.commit_index(), 8);
        let drained: Vec<u32> = follower
            .take_committed()
            .into_iter()
            .map(|(_, c)| c)
            .collect();
        assert_eq!(drained, (0..8).collect::<Vec<_>>());

        // Leader processes the ack and resumes normal replication.
        let more = leader.handle(PeerId(2), reply[0].message.clone(), SimTime::from_secs(102));
        assert!(more.is_empty(), "peer 2 is caught up: {more:?}");
    }

    #[test]
    fn stale_snapshot_is_ignored() {
        let mut n: RaftNode<u32> = RaftNode::new(PeerId(0), three(), RaftConfig::default(), 1);
        // Commit 3 entries first.
        n.handle(
            PeerId(1),
            Message::AppendEntries {
                term: 1,
                leader: PeerId(1),
                prev_log_index: 0,
                prev_log_term: 0,
                entries: (0..3)
                    .map(|c| LogEntry {
                        term: 1,
                        command: c,
                    })
                    .collect(),
                leader_commit: 3,
            },
            SimTime::from_millis(1),
        );
        let before = n.take_committed();
        assert_eq!(before.len(), 3);
        // A snapshot covering less than our commit changes nothing.
        n.handle(
            PeerId(1),
            Message::InstallSnapshot {
                term: 1,
                leader: PeerId(1),
                last_included_index: 2,
                last_included_term: 1,
                commands: vec![0, 1],
            },
            SimTime::from_millis(2),
        );
        assert_eq!(n.commit_index(), 3);
        assert_eq!(n.log_len(), 3);
    }

    fn prevote_config() -> RaftConfig {
        RaftConfig {
            pre_vote: true,
            ..RaftConfig::default()
        }
    }

    #[test]
    fn prevote_timeout_probes_without_term_bump() {
        let mut n: RaftNode<u32> = RaftNode::new(PeerId(0), three(), prevote_config(), 1);
        let out = n.tick(SimTime::from_secs(100));
        // Still a term-0 follower; only probes were sent.
        assert_eq!(n.role(), Role::Follower);
        assert_eq!(n.term(), 0);
        assert_eq!(out.len(), 2);
        for env in &out {
            assert!(matches!(env.message, Message::PreVote { term: 1, .. }));
        }
    }

    #[test]
    fn prevote_majority_starts_real_election() {
        let mut n: RaftNode<u32> = RaftNode::new(PeerId(0), three(), prevote_config(), 1);
        n.tick(SimTime::from_secs(100));
        let out = n.handle(
            PeerId(1),
            Message::PreVoteResponse {
                term: 0,
                granted: true,
            },
            SimTime::from_secs(100),
        );
        // Majority of pre-votes (self + peer 1): the real election starts.
        assert_eq!(n.role(), Role::Candidate);
        assert_eq!(n.term(), 1);
        assert!(out
            .iter()
            .all(|e| matches!(e.message, Message::RequestVote { term: 1, .. })));
    }

    #[test]
    fn follower_with_live_leader_refuses_prevote() {
        let mut follower: RaftNode<u32> = RaftNode::new(PeerId(1), three(), prevote_config(), 2);
        // Heartbeat from a live leader at t=10s.
        follower.handle(
            PeerId(0),
            Message::AppendEntries {
                term: 1,
                leader: PeerId(0),
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![],
                leader_commit: 0,
            },
            SimTime::from_secs(10),
        );
        // A flapping node probes 50 ms later: refused.
        let reply = follower.handle(
            PeerId(2),
            Message::PreVote {
                term: 2,
                candidate: PeerId(2),
                last_log_index: 0,
                last_log_term: 0,
            },
            SimTime::from_secs(10) + SimTime::from_millis(50),
        );
        assert!(matches!(
            reply[0].message,
            Message::PreVoteResponse { granted: false, .. }
        ));
        // Crucially the follower's term did NOT move (no disruption).
        assert_eq!(follower.term(), 1);
        // Once the leader has been silent past the timeout, it grants.
        let reply = follower.handle(
            PeerId(2),
            Message::PreVote {
                term: 2,
                candidate: PeerId(2),
                last_log_index: 0,
                last_log_term: 0,
            },
            SimTime::from_secs(20),
        );
        assert!(matches!(
            reply[0].message,
            Message::PreVoteResponse { granted: true, .. }
        ));
    }

    #[test]
    fn prevote_rejects_stale_log() {
        let mut voter: RaftNode<u32> = RaftNode::new(PeerId(1), three(), prevote_config(), 2);
        voter.handle(
            PeerId(0),
            Message::AppendEntries {
                term: 1,
                leader: PeerId(0),
                prev_log_index: 0,
                prev_log_term: 0,
                entries: vec![LogEntry {
                    term: 1,
                    command: 7,
                }],
                leader_commit: 1,
            },
            SimTime::from_millis(1),
        );
        let reply = voter.handle(
            PeerId(2),
            Message::PreVote {
                term: 2,
                candidate: PeerId(2),
                last_log_index: 0,
                last_log_term: 0,
            },
            SimTime::from_secs(100),
        );
        assert!(matches!(
            reply[0].message,
            Message::PreVoteResponse { granted: false, .. }
        ));
    }

    #[test]
    fn prevote_single_node_self_elects() {
        let mut n: RaftNode<u32> = RaftNode::new(PeerId(0), vec![PeerId(0)], prevote_config(), 3);
        n.tick(SimTime::from_secs(10));
        assert_eq!(n.role(), Role::Leader);
    }

    #[test]
    #[should_panic(expected = "cluster must contain")]
    fn cluster_must_contain_self() {
        let _: RaftNode<u32> = RaftNode::new(PeerId(9), three(), RaftConfig::default(), 0);
    }
}
