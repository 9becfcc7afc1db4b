//! Raft wire messages.
//!
//! The message set follows the Raft paper (Ongaro & Ousterhout, USENIX ATC
//! 2014) exactly: `RequestVote`/`AppendEntries` RPCs and their responses.
//! Heartbeats are empty `AppendEntries`. [`Message::wire_size`] gives an
//! estimated serialized size so the edge simulation can charge raft's
//! (notoriously chatty) heartbeat traffic to the transmission-overhead
//! metrics, which the paper calls out as future work.

use std::fmt;

/// Identifier of a raft peer (dense index into the cluster membership).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PeerId(pub usize);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A raft term number.
pub type Term = u64;

/// Index into the raft log (1-based; 0 means "before the first entry").
pub type LogIndex = u64;

/// One replicated log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry<C> {
    /// Term in which the entry was created by a leader.
    pub term: Term,
    /// The replicated command.
    pub command: C,
}

/// A raft RPC or response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message<C> {
    /// Candidate solicits a vote.
    RequestVote {
        /// Candidate's term.
        term: Term,
        /// The candidate asking for the vote.
        candidate: PeerId,
        /// Index of the candidate's last log entry.
        last_log_index: LogIndex,
        /// Term of the candidate's last log entry.
        last_log_term: Term,
    },
    /// Reply to [`Message::RequestVote`].
    RequestVoteResponse {
        /// Responder's current term.
        term: Term,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Pre-vote probe (Raft §9.6, optional via
    /// [`crate::RaftConfig::pre_vote`]): the candidate asks whether it
    /// *would* win an election at `term` **without** incrementing its own
    /// term, so a flapping node cannot inflate terms and depose a healthy
    /// leader — the common failure mode on mobile edge networks.
    PreVote {
        /// The would-be election term (candidate's current term + 1).
        term: Term,
        /// The probing candidate.
        candidate: PeerId,
        /// Index of the candidate's last log entry.
        last_log_index: LogIndex,
        /// Term of the candidate's last log entry.
        last_log_term: Term,
    },
    /// Reply to [`Message::PreVote`]. Carries the responder's *current*
    /// term (not the would-be term), so stale candidates still learn about
    /// newer terms.
    PreVoteResponse {
        /// Responder's current term.
        term: Term,
        /// Whether the responder would grant a real vote.
        granted: bool,
    },
    /// Leader replicates entries (empty = heartbeat).
    AppendEntries {
        /// Leader's term.
        term: Term,
        /// The leader's id.
        leader: PeerId,
        /// Index of the log entry immediately preceding `entries`.
        prev_log_index: LogIndex,
        /// Term of the entry at `prev_log_index`.
        prev_log_term: Term,
        /// Entries to append (empty for heartbeat).
        entries: Vec<LogEntry<C>>,
        /// Leader's commit index.
        leader_commit: LogIndex,
    },
    /// Reply to [`Message::AppendEntries`].
    AppendEntriesResponse {
        /// Responder's current term.
        term: Term,
        /// Whether the append matched and was applied.
        success: bool,
        /// On success, the index of the last entry now known replicated on
        /// the follower; on failure, a hint for `next_index` back-off.
        match_index: LogIndex,
    },
    /// Leader ships its compacted committed prefix to a follower whose
    /// `next_index` fell below the leader's first retained entry
    /// (Raft §7 log compaction).
    InstallSnapshot {
        /// Leader's term.
        term: Term,
        /// The leader's id.
        leader: PeerId,
        /// Index of the last entry covered by the snapshot.
        last_included_index: LogIndex,
        /// Term of that entry.
        last_included_term: Term,
        /// The committed commands `1..=last_included_index`, in order.
        commands: Vec<C>,
    },
    /// Reply to [`Message::InstallSnapshot`].
    InstallSnapshotResponse {
        /// Responder's current term.
        term: Term,
        /// The snapshot's `last_included_index`, acknowledging installation.
        match_index: LogIndex,
    },
}

impl<C> Message<C> {
    /// The message's term, used for the "higher term wins" rule.
    pub fn term(&self) -> Term {
        match self {
            Message::RequestVote { term, .. }
            | Message::RequestVoteResponse { term, .. }
            | Message::PreVote { term, .. }
            | Message::PreVoteResponse { term, .. }
            | Message::AppendEntries { term, .. }
            | Message::AppendEntriesResponse { term, .. }
            | Message::InstallSnapshot { term, .. }
            | Message::InstallSnapshotResponse { term, .. } => *term,
        }
    }

    /// Whether this is a heartbeat (empty `AppendEntries`).
    pub fn is_heartbeat(&self) -> bool {
        matches!(self, Message::AppendEntries { entries, .. } if entries.is_empty())
    }

    /// Estimated wire size in bytes, for traffic accounting.
    ///
    /// Headers are ~32 bytes; each entry is charged `16 + command_size`.
    pub fn wire_size(&self, command_size: impl Fn(&C) -> u64) -> u64 {
        match self {
            Message::RequestVote { .. } | Message::PreVote { .. } => 32,
            Message::RequestVoteResponse { .. } | Message::PreVoteResponse { .. } => 16,
            Message::AppendEntries { entries, .. } => {
                32 + entries
                    .iter()
                    .map(|e| 16 + command_size(&e.command))
                    .sum::<u64>()
            }
            Message::AppendEntriesResponse { .. } => 16,
            Message::InstallSnapshot { commands, .. } => {
                48 + commands.iter().map(&command_size).sum::<u64>()
            }
            Message::InstallSnapshotResponse { .. } => 16,
        }
    }
}

/// A message together with its destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<C> {
    /// Destination peer.
    pub to: PeerId,
    /// Payload.
    pub message: Message<C>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_detection() {
        let hb: Message<u32> = Message::AppendEntries {
            term: 1,
            leader: PeerId(0),
            prev_log_index: 0,
            prev_log_term: 0,
            entries: vec![],
            leader_commit: 0,
        };
        assert!(hb.is_heartbeat());
        let non_hb: Message<u32> = Message::AppendEntries {
            term: 1,
            leader: PeerId(0),
            prev_log_index: 0,
            prev_log_term: 0,
            entries: vec![LogEntry {
                term: 1,
                command: 9,
            }],
            leader_commit: 0,
        };
        assert!(!non_hb.is_heartbeat());
        let rv: Message<u32> = Message::RequestVote {
            term: 1,
            candidate: PeerId(1),
            last_log_index: 0,
            last_log_term: 0,
        };
        assert!(!rv.is_heartbeat());
    }

    #[test]
    fn term_extraction() {
        let m: Message<()> = Message::RequestVoteResponse {
            term: 7,
            granted: true,
        };
        assert_eq!(m.term(), 7);
    }

    #[test]
    fn wire_size_scales_with_entries() {
        let hb: Message<u32> = Message::AppendEntries {
            term: 1,
            leader: PeerId(0),
            prev_log_index: 0,
            prev_log_term: 0,
            entries: vec![],
            leader_commit: 0,
        };
        let loaded: Message<u32> = Message::AppendEntries {
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
        };
        let sz = |_: &u32| 4u64;
        assert_eq!(hb.wire_size(sz), 32);
        assert_eq!(loaded.wire_size(sz), 32 + 2 * 20);
    }
}
