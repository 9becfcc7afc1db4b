//! The drive contract of [`RaftNode`], over random message and tick
//! sequences on a five-node set:
//!
//! * a tick before [`RaftNode::next_due`] is a no-op — no envelopes, and
//!   role, term, commit index and `next_due` unchanged — which is what lets
//!   a driver skip nodes that are not due;
//! * `tick_into` / `handle_into` append exactly the envelopes `tick` /
//!   `handle` return, and leave what was already in the outbox alone;
//! * `raft.node_ticks` counts exactly the ticks that were due.

use edgechain_raft::{Envelope, LogEntry, Message, PeerId, RaftConfig, RaftNode, Role, Term};
use edgechain_sim::SimTime;
use edgechain_telemetry as telemetry;
use proptest::prelude::*;

const N: usize = 5;

/// One drive step: `(kind, node, peer, x)`.
type Op = (u8, usize, usize, u64);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..16, 0..N, 0..N, 0u64..1_000), 1..400)
}

/// A well-formed message one term either side of `term`, with small log
/// indices, so that injected traffic reaches every branch of `handle`.
fn message(x: u64, from: PeerId, term: Term) -> Message<u32> {
    let (term, index, flag) = (
        (term + x % 3).saturating_sub(1),
        x / 4 % 4,
        (x / 16).is_multiple_of(2),
    );
    match x / 32 % 8 {
        0 => Message::RequestVote {
            term,
            candidate: from,
            last_log_index: index,
            last_log_term: term,
        },
        1 => Message::RequestVoteResponse {
            term,
            granted: flag,
        },
        2 => Message::PreVote {
            term: term + 1,
            candidate: from,
            last_log_index: index,
            last_log_term: term,
        },
        3 => Message::PreVoteResponse {
            term,
            granted: flag,
        },
        4 => Message::AppendEntries {
            term,
            leader: from,
            prev_log_index: index,
            prev_log_term: if flag { term } else { 0 },
            entries: (0..x % 3)
                .map(|k| LogEntry {
                    term,
                    command: k as u32,
                })
                .collect(),
            leader_commit: index,
        },
        5 => Message::AppendEntriesResponse {
            term,
            success: flag,
            match_index: index,
        },
        6 => Message::InstallSnapshot {
            term,
            leader: from,
            last_included_index: index,
            last_included_term: term,
            commands: (0..index as u32).collect(),
        },
        _ => Message::InstallSnapshotResponse {
            term,
            match_index: index,
        },
    }
}

/// Five replicas wired through an unordered in-flight set, driven either
/// through the wrappers or through the `*_into` forms.
struct Drive {
    nodes: Vec<RaftNode<u32>>,
    in_flight: Vec<(PeerId, Envelope<u32>)>,
    now: u64,
    /// `Some(outbox)` drives the `*_into` forms; the outbox holds one
    /// sentinel envelope that every call must leave in place.
    outbox: Option<Vec<Envelope<u32>>>,
    due_ticks: u64,
}

fn sentinel() -> Envelope<u32> {
    Envelope {
        to: PeerId(0),
        message: Message::RequestVoteResponse {
            term: 99,
            granted: false,
        },
    }
}

impl Drive {
    fn new(pre_vote: bool, seed: u64, into: bool) -> Self {
        let peers: Vec<PeerId> = (0..N).map(PeerId).collect();
        let config = RaftConfig {
            pre_vote,
            ..RaftConfig::default()
        };
        Drive {
            nodes: peers
                .iter()
                .map(|&p| RaftNode::new(p, peers.clone(), config, seed ^ p.0 as u64))
                .collect(),
            in_flight: Vec::new(),
            now: 0,
            outbox: into.then(|| vec![sentinel()]),
            due_ticks: 0,
        }
    }

    /// Applies one step and returns the envelopes it emitted.
    fn apply(&mut self, (kind, node, peer, x): Op) -> Vec<Envelope<u32>> {
        let peer = PeerId(if peer == node { (peer + 1) % N } else { peer });
        let (from, to, message) = match kind {
            0..=3 => {
                self.now += x % 60;
                let now = SimTime::from_millis(self.now);
                self.due_ticks += u64::from(now >= self.nodes[node].next_due());
                let sent = match &mut self.outbox {
                    Some(outbox) => {
                        self.nodes[node].tick_into(now, outbox);
                        take_appended(outbox)
                    }
                    None => self.nodes[node].tick(now),
                };
                return self.post(PeerId(node), sent);
            }
            4..=12 if self.in_flight.is_empty() => return Vec::new(),
            4..=11 => {
                let (from, env) = self
                    .in_flight
                    .swap_remove(x as usize % self.in_flight.len());
                (from, env.to, env.message)
            }
            12 => {
                self.in_flight
                    .swap_remove(x as usize % self.in_flight.len());
                return Vec::new();
            }
            13 | 14 => {
                let _ = self.nodes[node].propose(x as u32);
                return Vec::new();
            }
            _ => (
                peer,
                PeerId(node),
                message(x, peer, self.nodes[node].term()),
            ),
        };
        let now = SimTime::from_millis(self.now);
        let sent = match &mut self.outbox {
            Some(outbox) => {
                self.nodes[to.0].handle_into(from, message, now, outbox);
                take_appended(outbox)
            }
            None => self.nodes[to.0].handle(from, message, now),
        };
        self.post(to, sent)
    }

    fn post(&mut self, from: PeerId, sent: Vec<Envelope<u32>>) -> Vec<Envelope<u32>> {
        self.in_flight
            .extend(sent.iter().map(|env| (from, env.clone())));
        sent
    }
}

/// Checks the sentinel survived and splits off what the call appended.
fn take_appended(outbox: &mut Vec<Envelope<u32>>) -> Vec<Envelope<u32>> {
    assert_eq!(outbox[0], sentinel(), "an *_into call disturbed the outbox");
    outbox.split_off(1)
}

/// What a no-op tick must leave unchanged.
fn observable(node: &RaftNode<u32>) -> (Role, Term, u64, SimTime, Option<PeerId>, u64) {
    (
        node.role(),
        node.term(),
        node.commit_index(),
        node.next_due(),
        node.leader_hint(),
        node.log_len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tick_before_next_due_is_a_no_op(
        ops in arb_ops(),
        pre_vote in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut drive = Drive::new(pre_vote, seed, false);
        for op in ops {
            drive.apply(op);
            for node in &mut drive.nodes {
                let due = node.next_due().as_millis();
                prop_assert!(due > 0);
                let before = observable(node);
                for t in [0, due / 2, drive.now.min(due - 1), due - 1] {
                    let sent = node.tick(SimTime::from_millis(t));
                    prop_assert!(sent.is_empty(), "tick at {} < due {} sent {:?}", t, due, sent);
                    prop_assert_eq!(observable(node), before);
                }
            }
        }
    }

    #[test]
    fn into_forms_emit_the_wrappers_envelopes(
        ops in arb_ops(),
        pre_vote in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut wrapped = Drive::new(pre_vote, seed, false);
        let mut into = Drive::new(pre_vote, seed, true);
        telemetry::enable();
        for op in ops {
            prop_assert_eq!(into.apply(op), wrapped.apply(op), "step {:?}", op);
            for (a, b) in into.nodes.iter().zip(&wrapped.nodes) {
                prop_assert_eq!(observable(a), observable(b));
            }
        }
        let session = telemetry::finish().expect("telemetry was enabled");
        prop_assert_eq!(
            session.registry.counter("raft.node_ticks"),
            into.due_ticks + wrapped.due_ticks
        );
    }
}
