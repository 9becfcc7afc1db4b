//! Byzantine adversary engine: per-node chain views, misbehavior
//! bookkeeping, detection proofs, and quarantine state — and the handlers
//! that act on them.
//!
//! The paper's threat model (§III-B.2) includes nodes that misbehave in
//! consensus, not just ones that deny storage service. This module holds
//! the state the network layer needs to make that real: each node tracks
//! its *own* adopted chain (so conflicting tips can actually exist),
//! foreign blocks are verified in full before adoption
//! ([`crate::chain::verify_wire_block`], its block-only half judged once
//! per broadcast), divergent views reconcile
//! through live checkpointed fork choice (a view adopts the canonical
//! chain's held blocks, [`Blockchain::try_adopt_from`]), and
//! proofs of misbehavior — equivocation (two valid headers, same height
//! and miner), forged PoS claims, tampered signatures, undecodable
//! payloads, tampered snapshots, repeated denials, a late fork release —
//! feed one response ([`ByzantineEngine::convict`]): a per-node quarantine
//! with stake slashing (Eq. 7's `S_i`) and eventual re-admission.
//!
//! [`crate::network::EdgeNetwork`] enters the engine once per event with
//! a [`Court`]: the few pieces of network state a judgement reads or
//! writes, lent by disjoint field borrows. The court has no topology and
//! no transport — whatever goes on the air is broadcast by the network,
//! which hands the engine who heard it.
//!
//! Everything here is deterministic: the engine's RNG is a dedicated
//! stream seeded from the run seed, artifacts are counted by identity
//! (an equivocation pair is *one* injected artifact however many nodes
//! observe it), and no wall clock is consulted — reruns are bit-identical.

use crate::account::{AccountId, Ledger};
use crate::block::{Block, BlockError};
use crate::chain::{wire_content_verdict, Blockchain, CheckpointPolicy};
use crate::pos::{next_pos_hash, Amendment};
use crate::report::RunReport;
use crate::spans::SpanTracker;
use edgechain_sim::{ByzantineAction, NodeId, Payload, SimTime};
use edgechain_telemetry::{self as telemetry, trace_event};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};

/// Service denials a storer gets away with before the denial strikes
/// escalate to a quarantine (only metered when a Byzantine engine is
/// active; plain `malicious_fraction` runs keep the paper's
/// invalidate-and-route-around behavior unchanged).
const DENIAL_QUARANTINE_THRESHOLD: u32 = 3;
/// How long a node stays quarantined after a proven misbehavior
/// (equivocation, forged block, tampered signature, garbage payload,
/// repeated denials), in simulated seconds. Quarantined nodes are
/// excluded from PoS rounds and from serving fetches, and half their
/// stake is slashed (Eq. 7's `S_i`); they are re-admitted when the
/// window expires.
const QUARANTINE_SECS: u64 = 900;

/// The network state a Byzantine judgement reads or writes, lent for one
/// event by disjoint field borrows of
/// [`crate::network::EdgeNetwork`].
pub(crate) struct Court<'a> {
    /// The canonical chain.
    pub(crate) canonical: &'a Blockchain,
    /// Highest contiguous block index each node holds a view of.
    pub(crate) node_height: &'a [u64],
    /// Token balances; slashes are debited here.
    pub(crate) ledger: &'a mut Ledger,
    /// Each node's account, indexed by node id.
    pub(crate) account_of: &'a [AccountId],
    /// The node behind each account.
    pub(crate) node_of_account: &'a HashMap<AccountId, NodeId>,
    /// The run's report, where the adversary's counters accumulate.
    pub(crate) report: &'a mut RunReport,
    /// Quarantine windows open and close here.
    pub(crate) spans: &'a mut SpanTracker,
}

/// How an armed adversary's election win changes the round.
pub(crate) enum Attack {
    /// No attack, or one deferred to a later win: the honest round runs.
    Honest,
    /// The honest round runs with a conflicting variant sealed beside it.
    Equivocate,
    /// The miner sealed a private fork and withholds it: no canonical
    /// block comes of the round.
    Withheld,
    /// The miner seals the round's block with one corrupted signature
    /// instead (assembled by the network, which holds the mempool): no
    /// canonical block comes of the round.
    Tamper,
}

/// A private fork a withholding miner has sealed but not yet released.
#[derive(Debug, Clone)]
pub(crate) struct WithheldFork {
    /// The withholding miner.
    pub(crate) miner: NodeId,
    /// Canonical height the fork diverges after (the fork's first block
    /// sits at `base_height + 1`).
    pub(crate) base_height: u64,
    /// The withheld blocks, in order.
    pub(crate) blocks: Vec<Block>,
    /// Artifact id counted under `byz.injected`.
    artifact: u64,
}

/// An injected-artifact tag: `(artifact id, trace kind)`.
type Evidence = (u64, &'static str);

/// A stashed orphan block plus its injected-artifact tag when the sender
/// was Byzantine; `None` for honest or equivocation-variant traffic.
type StashedOrphan = (Block, Option<Evidence>);

/// One block on the air with its block-only verdict
/// ([`wire_content_verdict`]), shared by every receiver of that broadcast.
type Heard<'a> = (&'a Block, Result<(), BlockError>);

/// Judges `block`'s contents once for the whole broadcast. The verdict is
/// a pure function of the one shared copy every receiver hears, so it
/// stands for each receiver's own; only the linkage and PoS link against
/// a receiver's tip differ per receiver.
fn heard(block: &Block) -> Heard<'_> {
    telemetry::counter_add("byz.wire_verdicts", 1);
    (block, wire_content_verdict(block))
}

/// An adversary's content-free block on top of `prev`: no metadata, no
/// storer assignments of its own, `prev`'s storers carried forward.
pub(crate) fn empty_block_on(
    prev: &Block,
    timestamp_secs: u64,
    pos_hash: edgechain_crypto::Digest,
    miner: AccountId,
    delay_secs: u64,
    amendment: Amendment,
) -> Block {
    Block::new(
        prev.index + 1,
        prev.hash,
        timestamp_secs,
        pos_hash,
        miner,
        delay_secs,
        amendment,
        Vec::new(),
        Vec::new(),
        prev.storing_nodes.clone(),
        Vec::new(),
    )
}

/// Counts one reorg of `depth` discarded blocks: a node view adopting the
/// canonical branch, or the trunk adopting a released fork.
pub(crate) fn count_reorg(report: &mut RunReport, depth: u64) {
    report.reorgs += 1;
    report.max_reorg_depth = report.max_reorg_depth.max(depth);
    telemetry::record("chain.reorg_depth", depth as f64);
}

/// Deterministic Byzantine adversary state for one run. Allocated only
/// when the fault plan schedules Byzantine actions, so honest runs carry
/// no per-node chains and stay bit-identical to earlier releases.
#[derive(Debug, Clone)]
pub(crate) struct ByzantineEngine {
    /// Each node's locally adopted chain, indexed by node id.
    pub(crate) chains: Vec<Blockchain>,
    /// Whether each node is honest (holds no Byzantine role in the plan);
    /// only honest views are held to the fork invariants.
    pub(crate) honest: Vec<bool>,
    /// The checkpoint policy governing every fork-choice decision.
    pub(crate) policy: CheckpointPolicy,
    /// The single private fork in flight, if any.
    pub(crate) withheld: Option<WithheldFork>,
    /// Armed mining-triggered actions per node, consumed FIFO at the
    /// node's next election win.
    pending: Vec<VecDeque<ByzantineAction>>,
    /// Per-node quarantine expiry (None = not quarantined).
    quarantined_until: Vec<Option<SimTime>>,
    /// Per-node denial strikes toward the quarantine threshold.
    strikes: Vec<u32>,
    /// Canonical height at which each node is sitting out elections (a
    /// failed Byzantine round must not deterministically re-elect its
    /// author at the same height forever).
    sit_out: Vec<Option<u64>>,
    /// Per-node orphan pool: suspect wire blocks ahead of the node's tip,
    /// kept until the node syncs far enough to judge them (bounded FIFO).
    orphans: Vec<VecDeque<StashedOrphan>>,
    /// Artifact ids of known equivocations, keyed by `(height, miner)`.
    equivocation_artifacts: HashMap<(u64, AccountId), u64>,
    /// Whether each injected artifact (indexed by id) was detected yet.
    detected_artifacts: Vec<bool>,
    rng: StdRng,
}

impl ByzantineEngine {
    /// Builds the engine for a network of `nodes` nodes. `byz_nodes` are
    /// the nodes the plan names in any Byzantine action; `seed` feeds the
    /// engine's dedicated RNG stream (forged hashes, garbage bytes).
    pub(crate) fn new(
        nodes: usize,
        byz_nodes: &[NodeId],
        seed: u64,
        policy: CheckpointPolicy,
    ) -> Self {
        let mut honest = vec![true; nodes];
        for v in byz_nodes {
            honest[v.0] = false;
        }
        ByzantineEngine {
            chains: vec![Blockchain::new(); nodes],
            honest,
            policy,
            withheld: None,
            pending: vec![VecDeque::new(); nodes],
            quarantined_until: vec![None; nodes],
            strikes: vec![0; nodes],
            sit_out: vec![None; nodes],
            orphans: vec![VecDeque::new(); nodes],
            equivocation_artifacts: HashMap::new(),
            detected_artifacts: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    // ---- roles & arming -------------------------------------------------

    /// Arms a mining-triggered action for `node` (consumed at its next
    /// election win).
    pub(crate) fn arm(&mut self, node: NodeId, action: ByzantineAction) {
        self.pending[node.0].push_back(action);
    }

    /// Pops the next armed action for a freshly elected miner.
    /// [`ByzantineAction::TamperSignature`] stays armed until the round
    /// actually packs metadata (there is no signature to corrupt in an
    /// empty block).
    fn next_mining_action(
        &mut self,
        node: NodeId,
        has_pending_metadata: bool,
    ) -> Option<ByzantineAction> {
        match self.pending[node.0].front() {
            Some(ByzantineAction::TamperSignature) if !has_pending_metadata => None,
            Some(_) => self.pending[node.0].pop_front(),
            None => None,
        }
    }

    /// A freshly elected adversary may have an armed consensus attack.
    /// Withholding and tampering replace the honest round entirely;
    /// equivocation rides alongside it (two conflicting blocks sealed on
    /// the same earned hit) unless the new height is a checkpoint, where
    /// honest fork choice is first-seen-final and the fork could never
    /// spread — the adversary waits for a later win instead.
    pub(crate) fn armed_attack(
        &mut self,
        court: &mut Court<'_>,
        now: SimTime,
        miner: NodeId,
        has_pending_metadata: bool,
    ) -> Attack {
        let interval = self.policy.interval;
        let height = court.canonical.height();
        match self.next_mining_action(miner, has_pending_metadata) {
            Some(ByzantineAction::Withhold { blocks }) => {
                // A fork spanning a checkpoint height could never win fork
                // choice (honest nodes refuse to cross a checkpoint), so a
                // rational withholder waits for a base clear of them.
                let crosses_checkpoint =
                    (height + 1..=height + blocks.max(1)).any(|h| h.is_multiple_of(interval));
                if crosses_checkpoint {
                    self.arm(miner, ByzantineAction::Withhold { blocks });
                } else if self.withheld.is_none() {
                    self.withhold(court, now, miner, blocks);
                    return Attack::Withheld;
                }
                // A fork already in flight drops the extra action.
                Attack::Honest
            }
            Some(ByzantineAction::TamperSignature) => Attack::Tamper,
            Some(ByzantineAction::Equivocate) if (height + 1).is_multiple_of(interval) => {
                self.arm(miner, ByzantineAction::Equivocate);
                Attack::Honest
            }
            Some(ByzantineAction::Equivocate) => Attack::Equivocate,
            Some(_) | None => Attack::Honest,
        }
    }

    // ---- artifact accounting & the one response -------------------------

    /// Counts one injected Byzantine artifact and returns its id.
    fn inject(&mut self, court: &mut Court<'_>, now: SimTime, kind: &'static str) -> u64 {
        let artifact = self.detected_artifacts.len() as u64;
        self.detected_artifacts.push(false);
        court.report.byz_injected += 1;
        trace_event!(
            "byz.injected",
            now.as_millis(),
            kind = kind,
            artifact = artifact
        );
        artifact
    }

    /// Counts the conflicting variant of an equivocating miner's block at
    /// `height` as one injected artifact, however many nodes observe it.
    fn inject_equivocation(
        &mut self,
        court: &mut Court<'_>,
        now: SimTime,
        height: u64,
        miner: AccountId,
    ) {
        if !self.equivocation_artifacts.contains_key(&(height, miner)) {
            let artifact = self.inject(court, now, "byz_equivocate");
            self.equivocation_artifacts
                .insert((height, miner), artifact);
        }
    }

    /// The one response to proven misbehavior — every row of DESIGN §11's
    /// Detection → response table. The artifact `evidence` names counts as
    /// detected the first time any honest node holds it; the `culprit`,
    /// when known, is quarantined for [`QUARANTINE_SECS`] and half its
    /// stake is slashed (the PoS target's `S_i`, Eq. 7, shrinks with it).
    /// Convicting an already quarantined node extends its window but
    /// neither re-counts nor re-slashes.
    pub(crate) fn convict(
        &mut self,
        court: &mut Court<'_>,
        now: SimTime,
        evidence: Option<Evidence>,
        culprit: Option<(NodeId, &'static str)>,
    ) {
        if let Some((artifact, kind)) = evidence {
            if !std::mem::replace(&mut self.detected_artifacts[artifact as usize], true) {
                court.report.byz_detected += 1;
                trace_event!(
                    "byz.detected",
                    now.as_millis(),
                    kind = kind,
                    artifact = artifact
                );
            }
        }
        let Some((culprit, reason)) = culprit else {
            return;
        };
        let fresh = !self.is_quarantined(culprit, now);
        self.quarantined_until[culprit.0] = Some(now + SimTime::from_secs(QUARANTINE_SECS));
        if !fresh {
            return;
        }
        court.report.quarantine_events += 1;
        let account = court.account_of[culprit.0];
        let slash = court.ledger.balance(&account) / 2;
        let taken = court.ledger.debit(account, slash);
        trace_event!(
            "byz.quarantine",
            now.as_millis(),
            node = culprit.0,
            reason = reason,
            slash = taken
        );
        court.spans.quarantined(now, culprit, reason);
    }

    /// A two-headers-same-height-same-miner equivocation proof: the
    /// injected pair (if it was one) is detected and the miner convicted.
    fn equivocation_proof(
        &mut self,
        court: &mut Court<'_>,
        now: SimTime,
        height: u64,
        miner: AccountId,
    ) {
        let evidence = self
            .equivocation_artifacts
            .get(&(height, miner))
            .map(|&artifact| (artifact, "byz_equivocate"));
        let culprit = court.node_of_account.get(&miner);
        self.convict(court, now, evidence, culprit.map(|&c| (c, "equivocation")));
    }

    // ---- quarantine ----------------------------------------------------

    /// Whether `node` is quarantined at `now`.
    pub(crate) fn is_quarantined(&self, node: NodeId, now: SimTime) -> bool {
        matches!(self.quarantined_until[node.0], Some(until) if until > now)
    }

    /// Quarantine re-admission rides the block cadence: clears expired
    /// quarantines (ascending node id), counts the re-admissions and
    /// closes their windows.
    pub(crate) fn readmit(&mut self, court: &mut Court<'_>, now: SimTime) {
        let mut readmitted = Vec::new();
        for (i, slot) in self.quarantined_until.iter_mut().enumerate() {
            if matches!(slot, Some(until) if *until <= now) {
                *slot = None;
                readmitted.push(NodeId(i));
            }
        }
        if !readmitted.is_empty() {
            court.report.readmissions += readmitted.len() as u64;
            trace_event!("byz.readmit", now.as_millis(), nodes = readmitted.len());
        }
        let active = (0..self.quarantined_until.len())
            .filter(|&v| self.is_quarantined(NodeId(v), now))
            .count();
        telemetry::gauge_set("quarantine.active", active as f64);
        court.spans.readmitted(now, &readmitted);
    }

    /// Records a denial strike against a storer at `now`: the third one
    /// convicts it.
    pub(crate) fn strike(&mut self, court: &mut Court<'_>, now: SimTime, node: NodeId) {
        self.strikes[node.0] += 1;
        if self.strikes[node.0] == DENIAL_QUARANTINE_THRESHOLD {
            self.convict(court, now, None, Some((node, "repeated-denials")));
        }
    }

    // ---- election gating -----------------------------------------------

    /// Whether `node` must be excluded from the election at the given
    /// canonical height (quarantined, or sitting out after a failed
    /// Byzantine round at this height).
    pub(crate) fn is_excluded(&self, node: NodeId, now: SimTime, canonical_height: u64) -> bool {
        self.is_quarantined(node, now) || self.sit_out[node.0] == Some(canonical_height)
    }

    // ---- adversarial material ------------------------------------------

    /// A Byzantine node's block with a PoS hit it never earned (a fresh
    /// digest from the engine's RNG stream) on the canonical tip. Honest
    /// receivers verify the chained hash and reject it.
    pub(crate) fn forge_block(&mut self, court: &Court<'_>, now: SimTime, node: NodeId) -> Block {
        let mut pos_hash = [0u8; 32];
        self.rng.fill(&mut pos_hash);
        let prev = court.canonical.tip();
        empty_block_on(
            prev,
            now.as_secs().max(prev.timestamp_secs + 1),
            edgechain_crypto::Digest(pos_hash),
            court.account_of[node.0],
            1,
            Amendment::from_fraction(1, 1000),
        )
    }

    /// Bytes that are not a block at all: raw garbage (`bytes` of it,
    /// clamped), a scrambled encoding of the canonical tip, or a truncated
    /// one — the shape drawn from the engine's RNG stream.
    pub(crate) fn garbage_payload(&mut self, court: &Court<'_>, bytes: u64) -> Payload {
        let tip_encoding = Payload::new(court.canonical.tip().encoded());
        match self.rng.gen_range(0..3u64) {
            0 => {
                let mut out = vec![0u8; bytes.clamp(8, 65_536) as usize];
                self.rng.fill(&mut out[..]);
                Payload::new(out.into())
            }
            1 => {
                let seed = self.rng.gen_range(0..u64::MAX);
                tip_encoding.scrambled(seed)
            }
            _ => tip_encoding.truncated(tip_encoding.len() / 2),
        }
    }

    /// A freshly elected Byzantine miner seals a private fork on its own
    /// earned PoS hit and *withholds* it: nothing is broadcast, the
    /// canonical chain does not advance, and the miner sits out the
    /// re-election at this height so an honest runner-up makes progress.
    /// The fork is released once the public chain catches up
    /// ([`Self::released`]).
    fn withhold(&mut self, court: &mut Court<'_>, now: SimTime, miner: NodeId, blocks: u64) {
        let base_height = court.canonical.height();
        let account = court.account_of[miner.0];
        let mut fork: Vec<Block> = Vec::new();
        for i in 0..blocks.max(1) {
            let prev = fork.last().unwrap_or(court.canonical.tip());
            let block = empty_block_on(
                prev,
                now.as_secs() + i + 1,
                next_pos_hash(&prev.pos_hash, &account),
                account,
                1,
                Amendment::from_fraction(1, 1000),
            );
            fork.push(block);
        }
        let artifact = self.inject(court, now, "byz_withhold");
        trace_event!(
            "byz.withhold",
            now.as_millis(),
            node = miner.0,
            blocks = blocks.max(1),
            base = base_height
        );
        self.withheld = Some(WithheldFork {
            miner,
            base_height,
            blocks: fork,
            artifact,
        });
        // Progress guarantee: benched while the canonical chain stays at
        // this height, the failed round hands the election to the
        // runner-up instead of re-electing its author in an infinite loop
        // at one instant.
        self.sit_out[miner.0] = Some(base_height);
    }

    /// The private fork hit the wire: it leaves the engine, its miner's
    /// bench lifts, and — the late release *is* the observable: honest
    /// nodes now hold two competing branches — the withholding comes to
    /// light. The miner is convicted once trunk fork choice has decided.
    pub(crate) fn released(&mut self, court: &mut Court<'_>, now: SimTime) -> Option<WithheldFork> {
        let w = self.withheld.take()?;
        self.sit_out[w.miner.0] = None;
        trace_event!(
            "byz.release",
            now.as_millis(),
            node = w.miner.0,
            blocks = w.blocks.len(),
            base = w.base_height
        );
        self.convict(court, now, Some((w.artifact, "byz_withhold")), None);
        Some(w)
    }

    /// A Byzantine `server` corrupts the snapshot it serves: one bit of
    /// the signed payload flips in flight. Returns the injected artifact;
    /// an honest server's bytes pass untouched.
    pub(crate) fn tamper_snapshot(
        &mut self,
        court: &mut Court<'_>,
        now: SimTime,
        server: NodeId,
        bytes: &mut [u8],
    ) -> Option<u64> {
        if self.honest[server.0] {
            return None;
        }
        let artifact = self.inject(court, now, "byz_snapshot");
        let pos = self.rng.gen_range(0..bytes.len() as u64) as usize;
        bytes[pos] ^= 0x40;
        Some(artifact)
    }

    // ---- judging what went on the air ----------------------------------

    /// Per-node fork choice for the block just sealed onto the canonical
    /// chain, at every node in `received` (the miner first), and for the
    /// equivocating miner's conflicting `variant` when armed: alternating
    /// receivers hear only the conflicting block and adopt it — a live
    /// fork that reconciles (and surfaces the equivocation proof) at the
    /// next sync; the others hear both and hold the two-headers proof
    /// immediately. The variant counts as injected here, once it actually
    /// reached an honest node.
    pub(crate) fn deliver_sealed(
        &mut self,
        court: &mut Court<'_>,
        now: SimTime,
        received: &[NodeId],
        variant: Option<&Block>,
    ) {
        let sealed = heard(court.canonical.tip());
        let variant = variant.map(heard);
        if let Some((b, _)) = variant {
            self.inject_equivocation(court, now, b.index, b.miner);
        }
        for (i, &v) in received.iter().enumerate() {
            match variant {
                Some(b) if v != received[0] && i % 2 == 1 => self.receive(court, now, v, b, None),
                Some(b) if v != received[0] => {
                    self.receive(court, now, v, sealed, None);
                    self.receive(court, now, v, b, None);
                }
                _ => self.receive(court, now, v, sealed, None),
            }
        }
    }

    /// An adversary's `block` reached `receivers`: one injected artifact of
    /// `kind`, judged at every receiver. A node that can verify it rejects
    /// it, which detects the artifact and convicts the miner for `reason`;
    /// a laggard cannot disprove the claim yet, so it keeps the orphan and
    /// judges it once its view holds that height.
    pub(crate) fn judge_bad_block(
        &mut self,
        court: &mut Court<'_>,
        now: SimTime,
        block: &Block,
        receivers: &[NodeId],
        (kind, reason): (&'static str, &'static str),
    ) {
        let artifact = self.inject(court, now, kind);
        let block = heard(block);
        for &v in receivers {
            self.receive(court, now, v, block, Some((artifact, kind, reason)));
        }
    }

    /// `sender`'s bytes that are not a block at all reached someone: one
    /// injected artifact of `kind`. The payload is one shared buffer, so
    /// decoding once stands for every receiver's (identical,
    /// deterministic) verdict: a decoder error (never a panic) convicts
    /// the sender for `reason`.
    pub(crate) fn judge_garbage(
        &mut self,
        court: &mut Court<'_>,
        now: SimTime,
        sender: NodeId,
        payload: &Payload,
        (kind, reason): (&'static str, &'static str),
    ) {
        let artifact = self.inject(court, now, kind);
        if crate::codec::decode_block(payload.bytes()).is_err() {
            self.convict(court, now, Some((artifact, kind)), Some((sender, reason)));
        }
    }

    /// Node `v` processes a wire-received block against its chain view,
    /// `tag`ged `(artifact, kind, reason)` when an adversary sent it. A
    /// block extending the tip is verified in full — the broadcast's
    /// content verdict plus this node's linkage and PoS link — and adopted
    /// by the same call ([`Blockchain::push_wire`]), after which the view
    /// judges the orphans it now reaches; a rejected one convicts its
    /// miner when tagged and otherwise makes the node reconcile; a
    /// conflicting same-height/same-miner header is an equivocation proof;
    /// a block skipping ahead is too far ahead to verify — the node
    /// reconciles, keeping the block only when it is a suspect: sync
    /// re-delivers the canonical block at its height, so a copy of that one
    /// could only be dropped, while a forgery or an equivocating variant
    /// delivered to a laggard is judged once the view holds its height.
    /// Tagged blocks always sit at canonical height + 1, above every
    /// node's view, so they never take the equivocation arm.
    fn receive(
        &mut self,
        court: &mut Court<'_>,
        now: SimTime,
        v: NodeId,
        (block, content): Heard<'_>,
        tag: Option<(u64, &'static str, &'static str)>,
    ) {
        let chain = &mut self.chains[v.0];
        let tip_index = chain.tip().index;
        if block.index > tip_index + 1 {
            if court.canonical.get(block.index).map(|b| b.hash) != Some(block.hash) {
                self.stash_orphan(v, block.clone(), tag.map(|(a, kind, _)| (a, kind)));
            }
            self.sync(court, now, v);
        } else if block.index <= tip_index {
            let conflicting = chain.get(block.index).is_some_and(|ours| {
                ours.hash != block.hash && ours.miner == block.miner && block.is_well_formed()
            });
            if conflicting {
                self.equivocation_proof(court, now, block.index, block.miner);
            }
        } else {
            match (chain.push_wire(block, content), tag) {
                (Ok(()), _) => self.resolve_orphans(court, now, v),
                (Err(_), Some((artifact, kind, reason))) => {
                    let culprit = court.node_of_account.get(&block.miner);
                    let culprit = culprit.map(|&c| (c, reason));
                    self.convict(court, now, Some((artifact, kind)), culprit);
                }
                (Err(_), None) => self.sync(court, now, v),
            }
        }
    }

    // ---- per-node chain views ------------------------------------------

    /// Stashes a suspect wire block that skipped ahead of node `v`'s tip:
    /// one the canonical chain does not hold at its height — a tagged
    /// forgery or tampered block, or an equivocation variant. A lagging
    /// node cannot verify it yet (its parent is unknown), so it is kept —
    /// with the injected-artifact tag when the sender was Byzantine —
    /// until the view holds the honest block at that height (a push or a
    /// [`Self::sync`]) and the orphan can be judged. Honest blocks never
    /// enter, so the pool holds only proofs-in-waiting, a handful per run;
    /// the FIFO bound of 8 only caps hostile input.
    fn stash_orphan(&mut self, v: NodeId, block: Block, artifact: Option<Evidence>) {
        let pool = &mut self.orphans[v.0];
        if pool.iter().any(|(b, _)| b.hash == block.hash) {
            return;
        }
        if pool.len() == 8 {
            pool.pop_front();
        }
        pool.push_back((block, artifact));
    }

    /// Total stashed orphan blocks across every node's pool. Each pool is
    /// bounded at 8 entries; this accessor feeds the run report's peak
    /// tracking-state accounting.
    pub(crate) fn orphan_entries(&self) -> usize {
        self.orphans.iter().map(VecDeque::len).sum()
    }

    /// Catches node `v`'s view up to its node's contiguous height, then
    /// judges the orphans that may have landed at or below its tip.
    pub(crate) fn sync(&mut self, court: &mut Court<'_>, now: SimTime, v: NodeId) {
        self.catch_up(court, now, v, court.node_height[v.0]);
        self.resolve_orphans(court, now, v);
    }

    /// The one move of a view onto the canonical chain: offers node `v`'s
    /// view the canonical blocks from their fork point up to `target` — an
    /// extension or a reorg — and convicts on the equivocations among the
    /// blocks it replaces. The canonical chain's blocks were checked when
    /// they entered it, so the view adopts them as held blocks
    /// ([`Blockchain::try_adopt_from`]: links checked, nothing rehashed).
    /// A view whose fork point was pruned away restarts from the canonical
    /// anchor (the pruned prefix is consensus-final).
    fn catch_up(&mut self, court: &mut Court<'_>, now: SimTime, v: NodeId, target: u64) {
        let canonical = court.canonical;
        let target = target.min(canonical.height());
        let chain = &mut self.chains[v.0];
        if chain.height() >= target {
            return;
        }
        let fork_point = chain.fork_point(canonical.as_slice());
        let base = canonical.base_index();
        if fork_point < base {
            if let (Some(top), Some(anchor)) = (target.checked_sub(base), canonical.anchor()) {
                let blocks = canonical.as_slice()[..=top as usize].to_vec();
                if let Ok(rebuilt) = Blockchain::from_anchor(anchor.clone(), blocks) {
                    *chain = rebuilt;
                }
            }
            return;
        }
        // Equivocation proofs: replaced local blocks whose canonical
        // counterpart has the same miner but a different hash.
        let equivocations: Vec<(u64, AccountId)> = (fork_point..=chain.height())
            .filter_map(|h| match (chain.get(h), canonical.get(h)) {
                (Some(a), Some(b)) if a.miner == b.miner && a.hash != b.hash => Some((h, a.miner)),
                _ => None,
            })
            .collect();
        let depth = chain.height() + 1 - fork_point;
        if chain.try_adopt_from(canonical, target, self.policy) && depth > 0 {
            count_reorg(court.report, depth);
            trace_event!("chain.reorg", now.as_millis(), node = v.0, depth = depth);
        }
        for (height, miner) in equivocations {
            self.equivocation_proof(court, now, height, miner);
        }
    }

    /// Judges node `v`'s stashed orphans against its (freshly grown)
    /// chain: an orphan matching the adopted block at its height was
    /// honest and is dropped; a mismatching one is proof — of forgery or
    /// tampering when it carries an artifact tag (its claimed miner is
    /// convicted), of equivocation when the adopted block has the same
    /// miner. A mismatching untagged orphan from a *different* miner sits
    /// at a height a trunk reorg replaced: it proves nothing against the
    /// adopted block and is dropped. Orphans still ahead of the tip stay
    /// stashed.
    fn resolve_orphans(&mut self, court: &mut Court<'_>, now: SimTime, v: NodeId) {
        let height = self.chains[v.0].height();
        for (block, artifact) in std::mem::take(&mut self.orphans[v.0]) {
            if block.index > height {
                self.orphans[v.0].push_back((block, artifact));
                continue;
            }
            let Some(ours) = self.chains[v.0].get(block.index) else {
                // Below the view's own pruned base (it was offline across
                // a cut): the adopted block at that height is gone, so the
                // orphan can never be judged. Drop it.
                continue;
            };
            if ours.hash == block.hash {
                continue;
            }
            let same_miner = ours.miner == block.miner;
            match artifact {
                Some(evidence) => {
                    let culprit = court.node_of_account.get(&block.miner);
                    let culprit = culprit.map(|&c| (c, "disproven-orphan"));
                    self.convict(court, now, Some(evidence), culprit);
                }
                None if same_miner => {
                    self.equivocation_proof(court, now, block.index, block.miner);
                }
                None => {}
            }
        }
    }

    // ---- chain lifecycle ------------------------------------------------

    /// Syncs every `online` view while the blocks below `cut` still exist:
    /// a view the cut would strand syncs to the canonical tip, so it holds
    /// the block at the cut to re-base on; any other to its node's height.
    pub(crate) fn sync_before_cut(
        &mut self,
        court: &mut Court<'_>,
        now: SimTime,
        cut: u64,
        online: impl Fn(NodeId) -> bool,
    ) {
        for v in (0..self.chains.len()).map(NodeId).filter(|&v| online(v)) {
            let strands = self.chains[v.0].height() + 1 < cut;
            let target = if strands {
                court.canonical.height()
            } else {
                court.node_height[v.0]
            };
            self.catch_up(court, now, v, target);
            self.resolve_orphans(court, now, v);
        }
    }

    /// Mirrors the canonical chain's latest prune into the views: one
    /// holding the canonical block at the cut shares the pruned prefix, so
    /// it re-bases onto the anchor in place ([`Blockchain::rebase_onto`]).
    /// A sibling at the cut attaches to the anchor too, but re-based it
    /// could never reorg: every other view keeps its base until a sync.
    pub(crate) fn prune_below(&mut self, canonical: &Blockchain) {
        let Some(anchor) = canonical.anchor() else {
            return;
        };
        let cut = canonical.base_index();
        let at_cut = canonical.as_slice()[0].hash;
        for chain in &mut self.chains {
            let agrees = chain.get(cut).is_some_and(|b| b.hash == at_cut);
            if chain.base_index() < cut && agrees && chain.rebase_onto(anchor).is_ok() {
                telemetry::counter_add("chain.rebased_views", 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::Identity;

    fn mined(prev: &Block, seed: u64, ts: u64) -> Block {
        let account = Identity::from_seed(seed).account();
        Block::new(
            prev.index + 1,
            prev.hash,
            ts,
            next_pos_hash(&prev.pos_hash, &account),
            account,
            60,
            Amendment::from_fraction(1, 1000),
            Vec::new(),
            vec![NodeId(0)],
            prev.storing_nodes.clone(),
            Vec::new(),
        )
    }

    /// A conflicting variant of the height-1 `block`: same parent, PoS
    /// claim and miner, one second later and without storers, so a
    /// different hash.
    fn variant_of(block: &Block) -> Block {
        let ts = block.timestamp_secs + 1;
        let amendment = Amendment::from_fraction(1, 1000);
        empty_block_on(
            &Block::genesis(),
            ts,
            block.pos_hash,
            block.miner,
            60,
            amendment,
        )
    }

    /// Node 0 holds the Byzantine role; checkpoints every 4 blocks.
    fn engine(nodes: usize) -> ByzantineEngine {
        ByzantineEngine::new(nodes, &[NodeId(0)], 7, CheckpointPolicy { interval: 4 })
    }

    /// Everything a [`Court`] lends, owned by the test — no topology, no
    /// transport. Node `i`'s account is `Identity::from_seed(i)`'s; every
    /// account starts with 10 tokens.
    struct World {
        canonical: Blockchain,
        node_height: Vec<u64>,
        ledger: Ledger,
        account_of: Vec<AccountId>,
        node_of_account: HashMap<AccountId, NodeId>,
        report: RunReport,
        spans: SpanTracker,
    }

    impl World {
        fn new(nodes: usize) -> Self {
            let account_of: Vec<AccountId> = (0..nodes as u64)
                .map(|i| Identity::from_seed(i).account())
                .collect();
            let node_of_account = (0..nodes).map(|i| (account_of[i], NodeId(i))).collect();
            World {
                canonical: Blockchain::new(),
                node_height: vec![0; nodes],
                ledger: Ledger::with_initial_tokens(10),
                account_of,
                node_of_account,
                report: RunReport::default(),
                spans: SpanTracker::default(),
            }
        }

        fn court(&mut self) -> Court<'_> {
            Court {
                canonical: &self.canonical,
                node_height: &self.node_height,
                ledger: &mut self.ledger,
                account_of: &self.account_of,
                node_of_account: &self.node_of_account,
                report: &mut self.report,
                spans: &mut self.spans,
            }
        }

        /// Mines `n` canonical blocks by node `miner` and marks every node
        /// as holding them.
        fn grow(&mut self, n: u64, miner: u64) {
            for _ in 0..n {
                let tip = self.canonical.tip();
                let b = mined(tip, miner, tip.timestamp_secs + 60);
                self.canonical.push(b).unwrap();
            }
            let h = self.canonical.height();
            self.node_height.iter_mut().for_each(|x| *x = h);
        }

        fn balance(&self, node: usize) -> u64 {
            self.ledger.balance(&self.account_of[node])
        }
    }

    const NOW: SimTime = SimTime::from_secs(100);

    #[test]
    fn an_equivocation_proof_detects_once_quarantines_and_slashes_half() {
        let (mut eng, mut w) = (engine(3), World::new(3));
        w.grow(1, 2);
        let sealed = w.canonical.tip().clone();
        let variant = variant_of(&sealed);
        // Node 2 mined; node 1 (odd position) hears only the variant and
        // adopts it; node 0 hears both and holds the two-headers proof.
        let received = [NodeId(2), NodeId(1), NodeId(0)];
        eng.deliver_sealed(&mut w.court(), NOW, &received, Some(&variant));
        assert_eq!(eng.chains[1].tip().hash, variant.hash);
        assert_eq!(eng.chains[0].tip().hash, sealed.hash);
        assert_eq!(w.report.byz_injected, 1);
        assert_eq!(w.report.byz_detected, 1);
        assert_eq!(w.report.quarantine_events, 1);
        assert!(eng.is_quarantined(NodeId(2), NOW));
        assert_eq!(w.balance(2), 5, "half of 10 tokens slashed");
    }

    #[test]
    fn sync_reorgs_a_divergent_view_and_surfaces_equivocations() {
        let (mut eng, mut w) = (engine(3), World::new(3));
        w.grow(1, 2);
        let sealed = w.canonical.tip().clone();
        let variant = variant_of(&sealed);
        let received = [NodeId(2), NodeId(1), NodeId(0)];
        eng.deliver_sealed(&mut w.court(), NOW, &received, Some(&variant));
        // Node 1 reconciles: fork choice replaces its variant with the
        // canonical block and surfaces the same proof a second time — a
        // repeat proof neither re-counts nor re-slashes.
        w.grow(2, 0);
        eng.sync(&mut w.court(), NOW, NodeId(1));
        assert_eq!(eng.chains[1], w.canonical);
        assert_eq!((w.report.reorgs, w.report.max_reorg_depth), (1, 1));
        assert_eq!(w.report.byz_detected, 1, "detected once");
        assert_eq!(w.report.quarantine_events, 1, "quarantined once");
        assert_eq!(w.balance(2), 5, "slashed once");
        // A lagging prefix syncs without a reorg.
        w.node_height[0] = 2;
        eng.sync(&mut w.court(), NOW, NodeId(0));
        assert_eq!(eng.chains[0].height(), 2);
        assert_eq!(w.report.reorgs, 1);
    }

    #[test]
    fn deliver_extends_rejects_and_proves_equivocation() {
        let (mut eng, mut w) = (engine(3), World::new(3));
        w.grow(1, 1);
        let good = w.canonical.tip().clone();
        eng.receive(&mut w.court(), NOW, NodeId(1), heard(&good), None);
        assert_eq!(eng.chains[1].tip().hash, good.hash, "verified and adopted");

        // A forged PoS claim is rejected at the wire: untagged, the node
        // only reconciles; tagged as an injected artifact, its miner is
        // convicted on the spot.
        let forged = eng.forge_block(&w.court(), NOW, NodeId(2));
        eng.receive(&mut w.court(), NOW, NodeId(1), heard(&forged), None);
        assert_eq!(eng.chains[1].height(), 1, "forgery not adopted");
        assert_eq!(w.report.quarantine_events, 0);
        let charge = ("byz_forge", "forged-block");
        eng.judge_bad_block(&mut w.court(), NOW, &forged, &[NodeId(1)], charge);
        assert_eq!((w.report.byz_injected, w.report.byz_detected), (1, 1));
        assert!(eng.is_quarantined(NodeId(2), NOW));

        // Same height, same miner, different hash: an equivocation proof
        // (of a pair nobody registered, so nothing counts as detected).
        let variant = variant_of(&good);
        eng.receive(&mut w.court(), NOW, NodeId(1), heard(&variant), None);
        assert!(eng.is_quarantined(NodeId(1), NOW));
        assert_eq!(w.report.byz_detected, 1);

        // A canonical block far ahead is not stashed; the node syncs past
        // it.
        w.grow(3, 0);
        let ahead = w.canonical.tip().clone();
        eng.receive(&mut w.court(), NOW, NodeId(0), heard(&ahead), None);
        assert_eq!(eng.chains[0], w.canonical);
        assert_eq!(
            eng.orphan_entries(),
            0,
            "a canonical block is never stashed"
        );
    }

    #[test]
    fn artifact_accounting_counts_each_artifact_once() {
        let (mut eng, mut w) = (engine(3), World::new(3));
        let miner = w.account_of[2];
        let a = eng.inject(&mut w.court(), NOW, "byz_garbage");
        eng.inject_equivocation(&mut w.court(), NOW, 5, miner);
        eng.inject_equivocation(&mut w.court(), NOW, 5, miner);
        assert_eq!(w.report.byz_injected, 2);
        for _ in 0..2 {
            eng.convict(&mut w.court(), NOW, Some((a, "byz_garbage")), None);
            eng.equivocation_proof(&mut w.court(), NOW, 5, miner);
        }
        assert_eq!(
            w.report.byz_detected, 2,
            "second observation does not recount"
        );
        // An unregistered pair still convicts, but detects nothing.
        let other = w.account_of[1];
        eng.equivocation_proof(&mut w.court(), NOW, 6, other);
        assert_eq!(w.report.byz_detected, 2);
        assert_eq!(w.report.quarantine_events, 2);
    }

    #[test]
    fn a_tagged_orphan_is_judged_forged_after_sync_and_punished() {
        let (mut eng, mut w) = (engine(3), World::new(3));
        w.grow(1, 1);
        // Node 1 still sits at genesis: a forgery claiming height 2 skips
        // ahead of its view and can only be stashed.
        w.node_height[1] = 0;
        let forged = eng.forge_block(&w.court(), NOW, NodeId(2));
        let charge = ("byz_forge", "forged-block");
        eng.judge_bad_block(&mut w.court(), NOW, &forged, &[NodeId(1)], charge);
        assert_eq!(eng.orphan_entries(), 1);
        assert_eq!((w.report.byz_injected, w.report.byz_detected), (1, 0));
        assert!(!eng.is_quarantined(NodeId(2), NOW));
        // The honest block at its height lands; the sync disproves it.
        w.grow(1, 1);
        eng.sync(&mut w.court(), NOW, NodeId(1));
        assert_eq!(eng.chains[1].height(), 2);
        assert_eq!(eng.orphan_entries(), 0);
        assert_eq!(w.report.byz_detected, 1);
        assert!(eng.is_quarantined(NodeId(2), NOW));
        assert_eq!(w.balance(2), 5);
        // A second sync finds the pool judged and empty.
        eng.sync(&mut w.court(), NOW, NodeId(1));
        assert_eq!(w.report.quarantine_events, 1);
    }

    #[test]
    fn quarantine_strikes_and_readmission() {
        let (mut eng, mut w) = (engine(3), World::new(3));
        telemetry::enable();
        telemetry::enable_spans();
        w.spans.arm();
        // The third denial strike quarantines.
        eng.strike(&mut w.court(), NOW, NodeId(2));
        eng.strike(&mut w.court(), NOW, NodeId(2));
        assert!(!eng.is_quarantined(NodeId(2), NOW));
        assert_eq!(w.report.quarantine_events, 0);
        eng.strike(&mut w.court(), NOW, NodeId(2));
        assert!(eng.is_quarantined(NodeId(2), NOW));
        assert!(eng.is_excluded(NodeId(2), NOW, 0));
        assert_eq!(w.report.quarantine_events, 1);
        assert_eq!(w.report.byz_detected, 0, "a denial names no artifact");
        // Readmission closes the window, not a second earlier; each pass
        // sets the active-quarantine gauge.
        let active = || {
            let snapshot = telemetry::registry_snapshot().expect("telemetry is enabled");
            snapshot.get("quarantine.active").cloned()
        };
        let expiry = NOW + SimTime::from_secs(QUARANTINE_SECS);
        eng.readmit(&mut w.court(), expiry - SimTime::from_secs(1));
        assert_eq!(w.report.readmissions, 0, "window still open");
        assert_eq!(active(), Some(telemetry::MetricSummary::Gauge(1.0)));
        eng.readmit(&mut w.court(), expiry);
        assert_eq!(w.report.readmissions, 1);
        assert!(!eng.is_quarantined(NodeId(2), expiry));
        assert_eq!(active(), Some(telemetry::MetricSummary::Gauge(0.0)));
        let session = telemetry::finish().expect("telemetry was enabled");
        let spans = telemetry::spans_from_events(session.events());
        let window = spans
            .iter()
            .find(|s| s.kind == "quarantine.window")
            .expect("a window opened");
        assert_eq!(window.t1_ms, expiry.as_millis(), "{window:?}");
    }

    #[test]
    fn bench_excludes_only_at_the_benched_height() {
        let (mut eng, mut w) = (engine(3), World::new(3));
        w.grow(1, 1);
        eng.arm(NodeId(0), ByzantineAction::Withhold { blocks: 2 });
        let attack = eng.armed_attack(&mut w.court(), NOW, NodeId(0), false);
        assert!(matches!(attack, Attack::Withheld));
        assert!(eng.is_excluded(NodeId(0), NOW, 1));
        assert!(!eng.is_excluded(NodeId(0), NOW, 2));
        assert_eq!((w.report.byz_injected, w.report.byz_detected), (1, 0));
        let fork = eng
            .released(&mut w.court(), NOW)
            .expect("a fork was withheld");
        assert_eq!((fork.base_height, fork.blocks.len()), (1, 2));
        assert!(!eng.is_excluded(NodeId(0), NOW, 1));
        assert_eq!(w.report.byz_detected, 1, "the late release detects");
        assert!(eng.released(&mut w.court(), NOW).is_none());
        // A fork whose window would cross the checkpoint at 4 waits armed.
        w.grow(2, 1);
        eng.arm(NodeId(0), ByzantineAction::Withhold { blocks: 2 });
        let attack = eng.armed_attack(&mut w.court(), NOW, NodeId(0), false);
        assert!(matches!(attack, Attack::Honest));
        assert_eq!(eng.pending[0].len(), 1);
    }

    #[test]
    fn adversarial_material_is_deterministic() {
        let (mut a, mut b, mut w) = (engine(2), engine(2), World::new(2));
        let court = w.court();
        assert_eq!(
            a.forge_block(&court, NOW, NodeId(1)),
            b.forge_block(&court, NOW, NodeId(1))
        );
        for _ in 0..4 {
            assert_eq!(
                a.garbage_payload(&court, 64).bytes(),
                b.garbage_payload(&court, 64).bytes()
            );
        }
    }

    /// The sequence `EdgeNetwork::maybe_prune` runs for a cut at `cut`:
    /// every online node's height is lifted onto the anchor's block, the
    /// online views sync, the canonical chain prunes, the views follow.
    fn prune_as_the_network_does(
        eng: &mut ByzantineEngine,
        w: &mut World,
        cut: u64,
        online: impl Fn(NodeId) -> bool,
    ) {
        for v in (0..w.node_height.len()).filter(|&v| online(NodeId(v))) {
            w.node_height[v] = w.node_height[v].max(cut - 1);
        }
        eng.sync_before_cut(&mut w.court(), NOW, cut, &online);
        w.canonical.prune_below(cut, Identity::from_seed(42).keys());
        eng.prune_below(&w.canonical);
    }

    #[test]
    fn canonical_pruning_re_bases_agreeing_views_and_stays_safe() {
        let (mut eng, mut w) = (engine(4), World::new(4));
        w.grow(9, 1);
        // Node 1 is fully synced; nodes 2 (offline) and 3 lag at height 2.
        eng.sync(&mut w.court(), NOW, NodeId(1));
        w.node_height[2] = 2;
        w.node_height[3] = 2;
        eng.sync(&mut w.court(), NOW, NodeId(2));
        eng.sync(&mut w.court(), NOW, NodeId(3));
        // A tagged orphan at height 4 on the offline node 2: the cut at 5
        // leaves it below the base the view will be rebuilt on.
        let full = w.canonical.clone();
        let orphan = mined(full.get(3).unwrap(), 5, 241);
        eng.stash_orphan(NodeId(2), orphan, Some((0, "byz_forge")));

        prune_as_the_network_does(&mut eng, &mut w, 5, |v| v != NodeId(2));
        assert_eq!(eng.chains[1].base_index(), 5);
        assert_eq!(eng.chains[1], w.canonical);
        assert_eq!(
            eng.chains[3], w.canonical,
            "online laggard synced before the cut, then re-based"
        );
        assert_eq!(eng.chains[2].base_index(), 0, "offline laggard left intact");
        assert_eq!(eng.orphan_entries(), 1, "no prune drops an orphan");

        // An orphan below a re-based node's own pruned base resolves as a
        // graceful drop, never a panic.
        let stale = mined(full.get(2).unwrap(), 6, 200);
        eng.stash_orphan(NodeId(1), stale, None);
        eng.sync(&mut w.court(), NOW, NodeId(1));
        assert_eq!(eng.orphan_entries(), 1);

        // Back online with a height short of the base, node 2 has nothing
        // to sync to; once its height passes the base (a snapshot landed),
        // its first sync rebuilds it from the anchor, and its orphan —
        // below the rebuilt base, judgeable nowhere — is dropped.
        eng.sync(&mut w.court(), NOW, NodeId(2));
        assert_eq!(eng.chains[2].height(), 2);
        w.node_height[2] = 9;
        eng.sync(&mut w.court(), NOW, NodeId(2));
        assert_eq!(eng.chains[2], w.canonical);
        assert_eq!(eng.orphan_entries(), 0);
        assert_eq!(w.report.reorgs, 0);
        assert_eq!(w.report.quarantine_events, 0);
    }

    #[test]
    fn a_forgery_stashed_by_a_laggard_is_judged_as_its_view_grows() {
        let (mut eng, mut w) = (engine(3), World::new(3));
        w.grow(1, 1);
        // Node 1 sits at genesis with nothing to sync to: the forgery at
        // height 2 is stashed.
        w.node_height[1] = 0;
        let forged = eng.forge_block(&w.court(), NOW, NodeId(2));
        let charge = ("byz_forge", "forged-block");
        eng.judge_bad_block(&mut w.court(), NOW, &forged, &[NodeId(1)], charge);
        assert_eq!(eng.orphan_entries(), 1);
        // The canonical blocks then reach it one by one, each extending its
        // tip: the one at the forgery's height disproves it, no sync run.
        w.grow(1, 1);
        w.node_height[1] = 0;
        for h in 1..=2 {
            let block = w.canonical.get(h).unwrap().clone();
            eng.receive(&mut w.court(), NOW, NodeId(1), heard(&block), None);
        }
        assert_eq!(eng.chains[1], w.canonical);
        assert_eq!((w.report.byz_injected, w.report.byz_detected), (1, 1));
        assert!(eng.is_quarantined(NodeId(2), NOW));
        assert_eq!(eng.orphan_entries(), 0);
    }

    #[test]
    fn a_laggards_orphan_below_the_cut_is_judged_before_the_prune() {
        let (mut eng, mut w) = (engine(3), World::new(3));
        w.grow(3, 1);
        // Node 1 lags at height 1 and stashes a forgery at 4, between its
        // tip and the coming cut at 6.
        w.node_height[1] = 1;
        eng.sync(&mut w.court(), NOW, NodeId(1));
        let forged = eng.forge_block(&w.court(), NOW, NodeId(2));
        let charge = ("byz_forge", "forged-block");
        eng.judge_bad_block(&mut w.court(), NOW, &forged, &[NodeId(1)], charge);
        w.grow(6, 1);
        w.node_height[1] = 1;
        assert_eq!((eng.orphan_entries(), w.report.byz_detected), (1, 0));
        // The cut at 6 would strand the view: it syncs to the canonical
        // tip while block 4 still exists, which disproves the forgery (the
        // prune itself judges nothing), then re-bases.
        prune_as_the_network_does(&mut eng, &mut w, 6, |_| true);
        assert_eq!(w.report.byz_detected, 1, "convicted before the cut");
        assert!(eng.is_quarantined(NodeId(2), NOW));
        assert_eq!(eng.chains[1], w.canonical, "re-based at the cut");
    }

    #[test]
    fn a_view_with_a_sibling_at_the_cut_keeps_its_base_and_reorgs_at_sync() {
        let (mut eng, mut w) = (engine(3), World::new(3));
        w.grow(4, 1);
        eng.sync(&mut w.court(), NOW, NodeId(1));
        // Node 1 adopted a sibling of canonical block 5: it agrees at the
        // anchor (block 4) that a cut at 5 seals, and its block 5 attaches
        // to that anchor too.
        let sibling = mined(w.canonical.tip(), 2, w.canonical.tip().timestamp_secs + 61);
        eng.chains[1].push(sibling).unwrap();
        w.grow(5, 1);
        w.node_height[1] = 5;
        w.canonical.prune_below(5, Identity::from_seed(42).keys());
        eng.prune_below(&w.canonical);
        assert_eq!(eng.chains[1].base_index(), 0, "not re-based onto its fork");

        w.node_height[1] = 9;
        eng.sync(&mut w.court(), NOW, NodeId(1));
        assert_eq!(eng.chains[1].tip(), w.canonical.tip());
        assert_eq!(eng.chains[1].get(5), w.canonical.get(5));
        assert_eq!((w.report.reorgs, w.report.max_reorg_depth), (1, 1));
        // Back on the canonical branch, the next prune re-bases it.
        w.canonical.prune_below(7, Identity::from_seed(42).keys());
        eng.prune_below(&w.canonical);
        assert_eq!(eng.chains[1].base_index(), 7);
        assert_eq!(eng.chains[1].as_slice(), w.canonical.as_slice());
    }

    #[test]
    fn orphan_pool_defers_judgement_and_keeps_tagged_entries() {
        let (mut eng, mut w) = (engine(3), World::new(3));
        w.grow(3, 1);
        w.node_height[1] = 0;

        // Node 1 still sits at genesis: canonical blocks ahead of its tip
        // are re-delivered by sync, so none of them enters the pool.
        for h in 2..=3 {
            let block = w.canonical.get(h).unwrap().clone();
            eng.receive(&mut w.court(), NOW, NodeId(1), heard(&block), None);
        }
        assert_eq!(eng.orphan_entries(), 0);

        // Nine competing height-2 claims from other miners are suspects;
        // the pool keeps the newest eight, oldest out first.
        let parent = w.canonical.get(1).unwrap().clone();
        let siblings: Vec<Block> = (3..12)
            .map(|seed| mined(&parent, seed, 200 + seed))
            .collect();
        for sibling in &siblings {
            eng.receive(&mut w.court(), NOW, NodeId(1), heard(sibling), None);
        }
        assert_eq!(eng.orphan_entries(), 8, "the pool stays bounded");
        let front = |eng: &ByzantineEngine| eng.orphans[1].front().unwrap().0.hash;
        assert_eq!(front(&eng), siblings[1].hash, "FIFO: the oldest went");

        // Neither a canonical block nor a repeat evicts anything; a tagged
        // forgery at canonical height + 1 pushes out the next-oldest
        // sibling.
        let canonical_tip = w.canonical.tip().clone();
        eng.receive(&mut w.court(), NOW, NodeId(1), heard(&canonical_tip), None);
        eng.receive(&mut w.court(), NOW, NodeId(1), heard(&siblings[8]), None);
        assert_eq!(front(&eng), siblings[1].hash);
        let forged = eng.forge_block(&w.court(), NOW, NodeId(2));
        let charge = ("byz_forge", "forged-block");
        eng.judge_bad_block(&mut w.court(), NOW, &forged, &[NodeId(1)], charge);
        assert_eq!(eng.orphan_entries(), 8);
        assert_eq!(front(&eng), siblings[2].hash);
        assert_eq!(w.report.byz_detected, 0, "nothing judgeable yet");

        // The honest block at the forgery's height lands and node 1 syncs
        // to it: the forgery is disproven; the siblings, from miners other
        // than the adopted block's, prove nothing and are dropped.
        w.grow(1, 1);
        eng.sync(&mut w.court(), NOW, NodeId(1));
        assert_eq!(eng.chains[1], w.canonical);
        assert_eq!((w.report.byz_injected, w.report.byz_detected), (1, 1));
        assert!(eng.is_quarantined(NodeId(2), NOW));
        assert_eq!(w.report.quarantine_events, 1, "only the forger");
        assert_eq!(eng.orphan_entries(), 0, "the pool is judged and empty");
    }

    #[test]
    fn a_laggards_equivocation_variant_outlives_canonical_traffic() {
        let (mut eng, mut w) = (engine(3), World::new(3));
        w.grow(1, 1);
        w.grow(1, 2);
        let sealed = w.canonical.tip().clone();
        let parent = w.canonical.get(1).unwrap().clone();
        let amendment = Amendment::from_fraction(1, 1000);
        let ts = sealed.timestamp_secs + 1;
        let variant = empty_block_on(&parent, ts, sealed.pos_hash, sealed.miner, 60, amendment);

        // Node 1 lags at genesis and hears only node 2's conflicting
        // variant at height 2: too far ahead to judge, so it is stashed.
        w.node_height[1] = 0;
        let received = [NodeId(2), NodeId(1)];
        eng.deliver_sealed(&mut w.court(), NOW, &received, Some(&variant));
        assert_eq!((w.report.byz_injected, w.report.byz_detected), (1, 0));
        assert_eq!(eng.orphans[1].len(), 1);

        // Eight canonical blocks ahead of its tip reach it before it can
        // sync; none of them displaces the proof-in-waiting.
        for _ in 0..8 {
            w.grow(1, 1);
            w.node_height[1] = 0;
            let block = w.canonical.tip().clone();
            eng.receive(&mut w.court(), NOW, NodeId(1), heard(&block), None);
        }
        assert_eq!(eng.orphans[1].len(), 1);

        // Synced to the variant's height, node 1 holds the two headers.
        w.node_height[1] = 2;
        eng.sync(&mut w.court(), NOW, NodeId(1));
        assert_eq!(eng.chains[1].get(2), Some(&sealed));
        assert_eq!(w.report.byz_detected, 1, "the equivocation is proven");
        assert!(eng.is_quarantined(NodeId(2), NOW));
        assert_eq!(eng.orphan_entries(), 0);
    }
}
