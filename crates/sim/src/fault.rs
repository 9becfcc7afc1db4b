//! Deterministic fault injection: node churn, partitions, lossy links,
//! and latency spikes.
//!
//! A [`FaultPlan`] is a declarative, serializable schedule of
//! [`FaultEvent`]s fixed before the run starts, so a simulation under
//! faults is exactly as reproducible as one without: the same seed and
//! plan give bit-identical traces. The [`FaultInjector`] linearizes the
//! plan into a timeline of [`FaultAction`]s that the event loop applies
//! at the right instants — crashes and restarts mutate the
//! [`Topology`]'s active set, partitions impose a link cut, and
//! loss/latency windows toggle the [`Transport`] knobs.
//!
//! ```
//! use edgechain_sim::fault::{FaultEvent, FaultInjector, FaultPlan};
//! use edgechain_sim::{NodeId, SimTime, Topology, TopologyConfig, Transport,
//!     TransportConfig, Point};
//!
//! let plan = FaultPlan::new(vec![
//!     FaultEvent::Crash { node: NodeId(1), at: SimTime::from_secs(60) },
//!     FaultEvent::Restart { node: NodeId(1), at: SimTime::from_secs(120) },
//! ]);
//! plan.validate(3).unwrap();
//! let mut injector = FaultInjector::new(&plan);
//! let mut topo = Topology::from_positions(vec![
//!     Point::new(0.0, 0.0), Point::new(50.0, 0.0), Point::new(100.0, 0.0),
//! ]);
//! let mut transport = Transport::new(TransportConfig::default());
//! assert_eq!(injector.next_due(), Some(SimTime::from_secs(60)));
//! for action in injector.drain_due(SimTime::from_secs(60)) {
//!     action.apply(&mut topo, &mut transport);
//! }
//! assert!(!topo.is_active(NodeId(1)));
//! ```

use crate::event::SimTime;
use crate::topology::{NodeId, Topology};
use crate::transport::Transport;
use edgechain_telemetry::trace_event;
use rand::Rng;
use std::fmt;

/// A Byzantine misbehavior an adversarial node performs at a scheduled
/// instant. Unlike crash/loss faults these are *protocol-level*: the
/// substrate [`FaultAction::apply`] is a no-op and the network layer
/// interprets the action (sealing conflicting blocks, withholding a
/// private fork, corrupting payloads, …).
///
/// Mining-triggered actions ([`Equivocate`](ByzantineAction::Equivocate),
/// [`Withhold`](ByzantineAction::Withhold),
/// [`TamperSignature`](ByzantineAction::TamperSignature)) arm the node and
/// fire the next time it wins a PoS election; wire-level actions
/// ([`ForgeBlock`](ByzantineAction::ForgeBlock),
/// [`GarbagePayload`](ByzantineAction::GarbagePayload)) execute
/// immediately at the scheduled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzantineAction {
    /// Seal two conflicting blocks at one height and broadcast both
    /// (different receivers see different tips).
    Equivocate,
    /// Broadcast a block claiming a PoS hit the node never earned.
    ForgeBlock,
    /// Mine a private fork of `blocks` blocks, withholding them, then
    /// release the fork once it is longer than the public chain.
    Withhold {
        /// Length of the private fork (>= 1).
        blocks: u64,
    },
    /// Seal a block whose packed metadata carries a corrupted signature.
    TamperSignature,
    /// Broadcast `bytes` of garbage (or a truncated block prefix) that no
    /// receiver can decode.
    GarbagePayload {
        /// Payload size in bytes (>= 1).
        bytes: u64,
    },
}

impl ByzantineAction {
    /// Short stable label used in telemetry traces.
    pub fn kind(&self) -> &'static str {
        match self {
            ByzantineAction::Equivocate => "byz_equivocate",
            ByzantineAction::ForgeBlock => "byz_forge",
            ByzantineAction::Withhold { .. } => "byz_withhold",
            ByzantineAction::TamperSignature => "byz_tamper",
            ByzantineAction::GarbagePayload { .. } => "byz_garbage",
        }
    }
}

/// One scheduled fault in a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// `node` halts at `at`: its radio goes silent and its storage is
    /// unavailable (but not wiped) until a matching [`FaultEvent::Restart`].
    Crash {
        /// The node that fails.
        node: NodeId,
        /// When it fails.
        at: SimTime,
    },
    /// `node` comes back at `at` with its pre-crash disk contents.
    Restart {
        /// The node that recovers.
        node: NodeId,
        /// When it recovers.
        at: SimTime,
    },
    /// Links between `cut` and the rest of the network are severed during
    /// `[from, until)`.
    Partition {
        /// One side of the split (the rest of the network is the other).
        cut: Vec<NodeId>,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Every message is independently lost with probability `prob` during
    /// `[from, until)`.
    LinkLoss {
        /// Per-message loss probability in `[0, 1]`.
        prob: f64,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Transmission and propagation delays are multiplied by `factor`
    /// during `[from, until)`.
    LatencySpike {
        /// Delay multiplier, `>= 1`.
        factor: f64,
        /// Window start.
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// `node` performs a [`ByzantineAction`] at (or armed from) `at`.
    Byzantine {
        /// The adversarial node.
        node: NodeId,
        /// What it does.
        action: ByzantineAction,
        /// When the action fires (wire-level) or is armed
        /// (mining-triggered).
        at: SimTime,
    },
}

/// A complete fault schedule, fixed before the run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The scheduled events, in no particular order.
    pub events: Vec<FaultEvent>,
    /// Optional seeded role assignment. When set, the network draws
    /// malicious (service-denying) roles from a dedicated RNG seeded here
    /// instead of the deterministic ID-tail placement, so sweeps can vary
    /// adversary placement per seed without perturbing any other stream.
    pub roles: Option<RoleAssignment>,
}

/// Seeded role placement carried by a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoleAssignment {
    /// Seed for the role-placement RNG (independent of the run seed).
    pub seed: u64,
    /// Fraction of nodes assigned the malicious (denial) role, in
    /// `[0, 1]`. Overrides the network's `malicious_fraction` knob.
    pub malicious_fraction: f64,
}

/// Parameters for [`FaultPlan::random_churn`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Expected crashes per simulated minute across the whole network.
    pub crashes_per_min: f64,
    /// Mean downtime per crash in seconds (exponentially distributed).
    pub mean_downtime_secs: f64,
    /// Don't allow more than this many nodes down at once.
    pub max_concurrent_down: usize,
    /// Schedule horizon: no crash is injected after this time.
    pub horizon: SimTime,
}

/// Parameters for [`FaultPlan::random_byzantine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ByzantineSweepConfig {
    /// Fraction of nodes given an adversary role, in `[0, 1]` (at least
    /// one node is always drawn).
    pub adversary_fraction: f64,
    /// Byzantine actions scheduled per adversary.
    pub actions_per_adversary: usize,
    /// Schedule horizon: actions land inside `[horizon/10, 4*horizon/5)`.
    pub horizon: SimTime,
}

impl FaultPlan {
    /// Wraps a list of events as a plan.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultPlan {
            events,
            roles: None,
        }
    }

    /// A plan with no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules anything at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.roles.is_none()
    }

    /// Returns the plan with a seeded [`RoleAssignment`] attached.
    pub fn with_roles(mut self, roles: RoleAssignment) -> Self {
        self.roles = Some(roles);
        self
    }

    /// Combines this plan with another: the event lists concatenate (the
    /// injector orders them by start time) and a role assignment from
    /// either side carries over — `other`'s wins when both carry one.
    /// Lets a churn schedule and a Byzantine sweep compose into one plan.
    #[must_use]
    pub fn merged(mut self, other: FaultPlan) -> Self {
        self.events.extend(other.events);
        if other.roles.is_some() {
            self.roles = other.roles;
        }
        self
    }

    /// Whether the plan schedules any [`FaultEvent::Byzantine`] action.
    pub fn has_byzantine(&self) -> bool {
        self.events
            .iter()
            .any(|ev| matches!(ev, FaultEvent::Byzantine { .. }))
    }

    /// The set of nodes named by any Byzantine action in the plan.
    pub fn byzantine_nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .events
            .iter()
            .filter_map(|ev| match ev {
                FaultEvent::Byzantine { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Generates a seeded random churn schedule: crash arrivals follow a
    /// Poisson process at `cfg.crashes_per_min`, each crashed node restarts
    /// after an exponential downtime, and at most `cfg.max_concurrent_down`
    /// nodes are ever down simultaneously (arrivals that would exceed the
    /// cap are skipped, not deferred). Node choice, arrival times, and
    /// downtimes are all drawn from `rng`, so the schedule is a pure
    /// function of the seed.
    pub fn random_churn<R: Rng + ?Sized>(nodes: usize, cfg: ChurnConfig, rng: &mut R) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(cfg.crashes_per_min >= 0.0, "crash rate must be nonnegative");
        let mut events = Vec::new();
        if cfg.crashes_per_min <= 0.0 {
            return FaultPlan::new(events);
        }
        let rate_per_sec = cfg.crashes_per_min / 60.0;
        // (restart_time, node) for nodes currently scheduled as down.
        let mut down: Vec<(SimTime, NodeId)> = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            let u: f64 = rng.gen_range(1e-12..1.0);
            t += SimTime::from_secs_f64(-u.ln() / rate_per_sec);
            if t >= cfg.horizon {
                break;
            }
            down.retain(|&(until, _)| until > t);
            if down.len() >= cfg.max_concurrent_down {
                continue;
            }
            let up: Vec<NodeId> = (0..nodes)
                .map(NodeId)
                .filter(|v| down.iter().all(|&(_, d)| d != *v))
                .collect();
            if up.is_empty() {
                continue;
            }
            let node = up[rng.gen_range(0..up.len())];
            let w: f64 = rng.gen_range(1e-12..1.0);
            let downtime = SimTime::from_secs_f64(-w.ln() * cfg.mean_downtime_secs.max(1.0));
            let restart = t + downtime;
            events.push(FaultEvent::Crash { node, at: t });
            events.push(FaultEvent::Restart { node, at: restart });
            down.push((restart, node));
        }
        FaultPlan::new(events)
    }

    /// Generates a seeded random Byzantine schedule: `cfg.adversary_fraction`
    /// of the nodes (at least one, drawn without replacement from `rng`)
    /// each perform `cfg.actions_per_adversary` actions at random instants
    /// inside `[cfg.horizon/10, 4*cfg.horizon/5)`, cycling through the
    /// action kinds. At most one [`ByzantineAction::Withhold`] is emitted
    /// per plan (the engine tracks a single private fork at a time), and it
    /// is scheduled early so the release fits the horizon. The schedule is
    /// a pure function of the seed.
    pub fn random_byzantine<R: Rng + ?Sized>(
        nodes: usize,
        cfg: ByzantineSweepConfig,
        rng: &mut R,
    ) -> Self {
        assert!(nodes > 1, "need at least two nodes");
        assert!(
            (0.0..=1.0).contains(&cfg.adversary_fraction),
            "adversary fraction must be in [0, 1]"
        );
        let n_adv = ((nodes as f64 * cfg.adversary_fraction).floor() as usize)
            .clamp(1, nodes.saturating_sub(1));
        let mut pool: Vec<NodeId> = (0..nodes).map(NodeId).collect();
        for i in 0..n_adv {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        let adversaries = &pool[..n_adv];
        let lo = cfg.horizon.as_millis() / 10;
        let hi = (cfg.horizon.as_millis() * 4 / 5).max(lo + 1);
        let kinds = [
            ByzantineAction::Equivocate,
            ByzantineAction::GarbagePayload { bytes: 2048 },
            ByzantineAction::TamperSignature,
            ByzantineAction::ForgeBlock,
            ByzantineAction::Withhold { blocks: 2 },
        ];
        let mut events = Vec::new();
        let mut withheld = false;
        let mut k = 0usize;
        for &node in adversaries {
            for _ in 0..cfg.actions_per_adversary {
                let mut action = kinds[k % kinds.len()];
                k += 1;
                let mut at = SimTime::from_millis(rng.gen_range(lo..hi));
                if let ByzantineAction::Withhold { .. } = action {
                    if withheld {
                        action = ByzantineAction::Equivocate;
                    } else {
                        withheld = true;
                        at = SimTime::from_millis(lo);
                    }
                }
                events.push(FaultEvent::Byzantine { node, action, at });
            }
        }
        FaultPlan::new(events)
    }

    /// Checks the plan against a network of `nodes` nodes: node ids in
    /// range, windows nonempty, probabilities in `[0, 1]`, factors `>= 1`,
    /// crash/restart alternation per node, and no overlapping windows of
    /// the same kind (overlap would make "window end" ambiguous).
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] found.
    pub fn validate(&self, nodes: usize) -> Result<(), FaultPlanError> {
        let check_node = |v: NodeId| {
            if v.0 >= nodes {
                Err(FaultPlanError::NodeOutOfRange { node: v, nodes })
            } else {
                Ok(())
            }
        };
        let mut loss_windows = Vec::new();
        let mut latency_windows = Vec::new();
        let mut partition_windows = Vec::new();
        for ev in &self.events {
            match ev {
                FaultEvent::Crash { node, .. } | FaultEvent::Restart { node, .. } => {
                    check_node(*node)?;
                }
                FaultEvent::Partition { cut, from, until } => {
                    for &v in cut {
                        check_node(v)?;
                    }
                    if cut.is_empty() || cut.len() >= nodes {
                        return Err(FaultPlanError::DegenerateCut {
                            side: cut.len(),
                            nodes,
                        });
                    }
                    Self::check_window(*from, *until)?;
                    partition_windows.push((*from, *until));
                }
                FaultEvent::LinkLoss { prob, from, until } => {
                    if !(0.0..=1.0).contains(prob) {
                        return Err(FaultPlanError::BadProbability { prob: *prob });
                    }
                    Self::check_window(*from, *until)?;
                    loss_windows.push((*from, *until));
                }
                FaultEvent::LatencySpike {
                    factor,
                    from,
                    until,
                } => {
                    if *factor < 1.0 || !factor.is_finite() {
                        return Err(FaultPlanError::BadFactor { factor: *factor });
                    }
                    Self::check_window(*from, *until)?;
                    latency_windows.push((*from, *until));
                }
                FaultEvent::Byzantine { node, action, .. } => {
                    check_node(*node)?;
                    let bad = matches!(
                        action,
                        ByzantineAction::Withhold { blocks: 0 }
                            | ByzantineAction::GarbagePayload { bytes: 0 }
                    );
                    if bad {
                        return Err(FaultPlanError::BadByzantineParam { node: *node });
                    }
                }
            }
        }
        if let Some(r) = &self.roles {
            if !r.malicious_fraction.is_finite() || !(0.0..=1.0).contains(&r.malicious_fraction) {
                return Err(FaultPlanError::BadProbability {
                    prob: r.malicious_fraction,
                });
            }
        }
        for windows in [
            &mut loss_windows,
            &mut latency_windows,
            &mut partition_windows,
        ] {
            windows.sort();
            for pair in windows.windows(2) {
                if pair[1].0 < pair[0].1 {
                    return Err(FaultPlanError::OverlappingWindows {
                        first_until: pair[0].1,
                        second_from: pair[1].0,
                    });
                }
            }
        }
        // Per-node crash/restart events must alternate, starting crashed.
        for v in 0..nodes {
            let mut marks: Vec<(SimTime, bool)> = self
                .events
                .iter()
                .filter_map(|ev| match ev {
                    FaultEvent::Crash { node, at } if node.0 == v => Some((*at, true)),
                    FaultEvent::Restart { node, at } if node.0 == v => Some((*at, false)),
                    _ => None,
                })
                .collect();
            marks.sort();
            let mut expect_crash = true;
            for &(at, is_crash) in &marks {
                if is_crash != expect_crash {
                    return Err(FaultPlanError::ChurnOutOfOrder {
                        node: NodeId(v),
                        at,
                    });
                }
                expect_crash = !expect_crash;
            }
        }
        Ok(())
    }

    fn check_window(from: SimTime, until: SimTime) -> Result<(), FaultPlanError> {
        if from >= until {
            Err(FaultPlanError::EmptyWindow { from, until })
        } else {
            Ok(())
        }
    }
}

/// Why a [`FaultPlan`] failed validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// An event names a node outside `0..nodes`.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Network size.
        nodes: usize,
    },
    /// A partition cut would be empty or the whole network.
    DegenerateCut {
        /// Size of the cut side.
        side: usize,
        /// Network size.
        nodes: usize,
    },
    /// A loss probability outside `[0, 1]`.
    BadProbability {
        /// The offending probability.
        prob: f64,
    },
    /// A latency factor below 1 (or non-finite).
    BadFactor {
        /// The offending factor.
        factor: f64,
    },
    /// A window with `from >= until`.
    EmptyWindow {
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
    },
    /// Two windows of the same kind overlap.
    OverlappingWindows {
        /// End of the earlier window.
        first_until: SimTime,
        /// Start of the later window.
        second_from: SimTime,
    },
    /// A node restarts while up, or crashes while already down.
    ChurnOutOfOrder {
        /// The offending node.
        node: NodeId,
        /// When the out-of-order event fires.
        at: SimTime,
    },
    /// A Byzantine action with a zero-sized parameter (empty private fork
    /// or empty garbage payload).
    BadByzantineParam {
        /// The offending node.
        node: NodeId,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::NodeOutOfRange { node, nodes } => {
                write!(f, "{node} out of range for a {nodes}-node network")
            }
            FaultPlanError::DegenerateCut { side, nodes } => {
                write!(f, "partition cut of {side} nodes in a {nodes}-node network")
            }
            FaultPlanError::BadProbability { prob } => {
                write!(f, "loss probability {prob} outside [0, 1]")
            }
            FaultPlanError::BadFactor { factor } => {
                write!(f, "latency factor {factor} below 1")
            }
            FaultPlanError::EmptyWindow { from, until } => {
                write!(f, "empty fault window [{from}, {until})")
            }
            FaultPlanError::OverlappingWindows {
                first_until,
                second_from,
            } => {
                write!(
                    f,
                    "fault window starting {second_from} overlaps one ending {first_until}"
                )
            }
            FaultPlanError::ChurnOutOfOrder { node, at } => {
                write!(f, "crash/restart out of order for {node} at {at}")
            }
            FaultPlanError::BadByzantineParam { node } => {
                write!(f, "byzantine action for {node} has a zero parameter")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A single state change derived from a [`FaultEvent`]: window events
/// expand into a start and an end action.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultAction {
    /// Take a node down.
    Crash(NodeId),
    /// Bring a node back up.
    Restart(NodeId),
    /// Impose a partition cut.
    PartitionStart(Vec<NodeId>),
    /// Lift the partition.
    PartitionEnd,
    /// Start dropping messages with this probability.
    LossStart(f64),
    /// Stop dropping messages.
    LossEnd,
    /// Start multiplying delays by this factor.
    LatencyStart(f64),
    /// Return delays to nominal.
    LatencyEnd,
    /// A node performs (or arms) a Byzantine misbehavior. No substrate
    /// effect: the protocol layer interprets it.
    Byzantine(NodeId, ByzantineAction),
}

impl FaultAction {
    /// Applies the state change to the simulation substrate. The caller
    /// remains responsible for protocol-level consequences (skipping dead
    /// miners, scheduling repair, …).
    pub fn apply(&self, topo: &mut Topology, transport: &mut Transport) {
        match self {
            FaultAction::Crash(v) => topo.set_active(*v, false),
            FaultAction::Restart(v) => topo.set_active(*v, true),
            FaultAction::PartitionStart(cut) => topo.set_partition(Some(cut)),
            FaultAction::PartitionEnd => topo.set_partition(None),
            FaultAction::LossStart(p) => transport.set_loss_prob(*p),
            FaultAction::LossEnd => transport.set_loss_prob(0.0),
            FaultAction::LatencyStart(f) => transport.set_latency_factor(*f),
            FaultAction::LatencyEnd => transport.set_latency_factor(1.0),
            FaultAction::Byzantine(..) => {}
        }
    }
}

/// Linearized fault timeline the event loop consults.
///
/// Construction sorts all actions by fire time (stable: simultaneous
/// actions fire in plan order, with window-ends before window-starts at
/// the same instant so back-to-back windows hand over cleanly).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    timeline: Vec<(SimTime, u8, FaultAction)>,
    next: usize,
    applied: u64,
}

impl FaultInjector {
    /// Builds the timeline from a plan.
    pub fn new(plan: &FaultPlan) -> Self {
        let mut timeline: Vec<(SimTime, u8, FaultAction)> = Vec::new();
        for ev in &plan.events {
            match ev {
                FaultEvent::Crash { node, at } => {
                    timeline.push((*at, 1, FaultAction::Crash(*node)));
                }
                FaultEvent::Restart { node, at } => {
                    timeline.push((*at, 0, FaultAction::Restart(*node)));
                }
                FaultEvent::Partition { cut, from, until } => {
                    timeline.push((*from, 1, FaultAction::PartitionStart(cut.clone())));
                    timeline.push((*until, 0, FaultAction::PartitionEnd));
                }
                FaultEvent::LinkLoss { prob, from, until } => {
                    timeline.push((*from, 1, FaultAction::LossStart(*prob)));
                    timeline.push((*until, 0, FaultAction::LossEnd));
                }
                FaultEvent::LatencySpike {
                    factor,
                    from,
                    until,
                } => {
                    timeline.push((*from, 1, FaultAction::LatencyStart(*factor)));
                    timeline.push((*until, 0, FaultAction::LatencyEnd));
                }
                FaultEvent::Byzantine { node, action, at } => {
                    timeline.push((*at, 1, FaultAction::Byzantine(*node, *action)));
                }
            }
        }
        timeline.sort_by_key(|a| (a.0, a.1));
        FaultInjector {
            timeline,
            next: 0,
            applied: 0,
        }
    }

    /// When the next pending action fires, if any.
    pub fn next_due(&self) -> Option<SimTime> {
        self.timeline.get(self.next).map(|&(t, _, _)| t)
    }

    /// Removes and returns every action due at or before `now`, in firing
    /// order. The caller applies them (and counts them as injected).
    ///
    /// Each drained action also lands in the telemetry trace as a
    /// `fault.injected` event stamped with its *scheduled* time, so the
    /// fault timeline correlates with the retries and repairs it causes.
    pub fn drain_due(&mut self, now: SimTime) -> Vec<FaultAction> {
        let mut due = Vec::new();
        while let Some(&(t, _, ref action)) = self.timeline.get(self.next) {
            if t > now {
                break;
            }
            match action {
                FaultAction::Crash(node) => {
                    trace_event!(
                        "fault.injected",
                        t.as_millis(),
                        kind = "crash",
                        node = node.0
                    );
                }
                FaultAction::Restart(node) => {
                    trace_event!(
                        "fault.injected",
                        t.as_millis(),
                        kind = "restart",
                        node = node.0
                    );
                }
                FaultAction::PartitionStart(cut) => {
                    trace_event!(
                        "fault.injected",
                        t.as_millis(),
                        kind = "partition_start",
                        nodes = cut.len()
                    );
                }
                FaultAction::PartitionEnd => {
                    trace_event!("fault.injected", t.as_millis(), kind = "partition_end");
                }
                FaultAction::LossStart(prob) => {
                    trace_event!(
                        "fault.injected",
                        t.as_millis(),
                        kind = "loss_start",
                        prob = *prob
                    );
                }
                FaultAction::LossEnd => {
                    trace_event!("fault.injected", t.as_millis(), kind = "loss_end");
                }
                FaultAction::LatencyStart(factor) => {
                    trace_event!(
                        "fault.injected",
                        t.as_millis(),
                        kind = "latency_start",
                        factor = *factor
                    );
                }
                FaultAction::LatencyEnd => {
                    trace_event!("fault.injected", t.as_millis(), kind = "latency_end");
                }
                FaultAction::Byzantine(node, action) => {
                    trace_event!(
                        "fault.injected",
                        t.as_millis(),
                        kind = action.kind(),
                        node = node.0
                    );
                }
            }
            due.push(action.clone());
            self.next += 1;
        }
        self.applied += due.len() as u64;
        due
    }

    /// Total actions drained so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Whether every scheduled action has been drained.
    pub fn exhausted(&self) -> bool {
        self.next >= self.timeline.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use crate::transport::TransportConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line(n: usize) -> Topology {
        Topology::from_positions((0..n).map(|i| Point::new(i as f64 * 60.0, 0.0)).collect())
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn injector_fires_in_time_order() {
        let plan = FaultPlan::new(vec![
            FaultEvent::Restart {
                node: NodeId(0),
                at: secs(20),
            },
            FaultEvent::Crash {
                node: NodeId(0),
                at: secs(10),
            },
            FaultEvent::LinkLoss {
                prob: 0.5,
                from: secs(5),
                until: secs(15),
            },
        ]);
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.next_due(), Some(secs(5)));
        assert_eq!(inj.drain_due(secs(4)), vec![]);
        assert_eq!(
            inj.drain_due(secs(10)),
            vec![FaultAction::LossStart(0.5), FaultAction::Crash(NodeId(0)),]
        );
        assert_eq!(
            inj.drain_due(secs(60)),
            vec![FaultAction::LossEnd, FaultAction::Restart(NodeId(0)),]
        );
        assert!(inj.exhausted());
        assert_eq!(inj.applied(), 4);
    }

    #[test]
    fn window_end_precedes_start_at_same_instant() {
        // Back-to-back loss windows hand over without a gap or an
        // end-clobbers-start inversion.
        let plan = FaultPlan::new(vec![
            FaultEvent::LinkLoss {
                prob: 0.2,
                from: secs(0),
                until: secs(10),
            },
            FaultEvent::LinkLoss {
                prob: 0.8,
                from: secs(10),
                until: secs(20),
            },
        ]);
        assert!(plan.validate(4).is_ok());
        let mut inj = FaultInjector::new(&plan);
        inj.drain_due(secs(0));
        let at_ten = inj.drain_due(secs(10));
        assert_eq!(
            at_ten,
            vec![FaultAction::LossEnd, FaultAction::LossStart(0.8)]
        );
    }

    #[test]
    fn actions_mutate_topology_and_transport() {
        let mut topo = line(4);
        let mut tr = Transport::new(TransportConfig::default());
        FaultAction::Crash(NodeId(2)).apply(&mut topo, &mut tr);
        assert!(!topo.is_active(NodeId(2)));
        FaultAction::PartitionStart(vec![NodeId(0)]).apply(&mut topo, &mut tr);
        assert!(!topo.reachable(NodeId(0), NodeId(1)));
        FaultAction::LossStart(0.25).apply(&mut topo, &mut tr);
        assert_eq!(tr.loss_prob(), 0.25);
        FaultAction::LatencyStart(2.0).apply(&mut topo, &mut tr);
        assert_eq!(tr.latency_factor(), 2.0);
        FaultAction::Restart(NodeId(2)).apply(&mut topo, &mut tr);
        FaultAction::PartitionEnd.apply(&mut topo, &mut tr);
        FaultAction::LossEnd.apply(&mut topo, &mut tr);
        FaultAction::LatencyEnd.apply(&mut topo, &mut tr);
        assert!(topo.is_connected());
        assert_eq!(tr.loss_prob(), 0.0);
        assert_eq!(tr.latency_factor(), 1.0);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let n = 4;
        let cases = vec![
            FaultEvent::Crash {
                node: NodeId(9),
                at: secs(1),
            },
            FaultEvent::Partition {
                cut: vec![],
                from: secs(0),
                until: secs(1),
            },
            FaultEvent::Partition {
                cut: (0..n).map(NodeId).collect(),
                from: secs(0),
                until: secs(1),
            },
            FaultEvent::LinkLoss {
                prob: 1.5,
                from: secs(0),
                until: secs(1),
            },
            FaultEvent::LatencySpike {
                factor: 0.5,
                from: secs(0),
                until: secs(1),
            },
            FaultEvent::LinkLoss {
                prob: 0.5,
                from: secs(5),
                until: secs(5),
            },
            FaultEvent::Restart {
                node: NodeId(1),
                at: secs(1),
            },
        ];
        for ev in cases {
            let plan = FaultPlan::new(vec![ev.clone()]);
            assert!(plan.validate(n).is_err(), "accepted {ev:?}");
        }
        let overlapping = FaultPlan::new(vec![
            FaultEvent::LinkLoss {
                prob: 0.1,
                from: secs(0),
                until: secs(10),
            },
            FaultEvent::LinkLoss {
                prob: 0.2,
                from: secs(5),
                until: secs(15),
            },
        ]);
        assert_eq!(
            overlapping.validate(n),
            Err(FaultPlanError::OverlappingWindows {
                first_until: secs(10),
                second_from: secs(5),
            })
        );
        let double_crash = FaultPlan::new(vec![
            FaultEvent::Crash {
                node: NodeId(0),
                at: secs(1),
            },
            FaultEvent::Crash {
                node: NodeId(0),
                at: secs(2),
            },
        ]);
        assert!(matches!(
            double_crash.validate(n),
            Err(FaultPlanError::ChurnOutOfOrder { .. })
        ));
    }

    #[test]
    fn validate_accepts_a_full_mixed_plan() {
        let plan = FaultPlan::new(vec![
            FaultEvent::Crash {
                node: NodeId(3),
                at: secs(30),
            },
            FaultEvent::Restart {
                node: NodeId(3),
                at: secs(90),
            },
            FaultEvent::Crash {
                node: NodeId(3),
                at: secs(200),
            },
            FaultEvent::Partition {
                cut: vec![NodeId(0), NodeId(1)],
                from: secs(60),
                until: secs(360),
            },
            FaultEvent::LinkLoss {
                prob: 0.05,
                from: secs(0),
                until: secs(600),
            },
            FaultEvent::LatencySpike {
                factor: 3.0,
                from: secs(100),
                until: secs(160),
            },
        ]);
        assert!(plan.validate(8).is_ok());
    }

    #[test]
    fn random_churn_is_deterministic_and_valid() {
        let cfg = ChurnConfig {
            crashes_per_min: 2.0,
            mean_downtime_secs: 120.0,
            max_concurrent_down: 3,
            horizon: SimTime::from_secs(1800),
        };
        let gen_plan = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            FaultPlan::random_churn(10, cfg, &mut rng)
        };
        let a = gen_plan(42);
        let b = gen_plan(42);
        assert_eq!(a, b, "same seed must give the same plan");
        assert!(!a.is_empty(), "2 crashes/min over 30 min should fire");
        assert!(a.validate(10).is_ok());
        let c = gen_plan(43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn random_churn_respects_concurrency_cap() {
        let cfg = ChurnConfig {
            crashes_per_min: 60.0, // aggressive: one per second on average
            mean_downtime_secs: 600.0,
            max_concurrent_down: 2,
            horizon: SimTime::from_secs(600),
        };
        let mut rng = StdRng::seed_from_u64(7);
        let plan = FaultPlan::random_churn(6, cfg, &mut rng);
        // Replay the schedule counting concurrent downtime.
        let mut inj = FaultInjector::new(&plan);
        let mut down = 0usize;
        let mut max_down = 0usize;
        while let Some(t) = inj.next_due() {
            for a in inj.drain_due(t) {
                match a {
                    FaultAction::Crash(_) => down += 1,
                    FaultAction::Restart(_) => down -= 1,
                    _ => unreachable!("churn plans only crash and restart"),
                }
            }
            max_down = max_down.max(down);
        }
        assert!(max_down <= 2, "cap violated: {max_down} down at once");
    }

    #[test]
    fn byzantine_events_linearize_and_apply_as_noops() {
        let plan = FaultPlan::new(vec![
            FaultEvent::Byzantine {
                node: NodeId(2),
                action: ByzantineAction::Equivocate,
                at: secs(30),
            },
            FaultEvent::Byzantine {
                node: NodeId(1),
                action: ByzantineAction::GarbagePayload { bytes: 512 },
                at: secs(10),
            },
        ]);
        assert!(plan.validate(4).is_ok());
        assert!(plan.has_byzantine());
        assert_eq!(plan.byzantine_nodes(), vec![NodeId(1), NodeId(2)]);
        let mut inj = FaultInjector::new(&plan);
        assert_eq!(inj.next_due(), Some(secs(10)));
        let actions = inj.drain_due(secs(60));
        assert_eq!(
            actions,
            vec![
                FaultAction::Byzantine(NodeId(1), ByzantineAction::GarbagePayload { bytes: 512 }),
                FaultAction::Byzantine(NodeId(2), ByzantineAction::Equivocate),
            ]
        );
        // Substrate untouched by Byzantine actions.
        let mut topo = line(4);
        let mut tr = Transport::new(TransportConfig::default());
        for a in &actions {
            a.apply(&mut topo, &mut tr);
        }
        assert!(topo.is_connected());
        assert_eq!(tr.loss_prob(), 0.0);
    }

    #[test]
    fn validate_rejects_zero_parameter_byzantine_actions() {
        for action in [
            ByzantineAction::Withhold { blocks: 0 },
            ByzantineAction::GarbagePayload { bytes: 0 },
        ] {
            let plan = FaultPlan::new(vec![FaultEvent::Byzantine {
                node: NodeId(0),
                action,
                at: secs(1),
            }]);
            assert_eq!(
                plan.validate(4),
                Err(FaultPlanError::BadByzantineParam { node: NodeId(0) })
            );
        }
        let out_of_range = FaultPlan::new(vec![FaultEvent::Byzantine {
            node: NodeId(7),
            action: ByzantineAction::ForgeBlock,
            at: secs(1),
        }]);
        assert!(matches!(
            out_of_range.validate(4),
            Err(FaultPlanError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn roles_make_a_plan_nonempty_and_validate_fraction() {
        let plan = FaultPlan::none().with_roles(RoleAssignment {
            seed: 9,
            malicious_fraction: 0.25,
        });
        assert!(!plan.is_empty());
        assert!(plan.validate(8).is_ok());
        let bad = FaultPlan::none().with_roles(RoleAssignment {
            seed: 9,
            malicious_fraction: 1.5,
        });
        assert!(matches!(
            bad.validate(8),
            Err(FaultPlanError::BadProbability { .. })
        ));
    }

    #[test]
    fn random_byzantine_is_deterministic_and_valid() {
        let cfg = ByzantineSweepConfig {
            adversary_fraction: 0.2,
            actions_per_adversary: 3,
            horizon: SimTime::from_secs(1800),
        };
        let gen_plan = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            FaultPlan::random_byzantine(10, cfg, &mut rng)
        };
        let a = gen_plan(5);
        assert_eq!(a, gen_plan(5), "same seed must give the same plan");
        assert_ne!(a, gen_plan(6), "different seeds should differ");
        assert!(a.validate(10).is_ok());
        assert!(a.has_byzantine());
        assert!(a.byzantine_nodes().len() <= 2, "20% of 10 nodes");
        let withholds = a
            .events
            .iter()
            .filter(|ev| {
                matches!(
                    ev,
                    FaultEvent::Byzantine {
                        action: ByzantineAction::Withhold { .. },
                        ..
                    }
                )
            })
            .count();
        assert!(withholds <= 1, "at most one private fork per plan");
    }
}
