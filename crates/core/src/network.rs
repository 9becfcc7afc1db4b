//! The end-to-end edge blockchain network simulation (paper §VI).
//!
//! [`EdgeNetwork`] wires every subsystem together over the discrete-event
//! simulator: nodes generate data and broadcast metadata; the PoS round
//! picks the next miner; the miner packs metadata, runs the allocation
//! engine for data items, the block itself, and the recent-block cache,
//! then broadcasts the block; storing nodes proactively fetch data from
//! producers; requester nodes fetch data items via the metadata they find
//! in blocks; nodes that miss blocks (mobility partitions) recover them
//! from neighbors' recent-block caches. Every byte rides the transport
//! layer and lands in the overhead metrics.
//!
//! ## Fidelity notes (vs. the paper's Docker prototype)
//!
//! * On honest runs the PoS winner is computed from the global round
//!   state (every node would reach the same verdict by Eq. 7–9), so
//!   competing forks never arise; what the paper's prototype experienced
//!   as "branches" appears here as nodes with *missing blocks*, handled
//!   by the §IV-D recovery protocol. When the fault plan schedules
//!   Byzantine actions, that shortcut is replaced by per-node tip
//!   tracking through the adversary engine (`byzantine.rs`): nodes can
//!   receive conflicting tips (equivocation, withheld private forks),
//!   every foreign block is verified in full before adoption, and
//!   divergent views reconcile via live checkpointed fork choice with
//!   reorg-driven storage/allocation reconciliation.
//! * Candidates with stale chain views still participate in mining; the
//!   paper's prototype behaves the same way (a stale miner's block simply
//!   loses the longest-chain race).

use crate::access::{self, Access, Lent, Want};
use crate::account::{AccountId, Identity, Ledger};
use crate::admission::{Admission, Op, RetryPolicy};
use crate::alloc::{AllocationContext, Placement, RegionParams};
use crate::block::Block;
use crate::byzantine::{self, empty_block_on, Attack, ByzantineEngine};
use crate::catalogue::Catalogue;
use crate::chain::{Blockchain, CheckpointPolicy};
use crate::invariant::{ForkView, InvariantChecker, InvariantView};
use crate::metadata::{DataId, DataType, Location, MetadataItem};
use crate::pos::{run_round_cached, Candidate, HitTable};
pub use crate::report::RunReport;
use crate::slo::SloMonitor;
use crate::spans::SpanTracker;
use crate::storage::NodeStorage;
use edgechain_energy::{Battery, DeviceProfile};
use edgechain_sim::{
    ByzantineAction, EventQueue, FaultInjector, FaultPlan, FaultPlanError, NodeId, SimTime,
    Topology, TopologyConfig, TopologyError, Transport, TransportConfig,
};
use edgechain_telemetry::{self as telemetry, gini_counts, trace_event};
use edgechain_workload::{
    ArrivalProcess, OpenArrivals, OverloadConfig, WorkloadConfig, ZipfSampler,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Fraction of nodes acting as data requesters (paper: 10 %).
const REQUESTER_FRACTION: f64 = 0.10;
/// Raft timer poll period (when `raft_consensus`).
const RAFT_TICK: SimTime = SimTime::from_millis(100);
/// Retention window, in simulated seconds, for tombstone tracking state:
/// swept data ids (`expired_ids`) older than this are forgotten and
/// invalidated-storer records are dropped with their item, keeping
/// tracking memory O(retention window) instead of O(run history).
/// Resurrection detection still covers the window — a block citing an id
/// swept longer ago than this is treated as fresh.
const TRACKING_RETENTION_SECS: u64 = 7_200;

/// Full configuration of a simulation run. Defaults reproduce the paper's
/// §VI setup.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkConfig {
    /// Number of edge nodes (paper sweeps 10–50).
    pub nodes: usize,
    /// Network-wide data generation rate, items per minute (paper: 1–3).
    pub data_items_per_min: f64,
    /// Simulated duration in minutes (paper: 500).
    pub sim_minutes: u64,
    /// Expected PoS block interval `t0` in seconds (paper: 60).
    pub block_interval_secs: u64,
    /// Per-node storage capacity in slots (paper: 250).
    pub storage_slots: u64,
    /// Size of each data item in bytes (paper: 1 MB).
    pub data_item_bytes: u64,
    /// How often each requester asks for a random known item (seconds).
    pub request_interval_secs: u64,
    /// Mobility re-randomization period (seconds).
    pub mobility_interval_secs: u64,
    /// Validity period stamped on generated data items (minutes).
    pub data_valid_minutes: u64,
    /// How often expired data items are swept from stores (seconds);
    /// 0 disables sweeping (the paper's §VII notes expiration is needed
    /// for long-running deployments).
    pub expiration_sweep_secs: u64,
    /// Halve all token balances every this many blocks (paper §V-B's
    /// rescaling that keeps `B` numerically tame); `None` disables, and
    /// `Some(0)` is rejected by [`NetworkConfig::validate`].
    pub token_rescale_blocks: Option<u64>,
    /// Fraction of nodes that accept storage assignments but silently
    /// deny serving data and blocks (paper §III-B.2's malicious model).
    pub malicious_fraction: f64,
    /// Run a raft instance on every node for "general information
    /// consensus" (paper §VI), replicating mobility events; its traffic —
    /// heartbeats above all — is charged to the overhead metrics like any
    /// other bytes. Off by default so Figs. 4–5 isolate the blockchain
    /// protocols, matching the paper's accounting.
    pub raft_consensus: bool,
    /// Placement strategy (Fig. 5 compares Optimal vs Random).
    pub placement: Placement,
    /// Geometric network parameters.
    pub topology: TopologyConfig,
    /// Transport parameters.
    pub transport: TransportConfig,
    /// Verify metadata signatures at every receiving node (slower;
    /// enabled in integration tests, off for parameter sweeps).
    pub verify_signatures: bool,
    /// FDC weight `A` in the allocation objective (paper: 1000).
    pub fdc_scale: f64,
    /// Whether miners run the §IV-C recent-block allocation (growing
    /// chosen nodes' caches). Disabling it is an ablation: every node then
    /// keeps only the single newest block.
    pub recent_block_allocation: bool,
    /// Deterministic fault schedule injected during the run: node churn,
    /// partitions, lossy links, latency spikes. Empty by default, which
    /// leaves every fault-free code path bit-identical to a build without
    /// fault support.
    pub fault_plan: FaultPlan,
    /// Extra attempts granted to a data fetch or block recovery that found
    /// no reachable source, with exponential backoff between attempts.
    pub fetch_retries: u32,
    /// Base backoff before the first retry, milliseconds; each subsequent
    /// attempt doubles it.
    pub retry_backoff_ms: u64,
    /// Let miners re-run the UFL allocation for items that lost replicas
    /// to crashes, copying data from a surviving source to the new storers
    /// (charged as real transport traffic). Only consulted when
    /// `fault_plan` schedules something.
    pub replica_repair: bool,
    /// Checkpoint interval in blocks for the live fork-choice rules that
    /// activate under Byzantine fault plans: honest nodes never reorg a
    /// block at or below their latest checkpoint
    /// ([`crate::chain::CheckpointPolicy`]).
    pub checkpoint_interval: u64,
    /// Collapse blocks strictly below the latest checkpoint minus
    /// [`NetworkConfig::prune_retention_blocks`] into a signed,
    /// Merkle-committed [`crate::chain::ChainAnchor`], reclaiming the
    /// block slots they occupied on every node (visible to the UFL
    /// occupancy costs). Off by default: honest runs stay bit-identical
    /// to earlier releases, and the retained chain grows O(height).
    pub prune_blocks: bool,
    /// How many blocks below the latest checkpoint stay retained when
    /// pruning (the §IV-D block-by-block recovery window). Nodes that
    /// fall behind by more than this must bootstrap from a snapshot.
    pub prune_retention_blocks: u64,
    /// Serve deep-rejoining nodes (whose next needed block is already
    /// pruned) a signed [`crate::chain::Snapshot`] — anchor, retained
    /// blocks, live metadata registry with storer maps — instead of the
    /// impossible block-by-block walk. Receivers verify the snapshot
    /// against the anchor commitment and server signature; a tampered
    /// one is rejected, the server blacklisted, and the next-nearest
    /// provider tried. Only consulted when `prune_blocks` is on.
    pub snapshot_bootstrap: bool,
    /// Route allocations through the region-decomposed UFL engine (ISSUE 9
    /// scale path): the field is partitioned into radio-connected regions
    /// and each allocation solves only the data origin's region, stitched
    /// against its neighbors' open facilities. Work per allocation becomes
    /// independent of total network size — the knob that makes n = 10,000
    /// runs tractable. This is an *approximation* of the global solve
    /// (replicas concentrate near the origin), so it defaults off and
    /// carries no bit-equivalence contract.
    pub region_alloc: bool,
    /// Coarse partition cell side in meters for `region_alloc` (default
    /// 140 m — twice the paper's 70 m radio range).
    pub region_cell_m: f64,
    /// BFS hop horizon for regional connect costs; peers beyond it take
    /// the unreachable penalty.
    pub region_horizon: u32,
    /// Open-workload section (ISSUE 10): seeded arrival processes for
    /// item generation and (optionally) demand-skewed fetches. Disabled
    /// by default, which keeps the original closed-loop generator and
    /// leaves every existing seed bit-identical — the workload RNG is a
    /// dedicated stream (`seed ^ WORKLOAD_STREAM`), never the master.
    pub workload: WorkloadConfig,
    /// Overload-protection section: admission token buckets at item
    /// generation and fetch entry, a bounded pending queue with shed
    /// accounting, per-node in-flight fetch caps, a global retry budget,
    /// and the degradation ladder. Every limit defaults to `None`/inert.
    pub overload: OverloadConfig,
    /// Ceiling on the exponential retry backoff, milliseconds. Without it
    /// `retry_backoff_ms << attempt` reaches ~9 h by attempt 16; the
    /// default (10 min) is far above what any shipped configuration can
    /// produce, so existing runs schedule identically.
    pub retry_backoff_max_ms: u64,
    /// Master RNG seed; identical configs+seeds give identical runs.
    pub seed: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            nodes: 20,
            data_items_per_min: 1.0,
            sim_minutes: 500,
            block_interval_secs: 60,
            storage_slots: 250,
            data_item_bytes: 1_000_000,
            request_interval_secs: 300,
            mobility_interval_secs: 60,
            data_valid_minutes: 1440,
            expiration_sweep_secs: 300,
            token_rescale_blocks: None,
            malicious_fraction: 0.0,
            raft_consensus: false,
            placement: Placement::Optimal,
            topology: TopologyConfig::default(),
            transport: TransportConfig::default(),
            verify_signatures: false,
            fdc_scale: edgechain_facility::FDC_SCALE,
            recent_block_allocation: true,
            fault_plan: FaultPlan::none(),
            fetch_retries: 3,
            retry_backoff_ms: 500,
            replica_repair: true,
            checkpoint_interval: 10,
            prune_blocks: false,
            prune_retention_blocks: 16,
            snapshot_bootstrap: false,
            region_alloc: false,
            region_cell_m: 140.0,
            region_horizon: 8,
            workload: WorkloadConfig::default(),
            overload: OverloadConfig::default(),
            retry_backoff_max_ms: 600_000,
            seed: 0xED6E,
        }
    }
}

impl NetworkConfig {
    /// Checks the values [`EdgeNetwork::new`] would otherwise trip over:
    /// at least one node and one storage slot, a positive block and
    /// mobility interval, a finite nonnegative generation rate, FDC weight
    /// and mobility range, finite nonnegative open-workload and overload
    /// rates, a finite positive bandwidth, field and region cell,
    /// fractions in `[0, 1]`, snapshots only on a pruned chain, and a
    /// fault plan that fits the node count.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let rate = |v: f64| v.is_finite() && v >= 0.0;
        let positive = |v: f64| v.is_finite() && v > 0.0;
        let (fraction, bandwidth) = (self.malicious_fraction, self.transport.bandwidth);
        let topo = &self.topology;
        let counts = [
            ("nodes", self.nodes as u64),
            ("storage_slots", self.storage_slots),
            ("block_interval_secs", self.block_interval_secs),
            ("mobility_interval_secs", self.mobility_interval_secs),
            ("request_interval_secs", self.request_interval_secs),
            ("checkpoint_interval", self.checkpoint_interval),
        ]
        .map(|(field, v)| (field, v as f64, v >= 1, "at least 1"));
        let checks = [
            (
                "transport.bandwidth",
                bandwidth,
                positive(bandwidth),
                "finite and above 0",
            ),
            (
                "data_items_per_min",
                self.data_items_per_min,
                rate(self.data_items_per_min),
                "finite and at least 0",
            ),
            (
                "fdc_scale",
                self.fdc_scale,
                rate(self.fdc_scale),
                "finite and at least 0",
            ),
            (
                "region_cell_m",
                self.region_cell_m,
                positive(self.region_cell_m),
                "finite and above 0",
            ),
            (
                "malicious_fraction",
                fraction,
                (0.0..=1.0).contains(&fraction),
                "in [0, 1]",
            ),
            (
                "topology.mobility_range",
                topo.mobility_range,
                rate(topo.mobility_range),
                "finite and at least 0",
            ),
            (
                "topology.field.width",
                topo.field.width,
                positive(topo.field.width),
                "finite and above 0",
            ),
            (
                "topology.field.height",
                topo.field.height,
                positive(topo.field.height),
                "finite and above 0",
            ),
        ];
        let load = self
            .load_rates()
            .map(|(field, v)| (field, v, rate(v), "finite and at least 0"));
        for (field, value, ok, want) in counts.into_iter().chain(checks).chain(load) {
            if !ok {
                return Err(ConfigError::OutOfRange { field, value, want });
            }
        }
        // `None` is the one spelling of "off".
        if self.token_rescale_blocks == Some(0) {
            return Err(ConfigError::OutOfRange {
                field: "token_rescale_blocks",
                value: 0.0,
                want: "at least 1",
            });
        }
        if self.snapshot_bootstrap && !self.prune_blocks {
            return Err(ConfigError::SnapshotWithoutPruning);
        }
        // Covers `fault_plan.roles.malicious_fraction` too.
        self.fault_plan
            .validate(self.nodes)
            .map_err(ConfigError::FaultPlan)
    }

    /// The open-workload and overload values that must be finite and at
    /// least 0, checked whether or not their section is switched on. An
    /// infinite arrival rate would schedule an arrival every simulated
    /// millisecond; a NaN one clamps to 0 and silences its stream.
    fn load_rates(&self) -> impl Iterator<Item = (&'static str, f64)> {
        let base = |a: &OpenArrivals| match a.process {
            ArrivalProcess::Poisson { rate_per_min: r }
            | ArrivalProcess::Diurnal {
                base_per_min: r, ..
            } => r,
        };
        let burst = |a: &OpenArrivals| a.burst.as_ref().map(|b| b.multiplier);
        let (w, o) = (&self.workload, &self.overload);
        let fetches = w.fetches.as_ref();
        [
            ("workload.arrivals rate", Some(base(&w.arrivals))),
            ("workload.arrivals burst", burst(&w.arrivals)),
            ("workload.fetches rate", fetches.map(base)),
            ("workload.fetches burst", fetches.and_then(burst)),
            ("workload.zipf_exponent", Some(w.zipf_exponent)),
            (
                "overload.admission_items_per_min",
                o.admission_items_per_min,
            ),
            (
                "overload.admission_fetches_per_min",
                o.admission_fetches_per_min,
            ),
            ("overload.retry_budget_per_min", o.retry_budget_per_min),
        ]
        .into_iter()
        .filter_map(|(field, value)| Some((field, value?)))
    }
}

/// Why a [`NetworkConfig`] cannot be run.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A count, rate, weight or fraction outside its domain.
    OutOfRange {
        /// The offending [`NetworkConfig`] field.
        field: &'static str,
        /// Its value.
        value: f64,
        /// The domain it must lie in.
        want: &'static str,
    },
    /// `snapshot_bootstrap` without `prune_blocks`: there is no anchor to
    /// snapshot until a prefix has been pruned.
    SnapshotWithoutPruning,
    /// The fault plan does not fit the configured node count.
    FaultPlan(FaultPlanError),
    /// No connected placement exists for the requested node count.
    Topology(TopologyError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::OutOfRange { field, value, want } => {
                write!(f, "{field} must be {want}, got {value}")
            }
            ConfigError::SnapshotWithoutPruning => {
                write!(f, "snapshot_bootstrap requires prune_blocks")
            }
            ConfigError::FaultPlan(e) => write!(f, "invalid fault plan: {e}"),
            ConfigError::Topology(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[derive(Debug)]
pub(crate) enum Event {
    GenerateData,
    MineBlock,
    IssueRequest {
        requester: NodeId,
    },
    MobilityStep,
    ExpireSweep,
    RaftTick,
    RaftDeliver {
        from: edgechain_raft::PeerId,
        envelope: edgechain_raft::Envelope<GeneralEvent>,
    },
    /// Apply every fault action due now and re-arm for the next one.
    FaultTick,
    /// Backoff expired: `node` asks again for what it wants
    /// ([`Access::on_retry`]).
    Retry {
        node: NodeId,
        attempt: u32,
        want: Want,
    },
    /// One open-workload fetch arrival is due (requester and target item
    /// drawn from the dedicated workload RNG stream).
    WorkloadFetch,
}

/// How a fetch picks among the items its requester can see.
#[derive(Debug, Clone, Copy)]
enum Popularity {
    /// The requester loop: every visible item equally likely (master
    /// stream).
    Uniform,
    /// The open workload: Zipf over recency, rank 0 = newest (workload
    /// stream); low-priority reads.
    ZipfByRecency,
}

/// A "general information" record replicated through raft when
/// [`NetworkConfig::raft_consensus`] is on — the paper's example payloads
/// are membership and mobility updates.
#[derive(Debug, Clone, PartialEq)]
pub enum GeneralEvent {
    /// A node re-randomized its position inside its mobility disc.
    MobilityUpdate {
        /// The node that moved.
        node: NodeId,
        /// New x coordinate (meters).
        x: f64,
        /// New y coordinate (meters).
        y: f64,
    },
}

impl GeneralEvent {
    fn wire_size(&self) -> u64 {
        24 // node id + two f64 coordinates
    }
}

/// The running simulation.
pub struct EdgeNetwork {
    config: NetworkConfig,
    topo: Topology,
    transport: Transport,
    queue: EventQueue<Event>,
    rng: StdRng,

    identities: Vec<Identity>,
    account_of: Vec<AccountId>,
    node_of_account: HashMap<AccountId, NodeId>,
    storage: Vec<NodeStorage>,
    /// The paper's §VI handset, which every node is.
    device: DeviceProfile,
    batteries: Vec<Battery>,

    chain: Blockchain,
    ledger: Ledger,
    /// Highest contiguous block index each node holds a view of.
    node_height: Vec<u64>,
    /// The blocks each node holds past its contiguous `node_height`
    /// ([`access::learn`]).
    node_known: Vec<BTreeSet<u64>>,

    pending_metadata: Vec<MetadataItem>,
    /// Every packed, not yet swept item with its packing block.
    catalogue: Catalogue,
    next_data_id: u64,
    requesters: Vec<NodeId>,
    /// Each requester's next `IssueRequest` instant, by node id (other
    /// entries unused): a topology epoch fills the rows of those due
    /// within it in one batch ([`Self::fill_requester_rows`]).
    request_due: Vec<SimTime>,
    /// Fetch, block recovery, snapshot bootstrap and repair, with the
    /// state only they use.
    access: Access,
    raft_nodes: Vec<edgechain_raft::RaftNode<GeneralEvent>>,
    /// Envelopes the raft node being stepped just emitted; emptied by
    /// [`Self::raft_dispatch`] and reused, so the message path allocates
    /// no `Vec` per handled message.
    raft_outbox: Vec<edgechain_raft::Envelope<GeneralEvent>>,

    injector: FaultInjector,
    /// Byzantine adversary state: per-node chain views, armed actions,
    /// quarantine. `Some` only when the fault plan schedules Byzantine
    /// actions, so honest runs stay bit-identical to earlier releases.
    byz: Option<ByzantineEngine>,
    checker: InvariantChecker,
    /// Cached UFL instance/solution shared by all allocation call sites.
    alloc_ctx: AllocationContext,
    /// Per-height PoS hit cache shared by every round at one height.
    pos_hits: HitTable,

    // metrics
    /// The report under construction: every counter that ends up in the
    /// [`RunReport`] one-to-one is bumped here where it happens;
    /// [`Self::into_report`] fills in the derived fields.
    report: RunReport,
    /// The run's inclusion and fetch latency samples and its rolling-window
    /// SLO health monitor; pure observation, always on.
    slo: SloMonitor,
    /// Open-span bookkeeping for the causal trace layer; inert unless
    /// spans were armed ([`edgechain_telemetry::enable_spans`]) at run
    /// start.
    spans: SpanTracker,
    replica_total: u64,
    replica_items: u64,

    // chain lifecycle
    /// Ids that have been swept. A swept id reappearing in a later block
    /// is a finalized-then-resurrected violation. Entries older than
    /// [`TRACKING_RETENTION_SECS`] are garbage-collected
    /// via `expired_log`, bounding the set by the retention window.
    expired_ids: std::collections::HashSet<DataId>,
    /// Sweep-time FIFO over `expired_ids` (`(sweep_secs, id)`), popped by
    /// the retention GC.
    expired_log: std::collections::VecDeque<(u64, DataId)>,
    /// Resurrections observed since the last invariant observation.
    resurrected_pending: u64,

    // open workload & overload protection (ISSUE 10)
    /// Dedicated RNG stream for arrival sampling and popularity draws;
    /// disabled workloads never touch it, so the master stream is
    /// unaffected either way.
    workload_rng: StdRng,
    /// Popularity sampler for open-workload fetches.
    zipf: ZipfSampler,
    /// Admission buckets, degradation ladder, fetch backlog and retry
    /// budget, with the overload section of the report.
    admission: Admission,
}

/// The next arrival of an open-workload process after `now`, at least a
/// millisecond out; `None` once the process has gone silent.
fn next_arrival(arrivals: &OpenArrivals, now: SimTime, rng: &mut StdRng) -> Option<SimTime> {
    let t = arrivals.next_arrival_secs(now.as_millis() as f64 / 1000.0, rng);
    t.is_finite().then(|| {
        SimTime::from_millis((t * 1000.0).ceil() as u64).max(now + SimTime::from_millis(1))
    })
}

/// What the PoS re-run at mine time decided, handed by value to the
/// stages of one mining round.
#[derive(Debug, Clone, Copy)]
struct Round {
    now: SimTime,
    miner: NodeId,
    /// The winner's new `POSHash`.
    pos_hash: edgechain_crypto::Digest,
    /// Seconds after the previous block at which the winner's hit held.
    delay_secs: u64,
    amendment: crate::pos::Amendment,
}

/// A block the miner sealed onto the canonical chain and broadcast.
struct SealedBlock {
    index: u64,
    /// The metadata it packed, storers assigned.
    items: Vec<MetadataItem>,
    /// The equivocating miner's conflicting second block.
    variant: Option<Block>,
    /// Who the broadcast reached, and when.
    arrivals: Vec<(NodeId, SimTime)>,
    block_storers: Vec<NodeId>,
    recent_growers: Vec<NodeId>,
}

/// Draws the requester and malicious roles from the master stream (and,
/// for a seeded [`FaultPlan::roles`] assignment, a dedicated one).
fn draw_roles(config: &NetworkConfig, rng: &mut StdRng) -> (Vec<NodeId>, Vec<bool>) {
    let n_requesters = ((config.nodes as f64 * REQUESTER_FRACTION).ceil() as usize).max(1);
    let mut ids: Vec<NodeId> = (0..config.nodes).map(NodeId).collect();
    // Deterministic shuffle for requester roles.
    for i in (1..ids.len()).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    let requesters: Vec<NodeId> = ids.iter().copied().take(n_requesters).collect();
    // Malicious role placement. With a seeded `FaultPlan::roles`
    // assignment, a dedicated RNG stream draws the roles from the
    // non-requester pool — the master stream is untouched, so varying
    // the role seed moves *only* who misbehaves. Without one, the
    // legacy deterministic tail draw applies (bit-identical to prior
    // releases): malicious nodes come from the non-requester tail so
    // every request exercises the denial path from the outside.
    let mut malicious = vec![false; config.nodes];
    match config.fault_plan.roles {
        Some(roles) => {
            let n = (config.nodes as f64 * roles.malicious_fraction).round() as usize;
            let mut role_rng = StdRng::seed_from_u64(roles.seed);
            let mut pool: Vec<NodeId> = ids.iter().copied().skip(n_requesters).collect();
            for _ in 0..n.min(pool.len()) {
                let j = role_rng.gen_range(0..pool.len());
                malicious[pool.swap_remove(j).0] = true;
            }
        }
        None => {
            let n_malicious = (config.nodes as f64 * config.malicious_fraction).round() as usize;
            for v in ids.iter().rev().take(n_malicious) {
                malicious[v.0] = true;
            }
        }
    }
    (requesters, malicious)
}

impl EdgeNetwork {
    /// Builds the network: places nodes, keys them, elects requester roles,
    /// and schedules the initial events.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the configuration fails
    /// [`NetworkConfig::validate`] (no nodes, a zero block interval, a
    /// rate or fraction outside its domain, a fault plan that does not fit
    /// the node count, …) or no connected placement exists for the
    /// requested node count.
    pub fn new(config: NetworkConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let topo = Topology::random_connected(config.nodes, config.topology.clone(), &mut rng)
            .map_err(ConfigError::Topology)?;
        let identities: Vec<Identity> = (0..config.nodes)
            .map(|i| Identity::from_seed(config.seed.wrapping_add(i as u64)))
            .collect();
        let account_of: Vec<AccountId> = identities.iter().map(|id| id.account()).collect();
        let node_of_account: HashMap<AccountId, NodeId> = account_of
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, NodeId(i)))
            .collect();
        let (requesters, malicious) = draw_roles(&config, &mut rng);

        // Loss draws come from a dedicated stream derived from the master
        // seed, so lossy runs are a pure function of (config, seed) and
        // fault-free runs never consult it.
        let mut transport = Transport::new(config.transport);
        transport.seed_faults(config.seed ^ 0x70A5_F417);
        // The Byzantine engine exists only when the plan schedules
        // adversarial consensus actions; its RNG is a dedicated stream so
        // forged material never perturbs the honest draws.
        let byz = config.fault_plan.has_byzantine().then(|| {
            ByzantineEngine::new(
                config.nodes,
                &config.fault_plan.byzantine_nodes(),
                config.seed ^ 0xB12A_77E1,
                CheckpointPolicy {
                    interval: config.checkpoint_interval,
                },
            )
        });
        let alloc_ctx = AllocationContext::new(config.fdc_scale);
        let alloc_ctx = if config.region_alloc {
            alloc_ctx.with_regions(RegionParams {
                cell_m: config.region_cell_m,
                horizon: config.region_horizon,
            })
        } else {
            alloc_ctx
        };
        let retry = RetryPolicy {
            retries: config.fetch_retries,
            backoff_ms: config.retry_backoff_ms,
            backoff_max_ms: config.retry_backoff_max_ms,
        };
        let device = DeviceProfile::galaxy_s8();

        let mut network = EdgeNetwork {
            topo,
            transport,
            queue: EventQueue::new(),
            identities,
            account_of,
            node_of_account,
            storage: vec![NodeStorage::new(config.storage_slots); config.nodes],
            batteries: vec![Battery::full(&device); config.nodes],
            device,
            chain: Blockchain::new(),
            ledger: Ledger::new(),
            node_height: vec![0; config.nodes],
            node_known: vec![BTreeSet::new(); config.nodes],
            pending_metadata: Vec::new(),
            catalogue: Catalogue::default(),
            next_data_id: 0,
            requesters,
            request_due: vec![SimTime::ZERO; config.nodes],
            access: Access::new(malicious),
            raft_nodes: Vec::new(),
            raft_outbox: Vec::new(),
            injector: FaultInjector::new(&config.fault_plan),
            byz,
            checker: InvariantChecker::new(SimTime::ZERO),
            alloc_ctx,
            pos_hits: HitTable::new(),
            report: RunReport::default(),
            slo: SloMonitor::new(),
            spans: SpanTracker::default(),
            replica_total: 0,
            replica_items: 0,
            expired_ids: std::collections::HashSet::new(),
            expired_log: std::collections::VecDeque::new(),
            resurrected_pending: 0,
            // The dedicated workload stream keeps the master stream
            // untouched whether or not the workload engine is on.
            workload_rng: StdRng::seed_from_u64(config.seed ^ edgechain_workload::WORKLOAD_STREAM),
            zipf: ZipfSampler::new(config.workload.zipf_exponent),
            admission: Admission::new(config.overload.clone(), retry, config.nodes),
            rng,
            config,
        };
        network.bootstrap_events();
        Ok(network)
    }

    fn bootstrap_events(&mut self) {
        // Everyone stores the genesis block in their recent cache.
        for s in &mut self.storage {
            s.cache_recent(0);
        }
        self.schedule_next_generation();
        if self.config.workload.enabled && self.config.workload.fetches.is_some() {
            self.schedule_workload_fetch();
        }
        self.schedule_next_block();
        for r in self.requesters.clone() {
            let jitter = SimTime::from_secs(
                self.rng
                    .gen_range(1..=self.config.request_interval_secs.max(2)),
            );
            self.request_due[r.0] = jitter;
            self.queue
                .schedule(jitter, Event::IssueRequest { requester: r });
        }
        self.queue.schedule(
            SimTime::from_secs(self.config.mobility_interval_secs),
            Event::MobilityStep,
        );
        if self.config.expiration_sweep_secs > 0 {
            self.queue.schedule(
                SimTime::from_secs(self.config.expiration_sweep_secs),
                Event::ExpireSweep,
            );
        }
        if let Some(t) = self.injector.next_due() {
            self.queue.schedule(t, Event::FaultTick);
        }
        if self.config.raft_consensus {
            let peers: Vec<edgechain_raft::PeerId> =
                (0..self.config.nodes).map(edgechain_raft::PeerId).collect();
            self.raft_nodes = peers
                .iter()
                .map(|&p| {
                    edgechain_raft::RaftNode::new(
                        p,
                        peers.clone(),
                        edgechain_raft::RaftConfig {
                            // Raft's timing requirement (broadcast time <<
                            // election timeout) must hold on the *radio*: a
                            // single 1 MB data transfer occupies a link for
                            // ~410 ms per hop, so the library's 300-600 ms
                            // LAN-profile timeouts would fire on every bulk
                            // transfer and the cluster would live in election
                            // storms. Stretch the timeouts well past worst-case
                            // queueing delay and keep heartbeats proportional.
                            election_timeout_min: SimTime::from_millis(2_000),
                            election_timeout_max: SimTime::from_millis(4_000),
                            heartbeat_interval: SimTime::from_millis(500),
                            // Mobility keeps flapping links; without pre-vote a
                            // node that drifts out of range and back deposes a
                            // healthy leader on every return.
                            pre_vote: true,
                            ..edgechain_raft::RaftConfig::default()
                        },
                        self.config.seed ^ (p.0 as u64).rotate_left(17),
                    )
                })
                .collect();
            self.queue.schedule(RAFT_TICK, Event::RaftTick);
        }
    }

    /// Arms the next `GenerateData` event one inter-arrival gap from now.
    fn schedule_next_generation(&mut self) {
        let next = self.sample_generation_gap();
        self.queue.schedule(next, Event::GenerateData);
    }

    fn sample_generation_gap(&mut self) -> SimTime {
        if self.config.workload.enabled {
            // Open workload: the arrival process dictates absolute arrival
            // times on its own seeded stream (Lewis–Shedler thinning for
            // the time-varying shapes). A silent process parks the next
            // event past the horizon so the queue still drains cleanly.
            let arrivals = &self.config.workload.arrivals;
            return next_arrival(arrivals, self.queue.now(), &mut self.workload_rng)
                .unwrap_or(SimTime::from_secs(self.config.sim_minutes * 60 + 3600));
        }
        // Closed loop: exponential inter-arrivals with mean 60/rate seconds.
        let rate_per_sec = self.config.data_items_per_min / 60.0;
        let u: f64 = self.rng.gen_range(1e-9..1.0);
        let gap = -u.ln() / rate_per_sec;
        self.queue.now() + SimTime::from_secs_f64(gap.clamp(0.5, 3600.0))
    }

    /// Nodes currently able to take part in a PoS round: everyone the
    /// fault injector hasn't taken down. A crashed node's tokens and
    /// stored items still exist, but its miner process isn't running.
    /// Under a Byzantine engine, quarantined nodes (and a withholding
    /// miner sitting out its own failed round) are excluded as well.
    fn live_miners(&self, now: SimTime) -> Vec<usize> {
        (0..self.config.nodes)
            .filter(|&i| self.topo.is_active(NodeId(i)))
            .filter(|&i| {
                self.byz
                    .as_ref()
                    .is_none_or(|e| !e.is_excluded(NodeId(i), now, self.chain.height()))
            })
            .collect()
    }

    fn pos_candidates(&self, miners: &[usize]) -> Vec<Candidate> {
        miners
            .iter()
            .map(|&i| Candidate {
                account: self.account_of[i],
                tokens: self.ledger.balance(&self.account_of[i]),
                stored_items: self.storage[i].q_value(),
            })
            .collect()
    }

    /// Runs one PoS round from the live state and schedules the mining
    /// event at the winner's earliest time.
    fn schedule_next_block(&mut self) {
        self.spans.block_scheduled(self.queue.now());
        let miners = self.live_miners(self.queue.now());
        if miners.is_empty() {
            // Everyone is down. Poll again after a block interval; a
            // restart in the meantime revives mining.
            self.queue.schedule(
                self.queue.now() + SimTime::from_secs(self.config.block_interval_secs),
                Event::MineBlock,
            );
            return;
        }
        let candidates = self.pos_candidates(&miners);
        let outcome = self.pos_round(&candidates);
        // Every live node runs the per-second check loop until the round
        // ends: charge PoS checking energy (Fig. 6's PoS cost model).
        for &i in &miners {
            let joules = self.device.pos_check_energy * outcome.delay_secs as f64;
            self.batteries[i].consume(joules);
        }
        let prev_ts = SimTime::from_secs(self.chain.tip().timestamp_secs);
        let fire_at = (prev_ts + SimTime::from_secs(outcome.delay_secs)).max(self.queue.now());
        self.queue.schedule(fire_at, Event::MineBlock);
    }

    /// Executes the whole run and returns the report.
    pub fn run(self) -> RunReport {
        self.run_with_chain().0
    }

    /// Executes the run and also hands back the final canonical chain,
    /// letting callers audit it (validation, ledger derivation, …).
    pub fn run_with_chain(mut self) -> (RunReport, Blockchain) {
        self.drive();
        let chain = self.chain.clone();
        (self.into_report(), chain)
    }

    /// Executes the run and also reports the end-of-run topology memory
    /// estimate (adjacency plus route-state bytes) — the scale bench's
    /// allocated-bytes column. Deliberately *not* a [`RunReport`] field:
    /// eager and lazy route fill legitimately differ here while every
    /// simulation outcome stays byte-identical.
    pub fn run_with_memory(mut self) -> (RunReport, usize) {
        self.drive();
        let bytes = self.topo.memory_bytes();
        (self.into_report(), bytes)
    }

    /// The event loop shared by every `run*` entry point.
    fn drive(&mut self) {
        let horizon = SimTime::from_secs(self.config.sim_minutes * 60);
        self.spans.arm();
        self.fill_requester_rows(SimTime::from_secs(self.config.mobility_interval_secs));
        // Invariants are only metered when faults are in play: each
        // observation walks every live data item and every node, which a
        // long fault-free sweep shouldn't pay for.
        let fault_run = !self.config.fault_plan.is_empty();
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            let (now, event) = self.queue.pop().expect("peeked event exists");
            // Metering cadence: only the events that can move durable
            // state (block packing, expiry sweeps, fault actions) pay for
            // a full invariant walk — the only instants state can change
            // in a way the rules see.
            let meter = fault_run
                && matches!(
                    &event,
                    Event::MineBlock | Event::ExpireSweep | Event::FaultTick
                );
            match event {
                Event::GenerateData => self.on_generate_data(now),
                Event::MineBlock => self.on_mine_block(now),
                Event::IssueRequest { requester } => self.on_issue_request(requester, now),
                Event::MobilityStep => self.on_mobility(now),
                Event::ExpireSweep => self.on_expire_sweep(now),
                Event::RaftTick => self.on_raft_tick(now),
                Event::RaftDeliver { from, envelope } => self.on_raft_deliver(from, envelope, now),
                Event::FaultTick => self.on_fault_tick(now),
                Event::Retry {
                    node,
                    attempt,
                    want,
                } => {
                    let (access, mut cx) = self.lend();
                    access.on_retry(&mut cx, node, attempt, want, now);
                }
                Event::WorkloadFetch => self.on_workload_fetch(now),
            }
            if meter {
                self.observe_invariants(now);
            }
        }
        if fault_run {
            // Close the under-replication meter at the horizon.
            self.observe_invariants(horizon);
        }
        // Fetches still waiting on a scheduled retry when the horizon hits
        // never resolved: each is an explicit exhausted failure.
        for (requester, id) in self.admission.drain_stranded() {
            telemetry::counter_add("request.exhausted", 1);
            trace_event!(
                "request.exhausted",
                horizon.as_millis(),
                requester = requester.0 as u64,
                id = id
            );
            let (_, mut cx) = self.lend();
            cx.book_failure(horizon, requester, DataId(id), "exhausted");
        }
        self.spans.close_all(horizon);
    }

    /// Feeds the current network state to the [`InvariantChecker`].
    fn observe_invariants(&mut self, now: SimTime) {
        let node_max_known: Vec<u64> = self
            .node_known
            .iter()
            .zip(&self.node_height)
            .map(|(known, &height)| known.last().copied().unwrap_or(height))
            .collect();
        let resurrected = std::mem::take(&mut self.resurrected_pending);
        // The registry's valid items are walked in place, not cloned.
        let node_of_account = &self.node_of_account;
        let items = crate::invariant::valid_entries(self.catalogue.iter(), now.as_secs(), |m| {
            node_of_account.get(&m.producer).copied()
        });
        self.checker.observe_with(
            now,
            &InvariantView {
                topo: &self.topo,
                storage: &self.storage,
                malicious: &self.access.malicious,
                items: &[],
                resurrected_items: resurrected,
                chain_height: self.chain.height(),
                node_height: &self.node_height,
                node_max_known: &node_max_known,
                // Fork-consistency rules apply only when per-node chains
                // exist; nodes with a Byzantine role are exempt (their
                // chains are adversarial by construction).
                forks: self.byz.as_ref().map(|e| ForkView {
                    canonical: &self.chain,
                    node_chains: &e.chains,
                    honest: &e.honest,
                    checkpoint_interval: e.policy.interval,
                }),
            },
            items,
        );
    }

    /// Applies every fault action due now and re-arms the tick for the
    /// next scheduled action.
    fn on_fault_tick(&mut self, now: SimTime) {
        for action in self.injector.drain_due(now) {
            if let edgechain_sim::FaultAction::Byzantine(node, act) = action {
                self.on_byzantine_action(node, act, now);
                continue;
            }
            action.apply(&mut self.topo, &mut self.transport);
            if let edgechain_sim::FaultAction::Restart(v) = action {
                // A node returning from a crash proactively asks neighbors
                // for the blocks it slept through (§IV-D), after a short
                // backoff so the radio settles.
                self.queue.schedule(
                    now + SimTime::from_millis(self.config.retry_backoff_ms.max(1)),
                    Event::Retry {
                        node: v,
                        attempt: 0,
                        want: Want::Blocks,
                    },
                );
            }
        }
        if let Some(t) = self.injector.next_due() {
            self.queue.schedule(t.max(now), Event::FaultTick);
        }
    }

    /// The access machine and the network state its walks step through,
    /// lent by disjoint field borrows — the one way into access and,
    /// through [`Lent::adversary`], into the adversary engine.
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
            alloc: &mut self.alloc_ctx,
            rng: &mut self.rng,
            report: &mut self.report,
            slo: &mut self.slo,
            spans: &mut self.spans,
            byz: self.byz.as_mut(),
        };
        (&mut self.access, cx)
    }

    /// Routes one scheduled Byzantine action: mining-triggered attacks
    /// (equivocation, tampering, withholding) are armed for the node's
    /// next election win; wire-level attacks (forged blocks, garbage
    /// payloads) execute immediately, from a node that is up.
    fn on_byzantine_action(&mut self, node: NodeId, action: ByzantineAction, now: SimTime) {
        let up = self.topo.is_active(node);
        let (_, mut cx) = self.lend();
        let Some((engine, court)) = cx.adversary() else {
            return;
        };
        let (material, reason) = match action {
            ByzantineAction::ForgeBlock if up => {
                (Ok(engine.forge_block(&court, now, node)), "forged-block")
            }
            ByzantineAction::GarbagePayload { bytes } if up => (
                Err(engine.garbage_payload(&court, bytes)),
                "garbage-payload",
            ),
            ByzantineAction::ForgeBlock | ByzantineAction::GarbagePayload { .. } => return,
            armed => return engine.arm(node, armed),
        };
        self.broadcast_bad(node, material, now, (action.kind(), reason));
    }

    /// Broadcasts an adversary's `material` — `Ok` a block, sent encoded,
    /// `Err` bytes that are no block at all — and lets the engine judge it
    /// at whoever heard, under `charge` (trace kind, quarantine reason). A
    /// broadcast that reached nobody injected nothing into the network.
    fn broadcast_bad(
        &mut self,
        sender: NodeId,
        material: Result<Block, edgechain_sim::Payload>,
        now: SimTime,
        charge: (&'static str, &'static str),
    ) {
        let payload = match &material {
            Ok(block) => edgechain_sim::Payload::new(block.encoded()),
            Err(garbage) => garbage.clone(),
        };
        let deliveries = self
            .transport
            .broadcast_payload(&self.topo, sender, &payload, now);
        let receivers: Vec<NodeId> = deliveries.iter().map(|&(v, _)| v).collect();
        if receivers.is_empty() {
            return;
        }
        let (_, mut cx) = self.lend();
        let Some((engine, mut court)) = cx.adversary() else {
            return;
        };
        match material {
            Ok(block) => engine.judge_bad_block(&mut court, now, &block, &receivers, charge),
            Err(_) => engine.judge_garbage(&mut court, now, sender, &payload, charge),
        }
    }

    /// Releases the private fork once the canonical chain is one block
    /// short of it: the fork hits the wire, trunk fork choice decides
    /// under checkpoint rules, and on adoption the displaced metadata
    /// re-enters the packing pool (fresh UFL allocation next block), the
    /// ledger follows the adopted chain, and receivers reorg their views.
    fn release_withheld(&mut self, now: SimTime) {
        let withheld = self.byz.as_ref().and_then(|e| {
            let w = e.withheld.as_ref()?;
            let due = w.base_height + w.blocks.len() as u64 - 1;
            let bytes: u64 = w.blocks.iter().map(Block::wire_size).sum();
            Some((w.miner, due, bytes, e.policy))
        });
        let Some((miner, due, bytes, policy)) = withheld else {
            return;
        };
        if self.chain.height() < due {
            return;
        }
        if !self.topo.is_active(miner) {
            return; // the release waits until the miner is back up
        }
        let deliveries = self.transport.broadcast(&self.topo, miner, bytes, now);
        let receivers: Vec<NodeId> = deliveries.iter().map(|(v, _)| *v).collect();
        if receivers.is_empty() {
            return; // nobody heard the release; try again next block
        }
        let (_, mut cx) = self.lend();
        let released = cx
            .adversary()
            .and_then(|(engine, mut court)| engine.released(&mut court, now));
        let Some(w) = released else {
            return;
        };

        let old_height = self.chain.height();
        let displaced_blocks = self.chain.retained_after(w.base_height);
        let displaced_miners: Vec<AccountId> = displaced_blocks.iter().map(|b| b.miner).collect();
        let displaced_items: Vec<MetadataItem> = displaced_blocks
            .iter()
            .flat_map(|b| b.metadata.iter().cloned())
            .collect();
        // The candidate is the fork itself, index-aligned at
        // `base_height + 1`: it attaches at the public base block, which
        // is always retained (`maybe_prune` never cuts past a live fork),
        // and the shared prefix below needs no re-validation.
        let adopted = self.chain.try_adopt(&w.blocks, policy);
        if adopted {
            let depth = old_height - w.base_height;
            byzantine::count_reorg(&mut self.report, depth);
            trace_event!(
                "chain.trunk_reorg",
                now.as_millis(),
                miner = w.miner.0,
                depth = depth,
                height = self.chain.height()
            );
            // Reorged-away metadata re-enters the packing pool with its
            // storer assignments cleared: the next honest miner re-runs
            // the UFL allocation from scratch (the PR 1 repair sweep then
            // re-replicates data onto the fresh storers).
            for mut item in displaced_items {
                self.catalogue.remove(item.data_id);
                // Expired (or already-swept) content stays dead: re-packing
                // it would resurrect a finalized eviction.
                if !item.is_valid_at(now.as_secs()) || self.expired_ids.contains(&item.data_id) {
                    continue;
                }
                item.storing_nodes.clear();
                self.pending_metadata.push(item);
            }
            // Mining credit follows the adopted chain; slashes already
            // applied stay applied (the ledger is adjusted, not rebuilt).
            for m in displaced_miners {
                self.ledger.debit(m, 1);
            }
            self.ledger
                .credit(self.account_of[w.miner.0], w.blocks.len() as u64);
            // Cached per-height PoS hits keyed on the replaced branch are
            // stale now.
            self.pos_hits.invalidate();
            // The fork's author keeps its own blocks durably, same as an
            // honest miner would.
            for b in &w.blocks {
                self.storage[w.miner.0].store_block(b.index);
            }
            for &v in &receivers {
                for idx in (w.base_height + 1)..=self.chain.height() {
                    access::learn(&mut self.node_height, &mut self.node_known, v, idx);
                }
                self.storage[v.0].cache_recent(self.chain.height());
            }
        } else {
            // Checkpoint rules refused the fork: every honest node keeps
            // the canonical branch and the attack fizzles.
            trace_event!(
                "byz.fork_rejected",
                now.as_millis(),
                miner = w.miner.0,
                base = w.base_height
            );
        }
        let (_, mut cx) = self.lend();
        let Some((engine, mut court)) = cx.adversary() else {
            return;
        };
        // Receivers of an adopted fork reconcile their views (each sync
        // reads only its own node's height, so they may all run after the
        // bookkeeping above), then the withholder is convicted.
        if adopted {
            for &v in &receivers {
                engine.sync(&mut court, now, v);
            }
        }
        engine.convict(&mut court, now, None, Some((w.miner, "withheld-fork")));
    }

    fn on_generate_data(&mut self, now: SimTime) {
        self.generate_item(now);
        // The gap is drawn last, whether or not an item came of this tick.
        self.schedule_next_generation();
    }

    /// One offered data item, from admission to the metadata announcement.
    fn generate_item(&mut self, now: SimTime) {
        // Only running nodes sense and publish data. With everyone up the
        // draw below is bit-identical to indexing `0..nodes` directly.
        let live = self.topo.active_len();
        if live == 0 {
            return;
        }
        let producer = self.topo.nth_active(self.rng.gen_range(0..live));
        // Admission control sits between "the world offered an item" and
        // "the network accepted it". All gates are inert by default, so a
        // default config admits everything and the counters are the only
        // observable difference.
        let op = Op::Item {
            pending: self.pending_metadata.len(),
        };
        if !self.admission.admit(op, now) {
            return;
        }
        let id = DataId(self.next_data_id);
        self.next_data_id += 1;
        let pos = self.topo.position(producer);
        let kinds = ["PM2.5", "Traffic", "Noise", "Temperature"];
        let kind = kinds[self.rng.gen_range(0..kinds.len())];
        let mut item = MetadataItem::new_signed(
            self.identities[producer.0].keys(),
            id,
            DataType::Sensing(kind.into()),
            now.as_secs(),
            Location {
                label: format!("field/{producer}"),
                x: pos.x,
                y: pos.y,
            },
            self.config.data_valid_minutes,
            None,
            self.config.data_item_bytes,
        );
        // Producer always keeps its own data (it is the origin copy).
        // Broadcast the metadata item so miners can pack it.
        trace_event!(
            "data.generated",
            now.as_millis(),
            item = id.0,
            node = producer.0,
            bytes = self.config.data_item_bytes
        );
        self.spans.item_opened(now, id, producer);
        // Open-workload runs allocate storers *per item at admission*
        // (streaming UFL over the cached context) instead of batching the
        // solve at block-pack time; an unsatisfiable solve rejects the item
        // here, before any bytes move.
        if self.config.workload.enabled {
            match self.select_storers_now(self.config.placement, producer) {
                Ok(storers) => {
                    trace_event!(
                        "ufl.stream_alloc",
                        now.as_millis(),
                        item = id.0,
                        replicas = storers.len() as u64
                    );
                    item.storing_nodes = storers;
                }
                Err(_) => {
                    self.admission.report.alloc_rejected += 1;
                    trace_event!("alloc.rejected", now.as_millis(), item = id.0);
                    self.spans.item_rejected(now, id);
                    return;
                }
            }
        }
        let announce_bytes = item.wire_size();
        self.transport
            .broadcast(&self.topo, producer, announce_bytes, now);
        self.pending_metadata.push(item);
        let peak = &mut self.admission.report.peak_pending_items;
        *peak = (*peak).max(self.pending_metadata.len() as u64);
    }

    /// The one allocation entry point for item packing, block storers and
    /// recent-block growth ([`AllocationContext::select`]; repair calls it
    /// through [`Lent`]). `origin` is the node the data enters the network
    /// at — the item's producer, or the miner for block and recent-cache
    /// replicas — and is only consulted by the regional path.
    fn select_storers_now(
        &mut self,
        placement: Placement,
        origin: NodeId,
    ) -> Result<Vec<NodeId>, edgechain_facility::SolveError> {
        self.alloc_ctx
            .select(placement, origin, &self.topo, &self.storage, &mut self.rng)
    }

    /// The single PoS entry point for both rounds of a block (schedule +
    /// mine), over the per-height [`HitTable`]: each candidate's hit is
    /// computed once per height and reused by the second round.
    fn pos_round(&mut self, candidates: &[Candidate]) -> crate::pos::MiningOutcome {
        let prev = self.chain.tip().pos_hash;
        run_round_cached(
            &prev,
            candidates,
            self.config.block_interval_secs,
            &mut self.pos_hits,
        )
    }

    fn on_mine_block(&mut self, now: SimTime) {
        if let Some((engine, mut court)) = self.lend().1.adversary() {
            engine.readmit(&mut court, now);
        }
        let Some(round) = self.elect_miner(now) else {
            self.spans.block_abandoned(now, "no_miners");
            self.schedule_next_block();
            return;
        };
        // A freshly elected adversary may have an armed consensus attack.
        let has_pending = !self.pending_metadata.is_empty();
        let attack = match self.lend().1.adversary() {
            Some((engine, mut court)) => {
                engine.armed_attack(&mut court, now, round.miner, has_pending)
            }
            None => Attack::Honest,
        };
        // Withholding and tampering replace the round: no canonical block
        // comes of it and the block lifecycle ends with that outcome.
        let replaced = match attack {
            Attack::Honest | Attack::Equivocate => None,
            Attack::Withheld => Some("withheld"),
            Attack::Tamper => {
                self.mine_tampered_block(round);
                Some("tampered")
            }
        };
        if let Some(outcome) = replaced {
            self.spans.block_abandoned(now, outcome);
            self.schedule_next_block();
            return;
        }
        let equivocate = matches!(attack, Attack::Equivocate);
        // The mempool depth picks the degradation-ladder rung for this
        // block interval. Consensus itself (this function) is never
        // throttled.
        self.admission
            .update_ladder(self.pending_metadata.len(), now);

        let packed = self.pack_and_allocate(round);
        let sealed = self.seal_and_broadcast(round, equivocate, packed);
        let block_index = sealed.index;
        let received = self.deliver_block(round, &sealed);
        self.grant_block_storage(&sealed, &received);
        self.spans
            .block_mined(now, block_index, sealed.items.len(), &sealed.arrivals);
        self.disseminate(now, block_index, sealed.items);
        self.finish_round(now);
    }

    /// Re-runs the PoS round to identify the winner (deterministic). Nodes
    /// the fault injector took down since the round was scheduled drop out
    /// of the candidate set; if the scheduled winner crashed, the re-run
    /// simply elects the best surviving node. `None` when nobody is up.
    fn elect_miner(&mut self, now: SimTime) -> Option<Round> {
        let miners = self.live_miners(now);
        if miners.is_empty() {
            return None;
        }
        let candidates = self.pos_candidates(&miners);
        let outcome = self.pos_round(&candidates);
        let us: Vec<u64> = candidates.iter().map(|c| c.contribution()).collect();
        let amendment = crate::pos::Amendment::compute(&us, self.config.block_interval_secs);
        let miner = NodeId(miners[outcome.winner]);
        trace_event!(
            "pos.round",
            now.as_millis(),
            winner = miner.0,
            delay_secs = outcome.delay_secs,
            candidates = candidates.len()
        );
        self.spans.block_won(now, miner);
        Some(Round {
            now,
            miner,
            pos_hash: outcome.new_pos_hash,
            delay_secs: outcome.delay_secs,
            amendment,
        })
    }

    /// The miner packs the pending metadata and allocates storers per item.
    fn pack_and_allocate(&mut self, round: Round) -> Vec<MetadataItem> {
        let Round { now, miner, .. } = round;
        let mut packed = std::mem::take(&mut self.pending_metadata);
        for item in &mut packed {
            // Inclusion latency (generation → this block) feeds the SLO
            // monitor and the report percentiles unconditionally.
            let incl_secs = now.as_secs().saturating_sub(item.produced_at_secs) as f64;
            self.slo.record_inclusion(now.as_millis(), incl_secs);
            self.spans.item_packed(now, item.data_id);
            // Items admitted through the streaming path carry their storers
            // already (allocated per item at generation); only batch-path
            // items solve here.
            if !item.storing_nodes.is_empty() {
                continue;
            }
            let origin = self
                .node_of_account
                .get(&item.producer)
                .copied()
                .unwrap_or(miner);
            match self.select_storers_now(self.config.placement, origin) {
                Ok(storers) => {
                    trace_event!(
                        "ufl.alloc",
                        now.as_millis(),
                        item = item.data_id.0,
                        storers = storers.len()
                    );
                    self.spans
                        .item_allocated(now, item.data_id, Some(storers.len()));
                    item.storing_nodes = storers;
                }
                Err(_) => {
                    self.report.data_unstored += 1;
                    self.spans.item_allocated(now, item.data_id, None);
                    item.storing_nodes = Vec::new();
                }
            }
        }
        packed
    }

    /// The miner allocates storers for the block itself and for the
    /// recent-block growth, seals `packed` into a block on the canonical
    /// chain and broadcasts it.
    fn seal_and_broadcast(
        &mut self,
        round: Round,
        equivocate: bool,
        packed: Vec<MetadataItem>,
    ) -> SealedBlock {
        let Round { now, miner, .. } = round;
        // Allocation for the block itself and for the recent-block growth.
        // The placement strategy under study (Fig. 5) varies only *data*
        // placement; block storage always uses the paper's allocation so
        // the chain itself stays retrievable.
        let block_storers = self
            .select_storers_now(Placement::Optimal, miner)
            .unwrap_or_default();
        let recent_growers = if self.config.recent_block_allocation {
            self.select_storers_now(Placement::Optimal, miner)
                .unwrap_or_default()
        } else {
            Vec::new()
        };

        // An equivocating miner seals a *second*, conflicting block on the
        // same earned PoS hit: same height, same miner, different content
        // and timestamp, hence a different hash — the classic two-headers
        // proof once both land at one honest node.
        let variant: Option<Block> = equivocate.then(|| {
            empty_block_on(
                self.chain.tip(),
                now.as_secs() + 1,
                round.pos_hash,
                self.account_of[miner.0],
                round.delay_secs.max(1),
                round.amendment,
            )
        });
        let block = telemetry::time_wall("block.assemble_ns", || {
            Block::new(
                self.chain.height() + 1,
                self.chain.tip().hash,
                now.as_secs(),
                round.pos_hash,
                self.account_of[miner.0],
                round.delay_secs.max(1),
                round.amendment,
                packed,
                block_storers.clone(),
                self.chain.tip().storing_nodes.clone(),
                recent_growers.clone(),
            )
        });
        let index = block.index;
        // The encode below is the block's one and only serialization,
        // shared from here on by broadcast, recovery and wire-size queries.
        let payload = edgechain_sim::Payload::new(block.encoded());
        let block_size = payload.len() as u64;
        let items = block.metadata.clone();
        telemetry::time_wall("block.verify_ns", || self.chain.push_sealed(block))
            .expect("self-mined block extends the tip");
        // Not `RunReport::blocks_mined`, which is the final chain height:
        // a released withheld fork can replace blocks sealed here.
        telemetry::counter_add("block.mined", 1);
        if telemetry::is_enabled() {
            telemetry::record("block.items", items.len() as f64);
            telemetry::record("block.bytes", block_size as f64);
        }
        trace_event!(
            "block.mined",
            now.as_millis(),
            block = index,
            miner = miner.0,
            items = items.len(),
            bytes = block_size,
            delay_secs = round.delay_secs
        );
        // Under an adversarial plan the miner keeps its own sealed block
        // durably (not just in the FIFO cache): a mobility partition can
        // otherwise orphan a block that *nobody* stores, leaving lagging
        // nodes unable to ever verify — or disprove — later wire blocks.
        if self.byz.is_some() {
            self.storage[miner.0].store_block(index);
        }
        self.ledger.credit(self.account_of[miner.0], 1);
        if let Some(every) = self.config.token_rescale_blocks {
            if index.is_multiple_of(every) {
                self.ledger.rescale_halve();
            }
        }

        // Broadcast the block; deliveries reveal who is currently connected.
        // One Arc of the sealed encoding is shared across all deliveries.
        let arrivals = self
            .transport
            .broadcast_payload(&self.topo, miner, &payload, now);

        // Verify-on-receive (optional, costs CPU not network).
        if self.config.verify_signatures {
            for item in &items {
                assert!(item.verify(), "self-packed metadata must verify");
            }
        }
        SealedBlock {
            index,
            items,
            variant,
            arrivals,
            block_storers,
            recent_growers,
        }
    }

    /// Receivers (the miner first) update their views, detect and recover
    /// missing blocks, and — under a Byzantine engine — route the block
    /// through their own fork choice. Returns who received it.
    fn deliver_block(&mut self, round: Round, sealed: &SealedBlock) -> Vec<NodeId> {
        let Round { now, miner, .. } = round;
        let block_index = sealed.index;
        let mut received: Vec<NodeId> = vec![miner];
        received.extend(sealed.arrivals.iter().map(|(v, _)| *v));
        for &v in &received {
            let was_height = self.node_height[v.0];
            access::learn(&mut self.node_height, &mut self.node_known, v, block_index);
            if block_index > was_height + 1 {
                let (access, mut cx) = self.lend();
                access.recover(&mut cx, v, block_index, now, 0);
            }
            // Everyone caches the newest block in its recent-cache FIFO.
            self.storage[v.0].cache_recent(block_index);
        }

        // Per-node fork choice: route the block (and the equivocating
        // variant, when armed) through each receiver's chain view. The
        // conflicting variant counts as injected only once it actually
        // reaches an honest node (a broadcast swallowed by a transient
        // partition put nothing into the network).
        let variant = sealed.variant.as_ref().filter(|_| received.len() > 1);
        if let Some((engine, mut court)) = self.lend().1.adversary() {
            engine.deliver_sealed(&mut court, now, &received, variant);
        }
        received
    }

    /// The allocations the block carries take effect at the nodes that
    /// actually heard it.
    fn grant_block_storage(&mut self, sealed: &SealedBlock, received: &[NodeId]) {
        // Recent-block allocation: chosen nodes grow their cache quota.
        for &v in &sealed.recent_growers {
            if received.contains(&v) {
                self.storage[v.0].grow_recent_quota();
            }
        }
        // Block storage allocation: chosen nodes keep the block for good.
        for &v in &sealed.block_storers {
            if received.contains(&v) {
                self.storage[v.0].store_block(sealed.index);
            }
        }
    }

    /// Data dissemination: each storing node proactively fetches the data
    /// item from its producer, and the item enters the catalogue.
    fn disseminate(&mut self, now: SimTime, block_index: u64, items: Vec<MetadataItem>) {
        for item in items {
            let Some(&producer) = self.node_of_account.get(&item.producer) else {
                continue;
            };
            // One producer row carries every storer route (DESIGN §14).
            if self.topo.is_active(producer) && item.storing_nodes.iter().any(|&s| s != producer) {
                self.topo.fill_hop_rows([producer]);
            }
            let mut stored = 0u64;
            let mut last_replica: Option<SimTime> = None;
            for &storer in &item.storing_nodes {
                // A crashed storer can't accept the copy (and a crashed
                // producer can't send one); the repair sweep re-replicates
                // later if the item stays under target.
                if !self.topo.is_active(storer) || !self.topo.is_active(producer) {
                    continue;
                }
                if storer != producer && !self.storage[storer.0].accepts_data(item.data_id) {
                    continue;
                }
                if self.admission.defer_replication(stored) {
                    continue;
                }
                // An unreachable storer simply stays unstored for now.
                if let Ok(d) =
                    self.transport
                        .unicast(&self.topo, producer, storer, item.data_size, now)
                {
                    if self.storage[storer.0].store_data(item.data_id) || storer == producer {
                        stored += 1;
                        last_replica = last_replica.max(Some(d.arrival));
                    }
                }
            }
            if !item.storing_nodes.is_empty() {
                self.replica_total += stored;
                self.replica_items += 1;
            }
            self.spans
                .item_replicated(now, item.data_id, block_index, stored, last_replica);
            if self.expired_ids.contains(&item.data_id) {
                // A swept id must never re-enter the live registry.
                self.resurrected_pending += 1;
            }
            self.catalogue.insert(item, block_index);
        }
    }

    /// What rides the block cadence once the block is out: the withheld
    /// fork's release, the repair sweep, the per-block gauges and peaks,
    /// pruning, the SLO check, and the next round.
    fn finish_round(&mut self, now: SimTime) {
        // A withheld private fork is released once the public chain is
        // about to out-grow it; trunk fork choice then decides.
        self.release_withheld(now);

        // The miner also audits replica health and repairs what churn
        // broke since the last block — unless the ladder's top rung has
        // parked repair.
        if !self.admission.defer_repair() {
            self.lend().1.repair_replicas(now);
        }

        // Growth of either with sim time is what makes later events dearer.
        telemetry::gauge_set("catalogue.live_items", self.catalogue.len() as f64);
        telemetry::gauge_set("queue.depth", self.queue.len() as f64);
        let used_now: u64 = self.storage.iter().map(NodeStorage::used_slots).sum();
        self.report.peak_storage_slots = self.report.peak_storage_slots.max(used_now);
        // A withheld private fork still references its public base block;
        // pruning must never cut past it.
        let (orphans, fork_base) = self.byz.as_ref().map_or((0, None), |e| {
            let base = e.withheld.as_ref().map(|w| w.base_height);
            (e.orphan_entries(), base)
        });
        let tracking_now =
            (self.expired_ids.len() + self.access.tracking_entries() + orphans) as u64;
        self.report.peak_tracking_entries = self.report.peak_tracking_entries.max(tracking_now);
        self.maybe_prune(now, fork_base);

        // SLO health check rides the block cadence, like quarantine
        // re-admission: trim the rolling windows and surface any breaches.
        self.evaluate_slo(now);
        self.schedule_next_block();
    }

    /// Evaluates the SLO rolling windows and surfaces newly raised breach
    /// alerts as counters and trace events. Pure observation: consumes no
    /// randomness and feeds nothing back into the protocol.
    fn evaluate_slo(&mut self, now: SimTime) {
        let (depth, quarantines) = (self.report.max_reorg_depth, self.report.quarantine_events);
        for a in self.slo.evaluate(now.as_millis(), depth, quarantines) {
            trace_event!(
                "slo.breach",
                a.t_ms,
                slo = a.slo,
                observed = a.observed,
                threshold = a.threshold
            );
        }
    }

    /// Checkpoint-anchored pruning: once the chain has grown a retention
    /// window past the latest checkpoint, the prefix strictly below
    /// `checkpoint - retention` collapses into a signed
    /// [`crate::chain::ChainAnchor`] carrying the Merkle commitment over
    /// the pruned history — never past `fork_base`, the base block a
    /// withheld private fork still references, or its release could not
    /// re-attach. Online nodes first adopt the anchor's block and their
    /// views sync ([`ByzantineEngine::sync_before_cut`]); storage and the
    /// views then follow the prune.
    fn maybe_prune(&mut self, now: SimTime, fork_base: Option<u64>) {
        if !self.config.prune_blocks {
            return;
        }
        let interval = self.config.checkpoint_interval;
        let checkpoint = (self.chain.height() / interval) * interval;
        let cut = checkpoint
            .saturating_sub(self.config.prune_retention_blocks)
            .min(fork_base.unwrap_or(u64::MAX));
        if cut <= self.chain.base_index() {
            return;
        }
        // The blocks below the cut are consensus-final and no longer served
        // block-by-block: online nodes resume from the boundary, crashed
        // ones snapshot-bootstrap on return.
        for v in (0..self.config.nodes).map(NodeId) {
            if self.topo.is_active(v) {
                self.node_height[v.0] = self.node_height[v.0].max(cut - 1);
                access::learn(&mut self.node_height, &mut self.node_known, v, cut - 1);
            }
        }
        let (_, mut cx) = self.lend();
        let topo = cx.topo;
        if let Some((engine, mut court)) = cx.adversary() {
            engine.sync_before_cut(&mut court, now, cut, |v| topo.is_active(v));
        }
        // The anchor is signed by the miner of the boundary block (the
        // last pruned one); fall back to node 0 for a genesis-only prefix.
        let signer = self
            .chain
            .get(cut - 1)
            .and_then(|b| self.node_of_account.get(&b.miner))
            .map_or(0, |v| v.0);
        let keys = self.identities[signer].keys();
        let pruned = self.chain.prune_below(cut, keys);
        let mut reclaimed = 0u64;
        for s in &mut self.storage {
            reclaimed += s.prune_blocks_below(cut);
        }
        if let Some(e) = self.byz.as_mut() {
            e.prune_below(&self.chain);
        }
        self.report.blocks_pruned += pruned;
        trace_event!(
            "chain.pruned",
            now.as_millis(),
            cut = cut,
            blocks = pruned,
            reclaimed = reclaimed
        );
    }

    /// A Byzantine miner assembles the round's block honestly, then
    /// corrupts one metadata signature before sealing. Receivers verify
    /// signatures at the wire, reject the block, and quarantine the miner;
    /// the canonical chain does not advance and the (intact) pending
    /// metadata survives for the next honest miner, which re-runs the UFL
    /// allocation from scratch.
    fn mine_tampered_block(&mut self, round: Round) {
        let Round { now, miner, .. } = round;
        let backup = self.pending_metadata.clone();
        let mut packed = std::mem::take(&mut self.pending_metadata);
        let victim = &mut packed[0]; // gated on pending metadata existing
        let mut sig = victim.signature.to_bytes();
        sig[0] ^= 0x01;
        victim.signature = edgechain_crypto::Signature::from_bytes(&sig);
        let block = Block::new(
            self.chain.height() + 1,
            self.chain.tip().hash,
            now.as_secs(),
            round.pos_hash,
            self.account_of[miner.0],
            round.delay_secs.max(1),
            round.amendment,
            packed,
            Vec::new(),
            self.chain.tip().storing_nodes.clone(),
            Vec::new(),
        );
        let charge = ("byz_tamper", "tampered-signature");
        self.broadcast_bad(miner, Ok(block), now, charge);
        // The un-tampered originals go back in the pool.
        self.pending_metadata = backup;
    }

    fn on_issue_request(&mut self, requester: NodeId, now: SimTime) {
        // A crashed requester issues nothing; its schedule resumes when it
        // restarts.
        if self.topo.is_active(requester) {
            self.fetch_entry(requester, now, Popularity::Uniform);
        }
        let next = now + SimTime::from_secs(self.config.request_interval_secs);
        self.request_due[requester.0] = next;
        self.queue.schedule(next, Event::IssueRequest { requester });
    }

    /// Fills, in 64-source sweeps, the hop rows of the live requesters
    /// whose next request falls before `until` — the next mobility step,
    /// which drops every row — and inside the horizon. Each such fetch
    /// reads its requester's row first, so this only fills ahead what
    /// that read would fill alone; a no-op under eager fill.
    fn fill_requester_rows(&self, until: SimTime) {
        let horizon = SimTime::from_secs(self.config.sim_minutes * 60);
        let due = self.requesters.iter().copied().filter(|&r| {
            let at = self.request_due[r.0];
            at < until && at <= horizon && self.topo.is_active(r)
        });
        self.topo.fill_hop_rows(due);
    }

    /// Arms the next open-workload fetch from the configured arrival
    /// process. A silent process (burst over, rate zero) simply stops
    /// re-arming; the closed-loop requester schedule is untouched.
    fn schedule_workload_fetch(&mut self) {
        let Some(arrivals) = self.config.workload.fetches.as_ref() else {
            return;
        };
        if let Some(at) = next_arrival(arrivals, self.queue.now(), &mut self.workload_rng) {
            self.queue.schedule(at, Event::WorkloadFetch);
        }
    }

    /// One open-workload fetch: a uniformly drawn live requester asks for
    /// an item drawn Zipf-by-recency from its visible catalogue (rank 0 =
    /// newest). All draws come from the dedicated workload stream, so the
    /// closed-loop trajectory is untouched.
    fn on_workload_fetch(&mut self, now: SimTime) {
        // Re-arm first: an empty catalogue or a shed fetch must not
        // silence the arrival stream.
        self.schedule_workload_fetch();
        let live = self.topo.active_len();
        if live == 0 {
            return;
        }
        let requester = self.topo.nth_active(self.workload_rng.gen_range(0..live));
        self.fetch_entry(requester, now, Popularity::ZipfByRecency);
    }

    /// The one fetch entry: `requester` picks an item it can see, then
    /// fetches it once admitted. The pick comes before admission, so its
    /// draw is made whether or not the fetch is then shed. Open-workload
    /// reads are the low-priority ones, first to shed when the degradation
    /// ladder engages.
    fn fetch_entry(&mut self, requester: NodeId, now: SimTime, popularity: Popularity) {
        let Some(pick) = self.pick_visible(requester, now, popularity) else {
            return;
        };
        let low_priority = matches!(popularity, Popularity::ZipfByRecency);
        let op = Op::Fetch {
            requester,
            low_priority,
        };
        if self.admission.admit(op, now) {
            let (access, mut cx) = self.lend();
            access.fetch(&mut cx, requester, &pick, now, 0);
        }
    }

    /// Draws one item from what `requester` can see at `now`: every valid
    /// item whose packing block it holds, or whose block is finalized
    /// below the pruned base (that metadata rode along with the
    /// anchor/snapshot distribution). `None`, and no draw, when it sees
    /// nothing.
    fn pick_visible(
        &mut self,
        requester: NodeId,
        now: SimTime,
        popularity: Popularity,
    ) -> Option<MetadataItem> {
        // Every block up to the contiguous height is held, so only the
        // blocks past it, which the known set holds, can hide an item.
        let base = self.chain.base_index();
        let height = self.node_height[requester.0];
        let known = &self.node_known[requester.0];
        let visible = self
            .catalogue
            .visible(base.max(height + 1), known, now.as_secs());
        if telemetry::is_enabled() {
            telemetry::record("catalogue.hidden_items", visible.hidden() as f64);
        }
        if visible.len() == 0 {
            return None;
        }
        let pick = match popularity {
            Popularity::Uniform => visible.nth(self.rng.gen_range(0..visible.len())),
            Popularity::ZipfByRecency => {
                let rank = self.zipf.sample(visible.len(), &mut self.workload_rng);
                visible.nth_newest(rank.min(visible.len() - 1))
            }
        };
        pick.cloned()
    }

    /// Evicts expired data items from every store and from the catalogue,
    /// freeing slots for fresh content (§VII: "data items may become
    /// obsolete"). The catalogue hands over exactly the items that are
    /// due, in expiry order, so the sweep's cost tracks their number.
    fn on_expire_sweep(&mut self, now: SimTime) {
        let now_secs = now.as_secs();
        let mut swept_any = false;
        while let Some(id) = self.catalogue.pop_expired(now_secs) {
            for s in &mut self.storage {
                if s.evict_data(id) {
                    self.report.data_expired += 1;
                }
            }
            if self.expired_ids.insert(id) {
                self.expired_log.push_back((now_secs, id));
            }
            swept_any = true;
        }
        // Tracking-state GC (ISSUE 9): tombstones older than the retention
        // window are forgotten, and invalidated-storer records die with
        // their item — both sets stay O(window), not O(run history).
        let horizon = now_secs.saturating_sub(TRACKING_RETENTION_SECS);
        while let Some(&(t, id)) = self.expired_log.front() {
            if t >= horizon {
                break;
            }
            self.expired_log.pop_front();
            self.expired_ids.remove(&id);
        }
        if swept_any {
            self.access.forget_swept(&self.catalogue);
        }
        self.queue.schedule(
            now + SimTime::from_secs(self.config.expiration_sweep_secs),
            Event::ExpireSweep,
        );
    }

    /// Ships the raft outbox over the radio transport, charging bytes and
    /// scheduling deliveries at their computed arrival times, and leaves
    /// it empty.
    fn raft_dispatch(&mut self, from: edgechain_raft::PeerId, now: SimTime) {
        let mut outbox = std::mem::take(&mut self.raft_outbox);
        for env in outbox.drain(..) {
            let bytes = env.message.wire_size(GeneralEvent::wire_size);
            let src = NodeId(from.0);
            let dst = NodeId(env.to.0);
            // An unreachable destination never gets the message onto the
            // radio at all, as in a real partitioned network; only messages
            // actually transmitted count toward the overhead metrics.
            if let Ok(delivery) = self.transport.unicast(&self.topo, src, dst, bytes, now) {
                self.report.raft_messages += 1;
                if env.message.is_heartbeat() {
                    self.report.raft_heartbeats += 1;
                }
                self.report.raft_bytes += bytes;
                self.queue.schedule(
                    delivery.arrival.max(now),
                    Event::RaftDeliver {
                        from,
                        envelope: env,
                    },
                );
            }
        }
        self.raft_outbox = outbox;
    }

    /// Ticks the raft nodes that are due, in id order. A node's tick before
    /// its `next_due` is a no-op, so skipping it moves nothing; the poll
    /// itself stays on its 100 ms grid, because dropping or moving the
    /// event would reorder it against same-millisecond deliveries.
    fn on_raft_tick(&mut self, now: SimTime) {
        for i in 0..self.raft_nodes.len() {
            // A crashed node's raft process isn't running: no timers fire,
            // so it neither heartbeats nor starts elections until restart.
            if now < self.raft_nodes[i].next_due() || !self.topo.is_active(NodeId(i)) {
                continue;
            }
            self.raft_nodes[i].tick_into(now, &mut self.raft_outbox);
            self.raft_dispatch(edgechain_raft::PeerId(i), now);
        }
        self.queue.schedule(now + RAFT_TICK, Event::RaftTick);
    }

    fn on_raft_deliver(
        &mut self,
        from: edgechain_raft::PeerId,
        envelope: edgechain_raft::Envelope<GeneralEvent>,
        now: SimTime,
    ) {
        let to = envelope.to;
        // The destination may have crashed while the message was on the
        // air; a down node processes nothing.
        if !self.topo.is_active(NodeId(to.0)) {
            return;
        }
        self.raft_nodes[to.0].handle_into(from, envelope.message, now, &mut self.raft_outbox);
        self.raft_dispatch(to, now);
    }

    fn on_mobility(&mut self, now: SimTime) {
        self.topo.mobility_step(&mut self.rng);
        if self.config.raft_consensus {
            // The paper's "general information consensus": replicate a
            // mobility update through raft. A random mover reports; the
            // proposal lands at the current leader if one is known.
            let mover = NodeId(self.rng.gen_range(0..self.config.nodes));
            let pos = self.topo.position(mover);
            let event = GeneralEvent::MobilityUpdate {
                node: mover,
                x: pos.x,
                y: pos.y,
            };
            if let Some(leader) = self.raft_nodes.iter().find_map(|n| n.leader_hint()) {
                // A crashed leader accepts no proposals; the update is
                // simply lost, like a client timing out against it.
                if self.topo.is_active(NodeId(leader.0)) {
                    let _ = self.raft_nodes[leader.0].propose(event);
                }
            }
        }
        let next = now + SimTime::from_secs(self.config.mobility_interval_secs);
        self.queue.schedule(next, Event::MobilityStep);
        self.fill_requester_rows(next);
    }

    /// Fills in the derived fields of the report; every one-to-one counter
    /// is already in `self.report`.
    fn into_report(mut self) -> RunReport {
        let raft_committed: u64 = self
            .raft_nodes
            .iter_mut()
            .map(|n| n.take_committed().len() as u64)
            .sum();
        // Radio energy implied by the byte counters (802.11 per-byte costs
        // from the device profile).
        let stats = self.transport.stats();
        let radio_total: f64 = (0..self.config.nodes)
            .map(|i| {
                let v = NodeId(i);
                stats.sent_bytes(v) as f64 * self.device.tx_energy_per_byte
                    + stats.received_bytes(v) as f64 * self.device.rx_energy_per_byte
            })
            .sum();
        let used: Vec<u64> = self.storage.iter().map(NodeStorage::used_slots).collect();
        // The intervals telescope from genesis (timestamp 0) to the tip.
        let height = self.chain.height();
        let mean_interval = if height == 0 {
            0.0
        } else {
            self.chain.tip().timestamp_secs as f64 / height as f64
        };
        let (inclusion_latency, fetch_latency, failed_requests, slo_alerts) = self.slo.finish();
        let availability = {
            let completed = fetch_latency.count;
            let resolved = completed + failed_requests;
            if resolved == 0 {
                1.0
            } else {
                completed as f64 / resolved as f64
            }
        };
        let mut report = RunReport {
            nodes: self.config.nodes,
            blocks_mined: self.chain.height(),
            data_generated: self.next_data_id,
            mean_node_overhead_mb: stats.mean_node_overhead() / 1e6,
            total_sent_mb: stats.total_sent() as f64 / 1e6,
            storage_gini: gini_counts(&used),
            failed_requests,
            recoveries: self.report.recovery.count(),
            mean_block_interval_secs: mean_interval,
            mean_battery_percent: self.batteries.iter().map(Battery::percent).sum::<f64>()
                / self.config.nodes as f64,
            mean_replicas: if self.replica_items == 0 {
                0.0
            } else {
                self.replica_total as f64 / self.replica_items as f64
            },
            raft_committed,
            mean_radio_energy_j: radio_total / self.config.nodes as f64,
            faults_injected: self.injector.applied(),
            messages_dropped: self.transport.messages_dropped(),
            retained_blocks: self.chain.retained_len() as u64,
            under_replicated_item_seconds: self.checker.under_replicated_item_seconds,
            availability,
            invariant_violations: self.checker.violations,
            inclusion_latency,
            fetch_latency,
            slo_alerts,
            overload: self.admission.report,
            telemetry: None,
            ..self.report
        };
        for (name, n) in report.registry_counts().into_iter().filter(|c| c.1 > 0) {
            telemetry::counter_add(name, n);
        }
        report.telemetry = telemetry::registry_snapshot();
        report
    }

    /// The canonical chain (primarily for tests and examples).
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }

    /// The current topology snapshot.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Designated requester nodes.
    pub fn requesters(&self) -> &[NodeId] {
        &self.requesters
    }
}

impl fmt::Debug for EdgeNetwork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EdgeNetwork")
            .field("nodes", &self.config.nodes)
            .field("height", &self.chain.height())
            .field("now", &self.queue.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgechain_workload::Burst;

    fn small_config() -> NetworkConfig {
        NetworkConfig {
            nodes: 12,
            data_items_per_min: 2.0,
            sim_minutes: 30,
            seed: 11,
            ..NetworkConfig::default()
        }
    }

    #[test]
    fn run_produces_blocks_at_roughly_t0() {
        let report = EdgeNetwork::new(small_config()).unwrap().run();
        assert!(report.blocks_mined >= 10, "mined {}", report.blocks_mined);
        assert!(
            (report.mean_block_interval_secs - 60.0).abs() < 40.0,
            "interval {}",
            report.mean_block_interval_secs
        );
    }

    #[test]
    fn run_is_deterministic() {
        let a = EdgeNetwork::new(small_config()).unwrap().run();
        let b = EdgeNetwork::new(small_config()).unwrap().run();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = small_config();
        let a = EdgeNetwork::new(cfg.clone()).unwrap().run();
        cfg.seed = 12;
        let b = EdgeNetwork::new(cfg).unwrap().run();
        assert_ne!(a, b);
    }

    #[test]
    fn storage_is_fair() {
        let report = EdgeNetwork::new(small_config()).unwrap().run();
        assert!(
            report.storage_gini < 0.35,
            "gini {} too high",
            report.storage_gini
        );
    }

    #[test]
    fn requests_get_served() {
        let report = EdgeNetwork::new(small_config()).unwrap().run();
        assert!(report.fetch_latency.count > 0);
        let mean = report.fetch_latency.mean.unwrap();
        assert!(mean < 10.0, "delivery {mean}");
    }

    #[test]
    fn battery_drains_with_pos_checks() {
        let report = EdgeNetwork::new(small_config()).unwrap().run();
        assert!(report.mean_battery_percent < 100.0);
        assert!(report.mean_battery_percent > 50.0);
    }

    #[test]
    fn random_placement_also_runs() {
        let cfg = NetworkConfig {
            placement: Placement::Random,
            ..small_config()
        };
        let report = EdgeNetwork::new(cfg).unwrap().run();
        assert!(report.blocks_mined > 0);
        assert!(report.fetch_latency.count > 0);
    }

    #[test]
    fn report_has_percentiles_and_radio_energy() {
        let report = EdgeNetwork::new(small_config()).unwrap().run();
        let fetch = report.fetch_latency;
        if fetch.count > 0 {
            let p95 = fetch.p95.expect("samples exist");
            assert!(p95 >= 0.0);
            assert!(p95 >= fetch.mean.unwrap() * 0.5);
            assert!(p95 <= fetch.max.unwrap() + 1e-9);
        }
        assert!(report.mean_radio_energy_j > 0.0);
        // Radio energy stays a small fraction of the battery (tens of MB
        // at µJ/byte ≈ tens of joules vs a 41.6 kJ battery).
        assert!(report.mean_radio_energy_j < 1000.0);
    }

    #[test]
    fn expired_data_is_swept() {
        let cfg = NetworkConfig {
            data_valid_minutes: 5,
            expiration_sweep_secs: 60,
            ..small_config()
        };
        let report = EdgeNetwork::new(cfg).unwrap().run();
        assert!(
            report.data_expired > 0,
            "no expirations in 30 min at 5-min validity"
        );
    }

    #[test]
    fn expiration_disabled_when_sweep_is_zero() {
        let cfg = NetworkConfig {
            data_valid_minutes: 5,
            expiration_sweep_secs: 0,
            ..small_config()
        };
        let report = EdgeNetwork::new(cfg).unwrap().run();
        assert_eq!(report.data_expired, 0);
    }

    #[test]
    fn malicious_storers_are_routed_around() {
        // A field dense enough that its two requesters (the fixed 10 %
        // share) mostly reach a holder, under enough request pressure that
        // at least one request is structurally bound to hit a malicious
        // storer first, whatever the RNG stream picks for placement.
        let cfg = NetworkConfig {
            nodes: 20,
            malicious_fraction: 0.4,
            request_interval_secs: 30,
            ..small_config()
        };
        let report = EdgeNetwork::new(cfg).unwrap().run();
        assert!(report.denials > 0, "no denials with 40% malicious storers");
        // Requests still mostly succeed thanks to replicas + the producer
        // fallback.
        let completed = report.fetch_latency.count;
        assert!(completed > 0);
        let total = completed + report.failed_requests;
        assert!(
            completed * 2 > total,
            "most requests should still succeed: {completed} of {total}"
        );
    }

    #[test]
    fn denied_storers_are_blacklisted_network_wide() {
        // With every non-requester node malicious, a denial should be
        // recorded at most once per (data, storer) pair.
        let cfg = NetworkConfig {
            malicious_fraction: 0.5,
            sim_minutes: 60,
            request_interval_secs: 60,
            ..small_config()
        };
        let report = EdgeNetwork::new(cfg).unwrap().run();
        // Denials happen but stay bounded by the number of (item, storer)
        // pairs, not by the number of requests.
        assert!(report.denials <= report.data_generated * 12);
    }

    #[test]
    fn raft_consensus_runs_and_heartbeats_dominate() {
        let cfg = NetworkConfig {
            raft_consensus: true,
            sim_minutes: 15,
            ..small_config()
        };
        let report = EdgeNetwork::new(cfg).unwrap().run();
        assert!(report.raft_messages > 0, "raft produced no traffic");
        assert!(report.raft_bytes > 0);
        // The paper's complaint: heartbeats drive the bulk of raft
        // traffic. Every heartbeat also triggers a response, so
        // heartbeat-caused messages are ~2× the heartbeat count; require
        // that pair to be at least half of everything.
        assert!(
            report.raft_heartbeats * 4 > report.raft_messages,
            "heartbeats {} of {} messages",
            report.raft_heartbeats,
            report.raft_messages
        );
        // Mobility events replicate to every live replica.
        assert!(report.raft_committed > 0, "no general event committed");
        // The blockchain keeps working alongside raft.
        assert!(report.blocks_mined > 5);
    }

    #[test]
    fn raft_disabled_by_default_costs_nothing() {
        let report = EdgeNetwork::new(small_config()).unwrap().run();
        assert_eq!(report.raft_messages, 0);
        assert_eq!(report.raft_bytes, 0);
        assert_eq!(report.raft_committed, 0);
    }

    #[test]
    fn token_rescaling_runs_and_chain_stays_valid() {
        let cfg = NetworkConfig {
            token_rescale_blocks: Some(5),
            sim_minutes: 60,
            ..small_config()
        };
        let (report, chain) = EdgeNetwork::new(cfg).unwrap().run_with_chain();
        assert!(report.blocks_mined > 20);
        assert!(crate::chain::Blockchain::from_blocks(chain.as_slice().to_vec()).is_ok());
    }

    #[test]
    fn chain_is_internally_valid() {
        let net = EdgeNetwork::new(small_config()).unwrap();
        assert_eq!(net.topology().len(), 12);
        assert!(!net.requesters().is_empty());
        let (report, chain) = net.run_with_chain();
        assert!(report.blocks_mined > 0);
        // Re-validate the final chain from scratch, signatures included.
        let rebuilt = crate::chain::Blockchain::from_blocks(chain.as_slice().to_vec()).unwrap();
        for block in rebuilt.iter().skip(1) {
            crate::chain::Blockchain::verify_block_signatures(block).unwrap();
        }
        // Ledger derivation matches the mining history.
        let ledger = rebuilt.derive_ledger();
        let total_tokens: u64 = (0..12)
            .map(|i| {
                let acct = Identity::from_seed(small_config().seed + i).account();
                ledger
                    .balance(&acct)
                    .saturating_sub(ledger.initial_tokens())
            })
            .sum();
        assert_eq!(total_tokens, report.blocks_mined);
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        // A run with the fault machinery compiled in but no plan must be
        // bit-identical to the baseline (same RNG stream, same traffic).
        let baseline = EdgeNetwork::new(small_config()).unwrap().run();
        let cfg = NetworkConfig {
            fault_plan: FaultPlan::none(),
            ..small_config()
        };
        let with_empty_plan = EdgeNetwork::new(cfg).unwrap().run();
        assert_eq!(baseline, with_empty_plan);
        assert_eq!(baseline.faults_injected, 0);
        assert_eq!(baseline.messages_dropped, 0);
        assert_eq!(baseline.invariant_violations, 0);
    }

    #[test]
    fn recover_missing_advances_height_immediately() {
        // Regression: recover_missing used to leave node_height stale
        // after pulling in the gap blocks, so the node re-requested blocks
        // it already held on the next receipt.
        let (_, chain) = EdgeNetwork::new(small_config()).unwrap().run_with_chain();
        assert!(chain.height() >= 3);
        let mut net = EdgeNetwork::new(small_config()).unwrap();
        net.chain = chain;
        // Some other node holds everything and can serve the gap.
        let holder = NodeId(1);
        for idx in 1..=net.chain.height() {
            net.storage[holder.0].store_block(idx);
        }
        // Node 0 knows only genesis and block 3: blocks 1-2 are missing.
        let v = NodeId(0);
        net.node_known[v.0].insert(3);
        assert_eq!(net.node_height[v.0], 0);
        let (access, mut cx) = net.lend();
        access.recover(&mut cx, v, 3, SimTime::from_secs(1), 0);
        assert!(
            net.node_known[v.0].is_empty(),
            "the known set holds only blocks past the contiguous height"
        );
        assert_eq!(
            net.node_height[v.0], 3,
            "height must advance through the recovered prefix"
        );
    }

    #[test]
    fn dissemination_fills_one_row_per_item_not_one_per_storer() {
        use edgechain_sim::TopologyConfig;
        let mut net = EdgeNetwork::new(NetworkConfig {
            topology: TopologyConfig {
                sparse_routes: true,
                ..TopologyConfig::default()
            },
            ..small_config()
        })
        .unwrap();
        net.topo.rebuild_routes();
        assert_eq!(net.topo.materialized_rows(), 0);
        let (producer, storers) = (NodeId(0), [NodeId(3), NodeId(5), NodeId(8), NodeId(11)]);
        let mut item = crate::metadata::MetadataItem::new_signed(
            net.identities[producer.0].keys(),
            DataId(0),
            crate::metadata::DataType::Sensing("PM2.5".into()),
            0,
            crate::metadata::Location {
                label: "lazy".into(),
                x: 0.0,
                y: 0.0,
            },
            60,
            None,
            1_000,
        );
        item.storing_nodes = storers.to_vec();
        net.disseminate(SimTime::from_secs(1), 1, vec![item]);
        assert!(storers.iter().all(|s| net.storage[s.0].has_data(DataId(0))));
        assert_eq!(net.topo.materialized_rows(), 1, "the producer's row only");
    }

    #[test]
    fn nearest_providers_break_hop_ties_by_lowest_id() {
        // The one ordering behind fetch, recovery, snapshot bootstrap and
        // repair: nearest first, lowest id among equals, whatever order
        // the candidates arrive in — so its head is what an id-ordered
        // `min_by_key(hops)` scan picks.
        let mut net = EdgeNetwork::new(small_config()).unwrap();
        let down = NodeId(5);
        net.topo.set_active(down, false);
        let mut ties = 0;
        for v in (0..net.config.nodes).map(NodeId).filter(|&v| v != down) {
            let candidates = (0..net.config.nodes).rev().map(NodeId);
            let providers = access::nearest_providers(&net.topo, v, candidates);
            assert!(!providers.contains(&v) && !providers.contains(&down));
            let key = |h: NodeId| (net.topo.hops(v, h), h.0);
            for w in providers.windows(2) {
                assert!(key(w[0]) < key(w[1]), "{v}: {:?} before {:?}", w[0], w[1]);
                ties += usize::from(key(w[0]).0 == key(w[1]).0);
            }
            let scan = (0..net.config.nodes)
                .map(NodeId)
                .filter(|&h| h != v && net.topo.reachable(v, h))
                .min_by_key(|&h| net.topo.hops(v, h));
            assert_eq!(providers.first().copied(), scan);
            let rank = |h| access::provider_rank(&net.topo, v, NodeId(h));
            let ranks = (0..net.config.nodes).filter_map(rank);
            assert_eq!(ranks.min().map(|(_, h)| h), scan);
        }
        assert!(ties > 0, "no two providers ever tied on hops");
    }

    #[test]
    fn crash_and_restart_are_survived() {
        use edgechain_sim::FaultEvent;
        let cfg = NetworkConfig {
            nodes: 15,
            sim_minutes: 40,
            data_items_per_min: 2.0,
            request_interval_secs: 60,
            seed: 21,
            fault_plan: FaultPlan::new(vec![
                FaultEvent::Crash {
                    node: NodeId(3),
                    at: SimTime::from_secs(300),
                },
                FaultEvent::Restart {
                    node: NodeId(3),
                    at: SimTime::from_secs(900),
                },
                FaultEvent::Crash {
                    node: NodeId(7),
                    at: SimTime::from_secs(600),
                },
                FaultEvent::Restart {
                    node: NodeId(7),
                    at: SimTime::from_secs(1500),
                },
            ]),
            ..NetworkConfig::default()
        };
        let report = EdgeNetwork::new(cfg).unwrap().run();
        assert_eq!(report.faults_injected, 4);
        assert_eq!(report.invariant_violations, 0);
        assert!(report.blocks_mined > 10, "mined {}", report.blocks_mined);
        assert!(report.fetch_latency.count > 0);
    }

    #[test]
    fn link_loss_drops_messages_and_is_bounded() {
        use edgechain_sim::FaultEvent;
        let cfg = NetworkConfig {
            sim_minutes: 40,
            fault_plan: FaultPlan::new(vec![FaultEvent::LinkLoss {
                prob: 0.3,
                from: SimTime::from_secs(60),
                until: SimTime::from_secs(1800),
            }]),
            ..small_config()
        };
        let report = EdgeNetwork::new(cfg).unwrap().run();
        assert_eq!(report.faults_injected, 2); // window start + end
        assert!(report.messages_dropped > 0);
        assert!(report.retries > 0, "lossy run should exercise backoff");
        assert_eq!(report.invariant_violations, 0);
    }

    #[test]
    fn repair_restores_replicas_after_a_crash() {
        use edgechain_sim::FaultEvent;
        // Crash two nodes early and never bring them back: any replicas
        // they held stay dark, and the miners' repair sweep must re-create
        // them on surviving nodes.
        let cfg = NetworkConfig {
            nodes: 15,
            sim_minutes: 60,
            data_items_per_min: 3.0,
            seed: 33,
            fault_plan: FaultPlan::new(vec![
                FaultEvent::Crash {
                    node: NodeId(2),
                    at: SimTime::from_secs(400),
                },
                FaultEvent::Crash {
                    node: NodeId(9),
                    at: SimTime::from_secs(500),
                },
            ]),
            ..NetworkConfig::default()
        };
        let report = EdgeNetwork::new(cfg.clone()).unwrap().run();
        assert!(
            report.repairs_triggered > 0,
            "expected repair activity: {report}"
        );
        assert_eq!(report.invariant_violations, 0);

        // With repair disabled the same schedule performs none.
        let no_repair = NetworkConfig {
            replica_repair: false,
            ..cfg
        };
        let r2 = EdgeNetwork::new(no_repair).unwrap().run();
        assert_eq!(r2.repairs_triggered, 0);
    }

    #[test]
    fn invalid_fault_plan_is_rejected() {
        use edgechain_sim::FaultEvent;
        let cfg = NetworkConfig {
            fault_plan: FaultPlan::new(vec![FaultEvent::Crash {
                node: NodeId(99),
                at: SimTime::from_secs(1),
            }]),
            ..small_config()
        };
        let err = EdgeNetwork::new(cfg).expect_err("node 99 of 12");
        assert!(
            matches!(
                err,
                ConfigError::FaultPlan(FaultPlanError::NodeOutOfRange { nodes: 12, .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn an_unconnectable_placement_is_an_error() {
        // Twelve 70 m radios on a 1,000 km square field have an expected
        // degree of 2 × 10⁻⁷: no placement connects.
        let mut cfg = small_config();
        cfg.topology.field = edgechain_sim::Field::new(1e6, 1e6);
        let err = EdgeNetwork::new(cfg).expect_err("no connected placement");
        assert!(
            matches!(
                err,
                ConfigError::Topology(TopologyError::Disconnected {
                    attempts: 10_000,
                    ..
                })
            ),
            "{err}"
        );
    }

    fn rejects(cfg: NetworkConfig, want: &str) {
        let err = EdgeNetwork::new(cfg).expect_err(want);
        assert!(err.to_string().contains(want), "{err} lacks {want:?}");
    }

    /// Each open-workload and overload rate set to `bad` is an error.
    fn rejects_load_rate(bad: f64) {
        let diurnal = ArrivalProcess::Diurnal {
            base_per_min: bad,
            amplitude: 0.5,
            period_secs: 600.0,
            phase_secs: 0.0,
        };
        let burst = Burst {
            multiplier: bad,
            from_secs: 0.0,
            until_secs: 60.0,
        };
        let streams = [
            (OpenArrivals::poisson(bad), "rate"),
            (
                OpenArrivals {
                    process: diurnal,
                    burst: None,
                },
                "rate",
            ),
            (
                OpenArrivals {
                    burst: Some(burst),
                    ..OpenArrivals::poisson(1.0)
                },
                "burst",
            ),
        ];
        for (stream, what) in streams {
            let mut cfg = small_config();
            cfg.workload.arrivals = stream.clone();
            rejects(cfg, &format!("workload.arrivals {what}"));
            let mut cfg = small_config();
            cfg.workload.fetches = Some(stream);
            rejects(cfg, &format!("workload.fetches {what}"));
        }
        let mut cfg = small_config();
        cfg.workload.zipf_exponent = bad;
        rejects(cfg, "workload.zipf_exponent");
        let mut cfg = small_config();
        cfg.overload.admission_items_per_min = Some(bad);
        rejects(cfg, "overload.admission_items_per_min");
        let mut cfg = small_config();
        cfg.overload.admission_fetches_per_min = Some(bad);
        rejects(cfg, "overload.admission_fetches_per_min");
        let mut cfg = small_config();
        cfg.overload.retry_budget_per_min = Some(bad);
        rejects(cfg, "overload.retry_budget_per_min");
    }

    #[test]
    fn contradictory_configs_are_errors() {
        let base = small_config;
        // A zero period would re-arm its event at the same instant forever,
        // and a zero checkpoint interval divides by zero. `None` is "off"
        // for the optional rescale; `Some(0)` is not a second spelling of
        // it.
        type Zero = fn(&mut NetworkConfig);
        let zeros: [(&str, Zero); 7] = [
            ("nodes", |c| c.nodes = 0),
            ("storage_slots", |c| c.storage_slots = 0),
            ("block_interval_secs", |c| c.block_interval_secs = 0),
            ("mobility_interval_secs", |c| c.mobility_interval_secs = 0),
            ("request_interval_secs", |c| c.request_interval_secs = 0),
            ("checkpoint_interval", |c| c.checkpoint_interval = 0),
            ("token_rescale_blocks", |c| c.token_rescale_blocks = Some(0)),
        ];
        for (field, zero) in zeros {
            let mut cfg = base();
            zero(&mut cfg);
            rejects(cfg, field);
        }
        for rate in [f64::NAN, f64::INFINITY, -1.0] {
            let cfg = NetworkConfig {
                data_items_per_min: rate,
                ..base()
            };
            rejects(cfg, "data_items_per_min");
        }
        for bad in [f64::NAN, f64::INFINITY, -1.0, 0.0] {
            let mut cfg = base();
            cfg.topology.field.width = bad;
            rejects(cfg, "topology.field.width");
            let mut cfg = base();
            cfg.topology.field.height = bad;
            rejects(cfg, "topology.field.height");
            let mut cfg = base();
            cfg.transport.bandwidth = bad;
            rejects(cfg, "transport.bandwidth");
            // Checked whether or not `region_alloc` is on.
            let cfg = NetworkConfig {
                region_cell_m: bad,
                ..base()
            };
            rejects(cfg, "region_cell_m");
            if bad != 0.0 {
                let mut cfg = base();
                cfg.topology.mobility_range = bad;
                rejects(cfg, "topology.mobility_range");
            }
        }
        for fraction in [2.0, -0.1, f64::NAN] {
            let cfg = NetworkConfig {
                malicious_fraction: fraction,
                ..base()
            };
            rejects(cfg, "malicious_fraction");
            let roles = edgechain_sim::RoleAssignment {
                seed: 1,
                malicious_fraction: fraction,
            };
            let cfg = NetworkConfig {
                fault_plan: FaultPlan {
                    roles: Some(roles),
                    ..FaultPlan::none()
                },
                ..base()
            };
            rejects(cfg, "fault plan");
        }
        let cfg = NetworkConfig {
            fdc_scale: -1.0,
            ..base()
        };
        rejects(cfg, "fdc_scale");
        // An infinite arrival rate would schedule an arrival every
        // simulated millisecond; a NaN one would silence its stream.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            rejects_load_rate(bad);
        }
        let cfg = NetworkConfig {
            snapshot_bootstrap: true,
            prune_blocks: false,
            ..base()
        };
        rejects(cfg, "prune_blocks");
        // The boundary values are fine: nobody generates, everybody denies.
        let quiet = NetworkConfig {
            data_items_per_min: 0.0,
            malicious_fraction: 1.0,
            sim_minutes: 3,
            ..base()
        };
        assert_eq!(EdgeNetwork::new(quiet).unwrap().run().data_generated, 0);
    }

    #[test]
    fn pruning_bounds_retention_and_keeps_derived_state() {
        let cfg = NetworkConfig {
            sim_minutes: 60,
            prune_blocks: true,
            prune_retention_blocks: 8,
            ..small_config()
        };
        let interval = cfg.checkpoint_interval;
        let retention = cfg.prune_retention_blocks;
        let seed = cfg.seed;
        let (report, chain) = EdgeNetwork::new(cfg).unwrap().run_with_chain();
        assert!(report.blocks_pruned > 0, "no pruning in 60 min: {report}");
        assert!(chain.base_index() > 0);
        assert!(
            (chain.retained_len() as u64) <= interval + retention + 1,
            "retention unbounded: {} blocks held",
            chain.retained_len()
        );
        assert_eq!(report.retained_blocks, chain.retained_len() as u64);
        let anchor = chain.anchor().expect("pruned chain carries an anchor");
        assert!(anchor.verify(), "anchor signature must hold");
        // Ledger derivation spans the anchor: total minted tokens still
        // equal the logical height, pruned prefix included.
        let ledger = chain.derive_ledger();
        let total_tokens: u64 = (0..12)
            .map(|i| {
                let acct = Identity::from_seed(seed + i).account();
                ledger
                    .balance(&acct)
                    .saturating_sub(ledger.initial_tokens())
            })
            .sum();
        assert_eq!(total_tokens, report.blocks_mined);
    }

    #[test]
    fn pruning_below_the_retention_horizon_is_invisible() {
        // A retention window longer than the whole run means pruning never
        // fires — the report must be bit-identical to a pruning-off run.
        let baseline = EdgeNetwork::new(small_config()).unwrap().run();
        let cfg = NetworkConfig {
            prune_blocks: true,
            prune_retention_blocks: 10_000,
            ..small_config()
        };
        let with_pruning = EdgeNetwork::new(cfg).unwrap().run();
        assert_eq!(baseline, with_pruning);
        assert_eq!(baseline.blocks_pruned, 0);
    }

    #[test]
    fn snapshot_bootstrap_rejoins_a_deep_laggard() {
        use edgechain_sim::FaultEvent;
        // Node 3 sleeps through most of the run; by the time it restarts
        // the blocks it needs are pruned everywhere, so block-by-block
        // recovery is impossible and only a snapshot can catch it up.
        // `tests/golden.rs` (`tampered_snapshot_run_with_spans_is_pinned`)
        // reruns this with a Byzantine provider serving a tampered one.
        let cfg = NetworkConfig {
            nodes: 15,
            sim_minutes: 60,
            data_items_per_min: 2.0,
            request_interval_secs: 60,
            seed: 21,
            prune_blocks: true,
            prune_retention_blocks: 4,
            snapshot_bootstrap: true,
            fault_plan: FaultPlan::new(vec![
                FaultEvent::Crash {
                    node: NodeId(3),
                    at: SimTime::from_secs(120),
                },
                FaultEvent::Restart {
                    node: NodeId(3),
                    at: SimTime::from_secs(3_000),
                },
            ]),
            ..NetworkConfig::default()
        };
        let report = EdgeNetwork::new(cfg).unwrap().run();
        assert!(report.blocks_pruned > 0, "pruning never fired: {report}");
        assert!(
            report.snapshots_applied >= 1,
            "deep rejoiner should bootstrap from a snapshot: {report}"
        );
        assert_eq!(report.invariant_violations, 0, "invariant broken: {report}");
    }

    /// The trunk after node `miner` withholds a one-block fork on genesis
    /// and releases it at once, `tamper` applied to the block in between.
    fn trunk_after_release(miner: NodeId, tamper: impl FnOnce(&mut Block)) -> Blockchain {
        use edgechain_sim::FaultEvent;
        let withhold = ByzantineAction::Withhold { blocks: 1 };
        let plan = FaultPlan::new(vec![FaultEvent::Byzantine {
            node: miner,
            action: withhold,
            at: SimTime::from_secs(600),
        }]);
        let mut net = EdgeNetwork::new(NetworkConfig {
            fault_plan: plan,
            ..small_config()
        })
        .unwrap();
        let now = SimTime::from_secs(1);
        let (_, mut cx) = net.lend();
        let (engine, mut court) = cx.adversary().unwrap();
        engine.arm(miner, withhold);
        let attack = engine.armed_attack(&mut court, now, miner, false);
        assert!(matches!(attack, Attack::Withheld));
        tamper(&mut engine.withheld.as_mut().unwrap().blocks[0]);
        net.release_withheld(now);
        net.chain
    }

    #[test]
    fn the_trunk_refuses_a_released_fork_carrying_a_malformed_block() {
        // A node with neighbours, so the release is heard.
        let net = EdgeNetwork::new(small_config()).unwrap();
        let miner = (0..net.topo.len())
            .map(NodeId)
            .find(|&v| net.topo.neighbors(v).next().is_some())
            .unwrap();
        let honest = trunk_after_release(miner, |_| {});
        assert_eq!(honest.height(), 1, "an intact fork outgrows genesis");
        // Contents edited after sealing: every link still holds, only the
        // block's own hash no longer matches it.
        let trunk = trunk_after_release(miner, |b| b.delay_secs += 1);
        assert_eq!(trunk, Blockchain::new(), "the malformed fork is refused");
    }

    #[test]
    fn planted_violation_is_caught_at_default_cadence() {
        use edgechain_sim::FaultEvent;
        // A registry item claiming a storer that holds nothing, produced
        // by a key outside the network (no producer fallback), is a
        // durability violation from the first observation on; the
        // block / sweep / fault-tick cadence must flag it.
        let plan = FaultPlan::new(vec![FaultEvent::LinkLoss {
            prob: 0.0,
            from: SimTime::from_secs(60),
            until: SimTime::from_secs(120),
        }]);
        let report = {
            let mut net = EdgeNetwork::new(NetworkConfig {
                fault_plan: plan,
                ..small_config()
            })
            .unwrap();
            let foreign = Identity::from_seed(999);
            let mut item = crate::metadata::MetadataItem::new_signed(
                foreign.keys(),
                DataId(u64::MAX),
                crate::metadata::DataType::Sensing("PM2.5".into()),
                0,
                crate::metadata::Location {
                    label: "planted".into(),
                    x: 0.0,
                    y: 0.0,
                },
                1_440,
                None,
                1_000,
            );
            item.storing_nodes = vec![NodeId(1)];
            net.catalogue.insert(item, 0);
            net.run()
        };
        assert!(
            report.invariant_violations > 0,
            "default cadence missed the planted violation: {report}"
        );
    }
}
