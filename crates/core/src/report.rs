//! [`RunReport`]: the aggregated results of one simulation run.
//!
//! [`crate::network::EdgeNetwork`] holds one report from construction on
//! and bumps every counter that lands in it one-to-one where the counted
//! thing happens; the derived fields (means, percentiles, Gini, shares) are
//! computed once at the end of the run.
//!
//! A count the report keeps is counted there only: the registry counters
//! that copy one are named once, in [`RunReport::registry_counts`], and
//! written from the report when a traced run finishes.

use crate::slo::{LatencySummary, OverloadReport, SloAlert};
use edgechain_telemetry::{RegistrySnapshot, RunningStats};
use std::fmt;

/// Aggregated results of one simulation run — the raw material of
/// Figs. 4 and 5.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Node count of the run.
    pub nodes: usize,
    /// Blocks mined (excluding genesis).
    pub blocks_mined: u64,
    /// Data items generated.
    pub data_generated: u64,
    /// Data items that could not be stored anywhere (all nodes full).
    pub data_unstored: u64,
    /// Mean per-node transferred volume (sent + received) in MB — Fig. 4(a).
    pub mean_node_overhead_mb: f64,
    /// Total bytes transmitted network-wide, MB.
    pub total_sent_mb: f64,
    /// Gini coefficient of per-node used storage slots — Fig. 4(b).
    pub storage_gini: f64,
    /// Fetches that resolved without the data, every retry spent: the
    /// SLO monitor's whole-run count.
    pub failed_requests: u64,
    /// Missing-block recoveries performed: the count of `recovery`.
    pub recoveries: u64,
    /// Recovery latency statistics (seconds).
    pub recovery: RunningStats,
    /// Hop distance to the node that served each recovered block.
    pub recovery_hops: RunningStats,
    /// Observed mean block interval (seconds).
    pub mean_block_interval_secs: f64,
    /// Mean remaining battery across nodes, percent.
    pub mean_battery_percent: f64,
    /// Average replicas per stored data item.
    pub mean_replicas: f64,
    /// Expired data items evicted from stores.
    pub data_expired: u64,
    /// Service denials observed from malicious storers (requests that got
    /// no answer and were retried elsewhere, §III-B.2).
    pub denials: u64,
    /// Raft messages transmitted for general information consensus.
    pub raft_messages: u64,
    /// Raft heartbeats among those (the paper's §VII overhead complaint).
    pub raft_heartbeats: u64,
    /// Bytes of raft traffic: each transmitted raft message's size,
    /// counted once — not per hop and not per end, as the transport's
    /// overhead figures count every byte. It is therefore no share of
    /// `mean_node_overhead_mb`, and raft's share of per-node transfer
    /// computed from it (Ablation 5's 1.6 % at 60 minutes) is a lower
    /// bound.
    pub raft_bytes: u64,
    /// General events committed by every live raft replica.
    pub raft_committed: u64,
    /// Mean per-node radio energy (joules) implied by the traffic volume
    /// and the device profile's per-byte TX/RX costs.
    pub mean_radio_energy_j: f64,
    /// Fault actions applied by the injector (crashes, restarts, window
    /// starts/ends).
    pub faults_injected: u64,
    /// Messages the transport dropped inside lossy-link windows.
    pub messages_dropped: u64,
    /// Backoff retries performed by data fetches and block recoveries.
    pub retries: u64,
    /// Data items re-replicated by the miner's UFL repair sweep.
    pub repairs_triggered: u64,
    /// Integral over time of the number of valid items with zero live
    /// honest copies (item-seconds); 0 outside fault runs.
    pub under_replicated_item_seconds: f64,
    /// Fraction of resolved data requests that completed (1.0 when no
    /// request resolved either way).
    pub availability: f64,
    /// Byzantine artifacts injected by the adversary engine: equivocation
    /// pairs, forged blocks, withheld forks, tampered signatures, garbage
    /// payloads. Counted by identity (an equivocation pair observed by
    /// many nodes is one artifact).
    pub byz_injected: u64,
    /// Byzantine artifacts detected by at least one honest node
    /// (verification failure, equivocation proof, undecodable payload,
    /// late fork release).
    pub byz_detected: u64,
    /// Chain reorganizations performed by live fork choice: per-node
    /// adoptions of the canonical branch plus trunk reorgs from released
    /// private forks.
    pub reorgs: u64,
    /// Deepest reorg observed, in discarded blocks.
    pub max_reorg_depth: u64,
    /// Quarantines imposed on misbehaving nodes.
    pub quarantine_events: u64,
    /// Quarantined nodes re-admitted after their window expired.
    pub readmissions: u64,
    /// Blocks collapsed into the chain anchor by checkpoint-anchored
    /// pruning ([`crate::network::NetworkConfig::prune_blocks`]).
    pub blocks_pruned: u64,
    /// Blocks physically retained at the end of the run (bounded by the
    /// checkpoint interval plus the retention window when pruning is on;
    /// equal to the chain height otherwise).
    pub retained_blocks: u64,
    /// Snapshots assembled and sent to deep-rejoining nodes.
    pub snapshots_served: u64,
    /// Snapshots that verified and were adopted by a rejoining node.
    pub snapshots_applied: u64,
    /// Snapshots rejected at verification (tampered or undecodable);
    /// each one blacklists its server for the requesting node.
    pub snapshots_rejected: u64,
    /// Peak network-wide storage occupancy (used slots summed over all
    /// nodes, sampled at every mined block). Flat under pruning; grows
    /// with the chain without it.
    pub peak_storage_slots: u64,
    /// Peak number of tombstone tracking entries held at once (swept ids +
    /// invalidated-storer pairs + snapshot blacklist pairs + stashed
    /// Byzantine orphans), sampled at every mined block. Bounded by the
    /// 7,200 s tracking-retention window, not run length.
    pub peak_tracking_entries: u64,
    /// Hard safety violations caught by the invariant checker — durable
    /// data loss or a corrupted chain prefix. Must stay 0.
    pub invariant_violations: u64,
    /// Inclusion latency (data generation → packing block mined), seconds,
    /// over every packed item.
    pub inclusion_latency: LatencySummary,
    /// Data delivery time (request issued → payload delivered), seconds,
    /// over every completed request: its `count` is the completed
    /// requests, its `mean` Fig. 4(c)/5(a)'s delivery time.
    pub fetch_latency: LatencySummary,
    /// SLO breach alerts from the rolling-window health monitor, in
    /// detection order (see [`crate::slo`]). Computed unconditionally — the
    /// monitor never consults the RNG — so they are identical whether or
    /// not telemetry or spans were armed.
    pub slo_alerts: Vec<SloAlert>,
    /// Overload accounting: offered vs admitted vs shed load, retry-budget
    /// denials, degradation-ladder activity, and queue high-water marks
    /// (see [`crate::slo::OverloadReport`]). Offered/admitted counters and
    /// queue peaks are maintained on every run; the protection counters
    /// stay zero unless [`crate::network::NetworkConfig::overload`] sets limits.
    pub overload: OverloadReport,
    /// Deterministic summary of the telemetry registry, when a session was
    /// armed ([`edgechain_telemetry::enable`]) for the run; `None`
    /// otherwise, so reports from un-instrumented runs stay bit-identical
    /// to pre-telemetry builds.
    pub telemetry: Option<RegistrySnapshot>,
}

impl RunReport {
    /// The registry counters that copy a report count, each with the
    /// count. A traced run adds every nonzero entry to the registry as it
    /// finishes, so a name is present there exactly when its count is not 0.
    pub fn registry_counts(&self) -> [(&'static str, u64); 18] {
        [
            ("data.generated", self.data_generated),
            ("alloc.rejected", self.overload.alloc_rejected),
            ("overload.retries_denied", self.overload.retries_denied),
            ("chain.pruned", self.blocks_pruned),
            ("chain.reorgs", self.reorgs),
            ("byz.injected", self.byz_injected),
            ("byz.detected", self.byz_detected),
            ("byz.quarantines", self.quarantine_events),
            ("byz.readmissions", self.readmissions),
            ("transport.retries", self.retries),
            ("transport.drops", self.messages_dropped),
            ("fault.injected", self.faults_injected),
            ("repair.items", self.repairs_triggered),
            ("request.completed", self.fetch_latency.count),
            ("snapshot.served", self.snapshots_served),
            ("snapshot.rejected", self.snapshots_rejected),
            ("snapshot.applied", self.snapshots_applied),
            ("slo.breaches", self.slo_alerts.len() as u64),
        ]
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run: {} nodes, {} blocks, {} items ({} unstored)",
            self.nodes, self.blocks_mined, self.data_generated, self.data_unstored
        )?;
        writeln!(
            f,
            "  overhead: {:.1} MB/node ({:.1} MB sent total)",
            self.mean_node_overhead_mb, self.total_sent_mb
        )?;
        writeln!(f, "  storage gini: {:.4}", self.storage_gini)?;
        writeln!(
            f,
            "  fetch latency: {} ({} failed)",
            self.fetch_latency, self.failed_requests
        )?;
        writeln!(f, "  recoveries: {} ({})", self.recoveries, self.recovery)?;
        if self.data_expired > 0 || self.denials > 0 {
            writeln!(
                f,
                "  expired: {} items, denials: {}",
                self.data_expired, self.denials
            )?;
        }
        if self.faults_injected > 0 {
            writeln!(
                f,
                "  faults: {} injected, {} msgs dropped, {} retries, \
                 {} repairs, availability {:.3}, {} violations",
                self.faults_injected,
                self.messages_dropped,
                self.retries,
                self.repairs_triggered,
                self.availability,
                self.invariant_violations
            )?;
        }
        if self.byz_injected > 0 || self.quarantine_events > 0 {
            writeln!(
                f,
                "  byzantine: {} injected, {} detected, {} reorgs (max depth {}), \
                 {} quarantines, {} readmissions",
                self.byz_injected,
                self.byz_detected,
                self.reorgs,
                self.max_reorg_depth,
                self.quarantine_events,
                self.readmissions
            )?;
        }
        if self.blocks_pruned > 0 || self.snapshots_served > 0 {
            writeln!(
                f,
                "  lifecycle: {} blocks pruned ({} retained), snapshots \
                 {} served / {} applied / {} rejected, peak storage {} slots",
                self.blocks_pruned,
                self.retained_blocks,
                self.snapshots_served,
                self.snapshots_applied,
                self.snapshots_rejected,
                self.peak_storage_slots
            )?;
        }
        if self.peak_tracking_entries > 0 {
            writeln!(
                f,
                "  tracking: peak {} tombstone entries",
                self.peak_tracking_entries
            )?;
        }
        writeln!(f, "  inclusion latency: {}", self.inclusion_latency)?;
        writeln!(f, "  slo: {} breaches", self.slo_alerts.len())?;
        for a in &self.slo_alerts {
            writeln!(
                f,
                "    breach @{:.1}s: {} = {:.3} (threshold {:.3})",
                a.t_ms as f64 / 1000.0,
                a.slo,
                a.observed,
                a.threshold
            )?;
        }
        if self.overload.engaged() {
            writeln!(f, "  overload: {}", self.overload)?;
        }
        if let Some(snap) = &self.telemetry {
            writeln!(f, "  telemetry: {} metrics captured", snap.entries.len())?;
        }
        write!(
            f,
            "  block interval: {:.1} s, battery: {:.1} %",
            self.mean_block_interval_secs, self.mean_battery_percent
        )
    }
}
