//! The five workloads: what each simulates, why it exists, and how its
//! inputs derive from the harness seed.
//!
//! `--seed` is the only input. Every `NetworkConfig.seed` and `FaultPlan`
//! below is a pure function of it; the simulator sees generated configs
//! and nothing else.

use crate::record::Record;
use edgechain_core::{ArrivalProcess, NetworkConfig, OpenArrivals, OverloadConfig, WorkloadConfig};
use edgechain_sim::{
    ByzantineAction, ChurnConfig, FaultEvent, FaultPlan, Field, NodeId, SimTime, TopologyConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed used when `--seed` is absent; health bars are pinned at it.
pub const DEFAULT_SEED: u64 = 0xED6E;

/// One benchmark workload.
pub struct Workload {
    /// Name as it appears in `BENCHMARK.json` and every output.
    pub name: &'static str,
    /// Why the workload exists (one line, also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Simulated minutes per instance.
    pub minutes: u64,
    /// Simulated minutes of the traced pass. The full horizon everywhere
    /// except `raft`, whose trace buffer grows by ~5 MB per sim-minute.
    pub trace_minutes: u64,
    /// Instances run one after another per repeat, with consecutive seeds.
    /// One instance of a small network is at the mercy of its placement
    /// (the same config was seen to need 43 or 1649 block recoveries
    /// depending on the seed), so every workload runs a panel and reports
    /// means.
    pub instances: u64,
    /// Separates this workload's seed stream from the others'.
    tag: u64,
    config: fn(seed: u64, minutes: u64) -> NetworkConfig,
    /// Health bars beyond the hard gates; pinned at [`DEFAULT_SEED`].
    health: fn(panel: &Record) -> Option<String>,
}

impl Workload {
    /// The generated configs of one repeat at `minutes` simulated minutes:
    /// instance seeds are consecutive from a base mixed out of the harness
    /// seed, so two harness seeds never share an instance.
    pub fn configs(&self, seed: u64, minutes: u64) -> Vec<NetworkConfig> {
        let base = mix(seed, self.tag);
        (0..self.instances)
            .map(|i| (self.config)(base.wrapping_add(i), minutes))
            .collect()
    }

    /// The health bars a panel breaks, as printable reasons.
    ///
    /// The hard gates (zero invariant violations, blocks mined) are checked
    /// by every instance on any seed. These bars are judged on the panel as
    /// a whole and pinned at the default seed only, because a churn plan
    /// drawn from another seed legitimately lands elsewhere (single soak
    /// instances were seen between 0.56 and 1.0 available).
    ///
    /// The availability floor is pinned at the full horizon as well: the
    /// halved horizon of a smoke run only checks that every feature the
    /// workload exists for still engages.
    pub fn broken_bars(&self, seed: u64, full_horizon: bool, panel: &Record) -> Vec<String> {
        if seed != DEFAULT_SEED {
            return Vec::new();
        }
        let mut broken = Vec::new();
        let availability = panel.get_num("availability").unwrap_or(0.0);
        if full_horizon && availability < 0.9 {
            broken.push(format!(
                "{}: availability {availability:.3} < 0.9",
                self.name
            ));
        }
        if let Some(reason) = (self.health)(panel) {
            broken.push(format!("{}: {reason}", self.name));
        }
        broken
    }
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Every workload, in the order they run and print.
pub static WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper",
        why: "figure regeneration at the paper's hardest cell (n=50, 3 items/min): write-heavy, dense topology, global cached UFL is the largest named cost",
        minutes: 500,
        trace_minutes: 500,
        instances: 10,
        tag: 0x9A9E,
        config: paper_config,
        health: no_extra_bars,
    },
    Workload {
        name: "scale",
        why: "constant-density n=3000 with sparse routes and regional UFL: topology, routes and memory do the work; bypasses the global solver and per-block consensus",
        minutes: 10,
        trace_minutes: 10,
        instances: 2,
        tag: 0x5CA1E,
        config: scale_config,
        health: no_extra_bars,
    },
    Workload {
        name: "soak",
        why: "n=20 at a 6 s block target under seeded churn, one adversary, pruning and snapshot bootstrap: per-block cost dominates, topology is trivial",
        minutes: 75,
        trace_minutes: 75,
        instances: 8,
        tag: 0x50AB,
        config: soak_config,
        health: soak_bars,
    },
    Workload {
        name: "overload",
        why: "open Poisson arrivals at ~2.7x admission capacity with Zipf fetches: read-heavy and shedding, so a gain for writes or the happy path that costs the shed path shows",
        minutes: 80,
        trace_minutes: 80,
        instances: 4,
        tag: 0x10AD,
        config: overload_config,
        health: overload_bars,
    },
    Workload {
        name: "raft",
        why: "n=50 with in-sim raft and signature checks on: event queue, unicast transport, raft state machines and signatures dominate; where telemetry costs the most",
        minutes: 200,
        trace_minutes: 25,
        instances: 4,
        tag: 0x4AF7,
        config: raft_config,
        health: raft_bars,
    },
];

/// SplitMix64 finalizer: decorrelates the per-workload streams drawn from
/// one harness seed.
fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = (seed ^ tag).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// §VI's hardest cell: n = 50, 3 items/min, t0 = 60 s, all defaults.
fn paper_config(seed: u64, minutes: u64) -> NetworkConfig {
    NetworkConfig {
        nodes: 50,
        data_items_per_min: 3.0,
        sim_minutes: minutes,
        seed,
        ..NetworkConfig::default()
    }
}

/// Nodes of the `scale` workload. One n = 4000 instance costs what two
/// n = 3000 instances cost (wall grows as n^2.4 here) and its wall time
/// spreads 16–23 % across seeds against 4 % for the pair.
const SCALE_NODES: usize = 3000;

/// Constant density: the field side grows as `300·sqrt(n/400)` so the mean
/// radio degree stays at the n = 400 level. The block target is 20 s: at
/// the default 60 s the first block lands anywhere in the first two of ten
/// minutes, and how many of the ~800 fetches find something to fetch
/// swings the wall time by a third.
fn scale_config(seed: u64, minutes: u64) -> NetworkConfig {
    let side = 300.0 * (SCALE_NODES as f64 / 400.0).sqrt();
    NetworkConfig {
        nodes: SCALE_NODES,
        data_items_per_min: 3.0,
        block_interval_secs: 20,
        sim_minutes: minutes,
        topology: TopologyConfig {
            field: Field::new(side, side),
            sparse_routes: true,
            ..TopologyConfig::default()
        },
        region_alloc: true,
        seed,
        ..NetworkConfig::default()
    }
}

/// Nodes of the `soak` workload; the adversary is the last one.
const SOAK_NODES: usize = 20;

/// The `tests/soak.rs` shape — seeded churn over the first four fifths of
/// the horizon plus one repeat-offender adversary on the last node — with
/// one change: the adversary's four actions are the ones that do not fork
/// the chain. On 3 of 10 probe seeds (and on 3 of 80 with the adversary
/// moved behind the churn) an equivocation or a withheld fork on a pruned
/// chain left honest nodes stranded on the losing sibling until the
/// canonical base passed them (66–187 invariant violations), and a
/// benchmark has to be correct on every seed it is handed.
fn soak_plan(seed: u64, horizon_secs: u64) -> FaultPlan {
    let churn = FaultPlan::random_churn(
        SOAK_NODES,
        ChurnConfig {
            crashes_per_min: 0.05,
            mean_downtime_secs: 600.0,
            max_concurrent_down: 2,
            horizon: SimTime::from_secs(horizon_secs * 4 / 5),
        },
        &mut StdRng::seed_from_u64(mix(seed, 0x50AC)),
    );
    let adversary = NodeId(SOAK_NODES - 1);
    let act = |action, at_secs| FaultEvent::Byzantine {
        node: adversary,
        action,
        at: SimTime::from_secs(at_secs),
    };
    churn.merged(FaultPlan::new(vec![
        act(ByzantineAction::TamperSignature, horizon_secs / 10),
        act(ByzantineAction::ForgeBlock, horizon_secs / 4),
        act(
            ByzantineAction::GarbagePayload { bytes: 2_048 },
            horizon_secs / 2,
        ),
        act(ByzantineAction::TamperSignature, horizon_secs * 3 / 5),
    ]))
}

fn soak_config(seed: u64, minutes: u64) -> NetworkConfig {
    NetworkConfig {
        nodes: SOAK_NODES,
        sim_minutes: minutes,
        block_interval_secs: 6,
        data_items_per_min: 1.0,
        data_valid_minutes: 45,
        expiration_sweep_secs: 60,
        request_interval_secs: 120,
        prune_blocks: true,
        prune_retention_blocks: 32,
        snapshot_bootstrap: true,
        fetch_retries: 5,
        retry_backoff_ms: 4_000,
        seed,
        fault_plan: soak_plan(seed, minutes * 60),
        ..NetworkConfig::default()
    }
}

/// The `load` bin's protection stack at n = 50, offered ~2.7x the
/// admission capacity on both the write and the read side.
fn overload_config(seed: u64, minutes: u64) -> NetworkConfig {
    NetworkConfig {
        nodes: 50,
        sim_minutes: minutes,
        request_interval_secs: 60,
        fetch_retries: 5,
        retry_backoff_ms: 4_000,
        retry_backoff_max_ms: 64_000,
        seed,
        workload: WorkloadConfig {
            enabled: true,
            arrivals: OpenArrivals {
                process: ArrivalProcess::Poisson { rate_per_min: 80.0 },
                burst: None,
            },
            fetches: Some(OpenArrivals {
                process: ArrivalProcess::Poisson {
                    rate_per_min: 200.0,
                },
                burst: None,
            }),
            zipf_exponent: 0.9,
        },
        overload: OverloadConfig {
            admission_items_per_min: Some(30.0),
            admission_fetches_per_min: Some(60.0),
            max_pending_items: Some(30),
            max_inflight_per_node: Some(8),
            retry_budget_per_min: Some(240.0),
            ..OverloadConfig::default()
        },
        ..NetworkConfig::default()
    }
}

fn raft_config(seed: u64, minutes: u64) -> NetworkConfig {
    NetworkConfig {
        nodes: 50,
        data_items_per_min: 3.0,
        sim_minutes: minutes,
        raft_consensus: true,
        verify_signatures: true,
        seed,
        ..NetworkConfig::default()
    }
}

fn no_extra_bars(_: &Record) -> Option<String> {
    None
}

/// A count summed over the panel; 0 when the panel never reported it.
fn total(panel: &Record, key: &str) -> f64 {
    panel.get_num(key).unwrap_or(0.0)
}

fn soak_bars(panel: &Record) -> Option<String> {
    let (injected, detected) = (
        total(panel, "core.byzantine.injected"),
        total(panel, "core.byzantine.detected"),
    );
    if total(panel, "core.chain.blocks_pruned") == 0.0 {
        Some("pruning never fired".into())
    } else if total(panel, "core.chain.snapshots_applied") == 0.0 {
        Some("no snapshot bootstrap applied".into())
    } else if injected == 0.0 || detected < 0.9 * injected {
        // An artifact sent while the adversary's radio reaches nobody
        // leaves nothing to detect; one in ten may go that way.
        Some(format!(
            "{detected} of {injected} injected artifacts detected"
        ))
    } else {
        None
    }
}

fn overload_bars(panel: &Record) -> Option<String> {
    if total(panel, "aux.shed_items") == 0.0 {
        Some("no item was shed".into())
    } else if total(panel, "workload.max_degrade_level") == 0.0 {
        Some("degradation ladder never engaged".into())
    } else {
        None
    }
}

fn raft_bars(panel: &Record) -> Option<String> {
    (total(panel, "raft.committed") == 0.0).then(|| "nothing committed".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_yields_identical_configs_and_plans() {
        for w in &WORKLOADS {
            let a = w.configs(7, w.minutes);
            let b = w.configs(7, w.minutes);
            assert_eq!(a.len() as u64, w.instances);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x, y, "{}", w.name);
                assert_eq!(x.fault_plan, y.fault_plan, "{}", w.name);
            }
        }
    }

    #[test]
    fn another_seed_moves_every_config() {
        for w in &WORKLOADS {
            let a = w.configs(7, w.minutes);
            let b = w.configs(8, w.minutes);
            assert_ne!(a[0].seed, b[0].seed, "{}", w.name);
        }
        let a = soak_config(7, 75).fault_plan;
        let b = soak_config(8, 75).fault_plan;
        assert_ne!(a, b, "the churn plan must follow the seed");
    }

    #[test]
    fn fault_plans_are_valid_for_their_node_count() {
        for w in &WORKLOADS {
            for minutes in [w.minutes, w.minutes / 10] {
                for c in w.configs(DEFAULT_SEED, minutes.max(1)) {
                    c.fault_plan.validate(c.nodes).expect(w.name);
                }
            }
        }
    }

    #[test]
    fn names_are_plain_and_whys_fit_the_contract() {
        for w in &WORKLOADS {
            assert!(crate::metrics::is_plain_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.trace_minutes <= w.minutes);
        }
        assert_eq!(WORKLOADS.len(), 5);
    }
}
