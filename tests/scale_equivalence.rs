//! Scale-path equivalence (ISSUE 9): the sparse lazy-route topology
//! (`sparse_routes: true`) must be *bit-identical* to the dense reference
//! below the equivalence threshold — same `RunReport`, byte-identical
//! telemetry traces — across a figure-sized run, a chaos run (crashes,
//! repair, link loss), and a Byzantine run. The region-decomposed
//! allocation engine (`region_alloc`) is an approximation, so it is held
//! to health bars (availability, invariants, determinism) rather than
//! bit-equivalence.
//!
//! One `#[ignore]`d test holds the constant-density n = 10,000 run to the
//! same health bars:
//! `cargo test --release --test scale_equivalence -- --ignored`.

use edgechain::core::{EdgeNetwork, NetworkConfig, RunReport};
use edgechain::crypto::sha256;
use edgechain::scenario;
use edgechain::sim::{
    ByzantineAction, FaultEvent, FaultPlan, Field, NodeId, SimTime, TopologyConfig,
};
use edgechain::telemetry;
use std::time::Instant;

fn run(cfg: NetworkConfig) -> RunReport {
    EdgeNetwork::new(cfg).expect("valid config").run()
}

/// SHA-256 of the `Debug` form of an untraced report: the identity
/// `tests/golden.rs` and `edgebench`'s `report_digest` pin.
fn digest(report: &RunReport) -> String {
    assert!(report.telemetry.is_none(), "digest an untraced report");
    sha256(format!("{report:?}")).to_hex()
}

fn with_sparse(mut cfg: NetworkConfig, sparse: bool) -> NetworkConfig {
    cfg.topology = TopologyConfig {
        sparse_routes: sparse,
        ..cfg.topology
    };
    cfg
}

/// Byzantine run: equivocation, forged block, tampered signature — the
/// adversary engine consults hop counts and reachability everywhere, so a
/// single off-by-one in the sparse BFS would cascade into the verdicts.
fn byzantine_config() -> NetworkConfig {
    NetworkConfig {
        sim_minutes: 40,
        fault_plan: FaultPlan::new(vec![
            FaultEvent::Byzantine {
                node: NodeId(6),
                action: ByzantineAction::Equivocate,
                at: SimTime::from_secs(300),
            },
            FaultEvent::Byzantine {
                node: NodeId(15),
                action: ByzantineAction::TamperSignature,
                at: SimTime::from_secs(600),
            },
            FaultEvent::Byzantine {
                node: NodeId(19),
                action: ByzantineAction::ForgeBlock,
                at: SimTime::from_secs(900),
            },
            FaultEvent::Crash {
                node: NodeId(3),
                at: SimTime::from_secs(800),
            },
            FaultEvent::LinkLoss {
                prob: 0.05,
                from: SimTime::from_secs(120),
                until: SimTime::from_secs(1_800),
            },
        ]),
        ..scenario::byzantine(0xFA57_B12A)
    }
}

/// Same config, sparse vs dense routes: the full reports must be equal —
/// every route, RDC value, rng draw, and transport byte included.
fn assert_sparse_dense_equivalent(label: &str, cfg: NetworkConfig) {
    let sparse = run(with_sparse(cfg.clone(), true));
    let dense = run(with_sparse(cfg, false));
    assert!(sparse.telemetry.is_none() && dense.telemetry.is_none());
    assert_eq!(sparse, dense, "{label}: sparse topology diverged");
}

#[test]
fn fig4_sized_run_is_equivalent() {
    assert_sparse_dense_equivalent("fig4", scenario::fig4_cell());
}

#[test]
fn chaos_run_is_equivalent() {
    assert_sparse_dense_equivalent("chaos", scenario::chaos_short());
}

#[test]
fn byzantine_run_is_equivalent() {
    assert_sparse_dense_equivalent("byzantine", byzantine_config());
}

/// The route-row counters of one run: hop rows filled (eager or lazy)
/// and routes read off the source's row over the source–destination
/// interval.
fn route_counters(cfg: NetworkConfig) -> (u64, u64) {
    telemetry::enable();
    let _ = run(cfg);
    let registry = telemetry::finish().expect("telemetry was enabled").registry;
    (
        registry.counter("topology.rows"),
        registry.counter("topology.interval_routes"),
    )
}

/// The lazy twin reads a route off whichever endpoint's row it holds:
/// some routes cross an interval, and it fills fewer rows than the eager
/// twin, which holds every row and never needs the interval.
fn assert_sparse_reads_either_row(label: &str, cfg: NetworkConfig) {
    let (sparse_rows, intervals) = route_counters(with_sparse(cfg.clone(), true));
    let (eager_rows, eager_intervals) = route_counters(with_sparse(cfg, false));
    assert!(intervals > 0, "{label}: no interval route");
    assert_eq!(
        eager_intervals, 0,
        "{label}: the eager twin holds every row"
    );
    assert!(
        sparse_rows < eager_rows,
        "{label}: sparse filled {sparse_rows} rows, eager {eager_rows}"
    );
}

#[test]
fn chaos_run_reads_routes_off_either_row() {
    assert_sparse_reads_either_row("chaos", scenario::chaos_short());
}

#[test]
fn byzantine_run_reads_routes_off_either_row() {
    assert_sparse_reads_either_row("byzantine", byzantine_config());
}

/// Runs with telemetry armed; returns the JSONL trace and the report.
fn run_traced(cfg: NetworkConfig) -> (String, RunReport) {
    telemetry::enable();
    let report = run(cfg);
    let session = telemetry::finish().expect("telemetry was enabled");
    (session.trace_jsonl(), report)
}

/// The sim-clock trace must be byte-identical between route
/// representations — the topology emits no trace events of its own, so a
/// hop-count or path divergence would surface as shifted timestamps.
#[test]
fn traces_are_byte_identical_across_route_representations() {
    let (trace_sparse, mut report_sparse) = run_traced(with_sparse(scenario::chaos_short(), true));
    let (trace_dense, mut report_dense) = run_traced(with_sparse(scenario::chaos_short(), false));
    assert!(
        trace_sparse.contains("ufl.alloc"),
        "the run must allocate storers"
    );
    assert_eq!(
        trace_sparse.as_bytes(),
        trace_dense.as_bytes(),
        "traces must match byte for byte"
    );
    // Counter snapshots legitimately differ (the dense path counts its
    // eager parallel BFS fan-out); everything observable must not.
    report_sparse.telemetry = None;
    report_dense.telemetry = None;
    assert_eq!(report_sparse, report_dense);
}

/// A scale-shaped cell: paper field at n = 200 (average radio degree in
/// the thirties, like the constant-density bench points), full scale path
/// on. This is the regime the regional engine is built for — at toy sizes
/// (n ≈ 20, two or three regions) its origin-local replicas are more
/// exposed to transient mobility disconnections than the global solve.
fn regional_scale_config() -> NetworkConfig {
    NetworkConfig {
        nodes: 200,
        data_items_per_min: 3.0,
        sim_minutes: 15,
        region_alloc: true,
        topology: TopologyConfig {
            sparse_routes: true,
            ..TopologyConfig::default()
        },
        seed: 0xFA57_9E01,
        ..NetworkConfig::default()
    }
}

/// The regional allocation engine is an approximation, not a replica of
/// the global solve — its bar is a healthy network: blocks mined, high
/// availability, no invariant violations, and replicas actually placed.
/// Its report digest is pinned too: how the regional engine finds its hop
/// counts must not move what it decides.
#[test]
fn regional_allocation_run_is_healthy() {
    let report = run(regional_scale_config());
    assert!(report.blocks_mined > 0);
    assert!(
        report.availability >= 0.9,
        "regional availability {:.3} < 0.9",
        report.availability
    );
    assert_eq!(report.invariant_violations, 0);
    assert!(
        report.mean_replicas >= 1.0,
        "regional path stored no replicas"
    );
    assert_eq!(
        digest(&report),
        "d08a6bc179a27d77557bac44bcd538f34346235f133e6c4c3ff80a03b1913cd5",
        "report digest moved"
    );
}

/// Constant-density scale cell: the field side grows as `300·sqrt(n/400)`
/// so the average radio degree stays at the n = 400 level instead of the
/// graph itself becoming the bottleneck; the full scale path is on.
fn constant_density_config(nodes: usize) -> NetworkConfig {
    let side = 300.0 * ((nodes as f64) / 400.0).sqrt();
    NetworkConfig {
        nodes,
        data_items_per_min: 3.0,
        sim_minutes: 10,
        topology: TopologyConfig {
            field: Field::new(side, side),
            sparse_routes: true,
            ..TopologyConfig::default()
        },
        region_alloc: true,
        seed: 0x5CA1_E000 + nodes as u64,
        ..NetworkConfig::default()
    }
}

/// A 10-sim-minute n = 10,000 run behaves like a working network: blocks
/// mined, availability ≥ 0.9, no invariant violations, and tracking state
/// bounded. Items are valid 2 min so the sweeps at 300 s and 600 s expire
/// some and the tracking bar holds a nonzero peak. The report digest is
/// pinned, so CI's release run holds every change to the scale path
/// bit-identical at n = 10,000. Wall time and topology bytes are printed,
/// not asserted; `edgebench`'s `scale` workload measures them.
#[test]
#[ignore = "n = 10,000: takes ≈ 14 s in debug and ≈ 2 s in release"]
fn ten_thousand_nodes_stay_healthy() {
    let start = Instant::now();
    let cfg = NetworkConfig {
        data_valid_minutes: 2,
        ..constant_density_config(10_000)
    };
    let (report, topo_bytes) = EdgeNetwork::new(cfg)
        .expect("connected topology")
        .run_with_memory();
    println!(
        "n = 10,000: {:.1} s wall, topology {:.1} MB, {} copies expired, peak tracking {}",
        start.elapsed().as_secs_f64(),
        topo_bytes as f64 / 1e6,
        report.data_expired,
        report.peak_tracking_entries
    );
    assert!(report.blocks_mined > 0, "no blocks mined");
    assert!(
        report.availability >= 0.9,
        "availability {:.3} < 0.9",
        report.availability
    );
    assert_eq!(report.invariant_violations, 0);
    assert!(report.data_expired > 0, "nothing expired");
    assert!(
        (1..=100_000).contains(&report.peak_tracking_entries),
        "tracking state {} entries, want 1..=100,000",
        report.peak_tracking_entries
    );
    assert_eq!(
        digest(&report),
        "75a6dd5d9825a6d6aeadfff448a6cfbbdd8dadeefa2ae605d69960031434135a",
        "report digest moved"
    );
}

/// The regional path under churn: crashes, a restart, and link loss must
/// not corrupt anything the invariant checker watches, and the run must
/// keep producing blocks.
#[test]
fn regional_chaos_run_keeps_invariants() {
    let report = run(NetworkConfig {
        region_alloc: true,
        ..scenario::chaos_short()
    });
    assert!(report.blocks_mined > 0);
    assert_eq!(report.invariant_violations, 0);
    assert!(report.fetch_latency.count > 0);
}

/// Seeded regional reruns are deterministic: byte-identical traces and
/// equal reports.
#[test]
fn regional_reruns_are_byte_identical() {
    let cfg = || NetworkConfig {
        region_alloc: true,
        ..scenario::fig4_cell()
    };
    let (trace_a, report_a) = run_traced(cfg());
    let (trace_b, report_b) = run_traced(cfg());
    assert_eq!(trace_a.as_bytes(), trace_b.as_bytes());
    assert_eq!(report_a, report_b);
}

/// Tracking-state GC: over a run twice the 7,200 s retention window,
/// with items valid 5 min and swept every minute, the tombstone peak stays
/// below the count of expired copies and near one window's worth of ids.
/// Without the GC every id swept since the start would be held at the end,
/// and the peak would pass both.
#[test]
fn tracking_state_is_bounded_by_retention_window() {
    let report = run(NetworkConfig {
        nodes: 20,
        data_items_per_min: 6.0,
        data_valid_minutes: 5,
        expiration_sweep_secs: 60,
        sim_minutes: 240,
        seed: 0xFA57_6C01,
        ..NetworkConfig::default()
    });
    assert!(report.data_expired > 0, "run must expire items");
    assert!(
        report.peak_tracking_entries < report.data_expired,
        "tracking state not bounded by the window: peak {} vs {} expired",
        report.peak_tracking_entries,
        report.data_expired
    );
    // The window holds ~720 ids at 6/min; the rest is sweep slack.
    assert!(
        report.peak_tracking_entries <= 800,
        "peak {} not O(window)",
        report.peak_tracking_entries
    );
}
