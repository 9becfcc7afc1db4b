//! Scale sweep: the sparse scale path against the dense reference.
//!
//! For n ∈ {400, 1000, 4000, 10000} a 10-sim-minute constant-density run
//! (field side grows as `300·sqrt(n/400)`, holding average degree at the
//! n = 400 level) in *sparse* mode (`sparse_routes` + `region_alloc`)
//! against the *dense* reference (capped at n = 1000, above which the n²
//! tables stop being worth building). Each point records wall time,
//! blocks, availability, peak tracking entries, the topology's
//! allocated-bytes estimate, and the process RSS high-water mark; the
//! table lands in `BENCH_perf.json` as `scale_points`.
//!
//! The points run serially, cheapest first — concurrent simulations would
//! contend for cores and contaminate each other's wall-clock timings, and
//! the RSS high-water mark is monotone across the process.
//!
//! `cargo run --release -p edgechain-bench --bin perf`; `--scale-smoke`
//! runs only the n = 10,000 sparse point plus the n = 400 pair and asserts
//! its health.

use edgechain_core::network::{EdgeNetwork, NetworkConfig, RunReport};
use edgechain_sim::{Field, TopologyConfig};
use std::time::Instant;

/// Node count at and below which the dense reference column is measured
/// (and at which `tests/scale_equivalence.rs` pins sparse ≡ dense).
const DENSE_EQUIVALENCE_THRESHOLD: usize = 1000;

/// Simulated minutes per scale point (the acceptance bar is a completed
/// ≥ 10-minute n = 10,000 run).
const SCALE_MINUTES: u64 = 10;

/// One row of the scale sweep.
struct ScalePoint {
    nodes: usize,
    sparse: bool,
    wall_secs: f64,
    report: RunReport,
    /// Topology adjacency + route-state bytes at the end of the run.
    topo_bytes: usize,
    /// Process RSS high-water mark (kB) after the point, from
    /// `/proc/self/status` `VmHWM`. Monotone across the process, so read
    /// it off the cheapest-first run order.
    rss_peak_kb: u64,
}

/// `VmHWM` from `/proc/self/status` in kB; 0 where unavailable.
fn rss_peak_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
            })
        })
        .unwrap_or(0)
}

/// Constant-density scale configuration: the field side grows as
/// `300·sqrt(n/400)` so average radio degree stays at the n = 400 level
/// instead of the graph itself becoming the bottleneck.
fn scale_config(nodes: usize, sparse: bool) -> NetworkConfig {
    let side = 300.0 * ((nodes as f64) / 400.0).sqrt();
    NetworkConfig {
        nodes,
        data_items_per_min: 3.0,
        sim_minutes: SCALE_MINUTES,
        topology: TopologyConfig {
            field: Field::new(side, side),
            sparse_routes: sparse,
            ..TopologyConfig::default()
        },
        region_alloc: sparse,
        seed: 0x5CA1_E000 + nodes as u64,
        ..NetworkConfig::default()
    }
}

fn run_scale_point(nodes: usize, sparse: bool) -> ScalePoint {
    let cfg = scale_config(nodes, sparse);
    let start = Instant::now();
    let (report, topo_bytes) = EdgeNetwork::new(cfg)
        .expect("connected topology")
        .run_with_memory();
    let wall_secs = start.elapsed().as_secs_f64();
    println!(
        "scale n={nodes} {}: {:.1}s wall, {} blocks, availability {:.3}, topo {:.1} MB, rss peak {:.0} MB",
        if sparse { "sparse" } else { "dense" },
        wall_secs,
        report.blocks_mined,
        report.availability,
        topo_bytes as f64 / 1e6,
        rss_peak_kb() as f64 / 1e3,
    );
    ScalePoint {
        nodes,
        sparse,
        wall_secs,
        report,
        topo_bytes,
        rss_peak_kb: rss_peak_kb(),
    }
}

/// The `--scale-smoke` health bar: the shortened n = 10,000 sparse run
/// must actually behave like a working network.
fn assert_scale_health(p: &ScalePoint) {
    assert!(p.report.blocks_mined > 0, "scale smoke: no blocks mined");
    assert!(
        p.report.availability >= 0.9,
        "scale smoke: availability {:.3} < 0.9",
        p.report.availability
    );
    assert_eq!(
        p.report.invariant_violations, 0,
        "scale smoke: invariant violations"
    );
    assert!(
        p.report.peak_tracking_entries <= 100_000,
        "scale smoke: unbounded tracking state ({} entries)",
        p.report.peak_tracking_entries
    );
}

fn main() {
    let mut scale_smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--scale-smoke" => scale_smoke = true,
            other => {
                eprintln!("error: unknown argument {other:?}\nusage: perf [--scale-smoke]");
                std::process::exit(2);
            }
        }
    }
    let scale_counts: &[usize] = if scale_smoke {
        &[400, 10_000]
    } else {
        &[400, 1000, 4000, 10_000]
    };
    println!("Scale sweep — {SCALE_MINUTES} min simulated, constant density, n ∈ {scale_counts:?}");
    let mut scale_points = Vec::new();
    for &n in scale_counts {
        if n <= DENSE_EQUIVALENCE_THRESHOLD {
            scale_points.push(run_scale_point(n, false));
        }
        scale_points.push(run_scale_point(n, true));
    }
    if scale_smoke {
        let big = scale_points
            .iter()
            .filter(|p| p.sparse)
            .max_by_key(|p| p.nodes)
            .expect("sparse point exists");
        assert_scale_health(big);
        println!(
            "scale smoke OK: n={} sparse, {} blocks, availability {:.3}",
            big.nodes, big.report.blocks_mined, big.report.availability
        );
    }
    write_perf_json(&scale_points);
}

/// `BENCH_perf.json`: one record per scale point.
fn write_perf_json(scale_points: &[ScalePoint]) {
    let mut out = String::from("{\n  \"bench\": \"perf\",\n");
    out.push_str(&format!(
        "  \"scale_minutes\": {SCALE_MINUTES},\n  \"dense_equivalence_threshold\": {DENSE_EQUIVALENCE_THRESHOLD},\n"
    ));
    out.push_str("  \"scale_points\": [");
    for (i, p) in scale_points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"nodes\": {}, \"mode\": \"{}\", \"wall_secs\": {:.6}, \"blocks\": {}, \"blocks_per_sec\": {:.3}, \"availability\": {:.4}, \"peak_tracking_entries\": {}, \"topo_bytes\": {}, \"rss_peak_kb\": {}}}",
            p.nodes,
            if p.sparse { "sparse" } else { "dense" },
            p.wall_secs,
            p.report.blocks_mined,
            p.report.blocks_mined as f64 / p.wall_secs.max(1e-9),
            p.report.availability,
            p.report.peak_tracking_entries,
            p.topo_bytes,
            p.rss_peak_kb,
        ));
    }
    out.push_str("\n  ]\n}\n");
    let path = "BENCH_perf.json";
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("\nwrote {path}");
    }
}
