//! Reproduces **Fig. 5** — performance under different placement
//! strategies.
//!
//! The paper compares the proposed optimal (UFL) data placement against a
//! baseline at 1 data item/minute across node counts. The figure caption
//! names the baseline "no proactive store"; the text describes a random
//! placement "with the same number of replicas". We run all three:
//!
//! * `optimal`      — the paper's allocation (FDC + RDC via UFL),
//! * `random`       — same replica count, uniformly random storers,
//! * `no-proactive` — nothing stored proactively; consumers fetch from the
//!   producer.
//!
//! Prints the figure's two panels: (a) average data delivery time and
//! (b) average per-node transmission overhead.
//!
//! `cargo run --release -p edgechain-bench --bin fig5` (add `--full` for
//! 500-minute runs; default 120 minutes, 3 seeds).

use edgechain_bench::{mean, parse_options, table};
use edgechain_core::alloc::Placement;
use edgechain_core::network::{EdgeNetwork, NetworkConfig};

fn main() {
    let opts = parse_options(120, 3);
    let node_counts = [10usize, 20, 30, 40, 50];
    let strategies = [
        Placement::Optimal,
        Placement::Random,
        Placement::NoProactive,
    ];
    println!(
        "Fig. 5 reproduction — {} min simulated, {} seeds per cell, 1 item/min",
        opts.minutes, opts.seeds
    );

    let mut delivery = Vec::new();
    let mut overhead = Vec::new();
    for &n in &node_counts {
        let mut row_d = Vec::new();
        let mut row_o = Vec::new();
        for &placement in &strategies {
            let mut d = Vec::new();
            let mut o = Vec::new();
            for seed in 0..opts.seeds {
                let cfg = NetworkConfig {
                    nodes: n,
                    data_items_per_min: 1.0,
                    sim_minutes: opts.minutes,
                    request_interval_secs: 120,
                    placement,
                    seed: 0xF150_0000 + seed * 1000 + n as u64,
                    ..NetworkConfig::default()
                };
                let r = EdgeNetwork::new(cfg).expect("connected topology").run();
                d.push(r.fetch_latency.mean.unwrap_or(0.0));
                o.push(r.mean_node_overhead_mb);
            }
            row_d.push(mean(&d));
            row_o.push(mean(&o));
        }
        delivery.push(row_d);
        overhead.push(row_o);
        eprintln!("  … {n} nodes done");
    }

    let cols = ["optimal", "random", "no-proactive"];
    let rows = ("nodes", &node_counts[..]);
    table(
        &opts,
        "fig5a_delivery_s",
        "Fig. 5(a) — average data delivery time [s]",
        rows,
        &cols,
        &delivery,
        3,
    );
    table(
        &opts,
        "fig5b_overhead_mb",
        "Fig. 5(b) — average transmission overhead per node [MB]",
        rows,
        &cols,
        &overhead,
        1,
    );

    // Headline ratios.
    let opt: Vec<f64> = delivery.iter().map(|r| r[0]).collect();
    let rnd: Vec<f64> = delivery.iter().map(|r| r[1]).collect();
    let nop: Vec<f64> = delivery.iter().map(|r| r[2]).collect();
    println!(
        "\nsummary: optimal vs random delivery {:+.1}%, optimal vs no-proactive {:+.1}%",
        100.0 * (mean(&opt) - mean(&rnd)) / mean(&rnd),
        100.0 * (mean(&opt) - mean(&nop)) / mean(&nop),
    );
    let o_opt: Vec<f64> = overhead.iter().map(|r| r[0]).collect();
    let o_rnd: Vec<f64> = overhead.iter().map(|r| r[1]).collect();
    println!(
        "         optimal vs random overhead {:+.1}% (paper: 'almost the same')",
        100.0 * (mean(&o_opt) - mean(&o_rnd)) / mean(&o_rnd),
    );
}
