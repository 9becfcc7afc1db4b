//! Reproduces **Fig. 4** — overall performance under different data
//! amounts and node counts.
//!
//! Paper setting: 300 m × 300 m field, 70 m range, 30 m mobility, 250-slot
//! stores, 1 MB data items, t0 = 60 s, 500-minute runs; node count swept
//! over 10–50 and network-wide data rate over 1–3 items/minute; data
//! requested by 10 % of nodes; results averaged over seeds.
//!
//! Prints three tables matching the figure's three panels:
//! (a) average per-node transmission overhead in MB,
//! (b) Gini coefficient of storage usage,
//! (c) average data delivery time in seconds.
//!
//! `cargo run --release -p edgechain-bench --bin fig4` (add `--full` for
//! the 500-minute paper-scale runs; default is 120 minutes).

use edgechain_bench::{mean, parse_options, table};
use edgechain_core::network::{EdgeNetwork, NetworkConfig};
use edgechain_sim::pool;

fn main() {
    let opts = parse_options(120, 2);
    let node_counts = [10usize, 20, 30, 40, 50];
    let rates = [1.0f64, 2.0, 3.0];
    println!(
        "Fig. 4 reproduction — {} min simulated, {} seeds per cell",
        opts.minutes, opts.seeds
    );

    // The (nodes, rate) cells are independent simulations, so the sweep
    // fans them out on the worker pool; each cell's means are a pure
    // function of its configs and seeds, so they equal a serial sweep's.
    let cells: Vec<(usize, f64)> = node_counts
        .iter()
        .flat_map(|&n| rates.iter().map(move |&rate| (n, rate)))
        .collect();
    let opts_ref = &opts;
    let results = pool::parallel_map(&cells, usize::MAX, |&(n, rate)| {
        let mut o = Vec::new();
        let mut g = Vec::new();
        let mut d = Vec::new();
        for seed in 0..opts_ref.seeds {
            let cfg = NetworkConfig {
                nodes: n,
                data_items_per_min: rate,
                sim_minutes: opts_ref.minutes,
                seed: 0xF160_0000 + seed * 1000 + n as u64,
                ..NetworkConfig::default()
            };
            let r = EdgeNetwork::new(cfg).expect("connected topology").run();
            o.push(r.mean_node_overhead_mb);
            g.push(r.storage_gini);
            d.push(r.fetch_latency.mean.unwrap_or(0.0));
        }
        (mean(&o), mean(&g), mean(&d))
    });
    eprintln!("  … all {} cells done", cells.len());

    let mut overhead = Vec::new();
    let mut gini = Vec::new();
    let mut delivery = Vec::new();
    for rows in results.chunks(rates.len()) {
        let mut row_o = Vec::new();
        let mut row_g = Vec::new();
        let mut row_d = Vec::new();
        for &(o, g, d) in rows {
            row_o.push(o);
            row_g.push(g);
            row_d.push(d);
        }
        overhead.push(row_o);
        gini.push(row_g);
        delivery.push(row_d);
    }

    let cols = ["1 item/min", "2 items/min", "3 items/min"];
    let rows = ("nodes", &node_counts[..]);
    table(
        &opts,
        "fig4a_overhead_mb",
        "Fig. 4(a) — average transmission overhead per node [MB]",
        rows,
        &cols,
        &overhead,
        1,
    );
    table(
        &opts,
        "fig4b_gini",
        "Fig. 4(b) — Gini coefficient of storage usage (paper: < 0.15)",
        rows,
        &cols,
        &gini,
        4,
    );
    table(
        &opts,
        "fig4c_delivery_s",
        "Fig. 4(c) — average data delivery time [s] (paper: ≤ ~4 s)",
        rows,
        &cols,
        &delivery,
        3,
    );
    let max_gini = gini.iter().flatten().cloned().fold(0.0, f64::max);
    let max_delivery = delivery.iter().flatten().cloned().fold(0.0, f64::max);
    println!("\nsummary: max gini {max_gini:.4} (paper bound 0.15), max delivery {max_delivery:.2} s (paper ≈4 s)");
}
