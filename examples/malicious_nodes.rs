//! Malicious storing nodes: denial, invalidation, and routing around.
//!
//! Paper §III-B.2: "another malicious behavior is to deny storing or
//! offering data to the demanding user. … If a node requests data and does
//! not get any response, it then claims that the data is invalid. Everyone
//! will be informed of this information, and this data storage will be
//! marked as invalid. … Unless all replicas of this piece of data are
//! stored at malicious nodes, there will always be available data pieces."
//!
//! This example sweeps the malicious fraction and shows exactly that
//! behavior: denials rise, the invalidation blacklist bounds repeat
//! denials, and completion rates degrade gracefully because requesters
//! fall back to honest replicas and the producer's origin copy.
//!
//! Run with: `cargo run --release --example malicious_nodes`

use edgechain::core::{EdgeNetwork, NetworkConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== deny-of-service storers: 20 nodes, 90 min, 2 items/min ===\n");
    println!(
        "{:<12}{:>10}{:>12}{:>12}{:>14}{:>14}",
        "malicious", "denials", "completed", "failed", "success rate", "delivery [s]"
    );
    for pct in [0.0, 0.1, 0.2, 0.3, 0.5] {
        let cfg = NetworkConfig {
            nodes: 20,
            data_items_per_min: 2.0,
            sim_minutes: 90,
            request_interval_secs: 90,
            malicious_fraction: pct,
            seed: 31337,
            ..NetworkConfig::default()
        };
        let r = EdgeNetwork::new(cfg)?.run();
        let total = r.fetch_latency.count + r.failed_requests;
        println!(
            "{:<12}{:>10}{:>12}{:>12}{:>13.1}%{:>14.3}",
            format!("{:.0}%", pct * 100.0),
            r.denials,
            r.fetch_latency.count,
            r.failed_requests,
            100.0 * r.fetch_latency.count as f64 / total.max(1) as f64,
            r.fetch_latency.mean.unwrap_or(0.0),
        );
    }
    println!(
        "\neach denial publishes an invalidation, so a malicious storer is\n\
         asked at most once per data item; honest replicas and the producer\n\
         fallback keep the success rate high until most of the network is\n\
         malicious — the behavior §III-B.2 argues for."
    );
    Ok(())
}
