//! Integration test for the Fig. 5 claim: the optimal placement delivers
//! data faster than storing nothing proactively, at bounded extra
//! overhead, and fairer than random placement.

use edgechain::core::{EdgeNetwork, NetworkConfig, Placement};

fn run_avg(placement: Placement, seeds: &[u64]) -> (f64, f64, f64) {
    let mut delivery = 0.0;
    let mut overhead = 0.0;
    let mut gini = 0.0;
    for &seed in seeds {
        let cfg = NetworkConfig {
            nodes: 25,
            data_items_per_min: 1.0,
            sim_minutes: 60,
            request_interval_secs: 90,
            placement,
            seed,
            ..NetworkConfig::default()
        };
        let r = EdgeNetwork::new(cfg).unwrap().run();
        delivery += r.fetch_latency.mean.unwrap_or(0.0);
        overhead += r.mean_node_overhead_mb;
        gini += r.storage_gini;
    }
    let n = seeds.len() as f64;
    (delivery / n, overhead / n, gini / n)
}

#[test]
fn optimal_beats_no_proactive_on_delivery() {
    let seeds = [1u64, 2, 3];
    let (opt_delivery, _, _) = run_avg(Placement::Optimal, &seeds);
    let (nop_delivery, _, _) = run_avg(Placement::NoProactive, &seeds);
    assert!(
        opt_delivery < nop_delivery,
        "optimal {opt_delivery:.3}s should beat no-proactive {nop_delivery:.3}s"
    );
}

#[test]
fn optimal_overhead_comparable_to_random() {
    // Paper Fig. 5(b): "the message overhead is almost the same between two
    // different strategies". Allow a generous 50% band.
    let seeds = [4u64, 5, 6];
    let (_, opt_overhead, _) = run_avg(Placement::Optimal, &seeds);
    let (_, rnd_overhead, _) = run_avg(Placement::Random, &seeds);
    let ratio = opt_overhead / rnd_overhead;
    assert!(
        (0.5..=1.5).contains(&ratio),
        "overhead ratio {ratio:.2} (optimal {opt_overhead:.1} MB vs random {rnd_overhead:.1} MB)"
    );
}

#[test]
fn optimal_is_fairer_than_random() {
    let seeds = [7u64, 8, 9];
    let (_, _, opt_gini) = run_avg(Placement::Optimal, &seeds);
    let (_, _, rnd_gini) = run_avg(Placement::Random, &seeds);
    assert!(
        opt_gini <= rnd_gini + 0.02,
        "optimal gini {opt_gini:.3} should not exceed random {rnd_gini:.3}"
    );
}
