//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **FDC weight `A`** — the paper fixes `A = 1000` "after some tests".
//!    Sweeping `A` exposes the fairness ↔ access-latency trade-off the
//!    weight buys.
//! 2. **UFL solver variants** — greedy vs greedy + local search vs exact
//!    (small instances): the cost gap.
//! 3. **Recent-block allocation** — §IV-C on vs off: how much the grown
//!    caches speed up missing-block recovery under churn.
//! 4. **PoS `Q` term** — with vs without the stored-items factor in
//!    `R_i = S_i·Q_i·t·B`: does storage contribution actually buy mining
//!    share?
//! 7. **Fault sweep** — availability and repair traffic vs. node crash
//!    rate under random churn, with the UFL replica-repair sweep on/off.
//!
//! No table holds a wall time, so two runs print the same bytes.
//!
//! `cargo run --release -p edgechain-bench --bin ablation` (`--csv DIR`
//! writes tables 1, 3 and 4)

use edgechain_bench::{mean, parse_options, table, FigureOptions};
use edgechain_core::network::{EdgeNetwork, NetworkConfig};
use edgechain_core::pos::{run_round, Candidate};
use edgechain_core::Identity;
use edgechain_crypto::sha256;
use edgechain_facility::{improve, solve_exact, solve_greedy, UflInstance};
use edgechain_sim::{
    ChurnConfig, FaultPlan, NodeId, SimTime, Topology, TopologyConfig, Transport, TransportConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ablate_fdc_weight(opts: &FigureOptions) {
    let weights = [1.0f64, 10.0, 100.0, 1000.0, 10000.0];
    let mut rows = Vec::new();
    for &a in &weights {
        let mut gini = Vec::new();
        let mut delivery = Vec::new();
        let mut replicas = Vec::new();
        for seed in 0..opts.seeds {
            let cfg = NetworkConfig {
                nodes: 25,
                sim_minutes: opts.minutes,
                data_items_per_min: 2.0,
                request_interval_secs: 120,
                fdc_scale: a,
                seed: 0xAB1A + seed,
                ..NetworkConfig::default()
            };
            let r = EdgeNetwork::new(cfg).unwrap().run();
            gini.push(r.storage_gini);
            delivery.push(r.fetch_latency.mean.unwrap_or(0.0));
            replicas.push(r.mean_replicas);
        }
        rows.push(vec![mean(&gini), mean(&delivery), mean(&replicas)]);
    }
    table(
        opts,
        "ablation1_fdc_weight",
        "Ablation 1 — FDC weight A (paper: 1000). Fairness vs access cost.",
        ("A", &weights),
        &["storage gini", "delivery [s]", "replicas/item"],
        &rows,
        3,
    );
}

fn ablate_solver(seeds: u64) {
    println!("\nAblation 2 — UFL solver variants (random FDC/RDC-shaped instances)");
    println!(
        "{:<10}{:>16}{:>16}{:>14}",
        "size", "greedy cost", "greedy+LS cost", "exact cost"
    );
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / (u32::MAX as f64)
    };
    for &n in &[10usize, 12, 25, 50] {
        let mut g_cost = Vec::new();
        let mut ls_cost = Vec::new();
        let mut ex_cost = Vec::new();
        for _ in 0..seeds.max(3) {
            let fdcs: Vec<f64> = (0..n).map(|_| next() * 0.05).collect();
            let costs: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| {
                            if i == j {
                                0.0
                            } else {
                                1.0 + (next() * 4.0).floor() + 2.0 * (30.0 / 70.0)
                            }
                        })
                        .collect()
                })
                .collect();
            let inst = UflInstance::from_costs(&fdcs, |i, j| costs[i][j]);
            let mut sol = solve_greedy(&inst).unwrap();
            g_cost.push(sol.cost);
            improve(&inst, &mut sol);
            ls_cost.push(sol.cost);
            if n <= 12 {
                ex_cost.push(solve_exact(&inst).unwrap().cost);
            }
        }
        let exact_str = if ex_cost.is_empty() {
            "—".to_string()
        } else {
            format!("{:.2}", mean(&ex_cost))
        };
        println!(
            "{:<10}{:>16.2}{:>16.2}{:>14}",
            n,
            mean(&g_cost),
            mean(&ls_cost),
            exact_str
        );
    }
}

fn ablate_recent_blocks(opts: &FigureOptions) {
    let mut rows = Vec::new();
    for &enabled in &[true, false] {
        let mut recoveries = Vec::new();
        let mut latency = Vec::new();
        let mut hops = Vec::new();
        for seed in 0..opts.seeds {
            let cfg = NetworkConfig {
                nodes: 20,
                sim_minutes: opts.minutes,
                topology: TopologyConfig {
                    mobility_range: 70.0, // heavy churn to force recoveries
                    ..TopologyConfig::default()
                },
                mobility_interval_secs: 30,
                recent_block_allocation: enabled,
                seed: 0xCAC4E + seed,
                ..NetworkConfig::default()
            };
            let r = EdgeNetwork::new(cfg).unwrap().run();
            recoveries.push(r.recoveries as f64);
            latency.push(r.recovery.mean());
            hops.push(r.recovery_hops.mean());
        }
        rows.push(vec![mean(&recoveries), mean(&latency), mean(&hops)]);
    }
    table(
        opts,
        "ablation3_recent_blocks",
        "Ablation 3 — recent-block allocation (§IV-C) under heavy churn",
        ("allocation", &["enabled", "disabled"]),
        &["recoveries", "mean latency [s]", "hops to holder"],
        &rows,
        3,
    );
}

fn ablate_pos_q_term(opts: &FigureOptions) {
    // 10 nodes; nodes 0-4 store 20 items, nodes 5-9 store 1. Equal tokens.
    // With the Q term, heavy storers should win most blocks; without it,
    // wins should be uniform.
    let rounds = 600;
    let mut rows = Vec::new();
    for &use_q in &[true, false] {
        let candidates: Vec<Candidate> = (0..10)
            .map(|i| Candidate {
                account: Identity::from_seed(i).account(),
                tokens: 1,
                stored_items: if use_q && i < 5 { 20 } else { 1 },
            })
            .collect();
        let mut prev = sha256(b"ablation-q");
        let mut heavy_wins = 0u64;
        let mut interval = 0u64;
        for _ in 0..rounds {
            let out = run_round(&prev, &candidates, 60);
            if out.winner < 5 {
                heavy_wins += 1;
            }
            interval += out.delay_secs;
            prev = out.new_pos_hash;
        }
        rows.push(vec![
            100.0 * heavy_wins as f64 / rounds as f64,
            interval as f64 / rounds as f64,
        ]);
    }
    table(
        opts,
        "ablation4_pos_q",
        "Ablation 4 — PoS storage term Q_i (heavy storers = nodes 0–4)",
        ("R_i formula", &["S·Q·t·B", "S·t·B (no Q)"]),
        &["heavy-storer win %", "mean interval [s]"],
        &rows,
        1,
    );
}

fn ablate_raft_overhead(minutes: u64) {
    // The paper's §VII: raft for general consensus "transmits a large
    // number of heartbeat messages". Its cost is read off the raft-on
    // run's own counts. A raft-off twin mines, fetches and repairs along
    // another trajectory, so the difference of the two runs' totals
    // measures that divergence, not raft (it read -16.6 % at 60 minutes).
    println!("\nAblation 5 — raft general-information consensus overhead");
    let cfg = NetworkConfig {
        nodes: 15,
        sim_minutes: minutes.min(60),
        raft_consensus: true,
        seed: 0x4A57,
        ..NetworkConfig::default()
    };
    let on = EdgeNetwork::new(cfg).unwrap().run();
    println!(
        "  {} raft messages ({} heartbeats = {:.0}%), {:.2} MB raft bytes",
        on.raft_messages,
        on.raft_heartbeats,
        100.0 * on.raft_heartbeats as f64 / on.raft_messages.max(1) as f64,
        on.raft_bytes as f64 / 1e6,
    );
    // Each raft message counts once here, but once per hop and per end
    // in the per-node total: the share is a lower bound.
    let raft_mb_per_node = on.raft_bytes as f64 / 1e6 / on.nodes as f64;
    println!(
        "  raft: {:.2} MB/node of {:.1} MB/node total transfer = {:.1}% \
         (at least) — the cost the paper's conclusion flags",
        raft_mb_per_node,
        on.mean_node_overhead_mb,
        100.0 * raft_mb_per_node / on.mean_node_overhead_mb
    );
}

fn ablate_probabilistic_flooding() {
    // Block dissemination uses flooding; gossip-style probabilistic
    // rebroadcast is the classic broadcast-storm mitigation. Sweep the
    // rebroadcast probability and measure reach vs transmissions.
    println!("\nAblation 6 — probabilistic flooding (broadcast storm mitigation)");
    println!(
        "{:<8}{:>14}{:>18}{:>18}",
        "p", "reach %", "transmissions", "vs flood tx %"
    );
    let mut rng = StdRng::seed_from_u64(0xF100D);
    let trials = 20;
    // Baseline: full flooding.
    let mut flood_tx = 0u64;
    let mut topos = Vec::new();
    for _ in 0..trials {
        let topo = Topology::random_connected(30, TopologyConfig::default(), &mut rng).unwrap();
        let mut tr = Transport::new(TransportConfig::default());
        tr.broadcast(&topo, NodeId(0), 1000, SimTime::ZERO);
        flood_tx += tr.stats().total_sent() / 1000;
        topos.push(topo);
    }
    for p in [1.0f64, 0.9, 0.7, 0.5, 0.3] {
        let mut reached = 0u64;
        let mut tx = 0u64;
        for topo in &topos {
            let mut tr = Transport::new(TransportConfig::default());
            let out = tr.broadcast_probabilistic(topo, NodeId(0), 1000, SimTime::ZERO, p, &mut rng);
            reached += out.len() as u64;
            tx += tr.stats().total_sent() / 1000;
        }
        println!(
            "{:<8.1}{:>13.1}%{:>18}{:>17.1}%",
            p,
            100.0 * reached as f64 / (trials as f64 * 29.0),
            tx,
            100.0 * tx as f64 / flood_tx as f64
        );
    }
}

fn ablate_fault_sweep(minutes: u64, seeds: u64) {
    // Degradation curve: random node churn at increasing crash rates.
    // Availability should stay high while the UFL repair sweep keeps
    // replacing lost replicas; turning repair off shows what it buys.
    let minutes = minutes.min(30);
    let rates = [0.0f64, 0.25, 0.5, 1.0];
    println!("\nAblation 7 — fault sweep: availability & repair traffic vs crash rate");
    println!(
        "{:<14}{:>14}{:>16}{:>12}{:>14}{:>16}",
        "crashes/min", "avail (rep)", "avail (norep)", "repairs", "retries", "under-repl [s]"
    );
    for &rate in &rates {
        let mut avail_rep = Vec::new();
        let mut avail_norep = Vec::new();
        let mut repairs = Vec::new();
        let mut retries = Vec::new();
        let mut under = Vec::new();
        for seed in 0..seeds {
            let plan = |s: u64| {
                FaultPlan::random_churn(
                    16,
                    ChurnConfig {
                        crashes_per_min: rate,
                        mean_downtime_secs: 240.0,
                        max_concurrent_down: 5,
                        horizon: SimTime::from_secs(minutes * 60),
                    },
                    &mut StdRng::seed_from_u64(0xFA17 + s),
                )
            };
            let base = NetworkConfig {
                nodes: 16,
                sim_minutes: minutes,
                data_items_per_min: 2.0,
                request_interval_secs: 60,
                fetch_retries: 5,
                retry_backoff_ms: 4_000,
                seed: 0xFA17 + seed,
                ..NetworkConfig::default()
            };
            let with_repair = NetworkConfig {
                fault_plan: plan(seed),
                ..base.clone()
            };
            let without_repair = NetworkConfig {
                fault_plan: plan(seed),
                replica_repair: false,
                ..base
            };
            let r = EdgeNetwork::new(with_repair).unwrap().run();
            let n = EdgeNetwork::new(without_repair).unwrap().run();
            avail_rep.push(r.availability);
            avail_norep.push(n.availability);
            repairs.push(r.repairs_triggered as f64);
            retries.push(r.retries as f64);
            under.push(r.under_replicated_item_seconds);
        }
        println!(
            "{:<14.2}{:>14.3}{:>16.3}{:>12.1}{:>14.1}{:>16.1}",
            rate,
            mean(&avail_rep),
            mean(&avail_norep),
            mean(&repairs),
            mean(&retries),
            mean(&under)
        );
    }
}

fn main() {
    let opts = parse_options(60, 2);
    println!(
        "Design ablations — {} min per network run, {} seeds",
        opts.minutes, opts.seeds
    );
    ablate_fdc_weight(&opts);
    ablate_solver(opts.seeds);
    ablate_recent_blocks(&opts);
    ablate_pos_q_term(&opts);
    ablate_raft_overhead(opts.minutes);
    ablate_probabilistic_flooding();
    ablate_fault_sweep(opts.minutes, opts.seeds);
}
