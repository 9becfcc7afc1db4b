//! Criterion microbenchmarks for the hot operations of every subsystem:
//! hashing, signing, Merkle commitment, UFL solving at evaluation sizes,
//! PoS round execution, PoW mining steps, Gini computation, the
//! end-to-end per-block allocation path, the event queue under the raft
//! workload's shape, the topology layer at the scale, raft and paper
//! shapes, the client orders of one paper-shaped UFL instance, and one
//! raft heartbeat round.
//!
//! `cargo bench -p edgechain-bench`

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use edgechain_core::alloc::{build_instance, select_storers, Placement};
use edgechain_core::pos::{run_round, Candidate};
use edgechain_core::pow::{mine, Difficulty};
use edgechain_core::storage::NodeStorage;
use edgechain_core::Identity;
use edgechain_crypto::{sha256, KeyPair, MerkleTree};
use edgechain_facility::{solve, solve_greedy, UflInstance};
use edgechain_raft::{Envelope, PeerId, RaftConfig, RaftNode, Role};
use edgechain_sim::{
    EventQueue, Field, NodeId, SimTime, Topology, TopologyConfig, Transport, TransportConfig,
};
use edgechain_telemetry::gini;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_sha256(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto/sha256");
    for size in [64usize, 1024, 65536] {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("{size}B"), |b| {
            b.iter(|| sha256(std::hint::black_box(&data)))
        });
    }
    group.finish();
}

fn bench_signatures(c: &mut Criterion) {
    let kp = KeyPair::from_seed(1);
    let msg = b"metadata payload for signing benchmarks";
    let sig = kp.sign(msg);
    c.bench_function("crypto/sign", |b| {
        b.iter(|| kp.sign(std::hint::black_box(msg)))
    });
    c.bench_function("crypto/verify", |b| {
        b.iter(|| kp.public_key().verify(std::hint::black_box(msg), &sig))
    });
}

fn bench_merkle(c: &mut Criterion) {
    let leaves: Vec<Vec<u8>> = (0..256u32).map(|i| i.to_be_bytes().to_vec()).collect();
    c.bench_function("crypto/merkle_256_leaves", |b| {
        b.iter(|| MerkleTree::from_leaves(std::hint::black_box(&leaves)))
    });
}

fn random_instance(n: usize, seed: u64) -> UflInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let fdcs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 0.05).collect();
    let costs: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| {
                    if i == j {
                        0.0
                    } else {
                        1.0 + rng.gen_range(0..5) as f64
                    }
                })
                .collect()
        })
        .collect();
    UflInstance::from_costs(&fdcs, |i, j| costs[i][j])
}

fn bench_ufl(c: &mut Criterion) {
    // Cold cases solve a clone of a never-solved instance, so each one
    // sorts its client rows; an instance that was solved before keeps them.
    let mut group = c.benchmark_group("facility/solve");
    for n in [10usize, 25, 50] {
        let inst = random_instance(n, n as u64);
        group.bench_function(format!("greedy_n{n}"), |b| {
            b.iter_batched(|| inst.clone(), |i| solve_greedy(&i), BatchSize::SmallInput)
        });
        group.bench_function(format!("greedy+ls_n{n}"), |b| {
            b.iter_batched(|| inst.clone(), |i| solve(&i), BatchSize::SmallInput)
        });
    }
    // What the allocation cache does between topology epochs: one node's
    // occupancy moved, its opening cost is patched, the instance re-solved.
    let mut patched = random_instance(50, 50);
    let costs: Vec<f64> = (0..50).map(|i| patched.open_cost(i)).collect();
    let mut step = 0usize;
    group.bench_function("solve_patched_n50", |b| {
        b.iter(|| {
            step += 1;
            let node = step % 50;
            patched.set_open_cost(node, costs[node] + (step % 7) as f64);
            solve(std::hint::black_box(&patched))
        })
    });
    // The simulator's loaded regime: an n = 50 paper-shaped instance with
    // every store 40–90 % full, solved cold (a clone of a never-solved
    // instance, so the client orders a solve walks are sorted in the
    // iteration), then patched and re-solved with its orders kept.
    let mut loaded = loaded_instance(50);
    group.bench_function("loaded_n50", |b| {
        b.iter_batched(|| loaded.clone(), |i| solve(&i), BatchSize::SmallInput)
    });
    let costs: Vec<f64> = (0..50).map(|i| loaded.open_cost(i)).collect();
    let mut step = 0usize;
    group.bench_function("loaded_patched_n50", |b| {
        b.iter(|| {
            step += 1;
            let node = step % 50;
            loaded.set_open_cost(node, costs[node] * (1.0 + (step % 7) as f64 / 50.0));
            solve(std::hint::black_box(&loaded))
        })
    });
    group.finish();
}

/// A paper-shaped n = 50 instance (random connected topology, Eq. 2 rows)
/// whose stores hold 40–90 % of their 250 slots.
fn loaded_instance(n: usize) -> UflInstance {
    let mut rng = StdRng::seed_from_u64(29);
    let topology = Topology::random_connected(n, TopologyConfig::default(), &mut rng)
        .expect("paper shape connects");
    let storage: Vec<NodeStorage> = (0..n)
        .map(|i| {
            let mut s = NodeStorage::paper_default();
            let used = s.capacity() * rng.gen_range(40..=90u64) / 100;
            for k in 0..used {
                s.store_data(edgechain_core::DataId(i as u64 * 1000 + k));
            }
            s
        })
        .collect();
    build_instance(&topology, &storage)
}

fn bench_pos_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("core/pos_round");
    for n in [10usize, 50] {
        let candidates: Vec<Candidate> = (0..n)
            .map(|i| Candidate {
                account: Identity::from_seed(i as u64).account(),
                tokens: 1 + (i as u64 % 7),
                stored_items: 1 + (i as u64 % 30),
            })
            .collect();
        let prev = sha256(b"bench");
        group.bench_function(format!("n{n}"), |b| {
            b.iter(|| run_round(std::hint::black_box(&prev), &candidates, 60))
        });
    }
    group.finish();
}

fn bench_pow(c: &mut Criterion) {
    // One expected block at difficulty 2 ≈ 256 hashes.
    c.bench_function("core/pow_block_difficulty2", |b| {
        let mut round = 0u64;
        b.iter_batched(
            || {
                round += 1;
                round
            },
            |r| mine(&r.to_be_bytes(), Difficulty::new(2), 0, 1 << 20),
            BatchSize::SmallInput,
        )
    });
}

fn bench_allocation_path(c: &mut Criterion) {
    // The per-item allocation a miner runs: build + solve on live state.
    let mut group = c.benchmark_group("core/select_storers");
    for n in [10usize, 25, 50] {
        let mut rng = StdRng::seed_from_u64(7);
        let topo = Topology::random_connected(n, TopologyConfig::default(), &mut rng).unwrap();
        let mut storage = vec![NodeStorage::paper_default(); n];
        // Partially filled stores, as mid-simulation.
        for (i, s) in storage.iter_mut().enumerate() {
            for k in 0..(i % 40) as u64 {
                s.store_data(edgechain_core::DataId(i as u64 * 1000 + k));
            }
        }
        group.bench_function(format!("n{n}"), |b| {
            b.iter(|| {
                select_storers(
                    Placement::Optimal,
                    std::hint::black_box(&topo),
                    &storage,
                    &mut rng,
                )
            })
        });
    }
    group.finish();
}

fn bench_gini(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let values: Vec<f64> = (0..10_000).map(|_| rng.gen::<f64>() * 250.0).collect();
    c.bench_function("sim/gini_10k", |b| {
        b.iter(|| gini(std::hint::black_box(&values)))
    });
}

/// One pop and one push at the `raft` workload's shape: about 8 k events
/// standing, delays of 0–4 s (radio backlog pushes deliveries that far
/// out), so most milliseconds hold a tie or two.
fn bench_event_queue(c: &mut Criterion) {
    const DEPTH: u64 = 8_192;
    const MAX_DELAY_MS: u64 = 4_000;
    let mut rng = StdRng::seed_from_u64(11);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..DEPTH {
        queue.schedule(SimTime::from_millis(rng.gen_range(0..=MAX_DELAY_MS)), i);
    }
    c.bench_function("sim/event_queue_raft_shape", |b| {
        b.iter(|| {
            let (now, event) = queue.pop().expect("standing depth");
            let delay = SimTime::from_millis(rng.gen_range(0..=MAX_DELAY_MS));
            queue.schedule(now + delay, std::hint::black_box(event));
        })
    });
}

/// The topology layer. At the `scale` workload's shape (n = 3000 on a
/// field whose side grows as `300·sqrt(n/400)`, rows filled lazily): one
/// BFS hop row, one adjacency rebuild, and one route read off the
/// source's row while the destination's is not held — each route and
/// row on a fresh copy, so none finds the previous one's row. At the
/// `raft` shape (n = 50, every row filled): one unicast, which walks the
/// destination's row. At the `paper` shape: one epoch's hop rows and one
/// mobility step.
fn bench_topology(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim/topology");
    let n = 3_000;
    let side = 300.0 * (n as f64 / 400.0).sqrt();
    let config = TopologyConfig {
        field: Field::new(side, side),
        sparse_routes: true,
        ..TopologyConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(17);
    let mut fresh = Topology::random_connected(n, config, &mut rng).expect("scale shape connects");
    let (a, b) = (NodeId(0), NodeId(n / 2));
    group.bench_function("bfs_row_n3000", |bench| {
        bench.iter_batched(|| fresh.clone(), |t| t.hops(a, b), BatchSize::LargeInput)
    });
    let from_a = fresh.clone();
    from_a.hops(a, a);
    let mut k = 0;
    group.bench_function("interval_route_n3000", |bench| {
        bench.iter_batched(
            || {
                k = (k + 7_919) % n;
                (from_a.clone(), NodeId(k))
            },
            |(t, b)| t.path(a, b),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("rebuild_n3000", |bench| {
        bench.iter(|| fresh.rebuild_routes())
    });

    let raft = Topology::random_connected(50, TopologyConfig::default(), &mut rng)
        .expect("raft shape connects");
    let mut transport = Transport::new(TransportConfig::default());
    let (mut k, mut now) = (0, SimTime::ZERO);
    group.bench_function("unicast_filled_row_n50", |bench| {
        bench.iter(|| {
            k += 1;
            now += SimTime::from_millis(1_000);
            let (src, dst) = (NodeId(k % 50), NodeId(k * 7 % 50));
            transport.unicast(&raft, src, dst, 2_048, now)
        })
    });

    // The `paper` shape's topology epoch (n = 50 on the default field):
    // every hop row of a fresh lazy copy in one sweep, and a whole eager
    // mobility step — positions, adjacency, hop rows and RDC rows.
    let mut rng = StdRng::seed_from_u64(19);
    let lazy = TopologyConfig {
        sparse_routes: true,
        ..TopologyConfig::default()
    };
    let paper = Topology::random_connected(50, lazy, &mut rng).expect("paper shape connects");
    group.bench_function("fill_all_rows_n50", |bench| {
        bench.iter_batched(
            || paper.clone(),
            |t| {
                t.fill_hop_rows(t.nodes());
                t
            },
            BatchSize::SmallInput,
        )
    });
    let mut paper = Topology::random_connected(50, TopologyConfig::default(), &mut rng)
        .expect("paper shape connects");
    group.bench_function("mobility_step_n50", |bench| {
        bench.iter(|| paper.mobility_step(&mut rng))
    });
    group.finish();
}

/// Every facility's client order of one `paper`-shaped instance (n = 50
/// RDC rows on the default field), sorted on a fresh copy: what each
/// topology epoch's first solve pays.
fn bench_client_order(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(23);
    let topology = Topology::random_connected(50, TopologyConfig::default(), &mut rng)
        .expect("paper shape connects");
    let instance = build_instance(&topology, &vec![NodeStorage::paper_default(); 50]);
    c.bench_function("facility/client_order_n50", |b| {
        b.iter_batched(
            || instance.clone(),
            |i| {
                for f in 0..i.facilities() {
                    std::hint::black_box(i.client_order(f));
                }
                i
            },
            BatchSize::SmallInput,
        )
    });
}

/// A 50-replica set with the simulator's raft timing, past its first
/// election: the leader's nodes in id order, the leader's id and the time.
fn elected_raft_set(n: usize) -> (Vec<RaftNode<u64>>, PeerId, SimTime) {
    let peers: Vec<PeerId> = (0..n).map(PeerId).collect();
    let config = RaftConfig {
        election_timeout_min: SimTime::from_millis(2_000),
        election_timeout_max: SimTime::from_millis(4_000),
        heartbeat_interval: SimTime::from_millis(500),
        pre_vote: true,
        ..RaftConfig::default()
    };
    let mut nodes: Vec<RaftNode<u64>> = peers
        .iter()
        .map(|&p| RaftNode::new(p, peers.clone(), config, p.0 as u64))
        .collect();
    // Deliver instantly, 100 ms timer polls, until someone leads.
    let (mut now, mut in_flight) = (SimTime::ZERO, Vec::new());
    let mut out = Vec::new();
    while !nodes.iter().any(|node| node.role() == Role::Leader) {
        now += SimTime::from_millis(100);
        for (i, node) in nodes.iter_mut().enumerate() {
            node.tick_into(now, &mut out);
            in_flight.extend(out.drain(..).map(|env| (PeerId(i), env)));
        }
        while let Some((from, env)) = in_flight.pop() {
            let to: PeerId = env.to;
            nodes[to.0].handle_into(from, env.message, now, &mut out);
            in_flight.extend(out.drain(..).map(|env| (to, env)));
        }
    }
    let leader = nodes
        .iter()
        .find(|node| node.role() == Role::Leader)
        .map(RaftNode::id)
        .expect("a leader was elected");
    (nodes, leader, now)
}

/// One heartbeat round on 50 replicas: the leader's due tick, every
/// follower handling its empty append, the leader handling every reply —
/// through reused outboxes, as the simulator drives them.
fn bench_raft_heartbeat(c: &mut Criterion) {
    let (mut nodes, leader, mut now) = elected_raft_set(50);
    let (mut heartbeats, mut replies, mut sink): (Vec<Envelope<u64>>, Vec<_>, Vec<_>) =
        (Vec::new(), Vec::new(), Vec::new());
    c.bench_function("raft/heartbeat_round_n50", |b| {
        b.iter(|| {
            now = nodes[leader.0].next_due();
            nodes[leader.0].tick_into(now, &mut heartbeats);
            for env in heartbeats.drain(..) {
                let to = env.to;
                nodes[to.0].handle_into(leader, env.message, now, &mut replies);
                for reply in replies.drain(..) {
                    nodes[leader.0].handle_into(to, reply.message, now, &mut sink);
                }
            }
            sink.clear();
        })
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_signatures,
    bench_merkle,
    bench_ufl,
    bench_client_order,
    bench_pos_round,
    bench_pow,
    bench_allocation_path,
    bench_gini,
    bench_event_queue,
    bench_topology,
    bench_raft_heartbeat,
);
criterion_main!(benches);
