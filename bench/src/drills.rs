//! Layer drills: timed calls into each layer's public functions, with
//! inputs built at the workload's shape.
//!
//! A drill times a fixed batch of calls over and over until its time
//! budget is spent and reports the median per-call time, so one slow
//! batch on a shared box does not move the reading. Every drill runs
//! inside its own harness span.

use crate::record::Record;
use crate::spans::Spans;
use edgechain_core::invariant::valid_items;
use edgechain_core::pos::{run_round_cached, HitTable};
use edgechain_core::{
    build_instance, codec, run_round, verify_wire_block, AllocationContext, Amendment, Block,
    Blockchain, Candidate, DataId, DataType, ForkView, Identity, InvariantChecker, InvariantView,
    Location, MetadataItem, NetworkConfig, NodeStorage, Placement, RegionParams, Snapshot,
};
use edgechain_crypto::{sha256, sha256_pair64, Digest, KeyPair, MerkleTree};
use edgechain_facility::{solve, solve_greedy};
use edgechain_raft::{Envelope, PeerId, RaftConfig, RaftNode, Role};
use edgechain_sim::{
    EventQueue, Field, NodeId, Payload, SimTime, Topology, TopologyConfig, Transport,
};
use edgechain_telemetry as telemetry;
use edgechain_workload::{OpenArrivals, TokenBucket, ZipfSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The shape a workload hands its drills.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The workload's first generated config: n, field, sparse or dense,
    /// regional or global allocation, storage slots, t0, checkpointing.
    pub config: NetworkConfig,
    /// Metadata items per drilled block: the run's mean, at least one.
    pub items_per_block: usize,
    /// Live registry size the snapshot and invariant drills carry.
    pub live_items: usize,
    /// Seed of every drill's own RNG.
    pub seed: u64,
}

/// Raft clusters above this size spend the drill on elections, not on
/// the steady-state message path the simulator pays for.
const RAFT_DRILL_MAX_NODES: usize = 50;

/// Sources whose first RDC row is timed after a rebuild.
const ROW_SOURCES: usize = 256;

/// Batches timed per drill at the least, however slow a call is.
const MIN_BATCHES: usize = 3;

/// Runs `step` in batches of `batch` until `budget` is spent and returns
/// the median nanoseconds per step. `step` returns the nanoseconds of the part
/// of it that counts (see [`clock`]), so it can build inputs off the
/// clock.
fn time_steps_ns(budget: Duration, batch: usize, mut step: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut per_step = Vec::new();
    while per_step.len() < MIN_BATCHES || start.elapsed() < budget {
        let busy: f64 = (0..batch).map(|_| step()).sum();
        per_step.push(busy / batch as f64);
    }
    crate::stats::median(&per_step)
}

/// Nanoseconds `op` takes; its result is kept from the optimizer.
fn clock<R>(op: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    black_box(op());
    start.elapsed().as_nanos() as f64
}

/// [`time_steps_ns`] for a call that needs nothing built per step.
fn time_ns<R>(budget: Duration, batch: usize, mut op: impl FnMut() -> R) -> f64 {
    time_steps_ns(budget, batch, || clock(&mut op))
}

/// A layer's drill: times calls at the shape within the budget per metric
/// and writes what it measured.
type Drill = fn(&Shape, Duration, &mut Record);

/// Runs every drill at `shape`, `budget` per timed metric, each inside its
/// own harness span, and writes the `[drill]` per-layer metrics.
pub fn run_all(shape: &Shape, budget: Duration, spans: &mut Spans, out: &mut Record) {
    let drills: [(&str, Drill); 13] = [
        ("sim.event", sim_event),
        ("sim.topology", sim_topology),
        ("sim.transport", sim_transport),
        ("facility", facility),
        ("core.alloc", core_alloc),
        ("core.pos", core_pos),
        ("core.block", core_block),
        ("core.chain", core_chain),
        ("core.invariant", core_invariant),
        ("crypto", crypto),
        ("raft", raft),
        ("workload", workload),
        ("telemetry", telemetry_cost),
    ];
    for (name, drill) in drills {
        spans.scope(&format!("drill:{name}"), |_| drill(shape, budget, out));
    }
}

fn rng_for(shape: &Shape, tag: u64) -> StdRng {
    StdRng::seed_from_u64(shape.seed ^ tag)
}

fn topology(shape: &Shape, rng: &mut StdRng) -> Topology {
    Topology::random_connected(shape.config.nodes, shape.config.topology.clone(), rng)
        .expect("the timed pass already placed this shape")
}

/// Storage managers about half full, unevenly, so FDC costs differ.
fn half_full_storage(shape: &Shape, n: usize, rng: &mut StdRng) -> Vec<NodeStorage> {
    let slots = shape.config.storage_slots;
    let mut next_id = 0u64;
    (0..n)
        .map(|_| {
            let mut s = NodeStorage::new(slots);
            for _ in 0..slots / 4 + rng.gen_range(0..=slots / 2) {
                s.store_data(DataId(next_id));
                next_id += 1;
            }
            s
        })
        .collect()
}

/// `count` signed items as the generator makes them, ids from `first_id`.
fn signed_items(shape: &Shape, keys: &KeyPair, first_id: u64, count: usize) -> Vec<MetadataItem> {
    (0..count as u64)
        .map(|i| {
            let mut item = MetadataItem::new_signed(
                keys,
                DataId(first_id + i),
                DataType::Sensing("PM2.5".into()),
                i,
                Location {
                    label: format!("field/{i}"),
                    x: i as f64,
                    y: 0.0,
                },
                shape.config.data_valid_minutes,
                None,
                shape.config.data_item_bytes,
            );
            item.storing_nodes = vec![NodeId(0), NodeId(1 % shape.config.nodes)];
            item
        })
        .collect()
}

/// A block sealed on top of `prev` the way `on_mine_block` seals one.
fn next_block(prev: &Block, miner: &Identity, metadata: Vec<MetadataItem>) -> Block {
    Block::new(
        prev.index + 1,
        prev.hash,
        prev.timestamp_secs + 6,
        edgechain_core::next_pos_hash(&prev.pos_hash, &miner.account()),
        miner.account(),
        6,
        Amendment::from_fraction(1, 1),
        metadata,
        vec![NodeId(0)],
        prev.storing_nodes.clone(),
        Vec::new(),
    )
}

fn sim_event(shape: &Shape, budget: Duration, out: &mut Record) {
    let mut rng = rng_for(shape, 0xE7);
    let depth = 10 * shape.config.nodes;
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..depth as u64 {
        queue.schedule(SimTime::from_millis(rng.gen_range(0..60_000)), i);
    }
    let ns = time_ns(budget, 4096, || {
        let (now, event) = queue.pop().expect("standing depth");
        queue.schedule(now + SimTime::from_millis(rng.gen_range(1..60_000)), event);
    });
    out.num("sim.event.push_pop_ns", ns);
}

fn sim_topology(shape: &Shape, budget: Duration, out: &mut Record) {
    let mut rng = rng_for(shape, 0x70);
    let build = time_ns(budget, 1, || topology(shape, &mut rng));
    out.num("sim.topology.build_ms", build / 1e6);

    let mut topo = topology(shape, &mut rng);
    let rebuild = time_ns(budget, 1, || topo.mobility_step(&mut rng));
    out.num("sim.topology.mobility_rebuild_ms", rebuild / 1e6);

    // First row per source after a rebuild: a BFS in sparse mode, a slice
    // of the eager table in dense mode.
    let sources = ROW_SOURCES.min(topo.len());
    let row = time_steps_ns(budget, 1, || {
        topo.rebuild_routes();
        clock(|| {
            for src in 0..sources {
                black_box(topo.rdc_row(NodeId(src * topo.len() / sources)));
            }
        })
    });
    out.num("sim.topology.row_us", row / 1e3 / sources as f64);
}

fn sim_transport(shape: &Shape, budget: Duration, out: &mut Record) {
    let mut rng = rng_for(shape, 0x7A);
    let topo = topology(shape, &mut rng);
    let n = topo.len();
    let mut transport = Transport::new(shape.config.transport);
    let mut now_ms = 0u64;
    let unicast = time_ns(budget, 256, || {
        now_ms += 1_000;
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        transport.unicast(
            &topo,
            NodeId(a),
            NodeId(b),
            2_048,
            SimTime::from_millis(now_ms),
        )
    });
    out.num("sim.transport.unicast_ns", unicast);

    let payload = Payload::from(vec![0xA5u8; 2_048]);
    let broadcast = time_ns(budget, 8, || {
        now_ms += 1_000;
        let src = NodeId(rng.gen_range(0..n));
        transport.broadcast_payload(&topo, src, &payload, SimTime::from_millis(now_ms))
    });
    out.num("sim.transport.broadcast_us", broadcast / 1e3);
}

/// The instance the solver is handed: the whole network for the global
/// allocator, one partition cell's worth of nodes at the same density for
/// the regional one (which never builds an instance over the whole
/// network; at n = 3000 that would be 72 MB of connect costs).
fn facility(shape: &Shape, budget: Duration, out: &mut Record) {
    let mut rng = rng_for(shape, 0xFA);
    let c = &shape.config;
    let topo = if c.region_alloc {
        let field = c.topology.field;
        let share = (c.region_cell_m * c.region_cell_m) / (field.width * field.height);
        let nodes = ((c.nodes as f64 * share).round() as usize).clamp(2, c.nodes);
        let config = TopologyConfig {
            field: Field::new(c.region_cell_m, c.region_cell_m),
            sparse_routes: false,
            ..c.topology.clone()
        };
        Topology::random_connected(nodes, config, &mut rng)
            .expect("a cell two radio ranges wide is connected")
    } else {
        topology(shape, &mut rng)
    };
    let storage = half_full_storage(shape, topo.len(), &mut rng);
    let instance = build_instance(&topo, &storage);
    let greedy = time_ns(budget, 4, || solve_greedy(&instance));
    out.num("facility.greedy_us", greedy / 1e3);
    let full = time_ns(budget, 4, || solve(&instance));
    out.num("facility.solve_us", full / 1e3);
}

fn core_alloc(shape: &Shape, budget: Duration, out: &mut Record) {
    let mut rng = rng_for(shape, 0xA1);
    let c = &shape.config;
    let topo = topology(shape, &mut rng);
    let storage = half_full_storage(shape, topo.len(), &mut rng);
    let mut ctx = AllocationContext::new(c.fdc_scale);
    if c.region_alloc {
        ctx = ctx.with_regions(RegionParams {
            cell_m: c.region_cell_m,
            horizon: c.region_horizon,
        });
    }
    let select = |ctx: &mut AllocationContext, rng: &mut StdRng| {
        if c.region_alloc {
            let origin = NodeId(rng.gen_range(0..topo.len()));
            ctx.select_storers_regional(Placement::Optimal, origin, &topo, &storage, rng)
        } else {
            ctx.select_storers(Placement::Optimal, &topo, &storage, rng)
        }
    };
    let cold = time_ns(budget, 1, || {
        ctx.invalidate();
        select(&mut ctx, &mut rng)
    });
    out.num("core.alloc.select_cold_us", cold / 1e3);
    let warm = time_ns(budget, 64, || select(&mut ctx, &mut rng));
    out.num("core.alloc.select_warm_us", warm / 1e3);
}

fn core_pos(shape: &Shape, budget: Duration, out: &mut Record) {
    let mut rng = rng_for(shape, 0x05);
    let candidates: Vec<Candidate> = (0..shape.config.nodes as u64)
        .map(|i| Candidate {
            account: Identity::from_seed(shape.seed.wrapping_add(i)).account(),
            tokens: rng.gen_range(1..100),
            stored_items: rng.gen_range(1..250),
        })
        .collect();
    let t0 = shape.config.block_interval_secs;
    // A fresh previous hash per call: every round is a new height.
    let mut height = 0u64;
    let mut next_prev = || {
        height += 1;
        sha256(height.to_le_bytes())
    };
    let round = time_ns(budget, 8, || run_round(&next_prev(), &candidates, t0));
    out.num("core.pos.round_us", round / 1e3);
    let mut table = HitTable::new();
    let cached = time_ns(budget, 8, || {
        run_round_cached(&next_prev(), &candidates, t0, &mut table)
    });
    out.num("core.pos.round_cached_us", cached / 1e3);
}

/// Block sealing and validation, the codec, and wire verification share
/// one sealed block of `items_per_block` signed items.
fn core_block(shape: &Shape, budget: Duration, out: &mut Record) {
    let miner = Identity::from_seed(shape.seed);
    let items = signed_items(shape, miner.keys(), 0, shape.items_per_block);
    let genesis = Block::genesis();
    let seal = time_steps_ns(budget, 16, || {
        let metadata = items.clone();
        clock(|| next_block(&genesis, &miner, metadata))
    });
    out.num("core.block.seal_us", seal / 1e3);

    let block = next_block(&genesis, &miner, items);
    let validate = time_ns(budget, 16, || block.validate_against(&genesis));
    out.num("core.block.validate_us", validate / 1e3);

    let bytes = codec::encode_block(&block);
    out.num("core.codec.block_bytes", bytes.len() as f64);
    let encode = time_ns(budget, 16, || codec::encode_block(&block));
    out.num("core.codec.encode_us", encode / 1e3);
    let decode = time_ns(budget, 16, || codec::decode_block(&bytes));
    out.num("core.codec.decode_us", decode / 1e3);

    let wire = time_ns(budget, 4, || verify_wire_block(&genesis, &block));
    out.num("core.byzantine.verify_wire_us", wire / 1e3);
}

/// A chain grown to `blocks` sealed blocks of `items_per_block` items.
fn grown_chain(shape: &Shape, miner: &Identity, blocks: u64) -> Blockchain {
    let mut chain = Blockchain::new();
    let items = signed_items(shape, miner.keys(), 0, shape.items_per_block);
    for _ in 0..blocks {
        let block = next_block(chain.tip(), miner, items.clone());
        chain.push_sealed(block).expect("sealed on the tip");
    }
    chain
}

fn core_chain(shape: &Shape, budget: Duration, out: &mut Record) {
    let c = &shape.config;
    let miner = Identity::from_seed(shape.seed);
    let items = signed_items(shape, miner.keys(), 0, shape.items_per_block);
    // What a pruning node retains: one checkpoint interval plus the
    // retention window; each checkpoint collapses one interval of blocks.
    let interval = c.checkpoint_interval.max(1);
    let retained = interval + c.prune_retention_blocks;

    let mut chain = grown_chain(shape, &miner, retained);
    let push = time_steps_ns(budget, 16, || {
        let block = next_block(chain.tip(), &miner, items.clone());
        clock(|| chain.push_sealed(block).expect("sealed on the tip"))
    });
    out.num("core.chain.push_us", push / 1e3);

    let mut chain = grown_chain(shape, &miner, retained);
    let prune = time_steps_ns(budget, 1, || {
        for _ in 0..interval {
            let block = next_block(chain.tip(), &miner, items.clone());
            chain.push_sealed(block).expect("sealed on the tip");
        }
        let cut = chain.height() - retained;
        clock(|| chain.prune_below(cut, miner.keys()))
    });
    out.num("core.chain.prune_us", prune / 1e3);

    let anchor = chain.anchor().expect("pruned above").clone();
    let suffix = chain.as_slice().to_vec();
    let tip = chain.height();
    let registry: Vec<(MetadataItem, u64)> =
        signed_items(shape, miner.keys(), 1 << 32, shape.live_items)
            .into_iter()
            .map(|item| (item, tip))
            .collect();
    let seal = time_steps_ns(budget, 1, || {
        let (anchor, blocks, registry) = (anchor.clone(), suffix.clone(), registry.clone());
        clock(|| Snapshot::seal(anchor, blocks, registry, miner.keys()))
    });
    out.num("core.chain.snapshot_seal_us", seal / 1e3);
    let snapshot = Snapshot::seal(anchor, suffix, registry, miner.keys());
    let verify = time_ns(budget, 1, || {
        assert!(snapshot.verify(), "a freshly sealed snapshot verifies")
    });
    out.num("core.chain.snapshot_verify_us", verify / 1e3);
}

/// One invariant observation as the network pays for it: collect the
/// valid items from the registry, then walk them and every node. Fork
/// views ride along where the workload arms an adversary.
fn core_invariant(shape: &Shape, budget: Duration, out: &mut Record) {
    let mut rng = rng_for(shape, 0x1A);
    let c = &shape.config;
    let n = c.nodes;
    let topo = topology(shape, &mut rng);
    let producer = Identity::from_seed(shape.seed);
    let mut storage = vec![NodeStorage::new(c.storage_slots.max(shape.live_items as u64)); n];
    let registry: Vec<(MetadataItem, u64)> =
        signed_items(shape, producer.keys(), 0, shape.live_items)
            .into_iter()
            .map(|item| {
                for v in &item.storing_nodes {
                    storage[v.0].store_data(item.data_id);
                }
                (item, 1)
            })
            .collect();
    let chain = grown_chain(shape, &producer, c.checkpoint_interval.max(1) * 2);
    let node_chains = vec![chain.clone(); if c.fault_plan.has_byzantine() { n } else { 0 }];
    let honest = vec![true; n];
    let malicious = vec![false; n];
    let heights = vec![chain.height(); n];
    let mut checker = InvariantChecker::new(SimTime::ZERO);
    // One instant, so no drilled item ever expires out of the walk.
    let now = 1;
    let observe = time_ns(budget, 4, || {
        let items = valid_items(registry.iter(), now, |_| Some(NodeId(0)));
        checker.observe(
            SimTime::from_secs(now),
            &InvariantView {
                topo: &topo,
                storage: &storage,
                malicious: &malicious,
                items: &items,
                chain_height: chain.height(),
                node_height: &heights,
                node_max_known: &heights,
                resurrected_items: 0,
                forks: (!node_chains.is_empty()).then(|| ForkView {
                    canonical: &chain,
                    node_chains: &node_chains,
                    honest: &honest,
                    checkpoint_interval: c.checkpoint_interval,
                }),
            },
        );
    });
    assert_eq!(checker.violations, 0, "the drilled view is healthy");
    out.num("core.invariant.observe_us", observe / 1e3);
}

fn crypto(_: &Shape, budget: Duration, out: &mut Record) {
    let megabyte = vec![0x5Au8; 1 << 20];
    let hash = time_ns(budget, 1, || sha256(&megabyte));
    out.num("crypto.sha256_mb_s", (1 << 20) as f64 / 1e6 / (hash / 1e9));

    let (a, b) = (sha256(b"a").0, sha256(b"b").0);
    let mut acc = a;
    let pair = time_ns(budget, 4096, || {
        acc = sha256_pair64(&acc, &b).0;
    });
    out.num("crypto.pair64_ns", pair);

    let leaves: Vec<Digest> = (0..64u64).map(|i| sha256(i.to_le_bytes())).collect();
    let merkle = time_steps_ns(budget, 16, || {
        let leaves = leaves.clone();
        clock(|| MerkleTree::from_leaf_hashes(leaves).root())
    });
    out.num("crypto.merkle_root_us", merkle / 1e3);

    let keys = KeyPair::from_seed(7);
    let message = [0x42u8; 128];
    let sign = time_ns(budget, 4, || keys.sign(&message));
    out.num("crypto.sign_us", sign / 1e3);
    let (public, signature) = (keys.public_key(), keys.sign(&message));
    let verify = time_ns(budget, 4, || assert!(public.verify(&message, &signature)));
    out.num("crypto.verify_us", verify / 1e3);
}

/// Raft replicas driven the way the simulator drives them — the
/// simulator's timeouts, a timer poll every 100 ms, every envelope
/// delivered 20 ms after it was sent — with one proposal a second on the
/// leader. Reports wall time per handled message, timer polls included.
/// (`Cluster`, the crate's own harness, re-checks election safety and log
/// matching across all pairs after every event and would time the checker.)
fn raft(shape: &Shape, budget: Duration, out: &mut Record) {
    const TICK_MS: u64 = 100;
    const DELAY_MS: u64 = 20;
    let n = shape.config.nodes.min(RAFT_DRILL_MAX_NODES);
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
        .map(|&p| RaftNode::new(p, peers.clone(), config, shape.seed ^ p.0 as u64))
        .collect();
    // Constant delay keeps the in-flight queue sorted by due time.
    let mut in_flight: VecDeque<(u64, PeerId, Envelope<u64>)> = VecDeque::new();
    let (mut now_ms, mut handled) = (0u64, 0u64);
    let mut poll = |nodes: &mut [RaftNode<u64>], handled: &mut u64| {
        now_ms += TICK_MS;
        while in_flight.front().is_some_and(|(due, ..)| *due <= now_ms) {
            let (due, from, envelope) = in_flight.pop_front().expect("checked");
            let to = envelope.to;
            *handled += 1;
            for reply in nodes[to.0].handle(from, envelope.message, SimTime::from_millis(due)) {
                in_flight.push_back((due + DELAY_MS, to, reply));
            }
        }
        for (i, node) in nodes.iter_mut().enumerate() {
            for sent in node.tick(SimTime::from_millis(now_ms)) {
                in_flight.push_back((now_ms + DELAY_MS, PeerId(i), sent));
            }
        }
    };
    for _ in 0..600 {
        if nodes.iter().any(|node| node.role() == Role::Leader) {
            break;
        }
        poll(&mut nodes, &mut handled);
    }
    let mut command = 0u64;
    let per_message = time_steps_ns(budget, 1, || {
        let before = handled;
        let took = clock(|| {
            for _second in 0..10 {
                if let Some(leader) = nodes.iter_mut().find(|node| node.role() == Role::Leader) {
                    command += 1;
                    // A leader deposed since the check refuses; the drill
                    // only needs the traffic.
                    let _ = leader.propose(command);
                }
                for _ in 0..1_000 / TICK_MS {
                    poll(&mut nodes, &mut handled);
                }
            }
        });
        took / (handled - before).max(1) as f64
    });
    out.num("raft.msg_ns", per_message);
}

fn workload(shape: &Shape, budget: Duration, out: &mut Record) {
    let mut rng = rng_for(shape, 0x3C);
    let arrivals = OpenArrivals::poisson(80.0);
    let mut t = 0.0;
    let arrival = time_ns(budget, 4096, || {
        t = arrivals.next_arrival_secs(t, &mut rng);
    });
    out.num("workload.arrival_ns", arrival);

    let zipf = ZipfSampler::new(0.9);
    let catalogue = shape.live_items.max(2);
    let sample = time_ns(budget, 4096, || zipf.sample(catalogue, &mut rng));
    out.num("workload.zipf_ns", sample);

    let mut bucket = TokenBucket::per_minute(30.0, 8.0);
    let mut now_ms = 0u64;
    let take = time_ns(budget, 4096, || {
        now_ms += 700;
        bucket.try_take(now_ms, 1.0)
    });
    out.num("workload.bucket_ns", take);
}

/// What one counter bump, one trace event and one span cost with a
/// session armed. Each batch runs in a fresh session so the event buffer
/// stays small.
fn telemetry_cost(_: &Shape, budget: Duration, out: &mut Record) {
    const BATCH: u64 = 4096;
    let in_session = |spans: bool, op: &mut dyn FnMut(u64)| {
        let per_batch = time_steps_ns(budget, 1, || {
            telemetry::enable();
            if spans {
                telemetry::enable_spans();
            }
            clock(|| (0..BATCH).for_each(&mut *op))
        });
        per_batch / BATCH as f64
    };
    let counter = in_session(false, &mut |_| telemetry::counter_add("bench.drill", 1));
    out.num("telemetry.counter_ns", counter);
    let event = in_session(false, &mut |i| {
        telemetry::trace_event!("bench.drill", i, src = i, bytes = 2_048_u64);
    });
    out.num("telemetry.event_ns", event);
    let span = in_session(true, &mut |i| {
        let s = telemetry::span_start("bench.drill", i, telemetry::SpanId::NONE);
        telemetry::span_end(s, i + 1);
    });
    out.num("telemetry.span_ns", span);
    let _ = telemetry::finish();
}
