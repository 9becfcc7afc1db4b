//! Property-based tests for the simulator: topology route invariants,
//! transport conservation laws, metric bounds, and the event queue's pop
//! order against a binary-heap reference.

use edgechain_sim::topology::COMM_RANGE;
use edgechain_sim::{
    EventQueue, Field, NodeId, Point, SimTime, Topology, TopologyConfig, Transport,
    TransportConfig, UNREACHABLE,
};
use edgechain_telemetry::{gini, SampleSet};
use proptest::prelude::*;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `EventQueue`'s bucket-ring width in milliseconds; delays around it
/// cross between the ring and the overflow heap.
const RING_MS: u64 = 4096;

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((0.0f64..300.0, 0.0f64..300.0), 2..max)
        .prop_map(|v| v.into_iter().map(Point::from).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hops_are_symmetric(points in arb_points(20)) {
        let topo = Topology::from_positions(points);
        for a in topo.nodes() {
            for b in topo.nodes() {
                prop_assert_eq!(topo.hops(a, b), topo.hops(b, a));
            }
        }
    }

    #[test]
    fn hops_satisfy_triangle_inequality(points in arb_points(16)) {
        let topo = Topology::from_positions(points);
        for a in topo.nodes() {
            for b in topo.nodes() {
                for c in topo.nodes() {
                    let ab = topo.hops(a, b);
                    let bc = topo.hops(b, c);
                    let ac = topo.hops(a, c);
                    if ab != UNREACHABLE && bc != UNREACHABLE {
                        prop_assert!(ac != UNREACHABLE);
                        prop_assert!(ac <= ab + bc);
                    }
                }
            }
        }
    }

    #[test]
    fn path_length_matches_hops(points in arb_points(16)) {
        let topo = Topology::from_positions(points);
        for a in topo.nodes() {
            for b in topo.nodes() {
                match topo.path(a, b) {
                    Some(path) => {
                        prop_assert_eq!(path.len() as u32 - 1, topo.hops(a, b));
                        prop_assert_eq!(path[0], a);
                        prop_assert_eq!(*path.last().unwrap(), b);
                        // Consecutive path nodes are radio neighbors.
                        for w in path.windows(2) {
                            prop_assert!(topo.neighbors(w[0]).any(|v| v == w[1]));
                        }
                    }
                    None => prop_assert_eq!(topo.hops(a, b), UNREACHABLE),
                }
            }
        }
    }

    /// Routes are read off the destination's hop row: each step is the
    /// lowest-id neighbour strictly closer to the destination.
    #[test]
    fn path_steps_to_lowest_id_closer_neighbor(points in arb_points(24)) {
        let topo = Topology::from_positions(points);
        for a in topo.nodes() {
            for b in topo.nodes() {
                for w in topo.path(a, b).unwrap_or_default().windows(2) {
                    let closer = topo
                        .neighbors(w[0])
                        .find(|&v| topo.hops(v, b) < topo.hops(w[0], b));
                    prop_assert_eq!(closer, Some(w[1]));
                }
            }
        }
    }

    /// Links stay symmetric through crashes and partition cuts — what lets
    /// a route be read off the destination's row instead of the source's.
    #[test]
    fn neighbors_stay_symmetric_under_faults(
        points in arb_points(24),
        crashed in prop::collection::vec(0usize..24, 0..4),
        cut in prop::collection::vec(0usize..24, 0..12),
    ) {
        let mut topo = Topology::from_positions(points);
        let n = topo.len();
        let cut: Vec<NodeId> = cut.into_iter().map(|v| NodeId(v % n)).collect();
        topo.set_partition(Some(&cut));
        for v in crashed {
            topo.set_active(NodeId(v % n), false);
        }
        for a in topo.nodes() {
            for b in topo.neighbors(a) {
                prop_assert!(topo.neighbors(b).any(|v| v == a), "{} -> {} only", a, b);
            }
            for b in topo.nodes() {
                prop_assert_eq!(topo.hops(a, b), topo.hops(b, a));
            }
        }
    }

    #[test]
    fn rdc_is_symmetric_and_nonnegative(points in arb_points(12)) {
        let topo = Topology::from_positions(points);
        for a in topo.nodes() {
            for b in topo.nodes() {
                let c = topo.rdc(a, b);
                prop_assert!(c >= 0.0);
                prop_assert_eq!(c, topo.rdc(b, a));
                if a == b {
                    prop_assert_eq!(c, 0.0);
                }
            }
        }
    }

    #[test]
    fn unicast_conserves_bytes(points in arb_points(12), bytes in 1u64..10_000_000) {
        let topo = Topology::from_positions(points);
        let mut tr = Transport::new(TransportConfig::default());
        let a = NodeId(0);
        let b = NodeId(topo.len() - 1);
        if let Ok(delivery) = tr.unicast(&topo, a, b, bytes, SimTime::ZERO) {
            let hops = topo.hops(a, b) as u64;
            prop_assert_eq!(delivery.hops as u64, hops);
            // Every hop transmits and receives the full payload once.
            prop_assert_eq!(tr.stats().total_sent(), bytes * hops);
            let total_recv: u64 = topo.nodes()
                .map(|v| tr.stats().received_bytes(v))
                .sum();
            prop_assert_eq!(total_recv, bytes * hops);
        }
    }

    #[test]
    fn unicast_arrival_increases_with_hops(points in arb_points(12)) {
        let topo = Topology::from_positions(points);
        let src = NodeId(0);
        let mut last_by_hops: Vec<(u32, SimTime)> = Vec::new();
        for dst in topo.nodes() {
            if dst == src { continue; }
            let mut tr = Transport::new(TransportConfig::default());
            if let Ok(d) = tr.unicast(&topo, src, dst, 1000, SimTime::ZERO) {
                last_by_hops.push((d.hops, d.arrival));
            }
        }
        last_by_hops.sort();
        for w in last_by_hops.windows(2) {
            if w[0].0 < w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
    }

    #[test]
    fn broadcast_reaches_exactly_the_component(points in arb_points(16)) {
        let topo = Topology::from_positions(points);
        let src = NodeId(0);
        let mut tr = Transport::new(TransportConfig::default());
        let reached: Vec<NodeId> =
            tr.broadcast(&topo, src, 100, SimTime::ZERO).into_iter().map(|(v, _)| v).collect();
        for v in topo.nodes() {
            if v == src { continue; }
            prop_assert_eq!(reached.contains(&v), topo.reachable(src, v));
        }
    }

    #[test]
    fn gini_bounded_and_translation_sensitive(values in prop::collection::vec(0.0f64..1000.0, 2..50)) {
        let g = gini(&values);
        prop_assert!((0.0..1.0).contains(&g), "gini {g}");
        // Adding a constant to every value strictly reduces inequality
        // (unless already equal).
        let shifted: Vec<f64> = values.iter().map(|v| v + 1000.0).collect();
        prop_assert!(gini(&shifted) <= g + 1e-12);
    }

    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0u64..100_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((last_t, last_i)) = last {
                prop_assert!(t >= last_t);
                // Equal times pop in insertion order.
                prop_assert!(t > last_t || i > last_i, "{} popped after {} at {}", i, last_i, t);
            }
            last = Some((t, i));
        }
    }

    /// The calendar queue pops exactly what a binary heap on `(time, seq)`
    /// pops, with the same `len()` after every operation: interleaved
    /// schedules and pops, same-millisecond bursts, scheduling at `now`,
    /// delays either side of the ring width, and idle gaps longer than the
    /// ring after draining it.
    #[test]
    fn event_queue_matches_binary_heap(
        ops in prop::collection::vec((0u8..8, 0u64..3 * RING_MS, 1usize..6), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut reference = BinaryHeap::new();
        let (mut seq, mut now) = (0u64, 0u64);
        let pop_both = |q: &mut EventQueue<u64>,
                            reference: &mut BinaryHeap<Reverse<(u64, u64)>>,
                            now: &mut u64| {
            let want = reference.pop().map(|Reverse((t, s))| (SimTime::from_millis(t), s));
            let got = q.pop();
            assert_eq!(got, want);
            if let Some((t, _)) = got {
                *now = t.as_millis();
            }
            got.is_some()
        };
        for (kind, x, burst) in ops {
            let delay = match kind {
                0 | 1 => {
                    pop_both(&mut q, &mut reference, &mut now);
                    prop_assert_eq!(q.len(), reference.len());
                    continue;
                }
                2 => {
                    while pop_both(&mut q, &mut reference, &mut now) {
                        prop_assert_eq!(q.len(), reference.len());
                    }
                    continue;
                }
                3 => 0,
                4 => x % 8,
                5 => RING_MS - 1 + x % 3,
                6 => x,
                _ => RING_MS * (2 + x % 5) + x % 7,
            };
            for _ in 0..burst {
                q.schedule(SimTime::from_millis(now + delay), seq);
                reference.push(Reverse((now + delay, seq)));
                seq += 1;
                prop_assert_eq!(q.len(), reference.len());
            }
            prop_assert_eq!(
                q.peek_time(),
                reference.peek().map(|&Reverse((t, _))| SimTime::from_millis(t))
            );
        }
        while pop_both(&mut q, &mut reference, &mut now) {
            prop_assert_eq!(q.len(), reference.len());
        }
        prop_assert!(q.is_empty());
    }

    #[test]
    fn quantiles_are_monotone_and_within_range(
        values in prop::collection::vec(-1e9f64..1e9, 1..200),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let mut s: SampleSet = values.iter().copied().collect();
        let (lo, hi) = (qa.min(qb), qa.max(qb));
        let va = s.quantile(lo).unwrap();
        let vb = s.quantile(hi).unwrap();
        prop_assert!(va <= vb, "quantiles not monotone: q{lo}={va} > q{hi}={vb}");
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((min..=max).contains(&va));
        prop_assert!((min..=max).contains(&vb));
    }

    #[test]
    fn probabilistic_flood_reach_is_subset_of_flood(
        points in arb_points(16),
        p in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let topo = Topology::from_positions(points);
        let mut full = Transport::new(TransportConfig::default());
        let reach_full: std::collections::HashSet<NodeId> = full
            .broadcast(&topo, NodeId(0), 10, SimTime::ZERO)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        let mut part = Transport::new(TransportConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let reach_part: std::collections::HashSet<NodeId> = part
            .broadcast_probabilistic(&topo, NodeId(0), 10, SimTime::ZERO, p, &mut rng)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        prop_assert!(reach_part.is_subset(&reach_full));
        prop_assert!(part.stats().total_sent() <= full.stats().total_sent());
        // Direct neighbors of the source are always reached.
        for v in topo.neighbors(NodeId(0)) {
            prop_assert!(reach_part.contains(&v));
        }
    }

    #[test]
    fn mobility_preserves_node_count_and_field(points in arb_points(16), steps in 1usize..5) {
        let mut topo = Topology::from_positions(points.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..steps {
            topo.mobility_step(&mut rng);
        }
        prop_assert_eq!(topo.len(), points.len());
        for v in topo.nodes() {
            let p = topo.position(v);
            prop_assert!(topo.config().field.contains(&p));
            prop_assert!(topo.home(v).distance(&p) <= topo.mobility_range(v) + 1e-9);
        }
    }

    /// The grid-bucket adjacency build (cells at least the radio range
    /// wide, 3×3 candidate neighborhoods) must produce exactly the
    /// neighbor lists of the brute-force all-pairs distance scan, for
    /// arbitrary placements on fields from a tenth to twenty times the
    /// paper's side — from a field inside one radio range, where the grid
    /// clamps cells to the field boundary, to one so sparse that cells
    /// widen to `sqrt(area / n)`.
    #[test]
    fn grid_bucket_adjacency_matches_brute_force(
        points in arb_points(40),
        scale in 0.1f64..20.0,
        steps in 0usize..3,
    ) {
        let points: Vec<Point> =
            points.iter().map(|p| Point::new(p.x * scale, p.y * scale)).collect();
        let config = TopologyConfig {
            field: Field::new(300.0 * scale, 300.0 * scale),
            ..TopologyConfig::default()
        };
        let mut topo = Topology::from_positions_with_config(points, config);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..steps {
            topo.mobility_step(&mut rng); // re-runs the grid build at new positions
        }
        for a in topo.nodes() {
            let mut brute: Vec<NodeId> = topo
                .nodes()
                .filter(|&b| {
                    b != a && topo.position(a).distance(&topo.position(b)) <= COMM_RANGE
                })
                .collect();
            brute.sort();
            prop_assert_eq!(
                topo.neighbors(a),
                &brute[..],
                "grid adjacency diverged from brute force at {:?}",
                a
            );
        }
    }
}
