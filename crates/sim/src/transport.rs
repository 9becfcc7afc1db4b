//! Store-and-forward message transport over a [`Topology`].
//!
//! Models what the paper measured through Docker + sockets: propagation
//! delay (10 ms per hop over 802.11), transmission delay (`bytes /
//! bandwidth`), and queueing delay (each node's radio is half-duplex and
//! serves one outgoing frame at a time, tracked with a per-node
//! `busy_until` horizon). Every transmission is also charged to per-node
//! byte counters, which later feed the Fig. 4(a)/5(b) overhead metrics.
//!
//! A broadcast is a flood in BFS order by arrival: each reached node that
//! rebroadcasts walks its neighbour list once, transmitting one frame if
//! anyone on it is still uncovered, and every flood returns the flat
//! `(node, arrival)` list of the nodes it reached.

use crate::event::SimTime;
use crate::topology::{NodeId, Route, Topology};
use edgechain_telemetry::{self as telemetry, trace_event};
use std::fmt;
use std::sync::Arc;

/// An immutable message payload shared by reference: every consumer of a
/// broadcast (each delivery, each store, each re-serve) clones the `Arc`,
/// not the bytes. Built once from a block's wire encoding and handed to
/// [`Transport::broadcast_payload`].
#[derive(Debug, Clone)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// Wraps already-shared bytes without copying.
    pub fn new(bytes: Arc<[u8]>) -> Self {
        Payload(bytes)
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The payload bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// Another handle to the same allocation (an `Arc` clone).
    pub fn shared(&self) -> Arc<[u8]> {
        Arc::clone(&self.0)
    }

    /// A deterministically scrambled copy: every byte is XORed with a
    /// value derived from `seed` and its offset (a splitmix-style hash),
    /// guaranteeing at least the leading format byte changes. Models a
    /// corrupted-on-the-wire or adversarially garbled frame; the copy is a
    /// fresh allocation, the original is untouched.
    pub fn scrambled(&self, seed: u64) -> Payload {
        let mut out: Vec<u8> = self.0.to_vec();
        for (i, b) in out.iter_mut().enumerate() {
            let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let mask = (z >> 56) as u8;
            // Force a flip even when the derived mask is zero.
            *b ^= mask | 1;
        }
        Payload(out.into())
    }

    /// A truncated prefix copy of at most `len` bytes. Models a frame cut
    /// short mid-transmission.
    pub fn truncated(&self, len: usize) -> Payload {
        Payload(self.0[..len.min(self.0.len())].to_vec().into())
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload(bytes.into())
    }
}

impl From<Arc<[u8]>> for Payload {
    fn from(bytes: Arc<[u8]>) -> Self {
        Payload(bytes)
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for Payload {}

/// Transport parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportConfig {
    /// One-hop propagation delay (paper: 10 ms, typical 802.11).
    pub hop_delay: SimTime,
    /// Effective per-node radio throughput in bytes/second. The default
    /// (2.5 MB/s ≈ 20 Mbit/s) is a conservative 802.11n figure, giving
    /// ~0.4 s per hop for a 1 MB data item — in line with the ≤4 s delivery
    /// times of Fig. 4(c).
    pub bandwidth: f64,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            hop_delay: SimTime::from_millis(10),
            bandwidth: 2_500_000.0,
        }
    }
}

/// Result of a successful unicast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the last byte reaches the destination.
    pub arrival: SimTime,
    /// Number of hops traversed (0 for self-delivery).
    pub hops: u32,
}

/// Per-node traffic accounting.
#[derive(Debug, Clone, Default)]
pub struct TrafficStats {
    sent: Vec<u64>,
    received: Vec<u64>,
}

impl TrafficStats {
    fn ensure(&mut self, n: usize) {
        if self.sent.len() < n {
            self.sent.resize(n, 0);
            self.received.resize(n, 0);
        }
    }

    /// Bytes transmitted by `node` (including forwarded traffic).
    pub fn sent_bytes(&self, node: NodeId) -> u64 {
        self.sent.get(node.0).copied().unwrap_or(0)
    }

    /// Bytes received by `node` (including forwarded traffic).
    pub fn received_bytes(&self, node: NodeId) -> u64 {
        self.received.get(node.0).copied().unwrap_or(0)
    }

    /// Total bytes transmitted network-wide.
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Mean per-node transfer volume (sent + received) in bytes: the
    /// "transmission overhead" of Fig. 4(a)/5(b).
    pub fn mean_node_overhead(&self) -> f64 {
        if self.sent.is_empty() {
            return 0.0;
        }
        let total: u64 = self
            .sent
            .iter()
            .zip(&self.received)
            .map(|(s, r)| s + r)
            .sum();
        total as f64 / self.sent.len() as f64
    }
}

/// Errors from the transport layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// Destination is not reachable in the current topology snapshot.
    Unreachable {
        /// Message source.
        src: NodeId,
        /// Intended destination.
        dst: NodeId,
    },
    /// The message was lost to injected link loss (fault injection); the
    /// sender gets no signal beyond its own retry timeout.
    Dropped {
        /// Message source.
        src: NodeId,
        /// Intended destination.
        dst: NodeId,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Unreachable { src, dst } => {
                write!(f, "{dst} unreachable from {src} in current topology")
            }
            TransportError::Dropped { src, dst } => {
                write!(f, "message from {src} to {dst} lost to link loss")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// The transport layer: queueing state plus traffic statistics, plus the
/// fault-injection knobs ([link loss](Transport::set_loss_prob) and
/// [latency multiplier](Transport::set_latency_factor)) that the
/// [`FaultInjector`](crate::fault::FaultInjector) toggles.
#[derive(Debug, Clone)]
pub struct Transport {
    config: TransportConfig,
    busy_until: Vec<SimTime>,
    stats: TrafficStats,
    /// Per-message loss probability (fault injection; 0 = lossless).
    loss_prob: f64,
    /// Multiplier on propagation and transmission delay (fault injection;
    /// 1 = nominal).
    latency_factor: f64,
    /// Messages lost to injected link loss.
    dropped: u64,
    /// Dedicated RNG for loss draws, seeded separately from the
    /// simulation's master RNG so enabling faults never perturbs the rest
    /// of the random stream.
    fault_rng: rand::rngs::StdRng,
    /// Flood coverage, one flag per node: set for the nodes a flood has
    /// covered, all clear between floods.
    covered: Vec<bool>,
}

impl Default for Transport {
    fn default() -> Self {
        Transport::new(TransportConfig::default())
    }
}

impl Transport {
    /// Creates a transport with the given configuration, lossless and at
    /// nominal latency.
    pub fn new(config: TransportConfig) -> Self {
        use rand::SeedableRng;
        Transport {
            config,
            busy_until: Vec::new(),
            stats: TrafficStats::default(),
            loss_prob: 0.0,
            latency_factor: 1.0,
            dropped: 0,
            fault_rng: rand::rngs::StdRng::seed_from_u64(0x70A5),
            covered: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TransportConfig {
        &self.config
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Reseeds the loss-draw RNG (call once at setup for reproducible
    /// fault runs).
    pub fn seed_faults(&mut self, seed: u64) {
        use rand::SeedableRng;
        self.fault_rng = rand::rngs::StdRng::seed_from_u64(seed);
    }

    /// Sets the per-message loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= prob <= 1.0`.
    pub fn set_loss_prob(&mut self, prob: f64) {
        assert!(
            (0.0..=1.0).contains(&prob),
            "loss probability must be in [0, 1]"
        );
        self.loss_prob = prob;
    }

    /// The current per-message loss probability.
    pub fn loss_prob(&self) -> f64 {
        self.loss_prob
    }

    /// Sets the delay multiplier applied to both transmission and
    /// propagation time.
    ///
    /// # Panics
    ///
    /// Panics unless `factor >= 1.0` (faults slow links down, never up).
    pub fn set_latency_factor(&mut self, factor: f64) {
        assert!(factor >= 1.0, "latency factor must be >= 1");
        self.latency_factor = factor;
    }

    /// The current delay multiplier.
    pub fn latency_factor(&self) -> f64 {
        self.latency_factor
    }

    /// Messages lost to injected link loss so far.
    pub fn messages_dropped(&self) -> u64 {
        self.dropped
    }

    fn tx_time(&self, bytes: u64) -> SimTime {
        let nominal = bytes as f64 / self.config.bandwidth;
        SimTime::from_secs_f64(nominal * self.latency_factor)
    }

    fn hop_delay(&self) -> SimTime {
        if self.latency_factor == 1.0 {
            self.config.hop_delay
        } else {
            SimTime::from_secs_f64(self.config.hop_delay.as_secs_f64() * self.latency_factor)
        }
    }

    /// Deterministic Bernoulli loss draw (only consulted when lossy).
    fn message_lost(&mut self) -> bool {
        use rand::Rng;
        self.loss_prob > 0.0 && self.fault_rng.gen_bool(self.loss_prob)
    }

    fn ensure(&mut self, n: usize) {
        if self.busy_until.len() < n {
            self.busy_until.resize(n, SimTime::ZERO);
            self.covered.resize(n, false);
        }
        self.stats.ensure(n);
    }

    /// Sends `bytes` from `src` to `dst` along the current shortest path,
    /// charging transmission time and queueing at every forwarding node.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Unreachable`] when no path exists, and
    /// [`TransportError::Dropped`] when injected link loss eats the
    /// message. A dropped message still cost the first hop its airtime
    /// (the frame was transmitted; it just never arrived intact).
    pub fn unicast(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        now: SimTime,
    ) -> Result<Delivery, TransportError> {
        self.ensure(topo.len());
        if src == dst {
            return Ok(Delivery {
                arrival: now,
                hops: 0,
            });
        }
        let route = topo
            .route(src, dst)
            .ok_or(TransportError::Unreachable { src, dst })?;
        let tx = self.tx_time(bytes);
        if self.message_lost() {
            // The source transmitted a doomed frame: charge its airtime and
            // bytes, then report the loss.
            let depart = now.max(self.busy_until[src.0]);
            self.busy_until[src.0] = depart + tx;
            self.stats.sent[src.0] += bytes;
            self.dropped += 1;
            trace_event!(
                "transport.drop",
                now.as_millis(),
                src = src.0,
                dst = dst.0,
                bytes = bytes
            );
            return Err(TransportError::Dropped { src, dst });
        }
        // One dispatch per message, not per hop: the filled-row walk and
        // the interval's collected route each get their own hop loop.
        let (t, hops) = match route {
            Route::Walk(route) => self.carry(route, src, bytes, tx, now),
            Route::Interval(route) => self.carry(route, src, bytes, tx, now),
        };
        if telemetry::is_enabled() {
            telemetry::counter_add("transport.sends", 1);
            telemetry::record("transport.hops", hops as f64);
            telemetry::record(
                "transport.unicast_ms",
                t.saturating_since(now).as_millis() as f64,
            );
            trace_event!(
                "transport.send",
                now.as_millis(),
                src = src.0,
                dst = dst.0,
                bytes = bytes,
                hops = hops,
                dur_ms = t.saturating_since(now).as_millis()
            );
        }
        Ok(Delivery { arrival: t, hops })
    }

    /// Store-and-forward along `route`, the nodes after `src`: queueing
    /// and `tx` airtime at every forwarder, byte counts on both ends of
    /// every hop. Returns the arrival time and the hop count.
    #[inline]
    fn carry(
        &mut self,
        route: impl ExactSizeIterator<Item = NodeId>,
        src: NodeId,
        bytes: u64,
        tx: SimTime,
        now: SimTime,
    ) -> (SimTime, u32) {
        let hops = route.len() as u32;
        let hop_delay = self.hop_delay();
        let busy_until = &mut self.busy_until[..];
        let (sent, received) = (&mut self.stats.sent[..], &mut self.stats.received[..]);
        let mut t = now;
        let mut u = src;
        for v in route {
            let depart = t.max(busy_until[u.0]);
            let done = depart + tx;
            busy_until[u.0] = done;
            t = done + hop_delay;
            sent[u.0] += bytes;
            received[v.0] += bytes;
            u = v;
        }
        (t, hops)
    }

    /// Floods `bytes` from `src` to every reachable node (classic flooding:
    /// each reached node rebroadcasts once). Returns `(node, arrival)` for
    /// every node other than `src` that the flood reaches, in BFS order.
    ///
    /// Queueing is charged at each rebroadcasting node; a broadcast frame is
    /// transmitted once per node and received once per reached node, which
    /// matches single-channel radio flooding.
    pub fn broadcast(
        &mut self,
        topo: &Topology,
        src: NodeId,
        bytes: u64,
        now: SimTime,
    ) -> Vec<(NodeId, SimTime)> {
        self.flood(topo, src, bytes, now, |_| true)
    }

    /// [`Transport::broadcast`] of `payload.len()` bytes: the same
    /// deliveries, accounting, loss draws and telemetry. The caller keeps
    /// the one `Payload` and hands every recipient a clone of its `Arc`.
    pub fn broadcast_payload(
        &mut self,
        topo: &Topology,
        src: NodeId,
        payload: &Payload,
        now: SimTime,
    ) -> Vec<(NodeId, SimTime)> {
        self.broadcast(topo, src, payload.len() as u64, now)
    }

    /// Probabilistic flooding (gossip-style broadcast-storm mitigation):
    /// the source always transmits; every other node that receives the
    /// message rebroadcasts with probability `rebroadcast_prob`. With
    /// `p = 1` this is exactly [`Transport::broadcast`]; lower `p` trades
    /// reach for fewer transmissions — the classic remedy for the
    /// broadcast storm problem in wireless multi-hop networks.
    ///
    /// Returns `(node, arrival)` for every node the flood reaches.
    ///
    /// # Panics
    ///
    /// Panics if `rebroadcast_prob` is not within `[0, 1]`.
    pub fn broadcast_probabilistic<R: rand::Rng + ?Sized>(
        &mut self,
        topo: &Topology,
        src: NodeId,
        bytes: u64,
        now: SimTime,
        rebroadcast_prob: f64,
        rng: &mut R,
    ) -> Vec<(NodeId, SimTime)> {
        assert!(
            (0.0..=1.0).contains(&rebroadcast_prob),
            "rebroadcast probability must be in [0, 1]"
        );
        let forwards = |u: NodeId| u == src || rng.gen::<f64>() < rebroadcast_prob;
        self.flood(topo, src, bytes, now, forwards)
    }

    /// The one flooding loop: BFS by arrival time, each reached node
    /// taken from the delivery list it is appended to. `forwards` is
    /// asked once per dequeued node, before its neighbours are looked at,
    /// so a rule that draws randomness draws for every reached node in BFS
    /// order. One walk of a forwarder's neighbour list both decides and
    /// sends: its first uncovered neighbour charges the one transmission,
    /// before that neighbour's loss draw, and every neighbour it covers
    /// arrives at that transmission's `reach` time. A forwarder with no
    /// uncovered neighbour transmits nothing. `covered` marks the source
    /// and every delivery, and is cleared from them on the way out.
    fn flood(
        &mut self,
        topo: &Topology,
        src: NodeId,
        bytes: u64,
        now: SimTime,
        mut forwards: impl FnMut(NodeId) -> bool,
    ) -> Vec<(NodeId, SimTime)> {
        self.ensure(topo.len());
        let tx = self.tx_time(bytes);
        let hop_delay = self.hop_delay();
        let mut covered = std::mem::take(&mut self.covered);
        covered[src.0] = true;
        let mut deliveries: Vec<(NodeId, SimTime)> = Vec::new();
        let (mut next, mut head) = (Some((src, now)), 0);
        while let Some((u, t_u)) = next {
            if forwards(u) {
                let mut reach = None;
                for v in topo.neighbors(u) {
                    if covered[v.0] {
                        continue;
                    }
                    let reach = *reach.get_or_insert_with(|| {
                        // One transmission reaches all (new) neighbours.
                        let done = t_u.max(self.busy_until[u.0]) + tx;
                        self.busy_until[u.0] = done;
                        self.stats.sent[u.0] += bytes;
                        done + hop_delay
                    });
                    // Injected link loss applies per reception: a neighbour
                    // that misses the frame may still be covered by a later
                    // rebroadcast from another neighbour.
                    if self.message_lost() {
                        self.dropped += 1;
                        continue;
                    }
                    covered[v.0] = true;
                    self.stats.received[v.0] += bytes;
                    deliveries.push((v, reach));
                }
            }
            next = deliveries.get(head).copied();
            head += 1;
        }
        covered[src.0] = false;
        for &(v, _) in &deliveries {
            covered[v.0] = false;
        }
        self.covered = covered;
        let reached = deliveries.len();
        telemetry::counter_add("transport.broadcasts", 1);
        if telemetry::is_enabled() {
            telemetry::record("transport.broadcast_reach", reached as f64);
        }
        trace_event!(
            "transport.broadcast",
            now.as_millis(),
            src = src.0,
            bytes = bytes,
            reached = reached
        );
        deliveries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Point;
    use proptest::prelude::*;

    fn line(n: usize) -> Topology {
        Topology::from_positions((0..n).map(|i| Point::new(i as f64 * 60.0, 0.0)).collect())
    }

    #[test]
    fn self_delivery_is_free() {
        let topo = line(3);
        let mut tr = Transport::new(TransportConfig::default());
        let d = tr
            .unicast(&topo, NodeId(1), NodeId(1), 1_000_000, SimTime::ZERO)
            .unwrap();
        assert_eq!(d.hops, 0);
        assert_eq!(d.arrival, SimTime::ZERO);
        assert_eq!(tr.stats().total_sent(), 0);
    }

    #[test]
    fn unicast_latency_scales_with_hops() {
        let topo = line(4);
        let mut tr = Transport::new(TransportConfig::default());
        let one = tr
            .unicast(&topo, NodeId(0), NodeId(1), 1_000_000, SimTime::ZERO)
            .unwrap();
        let mut tr2 = Transport::new(TransportConfig::default());
        let three = tr2
            .unicast(&topo, NodeId(0), NodeId(3), 1_000_000, SimTime::ZERO)
            .unwrap();
        assert_eq!(one.hops, 1);
        assert_eq!(three.hops, 3);
        assert_eq!(three.arrival.as_millis(), 3 * one.arrival.as_millis());
        // 1 MB at 2.5 MB/s = 400 ms + 10 ms prop.
        assert_eq!(one.arrival.as_millis(), 410);
    }

    #[test]
    fn queueing_serializes_transmissions() {
        let topo = line(2);
        let mut tr = Transport::new(TransportConfig::default());
        let a = tr
            .unicast(&topo, NodeId(0), NodeId(1), 1_000_000, SimTime::ZERO)
            .unwrap();
        let b = tr
            .unicast(&topo, NodeId(0), NodeId(1), 1_000_000, SimTime::ZERO)
            .unwrap();
        // Second message waits for the first transmission to finish.
        assert_eq!(b.arrival.as_millis(), a.arrival.as_millis() + 400);
    }

    #[test]
    fn unreachable_reported() {
        let topo = Topology::from_positions(vec![Point::new(0.0, 0.0), Point::new(250.0, 250.0)]);
        let mut tr = Transport::new(TransportConfig::default());
        let err = tr
            .unicast(&topo, NodeId(0), NodeId(1), 10, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(
            err,
            TransportError::Unreachable {
                src: NodeId(0),
                dst: NodeId(1)
            }
        );
    }

    #[test]
    fn byte_accounting_charges_forwarders() {
        let topo = line(3);
        let mut tr = Transport::new(TransportConfig::default());
        tr.unicast(&topo, NodeId(0), NodeId(2), 100, SimTime::ZERO)
            .unwrap();
        let s = tr.stats();
        assert_eq!(s.sent_bytes(NodeId(0)), 100);
        assert_eq!(s.sent_bytes(NodeId(1)), 100); // forwarder transmits too
        assert_eq!(s.received_bytes(NodeId(1)), 100);
        assert_eq!(s.received_bytes(NodeId(2)), 100);
        assert_eq!(s.total_sent(), 200);
    }

    #[test]
    fn broadcast_reaches_everyone_once() {
        let topo = line(5);
        let mut tr = Transport::new(TransportConfig::default());
        let deliveries = tr.broadcast(&topo, NodeId(0), 1000, SimTime::ZERO);
        assert_eq!(deliveries.len(), 4);
        // Arrivals strictly increase along the chain.
        let mut sorted = deliveries.clone();
        sorted.sort_by_key(|(n, _)| n.0);
        for w in sorted.windows(2) {
            assert!(w[1].1 > w[0].1);
        }
        // Each of nodes 0..=3 transmits once (node 4 has no new neighbors).
        assert_eq!(tr.stats().total_sent(), 4 * 1000);
        for v in 1..5 {
            assert_eq!(tr.stats().received_bytes(NodeId(v)), 1000);
        }
    }

    #[test]
    fn broadcast_on_partition_covers_only_component() {
        let topo = Topology::from_positions(vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(290.0, 290.0),
        ]);
        let mut tr = Transport::new(TransportConfig::default());
        let deliveries = tr.broadcast(&topo, NodeId(0), 10, SimTime::ZERO);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, NodeId(1));
    }

    #[test]
    fn probabilistic_flood_with_p1_matches_flooding() {
        use rand::SeedableRng;
        let topo = line(6);
        let mut flood = Transport::new(TransportConfig::default());
        let reach_flood = flood.broadcast(&topo, NodeId(0), 100, SimTime::ZERO);
        let mut prob = Transport::new(TransportConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let reach_prob =
            prob.broadcast_probabilistic(&topo, NodeId(0), 100, SimTime::ZERO, 1.0, &mut rng);
        assert_eq!(reach_flood, reach_prob);
        assert_eq!(flood.stats().total_sent(), prob.stats().total_sent());
    }

    #[test]
    fn probabilistic_flood_with_p0_reaches_only_neighbors() {
        use rand::SeedableRng;
        let topo = line(6);
        let mut tr = Transport::new(TransportConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let reached =
            tr.broadcast_probabilistic(&topo, NodeId(2), 100, SimTime::ZERO, 0.0, &mut rng);
        let mut nodes: Vec<NodeId> = reached.into_iter().map(|(v, _)| v).collect();
        nodes.sort();
        assert_eq!(nodes, vec![NodeId(1), NodeId(3)]);
        assert_eq!(tr.stats().total_sent(), 100); // only the source transmits
    }

    #[test]
    fn probabilistic_flood_never_costs_more_than_flooding() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let topo = crate::topology::Topology::random_connected(
            25,
            crate::topology::TopologyConfig::default(),
            &mut rng,
        )
        .unwrap();
        let mut flood = Transport::new(TransportConfig::default());
        flood.broadcast(&topo, NodeId(0), 1000, SimTime::ZERO);
        for p in [0.3, 0.6, 0.9] {
            let mut tr = Transport::new(TransportConfig::default());
            tr.broadcast_probabilistic(&topo, NodeId(0), 1000, SimTime::ZERO, p, &mut rng);
            assert!(
                tr.stats().total_sent() <= flood.stats().total_sent(),
                "p={p} sent more than flooding"
            );
        }
    }

    /// Pins `broadcast_probabilistic` under link loss from fixed seeds:
    /// the deliveries, the drops, each node's bytes and where the caller's
    /// RNG stands afterwards, so neither the rebroadcast draws nor the
    /// loss draws can change order.
    #[test]
    fn probabilistic_flood_under_loss_is_pinned() {
        use rand::{Rng, SeedableRng};
        const BYTES: u64 = 50_000;
        // A 5 × 5 grid at 45 m: each node hears its (up to) eight
        // neighbours inside the 70 m range. Node 12 is the centre.
        let topo = Topology::from_positions(
            (0..25)
                .map(|i| Point::new((i % 5) as f64 * 45.0, (i / 5) as f64 * 45.0))
                .collect(),
        );
        let first: [(usize, u64); 20] = [
            (6, 1030),
            (7, 1030),
            (8, 1030),
            (11, 1030),
            (13, 1030),
            (16, 1030),
            (17, 1030),
            (18, 1030),
            (2, 1060),
            (3, 1060),
            (9, 1060),
            (14, 1060),
            (10, 1060),
            (15, 1060),
            (20, 1060),
            (21, 1060),
            (22, 1060),
            (19, 1060),
            (23, 1060),
            (24, 1060),
        ];
        /// Deliveries after the shared first 20, drops, the nodes that
        /// transmitted, the nodes that received nothing, and the next
        /// draw of the caller's RNG.
        struct Pin {
            p: f64,
            rest: &'static [(usize, u64)],
            dropped: u64,
            senders: &'static [usize],
            unreached: &'static [usize],
            next: u64,
        }
        let pins = [
            Pin {
                p: 0.3,
                rest: &[(4, 1090)],
                dropped: 1,
                senders: &[3, 8, 12, 16, 18],
                unreached: &[0, 1, 5, 12],
                next: 0x5a25_d92e_f7c7_1055,
            },
            Pin {
                p: 0.7,
                rest: &[(1, 1090), (4, 1090), (5, 1120), (0, 1150)],
                dropped: 3,
                senders: &[1, 2, 3, 5, 8, 9, 12, 16, 18],
                unreached: &[12],
                next: 0x040e_0b20_05dd_bc30,
            },
        ];
        for Pin {
            p,
            rest,
            dropped,
            senders,
            unreached,
            next,
        } in pins
        {
            let mut tr = Transport::new(TransportConfig::default());
            tr.seed_faults(0x5EED);
            tr.set_loss_prob(0.2);
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1CE);
            let src = NodeId(12);
            let out =
                tr.broadcast_probabilistic(&topo, src, BYTES, SimTime::from_secs(1), p, &mut rng);
            let got: Vec<(usize, u64)> = out.iter().map(|(v, t)| (v.0, t.as_millis())).collect();
            let want: Vec<(usize, u64)> = first.iter().chain(rest).copied().collect();
            assert_eq!(got, want, "p={p}");
            assert_eq!(tr.messages_dropped(), dropped, "p={p}");
            for i in 0..topo.len() {
                let sent = if senders.contains(&i) { BYTES } else { 0 };
                let received = if unreached.contains(&i) { 0 } else { BYTES };
                assert_eq!(tr.stats().sent_bytes(NodeId(i)), sent, "p={p} node {i}");
                assert_eq!(
                    tr.stats().received_bytes(NodeId(i)),
                    received,
                    "p={p} node {i}"
                );
            }
            assert_eq!(rng.gen::<u64>(), next, "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "probability must be in")]
    fn probabilistic_flood_rejects_bad_probability() {
        use rand::SeedableRng;
        let topo = line(2);
        let mut tr = Transport::new(TransportConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let _ = tr.broadcast_probabilistic(&topo, NodeId(0), 1, SimTime::ZERO, 1.5, &mut rng);
    }

    #[test]
    fn total_loss_drops_every_unicast() {
        let topo = line(3);
        let mut tr = Transport::new(TransportConfig::default());
        tr.set_loss_prob(1.0);
        let err = tr
            .unicast(&topo, NodeId(0), NodeId(2), 500, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(
            err,
            TransportError::Dropped {
                src: NodeId(0),
                dst: NodeId(2)
            }
        );
        assert_eq!(tr.messages_dropped(), 1);
        // The doomed frame still burned the source's airtime and bytes.
        assert_eq!(tr.stats().sent_bytes(NodeId(0)), 500);
        assert_eq!(tr.stats().received_bytes(NodeId(2)), 0);
    }

    #[test]
    fn lossless_transport_never_consults_the_fault_rng() {
        let topo = line(4);
        let mut a = Transport::new(TransportConfig::default());
        let mut b = Transport::new(TransportConfig::default());
        b.seed_faults(0xDEAD_BEEF); // different fault seed, same traffic
        for _ in 0..20 {
            let da = a.unicast(&topo, NodeId(0), NodeId(3), 1000, SimTime::ZERO);
            let db = b.unicast(&topo, NodeId(0), NodeId(3), 1000, SimTime::ZERO);
            assert_eq!(da.unwrap(), db.unwrap());
        }
        assert_eq!(a.messages_dropped(), 0);
        assert_eq!(b.messages_dropped(), 0);
    }

    #[test]
    fn partial_loss_is_deterministic_per_seed() {
        let topo = line(2);
        let run = |seed: u64| {
            let mut tr = Transport::new(TransportConfig::default());
            tr.seed_faults(seed);
            tr.set_loss_prob(0.3);
            (0..200)
                .map(|_| {
                    tr.unicast(&topo, NodeId(0), NodeId(1), 10, SimTime::ZERO)
                        .is_ok()
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(9), run(9), "same seed must give the same loss pattern");
        let oks = run(9).iter().filter(|&&ok| ok).count();
        assert!((100..180).contains(&oks), "~70% should survive, got {oks}");
    }

    #[test]
    fn latency_spike_scales_delivery_time() {
        let topo = line(2);
        let mut tr = Transport::new(TransportConfig::default());
        tr.set_latency_factor(3.0);
        let d = tr
            .unicast(&topo, NodeId(0), NodeId(1), 1_000_000, SimTime::ZERO)
            .unwrap();
        // Nominal 410 ms (400 tx + 10 prop) tripled.
        assert_eq!(d.arrival.as_millis(), 3 * 410);
    }

    #[test]
    fn broadcast_under_total_loss_reaches_no_one() {
        let topo = line(4);
        let mut tr = Transport::new(TransportConfig::default());
        tr.set_loss_prob(1.0);
        let reached = tr.broadcast(&topo, NodeId(0), 100, SimTime::ZERO);
        assert!(reached.is_empty());
        assert_eq!(tr.messages_dropped(), 1, "one lost reception per neighbor");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn loss_prob_out_of_range_rejected() {
        Transport::new(TransportConfig::default()).set_loss_prob(1.5);
    }

    #[test]
    #[should_panic(expected = "latency factor")]
    fn latency_factor_below_one_rejected() {
        Transport::new(TransportConfig::default()).set_latency_factor(0.5);
    }

    #[test]
    fn broadcast_payload_matches_count_based_broadcast() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let topo = crate::topology::Topology::random_connected(
            25,
            crate::topology::TopologyConfig::default(),
            &mut rng,
        )
        .unwrap();
        let bytes = vec![0xABu8; 1000];
        for loss in [0.0, 0.3] {
            let mut by_count = Transport::new(TransportConfig::default());
            let mut by_payload = Transport::new(TransportConfig::default());
            for tr in [&mut by_count, &mut by_payload] {
                tr.seed_faults(77);
                tr.set_loss_prob(loss);
            }
            let flat = by_count.broadcast(&topo, NodeId(0), 1000, SimTime::ZERO);
            let carried = by_payload.broadcast_payload(
                &topo,
                NodeId(0),
                &Payload::from(bytes.clone()),
                SimTime::ZERO,
            );
            assert_eq!(carried, flat, "loss={loss}");
            assert_eq!(
                by_count.stats().total_sent(),
                by_payload.stats().total_sent()
            );
            assert_eq!(by_count.messages_dropped(), by_payload.messages_dropped());
        }
    }

    #[test]
    fn payload_is_shared_not_copied() {
        let payload = Payload::from(vec![7u8; 64]);
        let topo = line(3);
        let mut tr = Transport::new(TransportConfig::default());
        let d = tr.broadcast_payload(&topo, NodeId(0), &payload, SimTime::ZERO);
        assert_eq!(d.len(), 2);
        // What each recipient is handed: a clone of the sender's handle.
        let delivered = payload.clone();
        assert!(
            Arc::ptr_eq(&delivered.shared(), &payload.shared()),
            "deliveries must share the sender's allocation"
        );
        assert_eq!(delivered.bytes(), payload.bytes());
        assert_eq!(delivered.len(), 64);
        assert!(!delivered.is_empty());
    }

    #[test]
    fn scrambled_and_truncated_payloads_are_deterministic_copies() {
        let payload = Payload::from((0u8..=255).collect::<Vec<u8>>());
        let a = payload.scrambled(42);
        let b = payload.scrambled(42);
        assert_eq!(a, b, "same seed scrambles identically");
        assert_ne!(a, payload, "scrambling must change the bytes");
        assert_ne!(
            a.bytes()[0],
            payload.bytes()[0],
            "leading format byte must flip"
        );
        assert_ne!(a, payload.scrambled(43), "different seeds differ");
        assert_eq!(payload.bytes(), &(0u8..=255).collect::<Vec<u8>>()[..]);
        let t = payload.truncated(10);
        assert_eq!(t.bytes(), &payload.bytes()[..10]);
        assert_eq!(payload.truncated(10_000).len(), 256);
    }

    #[test]
    fn mean_node_overhead() {
        let topo = line(2);
        let mut tr = Transport::new(TransportConfig::default());
        tr.unicast(&topo, NodeId(0), NodeId(1), 100, SimTime::ZERO)
            .unwrap();
        // Node 0 sent 100, node 1 received 100 → mean (100+100)/2.
        assert_eq!(tr.stats().mean_node_overhead(), 100.0);
    }

    /// The flood this module ran before the single pass, kept as the
    /// oracle: an `any()` pre-scan of each forwarder's neighbours decides
    /// whether it transmits, then a second walk covers them, with arrivals
    /// held in a per-flood `Option` row and deliveries grouped by arrival
    /// instant, flattened on return.
    fn grouped_reference(
        tr: &mut Transport,
        topo: &Topology,
        src: NodeId,
        bytes: u64,
        now: SimTime,
        mut forwards: impl FnMut(NodeId) -> bool,
    ) -> Vec<(NodeId, SimTime)> {
        tr.ensure(topo.len());
        let tx = tr.tx_time(bytes);
        let hop_delay = tr.hop_delay();
        let mut arrival: Vec<Option<SimTime>> = vec![None; topo.len()];
        arrival[src.0] = Some(now);
        let mut order: Vec<NodeId> = vec![src];
        let mut head = 0;
        let mut groups: Vec<(SimTime, Vec<NodeId>)> = Vec::new();
        while head < order.len() {
            let u = order[head];
            head += 1;
            if !forwards(u) || !topo.neighbors(u).any(|v| arrival[v.0].is_none()) {
                continue;
            }
            let t_u = arrival[u.0].expect("ordered nodes have arrivals");
            let depart = t_u.max(tr.busy_until[u.0]);
            let done = depart + tx;
            tr.busy_until[u.0] = done;
            tr.stats.sent[u.0] += bytes;
            let reach = done + hop_delay;
            for v in topo.neighbors(u) {
                if arrival[v.0].is_none() {
                    if tr.message_lost() {
                        tr.dropped += 1;
                        continue;
                    }
                    arrival[v.0] = Some(reach);
                    tr.stats.received[v.0] += bytes;
                    order.push(v);
                    match groups.last_mut() {
                        Some((t, nodes)) if *t == reach => nodes.push(v),
                        _ => groups.push((reach, vec![v])),
                    }
                }
            }
        }
        groups
            .into_iter()
            .flat_map(|(t, nodes)| nodes.into_iter().map(move |v| (v, t)))
            .collect()
    }

    /// `n` nodes at about ten neighbours each on a square field, with
    /// `crashed` down and the `cut` side partitioned off.
    fn faulted(n: usize, seed: u64, crashed: &[usize], cut: &[usize]) -> Topology {
        use rand::{Rng, SeedableRng};
        let side = 300.0 * (n as f64 / 60.0).sqrt();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let positions = (0..n)
            .map(|_| Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side))
            .collect();
        let config = crate::topology::TopologyConfig {
            field: crate::geometry::Field::new(side, side),
            ..crate::topology::TopologyConfig::default()
        };
        let mut t = Topology::from_positions_with_config(positions, config);
        for &v in crashed {
            t.set_active(NodeId(v % n), false);
        }
        let cut: Vec<NodeId> = cut.iter().map(|&v| NodeId(v % n)).collect();
        t.set_partition(Some(&cut));
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The single-pass flood equals the grouped reference from equal
        /// transport states, flood after flood on one transport: the same
        /// deliveries in the same order at the same times, the same byte
        /// counts, radio horizons and drops, and both RNGs left at the
        /// same draw. Plain and probabilistic floods interleave over
        /// crashes and a partition cut, lossless and lossy, at nominal and
        /// doubled latency, with the radios preloaded by unicasts.
        #[test]
        fn single_pass_flood_matches_grouped_reference(
            n in 2usize..90,
            seed in any::<u64>(),
            crashed in prop::collection::vec(0usize..90, 0..4),
            cut in prop::collection::vec(0usize..90, 0..30),
            lossy in any::<bool>(),
            slow in any::<bool>(),
            unicasts in prop::collection::vec((0usize..90, 0usize..90), 0..4),
            floods in prop::collection::vec((0usize..90, 0u8..3, 0u32..1000), 1..6),
        ) {
            use rand::{Rng, SeedableRng};
            let topo = faulted(n, seed, &crashed, &cut);
            let mut fast = Transport::new(TransportConfig::default());
            fast.seed_faults(seed);
            fast.set_loss_prob(if lossy { 0.3 } else { 0.0 });
            fast.set_latency_factor(if slow { 2.0 } else { 1.0 });
            for (a, b) in unicasts {
                let _ = fast.unicast(&topo, NodeId(a % n), NodeId(b % n), 40_000, SimTime::ZERO);
            }
            let mut slow_tr = fast.clone();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xF10D);
            let mut ref_rng = rng.clone();
            for (i, (src, kind, p)) in floods.into_iter().enumerate() {
                let (src, now) = (NodeId(src % n), SimTime::from_millis(50 * i as u64));
                let p = f64::from(p) / 1000.0;
                let (got, want) = match kind {
                    0 => (
                        fast.broadcast(&topo, src, 2_048, now),
                        grouped_reference(&mut slow_tr, &topo, src, 2_048, now, |_| true),
                    ),
                    1 => (
                        fast.broadcast_payload(&topo, src, &Payload::from(vec![1u8; 700]), now),
                        grouped_reference(&mut slow_tr, &topo, src, 700, now, |_| true),
                    ),
                    _ => {
                        let forwards =
                            |u: NodeId| u == src || ref_rng.gen::<f64>() < p;
                        (
                            fast.broadcast_probabilistic(&topo, src, 2_048, now, p, &mut rng),
                            grouped_reference(&mut slow_tr, &topo, src, 2_048, now, forwards),
                        )
                    }
                };
                prop_assert_eq!(got, want, "flood {} from {}", i, src);
            }
            for v in topo.nodes() {
                prop_assert_eq!(fast.stats().sent_bytes(v), slow_tr.stats().sent_bytes(v));
                prop_assert_eq!(
                    fast.stats().received_bytes(v),
                    slow_tr.stats().received_bytes(v)
                );
            }
            prop_assert_eq!(&fast.busy_until, &slow_tr.busy_until);
            prop_assert_eq!(fast.messages_dropped(), slow_tr.messages_dropped());
            prop_assert_eq!(fast.fault_rng.gen::<u64>(), slow_tr.fault_rng.gen::<u64>());
            prop_assert_eq!(rng.gen::<u64>(), ref_rng.gen::<u64>());
        }
    }
}
