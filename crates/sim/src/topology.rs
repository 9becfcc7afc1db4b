//! Wireless multi-hop network topology.
//!
//! Nodes are placed uniformly at random in a [`Field`]; two nodes share a
//! link when within radio range (unit-disk model). Each node additionally
//! has a *mobility range*: it wanders inside a disc of that radius around
//! its home position (paper §IV-A.2 — the range enters the Range-Distance
//! Cost; §VI — mobility is "within 30 meters ranges").
//!
//! The topology maintains BFS hop-count rows so the transport layer can
//! forward store-and-forward messages; a route is read off whichever
//! endpoint's row is held (see [`Topology::path`]), so nothing stores
//! next hops. Adjacency is built with a grid-bucket spatial hash (cells
//! at least the radio range wide) into one compressed-sparse-row array,
//! a pair linked when its squared distance is within range (the square
//! root taken only near the boundary), and there is one route store: a
//! hop row per source behind a `OnceLock`, dropped on every rebuild. Eq. 2
//! is priced off a hop row on demand ([`Topology::rdc_from_hops`]);
//! nothing stores it. [`TopologyConfig::sparse_routes`] only picks *when*
//! a row is filled:
//!
//! * **Eager** (default): every row is filled at rebuild, 64 sources per
//!   bit-parallel sweep ([`Topology::fill_hop_rows`]) — Θ(n²) memory,
//!   fine up to a few thousand nodes.
//! * **Lazy** (`sparse_routes`): a row is filled on its first query, so
//!   memory is O(n·degree + touched sources·n). A caller that knows which
//!   sources it will query soon announces them to
//!   [`Topology::fill_hop_rows`], which fills them in the same sweeps.
//!
//! Hop counts confined to a member set (a region's induced subgraph, cut
//! at a horizon) come from the same sweep over a local CSR of the members
//! ([`Topology::member_hops`]); nothing about them is stored.
//!
//! Hop counts are unique, so the sweep and the one-source BFS fill equal
//! rows, and Eq. 2 is priced off either with the same arithmetic: every
//! query answers identically under either setting.

use crate::geometry::{CellGrid, Field, Point};
use edgechain_telemetry as telemetry;
use rand::Rng;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a simulated node (dense, `0..n`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying dense index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

/// Hop count marker for unreachable node pairs.
pub const UNREACHABLE: u32 = u32::MAX;

/// Sources per bit-parallel sweep: one bit of a `u64` word each.
const SWEEP_WIDTH: usize = u64::BITS as usize;

/// Below this many sweeps a multi-row fill runs serially. Measured on a
/// 2-core host: a sweep costs 10–60 µs at n = 50–250 and spawning and
/// joining two workers ≈ 55 µs, so the pool breaks even at about 4
/// sweeps (n ≈ 200–250) and loses below.
const PARALLEL_SWEEP_MIN_BATCHES: usize = 4;

/// Placement attempts [`Topology::random_connected`] makes before giving
/// up on a connected topology.
const MAX_PLACEMENT_ATTEMPTS: usize = 10_000;

/// Radio range in meters: the paper's §VI 70 m (typical 802.11n). Two
/// nodes share a link when at most this far apart.
pub const COMM_RANGE: f64 = 70.0;

/// Configuration for generating a [`Topology`].
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyConfig {
    /// Deployment field (default 300 m × 300 m).
    pub field: Field,
    /// Mobility radius in meters for every node (default 30 m).
    pub mobility_range: f64,
    /// Fill hop rows lazily on first query instead of eagerly at
    /// every rebuild. Query results are bit-identical; only memory and
    /// rebuild cost change. Default `false` (eager).
    pub sparse_routes: bool,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        TopologyConfig {
            field: Field::paper_default(),
            mobility_range: 30.0,
            sparse_routes: false,
        }
    }
}

/// Eq. 2 with an explicit hop count: `hops + range_i/norm + range_j/norm`,
/// with the unreachable penalty substituted for the hop term. `reach`
/// holds each node's `range/norm`, divided once when the range is set
/// (the same quotient, so the same bits). Kept as one free function so
/// row fills and single-pair queries perform the identical float
/// operations.
#[inline]
fn rdc_formula(i: usize, j: usize, hops: u32, reach: &[f64], penalty: f64) -> f64 {
    if i == j {
        return 0.0;
    }
    let hop_cost = match hops {
        UNREACHABLE => penalty,
        h => h as f64,
    };
    hop_cost + reach[i] + reach[j]
}

/// Squared link range, 70² m² (exact).
const RANGE_SQ: f64 = COMM_RANGE * COMM_RANGE;

/// Half-width of the band around [`RANGE_SQ`] inside which [`linked`]
/// takes the square root: squared distances further out compare on the
/// square alone, with a margin that dwarfs every rounding step between
/// the square and its correctly rounded root.
const RANGE_SQ_BAND: f64 = RANGE_SQ * 1e-9;

/// Whether `p` and `q` are within radio range: `p.distance(q) <=
/// COMM_RANGE`, answer for answer. The squared distance is what
/// [`Point::distance`] takes the root of; off the boundary band it
/// decides alone (the root of a square below `RANGE_SQ - RANGE_SQ_BAND`
/// rounds below 70 m, above `RANGE_SQ + RANGE_SQ_BAND` above it), and in
/// the band the root decides as the distance would.
#[inline]
fn linked(p: &Point, q: &Point) -> bool {
    let d2 = p.distance_squared(q);
    d2 < RANGE_SQ - RANGE_SQ_BAND || (d2 <= RANGE_SQ + RANGE_SQ_BAND && d2.sqrt() <= COMM_RANGE)
}

/// Links in compressed sparse row form: node `v`'s neighbours are
/// `list[start[v]..start[v + 1]]`, ascending. `u32` ids halve the bytes a
/// BFS streams against `usize` [`NodeId`]s, and one array keeps them
/// contiguous.
#[derive(Debug, Clone, Default)]
struct Adjacency {
    start: Vec<u32>,
    list: Vec<u32>,
}

impl Adjacency {
    /// `v`'s neighbours, ascending.
    #[inline]
    fn of(&self, v: usize) -> &[u32] {
        &self.list[self.start[v] as usize..self.start[v + 1] as usize]
    }
}

/// The direct neighbours of one node, ascending by id (see
/// [`Topology::neighbors`]). Compares equal to a `&[NodeId]` holding the
/// same ids in the same order.
#[derive(Clone)]
pub struct Neighbors<'a>(std::slice::Iter<'a, u32>);

impl Iterator for Neighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.0.next().map(|&v| NodeId(v as usize))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

impl fmt::Debug for Neighbors<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

impl PartialEq for Neighbors<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.0.as_slice() == other.0.as_slice()
    }
}

impl PartialEq<&[NodeId]> for Neighbors<'_> {
    fn eq(&self, other: &&[NodeId]) -> bool {
        self.clone().eq(other.iter().copied())
    }
}

/// The nodes after the source on a route (see [`Topology::route`]).
pub(crate) enum Route<'a> {
    /// Stepped off the destination's filled hop row, one node per step.
    Walk(Walk<'a>),
    /// Collected at once off the source's row.
    Interval(std::vec::IntoIter<NodeId>),
}

/// A route stepped off the destination's hop row: each step takes the
/// lowest-id neighbour one hop closer to it. It holds the CSR arrays
/// themselves, not the [`Adjacency`], so a hop reads no headers.
pub(crate) struct Walk<'a> {
    start: &'a [u32],
    list: &'a [u32],
    to_b: &'a [u32],
    cur: u32,
    left: u32,
}

impl Iterator for Walk<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        self.left = self.left.checked_sub(1)?;
        let d = self.left;
        let to_b = self.to_b;
        // `cur` is d + 1 hops out, so its row holds a neighbour d hops
        // out: a scan from the row's start stops inside the row, at the
        // row's first match, and need not read where the row ends.
        let row = self.start[self.cur as usize] as usize;
        self.cur = *self.list[row..]
            .iter()
            .find(|&&v| to_b[v as usize] == d)
            .expect("a node d + 1 hops out has a neighbour d hops out");
        Some(NodeId(self.cur as usize))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for Walk<'_> {}

/// A snapshot of the multi-hop network: positions, links, and routes.
#[derive(Debug, Clone)]
pub struct Topology {
    config: TopologyConfig,
    home: Vec<Point>,
    position: Vec<Point>,
    mobility: Vec<f64>,
    /// `mobility[i] / COMM_RANGE`: node `i`'s Eq. 2 range term in
    /// hop-equivalents, kept in step with `mobility`.
    reach: Vec<f64>,
    /// Fault-injection state: crashed nodes have no radio at all.
    active: Vec<bool>,
    /// Fault-injection state: when set, links between a node inside the
    /// cut set and one outside it are severed (a clean network split on
    /// top of whatever the geometry allows).
    partition: Option<Vec<bool>>,
    adjacency: Adjacency,
    /// `hop_rows[i][j]` — BFS hop count, [`UNREACHABLE`] when partitioned.
    /// Filled at rebuild (eager) or on first query (lazy).
    hop_rows: Vec<OnceLock<Vec<u32>>>,
    /// Bumped on every routing/RDC change; lets callers detect staleness
    /// of anything they derived from this topology snapshot.
    epoch: u64,
}

impl Topology {
    /// Generates a topology whose *home* positions form a connected graph,
    /// resampling until connected.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::Disconnected`] if no connected placement is
    /// found within 10,000 attempts.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n` does not fit a `u32` (link lists hold
    /// `u32` ids).
    pub fn random_connected<R: Rng + ?Sized>(
        n: usize,
        config: TopologyConfig,
        rng: &mut R,
    ) -> Result<Self, TopologyError> {
        assert!(n > 0, "topology must have at least one node");
        for _ in 0..MAX_PLACEMENT_ATTEMPTS {
            let home: Vec<Point> = (0..n)
                .map(|_| {
                    Point::new(
                        rng.gen::<f64>() * config.field.width,
                        rng.gen::<f64>() * config.field.height,
                    )
                })
                .collect();
            // One BFS over the adjacency decides; only the accepted
            // placement pays for route state.
            let mut topo = Self::unrouted(home, config.clone());
            topo.rebuild_adjacency();
            if !bfs_row(&topo.adjacency, &topo.active, 0).contains(&UNREACHABLE) {
                topo.rebuild_tables();
                return Ok(topo);
            }
        }
        Err(TopologyError::Disconnected {
            nodes: n,
            attempts: MAX_PLACEMENT_ATTEMPTS,
        })
    }

    /// Builds a topology from explicit positions with the default config.
    pub fn from_positions(positions: Vec<Point>) -> Self {
        Self::from_positions_with_config(positions, TopologyConfig::default())
    }

    /// Builds a topology from explicit positions and a config.
    ///
    /// # Panics
    ///
    /// Panics if `positions` is empty or its length does not fit a `u32`.
    pub fn from_positions_with_config(positions: Vec<Point>, config: TopologyConfig) -> Self {
        assert!(
            !positions.is_empty(),
            "topology must have at least one node"
        );
        let mut topo = Self::unrouted(positions, config);
        topo.rebuild_routes();
        topo
    }

    /// Every node up at its home position, no links or routes yet.
    fn unrouted(positions: Vec<Point>, config: TopologyConfig) -> Self {
        let n = positions.len();
        assert!(u32::try_from(n).is_ok(), "node ids must fit u32");
        Topology {
            mobility: vec![config.mobility_range; n],
            reach: vec![config.mobility_range / COMM_RANGE; n],
            config,
            home: positions.clone(),
            position: positions,
            active: vec![true; n],
            partition: None,
            adjacency: Adjacency::default(),
            hop_rows: Vec::new(),
            epoch: 0,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.position.len()
    }

    /// Whether the topology is empty (never true for constructed values).
    pub fn is_empty(&self) -> bool {
        self.position.is_empty()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId)
    }

    /// The generation configuration.
    pub fn config(&self) -> &TopologyConfig {
        &self.config
    }

    /// Current position of `node`.
    pub fn position(&self, node: NodeId) -> Point {
        self.position[node.0]
    }

    /// Home (anchor) position of `node`.
    pub fn home(&self, node: NodeId) -> Point {
        self.home[node.0]
    }

    /// Mobility radius of `node` in meters.
    pub fn mobility_range(&self, node: NodeId) -> f64 {
        self.mobility[node.0]
    }

    /// Overrides the mobility radius of `node` and bumps
    /// [`Topology::epoch`]. Eq. 2 reads both endpoints' ranges, which it
    /// reads afresh at every pricing; the hop rows are unaffected.
    ///
    /// # Panics
    ///
    /// Panics when `range` is NaN, infinite or negative: Eq. 2 would carry
    /// it into every cost of `node`.
    pub fn set_mobility_range(&mut self, node: NodeId, range: f64) {
        assert!(
            range.is_finite() && range >= 0.0,
            "mobility range of node {node} must be finite and non-negative, got {range}"
        );
        self.mobility[node.0] = range;
        self.reach[node.0] = range / COMM_RANGE;
        self.epoch += 1;
    }

    /// Monotone change counter: incremented whenever routes or RDC values
    /// change (route rebuilds, activation flips, partitions, mobility
    /// steps, range overrides). Two reads returning the same epoch
    /// guarantee every `hops`/`rdc` query in between saw identical state.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether `node` is up (not crashed by fault injection).
    pub fn is_active(&self, node: NodeId) -> bool {
        self.active[node.0]
    }

    /// Marks `node` as crashed (`false`) or restarted (`true`) and rebuilds
    /// routes. A crashed node has no links: nothing can be sent to it,
    /// from it, or *through* it.
    pub fn set_active(&mut self, node: NodeId, active: bool) {
        if self.active[node.0] != active {
            self.active[node.0] = active;
            self.rebuild_routes();
        }
    }

    /// Iterator over nodes that are currently up.
    pub fn active_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&v| self.active[v.0])
    }

    /// Number of nodes currently up.
    pub fn active_len(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// The `k`-th node currently up, in id order: `active_nodes().nth(k)`
    /// for callers that index one uniform draw and want no `Vec`.
    ///
    /// # Panics
    ///
    /// Panics when `k >= active_len()`.
    pub fn nth_active(&self, k: usize) -> NodeId {
        self.active_nodes()
            .nth(k)
            .expect("k indexes the active nodes")
    }

    /// Imposes (or, with `None`, lifts) a network partition: links between
    /// nodes inside `cut` and nodes outside it are severed. Rebuilds routes.
    pub fn set_partition(&mut self, cut: Option<&[NodeId]>) {
        self.partition = cut.map(|side| {
            let mut inside = vec![false; self.len()];
            for &v in side {
                inside[v.0] = true;
            }
            inside
        });
        self.rebuild_routes();
    }

    /// Direct neighbors of `node` in the current snapshot, ascending.
    pub fn neighbors(&self, node: NodeId) -> Neighbors<'_> {
        Neighbors(self.adjacency.of(node.0).iter())
    }

    /// Hop count between two nodes ([`UNREACHABLE`] when partitioned,
    /// `0` for `a == b`).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        self.hop_row(a)[b.0]
    }

    /// Whether `b` is currently reachable from `a`.
    pub fn reachable(&self, a: NodeId, b: NodeId) -> bool {
        self.hops(a, b) != UNREACHABLE
    }

    /// Whether all *active* nodes form one connected component.
    pub fn is_connected(&self) -> bool {
        let Some(origin) = self.active_nodes().next() else {
            return true;
        };
        self.active_nodes().all(|v| self.reachable(origin, v))
    }

    /// The nodes after `a` on the shortest path to `b` (ending with `b`;
    /// empty for `a == b`), or `None` when unreachable. Each step takes
    /// the lowest-id neighbour one hop closer to `b` — the first hop of
    /// the current node's own BFS tree toward `b`, because BFS scans
    /// sorted adjacency lists from a FIFO queue. Links are symmetric, so
    /// "closer to `b`" is read from `b`'s hop row when it is held; the
    /// rest is [`Topology::route_cold`].
    #[inline]
    pub(crate) fn route(&self, a: NodeId, b: NodeId) -> Option<Route<'_>> {
        match self.hop_rows[b.0].get() {
            Some(to_b) => self.walk(a, b, to_b).map(Route::Walk),
            None => self.route_cold(a, b),
        }
    }

    /// [`Topology::route`] when `b`'s row is not held: off `a`'s row if
    /// that one is ([`Topology::interval_route`]), else off `b`'s, filled
    /// now.
    #[cold]
    #[inline(never)]
    fn route_cold(&self, a: NodeId, b: NodeId) -> Option<Route<'_>> {
        match self.hop_rows[a.0].get() {
            Some(from_a) => self
                .interval_route(a, b, from_a)
                .map(|path| Route::Interval(path.into_iter())),
            None => self.walk(a, b, self.hop_row(b)).map(Route::Walk),
        }
    }

    /// The walk from `a` over `b`'s row `to_b`.
    #[inline]
    fn walk<'a>(&'a self, a: NodeId, b: NodeId, to_b: &'a [u32]) -> Option<Walk<'a>> {
        // A crashed node's row does not even reach itself.
        let left = if a == b { 0 } else { to_b[a.0] };
        (left != UNREACHABLE).then_some(Walk {
            start: &self.adjacency.start,
            list: &self.adjacency.list,
            to_b,
            cur: a.0 as u32,
            left,
        })
    }

    /// The route [`Topology::walk`] would take over `b`'s row, read off
    /// `a`'s row `from_a` instead. `d(·, b)` is needed only on the a–b
    /// shortest-path interval — the nodes with `d(a, v) + d(v, b) =
    /// d(a, b)` — and there it is `d(a, b) − d(a, v)`: the interval's
    /// level `k` from `b` is the neighbours of level `k − 1` with
    /// `d(a, v) = d(a, b) − k`. A neighbour of an interval node that is
    /// one hop closer to `b` lies on the interval itself (its distances
    /// to `a` and `b` are squeezed between the triangle inequality and
    /// the hop it is closer by), so "lowest-id interval neighbour one hop
    /// further from `a`" picks the node the walk picks.
    fn interval_route(&self, a: NodeId, b: NodeId, from_a: &[u32]) -> Option<Vec<NodeId>> {
        if a == b {
            return Some(Vec::new());
        }
        let d = from_a[b.0];
        if d == UNREACHABLE {
            return None;
        }
        telemetry::counter_add("topology.interval_routes", 1);
        let mut on_interval = vec![false; self.len()];
        on_interval[b.0] = true;
        let (mut level, mut next) = (vec![b.0 as u32], Vec::new());
        // Levels 1 ..= d − 1 from `b`; level d is `a` alone.
        for want in (1..d).rev() {
            for &u in &level {
                for &v in self.adjacency.of(u as usize) {
                    let v = v as usize;
                    if from_a[v] == want && !on_interval[v] {
                        on_interval[v] = true;
                        next.push(v as u32);
                    }
                }
            }
            std::mem::swap(&mut level, &mut next);
            next.clear();
        }
        let mut cur = a.0;
        let path = (1..=d).map(|h| {
            cur = *self
                .adjacency
                .of(cur)
                .iter()
                .find(|&&v| on_interval[v as usize] && from_a[v as usize] == h)
                .expect("an interval node h - 1 hops from a has one h hops out")
                as usize;
            NodeId(cur)
        });
        Some(path.collect())
    }

    /// Shortest path from `a` to `b` (inclusive of both endpoints), or
    /// `None` when unreachable. `a == b` yields a single-element path.
    pub fn path(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![a];
        match self.route(a, b)? {
            Route::Walk(walk) => path.extend(walk),
            Route::Interval(rest) => path.extend(rest),
        }
        Some(path)
    }

    /// Moves every node to a fresh uniform point inside its mobility disc
    /// (clamped to the field) and rebuilds links and routes. This models the
    /// paper's "nodes move within such a range in a short period of time".
    pub fn mobility_step<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in 0..self.len() {
            let r = self.mobility[i];
            if r <= 0.0 {
                continue;
            }
            // Uniform point in a disc via rejection-free polar sampling.
            let theta = rng.gen::<f64>() * std::f64::consts::TAU;
            let rho = r * rng.gen::<f64>().sqrt();
            let p = Point::new(
                self.home[i].x + rho * theta.cos(),
                self.home[i].y + rho * theta.sin(),
            );
            self.position[i] = self.config.field.clamp(p);
        }
        self.rebuild_routes();
    }

    /// Recomputes adjacency from current positions and drops every hop
    /// row; eager fill recomputes them all right away
    /// ([`Topology::fill_hop_rows`]), lazy fill leaves that to the first
    /// query.
    pub fn rebuild_routes(&mut self) {
        self.rebuild_adjacency();
        self.rebuild_tables();
    }

    /// The hop-row half of [`Topology::rebuild_routes`], over the current
    /// adjacency.
    fn rebuild_tables(&mut self) {
        self.hop_rows.clear();
        self.hop_rows.resize_with(self.len(), OnceLock::new);
        if !self.config.sparse_routes {
            self.fill_hop_rows(self.nodes());
        }
        self.epoch += 1;
    }

    /// Rebuilds the adjacency with a grid-bucket spatial hash (cells at
    /// least the radio range wide): each node tests only the candidates
    /// in its 3×3 cell neighborhood — O(degree) work per node instead of
    /// the O(n) pair scan — and of those only the higher ids, so each
    /// link is tested once. Two counting passes then fill the lists with
    /// no sort: each `i`, ascending, writes itself into the lists of its
    /// higher neighbours, which places every node's lower neighbours in
    /// ascending order; then each `j`, ascending, appends itself to the
    /// lists of the lower neighbours just placed, which places the higher
    /// ones after them, also ascending. That is exactly the ordering of
    /// the classic `i < j` double loop, so BFS tie-breaking (and
    /// therefore every route) is unchanged, whatever the cell side. It
    /// relies on the link test being symmetric — [`linked`], `active` and
    /// [`Topology::cut_severs`] answer `(i, j)` as they answer `(j, i)` —
    /// and on a 3×3 neighbourhood holding every point in range. The
    /// previous arrays are refilled in place.
    fn rebuild_adjacency(&mut self) {
        let n = self.len();
        let grid = CellGrid::new(&self.config.field, COMM_RANGE, &self.position);
        let Adjacency {
            mut start,
            mut list,
        } = std::mem::take(&mut self.adjacency);
        // Each node's higher neighbours, in candidate order, and every
        // node's degree at `start[v + 1]`.
        let mut upper = Vec::new();
        let mut upper_start = Vec::with_capacity(n + 1);
        upper_start.push(0);
        start.clear();
        start.resize(n + 1, 0);
        for (i, p) in self.position.iter().enumerate() {
            if self.active[i] {
                grid.for_each_candidate(p, |j, q| {
                    if j > i && linked(p, &q) && self.active[j] && !self.cut_severs(i, j) {
                        upper.push(j as u32);
                        start[i + 1] += 1;
                        start[j + 1] += 1;
                    }
                });
            }
            upper_start.push(upper.len());
        }
        let links = u32::try_from(2 * upper.len()).expect("link count fits u32");
        for v in 0..n {
            start[v + 1] += start[v];
        }
        list.clear();
        list.resize(links as usize, 0);
        // Where each node's next neighbour goes.
        let mut next = start[..n].to_vec();
        for i in 0..n {
            for &j in &upper[upper_start[i]..upper_start[i + 1]] {
                list[next[j as usize] as usize] = i as u32;
                next[j as usize] += 1;
            }
        }
        for j in 0..n {
            for k in start[j] as usize..next[j] as usize {
                let i = list[k] as usize;
                list[next[i] as usize] = j as u32;
                next[i] += 1;
            }
        }
        self.adjacency = Adjacency { start, list };
    }

    /// Fills the hop row of every source in `sources` that is not held
    /// yet, 64 sources per bit-parallel multi-source BFS sweep; sweeps fan
    /// out over the worker pool when there are enough of them. Each row
    /// equals what its first query would fill, and counts once in
    /// `topology.rows` as that query would, so calling this ahead of a
    /// loop over the same sources changes nothing but the wall time. A
    /// no-op when every row is held (eager fill).
    pub fn fill_hop_rows(&self, sources: impl IntoIterator<Item = NodeId>) {
        let missing: Vec<u32> = sources
            .into_iter()
            .filter(|s| self.hop_rows[s.0].get().is_none())
            .map(|s| s.0 as u32)
            .collect();
        if missing.is_empty() {
            return;
        }
        let batches: Vec<&[u32]> = missing.chunks(SWEEP_WIDTH).collect();
        let workers = if batches.len() >= PARALLEL_SWEEP_MIN_BATCHES {
            usize::MAX
        } else {
            1
        };
        let (adjacency, active) = (&self.adjacency, &self.active);
        let rows = crate::pool::parallel_map(&batches, workers, |batch| {
            sweep_rows(adjacency, active, batch, UNREACHABLE)
        });
        // The pool returns sweeps in batch order, so rows line up with
        // `missing`; a source listed twice is filled once.
        let mut filled = 0;
        for (&src, row) in missing.iter().zip(rows.into_iter().flatten()) {
            filled += u64::from(self.hop_rows[src as usize].set(row).is_ok());
        }
        telemetry::counter_add("topology.rows", filled);
    }

    /// `src`'s hop row: `row[j] == hops(src, j)` for every `j`. Filled on
    /// first use (it counts in `topology.rows` then) and kept until the
    /// next route rebuild.
    pub fn hop_row(&self, src: NodeId) -> &[u32] {
        self.hop_rows[src.0].get_or_init(|| {
            telemetry::counter_add("topology.rows", 1);
            bfs_row(&self.adjacency, &self.active, src.0)
        })
    }

    /// Whether the imposed partition cut severs the `i`–`j` link.
    fn cut_severs(&self, i: usize, j: usize) -> bool {
        match &self.partition {
            Some(inside) => inside[i] != inside[j],
            None => false,
        }
    }

    /// Range-Distance Cost between two nodes (paper Eq. 2):
    /// `c_ij = d(i,j) + range(i) + range(j)` with hop-count distance and
    /// mobility ranges normalized to hop-equivalents (`range / COMM_RANGE`)
    /// so the units are commensurate. `c_ii = 0`. Unreachable pairs get a
    /// large finite penalty (`n` hops) so the facility-location solver can
    /// still run on temporarily partitioned snapshots. Evaluated from
    /// `i`'s hop row.
    pub fn rdc(&self, i: NodeId, j: NodeId) -> f64 {
        self.rdc_from_hops(i, j, self.hops(i, j))
    }

    /// Eq. 2 evaluated with an explicit hop count (with [`UNREACHABLE`]
    /// mapping to the `n`-hop penalty), bit-identical to what [`rdc`]
    /// returns for a pair at that distance. Lets instance builders price
    /// a gathered [`Topology::hop_row`] or a horizon-bounded row (e.g.
    /// the region-decomposed allocator's) entry by entry.
    ///
    /// [`rdc`]: Topology::rdc
    pub fn rdc_from_hops(&self, i: NodeId, j: NodeId, hops: u32) -> f64 {
        rdc_formula(i.0, j.0, hops, &self.reach, self.len() as f64)
    }

    /// Row `i` of Eq. 2: `row[j] == rdc(i, j)` for every `j`, priced off
    /// `i`'s hop row on every call; nothing is stored.
    pub fn rdc_row(&self, i: NodeId) -> Vec<f64> {
        let (reach, penalty) = (&self.reach[..], self.len() as f64);
        let hops = self.hop_row(i).iter().enumerate();
        hops.map(|(j, &h)| rdc_formula(i.0, j, h, reach, penalty))
            .collect()
    }

    /// Hop counts from `src` to each of `targets` (node indices,
    /// ascending, no repeats), [`UNREACHABLE`] past `max_hops` hops. The
    /// search stops as soon as every target has its count, so a horizon
    /// wider than the targets' spread costs nothing. Nothing is stored: a
    /// peer beyond the horizon takes the unreachable penalty via
    /// [`Topology::rdc_from_hops`].
    pub fn bfs_bounded(&self, src: NodeId, max_hops: u32, targets: &[usize]) -> Vec<u32> {
        debug_assert!(targets.windows(2).all(|w| w[0] < w[1]), "targets ascend");
        let mut hops = vec![UNREACHABLE; targets.len()];
        if !self.active[src.0] {
            return hops;
        }
        let mut dist = vec![UNREACHABLE; self.len()];
        let mut queue = Vec::with_capacity(self.len());
        let mut left = targets.len();
        let label = |v: usize, h: u32| {
            if let Ok(t) = targets.binary_search(&v) {
                hops[t] = h;
                left -= 1;
            }
            left == 0
        };
        let (adjacency, src) = (&self.adjacency, src.0);
        bfs(adjacency, src, max_hops, &mut dist, &mut queue, label);
        hops
    }

    /// Hop counts among `members` (node indices, ascending, no repeats)
    /// over the subgraph they induce, cut at `max_hops`: `m[a][b]` is the
    /// length of the shortest `members[a]`–`members[b]` path through
    /// members only, [`UNREACHABLE`] when there is none that short. A
    /// crashed member reaches nothing, not even itself. One sweep covers
    /// 64 members over a local CSR of the member set, so a region of `k`
    /// nodes costs `⌈k/64⌉` sweeps over `k` nodes rather than `k`
    /// searches each clearing an `n`-entry row.
    pub fn member_hops(&self, members: &[usize], max_hops: u32) -> Vec<Vec<u32>> {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "members ascend");
        let mut local = Adjacency {
            start: vec![0],
            list: Vec::new(),
        };
        for &m in members {
            let inside = self.adjacency.of(m).iter();
            let found = inside.filter_map(|&v| members.binary_search(&(v as usize)).ok());
            local.list.extend(found.map(|l| l as u32));
            let end = u32::try_from(local.list.len()).expect("link count fits u32");
            local.start.push(end);
        }
        let active: Vec<bool> = members.iter().map(|&m| self.active[m]).collect();
        let sources: Vec<u32> = (0..members.len() as u32).collect();
        sources
            .chunks(SWEEP_WIDTH)
            .flat_map(|batch| sweep_rows(&local, &active, batch, max_hops))
            .collect()
    }

    /// Estimated heap bytes held by the topology's derived structures
    /// (adjacency plus hop rows). Only filled rows count, which is the
    /// point of comparing eager against lazy fill.
    pub fn memory_bytes(&self) -> usize {
        let adj = (self.adjacency.start.capacity() + self.adjacency.list.capacity())
            * std::mem::size_of::<u32>();
        adj + lazy_rows_bytes(&self.hop_rows)
    }

    /// Hop rows held this epoch: every source under eager fill, the
    /// sources queried since the last rebuild under lazy fill.
    pub fn materialized_rows(&self) -> usize {
        self.hop_rows.iter().filter(|l| l.get().is_some()).count()
    }
}

/// Bytes held by the hop rows: a lock slot per source (the row's `Vec`
/// header sits inline in it) plus each filled row's heap.
fn lazy_rows_bytes(rows: &[OnceLock<Vec<u32>>]) -> usize {
    let heap: usize = rows
        .iter()
        .filter_map(|l| l.get())
        .map(|row| row.capacity() * std::mem::size_of::<u32>())
        .sum();
    std::mem::size_of_val(rows) + heap
}

/// The hop rows of up to 64 `sources` at once, in source order, cut at
/// `max_hops` (nodes further away stay [`UNREACHABLE`]): the multi-source
/// BFS of Then et al., *The More the Merrier* (VLDB 2014).
/// Bit `b` of a node's words stands for `sources[b]`; `seen` marks the
/// sources that reached the node, `frontier` those that reached it last
/// level. A level ORs each frontier node's word into its neighbours'
/// `next`, and the bits new to a node (`next & !seen`) are the sources it
/// lies `level` hops from. A node's hop count from a source is unique, so
/// each row equals [`bfs_row`]'s; the sweep reads a link once per level
/// for all 64 sources instead of once per source. The inner loop is a
/// branch-free OR; the per-level scan of all `n` words it buys is far
/// cheaper than tracking which nodes were touched.
fn sweep_rows(
    adjacency: &Adjacency,
    active: &[bool],
    sources: &[u32],
    max_hops: u32,
) -> Vec<Vec<u32>> {
    debug_assert!(sources.len() <= SWEEP_WIDTH);
    let n = active.len();
    let mut rows = vec![vec![UNREACHABLE; n]; sources.len()];
    let (mut seen, mut frontier, mut next) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    for (b, &s) in sources.iter().enumerate() {
        // A crashed source reaches nothing, not even itself.
        let s = s as usize;
        if active[s] {
            frontier[s] |= 1 << b;
            rows[b][s] = 0;
        }
    }
    seen.copy_from_slice(&frontier);
    let mut hops = 0;
    while hops < max_hops {
        hops += 1;
        for (v, &bits) in frontier.iter().enumerate() {
            if bits != 0 {
                for &u in adjacency.of(v) {
                    next[u as usize] |= bits;
                }
            }
        }
        let mut reached = false;
        for u in 0..n {
            let mut fresh = std::mem::take(&mut next[u]) & !seen[u];
            frontier[u] = fresh;
            seen[u] |= fresh;
            reached |= fresh != 0;
            while fresh != 0 {
                rows[fresh.trailing_zeros() as usize][u] = hops;
                fresh &= fresh - 1;
            }
        }
        if !reached {
            break;
        }
    }
    rows
}

/// One source's BFS hop-count row; a crashed source reaches nothing, not
/// even itself. The single-row fill behind a lazy query.
fn bfs_row(adjacency: &Adjacency, active: &[bool], src: usize) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; active.len()];
    if active[src] {
        let mut queue = Vec::with_capacity(active.len());
        let never = |_: usize, _: u32| false;
        bfs(adjacency, src, UNREACHABLE, &mut dist, &mut queue, never);
    }
    dist
}

/// The one BFS kernel behind full rows and [`Topology::bfs_bounded`]:
/// from `src`, expanding nodes in FIFO order up to `max_hops`, handing
/// each node to `done` with its hop count as it is labelled (`src`
/// first) and stopping when `done` says so. `dist` must hold
/// [`UNREACHABLE`] everywhere and `queue` be empty with room for every
/// node, so nothing grows; on return `dist` holds hop counts and `queue`
/// the discovery order.
#[inline]
fn bfs(
    adjacency: &Adjacency,
    src: usize,
    max_hops: u32,
    dist: &mut [u32],
    queue: &mut Vec<u32>,
    mut done: impl FnMut(usize, u32) -> bool,
) {
    dist[src] = 0;
    queue.push(src as u32);
    if done(src, 0) {
        return;
    }
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let du = dist[u as usize];
        // The queue is in hop order: nothing after `u` expands either.
        if du >= max_hops {
            return;
        }
        for &v in adjacency.of(u as usize) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push(v);
                if done(v as usize, du + 1) {
                    return;
                }
            }
        }
    }
}

/// Errors from topology generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// No connected placement was found.
    Disconnected {
        /// Number of nodes requested.
        nodes: usize,
        /// Attempts made.
        attempts: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Disconnected { nodes, attempts } => write!(
                f,
                "no connected placement for {nodes} nodes after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::VecDeque;

    fn line_topology(n: usize, spacing: f64) -> Topology {
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect();
        Topology::from_positions(pts)
    }

    #[test]
    fn line_hop_counts() {
        let t = line_topology(5, 60.0);
        assert_eq!(t.hops(NodeId(0), NodeId(4)), 4);
        assert_eq!(t.hops(NodeId(2), NodeId(2)), 0);
        assert_eq!(t.hops(NodeId(1), NodeId(3)), 2);
        assert!(t.is_connected());
    }

    #[test]
    fn line_paths_follow_chain() {
        let t = line_topology(4, 60.0);
        let p = t.path(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(t.path(NodeId(2), NodeId(2)).unwrap(), vec![NodeId(2)]);
    }

    #[test]
    fn partition_detected() {
        // Two clusters 200 m apart with 70 m range.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(250.0, 0.0),
            Point::new(290.0, 0.0),
        ];
        let t = Topology::from_positions(pts);
        assert!(!t.is_connected());
        assert_eq!(t.hops(NodeId(0), NodeId(2)), UNREACHABLE);
        assert!(t.path(NodeId(0), NodeId(3)).is_none());
        assert!(t.reachable(NodeId(0), NodeId(1)));
        assert!(t.reachable(NodeId(2), NodeId(3)));
    }

    #[test]
    fn random_connected_is_connected() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [10, 25, 50] {
            let t = Topology::random_connected(n, TopologyConfig::default(), &mut rng).unwrap();
            assert!(t.is_connected(), "n={n}");
            assert_eq!(t.len(), n);
        }
    }

    #[test]
    fn mobility_stays_within_range() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut t = Topology::random_connected(20, TopologyConfig::default(), &mut rng).unwrap();
        for _ in 0..10 {
            t.mobility_step(&mut rng);
            for v in t.nodes() {
                let d = t.home(v).distance(&t.position(v));
                // Clamping to the field can only reduce displacement.
                assert!(d <= 30.0 + 1e-9, "node {v} moved {d} m");
            }
        }
    }

    #[test]
    fn rdc_properties() {
        let t = line_topology(4, 60.0);
        assert_eq!(t.rdc(NodeId(1), NodeId(1)), 0.0);
        // Symmetric because hops and ranges are symmetric.
        assert_eq!(t.rdc(NodeId(0), NodeId(3)), t.rdc(NodeId(3), NodeId(0)));
        // More hops → strictly larger cost (equal ranges).
        assert!(t.rdc(NodeId(0), NodeId(3)) > t.rdc(NodeId(0), NodeId(1)));
        // Default mobility 30 m / 70 m range ⇒ 1 hop + 2*(3/7).
        let expect = 1.0 + 2.0 * (30.0 / 70.0);
        assert!((t.rdc(NodeId(0), NodeId(1)) - expect).abs() < 1e-12);
    }

    #[test]
    fn rdc_unreachable_penalty_is_finite() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(299.0, 299.0)];
        let t = Topology::from_positions(pts);
        let c = t.rdc(NodeId(0), NodeId(1));
        assert!(c.is_finite());
        assert!(c >= t.len() as f64);
    }

    #[test]
    fn neighbors_symmetric() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Topology::random_connected(30, TopologyConfig::default(), &mut rng).unwrap();
        for a in t.nodes() {
            for b in t.neighbors(a) {
                assert!(t.neighbors(b).any(|v| v == a));
            }
        }
    }

    #[test]
    fn crashed_node_cannot_route_or_relay() {
        // 0 - 1 - 2: killing the middle node severs the ends.
        let mut t = line_topology(3, 60.0);
        assert!(t.reachable(NodeId(0), NodeId(2)));
        t.set_active(NodeId(1), false);
        assert!(!t.is_active(NodeId(1)));
        assert_eq!(t.active_len(), 2);
        assert_eq!(t.nth_active(0), NodeId(0));
        assert_eq!(t.nth_active(1), NodeId(2), "the crashed node is skipped");
        assert!(!t.reachable(NodeId(0), NodeId(2)), "relay must be gone");
        assert!(!t.reachable(NodeId(0), NodeId(1)));
        assert_eq!(t.neighbors(NodeId(1)).len(), 0);
        // A restart restores the original routes.
        t.set_active(NodeId(1), true);
        assert!(t.reachable(NodeId(0), NodeId(2)));
        assert_eq!(t.hops(NodeId(0), NodeId(2)), 2);
    }

    #[test]
    fn partition_cut_severs_cross_links_only() {
        let mut t = line_topology(4, 60.0);
        t.set_partition(Some(&[NodeId(2), NodeId(3)]));
        assert!(t.reachable(NodeId(0), NodeId(1)));
        assert!(t.reachable(NodeId(2), NodeId(3)));
        assert!(!t.reachable(NodeId(1), NodeId(2)));
        assert!(!t.is_connected());
        t.set_partition(None);
        assert!(t.is_connected());
    }

    #[test]
    fn partition_survives_mobility_steps() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut t = Topology::random_connected(16, TopologyConfig::default(), &mut rng).unwrap();
        let cut: Vec<NodeId> = (0..8).map(NodeId).collect();
        t.set_partition(Some(&cut));
        for _ in 0..5 {
            t.mobility_step(&mut rng);
            for a in 0..8 {
                for b in 8..16 {
                    assert!(
                        !t.reachable(NodeId(a), NodeId(b)),
                        "{a} reached {b} across the cut"
                    );
                }
            }
        }
    }

    #[test]
    fn set_mobility_range_affects_rdc() {
        let mut t = line_topology(2, 60.0);
        let before = t.rdc(NodeId(0), NodeId(1));
        t.set_mobility_range(NodeId(0), 70.0);
        let after = t.rdc(NodeId(0), NodeId(1));
        assert!(after > before);
        assert_eq!(t.mobility_range(NodeId(0)), 70.0);
    }

    #[test]
    #[should_panic(expected = "mobility range of node n1 must be finite and non-negative")]
    fn nan_mobility_range_is_rejected() {
        line_topology(2, 60.0).set_mobility_range(NodeId(1), f64::NAN);
    }

    #[test]
    #[should_panic(expected = "mobility range of node n0 must be finite and non-negative")]
    fn negative_mobility_range_is_rejected() {
        line_topology(2, 60.0).set_mobility_range(NodeId(0), -1.0);
    }

    #[test]
    fn rdc_row_matches_pointwise_lookups() {
        let mut rng = StdRng::seed_from_u64(21);
        let t = Topology::random_connected(25, TopologyConfig::default(), &mut rng).unwrap();
        for i in t.nodes() {
            let row = t.rdc_row(i);
            assert_eq!(row.len(), t.len());
            for j in t.nodes() {
                assert_eq!(row[j.0].to_bits(), t.rdc(i, j).to_bits());
            }
        }
    }

    #[test]
    fn cached_rdc_matches_formula() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut t = Topology::random_connected(12, TopologyConfig::default(), &mut rng).unwrap();
        t.set_active(NodeId(3), false);
        t.set_mobility_range(NodeId(5), 45.0);
        let norm = COMM_RANGE;
        for i in t.nodes() {
            for j in t.nodes() {
                let expect = if i == j {
                    0.0
                } else {
                    let hop_cost = match t.hops(i, j) {
                        UNREACHABLE => t.len() as f64,
                        h => h as f64,
                    };
                    hop_cost + t.mobility_range(i) / norm + t.mobility_range(j) / norm
                };
                assert_eq!(t.rdc(i, j).to_bits(), expect.to_bits(), "{i}->{j}");
            }
        }
    }

    #[test]
    fn epoch_bumps_on_every_route_or_rdc_change() {
        let mut rng = StdRng::seed_from_u64(29);
        let mut t = line_topology(4, 60.0);
        let e0 = t.epoch();
        t.set_active(NodeId(1), false);
        assert!(t.epoch() > e0);
        let e1 = t.epoch();
        t.set_active(NodeId(1), false); // no-op flip
        assert_eq!(t.epoch(), e1);
        t.set_active(NodeId(1), true);
        assert!(t.epoch() > e1);
        let e2 = t.epoch();
        t.set_partition(Some(&[NodeId(0)]));
        assert!(t.epoch() > e2);
        let e3 = t.epoch();
        t.set_mobility_range(NodeId(0), 10.0);
        assert!(t.epoch() > e3);
        let e4 = t.epoch();
        t.mobility_step(&mut rng);
        assert!(t.epoch() > e4);
    }

    /// Above the parallel-sweep threshold (5 sweeps here), the tables must
    /// be exactly what a serial per-source BFS would produce (index-order
    /// merge).
    #[test]
    fn parallel_rebuild_matches_serial_bfs() {
        let mut rng = StdRng::seed_from_u64(31);
        let n = 4 * SWEEP_WIDTH + 3;
        assert!(n.div_ceil(SWEEP_WIDTH) >= PARALLEL_SWEEP_MIN_BATCHES);
        let t = Topology::random_connected(n, TopologyConfig::default(), &mut rng).unwrap();
        for src in 0..n {
            let hops_row = super::bfs_row(&t.adjacency, &t.active, src);
            for (dst, &hops) in hops_row.iter().enumerate() {
                assert_eq!(t.hops(NodeId(src), NodeId(dst)), hops);
            }
        }
    }

    /// A line whose diameter exceeds a sweep's 64 source bits: levels are
    /// hop counts, not bit positions. Eager fill sweeps it whole; a lazy
    /// twin, crashed in the middle, fills a listed source once however
    /// often it is listed.
    #[test]
    fn swept_rows_span_a_diameter_past_64() {
        let n = 150;
        let positions: Vec<Point> = (0..n).map(|i| Point::new(i as f64 * 60.0, 0.0)).collect();
        let field = Field::new(n as f64 * 60.0, 60.0);
        let eager = TopologyConfig {
            field,
            ..TopologyConfig::default()
        };
        let t = Topology::from_positions_with_config(positions.clone(), eager.clone());
        assert_eq!(t.hops(NodeId(0), NodeId(n - 1)), n as u32 - 1);
        for src in 0..n {
            let row = t.hop_rows[src].get().expect("eager fill holds every row");
            assert_eq!(row, &bfs_row(&t.adjacency, &t.active, src), "src {src}");
        }

        let lazy = TopologyConfig {
            sparse_routes: true,
            ..eager
        };
        let mut t = Topology::from_positions_with_config(positions, lazy);
        t.set_active(NodeId(70), false);
        telemetry::enable();
        t.fill_hop_rows([0, 149, 0, 70, 149].map(NodeId));
        let registry = telemetry::finish().expect("telemetry was enabled").registry;
        assert_eq!(registry.counter("topology.rows"), 3);
        assert_eq!(t.materialized_rows(), 3);
        for src in [0, 70, 149] {
            let row = t.hop_rows[src].get().expect("filled");
            assert_eq!(row, &bfs_row(&t.adjacency, &t.active, src), "src {src}");
        }
        assert_eq!(t.hops(NodeId(0), NodeId(69)), 69);
        assert_eq!(t.hops(NodeId(0), NodeId(71)), UNREACHABLE);
        let crashed = t.hop_rows[70].get().expect("filled");
        assert!(crashed.iter().all(|&h| h == UNREACHABLE));
    }

    /// The router this module had before routes were read off the
    /// destination's hop row, kept as the oracle: `src`'s BFS tree, then
    /// each destination's parent chain walked back to the source to find
    /// the first hop toward it.
    fn bfs_tree_next_hop(t: &Topology, src: usize) -> Vec<Option<NodeId>> {
        let n = t.len();
        let mut seen = vec![false; n];
        seen[src] = true;
        let mut queue = VecDeque::new();
        queue.push_back(NodeId(src));
        // parent[v] = predecessor of v on the BFS tree rooted at src.
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        while let Some(u) = queue.pop_front() {
            for v in t.neighbors(u) {
                if !seen[v.0] {
                    seen[v.0] = true;
                    parent[v.0] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        (0..n)
            .map(|dst| {
                let mut cur = NodeId(dst);
                let mut first = None;
                while let Some(p) = parent[cur.0] {
                    if p.0 == src {
                        first = Some(cur);
                    }
                    cur = p;
                }
                first
            })
            .collect()
    }

    /// The oracle's path from `a` to `b`: every intermediate node
    /// consulting its *own* BFS tree (`next_hop[src]` per source).
    fn tree_path(next_hop: &[Vec<Option<NodeId>>], a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![a];
        let mut cur = a;
        while cur != b {
            cur = next_hop[cur.0][b.0]?;
            path.push(cur);
        }
        Some(path)
    }

    /// Asserts `path` equals the old walk for every ordered pair.
    fn assert_paths_match_bfs_trees(t: &Topology, step: &str) {
        let n = t.len();
        let next_hop: Vec<_> = (0..n).map(|src| bfs_tree_next_hop(t, src)).collect();
        for a in t.nodes() {
            for b in t.nodes() {
                let expect = tree_path(&next_hop, a, b);
                assert_eq!(t.path(a, b), expect, "{step}: {a}->{b} (n={n})");
            }
        }
    }

    /// The lemma behind [`Topology::route`]: the lowest-id neighbour one
    /// hop closer to the destination *is* the first hop of the current
    /// node's BFS tree, on connected and disconnected placements, dense
    /// and sparse, through every kind of mutation.
    #[test]
    fn routes_match_per_source_bfs_trees() {
        for (seed, n) in [(1u64, 20usize), (2, 45), (3, 80), (4, 140), (5, 140)] {
            // ~10 neighbours per node, so placements mix long multi-hop
            // routes, many equal-length alternatives and cut-off islands.
            let side = 300.0 * (n as f64 / 60.0).sqrt();
            for sparse_routes in [false, true] {
                let mut rng = StdRng::seed_from_u64(seed);
                let positions = (0..n)
                    .map(|_| Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side))
                    .collect();
                let config = TopologyConfig {
                    field: Field::new(side, side),
                    sparse_routes,
                    ..TopologyConfig::default()
                };
                let mut t = Topology::from_positions_with_config(positions, config);
                assert_paths_match_bfs_trees(&t, "fresh");
                t.set_active(NodeId(n / 2), false);
                t.set_active(NodeId(1), false);
                assert_paths_match_bfs_trees(&t, "crash");
                t.set_active(NodeId(1), true);
                assert_paths_match_bfs_trees(&t, "restart");
                let cut: Vec<NodeId> = (0..n).step_by(3).map(NodeId).collect();
                t.set_partition(Some(&cut));
                assert_paths_match_bfs_trees(&t, "partition");
                t.mobility_step(&mut rng);
                assert_paths_match_bfs_trees(&t, "mobility under partition");
                t.set_partition(None);
                assert_paths_match_bfs_trees(&t, "heal");
                t.set_mobility_range(NodeId(2), 55.0);
                assert_paths_match_bfs_trees(&t, "range override");
                t.mobility_step(&mut rng);
                assert_paths_match_bfs_trees(&t, "mobility");
            }
        }
    }

    /// `random_connected` tests each placement with one BFS and builds
    /// route state only for the one it accepts; it must still consume the
    /// RNG and pick the placement exactly as the build-everything loop did.
    #[test]
    fn random_connected_accepts_the_first_connected_placement() {
        for sparse_routes in [false, true] {
            let config = TopologyConfig {
                sparse_routes,
                ..TopologyConfig::default()
            };
            let mut rng = StdRng::seed_from_u64(53);
            let mut twin = rng.clone();
            // n = 12 on the default field rejects most placements.
            let t = Topology::random_connected(12, config.clone(), &mut rng).unwrap();
            let (expect, rejected) = {
                let mut rejected = 0;
                loop {
                    let home = (0..12)
                        .map(|_| Point::new(twin.gen::<f64>() * 300.0, twin.gen::<f64>() * 300.0))
                        .collect();
                    let full = Topology::from_positions_with_config(home, config.clone());
                    if full.is_connected() {
                        break (full, rejected);
                    }
                    rejected += 1;
                }
            };
            assert!(rejected > 0, "seed must exercise the rejection path");
            assert_eq!(rng.gen::<u64>(), twin.gen::<u64>(), "same RNG draws");
            assert_eq!(t.epoch(), expect.epoch());
            for a in t.nodes() {
                assert_eq!(t.home(a), expect.home(a));
                assert_eq!(t.neighbors(a), expect.neighbors(a));
                for b in t.nodes() {
                    assert_eq!(t.hops(a, b), expect.hops(a, b));
                    assert_eq!(t.rdc(a, b).to_bits(), expect.rdc(a, b).to_bits());
                }
            }
        }
    }

    fn sparse_connected(n: usize, field: Field, seed: u64) -> Topology {
        let config = TopologyConfig {
            field,
            sparse_routes: true,
            ..TopologyConfig::default()
        };
        Topology::random_connected(n, config, &mut StdRng::seed_from_u64(seed)).unwrap()
    }

    /// The node farthest from `src` and its hop count, without touching
    /// the route rows.
    fn farthest_from(t: &Topology, src: NodeId) -> (NodeId, u32) {
        let row = bfs_row(&t.adjacency, &t.active, src.0);
        let reached = row
            .into_iter()
            .enumerate()
            .filter(|&(_, h)| h != UNREACHABLE);
        let (v, h) = reached.max_by_key(|&(_, h)| h).unwrap();
        (NodeId(v), h)
    }

    /// The regression guard for routing cost: a unicast materializes the
    /// destination's hop row and nothing else, however many hops it
    /// crosses, and a fetch (sort candidates by distance, request, reply)
    /// costs one row the first time and none the second — the
    /// requester's, which ranks the holders, routes the request over the
    /// requester–holder interval and carries the reply.
    #[test]
    fn unicast_materializes_one_row_and_a_fetch_one() {
        use crate::event::SimTime;
        use crate::transport::Transport;
        // The scale ladder's density (400 nodes per 300 m × 300 m) on a
        // strip, so routes run long.
        let fresh = sparse_connected(400, Field::new(150.0, 600.0), 59);
        assert_eq!(fresh.materialized_rows(), 0);
        let (a, _) = farthest_from(&fresh, NodeId(0));
        let (b, hops) = farthest_from(&fresh, a);
        assert!(hops >= 8, "want a long route, got {hops} hops");

        let t = fresh.clone();
        let mut tr = Transport::default();
        let sent = tr.unicast(&t, a, b, 1_000, SimTime::ZERO).unwrap();
        assert_eq!(sent.hops, hops);
        assert_eq!(t.materialized_rows(), 1);

        let (t, requester, holder) = (&fresh, a, b);
        let fetch = |tr: &mut Transport| {
            let mut holders = [NodeId(7), holder, NodeId(11)];
            holders.sort_by_key(|&h| t.hops(requester, h));
            tr.unicast(t, requester, holder, 100, SimTime::ZERO)
                .unwrap();
            tr.unicast(t, holder, requester, 1_000_000, SimTime::ZERO)
                .unwrap();
        };
        telemetry::enable();
        fetch(&mut tr);
        assert_eq!(t.materialized_rows(), 1);
        fetch(&mut tr);
        assert_eq!(t.materialized_rows(), 1);
        let registry = telemetry::finish().expect("telemetry was enabled").registry;
        assert_eq!(registry.counter("topology.rows"), 1);
        assert_eq!(registry.counter("topology.interval_routes"), 2);
    }

    /// Runs the same mutation workload on a dense and a sparse topology
    /// (same positions, same twin RNG streams) and asserts every public
    /// query agrees bit-for-bit after each step.
    #[test]
    fn sparse_mode_is_bit_identical_to_dense() {
        let mut rng = StdRng::seed_from_u64(37);
        let dense = Topology::random_connected(40, TopologyConfig::default(), &mut rng).unwrap();
        let positions: Vec<Point> = dense.nodes().map(|v| dense.position(v)).collect();
        let sparse_cfg = TopologyConfig {
            sparse_routes: true,
            ..TopologyConfig::default()
        };
        let mut sparse = Topology::from_positions_with_config(positions.clone(), sparse_cfg);
        let mut dense = Topology::from_positions_with_config(positions, TopologyConfig::default());

        let assert_equal = |d: &Topology, s: &Topology, step: &str| {
            for a in d.nodes() {
                assert_eq!(d.neighbors(a), s.neighbors(a), "{step}: neighbors {a}");
                let srow = s.rdc_row(a);
                let drow = d.rdc_row(a);
                for b in d.nodes() {
                    assert_eq!(d.hops(a, b), s.hops(a, b), "{step}: hops {a}->{b}");
                    assert_eq!(d.path(a, b), s.path(a, b), "{step}: path {a}->{b}");
                    assert_eq!(
                        d.rdc(a, b).to_bits(),
                        s.rdc(a, b).to_bits(),
                        "{step}: rdc {a}->{b}"
                    );
                    assert_eq!(
                        drow[b.0].to_bits(),
                        srow[b.0].to_bits(),
                        "{step}: rdc_row {a}->{b}"
                    );
                }
            }
            assert_eq!(d.is_connected(), s.is_connected(), "{step}: connectivity");
        };

        assert_equal(&dense, &sparse, "initial");
        let mut rng_d = StdRng::seed_from_u64(101);
        let mut rng_s = StdRng::seed_from_u64(101);
        dense.set_active(NodeId(7), false);
        sparse.set_active(NodeId(7), false);
        assert_equal(&dense, &sparse, "crash");
        dense.set_mobility_range(NodeId(3), 55.0);
        sparse.set_mobility_range(NodeId(3), 55.0);
        assert_equal(&dense, &sparse, "range");
        dense.mobility_step(&mut rng_d);
        sparse.mobility_step(&mut rng_s);
        assert_equal(&dense, &sparse, "mobility");
        let cut: Vec<NodeId> = (0..12).map(NodeId).collect();
        dense.set_partition(Some(&cut));
        sparse.set_partition(Some(&cut));
        assert_equal(&dense, &sparse, "partition");
        dense.set_partition(None);
        sparse.set_partition(None);
        dense.set_active(NodeId(7), true);
        sparse.set_active(NodeId(7), true);
        assert_equal(&dense, &sparse, "restore");
    }

    /// RDC rows priced *before* a mobility-range override leave nothing
    /// behind: rows priced afterwards match fresh computation.
    #[test]
    fn sparse_rdc_rows_are_patched_on_range_override() {
        let mut rng = StdRng::seed_from_u64(41);
        let cfg = TopologyConfig {
            sparse_routes: true,
            ..TopologyConfig::default()
        };
        let mut t = Topology::random_connected(20, cfg, &mut rng).unwrap();
        // Materialize a few rows, including the overridden node's own.
        for i in [0usize, 5, 9] {
            let _ = t.rdc_row(NodeId(i));
        }
        t.set_mobility_range(NodeId(5), 62.0);
        let norm = COMM_RANGE;
        for i in [0usize, 5, 9, 13] {
            let row = t.rdc_row(NodeId(i)).to_vec();
            for j in t.nodes() {
                let expect = if i == j.0 {
                    0.0
                } else {
                    let hop_cost = match t.hops(NodeId(i), j) {
                        UNREACHABLE => t.len() as f64,
                        h => h as f64,
                    };
                    hop_cost + t.mobility_range(NodeId(i)) / norm + t.mobility_range(j) / norm
                };
                assert_eq!(row[j.0].to_bits(), expect.to_bits(), "row {i} entry {j}");
            }
        }
    }

    /// The horizon-bounded BFS agrees with full hop counts inside the
    /// horizon and reads [`UNREACHABLE`] beyond it.
    #[test]
    fn bounded_bfs_matches_full_bfs_within_horizon() {
        let mut rng = StdRng::seed_from_u64(43);
        let t = Topology::random_connected(35, TopologyConfig::default(), &mut rng).unwrap();
        let horizon = 2;
        let all: Vec<usize> = (0..t.len()).collect();
        for src in t.nodes() {
            let hops = t.bfs_bounded(src, horizon, &all);
            for dst in t.nodes() {
                let full = t.hops(src, dst);
                let want = if full <= horizon { full } else { UNREACHABLE };
                assert_eq!(hops[dst.0], want, "{src}->{dst}");
            }
        }
    }

    /// Rows announced ahead and filled in one batch answer every query as
    /// the rows the queries fill themselves, and each counts once in
    /// `topology.rows`: announcing a source twice, or querying it after,
    /// fills nothing more.
    #[test]
    fn announced_rows_answer_as_lazily_filled_ones() {
        let batched = sparse_connected(150, Field::new(150.0, 450.0), 71);
        let lazy = batched.clone();
        let announced: Vec<NodeId> = batched.nodes().step_by(2).collect();
        let queries = |t: &Topology| {
            let (mut answers, mut rdc_rows) = (Vec::new(), Vec::new());
            for &a in &announced {
                for b in t.nodes() {
                    let rdc = t.rdc(a, b).to_bits();
                    answers.push((t.hops(a, b), t.path(a, b), t.path(b, a), rdc));
                }
                rdc_rows.push(t.rdc_row(a).iter().map(|c| c.to_bits()).collect::<Vec<_>>());
            }
            (answers, rdc_rows)
        };
        telemetry::enable();
        batched.fill_hop_rows(announced.iter().copied());
        batched.fill_hop_rows(announced.iter().copied());
        assert_eq!(batched.materialized_rows(), announced.len());
        let from_batch = queries(&batched);
        let batch_rows = telemetry::finish()
            .unwrap()
            .registry
            .counter("topology.rows");
        telemetry::enable();
        let from_queries = queries(&lazy);
        let lazy_rows = telemetry::finish()
            .unwrap()
            .registry
            .counter("topology.rows");
        assert_eq!(from_batch, from_queries);
        assert_eq!(batched.materialized_rows(), lazy.materialized_rows());
        assert_eq!((batch_rows, lazy_rows), (75, 75));
    }

    /// Sparse accounting: the CSR adjacency's two `u32` arrays, one lock
    /// slot per source, plus the heap of materialized hop rows. An RDC row
    /// is computed, not held.
    #[test]
    fn sparse_memory_counts_slots_and_materialized_rows() {
        use std::mem::size_of;
        let t = sparse_connected(100, Field::paper_default(), 61);
        let n = t.len();
        let empty = t.memory_bytes();
        let links: usize = t.nodes().map(|v| t.neighbors(v).len()).sum();
        let Adjacency { start, list } = &t.adjacency;
        assert_eq!((start.len(), list.len()), (n + 1, links));
        let adjacency = (start.capacity() + list.capacity()) * size_of::<u32>();
        let slots = size_of::<OnceLock<Vec<u32>>>();
        assert_eq!(empty, adjacency + n * slots);
        let _ = t.hops(NodeId(3), NodeId(4));
        assert_eq!(t.materialized_rows(), 1);
        assert_eq!(t.memory_bytes(), empty + n * size_of::<u32>());
        let _ = t.rdc_row(NodeId(3));
        assert_eq!(t.materialized_rows(), 1);
        assert_eq!(t.memory_bytes(), empty + n * size_of::<u32>());
        let dense = Topology::from_positions((0..5).map(|i| Point::new(i as f64, 0.0)).collect());
        assert_eq!(dense.materialized_rows(), 5);
    }

    /// The sparse representation must hold an order of magnitude less
    /// derived state than the dense tables until rows are touched.
    #[test]
    fn sparse_memory_is_far_below_dense() {
        let mut rng = StdRng::seed_from_u64(47);
        let dense = Topology::random_connected(80, TopologyConfig::default(), &mut rng).unwrap();
        let positions: Vec<Point> = dense.nodes().map(|v| dense.position(v)).collect();
        let sparse = Topology::from_positions_with_config(
            positions,
            TopologyConfig {
                sparse_routes: true,
                ..TopologyConfig::default()
            },
        );
        assert!(
            sparse.memory_bytes() * 4 < dense.memory_bytes(),
            "sparse {} vs dense {}",
            sparse.memory_bytes(),
            dense.memory_bytes()
        );
    }

    /// The BFS this module ran before the shared kernel, kept as the
    /// oracle: a growing `VecDeque` of [`NodeId`]s over the neighbour
    /// lists, returning `(node, hops)` in discovery order.
    fn reference_bfs(
        t: &Topology,
        src: NodeId,
        max_hops: u32,
        within: Option<&[bool]>,
    ) -> Vec<(NodeId, u32)> {
        if !t.is_active(src) {
            return Vec::new();
        }
        let mut dist = vec![UNREACHABLE; t.len()];
        dist[src.0] = 0;
        let mut order = vec![(src, 0)];
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.0];
            if du >= max_hops {
                continue;
            }
            for v in t.neighbors(u) {
                if dist[v.0] != UNREACHABLE || within.is_some_and(|mask| !mask[v.0]) {
                    continue;
                }
                dist[v.0] = du + 1;
                order.push((v, du + 1));
                queue.push_back(v);
            }
        }
        order
    }

    /// A placement of `n` nodes at about ten neighbours each on a square
    /// field (long multi-hop routes, many equal-length alternatives and
    /// cut-off islands), with `crashed` down and `cut` imposed.
    fn faulted(
        n: usize,
        seed: u64,
        sparse_routes: bool,
        crashed: &[usize],
        cut: &[usize],
    ) -> Topology {
        let side = 300.0 * (n as f64 / 60.0).sqrt();
        let mut rng = StdRng::seed_from_u64(seed);
        let positions = (0..n)
            .map(|_| Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side))
            .collect();
        let config = TopologyConfig {
            field: Field::new(side, side),
            sparse_routes,
            ..TopologyConfig::default()
        };
        let mut t = Topology::from_positions_with_config(positions, config);
        for &v in crashed {
            t.set_active(NodeId(v % n), false);
        }
        let cut: Vec<NodeId> = cut.iter().map(|&v| NodeId(v % n)).collect();
        t.set_partition(Some(&cut));
        t
    }

    /// The sort-based construction: every active node's in-range candidates,
    /// each link tested from both ends, each list sorted ascending.
    fn sorted_reference(t: &Topology) -> Adjacency {
        let grid = CellGrid::new(&t.config.field, COMM_RANGE, &t.position);
        let mut adjacency = Adjacency {
            start: vec![0],
            list: Vec::new(),
        };
        let list = &mut adjacency.list;
        for (i, p) in t.position.iter().enumerate() {
            if t.active[i] {
                let from = list.len();
                grid.for_each_candidate(p, |j, q| {
                    if j != i && p.distance(&q) <= COMM_RANGE && t.active[j] && !t.cut_severs(i, j)
                    {
                        list.push(j as u32);
                    }
                });
                list[from..].sort_unstable();
            }
            adjacency.start.push(list.len() as u32);
        }
        adjacency
    }

    fn assert_matches_sorted_reference(t: &Topology, label: &str) {
        let expect = sorted_reference(t);
        assert_eq!(t.adjacency.start, expect.start, "{label}: start");
        assert_eq!(t.adjacency.list, expect.list, "{label}: list");
    }

    /// The squared-distance link test answers as `distance <= COMM_RANGE`
    /// exactly on the boundary, one step off it either way, and across a
    /// random sweep of pairs a hair either side of 70 m.
    #[test]
    fn link_predicate_is_the_distance_compare() {
        let agree = |p: Point, q: Point| {
            let want = p.distance(&q) <= COMM_RANGE;
            assert_eq!(linked(&p, &q), want, "{p:?}-{q:?}");
            assert_eq!(linked(&q, &p), want, "{q:?}-{p:?}");
            want
        };
        let origin = Point::new(0.0, 0.0);
        assert!(agree(origin, Point::new(42.0, 56.0)), "exactly 70 m");
        assert!(agree(origin, Point::new(70.0, 0.0)), "exactly 70 m");
        // The square rounds one step above 4,900 m², the root to 70 m.
        let grazing = Point::new(70.0, 1e-6);
        assert!(origin.distance_squared(&grazing) > RANGE_SQ);
        assert!(agree(origin, grazing), "a plain square compare drops it");
        // Up to three float steps off each coordinate of both ends.
        let step = |v: f64, k: i32| {
            let f = if k < 0 { f64::next_down } else { f64::next_up };
            (0..k.abs()).fold(v, |v, _| f(v))
        };
        let mut outcomes = [0usize; 2];
        for (x, y) in [(42.0, 56.0), (70.0, 0.0), (70.0, 1e-6)] {
            for (kx, ky) in (-3..=3).flat_map(|kx| (-3..=3).map(move |ky| (kx, ky))) {
                let q = Point::new(step(x, kx), step(y, ky));
                for k0 in -1..=1 {
                    let p = Point::new(step(0.0, k0), step(0.0, -k0));
                    outcomes[usize::from(agree(p, q))] += 1;
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(0x11E);
        // Inside the root band, and across its edges.
        for spread in [1e-12, 1e-8].repeat(10_000) {
            let p = Point::new(rng.gen::<f64>() * 300.0, rng.gen::<f64>() * 300.0);
            let theta = rng.gen::<f64>() * std::f64::consts::TAU;
            let r = COMM_RANGE * (1.0 + (rng.gen::<f64>() - 0.5) * spread);
            let q = Point::new(p.x + r * theta.cos(), p.y + r * theta.sin());
            outcomes[usize::from(agree(p, q))] += 1;
        }
        assert!(
            outcomes.iter().all(|&k| k > 1_000),
            "both sides hit: {outcomes:?}"
        );
    }

    #[test]
    fn counting_csr_matches_sorted_reference() {
        // About ten neighbours a node (`faulted`'s field) and about 68
        // (`scale`'s density), each clean, then with crashes and a
        // partition cut, then after mobility steps.
        for n in [1usize, 2, 50, 3_000] {
            for (density, side) in [
                ("sparse", 300.0 * (n as f64 / 60.0).sqrt()),
                ("dense", 825.0 * (n as f64 / 3_000.0).sqrt()),
            ] {
                let mut rng = StdRng::seed_from_u64(n as u64);
                let positions = (0..n)
                    .map(|_| Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side))
                    .collect();
                let config = TopologyConfig {
                    field: Field::new(side, side),
                    sparse_routes: true,
                    ..TopologyConfig::default()
                };
                let mut t = Topology::from_positions_with_config(positions, config);
                let label = format!("n={n} {density}");
                assert_matches_sorted_reference(&t, &label);
                for v in (0..n).step_by(n / 5 + 1) {
                    t.set_active(NodeId(v), false);
                }
                let cut: Vec<NodeId> = (0..n).step_by(3).map(NodeId).collect();
                t.set_partition(Some(&cut));
                assert_matches_sorted_reference(&t, &format!("{label} faulted"));
                for step in 0..3 {
                    t.mobility_step(&mut rng);
                    assert_matches_sorted_reference(&t, &format!("{label} step {step}"));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A route read off the source's row (the interval), off the
        /// destination's row (the walk) and off the eager twin's full
        /// table are one path — the per-source BFS-tree oracle's — under
        /// crashes and a partition cut. The interval fills no row.
        #[test]
        fn interval_routes_match_walks_and_bfs_trees(
            n in 2usize..90,
            seed in any::<u64>(),
            crashed in prop::collection::vec(0usize..90, 0..4),
            cut in prop::collection::vec(0usize..90, 0..30),
            pairs in prop::collection::vec((0usize..90, 0usize..90), 1..24),
        ) {
            let lazy = faulted(n, seed, true, &crashed, &cut);
            let eager = faulted(n, seed, false, &crashed, &cut);
            let next_hop: Vec<_> = (0..n).map(|src| bfs_tree_next_hop(&eager, src)).collect();
            for (a, b) in pairs {
                let (a, b) = (NodeId(a % n), NodeId(b % n));
                let expect = tree_path(&next_hop, a, b);
                let from_a = lazy.clone();
                let _ = from_a.hops(a, a);
                prop_assert_eq!(from_a.path(a, b), expect.clone(), "interval {}->{}", a, b);
                prop_assert_eq!(from_a.materialized_rows(), 1);
                let to_b = lazy.clone();
                let _ = to_b.hops(b, b);
                prop_assert_eq!(to_b.path(a, b), expect.clone(), "walk {}->{}", a, b);
                prop_assert_eq!(eager.path(a, b), expect, "eager {}->{}", a, b);
            }
        }

        /// The counting-pass CSR equals the sorted reference on random
        /// placements under crashes and a partition cut, and after
        /// mobility steps.
        #[test]
        fn counting_csr_matches_sorted_reference_on_random_placements(
            n in 1usize..200,
            seed in any::<u64>(),
            crashed in prop::collection::vec(0usize..200, 0..6),
            cut in prop::collection::vec(0usize..200, 0..60),
            steps in 0usize..3,
        ) {
            let mut t = faulted(n, seed, true, &crashed, &cut);
            assert_matches_sorted_reference(&t, "placed");
            let mut rng = StdRng::seed_from_u64(seed);
            for step in 0..steps {
                t.mobility_step(&mut rng);
                assert_matches_sorted_reference(&t, &format!("step {step}"));
            }
        }

        /// The bit-parallel sweep fills exactly the one-source BFS's rows
        /// at the batch edges (n = 1, 63, 64, 65, 129) on random geometric
        /// graphs with crashed nodes and a partition cut: for any subset
        /// of sources first, then for all of them, filling only the rest.
        #[test]
        fn swept_rows_match_bfs_rows(
            pick in 0usize..5,
            seed in any::<u64>(),
            crashed in prop::collection::vec(0usize..129, 0..6),
            cut in prop::collection::vec(0usize..129, 0..40),
            subset in prop::collection::vec(any::<bool>(), 129),
        ) {
            let n = [1, 63, 64, 65, 129][pick];
            let t = faulted(n, seed, true, &crashed, &cut);
            let some: Vec<NodeId> = t.nodes().filter(|v| subset[v.0]).collect();
            t.fill_hop_rows(some.iter().copied());
            prop_assert_eq!(t.materialized_rows(), some.len());
            t.fill_hop_rows(t.nodes());
            prop_assert_eq!(t.materialized_rows(), n);
            for src in 0..n {
                let row = t.hop_rows[src].get().expect("every row filled");
                prop_assert_eq!(row, &bfs_row(&t.adjacency, &t.active, src), "src {}", src);
            }
        }

        /// The shared BFS kernel equals the reference BFS: full rows, and
        /// [`Topology::bfs_bounded`]'s counts to any target set at every
        /// horizon, however early the targets let it stop.
        #[test]
        fn bfs_kernel_matches_reference_bfs(
            n in 2usize..90,
            seed in any::<u64>(),
            crashed in prop::collection::vec(0usize..90, 0..4),
            cut in prop::collection::vec(0usize..90, 0..30),
            pick in prop::collection::vec(any::<bool>(), 90),
            horizon in 0u32..6,
        ) {
            let t = faulted(n, seed, true, &crashed, &cut);
            let targets: Vec<usize> = (0..n).filter(|&v| pick[v]).collect();
            for src in t.nodes() {
                for max_hops in [horizon, UNREACHABLE] {
                    let mut row = vec![UNREACHABLE; n];
                    for (v, h) in reference_bfs(&t, src, max_hops, None) {
                        row[v.0] = h;
                    }
                    if max_hops == UNREACHABLE {
                        prop_assert_eq!(&bfs_row(&t.adjacency, &t.active, src.0), &row);
                    }
                    let want: Vec<u32> = targets.iter().map(|&v| row[v]).collect();
                    prop_assert_eq!(t.bfs_bounded(src, max_hops, &targets), want);
                }
            }
        }

        /// The member-set sweep equals a per-member BFS confined to the
        /// members, at every horizon from 0 to one past the diameter, on
        /// member sets the induced subgraph splits, with crashed members,
        /// and on both sides of the 64-member sweep width. On a line, a
        /// member set with a gap does not reach across it.
        #[test]
        fn member_hops_match_confined_bfs(
            n in 1usize..150,
            seed in any::<u64>(),
            crashed in prop::collection::vec(0usize..150, 0..6),
            cut in prop::collection::vec(0usize..150, 0..40),
            pick in prop::collection::vec(any::<bool>(), 150),
        ) {
            let t = faulted(n, seed, true, &crashed, &cut);
            let members: Vec<usize> = (0..n).filter(|&v| pick[v]).collect();
            let mut mask = vec![false; n];
            for &m in &members {
                mask[m] = true;
            }
            let diameter = (0..n)
                .flat_map(|v| bfs_row(&t.adjacency, &t.active, v))
                .filter(|&h| h != UNREACHABLE)
                .max()
                .unwrap_or(0);
            for max_hops in 0..=diameter + 1 {
                let matrix = t.member_hops(&members, max_hops);
                prop_assert_eq!(matrix.len(), members.len());
                for (&m, row) in members.iter().zip(&matrix) {
                    let mut want = vec![UNREACHABLE; n];
                    for (v, h) in reference_bfs(&t, NodeId(m), max_hops, Some(&mask)) {
                        want[v.0] = h;
                    }
                    let want: Vec<u32> = members.iter().map(|&v| want[v]).collect();
                    prop_assert_eq!(row, &want, "member {} at horizon {}", m, max_hops);
                }
            }
            // Nodes 2 and 3 are one hop apart; 0 is cut off by the gap.
            let gap = line_topology(6, 60.0).member_hops(&[0, 2, 3], 10);
            let far = UNREACHABLE;
            prop_assert_eq!(gap, vec![vec![0, far, far], vec![far, 0, 1], vec![far, 1, 0]]);
        }
    }
}
