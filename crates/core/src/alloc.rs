//! The allocation engine: choosing storing nodes for data items, blocks,
//! and recent-block caching (paper §IV).
//!
//! For every item the engine builds a UFL instance from the live network
//! state — facility cost `A·f_i` from each node's [`NodeStorage::fdc`] and
//! connection cost from [`Topology::rdc`] — and solves it with
//! [`edgechain_facility::solve`]. The open facilities are the storing
//! nodes. A [`Placement::Random`] baseline stores the *same number* of
//! replicas at uniformly random non-full nodes, which is exactly the
//! comparison of Fig. 5 ("For a fair comparison, the total number of data
//! and blocks stored is the same as the optimal placement").

use crate::storage::NodeStorage;
use edgechain_facility::{
    serving_ids, solve, stitch_close_pass, SolveError, StitchFacility, UflInstance, UflSolution,
};
use edgechain_sim::{NodeId, Topology, UNREACHABLE};
use edgechain_telemetry as telemetry;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, VecDeque};

/// Placement strategy under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Placement {
    /// The paper's UFL-based fair & efficient allocation.
    #[default]
    Optimal,
    /// Random placement with the same replica count (the comparison the
    /// Fig. 5 *text* describes: "the total number of data and blocks
    /// stored is the same as the optimal placement").
    Random,
    /// No proactive data storage at all — consumers always fetch from the
    /// producer (the baseline the Fig. 5 *caption* names: "no proactive
    /// store solution").
    NoProactive,
}

impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Placement::Optimal => write!(f, "optimal"),
            Placement::Random => write!(f, "random"),
            Placement::NoProactive => write!(f, "no-proactive"),
        }
    }
}

/// Builds the per-item UFL instance from live state at the paper's
/// `A = 1000`. Exposed separately so benches can time instance
/// construction and solving independently.
pub fn build_instance(topology: &Topology, storage: &[NodeStorage]) -> UflInstance {
    assert_eq!(
        topology.len(),
        storage.len(),
        "one storage manager per topology node"
    );
    let fdc_scale = edgechain_facility::FDC_SCALE;
    build_instance_over(topology, storage, fdc_scale, &live_nodes(topology), None)
}

/// Core instance builder over an already-computed member set (solver index
/// → node id, ascending), so callers that need the mapping don't recompute
/// it. Each connect row is priced with Eq. 2 off the facility's hop counts
/// to the members ([`price_row`]). With `horizon: None` they are gathered
/// from the facility's [`Topology::hop_row`], the members' rows filled
/// first in bit-parallel sweeps when not held. With `Some(horizon)`, they
/// are the members' hop counts over the subgraph the members induce, cut
/// at `horizon` hops ([`Topology::member_hops`]: one sweep per 64 members,
/// no row stored), peers beyond it taking the unreachable penalty. Opening
/// costs are `A·f_i` with the operation order of the original
/// `from_costs` construction.
fn build_instance_over(
    topology: &Topology,
    storage: &[NodeStorage],
    fdc_scale: f64,
    members: &[usize],
    horizon: Option<u32>,
) -> UflInstance {
    telemetry::time_wall("ufl.build_ns", || {
        let connect: Vec<Vec<f64>> = match horizon {
            None => {
                topology.fill_hop_rows(members.iter().map(|&f| NodeId(f)));
                let gather = |&f: &usize| {
                    let row = topology.hop_row(NodeId(f));
                    price_row(topology, f, members, members.iter().map(|&c| row[c]))
                };
                members.iter().map(gather).collect()
            }
            Some(horizon) => {
                let price = |(&f, hops): (&usize, Vec<u32>)| {
                    price_row(topology, f, members, hops.into_iter())
                };
                let matrix = topology.member_hops(members, horizon);
                members.iter().zip(matrix).map(price).collect()
            }
        };
        let open_cost: Vec<f64> = members
            .iter()
            .map(|&i| scaled_open_cost(&storage[i], fdc_scale))
            .collect();
        UflInstance::new(open_cost, connect)
    })
}

/// Facility `f`'s connect row: Eq. 2 ([`Topology::rdc_from_hops`]) from
/// `f` to each member, over `hops`, the hop count to each in member order.
fn price_row(
    topology: &Topology,
    f: usize,
    members: &[usize],
    hops: impl Iterator<Item = u32>,
) -> Vec<f64> {
    let priced = members.iter().zip(hops);
    priced
        .map(|(&c, h)| topology.rdc_from_hops(NodeId(f), NodeId(c), h))
        .collect()
}

/// `A·f_i` with the exact floating-point operation order of the original
/// `from_costs` path (scale down by `FDC_SCALE`, then back up), so cached
/// and incremental rebuilds stay bit-identical to cold builds.
fn scaled_open_cost(storage: &NodeStorage, fdc_scale: f64) -> f64 {
    let scaled = storage.fdc() * fdc_scale / edgechain_facility::FDC_SCALE;
    edgechain_facility::FDC_SCALE * scaled
}

/// The facility/client universe of an allocation instance: crashed nodes
/// can neither store nor demand data, so the UFL problem is posed over the
/// surviving nodes only. With every node up this is the identity map.
fn live_nodes(topology: &Topology) -> Vec<usize> {
    (0..topology.len())
        .filter(|&i| topology.is_active(NodeId(i)))
        .collect()
}

/// Selects the storing nodes for one item under `placement`.
///
/// Both strategies solve the UFL instance first — [`Placement::Random`]
/// only uses it to learn the fair replica count, then forgets the
/// optimized locations.
///
/// # Examples
///
/// ```
/// use edgechain_core::{select_storers, NodeStorage, Placement};
/// use edgechain_sim::{Point, Topology};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let topo = Topology::from_positions(
///     (0..4).map(|i| Point::new(i as f64 * 60.0, 0.0)).collect(),
/// );
/// let storage = vec![NodeStorage::paper_default(); 4];
/// let mut rng = StdRng::seed_from_u64(1);
/// let storers = select_storers(Placement::Optimal, &topo, &storage, &mut rng)?;
/// assert!(!storers.is_empty());
/// # Ok::<(), edgechain_facility::SolveError>(())
/// ```
///
/// # Errors
///
/// Returns [`SolveError::NoFeasibleFacility`] when every node is full.
pub fn select_storers<R: Rng + ?Sized>(
    placement: Placement,
    topology: &Topology,
    storage: &[NodeStorage],
    rng: &mut R,
) -> Result<Vec<NodeId>, SolveError> {
    if placement == Placement::NoProactive {
        return Ok(Vec::new());
    }
    let live = live_nodes(topology);
    if live.is_empty() {
        return Err(SolveError::NoFeasibleFacility);
    }
    let fdc_scale = edgechain_facility::FDC_SCALE;
    let instance = build_instance_over(topology, storage, fdc_scale, &live, None);
    let solution = solve(&instance)?;
    storers_from_solution(placement, &solution, &live, storage, rng)
}

/// Maps a solved UFL instance back to storing-node ids under `placement`.
/// Shared by the one-shot path above and [`AllocationContext`], so both
/// paths make identical decisions (and identical rng draws for
/// [`Placement::Random`]) from the same solution.
fn storers_from_solution<R: Rng + ?Sized>(
    placement: Placement,
    solution: &UflSolution,
    live: &[usize],
    storage: &[NodeStorage],
    rng: &mut R,
) -> Result<Vec<NodeId>, SolveError> {
    // Solver indices address the live-node universe; map them back to
    // real node ids.
    let optimal: Vec<NodeId> = solution
        .open_facilities()
        .into_iter()
        .map(|f| NodeId(live[f]))
        .collect();
    place(placement, optimal, live, storage, rng)
}

/// Turns the solver's `optimal` storers into the final answer: as they
/// are, or — for [`Placement::Random`] — as many uniformly drawn non-full
/// nodes of `universe`.
fn place<R: Rng + ?Sized>(
    placement: Placement,
    optimal: Vec<NodeId>,
    universe: &[usize],
    storage: &[NodeStorage],
    rng: &mut R,
) -> Result<Vec<NodeId>, SolveError> {
    match placement {
        Placement::NoProactive => unreachable!("handled by callers"),
        Placement::Optimal => Ok(optimal),
        Placement::Random => {
            let mut picked: Vec<NodeId> = universe
                .iter()
                .copied()
                .filter(|&i| !storage[i].is_full())
                .map(NodeId)
                .collect();
            if picked.is_empty() {
                return Err(SolveError::NoFeasibleFacility);
            }
            let k = optimal.len().min(picked.len());
            picked.shuffle(rng);
            picked.truncate(k);
            picked.sort();
            Ok(picked)
        }
    }
}

/// Per-block allocation fast path (ISSUE 3 tentpole): builds the UFL
/// instance **once** and reuses it — and its solution — across the many
/// allocation calls a single block triggers (every packed item, the block
/// itself, recent-block growth, fault repair).
///
/// Correctness rests on two observations:
///
/// 1. The instance depends only on the topology (via the hop rows Eq. 2
///    is priced from, the ranges and the live set) and each live node's
///    used-slot count. The topology exposes an [`Topology::epoch`] that
///    bumps on every route/RDC change, and used slots are cheap to diff —
///    so staleness detection is `O(n)` per call instead of an `O(n²)`
///    rebuild.
/// 2. The solver is deterministic and consumes no rng, so reusing a cached
///    solution yields byte-identical output (including downstream rng
///    draws) to re-solving from scratch.
///
/// When only FDC costs drifted (items stored between calls), the cached
/// instance is patched in place via [`UflInstance::set_open_cost`] — the
/// `O(n²)` connect matrix is untouched — and only the solve is redone,
/// cold, so the output stays bit-identical to the one-shot
/// [`select_storers`] at the same `A` (pinned by
/// `context_matches_one_shot_path_through_mutations`).
///
/// Telemetry: counts `ufl.cache_hit` (solution reused), `ufl.cache_miss`
/// (full instance rebuild), and `ufl.incremental_updates` (facility costs
/// patched in place).
#[derive(Debug, Clone)]
pub struct AllocationContext {
    fdc_scale: f64,
    /// Region-decomposed allocation state (ISSUE 9 tentpole), present when
    /// the scale path is enabled via [`AllocationContext::with_regions`].
    regions: Option<RegionEngine>,
    /// Topology epoch `global` was cut against.
    topo_epoch: Option<u64>,
    /// The global engine's cache: one region whose members are the live
    /// nodes, priced from full hop rows instead of horizon-bounded ones.
    global: Region,
}

impl Default for AllocationContext {
    fn default() -> Self {
        Self::new(edgechain_facility::FDC_SCALE)
    }
}

impl AllocationContext {
    /// Context with an explicit FDC weight `A` (ablation support).
    pub fn new(fdc_scale: f64) -> Self {
        AllocationContext {
            fdc_scale,
            regions: None,
            topo_epoch: None,
            global: Region::new(Vec::new()),
        }
    }

    /// Enables the region-decomposed allocation path with the given
    /// partition parameters; [`AllocationContext::select_storers_regional`]
    /// requires it (it falls back to default parameters otherwise).
    pub fn with_regions(mut self, params: RegionParams) -> Self {
        self.regions = Some(RegionEngine {
            params,
            ..RegionEngine::default()
        });
        self
    }

    /// Marks all cached state stale; the next call rebuilds from scratch.
    pub fn invalidate(&mut self) {
        self.topo_epoch = None;
        if let Some(engine) = &mut self.regions {
            engine.topo_epoch = None;
        }
    }

    /// The one entry point a network run allocates through: the
    /// region-decomposed path ([`Self::select_storers_regional`], solving
    /// only `origin`'s region) once [`Self::with_regions`] enabled it, the
    /// global cached solve ([`Self::select_storers`]) otherwise.
    pub(crate) fn select<R: Rng + ?Sized>(
        &mut self,
        placement: Placement,
        origin: NodeId,
        topology: &Topology,
        storage: &[NodeStorage],
        rng: &mut R,
    ) -> Result<Vec<NodeId>, SolveError> {
        if self.regions.is_some() {
            self.select_storers_regional(placement, origin, topology, storage, rng)
        } else {
            self.select_storers(placement, topology, storage, rng)
        }
    }

    /// Cached equivalent of the one-shot [`select_storers`] (at this
    /// context's `A`, the paper's 1000 by default): observationally
    /// identical output and rng consumption, without re-building (or, when
    /// state is unchanged, re-solving) the UFL instance per call.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NoFeasibleFacility`] when every live node is
    /// full or no node is live.
    pub fn select_storers<R: Rng + ?Sized>(
        &mut self,
        placement: Placement,
        topology: &Topology,
        storage: &[NodeStorage],
        rng: &mut R,
    ) -> Result<Vec<NodeId>, SolveError> {
        if placement == Placement::NoProactive {
            return Ok(Vec::new());
        }
        assert_eq!(
            topology.len(),
            storage.len(),
            "one storage manager per topology node"
        );
        let epoch = topology.epoch();
        if self.topo_epoch != Some(epoch) {
            telemetry::counter_add("ufl.cache_miss", 1);
            self.global = Region::new(live_nodes(topology));
            self.topo_epoch = Some(epoch);
        }
        if self.global.members.is_empty() {
            return Err(SolveError::NoFeasibleFacility);
        }
        self.global.sync(topology, storage, self.fdc_scale, None);
        match self.global.solution.as_ref().expect("sync solved it") {
            Ok(sol) => storers_from_solution(placement, sol, &self.global.members, storage, rng),
            Err(e) => Err(*e),
        }
    }

    /// Region-decomposed storer selection (the scale path): solves a UFL
    /// instance over the *origin node's radio-connected region* instead of
    /// the whole network, then stitches the solution against the open
    /// facilities of adjacent regions (closing local facilities a
    /// neighbor's replica makes redundant). Work per call is
    /// O(region² + horizon-bounded BFS), independent of total network
    /// size.
    ///
    /// This path is an approximation of the global solve — replicas
    /// concentrate around the data's origin — and carries no
    /// bit-equivalence contract with [`select_storers`]. It shares
    /// the cache telemetry (`ufl.cache_hit` / `ufl.cache_miss` /
    /// `ufl.incremental_updates`) and the same incremental refresh
    /// triggers: repartition on topology epoch change, per-region
    /// open-cost patches on occupancy drift, solution reuse otherwise.
    ///
    /// When the origin's region is infeasible (every member full), its
    /// adjacent regions are tried in ascending order, then the remaining
    /// regions.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NoFeasibleFacility`] when every live node in
    /// every region is full or no node is live.
    pub fn select_storers_regional<R: Rng + ?Sized>(
        &mut self,
        placement: Placement,
        origin: NodeId,
        topology: &Topology,
        storage: &[NodeStorage],
        rng: &mut R,
    ) -> Result<Vec<NodeId>, SolveError> {
        if placement == Placement::NoProactive {
            return Ok(Vec::new());
        }
        let fdc_scale = self.fdc_scale;
        let engine = self.regions.get_or_insert_with(RegionEngine::default);
        let horizon = engine.params.horizon;
        let epoch = topology.epoch();
        if engine.topo_epoch != Some(epoch) {
            telemetry::counter_add("ufl.cache_miss", 1);
            let (regions, region_of) = partition_regions(topology, engine.params);
            engine.regions = regions;
            engine.region_of = region_of;
            engine.topo_epoch = Some(epoch);
        }
        if engine.regions.is_empty() {
            return Err(SolveError::NoFeasibleFacility);
        }
        // Feasibility order: the origin's region, its neighbors, everyone
        // else — all ascending, all deterministic.
        let start = engine
            .region_of
            .get(origin.0)
            .copied()
            .flatten()
            .unwrap_or(0);
        let mut order = vec![start];
        order.extend(engine.regions[start].adjacent.iter().copied());
        let rest: Vec<usize> = (0..engine.regions.len())
            .filter(|r| !order.contains(r))
            .collect();
        order.extend(rest);
        let solved = |r: &usize| {
            engine.regions[*r].sync(topology, storage, fdc_scale, Some(horizon));
            matches!(engine.regions[*r].solution, Some(Ok(_)))
        };
        let Some(r) = order.into_iter().find(solved) else {
            return Err(SolveError::NoFeasibleFacility);
        };

        // Boundary stitch: local opens (closable, at their opening cost)
        // against adjacent regions' already-solved opens (free absorbers).
        let region = &engine.regions[r];
        let instance = region.instance.as_ref().expect("chosen region was built");
        let Some(Ok(sol)) = &region.solution else {
            unreachable!("the chosen region solved");
        };
        let k = region.members.len();
        let local_opens = sol.open_facilities();
        let mut facilities: Vec<StitchFacility> = local_opens
            .iter()
            .map(|&li| StitchFacility {
                id: region.members[li],
                open_cost: instance.open_cost(li),
                external: false,
            })
            .collect();
        let mut connect: Vec<Vec<f64>> = local_opens
            .iter()
            .map(|&li| instance.connect_row(li).to_vec())
            .collect();
        let mut assignment: Vec<usize> = sol
            .assignment
            .iter()
            .map(|a| {
                local_opens
                    .binary_search(a)
                    .expect("assignment targets an open facility")
            })
            .collect();
        for &a in &region.adjacent {
            let adj = &engine.regions[a];
            let Some(Ok(asol)) = &adj.solution else {
                continue;
            };
            for fi in asol.open_facilities() {
                let g = adj.members[fi];
                let hops_to = topology.bfs_bounded(NodeId(g), horizon, &region.members);
                // Beyond-horizon members cannot use this external
                // facility: infinity (never picked) rather than the
                // finite in-instance penalty.
                let row: Vec<f64> = (0..k)
                    .map(|ci| match hops_to[ci] {
                        UNREACHABLE => f64::INFINITY,
                        h => topology.rdc_from_hops(NodeId(g), NodeId(region.members[ci]), h),
                    })
                    .collect();
                facilities.push(StitchFacility {
                    id: g,
                    open_cost: 0.0,
                    external: true,
                });
                connect.push(row);
            }
        }
        let open = stitch_close_pass(&facilities, &connect, &mut assignment);
        let optimal: Vec<NodeId> = serving_ids(&facilities, &open, &assignment)
            .into_iter()
            .map(NodeId)
            .collect();
        place(placement, optimal, &region.members, storage, rng)
    }
}

/// Parameters of the region decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionParams {
    /// Coarse partition cell side in meters. Default 140 m — twice the
    /// paper's radio range, so a region spans a couple of hops.
    pub cell_m: f64,
    /// BFS horizon (hops) for connect costs within and across regions;
    /// peers beyond it take the unreachable penalty.
    pub horizon: u32,
}

impl Default for RegionParams {
    fn default() -> Self {
        RegionParams {
            cell_m: 140.0,
            horizon: 8,
        }
    }
}

/// The one cached-UFL unit: a member set with its instance and solution.
/// The regional engine holds one per radio-connected region (the members
/// of one coarse grid cell that reach each other through in-cell links);
/// the global engine holds a single one over every live node.
#[derive(Debug, Clone)]
struct Region {
    /// Global node indices, ascending (solver index → node id).
    members: Vec<usize>,
    /// Indices of regions in the 3×3 coarse-cell neighborhood.
    adjacent: Vec<usize>,
    /// Used-slot counts at last refresh (FDC dirty checks).
    last_used: Vec<u64>,
    instance: Option<UflInstance>,
    /// Solve outcome for the current instance state; dropped on any
    /// instance change. Errors are cached too (a full network stays full
    /// until state changes).
    solution: Option<Result<UflSolution, SolveError>>,
}

/// Cached region partition plus per-region UFL state; rebuilt when the
/// topology epoch moves, patched in place when only occupancy drifts.
#[derive(Debug, Clone, Default)]
struct RegionEngine {
    params: RegionParams,
    topo_epoch: Option<u64>,
    regions: Vec<Region>,
    /// Node index → region index (`None` for crashed nodes).
    region_of: Vec<Option<usize>>,
}

/// Partitions the live nodes into radio-connected regions: bucket by
/// coarse grid cell, then split each cell's members into connected
/// components of the radio graph restricted to the cell. Regions are
/// ordered by (cell row, cell column, smallest member id) and region
/// adjacency follows the 3×3 cell neighborhood — all deterministic.
fn partition_regions(
    topology: &Topology,
    params: RegionParams,
) -> (Vec<Region>, Vec<Option<usize>>) {
    let n = topology.len();
    let cell = params.cell_m.max(1.0);
    let mut cells: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        let v = NodeId(i);
        if !topology.is_active(v) {
            continue;
        }
        let p = topology.position(v);
        let cx = (p.x / cell).floor().max(0.0) as u64;
        let cy = (p.y / cell).floor().max(0.0) as u64;
        cells.entry((cy, cx)).or_default().push(i);
    }
    let mut regions: Vec<Region> = Vec::new();
    let mut region_of: Vec<Option<usize>> = vec![None; n];
    let mut cell_regions: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
    let mut in_cell = vec![false; n];
    for (&key, members) in &cells {
        for &m in members {
            in_cell[m] = true;
        }
        for &m in members {
            if region_of[m].is_some() {
                continue;
            }
            // Connected component of `m` within the cell's members.
            let idx = regions.len();
            let mut comp = vec![m];
            region_of[m] = Some(idx);
            let mut queue = VecDeque::from([m]);
            while let Some(u) = queue.pop_front() {
                for w in topology.neighbors(NodeId(u)) {
                    if in_cell[w.0] && region_of[w.0].is_none() {
                        region_of[w.0] = Some(idx);
                        comp.push(w.0);
                        queue.push_back(w.0);
                    }
                }
            }
            comp.sort_unstable();
            cell_regions.entry(key).or_default().push(idx);
            regions.push(Region::new(comp));
        }
        for &m in members {
            in_cell[m] = false;
        }
    }
    for (&(cy, cx), idxs) in &cell_regions {
        let mut nbrs: Vec<usize> = Vec::new();
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                let ky = cy as i64 + dy;
                let kx = cx as i64 + dx;
                if ky < 0 || kx < 0 {
                    continue;
                }
                if let Some(others) = cell_regions.get(&(ky as u64, kx as u64)) {
                    nbrs.extend(others.iter().copied());
                }
            }
        }
        nbrs.sort_unstable();
        for &r in idxs {
            regions[r].adjacent = nbrs.iter().copied().filter(|&o| o != r).collect();
        }
    }
    (regions, region_of)
}

impl Region {
    /// An unsolved region over `members`; adjacency is filled in by
    /// [`partition_regions`].
    fn new(members: Vec<usize>) -> Self {
        Region {
            members,
            adjacent: Vec::new(),
            last_used: Vec::new(),
            instance: None,
            solution: None,
        }
    }

    /// Brings the cached UFL state in sync, leaving `solution` filled:
    /// builds the instance when absent — connect rows bounded to `horizon`
    /// hops inside the member set, or off full hop rows with `None` — patches
    /// drifted open costs in place otherwise (the `O(k²)` connect matrix
    /// is untouched), and (re-)solves only when something changed.
    fn sync(
        &mut self,
        topology: &Topology,
        storage: &[NodeStorage],
        fdc_scale: f64,
        horizon: Option<u32>,
    ) {
        let members = &self.members;
        if let Some(instance) = self.instance.as_mut() {
            let mut dirty = 0u64;
            for (li, &i) in members.iter().enumerate() {
                let used = storage[i].used_slots();
                if used != self.last_used[li] {
                    self.last_used[li] = used;
                    instance.set_open_cost(li, scaled_open_cost(&storage[i], fdc_scale));
                    dirty += 1;
                }
            }
            if dirty > 0 {
                telemetry::counter_add("ufl.incremental_updates", dirty);
                self.solution = None;
            }
        } else {
            let instance = build_instance_over(topology, storage, fdc_scale, members, horizon);
            self.instance = Some(instance);
            self.last_used = members.iter().map(|&i| storage[i].used_slots()).collect();
            self.solution = None;
        }
        if self.solution.is_none() {
            self.solution = Some(solve(self.instance.as_ref().expect("instance present")));
        } else {
            telemetry::counter_add("ufl.cache_hit", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::DataId;
    use edgechain_sim::{Point, TopologyConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_topology(n: usize) -> Topology {
        Topology::from_positions((0..n).map(|i| Point::new(i as f64 * 60.0, 0.0)).collect())
    }

    #[test]
    fn optimal_avoids_full_nodes() {
        let topo = line_topology(4);
        let mut storage = vec![NodeStorage::new(10); 4];
        for i in 0..10 {
            storage[1].store_data(DataId(i));
        }
        storage[1].cache_recent(0);
        assert!(storage[1].is_full());
        let mut rng = StdRng::seed_from_u64(1);
        let nodes = select_storers(Placement::Optimal, &topo, &storage, &mut rng).unwrap();
        assert!(!nodes.is_empty());
        assert!(!nodes.contains(&NodeId(1)), "full node selected: {nodes:?}");
    }

    #[test]
    fn optimal_prefers_emptier_nodes() {
        let topo = line_topology(3);
        let mut storage = vec![NodeStorage::new(100); 3];
        // Node 0 heavily used; nodes 1,2 empty.
        for i in 0..90 {
            storage[0].store_data(DataId(i));
        }
        let mut rng = StdRng::seed_from_u64(2);
        let nodes = select_storers(Placement::Optimal, &topo, &storage, &mut rng).unwrap();
        assert!(
            !nodes.contains(&NodeId(0)),
            "loaded node selected: {nodes:?}"
        );
    }

    #[test]
    fn random_matches_optimal_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = Topology::random_connected(20, TopologyConfig::default(), &mut rng).unwrap();
        let storage = vec![NodeStorage::paper_default(); 20];
        let optimal = select_storers(Placement::Optimal, &topo, &storage, &mut rng).unwrap();
        let random = select_storers(Placement::Random, &topo, &storage, &mut rng).unwrap();
        assert_eq!(optimal.len(), random.len());
    }

    #[test]
    fn random_only_picks_non_full() {
        let topo = line_topology(4);
        let mut storage = vec![NodeStorage::new(5); 4];
        for i in 0..5 {
            storage[2].store_data(DataId(i));
        }
        storage[2].cache_recent(0);
        assert!(storage[2].is_full());
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let nodes = select_storers(Placement::Random, &topo, &storage, &mut rng).unwrap();
            assert!(!nodes.contains(&NodeId(2)));
        }
    }

    #[test]
    fn all_full_is_error() {
        let topo = line_topology(2);
        let mut storage = vec![NodeStorage::new(1); 2];
        for s in &mut storage {
            s.cache_recent(0); // the single slot holds the newest block
            assert!(s.is_full());
        }
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(
            select_storers(Placement::Optimal, &topo, &storage, &mut rng),
            Err(SolveError::NoFeasibleFacility)
        );
        assert_eq!(
            select_storers(Placement::Random, &topo, &storage, &mut rng),
            Err(SolveError::NoFeasibleFacility)
        );
    }

    #[test]
    fn spread_out_network_gets_multiple_replicas() {
        // A long line: one replica cannot serve everyone cheaply, so the
        // solver opens several facilities.
        let topo = line_topology(12);
        let storage = vec![NodeStorage::paper_default(); 12];
        let mut rng = StdRng::seed_from_u64(6);
        let nodes = select_storers(Placement::Optimal, &topo, &storage, &mut rng).unwrap();
        assert!(
            nodes.len() >= 2,
            "expected multiple replicas, got {nodes:?}"
        );
    }

    #[test]
    fn crashed_nodes_are_never_selected() {
        let mut topo = line_topology(6);
        topo.set_active(NodeId(2), false);
        let storage = vec![NodeStorage::paper_default(); 6];
        let mut rng = StdRng::seed_from_u64(7);
        for placement in [Placement::Optimal, Placement::Random] {
            for _ in 0..10 {
                let nodes = select_storers(placement, &topo, &storage, &mut rng).unwrap();
                assert!(!nodes.is_empty());
                assert!(
                    !nodes.contains(&NodeId(2)),
                    "{placement}: dead node selected in {nodes:?}"
                );
            }
        }
    }

    #[test]
    fn all_nodes_down_is_infeasible() {
        let mut topo = line_topology(3);
        for i in 0..3 {
            topo.set_active(NodeId(i), false);
        }
        let storage = vec![NodeStorage::paper_default(); 3];
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(
            select_storers(Placement::Optimal, &topo, &storage, &mut rng),
            Err(SolveError::NoFeasibleFacility)
        );
    }

    #[test]
    #[should_panic(expected = "one storage manager per topology node")]
    fn mismatched_sizes_rejected() {
        let topo = line_topology(3);
        let storage = vec![NodeStorage::paper_default(); 2];
        let _ = build_instance(&topo, &storage);
    }

    /// The cached context must reproduce the one-shot path exactly across
    /// a mutating workload: storage writes, node crashes/restarts,
    /// mobility changes, and a node filling up and being freed within one
    /// topology epoch, under both placements. The regional engine runs
    /// on the same cache unit: with a single all-covering region (cell ≥
    /// field side, horizon ≥ n) it must stay feasible through the same
    /// mutations and replay identically.
    #[test]
    fn context_matches_one_shot_path_through_mutations() {
        let workload = || {
            let mut rng = StdRng::seed_from_u64(0xA11C);
            let mut topo =
                Topology::random_connected(15, TopologyConfig::default(), &mut rng).unwrap();
            let mut storage = vec![NodeStorage::new(40); 15];
            let mut ctx = AllocationContext::default();
            let mut regional_ctx = AllocationContext::default().with_regions(RegionParams {
                cell_m: 1_000.0,
                horizon: 15,
            });
            // Independent rngs with identical seeds: each path must draw
            // the same stream for Random placement.
            let mut rng_a = StdRng::seed_from_u64(0xD1CE);
            let mut rng_b = StdRng::seed_from_u64(0xD1CE);
            let mut rng_r = StdRng::seed_from_u64(0xD1CE);
            let mut regional_picks = Vec::new();
            for step in 0..60usize {
                let placement = match step % 3 {
                    0 => Placement::Optimal,
                    1 => Placement::Random,
                    _ => Placement::NoProactive,
                };
                let one_shot = select_storers(placement, &topo, &storage, &mut rng_a);
                let cached = ctx.select_storers(placement, &topo, &storage, &mut rng_b);
                assert_eq!(one_shot, cached, "step {step} ({placement})");
                let origin = NodeId(step % 15);
                let regional = regional_ctx
                    .select_storers_regional(placement, origin, &topo, &storage, &mut rng_r)
                    .unwrap_or_else(|e| panic!("step {step} ({placement}): regional {e:?}"));
                assert_eq!(
                    regional.is_empty(),
                    placement == Placement::NoProactive,
                    "step {step} ({placement}): regional picked {regional:?}"
                );
                for n in &regional {
                    assert!(topo.is_active(*n) && !storage[n.0].is_full());
                }
                regional_picks.push(regional);
                // Mutate the world between calls.
                if let Ok(nodes) = &one_shot {
                    for n in nodes {
                        storage[n.0].store_data(DataId(step as u64));
                    }
                }
                // Inside one topology epoch: node 9 is driven full (its
                // open cost patched to +∞ in a cached instance whose other
                // rows are already in use), stays full for six solves, then
                // has every slot released, as an expiry sweep would.
                const FILL: std::ops::Range<u64> = 1_000..1_040;
                if step == 6 {
                    storage[9].cache_recent(0);
                    for id in FILL {
                        storage[9].store_data(DataId(id));
                    }
                    assert!(storage[9].is_full());
                }
                if (7..=12).contains(&step) {
                    assert!(!cached.as_ref().is_ok_and(|c| c.contains(&NodeId(9))));
                    assert!(!regional_picks[step].contains(&NodeId(9)));
                }
                if step == 12 {
                    for id in (0..step as u64).chain(FILL) {
                        storage[9].evict_data(DataId(id));
                    }
                    assert_eq!(storage[9].data_count(), 0);
                }
                if step == 20 {
                    topo.set_active(NodeId(3), false);
                }
                if step == 35 {
                    topo.set_active(NodeId(3), true);
                }
                if step == 45 {
                    topo.set_mobility_range(NodeId(7), 25.0);
                }
            }
            regional_picks
        };
        assert_eq!(workload(), workload(), "regional engine drifted on rerun");
    }

    #[test]
    fn context_caches_errors_until_state_changes() {
        let topo = line_topology(2);
        let mut storage = vec![NodeStorage::new(2); 2];
        for s in &mut storage {
            s.cache_recent(0);
            assert!(s.store_data(DataId(0)));
            assert!(s.is_full());
        }
        let mut rng = StdRng::seed_from_u64(9);
        let mut ctx = AllocationContext::default();
        for _ in 0..3 {
            assert_eq!(
                ctx.select_storers(Placement::Optimal, &topo, &storage, &mut rng),
                Err(SolveError::NoFeasibleFacility)
            );
        }
        // Free a slot: the dirty check must notice and re-solve.
        assert!(storage[0].evict_data(DataId(0)));
        let nodes = ctx
            .select_storers(Placement::Optimal, &topo, &storage, &mut rng)
            .unwrap();
        assert_eq!(nodes, vec![NodeId(0)]);
    }

    #[test]
    fn context_all_nodes_down_is_infeasible() {
        let mut topo = line_topology(3);
        for i in 0..3 {
            topo.set_active(NodeId(i), false);
        }
        let storage = vec![NodeStorage::paper_default(); 3];
        let mut rng = StdRng::seed_from_u64(10);
        let mut ctx = AllocationContext::default();
        assert_eq!(
            ctx.select_storers(Placement::Optimal, &topo, &storage, &mut rng),
            Err(SolveError::NoFeasibleFacility)
        );
    }

    #[test]
    fn invalidate_forces_rebuild() {
        let topo = line_topology(4);
        let storage = vec![NodeStorage::paper_default(); 4];
        let mut rng = StdRng::seed_from_u64(11);
        let mut ctx = AllocationContext::default();
        let first = ctx
            .select_storers(Placement::Optimal, &topo, &storage, &mut rng)
            .unwrap();
        ctx.invalidate();
        let second = ctx
            .select_storers(Placement::Optimal, &topo, &storage, &mut rng)
            .unwrap();
        assert_eq!(first, second);
    }

    fn regional_ctx() -> AllocationContext {
        AllocationContext::default().with_regions(RegionParams::default())
    }

    #[test]
    fn partition_covers_live_nodes_exactly_once() {
        let mut topo = line_topology(12); // x spans 0..660 m: several 140 m cells
        topo.set_active(NodeId(5), false);
        let (regions, region_of) = partition_regions(&topo, RegionParams::default());
        assert!(
            regions.len() >= 3,
            "expected several regions on a long line"
        );
        let mut seen = [0usize; 12];
        for (r, region) in regions.iter().enumerate() {
            assert!(region.members.windows(2).all(|w| w[0] < w[1]));
            for &m in &region.members {
                seen[m] += 1;
                assert_eq!(region_of[m], Some(r));
            }
            assert!(!region.adjacent.contains(&r));
        }
        for i in 0..12 {
            if i == 5 {
                assert_eq!(seen[i], 0, "crashed node placed in a region");
                assert_eq!(region_of[i], None);
            } else {
                assert_eq!(seen[i], 1, "node {i} in {} regions", seen[i]);
            }
        }
    }

    #[test]
    fn partition_splits_disconnected_cell_members() {
        // Two nodes in the same coarse cell but out of radio range of each
        // other (range 70 m, distance 100 m diagonally separated within a
        // 140 m cell is impossible on a line, so use y).
        let topo = Topology::from_positions(vec![Point::new(10.0, 10.0), Point::new(10.0, 130.0)]);
        let (regions, region_of) = partition_regions(&topo, RegionParams::default());
        assert_eq!(regions.len(), 2);
        assert_ne!(region_of[0], region_of[1]);
        // Same cell ⇒ mutually adjacent regions.
        assert_eq!(regions[0].adjacent, vec![1]);
        assert_eq!(regions[1].adjacent, vec![0]);
    }

    #[test]
    fn regional_selection_picks_live_non_full_nodes() {
        let topo = line_topology(12);
        let mut storage = vec![NodeStorage::new(10); 12];
        for i in 0..10 {
            storage[1].store_data(DataId(i));
        }
        storage[1].cache_recent(0);
        assert!(storage[1].is_full());
        let mut rng = StdRng::seed_from_u64(21);
        let mut ctx = regional_ctx();
        let nodes = ctx
            .select_storers_regional(Placement::Optimal, NodeId(0), &topo, &storage, &mut rng)
            .unwrap();
        assert!(!nodes.is_empty());
        assert!(!nodes.contains(&NodeId(1)), "full node selected: {nodes:?}");
    }

    #[test]
    fn regional_selection_is_stable_and_tracks_crashes() {
        let mut topo = line_topology(10);
        let storage = vec![NodeStorage::paper_default(); 10];
        let mut rng = StdRng::seed_from_u64(22);
        let mut ctx = regional_ctx();
        let first = ctx
            .select_storers_regional(Placement::Optimal, NodeId(4), &topo, &storage, &mut rng)
            .unwrap();
        let second = ctx
            .select_storers_regional(Placement::Optimal, NodeId(4), &topo, &storage, &mut rng)
            .unwrap();
        assert_eq!(first, second, "cached regional solve drifted");
        // Crash every currently selected node: the epoch bump must force a
        // repartition that routes around them.
        for n in &first {
            topo.set_active(*n, false);
        }
        let third = ctx
            .select_storers_regional(Placement::Optimal, NodeId(4), &topo, &storage, &mut rng)
            .unwrap();
        assert!(!third.is_empty());
        for n in &first {
            assert!(!third.contains(n), "dead node {n:?} selected in {third:?}");
        }
    }

    #[test]
    fn regional_random_draws_from_origin_region() {
        let topo = line_topology(12);
        let storage = vec![NodeStorage::paper_default(); 12];
        let mut rng = StdRng::seed_from_u64(23);
        let mut ctx = regional_ctx();
        let optimal = ctx
            .select_storers_regional(Placement::Optimal, NodeId(0), &topo, &storage, &mut rng)
            .unwrap();
        let random = ctx
            .select_storers_regional(Placement::Random, NodeId(0), &topo, &storage, &mut rng)
            .unwrap();
        assert_eq!(optimal.len(), random.len());
        let engine = ctx.regions.as_ref().unwrap();
        let region = engine.region_of[0].unwrap();
        for n in &random {
            assert_eq!(
                engine.region_of[n.0],
                Some(region),
                "random pick {n:?} outside origin region"
            );
        }
    }

    #[test]
    fn regional_falls_back_when_origin_region_is_full() {
        // Origin's region (nodes at x=0,60 share cell 0) entirely full;
        // the adjacent region must take over.
        let topo = line_topology(6);
        let mut storage = vec![NodeStorage::new(2); 6];
        for i in 0..2 {
            for s in storage.iter_mut().take(3) {
                s.store_data(DataId(i));
            }
        }
        for s in storage.iter_mut().take(3) {
            s.cache_recent(0);
            assert!(s.is_full());
        }
        let mut rng = StdRng::seed_from_u64(24);
        let mut ctx = regional_ctx();
        let nodes = ctx
            .select_storers_regional(Placement::Optimal, NodeId(0), &topo, &storage, &mut rng)
            .unwrap();
        assert!(!nodes.is_empty());
        for n in &nodes {
            assert!(n.0 >= 3, "full-region node selected: {nodes:?}");
        }
    }

    #[test]
    fn regional_all_down_is_infeasible() {
        let mut topo = line_topology(4);
        for i in 0..4 {
            topo.set_active(NodeId(i), false);
        }
        let storage = vec![NodeStorage::paper_default(); 4];
        let mut rng = StdRng::seed_from_u64(25);
        let mut ctx = regional_ctx();
        assert_eq!(
            ctx.select_storers_regional(Placement::Optimal, NodeId(0), &topo, &storage, &mut rng),
            Err(SolveError::NoFeasibleFacility)
        );
    }

    #[test]
    fn regional_selection_matches_between_sparse_and_dense_routes() {
        // The regional path reads only neighbor lists, bounded BFS, and
        // RDC values — all bit-identical across route representations.
        let mut rng = StdRng::seed_from_u64(0x5CA1E);
        let positions: Vec<Point> = (0..40)
            .map(|_| {
                Point::new(
                    rand::Rng::gen_range(&mut rng, 0.0..300.0),
                    rand::Rng::gen_range(&mut rng, 0.0..300.0),
                )
            })
            .collect();
        let dense =
            Topology::from_positions_with_config(positions.clone(), TopologyConfig::default());
        let sparse = Topology::from_positions_with_config(
            positions,
            TopologyConfig {
                sparse_routes: true,
                ..TopologyConfig::default()
            },
        );
        let storage = vec![NodeStorage::paper_default(); 40];
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut ctx_a = regional_ctx();
        let mut ctx_b = regional_ctx();
        for origin in 0..40 {
            let a = ctx_a.select_storers_regional(
                Placement::Optimal,
                NodeId(origin),
                &dense,
                &storage,
                &mut rng_a,
            );
            let b = ctx_b.select_storers_regional(
                Placement::Optimal,
                NodeId(origin),
                &sparse,
                &storage,
                &mut rng_b,
            );
            assert_eq!(a, b, "origin {origin}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The global instance prices each connect cost off the
        /// facility's hop row; every cost equals, bit for bit, the gather
        /// from [`Topology::rdc_row`] it replaced, on random placements,
        /// eager and lazy, under crashes, a partition cut and a
        /// mobility-range override (which moves Eq. 2 but no hop count).
        #[test]
        fn global_instance_equals_the_rdc_row_gather(
            n in 2usize..70,
            seed in proptest::prelude::any::<u64>(),
            sparse_routes in proptest::prelude::any::<bool>(),
            crashed in proptest::collection::vec(0usize..70, 0..4),
            cut in proptest::collection::vec(0usize..70, 0..25),
            range in (0usize..70, 0.0f64..90.0),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let positions = (0..n)
                .map(|_| {
                    Point::new(
                        rand::Rng::gen_range(&mut rng, 0.0..300.0),
                        rand::Rng::gen_range(&mut rng, 0.0..300.0),
                    )
                })
                .collect();
            let config = TopologyConfig {
                sparse_routes,
                ..TopologyConfig::default()
            };
            let mut topo = Topology::from_positions_with_config(positions, config);
            for v in crashed {
                topo.set_active(NodeId(v % n), false);
            }
            let cut: Vec<NodeId> = cut.into_iter().map(|v| NodeId(v % n)).collect();
            topo.set_partition(Some(&cut));
            let storage = vec![NodeStorage::paper_default(); n];
            let check = |topo: &Topology, step: &str| {
                let members = live_nodes(topo);
                if members.is_empty() {
                    return; // no facility to pose an instance over
                }
                let fdc = edgechain_facility::FDC_SCALE;
                let instance = build_instance_over(topo, &storage, fdc, &members, None);
                for (i, &f) in members.iter().enumerate() {
                    let row = topo.rdc_row(NodeId(f));
                    let got: Vec<u64> = instance.connect_row(i).iter().map(|c| c.to_bits()).collect();
                    let want: Vec<u64> = members.iter().map(|&c| row[c].to_bits()).collect();
                    proptest::prop_assert_eq!(got, want, "{}: facility {}", step, f);
                }
            };
            check(&topo, "faulted");
            topo.set_mobility_range(NodeId(range.0 % n), range.1);
            check(&topo, "range override");
        }
    }
}
