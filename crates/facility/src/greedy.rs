//! Greedy UFL approximation (Hochbaum-style set-cover greedy).
//!
//! Repeatedly picks the (facility, client-prefix) pair with the lowest
//! amortized cost `(f_i + Σ_{j∈S} c_ij) / |S|`, where `S` ranges over
//! prefixes of the not-yet-covered clients sorted by connection cost to
//! `i`. Already-open facilities participate with `f_i = 0`, so late
//! clients can join earlier facilities for free. This is the classic
//! `O(ln n)`-approximation; combined with the local search in
//! [`crate::local_search`] it is near-optimal on the paper's n ≤ 50
//! instances (verified against [`crate::exact`] in tests).
//!
//! ## Fast path
//!
//! The original solver scans the facilities in index order each round,
//! re-sorts every facility's uncovered clients, and keeps a pair only when
//! its ratio is strictly below the best so far. Its pick is therefore the
//! lexicographic minimum of (ratio, facility, prefix length), and this
//! solver computes that same minimum with less work. The `#[cfg(test)]`
//! reference pins it bit for bit.
//!
//! * *Orders are kept.* A facility's stable client order depends only on
//!   its connect row, so the instance sorts it once, on first use (see
//!   `UflInstance::client_order`). A facility's first walk copies that
//!   order, filtered to uncovered finite-cost clients, into a list of its
//!   own; later walks drop the clients covered since. Filtering a stably
//!   sorted list keeps its relative order, so each walk sees the cost
//!   sequence a re-sort would produce.
//! * *The order of the walks is free.* The winner is compared as
//!   (ratio, facility), so any walk order picks the same pair. Open
//!   facilities (`f_i = 0`) are walked first because they usually set a
//!   low best ratio `r` early. Closed facilities follow in index order.
//! * *A stale ratio is a lower bound.* `lb[i]` is facility `i`'s lowest
//!   ratio in the last round that walked it. Covering clients only removes
//!   entries from `i`'s list, so its t-th entry can only grow. `+` and
//!   `/ t` round monotonically, so every ratio `i` offers now is ≥ `lb[i]`
//!   in floating point, not just in the reals. A facility whose `lb[i]`
//!   cannot beat the best pair is skipped. `f_i` changes only when `i`
//!   opens and drops to 0; `lb[i]` resets there.
//! * *A closed facility is screened before its walk, and before its order
//!   is ever sorted.* With `u` uncovered clients, every ratio it could
//!   compute is ≥ `f_i / u` in floating point, so that O(1) bound is
//!   tried first. If that does not settle it, `f_i ≥ Σ_{uncovered j}
//!   max(0, r − c_ij) + (u + 2)²·ε·r` proves that every prefix ratio it
//!   could compute is strictly above `r`. The margin covers the rounding
//!   of both sums (DESIGN §9, short-circuit 5).
//!
//! The final pruning pass uses cheapest/second-cheapest bookkeeping
//! (`UflInstance::two_cheapest_open`) instead of cloning and reassigning
//! a trial solution per open facility. All buffers live in the thread's
//! reused scratch.

use crate::instance::{SolveError, TwoCheapest, UflInstance, UflSolution};
use crate::scratch::{with_scratch, Scratch};
use edgechain_telemetry as telemetry;

/// The smallest best ratio the sum screen runs at. From here up, the
/// screen's margin and every ratio it bounds are normal floats, so each
/// rounding is relative.
pub(crate) const SCREEN_FLOOR: f64 = f64::MIN_POSITIVE / f64::EPSILON;

/// The sum screen's error analysis assumes fewer uncovered clients than
/// this (u·ε stays far below 1).
const SCREEN_MAX_CLIENTS: usize = 1 << 22;

/// A facility that has not been walked in this solve yet.
const UNWALKED: usize = usize::MAX;

/// The greedy's per-facility state. Its buffers are reused across solves.
#[derive(Debug, Default)]
pub(crate) struct Walks {
    /// Facility `i`'s uncovered finite-cost clients in client order, as of
    /// its last walk: `arena[start[i]..start[i] + len[i]]`.
    arena: Vec<u32>,
    /// Where facility `i`'s list starts, or [`UNWALKED`].
    start: Vec<usize>,
    len: Vec<usize>,
    /// Facility `i`'s lowest ratio in the last round that walked it.
    lb: Vec<f64>,
    /// The uncovered clients, ascending.
    uncovered: Vec<u32>,
    /// The open facilities, ascending.
    open: Vec<usize>,
}

/// The best (ratio, facility, prefix length) found so far in a round.
#[derive(Clone, Copy)]
struct Best {
    ratio: f64,
    fac: usize,
    take: usize,
}

impl Best {
    /// Whether facility `i` offering `ratio` comes first in the
    /// (ratio, facility) order. Within one facility's walk a longer prefix
    /// with an equal ratio does not come first.
    fn beaten_by(&self, ratio: f64, i: usize) -> bool {
        ratio < self.ratio || (ratio == self.ratio && i < self.fac)
    }
}

/// Whether a facility that can only offer ratios ≥ `bound` might beat
/// `best` (no best yet: it might).
fn may_beat(best: Option<Best>, bound: f64, i: usize) -> bool {
    best.is_none_or(|b| b.beaten_by(bound, i))
}

impl Walks {
    fn reset(&mut self, m: usize, k: usize) {
        self.arena.clear();
        self.start.clear();
        self.start.resize(m, UNWALKED);
        self.len.clear();
        self.len.resize(m, 0);
        self.lb.clear();
        self.lb.resize(m, f64::NEG_INFINITY);
        self.uncovered.clear();
        self.uncovered.extend(0..k as u32);
        self.open.clear();
    }

    /// Walks facility `i` at opening cost `f_cost`. The walk drops the
    /// clients covered since its last walk from `i`'s list, or builds the
    /// list from the client order on the first walk. It then prices every
    /// prefix, updates `best`, and records `i`'s lowest ratio in `lb[i]`.
    fn walk(
        &mut self,
        instance: &UflInstance,
        i: usize,
        f_cost: f64,
        assignment: &[usize],
        best: &mut Option<Best>,
    ) {
        let row = instance.connect_row(i);
        if self.start[i] == UNWALKED {
            self.start[i] = self.arena.len();
            // A stable order puts the infinite costs last; no prefix
            // reaches them.
            let uncovered = instance
                .client_order(i)
                .iter()
                .take_while(|&&j| row[j as usize].is_finite())
                .filter(|&&j| assignment[j as usize] == usize::MAX);
            self.arena.extend(uncovered);
            self.len[i] = self.arena.len() - self.start[i];
        }
        let list = &mut self.arena[self.start[i]..self.start[i] + self.len[i]];
        let (mut kept, mut running, mut lowest) = (0, f_cost, f64::INFINITY);
        for at in 0..list.len() {
            let j = list[at];
            if assignment[j as usize] != usize::MAX {
                continue;
            }
            list[kept] = j;
            kept += 1;
            running += row[j as usize];
            let ratio = running / kept as f64;
            lowest = lowest.min(ratio);
            if may_beat(*best, ratio, i) {
                *best = Some(Best {
                    ratio,
                    fac: i,
                    take: kept,
                });
            }
        }
        self.len[i] = kept;
        self.lb[i] = lowest;
    }

    /// Whether closed facility `i` can be skipped without a walk: no prefix
    /// ratio it could compute beats `best`.
    fn screened(&self, best: Best, i: usize, f: f64, row: &[f64]) -> bool {
        let u = self.uncovered.len();
        // Every computed ratio is fl(fl(f + …) / t) ≥ fl(f / t) ≥ fl(f / u).
        if !best.beaten_by(f / u as f64, i) {
            return true;
        }
        let r = best.ratio;
        if r < SCREEN_FLOOR || u >= SCREEN_MAX_CLIENTS {
            return false;
        }
        // In the reals a prefix S reaches ratio r only if
        // f ≤ Σ_{j∈S} (r − c_ij) ≤ `gain`. The margin covers the rounding
        // of `gain` and of the walk's running sums and divisions, so every
        // ratio the walk could compute is strictly above r (DESIGN §9).
        let margin = ((u + 2) * (u + 2)) as f64 * f64::EPSILON * r;
        let gain = |j: u32| (r - row[j as usize]).max(0.0);
        let (quads, tail) = self.uncovered.as_chunks::<4>();
        let mut acc = [0.0f64; 4];
        for q in quads {
            for a in 0..4 {
                acc[a] += gain(q[a]);
            }
        }
        for (slot, &j) in acc.iter_mut().zip(tail) {
            *slot += gain(j);
        }
        f >= (acc[0] + acc[1]) + (acc[2] + acc[3]) + margin
    }
}

/// Solves `instance` greedily.
///
/// # Errors
///
/// Returns [`SolveError::NoFeasibleFacility`] when every facility has an
/// infinite opening cost (in the paper's setting: all nodes are full).
pub fn solve_greedy(instance: &UflInstance) -> Result<UflSolution, SolveError> {
    telemetry::counter_add("ufl.greedy_calls", 1);
    telemetry::time_wall("ufl.greedy_ns", || {
        with_scratch(|scratch| solve_greedy_inner(instance, scratch))
    })
}

fn solve_greedy_inner(
    instance: &UflInstance,
    scratch: &mut Scratch,
) -> Result<UflSolution, SolveError> {
    if !instance.has_finite_facility() {
        return Err(SolveError::NoFeasibleFacility);
    }
    let m = instance.facilities();
    let k = instance.clients();
    let mut open = vec![false; m];
    let mut assignment = vec![usize::MAX; k];
    let state = &mut scratch.walks;
    state.reset(m, k);
    let (mut rounds, mut walks, mut screened) = (0u64, 0u64, 0u64);

    while !state.uncovered.is_empty() {
        rounds += 1;
        let mut best: Option<Best> = None;
        for at in 0..state.open.len() {
            let i = state.open[at];
            if may_beat(best, state.lb[i], i) {
                walks += 1;
                state.walk(instance, i, 0.0, &assignment, &mut best);
            }
        }
        for (i, &is_open) in open.iter().enumerate() {
            let f = instance.open_cost(i);
            if is_open || !f.is_finite() || !may_beat(best, state.lb[i], i) {
                continue;
            }
            if let Some(b) = best {
                if state.screened(b, i, f, instance.connect_row(i)) {
                    screened += 1;
                    continue;
                }
            }
            walks += 1;
            state.walk(instance, i, f, &assignment, &mut best);
        }
        let Best { fac, take, .. } = best.ok_or(SolveError::NoFeasibleFacility)?;
        if !open[fac] {
            open[fac] = true;
            state.lb[fac] = f64::NEG_INFINITY;
            let at = state.open.partition_point(|&o| o < fac);
            state.open.insert(at, fac);
        }
        // `fac` was walked this round, so its list is exactly its uncovered
        // clients in order: claim the first `take`.
        let start = state.start[fac];
        for &j in &state.arena[start..start + take] {
            assignment[j as usize] = fac;
        }
        state.start[fac] += take;
        state.len[fac] -= take;
        state
            .uncovered
            .retain(|&j| assignment[j as usize] == usize::MAX);
    }
    telemetry::counter_add("ufl.greedy.rounds", rounds);
    telemetry::counter_add("ufl.greedy.walks", walks);
    telemetry::counter_add("ufl.greedy.screened", screened);

    let mut solution = UflSolution {
        open,
        assignment,
        cost: 0.0,
    };
    // Cleanup: every client to its cheapest open facility, then drop
    // facilities that no longer pay for themselves.
    solution.reassign_best_with(instance, &mut scratch.best_cost);
    prune_useless(instance, &mut solution, scratch);
    Ok(solution)
}

/// Closes any open facility whose removal lowers the total cost (keeping at
/// least one open), reassigning clients optimally after each close.
///
/// Trial costs come from cheapest/second-cheapest bookkeeping: closing `i`
/// re-routes exactly the clients with `b1[j] == i` to `c2[j]`. The
/// accumulation order (open costs in ascending facility order, then
/// clients in ascending id order) mirrors [`UflSolution::validate`], so
/// each trial cost is bit-identical to what the former clone-and-reassign
/// trial computed.
fn prune_useless(instance: &UflInstance, solution: &mut UflSolution, scratch: &mut Scratch) {
    let k = instance.clients();
    let Scratch {
        cheapest,
        open_now,
        best_cost,
        ..
    } = scratch;
    loop {
        solution.open_facilities_into(open_now);
        if open_now.len() <= 1 {
            return;
        }
        instance.two_cheapest_open(&solution.open, cheapest);
        let TwoCheapest { b1, c1, c2 } = &*cheapest;
        let mut improved = false;
        for &i in open_now.iter() {
            let mut cost = 0.0;
            for &o in open_now.iter() {
                if o != i {
                    cost += instance.open_cost(o);
                }
            }
            for j in 0..k {
                cost += if b1[j] == i { c2[j] } else { c1[j] };
            }
            if cost < solution.cost {
                solution.open[i] = false;
                solution.reassign_best_with(instance, best_cost);
                improved = true;
                break;
            }
        }
        if !improved {
            return;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::instance::UflInstance;

    /// The pre-rewrite greedy, verbatim: per-round full re-sorts and a
    /// clone-per-trial pruning pass. Kept as the behavioral reference the
    /// fast implementation must match bit-for-bit.
    pub(crate) fn solve_greedy_reference(
        instance: &UflInstance,
    ) -> Result<UflSolution, SolveError> {
        if !instance.has_finite_facility() {
            return Err(SolveError::NoFeasibleFacility);
        }
        let m = instance.facilities();
        let k = instance.clients();
        let mut open = vec![false; m];
        let mut assignment = vec![usize::MAX; k];
        let mut uncovered: Vec<usize> = (0..k).collect();

        while !uncovered.is_empty() {
            let mut best: Option<(f64, usize, usize)> = None;
            #[allow(clippy::needless_range_loop)]
            for i in 0..m {
                let f_cost = if open[i] { 0.0 } else { instance.open_cost(i) };
                if !f_cost.is_finite() {
                    continue;
                }
                let mut costs: Vec<f64> = uncovered
                    .iter()
                    .map(|&j| instance.connect_cost(i, j))
                    .collect();
                costs.sort_by(|a, b| a.partial_cmp(b).expect("costs are not NaN"));
                let mut running = f_cost;
                for (idx, c) in costs.iter().enumerate() {
                    if !c.is_finite() {
                        break;
                    }
                    running += c;
                    let ratio = running / (idx as f64 + 1.0);
                    let better = match best {
                        None => true,
                        Some((r, _, _)) => ratio < r,
                    };
                    if better {
                        best = Some((ratio, i, idx + 1));
                    }
                }
            }
            let (_, fac, take) = best.ok_or(SolveError::NoFeasibleFacility)?;
            open[fac] = true;
            let mut claimed: Vec<usize> = uncovered.clone();
            claimed.sort_by(|&a, &b| {
                instance
                    .connect_cost(fac, a)
                    .partial_cmp(&instance.connect_cost(fac, b))
                    .expect("costs are not NaN")
            });
            for &j in claimed.iter().take(take) {
                assignment[j] = fac;
            }
            uncovered.retain(|&j| assignment[j] == usize::MAX);
        }

        let mut solution = UflSolution {
            open,
            assignment,
            cost: 0.0,
        };
        solution.reassign_best(instance);
        prune_useless_reference(instance, &mut solution);
        Ok(solution)
    }

    fn prune_useless_reference(instance: &UflInstance, solution: &mut UflSolution) {
        loop {
            let open_now: Vec<usize> = solution.open_facilities();
            if open_now.len() <= 1 {
                return;
            }
            let mut improved = false;
            for &i in &open_now {
                let mut trial = solution.clone();
                trial.open[i] = false;
                if !trial.open.iter().any(|&o| o) {
                    continue;
                }
                trial.reassign_best(instance);
                if trial.cost < solution.cost {
                    *solution = trial;
                    improved = true;
                    break;
                }
            }
            if !improved {
                return;
            }
        }
    }

    #[test]
    fn single_facility_trivial() {
        let inst = UflInstance::new(vec![5.0], vec![vec![1.0, 2.0, 3.0]]);
        let sol = solve_greedy(&inst).unwrap();
        assert_eq!(sol.open, vec![true]);
        assert_eq!(sol.assignment, vec![0, 0, 0]);
        assert_eq!(sol.cost, 11.0);
        assert_eq!(sol.validate(&inst).unwrap(), sol.cost);
    }

    #[test]
    fn cheap_facility_preferred() {
        // Facility 0 is expensive to open, facility 1 cheap and equally close.
        let inst = UflInstance::new(vec![100.0, 1.0], vec![vec![1.0, 1.0], vec![1.0, 1.0]]);
        let sol = solve_greedy(&inst).unwrap();
        assert_eq!(sol.open_facilities(), vec![1]);
    }

    #[test]
    fn two_clusters_open_two() {
        // Two far-apart clusters; serving across costs 100.
        let inst = UflInstance::new(
            vec![1.0, 1.0],
            vec![vec![0.0, 0.0, 100.0, 100.0], vec![100.0, 100.0, 0.0, 0.0]],
        );
        let sol = solve_greedy(&inst).unwrap();
        assert_eq!(sol.open_facilities(), vec![0, 1]);
        assert_eq!(sol.cost, 2.0);
    }

    #[test]
    fn infinite_facility_never_opened() {
        let inst = UflInstance::new(
            vec![f64::INFINITY, 1.0],
            vec![vec![0.0, 0.0], vec![2.0, 2.0]],
        );
        let sol = solve_greedy(&inst).unwrap();
        assert_eq!(sol.open_facilities(), vec![1]);
    }

    #[test]
    fn all_infinite_is_error() {
        let inst = UflInstance::new(
            vec![f64::INFINITY, f64::INFINITY],
            vec![vec![0.0], vec![0.0]],
        );
        assert_eq!(solve_greedy(&inst), Err(SolveError::NoFeasibleFacility));
    }

    #[test]
    fn solution_always_feasible() {
        // A grid of asymmetric costs.
        let inst = UflInstance::new(
            vec![3.0, 7.0, 2.0],
            vec![
                vec![0.0, 4.0, 9.0, 2.0],
                vec![4.0, 0.0, 1.0, 8.0],
                vec![9.0, 1.0, 0.0, 3.0],
            ],
        );
        let sol = solve_greedy(&inst).unwrap();
        let recomputed = sol.validate(&inst).unwrap();
        assert!((recomputed - sol.cost).abs() < 1e-9);
    }

    #[test]
    fn pruning_removes_redundant_facility() {
        // Free-to-open facility 1 is dominated once 0 is open.
        let inst = UflInstance::new(vec![0.5, 10.0], vec![vec![0.0, 0.0], vec![0.0, 0.0]]);
        let sol = solve_greedy(&inst).unwrap();
        assert_eq!(sol.open_facilities(), vec![0]);
    }

    /// Deterministic pseudo-random instance generator shared by the
    /// fast-vs-reference equivalence checks. Mixes in duplicate costs and
    /// occasional infinite opening costs to exercise tie-breaks.
    fn random_instance(seed: u64, m: usize, k: usize) -> UflInstance {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        let open: Vec<f64> = (0..m)
            .map(|_| {
                let v = next();
                if v > 0.93 {
                    f64::INFINITY
                } else {
                    // Quantize to force cost ties.
                    (v * 40.0).round()
                }
            })
            .collect();
        let conn: Vec<Vec<f64>> = (0..m)
            .map(|_| (0..k).map(|_| (next() * 8.0).round()).collect())
            .collect();
        if open.iter().all(|f| !f.is_finite()) {
            let mut open = open;
            open[0] = 1.0;
            return UflInstance::new(open, conn);
        }
        UflInstance::new(open, conn)
    }

    /// The rewritten greedy must reproduce the reference bit-for-bit:
    /// same open set, same assignment, same cost bits.
    #[test]
    fn fast_greedy_matches_reference_exactly() {
        for seed in 0..200u64 {
            let m = 2 + (seed as usize * 7) % 12;
            let k = 1 + (seed as usize * 5) % 15;
            let inst = random_instance(seed, m, k);
            let fast = solve_greedy(&inst).unwrap();
            let reference = solve_greedy_reference(&inst).unwrap();
            assert_eq!(fast.open, reference.open, "seed {seed}: open sets differ");
            assert_eq!(
                fast.assignment, reference.assignment,
                "seed {seed}: assignments differ"
            );
            assert_eq!(
                fast.cost.to_bits(),
                reference.cost.to_bits(),
                "seed {seed}: cost bits differ ({} vs {})",
                fast.cost,
                reference.cost
            );
        }
    }

    /// Solves `inst` with the fast greedy and the reference, asserts the
    /// two agree bit for bit, and returns the fast solution.
    fn same_as_reference(inst: &UflInstance) -> UflSolution {
        let fast = solve_greedy(inst).unwrap();
        let reference = solve_greedy_reference(inst).unwrap();
        assert_eq!(fast.open, reference.open, "open sets differ");
        assert_eq!(fast.assignment, reference.assignment, "assignments differ");
        assert_eq!(
            fast.cost.to_bits(),
            reference.cost.to_bits(),
            "cost bits differ"
        );
        fast
    }

    /// Round 1 opens facility 2 (ratio 1/2 on clients 0 and 1). In round 2
    /// open facility 2 offers clients 2 and 3 at ratio 2, and closed
    /// facility 0 offers the same ratio, `(4 + 0 + 0) / 2`. Facility 2 is
    /// walked first, so only the (ratio, facility) order gives the round to
    /// facility 0, as the reference's index-order scan does.
    #[test]
    fn an_open_facility_and_a_lower_closed_one_tie() {
        let inst = UflInstance::new(
            vec![4.0, f64::INFINITY, 1.0],
            vec![
                vec![4.0, 4.0, 0.0, 0.0],
                vec![0.0, 0.0, 0.0, 0.0],
                vec![0.0, 0.0, 2.0, 2.0],
            ],
        );
        let sol = same_as_reference(&inst);
        assert_eq!(sol.open_facilities(), vec![0, 2]);
        assert_eq!(sol.assignment, vec![2, 2, 0, 0]);
    }

    /// Facility 2 opens at ratio 0 and covers clients 0–3, one per round.
    /// In round 5 it offers clients 4 and 5 at ratio r = 3. Closed facility
    /// 0 is screened by the sum, its terms `max(0, 3 − 10)` clamped to 0.
    /// Closed facility 1 was never walked: the O(1) bound `f / u` screened
    /// it in every earlier round. Now `f_1 = 6 = Σ max(0, 3 − c_1j)` over
    /// clients 4 and 5 exactly, and its prefix ratio `(6 + 0 + 0) / 2`
    /// ties r at a lower index. The sum screen must let it through: only
    /// its margin tells this apart from a loss.
    #[test]
    fn a_closed_facility_at_exactly_its_screen_bound_is_walked() {
        let inst = UflInstance::new(
            vec![3.0, 6.0, 0.0],
            vec![
                vec![0.0, 0.0, 0.0, 10.0, 10.0, 10.0],
                vec![9.0, 9.0, 9.0, 9.0, 0.0, 0.0],
                vec![0.0, 0.0, 0.0, 0.0, 3.0, 3.0],
            ],
        );
        let sol = same_as_reference(&inst);
        assert_eq!(sol.open_facilities(), vec![1, 2]);
        assert_eq!(sol.assignment, vec![2, 2, 2, 2, 1, 1]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_instance() -> impl Strategy<Value = UflInstance> {
            ((2usize..12), (1usize..12)).prop_flat_map(|(m, k)| {
                let opens = prop::collection::vec(0.0f64..50.0, m);
                let conns = prop::collection::vec(prop::collection::vec(0.0f64..10.0, k), m);
                (opens, conns).prop_map(|(o, c)| UflInstance::new(o, c))
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Property form of the equivalence check: on arbitrary
            /// instances the rewritten greedy returns the same cost (and
            /// solution) as the old implementation.
            #[test]
            fn rewritten_greedy_equals_old_greedy(inst in arb_instance()) {
                let fast = solve_greedy(&inst).unwrap();
                let reference = solve_greedy_reference(&inst).unwrap();
                prop_assert_eq!(fast.cost.to_bits(), reference.cost.to_bits());
                prop_assert_eq!(fast.open, reference.open);
                prop_assert_eq!(fast.assignment, reference.assignment);
            }
        }
    }
}
