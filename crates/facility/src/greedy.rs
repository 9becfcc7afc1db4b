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
//! The per-facility client order is a property of the *instance*, not of
//! the covering state, so the instance keeps it (sorted on first use, see
//! `UflInstance`) and each opening round walks it skipping covered
//! clients — replacing the original per-round full re-sorts. Because the
//! sorts are stable and filtering a stably-sorted list to a subset
//! preserves its relative order, every round sees exactly the cost
//! sequence the re-sorting implementation saw, so prefix sums, ratios,
//! tie-breaks, and claimed clients are bit-identical (the `#[cfg(test)]`
//! reference implementation pins this).
//!
//! A round does not walk every facility either. `lb[i]` holds facility
//! `i`'s lowest ratio from the last round that walked it. Covering
//! clients only removes entries from `i`'s sorted uncovered list, so the
//! list's t-th entry can only grow; `+` and `/ t` round monotonically, so
//! every t-prefix ratio `i` offers now is ≥ the one it offered then, and
//! `lb[i]` bounds them all from below in floating point, not just in the
//! reals. While `lb[i]` is not below the best ratio found so far the
//! strict `ratio < best` update could not fire for `i`, and the walk is
//! skipped. The bound's one other input, `f_i`, drops to 0 when `i`
//! opens; `lb[i]` resets there.
//!
//! The final pruning pass uses cheapest/second-cheapest bookkeeping
//! (`UflInstance::two_cheapest_open`) instead of cloning and reassigning
//! a trial solution per open facility.

use crate::instance::{SolveError, UflInstance, UflSolution};
use edgechain_telemetry as telemetry;

/// Solves `instance` greedily.
///
/// # Errors
///
/// Returns [`SolveError::NoFeasibleFacility`] when every facility has an
/// infinite opening cost (in the paper's setting: all nodes are full).
pub fn solve_greedy(instance: &UflInstance) -> Result<UflSolution, SolveError> {
    telemetry::counter_add("ufl.greedy_calls", 1);
    telemetry::time_wall("ufl.greedy_ns", || solve_greedy_inner(instance))
}

fn solve_greedy_inner(instance: &UflInstance) -> Result<UflSolution, SolveError> {
    if !instance.has_finite_facility() {
        return Err(SolveError::NoFeasibleFacility);
    }
    let m = instance.facilities();
    let k = instance.clients();
    let mut open = vec![false; m];
    let mut assignment = vec![usize::MAX; k];
    let mut covered = 0usize;
    // `lb[i]`: facility `i`'s lowest ratio in the last round that walked
    // it. Covering clients only thins `i`'s sorted uncovered list, so that
    // stale ratio bounds every ratio `i` can offer now from below (module
    // docs) — until `i` opens and its `f_i` drops to 0.
    let mut lb = vec![f64::NEG_INFINITY; m];
    let (mut rounds, mut walks) = (0u64, 0u64);

    while covered < k {
        rounds += 1;
        let mut best: Option<(f64, usize, usize)> = None; // (ratio, facility, take)
        for i in 0..m {
            let f_cost = if open[i] { 0.0 } else { instance.open_cost(i) };
            if !f_cost.is_finite() {
                continue;
            }
            if matches!(best, Some((r, _, _)) if lb[i] >= r) {
                continue; // the strict `ratio < r` below could not fire
            }
            walks += 1;
            let row = instance.connect_row(i);
            let mut running = f_cost;
            let mut prefix = 0usize;
            let mut lowest = f64::INFINITY;
            for &j in instance.client_order(i) {
                if assignment[j as usize] != usize::MAX {
                    continue; // already covered
                }
                let c = row[j as usize];
                if !c.is_finite() {
                    break;
                }
                running += c;
                prefix += 1;
                let ratio = running / prefix as f64;
                lowest = lowest.min(ratio);
                let better = match best {
                    None => true,
                    Some((r, _, _)) => ratio < r,
                };
                if better {
                    best = Some((ratio, i, prefix));
                }
            }
            lb[i] = lowest;
        }
        let (_, fac, take) = best.ok_or(SolveError::NoFeasibleFacility)?;
        if !open[fac] {
            open[fac] = true;
            lb[fac] = f64::NEG_INFINITY;
        }
        // Claim the `take` cheapest uncovered clients for `fac` — the
        // sorted order filtered to uncovered clients.
        let mut taken = 0usize;
        for &j in instance.client_order(fac) {
            if taken == take {
                break;
            }
            let j = j as usize;
            if assignment[j] == usize::MAX {
                assignment[j] = fac;
                taken += 1;
                covered += 1;
            }
        }
    }
    telemetry::counter_add("ufl.greedy.rounds", rounds);
    telemetry::counter_add("ufl.greedy.walks", walks);

    let mut solution = UflSolution {
        open,
        assignment,
        cost: 0.0,
    };
    // Cleanup: every client to its cheapest open facility, then drop
    // facilities that no longer pay for themselves.
    solution.reassign_best(instance);
    prune_useless(instance, &mut solution);
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
fn prune_useless(instance: &UflInstance, solution: &mut UflSolution) {
    let k = instance.clients();
    loop {
        let open_now: Vec<usize> = solution.open_facilities();
        if open_now.len() <= 1 {
            return;
        }
        let (b1, c1, c2) = instance.two_cheapest_open(&solution.open);
        let mut improved = false;
        for &i in &open_now {
            let mut cost = 0.0;
            for &o in &open_now {
                if o != i {
                    cost += instance.open_cost(o);
                }
            }
            for j in 0..k {
                cost += if b1[j] == i { c2[j] } else { c1[j] };
            }
            if cost < solution.cost {
                solution.open[i] = false;
                solution.reassign_best(instance);
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
