//! Local-search improvement for UFL solutions.
//!
//! Starting from any feasible solution (typically [`crate::solve_greedy`]'s
//! output), repeatedly applies the classic *open / close / swap* moves
//! while they improve the cost, reassigning clients optimally after each
//! move. Open/close/swap local search is a known constant-factor
//! (3-approximation) algorithm for metric UFL; here it serves as the
//! practical stand-in for the paper's cited 1.488-approximation
//! (Li 2013), which requires LP rounding.
//!
//! ## Fast path
//!
//! Each round precomputes, per client, the cheapest and second-cheapest
//! open facility (`UflInstance::two_cheapest_open`); every trial cost is
//! then a closed-form sum — opening `i` serves client `j` at
//! `min(c1[j], c_ij)`, closing `i` re-routes its clients to `c2[j]`, a
//! swap combines both — instead of the former clone + full reassignment
//! per trial (`O(moves · m · k)` clones → `O(m · k)` per round plus one
//! reassignment for the winning move). The accumulation order of every
//! trial cost mirrors [`UflSolution::validate`], so accepted moves and
//! final solutions are bit-identical to the original implementation
//! (pinned by the `#[cfg(test)]` reference).

use crate::instance::{SolveError, UflInstance, UflSolution};
use edgechain_telemetry as telemetry;

/// Hard cap on improvement rounds, a backstop against pathological cycling
/// (cycling cannot happen with strictly improving moves, but floating-point
/// ties make a cap prudent).
const MAX_ROUNDS: usize = 10_000;

/// A candidate move: facilities to close and/or open this round.
#[derive(Clone, Copy)]
struct Move {
    close: Option<usize>,
    open: Option<usize>,
}

/// Improves `solution` in place until no open/close/swap move helps.
///
/// Returns the number of improving moves applied.
pub fn improve(instance: &UflInstance, solution: &mut UflSolution) -> usize {
    let m = instance.facilities();
    let k = instance.clients();
    let mut moves = 0;
    for _ in 0..MAX_ROUNDS {
        let open_now = solution.open_facilities();
        let (b1, c1, c2) = instance.two_cheapest_open(&solution.open);
        let mut best: Option<(f64, Move)> = None;

        // Move 1: open a closed (finite-cost) facility.
        for i in 0..m {
            if solution.open[i] || !instance.open_cost(i).is_finite() {
                continue;
            }
            let mut cost = 0.0;
            for o in 0..m {
                if solution.open[o] || o == i {
                    cost += instance.open_cost(o);
                }
            }
            let row = instance.connect_row(i);
            for j in 0..k {
                cost += if row[j] < c1[j] { row[j] } else { c1[j] };
            }
            if cost < solution.cost - 1e-12 {
                replace_if_better(
                    &mut best,
                    cost,
                    Move {
                        close: None,
                        open: Some(i),
                    },
                );
            }
        }

        // Move 2: close an open facility (if another stays open).
        if open_now.len() > 1 {
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
                if cost < solution.cost - 1e-12 {
                    replace_if_better(
                        &mut best,
                        cost,
                        Move {
                            close: Some(i),
                            open: None,
                        },
                    );
                }
            }
        }

        // Move 3: swap an open facility for a closed one.
        for &i in &open_now {
            for l in 0..m {
                if solution.open[l] || !instance.open_cost(l).is_finite() {
                    continue;
                }
                let mut cost = 0.0;
                for o in 0..m {
                    if (solution.open[o] && o != i) || o == l {
                        cost += instance.open_cost(o);
                    }
                }
                let row = instance.connect_row(l);
                for j in 0..k {
                    let without_i = if b1[j] == i { c2[j] } else { c1[j] };
                    cost += if row[j] < without_i {
                        row[j]
                    } else {
                        without_i
                    };
                }
                if cost < solution.cost - 1e-12 {
                    replace_if_better(
                        &mut best,
                        cost,
                        Move {
                            close: Some(i),
                            open: Some(l),
                        },
                    );
                }
            }
        }

        match best {
            Some((_, mv)) => {
                if let Some(i) = mv.close {
                    solution.open[i] = false;
                }
                if let Some(l) = mv.open {
                    solution.open[l] = true;
                }
                // Materialize only the winning move.
                solution.reassign_best(instance);
                moves += 1;
            }
            None => break,
        }
    }
    telemetry::counter_add("ufl.local_search.moves", moves as u64);
    moves
}

fn replace_if_better(best: &mut Option<(f64, Move)>, cost: f64, mv: Move) {
    match best {
        Some((b, _)) if *b <= cost => {}
        _ => *best = Some((cost, mv)),
    }
}

/// The workspace's production solver: greedy construction followed by
/// local-search refinement. This is what the allocation engine calls for
/// every data item and block.
///
/// # Errors
///
/// Returns [`SolveError::NoFeasibleFacility`] when every candidate facility
/// has infinite opening cost.
///
/// # Examples
///
/// ```
/// use edgechain_facility::{solve, UflInstance};
///
/// let inst = UflInstance::new(
///     vec![1.0, 1.0],
///     vec![vec![0.0, 10.0], vec![10.0, 0.0]],
/// );
/// let sol = solve(&inst)?;
/// assert_eq!(sol.open_facilities(), vec![0, 1]);
/// # Ok::<(), edgechain_facility::SolveError>(())
/// ```
pub fn solve(instance: &UflInstance) -> Result<UflSolution, SolveError> {
    telemetry::time_wall("ufl.solve_ns", || {
        let mut solution = crate::greedy::solve_greedy(instance)?;
        improve(instance, &mut solution);
        telemetry::counter_add("ufl.solve_calls", 1);
        if telemetry::is_enabled() {
            telemetry::record(
                "ufl.open_facilities",
                solution.open_facilities().len() as f64,
            );
        }
        Ok(solution)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::solve_exact;
    use crate::instance::UflInstance;

    /// The pre-rewrite `improve`, verbatim: one solution clone plus a full
    /// reassignment per trial. Reference the bookkeeping implementation
    /// must match bit-for-bit.
    fn improve_reference(instance: &UflInstance, solution: &mut UflSolution) -> usize {
        let m = instance.facilities();
        let mut moves = 0;
        for _ in 0..MAX_ROUNDS {
            let mut best: Option<UflSolution> = None;

            for i in 0..m {
                if solution.open[i] || !instance.open_cost(i).is_finite() {
                    continue;
                }
                let mut trial = solution.clone();
                trial.open[i] = true;
                trial.reassign_best(instance);
                if trial.cost < solution.cost - 1e-12 {
                    replace_if_better_reference(&mut best, trial);
                }
            }

            let open_now = solution.open_facilities();
            if open_now.len() > 1 {
                for &i in &open_now {
                    let mut trial = solution.clone();
                    trial.open[i] = false;
                    trial.reassign_best(instance);
                    if trial.cost < solution.cost - 1e-12 {
                        replace_if_better_reference(&mut best, trial);
                    }
                }
            }

            for &i in &open_now {
                for j in 0..m {
                    if solution.open[j] || !instance.open_cost(j).is_finite() {
                        continue;
                    }
                    let mut trial = solution.clone();
                    trial.open[i] = false;
                    trial.open[j] = true;
                    trial.reassign_best(instance);
                    if trial.cost < solution.cost - 1e-12 {
                        replace_if_better_reference(&mut best, trial);
                    }
                }
            }

            match best {
                Some(better) => {
                    *solution = better;
                    moves += 1;
                }
                None => break,
            }
        }
        moves
    }

    fn replace_if_better_reference(best: &mut Option<UflSolution>, candidate: UflSolution) {
        match best {
            Some(b) if b.cost <= candidate.cost => {}
            _ => *best = Some(candidate),
        }
    }

    /// Greedy alone can be suboptimal; local search must fix this instance.
    #[test]
    fn local_search_improves_greedy() {
        // Three facilities in a line; middle one is optimal alone.
        let inst = UflInstance::new(
            vec![1.0, 1.5, 1.0],
            vec![
                vec![0.0, 2.0, 4.0],
                vec![2.0, 0.0, 2.0],
                vec![4.0, 2.0, 0.0],
            ],
        );
        let sol = solve(&inst).unwrap();
        let exact = solve_exact(&inst).unwrap();
        assert!((sol.cost - exact.cost).abs() < 1e-9);
    }

    #[test]
    fn matches_exact_on_small_instances() {
        // Deterministic pseudo-random instances.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for trial in 0..30 {
            let m = 3 + trial % 5;
            let k = 4 + trial % 4;
            let open: Vec<f64> = (0..m).map(|_| next() * 10.0).collect();
            let conn: Vec<Vec<f64>> = (0..m)
                .map(|_| (0..k).map(|_| next() * 5.0).collect())
                .collect();
            let inst = UflInstance::new(open, conn);
            let heur = solve(&inst).unwrap();
            let exact = solve_exact(&inst).unwrap();
            assert!(
                heur.cost <= exact.cost * 1.2 + 1e-9,
                "trial {trial}: heuristic {} vs exact {}",
                heur.cost,
                exact.cost
            );
            assert!(heur.validate(&inst).is_ok());
        }
    }

    #[test]
    fn improve_returns_zero_when_optimal() {
        let inst = UflInstance::new(vec![1.0], vec![vec![0.0, 0.0]]);
        let mut sol = crate::greedy::solve_greedy(&inst).unwrap();
        assert_eq!(improve(&inst, &mut sol), 0);
    }

    #[test]
    fn solve_propagates_infeasibility() {
        let inst = UflInstance::new(vec![f64::INFINITY], vec![vec![0.0]]);
        assert!(solve(&inst).is_err());
    }

    /// Bookkeeping trials must accept the same moves and land on the same
    /// solutions as the clone-per-trial reference, bit for bit.
    #[test]
    fn fast_improve_matches_reference_exactly() {
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for trial in 0..120 {
            let m = 2 + trial % 9;
            let k = 1 + trial % 11;
            let open: Vec<f64> = (0..m)
                .map(|_| {
                    let v = next();
                    if v > 0.9 {
                        f64::INFINITY
                    } else {
                        (v * 30.0).round()
                    }
                })
                .collect();
            let conn: Vec<Vec<f64>> = (0..m)
                .map(|_| (0..k).map(|_| (next() * 6.0).round()).collect())
                .collect();
            if open.iter().all(|f| !f.is_finite()) {
                continue;
            }
            let inst = UflInstance::new(open, conn);
            let start = crate::greedy::solve_greedy(&inst).unwrap();
            let mut fast = start.clone();
            let mut reference = start;
            let fast_moves = improve(&inst, &mut fast);
            let reference_moves = improve_reference(&inst, &mut reference);
            assert_eq!(fast_moves, reference_moves, "trial {trial}: move counts");
            assert_eq!(fast.open, reference.open, "trial {trial}: open sets");
            assert_eq!(
                fast.assignment, reference.assignment,
                "trial {trial}: assignments"
            );
            assert_eq!(
                fast.cost.to_bits(),
                reference.cost.to_bits(),
                "trial {trial}: cost bits"
            );
        }
    }
}
