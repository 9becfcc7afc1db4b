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
//! open facility (`UflInstance::two_cheapest_open`). Every trial cost is
//! then a closed-form sum: opening `i` serves client `j` at
//! `min(c1[j], c_ij)`, closing `i` re-routes its clients to `c2[j]`, and a
//! swap combines both. The former code cloned the solution and reassigned
//! every client per trial (`O(moves · m · k)` clones); this is `O(m · k)`
//! per round plus one reassignment for the winning move. The accumulation
//! order of every trial cost mirrors [`UflSolution::validate`], so accepted
//! moves and final solutions are bit-identical to the original
//! implementation (pinned by the `#[cfg(test)]` reference).
//!
//! Most trials lose, and two checks drop them before the ordered sum is
//! finished:
//!
//! * *A screen.* A trial is first summed in any order, with four
//!   independent accumulators. That sum is within a proven relative error
//!   of the ordered one. When even the lowest ordered sum it allows is not
//!   below the bound the trial must beat, the trial is dropped
//!   (`ufl.local_search.trials_screened`; DESIGN §9, short-circuit 6).
//! * *A cut.* All costs are ≥ 0, so the ordered sum's partial sums never
//!   decrease. A trial the screen keeps is abandoned as soon as one partial
//!   sum reaches its bound (`ufl.local_search.trials_cut`).
//!
//! The buffers live in the thread's reused scratch.

use crate::greedy::SCREEN_FLOOR;
use crate::instance::{SolveError, TwoCheapest, UflInstance, UflSolution};
use crate::scratch::{with_scratch, Scratch};
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

/// One round's trial pricing. A trial matters only when its cost is below
/// `bound` — the acceptance threshold `solution.cost − 1e-12` until a trial
/// is accepted, the best accepted trial's cost from then on (strictly lower,
/// so the first of equal-cost trials stays the winner).
struct Trials<'a> {
    instance: &'a UflInstance,
    /// The open facilities, ascending.
    open_now: &'a [usize],
    bound: f64,
    /// `1 − 2(k + 3)·ε`: a trial whose four-accumulator sum `t` has
    /// `t · shrink ≥ bound` has an ordered sum ≥ `bound`.
    shrink: f64,
    best: Option<Move>,
    cut: u64,
    screened: u64,
}

impl Trials<'_> {
    /// Prices a trial that serves client `j` at the cheaper of `row[j]`
    /// and `base[j]` — an open (`base = c1`) or a swap (`base` = the costs
    /// without the closed facility). The four-accumulator screen runs
    /// first; only a trial it cannot reject is priced in order.
    fn price_min(&mut self, mv: Move, row: &[f64], base: &[f64]) {
        let opening = self.opening_cost(mv);
        if opening >= self.bound || self.rejects(opening + four_way_min_sum(row, base)) {
            self.screened += 1;
            return;
        }
        self.price_from(mv, opening, |j| serve(row[j], base[j]));
    }

    /// The opening costs of the moved solution: `open_now` minus
    /// `mv.close`, with `mv.open` merged at its sorted place — the additions
    /// [`UflSolution::validate`] makes first, in its order.
    fn opening_cost(&self, mv: Move) -> f64 {
        let mut cost = 0.0;
        let mut opening = mv.open;
        for &o in self.open_now {
            if let Some(l) = opening.filter(|&l| l < o) {
                cost += self.instance.open_cost(l);
                opening = None;
            }
            if Some(o) != mv.close {
                cost += self.instance.open_cost(o);
            }
        }
        if let Some(l) = opening {
            cost += self.instance.open_cost(l);
        }
        cost
    }

    /// Finishes the ordered sum from `cost` (the opening costs) with
    /// `client_cost(j)` for ascending `j`, as [`UflSolution::validate`]
    /// would, and keeps `mv` when it beats `bound`. Every term is ≥ 0, so
    /// the partial sums never decrease and a trial whose partial sum has
    /// reached `bound` is abandoned: its finished cost could not be below.
    fn price_from(&mut self, mv: Move, mut cost: f64, client_cost: impl Fn(usize) -> f64) {
        for j in 0..self.instance.clients() {
            if cost >= self.bound {
                self.cut += 1;
                return;
            }
            cost += client_cost(j);
        }
        if cost < self.bound {
            self.bound = cost;
            self.best = Some(mv);
        }
    }

    /// Whether a trial whose four-accumulator sum is `any_order` has an
    /// ordered sum ≥ `bound` (DESIGN §9, short-circuit 6).
    fn rejects(&self, any_order: f64) -> bool {
        any_order >= SCREEN_FLOOR && any_order * self.shrink >= self.bound
    }
}

/// What a client pays when a facility at cost `r` opens beside its
/// current cost `b`: `r` only when strictly cheaper, as the reassignment's
/// first-minimal tie-break has it.
fn serve(r: f64, b: f64) -> f64 {
    if r < b {
        r
    } else {
        b
    }
}

/// `Σ_j serve(row[j], base[j])` in four interleaved accumulators, combined
/// pairwise. Each term passes through at most `⌈k/4⌉ + 1` roundings.
/// Adding the opening costs as one more term keeps the result within a
/// factor `1 + γ_{k+3}` of the exact sum of the nonnegative terms, where
/// `γ_n = n·u / (1 − n·u)`.
fn four_way_min_sum(row: &[f64], base: &[f64]) -> f64 {
    let (rows, row_tail) = row.as_chunks::<4>();
    let (bases, base_tail) = base[..row.len()].as_chunks::<4>();
    let mut acc = [0.0f64; 4];
    for (r, b) in rows.iter().zip(bases) {
        for a in 0..4 {
            acc[a] += serve(r[a], b[a]);
        }
    }
    for (slot, (&r, &b)) in acc.iter_mut().zip(row_tail.iter().zip(base_tail)) {
        *slot += serve(r, b);
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Improves `solution` in place until no open/close/swap move helps.
///
/// Returns the number of improving moves applied.
pub fn improve(instance: &UflInstance, solution: &mut UflSolution) -> usize {
    with_scratch(|scratch| improve_with(instance, solution, scratch))
}

fn improve_with(
    instance: &UflInstance,
    solution: &mut UflSolution,
    scratch: &mut Scratch,
) -> usize {
    let m = instance.facilities();
    let k = instance.clients();
    let shrink = 1.0 - 2.0 * (k + 3) as f64 * f64::EPSILON;
    let mut moves = 0;
    let (mut cut, mut screened) = (0u64, 0u64);
    let Scratch {
        cheapest,
        open_now,
        without,
        best_cost,
        ..
    } = scratch;
    without.clear();
    without.resize(k, 0.0);
    for _ in 0..MAX_ROUNDS {
        solution.open_facilities_into(open_now);
        instance.two_cheapest_open(&solution.open, cheapest);
        let TwoCheapest { b1, c1, c2 } = &*cheapest;
        let closed_finite = |l: usize| !solution.open[l] && instance.open_cost(l).is_finite();
        let mut trials = Trials {
            instance,
            open_now,
            bound: solution.cost - 1e-12,
            shrink,
            best: None,
            cut: 0,
            screened: 0,
        };

        // Move 1: open a closed (finite-cost) facility.
        for i in (0..m).filter(|&i| closed_finite(i)) {
            let row = instance.connect_row(i);
            let mv = Move {
                close: None,
                open: Some(i),
            };
            trials.price_min(mv, row, c1);
        }

        // Move 2: close an open facility (if another stays open).
        if open_now.len() > 1 {
            for &i in open_now.iter() {
                let mv = Move {
                    close: Some(i),
                    open: None,
                };
                let opening = trials.opening_cost(mv);
                trials.price_from(mv, opening, |j| if b1[j] == i { c2[j] } else { c1[j] });
            }
        }

        // Move 3: swap an open facility for a closed one.
        for &i in open_now.iter() {
            for j in 0..k {
                without[j] = if b1[j] == i { c2[j] } else { c1[j] };
            }
            for l in (0..m).filter(|&l| closed_finite(l)) {
                let row = instance.connect_row(l);
                let mv = Move {
                    close: Some(i),
                    open: Some(l),
                };
                trials.price_min(mv, row, without);
            }
        }

        cut += trials.cut;
        screened += trials.screened;
        match trials.best {
            Some(mv) => {
                if let Some(i) = mv.close {
                    solution.open[i] = false;
                }
                if let Some(l) = mv.open {
                    solution.open[l] = true;
                }
                // Materialize only the winning move.
                solution.reassign_best_with(instance, best_cost);
                moves += 1;
            }
            None => break,
        }
    }
    telemetry::counter_add("ufl.local_search.moves", moves as u64);
    telemetry::counter_add("ufl.local_search.trials_cut", cut);
    telemetry::counter_add("ufl.local_search.trials_screened", screened);
    moves
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

    /// Greedy starts from {0, 1}. In the first local-search round the swap
    /// (close 0, open 2) is accepted at 4.3999999999999995, which becomes
    /// the bound. The swap (close 1, open 2) then sums to 4.399999999999999
    /// in `validate` order, one ulp below the bound, so the reference takes
    /// it. Its four-accumulator sum lands exactly on the bound,
    /// 4.3999999999999995: only the screen's margin keeps the trial.
    #[test]
    fn a_trial_whose_any_order_sum_lands_on_its_bound_is_priced() {
        let inst = UflInstance::new(
            vec![0.6, 0.9, 1.8, 2.7],
            vec![
                vec![0.3, 0.7, 0.9, 0.7, 0.3, 0.3, 1.1],
                vec![0.2, 2.3, 1.1, 0.7, 0.1, 2.3, 0.1],
                vec![0.9, 0.6, 0.3, 0.3, 2.3, 0.1, 0.1],
                vec![0.2, 0.2, 0.2, 2.3, 0.9, 1.1, 0.3],
            ],
        );
        let start = crate::greedy::solve_greedy(&inst).unwrap();
        assert_eq!(start.open_facilities(), vec![0, 1]);
        let (mut fast, mut reference) = (start.clone(), start);
        assert_eq!(
            improve(&inst, &mut fast),
            improve_reference(&inst, &mut reference)
        );
        assert_same_bits(&Ok(fast.clone()), &Ok(reference), "on the bound");
        assert_eq!(fast.open_facilities(), vec![0, 2]);
        assert_eq!(fast.cost, 4.399999999999999);
    }

    /// An instance of the shape the simulator builds: every node is both
    /// facility and client, connect costs follow Eq. 2 (`hops + a_i + a_j`
    /// with few distinct `a`, hop count 8 standing for "unreachable" and
    /// priced at the `n`-hop penalty, so rows tie heavily), and opening
    /// costs are `FDC_SCALE · used / (250 − used)`, infinite at 250.
    fn sim_shaped(mobility: &[u32], hops: &[Vec<u32>], used: &[u64]) -> UflInstance {
        let n = used.len();
        let a = |i: usize| f64::from(mobility[i]) / 7.0;
        let connect = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| match hops[i.min(j)][i.max(j)] {
                        _ if i == j => 0.0,
                        8 => n as f64 + a(i) + a(j),
                        h => f64::from(h) + a(i) + a(j),
                    })
                    .collect()
            })
            .collect();
        let open_cost = used.iter().map(|&u| sim_open_cost(u)).collect();
        UflInstance::new(open_cost, connect)
    }

    fn sim_open_cost(used: u64) -> f64 {
        crate::FDC_SCALE * crate::fdc(used, 250)
    }

    /// The two pre-rewrite references composed: what `solve` must equal.
    fn solve_reference(instance: &UflInstance) -> Result<UflSolution, SolveError> {
        let mut solution = crate::greedy::tests::solve_greedy_reference(instance)?;
        improve_reference(instance, &mut solution);
        Ok(solution)
    }

    fn assert_same_bits(
        got: &Result<UflSolution, SolveError>,
        want: &Result<UflSolution, SolveError>,
        what: &str,
    ) {
        match (got, want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.open, w.open, "{what}: open sets");
                assert_eq!(g.assignment, w.assignment, "{what}: assignments");
                assert_eq!(g.cost.to_bits(), w.cost.to_bits(), "{what}: cost bits");
            }
            (g, w) => assert_eq!(g, w, "{what}"),
        }
    }

    /// The work the short-circuits leave on one fixed n = 50 instance, to
    /// the unit: the counts repeat exactly, so a change that walks or
    /// finishes more (or fewer) than this shows here while the timings
    /// stay inside their noise band.
    #[test]
    fn work_counters_are_pinned_on_a_fixed_n50_instance() {
        let n = 50;
        let mut state = 0x5EED_0050u64;
        let mut next = move |modulus: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % modulus
        };
        let mobility: Vec<u32> = (0..n).map(|_| next(4) as u32).collect();
        // Mostly 1–5 hops with one pair in sixteen unreachable; one node in
        // eight full, the rest 4–84 % used.
        let hops: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| if next(16) == 0 { 8 } else { 1 + next(5) as u32 })
                    .collect()
            })
            .collect();
        let used: Vec<u64> = (0..n)
            .map(|_| if next(8) == 0 { 250 } else { 10 + next(200) })
            .collect();
        let inst = sim_shaped(&mobility, &hops, &used);

        telemetry::enable();
        let fast = solve(&inst);
        let registry = telemetry::finish().expect("session was armed").registry;

        assert_same_bits(&fast, &solve_reference(&inst), "fixed n=50");

        // 40 facilities are not full, so 6 rounds without short-circuits
        // make 240 walks; the stale-ratio bound alone leaves 90. The
        // screens skip 232 closed facilities before a walk, and drop all
        // 193 local-search trials before their ordered sums.
        assert_eq!(used.iter().filter(|&&u| u < 250).count(), 40);
        assert_eq!(registry.counter("ufl.greedy.rounds"), 6);
        assert_eq!(registry.counter("ufl.greedy.walks"), 8);
        assert_eq!(registry.counter("ufl.greedy.screened"), 232);
        assert_eq!(registry.counter("ufl.local_search.trials_screened"), 191);
        assert_eq!(registry.counter("ufl.local_search.trials_cut"), 2);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// `(mobility, hops, used)` for [`sim_shaped`], n in 20..=60 and
        /// 0–30 % of the nodes full.
        fn arb_sim_parts() -> impl Strategy<Value = (Vec<u32>, Vec<Vec<u32>>, Vec<u64>)> {
            (20usize..=60, 0u64..=30).prop_flat_map(|(n, full_pct)| {
                let mobility = prop::collection::vec(0u32..4, n);
                let hops = prop::collection::vec(prop::collection::vec(0u32..9, n), n);
                let used =
                    prop::collection::vec((0u64..100, 0u64..250), n).prop_map(move |draws| {
                        draws
                            .into_iter()
                            .map(|(d, u)| if d < full_pct { 250 } else { u })
                            .collect()
                    });
                (mobility, hops, used)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// At the simulator's shapes — where sorted rows are long runs
            /// of ties, most rounds are pruned and most trials cut — the
            /// production solve is the two references composed, bit for
            /// bit.
            #[test]
            fn solve_equals_references_at_sim_shapes(parts in arb_sim_parts()) {
                let inst = sim_shaped(&parts.0, &parts.1, &parts.2);
                assert_same_bits(&solve(&inst), &solve_reference(&inst), "sim-shaped");
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// One instance patched 50+ times — half the patches on six
            /// hot nodes, a full node always freed and a free one filled
            /// one time in three, so finite → ∞ → finite flips recur —
            /// solves after every patch exactly as a fresh instance with
            /// the same costs does: the kept client orders (some sorted
            /// before the patch, some only once their facility frees up)
            /// carry nothing a patch could stale.
            #[test]
            fn patched_instance_solves_like_a_fresh_one(
                parts in arb_sim_parts(),
                patches in prop::collection::vec((any::<prop::sample::Index>(), 0u64..375), 50..65),
            ) {
                let (mobility, hops, mut used) = parts;
                let mut patched = sim_shaped(&mobility, &hops, &used);
                let _ = solve(&patched);
                for (step, (pick, draw)) in patches.into_iter().enumerate() {
                    let node = pick.index(if step % 2 == 0 { used.len() } else { 6 });
                    used[node] = if used[node] == 250 { draw % 250 } else { draw.min(250) };
                    patched.set_open_cost(node, sim_open_cost(used[node]));
                    let fresh = sim_shaped(&mobility, &hops, &used);
                    prop_assert!(patched == fresh);
                    assert_same_bits(&solve(&patched), &solve(&fresh), "patched vs fresh");
                }
            }
        }
    }
}
