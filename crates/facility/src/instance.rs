//! Uncapacitated facility location (UFL) problem instances.
//!
//! The paper (Eq. 3–6) selects storing nodes for each data item / block by
//! solving, per item `k`:
//!
//! ```text
//! min  A·Σ_i f_i·y_ik + Σ_i Σ_j c_ij·x_ijk
//! s.t. Σ_i x_ijk ≥ 1        ∀j   (every node can access the item)
//!      y_ik ≥ x_ijk          ∀i,j (only open facilities serve)
//! ```
//!
//! where `f_i` is the Fairness Degree Cost (Eq. 1) and `c_ij` the
//! Range-Distance Cost (Eq. 2), with scaling factor `A = 1000`.
//! This module holds the instance representation; solvers live in
//! [`crate::greedy`], [`crate::local_search`], and [`crate::exact`].

use std::fmt;
use std::sync::OnceLock;

/// Scaling factor between FDC and RDC from the paper ("we use feature
/// scaling to set the weight of FDC and RDC as 1000 : 1").
pub const FDC_SCALE: f64 = 1000.0;

/// Fairness Degree Cost (paper Eq. 1): `f = W / (W_tol − W)`.
///
/// Returns `+∞` when the node is full (`used >= total`), which the solvers
/// treat as "never open".
///
/// # Panics
///
/// Panics if `total` is zero.
///
/// # Examples
///
/// ```
/// use edgechain_facility::fdc;
///
/// assert_eq!(fdc(0, 250), 0.0);
/// assert!((fdc(125, 250) - 1.0).abs() < 1e-12);
/// assert!(fdc(250, 250).is_infinite());
/// ```
pub fn fdc(used: u64, total: u64) -> f64 {
    assert!(total > 0, "node storage capacity must be positive");
    if used >= total {
        f64::INFINITY
    } else {
        used as f64 / (total - used) as f64
    }
}

/// A UFL instance: `open_cost[i]` to open facility `i`, and
/// `connect[i][j]` for client `j` to use facility `i`.
///
/// Connect rows are immutable after [`UflInstance::new`]: there is no
/// setter, and [`UflInstance::set_open_cost`] touches opening costs only.
/// Each facility's stable client order (the greedy solver's sort) is a
/// function of its connect row alone, so the instance keeps it — filled
/// per row on first use — and nothing ever has to invalidate it. Equality
/// compares the costs, not which rows happen to be sorted already.
#[derive(Debug, Clone)]
pub struct UflInstance {
    open_cost: Vec<f64>,
    connect: Vec<Vec<f64>>,
    /// `order[i]`: the clients stably sorted by `connect[i]`, once asked for.
    order: Vec<OnceLock<Vec<u32>>>,
}

impl PartialEq for UflInstance {
    fn eq(&self, other: &Self) -> bool {
        self.open_cost == other.open_cost && self.connect == other.connect
    }
}

impl UflInstance {
    /// Builds an instance.
    ///
    /// # Panics
    ///
    /// Panics when there are no facilities or clients, when the matrix is
    /// ragged, or when any cost is NaN or negative.
    pub fn new(open_cost: Vec<f64>, connect: Vec<Vec<f64>>) -> Self {
        assert!(
            !open_cost.is_empty(),
            "instance needs at least one facility"
        );
        assert_eq!(
            open_cost.len(),
            connect.len(),
            "connect must have one row per facility"
        );
        let clients = connect[0].len();
        assert!(clients > 0, "instance needs at least one client");
        for (i, row) in connect.iter().enumerate() {
            assert_eq!(row.len(), clients, "ragged connect row {i}");
            for (j, &c) in row.iter().enumerate() {
                assert!(!c.is_nan() && c >= 0.0, "connect[{i}][{j}] invalid: {c}");
            }
        }
        for (i, &f) in open_cost.iter().enumerate() {
            assert!(!f.is_nan() && f >= 0.0, "open_cost[{i}] invalid: {f}");
        }
        let order = vec![OnceLock::new(); open_cost.len()];
        UflInstance {
            open_cost,
            connect,
            order,
        }
    }

    /// Builds the paper's storage-allocation instance where every node is
    /// both a candidate facility and a client: `open_cost[i] = A·f_i` and
    /// `connect[i][j] = c_ij`.
    ///
    /// `fdc` and the RDC callback are combined with [`FDC_SCALE`].
    pub fn from_costs<F>(fdc_values: &[f64], rdc: F) -> Self
    where
        F: Fn(usize, usize) -> f64,
    {
        let n = fdc_values.len();
        let open_cost: Vec<f64> = fdc_values.iter().map(|f| FDC_SCALE * f).collect();
        let connect: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..n).map(|j| rdc(i, j)).collect())
            .collect();
        Self::new(open_cost, connect)
    }

    /// Number of candidate facilities.
    pub fn facilities(&self) -> usize {
        self.open_cost.len()
    }

    /// Number of clients.
    pub fn clients(&self) -> usize {
        self.connect[0].len()
    }

    /// Opening cost of facility `i`.
    pub fn open_cost(&self, i: usize) -> f64 {
        self.open_cost[i]
    }

    /// Connection cost of client `j` to facility `i`.
    pub fn connect_cost(&self, i: usize, j: usize) -> f64 {
        self.connect[i][j]
    }

    /// Facility `i`'s whole connection-cost row (`row[j] ==
    /// connect_cost(i, j)`). The solvers' inner loops iterate rows; a
    /// slice borrow beats `clients()` individual `connect_cost` calls.
    pub fn connect_row(&self, i: usize) -> &[f64] {
        &self.connect[i]
    }

    /// Facility `i`'s clients stably sorted by connection cost (ties in
    /// ascending client id), sorted on the first call and kept: a patched
    /// and re-solved instance sorts nothing, and a facility no solve ever
    /// walks (full since the instance was built) is never sorted.
    pub fn client_order(&self, i: usize) -> &[u32] {
        self.order[i].get_or_init(|| counting_order(&self.connect[i]))
    }

    /// Overwrites facility `i`'s opening cost in place — the incremental
    /// update used by the allocation cache when a node's storage usage
    /// (hence FDC) changed but the topology (hence RDC) did not.
    ///
    /// # Panics
    ///
    /// Panics when `cost` is NaN or negative (same contract as
    /// [`UflInstance::new`]).
    pub fn set_open_cost(&mut self, i: usize, cost: f64) {
        assert!(
            !cost.is_nan() && cost >= 0.0,
            "open_cost[{i}] invalid: {cost}"
        );
        self.open_cost[i] = cost;
    }

    /// Whether at least one facility has finite opening cost.
    pub fn has_finite_facility(&self) -> bool {
        self.open_cost.iter().any(|f| f.is_finite())
    }

    /// Per-client cheapest/second-cheapest bookkeeping over the facilities
    /// marked `open`, written into `into` (its buffers are reused): `b1[j]`
    /// is the lowest-index open facility achieving the minimum connection
    /// cost `c1[j]`, and `c2[j]` is the cheapest cost among the *other*
    /// open facilities (`+∞` with a single open facility).
    ///
    /// This is the data the close/swap trial costs of
    /// [`crate::local_search::improve`] and the greedy pruning pass need:
    /// dropping facility `i` re-routes client `j` to `c2[j]` when
    /// `b1[j] == i` and leaves it at `c1[j]` otherwise — no per-trial
    /// solution clone or reassignment required.
    ///
    /// # Panics
    ///
    /// Panics when no facility is marked open.
    pub(crate) fn two_cheapest_open(&self, open: &[bool], into: &mut TwoCheapest) {
        let k = self.clients();
        let mut open_facilities = (0..self.facilities()).filter(|&i| open[i]);
        let first = open_facilities.next().expect("at least one facility open");
        let TwoCheapest { b1, c1, c2 } = into;
        b1.clear();
        b1.resize(k, first);
        c1.clear();
        c1.extend_from_slice(self.connect_row(first));
        c2.clear();
        c2.resize(k, f64::INFINITY);
        for i in open_facilities {
            let row = self.connect_row(i);
            for j in 0..k {
                let c = row[j];
                if c < c1[j] {
                    c2[j] = c1[j];
                    c1[j] = c;
                    b1[j] = i;
                } else if c < c2[j] {
                    c2[j] = c;
                }
            }
        }
    }
}

/// [`UflInstance::two_cheapest_open`]'s output, one entry per client.
#[derive(Debug, Default)]
pub(crate) struct TwoCheapest {
    /// The lowest-index open facility at the cheapest cost.
    pub(crate) b1: Vec<usize>,
    /// The cheapest cost over the open facilities.
    pub(crate) c1: Vec<f64>,
    /// The cheapest cost over the open facilities other than `b1`.
    pub(crate) c2: Vec<f64>,
}

/// The clients of one connect row stably sorted by cost — exactly
/// `sort_by(partial_cmp)` over the ids `0..k` — by a counting pass first.
///
/// The bucket `min(⌊c⌋, k)` is monotone in `c` (`as usize` truncates a
/// non-negative cost toward zero, maps −0.0 to 0 and saturates +∞), so
/// the buckets are already in cost order relative to each other. Filling
/// them in ascending id is stable, which leaves only the order *inside* a
/// bucket to settle, and a bucket whose costs are all equal is already in
/// it. RDC rows are hop counts plus range terms, so most buckets hold one
/// value and only the rest pay a (stable) comparison sort.
fn counting_order(row: &[f64]) -> Vec<u32> {
    let k = row.len();
    let bucket = |c: f64| (c as usize).min(k);
    // `end[b + 1]` counts bucket `b`, then (prefix-summed) is its start,
    // then (after the placement pass) its end.
    let mut end = vec![0u32; k + 2];
    for &c in row {
        end[bucket(c) + 1] += 1;
    }
    for b in 1..end.len() {
        end[b] += end[b - 1];
    }
    let mut order = vec![0u32; k];
    for (j, &c) in row.iter().enumerate() {
        let slot = &mut end[bucket(c)];
        order[*slot as usize] = j as u32;
        *slot += 1;
    }
    let mut lo = 0;
    for &hi in &end[..=k] {
        let run = &mut order[lo..hi as usize];
        if let Some((&first, rest)) = run.split_first() {
            if rest.iter().any(|&j| row[j as usize] != row[first as usize]) {
                run.sort_by(|&a, &b| {
                    row[a as usize]
                        .partial_cmp(&row[b as usize])
                        .expect("costs are not NaN")
                });
            }
        }
        lo = hi as usize;
    }
    order
}

/// A feasible solution: which facilities are open and where each client
/// connects.
#[derive(Debug, Clone, PartialEq)]
pub struct UflSolution {
    /// `open[i]` — facility `i` is open.
    pub open: Vec<bool>,
    /// `assignment[j]` — the open facility serving client `j`.
    pub assignment: Vec<usize>,
    /// Total cost (opening + connection).
    pub cost: f64,
}

impl UflSolution {
    /// Indices of open facilities, ascending.
    pub fn open_facilities(&self) -> Vec<usize> {
        self.open
            .iter()
            .enumerate()
            .filter_map(|(i, &o)| o.then_some(i))
            .collect()
    }

    /// [`Self::open_facilities`] written into `out`, a buffer the caller
    /// reuses.
    pub(crate) fn open_facilities_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.open.len()).filter(|&i| self.open[i]));
    }

    /// Recomputes the cost of this solution against `instance` and checks
    /// feasibility. Useful as a test oracle.
    ///
    /// # Errors
    ///
    /// Returns [`SolutionError`] when a client is assigned to a closed
    /// facility, dimensions mismatch, or no facility is open.
    pub fn validate(&self, instance: &UflInstance) -> Result<f64, SolutionError> {
        if self.open.len() != instance.facilities() || self.assignment.len() != instance.clients() {
            return Err(SolutionError::DimensionMismatch);
        }
        if !self.open.iter().any(|&o| o) {
            return Err(SolutionError::NoOpenFacility);
        }
        let mut cost = 0.0;
        for (i, &o) in self.open.iter().enumerate() {
            if o {
                cost += instance.open_cost(i);
            }
        }
        for (j, &i) in self.assignment.iter().enumerate() {
            if i >= self.open.len() || !self.open[i] {
                return Err(SolutionError::ClosedAssignment {
                    client: j,
                    facility: i,
                });
            }
            cost += instance.connect_cost(i, j);
        }
        Ok(cost)
    }

    /// Reassigns every client to its cheapest open facility and recomputes
    /// the cost. Any solver may call this as a cleanup step.
    ///
    /// Ties go to the lowest-index open facility. Row-major over
    /// [`UflInstance::connect_row`] so the client loop is a contiguous
    /// scan; the strict `<` keeps the first-minimal tie-break.
    pub fn reassign_best(&mut self, instance: &UflInstance) {
        self.reassign_best_with(instance, &mut Vec::new());
    }

    /// [`Self::reassign_best`] with the running cheapest costs kept in
    /// `best_cost`, a buffer the caller reuses; the assignment is
    /// rewritten in place.
    pub(crate) fn reassign_best_with(&mut self, instance: &UflInstance, best_cost: &mut Vec<f64>) {
        let k = self.assignment.len();
        let mut open_facilities = (0..instance.facilities()).filter(|&i| self.open[i]);
        let first = open_facilities.next().expect("at least one facility open");
        best_cost.clear();
        best_cost.extend_from_slice(&instance.connect_row(first)[..k]);
        let best_fac = &mut self.assignment;
        best_fac.fill(first);
        for i in open_facilities {
            let row = instance.connect_row(i);
            for j in 0..k {
                if row[j] < best_cost[j] {
                    best_cost[j] = row[j];
                    best_fac[j] = i;
                }
            }
        }
        self.cost = self
            .validate(instance)
            .expect("reassigned solution is feasible");
    }
}

/// Errors from [`UflSolution::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolutionError {
    /// Solution vectors do not match the instance shape.
    DimensionMismatch,
    /// No facility is open.
    NoOpenFacility,
    /// A client is assigned to a closed facility.
    ClosedAssignment {
        /// Offending client.
        client: usize,
        /// The closed (or out-of-range) facility.
        facility: usize,
    },
}

impl fmt::Display for SolutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolutionError::DimensionMismatch => {
                write!(f, "solution shape does not match instance")
            }
            SolutionError::NoOpenFacility => write!(f, "no facility is open"),
            SolutionError::ClosedAssignment { client, facility } => {
                write!(f, "client {client} assigned to closed facility {facility}")
            }
        }
    }
}

impl std::error::Error for SolutionError {}

/// Errors from solving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// Every candidate facility has infinite opening cost (all nodes full).
    NoFeasibleFacility,
    /// Instance too large for the exact solver.
    TooLarge {
        /// Number of facilities in the instance.
        facilities: usize,
        /// Maximum supported by the exact solver.
        max: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NoFeasibleFacility => {
                write!(f, "all candidate facilities have infinite opening cost")
            }
            SolveError::TooLarge { facilities, max } => write!(
                f,
                "exact solver limited to {max} facilities, instance has {facilities}"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fdc_basics() {
        assert_eq!(fdc(0, 100), 0.0);
        assert_eq!(fdc(50, 100), 1.0);
        assert_eq!(fdc(99, 100), 99.0);
        assert!(fdc(100, 100).is_infinite());
        assert!(fdc(150, 100).is_infinite());
    }

    #[test]
    fn fdc_monotone_in_usage() {
        let mut prev = -1.0;
        for used in 0..100 {
            let f = fdc(used, 100);
            assert!(f > prev);
            prev = f;
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn fdc_zero_capacity_panics() {
        let _ = fdc(0, 0);
    }

    #[test]
    fn instance_accessors() {
        let inst = UflInstance::new(vec![1.0, 2.0], vec![vec![0.0, 5.0], vec![5.0, 0.0]]);
        assert_eq!(inst.facilities(), 2);
        assert_eq!(inst.clients(), 2);
        assert_eq!(inst.open_cost(1), 2.0);
        assert_eq!(inst.connect_cost(0, 1), 5.0);
        assert!(inst.has_finite_facility());
    }

    #[test]
    fn from_costs_applies_scale() {
        let inst = UflInstance::from_costs(&[0.5, 1.0], |i, j| if i == j { 0.0 } else { 3.0 });
        assert_eq!(inst.open_cost(0), 500.0);
        assert_eq!(inst.open_cost(1), 1000.0);
        assert_eq!(inst.connect_cost(0, 1), 3.0);
        assert_eq!(inst.connect_cost(1, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_matrix_rejected() {
        let _ = UflInstance::new(vec![1.0, 1.0], vec![vec![0.0, 1.0], vec![0.0]]);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn negative_cost_rejected() {
        let _ = UflInstance::new(vec![-1.0], vec![vec![0.0]]);
    }

    #[test]
    fn validate_catches_closed_assignment() {
        let inst = UflInstance::new(vec![1.0, 1.0], vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
        let bad = UflSolution {
            open: vec![true, false],
            assignment: vec![0, 1],
            cost: 0.0,
        };
        assert_eq!(
            bad.validate(&inst),
            Err(SolutionError::ClosedAssignment {
                client: 1,
                facility: 1
            })
        );
    }

    #[test]
    fn validate_computes_cost() {
        let inst = UflInstance::new(vec![10.0, 20.0], vec![vec![0.0, 1.0], vec![1.0, 0.0]]);
        let sol = UflSolution {
            open: vec![true, false],
            assignment: vec![0, 0],
            cost: 0.0,
        };
        assert_eq!(sol.validate(&inst).unwrap(), 11.0);
    }

    #[test]
    fn reassign_best_moves_clients() {
        let inst = UflInstance::new(vec![1.0, 1.0], vec![vec![0.0, 9.0], vec![9.0, 0.0]]);
        let mut sol = UflSolution {
            open: vec![true, true],
            assignment: vec![1, 0], // deliberately bad
            cost: 0.0,
        };
        sol.reassign_best(&inst);
        assert_eq!(sol.assignment, vec![0, 1]);
        assert_eq!(sol.cost, 2.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The counting pass orders clients exactly as the stable
        /// comparison sort over ids does, on rows mixing ties, 0.0 and
        /// −0.0, +∞, costs at or past the last bucket (`≥ k`), several
        /// distinct costs inside one unit bucket and RDC-shaped costs.
        #[test]
        fn client_order_is_the_stable_sort(
            k in 1usize..48,
            picks in prop::collection::vec((0usize..7, 0u32..400), 48),
        ) {
            let row: Vec<f64> = picks[..k]
                .iter()
                .map(|&(kind, x)| match kind {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::INFINITY,
                    3 => k as f64 + f64::from(x % 9) / 8.0,
                    4 => 2.0 + f64::from(x % 4) / 4.0,
                    5 => f64::from(x % 6) + 30.0 / 70.0 + 30.0 / 70.0,
                    _ => f64::from(x) / 16.0,
                })
                .collect();
            let mut expect: Vec<u32> = (0..k as u32).collect();
            expect.sort_by(|&a, &b| row[a as usize].partial_cmp(&row[b as usize]).unwrap());
            let inst = UflInstance::new(vec![1.0], vec![row]);
            prop_assert_eq!(inst.client_order(0), &expect[..]);
        }
    }

    #[test]
    fn no_open_facility_detected() {
        let inst = UflInstance::new(vec![1.0], vec![vec![0.0]]);
        let sol = UflSolution {
            open: vec![false],
            assignment: vec![0],
            cost: 0.0,
        };
        assert_eq!(sol.validate(&inst), Err(SolutionError::NoOpenFacility));
    }
}
