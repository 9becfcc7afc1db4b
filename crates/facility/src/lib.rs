//! Uncapacitated facility location (UFL) for fair edge storage allocation.
//!
//! The paper's resource-allocation step (Eq. 3–6) is, per data item or
//! block, a UFL instance whose facility cost is the scaled Fairness Degree
//! Cost ([`fdc`], Eq. 1) and whose connection cost is the Range-Distance
//! Cost (Eq. 2). UFL is NP-hard; the paper cites Li's 1.488-approximation,
//! and this crate provides the practical pipeline used by the allocation
//! engine:
//!
//! 1. [`solve_greedy`] — Hochbaum-style greedy construction,
//! 2. [`solve`] — greedy plus open/close/swap local search (the default),
//! 3. [`solve_exact`] — an exhaustive oracle for small instances, used by
//!    the test suite to bound the heuristics' optimality gap.
//!
//! # Examples
//!
//! ```
//! use edgechain_facility::{fdc, solve, UflInstance};
//!
//! // Three nodes; node 2 is nearly full so its FDC is high.
//! let fdcs = [fdc(10, 250), fdc(50, 250), fdc(240, 250)];
//! let hop = |i: usize, j: usize| if i == j { 0.0 } else { 1.0 };
//! let inst = UflInstance::from_costs(&fdcs, hop);
//! let sol = solve(&inst)?;
//! // The nearly-full node is not chosen as a storing node.
//! assert!(!sol.open[2]);
//! # Ok::<(), edgechain_facility::SolveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod greedy;
pub mod instance;
pub mod local_search;
pub mod region;
mod scratch;

pub use exact::{solve_exact, MAX_EXACT_FACILITIES};
pub use greedy::solve_greedy;
pub use instance::{fdc, SolutionError, SolveError, UflInstance, UflSolution, FDC_SCALE};
pub use local_search::{improve, solve};
pub use region::{serving_ids, stitch_close_pass, StitchFacility};
