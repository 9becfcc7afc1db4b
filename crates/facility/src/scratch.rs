//! Per-thread buffers the solvers reuse from one solve to the next, so a
//! solve round allocates nothing once the thread has solved an instance
//! of the same size.

use crate::greedy::Walks;
use crate::instance::TwoCheapest;
use std::cell::RefCell;

/// The buffers themselves; every user clears what it reads first.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub(crate) walks: Walks,
    pub(crate) cheapest: TwoCheapest,
    /// The open facilities, ascending.
    pub(crate) open_now: Vec<usize>,
    /// A swap trial's per-client cost with one facility closed.
    pub(crate) without: Vec<f64>,
    /// [`crate::UflSolution::reassign_best`]'s running cheapest costs.
    pub(crate) best_cost: Vec<f64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` on this thread's scratch.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}
