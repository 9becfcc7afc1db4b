//! A minimal scoped-thread worker pool with deterministic output order.
//!
//! The simulator's reproducibility guarantee is *bit-identical seeded
//! runs*, which rules out any parallelism whose result depends on thread
//! scheduling. This pool sidesteps the problem structurally: the input
//! index range is split into **contiguous chunks**, each worker computes
//! its chunk left-to-right with a pure function of the index, and the
//! per-chunk outputs are concatenated **in index order** on the calling
//! thread. The result is therefore exactly `(0..len).map(f).collect()`
//! regardless of how the OS schedules the workers — only wall-clock time
//! changes.
//!
//! Built on [`std::thread::scope`] so borrowed inputs work without any
//! `'static` gymnastics and without new dependencies. Used to parallelize
//! the hop-row sweeps of [`crate::Topology::fill_hop_rows`] and the
//! independent parameter points of the bench sweep binaries.
//!
//! Note that telemetry sessions are thread-local: a worker that should
//! record metrics must arm its own session inside `f` (see the `fig4`
//! bench binary for the merge-in-index-order pattern).

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Hard ceiling on worker threads, keeping the pool polite on big hosts
/// where BFS chunks would become too small to amortize spawn cost.
const MAX_WORKERS: usize = 8;

/// How many workers the pool would use for `len` items given the caller's
/// cap: `min(cap, available_parallelism, MAX_WORKERS, len)`, at least 1.
///
/// A cap or a range of one settles the answer before the host is asked.
pub fn worker_count(len: usize, max_workers: usize) -> usize {
    if max_workers <= 1 || len <= 1 {
        return 1;
    }
    hardware_threads()
        .min(MAX_WORKERS)
        .min(max_workers)
        .min(len)
        .max(1)
}

/// The host's `available_parallelism`, asked once per process: the call
/// reads cgroup and affinity state (about 12 µs), which every parallel
/// map would otherwise pay.
fn hardware_threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Maps `f` over `0..len` using up to `max_workers` scoped threads and
/// returns the results **in index order** — byte-for-byte the same output
/// as the serial `(0..len).map(f).collect()`.
///
/// `f` must be a pure function of its index (it may read shared borrowed
/// state, hence `Sync`). With `max_workers <= 1`, a single-item range, or
/// a single-core host, no thread is spawned at all.
///
/// # Panics
///
/// Propagates a panic from any worker.
///
/// # Examples
///
/// ```
/// use edgechain_sim::pool::parallel_map_range;
///
/// let squares = parallel_map_range(6, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25]);
/// ```
pub fn parallel_map_range<R, F>(len: usize, max_workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = worker_count(len, max_workers);
    if workers <= 1 {
        return (0..len).map(f).collect();
    }
    let chunk = len.div_ceil(workers);
    let chunks: Vec<Vec<R>> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    let start = w * chunk;
                    let end = ((w + 1) * chunk).min(len);
                    (start..end).map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        // Joining in spawn order merges chunk outputs in index order.
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    let mut out = Vec::with_capacity(len);
    for c in chunks {
        out.extend(c);
    }
    out
}

/// [`parallel_map_range`] over a slice: returns `items.iter().map(f)` in
/// item order, computed on up to `max_workers` threads.
///
/// # Examples
///
/// ```
/// use edgechain_sim::pool::parallel_map;
///
/// let doubled = parallel_map(&[1, 2, 3], 2, |&x| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6]);
/// ```
pub fn parallel_map<T, R, F>(items: &[T], max_workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_range(items.len(), max_workers, |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_range() {
        let out: Vec<usize> = parallel_map_range(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn matches_serial_for_all_worker_counts() {
        let serial: Vec<u64> = (0..103)
            .map(|i| (i as u64).wrapping_mul(2654435761))
            .collect();
        for cap in [1, 2, 3, 5, 8, 64] {
            let par = parallel_map_range(103, cap, |i| (i as u64).wrapping_mul(2654435761));
            assert_eq!(par, serial, "cap={cap}");
        }
    }

    #[test]
    fn cap_of_one_is_the_serial_map() {
        // Runs `f` on the calling thread, in index order: the thread id
        // check fails if a worker was spawned.
        let caller = std::thread::current().id();
        let seen = std::sync::Mutex::new(Vec::new());
        let out = parallel_map_range(40, 1, |i| {
            assert_eq!(std::thread::current().id(), caller);
            seen.lock().expect("no panic under the lock").push(i);
            i * 3
        });
        assert_eq!(out, (0..40).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(seen.into_inner().unwrap(), (0..40).collect::<Vec<_>>());
        for len in [0, 1, 2, 63, 10_000] {
            assert_eq!(worker_count(len, 1), 1, "len={len}");
            assert_eq!(worker_count(len, 0), 1, "len={len}");
        }
        assert_eq!(worker_count(1, usize::MAX), 1);
    }

    #[test]
    fn uneven_chunks_still_ordered() {
        // len deliberately not divisible by typical worker counts.
        let out = parallel_map_range(17, 4, |i| i);
        assert_eq!(out, (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn slice_variant_borrows_input() {
        let words = ["a", "bb", "ccc"];
        let lens = parallel_map(&words, 2, |w| w.len());
        assert_eq!(lens, vec![1, 2, 3]);
    }

    #[test]
    fn worker_count_clamps() {
        assert_eq!(worker_count(100, 1), 1);
        assert_eq!(worker_count(0, 8), 1);
        assert!(worker_count(100, usize::MAX) <= MAX_WORKERS);
        assert!(worker_count(3, usize::MAX) <= 3);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let _ = parallel_map_range(8, 4, |i| {
            assert!(i != 5, "boom");
            i
        });
    }
}
