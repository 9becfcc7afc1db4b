//! Host-speed calibration: a fixed reference kernel timed around every
//! `run()` call.
//!
//! This box shares its caches with other tenants, and the same seeded
//! run was measured anywhere between 0.33 s and 0.75 s of wall time
//! depending on the minute it ran in. The kernel below does a fixed
//! amount of work that owes nothing to the repository's code, with a
//! working set (3 MiB, between L1 and the 4 MiB L2) chosen so that it
//! slows down together with the simulator when a neighbour is busy.
//! Host times are reported in *reference seconds*: wall seconds scaled by
//! `NOMINAL_SECS / measured kernel time`, which is 1 on a quiet host. A
//! change to the simulator moves reference seconds exactly as it moves
//! wall seconds; a noisy minute mostly does not. Raw wall readings are
//! kept beside every calibrated one.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// What one probe takes on this box when nothing else runs.
pub const NOMINAL_SECS: f64 = 0.0245;

const TABLE_WORDS: usize = 3 << 17;
const STEPS: u64 = 750_000;

/// The reference kernel and its table, which is allocated and touched
/// once so that no probe pays for page faults.
pub struct Probe {
    table: Vec<u64>,
}

impl Probe {
    /// Allocates the table and writes a word to each page to fault it in.
    pub fn new() -> Self {
        let mut table = vec![0u64; TABLE_WORDS];
        for page in table.chunks_mut(4096 / std::mem::size_of::<u64>()) {
            page[0] = 1;
        }
        Probe { table }
    }

    /// Resident bytes the probe adds to the process (its table), so the
    /// caller can keep them out of a peak-RSS reading.
    pub fn resident_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u64>()
    }

    /// xorshift-addressed read-modify-writes over the table, a bounded
    /// binary heap, and a square root per step.
    fn kernel(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut heap = BinaryHeap::new();
        let mut acc = 0f64;
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) % TABLE_WORDS;
            self.table[slot] = self.table[slot].wrapping_add(x ^ i);
            heap.push(x >> 20);
            if heap.len() > 512 {
                heap.pop();
            }
            acc += (x as f64).sqrt();
        }
        acc as u64 ^ self.table[0] ^ heap.len() as u64
    }

    /// Seconds one pass of the kernel takes right now.
    pub fn secs(&mut self) -> f64 {
        let start = Instant::now();
        black_box(self.kernel());
        start.elapsed().as_secs_f64()
    }
}

/// Scales `wall_secs` measured between two probes into reference seconds.
pub fn reference_secs(wall_secs: f64, probe_before: f64, probe_after: f64) -> f64 {
    wall_secs * NOMINAL_SECS / ((probe_before + probe_after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_take_time_and_own_their_table() {
        let mut probe = Probe::new();
        assert!(probe.secs() > 0.0);
        assert_eq!(probe.resident_bytes(), 3 << 20);
    }

    #[test]
    fn a_nominal_host_leaves_wall_time_unscaled() {
        assert_eq!(reference_secs(2.0, NOMINAL_SECS, NOMINAL_SECS), 2.0);
        // A host running the kernel at half speed halves the reading.
        let slow = reference_secs(2.0, 2.0 * NOMINAL_SECS, 2.0 * NOMINAL_SECS);
        assert!((slow - 1.0).abs() < 1e-12);
    }
}
