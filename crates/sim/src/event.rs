//! Deterministic discrete-event scheduler.
//!
//! Time is kept in integer **milliseconds** ([`SimTime`]) so that event
//! ordering is exact and runs are bit-for-bit reproducible. Ties are broken
//! by insertion sequence number (FIFO among simultaneous events).
//!
//! # Examples
//!
//! ```
//! use edgechain_sim::{EventQueue, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_secs(2), "later");
//! q.schedule(SimTime::from_millis(500), "sooner");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!(e, "sooner");
//! assert_eq!(t, SimTime::from_millis(500));
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Simulation timestamp in milliseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a timestamp from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates a timestamp from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1000)
    }

    /// Creates a timestamp from fractional seconds (rounded to ms).
    ///
    /// # Panics
    ///
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "time must be finite and nonnegative"
        );
        SimTime((s * 1000.0).round() as u64)
    }

    /// Milliseconds since time zero.
    pub const fn as_millis(&self) -> u64 {
        self.0
    }

    /// Whole seconds since time zero (truncating).
    pub const fn as_secs(&self) -> u64 {
        self.0 / 1000
    }

    /// Fractional seconds since time zero.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating difference `self - earlier`.
    pub fn saturating_since(&self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics (in debug) on underflow, like integer subtraction.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// Width of the bucket ring in milliseconds: events due within this many
/// ms of [`EventQueue::now`] wait in a bucket, later ones in the overflow.
const RING: u64 = 4096;
/// Words of the ring's occupancy bitmap.
const WORDS: usize = RING as usize / 64;
/// No slot: an empty bucket's tail, the free list's end. Slot 0 is a
/// sentinel that never holds an event, so the bucket array is allocated
/// zeroed and costs no page until a bucket in it is used.
const NIL: u32 = 0;

/// A priority queue of timestamped events, popped in time order with FIFO
/// tie-breaking.
///
/// A calendar queue: one bucket per millisecond of the window
/// `[now, now + RING)`, each a circular FIFO list through one slab of event
/// slots (the links kept beside it, so a slot is no larger than its event),
/// and an occupancy bitmap to find the next non-empty bucket. The
/// window's milliseconds fall in distinct buckets, so a bucket holds a
/// single timestamp and pops in push order. An event due at or past the
/// window's end waits as a `(time, seq, slot)` key in a small overflow heap
/// and moves into its bucket, in `(time, seq)` order, on the pop that brings
/// its time into the window — before any later push can reach that bucket.
/// Pop order is therefore exactly `(time, seq)`, as with one binary heap
/// over all events.
pub struct EventQueue<E> {
    /// The slab: each pending event in its slot, `None` while free.
    slots: Vec<Option<E>>,
    /// `next[s]`: the slot after `s` in its bucket's list or in the free
    /// list.
    next: Vec<u32>,
    /// Head of the free-slot list.
    free: u32,
    /// Last slot of each bucket's list, `NIL` when empty. The lists are
    /// circular: a tail's `next` is its bucket's head.
    tails: Box<[u32]>,
    occupied: [u64; WORDS],
    overflow: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Insertion sequence of overflow keys: FIFO among equal times.
    next_seq: u64,
    len: usize,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket of timestamp `at`.
fn bucket(at: SimTime) -> usize {
    (at.as_millis() % RING) as usize
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            slots: vec![None],
            next: vec![NIL],
            free: NIL,
            tails: vec![NIL; RING as usize].into_boxed_slice(),
            occupied: [0; WORDS],
            overflow: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the last popped event).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        let slot = self.alloc(event);
        self.len += 1;
        if at.as_millis() - self.now.as_millis() < RING {
            self.append(at, slot);
        } else {
            self.overflow.push(Reverse((at, self.next_seq, slot)));
            self.next_seq += 1;
        }
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let at = self.peek_time()?;
        self.now = at;
        // The window now ends at `at + RING`: the keys it reached join
        // their buckets before anything else can be pushed there.
        while let Some(&Reverse((t, _, slot))) = self.overflow.peek() {
            if t.as_millis() - at.as_millis() >= RING {
                break;
            }
            self.overflow.pop();
            self.append(t, slot);
        }
        let b = bucket(at);
        let tail = self.tails[b];
        let head = self.next[tail as usize];
        if head == tail {
            self.tails[b] = NIL;
            self.occupied[b / 64] &= !(1 << (b % 64));
        } else {
            self.next[tail as usize] = self.next[head as usize];
        }
        let event = self.slots[head as usize]
            .take()
            .expect("a listed slot holds an event");
        self.next[head as usize] = self.free;
        self.free = head;
        self.len -= 1;
        Some((at, event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next_bucket_time()
            .or_else(|| self.overflow.peek().map(|&Reverse((t, ..))| t))
    }

    /// Timestamp of the first non-empty bucket at or after `now`'s, read
    /// off the bitmap: the window's earliest event.
    fn next_bucket_time(&self) -> Option<SimTime> {
        let start = bucket(self.now);
        let (first, bit) = (start / 64, start % 64);
        for k in 0..=WORDS {
            let w = (first + k) % WORDS;
            let bits = match k {
                0 => self.occupied[w] & (!0 << bit),
                WORDS => self.occupied[w] & ((1 << bit) - 1),
                _ => self.occupied[w],
            };
            if bits != 0 {
                let b = w * 64 + bits.trailing_zeros() as usize;
                let ahead = (b + RING as usize - start) as u64 % RING;
                return Some(SimTime::from_millis(self.now.as_millis() + ahead));
            }
        }
        None
    }

    /// Stores `event` in a free slot, growing the slab when none is free.
    fn alloc(&mut self, event: E) -> u32 {
        if self.free == NIL {
            let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 pending events");
            self.slots.push(Some(event));
            self.next.push(NIL);
            return slot;
        }
        let slot = self.free;
        self.free = self.next[slot as usize];
        self.slots[slot as usize] = Some(event);
        slot
    }

    /// Appends `slot`, due at `at` inside the window, to its bucket's list.
    fn append(&mut self, at: SimTime, slot: u32) {
        let b = bucket(at);
        let s = slot as usize;
        match self.tails[b] {
            NIL => self.next[s] = slot,
            tail => {
                self.next[s] = self.next[tail as usize];
                self.next[tail as usize] = slot;
            }
        }
        self.tails[b] = slot;
        self.occupied[b / 64] |= 1 << (b % 64);
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_among_simultaneous() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::from_secs(1), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_keys_pop_before_later_pushes_at_their_time() {
        // `far` is past the window at push time; once the clock reaches
        // 100 ms it is inside it, and a push at the same time queues behind.
        let far = SimTime::from_millis(RING + 100);
        let mut q = EventQueue::new();
        q.schedule(far, "overflow-a");
        q.schedule(far, "overflow-b");
        q.schedule(SimTime::from_millis(100), "tick");
        assert_eq!(q.pop(), Some((SimTime::from_millis(100), "tick")));
        q.schedule(far, "direct");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["overflow-a", "overflow-b", "direct"]);
    }

    #[test]
    fn idle_gap_past_the_ring_jumps_the_window() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10 * RING + 7), 1);
        q.schedule(SimTime::from_millis(10 * RING + 7 + RING), 2);
        assert_eq!(q.pop(), Some((SimTime::from_millis(10 * RING + 7), 1)));
        q.schedule(q.now(), 3);
        assert_eq!(q.pop(), Some((SimTime::from_millis(10 * RING + 7), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_millis(11 * RING + 7), 2)));
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn clock_advances() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(2) + SimTime::from_millis(500);
        assert_eq!(t.as_millis(), 2500);
        assert_eq!(t.as_secs(), 2);
        assert!((t.as_secs_f64() - 2.5).abs() < 1e-12);
        assert_eq!(
            SimTime::from_secs(1).saturating_since(SimTime::from_secs(5)),
            SimTime::ZERO
        );
        assert_eq!(format!("{t}"), "2.500s");
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimTime::from_secs_f64(0.0105).as_millis(), 11);
    }
}
