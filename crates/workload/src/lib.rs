//! Seeded open-workload generators for the edge-blockchain simulator.
//!
//! The paper's evaluation drives the network with a gentle *closed-loop*
//! workload: one exponential clock, one item at a time. This crate supplies
//! the *open* side — arrival processes that keep offering load whether or
//! not the network keeps up — so overload behaviour (admission, shedding,
//! backpressure) becomes measurable instead of hypothetical:
//!
//! * [`ArrivalProcess`] — homogeneous Poisson or a diurnal sinusoid;
//! * [`Burst`] — a flash-crowd multiplier over a time window, composable
//!   with either process;
//! * [`OpenArrivals`] — process + optional burst, sampled by Lewis–Shedler
//!   thinning so non-homogeneous rates stay exact;
//! * [`ZipfSampler`] — demand-skewed popularity for fetches, via exact
//!   rejection-inversion (no tables, works with a growing catalogue);
//! * [`TokenBucket`] — the admission/retry-budget primitive (pure
//!   arithmetic, no RNG, so admission decisions never perturb seeds);
//! * [`WorkloadConfig`] / [`OverloadConfig`] — the `NetworkConfig` sections
//!   the simulator consumes. Both default to fully inert so existing runs
//!   stay bit-identical.
//!
//! Every sampler takes the caller's RNG; the simulator dedicates a stream
//! (`seed ^ WORKLOAD_STREAM`) so enabling a workload never consumes draws
//! from the master stream.

use rand::Rng;

/// XOR'd into the run seed to derive the dedicated workload RNG stream.
pub const WORKLOAD_STREAM: u64 = 0x0BE2_AC71_7E55_u64;

/// The base arrival-rate shape, before any flash-crowd burst.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Homogeneous Poisson arrivals at a fixed rate.
    Poisson {
        /// Mean arrivals per minute.
        rate_per_min: f64,
    },
    /// Diurnal sinusoid: `base · (1 + amplitude · sin(2π·(t+phase)/period))`.
    ///
    /// `amplitude` is clamped to `[0, 1]` so the rate never goes negative;
    /// `period_secs` defaults to a compressed "day" that fits a short run.
    Diurnal {
        /// Mean arrivals per minute at the sinusoid midline.
        base_per_min: f64,
        /// Peak-to-midline swing as a fraction of the base, in `[0, 1]`.
        amplitude: f64,
        /// Length of one full cycle, in seconds.
        period_secs: f64,
        /// Phase offset, in seconds (0 starts at the midline, rising).
        phase_secs: f64,
    },
}

impl ArrivalProcess {
    /// Instantaneous rate in arrivals **per second** at sim time `t_secs`.
    pub fn rate_per_sec_at(&self, t_secs: f64) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_min } => rate_per_min.max(0.0) / 60.0,
            ArrivalProcess::Diurnal {
                base_per_min,
                amplitude,
                period_secs,
                phase_secs,
            } => {
                let base = base_per_min.max(0.0) / 60.0;
                let amp = amplitude.clamp(0.0, 1.0);
                let period = period_secs.max(1.0);
                let angle = std::f64::consts::TAU * (t_secs + phase_secs) / period;
                base * (1.0 + amp * angle.sin())
            }
        }
    }

    /// Upper bound on the rate over all times, in arrivals per second.
    pub fn max_rate_per_sec(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_min } => rate_per_min.max(0.0) / 60.0,
            ArrivalProcess::Diurnal {
                base_per_min,
                amplitude,
                ..
            } => base_per_min.max(0.0) / 60.0 * (1.0 + amplitude.clamp(0.0, 1.0)),
        }
    }
}

/// A flash-crowd window: the base rate is multiplied by `multiplier`
/// while `from_secs <= t < until_secs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Burst {
    /// Rate multiplier during the window (≥ 0; values < 1 model lulls).
    pub multiplier: f64,
    /// Window start, seconds of sim time.
    pub from_secs: f64,
    /// Window end (exclusive), seconds of sim time.
    pub until_secs: f64,
}

impl Burst {
    fn factor_at(&self, t_secs: f64) -> f64 {
        if t_secs >= self.from_secs && t_secs < self.until_secs {
            self.multiplier.max(0.0)
        } else {
            1.0
        }
    }
}

/// A complete open arrival stream: base process plus optional burst.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenArrivals {
    /// Base rate shape.
    pub process: ArrivalProcess,
    /// Optional flash-crowd window multiplying the base rate.
    pub burst: Option<Burst>,
}

impl OpenArrivals {
    /// A plain Poisson stream at `rate_per_min`.
    pub fn poisson(rate_per_min: f64) -> Self {
        OpenArrivals {
            process: ArrivalProcess::Poisson { rate_per_min },
            burst: None,
        }
    }

    /// Instantaneous rate (per second) including any active burst.
    pub fn rate_per_sec_at(&self, t_secs: f64) -> f64 {
        let base = self.process.rate_per_sec_at(t_secs);
        match &self.burst {
            Some(b) => base * b.factor_at(t_secs),
            None => base,
        }
    }

    /// Upper bound on the rate over all times (per second).
    pub fn max_rate_per_sec(&self) -> f64 {
        let base = self.process.max_rate_per_sec();
        match &self.burst {
            Some(b) => base * b.multiplier.max(0.0).max(1.0),
            None => base,
        }
    }

    /// Samples the next arrival time strictly after `t_secs` by
    /// Lewis–Shedler thinning against the majorising constant rate
    /// [`Self::max_rate_per_sec`]. Exact for any bounded rate function and
    /// fully determined by the RNG stream. Returns `f64::INFINITY` when the
    /// stream is silent (zero max rate).
    pub fn next_arrival_secs<R: Rng + ?Sized>(&self, t_secs: f64, rng: &mut R) -> f64 {
        let lambda_max = self.max_rate_per_sec();
        if lambda_max <= 0.0 {
            return f64::INFINITY;
        }
        let mut t = t_secs;
        // Bounded loop: thinning accepts with mean probability
        // rate/λ_max, so hitting the cap is astronomically unlikely; the
        // fallback keeps the sampler total.
        for _ in 0..100_000 {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / lambda_max;
            let accept: f64 = rng.gen();
            if accept * lambda_max <= self.rate_per_sec_at(t) {
                return t;
            }
        }
        t
    }
}

/// Zipf-skewed popularity over a catalogue of `n` ranks.
///
/// `P(rank k) ∝ (k+1)^-exponent` for ranks `0..n` (rank 0 most popular).
/// Sampling is exact rejection-inversion against the continuous envelope
/// `x^-s` — O(1) expected draws, no precomputed tables, so the catalogue
/// can grow between samples (items keep arriving mid-run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZipfSampler {
    /// Skew exponent `s ≥ 0`; 0 is uniform, ~1 is classic web-like skew.
    pub exponent: f64,
}

impl ZipfSampler {
    /// Creates a sampler with the given skew exponent (clamped to ≥ 0).
    pub fn new(exponent: f64) -> Self {
        ZipfSampler {
            exponent: exponent.max(0.0),
        }
    }

    /// Draws a rank in `0..n` (0 = most popular). `n = 0` returns 0.
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> usize {
        if n <= 1 {
            return 0;
        }
        let s = self.exponent;
        let nf = n as f64;
        // H(x) = ∫ x^-s dx, increasing on (0, ∞) for every s ≥ 0.
        let near_one = (s - 1.0).abs() < 1e-9;
        let h = |x: f64| -> f64 {
            if near_one {
                x.ln()
            } else {
                x.powf(1.0 - s) / (1.0 - s)
            }
        };
        let h_inv = |y: f64| -> f64 {
            if near_one {
                y.exp()
            } else {
                ((1.0 - s) * y).powf(1.0 / (1.0 - s))
            }
        };
        let lo = h(0.5);
        let hi = h(nf + 0.5);
        // Midpoint rule on the convex decreasing x^-s guarantees each
        // integer bin's continuous mass dominates k^-s, so this rejection
        // scheme is exact; acceptance is > 80% even at s = 2.
        for _ in 0..256 {
            let u = lo + rng.gen::<f64>() * (hi - lo);
            let x = h_inv(u);
            let k = x.round().clamp(1.0, nf);
            let bin_mass = h(k + 0.5) - h(k - 0.5);
            if rng.gen::<f64>() * bin_mass <= k.powf(-s) {
                return k as usize - 1;
            }
        }
        0
    }
}

/// A deterministic token bucket: `rate` tokens per second accrue up to
/// `burst`; each admitted operation takes `cost` tokens. Pure arithmetic
/// over sim-clock milliseconds — no RNG, no wall clock — so admission
/// decisions replay bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last_ms: u64,
}

impl TokenBucket {
    /// A bucket refilled at `rate_per_min` per minute, holding at most
    /// `burst` tokens, starting full.
    pub fn per_minute(rate_per_min: f64, burst: f64) -> Self {
        let burst = burst.max(1.0);
        TokenBucket {
            rate_per_sec: rate_per_min.max(0.0) / 60.0,
            burst,
            tokens: burst,
            last_ms: 0,
        }
    }

    /// Tokens currently available at `now_ms`.
    pub fn available(&mut self, now_ms: u64) -> f64 {
        self.refill(now_ms);
        self.tokens
    }

    /// Attempts to take `cost` tokens at `now_ms`; all-or-nothing.
    pub fn try_take(&mut self, now_ms: u64, cost: f64) -> bool {
        self.refill(now_ms);
        if self.tokens >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }

    fn refill(&mut self, now_ms: u64) {
        if now_ms > self.last_ms {
            let dt = (now_ms - self.last_ms) as f64 / 1_000.0;
            self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
            self.last_ms = now_ms;
        }
    }
}

/// The open-workload section of `NetworkConfig`.
///
/// Defaults to `enabled: false`, which leaves the simulator on its original
/// closed-loop generator and keeps every existing seed bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Master switch; when false every other field is ignored.
    pub enabled: bool,
    /// Open arrival stream for new data items (replaces the closed-loop
    /// exponential clock when enabled).
    pub arrivals: OpenArrivals,
    /// Optional open fetch stream. `None` keeps only the closed-loop
    /// per-node request clock; `Some` adds open fetch arrivals whose
    /// requester is drawn uniformly and whose target item follows
    /// [`Self::zipf_exponent`].
    pub fetches: Option<OpenArrivals>,
    /// Popularity skew for open fetches over the item catalogue, newest
    /// rank first (flash crowds chase fresh content).
    pub zipf_exponent: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            enabled: false,
            arrivals: OpenArrivals::poisson(1.0),
            fetches: None,
            zipf_exponent: 0.9,
        }
    }
}

/// Degradation-ladder rungs, as fractions of
/// [`OverloadConfig::max_pending_items`]: L1, L2 and L3 engage at these
/// pending-queue depths.
const DEGRADE_FRACS: [f64; 3] = [0.50, 0.75, 0.90];

/// Overload-protection knobs for the simulator. Every limit defaults to
/// `None`/zero — fully inert — so the section can ride every config without
/// disturbing existing runs; set limits explicitly to engage protection.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OverloadConfig {
    /// Admission token-bucket rate for new items, per minute
    /// (`None` = no admission control at generation).
    pub admission_items_per_min: Option<f64>,
    /// Admission token-bucket rate for fetch entry, per minute
    /// (`None` = no admission control at fetch entry).
    pub admission_fetches_per_min: Option<f64>,
    /// Bound on the miner-side pending-metadata queue; arrivals beyond it
    /// are shed (`None` = unbounded, the original behaviour). The
    /// degradation ladder's rungs are fractions of it: at half full
    /// lowest-priority (open workload) fetches are shed, at 75 % proactive
    /// replication is deferred to the repair sweep, at 90 % repair sweeps
    /// themselves are deferred. Consensus is never throttled.
    pub max_pending_items: Option<usize>,
    /// Bound on concurrently in-flight (awaiting-retry) fetches per node;
    /// excess entries fail fast instead of queueing (`None` = unbounded).
    pub max_inflight_per_node: Option<usize>,
    /// Global retry budget refill rate, per minute (`None` = unlimited
    /// retries, the original behaviour). A denied fetch retry is a
    /// terminal failure; a denied snapshot/recover retry re-polls later.
    pub retry_budget_per_min: Option<f64>,
}

impl OverloadConfig {
    /// Current rung of the degradation ladder for a pending-queue depth:
    /// 0 = healthy, 1 = shed low-priority fetches, 2 = also defer
    /// proactive replication, 3 = also defer repair sweeps. Always 0 when
    /// no pending bound is configured.
    pub fn degrade_level(&self, pending: usize) -> u8 {
        let Some(max) = self.max_pending_items else {
            return 0;
        };
        if max == 0 {
            return 0;
        }
        let frac = pending as f64 / max as f64;
        DEGRADE_FRACS.iter().filter(|&&rung| frac >= rung).count() as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn poisson_rate_is_flat() {
        let p = ArrivalProcess::Poisson { rate_per_min: 30.0 };
        assert_eq!(p.rate_per_sec_at(0.0), 0.5);
        assert_eq!(p.rate_per_sec_at(9_999.0), 0.5);
        assert_eq!(p.max_rate_per_sec(), 0.5);
    }

    #[test]
    fn diurnal_rate_oscillates_within_bounds() {
        let p = ArrivalProcess::Diurnal {
            base_per_min: 60.0,
            amplitude: 0.5,
            period_secs: 3_600.0,
            phase_secs: 0.0,
        };
        let max = p.max_rate_per_sec();
        assert!((max - 1.5).abs() < 1e-12);
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for t in 0..3_600 {
            let r = p.rate_per_sec_at(t as f64);
            assert!(r >= 0.0 && r <= max + 1e-12);
            lo = lo.min(r);
            hi = hi.max(r);
        }
        assert!(lo < 0.51, "trough should dip toward base·(1-amp): {lo}");
        assert!(hi > 1.49, "peak should reach base·(1+amp): {hi}");
    }

    #[test]
    fn burst_multiplies_only_inside_window() {
        let a = OpenArrivals {
            process: ArrivalProcess::Poisson { rate_per_min: 60.0 },
            burst: Some(Burst {
                multiplier: 5.0,
                from_secs: 100.0,
                until_secs: 200.0,
            }),
        };
        assert_eq!(a.rate_per_sec_at(99.0), 1.0);
        assert_eq!(a.rate_per_sec_at(100.0), 5.0);
        assert_eq!(a.rate_per_sec_at(199.9), 5.0);
        assert_eq!(a.rate_per_sec_at(200.0), 1.0);
        assert_eq!(a.max_rate_per_sec(), 5.0);
    }

    #[test]
    fn thinning_hits_the_poisson_mean() {
        let a = OpenArrivals::poisson(60.0); // 1/s
        let mut rng = StdRng::seed_from_u64(7);
        let mut t = 0.0;
        let mut n = 0u32;
        while t < 10_000.0 {
            t = a.next_arrival_secs(t, &mut rng);
            n += 1;
        }
        // 10k expected arrivals; 5% tolerance is ~16σ.
        assert!((9_500..=10_500).contains(&n), "got {n} arrivals");
    }

    #[test]
    fn thinning_tracks_a_burst() {
        let a = OpenArrivals {
            process: ArrivalProcess::Poisson { rate_per_min: 60.0 },
            burst: Some(Burst {
                multiplier: 10.0,
                from_secs: 1_000.0,
                until_secs: 2_000.0,
            }),
        };
        let mut rng = StdRng::seed_from_u64(11);
        let (mut before, mut during) = (0u32, 0u32);
        let mut t = 0.0;
        while t < 2_000.0 {
            t = a.next_arrival_secs(t, &mut rng);
            if t < 1_000.0 {
                before += 1;
            } else if t < 2_000.0 {
                during += 1;
            }
        }
        assert!(
            during > 5 * before,
            "burst window should dominate: before={before} during={during}"
        );
    }

    #[test]
    fn arrivals_are_deterministic_per_seed() {
        let a = OpenArrivals {
            process: ArrivalProcess::Diurnal {
                base_per_min: 20.0,
                amplitude: 0.8,
                period_secs: 600.0,
                phase_secs: 120.0,
            },
            burst: Some(Burst {
                multiplier: 4.0,
                from_secs: 300.0,
                until_secs: 400.0,
            }),
        };
        let stream = |seed: u64| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = 0.0;
            (0..200)
                .map(|_| {
                    t = a.next_arrival_secs(t, &mut rng);
                    (t * 1_000.0) as u64
                })
                .collect()
        };
        assert_eq!(stream(42), stream(42));
        assert_ne!(stream(42), stream(43));
    }

    #[test]
    fn silent_stream_returns_infinity() {
        let a = OpenArrivals::poisson(0.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(a.next_arrival_secs(5.0, &mut rng).is_infinite());
    }

    #[test]
    fn zipf_is_skewed_and_monotone() {
        let z = ZipfSampler::new(1.1);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50;
        let mut counts = vec![0u32; n];
        for _ in 0..200_000 {
            counts[z.sample(n, &mut rng)] += 1;
        }
        assert!(
            counts[0] > counts[9] && counts[9] > counts[49],
            "head should dominate: {} vs {} vs {}",
            counts[0],
            counts[9],
            counts[49]
        );
        // Rank 0 vs rank 1 should be ~2^1.1 ≈ 2.14 apart.
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((1.8..=2.6).contains(&ratio), "rank0/rank1 ratio {ratio}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = ZipfSampler::new(0.0);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 10;
        let mut counts = vec![0u32; n];
        for _ in 0..100_000 {
            counts[z.sample(n, &mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8_500..=11_500).contains(&c), "not uniform: {counts:?}");
        }
    }

    #[test]
    fn zipf_handles_degenerate_catalogues() {
        let z = ZipfSampler::new(1.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(z.sample(0, &mut rng), 0);
        assert_eq!(z.sample(1, &mut rng), 0);
        for _ in 0..1_000 {
            assert!(z.sample(2, &mut rng) < 2);
        }
    }

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let z = ZipfSampler::new(0.9);
        let draw = |seed: u64| -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100).map(|i| z.sample(10 + i, &mut rng)).collect()
        };
        assert_eq!(draw(77), draw(77));
        assert_ne!(draw(77), draw(78));
    }

    #[test]
    fn token_bucket_enforces_rate_and_burst() {
        let mut b = TokenBucket::per_minute(60.0, 2.0); // 1/s, burst 2
        assert!(b.try_take(0, 1.0));
        assert!(b.try_take(0, 1.0));
        assert!(!b.try_take(0, 1.0), "burst exhausted");
        assert!(!b.try_take(500, 1.0), "only 0.5 refilled");
        assert!(b.try_take(1_500, 1.0), "1.5 tokens after 1.5 s");
        // Never exceeds burst no matter the idle gap.
        assert!(b.try_take(1_000_000, 2.0));
        assert!(!b.try_take(1_000_000, 0.5));
    }

    #[test]
    fn token_bucket_is_pure_arithmetic() {
        let run = || {
            let mut b = TokenBucket::per_minute(30.0, 4.0);
            (0..1_000)
                .map(|i| b.try_take(i * 700, 1.0))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn degrade_ladder_steps_with_depth() {
        let cfg = OverloadConfig {
            max_pending_items: Some(100),
            ..OverloadConfig::default()
        };
        assert_eq!(cfg.degrade_level(0), 0);
        assert_eq!(cfg.degrade_level(49), 0);
        assert_eq!(cfg.degrade_level(50), 1);
        assert_eq!(cfg.degrade_level(74), 1);
        assert_eq!(cfg.degrade_level(75), 2);
        assert_eq!(cfg.degrade_level(89), 2);
        assert_eq!(cfg.degrade_level(90), 3);
        assert_eq!(cfg.degrade_level(1_000), 3);
    }

    #[test]
    fn degrade_ladder_inert_without_bound() {
        let cfg = OverloadConfig::default();
        assert_eq!(cfg.degrade_level(usize::MAX / 2), 0);
    }

    #[test]
    fn defaults_are_inert() {
        let w = WorkloadConfig::default();
        assert!(!w.enabled);
        let o = OverloadConfig::default();
        assert!(o.admission_items_per_min.is_none());
        assert!(o.admission_fetches_per_min.is_none());
        assert!(o.max_pending_items.is_none());
        assert!(o.max_inflight_per_node.is_none());
        assert!(o.retry_budget_per_min.is_none());
    }
}
