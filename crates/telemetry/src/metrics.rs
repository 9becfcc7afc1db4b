//! Evaluation metrics: Gini coefficient and running summary statistics.
//!
//! These primitives originated in `edgechain-sim` (which still re-exports
//! them) and moved here so the telemetry registry — which must sit *below*
//! the simulator in the dependency graph — can build its histograms on the
//! same types the evaluation figures use.
//!
//! The paper uses the Gini coefficient to quantify storage disparity
//! (Fig. 4(b)): `Gini = Σ_i Σ_j |t_i − t_j| / (2 Σ_i Σ_j t_j)` and reports
//! values below 0.15 as "fair".

use std::fmt;

/// Computes the Gini coefficient of a set of nonnegative values.
///
/// Returns 0 for empty input, all-zero input, or a single value. The result
/// lies in `[0, 1)`: 0 means perfect equality; values near 1 mean one node
/// holds almost everything.
///
/// # Examples
///
/// ```
/// use edgechain_telemetry::gini;
///
/// assert_eq!(gini(&[5.0, 5.0, 5.0]), 0.0);
/// assert!(gini(&[0.0, 0.0, 30.0]) > 0.6);
/// ```
pub fn gini(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let sum: f64 = values.iter().sum();
    if sum <= 0.0 {
        return 0.0;
    }
    // Sort-based O(n log n) formulation:
    // Σ_i Σ_j |x_i − x_j| = 2 Σ_i (2i − n + 1) x_(i)  (x sorted ascending)
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("gini values must not be NaN"));
    let mut abs_diff_sum = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        abs_diff_sum += (2.0 * i as f64 - n as f64 + 1.0) * x;
    }
    abs_diff_sum.max(0.0) / (n as f64 * sum)
}

/// Convenience: Gini of integer counts (e.g., stored items per node).
pub fn gini_counts(values: &[u64]) -> f64 {
    let floats: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    gini(&floats)
}

/// Incremental summary statistics (count / mean / min / max / sum /
/// variance), with the second moment tracked by Welford's online
/// algorithm so variance is numerically stable over long runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningStats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Welford running mean (kept separately from `sum / count` purely for
    /// the stable second-moment update; `mean()` still reports the exact
    /// `sum / count`).
    w_mean: f64,
    /// Welford sum of squared deviations from the running mean.
    m2: f64,
}

impl RunningStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            w_mean: 0.0,
            m2: 0.0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let delta = value - self.w_mean;
        self.w_mean += delta / self.count as f64;
        self.m2 += delta * (value - self.w_mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population variance (Welford), or 0 when fewer than two samples.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Population standard deviation, or 0 when fewer than two samples.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl Default for RunningStats {
    /// Same as [`RunningStats::new`] (the derived default would seed
    /// `min`/`max` at 0 and corrupt the first comparison).
    fn default() -> Self {
        RunningStats::new()
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            write!(f, "n=0")
        } else {
            write!(
                f,
                "n={} mean={:.3} min={:.3} max={:.3}",
                self.count,
                self.mean(),
                self.min,
                self.max
            )
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

/// A sample collection supporting exact quantiles (kept sorted lazily).
///
/// Evaluation runs produce at most tens of thousands of latency samples, so
/// storing them exactly is cheaper and more trustworthy than a sketch.
///
/// # Examples
///
/// ```
/// use edgechain_telemetry::SampleSet;
///
/// let mut s: SampleSet = (1..=100).map(|v| v as f64).collect();
/// assert_eq!(s.quantile(0.5), Some(50.0));
/// assert_eq!(s.quantile(0.99), Some(99.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSet {
    samples: Vec<f64>,
    sorted: bool,
}

impl Default for SampleSet {
    /// Same as [`SampleSet::new`] — an empty set is trivially sorted.
    fn default() -> Self {
        SampleSet::new()
    }
}

impl SampleSet {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        SampleSet {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Records one observation.
    ///
    /// # Panics
    ///
    /// Panics on NaN (quantiles would be meaningless).
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "samples must not be NaN");
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (nearest-rank), or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        self.sort();
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        Some(self.samples[rank - 1])
    }

    /// Median (p50).
    pub fn p50(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 95th percentile.
    pub fn p95(&mut self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Exact histogram over ascending bucket `edges`: returns
    /// `edges.len() + 1` counts, where count `i` covers `(edges[i-1],
    /// edges[i]]` (the first bucket is `(-∞, edges[0]]`, the last
    /// `(edges[last], +∞)`).
    ///
    /// # Examples
    ///
    /// ```
    /// use edgechain_telemetry::SampleSet;
    ///
    /// let mut s: SampleSet = [1.0, 2.0, 5.0, 50.0].into_iter().collect();
    /// assert_eq!(s.histogram(&[2.0, 10.0]), vec![2, 1, 1]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `edges` is empty, not strictly ascending, or contains NaN.
    pub fn histogram(&mut self, edges: &[f64]) -> Vec<u64> {
        assert!(!edges.is_empty(), "need at least one bucket edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]) && edges.iter().all(|e| !e.is_nan()),
            "bucket edges must be strictly ascending and not NaN"
        );
        self.sort();
        let mut counts = Vec::with_capacity(edges.len() + 1);
        let mut prev = 0usize;
        for &edge in edges {
            let upto = self.samples.partition_point(|&s| s <= edge);
            counts.push((upto - prev) as u64);
            prev = upto;
        }
        counts.push((self.samples.len() - prev) as u64);
        counts
    }
}

impl FromIterator<f64> for SampleSet {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = SampleSet::new();
        for v in iter {
            s.record(v);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gini_equal_is_zero() {
        assert_eq!(gini(&[3.0, 3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn gini_empty_and_singleton() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[7.0]), 0.0);
        assert_eq!(gini(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn gini_extreme_concentration() {
        // One node holds everything: Gini = (n-1)/n.
        let mut v = vec![0.0; 10];
        v[0] = 100.0;
        assert!((gini(&v) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn gini_matches_naive_definition() {
        let v: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 10.0];
        let mut num = 0.0;
        let mut den = 0.0;
        for a in v {
            for b in v {
                num += (a - b).abs();
                den += b;
            }
        }
        let naive = num / (2.0 * den);
        assert!((gini(&v) - naive).abs() < 1e-12);
    }

    #[test]
    fn gini_counts_agrees() {
        assert_eq!(gini_counts(&[1, 2, 3]), gini(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn gini_scale_invariant() {
        let a = [1.0, 5.0, 9.0];
        let b = [10.0, 50.0, 90.0];
        assert!((gini(&a) - gini(&b)).abs() < 1e-12);
    }

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        s.record(2.0);
        s.record(4.0);
        s.record(6.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 4.0);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(6.0));
        assert_eq!(s.sum(), 12.0);
    }

    #[test]
    fn running_stats_variance_welford() {
        let mut s = RunningStats::new();
        assert_eq!(s.variance(), 0.0);
        s.record(2.0);
        assert_eq!(s.variance(), 0.0, "single sample has no spread");
        s.record(4.0);
        s.record(6.0);
        // Population variance of [2, 4, 6] = ((−2)² + 0² + 2²)/3 = 8/3.
        assert!((s.variance() - 8.0 / 3.0).abs() < 1e-12);
        assert!((s.stddev() - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn running_stats_variance_matches_naive() {
        let vals: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 5.0 + 100.0)
            .collect();
        let s: RunningStats = vals.iter().copied().collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let naive = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        assert!((s.variance() - naive).abs() < 1e-9 * naive.max(1.0));
    }

    #[test]
    fn running_stats_display() {
        let s: RunningStats = [1.0, 3.0].into_iter().collect();
        assert_eq!(format!("{s}"), "n=2 mean=2.000 min=1.000 max=3.000");
        assert_eq!(format!("{}", RunningStats::new()), "n=0");
    }

    #[test]
    fn running_stats_extend() {
        let mut s = RunningStats::new();
        s.extend([1.0, 2.0, 3.0]);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn sample_set_quantiles() {
        let mut s: SampleSet = (1..=100).map(|v| v as f64).collect();
        assert_eq!(s.len(), 100);
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.p50(), Some(50.0));
        assert_eq!(s.p95(), Some(95.0));
        assert_eq!(s.p99(), Some(99.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn sample_set_empty_and_singleton() {
        let mut s = SampleSet::new();
        assert!(s.is_empty());
        assert_eq!(s.p50(), None);
        assert_eq!(s.mean(), 0.0);
        s.record(7.0);
        assert_eq!(s.p50(), Some(7.0));
        assert_eq!(s.p99(), Some(7.0));
    }

    #[test]
    fn sample_set_unsorted_insertion_order() {
        let mut s = SampleSet::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.record(v);
        }
        assert_eq!(s.p50(), Some(3.0));
        // Records after a quantile query re-sort lazily.
        s.record(0.0);
        assert_eq!(s.quantile(0.0), Some(0.0));
    }

    #[test]
    fn sample_set_histogram_exact() {
        let mut s: SampleSet = [0.5, 1.0, 1.5, 2.0, 10.0, 100.0].into_iter().collect();
        // (-∞, 1], (1, 2], (2, 50], (50, ∞)
        assert_eq!(s.histogram(&[1.0, 2.0, 50.0]), vec![2, 2, 1, 1]);
        // Histogram counts always sum to the sample count.
        let total: u64 = s.histogram(&[0.7]).iter().sum();
        assert_eq!(total, 6);
        // Empty set: all-zero counts.
        let mut empty = SampleSet::new();
        assert_eq!(empty.histogram(&[1.0, 2.0]), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn sample_set_histogram_rejects_unsorted_edges() {
        let mut s: SampleSet = [1.0].into_iter().collect();
        let _ = s.histogram(&[2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn sample_set_rejects_nan() {
        SampleSet::new().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn sample_set_rejects_bad_quantile() {
        let mut s: SampleSet = [1.0].into_iter().collect();
        let _ = s.quantile(1.5);
    }

    #[test]
    fn empty_sample_set_percentiles_are_none() {
        let mut s = SampleSet::default();
        assert_eq!(s.quantile(0.0), None);
        assert_eq!(s.p50(), None);
        assert_eq!(s.p95(), None);
        assert_eq!(s.p99(), None);
        assert_eq!(s.quantile(1.0), None);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut s: SampleSet = [7.25].into_iter().collect();
        for q in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(7.25), "q={q}");
        }
    }

    #[test]
    fn nearest_rank_exact_edges() {
        // 100 samples 1..=100: nearest-rank pN is exactly sample N
        // (ceil(q*100) = q*100 lands on an integer rank — the edge case).
        let mut s: SampleSet = (1..=100).map(|v| v as f64).collect();
        assert_eq!(s.p50(), Some(50.0));
        assert_eq!(s.p95(), Some(95.0));
        assert_eq!(s.p99(), Some(99.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        // q=0 clamps up to rank 1 (the minimum), never rank 0.
        assert_eq!(s.quantile(0.0), Some(1.0));
        // 101 samples: ceil(0.95*101)=96 → one past the 100-sample answer.
        s.record(101.0);
        assert_eq!(s.p95(), Some(96.0));
    }

    #[test]
    fn tiny_sets_clamp_high_percentiles_to_max() {
        // With n < 100 the p99 rank saturates at n: p99 of a small set is
        // its maximum, not an interpolation.
        for n in 1..=20_usize {
            let mut s: SampleSet = (1..=n).map(|v| v as f64).collect();
            assert_eq!(s.p99(), Some(n as f64), "n={n}");
        }
    }

    #[test]
    fn duplicate_samples_and_unsorted_input() {
        let mut s: SampleSet = [5.0, 1.0, 5.0, 5.0, 2.0].into_iter().collect();
        assert_eq!(s.p50(), Some(5.0));
        assert_eq!(s.quantile(0.4), Some(2.0));
        assert_eq!(s.p99(), Some(5.0));
    }

    #[test]
    fn histogram_edge_values_land_in_lower_bucket() {
        // Buckets are (lo, hi]: a sample exactly on an edge counts below.
        let mut s: SampleSet = [1.0, 2.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(s.histogram(&[2.0]), vec![3, 1]);
        let mut empty = SampleSet::default();
        assert_eq!(empty.histogram(&[1.0, 2.0]), vec![0, 0, 0]);
        let mut one: SampleSet = [2.0].into_iter().collect();
        assert_eq!(one.histogram(&[2.0]), vec![1, 0]);
    }
}
