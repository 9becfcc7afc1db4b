//! Median and quartile helpers.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default exclusive method), so a spread computed here is the spread the
//! benchmark's driver computes from the same values.

/// First quartile, median and third quartile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// 25th percentile.
    pub q1: f64,
    /// 50th percentile.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
}

impl Quartiles {
    /// Interquartile distance as a share of the median (0 when the median
    /// is 0, where a relative spread has no meaning).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.median).abs()
        }
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// Quartiles of a non-empty sample. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    // Exclusive method: the i-th of 4 cut points sits at rank i·(n+1)/4,
    // clamped into the sample and interpolated linearly.
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 4.0, 6.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = quartiles(&[20.0, 10.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
    }

    #[test]
    fn spread_is_relative_to_the_median() {
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(q.spread(), 1.0);
        assert_eq!(quartiles(&[0.0, 0.0, 0.0]).spread(), 0.0);
        assert_eq!(quartiles(&[5.0]).spread(), 0.0);
    }
}
