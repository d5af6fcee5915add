//! Running statistics for estimating the paper's time averages.
//!
//! Definition 1 of the paper defines the time average
//! `ā = lim (1/T) Σ E[a(t)]`; on a finite simulated horizon we estimate it
//! with [`TimeAverage`]. [`RunningMean`] adds Welford variance for
//! confidence reporting, and [`Series`] stores whole trajectories for the
//! Fig. 2(b)–(e) plots.

use std::fmt;

/// Plain time average `(1/T) Σ x_t` with an exact running sum.
///
/// # Examples
///
/// ```
/// use greencell_stochastic::TimeAverage;
///
/// let mut avg = TimeAverage::new();
/// for x in [1.0, 2.0, 3.0] {
///     avg.record(x);
/// }
/// assert_eq!(avg.mean(), 2.0);
/// assert_eq!(avg.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeAverage {
    sum: f64,
    count: u64,
}

impl TimeAverage {
    /// Creates an empty average.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds an average from a captured `(sum, count)` pair — the
    /// inverse of reading [`TimeAverage::sum`] and [`TimeAverage::count`],
    /// used to restore running estimates from a snapshot.
    #[must_use]
    pub fn from_parts(sum: f64, count: u64) -> Self {
        Self { sum, count }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.sum += x;
        self.count += 1;
    }

    /// The running sum `Σ x_t`.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of recorded observations `T`.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The mean `(1/T) Σ x_t`; `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Welford running mean and variance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMean {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningMean {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// The mean; `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; `0.0` with fewer than two observations.
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Jain's fairness index `(Σx)² / (n·Σx²)` over non-negative allocations:
/// `1.0` for perfectly equal shares, `1/n` when one participant takes
/// everything; `1.0` for empty or all-zero input by convention.
///
/// # Examples
///
/// ```
/// use greencell_stochastic::jain_fairness;
///
/// assert_eq!(jain_fairness(&[5.0, 5.0, 5.0]), 1.0);
/// assert!((jain_fairness(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
/// ```
///
/// # Panics
///
/// Panics if any value is negative.
#[must_use]
pub fn jain_fairness(values: &[f64]) -> f64 {
    assert!(
        values.iter().all(|&x| x >= 0.0),
        "fairness is defined over non-negative allocations"
    );
    let sum: f64 = values.iter().sum();
    if values.is_empty() || sum <= 0.0 {
        return 1.0;
    }
    let sum_sq: f64 = values.iter().map(|x| x * x).sum();
    sum * sum / (values.len() as f64 * sum_sq)
}

/// A stored trajectory `x_0, x_1, …` (one value per slot).
///
/// Backs the over-time plots of Fig. 2(b)–(e); keeps both the raw series
/// and summary statistics. A running sum makes [`Series::mean`] O(1): it
/// adds the values left to right from `-0.0`, the order and start of
/// `iter().sum::<f64>()`, so the mean is bit-identical to summing the
/// stored values.
#[derive(Clone, PartialEq)]
pub struct Series {
    values: Vec<f64>,
    sum: f64,
}

/// The stored values only: the sum follows from them, and `Debug`
/// fingerprints of recorded runs hash this form.
impl fmt::Debug for Series {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Series")
            .field("values", &self.values)
            .finish()
    }
}

impl Default for Series {
    fn default() -> Self {
        Self {
            values: Vec::new(),
            sum: -0.0,
        }
    }
}

impl Series {
    /// Appends the next slot's value.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.sum += x;
    }

    /// The stored values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of slots recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Mean over the whole series; `0.0` when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.sum / self.values.len() as f64
        }
    }

    /// Largest value; `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        self.values
            .iter()
            .copied()
            .fold(None, |acc, x| Some(acc.map_or(x, |m: f64| m.max(x))))
    }

    /// Last value; `None` when empty.
    #[must_use]
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }
}

impl FromIterator<f64> for Series {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let values: Vec<f64> = iter.into_iter().collect();
        let sum = values.iter().sum();
        Self { values, sum }
    }
}

impl Extend<f64> for Series {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        let start = self.values.len();
        self.values.extend(iter);
        for &x in &self.values[start..] {
            self.sum += x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_average_empty_is_zero() {
        assert_eq!(TimeAverage::new().mean(), 0.0);
    }

    #[test]
    fn time_average_from_parts_roundtrips() {
        let mut avg = TimeAverage::new();
        for x in [0.5, 1.25, -3.0] {
            avg.record(x);
        }
        let rebuilt = TimeAverage::from_parts(avg.sum(), avg.count());
        assert_eq!(rebuilt, avg);
    }

    #[test]
    fn running_mean_matches_direct_computation() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rm = RunningMean::new();
        for &x in &data {
            rm.record(x);
        }
        assert!((rm.mean() - 5.0).abs() < 1e-12);
        assert!((rm.variance() - 4.0).abs() < 1e-12);
        assert!((rm.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn series_statistics() {
        let s: Series = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.len(), 4);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.max(), Some(4.0));
        assert_eq!(s.last(), Some(4.0));
        assert_eq!(s.values()[1], 2.0);
    }

    #[test]
    fn jain_extremes() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert_eq!(jain_fairness(&[7.0, 7.0, 7.0, 7.0]), 1.0);
        assert!((jain_fairness(&[10.0, 0.0]) - 0.5).abs() < 1e-12);
        // Monotone in equalization.
        assert!(jain_fairness(&[6.0, 4.0]) > jain_fairness(&[9.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn jain_rejects_negative() {
        let _ = jain_fairness(&[-1.0]);
    }

    /// The running sum is the left-to-right fold `iter().sum()` computes,
    /// bit for bit: the empty series, signed zeros, cancellation and
    /// values whose sum depends on the order of the additions.
    #[test]
    fn series_mean_is_bit_identical_to_the_fold() {
        let fold_mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let cases: [&[f64]; 6] = [
            &[],
            &[-0.0],
            &[-0.0, -0.0, -0.0],
            &[0.0, -0.0],
            &[1e16, 1.0, -1e16, 1.0, 0.1, 0.2, 0.3],
            &[0.1; 37],
        ];
        let mut rng = crate::Rng::seed_from(9);
        let random: Vec<f64> = (0..2_000)
            .map(|_| (rng.next_f64() - 0.5) * 10f64.powi((rng.next_f64() * 12.0) as i32))
            .collect();
        for v in cases.into_iter().chain([random.as_slice()]) {
            let mut pushed = Series::default();
            for &x in v {
                pushed.push(x);
                let now = pushed.values();
                assert_eq!(pushed.mean().to_bits(), fold_mean(now).to_bits(), "{now:?}");
            }
            let collected: Series = v.iter().copied().collect();
            let mut extended = Series::default();
            extended.extend(v.iter().copied());
            for s in [&pushed, &collected, &extended] {
                assert_eq!(s.values(), v);
                assert_eq!(s.mean().to_bits(), fold_mean(v).to_bits(), "{v:?}");
                assert_eq!(s.sum.to_bits(), v.iter().sum::<f64>().to_bits(), "{v:?}");
            }
        }
    }

    #[test]
    fn series_extend() {
        let mut s = Series::default();
        s.extend([1.0, 2.0]);
        assert_eq!(s.values(), &[1.0, 2.0]);
        // Recorded run fingerprints hash this form: the sum stays out.
        assert_eq!(format!("{s:?}"), "Series { values: [1.0, 2.0] }");
    }
}
