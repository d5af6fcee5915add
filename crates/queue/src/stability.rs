//! Finite-horizon estimators for Definition 2's stability notions.

use greencell_stochastic::Series;

/// Estimates rate and strong stability of a scalar queue process from a
/// finite sample path.
///
/// Definition 2 of the paper:
///
/// * *rate stable*: `Q(t)/t → 0` with probability 1;
/// * *strongly stable*: `limsup (1/T) Σ E|Q(t)| < ∞`.
///
/// On a finite horizon we report the corresponding sample statistics — the
/// terminal ratio `Q(T)/T` and the running average backlog — plus a
/// saturation check: a strongly stable queue's running average must flatten
/// rather than keep climbing, which [`StabilityEstimator::is_saturating`]
/// tests by comparing the average over the last quarter of the horizon with
/// the average over the preceding quarter.
///
/// # Examples
///
/// ```
/// use greencell_queue::StabilityEstimator;
///
/// let mut est = StabilityEstimator::new();
/// for t in 0..1000u32 {
///     est.record(f64::from(t % 7)); // bounded, cycling backlog
/// }
/// assert!(est.terminal_ratio() < 0.01);
/// assert!(est.is_saturating(0.1));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StabilityEstimator {
    backlog: Series,
}

impl StabilityEstimator {
    /// Creates an empty estimator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `|Q(t)|` for the next slot.
    pub fn record(&mut self, backlog: f64) {
        self.backlog.push(backlog.abs());
    }

    /// The running average `(1/T) Σ |Q(t)|` — the strong-stability
    /// statistic.
    #[must_use]
    pub fn average_backlog(&self) -> f64 {
        self.backlog.mean()
    }

    /// The terminal ratio `Q(T−1)/T` — the rate-stability statistic;
    /// `0.0` before any observation.
    #[must_use]
    pub fn terminal_ratio(&self) -> f64 {
        match self.backlog.last() {
            None => 0.0,
            Some(last) => last / self.backlog.len() as f64,
        }
    }

    /// Largest observed backlog; `0.0` when empty.
    #[must_use]
    pub fn peak_backlog(&self) -> f64 {
        self.backlog.max().unwrap_or(0.0)
    }

    /// `true` if the mean backlog over the final quarter of the horizon
    /// exceeds the mean over the third quarter by at most a factor of
    /// `1 + tolerance` — i.e. the trajectory has flattened out rather than
    /// diverging. Requires at least 8 slots.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is negative.
    #[must_use]
    pub fn is_saturating(&self, tolerance: f64) -> bool {
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        let t = self.backlog.len();
        if t < 8 {
            return false;
        }
        let values = self.backlog.values();
        let q3: f64 = values[t / 2..3 * t / 4].iter().sum::<f64>() / (3 * t / 4 - t / 2) as f64;
        let q4: f64 = values[3 * t / 4..].iter().sum::<f64>() / (t - 3 * t / 4) as f64;
        if q3 <= f64::EPSILON {
            // Empty in the third quarter: stable iff still (nearly) empty.
            return q4 <= f64::EPSILON.max(tolerance);
        }
        q4 <= q3 * (1.0 + tolerance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_is_stable() {
        let mut est = StabilityEstimator::new();
        for t in 0..1000u32 {
            est.record(f64::from(t % 10));
        }
        assert!(est.terminal_ratio() < 0.01);
        assert!(est.is_saturating(0.05));
        assert_eq!(est.peak_backlog(), 9.0);
        assert!((est.average_backlog() - 4.5).abs() < 0.01);
    }

    #[test]
    fn linearly_growing_queue_is_unstable() {
        let mut est = StabilityEstimator::new();
        for t in 0..1000u32 {
            est.record(f64::from(t));
        }
        // Q(T)/T ≈ 1, and the last quarter clearly exceeds the third.
        assert!(est.terminal_ratio() > 0.9);
        assert!(!est.is_saturating(0.1));
    }

    #[test]
    fn empty_queue_is_stable() {
        let mut est = StabilityEstimator::new();
        for _ in 0..100 {
            est.record(0.0);
        }
        assert!(est.is_saturating(0.0));
        assert_eq!(est.average_backlog(), 0.0);
    }

    #[test]
    fn short_horizon_is_inconclusive() {
        let mut est = StabilityEstimator::new();
        for _ in 0..7 {
            est.record(0.0);
        }
        assert!(!est.is_saturating(1.0));
    }
}
