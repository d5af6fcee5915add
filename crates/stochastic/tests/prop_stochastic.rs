//! Property tests for the stochastic substrate: statistical estimators
//! match naive computations, and the RNG utilities respect their contracts.

use greencell_stochastic::{Poisson, Rng, RunningMean, Series, TimeAverage};
use proptest::prelude::*;

proptest! {
    /// Welford's algorithm agrees with the two-pass formulas.
    #[test]
    fn running_mean_matches_naive(data in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut rm = RunningMean::new();
        for &x in &data {
            rm.record(x);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let scale = 1.0 + mean.abs() + var.abs();
        prop_assert!((rm.mean() - mean).abs() / scale < 1e-9);
        prop_assert!((rm.variance() - var).abs() / scale.powi(2).max(scale) < 1e-6);
    }

    /// TimeAverage is an exact running sum.
    #[test]
    fn time_average_exact(data in prop::collection::vec(-1e3f64..1e3, 1..200)) {
        let mut ta = TimeAverage::new();
        for &x in &data {
            ta.record(x);
        }
        let expected = data.iter().sum::<f64>() / data.len() as f64;
        prop_assert!((ta.mean() - expected).abs() < 1e-9);
        prop_assert_eq!(ta.count(), data.len() as u64);
    }

    /// Series statistics agree with direct slice computations.
    #[test]
    fn series_statistics(data in prop::collection::vec(-1e3f64..1e3, 1..100)) {
        let s: Series = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-9);
        prop_assert_eq!(s.max(), data.iter().copied().reduce(f64::max));
        prop_assert_eq!(s.last(), data.last().copied());
    }

    /// `Rng::below(n)` is always `< n`, and `range_f64` stays in range.
    #[test]
    fn rng_ranges(seed in any::<u64>(), n in 1u64..1_000_000, lo in -1e6f64..1e6, width in 0.0f64..1e6) {
        let mut rng = Rng::seed_from(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(n) < n);
            let x = rng.range_f64(lo, lo + width);
            prop_assert!(x >= lo && x <= lo + width);
        }
    }

    /// Shuffling preserves multisets for arbitrary contents.
    #[test]
    fn shuffle_preserves_elements(seed in any::<u64>(), mut data in prop::collection::vec(any::<i32>(), 0..50)) {
        let mut sorted_before = data.clone();
        sorted_before.sort_unstable();
        Rng::seed_from(seed).shuffle(&mut data);
        data.sort_unstable();
        prop_assert_eq!(data, sorted_before);
    }

    /// Poisson samples are reproducible per seed and have plausible scale.
    #[test]
    fn poisson_reproducible(seed in any::<u64>(), mean in 0.0f64..200.0) {
        let dist = Poisson::new(mean).unwrap();
        let a = dist.sample(&mut Rng::seed_from(seed));
        let b = dist.sample(&mut Rng::seed_from(seed));
        prop_assert_eq!(a, b);
        // 10-sigma guard band.
        prop_assert!((a as f64) <= mean + 10.0 * mean.sqrt() + 10.0);
    }
}
