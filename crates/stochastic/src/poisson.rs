//! Poisson-distributed counts, for bursty-arrival extensions.
//!
//! The paper's evaluation uses a constant per-slot demand; real session
//! traffic is bursty. [`Poisson`] provides integer counts with a given
//! mean so the simulator can drive `v_s(t)` (and admissions) with random
//! arrivals while preserving the paper's average load.

use crate::{DistributionError, Rng};

/// Poisson distribution with mean `λ`.
///
/// Sampling uses Knuth's product-of-uniforms method for small means and a
/// clamped normal approximation (Box–Muller) for `λ > 30`, where the
/// relative error of the approximation is far below the simulation noise
/// floor.
///
/// # Examples
///
/// ```
/// use greencell_stochastic::{Poisson, Rng};
///
/// let arrivals = Poisson::new(600.0)?;
/// let mut rng = Rng::seed_from(1);
/// let v_t = arrivals.sample(&mut rng);
/// assert!(v_t < 2000); // far tail
/// # Ok::<(), greencell_stochastic::DistributionError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    mean: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with the given mean.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::InvalidInterval`] if `mean` is negative
    /// or not finite.
    pub fn new(mean: f64) -> Result<Self, DistributionError> {
        if !(mean.is_finite() && mean >= 0.0) {
            return Err(DistributionError::InvalidInterval { lo: 0.0, hi: mean });
        }
        Ok(Self { mean })
    }

    /// Draws one count.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.mean == 0.0 {
            return 0;
        }
        if self.mean <= 30.0 {
            // Knuth: count uniforms until their product drops below e^{−λ}.
            let limit = (-self.mean).exp();
            let mut k = 0u64;
            let mut product = 1.0;
            loop {
                product *= rng.next_f64();
                if product <= limit {
                    return k;
                }
                k += 1;
            }
        } else {
            // Normal approximation N(λ, λ) via Box–Muller, clamped at 0.
            let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
            let u2 = rng.next_f64();
            let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let value = self.mean + self.mean.sqrt() * normal;
            value.round().max(0.0) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(mean: f64, n: u32) -> (f64, f64) {
        let dist = Poisson::new(mean).unwrap();
        let mut rng = Rng::seed_from(42);
        let samples: Vec<u64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let m = samples.iter().sum::<u64>() as f64 / f64::from(n);
        let var = samples.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / f64::from(n);
        (m, var)
    }

    #[test]
    fn zero_mean_is_zero() {
        let d = Poisson::new(0.0).unwrap();
        assert_eq!(d.sample(&mut Rng::seed_from(1)), 0);
    }

    #[test]
    fn small_mean_statistics() {
        let (m, var) = sample_stats(4.0, 50_000);
        assert!((m - 4.0).abs() < 0.1, "mean {m}");
        assert!((var - 4.0).abs() < 0.3, "variance {var}");
    }

    #[test]
    fn large_mean_statistics() {
        let (m, var) = sample_stats(600.0, 50_000);
        assert!((m - 600.0).abs() < 1.0, "mean {m}");
        assert!((var / 600.0 - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn boundary_mean_uses_knuth() {
        let (m, _) = sample_stats(30.0, 50_000);
        assert!((m - 30.0).abs() < 0.3);
    }

    #[test]
    fn rejects_negative_mean() {
        assert!(Poisson::new(-1.0).is_err());
        assert!(Poisson::new(f64::NAN).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = Poisson::new(-1.0).unwrap_err();
        assert!(e.to_string().contains("invalid interval"));
    }
}
