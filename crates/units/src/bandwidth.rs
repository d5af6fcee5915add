//! Spectrum bandwidths (the random processes `W_m(t)`).

use crate::{DataRate, TimeDelta};

/// A channel bandwidth in hertz.
///
/// Band bandwidths in the paper are megahertz-scale i.i.d. processes; a
/// successful transmission at SINR threshold `Γ` carries
/// `W · log2(1 + Γ)` bits per second ([`Bandwidth::shannon_rate`]).
///
/// # Examples
///
/// ```
/// use greencell_units::Bandwidth;
///
/// let w = Bandwidth::from_megahertz(1.0);
/// // Γ = 1 ⇒ log2(2) = 1 bit/s/Hz.
/// assert_eq!(w.shannon_rate(1.0).as_bits_per_second(), 1e6);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Bandwidth(pub(crate) f64);

impl Bandwidth {
    /// Creates a bandwidth from megahertz.
    #[must_use]
    pub fn from_megahertz(mhz: f64) -> Self {
        Self(mhz * 1e6)
    }

    /// This bandwidth in hertz.
    #[must_use]
    pub fn as_hertz(self) -> f64 {
        self.0
    }

    /// The link rate `W · log2(1 + snr_threshold)` of Eq. (1).
    ///
    /// The paper fixes the modulation at the SINR threshold `Γ`, so capacity
    /// does not grow with the achieved SINR, only with bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `snr_threshold < 0`.
    #[must_use]
    pub fn shannon_rate(self, snr_threshold: f64) -> DataRate {
        assert!(
            snr_threshold >= 0.0,
            "SINR threshold must be non-negative, got {snr_threshold}"
        );
        DataRate::from_bits_per_second(self.0 * (1.0 + snr_threshold).log2())
    }

    /// Noise power in watts for a noise density of `eta` W/Hz over this band.
    #[must_use]
    pub fn noise_power_watts(self, eta: f64) -> f64 {
        eta * self.0
    }
}

impl_scalar_quantity!(Bandwidth, f64);

/// `Bandwidth × TimeDelta` — the time–bandwidth product, in "cycles"
/// (dimensionless). Mostly useful in tests.
impl core::ops::Mul<TimeDelta> for Bandwidth {
    type Output = f64;
    fn mul(self, rhs: TimeDelta) -> f64 {
        self.0 * rhs.as_seconds()
    }
}

impl core::fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} Hz", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Bandwidth::from_megahertz(1.5).as_hertz(), 1.5e6);
    }

    #[test]
    fn shannon_rate_matches_eq_1() {
        // Γ = 3 ⇒ log2(4) = 2 bits/s/Hz.
        let r = Bandwidth::from_megahertz(2.0).shannon_rate(3.0);
        assert!((r.as_bits_per_second() - 4e6).abs() < 1e-6);
    }

    #[test]
    fn noise_power_scales_with_band() {
        let w = Bandwidth::from_megahertz(1.0);
        assert!((w.noise_power_watts(1e-20) - 1e-14).abs() < 1e-30);
    }
}
