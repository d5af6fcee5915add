//! Distances between nodes (propagation-gain inputs).

/// A distance in meters.
///
/// Used by the path-loss model `g_ij = C · d(i,j)^{-γ}`; the paper's
/// deployment area is 2000 m × 2000 m.
///
/// # Examples
///
/// ```
/// use greencell_units::Distance;
///
/// let d = Distance::from_meters(1500.0);
/// assert_eq!(d.as_meters(), 1500.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Distance(pub(crate) f64);

impl Distance {
    /// Creates a distance from meters.
    #[must_use]
    pub fn from_meters(meters: f64) -> Self {
        Self(meters)
    }

    /// This distance in meters.
    #[must_use]
    pub fn as_meters(self) -> f64 {
        self.0
    }

    /// `d^{-γ}` — the path-loss attenuation factor for exponent `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if the distance is not strictly positive: the far-field
    /// path-loss model is undefined at zero range.
    #[must_use]
    pub fn powi_neg(self, gamma: f64) -> f64 {
        assert!(
            self.0 > 0.0,
            "path loss undefined for non-positive distance {self}"
        );
        self.0.powf(-gamma)
    }
}

impl_scalar_quantity!(Distance, f64);

impl core::fmt::Display for Distance {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} m", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attenuation_matches_closed_form() {
        let d = Distance::from_meters(10.0);
        assert!((d.powi_neg(4.0) - 1e-4).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "path loss undefined")]
    fn attenuation_rejects_zero_distance() {
        let _ = Distance::from_meters(0.0).powi_neg(4.0);
    }
}
