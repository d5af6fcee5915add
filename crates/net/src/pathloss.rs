//! The power-propagation-gain model `g_ij = C · d(i, j)^{-γ}` (paper §II-B).

use greencell_units::Distance;

/// Log-distance path-loss model with antenna constant `C` and exponent `γ`.
///
/// The paper's evaluation uses `C = 62.5` and `γ = 4` (a heavily shadowed
/// urban environment). The gain is dimensionless: received power is
/// `g_ij · P_tx`.
///
/// # Examples
///
/// ```
/// use greencell_net::PathLossModel;
/// use greencell_units::Distance;
///
/// let pl = PathLossModel::new(62.5, 4.0);
/// let g = pl.gain(Distance::from_meters(100.0));
/// assert!((g - 62.5e-8).abs() < 1e-18);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossModel {
    c: f64,
    gamma: f64,
}

impl PathLossModel {
    /// Creates a path-loss model from antenna constant `c` and exponent
    /// `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `c <= 0` or `gamma < 0`: a non-positive antenna constant or
    /// a gain that *grows* with distance is physically meaningless.
    #[must_use]
    pub fn new(c: f64, gamma: f64) -> Self {
        assert!(c > 0.0, "antenna constant must be positive, got {c}");
        assert!(
            gamma >= 0.0,
            "path-loss exponent must be non-negative, got {gamma}"
        );
        Self { c, gamma }
    }

    /// The propagation gain `g = C · d^{-γ}` over distance `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not strictly positive (far-field model).
    #[must_use]
    pub fn gain(&self, d: Distance) -> f64 {
        self.c * d.powi_neg(self.gamma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_give_expected_gain() {
        // C = 62.5, γ = 4, d = 1000 m ⇒ g = 62.5e-12.
        let pl = PathLossModel::new(62.5, 4.0);
        let g = pl.gain(Distance::from_meters(1000.0));
        assert!((g - 62.5e-12).abs() < 1e-22);
    }

    #[test]
    fn gain_decreases_with_distance() {
        let pl = PathLossModel::new(62.5, 4.0);
        let g1 = pl.gain(Distance::from_meters(100.0));
        let g2 = pl.gain(Distance::from_meters(200.0));
        assert!(g1 > g2);
        // γ = 4: doubling distance costs 16×.
        assert!((g1 / g2 - 16.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_constant() {
        let _ = PathLossModel::new(0.0, 4.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_exponent() {
        let _ = PathLossModel::new(62.5, -1.0);
    }
}
