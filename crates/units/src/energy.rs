//! Amounts of energy (battery levels, per-slot demand, grid draws).

/// An amount of energy, stored internally in joules.
///
/// Battery capacities and charge/discharge limits in the paper are given in
/// kilowatt-hours ([`Energy::from_kilowatt_hours`]); the Fig. 2(e) plot uses
/// watt-hours ([`Energy::as_watt_hours`]). Everything internal is joules.
///
/// # Examples
///
/// ```
/// use greencell_units::Energy;
///
/// let battery = Energy::from_kilowatt_hours(0.1);
/// assert_eq!(battery.as_watt_hours(), 100.0);
/// assert_eq!(battery.as_joules(), 360_000.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Energy(pub(crate) f64);

const JOULES_PER_WATT_HOUR: f64 = 3600.0;

impl Energy {
    /// Creates an energy amount from joules.
    #[must_use]
    pub fn from_joules(joules: f64) -> Self {
        Self(joules)
    }

    /// Creates an energy amount from kilowatt-hours.
    #[must_use]
    pub fn from_kilowatt_hours(kwh: f64) -> Self {
        Self(kwh * 1e3 * JOULES_PER_WATT_HOUR)
    }

    /// This amount in joules.
    #[must_use]
    pub fn as_joules(self) -> f64 {
        self.0
    }

    /// This amount in watt-hours.
    #[must_use]
    pub fn as_watt_hours(self) -> f64 {
        self.0 / JOULES_PER_WATT_HOUR
    }

    /// This amount in kilowatt-hours.
    #[must_use]
    pub fn as_kilowatt_hours(self) -> f64 {
        self.0 / (1e3 * JOULES_PER_WATT_HOUR)
    }

    /// `true` if the amount is ≥ 0 (physical energy stocks are non-negative).
    #[must_use]
    pub fn is_non_negative(self) -> bool {
        self.0 >= 0.0
    }
}

impl_scalar_quantity!(Energy, f64);

impl core::fmt::Display for Energy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} J", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let e = Energy::from_kilowatt_hours(0.06);
        assert!((e.as_watt_hours() - 60.0).abs() < 1e-9);
        assert!((e.as_joules() - 216_000.0).abs() < 1e-6);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Energy::from_joules(3.0);
        let b = Energy::from_joules(1.5);
        assert_eq!((a + b).as_joules(), 4.5);
        assert_eq!((a - b).as_joules(), 1.5);
        assert_eq!((a * 2.0).as_joules(), 6.0);
        assert_eq!((2.0 * a).as_joules(), 6.0);
        assert_eq!((a / 2.0).as_joules(), 1.5);
        assert_eq!(a / b, 2.0);
        assert_eq!((-a).as_joules(), -3.0);
    }

    #[test]
    fn sum_of_iterator() {
        let total: Energy = (1..=4).map(|i| Energy::from_joules(f64::from(i))).sum();
        assert_eq!(total.as_joules(), 10.0);
    }

    #[test]
    fn clamp_and_minmax() {
        let lo = Energy::from_joules(0.0);
        let hi = Energy::from_joules(10.0);
        assert_eq!(Energy::from_joules(-3.0).clamp(lo, hi), lo);
        assert_eq!(Energy::from_joules(30.0).clamp(lo, hi), hi);
        assert_eq!(lo.max(hi), hi);
        assert_eq!(lo.min(hi), lo);
    }
}
