//! Durations (slot length Δt and simulation horizons).

/// A span of simulated time, stored internally in seconds.
///
/// The paper's time slots are one minute long ([`TimeDelta::from_minutes`]);
/// all rate×time products happen in seconds.
///
/// # Examples
///
/// ```
/// use greencell_units::TimeDelta;
///
/// let slot = TimeDelta::from_minutes(1.0);
/// assert_eq!(slot.as_seconds(), 60.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct TimeDelta(pub(crate) f64);

impl TimeDelta {
    /// Creates a duration from minutes.
    #[must_use]
    pub fn from_minutes(minutes: f64) -> Self {
        Self(minutes * 60.0)
    }

    /// This duration in seconds.
    #[must_use]
    pub fn as_seconds(self) -> f64 {
        self.0
    }
}

impl_scalar_quantity!(TimeDelta, f64);

impl core::fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(TimeDelta::from_minutes(2.0).as_seconds(), 120.0);
    }

    #[test]
    fn arithmetic() {
        let a = TimeDelta::from_minutes(10.0);
        let b = TimeDelta::from_minutes(5.0);
        assert_eq!((a + b).as_seconds(), 900.0);
        assert_eq!(a / b, 2.0);
    }
}
