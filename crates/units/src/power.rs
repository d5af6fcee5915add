//! Instantaneous power (transmit powers, renewable outputs, noise power).

use crate::{Energy, TimeDelta};

/// Instantaneous power in watts.
///
/// Transmit powers (`P^m_ij`), renewable outputs (`R_i(t)`), and receive
/// power (`P^recv_i`) in the paper are all watts; multiplying by the slot
/// duration Δt yields the per-slot [`Energy`] the queues and batteries track.
///
/// # Examples
///
/// ```
/// use greencell_units::{Power, TimeDelta};
///
/// let p = Power::from_watts(1.0);
/// let e = p * TimeDelta::from_minutes(1.0);
/// assert_eq!(e.as_joules(), 60.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
pub struct Power(pub(crate) f64);

impl Power {
    /// Creates a power from watts.
    #[must_use]
    pub fn from_watts(watts: f64) -> Self {
        Self(watts)
    }

    /// Creates a power from milliwatts.
    #[must_use]
    pub fn from_milliwatts(mw: f64) -> Self {
        Self(mw * 1e-3)
    }

    /// This power in watts.
    #[must_use]
    pub fn as_watts(self) -> f64 {
        self.0
    }
}

impl_scalar_quantity!(Power, f64);

/// `Power × TimeDelta = Energy`.
impl core::ops::Mul<TimeDelta> for Power {
    type Output = Energy;
    fn mul(self, rhs: TimeDelta) -> Energy {
        Energy::from_joules(self.0 * rhs.as_seconds())
    }
}

/// `TimeDelta × Power = Energy`.
impl core::ops::Mul<Power> for TimeDelta {
    type Output = Energy;
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

impl core::fmt::Display for Power {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} W", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watt_milliwatt_round_trip() {
        let p = Power::from_milliwatts(250.0);
        assert!((p.as_watts() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn power_times_time_is_energy() {
        let e = Power::from_watts(20.0) * TimeDelta::from_minutes(1.0);
        assert_eq!(e.as_joules(), 1200.0);
        let e2 = TimeDelta::from_minutes(1.0) * Power::from_watts(20.0);
        assert_eq!(e, e2);
    }

    #[test]
    fn ordering() {
        assert!(Power::from_watts(1.0) < Power::from_watts(20.0));
        assert_eq!(Power::ZERO.max(Power::from_watts(2.0)).as_watts(), 2.0);
    }
}
