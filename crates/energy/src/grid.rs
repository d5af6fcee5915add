//! Power-grid connections and per-slot draws (paper Eqs. (5), (6), (14)).

use greencell_units::Energy;
use std::error::Error;
use std::fmt;

const EPS_JOULES: f64 = 1e-6;

/// Error validating a grid draw against a [`GridConnection`].
#[derive(Debug, Clone, PartialEq)]
pub enum GridError {
    /// Energy drawn while disconnected (`ω_i(t) = 0`).
    Disconnected,
    /// Total draw exceeds the connection limit `p^max_i` (14).
    ExceedsLimit {
        /// Requested total draw `g_i + c^g_i`.
        requested: Energy,
        /// The connection's `p^max_i`.
        limit: Energy,
    },
    /// A negative amount was supplied.
    NegativeAmount,
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Disconnected => write!(f, "node is not connected to the grid this slot"),
            Self::ExceedsLimit { requested, limit } => {
                write!(f, "grid draw {requested} exceeds connection limit {limit}")
            }
            Self::NegativeAmount => write!(f, "grid draws must be non-negative"),
        }
    }
}

impl Error for GridError {}

/// One slot's grid connectivity of a node: the indicator `ω_i(t)` of
/// Eq. (6) plus the physical draw limit `p^max_i` of Eq. (14).
///
/// Base stations construct this with `connected = true` every slot; mobile
/// users sample `ξ_i(t)` and may be offline.
///
/// # Examples
///
/// ```
/// use greencell_energy::GridConnection;
/// use greencell_units::Energy;
///
/// let grid = GridConnection::new(true, Energy::from_kilowatt_hours(0.2));
/// grid.check_draw(Energy::from_kilowatt_hours(0.15))?;
/// assert!(grid.check_draw(Energy::from_kilowatt_hours(0.25)).is_err());
/// # Ok::<(), greencell_energy::GridError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridConnection {
    connected: bool,
    draw_limit: Energy,
}

impl GridConnection {
    /// Creates a connection state for one slot.
    ///
    /// # Panics
    ///
    /// Panics if `draw_limit < 0`.
    #[must_use]
    pub fn new(connected: bool, draw_limit: Energy) -> Self {
        assert!(
            draw_limit.is_non_negative(),
            "grid draw limit must be non-negative"
        );
        Self {
            connected,
            draw_limit,
        }
    }

    /// Validates a total draw `p_i(t) = g_i(t) + c^g_i(t)` against
    /// Eq. (14).
    ///
    /// # Errors
    ///
    /// * [`GridError::NegativeAmount`] — `total < 0`;
    /// * [`GridError::Disconnected`] — positive draw while offline;
    /// * [`GridError::ExceedsLimit`] — draw above `p^max_i`.
    pub fn check_draw(&self, total: Energy) -> Result<(), GridError> {
        if !total.is_non_negative() {
            return Err(GridError::NegativeAmount);
        }
        if total.as_joules() <= EPS_JOULES {
            return Ok(());
        }
        if !self.connected {
            return Err(GridError::Disconnected);
        }
        if total.as_joules() > self.draw_limit.as_joules() + EPS_JOULES {
            return Err(GridError::ExceedsLimit {
                requested: total,
                limit: self.draw_limit,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kwh(x: f64) -> Energy {
        Energy::from_kilowatt_hours(x)
    }

    #[test]
    fn connected_draw_within_limit_ok() {
        let g = GridConnection::new(true, kwh(0.2));
        assert!(g.check_draw(kwh(0.2)).is_ok());
        assert!(g.check_draw(Energy::ZERO).is_ok());
    }

    #[test]
    fn over_limit_rejected() {
        let g = GridConnection::new(true, kwh(0.2));
        assert!(matches!(
            g.check_draw(kwh(0.21)),
            Err(GridError::ExceedsLimit { .. })
        ));
    }

    #[test]
    fn disconnected_rejects_positive_draw() {
        let g = GridConnection::new(false, kwh(0.2));
        assert_eq!(g.check_draw(kwh(0.01)), Err(GridError::Disconnected));
        assert!(g.check_draw(Energy::ZERO).is_ok());
    }

    #[test]
    fn negative_rejected() {
        let g = GridConnection::new(true, kwh(0.2));
        assert_eq!(
            g.check_draw(Energy::from_joules(-1.0)),
            Err(GridError::NegativeAmount)
        );
    }

    #[test]
    fn error_display() {
        assert!(GridError::Disconnected
            .to_string()
            .contains("not connected"));
    }
}
