//! Splitting the renewable output `R_i(t)` (paper Eq. (3), plus
//! curtailment — see DESIGN.md "Substitutions").

use greencell_units::Energy;
use std::error::Error;
use std::fmt;

const EPS_JOULES: f64 = 1e-6;
/// Relative balance slack: four units of round-off of the output. It
/// exceeds [`EPS_JOULES`] only above about 10⁹ J, where a kWh round trip
/// of the components alone can miss the output by more than a micro-joule.
const ULPS: f64 = 4.0 * f64::EPSILON;

/// Error constructing an inconsistent [`RenewableSplit`].
#[derive(Debug, Clone, PartialEq)]
pub enum RenewableSplitError {
    /// A component was negative.
    NegativeComponent,
    /// The components do not add up to the slot's renewable output.
    Unbalanced {
        /// The output `R_i(t)` the split was supposed to partition.
        output: Energy,
        /// Sum of the supplied components.
        assigned: Energy,
    },
}

impl fmt::Display for RenewableSplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NegativeComponent => write!(f, "renewable split components must be non-negative"),
            Self::Unbalanced { output, assigned } => {
                write!(f, "renewable split assigns {assigned} of output {output}")
            }
        }
    }
}

impl Error for RenewableSplitError {}

/// One slot's disposition of a node's renewable output:
/// `R_i(t) = r_i(t) + c^r_i(t) + waste_i(t)`.
///
/// The paper's Eq. (3) has no waste term; we add explicit curtailment so
/// the model stays feasible when the battery is full and demand is below
/// the output (a physical system spills that energy). The paper's equality
/// is the special case `curtailed == 0`.
///
/// # Examples
///
/// ```
/// use greencell_energy::RenewableSplit;
/// use greencell_units::Energy;
///
/// let split = RenewableSplit::new(
///     Energy::from_joules(10.0), // R_i(t)
///     Energy::from_joules(6.0),  // r_i: serve demand
///     Energy::from_joules(4.0),  // c^r_i: charge battery
///     Energy::ZERO,              // curtailed
/// )?;
/// assert_eq!(split.to_demand().as_joules(), 6.0);
/// # Ok::<(), greencell_energy::RenewableSplitError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RenewableSplit {
    to_demand: Energy,
    to_battery: Energy,
    curtailed: Energy,
}

impl RenewableSplit {
    /// Creates a validated split of `output` into demand service `r_i`,
    /// battery charge `c^r_i`, and curtailment.
    ///
    /// # Errors
    ///
    /// * [`RenewableSplitError::NegativeComponent`] — any component < 0;
    /// * [`RenewableSplitError::Unbalanced`] — components do not sum to
    ///   `output` (within a micro-joule, or four units of round-off of
    ///   `output` where that is larger).
    pub fn new(
        output: Energy,
        to_demand: Energy,
        to_battery: Energy,
        curtailed: Energy,
    ) -> Result<Self, RenewableSplitError> {
        if !to_demand.is_non_negative()
            || !to_battery.is_non_negative()
            || !curtailed.is_non_negative()
        {
            return Err(RenewableSplitError::NegativeComponent);
        }
        let assigned = to_demand + to_battery + curtailed;
        let slack = EPS_JOULES.max(ULPS * output.as_joules().abs());
        if (assigned.as_joules() - output.as_joules()).abs() > slack {
            return Err(RenewableSplitError::Unbalanced { output, assigned });
        }
        Ok(Self {
            to_demand,
            to_battery,
            curtailed,
        })
    }

    /// Energy serving demand directly, `r_i(t)`.
    #[must_use]
    pub fn to_demand(&self) -> Energy {
        self.to_demand
    }

    /// Energy charging the battery, `c^r_i(t)`.
    #[must_use]
    pub fn to_battery(&self) -> Energy {
        self.to_battery
    }

    /// Energy spilled.
    #[must_use]
    pub fn curtailed(&self) -> Energy {
        self.curtailed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(x: f64) -> Energy {
        Energy::from_joules(x)
    }

    #[test]
    fn balanced_split_accepted() {
        let s = RenewableSplit::new(j(10.0), j(3.0), j(5.0), j(2.0)).unwrap();
        assert_eq!(s.to_demand(), j(3.0));
        assert_eq!(s.to_battery(), j(5.0));
        assert_eq!(s.curtailed(), j(2.0));
    }

    #[test]
    fn unbalanced_split_rejected() {
        assert!(matches!(
            RenewableSplit::new(j(10.0), j(3.0), j(5.0), j(0.0)),
            Err(RenewableSplitError::Unbalanced { .. })
        ));
    }

    /// Above about 10⁹ J the slack is relative: a 6·10³¹ J output whose
    /// components lose an ulp in a kWh round trip still balances, while a
    /// miss of 10⁻⁹ of the output is still rejected. At 1 kJ the slack is
    /// the micro-joule it always was.
    #[test]
    fn balance_slack_is_relative_for_huge_outputs() {
        let output = j(6e31);
        let kwh = Energy::from_kilowatt_hours;
        let round_trip = kwh(output.as_kilowatt_hours());
        assert_ne!(round_trip, output);
        assert!(RenewableSplit::new(output, round_trip, Energy::ZERO, Energy::ZERO).is_ok());
        assert!(matches!(
            RenewableSplit::new(output, j(6e31 * (1.0 - 1e-9)), Energy::ZERO, Energy::ZERO),
            Err(RenewableSplitError::Unbalanced { .. })
        ));
        assert!(RenewableSplit::new(j(1e3), j(1e3 - 0.9e-6), j(0.0), j(0.0)).is_ok());
        assert!(RenewableSplit::new(j(1e3), j(1e3 - 1.1e-6), j(0.0), j(0.0)).is_err());
    }

    #[test]
    fn negative_component_rejected() {
        assert_eq!(
            RenewableSplit::new(j(1.0), j(-1.0), j(2.0), j(0.0)),
            Err(RenewableSplitError::NegativeComponent)
        );
    }

    #[test]
    fn paper_equality_is_the_zero_curtailment_case() {
        // Eq. (3): R = c^r + r exactly.
        let s = RenewableSplit::new(j(4.0), j(1.5), j(2.5), Energy::ZERO).unwrap();
        assert_eq!(s.curtailed(), Energy::ZERO);
    }
}
