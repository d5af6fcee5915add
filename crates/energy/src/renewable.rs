//! Splitting the renewable output `R_i(t)` (paper Eq. (3), plus
//! curtailment — see DESIGN.md "Substitutions").

use greencell_units::Energy;
use std::error::Error;
use std::fmt;

const EPS_JOULES: f64 = 1e-6;

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
#[derive(Debug, Clone, Copy, PartialEq)]
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
    ///   `output` (within a micro-joule).
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
        if (assigned.as_joules() - output.as_joules()).abs() > EPS_JOULES {
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
