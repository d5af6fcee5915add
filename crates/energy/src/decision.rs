//! A node's complete per-slot energy sourcing decision and its validation.

use crate::battery::DECISION_SLACK_JOULES;
use crate::{Battery, BatteryError, GridConnection, GridError, RenewableSplit};
use greencell_units::Energy;
use std::error::Error;
use std::fmt;

/// Error validating an [`EnergyDecision`] against the slot's state.
#[derive(Debug, Clone, PartialEq)]
pub enum EnergyDecisionError {
    /// Supply does not equal the node's demand:
    /// `E_i(t) = ω_i g_i + r_i + d_i` (§II-E).
    Unbalanced {
        /// What the decision supplies toward demand.
        supplied: Energy,
        /// The node's actual demand `E_i(t)`.
        demand: Energy,
    },
    /// The grid draw violates connectivity or the limit (14).
    Grid(GridError),
    /// The battery operation violates (9), (11), or (12).
    Battery(BatteryError),
    /// A component was negative.
    NegativeAmount,
}

impl fmt::Display for EnergyDecisionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unbalanced { supplied, demand } => {
                write!(f, "decision supplies {supplied} against demand {demand}")
            }
            Self::Grid(e) => write!(f, "grid violation: {e}"),
            Self::Battery(e) => write!(f, "battery violation: {e}"),
            Self::NegativeAmount => write!(f, "decision components must be non-negative"),
        }
    }
}

impl Error for EnergyDecisionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Grid(e) => Some(e),
            Self::Battery(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GridError> for EnergyDecisionError {
    fn from(e: GridError) -> Self {
        Self::Grid(e)
    }
}

impl From<BatteryError> for EnergyDecisionError {
    fn from(e: BatteryError) -> Self {
        Self::Battery(e)
    }
}

/// One node's complete per-slot sourcing choice — the S4 variables
/// `(g_i, c^g_i, r_i, c^r_i, d_i)` of the paper plus curtailment:
///
/// * `grid_to_demand` — `g_i(t)`, grid energy serving demand;
/// * `grid_to_battery` — `c^g_i(t)`, grid energy charging the battery;
/// * `renewable` — the [`RenewableSplit`] `(r_i, c^r_i, waste)`;
/// * `discharge` — `d_i(t)`, battery energy serving demand.
///
/// The total battery charge is `c_i = c^r_i + ω_i c^g_i` (Eq. (5)); the
/// total grid draw is `p_i = ω_i (g_i + c^g_i)` (Eq. (14)).
///
/// # Examples
///
/// ```
/// use greencell_energy::{Battery, EnergyDecision, GridConnection, RenewableSplit};
/// use greencell_units::Energy;
///
/// let battery = Battery::new(
///     Energy::from_joules(100.0),
///     Energy::from_joules(40.0),
///     Energy::from_joules(40.0),
/// );
/// let grid = GridConnection::new(true, Energy::from_joules(50.0));
/// // Demand 30 J; renewable output 20 J → 20 to demand, 10 from grid,
/// // plus 15 J of grid charging.
/// let d = EnergyDecision::new(
///     Energy::from_joules(10.0),
///     Energy::from_joules(15.0),
///     RenewableSplit::new(Energy::from_joules(20.0), Energy::from_joules(20.0),
///                         Energy::ZERO, Energy::ZERO)?,
///     Energy::ZERO,
/// );
/// d.validate(Energy::from_joules(30.0), &battery, &grid)?;
/// assert_eq!(d.grid_total().as_joules(), 25.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyDecision {
    grid_to_demand: Energy,
    grid_to_battery: Energy,
    renewable: RenewableSplit,
    discharge: Energy,
}

impl EnergyDecision {
    /// Creates a decision; validation happens in
    /// [`EnergyDecision::validate`].
    #[must_use]
    pub fn new(
        grid_to_demand: Energy,
        grid_to_battery: Energy,
        renewable: RenewableSplit,
        discharge: Energy,
    ) -> Self {
        Self {
            grid_to_demand,
            grid_to_battery,
            renewable,
            discharge,
        }
    }

    /// Grid energy serving demand, `g_i(t)`.
    #[must_use]
    pub fn grid_to_demand(&self) -> Energy {
        self.grid_to_demand
    }

    /// Grid energy charging the battery, `c^g_i(t)`.
    #[must_use]
    pub fn grid_to_battery(&self) -> Energy {
        self.grid_to_battery
    }

    /// The renewable disposition `(r_i, c^r_i, waste)`.
    #[must_use]
    pub fn renewable(&self) -> &RenewableSplit {
        &self.renewable
    }

    /// Battery discharge serving demand, `d_i(t)`.
    #[must_use]
    pub fn discharge(&self) -> Energy {
        self.discharge
    }

    /// Total grid draw `p_i(t) = g_i + c^g_i` — the node's contribution to
    /// the provider's bill.
    #[must_use]
    pub fn grid_total(&self) -> Energy {
        self.grid_to_demand + self.grid_to_battery
    }

    /// Total battery charge `c_i(t) = c^r_i + c^g_i` (Eq. (5) with
    /// `ω_i = 1`; validation rejects grid charging while disconnected).
    #[must_use]
    pub fn charge_total(&self) -> Energy {
        self.renewable.to_battery() + self.grid_to_battery
    }

    /// Energy supplied toward demand: `g_i + r_i + d_i`.
    #[must_use]
    pub fn supplied(&self) -> Energy {
        self.grid_to_demand + self.renewable.to_demand() + self.discharge
    }

    /// Validates every §II constraint for this slot.
    ///
    /// # Errors
    ///
    /// * [`EnergyDecisionError::NegativeAmount`];
    /// * [`EnergyDecisionError::Grid`] — connectivity or limit (14);
    /// * [`EnergyDecisionError::Battery`] — (9), (11), (12);
    /// * [`EnergyDecisionError::Unbalanced`] — supply ≠ `demand`.
    pub fn validate(
        &self,
        demand: Energy,
        battery: &Battery,
        grid: &GridConnection,
    ) -> Result<(), EnergyDecisionError> {
        if !self.grid_to_demand.is_non_negative()
            || !self.grid_to_battery.is_non_negative()
            || !self.discharge.is_non_negative()
        {
            return Err(EnergyDecisionError::NegativeAmount);
        }
        grid.check_draw(self.grid_total())?;
        let c = self.charge_total();
        let d = self.discharge;
        if c.as_joules() > DECISION_SLACK_JOULES && d.as_joules() > DECISION_SLACK_JOULES {
            return Err(BatteryError::SimultaneousChargeDischarge.into());
        }
        if c.as_joules() > battery.max_charge_now().as_joules() + DECISION_SLACK_JOULES {
            return Err(BatteryError::ChargeExceedsLimit {
                requested: c,
                limit: battery.max_charge_now(),
            }
            .into());
        }
        if d.as_joules() > battery.max_discharge_now().as_joules() + DECISION_SLACK_JOULES {
            return Err(BatteryError::DischargeExceedsLimit {
                requested: d,
                limit: battery.max_discharge_now(),
            }
            .into());
        }
        let supplied = self.supplied();
        if (supplied.as_joules() - demand.as_joules()).abs() > DECISION_SLACK_JOULES {
            return Err(EnergyDecisionError::Unbalanced { supplied, demand });
        }
        Ok(())
    }

    /// Applies the battery side of the decision (Eq. (4)).
    ///
    /// # Errors
    ///
    /// Propagates [`BatteryError`] from [`Battery::apply`]; call
    /// [`EnergyDecision::validate`] first to get the richer error.
    pub fn apply_to_battery(&self, battery: &mut Battery) -> Result<(), BatteryError> {
        battery.apply(self.charge_total(), self.discharge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn j(x: f64) -> Energy {
        Energy::from_joules(x)
    }

    fn battery_half() -> Battery {
        Battery::with_level(j(100.0), j(40.0), j(40.0), j(50.0))
    }

    fn grid_on() -> GridConnection {
        GridConnection::new(true, j(50.0))
    }

    fn split(output: f64, to_demand: f64, to_battery: f64, waste: f64) -> RenewableSplit {
        RenewableSplit::new(j(output), j(to_demand), j(to_battery), j(waste)).unwrap()
    }

    #[test]
    fn balanced_grid_plus_renewable_passes() {
        let d = EnergyDecision::new(j(10.0), j(0.0), split(20.0, 20.0, 0.0, 0.0), j(0.0));
        d.validate(j(30.0), &battery_half(), &grid_on()).unwrap();
        assert_eq!(d.supplied(), j(30.0));
        assert_eq!(d.grid_total(), j(10.0));
    }

    #[test]
    fn discharge_serves_demand() {
        let d = EnergyDecision::new(j(0.0), j(0.0), split(0.0, 0.0, 0.0, 0.0), j(30.0));
        d.validate(j(30.0), &battery_half(), &grid_on()).unwrap();
        let mut b = battery_half();
        d.apply_to_battery(&mut b).unwrap();
        assert_eq!(b.level(), j(20.0));
    }

    /// A charge or discharge over the slot limit by 5·10⁻⁵ J — above the
    /// battery's micro-joule slack, below the validator's — validates and
    /// then applies: the state advance must never reject a validated
    /// decision.
    #[test]
    fn validated_decision_within_slack_applies() {
        let over = 5e-5;
        let charge = EnergyDecision::new(j(0.0), j(40.0 + over), split(0.0, 0.0, 0.0, 0.0), j(0.0));
        charge
            .validate(j(0.0), &battery_half(), &grid_on())
            .unwrap();
        let mut b = battery_half();
        charge.apply_to_battery(&mut b).unwrap();
        assert_eq!(b.level(), j(50.0) + j(40.0 + over));

        let discharge =
            EnergyDecision::new(j(0.0), j(0.0), split(0.0, 0.0, 0.0, 0.0), j(40.0 + over));
        discharge
            .validate(j(40.0 + over), &battery_half(), &grid_on())
            .unwrap();
        let mut b = battery_half();
        discharge.apply_to_battery(&mut b).unwrap();
        assert_eq!(b.level(), j(50.0) - j(40.0 + over));
    }

    #[test]
    fn unbalanced_rejected() {
        let d = EnergyDecision::new(j(5.0), j(0.0), split(0.0, 0.0, 0.0, 0.0), j(0.0));
        assert!(matches!(
            d.validate(j(30.0), &battery_half(), &grid_on()),
            Err(EnergyDecisionError::Unbalanced { .. })
        ));
    }

    #[test]
    fn charge_and_discharge_rejected() {
        let d = EnergyDecision::new(j(0.0), j(10.0), split(0.0, 0.0, 0.0, 0.0), j(10.0));
        assert!(matches!(
            d.validate(j(10.0), &battery_half(), &grid_on()),
            Err(EnergyDecisionError::Battery(
                BatteryError::SimultaneousChargeDischarge
            ))
        ));
    }

    #[test]
    fn renewable_charge_counts_toward_battery_limit() {
        // c^r = 45 > c^max = 40.
        let d = EnergyDecision::new(j(0.0), j(0.0), split(45.0, 0.0, 45.0, 0.0), j(0.0));
        assert!(matches!(
            d.validate(j(0.0), &battery_half(), &grid_on()),
            Err(EnergyDecisionError::Battery(
                BatteryError::ChargeExceedsLimit { .. }
            ))
        ));
    }

    #[test]
    fn grid_limit_enforced() {
        let d = EnergyDecision::new(j(40.0), j(20.0), split(0.0, 0.0, 0.0, 0.0), j(0.0));
        assert!(matches!(
            d.validate(j(40.0), &battery_half(), &grid_on()),
            Err(EnergyDecisionError::Grid(GridError::ExceedsLimit { .. }))
        ));
    }

    #[test]
    fn disconnected_node_cannot_draw() {
        let d = EnergyDecision::new(j(5.0), j(0.0), split(0.0, 0.0, 0.0, 0.0), j(0.0));
        assert!(matches!(
            d.validate(
                j(5.0),
                &battery_half(),
                &GridConnection::new(false, Energy::ZERO)
            ),
            Err(EnergyDecisionError::Grid(GridError::Disconnected))
        ));
    }

    #[test]
    fn disconnected_node_lives_on_renewable_and_battery() {
        let d = EnergyDecision::new(j(0.0), j(0.0), split(12.0, 12.0, 0.0, 0.0), j(8.0));
        d.validate(
            j(20.0),
            &battery_half(),
            &GridConnection::new(false, Energy::ZERO),
        )
        .unwrap();
    }

    #[test]
    fn error_source_chains() {
        let e = EnergyDecisionError::Grid(GridError::Disconnected);
        assert!(std::error::Error::source(&e).is_some());
    }
}
