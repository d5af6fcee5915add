//! The per-node energy storage unit (paper Eqs. (4), (9)–(13)).

use greencell_units::Energy;
use std::error::Error;
use std::fmt;

/// Slack for floating-point comparisons on energy amounts, in joules.
/// One micro-joule is far below any physically meaningful quantity here.
const EPS_JOULES: f64 = 1e-6;

/// Slack for a slot's battery operation — constraints (9), (11) and (12)
/// and the supply balance — in joules. [`Battery::apply`] and
/// [`crate::EnergyDecision::validate`] share it, so every decision that
/// validates also applies, even at ~10¹⁰ J scales where rounding in the
/// solver's arithmetic exceeds a micro-joule.
pub(crate) const DECISION_SLACK_JOULES: f64 = 1e-4;

/// Error applying an infeasible charge/discharge to a [`Battery`].
#[derive(Debug, Clone, PartialEq)]
pub enum BatteryError {
    /// Charging and discharging in the same slot — constraint (9).
    SimultaneousChargeDischarge,
    /// Charge exceeds `min{c^max, x^max − x}` — constraint (11).
    ChargeExceedsLimit {
        /// Requested charge.
        requested: Energy,
        /// Largest feasible charge this slot.
        limit: Energy,
    },
    /// Discharge exceeds `min{d^max, x}` — constraint (12).
    DischargeExceedsLimit {
        /// Requested discharge.
        requested: Energy,
        /// Largest feasible discharge this slot.
        limit: Energy,
    },
    /// A negative amount was supplied.
    NegativeAmount,
}

impl fmt::Display for BatteryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SimultaneousChargeDischarge => {
                write!(f, "cannot charge and discharge in the same slot")
            }
            Self::ChargeExceedsLimit { requested, limit } => {
                write!(f, "charge {requested} exceeds slot limit {limit}")
            }
            Self::DischargeExceedsLimit { requested, limit } => {
                write!(f, "discharge {requested} exceeds slot limit {limit}")
            }
            Self::NegativeAmount => write!(f, "energy amounts must be non-negative"),
        }
    }
}

impl Error for BatteryError {}

/// An energy storage unit with level `x_i(t) ∈ [0, x^max_i]`, per-slot
/// charge limit `c^max_i`, and per-slot discharge limit `d^max_i`.
///
/// Construction enforces the paper's sizing constraint (13),
/// `c^max + d^max ≤ x^max`; [`Battery::apply`] enforces the per-slot
/// constraints (9), (11), and (12) and advances the level by the queue law
/// (4), `x(t+1) = x(t) + c(t) − d(t)`.
///
/// # Examples
///
/// ```
/// use greencell_energy::Battery;
/// use greencell_units::Energy;
///
/// let mut b = Battery::new(
///     Energy::from_kilowatt_hours(1.0),  // x^max
///     Energy::from_kilowatt_hours(0.1),  // c^max
///     Energy::from_kilowatt_hours(0.1),  // d^max
/// );
/// b.apply(Energy::from_kilowatt_hours(0.05), Energy::ZERO)?;
/// assert_eq!(b.level().as_kilowatt_hours(), 0.05);
/// # Ok::<(), greencell_energy::BatteryError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    level: Energy,
    capacity: Energy,
    charge_limit: Energy,
    discharge_limit: Energy,
    charge_efficiency: f64,
    charge_blocked: bool,
}

impl Battery {
    /// Creates an empty battery (`x(0) = 0`, as in §IV-B's `z(0)` setup).
    ///
    /// # Panics
    ///
    /// Panics if any argument is negative or if
    /// `charge_limit + discharge_limit > capacity` (constraint (13)).
    #[must_use]
    pub fn new(capacity: Energy, charge_limit: Energy, discharge_limit: Energy) -> Self {
        assert!(
            capacity.is_non_negative()
                && charge_limit.is_non_negative()
                && discharge_limit.is_non_negative(),
            "battery parameters must be non-negative"
        );
        assert!(
            (charge_limit + discharge_limit).as_joules() <= capacity.as_joules() + EPS_JOULES,
            "constraint (13) violated: c^max + d^max must not exceed x^max"
        );
        Self {
            level: Energy::ZERO,
            capacity,
            charge_limit,
            discharge_limit,
            charge_efficiency: 1.0,
            charge_blocked: false,
        }
    }

    /// Creates an empty battery whose charging loses energy: each unit of
    /// charging energy drawn stores only `efficiency` units (Eq. (4)
    /// becomes `x(t+1) = x(t) + η·c(t) − d(t)` — an extension of the
    /// paper's lossless model; `η = 1` recovers it exactly).
    ///
    /// # Panics
    ///
    /// As [`Battery::new`], plus if `efficiency ∉ (0, 1]`.
    #[must_use]
    pub fn with_efficiency(
        capacity: Energy,
        charge_limit: Energy,
        discharge_limit: Energy,
        efficiency: f64,
    ) -> Self {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "charge efficiency {efficiency} outside (0, 1]"
        );
        let mut b = Self::new(capacity, charge_limit, discharge_limit);
        b.charge_efficiency = efficiency;
        b
    }

    /// Creates a battery at a given initial level.
    ///
    /// # Panics
    ///
    /// As [`Battery::new`], plus if `initial ∉ [0, capacity]`.
    #[must_use]
    pub fn with_level(
        capacity: Energy,
        charge_limit: Energy,
        discharge_limit: Energy,
        initial: Energy,
    ) -> Self {
        let mut b = Self::new(capacity, charge_limit, discharge_limit);
        assert!(
            initial.is_non_negative() && initial.as_joules() <= capacity.as_joules() + EPS_JOULES,
            "initial level outside [0, x^max]"
        );
        b.level = initial;
        b
    }

    /// Rebuilds a battery from its full captured state — the restore half
    /// of snapshotting. Unlike [`Battery::new`], the capacity and limits
    /// here may already be fade-scaled (see [`Battery::fade_capacity`]),
    /// so every runtime-mutable field is taken verbatim. The state is read
    /// from outside the process (a snapshot file), so every condition the
    /// constructors assert is checked instead, in the same order and with
    /// the same message.
    ///
    /// # Errors
    ///
    /// The first violated condition: `efficiency ∉ (0, 1]`, a negative
    /// (or NaN) capacity or limit, `c^max + d^max > x^max` (constraint
    /// (13)), or `level ∉ [0, x^max]`.
    pub fn try_from_parts(
        capacity: Energy,
        charge_limit: Energy,
        discharge_limit: Energy,
        efficiency: f64,
        level: Energy,
        charge_blocked: bool,
    ) -> Result<Self, String> {
        if !(efficiency > 0.0 && efficiency <= 1.0) {
            return Err(format!("charge efficiency {efficiency} outside (0, 1]"));
        }
        if !(capacity.is_non_negative()
            && charge_limit.is_non_negative()
            && discharge_limit.is_non_negative())
        {
            return Err("battery parameters must be non-negative".to_string());
        }
        if (charge_limit + discharge_limit).as_joules() > capacity.as_joules() + EPS_JOULES {
            return Err(
                "constraint (13) violated: c^max + d^max must not exceed x^max".to_string(),
            );
        }
        if !(level.is_non_negative() && level.as_joules() <= capacity.as_joules() + EPS_JOULES) {
            return Err("level outside [0, x^max]".to_string());
        }
        Ok(Self {
            level,
            capacity,
            charge_limit,
            discharge_limit,
            charge_efficiency: efficiency,
            charge_blocked,
        })
    }

    /// The current level `x_i(t)`.
    #[must_use]
    pub fn level(&self) -> Energy {
        self.level
    }

    /// The capacity `x^max_i`.
    #[must_use]
    pub fn capacity(&self) -> Energy {
        self.capacity
    }

    /// The per-slot charge limit `c^max_i`.
    #[must_use]
    pub fn charge_limit(&self) -> Energy {
        self.charge_limit
    }

    /// The per-slot discharge limit `d^max_i`.
    #[must_use]
    pub fn discharge_limit(&self) -> Energy {
        self.discharge_limit
    }

    /// The charge efficiency `η ∈ (0, 1]`: stored energy per unit of
    /// charging energy drawn (`1.0` = the paper's lossless model).
    #[must_use]
    pub fn charge_efficiency(&self) -> f64 {
        self.charge_efficiency
    }

    /// The largest charge *drawable* this slot:
    /// `min{c^max, (x^max − x(t))/η}` — the generalization of constraint
    /// (11) under charge efficiency `η` (at `η = 1` it is exactly (11)).
    /// Zero while the charge path is blocked (see
    /// [`Battery::set_charge_blocked`]).
    #[must_use]
    pub fn max_charge_now(&self) -> Energy {
        if self.charge_blocked {
            return Energy::ZERO;
        }
        self.charge_limit
            .min((self.capacity - self.level) / self.charge_efficiency)
            .max(Energy::ZERO)
    }

    /// Whether the charge path is currently failed.
    #[must_use]
    pub fn charge_blocked(&self) -> bool {
        self.charge_blocked
    }

    /// Fails (`true`) or repairs (`false`) the charge path — a transient
    /// hardware fault: while blocked the battery accepts no charge
    /// ([`Battery::max_charge_now`] reports zero) but discharges normally.
    pub fn set_charge_blocked(&mut self, blocked: bool) {
        self.charge_blocked = blocked;
    }

    /// Permanently fades the capacity to `factor · x^max` (battery aging or
    /// cell failure). The per-slot charge/discharge limits are scaled by
    /// the same factor so the sizing constraint (13),
    /// `c^max + d^max ≤ x^max`, keeps holding, and the level is clamped
    /// into the new capacity.
    ///
    /// # Panics
    ///
    /// Panics if `factor ∉ (0, 1]`.
    pub fn fade_capacity(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "fade factor {factor} outside (0, 1]"
        );
        self.capacity = self.capacity * factor;
        self.charge_limit = self.charge_limit * factor;
        self.discharge_limit = self.discharge_limit * factor;
        self.level = self.level.min(self.capacity);
    }

    /// The largest discharge available this slot:
    /// `min{d^max, x(t)}` (constraint (12)).
    #[must_use]
    pub fn max_discharge_now(&self) -> Energy {
        self.discharge_limit.min(self.level).max(Energy::ZERO)
    }

    /// Applies one slot's charge `c` and discharge `d`, advancing the level
    /// by Eq. (4).
    ///
    /// # Errors
    ///
    /// * [`BatteryError::NegativeAmount`] — `c < 0` or `d < 0`;
    /// * [`BatteryError::SimultaneousChargeDischarge`] — both positive (9);
    /// * [`BatteryError::ChargeExceedsLimit`] — `c` above (11)'s bound;
    /// * [`BatteryError::DischargeExceedsLimit`] — `d` above (12)'s bound.
    ///
    /// Each check allows the same slack as [`crate::EnergyDecision::validate`].
    /// On error the level is unchanged.
    pub fn apply(&mut self, c: Energy, d: Energy) -> Result<(), BatteryError> {
        if !c.is_non_negative() || !d.is_non_negative() {
            return Err(BatteryError::NegativeAmount);
        }
        if c.as_joules() > DECISION_SLACK_JOULES && d.as_joules() > DECISION_SLACK_JOULES {
            return Err(BatteryError::SimultaneousChargeDischarge);
        }
        let c_limit = self.max_charge_now();
        if c.as_joules() > c_limit.as_joules() + DECISION_SLACK_JOULES {
            return Err(BatteryError::ChargeExceedsLimit {
                requested: c,
                limit: c_limit,
            });
        }
        let d_limit = self.max_discharge_now();
        if d.as_joules() > d_limit.as_joules() + DECISION_SLACK_JOULES {
            return Err(BatteryError::DischargeExceedsLimit {
                requested: d,
                limit: d_limit,
            });
        }
        self.level =
            (self.level + c * self.charge_efficiency - d).clamp(Energy::ZERO, self.capacity);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kwh(x: f64) -> Energy {
        Energy::from_kilowatt_hours(x)
    }

    fn battery() -> Battery {
        Battery::new(kwh(1.0), kwh(0.1), kwh(0.06))
    }

    #[test]
    fn charge_then_discharge_tracks_level() {
        let mut b = battery();
        b.apply(kwh(0.1), Energy::ZERO).unwrap();
        b.apply(kwh(0.1), Energy::ZERO).unwrap();
        assert!((b.level().as_kilowatt_hours() - 0.2).abs() < 1e-12);
        b.apply(Energy::ZERO, kwh(0.06)).unwrap();
        assert!((b.level().as_kilowatt_hours() - 0.14).abs() < 1e-12);
    }

    #[test]
    fn mutual_exclusion_enforced() {
        let mut b = battery();
        b.apply(kwh(0.05), Energy::ZERO).unwrap();
        assert_eq!(
            b.apply(kwh(0.01), kwh(0.01)),
            Err(BatteryError::SimultaneousChargeDischarge)
        );
    }

    #[test]
    fn charge_limit_and_headroom() {
        let mut b = Battery::with_level(kwh(1.0), kwh(0.1), kwh(0.06), kwh(0.95));
        assert!((b.max_charge_now().as_kilowatt_hours() - 0.05).abs() < 1e-12);
        assert!(matches!(
            b.apply(kwh(0.06), Energy::ZERO),
            Err(BatteryError::ChargeExceedsLimit { .. })
        ));
        b.apply(kwh(0.05), Energy::ZERO).unwrap();
        assert!((b.level().as_kilowatt_hours() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn discharge_limited_by_level() {
        let mut b = Battery::with_level(kwh(1.0), kwh(0.1), kwh(0.06), kwh(0.01));
        assert!((b.max_discharge_now().as_kilowatt_hours() - 0.01).abs() < 1e-15);
        assert!(matches!(
            b.apply(Energy::ZERO, kwh(0.02)),
            Err(BatteryError::DischargeExceedsLimit { .. })
        ));
        b.apply(Energy::ZERO, kwh(0.01)).unwrap();
        assert_eq!(b.level(), Energy::ZERO);
    }

    #[test]
    fn error_leaves_level_unchanged() {
        let mut b = Battery::with_level(kwh(1.0), kwh(0.1), kwh(0.06), kwh(0.5));
        let before = b.level();
        let _ = b.apply(kwh(0.5), Energy::ZERO); // over c^max
        assert_eq!(b.level(), before);
    }

    #[test]
    fn negative_amount_rejected() {
        let mut b = battery();
        assert_eq!(
            b.apply(Energy::from_joules(-1.0), Energy::ZERO),
            Err(BatteryError::NegativeAmount)
        );
    }

    #[test]
    #[should_panic(expected = "constraint (13)")]
    fn oversized_limits_rejected() {
        let _ = Battery::new(kwh(0.1), kwh(0.06), kwh(0.06));
    }

    #[test]
    #[should_panic(expected = "initial level")]
    fn overfull_initial_rejected() {
        let _ = Battery::with_level(kwh(1.0), kwh(0.1), kwh(0.06), kwh(1.5));
    }

    #[test]
    fn error_display() {
        let e = BatteryError::SimultaneousChargeDischarge;
        assert!(e.to_string().contains("same slot"));
    }

    #[test]
    fn try_from_parts_roundtrips_a_faded_blocked_battery() {
        let mut b = Battery::with_efficiency(kwh(1.0), kwh(0.1), kwh(0.06), 0.9);
        b.apply(kwh(0.1), Energy::ZERO).unwrap();
        b.fade_capacity(0.7);
        b.set_charge_blocked(true);
        let rebuilt = Battery::try_from_parts(
            b.capacity(),
            b.charge_limit(),
            b.discharge_limit(),
            b.charge_efficiency(),
            b.level(),
            b.charge_blocked(),
        );
        assert_eq!(rebuilt, Ok(b));
    }

    /// Every condition the constructors assert is an error here, never a
    /// panic, and a valid state rebuilds the same battery.
    #[test]
    fn try_from_parts_rejects_what_the_constructors_assert() {
        let parts = |cap: f64, c: f64, d: f64, eta: f64, level: f64| {
            Battery::try_from_parts(kwh(cap), kwh(c), kwh(d), eta, kwh(level), false)
        };
        let valid = parts(1.0, 0.1, 0.06, 0.9, 0.5).expect("valid state");
        assert_eq!(
            (
                valid.capacity(),
                valid.charge_limit(),
                valid.discharge_limit()
            ),
            (kwh(1.0), kwh(0.1), kwh(0.06))
        );
        assert_eq!((valid.charge_efficiency(), valid.level()), (0.9, kwh(0.5)));
        assert!(!valid.charge_blocked());
        for (bad, message) in [
            (parts(1.0, 0.1, 0.06, 2.0, 0.5), "outside (0, 1]"),
            (parts(1.0, 0.1, 0.06, 0.0, 0.5), "outside (0, 1]"),
            (parts(1.0, 0.1, 0.06, f64::NAN, 0.5), "outside (0, 1]"),
            (parts(1.0, -0.1, 0.06, 1.0, 0.5), "non-negative"),
            (parts(1.0, 0.1, f64::NAN, 1.0, 0.5), "non-negative"),
            (parts(1.0, 0.6, 0.6, 1.0, 0.5), "constraint (13)"),
            (parts(1.0, 0.1, 0.06, 1.0, 1.5), "level outside"),
            (parts(1.0, 0.1, 0.06, 1.0, -0.5), "level outside"),
        ] {
            let e = bad.expect_err(message);
            assert!(e.contains(message), "{e}");
        }
    }

    #[test]
    fn lossy_charging_stores_less() {
        let mut b = Battery::with_efficiency(kwh(1.0), kwh(0.1), kwh(0.06), 0.8);
        assert_eq!(b.charge_efficiency(), 0.8);
        b.apply(kwh(0.1), Energy::ZERO).unwrap();
        assert!((b.level().as_kilowatt_hours() - 0.08).abs() < 1e-12);
        // Discharging is lossless in this model.
        b.apply(Energy::ZERO, kwh(0.06)).unwrap();
        assert!((b.level().as_kilowatt_hours() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn lossy_headroom_allows_larger_draw() {
        // 0.05 kWh of headroom at η = 0.5 accepts 0.1 kWh of drawn charge.
        let mut b = Battery::with_efficiency(kwh(1.0), kwh(0.2), kwh(0.06), 0.5);
        b.apply(kwh(0.2), Energy::ZERO).unwrap(); // stores 0.1
        for _ in 0..8 {
            b.apply(b.max_charge_now(), Energy::ZERO).unwrap();
        }
        assert!(b.level().as_kilowatt_hours() <= 1.0 + 1e-12);
        let near_full = Battery::with_level(kwh(1.0), kwh(0.2), kwh(0.06), kwh(0.95));
        assert!(near_full.max_charge_now().as_kilowatt_hours() <= 0.05 + 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn zero_efficiency_rejected() {
        let _ = Battery::with_efficiency(kwh(1.0), kwh(0.1), kwh(0.06), 0.0);
    }

    #[test]
    fn charge_block_zeroes_headroom_and_is_reversible() {
        let mut b = battery();
        assert!(!b.charge_blocked());
        assert!(b.max_charge_now() > Energy::ZERO);
        b.set_charge_blocked(true);
        assert!(b.charge_blocked());
        assert_eq!(b.max_charge_now(), Energy::ZERO);
        // Discharge is unaffected by a failed charge path.
        b.set_charge_blocked(false);
        b.apply(kwh(0.1), Energy::ZERO).unwrap();
        b.set_charge_blocked(true);
        assert_eq!(b.max_discharge_now(), kwh(0.06));
        b.apply(Energy::ZERO, kwh(0.06)).unwrap();
        b.set_charge_blocked(false);
        assert!(b.max_charge_now() > Energy::ZERO);
    }

    #[test]
    fn fade_scales_limits_and_clamps_level() {
        let mut b = Battery::with_level(kwh(1.0), kwh(0.1), kwh(0.06), kwh(0.9));
        b.fade_capacity(0.5);
        assert!((b.capacity().as_kilowatt_hours() - 0.5).abs() < 1e-12);
        // Level clamped into the new capacity.
        assert!((b.level().as_kilowatt_hours() - 0.5).abs() < 1e-12);
        // Sizing constraint (13) still holds after fading.
        assert!(
            b.max_charge_now().as_joules() + b.max_discharge_now().as_joules()
                <= b.capacity().as_joules() + 1e-9
        );
        // Faded battery still charges/discharges within the scaled limits.
        b.apply(Energy::ZERO, b.max_discharge_now()).unwrap();
        b.apply(b.max_charge_now(), Energy::ZERO).unwrap();
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn fade_factor_above_one_rejected() {
        battery().fade_capacity(1.5);
    }
}
