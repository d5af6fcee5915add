//! Per-node per-slot energy demand `E_i(t)` (paper Eqs. (2) and (23)).

use greencell_units::{Energy, Power, TimeDelta};

/// The demand side of a node's energy balance:
///
/// ```text
/// E_i(t) = E^const_i + E^idle_i + E^TX_i(t)                       (2)
/// E^TX_i(t) = Σ α^m_ij P^m_ij Δt  +  Σ α^m_ji P^recv_i Δt         (23)
/// ```
///
/// With the single-radio constraint (22), a node transmits on at most one
/// link-band and receives on at most one per slot, so the sums collapse to
/// at most one term each.
///
/// # Examples
///
/// ```
/// use greencell_energy::NodeEnergyModel;
/// use greencell_units::{Energy, Power, TimeDelta};
///
/// let model = NodeEnergyModel::new(
///     Energy::from_joules(10.0),      // antenna feed
///     Energy::from_joules(5.0),       // idle electronics
///     Power::from_milliwatts(100.0),  // receive power
/// );
/// let dt = TimeDelta::from_minutes(1.0);
/// let busy = model.slot_demand(Some(Power::from_watts(1.0)), false, dt);
/// assert_eq!(busy.as_joules(), 10.0 + 5.0 + 60.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEnergyModel {
    const_energy: Energy,
    idle_energy: Energy,
    recv_power: Power,
}

impl NodeEnergyModel {
    /// Creates a model from the per-slot antenna-feed energy `E^const`,
    /// per-slot idle energy `E^idle`, and the constant receive power
    /// `P^recv`.
    ///
    /// # Panics
    ///
    /// Panics if any component is negative.
    #[must_use]
    pub fn new(const_energy: Energy, idle_energy: Energy, recv_power: Power) -> Self {
        assert!(
            const_energy.is_non_negative()
                && idle_energy.is_non_negative()
                && recv_power >= Power::ZERO,
            "energy model components must be non-negative"
        );
        Self {
            const_energy,
            idle_energy,
            recv_power,
        }
    }

    /// The per-slot antenna-feed energy `E^const_i`.
    #[must_use]
    pub fn const_energy(&self) -> Energy {
        self.const_energy
    }

    /// The per-slot idle energy `E^idle_i`.
    #[must_use]
    pub fn idle_energy(&self) -> Energy {
        self.idle_energy
    }

    /// The receive power `P^recv_i`.
    #[must_use]
    pub fn recv_power(&self) -> Power {
        self.recv_power
    }

    /// The traffic-serving energy `E^TX_i(t)` of Eq. (23) for a slot where
    /// the node transmits at `tx_power` (if scheduled) and/or receives.
    #[must_use]
    pub fn tx_energy(&self, tx_power: Option<Power>, receiving: bool, dt: TimeDelta) -> Energy {
        let tx = tx_power.map_or(Energy::ZERO, |p| p * dt);
        let rx = if receiving {
            self.recv_power * dt
        } else {
            Energy::ZERO
        };
        tx + rx
    }

    /// The full demand `E_i(t)` of Eq. (2).
    #[must_use]
    pub fn slot_demand(&self, tx_power: Option<Power>, receiving: bool, dt: TimeDelta) -> Energy {
        self.const_energy + self.idle_energy + self.tx_energy(tx_power, receiving, dt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NodeEnergyModel {
        NodeEnergyModel::new(
            Energy::from_joules(10.0),
            Energy::from_joules(5.0),
            Power::from_milliwatts(100.0),
        )
    }

    #[test]
    fn idle_slot_is_fixed_overhead_only() {
        let d = model().slot_demand(None, false, TimeDelta::from_minutes(1.0));
        assert_eq!(d.as_joules(), 15.0);
    }

    #[test]
    fn receiving_adds_recv_power() {
        let d = model().slot_demand(None, true, TimeDelta::from_minutes(1.0));
        assert!((d.as_joules() - (15.0 + 0.1 * 60.0)).abs() < 1e-12);
    }

    #[test]
    fn transmit_and_receive_both_count() {
        // With (22) a node cannot both transmit and receive, but Eq. (23)
        // is written as a sum — the model stays faithful to the formula.
        let m = model();
        let d = m.tx_energy(
            Some(Power::from_watts(2.0)),
            true,
            TimeDelta::from_minutes(0.5),
        );
        assert!((d.as_joules() - (60.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn accessors() {
        let m = model();
        assert_eq!(m.const_energy().as_joules(), 10.0);
        assert_eq!(m.idle_energy().as_joules(), 5.0);
        assert_eq!(m.recv_power(), Power::from_milliwatts(100.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_component_rejected() {
        let _ = NodeEnergyModel::new(Energy::from_joules(-1.0), Energy::ZERO, Power::ZERO);
    }
}
