//! Physical layer: SINR interference model, link capacities, schedules,
//! and minimal-power control (paper §II-B and constraint (24)).
//!
//! The paper adopts the *Physical Model* of Gupta–Kumar: a transmission
//! from `i` to `j` on band `m` succeeds iff its signal-to-interference-plus-
//! noise ratio clears a threshold `Γ`, in which case the link carries
//! `W_m(t) · log2(1 + Γ)` bits per second — the rate is pinned at the
//! threshold's modulation, so more SINR does not mean more rate, but less
//! SINR means zero.
//!
//! This crate provides, in dependency order:
//!
//! * [`SpectrumState`] — the slot's observed bandwidths `W_m(t)`;
//! * [`Transmission`] / [`Schedule`] — the `α^m_ij(t) = 1` entries, with
//!   the single-radio constraint (22) enforced structurally;
//! * [`sinr_into`] — achieved SINR of every scheduled link under a given
//!   power assignment, into a reused buffer ([`sinr_matrix`], its
//!   allocating form, is the tests' oracle);
//! * capacity helpers ([`potential_capacity`], [`packets_per_slot`]) — the
//!   `c^m_ij(t)` of Eq. (1) and its packets-per-slot form `⌊c·Δt/δ⌋`;
//! * [`min_power_assignment`] — the least transmit powers that satisfy
//!   constraint (24) for a whole schedule (one direct solve of the linear
//!   system `(I − A)·p = b`), or proof that no powers within the per-node
//!   caps do;
//! * [`PowerControlWorkspace`] — the same solve, one candidate at a time,
//!   for the S1 schedulers' probes: the accepted candidates' factors are
//!   kept, and each probe borders them with one row and one column.
//!
//! # Examples
//!
//! ```
//! use greencell_net::{NetworkBuilder, PathLossModel, Point, BandId};
//! use greencell_phy::{PhyConfig, Schedule, SpectrumState, Transmission, min_power_assignment};
//! use greencell_units::{Bandwidth, Power};
//!
//! let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
//! let bs = b.add_base_station(Point::new(0.0, 0.0));
//! let u = b.add_user(Point::new(200.0, 0.0));
//! let net = b.build()?;
//!
//! let phy = PhyConfig::new(1.0, 1e-20);
//! let mut schedule = Schedule::new();
//! schedule.try_add(&net, Transmission::new(bs, u, BandId::from_index(0)))?;
//! let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]);
//! let caps = vec![Power::from_watts(20.0), Power::from_watts(1.0)];
//!
//! let powers = min_power_assignment(&net, &schedule, &spectrum, &phy, &caps)?;
//! assert!(powers[0] <= Power::from_watts(20.0));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capacity;
mod power_control;
mod schedule;
mod sinr;
mod spectrum_state;
mod workspace;

pub use capacity::{packets_per_slot, potential_capacity};
pub use power_control::{min_power_assignment, min_power_assignment_reference, PowerControlError};
pub use schedule::{Schedule, ScheduleError, Transmission};
pub use sinr::{sinr_into, sinr_matrix, sinr_of};
pub use spectrum_state::SpectrumState;
pub use workspace::PowerControlWorkspace;

/// Physical-layer constants shared by every SINR computation.
///
/// * `sinr_threshold` — the paper's `Γ` (linear, not dB); the evaluation
///   uses `Γ = 1`.
/// * `noise_density` — thermal noise power density `η` in W/Hz at every
///   receiver; the evaluation uses `10⁻²⁰` W/Hz.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhyConfig {
    sinr_threshold: f64,
    noise_density: f64,
}

impl PhyConfig {
    /// Creates a configuration from the SINR threshold `Γ` and the noise
    /// density `η` (W/Hz).
    ///
    /// # Panics
    ///
    /// Panics if `sinr_threshold <= 0` or `noise_density < 0` — a
    /// non-positive threshold would declare every link feasible at zero
    /// power and break the capacity model of Eq. (1).
    #[must_use]
    pub fn new(sinr_threshold: f64, noise_density: f64) -> Self {
        assert!(
            sinr_threshold > 0.0,
            "SINR threshold must be positive, got {sinr_threshold}"
        );
        assert!(
            noise_density >= 0.0,
            "noise density must be non-negative, got {noise_density}"
        );
        Self {
            sinr_threshold,
            noise_density,
        }
    }

    /// The SINR threshold `Γ` (linear).
    #[must_use]
    pub fn sinr_threshold(&self) -> f64 {
        self.sinr_threshold
    }

    /// The thermal noise density `η` in W/Hz.
    #[must_use]
    pub fn noise_density(&self) -> f64 {
        self.noise_density
    }

    /// The largest propagation gain that is *provably irrelevant* to the
    /// physical model, given the narrowest band `min_bandwidth` any link
    /// can see and the largest transmit power `max_power` any node may
    /// use:
    ///
    /// `F = min(Γ, 1) · η · W_min / p_max`.
    ///
    /// For any gain `g < F` and any power `p ≤ p_max`:
    ///
    /// * as a **signal**, `p·g < Γ·η·W_min ≤ Γ·N_j` — the link misses the
    ///   SINR threshold even with zero interference, so it can never be
    ///   scheduled;
    /// * as **interference**, `p·g < η·W_min ≤ N_j` — the cross term sits
    ///   below the receiver's thermal noise floor.
    ///
    /// Zeroing such gains (see `Topology::gain_floor` in `greencell-net`)
    /// therefore only discards entries already below the noise floor.
    /// Returns `0.0` (pruning disabled) when the noise density is zero.
    ///
    /// # Panics
    ///
    /// Panics if `max_power` is not strictly positive.
    #[must_use]
    pub fn prune_gain_floor(
        &self,
        min_bandwidth: greencell_units::Bandwidth,
        max_power: greencell_units::Power,
    ) -> f64 {
        let p = max_power.as_watts();
        assert!(p > 0.0, "max power must be positive, got {p} W");
        self.sinr_threshold.min(1.0) * self.noise_density * min_bandwidth.as_hertz() / p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_accessors() {
        let c = PhyConfig::new(1.0, 1e-20);
        assert_eq!(c.sinr_threshold(), 1.0);
        assert_eq!(c.noise_density(), 1e-20);
    }

    #[test]
    fn prune_floor_is_below_the_interference_noise_floor() {
        use greencell_units::{Bandwidth, Power};
        let c = PhyConfig::new(1.0, 3e-17);
        let w = Bandwidth::from_megahertz(1.0);
        let p = Power::from_watts(20.0);
        let floor = c.prune_gain_floor(w, p);
        assert_eq!(floor, 3e-17 * 1e6 / 20.0);
        // Any pruned gain times any legal power sits below η·W_min.
        assert!(floor * p.as_watts() <= c.noise_density() * w.as_hertz());
        // Γ < 1 tightens the floor further (signal feasibility binds).
        let c2 = PhyConfig::new(0.5, 3e-17);
        assert_eq!(c2.prune_gain_floor(w, p), 0.5 * 3e-17 * 1e6 / 20.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = PhyConfig::new(0.0, 1e-20);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_noise_rejected() {
        let _ = PhyConfig::new(1.0, -1.0);
    }
}
