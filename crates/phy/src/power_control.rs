//! Minimal transmit powers satisfying the SINR constraint (24).
//!
//! Given a schedule, the controller wants every activated link to clear the
//! SINR threshold *with the least energy* — transmit power feeds straight
//! into the per-slot energy demand `E^TX_i(t)` of Eq. (23) that the S4
//! subproblem must then source. Constraint (24) is linear in the powers:
//! with `A_kl = Γ·g_{tx_l → rx_k}/g_{tx_k → rx_k}` on co-channel pairs and
//! `b_k = Γ·η W_m/g_{tx_k → rx_k}`, the least feasible powers solve
//!
//! ```text
//! (I − A)·p = b
//! ```
//!
//! which has a non-negative solution exactly when `I − A` is a non-singular
//! M-matrix (`ρ(A) < 1`). [`min_power_assignment`] solves it directly (see
//! [`crate::PowerControlWorkspace`]); if the solution violates a node's
//! power cap `P^i_max`, no feasible assignment exists and the schedule must
//! shed a link. [`min_power_assignment_reference`] keeps the classical
//! Foschini–Miljanic iteration as the test oracle.

use crate::{PhyConfig, PowerControlWorkspace, Schedule, SpectrumState};
use greencell_net::Network;
use greencell_units::Power;
use std::error::Error;
use std::fmt;

/// Error from [`min_power_assignment`] and
/// [`min_power_assignment_reference`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PowerControlError {
    /// No power vector within the caps satisfies constraint (24); the
    /// reported transmission is one whose minimal power exceeds its
    /// transmitter's cap, or the last one when `ρ(A) ≥ 1`.
    Infeasible {
        /// Index into `schedule.transmissions()`.
        transmission_index: usize,
    },
    /// The reference iteration failed to settle within its iteration
    /// budget while staying under the caps — numerically on the
    /// feasibility boundary. The direct solve never returns it.
    NonConvergent,
}

impl fmt::Display for PowerControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Infeasible { transmission_index } => write!(
                f,
                "no feasible power assignment: transmission #{transmission_index} needs more than its cap"
            ),
            Self::NonConvergent => write!(f, "power iteration did not converge"),
        }
    }
}

impl Error for PowerControlError {}

/// Sweep budget of [`min_power_assignment_reference`].
const MAX_ITERATIONS: usize = 10_000;
/// Per-sweep relative change below which the reference has converged.
const RELATIVE_TOLERANCE: f64 = 1e-12;

/// Computes the component-wise minimal transmit powers under which every
/// transmission in `schedule` achieves `SINR ≥ Γ`, or proves that none
/// exist within the per-node caps.
///
/// `max_powers` holds one cap per *node* (indexed by `NodeId`), the paper's
/// `P^i_max` (1 W for users, 20 W for base stations in the evaluation).
///
/// Returns one power per transmission, in schedule order. An empty schedule
/// yields an empty vector. The powers are the exact solution of
/// `(I − A)·p = b`, found by one elimination in a fresh
/// [`PowerControlWorkspace`].
///
/// # Examples
///
/// ```
/// use greencell_net::{BandId, NetworkBuilder, PathLossModel, Point};
/// use greencell_phy::{min_power_assignment, PhyConfig, Schedule, SpectrumState, Transmission};
/// use greencell_units::{Bandwidth, Power};
///
/// let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
/// let bs = b.add_base_station(Point::new(0.0, 0.0));
/// let u = b.add_user(Point::new(100.0, 0.0));
/// let net = b.build()?;
/// let mut schedule = Schedule::new();
/// schedule.try_add(&net, Transmission::new(bs, u, BandId::from_index(0)))?;
///
/// let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]);
/// let powers = min_power_assignment(
///     &net, &schedule, &spectrum,
///     &PhyConfig::new(1.0, 1e-20),
///     &[Power::from_watts(20.0), Power::from_watts(1.0)],
/// )?;
/// // Noise-limited minimum: Γ·ηW/g = 1e-14 / 6.25e-7 = 16 nW.
/// assert!((powers[0].as_watts() - 1.6e-8).abs() < 1e-20);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// # Errors
///
/// [`PowerControlError::Infeasible`] — the minimal solution exceeds a cap,
/// or none exists (`ρ(A) ≥ 1`).
///
/// # Panics
///
/// Panics if `max_powers.len()` differs from the node count.
pub fn min_power_assignment(
    net: &Network,
    schedule: &Schedule,
    spectrum: &SpectrumState,
    phy: &PhyConfig,
    max_powers: &[Power],
) -> Result<Vec<Power>, PowerControlError> {
    assert_caps(net, max_powers);
    let mut ws = PowerControlWorkspace::new();
    for &t in schedule.transmissions() {
        ws.push_candidate(net, spectrum, phy, max_powers, t)?;
    }
    ws.solve(phy)?;
    Ok(ws
        .powers_watts()
        .iter()
        .copied()
        .map(Power::from_watts)
        .collect())
}

/// The Foschini–Miljanic iteration: per band, the monotone map
///
/// ```text
/// P_k ← Γ · (η W_m + Σ_{l ≠ k} g_{tx_l → rx_k} P_l) / g_{tx_k → rx_k}
/// ```
///
/// run Gauss–Seidel from the noise-only lower bound until no power rises
/// by more than a relative `10⁻¹²` in a sweep. It converges to the same
/// minimal vector as [`min_power_assignment`], linearly at rate `ρ(A)`, so
/// it gives up with [`PowerControlError::NonConvergent`] after 10 000
/// sweeps when `ρ(A)` is close to 1. Allocating; the test oracle of the
/// direct solve.
///
/// # Errors
///
/// * [`PowerControlError::Infeasible`] — an iterate exceeds a cap;
/// * [`PowerControlError::NonConvergent`] — iteration budget exhausted.
///
/// # Panics
///
/// Panics if `max_powers.len()` differs from the node count.
pub fn min_power_assignment_reference(
    net: &Network,
    schedule: &Schedule,
    spectrum: &SpectrumState,
    phy: &PhyConfig,
    max_powers: &[Power],
) -> Result<Vec<Power>, PowerControlError> {
    assert_caps(net, max_powers);
    let topo = net.topology();
    let txs = schedule.transmissions();
    let n = txs.len();
    let gamma = phy.sinr_threshold();
    let direct_gain: Vec<f64> = txs.iter().map(|t| topo.gain(t.tx(), t.rx())).collect();
    let noise: Vec<f64> = txs
        .iter()
        .map(|t| {
            spectrum
                .bandwidth(t.band())
                .noise_power_watts(phy.noise_density())
        })
        .collect();
    let cap: Vec<f64> = txs
        .iter()
        .map(|t| max_powers[t.tx().index()].as_watts())
        .collect();
    // Cross gains between co-channel transmissions; 0 across bands.
    let mut cross = vec![0.0; n * n];
    for k in 0..n {
        for l in 0..n {
            if k != l && txs[k].band() == txs[l].band() {
                cross[k * n + l] = topo.gain(txs[l].tx(), txs[k].rx());
            }
        }
    }

    // Start from the noise-only lower bound and iterate the monotone map.
    let mut p: Vec<f64> = (0..n).map(|k| gamma * noise[k] / direct_gain[k]).collect();
    if let Some(k) = (0..n).find(|&k| p[k] > cap[k]) {
        return Err(PowerControlError::Infeasible {
            transmission_index: k,
        });
    }
    for _ in 0..MAX_ITERATIONS {
        let mut converged = true;
        for k in 0..n {
            let interference: f64 = (0..n).map(|l| cross[k * n + l] * p[l]).sum();
            let required = gamma * (noise[k] + interference) / direct_gain[k];
            if required > cap[k] {
                return Err(PowerControlError::Infeasible {
                    transmission_index: k,
                });
            }
            if required > p[k] * (1.0 + RELATIVE_TOLERANCE) {
                converged = false;
            }
            // Gauss–Seidel style in-place update: still monotone from below.
            p[k] = required.max(p[k]);
        }
        if converged {
            return Ok(p.into_iter().map(Power::from_watts).collect());
        }
    }
    Err(PowerControlError::NonConvergent)
}

fn assert_caps(net: &Network, max_powers: &[Power]) {
    assert_eq!(
        max_powers.len(),
        net.topology().len(),
        "one power cap per node required"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sinr_matrix, Transmission};
    use greencell_net::{BandId, NetworkBuilder, NodeId, PathLossModel, Point};
    use greencell_units::Bandwidth;

    fn phy() -> PhyConfig {
        PhyConfig::new(1.0, 1e-20)
    }

    #[test]
    fn empty_schedule_is_trivially_feasible() {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        b.add_base_station(Point::new(0.0, 0.0));
        let net = b.build().unwrap();
        let s = Schedule::new();
        let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]);
        let caps = vec![Power::from_watts(20.0)];
        assert!(min_power_assignment(&net, &s, &spectrum, &phy(), &caps)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn single_link_gets_noise_limited_minimum() {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        let bs = b.add_base_station(Point::new(0.0, 0.0));
        let u = b.add_user(Point::new(100.0, 0.0));
        let net = b.build().unwrap();
        let mut s = Schedule::new();
        s.try_add(&net, Transmission::new(bs, u, BandId::from_index(0)))
            .unwrap();
        let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]);
        let caps = vec![Power::from_watts(20.0), Power::from_watts(1.0)];
        let p = min_power_assignment(&net, &s, &spectrum, &phy(), &caps).unwrap();
        // P = Γ·ηW/g = 1e-14 / 6.25e-7 = 1.6e-8 W.
        assert!((p[0].as_watts() - 1.6e-8).abs() < 1e-20);
        // And it indeed achieves the threshold.
        let sinrs = sinr_matrix(&net, &s, &spectrum, &phy(), &p);
        assert!((sinrs[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cochannel_links_settle_above_isolated_minimum() {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        let a = b.add_base_station(Point::new(0.0, 0.0));
        let x = b.add_user(Point::new(100.0, 0.0));
        let c = b.add_base_station(Point::new(1500.0, 0.0));
        let y = b.add_user(Point::new(1400.0, 0.0));
        let net = b.build().unwrap();
        let mut s = Schedule::new();
        s.try_add(&net, Transmission::new(a, x, BandId::from_index(0)))
            .unwrap();
        s.try_add(&net, Transmission::new(c, y, BandId::from_index(0)))
            .unwrap();
        let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]);
        let caps = vec![Power::from_watts(20.0); 4];
        let p = min_power_assignment(&net, &s, &spectrum, &phy(), &caps).unwrap();
        assert!(p[0].as_watts() > 1.6e-8);
        let sinrs = sinr_matrix(&net, &s, &spectrum, &phy(), &p);
        for s_val in sinrs {
            assert!(s_val >= 1.0 - 1e-6, "achieved SINR {s_val} below threshold");
        }
    }

    #[test]
    fn tight_caps_make_cochannel_pair_infeasible() {
        // Crossed links: each receiver sits next to the *other* transmitter,
        // so every power escalation by one link forces a larger escalation
        // by the other (spectral radius ≫ 1) — infeasible at any cap.
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        let a = b.add_base_station(Point::new(0.0, 0.0));
        let x = b.add_user(Point::new(590.0, 0.0));
        let c = b.add_base_station(Point::new(600.0, 0.0));
        let y = b.add_user(Point::new(10.0, 0.0));
        let net = b.build().unwrap();
        let mut s = Schedule::new();
        s.try_add(&net, Transmission::new(a, x, BandId::from_index(0)))
            .unwrap();
        s.try_add(&net, Transmission::new(c, y, BandId::from_index(0)))
            .unwrap();
        let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]);
        let caps = vec![Power::from_watts(20.0); 4];
        let err = min_power_assignment(&net, &s, &spectrum, &phy(), &caps).unwrap_err();
        assert!(matches!(
            err,
            PowerControlError::Infeasible { .. } | PowerControlError::NonConvergent
        ));
    }

    #[test]
    fn cap_binding_on_direct_path_reports_infeasible() {
        // 2000 m link with a 1 W user cap: even noise-only minimum exceeds it?
        // g = 62.5 * 2000^-4 = 3.9e-12; P_min = 1e-14/3.9e-12 ≈ 2.6e-3 W — OK.
        // Use a much smaller cap to force the violation.
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        let u1 = b.add_user(Point::new(0.0, 0.0));
        let u2 = b.add_user(Point::new(2000.0, 0.0));
        b.add_base_station(Point::new(500.0, 500.0));
        let net = b.build().unwrap();
        let mut s = Schedule::new();
        s.try_add(&net, Transmission::new(u1, u2, BandId::from_index(0)))
            .unwrap();
        let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]);
        let caps = vec![
            Power::from_watts(1e-6),
            Power::from_watts(1e-6),
            Power::from_watts(20.0),
        ];
        assert_eq!(
            min_power_assignment(&net, &s, &spectrum, &phy(), &caps).unwrap_err(),
            PowerControlError::Infeasible {
                transmission_index: 0
            }
        );
    }

    #[test]
    fn powers_are_minimal_among_feasible() {
        // Any uniform scaling below the returned vector must violate (24).
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        let a = b.add_base_station(Point::new(0.0, 0.0));
        let x = b.add_user(Point::new(100.0, 0.0));
        let c = b.add_base_station(Point::new(1900.0, 0.0));
        let y = b.add_user(Point::new(1800.0, 0.0));
        let net = b.build().unwrap();
        let mut s = Schedule::new();
        s.try_add(&net, Transmission::new(a, x, BandId::from_index(0)))
            .unwrap();
        s.try_add(&net, Transmission::new(c, y, BandId::from_index(0)))
            .unwrap();
        let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]);
        let caps = vec![Power::from_watts(20.0); 4];
        let p = min_power_assignment(&net, &s, &spectrum, &phy(), &caps).unwrap();
        let shrunk: Vec<Power> = p.iter().map(|q| *q * 0.99).collect();
        let sinrs = sinr_matrix(&net, &s, &spectrum, &phy(), &shrunk);
        assert!(sinrs.iter().any(|&v| v < 1.0));
    }

    #[test]
    #[should_panic(expected = "one power cap per node")]
    fn cap_count_mismatch_panics() {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        b.add_base_station(Point::new(0.0, 0.0));
        b.add_user(Point::new(10.0, 0.0));
        let net = b.build().unwrap();
        let s = Schedule::new();
        let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]);
        let _ = min_power_assignment(&net, &s, &spectrum, &phy(), &[Power::from_watts(1.0)]);
    }

    #[test]
    fn node_id_sanity() {
        // Guard the assumption that NodeId indexes align with cap vectors.
        assert_eq!(NodeId::from_index(3).index(), 3);
    }
}
