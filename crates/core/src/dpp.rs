//! Drift-plus-penalty constants and diagnostic evaluations (Lemma 1).
//!
//! The Lyapunov analysis of §IV-B hinges on three constants:
//!
//! * `β` — the largest per-slot link service in packets,
//!   `max_{ij} (1/δ)·c^max_ij·Δt`, which scales the virtual queues
//!   `H_ij = β·G_ij`;
//! * `γ_max` — the largest marginal of the cost function over the feasible
//!   grid draws, which shifts the battery queues
//!   `z_i = x_i − V·γ_max − d^max_i`;
//! * `B` — Lemma 1's additive constant (Eq. (34)), which sets the `B/V`
//!   optimality gap of Theorem 5.
//!
//! Capacity in the paper's Physical Model is `W_m·log2(1+Γ)` regardless of
//! distance (Eq. (1)), so the per-link maxima `c^max_ij` are all equal to
//! the bound derived from `w_max`, making these closed forms exact rather
//! than conservative.

use crate::{ControllerConfig, EnergyConfig};
use greencell_energy::CostFn;
use greencell_energy::QuadraticCost;
use greencell_phy::PhyConfig;
use greencell_units::Energy;

/// The scaling constant `β = max_{ij} (1/δ)·c^max_ij·Δt` in packets per
/// slot (not floored — the analysis uses the real-valued bound).
#[must_use]
pub fn beta(config: &ControllerConfig, phy: &PhyConfig) -> f64 {
    let c_max = config.w_max.shannon_rate(phy.sinr_threshold());
    (c_max * config.slot).count() / config.packet_size.as_bits_f64()
}

/// The largest feasible total grid draw per slot: `Σ_{i∈ℬ} p^max_i`
/// (mobile-user draws do not enter `P(t)` per §II-E). `is_bs` flags the
/// base stations in node order.
#[must_use]
fn max_grid_draw(is_bs: &[bool], energy: &EnergyConfig) -> Energy {
    is_bs
        .iter()
        .zip(&energy.nodes)
        .filter(|(&bs, _)| bs)
        .map(|(_, node)| node.grid_limit)
        .sum()
}

/// The shift constant `γ_max`: the largest first-order derivative of
/// `f(P)` over feasible draws.
#[must_use]
pub fn gamma_max(is_bs: &[bool], energy: &EnergyConfig) -> f64 {
    energy.cost.max_marginal(max_grid_draw(is_bs, energy))
}

/// The shifted battery level `z_i(t) = x_i(t) − V·γ_max − d^max_i`, in
/// kilowatt-hours (can be — and under the paper's parameters always is —
/// negative).
#[must_use]
pub fn shifted_level(level: Energy, v: f64, gamma_max: f64, discharge_limit: Energy) -> f64 {
    level.as_kilowatt_hours() - v * gamma_max - discharge_limit.as_kilowatt_hours()
}

/// Lemma 1's constant `B` (Eq. (34)) for a network whose node kinds are
/// `is_bs` (base stations flagged, node order) carrying `sessions`
/// sessions.
///
/// Units are mixed exactly as in the paper: packet² terms from the data and
/// virtual queues, kWh² terms from the energy buffers.
#[must_use]
pub fn penalty_constant_b(
    is_bs: &[bool],
    sessions: usize,
    energy: &EnergyConfig,
    config: &ControllerConfig,
    phy: &PhyConfig,
) -> f64 {
    let n = is_bs.len();
    let s = sessions;
    let b = beta(config, phy);
    let k_max = config.k_max.count_f64();

    // ½ Σ_s Σ_i [ (max_j (1/δ)c^max_ij Δt)² + (max_j (1/δ)c^max_ji Δt + l^max_s·1{i∈ℬ})² ].
    let mut total = 0.0;
    for _ in 0..s {
        for &bs in is_bs {
            let arrival_bound = if bs { b + k_max } else { b };
            total += 0.5 * (b * b + arrival_bound * arrival_bound);
        }
    }
    // Σ_i Σ_{j≠i} [(β/δ)·c^max_ij·Δt]² = Σ (β·β)².
    total += (n * (n - 1)) as f64 * (b * b) * (b * b);
    // ½ Σ_i max{(c^max_i)², (d^max_i)²} in kWh².
    for node_cfg in &energy.nodes {
        let c = node_cfg.battery.charge_limit().as_kilowatt_hours();
        let d = node_cfg.battery.discharge_limit().as_kilowatt_hours();
        total += 0.5 * (c * c).max(d * d);
    }
    total
}

/// The slot's effective cost function: the provider's base quadratic `f`
/// with every coefficient scaled by the observation's time-of-use price
/// multiplier. Shared by the online S4 stage and the relaxed lower-bound
/// controller (the multiplication order is part of the bit-exactness
/// contract).
#[must_use]
pub fn scaled_cost(cost: &QuadraticCost, multiplier: f64) -> QuadraticCost {
    QuadraticCost::new(
        cost.quadratic() * multiplier,
        cost.linear() * multiplier,
        cost.constant() * multiplier,
    )
}

/// Diagnostic: evaluates `Ψ̂₁ = −(β/δ)·Σ_ij H_ij·Σ_m c^m_ij α^m_ij Δt`
/// given per-link weighted service. `h_times_service` supplies
/// `H_ij · (service packets on (i,j))` summands.
#[must_use]
pub fn psi1(beta: f64, h_times_service: impl IntoIterator<Item = f64>) -> f64 {
    -beta * h_times_service.into_iter().sum::<f64>()
}

/// Diagnostic: evaluates `Ψ̂₂ = Σ_s (Q^s_{ss} − λV)·k_s` for the chosen
/// sources.
#[must_use]
pub fn psi2(terms: impl IntoIterator<Item = (f64, f64)>, lambda: f64, v: f64) -> f64 {
    terms
        .into_iter()
        .map(|(q_source, k)| (q_source - lambda * v) * k)
        .sum()
}

/// Diagnostic: evaluates
/// `Ψ̂₃ = Σ_s Σ_ij (−Q^s_i + Q^s_j + β·H_ij)·l^s_ij` given per-flow terms
/// `(coefficient, l)`.
#[must_use]
pub fn psi3(terms: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    terms.into_iter().map(|(coeff, l)| coeff * l).sum()
}

/// Diagnostic: the left-hand side of Lemma 1's inequality for one slot,
/// `Δ(Θ) + V·(f(P) − λ·Σ k_s)`, from the sampled Lyapunov values.
#[must_use]
pub fn drift_plus_penalty(
    lyapunov_before: f64,
    lyapunov_after: f64,
    v: f64,
    cost: f64,
    lambda: f64,
    admitted: f64,
) -> f64 {
    (lyapunov_after - lyapunov_before) + v * (cost - lambda * admitted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RelayPolicy, SchedulerKind};
    use greencell_energy::{Battery, NodeEnergyModel, QuadraticCost};
    use greencell_net::{Network, NetworkBuilder, PathLossModel, Point};
    use greencell_units::{Bandwidth, DataRate, PacketSize, Packets, Power, TimeDelta};

    fn setup() -> (Network, EnergyConfig, ControllerConfig, PhyConfig) {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        let _bs = b.add_base_station(Point::new(0.0, 0.0));
        let u = b.add_user(Point::new(100.0, 0.0));
        b.add_session(u, DataRate::from_kilobits_per_second(100.0));
        let net = b.build().unwrap();
        let node = NodeEnergyConfig {
            battery: Battery::new(
                Energy::from_kilowatt_hours(1.0),
                Energy::from_kilowatt_hours(0.1),
                Energy::from_kilowatt_hours(0.06),
            ),
            energy_model: NodeEnergyModel::new(Energy::ZERO, Energy::ZERO, Power::ZERO),
            max_power: Power::from_watts(20.0),
            grid_limit: Energy::from_kilowatt_hours(0.2),
        };
        let energy = EnergyConfig {
            nodes: vec![node; 2],
            cost: QuadraticCost::paper_default(),
        };
        let config = ControllerConfig {
            v: 1e5,
            lambda: 0.2,
            k_max: Packets::new(1000),
            packet_size: PacketSize::from_bits(10_000),
            slot: TimeDelta::from_minutes(1.0),
            scheduler: SchedulerKind::Greedy,
            relay: RelayPolicy::MultiHop,
            energy_policy: crate::EnergyPolicy::MarginalPrice,
            w_max: Bandwidth::from_megahertz(2.0),
            degradation: Default::default(),
            bs_sleep: None,
            energy_coop: None,
        };
        (net, energy, config, PhyConfig::new(1.0, 1e-20))
    }

    use crate::NodeEnergyConfig;

    #[test]
    fn beta_matches_closed_form() {
        let (_, _, config, phy) = setup();
        // 2 MHz · log2(2) · 60 s / 10⁴ bits = 12 000 packets.
        assert!((beta(&config, &phy) - 12_000.0).abs() < 1e-9);
    }

    #[test]
    fn gamma_max_is_marginal_at_peak_draw() {
        let (_, energy, _, _) = setup();
        // One BS with p_max = 0.2 kWh: γ_max = 2·0.8·0.2 + 0.2 = 0.52.
        assert!((gamma_max(&[true, false], &energy) - 0.52).abs() < 1e-12);
        assert_eq!(
            max_grid_draw(&[true, false], &energy),
            Energy::from_kilowatt_hours(0.2)
        );
    }

    #[test]
    fn shifted_level_is_negative_under_paper_scale() {
        let z = shifted_level(
            Energy::from_kilowatt_hours(0.5),
            1e5,
            0.52,
            Energy::from_kilowatt_hours(0.06),
        );
        assert!(z < 0.0);
        assert!((z - (0.5 - 52_000.0 - 0.06)).abs() < 1e-9);
    }

    #[test]
    fn penalty_constant_matches_eq34() {
        let (_, energy, config, phy) = setup();
        let b = beta(&config, &phy);
        let k = 1000.0;
        // S = 1, nodes: one BS, one user.
        let queue_terms = 0.5 * ((b * b + (b + k) * (b + k)) + (b * b + b * b));
        let link_terms = 2.0 * (b * b) * (b * b);
        let energy_terms = 2.0 * 0.5 * (0.1f64 * 0.1).max(0.06 * 0.06);
        let expected = queue_terms + link_terms + energy_terms;
        let got = penalty_constant_b(&[true, false], 1, &energy, &config, &phy);
        assert!((got / expected - 1.0).abs() < 1e-12, "{got} vs {expected}");
    }

    #[test]
    fn psi_diagnostics() {
        assert_eq!(psi1(2.0, [3.0, 4.0]), -14.0);
        // (Q − λV)k: (100 − 0.2·1000)·5 = −500.
        assert_eq!(psi2([(100.0, 5.0)], 0.2, 1000.0), -500.0);
    }
}
