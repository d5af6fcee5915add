//! Deterministic S1 and S4 kernel fixtures for the `perfbench/` harness.
//!
//! perfbench's `probe.s1_cluster` and `probe.s4_city` time the S1 greedy
//! and the S4 breakpoint sweep on these instances, sized like the city's
//! largest cluster and its node count.

#![forbid(unsafe_code)]

use greencell_core::{EnergyManagementInput, S1Inputs};
use greencell_energy::{Battery, NodeEnergyModel, QuadraticCost};
use greencell_net::{Network, NetworkBuilder, NodeId, PathLossModel, Point, SessionId};
use greencell_phy::{PhyConfig, SpectrumState};
use greencell_queue::{FlowPlan, LinkQueueBank};
use greencell_stochastic::Rng;
use greencell_units::{Bandwidth, Energy, PacketSize, Packets, Power, TimeDelta};

/// An owned S1 scheduling instance (network, backlogs, spectrum, energy
/// state) for benchmarking the S1 kernel at a chosen scale. Borrow the
/// per-call view with [`S1Fixture::inputs`].
pub struct S1Fixture {
    net: Network,
    links: LinkQueueBank,
    spectrum: SpectrumState,
    phy: PhyConfig,
    max_powers: Vec<Power>,
    models: Vec<NodeEnergyModel>,
    budget: Vec<Energy>,
    slot: TimeDelta,
    packet_size: PacketSize,
}

impl S1Fixture {
    /// A random-but-deterministic instance with `nodes` nodes (1 base
    /// station per 8 nodes, users scattered on a disc), 2 bands, and
    /// roughly `2·nodes` backlogged links.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    #[must_use]
    pub fn new(nodes: usize, seed: u64) -> Self {
        assert!(nodes >= 2, "need at least one link");
        let mut rng = Rng::seed_from(seed);
        let bs_count = nodes.div_ceil(8);
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 2);
        for k in 0..nodes {
            let p = Point::new(rng.range_f64(0.0, 4000.0), rng.range_f64(0.0, 4000.0));
            if k < bs_count {
                b.add_base_station(p);
            } else {
                b.add_user(p);
            }
        }
        let net = b.build().expect("fixture network builds");
        let mut links = LinkQueueBank::new(nodes, 100.0);
        let mut plan = FlowPlan::new(nodes, 1);
        for _ in 0..(2 * nodes) {
            let i = rng.index(nodes);
            let j = (i + 1 + rng.index(nodes - 1)) % nodes;
            plan.set(
                SessionId::from_index(0),
                NodeId::from_index(i),
                NodeId::from_index(j),
                Packets::new(rng.below(400)),
            );
        }
        links.advance(&plan, &[]);
        let max_powers = net
            .topology()
            .nodes()
            .iter()
            .map(|n| {
                if n.kind().is_base_station() {
                    Power::from_watts(20.0)
                } else {
                    Power::from_watts(1.0)
                }
            })
            .collect();
        Self {
            net,
            links,
            spectrum: SpectrumState::new(vec![
                Bandwidth::from_megahertz(1.0),
                Bandwidth::from_megahertz(2.0),
            ]),
            phy: PhyConfig::new(1.0, 1e-20),
            max_powers,
            models: vec![
                NodeEnergyModel::new(
                    Energy::ZERO,
                    Energy::ZERO,
                    Power::from_milliwatts(100.0)
                );
                nodes
            ],
            budget: vec![Energy::from_kilowatt_hours(1.0); nodes],
            slot: TimeDelta::from_minutes(1.0),
            packet_size: PacketSize::from_bits(10_000),
        }
    }

    /// The borrowed S1 input view of this fixture.
    #[must_use]
    pub fn inputs(&self) -> S1Inputs<'_> {
        S1Inputs {
            net: &self.net,
            phy: &self.phy,
            spectrum: &self.spectrum,
            links: &self.links,
            max_powers: &self.max_powers,
            energy_models: &self.models,
            traffic_budget: &self.budget,
            available: &[],
            slot: self.slot,
            packet_size: self.packet_size,
        }
    }
}

/// An owned S4 energy-management instance for benchmarking the
/// marginal-price solvers at a chosen scale. Borrow the per-call view
/// with [`S4Fixture::input`].
pub struct S4Fixture {
    z: Vec<f64>,
    demand: Vec<Energy>,
    renewable: Vec<Energy>,
    batteries: Vec<Battery>,
    grid_connected: Vec<bool>,
    grid_limits: Vec<Energy>,
    is_bs: Vec<bool>,
    cost: QuadraticCost,
    v: f64,
}

impl S4Fixture {
    /// A random-but-deterministic paper-scale instance (`V = 1e5`, the
    /// paper cost curve) with `nodes` nodes, every other one a base
    /// station. Backlogs are drawn so the per-node mode-flip prices `−z`
    /// and `−z·η` land on both sides of the equilibrium bracket — the
    /// breakpoints the S4 sweep walks.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`.
    #[must_use]
    pub fn new(nodes: usize, seed: u64) -> Self {
        assert!(nodes > 0, "need at least one node");
        let mut rng = Rng::seed_from(seed);
        let kwh = Energy::from_kilowatt_hours;
        Self {
            z: (0..nodes).map(|_| -rng.range_f64(1.0e4, 1.6e5)).collect(),
            demand: (0..nodes).map(|_| kwh(rng.range_f64(0.0, 0.15))).collect(),
            renewable: (0..nodes).map(|_| kwh(rng.range_f64(0.0, 0.2))).collect(),
            batteries: (0..nodes)
                .map(|_| {
                    Battery::with_level(kwh(1.0), kwh(0.1), kwh(0.1), kwh(rng.range_f64(0.0, 1.0)))
                })
                .collect(),
            grid_connected: vec![true; nodes],
            grid_limits: vec![kwh(0.2); nodes],
            is_bs: (0..nodes).map(|i| i % 2 == 0).collect(),
            cost: QuadraticCost::paper_default(),
            v: 1e5,
        }
    }

    /// The borrowed S4 input view of this fixture.
    #[must_use]
    pub fn input(&self) -> EnergyManagementInput<'_> {
        EnergyManagementInput {
            z: &self.z,
            demand: &self.demand,
            renewable: &self.renewable,
            batteries: &self.batteries,
            grid_connected: &self.grid_connected,
            grid_limits: &self.grid_limits,
            is_base_station: &self.is_bs,
            cost: &self.cost,
            v: self.v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencell_core::{first_sinr_violation, greedy_schedule, solve_energy_management};

    // The sizes perfbench's layer pass probes at, seed 7: its city's largest
    // cluster (73 nodes) and its node count (10 000 users + 200 BSs).

    #[test]
    fn s1_fixture_schedules_a_feasible_link_at_cluster_size() {
        let fixture = S1Fixture::new(73, 7);
        let inputs = fixture.inputs();
        let outcome = greedy_schedule(&inputs);
        assert!(
            !outcome.schedule.is_empty(),
            "the probe must time a non-idle slot"
        );
        assert_eq!(
            first_sinr_violation(&inputs, &outcome, &mut Vec::new()),
            None
        );
    }

    #[test]
    fn s4_fixture_solves_at_city_size() {
        let fixture = S4Fixture::new(10_200, 7);
        let outcome = solve_energy_management(&fixture.input()).expect("S4 solves");
        assert_eq!(outcome.decisions.len(), 10_200);
    }
}
