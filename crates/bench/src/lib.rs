//! Shared fixtures for the Criterion benchmarks in `benches/`.
//!
//! Three bench binaries cover the reproduction:
//!
//! * `figures` — one benchmark per paper figure (2(a)–2(f)), each running
//!   the corresponding experiment on a horizon-reduced paper scenario;
//! * `solvers` — micro-benchmarks of the hand-rolled substrates (simplex,
//!   S4 marginal-price solver, Foschini–Miljanic power control, queue
//!   updates, one full controller step);
//! * `ablation` — design-choice ablations called out in DESIGN.md
//!   (greedy vs. sequential-fix S1; marginal-price vs. grid-only S4).

#![forbid(unsafe_code)]

use greencell_core::{Controller, EnergyManagementInput, S1Inputs, SlotObservation};
use greencell_energy::{Battery, NodeEnergyModel, QuadraticCost};
use greencell_net::{Network, NetworkBuilder, NodeId, PathLossModel, Point, SessionId};
use greencell_phy::{PhyConfig, SpectrumState};
use greencell_queue::{FlowPlan, LinkQueueBank};
use greencell_sim::{Scenario, Simulator};
use greencell_stochastic::Rng;
use greencell_units::{Bandwidth, Energy, PacketSize, Packets, Power, TimeDelta};

/// The paper scenario with a bench-friendly horizon.
pub fn bench_scenario(horizon: usize) -> Scenario {
    let mut s = Scenario::paper(42);
    s.horizon = horizon;
    s
}

/// A controller warmed up on `warmup` slots of the paper scenario, plus a
/// fixed observation to feed it, for single-step benchmarks.
pub fn warmed_controller(warmup: usize) -> (Controller, SlotObservation) {
    let scenario = bench_scenario(warmup.max(1));
    let mut sim = Simulator::new(&scenario).expect("scenario builds");
    sim.run().expect("warmup runs");
    let controller = sim.controller().clone();
    let net = controller.network();
    let mut rng = Rng::seed_from(7);
    let bandwidths = (0..net.band_count())
        .map(|i| {
            if i == 0 {
                Bandwidth::from_megahertz(1.0)
            } else {
                Bandwidth::from_megahertz(rng.range_f64(1.0, 2.0))
            }
        })
        .collect();
    let nodes = net.topology().len();
    let obs = SlotObservation {
        spectrum: SpectrumState::new(bandwidths),
        renewable: (0..nodes)
            .map(|_| Energy::from_joules(rng.range_f64(0.0, 300.0)))
            .collect(),
        grid_connected: vec![true; nodes],
        session_demand: vec![Packets::new(600); net.session_count()],
        price_multiplier: 1.0,
        node_available: vec![],
    };
    (controller, obs)
}

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

    /// The paper setup (§VI): the `Scenario::paper` network with the link
    /// backlogs of a controller warmed up for `warmup` slots, the paper's
    /// SINR threshold, noise density, power caps, and slot/packet
    /// constants, and nominal bandwidths (the cellular band plus each
    /// random band's range midpoint).
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails to build or the warm-up run fails.
    #[must_use]
    pub fn paper(warmup: usize) -> Self {
        let mut scenario = Scenario::paper(42);
        scenario.horizon = warmup.max(1);
        let mut sim = Simulator::new(&scenario).expect("paper scenario builds");
        sim.run().expect("paper warmup runs");
        let controller = sim.controller();
        let net = controller.network().clone();
        let links = controller.links().clone();
        let nodes = net.topology().len();
        let max_powers = net
            .topology()
            .nodes()
            .iter()
            .map(|n| {
                if n.kind().is_base_station() {
                    scenario.bs_max_power
                } else {
                    scenario.user_max_power
                }
            })
            .collect();
        let mut bandwidths = vec![Bandwidth::from_megahertz(scenario.cellular_band_mhz)];
        bandwidths.extend(
            scenario
                .random_bands
                .iter()
                .map(|&(lo, hi)| Bandwidth::from_megahertz((lo + hi) / 2.0)),
        );
        bandwidths.truncate(net.band_count());
        Self {
            net,
            links,
            spectrum: SpectrumState::new(bandwidths),
            phy: PhyConfig::new(scenario.sinr_threshold, scenario.noise_density),
            max_powers,
            models: vec![
                NodeEnergyModel::new(Energy::ZERO, Energy::ZERO, scenario.recv_power);
                nodes
            ],
            budget: vec![Energy::from_kilowatt_hours(1.0); nodes],
            slot: scenario.slot,
            packet_size: scenario.packet_size,
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

    /// The paper setup (§VI): backlogs (`z = Z − θ`) and battery states
    /// lifted from a controller warmed up for `warmup` slots of
    /// `Scenario::paper`, with the scenario's cost curve, `V`, and grid
    /// limits, and joule-scale demands/renewables like the live pipeline
    /// feeds S4.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails to build or the warm-up run fails.
    #[must_use]
    pub fn paper(warmup: usize) -> Self {
        let mut scenario = Scenario::paper(42);
        scenario.horizon = warmup.max(1);
        let mut sim = Simulator::new(&scenario).expect("paper scenario builds");
        sim.run().expect("paper warmup runs");
        let controller = sim.controller();
        let net = controller.network();
        let nodes = net.topology().len();
        let mut rng = Rng::seed_from(7);
        let (a, b, c) = scenario.cost;
        Self {
            z: (0..nodes)
                .map(|i| controller.shifted_level(NodeId::from_index(i)))
                .collect(),
            demand: (0..nodes)
                .map(|_| Energy::from_joules(rng.range_f64(0.0, 4.0e5)))
                .collect(),
            renewable: (0..nodes)
                .map(|_| Energy::from_joules(rng.range_f64(0.0, 3.0e5)))
                .collect(),
            batteries: (0..nodes)
                .map(|i| *controller.battery(NodeId::from_index(i)))
                .collect(),
            grid_connected: vec![true; nodes],
            grid_limits: vec![scenario.grid_limit; nodes],
            is_bs: net
                .topology()
                .nodes()
                .iter()
                .map(|n| n.kind().is_base_station())
                .collect(),
            cost: QuadraticCost::new(a, b, c),
            v: scenario.v,
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
