//! `greencell-core` — the paper's primary contribution: an online
//! finite-queue-aware energy-cost minimizer for multi-hop green cellular
//! networks, built on Lyapunov drift-plus-penalty optimization
//! (Liao et al., ICDCS 2014, §III–§V).
//!
//! # The problem
//!
//! A cellular provider wants to minimize its long-term time-averaged
//! expected energy cost `lim (1/T) Σ E[f(P(t))]` while every data queue and
//! energy buffer in the network stays *strongly stable* (problem **P1**).
//! P1 is a time-coupling stochastic MINLP. The paper's move is to
//! reformulate it with Lyapunov optimization into a per-slot
//! *drift-plus-penalty* problem (**P3**) whose objective splits into four
//! independent groups of variables (Lemma 1):
//!
//! | term | variables | subproblem | entry point |
//! |------|-----------|------------|-------------|
//! | `Ψ̂₁` | link activations `α^m_ij` | S1 link scheduling | [`greedy_schedule`] / [`sequential_fix_schedule`] |
//! | `Ψ̂₂` | source BS + admissions `k_s` | S2 resource allocation | [`resource_allocation`] |
//! | `Ψ̂₃` | routing `l^s_ij` | S3 routing | [`route_flows_into`] |
//! | `Ψ̂₄` | powers + energy sourcing | S4 energy management | [`solve_energy_management`] |
//!
//! [`Controller`] wires the four solvers into the per-slot pipeline and
//! advances the queue state; [`RelaxedController`] runs the LP-relaxed
//! variant `P̄3` whose achieved cost minus `B/V` is Theorem 5's lower bound
//! on the offline optimum. The drift constants (`β`, `γ_max`, the Lemma 1
//! constant `B`) live in [`dpp`].
//!
//! # Examples
//!
//! ```
//! use greencell_core::{Controller, ControllerConfig, EnergyConfig, NodeEnergyConfig,
//!                      EnergyPolicy, RelayPolicy, SchedulerKind, SlotObservation};
//! use greencell_energy::{Battery, NodeEnergyModel, QuadraticCost};
//! use greencell_net::{NetworkBuilder, PathLossModel, Point};
//! use greencell_phy::{PhyConfig, SpectrumState};
//! use greencell_units::*;
//!
//! // Two-node network: one BS, one user, one session.
//! let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
//! let bs = b.add_base_station(Point::new(0.0, 0.0));
//! let u = b.add_user(Point::new(300.0, 0.0));
//! b.add_session(u, DataRate::from_kilobits_per_second(100.0));
//! let net = b.build()?;
//!
//! let node = |max_w: f64| NodeEnergyConfig {
//!     battery: Battery::new(Energy::from_kilowatt_hours(1.0),
//!                           Energy::from_kilowatt_hours(0.1),
//!                           Energy::from_kilowatt_hours(0.1)),
//!     energy_model: NodeEnergyModel::new(Energy::ZERO, Energy::ZERO,
//!                                        Power::from_milliwatts(100.0)),
//!     max_power: Power::from_watts(max_w),
//!     grid_limit: Energy::from_kilowatt_hours(0.2),
//! };
//! let energy = EnergyConfig { nodes: vec![node(20.0), node(1.0)],
//!                             cost: QuadraticCost::paper_default() };
//! let config = ControllerConfig {
//!     v: 1e5,
//!     lambda: 0.2,
//!     k_max: Packets::new(1000),
//!     packet_size: PacketSize::from_bits(10_000),
//!     slot: TimeDelta::from_minutes(1.0),
//!     scheduler: SchedulerKind::Greedy,
//!     relay: RelayPolicy::MultiHop,
//!     energy_policy: EnergyPolicy::MarginalPrice,
//!     w_max: Bandwidth::from_megahertz(2.0),
//!     degradation: Default::default(),
//!     bs_sleep: None,
//!     energy_coop: None,
//! };
//! let mut ctl = Controller::new(net, PhyConfig::new(1.0, 1e-20), energy, config)?;
//!
//! let obs = SlotObservation {
//!     spectrum: SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]),
//!     renewable: vec![Energy::from_joules(300.0); 2],
//!     grid_connected: vec![true, true],
//!     session_demand: vec![Packets::new(600)],
//!     price_multiplier: 1.0,
//!     node_available: vec![],
//! };
//! let report = ctl.step(&obs)?;
//! assert!(report.cost >= 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod controller;
pub mod dpp;
mod energy;
mod lower_bound;
mod netstate;
mod partition;
pub mod pipeline;
mod s1;
mod s2;
mod s3;
mod s4;
mod state;

pub use config::{
    ControllerConfig, DegradationPolicy, EnergyConfig, EnergyPolicy, NodeEnergyConfig, RelayPolicy,
    SchedulerKind,
};
pub use controller::{
    Controller, ControllerError, ControllerState, DegradationEvent, SlotReport, StageTimings,
};
pub use lower_bound::{LowerBoundSeries, RelaxedController, RelaxedState};
pub use netstate::{CoopPolicy, NetworkState, SleepPolicy};
pub use partition::{fan_out, ClusterSet, Part, PartSpec};
pub use pipeline::SlotContext;
pub use s1::{
    first_sinr_violation, greedy_schedule, greedy_schedule_reference, greedy_schedule_with,
    sequential_fix_schedule, sequential_fix_schedule_reference, sequential_fix_schedule_with,
    FrontierCounts, S1Inputs, S1Scratch, ScheduleOutcome,
};
pub use s2::{
    admission_valve_open, resource_allocation, resource_allocation_masked_into, Admission,
};
pub use s3::{route_flows_into, route_flows_reference, RoutingTable, S3Scratch};
pub use s4::{
    energy_lockstep_divergence, solve_energy_management, solve_energy_management_into,
    solve_energy_management_reference, solve_grid_only, solve_grid_only_into, solve_safe_mode,
    Check, EnergyManagementError, EnergyManagementInput, EnergyOutcome, NodeAnswer, S4Failure,
    S4Workspace, SafeModeOutcome,
};
// The frozen benchmark harness (`perfbench/`) still calls the sweep by its former name.
#[doc(hidden)]
pub use s4::solve_energy_management_into as solve_energy_management_warm_into;
pub use state::SlotObservation;
