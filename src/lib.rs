//! # greencell
//!
//! A Rust reproduction of *"Optimal Energy Cost for Strongly Stable
//! Multi-hop Green Cellular Networks"* (Liao, Li, Salinas, Li & Pan,
//! IEEE ICDCS 2014): an online Lyapunov drift-plus-penalty controller
//! that minimizes a cellular provider's long-term energy cost — jointly
//! choosing link scheduling, routing, transmit powers, and
//! grid/renewable/battery energy sourcing — while keeping every data
//! queue and energy buffer strongly stable.
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`units`] | `greencell-units` | typed quantities (W, J, Hz, m, s, packets) |
//! | [`stochastic`] | `greencell-stochastic` | seeded RNG, Poisson demand, Markov on/off chains, statistics |
//! | [`net`] | `greencell-net` | topology, path loss, spectrum, sessions |
//! | [`phy`] | `greencell-phy` | SINR model, capacities, schedules, power control |
//! | [`queue`] | `greencell-queue` | data/virtual queues, flow plans, Lyapunov function, stability |
//! | [`energy`] | `greencell-energy` | batteries, renewables, grid, cost functions |
//! | [`lp`] | `greencell-lp` | two-phase simplex, scalar search |
//! | [`core`] | `greencell-core` | **the paper's contribution**: the S1–S4 controller and bounds |
//! | [`sim`] | `greencell-sim` | paper scenario, simulator, per-figure experiments |
//!
//! # Quickstart
//!
//! Run the paper's evaluation scenario for ten minutes of simulated time:
//!
//! ```
//! use greencell::sim::{Scenario, Simulator};
//!
//! let mut scenario = Scenario::paper(42);
//! scenario.horizon = 10;
//! let mut sim = Simulator::new(&scenario)?;
//! let metrics = sim.run()?;
//! println!("time-averaged energy cost: {}", metrics.average_cost());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for runnable binaries (quickstart, the full paper
//! scenario, the architecture comparison, a stability study, bursty
//! traffic, and time-of-use pricing) and the `greencell` CLI ([`cli`]),
//! whose `fig2a`/`fig2bc`/`fig2de`/`fig2f` subcommands reproduce the
//! paper's figures one by one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use greencell_core as core;
pub use greencell_energy as energy;
pub use greencell_lp as lp;
pub use greencell_net as net;
pub use greencell_phy as phy;
pub use greencell_queue as queue;
pub use greencell_sim as sim;
pub use greencell_stochastic as stochastic;
pub use greencell_units as units;
