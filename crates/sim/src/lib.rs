//! Time-slotted simulator and experiment harness for the ICDCS 2014
//! evaluation (paper §VI).
//!
//! * [`Scenario`] — a complete experiment description; [`Scenario::paper`]
//!   encodes every §VI parameter (2000 m × 2000 m, 2 BSs, 20 users, 1+4
//!   bands, `Γ = 1`, `η = 10⁻²⁰` W/Hz, `f(P) = 0.8P² + 0.2P`, …) and
//!   documents the handful the paper leaves unspecified.
//! * [`Architecture`] — the four systems of Fig. 2(f): the proposed
//!   scheme, multi-hop without renewables, one-hop with renewables, and
//!   one-hop without renewables.
//! * [`Simulator`] — drives a [`greencell_core::Controller`] (and
//!   optionally the relaxed lower-bound controller on the *same* random
//!   observations) and collects [`RunMetrics`].
//! * [`experiments`] — the figure runners: one `V` sweep whose outcomes
//!   hold every Fig. 2(b)–(e) series, and the Fig. 2(a)/(f) reductions;
//!   the `greencell fig2a`/`fig2bc`/`fig2de`/`fig2f` subcommands print
//!   them through [`report`].
//!
//! # Examples
//!
//! ```
//! use greencell_sim::{Scenario, Simulator};
//!
//! let scenario = Scenario::tiny(42); // small network for quick runs
//! let mut sim = Simulator::new(&scenario)?;
//! let metrics = sim.run()?;
//! assert_eq!(metrics.cost_series().len(), scenario.horizon);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod engine;
pub mod experiments;
pub mod faults;
pub mod frontier;
pub mod fsio;
mod metrics;
pub mod report;
mod resume;
pub mod scale;
mod scenario;
pub mod serve;
pub mod snapshot;
pub mod sweep;
pub mod trace;

pub use arch::Architecture;
pub use engine::{SimError, Simulator};
pub use faults::{FaultPlan, FaultSpec, StabilityWatchdog, WatchdogReport, WatchdogState};
pub use frontier::{run_frontier, FrontierMap, FrontierOptions, FrontierPoint, FrontierStats};
pub use fsio::{fnv1a_64, write_text_atomic};
pub use greencell_core::ClusterSet;
pub use metrics::RunMetrics;
pub use scale::CitySim;
pub use scenario::{
    DemandModel, DiurnalProfile, GridModel, Placement, Scenario, ScenarioLayout, TouPricing,
};
pub use serve::{run_serve, ServeConfig, ServeSummary, StopReason, SNAP_LATEST, SNAP_PREV};
pub use snapshot::{SimSnapshot, SNAPSHOT_FORMAT, SNAPSHOT_VERSION};
pub use sweep::{
    derive_point_seed, run_point, run_point_traced, run_sweep, run_sweep_checkpointed,
    run_sweep_reseeded, run_sweep_traced, write_telemetry, PointOutcome, ResumeCounts,
    RunTelemetry, SweepOptions, SweepPoint, SweepReport,
};
pub use trace::{check_trace_determinism, trace_points, write_trace_artifacts, TracedRun};
