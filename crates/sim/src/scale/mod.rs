//! City-scale scenarios: spatial indexing, interference pruning, and the
//! cluster partition the one slot driver solves over.
//!
//! The paper's evaluation runs 22 nodes; this module grows the same
//! pipeline to 10⁵ users without changing a single decision it makes:
//!
//! * [`Scenario::city`](crate::Scenario::city) — a deterministic
//!   city-scale scenario generator: Poisson-disk base-station placement,
//!   clustered user hotspots, per-cell diurnal traffic, and the provably
//!   lossless interference pruning floor of
//!   `PhyConfig::prune_gain_floor` already applied.
//! * [`decompose`] — connected components of the pruned interference
//!   graph as a [`ClusterSet`](greencell_core::ClusterSet), found with the `GridIndex` spatial hash in
//!   `Θ(n)` expected time. Pruning is *exact-zero only*: a gain is zeroed
//!   iff it is already below the receiver's thermal noise floor, so the
//!   components are interference-closed and independent per-slot
//!   subproblems.
//!
//! [`Simulator`] partitions every unshadowed scenario by
//! its clusters: with several, it hands one sub-network per cluster to
//! [`Controller::partitioned`](greencell_core::Controller::partitioned),
//! which solves each cluster's S1–S3 and its non-BS nodes' S4 answers in
//! one pass and applies its batteries and advances its queues in another
//! (both on [`fan_out`](greencell_core::fan_out) worker threads), and
//! solves S4's base-station coupling once (the grid cost couples every base
//! station through `f(P)`); it never builds the dense
//! `n × n` network. With
//! pruning disabled there is one cluster and the run is the dense
//! pipeline. Faults, Markov grid chains, BS sleeping, energy cooperation,
//! tracing and snapshots all work on either.
//!
//! Shadowed scenarios are not partitioned: log-normal shadowing breaks the
//! geometric closure argument. Routing is restricted to within-cluster
//! links — a *principled* divergence from the dense pipeline, not an
//! approximation: a pruned (exact-zero) gain can never satisfy the SINR
//! threshold, so a cross-cluster link can never be scheduled and any flow
//! routed onto it would queue forever.

mod city;
mod cluster;

pub use cluster::decompose;
pub(crate) use cluster::parts;

use crate::{Scenario, SimError, Simulator};
use greencell_core::{Controller, SlotObservation, SlotReport};

/// A city-scale run: a [`Simulator`] whose per-cluster solves use up to
/// `workers` threads, under the step-by-step API the benchmark harness
/// drives. It has no slot logic or random streams of its own.
#[derive(Debug)]
pub struct CitySim {
    sim: Simulator,
}

impl CitySim {
    /// Builds the simulator, solving clusters on up to `workers` threads
    /// per slot. Worker count does not affect results, only wall-clock.
    ///
    /// # Errors
    ///
    /// See [`Simulator::with_workers`].
    pub fn with_workers(scenario: &Scenario, workers: usize) -> Result<Self, SimError> {
        Ok(Self {
            sim: Simulator::with_workers(scenario, workers)?,
        })
    }

    /// Draws the next slot's observation without stepping; see
    /// [`Simulator::next_observation`].
    pub fn next_observation(&mut self) -> SlotObservation {
        self.sim.next_observation()
    }

    /// Draws one observation and steps the controller.
    ///
    /// # Errors
    ///
    /// Propagates [`Simulator::step_with_report`] errors.
    pub fn step(&mut self) -> Result<SlotReport, SimError> {
        self.sim.step_with_report()
    }

    /// The controller.
    #[must_use]
    pub fn controller(&self) -> &Controller {
        self.sim.controller()
    }

    /// Mutable access to the controller, for callers that pre-draw
    /// observations with [`CitySim::next_observation`].
    pub fn controller_mut(&mut self) -> &mut Controller {
        self.sim.controller_mut()
    }
}
