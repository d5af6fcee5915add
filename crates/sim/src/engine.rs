//! The time-slotted simulation engine.

use crate::faults::{FaultPlan, SlotFaults, StabilityWatchdog};
use crate::{scale, GridModel, RunMetrics, Scenario};
use greencell_core::{Controller, ControllerError, RelaxedController, SlotObservation};
use greencell_net::{Network, NetworkError, NodeId, SessionId};
use greencell_phy::SpectrumState;
use greencell_stochastic::{Distribution, MarkovOnOff, Poisson, Process, Rng};
use greencell_trace::{names, NoopSink, Sink, TraceEvent};
use greencell_units::{Bandwidth, Energy, Packets};
use std::error::Error;
use std::fmt;

/// Error constructing or running a [`Simulator`], or persisting its
/// results.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The scenario produced an invalid network.
    Network(NetworkError),
    /// The controller rejected the configuration or hit an unrecoverable
    /// energy deficit.
    Controller(ControllerError),
    /// A file read or write failed (the message carries the OS error;
    /// `std::io::Error` itself is neither `Clone` nor `PartialEq`).
    Io(String),
    /// Results could not be serialized (e.g. mismatched series lengths in
    /// a CSV block).
    Serialize(String),
    /// A snapshot, sweep manifest or sweep result file failed validation —
    /// torn write, checksum mismatch, malformed payload, or state that
    /// contradicts the scenario it claims to belong to. The file is
    /// unusable but the error is recoverable: callers quarantine the file
    /// and fall back to an older snapshot, a recomputed point, or a fresh
    /// start.
    CorruptSnapshot {
        /// The offending file (or `"<memory>"` for in-memory decodes).
        path: String,
        /// What failed, with expected/found values where applicable.
        detail: String,
    },
    /// The snapshot was written by an incompatible format version.
    SnapshotVersionMismatch {
        /// The offending file.
        path: String,
        /// The version this build reads.
        expected: u32,
        /// The version the file declares.
        found: u32,
    },
    /// The scenario's interference clusters cannot be solved apart: a
    /// session's destination lies in a cluster with no base station, so no
    /// admission source could ever reach it.
    UnsupportedAtScale {
        /// What cannot be partitioned, for the error message.
        detail: String,
    },
    /// A sweep-driver or frontier-search configuration was rejected before
    /// any work started: zero worker processes, an empty point set, an
    /// inverted or non-positive `V` range, a gap tolerance that cannot be
    /// met, … The run never silently degenerates — it fails here.
    InvalidConfig {
        /// Which knob was rejected, and why.
        detail: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Network(e) => write!(f, "network construction failed: {e}"),
            Self::Controller(e) => write!(f, "controller failed: {e}"),
            Self::Io(msg) => write!(f, "I/O failed: {msg}"),
            Self::Serialize(msg) => write!(f, "serialization failed: {msg}"),
            Self::CorruptSnapshot { path, detail } => {
                write!(f, "corrupt snapshot {path}: {detail}")
            }
            Self::SnapshotVersionMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "snapshot {path} has format version {found}, this build reads {expected}"
            ),
            Self::UnsupportedAtScale { detail } => {
                write!(
                    f,
                    "unsupported by the partitioned city-scale path: {detail}"
                )
            }
            Self::InvalidConfig { detail } => {
                write!(f, "invalid configuration: {detail}")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Network(e) => Some(e),
            Self::Controller(e) => Some(e),
            Self::Io(_)
            | Self::Serialize(_)
            | Self::CorruptSnapshot { .. }
            | Self::SnapshotVersionMismatch { .. }
            | Self::UnsupportedAtScale { .. }
            | Self::InvalidConfig { .. } => None,
        }
    }
}

impl From<NetworkError> for SimError {
    fn from(e: NetworkError) -> Self {
        Self::Network(e)
    }
}

impl From<ControllerError> for SimError {
    fn from(e: ControllerError) -> Self {
        Self::Controller(e)
    }
}

impl From<std::io::Error> for SimError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// Drives a [`Controller`] (and optionally the relaxed lower-bound
/// controller on the *same* observations — the paired design behind
/// Fig. 2(a)) through a scenario's horizon.
///
/// The controller is partitioned by the scenario's interference clusters
/// (see [`crate::scale`]) when pruning splits an unshadowed network into
/// several, and covers the whole network otherwise; a partitioned run never
/// builds the dense `n × n` network unless the lower bound is tracked.
///
/// All randomness derives from the scenario seed through independent
/// split streams, so runs are bit-for-bit reproducible and two simulators
/// with the same seed but different control policies see identical
/// weather, spectrum, and connectivity — the common-random-numbers design
/// behind Fig. 2(f).
#[derive(Debug, Clone)]
pub struct Simulator {
    // Fields are crate-visible so the snapshot codec (`crate::snapshot`)
    // can capture and overwrite the evolving state; external callers go
    // through the accessors and `snapshot()`/`restore()`.
    pub(crate) scenario: Scenario,
    pub(crate) controller: Controller,
    pub(crate) relaxed: Option<RelaxedController>,
    pub(crate) band_rng: Rng,
    pub(crate) renewable_rng: Rng,
    pub(crate) grid_rng: Rng,
    pub(crate) demand_rng: Rng,
    /// One sticky connectivity chain per node (used under
    /// [`GridModel::Markov`]; base stations' entries are ignored).
    pub(crate) grid_chains: Vec<MarkovOnOff>,
    /// The pre-expanded fault schedule, when the scenario injects faults.
    pub(crate) fault_plan: Option<FaultPlan>,
    pub(crate) watchdog: StabilityWatchdog,
    pub(crate) metrics: RunMetrics,
    pub(crate) slots_run: usize,
    // Per-node kinds and per-session constants from the scenario layout,
    // never serialized: snapshots rebuild them from the scenario.
    is_bs: Vec<bool>,
    /// Nominal per-session demand in packets per slot.
    session_nominal: Vec<Packets>,
    /// Nearest-BS index per session destination — the diurnal profile's
    /// "cell".
    session_cells: Vec<usize>,
    /// Drive the controller through its frozen pre-pipeline oracle instead
    /// of the staged driver (equivalence testing only).
    reference: bool,
}

impl Simulator {
    /// Builds the network, controller, and random streams for `scenario`,
    /// solving per-cluster S1–S3 on one thread; see
    /// [`Simulator::with_workers`].
    ///
    /// # Errors
    ///
    /// See [`Simulator::with_workers`].
    pub fn new(scenario: &Scenario) -> Result<Self, SimError> {
        Self::with_workers(scenario, 1)
    }

    /// Builds the network (or its cluster sub-networks), controller, and
    /// random streams for `scenario`, solving the clusters' S1–S3 on up to
    /// `workers` threads per slot. Worker count never changes results.
    ///
    /// # Errors
    ///
    /// Propagates network validation and controller construction failures;
    /// [`SimError::UnsupportedAtScale`] if a session destination lies in an
    /// interference cluster without a base station.
    pub fn with_workers(scenario: &Scenario, workers: usize) -> Result<Self, SimError> {
        let layout = scenario.build_layout();
        let is_bs: Vec<bool> = layout.kinds.iter().map(|k| k.is_base_station()).collect();
        // Only pruning splits the interference graph, and shadowed gains
        // are not a function of distance, so shadowed scenarios are never
        // partitioned.
        let clusters = (scenario.gain_floor > 0.0 && layout.shadowing_db.is_empty())
            .then(|| scale::decompose(&layout, scenario))
            .filter(|c| c.len() > 1);
        let partitioned = clusters.is_some();
        // Stream discipline: the scenario's topology stream is the master's
        // first split (consumed inside `build_layout`); the simulator takes
        // the subsequent splits in a fixed order.
        let mut master = Rng::seed_from(scenario.seed);
        let _topology_stream = master.split();
        let band_rng = master.split();
        let renewable_rng = master.split();
        let mut grid_rng = master.split();
        let demand_rng = master.split();
        // The fault stream splits *after* every pre-existing stream, so a
        // fault-free scenario keeps its historical sample paths bit-exact.
        let mut fault_rng = master.split();
        let fault_plan = scenario.faults.as_ref().map(|spec| {
            FaultPlan::generate(
                spec,
                &is_bs,
                scenario.band_count(),
                scenario.horizon,
                &mut fault_rng,
            )
        });
        let grid_chains = match scenario.grid_model {
            GridModel::Iid => Vec::new(),
            GridModel::Markov { stay_on, stay_off } => (0..layout.len())
                .map(|_| {
                    MarkovOnOff::new(stay_on, stay_off, true, grid_rng.split())
                        .expect("validated probabilities")
                })
                .collect(),
        };

        let energy = scenario.energy_config_for(is_bs.iter().copied());
        let config = scenario.controller_config();
        let phy = scenario.phy();
        let relaxed_energy = scenario.track_lower_bound.then(|| energy.clone());
        let controller = match clusters {
            Some(clusters) => {
                let parts = scale::parts(&layout, scenario, &clusters)?;
                Controller::partitioned(parts, clusters, phy, energy, config, workers)?
            }
            None => Controller::new(layout.assemble(scenario)?, phy, energy, config)?,
        };
        // The relaxed P̄3 controller is not partitioned: it always solves
        // the dense network.
        let relaxed = match relaxed_energy {
            Some(energy) => {
                let net = if partitioned {
                    layout.assemble(scenario)?
                } else {
                    controller.network().clone()
                };
                Some(RelaxedController::new(net, phy, energy, config))
            }
            None => None,
        };
        let total_demand: f64 = (0..scenario.sessions)
            .map(|_| scenario.demand_packets_per_slot().count_f64())
            .sum();
        let watchdog = StabilityWatchdog::for_demand(total_demand);
        let session_nominal = layout
            .sessions
            .iter()
            .map(|&(_, demand)| (demand * scenario.slot).whole_packets(scenario.packet_size))
            .collect();
        Ok(Self {
            scenario: scenario.clone(),
            controller,
            relaxed,
            band_rng,
            renewable_rng,
            grid_rng,
            demand_rng,
            grid_chains,
            fault_plan,
            watchdog,
            metrics: RunMetrics::new(),
            slots_run: 0,
            is_bs,
            session_nominal,
            session_cells: layout.session_cells(),
            reference: false,
        })
    }

    /// Routes every subsequent step through the controller's frozen
    /// pre-pipeline oracle (`Controller::step_reference`) instead of the
    /// staged driver. Equivalence-test plumbing, not part of the public
    /// API: observations, faults, and metrics are produced identically, so
    /// a reference run and a pipeline run from the same scenario must
    /// match bit for bit.
    #[doc(hidden)]
    pub fn set_reference(&mut self, reference: bool) {
        self.reference = reference;
    }

    /// The controller under simulation.
    #[must_use]
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Mutable access to the controller under simulation, e.g. to swap an
    /// energy stage through [`Controller::set_energy_stage`] for an
    /// ablation run. Swapping mid-run changes behaviour from the next slot
    /// onward only; queue and battery state carry over.
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }

    /// The network under simulation.
    ///
    /// # Panics
    ///
    /// Panics on a partitioned run, which never assembles the whole
    /// network (see [`Controller::network`]).
    #[must_use]
    pub fn network(&self) -> &Network {
        self.controller.network()
    }

    /// Metrics collected so far.
    #[must_use]
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// The relaxed controller's time-averaged admissions, when tracked.
    #[must_use]
    pub fn relaxed_average_admitted(&self) -> Option<f64> {
        self.relaxed.as_ref().map(|r| r.average_admitted())
    }

    /// The strong-stability watchdog's view of the run so far.
    #[must_use]
    pub fn watchdog(&self) -> &StabilityWatchdog {
        &self.watchdog
    }

    /// The expanded fault schedule, when the scenario injects faults.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Slots advanced so far — the fault-plan cursor and the next slot
    /// index [`Simulator::step`] will run.
    #[must_use]
    pub fn slots_run(&self) -> usize {
        self.slots_run
    }

    /// The scenario this simulator was built from.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Runs the remaining horizon and finalizes — identical to
    /// [`Simulator::run`], which already continues from `slots_run`; the
    /// alias exists so restore-and-resume call sites read as what they do.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable controller errors.
    pub fn resume(&mut self) -> Result<&RunMetrics, SimError> {
        self.run()
    }

    /// Draws the next slot's observation and advances the slot cursor
    /// without stepping, for callers that step
    /// [`Simulator::controller_mut`] themselves (e.g. to pre-draw
    /// observations outside a timed region). That path bypasses the
    /// engine: no metrics, watchdog samples or battery faults.
    pub fn next_observation(&mut self) -> SlotObservation {
        let obs = self.observe();
        self.slots_run += 1;
        obs
    }

    /// Samples one slot's random observation, overlaying any faults the
    /// plan schedules for this slot. Faults are applied *after* the
    /// healthy draws, so a faulted run consumes exactly the random stream
    /// a fault-free run would — common random numbers across fault
    /// scenarios.
    fn observe(&mut self) -> SlotObservation {
        let faults: Option<SlotFaults> = self
            .fault_plan
            .as_ref()
            .and_then(|p| p.slot(self.slots_run))
            .cloned();
        let s = &self.scenario;
        let mut bandwidths = Vec::with_capacity(s.band_count());
        bandwidths.push(Bandwidth::from_megahertz(s.cellular_band_mhz));
        for &(lo, hi) in &s.random_bands {
            bandwidths.push(Bandwidth::from_megahertz(self.band_rng.range_f64(lo, hi)));
        }
        if let Some(f) = &faults {
            for (m, &down) in f.band_down.iter().enumerate() {
                if down {
                    bandwidths[m] = Bandwidth::from_megahertz(0.0);
                }
            }
        }
        let renewables_on = s.architecture.renewables_enabled();
        let mut renewable: Vec<Energy> = self
            .is_bs
            .iter()
            .map(|&bs| {
                let max = if bs {
                    s.bs_renewable_max
                } else {
                    s.user_renewable_max
                };
                // Draw even when disabled so enabling renewables does not
                // perturb the other streams (common random numbers).
                let watts = self.renewable_rng.range_f64(0.0, max.as_watts());
                if renewables_on {
                    greencell_units::Power::from_watts(watts) * s.slot
                } else {
                    Energy::ZERO
                }
            })
            .collect();
        let mut grid_connected: Vec<bool> = self
            .is_bs
            .iter()
            .enumerate()
            .map(|(idx, &bs)| {
                let draw = match s.grid_model {
                    GridModel::Iid => self.grid_rng.chance(s.user_grid_probability),
                    GridModel::Markov { .. } => self.grid_chains[idx].observe(),
                };
                bs || draw
            })
            .collect();
        // Per-session nominal demand (sessions may be heterogeneous),
        // optionally modulated by the per-cell diurnal profile before any
        // stochastic draw so Constant and Poisson share the same mean.
        let n_cells = s.bs_positions.len();
        let session_demand: Vec<Packets> = self
            .session_nominal
            .iter()
            .enumerate()
            .map(|(sid, &base)| {
                let mut nominal = base;
                if let Some(profile) = s.diurnal {
                    nominal =
                        profile.scale(nominal, self.slots_run, self.session_cells[sid], n_cells);
                }
                match s.demand_model {
                    crate::DemandModel::Constant => nominal,
                    crate::DemandModel::Poisson => {
                        let poisson = Poisson::new(nominal.count_f64()).expect("non-negative mean");
                        Packets::new(poisson.sample(&mut self.demand_rng))
                    }
                }
            })
            .collect();
        let mut price_multiplier = s.pricing.multiplier(self.slots_run);
        let mut node_available = vec![];
        if let Some(f) = &faults {
            // Drought zeroes the harvest; an observation dropout replaces
            // the lost reading with the conservative one (no renewables,
            // users assumed off-grid) so the controller under-commits.
            if f.drought || f.dropout {
                renewable.iter_mut().for_each(|r| *r = Energy::ZERO);
            }
            if f.dropout {
                for (connected, &bs) in grid_connected.iter_mut().zip(&self.is_bs) {
                    *connected &= bs;
                }
            }
            price_multiplier *= f.price_multiplier;
            if f.node_down.iter().any(|&d| d) {
                node_available = f.node_down.iter().map(|&d| !d).collect();
            }
        }
        SlotObservation {
            spectrum: SpectrumState::new(bandwidths),
            renewable,
            grid_connected,
            session_demand,
            price_multiplier,
            node_available,
        }
    }

    /// Advances one slot.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable controller errors.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.step_with_report().map(|_| ())
    }

    /// Advances one slot, returning the controller's full
    /// [`greencell_core::SlotReport`] (drift-plus-penalty diagnostics
    /// included).
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable controller errors.
    pub fn step_with_report(&mut self) -> Result<greencell_core::SlotReport, SimError> {
        let obs = self.observe();
        self.step_with_observation(&obs)
    }

    /// Advances one slot using an externally supplied observation —
    /// trace replay and what-if analysis (e.g. the same weather under a
    /// different controller configuration).
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable controller errors.
    ///
    /// # Panics
    ///
    /// Panics if `obs` has the wrong dimensions for this network.
    pub fn step_with_observation(
        &mut self,
        obs: &SlotObservation,
    ) -> Result<greencell_core::SlotReport, SimError> {
        self.step_with_observation_traced(obs, &mut NoopSink)
    }

    /// [`Simulator::step_with_observation`] with instrumentation: the
    /// controller emits its stage spans and decision gauges into `sink`,
    /// and the engine adds the Fig. 2 per-slot series (cost, grid draw,
    /// backlogs, battery buffers), fault/degradation marks, and the
    /// stability watchdog's trailing slope.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable controller errors.
    ///
    /// # Panics
    ///
    /// Panics if `obs` has the wrong dimensions for this network.
    pub fn step_with_observation_traced(
        &mut self,
        obs: &SlotObservation,
        sink: &mut dyn Sink,
    ) -> Result<greencell_core::SlotReport, SimError> {
        // Battery faults strike the hardware directly, before the
        // controller plans the slot: one-shot capacity fades, then the
        // charge-path state (idempotent per slot, so a window's end
        // restores charging without extra bookkeeping).
        let faults: Option<SlotFaults> = self
            .fault_plan
            .as_ref()
            .and_then(|p| p.slot(self.slots_run))
            .cloned();
        if let Some(f) = &faults {
            for &(node, factor) in &f.fades {
                self.controller
                    .battery_mut(NodeId::from_index(node))
                    .fade_capacity(factor);
            }
            for i in 0..self.is_bs.len() {
                self.controller
                    .battery_mut(NodeId::from_index(i))
                    .set_charge_blocked(f.charge_blocked);
            }
        }
        if let Some(relaxed) = &mut self.relaxed {
            let cost = relaxed.step(obs);
            self.metrics.record_relaxed(cost);
        }
        let report = if self.reference {
            self.controller.step_reference(obs)?
        } else {
            self.controller.step_traced(obs, sink)?
        };

        let (c, is_bs) = (&self.controller, &self.is_bs);
        let ids = |bs: bool| {
            (0..is_bs.len())
                .filter(move |&i| is_bs[i] == bs)
                .map(NodeId::from_index)
        };
        let backlog_bs: f64 = ids(true).map(|i| c.node_backlog(i).count_f64()).sum();
        let backlog_users: f64 = ids(false).map(|i| c.node_backlog(i).count_f64()).sum();
        let buffer_bs_kwh: f64 = ids(true)
            .map(|i| c.battery(i).level().as_kilowatt_hours())
            .sum();
        let buffer_users_wh: f64 = ids(false)
            .map(|i| c.battery(i).level().as_watt_hours())
            .sum();
        self.watchdog.record(
            backlog_bs + backlog_users,
            buffer_bs_kwh + buffer_users_wh / 1000.0,
        );
        self.metrics.record_degradation(
            faults.as_ref().is_some_and(SlotFaults::is_degraded) || !report.degradation.is_empty(),
            report.degradation.len() as u64,
        );
        self.metrics.record_lyapunov(report.lyapunov_after);
        self.metrics.record_slot(
            report.cost,
            report.grid_draw.as_kilowatt_hours(),
            backlog_bs,
            backlog_users,
            buffer_bs_kwh,
            buffer_users_wh,
            report.admitted.count_f64(),
            report.routed.count_f64(),
            report.scheduled_links as f64,
            report.shed_transmissions as u64,
        );
        if sink.enabled() {
            let slot = report.slot;
            for (name, value) in [
                (names::COST, report.cost),
                (names::GRID_KWH, report.grid_draw.as_kilowatt_hours()),
                (names::BACKLOG_BS, backlog_bs),
                (names::BACKLOG_USERS, backlog_users),
                (names::BUFFER_BS_KWH, buffer_bs_kwh),
                (names::BUFFER_USERS_WH, buffer_users_wh),
                (names::WATCHDOG_SLOPE, self.watchdog.trailing_slope()),
            ] {
                sink.record(TraceEvent::Gauge { slot, name, value });
            }
            // Dynamic-network telemetry: emitted only when a sleep or
            // cooperation policy is live, so default runs' traces are
            // byte-identical to before the policies existed.
            if let Some(ns) = self.controller.network_state() {
                sink.record(TraceEvent::Gauge {
                    slot,
                    name: names::ASLEEP_BS,
                    value: ns.asleep_bs_count() as f64,
                });
                sink.record(TraceEvent::Gauge {
                    slot,
                    name: names::TRANSFER_KWH,
                    value: ns.slot_transferred_kwh(),
                });
                if ns.slot_sleep_transitions() > 0 {
                    sink.record(TraceEvent::Mark {
                        slot,
                        name: "bs_sleep",
                    });
                }
                if ns.slot_wake_transitions() > 0 {
                    sink.record(TraceEvent::Mark {
                        slot,
                        name: "bs_wake",
                    });
                }
            }
            if faults.as_ref().is_some_and(SlotFaults::is_degraded) {
                sink.record(TraceEvent::Mark {
                    slot,
                    name: "fault_active",
                });
            }
            if self.watchdog.is_divergent() {
                sink.record(TraceEvent::Mark {
                    slot,
                    name: "watchdog_divergent",
                });
            }
            if !report.degradation.is_empty() {
                sink.record(TraceEvent::Counter {
                    slot,
                    name: "degradation_events",
                    value: report.degradation.len() as u64,
                });
            }
        }
        self.slots_run += 1;
        Ok(report)
    }

    /// [`Simulator::run`] with instrumentation: every slot is stepped
    /// through [`Simulator::step_with_observation_traced`] so the whole
    /// horizon's spans, gauges, and marks land in `sink`.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable controller errors.
    pub fn run_traced(&mut self, sink: &mut dyn Sink) -> Result<&RunMetrics, SimError> {
        while self.slots_run < self.scenario.horizon {
            let obs = self.observe();
            self.step_with_observation_traced(&obs, sink)?;
        }
        self.finalize();
        Ok(&self.metrics)
    }

    /// Runs the whole horizon, returning the collected metrics.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable controller errors.
    pub fn run(&mut self) -> Result<&RunMetrics, SimError> {
        while self.slots_run < self.scenario.horizon {
            self.step()?;
        }
        self.finalize();
        Ok(&self.metrics)
    }

    /// Runs the whole horizon while recording every slot's observation for
    /// later replay via [`Simulator::replay`].
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable controller errors.
    pub fn run_recording(&mut self) -> Result<(RunMetrics, Vec<SlotObservation>), SimError> {
        let mut trace = Vec::with_capacity(self.scenario.horizon);
        while self.slots_run < self.scenario.horizon {
            let obs = self.observe();
            trace.push(obs.clone());
            self.step_with_observation(&obs)?;
        }
        self.finalize();
        Ok((self.metrics.clone(), trace))
    }

    /// Replays a recorded observation trace through this simulator's
    /// controller (one slot per observation, ignoring the scenario's own
    /// random streams and horizon).
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable controller errors.
    pub fn replay(&mut self, trace: &[SlotObservation]) -> Result<&RunMetrics, SimError> {
        for obs in trace {
            self.step_with_observation(obs)?;
        }
        self.finalize();
        Ok(&self.metrics)
    }

    fn finalize(&mut self) {
        let delivered: Vec<u64> = (0..self.controller.session_count())
            .map(|s| self.controller.delivered(SessionId::from_index(s)).count())
            .collect();
        self.metrics.set_delivered(delivered);
        if let Some(relaxed) = &self.relaxed {
            self.metrics.set_lower_bound(relaxed.bound());
        }
    }

    /// Total delivered packets so far (sum over sessions).
    #[must_use]
    pub fn delivered(&self) -> Packets {
        (0..self.controller.session_count())
            .map(|s| self.controller.delivered(SessionId::from_index(s)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Architecture;

    #[test]
    fn tiny_run_completes_and_is_deterministic() {
        let scenario = Scenario::tiny(11);
        let mut a = Simulator::new(&scenario).unwrap();
        let ma = a.run().unwrap().clone();
        let mut b = Simulator::new(&scenario).unwrap();
        let mb = b.run().unwrap().clone();
        assert_eq!(ma, mb);
        assert_eq!(ma.cost_series().len(), scenario.horizon);
    }

    #[test]
    fn traffic_actually_moves() {
        let mut scenario = Scenario::tiny(13);
        scenario.horizon = 30;
        let mut sim = Simulator::new(&scenario).unwrap();
        let m = sim.run().unwrap();
        assert!(
            m.admitted_series().values().iter().sum::<f64>() > 0.0,
            "nothing admitted"
        );
        assert!(
            m.routed_series().values().iter().sum::<f64>() > 0.0,
            "nothing routed"
        );
        assert!(m.delivered() > 0, "nothing delivered");
    }

    #[test]
    fn disabling_renewables_zeroes_harvest_but_keeps_streams() {
        let mut s1 = Scenario::tiny(17);
        s1.architecture = Architecture::Proposed;
        let mut s2 = s1.clone();
        s2.architecture = Architecture::MultiHopNoRenewable;
        let mut a = Simulator::new(&s1).unwrap();
        let mut b = Simulator::new(&s2).unwrap();
        let oa = a.observe();
        let ob = b.observe();
        // Same spectrum and connectivity draws, different renewables.
        assert_eq!(oa.spectrum, ob.spectrum);
        assert_eq!(oa.grid_connected, ob.grid_connected);
        assert!(ob.renewable.iter().all(|&e| e == Energy::ZERO));
        assert!(oa.renewable.iter().any(|&e| e > Energy::ZERO));
    }

    #[test]
    fn lower_bound_tracked_when_requested() {
        let mut scenario = Scenario::tiny(19);
        scenario.track_lower_bound = true;
        scenario.horizon = 10;
        let mut sim = Simulator::new(&scenario).unwrap();
        let m = sim.run().unwrap();
        assert!(m.lower_bound().is_some());
        assert_eq!(m.relaxed_cost_series().len(), 10);
        // Theorem 5: the lower bound sits below the achieved cost.
        assert!(m.lower_bound().unwrap() <= m.average_cost());
    }
}
