//! The time-slotted simulation engine.

use crate::faults::{FaultPlan, SlotFaults, StabilityWatchdog};
use crate::{scale, GridModel, RunMetrics, Scenario, TouPricing};
use greencell_core::{Controller, ControllerError, RelaxedController, SlotObservation};
use greencell_net::{Network, NetworkError, NodeId, SessionId};
use greencell_phy::SpectrumState;
use greencell_stochastic::{MarkovOnOff, Poisson, Rng};
use greencell_trace::{names, NoopSink, Sink, TraceEvent};
use greencell_units::{Bandwidth, Energy, Packets};
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

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

/// Rejects a scenario the layout, path-loss, PHY, controller or
/// observation draws would panic on: sessions without users, no base
/// station, `C ≤ 0`, `γ < 0`, `Γ ≤ 0`, `η < 0`, `V < 0` or infinite,
/// `λ < 0` or infinite, a probability outside `[0, 1]` (the user band and
/// grid draws, and the Markov grid chain's), a negative or infinite
/// cellular bandwidth, a random band `(lo, hi)` that is not
/// `0 ≤ lo ≤ hi < ∞`, a negative or infinite renewable maximum, or NaN in
/// any of these. A sweep point or a CLI flag can carry any scenario, so
/// these are typed errors rather than panics.
fn validate_scenario(s: &Scenario) -> Result<(), SimError> {
    let invalid = |detail: String| Err(SimError::InvalidConfig { detail });
    if s.users == 0 && s.sessions > 0 {
        return invalid(format!(
            "users: 0 users cannot be the destinations of {} session(s)",
            s.sessions
        ));
    }
    if s.bs_positions.is_empty() {
        return invalid("bs_positions: at least one base station is required".into());
    }
    if let Some((x, y)) = s
        .bs_positions
        .iter()
        .find(|(x, y)| !(x.is_finite() && y.is_finite()))
    {
        return invalid(format!("bs_positions: non-finite position ({x}, {y})"));
    }
    for (field, value, ok) in [
        ("path_loss_c", s.path_loss_c, s.path_loss_c > 0.0),
        (
            "path_loss_gamma",
            s.path_loss_gamma,
            s.path_loss_gamma >= 0.0,
        ),
        ("sinr_threshold", s.sinr_threshold, s.sinr_threshold > 0.0),
        ("noise_density", s.noise_density, s.noise_density >= 0.0),
        ("v", s.v, s.v.is_finite() && s.v >= 0.0),
        ("lambda", s.lambda, s.lambda.is_finite() && s.lambda >= 0.0),
        (
            "cellular_band_mhz",
            s.cellular_band_mhz,
            s.cellular_band_mhz.is_finite() && s.cellular_band_mhz >= 0.0,
        ),
        (
            "user_band_probability",
            s.user_band_probability,
            (0.0..=1.0).contains(&s.user_band_probability),
        ),
        (
            "user_grid_probability",
            s.user_grid_probability,
            (0.0..=1.0).contains(&s.user_grid_probability),
        ),
        (
            "bs_renewable_max",
            s.bs_renewable_max.as_watts(),
            s.bs_renewable_max.as_watts().is_finite() && s.bs_renewable_max.as_watts() >= 0.0,
        ),
        (
            "user_renewable_max",
            s.user_renewable_max.as_watts(),
            s.user_renewable_max.as_watts().is_finite() && s.user_renewable_max.as_watts() >= 0.0,
        ),
    ] {
        // NaN fails every comparison, so `ok` is false for it too.
        if !ok {
            return invalid(format!("{field}: out of range, got {value}"));
        }
    }
    if let Some((lo, hi)) = s
        .random_bands
        .iter()
        .find(|&&(lo, hi)| !(0.0 <= lo && lo <= hi && hi.is_finite()))
    {
        return invalid(format!(
            "random_bands: a band's range must satisfy 0 <= lo <= hi < inf, got ({lo}, {hi})"
        ));
    }
    if let GridModel::Markov { stay_on, stay_off } = s.grid_model {
        if ![stay_on, stay_off].iter().all(|p| (0.0..=1.0).contains(p)) {
            return invalid(format!(
                "grid_model: the Markov chain's probabilities must lie in [0, 1], got \
                 stay_on {stay_on}, stay_off {stay_off}"
            ));
        }
    }
    if s.track_lower_bound && s.v <= 0.0 {
        return invalid(format!(
            "v: the lower bound's B/V gap needs V > 0, got {}",
            s.v
        ));
    }
    if let TouPricing::Periodic {
        peak_multiplier, ..
    } = s.pricing
    {
        if !peak_multiplier.is_finite() || peak_multiplier < 0.0 {
            return invalid(format!(
                "pricing: the peak multiplier must be finite and non-negative, got {peak_multiplier}"
            ));
        }
    }
    Ok(())
}

/// Drives a [`Controller`] (and optionally the relaxed lower-bound
/// controller on the *same* observations — the paired design behind
/// Fig. 2(a)) through a scenario's horizon.
///
/// The controller is partitioned by the scenario's interference clusters
/// (see [`crate::scale`]) when pruning splits an unshadowed network into
/// several, and covers the whole network otherwise; a partitioned run never
/// builds the dense `n × n` network. The relaxed controller runs on the
/// same partition.
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
    /// Fingerprints of `scenario` and `fault_plan`, which never change
    /// after construction: taken by the first snapshot or restore and read
    /// by every later one (see `Simulator::fingerprints`).
    pub(crate) fingerprints: OnceLock<(u64, Option<u64>)>,
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
    /// Per-slot scratch: every node's battery level, in node order.
    levels: Vec<Energy>,
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
    /// [`SimError::InvalidConfig`] naming the field if the scenario cannot
    /// be built or stepped (sessions without users, no base station, or an
    /// out-of-range or NaN path-loss, PHY, `V`, `λ`, probability,
    /// bandwidth or renewable value); propagates network validation and
    /// controller construction failures;
    /// [`SimError::UnsupportedAtScale`] if a session destination lies in an
    /// interference cluster without a base station.
    pub fn with_workers(scenario: &Scenario, workers: usize) -> Result<Self, SimError> {
        validate_scenario(scenario)?;
        let layout = scenario.build_layout();
        let is_bs: Vec<bool> = layout.kinds.iter().map(|k| k.is_base_station()).collect();
        // Only pruning splits the interference graph, and shadowed gains
        // are not a function of distance, so shadowed scenarios are never
        // partitioned.
        let clusters = (scenario.gain_floor > 0.0 && layout.shadowing_db.is_empty())
            .then(|| scale::decompose(&layout, scenario))
            .filter(|c| c.len() > 1);
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
        let controller = match clusters {
            Some(clusters) => {
                let parts = scale::parts(&layout, scenario, &clusters)?;
                Controller::partitioned(parts, clusters, phy, energy, config, workers)?
            }
            None => Controller::new(layout.assemble(scenario)?, phy, energy, config)?,
        };
        // The relaxed P̄3 controller runs on the controller's partition.
        let relaxed = scenario
            .track_lower_bound
            .then(|| RelaxedController::for_controller(&controller));
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
            fingerprints: OnceLock::new(),
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
            levels: Vec::new(),
        })
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
        let report = self.controller.step_traced(obs, sink)?;

        // The buffer sums run in node order, each class's terms in the
        // order a filtered `sum` would, from the same start (`-0.0`). The
        // backlog sums are exact integers below 2⁵³, so the controller's
        // part-order totals are the same `f64`s: `+0.0` once a class has a
        // node, `-0.0` (the empty sum) while it has none.
        let c = &self.controller;
        c.battery_levels_into(&mut self.levels);
        let (mut buffer_bs_kwh, mut buffer_users_wh) = (-0.0, -0.0);
        let mut kinds = [false; 2];
        for (&level, &bs) in self.levels.iter().zip(&self.is_bs) {
            kinds[usize::from(!bs)] = true;
            if bs {
                buffer_bs_kwh += level.as_kilowatt_hours();
            } else {
                buffer_users_wh += level.as_watt_hours();
            }
        }
        let backlogs = c.backlog_by_kind();
        let backlog = |k: usize| {
            if kinds[k] {
                backlogs[k].count_f64()
            } else {
                -0.0
            }
        };
        let (backlog_bs, backlog_users) = (backlog(0), backlog(1));
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

    /// Runs the whole horizon, returning the collected metrics
    /// ([`Simulator::run_traced`] into a [`NoopSink`]).
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable controller errors.
    pub fn run(&mut self) -> Result<&RunMetrics, SimError> {
        self.run_traced(&mut NoopSink)
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
    use greencell_units::Power;

    fn peak(peak_multiplier: f64) -> TouPricing {
        TouPricing::Periodic {
            period_slots: 4,
            peak_slots: 2,
            peak_multiplier,
        }
    }

    fn rejected_field(s: &Scenario) -> String {
        match Simulator::new(s) {
            Err(SimError::InvalidConfig { detail }) => detail,
            other => panic!("expected InvalidConfig, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn invalid_scenarios_are_typed_errors_naming_the_field() {
        type Edit = fn(&mut Scenario);
        let cases: [(&str, Edit); 21] = [
            ("users", |s| s.users = 0),
            ("bs_positions", |s| s.bs_positions.clear()),
            ("bs_positions", |s| s.bs_positions[0].0 = f64::NAN),
            ("path_loss_c", |s| s.path_loss_c = 0.0),
            ("path_loss_c", |s| s.path_loss_c = f64::NAN),
            ("path_loss_gamma", |s| s.path_loss_gamma = -1.0),
            ("path_loss_gamma", |s| s.path_loss_gamma = f64::NAN),
            ("sinr_threshold", |s| s.sinr_threshold = 0.0),
            ("sinr_threshold", |s| s.sinr_threshold = f64::NAN),
            ("noise_density", |s| s.noise_density = -1e-20),
            ("noise_density", |s| s.noise_density = f64::NAN),
            ("v", |s| s.v = -1.0),
            ("v", |s| s.v = f64::NAN),
            ("v", |s| s.v = f64::INFINITY),
            ("lambda", |s| s.lambda = f64::NAN),
            ("lambda", |s| s.lambda = f64::INFINITY),
            ("lambda", |s| s.lambda = f64::NEG_INFINITY),
            ("v", |s| {
                s.v = 0.0;
                s.track_lower_bound = true;
            }),
            ("pricing", |s| s.pricing = peak(f64::NAN)),
            ("pricing", |s| s.pricing = peak(-5.0)),
            ("pricing", |s| s.pricing = peak(f64::INFINITY)),
        ];
        for (field, edit) in cases {
            let mut s = Scenario::tiny(3);
            edit(&mut s);
            let detail = rejected_field(&s);
            assert!(detail.starts_with(field), "{field}: got {detail}");
        }
        let mut s = Scenario::tiny(3);
        s.lambda = -0.5;
        assert!(rejected_field(&s).starts_with("lambda"));
        // Zero users is fine when nobody needs a destination.
        let mut s = Scenario::tiny(3);
        s.users = 0;
        s.sessions = 0;
        assert!(Simulator::new(&s).is_ok());
        // V = 0 is valid when no lower bound needs B/V, and so is a free
        // peak.
        let mut s = Scenario::tiny(3);
        s.v = 0.0;
        s.pricing = peak(0.0);
        assert!(Simulator::new(&s).is_ok());
    }

    /// Each edit makes `Simulator::new` return `InvalidConfig` naming
    /// `field`.
    fn assert_rejected(field: &str, edits: &[fn(&mut Scenario)]) {
        for edit in edits {
            let mut s = Scenario::tiny(3);
            edit(&mut s);
            let detail = rejected_field(&s);
            assert!(detail.starts_with(field), "{field}: got {detail}");
        }
    }

    #[test]
    fn user_grid_probability_outside_the_unit_interval_is_rejected() {
        assert_rejected(
            "user_grid_probability",
            &[
                |s| s.user_grid_probability = 1.5,
                |s| s.user_grid_probability = f64::NAN,
                |s| s.user_grid_probability = -0.1,
            ],
        );
    }

    #[test]
    fn user_band_probability_outside_the_unit_interval_is_rejected() {
        assert_rejected(
            "user_band_probability",
            &[
                |s| s.user_band_probability = 2.0,
                |s| s.user_band_probability = f64::NAN,
            ],
        );
    }

    #[test]
    fn a_random_band_with_an_empty_or_unbounded_range_is_rejected() {
        assert_rejected(
            "random_bands",
            &[
                |s| s.random_bands = vec![(2.0, 1.0)],
                |s| s.random_bands = vec![(1.0, f64::INFINITY)],
                |s| s.random_bands = vec![(f64::NAN, 1.0)],
                |s| s.random_bands = vec![(-1.0, 1.0)],
            ],
        );
    }

    #[test]
    fn a_negative_bs_renewable_maximum_is_rejected() {
        assert_rejected(
            "bs_renewable_max",
            &[
                |s| s.bs_renewable_max = Power::from_watts(-1.0),
                |s| s.bs_renewable_max = Power::from_watts(f64::INFINITY),
            ],
        );
    }

    #[test]
    fn a_nan_user_renewable_maximum_is_rejected() {
        assert_rejected(
            "user_renewable_max",
            &[
                |s| s.user_renewable_max = Power::from_watts(f64::NAN),
                |s| s.user_renewable_max = Power::from_watts(-2.0),
            ],
        );
    }

    #[test]
    fn a_negative_cellular_bandwidth_is_rejected() {
        assert_rejected(
            "cellular_band_mhz",
            &[
                |s| s.cellular_band_mhz = -1.0,
                |s| s.cellular_band_mhz = f64::NAN,
                |s| s.cellular_band_mhz = f64::INFINITY,
            ],
        );
    }

    #[test]
    fn markov_grid_probabilities_outside_the_unit_interval_are_rejected() {
        assert_rejected(
            "grid_model",
            &[
                |s| {
                    s.grid_model = GridModel::Markov {
                        stay_on: 1.5,
                        stay_off: 0.5,
                    };
                },
                |s| {
                    s.grid_model = GridModel::Markov {
                        stay_on: f64::NAN,
                        stay_off: 0.5,
                    };
                },
                |s| {
                    s.grid_model = GridModel::Markov {
                        stay_on: 0.5,
                        stay_off: -0.5,
                    };
                },
            ],
        );
    }

    /// The bounds themselves are valid: probabilities 0 and 1, an empty
    /// renewable range, a degenerate random band, a sure Markov chain.
    #[test]
    fn the_edges_of_each_new_range_still_run() {
        let mut s = Scenario::tiny(3);
        s.user_grid_probability = 1.0;
        s.user_band_probability = 0.0;
        s.bs_renewable_max = Power::ZERO;
        s.random_bands = vec![(1.5, 1.5)];
        s.grid_model = GridModel::Markov {
            stay_on: 1.0,
            stay_off: 0.0,
        };
        let mut sim = Simulator::new(&s).expect("valid edges build");
        for _ in 0..3 {
            sim.step().expect("valid edges step");
        }
    }

    #[test]
    fn an_invalid_sweep_point_fails_the_sweep_with_the_typed_error() {
        let mut bad = Scenario::tiny(3);
        bad.sinr_threshold = -1.0;
        let points = [
            crate::SweepPoint::new("ok", Scenario::tiny(3)),
            crate::SweepPoint::new("bad", bad),
        ];
        let err = crate::run_sweep(&points, &crate::SweepOptions::with_threads(2))
            .expect_err("the invalid point fails the sweep");
        assert!(
            matches!(&err, SimError::InvalidConfig { detail } if detail.starts_with("sinr_threshold")),
            "got {err:?}"
        );
    }

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
