//! The per-slot control driver (problem P3, §IV-C).
//!
//! The controller is a *thin driver* over [`crate::pipeline`]: the config
//! enums pick S1 and the relay rule directly, S4 runs behind the
//! [`crate::pipeline::EnergyStage`] picked at construction, and the
//! degradation ladder is a list of [`crate::pipeline::FallbackRung`]
//! functions. It owns a partition of the network into [`Part`]s — one part
//! covering every node for the dense [`Controller::new`], one per
//! interference cluster for [`Controller::partitioned`] — and each slot it
//! runs the BS sleep machine once, S1–S3 per part (on scoped threads when
//! there are several parts and workers), then S4 and the ladder once over
//! the whole network, applies the batteries, and advances each part's
//! queues and takes its Lyapunov terms per part, on the same threads.
//! Every global reduction runs in part order on one thread, so results
//! never depend on the worker count.

use crate::partition::{for_each_part, PartInputs};
use crate::pipeline::{
    self, EnergyCoopStage, EnergyStage, FallbackCx, FallbackOutcome, GridOnlyStage,
    MarginalPriceStage, SlotContext, StageClock,
};
use crate::{
    dpp, ClusterSet, ControllerConfig, EnergyConfig, EnergyManagementError, EnergyManagementInput,
    EnergyPolicy, NetworkState, Part, PartSpec, SlotObservation,
};
use greencell_energy::{Battery, NodeEnergyModel};
use greencell_net::{Network, NodeId, SessionId};
use greencell_phy::PhyConfig;
use greencell_queue::{DataQueueBank, LinkQueueBank, PacketQueue};
use greencell_trace::{names, NoopSink, Sink, Stage, TraceEvent};
use greencell_units::{Energy, Packets};
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// Error from [`Controller::new`] or [`Controller::step`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ControllerError {
    /// The energy configuration does not cover every node.
    EnergyConfigMismatch {
        /// Nodes in the network.
        nodes: usize,
        /// Entries in the energy configuration.
        configured: usize,
    },
    /// S4 failed even after shedding every transmission — a node cannot
    /// source its *idle* demand (`E^const + E^idle`). The hardware
    /// configuration is inconsistent with the node's supply.
    IdleDeficit {
        /// The starving node.
        node: usize,
    },
}

impl fmt::Display for ControllerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EnergyConfigMismatch { nodes, configured } => write!(
                f,
                "energy config covers {configured} nodes but the network has {nodes}"
            ),
            Self::IdleDeficit { node } => {
                write!(f, "node {node} cannot source its idle energy demand")
            }
        }
    }
}

impl Error for ControllerError {}

impl From<EnergyManagementError> for ControllerError {
    /// The strict-policy mapping: any S4 failure that survives shedding
    /// means some node cannot source its idle demand.
    fn from(e: EnergyManagementError) -> Self {
        match e {
            EnergyManagementError::Deficit { node, .. } => Self::IdleDeficit { node },
            _ => Self::IdleDeficit { node: 0 },
        }
    }
}

/// One rung of the graceful-degradation ladder taken during a slot,
/// recorded in [`SlotReport::degradation`] (under
/// [`crate::DegradationPolicy::Graceful`]; the strict policy aborts
/// instead).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum DegradationEvent {
    /// Transmissions touching a starving node were shed before S4 retried.
    Shed {
        /// The node whose energy deficit triggered the shedding.
        node: usize,
        /// How many transmissions were dropped.
        dropped: usize,
    },
    /// The marginal-price solver failed on an idle schedule; the slot ran
    /// on the storage-oblivious grid-only solver instead.
    GridOnlyFallback,
    /// Even grid-only sourcing was infeasible: the slot ran in safe mode
    /// and this node browned out by `deficit`.
    SafeMode {
        /// The browned-out node.
        node: usize,
        /// The unserved energy.
        deficit: Energy,
    },
}

/// What one controller step did — everything the simulator records.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotReport {
    /// Slot index (0-based).
    pub slot: u64,
    /// The provider's energy cost `f(P(t))` this slot.
    pub cost: f64,
    /// Total base-station grid draw `P(t)`.
    pub grid_draw: Energy,
    /// Number of scheduled transmissions.
    pub scheduled_links: usize,
    /// Total admitted packets `Σ_s k_s(t)`.
    pub admitted: Packets,
    /// Total packets moved by routing this slot.
    pub routed: Packets,
    /// The achieved `Ψ̂₁(t)` value (diagnostic, Eq. (35)).
    pub psi1: f64,
    /// The achieved `Ψ̂₂(t)` value (diagnostic, Eq. (36)).
    pub psi2: f64,
    /// The achieved `Ψ̂₃(t)` value (diagnostic, Eq. (37)).
    pub psi3: f64,
    /// The achieved `Ψ̂₄(t)` value (diagnostic, Eq. (38)).
    pub psi4: f64,
    /// The Lyapunov function `L(Θ(t))` before this slot's updates.
    pub lyapunov_before: f64,
    /// The Lyapunov function `L(Θ(t+1))` after this slot's updates.
    pub lyapunov_after: f64,
    /// Transmissions shed because their transmitter could not source the
    /// energy (should stay 0 in fault-free runs; counted for diagnostics).
    pub shed_transmissions: usize,
    /// Degradation-ladder rungs taken this slot (empty on a clean slot).
    pub degradation: Vec<DegradationEvent>,
}

impl SlotReport {
    /// Lemma 1's left-hand side for this slot:
    /// `Δ(Θ(t)) + V·(f(P(t)) − λ·Σ k_s(t))`. Lemma 1 bounds it by
    /// `B + Ψ̂₁ + Ψ̂₂ + Ψ̂₃ + Ψ̂₄`; see [`crate::dpp::penalty_constant_b`].
    #[must_use]
    pub fn drift_plus_penalty(&self, v: f64, lambda: f64) -> f64 {
        crate::dpp::drift_plus_penalty(
            self.lyapunov_before,
            self.lyapunov_after,
            v,
            self.cost,
            lambda,
            self.admitted.count_f64(),
        )
    }

    /// The sum `Ψ̂₁ + Ψ̂₂ + Ψ̂₃ + Ψ̂₄` this slot's decisions achieved.
    #[must_use]
    pub fn psi_total(&self) -> f64 {
        self.psi1 + self.psi2 + self.psi3 + self.psi4
    }
}

/// Cumulative wall-clock spent in each stage of the S1→S4 pipeline,
/// accumulated across every [`Controller::step`] call by the driver's
/// [`crate::pipeline::StageClock`] (one capture site, not per-stage
/// hand-wired reads).
///
/// Kept on the controller (not in [`SlotReport`]) so slot reports stay
/// comparable across runs: wall-clock is nondeterministic, decisions are
/// not. S4 runs inside the shedding retry loop, so its total includes any
/// retries; S1 includes the BS sleep machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Time in S1 link scheduling (greedy or sequential-fix).
    pub s1: Duration,
    /// Time in S2 admission control / resource allocation.
    pub s2: Duration,
    /// Time in S3 routing (including realized link-service computation).
    pub s3: Duration,
    /// Time in S4 energy management (marginal-price or grid-only solve).
    pub s4: Duration,
    /// Number of slots accumulated.
    pub slots: u64,
}

impl StageTimings {
    /// Total time across all four stages.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.s1 + self.s2 + self.s3 + self.s4
    }

    /// Per-stage share of the total, as `[s1, s2, s3, s4]` fractions;
    /// all zeros when nothing has been timed yet.
    #[must_use]
    pub fn shares(&self) -> [f64; 4] {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            return [0.0; 4];
        }
        [
            self.s1.as_secs_f64() / total,
            self.s2.as_secs_f64() / total,
            self.s3.as_secs_f64() / total,
            self.s4.as_secs_f64() / total,
        ]
    }
}

/// The complete evolving state of a [`Controller`] — everything that
/// changes from slot to slot, captured by [`Controller::export_state`] and
/// replayed by [`Controller::import_state`].
///
/// Holds the battery fleet `x_i(t)` (including any runtime capacity fade
/// or charge blocks a fault injected) and the queue banks as the
/// part-major concatenation of each part's packing: data queues
/// `queues[s·n + i]` plus per-session delivered/phantom counters, link
/// queues `queues[i·n + j]`, with local ids. A single-part controller's
/// state is exactly its dense banks' packing. Construction facts (network,
/// configs, `β`, resolved stages) are deliberately absent: a restore
/// rebuilds those from the same inputs and only overlays this state.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerState {
    /// The next slot index to run (0-based).
    pub slot: u64,
    /// Per-node batteries, verbatim (level, limits, fade, charge block).
    pub batteries: Vec<Battery>,
    /// Data queues, each part's `queues[s·n + i]` layout in part order.
    pub data_queues: Vec<PacketQueue>,
    /// Per-session delivered totals, each part's sessions in part order.
    pub delivered: Vec<Packets>,
    /// Per-session phantom-forward totals, in the same order.
    pub phantom: Vec<Packets>,
    /// Link queues, each part's `queues[i·n + j]` layout in part order.
    pub link_queues: Vec<PacketQueue>,
    /// Per-node awake flags from the dynamic [`crate::NetworkState`]
    /// (empty when neither dynamic policy is enabled).
    pub awake: Vec<bool>,
    /// Per-node consecutive-idle-slot counters (empty when static).
    pub idle_slots: Vec<u32>,
    /// Per-node remaining ramp-up slots (empty when static).
    pub ramp_remaining: Vec<u32>,
    /// Per-user best awake BS, `usize::MAX` = uncovered (empty when
    /// static).
    pub association: Vec<usize>,
    /// Cumulative BS sleep transitions.
    pub sleep_transitions: u64,
    /// Cumulative BS wake transitions.
    pub wake_transitions: u64,
    /// Cumulative kWh delivered by inter-BS energy transfers.
    pub transferred_kwh: f64,
}

/// The online finite-queue-aware energy-cost controller (the paper's
/// decomposition algorithm, §IV-C).
///
/// Owns the full network state — data queues `Q^s_i`, virtual link queues
/// `G_ij`/`H_ij`, and batteries `x_i` — and advances it one slot per
/// [`Controller::step`] given that slot's random observation. The actual
/// stage logic lives in [`crate::pipeline`]: the config enums resolve to
/// stage implementations at construction and the step method is a thin
/// driver over them. See the crate-level example.
#[derive(Debug, Clone)]
pub struct Controller {
    pub(crate) phy: PhyConfig,
    pub(crate) energy: EnergyConfig,
    config: ControllerConfig,
    batteries: Vec<Battery>,
    gamma_max: f64,
    beta: f64,
    penalty_b: f64,
    slot: u64,
    timings: StageTimings,
    // Slot-invariant per-node constants, hoisted out of the per-slot path
    // (the energy configuration is immutable after construction).
    models: Vec<NodeEnergyModel>,
    pub(crate) grid_limits: Vec<Energy>,
    pub(crate) is_bs: Vec<bool>,
    // The partition: parts in cluster order, the cluster set they came
    // from, and the global ↔ part-local id maps.
    pub(crate) parts: Vec<Part>,
    decomposition: ClusterSet,
    /// Global node → part index (`usize::MAX` for nodes in no part).
    node_part: Vec<usize>,
    /// Global node → local id inside its part.
    node_local: Vec<usize>,
    /// Global session → (part index, local session id).
    session_loc: Vec<(usize, usize)>,
    /// Nodes in no part (base-station-free clusters): they never schedule
    /// or queue, and draw their idle demand only.
    uncovered: Vec<usize>,
    pub(crate) bands: usize,
    pub(crate) workers: usize,
    /// The S4 stage the config picked (tests may swap it).
    energy_stage: &'static dyn EnergyStage,
    ctx: SlotContext,
}

impl Controller {
    /// Builds a controller over the whole network (one part) with empty
    /// queues and the configured initial battery states.
    ///
    /// # Errors
    ///
    /// [`ControllerError::EnergyConfigMismatch`] if `energy.nodes` does not
    /// have exactly one entry per network node.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ControllerConfig::validate`].
    pub fn new(
        net: Network,
        phy: PhyConfig,
        energy: EnergyConfig,
        config: ControllerConfig,
    ) -> Result<Self, ControllerError> {
        let n = net.topology().len();
        let sessions = (0..net.session_count()).collect();
        let whole = PartSpec {
            net,
            nodes: (0..n).collect(),
            sessions,
        };
        Self::partitioned(vec![whole], ClusterSet::single(n), phy, energy, config, 1)
    }

    /// Builds a controller over pre-built interference-closed parts: S1–S3
    /// and the queue advance run per part, on up to `workers` threads per
    /// slot (the worker count never changes results), while S4 and the
    /// degradation ladder run once over all
    /// `decomposition.membership().len()` nodes. Nodes in no part
    /// (base-station-free clusters) never schedule or queue and draw their
    /// idle demand only. A single part covering every node is exactly
    /// [`Controller::new`].
    ///
    /// # Errors
    ///
    /// [`ControllerError::EnergyConfigMismatch`] if `energy.nodes` does not
    /// have exactly one entry per node.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ControllerConfig::validate`] or a part
    /// names a node or session outside the decomposition.
    pub fn partitioned(
        parts: Vec<PartSpec>,
        decomposition: ClusterSet,
        phy: PhyConfig,
        energy: EnergyConfig,
        config: ControllerConfig,
        workers: usize,
    ) -> Result<Self, ControllerError> {
        config.validate();
        let n = decomposition.membership().len();
        if energy.nodes.len() != n {
            return Err(ControllerError::EnergyConfigMismatch {
                nodes: n,
                configured: energy.nodes.len(),
            });
        }
        let mut is_bs = vec![false; n];
        let mut node_part = vec![usize::MAX; n];
        let mut node_local = vec![0; n];
        let mut session_loc = vec![(0, 0); parts.iter().map(|p| p.sessions.len()).sum()];
        for (k, spec) in parts.iter().enumerate() {
            let kinds = spec.net.topology().nodes();
            for (local, (&g, node)) in spec.nodes.iter().zip(kinds).enumerate() {
                is_bs[g] = node.kind().is_base_station();
                node_part[g] = k;
                node_local[g] = local;
            }
            for (local, &s) in spec.sessions.iter().enumerate() {
                session_loc[s] = (k, local);
            }
        }
        let uncovered = (0..n).filter(|&g| node_part[g] == usize::MAX).collect();
        let beta = dpp::beta(&config, &phy);
        let gamma_max = dpp::gamma_max(&is_bs, &energy);
        let penalty_b = dpp::penalty_constant_b(&is_bs, session_loc.len(), &energy, &config, &phy);
        let batteries = energy.nodes.iter().map(|c| c.battery).collect();
        let max_powers: Vec<_> = energy.nodes.iter().map(|c| c.max_power).collect();
        let models: Vec<_> = energy.nodes.iter().map(|c| c.energy_model).collect();
        let grid_limits = energy.nodes.iter().map(|c| c.grid_limit).collect();
        let bands = parts.first().map_or(0, |p| p.net.band_count());
        let whole = parts.len() == 1 && parts[0].nodes.len() == n;
        let parts = parts
            .into_iter()
            .map(|spec| Part::new(spec, &max_powers, &models, beta, whole))
            .collect();
        let energy_stage: &'static dyn EnergyStage =
            match (config.energy_coop, config.energy_policy) {
                (Some(_), _) => &EnergyCoopStage,
                (None, EnergyPolicy::MarginalPrice) => &MarginalPriceStage,
                (None, EnergyPolicy::GridOnly) => &GridOnlyStage,
            };
        let ctx = Self::fresh_arena(&config, &is_bs);
        Ok(Self {
            batteries,
            phy,
            energy,
            config,
            gamma_max,
            beta,
            penalty_b,
            slot: 0,
            timings: StageTimings::default(),
            models,
            grid_limits,
            is_bs,
            parts,
            decomposition,
            node_part,
            node_local,
            session_loc,
            uncovered,
            bands,
            workers: workers.max(1),
            energy_stage,
            ctx,
        })
    }

    /// A cold global arena whose [`NetworkState`] carries the config's
    /// dynamic-policy knobs (inert when both are `None`).
    fn fresh_arena(config: &ControllerConfig, is_bs: &[bool]) -> SlotContext {
        SlotContext {
            net_state: NetworkState::new(is_bs, config.bs_sleep, config.energy_coop),
            ..SlotContext::default()
        }
    }

    /// The dynamic network state, when a dynamic-topology policy
    /// (`bs_sleep` / `energy_coop`) is enabled; `None` for the paper's
    /// static configuration.
    #[must_use]
    pub fn network_state(&self) -> Option<&NetworkState> {
        self.ctx.net_state.dynamic().then_some(&self.ctx.net_state)
    }

    /// The single part of a controller that covers the whole network.
    fn whole(&self) -> &Part {
        assert!(
            self.parts.len() == 1 && self.parts[0].whole,
            "a partitioned controller has no whole-network view"
        );
        &self.parts[0]
    }

    /// The network being controlled.
    ///
    /// # Panics
    ///
    /// Panics on a partitioned controller, which never assembles the
    /// whole network; use [`Controller::node_count`] and friends there.
    #[must_use]
    pub fn network(&self) -> &Network {
        &self.whole().net
    }

    /// The data queue bank `Q^s_i(t)`.
    ///
    /// # Panics
    ///
    /// Panics on a partitioned controller (see [`Controller::network`]).
    #[must_use]
    pub fn data(&self) -> &DataQueueBank {
        &self.whole().data
    }

    /// The virtual link queue bank `G_ij(t)` / `H_ij(t)`.
    ///
    /// # Panics
    ///
    /// Panics on a partitioned controller (see [`Controller::network`]).
    #[must_use]
    pub fn links(&self) -> &LinkQueueBank {
        &self.whole().links
    }

    /// Number of nodes under control.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.batteries.len()
    }

    /// Number of sessions under control.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.session_loc.len()
    }

    /// The interference clusters this controller is partitioned by (one
    /// cluster holding every node for [`Controller::new`]).
    #[must_use]
    pub fn decomposition(&self) -> &ClusterSet {
        &self.decomposition
    }

    /// Number of parts S1–S3 run on (clusters with a base station).
    #[must_use]
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// Total data backlog `Σ_s Q^s_i(t)` at node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn node_backlog(&self, i: NodeId) -> Packets {
        match self.parts.get(self.node_part[i.index()]) {
            Some(p) => p
                .data
                .node_backlog(NodeId::from_index(self.node_local[i.index()])),
            None => Packets::ZERO,
        }
    }

    /// Packets delivered so far on session `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    #[must_use]
    pub fn delivered(&self, s: SessionId) -> Packets {
        let (k, local) = self.session_loc[s.index()];
        self.parts[k].data.delivered(SessionId::from_index(local))
    }

    /// Total data-queue backlog over the whole network.
    #[must_use]
    pub fn total_data_backlog(&self) -> Packets {
        self.parts.iter().map(|p| p.data.total_backlog()).sum()
    }

    /// Battery of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn battery(&self, i: NodeId) -> &Battery {
        &self.batteries[i.index()]
    }

    /// Mutable battery of node `i`, for hardware fault injection (capacity
    /// fade, charge-path failure) between slots.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn battery_mut(&mut self, i: NodeId) -> &mut Battery {
        &mut self.batteries[i.index()]
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The scaling constant `β`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The shift constant `γ_max`.
    #[must_use]
    pub fn gamma_max(&self) -> f64 {
        self.gamma_max
    }

    /// Lemma 1's constant `B` — the `B/V` of Theorem 5's gap.
    #[must_use]
    pub fn penalty_b(&self) -> f64 {
        self.penalty_b
    }

    /// Cumulative wall-clock spent in each pipeline stage so far.
    #[must_use]
    pub fn stage_timings(&self) -> StageTimings {
        self.timings
    }

    /// The next slot index [`Controller::step`] will run (0-based; equals
    /// the number of slots stepped so far).
    #[must_use]
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Captures every piece of state that evolves across slots — the queue
    /// banks `Q^s_i`/`G_ij`, the batteries `x_i`, and the slot counter —
    /// as a [`ControllerState`] a later [`Controller::import_state`] can
    /// replay from.
    ///
    /// Derived constants (`β`, `γ_max`, `B`), the resolved pipeline stages,
    /// and the per-slot scratch are *not* captured: they are pure functions
    /// of the construction inputs: the S1 kernel equivalence gate proves
    /// S1's decisions are bit-identical whether its workspaces are warm or
    /// freshly defaulted, and the S4 sweep keeps nothing across slots.
    #[must_use]
    pub fn export_state(&self) -> ControllerState {
        let ns = &self.ctx.net_state;
        let dynamic = ns.dynamic();
        let (awake, idle_slots, ramp_remaining) = ns.export_timers();
        fn concat<T: Copy>(parts: &[Part], f: impl Fn(&Part) -> &[T]) -> Vec<T> {
            parts.iter().flat_map(|p| f(p).iter().copied()).collect()
        }
        fn when<T: Clone>(dynamic: bool, v: &[T]) -> Vec<T> {
            if dynamic {
                v.to_vec()
            } else {
                Vec::new()
            }
        }
        ControllerState {
            slot: self.slot,
            batteries: self.batteries.clone(),
            data_queues: concat(&self.parts, |p| p.data.queues()),
            delivered: concat(&self.parts, |p| p.data.delivered_per_session()),
            phantom: concat(&self.parts, |p| p.data.phantom_per_session()),
            link_queues: concat(&self.parts, |p| p.links.queues()),
            awake: when(dynamic, awake),
            idle_slots: when(dynamic, idle_slots),
            ramp_remaining: when(dynamic, ramp_remaining),
            association: when(dynamic, ns.association()),
            sleep_transitions: ns.sleep_transitions(),
            wake_transitions: ns.wake_transitions(),
            transferred_kwh: ns.transferred_kwh(),
        }
    }

    /// Checks that `state` fits this controller's partition: one battery
    /// per node, each part's queue layouts in part order, and the dynamic
    /// network-state vectors one entry per node when a dynamic policy is
    /// live, empty otherwise.
    ///
    /// # Errors
    ///
    /// A description of the first dimension that does not fit.
    pub fn check_state(&self, state: &ControllerState) -> Result<(), String> {
        let n = self.node_count();
        let sessions = self.session_count();
        let data: usize = self
            .parts
            .iter()
            .map(|p| p.nodes.len() * p.sessions.len())
            .sum();
        let links: usize = self.parts.iter().map(|p| p.nodes.len().pow(2)).sum();
        if state.batteries.len() != n
            || state.data_queues.len() != data
            || state.delivered.len() != sessions
            || state.phantom.len() != sessions
            || state.link_queues.len() != links
        {
            return Err("controller state dimensions do not fit the network".to_string());
        }
        let dyn_len = if self.ctx.net_state.dynamic() { n } else { 0 };
        let dyn_lens = [
            state.awake.len(),
            state.idle_slots.len(),
            state.ramp_remaining.len(),
            state.association.len(),
        ];
        if dyn_lens.iter().any(|&l| l != dyn_len) {
            return Err("network-state dimensions do not fit the network".to_string());
        }
        Ok(())
    }

    /// Overwrites the evolving state from a captured [`ControllerState`],
    /// resetting the per-slot scratch and stage timings (the warm S1
    /// kernel restarts cold — provably without affecting decisions,
    /// wall-clock restarts from zero by design).
    ///
    /// # Panics
    ///
    /// Panics if [`Controller::check_state`] rejects the state.
    pub fn import_state(&mut self, state: &ControllerState) {
        if let Err(e) = self.check_state(state) {
            panic!("{e}");
        }
        self.slot = state.slot;
        self.batteries.clone_from(&state.batteries);
        let (mut q, mut s, mut l) = (0, 0, 0);
        for p in &mut self.parts {
            let (pn, ps) = (p.nodes.len(), p.sessions.len());
            p.data.restore(
                &state.data_queues[q..q + pn * ps],
                &state.delivered[s..s + ps],
                &state.phantom[s..s + ps],
            );
            p.links.restore(&state.link_queues[l..l + pn * pn]);
            p.reset_scratch();
            (q, s, l) = (q + pn * ps, s + ps, l + pn * pn);
        }
        self.ctx = Self::fresh_arena(&self.config, &self.is_bs);
        if !state.awake.is_empty() {
            self.ctx.net_state.restore(
                &state.awake,
                &state.idle_slots,
                &state.ramp_remaining,
                &state.association,
                state.sleep_transitions,
                state.wake_transitions,
                state.transferred_kwh,
            );
        }
        self.timings = StageTimings::default();
    }

    /// Swaps the S4 stage for any [`EnergyStage`] (e.g.
    /// [`crate::pipeline::GridOnlyStage`], or a test's lockstep stage),
    /// overriding the one the config picked at construction. Lets a
    /// custom or baseline energy policy run under the full driver (timing,
    /// tracing, degradation ladder) without a config enum variant.
    pub fn set_energy_stage(&mut self, stage: &'static dyn EnergyStage) {
        self.energy_stage = stage;
    }

    /// The shifted battery level `z_i(t)` in kWh.
    #[must_use]
    pub fn shifted_level(&self, i: NodeId) -> f64 {
        dpp::shifted_level(
            self.batteries[i.index()].level(),
            self.config.v,
            self.gamma_max,
            self.batteries[i.index()].discharge_limit(),
        )
    }

    /// Runs one slot of the S1→S2→S3→S4 pipeline and advances all queues.
    ///
    /// # Errors
    ///
    /// [`ControllerError::IdleDeficit`] if a node cannot source even its
    /// fixed overhead energy (configuration inconsistency).
    ///
    /// # Panics
    ///
    /// Panics if `obs` has the wrong dimensions for this network.
    pub fn step(&mut self, obs: &SlotObservation) -> Result<SlotReport, ControllerError> {
        self.step_traced(obs, &mut NoopSink)
    }

    /// [`Controller::step`] with instrumentation: emits stage spans
    /// (S1–S4, S4 per retry attempt, plus the state advance and the whole
    /// slot), degradation marks, and drift/penalty/Ψ̂ gauges into `sink`.
    ///
    /// Every gauge and counter payload is derived from the slot index and
    /// the deterministic decisions, never from wall-clock — only the
    /// spans are nondeterministic. With [`NoopSink`] the instrumentation
    /// reduces to one `enabled()` branch per site.
    ///
    /// # Errors
    ///
    /// [`ControllerError::IdleDeficit`] if a node cannot source even its
    /// fixed overhead energy (configuration inconsistency).
    ///
    /// # Panics
    ///
    /// Panics if `obs` has the wrong dimensions for this network.
    pub fn step_traced(
        &mut self,
        obs: &SlotObservation,
        sink: &mut dyn Sink,
    ) -> Result<SlotReport, ControllerError> {
        // The parts and the arena are taken out of `self` so `&self`
        // helpers stay callable, and put back on every return.
        let mut parts = std::mem::take(&mut self.parts);
        let mut arena = std::mem::take(&mut self.ctx);
        let report = self.run_slot(obs, sink, &mut parts, &mut arena);
        self.parts = parts;
        self.ctx = arena;
        report
    }

    fn run_slot(
        &mut self,
        obs: &SlotObservation,
        sink: &mut dyn Sink,
        parts: &mut [Part],
        arena: &mut SlotContext,
    ) -> Result<SlotReport, ControllerError> {
        let traced = sink.enabled();
        let slot_start = traced.then(Instant::now);
        let nodes = self.node_count();
        obs.validate(nodes, self.session_count(), self.bands);
        let SlotContext {
            z,
            demand,
            z_after,
            s4,
            energy,
            net_state,
        } = arena;

        // Dynamic network state: copy the fault mask in and feed the sleep
        // machine its backlog signal. Entirely skipped (and bit-identically
        // absent) when neither dynamic policy is enabled.
        let dynamic = net_state.dynamic();
        if dynamic {
            net_state.begin_slot(&obs.node_available);
            for p in parts.iter() {
                for (local, &g) in p.nodes.iter().enumerate() {
                    let backlog = p.data.node_backlog(NodeId::from_index(local));
                    net_state.set_node_backlog(g, backlog.count_f64());
                }
            }
        }

        // Shifted battery levels for this slot.
        z.clear();
        z.extend((0..nodes).map(|i| self.shifted_level(NodeId::from_index(i))));

        // S1 — the BS sleep machine, once over the whole network (a gain
        // between different parts is exactly zero), then link scheduling
        // (+ minimal powers) per part over the resulting active set.
        let clock = StageClock::start();
        let sleeping = self.config.bs_sleep.is_some();
        if sleeping {
            let (node_part, node_local) = (&self.node_part, &self.node_local);
            let solved: &[Part] = parts;
            let gain = |u: usize, b: usize| match solved.get(node_part[u]) {
                Some(p) if node_part[u] == node_part[b] => p.net.topology().gain(
                    NodeId::from_index(node_local[u]),
                    NodeId::from_index(node_local[b]),
                ),
                _ => 0.0,
            };
            net_state.step_sleep(&gain);
        }
        let cx = PartInputs {
            phy: &self.phy,
            config: &self.config,
            obs,
            net_state: &*net_state,
            dynamic,
            s1_mask: if sleeping {
                net_state.active()
            } else {
                &obs.node_available
            },
            beta_cap: Packets::new(self.beta.floor() as u64),
            batteries: &self.batteries,
            grid_limits: &self.grid_limits,
        };
        let workers = self.workers;
        for_each_part(parts, workers, &|p| p.schedule(&cx));
        clock.stop(&mut self.timings.s1, self.slot, Stage::S1, traced, sink);

        // S2 — source selection and admission control.
        let clock = StageClock::start();
        for_each_part(parts, workers, &|p| p.admit(&cx));
        clock.stop(&mut self.timings.s2, self.slot, Stage::S2, traced, sink);

        // S3 — routing caps, link service and flows.
        let clock = StageClock::start();
        for_each_part(parts, workers, &|p| p.route(&cx));
        clock.stop(&mut self.timings.s3, self.slot, Stage::S3, traced, sink);

        // S4, with the fallback ladder in case S4 reports a deficit the
        // worst-case precheck missed (or a fault made the observation
        // inconsistent). The ladder is `pipeline::fallback_ladder`'s list:
        // graceful descends shed → grid-only → drop schedule → safe mode;
        // strict aborts when shedding cannot help.
        let mut shed = 0usize;
        let mut degradation: Vec<DegradationEvent> = Vec::new();
        // Time-of-use pricing: this slot the provider pays `m·f(P)`, which
        // for the quadratic f is exactly the scaled quadratic — S4's
        // exactness is preserved.
        let scaled_cost = dpp::scaled_cost(&self.energy.cost, obs.price_multiplier);
        loop {
            demand.clear();
            demand.resize(nodes, Energy::ZERO);
            for p in parts.iter() {
                p.demand_into(demand, &self.config);
            }
            for &g in &self.uncovered {
                demand[g] = self.models[g].slot_demand(None, false, self.config.slot);
            }
            // Sleep-policy demand override: an asleep BS draws only its
            // sleep power, a ramping BS its ramp power. Outage-forced-awake
            // BSs take the normal path (identical to the static pipeline).
            if let Some(sp) = self.config.bs_sleep {
                for (i, d) in demand.iter_mut().enumerate() {
                    if !self.is_bs[i] {
                        continue;
                    }
                    if net_state.is_asleep(i) {
                        *d = sp.sleep_power * self.config.slot;
                    } else if net_state.ramp_remaining(i) > 0 {
                        *d = sp.ramp_power * self.config.slot;
                    }
                }
            }
            let input = EnergyManagementInput {
                z,
                demand,
                renewable: &obs.renewable,
                batteries: &self.batteries,
                grid_connected: &obs.grid_connected,
                grid_limits: &self.grid_limits,
                is_base_station: &self.is_bs,
                cost: &scaled_cost,
                v: self.config.v,
            };
            let clock = StageClock::start();
            let solved = self.energy_stage.solve(&input, net_state, s4, energy);
            clock.stop(&mut self.timings.s4, self.slot, Stage::S4, traced, sink);
            let Err(err) = solved else { break };
            let mut cx = FallbackCx {
                parts: &mut *parts,
                node_part: &self.node_part,
                node_local: &self.node_local,
                phy: &self.phy,
                config: &self.config,
                spectrum: &obs.spectrum,
                nodes,
                slot: self.slot,
                input: &input,
                energy,
                degradation: &mut degradation,
                shed: &mut shed,
                traced,
                sink: &mut *sink,
            };
            let mut decision = FallbackOutcome::Pass;
            for rung in pipeline::fallback_ladder(self.config.degradation) {
                decision = rung(&err, &mut cx);
                if decision != FallbackOutcome::Pass {
                    break;
                }
            }
            match decision {
                FallbackOutcome::Retry => continue,
                FallbackOutcome::Resolved => break,
                FallbackOutcome::Pass => return Err(err.into()),
            }
        }

        // State advance, timed from here so every piece of work after S4
        // falls inside a stage span. First the drift-plus-penalty
        // diagnostics for the chosen actions, computed against the
        // *pre-update* queue state (as in Lemma 1); every sum runs over the
        // parts in order.
        let advance_start = traced.then(Instant::now);
        let psi1 = dpp::psi1(
            self.beta,
            parts.iter().flat_map(|p| {
                p.link_service
                    .iter()
                    .map(|&(i, j, pkts)| p.links.h(i, j) * pkts.count_f64())
            }),
        );
        let psi2 = dpp::psi2(
            parts.iter().flat_map(|p| {
                p.admissions.iter().map(|a| {
                    (
                        p.data.backlog(a.source, a.session).count_f64(),
                        a.packets.count_f64(),
                    )
                })
            }),
            self.config.lambda,
            self.config.v,
        );
        let psi3 = dpp::psi3(parts.iter().flat_map(|p| {
            p.flows.iter_nonzero().map(|(s, i, j, l)| {
                let coeff = -p.data.backlog(i, s).count_f64()
                    + p.data.backlog(j, s).count_f64()
                    + self.beta * p.links.h(i, j);
                (coeff, l.count_f64())
            })
        }));

        // Batteries by the decisions, then the queues by their laws: each
        // part advances and takes its Lyapunov terms on the workers.
        for (battery, decision) in self.batteries.iter_mut().zip(&energy.decisions) {
            decision
                .apply_to_battery(battery)
                .expect("validated decision must apply");
        }
        z_after.clear();
        z_after.extend((0..nodes).map(|i| self.shifted_level(NodeId::from_index(i))));
        let (z, z_after) = (&*z, &*z_after);
        for_each_part(parts, workers, &|p| p.advance(z, z_after));

        // `L = Σ_parts L_part + ½·Σ_{uncovered} z²`: the Lyapunov value
        // decomposes over parts because every queue lives inside one part
        // and the energy term is a per-node sum. Every total is reduced
        // here in part order, one fixed `f64` association at any worker
        // count.
        let (mut lyapunov_before, mut lyapunov_after) = (0.0, 0.0);
        let (mut admitted, mut routed, mut scheduled_links) = (0, 0, 0);
        for p in parts.iter() {
            let a = &p.advanced;
            lyapunov_before += a.lyapunov_before;
            lyapunov_after += a.lyapunov_after;
            admitted += a.admitted;
            routed += a.routed;
            scheduled_links += a.scheduled_links;
        }
        for &g in &self.uncovered {
            lyapunov_before += 0.5 * z[g] * z[g];
            lyapunov_after += 0.5 * z_after[g] * z_after[g];
        }
        if let Some(start) = advance_start {
            sink.record(TraceEvent::span_ended(
                self.slot,
                Stage::Advance,
                sink.now_nanos(),
                start.elapsed(),
            ));
        }

        let report = SlotReport {
            slot: self.slot,
            cost: energy.cost,
            grid_draw: energy.grid_draw,
            scheduled_links,
            admitted: Packets::new(admitted),
            routed: Packets::new(routed),
            psi1,
            psi2,
            psi3,
            psi4: energy.objective,
            lyapunov_before,
            lyapunov_after,
            shed_transmissions: shed,
            degradation,
        };
        if traced {
            let slot = self.slot;
            for (name, value) in [
                ("psi1", report.psi1),
                ("psi2", report.psi2),
                ("psi3", report.psi3),
                ("psi4", report.psi4),
                (names::DRIFT, report.lyapunov_after - report.lyapunov_before),
                (
                    names::PENALTY,
                    self.config.v
                        * (report.cost - self.config.lambda * report.admitted.count_f64()),
                ),
            ] {
                sink.record(TraceEvent::Gauge { slot, name, value });
            }
            for (name, value) in [
                ("scheduled_links", report.scheduled_links as u64),
                ("admitted", report.admitted.count()),
                ("routed", report.routed.count()),
                ("shed", report.shed_transmissions as u64),
            ] {
                sink.record(TraceEvent::Counter { slot, name, value });
            }
            if let Some(start) = slot_start {
                sink.record(TraceEvent::span_ended(
                    slot,
                    Stage::Slot,
                    sink.now_nanos(),
                    start.elapsed(),
                ));
            }
        }
        self.slot += 1;
        self.timings.slots += 1;
        Ok(report)
    }
}
