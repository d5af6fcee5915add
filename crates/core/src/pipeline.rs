//! The pieces of the S1–S4 slot pipeline (§IV-C) that the driver
//! [`crate::Controller::step`] strings together.
//!
//! The config enums pick S1 and the relay rule directly: each part's S1
//! matches on [`crate::SchedulerKind`], and routing asks
//! [`crate::RelayPolicy::may_relay`]. S4 is the one seam with real
//! variation, so it stays a trait: [`EnergyStage`], with the paper's
//! [`MarginalPriceStage`], the [`GridOnlyStage`] ablation and the coupled
//! [`EnergyCoopStage`]. The controller picks one from the config at
//! construction, and tests swap in a fake (a stage that checks the sweep
//! against the S4 reference) through [`crate::Controller::set_energy_stage`].
//!
//! The degradation ladder (shed → grid-only → drop schedule → safe mode)
//! is a list of [`FallbackRung`] functions picked by [`fallback_ladder`];
//! each rung sees the failed S4 input and the slot's mutable state through
//! a [`FallbackCx`] and answers with a [`FallbackOutcome`].
//!
//! S1 runs once per [`crate::Part`] of the controller's partition; S4
//! and the ladder run once over the whole network, so the rungs reach the
//! parts' schedules through [`FallbackCx::parts`]. All per-slot scratch
//! lives in the parts and the global [`SlotContext`] arena, retained
//! across slots, so a steady-state slot touches the heap zero times
//! (audited in `crates/core/tests/s1_zero_alloc.rs`), and [`StageClock`]
//! gives every stage boundary the same timing + span treatment.
//!
//! The `driver_golden` fingerprints in `greencell-sim`, recorded in
//! lockstep with the original monolithic controller, pin every decision
//! the driver makes.

use crate::netstate::NetworkState;
use crate::{
    solve_energy_management_into, solve_grid_only_into, solve_safe_mode, ControllerConfig,
    DegradationEvent, DegradationPolicy, EnergyManagementError, EnergyManagementInput,
    EnergyOutcome, Part, S4Workspace, ScheduleOutcome,
};
use greencell_net::{Network, NodeId};
use greencell_phy::{PhyConfig, Schedule, SpectrumState};
use greencell_trace::{Sink, Stage, TraceEvent};
use greencell_units::{Energy, Power};
use std::fmt;
use std::time::{Duration, Instant};

/// An S4 energy-management stage: solves the slot's sourcing problem into
/// a caller-retained workspace and outcome.
///
/// Stages also see the slot's mutable [`NetworkState`]: the paper's
/// per-node stages ignore it, while [`EnergyCoopStage`] records its
/// inter-BS transfers there.
pub trait EnergyStage: fmt::Debug + Sync {
    /// Runs S4 for one slot.
    ///
    /// # Errors
    ///
    /// [`EnergyManagementError`] when the stage cannot source some node's
    /// demand — the driver then walks the degradation ladder.
    fn solve(
        &self,
        input: &EnergyManagementInput<'_>,
        net_state: &mut NetworkState,
        ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), EnergyManagementError>;
}

/// Built-in S4 stage: the exact marginal-price equilibrium, found by the
/// breakpoint sweep [`crate::solve_energy_management_into`] in the slot
/// arena's [`S4Workspace`].
#[derive(Debug, Clone, Copy)]
pub struct MarginalPriceStage;

impl EnergyStage for MarginalPriceStage {
    fn solve(
        &self,
        input: &EnergyManagementInput<'_>,
        _net_state: &mut NetworkState,
        ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), EnergyManagementError> {
        solve_energy_management_into(input, ws, out)
    }
}

/// Built-in S4 stage: the storage-oblivious grid-first baseline
/// ([`crate::solve_grid_only`]) — the ablation policy behind the same
/// seam as the paper's solver.
#[derive(Debug, Clone, Copy)]
pub struct GridOnlyStage;

impl EnergyStage for GridOnlyStage {
    fn solve(
        &self,
        input: &EnergyManagementInput<'_>,
        _net_state: &mut NetworkState,
        _ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), EnergyManagementError> {
        solve_grid_only_into(input, out)
    }
}

/// Coupled multi-node S4 stage: computes this slot's
/// lossy inter-BS renewable transfers (efficiency `η_x`) in the
/// [`NetworkState`], then solves the marginal-price problem on the
/// transfer-adjusted renewable vector with the same sweep as
/// [`MarginalPriceStage`]. At `η_x = 0` the adjusted vector is a verbatim
/// copy and the stage is bit-identical to [`MarginalPriceStage`] — the
/// standing equivalence reference.
#[derive(Debug, Clone, Copy)]
pub struct EnergyCoopStage;

impl EnergyStage for EnergyCoopStage {
    fn solve(
        &self,
        input: &EnergyManagementInput<'_>,
        net_state: &mut NetworkState,
        ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), EnergyManagementError> {
        net_state.compute_transfers(input);
        let adjusted = EnergyManagementInput {
            z: input.z,
            demand: input.demand,
            renewable: net_state.adjusted_renewable(),
            batteries: input.batteries,
            grid_connected: input.grid_connected,
            grid_limits: input.grid_limits,
            is_base_station: input.is_base_station,
            cost: input.cost,
            v: input.v,
        };
        solve_energy_management_into(&adjusted, ws, out)
    }
}

/// What a [`FallbackRung`] decided about a failed S4 solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackOutcome {
    /// The rung changed the slot's plan (shed transmissions); re-run
    /// S3 + S4 on the reduced schedule.
    Retry,
    /// The rung produced a final energy outcome; the slot proceeds to the
    /// state advance.
    Resolved,
    /// The rung does not apply here; try the next one. A ladder that ends
    /// on `Pass` aborts the slot with the S4 error.
    Pass,
}

/// One rung of the degradation ladder. Rungs run in the order
/// [`fallback_ladder`] lists them, each seeing the S4 error and the slot's
/// mutable state, until one answers something other than
/// [`FallbackOutcome::Pass`].
pub type FallbackRung = fn(&EnergyManagementError, &mut FallbackCx<'_>) -> FallbackOutcome;

/// Everything a [`FallbackRung`] may inspect or mutate: the environment
/// the failed S4 solve ran in, plus the slot's in-flight decisions.
pub struct FallbackCx<'a> {
    /// The partition's parts, holding each part's schedule, admissions,
    /// link service and flows — shedding rungs reduce the schedules, safe
    /// mode clears the rest.
    pub parts: &'a mut [Part],
    /// Global node id → index into `parts` (`usize::MAX` for a node in
    /// no part, which never transmits).
    pub node_part: &'a [usize],
    /// Global node id → local id inside its part.
    pub node_local: &'a [usize],
    /// PHY parameters (for power re-assignment after shedding).
    pub phy: &'a PhyConfig,
    /// The controller configuration (for the link service after shedding).
    pub config: &'a ControllerConfig,
    /// This slot's spectrum state.
    pub spectrum: &'a SpectrumState,
    /// Node count.
    pub nodes: usize,
    /// The slot index (for trace marks).
    pub slot: u64,
    /// The failed S4 input (its borrows stay valid through the ladder).
    pub input: &'a EnergyManagementInput<'a>,
    /// Where a resolving rung writes its energy outcome.
    pub energy: &'a mut EnergyOutcome,
    /// The slot's degradation log.
    pub degradation: &'a mut Vec<DegradationEvent>,
    /// Cumulative transmissions shed this slot.
    pub shed: &'a mut usize,
    /// Whether tracing is enabled for this slot.
    pub traced: bool,
    /// The trace sink (rungs emit marks only when `traced`).
    pub sink: &'a mut dyn Sink,
}

impl FallbackCx<'_> {
    /// Emits a degradation mark when tracing is enabled.
    pub fn mark(&mut self, name: &'static str) {
        if self.traced {
            self.sink.record(TraceEvent::Mark {
                slot: self.slot,
                name,
            });
        }
    }
}

/// Rung 1 — shed every transmission touching the starving node, inside
/// the part that owns it, and retry; an `Invalid` decision sheds the first
/// transmitter (drop load, stay safe). Passes when the schedule is already
/// empty or shedding the starving node's links would drop nothing.
fn shed(err: &EnergyManagementError, cx: &mut FallbackCx<'_>) -> FallbackOutcome {
    let Some(first) = cx.parts.iter().find(|p| !p.outcome.schedule.is_empty()) else {
        return FallbackOutcome::Pass;
    };
    let node = match err {
        EnergyManagementError::Deficit { node, .. } => (*node).min(cx.nodes - 1),
        _ => first.nodes[first.outcome.schedule.transmissions()[0].tx().index()],
    };
    let Some(part) = cx.parts.get_mut(cx.node_part[node]) else {
        return FallbackOutcome::Pass;
    };
    let before = part.outcome.schedule.len();
    let local = NodeId::from_index(cx.node_local[node]);
    let reduced = shed_node(
        &part.net,
        &part.outcome,
        local,
        cx.spectrum,
        cx.phy,
        &part.max_powers,
    );
    let dropped = before - reduced.schedule.len();
    if dropped == 0 {
        // The starving node is already idle: shedding its links cannot
        // help. Fall through the ladder.
        return FallbackOutcome::Pass;
    }
    part.outcome = reduced;
    part.refresh_link_service(cx.spectrum, cx.phy, cx.config);
    *cx.shed += dropped;
    cx.degradation
        .push(DegradationEvent::Shed { node, dropped });
    cx.mark("degrade_shed");
    FallbackOutcome::Retry
}

/// Rung 2 — the storage-oblivious grid-only solver; catches marginal-price
/// internal failures and any case where abandoning the Lyapunov objective
/// restores feasibility.
fn grid_only_fallback(_err: &EnergyManagementError, cx: &mut FallbackCx<'_>) -> FallbackOutcome {
    if solve_grid_only_into(cx.input, cx.energy).is_ok() {
        cx.degradation.push(DegradationEvent::GridOnlyFallback);
        cx.mark("degrade_grid_only");
        FallbackOutcome::Resolved
    } else {
        FallbackOutcome::Pass
    }
}

/// Rung 3a — still infeasible with traffic on the air: drop the whole
/// schedule and retry on idle demand.
fn drop_schedule(_err: &EnergyManagementError, cx: &mut FallbackCx<'_>) -> FallbackOutcome {
    let dropped: usize = cx.parts.iter().map(|p| p.outcome.schedule.len()).sum();
    if dropped == 0 {
        return FallbackOutcome::Pass;
    }
    *cx.shed += dropped;
    cx.degradation.push(DegradationEvent::Shed {
        node: cx.nodes, // sentinel: whole-schedule drop
        dropped,
    });
    cx.mark("degrade_shed");
    for part in cx.parts.iter_mut() {
        part.outcome.clear();
        part.link_service.clear();
    }
    FallbackOutcome::Retry
}

/// Rung 3b — safe mode: serve what physics allows, record each brown-out,
/// admit and route nothing. Always resolves.
fn safe_mode(_err: &EnergyManagementError, cx: &mut FallbackCx<'_>) -> FallbackOutcome {
    let safe = solve_safe_mode(cx.input);
    for &(node, deficit) in &safe.deficits {
        cx.degradation
            .push(DegradationEvent::SafeMode { node, deficit });
        cx.mark("degrade_safe_mode");
    }
    for part in cx.parts.iter_mut() {
        part.admissions.clear();
        part.link_service.clear();
        part.flows.reset(part.nodes.len(), part.sessions.len());
    }
    *cx.energy = safe.outcome;
    FallbackOutcome::Resolved
}

const GRACEFUL_LADDER: &[FallbackRung] = &[shed, grid_only_fallback, drop_schedule, safe_mode];
const STRICT_LADDER: &[FallbackRung] = &[shed];

/// The fallback ladder a degradation policy resolves to: graceful runs
/// shed → grid-only → drop schedule → safe mode; strict only sheds, so a
/// deficit that shedding cannot cure aborts the slot.
#[must_use]
pub fn fallback_ladder(policy: DegradationPolicy) -> &'static [FallbackRung] {
    match policy {
        DegradationPolicy::Graceful => GRACEFUL_LADDER,
        DegradationPolicy::Strict => STRICT_LADDER,
    }
}

/// The relaxed controller's S4 chain: marginal price (the sweep, in the
/// caller's workspace), else grid-only, else safe mode (never fails).
/// Shared with [`crate::RelaxedController`] so the lower bound cannot
/// drift from the online ladder's solver order.
pub fn solve_energy_with_fallbacks_into(
    input: &EnergyManagementInput<'_>,
    ws: &mut S4Workspace,
    out: &mut EnergyOutcome,
) {
    if solve_energy_management_into(input, ws, out).is_err()
        && solve_grid_only_into(input, out).is_err()
    {
        *out = solve_safe_mode(input).outcome;
    }
}

/// Rebuilds the schedule without any transmission touching `node`, then
/// recomputes minimal powers.
pub fn shed_node(
    net: &Network,
    outcome: &ScheduleOutcome,
    node: NodeId,
    spectrum: &SpectrumState,
    phy: &PhyConfig,
    max_powers: &[Power],
) -> ScheduleOutcome {
    let mut schedule = Schedule::new();
    for t in outcome.schedule.transmissions() {
        if t.tx() != node && t.rx() != node {
            schedule
                .try_add(net, *t)
                .expect("subset of a valid schedule stays valid");
        }
    }
    let powers = if schedule.is_empty() {
        Vec::new()
    } else {
        greencell_phy::min_power_assignment(net, &schedule, spectrum, phy, max_powers)
            .unwrap_or_default()
    };
    ScheduleOutcome { schedule, powers }
}

/// The global per-slot arena: the whole-network buffers S4 and the state
/// advance touch (the per-part S1–S3 scratch lives in each
/// [`crate::Part`]), retained across slots so a steady-state
/// [`crate::Controller::step`] performs zero heap allocations. Taken out
/// of the controller with [`std::mem::take`] for the duration of a step
/// (so `&self` helper calls stay legal) and put back before it returns.
#[derive(Debug, Clone, Default)]
pub struct SlotContext {
    pub(crate) z: Vec<f64>,
    pub(crate) demand: Vec<Energy>,
    pub(crate) z_after: Vec<f64>,
    pub(crate) s4: S4Workspace,
    pub(crate) energy: EnergyOutcome,
    pub(crate) net_state: NetworkState,
}

impl SlotContext {
    /// Creates an empty arena; every buffer grows to its steady-state size
    /// over the first slot and is retained afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Uniform stage-boundary instrumentation: accumulates the stage's
/// wall-clock into the matching [`crate::StageTimings`] field *always*
/// (the sweep engine reads timings from untraced runs) and emits the
/// stage span only when the sink is enabled. Replaces the hand-wired
/// `Instant` pairs the monolithic `step_traced` carried per stage; with
/// [`greencell_trace::NoopSink`] the only per-slot wall-clock reads are
/// the four S1–S4 pairs — exactly the monolith's set (the Slot/Advance
/// spans stay gated behind `enabled()` in the driver).
#[derive(Debug)]
pub struct StageClock {
    start: Instant,
}

impl StageClock {
    /// Starts timing a stage.
    #[must_use]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Stops timing: accumulates into `acc` and, when `traced`, emits the
    /// stage's span into `sink`.
    pub fn stop(
        self,
        acc: &mut Duration,
        slot: u64,
        stage: Stage,
        traced: bool,
        sink: &mut dyn Sink,
    ) {
        let elapsed = self.start.elapsed();
        *acc += elapsed;
        if traced {
            sink.record(TraceEvent::span_ended(
                slot,
                stage,
                sink.now_nanos(),
                elapsed,
            ));
        }
    }
}
