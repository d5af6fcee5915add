//! The typed, pluggable S1–S4 slot pipeline (§IV-C as an explicit stage
//! graph).
//!
//! [`crate::Controller::step`] is a thin driver over this module. Each
//! subproblem of the paper's per-slot decomposition sits behind a trait —
//! [`ScheduleStage`] for S1 link scheduling, [`RelayStage`] for the
//! routing-eligibility seam, [`EnergyStage`] for S4 energy management —
//! resolved once at construction through the static registry
//! ([`schedule_stage`], [`relay_stage`], [`energy_stage`]) from the config
//! enums' [`crate::SchedulerKind::key`] / [`crate::RelayPolicy::key`] /
//! [`crate::EnergyPolicy::key`]. The degradation ladder (shed → grid-only
//! → drop schedule → safe mode) is a chain of [`FallbackStage`] rungs
//! selected by [`fallback_ladder`]; each rung sees the failed S4 input and
//! the slot's mutable state through a [`FallbackCx`] and answers with a
//! [`FallbackOutcome`].
//!
//! S1 runs once per [`crate::Part`] of the controller's partition; S4
//! and the ladder run once over the whole network, so the rungs reach the
//! parts' schedules through [`FallbackCx::parts`]. All per-slot scratch
//! lives in the parts and the global [`SlotContext`] arena, retained
//! across slots, so a steady-state slot touches the heap zero times
//! (audited in `crates/core/tests/s1_zero_alloc.rs`), and [`StageClock`]
//! gives every stage boundary the same timing + span treatment.
//!
//! Everything here is bit-identical to the pre-pipeline monolithic
//! controller: stage implementations call the exact same kernels in the
//! exact same order, and the `driver_golden` fingerprints in
//! `greencell-sim` (recorded in lockstep with that controller) hold that
//! line.

use crate::netstate::NetworkState;
use crate::s1::S1Inputs;
use crate::{
    greedy_schedule_with, sequential_fix_schedule_with, solve_energy_management_warm_into,
    solve_grid_only_into, solve_safe_mode, ControllerConfig, DegradationEvent, DegradationPolicy,
    EnergyManagementError, EnergyManagementInput, EnergyOutcome, Part, S1Scratch, S4Workspace,
    ScheduleOutcome,
};
use greencell_net::{Network, NodeId};
use greencell_phy::{PhyConfig, Schedule, SpectrumState};
use greencell_trace::{Sink, Stage, TraceEvent};
use greencell_units::{Energy, Power};
use std::fmt;
use std::time::{Duration, Instant};

/// An S1 link-scheduling stage: fills `out` with one part's schedule and
/// minimal power assignment using caller-retained scratch. The driver
/// runs the BS sleep machine before S1, so `inputs.available` already
/// masks sleeping and ramping base stations.
pub trait ScheduleStage: fmt::Debug + Sync {
    /// The registry key this stage is looked up by.
    fn key(&self) -> &'static str;
    /// Runs S1 for one slot.
    fn schedule(&self, inputs: &S1Inputs<'_>, scratch: &mut S1Scratch, out: &mut ScheduleOutcome);
}

/// The relay-eligibility seam between S1/S3 and the topology: which nodes
/// may originate transmissions and carry routed flow (Fig. 2(f) ablation).
pub trait RelayStage: fmt::Debug + Sync {
    /// The registry key this stage is looked up by.
    fn key(&self) -> &'static str;
    /// Whether `node` may transmit/relay under this policy.
    fn may_relay(&self, net: &Network, node: NodeId) -> bool;
}

/// An S4 energy-management stage: solves the slot's sourcing problem into
/// a caller-retained workspace and outcome.
///
/// Stages also see the slot's mutable [`NetworkState`]: the paper's
/// per-node stages ignore it, while [`EnergyCoopStage`] records its
/// inter-BS transfers there.
pub trait EnergyStage: fmt::Debug + Sync {
    /// The registry key this stage is looked up by.
    fn key(&self) -> &'static str;
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

/// Built-in S1 stage: the weight-greedy scheduler
/// ([`crate::greedy_schedule`]).
#[derive(Debug, Clone, Copy)]
pub struct GreedyStage;

impl ScheduleStage for GreedyStage {
    fn key(&self) -> &'static str {
        "greedy"
    }

    fn schedule(&self, inputs: &S1Inputs<'_>, scratch: &mut S1Scratch, out: &mut ScheduleOutcome) {
        greedy_schedule_with(inputs, scratch, out);
    }
}

/// Built-in S1 stage: the paper's sequential-fix LP heuristic
/// ([`crate::sequential_fix_schedule`]).
#[derive(Debug, Clone, Copy)]
pub struct SequentialFixStage;

impl ScheduleStage for SequentialFixStage {
    fn key(&self) -> &'static str {
        "sequential_fix"
    }

    fn schedule(&self, inputs: &S1Inputs<'_>, scratch: &mut S1Scratch, out: &mut ScheduleOutcome) {
        sequential_fix_schedule_with(inputs, scratch, out);
    }
}

/// Built-in relay stage: any node may relay (the paper's proposed
/// multi-hop architecture).
#[derive(Debug, Clone, Copy)]
pub struct MultiHopStage;

impl RelayStage for MultiHopStage {
    fn key(&self) -> &'static str {
        "multi_hop"
    }

    fn may_relay(&self, _net: &Network, _node: NodeId) -> bool {
        true
    }
}

/// Built-in relay stage: only base stations transmit (traditional
/// one-hop downlink).
#[derive(Debug, Clone, Copy)]
pub struct OneHopStage;

impl RelayStage for OneHopStage {
    fn key(&self) -> &'static str {
        "one_hop"
    }

    fn may_relay(&self, net: &Network, node: NodeId) -> bool {
        net.topology().node(node).kind().is_base_station()
    }
}

/// Built-in S4 stage: the exact marginal-price equilibrium, solved by the
/// warm-started threshold-replay kernel
/// ([`crate::solve_energy_management_warm_into`]) — bit-identical to the
/// cold-bisection oracle [`crate::solve_energy_management_into`], with the
/// warm state living in the slot arena's [`S4Workspace`].
#[derive(Debug, Clone, Copy)]
pub struct MarginalPriceStage;

impl EnergyStage for MarginalPriceStage {
    fn key(&self) -> &'static str {
        "marginal_price"
    }

    fn solve(
        &self,
        input: &EnergyManagementInput<'_>,
        _net_state: &mut NetworkState,
        ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), EnergyManagementError> {
        solve_energy_management_warm_into(input, ws, out)
    }
}

/// Built-in S4 stage: the storage-oblivious grid-first baseline
/// ([`crate::solve_grid_only`]) — the ablation policy registered through
/// the same seam as the paper's solver.
#[derive(Debug, Clone, Copy)]
pub struct GridOnlyStage;

impl EnergyStage for GridOnlyStage {
    fn key(&self) -> &'static str {
        "grid_only"
    }

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

/// Coupled multi-node S4 stage (key `"energy_coop"`): computes this slot's
/// lossy inter-BS renewable transfers (efficiency `η_x`) in the
/// [`NetworkState`], then solves the marginal-price problem on the
/// transfer-adjusted renewable vector with the same warm kernel as
/// [`MarginalPriceStage`]. At `η_x = 0` the adjusted vector is a verbatim
/// copy and the stage is bit-identical to the per-node oracle — the
/// standing equivalence reference.
#[derive(Debug, Clone, Copy)]
pub struct EnergyCoopStage;

impl EnergyStage for EnergyCoopStage {
    fn key(&self) -> &'static str {
        "energy_coop"
    }

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
        solve_energy_management_warm_into(&adjusted, ws, out)
    }
}

static GREEDY: GreedyStage = GreedyStage;
static SEQUENTIAL_FIX: SequentialFixStage = SequentialFixStage;
static MULTI_HOP: MultiHopStage = MultiHopStage;
static ONE_HOP: OneHopStage = OneHopStage;
static MARGINAL_PRICE: MarginalPriceStage = MarginalPriceStage;
static GRID_ONLY: GridOnlyStage = GridOnlyStage;
static ENERGY_COOP: EnergyCoopStage = EnergyCoopStage;

static SCHEDULE_STAGES: [&dyn ScheduleStage; 2] = [&GREEDY, &SEQUENTIAL_FIX];
static RELAY_STAGES: [&dyn RelayStage; 2] = [&MULTI_HOP, &ONE_HOP];
static ENERGY_STAGES: [&dyn EnergyStage; 3] = [&MARGINAL_PRICE, &GRID_ONLY, &ENERGY_COOP];

/// A stage-registry lookup failed: the error names the unknown key and
/// enumerates every registered key of that stage kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownStageKey {
    /// Which registry was searched (`"schedule"`, `"relay"`, `"energy"`).
    pub kind: &'static str,
    /// The key that failed to resolve.
    pub key: String,
    /// Every key registered in that registry.
    pub valid: Vec<&'static str>,
}

impl fmt::Display for UnknownStageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown {} stage key \"{}\"; valid keys: {}",
            self.kind,
            self.key,
            self.valid.join(", ")
        )
    }
}

impl std::error::Error for UnknownStageKey {}

/// Looks up a registered S1 stage by key (`"greedy"`, `"sequential_fix"`).
///
/// # Errors
///
/// [`UnknownStageKey`] naming the key and the registered alternatives.
pub fn schedule_stage(key: &str) -> Result<&'static dyn ScheduleStage, UnknownStageKey> {
    SCHEDULE_STAGES
        .iter()
        .copied()
        .find(|s| s.key() == key)
        .ok_or_else(|| UnknownStageKey {
            kind: "schedule",
            key: key.to_string(),
            valid: SCHEDULE_STAGES.iter().map(|s| s.key()).collect(),
        })
}

/// Looks up a registered relay stage by key (`"multi_hop"`, `"one_hop"`).
///
/// # Errors
///
/// [`UnknownStageKey`] naming the key and the registered alternatives.
pub fn relay_stage(key: &str) -> Result<&'static dyn RelayStage, UnknownStageKey> {
    RELAY_STAGES
        .iter()
        .copied()
        .find(|s| s.key() == key)
        .ok_or_else(|| UnknownStageKey {
            kind: "relay",
            key: key.to_string(),
            valid: RELAY_STAGES.iter().map(|s| s.key()).collect(),
        })
}

/// Looks up a registered S4 stage by key (`"marginal_price"`,
/// `"grid_only"`, `"energy_coop"`).
///
/// # Errors
///
/// [`UnknownStageKey`] naming the key and the registered alternatives.
pub fn energy_stage(key: &str) -> Result<&'static dyn EnergyStage, UnknownStageKey> {
    ENERGY_STAGES
        .iter()
        .copied()
        .find(|s| s.key() == key)
        .ok_or_else(|| UnknownStageKey {
            kind: "energy",
            key: key.to_string(),
            valid: ENERGY_STAGES.iter().map(|s| s.key()).collect(),
        })
}

/// What a [`FallbackStage`] rung decided about a failed S4 solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackOutcome {
    /// The rung changed the slot's plan (shed transmissions); re-run
    /// S3 + S4 on the reduced schedule.
    Retry,
    /// The rung produced a final energy outcome; the slot proceeds to the
    /// state advance.
    Resolved,
    /// The rung does not apply here; try the next one.
    Pass,
    /// Abort the slot with the original error (the strict policy).
    Abort,
}

/// One rung of the degradation ladder. Rungs run in the order
/// [`fallback_ladder`] lists them, each seeing the S4 error and the slot's
/// mutable state, until one answers something other than
/// [`FallbackOutcome::Pass`].
pub trait FallbackStage: fmt::Debug + Sync {
    /// Stable rung name (for debugging).
    fn name(&self) -> &'static str;
    /// Attempts to recover from `err`.
    fn attempt(&self, err: &EnergyManagementError, cx: &mut FallbackCx<'_>) -> FallbackOutcome;
}

/// Everything a [`FallbackStage`] may inspect or mutate: the environment
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
#[derive(Debug, Clone, Copy)]
pub struct ShedStage;

impl FallbackStage for ShedStage {
    fn name(&self) -> &'static str {
        "shed"
    }

    fn attempt(&self, err: &EnergyManagementError, cx: &mut FallbackCx<'_>) -> FallbackOutcome {
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
}

/// The strict policy's terminal rung: abort the slot.
#[derive(Debug, Clone, Copy)]
pub struct StrictAbortStage;

impl FallbackStage for StrictAbortStage {
    fn name(&self) -> &'static str {
        "strict_abort"
    }

    fn attempt(&self, _err: &EnergyManagementError, _cx: &mut FallbackCx<'_>) -> FallbackOutcome {
        FallbackOutcome::Abort
    }
}

/// Rung 2 — the storage-oblivious grid-only solver; catches marginal-price
/// internal failures and any case where abandoning the Lyapunov objective
/// restores feasibility.
#[derive(Debug, Clone, Copy)]
pub struct GridOnlyFallbackStage;

impl FallbackStage for GridOnlyFallbackStage {
    fn name(&self) -> &'static str {
        "grid_only_fallback"
    }

    fn attempt(&self, _err: &EnergyManagementError, cx: &mut FallbackCx<'_>) -> FallbackOutcome {
        if solve_grid_only_into(cx.input, cx.energy).is_ok() {
            cx.degradation.push(DegradationEvent::GridOnlyFallback);
            cx.mark("degrade_grid_only");
            FallbackOutcome::Resolved
        } else {
            FallbackOutcome::Pass
        }
    }
}

/// Rung 3a — still infeasible with traffic on the air: drop the whole
/// schedule and retry on idle demand.
#[derive(Debug, Clone, Copy)]
pub struct DropScheduleStage;

impl FallbackStage for DropScheduleStage {
    fn name(&self) -> &'static str {
        "drop_schedule"
    }

    fn attempt(&self, _err: &EnergyManagementError, cx: &mut FallbackCx<'_>) -> FallbackOutcome {
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
}

/// Rung 3b — safe mode: serve what physics allows, record each brown-out,
/// admit and route nothing. Always resolves.
#[derive(Debug, Clone, Copy)]
pub struct SafeModeStage;

impl FallbackStage for SafeModeStage {
    fn name(&self) -> &'static str {
        "safe_mode"
    }

    fn attempt(&self, _err: &EnergyManagementError, cx: &mut FallbackCx<'_>) -> FallbackOutcome {
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
}

static SHED: ShedStage = ShedStage;
static STRICT_ABORT: StrictAbortStage = StrictAbortStage;
static GRID_ONLY_FALLBACK: GridOnlyFallbackStage = GridOnlyFallbackStage;
static DROP_SCHEDULE: DropScheduleStage = DropScheduleStage;
static SAFE_MODE: SafeModeStage = SafeModeStage;

static GRACEFUL_LADDER: [&dyn FallbackStage; 4] =
    [&SHED, &GRID_ONLY_FALLBACK, &DROP_SCHEDULE, &SAFE_MODE];
static STRICT_LADDER: [&dyn FallbackStage; 2] = [&SHED, &STRICT_ABORT];

/// The fallback ladder a degradation policy resolves to: graceful runs
/// shed → grid-only → drop schedule → safe mode; strict runs shed → abort.
#[must_use]
pub fn fallback_ladder(policy: DegradationPolicy) -> &'static [&'static dyn FallbackStage] {
    match policy {
        DegradationPolicy::Graceful => &GRACEFUL_LADDER,
        DegradationPolicy::Strict => &STRICT_LADDER,
    }
}

/// The relaxed controller's S4 chain: marginal price (the warm kernel, in
/// the caller's workspace), else grid-only, else safe mode (never fails).
/// Shared with [`crate::RelaxedController`] so the lower bound cannot
/// drift from the online ladder's solver order.
pub fn solve_energy_with_fallbacks_into(
    input: &EnergyManagementInput<'_>,
    ws: &mut S4Workspace,
    out: &mut EnergyOutcome,
) {
    if solve_energy_management_warm_into(input, ws, out).is_err()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_resolves_all_builtin_keys() {
        for key in ["greedy", "sequential_fix"] {
            assert_eq!(schedule_stage(key).expect("registered").key(), key);
        }
        for key in ["multi_hop", "one_hop"] {
            assert_eq!(relay_stage(key).expect("registered").key(), key);
        }
        for key in ["marginal_price", "grid_only", "energy_coop"] {
            assert_eq!(energy_stage(key).expect("registered").key(), key);
        }
        assert!(schedule_stage("no_such_stage").is_err());
        assert!(relay_stage("no_such_stage").is_err());
        assert!(energy_stage("no_such_stage").is_err());
    }

    #[test]
    fn registry_errors_name_the_key_and_enumerate_valid_keys() {
        let err = schedule_stage("no_such_stage").expect_err("unknown key");
        assert_eq!(err.kind, "schedule");
        assert_eq!(err.key, "no_such_stage");
        assert_eq!(err.valid, ["greedy", "sequential_fix"]);
        assert_eq!(
            err.to_string(),
            "unknown schedule stage key \"no_such_stage\"; \
             valid keys: greedy, sequential_fix"
        );
        let err = relay_stage("mutli_hop").expect_err("misspelled key");
        assert_eq!(
            err.to_string(),
            "unknown relay stage key \"mutli_hop\"; valid keys: multi_hop, one_hop"
        );
        let err = energy_stage("marginal").expect_err("truncated key");
        assert_eq!(
            err.to_string(),
            "unknown energy stage key \"marginal\"; valid keys: \
             marginal_price, grid_only, energy_coop"
        );
        assert_eq!(err.valid, ["marginal_price", "grid_only", "energy_coop"]);
    }

    #[test]
    fn config_keys_round_trip_through_the_registry() {
        use crate::{EnergyPolicy, RelayPolicy, SchedulerKind};
        for kind in [SchedulerKind::Greedy, SchedulerKind::SequentialFix] {
            assert!(schedule_stage(kind.key()).is_ok());
        }
        for policy in [RelayPolicy::MultiHop, RelayPolicy::OneHop] {
            assert!(relay_stage(policy.key()).is_ok());
        }
        for policy in [EnergyPolicy::MarginalPrice, EnergyPolicy::GridOnly] {
            assert!(energy_stage(policy.key()).is_ok());
        }
    }

    #[test]
    fn ladders_match_their_policies() {
        let graceful: Vec<_> = fallback_ladder(DegradationPolicy::Graceful)
            .iter()
            .map(|r| r.name())
            .collect();
        assert_eq!(
            graceful,
            ["shed", "grid_only_fallback", "drop_schedule", "safe_mode"]
        );
        let strict: Vec<_> = fallback_ladder(DegradationPolicy::Strict)
            .iter()
            .map(|r| r.name())
            .collect();
        assert_eq!(strict, ["shed", "strict_abort"]);
    }
}
