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
//! S1 runs once per [`crate::Part`] of the controller's partition, and so
//! does S4's uncoupled half; S4's coupled half and the ladder run once over
//! the whole network, so the rungs reach the parts' schedules through
//! [`FallbackCx::parts`]. All per-slot scratch
//! lives in the parts and the global [`SlotContext`] arena, retained
//! across slots, so a steady-state slot touches the heap zero times
//! (audited in `crates/core/tests/s1_zero_alloc.rs`).
//!
//! The `driver_golden` fingerprints in `greencell-sim`, recorded in
//! lockstep with the original monolithic controller, pin every decision
//! the driver makes.

use crate::energy::CoupledS4;
use crate::netstate::NetworkState;
use crate::s4::{grid_only_into, grid_only_node, respond_at_zero, solve_coupled_into};
use crate::{
    solve_energy_management_into, solve_grid_only_into, solve_safe_mode, ControllerConfig,
    DegradationEvent, DegradationPolicy, EnergyManagementError, EnergyManagementInput,
    EnergyOutcome, NodeAnswer, Part, S4Failure, S4Workspace, ScheduleOutcome,
};
use greencell_energy::Battery;
use greencell_net::{Network, NodeId};
use greencell_phy::{PhyConfig, Schedule, SpectrumState};
use greencell_trace::{Sink, TraceEvent};
use greencell_units::{Energy, Power};
use std::fmt;

/// An S4 energy-management stage, in two halves.
///
/// Only the base stations couple, through `V·f(P)` over their grid draw
/// (§IV-C4); a mobile user's draw is not billed. So a stage answers each
/// user on its own ([`EnergyStage::respond`], which the controller's parts
/// run on their workers) and solves the base stations together
/// ([`EnergyStage::solve`], which runs once per attempt). The halves
/// report failures at their place in the stage's order of checks
/// ([`S4Failure`]), so the first of them is the whole solve's failure.
///
/// The coupled half also sees the slot's mutable [`NetworkState`]: the
/// paper's stages ignore it, while [`EnergyCoopStage`] records its
/// inter-BS transfers there.
pub trait EnergyStage: fmt::Debug + Sync {
    /// The uncoupled half: the decision and Lyapunov term of node `i` of
    /// `input`, which is not a base station.
    ///
    /// # Errors
    ///
    /// The node's failure, named by its index in `input`.
    fn respond(&self, input: &EnergyManagementInput<'_>, i: usize)
        -> Result<NodeAnswer, S4Failure>;

    /// The coupled half: S4 over `input`, which lists the base stations
    /// alone in ascending node order, into a caller-retained workspace and
    /// outcome (`out.terms` holds each base station's Lyapunov term).
    ///
    /// # Errors
    ///
    /// The first failure in the stage's order of checks, with nodes named
    /// by their index in `input` — the driver then walks the degradation
    /// ladder.
    fn solve(
        &self,
        input: &EnergyManagementInput<'_>,
        net_state: &mut NetworkState,
        ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), S4Failure>;
}

/// Built-in S4 stage: the exact marginal-price equilibrium. Users answer
/// at price 0; the base stations' price comes from the breakpoint sweep
/// in the slot arena's [`S4Workspace`] (see
/// [`crate::solve_energy_management_into`], its composition over one node
/// list).
#[derive(Debug, Clone, Copy)]
pub struct MarginalPriceStage;

impl EnergyStage for MarginalPriceStage {
    fn respond(
        &self,
        input: &EnergyManagementInput<'_>,
        i: usize,
    ) -> Result<NodeAnswer, S4Failure> {
        respond_at_zero(input, i)
    }

    fn solve(
        &self,
        input: &EnergyManagementInput<'_>,
        _net_state: &mut NetworkState,
        ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), S4Failure> {
        solve_coupled_into(input, ws, out)
    }
}

/// Built-in S4 stage: the storage-oblivious grid-first baseline
/// ([`crate::solve_grid_only`]) — the ablation policy behind the same
/// seam as the paper's solver. Every node answers alone; the base stations
/// share only the cost of their total draw.
#[derive(Debug, Clone, Copy)]
pub struct GridOnlyStage;

impl EnergyStage for GridOnlyStage {
    fn respond(
        &self,
        input: &EnergyManagementInput<'_>,
        i: usize,
    ) -> Result<NodeAnswer, S4Failure> {
        grid_only_node(input, i)
    }

    fn solve(
        &self,
        input: &EnergyManagementInput<'_>,
        _net_state: &mut NetworkState,
        _ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), S4Failure> {
        grid_only_into(input, out)
    }
}

/// Coupled multi-node S4 stage: computes this slot's lossy inter-BS
/// renewable transfers (efficiency `η_x`) in the [`NetworkState`], then
/// solves the marginal-price problem on the transfer-adjusted renewable
/// vector with the same sweep as [`MarginalPriceStage`]. Transfers touch
/// only base-station renewables, so users answer exactly as there. At
/// `η_x = 0` the adjusted vector is a verbatim copy and the stage is
/// bit-identical to [`MarginalPriceStage`] — the standing equivalence
/// reference.
#[derive(Debug, Clone, Copy)]
pub struct EnergyCoopStage;

impl EnergyStage for EnergyCoopStage {
    fn respond(
        &self,
        input: &EnergyManagementInput<'_>,
        i: usize,
    ) -> Result<NodeAnswer, S4Failure> {
        respond_at_zero(input, i)
    }

    fn solve(
        &self,
        input: &EnergyManagementInput<'_>,
        net_state: &mut NetworkState,
        ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), S4Failure> {
        net_state.compute_transfers(input);
        let adjusted = EnergyManagementInput {
            renewable: net_state.adjusted_renewable(),
            ..*input
        };
        solve_coupled_into(&adjusted, ws, out)
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
///
/// Any subset of a power-feasible schedule is power-feasible: a principal
/// submatrix of a non-singular M-matrix is one, and its least powers lie
/// below the superset's. So the solve fails only when `outcome` itself was
/// infeasible, and the result is then the empty outcome: never a schedule
/// without its powers.
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
    match greencell_phy::min_power_assignment(net, &schedule, spectrum, phy, max_powers) {
        Ok(powers) => ScheduleOutcome { schedule, powers },
        Err(_) => ScheduleOutcome::empty(),
    }
}

/// The global per-slot arena: the buffers S4's coupled half and the
/// fallback ladder touch (the per-part S1–S4 scratch lives in each
/// [`crate::Part`]), retained across slots so a steady-state
/// [`crate::Controller::step`] performs zero heap allocations. Taken out
/// of the controller with [`std::mem::take`] for the duration of a step
/// (so `&self` helper calls stay legal) and put back before it returns.
#[derive(Debug, Clone, Default)]
pub struct SlotContext {
    /// The whole-network S4 input the fallback ladder reads, gathered
    /// from the parts only when S4 fails.
    pub(crate) z: Vec<f64>,
    pub(crate) demand: Vec<Energy>,
    pub(crate) batteries: Vec<Battery>,
    /// The base stations' input and S4's coupled outcome over them.
    pub(crate) coupled: CoupledS4,
    pub(crate) s4: S4Workspace,
    pub(crate) energy: EnergyOutcome,
    pub(crate) net_state: NetworkState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencell_net::{BandId, NetworkBuilder, PathLossModel, Point};
    use greencell_phy::{
        min_power_assignment, min_power_assignment_reference, sinr_matrix, PowerControlError,
        Transmission,
    };
    use greencell_units::Bandwidth;

    /// Shedding one node of a three-link schedule whose remaining pair sits
    /// at spectral radius 1 − 10⁻³ keeps both links with their powers,
    /// which satisfy (24). (The reference iteration cannot settle on that
    /// pair.)
    #[test]
    fn shed_near_singular_pair_keeps_its_powers() {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        let a = b.add_base_station(Point::new(0.0, 0.0));
        let x = b.add_user(Point::new(100.0, 0.0));
        let c = b.add_base_station(Point::new(2200.0, 0.0));
        let y = b.add_user(Point::new(2300.0, 0.0));
        let d = b.add_base_station(Point::new(40_000.0, 0.0));
        let z = b.add_user(Point::new(40_100.0, 0.0));
        let net = b.build().unwrap();
        let topo = net.topology();
        let coupling =
            (topo.gain(c, x) * topo.gain(a, y) / (topo.gain(a, x) * topo.gain(c, y))).sqrt();
        let phy = PhyConfig::new((1.0 - 1e-3) / coupling, 1e-20);
        let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]);
        let caps = vec![Power::from_watts(20.0); 6];
        let band = BandId::from_index(0);
        let mut schedule = Schedule::new();
        for (tx, rx) in [(a, x), (c, y), (d, z)] {
            schedule
                .try_add(&net, Transmission::new(tx, rx, band))
                .unwrap();
        }
        let powers = min_power_assignment(&net, &schedule, &spectrum, &phy, &caps).unwrap();
        let outcome = ScheduleOutcome { schedule, powers };

        let reduced = shed_node(&net, &outcome, d, &spectrum, &phy, &caps);
        assert_eq!(reduced.schedule.len(), 2);
        assert_eq!(reduced.powers.len(), reduced.schedule.len());
        for sinr in sinr_matrix(&net, &reduced.schedule, &spectrum, &phy, &reduced.powers) {
            assert!(sinr >= phy.sinr_threshold() * (1.0 - 1e-9), "SINR {sinr}");
        }
        assert_eq!(
            min_power_assignment_reference(&net, &reduced.schedule, &spectrum, &phy, &caps),
            Err(PowerControlError::NonConvergent)
        );
    }
}
