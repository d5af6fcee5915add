//! Same-input lockstep gate for the S4 breakpoint sweep.
//!
//! Every scenario of the battery runs through the live pipeline with a
//! [`LockstepStage`] installed as its S4 stage. On every S4 solve of every
//! slot, the stage runs the sweep (`solve_energy_management_into`) and the
//! bisection reference (`solve_energy_management_reference`) on the *same*
//! input, demands that they agree within the lockstep tolerances of
//! `energy_lockstep_divergence` — identical errors, `grid_draw` and
//! `objective` within 10⁻⁹ relative, the same per-node mode wherever the
//! reference's two mode objectives differ by more than `EPS` — and hands
//! the sweep's outcome on, so the run is the shipped controller's run.
//!
//! The battery: tiny and paper seeds under both S1 schedulers, the four
//! fault scenarios, strict degradation, one-hop relaying, the grid-only
//! stage (a control: it never reaches the marginal-price solver), and a
//! `V = 0` pure-stability run.

use greencell_core::pipeline::EnergyStage;
use greencell_core::{
    energy_lockstep_divergence, solve_energy_management_into, solve_energy_management_reference,
    DegradationPolicy, EnergyManagementError, EnergyManagementInput, EnergyOutcome, EnergyPolicy,
    NetworkState, S4Workspace, SchedulerKind,
};
use greencell_sim::faults::FaultSpec;
use greencell_sim::{Architecture, Scenario, Simulator};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs the sweep and the reference on the same input, records the first
/// divergence, and returns the sweep's result. Counts its solves so a
/// scenario that never reached it is caught.
#[derive(Debug, Default)]
struct LockstepStage {
    solves: AtomicUsize,
    divergence: Mutex<Option<String>>,
}

impl EnergyStage for LockstepStage {
    fn solve(
        &self,
        input: &EnergyManagementInput<'_>,
        _net_state: &mut NetworkState,
        ws: &mut S4Workspace,
        out: &mut EnergyOutcome,
    ) -> Result<(), EnergyManagementError> {
        self.solves.fetch_add(1, Ordering::Relaxed);
        let got = solve_energy_management_into(input, ws, out);
        let reference = solve_energy_management_reference(input);
        if let Some(d) =
            energy_lockstep_divergence(input, got.as_ref().map(|()| &*out), reference.as_ref())
        {
            self.divergence.lock().expect("lock").get_or_insert(d);
        }
        got
    }
}

/// The pinned scenario battery: the s1-gate battery (tiny + paper seeds
/// under both schedulers, the four fault scenarios) extended with the
/// policy axes that exercise distinct S4 paths — strict degradation,
/// one-hop relaying, the grid-only stage, and `V = 0` (the S4 bracket
/// degenerates to pure stability pricing).
fn battery() -> Vec<(String, Scenario)> {
    let mut pts = Vec::new();
    for seed in [500u64, 501, 502] {
        pts.push((format!("tiny_greedy_{seed}"), Scenario::tiny(seed)));
        let mut s = Scenario::tiny(seed);
        s.scheduler = SchedulerKind::SequentialFix;
        pts.push((format!("tiny_seqfix_{seed}"), s));
    }
    let mut paper = Scenario::paper(42);
    paper.horizon = 60;
    pts.push(("paper_greedy".into(), paper.clone()));
    let mut paper_sf = paper.clone();
    paper_sf.scheduler = SchedulerKind::SequentialFix;
    paper_sf.horizon = 12;
    pts.push(("paper_seqfix".into(), paper_sf));
    for (label, spec) in [
        ("bs_outage", FaultSpec::bs_outage()),
        ("renewable_drought", FaultSpec::renewable_drought(15, 30)),
        ("price_spike", FaultSpec::price_spike(15, 30, 6.0)),
        ("band_loss", FaultSpec::band_loss()),
    ] {
        let mut s = paper.clone();
        s.faults = Some(spec);
        pts.push((format!("fault_{label}"), s));
    }
    let mut strict = Scenario::tiny(4243);
    strict.horizon = 30;
    strict.v = 1e4;
    strict.faults = Some(FaultSpec::bs_outage());
    strict.degradation = DegradationPolicy::Strict;
    pts.push(("strict_bs_outage".into(), strict));
    let mut one_hop = Scenario::tiny(500);
    one_hop.architecture = Architecture::OneHopRenewable;
    pts.push(("one_hop".into(), one_hop));
    let mut grid_only = Scenario::tiny(500);
    grid_only.energy_policy = EnergyPolicy::GridOnly;
    pts.push(("grid_only".into(), grid_only));
    let mut v_zero = Scenario::paper(42);
    v_zero.horizon = 30;
    v_zero.v = 0.0;
    pts.push(("paper_v_zero".into(), v_zero));
    pts
}

/// Sweep vs reference through the live pipeline seam, on every S4 solve
/// of every slot of every scenario. Grid-only keeps its own stage, so it
/// runs as a control.
#[test]
fn sweep_matches_reference_in_lockstep_on_every_scenario() {
    for (label, scenario) in battery() {
        // Leaked so the stage outlives the simulator that borrows it.
        let stage: &'static LockstepStage = Box::leak(Box::default());
        let mut sim = Simulator::new(&scenario).expect("scenario builds");
        let marginal_price = scenario.energy_policy != EnergyPolicy::GridOnly;
        if marginal_price {
            sim.controller_mut().set_energy_stage(stage);
        }
        for slot in 0..scenario.horizon {
            let step = sim.step_with_report();
            if let Some(d) = stage.divergence.lock().expect("lock").take() {
                panic!("{label}: slot {slot}: {d}");
            }
            if step.is_err() {
                // The strict policy aborted the slot; the lockstep held
                // up to and including the failing solve.
                break;
            }
        }
        let solves = stage.solves.load(Ordering::Relaxed);
        assert_eq!(
            solves > 0,
            marginal_price,
            "{label}: {solves} lockstep solves"
        );
    }
}
