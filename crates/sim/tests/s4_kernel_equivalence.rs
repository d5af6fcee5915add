//! A/B regression gate for the warm-started S4 energy kernel.
//!
//! The kernel contract: `solve_energy_management_warm_into` (threshold
//! search + guarded bisection replay, warm-started from last slot's
//! equilibrium) must be **bit-identical** to the frozen cold-bisection
//! oracle `solve_energy_management_into` — same decisions, draws, costs,
//! objectives, equilibrium prices, and errors, on every slot of every
//! scenario.
//!
//! Two gates pin that promise:
//!
//! * a golden fingerprint of the full scenario battery (seed scenarios,
//!   both S1 schedulers, all four fault scenarios, both degradation
//!   policies, the one-hop architecture, grid-only, and a `V = 0`
//!   pure-stability run) recorded from the pre-kernel controller;
//! * an in-process lockstep: two simulators per scenario, one with the
//!   oracle installed as its S4 stage through the public energy-stage seam
//!   ([`ColdOracleStage`]), stepped slot by slot with bit-equality
//!   asserted on every [`SlotReport`](greencell_core::SlotReport).
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! GREENCELL_BLESS=1 cargo test -p greencell-sim --test s4_kernel_equivalence
//! ```

use greencell_core::pipeline::EnergyStage;
use greencell_core::{
    solve_energy_management_into, DegradationPolicy, EnergyManagementError, EnergyManagementInput,
    EnergyOutcome, EnergyPolicy, NetworkState, S4Workspace, SchedulerKind,
};
use greencell_sim::faults::FaultSpec;
use greencell_sim::{run_sweep, Architecture, Scenario, Simulator, SweepOptions, SweepPoint};
use std::path::PathBuf;

const GOLDEN: &str = "golden/s4_kernel_ab.fp";

/// The cold-bisection oracle as an S4 stage: what the warm kernel must
/// reproduce bit for bit, installed with `Controller::set_energy_stage`.
#[derive(Debug)]
struct ColdOracleStage;

impl EnergyStage for ColdOracleStage {
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

static COLD_ORACLE: ColdOracleStage = ColdOracleStage;

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

/// Everything decision-derived from one run, rendered exactly.
fn fingerprint() -> String {
    let points: Vec<SweepPoint> = battery()
        .into_iter()
        .map(|(label, scenario)| SweepPoint::new(label, scenario))
        .collect();
    let report = run_sweep(&points, &SweepOptions::with_threads(2)).expect("sweep runs");
    report
        .outcomes
        .iter()
        .map(|o| {
            format!(
                "{}|seed={}|degraded={}|events={}|stable={}|{:?}",
                o.label,
                o.seed,
                o.telemetry.degraded_slots,
                o.telemetry.degradation_events,
                o.telemetry.watchdog.stable,
                o.metrics,
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(GOLDEN)
}

#[test]
fn kernel_matches_pre_kernel_controller_bit_exactly() {
    let actual = fingerprint();
    let path = golden_path();
    if std::env::var_os("GREENCELL_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &actual).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); re-bless", path.display()));
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        let label = e.split('|').next().unwrap_or("?");
        assert_eq!(
            a, e,
            "scenario #{i} ({label}): run diverged from the pre-kernel controller"
        );
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "scenario battery size changed; re-bless deliberately"
    );
}

/// Kernel vs oracle through the live pipeline seam: every slot report,
/// the final metrics, and the watchdog verdict must agree bit for bit.
/// Grid-only scenarios skip the stage swap (both arms already run the
/// same stage) but still ride through the lockstep as a control.
#[test]
fn kernel_matches_oracle_in_lockstep_on_every_scenario() {
    for (label, scenario) in battery() {
        let mut kernel = Simulator::new(&scenario).expect("scenario builds");
        let mut oracle = Simulator::new(&scenario).expect("scenario builds");
        if scenario.energy_policy != EnergyPolicy::GridOnly {
            oracle.controller_mut().set_energy_stage(&COLD_ORACLE);
        }
        let mut aborted = false;
        for slot in 0..scenario.horizon {
            let a = kernel.step_with_report();
            let b = oracle.step_with_report();
            assert_eq!(a, b, "{label}: slot {slot} diverged");
            if a.is_err() {
                // Both arms aborted with the identical error (strict
                // policy); neither advanced past this slot.
                aborted = true;
                break;
            }
        }
        if !aborted {
            assert_eq!(
                kernel.metrics(),
                oracle.metrics(),
                "{label}: final metrics diverged"
            );
            assert_eq!(
                kernel.watchdog().report(),
                oracle.watchdog().report(),
                "{label}: watchdog verdicts diverged"
            );
        }
    }
}
