//! Faults × city gate: fault injection and Markov grid chains on the
//! partitioned city path.
//!
//! Every fault archetype (BS outage, band loss, renewable drought, price
//! spike, and the `chaos` preset that stacks them) and a Markov
//! grid-connectivity chain run on a pruned city through the [`Simulator`]:
//! each run completes its horizon, and the per-cluster solves give
//! byte-identical reports at 1 and 2 workers. Energy-starved variants
//! (no grid draw, empty batteries, off-grid users) drive the degradation
//! ladder, whose shed rung then works inside the starving node's cluster.
//! With pruning off (`gain_floor = 0`) the same cells are one dense part;
//! those runs are pinned slot by slot in the `driver_golden` fingerprints.

use greencell_core::SlotReport;
use greencell_sim::{FaultSpec, GridModel, Scenario, Simulator};
use greencell_units::Energy;

const HORIZON: usize = 20;

fn battery() -> Vec<(&'static str, Scenario)> {
    let base = {
        let mut s = Scenario::city(160, 4, Scenario::default_city_area(4), 29);
        s.horizon = HORIZON;
        s
    };
    let mut out = Vec::new();
    for (label, spec) in [
        ("bs_outage", FaultSpec::bs_outage()),
        ("band_loss", FaultSpec::band_loss()),
        ("renewable_drought", FaultSpec::renewable_drought(4, 12)),
        ("price_spike", FaultSpec::price_spike(3, 9, 4.0)),
        ("chaos", FaultSpec::chaos(HORIZON)),
    ] {
        let mut s = base.clone();
        s.faults = Some(spec);
        out.push((label, s));
    }
    let mut markov = base.clone();
    markov.grid_model = GridModel::Markov {
        stay_on: 0.9,
        stay_off: 0.7,
    };
    out.push(("markov_grid", markov));
    for (label, spec) in [
        ("starved_drought", FaultSpec::renewable_drought(4, 12)),
        ("starved_chaos", FaultSpec::chaos(HORIZON)),
    ] {
        let mut s = base.clone();
        s.faults = Some(spec);
        s.grid_limit = Energy::ZERO;
        s.initial_battery_fraction = 0.0;
        s.user_grid_probability = 0.0;
        out.push((label, s));
    }
    out
}

fn run(s: &Scenario, workers: usize) -> Vec<SlotReport> {
    let mut sim = Simulator::with_workers(s, workers).expect("scenario builds");
    (0..s.horizon)
        .map(|slot| {
            sim.step_with_report()
                .unwrap_or_else(|e| panic!("slot {slot} failed: {e}"))
        })
        .collect()
}

#[test]
fn faults_and_markov_grids_run_on_the_partitioned_city_path() {
    for (label, s) in battery() {
        let serial = run(&s, 1);
        assert_eq!(serial.len(), HORIZON, "{label}: horizon incomplete");
        assert!(
            Simulator::new(&s)
                .expect("builds")
                .controller()
                .part_count()
                > 1,
            "{label}: want a partitioned run"
        );
        assert_eq!(serial, run(&s, 2), "{label}: 1 vs 2 workers");
        if label.starts_with("starved") {
            assert!(
                serial.iter().any(|r| r.shed_transmissions > 0),
                "{label}: the ladder must shed"
            );
        }
    }
}
