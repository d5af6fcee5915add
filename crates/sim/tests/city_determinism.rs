//! Determinism gates for the city-scale subsystem: scenario generation,
//! cluster decomposition, and — critically — the cluster-parallel solve
//! must be bit-identical at any worker count and across repeat runs, for
//! the exact controller and the relaxed lower-bound controller alike.

use greencell_core::SlotReport;
use greencell_sim::{scale, Scenario, Simulator};

/// The run's slot reports and its relaxed cost series (empty unless the
/// scenario tracks the lower bound).
fn run(s: &Scenario, workers: usize) -> (Vec<SlotReport>, Vec<f64>) {
    let mut sim = Simulator::with_workers(s, workers).expect("city path builds");
    assert!(
        sim.controller().part_count() >= 2,
        "need several clusters for the parallelism to be real"
    );
    let reports = (0..s.horizon)
        .map(|_| sim.step_with_report().expect("slot steps"))
        .collect();
    let relaxed = sim.metrics().relaxed_cost_series().values().to_vec();
    (reports, relaxed)
}

#[test]
fn city_generation_is_deterministic() {
    let a = Scenario::city(300, 6, Scenario::default_city_area(6), 17);
    let b = Scenario::city(300, 6, Scenario::default_city_area(6), 17);
    assert_eq!(
        a, b,
        "scenario construction must be a pure function of seed"
    );
    assert_eq!(a.build_layout(), b.build_layout());
    let la = a.build_layout();
    assert_eq!(
        scale::decompose(&la, &a),
        scale::decompose(&b.build_layout(), &b)
    );
}

#[test]
fn worker_count_does_not_change_results() {
    let mut s = Scenario::city(240, 6, Scenario::default_city_area(6), 23);
    s.horizon = 15;
    s.track_lower_bound = true;
    let serial = run(&s, 1);
    assert_eq!(serial.1.len(), s.horizon, "the relaxed series is tracked");
    assert_eq!(serial, run(&s, 2), "1 vs 2 workers diverged");
    assert_eq!(serial, run(&s, 3), "1 vs 3 workers diverged");
    assert_eq!(serial, run(&s, 4), "1 vs 4 workers diverged");

    // More workers than parts: the fan-out caps its threads at the part
    // count, so the surplus workers must leave every decision unchanged.
    let mut s = Scenario::city(120, 3, Scenario::default_city_area(3), 23);
    s.horizon = 15;
    s.track_lower_bound = true;
    let parts = Simulator::with_workers(&s, 1)
        .expect("city path builds")
        .controller()
        .part_count();
    assert!(parts < 5, "{parts} parts leave none of 5 workers spare");
    assert_eq!(run(&s, 1), run(&s, 5), "1 vs 5 workers diverged");
}

#[test]
fn repeat_city_runs_are_bit_identical() {
    let mut s = Scenario::city(120, 3, Scenario::default_city_area(3), 31);
    s.horizon = 10;
    assert_eq!(run(&s, 1), run(&s, 1));
}
