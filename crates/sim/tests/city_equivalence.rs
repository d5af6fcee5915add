//! Equivalence gate for city-scale scenarios on the one slot driver.
//!
//! A pruned scenario whose interference graph is connected stays one part
//! over the exact dense network, and a pruned city that decomposes runs
//! cleanly over its clusters. The unpruned city (`gain_floor = 0`, one
//! cluster) is pinned slot by slot in the `driver_golden` fingerprints.

use greencell_sim::{Scenario, Simulator};

#[test]
fn connected_pruned_scenario_keeps_the_dense_network() {
    let mut s = Scenario::paper(42);
    s.gain_floor = s.interference_gain_floor();
    s.horizon = 20;
    let mut sim = Simulator::new(&s).expect("scenario builds");
    assert_eq!(sim.controller().decomposition().len(), 1);
    assert_eq!(
        sim.network(),
        &s.build_network().expect("dense network builds")
    );
    let mut dense = s.clone();
    dense.gain_floor = 0.0;
    let mut unpruned = Simulator::new(&dense).expect("scenario builds");
    // Pruning the paper scenario's floor zeroes nothing that matters:
    // every gain below it is under the noise floor.
    for slot in 0..s.horizon {
        let a = sim.step_with_report().expect("pruned slot steps");
        let b = unpruned.step_with_report().expect("unpruned slot steps");
        assert_eq!(a, b, "slot {slot} diverged");
    }
}

/// A *pruned* city run decomposes into several clusters, completes its
/// horizon cleanly (no degradation events in a fault-free calibrated
/// scenario), serves traffic, and keeps queues bounded. Full reports are
/// deliberately not compared against the unpruned network here: dense
/// routing may push packets onto never-schedulable cross-cluster
/// zero-gain links (phantom queues), which the partitioned path excludes
/// by construction — the documented, principled divergence.
#[test]
fn pruned_city_run_is_clean_and_decomposed() {
    let mut s = Scenario::city(80, 3, Scenario::default_city_area(3), 13);
    s.horizon = 20;
    let mut sim = Simulator::new(&s).expect("partitioned path builds");
    assert!(
        sim.controller().part_count() > 1,
        "calibrated city should decompose into several clusters"
    );
    let reports: Vec<_> = (0..s.horizon)
        .map(|_| sim.step_with_report().expect("pruned slot steps"))
        .collect();
    assert!(
        reports.iter().all(|r| r.degradation.is_empty()),
        "fault-free calibrated city should never hit the ladder"
    );
    assert!(reports.iter().all(|r| r.cost.is_finite() && r.cost >= 0.0));
    assert!(
        reports.iter().any(|r| r.routed.count() > 0),
        "traffic should move"
    );
    assert!(sim.watchdog().report().trailing_slope.is_finite());
}
