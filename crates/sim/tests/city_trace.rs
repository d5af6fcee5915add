//! Tracing on the partitioned city path.
//!
//! A traced pruned-city run emits every [`Stage`] span and the engine's
//! per-slot gauges, and its deterministic trace section is byte-identical
//! whether the sweep fans points across 1 or 2 threads
//! ([`check_trace_determinism`]) and whether the per-cluster solves run
//! on 1 or 2 worker threads.

use greencell_sim::{check_trace_determinism, Scenario, Simulator, SweepPoint};
use greencell_trace::{names, RingSink, Stage, TraceBundle, Track};

const HORIZON: usize = 12;

fn city(seed: u64) -> Scenario {
    let mut s = Scenario::city(120, 3, Scenario::default_city_area(3), seed);
    s.horizon = HORIZON;
    s.bs_sleep = Some(s.default_sleep_policy());
    s.energy_coop = Some(s.default_coop_policy());
    s
}

#[test]
fn traced_city_run_emits_every_stage_and_engine_gauge() {
    let points: Vec<SweepPoint> = [71, 72]
        .iter()
        .map(|&seed| SweepPoint::new(format!("city{seed}"), city(seed)))
        .collect();
    let run = check_trace_determinism(&points, 2, 1 << 16).expect("deterministic trace");
    assert!(
        Simulator::new(&points[0].scenario)
            .expect("builds")
            .controller()
            .part_count()
            > 1
    );
    let summary = run.bundle.summary();
    let slots = (points.len() * HORIZON) as u64;
    assert_eq!(
        summary.stage(Stage::Slot).expect("slot spans").count(),
        slots
    );
    for stage in Stage::ALL {
        let count = summary.stage(stage).map_or(0, |h| h.count());
        assert!(count >= slots, "{stage:?}: {count} spans");
    }
    for name in [
        names::COST,
        names::GRID_KWH,
        names::BACKLOG_BS,
        names::BACKLOG_USERS,
        names::BUFFER_BS_KWH,
        names::BUFFER_USERS_WH,
        names::WATCHDOG_SLOPE,
        names::ASLEEP_BS,
        names::TRANSFER_KWH,
        names::DRIFT,
        names::PENALTY,
    ] {
        assert_eq!(summary.gauges[name].count(), slots, "gauge {name}");
    }
}

#[test]
fn cluster_worker_count_leaves_the_deterministic_trace_unchanged() {
    let s = city(73);
    let trace = |workers: usize| {
        let mut sim = Simulator::with_workers(&s, workers).expect("builds");
        let mut sink = RingSink::new(1 << 16);
        sim.run_traced(&mut sink).expect("traced run completes");
        let mut bundle = TraceBundle::new();
        bundle.push(Track::new("city", sink.into_events()));
        bundle.deterministic_json()
    };
    assert_eq!(trace(1), trace(2));
}
