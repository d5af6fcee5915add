//! Tracing on the partitioned city path.
//!
//! A traced pruned-city run emits every [`Stage`] span and the engine's
//! per-slot gauges, and its deterministic trace section is byte-identical
//! whether the sweep fans points across 1 or 2 threads
//! ([`check_trace_determinism`]) and whether the per-cluster solves run
//! on 1 or 2 worker threads. At one worker the S1–S3 spans, laid end to
//! end from summed per-part times, fall in pipeline order inside their
//! slot.

use greencell_sim::{check_trace_determinism, Scenario, Simulator, SweepPoint};
use greencell_trace::{names, RingSink, Stage, TraceBundle, TraceEvent, Track};

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
    assert_eq!(summary.stages[&Stage::Slot].count(), slots);
    for stage in Stage::ALL {
        let count = summary.stages.get(&stage).map_or(0, |h| h.count());
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
        let track = Track {
            label: "city".into(),
            events: sink.into_events(),
            dropped: 0,
        };
        TraceBundle {
            tracks: vec![track],
        }
        .deterministic_json()
    };
    assert_eq!(trace(1), trace(2));
}

#[test]
fn one_worker_lays_s1_to_s3_in_order_inside_the_slot() {
    let s = city(74);
    let mut sim = Simulator::with_workers(&s, 1).expect("builds");
    assert!(sim.controller().part_count() > 1);
    let mut sink = RingSink::new(1 << 16);
    sim.run_traced(&mut sink).expect("traced run completes");
    let events = sink.into_events();
    for slot in 0..HORIZON as u64 {
        let span = |stage: Stage| {
            let mut found = events.iter().filter_map(|e| match *e {
                TraceEvent::Span {
                    slot: t,
                    stage: st,
                    ts_nanos,
                    dur_nanos,
                } if t == slot && st == stage => Some((ts_nanos, ts_nanos + dur_nanos)),
                _ => None,
            });
            let one = found
                .next()
                .unwrap_or_else(|| panic!("slot {slot}: no {stage:?} span"));
            assert!(found.next().is_none(), "slot {slot}: two {stage:?} spans");
            one
        };
        let (slot_start, slot_end) = span(Stage::Slot);
        let mut at = slot_start;
        for stage in [Stage::S1, Stage::S2, Stage::S3] {
            let (start, end) = span(stage);
            assert!(
                at <= start,
                "slot {slot}: {stage:?} starts before the stage ahead of it"
            );
            at = end;
        }
        assert!(at <= slot_end, "slot {slot}: S3 ends after the slot");
    }
}
