//! Equivalence gate for the dynamic network-state layer.
//!
//! The BS sleep machine and the inter-BS energy-cooperation
//! stage must be **provably inert** at their neutral settings: a sleep
//! policy that can never trigger (negative backlog threshold) and a
//! cooperation policy with zero transfer efficiency must replay the
//! static default controller **bit for bit** — per-slot
//! [`greencell_core::SlotReport`]s, final [`RunMetrics`], and the
//! watchdog's verdict alike — on the paper scenario under every fault
//! archetype, and on the partitioned city path. Separately, the
//! partitioned path with sleeping *enabled* must change its awake set and
//! be worker-count invariant (byte-identical reports with 1 and 4
//! workers).

use greencell_core::{CoopPolicy, SleepPolicy, SlotReport};
use greencell_sim::{FaultSpec, RunMetrics, Scenario, Simulator, WatchdogReport};

/// The four fault archetypes; `pick == 4` means fault-free.
fn fault_spec(pick: usize) -> Option<FaultSpec> {
    match pick {
        0 => Some(FaultSpec::bs_outage()),
        1 => Some(FaultSpec::band_loss()),
        2 => Some(FaultSpec::renewable_drought(4, 10)),
        3 => Some(FaultSpec::price_spike(3, 9, 4.0)),
        _ => None,
    }
}

fn paper_scenario(fault_pick: usize) -> Scenario {
    let mut s = Scenario::paper(42 + fault_pick as u64);
    s.horizon = 20;
    s.faults = fault_spec(fault_pick);
    s.track_lower_bound = true;
    s
}

/// A sleep policy that can never trigger: backlogs are non-negative, so
/// no queue ever drops below a negative threshold and no BS ever sleeps.
fn never_sleep(s: &Scenario) -> SleepPolicy {
    SleepPolicy {
        threshold_pkts: -1.0,
        ..s.default_sleep_policy()
    }
}

fn run_dense(scenario: &Scenario) -> (Vec<SlotReport>, RunMetrics, WatchdogReport) {
    let mut sim = Simulator::new(scenario).expect("scenario builds");
    let mut reports = Vec::with_capacity(scenario.horizon);
    while sim.slots_run() < scenario.horizon {
        reports.push(sim.step_with_report().expect("slot steps"));
    }
    let metrics = sim.run().expect("finalize").clone();
    let verdict = sim.watchdog().report();
    (reports, metrics, verdict)
}

fn assert_dense_identical(label: &str, base: &Scenario, variant: &Scenario) {
    let (br, bm, bv) = run_dense(base);
    let (vr, vm, vv) = run_dense(variant);
    assert_eq!(br, vr, "{label}: per-slot reports diverged");
    assert_eq!(bm, vm, "{label}: run metrics diverged");
    assert_eq!(bv, vv, "{label}: watchdog verdict diverged");
}

#[test]
fn inert_sleep_policy_replays_the_default_bit_for_bit() {
    for pick in 0..5 {
        let base = paper_scenario(pick);
        let mut variant = base.clone();
        variant.bs_sleep = Some(never_sleep(&base));
        assert_dense_identical(&format!("sleep/fault {pick}"), &base, &variant);
    }
}

#[test]
fn zero_efficiency_coop_replays_the_default_bit_for_bit() {
    for pick in 0..5 {
        let base = paper_scenario(pick);
        let mut variant = base.clone();
        variant.energy_coop = Some(CoopPolicy { eta_x: 0.0 });
        assert_dense_identical(&format!("coop/fault {pick}"), &base, &variant);
    }
}

#[test]
fn both_inert_policies_together_replay_the_default_bit_for_bit() {
    let base = paper_scenario(0);
    let mut variant = base.clone();
    variant.bs_sleep = Some(never_sleep(&base));
    variant.energy_coop = Some(CoopPolicy { eta_x: 0.0 });
    assert_dense_identical("both/bs-outage", &base, &variant);
}

/// The reports of a run plus its BS sleep transitions.
fn run_city(scenario: &Scenario, workers: usize) -> (Vec<SlotReport>, u64) {
    let mut sim = Simulator::with_workers(scenario, workers).expect("city path builds");
    assert!(sim.controller().part_count() > 1, "want a partitioned run");
    let reports = (0..scenario.horizon)
        .map(|_| sim.step_with_report().expect("city slot steps"))
        .collect();
    let sleeps = sim
        .controller()
        .network_state()
        .map_or(0, |ns| ns.sleep_transitions());
    (reports, sleeps)
}

/// A calibrated, *pruned* city scenario — several clusters, so sleep
/// decisions run over a partitioned controller.
fn city_scenario() -> Scenario {
    let mut s = Scenario::city(80, 3, Scenario::default_city_area(3), 13);
    s.horizon = 18;
    s
}

#[test]
fn inert_policies_on_the_partitioned_city_path_replay_the_default() {
    let base = city_scenario();
    let (base_reports, _) = run_city(&base, 1);

    let mut sleepy = base.clone();
    sleepy.bs_sleep = Some(never_sleep(&base));
    let (sleep_reports, sleeps) = run_city(&sleepy, 1);
    assert_eq!(sleep_reports, base_reports, "city/never-sleep diverged");
    assert_eq!(sleeps, 0, "a never-triggering policy never sleeps");

    let mut coop = base.clone();
    coop.energy_coop = Some(CoopPolicy { eta_x: 0.0 });
    let (coop_reports, _) = run_city(&coop, 1);
    assert_eq!(coop_reports, base_reports, "city/zero-eta coop diverged");
}

/// An aggressive sleep policy on the city scenario: every lightly-loaded
/// BS powers down fast, so the awake set actually changes, and the run
/// must stay byte-identical whether the per-cluster solves run on 1 worker
/// or 4 — the sleep machine runs once per slot, before S1, on one thread.
#[test]
fn city_sleeping_is_worker_count_invariant() {
    let mut s = city_scenario();
    s.bs_sleep = Some(SleepPolicy {
        threshold_pkts: 1e12, // every BS counts as lightly loaded
        w_slots: 2,
        wake_threshold_pkts: 1e12,
        ..s.default_sleep_policy()
    });

    let (serial, sleeps_1) = run_city(&s, 1);
    assert!(
        sleeps_1 > 0,
        "aggressive sleeping must change the awake set"
    );
    let (parallel, sleeps_4) = run_city(&s, 4);
    assert_eq!(serial, parallel, "1-vs-4 worker reports diverged");
    assert_eq!(sleeps_1, sleeps_4, "sleep transitions diverged");
}
