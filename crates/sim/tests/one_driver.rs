//! Golden gate for the single slot driver.
//!
//! The city path (pruned `Scenario::city` runs, several interference
//! clusters, 1 and 2 workers) and the dense paper path with *active* BS
//! sleeping and energy cooperation (with and without BS outages) are
//! fingerprinted slot by slot. Every `SlotReport` is folded into an FNV-1a
//! hash of its `Debug` form (shortest-roundtrip `f64`s, so equal hashes
//! mean bit-equal decisions); the dynamic network-state totals ride along
//! in plain text so a divergence names what moved.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! GREENCELL_BLESS=1 cargo test -p greencell-sim --test one_driver
//! ```

use greencell_core::{CoopPolicy, SchedulerKind, SleepPolicy, SlotReport};
use greencell_sim::{fnv1a_64, FaultSpec, Scenario, Simulator};
use std::path::PathBuf;

const GOLDEN: &str = "golden/one_driver.fp";

/// The `networkstate_equivalence` aggressive policy: every BS counts as
/// lightly loaded, so the awake set changes within a few slots.
fn aggressive_sleep(s: &Scenario) -> SleepPolicy {
    SleepPolicy {
        threshold_pkts: 1e12,
        w_slots: 2,
        wake_threshold_pkts: 1e12,
        ..s.default_sleep_policy()
    }
}

fn city() -> Scenario {
    let mut s = Scenario::city(160, 4, Scenario::default_city_area(4), 13);
    s.horizon = 20;
    s
}

fn city_battery() -> Vec<(&'static str, Scenario)> {
    let base = city();
    let mut seqfix = base.clone();
    seqfix.scheduler = SchedulerKind::SequentialFix;
    seqfix.horizon = 8;
    let mut sleepy = base.clone();
    sleepy.bs_sleep = Some(aggressive_sleep(&base));
    let mut coop = base.clone();
    coop.energy_coop = Some(CoopPolicy { eta_x: 0.7 });
    vec![
        ("city_greedy", base),
        ("city_seqfix", seqfix),
        ("city_sleep", sleepy),
        ("city_coop", coop),
    ]
}

fn paper_battery() -> Vec<(&'static str, Scenario)> {
    let mut paper = Scenario::paper(42);
    paper.horizon = 40;
    let mut default_policies = paper.clone();
    default_policies.bs_sleep = Some(paper.default_sleep_policy());
    default_policies.energy_coop = Some(paper.default_coop_policy());
    let mut aggressive = paper.clone();
    aggressive.bs_sleep = Some(aggressive_sleep(&paper));
    aggressive.energy_coop = Some(paper.default_coop_policy());
    let mut out = Vec::new();
    for (label, s) in [
        ("paper_sleep_coop", default_policies),
        ("paper_aggressive_sleep_coop", aggressive),
    ] {
        let mut faulted = s.clone();
        faulted.faults = Some(FaultSpec::bs_outage());
        out.push((label, s));
        out.push((label, faulted));
    }
    out
}

fn reports_line(reports: &[SlotReport]) -> String {
    let debug = format!("{reports:?}");
    let routed: u64 = reports.iter().map(|r| r.routed.count()).sum();
    let shed: usize = reports.iter().map(|r| r.shed_transmissions).sum();
    let events: usize = reports.iter().map(|r| r.degradation.len()).sum();
    format!(
        "slots={}|routed={routed}|shed={shed}|events={events}|reports=0x{:016x}",
        reports.len(),
        fnv1a_64(debug.as_bytes())
    )
}

/// Steps `sim` through its scenario's horizon, collecting every report.
fn run(sim: &mut Simulator) -> Vec<SlotReport> {
    let horizon = sim.scenario().horizon;
    let mut reports = Vec::with_capacity(horizon);
    while sim.slots_run() < horizon {
        reports.push(sim.step_with_report().expect("slot steps"));
    }
    reports
}

fn fingerprint() -> String {
    let mut lines = Vec::new();
    for (label, scenario) in city_battery() {
        for workers in [1usize, 2] {
            let mut sim = Simulator::with_workers(&scenario, workers).expect("city path builds");
            let clusters = sim.controller().decomposition().len();
            let reports = run(&mut sim);
            let transitions = sim
                .controller()
                .network_state()
                .map_or((0, 0), |ns| (ns.sleep_transitions(), ns.wake_transitions()));
            lines.push(format!(
                "{label}|workers={workers}|clusters={clusters}|sleep_tr={}|wake_tr={}|{}",
                transitions.0,
                transitions.1,
                reports_line(&reports)
            ));
        }
    }
    for (label, scenario) in paper_battery() {
        let mut sim = Simulator::new(&scenario).expect("paper scenario builds");
        let reports = run(&mut sim);
        let ns = sim
            .controller()
            .network_state()
            .expect("dynamic policies are live");
        let faults = if scenario.faults.is_some() {
            "bs_outage"
        } else {
            "none"
        };
        lines.push(format!(
            "{label}|faults={faults}|sleep_tr={}|wake_tr={}|transferred=0x{:016x}|metrics=0x{:016x}|{}",
            ns.sleep_transitions(),
            ns.wake_transitions(),
            ns.transferred_kwh().to_bits(),
            fnv1a_64(format!("{:?}", sim.metrics()).as_bytes()),
            reports_line(&reports)
        ));
    }
    lines.join("\n") + "\n"
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(GOLDEN)
}

#[test]
fn one_driver_matches_the_recorded_fingerprints() {
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
        assert_eq!(a, e, "run #{i} ({label}) diverged from the recorded driver");
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "run battery size changed; re-bless deliberately"
    );
}
