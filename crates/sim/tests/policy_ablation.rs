//! ROADMAP-mandated ablation for the dynamic network-state policies.
//!
//! Two claims, each measured against the paper controller at the *same*
//! Lyapunov weight `V`:
//!
//! * **`energy_coop` saves money on a renewable-imbalanced network.**
//!   With BS batteries full from slot 0 (no charge room to bank surplus
//!   into), whenever one BS harvests more than it burns while the other
//!   draws grid, the lossy transfer (η_x = 0.7) offsets real grid draw —
//!   total grid energy and average cost must strictly drop.
//! * **`bs_sleep` saves energy at low load.** With a single light session
//!   and no BS harvest, one BS's hysteresis counter runs out and it powers
//!   down to 10% of its overhead; sessions re-associate to the surviving
//!   BS (S2 skips sleeping sources), so total grid energy strictly drops
//!   while delivery continues.
//!
//! Both policies must also stay **watchdog-stable** under all four fault
//! archetypes — the strong-stability story survives the new dynamics.
//!
//! Calibration notes (why these scenarios, so the next edit doesn't
//! rediscover them the hard way):
//!
//! * `v = 1e4` keeps the paper scenario's queue equilibrium inside the
//!   horizon (same reasoning as the chaos suite); at the paper's `V = 1e5`
//!   the ramp-up alone trips the watchdog before slot 60.
//! * The low-load run caps `k_max` at 400 < the session's 600 pkt/slot
//!   drain — at the default 1000 the valve over-admits against a single
//!   destination queue and user-side backlog diverges.
//! * Sleep thresholds must exceed `k_max`: the S2 valve ping-pongs
//!   admissions between the two BSs (the just-drained BS always has the
//!   smallest backlog), so no BS is ever idle for `W` *consecutive* slots
//!   unless "idle" means "below the alternation peak".

use greencell_core::{SleepPolicy, SlotReport};
use greencell_sim::{Architecture, FaultSpec, RunMetrics, Scenario, Simulator, WatchdogReport};
use greencell_units::{Packets, Power};

fn run(scenario: &Scenario) -> (Vec<SlotReport>, RunMetrics, WatchdogReport, Simulator) {
    let mut sim = Simulator::new(scenario).expect("scenario builds");
    let mut reports = Vec::with_capacity(scenario.horizon);
    while sim.slots_run() < scenario.horizon {
        reports.push(sim.step_with_report().expect("slot steps"));
    }
    let metrics = sim.run().expect("finalize").clone();
    let verdict = sim.watchdog().report();
    (reports, metrics, verdict, sim)
}

fn grid_kwh(metrics: &RunMetrics) -> f64 {
    metrics.grid_series().values().iter().sum()
}

/// Paper network with every BS battery pre-charged to capacity: no charge
/// room means a harvesting BS cannot bank its surplus, so the renewable
/// imbalance between the two BSs shows up directly in the grid bill — and
/// is exactly what a lossy transfer can claw back.
fn imbalanced_scenario() -> Scenario {
    let mut s = Scenario::paper(4242);
    s.horizon = 80;
    s.v = 1e4;
    s.initial_battery_fraction = 1.0;
    s
}

#[test]
fn energy_coop_reduces_grid_cost_at_equal_v() {
    let base = imbalanced_scenario();
    let (_, base_metrics, base_verdict, _) = run(&base);

    let mut coop = base.clone();
    coop.energy_coop = Some(base.default_coop_policy());
    assert_eq!(coop.v, base.v, "the comparison holds V fixed");
    let (_, coop_metrics, coop_verdict, sim) = run(&coop);

    let transferred = sim
        .controller()
        .network_state()
        .expect("coop runs carry a network state")
        .transferred_kwh();
    assert!(
        transferred > 0.0,
        "the imbalanced scenario must actually move energy between BSs"
    );
    assert!(
        grid_kwh(&coop_metrics) < grid_kwh(&base_metrics),
        "cooperation must reduce total grid draw: {} vs {}",
        grid_kwh(&coop_metrics),
        grid_kwh(&base_metrics)
    );
    assert!(
        coop_metrics.average_cost() < base_metrics.average_cost(),
        "cooperation must reduce the average energy cost: {} vs {}",
        coop_metrics.average_cost(),
        base_metrics.average_cost()
    );
    assert_eq!(
        coop_metrics.delivered(),
        base_metrics.delivered(),
        "cooperation is an energy-side change; service must not degrade"
    );
    assert!(base_verdict.stable && coop_verdict.stable);
}

/// Paper network at low load: one session, admissions capped below the
/// destination's drain rate, no BS harvest (both overheads come straight
/// off the grid, so a sleeping BS is a direct, measurable grid saving).
fn low_load_scenario() -> Scenario {
    let mut s = Scenario::paper(7);
    s.horizon = 60;
    s.v = 1e3;
    s.sessions = 1;
    s.k_max = Packets::new(400);
    s.architecture = Architecture::OneHopRenewable;
    s.bs_renewable_max = Power::ZERO;
    s
}

#[test]
fn bs_sleep_reduces_energy_at_low_load() {
    let base = low_load_scenario();
    let (_, base_metrics, base_verdict, _) = run(&base);

    let mut sleepy = base.clone();
    sleepy.bs_sleep = Some(SleepPolicy {
        // Idle = below the λV + k_max alternation peak; wake threshold
        // above any reachable backlog, so the decision sticks.
        threshold_pkts: 450.0,
        wake_threshold_pkts: 5000.0,
        ..base.default_sleep_policy()
    });
    let (_, sleep_metrics, sleep_verdict, sim) = run(&sleepy);

    let ns = sim
        .controller()
        .network_state()
        .expect("sleep runs carry a network state");
    assert!(
        ns.sleep_transitions() > 0,
        "at low load a BS must actually power down"
    );
    assert!(
        ns.asleep_bs_count() > 0,
        "the decision must stick to the end of the run"
    );
    assert!(
        grid_kwh(&sleep_metrics) < grid_kwh(&base_metrics),
        "sleeping must reduce total grid draw: {} vs {}",
        grid_kwh(&sleep_metrics),
        grid_kwh(&base_metrics)
    );
    assert!(
        sleep_metrics.delivered() > 0,
        "the surviving BS must keep serving the session"
    );
    assert!(base_verdict.stable && sleep_verdict.stable);
}

/// Both policies enabled at their defaults survive every fault archetype
/// with a stable watchdog verdict — the degradation ladder, the outage
/// interplay (an outaged BS is not "asleep-by-choice"), and the drought
/// interplay (no harvest ⇒ no transfers) compose without divergence.
#[test]
fn both_policies_are_watchdog_stable_under_all_fault_archetypes() {
    /// A fault archetype sized to the horizon.
    type Archetype = fn(usize) -> FaultSpec;
    let archetypes: [(&str, Archetype); 4] = [
        ("bs-outage", |_| FaultSpec::bs_outage()),
        ("band-loss", |_| FaultSpec::band_loss()),
        ("drought", |h| FaultSpec::renewable_drought(h / 4, h / 2)),
        ("price-spike", |h| FaultSpec::price_spike(h / 4, h / 2, 6.0)),
    ];
    for (name, spec) in archetypes {
        let mut s = Scenario::paper(7);
        s.horizon = 60;
        s.v = 1e4;
        s.faults = Some(spec(s.horizon));
        s.bs_sleep = Some(s.default_sleep_policy());
        s.energy_coop = Some(s.default_coop_policy());
        let (reports, _, verdict, _) = run(&s);
        assert_eq!(reports.len(), s.horizon);
        assert!(
            verdict.stable,
            "{name}: queues must re-stabilize with both policies on \
             (trailing slope {})",
            verdict.trailing_slope
        );
    }
}
