//! Cross-crate integration tests: the full controller pipeline on the
//! paper scenario, exercised through the facade crate.

use greencell::net::NodeId;
use greencell::sim::{Scenario, Simulator, SweepOptions};
use greencell::units::Packets;

/// The paper scenario runs the full horizon without shedding or errors,
/// and actually delivers most of the demanded traffic.
#[test]
fn paper_scenario_runs_and_delivers() {
    let scenario = Scenario::paper(42);
    let mut sim = Simulator::new(&scenario).expect("build");
    let metrics = sim.run().expect("run").clone();

    assert_eq!(metrics.cost_series().len(), 100);
    assert_eq!(metrics.shed(), 0, "no transmission should be shed");
    // 5 sessions × 600 packets × 100 slots demanded; expect ≥ 2/3 delivered
    // (the first slots bootstrap the pipeline).
    let demanded = 5 * 600 * 100;
    assert!(
        metrics.delivered() * 3 >= demanded * 2,
        "delivered only {} of {demanded}",
        metrics.delivered()
    );
}

/// Strong stability (Theorem 3): source queues never exceed the admission
/// valve λV + K_max, and total backlogs stay bounded over a long horizon.
#[test]
fn queues_respect_the_admission_valve() {
    let mut scenario = Scenario::paper(7);
    scenario.horizon = 200;
    let mut sim = Simulator::new(&scenario).expect("build");
    sim.run().expect("run");

    let valve = scenario.lambda * scenario.v + scenario.k_max.count_f64();
    let net = sim.network().clone();
    for bs in net.topology().base_stations() {
        for session in net.sessions() {
            let q = sim.controller().data().backlog(bs, session.id());
            assert!(
                q.count_f64() <= valve + 1e-9,
                "source queue {q} exceeds valve {valve}"
            );
        }
    }
}

/// Energy buffers never exceed physical capacity, and batteries obey the
/// charge/discharge laws throughout (validated decisions only).
#[test]
fn batteries_stay_within_capacity() {
    let mut scenario = Scenario::paper(3);
    scenario.horizon = 60;
    let mut sim = Simulator::new(&scenario).expect("build");
    sim.run().expect("run");
    let net = sim.network().clone();
    for id in net.topology().ids() {
        let b = sim.controller().battery(id);
        assert!(b.level() >= greencell::units::Energy::ZERO);
        assert!(b.level() <= b.capacity());
    }
}

/// Theorem 4/5 ordering: the lower bound sits below the achieved cost for
/// every V, and the B/V gap term shrinks monotonically.
#[test]
fn bounds_are_ordered_and_tighten() {
    let mut base = Scenario::paper(5);
    base.horizon = 40;
    let (rows, _) =
        greencell::sim::experiments::fig2a(&base, &[1e5, 3e5, 1e6], &SweepOptions::serial())
            .expect("fig2a");
    for row in &rows {
        assert!(
            row.lower <= row.upper,
            "V={}: bound ordering violated",
            row.v
        );
        assert!(
            row.lower_psi <= row.upper_psi,
            "V={}: ψ ordering violated",
            row.v
        );
    }
    assert!(rows[0].gap > rows[1].gap && rows[1].gap > rows[2].gap);
}

/// Fig. 2(b) shape: larger V ⇒ (weakly) larger steady-state BS backlog —
/// the queue-length/energy-cost tradeoff of Lyapunov optimization.
#[test]
fn backlog_grows_with_v() {
    let mut base = Scenario::paper(11);
    base.horizon = 100;
    let report = greencell::sim::experiments::v_sweep(&base, &[1e5, 5e5], &SweepOptions::serial())
        .expect("fig2bc");
    // Steady state: the mean over the last quarter of the horizon.
    let last_quarter = |v: &[f64]| {
        let tail = &v[v.len() * 3 / 4..];
        tail.iter().sum::<f64>() / tail.len() as f64
    };
    let bs = |i: usize| report.outcomes[i].metrics.backlog_bs_series().values();
    let small_v = last_quarter(bs(0));
    let large_v = last_quarter(bs(1));
    assert!(
        large_v >= small_v,
        "V=5e5 backlog {large_v} below V=1e5 backlog {small_v}"
    );
}

/// Fig. 2(f) shape on the calibrated scenario: the proposed architecture
/// has the lowest cost and one-hop-without-renewables the highest; both
/// renewable integration and relaying reduce cost within their class.
#[test]
fn architecture_ordering_matches_paper_claims() {
    let mut base = Scenario::fig2f_calibrated(42);
    base.horizon = 60;
    let (rows, _) =
        greencell::sim::experiments::fig2f(&base, &[1e5], &SweepOptions::serial()).expect("fig2f");
    let cost = |i: usize| rows[i].costs[0];
    let (ours, mh_no_re, oh_re, oh_no_re) = (cost(0), cost(1), cost(2), cost(3));
    assert!(ours <= mh_no_re, "renewables must not hurt (multi-hop)");
    assert!(oh_re <= oh_no_re, "renewables must not hurt (one-hop)");
    assert!(ours <= oh_re, "relaying must not hurt (with renewables)");
    assert!(
        mh_no_re <= oh_no_re,
        "relaying must not hurt (without renewables)"
    );
    assert!(
        oh_no_re >= ours * 2.0,
        "the worst architecture should cost at least 2x the proposed"
    );
}

/// Determinism: identical seeds give identical runs through the whole
/// stack (topology, processes, controller, metrics).
#[test]
fn identical_seeds_reproduce_bitwise() {
    let scenario = Scenario::tiny(99);
    let a = Simulator::new(&scenario)
        .expect("a")
        .run()
        .expect("a")
        .clone();
    let b = Simulator::new(&scenario)
        .expect("b")
        .run()
        .expect("b")
        .clone();
    assert_eq!(a, b);
}

/// The one-hop policy really keeps users silent: no user ever transmits.
#[test]
fn one_hop_users_never_transmit() {
    let mut scenario = Scenario::fig2f_calibrated(13);
    scenario.architecture = greencell::sim::Architecture::OneHopRenewable;
    scenario.horizon = 40;
    let mut sim = Simulator::new(&scenario).expect("build");
    sim.run().expect("run");
    // If users never transmit, no user can hold another session's packets
    // forwarded *from* it… instead verify via link queues: every virtual
    // queue with a user transmitter stayed empty.
    let net = sim.network().clone();
    for u in net.topology().users() {
        for j in net.topology().ids() {
            if u != j {
                assert_eq!(
                    sim.controller().links().g(u, j),
                    Packets::ZERO,
                    "user {u} has a non-empty outgoing link buffer"
                );
            }
        }
    }
}

/// Node ids are stable across the facade: NodeId round-trips.
#[test]
fn facade_reexports_are_usable_together() {
    let scenario = Scenario::tiny(1);
    let net = scenario.build_network().expect("net");
    let id = NodeId::from_index(0);
    assert!(net.topology().node(id).kind().is_base_station());
}
