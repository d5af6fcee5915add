//! Heterogeneous per-session demands: heavier sessions deliver more, and
//! the fairness index reports the imbalance.

use greencell_sim::{Scenario, Simulator};

#[test]
fn heavier_sessions_deliver_more() {
    let mut scenario = Scenario::tiny(42);
    scenario.horizon = 60;
    scenario.sessions = 2;
    scenario.session_demands_kbps = Some(vec![50.0, 200.0]);
    let mut sim = Simulator::new(&scenario).expect("build");
    let metrics = sim.run().expect("run").clone();
    let per = metrics.delivered_per_session();
    assert_eq!(per.len(), 2);
    assert!(
        per[1] > per[0],
        "the 200 kbps session ({}) should out-deliver the 50 kbps one ({})",
        per[1],
        per[0]
    );
    // Imbalanced deliveries ⇒ fairness strictly below 1.
    assert!(metrics.delivery_fairness() < 0.999);
    // Shorter demand lists wrap around instead of panicking.
    let mut wrap = scenario.clone();
    wrap.sessions = 3;
    wrap.session_demands_kbps = Some(vec![100.0]);
    Simulator::new(&wrap).expect("build").run().expect("run");
}

#[test]
fn uniform_override_matches_default() {
    let mut a = Scenario::tiny(9);
    a.horizon = 20;
    let mut b = a.clone();
    b.session_demands_kbps = Some(vec![100.0, 100.0]);
    let ma = Simulator::new(&a).expect("a").run().expect("a").clone();
    let mb = Simulator::new(&b).expect("b").run().expect("b").clone();
    assert_eq!(ma, mb, "uniform 100 kbps override must equal the default");
}

#[test]
fn lyapunov_series_is_recorded() {
    let mut scenario = Scenario::tiny(5);
    scenario.horizon = 25;
    let metrics = Simulator::new(&scenario)
        .expect("run")
        .run()
        .expect("run")
        .clone();
    assert_eq!(metrics.lyapunov_series().len(), 25);
    assert!(metrics
        .lyapunov_series()
        .values()
        .iter()
        .all(|&l| l.is_finite() && l >= 0.0));
}
