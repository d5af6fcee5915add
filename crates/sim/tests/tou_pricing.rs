//! Time-of-use pricing extension: the S4 marginal-price equilibrium
//! responds to tariffs — grid purchases shift away from peak slots.

use greencell_sim::{Scenario, Simulator, TouPricing};

#[test]
fn multiplier_schedule() {
    let p = TouPricing::Periodic {
        period_slots: 4,
        peak_slots: 2,
        peak_multiplier: 3.0,
    };
    let pattern: Vec<f64> = (0..8).map(|t| p.multiplier(t)).collect();
    assert_eq!(pattern, vec![3.0, 3.0, 1.0, 1.0, 3.0, 3.0, 1.0, 1.0]);
    assert_eq!(TouPricing::Flat.multiplier(999), 1.0);
    // Degenerate period behaves as flat.
    let degenerate = TouPricing::Periodic {
        period_slots: 0,
        peak_slots: 1,
        peak_multiplier: 9.0,
    };
    assert_eq!(degenerate.multiplier(5), 1.0);
}

/// Under a strong peak surcharge, the controller buys (charges) less
/// during peak slots than during off-peak slots. The z-shift makes the
/// charging threshold `|z| > V·m·f'(P)`: tripling `m` during peaks cuts
/// the willingness to buy.
#[test]
fn charging_shifts_off_peak() {
    // Start batteries empty so there is real charging to schedule, and use
    // a smaller V so the price threshold actually bites (at paper-scale V
    // the bang-bang regime buys regardless; see EXPERIMENTS.md).
    let mut scenario = Scenario::tiny(42);
    scenario.horizon = 60;
    scenario.initial_battery_fraction = 0.0;
    scenario.v = 1.0;
    scenario.pricing = TouPricing::Periodic {
        period_slots: 2,
        peak_slots: 1,
        peak_multiplier: 100.0,
    };

    let mut sim = Simulator::new(&scenario).expect("build");
    let mut peak_draw = 0.0f64;
    let mut offpeak_draw = 0.0f64;
    for t in 0..scenario.horizon {
        let report = sim.step_with_report().expect("step");
        let draw = report.grid_draw.as_kilowatt_hours();
        if scenario.pricing.multiplier(t) > 1.0 {
            peak_draw += draw;
        } else {
            offpeak_draw += draw;
        }
    }
    assert!(
        offpeak_draw > 0.0,
        "some off-peak purchasing should happen while batteries fill"
    );
    assert!(
        peak_draw <= 0.5 * offpeak_draw,
        "peak purchases ({peak_draw:.4} kWh) should be well below off-peak ({offpeak_draw:.4} kWh)"
    );
}

/// A flat tariff and a multiplier of 1.0 are byte-identical.
#[test]
fn unit_multiplier_is_identity() {
    let mut flat = Scenario::tiny(9);
    flat.horizon = 20;
    let mut trivial = flat.clone();
    trivial.pricing = TouPricing::Periodic {
        period_slots: 3,
        peak_slots: 2,
        peak_multiplier: 1.0,
    };
    let a = Simulator::new(&flat)
        .expect("flat")
        .run()
        .expect("flat")
        .clone();
    let b = Simulator::new(&trivial)
        .expect("trivial")
        .run()
        .expect("trivial")
        .clone();
    assert_eq!(a, b);
}

/// Lossy batteries: filling the same storage needs more grid energy, so
/// the fill-up phase draws strictly more at η = 0.7 than at η = 1.0.
#[test]
fn lossy_batteries_draw_more_grid_energy() {
    let mut lossless = Scenario::tiny(21);
    lossless.horizon = 40;
    lossless.initial_battery_fraction = 0.0;
    let mut lossy = lossless.clone();
    lossy.battery_efficiency = 0.7;

    let a = Simulator::new(&lossless)
        .expect("lossless")
        .run()
        .expect("lossless")
        .clone();
    let b = Simulator::new(&lossy)
        .expect("lossy")
        .run()
        .expect("lossy")
        .clone();
    let drawn = |m: &greencell_sim::RunMetrics| m.grid_series().values().iter().sum::<f64>();
    assert!(
        drawn(&b) > drawn(&a),
        "η = 0.7 should draw more grid energy than η = 1.0 ({} vs {})",
        drawn(&b),
        drawn(&a)
    );
    // Buffers still fill to (at most) the same physical ceiling.
    assert!(
        b.buffer_bs_series().max().unwrap_or(0.0)
            <= a.buffer_bs_series().max().unwrap_or(0.0) + 1e-9
    );
}
