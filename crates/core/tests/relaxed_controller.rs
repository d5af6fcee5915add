//! Direct tests of the relaxed lower-bound controller `P̄3`.

use greencell_core::{
    ControllerConfig, EnergyConfig, EnergyPolicy, NodeEnergyConfig, RelaxedController, RelayPolicy,
    SchedulerKind, SlotObservation,
};
use greencell_energy::{Battery, NodeEnergyModel, QuadraticCost};
use greencell_net::{Network, NetworkBuilder, PathLossModel, Point};
use greencell_phy::{PhyConfig, SpectrumState};
use greencell_units::{Bandwidth, DataRate, Energy, PacketSize, Packets, Power, TimeDelta};

fn net() -> Network {
    let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 2);
    b.add_base_station(Point::new(0.0, 0.0));
    b.add_user(Point::new(300.0, 0.0));
    let u2 = b.add_user(Point::new(600.0, 0.0));
    b.add_session(u2, DataRate::from_kilobits_per_second(100.0));
    b.build().unwrap()
}

fn energy() -> EnergyConfig {
    EnergyConfig {
        nodes: vec![
            NodeEnergyConfig {
                battery: Battery::with_level(
                    Energy::from_kilowatt_hours(1.0),
                    Energy::from_kilowatt_hours(0.1),
                    Energy::from_kilowatt_hours(0.1),
                    Energy::from_kilowatt_hours(0.5),
                ),
                energy_model: NodeEnergyModel::new(
                    Energy::ZERO,
                    Energy::ZERO,
                    Power::from_milliwatts(100.0),
                ),
                max_power: Power::from_watts(20.0),
                grid_limit: Energy::from_kilowatt_hours(0.2),
            };
            3
        ],
        cost: QuadraticCost::paper_default(),
    }
}

fn config() -> ControllerConfig {
    ControllerConfig {
        v: 1e5,
        lambda: 0.02,
        k_max: Packets::new(500),
        packet_size: PacketSize::from_bits(10_000),
        slot: TimeDelta::from_minutes(1.0),
        scheduler: SchedulerKind::Greedy,
        relay: RelayPolicy::MultiHop,
        energy_policy: EnergyPolicy::MarginalPrice,
        w_max: Bandwidth::from_megahertz(2.0),
        degradation: Default::default(),
        bs_sleep: None,
        energy_coop: None,
    }
}

fn obs() -> SlotObservation {
    SlotObservation {
        spectrum: SpectrumState::new(vec![
            Bandwidth::from_megahertz(1.0),
            Bandwidth::from_megahertz(1.5),
        ]),
        renewable: vec![Energy::from_joules(400.0); 3],
        grid_connected: vec![true; 3],
        session_demand: vec![Packets::new(600)],
        price_multiplier: 1.0,
        node_available: vec![],
    }
}

#[test]
fn relaxed_costs_are_nonnegative_and_accumulate() {
    let mut ctl = RelaxedController::new(net(), PhyConfig::new(1.0, 1e-20), energy(), config());
    let mut total = 0.0;
    let mut first_gap = None;
    for t in 1..=20 {
        let cost = ctl.step(&obs());
        assert!(cost >= 0.0, "per-slot cost must be non-negative");
        total += cost;
        // The Theorem 5 bound is the running average less the fixed B/V,
        // so it sits below the average by the same gap every slot.
        let avg = total / f64::from(t);
        let gap = avg - ctl.bound();
        assert!(gap > 0.0, "bound {} not below average {avg}", ctl.bound());
        let first = *first_gap.get_or_insert(gap);
        assert!((gap - first).abs() <= 1e-9 * (first + avg));
    }
}

#[test]
fn relaxed_controller_is_deterministic() {
    let run = || {
        let mut ctl = RelaxedController::new(net(), PhyConfig::new(1.0, 1e-20), energy(), config());
        (0..15).map(|_| ctl.step(&obs())).collect::<Vec<f64>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn relaxed_admissions_track_the_valve() {
    let mut ctl = RelaxedController::new(net(), PhyConfig::new(1.0, 1e-20), energy(), config());
    for _ in 0..30 {
        ctl.step(&obs());
    }
    // λV = 2000 per queue with K_max = 500: the average admitted rate must
    // be positive but cannot exceed K_max per session.
    let avg = ctl.average_admitted();
    assert!(avg > 0.0, "relaxed system should admit traffic");
    assert!(avg <= 500.0 + 1e-9, "admissions above K_max: {avg}");
}

#[test]
fn one_hop_relaxed_controller_runs() {
    let mut cfg = config();
    cfg.relay = RelayPolicy::OneHop;
    let mut ctl = RelaxedController::new(net(), PhyConfig::new(1.0, 1e-20), energy(), cfg);
    for _ in 0..10 {
        let cost = ctl.step(&obs());
        assert!(cost.is_finite());
    }
}

#[test]
#[should_panic(expected = "one energy config per node")]
fn mismatched_energy_config_panics() {
    let mut bad = energy();
    bad.nodes.pop();
    let _ = RelaxedController::new(net(), PhyConfig::new(1.0, 1e-20), bad, config());
}
