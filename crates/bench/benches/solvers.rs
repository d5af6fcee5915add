//! Micro-benchmarks of the hand-rolled numerical substrates: the simplex
//! LP solver, the direct power-control solve, the S4 marginal-price
//! solver, queue-bank updates, and one full controller step.

use criterion::{criterion_group, criterion_main, Criterion};
use greencell_bench::warmed_controller;
use greencell_core::{solve_energy_management, EnergyManagementInput};
use greencell_energy::{Battery, QuadraticCost};
use greencell_lp::{LinearProgram, Relation};
use greencell_net::{BandId, NetworkBuilder, NodeId, PathLossModel, Point, SessionId};
use greencell_phy::{min_power_assignment, PhyConfig, Schedule, SpectrumState, Transmission};
use greencell_queue::{DataQueueBank, FlowPlan, LinkQueueBank};
use greencell_sim::Simulator;
use greencell_stochastic::Rng;
use greencell_units::{Bandwidth, Energy, Packets, Power};
use std::hint::black_box;

/// A dense random LP with 40 variables and 25 constraints (the size of a
/// busy slot's sequential-fix relaxation).
fn simplex_40x25(c: &mut Criterion) {
    let mut rng = Rng::seed_from(3);
    let mut lp = LinearProgram::new();
    let vars: Vec<_> = (0..40)
        .map(|_| lp.add_variable(rng.range_f64(-3.0, 3.0), 0.0, 5.0))
        .collect();
    for _ in 0..25 {
        let terms: Vec<_> = vars
            .iter()
            .map(|&v| (v, rng.range_f64(-1.0, 2.0)))
            .collect();
        lp.add_constraint(&terms, Relation::Le, rng.range_f64(5.0, 30.0));
    }
    c.bench_function("simplex_40x25", |b| {
        b.iter(|| black_box(lp.solve().expect("feasible")));
    });
}

/// Power control for six co-channel links on a line network.
fn power_control_6_links(c: &mut Criterion) {
    let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
    let mut nodes = Vec::new();
    for k in 0..12 {
        nodes.push(if k % 2 == 0 {
            b.add_base_station(Point::new(500.0 * k as f64, 0.0))
        } else {
            b.add_user(Point::new(500.0 * k as f64 - 400.0, 50.0))
        });
    }
    let net = b.build().expect("net");
    let mut schedule = Schedule::new();
    for pair in nodes.chunks(2) {
        schedule
            .try_add(
                &net,
                Transmission::new(pair[0], pair[1], BandId::from_index(0)),
            )
            .expect("disjoint");
    }
    let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]);
    let phy = PhyConfig::new(1.0, 1e-20);
    let caps = vec![Power::from_watts(20.0); 12];
    c.bench_function("power_control_6_links", |b| {
        b.iter(|| {
            black_box(
                min_power_assignment(&net, &schedule, &spectrum, &phy, &caps).expect("feasible"),
            )
        });
    });
}

/// The S4 marginal-price solver on a 22-node instance (paper size).
fn s4_energy_management_22_nodes(c: &mut Criterion) {
    let n = 22;
    let mut rng = Rng::seed_from(9);
    let z: Vec<f64> = (0..n).map(|_| rng.range_f64(-9e4, -8e4)).collect();
    let demand: Vec<Energy> = (0..n)
        .map(|_| Energy::from_joules(rng.range_f64(0.0, 600.0)))
        .collect();
    let renewable: Vec<Energy> = (0..n)
        .map(|_| Energy::from_joules(rng.range_f64(0.0, 900.0)))
        .collect();
    let batteries: Vec<Battery> = (0..n)
        .map(|_| {
            Battery::with_level(
                Energy::from_kilowatt_hours(1.0),
                Energy::from_kilowatt_hours(0.1),
                Energy::from_kilowatt_hours(0.1),
                Energy::from_kilowatt_hours(rng.range_f64(0.0, 1.0)),
            )
        })
        .collect();
    let grid_connected = vec![true; n];
    let grid_limits = vec![Energy::from_kilowatt_hours(0.2); n];
    let is_bs: Vec<bool> = (0..n).map(|i| i < 2).collect();
    let cost = QuadraticCost::paper_default();
    c.bench_function("s4_energy_management_22_nodes", |b| {
        b.iter(|| {
            let input = EnergyManagementInput {
                z: &z,
                demand: &demand,
                renewable: &renewable,
                batteries: &batteries,
                grid_connected: &grid_connected,
                grid_limits: &grid_limits,
                is_base_station: &is_bs,
                cost: &cost,
                v: 1e5,
            };
            black_box(solve_energy_management(&input).expect("feasible"))
        });
    });
}

/// Advancing the full 22-node × 5-session queue banks one slot.
fn queue_banks_advance(c: &mut Criterion) {
    let n = 22;
    let sessions = 5;
    let dests: Vec<NodeId> = (2..2 + sessions).map(NodeId::from_index).collect();
    let mut rng = Rng::seed_from(17);
    let mut plan = FlowPlan::new(n, sessions);
    for s in 0..sessions {
        for _ in 0..6 {
            let i = rng.index(n);
            let j = (i + 1 + rng.index(n - 1)) % n;
            plan.set(
                SessionId::from_index(s),
                NodeId::from_index(i),
                NodeId::from_index(j),
                Packets::new(rng.below(500)),
            );
        }
    }
    let service: Vec<(NodeId, NodeId, Packets)> = (0..8)
        .map(|k| {
            (
                NodeId::from_index(k),
                NodeId::from_index(k + 9),
                Packets::new(600),
            )
        })
        .collect();
    c.bench_function("queue_banks_advance", |b| {
        b.iter(|| {
            let mut data = DataQueueBank::new(n, &dests);
            let mut links = LinkQueueBank::new(n, 12_000.0);
            for _ in 0..10 {
                data.advance(&plan, &[]);
                links.advance(&plan, &service);
            }
            black_box((data.total_backlog(), links.total_backlog()))
        });
    });
}

/// S3 backpressure routing on a loaded 22-node, 5-session state.
fn s3_routing_22_nodes(c: &mut Criterion) {
    use greencell_core::{route_flows, Admission};
    let n = 22;
    let sessions = 5;
    let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
    let bs0 = b.add_base_station(Point::new(500.0, 500.0));
    b.add_base_station(Point::new(1500.0, 500.0));
    let mut rng = Rng::seed_from(23);
    let mut users = Vec::new();
    for _ in 0..(n - 2) {
        users.push(b.add_user(Point::new(
            rng.range_f64(0.0, 2000.0),
            rng.range_f64(0.0, 2000.0),
        )));
    }
    for &user in users.iter().take(sessions) {
        b.add_session(
            user,
            greencell_units::DataRate::from_kilobits_per_second(100.0),
        );
    }
    let net = b.build().expect("net");
    let mut data = DataQueueBank::new(n, &users[..sessions]);
    let mut seed_plan = FlowPlan::new(n, sessions);
    let _ = &mut seed_plan;
    // Load the source and a few relays.
    let admissions_load: Vec<(SessionId, NodeId, Packets)> = (0..sessions)
        .map(|s| (SessionId::from_index(s), bs0, Packets::new(2000)))
        .collect();
    data.advance(&FlowPlan::new(n, sessions), &admissions_load);
    let links = LinkQueueBank::new(n, 12_000.0);
    let caps: Vec<(NodeId, NodeId, Packets)> = (0..n)
        .flat_map(|i| {
            (0..n).filter(move |&j| j != i).map(move |j| {
                (
                    NodeId::from_index(i),
                    NodeId::from_index(j),
                    Packets::new(12_000),
                )
            })
        })
        .collect();
    let admissions: Vec<Admission> = (0..sessions)
        .map(|s| Admission {
            session: SessionId::from_index(s),
            source: bs0,
            packets: Packets::ZERO,
        })
        .collect();
    let demand = vec![Packets::new(600); sessions];
    c.bench_function("s3_routing_22_nodes", |b| {
        b.iter(|| {
            black_box(route_flows(
                &net,
                &data,
                &links,
                &caps,
                &admissions,
                &demand,
            ))
        });
    });
}

/// One full controller step (S1→S4 + queue updates) on the warmed-up
/// 22-node paper scenario.
fn controller_step_paper_scenario(c: &mut Criterion) {
    let (controller, obs) = warmed_controller(20);
    c.bench_function("controller_step_paper_scenario", |b| {
        b.iter(|| {
            let mut ctl = controller.clone();
            black_box(ctl.step(&obs).expect("step"))
        });
    });
}

/// One relaxed (lower-bound) controller step on the paper scenario, mid-run:
/// the controller is first stepped through 20 recorded slots so its virtual
/// queues carry S1 candidates (a cold controller has `g = 0`, no
/// candidates, and times a near-empty step).
fn relaxed_step_paper_scenario(c: &mut Criterion) {
    use greencell_core::RelaxedController;
    let scenario = greencell_bench::bench_scenario(20);
    let net = scenario.build_network().expect("net");
    let energy = scenario.energy_config(&net);
    let config = scenario.controller_config();
    let mut relaxed = RelaxedController::new(net, scenario.phy(), energy, config);
    let (_, warmup) = Simulator::new(&scenario)
        .and_then(|mut sim| sim.run_recording())
        .expect("warm-up runs");
    for obs in &warmup {
        relaxed.step(obs);
    }
    let (_, obs) = warmed_controller(20);
    c.bench_function("relaxed_step_paper_scenario", |b| {
        b.iter(|| {
            let mut ctl = relaxed.clone();
            black_box(ctl.step(&obs))
        });
    });
}

criterion_group! {
    name = solvers;
    config = Criterion::default().sample_size(20);
    targets = simplex_40x25, power_control_6_links, s4_energy_management_22_nodes,
              queue_banks_advance, s3_routing_22_nodes,
              controller_step_paper_scenario, relaxed_step_paper_scenario
}
criterion_main!(solvers);
