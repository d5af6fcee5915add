//! Steady-state allocation audit for the per-slot control path.
//!
//! A counting global allocator wraps `System`. Five serial sections: first
//! the greedy S1 kernel alone, then the S4 breakpoint sweep alone (its
//! retained breakpoint buffer refilled on a drifting instance), then the
//! **full pipeline slot** — once a warm-up has grown every buffer in the
//! [`greencell_core::SlotContext`] arena, repeated [`Controller::step`]
//! calls across S1–S4, the state advance, and report assembly must perform
//! **zero** heap allocations — then the same slot with the dynamic
//! network-state policies live, and last the relaxed lower-bound
//! controller's [`greencell_core::RelaxedController::step`]. This test
//! binary is kept to a single `#[test]` so no concurrent test thread can
//! pollute the counter, and only allocations made by the audited thread
//! are counted: libtest's main thread blocks in a channel `recv` whose lazy
//! wake-context setup allocates at an arbitrary point after the test
//! starts, which on a single-core box races into the measured window.

use greencell_core::{
    greedy_schedule_with, solve_energy_management_into, Controller, ControllerConfig, CoopPolicy,
    DegradationPolicy, EnergyConfig, EnergyManagementInput, EnergyOutcome, EnergyPolicy,
    NodeEnergyConfig, RelaxedController, RelayPolicy, S1Inputs, S1Scratch, S4Workspace,
    ScheduleOutcome, SchedulerKind, SleepPolicy, SlotObservation,
};
use greencell_energy::{Battery, NodeEnergyModel, QuadraticCost};
use greencell_net::{Network, NetworkBuilder, NodeId, PathLossModel, Point, SessionId};
use greencell_phy::{PhyConfig, SpectrumState};
use greencell_queue::{FlowPlan, LinkQueueBank};
use greencell_units::{Bandwidth, DataRate, Energy, PacketSize, Packets, Power, TimeDelta};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialized: reading it in the allocator never allocates.
    static AUDITED: Cell<bool> = const { Cell::new(false) };
}

fn audited() -> bool {
    AUDITED.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: delegates verbatim to `System`; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if audited() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if audited() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_slot_allocates_nothing() {
    AUDITED.with(|f| f.set(true));
    steady_state_greedy_s1_section();
    steady_state_s4_sweep_section();
    steady_state_full_pipeline_section();
    steady_state_dynamic_policies_section();
    steady_state_relaxed_step_section();
}

fn steady_state_s4_sweep_section() {
    // Paper-scale 8-node instance, 4 base stations. One backlog drifts
    // each slot, so its flip prices move through the sorted breakpoints.
    let n = 8;
    let kwh = Energy::from_kilowatt_hours;
    let mut z: Vec<f64> = (0..n).map(|i| -(60_000.0 + 3_000.0 * i as f64)).collect();
    let demand: Vec<Energy> = (0..n).map(|i| kwh(0.02 + 0.01 * (i % 3) as f64)).collect();
    let renewable: Vec<Energy> = (0..n).map(|i| kwh(0.01 * (i % 4) as f64)).collect();
    let batteries: Vec<Battery> = (0..n)
        .map(|_| Battery::new(kwh(1.0), kwh(0.1), kwh(0.1)))
        .collect();
    let grid_connected = vec![true; n];
    let grid_limits = vec![kwh(0.2); n];
    let is_bs: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let cost = QuadraticCost::paper_default();

    let mut ws = S4Workspace::new();
    let mut out = EnergyOutcome::empty();
    let solve = |z: &[f64], ws: &mut S4Workspace, out: &mut EnergyOutcome| {
        let input = EnergyManagementInput {
            z,
            demand: &demand,
            renewable: &renewable,
            batteries: &batteries,
            grid_connected: &grid_connected,
            grid_limits: &grid_limits,
            is_base_station: &is_bs,
            cost: &cost,
            v: 1e5,
        };
        solve_energy_management_into(&input, ws, out).expect("feasible instance");
    };

    // Warm-up: the first solve grows every workspace buffer (envs, base
    // stations, solutions, breakpoints).
    for _ in 0..2 {
        solve(&z, &mut ws, &mut out);
    }
    assert!(
        out.equilibrium_price.is_some(),
        "fixture must hit the marginal-price path or the audit is vacuous"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for slot in 0..50 {
        z[0] = -(60_000.0 + 17.0 * (slot % 13) as f64);
        solve(&z, &mut ws, &mut out);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state S4 sweep performed {} heap allocations over 50 slots",
        after - before
    );
}

fn steady_state_greedy_s1_section() {
    // Paper-like instance: 2 BS + 6 users, 2 bands, several backlogged
    // links so the greedy loop admits, probes, and rejects candidates.
    let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 2);
    let mut ids = Vec::new();
    ids.push(b.add_base_station(Point::new(0.0, 0.0)));
    ids.push(b.add_base_station(Point::new(1200.0, 0.0)));
    for k in 0..6 {
        let angle = k as f64 * std::f64::consts::TAU / 6.0;
        ids.push(b.add_user(Point::new(600.0 + 500.0 * angle.cos(), 500.0 * angle.sin())));
    }
    let net = b.build().expect("valid network");
    let n = 8;
    let mut links = LinkQueueBank::new(n, 100.0);
    let mut plan = FlowPlan::new(n, 1);
    for (i, j, pkts) in [(0, 2, 90), (1, 5, 80), (2, 3, 70), (4, 6, 60), (0, 7, 50)] {
        plan.set(
            SessionId::from_index(0),
            NodeId::from_index(i),
            NodeId::from_index(j),
            Packets::new(pkts),
        );
    }
    links.advance(&plan, &[]);
    let spectrum = SpectrumState::new(vec![
        Bandwidth::from_megahertz(1.0),
        Bandwidth::from_megahertz(2.0),
    ]);
    let phy = PhyConfig::new(1.0, 1e-20);
    let max_powers: Vec<Power> = net
        .topology()
        .nodes()
        .iter()
        .map(|node| {
            if node.kind().is_base_station() {
                Power::from_watts(20.0)
            } else {
                Power::from_watts(1.0)
            }
        })
        .collect();
    let models =
        vec![NodeEnergyModel::new(Energy::ZERO, Energy::ZERO, Power::from_milliwatts(100.0)); n];
    let budget = vec![Energy::from_kilowatt_hours(1.0); n];
    let inp = S1Inputs {
        net: &net,
        phy: &phy,
        spectrum: &spectrum,
        links: &links,
        max_powers: &max_powers,
        energy_models: &models,
        traffic_budget: &budget,
        available: &[],
        slot: TimeDelta::from_minutes(1.0),
        packet_size: PacketSize::from_bits(10_000),
    };

    let mut scratch = S1Scratch::new();
    let mut out = ScheduleOutcome::empty();

    // Warm-up: grow every retained buffer to its steady-state size.
    for _ in 0..3 {
        greedy_schedule_with(&inp, &mut scratch, &mut out);
    }
    assert!(
        !out.schedule.is_empty(),
        "warm-up must schedule something or the audit is vacuous"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..50 {
        greedy_schedule_with(&inp, &mut scratch, &mut out);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state greedy S1 performed {} heap allocations over 50 slots",
        after - before
    );
}

/// The pipeline fixture: 2 BS + 6 users on two bands with three sessions,
/// so every stage has work — S2 admits, S3 routes, S4 sources the energy.
fn pipeline_fixture(
    bs_sleep: Option<SleepPolicy>,
    energy_coop: Option<CoopPolicy>,
) -> (Network, EnergyConfig, ControllerConfig, SlotObservation) {
    let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 2);
    b.add_base_station(Point::new(0.0, 0.0));
    b.add_base_station(Point::new(1200.0, 0.0));
    let mut users = Vec::new();
    for k in 0..6 {
        let angle = k as f64 * std::f64::consts::TAU / 6.0;
        users.push(b.add_user(Point::new(600.0 + 500.0 * angle.cos(), 500.0 * angle.sin())));
    }
    for &u in users.iter().take(3) {
        b.add_session(u, DataRate::from_kilobits_per_second(100.0));
    }
    let net = b.build().expect("valid network");
    let n = net.topology().len();
    let sessions = net.session_count();

    let node_cfg = |is_bs: bool| NodeEnergyConfig {
        battery: Battery::new(
            Energy::from_kilowatt_hours(1.0),
            Energy::from_kilowatt_hours(0.1),
            Energy::from_kilowatt_hours(0.1),
        ),
        energy_model: NodeEnergyModel::new(
            Energy::from_joules(10.0),
            Energy::from_joules(5.0),
            Power::from_milliwatts(100.0),
        ),
        max_power: if is_bs {
            Power::from_watts(20.0)
        } else {
            Power::from_watts(1.0)
        },
        grid_limit: Energy::from_kilowatt_hours(0.2),
    };
    let energy = EnergyConfig {
        nodes: net
            .topology()
            .nodes()
            .iter()
            .map(|nd| node_cfg(nd.kind().is_base_station()))
            .collect(),
        cost: QuadraticCost::paper_default(),
    };
    let config = ControllerConfig {
        v: 1e5,
        lambda: 0.2,
        k_max: Packets::new(1000),
        packet_size: PacketSize::from_bits(10_000),
        slot: TimeDelta::from_minutes(1.0),
        scheduler: SchedulerKind::Greedy,
        relay: RelayPolicy::MultiHop,
        energy_policy: EnergyPolicy::MarginalPrice,
        w_max: Bandwidth::from_megahertz(2.0),
        degradation: DegradationPolicy::Graceful,
        bs_sleep,
        energy_coop,
    };
    let obs = SlotObservation {
        spectrum: SpectrumState::new(vec![
            Bandwidth::from_megahertz(1.0),
            Bandwidth::from_megahertz(2.0),
        ]),
        renewable: vec![Energy::from_joules(300.0); n],
        grid_connected: vec![true; n],
        session_demand: vec![Packets::new(600); sessions],
        price_multiplier: 1.0,
        node_available: vec![],
    };
    (net, energy, config, obs)
}

fn steady_state_full_pipeline_section() {
    let (net, energy, config, obs) = pipeline_fixture(None, None);
    let phy = PhyConfig::new(1.0, 1e-20);
    let mut ctl = Controller::new(net, phy, energy, config).expect("controller builds");

    // Warm-up: grow the arena to steady state. Queues keep evolving across
    // slots, so run long enough for every retained buffer (admissions,
    // flows, S3 combos, S4 workspace, …) to reach its high-water mark.
    let mut warmed_scheduled = 0usize;
    for _ in 0..50 {
        let report = ctl.step(&obs).expect("fault-free slot");
        warmed_scheduled += report.scheduled_links;
        assert!(
            report.degradation.is_empty(),
            "fixture must stay on the clean path or the audit is noisy"
        );
    }
    assert!(
        warmed_scheduled > 0,
        "warm-up must schedule something or the audit is vacuous"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..50 {
        let report = ctl.step(&obs).expect("fault-free slot");
        assert!(report.degradation.is_empty());
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state Controller::step performed {} heap allocations over 50 slots",
        after - before
    );
}

fn steady_state_dynamic_policies_section() {
    // The full-pipeline fixture again, now with both dynamic network-state
    // stages live: an aggressive sleep policy parks one BS during warm-up
    // (the last-awake guard keeps the other up) and stays there, and the
    // cooperation stage recomputes lossy transfers every slot. Steady
    // state therefore exercises begin_slot, the backlog scatter,
    // step_sleep, masked S2 source selection, and compute_transfers —
    // all of which must run out of the arena.
    let sleep = SleepPolicy {
        threshold_pkts: 1e9, // every slot counts as idle
        w_slots: 2,
        wake_threshold_pkts: 1e9, // and the decision sticks
        ramp_slots: 2,
        sleep_power: Power::from_milliwatts(500.0),
        ramp_power: Power::from_watts(5.0),
    };
    let (net, energy, config, obs) = pipeline_fixture(Some(sleep), Some(CoopPolicy { eta_x: 0.7 }));
    let phy = PhyConfig::new(1.0, 1e-20);
    let mut ctl = Controller::new(net, phy, energy, config).expect("controller builds");

    for _ in 0..50 {
        ctl.step(&obs).expect("fault-free slot");
    }
    let ns = ctl
        .network_state()
        .expect("dynamic policies carry a network state");
    assert!(
        ns.asleep_bs_count() > 0,
        "warm-up must park a BS or the dynamic audit is vacuous"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..50 {
        let report = ctl.step(&obs).expect("fault-free slot");
        assert!(report.degradation.is_empty());
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state dynamic-policy Controller::step performed {} heap \
         allocations over 50 slots",
        after - before
    );
}

fn steady_state_relaxed_step_section() {
    // The relaxed P̄3 controller on the pipeline fixture: once the virtual
    // queues fill, every slot builds S1 candidates, solves the fractional
    // matching, routes, and runs the S4 sweep — all out of buffers
    // kept on the controller.
    let (net, energy, config, obs) = pipeline_fixture(None, None);
    let phy = PhyConfig::new(1.0, 1e-20);
    let mut ctl = RelaxedController::new(net, phy, energy, config);
    for _ in 0..50 {
        ctl.step(&obs);
    }
    assert!(
        ctl.last_activations().any(|(.., alpha)| alpha > 0.0),
        "warm-up must activate a link or the relaxed audit is vacuous"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut active = 0usize;
    for _ in 0..50 {
        ctl.step(&obs);
        active += ctl.last_activations().filter(|a| a.3 > 0.0).count();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(active > 0, "steady state must keep activating links");
    assert_eq!(
        after - before,
        0,
        "steady-state RelaxedController::step performed {} heap allocations \
         over 50 slots",
        after - before
    );
}
