//! Lockstep property tests for the warm-started S4 kernel
//! (`solve_energy_management_warm_into`) against the frozen cold-bisection
//! oracle (`solve_energy_management_into`), plus the fractional-fill
//! invariants.
//!
//! The kernel's contract is **bit-identity**: same decisions, same draw,
//! same cost/objective, same equilibrium price, same errors — regardless
//! of what stale warm-start state its workspace carries. The instances
//! here mix unit-scale and paper-scale (`V = 1e5`) Lyapunov weights, lossy
//! batteries, disconnected nodes (driving `Deficit` errors through both
//! solvers), and `V = 0` pure-stability slots.

use greencell_core::{
    solve_energy_management, solve_energy_management_warm_into, EnergyManagementInput,
    EnergyOutcome, S4Workspace,
};
use greencell_energy::{Battery, GridConnection, QuadraticCost};
use greencell_stochastic::Rng;
use greencell_units::Energy;
use proptest::prelude::*;

fn kwh(x: f64) -> Energy {
    Energy::from_kilowatt_hours(x)
}

struct Instance {
    z: Vec<f64>,
    demand: Vec<Energy>,
    renewable: Vec<Energy>,
    batteries: Vec<Battery>,
    grid_connected: Vec<bool>,
    grid_limits: Vec<Energy>,
    is_bs: Vec<bool>,
    cost: QuadraticCost,
    v: f64,
}

impl Instance {
    fn input(&self) -> EnergyManagementInput<'_> {
        EnergyManagementInput {
            z: &self.z,
            demand: &self.demand,
            renewable: &self.renewable,
            batteries: &self.batteries,
            grid_connected: &self.grid_connected,
            grid_limits: &self.grid_limits,
            is_base_station: &self.is_bs,
            cost: &self.cost,
            v: self.v,
        }
    }
}

/// A battery charged to roughly `level` through the lossy charge law, so
/// `eta < 1` cases exercise real reachable states.
fn battery_at(level: f64, eta: f64) -> Battery {
    if (eta - 1.0).abs() < 1e-12 {
        return Battery::with_level(kwh(1.0), kwh(0.1), kwh(0.1), kwh(level));
    }
    let mut b = Battery::with_efficiency(kwh(1.0), kwh(0.1), kwh(0.1), eta);
    while b.level().as_kilowatt_hours() + 1e-9 < level {
        let missing = level - b.level().as_kilowatt_hours();
        let draw = (missing / eta).min(b.max_charge_now().as_kilowatt_hours());
        if draw <= 1e-9 {
            break;
        }
        b.apply(kwh(draw), Energy::ZERO).unwrap();
    }
    b
}

/// Random S4 instance: unit scale on odd seeds, paper scale (`V = 1e5`,
/// `|z|` up to ~7e4 so mode flips land on both sides of the price
/// bracket) on even seeds, occasional `V = 0` and disconnected nodes.
fn random_instance(seed: u64, nodes: usize) -> Instance {
    let mut rng = Rng::seed_from(seed);
    let city = seed.is_multiple_of(2);
    let v = if seed.is_multiple_of(17) {
        0.0
    } else if city {
        1e5
    } else {
        rng.range_f64(0.3, 10.0)
    };
    let eta = if seed.is_multiple_of(3) {
        rng.range_f64(0.7, 1.0)
    } else {
        1.0
    };
    Instance {
        z: (0..nodes)
            .map(|_| {
                if city {
                    -rng.range_f64(0.0, 7.0e4)
                } else {
                    rng.range_f64(-3.0, 3.0)
                }
            })
            .collect(),
        demand: (0..nodes).map(|_| kwh(rng.range_f64(0.0, 0.15))).collect(),
        renewable: (0..nodes).map(|_| kwh(rng.range_f64(0.0, 0.2))).collect(),
        batteries: (0..nodes)
            .map(|_| battery_at(rng.range_f64(0.0, 1.0), eta))
            .collect(),
        grid_connected: (0..nodes).map(|_| rng.next_f64() > 0.1).collect(),
        grid_limits: vec![kwh(0.2); nodes],
        is_bs: (0..nodes).map(|i| i % 2 == 0).collect(),
        cost: QuadraticCost::paper_default(),
        v,
    }
}

/// Kernel (with whatever warm state `ws` carries) vs a fresh oracle:
/// results and errors must agree bitwise.
fn assert_lockstep(inst: &Instance, ws: &mut S4Workspace, out: &mut EnergyOutcome, tag: &str) {
    let oracle = solve_energy_management(&inst.input());
    let kernel = solve_energy_management_warm_into(&inst.input(), ws, out);
    match (oracle, kernel) {
        (Ok(o), Ok(())) => {
            assert_eq!(*out, o, "{tag}: kernel diverged from oracle");
            assert_eq!(
                out.equilibrium_price.map(f64::to_bits),
                o.equilibrium_price.map(f64::to_bits),
                "{tag}: p* must match bitwise"
            );
        }
        (Err(oe), Err(ke)) => assert_eq!(ke, oe, "{tag}: errors must agree"),
        (o, k) => panic!("{tag}: oracle {o:?} vs kernel {k:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One workspace dragged across unrelated instances: cold solve, a
    /// warm re-solve of the same slot (exact-hint path), then a different
    /// instance whose solve starts from the now-stale threshold.
    #[test]
    fn kernel_matches_oracle_under_stale_warm_state(
        seed in 0u64..100_000,
        nodes in 1usize..8,
    ) {
        let a = random_instance(seed, nodes);
        let b = random_instance(seed.wrapping_add(1), ((nodes + 3) % 8) + 1);
        let mut ws = S4Workspace::new();
        let mut out = EnergyOutcome::empty();
        assert_lockstep(&a, &mut ws, &mut out, "cold");
        assert_lockstep(&a, &mut ws, &mut out, "warm-exact");
        assert_lockstep(&b, &mut ws, &mut out, "stale-swap");
        assert_lockstep(&b, &mut ws, &mut out, "warm-exact-2");
        assert_lockstep(&a, &mut ws, &mut out, "swap-back");
    }

    /// Fill invariants on feasible instances: every decision validates,
    /// every field respects its physical bound, and the total base-station
    /// draw lands on `f'⁻¹(p*/V)` within FEAS_EPS whenever the inverse
    /// marginal is defined and `V > 0`.
    #[test]
    fn fill_lands_every_feasible_instance_on_target(
        seed in 0u64..100_000,
        nodes in 1usize..8,
    ) {
        let mut inst = random_instance(seed, nodes);
        // Feasibility guarantee: connected grid covers any demand ≤ 0.15.
        inst.grid_connected = vec![true; nodes];
        let out = solve_energy_management(&inst.input()).expect("connected instances are feasible");
        let slack = 1e-9;
        for (i, d) in out.decisions.iter().enumerate() {
            let grid = GridConnection::new(inst.grid_connected[i], inst.grid_limits[i]);
            d.validate(inst.demand[i], &inst.batteries[i], &grid)
                .expect("every emitted decision validates");
            let g_max = inst.grid_limits[i].as_kilowatt_hours();
            let d_max = inst.batteries[i].max_discharge_now().as_kilowatt_hours();
            let c_room = inst.batteries[i].max_charge_now().as_kilowatt_hours();
            let grid_total = d.grid_total().as_kilowatt_hours();
            let discharge = d.discharge().as_kilowatt_hours();
            let charge = d.charge_total().as_kilowatt_hours();
            prop_assert!((0.0..=g_max + slack).contains(&grid_total), "node {i} grid {grid_total}");
            prop_assert!((0.0..=d_max + slack).contains(&discharge), "node {i} discharge {discharge}");
            prop_assert!((0.0..=c_room + slack).contains(&charge), "node {i} charge {charge}");
        }
        let p_star = out.equilibrium_price.expect("marginal-price outcome");
        if inst.v > 1e-12 {
            if let Some(target) = inst.cost.marginal_inverse(p_star / inst.v) {
                let total: f64 = out
                    .decisions
                    .iter()
                    .zip(&inst.is_bs)
                    .filter(|(_, &bs)| bs)
                    .map(|(d, _)| d.grid_total().as_kilowatt_hours())
                    .sum();
                prop_assert!(
                    (total - target.as_kilowatt_hours()).abs() <= 2e-11,
                    "total draw {total} missed target {} at p*={p_star}",
                    target.as_kilowatt_hours()
                );
            }
        }
    }
}
