//! Golden gate for the staged slot driver.
//!
//! The battery covers the clean seed scenarios, every fault scenario under
//! both degradation policies, the chaos preset, the policy axes (both S1
//! schedulers, one-hop relaying, the grid-only stage), the unpruned city
//! with and without faults, Markov grids and energy starvation, plus a
//! fixed grid of 48 controller configurations on a small two-BS relay
//! fixture. Each run is fingerprinted: every `SlotReport` is folded into an
//! FNV-1a hash of its `Debug` form (shortest-roundtrip `f64`s, so equal
//! hashes mean bit-equal decisions), routed/shed/event counts ride along
//! in plain text so a divergence names what moved, and a strict run that
//! aborts records its reports up to the abort plus the error. A final
//! line totals how often each rung of the degradation ladder fired across
//! the battery; every rung must fire at least once.
//!
//! The fingerprints were recorded while the frozen pre-pipeline
//! controller still existed: every run was stepped in lockstep with it,
//! with identical reports, final metrics and watchdog verdicts asserted.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! GREENCELL_BLESS=1 cargo test -p greencell-sim --test driver_golden
//! ```

use greencell_core::{
    Controller, ControllerConfig, DegradationEvent, DegradationPolicy, EnergyConfig, EnergyPolicy,
    NodeEnergyConfig, RelayPolicy, SchedulerKind, SlotObservation, SlotReport,
};
use greencell_energy::{Battery, NodeEnergyModel, QuadraticCost};
use greencell_net::{NetworkBuilder, PathLossModel, Point};
use greencell_phy::{PhyConfig, SpectrumState};
use greencell_sim::{fnv1a_64, Architecture, FaultSpec, GridModel, Scenario, Simulator};
use greencell_units::{Bandwidth, DataRate, Energy, PacketSize, Packets, Power, TimeDelta};
use std::fmt::Debug;
use std::path::PathBuf;

const GOLDEN: &str = "golden/driver.fp";

/// How often each rung of the degradation ladder fired.
#[derive(Debug, Default)]
struct Rungs {
    shed: usize,
    grid_only_fallback: usize,
    drop_schedule: usize,
    safe_mode: usize,
    strict_abort: usize,
}

impl Rungs {
    fn count<E>(&mut self, nodes: usize, reports: &[SlotReport], end: &Result<(), E>) {
        for event in reports.iter().flat_map(|r| &r.degradation) {
            match event {
                DegradationEvent::Shed { node, .. } if *node == nodes => self.drop_schedule += 1,
                DegradationEvent::Shed { .. } => self.shed += 1,
                DegradationEvent::GridOnlyFallback => self.grid_only_fallback += 1,
                DegradationEvent::SafeMode { .. } => self.safe_mode += 1,
                other => panic!("unknown degradation event {other:?}"),
            }
        }
        self.strict_abort += usize::from(end.is_err());
    }

    fn line(&self) -> String {
        format!(
            "ladder|shed={}|grid_only_fallback={}|drop_schedule={}|safe_mode={}|strict_abort={}",
            self.shed,
            self.grid_only_fallback,
            self.drop_schedule,
            self.safe_mode,
            self.strict_abort
        )
    }
}

fn hash(value: &impl Debug) -> u64 {
    fnv1a_64(format!("{value:?}").as_bytes())
}

fn reports_line<E: Debug>(reports: &[SlotReport], end: &Result<(), E>) -> String {
    let routed: u64 = reports.iter().map(|r| r.routed.count()).sum();
    let shed: usize = reports.iter().map(|r| r.shed_transmissions).sum();
    let events: usize = reports.iter().map(|r| r.degradation.len()).sum();
    let end = match end {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("abort={e:?}"),
    };
    format!(
        "slots={}|routed={routed}|shed={shed}|events={events}|reports=0x{:016x}|{end}",
        reports.len(),
        hash(&reports)
    )
}

// ---------------------------------------------------------------------------
// Simulator battery
// ---------------------------------------------------------------------------

/// The four acceptance fault scenarios (see `chaos.rs`): seed 4243 makes
/// the bursty Markov faults demonstrably strike inside 30 slots, and
/// V = 1e4 keeps the queue equilibrium inside the horizon.
fn fault_scenarios(policy: DegradationPolicy) -> Vec<(String, Scenario)> {
    let horizon = 30;
    [
        ("bs_outage", FaultSpec::bs_outage()),
        (
            "renewable_drought",
            FaultSpec::renewable_drought(horizon / 4, horizon / 2),
        ),
        (
            "price_spike",
            FaultSpec::price_spike(horizon / 4, horizon / 2, 6.0),
        ),
        ("band_loss", FaultSpec::band_loss()),
    ]
    .into_iter()
    .map(|(label, spec)| {
        let mut s = Scenario::tiny(4243);
        s.horizon = horizon;
        s.v = 1e4;
        s.faults = Some(spec);
        s.degradation = policy;
        (format!("{label}/{policy:?}"), s)
    })
    .collect()
}

/// Energy-starved drought, like the starved city cells: no grid draw,
/// empty batteries and off-grid users. Users starve on idle demand while
/// the BSs still transmit, which drives the drop-schedule rung under the
/// graceful policy and aborts a strict run.
fn starved(policy: DegradationPolicy) -> (String, Scenario) {
    let (_, mut s) = fault_scenarios(policy).swap_remove(1);
    s.grid_limit = Energy::ZERO;
    s.initial_battery_fraction = 0.0;
    s.user_grid_probability = 0.0;
    (format!("starved_drought/{policy:?}"), s)
}

/// The faulted city cells (five fault archetypes, a Markov grid chain and
/// two energy-starved variants), unpruned so each is one dense part.
fn city_fault_cells() -> Vec<(String, Scenario)> {
    let horizon = 20;
    let mut base = Scenario::city(160, 4, Scenario::default_city_area(4), 29);
    base.horizon = horizon;
    base.gain_floor = 0.0;
    let mut out = Vec::new();
    for (label, spec) in [
        ("bs_outage", FaultSpec::bs_outage()),
        ("band_loss", FaultSpec::band_loss()),
        ("renewable_drought", FaultSpec::renewable_drought(4, 12)),
        ("price_spike", FaultSpec::price_spike(3, 9, 4.0)),
        ("chaos", FaultSpec::chaos(horizon)),
    ] {
        let mut s = base.clone();
        s.faults = Some(spec);
        out.push((format!("city_{label}"), s));
    }
    let mut markov = base.clone();
    markov.grid_model = GridModel::Markov {
        stay_on: 0.9,
        stay_off: 0.7,
    };
    out.push(("city_markov_grid".into(), markov));
    for (label, spec) in [
        ("starved_drought", FaultSpec::renewable_drought(4, 12)),
        ("starved_chaos", FaultSpec::chaos(horizon)),
    ] {
        let mut s = base.clone();
        s.faults = Some(spec);
        s.grid_limit = Energy::ZERO;
        s.initial_battery_fraction = 0.0;
        s.user_grid_probability = 0.0;
        out.push((format!("city_{label}"), s));
    }
    out
}

fn simulator_battery() -> Vec<(String, Scenario)> {
    let mut out = vec![("tiny_4242".to_string(), Scenario::tiny(4242))];
    let mut paper = Scenario::paper(7);
    paper.horizon = 40;
    out.push(("paper_7".into(), paper));
    for policy in [DegradationPolicy::Graceful, DegradationPolicy::Strict] {
        out.extend(fault_scenarios(policy));
        out.push(starved(policy));
    }
    let mut clean_strict = Scenario::tiny(4242);
    clean_strict.degradation = DegradationPolicy::Strict;
    out.push(("clean/Strict".into(), clean_strict));
    for seed in [11, 4243] {
        let mut s = Scenario::tiny(seed);
        s.horizon = 25;
        s.v = 1e4;
        s.faults = Some(FaultSpec::chaos(s.horizon));
        out.push((format!("chaos/{seed}"), s));
    }
    let mut sequential = Scenario::tiny(4242);
    sequential.scheduler = SchedulerKind::SequentialFix;
    out.push(("sequential_fix".into(), sequential));
    let mut one_hop = Scenario::tiny(4242);
    one_hop.architecture = Architecture::OneHopRenewable;
    out.push(("one_hop".into(), one_hop));
    let mut grid_only = Scenario::tiny(4242);
    grid_only.energy_policy = EnergyPolicy::GridOnly;
    out.push(("grid_only".into(), grid_only));
    let mut city = Scenario::city(60, 2, Scenario::default_city_area(2), 9);
    city.gain_floor = 0.0; // cutoff = ∞: hotspots + diurnal stay, pruning off
    city.horizon = 25;
    out.push(("city_unpruned".into(), city));
    out.extend(city_fault_cells());
    // V = 0: pure stability pricing, where S4's price bracket starts at 0.
    let mut v_zero = Scenario::paper(42);
    v_zero.horizon = 30;
    v_zero.v = 0.0;
    out.push(("paper_v_zero".into(), v_zero));
    out
}

/// Steps `scenario` to its horizon (or a strict abort) through the driver
/// and fingerprints the run.
fn simulator_line(label: &str, scenario: &Scenario, rungs: &mut Rungs) -> String {
    let mut sim = Simulator::new(scenario).expect("scenario builds");
    let mut reports = Vec::with_capacity(scenario.horizon);
    let mut end = Ok(());
    while reports.len() < scenario.horizon {
        match sim.step_with_report() {
            Ok(report) => reports.push(report),
            Err(e) => {
                end = Err(e);
                break;
            }
        }
    }
    rungs.count(sim.network().topology().len(), &reports, &end);
    format!(
        "{label}|metrics=0x{:016x}|watchdog=0x{:016x}|{}",
        hash(sim.metrics()),
        hash(&sim.watchdog().report()),
        reports_line(&reports, &end)
    )
}

// ---------------------------------------------------------------------------
// Controller configuration grid
// ---------------------------------------------------------------------------

/// Small two-BS relay fixture: 2 BS + 6 users on a ring, 3 sessions.
fn build_controller(config: ControllerConfig, knobs: Knobs) -> Controller {
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
    let nodes = net
        .topology()
        .nodes()
        .iter()
        .map(|nd| {
            let is_bs = nd.kind().is_base_station();
            let kwh = Energy::from_kilowatt_hours;
            let g = knobs.grid_limit_kwh;
            NodeEnergyConfig {
                battery: Battery::new(kwh(if is_bs { 1.0 } else { 0.5 }), kwh(0.1), kwh(0.1)),
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
                grid_limit: kwh(g),
            }
        })
        .collect();
    let energy = EnergyConfig {
        nodes,
        cost: QuadraticCost::paper_default(),
    };
    Controller::new(net, PhyConfig::new(1.0, 1e-20), energy, config).expect("controller builds")
}

/// One continuous setting of the grid: V, λ, harvest, demand, grid limit
/// and disconnect mask, each at its low, middle or high level.
#[derive(Debug, Clone, Copy)]
struct Knobs {
    v: f64,
    lambda: f64,
    renewable_joules: f64,
    demand: u64,
    grid_limit_kwh: f64,
    disconnect_mask: u32,
    /// An overflowing tariff and every node unavailable; see
    /// [`tariff_overflow_case`].
    tariff_overflow: bool,
}

impl Knobs {
    /// Setting `k ∈ {0, 1, 2}`: knob `j` sits at level `(k + j) mod 3`, so
    /// the three settings together put every knob at every level.
    fn setting(k: usize) -> Self {
        let level = |j: usize| (k + j) % 3;
        Self {
            v: [1e3, 3e4, 1e6][level(0)],
            lambda: [0.01, 0.2, 0.5][level(1)],
            renewable_joules: [0.0, 200.0, 400.0][level(2)],
            demand: [0, 600, 1200][level(3)],
            grid_limit_kwh: [0.01, 0.1, 0.2][level(4)],
            disconnect_mask: [0, 0b10_1010, 0b11_1111][level(5)],
            tariff_overflow: false,
        }
    }
}

fn grid_config(
    knobs: Knobs,
    scheduler: SchedulerKind,
    relay: RelayPolicy,
    energy_policy: EnergyPolicy,
    degradation: DegradationPolicy,
) -> ControllerConfig {
    ControllerConfig {
        v: knobs.v,
        lambda: knobs.lambda,
        k_max: Packets::new(1000),
        packet_size: PacketSize::from_bits(10_000),
        slot: TimeDelta::from_minutes(1.0),
        scheduler,
        relay,
        energy_policy,
        w_max: Bandwidth::from_megahertz(2.0),
        degradation,
        bs_sleep: None,
        energy_coop: None,
    }
}

/// The grid-only fallback rung catches *internal* marginal-price failures:
/// the two solvers share one feasibility test, so no energy shortage
/// reaches it. A 10³⁰⁰ tariff multiplier on a 10⁷ kWh grid limit makes
/// `V·f'(·)` at the base stations' largest draw overflow, so the
/// marginal-price solver has no finite price bracket and returns
/// `PriceOverflow` on every slot. Every node is unavailable, so the
/// schedule is empty, the shed rung has nothing to drop, and only the
/// grid-only rung (which never searches a price) resolves the slot.
fn tariff_overflow_case() -> (String, ControllerConfig, Knobs) {
    let knobs = Knobs {
        v: 1e3,
        lambda: 0.2,
        renewable_joules: 0.0,
        demand: 0,
        grid_limit_kwh: 1e7,
        disconnect_mask: 0,
        tariff_overflow: true,
    };
    let config = grid_config(
        knobs,
        SchedulerKind::Greedy,
        RelayPolicy::MultiHop,
        EnergyPolicy::MarginalPrice,
        DegradationPolicy::Graceful,
    );
    ("tariff_overflow/Graceful".into(), config, knobs)
}

/// Every `(scheduler, relay, energy, degradation)` combination at three
/// continuous settings: 48 cases.
fn controller_grid() -> Vec<(String, ControllerConfig, Knobs)> {
    let mut out = Vec::new();
    for scheduler in [SchedulerKind::Greedy, SchedulerKind::SequentialFix] {
        for relay in [RelayPolicy::MultiHop, RelayPolicy::OneHop] {
            for energy_policy in [EnergyPolicy::MarginalPrice, EnergyPolicy::GridOnly] {
                for degradation in [DegradationPolicy::Graceful, DegradationPolicy::Strict] {
                    for k in 0..3 {
                        let knobs = Knobs::setting(k);
                        let config =
                            grid_config(knobs, scheduler, relay, energy_policy, degradation);
                        let label = format!(
                            "grid/{}/{}/{}/{degradation:?}/{k}",
                            scheduler.key(),
                            relay.key(),
                            energy_policy.key()
                        );
                        out.push((label, config, knobs));
                    }
                }
            }
        }
    }
    out
}

/// A ten-slot run with deterministic per-slot variation: harvest ramps
/// down, the price ramps up, and users in the mask lose grid access on
/// odd slots.
fn controller_line(
    label: &str,
    config: ControllerConfig,
    knobs: Knobs,
    rungs: &mut Rungs,
) -> String {
    let mut controller = build_controller(config, knobs);
    let n = controller.network().topology().len();
    let sessions = controller.network().session_count();
    let mut reports = Vec::new();
    let mut end = Ok(());
    for slot in 0..10u64 {
        let harvest = knobs.renewable_joules * (10 - slot) as f64 / 10.0;
        let mut grid_connected = vec![true; n];
        if slot % 2 == 1 {
            for (i, flag) in grid_connected.iter_mut().enumerate().take(8).skip(2) {
                *flag = (knobs.disconnect_mask >> (i - 2)) & 1 == 0;
            }
        }
        let obs = SlotObservation {
            spectrum: SpectrumState::new(vec![
                Bandwidth::from_megahertz(1.0),
                Bandwidth::from_megahertz(2.0),
            ]),
            renewable: vec![Energy::from_joules(harvest); n],
            grid_connected,
            session_demand: vec![Packets::new(knobs.demand); sessions],
            price_multiplier: if knobs.tariff_overflow {
                1e300
            } else {
                1.0 + slot as f64 * 0.3
            },
            node_available: if knobs.tariff_overflow {
                vec![false; n]
            } else {
                Vec::new()
            },
        };
        match controller.step(&obs) {
            Ok(report) => reports.push(report),
            Err(e) => {
                end = Err(e);
                break;
            }
        }
    }
    rungs.count(n, &reports, &end);
    format!("{label}|{}", reports_line(&reports, &end))
}

fn fingerprint() -> String {
    let mut rungs = Rungs::default();
    let mut lines: Vec<String> = simulator_battery()
        .iter()
        .map(|(label, scenario)| simulator_line(label, scenario, &mut rungs))
        .collect();
    for (label, config, knobs) in controller_grid()
        .into_iter()
        .chain([tariff_overflow_case()])
    {
        lines.push(controller_line(&label, config, knobs, &mut rungs));
    }
    for (rung, total) in [
        ("shed", rungs.shed),
        ("grid_only_fallback", rungs.grid_only_fallback),
        ("drop_schedule", rungs.drop_schedule),
        ("safe_mode", rungs.safe_mode),
        ("strict_abort", rungs.strict_abort),
    ] {
        assert!(total > 0, "the battery never reached the {rung} rung");
    }
    lines.push(rungs.line());
    lines.join("\n") + "\n"
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(GOLDEN)
}

#[test]
fn driver_matches_the_recorded_fingerprints() {
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
