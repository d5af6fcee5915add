//! Experiment descriptions, with the paper's §VI configuration as the
//! canonical instance.

use crate::Architecture;
use greencell_core::{ControllerConfig, EnergyConfig, NodeEnergyConfig, SchedulerKind};

use greencell_energy::{Battery, NodeEnergyModel, QuadraticCost};
use greencell_net::{
    BandId, BandSet, Network, NetworkBuilder, NetworkError, NodeKind, PathLossModel, Point,
};
use greencell_phy::PhyConfig;
use greencell_stochastic::Rng;
use greencell_units::{Bandwidth, DataRate, Energy, PacketSize, Packets, Power, TimeDelta};

/// How the per-slot session demand `v_s(t)` is generated.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DemandModel {
    /// The paper's evaluation: the same packet count every slot.
    #[default]
    Constant,
    /// Extension: Poisson arrivals with the nominal demand as the mean —
    /// same average load, bursty slots.
    Poisson,
}

/// How user grid connectivity `ξ_i(t)` evolves.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GridModel {
    /// The paper's model: i.i.d. Bernoulli with
    /// [`Scenario::user_grid_probability`].
    #[default]
    Iid,
    /// Extension: a sticky two-state Markov chain (connectivity bursts) —
    /// `stay_on`/`stay_off` are the self-transition probabilities.
    Markov {
        /// `P(on → on)`.
        stay_on: f64,
        /// `P(off → off)`.
        stay_off: f64,
    },
}

/// How user positions are drawn inside the deployment area.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Placement {
    /// The paper's model: i.i.d. uniform over the square area.
    #[default]
    Uniform,
    /// City-scale extension: each user joins a Gaussian hotspot centred on
    /// a uniformly chosen base station with probability `fraction`, and is
    /// placed uniformly otherwise. Hotspot offsets are radially clamped to
    /// `2·sigma_m`, so `fraction = 1.0` guarantees every user sits within
    /// `2σ` of some BS — the property cluster decomposition relies on.
    Hotspots {
        /// Hotspot standard deviation in meters.
        sigma_m: f64,
        /// Probability a user belongs to a hotspot (vs uniform background).
        fraction: f64,
    },
}

/// A per-cell diurnal traffic profile (city-scale extension knob).
///
/// Cell `c` of `n` sees its nominal session demand scaled by
/// `min + (1 − min) · ½(1 + cos(2π(t/period − c/n)))` — a cosine
/// day/night cycle with per-cell phase offsets, as in the large-scale BS
/// operation literature (PAPERS.md: Che/Duan/Zhang).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalProfile {
    /// Slots per full day/night cycle.
    pub period_slots: usize,
    /// Trough load as a fraction of the nominal demand, in `[0, 1]`.
    pub min_fraction: f64,
}

impl DiurnalProfile {
    /// The demand multiplier for cell `cell` of `n_cells` at slot `t`.
    #[must_use]
    pub fn factor(&self, t: usize, cell: usize, n_cells: usize) -> f64 {
        if self.period_slots == 0 || n_cells == 0 {
            return 1.0;
        }
        let phase = t as f64 / self.period_slots as f64 - cell as f64 / n_cells as f64;
        let wave = 0.5 * (1.0 + (std::f64::consts::TAU * phase).cos());
        let min = self.min_fraction.clamp(0.0, 1.0);
        min + (1.0 - min) * wave
    }

    /// Scales a nominal packet demand by [`DiurnalProfile::factor`],
    /// rounding to the nearest whole packet.
    #[must_use]
    pub fn scale(&self, nominal: Packets, t: usize, cell: usize, n_cells: usize) -> Packets {
        let scaled = (nominal.count() as f64 * self.factor(t, cell, n_cells)).round();
        Packets::new(scaled as u64)
    }
}

/// Time-of-use electricity pricing (extension knob).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TouPricing {
    /// The paper's flat tariff: every slot costs `f(P(t))`.
    #[default]
    Flat,
    /// A periodic peak/off-peak tariff: within each period of
    /// `period_slots`, the first `peak_slots` cost
    /// `peak_multiplier · f(P)`, the rest cost `f(P)`.
    Periodic {
        /// Slots per tariff period.
        period_slots: usize,
        /// Leading slots of each period billed at the peak rate.
        peak_slots: usize,
        /// Peak price multiplier (≥ 0; > 1 for a peak surcharge).
        peak_multiplier: f64,
    },
}

impl TouPricing {
    /// The price multiplier in effect at slot `t`.
    #[must_use]
    pub fn multiplier(&self, t: usize) -> f64 {
        match *self {
            Self::Flat => 1.0,
            Self::Periodic {
                period_slots,
                peak_slots,
                peak_multiplier,
            } => {
                if period_slots == 0 {
                    return 1.0;
                }
                if t % period_slots < peak_slots.min(period_slots) {
                    peak_multiplier
                } else {
                    1.0
                }
            }
        }
    }
}

/// A complete, self-contained experiment description.
///
/// [`Scenario::paper`] reproduces §VI; every parameter the paper states is
/// taken verbatim, and every parameter the paper *omits* is set here with a
/// documented default (see the field docs marked "unspecified in the
/// paper"). Clone-and-mutate to build sweeps:
///
/// ```
/// use greencell_sim::Scenario;
///
/// let mut s = Scenario::paper(7);
/// s.v = 3e5;
/// s.horizon = 50;
/// assert_eq!(s.build_network().unwrap().topology().user_count(), 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Square deployment area side, meters (paper: 2000).
    pub area_m: f64,
    /// Base-station coordinates (paper: (500, 500) and (1500, 500)).
    pub bs_positions: Vec<(f64, f64)>,
    /// Number of uniformly placed users (paper: 20).
    pub users: usize,
    /// Fixed cellular band bandwidth in MHz (paper: 1 MHz).
    pub cellular_band_mhz: f64,
    /// Extra bands with per-slot bandwidth U[lo, hi] MHz (paper: 4 bands
    /// U[1, 2]).
    pub random_bands: Vec<(f64, f64)>,
    /// Probability a given extra band is available at a given user
    /// (*unspecified in the paper* — "a random subset"; default 0.5). The
    /// cellular band is available everywhere; BSs access all bands.
    pub user_band_probability: f64,
    /// Number of downlink sessions (*unspecified in the paper*; default 5),
    /// each destined to a distinct random user.
    pub sessions: usize,
    /// Per-session demand (paper: 100 kbps for every session).
    pub session_demand: DataRate,
    /// Optional heterogeneous per-session demands (kbps), overriding
    /// [`Scenario::session_demand`] session-by-session; shorter lists wrap
    /// around (extension knob; default `None` = the paper's uniform load).
    pub session_demands_kbps: Option<Vec<f64>>,
    /// Path-loss constant `C` (paper: 62.5).
    pub path_loss_c: f64,
    /// Path-loss exponent `γ` (paper: 4).
    pub path_loss_gamma: f64,
    /// SINR threshold `Γ`, linear (paper: 1).
    pub sinr_threshold: f64,
    /// Noise density `η` in W/Hz (paper: 10⁻²⁰).
    pub noise_density: f64,
    /// User transmit power cap (paper: 1 W).
    pub user_max_power: Power,
    /// BS transmit power cap (paper: 20 W).
    pub bs_max_power: Power,
    /// User renewable output upper bound (paper: U[0, 1] W).
    pub user_renewable_max: Power,
    /// BS renewable output upper bound (paper: U[0, 15] W).
    pub bs_renewable_max: Power,
    /// User battery charge/discharge per-slot limit (paper: 0.06 kWh).
    pub user_charge_limit: Energy,
    /// BS battery charge/discharge per-slot limit (paper: 0.1 kWh).
    pub bs_charge_limit: Energy,
    /// User battery capacity (*unspecified in the paper*; default 0.5 kWh —
    /// must satisfy constraint (13): ≥ 0.12 kWh).
    pub user_battery_capacity: Energy,
    /// BS battery capacity (*unspecified*; default 1 kWh).
    pub bs_battery_capacity: Energy,
    /// Initial battery fill fraction in [0, 1] (*unspecified*; default 0.5).
    pub initial_battery_fraction: f64,
    /// Battery charge efficiency `η ∈ (0, 1]` (extension knob; default 1 =
    /// the paper's lossless Eq. (4); real Li-ion round trips are ~0.9).
    pub battery_efficiency: f64,
    /// Per-slot grid draw limit `p^max` (paper: 0.2 kWh, all nodes).
    pub grid_limit: Energy,
    /// User grid-connectivity probability `P(ξ_i(t) = 1)` (*unspecified*;
    /// default 0.7). BSs are always connected.
    pub user_grid_probability: f64,
    /// Receive power `P^recv` (*unspecified*; default 100 mW).
    pub recv_power: Power,
    /// Fixed BS overhead power `E^const + E^idle` per slot (*unspecified*;
    /// default 5 W — small enough that traffic energy stays visible, large
    /// enough that renewables cannot always cover it).
    pub bs_overhead_power: Power,
    /// Fixed user overhead power (*unspecified*; default 0 — a mobile
    /// device's idle draw is negligible at this model's energy scale, and
    /// a positive value would let an empty-battery, grid-disconnected,
    /// becalmed user deadlock the energy model on its own idle demand).
    pub user_overhead_power: Power,
    /// Cost function coefficients `(a, b, c)` (paper: 0.8, 0.2, 0).
    pub cost: (f64, f64, f64),
    /// The Lyapunov weight `V` (paper sweeps 1×10⁵ … 10×10⁵).
    pub v: f64,
    /// Admission reward `λ` (*unspecified*; default 0.02, which puts the
    /// admission threshold `λV` at the per-queue backlog scale of
    /// Fig. 2(b) so the V-sweep separates within the 100-slot horizon).
    pub lambda: f64,
    /// Admission burst `K^max` (*unspecified*; default 1000 packets).
    pub k_max: Packets,
    /// Packet size `δ` (*unspecified*; default 1250 bytes = 10 kbit, so
    /// 100 kbps = 10 packets/s).
    pub packet_size: PacketSize,
    /// Slot duration (paper: 1 minute).
    pub slot: TimeDelta,
    /// Horizon in slots (paper: T = 100).
    pub horizon: usize,
    /// Which S1 scheduler to use (default greedy; see DESIGN.md).
    pub scheduler: SchedulerKind,
    /// Which architecture to simulate.
    pub architecture: Architecture,
    /// Whether to co-run the relaxed lower-bound controller.
    pub track_lower_bound: bool,
    /// How session demand is generated (extension knob; default constant).
    pub demand_model: DemandModel,
    /// How user grid connectivity evolves (extension knob; default i.i.d.).
    pub grid_model: GridModel,
    /// Log-normal shadowing standard deviation in dB applied per link on
    /// top of the paper's pure path loss (extension knob; default 0 = the
    /// paper's model). Typical urban values: 4–8 dB.
    pub shadowing_sigma_db: f64,
    /// How user positions are drawn (city-scale knob; default uniform =
    /// the paper's model).
    pub placement: Placement,
    /// Interference pruning floor applied to the gain matrix: gains
    /// strictly below it become exact zeros (city-scale knob; default 0 =
    /// no pruning, bit-identical to the paper's dense matrix). Use
    /// [`Scenario::interference_gain_floor`] for the largest floor that
    /// provably cannot change scheduling feasibility or raise interference
    /// above thermal noise.
    pub gain_floor: f64,
    /// Optional per-cell diurnal traffic profile (city-scale knob; default
    /// `None` = the paper's stationary demand).
    pub diurnal: Option<DiurnalProfile>,
    /// Electricity tariff (extension knob; default flat, as in the paper).
    pub pricing: TouPricing,
    /// Which S4 energy policy to run (ablation knob; default the paper's
    /// marginal-price equilibrium).
    pub energy_policy: greencell_core::EnergyPolicy,
    /// Deterministic fault injection (robustness knob; default `None` =
    /// fault-free). The plan expands from the scenario seed, so faulted
    /// runs replay bit-identically.
    pub faults: Option<crate::faults::FaultSpec>,
    /// How the controller reacts to energy-management infeasibility
    /// (default graceful: walk the shed → grid-only → drop-schedule →
    /// safe-mode fallback ladder; strict aborts after shedding).
    pub degradation: greencell_core::DegradationPolicy,
    /// Optional base-station sleeping policy (dynamic-network knob;
    /// default `None` = every BS stays awake, bit-identical to the paper
    /// controller). Enable with [`Scenario::default_sleep_policy`].
    pub bs_sleep: Option<greencell_core::SleepPolicy>,
    /// Optional inter-BS renewable-energy cooperation (dynamic-network
    /// knob; default `None` = no transfers, bit-identical to the paper
    /// controller). Enable with [`Scenario::default_coop_policy`].
    pub energy_coop: Option<greencell_core::CoopPolicy>,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
}

impl Scenario {
    /// The paper's §VI configuration.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self {
            area_m: 2000.0,
            bs_positions: vec![(500.0, 500.0), (1500.0, 500.0)],
            users: 20,
            cellular_band_mhz: 1.0,
            random_bands: vec![(1.0, 2.0); 4],
            user_band_probability: 0.5,
            sessions: 5,
            session_demand: DataRate::from_kilobits_per_second(100.0),
            session_demands_kbps: None,
            path_loss_c: 62.5,
            path_loss_gamma: 4.0,
            sinr_threshold: 1.0,
            noise_density: 1e-20,
            user_max_power: Power::from_watts(1.0),
            bs_max_power: Power::from_watts(20.0),
            user_renewable_max: Power::from_watts(1.0),
            bs_renewable_max: Power::from_watts(15.0),
            user_charge_limit: Energy::from_kilowatt_hours(0.06),
            bs_charge_limit: Energy::from_kilowatt_hours(0.1),
            user_battery_capacity: Energy::from_kilowatt_hours(0.5),
            bs_battery_capacity: Energy::from_kilowatt_hours(1.0),
            initial_battery_fraction: 0.5,
            battery_efficiency: 1.0,
            grid_limit: Energy::from_kilowatt_hours(0.2),
            user_grid_probability: 0.7,
            recv_power: Power::from_milliwatts(100.0),
            bs_overhead_power: Power::from_watts(5.0),
            user_overhead_power: Power::ZERO,
            cost: (0.8, 0.2, 0.0),
            v: 1e5,
            lambda: 0.02,
            k_max: Packets::new(1000),
            packet_size: PacketSize::from_bytes(1250),
            slot: TimeDelta::from_minutes(1.0),
            horizon: 100,
            scheduler: SchedulerKind::Greedy,
            architecture: Architecture::Proposed,
            track_lower_bound: false,
            demand_model: DemandModel::Constant,
            grid_model: GridModel::Iid,
            shadowing_sigma_db: 0.0,
            placement: Placement::Uniform,
            gain_floor: 0.0,
            diurnal: None,
            pricing: TouPricing::Flat,
            energy_policy: greencell_core::EnergyPolicy::MarginalPrice,
            faults: None,
            degradation: greencell_core::DegradationPolicy::Graceful,
            bs_sleep: None,
            energy_coop: None,
            seed,
        }
    }

    /// A small scenario (1 BS, 4 users, 2 bands, 2 sessions, 20 slots) for
    /// unit and integration tests.
    #[must_use]
    pub fn tiny(seed: u64) -> Self {
        let mut s = Self::paper(seed);
        s.area_m = 800.0;
        s.bs_positions = vec![(400.0, 400.0)];
        s.users = 4;
        s.random_bands = vec![(1.0, 2.0)];
        s.sessions = 2;
        s.horizon = 20;
        s
    }

    /// The Fig. 2(f) calibration of the paper scenario.
    ///
    /// Two documented substitutions isolate the architecture comparison
    /// (full rationale in EXPERIMENTS.md):
    ///
    /// * batteries start **full**, so the storage-filling transient —
    ///   identical across architectures by construction — does not swamp
    ///   the traffic-driven cost differences;
    /// * the noise density is raised to `3×10⁻¹⁷` W/Hz. At the paper's
    ///   `10⁻²⁰` W/Hz every transmit power is microwatts and *all*
    ///   architectures cost the same; at `3×10⁻¹⁷` the `d^γ` path-loss
    ///   scaling the paper's multi-hop narrative relies on actually moves
    ///   watts (a 2000 m one-hop link needs ~11.5 W — expensive but still
    ///   feasible under the 20 W cap, so one-hop keeps serving instead of
    ///   silently dropping traffic — while a 300 m hop needs ~6 mW).
    #[must_use]
    pub fn fig2f_calibrated(seed: u64) -> Self {
        let mut s = Self::paper(seed);
        s.initial_battery_fraction = 1.0;
        s.noise_density = 6e-17;
        s.recv_power = Power::from_milliwatts(10.0);
        s
    }

    /// Total number of bands (cellular + random).
    #[must_use]
    pub fn band_count(&self) -> usize {
        1 + self.random_bands.len()
    }

    /// A hard upper bound on any band's bandwidth (for the controller's
    /// `w_max`).
    #[must_use]
    pub fn max_bandwidth(&self) -> Bandwidth {
        let random_max = self
            .random_bands
            .iter()
            .map(|&(_, hi)| hi)
            .fold(0.0f64, f64::max);
        Bandwidth::from_megahertz(self.cellular_band_mhz.max(random_max))
    }

    /// The physical-layer configuration.
    #[must_use]
    pub fn phy(&self) -> PhyConfig {
        PhyConfig::new(self.sinr_threshold, self.noise_density)
    }

    /// Draws every random topology decision — positions, band subsets,
    /// session destinations, shadowing — **without** assembling the dense
    /// `n × n` gain matrix. Deterministic in `seed`, consuming the
    /// topology stream in exactly the order [`Scenario::build_network`]
    /// always has, so the two stay interchangeable.
    ///
    /// The layout is the city-scale entry point: `Θ(n)` in nodes, it is
    /// what the [`crate::Simulator`] decomposes into clusters before any
    /// `Θ(|cluster|²)` matrix exists.
    #[must_use]
    pub fn build_layout(&self) -> ScenarioLayout {
        let mut rng = Rng::seed_from(self.seed).split(); // topology stream
        let n_bs = self.bs_positions.len();
        let mut kinds = Vec::with_capacity(n_bs + self.users);
        let mut positions = Vec::with_capacity(n_bs + self.users);
        for &(x, y) in &self.bs_positions {
            kinds.push(NodeKind::BaseStation);
            positions.push(Point::new(x, y));
        }
        let mut hotspot_users = Vec::new();
        for u in 0..self.users {
            let p = match self.placement {
                Placement::Uniform => {
                    let x = rng.range_f64(0.0, self.area_m);
                    let y = rng.range_f64(0.0, self.area_m);
                    Point::new(x, y)
                }
                Placement::Hotspots { sigma_m, fraction } => {
                    if n_bs > 0 && rng.chance(fraction) {
                        hotspot_users.push(n_bs + u);
                        let (cx, cy) = self.bs_positions[rng.index(n_bs)];
                        // Box–Muller in polar form, radius clamped to 2σ so
                        // hotspot membership implies bounded BS distance.
                        let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
                        let u2 = rng.next_f64();
                        let r = (sigma_m * (-2.0 * u1.ln()).sqrt()).min(2.0 * sigma_m);
                        let theta = std::f64::consts::TAU * u2;
                        // Out-of-area offsets are *reflected* at the
                        // boundary rather than clamped: clamping puts an
                        // atom on the edges, and two users clamped to the
                        // same corner coincide exactly — a zero distance
                        // the path-loss model (rightly) rejects.
                        Point::new(
                            reflect_into(cx + r * theta.cos(), self.area_m),
                            reflect_into(cy + r * theta.sin(), self.area_m),
                        )
                    } else {
                        let x = rng.range_f64(0.0, self.area_m);
                        let y = rng.range_f64(0.0, self.area_m);
                        Point::new(x, y)
                    }
                }
            };
            kinds.push(NodeKind::User);
            positions.push(p);
        }
        // Cellular band (index 0) everywhere; each extra band available at
        // a user with probability `user_band_probability`. BSs keep full
        // spectrum access.
        let mut bands = vec![BandSet::all(self.band_count()); n_bs];
        for _ in 0..self.users {
            let mut set = BandSet::empty();
            set.insert(BandId::from_index(0));
            for m in 1..self.band_count() {
                if rng.chance(self.user_band_probability) {
                    set.insert(BandId::from_index(m));
                }
            }
            bands.push(set);
        }
        // Sessions to distinct random users. Under hotspot placement the
        // destination pool is the hotspot members (when any exist): with
        // `fraction = 1.0` that is everyone, and it keeps every session
        // endpoint BS-covered by construction.
        let mut dests: Vec<usize> = match self.placement {
            Placement::Hotspots { .. } if !hotspot_users.is_empty() => hotspot_users.clone(),
            _ => (n_bs..n_bs + self.users).collect(),
        };
        rng.shuffle(&mut dests);
        let mut sessions = Vec::with_capacity(self.sessions);
        for s in 0..self.sessions {
            let demand = match &self.session_demands_kbps {
                Some(rates) if !rates.is_empty() => {
                    DataRate::from_kilobits_per_second(rates[s % rates.len()])
                }
                _ => self.session_demand,
            };
            sessions.push((dests[s % dests.len()], demand));
        }
        // Optional log-normal shadowing, drawn after all other topology
        // randomness so the default (σ = 0) leaves existing streams — and
        // therefore every paper-scenario result — bit-identical.
        let mut shadowing_db = Vec::new();
        if self.shadowing_sigma_db > 0.0 {
            let n = kinds.len();
            for i in 0..n {
                for j in (i + 1)..n {
                    let u1 = rng.next_f64().max(f64::MIN_POSITIVE);
                    let u2 = rng.next_f64();
                    let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                    shadowing_db.push((i, j, self.shadowing_sigma_db * normal));
                }
            }
        }
        ScenarioLayout {
            kinds,
            positions,
            bands,
            sessions,
            shadowing_db,
        }
    }

    /// Builds the network: BSs at the configured positions, users placed
    /// per [`Scenario::placement`], per-user random band subsets, and
    /// sessions destined to distinct random users. Deterministic in
    /// `seed`. Assembles the dense gain matrix, which a partitioned
    /// [`crate::Simulator`] never does (see [`crate::scale`]).
    ///
    /// # Errors
    ///
    /// Propagates [`NetworkError`] from validation.
    pub fn build_network(&self) -> Result<Network, NetworkError> {
        self.build_layout().assemble(self)
    }

    /// The energy hardware of a single node (BS or user) — the unit the
    /// per-node [`Scenario::energy_config`] map is built from.
    #[must_use]
    pub fn node_energy_config(&self, is_bs: bool) -> NodeEnergyConfig {
        let (capacity, limit, max_power) = if is_bs {
            (
                self.bs_battery_capacity,
                self.bs_charge_limit,
                self.bs_max_power,
            )
        } else {
            (
                self.user_battery_capacity,
                self.user_charge_limit,
                self.user_max_power,
            )
        };
        let overhead = if is_bs {
            self.bs_overhead_power
        } else {
            self.user_overhead_power
        };
        let mut battery = Battery::with_efficiency(capacity, limit, limit, self.battery_efficiency);
        // Pre-charge to the configured fraction through the law so
        // the level is consistent with the efficiency model.
        let target = capacity * self.initial_battery_fraction;
        while battery.level().as_joules() + 1e-6 < target.as_joules() {
            let draw = battery
                .max_charge_now()
                .min((target - battery.level()) / self.battery_efficiency);
            if draw.as_joules() <= 1e-6 {
                break;
            }
            battery
                .apply(draw, Energy::ZERO)
                .expect("pre-charge within limits");
        }
        NodeEnergyConfig {
            battery,
            energy_model: NodeEnergyModel::new(overhead * self.slot, Energy::ZERO, self.recv_power),
            max_power,
            grid_limit: self.grid_limit,
        }
    }

    /// The per-node energy hardware for this scenario.
    #[must_use]
    pub fn energy_config(&self, net: &Network) -> EnergyConfig {
        let nodes = net.topology().nodes();
        self.energy_config_for(nodes.iter().map(|node| node.kind().is_base_station()))
    }

    /// The per-node energy hardware for nodes whose kinds are `is_bs`
    /// (base stations flagged, node order).
    pub(crate) fn energy_config_for(&self, is_bs: impl IntoIterator<Item = bool>) -> EnergyConfig {
        // Every node of a kind carries the same hardware, whose battery
        // pre-charge loop is worth running once per kind, not per node.
        let (bs, user) = (
            self.node_energy_config(true),
            self.node_energy_config(false),
        );
        EnergyConfig {
            nodes: is_bs
                .into_iter()
                .map(|is_bs| if is_bs { bs } else { user })
                .collect(),
            cost: QuadraticCost::new(self.cost.0, self.cost.1, self.cost.2),
        }
    }

    /// The narrowest bandwidth any band can present in a slot (the
    /// cellular band's fixed width or the smallest random-band lower
    /// bound).
    #[must_use]
    pub fn min_bandwidth(&self) -> Bandwidth {
        let random_min = self
            .random_bands
            .iter()
            .map(|&(lo, _)| lo)
            .fold(f64::INFINITY, f64::min);
        Bandwidth::from_megahertz(self.cellular_band_mhz.min(random_min))
    }

    /// The largest interference pruning floor that provably cannot change
    /// the physical model: `min(Γ,1)·η·W_min / p_max` over the scenario's
    /// narrowest band and largest transmit power cap (see
    /// `PhyConfig::prune_gain_floor`). Assign it to
    /// [`Scenario::gain_floor`] to enable exact-zero pruning.
    #[must_use]
    pub fn interference_gain_floor(&self) -> f64 {
        self.phy().prune_gain_floor(
            self.min_bandwidth(),
            self.bs_max_power.max(self.user_max_power),
        )
    }

    /// The interference cutoff radius implied by [`Scenario::gain_floor`]:
    /// beyond `d_cut = (C/F)^{1/γ}` meters the unshadowed gain falls below
    /// the floor and is pruned to exactly zero. `None` when pruning is
    /// disabled (`gain_floor <= 0`).
    #[must_use]
    pub fn cutoff_radius_m(&self) -> Option<f64> {
        if self.gain_floor > 0.0 {
            Some((self.path_loss_c / self.gain_floor).powf(1.0 / self.path_loss_gamma))
        } else {
            None
        }
    }

    /// The controller configuration for this scenario.
    #[must_use]
    pub fn controller_config(&self) -> ControllerConfig {
        ControllerConfig {
            v: self.v,
            lambda: self.lambda,
            k_max: self.k_max,
            packet_size: self.packet_size,
            slot: self.slot,
            scheduler: self.scheduler,
            relay: self.architecture.relay_policy(),
            energy_policy: self.energy_policy,
            w_max: self.max_bandwidth(),
            degradation: self.degradation,
            bs_sleep: self.bs_sleep,
            energy_coop: self.energy_coop,
        }
    }

    /// A conservative sleep policy scaled to this scenario's BS overhead:
    /// a BS sleeps after 3 consecutive slots below 2 packets of backlog,
    /// drops to 10 % of its overhead power while asleep, wakes (over a
    /// 2-slot ramp at full overhead) once backlog reaches 8 packets.
    #[must_use]
    pub fn default_sleep_policy(&self) -> greencell_core::SleepPolicy {
        greencell_core::SleepPolicy {
            threshold_pkts: 2.0,
            w_slots: 3,
            wake_threshold_pkts: 8.0,
            ramp_slots: 2,
            sleep_power: Power::from_watts(self.bs_overhead_power.as_watts() * 0.1),
            ramp_power: self.bs_overhead_power,
        }
    }

    /// A default inter-BS energy-cooperation policy: 70 % transfer
    /// efficiency, a typical figure for DC-bus sharing between sites.
    #[must_use]
    pub fn default_coop_policy(&self) -> greencell_core::CoopPolicy {
        greencell_core::CoopPolicy { eta_x: 0.7 }
    }

    /// Per-session packet demand per slot, `v_s(t)`.
    #[must_use]
    pub fn demand_packets_per_slot(&self) -> Packets {
        (self.session_demand * self.slot).whole_packets(self.packet_size)
    }
}

/// Folds a coordinate back into `[0, area]` by mirror reflection at the
/// boundary it crossed. Hotspot offsets are radially bounded by `2σ ≪
/// area`, so a single reflection always suffices; the trailing clamp only
/// guards degenerate configurations where it would not.
fn reflect_into(v: f64, area: f64) -> f64 {
    let folded = if v < 0.0 {
        -v
    } else if v > area {
        2.0 * area - v
    } else {
        v
    };
    folded.clamp(0.0, area)
}

/// Every random topology decision of a scenario, drawn but not yet
/// assembled into a dense [`Network`].
///
/// Node indices are dense: base stations first (in
/// [`Scenario::bs_positions`] order), then users. The layout costs `Θ(n)`
/// memory, so it is the representation city-scale paths decompose before
/// any `Θ(n²)` gain matrix is built.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioLayout {
    /// Node kinds in dense index order (BSs first).
    pub kinds: Vec<NodeKind>,
    /// Node positions in dense index order.
    pub positions: Vec<Point>,
    /// Per-node spectrum access in dense index order.
    pub bands: Vec<BandSet>,
    /// Sessions as `(destination node index, demand)`.
    pub sessions: Vec<(usize, DataRate)>,
    /// Symmetric per-link shadowing offsets in dB, `(i, j, db)` with
    /// `i < j`; empty when shadowing is disabled.
    pub shadowing_db: Vec<(usize, usize, f64)>,
}

impl ScenarioLayout {
    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` if the layout has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The index of the base station nearest to node `idx` (ties broken
    /// toward the lower index), or `None` if the layout has no BSs.
    /// The paper has no cell association — this is the "cell" used by
    /// diurnal traffic profiles only.
    #[must_use]
    pub fn nearest_bs(&self, idx: usize) -> Option<usize> {
        let p = self.positions[idx];
        self.kinds
            .iter()
            .enumerate()
            .filter(|(_, k)| k.is_base_station())
            .min_by(|&(a, _), &(b, _)| {
                let da = self.positions[a].distance_to(p).as_meters();
                let db = self.positions[b].distance_to(p).as_meters();
                da.total_cmp(&db).then(a.cmp(&b))
            })
            .map(|(i, _)| i)
    }

    /// The diurnal "cell" (nearest-BS index) of every session destination,
    /// in session order. Empty sessions map to an empty vec; a BS-less
    /// layout maps every session to cell 0.
    #[must_use]
    pub fn session_cells(&self) -> Vec<usize> {
        self.sessions
            .iter()
            .map(|&(dest, _)| self.nearest_bs(dest).unwrap_or(0))
            .collect()
    }

    /// Assembles the dense [`Network`] this layout describes, applying
    /// `scenario`'s gain floor. [`Scenario::build_network`] is exactly
    /// `build_layout().assemble(&scenario)`.
    ///
    /// # Errors
    ///
    /// Propagates [`NetworkError`] from validation.
    pub fn assemble(&self, scenario: &Scenario) -> Result<Network, NetworkError> {
        let mut b = NetworkBuilder::new(
            PathLossModel::new(scenario.path_loss_c, scenario.path_loss_gamma),
            scenario.band_count(),
        );
        for (kind, &pos) in self.kinds.iter().zip(&self.positions) {
            match kind {
                NodeKind::BaseStation => b.add_base_station(pos),
                NodeKind::User => b.add_user(pos),
            };
        }
        for (i, &bands) in self.bands.iter().enumerate() {
            b.set_bands(greencell_net::NodeId::from_index(i), bands);
        }
        for &(dest, demand) in &self.sessions {
            b.add_session(greencell_net::NodeId::from_index(dest), demand);
        }
        for &(i, j, db) in &self.shadowing_db {
            b.set_shadowing_db(
                greencell_net::NodeId::from_index(i),
                greencell_net::NodeId::from_index(j),
                db,
            );
        }
        if scenario.gain_floor > 0.0 {
            b.set_gain_floor(scenario.gain_floor);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_match_section_vi() {
        let s = Scenario::paper(1);
        assert_eq!(s.area_m, 2000.0);
        assert_eq!(s.bs_positions, vec![(500.0, 500.0), (1500.0, 500.0)]);
        assert_eq!(s.users, 20);
        assert_eq!(s.band_count(), 5);
        assert_eq!(s.session_demand.as_bits_per_second(), 100_000.0);
        assert_eq!(s.path_loss_c, 62.5);
        assert_eq!(s.path_loss_gamma, 4.0);
        assert_eq!(s.sinr_threshold, 1.0);
        assert_eq!(s.noise_density, 1e-20);
        assert_eq!(s.user_max_power.as_watts(), 1.0);
        assert_eq!(s.bs_max_power.as_watts(), 20.0);
        assert_eq!(s.user_renewable_max.as_watts(), 1.0);
        assert_eq!(s.bs_renewable_max.as_watts(), 15.0);
        assert_eq!(s.user_charge_limit.as_kilowatt_hours(), 0.06);
        assert_eq!(s.bs_charge_limit.as_kilowatt_hours(), 0.1);
        assert_eq!(s.grid_limit.as_kilowatt_hours(), 0.2);
        assert_eq!(s.cost, (0.8, 0.2, 0.0));
        assert_eq!(s.slot.as_seconds(), 60.0);
        assert_eq!(s.horizon, 100);
        // 100 kbps × 60 s / 10⁴ bits = 600 packets per slot.
        assert_eq!(s.demand_packets_per_slot().count(), 600);
    }

    #[test]
    fn network_build_is_deterministic() {
        let s = Scenario::paper(9);
        let a = s.build_network().unwrap();
        let b = s.build_network().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.topology().user_count(), 20);
        assert_eq!(a.topology().base_station_count(), 2);
        assert_eq!(a.session_count(), 5);
    }

    #[test]
    fn different_seeds_place_users_differently() {
        let a = Scenario::paper(1).build_network().unwrap();
        let b = Scenario::paper(2).build_network().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn users_stay_inside_the_area() {
        let s = Scenario::paper(3);
        let net = s.build_network().unwrap();
        for u in net.topology().users() {
            let p = net.topology().node(u).position();
            assert!((0.0..=2000.0).contains(&p.x()));
            assert!((0.0..=2000.0).contains(&p.y()));
        }
    }

    #[test]
    fn cellular_band_available_everywhere() {
        let s = Scenario::paper(4);
        let net = s.build_network().unwrap();
        for (i, j) in net.topology().ordered_pairs() {
            assert!(net.link_bands(i, j).contains(BandId::from_index(0)));
        }
    }

    #[test]
    fn bs_hardware_differs_from_users() {
        let s = Scenario::paper(5);
        let net = s.build_network().unwrap();
        let cfg = s.energy_config(&net);
        let bs = net.topology().base_stations().next().unwrap();
        let user = net.topology().users().next().unwrap();
        assert_eq!(cfg.nodes[bs.index()].max_power.as_watts(), 20.0);
        assert_eq!(cfg.nodes[user.index()].max_power.as_watts(), 1.0);
        assert_eq!(
            cfg.nodes[bs.index()]
                .battery
                .charge_limit()
                .as_kilowatt_hours(),
            0.1
        );
    }

    #[test]
    fn controller_config_tracks_architecture() {
        let mut s = Scenario::paper(6);
        s.architecture = Architecture::OneHopRenewable;
        assert_eq!(
            s.controller_config().relay,
            greencell_core::RelayPolicy::OneHop
        );
    }

    #[test]
    fn tiny_is_small() {
        let s = Scenario::tiny(7);
        let net = s.build_network().unwrap();
        assert_eq!(net.topology().len(), 5);
        assert_eq!(net.session_count(), 2);
    }
}
