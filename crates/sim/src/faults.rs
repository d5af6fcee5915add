//! Deterministic fault injection and the strong-stability watchdog.
//!
//! A [`FaultSpec`] describes *which* failures can strike a run — base
//! stations and users dropping out under a sticky Markov on-off process,
//! licensed-spectrum bands disappearing, renewable droughts, battery
//! capacity fade and charge-path failures, grid price spikes, and
//! observation dropouts. [`FaultPlan::generate`] expands the spec into a
//! per-slot schedule up front from a dedicated RNG stream, so a plan is
//! fully determined by `(seed, spec, horizon)` and two runs of the same
//! plan — serial, parallel, or replayed — see byte-identical faults.
//!
//! The [`StabilityWatchdog`] is the other half of the robustness story: it
//! watches the total data backlog's windowed least-squares slope and the
//! fleet battery floor, flags divergence while a fault holds the network
//! down, and verifies the queues re-stabilize (slope back under threshold)
//! once the fault clears — the empirical counterpart of the paper's
//! strong-stability guarantee (Theorem 3) under disturbances the theory
//! does not model.

use greencell_stochastic::{MarkovOnOff, Rng};

/// Which nodes a Markov outage process can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutageScope {
    /// Only base stations fail (tower power loss, backhaul cut).
    #[default]
    BaseStations,
    /// Only users fail (device churn).
    Users,
    /// Any node can fail.
    All,
}

/// A sticky Markov on-off failure process (`up` is the healthy state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkovFault {
    /// `P(up → up)` per slot.
    pub stay_up: f64,
    /// `P(down → down)` per slot — outage burstiness.
    pub stay_down: f64,
}

/// A half-open window of slots `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotWindow {
    /// First affected slot.
    pub start: usize,
    /// One past the last affected slot.
    pub end: usize,
}

impl SlotWindow {
    /// Creates a window; `start <= end` is required.
    #[must_use]
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start <= end, "fault window [{start}, {end}) is inverted");
        Self { start, end }
    }

    /// Whether slot `t` falls inside the window.
    #[must_use]
    pub fn contains(&self, t: usize) -> bool {
        (self.start..self.end).contains(&t)
    }
}

/// A grid price spike: the tariff is multiplied by `multiplier` inside the
/// window (on top of any scenario-level time-of-use pricing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceSpike {
    /// Affected slots.
    pub window: SlotWindow,
    /// Extra price multiplier (≥ 1 for a spike).
    pub multiplier: f64,
}

/// A one-shot battery capacity fade: at `slot`, node `node`'s battery
/// capacity and charge/discharge limits shrink to `factor` of their
/// current values (cell aging, a dead pack segment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FadeEvent {
    /// The slot the fade strikes.
    pub slot: usize,
    /// The affected node index.
    pub node: usize,
    /// Capacity retention factor in `(0, 1]`.
    pub factor: f64,
}

/// Everything that can go wrong in a run. The default is fault-free.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    /// Node outages as a per-node Markov on-off process.
    pub node_outage: Option<MarkovFault>,
    /// Which nodes [`FaultSpec::node_outage`] can strike.
    pub outage_scope: OutageScope,
    /// Loss of the *random* spectrum bands as a per-band Markov process.
    /// The cellular control band (index 0) is licensed and never lost, so
    /// the network keeps a minimal control path.
    pub band_loss: Option<MarkovFault>,
    /// Renewable drought windows: harvest is zero for every node inside.
    pub droughts: Vec<SlotWindow>,
    /// Grid price spikes.
    pub price_spikes: Vec<PriceSpike>,
    /// Charge-path failure windows: no battery may charge inside (the
    /// inverter between source and storage is down; discharge still works).
    pub charge_block: Vec<SlotWindow>,
    /// One-shot battery capacity fades.
    pub battery_fade: Vec<FadeEvent>,
    /// Per-slot probability that the controller's environmental
    /// observation is lost. The simulator substitutes the conservative
    /// reading — zero renewables, users grid-disconnected — so the
    /// controller under-commits rather than over-commits.
    pub dropout_probability: f64,
}

impl FaultSpec {
    /// Bursty base-station outages (the acceptance sweep's first scenario).
    #[must_use]
    pub fn bs_outage() -> Self {
        Self {
            node_outage: Some(MarkovFault {
                stay_up: 0.9,
                stay_down: 0.6,
            }),
            outage_scope: OutageScope::BaseStations,
            ..Self::default()
        }
    }

    /// A renewable drought covering `[start, end)`.
    #[must_use]
    pub fn renewable_drought(start: usize, end: usize) -> Self {
        Self {
            droughts: vec![SlotWindow::new(start, end)],
            ..Self::default()
        }
    }

    /// A grid price spike of `multiplier` covering `[start, end)`.
    #[must_use]
    pub fn price_spike(start: usize, end: usize, multiplier: f64) -> Self {
        Self {
            price_spikes: vec![PriceSpike {
                window: SlotWindow::new(start, end),
                multiplier,
            }],
            ..Self::default()
        }
    }

    /// Bursty loss of the random spectrum bands.
    #[must_use]
    pub fn band_loss() -> Self {
        Self {
            band_loss: Some(MarkovFault {
                stay_up: 0.85,
                stay_down: 0.5,
            }),
            ..Self::default()
        }
    }

    /// Everything at once, with windows scaled to `horizon` — the chaos
    /// proptests' workload.
    #[must_use]
    pub fn chaos(horizon: usize) -> Self {
        let h = horizon.max(4);
        Self {
            node_outage: Some(MarkovFault {
                stay_up: 0.92,
                stay_down: 0.5,
            }),
            outage_scope: OutageScope::All,
            band_loss: Some(MarkovFault {
                stay_up: 0.9,
                stay_down: 0.5,
            }),
            droughts: vec![SlotWindow::new(h / 4, h / 2)],
            price_spikes: vec![PriceSpike {
                window: SlotWindow::new(h / 2, 3 * h / 4),
                multiplier: 4.0,
            }],
            charge_block: vec![SlotWindow::new(h / 3, 2 * h / 3)],
            battery_fade: vec![FadeEvent {
                slot: h / 3,
                node: 0,
                factor: 0.7,
            }],
            dropout_probability: 0.1,
        }
    }

    /// The documented CLI fault presets, in the order the usage text
    /// lists them — the single source of truth the error message below
    /// and the CLI share.
    pub const PRESETS: [&'static str; 5] =
        ["bs-outage", "drought", "price-spike", "band-loss", "chaos"];

    /// Resolves a named CLI fault preset, scaling windowed presets
    /// (drought, price spike, chaos) to `horizon`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SimError::InvalidConfig`] naming the unknown
    /// preset and enumerating the valid ones — the only five names the
    /// `--faults` flag documents.
    pub fn from_preset(name: &str, horizon: usize) -> Result<Self, crate::SimError> {
        match name {
            "bs-outage" => Ok(Self::bs_outage()),
            "drought" => Ok(Self::renewable_drought(horizon / 4, horizon / 2)),
            "price-spike" => Ok(Self::price_spike(horizon / 4, horizon / 2, 6.0)),
            "band-loss" => Ok(Self::band_loss()),
            "chaos" => Ok(Self::chaos(horizon)),
            other => Err(crate::SimError::InvalidConfig {
                detail: format!(
                    "unknown fault preset: {other}; valid presets: {}",
                    Self::PRESETS.join(", ")
                ),
            }),
        }
    }
}

/// The faults striking one slot (all fields healthy by default).
#[derive(Debug, Clone, PartialEq)]
pub struct SlotFaults {
    /// Per-node outage flags (empty ⇒ every node up).
    pub node_down: Vec<bool>,
    /// Per-band loss flags (empty ⇒ every band up; index 0 never set).
    pub band_down: Vec<bool>,
    /// Renewable drought in effect.
    pub drought: bool,
    /// Extra grid price multiplier (1.0 ⇒ none).
    pub price_multiplier: f64,
    /// Charge paths blocked fleet-wide.
    pub charge_blocked: bool,
    /// Observation dropout: the controller sees the conservative reading.
    pub dropout: bool,
    /// Capacity fades striking this slot, as `(node, factor)`.
    pub fades: Vec<(usize, f64)>,
}

impl SlotFaults {
    fn healthy() -> Self {
        Self {
            node_down: Vec::new(),
            band_down: Vec::new(),
            drought: false,
            price_multiplier: 1.0,
            charge_blocked: false,
            dropout: false,
            fades: Vec::new(),
        }
    }

    /// Whether anything is wrong this slot.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.node_down.iter().any(|&d| d)
            || self.band_down.iter().any(|&d| d)
            || self.drought
            || self.price_multiplier != 1.0
            || self.charge_blocked
            || self.dropout
            || !self.fades.is_empty()
    }
}

/// A fully expanded, replayable per-slot fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    slots: Vec<SlotFaults>,
}

impl FaultPlan {
    /// Expands `spec` over `horizon` slots, drawing every stochastic fault
    /// from `rng` up front. `is_bs[i]` classifies node `i` (for
    /// [`OutageScope`]); `bands` is the total band count including the
    /// cellular band at index 0.
    ///
    /// # Panics
    ///
    /// Panics if a Markov probability is outside `[0, 1]`, a fade factor
    /// is outside `(0, 1]`, a fade names a node `>= is_bs.len()`, or the
    /// dropout probability is outside `[0, 1]`.
    #[must_use]
    pub fn generate(
        spec: &FaultSpec,
        is_bs: &[bool],
        bands: usize,
        horizon: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&spec.dropout_probability),
            "dropout probability {} outside [0, 1]",
            spec.dropout_probability
        );
        for f in &spec.battery_fade {
            assert!(
                f.factor > 0.0 && f.factor <= 1.0,
                "fade factor {} outside (0, 1]",
                f.factor
            );
            assert!(
                f.node < is_bs.len(),
                "fade names node {} but the network has {}",
                f.node,
                is_bs.len()
            );
        }
        // Stream discipline inside the plan: node chains first (node
        // order), then band chains (band order), then the dropout stream —
        // each from its own split, so adding one fault class never
        // perturbs another's draws.
        let mut node_chains: Vec<Option<MarkovOnOff>> = match spec.node_outage {
            None => vec![None; is_bs.len()],
            Some(m) => is_bs
                .iter()
                .map(|&bs| {
                    let in_scope = match spec.outage_scope {
                        OutageScope::BaseStations => bs,
                        OutageScope::Users => !bs,
                        OutageScope::All => true,
                    };
                    let chain = rng.split();
                    in_scope.then(|| {
                        MarkovOnOff::new(m.stay_up, m.stay_down, true, chain)
                            .expect("outage probability outside [0, 1]")
                    })
                })
                .collect(),
        };
        let mut band_chains: Vec<Option<MarkovOnOff>> = match spec.band_loss {
            None => vec![None; bands],
            Some(m) => (0..bands)
                .map(|b| {
                    let chain = rng.split();
                    // Band 0 is the licensed cellular band — never lost.
                    (b > 0).then(|| {
                        MarkovOnOff::new(m.stay_up, m.stay_down, true, chain)
                            .expect("band-loss probability outside [0, 1]")
                    })
                })
                .collect(),
        };
        let mut dropout_rng = rng.split();

        let slots = (0..horizon)
            .map(|t| {
                let mut f = SlotFaults::healthy();
                if spec.node_outage.is_some() {
                    f.node_down = node_chains
                        .iter_mut()
                        .map(|c| c.as_mut().is_some_and(|c| !c.observe()))
                        .collect();
                }
                if spec.band_loss.is_some() {
                    f.band_down = band_chains
                        .iter_mut()
                        .map(|c| c.as_mut().is_some_and(|c| !c.observe()))
                        .collect();
                }
                f.drought = spec.droughts.iter().any(|w| w.contains(t));
                for spike in &spec.price_spikes {
                    if spike.window.contains(t) {
                        f.price_multiplier *= spike.multiplier;
                    }
                }
                f.charge_blocked = spec.charge_block.iter().any(|w| w.contains(t));
                if spec.dropout_probability > 0.0 {
                    f.dropout = dropout_rng.chance(spec.dropout_probability);
                }
                f.fades = spec
                    .battery_fade
                    .iter()
                    .filter(|e| e.slot == t)
                    .map(|e| (e.node, e.factor))
                    .collect();
                f
            })
            .collect();
        Self { slots }
    }

    /// The faults at slot `t`, or `None` past the plan's horizon.
    #[must_use]
    pub fn slot(&self, t: usize) -> Option<&SlotFaults> {
        self.slots.get(t)
    }

    /// How many slots carry at least one active fault.
    #[must_use]
    pub fn degraded_slots(&self) -> usize {
        self.slots.iter().filter(|f| f.is_degraded()).count()
    }
}

/// Summary of a [`StabilityWatchdog`]'s verdict over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogReport {
    /// Slots observed.
    pub slots: usize,
    /// Least-squares backlog slope (packets/slot) over the trailing window.
    pub trailing_slope: f64,
    /// Peak total backlog seen (packets).
    pub peak_backlog: f64,
    /// Final total backlog (packets).
    pub final_backlog: f64,
    /// Minimum fleet-wide battery level seen (kWh).
    pub battery_floor_kwh: f64,
    /// Slots whose windowed slope exceeded the divergence threshold.
    pub divergent_slots: usize,
    /// `true` iff the trailing slope is back under the threshold — the
    /// queues are bounded (again) at the end of the run.
    pub stable: bool,
}

/// The complete evolving state of a [`StabilityWatchdog`] — captured by
/// [`StabilityWatchdog::export_state`], replayed by
/// [`StabilityWatchdog::import_state`]. The window size and threshold are
/// construction facts and deliberately absent.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogState {
    /// The trailing backlog samples, oldest first (at most the window).
    pub tail: Vec<f64>,
    /// Total slots recorded over the run so far.
    pub slots: usize,
    /// Running peak backlog (packets; 0 before any sample).
    pub peak_backlog: f64,
    /// Running fleet-battery floor (kWh; `+∞` before any sample).
    pub battery_floor_kwh: f64,
    /// Slots whose windowed slope exceeded the divergence threshold.
    pub divergent_slots: usize,
}

/// Watches a run's total data backlog for divergence and verifies
/// recovery after transient faults.
///
/// Strong stability means the time-averaged backlog stays bounded; its
/// per-run shadow is a windowed least-squares slope that returns to ≈ 0
/// once the admission valve and the degradation ladder have absorbed a
/// disturbance. A slope persistently above the threshold flags divergence.
///
/// Memory is bounded: only the trailing window of samples is kept (the
/// slope, peak, floor, and divergence count are all computable from the
/// tail plus O(1) running aggregates), so the watchdog — and any snapshot
/// of it — stays O(window) no matter how long the run goes.
#[derive(Debug, Clone, PartialEq)]
pub struct StabilityWatchdog {
    window: usize,
    slope_threshold: f64,
    /// The trailing `min(window, slots)` backlog samples, oldest first —
    /// the only part of the history [`StabilityWatchdog::trailing_slope`]
    /// reads, so memory stays bounded over arbitrarily long runs (the
    /// long-running serve mode's requirement) and snapshots stay O(window).
    tail: std::collections::VecDeque<f64>,
    /// Total samples recorded (the full-history length the report quotes).
    slots: usize,
    /// Running peak backlog, folded incrementally from 0.
    peak_backlog: f64,
    battery_floor_kwh: f64,
    divergent_slots: usize,
}

impl StabilityWatchdog {
    /// Creates a watchdog with a trailing `window` (≥ 2 slots) and a
    /// divergence threshold in packets/slot (> 0).
    #[must_use]
    pub fn new(window: usize, slope_threshold: f64) -> Self {
        assert!(window >= 2, "watchdog window must cover at least 2 slots");
        assert!(
            slope_threshold > 0.0,
            "divergence threshold must be positive"
        );
        Self {
            window,
            slope_threshold,
            tail: std::collections::VecDeque::with_capacity(window),
            slots: 0,
            peak_backlog: 0.0,
            battery_floor_kwh: f64::INFINITY,
            divergent_slots: 0,
        }
    }

    /// A watchdog scaled to a scenario's load: the trailing window is
    /// **16 slots**, and the divergence threshold sits at 5% of the
    /// nominal per-slot demand (at least 1 packet/slot).
    ///
    /// Divergence uses a strict comparison — a trailing slope *exactly at*
    /// the threshold still counts as stable; only slopes strictly above it
    /// flag divergence.
    #[must_use]
    pub fn for_demand(total_demand_packets_per_slot: f64) -> Self {
        Self::new(16, (0.05 * total_demand_packets_per_slot).max(1.0))
    }

    /// Records one slot's total backlog (packets) and fleet battery level
    /// (kWh).
    pub fn record(&mut self, total_backlog: f64, total_battery_kwh: f64) {
        if self.tail.len() == self.window {
            self.tail.pop_front();
        }
        self.tail.push_back(total_backlog);
        self.slots += 1;
        self.peak_backlog = self.peak_backlog.max(total_backlog);
        self.battery_floor_kwh = self.battery_floor_kwh.min(total_battery_kwh);
        if self.slots >= self.window && self.trailing_slope() > self.slope_threshold {
            self.divergent_slots += 1;
        }
    }

    /// The least-squares backlog slope over the trailing window
    /// (packets/slot); 0 with fewer than 2 samples.
    #[must_use]
    pub fn trailing_slope(&self) -> f64 {
        let tail_len = self.tail.len();
        if tail_len < 2 {
            return 0.0;
        }
        // Ordinary least squares on (t, backlog): slope = cov / var.
        let n = tail_len as f64;
        let t_mean = (n - 1.0) / 2.0;
        let y_mean = self.tail.iter().sum::<f64>() / n;
        let mut cov = 0.0;
        let mut var = 0.0;
        for (t, &y) in self.tail.iter().enumerate() {
            let dt = t as f64 - t_mean;
            cov += dt * (y - y_mean);
            var += dt * dt;
        }
        cov / var
    }

    /// Whether the watchdog currently flags divergence.
    #[must_use]
    pub fn is_divergent(&self) -> bool {
        self.slots >= self.window && self.trailing_slope() > self.slope_threshold
    }

    /// The divergence threshold (packets/slot).
    #[must_use]
    pub fn slope_threshold(&self) -> f64 {
        self.slope_threshold
    }

    /// The trailing window length (slots).
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Captures the evolving state (tail samples, counters, running
    /// extremes) as a [`WatchdogState`] — O(window) regardless of how long
    /// the run has been going.
    #[must_use]
    pub fn export_state(&self) -> WatchdogState {
        WatchdogState {
            tail: self.tail.iter().copied().collect(),
            slots: self.slots,
            peak_backlog: self.peak_backlog,
            battery_floor_kwh: self.battery_floor_kwh,
            divergent_slots: self.divergent_slots,
        }
    }

    /// Overwrites the evolving state from a captured [`WatchdogState`].
    ///
    /// # Panics
    ///
    /// Panics if the state is internally inconsistent with this watchdog's
    /// window (more tail samples than the window holds, or a tail shorter
    /// than `min(window, slots)`).
    pub fn import_state(&mut self, state: &WatchdogState) {
        assert!(
            state.tail.len() <= self.window,
            "tail exceeds the watchdog window"
        );
        assert_eq!(
            state.tail.len(),
            state.slots.min(self.window),
            "tail must hold the trailing min(window, slots) samples"
        );
        self.tail = state.tail.iter().copied().collect();
        self.slots = state.slots;
        self.peak_backlog = state.peak_backlog;
        self.battery_floor_kwh = state.battery_floor_kwh;
        self.divergent_slots = state.divergent_slots;
    }

    /// The end-of-run verdict.
    #[must_use]
    pub fn report(&self) -> WatchdogReport {
        WatchdogReport {
            slots: self.slots,
            trailing_slope: self.trailing_slope(),
            peak_backlog: self.peak_backlog,
            final_backlog: self.tail.back().copied().unwrap_or(0.0),
            battery_floor_kwh: if self.battery_floor_kwh.is_finite() {
                self.battery_floor_kwh
            } else {
                0.0
            },
            divergent_slots: self.divergent_slots,
            stable: !self.is_divergent(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: &FaultSpec, seed: u64, horizon: usize) -> FaultPlan {
        let mut rng = Rng::seed_from(seed);
        FaultPlan::generate(spec, &[true, false, false], 3, horizon, &mut rng)
    }

    #[test]
    fn noop_spec_yields_clean_plan() {
        let p = plan(&FaultSpec::default(), 1, 50);
        assert_eq!(p.degraded_slots(), 0);
        assert!(!p.slot(0).unwrap().is_degraded());
        assert!(p.slot(49).is_some());
        assert!(p.slot(50).is_none());
    }

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let spec = FaultSpec::chaos(40);
        assert_eq!(plan(&spec, 7, 40), plan(&spec, 7, 40));
        // The chaos spec injects stochastic faults, so a different seed
        // almost surely produces a different plan.
        assert_ne!(plan(&spec, 7, 40), plan(&spec, 8, 40));
    }

    #[test]
    fn bs_outage_spares_users_and_band_loss_spares_cellular() {
        let p = plan(&FaultSpec::bs_outage(), 3, 200);
        let mut bs_down = 0;
        for t in 0..200 {
            let f = p.slot(t).unwrap();
            if !f.node_down.is_empty() {
                assert!(!f.node_down[1] && !f.node_down[2], "users must stay up");
                bs_down += usize::from(f.node_down[0]);
            }
        }
        assert!(bs_down > 0, "a 200-slot bursty outage should strike");

        let p = plan(&FaultSpec::band_loss(), 3, 200);
        let mut lost = 0;
        for t in 0..200 {
            let f = p.slot(t).unwrap();
            if !f.band_down.is_empty() {
                assert!(!f.band_down[0], "cellular band must never be lost");
                lost += f.band_down.iter().filter(|&&d| d).count();
            }
        }
        assert!(lost > 0, "random bands should drop out");
    }

    #[test]
    fn windows_and_fades_land_on_their_slots() {
        let mut spec = FaultSpec::renewable_drought(5, 8);
        spec.price_spikes = vec![PriceSpike {
            window: SlotWindow::new(2, 4),
            multiplier: 3.0,
        }];
        spec.charge_block = vec![SlotWindow::new(6, 7)];
        spec.battery_fade = vec![FadeEvent {
            slot: 9,
            node: 2,
            factor: 0.5,
        }];
        let p = plan(&spec, 1, 12);
        assert!(p.slot(5).unwrap().drought && p.slot(7).unwrap().drought);
        assert!(!p.slot(4).unwrap().drought && !p.slot(8).unwrap().drought);
        assert_eq!(p.slot(3).unwrap().price_multiplier, 3.0);
        assert_eq!(p.slot(4).unwrap().price_multiplier, 1.0);
        assert!(p.slot(6).unwrap().charge_blocked);
        assert!(!p.slot(7).unwrap().charge_blocked);
        assert_eq!(p.slot(9).unwrap().fades, vec![(2, 0.5)]);
        assert!(p.slot(10).unwrap().fades.is_empty());
        assert_eq!(p.degraded_slots(), 6); // {2,3} spike, {5,6,7} drought (6 also blocked), {9} fade
    }

    #[test]
    #[should_panic(expected = "fade factor")]
    fn invalid_fade_factor_rejected() {
        let spec = FaultSpec {
            battery_fade: vec![FadeEvent {
                slot: 0,
                node: 0,
                factor: 1.5,
            }],
            ..FaultSpec::default()
        };
        let _ = plan(&spec, 1, 4);
    }

    #[test]
    fn presets_resolve_and_windows_scale_to_the_horizon() {
        assert_eq!(
            FaultSpec::from_preset("bs-outage", 40).unwrap(),
            FaultSpec::bs_outage()
        );
        assert_eq!(
            FaultSpec::from_preset("drought", 40).unwrap().droughts,
            vec![SlotWindow::new(10, 20)]
        );
        assert_eq!(
            FaultSpec::from_preset("price-spike", 40)
                .unwrap()
                .price_spikes,
            vec![PriceSpike {
                window: SlotWindow::new(10, 20),
                multiplier: 6.0,
            }]
        );
        assert_eq!(
            FaultSpec::from_preset("band-loss", 40).unwrap(),
            FaultSpec::band_loss()
        );
        assert_eq!(
            FaultSpec::from_preset("chaos", 40).unwrap(),
            FaultSpec::chaos(40)
        );
    }

    #[test]
    fn misspelled_preset_is_a_typed_config_error_naming_the_valid_set() {
        match FaultSpec::from_preset("draught", 40) {
            Err(crate::SimError::InvalidConfig { detail }) => {
                assert!(detail.contains("unknown fault preset: draught"), "{detail}");
                for valid in FaultSpec::PRESETS {
                    assert!(detail.contains(valid), "{detail} must list {valid}");
                }
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_flags_divergence_and_recovery() {
        let mut w = StabilityWatchdog::new(8, 5.0);
        // Plateau: stable.
        for _ in 0..20 {
            w.record(100.0, 1.0);
        }
        assert!(!w.is_divergent());
        assert_eq!(w.report().divergent_slots, 0);
        // Sustained growth at 50 packets/slot: divergent.
        let mut backlog = 100.0;
        for _ in 0..20 {
            backlog += 50.0;
            w.record(backlog, 0.4);
        }
        assert!(w.is_divergent());
        let mid = w.report();
        assert!(mid.divergent_slots > 0);
        assert!(!mid.stable);
        // Drain back down and hold: recovered.
        for _ in 0..30 {
            backlog = (backlog - 80.0).max(50.0);
            w.record(backlog, 0.9);
        }
        let end = w.report();
        assert!(end.stable, "watchdog must report recovery after drain");
        assert!((end.battery_floor_kwh - 0.4).abs() < 1e-12);
        assert_eq!(end.peak_backlog, 1100.0);
    }

    #[test]
    fn watchdog_constant_backlog_has_zero_slope_and_stays_stable() {
        // A saturated-but-flat queue is the textbook strongly-stable case:
        // the OLS slope of a constant series is exactly zero.
        let mut w = StabilityWatchdog::for_demand(100.0);
        for _ in 0..64 {
            w.record(5000.0, 1.0);
        }
        assert_eq!(w.trailing_slope(), 0.0);
        assert!(!w.is_divergent());
        let report = w.report();
        assert!(report.stable);
        assert_eq!(report.divergent_slots, 0);
    }

    #[test]
    fn watchdog_slope_exactly_at_threshold_is_stable() {
        // The divergence test is a strict `>`: growth at precisely the
        // threshold rate must not trip the watchdog. An exactly-linear
        // ramp gives an exact OLS slope, so no tolerance games here.
        let threshold = 5.0;
        let mut w = StabilityWatchdog::new(8, threshold);
        for t in 0..40 {
            w.record(threshold * t as f64, 1.0);
        }
        assert!((w.trailing_slope() - threshold).abs() < 1e-12);
        assert!(!w.is_divergent());
        let report = w.report();
        assert!(report.stable);
        assert_eq!(report.divergent_slots, 0);

        // One packet/slot faster and it must flag.
        let mut hot = StabilityWatchdog::new(8, threshold);
        for t in 0..40 {
            hot.record((threshold + 1.0) * t as f64, 1.0);
        }
        assert!(hot.is_divergent());
    }

    #[test]
    fn watchdog_slope_matches_linear_series() {
        let mut w = StabilityWatchdog::new(10, 1.0);
        for t in 0..25 {
            w.record(3.0 * t as f64, 1.0);
        }
        assert!((w.trailing_slope() - 3.0).abs() < 1e-9);
    }
}
