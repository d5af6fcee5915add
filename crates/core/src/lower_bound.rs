//! The relaxed controller `P̄3` and Theorem 5's lower bound.
//!
//! Theorem 5: `ψ*_P1 ≥ ψ*_P̄3 − B/V`, where `P̄3` is the per-slot
//! drift-plus-penalty problem with the integrality and SINR couplings
//! relaxed. [`RelaxedController`] runs that relaxed system online:
//!
//! * S1 relaxed — activations `α ∈ [0, 1]` chosen by an LP with only the
//!   single-radio rows (22) (the SINR constraint (24) is dropped; the
//!   relaxed links transmit at their isolated noise-limited minimum
//!   power). Fractional activations yield fractional link capacities.
//! * S2 — already continuous; the exact rule is reused.
//! * S3 relaxed — same per-link winner-take-all structure over fractional
//!   capacities and real-valued queues.
//! * S4 — the marginal-price solver is exact for the relaxed problem too
//!   (the mutual-exclusion constraint is slack at any optimum).
//!
//! Every constraint of the true system is weakly relaxed, so the relaxed
//! system's achieved time-averaged cost estimates `ψ*_P̄3` from below the
//! true controller's, and `ψ*_P̄3 − B/V` lower-bounds the offline optimum.

use crate::pipeline::{self, RelayStage};
use crate::{dpp, ControllerConfig, EnergyConfig, EnergyManagementInput, SlotObservation};
use greencell_energy::Battery;
use greencell_lp::{LinearProgram, Relation};
use greencell_net::{Network, NodeId};
use greencell_phy::{potential_capacity, PhyConfig};
use greencell_stochastic::TimeAverage;
use greencell_units::Energy;

/// Running estimate of Theorem 5's lower bound `ψ*_P̄3 − B/V`.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerBoundSeries {
    avg_cost: TimeAverage,
    penalty_b: f64,
    v: f64,
}

impl LowerBoundSeries {
    /// Creates an empty series for gap constant `B` and weight `V`.
    ///
    /// # Panics
    ///
    /// Panics if `v <= 0`.
    #[must_use]
    pub fn new(penalty_b: f64, v: f64) -> Self {
        assert!(v > 0.0, "V must be positive for a B/V gap");
        Self {
            avg_cost: TimeAverage::new(),
            penalty_b,
            v,
        }
    }

    /// Records one slot's relaxed cost `f(P̄(t))`.
    pub fn record(&mut self, cost: f64) {
        self.avg_cost.record(cost);
    }

    /// The running time-averaged relaxed cost `ψ̄`.
    #[must_use]
    pub fn average_cost(&self) -> f64 {
        self.avg_cost.mean()
    }

    /// The lower bound `ψ̄ − B/V` (may be negative — it is a bound, not a
    /// cost).
    #[must_use]
    pub fn bound(&self) -> f64 {
        self.avg_cost.mean() - self.penalty_b / self.v
    }
}

/// The complete evolving state of a [`RelaxedController`] — captured by
/// [`RelaxedController::export_state`], replayed by
/// [`RelaxedController::import_state`]. Everything else on the controller
/// (`β`, `γ_max`, `B`, the relay stage) is a construction fact a restore
/// rebuilds from the same inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaxedState {
    /// The next slot index to run (0-based).
    pub slot: u64,
    /// Real-valued battery levels in kWh, one per node.
    pub levels: Vec<f64>,
    /// Real-valued data queues in the `q[s·n + i]` layout.
    pub q: Vec<f64>,
    /// Real-valued virtual link queues in the `g[i·n + j]` layout.
    pub g: Vec<f64>,
    /// Running sum of relaxed slot costs `Σ f(P̄(t))`.
    pub cost_sum: f64,
    /// Number of cost samples recorded.
    pub cost_count: u64,
    /// Running sum of admitted packets `Σ_t Σ_s k_s(t)`.
    pub admitted_sum: f64,
    /// Number of admission samples recorded.
    pub admitted_count: u64,
}

/// The online relaxed controller (see module docs).
#[derive(Debug, Clone)]
pub struct RelaxedController {
    net: Network,
    phy: PhyConfig,
    energy: EnergyConfig,
    config: ControllerConfig,
    /// Battery levels in kWh (real-valued state).
    levels: Vec<f64>,
    /// Data queues `q[s·n + i]`, real-valued packets.
    q: Vec<f64>,
    /// Virtual link queues `g[i·n + j]`, real-valued packets.
    g: Vec<f64>,
    beta: f64,
    gamma_max: f64,
    series: LowerBoundSeries,
    admitted: TimeAverage,
    slot: u64,
    // Slot-invariant constants + the relay stage from the shared `pipeline` registry.
    grid_limits: Vec<Energy>,
    is_bs: Vec<bool>,
    relay_stage: &'static dyn RelayStage,
}

impl RelaxedController {
    /// Builds the relaxed controller with empty queues.
    ///
    /// # Panics
    ///
    /// Panics if the energy configuration does not cover every node or
    /// `config.v <= 0`.
    #[must_use]
    pub fn new(
        net: Network,
        phy: PhyConfig,
        energy: EnergyConfig,
        config: ControllerConfig,
    ) -> Self {
        config.validate();
        let n = net.topology().len();
        assert_eq!(energy.nodes.len(), n, "one energy config per node");
        let beta = dpp::beta(&config, &phy);
        let nodes = net.topology().nodes();
        let is_bs: Vec<bool> = nodes.iter().map(|nd| nd.kind().is_base_station()).collect();
        let gamma_max = dpp::gamma_max(&is_bs, &energy);
        let penalty_b =
            dpp::penalty_constant_b(&is_bs, net.session_count(), &energy, &config, &phy);
        let levels = energy
            .nodes
            .iter()
            .map(|c| c.battery.level().as_kilowatt_hours())
            .collect();
        let grid_limits = energy.nodes.iter().map(|c| c.grid_limit).collect();
        let relay_stage =
            pipeline::relay_stage(config.relay.key()).expect("built-in relay stage is registered");
        Self {
            q: vec![0.0; n * net.session_count()],
            g: vec![0.0; n * n],
            levels,
            series: LowerBoundSeries::new(penalty_b, config.v),
            admitted: TimeAverage::new(),
            net,
            phy,
            energy,
            config,
            beta,
            gamma_max,
            slot: 0,
            grid_limits,
            is_bs,
            relay_stage,
        }
    }

    /// The lower-bound series accumulated so far.
    #[must_use]
    pub fn series(&self) -> &LowerBoundSeries {
        &self.series
    }

    /// Current Theorem 5 lower bound.
    #[must_use]
    pub fn bound(&self) -> f64 {
        self.series.bound()
    }

    /// Time-averaged admitted packets per slot, `Σ_s k̄_s` — the second
    /// term of the P2 objective `ψ = f̄ − λ·Σ_s k̄_s`.
    #[must_use]
    pub fn average_admitted(&self) -> f64 {
        self.admitted.mean()
    }

    fn qi(&self, s: usize, i: usize) -> f64 {
        self.q[s * self.net.topology().len() + i]
    }

    /// Captures the evolving real-valued state (levels, queues, running
    /// averages, slot counter) as a [`RelaxedState`].
    #[must_use]
    pub fn export_state(&self) -> RelaxedState {
        RelaxedState {
            slot: self.slot,
            levels: self.levels.clone(),
            q: self.q.clone(),
            g: self.g.clone(),
            cost_sum: self.series.avg_cost.sum(),
            cost_count: self.series.avg_cost.count(),
            admitted_sum: self.admitted.sum(),
            admitted_count: self.admitted.count(),
        }
    }

    /// Overwrites the evolving state from a captured [`RelaxedState`]. The
    /// series' gap constants `B` and `V` stay as built — they are pure
    /// functions of the construction inputs.
    ///
    /// # Panics
    ///
    /// Panics if the state's vector dimensions disagree with this
    /// controller's network.
    pub fn import_state(&mut self, state: &RelaxedState) {
        assert_eq!(state.levels.len(), self.levels.len(), "node count mismatch");
        assert_eq!(state.q.len(), self.q.len(), "data-queue layout mismatch");
        assert_eq!(state.g.len(), self.g.len(), "link-queue layout mismatch");
        self.slot = state.slot;
        self.levels.clone_from(&state.levels);
        self.q.clone_from(&state.q);
        self.g.clone_from(&state.g);
        self.series.avg_cost = TimeAverage::from_parts(state.cost_sum, state.cost_count);
        self.admitted = TimeAverage::from_parts(state.admitted_sum, state.admitted_count);
    }

    /// Runs one relaxed slot; returns the slot's cost `f(P̄(t))`.
    ///
    /// # Panics
    ///
    /// Panics if `obs` has the wrong dimensions, or if a node cannot source
    /// its demand even in the relaxed system (configuration inconsistency).
    pub fn step(&mut self, obs: &SlotObservation) -> f64 {
        let n = self.net.topology().len();
        let sessions = self.net.session_count();
        obs.validate(n, sessions, self.net.band_count());

        // Relaxed S1: fractional activations via LP (objective only).
        let topo = self.net.topology();
        let mut lp = LinearProgram::new();
        let mut cand: Vec<(usize, usize, greencell_net::BandId, greencell_lp::VarId)> = Vec::new();
        for (i, j) in topo.ordered_pairs() {
            let h = self.beta * self.g[i.index() * n + j.index()];
            if h <= 0.0 {
                continue;
            }
            for m in self.net.link_bands(i, j).iter() {
                let c = potential_capacity(obs.spectrum.bandwidth(m), &self.phy);
                let w = h * c.as_bits_per_second();
                if w > 0.0 {
                    let var = lp.add_variable(-w, 0.0, 1.0);
                    cand.push((i.index(), j.index(), m, var));
                }
            }
        }
        for node in 0..n {
            let terms: Vec<_> = cand
                .iter()
                .filter(|(i, j, _, _)| *i == node || *j == node)
                .map(|(_, _, _, v)| (*v, 1.0))
                .collect();
            if terms.len() > 1 {
                lp.add_constraint(&terms, Relation::Le, 1.0);
            }
        }
        let alphas: Vec<f64> = match lp.solve() {
            Ok(sol) => cand.iter().map(|(_, _, _, v)| sol.value(*v)).collect(),
            Err(_) => vec![0.0; cand.len()],
        };

        // Per-node TX/RX energy at isolated noise-limited powers for the
        // fractional schedule, and routing capacity at the β bound (the
        // same two-layer reading as the exact controller — see `s3`).
        let mut cap = vec![0.0f64; n * n];
        for (i, j) in topo.ordered_pairs() {
            let relay_ok = self.relay_stage.may_relay(&self.net, i);
            if relay_ok && !self.net.link_bands(i, j).is_empty() {
                cap[i.index() * n + j.index()] = self.beta;
            }
        }
        let mut tx_energy = vec![0.0f64; n];
        let mut rx_energy = vec![0.0f64; n];
        let dt = self.config.slot;
        for ((i, j, m, _), &alpha) in cand.iter().zip(&alphas) {
            if alpha <= 1e-9 {
                continue;
            }
            let w = obs.spectrum.bandwidth(*m);
            let gain = topo.gain(NodeId::from_index(*i), NodeId::from_index(*j));
            let p_min =
                self.phy.sinr_threshold() * w.noise_power_watts(self.phy.noise_density()) / gain;
            let p_min = p_min.min(self.energy.nodes[*i].max_power.as_watts());
            tx_energy[*i] += alpha * p_min * dt.as_seconds();
            rx_energy[*j] += alpha
                * self.energy.nodes[*j].energy_model.recv_power().as_watts()
                * dt.as_seconds();
        }

        // S2 (exact rule on real-valued queues).
        let mut admissions: Vec<(usize, usize, f64)> = Vec::new(); // (s, source, k)
        for s in 0..sessions {
            let source = topo
                .base_stations()
                .min_by(|a, b| {
                    self.qi(s, a.index())
                        .total_cmp(&self.qi(s, b.index()))
                        .then(a.cmp(b))
                })
                .expect("at least one BS");
            let k = if crate::admission_valve_open(
                self.qi(s, source.index()),
                self.config.lambda,
                self.config.v,
            ) {
                self.config.k_max.count_f64()
            } else {
                0.0
            };
            admissions.push((s, source.index(), k));
        }

        // Relaxed S3: winner-take-all per link over fractional capacity.
        let mut flows = vec![0.0f64; sessions * n * n];
        let mut backlog = self.q.clone();
        for session in self.net.sessions() {
            // Destination delivery first (constraint (18)).
            let s = session.id().index();
            let dest = session.destination().index();
            let want = obs.session_demand[s].count_f64();
            if want <= 0.0 {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for i in 0..n {
                if i == dest || cap[i * n + dest] <= 0.0 || backlog[s * n + i] <= 0.0 {
                    continue;
                }
                let coeff = -self.qi(s, i) + self.beta * self.beta * self.g[i * n + dest];
                if best.is_none_or(|(_, c)| coeff < c) {
                    best = Some((i, coeff));
                }
            }
            if let Some((i, _)) = best {
                let amount = want.min(cap[i * n + dest]).min(backlog[s * n + i]);
                flows[s * n * n + i * n + dest] += amount;
                cap[i * n + dest] -= amount;
                backlog[s * n + i] -= amount;
            }
        }
        for i in 0..n {
            for j in 0..n {
                if i == j || cap[i * n + j] <= 1e-12 {
                    continue;
                }
                let mut best: Option<(usize, f64)> = None;
                for s in 0..sessions {
                    let dest = self.net.sessions()[s].destination().index();
                    let source = admissions[s].1;
                    if j == source || i == dest || j == dest || backlog[s * n + i] <= 0.0 {
                        continue;
                    }
                    let coeff =
                        -self.qi(s, i) + self.qi(s, j) + self.beta * self.beta * self.g[i * n + j];
                    if coeff < 0.0 && best.is_none_or(|(_, c)| coeff < c) {
                        best = Some((s, coeff));
                    }
                }
                if let Some((s, _)) = best {
                    let amount = cap[i * n + j].min(backlog[s * n + i]);
                    flows[s * n * n + i * n + j] += amount;
                    backlog[s * n + i] -= amount;
                    cap[i * n + j] = 0.0;
                }
            }
        }

        // S4 (exact solver on reconstructed battery states).
        let batteries: Vec<Battery> = self
            .energy
            .nodes
            .iter()
            .zip(&self.levels)
            .map(|(c, &lvl)| {
                Battery::with_level(
                    c.battery.capacity(),
                    c.battery.charge_limit(),
                    c.battery.discharge_limit(),
                    Energy::from_kilowatt_hours(lvl.min(c.battery.capacity().as_kilowatt_hours())),
                )
            })
            .collect();
        let z: Vec<f64> = batteries
            .iter()
            .map(|b| {
                dpp::shifted_level(
                    b.level(),
                    self.config.v,
                    self.gamma_max,
                    b.discharge_limit(),
                )
            })
            .collect();
        let demand: Vec<Energy> = (0..n)
            .map(|i| {
                let model = self.energy.nodes[i].energy_model;
                model.const_energy()
                    + model.idle_energy()
                    + Energy::from_joules(tx_energy[i] + rx_energy[i])
            })
            .collect();
        let scaled_cost = dpp::scaled_cost(&self.energy.cost, obs.price_multiplier);
        let input = EnergyManagementInput {
            z: &z,
            demand: &demand,
            renewable: &obs.renewable,
            batteries: &batteries,
            grid_connected: &obs.grid_connected,
            grid_limits: &self.grid_limits,
            is_base_station: &self.is_bs,
            cost: &scaled_cost,
            v: self.config.v,
        };
        // Relaxed demand is below the admission budget by construction in
        // fault-free runs; under injected faults (outages, droughts) fall
        // back down the same chain as the exact controller — serving less
        // (or nothing) only lowers the relaxed cost, so the Theorem 5
        // bound stays a lower bound.
        let outcome = pipeline::solve_energy_with_fallbacks(&input);

        // Advance real-valued state.
        for (lvl, d) in self.levels.iter_mut().zip(&outcome.decisions) {
            *lvl += d.charge_total().as_kilowatt_hours() - d.discharge().as_kilowatt_hours();
            *lvl = lvl.max(0.0);
        }
        let mut new_q = vec![0.0f64; sessions * n];
        for s in 0..sessions {
            let dest = self.net.sessions()[s].destination().index();
            for i in 0..n {
                if i == dest {
                    continue;
                }
                let out: f64 = (0..n).map(|j| flows[s * n * n + i * n + j]).sum();
                let inflow: f64 = (0..n).map(|j| flows[s * n * n + j * n + i]).sum();
                new_q[s * n + i] = (self.qi(s, i) - out).max(0.0) + inflow;
            }
            let (_, src, k) = admissions[s];
            new_q[s * n + src] += k;
        }
        self.q = new_q;
        // Virtual queues: service = fractional scheduled capacity (original,
        // pre-routing), arrivals = routed flow.
        let mut srv = vec![0.0f64; n * n];
        for ((i, j, m, _), &alpha) in cand.iter().zip(&alphas) {
            let c = potential_capacity(obs.spectrum.bandwidth(*m), &self.phy);
            srv[*i * n + *j] += alpha * (c * dt).count() / self.config.packet_size.as_bits_f64();
        }
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let arrivals: f64 = (0..sessions).map(|s| flows[s * n * n + i * n + j]).sum();
                let cell = &mut self.g[i * n + j];
                *cell = (*cell - srv[i * n + j]).max(0.0) + arrivals;
            }
        }

        self.series.record(outcome.cost);
        self.admitted
            .record(admissions.iter().map(|&(_, _, k)| k).sum::<f64>());
        self.slot += 1;
        outcome.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_bound_series_math() {
        let mut s = LowerBoundSeries::new(100.0, 50.0);
        s.record(10.0);
        s.record(20.0);
        assert_eq!(s.average_cost(), 15.0);
        assert_eq!(s.bound(), 15.0 - 2.0);
    }

    #[test]
    #[should_panic(expected = "V must be positive")]
    fn zero_v_rejected() {
        let _ = LowerBoundSeries::new(1.0, 0.0);
    }
}
