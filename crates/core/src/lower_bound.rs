//! The relaxed controller `P̄3` and Theorem 5's lower bound.
//!
//! Theorem 5: `ψ*_P1 ≥ ψ*_P̄3 − B/V`, where `P̄3` is the per-slot
//! drift-plus-penalty problem with the integrality and SINR couplings
//! relaxed. [`RelaxedController`] runs that relaxed system online:
//!
//! * S1 relaxed — activations `α ∈ [0, 1]` maximising `Σ β·g_ij·c_m·α`
//!   under only the single-radio rows (22) (the SINR constraint (24) is
//!   dropped; the relaxed links transmit at their isolated noise-limited
//!   minimum power). That LP is a maximum-weight fractional matching on
//!   the candidate multigraph, so it is solved exactly, without a simplex,
//!   as an assignment on the bipartite double cover
//!   ([`greencell_lp::max_weight_fractional_matching`]). The optimum is
//!   half-integral: `α ∈ {0, ½, 1}`, at most one band per node pair (the
//!   heaviest, the first in `ordered_pairs()` × band order on ties).
//!   Fractional activations yield fractional link capacities.
//! * S2 — already continuous; the exact rule is reused.
//! * S3 relaxed — same per-link winner-take-all structure over fractional
//!   capacities and real-valued queues.
//! * S4 — the marginal-price solver is exact for the relaxed problem too
//!   (the mutual-exclusion constraint is slack at any optimum); it runs on
//!   the warm kernel, bit-identical to the cold solver.
//!
//! Every constraint of the true system is weakly relaxed, so the relaxed
//! system's achieved time-averaged cost estimates `ψ*_P̄3` from below the
//! true controller's, and `ψ*_P̄3 − B/V` lower-bounds the offline optimum.
//!
//! The step is sparse: S1 and S3 scan only band-sharing links, and the
//! queue and virtual-queue laws touch only queues that carry flow or
//! service. Its per-slot buffers are kept on the controller, so a
//! steady-state step allocates nothing.

use crate::pipeline::{self, RelayStage};
use crate::{
    dpp, ControllerConfig, EnergyConfig, EnergyManagementInput, EnergyOutcome, S4Workspace,
    SlotObservation,
};
use greencell_energy::Battery;
use greencell_lp::{max_weight_fractional_matching_into, MatchingWorkspace};
use greencell_net::{BandId, BandSet, Network, NodeId};
use greencell_phy::{potential_capacity, PhyConfig};
use greencell_stochastic::TimeAverage;
use greencell_units::{DataRate, Energy};
use std::sync::OnceLock;

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
/// (`β`, `γ_max`, `B`, the routable links) is a construction fact a restore
/// rebuilds from the same inputs, or per-slot scratch.
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

/// An ordered node pair sharing at least one band — the only pairs that
/// can carry a relaxed S1 candidate or routed flow.
#[derive(Debug, Clone, Copy)]
struct Link {
    i: usize,
    j: usize,
    bands: BandSet,
    /// Whether the relay stage lets `i` transmit, so S3 may route on it.
    routable: bool,
}

/// One relaxed S1 candidate: a link and a band (its weight `β·g_ij·c_m`
/// sits in the matching edge list).
#[derive(Debug, Clone, Copy)]
struct Candidate {
    link: usize,
    band: BandId,
}

/// The relaxed step's per-slot buffers, kept across slots so a
/// steady-state [`RelaxedController::step`] allocates nothing. Scratch,
/// not state: every buffer is rewritten before it is read each slot (the
/// S4 kernel's warm start is bit-identical to a cold solve), so a restore
/// never needs it.
#[derive(Debug, Clone, Default)]
struct RelaxedScratch {
    /// This slot's `c_m` per band.
    band_rate: Vec<DataRate>,
    cand: Vec<Candidate>,
    /// The candidates as matching edges `(i, j, weight)`.
    edges: Vec<(usize, usize, f64)>,
    /// One activation per candidate.
    alpha: Vec<f64>,
    matching: MatchingWorkspace,
    tx_energy: Vec<f64>,
    rx_energy: Vec<f64>,
    /// Per session: the admitting BS and the admitted packets `k_s`.
    admissions: Vec<(usize, f64)>,
    /// Remaining routing capacity per link.
    cap: Vec<f64>,
    /// Packets not yet routed, `q[s·n + i]` layout.
    backlog: Vec<f64>,
    /// Routed flow `(session, link, packets)`; at most one entry per
    /// (session, link).
    flows: Vec<(usize, usize, f64)>,
    /// Per-queue outflow and inflow sums, `q[s·n + i]` layout.
    out: Vec<f64>,
    inflow: Vec<f64>,
    new_q: Vec<f64>,
    /// Per-link virtual-queue service and arrivals, zero outside `touched`.
    srv: Vec<f64>,
    arrivals: Vec<f64>,
    touched: Vec<usize>,
    batteries: Vec<Battery>,
    z: Vec<f64>,
    demand: Vec<Energy>,
    s4: S4Workspace,
    energy: EnergyOutcome,
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
    // Slot-invariant constants.
    grid_limits: Vec<Energy>,
    is_bs: Vec<bool>,
    relay_stage: &'static dyn RelayStage,
    /// Band-sharing pairs in `ordered_pairs()` order, built on the first
    /// step so construction stays as cheap as the queues it allocates.
    links: OnceLock<Vec<Link>>,
    scratch: RelaxedScratch,
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
            links: OnceLock::new(),
            scratch: RelaxedScratch::default(),
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

    /// The relaxed S1 of the last slot this controller stepped: every
    /// candidate `(i, j, band)` with `β·g_ij·c_m > 0`, in
    /// `ordered_pairs()` × band order, with its activation
    /// `α ∈ {0, ½, 1}`. Empty before the first step.
    pub fn last_activations(&self) -> impl Iterator<Item = (NodeId, NodeId, BandId, f64)> + '_ {
        let links = self.links();
        self.scratch
            .cand
            .iter()
            .zip(&self.scratch.alpha)
            .map(move |(c, &alpha)| {
                let link = links[c.link];
                (
                    NodeId::from_index(link.i),
                    NodeId::from_index(link.j),
                    c.band,
                    alpha,
                )
            })
    }

    fn links(&self) -> &[Link] {
        self.links.get_or_init(|| {
            let n = self.net.topology().len();
            let relays: Vec<bool> = (0..n)
                .map(|i| self.relay_stage.may_relay(&self.net, NodeId::from_index(i)))
                .collect();
            self.net
                .topology()
                .ordered_pairs()
                .filter_map(|(i, j)| {
                    let bands = self.net.link_bands(i, j);
                    (!bands.is_empty()).then(|| Link {
                        i: i.index(),
                        j: j.index(),
                        bands,
                        routable: relays[i.index()],
                    })
                })
                .collect()
        })
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
        // Taken out for the step so `&self` helpers stay callable.
        let mut sc = std::mem::take(&mut self.scratch);
        self.relaxed_s1(obs, &mut sc);
        self.slot_energy(obs, &mut sc);
        self.admit(&mut sc);
        self.route(obs, &mut sc);
        let cost = self.source_energy(obs, &mut sc);
        self.advance(&mut sc);
        self.scratch = sc;
        self.series.record(cost);
        self.admitted
            .record(self.scratch.admissions.iter().map(|&(_, k)| k).sum::<f64>());
        self.slot += 1;
        cost
    }

    /// Relaxed S1: fractional activations maximising `Σ β·g_ij·c_m·α`
    /// under the single-radio rows (22) — a fractional matching, solved
    /// exactly (see [`greencell_lp::max_weight_fractional_matching`]).
    fn relaxed_s1(&self, obs: &SlotObservation, sc: &mut RelaxedScratch) {
        let n = self.net.topology().len();
        sc.band_rate.clear();
        sc.band_rate.extend(
            obs.spectrum
                .bandwidths()
                .iter()
                .map(|&w| potential_capacity(w, &self.phy)),
        );
        sc.cand.clear();
        sc.edges.clear();
        for (k, link) in self.links().iter().enumerate() {
            let h = self.beta * self.g[link.i * n + link.j];
            if h <= 0.0 {
                continue;
            }
            for band in link.bands.iter() {
                let weight = h * sc.band_rate[band.index()].as_bits_per_second();
                if weight > 0.0 {
                    sc.cand.push(Candidate { link: k, band });
                    sc.edges.push((link.i, link.j, weight));
                }
            }
        }
        max_weight_fractional_matching_into(n, &sc.edges, &mut sc.matching, &mut sc.alpha);
    }

    /// Per-node TX/RX energy of the fractional schedule at isolated
    /// noise-limited powers (the SINR coupling (24) is relaxed away).
    fn slot_energy(&self, obs: &SlotObservation, sc: &mut RelaxedScratch) {
        let n = self.net.topology().len();
        let (topo, links) = (self.net.topology(), self.links());
        let dt = self.config.slot.as_seconds();
        sc.tx_energy.clear();
        sc.tx_energy.resize(n, 0.0);
        sc.rx_energy.clear();
        sc.rx_energy.resize(n, 0.0);
        for (c, &alpha) in sc.cand.iter().zip(&sc.alpha) {
            if alpha <= 1e-9 {
                continue;
            }
            let Link { i, j, .. } = links[c.link];
            let w = obs.spectrum.bandwidth(c.band);
            let gain = topo.gain(NodeId::from_index(i), NodeId::from_index(j));
            let p_min =
                self.phy.sinr_threshold() * w.noise_power_watts(self.phy.noise_density()) / gain;
            let p_min = p_min.min(self.energy.nodes[i].max_power.as_watts());
            sc.tx_energy[i] += alpha * p_min * dt;
            sc.rx_energy[j] +=
                alpha * self.energy.nodes[j].energy_model.recv_power().as_watts() * dt;
        }
    }

    /// S2: the exact rule on real-valued queues.
    fn admit(&self, sc: &mut RelaxedScratch) {
        let topo = self.net.topology();
        sc.admissions.clear();
        for s in 0..self.net.session_count() {
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
            sc.admissions.push((source.index(), k));
        }
    }

    /// Relaxed S3: winner-take-all per routable link at the `β` bound (the
    /// same two-layer reading as the exact controller — see `s3`), over
    /// real-valued queues. Flows land in `sc.flows`, sorted by (session,
    /// link).
    fn route(&self, obs: &SlotObservation, sc: &mut RelaxedScratch) {
        let (n, links) = (self.net.topology().len(), self.links());
        let bb = self.beta * self.beta;
        sc.cap.clear();
        sc.cap.extend(
            links
                .iter()
                .map(|l| if l.routable { self.beta } else { 0.0 }),
        );
        sc.backlog.clone_from(&self.q);
        sc.flows.clear();
        // Destination delivery first (constraint (18)).
        for session in self.net.sessions() {
            let s = session.id().index();
            let dest = session.destination().index();
            let want = obs.session_demand[s].count_f64();
            if want <= 0.0 {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for (k, link) in links.iter().enumerate() {
                let i = link.i;
                if link.j != dest || sc.cap[k] <= 0.0 || sc.backlog[s * n + i] <= 0.0 {
                    continue;
                }
                let coeff = -self.qi(s, i) + bb * self.g[i * n + dest];
                if best.is_none_or(|(_, c)| coeff < c) {
                    best = Some((k, coeff));
                }
            }
            if let Some((k, _)) = best {
                let i = links[k].i;
                let amount = want.min(sc.cap[k]).min(sc.backlog[s * n + i]);
                sc.flows.push((s, k, amount));
                sc.cap[k] -= amount;
                sc.backlog[s * n + i] -= amount;
            }
        }
        for (k, link) in links.iter().enumerate() {
            if sc.cap[k] <= 1e-12 {
                continue;
            }
            let (i, j) = (link.i, link.j);
            let mut best: Option<(usize, f64)> = None;
            for (s, session) in self.net.sessions().iter().enumerate() {
                let dest = session.destination().index();
                let source = sc.admissions[s].0;
                if j == source || i == dest || j == dest || sc.backlog[s * n + i] <= 0.0 {
                    continue;
                }
                let coeff = -self.qi(s, i) + self.qi(s, j) + bb * self.g[i * n + j];
                if coeff < 0.0 && best.is_none_or(|(_, c)| coeff < c) {
                    best = Some((s, coeff));
                }
            }
            if let Some((s, _)) = best {
                let amount = sc.cap[k].min(sc.backlog[s * n + i]);
                sc.flows.push((s, k, amount));
                sc.backlog[s * n + i] -= amount;
                sc.cap[k] = 0.0;
            }
        }
        // (session, link) order: the order in which the queue and virtual
        // queue laws sum a queue's flows.
        sc.flows.sort_unstable_by_key(|&(s, k, _)| (s, k));
    }

    /// S4: the exact solver on reconstructed battery states. Returns the
    /// slot cost.
    fn source_energy(&self, obs: &SlotObservation, sc: &mut RelaxedScratch) -> f64 {
        let n = self.net.topology().len();
        sc.batteries.clear();
        sc.batteries
            .extend(self.energy.nodes.iter().zip(&self.levels).map(|(c, &lvl)| {
                Battery::with_level(
                    c.battery.capacity(),
                    c.battery.charge_limit(),
                    c.battery.discharge_limit(),
                    Energy::from_kilowatt_hours(lvl.min(c.battery.capacity().as_kilowatt_hours())),
                )
            }));
        sc.z.clear();
        sc.z.extend(sc.batteries.iter().map(|b| {
            dpp::shifted_level(
                b.level(),
                self.config.v,
                self.gamma_max,
                b.discharge_limit(),
            )
        }));
        sc.demand.clear();
        sc.demand.extend((0..n).map(|i| {
            let model = self.energy.nodes[i].energy_model;
            model.const_energy()
                + model.idle_energy()
                + Energy::from_joules(sc.tx_energy[i] + sc.rx_energy[i])
        }));
        let scaled_cost = dpp::scaled_cost(&self.energy.cost, obs.price_multiplier);
        let input = EnergyManagementInput {
            z: &sc.z,
            demand: &sc.demand,
            renewable: &obs.renewable,
            batteries: &sc.batteries,
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
        pipeline::solve_energy_with_fallbacks_into(&input, &mut sc.s4, &mut sc.energy);
        sc.energy.cost
    }

    /// Advances batteries, data queues and virtual queues, touching only
    /// queues that carry flow or service.
    fn advance(&mut self, sc: &mut RelaxedScratch) {
        let n = self.net.topology().len();
        let sessions = self.net.session_count();
        for (lvl, d) in self.levels.iter_mut().zip(&sc.energy.decisions) {
            *lvl += d.charge_total().as_kilowatt_hours() - d.discharge().as_kilowatt_hours();
            *lvl = lvl.max(0.0);
        }
        sc.out.clear();
        sc.out.resize(sessions * n, 0.0);
        sc.inflow.clear();
        sc.inflow.resize(sessions * n, 0.0);
        sc.srv.resize(self.links().len(), 0.0);
        sc.arrivals.resize(self.links().len(), 0.0);
        sc.touched.clear();
        for &(s, k, amount) in &sc.flows {
            let Link { i, j, .. } = self.links()[k];
            sc.out[s * n + i] += amount;
            sc.inflow[s * n + j] += amount;
            sc.arrivals[k] += amount;
            sc.touched.push(k);
        }
        sc.new_q.clear();
        sc.new_q.resize(sessions * n, 0.0);
        for (s, session) in self.net.sessions().iter().enumerate() {
            let dest = session.destination().index();
            for i in (0..n).filter(|&i| i != dest) {
                let at = s * n + i;
                sc.new_q[at] = (self.q[at] - sc.out[at]).max(0.0) + sc.inflow[at];
            }
            let (src, k) = sc.admissions[s];
            sc.new_q[s * n + src] += k;
        }
        std::mem::swap(&mut self.q, &mut sc.new_q);
        // Virtual queues: service = fractional scheduled capacity (original,
        // pre-routing), arrivals = routed flow.
        let dt = self.config.slot;
        let bits = self.config.packet_size.as_bits_f64();
        for (c, &alpha) in sc.cand.iter().zip(&sc.alpha) {
            if alpha != 0.0 {
                sc.srv[c.link] += alpha * (sc.band_rate[c.band.index()] * dt).count() / bits;
                sc.touched.push(c.link);
            }
        }
        sc.touched.sort_unstable();
        sc.touched.dedup();
        for &k in &sc.touched {
            let Link { i, j, .. } = self.links()[k];
            let cell = &mut self.g[i * n + j];
            *cell = (*cell - sc.srv[k]).max(0.0) + sc.arrivals[k];
            sc.srv[k] = 0.0;
            sc.arrivals[k] = 0.0;
        }
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
