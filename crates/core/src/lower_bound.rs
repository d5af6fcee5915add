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
//!   (the mutual-exclusion constraint is slack at any optimum); it runs
//!   the same breakpoint sweep.
//!
//! Every constraint of the true system is weakly relaxed, so the relaxed
//! system's achieved time-averaged cost estimates `ψ*_P̄3` from below the
//! true controller's, and `ψ*_P̄3 − B/V` lower-bounds the offline optimum.
//!
//! P̄3 runs on the exact [`Controller`]'s partition
//! ([`RelaxedController::for_controller`]): one relaxed part per
//! [`crate::Part`], with the part's sub-network, real-valued queues in the
//! part's local layout and its own S1–S3 scratch. Each slot, S1, the slot
//! energy, S2, S3 and the queue and virtual-queue advance run per part on
//! the controller's workers; the battery levels, S4, the cost series and
//! the admissions run once over the whole network, reduced in part order,
//! so the worker count never changes a result. The pairs between parts
//! are left out: the gain floor makes their gain exactly zero, and P3 can
//! neither schedule nor route on them, so P̄3 stays a relaxation of P3.
//! [`RelaxedController::new`] is the one-part case over the whole network.
//!
//! The step is sparse: S1 and S3 scan only band-sharing links, and the
//! queue and virtual-queue laws touch only queues that carry flow or
//! service. Its per-slot buffers are kept on the controller, so a
//! steady-state step allocates nothing.

use crate::partition::for_each_part;
use crate::pipeline;
use crate::s2::min_backlog_source;
use crate::{
    dpp, Controller, ControllerConfig, EnergyConfig, EnergyManagementInput, EnergyOutcome, Part,
    RelayPolicy, S4Workspace, SlotObservation,
};
use greencell_energy::Battery;
use greencell_lp::{max_weight_fractional_matching_into, MatchingWorkspace};
use greencell_net::{BandId, BandSet, Network, NodeId};
use greencell_phy::{potential_capacity, PhyConfig};
use greencell_stochastic::TimeAverage;
use greencell_units::{DataRate, Energy};

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
/// (`β`, `γ_max`, `B`, the partition, the routable links) is a
/// construction fact a restore rebuilds from the same inputs, or per-slot
/// scratch. The queues are each part's local layout in part order, as in
/// [`crate::ControllerState`]; a one-part controller's are the dense
/// `q[s·n + i]` and `g[i·n + j]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RelaxedState {
    /// The next slot index to run (0-based).
    pub slot: u64,
    /// Real-valued battery levels in kWh, one per node.
    pub levels: Vec<f64>,
    /// Real-valued data queues, each part's `q[s·n + i]` layout in part
    /// order.
    pub q: Vec<f64>,
    /// Real-valued virtual link queues, each part's `g[i·n + j]` layout in
    /// part order.
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
    /// Whether the relay policy lets `i` transmit, so S3 may route on it.
    routable: bool,
}

/// One relaxed S1 candidate: a link and a band (its weight `β·g_ij·c_m`
/// sits in the matching edge list).
#[derive(Debug, Clone, Copy)]
struct Candidate {
    link: usize,
    band: BandId,
}

/// A relaxed part's per-slot buffers, kept across slots so a steady-state
/// step allocates nothing. Scratch, not state: every buffer is rewritten
/// before it is read each slot, so a restore never needs it. All ids are
/// part-local.
#[derive(Debug, Clone, Default)]
struct PartScratch {
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
}

impl PartScratch {
    /// Reserves every buffer at its structural per-slot maximum for a part
    /// of `n` nodes, `s` sessions and `links` band-sharing links carrying
    /// `cands` (link, band) candidates.
    fn reserve(&mut self, n: usize, s: usize, links: usize, cands: usize) {
        for v in [&mut self.tx_energy, &mut self.rx_energy] {
            v.reserve(n);
        }
        for v in [&mut self.cap, &mut self.srv, &mut self.arrivals] {
            v.reserve(links);
        }
        for v in [
            &mut self.backlog,
            &mut self.out,
            &mut self.inflow,
            &mut self.new_q,
        ] {
            v.reserve(s * n);
        }
        self.cand.reserve(cands);
        self.edges.reserve(cands);
        self.alpha.reserve(cands);
        self.matching.reserve(n, cands);
        self.admissions.reserve(s);
        self.flows.reserve(s + links);
        self.touched.reserve(s + links + cands);
    }
}

/// One part of the relaxed controller: a part of the exact controller's
/// partition with real-valued queues in its local layout.
#[derive(Debug, Clone)]
struct RelaxedPart {
    net: Network,
    /// Global node ids, ascending.
    nodes: Vec<usize>,
    /// Global session ids, ascending.
    sessions: Vec<usize>,
    /// Data queues `q[s·n + i]`, real-valued packets.
    q: Vec<f64>,
    /// Virtual link queues `g[i·n + j]`, real-valued packets.
    g: Vec<f64>,
    /// Band-sharing pairs in `ordered_pairs()` order. A whole-network part
    /// builds them on its first step, so a simulator's construction stays
    /// as cheap as the queues it allocates.
    links: Option<Vec<Link>>,
    scratch: PartScratch,
}

/// The slot-wide inputs every relaxed part reads.
struct SlotInputs<'a> {
    obs: &'a SlotObservation,
    phy: &'a PhyConfig,
    energy: &'a EnergyConfig,
    config: &'a ControllerConfig,
    beta: f64,
    /// This slot's `c_m` per band.
    band_rate: &'a [DataRate],
}

impl RelaxedPart {
    /// A relaxed part with empty queues on `part`'s sub-network. As for
    /// the exact [`Part`], a whole-network part's scratch grows to its
    /// steady-state size over the first slots, while a cluster part
    /// reserves its scratch at the structural per-slot maxima, so none of a
    /// city's many parts grows after construction.
    fn new(part: &Part, relay: RelayPolicy) -> Self {
        let (n, s) = (part.nodes.len(), part.sessions.len());
        let mut scratch = PartScratch::default();
        let links = (!part.whole).then(|| {
            let links = band_sharing_links(&part.net, relay);
            let cands = links.iter().map(|l| l.bands.len()).sum();
            scratch.reserve(n, s, links.len(), cands);
            links
        });
        Self {
            net: part.net.clone(),
            nodes: part.nodes.clone(),
            sessions: part.sessions.clone(),
            q: vec![0.0; n * s],
            g: vec![0.0; n * n],
            links,
            scratch,
        }
    }

    fn links(&self) -> &[Link] {
        self.links.as_deref().unwrap_or_default()
    }

    fn n(&self) -> usize {
        self.nodes.len()
    }

    /// Runs the part's share of a slot: S1, the slot energy, S2, S3 and the
    /// queue and virtual-queue advance (none of which reads S4).
    fn step(&mut self, cx: &SlotInputs<'_>) {
        if self.links.is_none() {
            self.links = Some(band_sharing_links(&self.net, cx.config.relay));
        }
        // Taken out for the step so `&self` helpers stay callable.
        let mut sc = std::mem::take(&mut self.scratch);
        self.relaxed_s1(cx, &mut sc);
        self.slot_energy(cx, &mut sc);
        self.admit(cx.config, &mut sc);
        self.route(cx, &mut sc);
        self.advance(cx, &mut sc);
        self.scratch = sc;
    }

    /// Relaxed S1: fractional activations maximising `Σ β·g_ij·c_m·α`
    /// under the single-radio rows (22) — a fractional matching, solved
    /// exactly (see [`greencell_lp::max_weight_fractional_matching`]).
    fn relaxed_s1(&self, cx: &SlotInputs<'_>, sc: &mut PartScratch) {
        let n = self.n();
        sc.cand.clear();
        sc.edges.clear();
        for (k, link) in self.links().iter().enumerate() {
            let h = cx.beta * self.g[link.i * n + link.j];
            if h <= 0.0 {
                continue;
            }
            for band in link.bands.iter() {
                let weight = h * cx.band_rate[band.index()].as_bits_per_second();
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
    fn slot_energy(&self, cx: &SlotInputs<'_>, sc: &mut PartScratch) {
        let (n, phy, nodes) = (self.n(), cx.phy, &cx.energy.nodes);
        let (topo, links) = (self.net.topology(), self.links());
        let dt = cx.config.slot.as_seconds();
        sc.tx_energy.clear();
        sc.tx_energy.resize(n, 0.0);
        sc.rx_energy.clear();
        sc.rx_energy.resize(n, 0.0);
        for (c, &alpha) in sc.cand.iter().zip(&sc.alpha) {
            if alpha <= 1e-9 {
                continue;
            }
            let Link { i, j, .. } = links[c.link];
            let w = cx.obs.spectrum.bandwidth(c.band);
            let gain = topo.gain(NodeId::from_index(i), NodeId::from_index(j));
            let p_min = phy.sinr_threshold() * w.noise_power_watts(phy.noise_density()) / gain;
            let p_min = p_min.min(nodes[self.nodes[i]].max_power.as_watts());
            sc.tx_energy[i] += alpha * p_min * dt;
            sc.rx_energy[j] +=
                alpha * nodes[self.nodes[j]].energy_model.recv_power().as_watts() * dt;
        }
    }

    /// S2: the exact rule on real-valued queues, over the part's BSs.
    fn admit(&self, config: &ControllerConfig, sc: &mut PartScratch) {
        let n = self.n();
        sc.admissions.clear();
        for s in 0..self.sessions.len() {
            let q = &self.q[s * n..(s + 1) * n];
            let source = min_backlog_source(self.net.topology().base_stations(), |b| q[b.index()])
                .expect("at least one BS")
                .index();
            let k = if crate::admission_valve_open(q[source], config.lambda, config.v) {
                config.k_max.count_f64()
            } else {
                0.0
            };
            sc.admissions.push((source, k));
        }
    }

    /// Relaxed S3: winner-take-all per routable link at the `β` bound (the
    /// same two-layer reading as the exact controller — see `s3`), over
    /// real-valued queues. Flows land in `sc.flows`, sorted by (session,
    /// link).
    fn route(&self, cx: &SlotInputs<'_>, sc: &mut PartScratch) {
        let (n, links, beta) = (self.n(), self.links(), cx.beta);
        let (q, g) = (&self.q, &self.g);
        let bb = beta * beta;
        sc.cap.clear();
        sc.cap
            .extend(links.iter().map(|l| if l.routable { beta } else { 0.0 }));
        sc.backlog.clone_from(q);
        sc.flows.clear();
        // Destination delivery first (constraint (18)).
        for session in self.net.sessions() {
            let s = session.id().index();
            let dest = session.destination().index();
            let want = cx.obs.session_demand[self.sessions[s]].count_f64();
            if want <= 0.0 {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for (k, link) in links.iter().enumerate() {
                let i = link.i;
                if link.j != dest || sc.cap[k] <= 0.0 || sc.backlog[s * n + i] <= 0.0 {
                    continue;
                }
                let coeff = -q[s * n + i] + bb * g[i * n + dest];
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
                let coeff = -q[s * n + i] + q[s * n + j] + bb * g[i * n + j];
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

    /// Advances the data queues and virtual queues, touching only queues
    /// that carry flow or service.
    fn advance(&mut self, cx: &SlotInputs<'_>, sc: &mut PartScratch) {
        let (n, sessions, links) = (self.n(), self.sessions.len(), self.links().len());
        sc.out.clear();
        sc.out.resize(sessions * n, 0.0);
        sc.inflow.clear();
        sc.inflow.resize(sessions * n, 0.0);
        sc.srv.resize(links, 0.0);
        sc.arrivals.resize(links, 0.0);
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
        let dt = cx.config.slot;
        let bits = cx.config.packet_size.as_bits_f64();
        for (c, &alpha) in sc.cand.iter().zip(&sc.alpha) {
            if alpha != 0.0 {
                sc.srv[c.link] += alpha * (cx.band_rate[c.band.index()] * dt).count() / bits;
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

/// The ordered pairs of `net` sharing at least one band, in
/// `ordered_pairs()` order.
fn band_sharing_links(net: &Network, relay: RelayPolicy) -> Vec<Link> {
    net.topology()
        .ordered_pairs()
        .filter_map(|(i, j)| {
            let bands = net.link_bands(i, j);
            (!bands.is_empty()).then(|| Link {
                i: i.index(),
                j: j.index(),
                bands,
                routable: relay.may_relay(net, i),
            })
        })
        .collect()
}

/// The global per-slot buffers: S4's inputs and outcome. Scratch, not
/// state — the S4 sweep keeps nothing across slots.
#[derive(Debug, Clone, Default)]
struct RelaxedScratch {
    /// This slot's `c_m` per band.
    band_rate: Vec<DataRate>,
    /// Per node: the schedule's TX plus RX energy in joules.
    traffic_joules: Vec<f64>,
    batteries: Vec<Battery>,
    z: Vec<f64>,
    demand: Vec<Energy>,
    s4: S4Workspace,
    energy: EnergyOutcome,
}

/// The online relaxed controller (see module docs).
#[derive(Debug, Clone)]
pub struct RelaxedController {
    phy: PhyConfig,
    energy: EnergyConfig,
    config: ControllerConfig,
    /// Battery levels in kWh (real-valued state), one per global node.
    levels: Vec<f64>,
    /// The exact controller's partition, in part order.
    parts: Vec<RelaxedPart>,
    sessions: usize,
    bands: usize,
    workers: usize,
    beta: f64,
    gamma_max: f64,
    series: LowerBoundSeries,
    admitted: TimeAverage,
    slot: u64,
    // Slot-invariant constants.
    grid_limits: Vec<Energy>,
    is_bs: Vec<bool>,
    scratch: RelaxedScratch,
}

impl RelaxedController {
    /// Builds the relaxed controller over the whole network with empty
    /// queues: the one-part case of [`RelaxedController::for_controller`],
    /// as [`Controller::new`] is of [`Controller::partitioned`].
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
        let controller =
            Controller::new(net, phy, energy, config).expect("one energy config per node");
        Self::for_controller(&controller)
    }

    /// Builds the relaxed controller on `controller`'s partition, with
    /// empty queues and the configured initial battery levels: one relaxed
    /// part per part, stepped on the controller's worker count. `β`,
    /// `γ_max`, `B` and the relay policy are the controller's.
    #[must_use]
    pub fn for_controller(controller: &Controller) -> Self {
        let energy = controller.energy.clone();
        let levels = energy
            .nodes
            .iter()
            .map(|c| c.battery.level().as_kilowatt_hours())
            .collect();
        let config = *controller.config();
        Self {
            parts: controller
                .parts
                .iter()
                .map(|p| RelaxedPart::new(p, config.relay))
                .collect(),
            levels,
            series: LowerBoundSeries::new(controller.penalty_b(), config.v),
            admitted: TimeAverage::new(),
            phy: controller.phy,
            energy,
            config,
            sessions: controller.session_count(),
            bands: controller.bands,
            workers: controller.workers,
            beta: controller.beta(),
            gamma_max: controller.gamma_max(),
            slot: 0,
            grid_limits: controller.grid_limits.clone(),
            is_bs: controller.is_bs.clone(),
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
    /// candidate `(i, j, band)` with `β·g_ij·c_m > 0`, part by part, in
    /// `ordered_pairs()` × band order within a part, with its activation
    /// `α ∈ {0, ½, 1}` and global node ids. Empty before the first step.
    pub fn last_activations(&self) -> impl Iterator<Item = (NodeId, NodeId, BandId, f64)> + '_ {
        self.parts.iter().flat_map(|p| {
            let (links, global) = (p.links(), |local: usize| NodeId::from_index(p.nodes[local]));
            p.scratch
                .cand
                .iter()
                .zip(&p.scratch.alpha)
                .map(move |(c, &alpha)| {
                    let link = links[c.link];
                    (global(link.i), global(link.j), c.band, alpha)
                })
        })
    }

    /// Captures the evolving real-valued state (levels, queues, running
    /// averages, slot counter) as a [`RelaxedState`].
    #[must_use]
    pub fn export_state(&self) -> RelaxedState {
        RelaxedState {
            slot: self.slot,
            levels: self.levels.clone(),
            q: self
                .parts
                .iter()
                .flat_map(|p| p.q.iter().copied())
                .collect(),
            g: self
                .parts
                .iter()
                .flat_map(|p| p.g.iter().copied())
                .collect(),
            cost_sum: self.series.avg_cost.sum(),
            cost_count: self.series.avg_cost.count(),
            admitted_sum: self.admitted.sum(),
            admitted_count: self.admitted.count(),
        }
    }

    /// Checks that `state` fits this controller's partition: one level per
    /// node and each part's queue layouts in part order.
    ///
    /// # Errors
    ///
    /// A description of the mismatch.
    pub fn check_state(&self, state: &RelaxedState) -> Result<(), String> {
        let q: usize = self.parts.iter().map(|p| p.q.len()).sum();
        let g: usize = self.parts.iter().map(|p| p.g.len()).sum();
        if state.levels.len() != self.levels.len() || state.q.len() != q || state.g.len() != g {
            return Err("relaxed state dimensions do not fit the network".to_string());
        }
        Ok(())
    }

    /// Overwrites the evolving state from a captured [`RelaxedState`]. The
    /// series' gap constants `B` and `V` stay as built — they are pure
    /// functions of the construction inputs.
    ///
    /// # Panics
    ///
    /// Panics if [`RelaxedController::check_state`] rejects the state.
    pub fn import_state(&mut self, state: &RelaxedState) {
        if let Err(e) = self.check_state(state) {
            panic!("{e}");
        }
        self.slot = state.slot;
        self.levels.clone_from(&state.levels);
        let (mut q, mut g) = (0, 0);
        for p in &mut self.parts {
            let (qn, gn) = (p.q.len(), p.g.len());
            p.q.copy_from_slice(&state.q[q..q + qn]);
            p.g.copy_from_slice(&state.g[g..g + gn]);
            (q, g) = (q + qn, g + gn);
        }
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
        obs.validate(self.levels.len(), self.sessions, self.bands);
        let mut sc = std::mem::take(&mut self.scratch);
        sc.band_rate.clear();
        sc.band_rate.extend(
            obs.spectrum
                .bandwidths()
                .iter()
                .map(|&w| potential_capacity(w, &self.phy)),
        );
        let cx = SlotInputs {
            obs,
            phy: &self.phy,
            energy: &self.energy,
            config: &self.config,
            beta: self.beta,
            band_rate: &sc.band_rate,
        };
        for_each_part(&mut self.parts, self.workers, &|p| p.step(&cx));
        let cost = self.source_energy(obs, &mut sc);
        for (lvl, d) in self.levels.iter_mut().zip(&sc.energy.decisions) {
            *lvl += d.charge_total().as_kilowatt_hours() - d.discharge().as_kilowatt_hours();
            *lvl = lvl.max(0.0);
        }
        self.scratch = sc;
        self.series.record(cost);
        self.admitted.record(
            self.parts
                .iter()
                .flat_map(|p| &p.scratch.admissions)
                .map(|&(_, k)| k)
                .sum::<f64>(),
        );
        self.slot += 1;
        cost
    }

    /// S4: the exact solver on reconstructed battery states, over every
    /// node. Returns the slot cost.
    fn source_energy(&self, obs: &SlotObservation, sc: &mut RelaxedScratch) -> f64 {
        let n = self.levels.len();
        sc.traffic_joules.clear();
        sc.traffic_joules.resize(n, 0.0);
        for p in &self.parts {
            let (tx, rx) = (&p.scratch.tx_energy, &p.scratch.rx_energy);
            for (local, &g) in p.nodes.iter().enumerate() {
                sc.traffic_joules[g] = tx[local] + rx[local];
            }
        }
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
            model.const_energy() + model.idle_energy() + Energy::from_joules(sc.traffic_joules[i])
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
