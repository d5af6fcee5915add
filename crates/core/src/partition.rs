//! Interference-closed partitions: the unit the slot driver solves S1–S3
//! on.
//!
//! The per-slot problem P3 splits into S1–S4 (§IV-C). S1 scheduling, S2
//! admission and S3 routing only couple nodes with a non-zero channel gain
//! between them, so they separate across node sets whose cross gains are
//! exactly zero; only S4 couples every base station, through the grid cost
//! `f(P)`. A [`ClusterSet`] names such node sets, and a [`Part`] is one of
//! them with its own sub-network, queue banks and S1–S3 scratch. The dense
//! controller is the one-part case: its part is the whole network with
//! identical node and session ids.

use crate::energy::{EnergyInputs, NodeEnergy};
use crate::{
    greedy_schedule_with, resource_allocation_masked_into, route_flows_into,
    sequential_fix_schedule_with, Admission, ControllerConfig, EnergyConfig, NetworkState,
    RelayPolicy, RoutingTable, S1Inputs, S1Scratch, S3Scratch, ScheduleOutcome, SchedulerKind,
    SlotObservation,
};
use greencell_net::{Network, NodeId, SessionId};
use greencell_phy::{packets_per_slot, potential_capacity, PhyConfig, SpectrumState};
use greencell_queue::{lyapunov_value, DataQueueBank, FlowPlan, LinkQueueBank};
use greencell_units::{Energy, Packets, Power};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A partition of a network's nodes into interference clusters.
///
/// Cluster ids are assigned in order of first appearance over ascending
/// node index, and each cluster's member list is ascending — both are
/// deterministic functions of the input alone, independent of worker count
/// or hash state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSet {
    membership: Vec<usize>,
    clusters: Vec<Vec<usize>>,
}

impl ClusterSet {
    /// One cluster holding all `n` nodes (none when `n == 0`).
    #[must_use]
    pub fn single(n: usize) -> Self {
        Self {
            membership: vec![0; n],
            clusters: if n == 0 {
                vec![]
            } else {
                vec![(0..n).collect()]
            },
        }
    }

    /// Collapses a union-find forest (see [`ClusterSet::union`]) into
    /// dense cluster ids and ascending member lists.
    #[must_use]
    pub fn from_union_find(parent: &mut [usize]) -> Self {
        let n = parent.len();
        let mut membership = vec![0usize; n];
        let mut root_id = vec![usize::MAX; n];
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        for (i, slot) in membership.iter_mut().enumerate() {
            let r = find(parent, i);
            if root_id[r] == usize::MAX {
                root_id[r] = clusters.len();
                clusters.push(Vec::new());
            }
            *slot = root_id[r];
            clusters[root_id[r]].push(i);
        }
        Self {
            membership,
            clusters,
        }
    }

    /// Joins the trees of `a` and `b` in a union-find forest whose roots
    /// start as `parent[i] = i`. Deterministic: the smaller root wins.
    pub fn union(parent: &mut [usize], a: usize, b: usize) {
        let ra = find(parent, a);
        let rb = find(parent, b);
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[hi] = lo;
        }
    }

    /// Number of clusters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// `true` if there are no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// The cluster id of node `node`.
    #[must_use]
    pub fn cluster_of(&self, node: usize) -> usize {
        self.membership[node]
    }

    /// Per-node cluster ids, indexed by node.
    #[must_use]
    pub fn membership(&self) -> &[usize] {
        &self.membership
    }

    /// Member lists (ascending node ids), indexed by cluster id.
    #[must_use]
    pub fn clusters(&self) -> &[Vec<usize>] {
        &self.clusters
    }

    /// The size of the largest cluster (0 when empty) — the quantity that
    /// bounds per-slot cost, since each cluster solves a dense
    /// `Θ(|cluster|²)` subproblem.
    #[must_use]
    pub fn largest(&self) -> usize {
        self.clusters.iter().map(Vec::len).max().unwrap_or(0)
    }
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]]; // path halving
        x = parent[x];
    }
    x
}

/// One part handed to [`crate::Controller::partitioned`]: a sub-network
/// plus the global ids of its nodes and sessions. Local node `k` of `net`
/// is global node `nodes[k]`, local session `k` is global session
/// `sessions[k]`; both lists are ascending.
#[derive(Debug, Clone)]
pub struct PartSpec {
    /// The part's sub-network (gains between its nodes only).
    pub net: Network,
    /// Global node ids, ascending.
    pub nodes: Vec<usize>,
    /// Global session ids, ascending (the sessions whose destination lies
    /// in this part).
    pub sessions: Vec<usize>,
}

/// One part of a controller's partition: a sub-network with its queue
/// banks, its nodes' energy side (batteries, and the slot's levels,
/// demands and S4 answers), and the scratch the driver reuses every slot.
#[derive(Debug, Clone)]
pub struct Part {
    pub(crate) net: Network,
    /// Global node ids, ascending.
    pub(crate) nodes: Vec<usize>,
    /// Global session ids, ascending.
    pub(crate) sessions: Vec<usize>,
    /// The part covers the whole network with identical ids, so per-node
    /// and per-session observation vectors are used as they are.
    pub(crate) whole: bool,
    pub(crate) data: DataQueueBank,
    pub(crate) links: LinkQueueBank,
    pub(crate) max_powers: Vec<Power>,
    /// The energy side of the part's nodes, by local id.
    pub(crate) energy: NodeEnergy,
    // Per-slot scratch, reused (zero-allocation steady state).
    traffic_budget: Vec<Energy>,
    available: Vec<bool>,
    session_demand: Vec<Packets>,
    s1: S1Scratch,
    pub(crate) outcome: ScheduleOutcome,
    pub(crate) admissions: Vec<Admission>,
    /// The routable links and their caps, sorted by `(sender, receiver)`
    /// with per-sender offsets. Kept across slots: rebuilt only when the
    /// up-mask changes.
    routing: RoutingTable,
    /// The local up-mask `routing` was built for (empty before the first
    /// build).
    caps_mask: Vec<bool>,
    pub(crate) link_service: Vec<(NodeId, NodeId, Packets)>,
    s3: S3Scratch,
    pub(crate) flows: FlowPlan,
    admission_triples: Vec<(SessionId, NodeId, Packets)>,
    /// Debug builds: the data-queue (`s·n + i`) and link-queue (`i·n + j`)
    /// indices the slot's flows, admissions and service name, for the
    /// queue-law check in [`Part::advance`]. Empty between slots.
    law_data: Vec<usize>,
    law_links: Vec<usize>,
    /// Wall-clock the last [`Part::solve`] spent in S1, S2, S3 and its
    /// share of S4 (the last [`Part::energy_step`]'s, after a retry), for
    /// the driver's part-order timing sums.
    pub(crate) solve_time: [Duration; 4],
    /// What the last [`Part::advance`] measured, for the driver's
    /// part-order reductions.
    pub(crate) advanced: PartAdvance,
    /// The last [`Part::advance`]'s Ψ̂₁–Ψ̂₃ summands, against the queues
    /// before it, in the order the driver sums them.
    pub(crate) psi: PsiTerms,
}

/// One part's Ψ̂₁–Ψ̂₃ summands: `H_ij·b_ij` per served link,
/// `(Q^s_source, k_s)` per admission, and the coefficient
/// `−Q^s_i + Q^s_j + β·H_ij` of each non-zero flow, in the flow plan's
/// order (see [`crate::dpp`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct PsiTerms {
    pub service: Vec<f64>,
    pub admissions: Vec<(f64, f64)>,
    pub flows: Vec<f64>,
}

/// One part's share of a slot's state advance: its Lyapunov terms before
/// and after the advance, its admitted, routed and scheduled totals, and
/// its data backlog after the advance at base stations and at users.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PartAdvance {
    pub lyapunov_before: f64,
    pub lyapunov_after: f64,
    pub admitted: u64,
    pub routed: u64,
    pub scheduled_links: usize,
    pub backlog: [u64; 2],
}

/// The slot-wide inputs every part reads while solving S1–S3 and its
/// share of S4.
pub(crate) struct PartInputs<'a> {
    pub phy: &'a PhyConfig,
    pub config: &'a ControllerConfig,
    pub obs: &'a SlotObservation,
    pub net_state: &'a NetworkState,
    /// A dynamic policy is live: S2 and routing read the network state's
    /// masks instead of the observation's fault availability.
    pub dynamic: bool,
    /// The S1 availability mask over global node ids (empty = all up).
    pub s1_mask: &'a [bool],
    pub beta_cap: Packets,
    pub energy: EnergyInputs<'a>,
}

impl Part {
    /// Builds a part's queue banks. `whole` marks the one part of a
    /// controller covering every node, whose scratch grows to its
    /// steady-state size over the first slots. A cluster part reserves its
    /// scratch at the structural per-slot maxima instead, so none of a
    /// city's many parts grows after construction: candidate `(i, j, m)`
    /// triples are bounded by the shared-band count over ordered pairs,
    /// routable links by the pairs with any shared band, flows by those
    /// links plus one delivery per session, schedules by the single-radio
    /// limit `⌊n/2⌋`.
    pub(crate) fn new(
        spec: PartSpec,
        energy: &EnergyConfig,
        is_bs: &[bool],
        beta: f64,
        whole: bool,
    ) -> Self {
        let PartSpec {
            net,
            nodes,
            sessions,
        } = spec;
        let n = nodes.len();
        let destinations: Vec<NodeId> = net.sessions().iter().map(|x| x.destination()).collect();
        let mut s1 = S1Scratch::default();
        let mut outcome = ScheduleOutcome::empty();
        let mut routing = RoutingTable::default();
        let (mut link_slots, mut schedule_bound) = (0, 0);
        if !whole {
            link_slots = net
                .topology()
                .ordered_pairs()
                .filter(|&(i, j)| !net.link_bands(i, j).is_empty())
                .count();
            schedule_bound = n / 2 + 1;
            s1.reserve(n, net.band_count(), link_slots);
            outcome.reserve(schedule_bound);
            routing.reserve(n, link_slots);
        }
        let mut part = Self {
            data: DataQueueBank::new(n, &destinations),
            links: LinkQueueBank::new(n, beta),
            max_powers: nodes.iter().map(|&g| energy.nodes[g].max_power).collect(),
            energy: NodeEnergy::new(&nodes, energy, is_bs),
            whole,
            traffic_budget: Vec::new(),
            available: Vec::new(),
            session_demand: Vec::new(),
            s1,
            outcome,
            admissions: Vec::new(),
            routing,
            caps_mask: Vec::with_capacity(n),
            link_service: Vec::with_capacity(schedule_bound),
            s3: S3Scratch::default(),
            flows: FlowPlan::default(),
            admission_triples: Vec::new(),
            law_data: Vec::new(),
            law_links: Vec::new(),
            solve_time: [Duration::ZERO; 4],
            advanced: PartAdvance::default(),
            psi: PsiTerms::default(),
            net,
            nodes,
            sessions,
        };
        if !whole {
            part.reserve_routing(link_slots);
            part.psi.service.reserve(schedule_bound);
        }
        part
    }

    /// Grows the S3 scratch, the flow plan, the flows' Ψ̂₃ summands and the
    /// debug queue-law scratch for `links` routable links (in all, so
    /// repeating a bound is free): S3 routes at most one flow per session
    /// into its destination and one per link after that.
    fn reserve_routing(&mut self, links: usize) {
        let (n, s) = (self.nodes.len(), self.sessions.len());
        self.s3.reserve(n, s, links);
        self.flows.reserve(s + links);
        let held = self.psi.flows.len();
        self.psi.flows.reserve((s + links).saturating_sub(held));
        if cfg!(debug_assertions) {
            // Both lists are empty between slots, so this reserves in all.
            self.law_data.reserve(2 * (s + links) + s);
            self.law_links.reserve(s + links + n);
        }
    }

    /// Drops the S1 scratch (snapshot restore): every S1 call clears it
    /// before use, so this only drops reused capacity.
    pub(crate) fn reset_scratch(&mut self) {
        self.s1 = S1Scratch::default();
    }

    /// Solves this part's S1, S2 and S3 for the slot, then its share of
    /// S4 ([`Part::energy_step`]), and times each into
    /// [`Part::solve_time`]. The stage methods are never inlined, so the
    /// compiler cannot move one stage's work across another's clock reads.
    pub(crate) fn solve(&mut self, cx: &PartInputs<'_>) {
        let start = Instant::now();
        self.schedule(cx);
        let scheduled = Instant::now();
        self.admit(cx);
        let admitted = Instant::now();
        self.route(cx);
        let routed = Instant::now();
        self.solve_time = [
            scheduled - start,
            admitted - scheduled,
            routed - admitted,
            Duration::ZERO,
        ];
        self.energy_step(&cx.energy);
    }

    /// The part's share of S4, timed into the last entry of
    /// [`Part::solve_time`]: its nodes' shifted levels and demands for the
    /// schedule as it stands, and each non-BS node's answer.
    #[inline(never)]
    pub(crate) fn energy_step(&mut self, cx: &EnergyInputs<'_>) {
        let start = Instant::now();
        self.energy
            .step(&self.nodes, cx, Some(&self.outcome), self.whole);
        self.solve_time[3] = start.elapsed();
    }

    /// S1: this slot's energy admission budgets — what each node could
    /// source for traffic on top of its fixed overhead — then link
    /// scheduling with minimal powers by the configured scheduler.
    #[inline(never)]
    fn schedule(&mut self, cx: &PartInputs<'_>) {
        let obs = cx.obs;
        self.traffic_budget.clear();
        let energy = &self.energy;
        self.traffic_budget
            .extend(self.nodes.iter().enumerate().map(|(local, &g)| {
                let model = &energy.models[local];
                let fixed = model.const_energy() + model.idle_energy();
                let grid = if obs.grid_connected[g] {
                    energy.grid_limits[local]
                } else {
                    Energy::ZERO
                };
                (obs.renewable[g] + energy.batteries[local].max_discharge_now() + grid - fixed)
                    .max(Energy::ZERO)
            }));
        let available: &[bool] = if self.whole || cx.s1_mask.is_empty() {
            cx.s1_mask
        } else {
            self.available.clear();
            self.available
                .extend(self.nodes.iter().map(|&g| cx.s1_mask[g]));
            &self.available
        };
        let inputs = S1Inputs {
            net: &self.net,
            phy: cx.phy,
            spectrum: &obs.spectrum,
            links: &self.links,
            max_powers: &self.max_powers,
            energy_models: &self.energy.models,
            traffic_budget: &self.traffic_budget,
            available,
            slot: cx.config.slot,
            packet_size: cx.config.packet_size,
        };
        match cx.config.scheduler {
            SchedulerKind::Greedy => greedy_schedule_with(&inputs, &mut self.s1, &mut self.outcome),
            SchedulerKind::SequentialFix => {
                sequential_fix_schedule_with(&inputs, &mut self.s1, &mut self.outcome);
            }
        }
    }

    /// S2: source selection and admission control. A down source BS
    /// admits nothing (fault injection; the session waits the outage out
    /// rather than being handed to a farther BS mid-fault). A BS that
    /// chose to sleep is different: sessions re-associate, so source
    /// selection skips it (and mid-ramp BSs, which cannot serve yet
    /// either) — outaged BSs stay selectable so fault behaviour is
    /// unchanged by an inert sleep policy.
    #[inline(never)]
    fn admit(&mut self, cx: &PartInputs<'_>) {
        let (config, nodes) = (cx.config, &self.nodes);
        let ns = cx.net_state;
        let selectable = |b: NodeId| {
            let g = nodes[b.index()];
            !cx.dynamic || (!ns.is_asleep(g) && ns.ramp_remaining(g) == 0)
        };
        resource_allocation_masked_into(
            &self.net,
            &self.data,
            config.lambda,
            config.v,
            config.k_max,
            &selectable,
            &mut self.admissions,
        );
        if cx.dynamic {
            let active = ns.active();
            self.admissions.retain(|a| active[nodes[a.source.index()]]);
        } else if !cx.obs.node_available.is_empty() {
            self.admissions
                .retain(|a| cx.obs.is_node_available(nodes[a.source.index()]));
        }
    }

    /// S3: routing capacity — every link that could ever carry traffic
    /// (common band at both ends, both endpoints up), capped at β packets
    /// per slot, the two-layer reading of constraint (25), see the `s3`
    /// module docs — then the realized link service and the flow plan.
    /// Caps cover this part's pairs only: a cross-part gain is exactly
    /// zero, so such a link can never be scheduled and flow routed onto it
    /// would queue forever.
    #[inline(never)]
    fn route(&mut self, cx: &PartInputs<'_>) {
        let up = |g: usize| {
            if cx.dynamic {
                cx.net_state.active()[g]
            } else {
                cx.obs.is_node_available(g)
            }
        };
        self.update_routing_caps(up, cx.config.relay, cx.beta_cap);
        self.refresh_link_service(&cx.obs.spectrum, cx.phy, cx.config);
        let demand: &[Packets] = if self.whole {
            &cx.obs.session_demand
        } else {
            self.session_demand.clear();
            self.session_demand
                .extend(self.sessions.iter().map(|&s| cx.obs.session_demand[s]));
            &self.session_demand
        };
        route_flows_into(
            &self.net,
            &self.data,
            &self.links,
            &self.routing,
            &self.admissions,
            demand,
            &mut self.s3,
            &mut self.flows,
        );
    }

    /// Brings the routing table up to date for this slot's up-mask (`up`
    /// over global node ids). Besides the mask, the caps read only the
    /// static band table, the relay policy and β, all fixed at
    /// construction, so the table is rebuilt only on a slot whose mask
    /// differs from the one it was built for. A rebuild also grows the
    /// routing scratch to the new link count, so no later slot on this
    /// table allocates.
    fn update_routing_caps(
        &mut self,
        up: impl Fn(usize) -> bool,
        relay: RelayPolicy,
        beta_cap: Packets,
    ) {
        let nodes = &self.nodes;
        if self.caps_mask.len() == nodes.len()
            && nodes.iter().zip(&self.caps_mask).all(|(&g, &m)| up(g) == m)
        {
            return;
        }
        self.caps_mask.clear();
        self.caps_mask.extend(nodes.iter().map(|&g| up(g)));
        let (net, mask) = (&self.net, &self.caps_mask);
        self.routing.rebuild(
            nodes.len(),
            net.topology()
                .ordered_pairs()
                .filter(|&(i, j)| !net.link_bands(i, j).is_empty())
                .filter(|&(i, j)| mask[i.index()] && mask[j.index()])
                .filter(|&(i, _)| relay.may_relay(net, i))
                .map(|(i, j)| (i, j, beta_cap)),
        );
        self.reserve_routing(self.routing.caps().len());
    }

    /// Recomputes the link service from the (possibly shed) schedule —
    /// the only S3 input a degradation retry changes; the flow plan does
    /// not read the schedule.
    pub(crate) fn refresh_link_service(
        &mut self,
        spectrum: &SpectrumState,
        phy: &PhyConfig,
        config: &ControllerConfig,
    ) {
        link_service_into(&self.outcome, spectrum, phy, config, &mut self.link_service);
    }

    /// Applies the slot's energy decisions to the part's batteries, takes
    /// the part's Ψ̂₁–Ψ̂₃ summands into [`Part::psi`], then advances the
    /// queue banks by the slot's decisions into [`Part::advanced`], with
    /// this part's Lyapunov term before the advance (from the slot's
    /// shifted levels) and after it (from the post-slot levels), and its
    /// backlog totals. `beta` is the controller's `β`.
    ///
    /// Debug builds also check the queue laws (15) and (28) as
    /// conservation over the queues the slot names:
    /// `ΣQ(t+1) + delivered(t) = ΣQ(t) + admitted(t) + phantom(t)` and
    /// `ΣG(t+1) = ΣG(t) + routed(t) − useful service(t)`.
    pub(crate) fn advance(&mut self, v: f64, gamma_max: f64, beta: f64) {
        self.energy.advance(v, gamma_max);
        self.psi_terms(beta);
        let lyapunov = |p: &Self, z: &[f64]| lyapunov_value(&p.data, &p.links, z.iter().copied());
        let lyapunov_before = lyapunov(self, &self.energy.z);
        self.admission_triples.clear();
        self.admission_triples.extend(
            self.admissions
                .iter()
                .filter(|a| a.packets > Packets::ZERO)
                .map(|a| (a.session, a.source, a.packets)),
        );
        let admitted = self
            .admission_triples
            .iter()
            .map(|&(_, _, k)| k.count())
            .sum();
        let routed = self.flows.total().count();
        let law = cfg!(debug_assertions).then(|| self.queue_law_terms());
        self.data.advance(&self.flows, &self.admission_triples);
        self.links.advance(&self.flows, &self.link_service);
        if let Some(before) = law {
            self.check_queue_laws(before, admitted, routed);
        }
        self.advanced = PartAdvance {
            lyapunov_before,
            lyapunov_after: lyapunov(self, &self.energy.z_after),
            admitted,
            routed,
            scheduled_links: self.outcome.schedule.len(),
            backlog: self.backlog(),
        };
    }

    /// The slot's Ψ̂₁–Ψ̂₃ summands against the queues as they stand.
    /// [`Part::psi3_terms`] pairs the flows' coefficients with their
    /// packets.
    fn psi_terms(&mut self, beta: f64) {
        let (data, links, psi) = (&self.data, &self.links, &mut self.psi);
        psi.service.clear();
        psi.service.extend(
            self.link_service
                .iter()
                .map(|&(i, j, pkts)| links.h(i, j) * pkts.count_f64()),
        );
        psi.admissions.clear();
        psi.admissions.extend(self.admissions.iter().map(|a| {
            (
                data.backlog(a.source, a.session).count_f64(),
                a.packets.count_f64(),
            )
        }));
        psi.flows.clear();
        psi.flows
            .extend(self.flows.iter_nonzero().map(|(s, i, j, _)| {
                -data.backlog(i, s).count_f64()
                    + data.backlog(j, s).count_f64()
                    + beta * links.h(i, j)
            }));
    }

    /// The part's Ψ̂₃ summands `(coefficient, l^s_ij)`, valid after
    /// [`Part::advance`] (whose queue advance leaves the flow plan as it
    /// was).
    pub(crate) fn psi3_terms(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        (self.psi.flows.iter())
            .zip(self.flows.iter_nonzero())
            .map(|(&coeff, (_, _, _, l))| (coeff, l.count_f64()))
    }

    /// The part's data backlog at base stations and at users, in
    /// O(non-empty queues).
    pub(crate) fn backlog(&self) -> [u64; 2] {
        let mut totals = [0, 0];
        for (i, _, q) in self.data.nonempty_backlogs() {
            totals[usize::from(!self.energy.is_bs[i.index()])] += q.count();
        }
        totals
    }

    /// Collects the queues this slot's flows, admissions and service name
    /// and reads their queue-law terms before the advance.
    fn queue_law_terms(&mut self) -> LawTerms {
        let n = self.nodes.len();
        let (data, links) = (&mut self.law_data, &mut self.law_links);
        for (s, i, j, _) in self.flows.iter_nonzero() {
            data.extend([s.index() * n + i.index(), s.index() * n + j.index()]);
            links.push(i.index() * n + j.index());
        }
        data.extend(
            self.admission_triples
                .iter()
                .map(|&(s, i, _)| s.index() * n + i.index()),
        );
        links.extend(
            self.link_service
                .iter()
                .map(|&(i, j, _)| i.index() * n + j.index()),
        );
        for keys in [data, links] {
            keys.sort_unstable();
            keys.dedup();
        }
        let mut terms = self.law_terms();
        terms.useful_service = self
            .link_service
            .iter()
            .map(|&(i, j, b)| self.links.g(i, j).min(b).count())
            .sum();
        terms
    }

    /// The queue-law terms of the collected queues as they stand.
    fn law_terms(&self) -> LawTerms {
        let n = self.nodes.len();
        let node = NodeId::from_index;
        let total = |v: &[Packets]| v.iter().map(|p| p.count()).sum();
        LawTerms {
            data: (self.law_data.iter())
                .map(|&k| {
                    let s = SessionId::from_index(k / n);
                    self.data.backlog(node(k % n), s).count()
                })
                .sum(),
            links: (self.law_links.iter())
                .map(|&k| self.links.g(node(k / n), node(k % n)).count())
                .sum(),
            delivered: total(self.data.delivered_per_session()),
            phantom: total(self.data.phantom_per_session()),
            useful_service: 0,
        }
    }

    /// Compares the terms after the advance with `before`.
    fn check_queue_laws(&mut self, before: LawTerms, admitted: u64, routed: u64) {
        let after = self.law_terms();
        let (first, n) = (
            self.nodes.first().copied().unwrap_or_default(),
            self.nodes.len(),
        );
        debug_assert_eq!(
            after.data + (after.delivered - before.delivered),
            before.data + admitted + (after.phantom - before.phantom),
            "part from global node {first} ({n} nodes): queue law (15) does not conserve packets"
        );
        debug_assert_eq!(
            after.links,
            before.links + routed - before.useful_service,
            "part from global node {first} ({n} nodes): queue law (28) does not conserve packets"
        );
        self.law_data.clear();
        self.law_links.clear();
    }
}

/// The queue-law terms over the queues a slot names: their data and link
/// backlogs, the part's delivered and phantom totals, and (before the
/// advance) the service the schedule can actually use, `Σ min(G_ij, b_ij)`.
#[derive(Debug, Clone, Copy)]
struct LawTerms {
    data: u64,
    links: u64,
    delivered: u64,
    phantom: u64,
    useful_service: u64,
}

/// Realized per-link service in packets for the scheduled links, written
/// into `out` (cleared first; capacity retained). Power control
/// guarantees `SINR ≥ Γ` for every kept link, so Eq. (1)'s top branch
/// applies.
pub(crate) fn link_service_into(
    outcome: &ScheduleOutcome,
    spectrum: &SpectrumState,
    phy: &PhyConfig,
    config: &ControllerConfig,
    out: &mut Vec<(NodeId, NodeId, Packets)>,
) {
    out.clear();
    out.extend(outcome.schedule.transmissions().iter().map(|t| {
        let capacity = potential_capacity(spectrum.bandwidth(t.band()), phy);
        (
            t.tx(),
            t.rx(),
            packets_per_slot(capacity, config.packet_size, config.slot),
        )
    }));
}

/// Runs `f` once on every item of `items` on up to `workers` threads: in
/// order on the calling thread when `workers ≤ 1` or there is at most one
/// item, otherwise on the calling thread plus `workers − 1` scoped threads
/// that claim items one at a time, so one slow item never idles the rest.
/// An item touches only its own state, so results never depend on
/// `workers`.
///
/// This is the workspace's one thread fan-out: the exact controller's
/// [`Part`]s, the relaxed controller's parts and the sweep engine's point
/// slots all run through it.
pub fn fan_out<T: Send>(items: &mut [T], workers: usize, f: &(dyn Fn(&mut T) + Sync)) {
    let workers = workers.min(items.len());
    if workers <= 1 {
        items.iter_mut().for_each(f);
        return;
    }
    let queue = Mutex::new(items.iter_mut());
    // The lock is held only to claim the next item, never while `f` runs,
    // so a panicking `f` cannot poison it.
    let claim = || queue.lock().expect("claiming never panics").next();
    let work = || {
        while let Some(item) = claim() {
            f(item);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencell_energy::NodeEnergyModel;
    use greencell_net::{BandId, BandSet, NetworkBuilder, PathLossModel, Point};
    use greencell_units::DataRate;

    /// Two BSs and four users on two bands; user 5 hears only band 1, so
    /// its pairs with band-0-only user 4 carry no shared band.
    fn cap_fixture_part() -> Part {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 2);
        b.add_base_station(Point::new(0.0, 0.0));
        b.add_base_station(Point::new(900.0, 0.0));
        for k in 0..4 {
            b.add_user(Point::new(200.0 + 150.0 * k as f64, 120.0));
        }
        b.set_bands(
            NodeId::from_index(4),
            BandSet::from_iter([BandId::from_index(0)]),
        );
        b.set_bands(
            NodeId::from_index(5),
            BandSet::from_iter([BandId::from_index(1)]),
        );
        b.add_session(
            NodeId::from_index(3),
            DataRate::from_kilobits_per_second(100.0),
        );
        let net = b.build().unwrap();
        let n = net.topology().len();
        let model = NodeEnergyModel::new(
            Energy::from_joules(10.0),
            Energy::from_joules(5.0),
            Power::from_milliwatts(100.0),
        );
        let spec = PartSpec {
            net,
            nodes: (0..n).collect(),
            sessions: vec![0],
        };
        let node = crate::NodeEnergyConfig {
            battery: greencell_energy::Battery::new(
                Energy::from_kilowatt_hours(1.0),
                Energy::from_kilowatt_hours(0.1),
                Energy::from_kilowatt_hours(0.1),
            ),
            energy_model: model,
            max_power: Power::from_watts(1.0),
            grid_limit: Energy::from_kilowatt_hours(0.2),
        };
        let energy = EnergyConfig {
            nodes: vec![node; 6],
            cost: greencell_energy::QuadraticCost::paper_default(),
        };
        let is_bs = [true, true, false, false, false, false];
        Part::new(spec, &energy, &is_bs, 10.0, false)
    }

    /// The caps rebuilt from scratch over `ordered_pairs()`.
    fn fresh_caps(
        part: &Part,
        mask: &[bool],
        relay: RelayPolicy,
        cap: Packets,
    ) -> Vec<(NodeId, NodeId, Packets)> {
        let net = &part.net;
        net.topology()
            .ordered_pairs()
            .filter(|&(i, j)| !net.link_bands(i, j).is_empty())
            .filter(|&(i, j)| mask[i.index()] && mask[j.index()])
            .filter(|&(i, _)| relay.may_relay(net, i))
            .map(|(i, j)| (i, j, cap))
            .collect()
    }

    /// The caps kept across slots equal a fresh rebuild after a node goes
    /// down and after it comes back up, under both relay policies.
    #[test]
    fn cached_routing_caps_match_a_fresh_rebuild() {
        let cap = Packets::new(7);
        let all_up = vec![true; 6];
        let mut bs_down = all_up.clone();
        bs_down[1] = false;
        let mut user_down = all_up.clone();
        user_down[3] = false;
        for relay in [RelayPolicy::MultiHop, RelayPolicy::OneHop] {
            let mut part = cap_fixture_part();
            let mut previous = Vec::new();
            for mask in [&all_up, &all_up, &bs_down, &all_up, &user_down, &all_up] {
                part.update_routing_caps(|g| mask[g], relay, cap);
                let fresh = fresh_caps(&part, mask, relay, cap);
                let table = &part.routing;
                assert_eq!(table.caps(), fresh, "{}: {mask:?}", relay.key());
                // Sender offsets index exactly the fresh caps of each node,
                // in cap order, and the lookup finds exactly the fresh links.
                for k in 0..6 {
                    let node = NodeId::from_index(k);
                    let out: Vec<usize> =
                        (0..fresh.len()).filter(|&x| fresh[x].0 == node).collect();
                    assert_eq!(table.out_links(node).collect::<Vec<_>>(), out, "{mask:?}");
                    for l in 0..6 {
                        let to = NodeId::from_index(l);
                        let at = fresh.iter().position(|&(i, j, _)| (i, j) == (node, to));
                        assert_eq!(table.link(node, to), at, "{mask:?}");
                    }
                }
                let mut rebuilt = RoutingTable::default();
                rebuilt.rebuild(6, fresh.iter().copied());
                assert_eq!(table, &rebuilt);
                assert!(!fresh.is_empty());
                if mask != &all_up {
                    assert_ne!(
                        fresh,
                        previous,
                        "{}: the outage must change the caps",
                        relay.key()
                    );
                }
                previous = fresh;
            }
        }
    }

    /// Every item is visited exactly once at any worker count, including
    /// none, one, and more workers than items.
    #[test]
    fn fan_out_visits_every_item_exactly_once() {
        for len in [0, 1, 7] {
            for workers in [0, 1, 2, 3, len, len + 4] {
                let mut items = vec![0u32; len];
                fan_out(&mut items, workers, &|x| *x += 1);
                assert_eq!(items, vec![1; len], "{len} items, {workers} workers");
            }
        }
    }

    #[test]
    fn union_find_collapses_to_dense_ascending_clusters() {
        let mut parent: Vec<usize> = (0..6).collect();
        ClusterSet::union(&mut parent, 4, 1);
        ClusterSet::union(&mut parent, 5, 2);
        ClusterSet::union(&mut parent, 2, 1);
        let set = ClusterSet::from_union_find(&mut parent);
        assert_eq!(set.clusters(), &[vec![0], vec![1, 2, 4, 5], vec![3]]);
        assert_eq!(set.membership(), &[0, 1, 1, 2, 1, 1]);
        assert_eq!(set.largest(), 4);
        assert_eq!(ClusterSet::single(3).clusters(), &[vec![0, 1, 2]]);
        assert!(ClusterSet::single(0).is_empty());
    }
}
