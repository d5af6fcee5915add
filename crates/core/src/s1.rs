//! S1 — link scheduling: choose the activations `α^m_ij(t)` minimizing
//! `Ψ̂₁(t) = −(β/δ)·Σ_ij H_ij(t)·Σ_m c^m_ij(t)·α^m_ij(t)·Δt` (§IV-C1).
//!
//! Two algorithms share candidate generation and the power probe:
//!
//! * [`greedy_schedule`] — admit candidates in decreasing
//!   `H_ij(t)·c^m_ij(t)` order, keeping (22) and (24) feasible throughout;
//! * [`sequential_fix_schedule`] — the paper's sequential-fix heuristic:
//!   solve the LP relaxation (with the big-M linearization of (24) and the
//!   standard `q = P·α` product substitution of Hou et al.), round the
//!   largest fractional activation to one, and repeat.
//!
//! Both probe each candidate with one exact solve of (24) for the least
//! powers of the schedule so far ([`PowerControlWorkspace`], whose factors
//! of the accepted links survive across probes, so a probe costs `O(k²)`
//! in the `k` links held), and the last accepted probe's solution is the
//! slot's power vector: S4's objective is non-decreasing in every node's
//! demand, so minimal transmit powers are optimal for a fixed schedule.
//!
//! Candidates are pruned exactly as the paper prescribes: `α^m_ij` is fixed
//! to zero wherever `H_ij(t) = 0` (nothing buffered for the link means
//! activating it cannot reduce `Ψ̂₁`). An additional *energy admission*
//! check — worst-case transmit/receive energy must fit within the node's
//! maximum same-slot supply — keeps S4 feasible later in the pipeline.
//!
//! The scheduling paths never sort the full `(i, j, m)` candidate list.
//! They hold one packed key per admissible link (its best band) in a lazy
//! frontier and merge: a link whose head is rejected offers its next band,
//! a link with a busy endpoint is dropped. That yields the full sort's
//! candidates in the same order wherever the outcome can depend on them,
//! and it wastes no work on keys the merge never reaches:
//!
//! * a link's head is built as one key, not as the minimum of one key per
//!   band. Its `tx` and `rx` are fixed, so its keys order by weight
//!   descending, then band ascending (a `+∞` weight first); scanning the
//!   bands in ascending order and keeping a weight only when it is
//!   strictly larger than the best so far picks the same band;
//! * the frontier sorts only the chunk of smallest keys the loop is about
//!   to reach, and drops the keys with a busy endpoint before it picks the
//!   next chunk. A busy node stays busy, so that filter removes nothing
//!   unless a node turned busy since it last ran: it is skipped while the
//!   busy count has not grown, which covers every slot's first refill and
//!   every refill of sequential-fix's pool.
//!
//! The reference implementations keep the full sort and the
//! Foschini–Miljanic iteration ([`min_power_assignment_reference`]) as
//! the oracle.

use greencell_energy::NodeEnergyModel;
use greencell_lp::{LinearProgram, Relation};
use greencell_net::{BandId, BandSet, Network, NodeId};
use greencell_phy::{
    min_power_assignment_reference, packets_per_slot, potential_capacity, sinr_into, PhyConfig,
    PowerControlWorkspace, Schedule, SpectrumState, Transmission,
};
use greencell_queue::LinkQueueBank;
use greencell_units::{Energy, PacketSize, Power, TimeDelta};

/// The result of S1: a feasible schedule plus its minimal power vector
/// (one power per transmission, in schedule order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScheduleOutcome {
    /// The activations `α^m_ij(t) = 1`.
    pub schedule: Schedule,
    /// Minimal feasible transmit powers (constraint (24) tight or slack).
    pub powers: Vec<Power>,
}

impl ScheduleOutcome {
    /// An empty outcome (idle slot).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Empties the outcome in place, retaining both allocations so an
    /// outcome reused across slots allocates nothing in steady state.
    pub fn clear(&mut self) {
        self.schedule.clear();
        self.powers.clear();
    }

    /// Pre-allocates room for `entries` transmissions and their powers —
    /// pass the single-radio bound `⌊n/2⌋` to make every later slot
    /// allocation-free regardless of how large schedules get.
    pub fn reserve(&mut self, entries: usize) {
        self.schedule.reserve(entries);
        self.powers.reserve(entries);
    }
}

/// Reusable S1 buffers: the per-link candidate frontier, the per-band
/// `packets_per_slot` memo, the per-node energy-admission memos, and the
/// [`PowerControlWorkspace`] that probes candidate feasibility and holds
/// the slot's powers. Thread one of these through
/// [`greedy_schedule_with`] / [`sequential_fix_schedule_with`] across
/// slots and the steady-state greedy path performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct S1Scratch {
    /// One packed `Candidate` key per backlogged, admissible link: the
    /// link's best band not yet probed.
    frontier: Frontier,
    /// `packets_per_slot(potential_capacity(W_m))` memo, indexed by band —
    /// capacity depends only on the band's bandwidth, so it is computed
    /// once per band per slot instead of once per candidate.
    pkts_per_band: Vec<f64>,
    /// Per-node worst-case transmit-energy admission, once per slot.
    tx_ok: Vec<bool>,
    /// Per-node worst-case receive-energy admission, once per slot.
    rx_ok: Vec<bool>,
    /// Per-slot power-control system: cleared at the start of each call,
    /// it holds the accepted schedule after the last probe.
    ws: PowerControlWorkspace,
    /// Sequential-fix working set (the still-unfixed candidates).
    active: Vec<Candidate>,
    /// Greedy-loop busy mask: `busy[n]` ⇔ node `n` appears in an accepted
    /// transmission — the same predicate as `Schedule::is_busy`, without
    /// the per-candidate schedule scan.
    busy: Vec<bool>,
    /// The number of `true` entries in `busy`.
    busy_count: usize,
    /// Per-link SINR at the returned powers, for the debug-build check of
    /// constraint (24).
    sinr: Vec<f64>,
}

impl S1Scratch {
    /// An empty scratch; buffers grow on first use and are retained.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows every buffer for a `nodes`-node, `bands`-band network with at
    /// most `max_links` ordered pairs sharing a band (the static bound on
    /// the per-slot key list: one key per link, not per band). After this,
    /// scheduling allocates nothing even when traffic hits a new peak.
    pub fn reserve(&mut self, nodes: usize, bands: usize, max_links: usize) {
        self.frontier.rest.reserve(max_links);
        self.frontier.chunk.reserve(CHUNK);
        self.active
            .reserve(max_links.saturating_mul(bands).min(MAX_SF_CANDIDATES));
        self.pkts_per_band.reserve(bands);
        self.tx_ok.reserve(nodes);
        self.rx_ok.reserve(nodes);
        self.busy.reserve(nodes);
        self.ws.reserve(nodes / 2 + 1);
        self.sinr.reserve(nodes / 2);
    }
}

/// A candidate activation with its `Ψ̂₁` weight.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    tx: NodeId,
    rx: NodeId,
    band: BandId,
    weight: f64,
}

/// Low 21 bits: the width of the `rx` and `band` fields of a packed key.
const FIELD: u128 = (1 << 21) - 1;

impl Candidate {
    /// Packs the candidate into one integer whose ascending order is the
    /// scheduling order: weight descending, then tx, rx, band. Every
    /// weight is positive and finite, so its complemented bits sort
    /// descending by value and set the key's top bit (every key exceeds 0).
    fn key(tx: NodeId, rx: NodeId, band: BandId, weight: f64) -> u128 {
        (u128::from(!weight.to_bits()) << 64)
            | ((tx.index() as u128) << 42)
            | ((rx.index() as u128) << 21)
            | band.index() as u128
    }

    /// The exact inverse of [`Candidate::key`], weight bits included.
    fn from_key(key: u128) -> Self {
        Self {
            tx: NodeId::from_index(((key >> 42) & ((1 << 22) - 1)) as usize),
            rx: NodeId::from_index(((key >> 21) & FIELD) as usize),
            band: BandId::from_index((key & FIELD) as usize),
            weight: f64::from_bits(!((key >> 64) as u64)),
        }
    }
}

/// Shared inputs of both S1 algorithms.
#[derive(Debug)]
pub struct S1Inputs<'a> {
    /// The network being scheduled.
    pub net: &'a Network,
    /// Physical-layer constants.
    pub phy: &'a PhyConfig,
    /// This slot's observed bandwidths.
    pub spectrum: &'a SpectrumState,
    /// The virtual link queues supplying the `H_ij(t)` weights.
    pub links: &'a LinkQueueBank,
    /// Per-node transmit power caps `P^i_max`.
    pub max_powers: &'a [Power],
    /// Per-node demand models (receive power for the energy check).
    pub energy_models: &'a [NodeEnergyModel],
    /// Max energy each node can source this slot beyond fixed overheads.
    pub traffic_budget: &'a [Energy],
    /// Per-node availability (fault injection): a down node is excluded
    /// from every candidate activation. Empty means all nodes are up.
    pub available: &'a [bool],
    /// The slot duration `Δt`.
    pub slot: TimeDelta,
    /// Fixed packet size used to quantize per-slot service.
    pub packet_size: PacketSize,
}

/// Refreshes the per-band capacity memo and the per-node energy-admission
/// memos for this slot. Zero heap allocation once the buffers have grown.
fn refresh_memos(inp: &S1Inputs<'_>, scratch: &mut S1Scratch) {
    // Per-band memo: `c^m = potential_capacity(W_m)` depends only on the
    // band's bandwidth, never on the candidate pair, so quantize it once
    // per band instead of once per (i, j, m).
    scratch.pkts_per_band.clear();
    scratch
        .pkts_per_band
        .extend((0..inp.spectrum.band_count()).map(|m| {
            let c = potential_capacity(inp.spectrum.bandwidth(BandId::from_index(m)), inp.phy);
            // Weight by the *quantized* per-slot service `μ^m_ij` — the exact
            // quantity Ψ̂₁ sums — rather than the continuous capacity. The two
            // orderings disagree near packet-count boundaries, and the greedy
            // single-best-activation guarantee only holds for the former.
            packets_per_slot(c, inp.packet_size, inp.slot).count_f64()
        }));

    // Per-node memo of the worst-case energy admission: transmitting at
    // `P_max` (resp. receiving) must fit in the node's traffic budget for
    // this slot. Both sides depend on one node only, so compute each once
    // per node per slot instead of once per ordered pair.
    scratch.tx_ok.clear();
    scratch.rx_ok.clear();
    for i in 0..inp.net.topology().len() {
        let budget = inp.traffic_budget[i].as_joules();
        let tx_worst = inp.max_powers[i] * inp.slot;
        let rx_worst = inp.energy_models[i].recv_power() * inp.slot;
        scratch.tx_ok.push(tx_worst.as_joules() <= budget);
        scratch.rx_ok.push(rx_worst.as_joules() <= budget);
    }
}

/// The links that may carry a candidate this slot, with their `H_ij(t)`,
/// in row-major order.
///
/// Only the backlogged links are scanned: the paper fixes α to 0 wherever
/// `H_ij(t) = 0`, so the empty queues — the vast majority of the `O(n²)`
/// ordered pairs in steady state — can never yield a candidate.
fn admissible_links<'s>(
    inp: &'s S1Inputs<'_>,
    scratch: &'s S1Scratch,
) -> impl Iterator<Item = (NodeId, NodeId, f64)> + 's {
    let up = |node: NodeId| inp.available.get(node.index()).copied().unwrap_or(true);
    let beta = inp.links.beta();
    inp.links.backlogs().filter_map(move |(i, j, g)| {
        let h = beta * g.count_f64();
        // β = 0 weights every link to zero; a down node (fault injection)
        // never transmits or receives; the energy memos gate the rest.
        (h > 0.0 && up(i) && up(j) && scratch.tx_ok[i.index()] && scratch.rx_ok[j.index()])
            .then_some((i, j, h))
    })
}

/// The keys of link `(tx, rx)`'s candidates on its shared `bands`: one
/// per band with a positive weight `H_ij·c^m`.
fn link_keys(
    bands: BandSet,
    pkts_per_band: &[f64],
    tx: NodeId,
    rx: NodeId,
    h: f64,
) -> impl Iterator<Item = u128> + '_ {
    bands.iter().filter_map(move |m| {
        let weight = h * pkts_per_band[m.index()];
        (weight > 0.0).then(|| Candidate::key(tx, rx, m, weight))
    })
}

/// The smallest of [`link_keys`], built as one key: the band with the
/// largest positive weight, the lowest such band on ties. Positive
/// weights compare as their bits do (`+∞` above every finite one), and a
/// NaN weight passes neither this `>` nor `link_keys`' filter.
fn head_key(bands: BandSet, pkts_per_band: &[f64], tx: NodeId, rx: NodeId, h: f64) -> Option<u128> {
    let mut best = None;
    let mut best_weight = 0.0;
    for m in bands.iter() {
        let weight = h * pkts_per_band[m.index()];
        if weight > best_weight {
            best_weight = weight;
            best = Some(m);
        }
    }
    best.map(|m| Candidate::key(tx, rx, m, best_weight))
}

/// Fills the frontier with each admissible link's best candidate key,
/// unsorted. Zero heap allocation once the buffers have grown.
///
/// Each link's candidates, in key order, form one sorted list, and the
/// full candidate order is the merge of those lists. The heads are that
/// merge's frontier: [`Frontier::advance`] moves it one candidate on.
fn heads_into(inp: &S1Inputs<'_>, scratch: &mut S1Scratch) {
    refresh_memos(inp, scratch);
    let mut heads = std::mem::take(&mut scratch.frontier.rest);
    heads.clear();
    heads.extend(admissible_links(inp, scratch).filter_map(|(i, j, h)| {
        head_key(inp.net.link_bands(i, j), &scratch.pkts_per_band, i, j, h)
    }));
    scratch.frontier.rest = heads;
    scratch.frontier.chunk.clear();
    scratch.frontier.pos = 0;
    scratch.frontier.filtered_at = 0;
}

/// Keys the frontier sorts at a time.
const CHUNK: usize = 32;

/// The heads of the per-link merge, ordered lazily: `chunk[pos..]` holds
/// the smallest keys, sorted, and `rest` every other key, unsorted and
/// above `chunk`'s last. Only the keys the loop reaches get sorted.
#[derive(Debug, Clone, Default)]
struct Frontier {
    /// The sorted chunk; `chunk[..pos]` is consumed.
    chunk: Vec<u128>,
    /// The next key to consume in `chunk`.
    pos: usize,
    /// The unsorted heads beyond the chunk.
    rest: Vec<u128>,
    /// The busy count when `rest` was last filtered: no key in `rest` has
    /// an endpoint that was busy then.
    filtered_at: usize,
}

impl Frontier {
    /// The smallest key, or `None` once every link is consumed. An empty
    /// chunk refills from `rest`: the keys with a `busy` endpoint go first
    /// (a busy node stays busy, so the loop would drop them unprobed),
    /// then the `CHUNK` smallest survivors are selected and sorted.
    /// `busy_count` counts the busy nodes; while it equals the count at
    /// the last filter, no node turned busy since, and the filter is
    /// skipped: it would remove nothing.
    fn peek(&mut self, busy: &[bool], busy_count: usize) -> Option<u128> {
        if self.pos == self.chunk.len() {
            if busy_count != self.filtered_at {
                self.rest.retain(|&key| {
                    let c = Candidate::from_key(key);
                    !busy[c.tx.index()] && !busy[c.rx.index()]
                });
                self.filtered_at = busy_count;
            }
            let at = self.rest.len().saturating_sub(CHUNK);
            if at > 0 {
                // Descending, so the smallest keys end up in the tail.
                self.rest.select_nth_unstable_by(at, |a, b| b.cmp(a));
            }
            self.chunk.clear();
            self.chunk.extend(self.rest.drain(at..));
            self.chunk.sort_unstable();
            self.pos = 0;
        }
        self.chunk.get(self.pos).copied()
    }

    /// Consumes the key [`Frontier::peek`] returned. `next`, the link's
    /// next band (its smallest key above the consumed one), takes the
    /// consumed key's place: shifted into sorted position when it falls
    /// below the chunk's last key, into `rest` otherwise. `None` drops the
    /// link.
    fn advance(&mut self, next: Option<u128>) {
        match next {
            Some(next) if self.chunk.last().is_some_and(|&last| next < last) => {
                let after = self.pos + 1;
                let shift = self.chunk[after..].partition_point(|&k| k < next);
                self.chunk.copy_within(after..after + shift, self.pos);
                self.chunk[self.pos + shift] = next;
            }
            Some(next) => {
                self.rest.push(next);
                self.pos += 1;
            }
            None => self.pos += 1,
        }
    }
}

/// The key of the consumed candidate `key`'s link on its next band: the
/// link's smallest key above `key`.
fn next_band(inp: &S1Inputs<'_>, pkts_per_band: &[f64], key: u128) -> Option<u128> {
    let c = Candidate::from_key(key);
    let h = inp.links.h(c.tx, c.rx);
    link_keys(inp.net.link_bands(c.tx, c.rx), pkts_per_band, c.tx, c.rx, h)
        .filter(|&k| k > key)
        .min()
}

/// The full candidate list in scheduling order (weight desc, then ids) —
/// the references' own generator, one full sort over every `(i, j, m)`.
fn candidates(inp: &S1Inputs<'_>) -> Vec<Candidate> {
    let mut scratch = S1Scratch::new();
    refresh_memos(inp, &mut scratch);
    let mut keys: Vec<u128> = admissible_links(inp, &scratch)
        .flat_map(|(i, j, h)| link_keys(inp.net.link_bands(i, j), &scratch.pkts_per_band, i, j, h))
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(Candidate::from_key).collect()
}

/// Weight-greedy S1 (see [`crate::SchedulerKind::Greedy`]).
///
/// Convenience wrapper over [`greedy_schedule_with`] with throwaway
/// buffers; per-slot callers should hold an [`S1Scratch`] instead.
#[must_use]
pub fn greedy_schedule(inp: &S1Inputs<'_>) -> ScheduleOutcome {
    let mut scratch = S1Scratch::new();
    let mut out = ScheduleOutcome::empty();
    greedy_schedule_with(inp, &mut scratch, &mut out);
    out
}

/// Weight-greedy S1 over reusable buffers.
///
/// Candidates come from the per-link key merge in the reference's
/// full-sort order: a link whose head is rejected offers its
/// next band, a link with a busy endpoint is dropped. Each probe solves
/// (24) exactly for the accepted links plus the candidate
/// ([`PowerControlWorkspace`]), extending the accepted links' factors by
/// one row and column; a rejected candidate is undone in `O(n)`. After
/// the last probe the workspace holds exactly the schedule, and its
/// solution is `out.powers`.
pub fn greedy_schedule_with(
    inp: &S1Inputs<'_>,
    scratch: &mut S1Scratch,
    out: &mut ScheduleOutcome,
) {
    heads_into(inp, scratch);
    out.clear();
    scratch.ws.clear();
    scratch.busy.clear();
    scratch.busy.resize(inp.net.topology().len(), false);
    scratch.busy_count = 0;
    while let Some(key) = scratch.frontier.peek(&scratch.busy, scratch.busy_count) {
        let cand = Candidate::from_key(key);
        let free = !scratch.busy[cand.tx.index()] && !scratch.busy[cand.rx.index()];
        let mut accepted = false;
        if free {
            let t = Transmission::new(cand.tx, cand.rx, cand.band);
            if let Ok(idx) = out.schedule.try_add(inp.net, t) {
                if scratch
                    .ws
                    .probe(inp.net, inp.spectrum, inp.phy, inp.max_powers, t)
                    .is_err()
                {
                    out.schedule.remove(idx);
                } else {
                    scratch.busy[cand.tx.index()] = true;
                    scratch.busy[cand.rx.index()] = true;
                    scratch.busy_count += 2;
                    accepted = true;
                }
            }
        }
        let next = if free && !accepted {
            next_band(inp, &scratch.pkts_per_band, key)
        } else {
            None
        };
        scratch.frontier.advance(next);
    }
    read_powers(inp, scratch, out);
}

/// Copies the workspace's solution into `out.powers` and, in debug
/// builds, checks constraint (24) and the caps on every scheduled link.
fn read_powers(inp: &S1Inputs<'_>, scratch: &mut S1Scratch, out: &mut ScheduleOutcome) {
    out.powers.clear();
    let powers = scratch.ws.powers_watts().iter();
    out.powers.extend(powers.copied().map(Power::from_watts));
    if cfg!(debug_assertions) {
        let violation = first_sinr_violation(inp, out, &mut scratch.sinr);
        debug_assert!(
            violation.is_none(),
            "S1 link #{} violates constraint (24) or its cap: schedule {:?}, \
             powers {:?}, SINR {:?}",
            violation.unwrap_or_default(),
            out.schedule.transmissions(),
            out.powers,
            scratch.sinr
        );
    }
}

/// The first scheduled link of `outcome` whose SINR at `outcome.powers`
/// falls below `Γ·(1 − 10⁻⁹)`, or whose power exceeds its transmitter's
/// cap; `None` when every link satisfies constraint (24). A link at zero
/// power with zero noise and zero interference (SINR `0/0`) satisfies it
/// as `0 ≥ 0`. `sinr` is scratch.
///
/// # Panics
///
/// Panics if `outcome.powers.len()` differs from the schedule length.
#[must_use]
pub fn first_sinr_violation(
    inp: &S1Inputs<'_>,
    outcome: &ScheduleOutcome,
    sinr: &mut Vec<f64>,
) -> Option<usize> {
    sinr_into(
        inp.net,
        &outcome.schedule,
        inp.spectrum,
        inp.phy,
        &outcome.powers,
        sinr,
    );
    let target = inp.phy.sinr_threshold() * (1.0 - 1e-9);
    let txs = outcome.schedule.transmissions();
    (0..txs.len()).find(|&k| {
        let (s, p) = (sinr[k], outcome.powers[k]);
        let meets = s >= target || (s.is_nan() && p == Power::ZERO);
        !meets || p > inp.max_powers[txs[k].tx().index()]
    })
}

/// Reference implementation of [`greedy_schedule`]: the full candidate
/// sort, and one [`min_power_assignment_reference`] iteration over the
/// whole schedule per probed candidate. The test oracle of
/// [`greedy_schedule_with`].
#[must_use]
pub fn greedy_schedule_reference(inp: &S1Inputs<'_>) -> ScheduleOutcome {
    let mut schedule = Schedule::new();
    let mut powers: Vec<Power> = Vec::new();
    for cand in candidates(inp) {
        if schedule.is_busy(cand.tx) || schedule.is_busy(cand.rx) {
            continue;
        }
        let t = Transmission::new(cand.tx, cand.rx, cand.band);
        let idx = match schedule.try_add(inp.net, t) {
            Ok(idx) => idx,
            Err(_) => continue,
        };
        match min_power_assignment_reference(
            inp.net,
            &schedule,
            inp.spectrum,
            inp.phy,
            inp.max_powers,
        ) {
            Ok(p) => powers = p,
            Err(_) => {
                schedule.remove(idx);
            }
        }
    }
    ScheduleOutcome { schedule, powers }
}

/// Candidate cap for the sequential-fix LPs. A feasible schedule activates
/// at most ⌊N/2⌋ links (single radio), so considering only the
/// highest-weight candidates loses little while keeping each LP small
/// enough to solve repeatedly per slot with the dense simplex.
const MAX_SF_CANDIDATES: usize = 40;

/// The paper's sequential-fix S1 (see
/// [`crate::SchedulerKind::SequentialFix`]).
///
/// Each round solves the LP relaxation over the still-unfixed candidates
/// (activations `α ∈ [0,1]`, power proxies `q ∈ [0, P_max·α]`, node-radio
/// rows (22), big-M SINR rows (24)), fixes every `α` at 1 — or the largest
/// fractional one — and re-checks exact power feasibility; candidates whose
/// fixing breaks (24) are fixed to 0 instead. The candidate pool is
/// truncated to the 40 highest weights (`MAX_SF_CANDIDATES`): a feasible
/// schedule activates at most ⌊N/2⌋ links, so little is lost while each
/// LP stays small enough to solve repeatedly per slot.
pub fn sequential_fix_schedule(inp: &S1Inputs<'_>) -> ScheduleOutcome {
    let mut scratch = S1Scratch::new();
    let mut out = ScheduleOutcome::empty();
    sequential_fix_schedule_with(inp, &mut scratch, &mut out);
    out
}

/// Sequential-fix S1 over reusable buffers, probing the exact power
/// feasibility of each fixing in the [`PowerControlWorkspace`], whose
/// solution after the last probe is `out.powers`, as in
/// [`greedy_schedule_with`]. The LP relaxations themselves still allocate
/// (one simplex tableau per fixing round): the zero-alloc audits exempt
/// sequential-fix, for the reasons DESIGN.md gives under "Zero
/// steady-state allocations".
pub fn sequential_fix_schedule_with(
    inp: &S1Inputs<'_>,
    scratch: &mut S1Scratch,
    out: &mut ScheduleOutcome,
) {
    heads_into(inp, scratch);
    out.clear();
    scratch.ws.clear();
    scratch.busy.clear();
    scratch.busy.resize(inp.net.topology().len(), false);
    // The pool is the first `MAX_SF_CANDIDATES` of the full candidate
    // order: consume every head in turn, each link offering its next band.
    // No node is busy, so no refill filters.
    scratch.active.clear();
    while scratch.active.len() < MAX_SF_CANDIDATES {
        let Some(key) = scratch.frontier.peek(&scratch.busy, 0) else {
            break;
        };
        scratch.active.push(Candidate::from_key(key));
        let next = next_band(inp, &scratch.pkts_per_band, key);
        scratch.frontier.advance(next);
    }

    while !scratch.active.is_empty() {
        // Drop candidates conflicting with the fixed set (single radio).
        let schedule = &out.schedule;
        scratch
            .active
            .retain(|c| !schedule.is_busy(c.tx) && !schedule.is_busy(c.rx));
        if scratch.active.is_empty() {
            break;
        }
        let Some(alphas) = solve_relaxation(inp, &out.schedule, &scratch.active) else {
            break; // LP troubles: stop fixing, keep what we have.
        };
        // Choose the largest fractional activation (the paper fixes all
        // exact ones first; fixing the maximum covers both cases since we
        // loop). Among activations tied at the maximum, prefer the highest
        // Ψ̂₁ weight — LP optima are often degenerate and rounding a
        // low-weight tie can block a high-weight candidate for good.
        let max_alpha = alphas.iter().copied().fold(f64::MIN, f64::max);
        if max_alpha < 1e-6 {
            break; // relaxation wants nothing more
        }
        let Some((best_idx, _)) = alphas
            .iter()
            .zip(&scratch.active)
            .enumerate()
            .filter(|(_, (&a, _))| a >= max_alpha - 1e-6)
            .map(|(k, (_, c))| (k, c.weight))
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            break; // unreachable: active is non-empty
        };
        let cand = scratch.active.swap_remove(best_idx);
        let t = Transmission::new(cand.tx, cand.rx, cand.band);
        if let Ok(idx) = out.schedule.try_add(inp.net, t) {
            if scratch
                .ws
                .probe(inp.net, inp.spectrum, inp.phy, inp.max_powers, t)
                .is_err()
            {
                out.schedule.remove(idx); // fix to 0 instead
            }
        }
    }
    read_powers(inp, scratch, out);
}

/// Reference implementation of [`sequential_fix_schedule`]: the full
/// candidate sort, and one [`min_power_assignment_reference`] iteration
/// per fixing. The test oracle of [`sequential_fix_schedule_with`].
#[must_use]
pub fn sequential_fix_schedule_reference(inp: &S1Inputs<'_>) -> ScheduleOutcome {
    let mut active = candidates(inp);
    active.truncate(MAX_SF_CANDIDATES);
    let mut schedule = Schedule::new();
    let mut powers: Vec<Power> = Vec::new();

    while !active.is_empty() {
        // Drop candidates conflicting with the fixed set (single radio).
        active.retain(|c| !schedule.is_busy(c.tx) && !schedule.is_busy(c.rx));
        if active.is_empty() {
            break;
        }
        let Some(alphas) = solve_relaxation(inp, &schedule, &active) else {
            break; // LP troubles: stop fixing, keep what we have.
        };
        let max_alpha = alphas.iter().copied().fold(f64::MIN, f64::max);
        if max_alpha < 1e-6 {
            break; // relaxation wants nothing more
        }
        let Some((best_idx, _)) = alphas
            .iter()
            .zip(&active)
            .enumerate()
            .filter(|(_, (&a, _))| a >= max_alpha - 1e-6)
            .map(|(k, (_, c))| (k, c.weight))
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            break; // unreachable: active is non-empty
        };
        let cand = active.swap_remove(best_idx);
        let t = Transmission::new(cand.tx, cand.rx, cand.band);
        if let Ok(idx) = schedule.try_add(inp.net, t) {
            match min_power_assignment_reference(
                inp.net,
                &schedule,
                inp.spectrum,
                inp.phy,
                inp.max_powers,
            ) {
                Ok(p) => powers = p,
                Err(_) => {
                    schedule.remove(idx); // fix to 0 instead
                }
            }
        }
    }
    ScheduleOutcome { schedule, powers }
}

/// Solves the sequential-fix LP relaxation; returns `α` per active
/// candidate, or `None` on solver failure.
fn solve_relaxation(
    inp: &S1Inputs<'_>,
    fixed: &Schedule,
    active: &[Candidate],
) -> Option<Vec<f64>> {
    let topo = inp.net.topology();
    let gamma = inp.phy.sinr_threshold();
    let mut lp = LinearProgram::new();

    // α and q per active candidate; q per fixed transmission (its power is
    // still a free variable in the relaxation).
    let alpha_vars: Vec<_> = active
        .iter()
        .map(|c| lp.add_variable(-c.weight, 0.0, 1.0))
        .collect();
    let q_active: Vec<_> = active
        .iter()
        .map(|c| lp.add_variable(0.0, 0.0, inp.max_powers[c.tx.index()].as_watts()))
        .collect();
    let q_fixed: Vec<_> = fixed
        .transmissions()
        .iter()
        .map(|t| lp.add_variable(0.0, 0.0, inp.max_powers[t.tx().index()].as_watts()))
        .collect();

    // q ≤ P_max·α for active candidates.
    for (k, c) in active.iter().enumerate() {
        lp.add_constraint(
            &[
                (q_active[k], 1.0),
                (alpha_vars[k], -inp.max_powers[c.tx.index()].as_watts()),
            ],
            Relation::Le,
            0.0,
        );
    }

    // (22): per node, Σ α over candidates touching it ≤ 1.
    for node in topo.ids() {
        let terms: Vec<_> = active
            .iter()
            .enumerate()
            .filter(|(_, c)| c.tx == node || c.rx == node)
            .map(|(k, _)| (alpha_vars[k], 1.0))
            .collect();
        if terms.len() > 1 {
            lp.add_constraint(&terms, Relation::Le, 1.0);
        }
    }

    // (24), big-M linearized, for every active candidate and every fixed
    // transmission. Interferers are the co-band q variables.
    let mut rows: Vec<(NodeId, NodeId, BandId, Option<usize>)> = Vec::new();
    for (k, c) in active.iter().enumerate() {
        rows.push((c.tx, c.rx, c.band, Some(k)));
    }
    for t in fixed.transmissions() {
        rows.push((t.tx(), t.rx(), t.band(), None));
    }
    for &(tx, rx, band, alpha_idx) in &rows {
        let g_direct = topo.gain(tx, rx);
        let noise = inp
            .spectrum
            .bandwidth(band)
            .noise_power_watts(inp.phy.noise_density());
        // M = Γ(ηW + Σ_{k≠tx} g_k,rx · P^k_max): the row is vacuous at α=0.
        let m_big: f64 = gamma
            * (noise
                + topo
                    .ids()
                    .filter(|&k| k != tx && k != rx)
                    .map(|k| topo.gain(k, rx) * inp.max_powers[k.index()].as_watts())
                    .sum::<f64>());
        // g·q + M(1−α) ≥ Γ(ηW + Σ co-band interferer q)
        //  ⇔ g·q − M·α − Γ·Σ g_int q_int ≥ Γ·ηW − M.
        let mut terms: Vec<(greencell_lp::VarId, f64)> = Vec::new();
        let own_q = match alpha_idx {
            Some(k) => q_active[k],
            None => {
                q_fixed[fixed
                    .transmissions()
                    .iter()
                    .position(|t| t.tx() == tx && t.rx() == rx)
                    .expect("fixed row present")]
            }
        };
        terms.push((own_q, g_direct));
        let mut rhs = gamma * noise;
        match alpha_idx {
            Some(k) => {
                terms.push((alpha_vars[k], -m_big));
                rhs -= m_big;
            }
            None => {
                // α fixed at 1: M(1−α) = 0.
            }
        }
        for (k2, c2) in active.iter().enumerate() {
            if c2.band == band && !(c2.tx == tx && c2.rx == rx) {
                terms.push((q_active[k2], -gamma * topo.gain(c2.tx, rx)));
            }
        }
        for (f_idx, t2) in fixed.transmissions().iter().enumerate() {
            if t2.band() == band && !(t2.tx() == tx && t2.rx() == rx) {
                terms.push((q_fixed[f_idx], -gamma * topo.gain(t2.tx(), rx)));
            }
        }
        lp.add_constraint(&terms, Relation::Ge, rhs);
    }

    let sol = lp.solve().ok()?;
    Some(alpha_vars.iter().map(|&v| sol.value(v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencell_net::{NetworkBuilder, PathLossModel, Point, SessionId};
    use greencell_queue::FlowPlan;
    use greencell_units::{Bandwidth, Packets};

    struct Fixture {
        net: Network,
        links: LinkQueueBank,
        max_powers: Vec<Power>,
        models: Vec<NodeEnergyModel>,
        budget: Vec<Energy>,
    }

    /// BS at origin, two users; H backlog on (bs → u1) and (u1 → u2).
    fn fixture(h_entries: &[(usize, usize, u64)]) -> Fixture {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 2);
        let _bs = b.add_base_station(Point::new(0.0, 0.0));
        let _u1 = b.add_user(Point::new(300.0, 0.0));
        let _u2 = b.add_user(Point::new(600.0, 0.0));
        let net = b.build().unwrap();
        let mut links = LinkQueueBank::new(3, 100.0);
        let mut plan = FlowPlan::new(3, 1);
        for &(i, j, pkts) in h_entries {
            plan.set(
                SessionId::from_index(0),
                NodeId::from_index(i),
                NodeId::from_index(j),
                Packets::new(pkts),
            );
        }
        links.advance(&plan, &[]);
        Fixture {
            net,
            links,
            max_powers: vec![
                Power::from_watts(20.0),
                Power::from_watts(1.0),
                Power::from_watts(1.0),
            ],
            models: vec![
                NodeEnergyModel::new(
                    Energy::ZERO,
                    Energy::ZERO,
                    Power::from_milliwatts(100.0)
                );
                3
            ],
            budget: vec![Energy::from_kilowatt_hours(1.0); 3],
        }
    }

    fn inputs<'a>(f: &'a Fixture, spectrum: &'a SpectrumState, phy: &'a PhyConfig) -> S1Inputs<'a> {
        S1Inputs {
            net: &f.net,
            phy,
            spectrum,
            links: &f.links,
            max_powers: &f.max_powers,
            energy_models: &f.models,
            traffic_budget: &f.budget,
            available: &[],
            slot: TimeDelta::from_minutes(1.0),
            packet_size: PacketSize::from_bits(10_000),
        }
    }

    fn spectrum2() -> SpectrumState {
        SpectrumState::new(vec![
            Bandwidth::from_megahertz(1.0),
            Bandwidth::from_megahertz(2.0),
        ])
    }

    /// The per-band heads builder `head_key` replaced: one key per band
    /// with a positive weight, then the smallest.
    fn head_key_reference(
        bands: BandSet,
        pkts_per_band: &[f64],
        tx: NodeId,
        rx: NodeId,
        h: f64,
    ) -> Option<u128> {
        link_keys(bands, pkts_per_band, tx, rx, h).min()
    }

    /// `head_key` gives the per-band builder's key bit for bit on random
    /// band sets, with weights tied across bands, `+∞` weights (from an
    /// infinite `h` or band capacity), zero and NaN weights.
    #[test]
    fn head_key_matches_the_per_band_minimum() {
        let mut rng = greencell_stochastic::Rng::seed_from(3);
        let pkts_values = [0.0, 1.0, 2.0, 2.0, 7.5, 1e308, f64::INFINITY, f64::NAN];
        let h_values = [0.0, 1.0, 2.5, 1e300, f64::INFINITY];
        let (mut ties, mut infinite) = (0, 0);
        for _ in 0..20_000 {
            let bands: BandSet = (0..8)
                .filter(|_| rng.chance(0.5))
                .map(BandId::from_index)
                .collect();
            let pkts: Vec<f64> = (0..8)
                .map(|_| pkts_values[rng.index(pkts_values.len())])
                .collect();
            let h = h_values[rng.index(h_values.len())];
            let (tx, rx) = (
                NodeId::from_index(rng.index(50)),
                NodeId::from_index(rng.index(50)),
            );
            let want = head_key_reference(bands, &pkts, tx, rx, h);
            assert_eq!(head_key(bands, &pkts, tx, rx, h), want, "{pkts:?} h={h}");
            let weights: Vec<f64> = bands.iter().map(|m| h * pkts[m.index()]).collect();
            if let Some(key) = want {
                let best = Candidate::from_key(key).weight;
                ties += usize::from(weights.iter().filter(|&&w| w == best).count() > 1);
                infinite += usize::from(best == f64::INFINITY);
            }
        }
        assert!(
            ties > 1000 && infinite > 1000,
            "{ties} ties, {infinite} infinite"
        );
    }

    /// A refill filters out the keys with a busy endpoint once the busy
    /// count has grown, and skips the filter while it has not.
    #[test]
    fn frontier_filters_only_after_a_node_turns_busy() {
        let key = |k: usize| {
            let (tx, rx) = (NodeId::from_index(2 * k), NodeId::from_index(2 * k + 1));
            Candidate::key(tx, rx, BandId::from_index(0), 1.0 + k as f64)
        };
        let mut frontier = Frontier {
            rest: (0..CHUNK + 8).map(key).collect(),
            ..Frontier::default()
        };
        let mut busy = vec![false; 2 * (CHUNK + 8)];
        let endpoints = |f: &Frontier| -> Vec<usize> {
            f.chunk[f.pos..]
                .iter()
                .chain(&f.rest)
                .map(|&k| Candidate::from_key(k).tx.index())
                .collect()
        };
        assert_eq!(frontier.peek(&busy, 0), Some(key(CHUNK + 7)));
        assert_eq!(endpoints(&frontier).len(), CHUNK + 8);
        // Nodes 0 and 3 turn busy: the next refill drops links 0 and 1.
        busy[0] = true;
        busy[3] = true;
        frontier.pos = frontier.chunk.len();
        assert_eq!(frontier.peek(&busy, 2), Some(key(7)));
        let mut left = endpoints(&frontier);
        left.sort_unstable();
        assert_eq!(left, vec![4, 6, 8, 10, 12, 14]);
        // The count has not grown since: the refill filters nothing.
        busy[4] = true;
        frontier.rest = vec![key(2), key(3)];
        frontier.pos = frontier.chunk.len();
        assert_eq!(frontier.peek(&busy, 2), Some(key(3)));
        assert_eq!(endpoints(&frontier), vec![6, 4]);
    }

    #[test]
    fn empty_backlog_schedules_nothing() {
        let f = fixture(&[]);
        let phy = PhyConfig::new(1.0, 1e-20);
        let spectrum = spectrum2();
        let out = greedy_schedule(&inputs(&f, &spectrum, &phy));
        assert!(out.schedule.is_empty());
        let out = sequential_fix_schedule(&inputs(&f, &spectrum, &phy));
        assert!(out.schedule.is_empty());
    }

    #[test]
    fn greedy_picks_backlogged_link_on_widest_band() {
        let f = fixture(&[(0, 1, 50)]);
        let phy = PhyConfig::new(1.0, 1e-20);
        let spectrum = spectrum2();
        let out = greedy_schedule(&inputs(&f, &spectrum, &phy));
        assert_eq!(out.schedule.len(), 1);
        let t = &out.schedule.transmissions()[0];
        assert_eq!(t.tx(), NodeId::from_index(0));
        assert_eq!(t.rx(), NodeId::from_index(1));
        // 2 MHz band has twice the capacity ⇒ higher weight.
        assert_eq!(t.band(), BandId::from_index(1));
        assert_eq!(out.powers.len(), 1);
        assert!(out.powers[0] <= f.max_powers[0]);
    }

    #[test]
    fn single_radio_blocks_chained_links() {
        // Both (0→1) and (1→2) backlogged: node 1 cannot do both roles, so
        // only one link is scheduled on each... but they could share node 1?
        // No: (22) forbids. Expect exactly one of the two links.
        let f = fixture(&[(0, 1, 50), (1, 2, 50)]);
        let phy = PhyConfig::new(1.0, 1e-20);
        let spectrum = spectrum2();
        let out = greedy_schedule(&inputs(&f, &spectrum, &phy));
        assert_eq!(out.schedule.len(), 1);
    }

    #[test]
    fn disjoint_links_both_scheduled() {
        // (0→1) and (2→?) — need a 4th node; reuse (0→1) plus (2→0)?
        // 0 busy. Use (1→2) only vs (0→?): simplest disjoint pair needs 4
        // nodes, so check that (0→1) and (2→...) cannot exist here and the
        // two-band case schedules bs→u1 and u... Instead verify weights:
        // heavier H wins when conflicting.
        let f = fixture(&[(0, 1, 10), (1, 2, 500)]);
        let phy = PhyConfig::new(1.0, 1e-20);
        let spectrum = spectrum2();
        let out = greedy_schedule(&inputs(&f, &spectrum, &phy));
        assert_eq!(out.schedule.len(), 1);
        assert_eq!(out.schedule.transmissions()[0].tx(), NodeId::from_index(1));
    }

    #[test]
    fn sequential_fix_matches_greedy_on_simple_instance() {
        let f = fixture(&[(0, 1, 50)]);
        let phy = PhyConfig::new(1.0, 1e-20);
        let spectrum = spectrum2();
        let g = greedy_schedule(&inputs(&f, &spectrum, &phy));
        let sf = sequential_fix_schedule(&inputs(&f, &spectrum, &phy));
        assert_eq!(g.schedule.len(), sf.schedule.len());
        assert_eq!(
            g.schedule.transmissions()[0].tx(),
            sf.schedule.transmissions()[0].tx()
        );
    }

    #[test]
    fn sequential_fix_respects_single_radio() {
        let f = fixture(&[(0, 1, 50), (1, 2, 50), (0, 2, 30)]);
        let phy = PhyConfig::new(1.0, 1e-20);
        let spectrum = spectrum2();
        let out = sequential_fix_schedule(&inputs(&f, &spectrum, &phy));
        // Any valid schedule: no node in two roles.
        let mut seen = std::collections::HashSet::new();
        for t in out.schedule.transmissions() {
            assert!(seen.insert(t.tx()));
            assert!(seen.insert(t.rx()));
        }
        assert!(!out.schedule.is_empty());
    }

    #[test]
    fn down_node_is_never_scheduled() {
        let f = fixture(&[(0, 1, 50), (1, 2, 50)]);
        let phy = PhyConfig::new(1.0, 1e-20);
        let spectrum = spectrum2();
        // Node 1 down: both backlogged links touch it, so nothing runs.
        let mut inp = inputs(&f, &spectrum, &phy);
        let avail = [true, false, true];
        inp.available = &avail;
        assert!(greedy_schedule(&inp).schedule.is_empty());
        assert!(sequential_fix_schedule(&inp).schedule.is_empty());
        // Node 2 down: (0→1) still runs.
        let avail = [true, true, false];
        inp.available = &avail;
        let out = greedy_schedule(&inp);
        assert_eq!(out.schedule.len(), 1);
        assert_eq!(out.schedule.transmissions()[0].rx(), NodeId::from_index(1));
    }

    #[test]
    fn energy_budget_blocks_transmitter() {
        let mut f = fixture(&[(1, 2, 50)]);
        // User 1 can source almost nothing: worst-case 1 W × 60 s = 60 J.
        f.budget[1] = Energy::from_joules(10.0);
        let phy = PhyConfig::new(1.0, 1e-20);
        let spectrum = spectrum2();
        let out = greedy_schedule(&inputs(&f, &spectrum, &phy));
        assert!(out.schedule.is_empty());
    }

    #[test]
    fn energy_budget_blocks_receiver() {
        let mut f = fixture(&[(0, 1, 50)]);
        // Receiver needs 0.1 W × 60 s = 6 J.
        f.budget[1] = Energy::from_joules(1.0);
        let phy = PhyConfig::new(1.0, 1e-20);
        let spectrum = spectrum2();
        let out = greedy_schedule(&inputs(&f, &spectrum, &phy));
        assert!(out.schedule.is_empty());
    }

    /// Two BS→user links on one band whose coupling sits just under the
    /// feasibility edge (spectral radius 1 − 10⁻³). The exact probe
    /// schedules both, with powers that satisfy (24); the reference's
    /// iteration runs out of sweeps on the pair and keeps one link.
    #[test]
    fn near_singular_pair_keeps_both_links() {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        let a = b.add_base_station(Point::new(0.0, 0.0));
        let x = b.add_user(Point::new(100.0, 0.0));
        let c = b.add_base_station(Point::new(2200.0, 0.0));
        let y = b.add_user(Point::new(2300.0, 0.0));
        let net = b.build().unwrap();
        let topo = net.topology();
        let coupling =
            (topo.gain(c, x) * topo.gain(a, y) / (topo.gain(a, x) * topo.gain(c, y))).sqrt();
        let phy = PhyConfig::new((1.0 - 1e-3) / coupling, 1e-20);
        let mut links = LinkQueueBank::new(4, 100.0);
        let mut plan = FlowPlan::new(4, 1);
        for (tx, rx, pkts) in [(a, x, 50), (c, y, 40)] {
            plan.set(SessionId::from_index(0), tx, rx, Packets::new(pkts));
        }
        links.advance(&plan, &[]);
        let f = Fixture {
            net,
            links,
            max_powers: vec![Power::from_watts(20.0); 4],
            models: vec![NodeEnergyModel::new(Energy::ZERO, Energy::ZERO, Power::ZERO); 4],
            budget: vec![Energy::from_kilowatt_hours(1.0); 4],
        };
        let spectrum = SpectrumState::new(vec![Bandwidth::from_megahertz(1.0)]);
        let inp = inputs(&f, &spectrum, &phy);

        for out in [greedy_schedule(&inp), sequential_fix_schedule(&inp)] {
            assert_eq!(out.schedule.len(), 2);
            assert_eq!(first_sinr_violation(&inp, &out, &mut Vec::new()), None);
            assert_eq!(
                min_power_assignment_reference(
                    &f.net,
                    &out.schedule,
                    &spectrum,
                    &phy,
                    &f.max_powers
                ),
                Err(greencell_phy::PowerControlError::NonConvergent)
            );
        }
        assert_eq!(greedy_schedule_reference(&inp).schedule.len(), 1);
    }

    /// The (24) check fails on powers scaled 0.1 % below the solution and
    /// on a power above its cap, and passes the zero-noise `0/0` links.
    #[test]
    fn sinr_check_catches_short_and_capped_powers() {
        let f = fixture(&[(0, 1, 50)]);
        let spectrum = spectrum2();
        let phy = PhyConfig::new(1.0, 1e-20);
        let inp = inputs(&f, &spectrum, &phy);
        let mut out = greedy_schedule(&inp);
        let mut sinr = Vec::new();
        assert_eq!(first_sinr_violation(&inp, &out, &mut sinr), None);
        let exact = out.powers[0];
        out.powers[0] = exact * 0.999;
        assert_eq!(first_sinr_violation(&inp, &out, &mut sinr), Some(0));
        out.powers[0] = f.max_powers[0] * 1.5;
        assert_eq!(first_sinr_violation(&inp, &out, &mut sinr), Some(0));

        let silent = PhyConfig::new(1.0, 0.0);
        let inp = inputs(&f, &spectrum, &silent);
        let out = greedy_schedule(&inp);
        assert_eq!(out.powers, vec![Power::ZERO]);
        assert_eq!(first_sinr_violation(&inp, &out, &mut sinr), None);
    }

    #[test]
    fn schedules_are_power_feasible() {
        let f = fixture(&[(0, 1, 50), (1, 2, 50), (0, 2, 50), (2, 1, 20)]);
        let phy = PhyConfig::new(1.0, 1e-20);
        let spectrum = spectrum2();
        for out in [
            greedy_schedule(&inputs(&f, &spectrum, &phy)),
            sequential_fix_schedule(&inputs(&f, &spectrum, &phy)),
        ] {
            if !out.schedule.is_empty() {
                let p = greencell_phy::min_power_assignment(
                    &f.net,
                    &out.schedule,
                    &spectrum,
                    &phy,
                    &f.max_powers,
                )
                .expect("final schedule must be power feasible");
                assert_eq!(p, out.powers);
            }
        }
    }
}
