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
//! powers of the schedule so far ([`PowerControlWorkspace`]: links on
//! different bands never interfere, so it holds one block per band, whose
//! factors of the accepted links survive across probes, and a probe costs
//! `O(k_b²)` in the `k_b` links held on its band), and the last accepted
//! probe's solution is the slot's power vector: S4's objective is
//! non-decreasing in every node's demand, so minimal transmit powers are
//! optimal for a fixed schedule.
//!
//! Candidates are pruned exactly as the paper prescribes: `α^m_ij` is fixed
//! to zero wherever `H_ij(t) = 0` (nothing buffered for the link means
//! activating it cannot reduce `Ψ̂₁`). An additional *energy admission*
//! check — worst-case transmit/receive energy must fit within the node's
//! maximum same-slot supply — keeps S4 feasible later in the pipeline.
//!
//! The scheduling paths never sort the full `(i, j, m)` candidate list.
//! They merge one sorted list per admissible link (its candidates in key
//! order): a link whose head is rejected offers its next band, a link with
//! a busy endpoint is dropped. That yields the full sort's candidates in
//! the same order wherever the outcome can depend on them, and the merge
//! keeps its order across slots, so a slot pays for the links that
//! changed and for the groups it scans rather than for every backlogged
//! link:
//!
//! * a link's head band is the band of `ℳ_i ∩ ℳ_j` with the most packets
//!   per slot, the lowest on ties. The packet counts are integers below
//!   2⁵², and for a finite `H_ij > 0` whose products with them stay normal
//!   and finite, `H_ij·a > H_ij·b` holds exactly when `a > b`. So the band
//!   depends on the band mask and this slot's counts alone, and it is
//!   memoised by mask for the slot; the key keeps the weight `H_ij·c^m`
//!   bit for bit. A link whose `H_ij` falls outside that range, and every
//!   link of a slot whose counts are not such integers, scans its bands;
//! * each transmitter keeps its backlogged links in one list sorted by
//!   `H_ij` descending, then receiver, across slots. The [`LinkQueueBank`]
//!   logs the links each advance touched, and a slot walks only those to
//!   their new places; a bank state that does not follow the last one
//!   seen by one advance (the first slot, a restore, another bank)
//!   refills every list;
//! * `μ^m` is one number per band, so every weight of a transmitter's
//!   links is at most `H_ij·μ_max`, with `μ_max` the most packets on any of
//!   its bands. A scan of its list in `H` order can therefore stop at the
//!   first link whose bound falls below the best weight found, and at an
//!   equal bound a later link with the best's `H` loses on its receiver.
//!   The links of one band mask, the (transmitter, mask) classes, share a
//!   head band and order as `H` does within the list; the bound is what
//!   lets one scan serve all of a transmitter's classes;
//! * the frontier groups the offers by transmitter, and a tournament tree
//!   over the transmitters holds the groups' minima. A group enters it
//!   with its first link's bound and is scanned when that bound reaches
//!   the top. A group whose transmitter turned busy leaves the tree whole
//!   when it reaches the top; a scan passes the links whose receiver
//!   turned busy. Every pop is therefore the smallest key with both
//!   endpoints free, which is the full sort's next candidate the loop
//!   would probe;
//! * a rejected link's next band is found in one scan of its bands — the
//!   largest weight after the consumed `(weight, band)`, the lowest band
//!   on ties — and the link offers it from its place in the list.
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

/// Reusable S1 buffers: the candidate frontier, the per-band
/// `packets_per_slot` memo and the head-band memo, the per-node admission
/// memos, and the [`PowerControlWorkspace`] that probes candidate
/// feasibility and holds the slot's powers. Thread one of these through
/// [`greedy_schedule_with`] / [`sequential_fix_schedule_with`] across
/// slots and the steady-state greedy path performs no heap allocation.
///
/// The frontier's lists follow the [`LinkQueueBank`] the scratch last
/// scheduled: a scratch may move between banks, and refills when the
/// bank's state does not follow the last one it saw, but it assumes that
/// a bank it follows is scheduled on one network.
#[derive(Debug, Clone, Default)]
pub struct S1Scratch {
    /// The backlogged links' lists, kept across slots, and the slot's
    /// merge over them.
    frontier: Frontier,
    /// `packets_per_slot(potential_capacity(W_m))` memo, indexed by band —
    /// capacity depends only on the band's bandwidth, so it is computed
    /// once per band per slot instead of once per candidate.
    pkts_per_band: Vec<f64>,
    /// Per-node admission as a transmitter, once per slot: up, and the
    /// worst-case transmit energy within budget.
    tx_ok: Vec<bool>,
    /// Per-node admission as a receiver, once per slot: up, and the
    /// worst-case receive energy within budget.
    rx_ok: Vec<bool>,
    /// Per-slot power-control system: cleared at the start of each call,
    /// it holds the accepted schedule after the last probe.
    ws: PowerControlWorkspace,
    /// Sequential-fix working set: the still-unfixed candidates, each with
    /// its row's [`worst_interference`].
    active: Vec<(Candidate, f64)>,
    /// Sequential-fix: [`worst_interference`] per fixed transmission, in
    /// schedule order.
    fixed_interference: Vec<f64>,
    /// Greedy-loop busy mask: `busy[n]` ⇔ node `n` appears in an accepted
    /// transmission — the same predicate as `Schedule::is_busy`, without
    /// the per-candidate schedule scan.
    busy: Vec<bool>,
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

    /// Lays out `net`'s per-transmitter link lists, grows every buffer to
    /// its static bound, and returns the number of ordered pairs sharing a
    /// band: the links that can ever hold a candidate. After this,
    /// scheduling on `net` allocates nothing even when traffic hits a new
    /// peak. It costs `O(n·D)` after a sort of the `n` band sets, for `D`
    /// distinct sets, not a pass over the `n²` pairs.
    pub fn reserve(&mut self, net: &Network) -> usize {
        let (nodes, bands) = (net.topology().len(), net.band_count());
        let links = self.frontier.lay_out(net);
        self.frontier.reserve(nodes);
        self.active
            .reserve(links.saturating_mul(bands).min(MAX_SF_CANDIDATES));
        self.pkts_per_band.reserve(bands);
        self.tx_ok.reserve(nodes);
        self.rx_ok.reserve(nodes);
        self.busy.reserve(nodes);
        self.ws.reserve(nodes / 2 + 1, bands);
        self.sinr.reserve(nodes / 2);
        links
    }

    /// What the candidate frontier did in the last greedy or
    /// sequential-fix call.
    #[must_use]
    pub fn frontier_counts(&self) -> FrontierCounts {
        self.frontier.counts
    }
}

/// Counts of the candidate frontier's rarer paths in one S1 call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrontierCounts {
    /// Links passed over unprobed because their receiver had turned busy.
    pub receiver_busy: usize,
    /// Re-offered bands that did not become their group's smallest key.
    pub reoffered_behind: usize,
    /// Groups emptied by a rejected link that had no band left.
    pub exhausted: usize,
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
            tx: NodeId::from_index(tx_of(key)),
            rx: NodeId::from_index(rx_of(key)),
            band: BandId::from_index((key & FIELD) as usize),
            weight: f64::from_bits(!((key >> 64) as u64)),
        }
    }
}

/// The transmitter index of a packed key.
fn tx_of(key: u128) -> usize {
    ((key >> 42) & ((1 << 22) - 1)) as usize
}

/// The receiver index of a packed key.
fn rx_of(key: u128) -> usize {
    ((key >> 21) & FIELD) as usize
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

/// Refreshes the per-band capacity memo, the head-band memo and the
/// per-node admission memos for this slot. Zero heap allocation once the
/// buffers have grown.
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

    // Per-node memo of the admission: a down node (fault injection) never
    // transmits or receives, and transmitting at `P_max` (resp. receiving)
    // must fit in the node's traffic budget for this slot. Both sides
    // depend on one node only, so compute each once per node per slot
    // instead of once per ordered pair.
    scratch.tx_ok.clear();
    scratch.rx_ok.clear();
    for i in 0..inp.net.topology().len() {
        let up = inp.available.get(i).copied().unwrap_or(true);
        let budget = inp.traffic_budget[i].as_joules();
        let tx_worst = inp.max_powers[i] * inp.slot;
        let rx_worst = inp.energy_models[i].recv_power() * inp.slot;
        scratch.tx_ok.push(up && tx_worst.as_joules() <= budget);
        scratch.rx_ok.push(up && rx_worst.as_joules() <= budget);
    }
}

/// Whether backlogged link `(i, j)`, weighted `h = H_ij(t)`, may carry a
/// candidate this slot: β = 0 weights every link to zero, and the
/// admission memos gate the rest. The `&`s do not short-circuit, so the
/// test is one branch.
///
/// Callers scan only the backlogged links: the paper fixes α to 0
/// wherever `H_ij(t) = 0`, so the empty queues — the vast majority of the
/// `O(n²)` ordered pairs in steady state — can never yield a candidate.
fn admissible(tx_ok: &[bool], rx_ok: &[bool], i: NodeId, j: NodeId, h: f64) -> bool {
    (h > 0.0) & tx_ok[i.index()] & rx_ok[j.index()]
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

/// The band of `bands` with the largest positive weight `h·pkts[m]`, the
/// lowest such band on ties, and that weight. Positive weights compare as
/// their bits do (`+∞` above every finite one), and a NaN weight never
/// passes the `>`.
fn best_band(bands: BandSet, pkts_per_band: &[f64], h: f64) -> Option<(BandId, f64)> {
    let mut best = None;
    let mut best_weight = 0.0;
    for m in bands.iter() {
        let weight = h * pkts_per_band[m.index()];
        if weight > best_weight {
            best_weight = weight;
            best = Some(m);
        }
    }
    best.map(|m| (m, best_weight))
}

/// The smallest of [`link_keys`], built as one key. With `tx` and `rx`
/// fixed, a link's keys order by weight descending, then band ascending,
/// which is [`best_band`]'s choice.
#[cfg(test)]
fn head_key(bands: BandSet, pkts_per_band: &[f64], tx: NodeId, rx: NodeId, h: f64) -> Option<u128> {
    best_band(bands, pkts_per_band, h).map(|(m, weight)| Candidate::key(tx, rx, m, weight))
}

/// The smallest of [`link_keys`] above `key`, a key of the same link,
/// found in one scan: the largest weight strictly after the consumed
/// `(weight, band)` — a smaller weight, or the same weight on a higher
/// band — keeping the lowest band on ties.
fn next_key(bands: BandSet, pkts_per_band: &[f64], h: f64, key: u128) -> Option<u128> {
    let c = Candidate::from_key(key);
    let mut best = None;
    let mut best_weight = 0.0;
    for m in bands.iter() {
        let weight = h * pkts_per_band[m.index()];
        let after = weight < c.weight || (weight == c.weight && m > c.band);
        if after && weight > best_weight {
            best_weight = weight;
            best = Some(m);
        }
    }
    best.map(|m| Candidate::key(c.tx, c.rx, m, best_weight))
}

/// The key of the consumed candidate `key`'s link on its next band.
fn next_band(inp: &S1Inputs<'_>, pkts_per_band: &[f64], key: u128) -> Option<u128> {
    let (tx, rx) = (
        NodeId::from_index(tx_of(key)),
        NodeId::from_index(rx_of(key)),
    );
    next_key(
        inp.net.link_bands(tx, rx),
        pkts_per_band,
        inp.links.h(tx, rx),
        key,
    )
}

/// Entries of the head-band memo.
const MEMO_ENTRIES: usize = 64;

/// A memo entry's band when the mask has no band with a positive count;
/// a link's band when it has none left this slot.
const NO_BAND: u8 = u8::MAX;

/// Packet counts at or above this are not all exact integers in `f64`
/// steps of one, so the memo's exactness argument does not cover them.
const MAX_EXACT_PKTS: f64 = 4_503_599_627_370_496.0; // 2⁵²

/// The memo serves a link only where every product `H_ij·c^m` of a
/// positive count lies in `[PRODUCT_FLOOR, PRODUCT_CEIL]`: normal and
/// finite, with a wide margin for the rounding of the bounds themselves.
const PRODUCT_FLOOR: f64 = 1e-280;
/// See [`PRODUCT_FLOOR`].
const PRODUCT_CEIL: f64 = 1e280;

/// Each link's head band by its band mask, for one slot.
///
/// For a finite `h > 0`, integer counts `a > b` below 2⁵² differ by at
/// least one part in 2⁵², more than the rounding of a normal product can
/// close, so `h·a > h·b` exactly when `a > b`, and equal counts give equal
/// products. The band with the largest weight `h·c^m` (the lowest on
/// ties) is then the band with the most packets per slot, whatever `h`.
#[derive(Debug, Clone)]
struct BandMemo {
    /// Direct-mapped by a hash of the mask: `(mask, band)`. The empty mask
    /// has no band in any slot, so `(0, NO_BAND)` is always a valid entry.
    entries: [(u64, u8); MEMO_ENTRIES],
    /// The `H_ij` range `[h_lo, h_hi]` the memo serves this slot; empty
    /// when a count is not an integer below 2⁵².
    h_lo: f64,
    /// See `h_lo`.
    h_hi: f64,
}

impl Default for BandMemo {
    fn default() -> Self {
        Self {
            entries: [(0, NO_BAND); MEMO_ENTRIES],
            h_lo: f64::INFINITY,
            h_hi: 0.0,
        }
    }
}

impl BandMemo {
    /// Forgets every band and sets the `H_ij` range for this slot's
    /// counts. With no positive count every mask has no band, for every
    /// `h`, and the range is `[0, ∞]`.
    fn refresh(&mut self, pkts_per_band: &[f64]) {
        self.entries = [(0, NO_BAND); MEMO_ENTRIES];
        let exact = pkts_per_band
            .iter()
            .all(|&p| (0.0..MAX_EXACT_PKTS).contains(&p) && p.fract() == 0.0);
        let (lo, hi) = pkts_per_band
            .iter()
            .filter(|&&p| p > 0.0)
            .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &p| {
                (lo.min(p), hi.max(p))
            });
        (self.h_lo, self.h_hi) = if exact {
            (PRODUCT_FLOOR / lo, PRODUCT_CEIL / hi)
        } else {
            (f64::INFINITY, 0.0)
        };
    }

    /// [`head_key`]'s key for link `(tx, rx)`, bit for bit: from the memo
    /// where its argument holds, from the scan elsewhere.
    #[cfg(test)]
    fn head(
        &mut self,
        bands: BandSet,
        pkts_per_band: &[f64],
        tx: NodeId,
        rx: NodeId,
        h: f64,
    ) -> Option<u128> {
        if !self.serves(h) {
            return head_key(bands, pkts_per_band, tx, rx, h);
        }
        let band = self.band(bands, pkts_per_band);
        (band != NO_BAND).then(|| {
            let m = BandId::from_index(usize::from(band));
            Candidate::key(tx, rx, m, h * pkts_per_band[m.index()])
        })
    }

    /// Whether the memo's bands are the head bands of links weighted `h`
    /// this slot.
    fn serves(&self, h: f64) -> bool {
        self.h_lo <= h && h <= self.h_hi
    }

    /// The head band of the links whose band mask is `bands`, for every
    /// `H_ij` the memo [serves](BandMemo::serves), or [`NO_BAND`].
    fn band(&mut self, bands: BandSet, pkts_per_band: &[f64]) -> u8 {
        let mask = bands.bits();
        let entry = &mut self.entries[memo_slot(mask)];
        if entry.0 != mask {
            let band =
                best_band(bands, pkts_per_band, 1.0).map_or(NO_BAND, |(m, _)| m.index() as u8);
            *entry = (mask, band);
        }
        entry.1
    }
}

/// The memo entry of band mask `mask`: Fibonacci hashing, the top six
/// bits of the product.
fn memo_slot(mask: u64) -> usize {
    (mask.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize
}

/// One transmitter's backlogged links in the arena, and its group in
/// this slot's merge.
#[derive(Debug, Clone, Copy, Default)]
struct List {
    /// Its first arena slot; its room, one slot per receiver it shares a
    /// band with, ends where the next transmitter's starts.
    start: u32,
    /// Its backlogged links fill `start .. start + len`.
    len: u32,
    /// This slot: the first arena slot not yet passed over for good.
    cursor: u32,
    /// This slot: the arena slot of the group's smallest key, as of its
    /// last scan.
    min_at: u32,
    /// This slot: the most packets per slot on any of the transmitter's
    /// bands, which bounds every weight of the group by `H·μ_max`.
    pkts_max: f64,
    /// This slot: whether the group's key in the tree is its smallest, or
    /// a bound below it that stands in until it reaches the top.
    exact: bool,
}

/// The candidate merge. Its order persists across slots: an arena holds
/// each transmitter's backlogged links with their backlogs, sorted by
/// `G_ij` descending, then receiver. Each slot, a tournament tree holds
/// each transmitter group's smallest key, which a scan of the group's
/// list finds: a link's weight is at most `H_ij·μ_max`, and `H` falls
/// along the list, so the scan stops at the first link whose bound falls
/// below the best key found. A group enters the tree with the bound of
/// its first link, and is scanned only when that bound reaches the top. A
/// group leaves the tree when its transmitter turns busy (checked when it
/// reaches the top) or its last key goes.
#[derive(Debug, Clone, Default)]
struct Frontier {
    /// Per arena slot, a receiver.
    rx: Vec<u32>,
    /// Per arena slot, its link's `H_ij = β·G_ij` as of the last sync,
    /// as [`LinkQueueBank::h`] computes it. `H > 0` is finite or `+∞`, so
    /// its bits order as it does.
    h: Vec<f64>,
    /// Per node, its list as a transmitter.
    lists: Vec<List>,
    /// Per node, its band set.
    bands: Vec<BandSet>,
    /// The epoch of the bank state the lists hold; 0 for none.
    synced: u64,
    /// Per arena slot, `now·2⁸ + band`: the band its link offers in slot
    /// `now`, or [`NO_BAND`] once it has none left. Other stamps mean
    /// that the link has offered nothing yet this slot.
    state: Vec<u32>,
    /// The current slot's stamp, below 2²⁴.
    now: u32,
    /// Each link's head band by its mask, this slot.
    memo: BandMemo,
    /// The groups' smallest keys.
    minima: Minima,
    /// What this call's merge did.
    counts: FrontierCounts,
    /// Layout scratch: each distinct band set and how many nodes hold it.
    sets: Vec<(BandSet, u32)>,
    /// Refill scratch: one list's links as sort keys.
    sort: Vec<u128>,
}

/// A tournament tree over the transmitters: leaf `tx` holds group `tx`'s
/// key (`u128::MAX` for none, which no key is), and each inner node the
/// least of its [`FANOUT`] children, so the root is the smallest key. A
/// change to one group recomputes the nodes above its leaf, two for up to
/// 64 transmitters, and a slot's fill writes the leaves and builds the
/// nodes above them once.
#[derive(Debug, Clone, Default)]
struct Minima {
    /// Node `k`'s children are `FANOUT·k + 1 ..= FANOUT·k + FANOUT`; the
    /// root is node 0 and the leaves are `inner ..`.
    tree: Vec<u128>,
    /// The number of inner nodes.
    inner: usize,
}

/// The children of an inner node of [`Minima`].
const FANOUT: usize = 8;

impl Minima {
    /// The inner nodes and the leaves of the smallest complete tree with a
    /// leaf per transmitter.
    fn shape(nodes: usize) -> (usize, usize) {
        let (mut inner, mut leaves) = (0, 1);
        while leaves < nodes {
            inner += leaves;
            leaves *= FANOUT;
        }
        (inner, leaves)
    }

    /// Grows the tree to its bound for `nodes` transmitters.
    fn reserve(&mut self, nodes: usize) {
        let (inner, leaves) = Self::shape(nodes);
        let held = self.tree.len();
        self.tree.reserve((inner + leaves).saturating_sub(held));
    }

    /// Empties every leaf of a tree over `nodes` transmitters. The leaves
    /// past the last transmitter stay empty for good.
    fn clear(&mut self, nodes: usize) {
        let (inner, leaves) = Self::shape(nodes);
        if (self.inner, self.tree.len()) == (inner, inner + leaves) {
            self.tree[inner..inner + nodes].fill(u128::MAX);
        } else {
            self.inner = inner;
            self.tree.clear();
            self.tree.resize(inner + leaves, u128::MAX);
        }
    }

    /// Sets group `tx`'s leaf without updating the nodes above it; call
    /// [`Minima::build`] after the last one.
    fn put(&mut self, tx: usize, key: u128) {
        self.tree[self.inner + tx] = key;
    }

    /// Recomputes inner node `k` from its children.
    fn pull(&mut self, k: usize) {
        let c = &self.tree[FANOUT * k + 1..FANOUT * k + 1 + FANOUT];
        // Pairwise, so the comparisons of one level do not wait on each
        // other.
        let (a, b) = (
            c[0].min(c[1]).min(c[2].min(c[3])),
            c[4].min(c[5]).min(c[6].min(c[7])),
        );
        self.tree[k] = a.min(b);
    }

    /// Computes every inner node from the leaves.
    fn build(&mut self) {
        for k in (0..self.inner).rev() {
            self.pull(k);
        }
    }

    /// Sets group `tx`'s key (`u128::MAX` to remove the group) and the
    /// nodes above it.
    fn set(&mut self, tx: usize, key: u128) {
        let mut k = self.inner + tx;
        self.tree[k] = key;
        while k > 0 {
            k = (k - 1) / FANOUT;
            self.pull(k);
        }
    }

    /// The smallest key, or `None` once every group is gone.
    fn top(&self) -> Option<u128> {
        self.tree.first().copied().filter(|&key| key != u128::MAX)
    }
}

impl Frontier {
    /// Lays the lists of `net` out, all empty, with one arena slot per
    /// ordered pair sharing a band, and returns that count. The lists
    /// then hold no bank's state. A transmitter's room is the number of
    /// other holders of each distinct band set it meets, so this costs
    /// `O(n·D)` after a sort of the `n` band sets, for `D` distinct sets.
    fn lay_out(&mut self, net: &Network) -> usize {
        let n = net.topology().len();
        self.bands.clear();
        self.bands
            .extend(net.topology().ids().map(|i| net.link_bands(i, i)));
        let sets = &mut self.sets;
        sets.clear();
        sets.extend(self.bands.iter().map(|&set| (set, 1)));
        sets.sort_unstable_by_key(|&(set, _)| set.bits());
        sets.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        self.lists.clear();
        let mut slots = 0_u32;
        for &mine in &self.bands {
            let room: u32 = sets
                .iter()
                .filter(|&&(set, _)| !mine.intersection(set).is_empty())
                // A node is no link of its own.
                .map(|&(set, holders)| holders - u32::from(set == mine))
                .sum();
            self.lists.push(List {
                start: slots,
                ..List::default()
            });
            slots += room;
        }
        let slots = slots as usize;
        if self.rx.len() != slots {
            // Fresh zeroed columns: the allocator hands out pages no one
            // has touched, so laying a part out touches none of them. A
            // slot's receiver and `H` matter only inside its list, and its
            // state only when stamped with the current `now`, which the
            // next fill moves past every stamp, so a layout of the same
            // size keeps the columns as they are.
            (self.rx, self.h, self.state) = (vec![0; slots], vec![0.0; slots], vec![0; slots]);
        }
        debug_assert_eq!(self.lists.len(), n);
        self.synced = 0;
        slots
    }

    /// Grows the tree of group minima to its bound for `nodes` nodes.
    fn reserve(&mut self, nodes: usize) {
        self.minima.reserve(nodes);
    }

    /// Whether link `(i, j)` has a place: `i ≠ j`, and the pair shares a
    /// band.
    fn placed(&self, i: usize, j: usize) -> bool {
        i != j && !self.bands[i].intersection(self.bands[j]).is_empty()
    }

    /// Brings the lists up to the bank's state: re-places the links its
    /// last advance touched when the lists hold the state that advance
    /// started from, and refills them otherwise.
    fn sync(&mut self, net: &Network, links: &LinkQueueBank) {
        let laid_out = self.lists.len() == net.topology().len();
        match links.changes_since(self.synced) {
            Some(changed) if laid_out => {
                let (queues, n, beta) = (links.queues(), links.nodes(), links.beta());
                for (i, j) in changed {
                    let (i, j) = (i.index(), j.index());
                    // `H` as `LinkQueueBank::h` computes it.
                    let g = queues[i * n + j].backlog().count_f64();
                    self.re_place(i, j, (g > 0.0).then_some(beta * g));
                }
            }
            _ => self.refill(net, links),
        }
        self.synced = links.epoch();
    }

    /// Moves link `(i, j)` to its place in `i`'s list: where `(h, j)`
    /// sorts if it is backlogged with `H_ij = h`, out of the list if not.
    /// The list stays sorted by the `H` it records throughout, so a link
    /// the log names twice, or several links of one list, need no second
    /// pass. A slot moves a link's backlog by a flow or a service, so the
    /// link walks from its old place (a new one from the list's end) one
    /// neighbour at a time, as an insertion sort does.
    fn re_place(&mut self, i: usize, j: usize, h: Option<f64>) {
        if !self.placed(i, j) {
            return;
        }
        let List { start, len, .. } = self.lists[i];
        let (s, len) = (start as usize, len as usize);
        // One past the list, its room's first free slot, if it has one.
        let room = if i + 1 < self.lists.len() {
            self.lists[i + 1].start as usize
        } else {
            self.rx.len()
        };
        let (rx, hs) = (&mut self.rx[s..room], &mut self.h[s..room]);
        let r = j as u32;
        let held = rx[..len].iter().position(|&x| x == r);
        let (mut at, len, h) = match (held, h) {
            (None, None) => return,
            (Some(k), None) => {
                // By hand: a list is a few links, too few for a `memmove`.
                for at in k..len - 1 {
                    (rx[at], hs[at]) = (rx[at + 1], hs[at + 1]);
                }
                self.lists[i].len -= 1;
                return;
            }
            (Some(k), Some(h)) => (k, len, h),
            (None, Some(h)) => (len, len + 1, h),
        };
        let want = list_order(h, r);
        while at > 0 && want < list_order(hs[at - 1], rx[at - 1]) {
            (rx[at], hs[at]) = (rx[at - 1], hs[at - 1]);
            at -= 1;
        }
        while at + 1 < len && list_order(hs[at + 1], rx[at + 1]) < want {
            (rx[at], hs[at]) = (rx[at + 1], hs[at + 1]);
            at += 1;
        }
        (rx[at], hs[at]) = (r, h);
        self.lists[i].len = len as u32;
    }

    /// Lays the lists out anew and fills them with every backlogged link
    /// of the bank.
    fn refill(&mut self, net: &Network, links: &LinkQueueBank) {
        self.lay_out(net);
        for (i, j, _) in links.backlogs() {
            if self.placed(i.index(), j.index()) {
                let list = &mut self.lists[i.index()];
                let at = (list.start + list.len) as usize;
                (self.rx[at], self.h[at]) = (j.index() as u32, links.h(i, j));
                list.len += 1;
            }
        }
        for list in &self.lists {
            let (s, e) = (list.start as usize, (list.start + list.len) as usize);
            // Sort the two columns together.
            self.sort.clear();
            self.sort
                .extend((s..e).map(|at| list_order(self.h[at], self.rx[at])));
            self.sort.sort_unstable();
            for (at, &key) in (s..e).zip(&self.sort) {
                let h = f64::from_bits(!((key >> 32) as u64));
                (self.rx[at], self.h[at]) = (key as u32, h);
            }
        }
    }

    /// Builds this slot's merge: puts each admissible transmitter's group
    /// in the tree, under the bound of its first link.
    fn fill(&mut self, v: &View<'_>, tx_ok: &[bool]) {
        self.now = (self.now + 1) & 0xFF_FFFF;
        if self.now == 0 {
            self.state.fill(0);
            self.now = 1;
        }
        self.memo.refresh(v.pkts);
        self.minima.clear(self.lists.len());
        self.counts = FrontierCounts::default();
        for tx in (0..self.lists.len()).filter(|&tx| tx_ok[tx]) {
            let list = &mut self.lists[tx];
            if list.len == 0 {
                continue;
            }
            (list.cursor, list.exact) = (list.start, false);
            list.pkts_max = self.bands[tx]
                .iter()
                .map(|m| v.pkts[m.index()])
                .fold(0.0, f64::max);
            // The first link has the largest `H`, so no key of the group
            // weighs more than this: a key with receiver and band 0 below
            // them all stands in for the group until it reaches the top.
            // With no positive count, no link of the group has a weight.
            let bound = self.h[list.start as usize] * list.pkts_max;
            if bound > 0.0 {
                let zero = NodeId::from_index(0);
                let key =
                    Candidate::key(NodeId::from_index(tx), zero, BandId::from_index(0), bound);
                self.minima.put(tx, key);
            }
        }
        self.minima.build();
    }

    /// The head band of link `at`, to receiver `rx` with `H = h` from a
    /// transmitter whose band set is `own`, as the one-pass heads chose
    /// it, stamped as the band the link offers this slot (a rejection
    /// moves the stamp on), or [`NO_BAND`].
    fn head_band(&mut self, v: &View<'_>, own: BandSet, rx: usize, h: f64, at: usize) -> u8 {
        let bands = own.intersection(self.bands[rx]);
        let band = if self.memo.serves(h) {
            self.memo.band(bands, v.pkts)
        } else {
            best_band(bands, v.pkts, h).map_or(NO_BAND, |(m, _)| m.index() as u8)
        };
        self.state[at] = self.now << 8 | u32::from(band);
        band
    }

    /// Scans group `tx` for its smallest key, records where it is, and
    /// returns it. The scan moves the group's cursor past the links it
    /// can never offer again this slot (receiver busy or inadmissible, or
    /// no band left), and stops at the first link whose bound `H·μ_max`
    /// falls below the best weight found: every later link weighs less.
    /// At an equal bound, a later link with the best's `H` loses the tie
    /// on its receiver. Within one transmitter, keys order by weight
    /// descending, then receiver, so the scan compares those and packs
    /// the winner's key once.
    fn group_min(&mut self, v: &View<'_>, tx: usize) -> Option<u128> {
        let List {
            mut cursor,
            start,
            len,
            pkts_max,
            ..
        } = self.lists[tx];
        let (end, own, now) = (start + len, self.bands[tx], self.now);
        let (mut best_weight, mut best_h, mut best_rx, mut best_band, mut min_at) =
            (f64::NEG_INFINITY, 0.0, 0, NO_BAND, 0);
        let (from, mut lead) = (cursor, true);
        for at in from..end {
            let k = at as usize;
            let h = self.h[k];
            let bound = h * pkts_max;
            if bound < best_weight {
                break;
            }
            let (r, state) = (self.rx[k] as usize, self.state[k]);
            // Stamped this slot: the band the link offers now.
            let stamped = state >> 8 == now;
            let gone = !v.rx_ok[r] || (stamped && state as u8 == NO_BAND);
            if gone || v.busy[r] {
                if lead {
                    cursor = at + 1;
                    self.counts.receiver_busy += usize::from(!gone);
                }
                continue;
            }
            if bound == best_weight && h == best_h {
                lead = false;
                continue;
            }
            let band = if stamped {
                state as u8
            } else {
                self.head_band(v, own, r, h, k)
            };
            if band == NO_BAND {
                if lead {
                    cursor = at + 1;
                }
                continue;
            }
            lead = false;
            // The weight the band was chosen on, bit for bit.
            let weight = h * v.pkts[usize::from(band)];
            if weight > best_weight || (weight == best_weight && r < best_rx) {
                (best_weight, best_h, best_rx, best_band, min_at) = (weight, h, r, band, at);
            }
        }
        let list = &mut self.lists[tx];
        (list.cursor, list.min_at) = (cursor, min_at);
        (best_band != NO_BAND).then(|| {
            Candidate::key(
                NodeId::from_index(tx),
                NodeId::from_index(best_rx),
                BandId::from_index(usize::from(best_band)),
                best_weight,
            )
        })
    }

    /// Rescans group `tx` ([`Frontier::group_min`]) and sets its new
    /// smallest key in the tree, or removes the group once it is empty.
    /// Returns that key.
    fn rescan(&mut self, v: &View<'_>, tx: usize) -> Option<u128> {
        let min = self.group_min(v, tx);
        self.lists[tx].exact = true;
        self.minima.set(tx, min.unwrap_or(u128::MAX));
        min
    }

    /// The smallest key with both endpoints free, or `None` once every
    /// group is gone. On the way, a top group whose transmitter is busy
    /// leaves the tree, and a top key whose receiver is busy makes its
    /// group rescan, which passes it over.
    fn peek(&mut self, v: &View<'_>) -> Option<u128> {
        while let Some(top) = self.minima.top() {
            let tx = tx_of(top);
            if v.busy[tx] {
                self.minima.set(tx, u128::MAX);
            } else if !self.lists[tx].exact || v.busy[rx_of(top)] {
                self.rescan(v, tx);
            } else {
                return Some(top);
            }
        }
        None
    }

    /// Consumes the key [`Frontier::peek`] returned, whose link was
    /// probed and rejected (or taken into sequential-fix's pool). `next`,
    /// the link's next band, takes its place; `None` drops the link for
    /// the slot.
    fn advance(&mut self, v: &View<'_>, next: Option<u128>) {
        let Some(top) = self.minima.top() else {
            return;
        };
        let tx = tx_of(top);
        let at = self.lists[tx].min_at as usize;
        self.state[at] = self.now << 8 | u32::from(next.map_or(NO_BAND, band_of));
        let min = self.rescan(v, tx);
        match next {
            Some(next) if min != Some(next) => self.counts.reoffered_behind += 1,
            None if min.is_none() => self.counts.exhausted += 1,
            _ => {}
        }
    }
}

/// A link's place in its transmitter's list as one integer: ascending, it
/// sorts by `H` descending (its bits, negated, as `H ≥ 0`), then by
/// receiver.
fn list_order(h: f64, rx: u32) -> u128 {
    (u128::from(!h.to_bits()) << 32) | u128::from(rx)
}

/// What the frontier reads of the slot: the band counts, the receivers'
/// admission and the busy mask.
struct View<'a> {
    pkts: &'a [f64],
    rx_ok: &'a [bool],
    busy: &'a [bool],
}

/// The band index of a packed key.
fn band_of(key: u128) -> u8 {
    (key & FIELD) as u8
}

/// Brings the scratch's frontier up to the bank and fills it for this
/// slot, with every node free. Zero heap allocation once the buffers have
/// grown.
///
/// Each link's candidates, in key order, form one sorted list, and the
/// full candidate order is the merge of those lists; each group's
/// smallest key is that merge's frontier, and [`Frontier::advance`] moves
/// it one candidate on.
fn frontier_into(inp: &S1Inputs<'_>, scratch: &mut S1Scratch) {
    refresh_memos(inp, scratch);
    let S1Scratch {
        frontier,
        pkts_per_band,
        tx_ok,
        rx_ok,
        busy,
        ..
    } = scratch;
    busy.clear();
    busy.resize(inp.net.topology().len(), false);
    frontier.sync(inp.net, inp.links);
    frontier.fill(&view(pkts_per_band, rx_ok, busy), tx_ok);
}

/// The frontier's view of this slot through `scratch`'s memos and busy
/// mask.
fn view<'a>(pkts: &'a [f64], rx_ok: &'a [bool], busy: &'a [bool]) -> View<'a> {
    View { pkts, rx_ok, busy }
}

/// The full candidate list in scheduling order (weight desc, then ids) —
/// the references' own generator, one full sort over every `(i, j, m)`.
fn candidates(inp: &S1Inputs<'_>) -> Vec<Candidate> {
    let mut scratch = S1Scratch::new();
    refresh_memos(inp, &mut scratch);
    let beta = inp.links.beta();
    let mut keys = Vec::new();
    for (i, j, g) in inp.links.backlogs() {
        let h = beta * g.count_f64();
        if admissible(&scratch.tx_ok, &scratch.rx_ok, i, j, h) {
            let bands = inp.net.link_bands(i, j);
            keys.extend(link_keys(bands, &scratch.pkts_per_band, i, j, h));
        }
    }
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
/// full-sort order: the frontier pops the smallest key with both
/// endpoints free, and a link whose head is rejected offers its next
/// band. Each probe solves (24) exactly for the accepted links on the
/// candidate's band plus the candidate ([`PowerControlWorkspace`]),
/// extending that band's factors by one row and column; a rejected
/// candidate is undone in `O(k_b)`. Only an accepted probe enters the
/// schedule. After the last probe the workspace holds exactly the
/// schedule, and its solution is `out.powers`.
pub fn greedy_schedule_with(
    inp: &S1Inputs<'_>,
    scratch: &mut S1Scratch,
    out: &mut ScheduleOutcome,
) {
    frontier_into(inp, scratch);
    out.clear();
    scratch.ws.clear();
    loop {
        let v = view(&scratch.pkts_per_band, &scratch.rx_ok, &scratch.busy);
        let Some(key) = scratch.frontier.peek(&v) else {
            break;
        };
        let cand = Candidate::from_key(key);
        let t = Transmission::new(cand.tx, cand.rx, cand.band);
        if scratch
            .ws
            .probe(inp.net, inp.spectrum, inp.phy, inp.max_powers, t)
            .is_ok()
        {
            // The frontier yields only links with both endpoints free on a
            // shared band, so the schedule takes every accepted probe.
            let added = out.schedule.try_add(inp.net, t);
            debug_assert!(added.is_ok(), "frontier yielded {t}: {added:?}");
            if added.is_err() {
                scratch.ws.pop_candidate();
                let v = view(&scratch.pkts_per_band, &scratch.rx_ok, &scratch.busy);
                scratch.frontier.advance(&v, None);
                continue;
            }
            // Both endpoints' groups leave the frontier as they reach its
            // top.
            scratch.busy[cand.tx.index()] = true;
            scratch.busy[cand.rx.index()] = true;
            continue;
        }
        let next = next_band(inp, &scratch.pkts_per_band, key);
        let v = view(&scratch.pkts_per_band, &scratch.rx_ok, &scratch.busy);
        scratch.frontier.advance(&v, next);
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
    frontier_into(inp, scratch);
    out.clear();
    scratch.ws.clear();
    // The pool is the first `MAX_SF_CANDIDATES` of the full candidate
    // order: consume every head in turn, each link offering its next band.
    // No node is busy, so the frontier drops nothing. Each pool link's
    // big-M constant is computed here, once per call.
    scratch.active.clear();
    while scratch.active.len() < MAX_SF_CANDIDATES {
        let v = view(&scratch.pkts_per_band, &scratch.rx_ok, &scratch.busy);
        let Some(key) = scratch.frontier.peek(&v) else {
            break;
        };
        let c = Candidate::from_key(key);
        let next = next_band(inp, &scratch.pkts_per_band, key);
        scratch.frontier.advance(&v, next);
        scratch
            .active
            .push((c, worst_interference(inp, c.tx, c.rx)));
    }
    scratch.fixed_interference.clear();

    while !scratch.active.is_empty() {
        // Drop candidates conflicting with the fixed set (single radio).
        let schedule = &out.schedule;
        scratch
            .active
            .retain(|(c, _)| !schedule.is_busy(c.tx) && !schedule.is_busy(c.rx));
        if scratch.active.is_empty() {
            break;
        }
        let Some(alphas) = solve_relaxation(
            inp,
            &out.schedule,
            &scratch.fixed_interference,
            &scratch.active,
        ) else {
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
            .map(|(k, (_, (c, _)))| (k, c.weight))
            .max_by(|a, b| a.1.total_cmp(&b.1))
        else {
            break; // unreachable: active is non-empty
        };
        let (cand, interference) = scratch.active.swap_remove(best_idx);
        let t = Transmission::new(cand.tx, cand.rx, cand.band);
        if let Ok(idx) = out.schedule.try_add(inp.net, t) {
            if scratch
                .ws
                .probe(inp.net, inp.spectrum, inp.phy, inp.max_powers, t)
                .is_ok()
            {
                scratch.fixed_interference.push(interference);
            } else {
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
        // The big-M constants, recomputed every round.
        let with_interference: Vec<(Candidate, f64)> = active
            .iter()
            .map(|&c| (c, worst_interference(inp, c.tx, c.rx)))
            .collect();
        let fixed_interference: Vec<f64> = schedule
            .transmissions()
            .iter()
            .map(|t| worst_interference(inp, t.tx(), t.rx()))
            .collect();
        let Some(alphas) =
            solve_relaxation(inp, &schedule, &fixed_interference, &with_interference)
        else {
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

/// `Σ_{k≠tx,rx} g_k,rx·P^k_max`: the most interference `rx` can hear
/// while `tx` sends to it, summed over the nodes in id order. It sets the
/// big-M constant of the link's row (24).
fn worst_interference(inp: &S1Inputs<'_>, tx: NodeId, rx: NodeId) -> f64 {
    let topo = inp.net.topology();
    topo.ids()
        .filter(|&k| k != tx && k != rx)
        .map(|k| topo.gain(k, rx) * inp.max_powers[k.index()].as_watts())
        .sum::<f64>()
}

/// Solves the sequential-fix LP relaxation; returns `α` per active
/// candidate, or `None` on solver failure. Each active candidate comes
/// with its [`worst_interference`], and `fixed_interference` holds the
/// fixed transmissions' in schedule order.
fn solve_relaxation(
    inp: &S1Inputs<'_>,
    fixed: &Schedule,
    fixed_interference: &[f64],
    active: &[(Candidate, f64)],
) -> Option<Vec<f64>> {
    let topo = inp.net.topology();
    let gamma = inp.phy.sinr_threshold();
    let mut lp = LinearProgram::new();

    // α and q per active candidate; q per fixed transmission (its power is
    // still a free variable in the relaxation).
    let alpha_vars: Vec<_> = active
        .iter()
        .map(|(c, _)| lp.add_variable(-c.weight, 0.0, 1.0))
        .collect();
    let q_active: Vec<_> = active
        .iter()
        .map(|(c, _)| lp.add_variable(0.0, 0.0, inp.max_powers[c.tx.index()].as_watts()))
        .collect();
    let q_fixed: Vec<_> = fixed
        .transmissions()
        .iter()
        .map(|t| lp.add_variable(0.0, 0.0, inp.max_powers[t.tx().index()].as_watts()))
        .collect();

    // q ≤ P_max·α for active candidates.
    for (k, (c, _)) in active.iter().enumerate() {
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
            .filter(|(_, (c, _))| c.tx == node || c.rx == node)
            .map(|(k, _)| (alpha_vars[k], 1.0))
            .collect();
        if terms.len() > 1 {
            lp.add_constraint(&terms, Relation::Le, 1.0);
        }
    }

    // (24), big-M linearized, for every active candidate and every fixed
    // transmission. Interferers are the co-band q variables.
    debug_assert_eq!(fixed.len(), fixed_interference.len());
    let mut rows: Vec<(NodeId, NodeId, BandId, Option<usize>, f64)> = Vec::new();
    for (k, &(c, interference)) in active.iter().enumerate() {
        rows.push((c.tx, c.rx, c.band, Some(k), interference));
    }
    for (t, &interference) in fixed.transmissions().iter().zip(fixed_interference) {
        rows.push((t.tx(), t.rx(), t.band(), None, interference));
    }
    for &(tx, rx, band, alpha_idx, interference) in &rows {
        let g_direct = topo.gain(tx, rx);
        let noise = inp
            .spectrum
            .bandwidth(band)
            .noise_power_watts(inp.phy.noise_density());
        // M = Γ(ηW + Σ_{k≠tx} g_k,rx · P^k_max): the row is vacuous at α=0.
        let m_big: f64 = gamma * (noise + interference);
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
        for (k2, (c2, _)) in active.iter().enumerate() {
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

/// The one-pass frontier the persistent lists replaced: every slot, one
/// head key per backlogged admissible link, grouped by transmitter. Kept
/// as the lockstep oracle of [`Frontier`].
#[cfg(test)]
mod one_pass {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::binary_heap::{BinaryHeap, PeekMut};

    /// Fills `frontier` with each admissible link's head key, built anew
    /// from every backlogged link, with `scratch`'s memos.
    pub(super) fn heads_into(inp: &S1Inputs<'_>, scratch: &mut S1Scratch, frontier: &mut Frontier) {
        refresh_memos(inp, scratch);
        let S1Scratch {
            pkts_per_band,
            tx_ok,
            rx_ok,
            ..
        } = scratch;
        frontier.memo.refresh(pkts_per_band);
        let beta = inp.links.beta();
        frontier.clear(inp.net.topology().len());
        let mut open = OpenGroup::default();
        for (i, j, g) in inp.links.backlogs() {
            let h = beta * g.count_f64();
            if admissible(tx_ok, rx_ok, i, j, h) {
                let bands = inp.net.link_bands(i, j);
                if let Some(key) = frontier.memo.head(bands, pkts_per_band, i, j, h) {
                    frontier.push(&mut open, key);
                }
            }
        }
        frontier.close(open);
    }

    /// One transmitter's keys in [`Frontier::keys`].
    #[derive(Debug, Clone, Copy, Default)]
    struct Group {
        /// The first key.
        start: usize,
        /// One past the last key.
        end: usize,
        /// The smallest key as of the group's last rescan.
        min_at: usize,
    }

    /// The heads of the per-link merge, grouped by transmitter: each group's
    /// keys lie in one range of `keys`, and a heap holds each live group's
    /// smallest key. A group leaves the heap when its transmitter turns busy
    /// (checked when it reaches the top) or its last key goes.
    #[derive(Debug, Clone, Default)]
    pub(super) struct Frontier {
        /// The head-band memo.
        memo: BandMemo,
        /// The keys, each transmitter's in one contiguous range.
        keys: Vec<u128>,
        /// Per node, its range of `keys` as a transmitter. Only the entries of
        /// this call's transmitters are read.
        groups: Vec<Group>,
        /// The groups' smallest keys, smallest on top.
        minima: BinaryHeap<Reverse<u128>>,
        /// What this call's merge did.
        pub(super) counts: FrontierCounts,
    }

    /// The transmitter group [`Frontier::push`] is filling, held by the
    /// caller so that it stays in registers.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct OpenGroup {
        /// Its transmitter; `usize::MAX` before the first key.
        tx: usize,
        /// Its first key.
        start: usize,
        /// Its smallest key so far.
        min_at: usize,
    }

    impl Default for OpenGroup {
        fn default() -> Self {
            Self {
                tx: usize::MAX,
                start: 0,
                min_at: 0,
            }
        }
    }

    impl Frontier {
        /// Empties the frontier for a `nodes`-node network's heads.
        pub(super) fn clear(&mut self, nodes: usize) {
            self.keys.clear();
            self.groups.clear();
            self.groups.resize(nodes, Group::default());
            self.minima.clear();
            self.counts = FrontierCounts::default();
        }

        /// Appends a head. The heads must come in row-major order, as
        /// [`LinkQueueBank::backlogs`] yields them, so that each transmitter's
        /// keys form one run: a key of a new transmitter closes `open` and
        /// opens the next group. [`Frontier::close`] closes the last one.
        pub(super) fn push(&mut self, open: &mut OpenGroup, key: u128) {
            let (tx, at) = (tx_of(key), self.keys.len());
            if tx != open.tx {
                debug_assert!(open.tx == usize::MAX || open.tx < tx, "heads not row-major");
                self.close(*open);
                *open = OpenGroup {
                    tx,
                    start: at,
                    min_at: at,
                };
            } else if key < self.keys[open.min_at] {
                open.min_at = at;
            }
            self.keys.push(key);
        }

        /// Records the group `open` as one range of `keys`, ending at the last
        /// key, and puts its smallest key on the heap. A group with no key is
        /// skipped.
        pub(super) fn close(&mut self, open: OpenGroup) {
            if open.start < self.keys.len() {
                self.groups[open.tx] = Group {
                    start: open.start,
                    end: self.keys.len(),
                    min_at: open.min_at,
                };
                self.minima.push(Reverse(self.keys[open.min_at]));
            }
        }

        /// The smallest key with both endpoints free, or `None` once every
        /// group is gone. On the way, a top group whose transmitter is busy
        /// leaves the heap, and a top key whose receiver is busy makes its
        /// group rescan, which drops it.
        pub(super) fn peek(&mut self, busy: &[bool]) -> Option<u128> {
            while let Some(&Reverse(top)) = self.minima.peek() {
                if busy[tx_of(top)] {
                    self.minima.pop();
                } else if busy[rx_of(top)] {
                    self.rescan(tx_of(top), busy);
                } else {
                    return Some(top);
                }
            }
            None
        }

        /// Consumes the key [`Frontier::peek`] returned, whose link was
        /// probed and rejected (or taken into sequential-fix's pool). `next`,
        /// the link's next band, takes its place; `None` drops the link.
        pub(super) fn advance(&mut self, next: Option<u128>, busy: &[bool]) {
            let Some(&Reverse(top)) = self.minima.peek() else {
                return;
            };
            let tx = tx_of(top);
            let group = &mut self.groups[tx];
            let at = group.min_at;
            match next {
                Some(next) => self.keys[at] = next,
                None => {
                    group.end -= 1;
                    self.keys[at] = self.keys[group.end];
                }
            }
            let min = self.rescan(tx, busy);
            match next {
                Some(next) if min != Some(next) => self.counts.reoffered_behind += 1,
                None if min.is_none() => self.counts.exhausted += 1,
                _ => {}
            }
        }

        /// Rescans the top group `tx`, dropping its keys whose receiver is
        /// busy, and puts its new smallest key on top of the heap (sifted
        /// down), or pops the group once it is empty. Returns that key.
        fn rescan(&mut self, tx: usize, busy: &[bool]) -> Option<u128> {
            // Locals, not the group's fields, in the loop: measured a few
            // percent of the call faster.
            let group = &mut self.groups[tx];
            let (mut k, mut end, mut min_at) = (group.start, group.end, group.start);
            let mut smallest = u128::MAX;
            while k < end {
                let key = self.keys[k];
                if busy[rx_of(key)] {
                    end -= 1;
                    self.keys[k] = self.keys[end];
                    self.counts.receiver_busy += 1;
                } else {
                    if key < smallest {
                        smallest = key;
                        min_at = k;
                    }
                    k += 1;
                }
            }
            group.end = end;
            group.min_at = min_at;
            // No key is `u128::MAX`, which would decode to a zero weight.
            let min = (end > group.start).then_some(smallest);
            if let Some(mut top) = self.minima.peek_mut() {
                match min {
                    Some(min) => *top = Reverse(min),
                    None => {
                        PeekMut::pop(top);
                    }
                }
            }
            min
        }
    }
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

    /// A random band set of `bands` bands, of a random density.
    fn random_mask(rng: &mut greencell_stochastic::Rng, bands: usize) -> BandSet {
        let density = rng.range_f64(0.0, 1.0);
        (0..bands)
            .filter(|_| rng.chance(density))
            .map(BandId::from_index)
            .collect()
    }

    /// `H_ij = β·G` with a backlog `G` up to 2⁴⁰ and β from a list.
    fn random_h(rng: &mut greencell_stochastic::Rng, betas: &[f64]) -> f64 {
        betas[rng.index(betas.len())] * (1 + rng.below(1 << 40)) as f64
    }

    /// The memo's head is `head_key`'s bit for bit on 20 000 random masks
    /// of up to 64 bands, drawn from a pool larger than the memo so that
    /// entries hit and collide: counts tied and zero, `H_ij = β·G` with
    /// backlogs up to 2⁴⁰ and β from 10⁻³⁰⁰ to `f64::MAX` (so some links
    /// fall back to the scan), and every tenth slot with one count the
    /// memo does not serve (fractional, 2⁵², huge, `+∞` or NaN).
    #[test]
    fn memo_head_matches_head_key() {
        let mut rng = greencell_stochastic::Rng::seed_from(5);
        let pkts_values = [0.0, 1.0, 2.0, 2.0, 3.0, 40.0, 1e6, 1_099_511_627_776.0];
        let bad_values = [0.5, MAX_EXACT_PKTS, 1e300, f64::INFINITY, f64::NAN];
        let betas = [1.0, 100.0, 12_000.0, 0.37, 1e-300, 1e300, f64::MAX];
        let mut memo = BandMemo::default();
        let (mut hits, mut collisions, mut scans) = (0, 0, 0);
        for slot in 0..200 {
            let bands = 1 + rng.index(64);
            let mut pkts: Vec<f64> = (0..bands)
                .map(|_| pkts_values[rng.index(pkts_values.len())])
                .collect();
            if slot % 10 == 9 {
                pkts[rng.index(bands)] = bad_values[rng.index(bad_values.len())];
            }
            memo.refresh(&pkts);
            let pool: Vec<BandSet> = (0..150).map(|_| random_mask(&mut rng, bands)).collect();
            for _ in 0..100 {
                let mask = pool[rng.index(pool.len())];
                let h = random_h(&mut rng, &betas);
                let (tx, rx) = (
                    NodeId::from_index(rng.index(50)),
                    NodeId::from_index(rng.index(50)),
                );
                let held = memo.entries[memo_slot(mask.bits())].0;
                if !(memo.h_lo <= h && h <= memo.h_hi) {
                    scans += 1;
                } else if held == mask.bits() {
                    hits += 1;
                } else if held != 0 {
                    collisions += 1;
                }
                assert_eq!(
                    memo.head(mask, &pkts, tx, rx, h),
                    head_key(mask, &pkts, tx, rx, h),
                    "{pkts:?} {mask} h={h}"
                );
            }
        }
        assert!(
            hits > 1000 && collisions > 1000 && scans > 1000,
            "{hits} hits, {collisions} collisions, {scans} scans"
        );
    }

    /// The one-scan `next_key` is the filter-and-min over `link_keys` bit
    /// for bit, along each link's whole band order from its head, on
    /// 20 000 random masks of up to 64 bands with tied, zero and infinite
    /// counts and `H_ij = β·G` with backlogs up to 2⁴⁰.
    #[test]
    fn next_key_matches_the_filter_and_min() {
        let mut rng = greencell_stochastic::Rng::seed_from(7);
        let pkts_values = [0.0, 1.0, 2.0, 2.0, 3.0, 40.0, 1e6, f64::INFINITY];
        let betas = [1.0, 12_000.0, 0.37, 1e-300, 1e300];
        let (mut steps, mut ties) = (0, 0);
        for _ in 0..20_000 {
            let bands = 1 + rng.index(64);
            let pkts: Vec<f64> = (0..bands)
                .map(|_| pkts_values[rng.index(pkts_values.len())])
                .collect();
            let mask = random_mask(&mut rng, bands);
            let h = random_h(&mut rng, &betas);
            let (tx, rx) = (
                NodeId::from_index(rng.index(50)),
                NodeId::from_index(rng.index(50)),
            );
            let mut key = head_key(mask, &pkts, tx, rx, h);
            while let Some(at) = key {
                let want = link_keys(mask, &pkts, tx, rx, h).filter(|&k| k > at).min();
                key = next_key(mask, &pkts, h, at);
                assert_eq!(key, want, "{pkts:?} {mask} h={h}");
                steps += 1;
                let weight = |k: u128| Candidate::from_key(k).weight;
                ties += usize::from(key.is_some_and(|k| weight(k) == weight(at)));
            }
        }
        assert!(
            steps > 100_000 && ties > 10_000,
            "{steps} steps, {ties} ties"
        );
    }

    /// The one-pass oracle frontier pops exactly the keys of a full sort
    /// that has the keys with a busy endpoint filtered out, on 2 000 random key
    /// sets: 1–4 bands per link with tied weights, each probed key
    /// accepted (both endpoints turn busy) or rejected (the link offers its
    /// next key), and random nodes marked busy between pops. With nothing
    /// accepted or marked, that is sequential-fix's pool: the whole sort.
    #[test]
    fn frontier_pops_match_a_filtered_full_sort() {
        let mut rng = greencell_stochastic::Rng::seed_from(11);
        let weights = [1.0, 2.0, 2.0, 3.0, 7.5, 1e9];
        let mut frontier = one_pass::Frontier::default();
        let mut total = FrontierCounts::default();
        for case in 0..2_000u64 {
            let nodes = 2 + rng.index(40);
            let density = rng.range_f64(0.05, 0.6);
            let mut links: std::collections::BTreeMap<(usize, usize), Vec<u128>> =
                std::collections::BTreeMap::new();
            for tx in 0..nodes {
                for rx in (0..nodes).filter(|&rx| rx != tx) {
                    if rng.chance(density) {
                        let mut keys: Vec<u128> = (0..1 + rng.index(4))
                            .map(|m| {
                                let w = weights[rng.index(weights.len())];
                                Candidate::key(
                                    NodeId::from_index(tx),
                                    NodeId::from_index(rx),
                                    BandId::from_index(m),
                                    w,
                                )
                            })
                            .collect();
                        keys.sort_unstable();
                        links.insert((tx, rx), keys);
                    }
                }
            }
            let accept = [0.0, 0.2, 0.5][(case % 3) as usize];
            let mark = [0.0, 0.3][(case % 2) as usize];
            // One probe's random outcome: maybe a node marked busy, then
            // accepted or not.
            let step = |rng: &mut greencell_stochastic::Rng, busy: &mut [bool]| {
                if rng.chance(mark) {
                    busy[rng.index(nodes)] = true;
                }
                rng.chance(accept)
            };

            let mut want = Vec::new();
            let (mut draws, mut busy) = (
                greencell_stochastic::Rng::seed_from(case),
                vec![false; nodes],
            );
            let mut sorted: Vec<u128> = links.values().flatten().copied().collect();
            sorted.sort_unstable();
            for key in sorted {
                let (tx, rx) = (tx_of(key), rx_of(key));
                if busy[tx] || busy[rx] {
                    continue;
                }
                want.push(key);
                if step(&mut draws, &mut busy) {
                    busy[tx] = true;
                    busy[rx] = true;
                }
            }

            let mut got = Vec::new();
            let (mut draws, mut busy) = (
                greencell_stochastic::Rng::seed_from(case),
                vec![false; nodes],
            );
            frontier.clear(nodes);
            let mut open = one_pass::OpenGroup::default();
            for keys in links.values() {
                frontier.push(&mut open, keys[0]);
            }
            frontier.close(open);
            while let Some(key) = frontier.peek(&busy) {
                got.push(key);
                let (tx, rx) = (tx_of(key), rx_of(key));
                if step(&mut draws, &mut busy) {
                    busy[tx] = true;
                    busy[rx] = true;
                } else {
                    let next = links[&(tx, rx)].iter().copied().find(|&k| k > key);
                    frontier.advance(next, &busy);
                }
            }
            assert_eq!(got, want, "case {case}");
            let counts = frontier.counts;
            total.receiver_busy += counts.receiver_busy;
            total.reoffered_behind += counts.reoffered_behind;
            total.exhausted += counts.exhausted;
        }
        assert!(
            total.receiver_busy > 100 && total.reoffered_behind > 100 && total.exhausted > 100,
            "{total:?}"
        );
    }

    /// One multi-slot lockstep run's family: `H`'s scale, the flow sizes
    /// routing hands the links, and the first slot's (before any
    /// service).
    struct Family {
        beta: f64,
        flows: &'static [u64],
        first: &'static [u64],
    }

    /// What the lockstep runs reached, to show that they cover the paths
    /// that matter.
    #[derive(Debug, Default)]
    struct Reach {
        pops: usize,
        refills: usize,
        masked_nodes: usize,
        inadmissible: usize,
        rounding_ties: usize,
        equal_backlogs: usize,
        scanned_heads: usize,
    }

    /// A random network of 6–24 nodes (1–3 base stations), 2–6 bands,
    /// every third node on a random subset of them.
    fn lockstep_network(rng: &mut greencell_stochastic::Rng) -> Network {
        let n = 6 + rng.index(19);
        let bands = 2 + rng.index(5);
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), bands);
        for k in 0..n {
            let angle = k as f64 * std::f64::consts::TAU / n as f64;
            let radius = rng.range_f64(100.0, 900.0);
            let p = Point::new(1000.0 + radius * angle.cos(), 1000.0 + radius * angle.sin());
            let node = if k < 1 + k % 3 && k < 3 {
                b.add_base_station(p)
            } else {
                b.add_user(p)
            };
            if rng.index(3) == 0 {
                let mut subset = BandSet::empty();
                subset.insert(BandId::from_index(rng.index(bands)));
                for m in 0..bands {
                    if rng.chance(0.5) {
                        subset.insert(BandId::from_index(m));
                    }
                }
                b.set_bands(node, subset);
            }
        }
        b.build().expect("valid network")
    }

    /// Pops `persistent`'s frontier and `oracle`'s in step for this slot:
    /// between pops random nodes turn busy, and each popped link is
    /// accepted (both endpoints turn busy) or rejected (it offers its next
    /// band), the same on both sides. With `pool`, nothing turns busy and
    /// the first `MAX_SF_CANDIDATES` pops are compared, as sequential-fix
    /// draws them.
    fn pops_in_step(
        inp: &S1Inputs<'_>,
        persistent: &mut S1Scratch,
        oracle: (&mut S1Scratch, &mut one_pass::Frontier),
        rng: &mut greencell_stochastic::Rng,
        pool: bool,
    ) -> usize {
        let n = inp.net.topology().len();
        frontier_into(inp, persistent);
        let (oracle_scratch, oracle_frontier) = oracle;
        one_pass::heads_into(inp, oracle_scratch, oracle_frontier);
        let (mark, accept) = if pool { (0.0, 0.0) } else { (0.2, 0.4) };
        let mut busy = vec![false; n];
        let mut pops = 0;
        loop {
            let v = view(&persistent.pkts_per_band, &persistent.rx_ok, &busy);
            let got = persistent.frontier.peek(&v);
            let want = oracle_frontier.peek(&busy);
            assert_eq!(
                got.map(Candidate::from_key).map(|c| (c.tx, c.rx, c.band)),
                want.map(Candidate::from_key).map(|c| (c.tx, c.rx, c.band)),
                "pop {pops}"
            );
            assert_eq!(got, want, "pop {pops}: keys differ");
            let Some(key) = got else {
                break;
            };
            pops += 1;
            if pool && pops == MAX_SF_CANDIDATES {
                break;
            }
            if rng.chance(mark) {
                busy[rng.index(n)] = true;
            }
            if rng.chance(accept) {
                busy[tx_of(key)] = true;
                busy[rx_of(key)] = true;
                continue;
            }
            let next = next_band(inp, &persistent.pkts_per_band, key);
            let v = view(&persistent.pkts_per_band, &persistent.rx_ok, &busy);
            persistent.frontier.advance(&v, next);
            oracle_frontier.advance(next, &busy);
        }
        pops
    }

    /// One lockstep run of 40 slots on a random network: each slot routes
    /// random flows of `family`'s sizes into the bank and serves random
    /// backlogged links, redraws the bandwidths (a band now and then down
    /// to zero), marks nodes down (a fault draw, or a base station asleep
    /// for a stretch of slots), and flips energy budgets. Every seventh
    /// slot restores an earlier state, into the bank or into a new one.
    /// The persistent frontier and the one-pass oracle then pop in step,
    /// as the greedy loop and as sequential-fix's pool, and the kernels'
    /// schedules equal those of a scratch that refills every slot.
    fn lockstep_run(seed: u64, family: &Family, reach: &mut Reach) {
        let mut rng = greencell_stochastic::Rng::seed_from(seed);
        let net = lockstep_network(&mut rng);
        let (n, bands) = (net.topology().len(), net.band_count());
        let mut links = LinkQueueBank::new(n, family.beta);
        let mut saved = links.clone();
        let (mut persistent, mut oracle) = (S1Scratch::new(), S1Scratch::new());
        let mut oracle_frontier = one_pass::Frontier::default();
        let phy = PhyConfig::new(1.0, 1e-20);
        let max_powers: Vec<Power> = (0..n)
            .map(|i| Power::from_watts(if i < 3 { 20.0 } else { 1.0 }))
            .collect();
        let models =
            vec![
                NodeEnergyModel::new(Energy::ZERO, Energy::ZERO, Power::from_milliwatts(100.0));
                n
            ];
        let (mut asleep, mut asleep_for) = (0, 0);
        let widths = [0.5, 1.0, 1.0, 2.5, 2.0];
        for slot in 0..40 {
            let mut plan = FlowPlan::new(n, 1);
            let sizes = if slot == 0 {
                family.first
            } else {
                family.flows
            };
            for _ in 0..rng.index(2 * n) {
                let i = rng.index(n);
                let j = (i + 1 + rng.index(n - 1)) % n;
                let l = sizes[rng.index(sizes.len())];
                plan.set(
                    SessionId::from_index(0),
                    NodeId::from_index(i),
                    NodeId::from_index(j),
                    Packets::new(l),
                );
            }
            let mut service: Vec<(NodeId, NodeId, Packets)> = Vec::new();
            for (i, j, g) in links.backlogs() {
                if rng.chance(0.15) {
                    service.push((i, j, Packets::new(rng.below(g.count() + 1))));
                }
            }
            links.advance(&plan, &service);
            if slot % 7 == 6 {
                if rng.chance(0.5) {
                    links.restore(saved.queues());
                } else {
                    let mut fresh = LinkQueueBank::new(n, family.beta);
                    fresh.restore(saved.queues());
                    links = fresh;
                }
                reach.refills += 1;
            } else if slot % 5 == 2 {
                saved = links.clone();
            }
            let spectrum = SpectrumState::new(
                (0..bands)
                    .map(|_| {
                        let w = if rng.chance(0.05) {
                            0.0
                        } else {
                            widths[rng.index(widths.len())]
                        };
                        Bandwidth::from_megahertz(w)
                    })
                    .collect(),
            );
            if asleep_for == 0 && rng.chance(0.2) {
                (asleep, asleep_for) = (rng.index(3.min(n)), 1 + rng.index(5));
            }
            let available: Vec<bool> = (0..n)
                .map(|i| !(asleep_for > 0 && i == asleep || rng.chance(0.08)))
                .collect();
            asleep_for = asleep_for.saturating_sub(1);
            let budget: Vec<Energy> = (0..n)
                .map(|_| {
                    if rng.chance(0.2) {
                        Energy::from_joules(10.0)
                    } else {
                        Energy::from_kilowatt_hours(1.0)
                    }
                })
                .collect();
            reach.masked_nodes += available.iter().filter(|&&up| !up).count();
            let inp = S1Inputs {
                net: &net,
                phy: &phy,
                spectrum: &spectrum,
                links: &links,
                max_powers: &max_powers,
                energy_models: &models,
                traffic_budget: &budget,
                available: &available,
                slot: TimeDelta::from_minutes(1.0),
                packet_size: PacketSize::from_bits(10_000),
            };
            for pool in [false, true] {
                reach.pops += pops_in_step(
                    &inp,
                    &mut persistent,
                    (&mut oracle, &mut oracle_frontier),
                    &mut rng,
                    pool,
                );
            }
            // The kernels on the persistent frontier schedule as on a
            // frontier refilled this slot.
            let (mut out, mut fresh_out) = (ScheduleOutcome::empty(), ScheduleOutcome::empty());
            greedy_schedule_with(&inp, &mut persistent, &mut out);
            greedy_schedule_with(&inp, &mut S1Scratch::new(), &mut fresh_out);
            assert_eq!(out, fresh_out, "greedy, slot {slot}");
            if slot % 10 == 9 {
                // Its LPs are slow in a debug build: a few slots suffice.
                sequential_fix_schedule_with(&inp, &mut persistent, &mut out);
                sequential_fix_schedule_with(&inp, &mut S1Scratch::new(), &mut fresh_out);
                assert_eq!(out, fresh_out, "sequential-fix, slot {slot}");
            }

            reach.inadmissible += (0..n)
                .filter(|&i| !persistent.tx_ok[i] || !persistent.rx_ok[i])
                .count();
            let memo = &persistent.frontier.memo;
            let by_tx = |i: usize| {
                links
                    .backlogs()
                    .filter(move |&(tx, _, _)| tx.index() == i)
                    .map(|(_, rx, g)| (rx, g.count()))
            };
            for i in 0..n {
                let heads: Vec<(u64, f64)> = by_tx(i)
                    .filter_map(|(rx, g)| {
                        let h = links.h(NodeId::from_index(i), rx);
                        if !(memo.h_lo <= h && h <= memo.h_hi) {
                            reach.scanned_heads += 1;
                        }
                        let bands = net.link_bands(NodeId::from_index(i), rx);
                        best_band(bands, &persistent.pkts_per_band, h).map(|(_, w)| (g, w))
                    })
                    .collect();
                for (k, &(g, w)) in heads.iter().enumerate() {
                    for &(g2, w2) in &heads[k + 1..] {
                        reach.equal_backlogs += usize::from(g == g2);
                        reach.rounding_ties += usize::from(g != g2 && w == w2);
                    }
                }
            }
        }
    }

    /// The persistent frontier pops what the one-pass oracle pops, slot by
    /// slot, on 48 runs over six families: ordinary backlogs, backlogs
    /// that are mostly equal, backlogs past 2⁵⁰ whose weights tie after
    /// rounding, and `β` so small or large that the head-band memo serves
    /// no link.
    #[test]
    fn persistent_frontier_matches_the_one_pass_oracle_across_slots() {
        const ORDINARY: &[u64] = &[1, 5, 40, 120, 250, 600];
        const EQUAL: &[u64] = &[40];
        const HUGE: &[u64] = &[(1 << 52) + 1, (1 << 53) + 3, (1 << 53) + 4, 1 << 54];
        let families = [
            Family {
                beta: 100.0,
                flows: ORDINARY,
                first: ORDINARY,
            },
            Family {
                beta: 12_000.0,
                flows: EQUAL,
                first: EQUAL,
            },
            Family {
                beta: 1.0,
                flows: &[1, 2, 3],
                first: HUGE,
            },
            Family {
                beta: 0.37,
                flows: &[1, 2],
                first: HUGE,
            },
            Family {
                beta: 1e-300,
                flows: ORDINARY,
                first: ORDINARY,
            },
            Family {
                beta: 1e290,
                flows: ORDINARY,
                first: ORDINARY,
            },
        ];
        let mut reach = Reach::default();
        for (f, family) in families.iter().enumerate() {
            for run in 0..8 {
                lockstep_run(1_000 * f as u64 + run, family, &mut reach);
            }
        }
        assert!(
            reach.pops > 40_000
                && reach.refills > 200
                && reach.masked_nodes > 1_000
                && reach.inadmissible > 3_000
                && reach.rounding_ties > 500
                && reach.equal_backlogs > 20_000
                && reach.scanned_heads > 20_000,
            "{reach:?}"
        );
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
