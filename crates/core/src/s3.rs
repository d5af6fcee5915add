//! S3 — routing: choose the per-session flows `l^s_ij(t)` minimizing
//! `Σ_s Σ_ij (−Q^s_i + Q^s_j + β·H_ij)·l^s_ij` (§IV-C3).
//!
//! The objective is linear, so each link's flow goes entirely to the
//! session with the most negative coefficient — a backpressure rule with
//! `β·H_ij` as a link-congestion penalty. Destination delivery is handled
//! first: constraint (18) asks the destination's inflow to equal `v_s(t)`,
//! so for each session the cheapest link into `d_s` carries up to `v_s(t)`
//! packets.
//!
//! ## The two-layer interpretation (documented deviation)
//!
//! Read literally, the paper couples S1 and S3 into a deadlock: S1 fixes
//! `α^m_ij = 0` wherever `H_ij = 0`, while (25) caps `l^s_ij` by the
//! *scheduled* capacity — so from the all-zero initial state no link is
//! ever scheduled and no packet ever moves. The functional reading (and
//! the standard one for shadow-queue designs à la Bui–Srikant–Stolyar)
//! treats `G_ij` as a genuine link-layer buffer: **routing** moves packets
//! from the network-layer queue `Q^s_i` into the link buffer `G_ij`,
//! bounded per link-slot by the same constant the paper's Lemma 1 uses for
//! `G`'s arrivals (`β = max (1/δ)c^max_ij·Δt` packets), and **scheduling**
//! drains `G_ij` over the air at the realized capacity — which is exactly
//! constraint (25) applied at the layer where transmission happens. Both
//! queueing laws (15) and (28) are implemented verbatim; only the cap on
//! `l` moves from "this slot's `α`" to "the link's capacity bound".
//!
//! Additional documented deviations: flows are capped by the sender's
//! actual backlog (the paper's `max{·,0}` tolerates phantom packets; we
//! do not manufacture them), and each link carries at most one session per
//! slot (the paper's winner-take-all, applied after delivery flows).
//!
//! ## The sparse kernel
//!
//! A slot's backlog sits at a few senders: an average `city` part holds
//! about 6 non-empty data queues among 52 and routes about 7 flows over
//! some 2 600 routable links. [`route_flows_into`] therefore works from a
//! [`RoutingTable`] — the caps sorted by `(sender, receiver)` with
//! per-sender offsets, rebuilt only when a part's up-mask changes — and
//! from the data bank's non-empty queues, and touches only what can move
//! packets.
//!
//! Phase 1 walks each session's backlogged senders (the non-empty list is
//! session-major, senders ascending) and finds a sender's link into `d_s`
//! by binary search over its out-links, which ascend by receiver. A
//! sender without backlog was never eligible, so the first minimum of
//! `(w, i)` is the one the dense scan over the destination's in-links
//! finds.
//!
//! Phase 2 splits the global greedy over `(w, s, link)` exactly by
//! sender: a candidate's outcome reads only its link's cap and use and
//! its sender's backlog, all of which belong to the sender. Each sender
//! scans its out-links in ascending order, pushes each link's negative
//! candidates into a binary heap under the comparator `(w, s, link)`, and
//! pops the heap lazily under a floor bound. A session `s` with backlog
//! left at sender `i` has the floor `L_s = −Q^s_i`, and each of its
//! candidates has `w = (−Q^s_i + Q^s_j) + β·H_ij ≥ L_s`: `Q^s_j ≥ 0`,
//! `β·H_ij ≥ 0`, IEEE addition is monotone in each argument, and a NaN
//! is never a candidate. With `B` the least `(L_s, s)` over the live
//! sessions, every candidate not yet pushed is at least `(B, later
//! link)`, so once a link's candidates are in, a heap top whose `(w, s)`
//! is at most `B` precedes every other candidate, seen or not, and is
//! applied at once. A drained session's candidates move nothing wherever
//! they fall, so a drain recomputes `B` over the sessions still live and
//! the scan ends when none is left; on the city the first link into an
//! empty queue with an empty link buffer usually ends it. The comparator
//! orders candidates totally, so the push order does not matter, and the
//! flows are the global greedy's bit for bit.
//!
//! The same bound prunes whole links: with `bh = β·H_ij` computed once
//! per link, a link with `B.w + bh ≥ 0` (`B.w = −q_max`, the largest
//! live backlog) is skipped, since every live session's coefficient is at
//! least `fl(−q_max + bh) ≥ 0` (a `+∞` `bh` prunes, a NaN one does not).
//! On the paper scenario `β·H_ij = β²·G_ij` dwarfs every backlog once
//! `G_ij ≥ 1`, so most links go without a session loop. Debug builds
//! check every pruned link's coefficients and every pushed candidate's
//! floor.
//!
//! Remaining caps live in retained scratch, and a call resets just the
//! links it spent. [`route_flows_reference`], the dense original, is the
//! oracle of the lockstep test `crates/core/tests/prop_s3_kernel.rs`.

use crate::Admission;
use greencell_net::{Network, NodeId, SessionId};
use greencell_queue::{DataQueueBank, FlowPlan, LinkQueueBank};
use greencell_units::Packets;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::ops::Range;

/// The links routing may use, with their per-slot flow caps in packets,
/// sorted by `(sender, receiver)`, plus per-sender offsets into the list —
/// what lets S3 visit only the links of backlogged senders and find a
/// sender's link into a destination by binary search. A controller
/// rebuilds it only when a part's up-mask changes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingTable {
    caps: Vec<(NodeId, NodeId, Packets)>,
    /// `caps[out_start[i]..out_start[i + 1]]` are node `i`'s out-links.
    out_start: Vec<usize>,
}

impl RoutingTable {
    /// Grows the buffers for `nodes` nodes and `links` links, so rebuilding
    /// within those bounds allocates nothing.
    pub(crate) fn reserve(&mut self, nodes: usize, links: usize) {
        reserve_total(&mut self.caps, links);
        reserve_total(&mut self.out_start, nodes + 1);
    }

    /// Replaces the links with `caps`, `(i, j, cap)` triples over `nodes`
    /// nodes, in place.
    ///
    /// # Panics
    ///
    /// Panics if the triples do not strictly ascend by `(i, j)` (the order
    /// of `Topology::ordered_pairs`), or a link is a self-loop or names a
    /// node out of range.
    pub fn rebuild(
        &mut self,
        nodes: usize,
        caps: impl IntoIterator<Item = (NodeId, NodeId, Packets)>,
    ) {
        self.caps.clear();
        self.caps.extend(caps);
        assert!(
            self.caps
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "routing caps must strictly ascend by (sender, receiver)"
        );
        self.out_start.clear();
        self.out_start.resize(nodes + 1, 0);
        for &(i, j, _) in &self.caps {
            assert!(
                i != j && i.index() < nodes && j.index() < nodes,
                "routing link {i} → {j} is a self-loop or out of range"
            );
            self.out_start[i.index() + 1] += 1;
        }
        for k in 0..nodes {
            self.out_start[k + 1] += self.out_start[k];
        }
    }

    /// Every routable link with its cap, sorted by `(sender, receiver)`.
    #[must_use]
    pub(crate) fn caps(&self) -> &[(NodeId, NodeId, Packets)] {
        &self.caps
    }

    /// The positions in [`RoutingTable::caps`] of node `i`'s out-links.
    #[must_use]
    pub(crate) fn out_links(&self, i: NodeId) -> Range<usize> {
        self.out_start[i.index()]..self.out_start[i.index() + 1]
    }

    /// The position in [`RoutingTable::caps`] of link `i → j`, if
    /// routable: a binary search over `i`'s out-links, which ascend by
    /// receiver.
    #[must_use]
    pub(crate) fn link(&self, i: NodeId, j: NodeId) -> Option<usize> {
        let out = self.out_links(i);
        let start = out.start;
        self.caps[out]
            .binary_search_by_key(&j, |&(_, j, _)| j)
            .ok()
            .map(|at| start + at)
    }
}

/// A phase-2 candidate: session `s` on link `caps[link]` at coefficient
/// `w`, where `k` is the session's place in its sender's run. Ordered by
/// `(w, s, link)` reversed, so [`BinaryHeap`] pops the least first.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    w: f64,
    s: SessionId,
    link: usize,
    k: usize,
}

impl Candidate {
    /// The greedy's order: `(w, s, link)`, total (`w` by `total_cmp`).
    fn key_cmp(&self, other: &Self) -> Ordering {
        self.w
            .total_cmp(&other.w)
            .then(self.s.cmp(&other.s))
            .then(self.link.cmp(&other.link))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.key_cmp(other).is_eq()
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key_cmp(self)
    }
}

/// Retained scratch for [`route_flows_into`]. Between calls every link's
/// spent cap is zero; a call resets just the links it touched. No buffer
/// shrinks, so steady-state routing performs zero heap allocations.
#[derive(Debug, Clone, Default)]
pub struct S3Scratch {
    /// Packets of each link's cap spent so far this call. Phase 2 hands a
    /// link to one session only, so it marks the link's whole cap spent.
    spent: Vec<Packets>,
    /// Each session's chosen source `s_s(t)`, if admitted.
    source: Vec<Option<NodeId>>,
    /// Each session's phase-1 link and the packets it delivered.
    delivery: Vec<Option<(usize, Packets)>>,
    /// The non-empty queues `(sender, session, backlog)`: session-major
    /// for phase 1, then phase 2's unspent backlogs by sender, then
    /// session.
    senders: Vec<(NodeId, SessionId, Packets)>,
    /// One sender's pushed, not yet popped candidates.
    heap: BinaryHeap<Candidate>,
    /// The out-links phase 2 scanned in the last call, over all senders.
    scanned: usize,
}

impl S3Scratch {
    /// Grows the buffers for `nodes` nodes, `sessions` sessions, and up to
    /// `links` routable links (in all: reserving the same bounds twice
    /// grows nothing), so a steady-state slot allocates nothing
    /// even when the backpressure candidate set hits a new peak: one
    /// sender offers at most `nodes − 1` links to each of `sessions`
    /// sessions.
    pub fn reserve(&mut self, nodes: usize, sessions: usize, links: usize) {
        reserve_total(&mut self.spent, links);
        reserve_total(&mut self.source, sessions);
        reserve_total(&mut self.delivery, sessions);
        reserve_total(&mut self.senders, nodes * sessions);
        // The heap is empty between calls.
        self.heap.reserve(nodes * sessions);
    }
}

/// Makes room for `total` elements in all (not in addition to the
/// present ones), so reserving the same bounds again is free.
fn reserve_total<T>(v: &mut Vec<T>, total: usize) {
    v.reserve(total.saturating_sub(v.len()));
}

/// Runs S3 over a prebuilt [`RoutingTable`], into caller-owned scratch and
/// plan — the pipeline's allocation-free path. The plan is reset to the
/// network's dimensions (retaining its buffer).
///
/// The table lists every link routing may use this slot with its flow cap
/// in packets (the controller passes all `ℳ_i ∩ ℳ_j ≠ ∅` pairs with the
/// `β` bound); `admissions` supplies the chosen sources `s_s(t)` (for
/// constraint (16)); `session_demand` supplies `v_s(t)` (for (18)).
///
/// The work is proportional to the backlogged senders and the flows they
/// set (see "The sparse kernel" in the module docs):
/// * phase 1 visits each session's backlogged senders and looks up each
///   one's link into the destination by binary search;
/// * phase 2 visits only `(session, sender)` pairs with backlog left
///   after phase 1, sender by sender. Every input to a candidate's
///   outcome — its link's remaining cap, whether the link is used, the
///   sender's backlog — belongs to the link's sender. A sender's
///   candidates go into a heap ordered by the global comparator
///   `(w, s, link)` as its out-links are scanned, and the heap top is
///   applied as soon as the floor bound `B` (the least `(−Q^s_i, s)` over
///   the sessions with backlog left) shows that no candidate still to
///   come precedes it; the scan stops once every session has drained.
///
/// Decisions are identical to [`route_flows_reference`].
///
/// # Panics
///
/// Panics if `session_demand.len()` differs from the session count.
#[allow(clippy::too_many_arguments)]
pub fn route_flows_into(
    net: &Network,
    data: &DataQueueBank,
    links: &LinkQueueBank,
    table: &RoutingTable,
    admissions: &[Admission],
    session_demand: &[Packets],
    scratch: &mut S3Scratch,
    plan: &mut FlowPlan,
) {
    let sessions = net.session_count();
    assert_eq!(session_demand.len(), sessions, "one demand per session");
    let beta = links.beta();
    plan.reset(net.topology().len(), sessions);
    let caps = table.caps();
    let S3Scratch {
        spent,
        source,
        delivery,
        senders,
        heap,
        scanned,
    } = scratch;
    spent.resize(caps.len(), Packets::ZERO);
    *scanned = 0;
    // The first admission of a session names its source.
    source.clear();
    source.resize(sessions, None);
    for a in admissions.iter().rev() {
        if let Some(slot) = source.get_mut(a.session.index()) {
            *slot = Some(a.source);
        }
    }
    // The coefficient `−Q^s_i + Q^s_j + β·H_ij`, given `bh = β·H_ij`.
    let coeff = |s: SessionId, i: NodeId, j: NodeId, bh: f64| -> f64 {
        -data.backlog(i, s).count_f64() + data.backlog(j, s).count_f64() + bh
    };

    // Phase 1: destination delivery per (18), from each session's
    // backlogged senders (session-major, senders ascending).
    delivery.clear();
    delivery.resize(sessions, None);
    senders.clear();
    senders.extend(data.nonempty_backlogs());
    for run in senders.chunk_by(|a, b| a.1 == b.1) {
        let s = run[0].1;
        let dest = net.session(s).destination();
        let want = session_demand[s.index()];
        if want == Packets::ZERO {
            continue;
        }
        // Cheapest link into the destination with spare capacity and actual
        // backlog at the sender: the first minimum of `(coefficient, i)`,
        // each link's coefficient computed once.
        let mut best: Option<(f64, NodeId, usize, Packets)> = None;
        for &(i, _, q) in run {
            let Some(idx) = table.link(i, dest) else {
                continue;
            };
            if caps[idx].2.saturating_sub(spent[idx]) == Packets::ZERO {
                continue;
            }
            let w = coeff(s, i, dest, beta * links.h(i, dest));
            if best.is_none_or(|(bw, bi, _, _)| w.total_cmp(&bw).then(i.cmp(&bi)).is_lt()) {
                best = Some((w, i, idx, q));
            }
        }
        if let Some((_, i, idx, q)) = best {
            let amount = want.min(caps[idx].2.saturating_sub(spent[idx])).min(q);
            plan.set(s, i, dest, amount);
            spent[idx] += amount;
            delivery[s.index()] = Some((idx, amount));
        }
    }

    // Phase 2: backpressure — greedy over (session, link) pairs with
    // negative coefficients, one session per link, sender by sender. Only
    // a sender with backlog can have a negative coefficient, and one whose
    // backlog phase 1 spent moves nothing.
    for entry in senders.iter_mut() {
        let (i, s, q) = *entry;
        let taken = match delivery[s.index()] {
            Some((idx, amount)) if caps[idx].0 == i => amount,
            _ => Packets::ZERO,
        };
        entry.2 = q.saturating_sub(taken);
    }
    senders.retain(|&(_, _, left)| left > Packets::ZERO);
    senders.sort_unstable_by_key(|&(i, s, _)| (i, s));
    for run in senders.chunk_by_mut(|a, b| a.0 == b.0) {
        let i = run[0].0;
        // The sessions that may leave `i` at all: (17).
        let may_leave = |s: SessionId| i != net.session(s).destination();
        // The floor bound `B`: the least `(−Q^s_i, s)` over the sessions
        // still live (backlog left, may leave) — no candidate of theirs
        // lies below it (see "The sparse kernel").
        let floor = |run: &[(NodeId, SessionId, Packets)]| {
            run.iter()
                .filter(|&&(_, s, left)| left > Packets::ZERO && may_leave(s))
                .map(|&(_, s, _)| (-data.backlog(i, s).count_f64(), s))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        };
        let mut bound = floor(run);
        let out = table.out_links(i);
        let mut visited = 0;
        for idx in out.clone() {
            let Some((lo, _)) = bound else { break };
            visited += 1;
            let (_, j, c) = caps[idx];
            if c.saturating_sub(spent[idx]) == Packets::ZERO {
                continue;
            }
            // `lo = −q_max`: a link whose coefficient at the largest live
            // backlog is not negative has no live negative coefficient.
            let bh = beta * links.h(i, j);
            if lo + bh >= 0.0 {
                debug_assert!(
                    run.iter().all(|&(_, s, left)| left == Packets::ZERO
                        || !may_leave(s)
                        || coeff(s, i, j, bh) >= 0.0),
                    "S3 pruned link {i} → {j} with a negative coefficient"
                );
                continue;
            }
            for (k, &(_, s, left)) in run.iter().enumerate() {
                let dest = net.session(s).destination();
                if left == Packets::ZERO
                    || i == dest
                    || Some(j) == source[s.index()] // (16)
                    || j == dest
                // dest inflow handled in phase 1
                {
                    continue;
                }
                let w = coeff(s, i, j, bh);
                if w < 0.0 {
                    debug_assert!(
                        w >= -data.backlog(i, s).count_f64(),
                        "S3 candidate {i} → {j} of {s} below its floor"
                    );
                    heap.push(Candidate { w, s, link: idx, k });
                }
            }
            // Every candidate still to come is at least `(B, later link)`.
            while let (Some(top), Some(b)) = (heap.peek_mut(), bound) {
                if top.w.total_cmp(&b.0).then(top.s.cmp(&b.1)).is_gt() {
                    break;
                }
                if apply(PeekMut::pop(top), i, caps, spent, run, plan) {
                    bound = floor(run);
                }
            }
        }
        // The scan is over: the rest pop in order while a session is live.
        while bound.is_some() {
            let Some(top) = heap.pop() else { break };
            if apply(top, i, caps, spent, run, plan) {
                bound = floor(run);
            }
        }
        heap.clear();
        // Phase 2 spent only scanned links, and no later sender reads them.
        spent[out.start..out.start + visited].fill(Packets::ZERO);
        *scanned += visited;
    }
    for &(idx, _) in delivery.iter().flatten() {
        spent[idx] = Packets::ZERO;
    }
}

/// Applies phase-2 candidate `c` of sender `i`: the link's remaining cap,
/// at most the session's unspent backlog, goes to the session, and the
/// link is used up. Returns `true` if this drained the session.
fn apply(
    c: Candidate,
    i: NodeId,
    caps: &[(NodeId, NodeId, Packets)],
    spent: &mut [Packets],
    run: &mut [(NodeId, SessionId, Packets)],
    plan: &mut FlowPlan,
) -> bool {
    // A used link has its whole cap spent, so it moves nothing.
    let (_, j, cap) = caps[c.link];
    let amount = cap.saturating_sub(spent[c.link]).min(run[c.k].2);
    if amount == Packets::ZERO {
        return false;
    }
    let already = plan.get(c.s, i, j);
    plan.set(c.s, i, j, already + amount);
    spent[c.link] = cap;
    run[c.k].2 = run[c.k].2.saturating_sub(amount);
    run[c.k].2 == Packets::ZERO
}

/// Reference implementation of S3: phase 1 scans every link
/// once per session, phase 2 sorts every negative `(session, link)`
/// candidate of the slot in one global list, over dense copies of the caps
/// and backlogs. The test oracle of [`route_flows_into`].
///
/// # Panics
///
/// Panics if `session_demand.len()` differs from the session count.
#[must_use]
pub fn route_flows_reference(
    net: &Network,
    data: &DataQueueBank,
    links: &LinkQueueBank,
    routing_caps: &[(NodeId, NodeId, Packets)],
    admissions: &[Admission],
    session_demand: &[Packets],
) -> FlowPlan {
    let sessions = net.session_count();
    assert_eq!(session_demand.len(), sessions, "one demand per session");
    let nodes = net.topology().len();
    let beta = links.beta();
    let mut plan = FlowPlan::new(nodes, sessions);

    // Remaining link capacity and remaining sender backlog (anti-phantom).
    let mut cap = routing_caps.to_vec();
    let mut backlog = Vec::with_capacity(nodes * sessions);
    for s in 0..sessions {
        for i in 0..nodes {
            backlog.push(data.backlog(NodeId::from_index(i), SessionId::from_index(s)));
        }
    }
    let b_idx = |s: SessionId, i: NodeId| s.index() * nodes + i.index();

    let source_of = |s: SessionId| -> NodeId {
        admissions
            .iter()
            .find(|a| a.session == s)
            .map_or(NodeId::from_index(usize::MAX - 1), |a| a.source)
    };

    let coeff = |s: SessionId, i: NodeId, j: NodeId| -> f64 {
        -data.backlog(i, s).count_f64() + data.backlog(j, s).count_f64() + beta * links.h(i, j)
    };

    // Phase 1: destination delivery per (18).
    for session in net.sessions() {
        let s = session.id();
        let dest = session.destination();
        let want = session_demand[s.index()];
        if want == Packets::ZERO {
            continue;
        }
        // Cheapest link into the destination with spare capacity and actual
        // backlog at the sender.
        let best = cap
            .iter()
            .enumerate()
            .filter(|(_, &(i, j, c))| {
                j == dest && c > Packets::ZERO && i != dest && backlog[b_idx(s, i)] > Packets::ZERO
            })
            .min_by(|(_, &(i1, j1, _)), (_, &(i2, j2, _))| {
                coeff(s, i1, j1)
                    .total_cmp(&coeff(s, i2, j2))
                    .then(i1.cmp(&i2))
            })
            .map(|(idx, _)| idx);
        if let Some(idx) = best {
            let (i, j, c) = cap[idx];
            let amount = want.min(c).min(backlog[b_idx(s, i)]);
            if amount > Packets::ZERO {
                plan.set(s, i, j, amount);
                cap[idx].2 = c.saturating_sub(amount);
                let bi = b_idx(s, i);
                backlog[bi] = backlog[bi].saturating_sub(amount);
            }
        }
    }

    // Phase 2: backpressure — globally greedy over (session, link) pairs
    // with negative coefficients, one session per link.
    let mut combos = Vec::new();
    for (idx, &(i, j, c)) in cap.iter().enumerate() {
        if c == Packets::ZERO {
            continue;
        }
        for s_idx in 0..sessions {
            let s = SessionId::from_index(s_idx);
            if j == source_of(s)                          // (16)
                || i == net.session(s).destination()      // (17)
                || j == net.session(s).destination()
            // dest inflow handled in phase 1
            {
                continue;
            }
            let w = coeff(s, i, j);
            if w < 0.0 {
                combos.push((w, s, idx));
            }
        }
    }
    combos.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    let mut link_used = vec![false; cap.len()];
    for &(_, s, idx) in &combos {
        if link_used[idx] {
            continue;
        }
        let (i, j, remaining) = cap[idx];
        let bi = b_idx(s, i);
        let amount = remaining.min(backlog[bi]);
        if amount == Packets::ZERO {
            continue;
        }
        let already = plan.get(s, i, j);
        plan.set(s, i, j, already + amount);
        cap[idx].2 = remaining.saturating_sub(amount);
        backlog[bi] = backlog[bi].saturating_sub(amount);
        link_used[idx] = true;
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencell_net::{NetworkBuilder, PathLossModel, Point};
    use greencell_units::DataRate;

    /// Chain: BS(0) → u1(1) → u2(2); one session destined to u2.
    fn fixture() -> (Network, DataQueueBank, LinkQueueBank) {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        b.add_base_station(Point::new(0.0, 0.0));
        b.add_user(Point::new(300.0, 0.0));
        let u2 = b.add_user(Point::new(600.0, 0.0));
        b.add_session(u2, DataRate::from_kilobits_per_second(100.0));
        let net = b.build().unwrap();
        let data = DataQueueBank::new(3, &[u2]);
        let links = LinkQueueBank::new(3, 10.0);
        (net, data, links)
    }

    /// One S3 solve over `routing_caps` (grouped by ascending sender) with
    /// fresh scratch and plan.
    fn route_flows(
        net: &Network,
        data: &DataQueueBank,
        links: &LinkQueueBank,
        routing_caps: &[(NodeId, NodeId, Packets)],
        admissions: &[Admission],
        session_demand: &[Packets],
    ) -> FlowPlan {
        let mut table = RoutingTable::default();
        table.rebuild(net.topology().len(), routing_caps.iter().copied());
        let mut plan = FlowPlan::default();
        route_flows_into(
            net,
            data,
            links,
            &table,
            admissions,
            session_demand,
            &mut S3Scratch::default(),
            &mut plan,
        );
        plan
    }

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }
    fn s0() -> SessionId {
        SessionId::from_index(0)
    }

    fn fill(data: &mut DataQueueBank, node: usize, pkts: u64) {
        data.advance(&FlowPlan::new(3, 1), &[(s0(), n(node), Packets::new(pkts))]);
    }

    fn adm(source: usize) -> Vec<Admission> {
        vec![Admission {
            session: s0(),
            source: n(source),
            packets: Packets::ZERO,
        }]
    }

    #[test]
    fn backpressure_forwards_toward_emptier_queue() {
        let (net, mut data, links) = fixture();
        fill(&mut data, 0, 100); // BS heavily backlogged, u1 empty
        let caps = vec![(n(0), n(1), Packets::new(40))];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::ZERO]);
        // coeff = −100 + 0 + 0 < 0 ⇒ forward min(cap, backlog) = 40.
        assert_eq!(plan.get(s0(), n(0), n(1)).count(), 40);
    }

    #[test]
    fn empty_sender_moves_nothing() {
        let (net, mut data, links) = fixture();
        fill(&mut data, 1, 100); // u1 full, BS empty
        let caps = vec![(n(0), n(1), Packets::new(40))];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::ZERO]);
        assert_eq!(plan.total().count(), 0);
    }

    #[test]
    fn positive_coefficient_blocks_flow() {
        let (net, mut data, links) = fixture();
        fill(&mut data, 0, 10);
        fill(&mut data, 1, 100); // downstream more congested: coeff = −10+100 > 0
        let caps = vec![(n(0), n(1), Packets::new(40))];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::ZERO]);
        assert_eq!(plan.total().count(), 0);
    }

    #[test]
    fn destination_delivery_satisfies_demand_first() {
        let (net, mut data, links) = fixture();
        fill(&mut data, 1, 50); // relay u1 holds 50 packets for u2
        let caps = vec![(n(1), n(2), Packets::new(40))];
        // v_s = 30: phase 1 delivers 30; phase 2 never adds onto dest links.
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::new(30)]);
        assert_eq!(plan.get(s0(), n(1), n(2)).count(), 30);
    }

    #[test]
    fn delivery_capped_by_capacity_and_backlog() {
        let (net, mut data, links) = fixture();
        fill(&mut data, 1, 5);
        let caps = vec![(n(1), n(2), Packets::new(40))];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::new(30)]);
        assert_eq!(plan.get(s0(), n(1), n(2)).count(), 5); // backlog-limited
    }

    #[test]
    fn no_flow_into_the_source() {
        let (net, mut data, links) = fixture();
        fill(&mut data, 1, 50);
        // Link u1 → BS (node 0), but node 0 is the session's source.
        let caps = vec![(n(1), n(0), Packets::new(40))];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::ZERO]);
        assert_eq!(plan.total().count(), 0);
    }

    #[test]
    fn no_flow_out_of_the_destination() {
        let (net, data, links) = fixture();
        // The destination holds no queue for its own session, so the only
        // way flow could leave it is a bug in the (17) filter; check the
        // rule directly on link u2 → u1.
        let caps = vec![(n(2), n(1), Packets::new(40))];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::ZERO]);
        assert_eq!(plan.total().count(), 0);
    }

    #[test]
    fn congested_link_queue_discourages_routing() {
        let (net, mut data, mut links) = fixture();
        fill(&mut data, 0, 10);
        // Pile 100 packets onto virtual queue (0→1): β·H = 10·(10·100) ≫ 10.
        let mut vplan = FlowPlan::new(3, 1);
        vplan.set(s0(), n(0), n(1), Packets::new(100));
        links.advance(&vplan, &[]);
        let caps = vec![(n(0), n(1), Packets::new(40))];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::ZERO]);
        assert_eq!(plan.total().count(), 0);
    }

    #[test]
    fn most_negative_coefficient_claims_capacity_first() {
        // Two links out of node 0 with limited backlog: the steeper
        // gradient (toward the emptier next hop) wins the packets.
        let (net, mut data, links) = fixture();
        fill(&mut data, 0, 30);
        fill(&mut data, 1, 20); // u1 moderately full; u2 is dest (skip)
        let caps = vec![
            (n(0), n(1), Packets::new(100)), // coeff −30+20 = −10
        ];
        let plan = route_flows(&net, &data, &links, &caps, &adm(0), &[Packets::ZERO]);
        assert_eq!(plan.get(s0(), n(0), n(1)).count(), 30);
    }

    #[test]
    fn one_session_per_link_per_slot() {
        // Two sessions both want link 0→1; only the more negative one gets
        // it this slot.
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        b.add_base_station(Point::new(0.0, 0.0));
        b.add_user(Point::new(300.0, 0.0));
        let u2 = b.add_user(Point::new(600.0, 0.0));
        b.add_session(u2, DataRate::ZERO);
        b.add_session(u2, DataRate::ZERO);
        let net = b.build().unwrap();
        let mut data = DataQueueBank::new(3, &[u2, u2]);
        data.advance(
            &FlowPlan::new(3, 2),
            &[
                (SessionId::from_index(0), n(0), Packets::new(10)),
                (SessionId::from_index(1), n(0), Packets::new(90)),
            ],
        );
        let links = LinkQueueBank::new(3, 10.0);
        let caps = vec![(n(0), n(1), Packets::new(50))];
        let adm: Vec<Admission> = (0..2)
            .map(|s| Admission {
                session: SessionId::from_index(s),
                source: n(0),
                packets: Packets::ZERO,
            })
            .collect();
        let plan = route_flows(&net, &data, &links, &caps, &adm, &[Packets::ZERO; 2]);
        assert_eq!(plan.get(SessionId::from_index(1), n(0), n(1)).count(), 50);
        assert_eq!(plan.get(SessionId::from_index(0), n(0), n(1)).count(), 0);
    }

    /// A 6-node star: BS(0) with out-links to users 1–4, each capped at
    /// `cap`; two sessions destined to user 5, both admitted at the BS.
    /// Session 0 holds 30 packets at the BS, session 1 holds 10 there and
    /// 20 at user 1. Returns the flows and the out-links phase 2 scanned.
    fn star(cap: u64) -> (Flows, usize) {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 1);
        b.add_base_station(Point::new(0.0, 0.0));
        for k in 1..5 {
            b.add_user(Point::new(300.0 * k as f64, 0.0));
        }
        let u5 = b.add_user(Point::new(1500.0, 0.0));
        b.add_session(u5, DataRate::ZERO);
        b.add_session(u5, DataRate::ZERO);
        let net = b.build().unwrap();
        let (s0, s1) = (SessionId::from_index(0), SessionId::from_index(1));
        let mut data = DataQueueBank::new(6, &[u5, u5]);
        data.advance(
            &FlowPlan::new(6, 2),
            &[
                (s0, n(0), Packets::new(30)),
                (s1, n(0), Packets::new(10)),
                (s1, n(1), Packets::new(20)),
            ],
        );
        let links = LinkQueueBank::new(6, 10.0);
        let caps: Vec<_> = (1..5).map(|j| (n(0), n(j), Packets::new(cap))).collect();
        let adm: Vec<Admission> = [s0, s1]
            .into_iter()
            .map(|session| Admission {
                session,
                source: n(0),
                packets: Packets::ZERO,
            })
            .collect();
        let demand = [Packets::ZERO; 2];
        let mut table = RoutingTable::default();
        table.rebuild(6, caps.iter().copied());
        let (mut scratch, mut plan) = (S3Scratch::default(), FlowPlan::default());
        route_flows_into(
            &net,
            &data,
            &links,
            &table,
            &adm,
            &demand,
            &mut scratch,
            &mut plan,
        );
        let flows: Flows = plan.iter_nonzero().collect();
        let reference = route_flows_reference(&net, &data, &links, &caps, &adm, &demand);
        assert_eq!(flows, reference.iter_nonzero().collect::<Flows>());
        (flows, scratch.scanned)
    }

    type Flows = Vec<(SessionId, NodeId, NodeId, Packets)>;

    /// A floor candidate (`Q^s_j = 0`, `H_ij = 0`) is applied as soon as its
    /// link is scanned, a drain raises `B` to the next session's floor,
    /// and the scan ends when the last session drains: link 0 → 1 takes
    /// session 0's 30 packets at `B = (−30, s0)`, link 0 → 2 session 1's 10
    /// at the raised `B = (−10, s1)`, and links 0 → 3 and 0 → 4 are never
    /// read.
    #[test]
    fn floor_bound_ends_the_scan_when_the_last_session_drains() {
        let (s0, s1) = (SessionId::from_index(0), SessionId::from_index(1));
        let (flows, scanned) = star(40);
        assert_eq!(
            flows,
            vec![
                (s0, n(0), n(1), Packets::new(30)),
                (s1, n(0), n(2), Packets::new(10)),
            ]
        );
        assert_eq!(scanned, 2);
    }

    /// A floor candidate whose cap cannot take the session's backlog is
    /// applied and the scan goes on: session 0 spreads over links 1–2 at
    /// cap 20, then session 1 takes link 3 and the scan stops there.
    #[test]
    fn a_capped_floor_candidate_keeps_the_scan_going() {
        let (s0, s1) = (SessionId::from_index(0), SessionId::from_index(1));
        let (flows, scanned) = star(20);
        assert_eq!(
            flows,
            vec![
                (s0, n(0), n(1), Packets::new(20)),
                (s0, n(0), n(2), Packets::new(10)),
                (s1, n(0), n(3), Packets::new(10)),
            ]
        );
        assert_eq!(scanned, 3);
    }

    /// Candidates pop from the heap in the reference's sort order
    /// `(w, s, link)`, with tied coefficients, signed zeros and infinities.
    #[test]
    fn heap_pops_in_the_greedy_order() {
        let mut rng = greencell_stochastic::Rng::seed_from(3);
        let ws = [-f64::INFINITY, -40.0, -40.0, -5.0, -0.5, -0.0, 0.0, 3.0];
        let mut heap = BinaryHeap::new();
        for _ in 0..200 {
            let len = rng.index(40);
            let mut sorted: Vec<(f64, SessionId, usize)> = Vec::with_capacity(len);
            for link in 0..len {
                for s in 0..3 {
                    if rng.index(2) == 0 {
                        let w = ws[rng.index(ws.len())];
                        sorted.push((w, SessionId::from_index(s), link));
                    }
                }
            }
            heap.clear();
            for (k, &(w, s, link)) in sorted.iter().enumerate().rev() {
                heap.push(Candidate { w, s, link, k });
            }
            sorted.sort_unstable_by(|a, b| {
                a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
            });
            let popped: Vec<_> = std::iter::from_fn(|| heap.pop())
                .map(|c| (c.w.to_bits(), c.s, c.link))
                .collect();
            let want: Vec<_> = sorted.iter().map(|c| (c.0.to_bits(), c.1, c.2)).collect();
            assert_eq!(popped, want);
        }
    }

    /// The binary-search lookup finds exactly the table's links, on random
    /// tables sorted by `(sender, receiver)`.
    #[test]
    fn link_lookup_matches_a_scan() {
        let mut rng = greencell_stochastic::Rng::seed_from(5);
        let mut table = RoutingTable::default();
        for _ in 0..100 {
            let nodes = 1 + rng.index(12);
            let caps: Vec<_> = (0..nodes)
                .flat_map(|i| (0..nodes).map(move |j| (n(i), n(j), Packets::new(1))))
                .filter(|&(i, j, _)| i != j)
                .filter(|_| rng.index(3) != 0)
                .collect();
            table.rebuild(nodes, caps.iter().copied());
            for i in 0..nodes {
                for j in 0..nodes {
                    let at = caps.iter().position(|&(a, b, _)| (a, b) == (n(i), n(j)));
                    assert_eq!(table.link(n(i), n(j)), at, "{i} → {j}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascend")]
    fn rebuild_rejects_receivers_out_of_order() {
        let mut table = RoutingTable::default();
        table.rebuild(
            3,
            [(n(0), n(2), Packets::new(1)), (n(0), n(1), Packets::new(1))],
        );
    }
}
