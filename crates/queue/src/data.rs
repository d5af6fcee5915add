//! The network-layer data queues `Q^s_i(t)` of Eq. (15).

use crate::{queue::NonEmpty, FlowPlan, PacketQueue};
use greencell_net::{NodeId, SessionId};
use greencell_units::Packets;

/// The bank of per-node per-session data queues, evolving by Eq. (15):
///
/// ```text
/// Q^s_i(t+1) = max{Q^s_i(t) − Σ_j l^s_ij(t), 0} + Σ_j l^s_ji(t) + k_s(t)·1{i = s_s(t)}
/// ```
///
/// Destination nodes hold no queue for their own session (§III-A): inflow
/// at `d_s` is *delivered* — counted in [`DataQueueBank::delivered`] — and
/// `Q^s_{d_s}` stays identically zero.
///
/// # Examples
///
/// ```
/// use greencell_net::{NodeId, SessionId};
/// use greencell_queue::{DataQueueBank, FlowPlan};
/// use greencell_units::Packets;
///
/// // 3 nodes; session 0 terminates at node 2.
/// let mut bank = DataQueueBank::new(3, &[NodeId::from_index(2)]);
/// let s = SessionId::from_index(0);
///
/// // Slot 1: 10 packets admitted at source node 0.
/// bank.advance(&FlowPlan::new(3, 1), &[(s, NodeId::from_index(0), Packets::new(10))]);
/// assert_eq!(bank.backlog(NodeId::from_index(0), s).count(), 10);
///
/// // Slot 2: forward 10 from node 0 straight to the destination.
/// let mut plan = FlowPlan::new(3, 1);
/// plan.set(s, NodeId::from_index(0), NodeId::from_index(2), Packets::new(10));
/// bank.advance(&plan, &[]);
/// assert_eq!(bank.backlog(NodeId::from_index(0), s).count(), 0);
/// assert_eq!(bank.backlog(NodeId::from_index(2), s).count(), 0); // delivered, not queued
/// assert_eq!(bank.delivered(s).count(), 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DataQueueBank {
    nodes: usize,
    destinations: Vec<NodeId>,
    /// `queues[s·n + i]`.
    queues: Vec<PacketQueue>,
    /// The indices of the non-empty `queues`, ascending.
    nonempty: NonEmpty,
    delivered: Vec<Packets>,
    phantom_forwarded: Vec<Packets>,
}

impl DataQueueBank {
    /// Creates an all-empty bank for `nodes` nodes; `destinations[s]` is
    /// the fixed destination `d_s` of session `s`.
    ///
    /// # Panics
    ///
    /// Panics if any destination id is out of range.
    #[must_use]
    pub fn new(nodes: usize, destinations: &[NodeId]) -> Self {
        assert!(
            destinations.iter().all(|d| d.index() < nodes),
            "destination out of range"
        );
        let queues = vec![PacketQueue::new(); destinations.len() * nodes];
        Self {
            nodes,
            destinations: destinations.to_vec(),
            nonempty: NonEmpty::empty(queues.len()),
            queues,
            delivered: vec![Packets::ZERO; destinations.len()],
            phantom_forwarded: vec![Packets::ZERO; destinations.len()],
        }
    }

    fn idx(&self, i: NodeId, s: SessionId) -> usize {
        s.index() * self.nodes + i.index()
    }

    /// The backlog `Q^s_i(t)`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[must_use]
    pub fn backlog(&self, i: NodeId, s: SessionId) -> Packets {
        self.queues[self.idx(i, s)].backlog()
    }

    /// Sum of `Q^s_i(t)` over every session at node `i`.
    #[must_use]
    pub fn node_backlog(&self, i: NodeId) -> Packets {
        (0..self.destinations.len())
            .map(|s| self.backlog(i, SessionId::from_index(s)))
            .sum()
    }

    /// Sum of all backlogs in the bank, O(non-empty queues).
    #[must_use]
    pub fn total_backlog(&self) -> Packets {
        self.nonempty_backlogs().map(|(_, _, q)| q).sum()
    }

    /// Packets delivered to session `s`'s destination so far.
    #[must_use]
    pub fn delivered(&self, s: SessionId) -> Packets {
        self.delivered[s.index()]
    }

    /// Iterates over the non-empty queues as `(node, session, backlog)`,
    /// session-major (the order of `Q^s_i` in the Lyapunov sum),
    /// O(non-empty queues).
    pub fn nonempty_backlogs(&self) -> impl Iterator<Item = (NodeId, SessionId, Packets)> + '_ {
        self.nonempty.iter().map(move |k| {
            (
                NodeId::from_index(k % self.nodes),
                SessionId::from_index(k / self.nodes),
                self.queues[k].backlog(),
            )
        })
    }

    /// Every queue in the bank, laid out `queues[s·n + i]` (session-major,
    /// matching Eq. (15)'s indexing) — the raw state a snapshot captures.
    #[must_use]
    pub fn queues(&self) -> &[PacketQueue] {
        &self.queues
    }

    /// Per-session delivered totals, in session-id order.
    #[must_use]
    pub fn delivered_per_session(&self) -> &[Packets] {
        &self.delivered
    }

    /// Per-session phantom-forward totals, in session-id order.
    #[must_use]
    pub fn phantom_per_session(&self) -> &[Packets] {
        &self.phantom_forwarded
    }

    /// Overwrites the bank's mutable state with a previously captured one —
    /// the restore half of snapshotting. Dimensions (node count, session
    /// count, destinations) are construction facts and stay as built.
    ///
    /// # Panics
    ///
    /// Panics if any slice length disagrees with the bank's dimensions.
    pub fn restore(&mut self, queues: &[PacketQueue], delivered: &[Packets], phantom: &[Packets]) {
        assert_eq!(queues.len(), self.queues.len(), "queue count mismatch");
        assert_eq!(delivered.len(), self.delivered.len(), "session mismatch");
        assert_eq!(
            phantom.len(),
            self.phantom_forwarded.len(),
            "session mismatch"
        );
        self.queues.copy_from_slice(queues);
        self.nonempty.rebuild(&self.queues);
        self.delivered.copy_from_slice(delivered);
        self.phantom_forwarded.copy_from_slice(phantom);
    }

    /// Applies one slot of Eq. (15).
    ///
    /// `admissions` lists `(s, s_s(t), k_s(t))` — the packets the chosen
    /// source base station accepts from the Internet for each session.
    ///
    /// Only the queues the plan and the admissions name are touched: every
    /// flow first serves its sender, then every flow arrives at its
    /// receiver (or is delivered there), then admissions join. Splitting a
    /// queue's slot this way is exact, because `max{Q − b, 0} + a` applied
    /// as all services followed by all arrivals gives the same backlog and
    /// the same offered and wasted totals; a queue nothing names keeps its
    /// state, as under `max{Q − 0, 0} + 0`.
    ///
    /// # Panics
    ///
    /// Panics if the plan's dimensions disagree with the bank's, or an
    /// admission references an out-of-range session/node.
    pub fn advance(&mut self, plan: &FlowPlan, admissions: &[(SessionId, NodeId, Packets)]) {
        assert_eq!(plan.node_count(), self.nodes, "plan/bank node mismatch");
        assert_eq!(
            plan.session_count(),
            self.destinations.len(),
            "plan/bank session mismatch"
        );
        let n = self.nodes;
        for (s, i, _, l) in plan.iter_nonzero() {
            // The destination holds no queue for its own session, so
            // nothing it forwards for it is served from one.
            if i == self.destinations[s.index()] {
                continue;
            }
            let q = &mut self.queues[s.index() * n + i.index()];
            let wasted_before = q.total_wasted();
            q.advance(Packets::ZERO, l);
            self.phantom_forwarded[s.index()] += Packets::new(q.total_wasted() - wasted_before);
        }
        for (s, _, j, l) in plan.iter_nonzero() {
            if j == self.destinations[s.index()] {
                // Delivered straight to the upper layers; no queue.
                self.delivered[s.index()] += l;
            } else {
                self.queues[s.index() * n + j.index()].advance(l, Packets::ZERO);
            }
        }
        for &(s, source, k) in admissions {
            let dest = self.destinations[s.index()];
            assert!(
                source != dest,
                "admission at the destination is meaningless"
            );
            let idx = self.idx(source, s);
            // Admission joins *after* service, same as the +k_s term.
            self.queues[idx].advance(k, Packets::ZERO);
        }
        let touched = plan
            .iter_nonzero()
            .flat_map(|(s, i, j, _)| [(s, i), (s, j)])
            .chain(admissions.iter().map(|&(s, source, _)| (s, source)));
        for (s, i) in touched {
            let k = s.index() * n + i.index();
            self.nonempty.update(k, &self.queues[k]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }
    fn s(i: usize) -> SessionId {
        SessionId::from_index(i)
    }

    /// 4 nodes, 2 sessions terminating at nodes 2 and 3.
    fn bank() -> DataQueueBank {
        DataQueueBank::new(4, &[n(2), n(3)])
    }

    #[test]
    fn admission_fills_source_queue() {
        let mut b = bank();
        b.advance(&FlowPlan::new(4, 2), &[(s(0), n(0), Packets::new(6))]);
        assert_eq!(b.backlog(n(0), s(0)).count(), 6);
        assert_eq!(b.backlog(n(0), s(1)).count(), 0);
        assert_eq!(b.total_backlog().count(), 6);
    }

    #[test]
    fn multihop_relay_matches_eq15() {
        let mut b = bank();
        b.advance(&FlowPlan::new(4, 2), &[(s(0), n(0), Packets::new(6))]);
        // Hop 1: 0 → 1 carries 4.
        let mut p1 = FlowPlan::new(4, 2);
        p1.set(s(0), n(0), n(1), Packets::new(4));
        b.advance(&p1, &[]);
        assert_eq!(b.backlog(n(0), s(0)).count(), 2);
        assert_eq!(b.backlog(n(1), s(0)).count(), 4);
        // Hop 2: 1 → 2 (destination) carries 4.
        let mut p2 = FlowPlan::new(4, 2);
        p2.set(s(0), n(1), n(2), Packets::new(4));
        b.advance(&p2, &[]);
        assert_eq!(b.backlog(n(1), s(0)).count(), 0);
        assert_eq!(b.backlog(n(2), s(0)).count(), 0);
        assert_eq!(b.delivered(s(0)).count(), 4);
    }

    #[test]
    fn same_slot_service_and_arrival_do_not_cut_through() {
        let mut b = bank();
        b.advance(&FlowPlan::new(4, 2), &[(s(0), n(0), Packets::new(3))]);
        // Node 1 forwards while receiving: its service applies to its
        // (empty) backlog, not to the packets arriving this slot.
        let mut p = FlowPlan::new(4, 2);
        p.set(s(0), n(0), n(1), Packets::new(3));
        p.set(s(0), n(1), n(2), Packets::new(3));
        b.advance(&p, &[]);
        assert_eq!(b.backlog(n(1), s(0)).count(), 3);
        assert_eq!(b.delivered(s(0)).count(), 3); // phantom packets delivered
        assert_eq!(b.phantom_per_session()[0].count(), 3);
    }

    #[test]
    fn sessions_are_independent() {
        let mut b = bank();
        b.advance(
            &FlowPlan::new(4, 2),
            &[(s(0), n(0), Packets::new(2)), (s(1), n(1), Packets::new(5))],
        );
        assert_eq!(b.backlog(n(0), s(0)).count(), 2);
        assert_eq!(b.backlog(n(1), s(1)).count(), 5);
        assert_eq!(b.node_backlog(n(1)).count(), 5);
    }

    #[test]
    fn destination_never_queues() {
        let mut b = bank();
        let mut p = FlowPlan::new(4, 2);
        p.set(s(0), n(0), n(2), Packets::new(8));
        b.advance(&p, &[]);
        assert_eq!(b.backlog(n(2), s(0)).count(), 0);
        assert_eq!(b.delivered(s(0)).count(), 8);
        // But node 2 still relays *other* sessions: it queues session 1.
        let mut p2 = FlowPlan::new(4, 2);
        p2.set(s(1), n(0), n(2), Packets::new(3));
        b.advance(&p2, &[]);
        assert_eq!(b.backlog(n(2), s(1)).count(), 3);
    }

    #[test]
    fn restore_roundtrips_a_lived_in_bank() {
        let mut b = bank();
        b.advance(&FlowPlan::new(4, 2), &[(s(0), n(0), Packets::new(6))]);
        let mut p = FlowPlan::new(4, 2);
        p.set(s(0), n(0), n(2), Packets::new(9)); // over-forward: phantoms
        b.advance(&p, &[]);
        let mut fresh = bank();
        fresh.restore(
            b.queues(),
            b.delivered_per_session(),
            b.phantom_per_session(),
        );
        assert_eq!(fresh, b);
    }

    #[test]
    #[should_panic(expected = "queue count mismatch")]
    fn restore_rejects_wrong_dimensions() {
        let mut b = bank();
        let small = DataQueueBank::new(2, &[n(1)]);
        let (delivered, phantom) = (
            b.delivered_per_session().to_vec(),
            b.phantom_per_session().to_vec(),
        );
        b.restore(small.queues(), &delivered, &phantom);
    }

    #[test]
    #[should_panic(expected = "destination out of range")]
    fn rejects_bad_destination() {
        let _ = DataQueueBank::new(2, &[n(5)]);
    }

    #[test]
    #[should_panic(expected = "plan/bank node mismatch")]
    fn rejects_mismatched_plan() {
        let mut b = bank();
        b.advance(&FlowPlan::new(3, 2), &[]);
    }
}
