//! The virtual link-layer queues `G_ij(t)` / `H_ij(t)` of Eqs. (28)–(30).

use crate::{queue::NonEmpty, FlowPlan, PacketQueue};
use greencell_net::NodeId;
use greencell_units::Packets;

/// The bank of per-directed-link virtual queues.
///
/// `G_ij(t)` counts packets handed to link `(i, j)` by routing but not yet
/// covered by scheduled link capacity — Eq. (28):
///
/// ```text
/// G_ij(t+1) = max{G_ij(t) − (1/δ)Σ_m c^m_ij(t)α^m_ij(t)Δt, 0} + Σ_s l^s_ij(t)
/// ```
///
/// The paper's scaled queue `H_ij(t) = β·G_ij(t)` (Eq. (30)) follows the
/// same law with both arrival and service multiplied by `β`, so this bank
/// stores the integer `G` queues and exposes `H` as the exact product —
/// strong stability of one is strong stability of the other.
///
/// # Examples
///
/// ```
/// use greencell_net::{NodeId, SessionId};
/// use greencell_queue::{FlowPlan, LinkQueueBank};
/// use greencell_units::Packets;
///
/// let mut bank = LinkQueueBank::new(2, 3.0);
/// let (i, j) = (NodeId::from_index(0), NodeId::from_index(1));
///
/// // Routing hands 10 packets to the link; the schedule serves 4.
/// let mut plan = FlowPlan::new(2, 1);
/// plan.set(SessionId::from_index(0), i, j, Packets::new(10));
/// bank.advance(&plan, &[(i, j, Packets::new(4))]);
/// assert_eq!(bank.g(i, j).count(), 10); // service precedes arrivals
/// assert_eq!(bank.h(i, j), 30.0);       // H = β·G
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkQueueBank {
    nodes: usize,
    beta: f64,
    /// `queues[i·n + j]`; diagonal entries stay empty forever.
    queues: Vec<PacketQueue>,
    /// The indices of the non-empty `queues`, ascending.
    nonempty: NonEmpty,
}

impl LinkQueueBank {
    /// Creates an all-empty bank over `nodes` nodes with scaling constant
    /// `β = max_{ij} (1/δ)c^max_ij·Δt` (the largest per-slot link service,
    /// in packets).
    ///
    /// # Panics
    ///
    /// Panics if `beta` is not strictly positive and finite.
    #[must_use]
    pub fn new(nodes: usize, beta: f64) -> Self {
        assert!(
            beta > 0.0 && beta.is_finite(),
            "β must be positive and finite, got {beta}"
        );
        let queues = vec![PacketQueue::new(); nodes * nodes];
        Self {
            nodes,
            beta,
            nonempty: NonEmpty::empty(queues.len()),
            queues,
        }
    }

    fn idx(&self, i: NodeId, j: NodeId) -> usize {
        debug_assert!(i.index() < self.nodes && j.index() < self.nodes);
        i.index() * self.nodes + j.index()
    }

    /// The scaling constant `β`.
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// The unscaled backlog `G_ij(t)`.
    #[must_use]
    pub fn g(&self, i: NodeId, j: NodeId) -> Packets {
        self.queues[self.idx(i, j)].backlog()
    }

    /// The scaled backlog `H_ij(t) = β·G_ij(t)` used by the drift terms.
    #[must_use]
    pub fn h(&self, i: NodeId, j: NodeId) -> f64 {
        self.beta * self.g(i, j).count_f64()
    }

    /// Every link queue in the bank, laid out `queues[i·n + j]` (diagonal
    /// entries are always empty) — the raw state a snapshot captures.
    #[must_use]
    pub fn queues(&self) -> &[PacketQueue] {
        &self.queues
    }

    /// Overwrites the bank's queues with a previously captured set — the
    /// restore half of snapshotting. `β` and the node count are
    /// construction facts and stay as built.
    ///
    /// # Panics
    ///
    /// Panics if `queues.len()` disagrees with the bank's `n²` layout.
    pub fn restore(&mut self, queues: &[PacketQueue]) {
        assert_eq!(queues.len(), self.queues.len(), "queue count mismatch");
        self.queues.copy_from_slice(queues);
        self.nonempty.rebuild(&self.queues);
    }

    /// Iterates over the non-empty link queues as `(i, j, G_ij)`, ascending
    /// by `(i, j)`, O(non-empty queues).
    pub fn backlogs(&self) -> impl Iterator<Item = (NodeId, NodeId, Packets)> + '_ {
        self.nonempty.iter().map(move |k| {
            (
                NodeId::from_index(k / self.nodes),
                NodeId::from_index(k % self.nodes),
                self.queues[k].backlog(),
            )
        })
    }

    /// Applies one slot of Eq. (28): service from the realized schedule
    /// (sparse `(i, j, packets)` triples — unscheduled links serve zero),
    /// arrivals from the routing plan.
    ///
    /// Only the links the service list and the plan name are touched:
    /// every service applies first, then every flow arrives, which is
    /// exactly `max{G − b, 0} + Σ_s l^s_ij` per link (see
    /// [`crate::DataQueueBank::advance`]).
    ///
    /// # Panics
    ///
    /// Panics if the plan's node count disagrees, a service triple repeats
    /// a link, or `i == j`.
    pub fn advance(&mut self, plan: &FlowPlan, service: &[(NodeId, NodeId, Packets)]) {
        assert_eq!(plan.node_count(), self.nodes, "plan/bank node mismatch");
        // Validate the sparse service list without a dense scratch map:
        // the list holds at most one entry per scheduled transmission (a
        // handful of links), so quadratic duplicate detection is cheaper
        // than a per-slot `n²` allocation and keeps this path heap-free.
        for (k, &(i, j, _)) in service.iter().enumerate() {
            assert!(i != j, "self-loop service {i} → {j}");
            assert!(
                !service[..k].iter().any(|&(a, b, _)| a == i && b == j),
                "duplicate service entry for link {i} → {j}"
            );
            assert!(
                i.index() < self.nodes && j.index() < self.nodes,
                "service link {i} → {j} out of range"
            );
        }
        for &(i, j, served) in service {
            let idx = self.idx(i, j);
            self.queues[idx].advance(Packets::ZERO, served);
        }
        for (_, i, j, l) in plan.iter_nonzero() {
            let idx = self.idx(i, j);
            self.queues[idx].advance(l, Packets::ZERO);
        }
        let touched = service
            .iter()
            .map(|&(i, j, _)| (i, j))
            .chain(plan.iter_nonzero().map(|(_, i, j, _)| (i, j)));
        for (i, j) in touched {
            let idx = self.idx(i, j);
            self.nonempty.update(idx, &self.queues[idx]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencell_net::SessionId;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn law_matches_hand_trace() {
        let mut bank = LinkQueueBank::new(3, 10.0);
        let mut plan = FlowPlan::new(3, 1);
        plan.set(SessionId::from_index(0), n(0), n(1), Packets::new(7));
        // Slot 1: 7 arrive, no service.
        bank.advance(&plan, &[]);
        assert_eq!(bank.g(n(0), n(1)).count(), 7);
        // Slot 2: 7 more arrive, 5 served.
        bank.advance(&plan, &[(n(0), n(1), Packets::new(5))]);
        assert_eq!(bank.g(n(0), n(1)).count(), 9);
        // Slot 3: nothing arrives, overserve.
        bank.advance(&FlowPlan::new(3, 1), &[(n(0), n(1), Packets::new(100))]);
        assert_eq!(bank.g(n(0), n(1)).count(), 0);
    }

    #[test]
    fn h_is_beta_scaled() {
        let mut bank = LinkQueueBank::new(2, 2.5);
        let mut plan = FlowPlan::new(2, 1);
        plan.set(SessionId::from_index(0), n(0), n(1), Packets::new(4));
        bank.advance(&plan, &[]);
        assert_eq!(bank.h(n(0), n(1)), 10.0);
        assert_eq!(bank.h(n(1), n(0)), 0.0);
    }

    #[test]
    fn aggregates_sessions_per_link() {
        let mut bank = LinkQueueBank::new(2, 1.0);
        let mut plan = FlowPlan::new(2, 2);
        plan.set(SessionId::from_index(0), n(0), n(1), Packets::new(3));
        plan.set(SessionId::from_index(1), n(0), n(1), Packets::new(4));
        bank.advance(&plan, &[]);
        assert_eq!(bank.g(n(0), n(1)).count(), 7);
    }

    #[test]
    fn backlogs_iterator_skips_empty_links() {
        let mut bank = LinkQueueBank::new(3, 1.0);
        let mut plan = FlowPlan::new(3, 1);
        plan.set(SessionId::from_index(0), n(0), n(2), Packets::new(4));
        bank.advance(&plan, &[]);
        let listed: Vec<_> = bank.backlogs().collect();
        assert_eq!(listed, vec![(n(0), n(2), Packets::new(4))]);
    }

    #[test]
    fn restore_roundtrips_a_lived_in_bank() {
        let mut bank = LinkQueueBank::new(3, 2.0);
        let mut plan = FlowPlan::new(3, 1);
        plan.set(SessionId::from_index(0), n(0), n(1), Packets::new(7));
        bank.advance(&plan, &[(n(0), n(1), Packets::new(3))]);
        let mut fresh = LinkQueueBank::new(3, 2.0);
        fresh.restore(bank.queues());
        assert_eq!(fresh, bank);
    }

    #[test]
    #[should_panic(expected = "duplicate service")]
    fn duplicate_service_rejected() {
        let mut bank = LinkQueueBank::new(2, 1.0);
        bank.advance(
            &FlowPlan::new(2, 1),
            &[(n(0), n(1), Packets::new(1)), (n(0), n(1), Packets::new(2))],
        );
    }

    #[test]
    #[should_panic(expected = "β must be positive")]
    fn rejects_bad_beta() {
        let _ = LinkQueueBank::new(2, 0.0);
    }
}
