//! The virtual link-layer queues `G_ij(t)` / `H_ij(t)` of Eqs. (28)–(30).

use crate::{queue::NonEmpty, FlowPlan, PacketQueue};
use greencell_net::NodeId;
use greencell_units::Packets;
use std::sync::atomic::{AtomicU64, Ordering};

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
///
/// Every state of a bank carries an [epoch](LinkQueueBank::epoch), and
/// the bank logs the links its last [`advance`](LinkQueueBank::advance)
/// touched, so a consumer that derives structure from the queues can
/// follow them at the cost of what changed
/// ([`LinkQueueBank::changes_since`]).
#[derive(Debug, Clone)]
pub struct LinkQueueBank {
    nodes: usize,
    beta: f64,
    /// `queues[i·n + j]`; diagonal entries stay empty forever.
    queues: Vec<PacketQueue>,
    /// The indices of the non-empty `queues`, ascending.
    nonempty: NonEmpty,
    /// The epoch of this state and the links the last advance touched.
    log: ChangeLog,
}

/// Two banks are equal when their queues are: the epoch and the change
/// log describe how a state was reached, not the state.
impl PartialEq for LinkQueueBank {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes && self.beta == other.beta && self.queues == other.queues
    }
}

/// A bank state's epoch, and the links the advance into it touched.
#[derive(Debug)]
struct ChangeLog {
    /// This state's epoch.
    epoch: u64,
    /// The epoch the last advance started from; 0 (never an epoch) after
    /// a construction or a restore.
    base: u64,
    /// The links the last advance touched, `i·2¹⁶ + j`, in the order it
    /// touched them. A link repeats when it is served and fed, or fed by
    /// several sessions.
    touched: Vec<u32>,
}

/// A clone keeps the reserved capacity, so a cloned bank's advance does
/// not allocate either.
impl Clone for ChangeLog {
    fn clone(&self) -> Self {
        let mut touched = Vec::with_capacity(self.touched.capacity());
        touched.extend_from_slice(&self.touched);
        Self {
            epoch: self.epoch,
            base: self.base,
            touched,
        }
    }
}

/// A new epoch, never handed out before in this process and never 0. Epochs
/// are compared for equality only, so the order in which threads draw
/// them changes no result.
fn fresh_epoch() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl ChangeLog {
    /// The log of a state reached by no advance.
    fn fresh() -> Self {
        Self {
            epoch: fresh_epoch(),
            base: 0,
            touched: Vec::new(),
        }
    }

    /// Starts a new state: the log of an advance from the current one.
    fn begin_advance(&mut self) {
        self.base = self.epoch;
        self.epoch = fresh_epoch();
        self.touched.clear();
    }

    /// Starts a new state reached by no advance (a restore).
    fn reset(&mut self) {
        self.base = 0;
        self.epoch = fresh_epoch();
        self.touched.clear();
    }
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
            log: ChangeLog::fresh(),
        }
    }

    /// Makes room for `entries` logged links in all, so an advance that
    /// touches at most that many (its service triples plus the plan's
    /// non-zero entries) does not allocate.
    pub fn reserve_log(&mut self, entries: usize) {
        let held = self.log.touched.len();
        self.log.touched.reserve(entries.saturating_sub(held));
    }

    /// This state's epoch. Every construction, [`LinkQueueBank::advance`]
    /// and [`LinkQueueBank::restore`] draws a new one from a process-wide
    /// counter, so two banks share an epoch only while one is an
    /// unchanged clone of the other: equal epochs mean equal queues.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.log.epoch
    }

    /// The links whose queues may differ between the state of `epoch` and
    /// this one, or `None` when this state does not follow `epoch` by at
    /// most one advance (then every queue may differ). For this state's
    /// own epoch that is no link; for the epoch the last advance started
    /// from, it is every link that advance touched, in the order it
    /// touched them, a link possibly more than once. A restore, and a
    /// construction, follow no epoch.
    #[must_use]
    pub fn changes_since(&self, epoch: u64) -> Option<impl Iterator<Item = (NodeId, NodeId)> + '_> {
        let touched: &[u32] = if epoch == self.log.epoch {
            &[]
        } else if epoch != 0 && epoch == self.log.base {
            &self.log.touched
        } else {
            return None;
        };
        Some(touched.iter().map(|&k| {
            let (i, j) = (k >> 16, k & 0xFFFF);
            (
                NodeId::from_index(i as usize),
                NodeId::from_index(j as usize),
            )
        }))
    }

    fn idx(&self, i: NodeId, j: NodeId) -> usize {
        debug_assert!(i.index() < self.nodes && j.index() < self.nodes);
        i.index() * self.nodes + j.index()
    }

    /// The number of nodes `n`.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
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
        self.log.reset();
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
    /// [`crate::DataQueueBank::advance`]). The touched links are the new
    /// state's change log ([`LinkQueueBank::changes_since`]).
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
        self.log.begin_advance();
        for (i, j) in touched {
            let idx = self.idx(i, j);
            self.nonempty.update(idx, &self.queues[idx]);
            // Lossless: `NonEmpty::empty` asserts that `n²` fits `u32`, so
            // a node index fits 16 bits.
            self.log
                .touched
                .push(((i.index() as u32) << 16) | j.index() as u32);
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

    /// The links `changes_since(epoch)` names, or `None`.
    fn changes(bank: &LinkQueueBank, epoch: u64) -> Option<Vec<(usize, usize)>> {
        bank.changes_since(epoch)
            .map(|c| c.map(|(i, j)| (i.index(), j.index())).collect())
    }

    /// An advance draws a new epoch and logs every link it touched, in
    /// touch order: the served links first, then each flow's link in the
    /// plan's order, a link
    /// once per touch (served and fed, or fed by two sessions), including
    /// a service that found the queue empty. The log answers only for the
    /// epoch the advance started from; its own epoch reads no change.
    #[test]
    fn advance_logs_the_touched_links_against_its_base() {
        let mut bank = LinkQueueBank::new(3, 1.0);
        let born = bank.epoch();
        assert_eq!(changes(&bank, born), Some(vec![]));
        assert_eq!(changes(&bank, 0), None, "a new bank follows no epoch");

        let mut plan = FlowPlan::new(3, 2);
        plan.set(SessionId::from_index(0), n(0), n(1), Packets::new(4));
        plan.set(SessionId::from_index(1), n(0), n(1), Packets::new(2));
        plan.set(SessionId::from_index(1), n(2), n(0), Packets::new(5));
        bank.advance(
            &plan,
            &[(n(0), n(1), Packets::new(1)), (n(1), n(2), Packets::new(3))],
        );
        let first = bank.epoch();
        assert_ne!(first, born);
        assert_eq!(
            changes(&bank, born),
            Some(vec![(0, 1), (1, 2), (0, 1), (0, 1), (2, 0)])
        );
        assert_eq!(changes(&bank, first), Some(vec![]));

        // A second advance answers for the first's epoch only.
        bank.advance(&FlowPlan::new(3, 2), &[(n(2), n(0), Packets::new(5))]);
        assert_eq!(changes(&bank, first), Some(vec![(2, 0)]));
        assert_eq!(changes(&bank, born), None);
        assert_eq!(bank.g(n(2), n(0)), Packets::ZERO);
    }

    /// A restore is a state reached by no advance: a new epoch, and no
    /// epoch it follows, not even the one it replaced. The restored bank
    /// equals the source, whose epoch it does not share.
    #[test]
    fn restore_starts_an_epoch_that_follows_none() {
        let mut bank = LinkQueueBank::new(3, 2.0);
        let mut plan = FlowPlan::new(3, 1);
        plan.set(SessionId::from_index(0), n(0), n(1), Packets::new(7));
        bank.advance(&plan, &[]);
        let mut other = LinkQueueBank::new(3, 2.0);
        other.advance(&plan, &[]);
        let before = other.epoch();
        other.restore(bank.queues());
        assert_eq!(other, bank);
        assert_ne!(other.epoch(), before);
        assert_ne!(other.epoch(), bank.epoch());
        assert_eq!(changes(&other, before), None);
        assert_eq!(changes(&other, other.epoch()), Some(vec![]));
        // The next advance follows the restored state.
        let restored = other.epoch();
        other.advance(&FlowPlan::new(3, 1), &[(n(0), n(1), Packets::new(2))]);
        assert_eq!(changes(&other, restored), Some(vec![(0, 1)]));
    }

    /// A snapshot restore hands the bank queues rebuilt field by field
    /// (`PacketQueue::from_parts`). The restored state follows no epoch,
    /// not even the state it rebuilt, and its next advance logs against
    /// it.
    #[test]
    fn a_restore_from_rebuilt_queues_follows_no_epoch() {
        let mut bank = LinkQueueBank::new(3, 1.0);
        let mut plan = FlowPlan::new(3, 1);
        plan.set(SessionId::from_index(0), n(0), n(2), Packets::new(9));
        plan.set(SessionId::from_index(0), n(2), n(1), Packets::new(4));
        bank.advance(&plan, &[]);
        bank.advance(&FlowPlan::new(3, 1), &[(n(0), n(2), Packets::new(5))]);
        let rebuilt: Vec<PacketQueue> = bank
            .queues()
            .iter()
            .map(|q| {
                PacketQueue::from_parts(
                    q.backlog(),
                    q.total_arrivals(),
                    q.total_offered(),
                    q.total_wasted(),
                )
            })
            .collect();
        let mut restored = LinkQueueBank::new(3, 1.0);
        let born = restored.epoch();
        restored.restore(&rebuilt);
        assert_eq!(restored, bank);
        for epoch in [born, bank.epoch(), 0] {
            assert_eq!(changes(&restored, epoch), None, "epoch {epoch}");
        }
        let at = restored.epoch();
        restored.advance(&FlowPlan::new(3, 1), &[(n(2), n(1), Packets::new(1))]);
        assert_eq!(changes(&restored, at), Some(vec![(2, 1)]));
        assert_eq!(restored.g(n(2), n(1)), Packets::new(3));
    }

    /// A clone shares its source's epoch and log until either changes;
    /// their advances then draw different epochs, each following the
    /// shared one. Banks built alike never share an epoch.
    #[test]
    fn clones_share_an_epoch_until_they_part() {
        let mut bank = LinkQueueBank::new(2, 1.0);
        let mut plan = FlowPlan::new(2, 1);
        plan.set(SessionId::from_index(0), n(0), n(1), Packets::new(3));
        bank.advance(&plan, &[]);
        let base = bank.epoch();
        let mut copy = bank.clone();
        assert_eq!(copy.epoch(), base);
        assert_eq!(changes(&copy, base), Some(vec![]));
        bank.advance(&plan, &[]);
        copy.advance(&FlowPlan::new(2, 1), &[]);
        assert_ne!(bank.epoch(), copy.epoch());
        assert_eq!(changes(&bank, base), Some(vec![(0, 1)]));
        assert_eq!(changes(&copy, base), Some(vec![]));
        assert_ne!(
            LinkQueueBank::new(2, 1.0).epoch(),
            LinkQueueBank::new(2, 1.0).epoch()
        );
    }

    /// A reserved log takes an advance of that many touches without
    /// growing, and a clone keeps the room.
    #[test]
    fn a_reserved_log_does_not_grow() {
        let mut bank = LinkQueueBank::new(3, 1.0);
        bank.reserve_log(4);
        let room = bank.log.touched.capacity();
        assert!(room >= 4);
        let mut plan = FlowPlan::new(3, 1);
        plan.set(SessionId::from_index(0), n(0), n(1), Packets::new(3));
        plan.set(SessionId::from_index(0), n(1), n(2), Packets::new(3));
        plan.set(SessionId::from_index(0), n(2), n(0), Packets::new(3));
        bank.advance(&plan, &[(n(0), n(2), Packets::new(1))]);
        assert_eq!(bank.log.touched.len(), 4);
        assert_eq!(bank.log.touched.capacity(), room);
        assert_eq!(bank.clone().log.touched.capacity(), room);
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
