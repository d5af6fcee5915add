//! The routing decision `l^s_ij(t)`: packets moved per session per link.

use greencell_net::{NodeId, SessionId};
use greencell_units::Packets;

/// A per-slot routing decision: `l^s_ij(t)` packets of session `s`
/// forwarded from node `i` to node `j`.
///
/// Produced by the S3 routing subproblem and consumed by both queue banks:
/// `Σ_j l^s_ij` is the service of data queue `Q^s_i`, `Σ_j l^s_ji` its
/// arrivals, and `Σ_s l^s_ij` the arrivals of virtual link queue `G_ij`.
///
/// The plan is sparse: it stores only its non-zero entries, sorted by
/// `(s, i, j)` with at most one per key, so a slot that routes a handful
/// of flows costs a handful of entries whatever the node count. Reading a
/// key the plan does not hold gives zero.
///
/// # Examples
///
/// ```
/// use greencell_net::{NodeId, SessionId};
/// use greencell_queue::FlowPlan;
/// use greencell_units::Packets;
///
/// let mut plan = FlowPlan::new(3, 1);
/// let (s, a, b) = (SessionId::from_index(0), NodeId::from_index(0), NodeId::from_index(2));
/// plan.set(s, a, b, Packets::new(4));
/// assert_eq!(plan.get(s, a, b).count(), 4);
/// assert_eq!(plan.total().count(), 4);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowPlan {
    nodes: usize,
    sessions: usize,
    /// The non-zero `l^s_ij` keyed `s·n² + i·n + j`, ascending — the
    /// order of `(s, i, j)`.
    entries: Vec<(usize, Packets)>,
}

impl FlowPlan {
    /// Creates an all-zero plan for `nodes` nodes and `sessions` sessions.
    #[must_use]
    pub fn new(nodes: usize, sessions: usize) -> Self {
        Self {
            nodes,
            sessions,
            entries: Vec::new(),
        }
    }

    /// Re-dimensions the plan to `nodes` × `sessions` and drops every
    /// entry, retaining the backing allocation. The result is
    /// indistinguishable from [`FlowPlan::new`] with the same dimensions;
    /// this is the per-slot arena's reuse path, O(entries).
    pub fn reset(&mut self, nodes: usize, sessions: usize) {
        self.nodes = nodes;
        self.sessions = sessions;
        self.entries.clear();
    }

    /// Makes room for `entries` non-zero entries in all, so a plan that
    /// never holds more allocates nothing. S3 sets at most one entry per
    /// session in its delivery phase and one per routable link after it.
    pub fn reserve(&mut self, entries: usize) {
        self.entries
            .reserve(entries.saturating_sub(self.entries.len()));
    }

    fn key(&self, s: SessionId, i: NodeId, j: NodeId) -> usize {
        debug_assert!(s.index() < self.sessions, "session out of range");
        debug_assert!(
            i.index() < self.nodes && j.index() < self.nodes,
            "node out of range"
        );
        (s.index() * self.nodes + i.index()) * self.nodes + j.index()
    }

    fn find(&self, s: SessionId, i: NodeId, j: NodeId) -> Result<usize, usize> {
        let key = self.key(s, i, j);
        self.entries.binary_search_by_key(&key, |&(k, _)| k)
    }

    /// Number of nodes this plan spans.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of sessions this plan spans.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions
    }

    /// Sets `l^s_ij`; setting zero removes the entry.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` (no self-loops) or any index is out of range.
    pub fn set(&mut self, s: SessionId, i: NodeId, j: NodeId, packets: Packets) {
        assert!(i != j, "self-loop flow {i} → {j}");
        assert!(
            s.index() < self.sessions && i.index() < self.nodes && j.index() < self.nodes,
            "flow index out of range"
        );
        match (self.find(s, i, j), packets == Packets::ZERO) {
            (Ok(at), false) => self.entries[at].1 = packets,
            (Ok(at), true) => {
                self.entries.remove(at);
            }
            (Err(at), false) => self.entries.insert(at, (self.key(s, i, j), packets)),
            (Err(_), true) => {}
        }
    }

    /// Reads `l^s_ij`.
    #[must_use]
    pub fn get(&self, s: SessionId, i: NodeId, j: NodeId) -> Packets {
        self.find(s, i, j)
            .map_or(Packets::ZERO, |at| self.entries[at].1)
    }

    /// Iterates over all non-zero entries as `(s, i, j, packets)`,
    /// ascending by `(s, i, j)`.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (SessionId, NodeId, NodeId, Packets)> + '_ {
        let n = self.nodes;
        self.entries.iter().map(move |&(key, p)| {
            (
                SessionId::from_index(key / (n * n)),
                NodeId::from_index(key / n % n),
                NodeId::from_index(key % n),
                p,
            )
        })
    }

    /// Total packets moved anywhere this slot.
    #[must_use]
    pub fn total(&self) -> Packets {
        self.entries.iter().map(|&(_, p)| p).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn set_get_round_trip() {
        let mut p = FlowPlan::new(4, 2);
        p.set(SessionId::from_index(1), ids(0), ids(3), Packets::new(5));
        assert_eq!(p.get(SessionId::from_index(1), ids(0), ids(3)).count(), 5);
        assert_eq!(p.get(SessionId::from_index(0), ids(0), ids(3)).count(), 0);
    }

    #[test]
    fn flows_aggregate_correctly() {
        let s0 = SessionId::from_index(0);
        let s1 = SessionId::from_index(1);
        let mut p = FlowPlan::new(3, 2);
        p.set(s0, ids(0), ids(1), Packets::new(2));
        p.set(s1, ids(0), ids(1), Packets::new(3));
        p.set(s0, ids(2), ids(0), Packets::new(7));
        assert_eq!(p.total().count(), 12);
    }

    #[test]
    fn iter_nonzero_lists_all() {
        let mut p = FlowPlan::new(3, 1);
        p.set(SessionId::from_index(0), ids(1), ids(2), Packets::new(9));
        let entries: Vec<_> = p.iter_nonzero().collect();
        assert_eq!(
            entries,
            vec![(SessionId::from_index(0), ids(1), ids(2), Packets::new(9))]
        );
    }

    #[test]
    fn reset_matches_fresh_plan() {
        let mut p = FlowPlan::new(4, 2);
        p.set(SessionId::from_index(1), ids(0), ids(3), Packets::new(5));
        p.reset(3, 1);
        assert_eq!(p, FlowPlan::new(3, 1));
        p.set(SessionId::from_index(0), ids(1), ids(2), Packets::new(2));
        p.reset(4, 2);
        assert_eq!(p, FlowPlan::new(4, 2));
    }

    #[test]
    fn entries_stay_sorted_and_zero_removes() {
        let (s0, s1) = (SessionId::from_index(0), SessionId::from_index(1));
        let mut p = FlowPlan::new(4, 2);
        p.set(s1, ids(0), ids(1), Packets::new(1));
        p.set(s0, ids(3), ids(2), Packets::new(2));
        p.set(s0, ids(0), ids(3), Packets::new(3));
        p.set(s0, ids(0), ids(2), Packets::new(4));
        p.set(s0, ids(0), ids(3), Packets::new(5)); // overwrite
        let keys: Vec<_> = p
            .iter_nonzero()
            .map(|(s, i, j, l)| (s.index(), i.index(), j.index(), l.count()))
            .collect();
        assert_eq!(
            keys,
            vec![(0, 0, 2, 4), (0, 0, 3, 5), (0, 3, 2, 2), (1, 0, 1, 1)]
        );
        p.set(s0, ids(0), ids(3), Packets::ZERO);
        p.set(s0, ids(1), ids(3), Packets::ZERO);
        assert_eq!(p.iter_nonzero().count(), 3);
        assert_eq!(p.get(s0, ids(0), ids(3)), Packets::ZERO);
        assert_eq!(p.total().count(), 7);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut p = FlowPlan::new(2, 1);
        p.set(SessionId::from_index(0), ids(1), ids(1), Packets::new(1));
    }
}
