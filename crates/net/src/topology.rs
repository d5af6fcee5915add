//! Node placement and the precomputed propagation-gain matrix.

use crate::{Node, NodeId, NodeKind, PathLossModel, Point};

/// The physical layout of the network: every node plus the dense gain
/// matrix `g_ij = C · d(i,j)^{-γ}` between all ordered pairs.
///
/// Gains are computed once at construction — positions are static for the
/// duration of an experiment, exactly as in the paper's evaluation — so the
/// per-slot SINR computations in `greencell-phy` are pure table lookups.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    nodes: Vec<Node>,
    /// Row-major `len × len`; diagonal entries are 0 (no self links).
    gains: Vec<f64>,
    /// Interference pruning floor: gains strictly below this were set to
    /// exactly `0.0`. `0.0` means no pruning was applied.
    gain_floor: f64,
}

impl Topology {
    #[cfg(test)]
    pub(crate) fn new(kinds_positions: Vec<(NodeKind, Point)>, path_loss: PathLossModel) -> Self {
        Self::with_shadowing(kinds_positions, path_loss, &[], 0.0)
    }

    pub(crate) fn with_shadowing(
        kinds_positions: Vec<(NodeKind, Point)>,
        path_loss: PathLossModel,
        shadowing_db: &[(NodeId, NodeId, f64)],
        gain_floor: f64,
    ) -> Self {
        let nodes: Vec<Node> = kinds_positions
            .into_iter()
            .enumerate()
            .map(|(i, (kind, pos))| Node::new(NodeId(i), kind, pos))
            .collect();
        let n = nodes.len();
        let mut gains = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let d = nodes[i].position().distance_to(nodes[j].position());
                    gains[i * n + j] = path_loss.gain(d);
                }
            }
        }
        for &(a, b, db) in shadowing_db {
            let factor = 10f64.powf(db / 10.0);
            gains[a.0 * n + b.0] *= factor;
            gains[b.0 * n + a.0] *= factor;
        }
        // Pruning runs last so the predicate sees the *final* (shadowed)
        // gain. A strict `<` keeps the floor itself and makes floor = 0.0
        // an exact no-op: every retained entry is bit-identical to the
        // unpruned matrix, every pruned entry is exactly 0.0 (which the
        // sparse S1 kernel skips structurally).
        if gain_floor > 0.0 {
            for g in &mut gains {
                if *g < gain_floor {
                    *g = 0.0;
                }
            }
        }
        Self {
            nodes,
            gains,
            gain_floor,
        }
    }

    /// Number of nodes `|𝒩|`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the topology has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this topology.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// All nodes in id order.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Iterates over all node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterates over base-station ids (`ℬ`).
    pub fn base_stations(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.kind().is_base_station())
            .map(Node::id)
    }

    /// Iterates over user ids (`𝒰`).
    pub fn users(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.kind().is_user())
            .map(Node::id)
    }

    /// Number of base stations `B`.
    #[must_use]
    pub fn base_station_count(&self) -> usize {
        self.base_stations().count()
    }

    /// Number of users `U`.
    #[must_use]
    pub fn user_count(&self) -> usize {
        self.users().count()
    }

    /// The propagation gain `g_ij` from `i` to `j`; `0.0` on the diagonal.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[must_use]
    pub fn gain(&self, i: NodeId, j: NodeId) -> f64 {
        self.gains[i.0 * self.nodes.len() + j.0]
    }

    /// The interference pruning floor applied at construction: every gain
    /// strictly below it was replaced by exactly `0.0`. Returns `0.0` when
    /// the matrix is unpruned.
    #[must_use]
    pub fn gain_floor(&self) -> f64 {
        self.gain_floor
    }

    /// Iterates over all ordered pairs `(i, j)`, `i ≠ j` — the candidate
    /// directed links of the network.
    pub fn ordered_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        let n = self.nodes.len();
        (0..n).flat_map(move |i| {
            (0..n)
                .filter(move |&j| j != i)
                .map(move |j| (NodeId(i), NodeId(j)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greencell_units::Distance;

    fn tiny() -> Topology {
        Topology::new(
            vec![
                (NodeKind::BaseStation, Point::new(0.0, 0.0)),
                (NodeKind::User, Point::new(100.0, 0.0)),
                (NodeKind::User, Point::new(0.0, 200.0)),
            ],
            PathLossModel::new(62.5, 4.0),
        )
    }

    #[test]
    fn counts_and_kinds() {
        let t = tiny();
        assert_eq!(t.len(), 3);
        assert_eq!(t.base_station_count(), 1);
        assert_eq!(t.user_count(), 2);
        assert_eq!(t.base_stations().collect::<Vec<_>>(), vec![NodeId(0)]);
    }

    #[test]
    fn gain_matrix_matches_model() {
        let t = tiny();
        let expected = PathLossModel::new(62.5, 4.0).gain(Distance::from_meters(100.0));
        assert_eq!(t.gain(NodeId(0), NodeId(1)), expected);
        // Symmetric distances ⇒ symmetric gains under this model.
        assert_eq!(t.gain(NodeId(0), NodeId(1)), t.gain(NodeId(1), NodeId(0)));
    }

    #[test]
    fn diagonal_gain_is_zero() {
        let t = tiny();
        assert_eq!(t.gain(NodeId(1), NodeId(1)), 0.0);
    }

    #[test]
    fn ordered_pairs_excludes_diagonal() {
        let t = tiny();
        let pairs: Vec<_> = t.ordered_pairs().collect();
        assert_eq!(pairs.len(), 6);
        assert!(pairs.iter().all(|(i, j)| i != j));
    }

    #[test]
    fn gain_floor_prunes_to_exact_zero_and_zero_floor_is_noop() {
        let layout = vec![
            (NodeKind::BaseStation, Point::new(0.0, 0.0)),
            (NodeKind::User, Point::new(100.0, 0.0)),
            (NodeKind::User, Point::new(5000.0, 0.0)),
        ];
        let model = PathLossModel::new(62.5, 4.0);
        let plain = Topology::with_shadowing(layout.clone(), model, &[], 0.0);
        let far = plain.gain(NodeId(0), NodeId(2));
        let near = plain.gain(NodeId(0), NodeId(1));
        let floor = (far + near) / 2.0;
        let pruned = Topology::with_shadowing(layout, model, &[], floor);
        assert_eq!(pruned.gain_floor(), floor);
        assert_eq!(pruned.gain(NodeId(0), NodeId(2)), 0.0);
        assert_eq!(pruned.gain(NodeId(2), NodeId(0)), 0.0);
        // Retained entries are bit-identical, and the floor itself survives.
        assert_eq!(pruned.gain(NodeId(0), NodeId(1)), near);
        assert_eq!(plain.gain_floor(), 0.0);
    }
}
