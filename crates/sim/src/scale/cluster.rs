//! Connected components of the pruned interference graph, and the
//! per-cluster sub-networks the controller solves S1–S3 on.

use greencell_core::{ClusterSet, PartSpec};
use greencell_net::{GridIndex, NetworkBuilder, NodeId, NodeKind, PathLossModel};

use crate::engine::SimError;
use crate::scenario::{Scenario, ScenarioLayout};

/// Partitions a layout's nodes into interference clusters.
///
/// Two nodes are connected iff their *unshadowed* path-loss gain survives
/// the scenario's pruning floor — exactly the predicate
/// `Topology::with_shadowing` applies when zeroing gains, evaluated with
/// the same `f64` operations. Because pruning only zeroes gains already
/// below the thermal noise floor (see `PhyConfig::prune_gain_floor`),
/// every surviving signal *and* interference term of the physical model
/// stays within one cluster: the components are independent per-slot
/// subproblems for S1–S3. With pruning disabled (`gain_floor <= 0`) there
/// is exactly one cluster holding every node.
///
/// A spatial grid over node positions means only pairs within the cutoff
/// radius (plus a conservative rounding margin) are tested with the exact
/// gain predicate, so expected cost is `Θ(n)` at bounded density instead
/// of `Θ(n²)`.
///
/// # Panics
///
/// Panics if the layout carries shadowing offsets — shadowed gains are
/// not a function of distance, so the geometric prefilter (and the
/// closure guarantee) would not hold. Shadowed scenarios are never
/// partitioned.
#[must_use]
pub fn decompose(layout: &ScenarioLayout, scenario: &Scenario) -> ClusterSet {
    assert!(
        layout.shadowing_db.is_empty(),
        "cluster decomposition requires unshadowed gains"
    );
    let n = layout.len();
    let Some(d_cut) = scenario.cutoff_radius_m() else {
        return ClusterSet::single(n);
    };
    let model = PathLossModel::new(scenario.path_loss_c, scenario.path_loss_gamma);
    let floor = scenario.gain_floor;
    let mut index = GridIndex::new(d_cut, scenario.area_m, scenario.area_m);
    for &p in &layout.positions {
        index.insert(p);
    }
    // The grid scan radius gets a hair of slack so float rounding in
    // `d_cut = (C/F)^{1/γ}` can never exclude a pair whose exact gain
    // still clears the floor; the gain predicate itself is exact.
    let scan = d_cut * 1.0001;
    let mut parent: Vec<usize> = (0..n).collect();
    for i in 0..n {
        let pi = layout.positions[i];
        index.for_neighbors_within(pi, scan, |j, pj| {
            if j < i && model.gain(pi.distance_to(pj)) >= floor {
                ClusterSet::union(&mut parent, i, j);
            }
        });
    }
    ClusterSet::from_union_find(&mut parent)
}

/// One controller part per cluster that holds a base station: the
/// cluster's sub-network (its members in ascending global order — base
/// stations keep their lead because global ids put them first — with the
/// sessions whose destination it holds, in global session order). Nodes
/// of base-station-free clusters belong to no part and idle.
///
/// # Errors
///
/// [`SimError::UnsupportedAtScale`] if a session destination lies in a
/// base-station-free cluster (no admission source could ever reach it);
/// [`SimError::Network`] if a sub-network fails validation.
pub(crate) fn parts(
    layout: &ScenarioLayout,
    scenario: &Scenario,
    clusters: &ClusterSet,
) -> Result<Vec<PartSpec>, SimError> {
    let has_bs = |members: &[usize]| layout.kinds[members[0]].is_base_station();
    let mut sessions: Vec<Vec<usize>> = vec![Vec::new(); clusters.len()];
    for (sid, &(dest, _)) in layout.sessions.iter().enumerate() {
        let cid = clusters.cluster_of(dest);
        if !has_bs(&clusters.clusters()[cid]) {
            return Err(SimError::UnsupportedAtScale {
                detail: format!(
                    "session destination node {dest} lies in a base-station-free \
                     interference cluster; no admission source could reach it"
                ),
            });
        }
        sessions[cid].push(sid);
    }
    let mut parts = Vec::new();
    for (members, sessions) in clusters.clusters().iter().zip(sessions) {
        if !has_bs(members) {
            continue;
        }
        let mut b = NetworkBuilder::new(
            PathLossModel::new(scenario.path_loss_c, scenario.path_loss_gamma),
            scenario.band_count(),
        );
        for &g in members {
            match layout.kinds[g] {
                NodeKind::BaseStation => b.add_base_station(layout.positions[g]),
                NodeKind::User => b.add_user(layout.positions[g]),
            };
        }
        for (local, &g) in members.iter().enumerate() {
            b.set_bands(NodeId::from_index(local), layout.bands[g]);
        }
        for &sid in &sessions {
            let (dest, demand) = layout.sessions[sid];
            let local = members
                .binary_search(&dest)
                .expect("destination is a member");
            b.add_session(NodeId::from_index(local), demand);
        }
        if scenario.gain_floor > 0.0 {
            b.set_gain_floor(scenario.gain_floor);
        }
        parts.push(PartSpec {
            net: b.build()?,
            nodes: members.clone(),
            sessions,
        });
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    #[test]
    fn no_pruning_means_one_cluster() {
        let s = Scenario::tiny(3);
        let layout = s.build_layout();
        let set = decompose(&layout, &s);
        assert_eq!(set.len(), 1);
        assert_eq!(set.clusters()[0].len(), layout.len());
        assert!(set.membership().iter().all(|&c| c == 0));
    }

    #[test]
    fn city_cells_separate_into_clusters() {
        let s = Scenario::city(100, 4, Scenario::default_city_area(4), 5);
        let layout = s.build_layout();
        let set = decompose(&layout, &s);
        assert!(
            set.len() >= 2,
            "expected separated cells, got {}",
            set.len()
        );
        // Every cluster edge the decomposition claims is backed by the
        // exact predicate; verify closure brute-force: any surviving gain
        // connects nodes of the same cluster.
        let model = PathLossModel::new(s.path_loss_c, s.path_loss_gamma);
        for i in 0..layout.len() {
            for j in (i + 1)..layout.len() {
                let g = model.gain(layout.positions[i].distance_to(layout.positions[j]));
                if g >= s.gain_floor {
                    assert_eq!(
                        set.cluster_of(i),
                        set.cluster_of(j),
                        "surviving gain {g} crosses clusters ({i}, {j})"
                    );
                }
            }
        }
        // Members are ascending and ids dense.
        for members in set.clusters() {
            assert!(members.windows(2).all(|w| w[0] < w[1]));
            assert!(!members.is_empty());
        }
    }

    #[test]
    fn one_cluster_part_is_the_dense_network() {
        let s = Scenario::tiny(3);
        let layout = s.build_layout();
        let parts = parts(&layout, &s, &ClusterSet::single(layout.len())).expect("builds");
        assert_eq!(parts.len(), 1);
        let dense = s.build_network().expect("dense network builds");
        assert_eq!(parts[0].net, dense);
        assert_eq!(
            parts[0].sessions,
            (0..dense.session_count()).collect::<Vec<_>>()
        );
    }
}
