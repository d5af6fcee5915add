//! Property tests: band-set algebra obeys set laws, and the gain matrix
//! matches the path-loss closed form for arbitrary geometries.

use greencell_net::{BandId, BandSet, NetworkBuilder, PathLossModel, Point};
use greencell_units::DataRate;
use proptest::prelude::*;

fn band_set(indices: &[usize]) -> BandSet {
    indices
        .iter()
        .map(|&i| BandId::from_index(i % 64))
        .collect()
}

proptest! {
    /// Intersection obeys the usual set laws.
    #[test]
    fn band_set_algebra(a in prop::collection::vec(0usize..64, 0..20),
                        b in prop::collection::vec(0usize..64, 0..20)) {
        let sa = band_set(&a);
        let sb = band_set(&b);
        let inter = sa.intersection(sb);
        // Commutativity.
        prop_assert_eq!(inter, sb.intersection(sa));
        // Containment, both ways.
        for band in inter.iter() {
            prop_assert!(sa.contains(band) && sb.contains(band));
        }
        for band in sa.iter() {
            prop_assert_eq!(inter.contains(band), sb.contains(band));
        }
        // Idempotence and the empty set.
        prop_assert_eq!(sa.intersection(sa), sa);
        prop_assert!(sa.intersection(BandSet::empty()).is_empty());
    }

    /// Inserted bands are contained and iteration order is sorted.
    #[test]
    fn band_set_insert(indices in prop::collection::vec(0usize..64, 0..30)) {
        let mut set = BandSet::empty();
        for &i in &indices {
            set.insert(BandId::from_index(i));
            prop_assert!(set.contains(BandId::from_index(i)));
        }
        let listed: Vec<usize> = set.iter().map(BandId::index).collect();
        let mut expected: Vec<usize> = indices.clone();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(listed, expected);
    }

    /// The topology's gain matrix equals C·d^{-γ} for every pair, is
    /// symmetric, and decreases with distance.
    #[test]
    fn gain_matrix_matches_model(
        points in prop::collection::vec((0.0f64..2000.0, 0.0f64..2000.0), 2..12),
        gamma in 2.0f64..5.0,
        c in 1.0f64..100.0,
    ) {
        // Perturb duplicate positions (zero distance is out of model).
        let mut builder = NetworkBuilder::new(PathLossModel::new(c, gamma), 1);
        let bs = builder.add_base_station(Point::new(-10.0, -10.0));
        let ids: Vec<_> = points
            .iter()
            .enumerate()
            .map(|(k, &(x, y))| builder.add_user(Point::new(x + k as f64 * 1e-3, y)))
            .collect();
        let _ = bs;
        let net = builder.build().expect("valid");
        let topo = net.topology();
        let model = PathLossModel::new(c, gamma);
        for &i in &ids {
            for &j in &ids {
                if i == j {
                    prop_assert_eq!(topo.gain(i, j), 0.0);
                    continue;
                }
                let d = topo.node(i).position().distance_to(topo.node(j).position());
                let expected = model.gain(d);
                prop_assert!((topo.gain(i, j) / expected - 1.0).abs() < 1e-12);
                prop_assert!((topo.gain(i, j) - topo.gain(j, i)).abs() <= f64::EPSILON * expected);
            }
        }
    }

    /// Builder invariants: session count, node ordering, and band defaults
    /// survive arbitrary construction orders.
    #[test]
    fn builder_preserves_structure(users in 1usize..10, sessions in 0usize..5, bands in 1usize..8) {
        let mut b = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), bands);
        let bs = b.add_base_station(Point::new(0.0, 0.0));
        let user_ids: Vec<_> = (0..users)
            .map(|k| b.add_user(Point::new(10.0 + k as f64, 5.0)))
            .collect();
        for s in 0..sessions {
            b.add_session(user_ids[s % users], DataRate::from_kilobits_per_second(100.0));
        }
        let net = b.build().expect("valid");
        prop_assert_eq!(net.topology().len(), users + 1);
        prop_assert_eq!(net.session_count(), sessions);
        prop_assert_eq!(net.band_count(), bands);
        for (k, &u) in user_ids.iter().enumerate() {
            prop_assert_eq!(u.index(), k + 1, "ids are dense and ordered");
            prop_assert_eq!(net.link_bands(bs, u).len(), bands, "full default access");
        }
    }
}
