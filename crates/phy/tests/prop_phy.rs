//! Property tests: the power-control solution is feasible, minimal,
//! respects caps, and agrees with the reference iteration on randomly
//! generated networks and schedules.

use greencell_net::{BandId, NetworkBuilder, PathLossModel, Point};
use greencell_phy::{
    min_power_assignment, min_power_assignment_reference, sinr_matrix, PhyConfig,
    PowerControlError, Schedule, SpectrumState, Transmission,
};
use greencell_stochastic::Rng;
use greencell_units::{Bandwidth, Power};
use proptest::prelude::*;

type Instance = (greencell_net::Network, Schedule, SpectrumState, Vec<Power>);

/// Builds a random network of `pairs` well-separated transmitter/receiver
/// pairs and schedules each pair on a random band.
fn random_instance(seed: u64, pairs: usize, bands: usize) -> Instance {
    // Clusters far apart so co-channel instances stay feasible.
    spaced_instance(seed, pairs, bands, 3000.0)
}

/// [`random_instance`] with the pairs `spacing` metres apart.
fn spaced_instance(seed: u64, pairs: usize, bands: usize, spacing: f64) -> Instance {
    let mut rng = Rng::seed_from(seed);
    let mut builder = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), bands);
    let mut endpoints = Vec::new();
    for k in 0..pairs {
        let cx = spacing * k as f64;
        let cy = rng.range_f64(0.0, 500.0);
        let tx = builder.add_base_station(Point::new(cx, cy));
        let rx = builder.add_user(Point::new(cx + rng.range_f64(50.0, 300.0), cy));
        endpoints.push((tx, rx));
    }
    let net = builder.build().expect("valid network");
    let mut schedule = Schedule::new();
    for &(tx, rx) in &endpoints {
        let band = BandId::from_index(rng.index(bands));
        schedule
            .try_add(&net, Transmission::new(tx, rx, band))
            .expect("disjoint nodes");
    }
    let spectrum = SpectrumState::new(
        (0..bands)
            .map(|_| Bandwidth::from_megahertz(rng.range_f64(1.0, 2.0)))
            .collect(),
    );
    let caps = net
        .topology()
        .nodes()
        .iter()
        .map(|n| {
            if n.kind().is_base_station() {
                Power::from_watts(20.0)
            } else {
                Power::from_watts(1.0)
            }
        })
        .collect();
    (net, schedule, spectrum, caps)
}

/// The lockstep's instance space straddles the feasibility boundary: both
/// verdicts occur, so the property compares powers and rejections alike.
#[test]
fn lockstep_instances_straddle_the_boundary() {
    let mut rng = Rng::seed_from(11);
    let (mut solved, mut infeasible) = (0, 0);
    for seed in 0..200 {
        let pairs = 2 + rng.index(4);
        let (net, schedule, spectrum, caps) =
            spaced_instance(seed, pairs, 1 + rng.index(2), rng.range_f64(200.0, 800.0));
        let phy = PhyConfig::new(rng.range_f64(1.0, 16.0), 1e-20);
        match min_power_assignment_reference(&net, &schedule, &spectrum, &phy, &caps) {
            Ok(_) => solved += 1,
            Err(PowerControlError::Infeasible { .. }) => infeasible += 1,
            Err(PowerControlError::NonConvergent) => {}
        }
    }
    assert!(
        solved > 20 && infeasible > 20,
        "{solved} solved, {infeasible} infeasible"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Returned powers satisfy SINR ≥ Γ on every link and stay within caps.
    #[test]
    fn powers_are_feasible(seed in 0u64..10_000, pairs in 1usize..5, bands in 1usize..4) {
        let (net, schedule, spectrum, caps) = random_instance(seed, pairs, bands);
        let phy = PhyConfig::new(1.0, 1e-20);
        let powers = min_power_assignment(&net, &schedule, &spectrum, &phy, &caps)
            .expect("well-separated clusters are feasible");
        for (k, t) in schedule.transmissions().iter().enumerate() {
            prop_assert!(powers[k] <= caps[t.tx().index()], "cap violated");
            prop_assert!(powers[k] > Power::ZERO);
        }
        let sinrs = sinr_matrix(&net, &schedule, &spectrum, &phy, &powers);
        for s in sinrs {
            prop_assert!(s >= 1.0 - 1e-6, "achieved SINR {s} below threshold");
        }
    }

    /// Minimality: uniformly scaling the whole vector down breaks at least
    /// one link's SINR.
    #[test]
    fn powers_are_minimal(seed in 0u64..10_000, pairs in 1usize..4) {
        let (net, schedule, spectrum, caps) = random_instance(seed, pairs, 2);
        let phy = PhyConfig::new(1.0, 1e-20);
        let powers = min_power_assignment(&net, &schedule, &spectrum, &phy, &caps)
            .expect("feasible");
        let shrunk: Vec<Power> = powers.iter().map(|p| *p * 0.95).collect();
        let sinrs = sinr_matrix(&net, &schedule, &spectrum, &phy, &shrunk);
        prop_assert!(sinrs.iter().any(|&s| s < 1.0),
            "5% shrink should break the binding constraint");
    }

    /// The direct solve agrees with the reference iteration wherever the
    /// iteration converges: the same verdict, and every power within 1e-9
    /// relative. Pairs 200–800 m apart at SINR thresholds up to 16 straddle
    /// the feasibility boundary; where the iteration proves a set
    /// infeasible the direct solve rejects it too.
    #[test]
    fn direct_solve_matches_the_reference(
        seed in 0u64..10_000,
        pairs in 2usize..6,
        bands in 1usize..3,
        spacing in 200.0f64..800.0,
        gamma in 1.0f64..16.0,
    ) {
        let (net, schedule, spectrum, caps) = spaced_instance(seed, pairs, bands, spacing);
        let phy = PhyConfig::new(gamma, 1e-20);
        let direct = min_power_assignment(&net, &schedule, &spectrum, &phy, &caps);
        match min_power_assignment_reference(&net, &schedule, &spectrum, &phy, &caps) {
            Ok(reference) => {
                let direct = direct.expect("a set the reference solves is feasible");
                for (d, r) in direct.iter().zip(&reference) {
                    let (d, r) = (d.as_watts(), r.as_watts());
                    prop_assert!((d - r).abs() <= 1e-9 * r, "direct {d} vs reference {r}");
                }
            }
            Err(PowerControlError::Infeasible { .. }) => {
                prop_assert!(direct.is_err(), "direct solve accepted an infeasible set");
            }
            Err(PowerControlError::NonConvergent) => {}
        }
    }

    /// Power control is deterministic: same instance, same answer.
    #[test]
    fn power_control_deterministic(seed in 0u64..10_000) {
        let (net, schedule, spectrum, caps) = random_instance(seed, 3, 2);
        let phy = PhyConfig::new(1.0, 1e-20);
        let a = min_power_assignment(&net, &schedule, &spectrum, &phy, &caps);
        let b = min_power_assignment(&net, &schedule, &spectrum, &phy, &caps);
        prop_assert_eq!(a, b);
    }

    /// Schedules never hold a node in two roles, however adds are attempted.
    #[test]
    fn schedule_single_radio_is_structural(
        seed in 0u64..10_000,
        attempts in prop::collection::vec((0usize..8, 0usize..8, 0usize..2), 0..30),
    ) {
        let mut rng = Rng::seed_from(seed);
        let mut builder = NetworkBuilder::new(PathLossModel::new(62.5, 4.0), 2);
        let ids: Vec<_> = (0..8)
            .map(|k| {
                if k == 0 {
                    builder.add_base_station(Point::new(0.0, 0.0))
                } else {
                    builder.add_user(Point::new(rng.range_f64(1.0, 2000.0), rng.range_f64(1.0, 2000.0)))
                }
            })
            .collect();
        let net = builder.build().expect("valid");
        let mut schedule = Schedule::new();
        for &(i, j, m) in &attempts {
            if i == j {
                continue;
            }
            let _ = schedule.try_add(&net, Transmission::new(ids[i], ids[j], BandId::from_index(m)));
        }
        let mut seen = std::collections::HashSet::new();
        for t in schedule.transmissions() {
            prop_assert!(seen.insert(t.tx()), "node transmits twice");
            prop_assert!(seen.insert(t.rx()), "node in two roles");
        }
    }
}
