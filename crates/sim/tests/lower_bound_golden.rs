//! Golden gate for the relaxed lower-bound controller `P̄3`.
//!
//! Every run tracks Theorem 5's bound. The battery covers the paper seeds,
//! the tiny scenario, the four fault archetypes, BS sleep with energy
//! cooperation (with and without BS outages), and eight points shaped like
//! the `sweep_lb` benchmark grid (`Scenario::paper` at derived seeds × the
//! four V values, 25 slots), and a pruned city whose controllers are
//! partitioned by its interference clusters. Each line records, in plain
//! text so a divergence names what moved, the relaxed time-averaged cost,
//! the relaxed admitted average and the bound, plus an FNV-1a fingerprint
//! of the whole relaxed cost series. The exact controller's outputs ride
//! along as one fingerprint: a change to the relaxed controller must never
//! move them.
//!
//! A second test steps the dense battery slot by slot and checks the
//! relaxed S1 against the dense simplex: it rebuilds each slot's candidate
//! set from the exported virtual queues and the observation with its own
//! weight formula, solves today's LP, and demands that the controller's
//! activations reach the same objective (within 1e-9 relative) from a
//! feasible half-integral point.
//!
//! To re-bless after an *intentional* behavior change:
//!
//! ```text
//! GREENCELL_BLESS=1 cargo test -p greencell-sim --test lower_bound_golden
//! ```

use greencell_core::{dpp, RelaxedController};
use greencell_lp::{LinearProgram, Relation};
use greencell_phy::potential_capacity;
use greencell_sim::{derive_point_seed, fnv1a_64, FaultSpec, Scenario, Simulator};
use std::path::PathBuf;

const GOLDEN: &str = "golden/lower_bound.fp";

/// The `sweep_lb` grid's V values and horizon.
const SWEEP_V: [f64; 4] = [1e5, 3e5, 6e5, 1e6];
const SWEEP_HORIZON: usize = 25;

fn tracked(mut s: Scenario, horizon: usize) -> Scenario {
    s.horizon = horizon;
    s.track_lower_bound = true;
    s
}

fn battery() -> Vec<(String, Scenario)> {
    let mut out = Vec::new();
    for seed in [7, 42] {
        out.push((format!("paper_{seed}"), tracked(Scenario::paper(seed), 40)));
    }
    out.push(("tiny_4242".to_string(), tracked(Scenario::tiny(4242), 20)));
    // The four acceptance fault archetypes, as in the driver golden.
    let horizon = 30;
    for (label, spec) in [
        ("bs_outage", FaultSpec::bs_outage()),
        (
            "renewable_drought",
            FaultSpec::renewable_drought(horizon / 4, horizon / 2),
        ),
        (
            "price_spike",
            FaultSpec::price_spike(horizon / 4, horizon / 2, 6.0),
        ),
        ("band_loss", FaultSpec::band_loss()),
    ] {
        let mut s = tracked(Scenario::tiny(4243), horizon);
        s.v = 1e4;
        s.faults = Some(spec);
        out.push((label.to_string(), s));
    }
    let mut coop = tracked(Scenario::paper(42), 40);
    coop.bs_sleep = Some(coop.default_sleep_policy());
    coop.energy_coop = Some(coop.default_coop_policy());
    let mut coop_outage = coop.clone();
    coop_outage.faults = Some(FaultSpec::bs_outage());
    out.push(("paper_sleep_coop".to_string(), coop));
    out.push(("paper_sleep_coop_outage".to_string(), coop_outage));
    for s in 0..2 {
        for &v in &SWEEP_V {
            let mut p = tracked(Scenario::paper(derive_point_seed(7, s)), SWEEP_HORIZON);
            p.v = v;
            out.push((format!("sweep_v{v:e}_s{s}"), p));
        }
    }
    out
}

/// Runs that are fingerprinted but not stepped against the dense simplex:
/// a pruned city, so P̄3 runs on the controller's parts.
fn partitioned() -> Vec<(String, Scenario)> {
    let city = Scenario::city(120, 3, Scenario::default_city_area(3), 61);
    vec![("city_partitioned".to_string(), tracked(city, 20))]
}

fn fingerprint() -> String {
    let mut lines = Vec::new();
    let dense = battery().into_iter().map(|run| (run, false));
    let pruned = partitioned().into_iter().map(|run| (run, true));
    for ((label, scenario), partitioned) in dense.chain(pruned) {
        let mut sim = Simulator::new(&scenario).expect("scenario builds");
        let parts = sim.controller().part_count();
        assert_eq!(parts > 1, partitioned, "{label}: {parts} parts");
        let metrics = sim.run().expect("run completes").clone();
        let bound = metrics.lower_bound().expect("bound tracked");
        let relaxed = metrics.relaxed_cost_series();
        let admitted = sim.relaxed_average_admitted().expect("bound tracked");
        assert!(
            bound <= metrics.average_cost(),
            "{label}: Theorem 5 bound {bound} above the achieved cost {}",
            metrics.average_cost()
        );
        let exact = format!(
            "{:?}{:?}{:?}{:?}{:?}{:?}",
            metrics.cost_series(),
            metrics.grid_series(),
            metrics.backlog_bs_series(),
            metrics.backlog_users_series(),
            metrics.admitted_series(),
            metrics.routed_series(),
        );
        lines.push(format!(
            "{label}|slots={}|relaxed_avg={:?}|relaxed_admitted={admitted:?}|bound={bound:?}|relaxed_series=0x{:016x}|exact=0x{:016x}",
            relaxed.len(),
            relaxed.mean(),
            fnv1a_64(format!("{:?}", relaxed.values()).as_bytes()),
            fnv1a_64(exact.as_bytes()),
        ));
    }
    lines.join("\n") + "\n"
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(GOLDEN)
}

#[test]
fn lower_bound_matches_the_recorded_fingerprints() {
    let actual = fingerprint();
    let path = golden_path();
    if std::env::var_os("GREENCELL_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &actual).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); re-bless", path.display()));
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        let label = e.split('|').next().unwrap_or("?");
        assert_eq!(a, e, "run #{i} ({label}) diverged from the recorded bound");
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "run battery size changed; re-bless deliberately"
    );
}

/// The relaxed S1 LP the controller replaced, solved by the dense simplex:
/// one `[0, 1]` variable per candidate, one `≤ 1` row per node.
fn simplex_optimum(n: usize, cands: &[(usize, usize, f64)]) -> f64 {
    let mut lp = LinearProgram::new();
    let vars: Vec<_> = cands
        .iter()
        .map(|&(_, _, w)| lp.add_variable(-w, 0.0, 1.0))
        .collect();
    for node in 0..n {
        let terms: Vec<_> = cands
            .iter()
            .zip(&vars)
            .filter(|((i, j, _), _)| *i == node || *j == node)
            .map(|(_, &v)| (v, 1.0))
            .collect();
        if terms.len() > 1 {
            lp.add_constraint(&terms, Relation::Le, 1.0);
        }
    }
    -lp.solve().expect("the origin is feasible").objective()
}

#[test]
fn relaxed_s1_reaches_the_simplex_optimum_every_slot() {
    let (mut slots, mut fractional) = (0usize, 0usize);
    for (label, scenario) in battery() {
        let (metrics, observations) = Simulator::new(&scenario)
            .and_then(|mut sim| sim.run_recording())
            .expect("run completes");
        let net = scenario.build_network().expect("network builds");
        let n = net.topology().len();
        let (phy, config) = (scenario.phy(), scenario.controller_config());
        let beta = dpp::beta(&config, &phy);
        let energy = scenario.energy_config(&net);
        let mut ctl = RelaxedController::new(net.clone(), phy, energy, config);
        for (t, obs) in observations.iter().enumerate() {
            let g = ctl.export_state().g;
            let mut cands = Vec::new();
            let mut keys = Vec::new();
            for (i, j) in net.topology().ordered_pairs() {
                let h = beta * g[i.index() * n + j.index()];
                for m in net.link_bands(i, j).iter() {
                    let c = potential_capacity(obs.spectrum.bandwidth(m), &phy);
                    let w = h * c.as_bits_per_second();
                    if w > 0.0 {
                        cands.push((i.index(), j.index(), w));
                        keys.push((i, j, m));
                    }
                }
            }
            ctl.step(obs);
            let acts: Vec<_> = ctl.last_activations().collect();
            let shipped: Vec<_> = acts.iter().map(|&(i, j, m, _)| (i, j, m)).collect();
            assert_eq!(shipped, keys, "{label} slot {t}: candidate set differs");
            let mut load = vec![0.0; n];
            let mut ours = 0.0;
            for (&(i, j, w), &(.., alpha)) in cands.iter().zip(&acts) {
                assert!(
                    [0.0, 0.5, 1.0].contains(&alpha),
                    "{label} slot {t}: α = {alpha}"
                );
                load[i] += alpha;
                load[j] += alpha;
                ours += w * alpha;
            }
            assert!(
                load.iter().all(|&l| l <= 1.0),
                "{label} slot {t}: radio rows violated {load:?}"
            );
            let oracle = simplex_optimum(n, &cands);
            assert!(
                (ours - oracle).abs() <= 1e-9 * oracle.abs().max(ours.abs()),
                "{label} slot {t}: objective {ours} vs simplex {oracle}"
            );
            slots += usize::from(!cands.is_empty());
            fractional += usize::from(acts.iter().any(|a| a.3 == 0.5));
        }
        assert_eq!(
            Some(ctl.bound()),
            metrics.lower_bound(),
            "{label}: stepping the recorded observations must replay the bound"
        );
    }
    assert!(
        slots > 0 && fractional > 0,
        "vacuous lockstep: {slots} slots with candidates, {fractional} fractional"
    );
}
