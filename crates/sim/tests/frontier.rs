//! Adaptive V-frontier acceptance tests.
//!
//! The headline contract (ISSUE 9): on the paper scenario, the adaptive
//! search reproduces a dense fixed-grid frontier within its configured
//! max-gap tolerance using **at most half** the simulation points, and
//! the search is deterministic and independent of the sweep's worker
//! count (1 and 3 threads produce identical bytes).

use greencell_sim::frontier::{run_frontier, FrontierMap, FrontierOptions};
use greencell_sim::{run_sweep, Scenario, SimError, SweepOptions, SweepPoint};

/// The paper scenario, shortened so a debug-build test stays fast. The
/// topology, load, and energy model are §VI's; only the horizon shrinks.
fn paper_base() -> Scenario {
    let mut s = Scenario::paper(42);
    s.horizon = 30;
    s
}

/// The V range under test. At this horizon the backlog bend (the O(V)
/// arm of the trade-off, Thm. 2) sits between 2e4 and 2e5; the dense
/// reference and the adaptive search both cover it.
const V_MIN: f64 = 1e4;
const V_MAX: f64 = 1e6;

/// A dense log-spaced reference grid evaluated through the plain sweep
/// engine: the ground truth the adaptive search must reproduce.
fn dense_reference(base: &Scenario, n: usize) -> Vec<(f64, f64, f64)> {
    let (lo, hi) = (V_MIN.ln(), V_MAX.ln());
    let vs: Vec<f64> = (0..n)
        .map(|i| (lo + (hi - lo) * i as f64 / (n - 1) as f64).exp())
        .collect();
    let points: Vec<SweepPoint> = vs
        .iter()
        .map(|&v| {
            let mut s = base.clone();
            s.v = v;
            SweepPoint::new(format!("V={v:e}"), s)
        })
        .collect();
    let report = run_sweep(&points, &SweepOptions::serial()).expect("dense sweep");
    vs.iter()
        .zip(&report.outcomes)
        .map(|(&v, o)| {
            (
                v,
                o.metrics.average_cost(),
                o.metrics.backlog_bs_series().mean() + o.metrics.backlog_users_series().mean(),
            )
        })
        .collect()
}

/// Piecewise-linear interpolation of the adaptive map at `v` (in log-V),
/// returning (cost, backlog). `v` must lie inside the map's range.
fn interpolate(map: &FrontierMap, v: f64) -> (f64, f64) {
    let pts = &map.points;
    let i = pts
        .windows(2)
        .position(|w| w[0].v <= v && v <= w[1].v)
        .unwrap_or_else(|| panic!("v {v} outside map range"));
    let (a, b) = (&pts[i], &pts[i + 1]);
    let t = (v.ln() - a.v.ln()) / (b.v.ln() - a.v.ln());
    (
        a.avg_cost + t * (b.avg_cost - a.avg_cost),
        a.avg_backlog + t * (b.avg_backlog - a.avg_backlog),
    )
}

#[test]
fn adaptive_frontier_reproduces_dense_grid_with_at_most_half_the_points() {
    let base = paper_base();
    let dense = dense_reference(&base, 17);

    // The tolerance must sit above the curve's intrinsic discreteness:
    // admitted backlog moves in whole-packet steps, and at this horizon
    // the largest single step is ≈ 0.5 of the observed range — no number
    // of extra points can shrink an adjacent-pair gap below a cliff.
    let options = FrontierOptions {
        v_min: V_MIN,
        v_max: V_MAX,
        max_gap: 0.55,
        budget: 8,
        init_points: 4,
    };
    let map = run_frontier(&base, &options, &SweepOptions::serial()).expect("adaptive frontier");

    assert!(
        map.stats.sims_run * 2 <= dense.len(),
        "adaptive search used {} points, dense reference used {} — must be ≤ half",
        map.stats.sims_run,
        dense.len()
    );
    assert!(
        map.stats.converged,
        "the budget must suffice for this tolerance (worst gap {})",
        map.stats.worst_gap
    );
    assert!(map.stats.worst_gap <= options.max_gap);

    // Every dense-grid point must be predicted by the sparse adaptive map
    // within the same normalized tolerance the refinement used.
    let range = |f: fn(&(f64, f64, f64)) -> f64| -> f64 {
        let lo = dense.iter().map(f).fold(f64::INFINITY, f64::min);
        let hi = dense.iter().map(f).fold(f64::NEG_INFINITY, f64::max);
        // An axis that only moves at the floating-point-noise level (cost
        // varies ~1e-6 relative at this horizon) is flat and contributes
        // no deviation, matching the search's own normalization.
        if hi - lo > 1e-3 * lo.abs().max(hi.abs()) {
            hi - lo
        } else {
            f64::INFINITY
        }
    };
    let (cost_range, backlog_range) = (range(|d| d.1), range(|d| d.2));
    for &(v, cost, backlog) in &dense {
        let (pc, pb) = interpolate(&map, v);
        let dev = ((pc - cost).abs() / cost_range).max((pb - backlog).abs() / backlog_range);
        assert!(
            dev <= options.max_gap,
            "dense point V={v:e} deviates {dev:.3} from the adaptive map \
             (tolerance {}): cost {cost} vs {pc}, backlog {backlog} vs {pb}",
            options.max_gap
        );
    }
}

#[test]
fn frontier_search_is_deterministic() {
    let mut base = Scenario::tiny(7);
    base.horizon = 12;
    let options = FrontierOptions {
        v_min: 1e4,
        v_max: 1e6,
        max_gap: 0.4,
        budget: 7,
        init_points: 3,
    };
    let opts = SweepOptions::serial();
    let a = run_frontier(&base, &options, &opts).expect("first run");
    let b = run_frontier(&base, &options, &opts).expect("second run");
    assert_eq!(a.json(), b.json(), "frontier artifact must be reproducible");
    assert_eq!(a.csv(), b.csv());
    assert_eq!(a, b);
}

#[test]
fn frontier_map_is_byte_identical_at_one_and_three_threads() {
    let mut base = Scenario::tiny(19);
    base.horizon = 10;
    let options = FrontierOptions {
        v_min: 1e4,
        v_max: 1e6,
        max_gap: 0.4,
        budget: 6,
        init_points: 3,
    };
    let serial = run_frontier(&base, &options, &SweepOptions::serial()).expect("1 thread");
    let threaded =
        run_frontier(&base, &options, &SweepOptions::with_threads(3)).expect("3 threads");
    assert_eq!(
        serial.json(),
        threaded.json(),
        "worker count changed the map"
    );
    assert_eq!(serial.csv(), threaded.csv());
    assert_eq!(serial.points, threaded.points);
}

#[test]
fn exhausted_budget_is_reported_not_hidden() {
    let mut base = Scenario::tiny(3);
    base.horizon = 8;
    let options = FrontierOptions {
        v_min: 1e4,
        v_max: 1e6,
        max_gap: 0.01, // unreachable tolerance
        budget: 3,
        init_points: 3,
    };
    let map =
        run_frontier(&base, &options, &SweepOptions::serial()).expect("budget-capped frontier");
    assert!(!map.stats.converged, "an unmet tolerance must be reported");
    assert_eq!(map.stats.sims_run, 3, "the budget is a hard ceiling");
    assert!(map.stats.worst_gap > options.max_gap);
}

#[test]
fn frontier_rejects_bad_ranges_with_typed_errors() {
    let base = Scenario::tiny(1);
    let opts = SweepOptions::serial();
    let err = run_frontier(&base, &FrontierOptions::new(5e5, 1e5), &opts)
        .expect_err("inverted range must fail");
    assert!(matches!(err, SimError::InvalidConfig { .. }), "got {err:?}");
}
