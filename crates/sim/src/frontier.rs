//! Adaptive V-frontier search.
//!
//! The paper's headline trade-off (Thm. 2, Fig. 2) is a frontier: average
//! energy cost falls as `O(1/V)` while average backlog grows as `O(V)`.
//! A fixed V grid wastes simulations on the flat parts of that curve and
//! under-resolves the bend. [`run_frontier`] instead starts from a small
//! log-spaced grid and repeatedly **bisects in log-V space wherever the
//! curve jumps**: a segment whose endpoints differ by more than
//! [`FrontierOptions::max_gap`] (Chebyshev distance over *normalized*
//! cost and backlog) gets a new point at the geometric mean of its V
//! endpoints. Refinement stops when every segment is within tolerance
//! (converged) or the simulation budget is spent.
//!
//! Every point runs under common random numbers (the base scenario's seed
//! is reused, `V` is the only change), so the frontier is the paper's
//! controlled comparison, and the whole search is deterministic: same
//! scenario + options → same points, same JSON/CSV bytes. Each round's
//! points run through [`crate::sweep::run_sweep`], whose outcomes do not
//! depend on [`SweepOptions::threads`], so neither does the map.

use crate::snapshot::fingerprint_debug;
use crate::sweep::{run_sweep, PointOutcome, SweepOptions, SweepPoint};
use crate::{Scenario, SimError};
use greencell_trace::json::{json_escape, json_f64};

/// Frontier-search knobs. Validated up front: a bad knob is a
/// [`SimError::InvalidConfig`], never a silently degenerate search.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierOptions {
    /// Smallest Lyapunov weight (> 0).
    pub v_min: f64,
    /// Largest Lyapunov weight (> `v_min`).
    pub v_max: f64,
    /// Refinement tolerance: a segment is bisected while its endpoints'
    /// normalized (cost, backlog) Chebyshev distance exceeds this.
    pub max_gap: f64,
    /// Hard ceiling on total simulation points (≥ `init_points`).
    pub budget: usize,
    /// Size of the initial log-spaced grid, endpoints included (≥ 2).
    pub init_points: usize,
}

impl FrontierOptions {
    /// Options with the default tolerance (0.25), budget (32) and initial
    /// grid (5 points).
    #[must_use]
    pub fn new(v_min: f64, v_max: f64) -> Self {
        Self {
            v_min,
            v_max,
            max_gap: 0.25,
            budget: 32,
            init_points: 5,
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        let bad = |detail: String| Err(SimError::InvalidConfig { detail });
        if !(self.v_min.is_finite() && self.v_min > 0.0) {
            return bad(format!(
                "frontier v_min must be finite and positive, got {}",
                self.v_min
            ));
        }
        if !(self.v_max.is_finite() && self.v_max > self.v_min) {
            return bad(format!(
                "frontier V range is empty or inverted: v_min {} v_max {}",
                self.v_min, self.v_max
            ));
        }
        if !(self.max_gap.is_finite() && self.max_gap > 0.0) {
            return bad(format!(
                "frontier max_gap must be finite and positive, got {}",
                self.max_gap
            ));
        }
        if self.init_points < 2 {
            return bad(format!(
                "frontier needs at least 2 initial points to form a segment, got {}",
                self.init_points
            ));
        }
        if self.budget < self.init_points {
            return bad(format!(
                "frontier budget {} cannot cover the initial grid of {} points",
                self.budget, self.init_points
            ));
        }
        Ok(())
    }
}

/// One evaluated point on the cost-vs-backlog frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The Lyapunov weight.
    pub v: f64,
    /// The sweep label (`V=<value in e-notation>`).
    pub label: String,
    /// Time-averaged energy cost (Fig. 2(e)'s y-axis).
    pub avg_cost: f64,
    /// Time-averaged total data backlog, BSs + users, packets.
    pub avg_backlog: f64,
    /// Refinement round that placed this point (0 = initial grid).
    pub round: usize,
}

/// How the search went.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierStats {
    /// Simulation points evaluated (== final map size).
    pub sims_run: usize,
    /// Refinement rounds after the initial grid.
    pub rounds: usize,
    /// Whether every segment ended within `max_gap` (vs budget exhausted).
    pub converged: bool,
    /// The largest remaining normalized segment gap.
    pub worst_gap: f64,
}

/// A complete frontier map: points sorted by `V`, plus search telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierMap {
    /// Evaluated points in ascending `V` order.
    pub points: Vec<FrontierPoint>,
    /// The options the search ran with.
    pub options: FrontierOptions,
    /// Fingerprint of the base scenario (seed included).
    pub scenario_fp: u64,
    /// Search telemetry.
    pub stats: FrontierStats,
}

impl FrontierMap {
    /// Deterministic JSON artifact (same map → same bytes).
    #[must_use]
    pub fn json(&self) -> String {
        let rows: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "{{\"v\": {}, \"label\": \"{}\", \"avg_cost\": {}, \"avg_backlog\": {}, \"round\": {}}}",
                    json_f64(p.v),
                    json_escape(&p.label),
                    json_f64(p.avg_cost),
                    json_f64(p.avg_backlog),
                    p.round
                )
            })
            .collect();
        format!(
            "{{\"scenario_fp\": \"0x{:016x}\", \"v_min\": {}, \"v_max\": {}, \"max_gap\": {}, \
             \"budget\": {}, \"init_points\": {}, \"sims_run\": {}, \"rounds\": {}, \
             \"converged\": {}, \"worst_gap\": {}, \"points\": [\n{}\n]}}\n",
            self.scenario_fp,
            json_f64(self.options.v_min),
            json_f64(self.options.v_max),
            json_f64(self.options.max_gap),
            self.options.budget,
            self.options.init_points,
            self.stats.sims_run,
            self.stats.rounds,
            self.stats.converged,
            json_f64(self.stats.worst_gap),
            rows.join(",\n")
        )
    }

    /// Deterministic CSV artifact (one row per point, ascending `V`).
    #[must_use]
    pub fn csv(&self) -> String {
        let mut out = String::from("v,avg_cost,avg_backlog,round\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{},{}\n",
                p.v, p.avg_cost, p.avg_backlog, p.round
            ));
        }
        out
    }

    /// The largest normalized gap between adjacent points (0 for < 2
    /// points) — how well the map meets its own tolerance.
    #[must_use]
    pub fn worst_gap(&self) -> f64 {
        let coords: Vec<(f64, f64, f64)> = self
            .points
            .iter()
            .map(|p| (p.v, p.avg_cost, p.avg_backlog))
            .collect();
        segment_gaps(&coords).into_iter().fold(0.0_f64, f64::max)
    }
}

/// The initial log-spaced grid over `[v_min, v_max]`, endpoints included.
fn log_grid(v_min: f64, v_max: f64, n: usize) -> Vec<f64> {
    let (lo, hi) = (v_min.ln(), v_max.ln());
    (0..n)
        .map(|i| {
            if i == 0 {
                v_min
            } else if i == n - 1 {
                v_max
            } else {
                (lo + (hi - lo) * (i as f64) / ((n - 1) as f64)).exp()
            }
        })
        .collect()
}

/// An axis whose observed range is below this fraction of its own
/// magnitude is treated as flat. Without this, an axis that is constant
/// up to floating-point noise (e.g. average cost on a short horizon,
/// varying at the 1e-6 relative level across V) gets range-normalized
/// into gaps of ~1.0 that bisection can never shrink — the search would
/// chase numerical noise until the budget died.
const FLAT_AXIS_RTOL: f64 = 1e-3;

/// Normalized Chebyshev gaps between adjacent points of a sorted
/// `(v, cost, backlog)` frontier. Cost and backlog are each normalized by
/// their observed range (a flat or noise-level axis contributes zero, see
/// [`FLAT_AXIS_RTOL`]), so one loud axis cannot drown the other and the
/// tolerance is scale-free.
fn segment_gaps(coords: &[(f64, f64, f64)]) -> Vec<f64> {
    if coords.len() < 2 {
        return Vec::new();
    }
    let range = |f: fn(&(f64, f64, f64)) -> f64| -> f64 {
        let lo = coords.iter().map(f).fold(f64::INFINITY, f64::min);
        let hi = coords.iter().map(f).fold(f64::NEG_INFINITY, f64::max);
        let r = hi - lo;
        let scale = lo.abs().max(hi.abs());
        if r.is_finite() && r > FLAT_AXIS_RTOL * scale && r > 0.0 {
            r
        } else {
            f64::INFINITY // flat (or noise-level) axis: all gaps become 0
        }
    };
    let (cost_range, backlog_range) = (range(|c| c.1), range(|c| c.2));
    coords
        .windows(2)
        .map(|w| {
            let dc = (w[1].1 - w[0].1).abs() / cost_range;
            let db = (w[1].2 - w[0].2).abs() / backlog_range;
            dc.max(db)
        })
        .collect()
}

/// The bisection V values for the current frontier: the geometric-mean
/// midpoints of every segment whose gap exceeds `max_gap`, widest gaps
/// first, capped at `budget_left`, deduplicated against `coords` and
/// against degenerate midpoints (float fixed points).
fn refine_candidates(coords: &[(f64, f64, f64)], max_gap: f64, budget_left: usize) -> Vec<f64> {
    let gaps = segment_gaps(coords);
    let mut ranked: Vec<(f64, f64)> = gaps
        .iter()
        .zip(coords.windows(2))
        .filter(|(&gap, _)| gap > max_gap)
        .map(|(&gap, w)| {
            let mid = (w[0].0 * w[1].0).sqrt();
            (gap, mid)
        })
        .filter(|&(_, mid)| coords.iter().all(|c| c.0 != mid) && mid.is_finite() && mid > 0.0)
        .collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.total_cmp(&b.1)));
    let mut out: Vec<f64> = Vec::new();
    for (_, mid) in ranked {
        if out.len() >= budget_left {
            break;
        }
        if !out.contains(&mid) {
            out.push(mid);
        }
    }
    out
}

fn evaluate(
    base: &Scenario,
    vs: &[f64],
    opts: &SweepOptions,
) -> Result<Vec<PointOutcome>, SimError> {
    let points: Vec<SweepPoint> = vs
        .iter()
        .map(|&v| {
            let mut scenario = base.clone();
            scenario.v = v;
            SweepPoint::new(format!("V={v:e}"), scenario)
        })
        .collect();
    Ok(run_sweep(&points, opts)?.outcomes)
}

fn frontier_point(v: f64, outcome: &PointOutcome, round: usize) -> FrontierPoint {
    FrontierPoint {
        v,
        label: outcome.label.clone(),
        avg_cost: outcome.metrics.average_cost(),
        avg_backlog: outcome.metrics.backlog_bs_series().mean()
            + outcome.metrics.backlog_users_series().mean(),
        round,
    }
}

/// Runs the adaptive frontier search for `base` (its `v` field is
/// ignored; its seed is reused at every point — common random numbers).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for invalid options, and
/// propagates simulation failures.
pub fn run_frontier(
    base: &Scenario,
    options: &FrontierOptions,
    opts: &SweepOptions,
) -> Result<FrontierMap, SimError> {
    options.validate()?;
    let mut points: Vec<FrontierPoint> = Vec::new();
    let mut rounds = 0usize;

    let grid = log_grid(options.v_min, options.v_max, options.init_points);
    for (v, outcome) in grid.iter().zip(evaluate(base, &grid, opts)?.iter()) {
        points.push(frontier_point(*v, outcome, 0));
    }

    let converged = loop {
        points.sort_by(|a, b| a.v.total_cmp(&b.v));
        let coords: Vec<(f64, f64, f64)> = points
            .iter()
            .map(|p| (p.v, p.avg_cost, p.avg_backlog))
            .collect();
        let budget_left = options.budget.saturating_sub(points.len());
        let wanted = refine_candidates(&coords, options.max_gap, usize::MAX);
        if wanted.is_empty() {
            break true; // every segment within tolerance
        }
        if budget_left == 0 {
            break false; // work remains but the budget is spent
        }
        let vs = refine_candidates(&coords, options.max_gap, budget_left);
        rounds += 1;
        for (v, outcome) in vs.iter().zip(evaluate(base, &vs, opts)?.iter()) {
            points.push(frontier_point(*v, outcome, rounds));
        }
    };

    points.sort_by(|a, b| a.v.total_cmp(&b.v));
    let mut map = FrontierMap {
        points,
        options: options.clone(),
        scenario_fp: fingerprint_debug(base),
        stats: FrontierStats {
            sims_run: 0,
            rounds,
            converged,
            worst_gap: 0.0,
        },
    };
    map.stats.sims_run = map.points.len();
    map.stats.worst_gap = map.worst_gap();
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_grid_hits_endpoints_exactly() {
        let g = log_grid(1e4, 1e6, 5);
        assert_eq!(g.len(), 5);
        assert_eq!(g[0], 1e4);
        assert_eq!(g[4], 1e6);
        for w in g.windows(2) {
            assert!(w[1] > w[0], "grid must be strictly increasing: {g:?}");
        }
    }

    #[test]
    fn segment_gaps_are_scale_free() {
        // Cost spans 1000..2000, backlog 0..1 — each axis normalized by
        // its own range, so the uniform staircase has uniform gaps.
        let coords = vec![
            (1.0, 2000.0, 0.0),
            (10.0, 1500.0, 0.5),
            (100.0, 1000.0, 1.0),
        ];
        let gaps = segment_gaps(&coords);
        assert_eq!(gaps.len(), 2);
        for g in gaps {
            assert!((g - 0.5).abs() < 1e-12, "gap {g} should be 0.5");
        }
    }

    #[test]
    fn flat_axes_produce_zero_gaps() {
        let coords = vec![(1.0, 5.0, 3.0), (2.0, 5.0, 3.0)];
        assert_eq!(segment_gaps(&coords), vec![0.0]);
    }

    #[test]
    fn noise_level_axes_count_as_flat() {
        // Cost varies by 1e-6 relative — floating-point noise, not
        // structure. The backlog axis still registers in full.
        let coords = vec![
            (1.0, 0.012000000, 0.0),
            (10.0, 0.012000012, 100.0),
            (100.0, 0.012000004, 200.0),
        ];
        let gaps = segment_gaps(&coords);
        for g in gaps {
            assert!(
                (g - 0.5).abs() < 1e-9,
                "backlog alone should drive the gap, got {g}"
            );
        }
    }

    #[test]
    fn refine_bisects_widest_gap_first_at_geometric_mean() {
        // Backlog jumps 0 → 0.9 across the first segment, 0.9 → 1.0 over
        // the second; only the first exceeds max_gap = 0.5.
        let coords = vec![(1.0, 0.0, 0.0), (100.0, 0.0, 0.9), (10000.0, 0.0, 1.0)];
        let vs = refine_candidates(&coords, 0.5, usize::MAX);
        assert_eq!(vs, vec![10.0]); // sqrt(1 * 100)
    }

    #[test]
    fn refine_respects_budget() {
        let coords = vec![(1.0, 0.0, 0.0), (100.0, 0.0, 0.5), (10000.0, 0.0, 1.0)];
        let vs = refine_candidates(&coords, 0.1, 1);
        assert_eq!(vs.len(), 1);
    }

    #[test]
    fn bad_options_are_typed_errors() {
        let base = crate::Scenario::tiny(1);
        for (opts, needle) in [
            (FrontierOptions::new(0.0, 1e6), "v_min"),
            (FrontierOptions::new(1e6, 1e4), "inverted"),
            (
                FrontierOptions {
                    max_gap: 0.0,
                    ..FrontierOptions::new(1e4, 1e6)
                },
                "max_gap",
            ),
            (
                FrontierOptions {
                    init_points: 1,
                    ..FrontierOptions::new(1e4, 1e6)
                },
                "initial points",
            ),
            (
                FrontierOptions {
                    budget: 2,
                    ..FrontierOptions::new(1e4, 1e6)
                },
                "budget",
            ),
        ] {
            let err =
                run_frontier(&base, &opts, &SweepOptions::serial()).expect_err("must be rejected");
            match err {
                SimError::InvalidConfig { detail } => {
                    assert!(detail.contains(needle), "`{detail}` should name `{needle}`");
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }
}
