//! The figure runners, each on the sweep engine: [`v_sweep`] runs one
//! point per Lyapunov weight and its outcomes hold the Fig. 2(b)–(e)
//! series; [`fig2a`] and [`fig2f`] reduce their sweeps to the rows the
//! paper plots; the structural sweeps and [`replicate`] summarize runs.
//! The `greencell` figure subcommands print them via [`crate::report`].

use crate::sweep::{run_sweep, PointOutcome, SweepOptions, SweepPoint, SweepReport};
use crate::{Architecture, Scenario, SimError};

/// One `(V, upper, lower)` row of Fig. 2(a).
#[derive(Debug, Clone, PartialEq)]
pub struct BoundsRow {
    /// The Lyapunov weight.
    pub v: f64,
    /// Upper bound: the proposed algorithm's time-averaged cost `ψ_P3`.
    pub upper: f64,
    /// Lower bound: the relaxed controller's `ψ*_P̄3 − B/V` (Theorem 5).
    pub lower: f64,
    /// The raw relaxed average cost (before subtracting `B/V`).
    pub relaxed_cost: f64,
    /// The gap constant contribution `B/V`.
    pub gap: f64,
    /// Upper bound on the P2 objective `ψ = f̄ − λ·Σ_s k̄_s` (includes the
    /// admission reward, the quantity P2 actually minimizes).
    pub upper_psi: f64,
    /// Lower bound on the P2 objective: relaxed `ψ` minus `B/V`.
    pub lower_psi: f64,
}

/// Runs `base` once per `V` value on the sweep engine, fanning the points
/// across `opts.threads` workers: one point labelled `V=<v>` per value,
/// outcomes in `v_values` order. Each outcome's [`crate::RunMetrics`]
/// holds every per-slot series Fig. 2(b)–(e) plots.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn v_sweep(
    base: &Scenario,
    v_values: &[f64],
    opts: &SweepOptions,
) -> Result<SweepReport, SimError> {
    run_sweep(&v_points(base, v_values, ""), opts)
}

/// One engine point per `V` value, each label prefixed by `prefix`.
fn v_points(base: &Scenario, v_values: &[f64], prefix: &str) -> Vec<SweepPoint> {
    v_values
        .iter()
        .map(|&v| {
            let mut scenario = base.clone();
            scenario.v = v;
            SweepPoint::new(format!("{prefix}V={v:e}"), scenario)
        })
        .collect()
}

/// Fig. 2(a): upper and lower bounds on `ψ*_P1` versus `V`, from a
/// [`v_sweep`] with the relaxed lower-bound controller co-run.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig2a(
    base: &Scenario,
    v_values: &[f64],
    opts: &SweepOptions,
) -> Result<(Vec<BoundsRow>, SweepReport), SimError> {
    let mut tracked = base.clone();
    tracked.track_lower_bound = true;
    let report = v_sweep(&tracked, v_values, opts)?;
    let lambda = base.lambda;
    let rows = v_values
        .iter()
        .zip(&report.outcomes)
        .map(|(&v, o)| {
            let metrics = &o.metrics;
            let relaxed_cost = metrics.relaxed_cost_series().mean();
            let upper_psi = metrics.average_cost() - lambda * metrics.admitted_series().mean();
            let lower_psi =
                relaxed_cost - lambda * o.relaxed_admitted.unwrap_or(0.0) - o.penalty_b / v;
            BoundsRow {
                v,
                upper: metrics.average_cost(),
                lower: metrics.lower_bound().expect("tracked"),
                relaxed_cost,
                gap: o.penalty_b / v,
                upper_psi,
                lower_psi,
            }
        })
        .collect();
    Ok((rows, report))
}

/// One `(architecture, V, cost)` cell of Fig. 2(f).
#[derive(Debug, Clone, PartialEq)]
pub struct ArchitectureRow {
    /// The architecture simulated.
    pub architecture: Architecture,
    /// Time-averaged energy cost per `V` value, in `v_values` order.
    pub costs: Vec<f64>,
}

/// Fig. 2(f): time-averaged energy cost of the four architectures across
/// `V` values, under common random numbers. All `architecture × V` cells
/// become one flat point list, so a parallel run overlaps the whole grid.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig2f(
    base: &Scenario,
    v_values: &[f64],
    opts: &SweepOptions,
) -> Result<(Vec<ArchitectureRow>, SweepReport), SimError> {
    let mut points = Vec::with_capacity(Architecture::ALL.len() * v_values.len());
    for architecture in Architecture::ALL {
        let mut scenario = base.clone();
        scenario.architecture = architecture;
        points.extend(v_points(&scenario, v_values, &format!("{architecture:?}/")));
    }
    let report = run_sweep(&points, opts)?;
    let rows = Architecture::ALL
        .iter()
        .enumerate()
        .map(|(a, &architecture)| ArchitectureRow {
            architecture,
            costs: report.outcomes[a * v_values.len()..(a + 1) * v_values.len()]
                .iter()
                .map(|o| o.metrics.average_cost())
                .collect(),
        })
        .collect();
    Ok((rows, report))
}

/// Multi-seed replication of one scenario: mean and standard deviation of
/// the headline metrics across independent topologies and sample paths.
#[derive(Debug, Clone, PartialEq)]
pub struct Replication {
    /// The seeds replicated.
    pub seeds: Vec<u64>,
    /// Mean time-averaged energy cost.
    pub mean_cost: f64,
    /// Population standard deviation of the cost.
    pub std_cost: f64,
    /// Mean delivered packets.
    pub mean_delivered: f64,
    /// Mean peak total backlog (BS + users).
    pub mean_peak_backlog: f64,
}

/// Runs `base` once per seed and aggregates (the confidence companion to
/// every single-seed figure): the seeds become independent points fanned
/// across `opts.threads` workers.
///
/// # Errors
///
/// Propagates simulation failures.
///
/// # Panics
///
/// Panics if `seeds` is empty.
pub fn replicate(
    base: &Scenario,
    seeds: &[u64],
    opts: &SweepOptions,
) -> Result<(Replication, SweepReport), SimError> {
    assert!(!seeds.is_empty(), "need at least one seed");
    let points: Vec<SweepPoint> = seeds
        .iter()
        .map(|&seed| {
            let mut scenario = base.clone();
            scenario.seed = seed;
            SweepPoint::new(format!("seed={seed}"), scenario)
        })
        .collect();
    let report = run_sweep(&points, opts)?;
    let mut costs = greencell_stochastic::RunningMean::new();
    let mut delivered = greencell_stochastic::RunningMean::new();
    let mut peaks = greencell_stochastic::RunningMean::new();
    for o in &report.outcomes {
        costs.record(o.metrics.average_cost());
        delivered.record(o.metrics.delivered() as f64);
        let peak = o.metrics.backlog_bs_series().max().unwrap_or(0.0)
            + o.metrics.backlog_users_series().max().unwrap_or(0.0);
        peaks.record(peak);
    }
    let replication = Replication {
        seeds: seeds.to_vec(),
        mean_cost: costs.mean(),
        std_cost: costs.std_dev(),
        mean_delivered: delivered.mean(),
        mean_peak_backlog: peaks.mean(),
    };
    Ok((replication, report))
}

/// One row of a structural sweep (user count, session count, …): the
/// swept value and the summary of its run.
#[derive(Debug, Clone, PartialEq)]
pub struct StructuralRow {
    /// The swept value.
    pub x: f64,
    /// Time-averaged energy cost.
    pub avg_cost: f64,
    /// Delivered packets over the horizon.
    pub delivered: u64,
    /// Peak total data backlog (BS + users).
    pub peak_backlog: f64,
    /// Mean scheduled transmissions per slot.
    pub mean_scheduled: f64,
}

fn structural_row(x: f64, o: &PointOutcome) -> StructuralRow {
    StructuralRow {
        x,
        avg_cost: o.metrics.average_cost(),
        delivered: o.metrics.delivered(),
        peak_backlog: o.metrics.backlog_bs_series().max().unwrap_or(0.0)
            + o.metrics.backlog_users_series().max().unwrap_or(0.0),
        mean_scheduled: o.metrics.scheduled_series().mean(),
    }
}

/// Runs one engine point per `(x, scenario)` pair and maps the outcomes.
fn structural_sweep(
    label: &str,
    specs: Vec<(f64, Scenario)>,
    opts: &SweepOptions,
) -> Result<(Vec<StructuralRow>, SweepReport), SimError> {
    let points: Vec<SweepPoint> = specs
        .iter()
        .map(|(x, scenario)| SweepPoint::new(format!("{label}={x}"), scenario.clone()))
        .collect();
    let report = run_sweep(&points, opts)?;
    let rows = specs
        .iter()
        .zip(&report.outcomes)
        .map(|(&(x, _), o)| structural_row(x, o))
        .collect();
    Ok((rows, report))
}

/// Sweeps the number of users (relay density) — more relays should help
/// multi-hop serve the same sessions with shorter hops — on the sweep
/// engine, with telemetry.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn sweep_users(
    base: &Scenario,
    counts: &[usize],
    opts: &SweepOptions,
) -> Result<(Vec<StructuralRow>, SweepReport), SimError> {
    let specs = counts
        .iter()
        .map(|&users| {
            let mut scenario = base.clone();
            scenario.users = users.max(scenario.sessions);
            (users as f64, scenario)
        })
        .collect();
    structural_sweep("users", specs, opts)
}

/// Sweeps the number of sessions (offered load) on the sweep engine, with
/// telemetry.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn sweep_sessions(
    base: &Scenario,
    counts: &[usize],
    opts: &SweepOptions,
) -> Result<(Vec<StructuralRow>, SweepReport), SimError> {
    let specs = counts
        .iter()
        .map(|&sessions| {
            let mut scenario = base.clone();
            scenario.sessions = sessions;
            (sessions as f64, scenario)
        })
        .collect();
    structural_sweep("sessions", specs, opts)
}

/// Sweeps the number of extra (non-cellular) spectrum bands on the sweep
/// engine, with telemetry.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn sweep_bands(
    base: &Scenario,
    extra_bands: &[usize],
    opts: &SweepOptions,
) -> Result<(Vec<StructuralRow>, SweepReport), SimError> {
    let specs = extra_bands
        .iter()
        .map(|&extra| {
            let mut scenario = base.clone();
            scenario.random_bands = vec![(1.0, 2.0); extra];
            (extra as f64, scenario)
        })
        .collect();
    structural_sweep("extra_bands", specs, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_rows_are_ordered_bounds() {
        let mut base = Scenario::tiny(23);
        base.horizon = 12;
        let (rows, _) = fig2a(&base, &[1e5, 5e5], &SweepOptions::serial()).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.lower <= row.upper, "bound ordering violated");
            assert!(row.gap > 0.0);
        }
        // The B/V gap shrinks as V grows.
        assert!(rows[1].gap < rows[0].gap);
    }

    #[test]
    fn v_sweep_runs_one_point_per_v() {
        let mut base = Scenario::tiny(29);
        base.horizon = 8;
        let report = v_sweep(&base, &[1e5, 2e5, 3e5], &SweepOptions::with_threads(2)).unwrap();
        let labels: Vec<&str> = report.outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, ["V=1e5", "V=2e5", "V=3e5"]);
        assert!(report.outcomes.iter().all(|o| {
            let m = &o.metrics;
            m.backlog_bs_series().len() == 8 && m.buffer_users_series().len() == 8
        }));
    }

    #[test]
    fn fig2f_covers_all_architectures() {
        let mut base = Scenario::tiny(31);
        base.horizon = 8;
        let (rows, report) = fig2f(&base, &[1e5], &SweepOptions::serial()).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].architecture, Architecture::Proposed);
        assert!(rows.iter().all(|r| r.costs.len() == 1));
        assert_eq!(report.outcomes[0].label, "Proposed/V=1e5");
    }

    #[test]
    fn structural_sweeps_report_one_point_per_value() {
        let mut base = Scenario::tiny(37);
        base.horizon = 6;
        let opts = SweepOptions::with_threads(2);
        let (users, report) = sweep_users(&base, &[3, 6], &opts).unwrap();
        assert_eq!(users.iter().map(|p| p.x).collect::<Vec<_>>(), [3.0, 6.0]);
        assert_eq!(report.outcomes.len(), 2);
        let (sessions, _) = sweep_sessions(&base, &[1, 2], &opts).unwrap();
        assert_eq!(sessions.len(), 2);
        let (bands, _) = sweep_bands(&base, &[0, 2], &opts).unwrap();
        assert_eq!(bands.len(), 2);
        assert!(users
            .iter()
            .chain(&sessions)
            .chain(&bands)
            .all(|p| p.avg_cost.is_finite() && p.mean_scheduled >= 0.0));
        // Worker count never changes results.
        let (serial, _) = sweep_users(&base, &[3, 6], &SweepOptions::serial()).unwrap();
        assert_eq!(serial, users);
    }

    #[test]
    fn replication_aggregates_every_seed() {
        let mut base = Scenario::tiny(41);
        base.horizon = 6;
        let (rep, report) = replicate(&base, &[1, 2, 3], &SweepOptions::with_threads(2)).unwrap();
        assert_eq!(rep.seeds, [1, 2, 3]);
        assert_eq!(report.outcomes.len(), 3);
        assert!(rep.mean_cost.is_finite() && rep.std_cost >= 0.0);
    }
}
