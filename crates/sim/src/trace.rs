//! High-level tracing entry points: run a sweep with tracing on, write the
//! exported artifacts under `results/`, and verify the determinism
//! contract — behind the `greencell trace` CLI subcommand and its CI gate.

use crate::sweep::{run_sweep_traced, SweepOptions, SweepPoint, SweepReport};
use crate::SimError;
use greencell_trace::{json, TraceBundle};
use std::path::{Path, PathBuf};

/// A traced sweep: the usual per-point outcomes plus the merged trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedRun {
    /// Per-point outcomes and execution facts.
    pub report: SweepReport,
    /// The merged trace, tracks in point order.
    pub bundle: TraceBundle,
}

/// Runs a traced sweep over `points`.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn trace_points(
    points: &[SweepPoint],
    opts: &SweepOptions,
    capacity: usize,
) -> Result<TracedRun, SimError> {
    let (report, bundle) = run_sweep_traced(points, opts, capacity)?;
    Ok(TracedRun { report, bundle })
}

/// Writes the three trace artifacts for `run` under `dir`:
/// `trace_<stem>.json` (chrome://tracing, Perfetto-loadable),
/// `trace_<stem>_deterministic.json` (the byte-stable section), and
/// `trace_<stem>_timeseries.csv` (Fig. 2 axes, every slot of every point,
/// from each point's [`crate::RunMetrics`] rather than the trace ring).
/// Returns the paths.
///
/// # Errors
///
/// Returns [`SimError::Io`] on I/O failure.
pub fn write_trace_artifacts(
    run: &TracedRun,
    dir: impl AsRef<Path>,
    stem: &str,
) -> Result<Vec<PathBuf>, SimError> {
    let dir = dir.as_ref();
    let chrome = dir.join(format!("trace_{stem}.json"));
    let deterministic = dir.join(format!("trace_{stem}_deterministic.json"));
    let timeseries = dir.join(format!("trace_{stem}_timeseries.csv"));
    crate::sweep::write_text(&chrome, &run.bundle.chrome_trace_json())?;
    crate::sweep::write_text(&deterministic, &run.bundle.deterministic_json())?;
    crate::sweep::write_text(
        &timeseries,
        &crate::report::timeseries_csv(&run.report.outcomes)?,
    )?;
    Ok(vec![chrome, deterministic, timeseries])
}

/// Verifies the tracing determinism contract on `points`:
///
/// 1. the chrome-trace JSON export parses as JSON, and
/// 2. the deterministic trace section is byte-identical between a
///    1-worker and a `workers`-worker run (as is the per-point metric
///    fingerprint).
///
/// Returns the serial run on success, so callers can reuse it for
/// artifact writing without paying a third run.
///
/// # Errors
///
/// [`SimError::Serialize`] describing the first violated check, or any
/// underlying simulation failure.
pub fn check_trace_determinism(
    points: &[SweepPoint],
    workers: usize,
    capacity: usize,
) -> Result<TracedRun, SimError> {
    let serial = trace_points(points, &SweepOptions::serial(), capacity)?;
    let fanned = trace_points(points, &SweepOptions::with_threads(workers), capacity)?;
    let a = serial.bundle.deterministic_json();
    let b = fanned.bundle.deterministic_json();
    if a != b {
        return Err(SimError::Serialize(format!(
            "deterministic trace section differs between 1 and {workers} workers \
             ({} vs {} bytes)",
            a.len(),
            b.len()
        )));
    }
    for (x, y) in serial.report.outcomes.iter().zip(&fanned.report.outcomes) {
        if x.metrics != y.metrics {
            return Err(SimError::Serialize(format!(
                "metrics for point '{}' differ between 1 and {workers} workers",
                x.label
            )));
        }
    }
    json::parse(&serial.bundle.chrome_trace_json())
        .map_err(|e| SimError::Serialize(format!("chrome trace JSON does not parse: {e}")))?;
    json::parse(&a)
        .map_err(|e| SimError::Serialize(format!("deterministic JSON does not parse: {e}")))?;
    Ok(serial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;
    use greencell_trace::{RingSink, Stage};

    fn trace_one(scenario: Scenario, label: &str) -> TracedRun {
        let points = [SweepPoint::new(label, scenario)];
        trace_points(&points, &SweepOptions::serial(), RingSink::DEFAULT_CAPACITY).unwrap()
    }

    #[test]
    fn traced_scenario_produces_all_sections() {
        let run = trace_one(Scenario::tiny(5), "tiny");
        assert_eq!(run.bundle.tracks.len(), 1);
        let summary = run.bundle.summary();
        // Spans for every stage, one whole-slot span per slot.
        let horizon = Scenario::tiny(5).horizon as u64;
        assert_eq!(summary.stages[&Stage::Slot].count(), horizon);
        for stage in [Stage::S1, Stage::S2, Stage::S3, Stage::S4, Stage::Advance] {
            assert!(
                summary.stages[&stage].count() >= horizon,
                "missing spans for {stage}"
            );
        }
        // Fig. 2 gauges sampled every slot.
        for name in [
            greencell_trace::names::COST,
            greencell_trace::names::BACKLOG_BS,
            greencell_trace::names::BUFFER_USERS_WH,
            greencell_trace::names::DRIFT,
            greencell_trace::names::PENALTY,
        ] {
            assert_eq!(summary.gauges[name].count(), horizon, "gauge {name}");
        }
        // The metrics must be unchanged by tracing.
        let untraced = crate::run_point("tiny", &Scenario::tiny(5)).unwrap();
        assert_eq!(run.report.outcomes[0].metrics, untraced.metrics);
    }

    #[test]
    fn determinism_check_passes_on_a_small_batch() {
        let points: Vec<SweepPoint> = (0..4)
            .map(|i| SweepPoint::new(format!("p{i}"), Scenario::tiny(300 + i)))
            .collect();
        let run = check_trace_determinism(&points, 4, 1 << 16).unwrap();
        assert_eq!(run.bundle.tracks.len(), 4);
    }

    #[test]
    fn artifacts_write_and_parse() {
        let run = trace_one(Scenario::tiny(9), "t9");
        let dir = std::env::temp_dir().join(format!("greencell_trace_test_{}", std::process::id()));
        let paths = write_trace_artifacts(&run, &dir, "t9").unwrap();
        assert_eq!(paths.len(), 3);
        for p in &paths {
            let text = std::fs::read_to_string(p).unwrap();
            assert!(!text.is_empty());
            if p.extension().is_some_and(|e| e == "json") {
                json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A ring far smaller than the run overwrites the early slots' gauges,
    /// yet the time series still has one row per slot, equal to the run's
    /// metrics.
    #[test]
    fn timeseries_outlives_a_wrapped_ring() {
        let mut scenario = Scenario::tiny(11);
        scenario.horizon = 20;
        let points = [SweepPoint::new("wrap", scenario)];
        let run = trace_points(&points, &SweepOptions::serial(), 48).unwrap();
        assert!(run.bundle.tracks[0].dropped > 0, "the ring must wrap");
        let dir = std::env::temp_dir().join(format!("greencell_trace_wrap_{}", std::process::id()));
        let paths = write_trace_artifacts(&run, &dir, "wrap").unwrap();
        let csv = std::fs::read_to_string(&paths[2]).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let m = &run.report.outcomes[0].metrics;
        let columns = [
            m.cost_series(),
            m.grid_series(),
            m.backlog_bs_series(),
            m.backlog_users_series(),
            m.buffer_bs_series(),
            m.buffer_users_series(),
        ];
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), 20, "one row per slot");
        for (t, row) in rows.iter().enumerate() {
            let cells: Vec<&str> = row.split(',').collect();
            assert_eq!(cells[..2], ["wrap", t.to_string().as_str()], "{row}");
            for (cell, series) in cells[2..].iter().zip(columns) {
                let value: f64 = cell.parse().unwrap();
                assert_eq!(
                    value.to_bits(),
                    series.values()[t].to_bits(),
                    "slot {t}: {row}"
                );
            }
        }
    }
}
