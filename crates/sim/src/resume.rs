//! The resume state of a checkpointed sweep: one checksummed result file
//! per point.
//!
//! [`crate::sweep::run_sweep_checkpointed`] keeps its state in a work dir:
//!
//! ```text
//! work_dir/
//!   results/p<i>.json          # point i's outcome, written atomically
//!   results/p<i>.json.corrupt  # a quarantined file, never read again
//! ```
//!
//! Each result file is an [`crate::fsio`] container whose payload records
//! the point's label, its seed and the `Debug` fingerprint of its
//! scenario next to the exact (hex-encoded) outcome. A file is salvaged
//! only when all three match the point being run, so an edited sweep
//! never reuses a stale result. Anything else in the work dir is ignored.

use crate::faults::WatchdogReport;
use crate::fsio::{open, quarantine, seal, write_text_atomic};
use crate::snapshot::{
    arr, bool_of, f64_of, fingerprint_debug, get, hex_f64, hex_u64, metrics_json, metrics_of,
    u64_of, usize_of,
};
use crate::sweep::{run_point, PointOutcome, RunTelemetry, SweepPoint};
use crate::SimError;
use greencell_core::StageTimings;
use greencell_trace::json::{json_escape, Value};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The `format` tag of a per-point result file.
pub(crate) const RESULT_FORMAT: &str = "greencell-distrib-result";

/// The result-file format version.
pub(crate) const RESULT_VERSION: u32 = 1;

/// Where point `idx`'s outcome came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Provenance {
    /// A valid result file from an earlier run.
    Salvaged,
    /// Computed now; no result file was there.
    Computed,
    /// Computed now; the file that was there failed validation and was
    /// quarantined.
    Recomputed,
}

/// The `results/` directory of `work_dir`.
pub(crate) fn results_dir(work_dir: &Path) -> PathBuf {
    work_dir.join("results")
}

fn result_path(work_dir: &Path, idx: usize) -> PathBuf {
    results_dir(work_dir).join(format!("p{idx}.json"))
}

fn io_err(path: &Path, e: &dyn std::fmt::Display) -> SimError {
    SimError::Io(format!("{}: {e}", path.display()))
}

/// Salvages point `idx`'s result from `work_dir`, or runs the point and
/// persists its outcome atomically. A result file that does not validate
/// against `point` is quarantined to `<name>.corrupt` and the point runs
/// again.
///
/// # Errors
///
/// The point's simulation failure, or an I/O error writing its result.
pub(crate) fn salvage_or_run(
    work_dir: &Path,
    idx: usize,
    point: &SweepPoint,
) -> Result<(PointOutcome, Provenance), SimError> {
    let path = result_path(work_dir, idx);
    let scenario_fp = fingerprint_debug(&point.scenario);
    let provenance = match std::fs::read_to_string(&path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Provenance::Computed,
        read => match read
            .map_err(|e| io_err(&path, &e))
            .and_then(|text| read_result(&text, &path, point, scenario_fp))
        {
            Ok(outcome) => return Ok((outcome, Provenance::Salvaged)),
            Err(_) => {
                // Best-effort: the point is recomputed and its fresh
                // result overwrites the path either way.
                let _ = quarantine(&path);
                Provenance::Recomputed
            }
        },
    };
    let outcome = run_point(&point.label, &point.scenario)?;
    let payload = outcome_json(scenario_fp, &outcome);
    write_text_atomic(&path, &seal(RESULT_FORMAT, RESULT_VERSION, &payload))
        .map_err(|e| io_err(&path, &e))?;
    Ok((outcome, provenance))
}

/// Opens a result image and checks that it belongs to `point`.
fn read_result(
    text: &str,
    path: &Path,
    point: &SweepPoint,
    scenario_fp: u64,
) -> Result<PointOutcome, SimError> {
    let path = path.display().to_string();
    let value = open(text, RESULT_FORMAT, RESULT_VERSION, &path)?;
    let corrupt = |detail: String| SimError::CorruptSnapshot {
        path: path.clone(),
        detail,
    };
    let (found_fp, outcome) = entry_of(&value).map_err(&corrupt)?;
    if outcome.label != point.label
        || outcome.seed != point.scenario.seed
        || found_fp != scenario_fp
    {
        return Err(corrupt(format!(
            "result belongs to a different sweep: label `{}` seed {} fp 0x{found_fp:016x}, \
             expected `{}` seed {} fp 0x{scenario_fp:016x}",
            outcome.label, outcome.seed, point.label, point.scenario.seed,
        )));
    }
    Ok(outcome)
}

// ---------------------------------------------------------------------------
// Outcome codec (exact: u64 nanos, f64 bits).
// ---------------------------------------------------------------------------

fn duration_json(d: Duration) -> String {
    hex_u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

fn duration_of(v: &Value) -> Result<Duration, String> {
    Ok(Duration::from_nanos(u64_of(v)?))
}

fn watchdog_report_json(w: &WatchdogReport) -> String {
    format!(
        "[{},{},{},{},{},{},{}]",
        hex_u64(w.slots as u64),
        hex_f64(w.trailing_slope),
        hex_f64(w.peak_backlog),
        hex_f64(w.final_backlog),
        hex_f64(w.battery_floor_kwh),
        hex_u64(w.divergent_slots as u64),
        w.stable,
    )
}

fn watchdog_report_of(v: &Value) -> Result<WatchdogReport, String> {
    let a = arr(v)?;
    if a.len() != 7 {
        return Err(format!("watchdog report has {} fields, need 7", a.len()));
    }
    Ok(WatchdogReport {
        slots: usize_of(&a[0])?,
        trailing_slope: f64_of(&a[1])?,
        peak_backlog: f64_of(&a[2])?,
        final_backlog: f64_of(&a[3])?,
        battery_floor_kwh: f64_of(&a[4])?,
        divergent_slots: usize_of(&a[5])?,
        stable: bool_of(&a[6])?,
    })
}

fn telemetry_json(t: &RunTelemetry) -> String {
    let s = &t.stages;
    format!(
        "{{\"slots\":{},\"wall_ns\":{},\"slots_per_sec\":{},\"stages\":[{},{},{},{},{}],\"final_backlog_bs\":{},\"final_backlog_users\":{},\"final_buffer_bs_kwh\":{},\"final_buffer_users_wh\":{},\"degraded_slots\":{},\"degradation_events\":{},\"watchdog\":{}}}",
        hex_u64(t.slots as u64),
        duration_json(t.wall),
        hex_f64(t.slots_per_sec),
        duration_json(s.s1),
        duration_json(s.s2),
        duration_json(s.s3),
        duration_json(s.s4),
        hex_u64(s.slots),
        hex_f64(t.final_backlog_bs),
        hex_f64(t.final_backlog_users),
        hex_f64(t.final_buffer_bs_kwh),
        hex_f64(t.final_buffer_users_wh),
        hex_u64(t.degraded_slots),
        hex_u64(t.degradation_events),
        watchdog_report_json(&t.watchdog),
    )
}

fn telemetry_of(v: &Value) -> Result<RunTelemetry, String> {
    let stages = arr(get(v, "stages")?)?;
    if stages.len() != 5 {
        return Err(format!(
            "stage timings have {} fields, need 5",
            stages.len()
        ));
    }
    Ok(RunTelemetry {
        slots: usize_of(get(v, "slots")?)?,
        wall: duration_of(get(v, "wall_ns")?)?,
        slots_per_sec: f64_of(get(v, "slots_per_sec")?)?,
        stages: StageTimings {
            s1: duration_of(&stages[0])?,
            s2: duration_of(&stages[1])?,
            s3: duration_of(&stages[2])?,
            s4: duration_of(&stages[3])?,
            slots: u64_of(&stages[4])?,
        },
        final_backlog_bs: f64_of(get(v, "final_backlog_bs")?)?,
        final_backlog_users: f64_of(get(v, "final_backlog_users")?)?,
        final_buffer_bs_kwh: f64_of(get(v, "final_buffer_bs_kwh")?)?,
        final_buffer_users_wh: f64_of(get(v, "final_buffer_users_wh")?)?,
        degraded_slots: u64_of(get(v, "degraded_slots")?)?,
        degradation_events: u64_of(get(v, "degradation_events")?)?,
        watchdog: watchdog_report_of(get(v, "watchdog")?)?,
    })
}

fn outcome_json(fp: u64, o: &PointOutcome) -> String {
    format!(
        "{{\"label\":\"{}\",\"seed\":{},\"scenario_fp\":{},\"penalty_b\":{},\"relaxed_admitted\":{},\"telemetry\":{},\"metrics\":{}}}",
        json_escape(&o.label),
        hex_u64(o.seed),
        hex_u64(fp),
        hex_f64(o.penalty_b),
        o.relaxed_admitted
            .map_or_else(|| "null".to_string(), hex_f64),
        telemetry_json(&o.telemetry),
        metrics_json(&o.metrics),
    )
}

/// Decodes a result payload: the scenario fingerprint the outcome was
/// computed under, and the outcome.
fn entry_of(v: &Value) -> Result<(u64, PointOutcome), String> {
    let relaxed_admitted = match get(v, "relaxed_admitted")? {
        Value::Null => None,
        other => Some(f64_of(other)?),
    };
    let label = get(v, "label")?
        .as_str()
        .ok_or_else(|| "label must be a string".to_string())?
        .to_string();
    let outcome = PointOutcome {
        label,
        seed: u64_of(get(v, "seed")?)?,
        metrics: metrics_of(get(v, "metrics")?)?,
        telemetry: telemetry_of(get(v, "telemetry")?)?,
        penalty_b: f64_of(get(v, "penalty_b")?)?,
        relaxed_admitted,
    };
    Ok((u64_of(get(v, "scenario_fp")?)?, outcome))
}
