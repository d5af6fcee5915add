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
use crate::fsio::{open, quarantine, write_sealed_atomic};
use crate::snapshot::{
    arr, bool_of, f64_of, fingerprint_debug, get, metrics_into, metrics_of, metrics_values,
    push_hex, push_hex_list, push_hex_or_null, u64_of, usize_of, HEX_SLOT,
};
use crate::sweep::{run_point, PointOutcome, RunTelemetry, SweepPoint};
use crate::SimError;
use greencell_core::StageTimings;
use greencell_trace::json::{json_escape_into, Value};
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
    let payload = outcome_payload(scenario_fp, &outcome);
    write_sealed_atomic(&path, RESULT_FORMAT, RESULT_VERSION, &payload)
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

fn duration_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn duration_of(v: &Value) -> Result<Duration, String> {
    Ok(Duration::from_nanos(u64_of(v)?))
}

fn watchdog_report_into(out: &mut String, w: &WatchdogReport) {
    out.push('[');
    for x in [
        w.slots as u64,
        w.trailing_slope.to_bits(),
        w.peak_backlog.to_bits(),
        w.final_backlog.to_bits(),
        w.battery_floor_kwh.to_bits(),
        w.divergent_slots as u64,
    ] {
        push_hex(out, x);
        out.push(',');
    }
    out.push_str(if w.stable { "true]" } else { "false]" });
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

fn telemetry_into(out: &mut String, t: &RunTelemetry) {
    let s = &t.stages;
    out.push_str("{\"slots\":");
    push_hex(out, t.slots as u64);
    out.push_str(",\"wall_ns\":");
    push_hex(out, duration_nanos(t.wall));
    out.push_str(",\"slots_per_sec\":");
    push_hex(out, t.slots_per_sec.to_bits());
    out.push_str(",\"stages\":");
    push_hex_list(
        out,
        [
            duration_nanos(s.s1),
            duration_nanos(s.s2),
            duration_nanos(s.s3),
            duration_nanos(s.s4),
            s.slots,
        ],
    );
    for (key, x) in [
        (",\"final_backlog_bs\":", t.final_backlog_bs.to_bits()),
        (",\"final_backlog_users\":", t.final_backlog_users.to_bits()),
        (",\"final_buffer_bs_kwh\":", t.final_buffer_bs_kwh.to_bits()),
        (
            ",\"final_buffer_users_wh\":",
            t.final_buffer_users_wh.to_bits(),
        ),
        (",\"degraded_slots\":", t.degraded_slots),
        (",\"degradation_events\":", t.degradation_events),
    ] {
        out.push_str(key);
        push_hex(out, x);
    }
    out.push_str(",\"watchdog\":");
    watchdog_report_into(out, &t.watchdog);
    out.push('}');
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

/// The payload of point `o`'s result file, computed under scenario
/// fingerprint `fp`, encoded in one pass into one buffer.
fn outcome_payload(fp: u64, o: &PointOutcome) -> String {
    // The telemetry holds 21 values; keys and brackets take under 1 KiB.
    let values = 4 + 21 + metrics_values(&o.metrics);
    let mut out = String::with_capacity(HEX_SLOT * values + o.label.len() + 1024);
    out.push_str("{\"label\":\"");
    json_escape_into(&mut out, &o.label);
    out.push_str("\",\"seed\":");
    push_hex(&mut out, o.seed);
    out.push_str(",\"scenario_fp\":");
    push_hex(&mut out, fp);
    out.push_str(",\"penalty_b\":");
    push_hex(&mut out, o.penalty_b.to_bits());
    out.push_str(",\"relaxed_admitted\":");
    push_hex_or_null(&mut out, o.relaxed_admitted.map(f64::to_bits));
    out.push_str(",\"telemetry\":");
    telemetry_into(&mut out, &o.telemetry);
    out.push_str(",\"metrics\":");
    metrics_into(&mut out, &o.metrics);
    out.push('}');
    out
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The result encoder's bytes are pinned by the checked-in work dir of
    /// the sweep-resume gate: decoding each `golden/resume_v1/results/p*.json`
    /// and encoding it again gives the file's exact bytes.
    #[test]
    fn golden_result_files_reencode_byte_for_byte() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/resume_v1/results");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("golden results dir")
            .map(|e| e.expect("dir entry").path())
            .collect();
        files.sort();
        assert!(files.len() >= 3, "want the checked-in result files");
        for path in files {
            let text = std::fs::read_to_string(&path).expect("read golden result");
            let name = path.display().to_string();
            let value = open(&text, RESULT_FORMAT, RESULT_VERSION, &name).expect("golden opens");
            let (fp, outcome) = entry_of(&value).expect("golden decodes");
            let again = crate::fsio::seal(
                RESULT_FORMAT,
                RESULT_VERSION,
                &outcome_payload(fp, &outcome),
            );
            assert!(again == text, "{name} re-encodes differently");
        }
    }
}
