//! Long-running service mode: observation-driven stepping over
//! stdin/stdout with crash recovery.
//!
//! [`run_serve`] reads **JSON lines** from any [`BufRead`] — one
//! observation per line — steps the controller through
//! [`Simulator::step_with_observation`], and writes JSON event lines
//! (status gauges, watchdog verdicts, snapshot notices, rejections) to
//! any [`Write`]. Malformed lines are rejected with a typed event and
//! counted against a bounded error budget; exhausting the budget stops
//! the session instead of looping on garbage forever.
//!
//! With a state directory configured, the session auto-snapshots every
//! `snapshot_every` slots (rotating `latest.snap` → `prev.snap`) and, on
//! startup, restores from the newest snapshot that validates —
//! quarantining any corrupt one to `<name>.corrupt` and falling back to
//! the previous generation, then to a fresh start. Because snapshots
//! capture the metrics and watchdog too, a killed-and-restarted session
//! fed the same remaining observations reports the same gauges as one
//! that never died.
//!
//! # Line protocol
//!
//! Observation lines (all arrays index nodes/sessions in network order):
//!
//! ```json
//! {"renewable_w":[5.0,0.0,1.2,…],"grid":[true,false,…],"demand":[3,3],
//!  "bands_mhz":[1.0,1.5,…],"price":1.0,"available":[true,…]}
//! ```
//!
//! `renewable_w`, `grid`, and `demand` are required; `bands_mhz`
//! defaults to the scenario's nominal spectrum, `price` to the
//! scenario's tariff for the slot, `available` to all-up. Command lines:
//! `{"cmd":"status"}` (emit a status event now), `{"cmd":"snapshot"}`
//! (snapshot now), `{"cmd":"stop"}` (finish cleanly).

use crate::{Scenario, SimError, SimSnapshot, Simulator};
use greencell_core::SlotObservation;
use greencell_phy::SpectrumState;
use greencell_trace::json::{parse, Value};
use greencell_units::{Bandwidth, Packets, Power};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};

/// File name of the newest snapshot generation in the state directory.
pub const SNAP_LATEST: &str = "latest.snap";
/// File name of the previous snapshot generation.
pub const SNAP_PREV: &str = "prev.snap";

/// Tunables for a [`run_serve`] session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Auto-snapshot period in slots; `0` disables auto-snapshots.
    pub snapshot_every: usize,
    /// Status-event period in slots; `0` emits status only on request.
    pub status_every: usize,
    /// How many malformed input lines the session tolerates before it
    /// stops with [`StopReason::ErrorBudgetExhausted`].
    pub error_budget: usize,
    /// Where snapshots live; `None` disables persistence entirely.
    pub state_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            snapshot_every: 50,
            status_every: 10,
            error_budget: 10,
            state_dir: None,
        }
    }
}

/// Why a serve session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The input stream reached end-of-file.
    InputClosed,
    /// A `{"cmd":"stop"}` line asked for a clean shutdown.
    StopCommand,
    /// More malformed lines arrived than the budget allows.
    ErrorBudgetExhausted,
}

impl StopReason {
    /// The wire name emitted in the final `stop` event.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::InputClosed => "input-closed",
            Self::StopCommand => "stop-command",
            Self::ErrorBudgetExhausted => "error-budget-exhausted",
        }
    }
}

/// What a completed [`run_serve`] session did.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSummary {
    /// Slots stepped by *this* session (excludes restored history).
    pub slots_stepped: usize,
    /// The simulator's total slot count at shutdown (includes restored
    /// history).
    pub total_slots: usize,
    /// Malformed input lines rejected.
    pub rejected_lines: usize,
    /// Snapshots written (auto + on-demand).
    pub snapshots_written: usize,
    /// The snapshot this session restored from, if any.
    pub restored_from: Option<PathBuf>,
    /// Snapshot files quarantined during startup recovery.
    pub quarantined: Vec<PathBuf>,
    /// Why the session ended.
    pub stop_reason: StopReason,
}

fn io_err(e: &std::io::Error) -> SimError {
    SimError::Io(e.to_string())
}

fn emit<W: Write>(out: &mut W, line: &str) -> Result<(), SimError> {
    writeln!(out, "{line}")
        .and_then(|()| out.flush())
        .map_err(|e| io_err(&e))
}

// ---------------------------------------------------------------------------
// Observation-line decoding (human JSON: plain numbers, not hex bits).
// ---------------------------------------------------------------------------

fn num_list(v: &Value, what: &str, len: usize) -> Result<Vec<f64>, String> {
    let a = v
        .as_array()
        .ok_or_else(|| format!("{what} must be an array"))?;
    if a.len() != len {
        return Err(format!("{what} has {} entries, need {len}", a.len()));
    }
    a.iter()
        .map(|x| {
            x.as_f64()
                .filter(|n| n.is_finite())
                .ok_or_else(|| format!("{what} entries must be finite numbers"))
        })
        .collect()
}

fn bool_list(v: &Value, what: &str, len: usize) -> Result<Vec<bool>, String> {
    let a = v
        .as_array()
        .ok_or_else(|| format!("{what} must be an array"))?;
    if a.len() != len {
        return Err(format!("{what} has {} entries, need {len}", a.len()));
    }
    a.iter()
        .map(|x| {
            x.as_bool()
                .ok_or_else(|| format!("{what} entries must be booleans"))
        })
        .collect()
}

/// Decodes one observation line against the session's dimensions.
fn observation_of(
    v: &Value,
    scenario: &Scenario,
    nodes: usize,
    sessions: usize,
    slot_index: usize,
) -> Result<SlotObservation, String> {
    let bands = scenario.band_count();
    let renewable_w = num_list(
        v.get("renewable_w")
            .ok_or_else(|| "missing renewable_w".to_string())?,
        "renewable_w",
        nodes,
    )?;
    if renewable_w.iter().any(|&w| w < 0.0) {
        return Err("renewable_w entries must be non-negative".to_string());
    }
    let grid_connected = bool_list(
        v.get("grid").ok_or_else(|| "missing grid".to_string())?,
        "grid",
        nodes,
    )?;
    let demand = num_list(
        v.get("demand")
            .ok_or_else(|| "missing demand".to_string())?,
        "demand",
        sessions,
    )?;
    let session_demand: Vec<Packets> = demand
        .iter()
        .map(|&d| {
            if d >= 0.0 && d.fract() == 0.0 && d <= 2f64.powi(53) {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Ok(Packets::new(d as u64))
            } else {
                Err("demand entries must be non-negative integers".to_string())
            }
        })
        .collect::<Result<_, _>>()?;
    let bands_mhz = match v.get("bands_mhz") {
        Some(b) => {
            let list = num_list(b, "bands_mhz", bands)?;
            if list.iter().any(|&w| w < 0.0) {
                return Err("bands_mhz entries must be non-negative".to_string());
            }
            list
        }
        // Nominal spectrum: the licensed band plus each harvested band's
        // range midpoint.
        None => std::iter::once(scenario.cellular_band_mhz)
            .chain(
                scenario
                    .random_bands
                    .iter()
                    .map(|&(lo, hi)| (lo + hi) / 2.0),
            )
            .collect(),
    };
    let price_multiplier = match v.get("price") {
        Some(p) => p
            .as_f64()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| "price must be a finite non-negative number".to_string())?,
        None => scenario.pricing.multiplier(slot_index),
    };
    let node_available = match v.get("available") {
        Some(a) => bool_list(a, "available", nodes)?,
        None => Vec::new(),
    };
    Ok(SlotObservation {
        spectrum: SpectrumState::new(
            bands_mhz
                .into_iter()
                .map(Bandwidth::from_megahertz)
                .collect(),
        ),
        renewable: renewable_w
            .into_iter()
            .map(|w| Power::from_watts(w) * scenario.slot)
            .collect(),
        grid_connected,
        session_demand,
        price_multiplier,
        node_available,
    })
}

// ---------------------------------------------------------------------------
// Session.
// ---------------------------------------------------------------------------

/// Restores from the newest valid snapshot generation, quarantining any
/// that fail validation; returns a fresh simulator when none survive.
fn start_simulator(
    scenario: &Scenario,
    state_dir: Option<&Path>,
    restored_from: &mut Option<PathBuf>,
    quarantined: &mut Vec<PathBuf>,
) -> Result<Simulator, SimError> {
    if let Some(dir) = state_dir {
        for name in [SNAP_LATEST, SNAP_PREV] {
            let path = dir.join(name);
            if !path.exists() {
                continue;
            }
            match SimSnapshot::read(&path).and_then(|snap| Simulator::restore(scenario, &snap)) {
                Ok(sim) => {
                    *restored_from = Some(path);
                    return Ok(sim);
                }
                Err(
                    SimError::CorruptSnapshot { .. } | SimError::SnapshotVersionMismatch { .. },
                ) => {
                    // Move it aside so the next startup does not trip
                    // over it again.
                    quarantined.push(
                        crate::fsio::quarantine(&path)
                            .map_err(|e| SimError::Io(format!("{}: {e}", path.display())))?,
                    );
                }
                Err(other) => return Err(other),
            }
        }
    }
    Simulator::new(scenario)
}

fn write_snapshot(sim: &Simulator, dir: &Path) -> Result<PathBuf, SimError> {
    std::fs::create_dir_all(dir)?;
    let latest = dir.join(SNAP_LATEST);
    if latest.exists() {
        std::fs::rename(&latest, dir.join(SNAP_PREV))?;
    }
    sim.snapshot().write(&latest)?;
    Ok(latest)
}

fn status_line(sim: &Simulator) -> String {
    let w = sim.watchdog().report();
    format!(
        "{{\"event\":\"status\",\"slot\":{},\"avg_cost\":{},\"delivered\":{},\"total_backlog\":{},\"peak_backlog\":{},\"battery_floor_kwh\":{},\"trailing_slope\":{},\"divergent_slots\":{},\"stable\":{}}}",
        sim.slots_run(),
        crate::sweep::json_f64(sim.metrics().average_cost()),
        sim.delivered().count(),
        crate::sweep::json_f64(w.final_backlog),
        crate::sweep::json_f64(w.peak_backlog),
        crate::sweep::json_f64(w.battery_floor_kwh),
        crate::sweep::json_f64(w.trailing_slope),
        w.divergent_slots,
        w.stable,
    )
}

/// Runs a serve session: observations in, events out, snapshots on the
/// side. See the module docs for the line protocol.
///
/// # Errors
///
/// Returns [`SimError`] on controller failures, on I/O errors reading
/// input / writing events or snapshots, and on a snapshot that cannot
/// even be quarantined. Malformed *lines* are not errors — they are
/// rejected events counted against the budget.
pub fn run_serve<R: BufRead, W: Write>(
    scenario: &Scenario,
    config: &ServeConfig,
    input: R,
    output: &mut W,
) -> Result<ServeSummary, SimError> {
    let mut restored_from = None;
    let mut quarantined = Vec::new();
    let mut sim = start_simulator(
        scenario,
        config.state_dir.as_deref(),
        &mut restored_from,
        &mut quarantined,
    )?;
    for q in &quarantined {
        emit(
            output,
            &format!(
                "{{\"event\":\"quarantine\",\"path\":\"{}\"}}",
                crate::sweep::json_escape(&q.display().to_string())
            ),
        )?;
    }
    emit(
        output,
        &format!(
            "{{\"event\":\"start\",\"slot\":{},\"restored\":{}}}",
            sim.slots_run(),
            restored_from.is_some(),
        ),
    )?;

    let nodes = sim.controller().node_count();
    let sessions = sim.controller().session_count();
    let mut summary = ServeSummary {
        slots_stepped: 0,
        total_slots: sim.slots_run(),
        rejected_lines: 0,
        snapshots_written: 0,
        restored_from,
        quarantined,
        stop_reason: StopReason::InputClosed,
    };

    let snapshot_now = |sim: &Simulator,
                        out: &mut W,
                        summary: &mut ServeSummary|
     -> Result<(), SimError> {
        let Some(dir) = &config.state_dir else {
            return emit(
                out,
                &format!(
                    "{{\"event\":\"snapshot\",\"slot\":{},\"path\":null,\"error\":\"no state dir configured\"}}",
                    sim.slots_run()
                ),
            );
        };
        let path = write_snapshot(sim, dir)?;
        summary.snapshots_written += 1;
        emit(
            out,
            &format!(
                "{{\"event\":\"snapshot\",\"slot\":{},\"path\":\"{}\"}}",
                sim.slots_run(),
                crate::sweep::json_escape(&path.display().to_string())
            ),
        )
    };

    'lines: for (line_no, line) in input.lines().enumerate() {
        let line = line.map_err(|e| io_err(&e))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let reject = |reason: &str, out: &mut W, summary: &mut ServeSummary| {
            summary.rejected_lines += 1;
            emit(
                out,
                &format!(
                    "{{\"event\":\"reject\",\"line\":{},\"reason\":\"{}\"}}",
                    line_no + 1,
                    crate::sweep::json_escape(reason)
                ),
            )
        };
        let value = match parse(trimmed) {
            Ok(v) => v,
            Err(e) => {
                reject(&format!("unparseable JSON: {e}"), output, &mut summary)?;
                if summary.rejected_lines > config.error_budget {
                    summary.stop_reason = StopReason::ErrorBudgetExhausted;
                    break 'lines;
                }
                continue;
            }
        };
        if let Some(cmd) = value.get("cmd") {
            match cmd.as_str() {
                Some("stop") => {
                    summary.stop_reason = StopReason::StopCommand;
                    break 'lines;
                }
                Some("status") => emit(output, &status_line(&sim))?,
                Some("snapshot") => snapshot_now(&sim, output, &mut summary)?,
                _ => {
                    reject("unknown cmd", output, &mut summary)?;
                    if summary.rejected_lines > config.error_budget {
                        summary.stop_reason = StopReason::ErrorBudgetExhausted;
                        break 'lines;
                    }
                }
            }
            continue;
        }
        match observation_of(&value, scenario, nodes, sessions, sim.slots_run()) {
            Ok(obs) => {
                sim.step_with_observation(&obs)?;
                summary.slots_stepped += 1;
                if config.status_every > 0 && sim.slots_run() % config.status_every == 0 {
                    emit(output, &status_line(&sim))?;
                }
                if config.snapshot_every > 0
                    && sim.slots_run() % config.snapshot_every == 0
                    && config.state_dir.is_some()
                {
                    snapshot_now(&sim, output, &mut summary)?;
                }
            }
            Err(reason) => {
                reject(&reason, output, &mut summary)?;
                if summary.rejected_lines > config.error_budget {
                    summary.stop_reason = StopReason::ErrorBudgetExhausted;
                    break 'lines;
                }
            }
        }
    }

    // A final snapshot on any exit path, so a clean stop never loses the
    // tail between auto-snapshots.
    if config.state_dir.is_some() && summary.slots_stepped > 0 {
        snapshot_now(&sim, output, &mut summary)?;
    }
    summary.total_slots = sim.slots_run();
    emit(output, &status_line(&sim))?;
    emit(
        output,
        &format!(
            "{{\"event\":\"stop\",\"slot\":{},\"reason\":\"{}\"}}",
            sim.slots_run(),
            summary.stop_reason.as_str()
        ),
    )?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario() -> Scenario {
        Scenario::tiny(71)
    }

    fn dims(s: &Scenario) -> (usize, usize) {
        let sim = Simulator::new(s).expect("scenario builds");
        (
            sim.controller().node_count(),
            sim.controller().session_count(),
        )
    }

    /// A deterministic, slightly varying observation line.
    fn obs_line(nodes: usize, sessions: usize, t: usize) -> String {
        let renew: Vec<String> = (0..nodes).map(|i| format!("{}.0", (i + t) % 4)).collect();
        let grid: Vec<&str> = (0..nodes)
            .map(|i| if (i + t) % 3 == 0 { "false" } else { "true" })
            .collect();
        let demand: Vec<String> = (0..sessions)
            .map(|s| format!("{}", 1 + (s + t) % 3))
            .collect();
        format!(
            "{{\"renewable_w\":[{}],\"grid\":[{}],\"demand\":[{}]}}",
            renew.join(","),
            grid.join(","),
            demand.join(",")
        )
    }

    fn serve(s: &Scenario, cfg: &ServeConfig, input: &str) -> (ServeSummary, String) {
        let mut out = Vec::new();
        let summary =
            run_serve(s, cfg, input.as_bytes(), &mut out).expect("serve session succeeds");
        (summary, String::from_utf8(out).expect("utf8 events"))
    }

    fn last_status(events: &str) -> &str {
        events
            .lines()
            .rev()
            .find(|l| l.contains("\"event\":\"status\""))
            .expect("a status event")
    }

    #[test]
    fn steps_observations_and_reports_status() {
        let s = scenario();
        let (nodes, sessions) = dims(&s);
        let input: String = (0..6)
            .map(|t| obs_line(nodes, sessions, t) + "\n")
            .collect::<String>()
            + "{\"cmd\":\"status\"}\n{\"cmd\":\"stop\"}\nignored after stop\n";
        let cfg = ServeConfig {
            status_every: 2,
            ..ServeConfig::default()
        };
        let (summary, events) = serve(&s, &cfg, &input);
        assert_eq!(summary.slots_stepped, 6);
        assert_eq!(summary.stop_reason, StopReason::StopCommand);
        assert_eq!(summary.rejected_lines, 0);
        assert!(events.contains("\"event\":\"start\""));
        assert!(events.contains("\"event\":\"status\""));
        assert!(events.trim_end().ends_with("\"reason\":\"stop-command\"}"));
    }

    #[test]
    fn malformed_lines_burn_the_budget_then_stop() {
        let s = scenario();
        let (nodes, sessions) = dims(&s);
        let cfg = ServeConfig {
            error_budget: 2,
            state_dir: None,
            ..ServeConfig::default()
        };
        // Two bad lines fit the budget; the session keeps stepping.
        let input = format!(
            "not json\n{}\n{{\"renewable_w\":[1.0],\"grid\":[],\"demand\":[]}}\n{}\n",
            obs_line(nodes, sessions, 0),
            obs_line(nodes, sessions, 1)
        );
        let (summary, events) = serve(&s, &cfg, &input);
        assert_eq!(summary.rejected_lines, 2);
        assert_eq!(summary.slots_stepped, 2);
        assert_eq!(summary.stop_reason, StopReason::InputClosed);
        assert!(events.contains("\"event\":\"reject\""));

        // A third bad line exhausts it; later observations never run.
        let input = format!("a\nb\nc\n{}\n", obs_line(nodes, sessions, 0));
        let (summary, _) = serve(&s, &cfg, &input);
        assert_eq!(summary.stop_reason, StopReason::ErrorBudgetExhausted);
        assert_eq!(summary.slots_stepped, 0);
    }

    #[test]
    fn restart_restores_and_matches_an_uninterrupted_session() {
        let s = scenario();
        let (nodes, sessions) = dims(&s);
        let dir = std::env::temp_dir().join(format!("greencell-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lines: Vec<String> = (0..8).map(|t| obs_line(nodes, sessions, t)).collect();

        // Uninterrupted reference: all 8 observations, no persistence.
        let cfg_ref = ServeConfig {
            status_every: 1,
            state_dir: None,
            ..ServeConfig::default()
        };
        let (_, reference) = serve(&s, &cfg_ref, &(lines.join("\n") + "\n"));

        // Killed after 4, restarted for the remaining 4.
        let cfg = ServeConfig {
            status_every: 1,
            snapshot_every: 2,
            error_budget: 0,
            state_dir: Some(dir.clone()),
        };
        let (first, _) = serve(&s, &cfg, &(lines[..4].join("\n") + "\n"));
        assert_eq!(first.slots_stepped, 4);
        assert!(first.snapshots_written >= 2);
        assert!(first.restored_from.is_none());
        let (second, resumed_events) = serve(&s, &cfg, &(lines[4..].join("\n") + "\n"));
        assert_eq!(second.restored_from, Some(dir.join(SNAP_LATEST)));
        assert_eq!(second.total_slots, 8);

        // The resumed session's final gauges equal the uninterrupted
        // run's, byte for byte — snapshots carry metrics and watchdog.
        assert_eq!(last_status(&resumed_events), last_status(&reference));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn corrupt_latest_snapshot_falls_back_to_prev() {
        let s = scenario();
        let (nodes, sessions) = dims(&s);
        let dir =
            std::env::temp_dir().join(format!("greencell-serve-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServeConfig {
            snapshot_every: 1,
            state_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let input: String = (0..3)
            .map(|t| obs_line(nodes, sessions, t) + "\n")
            .collect();
        let (first, _) = serve(&s, &cfg, &input);
        assert!(first.snapshots_written >= 3);

        // Tear the newest generation; startup must quarantine it and
        // restore the previous one.
        let latest = dir.join(SNAP_LATEST);
        let text = std::fs::read_to_string(&latest).expect("read latest");
        std::fs::write(&latest, &text[..text.len() / 2]).expect("tear latest");
        let (second, events) = serve(&s, &cfg, "{\"cmd\":\"stop\"}\n");
        assert_eq!(second.restored_from, Some(dir.join(SNAP_PREV)));
        assert_eq!(second.quarantined.len(), 1);
        assert!(events.contains("\"event\":\"quarantine\""));
        assert!(dir.join(format!("{SNAP_LATEST}.corrupt")).exists());
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
