//! Exporters: chrome://tracing JSON (Perfetto-loadable), a byte-stable
//! deterministic event dump, and a human-readable histogram summary.

use crate::json::{json_escape, json_f64};
use crate::{LogHistogram, Stage, TraceEvent};
use std::collections::BTreeMap;

/// Well-known gauge/counter names shared by the instrumented crates, the
/// summary table and the simulator's Fig. 2 time-series CSV header, so
/// none of them drifts from the emitters.
pub mod names {
    /// Per-slot provider energy cost `f(P(t))` (Fig. 2(a)'s input).
    pub const COST: &str = "cost";
    /// Per-slot total grid draw in kWh.
    pub const GRID_KWH: &str = "grid_kwh";
    /// Total BS data backlog in packets (Fig. 2(b)).
    pub const BACKLOG_BS: &str = "backlog_bs";
    /// Total user data backlog in packets (Fig. 2(c)).
    pub const BACKLOG_USERS: &str = "backlog_users";
    /// Total BS battery level in kWh (Fig. 2(d)).
    pub const BUFFER_BS_KWH: &str = "buffer_bs_kwh";
    /// Total user battery level in Wh (Fig. 2(e)).
    pub const BUFFER_USERS_WH: &str = "buffer_users_wh";
    /// One-slot Lyapunov drift `L(Θ(t+1)) − L(Θ(t))`.
    pub const DRIFT: &str = "drift";
    /// The penalty term `V·(f(P(t)) − λ·Σ k_s(t))`.
    pub const PENALTY: &str = "penalty";
    /// The watchdog's trailing OLS backlog slope (packets/slot).
    pub const WATCHDOG_SLOPE: &str = "watchdog_slope";
    /// Base stations currently asleep by choice (`bs_sleep` policy runs
    /// only — default runs never emit it).
    pub const ASLEEP_BS: &str = "asleep_bs";
    /// kWh delivered by inter-BS energy transfers this slot
    /// (`energy_coop` policy runs only).
    pub const TRANSFER_KWH: &str = "transfer_kwh";
}

/// One worker-merged event stream, e.g. one sweep point or one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    /// Display label (point label, scenario name, …).
    pub label: String,
    /// Events in emission order.
    pub events: Vec<TraceEvent>,
    /// Events the sink overwrote under pressure (ring wrap).
    pub dropped: u64,
}

/// A set of tracks merged in a deterministic order (sweep point order),
/// ready for export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBundle {
    /// The tracks, in merge order.
    pub tracks: Vec<Track>,
}

impl TraceBundle {
    /// The chrome://tracing JSON export (load in Perfetto or
    /// `chrome://tracing`).
    ///
    /// Spans land on `pid 0` with one `tid` per track; deterministic
    /// per-slot gauges/counters land on `pid 1` as counter tracks whose
    /// timestamp axis is the *slot index* in microseconds (the profile
    /// section and the per-slot section deliberately do not share a
    /// clock).
    #[must_use]
    pub fn chrome_trace_json(&self) -> String {
        let mut ev: Vec<String> = Vec::new();
        ev.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\
             \"args\":{\"name\":\"greencell pipeline (wall clock)\"}}"
                .to_string(),
        );
        ev.push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
             \"args\":{\"name\":\"greencell per-slot series (ts = slot index)\"}}"
                .to_string(),
        );
        for (tid, track) in self.tracks.iter().enumerate() {
            ev.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json_escape(&track.label)
            ));
            for e in &track.events {
                match *e {
                    TraceEvent::Span {
                        slot,
                        stage,
                        ts_nanos,
                        dur_nanos,
                    } => {
                        #[allow(clippy::cast_precision_loss)]
                        let (ts, dur) = (ts_nanos as f64 / 1e3, dur_nanos as f64 / 1e3);
                        ev.push(format!(
                            "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\
                             \"ts\":{ts},\"dur\":{dur},\"pid\":0,\"tid\":{tid},\
                             \"args\":{{\"slot\":{slot}}}}}",
                            stage.name()
                        ));
                    }
                    TraceEvent::Counter { slot, name, value } => {
                        ev.push(format!(
                            "{{\"name\":\"{}/{name}\",\"ph\":\"C\",\"ts\":{slot},\
                             \"pid\":1,\"args\":{{\"value\":{value}}}}}",
                            json_escape(&track.label)
                        ));
                    }
                    TraceEvent::Gauge { slot, name, value } => {
                        ev.push(format!(
                            "{{\"name\":\"{}/{name}\",\"ph\":\"C\",\"ts\":{slot},\
                             \"pid\":1,\"args\":{{\"value\":{}}}}}",
                            json_escape(&track.label),
                            json_f64(value)
                        ));
                    }
                    TraceEvent::Mark { slot, name } => {
                        ev.push(format!(
                            "{{\"name\":\"{}/{name}\",\"ph\":\"i\",\"ts\":{slot},\
                             \"pid\":1,\"s\":\"p\"}}",
                            json_escape(&track.label)
                        ));
                    }
                }
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&ev.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    /// The deterministic section: every counter/gauge/mark event, in
    /// track order then emission order, with spans excluded. For a
    /// deterministic run this string is byte-identical at any worker
    /// count.
    #[must_use]
    pub fn deterministic_json(&self) -> String {
        let mut out = String::from("{\n  \"tracks\": [\n");
        for (i, track) in self.tracks.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"events\": [\n",
                json_escape(&track.label)
            ));
            let det: Vec<&TraceEvent> = track
                .events
                .iter()
                .filter(|e| e.is_deterministic())
                .collect();
            for (j, e) in det.iter().enumerate() {
                let line = match **e {
                    TraceEvent::Counter { slot, name, value } => format!(
                        "      {{\"type\": \"counter\", \"slot\": {slot}, \
                         \"name\": \"{name}\", \"value\": {value}}}"
                    ),
                    TraceEvent::Gauge { slot, name, value } => format!(
                        "      {{\"type\": \"gauge\", \"slot\": {slot}, \
                         \"name\": \"{name}\", \"value\": {}}}",
                        json_f64(value)
                    ),
                    TraceEvent::Mark { slot, name } => format!(
                        "      {{\"type\": \"mark\", \"slot\": {slot}, \"name\": \"{name}\"}}"
                    ),
                    TraceEvent::Span { .. } => unreachable!("spans filtered out"),
                };
                out.push_str(&line);
                out.push_str(if j + 1 < det.len() { ",\n" } else { "\n" });
            }
            out.push_str("    ]}");
            out.push_str(if i + 1 < self.tracks.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Builds the histogram summary over every track.
    #[must_use]
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary::default();
        for track in &self.tracks {
            s.dropped += track.dropped;
            for e in &track.events {
                match *e {
                    TraceEvent::Span {
                        stage, dur_nanos, ..
                    } => {
                        s.stages.entry(stage).or_default().record_u64(dur_nanos);
                    }
                    TraceEvent::Gauge { name, value, .. } => {
                        s.gauges.entry(name).or_default().record(value);
                    }
                    TraceEvent::Counter { name, value, .. } => {
                        let e = s.counters.entry(name).or_insert((0, 0));
                        e.0 += 1;
                        e.1 += value;
                    }
                    TraceEvent::Mark { name, .. } => {
                        *s.marks.entry(name).or_insert(0) += 1;
                    }
                }
            }
        }
        s
    }
}

/// Histograms and totals aggregated from a [`TraceBundle`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSummary {
    /// Stage-latency histograms (nanoseconds), keyed by pipeline stage.
    pub stages: BTreeMap<Stage, LogHistogram>,
    /// Value histograms for every gauge name seen.
    pub gauges: BTreeMap<&'static str, LogHistogram>,
    /// `(samples, total)` for every counter name seen.
    pub counters: BTreeMap<&'static str, (u64, u64)>,
    /// Occurrences of every mark name seen.
    pub marks: BTreeMap<&'static str, u64>,
    /// Events lost to ring-buffer overwrites across all tracks.
    pub dropped: u64,
}

impl TraceSummary {
    /// The human-readable summary table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let header = format!(
            "{:<24} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
            "stage latency (µs)", "count", "p50", "p90", "p99", "max"
        );
        out.push_str(&header);
        for stage in Stage::ALL {
            if let Some(h) = self.stages.get(&stage) {
                out.push_str(&format!(
                    "  {:<22} {:>8} {:>12.3} {:>12.3} {:>12.3} {:>12.3}\n",
                    stage.name(),
                    h.count(),
                    h.p50() / 1e3,
                    h.p90() / 1e3,
                    h.p99() / 1e3,
                    h.max() / 1e3,
                ));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!(
                "{:<24} {:>8} {:>12} {:>12} {:>12} {:>12}\n",
                "per-slot gauge", "count", "p50", "p90", "p99", "max"
            ));
            for (name, h) in &self.gauges {
                out.push_str(&format!(
                    "  {:<22} {:>8} {:>12.4e} {:>12.4e} {:>12.4e} {:>12.4e}\n",
                    name,
                    h.count(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.max(),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters (samples, total):\n");
            for (name, (samples, total)) in &self.counters {
                out.push_str(&format!("  {name:<22} {samples:>8} {total:>12}\n"));
            }
        }
        if !self.marks.is_empty() {
            out.push_str("marks:\n");
            for (name, n) in &self.marks {
                out.push_str(&format!("  {name:<22} {n:>8}\n"));
            }
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "WARNING: {} events overwritten (ring full) — raise the sink capacity\n",
                self.dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn track(label: &str, events: Vec<TraceEvent>) -> Track {
        Track {
            label: label.into(),
            events,
            dropped: 0,
        }
    }

    fn sample_bundle() -> TraceBundle {
        let mut b = TraceBundle::default();
        b.tracks.push(track(
            "p0",
            vec![
                TraceEvent::Span {
                    slot: 0,
                    stage: Stage::S1,
                    ts_nanos: 1_000,
                    dur_nanos: 500,
                },
                TraceEvent::Gauge {
                    slot: 0,
                    name: names::COST,
                    value: 1.25,
                },
                TraceEvent::Gauge {
                    slot: 0,
                    name: names::BACKLOG_BS,
                    value: 10.0,
                },
                TraceEvent::Counter {
                    slot: 0,
                    name: "admitted",
                    value: 7,
                },
                TraceEvent::Mark {
                    slot: 0,
                    name: "fault_active",
                },
            ],
        ));
        b.tracks.push(track(
            "p,1",
            vec![TraceEvent::Gauge {
                slot: 3,
                name: names::COST,
                value: 2.5,
            }],
        ));
        b
    }

    #[test]
    fn chrome_trace_parses_and_carries_spans_and_counters() {
        let b = sample_bundle();
        let doc = json::parse(&b.chrome_trace_json()).expect("chrome trace must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .unwrap();
        // 2 process metadata + 2 thread metadata + 5 + 1 events.
        assert_eq!(events.len(), 10);
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(json::Value::as_str) == Some("X"))
            .unwrap();
        assert_eq!(
            span.get("name").and_then(json::Value::as_str),
            Some("s1_schedule")
        );
        assert_eq!(span.get("dur").and_then(json::Value::as_f64), Some(0.5));
        let counter = events
            .iter()
            .find(|e| e.get("name").and_then(json::Value::as_str) == Some("p0/cost"))
            .unwrap();
        assert_eq!(counter.get("ph").and_then(json::Value::as_str), Some("C"));
    }

    #[test]
    fn deterministic_json_excludes_spans_and_parses() {
        let b = sample_bundle();
        let s = b.deterministic_json();
        assert!(!s.contains("ts_nanos") && !s.contains("\"span\""));
        let doc = json::parse(&s).unwrap();
        let tracks = doc.get("tracks").and_then(json::Value::as_array).unwrap();
        assert_eq!(tracks.len(), 2);
        let ev0 = tracks[0]
            .get("events")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(ev0.len(), 4); // span filtered from the 5
        assert_eq!(
            ev0[0].get("type").and_then(json::Value::as_str),
            Some("gauge")
        );
    }

    #[test]
    fn summary_aggregates_histograms_and_totals() {
        let b = sample_bundle();
        let s = b.summary();
        assert_eq!(s.stages[&Stage::S1].count(), 1);
        assert_eq!(s.stages.get(&Stage::S2), None);
        assert_eq!(s.gauges[names::COST].count(), 2);
        assert_eq!(s.counters["admitted"], (1, 7));
        assert_eq!(s.marks["fault_active"], 1);
        let table = s.render();
        assert!(table.contains("s1_schedule"), "{table}");
        assert!(table.contains("fault_active"), "{table}");
        assert!(!table.contains("WARNING"), "{table}");
    }

    #[test]
    fn merged_output_is_stable_under_worker_count_simulation() {
        // The same per-track event vectors merged in the same order must
        // serialize identically — the byte-identity contract the sweep
        // relies on.
        let a = sample_bundle().deterministic_json();
        let b = sample_bundle().deterministic_json();
        assert_eq!(a, b);
    }
}
