//! Structured trace events and the pipeline stage vocabulary.

use std::fmt;
use std::time::Duration;

/// A stage of the per-slot control pipeline, used to label spans.
///
/// `S1`–`S4` are the paper's four subproblems (Lemma 1); [`Stage::Advance`]
/// covers everything after S4, including the state update that applies the
/// chosen decisions to queues and batteries; [`Stage::Slot`] spans one
/// whole `Controller::step`.
///
/// S1–S3 run in one pass over the controller's parts, each part timing its
/// own stages. Their spans are laid end to end from the start of the pass,
/// each as long as its stage's part times summed: wall-clock at one worker,
/// summed part time at more than one, where they can run past the pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// S1 — link scheduling (`Ψ̂₁`), including the BS sleep machine;
    /// summed part time at more than one worker.
    S1,
    /// S2 — source selection and admission control (`Ψ̂₂`); summed part
    /// time at more than one worker.
    S2,
    /// S3 — routing (`Ψ̂₃`); summed part time at more than one worker.
    S3,
    /// S4 — energy management (`Ψ̂₄`), including degraded-mode retries.
    S4,
    /// Everything after S4, once the decisions are fixed: the Ψ̂₁–Ψ̂₃
    /// diagnostics, the battery and queue state advance, and the Lyapunov
    /// values before and after it — so no work after S4 falls outside a
    /// stage span.
    Advance,
    /// The whole controller step, S1 through state advance.
    Slot,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::S1,
        Stage::S2,
        Stage::S3,
        Stage::S4,
        Stage::Advance,
        Stage::Slot,
    ];

    /// The stable display name used in every exporter.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::S1 => "s1_schedule",
            Stage::S2 => "s2_admission",
            Stage::S3 => "s3_routing",
            Stage::S4 => "s4_energy",
            Stage::Advance => "state_advance",
            Stage::Slot => "slot",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured trace event.
///
/// The determinism contract: [`TraceEvent::Span`] carries wall-clock
/// timings and belongs to the *profile* section of any export —
/// inherently nondeterministic. [`TraceEvent::Counter`],
/// [`TraceEvent::Gauge`], and [`TraceEvent::Mark`] carry only slot
/// indices and decision-derived values, so a deterministic run emits a
/// byte-identical sequence of them regardless of worker count or
/// scheduling.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A completed timed span (profile section, wall-clock).
    Span {
        /// Slot index the span belongs to.
        slot: u64,
        /// Pipeline stage.
        stage: Stage,
        /// Start time in nanoseconds since the sink's origin.
        ts_nanos: u64,
        /// Span duration in nanoseconds.
        dur_nanos: u64,
    },
    /// A monotonic per-slot count (deterministic section).
    Counter {
        /// Slot index.
        slot: u64,
        /// Stable metric name.
        name: &'static str,
        /// The count.
        value: u64,
    },
    /// A sampled level attributed to a slot (deterministic section).
    Gauge {
        /// Slot index.
        slot: u64,
        /// Stable metric name.
        name: &'static str,
        /// The sampled value.
        value: f64,
    },
    /// A point event marking that something happened in a slot
    /// (deterministic section).
    Mark {
        /// Slot index.
        slot: u64,
        /// Stable event name.
        name: &'static str,
    },
}

impl TraceEvent {
    /// Builds a [`TraceEvent::Span`] from an end timestamp and a
    /// duration (the caller typically reads the sink clock *after* the
    /// stage finished).
    #[must_use]
    pub fn span_ended(slot: u64, stage: Stage, end_nanos: u64, dur: Duration) -> Self {
        let dur_nanos = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        TraceEvent::Span {
            slot,
            stage,
            ts_nanos: end_nanos.saturating_sub(dur_nanos),
            dur_nanos,
        }
    }

    /// Whether the event belongs to the deterministic section of an
    /// export (everything except wall-clock spans).
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, TraceEvent::Span { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_ended_back_computes_start() {
        let e = TraceEvent::span_ended(3, Stage::S2, 1_000, Duration::from_nanos(400));
        assert_eq!(
            e,
            TraceEvent::Span {
                slot: 3,
                stage: Stage::S2,
                ts_nanos: 600,
                dur_nanos: 400
            }
        );
        assert!(!e.is_deterministic());
    }

    #[test]
    fn span_ended_saturates_at_zero() {
        let e = TraceEvent::span_ended(0, Stage::S1, 10, Duration::from_nanos(400));
        match e {
            TraceEvent::Span { ts_nanos, .. } => assert_eq!(ts_nanos, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deterministic_partition() {
        assert!(TraceEvent::Counter {
            slot: 0,
            name: "x",
            value: 1
        }
        .is_deterministic());
        assert!(TraceEvent::Gauge {
            slot: 0,
            name: "x",
            value: 1.0
        }
        .is_deterministic());
        assert!(TraceEvent::Mark { slot: 0, name: "x" }.is_deterministic());
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            [
                "s1_schedule",
                "s2_admission",
                "s3_routing",
                "s4_energy",
                "state_advance",
                "slot"
            ]
        );
    }
}
