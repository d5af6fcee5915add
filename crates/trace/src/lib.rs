//! `greencell-trace` — structured per-slot tracing, fixed-bucket
//! log-scale histograms, and profiling export for the whole control
//! pipeline.
//!
//! The observability backbone of the workspace, std-only like everything
//! else:
//!
//! * [`Sink`] / [`NoopSink`] / [`RingSink`] — instrumented code writes
//!   [`TraceEvent`]s through `&mut dyn Sink`; the no-op sink keeps the
//!   hot sweep path at one branch per site, the ring sink preallocates
//!   a fixed-capacity buffer owned by exactly one worker (lock-free per
//!   worker — merging happens afterwards, in deterministic point order).
//! * [`TraceEvent`] — slot-scoped spans for the S1–S4 pipeline stages
//!   plus counters, gauges, and point marks. Spans carry wall-clock and
//!   belong to the nondeterministic *profile* section; everything else
//!   carries only slot indices and decision-derived values, so the
//!   deterministic section is byte-identical at any worker count.
//! * [`LogHistogram`] — fixed-memory log-scale histograms (p50/p90/p99/
//!   max) for stage latencies, drift/penalty terms, backlogs, and
//!   battery levels.
//! * [`TraceBundle`] — exporters: chrome://tracing JSON (loadable in
//!   Perfetto), the deterministic event dump, and a human-readable
//!   summary table.
//! * [`json`] — a dependency-free JSON parser used to validate exported
//!   artifacts and round-trip telemetry in tests.
//!
//! # Examples
//!
//! ```
//! use greencell_trace::{RingSink, Sink, Stage, TraceBundle, TraceEvent, Track};
//!
//! let mut sink = RingSink::new(1024);
//! let t0 = sink.now_nanos();
//! // ... do the work of slot 0's S1 stage ...
//! sink.record(TraceEvent::Span { slot: 0, stage: Stage::S1,
//!                                ts_nanos: t0, dur_nanos: 1500 });
//! sink.record(TraceEvent::Gauge { slot: 0, name: "cost", value: 0.37 });
//!
//! let bundle = TraceBundle {
//!     tracks: vec![Track { label: "run".into(), events: sink.into_events(), dropped: 0 }],
//! };
//! let chrome = bundle.chrome_trace_json();  // open in Perfetto
//! assert!(greencell_trace::json::parse(&chrome).is_ok());
//! println!("{}", bundle.summary().render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod histogram;
pub mod json;
mod sink;

pub use event::{Stage, TraceEvent};
pub use export::{names, TraceBundle, TraceSummary, Track};
pub use histogram::LogHistogram;
pub use sink::{NoopSink, RingSink, Sink};
