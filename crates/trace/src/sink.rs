//! Trace sinks: where instrumented code writes its events.
//!
//! The design is lock-free-per-worker: a sink is owned by exactly one
//! thread (each sweep thread builds its own [`RingSink`] per point), so
//! recording is a plain `Vec` write with no atomics or locks. Merging
//! across workers happens after the fact, in deterministic point order.

use crate::TraceEvent;
use std::time::Instant;

/// Receives [`TraceEvent`]s from instrumented code.
///
/// The hot path is written against `&mut dyn Sink`, so a disabled run
/// pays one virtual [`Sink::enabled`] check per instrumentation site —
/// [`NoopSink`] keeps everything else compiled out of the loop.
pub trait Sink {
    /// Whether events will be kept. Instrumented code should skip any
    /// non-trivial payload construction when this is `false`.
    fn enabled(&self) -> bool;

    /// Records one event. May drop (ring overwrite) under pressure.
    fn record(&mut self, event: TraceEvent);

    /// Nanoseconds since this sink's origin — the span clock. A sink
    /// without a clock (the no-op sink) returns 0.
    fn now_nanos(&self) -> u64 {
        0
    }
}

/// The disabled sink: one branch, no writes, no clock reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: TraceEvent) {}
}

/// A preallocated single-owner ring buffer of trace events.
///
/// Capacity is fixed at construction; once full, the oldest events are
/// overwritten and counted in [`RingSink::dropped`]. [`RingSink::events`]
/// returns the surviving events oldest-first.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Next write position when the buffer is full (ring head).
    head: usize,
    dropped: u64,
    origin: Instant,
}

impl RingSink {
    /// Default event capacity: roomy enough for a paper-scenario run
    /// (~20 events/slot × 10 000 slots) without reallocation.
    pub const DEFAULT_CAPACITY: usize = 200_000;

    /// Creates a sink holding at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
            origin: Instant::now(),
        }
    }

    /// Events currently held, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Consumes the sink, returning its events oldest first.
    #[must_use]
    pub fn into_events(mut self) -> Vec<TraceEvent> {
        self.buf.rotate_left(self.head);
        self.buf
    }

    /// Events overwritten because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Default for RingSink {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl Sink for RingSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, event: TraceEvent) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn now_nanos(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(slot: u64) -> TraceEvent {
        TraceEvent::Mark { slot, name: "m" }
    }

    #[test]
    fn noop_sink_is_disabled_and_clockless() {
        let mut s = NoopSink;
        assert!(!s.enabled());
        assert_eq!(s.now_nanos(), 0);
        s.record(mark(1)); // must not panic
    }

    #[test]
    fn ring_keeps_newest_events_oldest_first() {
        let mut s = RingSink::new(3);
        for slot in 0..5 {
            s.record(mark(slot));
        }
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.events(), [mark(2), mark(3), mark(4)]);
        assert_eq!(s.into_events(), [mark(2), mark(3), mark(4)]);
    }

    #[test]
    fn ring_below_capacity_keeps_everything_in_order() {
        let mut s = RingSink::new(10);
        for slot in 0..4 {
            s.record(mark(slot));
        }
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.events(), [mark(0), mark(1), mark(2), mark(3)]);
    }

    #[test]
    fn ring_clock_is_monotone() {
        let s = RingSink::new(1);
        let a = s.now_nanos();
        let b = s.now_nanos();
        assert!(b >= a);
    }
}
