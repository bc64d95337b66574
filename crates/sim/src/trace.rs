//! Ring-buffered structured tracing on the logical simulation clock.
//!
//! Every layer of the simulator (engine, journal manager, SSD command
//! queue, ISCE, FTL, flash array) can emit [`TraceEvent`]s through a
//! shared [`Tracer`] handle. The design goals, in order:
//!
//! 1. **Zero overhead when disabled.** A disabled tracer is a single
//!    `Option` branch; the event-construction closure passed to
//!    [`Tracer::emit`] is never invoked, so no formatting, allocation
//!    or locking happens on the hot path.
//! 2. **Bounded memory when enabled.** Events land in a fixed-capacity
//!    ring ([`TraceRing`]) that drops the *oldest* events on overflow
//!    and counts how many were dropped, so a long run cannot exhaust
//!    memory and the tail of the trace (usually the interesting part)
//!    is preserved.
//! 3. **Deterministic ordering.** Events carry both the logical
//!    [`SimTime`] at which they occurred and a monotonically increasing
//!    sequence number assigned at emission, so two events at the same
//!    simulated instant still have a total order that is stable across
//!    runs with the same seed.
//!
//! Events are structured, not stringly: an event is a layer, a static
//! operation name, and up to [`MAX_TRACE_FIELDS`] named integer fields.
//! [`TraceEvent::to_json_line`] renders one event as a self-contained
//! JSON object for the `checkin trace` CLI exporter.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::time::SimTime;

/// Maximum number of named integer fields a single event can carry.
pub const MAX_TRACE_FIELDS: usize = 4;

/// The layer of the simulated stack that emitted an event.
///
/// The variants mirror the write path top to bottom; the `label` is the
/// string used in JSON output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceLayer {
    /// KV engine (client-visible operations).
    Engine,
    /// Journal manager / JMT bookkeeping.
    Journal,
    /// SSD host command queue.
    Queue,
    /// In-storage checkpointing engine (remap/copy planning + execution).
    Isce,
    /// Flash translation layer (write buffer, page-out, GC).
    Ftl,
    /// Raw flash array (program/read/erase).
    Flash,
}

impl TraceLayer {
    /// Stable lowercase label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            TraceLayer::Engine => "engine",
            TraceLayer::Journal => "journal",
            TraceLayer::Queue => "queue",
            TraceLayer::Isce => "isce",
            TraceLayer::Ftl => "ftl",
            TraceLayer::Flash => "flash",
        }
    }

    /// All layers, top of the stack first.
    pub fn all() -> [TraceLayer; 6] {
        [
            TraceLayer::Engine,
            TraceLayer::Journal,
            TraceLayer::Queue,
            TraceLayer::Isce,
            TraceLayer::Ftl,
            TraceLayer::Flash,
        ]
    }
}

/// One structured trace event.
///
/// Construct with [`TraceEvent::new`], attach fields with
/// [`TraceEvent::with`] and an optional string tag with
/// [`TraceEvent::tag`]. The sequence number is assigned by the ring at
/// emission time, not by the constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Emission order, assigned by the ring (0-based, monotone).
    pub seq: u64,
    /// Logical simulation time at which the event occurred.
    pub at: SimTime,
    /// Stack layer that emitted the event.
    pub layer: TraceLayer,
    /// Static operation name, e.g. `"update"`, `"gc"`, `"program"`.
    pub op: &'static str,
    /// Optional static annotation, e.g. a GC trigger reason. Empty when
    /// unused.
    pub note: &'static str,
    fields: [(&'static str, u64); MAX_TRACE_FIELDS],
    nfields: u8,
}

impl TraceEvent {
    /// Creates an event with no fields. `seq` is filled in by the ring.
    pub fn new(at: SimTime, layer: TraceLayer, op: &'static str) -> Self {
        TraceEvent {
            seq: 0,
            at,
            layer,
            op,
            note: "",
            fields: [("", 0); MAX_TRACE_FIELDS],
            nfields: 0,
        }
    }

    /// Appends a named integer field. At most [`MAX_TRACE_FIELDS`]
    /// fields are kept; extras are dropped (debug builds assert).
    #[must_use]
    pub fn with(mut self, name: &'static str, value: u64) -> Self {
        debug_assert!(
            (self.nfields as usize) < MAX_TRACE_FIELDS,
            "trace event {}/{} exceeds {MAX_TRACE_FIELDS} fields",
            self.layer.label(),
            self.op,
        );
        if let Some(slot) = self.fields.get_mut(self.nfields as usize) {
            *slot = (name, value);
            self.nfields += 1;
        }
        self
    }

    /// Attaches a static string annotation (e.g. a GC trigger reason).
    #[must_use]
    pub fn tag(mut self, note: &'static str) -> Self {
        self.note = note;
        self
    }

    /// The named integer fields attached so far, in insertion order.
    pub fn fields(&self) -> &[(&'static str, u64)] {
        &self.fields[..self.nfields as usize]
    }

    /// Renders the event as one self-contained JSON object (no trailing
    /// newline). Field names are static identifiers and never need
    /// escaping, so this is a plain formatter rather than a JSON
    /// library.
    pub fn to_json_line(&self) -> String {
        use fmt::Write as _;
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"seq\":{},\"at_ns\":{},\"layer\":\"{}\",\"op\":\"{}\"",
            self.seq,
            self.at.as_nanos(),
            self.layer.label(),
            self.op
        );
        if !self.note.is_empty() {
            let _ = write!(out, ",\"note\":\"{}\"", self.note);
        }
        for (name, value) in self.fields() {
            let _ = write!(out, ",\"{name}\":{value}");
        }
        out.push('}');
        out
    }
}

/// Fixed-capacity event ring. Oldest events are evicted on overflow and
/// counted in [`TraceRing::dropped`].
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring that retains at most `capacity` events
    /// (minimum 1).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Stamps `event` with the next sequence number and appends it,
    /// evicting the oldest event if the ring is full.
    pub fn push(&mut self, mut event: TraceEvent) {
        event.seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events evicted due to overflow since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever pushed (retained + dropped).
    pub fn emitted(&self) -> u64 {
        self.next_seq
    }

    /// Removes and returns all retained events, oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.events.drain(..).collect()
    }
}

/// Cloneable handle through which layers emit trace events.
///
/// A `Tracer` is either *disabled* (the default — emission is a single
/// branch and the event closure is never run) or backed by a shared
/// [`TraceRing`]. Handles are `Send + Sync` so traced systems still
/// work under the parallel sweep runner.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TraceRing>>>,
}

// Handles are cloned into every layer and, under the sweep runner, across
// threads: a field that is not `Send + Sync` (an `Rc`, a `RefCell`) is a
// build error here.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Tracer>();
};

impl Tracer {
    /// A disabled tracer: every `emit` is a no-op.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer backed by a shared ring retaining up to `capacity`
    /// events.
    pub fn ring_buffered(capacity: usize) -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(TraceRing::new(capacity)))),
        }
    }

    /// True when events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits an event. The closure runs only when the tracer is
    /// enabled, so callers may capture and format freely without
    /// penalising untraced runs.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(ring) = &self.inner {
            let event = make();
            if let Ok(mut ring) = ring.lock() {
                ring.push(event);
            }
        }
    }

    /// Removes and returns all retained events, oldest first. Empty for
    /// a disabled tracer.
    pub fn drain(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(ring) => ring.lock().map(|mut r| r.drain()).unwrap_or_default(),
            None => Vec::new(),
        }
    }

    /// Events evicted due to ring overflow so far (0 when disabled).
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .and_then(|ring| ring.lock().ok().map(|r| r.dropped()))
            .unwrap_or(0)
    }

    /// Total events emitted so far, including dropped ones (0 when
    /// disabled).
    pub fn emitted(&self) -> u64 {
        self.inner
            .as_ref()
            .and_then(|ring| ring.lock().ok().map(|r| r.emitted()))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: &'static str, ns: u64) -> TraceEvent {
        TraceEvent::new(SimTime::from_nanos(ns), TraceLayer::Ftl, op)
    }

    #[test]
    fn disabled_tracer_never_runs_closure() {
        let t = Tracer::disabled();
        let mut ran = false;
        t.emit(|| {
            ran = true;
            ev("x", 0)
        });
        assert!(!ran);
        assert!(!t.is_enabled());
        assert!(t.drain().is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.emitted(), 0);
    }

    #[test]
    fn events_are_sequenced_in_emission_order() {
        let t = Tracer::ring_buffered(16);
        // Emit out of simulated-time order; sequence numbers must still
        // reflect emission order.
        t.emit(|| ev("b", 500));
        t.emit(|| ev("a", 100));
        t.emit(|| ev("c", 900));
        let events = t.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(
            events.iter().map(|e| e.op).collect::<Vec<_>>(),
            vec!["b", "a", "c"]
        );
        // Drain empties the ring but preserves the sequence counter.
        t.emit(|| ev("d", 1000));
        let events = t.drain();
        assert_eq!(events[0].seq, 3);
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let t = Tracer::ring_buffered(3);
        for i in 0..10u64 {
            t.emit(move || ev("op", i));
        }
        assert_eq!(t.dropped(), 7);
        assert_eq!(t.emitted(), 10);
        let events = t.drain();
        assert_eq!(events.len(), 3);
        // The newest three survive, in order.
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        assert_eq!(
            events.iter().map(|e| e.at.as_nanos()).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
    }

    #[test]
    fn field_capacity_is_enforced() {
        let e = ev("op", 1)
            .with("a", 1)
            .with("b", 2)
            .with("c", 3)
            .with("d", 4);
        assert_eq!(e.fields().len(), 4);
        assert_eq!(e.fields()[3], ("d", 4));
    }

    #[test]
    fn json_line_is_well_formed() {
        let mut ring = TraceRing::new(4);
        ring.push(
            TraceEvent::new(SimTime::from_nanos(1500), TraceLayer::Flash, "program")
                .with("block", 7)
                .with("page", 3),
        );
        let events = ring.drain();
        assert_eq!(
            events[0].to_json_line(),
            "{\"seq\":0,\"at_ns\":1500,\"layer\":\"flash\",\"op\":\"program\",\"block\":7,\"page\":3}"
        );
        let tagged = TraceEvent::new(SimTime::ZERO, TraceLayer::Ftl, "gc").tag("foreground");
        assert_eq!(
            tagged.to_json_line(),
            "{\"seq\":0,\"at_ns\":0,\"layer\":\"ftl\",\"op\":\"gc\",\"note\":\"foreground\"}"
        );
    }

    #[test]
    fn cloned_handles_share_one_ring() {
        let t = Tracer::ring_buffered(8);
        let t2 = t.clone();
        t.emit(|| ev("a", 1));
        t2.emit(|| ev("b", 2));
        let events = t.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].seq, 1);
    }
}
