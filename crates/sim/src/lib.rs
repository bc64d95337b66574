//! Deterministic discrete-event simulation substrate for the Check-In
//! reproduction.
//!
//! This crate holds the building blocks every other layer of the simulator
//! is made of:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time;
//! * [`EventQueue`] — a future-event list with FIFO tie-breaking;
//! * [`Resource`] / [`ResourcePool`] — reservation timelines used to model
//!   contention on flash dies, channels, the PCIe link and firmware CPUs:
//!   a request gets the earliest window that overlaps no earlier
//!   reservation, including every idle gap before reservations made for
//!   the future, and a driver retires the gaps that are over behind its
//!   event clock ([`Resource::retire_before`]);
//! * [`InFlight`] — a fixed-depth window of in-flight operations, the
//!   admission rule of the NVMe queue and the write buffer's programming
//!   slots;
//! * [`LatencyRecorder`], [`CounterSet`] — measurement, and [`Row`], one
//!   reported number under a stable name;
//! * [`Progress`] — the step protocol of every paced job (a GC round, a
//!   device command, background GC, a checkpoint): pump again at an
//!   instant, or done, and [`Progress::finish`], the one loop that runs
//!   a job to its end;
//! * [`SimRng`] — a self-contained, seedable xoshiro256** generator;
//! * [`Tracer`] / [`TraceRing`] — ring-buffered structured trace events
//!   on the logical clock, zero-overhead when disabled.
//!
//! Everything is deterministic: two runs with the same seed produce the
//! same event order, the same statistics and the same figures.
//!
//! # Examples
//!
//! A tiny simulation of a queue draining through one server:
//!
//! ```
//! use checkin_sim::{EventQueue, Resource, SimDuration, SimTime, LatencyRecorder};
//!
//! let mut events = EventQueue::new();
//! let mut server = Resource::new("server");
//! let mut lat = LatencyRecorder::new();
//!
//! // Ten jobs arrive at 1us intervals, each needing 3us of service.
//! for i in 0..10u64 {
//!     events.schedule(SimTime::from_nanos(i * 1_000), i);
//! }
//! while let Some((now, _job)) = events.pop() {
//!     let window = server.schedule(now, SimDuration::from_micros(3));
//!     lat.record(window.latency_from(now));
//! }
//! assert_eq!(lat.count(), 10);
//! assert!(lat.max() > lat.min()); // later jobs queued behind earlier ones
//!
//! // Requests need not arrive in time order: the server is booked from
//! // 0 to 30 us, a job booked for 100 us leaves 30..100 us idle, and a
//! // later request for the present is served in that gap.
//! let us = |n: u64| SimTime::from_nanos(n * 1_000);
//! server.schedule(us(100), SimDuration::from_micros(3));
//! let window = server.schedule(us(0), SimDuration::from_micros(3));
//! assert_eq!((window.start, window.finish), (us(30), us(33)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Deterministic crate: no hash-ordered containers, wall clocks or
// `thread_local!` outside tests (the bans are listed in `clippy.toml`).
#![cfg_attr(not(test), deny(clippy::disallowed_types, clippy::disallowed_macros))]

mod event;
mod progress;
// Recovery in flash, ftl and ssd runs through these three modules, so
// they carry the panic and discard parts of those crates' wall
// (DESIGN.md §11).
#[cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::panic_in_result_fn,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
    )
)]
mod queue;
mod resource;
#[cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::panic_in_result_fn,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
    )
)]
mod rng;
#[cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::panic_in_result_fn,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
    )
)]
mod stats;
mod time;
mod trace;

pub use event::EventQueue;
pub use progress::Progress;
pub use queue::InFlight;
pub use resource::{Resource, ResourcePool, Window};
pub use rng::{splitmix64, SimRng};
pub use stats::{Counter, CounterSet, LatencyRecorder, Row, Total};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEvent, TraceLayer, TraceRing, Tracer, MAX_TRACE_FIELDS};
