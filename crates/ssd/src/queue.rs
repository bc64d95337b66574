//! Submission-queue depth modelling.
//!
//! NVMe exposes deep queues, but they are finite: when the paper's ISC-A
//! floods the device with one CoW command per journal entry, commands
//! serialize behind the queue. [`CommandQueue`] models this with the
//! simulator's one in-flight window ([`InFlight`], which also carries
//! the argument for non-monotone admissions) at depth `queue_depth`, and
//! traces each admission.

use checkin_sim::{InFlight, SimTime, TraceEvent, TraceLayer, Tracer};

/// A fixed-depth in-flight command window.
///
/// # Examples
///
/// ```
/// use checkin_ssd::CommandQueue;
/// use checkin_sim::SimTime;
///
/// let mut q = CommandQueue::new(1);
/// let t0 = q.admit(SimTime::ZERO);
/// q.complete(SimTime::from_nanos(100));
/// // Depth 1: the next command cannot start before the first completes.
/// let t1 = q.admit(SimTime::ZERO);
/// assert_eq!((t0.as_nanos(), t1.as_nanos()), (0, 100));
/// ```
#[derive(Debug, Clone)]
pub struct CommandQueue {
    window: InFlight,
    tracer: Tracer,
}

impl CommandQueue {
    /// Creates a queue admitting up to `depth` concurrent commands.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Self {
        CommandQueue {
            window: InFlight::new(depth),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a trace sink; each admission then records its queue wait
    /// and the in-flight depth at start.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Earliest instant a command arriving at `at` may start. Call
    /// [`CommandQueue::complete`] with its completion time afterwards.
    pub fn admit(&mut self, at: SimTime) -> SimTime {
        let start = self.window.admit(at);
        self.tracer.emit(|| {
            TraceEvent::new(start, TraceLayer::Queue, "admit")
                .with("wait_ns", start.duration_since(at).as_nanos())
                .with("inflight", self.window.in_flight_at(start) as u64)
        });
        start
    }

    /// Registers the completion time of an admitted command.
    pub fn complete(&mut self, done: SimTime) {
        self.window.complete(done);
    }
}
