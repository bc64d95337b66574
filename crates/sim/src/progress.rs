//! The paced-job protocol, [`Progress`].

use crate::time::SimTime;

/// What a paced job's step asks for next. A paced job — a GC round, a
/// device command, background GC, a checkpoint — is begun, and then
/// pumped at exactly the instant its last step named, until a step says
/// it is done; whatever the driver books between two steps goes first.
///
/// # Examples
///
/// ```
/// use checkin_sim::{Progress, SimDuration, SimTime};
///
/// // A job of three steps, 10 ns apart, that ends with its step count.
/// let mut steps = 0;
/// let done = Progress::PumpAt(SimTime::ZERO).finish(|now| {
///     steps += 1;
///     let next = now + SimDuration::from_nanos(10);
///     Ok::<_, ()>(if steps < 3 { Progress::PumpAt(next) } else { Progress::Done(steps) })
/// });
/// assert_eq!(done, Ok(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress<T> {
    /// The job still runs: pump it again at this instant.
    PumpAt(SimTime),
    /// The job ended with this.
    Done(T),
}

impl<T> Progress<T> {
    /// When the next step is due; `None` once the job ended.
    pub fn due(&self) -> Option<SimTime> {
        match self {
            Progress::PumpAt(due) => Some(*due),
            Progress::Done(_) => None,
        }
    }

    /// Runs the job to its end: calls `pump` at exactly each instant the
    /// step before asked for, and returns what the first step that is
    /// done ended with — at once, without a call, when this one is.
    ///
    /// # Errors
    ///
    /// The first error `pump` returns, after which it is not called
    /// again.
    pub fn finish<E>(
        self,
        mut pump: impl FnMut(SimTime) -> Result<Progress<T>, E>,
    ) -> Result<T, E> {
        let mut progress = self;
        loop {
            match progress {
                Progress::PumpAt(due) => progress = pump(due)?,
                Progress::Done(value) => return Ok(value),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// `finish` pumps at exactly each instant asked for, in order, and
    /// stops at the first `Done`.
    #[test]
    fn finish_pumps_at_each_asked_instant_until_done() {
        let mut pumped = Vec::new();
        let asked = [at(7), at(7), at(30)];
        let out = Progress::<&str>::PumpAt(at(5)).finish(|now| {
            pumped.push(now);
            Ok::<_, ()>(match asked.get(pumped.len() - 1) {
                Some(&next) => Progress::PumpAt(next),
                None => Progress::Done("end"),
            })
        });
        assert_eq!(out, Ok("end"));
        assert_eq!(pumped, [at(5), at(7), at(7), at(30)]);
    }

    /// The first error ends the run: `pump` is not called after it.
    #[test]
    fn finish_returns_the_first_error() {
        let mut calls = 0;
        let out = Progress::<()>::PumpAt(at(1)).finish(|now| {
            calls += 1;
            if calls == 2 {
                Err(calls)
            } else {
                Ok(Progress::PumpAt(now + SimDuration::from_nanos(1)))
            }
        });
        assert_eq!((out, calls), (Err(2), 2));
    }

    /// A job that is done already ends without a pump.
    #[test]
    fn finish_on_done_never_pumps() {
        let mut calls = 0;
        let out = Progress::Done(9).finish(|_| {
            calls += 1;
            Ok::<_, ()>(Progress::Done(0))
        });
        assert_eq!((out, calls), (Ok(9), 0));
        assert_eq!(Progress::Done(9).due(), None);
        assert_eq!(Progress::<u8>::PumpAt(at(4)).due(), Some(at(4)));
    }
}
