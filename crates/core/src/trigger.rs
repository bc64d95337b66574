//! The one checkpoint-trigger rule, [`TriggerRule`].

use checkin_sim::SimTime;
use checkin_ssd::{CpProgress, Ssd};

use crate::checkpoint::CheckpointOutcome;
use crate::engine::{CheckpointStep, EngineError, KvEngine};

/// What [`TriggerRule`] tells its driver, as it happens.
#[derive(Debug, Clone, Copy)]
pub enum Note<'a> {
    /// A checkpoint ended (noted after the background GC it began).
    Ended(&'a CheckpointOutcome),
    /// The running checkpoint's next step is due then.
    CheckpointDue(SimTime),
    /// The background GC's next step is due then.
    GcDue(SimTime),
    /// The background GC, its scrub round included, ended then.
    GcDone(SimTime),
}

/// The one checkpoint-trigger rule, shared by every driver of an engine
/// and its device ([`crate::KvSystem::run`]'s event loop, the `chaos`
/// harness's op loop). A trigger ends a checkpoint still pumped at once
/// and begins the new one at its own instant or the drained one's
/// finish, whichever is later. Every checkpoint's end begins background
/// GC — the device's paced job, whose last step is the scrub round —
/// unless GC is already running. The driver keeps the clock: it pumps
/// each step at exactly the instant a [`Note`] names. Every call
/// propagates engine and device failures.
#[derive(Debug, Clone, Copy)]
pub struct TriggerRule {
    /// Background GC rounds a checkpoint's end may begin.
    pub gc_rounds: u32,
    /// Pages the GC job's closing scrub round may verify.
    pub scrub_pages: u32,
}

impl TriggerRule {
    /// A checkpoint triggered at `at` — by a tick, a size trigger or a
    /// full journal. Returns when the trigger's caller may go on: the
    /// checkpoint's end when it ended in its begin, else its begin (the
    /// zone it retired no longer takes updates).
    pub fn trigger(
        self,
        engine: &mut KvEngine,
        ssd: &mut Ssd,
        at: SimTime,
        note: &mut impl FnMut(Note<'_>),
    ) -> Result<SimTime, EngineError> {
        let mut at = at;
        if let Some(out) = engine.drain_checkpoint(ssd)? {
            at = at.max(self.end(ssd, &out, note)?);
        }
        let step = engine.begin_checkpoint(ssd, at)?;
        Ok(self.step(ssd, step, note)?.unwrap_or(at))
    }

    /// The running checkpoint's step at `now`, the instant
    /// [`Note::CheckpointDue`] named.
    pub fn pump_checkpoint(
        self,
        engine: &mut KvEngine,
        ssd: &mut Ssd,
        now: SimTime,
        note: &mut impl FnMut(Note<'_>),
    ) -> Result<(), EngineError> {
        let step = engine.pump_checkpoint(ssd, now)?;
        self.step(ssd, step, note).map(drop)
    }

    /// The background GC's step at `now`, the instant [`Note::GcDue`]
    /// named.
    pub fn pump_gc(
        self,
        ssd: &mut Ssd,
        now: SimTime,
        note: &mut impl FnMut(Note<'_>),
    ) -> Result<(), EngineError> {
        gc(ssd.pump_gc(now)?, note);
        Ok(())
    }

    /// Ends the background work at once, as a run's end does: a
    /// checkpoint still pumped, then the GC behind it or an earlier one.
    pub fn finish(
        self,
        engine: &mut KvEngine,
        ssd: &mut Ssd,
        note: &mut impl FnMut(Note<'_>),
    ) -> Result<(), EngineError> {
        if let Some(out) = engine.drain_checkpoint(ssd)? {
            self.end(ssd, &out, note)?;
        }
        if let Some(done) = ssd.drain_gc()? {
            note(Note::GcDone(done));
        }
        Ok(())
    }

    /// A checkpoint's step: its end, if it ended.
    fn step(
        self,
        ssd: &mut Ssd,
        step: CheckpointStep,
        note: &mut impl FnMut(Note<'_>),
    ) -> Result<Option<SimTime>, EngineError> {
        match step {
            CheckpointStep::PumpAt(due) => {
                note(Note::CheckpointDue(due));
                Ok(None)
            }
            CheckpointStep::Done(out) => self.end(ssd, &out, note).map(Some),
        }
    }

    /// A checkpoint's end, returned: background GC begins behind it
    /// unless GC is already running.
    fn end(
        self,
        ssd: &mut Ssd,
        out: &CheckpointOutcome,
        note: &mut impl FnMut(Note<'_>),
    ) -> Result<SimTime, EngineError> {
        if ssd.gc_due().is_none() {
            gc(
                ssd.begin_background_gc(out.finish, self.gc_rounds, self.scrub_pages)?,
                note,
            );
        }
        note(Note::Ended(out));
        Ok(out.finish)
    }
}

fn gc(progress: CpProgress, note: &mut impl FnMut(Note<'_>)) {
    note(match progress {
        CpProgress::PumpAt(due) => Note::GcDue(due),
        CpProgress::Done(done) => Note::GcDone(done),
    });
}
