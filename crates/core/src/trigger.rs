//! The one checkpoint-trigger rule, [`TriggerRule`].

use checkin_sim::{Progress, SimTime};
use checkin_ssd::Ssd;

use crate::checkpoint::CheckpointOutcome;
use crate::engine::{EngineError, KvEngine};

/// What [`TriggerRule`] tells its driver, as it happens: a step of one of
/// the two paced jobs it runs.
#[derive(Debug, Clone, Copy)]
pub enum Note<'a> {
    /// The running checkpoint's next step is due then, or it ended (noted
    /// after the background GC its end began).
    Checkpoint(&'a Progress<CheckpointOutcome>),
    /// The background GC's next step is due then, or it ended then, its
    /// scrub round included.
    Gc(Progress<SimTime>),
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
            at = at.max(out.finish);
            self.checkpoint(ssd, Progress::Done(out), note)?;
        }
        let step = engine.begin_checkpoint(ssd, at)?;
        Ok(self.checkpoint(ssd, step, note)?.unwrap_or(at))
    }

    /// The running checkpoint's step at `now`, the instant
    /// [`Note::Checkpoint`] named.
    pub fn pump_checkpoint(
        self,
        engine: &mut KvEngine,
        ssd: &mut Ssd,
        now: SimTime,
        note: &mut impl FnMut(Note<'_>),
    ) -> Result<(), EngineError> {
        let step = engine.pump_checkpoint(ssd, now)?;
        self.checkpoint(ssd, step, note).map(drop)
    }

    /// The background GC's step at `now`, the instant [`Note::Gc`] named.
    pub fn pump_gc(
        self,
        ssd: &mut Ssd,
        now: SimTime,
        note: &mut impl FnMut(Note<'_>),
    ) -> Result<(), EngineError> {
        note(Note::Gc(ssd.pump_gc(now)?));
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
            self.checkpoint(ssd, Progress::Done(out), note)?;
        }
        if let Some(done) = ssd.drain_gc()? {
            note(Note::Gc(Progress::Done(done)));
        }
        Ok(())
    }

    /// Notes a checkpoint's step. At its end, background GC begins
    /// behind it first, unless GC is already running, and the end is
    /// returned.
    fn checkpoint(
        self,
        ssd: &mut Ssd,
        step: Progress<CheckpointOutcome>,
        note: &mut impl FnMut(Note<'_>),
    ) -> Result<Option<SimTime>, EngineError> {
        let end = match &step {
            Progress::Done(out) => {
                if ssd.gc_due().is_none() {
                    let (at, rounds, pages) = (out.finish, self.gc_rounds, self.scrub_pages);
                    note(Note::Gc(ssd.begin_background_gc(at, rounds, pages)?));
                }
                Some(out.finish)
            }
            Progress::PumpAt(_) => None,
        };
        note(Note::Checkpoint(&step));
        Ok(end)
    }
}
