//! The NAND flash array: state, rule enforcement, and operation timing.

use std::borrow::Borrow;

use checkin_sim::{
    Counter, CounterSet, Resource, SimDuration, SimTime, TraceEvent, TraceLayer, Tracer, Window,
};

use crate::content::PageContent;
use crate::error::FlashError;
use crate::fault::{FaultOp, FaultPlan, TickOutcome};
use crate::geometry::{table_index, BlockId, FlashGeometry, Ppn};
use crate::phase::OpPhase;
use crate::store::{BlockStore, Injector, PageView, SealLog, StoredField};
use crate::timing::FlashTiming;

/// How many times one program may be suspended for foreground reads
/// before it runs to its end. A `const`, not a knob.
pub const MAX_SUSPENDS_PER_PROGRAM: u32 = 2;

/// Pages one tPROG programs at most: the largest plane group
/// [`FlashArray::program_planes`] takes, and the capacity of a program's
/// record.
pub const MAX_PLANE_GROUP: usize = 8;

/// A die's latest program: the latest-starting tPROG booked there. A
/// foreground read can still go ahead of it (see
/// [`FlashArray::read_ahead_of_programs`]).
#[derive(Debug, Clone, Copy)]
struct LatestProgram {
    /// Its die reservation: where the tPROG starts, and where it now
    /// ends — later than `start + tPROG` by every read that went ahead.
    array: Window,
    /// The pages it programs, `pages[..count]`: one plane group.
    pages: [Ppn; MAX_PLANE_GROUP],
    count: usize,
    /// How often it was suspended, and when the reads sensed in its
    /// latest suspension are done (a read arriving before then queues
    /// behind them instead of suspending it again).
    suspends: u32,
    resume: SimTime,
}

/// How a foreground read gets ahead of a die's latest program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ahead {
    /// The program runs: suspend it and sense.
    Suspend,
    /// The program is suspended for earlier reads: sense behind them.
    Queue,
    /// The program has not started: sense first.
    Overtake,
}

impl LatestProgram {
    /// The record of `group`, which holds one to [`MAX_PLANE_GROUP`] pages.
    fn new(array: Window, group: impl Iterator<Item = Ppn>) -> Self {
        let mut pages = [Ppn(0); MAX_PLANE_GROUP];
        let count = pages
            .iter_mut()
            .zip(group)
            .map(|(slot, p)| *slot = p)
            .count();
        LatestProgram {
            array,
            pages,
            count,
            suspends: 0,
            resume: SimTime::ZERO,
        }
    }

    /// True when `ppn` is one of the pages this tPROG programs.
    fn programs(&self, ppn: Ppn) -> bool {
        self.pages.iter().take(self.count).any(|&p| p == ppn)
    }

    /// Where a foreground read issued at `at` would sense ahead of this
    /// program on `timeline`, how, and by how much that delays the
    /// program — `None` when the read waits as any read does. Only the
    /// die's last reservation gives way, only before it finishes, and only
    /// to a read that fits no earlier idle gap.
    fn ahead(
        &self,
        at: SimTime,
        timeline: &Resource,
        timing: &FlashTiming,
    ) -> Option<(SimTime, Ahead, SimDuration)> {
        let (finish, t_read) = (self.array.finish, timing.t_read);
        if timeline.available_at() != finish
            || at >= finish
            || timeline.first_fit(at, t_read) < finish
        {
            return None;
        }
        // A read issued before the start, but booked after one that
        // already found the program running, senses behind that one.
        if at < self.array.start && self.suspends == 0 {
            return Some((self.array.start, Ahead::Overtake, t_read));
        }
        if at < self.resume {
            return Some((self.resume, Ahead::Queue, t_read));
        }
        let cost = timing.t_suspend + t_read;
        (self.suspends < MAX_SUSPENDS_PER_PROGRAM && finish.duration_since(at) > cost).then_some((
            at + timing.t_suspend,
            Ahead::Suspend,
            cost,
        ))
    }
}

/// How a foreground read got its page
/// ([`FlashArray::read_ahead_of_programs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForegroundRead {
    /// Sensed on the die: `window` runs from the sense's start to the
    /// end of the page's channel transfer. `moved` is the program it went
    /// ahead of, if any.
    Sensed {
        /// Sense start to transfer finish.
        window: Window,
        /// The die's latest program, delayed by this read.
        moved: Option<MovedProgram>,
    },
    /// The page is one the die is still programming: the write buffer
    /// still holds it, and serves it at the read's issue.
    Programming,
}

/// A program whose finish a foreground read moved later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MovedProgram {
    /// Its finish before the read.
    pub from: SimTime,
    /// Its finish now.
    pub to: SimTime,
    /// Pages that finish with it: its plane group.
    pub pages: usize,
}

/// One die: its reservation timeline, and its latest program.
#[derive(Debug, Clone)]
struct Die {
    timeline: Resource,
    latest: Option<LatestProgram>,
}

/// Per-block bookkeeping.
#[derive(Debug, Clone, Default)]
struct BlockState {
    erase_count: u64,
    /// The block's programmed pages (and its write cursor). A block that
    /// was never programmed owns no memory.
    store: BlockStore,
}

/// The simulated NAND array.
///
/// Owns physical page state (erased/programmed + content tags), enforces
/// out-of-place and in-order programming rules, accounts P/E cycles, and
/// models operation timing through per-die and per-channel reservation
/// timelines: a read is sensed in the first idle stretch of its die, also
/// one ahead of a program that is still waiting for its channel transfer.
/// A die works a plane group at a time: one program call hands it one
/// page on each of up to `planes_per_die` planes (at most eight), all at
/// one page index, and it programs them in one tPROG
/// ([`FlashArray::program_planes`]); a read of a page on a plane another
/// read of the same command just sensed at its page index rides that
/// tR ([`FlashArray::read_beside`]). A foreground read may go ahead of
/// the die's latest program ([`FlashArray::read_ahead_of_programs`]);
/// every other read waits for it.
///
/// # Examples
///
/// ```
/// use checkin_flash::{FlashArray, FlashGeometry, FlashTiming, PageContent, Ppn};
/// use checkin_sim::SimTime;
///
/// let mut flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
/// let content = PageContent::empty(8);
/// let w = flash.program(Ppn(0), content, SimTime::ZERO)?;
/// assert!(w.finish > w.start);
/// assert!(flash.read(Ppn(0)).is_some());
/// # Ok::<(), checkin_flash::FlashError>(())
/// ```
#[derive(Debug)]
pub struct FlashArray {
    geometry: FlashGeometry,
    timing: FlashTiming,
    blocks: Vec<BlockState>,
    dies: Vec<Die>,
    channels: Vec<Resource>,
    counters: CounterSet,
    /// Maximum erase count across all blocks so far.
    max_erase: u64,
    total_erases: u64,
    /// Armed fault-injection schedule, if any.
    faults: Option<FaultPlan>,
    /// Firmware activity label: every program/read/erase is counted
    /// under the current phase's counter, which credits the plain total,
    /// and a recording fault plan logs it with each fault-clock tick.
    op_phase: OpPhase,
    /// Structured trace sink (no-op unless enabled).
    tracer: Tracer,
    /// True after a power cut (scheduled or manual): every timed
    /// operation fails with [`FlashError::PowerLoss`] until
    /// [`FlashArray::power_on`].
    powered_off: bool,
    /// Blocks with grown permanent defects.
    bad_blocks: Vec<bool>,
    /// The seals of every stored slot an injector changed, one log for
    /// the device (empty on a device no injector touched).
    seals: SealLog,
}

// The shard fleet will move this across threads: a field that is not
// `Send` (an `Rc`, say) is a build error here.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<FlashArray>();
};

impl FlashArray {
    /// Creates an array with every page erased.
    ///
    /// # Panics
    ///
    /// Panics if `geometry` fails validation.
    pub fn new(geometry: FlashGeometry, timing: FlashTiming) -> Self {
        #[expect(
            clippy::panic,
            reason = "the documented `# Panics` contract of an infallible constructor: a geometry with a zero dimension is a caller bug, met before any device state exists"
        )]
        geometry
            .validate()
            .unwrap_or_else(|e| panic!("invalid flash geometry: {e}"));
        let total_blocks = table_index(geometry.total_blocks());
        FlashArray {
            geometry,
            timing,
            blocks: vec![BlockState::default(); total_blocks],
            dies: (0..geometry.total_dies())
                .map(|_| Die {
                    timeline: Resource::new("die"),
                    latest: None,
                })
                .collect(),
            channels: (0..geometry.channels as usize)
                .map(|_| Resource::new("channel"))
                .collect(),
            counters: CounterSet::new(),
            max_erase: 0,
            total_erases: 0,
            faults: None,
            op_phase: OpPhase::Run,
            tracer: Tracer::disabled(),
            powered_off: false,
            bad_blocks: vec![false; total_blocks],
            seals: SealLog::default(),
        }
    }

    /// Heap bytes held by the page store: every block's arena capacity
    /// times its record size, and the seal log's. Deterministic — it
    /// follows what was programmed and injected, never the host.
    pub fn store_bytes(&self) -> u64 {
        let blocks: u64 = self
            .blocks
            .iter()
            .map(|b| b.store.capacity_bytes() as u64)
            .sum();
        blocks + self.seals.capacity_bytes() as u64
    }

    /// Stored slots whose seals the fault injectors keep: the slots they
    /// changed since their block's last erase. Zero on a device no
    /// injector touched.
    pub fn sealed_slots(&self) -> usize {
        self.seals.len()
    }

    /// The seal log is sorted by block and record, names each slot once,
    /// and names only records of pages programmed since their block's
    /// last erase.
    ///
    /// # Errors
    ///
    /// A description of the first entry that breaks this.
    pub fn check_seals(&self) -> Result<(), String> {
        self.seals
            .check(|block| self.blocks.get(block).map(|b| b.store.records()))
    }

    /// The injectors' hold on block `block`: a change to a stored bit
    /// keeps its slot's seal first.
    fn injector(&mut self, block: usize) -> Option<Injector<'_>> {
        Some(Injector {
            block: u32::try_from(block).ok()?,
            store: &mut self.blocks.get_mut(block)?.store,
            seals: &mut self.seals,
        })
    }

    /// Arms a fault-injection schedule. Subsequent operations consume
    /// fault-clock ticks and may fail per the plan. Replaces any
    /// previously armed plan.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// True when a fault plan is armed (layers above use this to gate
    /// crash-consistency bookkeeping that normal runs don't need).
    pub fn faults_armed(&self) -> bool {
        self.faults.is_some()
    }

    /// The armed fault plan, if any (fault clock, recorded trace).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Sets the firmware activity label under which subsequent flash
    /// operations are attributed and returns the previous one (so
    /// callers can nest/restore, e.g. GC triggered inside a checkpoint
    /// copy).
    pub fn set_op_phase(&mut self, phase: OpPhase) -> OpPhase {
        std::mem::replace(&mut self.op_phase, phase)
    }

    /// The current op-attribution phase.
    pub fn op_phase(&self) -> OpPhase {
        self.op_phase
    }

    /// Installs a trace sink; pass [`Tracer::disabled`] to turn tracing
    /// off again.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// True after a power cut; timed operations fail until
    /// [`FlashArray::power_on`].
    pub fn powered_off(&self) -> bool {
        self.powered_off
    }

    /// Cuts power immediately (tests and harnesses; scheduled cuts use
    /// [`FaultConfig::power_cut_after`](crate::FaultConfig::power_cut_after)).
    pub fn cut_power(&mut self) {
        if !self.powered_off {
            self.powered_off = true;
            self.counters.incr(Counter::FlashPowerCuts);
        }
    }

    /// Restores power after a cut so recovery can run. The fault plan
    /// stays armed (a fired cut is one-shot and will not re-fire).
    pub fn power_on(&mut self) {
        self.powered_off = false;
    }

    /// A logical firmware step forwarded from an upper layer (buffered
    /// write admission, remap, deallocate). Consumes one fault-clock tick
    /// so power cuts can land *between* metadata mutations, not only at
    /// media operations.
    ///
    /// # Errors
    ///
    /// [`FlashError::PowerLoss`] when the cut fires on this tick or the
    /// device is already off.
    pub fn logical_tick(&mut self) -> Result<(), FlashError> {
        self.fault_gate(FaultOp::Logical, None, None)
    }

    /// Next in-order page index of `block` (0 = fully erased). Recovery
    /// uses the write cursors to reconstruct block occupancy after a cut.
    pub fn write_cursor(&self, block: BlockId) -> u32 {
        self.blocks
            .get(block.index())
            .map_or(0, |b| u32::try_from(b.store.cursor()).unwrap_or(u32::MAX))
    }

    /// True when `block` has a grown permanent defect.
    pub fn is_bad_block(&self, block: BlockId) -> bool {
        self.bad_blocks.get(block.index()).copied().unwrap_or(false)
    }

    /// Runs the shared failure checks for one operation attempt: power
    /// state, one fault-clock tick, and the plan's media-failure draws.
    /// Must be called *before* the operation mutates anything.
    fn fault_gate(
        &mut self,
        op: FaultOp,
        ppn: Option<Ppn>,
        block: Option<BlockId>,
    ) -> Result<(), FlashError> {
        if self.powered_off {
            return Err(FlashError::PowerLoss);
        }
        let phase = self.op_phase;
        let Some(plan) = self.faults.as_mut() else {
            return Ok(());
        };
        let outcome = plan.on_tick(op, phase);
        // Retention decay rides the fault clock: every tick is a chance
        // for a latent bit-flip somewhere in already-programmed data. At
        // the default zero rates these draws consume no RNG state, so
        // benign plans replay byte-identically.
        let (rot_data, rot_oob) = plan.decay_draws();
        if rot_data {
            self.apply_bit_rot(true);
        }
        if rot_oob {
            self.apply_bit_rot(false);
        }
        match outcome {
            TickOutcome::Pass => Ok(()),
            TickOutcome::PowerCut => {
                self.powered_off = true;
                self.counters.incr(Counter::FlashPowerCuts);
                Err(FlashError::PowerLoss)
            }
            TickOutcome::Transient => {
                // Logical ticks draw no media faults, and a media tick
                // without its address cannot name a victim; both are
                // impossible by construction, and the fault injector
                // must never panic itself — degrade to a clean pass.
                let err = match (op, ppn, block) {
                    (FaultOp::Read, Some(p), _) => FlashError::TransientRead(p),
                    (FaultOp::Program, Some(p), _) => FlashError::TransientProgram(p),
                    (FaultOp::Erase, _, Some(b)) => FlashError::TransientErase(b),
                    _ => return Ok(()),
                };
                self.counters.incr(Counter::FlashTransientFaults);
                Err(err)
            }
            TickOutcome::GrownBad => {
                // Grown-bad outcomes only occur for program/erase, which
                // always carry a block; same degrade-to-pass policy.
                let Some(b) = block else {
                    return Ok(());
                };
                if let Some(slot) = self.bad_blocks.get_mut(b.index()) {
                    *slot = true;
                }
                self.counters.incr(Counter::FlashGrownBadBlocks);
                Err(FlashError::GrownBadBlock(b))
            }
        }
    }

    /// A seeded draw in `[0, n)` from the armed plan (0 without one).
    fn fault_draw(&mut self, n: u64) -> u64 {
        self.faults.as_mut().map_or(0, |p| p.draw_below(n))
    }

    /// Flips one seeded bit in a stored data unit (`data == true`) or OOB
    /// record of some programmed page, keeping the slot's seal: the
    /// damage stays latent until a verified read or scrub visits it.
    /// The victim is the first programmed page at or after a drawn start
    /// page, wrapping.
    fn apply_bit_rot(&mut self, data: bool) {
        let start = self.fault_draw(self.geometry.total_pages());
        let Some(victim) = self.next_programmed_from(Ppn(start)) else {
            return; // nothing programmed yet; the draw still happened
        };
        let mask = 1u64 << self.fault_draw(48);
        let Some(view) = self.read(victim) else {
            return;
        };
        let (units_len, oob_len) = (view.unit_slots(), view.oob_len());
        let (block, page) = self.locate(victim);
        if data {
            if units_len == 0 {
                return;
            }
            let start_u = table_index(self.fault_draw(units_len as u64));
            let Some(mut injector) = self.injector(block) else {
                return;
            };
            let flipped = (0..units_len)
                .map(|off| (start_u + off) % units_len)
                .any(|i| injector.flip_unit_bits(page, i, mask));
            if flipped {
                self.counters.incr(Counter::FlashBitRotData);
            }
        } else {
            if oob_len == 0 {
                return;
            }
            let i = table_index(self.fault_draw(oob_len as u64));
            if self
                .injector(block)
                .is_some_and(|mut b| b.flip_oob_bits(page, i, mask))
            {
                self.counters.incr(Counter::FlashBitRotOob);
            }
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    /// The array's timing parameters.
    pub fn timing(&self) -> &FlashTiming {
        &self.timing
    }

    /// The die (dense index), channel and plane of `ppn`, from one
    /// decomposition of its block id.
    fn die_channel_plane(&self, ppn: Ppn) -> (usize, usize, u32) {
        let pos = self.geometry.block_position(self.geometry.block_of(ppn));
        let die = table_index(self.geometry.die_at(pos));
        (die, pos.channel as usize, pos.plane)
    }

    /// Reads one page: die array read (tR) then bus transfer. Returns the
    /// occupied time window. Content is available via [`FlashArray::read`];
    /// timing and content are split so that firmware can model cached reads.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::OutOfRange`] for addresses beyond the array.
    pub fn schedule_read(&mut self, ppn: Ppn, at: SimTime) -> Result<Window, FlashError> {
        self.check_range(ppn)?;
        self.fault_gate(FaultOp::Read, Some(ppn), None)?;
        let (die, channel, _) = self.die_channel_plane(ppn);
        // check_range guarantees both indices; a geometry that disagrees
        // with the queue vectors surfaces as a typed error, not a panic.
        let t_read = self.timing.t_read;
        let Some(die_queue) = self.dies.get_mut(die) else {
            return Err(FlashError::OutOfRange(ppn));
        };
        let array = die_queue.timeline.schedule(at, t_read);
        self.transfer_sensed(ppn, channel, at, array.start, false)
    }

    /// A foreground read: [`FlashArray::schedule_read`] for the reads a
    /// host waits on, which go ahead of a NAND program whose finish is
    /// still private. Let P be the die's latest program:
    ///
    /// * `ppn` is one of P's pages and P has not finished at `at`: the
    ///   write buffer still holds the page and serves it at `at` —
    ///   [`ForegroundRead::Programming`], no sense, no fault-clock tick,
    ///   no `flash.read.*` count;
    /// * P is running at `at`: the read suspends it and senses in
    ///   `[at + t_suspend, + tR)`, at most [`MAX_SUSPENDS_PER_PROGRAM`]
    ///   times per program and only while more than `t_suspend + tR` of
    ///   it remain; a read arriving while earlier ones hold P suspended
    ///   senses behind them;
    /// * P has not started at `at`: the read senses at P's start.
    ///
    /// Only when P is the die's last reservation, the read fits no idle
    /// gap before P's finish, and `may_move(finish, pages)` — P's finish
    /// and how many pages finish with it — agrees. P then finishes later
    /// by what it gave way (`t_suspend + tR`, or tR), booked at the die's
    /// end as an ordinary reservation: no window handed out before moves
    /// unless `may_move` vouched for it. Otherwise the read is exactly a
    /// [`FlashArray::schedule_read`].
    ///
    /// # Errors
    ///
    /// As [`FlashArray::schedule_read`].
    pub fn read_ahead_of_programs(
        &mut self,
        ppn: Ppn,
        at: SimTime,
        may_move: impl FnOnce(SimTime, usize) -> bool,
    ) -> Result<ForegroundRead, FlashError> {
        self.check_range(ppn)?;
        if self.powered_off {
            return Err(FlashError::PowerLoss);
        }
        let (die, channel, _) = self.die_channel_plane(ppn);
        let latest = self.dies.get(die).and_then(|d| d.latest);
        if latest.is_some_and(|p| at < p.array.finish && p.programs(ppn)) {
            return Ok(ForegroundRead::Programming);
        }
        self.fault_gate(FaultOp::Read, Some(ppn), None)?;
        let t_read = self.timing.t_read;
        let Some(Die { timeline, latest }) = self.dies.get_mut(die) else {
            return Err(FlashError::OutOfRange(ppn));
        };
        let ahead = latest.as_mut().and_then(|p| {
            let (sense, how, delay) = p.ahead(at, timeline, &self.timing)?;
            may_move(p.array.finish, p.count).then_some((p, sense, how, delay))
        });
        let (sense, moved) = match ahead {
            None => (timeline.schedule(at, t_read).start, None),
            Some((p, sense, how, delay)) => {
                let from = p.array.finish;
                let extension = timeline.schedule(from, delay);
                debug_assert_eq!(extension.start, from, "P was the die's last reservation");
                p.array.finish = extension.finish;
                let note = match how {
                    Ahead::Suspend => {
                        p.suspends += 1;
                        p.resume = sense + t_read;
                        self.counters.incr(Counter::FlashProgramSuspends);
                        "suspend"
                    }
                    Ahead::Queue => {
                        p.resume = sense + t_read;
                        "queue"
                    }
                    Ahead::Overtake => {
                        p.array.start = sense + t_read;
                        self.counters.incr(Counter::FlashReadOvertakes);
                        "overtake"
                    }
                };
                let moved = MovedProgram {
                    from,
                    to: extension.finish,
                    pages: p.count,
                };
                self.tracer.emit(|| {
                    TraceEvent::new(at, TraceLayer::Flash, "suspend")
                        .tag(note)
                        .with("ppn", ppn.0)
                        .with("from_ns", moved.from.as_nanos())
                        .with("to_ns", moved.to.as_nanos())
                        .with("pages", moved.pages as u64)
                });
                (sense, Some(moved))
            }
        };
        self.counters.add(
            Counter::FlashReadDieWaitNs,
            sense.duration_since(at).as_nanos(),
        );
        let window = self.transfer_sensed(ppn, channel, at, sense, false)?;
        Ok(ForegroundRead::Sensed { window, moved })
    }

    /// Reads `ppn` in the tR that sensed `partner` from `sensed` on: a
    /// page on another plane of the same die at the same page index is
    /// sensed by the same array operation, so it books only its channel
    /// transfer, from when that tR ends. Returns the window from
    /// `sensed` to the transfer's finish — one fault-clock tick, one
    /// `flash.read.*` count and one `read` trace event (with
    /// `multiplane: 1`) as any read, counted under
    /// `flash.multiplane_reads`; in [`OpPhase::Run`] its wait from `at`
    /// to `sensed` counts under `flash.read_die_wait_ns` as a foreground
    /// sense's does. `None` — nothing booked, nothing ticked — when
    /// `ppn` is one of the die's latest program's pages and that program
    /// had not finished at `sensed`: the page was not there to sense.
    ///
    /// The caller vouches that `partner` was sensed from `sensed` and
    /// that no other page of `ppn`'s plane rode that tR; a debug build
    /// asserts that the tR does not start before the read is issued
    /// (`sensed >= at`): an array operation already under way takes no
    /// more pages.
    ///
    /// # Errors
    ///
    /// [`FlashError::NotAPlaneGroup`] when `partner` and `ppn` are not
    /// one die's pages on two planes at one page index; otherwise as
    /// [`FlashArray::schedule_read`].
    pub fn read_beside(
        &mut self,
        ppn: Ppn,
        partner: Ppn,
        sensed: SimTime,
        at: SimTime,
    ) -> Result<Option<Window>, FlashError> {
        debug_assert!(
            sensed >= at,
            "a read at {at} rides a tR that started at {sensed}, before it was issued"
        );
        let Some((die, channel)) = self.plane_group([partner, ppn].into_iter())? else {
            return Err(FlashError::NotAPlaneGroup(ppn));
        };
        if self.powered_off {
            return Err(FlashError::PowerLoss);
        }
        let latest = self.dies.get(die).and_then(|d| d.latest);
        if latest.is_some_and(|p| sensed < p.array.finish && p.programs(ppn)) {
            return Ok(None);
        }
        self.fault_gate(FaultOp::Read, Some(ppn), None)?;
        self.counters.incr(Counter::FlashMultiplaneReads);
        if self.op_phase == OpPhase::Run {
            self.counters.add(
                Counter::FlashReadDieWaitNs,
                sensed.saturating_duration_since(at).as_nanos(),
            );
        }
        self.transfer_sensed(ppn, channel, at, sensed, true)
            .map(Some)
    }

    /// The tail every sense shares: the page crosses `channel` once tR
    /// from `sense` is over, and the read is counted and traced (with
    /// `multiplane: 1` when it `rides` another page's tR). Returns the
    /// sense's start to the transfer's finish.
    fn transfer_sensed(
        &mut self,
        ppn: Ppn,
        channel: usize,
        at: SimTime,
        sense: SimTime,
        rides: bool,
    ) -> Result<Window, FlashError> {
        let xfer_time = self.timing.transfer_time(self.geometry.page_bytes as u64);
        let Some(channel_queue) = self.channels.get_mut(channel) else {
            return Err(FlashError::OutOfRange(ppn));
        };
        let xfer = channel_queue.schedule(sense + self.timing.t_read, xfer_time);
        self.counters.incr(self.op_phase.read_counter());
        let phase = self.op_phase;
        self.tracer.emit(|| {
            let event = TraceEvent::new(at, TraceLayer::Flash, "read")
                .tag(phase.label())
                .with("ppn", ppn.0);
            if rides {
                event.with("multiplane", 1)
            } else {
                event
            }
        });
        Ok(Window {
            start: sense,
            finish: xfer.finish,
        })
    }

    /// `(block, page-in-block)` indices of `ppn` into `blocks[..].store`.
    fn locate(&self, ppn: Ppn) -> (usize, usize) {
        let block = self.geometry.block_of(ppn).index();
        (block, self.geometry.page_in_block(ppn) as usize)
    }

    /// Returns the content of a programmed page, or `None` when erased.
    #[inline]
    pub fn read(&self, ppn: Ppn) -> Option<PageView<'_>> {
        let (block, page) = self.locate(ppn);
        let seals = self.seals.of_block(block);
        self.blocks.get(block)?.store.page(page, seals)
    }

    /// Every programmed page with its content, in ascending PPN order —
    /// the one whole-device walk (OOB scans, recovery). Costs what was
    /// written, not what the device could hold.
    pub fn programmed_pages(&self) -> impl Iterator<Item = (Ppn, PageView<'_>)> + '_ {
        let pages_per_block = self.geometry.pages_per_block as u64;
        self.blocks.iter().enumerate().flat_map(move |(b, state)| {
            let first = b as u64 * pages_per_block;
            state
                .store
                .pages(self.seals.of_block(b))
                .enumerate()
                .map(move |(p, view)| (Ppn(first + p as u64), view))
        })
    }

    /// The first programmed page at or after `from` in wrapping PPN order
    /// (so a page before `from` is found last), or `None` when nothing is
    /// programmed or `from` is out of range. A block's erased tail is
    /// stepped over in one move, and an erased block in one check.
    pub fn next_programmed_from(&self, from: Ppn) -> Option<Ppn> {
        let (first, page) = self.locate(from);
        if page < self.blocks.get(first)?.store.cursor() {
            return Some(from);
        }
        let n = self.blocks.len();
        (1..=n)
            .map(|i| (first + i) % n)
            .find(|&b| self.blocks.get(b).is_some_and(|s| s.store.cursor() > 0))
            .map(|b| self.geometry.first_ppn(BlockId(b as u64)))
    }

    /// Programs one page: bus transfer then array program (tPROG) — the
    /// one-page [`FlashArray::program_planes`]. The staged `content` is
    /// copied into the block's arenas; pass it by reference to keep it
    /// for the next page.
    ///
    /// # Errors
    ///
    /// * [`FlashError::ProgramDirtyPage`] if the page is not erased;
    /// * [`FlashError::ProgramOutOfOrder`] if an earlier page of the block
    ///   is still erased;
    /// * [`FlashError::OutOfRange`] for bad addresses.
    pub fn program(
        &mut self,
        ppn: Ppn,
        content: impl Borrow<PageContent>,
        at: SimTime,
    ) -> Result<Window, FlashError> {
        self.program_planes(&[(ppn, content.borrow())], at)
    }

    /// Programs one die's plane group in one array operation: the pages
    /// cross the die's channel back to back from `at`, and one tPROG
    /// booked from the last transfer's finish programs them all. The
    /// returned window runs from the first transfer's start to that
    /// tPROG's finish; every page finishes with it. Each page is still
    /// its own program to everything else: its own rule checks, fault-
    /// clock tick, `flash.program.*` count and `program` trace event
    /// (those after the first carry `multiplane: 1`, and each counts
    /// under `flash.multiplane_programs`). An empty group programs
    /// nothing and returns the empty window at `at`.
    ///
    /// All or nothing: every check and every page's tick runs before
    /// anything lands, so a failure leaves the array as it was — except
    /// a power cut with torn writes enabled, which lands the pages
    /// before the one it hit intact and tears that one.
    ///
    /// # Errors
    ///
    /// * [`FlashError::NotAPlaneGroup`] for a page on another die, on a
    ///   plane the group already holds, at another page index than the
    ///   first, or past [`MAX_PLANE_GROUP`] pages;
    /// * as [`FlashArray::program`] for each page, the first failure in
    ///   group order.
    pub fn program_planes<C: Borrow<PageContent>>(
        &mut self,
        group: &[(Ppn, C)],
        at: SimTime,
    ) -> Result<Window, FlashError> {
        let Some((die, channel)) = self.plane_group(group.iter().map(|(ppn, _)| *ppn))? else {
            return Ok(Window {
                start: at,
                finish: at,
            });
        };
        for &(ppn, _) in group {
            self.check_programmable(ppn)?;
        }
        // Every failure path must run before any mutation so that a cut
        // or media error leaves the array exactly as it was — except a
        // power cut with torn writes enabled, which deliberately leaves
        // the partially-programmed wreckage on the media.
        for (i, (ppn, content)) in group.iter().enumerate() {
            let block = self.geometry.block_of(*ppn);
            let was_on = !self.powered_off;
            if let Err(e) = self.fault_gate(FaultOp::Program, Some(*ppn), Some(block)) {
                if was_on
                    && matches!(e, FlashError::PowerLoss)
                    && self
                        .faults
                        .as_ref()
                        .is_some_and(FaultPlan::torn_writes_enabled)
                {
                    for (n, (ppn, content)) in group.iter().take(i).enumerate() {
                        self.land_program(*ppn, content.borrow(), n > 0, at)?;
                    }
                    self.torn_program(*ppn, block, content.borrow(), at);
                }
                return Err(e);
            }
        }
        for (n, (ppn, content)) in group.iter().enumerate() {
            self.land_program(*ppn, content.borrow(), n > 0, at)?;
        }
        let first = group.first().map_or(Ppn(0), |(ppn, _)| *ppn);
        let xfer_time = self.timing.transfer_time(self.geometry.page_bytes as u64);
        // As in `schedule_read`: a geometry that disagrees with the queue
        // vectors is a typed error, not a panic.
        let channel = self
            .channels
            .get_mut(channel)
            .ok_or(FlashError::OutOfRange(first))?;
        let mut start = None;
        let mut loaded = at;
        for _ in group {
            let xfer = channel.schedule(loaded, xfer_time);
            start.get_or_insert(xfer.start);
            loaded = xfer.finish;
        }
        let finish = self
            .book_program(die, group.iter().map(|(ppn, _)| *ppn), loaded)
            .ok_or(FlashError::OutOfRange(first))?;
        Ok(Window {
            start: start.unwrap_or(at),
            finish,
        })
    }

    /// The die and channel a plane group's pages share, checking that
    /// they are one: at most [`MAX_PLANE_GROUP`] pages in range, each a
    /// plane partner of every other ([`FlashGeometry::plane_partners`]).
    /// `None` for an empty group.
    fn plane_group(
        &self,
        group: impl Iterator<Item = Ppn> + Clone,
    ) -> Result<Option<(usize, usize)>, FlashError> {
        for (i, ppn) in group.clone().enumerate() {
            self.check_range(ppn)?;
            let mut earlier = group.clone().take(i);
            if i >= MAX_PLANE_GROUP || !earlier.all(|p| self.geometry.plane_partners(p, ppn)) {
                return Err(FlashError::NotAPlaneGroup(ppn));
            }
        }
        Ok(group.clone().next().map(|first| {
            let (die, channel, _) = self.die_channel_plane(first);
            (die, channel)
        }))
    }

    /// The rule checks of one page's program, before its fault tick: in
    /// range, on a block in service, and the block's next erased page.
    fn check_programmable(&self, ppn: Ppn) -> Result<(), FlashError> {
        self.check_range(ppn)?;
        let block = self.geometry.block_of(ppn);
        let page = self.geometry.page_in_block(ppn);
        if self.is_bad_block(block) {
            return Err(FlashError::GrownBadBlock(block));
        }
        let cursor = self.write_cursor(block);
        if page < cursor {
            return Err(FlashError::ProgramDirtyPage(ppn));
        }
        if page != cursor {
            return Err(FlashError::ProgramOutOfOrder {
                requested: ppn,
                expected_page: cursor,
            });
        }
        Ok(())
    }

    /// Lands one page of a program whose ticks all passed — stored, then
    /// maybe misdirected — and counts and traces it; `rides` for a page
    /// after its group's first.
    fn land_program(
        &mut self,
        ppn: Ppn,
        content: &PageContent,
        rides: bool,
        at: SimTime,
    ) -> Result<(), FlashError> {
        let block = self.geometry.block_of(ppn);
        // What lands is its own seal; injectors that change it after this
        // point keep the programmed checksums first.
        self.land_page(block, content)?;
        if self.faults.as_mut().is_some_and(FaultPlan::misdirect_draw) {
            // Misdirected write: the program "succeeds", but what landed
            // no longer matches the checksums of what was staged.
            let mask = 1u64 << self.fault_draw(48);
            self.damage_landed_page(block, 0, mask);
            self.counters.incr(Counter::FlashMisdirectedPrograms);
        }
        self.counters.incr(self.op_phase.program_counter());
        if rides {
            self.counters.incr(Counter::FlashMultiplanePrograms);
        }
        let phase = self.op_phase;
        self.tracer.emit(|| {
            let event = TraceEvent::new(at, TraceLayer::Flash, "program")
                .tag(phase.label())
                .with("ppn", ppn.0)
                .with("block", block.0);
            if rides {
                event.with("multiplane", 1)
            } else {
                event
            }
        });
        Ok(())
    }

    /// Books the one tPROG of the plane group `pages` on `die`, whose
    /// data is in the page registers from `loaded`, and returns when it
    /// finishes. It becomes the die's latest program if it starts later
    /// than that one. `None` when `die` does not exist.
    fn book_program(
        &mut self,
        die: usize,
        pages: impl Iterator<Item = Ppn>,
        loaded: SimTime,
    ) -> Option<SimTime> {
        let Die { timeline, latest } = self.dies.get_mut(die)?;
        let array = timeline.schedule(loaded, self.timing.t_program);
        if latest.is_none_or(|p| array.start > p.array.start) {
            *latest = Some(LatestProgram::new(array, pages));
        }
        Some(array.finish)
    }

    /// A power cut landed mid-program with torn writes enabled: commit a
    /// *torn page* — seals kept for the intended content, then a
    /// seeded boundary drawn and everything past it bit-flipped (plus all
    /// OOB records, which real NAND writes last). The page is marked
    /// programmed and the cursor advances, exactly what a post-crash OOB
    /// scan will find on the media.
    fn torn_program(&mut self, ppn: Ppn, block: BlockId, content: &PageContent, at: SimTime) {
        if self.land_page(block, content).is_err() {
            return;
        }
        let units = content.units.len() as u64;
        let intact = self.fault_draw(units + 1);
        if intact < units {
            let mask = 1u64 << self.fault_draw(48);
            self.damage_landed_page(block, table_index(intact), mask);
        }
        self.counters.incr(Counter::FlashTornWrites);
        let phase = self.op_phase;
        self.tracer.emit(|| {
            TraceEvent::new(at, TraceLayer::Flash, "torn_program")
                .tag(phase.label())
                .with("ppn", ppn.0)
                .with("block", block.0)
        });
    }

    /// Copies `content` in as the next page of `block` (the caller has
    /// checked it is the cursor page).
    fn land_page(&mut self, block: BlockId, content: &PageContent) -> Result<(), FlashError> {
        let pages_per_block = self.geometry.pages_per_block as usize;
        let state = self
            .blocks
            .get_mut(block.index())
            .ok_or(FlashError::BlockOutOfRange(block))?;
        state
            .store
            .land(content, pages_per_block)
            .ok_or(FlashError::BlockStoreFull(block))
    }

    /// Flips `mask` into every occupied unit from `first_unit` on and
    /// every OOB record of the page `block` programmed last: what a
    /// misdirected or torn program leaves behind.
    fn damage_landed_page(&mut self, block: BlockId, first_unit: usize, mask: u64) {
        if let Some(mut injector) = self.injector(block.index()) {
            injector.damage_last_page(first_unit, mask);
        }
    }

    /// Erases a block, resetting every page to the erased state.
    ///
    /// # Errors
    ///
    /// [`FlashError::BlockOutOfRange`] for bad block ids.
    pub fn erase(&mut self, block: BlockId, at: SimTime) -> Result<Window, FlashError> {
        if block.0 >= self.geometry.total_blocks() {
            return Err(FlashError::BlockOutOfRange(block));
        }
        if self.is_bad_block(block) {
            return Err(FlashError::GrownBadBlock(block));
        }
        // As in `program`, fail before mutating: a cut or injected erase
        // failure must leave the block's pages and counters untouched.
        self.fault_gate(FaultOp::Erase, None, Some(block))?;
        let die = table_index(self.geometry.die_of_block(block));
        let (Some(state), Some(die_queue)) =
            (self.blocks.get_mut(block.index()), self.dies.get_mut(die))
        else {
            return Err(FlashError::BlockOutOfRange(block));
        };
        state.erase_count += 1;
        let erase_count = state.erase_count;
        state.store.clear();
        self.seals.forget_block(block.index());
        let window = die_queue.timeline.schedule(at, self.timing.t_erase);
        self.counters.incr(self.op_phase.erase_counter());
        let phase = self.op_phase;
        self.tracer.emit(|| {
            TraceEvent::new(at, TraceLayer::Flash, "erase")
                .tag(phase.label())
                .with("block", block.0)
                .with("pe_count", erase_count)
        });
        self.total_erases += 1;
        self.max_erase = self.max_erase.max(erase_count);
        Ok(window)
    }

    /// Test-only sabotage: flips bits in the stored unit at
    /// (`ppn`, `offset`), keeping its seal — a targeted,
    /// deterministic stand-in for the seeded bit-rot injector. Returns
    /// true when a stored unit was hit. Harnesses use this to place
    /// corruption exactly where a scenario needs it; never call it
    /// anywhere else.
    pub fn sabotage_corrupt_unit(&mut self, ppn: Ppn, offset: u32, mask: u64) -> bool {
        let (block, page) = self.locate(ppn);
        self.injector(block)
            .is_some_and(|mut b| b.flip_unit_bits(page, offset as usize, mask))
    }

    /// Test-only sabotage: flips bits of the stored OOB record at
    /// (`ppn`, `index`), keeping its seal (see
    /// [`FlashArray::sabotage_corrupt_unit`]).
    pub fn sabotage_corrupt_oob(&mut self, ppn: Ppn, index: u32, mask: u64) -> bool {
        let (block, page) = self.locate(ppn);
        self.injector(block)
            .is_some_and(|mut b| b.flip_oob_bits(page, index as usize, mask))
    }

    /// Test-only sabotage: flips one bit (`bit` modulo the field's
    /// width) of one stored field of slot `slot` of page `ppn`, keeping
    /// its seal — any bit the page store keeps can be reached this way.
    /// Returns false when the slot stores no such field.
    pub fn sabotage_flip_stored_bit(
        &mut self,
        ppn: Ppn,
        slot: u32,
        field: StoredField,
        bit: u32,
    ) -> bool {
        let (block, page) = self.locate(ppn);
        self.injector(block)
            .is_some_and(|mut b| b.flip_stored_bit(page, slot as usize, field, bit))
    }

    /// True when `ppn` holds programmed data.
    pub fn is_programmed(&self, ppn: Ppn) -> bool {
        self.read(ppn).is_some()
    }

    /// Erase count of one block.
    pub fn erase_count(&self, block: BlockId) -> u64 {
        self.blocks
            .get(block.index())
            .map(|b| b.erase_count)
            .unwrap_or(0)
    }

    /// Sum of erase counts over all blocks.
    pub fn total_erases(&self) -> u64 {
        self.total_erases
    }

    /// Highest per-block erase count (wear ceiling).
    pub fn max_erase_count(&self) -> u64 {
        self.max_erase
    }

    /// Mean erase count across **in-service** blocks. Grown-bad (retired)
    /// blocks stop accumulating erases the moment they leave service, so
    /// counting them in the denominator would understate the wear of the
    /// blocks still doing the work. Zero when every block is bad.
    pub fn mean_erase_count(&self) -> f64 {
        let mut erases = 0u64;
        let mut in_service = 0u64;
        for (b, &bad) in self.blocks.iter().zip(&self.bad_blocks) {
            if !bad {
                erases += b.erase_count;
                in_service += 1;
            }
        }
        if in_service == 0 {
            return 0.0;
        }
        erases as f64 / in_service as f64
    }

    /// Operation counters (`flash.*`).
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// Total busy time across all dies (for utilization reports).
    pub fn die_busy_time(&self) -> checkin_sim::SimDuration {
        self.dies().map(Resource::busy_time).sum()
    }

    /// The per-die timelines, in die order (utilization reports).
    pub fn dies(&self) -> impl ExactSizeIterator<Item = &Resource> + '_ {
        self.dies.iter().map(|d| &d.timeline)
    }

    /// The timeline of die `die`, by dense die index
    /// ([`FlashGeometry::die_of_block`]); `None` past the last die.
    pub fn die(&self, die: usize) -> Option<&Resource> {
        self.dies.get(die).map(|d| &d.timeline)
    }

    /// The per-channel timelines, indexed by channel.
    pub fn channels(&self) -> &[Resource] {
        &self.channels
    }

    /// [`Resource::retire_before`] on every die and channel: no later
    /// operation is issued at an instant before `t`.
    pub fn retire_before(&mut self, t: SimTime) {
        let dies = self.dies.iter_mut().map(|d| &mut d.timeline);
        for timeline in dies.chain(&mut self.channels) {
            timeline.retire_before(t);
        }
    }

    fn check_range(&self, ppn: Ppn) -> Result<(), FlashError> {
        if ppn.0 >= self.geometry.total_pages() {
            Err(FlashError::OutOfRange(ppn))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::{Fragment, OobEntry, OobKind, UnitPayload};
    use crate::store::{PageHeader, UnitRecord};
    use checkin_sim::{SimDuration, Total};

    fn array() -> FlashArray {
        FlashArray::new(FlashGeometry::small(), FlashTiming::mlc())
    }

    fn page_with(key: u64, version: u64) -> PageContent {
        let mut c = PageContent::empty(8);
        c.units[0] = Some(UnitPayload::single(key, version, 512));
        c
    }

    #[test]
    fn program_then_read_roundtrips_content() {
        let mut f = array();
        f.program(Ppn(0), page_with(7, 1), SimTime::ZERO).unwrap();
        let c = f.read(Ppn(0)).unwrap();
        assert_eq!(c.unit(0).unwrap().iter().next().unwrap().key, 7);
        assert!(f.is_programmed(Ppn(0)));
        assert!(!f.is_programmed(Ppn(1)));
    }

    #[test]
    fn double_program_rejected() {
        let mut f = array();
        f.program(Ppn(0), page_with(1, 1), SimTime::ZERO).unwrap();
        let err = f
            .program(Ppn(0), page_with(1, 2), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, FlashError::ProgramDirtyPage(Ppn(0)));
    }

    #[test]
    fn out_of_order_program_rejected() {
        let mut f = array();
        let err = f
            .program(Ppn(2), page_with(1, 1), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, FlashError::ProgramOutOfOrder { .. }));
    }

    #[test]
    fn erase_resets_block_for_reprogramming() {
        let mut f = array();
        f.program(Ppn(0), page_with(1, 1), SimTime::ZERO).unwrap();
        f.erase(BlockId(0), SimTime::ZERO).unwrap();
        assert!(f.read(Ppn(0)).is_none());
        assert_eq!(f.erase_count(BlockId(0)), 1);
        // After erase, page 0 can be programmed again.
        f.program(Ppn(0), page_with(1, 2), SimTime::ZERO).unwrap();
    }

    #[test]
    fn counters_track_operations() {
        let mut f = array();
        f.program(Ppn(0), page_with(1, 1), SimTime::ZERO).unwrap();
        f.schedule_read(Ppn(0), SimTime::ZERO).unwrap();
        f.erase(BlockId(0), SimTime::ZERO).unwrap();
        assert_eq!(f.counters().total(Total::FlashProgram), 1);
        assert_eq!(f.counters().total(Total::FlashRead), 1);
        assert_eq!(f.counters().total(Total::FlashErase), 1);
        assert_eq!(f.total_erases(), 1);
    }

    #[test]
    fn program_timing_includes_bus_and_array() {
        let mut f = array();
        let w = f.program(Ppn(0), page_with(1, 1), SimTime::ZERO).unwrap();
        let expected = f.timing().transfer_time(4096) + f.timing().t_program;
        assert_eq!(w.finish.duration_since(w.start), expected);
    }

    #[test]
    fn same_die_ops_serialize() {
        let mut f = array();
        // Ppn(0) and Ppn(1) are in block 0: same die.
        let w1 = f.program(Ppn(0), page_with(1, 1), SimTime::ZERO).unwrap();
        let w2 = f.program(Ppn(1), page_with(2, 1), SimTime::ZERO).unwrap();
        assert!(w2.finish > w1.finish);
    }

    #[test]
    fn different_channels_overlap() {
        let mut f = array();
        let g = *f.geometry();
        // Block 0 is channel 0; block 1 is channel 1.
        let p0 = g.first_ppn(BlockId(0));
        let p1 = g.first_ppn(BlockId(1));
        let w0 = f.program(p0, page_with(1, 1), SimTime::ZERO).unwrap();
        let w1 = f.program(p1, page_with(2, 1), SimTime::ZERO).unwrap();
        // Fully parallel: both start at zero.
        assert_eq!(w0.start, w1.start);
        assert_eq!(w0.finish, w1.finish);
    }

    #[test]
    fn a_read_is_sensed_while_the_dies_next_program_waits_for_its_channel() {
        let mut f = FlashArray::new(FlashGeometry::paper_default(), FlashTiming::mlc());
        let g = *f.geometry();
        // Blocks 0 and 4 sit on the two dies of channel 0.
        let (a, b) = (BlockId(0), BlockId(4));
        assert_eq!(g.block_position(a).channel, g.block_position(b).channel);
        assert_ne!(g.die_of_block(a), g.die_of_block(b));
        let t_read = f.timing().t_read;
        // Ten page transfers to die A keep the channel busy past tR, so
        // the program to die B that follows cannot start before then.
        for page in 0..10 {
            f.program(g.ppn_in_block(a, page), page_with(1, 1), SimTime::ZERO)
                .unwrap();
        }
        let program = f
            .program(g.first_ppn(b), page_with(2, 1), SimTime::ZERO)
            .unwrap();
        let array_starts = program.finish - f.timing().t_program;
        assert!(array_starts >= SimTime::ZERO + t_read);
        // Die B is idle until then: a read of it is sensed at once, not
        // after the program it was booked behind.
        let read = f.schedule_read(g.first_ppn(b), SimTime::ZERO).unwrap();
        assert_eq!(read.start, SimTime::ZERO);
        assert!(read.finish < program.finish);
    }

    /// The paper's two-plane array. Blocks stripe channel, die, plane: on
    /// channel 0, die 0 holds blocks 0, 16, 32 … on plane 0 and 8, 24 …
    /// on plane 1; die 1 holds 4, 20 … and 12, 28 ….
    fn two_planes() -> FlashArray {
        FlashArray::new(FlashGeometry::paper_default(), FlashTiming::mlc())
    }

    /// Keeps die 0 erasing block 32 from `at` for tBER, so a page
    /// programmed there meanwhile waits with its data in the register.
    fn erase_die0(f: &mut FlashArray, at: SimTime) {
        f.erase(BlockId(32), at).unwrap();
    }

    fn program(f: &mut FlashArray, block: u64, page: u32, at: SimTime) -> Window {
        let ppn = f.geometry().ppn_in_block(BlockId(block), page);
        f.program(ppn, page_with(block, u64::from(page)), at)
            .unwrap()
    }

    fn joins(f: &FlashArray) -> u64 {
        f.counters().get(Counter::FlashMultiplanePrograms)
    }

    /// Programs page `page` of each of `blocks` as one plane group.
    fn program_group(
        f: &mut FlashArray,
        blocks: &[u64],
        page: u32,
        at: SimTime,
    ) -> Result<Window, FlashError> {
        let g = *f.geometry();
        let group: Vec<(Ppn, PageContent)> = blocks
            .iter()
            .map(|&b| (g.ppn_in_block(BlockId(b), page), page_with(b, 1)))
            .collect();
        f.program_planes(&group, at)
    }

    #[test]
    fn a_page_on_the_other_plane_rides_the_dies_pending_tprog() {
        let mut f = two_planes();
        let t = *f.timing();
        let xfer = t.transfer_time(4096);
        let tracer = Tracer::ring_buffered(8);
        f.set_tracer(tracer.clone());
        // An idle die: the pair still shares one tPROG.
        let w = program_group(&mut f, &[0, 8], 0, SimTime::ZERO).unwrap();
        assert_eq!(w.start, SimTime::ZERO);
        assert_eq!(w.finish, SimTime::ZERO + xfer * 2 + t.t_program);
        assert_eq!(f.die_busy_time(), t.t_program, "one tPROG for both");
        assert_eq!(f.channels()[0].busy_time(), xfer * 2, "two transfers");
        assert_eq!(joins(&f), 1);
        assert_eq!(f.counters().total(Total::FlashProgram), 2);
        assert!(f.is_programmed(Ppn(0)) && f.is_programmed(Ppn(8 * 256)));
        let multiplane: Vec<bool> = tracer
            .drain()
            .iter()
            .filter(|e| e.op == "program")
            .map(|e| e.fields().contains(&("multiplane", 1)))
            .collect();
        assert_eq!(multiplane, [false, true], "one event per page");
        // Both pages are the program's own until it finishes.
        for block in [0, 8] {
            assert_eq!(
                f.read_ahead_of_programs(Ppn(block * 256), us(100), |_, _| true),
                Ok(ForegroundRead::Programming)
            );
        }
    }

    #[test]
    fn join_needs_the_other_plane() {
        let mut f = two_planes();
        // Block 16 is on plane 0 too, at the same page index.
        assert_eq!(
            program_group(&mut f, &[0, 16], 0, SimTime::ZERO),
            Err(FlashError::NotAPlaneGroup(Ppn(16 * 256)))
        );
        assert!(!f.is_programmed(Ppn(0)), "a refused group lands nothing");
        assert_eq!(f.die_busy_time(), SimDuration::ZERO);
    }

    #[test]
    fn join_needs_the_same_die() {
        let mut f = two_planes();
        // Block 12: channel 0, the other die, plane 1.
        assert_eq!(
            program_group(&mut f, &[0, 12], 0, SimTime::ZERO),
            Err(FlashError::NotAPlaneGroup(Ppn(12 * 256)))
        );
        assert_eq!(f.counters().total(Total::FlashProgram), 0);
    }

    #[test]
    fn join_needs_the_same_page_index() {
        let mut f = two_planes();
        program(&mut f, 8, 0, SimTime::ZERO);
        let g = *f.geometry();
        let group = [
            (g.ppn_in_block(BlockId(0), 0), page_with(0, 1)),
            (g.ppn_in_block(BlockId(8), 1), page_with(8, 1)),
        ];
        let ticks = |f: &FlashArray| f.fault_plan().map(|p| p.ticks());
        f.arm_faults(FaultPlan::new(crate::fault::FaultConfig::default()));
        let before = ticks(&f);
        assert_eq!(
            f.program_planes(&group, SimTime::ZERO),
            Err(FlashError::NotAPlaneGroup(group[1].0))
        );
        assert_eq!(ticks(&f), before, "refused before any tick");
        assert_eq!(f.write_cursor(BlockId(0)), 0);
        assert_eq!(f.write_cursor(BlockId(8)), 1);
    }

    /// Two program calls never share a tPROG, however early the second
    /// page's data is in its register.
    #[test]
    fn two_calls_never_share_a_tprog() {
        let mut f = two_planes();
        let t_prog = f.timing().t_program;
        erase_die0(&mut f, SimTime::ZERO);
        let a = program(&mut f, 0, 0, SimTime::ZERO);
        let b = program(&mut f, 8, 0, SimTime::ZERO);
        assert_eq!(a.finish, SimTime::ZERO + f.timing().t_erase + t_prog);
        assert_eq!(b.finish, a.finish + t_prog);
        assert_eq!(joins(&f), 0);
        // One call with both pages, behind the same erase: one tPROG.
        let mut f = two_planes();
        erase_die0(&mut f, SimTime::ZERO);
        let pair = program_group(&mut f, &[0, 8], 0, SimTime::ZERO).unwrap();
        assert_eq!(pair.finish, a.finish);
    }

    #[test]
    fn one_page_per_plane_per_tprog() {
        let mut f = two_planes();
        // Block 24 is plane 1 again: a plane the group already holds.
        assert_eq!(
            program_group(&mut f, &[0, 8, 24], 0, SimTime::ZERO),
            Err(FlashError::NotAPlaneGroup(Ppn(24 * 256)))
        );
        // More pages than one tPROG's record holds, on a die with room.
        let mut wide = FlashArray::new(
            FlashGeometry {
                channels: 1,
                dies_per_channel: 1,
                planes_per_die: 16,
                blocks_per_plane: 1,
                pages_per_block: 4,
                page_bytes: 4096,
            },
            FlashTiming::mlc(),
        );
        let blocks: Vec<u64> = (0..=MAX_PLANE_GROUP as u64).collect();
        assert_eq!(
            program_group(&mut wide, &blocks, 0, SimTime::ZERO),
            Err(FlashError::NotAPlaneGroup(Ppn(MAX_PLANE_GROUP as u64 * 4)))
        );
        let w = program_group(&mut wide, &blocks[..MAX_PLANE_GROUP], 0, SimTime::ZERO).unwrap();
        assert_eq!(wide.die_busy_time(), wide.timing().t_program);
        assert_eq!(joins(&wide), MAX_PLANE_GROUP as u64 - 1);
        assert!(w.finish > w.start);
    }

    #[test]
    fn the_latest_starting_program_stays_the_record() {
        let mut f = two_planes();
        let ms = SimDuration::from_millis;
        erase_die0(&mut f, SimTime::ZERO + ms(1));
        // A pair after the erase: the die's latest program.
        let pair = program_group(&mut f, &[0, 8], 0, SimTime::ZERO + ms(2)).unwrap();
        // Fits the idle millisecond before the erase: earlier, so it does
        // not displace the pair as the record reads go ahead of.
        let early = program(&mut f, 16, 0, SimTime::ZERO);
        assert!(early.finish < SimTime::ZERO + ms(1));
        let (_, moved) = read_ahead(&mut f, Ppn(24 * 256), SimTime::ZERO + ms(3));
        let moved = moved.unwrap();
        assert_eq!((moved.from, moved.pages), (pair.finish, 2));
    }

    #[test]
    fn a_pair_keeps_a_fault_tick_a_count_and_an_event_per_page() {
        use crate::fault::FaultConfig;
        let mut f = two_planes();
        f.arm_faults(FaultPlan::new(FaultConfig::default()));
        let tracer = Tracer::ring_buffered(8);
        f.set_tracer(tracer.clone());
        program_group(&mut f, &[0, 8], 0, SimTime::ZERO).unwrap();
        assert_eq!(f.fault_plan().unwrap().ticks(), 2);
        assert_eq!(f.counters().get(Counter::FlashProgramRun), 2);
        let events: Vec<u64> = tracer
            .drain()
            .iter()
            .filter(|e| e.op == "program")
            .map(|e| e.fields().iter().find(|f| f.0 == "ppn").unwrap().1)
            .collect();
        assert_eq!(events, [0, 8 * 256]);
    }

    /// A cut on the pair's second tick: fail-stop lands neither page;
    /// torn lands the first intact and tears only the second.
    #[test]
    fn a_cut_on_the_second_page_of_a_pair() {
        use crate::fault::FaultConfig;
        let mut f = two_planes();
        f.arm_faults(FaultPlan::new(FaultConfig::power_cut(7, 2)));
        let err = program_group(&mut f, &[0, 8], 0, SimTime::ZERO).unwrap_err();
        assert_eq!(err, FlashError::PowerLoss);
        assert_eq!(f.fault_plan().unwrap().ticks(), 2, "cut on the second tick");
        assert!(!f.is_programmed(Ppn(0)) && !f.is_programmed(Ppn(8 * 256)));
        assert_eq!(f.counters().total(Total::FlashProgram), 0);
        assert_eq!(f.die_busy_time(), SimDuration::ZERO);

        let mut torn = 0;
        for seed in 0..32 {
            let mut f = two_planes();
            f.arm_faults(FaultPlan::new(FaultConfig {
                torn_writes: true,
                ..FaultConfig::power_cut(seed, 2)
            }));
            program_group(&mut f, &[0, 8], 0, SimTime::ZERO).unwrap_err();
            assert!(
                f.read(Ppn(0)).unwrap().intact(),
                "seed {seed}: the first is whole"
            );
            assert!(f.is_programmed(Ppn(8 * 256)));
            assert_eq!(f.counters().get(Counter::FlashTornWrites), 1);
            assert_eq!(f.counters().total(Total::FlashProgram), 1);
            torn += u32::from(!f.read(Ppn(8 * 256)).unwrap().intact());
        }
        assert!(torn > 0, "some seed tears inside the second page");
    }

    // ---- reads before programs (`read_ahead_of_programs`) -------------
    //
    // `array()` is one plane per die; blocks 0 and 2 share die 0. Its
    // lone program of page 0 of block 0, issued at zero, crosses the
    // channel in 5.12 us and programs from then until 665.12 us.

    fn us(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(n)
    }

    /// Page `page` of block 2: die 0, never programmed by these tests.
    fn other_page(page: u64) -> Ppn {
        Ppn(2 * 32 + page)
    }

    /// A foreground read that may move whatever it goes ahead of.
    fn read_ahead(f: &mut FlashArray, ppn: Ppn, at: SimTime) -> (Window, Option<MovedProgram>) {
        match f.read_ahead_of_programs(ppn, at, |_, _| true).unwrap() {
            ForegroundRead::Sensed { window, moved } => (window, moved),
            ForegroundRead::Programming => panic!("{ppn} is not programming"),
        }
    }

    fn lone_program(f: &mut FlashArray) -> Window {
        f.program(Ppn(0), page_with(1, 1), SimTime::ZERO).unwrap()
    }

    #[test]
    fn a_read_suspends_a_running_program() {
        let mut f = array();
        let t = *f.timing();
        let xfer = t.transfer_time(4096);
        let p = lone_program(&mut f);
        let (read, moved) = read_ahead(&mut f, other_page(0), us(100));
        assert_eq!(read.start, us(100) + t.t_suspend);
        assert_eq!(read.finish, us(100) + t.t_suspend + t.t_read + xfer);
        let to = p.finish + t.t_suspend + t.t_read;
        assert_eq!(
            moved,
            Some(MovedProgram {
                from: p.finish,
                to,
                pages: 1
            })
        );
        // The die did the program, the suspend and the sense, nothing
        // twice; the extension is a booking at its end.
        let die = f.dies().next().unwrap();
        assert_eq!(die.busy_time(), t.t_program + t.t_suspend + t.t_read);
        assert_eq!(die.available_at(), to);
        assert!(die.busy_time() <= die.span());
        let c = f.counters();
        assert_eq!(c.get(Counter::FlashProgramSuspends), 1);
        assert_eq!(c.get(Counter::FlashReadDieWaitNs), t.t_suspend.as_nanos());
        assert_eq!(c.get(Counter::FlashReadRun), 1);
    }

    #[test]
    fn a_read_during_a_suspension_queues_behind_it() {
        let mut f = array();
        let t = *f.timing();
        let p = lone_program(&mut f);
        let (first, _) = read_ahead(&mut f, other_page(0), us(100));
        let sensed = first.start + t.t_read;
        // Arrives while the first read holds the program suspended.
        let (second, moved) = read_ahead(&mut f, other_page(1), us(120));
        assert_eq!(second.start, sensed);
        let moved = moved.unwrap();
        assert_eq!(moved.to, p.finish + t.t_suspend + t.t_read * 2);
        assert_eq!(moved.to - moved.from, t.t_read, "no second suspend");
        assert_eq!(f.counters().get(Counter::FlashProgramSuspends), 1);
    }

    #[test]
    fn a_program_is_suspended_at_most_twice() {
        let mut f = array();
        let t = *f.timing();
        lone_program(&mut f);
        for at in [100, 300] {
            let (read, moved) = read_ahead(&mut f, other_page(0), us(at));
            assert_eq!(read.start, us(at) + t.t_suspend);
            assert!(moved.is_some());
        }
        // The third waits the program out.
        let finish = f.dies().next().unwrap().available_at();
        let (read, moved) = read_ahead(&mut f, other_page(0), us(500));
        assert_eq!((read.start, moved), (finish, None));
        assert_eq!(
            f.counters().get(Counter::FlashProgramSuspends),
            u64::from(MAX_SUSPENDS_PER_PROGRAM)
        );
    }

    #[test]
    fn a_program_about_to_finish_is_not_suspended() {
        let t = FlashTiming::mlc();
        let cost = t.t_suspend + t.t_read;
        // Issued when `left` of the program remains.
        let read_with = |left: SimDuration| {
            let mut f = array();
            let p = lone_program(&mut f);
            read_ahead(&mut f, other_page(0), p.finish - left)
        };
        let (read, moved) = read_with(cost);
        assert!(moved.is_none());
        assert_eq!(
            read.start,
            SimTime::ZERO + t.transfer_time(4096) + t.t_program
        );
        let (_, moved) = read_with(cost + SimDuration::from_nanos(1));
        assert!(moved.is_some());
    }

    #[test]
    fn a_read_overtakes_a_program_not_yet_started() {
        let mut f = array();
        let t = *f.timing();
        // The die erases until 3.5 ms; the program waits for it.
        f.erase(BlockId(2), SimTime::ZERO).unwrap();
        let p = lone_program(&mut f);
        let start = SimTime::ZERO + t.t_erase;
        assert_eq!(p.finish, start + t.t_program);
        let (read, moved) = read_ahead(&mut f, other_page(0), us(1_000));
        assert_eq!(read.start, start, "sensed first");
        assert_eq!(moved.unwrap().to, p.finish + t.t_read, "shifted by tR");
        assert_eq!(f.counters().get(Counter::FlashReadOvertakes), 1);
        assert_eq!(f.counters().get(Counter::FlashProgramSuspends), 0);
        // The next read overtakes it again, behind the first.
        let (read, _) = read_ahead(&mut f, other_page(1), us(1_000));
        assert_eq!(read.start, start + t.t_read);
    }

    /// Bookings are not made in time order: a read issued before the
    /// program started, booked after one that suspended it, must not
    /// sense at the start — the program was already running there.
    #[test]
    fn a_read_from_before_the_start_queues_behind_a_suspension() {
        let mut f = array();
        let t = *f.timing();
        let p = lone_program(&mut f);
        let (first, _) = read_ahead(&mut f, other_page(0), us(100));
        let (early, moved) = read_ahead(&mut f, other_page(1), SimTime::ZERO);
        assert_eq!(early.start, first.start + t.t_read);
        assert_eq!(moved.unwrap().to, p.finish + t.t_suspend + t.t_read * 2);
        assert_eq!(f.counters().get(Counter::FlashReadOvertakes), 0);
    }

    #[test]
    fn a_read_that_fits_an_earlier_gap_keeps_it() {
        let mut f = array();
        // Idle until the erase at 1 ms, then the program.
        f.erase(BlockId(2), us(1_000)).unwrap();
        let p = f.program(Ppn(0), page_with(1, 1), us(1_000)).unwrap();
        let (read, moved) = read_ahead(&mut f, other_page(0), SimTime::ZERO);
        assert_eq!((read.start, moved), (SimTime::ZERO, None));
        assert_eq!(f.dies().next().unwrap().available_at(), p.finish);
    }

    #[test]
    fn a_read_of_a_page_still_programming_is_served_at_once() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut f = array();
        f.arm_faults(FaultPlan::new(FaultConfig::default()));
        let p = lone_program(&mut f);
        let ticks = f.fault_plan().unwrap().ticks();
        assert_eq!(
            f.read_ahead_of_programs(Ppn(0), us(100), |_, _| true),
            Ok(ForegroundRead::Programming)
        );
        assert_eq!(f.fault_plan().unwrap().ticks(), ticks, "no media tick");
        assert_eq!(f.counters().total(Total::FlashRead), 0);
        assert_eq!(f.dies().next().unwrap().available_at(), p.finish);
        // Once programmed, it is sensed like any page.
        let (read, _) = read_ahead(&mut f, Ppn(0), p.finish);
        assert_eq!(read.start, p.finish);
    }

    #[test]
    fn only_the_dies_last_reservation_gives_way() {
        let mut f = array();
        let t = *f.timing();
        let p = lone_program(&mut f);
        // An erase booked behind the program: the program's finish is no
        // longer the die's end.
        let erase = f.erase(BlockId(2), SimTime::ZERO).unwrap();
        assert_eq!(erase.start, p.finish);
        let (read, moved) = read_ahead(&mut f, other_page(0), us(100));
        assert_eq!((read.start, moved), (erase.finish, None));
        assert_eq!(
            f.dies().next().unwrap().busy_time(),
            t.t_program + t.t_erase + t.t_read
        );
    }

    #[test]
    fn a_program_whose_finish_was_handed_out_is_waited_for() {
        let mut f = array();
        let p = lone_program(&mut f);
        let mut asked = None;
        let read = f
            .read_ahead_of_programs(other_page(0), us(100), |finish, pages| {
                asked = Some((finish, pages));
                false
            })
            .unwrap();
        assert_eq!(asked, Some((p.finish, 1)));
        let ForegroundRead::Sensed { window, moved } = read else {
            panic!("sensed")
        };
        assert_eq!((window.start, moved), (p.finish, None));
        assert_eq!(f.counters().get(Counter::FlashProgramSuspends), 0);
    }

    #[test]
    fn a_background_read_never_goes_ahead() {
        let mut f = array();
        let p = lone_program(&mut f);
        let read = f.schedule_read(other_page(0), us(100)).unwrap();
        assert_eq!(read.start, p.finish);
        assert_eq!(
            f.dies().next().unwrap().available_at(),
            read.start + f.timing().t_read
        );
    }

    #[test]
    fn a_page_that_joined_moves_and_reads_with_the_program() {
        let mut f = two_planes();
        let t = *f.timing();
        erase_die0(&mut f, SimTime::ZERO);
        let pair = program_group(&mut f, &[0, 8], 0, SimTime::ZERO).unwrap();
        // Overtaken before it starts: the pair starts tR later, and moves
        // as one program of two pages.
        let other = Ppn(16 * 256);
        let (_, moved) = read_ahead(&mut f, other, us(1_000));
        let moved = moved.unwrap();
        assert_eq!((moved.to, moved.pages), (pair.finish + t.t_read, 2));
        assert!(matches!(
            f.read_ahead_of_programs(Ppn(8 * 256), us(1_000), |_, _| true),
            Ok(ForegroundRead::Programming)
        ));
    }

    // ---- plane-pair reads (`read_beside`) ------------------------------

    #[test]
    fn a_read_rides_its_plane_partners_tr() {
        let mut f = two_planes();
        let t = *f.timing();
        let xfer = t.transfer_time(4096);
        program_group(&mut f, &[0, 8], 0, SimTime::ZERO).unwrap();
        let idle = us(10_000);
        let tracer = Tracer::ring_buffered(8);
        f.set_tracer(tracer.clone());
        let first = f.schedule_read(Ppn(0), idle).unwrap();
        let second = f
            .read_beside(Ppn(8 * 256), Ppn(0), first.start, idle)
            .unwrap()
            .unwrap();
        assert_eq!(second.start, first.start, "sensed in the same tR");
        assert_eq!(second.finish, first.finish + xfer, "its own transfer");
        assert_eq!(f.die_busy_time(), t.t_program + t.t_read, "one tR");
        assert_eq!(f.counters().total(Total::FlashRead), 2);
        assert_eq!(f.counters().get(Counter::FlashMultiplaneReads), 1);
        let multiplane: Vec<bool> = tracer
            .drain()
            .iter()
            .map(|e| e.fields().contains(&("multiplane", 1)))
            .collect();
        assert_eq!(multiplane, [false, true]);
    }

    #[test]
    fn a_read_rides_only_a_partner_on_its_die_and_page_index() {
        let mut f = two_planes();
        for block in [0, 8, 12, 16] {
            program(&mut f, block, 0, SimTime::ZERO);
        }
        program(&mut f, 8, 1, SimTime::ZERO);
        let idle = us(10_000);
        let sensed = f.schedule_read(Ppn(0), idle).unwrap().start;
        let ppn = |block: u64, page: u64| Ppn(block * 256 + page);
        for (page, why) in [
            (ppn(16, 0), "same plane"),
            (ppn(12, 0), "other die"),
            (ppn(8, 1), "other page index"),
        ] {
            assert_eq!(
                f.read_beside(page, Ppn(0), sensed, idle),
                Err(FlashError::NotAPlaneGroup(page)),
                "{why}"
            );
        }
        assert_eq!(f.counters().get(Counter::FlashMultiplaneReads), 0);
    }

    #[test]
    fn a_page_still_programming_does_not_ride() {
        let mut f = two_planes();
        program(&mut f, 0, 0, SimTime::ZERO);
        let late = program(&mut f, 8, 0, SimTime::ZERO);
        // A sense of page 0 before page 8's program is over: page 8 is
        // not on the array yet.
        let sensed = late.finish - SimDuration::from_nanos(1);
        assert_eq!(
            f.read_beside(Ppn(8 * 256), Ppn(0), sensed, sensed),
            Ok(None)
        );
        assert_eq!(f.counters().total(Total::FlashRead), 0);
        assert!(f
            .read_beside(Ppn(8 * 256), Ppn(0), late.finish, late.finish)
            .unwrap()
            .is_some());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before it was issued")]
    fn a_read_does_not_ride_a_tr_that_started_before_it() {
        let mut f = two_planes();
        program_group(&mut f, &[0, 8], 0, SimTime::ZERO).unwrap();
        let idle = us(10_000);
        let first = f.schedule_read(Ppn(0), idle).unwrap();
        let _ = f.read_beside(Ppn(8 * 256), Ppn(0), first.start, first.finish);
    }

    #[test]
    fn out_of_range_detected() {
        let mut f = array();
        let total = f.geometry().total_pages();
        assert!(matches!(
            f.schedule_read(Ppn(total), SimTime::ZERO),
            Err(FlashError::OutOfRange(_))
        ));
        assert!(matches!(
            f.erase(BlockId(f.geometry().total_blocks()), SimTime::ZERO),
            Err(FlashError::BlockOutOfRange(_))
        ));
    }

    /// A retired (grown-bad) block stops wearing; the mean must describe
    /// the blocks still in service, not dilute itself over dead ones.
    #[test]
    fn mean_erase_count_excludes_retired_blocks() {
        let mut f = array();
        let total = f.geometry().total_blocks();
        f.erase(BlockId(0), SimTime::ZERO).unwrap();
        f.erase(BlockId(0), SimTime::ZERO).unwrap();
        f.erase(BlockId(1), SimTime::ZERO).unwrap();
        f.erase(BlockId(1), SimTime::ZERO).unwrap();
        let healthy = f.mean_erase_count();
        assert!((healthy - 4.0 / total as f64).abs() < 1e-12);

        // Block 0 develops a grown defect: its two erases and its slot in
        // the denominator both leave the mean.
        f.bad_blocks[0] = true;
        let after = f.mean_erase_count();
        assert!(
            (after - 2.0 / (total - 1) as f64).abs() < 1e-12,
            "mean {after} must cover only the {} in-service blocks",
            total - 1
        );
        assert!(after > 0.0 && after < healthy * 2.0);

        // Every block bad: no in-service wear to report, not NaN.
        for i in 0..total as usize {
            f.bad_blocks[i] = true;
        }
        assert_eq!(f.mean_erase_count(), 0.0);
    }

    #[test]
    fn scheduled_power_cut_freezes_device_without_mutation() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut f = array();
        f.program(Ppn(0), page_with(1, 1), SimTime::ZERO).unwrap();
        // Next fault-clock tick is the cut: the program must fail before
        // touching page state.
        f.arm_faults(FaultPlan::new(FaultConfig::power_cut(3, 1)));
        let err = f
            .program(Ppn(1), page_with(2, 1), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, FlashError::PowerLoss);
        assert!(f.powered_off());
        assert!(!f.is_programmed(Ppn(1)));
        assert_eq!(f.write_cursor(BlockId(0)), 1, "cursor untouched by cut");
        // Everything timed now fails; untimed content reads still work.
        assert_eq!(
            f.schedule_read(Ppn(0), SimTime::ZERO).unwrap_err(),
            FlashError::PowerLoss
        );
        assert_eq!(
            f.erase(BlockId(0), SimTime::ZERO).unwrap_err(),
            FlashError::PowerLoss
        );
        assert_eq!(f.logical_tick().unwrap_err(), FlashError::PowerLoss);
        assert!(f.read(Ppn(0)).is_some(), "recovery scans stay possible");
        // Power back on: the cut was one-shot, operations succeed again.
        f.power_on();
        f.program(Ppn(1), page_with(2, 1), SimTime::ZERO).unwrap();
        assert_eq!(f.counters().get(Counter::FlashPowerCuts), 1);
    }

    #[test]
    fn cut_before_erase_preserves_block_content() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut f = array();
        f.program(Ppn(0), page_with(9, 1), SimTime::ZERO).unwrap();
        f.arm_faults(FaultPlan::new(FaultConfig::power_cut(0, 1)));
        assert_eq!(
            f.erase(BlockId(0), SimTime::ZERO).unwrap_err(),
            FlashError::PowerLoss
        );
        assert!(f.read(Ppn(0)).is_some(), "erase must not have started");
        assert_eq!(f.erase_count(BlockId(0)), 0);
    }

    #[test]
    fn grown_bad_block_is_permanent() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut f = array();
        f.arm_faults(FaultPlan::new(FaultConfig {
            seed: 11,
            grown_bad_block: 1.0,
            ..FaultConfig::default()
        }));
        let err = f
            .program(Ppn(0), page_with(1, 1), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, FlashError::GrownBadBlock(BlockId(0)));
        assert!(f.is_bad_block(BlockId(0)));
        assert!(!f.is_programmed(Ppn(0)));
        // Later attempts fail up front without consuming fault ticks.
        let ticks = f.fault_plan().unwrap().ticks();
        assert_eq!(
            f.program(Ppn(0), page_with(1, 1), SimTime::ZERO)
                .unwrap_err(),
            FlashError::GrownBadBlock(BlockId(0))
        );
        assert_eq!(
            f.erase(BlockId(0), SimTime::ZERO).unwrap_err(),
            FlashError::GrownBadBlock(BlockId(0))
        );
        assert_eq!(f.fault_plan().unwrap().ticks(), ticks);
        assert_eq!(f.counters().get(Counter::FlashGrownBadBlocks), 1);
    }

    #[test]
    fn transient_program_leaves_page_erased_and_retry_succeeds() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut f = array();
        f.arm_faults(FaultPlan::new(FaultConfig {
            seed: 5,
            transient_program: 0.5,
            ..FaultConfig::default()
        }));
        // With a 50% rate some attempts fail; a failed attempt must leave
        // the page erased so the retry targets the same address.
        let mut failures = 0;
        let mut page = 0u64;
        while page < 8 {
            match f.program(Ppn(page), page_with(page, 1), SimTime::ZERO) {
                Ok(_) => page += 1,
                Err(FlashError::TransientProgram(p)) => {
                    assert_eq!(p, Ppn(page));
                    assert!(!f.is_programmed(Ppn(page)));
                    failures += 1;
                    assert!(failures < 1000, "rate 0.5 cannot fail forever");
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(failures > 0, "seed 5 should produce at least one failure");
        assert_eq!(f.counters().get(Counter::FlashTransientFaults), failures);
        for p in 0..8u64 {
            assert!(f.is_programmed(Ppn(p)));
        }
    }

    #[test]
    fn programs_seal_checksums_that_reads_can_verify() {
        let mut f = array();
        f.program(Ppn(0), page_with(7, 3), SimTime::ZERO).unwrap();
        let c = f.read(Ppn(0)).unwrap();
        assert_eq!(
            c.unit_crc(0),
            Some(crate::unit_checksum(&UnitPayload::single(7, 3, 512)))
        );
        assert!(c.intact());
    }

    #[test]
    fn torn_write_commits_a_detectably_corrupt_page() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut f = array();
        // Sweep seeds until one tears inside the payload (the drawn
        // boundary may also legitimately land past the last unit).
        let mut saw_corrupt = false;
        for seed in 0..64u64 {
            let mut f2 = array();
            f2.arm_faults(FaultPlan::new(FaultConfig {
                torn_writes: true,
                ..FaultConfig::power_cut(seed, 1)
            }));
            let err = f2
                .program(Ppn(0), page_with(5, 1), SimTime::ZERO)
                .unwrap_err();
            assert_eq!(err, FlashError::PowerLoss);
            assert!(f2.powered_off());
            // Unlike the fail-stop model the page *is* on the media.
            assert!(f2.is_programmed(Ppn(0)));
            assert_eq!(f2.write_cursor(BlockId(0)), 1);
            assert_eq!(f2.counters().get(Counter::FlashTornWrites), 1);
            assert_eq!(f2.counters().total(Total::FlashProgram), 0);
            if !f2.read(Ppn(0)).unwrap().intact() {
                saw_corrupt = true;
                f = f2;
                break;
            }
        }
        assert!(saw_corrupt, "some seed must tear inside the payload");
        // The torn page never verifies until the block is erased.
        assert!(!f.read(Ppn(0)).unwrap().intact());
    }

    #[test]
    fn torn_writes_off_keeps_fail_stop_behavior() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut f = array();
        f.arm_faults(FaultPlan::new(FaultConfig::power_cut(3, 1)));
        let err = f
            .program(Ppn(0), page_with(5, 1), SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, FlashError::PowerLoss);
        assert!(!f.is_programmed(Ppn(0)));
        assert_eq!(f.write_cursor(BlockId(0)), 0);
        assert_eq!(f.counters().get(Counter::FlashTornWrites), 0);
    }

    #[test]
    fn misdirected_program_lands_with_mismatched_checksums() {
        use crate::fault::{FaultConfig, FaultPlan};
        let mut f = array();
        f.arm_faults(FaultPlan::new(FaultConfig {
            seed: 21,
            misdirected_program: 1.0,
            ..FaultConfig::default()
        }));
        // The program reports success...
        f.program(Ppn(0), page_with(9, 2), SimTime::ZERO).unwrap();
        assert_eq!(f.counters().get(Counter::FlashMisdirectedPrograms), 1);
        assert_eq!(f.counters().total(Total::FlashProgram), 1);
        // ...but the landed page fails verification.
        assert!(!f.read(Ppn(0)).unwrap().intact());
    }

    #[test]
    fn bit_rot_corrupts_programmed_pages_latently() {
        use crate::content::{OobEntry, OobKind};
        use crate::fault::{FaultConfig, FaultPlan};
        let mut f = array();
        let mut page = page_with(3, 1);
        page.oob.push(OobEntry {
            lpn: 3,
            sequence: 1,
            kind: OobKind::Data,
        });
        f.program(Ppn(0), page, SimTime::ZERO).unwrap();
        f.arm_faults(FaultPlan::new(FaultConfig {
            seed: 17,
            bit_rot_data: 1.0,
            bit_rot_oob: 1.0,
            ..FaultConfig::default()
        }));
        // Any fault-clock tick now decays the stored page.
        f.logical_tick().unwrap();
        assert!(f.counters().get(Counter::FlashBitRotData) >= 1);
        assert!(f.counters().get(Counter::FlashBitRotOob) >= 1);
        let c = f.read(Ppn(0)).unwrap();
        assert!(!c.intact(), "rot must break verification");
        // Erasing the block launders the corruption away entirely.
        f.arm_faults(FaultPlan::new(FaultConfig::default()));
        f.erase(BlockId(0), SimTime::ZERO).unwrap();
        f.program(Ppn(0), page_with(3, 2), SimTime::ZERO).unwrap();
        assert!(f.read(Ppn(0)).unwrap().intact());
    }

    /// The drawn start page, the victim, every later draw and the flipped
    /// bits are those of a page-at-a-time probe over the whole device —
    /// the skip-ahead lookup must not move a seeded fault.
    #[test]
    fn bit_rot_hits_the_naive_probes_victim_with_the_same_draws() {
        use crate::content::{OobEntry, OobKind};
        use crate::fault::{FaultConfig, FaultPlan};
        let plan = |seed| {
            FaultPlan::new(FaultConfig {
                seed,
                ..FaultConfig::default()
            })
        };
        for seed in 0..300u64 {
            // A random array state: most blocks erased, some partly or
            // fully programmed, a few pages without OOB or payload.
            let mut f = array();
            let g = *f.geometry();
            let total = g.total_pages();
            let mut state = plan(seed);
            for b in (0..g.total_blocks()).map(BlockId) {
                if state.draw_below(1 + seed % 5) != 0 {
                    continue;
                }
                for p in 0..state.draw_below(g.pages_per_block as u64 + 1) {
                    let mut c = PageContent::empty(8);
                    for u in 0..state.draw_below(4) {
                        let slot = state.draw_below(8) as usize;
                        c.units[slot] = Some(UnitPayload::single(b.0 * 100 + p, u + 1, 512));
                        c.oob.push(OobEntry {
                            lpn: b.0 * 100 + p,
                            sequence: u,
                            kind: OobKind::Data,
                        });
                    }
                    f.program(g.ppn_in_block(b, p as u32), c, SimTime::ZERO)
                        .unwrap();
                }
            }
            f.arm_faults(plan(!seed));
            let mut reference = plan(!seed);
            let mut expected: Vec<Option<PageContent>> = (0..total)
                .map(|p| f.read(Ppn(p)).map(|v| v.to_content()))
                .collect();

            let data = seed % 2 == 0;
            f.apply_bit_rot(data);

            let start = reference.draw_below(total);
            let victim = (0..total)
                .map(|off| ((start + off) % total) as usize)
                .find(|&p| expected[p].is_some());
            if let Some(c) = victim.and_then(|p| expected[p].as_mut()) {
                let mask = 1u64 << reference.draw_below(48);
                if data && !c.units.is_empty() {
                    let n = c.units.len();
                    let start_u = reference.draw_below(n as u64) as usize;
                    let hit = (0..n)
                        .map(|off| (start_u + off) % n)
                        .find(|&i| c.units[i].is_some());
                    if let Some(unit) = hit.and_then(|i| c.units[i].as_mut()) {
                        for f in unit.fragments.as_mut_slice() {
                            f.version ^= mask;
                            f.key ^= mask;
                        }
                    }
                } else if !data && !c.oob.is_empty() {
                    let i = reference.draw_below(c.oob.len() as u64) as usize;
                    c.oob[i].lpn ^= mask;
                    c.oob[i].sequence ^= mask.rotate_left(17);
                }
            }
            for p in 0..total {
                assert_eq!(
                    f.read(Ppn(p)).map(|v| v.to_content()),
                    expected[p as usize],
                    "seed {seed} {p}"
                );
            }
            assert_eq!(
                f.fault_draw(u64::MAX),
                reference.draw_below(u64::MAX),
                "seed {seed}: RNG draws consumed differ"
            );
        }
    }

    /// A block owns no page memory until its first program, which
    /// reserves the whole block once; erase empties it but keeps the
    /// reservation, so a recycled block never allocates again.
    #[test]
    fn block_memory_is_first_touch_and_survives_erase() {
        let mut f = array();
        let ppb = f.geometry().pages_per_block;
        assert_eq!(f.store_bytes(), 0);
        f.program(Ppn(0), page_with(1, 1), SimTime::ZERO).unwrap();
        let reserved = f.store_bytes();
        // A header and eight records per page; a single-fragment unit
        // has no extra fragments, so that arena stays unallocated.
        let per_page = size_of::<PageHeader>() + 8 * size_of::<UnitRecord>();
        assert_eq!(reserved, (ppb as usize * per_page) as u64);
        for p in 1..ppb as u64 {
            f.program(Ppn(p), page_with(p, 1), SimTime::ZERO).unwrap();
        }
        assert_eq!(f.store_bytes(), reserved, "block filled in place");
        f.erase(BlockId(0), SimTime::ZERO).unwrap();
        assert_eq!(f.write_cursor(BlockId(0)), 0);
        assert_eq!(f.store_bytes(), reserved, "erase keeps capacity");
        f.program(Ppn(0), page_with(1, 2), SimTime::ZERO).unwrap();
        assert_eq!(f.store_bytes(), reserved);
        assert!(f.blocks[1..].iter().all(|b| b.store.capacity_bytes() == 0));
    }

    /// A page with one single-fragment unit and its OOB record.
    fn page_with_oob(key: u64, version: u64) -> PageContent {
        let mut c = page_with(key, version);
        c.oob.push(OobEntry {
            lpn: key,
            sequence: version,
            kind: OobKind::Data,
        });
        c
    }

    /// Verification is never cached: a flip after a read that verified
    /// fails the next read, and so does every later one.
    #[test]
    fn a_flip_after_a_verified_read_fails_the_next_one() {
        let mut f = array();
        f.program(Ppn(0), page_with_oob(4, 1), SimTime::ZERO)
            .unwrap();
        assert!(f.read(Ppn(0)).unwrap().intact());
        assert!(f.sabotage_corrupt_unit(Ppn(0), 0, 1 << 5));
        assert!(!f.read(Ppn(0)).unwrap().unit_intact(0));
        assert!(f.read(Ppn(0)).unwrap().oob_intact(0));
        assert!(f.sabotage_corrupt_oob(Ppn(0), 0, 1 << 9));
        let view = f.read(Ppn(0)).unwrap();
        assert!(!view.unit_intact(0) && !view.oob_intact(0));
        // The seals stay those of what was programmed.
        assert_eq!(
            view.unit_crc(0),
            Some(crate::unit_checksum(&UnitPayload::single(4, 1, 512)))
        );
        assert_eq!(f.sealed_slots(), 1, "one slot, sealed once");
        f.check_seals().unwrap();
    }

    /// The same mask flipped twice restores the stored bits, and the
    /// slot verifies again against the seal its first flip kept.
    #[test]
    fn a_flip_undone_verifies_again() {
        let mut f = array();
        f.program(Ppn(0), page_with_oob(4, 1), SimTime::ZERO)
            .unwrap();
        for _ in 0..2 {
            assert!(f.sabotage_corrupt_unit(Ppn(0), 0, 1 << 5));
            assert!(f.sabotage_corrupt_oob(Ppn(0), 0, 1 << 3));
        }
        assert!(f.read(Ppn(0)).unwrap().intact());
        assert_eq!(f.sealed_slots(), 1);
        f.check_seals().unwrap();
    }

    /// Erase forgets the block's seals and only its own: a page
    /// programmed again verifies, and another block's damage stays.
    #[test]
    fn erase_forgets_the_blocks_seals() {
        let mut f = array();
        let other = f.geometry().first_ppn(BlockId(1));
        f.program(Ppn(0), page_with_oob(1, 1), SimTime::ZERO)
            .unwrap();
        f.program(Ppn(1), page_with_oob(2, 1), SimTime::ZERO)
            .unwrap();
        f.program(other, page_with_oob(3, 1), SimTime::ZERO)
            .unwrap();
        assert!(f.sabotage_corrupt_unit(Ppn(1), 0, 1 << 2));
        assert!(f.sabotage_corrupt_oob(Ppn(0), 0, 1 << 2));
        assert!(f.sabotage_corrupt_unit(other, 0, 1 << 2));
        assert_eq!(f.sealed_slots(), 3);
        let bytes = f.store_bytes();
        f.erase(BlockId(0), SimTime::ZERO).unwrap();
        assert_eq!(f.sealed_slots(), 1);
        assert_eq!(f.store_bytes(), bytes, "the log keeps its capacity");
        f.check_seals().unwrap();
        f.program(Ppn(0), page_with_oob(1, 2), SimTime::ZERO)
            .unwrap();
        f.program(Ppn(1), page_with_oob(2, 2), SimTime::ZERO)
            .unwrap();
        assert!(f.read(Ppn(0)).unwrap().intact());
        assert!(f.read(Ppn(1)).unwrap().intact());
        assert!(!f.read(other).unwrap().intact());
    }

    /// A page the store cannot index — a unit of 65 536 fragments, a page
    /// of 65 536 slots — is refused before anything is stored: on an
    /// erased block and on one with pages, the page stays erased, the
    /// arenas keep their size, and the block then fills as one that never
    /// saw the page.
    #[test]
    fn a_refused_page_leaves_nothing_behind() {
        let mut wide = PageContent::empty(1 << 16);
        wide.units[0] = Some(UnitPayload::single(1, 1, 512));
        let mut long = page_with(1, 1);
        long.units[1] = Some(UnitPayload::merged(vec![
            Fragment {
                key: 2,
                version: 1,
                bytes: 1
            };
            1 << 16
        ]));
        for page in [wide, long] {
            let mut f = array();
            for first in [0, 1] {
                let before = f.store_bytes();
                assert_eq!(
                    f.program(Ppn(first), &page, SimTime::ZERO),
                    Err(FlashError::BlockStoreFull(BlockId(0)))
                );
                assert!(!f.is_programmed(Ppn(first)));
                assert_eq!(f.write_cursor(BlockId(0)), first as u32);
                assert_eq!(f.store_bytes(), before);
                f.program(Ppn(first), page_with(1, 1), SimTime::ZERO)
                    .unwrap();
            }
            let mut clean = array();
            for p in 0..f.geometry().pages_per_block as u64 {
                if p >= 2 {
                    f.program(Ppn(p), page_with(1, 1), SimTime::ZERO).unwrap();
                }
                clean
                    .program(Ppn(p), page_with(1, 1), SimTime::ZERO)
                    .unwrap();
            }
            assert_eq!(f.store_bytes(), clean.store_bytes(), "no orphaned record");
        }
    }

    #[test]
    fn manual_cut_power_works_without_a_plan() {
        let mut f = array();
        f.cut_power();
        assert!(f.powered_off());
        assert_eq!(
            f.program(Ppn(0), page_with(1, 1), SimTime::ZERO)
                .unwrap_err(),
            FlashError::PowerLoss
        );
        f.power_on();
        f.program(Ppn(0), page_with(1, 1), SimTime::ZERO).unwrap();
    }

    #[test]
    fn phase_attribution_sums_to_totals() {
        let mut f = array();
        f.program(Ppn(0), page_with(1, 1), SimTime::ZERO).unwrap();
        let prev = f.set_op_phase(OpPhase::CheckpointCopy);
        assert_eq!(prev, OpPhase::Run);
        f.schedule_read(Ppn(0), SimTime::ZERO).unwrap();
        f.program(Ppn(1), page_with(2, 1), SimTime::ZERO).unwrap();
        // Nested phase change (GC inside a copy) restores cleanly.
        let prev = f.set_op_phase(OpPhase::Gc);
        assert_eq!(prev, OpPhase::CheckpointCopy);
        f.erase(BlockId(1), SimTime::ZERO).unwrap();
        f.set_op_phase(prev);
        f.set_op_phase(OpPhase::Run);
        f.program(Ppn(2), page_with(3, 1), SimTime::ZERO).unwrap();

        let c = f.counters();
        for (total, counter_of) in [
            (
                Total::FlashProgram,
                OpPhase::program_counter as fn(OpPhase) -> Counter,
            ),
            (Total::FlashRead, OpPhase::read_counter),
            (Total::FlashErase, OpPhase::erase_counter),
        ] {
            let by_phase: u64 = OpPhase::ALL.iter().map(|&p| c.get(counter_of(p))).sum();
            assert_eq!(by_phase, c.total(total), "{total:?} attribution mismatch");
            assert!(OpPhase::ALL
                .iter()
                .all(|&p| counter_of(p).total() == Some(total)));
        }
        assert_eq!(c.get(Counter::FlashProgramRun), 2);
        assert_eq!(c.get(Counter::FlashProgramCpCopy), 1);
        assert_eq!(c.get(Counter::FlashReadCpCopy), 1);
        assert_eq!(c.get(Counter::FlashEraseGc), 1);
    }

    #[test]
    fn traced_array_emits_flash_events() {
        use checkin_sim::Tracer;
        let mut f = array();
        let t = Tracer::ring_buffered(16);
        f.set_tracer(t.clone());
        f.program(Ppn(0), page_with(1, 1), SimTime::ZERO).unwrap();
        f.schedule_read(Ppn(0), SimTime::ZERO).unwrap();
        f.erase(BlockId(0), SimTime::ZERO).unwrap();
        let ops: Vec<&str> = t.drain().iter().map(|e| e.op).collect();
        assert_eq!(ops, vec!["program", "read", "erase"]);
    }

    #[test]
    fn wear_statistics() {
        let mut f = array();
        f.erase(BlockId(0), SimTime::ZERO).unwrap();
        f.erase(BlockId(0), SimTime::ZERO).unwrap();
        f.erase(BlockId(1), SimTime::ZERO).unwrap();
        assert_eq!(f.total_erases(), 3);
        assert_eq!(f.max_erase_count(), 2);
        assert!(f.mean_erase_count() > 0.0);
    }
}
