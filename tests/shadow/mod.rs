//! The engine against one shadow model: puts that grow, shrink, delete and
//! revive records, reads, checkpoints — whole, or begun, pumped a few
//! steps at a time and finished with other ops in between — background GC
//! and host crashes, under every strategy. Shared by `prop_end_to_end.rs`
//! and `integration_consistency.rs`; each test is an op list through
//! [`run`].

// Each test target uses only part of the module.
#![allow(dead_code)]

use checkin_core::{CheckpointOutcome, CheckpointPhase, EngineError, KvEngine, Layout, Strategy};
use checkin_flash::{FlashArray, FlashGeometry, FlashTiming};
use checkin_ftl::{Ftl, FtlConfig};
use checkin_sim::{Progress, SimTime};
use checkin_ssd::{ReadRequest, Ssd, SsdTiming};
use checkin_testkit::TestRng;

pub const RECORDS: u64 = 64;

#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// Update a live key or insert a dead one, to any size up to 4 KiB.
    Put {
        key: u64,
        bytes: u32,
    },
    Delete {
        key: u64,
    },
    /// Read any key, a few past the key space included.
    Read {
        key: u64,
    },
    /// A whole checkpoint (a running one is finished first).
    Checkpoint,
    /// Begins a checkpoint (a running one is finished first).
    Begin,
    /// Up to this many pump steps of the running checkpoint, each at the
    /// instant the one before asked for.
    Pump(u32),
    /// Finishes the running checkpoint at once.
    Finish,
    /// Background GC in an idle window.
    Gc,
    /// Host crash: the engine is rebuilt from the surviving device.
    Crash,
}

/// A put of any key to any size: half the values are sub-sector, so
/// records shrink from eight sectors to one as often as they grow back.
pub fn any_put(rng: &mut TestRng) -> Op {
    Op::Put {
        key: rng.below(RECORDS),
        bytes: if rng.chance(0.5) {
            rng.range_u32(1, 512)
        } else {
            rng.range_u32(513, 4096)
        },
    }
}

pub fn any_op(rng: &mut TestRng) -> Op {
    match rng.weighted(&[8, 1, 6, 1, 1, 1]) {
        0 => any_put(rng),
        1 => Op::Delete {
            key: rng.below(RECORDS),
        },
        2 => Op::Read {
            key: rng.below(RECORDS + 4),
        },
        3 => Op::Checkpoint,
        4 => Op::Gc,
        _ => Op::Crash,
    }
}

/// [`any_op`]'s mix with checkpoints that are begun, pumped and finished
/// as separate ops: the other ops land inside a paced copy, host crashes
/// included.
pub fn paced_op(rng: &mut TestRng) -> Op {
    match rng.weighted(&[8, 1, 6, 1, 3, 1, 1]) {
        0 => any_put(rng),
        1 => Op::Delete {
            key: rng.below(RECORDS),
        },
        2 => Op::Read {
            key: rng.below(RECORDS + 4),
        },
        3 => Op::Begin,
        4 => Op::Pump(rng.range_u32(1, 4)),
        5 => Op::Finish,
        _ => Op::Crash,
    }
}

/// `rounds` rounds that update every key, with a checkpoint after every
/// `every`-th: the history of the named recovery scenarios.
pub fn rounds(rounds: u64, every: u64) -> Vec<Op> {
    let mut ops = Vec::new();
    for round in 1..=rounds {
        ops.extend((0..RECORDS).map(|key| Op::Put {
            key,
            bytes: 150 + ((key + round) % 10) as u32 * 300,
        }));
        if round % every == 0 {
            ops.push(Op::Checkpoint);
        }
    }
    ops
}

/// What a run did, for the impotence checks.
#[derive(Debug, Default)]
pub struct Tally {
    pub checkpoints: u64,
    pub gc_rounds: u64,
    pub recoveries: u64,
    /// Recoveries that replayed at least one journal entry.
    pub replaying_recoveries: u64,
    /// Pump steps of begun checkpoints.
    pub pump_steps: u64,
    /// Host crashes that found a checkpoint still being pumped.
    pub paced_crashes: u64,
}

/// The one shadow of a key: its newest version, and whether that version
/// deleted it.
#[derive(Debug, Clone, Copy)]
struct Expect {
    version: u64,
    deleted: bool,
}

struct Harness {
    strategy: Strategy,
    ssd: Ssd,
    engine: KvEngine,
    shadow: Vec<Expect>,
    /// Keys written since the last checkpoint began, or since the last
    /// recovery: their logs are in the active journal zone.
    dirty: Vec<bool>,
    /// Keys written before the running checkpoint began: until its data
    /// moved, their logs are read in the zone it retired (from its
    /// superblock on, the zone is trimmed and they read from home).
    /// Together with `dirty` the only keys that may read from the
    /// journal.
    retiring: Vec<bool>,
    /// When the running checkpoint asks to be pumped next.
    pump_due: Option<SimTime>,
    t: SimTime,
    tally: Tally,
}

impl Harness {
    fn new(strategy: Strategy) -> Self {
        let unit = strategy.default_unit_bytes();
        // Half of `FlashGeometry::small()`, so long soups fill it and
        // GC reclaims blocks.
        let geometry = FlashGeometry {
            blocks_per_plane: 16,
            ..FlashGeometry::small()
        };
        let flash = FlashArray::new(geometry, FlashTiming::mlc());
        let ftl = Ftl::new(
            flash,
            FtlConfig {
                unit_bytes: unit,
                write_points: 2,
                gc_threshold_blocks: 4,
                gc_soft_threshold_blocks: 8,
                write_buffer_units: 16,
                ..FtlConfig::default()
            },
        )
        .unwrap();
        let mut ssd = Ssd::new(ftl, SsdTiming::paper_default());
        let layout = Layout::new(RECORDS, 4096 + 16, unit, 1 << 10);
        let mut engine = KvEngine::new(strategy, layout, 0.7);
        let records: Vec<(u64, u32)> = (0..RECORDS)
            .map(|k| (k, 1 + (k as u32 * 397) % 4096))
            .collect();
        let t = engine.load(&mut ssd, &records, SimTime::ZERO).unwrap();
        let mut h = Harness {
            strategy,
            ssd,
            engine,
            shadow: vec![
                Expect {
                    version: 1,
                    deleted: false,
                };
                RECORDS as usize
            ],
            dirty: vec![false; RECORDS as usize],
            retiring: vec![false; RECORDS as usize],
            pump_due: None,
            t,
            tally: Tally::default(),
        };
        h.check_every_key();
        h
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Put { key, bytes } => {
                let k = key as usize;
                let insert = self.shadow[k].deleted;
                self.write(op, |engine, ssd, t| {
                    if insert {
                        engine.insert(ssd, key, bytes, t)
                    } else {
                        engine.update(ssd, key, bytes, t)
                    }
                });
                self.shadow[k] = Expect {
                    version: self.shadow[k].version + 1,
                    deleted: false,
                };
                self.dirty[k] = true;
            }
            Op::Delete { key } => {
                let k = key as usize;
                if self.shadow[k].deleted {
                    let r = self.engine.delete(&mut self.ssd, key, self.t);
                    assert_eq!(r, Err(EngineError::UnknownKey(key)), "{}", self.strategy);
                    return;
                }
                self.write(op, |engine, ssd, t| engine.delete(ssd, key, t));
                self.shadow[k] = Expect {
                    version: self.shadow[k].version + 1,
                    deleted: true,
                };
                self.dirty[k] = true;
            }
            Op::Read { key } => self.read(key),
            Op::Checkpoint => self.checkpoint(),
            Op::Begin => self.begin(),
            Op::Pump(steps) => {
                for _ in 0..steps {
                    let Some(due) = self.pump_due else { break };
                    let step = self.engine.pump_checkpoint(&mut self.ssd, due);
                    self.tally.pump_steps += 1;
                    self.stepped(step);
                }
            }
            Op::Finish => self.finish(),
            Op::Gc => {
                let idle = self.t.max(self.ssd.idle_at());
                let (rounds, done) = self.ssd.background_gc(idle, 4).unwrap();
                self.t = done;
                self.tally.gc_rounds += u64::from(rounds);
            }
            Op::Crash => self.crash(),
        }
    }

    /// Runs one write; a full journal asks for a checkpoint first.
    fn write(
        &mut self,
        op: Op,
        mut f: impl FnMut(&mut KvEngine, &mut Ssd, SimTime) -> Result<SimTime, EngineError>,
    ) {
        let done = match f(&mut self.engine, &mut self.ssd, self.t) {
            Err(EngineError::JournalFull) => {
                self.checkpoint();
                f(&mut self.engine, &mut self.ssd, self.t)
            }
            other => other,
        };
        self.t = done.unwrap_or_else(|e| panic!("{} {op:?}: {e}", self.strategy));
    }

    /// A live key reads at its shadow version, from the journal exactly
    /// when it was written since the last checkpoint or recovery; a
    /// deleted or out-of-range key is unknown.
    fn read(&mut self, key: u64) {
        let got = self.engine.get(&mut self.ssd, key, self.t);
        let strategy = self.strategy;
        match self.shadow.get(key as usize) {
            Some(e) if !e.deleted => {
                let r = got.unwrap_or_else(|err| panic!("{strategy} key {key}: {err}"));
                self.t = r.finish;
                assert_eq!(r.version, e.version, "{strategy} key {key}");
                let k = key as usize;
                assert_eq!(
                    r.from_journal,
                    self.dirty[k] || self.retiring[k],
                    "{strategy} key {key}: read from the journal"
                );
            }
            _ => assert_eq!(got, Err(EngineError::UnknownKey(key)), "{strategy}"),
        }
    }

    fn checkpoint(&mut self) {
        self.finish();
        let out = self
            .engine
            .checkpoint(&mut self.ssd, self.t)
            .unwrap_or_else(|e| panic!("{} checkpoint: {e}", self.strategy));
        self.dirty.fill(false);
        self.ended(out);
    }

    /// Begins a checkpoint at the present; its zone's keys keep reading
    /// from the journal until it ends.
    fn begin(&mut self) {
        self.finish();
        let step = self.engine.begin_checkpoint(&mut self.ssd, self.t);
        std::mem::swap(&mut self.dirty, &mut self.retiring);
        self.dirty.fill(false);
        self.stepped(step);
    }

    /// Finishes a running checkpoint at once.
    fn finish(&mut self) {
        let drained = self
            .engine
            .drain_checkpoint(&mut self.ssd)
            .unwrap_or_else(|e| panic!("{} drain: {e}", self.strategy));
        if let Some(out) = drained {
            self.ended(out);
        }
    }

    fn stepped(&mut self, step: Result<Progress<CheckpointOutcome>, EngineError>) {
        match step.unwrap_or_else(|e| panic!("{} checkpoint step: {e}", self.strategy)) {
            Progress::PumpAt(due) => {
                assert_eq!(
                    self.engine.checkpoint_phase(self.t),
                    CheckpointPhase::Pumped(due)
                );
                self.pump_due = Some(due);
                if !self.engine.checkpoint_moving() {
                    // The data moved: the retired zone is being trimmed,
                    // and the shadow holds with every key of it at home.
                    self.retiring.fill(false);
                    self.check_every_key();
                }
            }
            Progress::Done(out) => self.ended(out),
        }
    }

    /// A checkpoint ended: every key of its zone is home, and the shadow
    /// holds against the engine and the device.
    fn ended(&mut self, out: CheckpointOutcome) {
        self.pump_due = None;
        self.t = self.t.max(out.finish);
        assert_eq!(self.engine.checkpoint_phase(self.t), CheckpointPhase::Idle);
        self.tally.checkpoints += 1;
        self.retiring.fill(false);
        self.check_every_key();
    }

    /// Host memory is lost; the device, its buffer included, survives —
    /// and finishes a checkpoint command it was still executing.
    fn crash(&mut self) {
        self.tally.paced_crashes += u64::from(self.pump_due.take().is_some());
        let layout = *self.engine.layout();
        let (engine, report) = KvEngine::recover_with_report(
            self.strategy,
            layout,
            0.7,
            &mut self.ssd,
            RECORDS,
            self.t,
        )
        .unwrap_or_else(|e| panic!("{} recovery: {e}", self.strategy));
        self.engine = engine;
        self.t = report.finish;
        self.tally.recoveries += 1;
        self.tally.replaying_recoveries += u64::from(report.journal_entries_replayed > 0);
        // The recovered engine learns versions from the device alone, and
        // a checkpointed delete left nothing there: re-inserting the key
        // starts again at version 1. A delete whose checkpoint had not
        // ended is still in a journal zone, with its version.
        for ((e, &dirty), &retiring) in self.shadow.iter_mut().zip(&self.dirty).zip(&self.retiring)
        {
            if e.deleted && !dirty && !retiring {
                e.version = 0;
            }
        }
        self.dirty.fill(false);
        self.retiring.fill(false);
        self.check_every_key();
    }

    fn check_every_key(&mut self) {
        for key in 0..RECORDS {
            self.read(key);
        }
        self.sized_reads_see_the_whole_record();
    }

    /// For every live key no journal log holds — so `get` goes to the
    /// home slot — the sized read and a read of the whole slot agree on
    /// the newest version and on every byte stored at it.
    fn sized_reads_see_the_whole_record(&mut self) {
        let layout = *self.engine.layout();
        for key in 0..RECORDS {
            if self.engine.size_of(key).is_none() || self.engine.journal_entry(key).is_some() {
                continue;
            }
            let sized = self.engine.get(&mut self.ssd, key, self.t).unwrap();
            assert!(!sized.from_journal);
            let whole_slot = ReadRequest {
                lba: layout.home_lba(key),
                sectors: layout.slot_sectors() as u32,
                key: Some(key),
            };
            let (frags, done) = self.ssd.read(&whole_slot, sized.finish).unwrap();
            self.t = done;
            let version = frags.iter().map(|f| f.version).max().unwrap_or(0);
            let at_version = frags.iter().filter(|f| f.version == version);
            assert_eq!(
                (sized.version, sized.bytes),
                (version, at_version.map(|f| f.bytes).sum()),
                "{} key {key}: a {:?}-byte value read short of {frags:?}",
                self.strategy,
                self.engine.size_of(key)
            );
            assert_eq!(Some(sized.version), self.engine.version_of(key));
        }
    }
}

/// Loads every key, applies `ops` and checks the shadow as it goes.
pub fn run(strategy: Strategy, ops: &[Op]) -> Tally {
    let mut h = Harness::new(strategy);
    for &op in ops {
        h.apply(op);
    }
    h.finish();
    h.ssd.ftl().check_invariants().unwrap();
    h.tally
}
