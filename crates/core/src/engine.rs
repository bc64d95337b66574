//! The storage engine: query interface, key-value mapping layer,
//! journaling layer (Figure 5's Check-In engine, parameterised so the same
//! engine also behaves as the conventional baseline).

use checkin_flash::{Fragment, OobKind};
use checkin_sim::{Counter, CounterSet, Progress, SimTime, TraceEvent, TraceLayer, Tracer};
use checkin_ssd::{ReadRequest, Ssd, SsdError, WriteContent, WriteRequest, SECTOR_BYTES};

use crate::checkpoint::{CheckpointOutcome, HostJob, RunningCheckpoint};
use crate::config::Strategy;
use crate::journal::{JmtEntry, JournalFull, JournalManager, JournalOptions, RetiringZone};
use crate::layout::{Layout, JOURNAL_ZONES};

/// Records [`KvEngine::load`] writes between two calls of
/// `Ssd::retire_before`: without them the load would leave one dead idle
/// gap per record on most device timelines.
const RETIRE_EVERY_RECORDS: usize = 256;

/// Engine-level failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The active journal zone is full: checkpoint, then retry the update.
    JournalFull,
    /// Read of a key that was never loaded.
    UnknownKey(u64),
    /// Update with an empty or oversized value.
    InvalidValue(u32),
    /// A checkpoint was begun while one is still running: drain it first
    /// ([`KvEngine::drain_checkpoint`]).
    CheckpointRunning,
    /// A checkpoint was pumped while none is running.
    NoCheckpointRunning,
    /// Device failure.
    Ssd(SsdError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::JournalFull => write!(f, "journal full; checkpoint required"),
            EngineError::UnknownKey(k) => write!(f, "unknown key {k}"),
            EngineError::InvalidValue(n) => write!(f, "invalid value size {n} bytes"),
            EngineError::CheckpointRunning => write!(f, "a checkpoint is still running"),
            EngineError::NoCheckpointRunning => write!(f, "no checkpoint is running"),
            EngineError::Ssd(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Ssd(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SsdError> for EngineError {
    fn from(e: SsdError) -> Self {
        EngineError::Ssd(e)
    }
}

impl From<JournalFull> for EngineError {
    fn from(_: JournalFull) -> Self {
        EngineError::JournalFull
    }
}

/// Result of a point read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult {
    /// Version observed (engine-verified against its key map).
    pub version: u64,
    /// Stored bytes read at that version (the sum of its fragments):
    /// what the record occupies on the device, which for a sector-aligned
    /// log is the compressed, class-rounded size, not the value's.
    pub bytes: u32,
    /// Whether the read was served from the journal area (JMT hit).
    pub from_journal: bool,
    /// Completion instant.
    pub finish: SimTime,
}

/// Whether a checkpoint is in progress at some instant: see
/// [`KvEngine::checkpoint_phase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPhase {
    /// No checkpoint is in progress.
    Idle,
    /// A checkpoint is being pumped; its next step is due at this instant.
    Pumped(SimTime),
    /// The last checkpoint ended, but at this later instant: what its
    /// last step booked is still under way.
    Ending(SimTime),
}

/// The key-value storage engine.
///
/// # Examples
///
/// ```
/// use checkin_core::{KvEngine, Strategy, Layout};
/// use checkin_flash::{FlashArray, FlashGeometry, FlashTiming};
/// use checkin_ftl::{Ftl, FtlConfig};
/// use checkin_ssd::{Ssd, SsdTiming};
/// use checkin_sim::SimTime;
///
/// let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
/// let ftl = Ftl::new(flash, FtlConfig { unit_bytes: 512, write_points: 2, ..FtlConfig::default() }).unwrap();
/// let mut ssd = Ssd::new(ftl, SsdTiming::paper_default());
///
/// let mut engine = KvEngine::new(Strategy::CheckIn, Layout::new(100, 4096, 512, 1 << 12), 0.7);
/// let t = engine.load(&mut ssd, &[(1, 400), (2, 900)], SimTime::ZERO)?;
/// let t = engine.update(&mut ssd, 1, 400, t)?;
/// let read = engine.get(&mut ssd, 1, t)?;
/// assert_eq!(read.version, 2); // load wrote v1, update wrote v2
/// assert!(read.from_journal);
/// # Ok::<(), checkin_core::EngineError>(())
/// ```
#[derive(Debug)]
pub struct KvEngine {
    strategy: Strategy,
    layout: Layout,
    journal: JournalManager,
    /// Key-value mapping layer, indexed by key: keys are dense integers
    /// below the layout's record count, so a flat array replaces the
    /// hash maps the engine used to keep (version 0 = never loaded).
    keys: Vec<KeyState>,
    /// Keys with a non-zero version (what `loaded_keys` reports).
    loaded: usize,
    checkpoint_seq: u64,
    /// The checkpoint between its begin and its end, with the zone it
    /// retired: while its data moves, a key of that zone is read from
    /// its log there (the zone is trimmed only after the superblock, so
    /// the log is still mapped).
    running: Option<(RetiringZone, RunningCheckpoint)>,
    /// When the last checkpoint ended.
    checkpoint_end: SimTime,
    /// The last finished checkpoint's job, whose buffers the next one
    /// reuses.
    spare_job: Option<HostJob>,
    counters: CounterSet,
    tracer: Tracer,
    /// Reused fragment buffer so steady-state reads never allocate.
    read_scratch: Vec<Fragment>,
}

/// Committed per-key engine state (one flat-array slot).
#[derive(Debug, Clone, Copy, Default)]
struct KeyState {
    /// Latest committed version; 0 = the key was never loaded.
    version: u64,
    /// Current value size in bytes (0 after a deletion). While the key
    /// has no JMT entry, `bytes` bounds the home extent of its committed
    /// version from above, in sectors: the fragments lie from the slot's
    /// first sector on, and no write path stores a version in more
    /// sectors than its raw value spans (a sector-aligned log is
    /// compressed, then rounded up to a size class or to whole units, so
    /// it may hold more *bytes* than the value — 100 B -> 128 B — but
    /// never reach into another unit). [`KvEngine::get`] sizes its home
    /// read by it; recovery, which learns the sizes, reads whole slots.
    bytes: u32,
    /// True when the latest committed operation is a deletion.
    deleted: bool,
}

impl KvEngine {
    /// Creates an engine for `strategy` over `layout`.
    pub fn new(strategy: Strategy, layout: Layout, compression_ratio: f64) -> Self {
        let options = JournalOptions::for_strategy(strategy, compression_ratio);
        Self::with_journal_options(strategy, layout, options)
    }

    /// Creates an engine with explicit journaling options (ablations:
    /// disable compression or partial merging independently).
    pub fn with_journal_options(
        strategy: Strategy,
        layout: Layout,
        options: JournalOptions,
    ) -> Self {
        KvEngine {
            strategy,
            layout,
            journal: JournalManager::with_options(layout, options),
            keys: Vec::with_capacity(layout.record_count() as usize),
            loaded: 0,
            checkpoint_seq: 0,
            running: None,
            checkpoint_end: SimTime::ZERO,
            spare_job: None,
            counters: CounterSet::new(),
            tracer: Tracer::disabled(),
            read_scratch: Vec::new(),
        }
    }

    /// Installs a trace sink for engine- and journal-level events
    /// (queries, journal appends, checkpoint spans).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// State of `key` when it has ever been committed.
    fn state(&self, key: u64) -> Option<KeyState> {
        self.keys
            .get(key as usize)
            .copied()
            .filter(|s| s.version > 0)
    }

    /// Commits new state for `key`, growing the array on first touch.
    fn commit(&mut self, key: u64, version: u64, bytes: u32, deleted: bool) {
        let idx = key as usize;
        if idx >= self.keys.len() {
            self.keys.resize(idx + 1, KeyState::default());
        }
        let Some(slot) = self.keys.get_mut(idx) else {
            return; // unreachable: resized above
        };
        if slot.version == 0 {
            self.loaded += 1;
        }
        *slot = KeyState {
            version,
            bytes,
            deleted,
        };
    }

    /// The engine's address layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The strategy in effect.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Engine counters (`engine.*`).
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// The journal manager (JMT inspection).
    pub fn journal(&self) -> &JournalManager {
        &self.journal
    }

    /// The journal log that holds `key`'s newest version, if one does:
    /// its entry in the active zone, else in the zone a running
    /// checkpoint retired while that checkpoint's data still moves —
    /// from its superblock on, the key's home is current and the zone's
    /// trim unmaps the log.
    pub fn journal_entry(&self, key: u64) -> Option<&JmtEntry> {
        self.journal.jmt().lookup(key).or_else(|| {
            let (zone, _) = self.running.as_ref().filter(|(_, cp)| cp.moving())?;
            zone.lookup(key).filter(|e| !e.tombstone)
        })
    }

    /// Committed version of `key`, if loaded.
    pub fn version_of(&self, key: u64) -> Option<u64> {
        self.state(key).map(|s| s.version)
    }

    /// Current value size of `key` in bytes (`None` for unknown or
    /// deleted keys).
    pub fn size_of(&self, key: u64) -> Option<u32> {
        self.state(key).filter(|s| !s.deleted).map(|s| s.bytes)
    }

    /// Number of loaded keys.
    pub fn loaded_keys(&self) -> usize {
        self.loaded
    }

    /// Mapping units of journal space used since the last checkpoint
    /// (checkpoint trigger input).
    pub fn journal_used_units(&self) -> u64 {
        self.journal.zone_used_units()
    }

    /// Bulk-loads `(key, value_bytes)` records directly into the data
    /// area (version 1 each), then flushes.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownKey`], before anything is written, when a
    /// key lies outside the keyspace (`layout.record_count`); otherwise
    /// propagates device failures.
    pub fn load(
        &mut self,
        ssd: &mut Ssd,
        records: &[(u64, u32)],
        at: SimTime,
    ) -> Result<SimTime, EngineError> {
        let count = self.layout.record_count();
        if let Some(&(key, _)) = records.iter().find(|&&(key, _)| key >= count) {
            return Err(EngineError::UnknownKey(key));
        }
        let mut t = at;
        for (n, &(key, bytes)) in records.iter().enumerate() {
            // Each write is issued when the previous one is acked, so the
            // device can forget the idle gaps that are over by then.
            if n.is_multiple_of(RETIRE_EVERY_RECORDS) {
                ssd.retire_before(t);
            }
            let sectors = bytes.div_ceil(SECTOR_BYTES).max(1);
            let req = WriteRequest {
                lba: self.layout.home_lba(key),
                sectors,
                content: WriteContent::Record {
                    key,
                    version: 1,
                    bytes,
                },
            };
            t = ssd.write(&req, OobKind::Data, t)?;
            self.commit(key, 1, bytes, false);
            self.counters.incr(Counter::EngineLoads);
        }
        Ok(ssd.flush(t)?)
    }

    /// Point read: the JMT first (latest journal copy), then the zone a
    /// running checkpoint retired, then the data area.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownKey`] when the key was never loaded.
    pub fn get(&mut self, ssd: &mut Ssd, key: u64, at: SimTime) -> Result<ReadResult, EngineError> {
        self.counters.incr(Counter::EngineReads);
        let state = match self.state(key) {
            Some(s) if !s.deleted => s,
            _ => return Err(EngineError::UnknownKey(key)),
        };
        // A journal read asks for the log, a home read for the sectors
        // the value spans (see `KeyState::bytes`) — never the whole slot,
        // whose tail is unmapped or holds an older, longer version.
        let jmt_entry = self.journal_entry(key).copied();
        let (lba, sectors) = match jmt_entry {
            Some(e) => (e.journal_lba, e.sectors),
            None => (
                self.layout.home_lba(key),
                state
                    .bytes
                    .div_ceil(SECTOR_BYTES)
                    .clamp(1, self.layout.slot_sectors() as u32),
            ),
        };
        let from_journal = jmt_entry.is_some();
        self.read_scratch.clear();
        let finish = ssd.read_into(
            &ReadRequest {
                lba,
                sectors,
                key: Some(key),
            },
            at,
            &mut self.read_scratch,
        )?;
        let (version, bytes) = newest(&self.read_scratch).unwrap_or((0, 0));
        debug_assert_eq!(
            version, state.version,
            "read of key {key} returned stale version (strategy={:?}, from_journal={from_journal}, lba={lba}, sectors={sectors}, frags={:?})",
            self.strategy, self.read_scratch
        );
        // Byte coverage: the right version from too few sectors must not
        // pass. A journal log's stored size is exact. So is a home copy's
        // under conventional journaling (loads and logs both store the
        // raw value). Under sector-aligned journaling the home holds the
        // raw value until the key's first checkpoint and the aligned log
        // after it, and a recovered engine knows only the stored size
        // (which is then `state.bytes` itself): telling these apart needs
        // per-key state the engine does not keep, so either is accepted
        // here and `tests/prop_end_to_end.rs` checks the equality against
        // a whole-slot read.
        debug_assert!(
            match jmt_entry {
                Some(e) => bytes == self.journal.log_bytes(e.raw_bytes),
                None => bytes == state.bytes || bytes == self.journal.log_bytes(state.bytes),
            },
            "read of key {key} v{version} returned {bytes} B for a {} B value (strategy={:?}, from_journal={from_journal}, lba={lba}, sectors={sectors}, frags={:?})",
            state.bytes, self.strategy, self.read_scratch
        );
        self.tracer.emit(|| {
            TraceEvent::new(finish, TraceLayer::Engine, "get")
                .with("key", key)
                .with("from_journal", u64::from(from_journal))
                .with("latency_ns", finish.duration_since(at).as_nanos())
        });
        Ok(ReadResult {
            version,
            bytes,
            from_journal,
            finish,
        })
    }

    /// Update: journal the new version (write-ahead), then acknowledge.
    ///
    /// # Errors
    ///
    /// [`EngineError::JournalFull`] when the active zone cannot hold the
    /// log — checkpoint and retry. [`EngineError::UnknownKey`] for keys
    /// never loaded; [`EngineError::InvalidValue`] for empty/oversized
    /// values.
    pub fn update(
        &mut self,
        ssd: &mut Ssd,
        key: u64,
        value_bytes: u32,
        at: SimTime,
    ) -> Result<SimTime, EngineError> {
        if self.state(key).is_none_or(|s| s.deleted) {
            return Err(EngineError::UnknownKey(key));
        }
        let t = self.journaled_write(ssd, key, Some(value_bytes), at)?;
        self.counters.incr(Counter::EngineUpdates);
        self.counters
            .add(Counter::EngineUpdateBytes, value_bytes as u64);
        self.tracer.emit(|| {
            TraceEvent::new(t, TraceLayer::Engine, "update")
                .with("key", key)
                .with("bytes", u64::from(value_bytes))
                .with("latency_ns", t.duration_since(at).as_nanos())
        });
        Ok(t)
    }

    /// Deletes `key`: journals a tombstone (write-ahead) and acknowledges.
    /// The key's home extent is trimmed at the next checkpoint; until
    /// then reads return [`EngineError::UnknownKey`] from the key map.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownKey`] for unknown or already-deleted keys;
    /// [`EngineError::JournalFull`] when a checkpoint is required first.
    pub fn delete(&mut self, ssd: &mut Ssd, key: u64, at: SimTime) -> Result<SimTime, EngineError> {
        if self.state(key).is_none_or(|s| s.deleted) {
            return Err(EngineError::UnknownKey(key));
        }
        let t = self.journaled_write(ssd, key, None, at)?;
        self.counters.incr(Counter::EngineDeletes);
        Ok(t)
    }

    /// Inserts (or resurrects) `key` with a fresh value. Versioning stays
    /// monotonic across delete/insert cycles.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidValue`] for empty/oversized values;
    /// [`EngineError::JournalFull`] when a checkpoint is required first.
    /// Keys must lie inside the loaded keyspace (`layout.record_count`).
    pub fn insert(
        &mut self,
        ssd: &mut Ssd,
        key: u64,
        value_bytes: u32,
        at: SimTime,
    ) -> Result<SimTime, EngineError> {
        if key >= self.layout.record_count() {
            return Err(EngineError::UnknownKey(key));
        }
        let t = self.journaled_write(ssd, key, Some(value_bytes), at)?;
        self.counters.incr(Counter::EngineInserts);
        Ok(t)
    }

    /// The journaled write of every update, insert and delete: journals
    /// the next version of `key` — a value of `value` bytes, or with
    /// `None` a deletion tombstone — ahead of the acknowledgement, then
    /// commits the key. Returns when the device acknowledged the log.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidValue`] for an empty value or one larger
    /// than a home slot, [`EngineError::JournalFull`] and device
    /// failures.
    fn journaled_write(
        &mut self,
        ssd: &mut Ssd,
        key: u64,
        value: Option<u32>,
        at: SimTime,
    ) -> Result<SimTime, EngineError> {
        let max_bytes = (self.layout.slot_sectors() * SECTOR_BYTES as u64) as u32;
        if let Some(bytes) = value.filter(|&b| b == 0 || b > max_bytes) {
            return Err(EngineError::InvalidValue(bytes));
        }
        let version = self.state(key).map_or(0, |s| s.version) + 1;
        let req = match value {
            Some(bytes) => self.journal.append(key, version, bytes)?,
            None => self.journal.append_delete(key, version)?,
        };
        let t = ssd.write(&req, OobKind::Journal, at)?;
        self.commit(key, version, value.unwrap_or(0), value.is_none());
        // The journal manager has no clock, so the engine emits the
        // journal-layer event on its behalf at the commit instant.
        self.tracer.emit(|| {
            TraceEvent::new(t, TraceLayer::Journal, "append")
                .with("key", key)
                .with("version", version)
                .with("sectors", u64::from(req.sectors))
        });
        Ok(t)
    }

    /// Runs one checkpoint to its end: [`KvEngine::begin_checkpoint`],
    /// then every pump step at the instant the one before asked for.
    ///
    /// # Errors
    ///
    /// As [`KvEngine::begin_checkpoint`] and
    /// [`KvEngine::pump_checkpoint`].
    pub fn checkpoint(
        &mut self,
        ssd: &mut Ssd,
        at: SimTime,
    ) -> Result<CheckpointOutcome, EngineError> {
        self.begin_checkpoint(ssd, at)?
            .finish(|now| self.pump_checkpoint(ssd, now))
    }

    /// Begins a checkpoint at `at`: retires the active journal zone —
    /// updates go to the other one from here on — and starts moving its
    /// live entries home with the configured strategy. What cannot start
    /// at `at` — the Baseline's and ISC-A's host-issued I/O beyond one
    /// queue-deep window, a batched command's walk, gather and scatter,
    /// the retired zone's trim — is left to
    /// [`KvEngine::pump_checkpoint`]; a checkpoint with nothing to move
    /// or trim ends here.
    ///
    /// # Errors
    ///
    /// [`EngineError::CheckpointRunning`] while the previous checkpoint
    /// has not ended; propagates device failures.
    pub fn begin_checkpoint(
        &mut self,
        ssd: &mut Ssd,
        at: SimTime,
    ) -> Result<Progress<CheckpointOutcome>, EngineError> {
        if self.running.is_some() {
            return Err(EngineError::CheckpointRunning);
        }
        self.checkpoint_seq += 1;
        let zone: RetiringZone = self.journal.begin_checkpoint();
        self.counters
            .add(Counter::EngineSupersededLogs, zone.superseded);
        self.counters
            .add(Counter::EngineJournalRawBytes, zone.raw_bytes);
        self.counters
            .add(Counter::EngineJournalStoredBytes, zone.stored_bytes);
        self.tracer.emit(|| {
            TraceEvent::new(at, TraceLayer::Journal, "retire_zone")
                .with("entries", zone.entries.len() as u64)
                .with("used_sectors", zone.used_sectors)
                .with("superseded", zone.superseded)
        });
        let checkpoint = RunningCheckpoint::begin(
            ssd,
            self.strategy,
            &self.layout,
            &zone,
            self.checkpoint_seq,
            at,
            self.spare_job.take(),
        )?;
        self.running = Some((zone, checkpoint));
        self.step()
    }

    /// One pump step of the running checkpoint at `now`, the instant the
    /// previous step asked for: of its data movement — the step that
    /// finds that over writes the superblock and begins the retired
    /// zone's trim — or of the trim, whose last step ends the
    /// checkpoint.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoCheckpointRunning`] when none is running;
    /// propagates device failures.
    pub fn pump_checkpoint(
        &mut self,
        ssd: &mut Ssd,
        now: SimTime,
    ) -> Result<Progress<CheckpointOutcome>, EngineError> {
        let Some((zone, checkpoint)) = self.running.as_mut() else {
            return Err(EngineError::NoCheckpointRunning);
        };
        debug_assert!(
            checkpoint.next_pump().is_none_or(|due| now >= due),
            "a checkpoint step before it is due"
        );
        checkpoint.pump(ssd, &self.layout, zone, now)?;
        self.step()
    }

    /// Whether a checkpoint is in progress at `now`: one being pumped —
    /// data movement or trim — whatever `now` is, else the last one
    /// while `now` is before its end, which its last step booked.
    pub fn checkpoint_phase(&self, now: SimTime) -> CheckpointPhase {
        match self.running.as_ref().and_then(|(_, cp)| cp.next_pump()) {
            Some(due) => CheckpointPhase::Pumped(due),
            None if now < self.checkpoint_end => CheckpointPhase::Ending(self.checkpoint_end),
            None => CheckpointPhase::Idle,
        }
    }

    /// Whether a running checkpoint's data is still on its way home:
    /// until it is, a key of the zone the checkpoint retired is read from
    /// its log there; from the checkpoint's superblock on — while the
    /// zone is trimmed — from its home. `false` when none is running.
    pub fn checkpoint_moving(&self) -> bool {
        self.running.as_ref().is_some_and(|(_, cp)| cp.moving())
    }

    /// Ends the running checkpoint at once — every remaining pump step,
    /// each at the instant the one before asked for — for a trigger that
    /// needs the journal zone it holds. Counted in
    /// `engine.checkpoints_drained`. Returns its outcome, or `None` when
    /// no checkpoint was running.
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    pub fn drain_checkpoint(
        &mut self,
        ssd: &mut Ssd,
    ) -> Result<Option<CheckpointOutcome>, EngineError> {
        let Some(due) = self.running.as_ref().and_then(|(_, cp)| cp.next_pump()) else {
            return Ok(None);
        };
        self.counters.incr(Counter::EngineCheckpointsDrained);
        Progress::PumpAt(due)
            .finish(|now| self.pump_checkpoint(ssd, now))
            .map(Some)
    }

    /// The running checkpoint's next step, ending it when the retired
    /// zone's trim is over.
    fn step(&mut self) -> Result<Progress<CheckpointOutcome>, EngineError> {
        let Some((zone, checkpoint)) = self.running.take() else {
            return Err(EngineError::NoCheckpointRunning);
        };
        if let Some(t) = checkpoint.next_pump() {
            self.running = Some((zone, checkpoint));
            return Ok(Progress::PumpAt(t));
        }
        let (outcome, job) = checkpoint.finish(&zone)?;
        self.checkpoint_end = outcome.finish;
        self.spare_job = Some(job);
        self.journal.recycle_zone(zone);
        self.counters.incr(Counter::EngineCheckpoints);
        self.tracer.emit(|| {
            TraceEvent::new(outcome.finish, TraceLayer::Engine, "checkpoint")
                .with("seq", self.checkpoint_seq)
                .with("remapped", outcome.remapped)
                .with("copied", outcome.copied)
                .with(
                    "duration_ns",
                    outcome.finish.duration_since(outcome.start).as_nanos(),
                )
        });
        Ok(Progress::Done(outcome))
    }

    /// Crash recovery: rebuilds engine state from the device alone —
    /// data-area homes (last checkpoint) plus a scan of both journal zones
    /// (logs since then), then re-checkpoints the journal tail so the data
    /// area is current, and trims the journal (§III-G).
    ///
    /// Returns the recovered engine and the completion time.
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    pub fn recover(
        strategy: Strategy,
        layout: Layout,
        compression_ratio: f64,
        ssd: &mut Ssd,
        record_count: u64,
        at: SimTime,
    ) -> Result<(Self, SimTime), EngineError> {
        let (engine, report) =
            Self::recover_with_report(strategy, layout, compression_ratio, ssd, record_count, at)?;
        Ok((engine, report.finish))
    }

    /// [`KvEngine::recover`] with full accounting of what the recovery did.
    ///
    /// # Errors
    ///
    /// Propagates device failures.
    pub fn recover_with_report(
        strategy: Strategy,
        layout: Layout,
        compression_ratio: f64,
        ssd: &mut Ssd,
        record_count: u64,
        at: SimTime,
    ) -> Result<(Self, RecoveryReport), EngineError> {
        // The device's job in execution — a checkpoint command or a zone
        // trim the crashed host left running — was accepted by the
        // device, which finishes it without the host (`Ssd::drain`).
        let at = ssd.drain()?.map_or(at, |done| at.max(done));
        let reads_before = ssd.counters().get(Counter::SsdCmdRead);
        let mut engine = KvEngine::new(strategy, layout, compression_ratio);
        let mut t = at;
        // Every read below lands in this one buffer, cleared before each.
        let mut frags = Vec::new();

        // 1. Restore the last checkpoint: read every home slot.
        for key in 0..record_count {
            frags.clear();
            t = ssd.read_into(
                &ReadRequest {
                    lba: layout.home_lba(key),
                    sectors: layout.slot_sectors() as u32,
                    key: Some(key),
                },
                t,
                &mut frags,
            )?;
            // The slot may still hold the tail of an older, longer version
            // (a remap moves only the units the new log owns): the size
            // is that of the newest version's fragments alone.
            if let Some((version, bytes)) = newest(&frags) {
                engine.commit(key, version, bytes, false);
            }
        }

        // 2. Replay journal logs written after the checkpoint: scan both
        //    zones unit by unit until a run of unwritten units. The
        //    newest-version table is key-indexed, so step 3 replays in
        //    ascending key order (deterministic device state).
        let us = layout.unit_sectors();
        let mut newest: Vec<(u64, u32, bool)> = vec![(0, 0, false); record_count as usize];
        for zone in 0..JOURNAL_ZONES {
            let base = layout.journal_base(zone);
            let mut empty_run = 0u32;
            let mut cursor = 0u64;
            while cursor < layout.zone_sectors() && empty_run < 16 {
                frags.clear();
                t = ssd.read_into(
                    &ReadRequest {
                        lba: base + cursor,
                        sectors: us as u32,
                        key: None,
                    },
                    t,
                    &mut frags,
                )?;
                if frags.is_empty() {
                    empty_run += 1;
                } else {
                    empty_run = 0;
                    for f in &frags {
                        if f.key >= record_count {
                            continue; // device/engine metadata
                        }
                        let Some(e) = newest.get_mut(f.key as usize) else {
                            continue; // unreachable: f.key < record_count checked above
                        };
                        if f.version > e.0 {
                            // bytes == 0 marks a deletion tombstone.
                            *e = (f.version, f.bytes, f.bytes == 0);
                        } else if f.version == e.0 && !e.2 {
                            e.1 += f.bytes; // another unit of the same log
                        }
                    }
                }
                cursor += us;
            }
        }

        // 3. Re-checkpoint the journal tail: write newer versions home
        //    (or apply deletion tombstones by trimming the home extent).
        let mut replayed = 0u64;
        for (key, &(version, bytes, tombstone)) in newest.iter().enumerate() {
            let key = key as u64;
            let committed = engine.version_of(key).unwrap_or(0);
            if version > committed {
                if tombstone {
                    t = ssd.deallocate(layout.home_lba(key), layout.slot_sectors() as u32, t);
                    engine.commit(key, version, 0, true);
                } else {
                    let bytes = bytes.max(1);
                    let req = WriteRequest {
                        lba: layout.home_lba(key),
                        sectors: bytes.div_ceil(SECTOR_BYTES).max(1),
                        content: WriteContent::Record {
                            key,
                            version,
                            bytes,
                        },
                    };
                    t = ssd.write(&req, OobKind::Data, t)?;
                    engine.commit(key, version, bytes, false);
                }
                replayed += 1;
            }
        }

        // 4. Trim both journal zones: everything is checkpointed now.
        for zone in 0..JOURNAL_ZONES {
            t = ssd.deallocate(layout.journal_base(zone), layout.zone_sectors() as u32, t);
        }
        engine.counters.incr(Counter::EngineRecoveries);
        let report = RecoveryReport {
            finish: t,
            duration: t.duration_since(at),
            keys_recovered: engine.loaded as u64,
            journal_entries_replayed: replayed,
            device_reads: ssd.counters().get(Counter::SsdCmdRead) - reads_before,
        };
        Ok((engine, report))
    }
}

/// The newest version among `frags` and the bytes stored at it, or `None`
/// when the read found nothing.
fn newest(frags: &[Fragment]) -> Option<(u64, u32)> {
    let version = frags.iter().map(|f| f.version).max()?;
    let bytes = frags
        .iter()
        .filter(|f| f.version == version)
        .map(|f| f.bytes)
        .sum();
    Some((version, bytes))
}

/// Accounting of one crash recovery (§III-G).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// When recovery completed.
    pub finish: SimTime,
    /// Simulated time the recovery took.
    pub duration: checkin_sim::SimDuration,
    /// Keys restored (checkpoint + journal tail).
    pub keys_recovered: u64,
    /// Keys whose journal version was newer than the checkpointed one.
    pub journal_entries_replayed: u64,
    /// Device read commands issued by the scan.
    pub device_reads: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use checkin_flash::{FaultConfig, FaultPlan, FlashArray, FlashGeometry, FlashTiming};
    use checkin_ftl::{Ftl, FtlConfig};
    use checkin_ssd::SsdTiming;

    fn setup(strategy: Strategy) -> (Ssd, KvEngine) {
        let unit = strategy.default_unit_bytes();
        let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
        let ftl = Ftl::new(
            flash,
            FtlConfig {
                unit_bytes: unit,
                write_points: 2,
                gc_threshold_blocks: 4,
                gc_soft_threshold_blocks: 8,
                ..FtlConfig::default()
            },
        )
        .unwrap();
        let ssd = Ssd::new(ftl, SsdTiming::paper_default());
        let layout = Layout::new(64, 4096, unit, 1 << 11);
        (ssd, KvEngine::new(strategy, layout, 0.7))
    }

    /// Every journaled write is one `journal`/`append` event naming its
    /// log — an insert's and a delete's as much as an update's.
    #[test]
    fn inserts_and_deletes_each_trace_one_journal_append() {
        for strategy in [Strategy::CheckIn, Strategy::Baseline] {
            let (mut ssd, mut engine) = setup(strategy);
            let tracer = Tracer::ring_buffered(256);
            engine.set_tracer(tracer.clone());
            let mut t = SimTime::ZERO;
            let mut logged = Vec::new();
            for insert in [true, false] {
                t = if insert {
                    engine.insert(&mut ssd, 3, 900, t).unwrap()
                } else {
                    engine.delete(&mut ssd, 3, t).unwrap()
                };
                let log = engine.journal().jmt().lookup(3).unwrap();
                assert_eq!(log.tombstone, !insert, "{strategy}");
                logged.push(vec![
                    ("key", 3),
                    ("version", log.version),
                    ("sectors", u64::from(log.sectors)),
                ]);
            }
            let appends: Vec<Vec<(&str, u64)>> = tracer
                .drain()
                .iter()
                .filter(|e| (e.layer, e.op) == (TraceLayer::Journal, "append"))
                .map(|e| e.fields().to_vec())
                .collect();
            assert_eq!(appends, logged, "{strategy}");
            assert_eq!(logged[1][1], ("version", 2), "{strategy}");
        }
    }

    #[test]
    fn load_then_get_serves_from_home() {
        let (mut ssd, mut engine) = setup(Strategy::CheckIn);
        let t = engine
            .load(&mut ssd, &[(0, 400), (1, 900)], SimTime::ZERO)
            .unwrap();
        let r = engine.get(&mut ssd, 0, t).unwrap();
        assert_eq!(r.version, 1);
        assert!(!r.from_journal);
    }

    #[test]
    fn update_serves_from_journal_until_checkpoint() {
        let (mut ssd, mut engine) = setup(Strategy::CheckIn);
        let t = engine.load(&mut ssd, &[(0, 400)], SimTime::ZERO).unwrap();
        let t = engine.update(&mut ssd, 0, 400, t).unwrap();
        let r = engine.get(&mut ssd, 0, t).unwrap();
        assert_eq!(r.version, 2);
        assert!(r.from_journal);
        let out = engine.checkpoint(&mut ssd, r.finish).unwrap();
        let r = engine.get(&mut ssd, 0, out.finish).unwrap();
        assert_eq!(r.version, 2);
        assert!(!r.from_journal, "after checkpoint, home is current");
    }

    /// ISC-B copies every entry, so its checkpoint is paced: until the
    /// copy lands, a key of the retired zone is read from its log, and a
    /// key updated meanwhile from the active zone; only one checkpoint
    /// runs at a time, and draining it ends it where pumping would have.
    #[test]
    fn a_retiring_key_reads_from_its_log_until_the_copy_lands() {
        let (mut ssd, mut engine) = setup(Strategy::IscB);
        let records: Vec<(u64, u32)> = (0..32).map(|k| (k, 2048)).collect();
        let mut t = engine.load(&mut ssd, &records, SimTime::ZERO).unwrap();
        for k in 0..32 {
            t = engine.update(&mut ssd, k, 2048, t).unwrap();
        }
        let Progress::PumpAt(due) = engine.begin_checkpoint(&mut ssd, t).unwrap() else {
            panic!("a copy class is pumped");
        };
        assert_eq!(engine.checkpoint_phase(t), CheckpointPhase::Pumped(due));
        assert_eq!(
            engine.begin_checkpoint(&mut ssd, t),
            Err(EngineError::CheckpointRunning)
        );
        let t = engine.update(&mut ssd, 0, 100, t).unwrap();
        for (key, version) in [(0, 3), (1, 2)] {
            let r = engine.get(&mut ssd, key, t).unwrap();
            assert_eq!((r.version, r.from_journal), (version, true), "key {key}");
        }
        let step = engine.pump_checkpoint(&mut ssd, due).unwrap();
        assert!(matches!(step, Progress::PumpAt(next) if next > due));
        let out = engine.drain_checkpoint(&mut ssd).unwrap().unwrap();
        assert_eq!((out.entries, out.copied), (32, 32));
        assert_eq!(engine.counters().get(Counter::EngineCheckpointsDrained), 1);
        assert_eq!(engine.drain_checkpoint(&mut ssd).unwrap(), None);
        assert_eq!(
            engine.pump_checkpoint(&mut ssd, out.finish),
            Err(EngineError::NoCheckpointRunning)
        );
        let r = engine.get(&mut ssd, 1, out.finish).unwrap();
        assert_eq!((r.version, r.from_journal), (2, false));
        let r = engine.get(&mut ssd, 0, r.finish).unwrap();
        assert_eq!((r.version, r.from_journal), (3, true));
    }

    /// `setup(strategy)` with 32 records loaded and the first `updates`
    /// of them updated. Returns when the last update completed.
    fn updated(strategy: Strategy, updates: u64) -> (Ssd, KvEngine, SimTime) {
        let (mut ssd, mut engine) = setup(strategy);
        let records: Vec<(u64, u32)> = (0..32).map(|k| (k, 2048)).collect();
        let mut t = engine.load(&mut ssd, &records, SimTime::ZERO).unwrap();
        for k in 0..updates {
            t = engine.update(&mut ssd, k, 2048, t).unwrap();
        }
        (ssd, engine, t)
    }

    /// One state says whether a checkpoint is in progress. A paced one is
    /// pumped from its begin to its last step, whatever the instant, and
    /// ending until its finish: ISC-B copies every log, ISC-C remaps
    /// them, and both trim the retired zone one map segment a step. One
    /// that ends in its begin — an empty zone — is ending from there.
    /// Pumped at each instant it asks for, a checkpoint ends as the
    /// one-call checkpoint does, with the same counters.
    #[test]
    fn a_checkpoint_goes_from_idle_through_pumped_and_ending_to_idle() {
        for (strategy, updates) in [
            (Strategy::IscB, 32),
            (Strategy::IscC, 32),
            (Strategy::IscC, 0),
            (Strategy::Baseline, 32),
            (Strategy::CheckIn, 32),
        ] {
            let (mut ssd, mut engine, t) = updated(strategy, updates);
            assert_eq!(engine.checkpoint_phase(t), CheckpointPhase::Idle);
            let begun = engine.begin_checkpoint(&mut ssd, t).unwrap();
            let mut last = t;
            let out = begun
                .finish(|due| {
                    for now in [t, due] {
                        let phase = engine.checkpoint_phase(now);
                        assert_eq!(phase, CheckpointPhase::Pumped(due), "{strategy}");
                    }
                    last = due;
                    engine.pump_checkpoint(&mut ssd, due)
                })
                .unwrap();
            let (mut once_ssd, mut once, t) = updated(strategy, updates);
            assert_eq!(
                once.checkpoint(&mut once_ssd, t).unwrap(),
                out,
                "{strategy}"
            );
            assert_eq!(once.counters(), engine.counters(), "{strategy}");
            assert_eq!(once_ssd.all_counters(), ssd.all_counters());
            assert_eq!(last > t, updates > 0, "{strategy} is pumped");
            assert!(last < out.finish, "{strategy}: {last:?} {:?}", out.finish);
            let ending = CheckpointPhase::Ending(out.finish);
            assert_eq!(engine.checkpoint_phase(t), ending, "{strategy}");
            assert_eq!(engine.checkpoint_phase(last), ending, "{strategy}");
            let idle = engine.checkpoint_phase(out.finish);
            assert_eq!(idle, CheckpointPhase::Idle, "{strategy}");
        }
    }

    /// The instant a step returns is the one the engine holds the next
    /// step to: a Baseline checkpoint pumped a nanosecond early would
    /// issue its read-backs and rewrites then.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a checkpoint step before it is due")]
    fn a_checkpoint_step_before_its_instant_is_refused() {
        let (mut ssd, mut engine, t) = updated(Strategy::Baseline, 32);
        let Progress::PumpAt(due) = engine.begin_checkpoint(&mut ssd, t).unwrap() else {
            panic!("more logs than the queue is deep are pumped");
        };
        let _ = engine.pump_checkpoint(&mut ssd, due - checkin_sim::SimDuration::from_nanos(1));
    }

    /// A power cut fails the next step of every paced job, and each
    /// layer keeps its own rule for what the failure leaves: the device
    /// abandons its job, its background GC and the FTL's round, while
    /// the engine keeps its checkpoint pumped at the step that failed —
    /// the state chaos counts a cut in — and begins none other until it
    /// is recovered.
    #[test]
    fn a_failed_step_leaves_each_layer_as_its_rule_says() {
        for strategy in [Strategy::Baseline, Strategy::CheckIn] {
            let (mut ssd, mut engine) = setup(strategy);
            // Armed (the cut itself is manual), so the mapping log a
            // power-loss rebuild starts from is maintained.
            ssd.ftl_mut()
                .flash_mut()
                .arm_faults(FaultPlan::new(FaultConfig::default()));
            let records: Vec<(u64, u32)> = (0..64).map(|k| (k, 2048)).collect();
            let mut t = engine.load(&mut ssd, &records, SimTime::ZERO).unwrap();
            while !ssd.ftl().wants_background_gc() {
                for k in 0..64 {
                    t = engine.update(&mut ssd, k, 2048, t).unwrap();
                }
                t = engine.checkpoint(&mut ssd, t).unwrap().finish;
            }
            for k in 0..64 {
                t = engine.update(&mut ssd, k, 2048, t).unwrap();
            }
            let Progress::PumpAt(gc) = ssd.begin_background_gc(t, 4, 0).unwrap() else {
                panic!("{strategy}: a round begins under pressure");
            };
            let Progress::PumpAt(due) = engine.begin_checkpoint(&mut ssd, t).unwrap() else {
                panic!("{strategy}: the checkpoint is pumped");
            };
            ssd.ftl_mut().flash_mut().cut_power();
            assert!(engine.pump_checkpoint(&mut ssd, due).is_err(), "{strategy}");
            assert!(ssd.pump_gc(gc).is_err(), "{strategy}");

            let refused = |e| matches!(e, Err(SsdError::InvalidRequest(_)));
            assert!(refused(ssd.pump(due)), "{strategy}: no device job runs");
            assert!(refused(ssd.pump_gc(gc)), "{strategy}: no background GC");
            assert_eq!(ssd.gc_due(), None, "{strategy}");
            assert_eq!(ssd.ftl().gc_due(), None, "{strategy}: no FTL round");
            let phase = engine.checkpoint_phase(t);
            assert_eq!(phase, CheckpointPhase::Pumped(due), "{strategy}");
            let begun = engine.begin_checkpoint(&mut ssd, due);
            assert_eq!(begun, Err(EngineError::CheckpointRunning), "{strategy}");

            ssd.recover_power_loss().unwrap();
            let begun = engine.begin_checkpoint(&mut ssd, due);
            assert_eq!(begun, Err(EngineError::CheckpointRunning), "{strategy}");
            let layout = *engine.layout();
            let (mut engine, mut t) =
                KvEngine::recover(strategy, layout, 0.7, &mut ssd, 64, due).unwrap();
            assert_eq!(
                engine.checkpoint_phase(t),
                CheckpointPhase::Idle,
                "{strategy}"
            );
            for k in 0..64 {
                t = engine.update(&mut ssd, k, 2048, t).unwrap();
            }
            engine.checkpoint(&mut ssd, t).unwrap();
        }
    }

    /// From the superblock on, a retiring key is read from its home: the
    /// zone's trim unmaps its log one map segment a step, and a `get`
    /// between two of those steps returns the checkpointed version.
    #[test]
    fn a_retiring_key_reads_from_home_while_the_zone_is_trimmed() {
        let (mut ssd, mut engine) = setup(Strategy::IscC);
        let records: Vec<(u64, u32)> = (0..64).map(|k| (k, 2048)).collect();
        let mut t = engine.load(&mut ssd, &records, SimTime::ZERO).unwrap();
        for _ in 0..3 {
            for k in 0..64 {
                t = engine.update(&mut ssd, k, 2048, t).unwrap();
            }
        }
        let used = engine.journal().zone_used_units();
        assert!(
            used > checkin_ftl::MapCacheModel::SEGMENT_ENTRIES,
            "{used} units"
        );
        let zone = engine.layout().journal_base(0);
        let unit = engine.layout().unit_sectors();
        let mapped = |ssd: &Ssd, lba: u64| ssd.ftl().is_mapped(checkin_ftl::Lpn(lba / unit));
        let begun = engine.begin_checkpoint(&mut ssd, t).unwrap();
        let mut between = 0;
        begun
            .finish(|due| {
                let trimming = !mapped(&ssd, zone) && mapped(&ssd, zone + (used - 1) * unit);
                if trimming {
                    assert!(
                        engine.journal_entry(5).is_none(),
                        "the superblock is written"
                    );
                    let r = engine.get(&mut ssd, 5, due).unwrap();
                    assert_eq!((r.version, r.from_journal), (4, false));
                    between += 1;
                }
                engine.pump_checkpoint(&mut ssd, due)
            })
            .unwrap();
        assert!(between > 0, "no get between two trim steps");
    }

    #[test]
    fn unknown_key_errors() {
        let (mut ssd, mut engine) = setup(Strategy::Baseline);
        assert_eq!(
            engine.get(&mut ssd, 7, SimTime::ZERO),
            Err(EngineError::UnknownKey(7))
        );
        assert_eq!(
            engine.update(&mut ssd, 7, 100, SimTime::ZERO),
            Err(EngineError::UnknownKey(7))
        );
    }

    #[test]
    fn journal_full_surfaces_and_checkpoint_recovers() {
        let (mut ssd, mut engine) = setup(Strategy::Baseline);
        let mut t = engine.load(&mut ssd, &[(0, 4096)], SimTime::ZERO).unwrap();
        // Fill the zone with large updates until it refuses.
        let mut filled = false;
        for _ in 0..2000 {
            match engine.update(&mut ssd, 0, 4096, t) {
                Ok(finish) => t = finish,
                Err(EngineError::JournalFull) => {
                    filled = true;
                    break;
                }
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(filled, "zone should fill");
        let out = engine.checkpoint(&mut ssd, t).unwrap();
        // Retry succeeds in the fresh zone.
        engine.update(&mut ssd, 0, 4096, out.finish).unwrap();
    }

    #[test]
    fn every_strategy_roundtrips_updates_through_checkpoint() {
        for strategy in Strategy::all() {
            let (mut ssd, mut engine) = setup(strategy);
            let records: Vec<(u64, u32)> =
                (0..32).map(|k| (k, 300 + (k as u32 * 37) % 3000)).collect();
            let mut t = engine.load(&mut ssd, &records, SimTime::ZERO).unwrap();
            for round in 0..3 {
                for k in 0..32u64 {
                    let size = 200 + ((k + round) as u32 * 53) % 2000;
                    t = engine.update(&mut ssd, k, size, t).unwrap();
                }
                let out = engine.checkpoint(&mut ssd, t).unwrap();
                t = out.finish;
            }
            for k in 0..32u64 {
                let r = engine.get(&mut ssd, k, t).unwrap();
                assert_eq!(r.version, 4, "{strategy} key {k}");
                t = r.finish;
            }
            ssd.ftl().check_invariants().unwrap();
        }
    }

    #[test]
    fn recovery_restores_checkpoint_plus_journal_tail() {
        let (mut ssd, mut engine) = setup(Strategy::CheckIn);
        let records: Vec<(u64, u32)> = (0..16).map(|k| (k, 400)).collect();
        let mut t = engine.load(&mut ssd, &records, SimTime::ZERO).unwrap();
        // Two updates + checkpoint, then one more update left in journal.
        for k in 0..16u64 {
            t = engine.update(&mut ssd, k, 400, t).unwrap();
        }
        let out = engine.checkpoint(&mut ssd, t).unwrap();
        t = out.finish;
        for k in 0..8u64 {
            t = engine.update(&mut ssd, k, 400, t).unwrap();
        }
        // Crash: host state dropped; device (capacitor-backed) survives.
        drop(engine);
        let layout = Layout::new(64, 4096, 512, 1 << 11);
        let (recovered, t) =
            KvEngine::recover(Strategy::CheckIn, layout, 0.7, &mut ssd, 16, t).unwrap();
        for k in 0..16u64 {
            let want = if k < 8 { 3 } else { 2 };
            assert_eq!(recovered.version_of(k), Some(want), "key {k}");
        }
        // Recovered engine serves reads with the right versions.
        let mut engine = recovered;
        let r = engine.get(&mut ssd, 3, t).unwrap();
        assert_eq!(r.version, 3);
    }

    /// A record that shrank leaves the tail of its older version mapped
    /// in the home slot. Recovery reads whole slots: the size it learns
    /// must be the newest version's alone, or every later `get` asks for
    /// sectors the record does not occupy.
    #[test]
    fn recovery_sizes_a_shrunk_record_by_its_newest_version() {
        for strategy in [Strategy::IscC, Strategy::CheckIn] {
            let (mut ssd, mut engine) = setup(strategy);
            // Armed (the cut itself is manual), so the mapping log a
            // power-loss rebuild starts from is maintained.
            ssd.ftl_mut()
                .flash_mut()
                .arm_faults(FaultPlan::new(FaultConfig::power_cut(1, u64::MAX)));
            let t = engine.load(&mut ssd, &[(0, 4096)], SimTime::ZERO).unwrap();
            let t = engine.update(&mut ssd, 0, 128, t).unwrap();
            let t = engine.checkpoint(&mut ssd, t).unwrap().finish;
            let layout = *engine.layout();
            drop(engine);
            ssd.ftl_mut().flash_mut().cut_power();
            ssd.recover_power_loss().unwrap();

            let (mut engine, t) = KvEngine::recover(strategy, layout, 0.7, &mut ssd, 1, t).unwrap();
            assert_eq!(engine.size_of(0), Some(128), "{strategy}");
            let link_before = ssd.counters().get(Counter::SsdHostReadBytes);
            let read = engine.get(&mut ssd, 0, t).unwrap();
            assert_eq!((read.version, read.bytes), (2, 128), "{strategy}");
            assert_eq!(
                ssd.counters().get(Counter::SsdHostReadBytes) - link_before,
                u64::from(SECTOR_BYTES),
                "{strategy}: a 128 B record is a one-sector read"
            );
        }
    }

    #[test]
    fn invalid_value_sizes_rejected() {
        let (mut ssd, mut engine) = setup(Strategy::CheckIn);
        let t = engine.load(&mut ssd, &[(0, 400)], SimTime::ZERO).unwrap();
        assert_eq!(
            engine.update(&mut ssd, 0, 0, t),
            Err(EngineError::InvalidValue(0))
        );
        let too_big = (engine.layout().slot_sectors() * 512 + 1) as u32;
        assert_eq!(
            engine.update(&mut ssd, 0, too_big, t),
            Err(EngineError::InvalidValue(too_big))
        );
        // Version unchanged after rejections.
        assert_eq!(engine.version_of(0), Some(1));
    }

    #[test]
    fn recovery_report_accounts_for_work() {
        let (mut ssd, mut engine) = setup(Strategy::CheckIn);
        let records: Vec<(u64, u32)> = (0..16).map(|k| (k, 400)).collect();
        let mut t = engine.load(&mut ssd, &records, SimTime::ZERO).unwrap();
        for k in 0..16u64 {
            t = engine.update(&mut ssd, k, 400, t).unwrap();
        }
        t = engine.checkpoint(&mut ssd, t).unwrap().finish;
        for k in 0..5u64 {
            t = engine.update(&mut ssd, k, 400, t).unwrap();
        }
        drop(engine);
        let layout = Layout::new(64, 4096, 512, 1 << 11);
        let (_, report) =
            KvEngine::recover_with_report(Strategy::CheckIn, layout, 0.7, &mut ssd, 16, t).unwrap();
        assert_eq!(report.keys_recovered, 16);
        assert_eq!(report.journal_entries_replayed, 5);
        assert!(report.device_reads >= 16, "scan reads homes + journal");
        assert!(report.duration > checkin_sim::SimDuration::ZERO);
    }

    #[test]
    fn delete_hides_key_until_insert_resurrects_it() {
        let (mut ssd, mut engine) = setup(Strategy::CheckIn);
        let t = engine.load(&mut ssd, &[(3, 400)], SimTime::ZERO).unwrap();
        let t = engine.update(&mut ssd, 3, 500, t).unwrap();
        let t = engine.delete(&mut ssd, 3, t).unwrap();
        assert_eq!(engine.get(&mut ssd, 3, t), Err(EngineError::UnknownKey(3)));
        assert_eq!(
            engine.update(&mut ssd, 3, 100, t),
            Err(EngineError::UnknownKey(3)),
            "updates need insert after a delete"
        );
        assert_eq!(
            engine.delete(&mut ssd, 3, t),
            Err(EngineError::UnknownKey(3))
        );
        // Resurrection continues the version chain.
        assert_eq!(engine.size_of(3), None, "deleted key has no size");
        let t = engine.insert(&mut ssd, 3, 256, t).unwrap();
        let r = engine.get(&mut ssd, 3, t).unwrap();
        assert_eq!(r.version, 4, "load=1, update=2, delete=3, insert=4");
        assert_eq!(engine.size_of(3), Some(256));
    }

    #[test]
    fn checkpointed_delete_trims_the_home_extent() {
        for strategy in [Strategy::Baseline, Strategy::IscB, Strategy::CheckIn] {
            let (mut ssd, mut engine) = setup(strategy);
            let t = engine
                .load(&mut ssd, &[(0, 400), (1, 400)], SimTime::ZERO)
                .unwrap();
            let t = engine.delete(&mut ssd, 0, t).unwrap();
            let out = engine.checkpoint(&mut ssd, t).unwrap();
            assert_eq!(out.deleted, 1, "{strategy}");
            // Device-level: home units of key 0 are unmapped.
            let home = engine.layout().home_lba(0);
            let mut frags = Vec::new();
            let t = ssd
                .read_into(
                    &checkin_ssd::ReadRequest {
                        lba: home,
                        sectors: engine.layout().slot_sectors() as u32,
                        key: None,
                    },
                    out.finish,
                    &mut frags,
                )
                .unwrap();
            assert!(frags.is_empty(), "{strategy}: home must be trimmed");
            // The neighbour survives.
            let r = engine.get(&mut ssd, 1, t).unwrap();
            assert_eq!(r.version, 1);
            ssd.ftl().check_invariants().unwrap();
        }
    }

    #[test]
    fn recovery_replays_journal_tombstones() {
        let (mut ssd, mut engine) = setup(Strategy::CheckIn);
        let records: Vec<(u64, u32)> = (0..8).map(|k| (k, 400)).collect();
        let mut t = engine.load(&mut ssd, &records, SimTime::ZERO).unwrap();
        t = engine.checkpoint(&mut ssd, t).unwrap().finish;
        // Delete key 2 after the checkpoint; crash before the next one.
        t = engine.delete(&mut ssd, 2, t).unwrap();
        t = engine.update(&mut ssd, 5, 300, t).unwrap();
        drop(engine);
        let layout = Layout::new(64, 4096, 512, 1 << 11);
        let (mut recovered, t) =
            KvEngine::recover(Strategy::CheckIn, layout, 0.7, &mut ssd, 8, t).unwrap();
        assert_eq!(
            recovered.get(&mut ssd, 2, t),
            Err(EngineError::UnknownKey(2)),
            "tombstone must survive the crash"
        );
        let r = recovered.get(&mut ssd, 5, t).unwrap();
        assert_eq!(r.version, 2);
        // Resurrection after recovery continues versioning past the
        // tombstone.
        let t = recovered.insert(&mut ssd, 2, 128, r.finish).unwrap();
        let r = recovered.get(&mut ssd, 2, t).unwrap();
        assert_eq!(r.version, 3, "load=1, delete=2, insert=3");
    }

    #[test]
    fn insert_validates_keyspace_and_size() {
        let (mut ssd, mut engine) = setup(Strategy::CheckIn);
        let t = engine.load(&mut ssd, &[(0, 400)], SimTime::ZERO).unwrap();
        assert_eq!(
            engine.insert(&mut ssd, 10_000, 100, t),
            Err(EngineError::UnknownKey(10_000))
        );
        assert_eq!(
            engine.insert(&mut ssd, 5, 0, t),
            Err(EngineError::InvalidValue(0))
        );
        // Fresh key inside the keyspace is fine.
        let t = engine.insert(&mut ssd, 5, 100, t).unwrap();
        assert_eq!(engine.get(&mut ssd, 5, t).unwrap().version, 1);
    }

    #[test]
    fn load_refuses_a_key_past_the_layout_before_writing() {
        let (mut ssd, mut engine) = setup(Strategy::CheckIn);
        assert_eq!(
            engine.load(&mut ssd, &[(0, 400), (64, 400)], SimTime::ZERO),
            Err(EngineError::UnknownKey(64))
        );
        assert_eq!(engine.loaded_keys(), 0);
        assert_eq!(ssd.counters().get(Counter::SsdCmdWrite), 0);
    }

    #[test]
    fn rmw_pattern_via_get_then_update() {
        let (mut ssd, mut engine) = setup(Strategy::IscB);
        let t = engine.load(&mut ssd, &[(5, 512)], SimTime::ZERO).unwrap();
        let r = engine.get(&mut ssd, 5, t).unwrap();
        let t = engine.update(&mut ssd, 5, 512, r.finish).unwrap();
        assert_eq!(engine.version_of(5), Some(2));
        assert!(t > r.finish);
    }
}
