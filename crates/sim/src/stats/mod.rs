//! Measurement utilities: counters, latency histograms and the rows
//! reports are made of.

mod counter;
mod latency;
mod row;

pub use counter::{Counter, Total};
pub use latency::LatencyRecorder;
pub use row::Row;

use std::fmt;

use counter::{NAMES, SLOTS};

/// The counters of one layer: a fixed cell per key of the schema
/// ([`Counter`] for the keys call sites bump, [`Total`] for the sums
/// derived from them), plus which keys were ever touched.
///
/// The simulator's subsystems (flash, FTL, device, engine) each expose
/// one of these; experiment harnesses diff snapshots taken before/after a
/// phase. Counters sit on every hot path, so a bump is an array add and a
/// snapshot is a copy. Reports iterate `(name, value)` in name order over
/// the *touched* keys only — a key bumped by zero is listed, a key never
/// bumped is not — and that key set is part of what CSV dumps, the
/// determinism tests and the benchmark's documents compare.
///
/// # Examples
///
/// ```
/// use checkin_sim::{Counter, CounterSet, Total};
///
/// let mut c = CounterSet::new();
/// c.add(Counter::FlashProgramRun, 3);
/// c.incr(Counter::FlashProgramGc);
/// assert_eq!(c.get(Counter::FlashProgramRun), 3);
/// assert_eq!(c.total(Total::FlashProgram), 4);
/// assert_eq!(c.total(Total::FlashErase), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSet {
    /// Value per key, in name order.
    cells: [u64; SLOTS],
    /// Whether the key's cell has ever been credited.
    touched: [bool; SLOTS],
}

impl Default for CounterSet {
    fn default() -> Self {
        CounterSet {
            cells: [0; SLOTS],
            touched: [false; SLOTS],
        }
    }
}

impl CounterSet {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to `key`, and to the [`Total`] it is a part of — the only
    /// way a total ever changes, so a total always equals the sum of its
    /// parts.
    ///
    /// ```
    /// # use checkin_sim::{Counter, CounterSet};
    /// CounterSet::new().add(Counter::FlashProgramGc, 1);
    /// ```
    ///
    /// A total is not a `Counter`, so bumping one does not compile:
    ///
    /// ```compile_fail
    /// # use checkin_sim::{CounterSet, Total};
    /// CounterSet::new().add(Total::FlashProgram, 1);
    /// ```
    #[inline]
    pub fn add(&mut self, key: Counter, n: u64) {
        self.credit(key as usize, n);
        if let Some(total) = key.total() {
            self.credit(total as usize, n);
        }
    }

    /// The one writer of a cell. Recovery and scrubbing bump counters, and
    /// this module denies `clippy::indexing_slicing`: no panicking index.
    #[inline]
    fn credit(&mut self, slot: usize, n: u64) {
        if let (Some(cell), Some(touched)) = (self.cells.get_mut(slot), self.touched.get_mut(slot))
        {
            *cell += n;
            *touched = true;
        }
    }

    /// Adds one to `key`.
    #[inline]
    pub fn incr(&mut self, key: Counter) {
        self.add(key, 1);
    }

    /// Current value of `key` (zero if never touched).
    #[inline]
    pub fn get(&self, key: Counter) -> u64 {
        self.cells.get(key as usize).copied().unwrap_or(0)
    }

    /// Current value of a derived key: the sum of its parts.
    #[inline]
    pub fn total(&self, key: Total) -> u64 {
        self.cells.get(key as usize).copied().unwrap_or(0)
    }

    /// Iterates `(name, value)` over the touched keys, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        (NAMES.iter().zip(&self.cells).zip(&self.touched))
            .filter(|(_, &touched)| touched)
            .map(|((&name, &value), _)| (name, value))
    }

    /// Iterates `(name, value)` over every key of the schema, touched or
    /// not, in name order: the same names for every set.
    pub fn iter_all(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        NAMES.iter().copied().zip(self.cells.iter().copied())
    }

    /// Computes `self - earlier` per key, keeping the keys that grew.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any counter decreased, which would indicate
    /// a bookkeeping bug (counters are monotone).
    pub fn delta_since(&self, earlier: &CounterSet) -> CounterSet {
        let mut out = CounterSet::new();
        let grown = out.cells.iter_mut().zip(&mut out.touched);
        let values = self.cells.iter().zip(&earlier.cells);
        for (((cell, touched), (&now, &before)), name) in grown.zip(values).zip(NAMES) {
            debug_assert!(now >= before, "counter {name} decreased: {before} -> {now}");
            if now > before {
                *cell = now - before;
                *touched = true;
            }
        }
        out
    }

    /// Merges another set into this one by summing matching keys.
    pub fn merge(&mut self, other: &CounterSet) {
        for (cell, &v) in self.cells.iter_mut().zip(&other.cells) {
            *cell += v;
        }
        for (touched, &t) in self.touched.iter_mut().zip(&other.touched) {
            *touched |= t;
        }
    }

    /// True when no counter was ever touched.
    pub fn is_empty(&self) -> bool {
        !self.touched.contains(&true)
    }
}

impl fmt::Display for CounterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "(no counters)");
        }
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut c = CounterSet::new();
        c.add(Counter::EngineReads, 5);
        c.incr(Counter::EngineReads);
        assert_eq!(c.get(Counter::EngineReads), 6);
        assert_eq!(c.get(Counter::EngineUpdates), 0);
    }

    #[test]
    fn delta_since_snapshot() {
        let mut c = CounterSet::new();
        c.add(Counter::FlashReadRun, 10);
        c.add(Counter::FlashTornWrites, 0);
        let snap = c.clone();
        c.add(Counter::FlashReadRun, 7);
        c.add(Counter::FlashReadGc, 2);
        let d = c.delta_since(&snap);
        assert_eq!(d.get(Counter::FlashReadRun), 7);
        assert_eq!(d.get(Counter::FlashReadGc), 2);
        assert_eq!(d.total(Total::FlashRead), 9);
        let keys: Vec<_> = d.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            ["flash.read", "flash.read.gc", "flash.read.run"],
            "only keys that grew"
        );
    }

    #[test]
    fn merge_sums() {
        let mut a = CounterSet::new();
        a.add(Counter::FtlIntegrityQuarantined, 1);
        let mut b = CounterSet::new();
        b.add(Counter::FtlIntegrityQuarantined, 2);
        b.add(Counter::FtlIntegrityCorrected, 3);
        a.merge(&b);
        assert_eq!(a.get(Counter::FtlIntegrityQuarantined), 3);
        assert_eq!(a.get(Counter::FtlIntegrityCorrected), 3);
        assert_eq!(
            a.total(Total::FtlIntegrityDetected),
            6,
            "a merge sums the totals' cells, it does not credit them twice"
        );
    }

    #[test]
    fn display_lists_counters() {
        let mut c = CounterSet::new();
        assert_eq!(c.to_string(), "(no counters)");
        c.add(Counter::SsdCmdRead, 1);
        c.add(Counter::EngineReads, 2);
        assert_eq!(c.to_string(), "engine.reads = 2\nssd.cmd_read = 1");
    }

    #[test]
    fn iter_is_sorted() {
        let mut c = CounterSet::new();
        c.add(Counter::FlashPowerCuts, 1);
        c.add(Counter::EngineSupersededLogs, 0);
        let listed: Vec<_> = c.iter().collect();
        assert_eq!(
            listed,
            [("engine.superseded_logs", 0), ("flash.power_cuts", 1)],
            "touched keys only, a zero bump included"
        );
        assert_ne!(c, {
            let mut untouched = CounterSet::new();
            untouched.add(Counter::FlashPowerCuts, 1);
            untouched
        });
    }

    /// The key names are a contract with kvbench's catalog, the CSV
    /// headers and every committed report: this is today's list, and the
    /// schema must map onto it one-to-one, in order.
    #[test]
    fn names_are_pinned() {
        const PINNED: [&str; 96] = [
            "engine.checkpoints",
            "engine.deletes",
            "engine.inserts",
            "engine.journal_raw_bytes",
            "engine.journal_stored_bytes",
            "engine.loads",
            "engine.reads",
            "engine.recoveries",
            "engine.superseded_logs",
            "engine.update_bytes",
            "engine.updates",
            "flash.bit_rot_data",
            "flash.bit_rot_oob",
            "flash.erase",
            "flash.erase.cp_copy",
            "flash.erase.cp_remap",
            "flash.erase.dealloc",
            "flash.erase.gc",
            "flash.erase.meta",
            "flash.erase.run",
            "flash.erase.scrub",
            "flash.grown_bad_blocks",
            "flash.misdirected_programs",
            "flash.multiplane_programs",
            "flash.power_cuts",
            "flash.program",
            "flash.program.cp_copy",
            "flash.program.cp_remap",
            "flash.program.dealloc",
            "flash.program.gc",
            "flash.program.meta",
            "flash.program.run",
            "flash.program.scrub",
            "flash.program_suspends",
            "flash.read",
            "flash.read.cp_copy",
            "flash.read.cp_remap",
            "flash.read.dealloc",
            "flash.read.gc",
            "flash.read.meta",
            "flash.read.run",
            "flash.read.scrub",
            "flash.read_die_wait_ns",
            "flash.read_overtakes",
            "flash.torn_writes",
            "flash.transient_faults",
            "ftl.blocks_retired",
            "ftl.buffer_slot_wait_ns",
            "ftl.buffer_slot_waits",
            "ftl.deallocations",
            "ftl.gc_background",
            "ftl.gc_foreground",
            "ftl.gc_invocations",
            "ftl.gc_units_moved",
            "ftl.gc_wear_level",
            "ftl.host_bytes",
            "ftl.host_unit_reads",
            "ftl.host_unit_writes",
            "ftl.integrity_corrected",
            "ftl.integrity_detected",
            "ftl.integrity_quarantined",
            "ftl.integrity_unrecoverable",
            "ftl.invalid_units",
            "ftl.mapping_log_persists",
            "ftl.media_retries",
            "ftl.off_plane_opens",
            "ftl.pages_programmed",
            "ftl.power_loss_rebuilds",
            "ftl.programming_page_reads",
            "ftl.remap_ops",
            "ftl.retry_exhausted_erase",
            "ftl.retry_exhausted_program",
            "ftl.retry_exhausted_read",
            "ftl.rmw_reads",
            "ftl.scrub_pages",
            "ftl.scrub_rounds",
            "ftl.wear_level_rounds",
            "ssd.background_gc_rounds",
            "ssd.background_scrub_rounds",
            "ssd.cmd_checkpoint",
            "ssd.cmd_cow",
            "ssd.cmd_dealloc",
            "ssd.cmd_flush",
            "ssd.cmd_read",
            "ssd.cmd_write",
            "ssd.copy_entries",
            "ssd.cow_missing_src",
            "ssd.cow_skipped_entries",
            "ssd.host_read_bytes",
            "ssd.host_write_bytes",
            "ssd.map_segments",
            "ssd.map_units",
            "ssd.meta_writes",
            "ssd.remap_entries",
            "ssd.spor_recoveries",
            "ssd.wear_level_rounds",
        ];
        assert!(PINNED.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
        // Bumping every leaf touches every key: what `iter` then lists is
        // the whole schema, leaves and the totals they credit.
        let mut all = CounterSet::new();
        for &key in Counter::ALL {
            all.incr(key);
        }
        let listed: Vec<&str> = all.iter().map(|(name, _)| name).collect();
        assert_eq!(listed, PINNED);
        let mut keys: Vec<&str> = (Counter::ALL.iter().map(|k| k.name()))
            .chain(Total::ALL.iter().map(|t| t.name()))
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, PINNED, "each key is exactly one leaf or one total");
        for &total in Total::ALL {
            let parts = Counter::ALL.iter().filter(|k| k.total() == Some(total));
            assert_eq!(all.total(total), parts.count() as u64, "{}", total.name());
        }
    }
}
