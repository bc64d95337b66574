//! The journal mapping table (JMT).
//!
//! Maps each key to the journal location of its **latest** version — the
//! paper's JMT with `NEW`/`OLD` flags collapses to "latest wins" because
//! only non-`OLD` entries are checkpointed (Algorithm 1 skips the rest);
//! superseded versions are still accounted as duplicates for statistics.
//!
//! Every journaled key is a dense integer below the layout's record
//! count — the engine refuses any other, and the superblock is a host
//! write to the layout's metadata sector that never enters the journal —
//! so the table is one flat `Vec` indexed by key (like the FTL's
//! page-mapped L2P array, paper §II). It grows lazily to the highest key
//! recorded, and iteration and checkpoint drains walk it in ascending
//! key order — the determinism the checkpoint processor relies on.

/// One JMT entry: where the latest journal copy of a key lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JmtEntry {
    /// Journal location (start sector).
    pub journal_lba: u64,
    /// Sectors spanned by the log.
    pub sectors: u32,
    /// Version recorded.
    pub version: u64,
    /// Raw (pre-alignment) value bytes.
    pub raw_bytes: u32,
    /// Stored (aligned/compressed) bytes.
    pub stored_bytes: u32,
    /// True when the log shares its sector with other records (`MERGED`).
    pub merged: bool,
    /// True when the log is a deletion tombstone.
    pub tombstone: bool,
}

/// Journal mapping table for the active journal zone.
///
/// # Examples
///
/// ```
/// use checkin_core::{Jmt, JmtEntry};
///
/// let mut jmt = Jmt::new();
/// jmt.record(7, JmtEntry { journal_lba: 100, sectors: 1, version: 1, raw_bytes: 400, stored_bytes: 512, merged: false, tombstone: false });
/// jmt.record(7, JmtEntry { journal_lba: 101, sectors: 1, version: 2, raw_bytes: 400, stored_bytes: 512, merged: false, tombstone: false });
/// assert_eq!(jmt.lookup(7).unwrap().version, 2);
/// assert_eq!(jmt.superseded(), 1); // the v1 log went stale ("OLD")
/// ```
#[derive(Debug, Clone, Default)]
pub struct Jmt {
    /// Key-indexed entries; grows lazily to the highest key recorded.
    /// The allocation is kept across checkpoint drains so steady-state
    /// operation stops allocating.
    dense: Vec<Option<JmtEntry>>,
    live: usize,
    superseded: u64,
    raw_bytes: u64,
    stored_bytes: u64,
}

impl Jmt {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room reserved for keys below `key_hint`
    /// (avoids regrowth during the load phase).
    pub fn with_key_capacity(key_hint: u64) -> Self {
        let mut jmt = Self::default();
        jmt.dense.reserve(key_hint as usize);
        jmt
    }

    /// Records a new journal log for `key`, superseding any previous one.
    pub fn record(&mut self, key: u64, entry: JmtEntry) {
        self.raw_bytes += entry.raw_bytes as u64;
        self.stored_bytes += entry.stored_bytes as u64;
        let idx = key as usize;
        if idx >= self.dense.len() {
            self.dense.resize(idx + 1, None);
        }
        if self.dense[idx].replace(entry).is_some() {
            self.superseded += 1;
        } else {
            self.live += 1;
        }
    }

    /// Latest journal location of `key`.
    pub fn lookup(&self, key: u64) -> Option<&JmtEntry> {
        self.dense.get(key as usize)?.as_ref()
    }

    /// Distinct keys with live journal logs.
    pub fn live_keys(&self) -> usize {
        self.live
    }

    /// Logs that went stale because the key was updated again (the `OLD`
    /// flag population).
    pub fn superseded(&self) -> u64 {
        self.superseded
    }

    /// Raw bytes journaled into this zone.
    pub fn raw_bytes(&self) -> u64 {
        self.raw_bytes
    }

    /// Stored (post-alignment) bytes journaled into this zone.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// Iterates live entries in key order (deterministic checkpoints).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &JmtEntry)> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter_map(|(k, slot)| slot.as_ref().map(|e| (k as u64, e)))
    }

    /// Drains the table for a checkpoint into `out` (cleared first), in
    /// key order, resetting all statistics. The caller's buffer and the
    /// dense array's allocation are both reused, so steady-state
    /// checkpoints allocate nothing.
    pub fn drain_into(&mut self, out: &mut Vec<(u64, JmtEntry)>) {
        out.clear();
        out.reserve(self.live);
        for (k, slot) in self.dense.iter_mut().enumerate() {
            if let Some(e) = slot.take() {
                out.push((k as u64, e));
            }
        }
        self.live = 0;
        self.superseded = 0;
        self.raw_bytes = 0;
        self.stored_bytes = 0;
    }

    /// True when nothing has been journaled since the last checkpoint.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(lba: u64, version: u64) -> JmtEntry {
        JmtEntry {
            journal_lba: lba,
            sectors: 1,
            version,
            raw_bytes: 400,
            stored_bytes: 512,
            merged: false,
            tombstone: false,
        }
    }

    #[test]
    fn latest_version_wins() {
        let mut j = Jmt::new();
        j.record(1, entry(10, 1));
        j.record(1, entry(20, 2));
        assert_eq!(j.lookup(1).unwrap().journal_lba, 20);
        assert_eq!(j.live_keys(), 1);
        assert_eq!(j.superseded(), 1);
    }

    #[test]
    fn space_overhead_reflects_padding() {
        let mut j = Jmt::new();
        j.record(1, entry(0, 1)); // 400 raw -> 512 stored
        assert_eq!((j.raw_bytes(), j.stored_bytes()), (400, 512));
        let empty = Jmt::new();
        assert_eq!((empty.raw_bytes(), empty.stored_bytes()), (0, 0));
    }

    #[test]
    fn take_for_checkpoint_drains_in_key_order() {
        let mut j = Jmt::new();
        j.record(5, entry(1, 1));
        j.record(2, entry(2, 1));
        j.record(9, entry(3, 1));
        j.record(9, entry(4, 2));
        let mut drained = Vec::new();
        j.drain_into(&mut drained);
        let keys: Vec<u64> = drained.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![2, 5, 9]);
        assert!(j.is_empty());
        assert_eq!((j.superseded(), j.raw_bytes(), j.stored_bytes()), (0, 0, 0));
    }

    #[test]
    fn iter_matches_lookup() {
        let mut j = Jmt::new();
        j.record(3, entry(30, 7));
        let collected: Vec<_> = j.iter().collect();
        assert_eq!(collected.len(), 1);
        assert_eq!(collected[0].0, 3);
        assert_eq!(collected[0].1.version, 7);
    }

    #[test]
    fn drain_into_reuses_buffer() {
        let mut j = Jmt::new();
        let mut buf = Vec::new();
        for round in 0..3u64 {
            j.record(1, entry(round, round));
            j.record(2, entry(round, round));
            j.drain_into(&mut buf);
            assert_eq!(buf.len(), 2);
            assert!(j.is_empty());
        }
    }
}
