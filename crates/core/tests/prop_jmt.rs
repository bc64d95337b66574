//! Property tests pinning the dense Vec-backed JMT to a `BTreeMap`-based
//! shadow model: random record/drain soups must agree on lookups, live
//! and superseded accounting, byte statistics, ascending-key iteration,
//! and the contents of every checkpoint drain.

use std::collections::BTreeMap;

use checkin_core::{Jmt, JmtEntry};
use checkin_testkit::{check, soup, TestRng};

/// Hot dense keys.
const DENSE_KEYS: u64 = 128;

#[derive(Debug, Clone, Copy)]
enum Op {
    Record { key: u64 },
    Drain,
}

fn any_op(rng: &mut TestRng) -> Op {
    match rng.weighted(&[24, 1]) {
        0 => Op::Record {
            key: rng.below(DENSE_KEYS),
        },
        _ => Op::Drain,
    }
}

fn any_entry(rng: &mut TestRng, version: u64) -> JmtEntry {
    let sectors = rng.range_u32(1, 4);
    JmtEntry {
        journal_lba: rng.below(1 << 20),
        sectors,
        version,
        raw_bytes: rng.range_u32(1, 2048),
        stored_bytes: sectors * 512,
        merged: rng.chance(0.2),
        tombstone: rng.chance(0.1),
    }
}

/// Ground truth: an ordered map plus the zone statistics recomputed the
/// slow way.
#[derive(Default)]
struct Shadow {
    entries: BTreeMap<u64, JmtEntry>,
    superseded: u64,
    raw_bytes: u64,
    stored_bytes: u64,
}

impl Shadow {
    fn record(&mut self, key: u64, entry: JmtEntry) {
        self.raw_bytes += entry.raw_bytes as u64;
        self.stored_bytes += entry.stored_bytes as u64;
        if self.entries.insert(key, entry).is_some() {
            self.superseded += 1;
        }
    }

    fn drain(&mut self) -> Vec<(u64, JmtEntry)> {
        let drained = std::mem::take(&mut self.entries).into_iter().collect();
        self.superseded = 0;
        self.raw_bytes = 0;
        self.stored_bytes = 0;
        drained
    }
}

fn assert_equivalent(jmt: &Jmt, shadow: &Shadow) {
    let from_jmt: Vec<(u64, JmtEntry)> = jmt.iter().map(|(k, e)| (k, *e)).collect();
    let from_shadow: Vec<(u64, JmtEntry)> = shadow.entries.iter().map(|(&k, &e)| (k, e)).collect();
    assert_eq!(from_jmt, from_shadow, "entries / iteration order");
    assert_eq!(jmt.live_keys(), shadow.entries.len(), "live keys");
    assert_eq!(jmt.is_empty(), shadow.entries.is_empty(), "emptiness");
    assert_eq!(jmt.superseded(), shadow.superseded, "superseded");
    assert_eq!(jmt.raw_bytes(), shadow.raw_bytes, "raw bytes");
    assert_eq!(jmt.stored_bytes(), shadow.stored_bytes, "stored bytes");
}

/// A checkpoint drain into a fresh buffer.
fn drain(jmt: &mut Jmt) -> Vec<(u64, JmtEntry)> {
    let mut out = Vec::new();
    jmt.drain_into(&mut out);
    out
}

fn run_ops(ops: &[Op], rng: &mut TestRng) {
    let mut jmt = Jmt::new();
    let mut shadow = Shadow::default();
    let mut drain_buf: Vec<(u64, JmtEntry)> = Vec::new();
    let mut version = 0u64;

    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Record { key } => {
                version += 1;
                let entry = any_entry(rng, version);
                jmt.record(key, entry);
                shadow.record(key, entry);
                assert_eq!(jmt.lookup(key), Some(&entry), "lookup after record");
            }
            Op::Drain => {
                // Alternate between a reused buffer and a fresh one; the
                // drain clears what the buffer held, so they must agree.
                let drained = if i % 2 == 0 {
                    jmt.drain_into(&mut drain_buf);
                    drain_buf.clone()
                } else {
                    drain(&mut jmt)
                };
                assert_eq!(drained, shadow.drain(), "drained checkpoint set");
                assert!(jmt.is_empty(), "empty after drain");
                assert_eq!(
                    (jmt.superseded(), jmt.raw_bytes(), jmt.stored_bytes()),
                    (0, 0, 0),
                    "stats reset by drain"
                );
            }
        }
    }
    assert_equivalent(&jmt, &shadow);

    // One final drain: whatever is left comes out in ascending key order.
    let last = drain(&mut jmt);
    assert!(last.windows(2).all(|w| w[0].0 < w[1].0), "ascending keys");
    assert_eq!(last, shadow.drain(), "final drain");
}

#[test]
fn jmt_matches_map_shadow_under_random_ops() {
    check("jmt_matches_map_shadow", 96, |rng| {
        let len = rng.range_usize(1, 399);
        let ops = soup(rng, len, any_op);
        run_ops(&ops, rng);
    });
}

/// Long soups spanning many drain cycles: the recycled dense array must
/// not leak entries or statistics across checkpoints.
#[test]
fn jmt_matches_map_shadow_across_many_checkpoints() {
    check("jmt_many_checkpoints", 12, |rng| {
        let len = rng.range_usize(3_000, 3_999);
        let ops = soup(rng, len, any_op);
        run_ops(&ops, rng);
    });
}

/// Equivalence after every single operation.
#[test]
fn jmt_stays_equivalent_at_every_step() {
    check("jmt_stepwise_equivalence", 16, |rng| {
        let len = rng.range_usize(1, 99);
        let ops = soup(rng, len, any_op);
        let mut jmt = Jmt::new();
        let mut shadow = Shadow::default();
        let mut version = 0u64;
        for op in &ops {
            match *op {
                Op::Record { key } => {
                    version += 1;
                    let entry = any_entry(rng, version);
                    jmt.record(key, entry);
                    shadow.record(key, entry);
                }
                Op::Drain => {
                    assert_eq!(drain(&mut jmt), shadow.drain());
                }
            }
            assert_equivalent(&jmt, &shadow);
        }
    });
}
