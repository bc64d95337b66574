//! Property-based tests over the full stack and its core invariants.
//! Randomized via `checkin-testkit` (deterministic seeds, offline-safe).

use std::collections::HashMap;

use checkin_core::{align_log, EngineError, KvEngine, Layout, LogClass, Strategy};
use checkin_flash::{FlashArray, FlashGeometry, FlashTiming};
use checkin_ftl::{Ftl, FtlConfig, Location, Lpn, MappingTable, Pun};
use checkin_sim::SimTime;
use checkin_ssd::{ReadRequest, Ssd, SsdTiming, SECTOR_BYTES};
use checkin_testkit::{check, soup, TestRng};

// ---------------------------------------------------------------------
// Algorithm 2 (sector alignment) invariants
// ---------------------------------------------------------------------

#[test]
fn aligned_logs_never_shrink_below_payload() {
    check("aligned_logs_never_shrink_below_payload", 256, |rng| {
        let bytes = rng.range_u32(1, 4096);
        let ratio = rng.range_f64(0.3, 1.0);
        let log = align_log(bytes, ratio);
        let effective = if bytes > SECTOR_BYTES {
            (bytes as f64 * ratio).ceil() as u32
        } else {
            bytes
        };
        assert!(log.stored_bytes >= effective.min(log.sectors * SECTOR_BYTES));
        assert!(log.stored_bytes >= effective || bytes > SECTOR_BYTES);
    });
}

#[test]
fn aligned_full_logs_are_sector_multiples() {
    check("aligned_full_logs_are_sector_multiples", 256, |rng| {
        let bytes = rng.range_u32(1, 4096);
        let ratio = rng.range_f64(0.3, 1.0);
        let log = align_log(bytes, ratio);
        match log.class {
            LogClass::Full => {
                assert_eq!(log.stored_bytes % SECTOR_BYTES, 0);
                assert_eq!(log.stored_bytes / SECTOR_BYTES, log.sectors);
            }
            LogClass::Partial => {
                assert!(log.stored_bytes < SECTOR_BYTES);
                assert_eq!(log.stored_bytes % 128, 0);
                assert_eq!(log.sectors, 1);
            }
        }
    });
}

#[test]
fn alignment_is_monotone_in_value_size() {
    check("alignment_is_monotone_in_value_size", 256, |rng| {
        // Within the sub-sector classes, a bigger value never stores fewer
        // bytes.
        let a = rng.range_u32(1, 512);
        let b = rng.range_u32(1, 512);
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        assert!(align_log(small, 1.0).stored_bytes <= align_log(large, 1.0).stored_bytes);
    });
}

// ---------------------------------------------------------------------
// Mapping-table invariants
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum MapOp {
    Map(u8, u8),
    Alias(u8, u8),
    Unmap(u8),
    Relocate(u8, u8),
}

fn map_op(rng: &mut TestRng) -> MapOp {
    match rng.weighted(&[1, 1, 1, 1]) {
        0 => MapOp::Map(rng.any_u8(), rng.any_u8()),
        1 => MapOp::Alias(rng.any_u8(), rng.any_u8()),
        2 => MapOp::Unmap(rng.any_u8()),
        _ => MapOp::Relocate(rng.any_u8(), rng.any_u8()),
    }
}

#[test]
fn mapping_table_stays_consistent() {
    check("mapping_table_stays_consistent", 64, |rng| {
        let len = rng.range_usize(1, 199);
        let ops = soup(rng, len, map_op);
        let mut table = MappingTable::new();
        for op in ops {
            match op {
                MapOp::Map(l, p) => {
                    table.map(Lpn(l as u64), Location::Flash(Pun(p as u64)));
                }
                MapOp::Alias(d, s) => {
                    let _ = table.alias(Lpn(d as u64), Lpn(s as u64));
                }
                MapOp::Unmap(l) => {
                    table.unmap(Lpn(l as u64));
                }
                MapOp::Relocate(f, t) => {
                    table.relocate(
                        Location::Flash(Pun(f as u64)),
                        Location::Flash(Pun(t as u64)),
                    );
                }
            }
            assert!(table.check_consistency().is_ok());
        }
    });
}

// ---------------------------------------------------------------------
// Whole-stack property: random update/read/checkpoint sequences preserve
// the shadow model for every strategy.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum StackOp {
    Update { key: u8, bytes: u16 },
    Read { key: u8 },
    Checkpoint,
}

fn stack_op(rng: &mut TestRng) -> StackOp {
    match rng.weighted(&[4, 4, 1]) {
        0 => StackOp::Update {
            key: rng.any_u8(),
            bytes: rng.range_u32(1, 4096) as u16,
        },
        1 => StackOp::Read { key: rng.any_u8() },
        _ => StackOp::Checkpoint,
    }
}

const RECORDS: u64 = 64;

fn build(strategy: Strategy) -> (Ssd, KvEngine) {
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
    let layout = Layout::new(RECORDS, 4096 + 16, unit, 1 << 10);
    (ssd, KvEngine::new(strategy, layout, 0.7))
}

fn run_stack_ops(strategy: Strategy, ops: &[StackOp]) {
    let (mut ssd, mut engine) = build(strategy);
    let records: Vec<(u64, u32)> = (0..RECORDS).map(|k| (k, 256)).collect();
    let mut t = engine.load(&mut ssd, &records, SimTime::ZERO).unwrap();
    let mut shadow: HashMap<u64, u64> = records.iter().map(|&(k, _)| (k, 1)).collect();

    for op in ops {
        match op {
            StackOp::Update { key, bytes } => {
                let key = *key as u64 % RECORDS;
                match engine.update(&mut ssd, key, *bytes as u32, t) {
                    Ok(done) => t = done,
                    Err(EngineError::JournalFull) => {
                        t = engine.checkpoint(&mut ssd, t).unwrap().finish;
                        t = engine.update(&mut ssd, key, *bytes as u32, t).unwrap();
                    }
                    Err(e) => panic!("{e}"),
                }
                *shadow.get_mut(&key).unwrap() += 1;
            }
            StackOp::Read { key } => {
                let key = *key as u64 % RECORDS;
                let r = engine.get(&mut ssd, key, t).unwrap();
                t = r.finish;
                assert_eq!(r.version, shadow[&key]);
            }
            StackOp::Checkpoint => {
                t = engine.checkpoint(&mut ssd, t).unwrap().finish;
            }
        }
    }
    for (&key, &version) in &shadow {
        let r = engine.get(&mut ssd, key, t).unwrap();
        t = r.finish;
        assert_eq!(r.version, version, "final sweep key {key}");
    }
    assert!(ssd.ftl().check_invariants().is_ok());
}

fn stack_soup(rng: &mut TestRng) -> Vec<StackOp> {
    let len = rng.range_usize(1, 119);
    soup(rng, len, stack_op)
}

#[test]
fn baseline_stack_preserves_shadow() {
    check("baseline_stack_preserves_shadow", 16, |rng| {
        let ops = stack_soup(rng);
        run_stack_ops(Strategy::Baseline, &ops);
    });
}

#[test]
fn iscb_stack_preserves_shadow() {
    check("iscb_stack_preserves_shadow", 16, |rng| {
        let ops = stack_soup(rng);
        run_stack_ops(Strategy::IscB, &ops);
    });
}

#[test]
fn iscc_stack_preserves_shadow() {
    check("iscc_stack_preserves_shadow", 16, |rng| {
        let ops = stack_soup(rng);
        run_stack_ops(Strategy::IscC, &ops);
    });
}

#[test]
fn checkin_stack_preserves_shadow() {
    check("checkin_stack_preserves_shadow", 16, |rng| {
        let ops = stack_soup(rng);
        run_stack_ops(Strategy::CheckIn, &ops);
    });
}

// ---------------------------------------------------------------------
// A sized home read sees what a whole-slot read sees: records that grow,
// shrink, die and come back, under every strategy, across checkpoints
// and one recovery.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum SizeOp {
    /// Update a live key or insert a dead one, to any size up to the slot.
    Put {
        key: u8,
        bytes: u16,
    },
    Delete {
        key: u8,
    },
    Checkpoint,
}

fn size_op(rng: &mut TestRng) -> SizeOp {
    match rng.weighted(&[8, 2, 1]) {
        0 => SizeOp::Put {
            key: rng.any_u8(),
            // Half the values are sub-sector, so records shrink from
            // eight sectors to one as often as they grow back.
            bytes: if rng.weighted(&[1, 1]) == 0 {
                rng.range_u32(1, 512)
            } else {
                rng.range_u32(513, 4096)
            } as u16,
        },
        1 => SizeOp::Delete { key: rng.any_u8() },
        _ => SizeOp::Checkpoint,
    }
}

/// The newest version in `frags` and the bytes stored at it.
fn newest(frags: &[checkin_flash::Fragment]) -> (u64, u32) {
    let version = frags.iter().map(|f| f.version).max().unwrap_or(0);
    let at_version = frags.iter().filter(|f| f.version == version);
    (version, at_version.map(|f| f.bytes).sum())
}

/// For every live key the JMT does not hold — so `get` goes to the home
/// slot — the sized read and a read of the whole slot agree on the
/// newest version and on every byte stored at it.
fn sized_reads_see_the_whole_record(
    engine: &mut KvEngine,
    ssd: &mut Ssd,
    mut t: SimTime,
    strategy: Strategy,
) -> SimTime {
    let layout = *engine.layout();
    for key in 0..RECORDS {
        if engine.size_of(key).is_none() || engine.journal().jmt().lookup(key).is_some() {
            continue;
        }
        let sized = engine.get(ssd, key, t).unwrap();
        assert!(!sized.from_journal);
        let whole_slot = ReadRequest {
            lba: layout.home_lba(key),
            sectors: layout.slot_sectors() as u32,
            key: Some(key),
        };
        let (frags, done) = ssd.read(&whole_slot, sized.finish).unwrap();
        t = done;
        assert_eq!(
            (sized.version, sized.bytes),
            newest(&frags),
            "{strategy} key {key}: a {:?}-byte value read short of {frags:?}",
            engine.size_of(key)
        );
        assert_eq!(Some(sized.version), engine.version_of(key));
    }
    t
}

/// Applies one operation; `JournalFull` asks the caller for a checkpoint
/// (an explicit [`SizeOp::Checkpoint`] asks by the same route).
fn apply_size_op(
    engine: &mut KvEngine,
    ssd: &mut Ssd,
    op: &SizeOp,
    t: SimTime,
) -> Result<SimTime, EngineError> {
    match *op {
        SizeOp::Put { key, bytes } => {
            let (key, bytes) = (key as u64 % RECORDS, bytes as u32);
            if engine.size_of(key).is_some() {
                engine.update(ssd, key, bytes, t)
            } else {
                engine.insert(ssd, key, bytes, t)
            }
        }
        SizeOp::Delete { key } => match engine.delete(ssd, key as u64 % RECORDS, t) {
            Err(EngineError::UnknownKey(_)) => Ok(t), // already dead
            other => other,
        },
        SizeOp::Checkpoint => Err(EngineError::JournalFull),
    }
}

fn run_size_ops(strategy: Strategy, ops: &[SizeOp]) {
    let (mut ssd, mut engine) = build(strategy);
    let records: Vec<(u64, u32)> = (0..RECORDS)
        .map(|k| (k, 1 + (k as u32 * 397) % 4096))
        .collect();
    let mut t = engine.load(&mut ssd, &records, SimTime::ZERO).unwrap();
    t = sized_reads_see_the_whole_record(&mut engine, &mut ssd, t, strategy);

    // One host crash in the middle: the second half runs on an engine
    // that learnt every size from the device.
    let (before, after) = ops.split_at(ops.len() / 2);
    for half in [before, after] {
        for op in half {
            t = match apply_size_op(&mut engine, &mut ssd, op, t) {
                Ok(done) => done,
                Err(EngineError::JournalFull) => {
                    t = engine.checkpoint(&mut ssd, t).unwrap().finish;
                    t = sized_reads_see_the_whole_record(&mut engine, &mut ssd, t, strategy);
                    match op {
                        SizeOp::Checkpoint => t,
                        _ => apply_size_op(&mut engine, &mut ssd, op, t).unwrap(),
                    }
                }
                Err(e) => panic!("{strategy} {op:?}: {e}"),
            };
        }
        t = engine.checkpoint(&mut ssd, t).unwrap().finish;
        t = sized_reads_see_the_whole_record(&mut engine, &mut ssd, t, strategy);
        let layout = *engine.layout();
        (engine, t) = KvEngine::recover(strategy, layout, 0.7, &mut ssd, RECORDS, t).unwrap();
        t = sized_reads_see_the_whole_record(&mut engine, &mut ssd, t, strategy);
    }
    assert!(ssd.ftl().check_invariants().is_ok());
}

#[test]
fn a_sized_read_sees_what_a_whole_slot_read_sees() {
    check("a_sized_read_sees_what_a_whole_slot_read_sees", 12, |rng| {
        let len = rng.range_usize(40, 239);
        let ops = soup(rng, len, size_op);
        for strategy in Strategy::all() {
            run_size_ops(strategy, &ops);
        }
    });
}
