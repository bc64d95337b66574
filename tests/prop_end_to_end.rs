//! Property-based tests over the full stack and its core invariants.
//! Randomized via `checkin-testkit` (deterministic seeds, offline-safe).

mod shadow;

use checkin_core::{align_log, LogClass, Strategy};
use checkin_ftl::{Location, Lpn, MappingTable, Pun};
use checkin_ssd::SECTOR_BYTES;
use checkin_testkit::{check, check_seeded, soup, TestRng, BASE_SEED};
use shadow::{any_op, any_put, paced_op, rounds, run, Op, Tally, RECORDS};

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
// The engine against one shadow model (`shadow/mod.rs`): every op soup
// below runs through the same harness.
// ---------------------------------------------------------------------

/// Updates, reads and checkpoints only.
fn stack_op(rng: &mut TestRng) -> Op {
    match rng.weighted(&[4, 4, 1]) {
        0 => Op::Put {
            key: rng.below(RECORDS),
            bytes: rng.range_u32(1, 4096),
        },
        1 => Op::Read {
            key: rng.below(RECORDS),
        },
        _ => Op::Checkpoint,
    }
}

fn stack_preserves_shadow(name: &str, strategy: Strategy) {
    check(name, 16, |rng| {
        let len = rng.range_usize(1, 119);
        run(strategy, &soup(rng, len, stack_op));
    });
}

#[test]
fn baseline_stack_preserves_shadow() {
    stack_preserves_shadow("baseline_stack_preserves_shadow", Strategy::Baseline);
}

#[test]
fn iscb_stack_preserves_shadow() {
    stack_preserves_shadow("iscb_stack_preserves_shadow", Strategy::IscB);
}

#[test]
fn iscc_stack_preserves_shadow() {
    stack_preserves_shadow("iscc_stack_preserves_shadow", Strategy::IscC);
}

#[test]
fn checkin_stack_preserves_shadow() {
    stack_preserves_shadow("checkin_stack_preserves_shadow", Strategy::CheckIn);
}

/// Puts, deletes and checkpoints: records that grow, shrink, die and
/// come back.
fn size_op(rng: &mut TestRng) -> Op {
    match rng.weighted(&[8, 2, 1]) {
        0 => any_put(rng),
        1 => Op::Delete {
            key: rng.below(RECORDS),
        },
        _ => Op::Checkpoint,
    }
}

/// The harness compares every sized home read with a whole-slot read
/// after each checkpoint and recovery; here a host crash follows a
/// checkpoint halfway, so the second half runs on an engine that learnt
/// every size from the device.
#[test]
fn a_sized_read_sees_what_a_whole_slot_read_sees() {
    check("a_sized_read_sees_what_a_whole_slot_read_sees", 12, |rng| {
        let len = rng.range_usize(40, 239);
        let ops = soup(rng, len, size_op);
        let (before, after) = ops.split_at(len / 2);
        let cut = [Op::Checkpoint, Op::Crash];
        let ops = [before, &cut, after, &cut].concat();
        for strategy in Strategy::all() {
            assert_eq!(run(strategy, &ops).recoveries, 2, "{strategy}");
        }
    });
}

#[test]
fn the_engine_matches_one_shadow() {
    check("the_engine_matches_one_shadow", 12, |rng| {
        let len = rng.range_usize(40, 239);
        let ops = soup(rng, len, any_op);
        for strategy in Strategy::all() {
            run(strategy, &ops);
        }
    });
}

/// Long soups: enough writes for background GC to reclaim blocks, and
/// crashes that land on a journal tail.
#[test]
fn the_engine_matches_one_shadow_over_long_soups() {
    let mut total = Tally::default();
    check_seeded(
        "the_engine_matches_one_shadow_over_long_soups",
        BASE_SEED ^ 0x10E6,
        2,
        &mut |rng: &mut TestRng| {
            let ops = soup(rng, 3_000, any_op);
            for strategy in Strategy::all() {
                let tally = run(strategy, &ops);
                total.gc_rounds += tally.gc_rounds;
                total.replaying_recoveries += tally.replaying_recoveries;
            }
        },
    );
    assert!(
        total.gc_rounds > 0 && total.replaying_recoveries > 0,
        "impotent: {total:?}"
    );
}

/// Checkpoints begun, pumped a few steps at a time and finished, with
/// puts, deletes, reads and host crashes between the steps: every read
/// inside a paced copy sees the shadow, a key of the retiring zone from
/// its log, and a crash mid-pacing loses nothing.
#[test]
fn paced_checkpoints_match_one_shadow() {
    let mut total = Tally::default();
    check_seeded(
        "paced_checkpoints_match_one_shadow",
        BASE_SEED ^ 0xBACE,
        8,
        &mut |rng: &mut TestRng| {
            let len = rng.range_usize(40, 399);
            let ops = soup(rng, len, paced_op);
            for strategy in Strategy::all() {
                let tally = run(strategy, &ops);
                total.pump_steps += tally.pump_steps;
                total.paced_crashes += tally.paced_crashes;
                total.replaying_recoveries += tally.replaying_recoveries;
            }
        },
    );
    assert!(
        total.pump_steps > 0 && total.paced_crashes > 0 && total.replaying_recoveries > 0,
        "impotent: {total:?}"
    );
}

// ---------------------------------------------------------------------
// Named recovery scenarios: fixed histories through the same harness.
// ---------------------------------------------------------------------

#[test]
fn recovery_from_a_crash_in_mid_pacing() {
    // After a round of updates, every key is rewritten sub-sector; a
    // checkpoint of that is begun and pumped once, half the keys are
    // updated again and one is deleted, then the host crashes. The
    // Baseline's read-backs and rewrites and ISC-A's per-entry commands
    // are paced through a queue-deep window, ISC-B copies every entry
    // and Check-In its merged small logs, and ISC-C, which remaps every
    // log, walks its batch and trims the retired zone in pump steps: all
    // five are still pumping.
    let small = (0..RECORDS).map(|key| Op::Put {
        key,
        bytes: 100 + key as u32 * 5,
    });
    let again = (0..RECORDS / 2).map(|key| Op::Put { key, bytes: 700 });
    let ops = [
        rounds(1, 3),
        small.collect(),
        vec![Op::Begin, Op::Pump(1)],
        again.collect(),
        vec![Op::Delete { key: RECORDS - 1 }, Op::Crash],
        rounds(1, 1),
    ]
    .concat();
    for strategy in Strategy::all() {
        let tally = run(strategy, &ops);
        assert_eq!(tally.paced_crashes, 1, "{strategy}");
        assert_eq!(tally.replaying_recoveries, 1, "{strategy}");
    }
}

#[test]
fn recovery_with_clean_checkpoint_only() {
    let ops = [rounds(4, 2), vec![Op::Checkpoint, Op::Crash]].concat();
    for strategy in Strategy::all() {
        assert_eq!(run(strategy, &ops).replaying_recoveries, 0, "{strategy}");
    }
}

#[test]
fn recovery_with_journal_tail_after_last_checkpoint() {
    // Checkpoints after rounds 2 and 4: round 5's logs stay in the
    // journal and must be replayed.
    let ops = [rounds(5, 2), vec![Op::Crash]].concat();
    for strategy in Strategy::all() {
        assert_eq!(run(strategy, &ops).replaying_recoveries, 1, "{strategy}");
    }
}

#[test]
fn recovery_without_any_checkpoint() {
    let ops = [rounds(1, 10), vec![Op::Crash]].concat();
    for strategy in Strategy::all() {
        let tally = run(strategy, &ops);
        assert_eq!(
            (tally.checkpoints, tally.replaying_recoveries),
            (0, 1),
            "{strategy}"
        );
    }
}

#[test]
fn recovered_engine_accepts_new_work() {
    // Updates and a checkpoint on the recovered engine; the sweep after
    // that checkpoint reads every key from its home.
    let ops = [rounds(3, 2), vec![Op::Crash], rounds(1, 1)].concat();
    run(Strategy::CheckIn, &ops);
}

#[test]
fn double_crash_recovers_twice() {
    let ops = [rounds(3, 2), vec![Op::Crash, Op::Crash]].concat();
    assert_eq!(run(Strategy::CheckIn, &ops).recoveries, 2);
}

#[test]
fn unknown_key_still_errors_after_recovery() {
    let ops = [
        rounds(1, 10),
        vec![Op::Crash, Op::Read { key: RECORDS + 5 }],
    ]
    .concat();
    run(Strategy::CheckIn, &ops);
}
