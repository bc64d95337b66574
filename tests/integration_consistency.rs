//! Data-consistency integration against the shadow model: long seeded
//! churns of updates, reads, checkpoints and background GC, and rounds
//! of updates cut by host crashes, each checked at every step by the
//! engine harness of `shadow/mod.rs`.

mod shadow;

use checkin_core::Strategy;
use checkin_testkit::{check_seeded, soup, TestRng};
use shadow::{run, Op, RECORDS};

/// 40 % updates of any size, 40 % reads, 10 % checkpoints, 10 % idle GC.
fn churn_op(rng: &mut TestRng) -> Op {
    match rng.weighted(&[4, 4, 1, 1]) {
        0 => Op::Put {
            key: rng.below(RECORDS),
            bytes: rng.range_u32(1, 4096),
        },
        1 => Op::Read {
            key: rng.below(RECORDS),
        },
        2 => Op::Checkpoint,
        _ => Op::Gc,
    }
}

/// `cases` seeded churns of `ops` operations each.
fn churn(strategy: Strategy, seed: u64, cases: u64, ops: usize) {
    let name = format!("{strategy} churn, seed {seed}");
    check_seeded(&name, seed, cases, &mut |rng: &mut TestRng| {
        run(strategy, &soup(rng, ops, churn_op));
    });
}

#[test]
fn baseline_matches_shadow_model() {
    churn(Strategy::Baseline, 1, 1, 3_000);
}

#[test]
fn isca_matches_shadow_model() {
    churn(Strategy::IscA, 2, 1, 3_000);
}

#[test]
fn iscb_matches_shadow_model() {
    churn(Strategy::IscB, 3, 1, 3_000);
}

#[test]
fn iscc_matches_shadow_model() {
    churn(Strategy::IscC, 4, 1, 3_000);
}

#[test]
fn checkin_matches_shadow_model() {
    churn(Strategy::CheckIn, 5, 1, 3_000);
}

#[test]
fn checkin_matches_shadow_model_across_seeds() {
    churn(Strategy::CheckIn, 10, 4, 1_200);
}

/// Four rounds of 300 updates, each ended by a host crash: the recovered
/// engine must read every committed version back.
#[test]
fn consistency_holds_with_crash_recovery_interleaved() {
    check_seeded(
        "consistency_holds_with_crash_recovery_interleaved",
        77,
        1,
        &mut |rng: &mut TestRng| {
            let mut ops = Vec::new();
            for _round in 0..4 {
                ops.extend(soup(rng, 300, |rng| Op::Put {
                    key: rng.below(RECORDS),
                    bytes: rng.range_u32(1, 2048),
                }));
                ops.push(Op::Crash);
            }
            assert_eq!(run(Strategy::CheckIn, &ops).recoveries, 4);
        },
    );
}
