//! `#[cfg(test)] mod wear_leveling_tests` of `ftl.rs`: static wear leveling.

use super::tests::{put, single_die_ftl};
use super::*;

fn wl_ftl() -> Ftl {
    single_die_ftl(FtlConfig {
        write_buffer_units: 1,
        ..FtlConfig::default()
    })
}

fn write_unit(f: &mut Ftl, lpn: u64, version: u64) {
    put(f, lpn, version).unwrap();
}

/// Cold data parked in block 0 while hot lpns churn: without static
/// wear leveling the cold block never gets erased; with it, the wear
/// spread stays bounded and the cold data survives the migration.
#[test]
fn levels_cold_block_and_preserves_data() {
    let mut f = wl_ftl();
    // Cold records fill the first block (8 units).
    for lpn in 0..8u64 {
        write_unit(&mut f, lpn, 1);
    }
    // Hot churn: rewrite a small set until GC has cycled many times.
    for round in 0..400u64 {
        for lpn in 8..32u64 {
            write_unit(&mut f, lpn, round + 1);
        }
    }
    assert!(
        f.wear_delta() > Ftl::WEAR_LEVELING_THRESHOLD,
        "churn must skew wear"
    );
    let mut rounds = 0;
    while f.run_wear_leveling_round(SimTime::ZERO).unwrap().is_some() {
        rounds += 1;
        assert!(rounds < 64, "wear leveling must converge");
    }
    assert!(rounds > 0, "levelling should have run");
    assert_eq!(f.counters().get(Counter::FtlWearLevelRounds), rounds);
    // Cold data intact at version 1.
    for lpn in 0..8u64 {
        let (p, _) = f.read(Lpn(lpn), SimTime::ZERO).unwrap();
        assert_eq!(p.fragments[0].version, 1, "lpn {lpn}");
    }
    f.check_invariants().unwrap();
}

/// Regression: a retired block that was the wear ceiling used to pin
/// `wear_delta` above the threshold forever (the flash array's cached
/// global max includes retired blocks), so every call to
/// `run_wear_leveling_round` migrated a cold block without ever
/// converging. Retired blocks can never be erased again — they must
/// not count toward levelable skew.
#[test]
fn retired_hot_block_does_not_pin_wear_delta() {
    let mut f = wl_ftl();
    // A little cold data so closed blocks exist.
    for lpn in 0..8u64 {
        write_unit(&mut f, lpn, 1);
    }
    f.flush(SimTime::ZERO).unwrap();
    // Take one free block, wear it hot (erasing an erased block only
    // bumps its counters), and retire it.
    let (hot, _) = f
        .pool
        .open_block(0, &mut f.counters)
        .expect("free pool non-empty");
    for _ in 0..100 {
        f.flash_mut().erase(hot, SimTime::ZERO).unwrap();
    }
    f.pool.retire(hot);

    // In-service skew is zero-ish: nothing else was erased. The old
    // implementation reported 100 here and levelled on every call.
    assert!(
        f.wear_delta() <= 4,
        "retired block inflates wear_delta to {}",
        f.wear_delta()
    );
    assert_eq!(
        f.run_wear_leveling_round(SimTime::ZERO).unwrap(),
        None,
        "no wear-leveling round should run on a level device"
    );
    assert_eq!(f.counters().get(Counter::FtlWearLevelRounds), 0);
    f.check_invariants().unwrap();
}

#[test]
fn below_threshold_is_a_noop() {
    let mut f = wl_ftl();
    for round in 0..100u64 {
        for lpn in 0..24u64 {
            write_unit(&mut f, lpn, round + 1);
        }
    }
    assert_eq!(f.run_wear_leveling_round(SimTime::ZERO).unwrap(), None);
}
