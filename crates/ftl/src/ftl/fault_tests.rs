//! `#[cfg(test)] mod fault_tests` of `ftl.rs`: media faults, power cuts and
//! the SPOR rebuild.

use super::tests::{one_shared_page, put, read_span, single_die_ftl, w};
use super::*;
use crate::config::MediaRetryPolicy;
use checkin_flash::{FaultConfig, FaultPlan};
use std::collections::BTreeMap as Shadow;

fn fault_ftl(retry_limit: u32) -> Ftl {
    single_die_ftl(FtlConfig {
        write_buffer_units: 4,
        wear_leveling_threshold: None,
        retry_read: MediaRetryPolicy::with_limit(retry_limit),
        retry_program: MediaRetryPolicy::with_limit(retry_limit),
        retry_erase: MediaRetryPolicy::with_limit(retry_limit),
        ..FtlConfig::default()
    })
}

#[test]
fn transient_media_failures_are_absorbed_by_retries() {
    let mut f = fault_ftl(8);
    f.flash_mut().arm_faults(FaultPlan::new(FaultConfig {
        seed: 7,
        transient_read: 0.2,
        transient_program: 0.2,
        transient_erase: 0.2,
        ..FaultConfig::default()
    }));
    let mut shadow: Shadow<u64, u64> = Shadow::new();
    for i in 0..400u64 {
        let lpn = i % 24;
        put(&mut f, lpn, i).unwrap();
        shadow.insert(lpn, i);
    }
    assert!(
        f.counters().get(Counter::FtlMediaRetries) > 0,
        "retries must have happened at a 20% fault rate"
    );
    for (&lpn, &version) in &shadow {
        let (p, _) = f.read(Lpn(lpn), SimTime::ZERO).unwrap();
        assert_eq!(p.fragments[0].version, version, "lpn {lpn}");
    }
    f.check_invariants().unwrap();
}

/// A transient fault fails a *sense*, and a span senses a shared page
/// once: whatever the draw, eight units on one page cost one successful
/// read and as many fault-clock ticks as that read took attempts — not
/// eight reads with eight chances each to fail.
#[test]
fn a_transient_fault_on_a_shared_page_is_retried_once_for_the_span() {
    // Read on an idle die, so that a retry's backoff shows in the finish.
    let idle = SimTime::ZERO + SimDuration::from_millis(10);
    let span_at_idle = |f: &mut Ftl, out: &mut Vec<Fragment>| {
        f.read_span_into(Lpn(0), 8, idle, None, &mut SensedPages::default(), out)
    };
    let unfaulted = span_at_idle(&mut one_shared_page().0, &mut Vec::new()).unwrap();
    let mut retried = 0;
    for seed in 0..32 {
        let (mut f, _page) = one_shared_page();
        f.flash_mut().arm_faults(FaultPlan::new(FaultConfig {
            seed,
            transient_read: 0.5,
            ..FaultConfig::default()
        }));
        let reads_before = f.flash().counters().total(Total::FlashRead);
        let mut out = Vec::new();
        let outcome = span_at_idle(&mut f, &mut out);
        let retries = f.counters().get(Counter::FtlMediaRetries);
        let ticks = f.flash().fault_plan().unwrap().ticks();
        assert_eq!(ticks, retries + 1, "seed {seed}: one attempt per tick");
        let reads = f.flash().counters().total(Total::FlashRead) - reads_before;
        match outcome {
            Ok(done) => {
                assert_eq!((out.len(), reads), (8, 1), "seed {seed}");
                // Every unit waited for the one sense, retried or not.
                assert_eq!(done > unfaulted, retries > 0, "seed {seed}");
            }
            // The page's one retry budget ran out: no unit was served.
            Err(e) => {
                assert_eq!(f.counters().get(Counter::FtlRetryExhaustedRead), 1, "{e}");
                assert_eq!((out.len(), reads), (0, 0), "seed {seed}");
            }
        }
        retried += u64::from(retries > 0);
    }
    assert!(retried > 4, "only {retried} of 32 seeds drew a fault");
}

/// A power cut on a sense fails the span there and then: the fragments
/// of the pages already sensed stay in `out` behind whatever the caller
/// had in it, nothing of the page that was being sensed arrives.
#[test]
fn a_power_cut_on_a_sense_leaves_the_fragments_read_so_far() {
    let (mut f, first_page) = one_shared_page();
    for lpn in 8..16 {
        f.write(w(lpn, lpn, 1, 512), OobKind::Data, SimTime::ZERO)
            .unwrap();
    }
    f.flush(SimTime::ZERO).unwrap();
    assert_ne!(f.flash_page_of(Lpn(8)), Some(first_page));
    // Tick 1 is the first page's sense, tick 2 the second's.
    f.flash_mut()
        .arm_faults(FaultPlan::new(FaultConfig::power_cut(3, 2)));
    let sentinel = Fragment {
        key: 99,
        version: 9,
        bytes: 9,
    };
    let mut out = vec![sentinel];
    let err = read_span(&mut f, 0, 16, &mut out).unwrap_err();
    assert!(err.is_power_loss(), "{err}");
    assert!(f.flash().powered_off());
    let keys: Vec<u64> = out.iter().map(|f| f.key).collect();
    assert_eq!(keys, [99, 0, 1, 2, 3, 4, 5, 6, 7]);
    assert_eq!(out[0], sentinel);
}

#[test]
fn grown_bad_blocks_are_retired_without_data_loss() {
    let mut f = fault_ftl(4);
    f.flash_mut().arm_faults(FaultPlan::new(FaultConfig {
        seed: 11,
        grown_bad_block: 0.004,
        ..FaultConfig::default()
    }));
    let mut shadow: Shadow<u64, u64> = Shadow::new();
    for i in 0..500u64 {
        let lpn = i % 24;
        put(&mut f, lpn, i).unwrap();
        shadow.insert(lpn, i);
    }
    assert!(
        f.counters().get(Counter::FtlBlocksRetired) > 0,
        "expected at least one retirement at this seed and rate"
    );
    for (&lpn, &version) in &shadow {
        let (p, _) = f.read(Lpn(lpn), SimTime::ZERO).unwrap();
        assert_eq!(p.fragments[0].version, version, "lpn {lpn}");
    }
    f.check_invariants().unwrap();
}

#[test]
fn power_cut_then_rebuild_preserves_every_acked_write() {
    for cut_tick in [5u64, 17, 33, 71, 120, 250, 400, 900] {
        let mut f = fault_ftl(4);
        f.flash_mut()
            .arm_faults(FaultPlan::new(FaultConfig::power_cut(3, cut_tick)));
        let mut shadow: Shadow<u64, u64> = Shadow::new();
        let mut cut = false;
        // The one write that observes the cut is not acknowledged; the
        // durability contract allows it to be either absent or present.
        let mut inflight: Option<(u64, u64)> = None;
        for i in 0..600u64 {
            let lpn = i % 24;
            match put(&mut f, lpn, i) {
                Ok(_) => {
                    shadow.insert(lpn, i);
                }
                Err(e) => {
                    assert!(e.is_power_loss(), "cut {cut_tick}: unexpected {e}");
                    inflight = Some((lpn, i));
                    cut = true;
                    break;
                }
            }
        }
        assert!(cut, "cut {cut_tick} never fired");
        f.flash_mut().power_on();
        let stats = f.rebuild_after_power_loss().unwrap();
        assert!(
            stats.snapshot_entries_resolved
                + stats.oob_records_replayed
                + stats.buffered_units_recovered
                > 0
                || shadow.is_empty(),
            "cut {cut_tick}: rebuild recovered nothing"
        );
        for (&lpn, &version) in &shadow {
            let (p, _) = f.read(Lpn(lpn), SimTime::ZERO).unwrap();
            let got = p.fragments[0].version;
            let acceptable =
                got == version || matches!(inflight, Some((l, v)) if l == lpn && got == v);
            assert!(
                acceptable,
                "cut {cut_tick}: lpn {lpn} has version {got}, acked {version}"
            );
        }
        f.check_invariants().unwrap();
        // The device keeps working after recovery.
        put(&mut f, 0, 10_000).unwrap();
        assert_eq!(
            f.read(Lpn(0), SimTime::ZERO).unwrap().0.fragments[0].version,
            10_000
        );
    }
}

#[test]
fn sabotaged_buffer_loses_acked_writes_visibly() {
    let mut f = fault_ftl(4);
    f.flash_mut()
        .arm_faults(FaultPlan::new(FaultConfig::power_cut(5, 1_000_000)));
    // Three acked writes that stay buffered (watermark is 4).
    for lpn in 0..3u64 {
        put(&mut f, lpn, 1).unwrap();
    }
    f.flash_mut().cut_power();
    f.flash_mut().power_on();
    // A failed capacitor: the buffer is gone before recovery runs.
    f.sabotage_drop_write_buffer();
    f.rebuild_after_power_loss().unwrap();
    let lost = (0..3u64)
        .filter(|&lpn| f.read(Lpn(lpn), SimTime::ZERO).is_err())
        .count();
    assert!(lost > 0, "sabotage must cause detectable loss");
}

#[test]
fn rebuild_restores_mapping_log_unmappings() {
    let mut f = fault_ftl(4);
    f.flash_mut()
        .arm_faults(FaultPlan::new(FaultConfig::power_cut(9, 1_000_000)));
    put(&mut f, 0, 1).unwrap();
    put(&mut f, 1, 1).unwrap();
    f.flush(SimTime::ZERO).unwrap();
    assert!(f.deallocate(Lpn(0)));
    // The trim is metadata only; persisting the mapping log is what
    // makes it durable across a cut.
    f.persist_mapping_log();
    f.flash_mut().cut_power();
    f.flash_mut().power_on();
    f.rebuild_after_power_loss().unwrap();
    assert!(
        !f.is_mapped(Lpn(0)),
        "persisted trim must not be resurrected by OOB replay"
    );
    assert!(f.is_mapped(Lpn(1)));
    f.check_invariants().unwrap();
}
