//! `#[cfg(test)] mod integrity_tests` of `ftl.rs`: checksum verification,
//! quarantine, scrub, and what GC and SPOR do with rot.

use super::tests::{one_shared_page, put, read_span, single_die_ftl, w};
use super::*;
use checkin_flash::{FaultConfig, FaultPlan, StoredField};

/// One 4 KiB unit per page, no fault injection: corruption is placed
/// deterministically with the sabotage hooks.
fn integrity_ftl() -> Ftl {
    single_die_ftl(FtlConfig {
        write_buffer_units: 4,
        ..FtlConfig::default()
    })
}

/// The flash location `lpn` maps to (must be drained to flash).
fn flash_pun(f: &Ftl, lpn: u64) -> Pun {
    match f.location_of(Lpn(lpn)) {
        Some(Location::Flash(pun)) => pun,
        other => panic!("lpn {lpn} not on flash: {other:?}"),
    }
}

#[test]
fn corrupt_unit_read_fails_typed_and_stays_quarantined() {
    let mut f = integrity_ftl();
    for lpn in 0..4 {
        put(&mut f, lpn, 1).unwrap();
    }
    f.flush(SimTime::ZERO).unwrap();
    let pun = flash_pun(&f, 2);
    assert!(f.flash_mut().sabotage_corrupt_unit(pun.page(1), 0, 1 << 17));

    let err = f.read(Lpn(2), SimTime::ZERO).unwrap_err();
    assert_eq!(
        err,
        FtlError::Integrity(IntegrityError::CorruptUnit(Lpn(2))),
        "corrupt data must fail typed, never be served"
    );
    assert!(err.is_integrity());
    assert_eq!(f.counters().total(Total::FtlIntegrityDetected), 1);
    assert_eq!(f.counters().get(Counter::FtlIntegrityQuarantined), 1);

    // Repeated reads keep failing fast without re-detecting.
    let again = f.read(Lpn(2), SimTime::ZERO).unwrap_err();
    assert_eq!(
        again,
        FtlError::Integrity(IntegrityError::CorruptUnit(Lpn(2)))
    );
    assert_eq!(f.counters().total(Total::FtlIntegrityDetected), 1);

    // The allocation-free path agrees.
    let mut out = Vec::new();
    let err = read_span(&mut f, 2, 1, &mut out).unwrap_err();
    assert!(err.is_integrity());
    assert!(out.is_empty());

    // Healthy neighbours are unaffected.
    assert_eq!(
        f.read(Lpn(1), SimTime::ZERO).unwrap().0.fragments[0].version,
        1
    );
    f.check_invariants().unwrap();
}

/// Sharing a sense is not sharing a verdict: every unit of a span is
/// verified on its own, so rot in one unit of a page the whole span sits
/// on quarantines that unit and no other.
#[test]
fn a_corrupt_unit_in_a_shared_page_is_quarantined_alone() {
    let (mut f, page) = one_shared_page();
    let rotten = flash_pun(&f, 3);
    assert_eq!(rotten.page(f.units_per_page()), page);
    let offset = rotten.offset(f.units_per_page());
    assert!(f.flash_mut().sabotage_corrupt_unit(page, offset, 1 << 7));

    let reads = |f: &Ftl| f.flash().counters().total(Total::FlashRead);
    let reads_before = reads(&f);
    let mut out = Vec::new();
    let err = read_span(&mut f, 0, 8, &mut out).unwrap_err();
    assert_eq!(
        err,
        FtlError::Integrity(IntegrityError::CorruptUnit(Lpn(3)))
    );
    assert_eq!(reads(&f) - reads_before, 1, "the page was sensed once");
    let keys: Vec<u64> = out.iter().map(|f| f.key).collect();
    assert_eq!(keys, [0, 1, 2], "the units before it were served");
    assert_eq!(f.counters().total(Total::FtlIntegrityDetected), 1);
    assert_eq!(f.counters().get(Counter::FtlIntegrityQuarantined), 1);
    f.check_invariants().unwrap();

    // Its seven neighbours on the page read clean, one at a time or as
    // the rest of the span; the unit itself now fails fast, unsensed.
    out.clear();
    read_span(&mut f, 4, 4, &mut out).unwrap();
    assert_eq!(out.len(), 4);
    let reads_before = reads(&f);
    assert!(read_span(&mut f, 3, 1, &mut out)
        .unwrap_err()
        .is_integrity());
    assert_eq!(reads(&f), reads_before);
    assert_eq!(f.counters().total(Total::FtlIntegrityDetected), 1);
    f.check_invariants().unwrap();
}

#[test]
fn disabling_verification_serves_rot_silently() {
    // The sabotage mode the chaos harness relies on: with verification
    // off the device trusts whatever the cells hold.
    let mut f = integrity_ftl();
    f.config.verify_checksums = false;
    put(&mut f, 0, 1).unwrap();
    f.flush(SimTime::ZERO).unwrap();
    let pun = flash_pun(&f, 0);
    f.flash_mut().sabotage_corrupt_unit(pun.page(1), 0, 1 << 3);
    let (payload, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
    assert_ne!(
        payload.fragments[0].version, 1,
        "with verification off the flipped version is served as-is"
    );
    assert_eq!(f.counters().total(Total::FtlIntegrityDetected), 0);
}

#[test]
fn scrub_finds_referenced_and_stale_rot() {
    let mut f = integrity_ftl();
    for lpn in 0..4 {
        put(&mut f, lpn, 1).unwrap();
    }
    f.flush(SimTime::ZERO).unwrap();
    let stale = flash_pun(&f, 1);
    // Overwriting lpn 1 leaves its old copy stale on flash.
    put(&mut f, 1, 2).unwrap();
    f.flush(SimTime::ZERO).unwrap();
    let live = flash_pun(&f, 3);
    assert_ne!(stale, live);
    assert!(f
        .flash_mut()
        .sabotage_corrupt_unit(stale.page(1), 0, 1 << 9));
    assert!(f.flash_mut().sabotage_corrupt_unit(live.page(1), 0, 1 << 9));

    let (report, _) = f.scrub_round(SimTime::ZERO, 1_000).unwrap();
    assert!(report.pages_scanned > 0);
    assert_eq!(report.detected(), 2);
    assert_eq!(report.quarantined, 1, "live copy of lpn 3");
    assert_eq!(report.corrected, 1, "stale copy of lpn 1");
    assert_eq!(f.counters().total(Total::FtlIntegrityDetected), 2);
    assert_eq!(f.counters().get(Counter::FtlScrubRounds), 1);
    assert!(f.counters().get(Counter::FtlScrubPages) > 0);
    // Scrub reads are phase-tagged, not charged to the run phase.
    assert!(f.flash().counters().get(Counter::FlashReadScrub) > 0);

    // The scrubbed-out unit now fails fast on the foreground path...
    assert!(f.read(Lpn(3), SimTime::ZERO).unwrap_err().is_integrity());
    // ...while the overwritten lpn still reads its fresh copy.
    assert_eq!(
        f.read(Lpn(1), SimTime::ZERO).unwrap().0.fragments[0].version,
        2
    );

    // A second sweep re-reads but detects nothing new.
    let (report, _) = f.scrub_round(SimTime::ZERO, 1_000).unwrap();
    assert_eq!(report.detected(), 0);
    assert_eq!(f.counters().total(Total::FtlIntegrityDetected), 2);
    f.check_invariants().unwrap();
}

#[test]
fn scrub_respects_budget_and_toggle() {
    let mut f = integrity_ftl();
    for lpn in 0..4 {
        put(&mut f, lpn, 1).unwrap();
    }
    f.flush(SimTime::ZERO).unwrap();
    let reads_before = f.flash().counters().total(Total::FlashRead);
    let (report, _) = f.scrub_round(SimTime::ZERO, 0).unwrap();
    assert_eq!(report, ScrubReport::default());
    assert_eq!(f.flash().counters().total(Total::FlashRead), reads_before);

    let (report, _) = f.scrub_round(SimTime::ZERO, 1).unwrap();
    assert_eq!(report.pages_scanned, 1, "budget of one page is honoured");

    // Verification off: the scrubber is a guaranteed no-op.
    let mut off = f;
    off.config.verify_checksums = false;
    let reads_before = off.flash().counters().total(Total::FlashRead);
    let (report, _) = off.scrub_round(SimTime::ZERO, 1_000).unwrap();
    assert_eq!(report, ScrubReport::default());
    assert_eq!(off.flash().counters().total(Total::FlashRead), reads_before);
}

#[test]
fn gc_poisons_destroyed_corrupt_units_and_write_heals() {
    let mut f = integrity_ftl();
    for lpn in 0..8 {
        put(&mut f, lpn, 1).unwrap();
    }
    f.flush(SimTime::ZERO).unwrap();
    let victim_pun = flash_pun(&f, 0);
    // Invalidate every other unit sharing lpn 0's block so GC picks it.
    for lpn in 1..8 {
        put(&mut f, lpn, 2).unwrap();
    }
    f.flush(SimTime::ZERO).unwrap();
    assert!(f
        .flash_mut()
        .sabotage_corrupt_unit(victim_pun.page(1), 0, 1 << 5));

    let done = f
        .run_gc_round(SimTime::ZERO, GcTrigger::Background)
        .unwrap();
    assert!(done.is_some(), "a victim block must have been collected");
    assert_eq!(f.counters().get(Counter::FtlIntegrityUnrecoverable), 1);
    assert_eq!(f.counters().total(Total::FtlIntegrityDetected), 1);
    f.check_invariants().unwrap();

    // The loss is reported as such — not as "never written".
    let err = f.read(Lpn(0), SimTime::ZERO).unwrap_err();
    assert_eq!(err, FtlError::Integrity(IntegrityError::Poisoned(Lpn(0))));

    // A fresh write supersedes the loss.
    put(&mut f, 0, 9).unwrap();
    assert_eq!(
        f.read(Lpn(0), SimTime::ZERO).unwrap().0.fragments[0].version,
        9
    );
    f.check_invariants().unwrap();
}

/// A write of part of a poisoned unit has nothing to merge with: were it
/// to store its sectors and clear the loss record, the rest of the unit
/// would vanish without an error. It fails typed and leaves the lpn
/// poisoned; a whole-unit write still supersedes the loss.
#[test]
fn a_partial_write_over_a_poisoned_unit_fails_typed() {
    let mut f = integrity_ftl();
    for lpn in 0..8 {
        put(&mut f, lpn, 1).unwrap();
    }
    f.flush(SimTime::ZERO).unwrap();
    let victim_pun = flash_pun(&f, 0);
    for lpn in 1..8 {
        put(&mut f, lpn, 2).unwrap();
    }
    f.flush(SimTime::ZERO).unwrap();
    assert!(f
        .flash_mut()
        .sabotage_corrupt_unit(victim_pun.page(1), 0, 1 << 5));
    f.run_gc_round(SimTime::ZERO, GcTrigger::Background)
        .unwrap();
    let poisoned = FtlError::Integrity(IntegrityError::Poisoned(Lpn(0)));
    assert_eq!(f.read(Lpn(0), SimTime::ZERO).unwrap_err(), poisoned);

    let partial = UnitWrite {
        whole_unit: false,
        ..w(0, 0, 9, 512)
    };
    assert_eq!(
        f.write(partial, OobKind::Journal, SimTime::ZERO),
        Err(poisoned.clone())
    );
    assert_eq!(f.read(Lpn(0), SimTime::ZERO).unwrap_err(), poisoned);
    f.check_invariants().unwrap();

    put(&mut f, 0, 9).unwrap();
    let (unit, _) = f.read(Lpn(0), SimTime::ZERO).unwrap();
    assert_eq!(unit.fragments[0].version, 9);
    f.check_invariants().unwrap();
}

#[test]
fn retry_exhaustion_is_counted_per_class() {
    let mut f = integrity_ftl();
    put(&mut f, 0, 1).unwrap();
    // Read once programmed: a page still programming is not sensed.
    let programmed = f.flush(SimTime::ZERO).unwrap();
    f.flash_mut().arm_faults(FaultPlan::new(FaultConfig {
        seed: 11,
        transient_read: 1.0,
        ..FaultConfig::default()
    }));
    let err = f.read(Lpn(0), programmed).unwrap_err();
    assert!(!err.is_integrity(), "media failure, not corruption: {err}");
    assert_eq!(f.counters().get(Counter::FtlRetryExhaustedRead), 1);
    let retries = u64::from(Ftl::RETRY_LIMIT - 1);
    assert_eq!(f.counters().get(Counter::FtlMediaRetries), retries);
    assert_eq!(f.counters().get(Counter::FtlRetryExhaustedProgram), 0);

    let mut f = integrity_ftl();
    f.flash_mut().arm_faults(FaultPlan::new(FaultConfig {
        seed: 11,
        transient_program: 1.0,
        ..FaultConfig::default()
    }));
    for lpn in 0..4 {
        let _ = put(&mut f, lpn, 1);
    }
    let err = f.flush(SimTime::ZERO).unwrap_err();
    assert!(!err.is_integrity());
    assert!(f.counters().get(Counter::FtlRetryExhaustedProgram) >= 1);
    assert_eq!(f.counters().get(Counter::FtlRetryExhaustedErase), 0);
}

#[test]
fn spor_scan_rejects_corrupt_oob_records() {
    let mut f = integrity_ftl();
    f.flash_mut()
        .arm_faults(FaultPlan::new(FaultConfig::power_cut(3, 1_000_000)));
    for lpn in 0..4 {
        put(&mut f, lpn, 1).unwrap();
    }
    f.flush(SimTime::ZERO).unwrap();
    let pun = flash_pun(&f, 2);
    assert!(f.flash_mut().sabotage_corrupt_oob(pun.page(1), 0, 1 << 21));
    assert_eq!(f.scan_oob().rejected(), 1);

    f.flash_mut().cut_power();
    f.flash_mut().power_on();
    let stats = f.rebuild_after_power_loss().unwrap();
    assert_eq!(stats.oob_records_rejected, 1);

    // The corrupt record neither replays wrong data nor resurrects
    // the mapping: the loss is visible, not silent.
    assert!(f.read(Lpn(2), SimTime::ZERO).is_err());
    for lpn in [0u64, 1, 3] {
        assert_eq!(
            f.read(Lpn(lpn), SimTime::ZERO).unwrap().0.fragments[0].version,
            1,
            "intact records must still recover"
        );
    }
    f.check_invariants().unwrap();
}

/// `spor-forgets-damaged-unit`, the chaos sweep's `composed-minimal` row
/// at FTL level: a unit that fails typed before a power cut must still
/// fail typed after it, not come back as "never written".
#[test]
fn spor_poisons_the_lpn_a_damaged_unit_names() {
    let mut f = integrity_ftl();
    f.flash_mut()
        .arm_faults(FaultPlan::new(FaultConfig::power_cut(3, 1_000_000)));
    for lpn in 0..4 {
        put(&mut f, lpn, 1).unwrap();
    }
    f.flush(SimTime::ZERO).unwrap();
    let pun = flash_pun(&f, 2);
    assert!(f.flash_mut().sabotage_corrupt_unit(pun.page(1), 0, 1 << 13));
    let before = f.read(Lpn(2), SimTime::ZERO).unwrap_err();
    assert_eq!(
        before,
        FtlError::Integrity(IntegrityError::CorruptUnit(Lpn(2)))
    );

    f.flash_mut().cut_power();
    f.flash_mut().power_on();
    let stats = f.rebuild_after_power_loss().unwrap();
    assert_eq!(stats.lpns_poisoned, 1);
    assert_eq!(stats.oob_records_rejected, 0, "the record itself is sound");
    assert_eq!(stats.oob_records_replayed, 3);

    let after = f.read(Lpn(2), SimTime::ZERO).unwrap_err();
    assert_eq!(after, FtlError::Integrity(IntegrityError::Poisoned(Lpn(2))));
    // One physical fault, seen twice: detected once, lost once.
    assert_eq!(f.counters().total(Total::FtlIntegrityDetected), 1);
    assert_eq!(f.counters().get(Counter::FtlIntegrityQuarantined), 1);
    assert_eq!(f.counters().get(Counter::FtlIntegrityUnrecoverable), 1);
    // The scrubber finds the same unit and does not count it again.
    f.scrub_round(SimTime::ZERO, 1_000).unwrap();
    assert_eq!(f.counters().total(Total::FtlIntegrityDetected), 1);
    f.check_invariants().unwrap();

    // A fresh write supersedes the loss.
    put(&mut f, 2, 9).unwrap();
    assert_eq!(
        f.read(Lpn(2), SimTime::ZERO).unwrap().0.fragments[0].version,
        9
    );
    f.check_invariants().unwrap();
}

/// A loss marker takes part in newest-wins like any record: it hides an
/// older intact copy (serving that would be a silent stale read), and a
/// newer intact copy hides it.
#[test]
fn spor_loss_marker_obeys_newest_wins() {
    let mut f = integrity_ftl();
    f.flash_mut()
        .arm_faults(FaultPlan::new(FaultConfig::power_cut(3, 1_000_000)));
    for lpn in 0..4 {
        put(&mut f, lpn, 1).unwrap();
    }
    f.flush(SimTime::ZERO).unwrap();
    f.persist_mapping_log();
    // Newer than the snapshot: version 2 of lpns 0 and 1, then version
    // 3 of lpn 1. Both version-2 units rot.
    put(&mut f, 0, 2).unwrap();
    put(&mut f, 1, 2).unwrap();
    f.flush(SimTime::ZERO).unwrap();
    let rotten = [flash_pun(&f, 0), flash_pun(&f, 1)];
    put(&mut f, 1, 3).unwrap();
    f.flush(SimTime::ZERO).unwrap();
    for pun in rotten {
        assert!(f.flash_mut().sabotage_corrupt_unit(pun.page(1), 0, 1 << 13));
    }

    f.flash_mut().cut_power();
    f.flash_mut().power_on();
    let stats = f.rebuild_after_power_loss().unwrap();
    assert_eq!(stats.lpns_poisoned, 1, "lpn 0 only");
    assert_eq!(
        f.read(Lpn(0), SimTime::ZERO).unwrap_err(),
        FtlError::Integrity(IntegrityError::Poisoned(Lpn(0))),
        "the snapshot's intact version 1 must not be served for an acked version 2"
    );
    for (lpn, version) in [(1, 3), (2, 1), (3, 1)] {
        assert_eq!(
            f.read(Lpn(lpn), SimTime::ZERO).unwrap().0.fragments[0].version,
            version
        );
    }
    f.check_invariants().unwrap();
}

#[test]
fn rebuild_drops_snapshot_entries_onto_corrupt_data() {
    let mut f = integrity_ftl();
    f.flash_mut()
        .arm_faults(FaultPlan::new(FaultConfig::power_cut(3, 1_000_000)));
    for lpn in 0..4 {
        put(&mut f, lpn, 1).unwrap();
    }
    f.flush(SimTime::ZERO).unwrap();
    f.persist_mapping_log();
    let pun = flash_pun(&f, 2);
    // Data rots after the snapshot was persisted; the OOB record is
    // pre-snapshot so replay will not re-add it either.
    assert!(f.flash_mut().sabotage_corrupt_unit(pun.page(1), 0, 1 << 13));

    f.flash_mut().cut_power();
    f.flash_mut().power_on();
    let stats = f.rebuild_after_power_loss().unwrap();
    assert!(stats.snapshot_entries_dropped >= 1);
    // Dropped, and remembered: the log says lpn 2 was written, so the
    // read fails typed rather than reporting "never written".
    assert_eq!(stats.lpns_poisoned, 1);
    assert_eq!(
        f.read(Lpn(2), SimTime::ZERO).unwrap_err(),
        FtlError::Integrity(IntegrityError::Poisoned(Lpn(2)))
    );
    assert_eq!(
        f.read(Lpn(1), SimTime::ZERO).unwrap().0.fragments[0].version,
        1
    );
    f.check_invariants().unwrap();
}

/// `read` and `read_span_into` are two callers of one path: for a
/// quarantined unit, a closed block with a page's worth of rot, and a
/// poisoned lpn they must return the same typed error and leave the
/// same counters — including the block retirement the wholesale-decay
/// case triggers, which `read` used to skip.
#[test]
fn read_entry_points_react_identically_to_corruption() {
    type Reader = fn(&mut Ftl, u64) -> Result<(), FtlError>;
    let via_read: Reader = |f, lpn| f.read(Lpn(lpn), SimTime::ZERO).map(drop);
    let via_span: Reader = |f, lpn| read_span(f, lpn, 1, &mut Vec::new()).map(drop);
    let run = |read: Reader| {
        let mut f = integrity_ftl();
        // Two full (closed) blocks of eight one-unit pages each.
        for lpn in 0..16 {
            put(&mut f, lpn, 1).unwrap();
        }
        f.flush(SimTime::ZERO).unwrap();

        // Rot the scrubber finds first: the read fails fast on the mark.
        let pun = flash_pun(&f, 1);
        assert!(f.flash_mut().sabotage_corrupt_unit(pun.page(1), 0, 1 << 7));
        f.scrub_round(SimTime::ZERO, 1_000).unwrap();
        let quarantined = read(&mut f, 1).unwrap_err();

        // Rot the read itself finds. With one unit per page a single
        // mark is a page's worth: the block is salvaged and retired, and
        // the unit's data — its only copy was corrupt — is lost for good.
        let pun = flash_pun(&f, 9);
        assert!(f.flash_mut().sabotage_corrupt_unit(pun.page(1), 0, 1 << 7));
        let decayed = read(&mut f, 9).unwrap_err();
        let poisoned = read(&mut f, 9).unwrap_err();
        read(&mut f, 10).expect("healthy neighbours are salvaged");

        f.check_invariants().unwrap();
        (quarantined, decayed, poisoned, f.counters().clone())
    };

    let outcome = run(via_read);
    assert_eq!(outcome, run(via_span));
    let (quarantined, decayed, poisoned, counters) = outcome;
    assert_eq!(
        quarantined,
        FtlError::Integrity(IntegrityError::CorruptUnit(Lpn(1)))
    );
    assert_eq!(
        decayed,
        FtlError::Integrity(IntegrityError::CorruptUnit(Lpn(9)))
    );
    assert_eq!(
        poisoned,
        FtlError::Integrity(IntegrityError::Poisoned(Lpn(9)))
    );
    assert_eq!(counters.get(Counter::FtlBlocksRetired), 1);
    assert_eq!(counters.total(Total::FtlIntegrityDetected), 2);
    assert_eq!(counters.get(Counter::FtlIntegrityUnrecoverable), 1);
}

/// OOB rot never reaches the DRAM map: the table knows a flash unit by
/// the lpn it was *programmed* with ([`FlashArray::programmed_lpn`]).
/// Flipping the stored `lpn` of a live plain unit and of a live
/// exceptional one changes nothing a GC round or a block retirement does
/// with them: the forward map, every referrer list, the `Unlink`
/// outcomes and the OOB lpns their copies are programmed with all equal
/// those of an unflipped twin.
#[test]
fn oob_lpn_rot_stays_out_of_the_mapping_table() {
    // Lpn 0's unit stays plain; lpn 1's is aliased by lpn 100 and then
    // trimmed, so it is exceptional; the rest of their block is
    // overwritten, so it is the block with the fewest valid units.
    let twin = |flip: bool| {
        let mut f = integrity_ftl();
        for lpn in 0..8 {
            put(&mut f, lpn, 1).unwrap();
        }
        f.flush(SimTime::ZERO).unwrap();
        f.remap(Lpn(100), Lpn(1)).unwrap();
        assert!(f.deallocate(Lpn(1)));
        for lpn in 2..8 {
            put(&mut f, lpn, 2).unwrap();
        }
        f.flush(SimTime::ZERO).unwrap();
        let (plain, exceptional) = (flash_pun(&f, 0), flash_pun(&f, 100));
        let block = f.block_of(plain);
        assert_eq!(block, f.block_of(exceptional));
        assert_eq!(f.table.exceptional_locations(), 1);
        for pun in [plain, exceptional].into_iter().filter(|_| flip) {
            // Lpns 4 and 5, both mapped elsewhere, once flipped.
            let flash = f.flash_mut();
            assert!(flash.sabotage_flip_stored_bit(pun.page(1), 0, StoredField::Lpn, 2));
        }
        (f, block)
    };
    // What the map says after `act`, once the copies are on flash.
    let outcome = |act: &dyn Fn(&mut Ftl, BlockId), flip: bool| {
        let (mut f, block) = twin(flip);
        act(&mut f, block);
        f.flush(SimTime::ZERO).unwrap();
        f.check_invariants().unwrap();
        let forward: Vec<(Lpn, Location)> = f.mapping_iter().collect();
        let referrers: Vec<Vec<Lpn>> = forward
            .iter()
            .map(|&(_, loc)| {
                let own = f.own_lpn(loc);
                f.table.referrers(loc, own.as_ref()).to_vec()
            })
            .collect();
        let copies = [0, 100].map(|lpn| {
            let page = f.flash().read(flash_pun(&f, lpn).page(1));
            assert_ne!(f.block_of(flash_pun(&f, lpn)), block, "lpn {lpn} moved");
            page.and_then(|p| p.oob(0)).map(|oob| oob.lpn)
        });
        assert_eq!(
            copies,
            [Some(0), Some(100)],
            "a copy is written under its referrer"
        );
        let unlinks = [0, 100, 1].map(|lpn| {
            let (table, own) = f.table_mut();
            table.unmap(Lpn(lpn), own)
        });
        (forward, referrers, copies, unlinks)
    };
    let gc = |f: &mut Ftl, block: BlockId| {
        let round = f.run_gc_round(SimTime::ZERO, GcTrigger::Background);
        assert!(round.unwrap().is_some());
        assert!(
            f.flash().erase_count(block) > 0,
            "the twins' block was the victim"
        );
    };
    let retire = |f: &mut Ftl, block: BlockId| f.retire_block(block);
    for act in [&gc as &dyn Fn(&mut Ftl, BlockId), &retire] {
        assert_eq!(outcome(act, true), outcome(act, false));
    }
}
