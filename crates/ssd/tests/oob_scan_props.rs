//! Property tests for the §III-G SPOR contract: a full OOB scan after a
//! random write history discovers exactly the newest flash mapping per
//! logical unit, in deterministic order, and a power cut at a random
//! point never loses an acknowledged write.

use std::collections::HashMap;

use checkin_flash::{FaultConfig, FaultPlan, FlashArray, FlashGeometry, FlashTiming, OobKind, Ppn};
use checkin_ftl::{Ftl, FtlConfig};
use checkin_sim::SimTime;
use checkin_ssd::{ReadRequest, Ssd, SsdError, SsdTiming, WriteContent, WriteRequest};
use checkin_testkit::{check_seeded, TestRng, BASE_SEED};

const LBA_SPACE: u64 = 48;

fn ssd() -> Ssd {
    let flash = FlashArray::new(
        FlashGeometry {
            channels: 2,
            dies_per_channel: 1,
            planes_per_die: 1,
            blocks_per_plane: 8,
            pages_per_block: 16,
            page_bytes: 4096,
        },
        FlashTiming::mlc(),
    );
    let ftl = Ftl::new(
        flash,
        FtlConfig {
            unit_bytes: 512,
            write_points: 2,
            gc_threshold_blocks: 4,
            gc_soft_threshold_blocks: 8,
            write_buffer_units: 16,
            ..FtlConfig::default()
        },
    )
    .unwrap();
    Ssd::new(ftl, SsdTiming::paper_default())
}

fn record(lba: u64, version: u64) -> WriteRequest {
    WriteRequest {
        lba,
        sectors: 1,
        content: WriteContent::Record {
            key: lba,
            version,
            bytes: 512,
        },
    }
}

/// After N random single-unit writes and a flush, the OOB scan finds
/// every written lpn; per-lpn sequences respect write order; iteration
/// is sorted by lpn; and the full SPOR contract holds.
#[test]
fn full_scan_discovers_exactly_the_newest_mapping_per_lpn() {
    check_seeded(
        "oob-scan-newest-mapping",
        BASE_SEED,
        24,
        &mut |rng: &mut TestRng| {
            let mut s = ssd();
            let mut t = SimTime::ZERO;
            // last_write[lpn] = index of that lpn's final write.
            let mut last_write: HashMap<u64, u64> = HashMap::new();
            let writes = rng.range_u64(10, 200);
            for i in 0..writes {
                let lba = rng.below(LBA_SPACE);
                t = s
                    .write(&record(lba, i + 1), OobKind::Data, t)
                    .expect("fault-free write");
                last_write.insert(lba, i);
            }
            s.flush(t).expect("flush");

            let snap = s.scan_oob();
            // Discovery: every written lpn has a record.
            for &lpn in last_write.keys() {
                assert!(snap.lookup(lpn).is_some(), "lpn {lpn} undiscovered");
            }
            // Determinism (sorted-lpn iteration) and newest-wins: lpns
            // ordered by their final write index must have strictly
            // increasing OOB sequences.
            let mut prev_lpn = None;
            for (lpn, _) in snap.iter() {
                assert!(prev_lpn < Some(lpn), "iteration must ascend by lpn");
                prev_lpn = Some(lpn);
            }
            let mut by_order: Vec<(u64, u64)> =
                last_write.iter().map(|(&lpn, &idx)| (idx, lpn)).collect();
            by_order.sort_unstable();
            let seqs: Vec<u64> = by_order
                .iter()
                .map(|&(_, lpn)| snap.lookup(lpn).unwrap().sequence)
                .collect();
            assert!(
                seqs.windows(2).all(|w| w[0] < w[1]),
                "later final writes must carry newer sequences"
            );
            s.verify_spor_contract().expect("SPOR contract");
        },
    );
}

/// The scan walks programmed pages only, yet sees what a visit to every
/// PPN of the device sees: the same page count, the same rejected
/// records (some OOB is sabotaged so there are rejects), and the same
/// newest-wins record per lpn.
#[test]
fn scan_equals_a_walk_over_every_ppn() {
    check_seeded(
        "oob-scan-vs-full-walk",
        BASE_SEED ^ 0x0B5C_A11E,
        24,
        &mut |rng: &mut TestRng| {
            let mut s = ssd();
            let mut t = SimTime::ZERO;
            for i in 0..rng.range_u64(10, 400) {
                t = s
                    .write(&record(rng.below(LBA_SPACE), i + 1), OobKind::Data, t)
                    .expect("fault-free write");
            }
            s.flush(t).expect("flush");
            let total = s.ftl().flash().geometry().total_pages();
            for _ in 0..rng.below(6) {
                let ppn = Ppn(rng.below(total));
                let mask = 1 << rng.below(48);
                s.ftl_mut().flash_mut().sabotage_corrupt_oob(ppn, 0, mask);
            }

            let flash = s.ftl().flash();
            let mut pages = 0u64;
            let mut rejected = 0u64;
            let mut newest: HashMap<u64, (Ppn, u64)> = HashMap::new();
            for ppn in (0..total).map(Ppn) {
                let Some(content) = flash.read(ppn) else {
                    continue;
                };
                pages += 1;
                for (offset, oob) in content.oobs().enumerate() {
                    if !(content.oob_intact(offset) && content.unit_intact(offset)) {
                        rejected += 1;
                    } else if newest.get(&oob.lpn).is_none_or(|r| oob.sequence > r.1) {
                        newest.insert(oob.lpn, (ppn, oob.sequence));
                    }
                }
            }

            let snap = s.scan_oob();
            assert_eq!(snap.pages_scanned(), pages);
            assert_eq!(pages, flash.programmed_pages().count() as u64);
            assert_eq!(snap.records_rejected(), rejected);
            assert_eq!(snap.len(), newest.len());
            for (lpn, r) in snap.iter() {
                assert_eq!(newest.get(&lpn), Some(&(r.ppn, r.sequence)), "lpn {lpn}");
            }
        },
    );
}

/// A power cut at a random tick, followed by recovery, preserves every
/// acknowledged write (the single in-flight write may be old or new).
#[test]
fn random_cut_point_recovery_matches_acked_writes() {
    check_seeded(
        "oob-cut-recovery",
        BASE_SEED ^ 0x5105_F00D,
        24,
        &mut |rng: &mut TestRng| {
            let mut s = ssd();
            let cut_tick = rng.range_u64(3, 500);
            s.ftl_mut()
                .flash_mut()
                .arm_faults(FaultPlan::new(FaultConfig::power_cut(
                    rng.next_u64(),
                    cut_tick,
                )));
            let mut t = SimTime::ZERO;
            let mut shadow: HashMap<u64, u64> = HashMap::new();
            let mut inflight = None;
            for i in 0..300u64 {
                let lba = rng.below(LBA_SPACE);
                match s.write(&record(lba, i + 1), OobKind::Data, t) {
                    Ok(done) => {
                        t = done;
                        shadow.insert(lba, i + 1);
                    }
                    Err(SsdError::Ftl(e)) if e.is_power_loss() => {
                        inflight = Some((lba, i + 1));
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
            if !s.powered_off() {
                // The schedule outlived the workload: cut manually so the
                // recovery path is always exercised.
                s.ftl_mut().flash_mut().cut_power();
            }
            s.recover_power_loss().unwrap();
            for (&lba, &version) in &shadow {
                let (frags, _) = s
                    .read(
                        &ReadRequest {
                            lba,
                            sectors: 1,
                            key: Some(lba),
                        },
                        SimTime::ZERO,
                    )
                    .expect("post-recovery read");
                let got = frags
                    .iter()
                    .map(|f| f.version)
                    .max()
                    .unwrap_or_else(|| panic!("lba {lba} lost after recovery"));
                let acceptable =
                    got == version || matches!(inflight, Some((l, v)) if l == lba && got == v);
                assert!(acceptable, "lba {lba}: got v{got}, acked v{version}");
            }
            s.ftl()
                .check_invariants()
                .expect("post-recovery invariants");
            // The device still accepts writes after recovery.
            s.write(&record(0, 9_999), OobKind::Data, SimTime::ZERO)
                .expect("post-recovery write");
        },
    );
}
