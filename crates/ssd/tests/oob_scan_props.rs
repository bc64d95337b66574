//! Property test for the §III-G SPOR contract, asserted about the rebuild
//! itself: a power cut at a random point of a write, remap-checkpoint and
//! trim history — long enough for GC to migrate units — never loses an
//! acknowledged write or a remap a completed checkpoint command made.

use std::collections::BTreeMap;

use checkin_flash::{FaultConfig, FaultPlan, FlashArray, FlashGeometry, FlashTiming, OobKind};
use checkin_ftl::{Ftl, FtlConfig};
use checkin_sim::{Counter, SimTime};
use checkin_ssd::{
    CheckpointMode, CowEntry, ReadRequest, Ssd, SsdError, SsdTiming, WriteContent, WriteRequest,
};
use checkin_testkit::{check_seeded, TestRng, BASE_SEED};

/// Home LBAs `0..LBA_SPACE`; key `k`'s journal copy lives at
/// `JOURNAL_BASE + k`.
const LBA_SPACE: u64 = 48;
const JOURNAL_BASE: u64 = 1024;
/// Enough single-unit writes to fill the 2 048-unit device twice over.
const OPS: u64 = 6_000;

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

fn record(lba: u64, key: u64, version: u64) -> WriteRequest {
    WriteRequest {
        lba,
        sectors: 1,
        content: WriteContent::Record {
            key,
            version,
            bytes: 512,
        },
    }
}

fn power_lost(e: &SsdError) -> bool {
    matches!(e, SsdError::Ftl(e) if e.is_power_loss())
}

/// Writes go to a home or to the key's journal LBA; now and then one
/// checkpoint command remaps every journaled key home and the journal is
/// trimmed. The device persists its mapping log at the end of each
/// checkpoint command (faults are armed). After the cut and
/// `recover_power_loss`, every home reads back at the version of the
/// last command that completed on it; the one command the cut
/// interrupted may have landed or not, entry by entry.
#[test]
fn random_cut_point_recovery_matches_acked_writes() {
    let (mut cut_after_gc, mut remaps) = (0u64, 0u64);
    check_seeded(
        "oob-cut-recovery",
        BASE_SEED ^ 0x5105_F00D,
        24,
        &mut |rng: &mut TestRng| {
            let mut s = ssd();
            let cut_tick = rng.range_u64(3, 10_000);
            s.ftl_mut()
                .flash_mut()
                .arm_faults(FaultPlan::new(FaultConfig::power_cut(
                    rng.next_u64(),
                    cut_tick,
                )));
            let mut t = SimTime::ZERO;
            // Home LBA → version, and the journaled keys not yet remapped.
            let mut shadow: BTreeMap<u64, u64> = BTreeMap::new();
            let mut journaled: BTreeMap<u64, u64> = BTreeMap::new();
            let mut inflight: Vec<(u64, u64)> = Vec::new();
            for version in 1..=OPS {
                let key = rng.below(LBA_SPACE);
                match rng.weighted(&[6, 3, 1]) {
                    0 => match s.write(&record(key, key, version), OobKind::Data, t) {
                        Ok(done) => {
                            t = done;
                            shadow.insert(key, version);
                        }
                        Err(e) if power_lost(&e) => {
                            inflight.push((key, version));
                            break;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    },
                    1 => {
                        let req = record(JOURNAL_BASE + key, key, version);
                        match s.write(&req, OobKind::Journal, t) {
                            Ok(done) => {
                                t = done;
                                journaled.insert(key, version);
                            }
                            Err(e) if power_lost(&e) => break,
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                    }
                    _ => {
                        let entries: Vec<CowEntry> = journaled
                            .keys()
                            .map(|&key| CowEntry {
                                src_lba: JOURNAL_BASE + key,
                                dst_lba: key,
                                sectors: 1,
                                dst_sectors: 1,
                                key,
                                merged: false,
                            })
                            .collect();
                        match s.checkpoint(&entries, CheckpointMode::Remap, t) {
                            Ok(done) => t = done,
                            Err(e) if power_lost(&e) => {
                                inflight.extend(journaled);
                                break;
                            }
                            Err(e) => panic!("unexpected error: {e}"),
                        }
                        remaps += entries.len() as u64;
                        shadow.extend(std::mem::take(&mut journaled));
                        for e in &entries {
                            t = s.deallocate(e.src_lba, 1, t);
                        }
                        if s.powered_off() {
                            break;
                        }
                    }
                }
            }
            if !s.powered_off() {
                // The schedule outlived the workload: cut manually so the
                // recovery path is always exercised.
                s.ftl_mut().flash_mut().cut_power();
            }
            cut_after_gc += u64::from(s.ftl().counters().get(Counter::FtlGcInvocations) > 0);
            s.recover_power_loss().unwrap();
            for (&lba, &version) in &shadow {
                let mut frags = Vec::new();
                s.read_into(
                    &ReadRequest {
                        lba,
                        sectors: 1,
                        key: Some(lba),
                    },
                    SimTime::ZERO,
                    &mut frags,
                )
                .expect("post-recovery read");
                let got = frags
                    .iter()
                    .map(|f| f.version)
                    .max()
                    .unwrap_or_else(|| panic!("lba {lba} lost after recovery"));
                let acceptable = got == version || inflight.contains(&(lba, got));
                assert!(acceptable, "lba {lba}: got v{got}, acked v{version}");
            }
            s.ftl()
                .check_invariants()
                .expect("post-recovery invariants");
            // The device still accepts writes after recovery.
            s.write(&record(0, 0, OPS + 1), OobKind::Data, SimTime::ZERO)
                .expect("post-recovery write");
        },
    );
    assert!(
        cut_after_gc >= 8 && remaps > 0,
        "impotent: {cut_after_gc} cuts after GC, {remaps} remap entries completed"
    );
}
