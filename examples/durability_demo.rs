//! Durability demo: crash the host mid-workload and recover (§III-G).
//!
//! The engine journals every update before acknowledging it; the SSD's
//! write buffer is power-protected. We simulate a host crash (all engine
//! state — key map and JMT — is lost), then rebuild from the device
//! alone: data-area homes give the last checkpoint, a journal-area scan
//! replays everything after it.
//!
//! ```sh
//! cargo run --release --example durability_demo
//! ```

use std::collections::HashMap;

use checkin_core::{EngineError, KvEngine, Layout, Strategy};
use checkin_flash::{FlashArray, FlashGeometry, FlashTiming};
use checkin_ftl::{Ftl, FtlConfig};
use checkin_sim::{SimRng, SimTime};
use checkin_ssd::{Ssd, SsdTiming};

const RECORDS: u64 = 2_000;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let strategy = Strategy::CheckIn;
    let flash = FlashArray::new(FlashGeometry::paper_default(), FlashTiming::mlc());
    let ftl = Ftl::new(
        flash,
        FtlConfig {
            unit_bytes: strategy.default_unit_bytes(),
            ..FtlConfig::default()
        },
    )?;
    let mut ssd = Ssd::new(ftl, SsdTiming::paper_default());
    let layout = Layout::new(RECORDS, 4096 + 16, strategy.default_unit_bytes(), 1 << 14);
    let mut engine = KvEngine::new(strategy, layout, 0.7);

    // Load and run a few thousand updates with periodic checkpoints.
    println!("loading {RECORDS} records...");
    let records: Vec<(u64, u32)> = (0..RECORDS)
        .map(|k| (k, 300 + (k % 7) as u32 * 300))
        .collect();
    let mut t = engine.load(&mut ssd, &records, SimTime::ZERO)?;
    let mut expected: HashMap<u64, u64> = (0..RECORDS).map(|k| (k, 1)).collect();

    let mut rng = SimRng::seed_from(2026);
    println!("applying 12,000 updates with a checkpoint every 4,000...");
    for i in 0..12_000u64 {
        let key = rng.gen_range(RECORDS);
        let bytes = 1 + rng.gen_range(2048) as u32;
        match engine.update(&mut ssd, key, bytes, t) {
            Ok(done) => t = done,
            Err(EngineError::JournalFull) => {
                t = engine.checkpoint(&mut ssd, t)?.finish;
                t = engine.update(&mut ssd, key, bytes, t)?;
            }
            Err(e) => return Err(e.into()),
        }
        *expected.get_mut(&key).unwrap() += 1;
        if i % 4_000 == 2_000 {
            let started = t;
            let out = engine.checkpoint(&mut ssd, t)?;
            t = out.finish;
            println!(
                "  checkpoint: {} entries, {} remapped, {} flash programs, took {}",
                out.entries,
                out.remapped,
                out.phases.flash_programs(),
                out.finish.duration_since(started)
            );
        }
    }
    let journaled_tail = engine.journal().jmt().live_keys();
    println!("\n!!! host crash — {journaled_tail} keys only in the journal, engine state lost\n");
    drop(engine);

    // Recovery: last checkpoint (data area) + journal replay.
    let (recovered, report) =
        KvEngine::recover_with_report(strategy, layout, 0.7, &mut ssd, RECORDS, t)?;
    let t = report.finish;
    println!(
        "recovered {} keys in {} ({} journal entries replayed, {} device reads)",
        report.keys_recovered,
        report.duration,
        report.journal_entries_replayed,
        report.device_reads
    );

    let mut mismatches = 0;
    for (&key, &version) in &expected {
        if recovered.version_of(key) != Some(version) {
            mismatches += 1;
        }
    }
    assert_eq!(mismatches, 0, "recovery lost committed updates");
    println!(
        "verified: all {} keys at their committed versions — zero loss",
        RECORDS
    );

    // And the recovered engine keeps working.
    let mut engine = recovered;
    let t = engine.update(&mut ssd, 0, 512, t)?;
    let read = engine.get(&mut ssd, 0, t)?;
    println!(
        "post-recovery update accepted: key 0 now at version {}",
        read.version
    );
    Ok(())
}
