//! Locks in the hot-loop allocation work: once the engine and FTL
//! buffers are warm and every flash block in play has been programmed
//! once, the steady-state query loop (whole-sector journal updates +
//! point reads) performs **zero** heap allocations per operation.
//!
//! The measured window deliberately models steady state *within* a
//! checkpoint cycle: the working set has already been journaled once
//! since the last checkpoint (so JMT nodes exist), the FTL write buffer
//! and read scratch have reached their high-water capacity, and every
//! block owns its page-store arenas (a block allocates on its first
//! program only; erase keeps the capacity).
//! Everything the window exercises — journal append, block write, page
//! drain, JMT update, flash program, point read — must then run
//! allocation-free. A second window, after the first, holds a warm
//! copy-class checkpoint command to the same standard, a third a
//! warm Baseline checkpoint, whose read-backs and rewrites are paced
//! through the checkpoint's own queue-deep window, and a fourth a warm
//! paced GC round, begun and pumped step by step, and then a one-call
//! round.
//!
//! This file holds exactly one test so the process-global allocation
//! counter cannot pick up a concurrently running test's traffic.

// The one sanctioned use of `unsafe` in the workspace: a counting
// `GlobalAlloc` shim cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use checkin_core::{EngineError, KvEngine, Layout, Strategy, SystemConfig};
use checkin_flash::{BlockId, FlashArray};
use checkin_ftl::{Ftl, GcTrigger};
use checkin_sim::{Counter, Progress, SimTime};
use checkin_ssd::{CheckpointMode, CowEntry, Ssd, SsdTiming};

/// Counts every allocation and reallocation; frees are not counted
/// (returning memory is always fine in the steady state).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const RECORDS: u64 = 500;
const VALUE_BYTES: u32 = 700; // > 512 B mapping unit => Full-class log
const WINDOW_KEYS: u64 = 256;
/// Entries of the copy checkpoint command the second window measures.
const COPY_KEYS: u64 = 32;
/// Entries of the Baseline checkpoint the third window measures: more
/// than the device queue is deep, so the window fills.
const BASELINE_KEYS: u64 = 96;
/// Baseline checkpoints the third window runs unmeasured first, and
/// then measures, each of which must allocate nothing.
const BASELINE_WARM: u64 = 4;
const BASELINE_MEASURED: u64 = 4;
/// Paced GC rounds the fourth window runs: the first unmeasured, every
/// later one measured.
const GC_ROUNDS: u32 = 3;

#[test]
fn steady_state_query_loop_is_allocation_free() {
    let mut config = SystemConfig::for_strategy(Strategy::CheckIn);
    // A small array so warm-up cycles every block through GC: "steady
    // state" only exists once programs and erases have balanced.
    config.geometry = checkin_flash::FlashGeometry {
        channels: 2,
        dies_per_channel: 2,
        planes_per_die: 1,
        blocks_per_plane: 16,
        pages_per_block: 64,
        page_bytes: 4096,
    };
    config.gc_threshold_blocks = 4;
    config.gc_soft_threshold_blocks = 12;
    let layout = Layout::new(
        RECORDS,
        config.workload.sizes.max_bytes() + checkin_core::LOG_HEADER_BYTES,
        512,
        1 << 12,
    );
    let flash = FlashArray::new(config.geometry, config.flash_timing);
    let ftl = Ftl::new(flash, config.ftl_config()).unwrap();
    let mut ssd = Ssd::new(ftl, SsdTiming::paper_default());
    let mut engine = KvEngine::new(Strategy::CheckIn, layout, 0.7);

    let records: Vec<(u64, u32)> = (0..RECORDS).map(|k| (k, 800)).collect();
    let mut t = engine.load(&mut ssd, &records, SimTime::ZERO).unwrap();

    // Warm-up: run full checkpoint cycles until every reusable buffer
    // has reached its high-water mark and no block is left that was
    // never programmed. Each cycle ends on JournalFull so the window
    // starts right after a checkpoint with a fresh zone. The clock only
    // moves forward, so the device may forget what is over by it, as
    // `KvSystem::run` lets it: a timeline's idle gaps then stay few.
    let mut key = 0u64;
    let mut checkpoints = 0u32;
    loop {
        key = (key + 13) % RECORDS;
        ssd.retire_before(t);
        match engine.update(&mut ssd, key, VALUE_BYTES, t) {
            Ok(d) => t = d,
            Err(EngineError::JournalFull) => {
                t = engine.checkpoint(&mut ssd, t).unwrap().finish;
                checkpoints += 1;
                let flash = ssd.ftl().flash();
                let untouched = (0..flash.geometry().total_blocks())
                    .map(BlockId)
                    .filter(|&b| flash.write_cursor(b) == 0 && flash.erase_count(b) == 0)
                    .count();
                if checkpoints >= 3 && untouched == 0 {
                    break;
                }
                assert!(
                    checkpoints < 200,
                    "warm-up never reached steady state ({untouched} blocks never \
                     programmed, {} free blocks)",
                    ssd.ftl().free_block_count()
                );
            }
            Err(e) => panic!("warm-up update failed: {e}"),
        }
    }

    // First pass over the measured working set: re-journal each key once
    // after the last checkpoint (JMT re-insertion may allocate tree
    // nodes) and warm the read path.
    for k in 0..WINDOW_KEYS {
        ssd.retire_before(t);
        t = engine.update(&mut ssd, k, VALUE_BYTES, t).unwrap();
        t = engine.get(&mut ssd, k, t).unwrap().finish;
    }

    // Measured window: the same keys again — pure steady state. Every
    // page it drains lands in a block that GC erased during warm-up (or
    // one already open), so the page store's reprogram-after-erase path
    // is what runs here, and so do foreground GC rounds: victim
    // selection and migration allocate nothing either.
    let gc_rounds = |ssd: &Ssd| ssd.ftl().counters().get(Counter::FtlGcInvocations);
    let rounds = gc_rounds(&ssd);
    let before = ALLOCS.load(Ordering::SeqCst);
    for k in 0..WINDOW_KEYS {
        ssd.retire_before(t);
        t = engine.update(&mut ssd, k, VALUE_BYTES, t).unwrap();
        t = engine.get(&mut ssd, k, t).unwrap().finish;
    }
    let delta = ALLOCS.load(Ordering::SeqCst) - before;

    assert_eq!(
        delta, 0,
        "steady-state loop allocated {delta} times over {WINDOW_KEYS} update+get pairs"
    );
    let rounds = gc_rounds(&ssd) - rounds;
    assert!(rounds > 0, "no GC round ran inside the window");
    // The window must have exercised the real write path, not a no-op.
    assert!(engine.counters().get(Counter::EngineUpdates) >= 2 * WINDOW_KEYS);
    assert!(engine.counters().get(Counter::EngineReads) >= 2 * WINDOW_KEYS);

    // Second window: a copy-class checkpoint command — walk steps that
    // decode and classify the batch, gather steps that read one entry
    // in flight per die (one sense per journal page), scatter steps —
    // over journal logs of the working set. The device keeps the batch,
    // the die lanes, the sensed-page set, the gathered fragments and the
    // staged sizes in buffers it recycles, so the second such command
    // allocates nothing either.
    let entries: Vec<CowEntry> = (0..COPY_KEYS)
        .map(|k| {
            let e = engine.journal().jmt().lookup(k).expect("journaled above");
            CowEntry {
                src_lba: e.journal_lba,
                dst_lba: layout.home_lba(k),
                sectors: e.sectors,
                dst_sectors: e.sectors,
                key: k,
                merged: e.merged,
            }
        })
        .collect();
    t = ssd.checkpoint(&entries, CheckpointMode::Copy, t).unwrap();
    let copied = ssd.counters().get(Counter::SsdCopyEntries);
    let before = ALLOCS.load(Ordering::SeqCst);
    ssd.checkpoint(&entries, CheckpointMode::Copy, t).unwrap();
    let delta = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        delta, 0,
        "a warm copy checkpoint of {COPY_KEYS} entries allocated {delta} times"
    );
    assert_eq!(
        ssd.counters().get(Counter::SsdCopyEntries) - copied,
        COPY_KEYS
    );

    // Third window: a Baseline engine over the same warm device. Its
    // checkpoint reads every log back and rewrites it home, more entries
    // than the window is deep, in pump steps, and then trims the retired
    // zone one map segment a step; the job's entries, staged
    // read-backs and fragment buffer are the ones the first checkpoint
    // grew, handed back at its end. Its queue-deep window books ahead
    // of the pump clock, so the channel timelines keep more idle gaps
    // live than the query loop does, and their lists reach their length
    // over the first few checkpoints (11, 1 and 1 allocations, then
    // none): `BASELINE_WARM` checkpoints run unmeasured, and every one
    // of the `BASELINE_MEASURED` after them must allocate nothing.
    let mut baseline = KvEngine::new(Strategy::Baseline, layout, 0.7);
    let keys: Vec<(u64, u32)> = (0..BASELINE_KEYS).map(|k| (k, 800)).collect();
    t = baseline.load(&mut ssd, &keys, t).unwrap();
    for round in 1..=BASELINE_WARM + BASELINE_MEASURED {
        for k in 0..BASELINE_KEYS {
            ssd.retire_before(t);
            t = baseline.update(&mut ssd, k, VALUE_BYTES, t).unwrap();
        }
        let before = ALLOCS.load(Ordering::SeqCst);
        let begun = baseline.begin_checkpoint(&mut ssd, t).unwrap();
        let mut steps = 0;
        let out = begun
            .finish(|due| {
                steps += 1;
                ssd.retire_before(due);
                baseline.pump_checkpoint(&mut ssd, due)
            })
            .unwrap();
        let delta = ALLOCS.load(Ordering::SeqCst) - before;
        t = out.finish;
        assert_eq!(out.copied, BASELINE_KEYS);
        assert!(steps > 1, "{steps} pump steps");
        if round > BASELINE_WARM {
            assert_eq!(
                delta, 0,
                "warm Baseline checkpoint {round} of {BASELINE_KEYS} entries allocated {delta} times"
            );
        }
    }
    assert_eq!(
        baseline.counters().get(Counter::EngineCheckpoints),
        BASELINE_WARM + BASELINE_MEASURED
    );

    // Fourth window: GC rounds on the warm device, begun and pumped step
    // by step as `KvSystem::run`'s GC pump does — each step reads the
    // victim's next page, moves a landed page's units into the write
    // buffer until a page-out waits for a slot, or erases. A round keeps
    // only its cursors, so once the page-out path is warm a whole round
    // allocates nothing.
    for round in 0..GC_ROUNDS {
        let moved = ssd.ftl().counters().get(Counter::FtlGcUnitsMoved);
        let before = ALLOCS.load(Ordering::SeqCst);
        let begun = ssd
            .ftl_mut()
            .begin_gc_round(t, GcTrigger::Background)
            .unwrap();
        let first = begun.expect("the churned device has a victim");
        let mut steps = 0;
        t = Progress::PumpAt(first)
            .finish(|due| {
                ssd.retire_before(due);
                steps += 1;
                ssd.ftl_mut().pump_gc(due)
            })
            .unwrap();
        let delta = ALLOCS.load(Ordering::SeqCst) - before;
        assert!(steps > 2, "{steps} steps");
        assert!(ssd.ftl().counters().get(Counter::FtlGcUnitsMoved) > moved);
        if round > 0 {
            assert_eq!(
                delta, 0,
                "warm paced GC round {round} allocated {delta} times"
            );
        }
    }
    // The one-call round runs the same steps through the same loop: warm,
    // it allocates nothing either.
    let moved = ssd.ftl().counters().get(Counter::FtlGcUnitsMoved);
    let before = ALLOCS.load(Ordering::SeqCst);
    let end = ssd.ftl_mut().run_gc_round(t, GcTrigger::Background);
    let delta = ALLOCS.load(Ordering::SeqCst) - before;
    assert!(end.unwrap().is_some_and(|end| end > t));
    assert!(ssd.ftl().counters().get(Counter::FtlGcUnitsMoved) > moved);
    assert_eq!(delta, 0, "a warm one-call GC round allocated {delta} times");
}
