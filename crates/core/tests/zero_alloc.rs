//! Locks in the hot-loop allocation work: once the engine, FTL buffers,
//! and flash spare-page pool are warm, the steady-state query loop
//! (whole-sector journal updates + point reads) performs **zero** heap
//! allocations per operation.
//!
//! The measured window deliberately models steady state *within* a
//! checkpoint cycle: the working set has already been journaled once
//! since the last checkpoint (so JMT nodes exist), the FTL write buffer
//! and read scratch have reached their high-water capacity, and the
//! flash array's spare-page pool has been fed by zone-recycling erases.
//! Everything the window exercises — journal append, block write, page
//! drain, JMT update, flash program, point read — must then run
//! allocation-free.
//!
//! This file holds exactly one test so the process-global allocation
//! counter cannot pick up a concurrently running test's traffic.

// The one sanctioned use of `unsafe` in the workspace: a counting
// `GlobalAlloc` shim cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use checkin_core::{EngineError, KvEngine, Layout, Strategy, SystemConfig};
use checkin_flash::FlashArray;
use checkin_ftl::Ftl;
use checkin_sim::{Counter, SimTime};
use checkin_ssd::{Ssd, SsdTiming};

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
/// Spare page-content shells required before the window starts: enough
/// to cover both passes' page drains with margin.
const SPARE_TARGET: usize = 160;

#[test]
fn steady_state_query_loop_is_allocation_free() {
    let mut config = SystemConfig::for_strategy(Strategy::CheckIn);
    // A small array so warm-up actually cycles blocks through GC: the
    // spare-page pool is fed by erases, and "steady state" only exists
    // once programs and erases have balanced.
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
    // has reached its high-water mark and GC erases have filled the
    // flash spare-page pool. Each cycle ends on JournalFull so the
    // window starts right after a checkpoint with a fresh zone.
    let mut key = 0u64;
    let mut checkpoints = 0u32;
    loop {
        key = (key + 13) % RECORDS;
        match engine.update(&mut ssd, key, VALUE_BYTES, t) {
            Ok(d) => t = d,
            Err(EngineError::JournalFull) => {
                t = engine.checkpoint(&mut ssd, t).unwrap().finish;
                checkpoints += 1;
                let spares = ssd.ftl().flash().spare_page_count();
                // Both passes write ~2 blocks of journal; require enough
                // free-block headroom that GC stays quiescent throughout.
                if checkpoints >= 3 && spares >= SPARE_TARGET {
                    break;
                }
                assert!(
                    checkpoints < 200,
                    "warm-up never reached steady state ({spares} spare pages pooled, \
                     {} free blocks)",
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
        t = engine.update(&mut ssd, k, VALUE_BYTES, t).unwrap();
        t = engine.get(&mut ssd, k, t).unwrap().finish;
    }

    // Measured window: the same keys again — pure steady state. GC
    // runs several rounds inside this window (the small array keeps
    // free blocks pinned at the threshold), so the migrate/drain path
    // is covered too.
    let before = ALLOCS.load(Ordering::SeqCst);
    for k in 0..WINDOW_KEYS {
        t = engine.update(&mut ssd, k, VALUE_BYTES, t).unwrap();
        t = engine.get(&mut ssd, k, t).unwrap().finish;
    }
    let delta = ALLOCS.load(Ordering::SeqCst) - before;

    assert_eq!(
        delta, 0,
        "steady-state loop allocated {delta} times over {WINDOW_KEYS} update+get pairs"
    );
    // The window must have exercised the real write path, not a no-op.
    assert!(engine.counters().get(Counter::EngineUpdates) >= 2 * WINDOW_KEYS);
    assert!(engine.counters().get(Counter::EngineReads) >= 2 * WINDOW_KEYS);
}
