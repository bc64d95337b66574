//! Gates what a *written* device costs the host: a programmed page is
//! a copy into arenas its block reserved on first touch — at most 48
//! bytes per mapping-unit slot all-in, no allocation per page, none at
//! all for a block that has been filled and erased before. A record
//! keeps no checksum: seals exist only for slots a fault injector
//! changed, and nothing here injects.
//!
//! Byte and call counts are exact and repeat on any host, so this gates
//! where peak RSS could only be watched. `FlashArray::store_bytes` is
//! held to the allocator's own count, so the figure `checkin run` prints
//! cannot drift from it.
//!
//! Only the measuring thread's allocations count: libtest's own threads
//! allocate while the test runs, and process-global counters would pick
//! that traffic up.

// Same sanctioned `unsafe` as `checkin-core`'s `construction_alloc.rs`:
// a counting `GlobalAlloc` shim cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use checkin_flash::{
    BlockId, FlashArray, FlashGeometry, FlashTiming, Fragment, OobEntry, OobKind, PageContent, Ppn,
    UnitPayload,
};
use checkin_sim::SimTime;

/// Counts allocation calls and tracks live heap bytes of the thread
/// inside [`counted`].
struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static FREED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialised and without a destructor, so reading it never
    // allocates (which would recurse into the allocator).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note(calls: u64, allocated: usize, freed: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        CALLS.fetch_add(calls, Ordering::Relaxed);
        ALLOCATED.fetch_add(allocated as u64, Ordering::Relaxed);
        FREED.fetch_add(freed as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counters
// touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size(), 0);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, 0, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocation calls, live-byte growth)` of this thread while `f` runs.
fn counted(f: impl FnOnce()) -> (u64, i64) {
    let live = || ALLOCATED.load(Ordering::SeqCst) as i64 - FREED.load(Ordering::SeqCst) as i64;
    let (calls, before) = (CALLS.load(Ordering::SeqCst), live());
    COUNTING.set(true);
    f();
    COUNTING.set(false);
    (CALLS.load(Ordering::SeqCst) - calls, live() - before)
}

const PAGES: u64 = 4096;

/// Programs `PAGES` copies of `page` from block `first_block` on.
fn fill(flash: &mut FlashArray, first_block: u64, page: &PageContent) {
    let first = flash.geometry().first_ppn(BlockId(first_block)).0;
    for p in first..first + PAGES {
        flash.program(Ppn(p), page, SimTime::ZERO).unwrap();
    }
}

#[test]
fn a_programmed_page_costs_its_records_and_nothing_per_page() {
    let g = FlashGeometry::paper_default();
    let blocks = PAGES / g.pages_per_block as u64;
    let mut flash = FlashArray::new(g, FlashTiming::mlc());
    let oob = |lpn| OobEntry {
        lpn,
        sequence: lpn,
        kind: OobKind::Data,
    };

    // (a) Full pages of eight single-fragment units.
    let mut full = PageContent::empty(8);
    for (i, unit) in full.units.iter_mut().enumerate() {
        *unit = Some(UnitPayload::single(i as u64, 1, 512));
        full.oob.push(oob(i as u64));
    }
    let (calls, grown) = counted(|| fill(&mut flash, 0, &full));
    assert!(
        calls <= 3 * blocks,
        "{calls} allocation calls for {blocks} blocks"
    );
    assert!(
        grown as u64 <= 48 * 8 * PAGES,
        "{} B per unit slot",
        grown as u64 / (8 * PAGES)
    );
    assert_eq!(flash.store_bytes(), grown as u64);

    // (b) One-unit pages of three merged fragments.
    let mut merged = PageContent::empty(1);
    merged.units[0] = Some(UnitPayload::merged(vec![
        Fragment {
            key: 1,
            version: 1,
            bytes: 100
        };
        3
    ]));
    merged.oob.push(oob(0));
    let (_, grown_merged) = counted(|| fill(&mut flash, blocks, &merged));
    assert!(
        grown_merged as u64 <= 112 * PAGES,
        "{} B per one-unit page",
        grown_merged as u64 / PAGES
    );
    assert_eq!(flash.store_bytes(), (grown + grown_merged) as u64);

    // (c) Erase keeps every arena: the second life of a block is free.
    let (calls, grown_again) = counted(|| {
        for b in 0..2 * blocks {
            flash.erase(BlockId(b), SimTime::ZERO).unwrap();
        }
        fill(&mut flash, 0, &full);
        fill(&mut flash, blocks, &merged);
    });
    assert_eq!((calls, grown_again), (0, 0));
    assert_eq!(flash.store_bytes(), (grown + grown_merged) as u64);
}
