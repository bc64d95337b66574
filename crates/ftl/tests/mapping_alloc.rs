//! Gates what the mapping table costs the host: a device-sized table is
//! two allocations of 4 B forward and 8 B reverse per unit, mapping a
//! unit allocates nothing, and checkpoint aliases reuse freed referrer
//! lists instead of allocating one per alias.
//!
//! Byte and call counts are exact and repeat on any host, so this gates
//! where peak RSS could only be watched. `MappingTable::heap_bytes` is
//! held to the allocator's own count, so the `host/mapping_bytes` row
//! `checkin run` prints cannot drift from it.
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

use checkin_ftl::{BufSlot, Location, Lpn, MappingTable, Pun, Unlink};

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
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, i64) {
    let live = || ALLOCATED.load(Ordering::SeqCst) as i64 - FREED.load(Ordering::SeqCst) as i64;
    let (calls, before) = (CALLS.load(Ordering::SeqCst), live());
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (out, CALLS.load(Ordering::SeqCst) - calls, live() - before)
}

/// Units of the table; the host maps the first half and aliases the
/// second half onto it.
const UNITS: u64 = 1 << 16;
const HALF: u64 = UNITS / 2;
/// Aliases held at once in one churn round.
const ALIASES: u64 = 256;

/// Aliases `ALIASES` second-half lpns onto the first half, relocates
/// half of the shared units onto other shared units (merging two lists
/// into one), then trims every alias: each list is freed again.
fn churn(t: &mut MappingTable) {
    for i in 0..ALIASES {
        t.alias(Lpn(HALF + i), Lpn(i)).unwrap();
    }
    for i in 0..ALIASES / 2 {
        let (from, to) = (
            Location::Flash(Pun(i)),
            Location::Flash(Pun(ALIASES / 2 + i)),
        );
        assert_eq!(t.relocate(from, to), 2);
    }
    for i in 0..ALIASES {
        t.unmap(Lpn(HALF + i));
    }
    for i in 0..ALIASES / 2 {
        // Put the relocated home back where the next round expects it.
        t.map(Lpn(i), Location::Flash(Pun(i)));
    }
}

#[test]
fn a_mapped_unit_costs_one_word_each_way_and_aliases_reuse_their_lists() {
    // The words themselves: one `Lpn` per reverse slot.
    assert_eq!(std::mem::size_of::<Lpn>(), 8);

    // (a) A device-sized table: the forward and reverse arrays, 4 B and
    // 8 B per unit, reserved in two allocations.
    let (mut t, calls, grown) = counted(|| MappingTable::with_capacity(UNITS));
    assert_eq!((calls, grown as u64), (2, UNITS * (4 + 8)));
    assert_eq!(t.heap_bytes(), grown as u64);

    // (b) Mapping every unit of the first half allocates nothing.
    let ((), calls, grown) = counted(|| {
        for u in 0..HALF {
            assert_eq!(t.map(Lpn(u), Location::Flash(Pun(u))), Unlink::NotMapped);
        }
    });
    assert_eq!((calls, grown), (0, 0));

    // (c) The first churn round builds the list arena: one allocation
    // per list, plus the arena's and the free list's doublings.
    let before = t.heap_bytes();
    let ((), calls, grown) = counted(|| churn(&mut t));
    let doublings = u64::from(ALIASES.ilog2()) - 1;
    assert_eq!(calls, ALIASES + 2 * doublings);
    assert_eq!(t.heap_bytes() - before, grown as u64);
    t.check_consistency().unwrap();

    // (d) Every later round reuses the freed lists: nothing at all.
    let ((), calls, grown) = counted(|| {
        for _ in 0..4 {
            churn(&mut t);
        }
    });
    assert_eq!((calls, grown), (0, 0));
    t.check_consistency().unwrap();
    assert_eq!(t.live_entries() as u64, HALF);
    assert_eq!(t.occupied_locations() as u64, HALF);

    // (e) A page-out re-homes a buffered unit onto flash in place.
    t.map(Lpn(HALF), Location::Buffer(BufSlot(0)));
    let (moved, calls, grown) =
        counted(|| t.relocate(Location::Buffer(BufSlot(0)), Location::Flash(Pun(HALF))));
    assert_eq!((moved, calls, grown), (1, 0, 0));
    t.check_consistency().unwrap();
}
