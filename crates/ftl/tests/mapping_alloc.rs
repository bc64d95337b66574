//! Gates what the mapping table costs the host: a device-sized table is
//! two allocations, of 4 B forward and 2 bits of location state per
//! unit; mapping a unit under its own LPN allocates nothing; checkpoint
//! aliases reuse the exception map's freed lists instead of allocating
//! per alias; and a remap churn shaped like the paper's workload costs
//! those bits plus at most 32 B per exceptional location.
//!
//! Byte and call counts are exact and repeat on any host, so this gates
//! where peak RSS could only be watched. `MappingTable::heap_bytes` is
//! held to the allocator's own count, so the `host/mapping_bytes` row
//! `checkin run` prints cannot drift from it.
//!
//! Only the measuring thread's allocations count: libtest's own threads,
//! and the other test, allocate while a test runs, and process-global
//! counters would pick that traffic up.

// Same sanctioned `unsafe` as `checkin-core`'s `construction_alloc.rs`:
// a counting `GlobalAlloc` shim cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use checkin_ftl::{BufSlot, Location, Lpn, MappingTable, Pun, Unlink};

/// Counts allocation calls and tracks live heap bytes of the thread
/// inside [`counted`].
struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so reading them
    // never allocates (which would recurse into the allocator). Per
    // thread, so that tests measuring at once do not count each other.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(calls: u64, allocated: usize, freed: usize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = CALLS.try_with(|c| c.set(c.get() + calls));
        let _ = LIVE.try_with(|l| l.set(l.get() + allocated as i64 - freed as i64));
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
    let (calls, before) = (CALLS.get(), LIVE.get());
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    (out, CALLS.get() - calls, LIVE.get() - before)
}

/// Units of the table; the host maps the first half and aliases the
/// second half onto it.
const UNITS: u64 = 1 << 16;

/// The own-LPN function of the churn below: flash unit `u` was
/// programmed with lpn `u`, buffer slot 0 written under lpn `HALF`.
fn own(loc: Location) -> Option<Lpn> {
    Some(match loc {
        Location::Flash(pun) => Lpn(pun.0),
        Location::Buffer(_) => Lpn(HALF),
    })
}
const HALF: u64 = UNITS / 2;
/// Aliases held at once in one churn round.
const ALIASES: u64 = 256;

/// Aliases `ALIASES` second-half lpns onto the first half, relocates
/// half of the shared units onto other shared units (merging two lists
/// into one), then trims every alias: each list is freed again.
fn churn(t: &mut MappingTable) {
    for i in 0..ALIASES {
        t.alias(Lpn(HALF + i), Lpn(i), own).unwrap();
    }
    for i in 0..ALIASES / 2 {
        let (from, to) = (
            Location::Flash(Pun(i)),
            Location::Flash(Pun(ALIASES / 2 + i)),
        );
        assert_eq!(t.relocate(from, to, own), 2);
    }
    for i in 0..ALIASES {
        t.unmap(Lpn(HALF + i), own);
    }
    for i in 0..ALIASES / 2 {
        // Put the relocated home back where the next round expects it.
        t.map(Lpn(i), Location::Flash(Pun(i)), own);
    }
}

#[test]
fn a_mapped_unit_costs_a_forward_word_and_two_bits_and_aliases_reuse_their_lists() {
    // (a) A device-sized table: the forward array and the flash state
    // bits, 4 B and 2 bits per unit, reserved in two allocations.
    let (mut t, calls, grown) = counted(|| MappingTable::with_capacity(UNITS));
    assert_eq!((calls, grown as u64), (2, UNITS * 4 + UNITS / 4));
    assert_eq!(t.heap_bytes(), grown as u64);

    // (b) Mapping every unit of the first half under its own lpn
    // allocates nothing.
    let ((), calls, grown) = counted(|| {
        for u in 0..HALF {
            assert_eq!(
                t.map(Lpn(u), Location::Flash(Pun(u)), own),
                Unlink::NotMapped
            );
        }
    });
    assert_eq!((calls, grown), (0, 0));
    assert_eq!(t.exceptional_locations(), 0);

    // (c) The first churn round builds the exception map: one list of
    // two (capacity 4) per alias, all 256 live at once, the list and
    // free-list vectors doubling to 256, the table of 16-byte slots
    // growing by a quarter from 16 slots until 256 entries fit at most
    // 5/8 full, and the relocation buffer (4 lpns).
    let before = t.heap_bytes();
    let ((), calls, grown) = counted(|| churn(&mut t));
    let doublings = u64::from(ALIASES.ilog2()) - 1;
    let sizes = std::iter::successors(Some(16u64), |&n| Some(n + n / 4));
    let (grows, slots) = (1..)
        .zip(sizes)
        .find(|&(_, n)| n * 5 >= ALIASES * 8)
        .unwrap();
    assert_eq!(calls, ALIASES + 2 * doublings + grows + 1);
    assert_eq!(
        grown as u64,
        ALIASES * (4 * 8 + 24 + 4) + slots * 16 + 4 * 8
    );
    assert_eq!(t.heap_bytes() - before, grown as u64);
    t.check_consistency(own).unwrap();

    // (d) Every later round reuses the freed lists: nothing at all.
    let ((), calls, grown) = counted(|| {
        for _ in 0..4 {
            churn(&mut t);
        }
    });
    assert_eq!((calls, grown), (0, 0));
    t.check_consistency(own).unwrap();
    assert_eq!(t.live_entries() as u64, HALF);
    assert_eq!(t.occupied_locations() as u64, HALF);
    assert_eq!(t.exceptional_locations(), 0);

    // (e) A page-out re-homes a buffered unit onto flash in place.
    t.map(Lpn(HALF), Location::Buffer(BufSlot(0)), own);
    let (moved, calls, grown) = counted(|| {
        t.relocate(
            Location::Buffer(BufSlot(0)),
            Location::Flash(Pun(HALF)),
            own,
        )
    });
    assert_eq!((moved, calls, grown), (1, 0, 0));
    t.check_consistency(own).unwrap();
}

/// Flash units the remap churn pages out, each once.
const CHURN_UNITS: u64 = 1 << 20;
/// Units occupied at once at most: the journal lpns live in a ring of
/// this many, and half as many home lpns hold the remapped units.
const CHURN_WINDOW: u64 = 1 << 12;
const HOMES: u64 = CHURN_WINDOW / 2;

/// The journal lpn step `u` writes.
fn journal(u: u64) -> Lpn {
    Lpn(HOMES + u % CHURN_WINDOW)
}

/// Step `u` of a churn shaped like `ycsb_a_remap`: a journal lpn is
/// written into buffer slot 0 and paged out to fresh flash unit `u`, both
/// under that lpn's OOB record; every other unit is then remapped — a
/// home lpn aliases it and the journal lpn is trimmed — so the home's
/// previous unit dies and this one is exceptional. The journal lpn's
/// previous unit dies when the ring comes round. Returns the exceptional
/// location count after the step.
fn remap_step(t: &mut MappingTable, u: u64) -> usize {
    let lpn = journal(u);
    let own = |loc| {
        Some(match loc {
            Location::Flash(pun) => journal(pun.0),
            Location::Buffer(_) => lpn,
        })
    };
    let slot = Location::Buffer(BufSlot(0));
    t.map(lpn, slot, own);
    assert_eq!(t.relocate(slot, Location::Flash(Pun(u)), own), 1);
    if u % 2 == 1 {
        t.alias(Lpn(u / 2 % HOMES), lpn, own).unwrap();
        t.unmap(lpn, own);
    }
    t.exceptional_locations()
}

#[test]
fn a_remap_churn_costs_two_bits_a_unit_and_32_bytes_an_exception() {
    let (mut t, _, reserved) = counted(|| MappingTable::with_capacity(CHURN_UNITS));
    assert_eq!(reserved as u64, CHURN_UNITS * 4 + CHURN_UNITS / 4);
    // The first half reaches every peak: the ring and the homes fill.
    let (peak, _, warm) = counted(|| {
        (0..CHURN_UNITS / 2)
            .map(|u| remap_step(&mut t, u))
            .max()
            .unwrap_or(0)
    });
    assert_eq!(peak as u64, HOMES);
    assert_eq!(t.occupied_locations() as u64, CHURN_WINDOW);
    // The second half allocates nothing: a remap and the unmaps that
    // follow it reuse the exception map's table and lists.
    let (again, calls, grown) = counted(|| {
        (CHURN_UNITS / 2..CHURN_UNITS)
            .map(|u| remap_step(&mut t, u))
            .max()
            .unwrap_or(0)
    });
    assert_eq!((again, calls, grown), (peak, 0, 0));
    t.check_consistency(|loc| {
        Some(match loc {
            Location::Flash(pun) => journal(pun.0),
            Location::Buffer(_) => journal(CHURN_UNITS - 1),
        })
    })
    .unwrap();
    // The whole table: the reservation — 4 B forward and 2 bits of
    // state per unit — and at most 32 B per exceptional location at the
    // peak, counted exactly by `heap_bytes`. A reverse array of one
    // `Lpn` per programmed unit would add 8 B per unit instead.
    let live = (reserved + warm) as u64;
    assert_eq!(t.heap_bytes(), live);
    assert!(
        live <= reserved as u64 + 32 * peak as u64,
        "{live} B for {peak} exceptional locations"
    );
}
