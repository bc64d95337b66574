//! Gates what building a device costs before the first query: memory
//! and allocator traffic must follow what was written, not what the
//! device could hold. An erased flash array owns per-block headers and
//! nothing per page; `KvSystem::new` allocates per component, not per
//! block or per client key space.
//!
//! Byte and call counts are exact and repeat on any host, so this gates
//! where a wall-clock bound could not.
//!
//! This file holds exactly one test so the process-global counters
//! cannot pick up a concurrently running test's traffic.

// Same sanctioned `unsafe` as `zero_alloc.rs`: a counting `GlobalAlloc`
// shim cannot be written without it.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use checkin_core::{KvSystem, Strategy, SystemConfig};
use checkin_flash::{FlashArray, FlashGeometry, FlashTiming};

/// Counts allocation calls and the bytes they request (a reallocation
/// counts its full new size); frees are not counted.
struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counters
// touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(calls, bytes)` requested while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (CALLS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    let out = f();
    (
        out,
        CALLS.load(Ordering::SeqCst) - calls,
        BYTES.load(Ordering::SeqCst) - bytes,
    )
}

/// An erased paper-default array requests 255 552 B: 3 072 block headers
/// of 80 B (an erase count and three empty arenas; 240 KiB), the die and
/// channel queues, the bad-block flags. The device-sized page store this
/// replaced asked for ~73 MiB.
const FLASH_NEW_BYTES_BOUND: u64 = 256 * 1024;

/// Twice the 46 calls `KvSystem::new` makes on the default config (a
/// per-page state vector per block alone used to put it above 3 072).
/// The L2P forward-array reservation is one of them, whatever its size.
const SYSTEM_NEW_CALLS_BOUND: u64 = 96;

#[test]
fn construction_cost_is_independent_of_device_capacity() {
    let (flash, _, bytes) =
        counted(|| FlashArray::new(FlashGeometry::paper_default(), FlashTiming::mlc()));
    assert!(
        bytes < FLASH_NEW_BYTES_BOUND,
        "erased paper-default array requested {bytes} B (bound {FLASH_NEW_BYTES_BOUND})"
    );
    assert_eq!(flash.programmed_pages().count(), 0);

    let config = SystemConfig::for_strategy(Strategy::CheckIn);
    assert_eq!(config.geometry, FlashGeometry::paper_default());
    let (_system, calls, _) = counted(|| KvSystem::new(config).unwrap());
    assert!(
        calls < SYSTEM_NEW_CALLS_BOUND,
        "KvSystem::new made {calls} allocation calls (bound {SYSTEM_NEW_CALLS_BOUND})"
    );
}
