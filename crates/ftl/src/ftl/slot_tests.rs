//! `#[cfg(test)] mod slot_tests` of `ftl.rs`: the write buffer's
//! programming slots — when a write is acknowledged, what `flush` waits
//! for, and what a power cut and a grown bad block do to the slots.

use std::ops::Range;

use super::tests::{small_ftl, w};
use super::*;
use checkin_flash::{FaultConfig, FaultPlan};

/// `small_ftl(512)`: two write points, eight units to the page, and a
/// 16-unit watermark, so the unit that makes sixteen buffered pages eight
/// of them out.
const UPP: u64 = 8;
const WATERMARK: u64 = 16;

fn far() -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(1_000)
}

/// A traced `small_ftl(512)`.
fn traced_ftl() -> (Ftl, Tracer) {
    let mut f = small_ftl(512);
    let tracer = Tracer::ring_buffered(1_024);
    f.set_tracer(tracer.clone());
    (f, tracer)
}

/// Writes every lpn of `lpns` at `at` and returns each acknowledgement.
fn write_all(f: &mut Ftl, lpns: Range<u64>, at: SimTime) -> Vec<SimTime> {
    lpns.map(|lpn| f.write(w(lpn, lpn, 1, 512), OobKind::Data, at).unwrap())
        .collect()
}

/// The program finishes of the page-outs traced since the last call.
fn program_finishes(tracer: &Tracer) -> Vec<SimTime> {
    let finish = |e: &TraceEvent| {
        e.fields()
            .iter()
            .find(|(k, _)| *k == "finish_ns")
            .map(|f| f.1)
    };
    tracer
        .drain()
        .iter()
        .filter(|e| e.op == "page_out")
        .map(|e| SimTime::from_nanos(finish(e).expect("a page-out names its finish")))
        .collect()
}

#[test]
fn an_idle_device_acks_a_page_out_at_admission() {
    let (mut f, tracer) = traced_ftl();
    write_all(&mut f, 0..WATERMARK - 1, SimTime::ZERO);
    let at = SimTime::ZERO + SimDuration::from_millis(10);
    let ack = write_all(&mut f, WATERMARK - 1..WATERMARK, at);
    let finishes = program_finishes(&tracer);
    assert_eq!(finishes.len(), 1, "the unit at the watermark paged out");
    assert_eq!(ack, [at], "acknowledged when buffered");
    assert!(finishes[0] >= at + f.flash().timing().t_program);
    assert_eq!(f.counters().get(Counter::FtlBufferSlotWaits), 0);
}

#[test]
fn the_page_out_past_every_write_point_waits_for_the_first_program() {
    let (mut f, tracer) = traced_ftl();
    let write_points = u64::from(f.config().write_points);
    // Every UPP-th unit from the watermark on pages one page out: the
    // write-points + 1 of them are back to back at one instant.
    let units = WATERMARK + UPP * write_points;
    let acks = write_all(&mut f, 0..units, SimTime::ZERO);
    let finishes = program_finishes(&tracer);
    assert_eq!(finishes.len() as u64, write_points + 1);
    let (last, earlier) = acks.split_last().unwrap();
    assert!(earlier.iter().all(|&t| t == SimTime::ZERO), "{acks:?}");
    assert_eq!(*last, finishes[0], "the first program frees the slot");
    assert!(finishes.iter().all(|&t| t >= finishes[0]));
    assert!(*last >= SimTime::ZERO + f.flash().timing().t_program);
    assert_eq!(f.counters().get(Counter::FtlBufferSlotWaits), 1);
    assert_eq!(
        f.counters().get(Counter::FtlBufferSlotWaitNs),
        last.as_nanos()
    );
}

/// Admissions are not monotone: a checkpoint books a chain of writes
/// into the future, and the next client write arrives earlier. It still
/// finds the far-future programs in flight.
#[test]
fn an_earlier_admission_still_sees_the_programs_booked_ahead_of_it() {
    let (mut f, tracer) = traced_ftl();
    write_all(&mut f, 0..WATERMARK - 1, SimTime::ZERO);
    // Both write points start a program at `far`...
    let ahead = write_all(&mut f, WATERMARK - 1..WATERMARK + UPP, far());
    assert!(ahead.iter().all(|&t| t == far()));
    let booked = program_finishes(&tracer);
    assert_eq!(booked.len(), 2);
    // ...and a page-out admitted at zero waits for the first of them.
    let acks = write_all(&mut f, WATERMARK + UPP..WATERMARK + 2 * UPP, SimTime::ZERO);
    assert_eq!(acks.last(), Some(&booked[0]));
    assert!(booked[0] > far());
}

/// A writer is acknowledged before its page is programmed, so `flush`
/// must wait for programs it did not issue itself — here, one that
/// finishes after every page `flush` pages out.
#[test]
fn flush_returns_when_everything_acknowledged_is_on_flash() {
    let (mut f, tracer) = traced_ftl();
    // One page out (lpns 0..8), eight units left buffered, then trimmed:
    // the buffer is empty, the program is not done.
    let acks = write_all(&mut f, 0..WATERMARK, SimTime::ZERO);
    assert_eq!(acks.last(), Some(&SimTime::ZERO));
    for lpn in UPP..WATERMARK {
        assert!(f.deallocate(Lpn(lpn)));
    }
    let done = f.flush(SimTime::ZERO).unwrap();
    let first = program_finishes(&tracer);
    assert_eq!(first.len(), 1, "nothing was left to page out");
    assert_eq!(done, first[0]);

    // A page booked far ahead, then a flush at zero whose own page-out
    // finishes long before it.
    write_all(&mut f, 100..100 + WATERMARK, far());
    let done = f.flush(SimTime::ZERO).unwrap();
    let finishes = program_finishes(&tracer);
    assert_eq!(
        finishes.len(),
        2,
        "one page at `far`, one of the flush's own"
    );
    assert!(finishes[1] < finishes[0]);
    assert_eq!(done, finishes[0]);
}

/// A power cut ends every program it does not tear: the recovered
/// device acknowledges a page-out at admission, however late the
/// pre-cut programs would have finished.
#[test]
fn spor_frees_every_programming_slot() {
    let page_out_after = |cut: bool| {
        let mut f = small_ftl(512);
        write_all(&mut f, 0..WATERMARK - 1, SimTime::ZERO);
        // Both write points program at `far`; eight units stay buffered.
        write_all(&mut f, WATERMARK - 1..WATERMARK + UPP, far());
        if cut {
            f.flash_mut().cut_power();
            f.flash_mut().power_on();
            f.rebuild_after_power_loss().unwrap();
        }
        let acks = write_all(&mut f, WATERMARK + UPP..WATERMARK + 2 * UPP, SimTime::ZERO);
        f.check_invariants().unwrap();
        *acks.last().unwrap()
    };
    assert!(page_out_after(false) > far(), "both slots held past `far`");
    assert_eq!(page_out_after(true), SimTime::ZERO);
}

#[test]
fn a_page_out_onto_a_grown_bad_block_holds_no_slot() {
    let mut f = small_ftl(512);
    // One page programming; lpns 8..16 buffered.
    write_all(&mut f, 0..WATERMARK, SimTime::ZERO);
    f.flash_mut().arm_faults(FaultPlan::new(FaultConfig {
        grown_bad_block: 1.0,
        ..FaultConfig::default()
    }));
    assert_eq!(f.drain_one_page(SimTime::ZERO).unwrap(), SimTime::ZERO);
    assert_eq!(f.counters().get(Counter::FtlBlocksRetired), 1);
    assert_eq!(f.buffer.queued() as u64, UPP, "the batch is queued again");
    f.flash_mut()
        .arm_faults(FaultPlan::new(FaultConfig::default()));
    // Had the failed page-out taken the second slot, this page-out would
    // wait for the first program.
    let acks = write_all(&mut f, WATERMARK..WATERMARK + UPP, SimTime::ZERO);
    assert!(acks.iter().all(|&t| t == SimTime::ZERO), "{acks:?}");
    // Now both slots are held.
    let acks = write_all(&mut f, WATERMARK + UPP..WATERMARK + 2 * UPP, SimTime::ZERO);
    assert!(acks.last().unwrap() > &SimTime::ZERO);
    f.check_invariants().unwrap();
}
