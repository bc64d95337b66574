//! `#[cfg(test)] mod slot_tests` of `ftl.rs`: the write buffer's
//! programming slots — when a write is acknowledged, what `flush` waits
//! for, and what a power cut and a grown bad block do to the slots.

use std::ops::Range;

use super::tests::{single_die_ftl, small_ftl, w};
use super::*;
use checkin_flash::{FaultConfig, FaultPlan, FlashTiming};

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
    let drained = f.drain_one_page(SimTime::ZERO, PageOut::MayCollect);
    assert_eq!(drained.unwrap(), SimTime::ZERO);
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

// ---- foreground reads and the slot window ----------------------------
//
// One die, one write point, one 4 KiB unit to the page and a one-unit
// watermark: every write pages its unit out at once. Lpn 0 is on flash
// long before `far()`; lpn 1 pages out at `far()` and programs from
// `far() + xfer` for tPROG, holding the one programming slot.

fn paging_ftl() -> Ftl {
    let mut f = single_die_ftl(FtlConfig {
        write_buffer_units: 1,
        ..FtlConfig::default()
    });
    write_all(&mut f, 0..1, SimTime::ZERO);
    write_all(&mut f, 1..2, far());
    f
}

/// 100 us into lpn 1's program.
fn during_the_program() -> SimTime {
    far() + SimDuration::from_micros(100)
}

/// When lpn 1's program finishes as first booked.
fn first_finish() -> SimTime {
    let t = FlashTiming::mlc();
    far() + t.transfer_time(4096) + t.t_program
}

#[test]
fn a_moved_finish_delays_the_next_full_window_admission() {
    let t = FlashTiming::mlc();
    let next_ack = |read_first: bool| {
        let mut f = paging_ftl();
        if read_first {
            let (_, done) = f.read(Lpn(0), during_the_program()).unwrap();
            assert_eq!(
                done,
                during_the_program() + t.t_suspend + t.t_read + t.transfer_time(4096)
            );
        }
        let ack = write_all(&mut f, 2..3, far())[0];
        f.check_invariants().unwrap();
        ack
    };
    assert_eq!(next_ack(false), first_finish());
    assert_eq!(next_ack(true), first_finish() + t.t_suspend + t.t_read);
}

#[test]
fn a_read_waits_for_a_program_whose_finish_was_handed_out() {
    let t = FlashTiming::mlc();
    let mut f = paging_ftl();
    // `flush` acknowledges everything at the program's finish.
    assert_eq!(f.flush(far()).unwrap(), first_finish());
    let (_, done) = f.read(Lpn(0), during_the_program()).unwrap();
    assert_eq!(done, first_finish() + t.t_read + t.transfer_time(4096));
    assert_eq!(f.flash().counters().get(Counter::FlashProgramSuspends), 0);
}

#[test]
fn a_background_read_waits_for_the_program() {
    let t = FlashTiming::mlc();
    let mut f = paging_ftl();
    let (_, done) = f
        .in_phase(OpPhase::Gc, |f| f.read(Lpn(0), during_the_program()))
        .unwrap();
    assert_eq!(done, first_finish() + t.t_read + t.transfer_time(4096));
    assert_eq!(f.flash().counters().get(Counter::FlashProgramSuspends), 0);
}

#[test]
fn a_unit_still_programming_is_read_from_the_buffer_and_still_verified() {
    let mut f = paging_ftl();
    let (p, done) = f.read(Lpn(1), during_the_program()).unwrap();
    assert_eq!((p.fragments[0].key, done), (1, during_the_program()));
    assert_eq!(f.counters().get(Counter::FtlProgrammingPageReads), 1);
    assert_eq!(f.flash().counters().total(Total::FlashRead), 0);
    // What landed is checked as on any read: rot is caught and the copy
    // quarantined.
    let ppn = f.flash_page_of(Lpn(1)).unwrap();
    assert!(f.flash_mut().sabotage_corrupt_unit(ppn, 0, 1 << 7));
    let err = f.read(Lpn(1), during_the_program()).unwrap_err();
    assert!(err.is_integrity(), "{err}");
    assert_eq!(f.counters().get(Counter::FtlIntegrityQuarantined), 1);
}
