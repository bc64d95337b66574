//! Layer probes (T3): each layer built standalone at one mapping unit,
//! its public entry points called in batches under one `Instant` pair.
//! Unit costs on the host clock, independent of any workload's op mix.

use std::hint::black_box;
use std::time::{Duration, Instant};

use checkin_core::{JournalManager, JournalOptions, Layout, LOG_HEADER_BYTES};
use checkin_flash::{
    BlockId, FaultConfig, FaultPlan, FlashArray, FlashGeometry, FlashTiming, OobEntry, OobKind,
    PageContent, Ppn, UnitPayload,
};
use checkin_ftl::{Ftl, FtlConfig, GcTrigger, Lpn, UnitWrite};
use checkin_sim::{EventQueue, LatencyRecorder, ResourcePool, SimDuration, SimRng, SimTime};
use checkin_ssd::{
    CheckpointMode, CowEntry, ReadRequest, Ssd, SsdTiming, WriteContent, WriteRequest,
};
use checkin_workload::{RecordSizes, WorkloadSpec};

use crate::catalog::Clock;
use crate::doc::Metrics;
use crate::stats;
use crate::workloads::{CLIENTS, GC_GEOMETRY, PAPER_GEOMETRY};

/// Calls under one `Instant` pair.
const BATCH: usize = 1024;
/// Every probe runs at least this long …
const MIN_TIME: Duration = Duration::from_millis(200);
/// … and at least this many batches; the median batch is reported.
const MIN_BATCHES: usize = 10;
/// Stops a probe whose fixture would otherwise run out of room.
const MAX_BATCHES: usize = 600;
/// Logical units the FTL-level probes cycle over.
const SPAN: u64 = 1 << 16;

/// Median nanoseconds per call. `prepare` runs untimed before every
/// batch of `calls` timed calls.
fn probe<S>(
    state: &mut S,
    calls: usize,
    mut prepare: impl FnMut(&mut S),
    mut call: impl FnMut(&mut S, usize),
) -> f64 {
    let started = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < MIN_BATCHES
        || (started.elapsed() < MIN_TIME && per_call.len() < MAX_BATCHES)
    {
        prepare(state);
        let t = Instant::now();
        for i in 0..calls {
            call(state, i);
        }
        per_call.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    stats::median(&per_call)
}

fn put(m: &mut Metrics, name: &str, value: f64) {
    m.exact(name, Clock::Host, value);
}

/// One write point per die, and the GC thresholds of the workload that
/// uses the geometry.
fn ftl_config(unit_bytes: u32, geometry: &FlashGeometry) -> FtlConfig {
    let pressured = *geometry == GC_GEOMETRY;
    FtlConfig {
        unit_bytes,
        write_points: geometry.total_dies() as u32,
        gc_threshold_blocks: if pressured { 6 } else { 8 },
        gc_soft_threshold_blocks: if pressured { 20 } else { 48 },
        ..FtlConfig::default()
    }
}

fn new_ftl(unit_bytes: u32, geometry: FlashGeometry) -> Ftl {
    let flash = FlashArray::new(geometry, FlashTiming::mlc());
    Ftl::new(flash, ftl_config(unit_bytes, &geometry)).expect("probe FTL configuration")
}

fn unit_write(lpn: u64, version: u64, unit_bytes: u32) -> UnitWrite {
    UnitWrite {
        lpn: Lpn(lpn),
        payload: UnitPayload::single(lpn, version, unit_bytes),
        whole_unit: true,
    }
}

/// An FTL with `SPAN` units written and flushed to flash — armed, when
/// the mapping log should be persisted as on a system that expects to
/// lose power.
fn written_ftl(unit_bytes: u32, armed: bool) -> Ftl {
    let mut ftl = new_ftl(unit_bytes, PAPER_GEOMETRY);
    if armed {
        ftl.flash_mut()
            .arm_faults(FaultPlan::new(FaultConfig::default()));
    }
    for lpn in 0..SPAN {
        ftl.write(unit_write(lpn, 1, unit_bytes), OobKind::Data, SimTime::ZERO)
            .expect("probe fill");
    }
    ftl.flush(SimTime::ZERO).expect("probe flush");
    ftl
}

fn workload_and_sim(m: &mut Metrics) {
    let mut gen = WorkloadSpec::paper_default().generator();
    put(
        m,
        "workload.next_op_ns",
        probe(
            &mut gen,
            BATCH,
            |_| {},
            |g, _| {
                black_box(g.next_op());
            },
        ),
    );

    // The system's loop: one event per client plus the checkpoint tick.
    let mut events: EventQueue<u32> = EventQueue::with_capacity(CLIENTS as usize + 1);
    for client in 0..=CLIENTS {
        events.schedule(SimTime::from_nanos(u64::from(client) * 7_919), client);
    }
    put(
        m,
        "sim.event_cycle_ns",
        probe(
            &mut events,
            BATCH,
            |_| {},
            |q, _| {
                if let Some((now, client)) = q.pop() {
                    let think = SimDuration::from_nanos(250_000 + u64::from(client) * 1_013);
                    q.schedule(now + think, client);
                }
            },
        ),
    );

    let mut pool = (
        ResourcePool::new("host-core", CLIENTS as usize),
        SimTime::ZERO,
    );
    put(
        m,
        "sim.resource_schedule_ns",
        probe(
            &mut pool,
            BATCH,
            |_| {},
            |(pool, now), _| {
                *now += SimDuration::from_nanos(8_000);
                black_box(pool.schedule(*now, SimDuration::from_micros(250)));
            },
        ),
    );

    let mut recorder = (LatencyRecorder::new(), SimRng::seed_from(3));
    put(
        m,
        "sim.latency_record_ns",
        probe(
            &mut recorder,
            BATCH,
            |_| {},
            |(rec, rng), _| {
                rec.record(SimDuration::from_nanos(200_000 + rng.gen_range(20_000_000)));
            },
        ),
    );
}

fn journal(m: &mut Metrics, unit_bytes: u32) {
    let sizes = RecordSizes::paper_default();
    let layout = Layout::new(
        20_000,
        sizes.max_bytes() + LOG_HEADER_BYTES,
        unit_bytes,
        1 << 16,
    );
    for (name, options) in [
        ("journal.append_ns", JournalOptions::check_in(0.7)),
        ("journal.append_raw_ns", JournalOptions::conventional()),
    ] {
        let mut state = (
            JournalManager::with_options(layout, options),
            SimRng::seed_from(21),
            0u64,
        );
        let sizes = sizes.clone();
        put(
            m,
            name,
            probe(
                &mut state,
                BATCH,
                |_| {},
                |(jm, rng, version), _| {
                    *version += 1;
                    let key = rng.gen_range(20_000);
                    let bytes = sizes.sample(rng);
                    if jm.append(key, *version, bytes).is_err() {
                        // Zone full: swap halves and recycle the retiring
                        // zone's entry buffer, as the engine does.
                        let zone = jm.begin_checkpoint();
                        jm.recycle_zone(zone);
                    }
                },
            ),
        );
    }
}

/// A device plus 64 checkpoint entries made by real journal writes on
/// the paper's 512 B unit, where one-sector logs qualify for remapping.
fn checkpoint_fixture() -> (Ssd, Vec<CowEntry>) {
    let mut ssd = Ssd::new(new_ftl(512, PAPER_GEOMETRY), SsdTiming::paper_default());
    let layout = Layout::new(1_024, 4096, 512, 1 << 14);
    let mut jm = JournalManager::with_options(layout, JournalOptions::check_in(0.7));
    let mut t = SimTime::ZERO;
    for key in 0..64u64 {
        let req = jm.append(key, 1, 512).expect("probe journal append");
        t = ssd
            .write(&req, OobKind::Journal, t)
            .expect("probe journal write");
    }
    let zone = jm.begin_checkpoint();
    let entries = zone
        .entries
        .iter()
        .map(|(key, e)| CowEntry {
            src_lba: e.journal_lba,
            dst_lba: layout.home_lba(*key),
            sectors: e.sectors,
            dst_sectors: e.sectors,
            key: *key,
            merged: e.merged,
        })
        .collect();
    (ssd, entries)
}

fn checkpoint(m: &mut Metrics) {
    for (name, mode) in [
        ("checkpoint.remap_ns_per_entry", CheckpointMode::Remap),
        ("checkpoint.copy_ns_per_entry", CheckpointMode::Copy),
    ] {
        let mut fixture = checkpoint_fixture();
        let per_command = probe(
            &mut fixture,
            64,
            |_| {},
            |(ssd, entries), _| {
                black_box(
                    ssd.checkpoint(entries, mode, SimTime::ZERO)
                        .expect("probe checkpoint"),
                );
            },
        );
        put(m, name, per_command / 64.0);
    }
}

fn ssd(m: &mut Metrics, unit_bytes: u32) {
    const KEYS: u64 = 1 << 14;
    const SLOT: u64 = 8;
    let request = |key: u64, version: u64| WriteRequest {
        lba: 64 + key * SLOT,
        sectors: 2,
        content: WriteContent::Record {
            key,
            version,
            bytes: 1_000,
        },
    };
    let mut state = (
        Ssd::new(
            new_ftl(unit_bytes, PAPER_GEOMETRY),
            SsdTiming::paper_default(),
        ),
        0u64,
        Vec::new(),
    );
    put(
        m,
        "ssd.write_ns",
        probe(
            &mut state,
            BATCH,
            |_| {},
            |(ssd, n, _), _| {
                *n += 1;
                black_box(
                    ssd.write(
                        &request(*n % KEYS, *n / KEYS + 1),
                        OobKind::Data,
                        SimTime::ZERO,
                    )
                    .expect("probe write"),
                );
            },
        ),
    );
    put(
        m,
        "ssd.read_ns",
        probe(
            &mut state,
            BATCH,
            |_| {},
            |(ssd, n, fragments), _| {
                *n += 1;
                fragments.clear();
                let req = ReadRequest {
                    lba: 64 + (*n % KEYS) * SLOT,
                    sectors: 2,
                    key: Some(*n % KEYS),
                };
                black_box(
                    ssd.read_into(&req, SimTime::ZERO, fragments)
                        .expect("probe read"),
                );
            },
        ),
    );
    put(
        m,
        "ssd.dealloc_ns",
        probe(
            &mut state,
            BATCH,
            |(ssd, n, _)| {
                // What is trimmed must be mapped again first.
                for key in 0..BATCH as u64 {
                    *n += 1;
                    ssd.write(&request(key, *n), OobKind::Data, SimTime::ZERO)
                        .expect("probe rewrite");
                }
            },
            |(ssd, _, _), i| {
                black_box(ssd.deallocate(64 + i as u64 * SLOT, SLOT as u32, SimTime::ZERO));
            },
        ),
    );
}

fn ftl(m: &mut Metrics, unit_bytes: u32) {
    let mut flash = None;
    let per_new = probe(
        &mut flash,
        1,
        |flash| *flash = Some(FlashArray::new(PAPER_GEOMETRY, FlashTiming::mlc())),
        |flash, _| {
            let array = flash.take().expect("prepared");
            black_box(Ftl::new(array, ftl_config(unit_bytes, &PAPER_GEOMETRY)).expect("probe FTL"));
        },
    );
    put(m, "ftl.new_ms", per_new / 1e6);

    let mut state = (new_ftl(unit_bytes, PAPER_GEOMETRY), 0u64);
    put(
        m,
        "ftl.write_ns",
        probe(
            &mut state,
            BATCH,
            |_| {},
            |(ftl, n), _| {
                *n += 1;
                black_box(
                    ftl.write(
                        unit_write(*n % SPAN, *n / SPAN + 1, unit_bytes),
                        OobKind::Journal,
                        SimTime::ZERO,
                    )
                    .expect("probe unit write"),
                );
            },
        ),
    );

    let mut state = (written_ftl(unit_bytes, false), 0u64);
    put(
        m,
        "ftl.read_ns",
        probe(
            &mut state,
            BATCH,
            |_| {},
            |(ftl, n), _| {
                *n = (*n + 7) % SPAN;
                black_box(ftl.read(Lpn(*n), SimTime::ZERO).expect("probe unit read"));
            },
        ),
    );
    put(
        m,
        "ftl.remap_ns",
        probe(
            &mut state,
            BATCH,
            |_| {},
            |(ftl, n), _| {
                *n = (*n + 7) % SPAN;
                ftl.remap(Lpn(SPAN + *n), Lpn(*n)).expect("probe remap");
            },
        ),
    );
    // The journal-trim pattern: units that reached flash, then unmapped.
    put(
        m,
        "ftl.dealloc_ns",
        probe(
            &mut state,
            BATCH,
            |(ftl, n)| {
                *n += 1;
                for i in 0..BATCH as u64 {
                    ftl.write(
                        unit_write(2 * SPAN + i, *n, unit_bytes),
                        OobKind::Journal,
                        SimTime::ZERO,
                    )
                    .expect("probe refill");
                }
                ftl.flush(SimTime::ZERO).expect("probe flush");
            },
            |(ftl, _), i| {
                black_box(ftl.deallocate(Lpn(2 * SPAN + i as u64)));
            },
        ),
    );

    // GC on the 48 MiB device: 60 % of it live, and before every four
    // rounds random overwrites worth about one block, so closed blocks
    // always hold invalid units and the free pool stays well above the
    // foreground-GC threshold.
    let mut gc = new_ftl(unit_bytes, GC_GEOMETRY);
    let live = GC_GEOMETRY.capacity_bytes() / u64::from(unit_bytes) * 6 / 10;
    for lpn in 0..live {
        gc.write(unit_write(lpn, 1, unit_bytes), OobKind::Data, SimTime::ZERO)
            .expect("probe GC fill");
    }
    let mut state = (gc, SimRng::seed_from(9), 1u64);
    let rounds = 4;
    let per_round = probe(
        &mut state,
        rounds,
        |(ftl, rng, version)| {
            *version += 1;
            for _ in 0..live / 64 {
                ftl.write(
                    unit_write(rng.gen_range(live), *version, unit_bytes),
                    OobKind::Data,
                    SimTime::ZERO,
                )
                .expect("probe GC overwrite");
            }
        },
        |(ftl, _, _), _| {
            black_box(
                ftl.run_gc_round(SimTime::ZERO, GcTrigger::Background)
                    .expect("probe GC round"),
            );
        },
    );
    put(m, "ftl.gc_round_us", per_round / 1e3);

    let mut armed = written_ftl(unit_bytes, true);
    let per_rebuild = probe(
        &mut armed,
        1,
        |ftl| ftl.flash_mut().cut_power(),
        |ftl, _| {
            ftl.flash_mut().power_on();
            black_box(ftl.rebuild_after_power_loss().expect("probe rebuild"));
        },
    );
    put(m, "ftl.rebuild_ms", per_rebuild / 1e6);
}

fn flash(m: &mut Metrics, unit_bytes: u32) {
    let per_new = probe(
        &mut (),
        1,
        |_| {},
        |_, _| {
            black_box(FlashArray::new(PAPER_GEOMETRY, FlashTiming::mlc()));
        },
    );
    put(m, "flash.new_ms", per_new / 1e6);

    let units = (PAPER_GEOMETRY.page_bytes / unit_bytes) as usize;
    let page = |ppn: u64| {
        let mut content = PageContent::empty(units);
        for (i, unit) in content.units.iter_mut().enumerate() {
            let lpn = ppn * units as u64 + i as u64;
            *unit = Some(UnitPayload::single(lpn, 1, unit_bytes));
            content.oob.push(OobEntry {
                lpn,
                sequence: lpn,
                kind: OobKind::Data,
            });
        }
        content
    };
    // Pages are programmed in order through fresh blocks; MAX_BATCHES
    // batches fit the array, so nothing needs erasing on the way.
    let mut state = (
        FlashArray::new(PAPER_GEOMETRY, FlashTiming::mlc()),
        0u64,
        Vec::new(),
    );
    assert!((MAX_BATCHES * BATCH) as u64 <= PAPER_GEOMETRY.total_pages());
    put(
        m,
        "flash.program_ns",
        probe(
            &mut state,
            BATCH,
            |(_, next, pages)| {
                *pages = (0..BATCH as u64).map(|i| page(*next + i)).collect();
            },
            |(array, next, pages), i| {
                let content = std::mem::take(&mut pages[i]);
                black_box(
                    array
                        .program(Ppn(*next), content, SimTime::ZERO)
                        .expect("probe program"),
                );
                *next += 1;
            },
        ),
    );
    let programmed = state.1;
    put(
        m,
        "flash.read_ns",
        probe(
            &mut state,
            BATCH,
            |_| {},
            |(array, n, _), _| {
                *n = (*n + 13) % programmed;
                black_box(
                    array
                        .schedule_read(Ppn(*n), SimTime::ZERO)
                        .expect("probe read"),
                );
                black_box(array.read(Ppn(*n)));
            },
        ),
    );

    let mut state = (FlashArray::new(PAPER_GEOMETRY, FlashTiming::mlc()), 0u64);
    put(
        m,
        "flash.erase_ns",
        probe(
            &mut state,
            BATCH,
            |_| {},
            |(array, n), _| {
                *n = (*n + 1) % PAPER_GEOMETRY.total_blocks();
                black_box(
                    array
                        .erase(BlockId(*n), SimTime::ZERO)
                        .expect("probe erase"),
                );
            },
        ),
    );
}

/// Every probe at `unit_bytes` (512 for the remap strategies, 4096 for
/// the copy ones). The two checkpoint probes always use 512 B: a 4 KiB
/// unit demotes every entry to the copy path.
pub fn run(unit_bytes: u32) -> Metrics {
    let mut m = Metrics::default();
    workload_and_sim(&mut m);
    journal(&mut m, unit_bytes);
    checkpoint(&mut m);
    ssd(&mut m, unit_bytes);
    ftl(&mut m, unit_bytes);
    flash(&mut m, unit_bytes);
    m
}
