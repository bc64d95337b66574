//! Property tests driving the FTL directly with random operation soups,
//! mirrored against a shadow model. Randomized via `checkin-testkit`
//! (deterministic seeds, offline-safe — no external crates).

use std::collections::{BTreeMap, HashMap};

use checkin_flash::{
    BlockId, FlashArray, FlashGeometry, FlashTiming, Fragment, OobKind, Ppn, UnitPayload,
};
use checkin_ftl::{
    Ftl, FtlConfig, FtlError, GcTrigger, Lpn, MapCacheModel, SensedPages, UnitWrite,
};
use checkin_sim::{Counter, SimDuration, SimTime, Total, TraceLayer, Tracer};
use checkin_testkit::{check, soup, TestRng};

const LPNS: u64 = 192;

#[derive(Debug, Clone)]
enum Op {
    /// Whole-unit write of a fresh version.
    Write { lpn: u8 },
    /// Remap dst to alias src's copy.
    Remap { dst: u8, src: u8 },
    /// Trim one unit.
    Deallocate { lpn: u8 },
    /// Force the buffer out to flash.
    Flush,
    /// One GC round (if a victim exists).
    Gc,
    /// One wear-leveling round.
    WearLevel,
}

fn op(rng: &mut TestRng) -> Op {
    match rng.weighted(&[6, 2, 2, 1, 1, 1]) {
        0 => Op::Write { lpn: rng.any_u8() },
        1 => Op::Remap {
            dst: rng.any_u8(),
            src: rng.any_u8(),
        },
        2 => Op::Deallocate { lpn: rng.any_u8() },
        3 => Op::Flush,
        4 => Op::Gc,
        _ => Op::WearLevel,
    }
}

fn build() -> Ftl {
    build_with_unit(512)
}

fn build_with_unit(unit_bytes: u32) -> Ftl {
    build_caching(unit_bytes, None)
}

fn build_caching(unit_bytes: u32, map_cache_entries: Option<u64>) -> Ftl {
    let flash = FlashArray::new(FlashGeometry::small(), FlashTiming::mlc());
    Ftl::new(
        flash,
        FtlConfig {
            unit_bytes,
            map_cache_entries,
            write_points: 2,
            gc_threshold_blocks: 4,
            gc_soft_threshold_blocks: 8,
            write_buffer_units: 16,
            wear_leveling_threshold: Some(8),
            ..FtlConfig::default()
        },
    )
    .unwrap()
}

/// Runs the soup, verifying against the shadow (lpn -> (key, version)
/// of the expected current copy) and the FTL's own invariants after
/// every op.
fn run_ops(ops: &[Op]) {
    run_ops_on(build(), ops);
}

/// [`run_ops`] on a given device, which it hands back.
fn run_ops_on(mut ftl: Ftl, ops: &[Op]) -> Ftl {
    let mut shadow: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut next_version = 1u64;
    let t = SimTime::ZERO;

    for op in ops {
        match op {
            Op::Write { lpn } => {
                let lpn = *lpn as u64 % LPNS;
                let version = next_version;
                next_version += 1;
                ftl.write(
                    UnitWrite {
                        lpn: Lpn(lpn),
                        payload: UnitPayload::single(lpn, version, ftl.unit_bytes()),
                        whole_unit: true,
                    },
                    OobKind::Data,
                    t,
                )
                .unwrap();
                shadow.insert(lpn, (lpn, version));
            }
            Op::Remap { dst, src } => {
                let dst = *dst as u64 % LPNS;
                let src = *src as u64 % LPNS;
                match ftl.remap(Lpn(dst), Lpn(src)) {
                    Ok(()) => {
                        let copy = shadow.get(&src).copied();
                        assert!(copy.is_some(), "remap of unmapped src succeeded");
                        shadow.insert(dst, copy.unwrap());
                    }
                    Err(FtlError::Unmapped(_)) => {
                        assert!(!shadow.contains_key(&src));
                    }
                    Err(e) => panic!("{e}"),
                }
            }
            Op::Deallocate { lpn } => {
                let lpn = *lpn as u64 % LPNS;
                let existed = ftl.deallocate(Lpn(lpn));
                assert_eq!(existed, shadow.remove(&lpn).is_some());
            }
            Op::Flush => {
                ftl.flush(t).unwrap();
            }
            Op::Gc => {
                ftl.run_gc_round(t, GcTrigger::Background).unwrap();
            }
            Op::WearLevel => {
                ftl.run_wear_leveling_round(t).unwrap();
            }
        }
        if let Err(e) = ftl.check_invariants() {
            panic!("after {op:?}: {e}");
        }
    }

    // Final sweep: every shadow entry readable with the right content.
    for (&lpn, &(key, version)) in &shadow {
        let (payload, _) = ftl.read(Lpn(lpn), t).unwrap();
        let f = payload
            .fragments
            .iter()
            .find(|f| f.key == key)
            .unwrap_or_else(|| panic!("lpn {lpn}: key {key} missing"));
        assert_eq!(f.version, version, "lpn {lpn}");
    }
    // And nothing else is mapped.
    for lpn in 0..LPNS {
        assert_eq!(
            ftl.is_mapped(Lpn(lpn)),
            shadow.contains_key(&lpn),
            "mapping presence mismatch at {lpn}"
        );
    }
    ftl
}

/// The loop `Ssd::read_into` ran before the span read existed: one
/// `Ftl::read` — one lookup, one sense — per unit, never-written units
/// skipped, done when the slowest unit is.
fn read_unit_by_unit(
    ftl: &mut Ftl,
    first: u64,
    units: u64,
    at: SimTime,
    out: &mut Vec<Fragment>,
) -> SimTime {
    let mut done = at;
    for lpn in first..first + units {
        match ftl.read(Lpn(lpn), at) {
            Ok((payload, finish)) => {
                out.extend(payload.fragments.iter().copied());
                done = done.max(finish);
            }
            Err(FtlError::Unmapped(_)) => {}
            Err(e) => panic!("lpn {lpn}: {e}"),
        }
    }
    done
}

/// One span read on an idle device: the flash pages it may sense, each
/// exactly once; what it must return; how early it may finish. Returns
/// how many senses the span saved over one per flash-resident unit.
fn check_span(ftl: &mut Ftl, first: u64, units: u64, at: SimTime) -> u64 {
    let geometry = *ftl.flash().geometry();
    let timing = *ftl.flash().timing();
    // Distinct pages under the span's flash-resident units, per die.
    let mut pages_on_die: BTreeMap<u64, std::collections::BTreeSet<_>> = BTreeMap::new();
    let mut on_flash = 0u64;
    for lpn in first..first + units {
        if let Some(page) = ftl.flash_page_of(Lpn(lpn)) {
            on_flash += 1;
            let die = geometry.die_of_block(geometry.block_of(page));
            pages_on_die.entry(die).or_default().insert(page);
        }
    }
    let pages: u64 = pages_on_die.values().map(|p| p.len() as u64).sum();
    let deepest = pages_on_die.values().map(|p| p.len() as u64).max();

    let flash_reads = |ftl: &Ftl| ftl.flash().counters().total(Total::FlashRead);
    let reads_before = flash_reads(ftl);
    let mut got = Vec::new();
    let finish = ftl
        .read_span_into(
            Lpn(first),
            units,
            at,
            None,
            &mut SensedPages::default(),
            &mut got,
        )
        .unwrap();
    assert_eq!(
        flash_reads(ftl) - reads_before,
        pages,
        "span {first}+{units}: one sense per distinct page"
    );

    // No unit completes before its page's window: the senses of one die
    // follow one another, and the last page still crosses the channel.
    let page_out = timing.transfer_time(u64::from(geometry.page_bytes));
    match deepest {
        None => assert_eq!(finish, at, "nothing on flash, nothing to wait for"),
        Some(n) => {
            assert!(finish >= at + timing.t_read * n + page_out);
            assert!(finish <= at + (timing.t_read + page_out) * pages);
        }
    }

    let mut want = Vec::new();
    read_unit_by_unit(ftl, first, units, finish, &mut want);
    assert_eq!(got, want, "span {first}+{units}");
    on_flash - pages
}

/// After a soup of writes, remaps, trims, flushes and GC, random spans —
/// aliased units, units still buffered, holes — cost one flash read per
/// distinct page and return what a unit-by-unit walk returns.
#[test]
fn a_span_senses_each_page_once_and_reads_what_a_unit_walk_reads() {
    let mut saved = 0u64;
    check("a_span_senses_each_page_once", 48, |rng| {
        let len = rng.range_usize(50, 1_499);
        let mut ftl = run_ops_on(build(), &soup(rng, len, op));
        // Long after the soup's last booking: the dies are idle, so the
        // bounds on the finish instant are the span's own.
        let mut at = SimTime::ZERO + SimDuration::from_millis(60_000);
        for _ in 0..24 {
            let first = rng.below(LPNS);
            let units = rng.range_u64(1, 24).min(LPNS - first);
            saved += check_span(&mut ftl, first, units, at);
            at += SimDuration::from_millis(1_000);
        }
        ftl.check_invariants().unwrap();
    });
    assert!(saved > 1_000, "the spans shared only {saved} senses");
}

/// With one unit per page there is nothing to share: the span read
/// finishes at the very instant the per-unit loop it replaced does, and
/// books the dies and channels the same. (Nothing but an alias, that is
/// — two lpns remapped onto one unit share its page at any unit size,
/// and the span is then rightly one sense ahead — so this soup leaves
/// the remaps out.)
#[test]
fn at_one_unit_per_page_a_span_is_the_per_unit_loop() {
    check(
        "at_one_unit_per_page_a_span_is_the_per_unit_loop",
        24,
        |rng| {
            let len = rng.range_usize(50, 799);
            let mut ops = soup(rng, len, op);
            ops.retain(|op| !matches!(op, Op::Remap { .. }));
            let mut spanned = run_ops_on(build_with_unit(4096), &ops);
            let mut looped = run_ops_on(build_with_unit(4096), &ops);
            // Not idle on purpose: both devices carry the soup's backlog.
            let mut at = SimTime::ZERO;
            for _ in 0..24 {
                let first = rng.below(LPNS);
                let units = rng.range_u64(1, 24).min(LPNS - first);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let finish = spanned
                    .read_span_into(
                        Lpn(first),
                        units,
                        at,
                        None,
                        &mut SensedPages::default(),
                        &mut got,
                    )
                    .unwrap();
                assert_eq!(
                    finish,
                    read_unit_by_unit(&mut looped, first, units, at, &mut want)
                );
                assert_eq!(got, want);
                at += SimDuration::from_micros(rng.range_u64(0, 400));
            }
            let busy = |ftl: &Ftl| ftl.flash().die_busy_time();
            assert_eq!(busy(&spanned), busy(&looped));
            assert_eq!(
                spanned.flash().counters().total(Total::FlashRead),
                looped.flash().counters().total(Total::FlashRead)
            );
        },
    );
}

/// A command's mapping walk costs between a hit and a miss per entry, and
/// the miss is per segment: cut at a segment boundary, the two halves
/// cost what the whole walk does.
#[test]
fn a_mapping_walk_misses_once_per_segment() {
    const SEG: u64 = MapCacheModel::SEGMENT_ENTRIES;
    let walk = |ftl: &Ftl, first: u64, units: u64| {
        let segments = MapCacheModel::segments(Lpn(first), units);
        ftl.map_walk_cost(units, segments.end - segments.start)
    };
    let mut cut = 0u64;
    check("a_mapping_walk_misses_once_per_segment", 48, |rng| {
        let len = rng.range_usize(0, 600);
        let cache = rng.range_u64(1, 2 * LPNS);
        let ftl = run_ops_on(build_caching(512, Some(cache)), &soup(rng, len, op));
        let map = *ftl.map_cache();
        let (miss, hit) = (map.access_cost(ftl.live_entries()), map.hit_cost);
        for _ in 0..32 {
            let first = rng.below(64 * SEG);
            let units = rng.range_u64(1, 8 * SEG);
            let cost = walk(&ftl, first, units);
            assert!(
                hit * units <= cost && cost <= miss * units,
                "{first}+{units}"
            );
            // Every segment boundary strictly inside the walk.
            let end = first + units;
            for at in (first / SEG + 1..)
                .map(|s| s * SEG)
                .take_while(|&at| at < end)
            {
                assert_eq!(
                    cost,
                    walk(&ftl, first, at - first) + walk(&ftl, at, end - at),
                    "{first}+{units} cut at {at}"
                );
                cut += 1;
            }
        }
    });
    assert!(cut > 1_000, "only {cut} cuts");
}

#[test]
fn ftl_matches_shadow_under_random_ops() {
    check("ftl_matches_shadow_under_random_ops", 64, |rng| {
        let len = rng.range_usize(1, 399);
        let ops = soup(rng, len, op);
        run_ops(&ops);
    });
}

/// Long soups hit GC and wear leveling organically.
#[test]
fn ftl_matches_shadow_under_long_churn() {
    check("ftl_matches_shadow_under_long_churn", 8, |rng| {
        let len = rng.range_usize(2_000, 2_999);
        let ops = soup(rng, len, op);
        run_ops(&ops);
    });
}

/// Regression: when a write point needed a block and the allocator ran
/// foreground GC first, GC's own page-outs could open a block on that
/// same write point; the allocator then popped a second block over it
/// and the first stayed Active forever — never closed, never a victim.
/// On this 48 MiB device the leak ate 66-79 of 96 blocks and the device
/// reported a spurious `OutOfSpace` between writes 136k and 166k.
#[test]
fn foreground_gc_never_orphans_an_active_block() {
    const WRITES: u64 = 400_000;
    for write_points in [1, 4] {
        let geometry = FlashGeometry {
            channels: 2,
            dies_per_channel: 2,
            planes_per_die: 1,
            blocks_per_plane: 24,
            pages_per_block: 128,
            page_bytes: 4096,
        };
        let config = FtlConfig {
            unit_bytes: 512,
            write_points,
            gc_threshold_blocks: 6,
            gc_soft_threshold_blocks: 20,
            ..FtlConfig::default()
        };
        let lpns = geometry.total_pages() * 8 * 6 / 10;
        let mut ftl = Ftl::new(FlashArray::new(geometry, FlashTiming::mlc()), config).unwrap();
        let mut rng = TestRng::seed_from(0x0EFA_17ED);
        for i in 0..WRITES {
            let lpn = rng.below(lpns);
            let w = UnitWrite {
                lpn: Lpn(lpn),
                payload: UnitPayload::single(lpn, i, 512),
                whole_unit: true,
            };
            if let Err(e) = ftl.write(w, OobKind::Data, SimTime::ZERO) {
                panic!("{write_points} write points, write {i}: {e}");
            }
            if i % 50_000 == 0 {
                ftl.check_invariants().unwrap();
            }
        }
        ftl.check_invariants().unwrap();
    }
}

/// Who issues a write in [`a_write_waits_for_a_programming_slot_not_for_a_program`]:
/// a client, or a checkpoint-like chain that books its writes back to
/// back and so runs ahead of the clients.
#[derive(Debug, Clone, Copy)]
enum Issuer {
    /// The next client write: `jitter` after the last client ack.
    Client,
    /// A client that issues `jitter` *before* the last client ack (the
    /// closed loop's earliest waiting thread).
    LateClient,
    /// The next chained write: `jitter` after the chain's last ack, and
    /// never before the clients.
    Chain,
}

/// A whole-unit write of `lpn` by `issuer`, `jitter` ns from its clock.
#[derive(Debug, Clone, Copy)]
struct TimedWrite {
    lpn: u64,
    issuer: Issuer,
    jitter: u64,
}

/// How a run acknowledges writes to its issuers.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AckRule {
    /// What the FTL returns: the programming-slot rule.
    Slot,
    /// The rule the slot rule replaced: a write that pages out is
    /// acknowledged when that page's program finishes.
    ProgramFinish,
}

/// `dies` dies (one or four) of one plane, 64 blocks of 16 pages in all,
/// four write points: GC starts within a device's worth of writes over
/// 60 % of the units.
fn pressured_ftl(unit_bytes: u32, dies: u32) -> (Ftl, u64) {
    let channels = dies.min(2);
    let geometry = FlashGeometry {
        channels,
        dies_per_channel: dies / channels,
        planes_per_die: 1,
        blocks_per_plane: 64 / dies,
        pages_per_block: 16,
        page_bytes: 4096,
    };
    let upp = geometry.page_bytes / unit_bytes;
    let config = FtlConfig {
        unit_bytes,
        write_points: 4,
        gc_threshold_blocks: 4,
        gc_soft_threshold_blocks: 8,
        write_buffer_units: 2 * upp,
        wear_leveling_threshold: None,
        ..FtlConfig::default()
    };
    let lpns = geometry.total_pages() * u64::from(upp) * 6 / 10;
    let flash = FlashArray::new(geometry, FlashTiming::mlc());
    (Ftl::new(flash, config).unwrap(), lpns)
}

/// The brute-force slot model: with every program finish ever recorded
/// in `finishes`, a page-out admitted at `at` gets its slot at `at`
/// unless at least `depth` of them lie after `at`, and otherwise at the
/// oldest of the `depth` latest.
fn slot_free(finishes: &[SimTime], depth: usize, at: SimTime) -> SimTime {
    let mut later: Vec<SimTime> = finishes.iter().copied().filter(|&f| f > at).collect();
    if later.len() < depth {
        return at;
    }
    later.sort_unstable_by(|a, b| b.cmp(a));
    later[depth - 1]
}

/// What one run leaves behind. What every lpn reads back must not depend
/// on when writes were acknowledged; where they went may, once there
/// is more than one die to choose from.
#[derive(Debug, PartialEq)]
struct Placement {
    /// `(block, page, units)` of every page-out, in program order.
    page_outs: Vec<(u64, u64, u64)>,
    mapping: Vec<(Lpn, checkin_ftl::Location)>,
    programs: u64,
    erases: u64,
    /// Every mapped lpn and what it reads back.
    contents: Vec<(Lpn, UnitPayload)>,
}

/// Drives `writes` through a fresh [`pressured_ftl`] of `dies` dies, each
/// issuer's clock advancing by the acks `rule` gives it, and checks
/// every ack the FTL returns against [`slot_free`].
fn drive_timed(unit_bytes: u32, dies: u32, writes: &[TimedWrite], rule: AckRule) -> Placement {
    let (mut ftl, lpns) = pressured_ftl(unit_bytes, dies);
    let tracer = Tracer::ring_buffered(4_096);
    ftl.set_tracer(tracer.clone());
    let depth = ftl.config().write_points as usize;
    let mut finishes: Vec<SimTime> = Vec::new();
    let mut page_outs = Vec::new();
    let (mut client, mut chain) = (SimTime::ZERO, SimTime::ZERO);
    for (i, w) in writes.iter().enumerate() {
        let jitter = SimDuration::from_nanos(w.jitter);
        let at = match w.issuer {
            Issuer::Client => client + jitter,
            Issuer::LateClient => SimTime::from_nanos(client.as_nanos().saturating_sub(w.jitter)),
            Issuer::Chain => chain.max(client) + jitter,
        };
        let ack = ftl
            .write(
                UnitWrite {
                    lpn: Lpn(w.lpn),
                    payload: UnitPayload::single(w.lpn, i as u64, unit_bytes),
                    whole_unit: true,
                },
                OobKind::Data,
                at,
            )
            .unwrap();
        // Every page-out of this write — GC's migration page-outs first,
        // the write's own last — was admitted at `at`.
        let mut model = at;
        let mut last_program = None;
        for e in tracer.drain().iter().filter(|e| e.op == "page_out") {
            let field = |name| e.fields().iter().find(|f| f.0 == name).unwrap().1;
            let finish = SimTime::from_nanos(field("finish_ns"));
            model = model.max(slot_free(&finishes, depth, at));
            finishes.push(finish);
            page_outs.push((field("block"), field("page"), field("units")));
            last_program = Some(finish);
        }
        assert_eq!(ack, model, "write {i} at {at}: {w:?}");
        let acked = match rule {
            AckRule::Slot => ack,
            AckRule::ProgramFinish => last_program.map_or(at, |f| f.max(at)),
        };
        match w.issuer {
            Issuer::Client | Issuer::LateClient => client = client.max(acked),
            Issuer::Chain => chain = acked,
        }
    }
    ftl.check_invariants().unwrap();
    assert!(
        ftl.counters().get(Counter::FtlGcInvocations) > 0,
        "the stream never pressured GC"
    );
    assert!(ftl.counters().get(Counter::FtlBufferSlotWaits) > 0);
    let end = client.max(chain);
    let contents = (0..lpns)
        .map(Lpn)
        .filter_map(|lpn| match ftl.read(lpn, end) {
            Ok((payload, _)) => Some((lpn, payload)),
            Err(FtlError::Unmapped(_)) => None,
            Err(e) => panic!("{lpn}: {e}"),
        })
        .collect();
    let flash = ftl.flash().counters();
    Placement {
        page_outs,
        mapping: ftl.mapping_iter().collect(),
        programs: flash.total(Total::FlashProgram),
        erases: flash.total(Total::FlashErase),
        contents,
    }
}

/// The write buffer's ack rule against a model that keeps every program
/// finish: random unit writes from clients and from a chain booked ahead
/// of them (so admissions are not monotone), at 512 B and 4 KiB units, on
/// a device under GC pressure. The rule decides only *when* a writer
/// goes on: replayed with the issuers' clocks advanced by the old
/// program-finish acks instead, every lpn reads back the same payload.
/// On one die, where a page-out has no die to choose, every page-out,
/// the mapping table and the flash counts are the same too; on four,
/// page-outs follow the die timelines, which the acks move.
#[test]
fn a_write_waits_for_a_programming_slot_not_for_a_program() {
    for dies in [1, 4] {
        for (unit_bytes, writes) in [(512u32, 12_000usize), (4096, 2_000)] {
            let lpns = pressured_ftl(unit_bytes, dies).1;
            check(
                "a_write_waits_for_a_programming_slot_not_for_a_program",
                3,
                |rng| {
                    let stream = soup(rng, writes, |rng| TimedWrite {
                        lpn: rng.below(lpns),
                        issuer: match rng.weighted(&[6, 2, 2]) {
                            0 => Issuer::Client,
                            1 => Issuer::LateClient,
                            _ => Issuer::Chain,
                        },
                        jitter: rng.range_u64(0, 400_000),
                    });
                    let slot = drive_timed(unit_bytes, dies, &stream, AckRule::Slot);
                    let old = drive_timed(unit_bytes, dies, &stream, AckRule::ProgramFinish);
                    if dies == 1 {
                        assert_eq!(slot, old, "{unit_bytes} B units");
                    } else {
                        assert_eq!(slot.contents, old.contents, "{unit_bytes} B units");
                    }
                },
            );
        }
    }
}

#[test]
fn gc_pressure_soup_deterministic_regression() {
    // A fixed soup heavy on writes: exercises GC + WL deterministically.
    let ops: Vec<Op> = (0..6_000)
        .map(|i| match i % 17 {
            0 => Op::Flush,
            1 => Op::Gc,
            2 => Op::WearLevel,
            3 => Op::Deallocate {
                lpn: (i % 251) as u8,
            },
            4 => Op::Remap {
                dst: (i % 241) as u8,
                src: (i % 239) as u8,
            },
            _ => Op::Write {
                lpn: (i % 251) as u8,
            },
        })
        .collect();
    run_ops(&ops);
}

/// A foreground read, a write or a flush by `issuer`, `jitter` ns from
/// its clock.
#[derive(Debug, Clone, Copy)]
struct ClientOp {
    lpn: u64,
    kind: ClientKind,
    issuer: Issuer,
    jitter: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum ClientKind {
    Read,
    Write,
    Flush,
}

/// Foreground reads against page-outs on a two-plane device under GC
/// pressure, from clients and from a chain booked ahead of them (so
/// admissions are not monotone). Every read that goes ahead
/// of a program moves only what no one has seen: each die was busy for
/// exactly its senses, its own tPROGs (a page that joined another
/// plane's costs none), its erases and a `t_suspend` per suspension,
/// never longer than its span; and every instant a write waited for (a
/// programming slot) or a flush returned (the last program) is, at the
/// end, still the finish of some program.
#[test]
fn reads_go_ahead_only_of_programs_nobody_has_seen_finish() {
    let geometry = FlashGeometry {
        channels: 2,
        dies_per_channel: 2,
        planes_per_die: 2,
        blocks_per_plane: 8,
        pages_per_block: 16,
        page_bytes: 4096,
    };
    let t = FlashTiming::mlc();
    let lpns = geometry.total_pages() * 8 * 4 / 10;
    let mut ahead = [0u64; 3];
    check(
        "reads_go_ahead_only_of_programs_nobody_has_seen_finish",
        4,
        |rng| {
            let config = FtlConfig {
                unit_bytes: 512,
                write_points: geometry.total_planes() as u32,
                gc_threshold_blocks: 4,
                gc_soft_threshold_blocks: 8,
                write_buffer_units: 16,
                wear_leveling_threshold: None,
                ..FtlConfig::default()
            };
            let mut ftl = Ftl::new(FlashArray::new(geometry, t), config).unwrap();
            let tracer = Tracer::ring_buffered(8_192);
            ftl.set_tracer(tracer.clone());
            let stream = soup(rng, 16_000, |rng| ClientOp {
                lpn: rng.below(lpns),
                kind: match rng.weighted(&[25, 74, 1]) {
                    0 => ClientKind::Read,
                    1 => ClientKind::Write,
                    _ => ClientKind::Flush,
                },
                issuer: match rng.weighted(&[6, 2, 2]) {
                    0 => Issuer::Client,
                    1 => Issuer::LateClient,
                    _ => Issuer::Chain,
                },
                jitter: rng.range_u64(0, 10_000),
            });
            let dies = geometry.total_dies() as usize;
            // Per die: senses, tPROGs booked, erases, suspensions.
            let mut work = vec![[0u64; 4]; dies];
            let die_of_ppn = |ppn: u64| geometry.die_of_block(geometry.block_of(Ppn(ppn))) as usize;
            let mut finishes: Vec<SimTime> = Vec::new();
            // Instants writes and flushes were acknowledged at, later than
            // issued: each is some program's finish.
            let mut acks: Vec<SimTime> = Vec::new();
            let (mut client, mut chain) = (SimTime::ZERO, SimTime::ZERO);
            for (i, op) in stream.iter().enumerate() {
                let jitter = SimDuration::from_nanos(op.jitter);
                let at = match op.issuer {
                    Issuer::Client => client + jitter,
                    Issuer::LateClient => {
                        SimTime::from_nanos(client.as_nanos().saturating_sub(op.jitter))
                    }
                    Issuer::Chain => chain.max(client) + jitter,
                };
                let done = match op.kind {
                    ClientKind::Read => match ftl.read(Lpn(op.lpn), at) {
                        Ok((_, done)) => done,
                        Err(FtlError::Unmapped(_)) => at,
                        Err(e) => panic!("read {i}: {e}"),
                    },
                    ClientKind::Write => {
                        let unit = UnitWrite {
                            lpn: Lpn(op.lpn),
                            payload: UnitPayload::single(op.lpn, i as u64, 512),
                            whole_unit: true,
                        };
                        ftl.write(unit, OobKind::Data, at).unwrap()
                    }
                    ClientKind::Flush => ftl.flush(at).unwrap(),
                };
                if done > at && op.kind != ClientKind::Read {
                    acks.push(done);
                }
                match op.issuer {
                    Issuer::Client | Issuer::LateClient => client = client.max(done),
                    Issuer::Chain => chain = done,
                }
                for e in tracer.drain() {
                    let field = |name| e.fields().iter().find(|f| f.0 == name).unwrap().1;
                    match (e.layer, e.op) {
                        (TraceLayer::Ftl, "page_out") => {
                            finishes.push(SimTime::from_nanos(field("finish_ns")));
                        }
                        (TraceLayer::Flash, "suspend") => {
                            let (from, to) = (field("from_ns"), field("to_ns"));
                            let moved = finishes
                                .iter_mut()
                                .filter(|f| f.as_nanos() == from)
                                .take(field("pages") as usize)
                                .map(|f| *f = SimTime::from_nanos(to))
                                .count();
                            assert_eq!(moved as u64, field("pages"), "op {i}: {e:?}");
                            if e.note == "suspend" {
                                work[die_of_ppn(field("ppn"))][3] += 1;
                            }
                        }
                        (TraceLayer::Flash, "read") => work[die_of_ppn(field("ppn"))][0] += 1,
                        (TraceLayer::Flash, "program")
                            if !e.fields().contains(&("multiplane", 1)) =>
                        {
                            work[die_of_ppn(field("ppn"))][1] += 1;
                        }
                        (TraceLayer::Flash, "erase") => {
                            work[geometry.die_of_block(BlockId(field("block"))) as usize][2] += 1;
                        }
                        _ => {}
                    }
                }
            }
            assert_eq!(tracer.dropped(), 0);
            ftl.check_invariants().unwrap();
            for (d, (die, &[senses, programs, erases, suspends])) in
                ftl.flash().dies().zip(&work).enumerate()
            {
                let expected = t.t_read * senses
                    + t.t_program * programs
                    + t.t_erase * erases
                    + t.t_suspend * suspends;
                assert_eq!(die.busy_time(), expected, "die {d}: {:?}", work[d]);
                assert!(die.busy_time() <= die.span(), "die {d}: {die:?}");
            }
            finishes.sort_unstable();
            for ack in &acks {
                assert!(
                    finishes.binary_search(ack).is_ok(),
                    "a write was acknowledged at {ack}, which no program finishes at any more"
                );
            }
            assert!(ftl.counters().get(Counter::FtlGcInvocations) > 0);
            let flash = ftl.flash().counters();
            for (n, counter) in ahead.iter_mut().zip([
                flash.get(Counter::FlashProgramSuspends),
                flash.get(Counter::FlashReadOvertakes),
                ftl.counters().get(Counter::FtlProgrammingPageReads),
            ]) {
                *n += counter;
            }
        },
    );
    assert!(
        ahead.iter().all(|&n| n > 0),
        "suspends, overtakes, own-page reads: {ahead:?}"
    );
}
