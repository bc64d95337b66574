//! `perfsuite` — the wall-clock performance suite behind `BENCH_perf.json`.
//!
//! Times the hot paths the dense-table / allocation-free / hot-loop
//! refactors target:
//!
//! 1. **L2P lookup & remap** — the dense `MappingTable` under random
//!    lookups and remap churn on a realistically full table.
//! 2. **Event queue** — the hierarchical timing-wheel `EventQueue` under a
//!    closed-loop pop+schedule pattern, at the full-run population (33)
//!    and at a command-queue-storm population (64k).
//! 3. **Journal append** — sector-aligned appends through `JournalManager`
//!    with the double-buffered zone swap on overflow.
//! 4. **Checkpoint remap vs copy** — a 64-entry in-storage checkpoint
//!    command against a fully modelled SSD on the paper's 512 B mapping
//!    unit, where entries genuinely remap, against the same command in
//!    copy mode (the ISC-A/B data path). Gated: remap must beat copy.
//! 5. **Trace emit** — the disabled-tracer hot-path cost (one branch)
//!    against the ring-buffered sink, guarding the zero-overhead claim.
//! 6. **Full system run** — 50k Check-In queries (10k under `--quick`) at
//!    admission batch 1 (the historical client model) and batch 16
//!    (`system/batched_admission_*`). The query loop is timed separately
//!    from device construction and record load. The batch-1 run is
//!    repeated, interleaved, with `verify_checksums` off to price the
//!    on-by-default integrity checks, gated at a 10% ceiling
//!    (`checksum_verification_cost`), and with victim selection forced to
//!    greedy to price the gclab-elected default GC policy
//!    (`default_gc_policy_vs_greedy`, floor 0.90). Ratios against the
//!    pre-overhaul loop's recorded ns/op are reported, not gated: the
//!    constants were measured once, on another host.
//! 7. **Flash page store** — what 4 096 programmed pages of the
//!    paper's shape (eight 512 B units, one in eight merged) cost the
//!    host, as the counts `flash/store_bytes_per_unit` and
//!    `flash/program_allocs_per_page`. Exact on any host; reported, not
//!    gated (`crates/flash/tests/page_store_alloc.rs` holds the budgets).
//!    Construction and record-load times are kvbench's `setup_s` and
//!    `engine.load_ns_per_record`.
//! 8. **Parallel sweep** — a 15-configuration strategy×seed batch, serial
//!    vs `run_configs` work-stealing workers. Reported, not gated: two
//!    shared cores measure 0.5–0.9x.
//!
//! The gates compare two runs interleaved in this process. The in-binary
//! `HashMap` L2P and `BinaryHeap` event-queue baselines the suite once
//! carried are gone; their last measured ratios are in EXPERIMENTS.md.
//!
//! Results land in `BENCH_perf.json` (override with `--out PATH`) so later
//! changes can regress against recorded numbers. Any failed gate exits 1.

// A counting `GlobalAlloc` shim cannot be written without `unsafe`
// (same shim as `crates/flash/tests/page_store_alloc.rs`).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use checkin_bench::harness::{bench, compare, metric, BenchOpts, BenchResult, Comparison, Metric};
use checkin_core::{default_jobs, run_configs, JournalManager, Layout, Strategy, SystemConfig};
use checkin_flash::{
    FlashArray, FlashGeometry, FlashTiming, Fragment, OobEntry, OobKind, PageContent, Ppn,
    UnitPayload,
};
use checkin_ftl::{Ftl, FtlConfig, Location, Lpn, MappingTable, Pun, UnitWrite};
use checkin_sim::{
    Counter, CounterSet, EventQueue, SimDuration, SimRng, SimTime, TraceEvent, TraceLayer, Tracer,
};
use checkin_ssd::{CheckpointMode, CowEntry, Ssd, SsdTiming};

/// Counts allocation calls for `flash/program_allocs_per_page`; one
/// relaxed increment per call, which the timed loops (allocation-free
/// in steady state) do not see.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counter
// touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Mapped LPNs in the L2P benches — the paper-default device has ~400k
/// 4-sector mapping units, so this is a realistically full table.
const L2P_ENTRIES: u64 = 400_000;

/// Required remap-vs-copy speedup for the 64-entry checkpoint command —
/// the device-side advantage the paper's Check-In scheme rests on.
const REQUIRED_REMAP_VS_COPY: f64 = 2.0;

/// Full-run baseline from the seed `BENCH_perf.json` (858,457 qps): the
/// pre-overhaul code as measured on the host that recorded the seed
/// numbers, construction included. Reported for cross-PR comparability.
const SEED_FULL_RUN_QPS: f64 = 858_457.0;

/// The pre-overhaul query loop (`KvSystem::run` only) as once rebuilt
/// and measured on the PR 6 host: ~940 ns/op over 50k queries, ~1450
/// ns/op over 10k. Reported ratios only — another host's constant
/// cannot gate this one.
const PRECHANGE_50K_RUN_NS_PER_OP: f64 = 940.0;
const PRECHANGE_10K_RUN_NS_PER_OP: f64 = 1450.0;

/// Floor on the default-GC-policy run vs the same workload forced to
/// greedy (the pre-lab policy). The gclab sweep picked the shipped
/// default on simulated WAF/lifetime/tail; this gate guards the other
/// axis — that victim selection stays cheap enough on the host clock for
/// the full run not to regress. The paper-default device sees little GC
/// in 50k queries, so the true ratio is ~1.0 and the floor only needs to
/// clear host noise.
const REQUIRED_DEFAULT_POLICY_VS_GREEDY: f64 = 0.90;
const QUICK_DEFAULT_POLICY_VS_GREEDY: f64 = 0.80;

/// Hard ceiling on the cost of on-by-default checksum verification: the
/// 50k query loop with `verify_checksums` on may be at most 10% slower
/// than the same loop with it off. The quick (10k) variant is looser —
/// short runs on this shared host swing by more than the budget itself.
const CHECKSUM_OVERHEAD_CEILING: f64 = 0.10;
const QUICK_CHECKSUM_OVERHEAD_CEILING: f64 = 0.25;

fn bench_l2p(opts: BenchOpts, results: &mut Vec<BenchResult>) {
    section("L2P mapping table (dense Vec)");
    let mut dense = MappingTable::with_capacity(L2P_ENTRIES as usize);
    for i in 0..L2P_ENTRIES {
        dense.map(Lpn(i), Location::Flash(Pun(i)));
    }
    let mut rng = SimRng::seed_from(11);
    results.push(bench("l2p/lookup_dense", opts, || {
        dense.lookup(Lpn(rng.gen_range(L2P_ENTRIES)))
    }));

    // Remap churn: every iteration moves a random LPN to a fresh PUN,
    // exercising forward update plus reverse unlink/link — the write path
    // the FTL takes on every host program and GC relocation. PUNs recycle
    // within a bounded window so the reverse array stays device-sized, as
    // it does in the real FTL.
    let mut rng = SimRng::seed_from(12);
    let mut next_pun = L2P_ENTRIES;
    results.push(bench("l2p/remap_dense", opts, || {
        let lpn = Lpn(rng.gen_range(L2P_ENTRIES));
        dense.map(lpn, Location::Flash(Pun(next_pun % (2 * L2P_ENTRIES))));
        next_pun += 1;
    }));
}

/// Closed-loop pop+schedule on the timing-wheel `EventQueue`.
fn bench_event_queue(opts: BenchOpts, results: &mut Vec<BenchResult>) {
    section("Event queue: timing wheel, closed-loop pop+schedule");
    for (n, label) in [(33u64, "33"), (65_536, "64k")] {
        // The rescheduling horizon scales with population so it stays
        // realistic at both sizes.
        let gap = 7_800u64;
        let mut q: EventQueue<u32> = EventQueue::with_capacity(n as usize);
        let mut rng = SimRng::seed_from(9);
        for i in 0..n {
            q.schedule(SimTime::from_nanos(1 + i * gap), i as u32);
        }
        results.push(bench(
            &format!("queue/pop_schedule_calendar_{label}"),
            opts,
            || {
                let (t, e) = q.pop().unwrap();
                q.schedule(
                    t + SimDuration::from_nanos(n * gap + rng.gen_range(5_000)),
                    e,
                );
                e
            },
        ));
    }
}

fn bench_journal_append(opts: BenchOpts, results: &mut Vec<BenchResult>) {
    section("Journal append path (sector-aligned, Algorithm 2)");
    let layout = Layout::new(1_024, 4096, 512, 1 << 14);
    let mut jm = JournalManager::new(layout, true, 0.7);
    let mut rng = SimRng::seed_from(21);
    let mut version = 0u64;
    results.push(bench("journal/append_aligned", opts, || {
        version += 1;
        let key = rng.gen_range(1_024);
        match jm.append(key, version, 300) {
            Ok(req) => req.sectors,
            Err(_) => {
                // Zone full: swap to the other journal half and recycle
                // the retiring zone's entry buffer, as the engine does.
                let zone = jm.begin_checkpoint();
                jm.recycle_zone(zone);
                0
            }
        }
    }));
}

/// A loaded device plus 64 checkpoint entries derived from real journal
/// writes, on the given mapping unit. With the paper's 512 B unit every
/// one-sector journal log is unit-aligned, so remap mode performs genuine
/// mapping-table aliasing; copy mode forces the ISC-A/B read-merge-write
/// fallback on the same state.
fn checkpoint_fixture(unit_bytes: u32) -> (Ssd, Vec<CowEntry>) {
    let flash = FlashArray::new(FlashGeometry::paper_default(), FlashTiming::mlc());
    let ftl = Ftl::new(
        flash,
        FtlConfig {
            unit_bytes,
            ..FtlConfig::default()
        },
    )
    .unwrap();
    let mut ssd = Ssd::new(ftl, SsdTiming::paper_default());
    let layout = Layout::new(1_024, 4096, 512, 1 << 14);
    let mut jm = JournalManager::new(layout, true, 0.7);
    let mut t = SimTime::ZERO;
    for key in 0..64u64 {
        let req = jm.append(key, 1, 512).unwrap();
        t = ssd.write(&req, OobKind::Journal, t).unwrap();
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

fn bench_checkpoint(
    opts: BenchOpts,
    results: &mut Vec<BenchResult>,
    comparisons: &mut Vec<Comparison>,
) -> f64 {
    section("Checkpoint command, 64 live entries: remap walk vs copy fallback");
    // The paper's Check-In configuration: 512 B mapping unit, so the
    // sector-aligned journal entries qualify for remapping. (An earlier
    // revision built this fixture on the default 4 KiB unit, which
    // silently demoted every entry to the copy path — the "remap" bench
    // was measuring read-merge-write traffic.)
    let (mut ssd, entries) = checkpoint_fixture(512);
    let remap = bench("ssd/checkpoint_remap_64_entries", opts, || {
        ssd.checkpoint(&entries, CheckpointMode::Remap, SimTime::ZERO)
            .unwrap()
    });
    let (mut ssd, entries) = checkpoint_fixture(512);
    let copy = bench("ssd/checkpoint_copy_64_entries", opts, || {
        ssd.checkpoint(&entries, CheckpointMode::Copy, SimTime::ZERO)
            .unwrap()
    });
    let cmp = compare("checkpoint_remap_vs_copy", &copy, &remap);
    let speedup = cmp.speedup;
    results.extend([remap, copy]);
    comparisons.push(cmp);
    speedup
}

fn bench_ftl_write(opts: BenchOpts, results: &mut Vec<BenchResult>) {
    section("FTL unit write (journal stream)");
    let flash = FlashArray::new(FlashGeometry::paper_default(), FlashTiming::mlc());
    let mut ftl = Ftl::new(flash, FtlConfig::default()).unwrap();
    let mut lpn = 0u64;
    results.push(bench("ftl/unit_write", opts, || {
        let w = UnitWrite {
            lpn: Lpn(lpn % L2P_ENTRIES),
            payload: UnitPayload::single(lpn, 1, 512),
            whole_unit: true,
        };
        lpn += 1;
        ftl.write(w, OobKind::Journal, SimTime::ZERO).unwrap()
    }));
}

fn bench_tracer(
    opts: BenchOpts,
    results: &mut Vec<BenchResult>,
    comparisons: &mut Vec<Comparison>,
) {
    section("Trace emit: disabled (hot-path cost) vs ring-buffered");
    let disabled = Tracer::disabled();
    let mut x = 0u64;
    let off = bench("trace/emit_disabled", opts, || {
        x += 1;
        disabled.emit(|| {
            TraceEvent::new(SimTime::from_nanos(x), TraceLayer::Flash, "program").with("ppn", x)
        });
        x
    });
    let ring = Tracer::ring_buffered(4_096);
    let mut y = 0u64;
    let on = bench("trace/emit_ring_buffered", opts, || {
        y += 1;
        ring.emit(|| {
            TraceEvent::new(SimTime::from_nanos(y), TraceLayer::Flash, "program").with("ppn", y)
        });
        y
    });
    comparisons.push(compare("trace_disabled_speedup", &on, &off));
    results.extend([off, on]);
}

/// One counter bump, in the shape the flash and ftl sets have in a run:
/// 30 keys touched, and bumps alternating between the key touched first
/// and the one touched 20th. The loop is the one EXPERIMENTS.md's
/// string-keyed figure was taken with, where those positions cost a
/// 1-entry and a 20-entry scan; keep it comparable. The second key is a
/// per-phase flash counter, so its bump credits a total too. Reported,
/// not gated.
fn bench_counter_bump(opts: BenchOpts, results: &mut Vec<BenchResult>) {
    section("Counter bump (typed key; totals credited at the bump)");
    let touched = &Counter::ALL[11..41];
    let mut set = CounterSet::new();
    for &key in touched {
        set.incr(key);
    }
    let pair = [touched[0], touched[19]];
    let mut i = 0usize;
    results.push(bench("sim/counter_bump_ns", opts, || {
        i ^= 1;
        set.incr(black_box(pair[i]));
    }));
    black_box(&set);
}

/// Wraps a repeated one-shot measurement in a [`BenchResult`]: `units` is
/// the work count (queries, configs) so `ns_per_op` reads as time per
/// unit. The best of `reps` repetitions is reported, damping scheduler
/// noise the same way the microbench harness's best-batch rule does.
fn one_shot(name: &str, units: u64, reps: u32, mut run: impl FnMut()) -> BenchResult {
    let mut best = u128::MAX;
    let mut total: u128 = 0;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        run();
        let ns = start.elapsed().as_nanos().max(1);
        best = best.min(ns);
        total += ns;
    }
    let result = BenchResult {
        name: name.to_string(),
        iters: units,
        best_batch_ns: best,
        total_iters: units * reps.max(1) as u64,
        total_ns: total,
    };
    println!(
        "  {:<44} {:>12.1} ns/op   ({:.3} s total, best of {reps})",
        result.name,
        result.ns_per_op(),
        total as f64 / 1e9
    );
    result
}

/// A comparison against a recorded baseline constant (ns/op), for benches
/// whose "before" implementation no longer exists in the tree.
fn compare_recorded(
    name: &str,
    baseline_label: &str,
    baseline_ns: f64,
    r: &BenchResult,
) -> Comparison {
    let speedup = baseline_ns / r.ns_per_op();
    println!(
        "  {:<44} {:>11.2}x  ({} vs recorded {})",
        name, speedup, r.name, baseline_label
    );
    Comparison {
        name: name.to_string(),
        baseline: baseline_label.to_string(),
        candidate: r.name.clone(),
        speedup,
    }
}

fn full_run_config(queries: u64, admission_batch: u32) -> SystemConfig {
    let mut config = SystemConfig::for_strategy(Strategy::CheckIn);
    config.total_queries = queries;
    config.threads = 32;
    config.workload.record_count = 6_000;
    config.admission_batch = admission_batch;
    config
}

/// One timed system run: `(query-loop ns, construction+loop ns)`.
fn full_run_once(config: &SystemConfig) -> (u128, u128) {
    let built = Instant::now();
    let mut sys = checkin_core::KvSystem::new(config.clone()).expect("valid bench config");
    let construct_ns = built.elapsed().as_nanos();
    let start = Instant::now();
    let report = sys.run().expect("bench run succeeds");
    assert_eq!(report.ops, config.total_queries);
    let run_ns = start.elapsed().as_nanos().max(1);
    (run_ns, construct_ns + run_ns)
}

/// Best-of-reps accumulator for [`full_run_once`] measurements.
#[derive(Clone, Copy)]
struct RunAcc {
    best_run: u128,
    best_total: u128,
    total_run: u128,
    total_total: u128,
}

impl RunAcc {
    fn new() -> Self {
        RunAcc {
            best_run: u128::MAX,
            best_total: u128::MAX,
            total_run: 0,
            total_total: 0,
        }
    }

    fn absorb(&mut self, (run_ns, total_ns): (u128, u128)) {
        self.best_run = self.best_run.min(run_ns);
        self.best_total = self.best_total.min(total_ns);
        self.total_run += run_ns;
        self.total_total += total_ns;
    }

    /// Emits `(run_only, total)` results in the perfsuite format.
    fn results(self, name: &str, queries: u64, reps: u32) -> (BenchResult, BenchResult) {
        let mk = |suffix: &str, best: u128, total: u128| {
            let r = BenchResult {
                name: format!("{name}{suffix}"),
                iters: queries,
                best_batch_ns: best,
                total_iters: queries * reps.max(1) as u64,
                total_ns: total,
            };
            println!(
                "  {:<44} {:>12.1} ns/op   ({:.0} qps, best of {reps})",
                r.name,
                r.ns_per_op(),
                1e9 / r.ns_per_op()
            );
            r
        };
        (
            mk("", self.best_run, self.total_run),
            mk("_total", self.best_total, self.total_total),
        )
    }
}

/// Runs the full system `reps` times and reports the best rep, timing the
/// query loop (`KvSystem::run`) separately from device construction plus
/// record load (`KvSystem::new`). Returns `(run_only, total)` results.
fn full_run_split(name: &str, config: &SystemConfig, reps: u32) -> (BenchResult, BenchResult) {
    let mut acc = RunAcc::new();
    for _ in 0..reps.max(1) {
        acc.absorb(full_run_once(config));
    }
    acc.results(name, config.total_queries, reps)
}

fn bench_full_run(
    quick: bool,
    results: &mut Vec<BenchResult>,
    comparisons: &mut Vec<Comparison>,
) -> (f64, f64) {
    let queries: u64 = if quick { 10_000 } else { 50_000 };
    let reps = if quick { 2 } else { 5 };
    let (baseline_ns, baseline_label) = if quick {
        (
            PRECHANGE_10K_RUN_NS_PER_OP,
            "pre-overhaul 10k query loop (PR 6 host)",
        )
    } else {
        (
            PRECHANGE_50K_RUN_NS_PER_OP,
            "pre-overhaul 50k query loop (PR 6 host)",
        )
    };
    section(&format!(
        "Full system run ({queries} queries, Check-In): admission batch 1 vs 16"
    ));

    // The batch-1 run doubles as one side of the checksum-overhead gate:
    // the same config with `verify_checksums` off isolates the per-read
    // CRC cost. The two variants are run *interleaved*, rep by rep, so a
    // host-load drift between measurement windows cannot masquerade as
    // (or hide) checksum cost — verification is on by default, and its
    // price on the hot loop is gated with a ceiling, not a floor.
    let config = full_run_config(queries, 1);
    let mut off_config = full_run_config(queries, 1);
    off_config.verify_checksums = false;
    // The same workload forced to greedy victim selection: one side of
    // the default-policy-switch gate (the shipped default is the gclab
    // winner; this prices its host-clock cost on the full run).
    let mut greedy_config = full_run_config(queries, 1);
    greedy_config.gc_policy = checkin_core::VictimPolicy::Greedy;
    // Twice the usual reps: the gated quantities are *ratios of bests*,
    // and a ~2% true cost needs both bests near their floors to stay
    // clear of the ceilings on a host with ±15% run-to-run swings. All
    // three variants run interleaved, rep by rep, so host-load drift
    // between measurement windows cannot masquerade as (or hide) a cost.
    let pair_reps = reps.max(1) * 2;
    let mut on_acc = RunAcc::new();
    let mut off_acc = RunAcc::new();
    let mut greedy_acc = RunAcc::new();
    for _ in 0..pair_reps {
        on_acc.absorb(full_run_once(&config));
        off_acc.absorb(full_run_once(&off_config));
        greedy_acc.absorb(full_run_once(&greedy_config));
    }
    let name = format!("system/full_run_{}k_queries", queries / 1_000);
    let (plain, _) = on_acc.results(&name, queries, pair_reps);
    let plain_cmp = compare_recorded("full_run_speedup", baseline_label, baseline_ns, &plain);
    let off_name = format!("system/full_run_{}k_no_checksums", queries / 1_000);
    let (no_checksums, _) = off_acc.results(&off_name, queries, pair_reps);
    let cost_cmp = compare("checksum_verification_cost", &no_checksums, &plain);
    let checksum_overhead = (1.0 / cost_cmp.speedup) - 1.0;
    println!(
        "  checksum-on overhead on the query loop: {:.1}%",
        checksum_overhead * 100.0
    );
    results.push(no_checksums);
    comparisons.push(cost_cmp);

    let greedy_name = format!("system/full_run_{}k_greedy_policy", queries / 1_000);
    let (greedy_run, _) = greedy_acc.results(&greedy_name, queries, pair_reps);
    let policy_cmp = compare("default_gc_policy_vs_greedy", &greedy_run, &plain);
    let policy_speedup = policy_cmp.speedup;
    results.push(greedy_run);
    comparisons.push(policy_cmp);

    let config = full_run_config(queries, 16);
    let name = format!("system/batched_admission_{}k", queries / 1_000);
    let (batched, batched_total) = full_run_split(&name, &config, reps);
    let batched_cmp = compare_recorded(
        "batched_admission_speedup",
        baseline_label,
        baseline_ns,
        &batched,
    );
    // Ungated: the batching advantage (~10-15%) sits inside host noise
    // for a single pair of runs, so it is tracked rather than enforced.
    comparisons.push(compare("batched_vs_plain_admission", &plain, &batched));

    // Cross-host context: total wall time (construction included, the
    // seed's metric) relative to the qps recorded in the seed
    // BENCH_perf.json.
    if !quick {
        let vs_seed = compare_recorded(
            "full_run_total_vs_seed_recorded_qps",
            "seed-recorded 858,457 qps full run",
            1e9 / SEED_FULL_RUN_QPS,
            &batched_total,
        );
        comparisons.push(vs_seed);
        results.push(batched_total);
    }

    results.extend([plain, batched]);
    comparisons.extend([plain_cmp, batched_cmp]);
    (checksum_overhead, policy_speedup)
}

/// Host cost of the flash page store for 4 096 programmed pages of the
/// paper's shape: eight 512 B units and OOB records a page, one unit
/// in eight a merged sector of three records.
fn page_store_metrics() -> Vec<Metric> {
    section("Flash page store (paper-default array, 4 096 pages)");
    const PAGES: u64 = 4096;
    let mut flash = FlashArray::new(FlashGeometry::paper_default(), FlashTiming::mlc());
    let mut page = PageContent::empty(8);
    for (i, unit) in page.units.iter_mut().enumerate() {
        let lpn = i as u64;
        let third = |key| Fragment {
            key,
            version: 1,
            bytes: 170,
        };
        *unit = Some(if i == 3 {
            UnitPayload::merged(vec![third(3), third(8), third(9)])
        } else {
            UnitPayload::single(lpn, 1, 512)
        });
        page.oob.push(OobEntry {
            lpn,
            sequence: lpn,
            kind: OobKind::Journal,
        });
    }
    let calls_before = ALLOC_CALLS.load(Ordering::Relaxed);
    for p in 0..PAGES {
        flash
            .program(Ppn(p), &page, SimTime::ZERO)
            .expect("bench program succeeds");
    }
    let calls = ALLOC_CALLS.load(Ordering::Relaxed) - calls_before;
    vec![
        metric(
            "flash/store_bytes_per_unit",
            flash.store_bytes() as f64 / (PAGES * 8) as f64,
            "B",
        ),
        metric(
            "flash/program_allocs_per_page",
            calls as f64 / PAGES as f64,
            "calls",
        ),
    ]
}

fn bench_parallel_sweep(
    quick: bool,
    results: &mut Vec<BenchResult>,
    comparisons: &mut Vec<Comparison>,
) {
    let queries: u64 = if quick { 2_000 } else { 8_000 };
    // Work-steal over more configurations than workers so long runs
    // (Baseline's host-driven checkpoints) cannot convoy the batch, and
    // always use at least two workers — `default_jobs()` is 1 on a
    // single-core host, which made the old 5-config comparison measure
    // serial-vs-serial (0.99-1.1x, i.e. nothing).
    let jobs = default_jobs().max(2);
    let seeds = [0x5EEDu64, 0xA11CE, 0xB0B5];
    section(&format!(
        "Strategy-comparison sweep: serial vs {jobs} worker threads, 15 configs"
    ));
    let configs: Vec<SystemConfig> = Strategy::all()
        .into_iter()
        .flat_map(|s| {
            seeds.map(|seed| {
                let mut c = SystemConfig::for_strategy(s);
                c.total_queries = queries;
                c.threads = 32;
                c.workload.record_count = 6_000;
                c.workload.seed = seed;
                c
            })
        })
        .collect();
    let n = configs.len() as u64;

    let serial = one_shot("sweep/fifteen_configs_serial", n, 1, || {
        for r in run_configs(&configs, 1) {
            r.expect("sweep config runs");
        }
    });
    let parallel = one_shot("sweep/fifteen_configs_parallel", n, 1, || {
        for r in run_configs(&configs, jobs) {
            r.expect("sweep config runs");
        }
    });
    comparisons.push(compare("sweep_parallel_speedup", &serial, &parallel));
    results.extend([serial, parallel]);
}

fn section(title: &str) {
    println!("\n== {title}");
}

/// Records a PASS/FAIL line for a gated comparison.
fn gate(failures: &mut Vec<String>, what: &str, speedup: f64, floor: f64) {
    if speedup >= floor {
        println!("PASS: {what} is {speedup:.2}x (required {floor:.2}x)");
    } else {
        let msg = format!("{what} is only {speedup:.2}x (required {floor:.2}x)");
        eprintln!("FAIL: {msg}");
        failures.push(msg);
    }
}

/// Records a PASS/FAIL line for an overhead ceiling (fraction, not ratio).
fn gate_ceiling(failures: &mut Vec<String>, what: &str, overhead: f64, ceiling: f64) {
    if overhead <= ceiling {
        println!(
            "PASS: {what} is {:.1}% (ceiling {:.0}%)",
            overhead * 100.0,
            ceiling * 100.0
        );
    } else {
        let msg = format!(
            "{what} is {:.1}% (ceiling {:.0}%)",
            overhead * 100.0,
            ceiling * 100.0
        );
        eprintln!("FAIL: {msg}");
        failures.push(msg);
    }
}

fn main() {
    let mut quick = false;
    let mut out = PathBuf::from("BENCH_perf.json");
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => match argv.next() {
                Some(path) => out = PathBuf::from(path),
                None => {
                    eprintln!("error: --out requires a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("error: unknown argument `{other}`");
                eprintln!("usage: perfsuite [--quick] [--out PATH]");
                std::process::exit(2);
            }
        }
    }
    let mode = if quick { "quick" } else { "full" };
    let opts = if quick {
        BenchOpts::quick()
    } else {
        BenchOpts::full()
    };
    println!("perfsuite ({mode}) -> {}", out.display());

    let mut results = Vec::new();
    let mut comparisons = Vec::new();

    bench_l2p(opts, &mut results);
    bench_event_queue(opts, &mut results);
    bench_journal_append(opts, &mut results);
    bench_ftl_write(opts, &mut results);
    let remap_speedup = bench_checkpoint(opts, &mut results, &mut comparisons);
    bench_tracer(opts, &mut results, &mut comparisons);
    bench_counter_bump(opts, &mut results);
    let (checksum_overhead, policy_speedup) = bench_full_run(quick, &mut results, &mut comparisons);
    let metrics = page_store_metrics();
    bench_parallel_sweep(quick, &mut results, &mut comparisons);

    harnessed_write(&out, mode, &results, &comparisons, &metrics);

    println!();
    let mut failures = Vec::new();
    gate(
        &mut failures,
        "checkpoint remap vs copy (64 entries)",
        remap_speedup,
        REQUIRED_REMAP_VS_COPY,
    );
    gate(
        &mut failures,
        "default GC policy vs greedy-forced full run",
        policy_speedup,
        if quick {
            QUICK_DEFAULT_POLICY_VS_GREEDY
        } else {
            REQUIRED_DEFAULT_POLICY_VS_GREEDY
        },
    );
    gate_ceiling(
        &mut failures,
        "checksum verification overhead on the query loop",
        checksum_overhead,
        if quick {
            QUICK_CHECKSUM_OVERHEAD_CEILING
        } else {
            CHECKSUM_OVERHEAD_CEILING
        },
    );

    if !failures.is_empty() {
        eprintln!("\nperfsuite: {} gate(s) failed", failures.len());
        std::process::exit(1);
    }
}

fn harnessed_write(
    out: &std::path::Path,
    mode: &str,
    results: &[BenchResult],
    comparisons: &[Comparison],
    metrics: &[Metric],
) {
    if let Err(e) = checkin_bench::harness::write_json_with(
        out,
        "perfsuite",
        mode,
        results,
        comparisons,
        metrics,
    ) {
        eprintln!("error: could not write {}: {e}", out.display());
        std::process::exit(1);
    }
    println!("\nwrote {}", out.display());
}
