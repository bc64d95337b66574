//! `checkin` — command-line experiment runner for the Check-In
//! reproduction. See `checkin help` for usage.

use std::io::Write;

use checkin_cli::{parse, Command, RunArgs, SweepAxis, USAGE};
use checkin_core::{KvSystem, RunReport, Strategy, SystemConfig};
use checkin_sim::{SimDuration, Tracer};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let refs: Vec<&str> = argv.iter().map(String::as_str).collect();
    match parse(&refs) {
        Ok(Command::Help) => print!("{USAGE}"),
        Ok(Command::Run(args)) => run_one(&args),
        Ok(Command::Compare(args)) => compare(&args),
        Ok(Command::Sweep { axis, values, base }) => sweep(axis, &values, &base),
        Ok(Command::Trace { args, events }) => trace(&args, events),
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    }
}

/// Runs one configuration with the ring-buffered tracer installed across
/// every layer, then streams the captured events as JSON lines on stdout
/// (summary and report go to stderr so the event stream stays parseable).
fn trace(args: &RunArgs, events: usize) {
    let config = args.to_config();
    let mut system = KvSystem::new(config).unwrap_or_else(|e| {
        eprintln!("error: invalid configuration: {e}");
        std::process::exit(2);
    });
    let tracer = Tracer::ring_buffered(events);
    system.set_tracer(tracer.clone());
    let report = system.run().unwrap_or_else(|e| {
        eprintln!("error: run failed: {e}");
        std::process::exit(1);
    });

    let captured = tracer.drain();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for event in &captured {
        if writeln!(out, "{}", event.to_json_line()).is_err() {
            // Downstream closed the pipe (e.g. `| head`): stop quietly.
            return;
        }
    }
    let _ = out.flush();
    eprintln!(
        "trace: {} events captured ({} emitted, {} dropped by the {}-event ring)",
        captured.len(),
        tracer.emitted(),
        tracer.dropped(),
        events
    );
    eprintln!("{report}");
}

fn execute(args: &RunArgs) -> RunReport {
    let config = args.to_config();
    let system = KvSystem::new(config).unwrap_or_else(|e| {
        eprintln!("error: invalid configuration: {e}");
        std::process::exit(2);
    });
    let mut system = system;
    system.run().unwrap_or_else(|e| {
        eprintln!("error: run failed: {e}");
        std::process::exit(1);
    })
}

fn run_one(args: &RunArgs) {
    let report = execute(args);
    println!("{report}");
    println!(
        "  redundancy    cp units {} ({} KiB), remap {}, copy {}",
        report.redundant_write_units,
        report.redundant_write_bytes / 1024,
        report.remapped_entries,
        report.copied_entries
    );
    println!(
        "  host memory   flash page store {} KiB",
        report.flash_store_bytes / 1024
    );
    let waits = report.flash.buffer_slot_waits;
    let waited = SimDuration::from_nanos(report.flash.buffer_slot_wait_ns);
    println!(
        "  write buffer  {waits} unit writes waited for a programming slot, {} on average ({waited} in all), off-plane block opens {}",
        waited / waits.max(1),
        report.flash.off_plane_opens
    );
    println!(
        "  resilience    transient faults {} (retries {}), grown bad {}, blocks retired {}",
        report.flash.transient_faults,
        report.flash.media_retries,
        report.flash.grown_bad_blocks,
        report.flash.blocks_retired
    );
}

fn table_row(r: &RunReport) -> String {
    format!(
        "{:<10} {:>11.0} {:>11} {:>11} {:>9} {:>9} {:>8}",
        r.strategy.label(),
        r.throughput,
        format!("{}", r.latency.mean),
        format!("{}", r.latency.p999),
        r.redundant_write_bytes / 1024,
        r.flash.gc_invocations,
        r.checkpoints,
    )
}

/// Runs a batch of configurations across worker threads (`--jobs`,
/// default one per core). Report order matches `configs`; results are
/// identical to a serial loop, just faster on the wall clock.
fn execute_batch(configs: Vec<SystemConfig>, jobs: Option<usize>) -> Vec<RunReport> {
    let jobs = jobs.unwrap_or_else(checkin_core::default_jobs);
    checkin_core::run_configs(&configs, jobs)
        .into_iter()
        .map(|r| {
            r.unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            })
        })
        .collect()
}

fn compare(args: &RunArgs) {
    if args.csv {
        println!("{}", RunReport::csv_header());
    } else {
        println!(
            "{:<10} {:>11} {:>11} {:>11} {:>9} {:>9} {:>8}",
            "config", "queries/s", "mean", "p99.9", "cp KiB", "gc", "cps"
        );
    }
    let configs = Strategy::all()
        .into_iter()
        .map(|strategy| {
            let mut a = args.clone();
            a.strategy = strategy;
            a.to_config()
        })
        .collect();
    for r in execute_batch(configs, args.jobs) {
        if args.csv {
            println!("{}", r.to_csv_row());
        } else {
            println!("{}", table_row(&r));
        }
    }
}

fn sweep(axis: SweepAxis, values: &[u64], base: &RunArgs) {
    if base.csv {
        println!("value,{}", RunReport::csv_header());
    } else {
        println!(
            "{:<12} {:>11} {:>11} {:>11} {:>9} {:>9} {:>8}",
            "value", "queries/s", "mean", "p99.9", "cp KiB", "gc", "cps"
        );
    }
    let configs = values
        .iter()
        .map(|&v| {
            let mut a = base.clone();
            match axis {
                SweepAxis::Threads => a.threads = v as u32,
                SweepAxis::IntervalMs => a.interval_ms = v,
                SweepAxis::UnitBytes => a.unit_bytes = Some(v as u32),
            }
            a.to_config()
        })
        .collect();
    for (&v, r) in values.iter().zip(execute_batch(configs, base.jobs)) {
        if base.csv {
            println!("{v},{}", r.to_csv_row());
        } else {
            println!(
                "{:<12} {}",
                v,
                table_row(&r)
                    .split_once(' ')
                    .map(|(_, rest)| rest)
                    .unwrap_or("")
            );
        }
    }
}
