//! `checkin` — command-line experiment runner for the Check-In
//! reproduction. See `checkin help` for usage.

use std::io::Write;

use checkin_cli::{parse, Command, RunArgs, SweepAxis, USAGE};
use checkin_core::{KvSystem, RunReport, Strategy, SystemConfig};
use checkin_sim::{Counter, Tracer};

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
    let mut system = KvSystem::new(args.to_config()).unwrap_or_else(|e| {
        eprintln!("error: invalid configuration: {e}");
        std::process::exit(2);
    });
    system.run().unwrap_or_else(|e| {
        eprintln!("error: run failed: {e}");
        std::process::exit(1);
    })
}

fn run_one(args: &RunArgs) {
    let report = execute(args);
    if args.csv {
        print_csv("", [(String::new(), report)]);
    } else {
        println!("{report}");
    }
}

/// The CSV writer of `run`, `compare` and `sweep`: the header the reports
/// derive, then one line per report, each behind its cell of the `lead`
/// column when the command has one (`sweep`'s swept value).
fn print_csv(lead: &str, reports: impl IntoIterator<Item = (String, RunReport)>) {
    for (i, (cell, report)) in reports.into_iter().enumerate() {
        if i == 0 {
            println!("{lead}{}", report.csv_header());
        }
        println!("{cell}{}", report.to_csv_row());
    }
}

/// The table of `compare` and `sweep`: a first column `width` wide
/// headed `first` (the strategy, the swept value), then each report's
/// throughput, latency, checkpoint bytes, GC rounds and checkpoints.
fn print_table<'a>(
    first: &str,
    width: usize,
    rows: impl IntoIterator<Item = (String, &'a RunReport)>,
) {
    println!(
        "{first:<width$} {:>11} {:>11} {:>11} {:>9} {:>9} {:>8}",
        "queries/s", "mean", "p99.9", "cp KiB", "gc", "cps"
    );
    for (cell, r) in rows {
        let (mean, p999) = (r.latency.mean.to_string(), r.latency.p999.to_string());
        println!(
            "{cell:<width$} {:>11.0} {mean:>11} {p999:>11} {:>9} {:>9} {:>8}",
            r.throughput,
            r.redundant_write_bytes / 1024,
            r.counters.get(Counter::FtlGcInvocations),
            r.checkpoints,
        );
    }
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
    let configs = Strategy::all()
        .into_iter()
        .map(|strategy| {
            let mut a = args.clone();
            a.strategy = strategy;
            a.to_config()
        })
        .collect();
    let reports = execute_batch(configs, args.jobs);
    if args.csv {
        print_csv("", reports.into_iter().map(|r| (String::new(), r)));
    } else {
        let labels = reports.iter().map(|r| r.strategy.label().to_string());
        print_table("config", 10, labels.zip(&reports));
    }
}

fn sweep(axis: SweepAxis, values: &[u64], base: &RunArgs) {
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
    let reports = execute_batch(configs, base.jobs);
    if base.csv {
        let cells = values.iter().map(|v| format!("{v},"));
        print_csv("value,", cells.zip(reports));
    } else {
        print_table("value", 12, values.iter().map(u64::to_string).zip(&reports));
    }
}
